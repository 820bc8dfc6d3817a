//! Per-rank virtual clocks.
//!
//! Every rank in the simulated world carries a virtual clock measured in
//! seconds. Local computation advances only the local clock; messages carry
//! their arrival time, and a receive advances the receiver's clock
//! to at least the message arrival time. The maximum clock value across
//! ranks at the end of a run is therefore a conservative estimate of the
//! parallel makespan under the configured [`crate::netmodel::NetModel`] —
//! exactly the quantity the paper's figures plot.
//!
//! Computation can be charged two ways:
//!
//! * [`VirtualClock::measure`] runs a closure, measures its wall time, and
//!   charges it (scaled by `compute_scale`). Appropriate when ranks are not
//!   heavily oversubscribed.
//! * [`VirtualClock::charge`] adds an analytically modelled duration.
//!   Appropriate for scaling studies where thread oversubscription would
//!   distort wall-clock measurements.

use std::cell::Cell;
use std::time::Instant;

/// A single rank's virtual clock. Not shared across threads: each rank
/// thread owns its clock and communicates arrival times through envelopes.
#[derive(Debug)]
pub struct VirtualClock {
    now: Cell<f64>,
    compute_scale: f64,
}

impl VirtualClock {
    /// New clock at time zero. `compute_scale` multiplies wall-clock
    /// durations recorded by [`measure`](Self::measure); use it to model a
    /// faster or slower CPU than the host.
    pub fn new(compute_scale: f64) -> Self {
        assert!(compute_scale.is_finite() && compute_scale >= 0.0);
        Self {
            now: Cell::new(0.0),
            compute_scale,
        }
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now.get()
    }

    /// Advance the clock by a modelled duration (seconds).
    pub fn charge(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot charge negative time");
        self.now.set(self.now.get() + seconds.max(0.0));
    }

    /// Advance the clock to at least `t` (used when a message arrives).
    pub fn advance_to(&self, t: f64) {
        if t > self.now.get() {
            self.now.set(t);
        }
    }

    /// Run `f`, measure its wall time, and charge it scaled by
    /// `compute_scale`. Returns `f`'s result.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.charge(start.elapsed().as_secs_f64() * self.compute_scale);
        out
    }

    /// The configured compute scale.
    pub fn compute_scale(&self) -> f64 {
        self.compute_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new(1.0).now(), 0.0);
    }

    #[test]
    fn charge_accumulates() {
        let c = VirtualClock::new(1.0);
        c.charge(1.5);
        c.charge(0.5);
        assert!((c.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = VirtualClock::new(1.0);
        c.charge(3.0);
        c.advance_to(2.0); // earlier arrival: no effect
        assert_eq!(c.now(), 3.0);
        c.advance_to(5.0);
        assert_eq!(c.now(), 5.0);
    }

    #[test]
    fn measure_charges_positive_time() {
        let c = VirtualClock::new(1.0);
        let v: u64 = c.measure(|| (0..100_000u64).sum());
        assert!(v > 0);
        assert!(c.now() > 0.0);
    }

    #[test]
    fn measure_respects_scale() {
        let c = VirtualClock::new(0.0);
        c.measure(|| std::hint::black_box((0..10_000u64).sum::<u64>()));
        assert_eq!(c.now(), 0.0, "zero scale must charge nothing");
    }

    #[test]
    #[should_panic]
    fn negative_scale_rejected() {
        VirtualClock::new(-1.0);
    }
}
