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
//! Computation advances a clock only through [`VirtualClock::charge`],
//! with a modelled duration (the communicator's `compute_with` prices it
//! from the compute model): host time never enters, so a run's clocks are
//! a function of its program.

use std::cell::Cell;

/// A single rank's virtual clock, at time zero by default. Not shared
/// across threads: each rank thread owns its clock and communicates
/// arrival times through envelopes.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: Cell<f64>,
}

impl VirtualClock {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::default().now(), 0.0);
    }

    #[test]
    fn charge_accumulates() {
        let c = VirtualClock::default();
        c.charge(1.5);
        c.charge(0.5);
        assert!((c.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = VirtualClock::default();
        c.charge(3.0);
        c.advance_to(2.0); // earlier arrival: no effect
        assert_eq!(c.now(), 3.0);
        c.advance_to(5.0);
        assert_eq!(c.now(), 5.0);
    }
}
