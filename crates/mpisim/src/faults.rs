//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultSpec`] describes *system* misbehaviour — per-message delay
//! jitter, rank stalls and slowdowns, transient send-buffer exhaustion,
//! and memory-pressure ramps — and the [`Faults`]
//! policy object threads those decisions through the send/receive paths.
//! Like the telemetry `Recorder`, the object is a pure policy: when no
//! spec is installed every hook is one relaxed atomic load and the
//! simulation is bit-identical to a world built without it.
//!
//! Determinism: every decision is a pure hash of `(seed, stream, sender,
//! peer, sequence number)`, where the sequence numbers are per-sender
//! counters advanced in the sender's own program order. Two runs of a
//! deterministic program under the same spec therefore inject identical
//! faults, regardless of thread scheduling.
//!
//! There is no reordering fault: a receive from known sources takes each
//! source's messages in send order and picks among sources by virtual
//! arrival (see [`crate::mailbox`]), so only a delay changes what it takes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Configuration for the fault-injection layer. All-zero (the
/// [`FaultSpec::none`] / `Default` value) injects nothing and keeps the
/// layer disabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Probability that a message's in-flight time is extended.
    pub delay_prob: f64,
    /// Maximum extra in-flight seconds (uniform in `[0, delay_max_s)`).
    pub delay_max_s: f64,
    /// Stall injection applies to ranks where `rank % stall_every == 0`
    /// (0 disables).
    pub stall_every: usize,
    /// Probability a message operation on a stalled rank injects a stall.
    pub stall_prob: f64,
    /// Stall duration in virtual seconds.
    pub stall_s: f64,
    /// Slowdown applies to ranks where `rank % slow_every == 0`
    /// (0 disables).
    pub slow_every: usize,
    /// Compute-charge multiplier for slowed ranks (> 1.0 slows them down).
    pub slow_factor: f64,
    /// Probability a send hits transient send-buffer exhaustion.
    pub sendbuf_prob: f64,
    /// Number of exhaustion retries before the send proceeds.
    pub sendbuf_retries: u32,
    /// Sender-side backoff per retry in virtual seconds.
    pub sendbuf_backoff_s: f64,
    /// Memory-pressure ramp: virtual time at which pressure starts.
    pub ramp_start_s: f64,
    /// Virtual time at which the ramp reaches its full fraction.
    pub ramp_full_s: f64,
    /// Fraction of the per-rank budget withheld at full ramp (0..=1).
    pub ramp_max_frac: f64,
}

impl FaultSpec {
    /// The inert spec: installs the layer but injects nothing.
    pub fn none() -> Self {
        Self {
            seed: 0,
            delay_prob: 0.0,
            delay_max_s: 0.0,
            stall_every: 0,
            stall_prob: 0.0,
            stall_s: 0.0,
            slow_every: 0,
            slow_factor: 1.0,
            sendbuf_prob: 0.0,
            sendbuf_retries: 0,
            sendbuf_backoff_s: 0.0,
            ramp_start_s: 0.0,
            ramp_full_s: 0.0,
            ramp_max_frac: 0.0,
        }
    }

    /// Whether any fault class can actually fire.
    pub fn is_active(&self) -> bool {
        (self.delay_prob > 0.0 && self.delay_max_s > 0.0)
            || (self.stall_every > 0 && self.stall_prob > 0.0 && self.stall_s > 0.0)
            || (self.slow_every > 0 && self.slow_factor != 1.0)
            || (self.sendbuf_prob > 0.0 && self.sendbuf_retries > 0 && self.sendbuf_backoff_s > 0.0)
            || self.ramp_max_frac > 0.0
    }

    /// Parse a compact spec string of comma-separated clauses, e.g.
    /// `seed=7,delay=0.3:2e-6,stall=2:0.1:5e-5,slow=3:1.5,sendbuf=0.1:3:1e-5,ramp=0:0.01:0.9`.
    ///
    /// Clauses: `seed=N`, `delay=PROB:MAX_S`, `stall=EVERY:PROB:SECONDS`, `slow=EVERY:FACTOR`,
    /// `sendbuf=PROB:RETRIES:BACKOFF_S`, `ramp=START_S:FULL_S:FRAC`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = Self::none();
        for clause in s.split(',').filter(|c| !c.trim().is_empty()) {
            let (key, val) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not KEY=VALUE"))?;
            let parts: Vec<&str> = val.split(':').collect();
            let f = |i: usize| -> Result<f64, String> {
                parts
                    .get(i)
                    .ok_or_else(|| format!("`{key}` needs more fields in `{clause}`"))?
                    .parse::<f64>()
                    .map_err(|e| format!("bad number in `{clause}`: {e}"))
            };
            let n = |i: usize| -> Result<u64, String> {
                parts
                    .get(i)
                    .ok_or_else(|| format!("`{key}` needs more fields in `{clause}`"))?
                    .parse::<u64>()
                    .map_err(|e| format!("bad integer in `{clause}`: {e}"))
            };
            match key.trim() {
                "seed" => spec.seed = n(0)?,
                "delay" => {
                    spec.delay_prob = f(0)?;
                    spec.delay_max_s = f(1)?;
                }
                "stall" => {
                    spec.stall_every = n(0)? as usize;
                    spec.stall_prob = f(1)?;
                    spec.stall_s = f(2)?;
                }
                "slow" => {
                    spec.slow_every = n(0)? as usize;
                    spec.slow_factor = f(1)?;
                }
                "sendbuf" => {
                    spec.sendbuf_prob = f(0)?;
                    spec.sendbuf_retries = n(1)? as u32;
                    spec.sendbuf_backoff_s = f(2)?;
                }
                "ramp" => {
                    spec.ramp_start_s = f(0)?;
                    spec.ramp_full_s = f(1)?;
                    spec.ramp_max_frac = f(2)?;
                }
                other => return Err(format!("unknown fault clause `{other}`")),
            }
        }
        Ok(spec)
    }

    /// Worst-case extra virtual seconds a single message operation can
    /// incur (jitter + full send-buffer backoff + one stall). Used by
    /// harnesses to assert bounded virtual-time inflation.
    pub fn worst_case_per_message_s(&self) -> f64 {
        let mut s = self.delay_max_s;
        s += self.sendbuf_retries as f64 * self.sendbuf_backoff_s;
        s += self.stall_s;
        s
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

/// Per-message fault decision produced once per send.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct MessageFaults {
    /// Sender-side backoff from transient send-buffer exhaustion (seconds).
    pub send_backoff_s: f64,
    /// Extra in-flight time from delay jitter (seconds).
    pub extra_transit_s: f64,
}

/// splitmix64 finalizer — a pure, well-mixed hash of the decision key.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform float in [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The runtime fault policy installed in a [`crate::Universe`].
///
/// Disabled (the default) unless built from an active [`FaultSpec`];
/// every hook's disabled path is a single relaxed atomic load.
pub(crate) struct Faults {
    enabled: AtomicBool,
    spec: FaultSpec,
    /// Per-sender message counters (sender program order — deterministic).
    msg_seq: Vec<AtomicU64>,
    /// Per-rank message-operation counters for stall decisions.
    op_seq: Vec<AtomicU64>,
}

impl Faults {
    pub fn new(world_size: usize, spec: Option<FaultSpec>) -> Self {
        let spec = spec.unwrap_or_else(FaultSpec::none);
        let active = spec.is_active();
        let counters = if active { world_size } else { 0 };
        Self {
            enabled: AtomicBool::new(active),
            spec,
            msg_seq: (0..counters).map(|_| AtomicU64::new(0)).collect(),
            op_seq: (0..counters).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Fault decision for the next message `src → dst`. `None` when the
    /// layer is disabled (the common case: one relaxed load).
    #[inline]
    pub fn message(&self, src: usize, dst: usize) -> Option<MessageFaults> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        Some(self.message_slow(src, dst))
    }

    #[cold]
    fn message_slow(&self, src: usize, dst: usize) -> MessageFaults {
        let seq = self.msg_seq[src].fetch_add(1, Ordering::Relaxed);
        let key = self
            .spec
            .seed
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add((src as u64) << 32 | dst as u64)
            .wrapping_add(seq.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        let mut out = MessageFaults::default();
        let s = &self.spec;
        if s.delay_prob > 0.0 && s.delay_max_s > 0.0 {
            let h = mix(key ^ 0x01);
            if unit(h) < s.delay_prob {
                out.extra_transit_s = unit(mix(h)) * s.delay_max_s;
            }
        }
        if s.sendbuf_prob > 0.0 && s.sendbuf_retries > 0 && s.sendbuf_backoff_s > 0.0 {
            let h = mix(key ^ 0x03);
            if unit(h) < s.sendbuf_prob {
                let retries = 1 + mix(h) % s.sendbuf_retries as u64;
                out.send_backoff_s = retries as f64 * s.sendbuf_backoff_s;
            }
        }
        out
    }

    /// Stall seconds to inject for the next message operation on `rank`
    /// (0.0 when disabled or the rank is not selected).
    #[inline]
    pub fn op_stall(&self, rank: usize) -> f64 {
        if !self.enabled.load(Ordering::Relaxed) {
            return 0.0;
        }
        self.op_stall_slow(rank)
    }

    #[cold]
    fn op_stall_slow(&self, rank: usize) -> f64 {
        let s = &self.spec;
        if s.stall_every == 0 || s.stall_prob <= 0.0 || s.stall_s <= 0.0 {
            return 0.0;
        }
        if !rank.is_multiple_of(s.stall_every) {
            return 0.0;
        }
        let seq = self.op_seq[rank].fetch_add(1, Ordering::Relaxed);
        let h = mix(s
            .seed
            .wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .wrapping_add(rank as u64)
            .wrapping_add(seq << 20));
        if unit(h) < s.stall_prob {
            s.stall_s
        } else {
            0.0
        }
    }

    /// Compute-charge multiplier for `rank` (1.0 when disabled or the rank
    /// is not slowed).
    #[inline]
    pub fn compute_factor(&self, rank: usize) -> f64 {
        if !self.enabled.load(Ordering::Relaxed) {
            return 1.0;
        }
        let s = &self.spec;
        if s.slow_every > 0 && rank.is_multiple_of(s.slow_every) {
            s.slow_factor
        } else {
            1.0
        }
    }

    /// Bytes of `budget` withheld from `rank` by the memory-pressure ramp
    /// at virtual time `now`. 0 when disabled or the budget is unlimited.
    #[inline]
    pub fn withheld(&self, rank: usize, now: f64, budget: usize) -> usize {
        if !self.enabled.load(Ordering::Relaxed) {
            return 0;
        }
        self.withheld_slow(rank, now, budget)
    }

    #[cold]
    fn withheld_slow(&self, _rank: usize, now: f64, budget: usize) -> usize {
        let s = &self.spec;
        if s.ramp_max_frac <= 0.0 || budget == usize::MAX {
            return 0;
        }
        let frac = if now <= s.ramp_start_s {
            0.0
        } else if now >= s.ramp_full_s || s.ramp_full_s <= s.ramp_start_s {
            s.ramp_max_frac
        } else {
            s.ramp_max_frac * (now - s.ramp_start_s) / (s.ramp_full_s - s.ramp_start_s)
        };
        (budget as f64 * frac.clamp(0.0, 1.0)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_spec_is_disabled() {
        let f = Faults::new(4, Some(FaultSpec::none()));
        assert!(!f.enabled());
        assert!(f.message(0, 1).is_none());
        assert_eq!(f.op_stall(0), 0.0);
        assert_eq!(f.compute_factor(0), 1.0);
        assert_eq!(f.withheld(0, 10.0, 1000), 0);
        let absent = Faults::new(4, None);
        assert!(!absent.enabled());
    }

    #[test]
    fn decisions_are_deterministic_per_sequence() {
        let spec = FaultSpec {
            seed: 42,
            delay_prob: 0.5,
            delay_max_s: 1e-5,
            sendbuf_prob: 0.3,
            sendbuf_retries: 3,
            sendbuf_backoff_s: 1e-6,
            ..FaultSpec::none()
        };
        let a = Faults::new(4, Some(spec));
        let b = Faults::new(4, Some(spec));
        for _ in 0..100 {
            assert_eq!(a.message(1, 2), b.message(1, 2));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| FaultSpec {
            seed,
            delay_prob: 0.5,
            delay_max_s: 1e-5,
            ..FaultSpec::none()
        };
        let a = Faults::new(2, Some(mk(1)));
        let b = Faults::new(2, Some(mk(2)));
        let seq_a: Vec<_> = (0..64).map(|_| a.message(0, 1).unwrap()).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.message(0, 1).unwrap()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn stall_respects_stride() {
        let spec = FaultSpec {
            seed: 7,
            stall_every: 2,
            stall_prob: 1.0,
            stall_s: 1e-3,
            ..FaultSpec::none()
        };
        let f = Faults::new(4, Some(spec));
        assert_eq!(f.op_stall(1), 0.0, "odd ranks are never stalled");
        assert_eq!(f.op_stall(2), 1e-3);
    }

    #[test]
    fn ramp_withholds_monotonically() {
        let spec = FaultSpec {
            ramp_start_s: 1.0,
            ramp_full_s: 3.0,
            ramp_max_frac: 0.5,
            ..FaultSpec::none()
        };
        let f = Faults::new(1, Some(spec));
        assert_eq!(f.withheld(0, 0.5, 1000), 0);
        let mid = f.withheld(0, 2.0, 1000);
        assert!(mid > 0 && mid < 500, "mid-ramp withholds partially: {mid}");
        assert_eq!(f.withheld(0, 10.0, 1000), 500);
        // unlimited budgets are never withheld from
        assert_eq!(f.withheld(0, 10.0, usize::MAX), 0);
    }

    #[test]
    fn parse_round_trips_all_clauses() {
        let s =
            "seed=7,delay=0.3:2e-6,stall=2:0.1:5e-5,slow=3:1.5,sendbuf=0.1:3:1e-5,ramp=0:0.01:0.9";
        let spec = FaultSpec::parse(s).expect("parses");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.delay_prob, 0.3);
        assert_eq!(spec.delay_max_s, 2e-6);
        assert_eq!(spec.stall_every, 2);
        assert_eq!(spec.slow_factor, 1.5);
        assert_eq!(spec.sendbuf_retries, 3);
        assert_eq!(spec.ramp_max_frac, 0.9);
        assert!(spec.is_active());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert_eq!(
            FaultSpec::parse("reorder=0.5:6"),
            Err("unknown fault clause `reorder`".to_string()),
            "delivery by arrival leaves no reordering to inject"
        );
        assert!(FaultSpec::parse("delay").is_err());
        assert!(FaultSpec::parse("delay=x:y").is_err());
        assert!(FaultSpec::parse("delay=0.5").is_err(), "missing field");
        assert!(FaultSpec::parse("").is_ok_and(|s| !s.is_active()));
    }
}
