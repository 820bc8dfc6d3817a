//! The yardstick: how long this machine, right now, takes to sort a fixed
//! small array on one core.
//!
//! The host this benchmark was built on runs up to 1.4× slower for minutes
//! at a time (see the README's hazards), which moves every wall-clock
//! number alike. Timing metrics are therefore reported in yardsticks: the
//! measured seconds divided by the yardstick seconds taken in the same
//! trial. A uniform slow-down of the machine cancels; a change to the code
//! under test does not, because the yardstick never calls it.

use crate::stats::median;
use sdssort::ComputeModel;
use std::hint::black_box;
use std::time::Instant;

/// Keys the yardstick sorts (512 KiB: it lives in L2).
pub const YARDSTICK_KEYS: usize = 1 << 16;

pub struct Yardstick {
    keys: Vec<u64>,
    seconds: Vec<f64>,
}

impl Yardstick {
    /// The same keys whatever the run's seed: a unit does not vary.
    pub fn new() -> Self {
        Yardstick {
            keys: workloads::uniform_u64(YARDSTICK_KEYS, 0x5941_5244, 0),
            seconds: Vec::new(),
        }
    }

    /// Take one measurement (≈ 1.2 ms): `slice::sort_unstable` of a copy
    /// of the keys. Callers interleave measurements with the operations
    /// they time — the host's speed changes within a second — on as many
    /// threads as those operations keep busy.
    pub fn measure(&mut self) {
        let t = Instant::now();
        let mut v = self.keys.clone();
        v.sort_unstable();
        black_box(&v);
        self.seconds.push(t.elapsed().as_secs_f64());
    }

    /// Median of every measurement taken.
    pub fn seconds(&self) -> f64 {
        median(&self.seconds)
    }
}

/// The simulator's yardstick: its compute is charged from the nominal
/// model, so its machine sorts the yardstick's keys in exactly this long.
pub fn modelled_seconds() -> f64 {
    ComputeModel::nominal().sort_cost(YARDSTICK_KEYS)
}
