//! Histogram-based splitter selection (Solomonik & Kale, IPDPS'10; the
//! selection machinery inside HykSort, and the alternative §2.4 weighs
//! against regular sampling).
//!
//! Iteratively refines a small candidate set: every round the ranks
//! contribute sampled candidate keys, each candidate's *global rank* is
//! computed with one reduction over local `upper_bound`s, and the
//! candidate closest to each target position is kept, until every
//! splitter's deviation is within tolerance.
//!
//! §2.4's caveat, reproduced by the `baselines` tests: the produced
//! splitters are *key values*, so when one key holds more than a bucket's
//! worth of mass no splitter refinement can balance a duplicate-blind
//! partition. SDS-Sort's skew-aware partition removes that caveat, which
//! is why [`crate::config::PivotSource::Histogram`] is usable here as an
//! alternative pivot source (see the `ablation_pivot_source` harness).

use crate::record::Sortable;
use crate::search::upper_bound;
use comm::Communicator;

/// Configuration for the iterative refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramConfig {
    /// Candidates sampled per rank per round.
    pub samples_per_round: usize,
    /// Maximum refinement rounds.
    pub max_rounds: usize,
    /// Acceptable deviation from the target position, as a fraction of the
    /// ideal bucket size (HykSort uses ~10%).
    pub tolerance: f64,
}

impl Default for HistogramConfig {
    fn default() -> Self {
        Self {
            samples_per_round: 16,
            max_rounds: 8,
            tolerance: 0.1,
        }
    }
}

/// xorshift64* — deterministic candidate sampling without an RNG crate
/// dependency in the core library (HSS in `algos` samples with it too).
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Fan-out `k` for one level of a multi-level sorter (HykSort's rule, which
/// AMS-sort shares): the largest divisor of `p` that is ≤ `kmax` and ≥ 2, or
/// `p` itself when `p` is prime and exceeds `kmax` (single-level fallback).
pub fn choose_k(p: usize, kmax: usize) -> usize {
    debug_assert!(p >= 2);
    let mut best = 1usize;
    let mut d = 2usize;
    while d * d <= p {
        if p.is_multiple_of(d) {
            if d <= kmax {
                best = best.max(d);
            }
            let q = p / d;
            if q <= kmax {
                best = best.max(q);
            }
        }
        d += 1;
    }
    if p <= kmax {
        best = best.max(p);
    }
    if best >= 2 {
        best
    } else {
        p
    }
}

/// Select `k-1` splitters over the distributed (locally sorted) `data`
/// using iterative histogramming. Returns the same splitters on all ranks.
pub fn histogram_splitters<T: Sortable, C: Communicator>(
    comm: &C,
    data: &[T],
    k: usize,
    cfg: &HistogramConfig,
    seed: u64,
) -> Vec<T::Key> {
    let total = comm.allreduce(data.len() as u64, |a, b| a + b);
    let want = k.saturating_sub(1);
    if want == 0 || total == 0 {
        return Vec::new();
    }
    let targets: Vec<u64> = (1..k).map(|i| i as u64 * total / k as u64).collect();
    let bucket = (total / k as u64).max(1);
    let tol = ((bucket as f64) * cfg.tolerance).max(1.0) as u64;

    // Best candidate per target: (key, achieved global rank).
    let mut best: Vec<Option<(T::Key, u64)>> = vec![None; want];
    let mut rng_state = seed ^ 0x4157_0001 ^ ((comm.rank() as u64) << 17) | 1;

    for round in 0..cfg.max_rounds {
        // Sample candidate keys from local data (plus the extremes on the
        // first round so empty-ish ranks still contribute structure).
        let mut mine: Vec<T::Key> = Vec::with_capacity(cfg.samples_per_round + 2);
        if !data.is_empty() {
            for _ in 0..cfg.samples_per_round {
                let idx = (xorshift(&mut rng_state) % data.len() as u64) as usize;
                mine.push(data[idx].key());
            }
            if round == 0 {
                mine.push(data[0].key());
                mine.push(data[data.len() - 1].key());
            }
        }
        let (mut candidates, _) = comm.allgatherv(&mine);
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            break;
        }
        // One reduction gives every candidate's global rank.
        let local_ranks: Vec<u64> = candidates
            .iter()
            .map(|&c| upper_bound(data, c) as u64)
            .collect();
        let global_ranks = comm.allreduce(local_ranks, |a, b| {
            a.iter().zip(&b).map(|(x, y)| x + y).collect()
        });

        for (t, &target) in targets.iter().enumerate() {
            for (c, &cand) in candidates.iter().enumerate() {
                let err = global_ranks[c].abs_diff(target);
                let better = match best[t] {
                    None => true,
                    Some((_, r)) => err < r.abs_diff(target),
                };
                if better {
                    best[t] = Some((cand, global_ranks[c]));
                }
            }
        }
        let done = best
            .iter()
            .zip(&targets)
            .all(|(b, &t)| matches!(b, Some((_, r)) if r.abs_diff(t) <= tol));
        if done {
            break;
        }
    }
    // Fill any still-empty slots (possible only when data is degenerate)
    // with the nearest chosen neighbour.
    let mut out: Vec<T::Key> = Vec::with_capacity(want);
    let mut last: Option<T::Key> = None;
    for b in &best {
        let key = match b {
            Some((kk, _)) => *kk,
            None => last.expect("at least one candidate was ranked"),
        };
        out.push(key);
        last = Some(key);
    }
    // Splitters must be non-decreasing for bucketing.
    out.sort_unstable();
    out
}
