//! Histogram-based splitter selection (Solomonik & Kale, IPDPS'10; the
//! selection machinery inside HykSort, and the alternative §2.4 weighs
//! against regular sampling).
//!
//! [`refine`] is the one refinement loop: every round the ranks
//! contribute sampled candidate keys, each candidate is *measured*
//! globally with one reduction over local binary searches, and the
//! candidate closest to each target position is kept, until every
//! target's deviation is within tolerance. What a candidate is measured
//! by, and how far a measure is from a target, are the caller's:
//! [`histogram_splitters`] here (HykSort's) ranks a candidate by its
//! global `upper_bound`, and `algos::hss` by the `[lower, upper]` interval
//! of positions a tie split at it can realize.
//!
//! §2.4's caveat, reproduced by the `algos` HykSort tests: the splitters
//! [`histogram_splitters`] produces are *key values*, so when one key
//! holds more than a bucket's worth of mass no splitter refinement can
//! balance a duplicate-blind partition. SDS-Sort's skew-aware partition
//! removes that caveat, which is why
//! [`crate::config::PivotSource::Histogram`] is usable here as an
//! alternative pivot source (see the `ablation_pivot_source` harness).

use crate::record::Sortable;
use crate::search::upper_bound;
use comm::Communicator;

/// Candidates [`histogram_splitters`] samples per rank per round.
const SAMPLES_PER_ROUND: usize = 16;
/// Its maximum refinement rounds.
const MAX_ROUNDS: usize = 8;
/// Its acceptable deviation from the target position, as a fraction of the
/// ideal bucket size (HykSort uses ~10%).
const TOLERANCE: f64 = 0.1;

/// xorshift64* — deterministic candidate sampling without an RNG crate
/// dependency in the core library.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The span each [`refine`] round opens, inside the caller's (the
/// driver's `pivot-select`): the round's collectives count under it.
pub const ROUND_SPAN: &str = "refine-round";

/// What one [`refine`] call aims at and how hard it tries.
#[derive(Debug, Clone, Copy)]
pub struct Refinement<'a> {
    /// Global positions to approximate, one boundary each.
    pub targets: &'a [u64],
    /// A target is met when its best candidate's error is at most this.
    pub tol: u64,
    /// Candidates sampled per rank per round.
    pub samples_per_round: usize,
    /// Maximum refinement rounds.
    pub max_rounds: usize,
    /// Sampling seed (mixed with the rank).
    pub seed: u64,
}

/// The histogram-refinement loop over the distributed, locally sorted
/// `data`: sample → allgather → dedup → one allreduce of every
/// candidate's `measure` → keep the best candidate per target by `err` →
/// stop when every target is within `plan.tol`. Each round is one
/// [`ROUND_SPAN`] span. Returns, per target, the
/// best candidate and its global measure — `None` only when no candidate
/// was ever ranked (no data, or no rounds) — identically on all ranks.
pub fn refine<T: Sortable, C: Communicator, const W: usize>(
    comm: &C,
    data: &[T],
    plan: &Refinement,
    measure: impl Fn(T::Key) -> [u64; W],
    err: impl Fn(&[u64; W], u64) -> u64,
) -> Vec<Option<(T::Key, [u64; W])>> {
    let mut best: Vec<Option<(T::Key, [u64; W])>> = vec![None; plan.targets.len()];
    let mut rng_state = (plan.seed ^ ((comm.rank() as u64) << 17)) | 1;

    for round in 0..plan.max_rounds {
        let span = comm.span_begin(ROUND_SPAN, comm.now());
        let stop = 'round: {
            // Sample candidate keys from local data (plus the extremes on
            // the first round so empty-ish ranks still contribute
            // structure).
            let mut mine: Vec<T::Key> = Vec::with_capacity(plan.samples_per_round + 2);
            if !data.is_empty() {
                for _ in 0..plan.samples_per_round {
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
                break 'round true;
            }
            // One reduction gives every candidate's global measure.
            let local: Vec<u64> = candidates.iter().flat_map(|&c| measure(c)).collect();
            let global =
                comm.allreduce(local, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect());
            let measures = global
                .chunks_exact(W)
                .map(|m| <[u64; W]>::try_from(m).expect("chunks_exact(W) yields W words"));
            let ranked: Vec<(T::Key, [u64; W])> = candidates.into_iter().zip(measures).collect();

            for (slot, &target) in best.iter_mut().zip(plan.targets) {
                for &(cand, m) in &ranked {
                    if slot.is_none_or(|(_, b)| err(&m, target) < err(&b, target)) {
                        *slot = Some((cand, m));
                    }
                }
            }
            best.iter()
                .zip(plan.targets)
                .all(|(b, &t)| matches!(b, Some((_, m)) if err(m, t) <= plan.tol))
        };
        comm.span_end(span, comm.now());
        if stop {
            break;
        }
    }
    best
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
    seed: u64,
) -> Vec<T::Key> {
    let total = comm.allreduce(data.len() as u64, |a, b| a + b);
    let want = k.saturating_sub(1);
    if want == 0 || total == 0 {
        return Vec::new();
    }
    let targets: Vec<u64> = (1..k).map(|i| i as u64 * total / k as u64).collect();
    let bucket = (total / k as u64).max(1);
    let plan = Refinement {
        targets: &targets,
        tol: ((bucket as f64) * TOLERANCE).max(1.0) as u64,
        samples_per_round: SAMPLES_PER_ROUND,
        max_rounds: MAX_ROUNDS,
        seed: seed ^ 0x4157_0001,
    };
    // A candidate is ranked by its global upper bound: the position a
    // value splitter at it realizes.
    let best = refine(
        comm,
        data,
        &plan,
        |c| [upper_bound(data, c) as u64],
        |&[rank], target| rank.abs_diff(target),
    );
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
