//! Histogram Sort with Sampling (Harsh, Kale, Solomonik — SPAA'19).
//!
//! HSS is a single-stage partitioning sort whose splitter selection
//! carries a provable quality guarantee: iterative histogramming refines
//! a sampled candidate set until every part of the partition is within
//! `(1+ε)` of the ideal `N/p`, using far fewer samples than one-shot
//! sample sort needs for the same bound.
//!
//! The refinement loop is `sdssort::histogram::refine`, the same one that
//! selects HykSort's splitters; two things distinguish what HSS does with
//! it:
//!
//! 1. **Boundaries are positions, not key values.** A cut is an
//!    [`HssCut`]: a key plus a *tie split* — how many duplicates of that
//!    key (counted in global rank order) fall left of the boundary. A
//!    candidate key `c` with global `lower/upper`-bound ranks `l(c)` and
//!    `u(c)` can therefore realize **any** boundary position in
//!    `[l(c), u(c)]` exactly. Duplicate mass, which defeats value-only
//!    splitters (one key heavier than `(1+ε)·N/p` makes the HykSort
//!    guarantee unachievable — §2.4 of the SDS-Sort paper), instead makes
//!    a candidate *more* useful here: the heavier the key, the wider the
//!    interval of positions it can hit. This mirrors how SDS-Sort's
//!    skew-aware partition splits replicated runs — both resolve the
//!    split on each rank with `sdssort::partition::tie_cut` — applied to
//!    HSS's histogram refinement: a candidate is measured by its
//!    interval, and its error is its distance to the target.
//! 2. **A deterministic exact fallback.** If a target position is still
//!    outside tolerance after `max_rounds` (degenerate sampling luck),
//!    the exact boundary key is found with
//!    [`sdssort::selection::kth_smallest_key`] — so the `(1+ε)` bound is
//!    a postcondition, not a hope. The splitter-quality suite asserts it
//!    across the whole skew matrix.
//!
//! Sampling is seeded xorshift (per rank), histogramming is one
//! `allreduce` per round, the exchange is a synchronous rank-order
//! `alltoallv`, ties split by global rank order, and the final merge
//! breaks ties toward lower source ranks: output is bit-identical across
//! the sim/threads/sockets backends.

use comm::Communicator;
use sdssort::driver::{self, Prelude, Step};
use sdssort::exchange::{exchange, Delivery};
use sdssort::histogram::{refine, Refinement};
use sdssort::partition::{cuts_to_counts, rank_interval, tie_cut};
use sdssort::selection::kth_smallest_key;
use sdssort::{ComputeCharge, SortError, SortOutput, Sortable};

/// Candidate keys sampled per rank per histogram round.
const SAMPLES_PER_ROUND: usize = 24;

/// HSS configuration.
#[derive(Debug, Clone, Copy)]
pub struct HssConfig {
    /// Part-size guarantee: every part of the final partition is at most
    /// `(1+ε)` times the ideal `N/p` (plus integer rounding).
    pub eps: f64,
    /// Histogram refinement rounds before the exact-selection fallback.
    pub max_rounds: usize,
    /// Changes nothing. Read by nothing in the workspace; ROADMAP item 4b deletes it.
    pub charge: ComputeCharge,
    /// Seed for candidate sampling.
    pub seed: u64,
}

impl Default for HssConfig {
    fn default() -> Self {
        Self {
            eps: 0.1,
            max_rounds: 12,
            charge: ComputeCharge::Measured,
            seed: 0x4855_5353, // "HSS"
        }
    }
}

/// One partition boundary: records with key `< key` fall left, plus the
/// first `take_equal` duplicates of `key` in global rank order. `position`
/// is the realized global rank of the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HssCut<K> {
    /// Boundary key.
    pub key: K,
    /// Duplicates of `key` (global rank order) that fall left.
    pub take_equal: u64,
    /// Realized global boundary position, `lower(key) + take_equal`.
    pub position: u64,
}

/// Distance from `target` to the `[lo, hi]` interval of positions a
/// candidate can realize (0 when the target lies inside it).
fn interval_err(&[lo, hi]: &[u64; 2], target: u64) -> u64 {
    if target < lo {
        lo - target
    } else {
        target.saturating_sub(hi)
    }
}

/// Select the `parts-1` partition boundaries over the distributed, locally
/// sorted `data` by iterative histogramming with tie-splitting. Returns
/// identical cuts on every rank, with every realized `position` within
/// `⌊ε·(N/parts)/2⌋` of its ideal target — by refinement when sampling
/// converges, by exact selection when it does not.
pub fn hss_splitters<T: Sortable, C: Communicator>(
    comm: &C,
    data: &[T],
    parts: usize,
    cfg: &HssConfig,
) -> Vec<HssCut<T::Key>> {
    debug_assert!(sdssort::merge::is_sorted_by_key(data));
    let total = comm.allreduce(data.len() as u64, |a, b| a + b);
    let want = parts.saturating_sub(1);
    if want == 0 || total == 0 {
        return Vec::new();
    }
    let targets: Vec<u64> = (1..parts)
        .map(|i| i as u64 * total / parts as u64)
        .collect();
    let ideal = total as f64 / parts as f64;
    let plan = Refinement {
        targets: &targets,
        tol: (cfg.eps.max(0.0) * ideal / 2.0).floor() as u64,
        samples_per_round: SAMPLES_PER_ROUND,
        max_rounds: cfg.max_rounds,
        seed: cfg.seed ^ 0x4157_0002,
    };
    // A candidate is measured by its global [lower, upper] rank interval:
    // the positions a tie-split at it can realize.
    let global_interval = |key| rank_interval(data, key).map(|i| i as u64);
    let mut best = refine(comm, data, &plan, global_interval, interval_err);

    // Deterministic exact fallback for any still-unmet target: select the
    // exact boundary key, then rank it with one more reduction.
    for (b, &target) in best.iter_mut().zip(&targets) {
        let met = matches!(b, Some((_, iv)) if interval_err(iv, target) <= plan.tol);
        let any_unmet = comm.allreduce(u8::from(!met), |a, b| a.max(b)) > 0;
        if !any_unmet {
            continue;
        }
        // (The decision above is an allreduce over replicated state, so
        // every rank takes this branch together.)
        let key = kth_smallest_key(comm, data, target);
        let global = comm.allreduce(global_interval(key).to_vec(), |a, b| {
            a.iter().zip(&b).map(|(x, y)| x + y).collect()
        });
        *b = Some((key, [global[0], global[1]]));
    }

    // Realize each boundary as close to its target as the chosen key
    // allows, then enforce monotone positions (replicated computation:
    // identical fix-ups everywhere).
    let mut cuts: Vec<HssCut<T::Key>> = Vec::with_capacity(want);
    let mut prev_pos = 0u64;
    for (b, &target) in best.iter().zip(&targets) {
        let (key, [lo, hi]) = b.expect("every target was ranked (fallback is exact)");
        let pos = target.clamp(lo, hi).max(prev_pos);
        let take = pos.saturating_sub(lo).min(hi.saturating_sub(lo));
        let cut = HssCut {
            key,
            take_equal: take,
            position: lo + take,
        };
        if let Some(last) = cuts.last().copied() {
            if cut.position < last.position {
                cuts.push(last);
                prev_pos = last.position;
                continue;
            }
        }
        prev_pos = cut.position;
        cuts.push(cut);
    }
    cuts
}

/// This rank's local cut indices for the replicated `cuts`: for each
/// boundary, local records below the key plus this rank's share of the
/// tie split (duplicates are taken from ranks in ascending rank order).
/// Returns `cuts.len()` indices into the locally sorted `data`.
fn local_cuts<T: Sortable, C: Communicator>(
    comm: &C,
    data: &[T],
    cuts: &[HssCut<T::Key>],
) -> Vec<usize> {
    if cuts.is_empty() {
        return Vec::new();
    }
    // Global exscan of per-boundary equal-run lengths gives each rank its
    // offset into the tie split.
    let spans: Vec<[usize; 2]> = cuts.iter().map(|c| rank_interval(data, c.key)).collect();
    let equals: Vec<u64> = spans.iter().map(|[lo, hi]| (hi - lo) as u64).collect();
    let offsets = comm
        .exscan(equals, |a, b| {
            a.iter().zip(&b).map(|(x, y)| x + y).collect()
        })
        .unwrap_or_else(|| vec![0; cuts.len()]);
    let mut out = Vec::with_capacity(cuts.len());
    let mut prev = 0usize;
    for ((cut, [lo, hi]), before_me) in cuts.iter().zip(spans).zip(offsets) {
        let idx = tie_cut(lo, hi - lo, cut.take_equal.into(), before_me.into()).max(prev);
        debug_assert!(idx <= data.len());
        out.push(idx);
        prev = idx;
    }
    out
}

/// Sort `data` across `comm` with Histogram Sort with Sampling. Unstable
/// between ranks only in the sense of sample sort: equal keys are ordered
/// by source rank (the tie split is by global rank order), and the merge
/// breaks ties toward lower sources, so the output is deterministic.
/// Fails collectively with [`SortError`] when any rank's receive buffer
/// exceeds the (simulated) memory budget.
pub fn hss_sort<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    cfg: &HssConfig,
) -> Result<SortOutput<T>, SortError> {
    let prelude = Prelude::unstable();
    driver::sort(comm, data, &prelude, |comm, data, clock| {
        let p = comm.size();
        clock.enter(Step::Splitters);
        let cuts = hss_splitters(comm, &data, p, cfg);
        clock.enter(Step::Partition);
        let idx = local_cuts(comm, &data, &cuts);

        let bounds = [&[0], &idx[..], &[data.len()]].concat();
        let mut send = cuts_to_counts(&bounds);
        // Degenerate inputs can yield fewer cuts than p-1 boundaries; the
        // remaining ranks receive nothing.
        send.resize(p, 0);
        exchange(comm, data, &send, Delivery::Merge, clock)
    })
}
