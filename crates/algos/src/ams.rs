//! Multi-level AMS-sort (Axtmann, Bingmann, Sanders, Schulz — *Practical
//! Massively Parallel Sorting*, SPAA'15).
//!
//! AMS-sort recursively partitions the ranks into `k` *groups*: each
//! level selects splitters from an **overpartitioned** bucket set (`o·k`
//! buckets for `k` groups), assigns consecutive buckets to groups so that
//! group loads track the ideal `1/k` share, and moves data with a
//! two-stage exchange:
//!
//! 1. **Delivery** — every rank sends bucket `b` to *one* deterministic
//!    member of `b`'s group (`group·g + rank mod g`), so the stage is a
//!    sparse all-to-all with `k` messages per rank instead of `p`.
//! 2. **Group rebalance** — within each group the delivered records are
//!    redistributed *by position* so every member holds an equal share
//!    before recursing. This is AMS-sort's balanced data delivery: no
//!    member of a group can be overloaded by an unlucky delivery pattern,
//!    whatever the bucket skew did to stage 1.
//!
//! The recursion then repeats inside each group until groups are single
//! ranks; the final balance is the overpartitioned assignment's
//! `(1+ε)`-style bound, with ε shrinking as the overpartitioning factor
//! (the constant `OVERPARTITION`) grows. *Hierarchy awareness*: when the
//! rank layout is node-block and the node count permits, the first level
//! uses one group per node, so every level after the first exchanges
//! intra-node only. On the input side AMS asks [`sdssort::driver`] for the
//! `τm` stage: below the threshold, node data is merged onto leaders first
//! and the levels run over the leader communicator.
//!
//! Like HykSort, bucketing is duplicate-blind (`classic_cuts`): all
//! duplicates of a splitter land in one bucket, so a single heavy key
//! still defeats the assignment — the skew-sweep shoot-out shows exactly
//! where. Splitter selection reuses `sdssort::sampling::regular_sample`
//! and `sdssort::pivots::reference_pivots`; merging reuses the loser-tree
//! `kway_merge`. Everything is deterministic (regular sampling,
//! synchronous rank-order exchanges, tie-to-lower-run merges), so output
//! is bit-identical across the sim/threads/sockets backends.

use comm::Communicator;
use sdssort::driver::{self, group_step, Clock, Level, Prelude, Step};
use sdssort::exchange::{exchange, Delivery};
use sdssort::histogram::choose_k;
use sdssort::partition::{classic_cuts, cuts_to_counts};
use sdssort::pivots::reference_pivots;
use sdssort::sampling::regular_sample;
use sdssort::{ComputeCharge, SortError, SortOutput, Sortable};

/// Overpartitioning factor `o`: each level carves `o·k` buckets and
/// assigns consecutive buckets to the `k` groups by load. Larger `o`
/// tightens the group-balance bound at the cost of more splitters.
const OVERPARTITION: usize = 2;
/// Regular samples contributed per rank *per bucket* for splitter
/// selection.
const OVERSAMPLE: usize = 4;

/// AMS-sort configuration.
#[derive(Debug, Clone, Copy)]
pub struct AmsConfig {
    /// Maximum groups per level (fan-out). Small values force multiple
    /// levels; the SPAA'15 evaluation uses modest k per level.
    pub kmax: usize,
    /// Node-merge threshold in bytes (τm, reusing the SDS-Sort decision
    /// rule): when the average exchange message is at or below this, node
    /// data is merged onto leaders before sorting. 0 keeps merging off for
    /// any non-empty input.
    pub tau_m_bytes: usize,
    /// Compute charging (see [`ComputeCharge`]).
    pub charge: ComputeCharge,
}

impl Default for AmsConfig {
    fn default() -> Self {
        Self {
            kmax: 8,
            tau_m_bytes: 0,
            charge: ComputeCharge::Measured,
        }
    }
}

/// Fan-out for one level. The first level prefers one group per node
/// (`k = p/c`) when the node count divides the rank count and fits
/// `kmax` — with a block rank layout this makes every later level
/// intra-node (the hierarchy-aware choice). Other levels, and layouts
/// where that does not apply, fall back to the largest divisor ≤ `kmax`.
fn choose_fanout<C: Communicator>(comm: &C, cfg: &AmsConfig, depth: u64) -> usize {
    let p = comm.size();
    let kmax = cfg.kmax.max(2);
    if depth == 0 {
        let c = comm.cores_per_node();
        if c > 1 && p.is_multiple_of(c) {
            let nodes = p / c;
            if nodes >= 2 && nodes <= kmax {
                return nodes;
            }
        }
    }
    choose_k(p, kmax)
}

/// Sort `data` across `comm` with multi-level AMS-sort. Unstable. Fails
/// collectively with [`SortError`] when any rank's receive buffer exceeds
/// the (simulated) memory budget.
pub fn ams_sort<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    cfg: &AmsConfig,
) -> Result<SortOutput<T>, SortError> {
    let prelude = Prelude {
        tau_m_bytes: Some(cfg.tau_m_bytes),
        ..Prelude::unstable(cfg.charge)
    };
    driver::sort(comm, data, &prelude, |comm, data, clock| {
        levels(comm, data, cfg, clock, 0)
    })
}

/// One recursion level: splitters → bucket assignment → two-stage exchange
/// → recurse within the group. `data` is locally sorted.
fn levels<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    cfg: &AmsConfig,
    clock: &mut Clock<'_, C>,
    depth: u64,
) -> Result<Vec<T>, SortError> {
    let k = choose_fanout(comm, cfg, depth);

    // Splitter selection: pooled regular samples, overpartitioned buckets.
    clock.enter(Step::Splitters);
    let kb_want = k.saturating_mul(OVERPARTITION);
    let mine = regular_sample(&data, OVERSAMPLE.saturating_mul(kb_want));
    let (mut pooled, _) = comm.allgatherv(&mine);
    let pool_n = pooled.len();
    let splitters = cfg.charge.charged(
        comm,
        |m| m.sort_cost(pool_n),
        || reference_pivots(&mut pooled, kb_want),
    );

    clock.enter(Step::Partition);
    // Tiny inputs can pool fewer samples than requested pivots; the bucket
    // count follows what we actually got (identical on every rank).
    let kb = splitters.len() + 1;
    let counts = cuts_to_counts(&classic_cuts(&data, &splitters));
    debug_assert_eq!(counts.len(), kb);

    // Global bucket loads → contiguous bucket-to-group assignment. Each
    // bucket goes to the group its load midpoint falls in on the ideal
    // cumulative curve (monotone, deterministic, replicated on all ranks).
    let loads: Vec<u64> = counts.iter().map(|&n| n as u64).collect();
    let global = comm.allreduce(loads, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect());
    let total: u128 = global.iter().map(|&l| u128::from(l)).sum();
    let mut to_group = vec![0usize; k];
    let mut cum: u128 = 0;
    for (b, &load) in global.iter().enumerate() {
        let mid = cum + u128::from(load) / 2;
        let grp = match (mid * k as u128).checked_div(total) {
            None => b * k / kb,
            Some(q) => q.min(k as u128 - 1) as usize,
        };
        to_group[grp] += counts[b];
        cum += u128::from(load);
    }

    // Stage 1: deliver each group's buckets to member (rank mod g) of it.
    // Stage 2: exact positional rebalance within the group, then recurse.
    let level = Level {
        to_group: &to_group,
        delivery: Delivery::Merge,
        charge: cfg.charge,
        top: depth == 0,
    };
    group_step(comm, data, &level, clock, |sub, delivered, clock| {
        let rebalanced = rebalance(sub, delivered, cfg, clock)?;
        levels(sub, rebalanced, cfg, clock, depth + 1)
    })
}

/// Redistribute the group's records so member `r` holds exactly the
/// `[r·M/g, (r+1)·M/g)` slice of the group's concatenated (locally
/// sorted) data — AMS-sort's balanced delivery guarantee. Order across
/// members is positional, not by key: the next level re-partitions by key
/// anyway, and each member's slice set is re-merged locally.
fn rebalance<T: Sortable, C: Communicator>(
    sub: &C,
    mine: Vec<T>,
    cfg: &AmsConfig,
    clock: &mut Clock<'_, C>,
) -> Result<Vec<T>, SortError> {
    clock.enter(Step::Partition);
    let gsz = sub.size();
    let n = mine.len() as u64;
    let total = sub.allreduce(n, |a, b| a + b);
    let before = sub.exscan(n, |a, b| a + b).unwrap_or(0);
    let mut send = vec![0usize; gsz];
    for (r, s) in send.iter_mut().enumerate() {
        let lo = (r as u128 * u128::from(total) / gsz as u128) as u64;
        let hi = ((r + 1) as u128 * u128::from(total) / gsz as u128) as u64;
        let a = lo.max(before);
        let b = hi.min(before + n);
        *s = b.saturating_sub(a) as usize;
    }
    exchange(sub, mine, &send, Delivery::Merge, cfg.charge, clock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_k_prefers_largest_divisor() {
        assert_eq!(choose_k(16, 8), 8);
        assert_eq!(choose_k(12, 5), 4);
        assert_eq!(choose_k(9, 3), 3);
        assert_eq!(choose_k(7, 4), 7); // prime above kmax: single level
        assert_eq!(choose_k(2, 8), 2);
    }
}
