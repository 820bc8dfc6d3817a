//! Skew-aware partitioning (`SdssPartition` + `SdssReplicated`, paper §2.5).
//!
//! Given a rank's *sorted* local data and the `p-1` global pivots, compute
//! the cut positions that assign each record to a destination rank for the
//! all-to-all exchange. Three strategies:
//!
//! * [`classic_cuts`] — the traditional sample-sort rule (`upper_bound` per
//!   pivot). With duplicated pivots this sends *every* duplicate of the
//!   pivot value to one rank: the load-imbalance failure the paper fixes.
//! * [`fast_cuts`] — the skew-aware **fast** (unstable) rule: each sender
//!   splits its run of pivot-value duplicates evenly across the `rs` ranks
//!   owning the duplicated pivot. Equivalent to implicitly extending the
//!   key with the duplicate-pivot rank `rr` (paper §2.5.2).
//! * [`stable_cuts`] — the skew-aware **stable** rule: the global stream of
//!   duplicates (ordered by source rank, then input order) is divided into
//!   `rs` contiguous groups, one per owning rank, so a rank-ordered
//!   exchange preserves input order of equal keys.
//!
//! `SdssReplicated`'s per-pivot duplicate scan is implemented once for all
//! pivots by [`replicated_runs`] (an `O(p)` pass instead of the paper's
//! per-index rescan — identical output, asymptotically cheaper).
//!
//! Deviation from the paper's pseudocode: we bracket duplicates with
//! `lower_bound(value)` directly instead of `upper_bound(ppv)` (the pivot
//! value preceding the run). The two differ only when non-duplicate keys
//! strictly between `ppv` and the run value exist; those keys belong to the
//! run's first owner under both rules, and `lower_bound` excludes them from
//! the duplicate split, which can only *improve* balance and removes the
//! `ppv = Pg[-1]` edge case.

use crate::record::Sortable;
use crate::search::{lower_bound, upper_bound, LocalPivotIndex};

/// A maximal run of equal global pivots with length ≥ 2 ("replicated
/// pivots"). `start` is the index of the first pivot of the run; the run
/// covers pivots `start .. start + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PivotRun<K> {
    /// Index of the first pivot in the run.
    pub start: usize,
    /// Number of equal pivots (`rs` in the paper), always ≥ 2.
    pub len: usize,
    /// The duplicated pivot value.
    pub value: K,
}

/// Find every maximal run of ≥ 2 equal pivots. Single-pass equivalent of
/// calling the paper's `SdssReplicated` for each pivot index.
pub fn replicated_runs<K: Ord + Copy>(pivots: &[K]) -> Vec<PivotRun<K>> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < pivots.len() {
        let mut j = i + 1;
        while j < pivots.len() && pivots[j] == pivots[i] {
            j += 1;
        }
        if j - i >= 2 {
            runs.push(PivotRun {
                start: i,
                len: j - i,
                value: pivots[i],
            });
        }
        i = j;
    }
    runs
}

/// Classic sample-sort cuts: `cuts[i+1] = upper_bound(data, pivots[i])`.
/// Returns `p+1` monotone positions with `cuts[0] = 0`, `cuts[p] = n`.
pub fn classic_cuts<T: Sortable>(data: &[T], pivots: &[T::Key]) -> Vec<usize> {
    let p = pivots.len() + 1;
    let mut cuts = Vec::with_capacity(p + 1);
    cuts.push(0);
    for &pv in pivots {
        cuts.push(upper_bound(data, pv));
    }
    cuts.push(data.len());
    cuts
}

/// Share of a global duplicate stream owned by one source, for one
/// replicated-pivot run (stable partitioning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DupShare {
    /// Total duplicates of the run value across *all* sources.
    pub total: usize,
    /// Duplicates held by sources ordered before this one.
    pub before_me: usize,
}

/// Fast (unstable) skew-aware cuts. `index`, if provided, accelerates the
/// boundary searches with the two-level local-pivot search.
pub fn fast_cuts<T: Sortable>(
    data: &[T],
    pivots: &[T::Key],
    index: Option<&LocalPivotIndex<T::Key>>,
) -> Vec<usize> {
    skew_aware_cuts(data, pivots, index, None)
}

/// Stable skew-aware cuts. `shares` must be parallel to
/// [`replicated_runs`]`(pivots)` and describe this source's position in
/// each run's global duplicate stream.
pub fn stable_cuts<T: Sortable>(
    data: &[T],
    pivots: &[T::Key],
    index: Option<&LocalPivotIndex<T::Key>>,
    shares: &[DupShare],
) -> Vec<usize> {
    skew_aware_cuts(data, pivots, index, Some(shares))
}

/// `key`'s `[lower_bound, upper_bound]` in sorted `data`: the positions
/// before and after its run of equal records. Summed over ranks these are
/// the global positions a boundary at `key` can realize.
pub fn rank_interval<T: Sortable>(data: &[T], key: T::Key) -> [usize; 2] {
    [lower_bound(data, key), upper_bound(data, key)]
}

fn ub<T: Sortable>(data: &[T], index: Option<&LocalPivotIndex<T::Key>>, key: T::Key) -> usize {
    match index {
        Some(idx) => idx.upper_bound(data, key),
        None => upper_bound(data, key),
    }
}

fn lb<T: Sortable>(data: &[T], index: Option<&LocalPivotIndex<T::Key>>, key: T::Key) -> usize {
    match index {
        Some(idx) => idx.lower_bound(data, key),
        None => lower_bound(data, key),
    }
}

/// The one tie split. A boundary takes the first `take_equal` records of a
/// stream of equal keys; this source's `equal` of them start at local index
/// `lo` and follow `before_me` earlier ones in that stream. Returns the
/// local index the boundary falls on: `lo + min(take_equal ∸ before_me,
/// equal)`. The counts are `u128` because callers pass widened products.
pub fn tie_cut(lo: usize, equal: usize, take_equal: u128, before_me: u128) -> usize {
    lo + take_equal.saturating_sub(before_me).min(equal as u128) as usize
}

/// Common implementation for fast and stable skew-aware cuts.
fn skew_aware_cuts<T: Sortable>(
    data: &[T],
    pivots: &[T::Key],
    index: Option<&LocalPivotIndex<T::Key>>,
    shares: Option<&[DupShare]>,
) -> Vec<usize> {
    let p = pivots.len() + 1;
    let runs = replicated_runs(pivots);
    if let Some(shares) = shares {
        assert_eq!(shares.len(), runs.len(), "one DupShare per replicated run");
    }
    let mut cuts = vec![0usize; p + 1];
    cuts[p] = data.len();

    let mut run_iter = runs.iter().enumerate().peekable();
    let mut i = 0usize;
    while i < pivots.len() {
        if let Some(&(run_idx, run)) = run_iter.peek() {
            if run.start == i {
                // A run of rs equal pivots: split this source's duplicates
                // of `value` across the rs owning destinations.
                let value = run.value;
                let rs = run.len;
                let d_lo = lb(data, index, value);
                let d_hi = ub(data, index, value);
                let dups = d_hi - d_lo;
                // Fast and stable differ in which stream of duplicates the
                // owners' takes count along: this source's own run, or the
                // *global* stream, in which `before_me` precede ours.
                let (stream, before_me) = match shares {
                    None => (dups, 0),
                    Some(shares) => {
                        let share = shares[run_idx];
                        assert!(
                            share
                                .before_me
                                .checked_add(dups)
                                .is_some_and(|s| s <= share.total),
                            "DupShare inconsistent with local data: {} before + {dups} here \
                             exceeds total {}",
                            share.before_me,
                            share.total
                        );
                        (share.total, share.before_me)
                    }
                };
                let sa = stream.div_ceil(rs).max(1);
                for k in 0..rs {
                    // Both products are widened: `dups × rs` can exceed
                    // usize for adversarial (huge-duplicate-run) inputs,
                    // and the ceil rounding can push `sa × rs` past usize
                    // when total is near usize::MAX.
                    let owners = k as u128 + 1;
                    let take = if shares.is_none() {
                        // Fast: even split.
                        stream as u128 * owners / rs as u128
                    } else {
                        // Stable: contiguous groups of `sa`; `sa × rs`
                        // brackets `total`, so the last owner takes any
                        // rounding remainder.
                        (owners * sa as u128).min(stream as u128)
                    };
                    cuts[i + k + 1] = tie_cut(d_lo, dups, take, before_me as u128);
                }
                run_iter.next();
                i += rs;
                continue;
            }
        }
        cuts[i + 1] = ub(data, index, pivots[i]);
        i += 1;
    }
    // Hard invariant, not a debug assert: non-monotone cuts would produce
    // a negative send count and corrupt the exchange displacements. The
    // O(p) scan is negligible next to the boundary searches above.
    assert!(
        cuts.windows(2).all(|w| w[0] <= w[1]),
        "partition cuts must be monotone: {cuts:?}"
    );
    cuts
}

/// The `p+1` cut positions of sorted `data` for `p` destinations, by the
/// sorter's rule `cut` applied to exactly `p-1` pivots. The two degenerate
/// outcomes of pivot selection are settled here for every sorter: fewer than
/// `p-1` pivots (tiny inputs) are padded by repeating the last one — the
/// replicated-run machinery then spreads the padded range evenly, a classic
/// rule sends the padded destinations nothing — and no pivot at all means
/// no data anywhere beyond possibly ours, which all goes to destination 0.
/// `pivots` is replicated, so every rank takes the same branch and `cut`
/// may contain a collective.
pub fn cuts_at<T: Sortable>(
    data: &[T],
    mut pivots: Vec<T::Key>,
    p: usize,
    cut: impl FnOnce(&[T::Key]) -> Vec<usize>,
) -> Vec<usize> {
    let Some(&last) = pivots.last() else {
        let mut cuts = vec![data.len(); p + 1];
        cuts[0] = 0;
        return cuts;
    };
    if pivots.len() < p - 1 {
        pivots.resize(p - 1, last);
    }
    cut(&pivots)
}

/// Convert cut positions to per-destination send counts.
pub fn cuts_to_counts(cuts: &[usize]) -> Vec<usize> {
    cuts.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Count this source's duplicates of each replicated run's value in sorted
/// `data` (input to the stable share exchange).
pub fn local_dup_counts<T: Sortable>(data: &[T], runs: &[PivotRun<T::Key>]) -> Vec<usize> {
    runs.iter()
        .map(|r| rank_interval(data, r.value))
        .map(|[lo, hi]| hi - lo)
        .collect()
}

/// Build [`DupShare`]s from the per-source duplicate counts of every run
/// (`counts_by_source[src][run]`), for source `me`.
pub fn shares_for_source(counts_by_source: &[Vec<usize>], me: usize) -> Vec<DupShare> {
    if counts_by_source.is_empty() {
        return Vec::new();
    }
    let num_runs = counts_by_source[0].len();
    (0..num_runs)
        .map(|r| {
            let total = counts_by_source.iter().map(|c| c[r]).sum();
            let before_me = counts_by_source[..me].iter().map(|c| c[r]).sum();
            DupShare { total, before_me }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_runs_detects_all_runs() {
        assert_eq!(replicated_runs::<u32>(&[]), vec![]);
        assert_eq!(replicated_runs(&[1u32, 2, 3]), vec![]);
        assert_eq!(
            replicated_runs(&[1u32, 1, 2, 3, 3, 3, 4]),
            vec![
                PivotRun {
                    start: 0,
                    len: 2,
                    value: 1
                },
                PivotRun {
                    start: 3,
                    len: 3,
                    value: 3
                },
            ]
        );
        assert_eq!(
            replicated_runs(&[7u32, 7, 7, 7]),
            vec![PivotRun {
                start: 0,
                len: 4,
                value: 7
            }]
        );
    }

    #[test]
    fn classic_cuts_dump_all_duplicates_on_one_rank() {
        // data: 10 copies of 5; pivots [5, 5, 5] (4 destinations).
        let data = vec![5u32; 10];
        let cuts = classic_cuts(&data, &[5, 5, 5]);
        let counts = cuts_to_counts(&cuts);
        // All ten records land on destination 0 — the imbalance the paper
        // describes.
        assert_eq!(counts, vec![10, 0, 0, 0]);
    }

    #[test]
    fn fast_cuts_split_duplicates_evenly() {
        let data = vec![5u32; 12];
        let cuts = fast_cuts(&data, &[5, 5, 5], None);
        let counts = cuts_to_counts(&cuts);
        // rs = 3 owners (destinations 0, 1, 2) split 12 duplicates evenly;
        // destination 3 gets only values > 5 (none).
        assert_eq!(counts, vec![4, 4, 4, 0]);
    }

    #[test]
    fn fast_cuts_mixed_data() {
        // data around the duplicated value
        let data = [1u32, 2, 5, 5, 5, 5, 5, 5, 8, 9];
        let cuts = fast_cuts(&data, &[5, 5, 8], None);
        let counts = cuts_to_counts(&cuts);
        // dest0: {1,2} + 3 dups; dest1: 3 dups; dest2: {8}; dest3: {9}
        assert_eq!(counts, vec![5, 3, 1, 1]);
        assert_eq!(counts.iter().sum::<usize>(), data.len());
    }

    #[test]
    fn fast_cuts_no_duplicates_match_classic() {
        let data: Vec<u32> = (0..100).collect();
        let pivots = [24u32, 49, 74];
        assert_eq!(
            fast_cuts(&data, &pivots, None),
            classic_cuts(&data, &pivots)
        );
    }

    #[test]
    fn fast_cuts_with_index_match_without() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let mut data: Vec<u32> = (0..500).map(|_| rng.gen_range(0..20)).collect();
        data.sort_unstable();
        let pivots = [3u32, 7, 7, 7, 12, 15, 15];
        let idx = LocalPivotIndex::build(&data, 7);
        assert_eq!(
            fast_cuts(&data, &pivots, None),
            fast_cuts(&data, &pivots, Some(&idx))
        );
    }

    #[test]
    fn stable_cuts_form_contiguous_groups() {
        // Two sources each hold 6 duplicates of 5; run of rs=2 pivots.
        // Global stream: src0's 6 then src1's 6; sa = ceil(12/2) = 6.
        // Group 0 = src0's entire run; group 1 = src1's entire run.
        let data = vec![5u32; 6];
        let pivots = [5u32, 5, 9];
        let shares0 = [DupShare {
            total: 12,
            before_me: 0,
        }];
        let shares1 = [DupShare {
            total: 12,
            before_me: 6,
        }];
        let c0 = cuts_to_counts(&stable_cuts(&data, &pivots, None, &shares0));
        let c1 = cuts_to_counts(&stable_cuts(&data, &pivots, None, &shares1));
        assert_eq!(c0, vec![6, 0, 0, 0]);
        assert_eq!(c1, vec![0, 6, 0, 0]);
    }

    #[test]
    fn stable_cuts_split_large_source_across_groups() {
        // One source holds all 12 duplicates; rs=2 groups of sa=6 → this
        // source must split 6/6 (paper lines 22–25, "split replicated on a
        // node").
        let data = vec![5u32; 12];
        let pivots = [5u32, 5];
        let shares = [DupShare {
            total: 12,
            before_me: 0,
        }];
        let c = cuts_to_counts(&stable_cuts(&data, &pivots, None, &shares));
        assert_eq!(c, vec![6, 6, 0]);
    }

    #[test]
    fn stable_cuts_offset_source() {
        // Source sits in the middle of the global stream.
        // total=20, rs=2, sa=10. My 8 dups occupy global [6,14):
        // group0 gets global [0,10) → my [6,10) = 4; group1 my [10,14) = 4.
        let data = vec![5u32; 8];
        let pivots = [5u32, 5];
        let shares = [DupShare {
            total: 20,
            before_me: 6,
        }];
        let c = cuts_to_counts(&stable_cuts(&data, &pivots, None, &shares));
        assert_eq!(c, vec![4, 4, 0]);
    }

    #[test]
    fn stable_cuts_zero_duplicates_here() {
        let data = [1u32, 2, 3];
        let pivots = [5u32, 5];
        let shares = [DupShare {
            total: 10,
            before_me: 0,
        }];
        let c = cuts_to_counts(&stable_cuts(&data, &pivots, None, &shares));
        assert_eq!(c.iter().sum::<usize>(), 3);
        assert_eq!(c, vec![3, 0, 0]);
    }

    #[test]
    fn cuts_cover_data_exactly() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let n = rng.gen_range(0..400);
            let mut data: Vec<u32> = (0..n).map(|_| rng.gen_range(0..10)).collect();
            data.sort_unstable();
            let np = rng.gen_range(1..12);
            let mut pivots: Vec<u32> = (0..np).map(|_| rng.gen_range(0..10)).collect();
            pivots.sort_unstable();
            let cuts = fast_cuts(&data, &pivots, None);
            assert_eq!(cuts[0], 0);
            assert_eq!(*cuts.last().unwrap(), data.len());
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "monotone: {cuts:?}");
            assert_eq!(cuts.len(), pivots.len() + 2);
        }
    }

    #[test]
    fn empty_rank_inputs_produce_all_zero_counts() {
        // A rank can end up with no data (e.g. a non-leader after node
        // merging, or a degenerate workload). Every strategy must hand
        // back p zero counts, not panic.
        let data: [u32; 0] = [];
        let pivots = [5u32, 5, 9];
        assert_eq!(cuts_to_counts(&classic_cuts(&data, &pivots)), vec![0; 4]);
        assert_eq!(cuts_to_counts(&fast_cuts(&data, &pivots, None)), vec![0; 4]);
        let shares = [DupShare {
            total: 10,
            before_me: 0,
        }];
        assert_eq!(
            cuts_to_counts(&stable_cuts(&data, &pivots, None, &shares)),
            vec![0; 4]
        );
    }

    #[test]
    fn no_pivots_single_destination() {
        // p = 1: no pivots at all; everything stays local.
        let data = [3u32, 3, 8];
        assert_eq!(cuts_to_counts(&fast_cuts(&data, &[], None)), vec![3]);
        assert_eq!(cuts_to_counts(&stable_cuts(&data, &[], None, &[])), vec![3]);
    }

    #[test]
    fn huge_duplicate_shares_do_not_overflow() {
        // total near usize::MAX: group_end arithmetic must not wrap. This
        // models a (contrived) global stream of ~usize::MAX duplicates of
        // which this source holds 4.
        let data = vec![5u32; 4];
        let pivots = [5u32, 5, 5];
        let total = usize::MAX - 2;
        let shares = [DupShare {
            total,
            before_me: total - 4,
        }];
        let cuts = stable_cuts(&data, &pivots, None, &shares);
        let counts = cuts_to_counts(&cuts);
        assert_eq!(counts.iter().sum::<usize>(), 4);
        // this source sits at the very end of the stream: last group owns it
        assert_eq!(counts[2], 4);
    }

    #[test]
    #[should_panic(expected = "DupShare inconsistent")]
    fn inconsistent_share_is_rejected() {
        let data = vec![5u32; 8];
        let pivots = [5u32, 5];
        let shares = [DupShare {
            total: 4, // fewer than this source alone holds
            before_me: 0,
        }];
        let _ = stable_cuts(&data, &pivots, None, &shares);
    }

    #[test]
    fn shares_for_source_prefix_sums() {
        let counts = vec![vec![3, 0], vec![2, 5], vec![1, 1]];
        let s1 = shares_for_source(&counts, 1);
        assert_eq!(
            s1,
            vec![
                DupShare {
                    total: 6,
                    before_me: 3
                },
                DupShare {
                    total: 6,
                    before_me: 0
                }
            ]
        );
        let s0 = shares_for_source(&counts, 0);
        assert_eq!(
            s0[0],
            DupShare {
                total: 6,
                before_me: 0
            }
        );
        assert!(shares_for_source(&[], 0).is_empty());
    }

    #[test]
    fn local_dup_counts_counts_values() {
        let data = [1u32, 3, 3, 3, 7, 7];
        let runs = [
            PivotRun {
                start: 0,
                len: 2,
                value: 3u32,
            },
            PivotRun {
                start: 3,
                len: 2,
                value: 4,
            },
            PivotRun {
                start: 6,
                len: 2,
                value: 7,
            },
        ];
        assert_eq!(local_dup_counts(&data, &runs), vec![3, 0, 2]);
    }
}
