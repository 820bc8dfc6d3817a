//! Fuzz the skew-aware partition arithmetic with adversarial workloads and
//! check the three exchange invariants on every strategy:
//!
//! 1. counts sum to n (the cuts cover the data exactly);
//! 2. displacements are monotone (no negative send count);
//! 3. multi-source consistency: summed over sources, the per-destination
//!    counts of a replicated run's duplicates form the contiguous groups
//!    the stable rule promises (each group at most `sa = ceil(total/rs)`).

use proptest::prelude::*;
use sdssort::partition::{
    classic_cuts, cuts_to_counts, fast_cuts, local_dup_counts, rank_interval, replicated_runs,
    shares_for_source, stable_cuts, tie_cut,
};

fn check_cuts(cuts: &[usize], n: usize, p: usize, label: &str) {
    assert_eq!(cuts.len(), p + 1, "{label}: one cut per destination + 1");
    assert_eq!(cuts[0], 0, "{label}");
    assert_eq!(cuts[p], n, "{label}: cuts must cover the data");
    assert!(
        cuts.windows(2).all(|w| w[0] <= w[1]),
        "{label}: monotone displacements: {cuts:?}"
    );
    assert_eq!(
        cuts_to_counts(cuts).iter().sum::<usize>(),
        n,
        "{label}: counts sum to n"
    );
}

/// Sorted adversarial local data for one source.
fn source_data(kind: u8, n: usize, seed: u64, rank: usize) -> Vec<u64> {
    let mut data = match kind % 4 {
        0 => workloads::adversarial::all_equal(n, 7),
        1 => workloads::adversarial::heavy_hitters(n, 4, 70.0, seed, rank),
        2 => workloads::adversarial::pivot_aligned(n, 5, 50.0, seed, rank),
        _ => workloads::adversarial::one_rank_duplicates(n, seed, rank),
    };
    data.sort_unstable();
    data
}

/// Pivots drawn from the data's own value range so duplicates happen often.
fn pivots_from(data: &[u64], np: usize, seed: u64) -> Vec<u64> {
    let mut pivots: Vec<u64> = (0..np)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            if data.is_empty() {
                h % 16
            } else {
                data[(h % data.len() as u64) as usize]
            }
        })
        .collect();
    pivots.sort_unstable();
    pivots
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn single_source_invariants(
        kind in any::<u8>(),
        n in 0usize..500,
        np in 1usize..12,
        seed in any::<u64>(),
    ) {
        let data = source_data(kind, n, seed, 0);
        let pivots = pivots_from(&data, np, seed);
        let p = pivots.len() + 1;

        check_cuts(&classic_cuts(&data, &pivots), n, p, "classic");
        check_cuts(&fast_cuts(&data, &pivots, None), n, p, "fast");

        // Stable with this source as the entire stream.
        let runs = replicated_runs(&pivots);
        let counts = vec![local_dup_counts(&data, &runs)];
        let shares = shares_for_source(&counts, 0);
        check_cuts(&stable_cuts(&data, &pivots, None, &shares), n, p, "stable");
    }

    #[test]
    fn multi_source_stable_groups_are_contiguous(
        kind in any::<u8>(),
        sources in 2usize..5,
        n in 0usize..300,
        np in 1usize..10,
        seed in any::<u64>(),
    ) {
        let all_data: Vec<Vec<u64>> =
            (0..sources).map(|r| source_data(kind, n, seed, r)).collect();
        let pivots = pivots_from(&all_data[0], np, seed);
        let p = pivots.len() + 1;
        let runs = replicated_runs(&pivots);
        let counts_by_source: Vec<Vec<usize>> = all_data
            .iter()
            .map(|d| local_dup_counts(d, &runs))
            .collect();

        // Per-destination totals across all sources.
        let mut dest_totals = vec![0usize; p];
        for (me, data) in all_data.iter().enumerate() {
            let shares = shares_for_source(&counts_by_source, me);
            let cuts = stable_cuts(data, &pivots, None, &shares);
            check_cuts(&cuts, data.len(), p, "stable/multi");
            for (dst, c) in cuts_to_counts(&cuts).into_iter().enumerate() {
                dest_totals[dst] += c;
            }
        }
        prop_assert_eq!(
            dest_totals.iter().sum::<usize>(),
            all_data.iter().map(Vec::len).sum::<usize>()
        );

        // Invariant 3: within each replicated run, the owning destinations
        // received contiguous groups of the global duplicate stream — at
        // most sa each, all-but-last exactly sa when the stream is full.
        for (ri, run) in runs.iter().enumerate() {
            let total: usize = counts_by_source.iter().map(|c| c[ri]).sum();
            let rs = run.len;
            let sa = total.div_ceil(rs).max(1);
            // Duplicates of the run value delivered to each owner. Owners
            // are destinations run.start .. run.start + rs; counts landing
            // there from these sources are exactly the duplicate split
            // (values strictly between pivots around the run would belong
            // to the first owner, but duplicates dominate by design).
            let mut got = vec![0usize; rs];
            for (me, data) in all_data.iter().enumerate() {
                let shares = shares_for_source(&counts_by_source, me);
                let cuts = stable_cuts(data, &pivots, None, &shares);
                let counts = cuts_to_counts(&cuts);
                // count only the duplicates: the run's owners receive
                // nothing else from a sorted source unless neighbouring
                // values fall in the same bucket — subtract them via the
                // classic boundary.
                for k in 0..rs {
                    got[k] += counts[run.start + k];
                }
                // The stable rule is the one tie split fed HSS-style
                // boundaries: owner k's boundary takes the first
                // min((k+1)·sa, total) of the global stream, the last
                // owner's all of it.
                let [lo, hi] = rank_interval(data, run.value);
                for k in 0..rs {
                    let take = if k + 1 == rs { total } else { ((k + 1) * sa).min(total) };
                    prop_assert_eq!(
                        cuts[run.start + k + 1],
                        tie_cut(lo, hi - lo, take as u128, shares[ri].before_me as u128),
                        "run {} owner {} of source {}", ri, k, me
                    );
                }
            }
            let dup_total: usize = got.iter().sum();
            prop_assert!(dup_total >= total, "owners receive at least every duplicate");
            for (k, &g) in got.iter().enumerate().skip(1) {
                // groups after the first hold only duplicates → bounded by sa
                prop_assert!(
                    g <= sa,
                    "run {ri} group {k} holds {g} > sa {sa} (total {total}, rs {rs})"
                );
            }
        }
    }

    #[test]
    fn fast_split_is_balanced_within_one(
        dups in 0usize..1000,
        rs in 2usize..8,
    ) {
        // The fast rule's even split: owner loads differ by at most 1.
        let data = vec![42u64; dups];
        let pivots = vec![42u64; rs];
        let cuts = fast_cuts(&data, &pivots, None);
        let counts = cuts_to_counts(&cuts);
        let owners = &counts[..rs];
        let (min, max) = (
            owners.iter().copied().min().unwrap_or(0),
            owners.iter().copied().max().unwrap_or(0),
        );
        prop_assert!(max - min <= 1, "uneven split {owners:?}");
        prop_assert_eq!(owners.iter().sum::<usize>(), dups);
    }
}
