//! Property-based tests (proptest) for the core invariants in DESIGN.md §6.

mod common;

use common::assert_global_sort;
use mpisim::{Communicator, NetModel, World};
use proptest::collection::vec;
use proptest::prelude::*;
use sdssort::merge::{is_sorted_by_key, kway_merge};
use sdssort::partition::{
    cuts_to_counts, fast_cuts, replicated_runs, shares_for_source, stable_cuts, PivotRun,
};
use sdssort::search::{lower_bound, upper_bound, LocalPivotIndex};
use sdssort::{
    counts_in_one_pass, local_sort_with, sds_sort, ComparisonKernel, LocalKernel, Record,
    SdsConfig, RADIX_MIN_N,
};

/// Reference implementation of the paper's per-pivot `SdssReplicated` scan.
fn replicated_reference<K: Ord + Copy>(pivots: &[K]) -> Vec<PivotRun<K>> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < pivots.len() {
        // emulate the paper's per-index scan: for pivot i, look left and
        // right for equal neighbours
        let v = pivots[i];
        let start = pivots[..i]
            .iter()
            .rposition(|&x| x != v)
            .map_or(0, |j| j + 1);
        let end = pivots[i..]
            .iter()
            .position(|&x| x != v)
            .map_or(pivots.len(), |j| i + j);
        if end - start >= 2 {
            runs.push(PivotRun {
                start,
                len: end - start,
                value: v,
            });
            i = end;
        } else {
            i += 1;
        }
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn replicated_runs_match_reference(pivots in vec(0u32..8, 0..24)) {
        let mut sorted = pivots;
        sorted.sort_unstable();
        prop_assert_eq!(replicated_runs(&sorted), replicated_reference(&sorted));
    }

    #[test]
    fn fast_cuts_partition_everything_once(
        data in vec(0u32..16, 0..300),
        pivots in vec(0u32..16, 1..12),
    ) {
        let mut data = data;
        data.sort_unstable();
        let mut pivots = pivots;
        pivots.sort_unstable();
        let cuts = fast_cuts(&data, &pivots, None);
        prop_assert_eq!(cuts.len(), pivots.len() + 2);
        prop_assert_eq!(cuts[0], 0);
        prop_assert_eq!(*cuts.last().unwrap(), data.len());
        prop_assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        // destination ranges respect pivot order: everything in range i is
        // <= everything in range i+1 (keys can only repeat across adjacent
        // ranges when the pivot run machinery split them)
        let counts = cuts_to_counts(&cuts);
        prop_assert_eq!(counts.iter().sum::<usize>(), data.len());
    }

    #[test]
    fn two_level_search_equals_direct(
        data in vec(0u64..64, 0..400),
        samples in 0usize..12,
        key in 0u64..66,
    ) {
        let mut data = data;
        data.sort_unstable();
        let idx = LocalPivotIndex::build(&data, samples);
        prop_assert_eq!(idx.upper_bound(&data, key), upper_bound(&data, key));
        prop_assert_eq!(idx.lower_bound(&data, key), lower_bound(&data, key));
    }

    #[test]
    fn kway_merge_equals_sorted_concat(runs in vec(vec(0u32..50, 0..80), 0..9)) {
        let runs: Vec<Vec<u32>> = runs.into_iter().map(|mut r| { r.sort_unstable(); r }).collect();
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let merged = kway_merge(&refs);
        let mut expect: Vec<u32> = runs.iter().flatten().copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(merged, expect);
    }

    #[test]
    fn stable_cuts_group_sizes_bounded(
        per_source in vec(0usize..60, 2..6),
        rs in 2usize..5,
    ) {
        // One duplicated-pivot run of length rs; per_source[i] duplicates
        // on source i. Group sizes must not exceed ceil(total/rs).
        let total: usize = per_source.iter().sum();
        let sa = total.div_ceil(rs).max(1);
        let pivots: Vec<u32> = vec![7; rs];
        let runs = replicated_runs(&pivots);
        prop_assert_eq!(runs.len(), 1);
        let counts_by_source: Vec<Vec<usize>> =
            per_source.iter().map(|&c| vec![c]).collect();
        let mut group_sizes = vec![0usize; rs + 1];
        for (src, &cnt) in per_source.iter().enumerate() {
            let data = vec![7u32; cnt];
            let shares = shares_for_source(&counts_by_source, src);
            let cuts = stable_cuts(&data, &pivots, None, &shares);
            for (g, c) in cuts_to_counts(&cuts).into_iter().enumerate() {
                group_sizes[g] += c;
            }
        }
        prop_assert_eq!(group_sizes.iter().sum::<usize>(), total);
        for (g, &size) in group_sizes.iter().enumerate().take(rs) {
            prop_assert!(size <= sa, "group {g} holds {size} > sa {sa}");
        }
        prop_assert_eq!(group_sizes[rs], 0, "nothing past the run owners");
    }
}

// Local-sort matrix: threads × {stable, unstable} × workload shape ×
// kernel, with sizes straddling the radix/comparison boundary
// (RADIX_MIN_N = 2048) and, above it, shapes on both sides of `Auto`'s
// sampled gate (a key span that fits one counting pass of a thread's
// chunk, or few digit bytes and no key holding 1/8 of the sample, 3/4
// when stable → radix; a heavier key over a wider span → comparison).
// Stable runs must equal std's stable sort exactly; unstable runs must be
// a key-sorted permutation.
proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn local_sort_matrix_matches_std(
        threads in 1usize..6,
        stable in any::<bool>(),
        shape in 0usize..5,
        n in 1200usize..6000,
        kernel_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        let kernel = [LocalKernel::Auto, LocalKernel::Radix, LocalKernel::Comparison][kernel_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<u32> = match shape {
            // uniform
            0 => (0..n).map(|_| rng.gen_range(0..100_000)).collect(),
            // 90% one duplicated key
            1 => (0..n)
                .map(|_| if rng.gen_bool(0.9) { 7 } else { rng.gen_range(0..1000) })
                .collect(),
            // presorted
            2 => (0..n as u32).collect(),
            // reverse-sorted
            3 => (0..n as u32).rev().collect(),
            // zipf-shaped: rank r with P(r) ~ r^-1.4, the first ~24 %
            _ => (0..n)
                .map(|_| ((1.0 - rng.gen::<f64>()).powf(-2.5) as u32).min(5000))
                .collect(),
        };
        let recs: Vec<Record<u32, u64>> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Record::new(k, i as u64))
            .collect();
        let mut got = recs.clone();
        let report = local_sort_with(&mut got, threads, stable, kernel);
        if kernel == LocalKernel::Auto && n >= RADIX_MIN_N {
            // A heavy key is the comparison sorts' case: one holding ~24 %
            // (shape 4, 13-bit span) against `sort_unstable`, only one
            // holding 90 % (shape 1) against the stable `sort_by_key` —
            // unless shape 1's 10-bit span fits one counting pass of what
            // each thread sorts.
            let sequential = threads <= 1 || n < threads * 4 || n < 1024;
            let chunk = if sequential { n } else { n.div_ceil(threads) };
            let heavy_wide = shape == 1 && !counts_in_one_pass(10, chunk);
            let expect = if heavy_wide || (shape == 4 && !stable) {
                LocalKernel::Comparison
            } else {
                LocalKernel::Radix
            };
            prop_assert_eq!(report.kernel, expect, "gate saw {:?}", report.gate);
            prop_assert_eq!(report.gate.map(|g| g.stable), Some(stable));
        }
        if report.kernel == LocalKernel::Comparison {
            prop_assert_eq!(report.comparison, Some(ComparisonKernel::StdNotU64));
        }
        // The same keys as plain `u64`s: where the CPU has AVX-512 the
        // comparison arm runs the vector quicksort (`sdssort::vsort`),
        // stable or not, and the result is `sort_unstable`'s bits.
        let wide: Vec<u64> = keys.iter().map(|&k| u64::from(k) << 40 | u64::from(k)).collect();
        let mut got_wide = wide.clone();
        let wide_report = local_sort_with(&mut got_wide, threads, stable, kernel);
        if wide_report.kernel == LocalKernel::Comparison {
            let expect = if sdssort::vsort::available() {
                ComparisonKernel::Avx512
            } else {
                ComparisonKernel::StdNoAvx512
            };
            prop_assert_eq!(wide_report.comparison, Some(expect));
        }
        let mut expect_wide = wide;
        expect_wide.sort_unstable();
        prop_assert_eq!(got_wide, expect_wide);
        if stable {
            let mut expect = recs.clone();
            expect.sort_by_key(|r| r.key);
            prop_assert_eq!(got, expect);
        } else {
            prop_assert!(is_sorted_by_key(&got));
            let mut p_in: Vec<(u32, u64)> = recs.iter().map(|r| (r.key, r.payload)).collect();
            let mut p_out: Vec<(u32, u64)> = got.iter().map(|r| (r.key, r.payload)).collect();
            p_in.sort_unstable();
            p_out.sort_unstable();
            prop_assert_eq!(p_in, p_out);
        }
    }
}

// Distributed worlds are expensive per case; run fewer cases.
proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn sds_sort_is_sorting_permutation(
        p in 2usize..7,
        key_space in 1u32..40,
        sizes in vec(0usize..300, 6),
        stable in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = if stable { SdsConfig::stable() } else { SdsConfig::default() };
        let world = World::new(p).cores_per_node(3).net(NetModel::zero());
        let report = world.run(|comm| {
            use rand::prelude::*;
            let n = sizes[comm.rank() % sizes.len()];
            let mut rng = StdRng::seed_from_u64(seed ^ comm.rank() as u64);
            let data: Vec<Record<u32, u64>> = (0..n)
                .map(|i| Record::new(
                    rng.gen_range(0..key_space),
                    ((comm.rank() as u64) << 32) | i as u64,
                ))
                .collect();
            let out = sds_sort(comm, data.clone(), &cfg).expect("no budget");
            (data, out.data)
        });
        let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
        assert_global_sort(&inputs, &outputs, |r| (r.key, r.payload));
        if stable {
            let flat: Vec<Record<u32, u64>> = outputs.into_iter().flatten().collect();
            prop_assert!(is_sorted_by_key(&flat));
            for w in flat.windows(2) {
                if w[0].key == w[1].key {
                    prop_assert!(w[0].payload < w[1].payload, "stability violated");
                }
            }
        }
    }

    #[test]
    fn workload_bound_holds_for_random_duplication(
        p in 4usize..9,
        heavy_pct in 0u32..100,
        seed in any::<u64>(),
    ) {
        let n_rank = 600usize;
        let mut cfg = SdsConfig::default();
        cfg.tau_m_bytes = 0;
        let world = World::new(p).cores_per_node(4).net(NetModel::zero());
        let report = world.run(|comm| {
            use rand::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed ^ (comm.rank() as u64) << 8);
            let data: Vec<u64> = (0..n_rank)
                .map(|_| if rng.gen_range(0..100) < heavy_pct { 42 } else { rng.gen_range(0..500) })
                .collect();
            sds_sort(comm, data, &cfg).expect("no budget").data.len()
        });
        let n_total = p * n_rank;
        let bound = 4 * n_total / p + 2 * n_total / (p * p) + p;
        let max = report.results.into_iter().max().unwrap();
        prop_assert!(max <= bound, "max load {max} exceeds 4N/p bound {bound}");
    }
}

// Full-exchange simulations of the stable partition: multiple sources,
// arbitrary data and pivots, verified against the global stable order.
proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn stable_partition_simulated_exchange_preserves_order(
        sources in vec(vec(0u32..6, 0..50), 2..6),
        raw_pivots in vec(0u32..6, 1..8),
    ) {
        use sdssort::partition::{local_dup_counts, shares_for_source};
        // Sorted per-source data (tagged with global input position) and
        // sorted pivots.
        let mut pivots = raw_pivots;
        pivots.sort_unstable();
        let p = pivots.len() + 1;
        let mut tag = 0u64;
        let tagged: Vec<Vec<Record<u32, u64>>> = sources
            .iter()
            .map(|src| {
                let mut recs: Vec<Record<u32, u64>> = src
                    .iter()
                    .map(|&k| {
                        tag += 1;
                        Record::new(k, tag)
                    })
                    .collect();
                // stable local sort keeps tags ascending within equal keys
                recs.sort_by_key(|r| r.key);
                recs
            })
            .collect();

        // Stable cuts per source with consistent shares.
        let runs = replicated_runs(&pivots);
        let counts: Vec<Vec<usize>> =
            tagged.iter().map(|d| local_dup_counts(d, &runs)).collect();
        let all_cuts: Vec<Vec<usize>> = tagged
            .iter()
            .enumerate()
            .map(|(i, d)| stable_cuts(d, &pivots, None, &shares_for_source(&counts, i)))
            .collect();

        // Simulate the exchange: destination d receives, in source order,
        // each source's [cuts[d], cuts[d+1]) slice.
        let mut received: Vec<Vec<Record<u32, u64>>> = vec![Vec::new(); p];
        for (src, d) in tagged.iter().enumerate() {
            for dest in 0..p {
                let (a, b) = (all_cuts[src][dest], all_cuts[src][dest + 1]);
                received[dest].extend_from_slice(&d[a..b]);
            }
        }
        // Each destination merges its source-ordered chunks stably; since
        // each source slice is sorted and sources are concatenated in rank
        // order, a stable sort by key models SdssMergeAll.
        let mut global: Vec<Record<u32, u64>> = Vec::new();
        for dest in received.iter_mut() {
            dest.sort_by_key(|r| r.key);
            global.extend_from_slice(dest);
        }
        // The concatenation must be globally key-sorted and, within equal
        // keys, ascending by input tag (global stability).
        for w in global.windows(2) {
            prop_assert!(w[0].key <= w[1].key, "global key order violated");
            if w[0].key == w[1].key {
                prop_assert!(w[0].payload < w[1].payload, "stability violated");
            }
        }
        // And nothing lost.
        let total_in: usize = sources.iter().map(Vec::len).sum();
        prop_assert_eq!(global.len(), total_in);
    }
}
