//! Shared-memory kernel experiments: Tables 1/2 and Figs. 5c/6a/6b. These
//! time real code on this host (best of a few repetitions) — no simulator.

use super::{contest, crossover};
use crate::{best_of, time_best_of, Run, Table};
use algos::full_scan_cuts;
use sdssort::local_sort::merge_cuts;
use sdssort::merge::kway_merge;
use sdssort::partition::{classic_cuts, fast_cuts};
use sdssort::sampling::regular_sample;
use sdssort::search::LocalPivotIndex;
use sdssort::{MergeStrategy, OrderedF32};
use workloads::{
    interleaved_runs, replication_ratio_pct, uniform_f32, uniform_u64, zipf_keys, ZipfGen,
    PAPER_ALPHA_DELTA_TABLE2,
};

/// Fig. 5c — final local ordering by k-way *merging* vs adaptive
/// *sorting*, sweeping the number of received chunks (= processes).
///
/// Paper result: merging p sorted chunks costs O(n·log p) and rises
/// sharply with p, while re-sorting the partially ordered concatenation
/// stays nearly flat (adaptive sorts exploit the presorted runs); the two
/// cross near p ≈ 4000 on Edison. Both options are timed on identical
/// inputs.
pub fn fig5c(r: &mut Run) -> bool {
    let n: usize = r.scale().pick(1 << 19, 1 << 22);
    let mut ps = vec![2usize, 4, 8, 32, 128, 512, 2048, 8192];
    ps.extend(r.scale().pick(vec![], vec![32768]));
    let time = |_: &Run, p: usize| {
        // The post-exchange buffer: p sorted runs concatenated (the
        // generator makes ceil(n/p)-sized runs).
        let data = interleaved_runs(n, p, 0x5C, 0);
        let runs: Vec<&[u64]> = data.chunks(n.div_ceil(p)).collect();
        let t_merge = time_best_of(3, || kway_merge(&runs)[n / 2]);
        let t_sort = time_best_of(3, || {
            let mut buf = data.clone();
            buf.sort_unstable();
            buf[n / 2]
        });
        vec![t_merge, t_sort]
    };
    let names = ["merge", "sort"];
    let rows = contest(
        r,
        "local-ordering",
        "p (chunks)",
        &names,
        &ps,
        |p| p.to_string(),
        time,
    );
    let cross = crossover(&ps, &rows);
    if let Some(c) = cross {
        println!("crossover: sorting overtakes merging near p = {c} (paper: ~4000 on Edison)");
    }
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    r.verdict(
        last[0] > first[0] && last[1] < first[1] * 3.0 && cross.is_some(),
        "merge time rises with p, sort time stays flat, curves cross",
    )
}

/// Table 1 — sequential `std::sort` vs `std::stable_sort` on 1 GB of
/// floats, uniform and Zipf-skewed.
///
/// Paper observations: (a) the unstable sort is faster than the stable
/// sort everywhere; (b) sorting skewed data is *faster* than uniform, and
/// gets faster as the replication ratio δ rises (duplicate-heavy inputs
/// hit the equal-element fast paths). We use Rust's `sort_unstable`
/// (ipnsort) and `sort` (driftsort) on `OrderedF32` keys, scaled from the
/// paper's 268M floats.
pub fn table1(r: &mut Run) -> bool {
    let n: usize = r.scale().pick(1 << 22, 1 << 24);
    println!("records: {n} f32 keys (paper: 268M = 1 GB)\n");
    // Best of three, each on a fresh copy (a sorted buffer re-sorts in no
    // time).
    let time_sort = |data: &[OrderedF32], stable: bool| {
        best_of(3, || {
            let mut buf = data.to_vec();
            time_best_of(1, || {
                if stable {
                    buf.sort();
                } else {
                    buf.sort_unstable();
                }
                buf[n / 2]
            })
        })
    };
    let as_f32 = |keys: Vec<u64>| -> Vec<OrderedF32> {
        keys.into_iter()
            .map(|k| OrderedF32::new(k as f32))
            .collect()
    };
    // Table 1's columns, with the paper's δ. It cites α = 1.4 → δ 32 %,
    // 2.1 → 63 %; those need explicit universes (see workloads::zipf).
    let labels = [
        "Uniform (δ ~0 %)",
        "Zipf 0.7 (δ 2 %)",
        "Zipf 1.4 (δ 32 %)",
        "Zipf 2.1 (δ 63 %)",
    ];
    let time = |_: &Run, i: usize| {
        let data: Vec<OrderedF32> = match i {
            0 => uniform_f32(n, 0x7AB1, 0)
                .into_iter()
                .map(OrderedF32::new)
                .collect(),
            1 => as_f32(zipf_keys(n, 0.7, 0x7AB1, 0)),
            2 => as_f32(ZipfGen::with_delta_target(1.4, 32.0).keys(n, 0x7AB1, 0)),
            _ => as_f32(ZipfGen::with_delta_target(2.1, 63.0).keys(n, 0x7AB1, 0)),
        };
        vec![time_sort(&data, false), time_sort(&data, true)]
    };
    let names = ["std::sort", "std::stable_sort"];
    let label = |i: usize| labels[i].to_string();
    let rows = contest(r, "sort", "workload", &names, &[0, 1, 2, 3], label, time);
    let unstable: Vec<f64> = rows.iter().map(|t| t[0]).collect();
    let ok = r.verdict(
        rows.iter().all(|t| t[0] <= t[1]) && unstable[3] < unstable[0],
        "stable sort slower than unstable; high-skew data sorts faster than uniform",
    );
    if unstable[1] < unstable[2] || unstable[2] < unstable[3] * 0.8 {
        println!("note: per-α monotonicity is noisier at this scale than in the paper");
    }
    ok
}

/// Table 2 — the relationship between the Zipf exponent α and the maximum
/// replication ratio δ.
///
/// Our generator solves the key-universe size so the *expected* δ matches
/// the paper's; this reports the analytic and empirically sampled δ next
/// to the paper's.
pub fn table2(r: &mut Run) -> bool {
    let n: usize = r.scale().pick(300_000, 3_000_000);
    let mut table = Table::new([
        "alpha",
        "paper δ%",
        "model δ%",
        "empirical δ%",
        "key universe",
    ]);
    let mut all_close = true;
    for &(alpha, paper_delta) in &PAPER_ALPHA_DELTA_TABLE2 {
        let gen = ZipfGen::with_delta_target(alpha, paper_delta);
        let analytic = gen.expected_delta_pct();
        let empirical = replication_ratio_pct(gen.keys(n, 0x7AB2, 0));
        all_close &= (empirical - paper_delta).abs() / paper_delta <= 0.25;
        r.em().point(
            "zipf",
            &[("alpha", alpha.into())],
            &[
                ("paper_delta_pct", paper_delta.into()),
                ("model_delta_pct", analytic.into()),
                ("empirical_delta_pct", empirical.into()),
            ],
        );
        table.row([
            format!("{alpha:.1}"),
            format!("{paper_delta:.1}"),
            format!("{analytic:.2}"),
            format!("{empirical:.2}"),
            gen.universe().to_string(),
        ]);
    }
    table.print();
    r.verdict(
        all_close,
        "empirical δ matches Table 2 within 25% at every α",
    )
}

/// Fig. 6a — shared-memory parallel merge: SDS-Sort's skew-aware
/// partitioned merge vs the HykSort-style sampling merge, on uniform and
/// Zipf data, sweeping data size.
///
/// Paper result: the sampling-based merge degrades on Zipf data (one core
/// inherits all the duplicates) while the skew-aware merge delivers the
/// same time on both workloads.
///
/// Method note: this host has too few cores to surface a 24-way imbalance
/// in wall-clock time, so we report the parallel *critical path* — the
/// maximum over parts of the measured sequential merge time of that part —
/// which is the parallel merge time on an unloaded 24-core node (the
/// paper's Edison node). Part boundaries come from the real `merge_cuts`
/// partitioner for each strategy.
pub fn fig6a(r: &mut Run) -> bool {
    /// Parts = cores of an Edison node.
    const PARTS: usize = 24;
    let chunks_of = |data: &[u64]| -> Vec<Vec<u64>> {
        data.chunks(data.len().div_ceil(PARTS))
            .map(|ch| {
                let mut v = ch.to_vec();
                v.sort_unstable();
                v
            })
            .collect()
    };
    let critical_path = |chunks: &[Vec<u64>], strategy: MergeStrategy| {
        let refs: Vec<&[u64]> = chunks.iter().map(Vec::as_slice).collect();
        let cuts = merge_cuts(&refs, PARTS, strategy);
        (0..PARTS).fold(0.0f64, |worst, part| {
            let runs: Vec<&[u64]> = refs
                .iter()
                .zip(cuts.iter())
                .map(|(chunk, c)| &chunk[c[part]..c[part + 1]])
                .collect();
            worst.max(time_best_of(2, || kway_merge(&runs)))
        })
    };
    println!("parts (node cores): {PARTS}; chunks merged: {PARTS}\n");
    let sizes: Vec<usize> = r.scale().pick(
        vec![1 << 20, 1 << 21, 1 << 22],
        vec![1 << 21, 1 << 22, 1 << 23, 1 << 24],
    );
    let time = |_: &Run, n: usize| {
        let uni = chunks_of(&uniform_u64(n, 0x6A, 0));
        // α = 2.1 → δ ≈ 63 %: Table 1's heaviest-duplication setting.
        let zip = chunks_of(&ZipfGen::with_delta_target(2.1, 63.0).keys(n, 0x6A, 0));
        vec![
            critical_path(&uni, MergeStrategy::SkewAware),
            critical_path(&zip, MergeStrategy::SkewAware),
            critical_path(&uni, MergeStrategy::Classic),
            critical_path(&zip, MergeStrategy::Classic),
        ]
    };
    let names = [
        "SDS + Uniform",
        "SDS + Zipf",
        "HykStyle + Uniform",
        "HykStyle + Zipf",
    ];
    let rows = contest(
        r,
        "critical-path",
        "records",
        &names,
        &sizes,
        |n| n.to_string(),
        time,
    );
    let mean =
        |ratio: fn(&Vec<f64>) -> f64| rows.iter().map(ratio).sum::<f64>() / rows.len() as f64;
    let (hyk_avg, sds_avg) = (mean(|t| t[3] / t[2]), mean(|t| t[1] / t[0].max(1e-9)));
    println!(
        "\nZipf/Uniform critical-path ratio — sampling: {hyk_avg:.2}x, skew-aware: {sds_avg:.2}x"
    );
    r.verdict(
        hyk_avg > 2.0 && sds_avg < 1.6,
        "sampling merge degrades on skewed data, skew-aware merge does not",
    )
}

/// Fig. 6b — time to partition sorted local data for the exchange, by
/// method: full sequential scan, HykSort-style per-pivot binary search,
/// and SDS-Sort's local-pivot two-level search.
///
/// Paper result: the local-pivot partition reduces partition time "to
/// almost zero" relative to the scan, across process counts. All three
/// methods produce identical cuts (asserted here before timing).
pub fn fig6b(r: &mut Run) -> bool {
    let n: usize = r.scale().pick(1 << 21, 1 << 24);
    println!("records per rank: {n} (paper: 2 GB per process)\n");
    let time = |_: &Run, p: usize| {
        let mut data = uniform_u64(n, 0x6B, 0);
        data.sort_unstable();
        // Global pivots: regular sample of the data itself (what pivot
        // selection would produce for a single-rank value distribution).
        let pivots = regular_sample(&data, p - 1);
        let index = LocalPivotIndex::build(&data, p - 1);

        // All three methods must agree before we time anything.
        let scan = full_scan_cuts(&data, &pivots);
        let binary = classic_cuts(&data, &pivots);
        let local = fast_cuts(&data, &pivots, Some(&index));
        assert_eq!(scan, binary, "scan vs binary disagree");
        assert_eq!(binary, local, "binary vs local-pivot disagree");

        vec![
            time_best_of(3, || full_scan_cuts(&data, &pivots)[p / 2]),
            time_best_of(5, || classic_cuts(&data, &pivots)[p / 2]),
            time_best_of(5, || fast_cuts(&data, &pivots, Some(&index))[p / 2]),
        ]
    };
    let names = ["sequential scan", "binary (HykSort)", "local-pivot (SDS)"];
    let rows = contest(
        r,
        "partition",
        "p",
        &names,
        &[10, 100, 500],
        |p| p.to_string(),
        time,
    );
    r.verdict(
        rows.iter().all(|t| t[2] <= t[0]),
        "local-pivot partition is far cheaper than the full scan at every p",
    )
}
