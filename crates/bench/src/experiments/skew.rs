//! Skew robustness under a memory budget: Fig. 6c, the partition and
//! pivot-source ablations, and the shoot-out against the peer algorithms.

use crate::emit::outcome_values;
use crate::{fmt_bytes, fmt_opt_time, fmt_rdfa, run_sorter, run_world, Run, RunOutcome};
use crate::{Sorter, Table};
use mpisim::Communicator;
use sdssort::{sds_sort, PartitionStrategy, PivotSource, SdsConfig};
use workloads::{keys_by_name, zipf_keys, PAPER_ALPHA_DELTA_TABLE2};

/// Process count of the δ sweeps (Fig. 6c and the partition ablation).
const SWEEP_P: usize = 256;

/// Per-rank budget of the δ sweeps: 3.2× the per-rank input. SDS-Sort's
/// receive buffers stay below ~2.7× (Table 3 RDFA ≤ 2.68); a
/// duplicate-blind partition's popular-value bucket holds ~δ·p shares of a
/// rank's input and blows through the budget once δ·p > 3.2 — i.e. between
/// δ = 1 % and δ = 2 % at p = 256, matching the paper's observed failure
/// point.
fn sweep_budget(n_rank: usize) -> usize {
    n_rank * 8 * 16 / 5
}

/// Fig. 6c — end-to-end sort time vs replication ratio δ, under a memory
/// budget.
///
/// Paper result: SDS-Sort and SDS-Sort/stable deliver stable times across
/// δ = 0.2 %–6.4 % (α = 0.4–0.9, Table 2), while HykSort only completes
/// when δ < ~1 % and dies with OOM beyond — duplicate concentration
/// overflows a rank's memory. The per-rank budget sits between SDS-Sort's
/// `O(4N/p)`-bounded footprint and HykSort's `δ·N + N/p` concentration,
/// exactly the regime of the paper's 64 GB nodes.
///
/// AMS-sort and HSS (`crates/algos`) ride along as context columns: both
/// split ties by position, so like the SDS variants they should survive
/// every δ — the verdict still hinges on HykSort vs SDS. The full
/// comparison is the `shootout` experiment.
pub fn fig6c(r: &mut Run) -> bool {
    let sorters = [
        Sorter::HykSort,
        Sorter::Sds,
        Sorter::SdsStable,
        Sorter::Ams,
        Sorter::Hss,
    ];
    let n_rank: usize = r.scale().pick(1500, 8000);
    let budget = sweep_budget(n_rank);
    println!(
        "p = {SWEEP_P}, {n_rank} u64/rank, budget = {} per rank\n",
        fmt_bytes(budget)
    );
    let mut table = Table::new(
        ["δ (%)", "alpha"]
            .into_iter()
            .chain(sorters.map(|s| s.label())),
    );
    let mut hyk_fails_high = false;
    let mut hyk_ok_low = false;
    let mut sds_all_ok = true;
    for &(alpha, delta) in &PAPER_ALPHA_DELTA_TABLE2 {
        let mut row = vec![format!("{delta:.1}"), format!("{alpha:.1}")];
        for s in sorters {
            let o = run_sorter(s, SWEEP_P, Some(budget), r.model(), move |rank| {
                zipf_keys(n_rank, alpha, 0x6C, rank)
            });
            let done = o.time_s.is_some();
            match s {
                Sorter::HykSort => {
                    hyk_ok_low |= done && delta <= 0.5;
                    hyk_fails_high |= !done && delta >= 2.0;
                }
                Sorter::Sds | Sorter::SdsStable => sds_all_ok &= done,
                Sorter::Ams | Sorter::Hss => {}
            }
            r.em().point(
                s.label(),
                &[("delta_pct", delta.into()), ("alpha", alpha.into())],
                &outcome_values(&o),
            );
            row.push(fmt_opt_time(o.time_s));
        }
        table.row(row);
    }
    table.print();
    r.verdict(
        hyk_ok_low && hyk_fails_high && sds_all_ok,
        "SDS variants complete at every δ; HykSort completes only at low δ and OOMs at high δ",
    )
}

/// The SDS-Sort pipeline on Zipf(`alpha`) keys under `budget` with one
/// knob changed by `tweak` — what both ablations below compare. No
/// overlap and no node merging, so only the knob differs between rows.
fn sds_variant(
    r: &Run,
    p: usize,
    n_rank: usize,
    budget: usize,
    alpha: f64,
    seed: u64,
    tweak: impl Fn(&mut SdsConfig),
) -> RunOutcome {
    let mut cfg = SdsConfig::modeled(r.model());
    cfg.tau_m_bytes = 0;
    cfg.tau_o = 0;
    tweak(&mut cfg);
    run_world(p, Some(budget), |comm| {
        sds_sort(comm, zipf_keys(n_rank, alpha, seed, comm.rank()), &cfg)
    })
}

/// Ablation — the skew-aware partition itself.
///
/// Runs the *same* SDS-Sort pipeline with only the partitioning rule
/// switched: skew-aware (the paper's contribution) vs classic
/// `upper_bound` (the PSRS/HykSort rule). Everything else — sampling,
/// pivot selection, exchange, ordering — is identical, so any difference
/// in load balance and survival is attributable to the partition alone.
pub fn ablation_partition(r: &mut Run) -> bool {
    let n_rank: usize = r.scale().pick(1500, 8000);
    let budget = sweep_budget(n_rank); // same regime as Fig 6c
    println!("p = {SWEEP_P}, {n_rank} u64/rank, budget = 3.2x input\n");

    let mut table = Table::new([
        "δ (%)",
        "skew-aware time",
        "skew-aware RDFA",
        "classic time",
        "classic RDFA",
    ]);
    let mut classic_fails_high = false;
    let mut skew_all_ok = true;
    for &(alpha, delta) in &PAPER_ALPHA_DELTA_TABLE2 {
        let mut row = vec![format!("{delta:.1}")];
        for (label, strategy) in [
            ("skew-aware", PartitionStrategy::SkewAware),
            ("classic", PartitionStrategy::Classic),
        ] {
            let o = sds_variant(r, SWEEP_P, n_rank, budget, alpha, 0xAB1, |cfg| {
                cfg.partition = strategy;
            });
            match strategy {
                PartitionStrategy::SkewAware => skew_all_ok &= o.time_s.is_some(),
                PartitionStrategy::Classic => {
                    classic_fails_high |= o.time_s.is_none() && delta >= 2.0;
                }
            }
            r.em()
                .point(label, &[("delta_pct", delta.into())], &outcome_values(&o));
            row.extend([fmt_opt_time(o.time_s), fmt_rdfa(o.rdfa())]);
        }
        table.row(row);
    }
    table.print();
    r.verdict(
        skew_all_ok && classic_fails_high,
        "with ONLY the partition swapped, the classic rule inherits HykSort's OOM failure",
    )
}

/// Ablation — pivot *source* × partition *rule* on skewed data.
///
/// §2.4 argues histogram-based selection "might need secondary sorting
/// keys" for skewed data. This decomposes that claim: the failure is not
/// in the selection but in pairing any selection with a duplicate-blind
/// partition. Four combinations on δ ≈ 32 % Zipf under a memory budget:
///
/// * sampling + skew-aware  (SDS-Sort)            → survives
/// * histogram + skew-aware (SDS with HykSort's selector) → survives
/// * sampling + classic     (classical PSRS)      → OOM
/// * histogram + classic    (HykSort's pairing)   → OOM
pub fn ablation_pivot_source(r: &mut Run) -> bool {
    let p = 64;
    let n_rank: usize = r.scale().pick(2000, 10_000);
    let budget = n_rank * 8 * 7 / 2;
    println!("p = {p}, {n_rank} u64/rank, budget = 3.5x input\n");

    let mut table = Table::new(["combination", "time", "RDFA"]);
    let mut survived = Vec::new();
    for (rule, partition) in [
        ("skew-aware", PartitionStrategy::SkewAware),
        ("classic", PartitionStrategy::Classic),
    ] {
        for (selector, source) in [
            ("sampling", PivotSource::Sampling),
            ("histogram", PivotSource::Histogram),
        ] {
            let label = format!("{selector} + {rule}");
            let o = sds_variant(r, p, n_rank, budget, 1.4, 0xAB5, |cfg| {
                cfg.pivot_source = source;
                cfg.partition = partition;
            });
            survived.push(o.time_s.is_some());
            r.em()
                .point(&label, &[("p", p.into())], &outcome_values(&o));
            table.row([label, fmt_opt_time(o.time_s), fmt_rdfa(o.rdfa())]);
        }
    }
    table.print();
    r.verdict(
        survived == [true, true, false, false],
        "both skew-aware pairings survive; both classic pairings OOM — the partition is the fix",
    )
}

/// The 4-way skew shoot-out: SDS-Sort (fast + stable), HykSort, AMS-sort,
/// and Histogram Sort with Sampling head to head, with modeled compute (so
/// every cell is deterministic and machine-independent).
///
/// 1. **Skew sweep** at fixed `p`: Uniform, low/high-α Zipf, and the
///    staircase of duplication levels — the regimes where the partition
///    strategies genuinely differ. RDFA exposes who balances under
///    duplicate mass; HSS must stay within its `(1+ε)` guarantee on
///    *every* workload.
/// 2. **Weak scaling** on Uniform at `p/4`, `p/2`, `p`.
pub fn shootout(r: &mut Run) -> bool {
    // Every sorter in the shoot-out, in column order.
    let sorters = [
        Sorter::Sds,
        Sorter::SdsStable,
        Sorter::HykSort,
        Sorter::Ams,
        Sorter::Hss,
    ];
    // The skew matrix: no duplication, mild and heavy Zipf (α per the
    // paper's Table 2 calibration), and two staircase grades.
    let workloads = [
        "uniform",
        "zipf:0.4",
        "zipf:0.9",
        "staircase:8",
        "staircase:4",
    ];
    /// HSS guarantees every part ≤ (1+ε)·N/p with the default ε = 0.1, so
    /// its RDFA (max/avg load) must stay below this on every workload — a
    /// little slack covers integer rounding at small N/p.
    const HSS_RDFA_BOUND: f64 = 1.15;

    let p: usize = r.scale().pick(32, 256);
    let n_rank: usize = r.scale().pick(1500, 8000);
    r.em().meta("p", p);
    r.em().meta("n_rank", n_rank);
    println!("p = {p}, {n_rank} u64/rank, no memory budget (OOM regimes are fig6c's job)\n");

    let mut all_complete = true;
    let mut hss_balanced = true;
    // One cell: sort, record, fold into the verdict, hand back for printing.
    let mut cell = |s: Sorter, name: &'static str, q: usize| {
        let o = run_sorter(s, q, None, r.model(), move |rank| {
            keys_by_name(name, n_rank, 0xA1, rank).expect("workload from the fixed matrix")
        });
        all_complete &= o.time_s.is_some();
        r.em().point(
            s.label(),
            &[("workload", name.into()), ("p", q.into())],
            &outcome_values(&o),
        );
        o
    };

    println!("— skew sweep (time, RDFA) —");
    let mut t = Table::new(
        std::iter::once("workload".to_string())
            .chain(sorters.iter().map(|s| format!("{} t/rdfa", s.label()))),
    );
    for name in workloads {
        let mut row = vec![name.to_string()];
        for s in sorters {
            let o = cell(s, name, p);
            hss_balanced &= s != Sorter::Hss || o.rdfa() <= HSS_RDFA_BOUND;
            row.push(format!("{}/{}", fmt_opt_time(o.time_s), fmt_rdfa(o.rdfa())));
        }
        t.row(row);
    }
    t.print();

    println!("\n— weak scaling, uniform (time) —");
    let mut t = Table::new(std::iter::once("p").chain(sorters.iter().map(Sorter::label)));
    for q in [p / 4, p / 2, p] {
        let mut row = vec![q.to_string()];
        row.extend(sorters.map(|s| fmt_opt_time(cell(s, "uniform", q).time_s)));
        t.row(row);
    }
    t.print();

    r.verdict(
        all_complete && hss_balanced,
        "all five sorters complete every cell; HSS honours its (1+eps) balance bound",
    )
}
