//! Ablation — pivot *source* × partition *rule* on skewed data.
//!
//! §2.4 argues histogram-based selection "might need secondary sorting
//! keys" for skewed data. This harness decomposes that claim: the failure
//! is not in the selection but in pairing any selection with a
//! duplicate-blind partition. Four combinations on δ ≈ 32 % Zipf under a
//! memory budget:
//!
//! * sampling + skew-aware  (SDS-Sort)            → survives
//! * histogram + skew-aware (SDS with HykSort's selector) → survives
//! * sampling + classic     (classical PSRS)      → OOM
//! * histogram + classic    (HykSort's pairing)   → OOM

use bench::{by_scale, fmt_opt_time, fmt_rdfa, header, model, verdict, Table};
use mpisim::{Communicator, World};
use sdssort::{rdfa, sds_sort, PartitionStrategy, PivotSource, SdsConfig};
use workloads::zipf_keys;

fn run(
    p: usize,
    n_rank: usize,
    source: PivotSource,
    partition: PartitionStrategy,
    budget: usize,
) -> (Option<f64>, f64) {
    let m = model();
    let mut cfg = SdsConfig::modeled(m);
    cfg.tau_m_bytes = 0;
    cfg.tau_o = 0;
    cfg.pivot_source = source;
    cfg.partition = partition;
    let world = World::new(p)
        .cores_per_node(24)
        .compute_scale(0.0)
        .memory_budget(budget);
    let report = world.run(|comm| {
        let data = zipf_keys(n_rank, 1.4, 0xAB5, comm.rank());
        sds_sort(comm, data, &cfg).map(|o| o.data.len())
    });
    if report.results.iter().any(Result::is_err) {
        return (None, f64::INFINITY);
    }
    let loads: Vec<usize> = report.results.into_iter().map(|r| r.expect("ok")).collect();
    (Some(report.makespan), rdfa(&loads))
}

fn main() {
    header(
        "Ablation — pivot source x partition rule on Zipf α=1.4 (δ ≈ 32%)",
        "§2.4: histogram selection is only unsafe when paired with a duplicate-blind partition",
    );
    let p = 64;
    let n_rank: usize = by_scale(2000, 10_000);
    let budget = n_rank * 8 * 7 / 2;
    println!("p = {p}, {n_rank} u64/rank, budget = 3.5x input\n");

    let combos = [
        (
            "sampling + skew-aware",
            PivotSource::Sampling,
            PartitionStrategy::SkewAware,
        ),
        (
            "histogram + skew-aware",
            PivotSource::Histogram,
            PartitionStrategy::SkewAware,
        ),
        (
            "sampling + classic",
            PivotSource::Sampling,
            PartitionStrategy::Classic,
        ),
        (
            "histogram + classic",
            PivotSource::Histogram,
            PartitionStrategy::Classic,
        ),
    ];
    let mut table = Table::new(["combination", "time", "RDFA"]);
    let mut outcomes = Vec::new();
    for (label, src, part) in combos {
        let (t, r) = run(p, n_rank, src, part, budget);
        outcomes.push(t.is_some());
        table.row([label.to_string(), fmt_opt_time(t), fmt_rdfa(r)]);
    }
    table.print();
    verdict(
        outcomes == [true, true, false, false],
        "both skew-aware pairings survive; both classic pairings OOM — the partition is the fix",
    );
}
