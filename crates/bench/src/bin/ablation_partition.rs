//! Ablation — the skew-aware partition itself.
//!
//! Runs the *same* SDS-Sort pipeline with only the partitioning rule
//! switched: skew-aware (the paper's contribution) vs classic
//! `upper_bound` (the PSRS/HykSort rule). Everything else — sampling,
//! pivot selection, exchange, ordering — is identical, so any difference
//! in load balance and survival is attributable to the partition alone.

use bench::{by_scale, fmt_opt_time, fmt_rdfa, header, model, verdict, Table};
use mpisim::{Communicator, World};
use sdssort::{rdfa, sds_sort, PartitionStrategy, SdsConfig, SortError};
use workloads::{zipf_keys, PAPER_ALPHA_DELTA_TABLE2};

fn run(
    p: usize,
    n_rank: usize,
    alpha: f64,
    strategy: PartitionStrategy,
    budget: usize,
) -> (Option<f64>, f64) {
    let m = model();
    let mut cfg = SdsConfig::modeled(m);
    cfg.tau_m_bytes = 0;
    cfg.tau_o = 0;
    cfg.partition = strategy;
    let world = World::new(p)
        .cores_per_node(24)
        .compute_scale(0.0)
        .memory_budget(budget);
    let report = world.run(|comm| {
        let data = zipf_keys(n_rank, alpha, 0xAB1, comm.rank());
        sds_sort(comm, data, &cfg).map(|o| o.data.len())
    });
    let ok = report.results.iter().all(Result::is_ok);
    if !ok {
        debug_assert!(report
            .results
            .iter()
            .any(|r| matches!(r, Err(SortError::Oom(_)) | Err(SortError::PeerOom))));
        return (None, f64::INFINITY);
    }
    let loads: Vec<usize> = report
        .results
        .into_iter()
        .map(|r| r.expect("checked ok"))
        .collect();
    (Some(report.makespan), rdfa(&loads))
}

fn main() {
    header(
        "Ablation — skew-aware vs classic partition inside the same pipeline",
        "isolates §2.5: the partition alone must explain the skew robustness",
    );
    let p: usize = 256;
    let n_rank: usize = by_scale(1500, 8000);
    let budget = n_rank * 8 * 16 / 5; // same regime as Fig 6c
    println!("p = {p}, {n_rank} u64/rank, budget = 3.2x input\n");

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
        let (t_skew, r_skew) = run(p, n_rank, alpha, PartitionStrategy::SkewAware, budget);
        let (t_classic, r_classic) = run(p, n_rank, alpha, PartitionStrategy::Classic, budget);
        if t_skew.is_none() {
            skew_all_ok = false;
        }
        if t_classic.is_none() && delta >= 2.0 {
            classic_fails_high = true;
        }
        table.row([
            format!("{delta:.1}"),
            fmt_opt_time(t_skew),
            fmt_rdfa(r_skew),
            fmt_opt_time(t_classic),
            fmt_rdfa(r_classic),
        ]);
    }
    table.print();
    verdict(
        skew_all_ok && classic_fails_high,
        "with ONLY the partition swapped, the classic rule inherits HykSort's OOM failure",
    );
}
