//! Quickstart: sort a distributed dataset with SDS-Sort.
//!
//! Spins up a simulated 8-rank world (2 nodes × 4 cores), generates
//! skewed data on every rank, runs the fast variant of SDS-Sort, and
//! verifies the result is a globally sorted permutation.
//!
//! Run with: `cargo run --release --example quickstart`

use mpisim::{Communicator, World};
use sdssort::{sds_sort, SdsConfig};
use workloads::zipf_keys;

fn main() {
    let ranks = 8;
    let records_per_rank = 100_000;

    println!("SDS-Sort quickstart: {ranks} ranks x {records_per_rank} Zipf-distributed keys");

    let world = World::new(ranks).cores_per_node(4);
    let report = world.run(|comm| {
        // Every rank generates its own share of a skewed dataset
        // (α = 0.9 ⇒ ~6.4% of all records carry the most popular key).
        let data = zipf_keys(records_per_rank, 0.9, 42, comm.rank());

        // τm = 0 keeps node-level merging off so every rank holds a slice
        // of the output (with merging on, node leaders hold everything —
        // see examples/adaptive_tuning.rs for the τ knobs).
        let mut cfg = SdsConfig::default();
        cfg.tau_m_bytes = 0;
        let out = sds_sort(comm, data, &cfg).expect("sort failed");

        println!(
            "  rank {:>2}: kept {:>7} records | pivot {:>9.1}us exchange {:>9.1}us order {:>9.1}us",
            comm.rank(),
            out.data.len(),
            out.stats.pivot_s * 1e6,
            out.stats.exchange_s * 1e6,
            out.stats.local_order_s * 1e6,
        );
        out.data
    });

    // Verify: concatenating rank outputs yields a globally sorted sequence.
    let mut total = 0usize;
    let mut last: Option<u64> = None;
    for (rank, slice) in report.results.iter().enumerate() {
        assert!(
            slice.windows(2).all(|w| w[0] <= w[1]),
            "rank {rank} not locally sorted"
        );
        if let (Some(prev), Some(&first)) = (last, slice.first()) {
            assert!(prev <= first, "rank boundary {rank} out of order");
        }
        if let Some(&l) = slice.last() {
            last = Some(l);
        }
        total += slice.len();
    }
    assert_eq!(total, ranks * records_per_rank);

    let loads: Vec<usize> = report.results.iter().map(Vec::len).collect();
    println!("\nglobally sorted: yes");
    println!("records total:   {total}");
    println!(
        "load balance:    RDFA = {:.4} (1.0 = perfect)",
        sdssort::rdfa(&loads)
    );
    println!(
        "modelled time:   {:.2} ms on the simulated machine",
        report.makespan * 1e3
    );
    println!("host wall time:  {:.0} ms", report.wall.as_secs_f64() * 1e3);
}
