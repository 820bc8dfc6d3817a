//! Fig. 5b — overlapping the all-to-all exchange with local ordering vs
//! not overlapping, sweeping the process count.
//!
//! Paper result (Edison): overlapping is faster below ~4096 processes
//! (merging arrived chunks hides network time) and slower above (the
//! progress engine for thousands of outstanding asynchronous requests
//! competes with the computation). Our runtime charges an
//! `MPI_Test`-sweep cost per completion (`NetModel::async_test_overhead`),
//! which grows quadratically with p and reproduces the crossover.

use bench::{by_scale, fmt_time, header, model, verdict, Table};
use mpisim::{Communicator, World};
use sdssort::{sds_sort, ComputeModel, SdsConfig};
use workloads::uniform_u64;

fn run(p: usize, n_rank: usize, overlap: bool, m: ComputeModel) -> f64 {
    let mut cfg = SdsConfig::modeled(m);
    cfg.tau_m_bytes = 0;
    cfg.tau_o = if overlap { usize::MAX } else { 0 };
    // One rank per node: the exchange crosses the network at every p
    // (the paper likewise spreads ranks across nodes as p grows).
    let world = World::new(p).cores_per_node(1).compute_scale(0.0);
    let report = world.run(|comm| {
        let data = uniform_u64(n_rank, 0x5B, comm.rank());
        sds_sort(comm, data, &cfg)
            .expect("no budget")
            .stats
            .total_s()
    });
    report.makespan
}

fn main() {
    header(
        "Fig 5b — overlap vs no-overlap of exchange and local ordering, by p",
        "overlap faster below ~4K processes, slower above (Edison)",
    );
    let ps: Vec<usize> = by_scale(
        vec![4, 8, 16, 32, 64, 128],
        vec![4, 8, 16, 32, 64, 128, 256, 512],
    );
    let n_rank = by_scale(20_000, 50_000);
    // One calibration for the whole sweep: the modelled makespans are then
    // fully deterministic and comparable across cells.
    let m = model();
    let mut table = Table::new(["p", "overlapping", "no-overlapping", "winner"]);
    let mut overlap_wins_small = false;
    let mut sync_wins_large = false;
    let mut crossover = None;
    for (i, &p) in ps.iter().enumerate() {
        let t_over = run(p, n_rank, true, m);
        let t_sync = run(p, n_rank, false, m);
        let winner = if t_over < t_sync {
            "overlapping"
        } else {
            "no-overlapping"
        };
        if i == 0 {
            overlap_wins_small = t_over < t_sync;
        }
        if i == ps.len() - 1 {
            sync_wins_large = t_sync < t_over;
        }
        if crossover.is_none() && t_sync < t_over {
            crossover = Some(p);
        }
        table.row([
            p.to_string(),
            fmt_time(t_over),
            fmt_time(t_sync),
            winner.to_string(),
        ]);
    }
    table.print();
    if let Some(c) = crossover {
        println!("crossover: overlapping stops paying off near p = {c} (paper: ~4096 on Edison)");
    }
    verdict(
        overlap_wins_small && sync_wins_large,
        "overlap wins at small p, synchronous wins at large p",
    );
}
