//! Fig. 5a — all-to-all exchange time with vs without node-level merging,
//! sweeping the data size per node.
//!
//! Paper result (Edison): merging the node's data onto its leader before
//! the exchange wins while the per-node volume is small (< ~160 MB,
//! amortizing per-message overhead), and loses for large volumes (a single
//! leader core cannot saturate the network that 24 cores can). We sweep
//! per-node volume at our reduced scale and report the modelled exchange
//! time for both strategies; the reproduced *shape* is "merging wins left
//! of a crossover, loses right of it".

use bench::{by_scale, fmt_bytes, fmt_time, header, model, modeled_world, verdict, Table};
use comm::Communicator;
use sdssort::node_merge::node_merge;
use sdssort::partition::{cuts_to_counts, fast_cuts};
use workloads::uniform_u64;

const CORES: usize = 24;
const NODES: usize = 4;

/// Modelled time of the exchange phase over `NODES` nodes of `CORES`
/// ranks, with `n_rank` u64 records per rank.
fn exchange_time(n_rank: usize, merge: bool) -> f64 {
    let p = CORES * NODES;
    let m = model();
    let world = modeled_world(p);
    let report = world.run(|comm| {
        let mut data = uniform_u64(n_rank, 5, comm.rank());
        data.sort_unstable();
        comm.barrier(); // measure from a common start
        let t0 = comm.clock().now();
        if merge {
            let (cg, cl) = comm.refine_comm();
            let node_n = cl.allreduce(data.len(), |a, b| a + b);
            let merged = node_merge(&cl, &data);
            if cl.rank() == 0 {
                comm.clock().charge(m.kway_merge_cost(node_n, cl.size()));
            }
            if let (Some(cg), Some(merged)) = (cg, merged) {
                let pl = cg.size();
                let pivots: Vec<u64> = (1..pl as u64).map(|i| i * (u64::MAX / pl as u64)).collect();
                let cuts = fast_cuts(&merged, &pivots, None);
                cg.alltoallv(&merged, &cuts_to_counts(&cuts));
            }
        } else {
            let pivots: Vec<u64> = (1..p as u64).map(|i| i * (u64::MAX / p as u64)).collect();
            let cuts = fast_cuts(&data, &pivots, None);
            comm.alltoallv(&data, &cuts_to_counts(&cuts));
        }
        comm.clock().now() - t0
    });
    report.results.into_iter().fold(0.0f64, f64::max)
}

fn main() {
    header(
        "Fig 5a — exchange time, node merging vs direct, by per-node size",
        "merging wins below ~160 MB/node on Edison, loses above",
    );
    // Per-node volumes, scaled from the paper's 4 MB – 4 GB sweep.
    let sizes: Vec<usize> = by_scale(
        vec![16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20],
        vec![
            16 << 10,
            64 << 10,
            256 << 10,
            1 << 20,
            4 << 20,
            16 << 20,
            64 << 20,
            256 << 20,
        ],
    );
    let mut table = Table::new(["per-node size", "merging", "no-merging", "winner"]);
    let mut crossover: Option<usize> = None;
    let mut merge_won_small = false;
    let mut direct_won_large = false;
    for (i, &per_node) in sizes.iter().enumerate() {
        let n_rank = per_node / CORES / 8;
        let t_merge = exchange_time(n_rank, true);
        let t_direct = exchange_time(n_rank, false);
        let winner = if t_merge < t_direct {
            "merging"
        } else {
            "no-merging"
        };
        if i == 0 && t_merge < t_direct {
            merge_won_small = true;
        }
        if i == sizes.len() - 1 && t_direct < t_merge {
            direct_won_large = true;
        }
        if crossover.is_none() && t_direct < t_merge {
            crossover = Some(per_node);
        }
        table.row([
            fmt_bytes(per_node),
            fmt_time(t_merge),
            fmt_time(t_direct),
            winner.to_string(),
        ]);
    }
    table.print();
    if let Some(c) = crossover {
        println!(
            "crossover: merging stops paying off near {} per node (paper: ~160 MB on Edison)",
            fmt_bytes(c)
        );
    }
    verdict(
        merge_won_small && direct_won_large,
        "merging wins for small per-node volumes and loses for large ones",
    );
}
