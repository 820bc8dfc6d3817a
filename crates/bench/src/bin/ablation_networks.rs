//! Ablation — network dependence of the node-merging decision (τm).
//!
//! §2.3's argument is that node merging is a *network-dependent* choice:
//! on a slow, high-overhead network merging pays much longer (larger τm),
//! on a fast NIC it stops paying almost immediately. We rerun the Fig. 5a
//! sweep under the Edison model and under a slow-commodity-cluster model
//! and compare crossovers — the adaptive τm rule is only justified if the
//! crossover actually moves.

use bench::{by_scale, fmt_bytes, fmt_time, header, model, verdict, Table};
use mpisim::{Communicator, NetModel, World};
use sdssort::node_merge::node_merge;
use sdssort::partition::{cuts_to_counts, fast_cuts};
use workloads::uniform_u64;

const CORES: usize = 24;
const NODES: usize = 4;

fn exchange_time(n_rank: usize, merge: bool, net: NetModel) -> f64 {
    let p = CORES * NODES;
    let m = model();
    let world = World::new(p)
        .cores_per_node(CORES)
        .net(net)
        .compute_scale(0.0);
    let report = world.run(|comm| {
        let mut data = uniform_u64(n_rank, 5, comm.rank());
        data.sort_unstable();
        comm.barrier();
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

fn crossover(sizes: &[usize], net: NetModel) -> (Option<usize>, Vec<(f64, f64)>) {
    let mut rows = Vec::new();
    let mut cross = None;
    for &per_node in sizes {
        let n_rank = per_node / CORES / 8;
        let t_merge = exchange_time(n_rank, true, net.clone());
        let t_direct = exchange_time(n_rank, false, net.clone());
        if cross.is_none() && t_direct < t_merge {
            cross = Some(per_node);
        }
        rows.push((t_merge, t_direct));
    }
    (cross, rows)
}

fn main() {
    header(
        "Ablation — τm crossover under fast (Aries) vs slow (ethernet) networks",
        "node merging is the low-throughput-network optimization (§2.3)",
    );
    let sizes: Vec<usize> = by_scale(
        vec![16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20],
        vec![16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20],
    );
    let (cross_fast, rows_fast) = crossover(&sizes, NetModel::edison());
    let (cross_slow, rows_slow) = crossover(&sizes, NetModel::slow_ethernet());

    let mut table = Table::new([
        "per-node size",
        "aries merge",
        "aries direct",
        "ethernet merge",
        "ethernet direct",
    ]);
    for (i, &sz) in sizes.iter().enumerate() {
        table.row([
            fmt_bytes(sz),
            fmt_time(rows_fast[i].0),
            fmt_time(rows_fast[i].1),
            fmt_time(rows_slow[i].0),
            fmt_time(rows_slow[i].1),
        ]);
    }
    table.print();
    println!(
        "\ncrossover — aries: {}, ethernet: {}",
        cross_fast.map_or("never".into(), fmt_bytes),
        cross_slow.map_or("beyond sweep".into(), fmt_bytes)
    );
    let moved = match (cross_fast, cross_slow) {
        (Some(f), Some(s)) => s > f,
        (Some(_), None) => true, // merging never stops paying on ethernet in-sweep
        _ => false,
    };
    verdict(
        moved,
        "the slow network extends the regime where node merging pays off",
    );
}
