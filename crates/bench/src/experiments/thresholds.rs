//! The machine-dependent thresholds (τm, τo) and the communication
//! machinery behind them: Figs. 5a/5b, the network and pivot-selection
//! ablations, and the communication-matrix trace. All on the simulator.

use super::{contest, crossover};
use crate::{fmt_bytes, modeled_world, Run, Table};
use mpisim::{Communicator, NetModel, World};
use sdssort::node_merge::node_merge;
use sdssort::partition::{cuts_to_counts, fast_cuts};
use sdssort::pivots::{select_global_pivots, PivotMethod};
use sdssort::sampling::regular_sample;
use sdssort::{sds_sort, ComputeModel, SdsConfig};
use workloads::uniform_u64;

/// Ranks per node and nodes of the node-merging experiments (an Edison
/// node has 24 cores).
const CORES: usize = 24;
const NODES: usize = 4;

/// Modelled time of the exchange phase over `NODES` nodes of `CORES`
/// ranks under `net`, with `n_rank` u64 records per rank, with or without
/// merging each node's data onto its leader first.
fn exchange_time(n_rank: usize, merge: bool, net: &NetModel, m: ComputeModel) -> f64 {
    /// All-to-all of sorted `data` over `c`, cut at equal-width pivots.
    fn exchange<C: Communicator>(c: &C, data: &[u64]) {
        let p = c.size() as u64;
        let pivots: Vec<u64> = (1..p).map(|i| i * (u64::MAX / p)).collect();
        c.alltoallv(data, &cuts_to_counts(&fast_cuts(data, &pivots, None)));
    }
    let report = modeled_world(CORES * NODES).net(net.clone()).run(|comm| {
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
                exchange(&cg, &merged);
            }
        } else {
            exchange(&*comm, &data);
        }
        comm.clock().now() - t0
    });
    report.results.into_iter().fold(0.0f64, f64::max)
}

/// [`contest`] of merging vs not over per-node volumes `sizes` under `net`;
/// returns the rows and the first volume at which going direct wins.
fn merge_contest(
    r: &mut Run,
    series: &str,
    sizes: &[usize],
    net: &NetModel,
) -> (Vec<Vec<f64>>, Option<usize>) {
    let names = ["merging", "no-merging"];
    let time = |r: &Run, per_node: usize| {
        let times =
            [true, false].map(|merge| exchange_time(per_node / CORES / 8, merge, net, r.model()));
        times.to_vec()
    };
    let rows = contest(r, series, "per-node size", &names, sizes, fmt_bytes, time);
    let cross = crossover(sizes, &rows);
    (rows, cross)
}

/// Fig. 5a — all-to-all exchange time with vs without node-level merging,
/// sweeping the data size per node.
///
/// Paper result (Edison): merging the node's data onto its leader before
/// the exchange wins while the per-node volume is small (< ~160 MB,
/// amortizing per-message overhead), and loses for large volumes (a single
/// leader core cannot saturate the network that 24 cores can). The
/// reproduced *shape* is "merging wins left of a crossover, loses right of
/// it".
pub fn fig5a(r: &mut Run) -> bool {
    // Per-node volumes, scaled from the paper's 4 MB – 4 GB sweep.
    let mut sizes = vec![16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20];
    sizes.extend(r.scale().pick(vec![], vec![64 << 20, 256 << 20]));
    let (rows, cross) = merge_contest(r, "edison", &sizes, &NetModel::edison());
    if let Some(c) = cross {
        println!(
            "crossover: merging stops paying off near {} per node (paper: ~160 MB on Edison)",
            fmt_bytes(c)
        );
    }
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    r.verdict(
        first[0] < first[1] && last[1] < last[0],
        "merging wins for small per-node volumes and loses for large ones",
    )
}

/// Ablation — network dependence of the node-merging decision (τm).
///
/// §2.3's argument is that node merging is a *network-dependent* choice:
/// on a slow, high-overhead network merging pays much longer (larger τm),
/// on a fast NIC it stops paying almost immediately. We rerun the Fig. 5a
/// sweep under the Edison model and under a slow-commodity-cluster model
/// and compare crossovers — the adaptive τm rule is only justified if the
/// crossover actually moves.
pub fn ablation_networks(r: &mut Run) -> bool {
    let mut sizes = vec![16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];
    sizes.extend(r.scale().pick(vec![], vec![16 << 20]));
    println!("aries (Edison):");
    let (_, cross_fast) = merge_contest(r, "aries", &sizes, &NetModel::edison());
    println!("\nslow ethernet:");
    let (_, cross_slow) = merge_contest(r, "ethernet", &sizes, &NetModel::slow_ethernet());
    println!(
        "\ncrossover — aries: {}, ethernet: {}",
        cross_fast.map_or("never".into(), fmt_bytes),
        cross_slow.map_or("beyond sweep".into(), fmt_bytes)
    );
    // `None` on ethernet: merging never stops paying inside the sweep.
    let moved = cross_fast.is_some_and(|f| cross_slow.is_none_or(|s| s > f));
    r.verdict(
        moved,
        "the slow network extends the regime where node merging pays off",
    )
}

/// Fig. 5b — overlapping the all-to-all exchange with local ordering vs
/// not overlapping, sweeping the process count.
///
/// Paper result (Edison): overlapping is faster below ~4096 processes
/// (merging arrived chunks hides network time) and slower above (the
/// progress engine for thousands of outstanding asynchronous requests
/// competes with the computation). Our runtime charges an
/// `MPI_Test`-sweep cost per completion (`NetModel::async_test_overhead`),
/// which grows quadratically with p and reproduces the crossover.
pub fn fig5b(r: &mut Run) -> bool {
    let mut ps = vec![4usize, 8, 16, 32, 64, 128];
    ps.extend(r.scale().pick(vec![], vec![256, 512]));
    let n_rank = r.scale().pick(20_000, 50_000);
    let m = r.model();
    let run = |p: usize, overlap: bool| {
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
    };
    let names = ["overlapping", "no-overlapping"];
    let time = |_: &Run, p: usize| vec![run(p, true), run(p, false)];
    let rows = contest(r, "sds", "p", &names, &ps, |p| p.to_string(), time);
    if let Some(c) = crossover(&ps, &rows) {
        println!("crossover: overlapping stops paying off near p = {c} (paper: ~4096 on Edison)");
    }
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    r.verdict(
        first[0] < first[1] && last[1] < last[0],
        "overlap wins at small p, synchronous wins at large p",
    )
}

/// Ablation — pivot-selection machinery.
///
/// §2.4 argues for a distributed (bitonic) sort of the pooled samples over
/// gathering them on one rank. This times both paths on the same sample
/// sets across p, verifies they produce identical pivots, and shows where
/// the gather path's O(p²) root bottleneck overtakes the distributed
/// sort's log-round exchanges.
pub fn ablation_pivot_methods(r: &mut Run) -> bool {
    let time_method = |p: usize, method: PivotMethod| {
        let report = modeled_world(p).run(|comm| {
            let mut data = uniform_u64(4096, 0xAB2, comm.rank());
            data.sort_unstable();
            let samples = regular_sample(&data, p - 1);
            comm.barrier();
            let t0 = comm.clock().now();
            let pivots = select_global_pivots(comm, &samples, method);
            (comm.clock().now() - t0, pivots)
        });
        let t = report.results.iter().map(|r| r.0).fold(0.0f64, f64::max);
        let pivots = report.results.into_iter().next().expect("non-empty").1;
        (t, pivots)
    };
    let mut ps = vec![8usize, 16, 32, 64, 128];
    ps.extend(r.scale().pick(vec![], vec![256]));
    let mut agree_everywhere = true;
    let time = |_: &Run, p: usize| {
        let (t_dist, piv_dist) = time_method(p, PivotMethod::Distributed);
        let (t_gath, piv_gath) = time_method(p, PivotMethod::Gather);
        agree_everywhere &= piv_dist == piv_gath;
        vec![t_dist, t_gath]
    };
    let names = ["distributed", "gather"];
    let rows = contest(
        r,
        "pivot-selection",
        "p",
        &names,
        &ps,
        |p| p.to_string(),
        time,
    );
    println!("identical pivots at every p (p·(p-1) samples pooled): {agree_everywhere}");
    let dist_wins_large = rows.last().is_some_and(|t| t[0] < t[1]);
    r.verdict(
        agree_everywhere && dist_wins_large,
        "methods agree exactly; the distributed sorter wins at the largest p",
    )
}

/// Communication-structure analysis: what node-level merging does to the
/// message matrix.
///
/// §2.3's argument quantified: without merging, an all-to-all between
/// `nodes` nodes of `c` cores each crosses the network with up to
/// `c² · nodes·(nodes-1)` messages; with merging, only the leaders talk
/// across nodes (`nodes·(nodes-1)` messages), at the price of the
/// node-local gather. Runs the full SDS-Sort pipeline with telemetry on and
/// prints the snapshot's per-phase traffic, inter-node vs intra-node.
pub fn trace_comm_matrix(r: &mut Run) -> bool {
    const CORES: usize = 6;
    println!("{NODES} nodes x {CORES} cores, 2000 u64/rank\n");
    // Trace one configuration; returns the exchange phase's inter-node
    // message count.
    let mut traffic = |label: &str, tau_m: usize| -> u64 {
        let world = World::new(CORES * NODES)
            .cores_per_node(CORES)
            .telemetry(true);
        let mut cfg = SdsConfig::default();
        cfg.tau_m_bytes = tau_m;
        cfg.tau_o = 0;
        let report = world.run(|comm| {
            let data = uniform_u64(2000, 0x7C, comm.rank());
            sds_sort(comm, data, &cfg).expect("no budget").data.len()
        });
        let mut table = Table::new(["phase", "messages", "inter-node", "bytes"]);
        let mut exchange_inter = 0;
        for p in &report.telemetry.expect("telemetry enabled").phases {
            if p.name == "exchange" {
                exchange_inter = p.internode_messages;
            }
            r.em().point(
                label,
                &[("phase", p.name.as_str().into())],
                &[
                    ("messages", p.messages.into()),
                    ("internode_messages", p.internode_messages.into()),
                    ("bytes", p.bytes.into()),
                ],
            );
            table.row([
                p.name.clone(),
                p.messages.to_string(),
                p.internode_messages.to_string(),
                p.bytes.to_string(),
            ]);
        }
        table.print();
        exchange_inter
    };
    println!("with node merging (τm = ∞):");
    let exch_merged = traffic("merged", usize::MAX);
    println!("\nwithout node merging (τm = 0):");
    let exch_direct = traffic("direct", 0);
    println!(
        "\ninter-node exchange messages: merged {exch_merged} vs direct {exch_direct} \
         ({}x reduction; structural bound: c^2 = {})",
        exch_direct.checked_div(exch_merged).unwrap_or(0),
        CORES * CORES
    );
    r.verdict(
        exch_merged * 2 < exch_direct,
        "node merging cuts inter-node exchange messages by a large factor",
    )
}
