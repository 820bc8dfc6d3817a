//! Communication-structure analysis: what node-level merging does to the
//! message matrix.
//!
//! §2.3's argument quantified: without merging, an all-to-all between
//! `NODES` nodes of `c` cores each crosses the network with up to
//! `c² · NODES·(NODES-1)` messages; with merging, only the leaders talk
//! across nodes (`NODES·(NODES-1)` messages), at the price of the
//! node-local gather. This harness runs the full SDS-Sort pipeline with
//! tracing enabled and prints the per-phase traffic, inter-node vs
//! intra-node.

use bench::{header, verdict, Table};
use mpisim::{Communicator, NetModel, World};
use sdssort::{sds_sort, SdsConfig};
use workloads::uniform_u64;

const CORES: usize = 6;
const NODES: usize = 4;

fn traffic(tau_m: usize) -> Vec<(String, u64, u64, u64)> {
    let p = CORES * NODES;
    let world = World::new(p)
        .cores_per_node(CORES)
        .net(NetModel::edison())
        .trace(true);
    let mut cfg = SdsConfig::default();
    cfg.tau_m_bytes = tau_m;
    cfg.tau_o = 0;
    let report = world.run(|comm| {
        let data = uniform_u64(2000, 0x7C, comm.rank());
        sds_sort(comm, data, &cfg).expect("no budget").data.len()
    });
    report
        .trace_phases
        .iter()
        .map(|(name, t)| {
            let inter = t.internode_messages(&report.topology);
            (name.clone(), t.total_messages(), inter, t.total_bytes())
        })
        .collect()
}

fn main() {
    header(
        "Trace — communication matrix with and without node merging",
        "merging collapses the cross-node all-to-all onto node leaders (§2.3)",
    );
    println!("{NODES} nodes x {CORES} cores, 2000 u64/rank\n");

    let merged = traffic(usize::MAX);
    let direct = traffic(0);

    println!("with node merging (τm = ∞):");
    let mut t1 = Table::new(["phase", "messages", "inter-node", "bytes"]);
    for (name, msgs, inter, bytes) in &merged {
        t1.row([
            name.clone(),
            msgs.to_string(),
            inter.to_string(),
            bytes.to_string(),
        ]);
    }
    t1.print();

    println!("\nwithout node merging (τm = 0):");
    let mut t2 = Table::new(["phase", "messages", "inter-node", "bytes"]);
    for (name, msgs, inter, bytes) in &direct {
        t2.row([
            name.clone(),
            msgs.to_string(),
            inter.to_string(),
            bytes.to_string(),
        ]);
    }
    t2.print();

    let inter_of = |rows: &[(String, u64, u64, u64)], phase: &str| {
        rows.iter()
            .find(|(n, ..)| n == phase)
            .map_or(0, |&(_, _, i, _)| i)
    };
    let exch_merged = inter_of(&merged, "exchange");
    let exch_direct = inter_of(&direct, "exchange");
    println!(
        "\ninter-node exchange messages: merged {exch_merged} vs direct {exch_direct} \
         ({}x reduction; structural bound: c^2 = {})",
        exch_direct.checked_div(exch_merged).unwrap_or(0),
        CORES * CORES
    );
    verdict(
        exch_merged * 2 < exch_direct,
        "node merging cuts inter-node exchange messages by a large factor",
    );
}
