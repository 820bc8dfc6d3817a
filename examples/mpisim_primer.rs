//! A tour of the `mpisim` runtime itself — the substrate the sorters run
//! on — independent of sorting: point-to-point messaging, collectives,
//! communicator splits, the virtual-time model, memory budgets, and
//! per-phase traffic from the telemetry snapshot.
//!
//! Run with: `cargo run --release --example mpisim_primer`

use mpisim::{Communicator, NetModel, World};

/// Tag for the point-to-point ring exchange below. Tags are named constants
/// by convention (enforced by `tools/xlint`) so every tag assignment in the
/// workspace is searchable and collision-auditable.
const RING_TAG: u64 = 1;

fn main() {
    println!("mpisim primer: 8 ranks on 2 simulated 4-core nodes (Edison network model)\n");
    let world = World::new(8)
        .cores_per_node(4)
        .net(NetModel::edison())
        .telemetry(true);

    let report = world.run(|comm| {
        let rank = comm.rank();
        let p = comm.size();

        // -- point-to-point ring ------------------------------------------
        let ring = comm.span_begin("ring", comm.now());
        comm.send_val((rank + 1) % p, RING_TAG, rank as u64);
        let from_left: u64 = comm.recv_val((rank + p - 1) % p, RING_TAG);
        assert_eq!(from_left as usize, (rank + p - 1) % p);
        comm.span_end(ring, comm.now());

        // -- collectives ---------------------------------------------------
        let collectives = comm.span_begin("collectives", comm.now());
        let sum = comm.allreduce(rank as u64, |a, b| a + b);
        let prefix = comm.exscan(1u64, |a, b| a + b).unwrap_or(0);
        let everyone = comm.allgather(&[rank as u32]);
        assert_eq!(everyone.len(), p);

        // -- node-local communicators (the τm machinery) --------------------
        let (leaders, node_comm) = comm.refine_comm();
        let node_sum = node_comm.allreduce(rank, |a, b| a + b);
        let leader_count = leaders.map(|c| c.size());

        // -- virtual time ----------------------------------------------------
        // Computation advances only this rank's clock; messages carry
        // timestamps. After a barrier every clock has seen the slowest rank.
        if rank == 3 {
            comm.clock().charge(0.001); // pretend rank 3 did 1 ms of work
        }
        comm.barrier();
        let now = comm.clock().now();
        assert!(now >= 0.001, "the barrier propagated rank 3's clock");

        // -- memory budget ----------------------------------------------------
        // No budget configured here, so reservations always succeed.
        comm.try_alloc(1 << 20).expect("unlimited");
        comm.free(1 << 20);
        comm.span_end(collectives, comm.now());

        (sum, prefix, node_sum, leader_count, now)
    });

    let (sum, ..) = report.results[0];
    println!("allreduce(rank)       = {sum} (0+1+...+7)");
    for (rank, (_, prefix, node_sum, leaders, t)) in report.results.iter().enumerate() {
        println!(
            "rank {rank}: exscan(1) = {prefix}, node-local sum = {node_sum}, \
             node-leader comm = {:?}, clock = {:.3} ms",
            leaders,
            t * 1e3
        );
    }
    println!("\nmodelled makespan: {:.3} ms", report.makespan * 1e3);
    println!("messages: {} ({} bytes)", report.messages, report.bytes);
    println!("\ntraffic by phase (telemetry enabled):");
    for p in &report.telemetry.expect("telemetry enabled").phases {
        println!(
            "  {:12} {:>5} messages, {:>5} inter-node, {:>8} bytes",
            p.name, p.messages, p.internode_messages, p.bytes
        );
    }
}
