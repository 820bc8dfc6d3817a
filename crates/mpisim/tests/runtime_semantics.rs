//! Integration tests: world execution semantics — panic propagation,
//! virtual clocks, memory budgets, point-to-point ordering.

use mpisim::{Communicator, ComputeModel, FaultSpec, NetModel, World};

#[test]
fn results_in_rank_order() {
    let report = World::new(8)
        .net(NetModel::zero())
        .run(|comm| comm.rank() * 2);
    assert_eq!(report.results, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    assert_eq!(report.per_rank_time.len(), 8);
}

#[test]
fn p2p_fifo_between_pair() {
    let report = World::new(2).net(NetModel::zero()).run(|comm| {
        if comm.rank() == 0 {
            for i in 0..10u32 {
                comm.send_val(1, 7, i);
            }
            Vec::new()
        } else {
            (0..10)
                .map(|_| comm.recv_val::<u32>(0, 7))
                .collect::<Vec<_>>()
        }
    });
    assert_eq!(report.results[1], (0..10).collect::<Vec<u32>>());
}

#[test]
fn tags_demultiplex() {
    let report = World::new(2).net(NetModel::zero()).run(|comm| {
        if comm.rank() == 0 {
            comm.send_val(1, 1, 10u32);
            comm.send_val(1, 2, 20u32);
            (0, 0)
        } else {
            // receive in reverse tag order: matching must be by tag
            let b = comm.recv_val::<u32>(0, 2);
            let a = comm.recv_val::<u32>(0, 1);
            (a, b)
        }
    });
    assert_eq!(report.results[1], (10, 20));
}

#[test]
#[should_panic(expected = "deliberate rank failure")]
fn rank_panic_propagates() {
    World::new(4).net(NetModel::zero()).run(|comm| {
        if comm.rank() == 2 {
            panic!("deliberate rank failure");
        }
        // Other ranks block on a message that never comes; the abort
        // machinery must wake them rather than deadlock.
        let _: Vec<u8> = comm.recv_vec(2, 99);
    });
}

#[test]
fn virtual_clock_advances_with_messages() {
    let report = World::new(2)
        .cores_per_node(1)
        .net(NetModel::edison())
        .run(|comm| {
            if comm.rank() == 0 {
                comm.send_vec(1, 0, vec![0u8; 1 << 20]);
            } else {
                let _: Vec<u8> = comm.recv_vec(0, 0);
            }
            comm.clock().now()
        });
    // Receiver clock must be at least latency + bytes/bw ≈ 131 µs.
    let expect_min = 1e-4;
    assert!(
        report.results[1] > expect_min,
        "receiver clock {} too small",
        report.results[1]
    );
    assert!(report.makespan >= report.results[1]);
}

#[test]
fn barrier_synchronizes_clocks() {
    let report = World::new(4).net(NetModel::edison()).run(|comm| {
        if comm.rank() == 0 {
            comm.clock().charge(1.0); // one slow rank
        }
        comm.barrier();
        comm.clock().now()
    });
    for t in report.results {
        assert!(
            t >= 1.0,
            "barrier must propagate the slowest clock, got {t}"
        );
    }
}

#[test]
fn charged_compute_contributes_to_makespan() {
    let report = World::new(3).net(NetModel::zero()).run(|comm| {
        comm.clock().charge(0.5 * (comm.rank() + 1) as f64);
    });
    assert!((report.makespan - 1.5).abs() < 1e-9);
}

/// Compute reaches the clock only as the model's price: `compute_with`
/// charges exactly `cost(&nominal())`, times a slowed rank's factor,
/// and `compute` charges nothing however long its closure runs.
#[test]
fn compute_with_charges_the_nominal_price_and_compute_charges_nothing() {
    let spec = FaultSpec {
        slow_every: 2,
        slow_factor: 3.0,
        ..FaultSpec::none()
    };
    let report = World::new(3).faults(spec).run(|comm| {
        let t0 = comm.now();
        let busy: u64 = comm.compute(|| (0..200_000u64).map(std::hint::black_box).sum());
        let after_compute = comm.now();
        let v = comm.compute_with(|m| m.sort_cost(1 << 16), || busy.wrapping_mul(3));
        (after_compute - t0, comm.now() - after_compute, v)
    });
    let price = ComputeModel::nominal().sort_cost(1 << 16);
    assert!(price > 0.0);
    for (rank, &(computed, charged, v)) in report.results.iter().enumerate() {
        assert_eq!(
            computed, 0.0,
            "rank {rank}: compute(f) books no virtual time"
        );
        let factor = if rank % 2 == 0 { 3.0 } else { 1.0 };
        assert_eq!(charged, price * factor, "rank {rank}");
        assert_eq!(v, (0..200_000u64).sum::<u64>().wrapping_mul(3));
    }
}

#[test]
fn memory_budget_enforced() {
    let report = World::new(2)
        .net(NetModel::zero())
        .memory_budget(1000)
        .run(|comm| {
            let first = comm.try_alloc(800);
            let second = comm.try_alloc(800);
            if first.is_ok() {
                comm.free(800);
            }
            (first.is_ok(), second.is_ok())
        });
    for (a, b) in report.results {
        assert!(a);
        assert!(!b, "second allocation must exceed the budget");
    }
    assert!(report.memory.max_high_water >= 800);
}

#[test]
fn message_stats_counted() {
    let report = World::new(2).net(NetModel::zero()).run(|comm| {
        if comm.rank() == 0 {
            comm.send_vec(1, 0, vec![0u64; 100]);
        } else {
            let _: Vec<u64> = comm.recv_vec(0, 0);
        }
    });
    assert_eq!(report.messages, 1);
    assert_eq!(report.bytes, 800);
}

#[test]
fn intra_node_messages_cheaper_in_model() {
    let run = |cores: usize| {
        World::new(2)
            .cores_per_node(cores)
            .net(NetModel::edison())
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send_vec(1, 0, vec![0u8; 1 << 22]);
                } else {
                    let _: Vec<u8> = comm.recv_vec(0, 0);
                }
            })
            .makespan
    };
    let same_node = run(2); // both ranks on node 0
    let diff_node = run(1); // one rank per node
    assert!(
        same_node < diff_node,
        "intra-node {same_node} should be cheaper than inter-node {diff_node}"
    );
}

#[test]
fn tracing_captures_phased_traffic() {
    let report = World::new(4)
        .cores_per_node(2)
        .net(NetModel::zero())
        .telemetry(true)
        .run(|comm| {
            let warmup = comm.span_begin("warmup", comm.now());
            comm.send_val((comm.rank() + 1) % 4, 1, 1u8);
            let _: u8 = comm.recv_val((comm.rank() + 3) % 4, 1);
            comm.span_end(warmup, comm.now());
            // No barrier: a send belongs to its sender's phase, so a fast
            // rank entering "bulk" cannot claim a slow rank's warmup send.
            let bulk = comm.span_begin("bulk", comm.now());
            let counts = vec![2usize; 4];
            let data = vec![comm.rank() as u64; 8];
            comm.alltoallv(&data, &counts);
            comm.span_end(bulk, comm.now());
        });
    let phases = report.telemetry.expect("telemetry enabled").phases;
    let got: Vec<_> = phases
        .iter()
        .map(|p| {
            let inter = (p.internode_messages, p.internode_bytes);
            (p.name.as_str(), p.messages, p.bytes, inter)
        })
        .collect();
    // warmup: one 1-byte ring message per rank, 1→2 and 3→0 cross nodes.
    // bulk: per ordered pair one 8-byte count and one 2×u64 chunk; each
    // rank has two peers on the other node.
    let want = [
        ("warmup", 4, 4, (2, 2)),
        ("bulk", 12 + 12, 12 * 8 + 12 * 16, (8 + 8, 8 * 8 + 8 * 16)),
    ];
    assert_eq!(got, want);
    assert_eq!((report.messages, report.bytes), (28, 292));
}

#[test]
fn tracing_disabled_by_default() {
    let report = World::new(2).net(NetModel::zero()).run(|comm| {
        comm.span_begin("ping", comm.now());
        if comm.rank() == 0 {
            comm.send_val(1, 0, 1u8);
        } else {
            let _: u8 = comm.recv_val(0, 0);
        }
    });
    assert!(report.telemetry.is_none());
    // The totals are counted whether or not anything is recorded.
    assert_eq!((report.messages, report.bytes), (1, 1));
}
