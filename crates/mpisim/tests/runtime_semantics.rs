//! Integration tests: world execution semantics — panic propagation,
//! virtual clocks, memory budgets, point-to-point ordering.

use mpisim::{Communicator, NetModel, World};

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
    let report = World::new(4)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .run(|comm| {
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
    assert!(report.max_memory_high_water >= 800);
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
            .compute_scale(0.0)
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
        .trace(true)
        .run(|comm| {
            comm.trace_phase("warmup");
            comm.send_val((comm.rank() + 1) % 4, 1, 1u8);
            let _: u8 = comm.recv_val((comm.rank() + 3) % 4, 1);
            // Phases are world-global: without a barrier a fast rank could flip
            // the phase before a slow rank's warmup send is recorded.
            comm.barrier();
            comm.trace_phase("bulk");
            let counts = vec![2usize; 4];
            let data = vec![comm.rank() as u64; 8];
            comm.alltoallv(&data, &counts);
        });
    let phases: Vec<&str> = report
        .trace_phases
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(phases, vec!["warmup", "bulk"]);
    let warmup = &report.trace_phases[0].1;
    assert!(
        warmup.total_messages() >= 4,
        "one ring message per rank plus barrier traffic"
    );
    let bulk = &report.trace_phases[1].1;
    // alltoallv: per rank, 1 count msg to 3 peers + 3 data msgs = 24 total
    assert!(bulk.total_messages() >= 24);
    assert!(bulk.total_bytes() > warmup.total_bytes());
    // intra-node pairs exist with 2 cores/node
    assert!(bulk.internode_messages(&report.topology) < bulk.total_messages());
}

#[test]
fn tracing_disabled_by_default() {
    let report = World::new(2).net(NetModel::zero()).run(|comm| {
        if comm.rank() == 0 {
            comm.send_val(1, 0, 1u8);
        } else {
            let _: u8 = comm.recv_val(0, 0);
        }
    });
    assert!(report.trace_phases.is_empty());
}
