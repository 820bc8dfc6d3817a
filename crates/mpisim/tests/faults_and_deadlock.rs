//! Regressions for the exchange/collective edge-case fixes and coverage of
//! the fault-injection + deadlock-detection layer.
//!
//! The first three tests reproduce bugs that existed before this layer:
//! user tags colliding with the collective tag space (silently stealing
//! in-flight async-exchange chunks), and a busy-polling `wait_any`
//! charging unbounded schedule-dependent virtual time while idle.

use mpisim::{AsyncExchange, Comm, Communicator, DeadlockError, FaultSpec, NetModel, World};
use std::time::Duration;

// ---- user-tag / collective-tag isolation ------------------------------

#[test]
#[should_panic(expected = "outside the user tag space")]
fn send_at_tag_boundary_is_rejected() {
    World::new(1).net(NetModel::zero()).run(|comm| {
        // Exactly MAX_USER_TAG: the first tag a collective can own. Before
        // the guard this message could be matched by an in-flight
        // collective's any-source receive and corrupt it silently.
        comm.send_vec(0, Comm::MAX_USER_TAG, vec![1u8]);
    });
}

#[test]
#[should_panic(expected = "outside the user tag space")]
fn recv_at_collective_tag_is_rejected() {
    World::new(1).net(NetModel::zero()).run(|comm| {
        let _ = comm.recv_vec::<u8>(0, Comm::MAX_USER_TAG + 5);
    });
}

#[test]
fn max_legal_user_tag_works() {
    let report = World::new(2).net(NetModel::zero()).run(|comm| {
        let tag = Comm::MAX_USER_TAG - 1;
        if comm.rank() == 0 {
            comm.send_vec(1, tag, vec![42u8]);
            0
        } else {
            comm.recv_vec::<u8>(0, tag)[0]
        }
    });
    assert_eq!(report.results, vec![0, 42]);
}

// ---- wait_any idle-time accounting ------------------------------------

#[test]
fn wait_any_does_not_charge_while_idle() {
    // The sender wall-sleeps before posting its chunk. A wait_any that
    // busy-polled MPI_Test sweeps during that window would charge
    // async_test_overhead per sweep — virtual time would grow with *wall*
    // time and thread scheduling. The blocking wait charges exactly one
    // sweep. Counts are given (the sorters' exchange path), so the idle
    // window falls inside wait_any, not inside a count exchange.
    let report = World::new(2).net(NetModel::edison()).run(|comm| {
        let me = comm.rank();
        if me == 1 {
            std::thread::sleep(Duration::from_millis(80));
        }
        // One key to the peer, nothing to self.
        let counts = [usize::from(me == 1), usize::from(me == 0)];
        let mut pending = comm.alltoallv_async_given_counts(&[7u64], &counts, counts.to_vec());
        assert_eq!(pending.wait_any(comm), Some((1 - me, vec![7])));
        comm.clock().now()
    });
    // One test sweep (5e-8 s on the edison model) plus the message cost —
    // microseconds. 80 ms of busy-poll sweeps would exceed this by orders
    // of magnitude.
    assert!(
        report.results[0] < 1e-4,
        "receiver idle-charged {} virtual seconds",
        report.results[0]
    );
}

// ---- deadlock detection ------------------------------------------------

fn expect_deadlock(world: World, f: impl Fn(&mut Comm) + Send + Sync) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.run(|comm| f(comm));
    }))
    .expect_err("run must deadlock");
    match err.downcast::<DeadlockError>() {
        Ok(e) => e.report,
        Err(other) => panic!("expected DeadlockError, got {other:?}"),
    }
}

#[test]
fn silent_deadlock_becomes_diagnostic_report() {
    let report = expect_deadlock(World::new(3).net(NetModel::zero()), |comm| {
        comm.span_begin("exchange", comm.now());
        // Everyone waits for a message nobody sends.
        let peer = (comm.rank() + 1) % comm.size();
        let _ = comm.recv_vec::<u8>(peer, 9);
    });
    for r in 0..3 {
        assert!(
            report.contains(&format!("rank {r}")),
            "report names rank {r}:\n{report}"
        );
    }
    assert!(
        report.contains("user tag 9"),
        "report decodes the tag:\n{report}"
    );
    assert!(
        report.contains("exchange"),
        "report names the last phase:\n{report}"
    );
    assert!(report.contains("no message progress"), "{report}");
}

#[test]
fn deadlock_detected_when_one_rank_exits_early() {
    // Rank 2 returns without joining the barrier: a mismatched collective.
    // A finished rank makes no further progress, so the others are provably
    // stuck — the detector must fire rather than hang.
    let report = expect_deadlock(World::new(3).net(NetModel::zero()), |comm| {
        if comm.rank() != 2 {
            comm.barrier();
        }
    });
    assert!(
        report.contains("collective #"),
        "barrier wait decodes as a collective tag:\n{report}"
    );
    assert!(
        report.contains("finished"),
        "the exited rank is identified:\n{report}"
    );
}

#[test]
fn no_false_positive_under_load() {
    // A healthy all-to-all in which one rank sleeps 300 ms of host time
    // mid-round while its peers wait on it: a busy rank can still send, so
    // the detector must stay silent however long the others wait.
    let report = World::new(4).net(NetModel::edison()).run(|comm| {
        let p = comm.size();
        let me = comm.rank();
        for round in 0..20u64 {
            let data: Vec<u64> = (0..p).map(|d| me as u64 * 100 + d as u64 + round).collect();
            if me == 3 && round == 10 {
                std::thread::sleep(Duration::from_millis(300));
            }
            let got = comm.alltoall(&data);
            assert_eq!(got.len(), p);
            comm.barrier();
        }
        1u8
    });
    assert_eq!(report.results, vec![1; 4]);
}

#[test]
fn async_exchange_missing_a_chunk_is_a_deadlock() {
    // Rank 1 never posts its half of the exchange: rank 0 waits for a
    // chunk that cannot come, and the run must end in a report naming the
    // waiting rank rather than hang.
    let report = expect_deadlock(World::new(2).net(NetModel::zero()), |comm| {
        comm.span_begin("exchange", comm.now());
        if comm.rank() == 0 {
            let mut pending = comm.alltoallv_async_given_counts(&[5u64], &[1, 0], vec![1, 1]);
            while pending.wait_any(comm).is_some() {}
        }
    });
    assert!(
        report.contains("rank 0: waiting on ctx 0 for collective #0 round 0 from world rank 1"),
        "report names the waiting rank and its missing source:\n{report}"
    );
    assert!(
        report.contains("rank 1: not blocked in a receive (finished)"),
        "{report}"
    );
    assert!(report.contains("last phase: exchange"), "{report}");
}

#[test]
fn deadlock_report_names_every_missing_source() {
    // Ranks 1 and 2 never post their chunks: rank 0's set receive waits on
    // both, and the report must list them both.
    let report = expect_deadlock(World::new(3).net(NetModel::zero()), |comm| {
        if comm.rank() == 0 {
            let mut pending = comm.alltoallv_async_given_counts(&[5u64], &[1, 0, 0], vec![1, 1, 1]);
            while pending.wait_any(comm).is_some() {}
        }
    });
    assert!(
        report
            .contains("rank 0: waiting on ctx 0 for collective #0 round 0 from world ranks [1, 2]"),
        "report names both missing sources:\n{report}"
    );
}

// ---- fault injection at the mpisim level -------------------------------

#[test]
fn faulted_collectives_still_correct() {
    let spec = FaultSpec::parse("seed=21,delay=0.5:1e-4,stall=1:0.2:1e-4,sendbuf=0.3:2:1e-5")
        .expect("spec");
    let report = World::new(5)
        .net(NetModel::edison())
        .faults(spec)
        .run(|comm| {
            let p = comm.size();
            let me = comm.rank();
            // allreduce + alltoallv under heavy message faults
            let sum = comm.allreduce(me as u64, |a, b| a + b);
            assert_eq!(sum as usize, p * (p - 1) / 2);
            let counts = vec![2usize; p];
            let data: Vec<u64> = (0..p).flat_map(|d| vec![(me * 10 + d) as u64; 2]).collect();
            let (got, rcounts) = comm.alltoallv(&data, &counts);
            let expect: Vec<u64> = (0..p).flat_map(|s| vec![(s * 10 + me) as u64; 2]).collect();
            assert_eq!(got, expect, "per-source chunks survive message faults");
            assert_eq!(rcounts, vec![2; p]);
            comm.barrier();
            1u8
        });
    assert_eq!(report.results, vec![1; 5]);
}

#[test]
fn fault_clocks_are_deterministic() {
    let spec = FaultSpec::parse("seed=33,delay=0.6:2e-4,stall=2:0.4:1e-4,sendbuf=0.4:3:2e-5")
        .expect("spec");
    let run = || {
        World::new(4)
            .net(NetModel::edison())
            .faults(spec)
            .run(|comm| {
                let p = comm.size();
                let me = comm.rank();
                for _ in 0..5 {
                    let data: Vec<u64> = (0..p).map(|d| (me + d) as u64).collect();
                    let _ = comm.alltoall(&data);
                }
                comm.clock().now().to_bits()
            })
            .results
    };
    assert_eq!(run(), run(), "same seed, same program → identical clocks");
}

#[test]
fn faults_inflate_virtual_time_but_not_wall_behaviour() {
    let clean = World::new(4).net(NetModel::edison()).run(|comm| {
        let p = comm.size();
        let data: Vec<u64> = (0..p).map(|d| d as u64).collect();
        for _ in 0..5 {
            let _ = comm.alltoall(&data);
        }
        comm.clock().now()
    });
    let spec = FaultSpec::parse("seed=1,delay=1.0:1e-3").expect("spec");
    let faulted = World::new(4)
        .net(NetModel::edison())
        .faults(spec)
        .run(|comm| {
            let p = comm.size();
            let data: Vec<u64> = (0..p).map(|d| d as u64).collect();
            for _ in 0..5 {
                let _ = comm.alltoall(&data);
            }
            comm.clock().now()
        });
    let clean_max = clean.results.iter().copied().fold(0.0f64, f64::max);
    let faulted_max = faulted.results.iter().copied().fold(0.0f64, f64::max);
    assert!(
        faulted_max > clean_max,
        "always-on delay must show up in virtual time"
    );
    // Bound: every message can gain at most delay_max_s.
    let bound = clean_max + faulted.messages as f64 * 1e-3 + 1e-6;
    assert!(faulted_max <= bound, "{faulted_max} > {bound}");
}
