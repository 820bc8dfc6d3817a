//! End-to-end tests of the happens-before determinism/race checker: racy
//! programs raise [`RaceError`] from `World::run`, causally sound programs
//! (including every pattern the tier-1 suite relies on) run clean with
//! checking enabled.

use mpisim::{AsyncExchange, Communicator, NetModel, RaceError, World};
use std::panic::{catch_unwind, AssertUnwindSafe};

const DATA_TAG: u64 = 5;
const GO_TAG: u64 = 6;
const READY_TAG: u64 = 7;

/// Run a world and return the checker's report, panicking if the closure
/// failed for any other reason.
fn race_report<R, F>(world: World, f: F) -> Option<String>
where
    R: Send,
    F: Fn(&mut mpisim::Comm) -> R + Send + Sync,
{
    match catch_unwind(AssertUnwindSafe(|| world.run(f))) {
        Ok(_) => None,
        Err(payload) => match payload.downcast::<RaceError>() {
            Ok(e) => Some(e.report),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[test]
fn racy_wildcard_receive_is_flagged() {
    // Ranks 1 and 2 race their sends to rank 0's any-source receives:
    // whichever thread runs first gets matched first, so the (src, value)
    // attribution differs run to run. The checker must flag it no matter
    // which interleaving the scheduler picks.
    let world = World::new(3).net(NetModel::zero()).check(true);
    let report = race_report(world, |comm| {
        comm.trace_phase("gather-results");
        if comm.rank() == 0 {
            let mut got = Vec::new();
            for _ in 0..2 {
                let (src, v) = comm.recv_any::<u64>(DATA_TAG);
                got.push((src, v));
            }
            got
        } else {
            comm.send_val(0, DATA_TAG, comm.rank() as u64 * 100);
            Vec::new()
        }
    });
    let report = report.expect("racy wildcard receive must raise RaceError");
    assert!(
        report.contains("wildcard-receive nondeterminism"),
        "unexpected report:\n{report}"
    );
    assert!(
        report.contains("user tag 5"),
        "tag must be decoded:\n{report}"
    );
    assert!(
        report.contains("gather-results"),
        "phase must be named:\n{report}"
    );
}

#[test]
fn causally_chained_wildcard_is_clean() {
    // Same two senders and the same any-source receives, but rank 2 only
    // sends after rank 0 tells it the first receive completed — every
    // wildcard match has exactly one possible source, so no race exists.
    let world = World::new(3).net(NetModel::zero()).check(true);
    let report = race_report(world, |comm| match comm.rank() {
        0 => {
            let (src, _) = comm.recv_any::<u64>(DATA_TAG);
            assert_eq!(src, 1, "only rank 1 has sent at this point");
            comm.send_val(2, GO_TAG, 1u8);
            let (src, _) = comm.recv_any::<u64>(DATA_TAG);
            assert_eq!(src, 2);
        }
        1 => comm.send_val(0, DATA_TAG, 100u64),
        _ => {
            let _: u8 = comm.recv_val(0, GO_TAG);
            comm.send_val(0, DATA_TAG, 200u64);
        }
    });
    assert_eq!(report, None, "causally ordered wildcards are deterministic");
}

#[test]
fn tag_reuse_in_flight_is_flagged() {
    // Rank 1 puts TWO messages on the same tag in flight, then signals
    // readiness on a different tag; rank 0 waits for the signal before doing
    // any-source receives, so both data envelopes are deterministically in
    // flight when the wildcard matches — tag reuse the receiver cannot
    // attribute.
    let world = World::new(2).net(NetModel::zero()).check(true);
    let report = race_report(world, |comm| {
        if comm.rank() == 0 {
            let _: u8 = comm.recv_val(1, READY_TAG);
            let (_, a) = comm.recv_any::<u64>(DATA_TAG);
            let (_, b) = comm.recv_any::<u64>(DATA_TAG);
            (a[0], b[0])
        } else {
            comm.send_val(0, DATA_TAG, 1u64);
            comm.send_val(0, DATA_TAG, 2u64);
            comm.send_val(0, READY_TAG, 1u8);
            (0, 0)
        }
    });
    let report = report.expect("tag reuse under wildcard matching must raise RaceError");
    assert!(
        report.contains("tag reuse in flight"),
        "unexpected report:\n{report}"
    );
}

#[test]
fn barrier_ordered_wildcards_are_clean() {
    // The collective edge (barrier is built on sends/receives, which the
    // checker tracks) orders rank 0's first any-source receive before rank
    // 2's send: without the barrier that send would race with it.
    let world = World::new(4).net(NetModel::zero()).check(true);
    let report = race_report(world, |comm| {
        match comm.rank() {
            0 => assert_eq!(comm.recv_any::<u64>(DATA_TAG).0, 1),
            1 => comm.send_val(0, DATA_TAG, 100u64),
            _ => {}
        }
        comm.barrier();
        match comm.rank() {
            0 => assert_eq!(comm.recv_any::<u64>(DATA_TAG).0, 2),
            2 => comm.send_val(0, DATA_TAG, 200u64),
            _ => {}
        }
    });
    assert_eq!(report, None, "barrier creates the happens-before edge");
}

#[test]
fn tier1_collective_patterns_run_clean_under_check() {
    // The communication patterns the sorting pipeline relies on —
    // collectives, splits, node-local communicators, the async alltoallv —
    // must all be race-free under the checker.
    let world = World::new(8)
        .cores_per_node(4)
        .net(NetModel::zero())
        .check(true);
    let report = race_report(world, |comm| {
        let rank = comm.rank() as u64;
        let sum = comm.allreduce(rank, |a, b| a + b);
        let _ = comm.exscan(1u64, |a, b| a + b);
        let gathered = comm.allgather(&[rank]);
        assert_eq!(gathered.len(), comm.size());
        let (_, node_comm) = comm.refine_comm();
        let _ = node_comm.allreduce(rank, |a, b| a + b);

        // Async alltoallv: every rank sends a chunk to every rank on one
        // tag. Order-insensitive by protocol, so it must NOT be flagged.
        let data: Vec<u64> = (0..comm.size() as u64 * 2).collect();
        let send_counts = vec![2usize; comm.size()];
        let mut pending = comm.alltoallv_async(&data, &send_counts);
        let mut seen = 0;
        while let Some((_, _chunk)) = pending.wait_any(comm) {
            seen += 1;
        }
        assert_eq!(seen, comm.size());
        comm.barrier();
        sum
    });
    assert_eq!(report, None, "tier-1 patterns must be clean under checking");
}

#[test]
fn checker_off_by_default_ignores_races() {
    // Without .check(true) (and without the `check` feature) the same racy
    // program completes: the checker is opt-in and zero-cost when off.
    if cfg!(feature = "check") {
        return; // feature flips the default on; the racy run would (rightly) panic
    }
    let report = World::new(3).net(NetModel::zero()).run(|comm| {
        if comm.rank() == 0 {
            let mut got = 0;
            for _ in 0..2 {
                got += comm.recv_any::<u64>(DATA_TAG).1[0];
            }
            got
        } else {
            comm.send_val(0, DATA_TAG, comm.rank() as u64);
            0
        }
    });
    assert_eq!(report.results[0], 3);
}
