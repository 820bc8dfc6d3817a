//! End-to-end sockets worlds: real rank processes over Unix-domain sockets
//! and TCP, exercising rendezvous, the shared collectives, communicator
//! splits, the async self-first exchange, and — critically — peer-death
//! detection (a rank killed mid-collective must become a diagnostic naming
//! the dead rank, never a hang).
//!
//! `harness = false`: the binary re-execs itself as the rank processes, so
//! `main` must reach the `child_rank` calls before any test logic runs.
//! The default `SocketWorld` child arguments (the parent's own argv) are
//! exactly right for this shape.

use comm::{AsyncExchange, Communicator};
use sockcomm::{child_rank, SockComm, SockError, SocketWorld, Transport};
use std::time::{Duration, Instant};

const P: usize = 4;

// ---- entry functions (run inside rank processes) -------------------------

fn hello_entry(comm: &SockComm, base: u64) -> u64 {
    comm.barrier();
    let ranks = comm.allgather(&[comm.rank() as u64]);
    assert_eq!(ranks, (0..comm.size() as u64).collect::<Vec<_>>());
    let token = comm.bcast(0, (comm.rank() == 0).then(|| vec![base]));
    let gathered = comm.gatherv(1, &[comm.rank() as u64 * 10]);
    if comm.rank() == 1 {
        let got: Vec<u64> = gathered.expect("rank 1 is the root").concat();
        assert_eq!(got, vec![0, 10, 20, 30]);
    } else {
        assert!(gathered.is_none());
    }
    token[0] + comm.rank() as u64
}

/// Records rank `src` sends to rank `dst` in the exchange entry.
fn chunk(src: usize, dst: usize) -> Vec<u64> {
    let count = (src + dst) % 3 + 1;
    (0..count)
        .map(|j| (src as u64) * 1_000_000 + (dst as u64) * 1_000 + j as u64)
        .collect()
}

/// What rank `me` in a world of `p` should end up holding, summed.
fn expected_exchange_sum(me: usize, p: usize) -> u64 {
    (0..p).flat_map(|src| chunk(src, me)).sum()
}

fn exchange_entry(comm: &SockComm, _seed: u64) -> u64 {
    let (me, p) = (comm.rank(), comm.size());
    let mut data = Vec::new();
    let mut send_counts = Vec::with_capacity(p);
    for dst in 0..p {
        let c = chunk(me, dst);
        send_counts.push(c.len());
        data.extend(c);
    }

    // Synchronous path: arrival is concatenated in source order.
    let (sync_recv, recv_counts) = comm.alltoallv(&data, &send_counts);
    let expected_flat: Vec<u64> = (0..p).flat_map(|src| chunk(src, me)).collect();
    assert_eq!(
        sync_recv, expected_flat,
        "rank {me}: sync exchange mismatch"
    );

    // Async self-first path: same bytes, chunk by chunk.
    let mut pending = comm.alltoallv_async_given_counts(&data, &send_counts, recv_counts);
    let mut sources_seen = vec![false; p];
    let mut first = true;
    while let Some((src, part)) = pending.wait_any(comm) {
        if first {
            assert_eq!(src, me, "self chunk must be delivered first");
            first = false;
        }
        assert!(!sources_seen[src], "duplicate chunk from {src}");
        sources_seen[src] = true;
        assert_eq!(part, chunk(src, me), "rank {me}: bad chunk from {src}");
    }
    assert!(
        sources_seen.iter().all(|&s| s),
        "missing chunks on rank {me}"
    );
    assert_eq!(pending.remaining(), 0);

    sync_recv.iter().sum()
}

fn split_entry(comm: &SockComm, _seed: u64) -> u64 {
    let (me, p) = (comm.rank(), comm.size());
    // Even/odd halves; within a half, keep world order.
    let color = (me % 2) as i64;
    let half = comm
        .split(Some(color), me as i64)
        .expect("everyone passed a color");
    assert_eq!(half.size(), p / 2);
    assert_eq!(half.rank(), me / 2);
    half.barrier();
    // The half's rank 0 is the lowest world rank of that parity = color.
    let root_world = half.bcast(0, (half.rank() == 0).then(|| vec![me as u64]));
    assert_eq!(root_world[0], color as u64);

    // A second split: rank p-1 sits out, the rest reverse their order via
    // negative keys. Exercises `None` colors and key-based reordering.
    let sub = comm.split((me != p - 1).then_some(7), -(me as i64));
    match sub {
        None => assert_eq!(me, p - 1),
        Some(sub) => {
            assert_eq!(sub.size(), p - 1);
            assert_eq!(sub.rank(), p - 2 - me, "negative keys reverse order");
            let top = sub.bcast(0, (sub.rank() == 0).then(|| vec![me as u64]));
            assert_eq!(top[0], (p - 2) as u64);
        }
    }
    comm.barrier();
    me as u64
}

fn die_entry(comm: &SockComm, _seed: u64) -> u64 {
    let (me, p) = (comm.rank(), comm.size());
    comm.barrier(); // mesh fully up before anyone dies
    if me == 2 {
        // Simulates a crash/kill: the process vanishes without goodbye,
        // mid-protocol; peers see raw EOF / connection resets.
        std::process::exit(42);
    }
    let data = vec![me as u64; p * 8];
    let counts = vec![8usize; p];
    let (recv, _) = comm.alltoallv(&data, &counts); // can never complete
    recv.len() as u64
}

// ---- parent-side tests ---------------------------------------------------

fn test_hello_uds() {
    let report = SocketWorld::new(P)
        .run::<u64, u64>("hello", &100)
        .expect("uds world");
    assert_eq!(report.results, vec![100, 101, 102, 103]);
    assert!(report.messages > 0, "collectives must move real messages");
    assert!(report.bytes > 0);
    assert_eq!(report.per_rank_wall.len(), P);
}

fn test_hello_tcp() {
    let report = SocketWorld::new(P)
        .transport(Transport::Tcp)
        .run::<u64, u64>("hello", &500)
        .expect("tcp world");
    assert_eq!(report.results, vec![500, 501, 502, 503]);
    assert!(report.messages > 0, "collectives must move real messages");
    assert!(report.bytes > 0);
    assert_eq!(report.per_rank_wall.len(), P);
}

fn test_exchange_uds() {
    let report = SocketWorld::new(P)
        .run::<u64, u64>("exchange", &0)
        .expect("exchange world");
    let expected: Vec<u64> = (0..P).map(|r| expected_exchange_sum(r, P)).collect();
    assert_eq!(report.results, expected);
}

fn test_split_worlds() {
    let report = SocketWorld::new(P)
        .run::<u64, u64>("split", &0)
        .expect("split world");
    assert_eq!(report.results, vec![0, 1, 2, 3]);
}

fn test_peer_death_is_named_not_hung() {
    let start = Instant::now();
    let err = SocketWorld::new(P)
        .launch_timeout(Duration::from_secs(30))
        .run::<u64, u64>("die", &0)
        .expect_err("a dead rank must fail the world");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(20),
        "peer death took {elapsed:?} to surface — that is a hang, not detection"
    );
    match &err {
        SockError::PeerDeath { dead, detail } => {
            assert_eq!(
                *dead, 2,
                "diagnostic must name the rank that died: {detail}"
            );
        }
        other => panic!("expected PeerDeath, got: {other}"),
    }
    assert!(
        err.to_string().contains("rank 2"),
        "rendered diagnostic must name rank 2: {err}"
    );
}

fn main() {
    // Rank processes divert here and never return.
    child_rank("hello", hello_entry);
    child_rank("exchange", exchange_entry);
    child_rank("split", split_entry);
    child_rank("die", die_entry);

    let tests: &[(&str, fn())] = &[
        ("hello_world_uds", test_hello_uds),
        ("hello_world_tcp", test_hello_tcp),
        ("async_exchange_uds", test_exchange_uds),
        ("split_worlds", test_split_worlds),
        (
            "peer_death_is_named_not_hung",
            test_peer_death_is_named_not_hung,
        ),
    ];
    println!("\nrunning {} tests", tests.len());
    let mut failed = 0;
    for (name, test) in tests {
        match std::panic::catch_unwind(test) {
            Ok(()) => println!("test {name} ... ok"),
            Err(_) => {
                failed += 1;
                println!("test {name} ... FAILED");
            }
        }
    }
    if failed > 0 {
        println!("\ntest result: FAILED. {failed} failed");
        std::process::exit(1);
    }
    println!("\ntest result: ok. {} passed\n", tests.len());
}
