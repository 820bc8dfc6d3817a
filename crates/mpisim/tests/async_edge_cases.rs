//! Edge-case regressions for the asynchronous all-to-all: empty self
//! chunks, single-rank worlds, all-empty counts, sparse patterns, and
//! handles interleaved with collectives.
use mpisim::{AsyncExchange, Communicator, NetModel, World};
use std::time::Duration;

#[test]
fn single_rank_nonempty() {
    let report = World::new(1).net(NetModel::edison()).run(|comm| {
        let data = vec![3u64, 1, 2];
        let mut h = comm.alltoallv_async(&data, &[3]);
        assert_eq!(h.remaining(), 1);
        assert_eq!(h.total_recv(), 3);
        let got = h.wait_any(comm);
        assert_eq!(got, Some((0, vec![3u64, 1, 2])));
        assert_eq!(h.remaining(), 0);
        assert!(h.wait_any(comm).is_none());
        0u8
    });
    drop(report);
}

#[test]
fn single_rank_empty() {
    World::new(1).net(NetModel::edison()).run(|comm| {
        let data: Vec<u64> = Vec::new();
        let mut h = comm.alltoallv_async(&data, &[0]);
        assert_eq!(h.remaining(), 0);
        assert!(h.wait_any(comm).is_none());
        0u8
    });
}

#[test]
fn all_empty_counts() {
    World::new(4).net(NetModel::edison()).run(|comm| {
        let p = comm.size();
        let data: Vec<u64> = Vec::new();
        let mut h = comm.alltoallv_async(&data, &vec![0; p]);
        assert_eq!(h.remaining(), 0, "nothing pending when all counts zero");
        assert!(h.wait_any(comm).is_none());
        // comm must remain usable afterwards
        comm.barrier();
        comm.allreduce(1u64, |a, b| a + b)
    });
}

#[test]
fn empty_self_remotes_pending() {
    let report = World::new(4).net(NetModel::edison()).run(|comm| {
        let p = comm.size();
        let me = comm.rank();
        // everyone sends 2 records to every OTHER rank, nothing to self
        let mut counts = vec![2usize; p];
        counts[me] = 0;
        let data: Vec<u64> = (0..p)
            .filter(|&d| d != me)
            .flat_map(|d| vec![(me * 10 + d) as u64; 2])
            .collect();
        let mut h = comm.alltoallv_async(&data, &counts);
        assert_eq!(h.remaining(), p - 1);
        let mut got = Vec::new();
        while let Some((src, chunk)) = h.wait_any(comm) {
            assert_ne!(src, me, "self chunk is empty; must not be delivered");
            assert_eq!(chunk, vec![(src * 10 + me) as u64; 2]);
            got.push(src);
        }
        assert_eq!(h.remaining(), 0);
        got.sort_unstable();
        let expect: Vec<usize> = (0..p).filter(|&s| s != me).collect();
        assert_eq!(got, expect);
        0u8
    });
    drop(report);
}

#[test]
fn empty_remote_mixed() {
    // Sparse pattern: rank r sends only to (r+1)%p and itself.
    World::new(4).net(NetModel::edison()).run(|comm| {
        let p = comm.size();
        let me = comm.rank();
        let nxt = (me + 1) % p;
        let mut counts = vec![0usize; p];
        counts[me] = 1;
        counts[nxt] = 3;
        let mut data = Vec::new();
        for (dst, &c) in counts.iter().enumerate() {
            data.extend(std::iter::repeat_n((me * 100 + dst) as u64, c));
        }
        let mut h = comm.alltoallv_async(&data, &counts);
        // expect: self chunk (1) + one remote from (me+p-1)%p (3)
        assert_eq!(h.remaining(), 2);
        let mut from = Vec::new();
        while let Some((src, chunk)) = h.wait_any(comm) {
            if src == me {
                assert_eq!(chunk, vec![(me * 100 + me) as u64]);
            } else {
                assert_eq!(src, (me + p - 1) % p);
                assert_eq!(chunk, vec![(src * 100 + me) as u64; 3]);
            }
            from.push(src);
        }
        assert_eq!(from.len(), 2);
        0u8
    });
}

#[test]
fn async_interleaved_with_collectives() {
    // Post async exchange, run barriers/allreduces/bcasts with the handle
    // in flight (different payload types!), then drain.
    let report = World::new(6).net(NetModel::slow_ethernet()).run(|comm| {
        let p = comm.size();
        let me = comm.rank();
        let counts = vec![4usize; p];
        let data: Vec<u64> = (0..p)
            .flat_map(|d| vec![(me * 1000 + d) as u64; 4])
            .collect();
        let mut h = comm.alltoallv_async(&data, &counts);
        // interleave: barrier (u8 payloads), allreduce (u64 single), bcast
        comm.barrier();
        let s = comm.allreduce(me as u64, |a, b| a + b);
        assert_eq!(s as usize, p * (p - 1) / 2);
        let b = comm.bcast(0, (me == 0).then(|| vec![7u64, 8, 9]));
        assert_eq!(b, vec![7, 8, 9]);
        comm.barrier();
        // now drain
        let mut seen = vec![false; p];
        while let Some((src, chunk)) = h.wait_any(comm) {
            assert!(!seen[src], "duplicate delivery from {src}");
            seen[src] = true;
            assert_eq!(chunk, vec![(src * 1000 + me) as u64; 4]);
        }
        assert!(seen.iter().all(|&x| x));
        0u8
    });
    drop(report);
}

#[test]
fn two_handles_in_flight() {
    // Two async exchanges posted back-to-back, drained second-first.
    World::new(4).net(NetModel::edison()).run(|comm| {
        let p = comm.size();
        let me = comm.rank();
        let counts = vec![1usize; p];
        let a: Vec<u64> = (0..p).map(|d| (me * 10 + d) as u64).collect();
        let b: Vec<u64> = (0..p).map(|d| 5000 + (me * 10 + d) as u64).collect();
        let mut ha = comm.alltoallv_async(&a, &counts);
        let mut hb = comm.alltoallv_async(&b, &counts);
        // Drain B first — its messages sit behind A's in the mailbox.
        let mut got_b = Vec::new();
        while let Some((src, chunk)) = hb.wait_any(comm) {
            assert_eq!(chunk, vec![5000 + (src * 10 + me) as u64]);
            got_b.push(src);
        }
        assert_eq!(got_b.len(), p);
        let mut got_a = Vec::new();
        while let Some((src, chunk)) = ha.wait_any(comm) {
            assert_eq!(chunk, vec![(src * 10 + me) as u64]);
            got_a.push(src);
        }
        assert_eq!(got_a.len(), p);
        0u8
    });
}

#[test]
fn chunks_are_handed_over_in_virtual_arrival_order() {
    // Rank 1 posts first in host time, but a modelled compute charge makes
    // its chunk arrive late in virtual time; rank 2 sleeps in host time
    // before posting, yet its chunk arrives first in virtual time.
    let report = World::new(3).net(NetModel::edison()).run(|comm| {
        let me = comm.rank();
        match me {
            1 => comm.charge_compute(1e-3),
            2 => std::thread::sleep(Duration::from_millis(50)),
            _ => {}
        }
        // One key from each of ranks 1 and 2 to rank 0, nothing else.
        let send = [usize::from(me != 0), 0, 0];
        let recv = if me == 0 { vec![0, 1, 1] } else { vec![0; 3] };
        let data = vec![me as u64; send[0]];
        let mut h = comm.alltoallv_async_given_counts(&data, &send, recv);
        let mut order = Vec::new();
        while let Some((src, chunk)) = h.wait_any(comm) {
            assert_eq!(chunk, [src as u64]);
            order.push(src);
        }
        order
    });
    assert_eq!(report.results[0], [2, 1]);
}
