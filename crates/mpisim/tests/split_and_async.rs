//! Integration tests: communicator splits (color/key, shared-node, node
//! leaders) and the asynchronous all-to-all used for exchange/compute
//! overlap.

use mpisim::{AsyncExchange, Communicator, NetModel, World};

fn world(p: usize, cores: usize) -> World {
    World::new(p).cores_per_node(cores).net(NetModel::zero())
}

#[test]
fn split_by_parity() {
    let report = world(8, 4).run(|comm| {
        let color = (comm.rank() % 2) as i64;
        let sub = comm
            .split(Some(color), comm.rank() as i64)
            .expect("in a group");
        (sub.rank(), sub.size(), sub.world_rank())
    });
    for (old, (new_rank, size, world)) in report.results.into_iter().enumerate() {
        assert_eq!(size, 4);
        assert_eq!(new_rank, old / 2);
        assert_eq!(world, old);
    }
}

#[test]
fn split_undefined_color_returns_none() {
    let report = world(6, 3).run(|comm| {
        let color = if comm.rank() < 2 { Some(0) } else { None };
        comm.split(color, 0).map(|c| c.size())
    });
    assert_eq!(
        report.results,
        vec![Some(2), Some(2), None, None, None, None]
    );
}

#[test]
fn split_key_reorders_ranks() {
    let report = world(4, 4).run(|comm| {
        // reverse order via descending key
        let key = -(comm.rank() as i64);
        let sub = comm.split(Some(0), key).unwrap();
        sub.rank()
    });
    assert_eq!(report.results, vec![3, 2, 1, 0]);
}

#[test]
fn split_comm_isolated_from_parent_traffic() {
    let report = world(4, 4).run(|comm| {
        let sub = comm
            .split(Some((comm.rank() / 2) as i64), comm.rank() as i64)
            .unwrap();
        // same tag on parent and child communicators must not cross-match
        if comm.rank() == 0 {
            comm.send_val(1, 5, 111u32);
        }
        if sub.rank() == 0 {
            sub.send_val(1, 5, 222u32);
        }
        if comm.rank() == 1 {
            let from_sub = sub.recv_val::<u32>(0, 5);
            let from_parent = comm.recv_val::<u32>(0, 5);
            return (from_parent, from_sub);
        }
        if sub.rank() == 1 {
            let from_sub = sub.recv_val::<u32>(0, 5);
            return (0, from_sub);
        }
        (0, 0)
    });
    assert_eq!(report.results[1], (111, 222));
    assert_eq!(report.results[3], (0, 222));
}

#[test]
fn shared_node_split_groups_by_node() {
    let report = world(8, 3).run(|comm| {
        let local = comm.split_shared_node();
        (comm.node(), local.rank(), local.size())
    });
    // nodes: [0,1,2], [3,4,5], [6,7]
    let expect = [
        (0, 0, 3),
        (0, 1, 3),
        (0, 2, 3),
        (1, 0, 3),
        (1, 1, 3),
        (1, 2, 3),
        (2, 0, 2),
        (2, 1, 2),
    ];
    assert_eq!(report.results, expect);
}

#[test]
fn refine_comm_gives_leaders_and_locals() {
    let report = world(8, 4).run(|comm| {
        let (cg, cl) = comm.refine_comm();
        let leader = cl.rank() == 0;
        assert_eq!(leader, cg.is_some());
        (leader, cg.map(|c| (c.rank(), c.size())), cl.size())
    });
    assert_eq!(report.results[0], (true, Some((0, 2)), 4));
    assert_eq!(report.results[4], (true, Some((1, 2)), 4));
    for r in [1, 2, 3, 5, 6, 7] {
        assert!(!report.results[r].0);
        assert_eq!(report.results[r].2, 4);
    }
}

#[test]
fn collectives_work_on_split_comms() {
    let report = world(6, 3).run(|comm| {
        let local = comm.split_shared_node();
        local.allreduce(comm.rank() as u64, |a, b| a + b)
    });
    // node 0 holds ranks 0,1,2 (sum 3); node 1 holds 3,4,5 (sum 12)
    assert_eq!(report.results, vec![3, 3, 3, 12, 12, 12]);
}

#[test]
fn async_alltoallv_delivers_all_chunks() {
    let p = 5;
    let report = world(p, 4).run(move |comm| {
        let me = comm.rank();
        let counts: Vec<usize> = (0..p).map(|dst| if dst == me { 2 } else { 1 }).collect();
        let mut data = Vec::new();
        for (dst, &c) in counts.iter().enumerate() {
            data.extend(std::iter::repeat_n((me * 10 + dst) as u32, c));
        }
        let mut pending = comm.alltoallv_async(&data, &counts);
        assert_eq!(pending.total_recv(), p + 1);
        let mut got: Vec<(usize, Vec<u32>)> = Vec::new();
        while let Some(hit) = pending.wait_any(comm) {
            got.push(hit);
        }
        assert!(
            pending.wait_any(comm).is_none(),
            "drained handle returns None"
        );
        // first delivered chunk must be the local one
        assert_eq!(got[0].0, me);
        got.sort_by_key(|&(src, _)| src);
        got
    });
    for (rank, got) in report.results.into_iter().enumerate() {
        assert_eq!(got.len(), p);
        for (src, chunk) in got {
            let expect_len = if src == rank { 2 } else { 1 };
            assert_eq!(chunk, vec![(src * 10 + rank) as u32; expect_len]);
        }
    }
}

#[test]
fn async_alltoallv_empty_chunks_skipped() {
    let p = 4;
    let report = world(p, 4).run(move |comm| {
        // ring: each rank sends 3 items to (rank+1)%p only
        let me = comm.rank();
        let mut counts = vec![0usize; p];
        counts[(me + 1) % p] = 3;
        let data = vec![me as u64; 3];
        let mut pending = comm.alltoallv_async(&data, &counts);

        pending.wait_all(comm)
    });
    for (rank, chunks) in report.results.into_iter().enumerate() {
        assert_eq!(chunks.len(), 1, "exactly one non-empty chunk");
        let (src, data) = &chunks[0];
        assert_eq!(*src, (rank + 4 - 1) % 4);
        assert_eq!(data, &vec![*src as u64; 3]);
    }
}

#[test]
fn nested_splits() {
    let report = world(8, 2).run(|comm| {
        let half = comm
            .split(Some((comm.rank() / 4) as i64), comm.rank() as i64)
            .unwrap();
        let quarter = half
            .split(Some((half.rank() / 2) as i64), half.rank() as i64)
            .unwrap();
        quarter.allreduce(comm.rank() as u64, |a, b| a + b)
    });
    assert_eq!(report.results, vec![1, 1, 5, 5, 9, 9, 13, 13]);
}
