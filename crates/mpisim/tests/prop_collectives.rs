//! Property tests: collectives agree with sequential reference
//! computations for arbitrary inputs, sizes, and roots.

use mpisim::{AsyncExchange, Communicator, NetModel, World};
use proptest::collection::vec;
use proptest::prelude::*;

fn world(p: usize) -> World {
    World::new(p).cores_per_node(3).net(NetModel::zero())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn alltoallv_routes_arbitrary_matrices(
        p in 2usize..6,
        seed in any::<u64>(),
    ) {
        // counts[src][dst] derived deterministically from the seed so all
        // ranks can compute the full matrix.
        let report = world(p).run(move |comm| {
            let me = comm.rank();
            let count = |src: usize, dst: usize| -> usize {
                ((seed >> ((src * p + dst) % 48)) % 7) as usize
            };
            let counts: Vec<usize> = (0..p).map(|dst| count(me, dst)).collect();
            let mut data = Vec::new();
            for (dst, &c) in counts.iter().enumerate() {
                data.extend(std::iter::repeat_n((me * 100 + dst) as u64, c));
            }
            comm.alltoallv(&data, &counts)
        });
        for (rank, (recv, rcounts)) in report.results.into_iter().enumerate() {
            let count = |src: usize, dst: usize| -> usize {
                ((seed >> ((src * p + dst) % 48)) % 7) as usize
            };
            let expect_counts: Vec<usize> = (0..p).map(|src| count(src, rank)).collect();
            prop_assert_eq!(&rcounts, &expect_counts);
            let mut expect = Vec::new();
            for (src, &c) in expect_counts.iter().enumerate() {
                expect.extend(std::iter::repeat_n((src * 100 + rank) as u64, c));
            }
            prop_assert_eq!(recv, expect);
        }
    }

    #[test]
    fn bcast_gather_roundtrip(
        p in 1usize..6,
        root_sel in any::<usize>(),
        payload in vec(any::<u32>(), 0..40),
    ) {
        let root = root_sel % p;
        let payload2 = payload.clone();
        let report = world(p).run(move |comm| {
            let data = (comm.rank() == root).then(|| payload2.clone());
            let got = comm.bcast(root, data);
            // everyone contributes the broadcast back; root checks
            comm.gatherv(root, &got)
        });
        for (rank, res) in report.results.into_iter().enumerate() {
            if rank == root {
                let parts = res.expect("root");
                prop_assert_eq!(parts.len(), p);
                for part in parts {
                    prop_assert_eq!(&part, &payload);
                }
            } else {
                prop_assert!(res.is_none());
            }
        }
    }

    #[test]
    fn reduce_matches_sequential_fold(
        p in 1usize..7,
        values in vec(any::<i64>(), 7),
    ) {
        let vals = values.clone();
        let report = world(p).run(move |comm| {
            comm.allreduce(vals[comm.rank() % vals.len()], i64::wrapping_add)
        });
        let expect = (0..p).map(|r| values[r % values.len()]).fold(0i64, i64::wrapping_add);
        for r in report.results {
            prop_assert_eq!(r, expect);
        }
    }

    #[test]
    fn scan_and_exscan_consistent(
        p in 1usize..7,
        seed in any::<u32>(),
    ) {
        let report = world(p).run(move |comm| {
            let v = (seed as u64).wrapping_mul(comm.rank() as u64 + 1) % 1000;
            let inc: u64 = comm.allgather(&[v])[..=comm.rank()].iter().sum();
            let exc = comm.exscan(v, |a, b| a + b);
            (v, inc, exc)
        });
        let mut acc = 0u64;
        for (rank, (v, inc, exc)) in report.results.into_iter().enumerate() {
            if rank == 0 {
                prop_assert_eq!(exc, None);
            } else {
                prop_assert_eq!(exc, Some(acc));
            }
            acc += v;
            prop_assert_eq!(inc, acc);
        }
    }

    #[test]
    fn split_partitions_world(
        p in 2usize..8,
        colors in vec(0i64..3, 8),
    ) {
        let colors2 = colors.clone();
        let report = world(p).run(move |comm| {
            let color = colors2[comm.rank() % colors2.len()];
            let sub = comm.split(Some(color), comm.rank() as i64).expect("colored");
            (color, sub.rank(), sub.size(), sub.allreduce(1usize, |a, b| a + b))
        });
        // group sizes must match color multiplicity; new ranks contiguous
        for (rank, (color, sub_rank, sub_size, counted)) in
            report.results.iter().enumerate()
        {
            let same: Vec<usize> = (0..p)
                .filter(|&r| colors[r % colors.len()] == *color)
                .collect();
            prop_assert_eq!(*sub_size, same.len());
            prop_assert_eq!(*counted, same.len());
            let my_pos = same.iter().position(|&r| r == rank).expect("member");
            prop_assert_eq!(*sub_rank, my_pos);
        }
    }

    #[test]
    fn async_exchange_survives_interleaved_collectives(
        p in 2usize..6,
        seed in any::<u64>(),
        rounds in 1usize..4,
        tag_sel in any::<u64>(),
    ) {
        // The async exchange reserves its collective tag while user p2p
        // traffic (arbitrary legal tags) and other collectives run through
        // the same mailboxes. No chunk may be stolen or duplicated.
        let user_tag = tag_sel % mpisim::Comm::MAX_USER_TAG;
        let report = world(p).run(move |comm| {
            let me = comm.rank();
            let count = |src: usize, dst: usize| -> usize {
                ((seed >> ((src * p + dst) % 48)) % 5) as usize
            };
            let counts: Vec<usize> = (0..p).map(|dst| count(me, dst)).collect();
            let mut data = Vec::new();
            for (dst, &c) in counts.iter().enumerate() {
                data.extend(std::iter::repeat_n((me * 100 + dst) as u64, c));
            }
            let mut h = comm.alltoallv_async(&data, &counts);
            // interleave collectives and user-tagged p2p while in flight
            for r in 0..rounds {
                comm.barrier();
                let s = comm.allreduce(1u64, |a, b| a + b);
                assert_eq!(s as usize, p);
                let right = (me + 1) % p;
                let left = (me + p - 1) % p;
                comm.send_vec(right, user_tag, vec![(me * 7 + r) as u64]);
                let got = comm.recv_vec::<u64>(left, user_tag);
                assert_eq!(got, vec![(left * 7 + r) as u64]);
            }
            // drain: every expected chunk arrives intact, exactly once
            let mut seen = vec![false; p];
            while let Some((src, chunk)) = h.wait_any(comm) {
                assert!(!seen[src], "duplicate chunk from {src}");
                seen[src] = true;
                assert_eq!(chunk, vec![(src * 100 + me) as u64; count(src, me)]);
            }
            let expect: Vec<bool> = (0..p).map(|src| count(src, me) > 0).collect();
            seen == expect
        });
        prop_assert!(report.results.iter().all(|&ok| ok));
    }
}
