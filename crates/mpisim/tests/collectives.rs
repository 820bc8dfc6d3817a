//! Integration tests: collectives agree with sequential reference results
//! for a range of world sizes, including non-power-of-two sizes.

use mpisim::{Communicator, NetModel, World};

fn world(p: usize) -> World {
    World::new(p).cores_per_node(4).net(NetModel::zero())
}

#[test]
fn barrier_completes_at_many_sizes() {
    for p in [1, 2, 3, 4, 7, 8, 16] {
        world(p).run(|comm| {
            for _ in 0..3 {
                comm.barrier();
            }
        });
    }
}

#[test]
fn bcast_from_every_root() {
    for p in [1, 2, 3, 5, 8] {
        for root in 0..p {
            let report = world(p).run(move |comm| {
                let data = if comm.rank() == root {
                    Some(vec![root as u64, 42, 7])
                } else {
                    None
                };
                comm.bcast(root, data)
            });
            for r in report.results {
                assert_eq!(r, vec![root as u64, 42, 7]);
            }
        }
    }
}

#[test]
fn gatherv_collects_in_rank_order() {
    let p = 6;
    let report = world(p).run(|comm| {
        // rank r contributes r copies of r
        let data = vec![comm.rank() as u32; comm.rank()];
        comm.gatherv(2, &data)
    });
    for (rank, res) in report.results.into_iter().enumerate() {
        if rank == 2 {
            let parts = res.expect("root gets parts");
            assert_eq!(parts.len(), p);
            for (src, part) in parts.iter().enumerate() {
                assert_eq!(part, &vec![src as u32; src]);
            }
        } else {
            assert!(res.is_none());
        }
    }
}

#[test]
fn allgather_concatenates() {
    let report = world(5).run(|comm| comm.allgather(&[comm.rank() as i64 * 10]));
    for r in report.results {
        assert_eq!(r, vec![0, 10, 20, 30, 40]);
    }
}

#[test]
fn allgatherv_variable_lengths() {
    let report = world(4).run(|comm| {
        let data: Vec<u16> = (0..comm.rank() as u16 + 1).collect();
        comm.allgatherv(&data)
    });
    for (flat, counts) in report.results {
        assert_eq!(counts, vec![1, 2, 3, 4]);
        assert_eq!(flat, vec![0, 0, 1, 0, 1, 2, 0, 1, 2, 3]);
    }
}

#[test]
fn alltoall_transposes() {
    let p = 4;
    let report = world(p).run(move |comm| {
        let data: Vec<u32> = (0..p).map(|dst| (comm.rank() * 100 + dst) as u32).collect();
        comm.alltoall(&data)
    });
    for (rank, recv) in report.results.into_iter().enumerate() {
        let expect: Vec<u32> = (0..p).map(|src| (src * 100 + rank) as u32).collect();
        assert_eq!(recv, expect);
    }
}

#[test]
fn alltoallv_roundtrips_triangular_matrix() {
    let p = 5;
    let report = world(p).run(move |comm| {
        let me = comm.rank();
        // rank r sends (r + dst) copies of marker r*p+dst to dst
        let counts: Vec<usize> = (0..p).map(|dst| me + dst).collect();
        let mut data = Vec::new();
        for dst in 0..p {
            data.extend(std::iter::repeat_n((me * p + dst) as u64, me + dst));
        }
        comm.alltoallv(&data, &counts)
    });
    for (rank, (recv, rcounts)) in report.results.into_iter().enumerate() {
        let expect_counts: Vec<usize> = (0..p).map(|src| src + rank).collect();
        assert_eq!(rcounts, expect_counts);
        let mut expect = Vec::new();
        for src in 0..p {
            expect.extend(std::iter::repeat_n((src * p + rank) as u64, src + rank));
        }
        assert_eq!(recv, expect);
    }
}

#[test]
fn alltoallv_with_zero_counts() {
    let p = 4;
    let report = world(p).run(move |comm| {
        // only rank 0 sends anything, and only to rank p-1
        let mut counts = vec![0usize; p];
        let data: Vec<u8> = if comm.rank() == 0 {
            counts[p - 1] = 3;
            vec![9, 9, 9]
        } else {
            Vec::new()
        };
        comm.alltoallv(&data, &counts)
    });
    for (rank, (recv, _)) in report.results.into_iter().enumerate() {
        if rank == p - 1 {
            assert_eq!(recv, vec![9, 9, 9]);
        } else {
            assert!(recv.is_empty());
        }
    }
}

#[test]
fn reduce_and_allreduce_fold_in_rank_order() {
    let report = world(6).run(|comm| {
        let cat = comm.allreduce(vec![comm.rank() as u8], |mut a, b| {
            a.extend(b);
            a
        });
        let sum = comm.reduce(3, comm.rank() as u64, |a, b| a + b);
        (cat, sum)
    });
    for (rank, (cat, sum)) in report.results.into_iter().enumerate() {
        assert_eq!(
            cat,
            vec![0, 1, 2, 3, 4, 5],
            "non-commutative op must fold in rank order"
        );
        if rank == 3 {
            assert_eq!(sum, Some(15));
        } else {
            assert_eq!(sum, None);
        }
    }
}

#[test]
fn exscan_prefix_sums() {
    let report = world(5).run(|comm| comm.exscan(comm.rank() as u64 + 1, |a, b| a + b));
    let got: Vec<Option<u64>> = report.results;
    assert_eq!(got, vec![None, Some(1), Some(3), Some(6), Some(10)]);
}

#[test]
fn single_rank_world_collectives() {
    let report = world(1).run(|comm| {
        comm.barrier();
        let b = comm.bcast(0, Some(vec![5u8]));
        let (a2a, counts) = comm.alltoallv(&[1u32, 2, 3], &[3]);
        let ar = comm.allreduce(7i64, |a, b| a + b);
        (b, a2a, counts, ar)
    });
    let (b, a2a, counts, ar) = report.results.into_iter().next().unwrap();
    assert_eq!(b, vec![5]);
    assert_eq!(a2a, vec![1, 2, 3]);
    assert_eq!(counts, vec![3]);
    assert_eq!(ar, 7);
}

#[test]
fn interleaved_collectives_do_not_cross_match() {
    // Two back-to-back alltoallvs with different payloads must not mix.
    let p = 4;
    let report = world(p).run(move |comm| {
        let me = comm.rank() as u64;
        let counts = vec![1usize; p];
        let first: Vec<u64> = vec![me; p];
        let second: Vec<u64> = vec![me + 100; p];
        let (r1, _) = comm.alltoallv(&first, &counts);
        let (r2, _) = comm.alltoallv(&second, &counts);
        (r1, r2)
    });
    for (r1, r2) in report.results {
        assert_eq!(r1, vec![0, 1, 2, 3]);
        assert_eq!(r2, vec![100, 101, 102, 103]);
    }
}

#[test]
fn scatterv_variable_chunks() {
    let p = 4;
    let report = world(p).run(move |comm| {
        let chunks: Option<Vec<Vec<u8>>> =
            (comm.rank() == 0).then(|| (0..p).map(|i| vec![i as u8; i]).collect());
        comm.scatterv(0, chunks)
    });
    for (rank, chunk) in report.results.into_iter().enumerate() {
        assert_eq!(chunk, vec![rank as u8; rank]);
    }
}

/// A resident world keeps one communicator for its whole life; the
/// collective tag allocator must not run out after 2^15 operations (a
/// `split` alone uses three).
#[test]
fn forty_thousand_collectives_on_one_communicator() {
    let report = world(2).run(|comm| {
        for _ in 0..11_000 {
            let child = comm
                .split(Some(0), comm.rank() as i64)
                .expect("every rank has a color");
            assert_eq!(child.size(), 2);
        }
        for _ in 0..7_000 {
            comm.barrier();
        }
        comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b)
    });
    assert_eq!(report.results, vec![3, 3]);
}
