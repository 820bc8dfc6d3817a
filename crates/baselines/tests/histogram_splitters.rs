//! Histogram-based splitter selection: quality on uniform data, agreement
//! across ranks, and the duplicate-blindness that dooms it on skew.

use baselines::histogram_splitters;
use mpisim::{Communicator, NetModel, World};
use sdssort::search::upper_bound;
use workloads::uniform_u64;

fn world(p: usize) -> World {
    World::new(p).cores_per_node(4).net(NetModel::zero())
}

#[test]
fn splitters_agree_across_ranks() {
    let p = 8;
    let report = world(p).run(|comm| {
        let mut data = uniform_u64(2000, 1, comm.rank());
        data.sort_unstable();
        histogram_splitters(comm, &data, p, 7)
    });
    let first = &report.results[0];
    assert_eq!(first.len(), p - 1);
    for r in &report.results {
        assert_eq!(r, first);
    }
    assert!(first.windows(2).all(|w| w[0] <= w[1]), "splitters sorted");
}

#[test]
fn splitters_balance_uniform_data() {
    let p = 8;
    let n_rank = 4000;
    let report = world(p).run(|comm| {
        let mut data = uniform_u64(n_rank, 3, comm.rank());
        data.sort_unstable();
        let splitters = histogram_splitters(comm, &data, p, 3);
        // local bucket sizes under these splitters
        let mut cuts = vec![0usize];
        for &s in &splitters {
            cuts.push(upper_bound(&data, s));
        }
        cuts.push(data.len());
        let buckets: Vec<usize> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
        comm.allreduce(buckets, |a, b| {
            a.iter().zip(&b).map(|(x, y)| x + y).collect()
        })
    });
    let global_buckets = &report.results[0];
    let total: usize = global_buckets.iter().sum();
    assert_eq!(total, p * n_rank);
    let ideal = total / p;
    for (i, &b) in global_buckets.iter().enumerate() {
        assert!(
            b < ideal * 2,
            "bucket {i} holds {b} (> 2x ideal {ideal}): histogram refinement failed on uniform data"
        );
    }
}

#[test]
fn duplicates_defeat_histogram_splitting() {
    // 90% of all records share one key: whatever splitters histogramming
    // picks, upper_bound bucketing must put that key's whole mass in one
    // bucket — the structural failure SDS-Sort fixes.
    let p = 8;
    let n_rank = 2000;
    let report = world(p).run(|comm| {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64);
        let mut data: Vec<u64> = (0..n_rank)
            .map(|_| {
                if rng.gen_bool(0.9) {
                    500
                } else {
                    rng.gen_range(0..1000)
                }
            })
            .collect();
        data.sort_unstable();
        let splitters = histogram_splitters(comm, &data, p, 11);
        let mut cuts = vec![0usize];
        for &s in &splitters {
            cuts.push(upper_bound(&data, s));
        }
        cuts.push(data.len());
        let buckets: Vec<usize> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
        comm.allreduce(buckets, |a, b| {
            a.iter().zip(&b).map(|(x, y)| x + y).collect()
        })
    });
    let buckets = &report.results[0];
    let total: usize = buckets.iter().sum();
    let max = *buckets.iter().max().expect("non-empty");
    assert!(
        max as f64 >= total as f64 * 0.85,
        "one bucket must swallow the duplicate mass: {buckets:?}"
    );
}

#[test]
fn empty_world_data_handled() {
    let p = 4;
    let report = world(p).run(|comm| {
        let data: Vec<u64> = Vec::new();
        histogram_splitters(comm, &data, p, 1)
    });
    for r in &report.results {
        assert!(r.is_empty(), "no data → no splitters");
    }
}

#[test]
fn single_bucket_needs_no_splitters() {
    let report = world(4).run(|comm| {
        let data = vec![1u64, 2, 3];
        histogram_splitters(comm, &data, 1, 1)
    });
    for r in &report.results {
        assert!(r.is_empty());
    }
}
