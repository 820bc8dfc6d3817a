//! Distributed pivot selection: the bitonic and odd-even block sorters
//! must globally sort sample blocks, and all pivot-selection paths must
//! return the same regular-position pivots on every rank.

use mpisim::{Communicator, NetModel, World};
use rand::prelude::*;
use sdssort::pivots::{
    bitonic_block_sort, odd_even_block_sort, reference_pivots, select_global_pivots, PivotMethod,
};

fn world(p: usize) -> World {
    World::new(p).cores_per_node(4).net(NetModel::zero())
}

fn assert_block_sorted(blocks: &[Vec<u64>], block_len: usize) {
    let mut last: Option<u64> = None;
    for (r, block) in blocks.iter().enumerate() {
        assert_eq!(block.len(), block_len, "rank {r} block length changed");
        assert!(
            block.windows(2).all(|w| w[0] <= w[1]),
            "rank {r} block not sorted"
        );
        if let (Some(prev), Some(&first)) = (last, block.first()) {
            assert!(prev <= first, "blocks not ordered across ranks at {r}");
        }
        last = block.last().copied();
    }
}

#[test]
fn bitonic_block_sort_power_of_two() {
    for p in [2usize, 4, 8, 16] {
        let b = 7;
        let report = world(p).run(|comm| {
            let mut rng = StdRng::seed_from_u64(comm.rank() as u64 * 31 + 1);
            let block: Vec<u64> = (0..b).map(|_| rng.gen_range(0..1000)).collect();
            bitonic_block_sort(comm, block)
        });
        assert_block_sorted(&report.results, b);
    }
}

#[test]
fn odd_even_block_sort_any_size() {
    for p in [2usize, 3, 5, 6, 9] {
        let b = 5;
        let report = world(p).run(|comm| {
            let mut rng = StdRng::seed_from_u64(comm.rank() as u64 * 17 + 2);
            let block: Vec<u64> = (0..b).map(|_| rng.gen_range(0..500)).collect();
            odd_even_block_sort(comm, block)
        });
        assert_block_sorted(&report.results, b);
    }
}

#[test]
fn block_sorts_preserve_multiset() {
    let p = 8;
    let b = 9;
    let report = world(p).run(|comm| {
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64 ^ 0xAB);
        let block: Vec<u64> = (0..b).map(|_| rng.gen_range(0..50)).collect();
        let sorted = bitonic_block_sort(comm, block.clone());
        (block, sorted)
    });
    let mut input: Vec<u64> = report.results.iter().flat_map(|(i, _)| i.clone()).collect();
    let mut output: Vec<u64> = report.results.iter().flat_map(|(_, o)| o.clone()).collect();
    input.sort_unstable();
    output.sort_unstable();
    assert_eq!(input, output);
}

#[test]
fn distributed_and_gather_pivots_agree() {
    for p in [4usize, 8] {
        let report = world(p).run(move |comm| {
            // Sorted local pivots, as the driver produces them.
            let mut rng = StdRng::seed_from_u64(comm.rank() as u64 * 7 + 3);
            let mut local: Vec<u64> = (0..p - 1).map(|_| rng.gen_range(0..10_000)).collect();
            local.sort_unstable();
            let dist = select_global_pivots(comm, &local, PivotMethod::Distributed);
            let gath = select_global_pivots(comm, &local, PivotMethod::Gather);
            (local, dist, gath)
        });
        // Same pivots on every rank, both methods.
        let (_, first_dist, first_gath) = &report.results[0];
        assert_eq!(first_dist.len(), p - 1);
        assert_eq!(first_dist, first_gath, "methods must agree");
        for (_, dist, gath) in &report.results {
            assert_eq!(dist, first_dist);
            assert_eq!(gath, first_gath);
        }
        // And they equal the sequential reference over the pooled samples.
        let mut all: Vec<u64> = report
            .results
            .iter()
            .flat_map(|(l, _, _)| l.clone())
            .collect();
        let expect = reference_pivots(&mut all, p);
        assert_eq!(first_gath, &expect);
    }
}

#[test]
fn unequal_sample_counts_fall_back_to_gather() {
    let p = 4;
    let report = world(p).run(|comm| {
        // rank 0 contributes fewer samples (tiny local data)
        let local: Vec<u64> = if comm.rank() == 0 {
            vec![5]
        } else {
            vec![10, 20, 30]
        };
        select_global_pivots(comm, &local, PivotMethod::Distributed)
    });
    let first = &report.results[0];
    assert!(!first.is_empty());
    for r in &report.results {
        assert_eq!(r, first, "all ranks agree despite unequal contributions");
    }
    assert!(first.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn single_rank_returns_no_pivots() {
    let report =
        world(1).run(|comm| select_global_pivots(comm, &[1u64, 2, 3], PivotMethod::Distributed));
    assert!(report.results[0].is_empty());
}

#[test]
fn duplicate_heavy_samples_produce_replicated_pivots() {
    // All samples identical → all global pivots identical (the replicated
    // run the partitioner must then split).
    let p = 8;
    let report = world(p).run(move |comm| {
        let local = vec![42u64; p - 1];
        select_global_pivots(comm, &local, PivotMethod::Distributed)
    });
    for r in &report.results {
        assert_eq!(r, &vec![42u64; p - 1]);
    }
}
