//! Stability of SDS-Sort/stable: equal keys must appear in their *global
//! input order* — by source rank, then by local input position. This is
//! the paper's headline capability (the first sampling-based stable
//! parallel sort) and must hold without any secondary key participating
//! in comparisons.

mod common;

use common::assert_global_sort;
use mpisim::{Communicator, NetModel, World};
use rand::prelude::*;
use sdssort::{sds_sort, Record, SdsConfig, Tagged};

/// Generate records whose tag encodes (rank, position): the global input
/// order of equal keys is exactly ascending tag order.
fn tagged_input(n: usize, key_space: u32, seed: u64, rank: usize) -> Vec<Tagged<u32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ (rank as u64) << 16);
    (0..n)
        .map(|i| {
            Record::new(
                rng.gen_range(0..key_space),
                ((rank as u64) << 32) | i as u64,
            )
        })
        .collect()
}

type RankData = Vec<Vec<Tagged<u32>>>;

fn run_stable(
    p: usize,
    cores: usize,
    cfg: SdsConfig,
    key_space: u32,
    n: usize,
    seed: u64,
) -> (RankData, RankData) {
    let world = World::new(p).cores_per_node(cores).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = tagged_input(n, key_space, seed, comm.rank());
        let out = sds_sort(comm, data.clone(), &cfg).expect("no memory budget");
        (data, out.data)
    });
    report.results.into_iter().unzip()
}

/// Equal keys must carry ascending tags in the concatenated output.
fn assert_stable(outputs: &[Vec<Tagged<u32>>]) {
    let flat: Vec<&Tagged<u32>> = outputs.iter().flatten().collect();
    for w in flat.windows(2) {
        if w[0].key == w[1].key {
            assert!(
                w[0].payload < w[1].payload,
                "equal keys out of input order: key {} tags {:x} !< {:x}",
                w[0].key,
                w[0].payload,
                w[1].payload
            );
        }
    }
}

#[test]
fn stable_on_narrow_key_space() {
    // key_space = 8 with 2000 records/rank: massive duplication everywhere.
    let (inputs, outputs) = run_stable(8, 4, SdsConfig::stable(), 8, 2000, 1);
    assert_global_sort(&inputs, &outputs, |r| (r.key, r.payload));
    assert_stable(&outputs);
}

#[test]
fn stable_on_moderate_duplication() {
    let (inputs, outputs) = run_stable(6, 3, SdsConfig::stable(), 500, 3000, 2);
    assert_global_sort(&inputs, &outputs, |r| (r.key, r.payload));
    assert_stable(&outputs);
}

#[test]
fn stable_single_value() {
    let p = 8;
    let world = World::new(p).cores_per_node(4).net(NetModel::zero());
    let mut cfg = SdsConfig::stable();
    cfg.tau_m_bytes = 0; // exercise the full-width stable partition
    let report = world.run(|comm| {
        let data: Vec<Tagged<u32>> = (0..500u64)
            .map(|i| Record::new(7u32, ((comm.rank() as u64) << 32) | i))
            .collect();
        let out = sds_sort(comm, data.clone(), &cfg).expect("no memory budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_global_sort(&inputs, &outputs, |r| (r.key, r.payload));
    assert_stable(&outputs);
    // stable grouping must still balance the single value
    let max_load = outputs.iter().map(Vec::len).max().unwrap();
    assert!(max_load <= 4 * 500, "stable grouping imbalance: {max_load}");
}

#[test]
fn stable_with_node_merging() {
    let mut cfg = SdsConfig::stable();
    cfg.tau_m_bytes = usize::MAX; // force node merge path
    let (inputs, outputs) = run_stable(8, 4, cfg, 16, 1000, 3);
    assert_global_sort(&inputs, &outputs, |r| (r.key, r.payload));
    assert_stable(&outputs);
}

#[test]
fn stable_various_world_sizes() {
    for p in [2usize, 3, 5, 8] {
        let (inputs, outputs) = run_stable(p, 4, SdsConfig::stable(), 10, 800, p as u64);
        assert_global_sort(&inputs, &outputs, |r| (r.key, r.payload));
        assert_stable(&outputs);
    }
}

#[test]
fn fast_version_not_required_to_be_stable_but_correct() {
    // The fast version gives no stability guarantee; this documents that
    // its output is nevertheless a correct sort on the same input.
    let (inputs, outputs) = run_stable(8, 4, SdsConfig::default(), 8, 1500, 4);
    assert_global_sort(&inputs, &outputs, |r| (r.key, r.payload));
}

#[test]
fn stable_local_ordering_resort_path() {
    // Force the τs re-sort path (local ordering via stable sort instead of
    // k-way merge) and confirm stability still holds.
    let mut cfg = SdsConfig::stable();
    cfg.tau_s = 0;
    cfg.tau_m_bytes = 0;
    let (inputs, outputs) = run_stable(6, 3, cfg, 12, 1200, 5);
    assert_global_sort(&inputs, &outputs, |r| (r.key, r.payload));
    assert_stable(&outputs);
}
