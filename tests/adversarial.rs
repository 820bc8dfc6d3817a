//! Adversarial-workload tests: the structurally worst duplication patterns
//! against SDS-Sort's workload bound, stability, and the ablation switch.

mod common;

use common::assert_global_sort;
use mpisim::{Communicator, NetModel, World};
use sdssort::{rdfa, sds_sort, PartitionStrategy, SdsConfig};
use workloads::{heavy_hitters, one_rank_duplicates, pivot_aligned};

fn bound(n_total: usize, p: usize) -> usize {
    4 * n_total / p + 2 * n_total / (p * p) + p
}

fn run_loads<G>(p: usize, cfg: SdsConfig, gen: G) -> (usize, Vec<usize>)
where
    G: Fn(usize) -> Vec<u64> + Send + Sync,
{
    let world = World::new(p).cores_per_node(4).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = gen(comm.rank());
        let n = data.len();
        let out = sds_sort(comm, data, &cfg).expect("no budget");
        (n, out.data.len())
    });
    let total = report.results.iter().map(|r| r.0).sum();
    (total, report.results.into_iter().map(|r| r.1).collect())
}

fn no_merge_cfg() -> SdsConfig {
    let mut cfg = SdsConfig::default();
    cfg.tau_m_bytes = 0;
    cfg
}

#[test]
fn pivot_aligned_duplicates_stay_bounded() {
    // Duplicates planted exactly where pivots land: the maximal
    // replicated-run scenario.
    for p in [4usize, 8, 16] {
        let (total, loads) = run_loads(p, no_merge_cfg(), move |r| {
            pivot_aligned(2000, p, 60.0, 1, r)
        });
        assert!(
            *loads.iter().max().unwrap() <= bound(total, p),
            "p={p}: loads {loads:?} exceed bound"
        );
    }
}

#[test]
fn heavy_hitters_stay_bounded() {
    let p = 8;
    for hitters in [1usize, 2, 5] {
        let (total, loads) = run_loads(p, no_merge_cfg(), move |r| {
            heavy_hitters(2500, hitters, 80.0, 2, r)
        });
        assert!(
            *loads.iter().max().unwrap() <= bound(total, p),
            "hitters={hitters}: loads {loads:?}"
        );
    }
}

#[test]
fn one_rank_duplicates_bounded_and_correct() {
    let p = 8;
    let world = World::new(p).cores_per_node(4).net(NetModel::zero());
    let cfg = no_merge_cfg();
    let report = world.run(|comm| {
        let data = one_rank_duplicates(2000, 3, comm.rank());
        let out = sds_sort(comm, data.clone(), &cfg).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_global_sort(&inputs, &outputs, |&k| k);
    let total: usize = inputs.iter().map(Vec::len).sum();
    let loads: Vec<usize> = outputs.iter().map(Vec::len).collect();
    assert!(
        *loads.iter().max().unwrap() <= bound(total, p),
        "loads {loads:?}"
    );
}

#[test]
fn stable_variant_survives_adversaries() {
    let p = 6;
    let mut cfg = SdsConfig::stable();
    cfg.tau_m_bytes = 0;
    for gen_id in 0..3 {
        let world = World::new(p).cores_per_node(3).net(NetModel::zero());
        let report = world.run(|comm| {
            let data: Vec<u64> = match gen_id {
                0 => pivot_aligned(1500, p, 70.0, 4, comm.rank()),
                1 => heavy_hitters(1500, 3, 90.0, 5, comm.rank()),
                _ => one_rank_duplicates(1500, 6, comm.rank()),
            };
            let out = sds_sort(comm, data.clone(), &cfg).expect("no budget");
            (data, out.data)
        });
        let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
        assert_global_sort(&inputs, &outputs, |&k| k);
    }
}

#[test]
fn classic_partition_ablation_shows_imbalance() {
    // Same pipeline, classic partition: adversarial duplicates concentrate
    // (RDFA → p-ish) where skew-aware stays near Theorem 1's regime.
    let p = 8;
    let gen = move |r: usize| {
        workloads::all_equal(1000, 42)
            .into_iter()
            .chain(workloads::uniform_u64(1000, 7, r))
            .collect::<Vec<u64>>()
    };

    let mut skew_cfg = no_merge_cfg();
    skew_cfg.partition = PartitionStrategy::SkewAware;
    let (_, skew_loads) = run_loads(p, skew_cfg, gen);

    let mut classic_cfg = no_merge_cfg();
    classic_cfg.partition = PartitionStrategy::Classic;
    let (_, classic_loads) = run_loads(p, classic_cfg, gen);

    let r_skew = rdfa(&skew_loads);
    let r_classic = rdfa(&classic_loads);
    assert!(
        r_classic > r_skew * 1.5,
        "classic ({r_classic:.2}) should be far worse than skew-aware ({r_skew:.2})"
    );
    assert!(r_skew < 4.2, "skew-aware RDFA {r_skew}");
}

#[test]
fn oversampling_tightens_balance() {
    // Larger oversampling factors should not hurt correctness and should
    // (weakly) improve the balance on uniform data.
    let p = 8;
    let mut rdfa_by_s = Vec::new();
    for s in [1usize, 4, 16] {
        let mut cfg = no_merge_cfg();
        cfg.oversample = s;
        let (total, loads) = run_loads(p, cfg, move |r| {
            workloads::uniform_u64(3000, 9 + s as u64, r)
        });
        assert_eq!(loads.iter().sum::<usize>(), total);
        assert!(*loads.iter().max().unwrap() <= bound(total, p));
        rdfa_by_s.push(rdfa(&loads));
    }
    // s = 16 should be no worse than s = 1 (different seeds add noise;
    // allow 10% slack).
    assert!(
        rdfa_by_s[2] <= rdfa_by_s[0] * 1.1,
        "oversampling should improve balance: {rdfa_by_s:?}"
    );
}

#[test]
fn oversampling_with_stable_and_skew() {
    let p = 6;
    let mut cfg = SdsConfig::stable();
    cfg.tau_m_bytes = 0;
    cfg.oversample = 8;
    let world = World::new(p).cores_per_node(3).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = workloads::zipf_keys(2000, 0.9, 11, comm.rank());
        let out = sds_sort(comm, data.clone(), &cfg).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_global_sort(&inputs, &outputs, |&k| k);
}

#[test]
fn histogram_pivot_source_sorts_correctly() {
    // SDS with HykSort's selector but the skew-aware partition: correct
    // and bounded even on heavy duplicates (the §2.4 decomposition).
    let p = 8;
    let mut cfg = no_merge_cfg();
    cfg.pivot_source = sdssort::PivotSource::Histogram;
    let world = World::new(p).cores_per_node(4).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = workloads::zipf_keys(2000, 1.4, 21, comm.rank());
        let out = sds_sort(comm, data.clone(), &cfg).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_global_sort(&inputs, &outputs, |&k| k);
    let total: usize = inputs.iter().map(Vec::len).sum();
    let loads: Vec<usize> = outputs.iter().map(Vec::len).collect();
    assert!(
        *loads.iter().max().unwrap() <= bound(total, p),
        "loads {loads:?}"
    );
}

#[test]
fn histogram_pivot_source_with_stable() {
    let p = 6;
    let mut cfg = SdsConfig::stable();
    cfg.tau_m_bytes = 0;
    cfg.pivot_source = sdssort::PivotSource::Histogram;
    let world = World::new(p).cores_per_node(3).net(NetModel::zero());
    let report = world.run(|comm| {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64 + 31);
        let data: Vec<sdssort::Tagged<u32>> = (0..1500u64)
            .map(|i| {
                sdssort::Record::new(rng.gen_range(0..12u32), ((comm.rank() as u64) << 32) | i)
            })
            .collect();
        let out = sds_sort(comm, data.clone(), &cfg).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_global_sort(&inputs, &outputs, |r| (r.key, r.payload));
    let flat: Vec<sdssort::Tagged<u32>> = outputs.into_iter().flatten().collect();
    for w in flat.windows(2) {
        if w[0].key == w[1].key {
            assert!(
                w[0].payload < w[1].payload,
                "stability violated with histogram pivots"
            );
        }
    }
}
