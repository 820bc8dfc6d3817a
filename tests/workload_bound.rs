//! Theorem 1 (paper §2.8): with SDS-Sort's regular sampling and skew-aware
//! partitioning, the post-exchange load of every rank is bounded by
//! `4N/p` (plus lower-order terms) for *any* duplication pattern — while
//! the classic partition's load grows with skew without bound.

mod common;

use mpisim::{Communicator, NetModel, World};
use rand::prelude::*;
use sdssort::{sds_sort, SdsConfig};
use workloads::zipf_keys;

/// Theorem 1's bound with the lower-order slack made explicit:
/// `U ≤ 4N/p + 2·(N/p²) + p` covers rounding from ⌊n/p⌋ striding on
/// finite inputs (the paper's analysis drops these terms inside big-O).
fn bound(n_total: usize, p: usize) -> usize {
    4 * n_total / p + 2 * n_total / (p * p) + p
}

fn max_load<G>(p: usize, gen: G) -> (usize, usize)
where
    G: Fn(usize) -> Vec<u64> + Send + Sync,
{
    let mut cfg = SdsConfig::default();
    cfg.tau_m_bytes = 0; // keep the exchange at full width p
    let world = World::new(p).cores_per_node(4).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = gen(comm.rank());
        let n = data.len();
        let out = sds_sort(comm, data, &cfg).expect("no budget");
        (n, out.data.len())
    });
    let n_total: usize = report.results.iter().map(|r| r.0).sum();
    let max = report.results.iter().map(|r| r.1).max().unwrap();
    (n_total, max)
}

#[test]
fn bound_holds_on_uniform() {
    for p in [4usize, 8, 16] {
        let (n, max) = max_load(p, |r| workloads::uniform_u64(2000, 1, r));
        assert!(
            max <= bound(n, p),
            "p={p}: max {max} > bound {}",
            bound(n, p)
        );
    }
}

#[test]
fn bound_holds_on_zipf_all_alphas() {
    for &(alpha, _) in &workloads::PAPER_ALPHA_DELTA_TABLE2 {
        let (n, max) = max_load(8, move |r| zipf_keys(3000, alpha, 2, r));
        assert!(
            max <= bound(n, 8),
            "α={alpha}: max {max} > bound {}",
            bound(n, 8)
        );
    }
}

#[test]
fn bound_holds_on_extreme_skew() {
    // 99% one value.
    let (n, max) = max_load(8, |r| {
        let mut rng = StdRng::seed_from_u64(r as u64);
        (0..2500u64)
            .map(|_| {
                if rng.gen_bool(0.99) {
                    42
                } else {
                    rng.gen_range(0..100)
                }
            })
            .collect()
    });
    assert!(max <= bound(n, 8), "max {max} > bound {}", bound(n, 8));
}

#[test]
fn bound_holds_on_all_identical() {
    let (n, max) = max_load(16, |_r| vec![7u64; 1000]);
    assert!(max <= bound(n, 16), "max {max} > bound {}", bound(n, 16));
    // and the balance is actually good, not merely within 4N/p:
    assert!(
        max <= 2 * n / 16 + 16,
        "identical keys should spread near-evenly: {max}"
    );
}

#[test]
fn bound_holds_on_few_heavy_values() {
    // Two heavy hitters at opposite ends of the key space.
    let (n, max) = max_load(8, |r| {
        let mut rng = StdRng::seed_from_u64(100 + r as u64);
        (0..2000u64)
            .map(|_| match rng.gen_range(0..10) {
                0..=3 => 1u64,
                4..=7 => u64::MAX - 1,
                _ => rng.gen(),
            })
            .collect()
    });
    assert!(max <= bound(n, 8), "max {max} > bound {}", bound(n, 8));
}

#[test]
fn bound_holds_for_stable_variant() {
    let mut cfg = SdsConfig::stable();
    cfg.tau_m_bytes = 0;
    let p = 8;
    let world = World::new(p).cores_per_node(4).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = zipf_keys(3000, 0.9, 5, comm.rank());
        let n = data.len();
        let out = sds_sort(comm, data, &cfg).expect("no budget");
        (n, out.data.len())
    });
    let n_total: usize = report.results.iter().map(|r| r.0).sum();
    let max = report.results.iter().map(|r| r.1).max().unwrap();
    assert!(
        max <= bound(n_total, p),
        "stable: max {max} > bound {}",
        bound(n_total, p)
    );
}

#[test]
fn classic_partition_violates_bound_where_sds_does_not() {
    // Direct comparison at the partition level: on a single-value dataset
    // classic cuts give one rank everything; skew-aware cuts split it.
    use sdssort::partition::{classic_cuts, cuts_to_counts, fast_cuts};
    let p = 8;
    let data = vec![5u64; 8000];
    let pivots = vec![5u64; p - 1];
    let classic = cuts_to_counts(&classic_cuts(&data, &pivots));
    let skew = cuts_to_counts(&fast_cuts(&data, &pivots, None));
    assert_eq!(*classic.iter().max().unwrap(), 8000);
    assert!(*skew.iter().max().unwrap() <= 8000 / (p - 1) + 1);
}

#[test]
fn rdfa_reflects_balance() {
    let p = 8;
    let mut cfg = SdsConfig::default();
    cfg.tau_m_bytes = 0;
    let world = World::new(p).cores_per_node(4).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = zipf_keys(4000, 0.8, 9, comm.rank());
        sds_sort(comm, data, &cfg).expect("no budget").data.len()
    });
    let loads: Vec<usize> = report.results;
    let r = sdssort::rdfa(&loads);
    // Theorem 1 ⇒ RDFA ≤ 4 (plus slack); paper's Table 3 observes ≤ ~2.7.
    assert!(r <= 4.2, "RDFA {r} too large: {loads:?}");
    assert!(r >= 1.0);
}
