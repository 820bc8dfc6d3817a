//! End-to-end correctness of SDS-Sort across world sizes, workloads, and
//! configuration paths (node merging, overlap, merge-vs-sort ordering,
//! stable vs fast).

mod common;

use common::assert_global_sort;
use mpisim::{Communicator, NetModel, World};
use sdssort::{sds_sort, Record, SdsConfig, SortOutput};
use std::collections::HashSet;
use workloads::{cosmology_particles, ptf_scores, uniform_u64, zipf_keys};

fn run_sort<T, G>(p: usize, cores: usize, cfg: SdsConfig, gen: G) -> (Vec<Vec<T>>, Vec<Vec<T>>)
where
    T: sdssort::Sortable,
    G: Fn(usize) -> Vec<T> + Send + Sync,
{
    let world = World::new(p).cores_per_node(cores).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = gen(comm.rank());
        let out: SortOutput<T> = sds_sort(comm, data.clone(), &cfg).expect("no memory budget");
        (data, out.data)
    });
    report.results.into_iter().unzip()
}

#[test]
fn uniform_various_world_sizes() {
    for p in [1usize, 2, 3, 4, 7, 8, 16] {
        let (inputs, outputs) = run_sort(p, 4, SdsConfig::default(), |r| uniform_u64(2000, 42, r));
        assert_global_sort(&inputs, &outputs, |&k| k);
    }
}

#[test]
fn zipf_heavy_skew() {
    for alpha in [0.7f64, 1.4, 2.1] {
        let (inputs, outputs) = run_sort(8, 4, SdsConfig::default(), move |r| {
            zipf_keys(3000, alpha, 7, r)
        });
        assert_global_sort(&inputs, &outputs, |&k| k);
    }
}

#[test]
fn all_identical_keys() {
    // Disable node merging so the exchange runs over all 8 ranks (with
    // merging the bound would be relative to the leaders-only world).
    let mut cfg = SdsConfig::default();
    cfg.tau_m_bytes = 0;
    let (inputs, outputs) = run_sort(8, 4, cfg, |_r| vec![99u64; 1000]);
    assert_global_sort(&inputs, &outputs, |&k| k);
    // Skew-aware partition must spread the single value across ranks
    // rather than dumping all 8000 records on one rank.
    let max_load = outputs.iter().map(Vec::len).max().unwrap();
    assert!(
        max_load <= 8000 / 8 * 4,
        "load {max_load} exceeds 4N/p bound"
    );
}

#[test]
fn stable_config_sorts_correctly() {
    let (inputs, outputs) = run_sort(8, 4, SdsConfig::stable(), |r| zipf_keys(2000, 0.9, 3, r));
    assert_global_sort(&inputs, &outputs, |&k| k);
}

#[test]
fn node_merging_path() {
    // Force node merging with a huge τm; outputs concentrate on leaders.
    let mut cfg = SdsConfig::default();
    cfg.tau_m_bytes = usize::MAX;
    let (inputs, outputs) = run_sort(8, 4, cfg, |r| uniform_u64(1500, 11, r));
    assert_global_sort(&inputs, &outputs, |&k| k);
    // With 4 cores/node and 8 ranks, only the 2 node leaders hold data.
    assert!(!outputs[0].is_empty());
    for r in [1, 2, 3, 5, 6, 7] {
        assert!(
            outputs[r].is_empty(),
            "non-leader rank {r} should hold nothing"
        );
    }
}

#[test]
fn no_node_merging_path() {
    let mut cfg = SdsConfig::default();
    cfg.tau_m_bytes = 0; // never merge
    let (inputs, outputs) = run_sort(8, 4, cfg, |r| uniform_u64(1500, 11, r));
    assert_global_sort(&inputs, &outputs, |&k| k);
    // every rank holds roughly its share
    assert!(outputs.iter().all(|o| !o.is_empty()));
}

#[test]
fn overlap_and_sync_paths_agree() {
    let mk = |tau_o: usize| {
        let mut cfg = SdsConfig::default();
        cfg.tau_o = tau_o;
        cfg.tau_m_bytes = 0;
        cfg
    };
    let (inputs, overlapped) = run_sort(6, 3, mk(usize::MAX), |r| zipf_keys(2500, 0.8, 5, r));
    assert_global_sort(&inputs, &overlapped, |&k| k);
    let (inputs2, synced) = run_sort(6, 3, mk(0), |r| zipf_keys(2500, 0.8, 5, r));
    assert_global_sort(&inputs2, &synced, |&k| k);
    // Same multiset regardless of path.
    let mut a: Vec<u64> = overlapped.into_iter().flatten().collect();
    let mut b: Vec<u64> = synced.into_iter().flatten().collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn sort_vs_merge_local_ordering_agree() {
    let mk = |tau_s: usize| {
        let mut cfg = SdsConfig::default();
        cfg.tau_s = tau_s;
        cfg.tau_o = 0; // force the synchronous path so τs matters
        cfg.tau_m_bytes = 0;
        cfg
    };
    let (inputs, merged) = run_sort(8, 4, mk(usize::MAX), |r| uniform_u64(2000, 9, r));
    assert_global_sort(&inputs, &merged, |&k| k);
    let (inputs2, sorted) = run_sort(8, 4, mk(0), |r| uniform_u64(2000, 9, r));
    assert_global_sort(&inputs2, &sorted, |&k| k);
}

#[test]
fn records_with_payload_travel_intact() {
    let (inputs, outputs) = run_sort(4, 2, SdsConfig::default(), |r| {
        (0..1000u64)
            .map(|i| Record::new((i * 7919 + r as u64) % 100, (r as u64) << 32 | i))
            .collect::<Vec<_>>()
    });
    // project onto (key, payload) so payload corruption would be caught
    assert_global_sort(&inputs, &outputs, |rec| (rec.key, rec.payload));
}

#[test]
fn ptf_and_cosmology_workloads() {
    let (inputs, outputs) = run_sort(6, 3, SdsConfig::default(), |r| ptf_scores(2000, 1, r));
    assert_global_sort(&inputs, &outputs, |rec| (rec.key, rec.payload));

    let (inputs, outputs) = run_sort(6, 3, SdsConfig::default(), |r| {
        cosmology_particles(2000, 1, r)
    });
    assert_global_sort(&inputs, &outputs, |rec| {
        (rec.key, rec.payload.pos[0].to_bits())
    });
}

#[test]
fn empty_and_tiny_inputs() {
    // Everyone empty.
    let (inputs, outputs) = run_sort(4, 2, SdsConfig::default(), |_r| Vec::<u64>::new());
    assert_global_sort(&inputs, &outputs, |&k| k);
    // One record total.
    let (inputs, outputs) = run_sort(4, 2, SdsConfig::default(), |r| {
        if r == 2 {
            vec![5u64]
        } else {
            vec![]
        }
    });
    assert_global_sort(&inputs, &outputs, |&k| k);
    // Fewer records than ranks.
    let (inputs, outputs) = run_sort(8, 4, SdsConfig::default(), |r| {
        if r % 2 == 0 {
            vec![r as u64]
        } else {
            vec![]
        }
    });
    assert_global_sort(&inputs, &outputs, |&k| k);
}

#[test]
fn unequal_rank_loads() {
    let (inputs, outputs) = run_sort(5, 5, SdsConfig::default(), |r| {
        uniform_u64(500 * (r + 1), 13, r)
    });
    assert_global_sort(&inputs, &outputs, |&k| k);
}

#[test]
fn presorted_input() {
    let (inputs, outputs) = run_sort(4, 2, SdsConfig::default(), |r| {
        ((r as u64 * 1000)..(r as u64 * 1000 + 1000)).collect::<Vec<u64>>()
    });
    assert_global_sort(&inputs, &outputs, |&k| k);
}

#[test]
fn reverse_sorted_input() {
    let (inputs, outputs) = run_sort(4, 2, SdsConfig::default(), |r| {
        (0..1000u64)
            .map(|i| (4 - r as u64) * 1000 - i)
            .collect::<Vec<u64>>()
    });
    assert_global_sort(&inputs, &outputs, |&k| k);
}

#[test]
fn staggered_placements_sort_correctly() {
    // best case (exchange ≈ no-op), worst case (everything moves), and a
    // rotated placement: correctness must be placement-independent.
    let p = 8;
    let mut cfg = SdsConfig::default();
    cfg.tau_m_bytes = 0;
    for placement in 0..3 {
        let (inputs, outputs) = run_sort(p, 4, cfg, move |r| match placement {
            0 => workloads::presplit(1200, p, r),
            1 => workloads::reversed(1200, p, r),
            _ => workloads::staggered(1200, p, 3, r),
        });
        assert_global_sort(&inputs, &outputs, |&k| k);
    }
}

#[test]
fn presplit_exchange_volume_is_minimal() {
    // With data already in place, the exchange should keep ~everything
    // local: each rank's receive count ≈ its send count and RDFA ≈ 1.
    let p = 8;
    let mut cfg = SdsConfig::default();
    cfg.tau_m_bytes = 0;
    let (_, outputs) = run_sort(p, 4, cfg, move |r| workloads::presplit(1500, p, r));
    let loads: Vec<usize> = outputs.iter().map(Vec::len).collect();
    let r = sdssort::rdfa(&loads);
    assert!(
        r < 1.2,
        "presplit data should balance near-perfectly: {r} ({loads:?})"
    );
}

#[test]
fn overlapped_virtual_clocks_are_reproducible() {
    // The simulator charges compute from its model, never host time, so an
    // overlapped sort's clocks depend only on the inputs: it hands each
    // rank its chunks by virtual arrival, never in host-thread order.
    let cfg = SdsConfig {
        tau_m_bytes: 0,
        tau_o: usize::MAX,
        ..SdsConfig::default()
    };
    for p in [4usize, 16] {
        let world = World::new(p).cores_per_node(1);
        let clocks: HashSet<Vec<u64>> = (0..10)
            .map(|_| {
                let report = world.run(|comm| {
                    let data = uniform_u64(20_000, 0x5B, comm.rank());
                    sds_sort(comm, data, &cfg)
                        .expect("no memory budget")
                        .data
                        .len()
                });
                report.per_rank_time.iter().map(|t| t.to_bits()).collect()
            })
            .collect();
        assert_eq!(
            clocks.len(),
            1,
            "p = {p}: {} distinct clock vectors",
            clocks.len()
        );
    }
}

/// `decision.local-kernel` names the comparison sort that ran: the AVX-512
/// quicksort for plain `u64` keys where the CPU has it, `std`'s sorts
/// otherwise, with the reason.
#[test]
fn the_kernel_decision_names_the_comparison_sort() {
    fn decision<T: sdssort::Sortable>(gen: impl Fn(usize) -> Vec<T> + Send + Sync) -> String {
        let report = World::new(2)
            .cores_per_node(1)
            .net(NetModel::zero())
            .telemetry(true)
            .run(|comm| {
                sds_sort(comm, gen(comm.rank()), &SdsConfig::default()).expect("no budget");
            });
        let snapshot = report.telemetry.expect("telemetry enabled");
        let event = snapshot
            .events
            .iter()
            .find(|e| e.name == "decision.local-kernel")
            .expect("rank 0 records the kernel");
        event.detail.clone()
    }
    // Full-range keys: 8 digits, so the comparison arm.
    let wide = decision(|r| uniform_u64(5000, 42, r));
    let want = if sdssort::vsort::available() {
        "comparison (avx512 quicksort, n 5000); "
    } else {
        "comparison (std, n 5000; no avx512); "
    };
    assert!(wide.starts_with(want), "{wide}");
    let records = decision(|r| {
        uniform_u64(5000, 42, r)
            .into_iter()
            .map(|k| Record::new(k, r as u32))
            .collect::<Vec<_>>()
    });
    assert!(
        records.starts_with("comparison (std, n 5000; not u64); "),
        "{records}"
    );
}
