//! Fig. 8's qualitative result under the fault layer's memory-pressure
//! ramp: HykSort (which must hold its full receive volume in memory) still
//! crashes with OOM, while the resilient SDS-Sort driver degrades to disk
//! spilling and completes correctly.

use algos::{hyksort, HykSortConfig};
use mpisim::{Communicator, FaultSpec, NetModel, World};
use sdssort::{is_globally_sorted, sds_sort_resilient, ComputeModel, SdsConfig, SortError};

const P: usize = 6;
const N: usize = 300;

fn input(rank: usize) -> Vec<u64> {
    workloads::zipf::zipf_keys(N, 1.1, 23, rank)
}

// ~1.25× the balanced receive volume; the ramp withholds half of it.
const BUDGET: usize = 5 * N * 8 / 4;

fn ramp() -> FaultSpec {
    FaultSpec::parse("ramp=0:0:0.5").expect("spec")
}

#[test]
fn hyksort_still_ooms_under_memory_ramp() {
    let report = World::new(P)
        .cores_per_node(3)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .memory_budget(BUDGET)
        .faults(ramp())
        .run(|comm| {
            let mut cfg = HykSortConfig {
                charge: sdssort::ComputeCharge::Modeled(ComputeModel::nominal()),
                ..HykSortConfig::default()
            };
            cfg.k = 2;
            hyksort(comm, input(comm.rank()), &cfg).map(|o| o.data)
        });
    assert!(
        report
            .results
            .iter()
            .all(|r| matches!(r, Err(SortError::Oom(_)) | Err(SortError::PeerOom))),
        "HykSort has no degradation path; the ramp must crash it everywhere"
    );
}

#[test]
fn hyksort_group_level_oom_fails_every_rank() {
    // k = 4 over p = 16: the first stage fits everywhere, the second stage's
    // memory check is each group's own and only group 0 fails it. The other
    // three groups used to return Ok and hang in the next world collective,
    // which the deadlock detector turns into a panic here.
    let report = World::new(16)
        .cores_per_node(4)
        .memory_budget(100_000)
        .run(|comm| {
            let cfg = HykSortConfig {
                k: 4,
                ..HykSortConfig::default()
            };
            let data = workloads::zipf::zipf_keys(4000, 1.4, 42, comm.rank());
            hyksort(comm, data, &cfg).map(|out| is_globally_sorted(comm, &out.data))
        });
    for (rank, r) in report.results.iter().enumerate() {
        assert!(
            matches!(r, Err(SortError::Oom(_) | SortError::PeerOom)),
            "rank {rank} must fail with group 0: {r:?}"
        );
    }
    assert!(report
        .results
        .iter()
        .any(|r| matches!(r, Err(SortError::Oom(_)))));
}

#[test]
fn resilient_sds_sort_survives_the_same_ramp() {
    let dir = std::env::temp_dir().join(format!("hyksort-degradation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spill_dir = dir.clone();
    let report = World::new(P)
        .cores_per_node(3)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .memory_budget(BUDGET)
        .faults(ramp())
        .run(move |comm| {
            let mut cfg = SdsConfig::modeled(ComputeModel::nominal());
            cfg.tau_m_bytes = 0;
            cfg.tau_o = 0;
            let out = sds_sort_resilient(comm, input(comm.rank()), &cfg, &spill_dir)
                .expect("resilient driver survives the ramp HykSort dies under");
            (
                is_globally_sorted(comm, &out.data),
                out.stats.spilled,
                out.data.len(),
            )
        });
    assert!(report.results.iter().all(|r| r.0));
    assert!(report.results.iter().any(|r| r.1), "someone spilled");
    let total: usize = report.results.iter().map(|r| r.2).sum();
    assert_eq!(total, P * N);
    let _ = std::fs::remove_dir_all(&dir);
}
