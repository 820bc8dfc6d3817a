//! Fig. 8's qualitative result under the fault layer's memory-pressure
//! ramp: HykSort (which must hold its full receive volume in memory) still
//! crashes with OOM, while the resilient SDS-Sort driver degrades to disk
//! spilling and completes correctly.

use baselines::{hyksort, HykSortConfig};
use mpisim::{Communicator, FaultSpec, NetModel, World};
use sdssort::{
    is_globally_sorted, sds_sort_resilient, ComputeModel, ResilienceConfig, SdsConfig, SortError,
};

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
fn resilient_sds_sort_survives_the_same_ramp() {
    let dir = std::env::temp_dir().join(format!("baselines-degradation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rcfg = ResilienceConfig::new(dir.clone());
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
            let out = sds_sort_resilient(comm, input(comm.rank()), &cfg, &rcfg)
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
