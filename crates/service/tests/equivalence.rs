//! Service jobs are bit-identical to standalone threads-backend sorts.
//!
//! N jobs submitted concurrently from several client handles must produce
//! exactly the per-rank output a sequence of one-shot `ThreadWorld` runs
//! produces for the same `(workload, size, seed)` — the service's rank
//! pool, split contexts, and arena recycling must be invisible in the
//! output.

use sdssort::{sds_sort, SdsConfig};
use service::{JobOutcome, JobSpec, ServiceConfig, SortService};
use shmem::ThreadWorld;

const RANKS: usize = 4;

fn reference_run(spec: &JobSpec) -> Vec<Vec<u64>> {
    let spec = spec.clone();
    let report = ThreadWorld::new(RANKS).run(move |comm| {
        use comm::Communicator;
        let keys = workloads::keys_by_name(
            &spec.workload,
            spec.records_per_rank,
            spec.seed,
            comm.rank(),
        )
        .expect("known workload");
        sds_sort(comm, keys, &SdsConfig::default())
            .expect("no memory budget set")
            .data
    });
    report.results
}

#[test]
fn concurrent_service_jobs_match_sequential_oneshot_runs() {
    let specs: Vec<JobSpec> = vec![
        JobSpec::new("uniform", 3_000, 11).with_output(),
        JobSpec::new("zipf:0.8", 2_500, 12).with_output(),
        JobSpec::new("adversarial", 2_000, 13).with_output(),
        JobSpec::new("ptf-like", 1_500, 14).with_output(),
        JobSpec::new("zipf:0.5", 3_500, 15).with_output(),
        JobSpec::new("uniform", 1_000, 16).with_output(),
        JobSpec::new("zipf:0.9", 2_000, 17).with_output(),
        JobSpec::new("uniform", 2_000, 11).with_output(),
    ];

    let svc = SortService::start(ServiceConfig::new(RANKS));
    // Two concurrent client handles interleave their submissions; results
    // come back per ticket, so interleaving cannot mix up jobs.
    let tickets: Vec<_> = std::thread::scope(|scope| {
        let halves: Vec<_> = specs
            .chunks(4)
            .map(|chunk| {
                let client = svc.client();
                let chunk = chunk.to_vec();
                scope.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|spec| client.submit(spec).expect("service accepting"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread"))
            .collect()
    });

    let mut by_id: Vec<(u64, Vec<Vec<u64>>)> = tickets
        .into_iter()
        .map(|t| {
            let id = t.id();
            match t.wait() {
                JobOutcome::Sorted { output, report } => {
                    assert!(report.sort_wall_s >= 0.0);
                    // The pivot phase's parts are one rank's: they sum to it.
                    let parts = report.local_sort_s
                        + report.sample_s
                        + report.select_s
                        + report.partition_s;
                    assert!((parts - report.pivot_s).abs() < 1e-9, "{report:?}");
                    assert!(report.local_sort_s > 0.0, "{report:?}");
                    (id, output.expect("with_output jobs return data"))
                }
                other => panic!("job {id} did not sort: {other:?}"),
            }
        })
        .collect();
    by_id.sort_by_key(|&(id, _)| id);

    // Submission interleaving means job ids don't map to `specs` order —
    // but each ticket's id was assigned at package time per client, and
    // within one client the order is the chunk order. Re-derive the spec
    // for each id by matching total record counts + verifying against the
    // reference of every spec. Simpler and airtight: compare as multisets
    // keyed by the reference output itself.
    let mut expected: Vec<Vec<Vec<u64>>> = specs.iter().map(reference_run).collect();
    for (id, got) in by_id {
        let pos = expected
            .iter()
            .position(|e| *e == got)
            .unwrap_or_else(|| panic!("job {id} output matches no sequential reference run"));
        expected.remove(pos);
    }
    assert!(
        expected.is_empty(),
        "every reference run matched exactly once"
    );

    let report = svc.shutdown();
    assert_eq!(report.counters.completed, specs.len() as u64);
    assert!(report.counters.balanced());
}

#[test]
fn steady_state_jobs_recycle_arena_buffers() {
    let mut cfg = ServiceConfig::new(2);
    cfg.arena_buffers_per_rank = 2;
    let svc = SortService::start(cfg);
    let client = svc.client();
    for i in 0..6u64 {
        // No output requested: sorted buffers return to the arena.
        let t = client
            .submit(JobSpec::new("uniform", 2_000, 100 + i))
            .expect("accepting");
        match t.wait() {
            JobOutcome::Sorted { .. } => {}
            other => panic!("steady-state job failed: {other:?}"),
        }
    }
    let c = svc.counters();
    assert!(
        c.arena_hits >= 8,
        "steady state must serve takes from the pool (hits {}, misses {})",
        c.arena_hits,
        c.arena_misses
    );
    // Warm-up misses only: one per rank-buffer actually needed.
    assert!(
        c.arena_misses <= 4,
        "misses {} exceed warm-up",
        c.arena_misses
    );
    svc.shutdown();
}
