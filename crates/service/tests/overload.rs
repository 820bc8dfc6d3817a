//! Overload behavior: jobs sized against the resident world's memory
//! budget run in memory, spill, or shed; a saturated queue applies
//! backpressure; a job whose exchange overruns the budget fails with the
//! OOM — and every accepted job still resolves explicitly.

use sdssort::PartitionStrategy;
use service::{JobOutcome, JobSpec, ServiceConfig, SortService, TrySubmitError};

/// Per-rank budget of the services below, in records of 8 bytes.
const BUDGET_RECORDS: usize = 10_000;

#[test]
fn budget_sized_jobs_degrade_gracefully_without_silent_drops() {
    let spill_dir = std::env::temp_dir().join("sds-service-overload-test");
    let mut cfg = ServiceConfig::new(2);
    cfg.queue_capacity = 4;
    cfg.spill_dir = spill_dir.clone();
    cfg.memory_budget = BUDGET_RECORDS * 8;
    let svc = SortService::start(cfg);

    // Each client submits one job of each regime, sized as a share of the
    // per-rank budget: 0.3 runs in memory, 0.9 is over the resilient
    // sort's 0.8 and spills on the ranks that receive at least their
    // share, 1.0 is over 0.95 and sheds.
    let sizes = [3_000, 9_000, 10_000];
    let tickets: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let client = svc.client();
                scope.spawn(move || {
                    (0..3u64)
                        .map(|i| {
                            // Blocking submit: a full queue parks this
                            // thread instead of dropping the job.
                            let spec = JobSpec::new("zipf:0.8", sizes[i as usize], c * 10 + i);
                            client.submit(spec).expect("service accepting")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread"))
            .collect()
    });
    assert_eq!(tickets.len(), 12);

    let (mut completed, mut spilled, mut shed, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for t in tickets {
        match t.wait() {
            JobOutcome::Sorted { report, .. } => {
                completed += 1;
                if report.spilled {
                    spilled += 1;
                    assert!(report.spill_records > 0, "spilling moved records");
                }
                assert_eq!(
                    report.spilled,
                    report.admit_pressure > 0.8,
                    "job {} admitted at {}",
                    report.id,
                    report.admit_pressure
                );
            }
            JobOutcome::Shed { pressure, .. } => {
                shed += 1;
                assert!(pressure >= 0.95, "shed below the threshold: {pressure}");
            }
            JobOutcome::Failed { id, error } => {
                failed += 1;
                eprintln!("job {id} failed: {error}");
            }
        }
    }
    // Every ticket resolved above — nothing was silently dropped.
    assert_eq!(failed, 0);
    assert_eq!(completed, 8, "the in-memory and the spilling jobs complete");
    assert_eq!(shed, 4, "the 4 jobs of the whole budget shed");
    assert_eq!(spilled, 4, "the 4 jobs over the spill threshold spill");

    let report = svc.shutdown();
    assert!(report.counters.balanced(), "{:?}", report.counters);
    assert_eq!(report.counters.submitted, 12);
    assert_eq!(report.counters.spilled, spilled);
    let _ = std::fs::remove_dir_all(spill_dir);
}

#[test]
fn a_job_over_the_hard_budget_fails_with_the_oom_and_the_next_one_sorts() {
    let mut cfg = ServiceConfig::new(4);
    cfg.memory_budget = BUDGET_RECORDS * 8;
    // The duplicate-blind partition ablation sends every copy of a pivot
    // value to one rank: on zipf:3, whose most frequent key holds over 80 %
    // of the records, that rank receives far more than its share.
    cfg.sort.partition = PartitionStrategy::Classic;
    let svc = SortService::start(cfg);
    let client = svc.client();

    // Admitted in memory at 0.5 of the budget ...
    let skewed = client
        .submit(JobSpec::new("zipf:3", BUDGET_RECORDS / 2, 7))
        .expect("service accepting");
    match skewed.wait() {
        JobOutcome::Failed { error, .. } => {
            assert!(error.contains("OOM on rank"), "{error}");
        }
        other => panic!("the skewed exchange must overrun the budget: {other:?}"),
    }
    // ... and the world it failed on serves the next job.
    let next = client
        .submit(JobSpec::new("uniform", BUDGET_RECORDS / 2, 8).with_output())
        .expect("service accepting");
    match next.wait() {
        JobOutcome::Sorted { report, output } => {
            assert!(!report.spilled);
            let keys: Vec<u64> = output.expect("asked for").concat();
            assert_eq!(keys.len(), 4 * BUDGET_RECORDS / 2);
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        }
        other => panic!("the next job must sort: {other:?}"),
    }
    let report = svc.shutdown();
    assert_eq!((report.counters.failed, report.counters.completed), (1, 1));
    assert!(report.counters.balanced(), "{:?}", report.counters);
}

#[test]
fn saturated_queue_rejects_try_submit_and_resolves_everything() {
    let mut cfg = ServiceConfig::new(2);
    cfg.queue_capacity = 2;
    let svc = SortService::start(cfg);
    let client = svc.client();

    // Burst far past capacity in a tight loop. The dispatcher can absorb
    // at most one job into execution, the queue holds two more, so at
    // least three of these must bounce with QueueFull.
    let mut accepted = Vec::new();
    let mut bounced = 0u64;
    for i in 0..6u64 {
        match client.try_submit(JobSpec::new("uniform", 50_000, i)) {
            Ok(t) => accepted.push(t),
            Err(TrySubmitError::QueueFull) => bounced += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(
        bounced >= 3,
        "backpressure must engage: only {bounced} bounced"
    );
    assert!(!accepted.is_empty());

    let n = accepted.len() as u64;
    for t in accepted {
        match t.wait() {
            JobOutcome::Sorted { .. } => {}
            other => panic!("accepted job must sort: {other:?}"),
        }
    }
    let report = svc.shutdown();
    assert_eq!(report.counters.completed, n);
    assert_eq!(report.counters.queue_full, bounced);
    assert!(report.counters.balanced());
    assert!(report.jobs_per_sec > 0.0);
    assert!(report.latency_p99_s >= report.latency_p50_s);
}
