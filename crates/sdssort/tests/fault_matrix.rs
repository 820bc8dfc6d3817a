//! Fault-injection matrix: sweep fault specs × workloads × exchange paths
//! and assert that every cell still produces a globally sorted permutation
//! with bounded virtual-time inflation; plus the graceful-degradation
//! (spill) scenarios and the faults-layer observer-purity guarantee.

use mpisim::{Communicator, FaultSpec, NetModel, World};
use sdssort::{
    is_globally_sorted, is_permutation_of, sds_sort, sds_sort_resilient, ComputeModel, Record,
    ResilienceConfig, SdsConfig, SortError,
};
use std::path::PathBuf;

const P: usize = 6;
const N: usize = 300;

fn base_cfg(overlap: bool) -> SdsConfig {
    let mut cfg = SdsConfig::modeled(ComputeModel::nominal());
    cfg.tau_m_bytes = 0; // keep every rank active (no node merging)
    cfg.tau_o = if overlap { usize::MAX } else { 0 };
    cfg
}

fn workload(kind: &str, rank: usize) -> Vec<u64> {
    match kind {
        "uniform" => workloads::uniform::uniform_u64(N, 11, rank),
        "zipf" => workloads::zipf::zipf_keys(N, 1.2, 13, rank),
        "adversarial" => workloads::adversarial::heavy_hitters(N, 3, 60.0, 17, rank),
        other => panic!("unknown workload {other}"),
    }
}

struct Cell {
    sorted: bool,
    permutation: bool,
    makespan: f64,
    messages: u64,
    outputs: Vec<Vec<u64>>,
}

fn run_cell(spec: Option<FaultSpec>, kind: &'static str, overlap: bool) -> Cell {
    let cfg = base_cfg(overlap);
    let mut world = World::new(P)
        .cores_per_node(3)
        .net(NetModel::edison())
        .compute_scale(0.0);
    if let Some(s) = spec {
        world = world.faults(s);
    }
    let report = world.run(move |comm| {
        let input = workload(kind, comm.rank());
        let out = sds_sort(comm, input.clone(), &cfg).expect("no memory budget set");
        let sorted = is_globally_sorted(comm, &out.data);
        let perm = is_permutation_of(comm, &input, &out.data, |&k| k);
        (sorted, perm, out.data)
    });
    Cell {
        sorted: report.results.iter().all(|r| r.0),
        permutation: report.results.iter().all(|r| r.1),
        makespan: report.makespan,
        messages: report.messages,
        outputs: report.results.into_iter().map(|r| r.2).collect(),
    }
}

fn specs() -> Vec<(&'static str, FaultSpec)> {
    vec![
        (
            "delay",
            FaultSpec::parse("seed=1,delay=0.4:5e-5").expect("spec"),
        ),
        (
            "reorder",
            FaultSpec::parse("seed=2,reorder=0.5:6").expect("spec"),
        ),
        (
            "stall+slow",
            FaultSpec::parse("seed=3,stall=2:0.2:2e-4,slow=3:1.5").expect("spec"),
        ),
        (
            "sendbuf",
            FaultSpec::parse("seed=4,sendbuf=0.3:3:2e-5").expect("spec"),
        ),
        (
            "combined",
            FaultSpec::parse(
                "seed=5,delay=0.2:2e-5,reorder=0.3:4,stall=3:0.1:1e-4,sendbuf=0.2:2:1e-5",
            )
            .expect("spec"),
        ),
    ]
}

/// Inflation bound for a faulted run against its clean twin: slowdown can
/// scale every charge, and each message can pay at most
/// `worst_case_per_message_s` on each of a handful of hooks (send, stall
/// on send, stall on receive). Generous but finite.
fn makespan_bound(clean: &Cell, spec: &FaultSpec) -> f64 {
    let slow = if spec.slow_every > 0 {
        spec.slow_factor.max(1.0)
    } else {
        1.0
    };
    clean.makespan * slow
        + (6 * clean.messages + 64) as f64 * spec.worst_case_per_message_s()
        + 1e-3
}

#[test]
fn matrix_sorts_under_every_fault_spec() {
    for overlap in [false, true] {
        for kind in ["uniform", "zipf", "adversarial"] {
            let clean = run_cell(None, kind, overlap);
            assert!(clean.sorted && clean.permutation, "clean {kind} failed");
            for (name, spec) in specs() {
                let cell = run_cell(Some(spec), kind, overlap);
                assert!(
                    cell.sorted,
                    "{kind}/{name}/overlap={overlap}: output not globally sorted"
                );
                assert!(
                    cell.permutation,
                    "{kind}/{name}/overlap={overlap}: output not a permutation of the input"
                );
                let bound = makespan_bound(&clean, &spec);
                assert!(
                    cell.makespan <= bound,
                    "{kind}/{name}/overlap={overlap}: makespan {} exceeds inflation bound {} \
                     (clean {})",
                    cell.makespan,
                    bound,
                    clean.makespan
                );
            }
        }
    }
}

#[test]
fn same_seed_reproduces_clocks_and_outputs() {
    // The synchronous path receives from exact sources, so fault decisions
    // (per-sender program order) make the whole run deterministic.
    let spec =
        FaultSpec::parse("seed=9,delay=0.5:4e-5,reorder=0.4:5,stall=2:0.3:1e-4,sendbuf=0.2:2:1e-5")
            .expect("spec");
    let a = run_cell(Some(spec), "zipf", false);
    let b = run_cell(Some(spec), "zipf", false);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "same fault seed must reproduce virtual time exactly"
    );
    assert_eq!(a.messages, b.messages);
}

#[test]
fn disabled_faults_are_bit_identical_to_no_faults_layer() {
    // Observer purity, extended from the telemetry layer to faults: a world
    // built with the inert spec must match a world built without the layer
    // bit for bit (outputs, makespan, message totals).
    let without = run_cell(None, "zipf", false);
    let inert = run_cell(Some(FaultSpec::none()), "zipf", false);
    assert_eq!(without.outputs, inert.outputs);
    assert_eq!(
        without.makespan.to_bits(),
        inert.makespan.to_bits(),
        "an inert fault layer must not perturb virtual time"
    );
    assert_eq!(without.messages, inert.messages);
}

fn spill_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sdssort-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

// Each rank contributes N records of 8 bytes; budgets below are sized so a
// balanced exchange (~N records back) cannot be held in memory once the
// ramp withholds half the budget, but a single staged chunk still fits.
const BUDGET: usize = 5 * N * 8 / 4; // 1.25× the expected receive buffer

#[test]
fn memory_ramp_kills_plain_sort_but_resilient_survives() {
    let ramp = FaultSpec::parse("ramp=0:0:0.5").expect("spec");

    // Plain sds_sort under the ramp: effective budget is half, the receive
    // buffer no longer fits anywhere, the job dies (the paper's crash).
    let cfg = base_cfg(false);
    let report = World::new(P)
        .cores_per_node(3)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .memory_budget(BUDGET)
        .faults(ramp)
        .run(move |comm| sds_sort(comm, workload("uniform", comm.rank()), &cfg).map(|o| o.data));
    assert!(
        report
            .results
            .iter()
            .any(|r| matches!(r, Err(SortError::Oom(_)))),
        "some rank must report the OOM directly"
    );
    assert!(
        report.results.iter().all(|r| r.is_err()),
        "an OOM is a whole-job crash for the plain driver"
    );

    // The resilient driver under the identical ramp spills and completes.
    let cfg = base_cfg(false);
    let dir = spill_dir("ramp");
    let rcfg = ResilienceConfig::new(dir.clone());
    let report = World::new(P)
        .cores_per_node(3)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .memory_budget(BUDGET)
        .faults(ramp)
        .run(move |comm| {
            let input = workload("uniform", comm.rank());
            let out = sds_sort_resilient(comm, input.clone(), &cfg, &rcfg)
                .expect("resilient driver must survive the ramp");
            let sorted = is_globally_sorted(comm, &out.data);
            let perm = is_permutation_of(comm, &input, &out.data, |&k| k);
            (sorted, perm, out.stats)
        });
    assert!(report.results.iter().all(|r| r.0 && r.1));
    assert!(
        report.results.iter().any(|r| r.2.spilled),
        "at least one rank must have degraded to spilling"
    );
    for r in &report.results {
        if r.2.spilled {
            assert_eq!(r.2.spill_records, r.2.recv_count);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pressure_threshold_triggers_spill_without_faults() {
    // No fault layer at all: a tight budget alone pushes the projected
    // high-water over the threshold and the resilient driver degrades.
    let cfg = base_cfg(false);
    let dir = spill_dir("threshold");
    let mut rcfg = ResilienceConfig::new(dir.clone());
    rcfg.pressure_threshold = 0.5; // receive buffer lands at ~0.8 of budget
    let report = World::new(P)
        .cores_per_node(3)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .memory_budget(BUDGET)
        .run(move |comm| {
            let input = workload("uniform", comm.rank());
            let out = sds_sort_resilient(comm, input.clone(), &cfg, &rcfg).expect("survives");
            (
                is_globally_sorted(comm, &out.data),
                is_permutation_of(comm, &input, &out.data, |&k| k),
                out.stats.spilled,
            )
        });
    assert!(report.results.iter().all(|r| r.0 && r.1));
    assert!(report.results.iter().any(|r| r.2), "threshold must trip");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resilient_matches_plain_when_memory_is_ample() {
    // With an unlimited budget the resilient driver takes the in-memory
    // path on every rank and must agree with the plain driver record for
    // record (both merge source chunks in rank order).
    let cfg = base_cfg(false);
    let dir = spill_dir("ample");
    let rcfg = ResilienceConfig::new(dir.clone());
    let resilient = World::new(P)
        .cores_per_node(3)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .run(move |comm| {
            let out = sds_sort_resilient(comm, workload("zipf", comm.rank()), &cfg, &rcfg)
                .expect("no budget");
            assert!(!out.stats.spilled);
            out.data
        });
    let cfg = base_cfg(false);
    let plain = World::new(P)
        .cores_per_node(3)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .run(move |comm| {
            sds_sort(comm, workload("zipf", comm.rank()), &cfg)
                .expect("no budget")
                .data
        });
    assert_eq!(resilient.results, plain.results);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_path_preserves_stability() {
    // Stable sort with duplicate-heavy keys, forced through the spill path:
    // equal keys must keep global input order (rank, then local position).
    let mut cfg = base_cfg(false);
    cfg.stable = true;
    let dir = spill_dir("stable");
    let mut rcfg = ResilienceConfig::new(dir.clone());
    rcfg.pressure_threshold = 0.0; // any nonzero pressure spills
    rcfg.spill_chunk_records = 64; // many runs per chunk
    let report = World::new(4)
        .cores_per_node(2)
        .net(NetModel::edison())
        .compute_scale(0.0)
        // a finite budget makes pressure nonzero, tripping the threshold
        .memory_budget(1 << 20)
        .run(move |comm| {
            let n = 500usize;
            let rank = comm.rank() as u64;
            // 8 distinct keys, payload encodes global input position
            let input: Vec<Record<u64, u64>> = (0..n)
                .map(|i| Record::new((i as u64 * 7 + rank) % 8, rank * n as u64 + i as u64))
                .collect();
            let out = sds_sort_resilient(comm, input, &cfg, &rcfg).expect("survives");
            assert!(out.stats.spilled, "threshold 0 must force the spill path");
            out.data
        });
    let all: Vec<Record<u64, u64>> = report.results.iter().flatten().copied().collect();
    assert_eq!(all.len(), 4 * 500);
    assert!(all.windows(2).all(|w| w[0].key <= w[1].key), "sorted");
    for w in all.windows(2) {
        if w[0].key == w[1].key {
            assert!(
                w[0].payload < w[1].payload,
                "stability violated for key {}: payload {} before {}",
                w[0].key,
                w[0].payload,
                w[1].payload
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
