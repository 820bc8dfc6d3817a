//! Observer purity: enabling telemetry must not change *anything* about a
//! sort — outputs, per-rank virtual clocks, makespan, or message totals
//! are bit-identical with the recorder on or off. The recorder only reads
//! clocks (through its callers) and never advances them.
//!
//! Determinism preconditions: modeled compute charging (no wall-clock
//! measurement), `compute_scale(0.0)` (no measured residue), and `τo = 0`
//! (the overlapped exchange consumes chunks in arrival order, which is
//! schedule-dependent).

use mpisim::{Communicator, NetModel, World};
use sdssort::{sds_sort, ComputeModel, SdsConfig};

/// Deterministic per-rank input: a mix of a shared heavy key (exercises
/// the duplicate machinery) and rank-salted spread keys.
fn gen(rank: usize, n: usize) -> Vec<u64> {
    let mut z = 0x9E37_79B9u64.wrapping_mul(rank as u64 + 1);
    (0..n)
        .map(|_| {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if z.is_multiple_of(4) {
                42 // heavy hitter shared by every rank
            } else {
                z >> 16
            }
        })
        .collect()
}

#[derive(Debug, PartialEq)]
struct RunResult {
    outputs: Vec<Vec<u64>>,
    per_rank_time_bits: Vec<u64>,
    makespan_bits: u64,
    messages: u64,
    bytes: u64,
}

fn run(telemetry: bool, cfg: &SdsConfig) -> RunResult {
    let cfg = *cfg;
    let report = World::new(8)
        .cores_per_node(4)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .telemetry(telemetry)
        .run(move |comm| {
            let data = gen(comm.rank(), 500);
            sds_sort(comm, data, &cfg).expect("no memory budget").data
        });
    RunResult {
        outputs: report.results.clone(),
        per_rank_time_bits: report.per_rank_time.iter().map(|t| t.to_bits()).collect(),
        makespan_bits: report.makespan.to_bits(),
        messages: report.messages,
        bytes: report.bytes,
    }
}

fn purity_case(cfg: &SdsConfig) {
    let off = run(false, cfg);
    let on = run(true, cfg);
    assert_eq!(on, off, "telemetry must be a pure observer");
    // And the baseline run itself is reproducible (guards against the test
    // comparing two equally-nondeterministic runs by luck).
    assert_eq!(run(false, cfg), off, "baseline run must be deterministic");
}

fn base_cfg() -> SdsConfig {
    let mut cfg = SdsConfig::modeled(ComputeModel::nominal());
    cfg.tau_o = 0; // overlapped exchange is schedule-dependent
    cfg
}

#[test]
fn identical_with_and_without_telemetry() {
    let mut cfg = base_cfg();
    cfg.tau_m_bytes = 0; // no node merging
    purity_case(&cfg);
}

#[test]
fn identical_when_node_merging_runs() {
    let mut cfg = base_cfg();
    cfg.tau_m_bytes = usize::MAX; // force the node-merge path
    purity_case(&cfg);
}

#[test]
fn identical_for_stable_variant() {
    let mut cfg = base_cfg();
    cfg.stable = true;
    cfg.tau_m_bytes = 0;
    purity_case(&cfg);
}

#[test]
fn telemetry_run_actually_recorded() {
    // Sanity for the purity tests above: the telemetry-on run is not
    // trivially equal because recording silently failed to happen.
    let mut cfg = base_cfg();
    cfg.tau_m_bytes = 0;
    let cfg2 = cfg;
    let report = World::new(8)
        .cores_per_node(4)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .telemetry(true)
        .run(move |comm| {
            let data = gen(comm.rank(), 500);
            sds_sort(comm, data, &cfg2)
                .expect("no memory budget")
                .data
                .len()
        });
    let snap = report.telemetry.expect("telemetry enabled");
    assert!(snap.total_messages() > 0, "recorder saw traffic");
    assert!(snap.spans.iter().any(|s| s.name == "pivot-select"));
    assert!(snap.spans.iter().any(|s| s.name == "exchange"));
    assert!(snap.spans.iter().any(|s| s.name == "local-order"));
    assert!(snap.phases.iter().any(|p| p.name == "exchange"));
}
