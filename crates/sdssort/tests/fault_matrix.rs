//! Fault-injection matrix: sweep fault specs × workloads × exchange paths
//! and assert that every cell still produces a globally sorted permutation
//! with bounded virtual-time inflation; plus the graceful-degradation
//! (spill) scenarios and the faults-layer observer-purity guarantee.

use mpisim::{Communicator, FaultSpec, NetModel, World};
use sdssort::external::{write_run, RunMerger};
use sdssort::record::Pad;
use sdssort::{
    is_globally_sorted, is_permutation_of, sds_sort, sds_sort_resilient, ComputeModel, OrderedF32,
    Record, SdsConfig, SortError, SortStats, Sortable, Tagged, SPILL_PRESSURE,
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
    keys(kind, N, rank)
}

fn keys(kind: &str, n: usize, rank: usize) -> Vec<u64> {
    match kind {
        "uniform" => workloads::uniform::uniform_u64(n, 11, rank),
        "zipf" => workloads::zipf::zipf_keys(n, 1.2, 13, rank),
        "adversarial" => workloads::adversarial::heavy_hitters(n, 3, 60.0, 17, rank),
        "eight-keys" => (0..n as u64).map(|i| (i * 7 + rank as u64) % 8).collect(),
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
            "stall+slow",
            FaultSpec::parse("seed=3,stall=2:0.2:2e-4,slow=3:1.5").expect("spec"),
        ),
        (
            "sendbuf",
            FaultSpec::parse("seed=4,sendbuf=0.3:3:2e-5").expect("spec"),
        ),
        (
            "combined",
            FaultSpec::parse("seed=5,delay=0.2:2e-5,stall=3:0.1:1e-4,sendbuf=0.2:2:1e-5")
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
    let spec = FaultSpec::parse("seed=9,delay=0.5:4e-5,stall=2:0.3:1e-4,sendbuf=0.2:2:1e-5")
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
    let spill_dir = dir.clone();
    let report = World::new(P)
        .cores_per_node(3)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .memory_budget(BUDGET)
        .faults(ramp)
        .run(move |comm| {
            let input = workload("uniform", comm.rank());
            let out = sds_sort_resilient(comm, input.clone(), &cfg, &spill_dir)
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

/// The record shapes the spill path is held to: bare keys, the padded
/// 16-byte record of the stability tests, and the cosmology record.
trait Spillable: Sortable + PartialEq + std::fmt::Debug {
    /// A record with `key` (reduced to few distinct values, so ties are
    /// everywhere) that carries its global input position `pos`.
    fn make(key: u64, pos: u64) -> Self;
    fn hash(&self) -> u64;
}

impl Spillable for u64 {
    fn make(key: u64, _pos: u64) -> Self {
        key
    }
    fn hash(&self) -> u64 {
        *self
    }
}

impl Spillable for Tagged<u32> {
    fn make(key: u64, pos: u64) -> Self {
        Record::new((key % 61) as u32, pos)
    }
    fn hash(&self) -> u64 {
        u64::from(self.key) << 40 ^ self.payload
    }
}

impl Spillable for Record<OrderedF32, Pad<24>> {
    fn make(key: u64, pos: u64) -> Self {
        let mut pad = [0u8; 24];
        pad[..8].copy_from_slice(&pos.to_ne_bytes());
        pad[8..16].copy_from_slice(&(!pos).to_ne_bytes());
        Record::new(OrderedF32::new((key % 61) as f32 - 30.5), Pad(pad))
    }
    fn hash(&self) -> u64 {
        let pos: [u8; 8] = self.payload.0[..8].try_into().expect("8 bytes");
        u64::from(self.key.ordered_bits()) << 40 ^ u64::from_ne_bytes(pos)
    }
}

/// One scenario of the resilient driver: `n` records of `kind` per rank on
/// `p` ranks, under a budget of `budget_records` records (`None`: unlimited).
/// A rank spills when its receive buffer would not fit or would put it over
/// [`SPILL_PRESSURE`] of that budget.
#[derive(Clone, Copy)]
struct SpillCase {
    tag: &'static str,
    p: usize,
    n: usize,
    kind: &'static str,
    budget_records: Option<usize>,
}

/// Run `case` on records of `T`, fast or stable, and hold it to the plain
/// driver without a budget: sorted, a permutation, and every rank's output
/// equal to `sds_sort`'s record for record (below `τs` both merge the chunks
/// in source-rank order, so the fast variant has no freedom either). The
/// spill directory must be left without a file. Returns each rank's output
/// and stats.
fn resilient_equals_plain<T: Spillable>(
    case: SpillCase,
    stable: bool,
) -> (Vec<Vec<T>>, Vec<SortStats>) {
    let mut cfg = base_cfg(false);
    cfg.stable = stable;
    let cfg = cfg;
    let input = move |rank: usize| -> Vec<T> {
        keys(case.kind, case.n, rank)
            .into_iter()
            .enumerate()
            .map(|(i, key)| T::make(key, (rank * case.n + i) as u64))
            .collect()
    };
    let world = || {
        World::new(case.p)
            .cores_per_node(3)
            .net(NetModel::edison())
            .compute_scale(0.0)
    };
    let dir = spill_dir(case.tag);
    let spill_dir = dir.clone();
    let budgeted = match case.budget_records {
        Some(records) => world().memory_budget(records * std::mem::size_of::<T>()),
        None => world(),
    };
    let resilient = budgeted.run(move |comm| {
        let data = input(comm.rank());
        let out = sds_sort_resilient(comm, data.clone(), &cfg, &spill_dir).expect("survives");
        assert!(is_globally_sorted(comm, &out.data));
        assert!(is_permutation_of(comm, &data, &out.data, T::hash));
        if out.stats.spilled {
            assert_eq!(out.stats.spill_records, out.stats.recv_count);
        }
        (out.data, out.stats)
    });
    let plain = world().run(move |comm| {
        sds_sort(comm, input(comm.rank()), &cfg)
            .expect("no budget")
            .data
    });
    let what = format!(
        "{} as {}, stable={stable}",
        case.tag,
        std::any::type_name::<T>()
    );
    let (outputs, stats): (Vec<Vec<T>>, Vec<SortStats>) = resilient.results.into_iter().unzip();
    for (rank, (spilled, plain)) in outputs.iter().zip(&plain.results).enumerate() {
        assert_eq!(spilled, plain, "{what}: rank {rank} differs from sds_sort");
    }
    if let Ok(left) = std::fs::read_dir(&dir) {
        let files = left
            .flatten()
            .flat_map(|rank| std::fs::read_dir(rank.path()));
        assert_eq!(files.flatten().count(), 0, "{what}: run files left behind");
    }
    let _ = std::fs::remove_dir_all(&dir);
    (outputs, stats)
}

/// `check` on every record shape, fast and stable.
fn for_every_shape(case: SpillCase, check: fn(&str, &[SortStats])) {
    type Cosmology = Record<OrderedF32, Pad<24>>;
    for stable in [false, true] {
        check("u64", &resilient_equals_plain::<u64>(case, stable).1);
        check(
            "Tagged<u32>",
            &resilient_equals_plain::<Tagged<u32>>(case, stable).1,
        );
        check(
            "cosmology",
            &resilient_equals_plain::<Cosmology>(case, stable).1,
        );
    }
}

#[test]
fn pressure_threshold_triggers_spill_without_faults() {
    // No fault layer at all: a budget that still holds a rank's whole
    // receive buffer, but not under `SPILL_PRESSURE`, makes the resilient
    // driver degrade.
    const BUDGET: usize = 9 * N / 8;
    let case = SpillCase {
        tag: "threshold",
        p: P,
        n: N,
        kind: "uniform",
        budget_records: Some(BUDGET),
    };
    for_every_shape(case, |shape, stats| {
        assert!(
            stats.iter().any(|s| {
                let pressure = s.recv_count as f64 / BUDGET as f64;
                s.spilled && pressure > SPILL_PRESSURE && pressure <= 1.0
            }),
            "{shape}: the threshold must trip on a buffer that fits"
        );
    });
}

#[test]
fn resilient_matches_plain_when_memory_is_ample() {
    // With an unlimited budget the resilient driver takes the in-memory
    // path on every rank and must agree with the plain driver record for
    // record (both merge source chunks in rank order).
    let case = SpillCase {
        tag: "ample",
        p: P,
        n: N,
        kind: "zipf",
        budget_records: None,
    };
    for_every_shape(case, |shape, stats| {
        assert!(
            stats.iter().all(|s| !s.spilled),
            "{shape}: nothing to spill"
        );
    });
}

#[test]
fn spill_path_preserves_stability() {
    // Duplicate-heavy keys forced through the spill path, with chunks longer
    // than a run file holds (external.rs cuts them every 2^16 records), so
    // one source's records come back from several runs: equal keys must
    // keep global input order (rank, then local position).
    const RUN_RECORDS: usize = 1 << 16;
    let case = SpillCase {
        tag: "stable",
        p: 2,
        n: 3 * RUN_RECORDS,
        kind: "eight-keys",
        // the ranks receive 3.75 and 2.25 × 2^16 records, each in two
        // chunks: every chunk fits, no whole receive buffer does
        budget_records: Some(2 * RUN_RECORDS),
    };
    for_every_shape(case, |shape, stats| {
        assert!(
            stats.iter().all(|s| s.spilled),
            "{shape}: the budget must force every rank through the spill path"
        );
        let most = stats.iter().map(|s| s.spill_records).max();
        assert!(most > Some(2 * RUN_RECORDS), "{shape}: no chunk was cut");
    });
    let (outputs, _) = resilient_equals_plain::<Tagged<u32>>(case, true);
    let all: Vec<Tagged<u32>> = outputs.into_iter().flatten().collect();
    assert_eq!(all.len(), case.p * case.n);
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
}

#[test]
fn a_run_file_that_comes_back_short_fails_the_merge_naming_the_file() {
    // A spilled run knows its record count: fewer coming back (a cut file,
    // a length that is no whole number of records, bytes that do not
    // decode) is an i/o error, never a shorter output.
    let dir = spill_dir("cut");
    let path = dir.join("cut.bin");
    let data: Vec<u64> = (0..1000).collect();
    let cut_to = |len: u64| {
        let run = write_run(&data, &path).expect("write");
        let file = std::fs::OpenOptions::new().write(true).open(&path);
        file.expect("open").set_len(len).expect("truncate");
        let merged = RunMerger::<u64>::new(std::slice::from_ref(&run))
            .and_then(|merger| merger.collect::<std::io::Result<Vec<u64>>>());
        let err = merged.expect_err("a short run must not merge");
        assert!(err.to_string().contains("cut.bin"), "{err}");
    };
    cut_to(600 * 8 + 3);
    cut_to(0);
    // A `bool` payload that is neither 0 nor 1 does not decode.
    let flags = [Record::new(1u8, true), Record::new(2, false)];
    let run = write_run(&flags, &path).expect("write");
    std::fs::write(&path, [1, 1, 2, 7]).expect("overwrite");
    let err = RunMerger::<Record<u8, bool>>::new(std::slice::from_ref(&run))
        .err()
        .expect("undecodable");
    assert!(err.to_string().contains("cut.bin"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
