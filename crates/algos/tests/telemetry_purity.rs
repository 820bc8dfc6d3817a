//! Observer purity: enabling telemetry must not change *anything* about a
//! sort — outputs, per-rank virtual clocks, makespan, or message totals
//! are bit-identical with the recorder on or off. The recorder only reads
//! clocks (through its callers) and never advances them. This holds for
//! every sorter, since all of them run under the one `sdssort::driver` — and
//! what the recorder then holds is the same for all of them: per rank, the
//! driver's steps as gap-free spans whose durations are the `SortStats`
//! phases, and a histogram sorter's refinement rounds as spans nested in
//! its splitter step.
//!
//! Determinism preconditions: modeled compute charging (no wall-clock
//! measurement) and `compute_scale(0.0)` (no measured residue); SDS runs
//! its synchronous exchange (`τo = 0`). HykSort's
//! and the resilient exchange's asynchronous receives take chunks by
//! virtual arrival, so their clocks are compared like everyone else's.

use algos::Tuning;
use mpisim::telemetry::SpanRecord;
use mpisim::{Communicator, NetModel, World};
use sdssort::histogram::ROUND_SPAN;
use sdssort::{sds_sort_resilient, ComputeCharge, ComputeModel, SortOutput, SortStats};
use shmem::ThreadWorld;

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

/// A row of the sorter table, or the resilient SDS driver beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sorter {
    Row(algos::Sorter),
    SdsResilient,
}

impl Sorter {
    fn all() -> impl Iterator<Item = Sorter> {
        let rows = algos::Sorter::ALL.map(Sorter::Row);
        rows.into_iter().chain([Sorter::SdsResilient])
    }

    fn sort<C: Communicator>(self, comm: &C, data: Vec<u64>, tuning: &Tuning) -> SortOutput<u64> {
        match self {
            Sorter::Row(row) => row.sort(comm, data, tuning),
            Sorter::SdsResilient => {
                // No budget is set, so nothing spills.
                let dir = std::env::temp_dir().join("sds-purity-never-written");
                sds_sort_resilient(comm, data, &tuning.sds, &dir)
            }
        }
        .expect("no memory budget")
    }

    /// The steps one rank passes through, in program order (without a node
    /// merge): the prelude, then [sampling →] splitters → partition →
    /// exchange → ordering once per exchange.
    fn steps(self) -> Vec<&'static str> {
        use algos::Sorter::{Ams, Hss, HykSort, Sds, SdsStable};
        let (tau_m, exchanges, samples) = match self {
            Sorter::Row(Sds | SdsStable) | Sorter::SdsResilient => (true, 1, true),
            Sorter::Row(Hss) => (false, 1, false),
            // Two stages; the split that forms the groups opens the second
            // stage's splitter step.
            Sorter::Row(HykSort) => (false, 2, false),
            // Two levels, and the rebalance within the first level's groups.
            Sorter::Row(Ams) => (true, 3, false),
        };
        let mut steps = vec!["local-sort"];
        steps.extend(tau_m.then_some("node-merge"));
        for _ in 0..exchanges {
            steps.extend(samples.then_some("sample"));
            steps.extend(["pivot-select", "partition", "exchange", "local-order"]);
        }
        steps
    }
}

#[derive(Debug, PartialEq)]
struct RunResult {
    outputs: Vec<Vec<u64>>,
    per_rank_time_bits: Vec<u64>,
    makespan_bits: u64,
    messages: u64,
    bytes: u64,
}

fn world(telemetry: bool) -> World {
    World::new(8)
        .cores_per_node(4)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .telemetry(telemetry)
}

fn run(telemetry: bool, sorter: Sorter, tuning: &Tuning) -> RunResult {
    let report = world(telemetry).run(|comm| sorter.sort(comm, gen(comm.rank(), 500), tuning).data);
    RunResult {
        outputs: report.results.clone(),
        per_rank_time_bits: report.per_rank_time.iter().map(|&t| t.to_bits()).collect(),
        makespan_bits: report.makespan.to_bits(),
        messages: report.messages,
        bytes: report.bytes,
    }
}

fn purity_case(sorter: Sorter, tuning: &Tuning) {
    let off = run(false, sorter, tuning);
    let on = run(true, sorter, tuning);
    assert_eq!(on, off, "{sorter:?}: telemetry must be a pure observer");
    // And the baseline run itself is reproducible (guards against the test
    // comparing two equally-nondeterministic runs by luck).
    assert_eq!(
        run(false, sorter, tuning),
        off,
        "{sorter:?}: baseline run must be deterministic"
    );
}

/// Modelled compute, no node merging, and no overlapped SDS exchange;
/// HykSort's `k = 4` over `p = 8` makes two stages,
/// AMS's default `kmax` over four cores per node one group per node, then
/// four groups of one.
fn tuning() -> Tuning {
    let mut t = Tuning::charged(ComputeCharge::Modeled(ComputeModel::nominal()));
    (t.sds.tau_o, t.sds.tau_m_bytes) = (0, 0);
    t.hyksort.k = 4;
    t
}

#[test]
fn identical_with_and_without_telemetry() {
    for sorter in Sorter::all() {
        purity_case(sorter, &tuning());
    }
}

#[test]
fn identical_when_node_merging_runs() {
    let mut t = tuning();
    t.sds.tau_m_bytes = usize::MAX; // force the node-merge path
    purity_case(Sorter::Row(algos::Sorter::Sds), &t);
}

#[test]
fn identical_for_stable_variant() {
    purity_case(Sorter::Row(algos::Sorter::SdsStable), &tuning());
}

/// One rank's recorded spans against the steps it must have passed through
/// and the statistics it reported.
fn assert_spans_are_the_steps(
    sorter: Sorter,
    rank: usize,
    spans: &[SpanRecord],
    stats: &SortStats,
) {
    let (rounds, mut mine): (Vec<&SpanRecord>, Vec<&SpanRecord>) = spans
        .iter()
        .filter(|s| s.rank == rank)
        .partition(|s| s.name == ROUND_SPAN);
    mine.sort_by(|a, b| a.start_v.total_cmp(&b.start_v));
    // Each refinement round lies inside a splitter step.
    let refines = matches!(
        sorter,
        Sorter::Row(algos::Sorter::Hss | algos::Sorter::HykSort)
    );
    assert_eq!(!rounds.is_empty(), refines, "{sorter:?} rank {rank}");
    for round in &rounds {
        assert!(
            mine.iter().any(|s| s.name == "pivot-select"
                && s.start_v <= round.start_v
                && round.end_v <= s.end_v),
            "{sorter:?} rank {rank}: a refinement round outside pivot-select"
        );
    }
    let names: Vec<&str> = mine.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, sorter.steps(), "{sorter:?} rank {rank}");
    for pair in mine.windows(2) {
        assert_eq!(
            pair[0].end_v.to_bits(),
            pair[1].start_v.to_bits(),
            "{sorter:?} rank {rank}: {} ends where {} begins",
            pair[0].name,
            pair[1].name
        );
    }
    let spent_in = |steps: &[&str]| -> f64 {
        let of_phase = mine.iter().filter(|s| steps.contains(&s.name.as_str()));
        of_phase.map(|s| s.duration_v()).sum()
    };
    let mut phases = vec![
        (
            spent_in(&["local-sort", "sample", "pivot-select", "partition"]),
            stats.pivot_s,
        ),
        (spent_in(&["local-sort"]), stats.local_sort_s),
        (spent_in(&["sample"]), stats.sample_s),
        (spent_in(&["pivot-select"]), stats.select_s),
        (spent_in(&["partition"]), stats.partition_s),
        (spent_in(&["node-merge"]), stats.other_s),
    ];
    if !names.contains(&"sample") {
        assert_eq!(stats.sample_s, 0.0, "{sorter:?} rank {rank}");
    }
    if sorter == Sorter::Row(algos::Sorter::HykSort) {
        // Paper footnote 4: its exchange contains its ordering.
        assert_eq!(stats.local_order_s, 0.0);
        phases.push((spent_in(&["exchange", "local-order"]), stats.exchange_s));
    } else {
        phases.push((spent_in(&["exchange"]), stats.exchange_s));
        phases.push((spent_in(&["local-order"]), stats.local_order_s));
    }
    for (in_spans, in_stats) in phases {
        assert!(
            (in_spans - in_stats).abs() <= 1e-9 * in_stats,
            "{sorter:?} rank {rank}: spans hold {in_spans:e} s of a phase of {in_stats:e} s"
        );
    }
}

/// Sanity for the purity tests above — the telemetry-on run is not trivially
/// equal because recording silently failed to happen — and what was
/// recorded: every sorter's steps, as gap-free spans that add up to its
/// statistics.
#[test]
fn telemetry_run_actually_recorded() {
    for sorter in Sorter::all() {
        let report =
            world(true).run(|comm| sorter.sort(comm, gen(comm.rank(), 500), &tuning()).stats);
        let snap = report.telemetry.expect("telemetry enabled");
        assert!(snap.total_messages() > 0, "recorder saw traffic");
        assert!(snap.phases.iter().any(|p| p.name == "exchange"));
        for (rank, stats) in report.results.iter().enumerate() {
            assert_spans_are_the_steps(sorter, rank, &snap.spans, stats);
        }
    }
}

/// The same on a real backend, where the clock is the wall clock.
#[test]
fn every_sorter_records_its_steps_as_gap_free_spans_on_threads() {
    for sorter in Sorter::all() {
        let report = ThreadWorld::new(8)
            .cores_per_node(4)
            .telemetry(true)
            .run(|comm| sorter.sort(comm, gen(comm.rank(), 500), &tuning()).stats);
        let snap = report.telemetry.expect("telemetry enabled");
        for (rank, stats) in report.results.iter().enumerate() {
            assert_spans_are_the_steps(sorter, rank, &snap.spans, stats);
        }
    }
}
