//! Observer purity: enabling telemetry must not change *anything* about a
//! sort — outputs, per-rank virtual clocks, makespan, or message totals
//! are bit-identical with the recorder on or off. The recorder only reads
//! clocks (through its callers) and never advances them. This holds for
//! every sorter, since all seven run under the one `sdssort::driver` — and
//! what the recorder then holds is the same for all of them: per rank, the
//! driver's steps as gap-free spans whose durations are the `SortStats`
//! phases.
//!
//! Determinism preconditions: modeled compute charging (no wall-clock
//! measurement), `compute_scale(0.0)` (no measured residue), and `τo = 0`
//! (the overlapped exchange consumes chunks in arrival order, which is
//! schedule-dependent; HykSort always overlaps and the resilient exchange
//! is always asynchronous, so their clocks stay out of the comparison).

use algos::{ams_sort, hss_sort, AmsConfig, HssConfig};
use baselines::{hyksort, radix_sort, sample_sort, HykSortConfig, SampleSortConfig};
use mpisim::{Communicator, NetModel, World};
use sdssort::{
    sds_sort, sds_sort_resilient, ComputeCharge, ComputeModel, ResilienceConfig, SdsConfig,
    SortOutput, SortStats,
};
use shmem::ThreadWorld;
use telemetry::SpanRecord;

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

/// The seven distributed sorters.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sorter {
    Sds(SdsConfig),
    SdsResilient,
    HykSort,
    SampleSort,
    Radix,
    Ams,
    Hss,
}

impl Sorter {
    fn all() -> [Sorter; 7] {
        [
            Sorter::Sds(unmerged_cfg()),
            Sorter::SdsResilient,
            Sorter::HykSort,
            Sorter::SampleSort,
            Sorter::Radix,
            Sorter::Ams,
            Sorter::Hss,
        ]
    }

    fn sort<C: Communicator>(self, comm: &C, data: Vec<u64>) -> SortOutput<u64> {
        let charge = ComputeCharge::Modeled(ComputeModel::nominal());
        match self {
            Sorter::Sds(cfg) => sds_sort(comm, data, &cfg),
            Sorter::SdsResilient => {
                // No budget is set, so nothing spills.
                let dir = std::env::temp_dir().join("sds-purity-never-written");
                sds_sort_resilient(comm, data, &unmerged_cfg(), &ResilienceConfig::new(dir))
            }
            Sorter::HykSort => {
                // k = 4 over p = 8: two stages.
                let mut cfg = HykSortConfig::default();
                (cfg.charge, cfg.k) = (charge, 4);
                hyksort(comm, data, &cfg)
            }
            Sorter::SampleSort => sample_sort(comm, data, &SampleSortConfig { charge }),
            Sorter::Radix => radix_sort(comm, data),
            Sorter::Ams => {
                // Four cores per node: one group per node, then 4 groups of 1.
                let mut cfg = AmsConfig::default();
                cfg.charge = charge;
                ams_sort(comm, data, &cfg)
            }
            Sorter::Hss => {
                let mut cfg = HssConfig::default();
                cfg.charge = charge;
                hss_sort(comm, data, &cfg)
            }
        }
        .expect("no memory budget")
    }

    /// Whether the sorter receives with `wait_any`, whose virtual clock
    /// depends on the host's arrival order.
    fn schedule_dependent(self) -> bool {
        matches!(self, Sorter::HykSort | Sorter::SdsResilient)
    }

    /// The steps one rank passes through, in program order (without a node
    /// merge): the prelude, then splitters → partition → exchange → ordering
    /// once per exchange.
    fn steps(self) -> Vec<&'static str> {
        let (tau_m, exchanges) = match self {
            Sorter::Sds(_) | Sorter::SdsResilient => (true, 1),
            Sorter::SampleSort | Sorter::Radix | Sorter::Hss => (false, 1),
            // Two stages; the split that forms the groups opens the second
            // stage's splitter step.
            Sorter::HykSort => (false, 2),
            // Two levels, and the rebalance within the first level's groups.
            Sorter::Ams => (true, 3),
        };
        let mut steps = vec!["local-sort"];
        steps.extend(tau_m.then_some("node-merge"));
        for _ in 0..exchanges {
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

fn run(telemetry: bool, sorter: Sorter) -> RunResult {
    let report = world(telemetry).run(move |comm| sorter.sort(comm, gen(comm.rank(), 500)).data);
    // A schedule-dependent sorter's clocks are left out of the comparison.
    let clocks = !sorter.schedule_dependent();
    let bits = |t: f64| if clocks { t.to_bits() } else { 0 };
    RunResult {
        outputs: report.results.clone(),
        per_rank_time_bits: report.per_rank_time.iter().map(|&t| bits(t)).collect(),
        makespan_bits: bits(report.makespan),
        messages: report.messages,
        bytes: report.bytes,
    }
}

fn purity_case(sorter: Sorter) {
    let off = run(false, sorter);
    let on = run(true, sorter);
    assert_eq!(on, off, "{sorter:?}: telemetry must be a pure observer");
    // And the baseline run itself is reproducible (guards against the test
    // comparing two equally-nondeterministic runs by luck).
    assert_eq!(
        run(false, sorter),
        off,
        "{sorter:?}: baseline run must be deterministic"
    );
}

fn base_cfg() -> SdsConfig {
    let mut cfg = SdsConfig::modeled(ComputeModel::nominal());
    cfg.tau_o = 0; // overlapped exchange is schedule-dependent
    cfg
}

fn unmerged_cfg() -> SdsConfig {
    let mut cfg = base_cfg();
    cfg.tau_m_bytes = 0; // no node merging
    cfg
}

#[test]
fn identical_with_and_without_telemetry() {
    for sorter in Sorter::all() {
        purity_case(sorter);
    }
}

#[test]
fn identical_when_node_merging_runs() {
    let mut cfg = base_cfg();
    cfg.tau_m_bytes = usize::MAX; // force the node-merge path
    purity_case(Sorter::Sds(cfg));
}

#[test]
fn identical_for_stable_variant() {
    let mut cfg = unmerged_cfg();
    cfg.stable = true;
    purity_case(Sorter::Sds(cfg));
}

/// One rank's recorded spans against the steps it must have passed through
/// and the statistics it reported.
fn assert_spans_are_the_steps(
    sorter: Sorter,
    rank: usize,
    spans: &[SpanRecord],
    stats: &SortStats,
) {
    let mut mine: Vec<&SpanRecord> = spans.iter().filter(|s| s.rank == rank).collect();
    mine.sort_by(|a, b| a.start_v.total_cmp(&b.start_v));
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
            spent_in(&["local-sort", "pivot-select", "partition"]),
            stats.pivot_s,
        ),
        (spent_in(&["node-merge"]), stats.other_s),
    ];
    if sorter == Sorter::HykSort {
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
        let report = world(true).run(move |comm| sorter.sort(comm, gen(comm.rank(), 500)).stats);
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
            .run(move |comm| sorter.sort(comm, gen(comm.rank(), 500)).stats);
        let snap = report.telemetry.expect("telemetry enabled");
        for (rank, stats) in report.results.iter().enumerate() {
            assert_spans_are_the_steps(sorter, rank, &snap.spans, stats);
        }
    }
}
