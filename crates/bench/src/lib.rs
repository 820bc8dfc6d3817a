//! # bench — experiment harness for the SDS-Sort reproduction
//!
//! Two binaries (see `src/bin/`): `experiments`, which regenerates every
//! table and figure of the paper plus the ablations from one
//! [`registry::REGISTRY`], and `sortcli`, which runs any sorter on any
//! workload and backend. This library holds what they share: scaled
//! experiment sizes, table printing, result emission and world
//! construction. Both dispatch sorters through the one table,
//! [`algos::Sorter`].
//!
//! Every experiment prints (a) the paper's rows/series at our reduced scale
//! and (b) a `shape:` verdict line summarizing whether the qualitative
//! result (who wins, where the crossover falls, who crashes) reproduced.
//!
//! Scale control: set `BENCH_SCALE=full` for larger sweeps (default
//! `small` finishes in seconds per experiment).

#![forbid(unsafe_code)]

use algos::{Sorter, Tuning};
use mpisim::{Comm, World};
use sdssort::{ComputeCharge, ComputeModel, SortError, SortOutput, Sortable};
use std::sync::OnceLock;
use std::time::Instant;

pub mod emit;
pub mod experiments;
pub mod registry;
pub mod table;

pub use emit::Emitter;
pub use registry::{Cells, Dataset, Experiment, Run, REGISTRY};
pub use table::{fmt_bytes, fmt_time, Table};

/// Experiment scale, from the `BENCH_SCALE` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-experiment sizes (default; used by `cargo test`).
    Small,
    /// Larger sweeps for report-quality numbers.
    Full,
}

impl Scale {
    /// Read the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("BENCH_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Small,
        }
    }

    /// Pick `small` or `full` by scale.
    pub fn pick<T>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// A modelled world: Edison network and 24-core nodes (the `World`
/// defaults), zero wall-clock compute charging (compute enters through
/// `ComputeCharge::Modeled`).
pub fn modeled_world(p: usize) -> World {
    World::new(p).compute_scale(0.0)
}

/// Short git revision of the checkout producing a report, or `"unknown"`
/// outside a repository — embedded in every emitted document so a BENCH
/// file identifies the code that produced it. Asked of `git` once per
/// process.
pub fn git_rev() -> String {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
    .clone()
}

/// Outcome of one distributed-sort run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Modelled makespan in seconds, `None` on OOM failure.
    pub time_s: Option<f64>,
    /// Per-rank post-exchange loads (empty on failure).
    pub loads: Vec<usize>,
    /// Phase maxima across ranks (zeroed on failure).
    pub phases: sdssort::SortStats,
    /// Host wall time of the simulation.
    pub wall_s: f64,
}

impl RunOutcome {
    /// RDFA, or ∞ on failure (the paper's Tables 3/4 convention).
    pub fn rdfa(&self) -> f64 {
        if self.time_s.is_none() {
            sdssort::stats::rdfa_failed()
        } else {
            sdssort::rdfa(&self.loads)
        }
    }
}

/// Run `sort` on every rank of a [`modeled_world`] of `p` ranks, optionally
/// under a per-rank simulated memory `budget`, and fold the per-rank results
/// into one [`RunOutcome`] (a failure on any rank is a failed run).
pub fn run_world<T, F>(p: usize, budget: Option<usize>, sort: F) -> RunOutcome
where
    T: Sortable,
    F: Fn(&mut Comm) -> Result<SortOutput<T>, SortError> + Send + Sync,
{
    let mut world = modeled_world(p);
    if let Some(b) = budget {
        world = world.memory_budget(b);
    }
    let started = Instant::now();
    let report = world.run(sort);
    let wall_s = started.elapsed().as_secs_f64();
    let Ok(outputs) = report.results.into_iter().collect::<Result<Vec<_>, _>>() else {
        return RunOutcome {
            wall_s,
            ..RunOutcome::default()
        };
    };
    let stats: Vec<sdssort::SortStats> = outputs.iter().map(|o| o.stats).collect();
    RunOutcome {
        time_s: Some(report.makespan),
        loads: outputs.iter().map(|o| o.data.len()).collect(),
        phases: sdssort::stats::phase_maxima(&stats),
        wall_s,
    }
}

/// Run `sorter` over `p` ranks where rank `r` sorts `gen(r)`; compute is
/// charged via the calibrated model, communication via the Edison network
/// model. `budget` optionally caps per-rank simulated memory.
pub fn run_sorter<T, G>(
    sorter: Sorter,
    p: usize,
    budget: Option<usize>,
    model: ComputeModel,
    gen: G,
) -> RunOutcome
where
    T: Sortable,
    G: Fn(usize) -> Vec<T> + Send + Sync,
{
    use mpisim::Communicator;
    // Node merging is disabled (τm = 0) in the comparative experiments: our
    // memory budget is per rank, while node merging concentrates a node's
    // data on its leader by design (the real machine's budget is per
    // *node*). Fig. 5a studies node merging in isolation. (AMS's τm is off
    // by default.)
    //
    // τo and τs are machine-specific tuning knobs: the paper calibrates
    // 4096/4000 for Edison (Figs. 5b/5c); our Fig. 5b/5c experiments locate
    // the crossovers near 16 and 8 on the simulated machine, so the
    // comparative runs use those.
    let mut tuning = Tuning::charged(ComputeCharge::Modeled(model));
    (tuning.sds.tau_m_bytes, tuning.sds.tau_o, tuning.sds.tau_s) = (0, 16, 8);
    run_world(p, budget, |comm| {
        sorter.sort(comm, gen(comm.rank()), &tuning)
    })
}

/// The smallest of `reps` draws of `f`.
pub fn best_of(reps: usize, f: impl FnMut() -> f64) -> f64 {
    std::iter::repeat_with(f)
        .take(reps)
        .fold(f64::INFINITY, f64::min)
}

/// Best-of-`reps` wall time of `f` — the shared-memory kernel experiments
/// (Figs. 5c/6a/6b) time real code on this host.
pub fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    best_of(reps, || {
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(out);
        secs
    })
}

/// Format an optional time, using the paper's "Out of Memory" marker.
pub fn fmt_opt_time(t: Option<f64>) -> String {
    t.map_or_else(|| "OOM".to_string(), fmt_time)
}

/// Format an RDFA value, with ∞ for failures (Tables 3/4).
pub fn fmt_rdfa(r: f64) -> String {
    if r.is_infinite() {
        "inf".to_string()
    } else {
        format!("{r:.4}")
    }
}
