//! World builder and runtime: spawns one OS thread per rank, runs the
//! user's rank function on each, and joins the results in rank order.

use crate::comm::ThreadComm;
use crate::universe::Universe;
use comm::raw::Group;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use telemetry::{MemoryReport, Snapshot};

/// Builder for a threads-backend world.
///
/// ```
/// use shmem::ThreadWorld;
/// use comm::Communicator;
///
/// let report = ThreadWorld::new(4).run(|comm| {
///     comm.allreduce(comm.rank() as u64, |a, b| a + b)
/// });
/// assert_eq!(report.results, vec![6, 6, 6, 6]);
/// ```
pub struct ThreadWorld {
    size: usize,
    cores_per_node: usize,
    telemetry: bool,
    memory_budget: Option<usize>,
}

/// What a completed threads-backend run produced.
#[derive(Debug)]
pub struct ThreadReport<R> {
    /// Each rank's return value, in rank order.
    pub results: Vec<R>,
    /// Wall-clock seconds from world start to last rank finishing.
    pub wall_s: f64,
    /// Per-rank wall-clock seconds (world start to that rank finishing).
    pub per_rank_wall: Vec<f64>,
    /// Total point-to-point messages (self-sends excluded).
    pub messages: u64,
    /// Total payload bytes moved through mailboxes.
    pub bytes: u64,
    /// Telemetry snapshot, if telemetry was enabled on the builder.
    pub telemetry: Option<Snapshot>,
    /// The per-rank memory budget and each rank's peak reservation.
    pub memory: MemoryReport,
}

impl ThreadWorld {
    /// A world of `size` ranks, one core per node by default (so `node()`
    /// == `rank()` unless [`Self::cores_per_node`] is raised).
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "world must have at least one rank");
        Self {
            size,
            cores_per_node: 1,
            telemetry: false,
            memory_budget: None,
        }
    }

    /// Group ranks into nodes of this many cores (affects `node()` and the
    /// node-merge stage of the sort, not thread placement).
    pub fn cores_per_node(mut self, c: usize) -> Self {
        assert!(c > 0, "cores_per_node must be positive");
        self.cores_per_node = c;
        self
    }

    /// Enable telemetry recording (per-phase traffic, spans, events,
    /// per-rank ledgers). The report then carries a [`telemetry::Snapshot`]
    /// with wall-clock span times. The run's message and byte totals are
    /// counted either way.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Enforce a per-rank memory budget in bytes (see [`comm::Budget`]):
    /// a sort whose receive buffer would exceed it fails with `Oom` on
    /// that rank, exactly as under the simulator.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    fn universe(&self) -> Arc<Universe> {
        Arc::new(Universe::new(
            self.size,
            self.cores_per_node,
            self.telemetry,
            self.memory_budget,
        ))
    }

    /// Convert the builder into a [`crate::ResidentWorld`]: the rank
    /// threads spawn now, park between jobs, and serve gang-scheduled
    /// closures until the world is dropped. This is the substrate of
    /// `crates/service`'s long-lived `SortService`.
    pub fn resident(&self) -> crate::ResidentWorld {
        crate::ResidentWorld::start(self.universe())
    }

    /// Run `f` on every rank concurrently and collect the results.
    ///
    /// Each rank runs on its own OS thread (named `shmem-rank-{r}`). If a
    /// rank panics, the world aborts: every blocked send/receive wakes and
    /// unwinds, and the *original* panic payload is re-raised here (the
    /// secondary [`comm::Aborted`] unwinds of interrupted ranks are
    /// swallowed).
    pub fn run<R, F>(&self, f: F) -> ThreadReport<R>
    where
        R: Send,
        F: Fn(&ThreadComm) -> R + Sync,
    {
        let uni = self.universe();
        let members: Arc<[usize]> = (0..self.size).collect();
        let f = &f;

        let outcomes: Vec<RankOutcome<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.size)
                .map(|r| {
                    let uni = Arc::clone(&uni);
                    let members = Arc::clone(&members);
                    std::thread::Builder::new()
                        .name(format!("shmem-rank-{r}"))
                        .spawn_scoped(scope, move || {
                            let comm = ThreadComm::new(Arc::clone(&uni), Group::new(0, members, r));
                            let res = std::panic::catch_unwind(AssertUnwindSafe(|| f(&comm)));
                            let wall = uni.start.elapsed().as_secs_f64();
                            match res {
                                Ok(v) => RankOutcome::Done(v, wall),
                                Err(payload) => {
                                    // First failure wins; wake everyone so
                                    // blocked ranks can unwind too.
                                    uni.abort();
                                    RankOutcome::Panicked(payload)
                                }
                            }
                        })
                        .expect("spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(outcome) => outcome,
                    Err(payload) => RankOutcome::Panicked(payload),
                })
                .collect()
        });
        // The same epoch as every `per_rank_wall` entry (and `now()`), so
        // no rank can report finishing after the world did.
        let wall_s = uni.start.elapsed().as_secs_f64();

        // Re-raise the original failure, preferring a payload that is NOT
        // the secondary abort marker; fall back to any payload.
        let mut secondary = None;
        let mut results = Vec::with_capacity(self.size);
        let mut per_rank_wall = Vec::with_capacity(self.size);
        for outcome in outcomes {
            match outcome {
                RankOutcome::Done(v, w) => {
                    results.push(v);
                    per_rank_wall.push(w);
                }
                RankOutcome::Panicked(payload) => {
                    if payload.is::<comm::Aborted>() {
                        secondary = Some(payload);
                    } else {
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }
        if let Some(payload) = secondary {
            std::panic::resume_unwind(payload);
        }

        ThreadReport {
            results,
            wall_s,
            per_rank_wall,
            messages: uni.recorder().messages(),
            bytes: uni.recorder().bytes(),
            telemetry: self.telemetry.then(|| uni.recorder().snapshot()),
            memory: uni.budget().report(),
        }
    }
}

enum RankOutcome<R> {
    Done(R, f64),
    Panicked(Box<dyn std::any::Any + Send>),
}
