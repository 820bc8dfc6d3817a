//! World construction and SPMD execution.
//!
//! [`World`] configures a simulated machine (rank count, cores per node,
//! network model, per-rank memory budget, faults, telemetry) and
//! [`World::run`] executes an SPMD closure on every rank, each on its own
//! OS thread, returning a [`WorldReport`] with per-rank results, the
//! virtual-time makespan, and traffic statistics.

use crate::clock::VirtualClock;
use crate::comm::Comm;
use crate::faults::FaultSpec;
use crate::netmodel::NetModel;
use crate::topology::Topology;
use crate::universe::Universe;
use ::comm::raw::Group;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-rank thread stack size, 2 MiB: worlds may have thousands of ranks.
const STACK_SIZE: usize = 1 << 21;

/// Builder for a simulated world.
#[derive(Debug, Clone)]
pub struct World {
    size: usize,
    cores_per_node: usize,
    node_map: Option<Vec<usize>>,
    net: NetModel,
    memory_budget: Option<usize>,
    telemetry: bool,
    faults: Option<FaultSpec>,
}

impl World {
    /// A world of `size` ranks with default settings: 24-core nodes (Edison
    /// compute nodes have two 12-core sockets), the Edison network model and
    /// no memory budget. Compute is charged from the nominal compute model
    /// (see `Communicator::compute_with`).
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "world needs at least one rank");
        Self {
            size,
            cores_per_node: 24,
            node_map: None,
            net: NetModel::edison(),
            memory_budget: None,
            telemetry: false,
            faults: None,
        }
    }

    /// Enable telemetry recording (per-phase traffic, span timelines,
    /// metrics; see the `telemetry` crate); the snapshot lands in
    /// [`WorldReport::telemetry`]. Recording is a pure observer: results
    /// and virtual clocks are identical with it on or off. The run's
    /// message and byte totals are counted either way.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Set simulated cores (= ranks) per node.
    pub fn cores_per_node(mut self, c: usize) -> Self {
        assert!(c > 0);
        self.cores_per_node = c;
        self
    }

    /// Place ranks on nodes via an explicit rank→node map instead of the
    /// block `rank / cores_per_node` layout (see
    /// [`Topology::with_node_map`]). The map length must equal the world
    /// size (checked in [`World::run`]).
    pub fn node_map(mut self, node_of: Vec<usize>) -> Self {
        self.node_map = Some(node_of);
        self
    }

    /// Replace the network cost model.
    pub fn net(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }

    /// Enforce a per-rank memory budget in bytes (see [`::comm::Budget`]).
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Asserts `s` is finite and non-negative, and changes nothing.
    /// Read by nothing in the workspace; ROADMAP item 4b deletes it.
    pub fn compute_scale(self, s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "compute scale {s}");
        self
    }

    /// Install a deterministic fault-injection policy (see
    /// [`crate::faults`]). Like telemetry, the layer is a pure policy
    /// object: an inert spec (or none at all) leaves every clock and result
    /// bit-identical to a world built without it.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Execute `f` on every rank. Panics in any rank abort the world and
    /// re-raise the first panic on the caller's thread.
    pub fn run<R, F>(&self, f: F) -> WorldReport<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let topo = match &self.node_map {
            Some(map) => {
                assert_eq!(map.len(), self.size, "node map must cover every rank");
                Topology::with_node_map(map.clone())
            }
            None => Topology::new(self.size, self.cores_per_node),
        };
        let uni = Arc::new(Universe::new(
            topo,
            self.net.clone(),
            self.memory_budget,
            self.telemetry,
            self.faults,
        ));
        let members: Arc<[usize]> = (0..self.size).collect();
        let started = Instant::now();

        let mut slots: Vec<Option<(R, f64)>> = Vec::with_capacity(self.size);
        slots.resize_with(self.size, || None);

        let panics: Vec<Option<Box<dyn std::any::Any + Send>>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.size);
            for (rank, slot) in slots.iter_mut().enumerate() {
                let uni = Arc::clone(&uni);
                let members = Arc::clone(&members);
                let f = &f;
                let builder = std::thread::Builder::new()
                    .name(format!("mpisim-rank-{rank}"))
                    .stack_size(STACK_SIZE);
                let handle = builder
                    .spawn_scoped(scope, move || {
                        let clock = Rc::new(VirtualClock::default());
                        let group = Group::new(0, members, rank);
                        let mut comm = Comm::new(Arc::clone(&uni), group, Rc::clone(&clock));
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
                        match out {
                            Ok(r) => {
                                *slot = Some((r, clock.now()));
                                uni.rank_finished(rank);
                                None
                            }
                            Err(payload) => {
                                uni.abort();
                                Some(payload)
                            }
                        }
                    })
                    .expect("spawn rank thread");
                handles.push(handle);
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("rank thread must not die outside catch_unwind")
                })
                .collect()
        });

        // A deadlock aborted the world: every rank unwound with
        // `comm::Aborted` or finished, and the report is the failure.
        if let Some(deadlock) = uni.take_deadlock() {
            std::panic::panic_any(deadlock);
        }
        let mut panics: Vec<_> = panics.into_iter().flatten().collect();
        if !panics.is_empty() {
            // Prefer the original failure over secondary `comm::Aborted`
            // unwinds raised on ranks that were merely interrupted.
            let original = panics
                .iter()
                .position(|p| !p.is::<::comm::Aborted>())
                .unwrap_or(0);
            std::panic::resume_unwind(panics.swap_remove(original));
        }

        let mut results = Vec::with_capacity(self.size);
        let mut per_rank_time = Vec::with_capacity(self.size);
        for slot in slots {
            let (r, t) = slot.expect("rank completed without panic");
            results.push(r);
            per_rank_time.push(t);
        }
        let makespan = per_rank_time.iter().copied().fold(0.0f64, f64::max);
        let telemetry = self.telemetry.then(|| uni.recorder().snapshot());
        WorldReport {
            results,
            per_rank_time,
            makespan,
            wall: started.elapsed(),
            messages: uni.recorder().messages(),
            bytes: uni.recorder().bytes(),
            memory: uni.budget().report(),
            topology: uni.topology().clone(),
            telemetry,
        }
    }
}

/// Outcome of a world run.
#[derive(Debug)]
pub struct WorldReport<R> {
    /// Per-rank results, in rank order.
    pub results: Vec<R>,
    /// Per-rank final virtual-clock values (seconds).
    pub per_rank_time: Vec<f64>,
    /// Maximum virtual clock over ranks — the modelled parallel makespan.
    pub makespan: f64,
    /// Actual wall time of the whole simulation.
    pub wall: Duration,
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// The per-rank memory budget the world ran under and each rank's
    /// peak reservation.
    pub memory: telemetry::MemoryReport,
    /// The rank→node topology the world ran on.
    pub topology: Topology,
    /// Recorder snapshot (`None` unless telemetry was enabled).
    pub telemetry: Option<telemetry::Snapshot>,
}
