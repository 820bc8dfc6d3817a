//! Shared state of one simulated world: mailboxes, topology, network model,
//! memory budget, and abort flag.

use crate::comm::describe_tag;
use crate::faults::{FaultSpec, Faults};
use crate::mailbox::{Idle, Mailbox};
use crate::netmodel::NetModel;
use crate::topology::Topology;
use ::comm::Budget;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use telemetry::Recorder;

/// Panic payload raised by [`crate::World::run`] when every rank is
/// finished or blocked in a receive that no remaining rank can satisfy.
/// Carries a human-readable report naming the stuck ranks, what each is
/// waiting for, its pending mailbox contents, and the last phase it
/// entered.
#[derive(Debug, Clone)]
pub struct DeadlockError {
    /// Multi-line diagnostic report.
    pub report: String,
}

impl fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulated deadlock detected:\n{}", self.report)
    }
}

impl std::error::Error for DeadlockError {}

/// Shared immutable/concurrent state for all ranks of a world.
pub struct Universe {
    pub(crate) topology: Topology,
    pub(crate) net: NetModel,
    pub(crate) budget: Budget,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) aborted: AtomicBool,
    pub(crate) recorder: Recorder,
    pub(crate) faults: Faults,
    /// Ranks finished or blocked on a registered wait (see [`Idle`]).
    pub(crate) idle: Idle,
    /// The span each rank opened last, for the deadlock report.
    pub(crate) phases: Box<[Mutex<String>]>,
    /// The deadlock report, filled once when every rank went idle.
    deadlock: Mutex<Option<String>>,
}

impl Universe {
    // Crate-internal constructor called from exactly one place
    // (`World::run`), which forwards the builder's knobs one-to-one.
    pub(crate) fn new(
        topology: Topology,
        net: NetModel,
        memory_budget: Option<usize>,
        telemetry: bool,
        faults: Option<FaultSpec>,
    ) -> Self {
        let size = topology.world_size();
        Self {
            budget: Budget::new(size, memory_budget),
            mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
            recorder: Recorder::new(topology.node_map(), telemetry),
            faults: Faults::new(size, faults),
            idle: Idle::new(size),
            phases: (0..size).map(|_| Mutex::default()).collect(),
            deadlock: Mutex::new(None),
            topology,
            net,
            aborted: AtomicBool::new(false),
        }
    }

    /// The installed fault policy.
    pub(crate) fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Count a rank whose closure returned as idle for good: it will never
    /// push another envelope, so ranks still waiting on it may deadlock.
    pub(crate) fn rank_finished(&self, rank: usize) {
        if self.idle.enter() {
            self.declare_deadlock(rank);
        }
    }

    /// Every rank is idle. Unless all of them finished, none can make
    /// progress again: file the report (which the runtime raises as a
    /// [`DeadlockError`]) and abort the world. Called once, by the rank
    /// that went idle last, while no other rank runs.
    #[cold]
    pub(crate) fn declare_deadlock(&self, detector: usize) {
        use std::fmt::Write as _;
        let waits: Vec<_> = self.mailboxes.iter().map(Mailbox::wait).collect();
        if waits.iter().all(Option::is_none) {
            return;
        }
        let p = waits.len();
        let mut rep = format!(
            "all {p} ranks finished or blocked with no message progress possible \
             (detected by world rank {detector})\n"
        );
        for (r, wait) in waits.into_iter().enumerate() {
            let wait_s = match wait {
                Some(w) => format!(
                    "waiting on ctx {} for {} from {}",
                    w.ctx,
                    describe_tag(w.tag),
                    match w.missing.as_slice() {
                        [s] => format!("world rank {s}"),
                        m => format!("world ranks {m:?}"),
                    },
                ),
                None => "not blocked in a receive (finished)".to_string(),
            };
            let phase = self.phases[r].lock().clone();
            let pending = self.mailboxes[r].snapshot();
            let _ = writeln!(
                rep,
                "  rank {r}: {wait_s}; last phase: {}; {} pending envelope(s)",
                if phase.is_empty() { "<none>" } else { &phase },
                pending.len()
            );
            for &(ctx, src, tag, bytes) in pending.iter().take(8) {
                let _ = writeln!(
                    rep,
                    "    pending: ctx {ctx} from rank {src}, {} ({bytes} B)",
                    describe_tag(tag)
                );
            }
            if pending.len() > 8 {
                let _ = writeln!(rep, "    ... and {} more", pending.len() - 8);
            }
        }
        *self.deadlock.lock() = Some(rep);
        self.abort();
    }

    /// The deadlock report, if the world deadlocked.
    pub(crate) fn take_deadlock(&self) -> Option<DeadlockError> {
        let report = self.deadlock.lock().take()?;
        Some(DeadlockError { report })
    }

    /// Mark the world as aborted and wake every blocked receiver.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            mb.interrupt();
        }
    }

    /// Whether a rank has panicked.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// The world topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The network cost model.
    pub fn net(&self) -> &NetModel {
        &self.net
    }

    /// The per-rank memory budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The telemetry recorder: the world's one traffic observer. Message
    /// and byte totals are always counted; everything else is a no-op
    /// unless telemetry was enabled at world build.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uni(p: usize) -> Universe {
        Universe::new(Topology::new(p, 4), NetModel::zero(), None, false, None)
    }

    #[test]
    fn abort_sets_flag() {
        let u = uni(2);
        assert!(!u.is_aborted());
        u.abort();
        assert!(u.is_aborted());
    }
}
