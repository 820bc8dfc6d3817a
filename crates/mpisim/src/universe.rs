//! Shared state of one simulated world: mailboxes, topology, network model,
//! memory tracker, and abort flag.

use crate::check::Checker;
use crate::faults::{FaultSpec, Faults};
use crate::mailbox::Mailbox;
use crate::memory::MemoryTracker;
use crate::netmodel::NetModel;
use crate::topology::Topology;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;
use telemetry::Recorder;

/// What a blocked rank is waiting for (deadlock diagnostics).
#[derive(Debug, Clone)]
pub(crate) struct WaitDesc {
    pub ctx: u64,
    /// `None` = any source; `Some(w)` = world rank w.
    pub src: Option<usize>,
    pub tag: u64,
}

/// Collective-timeout detector state. Tracks global delivery progress and
/// how many ranks are blocked in a receive; when every rank is blocked and
/// no envelope moves for a full timeout window, the world is provably
/// deadlocked and a diagnostic report is raised instead of hanging forever.
pub(crate) struct DeadlockWatch {
    /// Wall-clock window; `None` disables the detector entirely.
    pub timeout: Option<Duration>,
    /// Bumped on every mailbox delivery and successful take.
    pub progress: AtomicU64,
    /// Ranks currently blocked in a receive.
    pub blocked: AtomicUsize,
    /// What each blocked rank is waiting for.
    pub waits: Vec<Mutex<Option<WaitDesc>>>,
    /// Last phase name each rank entered via `trace_phase`.
    pub last_phase: Vec<Mutex<String>>,
    /// The report, filled once by whichever rank detects the deadlock.
    pub report: Mutex<Option<String>>,
}

impl DeadlockWatch {
    fn new(size: usize, timeout: Option<Duration>) -> Self {
        let tracked = if timeout.is_some() { size } else { 0 };
        Self {
            timeout,
            progress: AtomicU64::new(0),
            blocked: AtomicUsize::new(0),
            waits: (0..tracked).map(|_| Mutex::new(None)).collect(),
            last_phase: (0..tracked).map(|_| Mutex::new(String::new())).collect(),
            report: Mutex::new(None),
        }
    }
}

/// Panic payload raised when the collective-timeout detector proves a
/// deadlock. Carries a human-readable report naming the stuck ranks, what
/// each is waiting for, its pending mailbox contents, and the last phase
/// it completed.
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
    pub(crate) memory: MemoryTracker,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) aborted: AtomicBool,
    pub(crate) recorder: Recorder,
    pub(crate) faults: Faults,
    pub(crate) deadlock: DeadlockWatch,
    pub(crate) checker: Checker,
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
        collective_timeout: Option<Duration>,
        check: bool,
    ) -> Self {
        let size = topology.world_size();
        Self {
            memory: MemoryTracker::new(size, memory_budget),
            mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
            recorder: Recorder::new(topology.node_map(), telemetry),
            faults: Faults::new(size, faults),
            deadlock: DeadlockWatch::new(size, collective_timeout),
            checker: Checker::new(size, check),
            topology,
            net,
            aborted: AtomicBool::new(false),
        }
    }

    /// The installed fault policy.
    pub(crate) fn faults(&self) -> &Faults {
        &self.faults
    }

    /// The happens-before checker (inert unless the world enabled it).
    pub(crate) fn checker(&self) -> &Checker {
        &self.checker
    }

    /// Count a rank whose closure returned as permanently blocked: it will
    /// never take another envelope, so ranks still waiting on it deadlock.
    pub(crate) fn deadlock_mark_finished(&self) {
        if self.deadlock.timeout.is_some() {
            self.deadlock.blocked.fetch_add(1, Ordering::SeqCst);
        }
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

    /// The per-rank memory tracker.
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
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
        Universe::new(
            Topology::new(p, 4),
            NetModel::zero(),
            None,
            false,
            None,
            None,
            false,
        )
    }

    #[test]
    fn abort_sets_flag() {
        let u = uni(2);
        assert!(!u.is_aborted());
        u.abort();
        assert!(u.is_aborted());
    }
}
