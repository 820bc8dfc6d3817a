//! Shared state of one threads-backend world: mailboxes, topology labels,
//! the recorder (traffic totals and telemetry), the memory budget, the
//! wall-clock epoch, and the abort flag.

use comm::mailbox::{world_capacity, Mailbox};
use comm::Budget;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use telemetry::Recorder;

/// Shared immutable/concurrent state for all ranks of a threads world.
pub struct Universe {
    pub(crate) size: usize,
    pub(crate) cores_per_node: usize,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) aborted: AtomicBool,
    pub(crate) recorder: Recorder,
    pub(crate) budget: Budget,
    /// Wall-clock epoch: `Communicator::now` reports seconds since this.
    pub(crate) start: Instant,
}

impl Universe {
    pub(crate) fn new(
        size: usize,
        cores_per_node: usize,
        telemetry: bool,
        memory_budget: Option<usize>,
    ) -> Self {
        let node_of: Vec<usize> = (0..size).map(|r| r / cores_per_node).collect();
        Self {
            size,
            cores_per_node,
            mailboxes: (0..size)
                .map(|_| Mailbox::new(world_capacity(size)))
                .collect(),
            aborted: AtomicBool::new(false),
            recorder: Recorder::new(node_of, telemetry),
            budget: Budget::new(size, memory_budget),
            start: Instant::now(),
        }
    }

    /// Mark the world as aborted and wake every blocked sender/receiver.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            mb.interrupt();
        }
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether a rank has panicked.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// The telemetry recorder: the world's one traffic observer. Message
    /// and byte totals are always counted; everything else is a no-op
    /// unless telemetry was enabled at world build.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The per-rank memory budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }
}
