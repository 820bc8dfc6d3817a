//! Shared state of one threads-backend world: mailboxes, topology labels,
//! traffic stats, the wall-clock epoch, and the abort flag.

use crate::mailbox::Mailbox;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use telemetry::Recorder;

/// Traffic statistics accumulated over a run (whole world).
#[derive(Debug, Default)]
pub struct NetStats {
    messages: AtomicU64,
    bytes: AtomicU64,
}

impl NetStats {
    pub(crate) fn record(&self, bytes: usize) {
        self.messages.fetch_add(1, Ordering::SeqCst);
        self.bytes.fetch_add(bytes as u64, Ordering::SeqCst);
    }

    /// Total point-to-point messages sent (self-sends excluded: local
    /// chunks never enter a mailbox on this backend).
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::SeqCst)
    }

    /// Total payload bytes sent.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::SeqCst)
    }
}

/// Shared immutable/concurrent state for all ranks of a threads world.
pub struct Universe {
    pub(crate) size: usize,
    pub(crate) cores_per_node: usize,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) aborted: AtomicBool,
    pub(crate) stats: NetStats,
    pub(crate) recorder: Recorder,
    /// Wall-clock epoch: `Communicator::now` reports seconds since this.
    pub(crate) start: Instant,
}

impl Universe {
    pub(crate) fn new(
        size: usize,
        cores_per_node: usize,
        mailbox_capacity: usize,
        telemetry: bool,
    ) -> Self {
        let node_of: Vec<usize> = (0..size).map(|r| r / cores_per_node).collect();
        Self {
            size,
            cores_per_node,
            mailboxes: (0..size).map(|_| Mailbox::new(mailbox_capacity)).collect(),
            aborted: AtomicBool::new(false),
            stats: NetStats::default(),
            recorder: Recorder::new(node_of, telemetry),
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

    /// Run statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The telemetry recorder (no-op unless enabled at world build).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let u = Universe::new(2, 1, 64, false);
        u.stats.record(100);
        u.stats.record(50);
        assert_eq!(u.stats().messages(), 2);
        assert_eq!(u.stats().bytes(), 150);
    }
}
