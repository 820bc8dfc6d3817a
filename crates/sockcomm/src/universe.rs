//! Per-process shared state for one rank of a sockets world.
//!
//! Where the threads backend has one `Universe` shared by every rank, the
//! sockets backend has one [`SockUniverse`] *per OS process*: this rank's
//! mailbox, its links to every peer, the abort flag its socket-reader
//! threads trip when a peer dies, and the recorder and memory budget whose
//! traffic totals and high-water mark it ships back to the launcher with
//! its result.

use crate::frame::{write_parts, FrameKind};
use crate::net::Stream;
use comm::mailbox::{world_capacity, Mailbox};
use comm::Budget;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// The first peer death observed by this process.
#[derive(Debug, Clone)]
pub struct DeadPeer {
    /// World rank of the peer whose connection dropped without a goodbye.
    pub rank: usize,
    /// What the socket reported (EOF, ECONNRESET, ...).
    pub detail: String,
}

/// Write half of the link to one peer. Sends from the rank thread and the
/// occasional teardown goodbye serialize on the mutex; every frame goes to
/// the socket as one vectored write (a frame is the unit of progress —
/// there is no later "batch" moment a buffer could wait for).
pub struct PeerLink {
    pub(crate) writer: Mutex<Stream>,
    /// Clone used to shut the socket down on abort, unblocking both this
    /// process's reader thread and the remote peer.
    pub(crate) raw: Stream,
}

impl PeerLink {
    pub(crate) fn new(stream: Stream) -> std::io::Result<Self> {
        Ok(Self {
            raw: stream.try_clone()?,
            writer: Mutex::new(stream),
        })
    }
}

/// Shared state for one rank process of a sockets world.
pub struct SockUniverse {
    pub(crate) size: usize,
    pub(crate) my_world_rank: usize,
    pub(crate) cores_per_node: usize,
    /// This rank's mailbox; socket reader threads push, the rank thread
    /// takes. Bounded: a full mailbox blocks the reader, which stops
    /// draining that peer's socket, which backpressures the sender through
    /// the kernel buffers.
    pub(crate) mailbox: Mailbox,
    /// `peers[w]` is the link to world rank `w` (`None` for self).
    pub(crate) peers: Vec<Option<PeerLink>>,
    pub(crate) aborted: AtomicBool,
    pub(crate) dead_peer: Mutex<Option<DeadPeer>>,
    /// Counts this rank's sends (self-deliveries through the local mailbox
    /// included) and their encoded payload bytes; never enabled, so nothing
    /// else is recorded in a rank process.
    pub(crate) recorder: telemetry::Recorder,
    /// The world's budget; this process charges only its own rank.
    pub(crate) budget: Budget,
    pub(crate) start: Instant,
    /// Count of goodbye frames received; the close barrier waits for
    /// `size - 1` of them before tearing sockets down.
    goodbyes: Mutex<usize>,
    goodbye_or_abort: Condvar,
}

impl SockUniverse {
    pub(crate) fn new(
        size: usize,
        my_world_rank: usize,
        cores_per_node: usize,
        memory_budget: usize,
        peers: Vec<Option<PeerLink>>,
    ) -> Self {
        let node_of: Vec<usize> = (0..size).map(|r| r / cores_per_node).collect();
        Self {
            size,
            my_world_rank,
            cores_per_node,
            mailbox: Mailbox::new(world_capacity(size)),
            peers,
            aborted: AtomicBool::new(false),
            dead_peer: Mutex::new(None),
            recorder: telemetry::Recorder::new(node_of, false),
            budget: Budget::new(size, Some(memory_budget)),
            start: Instant::now(),
            goodbyes: Mutex::new(0),
            goodbye_or_abort: Condvar::new(),
        }
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Record a peer death (first one wins), abort the rank, and wake
    /// everything that might be blocked: the mailbox (rank thread waiting
    /// on a recv or a full queue) and the close barrier.
    pub(crate) fn peer_died(&self, rank: usize, detail: String) {
        {
            let mut dead = self.dead_peer.lock().expect("dead_peer mutex poisoned");
            if dead.is_none() {
                *dead = Some(DeadPeer { rank, detail });
            }
        }
        self.abort();
    }

    /// Abort without naming a dead peer (local failure paths).
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.mailbox.interrupt();
        // Same lock-then-notify discipline as Mailbox::interrupt: the store
        // above cannot race past a barrier waiter between check and wait.
        drop(self.goodbyes.lock().expect("goodbye mutex poisoned"));
        self.goodbye_or_abort.notify_all();
    }

    /// The first observed peer death, if any.
    pub(crate) fn dead_peer(&self) -> Option<DeadPeer> {
        self.dead_peer
            .lock()
            .expect("dead_peer mutex poisoned")
            .clone()
    }

    /// Send one frame from this rank to world rank `dst`, its payload
    /// written from where it lies. `InvalidInput` means the payload is over
    /// the frame cap and nothing was written (this rank's own failure); any
    /// other `Err` means the link is gone — the caller decides whether that
    /// is a peer death (data sends) or ignorable (teardown best-effort).
    pub(crate) fn send_frame(
        &self,
        dst: usize,
        kind: FrameKind,
        ctx: u64,
        tag: u64,
        payload: &[u8],
    ) -> std::io::Result<()> {
        let link = self.peers[dst]
            .as_ref()
            .expect("no self-link: self-sends go through the mailbox");
        let mut w = link.writer.lock().expect("peer writer mutex poisoned");
        write_parts(&mut *w, kind, ctx, self.my_world_rank as u32, tag, payload)
    }

    /// Send a goodbye to world rank `dst` (orderly-teardown marker).
    pub(crate) fn send_goodbye(&self, dst: usize) -> std::io::Result<()> {
        self.send_frame(dst, FrameKind::Goodbye, 0, 0, &[])
    }

    /// Called by a reader thread when its peer says goodbye.
    pub(crate) fn note_goodbye(&self) {
        let mut n = self.goodbyes.lock().expect("goodbye mutex poisoned");
        *n += 1;
        drop(n);
        self.goodbye_or_abort.notify_all();
    }

    /// Block until every peer has said goodbye (clean teardown) or the
    /// world aborted. Returns `true` on a clean barrier.
    pub(crate) fn wait_goodbyes(&self) -> bool {
        let mut n = self.goodbyes.lock().expect("goodbye mutex poisoned");
        loop {
            if self.is_aborted() {
                return false;
            }
            if *n >= self.size - 1 {
                return true;
            }
            n = self
                .goodbye_or_abort
                .wait(n)
                .expect("goodbye mutex poisoned while waiting");
        }
    }

    /// Shut down every peer socket (abort path): unblocks local reader
    /// threads and lets remote peers observe the failure promptly.
    pub(crate) fn shutdown_links(&self) {
        for link in self.peers.iter().flatten() {
            link.raw.shutdown();
        }
    }
}
