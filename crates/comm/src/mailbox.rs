//! Bounded per-rank mailboxes: the p2p matching substrate shared by the
//! real backends.
//!
//! One mailbox per world rank; any producer may push (MPSC in spirit,
//! guarded by a mutex in practice) and only the owning rank takes.
//! Matching is by `(context, source, tag)` exactly as in the simulator's
//! mailbox, and per-`(context, source)` arrival order is preserved because
//! the queue is scanned front to back.
//!
//! The queue is *bounded by envelope count*: a full mailbox blocks the
//! producer until the receiver drains, giving real backpressure. The
//! capacity must therefore exceed the largest number of envelopes a
//! correct protocol can leave undrained in one mailbox — for the
//! collectives used here that is `p - 1` data messages per in-flight
//! collective; [`world_capacity`], which both backends' worlds use, leaves
//! a wide margin.
//!
//! This module lives in `comm` (not a specific backend) because three
//! consumers share it:
//!
//! * `crates/shmem` — one mailbox per rank thread; the sending *rank
//!   thread* pushes directly.
//! * `crates/sockcomm` — one mailbox per rank *process*; per-peer socket
//!   reader threads push decoded frames, and the rank's main thread takes.
//!   A full mailbox blocks the reader thread, which stops draining that
//!   peer's socket, which backpressures the remote sender through the
//!   kernel's buffers.
//! * `crates/service` — the job submission queue is a mailbox (contexts
//!   distinguish queues, sources identify client handles, tags carry the
//!   job class); a full queue blocks the submitting client.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// One queued message.
pub struct Envelope {
    /// Communicator context id the message was sent on.
    pub ctx: u64,
    /// World rank of the sender.
    pub src: usize,
    /// Message tag (user or reserved collective space).
    pub tag: u64,
    /// Type-erased payload (`Vec<T>` in-process; raw frame bytes when the
    /// payload arrived over a socket and the element type is not yet known).
    pub data: Box<dyn Any + Send>,
    /// Payload size in bytes (for stats).
    pub bytes: usize,
}

/// Source selector for a take.
#[derive(Clone, Copy)]
pub enum SrcSel {
    /// Match only this world rank.
    Exact(usize),
    /// Match any source (within the context).
    Any,
}

fn matches(env: &Envelope, ctx: u64, src: SrcSel, tag: u64) -> bool {
    env.ctx == ctx
        && env.tag == tag
        && match src {
            SrcSel::Exact(s) => env.src == s,
            SrcSel::Any => true,
        }
}

/// Per-rank mailbox capacity, in envelopes, of a `p`-rank threads or
/// sockets world: `max(8·p, 256)`, a wide margin over the `p − 1`
/// undrained envelopes a correct collective can park in one mailbox.
pub fn world_capacity(p: usize) -> usize {
    (8 * p).max(256)
}

/// A bounded, abort-aware mailbox.
pub struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl Mailbox {
    /// A mailbox holding at most `capacity` envelopes (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Deliver an envelope, blocking while the mailbox is full. Returns
    /// `false` if the world aborted while waiting (the envelope is
    /// dropped).
    pub fn push(&self, env: Envelope, aborted: &AtomicBool) -> bool {
        let mut q = self.queue.lock().expect("mailbox mutex poisoned");
        while q.len() >= self.capacity {
            if aborted.load(Ordering::SeqCst) {
                return false;
            }
            q = self
                .not_full
                .wait(q)
                .expect("mailbox mutex poisoned while sender waited");
        }
        if aborted.load(Ordering::SeqCst) {
            return false;
        }
        q.push_back(env);
        drop(q);
        self.not_empty.notify_all();
        true
    }

    /// Non-blocking push: deliver `env` if the mailbox has room, else hand
    /// it back to the caller. Lets a submission queue report "queue full"
    /// instead of blocking the client.
    pub fn try_push(&self, env: Envelope) -> Result<(), Envelope> {
        let mut q = self.queue.lock().expect("mailbox mutex poisoned");
        if q.len() >= self.capacity {
            return Err(env);
        }
        q.push_back(env);
        drop(q);
        self.not_empty.notify_all();
        Ok(())
    }

    /// Non-blocking take of the first envelope matching `(ctx, src, tag)`.
    pub fn try_take(&self, ctx: u64, src: SrcSel, tag: u64) -> Option<Envelope> {
        let mut q = self.queue.lock().expect("mailbox mutex poisoned");
        let pos = q.iter().position(|e| matches(e, ctx, src, tag))?;
        let env = q.remove(pos).expect("position found above");
        drop(q);
        self.not_full.notify_all();
        Some(env)
    }

    /// Blocking take of the first envelope matching `(ctx, src, tag)`.
    /// Returns `None` if the world aborted while waiting.
    pub fn take(&self, ctx: u64, src: SrcSel, tag: u64, aborted: &AtomicBool) -> Option<Envelope> {
        let mut q = self.queue.lock().expect("mailbox mutex poisoned");
        loop {
            if let Some(pos) = q.iter().position(|e| matches(e, ctx, src, tag)) {
                let env = q.remove(pos).expect("position found above");
                drop(q);
                self.not_full.notify_all();
                return Some(env);
            }
            if aborted.load(Ordering::SeqCst) {
                return None;
            }
            q = self
                .not_empty
                .wait(q)
                .expect("mailbox mutex poisoned while receiver waited");
        }
    }

    /// Wake every waiter (sender or receiver) so it can observe an abort.
    pub fn interrupt(&self) {
        // Take the lock so wake-ups cannot race ahead of the abort-flag
        // store in a waiter that is between its check and its wait.
        drop(self.queue.lock().expect("mailbox mutex poisoned"));
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn env(src: usize, tag: u64) -> Envelope {
        Envelope {
            ctx: 0,
            src,
            tag,
            data: Box::new(vec![0u8]),
            bytes: 1,
        }
    }

    #[test]
    fn matches_by_ctx_src_tag_in_fifo_order() {
        let mb = Mailbox::new(16);
        let ab = AtomicBool::new(false);
        assert!(mb.push(env(1, 7), &ab));
        assert!(mb.push(env(2, 7), &ab));
        assert!(mb.push(env(1, 9), &ab));
        let got = mb.try_take(0, SrcSel::Exact(1), 7).expect("queued");
        assert_eq!((got.src, got.tag), (1, 7));
        let got = mb.try_take(0, SrcSel::Any, 7).expect("queued");
        assert_eq!(got.src, 2);
        assert!(mb.try_take(0, SrcSel::Exact(2), 9).is_none());
        assert!(mb.try_take(1, SrcSel::Exact(1), 9).is_none(), "wrong ctx");
        assert!(mb.try_take(0, SrcSel::Exact(1), 9).is_some());
    }

    #[test]
    fn bounded_push_blocks_until_drained() {
        let mb = Arc::new(Mailbox::new(2));
        let ab = Arc::new(AtomicBool::new(false));
        assert!(mb.push(env(0, 1), &ab));
        assert!(mb.push(env(0, 1), &ab));
        let (mb2, ab2) = (Arc::clone(&mb), Arc::clone(&ab));
        let sender = std::thread::spawn(move || mb2.push(env(0, 1), &ab2));
        // The third push cannot complete until we take one out.
        std::thread::yield_now();
        assert!(mb.take(0, SrcSel::Any, 1, &ab).is_some());
        assert!(sender.join().expect("sender thread"));
        // Queue now holds the two remaining envelopes.
        assert!(mb.try_take(0, SrcSel::Any, 1).is_some());
        assert!(mb.try_take(0, SrcSel::Any, 1).is_some());
        assert!(mb.try_take(0, SrcSel::Any, 1).is_none());
    }

    #[test]
    fn interrupt_unblocks_receiver_on_abort() {
        let mb = Arc::new(Mailbox::new(4));
        let ab = Arc::new(AtomicBool::new(false));
        let (mb2, ab2) = (Arc::clone(&mb), Arc::clone(&ab));
        let receiver = std::thread::spawn(move || mb2.take(0, SrcSel::Any, 1, &ab2));
        std::thread::yield_now();
        ab.store(true, Ordering::SeqCst);
        mb.interrupt();
        assert!(receiver.join().expect("receiver thread").is_none());
    }
}
