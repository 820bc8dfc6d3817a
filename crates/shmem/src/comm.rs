//! The threads-backend communicator: [`ThreadComm`] is a
//! [`comm::raw::RawComm`] transport over bounded mailboxes and real
//! wall-clock time.
//!
//! Everything above raw send/receive — the [`comm::Communicator`] impl,
//! the collective algorithm bodies, the reserved-tag allocator, `split` —
//! is the single copy in [`comm::raw`], the same code the simulator and the
//! sockets backend run. That keeps the backends' collective *results*
//! (including deterministic rank-order reduction folds) bit-identical; only
//! arrival timing differs.

use crate::mailbox::{Envelope, SrcSel};
use crate::universe::Universe;
use ::comm::raw::{append_moved, Group, RawComm};
use ::comm::Wire;
use std::sync::Arc;

/// Panic payload used when a rank unwinds *because another rank panicked*
/// (the world was aborted). The runtime filters these out so the original
/// failure is the one re-raised to the caller.
#[derive(Debug)]
pub struct ShmemAborted {
    /// Communicator rank that was interrupted.
    pub rank: usize,
}

/// A rank-local handle to a threads-backend communicator; it lives on that
/// rank's thread.
pub struct ThreadComm {
    uni: Arc<Universe>,
    group: Group,
}

impl ThreadComm {
    pub(crate) fn new(uni: Arc<Universe>, group: Group) -> Self {
        Self { uni, group }
    }

    /// The shared world state.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.uni
    }

    fn abort_unwind(&self) -> ! {
        std::panic::panic_any(ShmemAborted {
            rank: self.group.rank(),
        })
    }

    fn check_alive(&self) {
        if self.uni.is_aborted() {
            self.abort_unwind();
        }
    }

    fn my_mailbox(&self) -> &crate::mailbox::Mailbox {
        &self.uni.mailboxes[self.group.world_rank()]
    }

    fn open_envelope<T: Send + 'static>(&self, env: Envelope) -> (usize, Vec<T>) {
        let src_comm = self
            .group
            .rank_of_world(env.src)
            .expect("sender is a member of this communicator");
        let data = env
            .data
            .downcast::<Vec<T>>()
            .unwrap_or_else(|_| panic!("type mismatch on recv (tag {})", env.tag));
        debug_assert_eq!(env.bytes, std::mem::size_of::<T>() * data.len());
        (src_comm, *data)
    }

    fn recv_sel_raw<T: Send + 'static>(&self, src: SrcSel, tag: u64) -> (usize, Vec<T>) {
        self.check_alive();
        match self
            .my_mailbox()
            .take(self.group.ctx(), src, tag, &self.uni.aborted)
        {
            Some(env) => self.open_envelope(env),
            None => self.abort_unwind(),
        }
    }
}

impl RawComm for ThreadComm {
    fn group(&self) -> &Group {
        &self.group
    }

    fn with_group(&self, group: Group) -> Self {
        Self::new(Arc::clone(&self.uni), group)
    }

    fn cores_per_node(&self) -> usize {
        self.uni.cores_per_node
    }

    fn now(&self) -> f64 {
        self.uni.start.elapsed().as_secs_f64()
    }

    fn recorder(&self) -> &telemetry::Recorder {
        &self.uni.recorder
    }

    fn send_raw<T: Wire>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.check_alive();
        let bytes = std::mem::size_of::<T>() * data.len();
        let src_w = self.group.world_rank();
        let dst_w = self.group.world_rank_of(dst);
        self.uni.recorder.on_send(src_w, dst_w, bytes);
        let delivered = self.uni.mailboxes[dst_w].push(
            Envelope {
                ctx: self.group.ctx(),
                src: src_w,
                tag,
                data: Box::new(data),
                bytes,
            },
            &self.uni.aborted,
        );
        if !delivered {
            self.abort_unwind();
        }
    }

    fn recv_into_raw<T: Wire>(&self, src: usize, tag: u64, out: &mut Vec<T>) {
        let sel = SrcSel::Exact(self.group.world_rank_of(src));
        append_moved(self.recv_sel_raw(sel, tag).1, out);
    }

    fn recv_any_raw<T: Wire>(&self, tag: u64) -> (usize, Vec<T>) {
        self.recv_sel_raw(SrcSel::Any, tag)
    }

    fn try_recv_any_raw<T: Wire>(&self, tag: u64) -> Option<(usize, Vec<T>)> {
        self.check_alive();
        self.my_mailbox()
            .try_take(self.group.ctx(), SrcSel::Any, tag)
            .map(|env| self.open_envelope(env))
    }
}
