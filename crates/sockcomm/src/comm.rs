//! The sockets-backend communicator: [`SockComm`] is a
//! [`comm::raw::RawComm`] transport over per-peer socket links and the
//! shared bounded-mailbox matching discipline.
//!
//! `SockComm` supplies only frame encoding/decoding at the send/recv
//! boundary and mailbox matching. The [`comm::Communicator`] impl, the
//! collective algorithm bodies, the reserved-tag allocator and `split`
//! (with its stateless hash-derived child context id — a process-per-rank
//! world cannot share a registry) are the single copy in [`comm::raw`] that
//! the simulator and the threads backend run too, so collective *results*
//! (including deterministic rank-order reduction folds) are bit-identical
//! across all three backends.

use crate::frame::{Frame, FrameKind};
use crate::universe::SockUniverse;
use ::comm::mailbox::{Envelope, SrcSel};
use ::comm::raw::{Group, RawComm};
use ::comm::Wire;
use std::sync::Arc;

/// Panic payload used when a rank unwinds because the world aborted
/// (typically: a peer process died). The child runtime catches it and
/// turns the recorded [`crate::DeadPeer`] into the diagnostic.
#[derive(Debug)]
pub struct SockAborted {
    /// Communicator rank that was interrupted.
    pub rank: usize,
}

/// A rank-local handle to a sockets-backend communicator; it lives on that
/// rank process's main thread.
pub struct SockComm {
    uni: Arc<SockUniverse>,
    group: Group,
}

impl SockComm {
    pub(crate) fn new(uni: Arc<SockUniverse>, group: Group) -> Self {
        Self { uni, group }
    }

    fn check_alive(&self) {
        if self.uni.is_aborted() {
            self.abort_unwind();
        }
    }

    fn abort_unwind(&self) -> ! {
        // resume_unwind, not panic_any: this is deliberate control flow to
        // the catch_unwind in the rank runtime (which reports the dead
        // peer), so the panic hook's backtrace would be pure noise.
        std::panic::resume_unwind(Box::new(SockAborted {
            rank: self.group.rank(),
        }))
    }

    fn open_envelope<T: Wire>(&self, env: Envelope) -> (usize, Vec<T>) {
        let src_comm = self
            .group
            .rank_of_world(env.src)
            .expect("sender is a member of this communicator");
        let bytes = env
            .data
            .downcast::<Vec<u8>>()
            .unwrap_or_else(|_| panic!("non-byte payload in sockets mailbox (tag {})", env.tag));
        let data = T::get_vec(&bytes).unwrap_or_else(|| {
            panic!(
                "undecodable payload from world rank {} (ctx {}, tag {}, {} bytes): \
                 sender and receiver disagree on the element type",
                env.src,
                env.ctx,
                env.tag,
                bytes.len()
            )
        });
        (src_comm, data)
    }

    fn recv_sel_raw<T: Wire>(&self, src: SrcSel, tag: u64) -> (usize, Vec<T>) {
        self.check_alive();
        match self
            .uni
            .mailbox
            .take(self.group.ctx(), src, tag, &self.uni.aborted)
        {
            Some(env) => self.open_envelope(env),
            None => self.abort_unwind(),
        }
    }
}

impl RawComm for SockComm {
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
        let src_w = self.group.world_rank();
        let dst_w = self.group.world_rank_of(dst);
        let mut payload = Vec::new();
        T::put_slice(&data, &mut payload);
        let bytes = payload.len();
        self.uni.stats.record(bytes);
        self.uni.recorder.on_send(src_w, dst_w, bytes);
        if dst_w == src_w {
            // Self-send: straight into the local mailbox, no socket.
            let delivered = self.uni.mailbox.push(
                Envelope {
                    ctx: self.group.ctx(),
                    src: src_w,
                    tag,
                    data: Box::new(payload),
                    bytes,
                },
                &self.uni.aborted,
            );
            if !delivered {
                self.abort_unwind();
            }
            return;
        }
        let frame = Frame {
            kind: FrameKind::Data,
            ctx: self.group.ctx(),
            src: src_w as u32,
            tag,
            payload,
        };
        if let Err(e) = self.uni.send_frame(dst_w, &frame) {
            // A write error means the peer's socket is gone: record the
            // death (EPIPE/ECONNRESET arrive here because Rust ignores
            // SIGPIPE) and unwind.
            self.uni
                .peer_died(dst_w, format!("send to rank {dst_w} failed: {e}"));
            self.abort_unwind();
        }
    }

    fn recv_vec_raw<T: Wire>(&self, src: usize, tag: u64) -> Vec<T> {
        self.recv_sel_raw(SrcSel::Exact(self.group.world_rank_of(src)), tag)
            .1
    }

    fn recv_any_raw<T: Wire>(&self, tag: u64) -> (usize, Vec<T>) {
        self.recv_sel_raw(SrcSel::Any, tag)
    }

    fn try_recv_any_raw<T: Wire>(&self, tag: u64) -> Option<(usize, Vec<T>)> {
        self.check_alive();
        self.uni
            .mailbox
            .try_take(self.group.ctx(), SrcSel::Any, tag)
            .map(|env| self.open_envelope(env))
    }
}
