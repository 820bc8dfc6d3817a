//! The sockets-backend communicator: [`SockComm`] implements the
//! [`comm::Communicator`] transport primitives over per-peer socket links
//! and the shared bounded-mailbox matching discipline.
//!
//! `SockComm` supplies only `Wire` encoding/decoding at the send/recv
//! boundary and mailbox matching: a send encodes once from the borrowed
//! slice (pod slices not at all) and a receive decodes once, onto the end
//! of the caller's buffer (a chunk of 8-byte-aligned pods into a run of its
//! own not at all: the received payload is the run). The collective
//! algorithm bodies, the reserved-tag allocator and `split` (with its
//! stateless hash-derived child context id — a process-per-rank world
//! cannot share a registry) are the trait's provided methods, the single
//! copy the simulator and the threads backend run too, so collective
//! *results* (including deterministic rank-order reduction folds) are
//! bit-identical across all three backends.

use crate::frame::FrameKind;
use crate::universe::SockUniverse;
use ::comm::mailbox::{Envelope, SrcSel};
use ::comm::pages;
use ::comm::raw::Group;
use ::comm::wire::Payload;
use ::comm::{Aborted, Budget, Communicator, Run, Wire};
use std::borrow::Cow;
use std::sync::Arc;

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

    /// Unwind with [`Aborted`] (typically: a peer process died); the
    /// child runtime catches it and turns the recorded
    /// [`crate::DeadPeer`] into the diagnostic.
    fn abort_unwind(&self) -> ! {
        Aborted::raise(self.group.rank())
    }

    /// Decode an envelope's payload onto the end of `out` — into an empty
    /// `out`, a payload of 8-byte-aligned pods becomes it
    /// ([`Payload::decode_into`]); the sender's communicator rank.
    fn open_envelope<T: Wire>(&self, env: Envelope, out: &mut Vec<T>) -> usize {
        let src_comm = self
            .group
            .rank_of_world(env.src)
            .expect("sender is a member of this communicator");
        let payload = env
            .data
            .downcast::<Payload>()
            .unwrap_or_else(|_| panic!("non-byte payload in sockets mailbox (tag {})", env.tag));
        assert!(
            payload.decode_into(out),
            "undecodable payload from world rank {} (ctx {}, tag {}, {} bytes): \
             sender and receiver disagree on the element type",
            env.src,
            env.ctx,
            env.tag,
            env.bytes
        );
        src_comm
    }

    /// [`SockComm::open_envelope`] into a run of its own.
    fn open_envelope_new<T: Wire>(&self, env: Envelope) -> (usize, Run<T>) {
        let mut out = Vec::new();
        (self.open_envelope(env, &mut out), out.into())
    }

    /// Blocking take of the next matching envelope; unwinds if the world
    /// aborted.
    fn take_envelope(&self, src: SrcSel, tag: u64) -> Envelope {
        self.check_alive();
        self.uni
            .mailbox
            .take(self.group.ctx(), src, tag, &self.uni.aborted)
            .unwrap_or_else(|| self.abort_unwind())
    }
}

impl Communicator for SockComm {
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

    fn budget(&self) -> &Budget {
        &self.uni.budget
    }

    fn send_raw<T: Wire>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.send_slice_raw(dst, tag, &data);
    }

    /// Encode once, from the borrow: a pod slice is written to the socket
    /// from its own memory, anything else through one encoded buffer.
    fn send_slice_raw<T: Wire>(&self, dst: usize, tag: u64, data: &[T]) {
        self.check_alive();
        let src_w = self.group.world_rank();
        let dst_w = self.group.world_rank_of(dst);
        let payload = match T::as_wire_bytes(data) {
            Some(bytes) => Cow::Borrowed(bytes),
            None => {
                let mut buf = pages::with_capacity(std::mem::size_of_val(data));
                T::put_slice(data, &mut buf);
                Cow::Owned(buf)
            }
        };
        self.uni.recorder.on_send(src_w, dst_w, payload.len());
        if dst_w == src_w {
            // Self-send: straight into the local mailbox, no socket.
            let delivered = self.uni.mailbox.push(
                Envelope {
                    ctx: self.group.ctx(),
                    src: src_w,
                    tag,
                    bytes: payload.len(),
                    data: Box::new(Payload::from(&*payload)),
                },
                &self.uni.aborted,
            );
            if !delivered {
                self.abort_unwind();
            }
            return;
        }
        match self
            .uni
            .send_frame(dst_w, FrameKind::Data, self.group.ctx(), tag, &payload)
        {
            Ok(()) => {}
            // Refused before a byte was written: this rank asked for a
            // frame no receiver accepts. Its own failure, not the peer's.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                panic!("rank {src_w} cannot send to rank {dst_w} (tag {tag}): {e}")
            }
            Err(e) => {
                // A write error means the peer's socket is gone: record the
                // death (EPIPE/ECONNRESET arrive here because Rust ignores
                // SIGPIPE) and unwind.
                self.uni
                    .peer_died(dst_w, format!("send to rank {dst_w} failed: {e}"));
                self.abort_unwind();
            }
        }
    }

    fn recv_into_raw<T: Wire>(&self, src: usize, tag: u64, out: &mut Vec<T>) {
        let sel = SrcSel::Exact(self.group.world_rank_of(src));
        self.open_envelope(self.take_envelope(sel, tag), out);
    }

    /// Several sources: the first run to land.
    fn recv_run_raw<T: Wire>(&self, from: &[usize], tag: u64) -> (usize, Run<T>) {
        let sel = match *from {
            [src] => SrcSel::Exact(self.group.world_rank_of(src)),
            _ => SrcSel::Any,
        };
        self.open_envelope_new(self.take_envelope(sel, tag))
    }
}
