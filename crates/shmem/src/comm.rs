//! The threads-backend communicator: [`ThreadComm`] implements the
//! [`comm::Communicator`] transport primitives over bounded mailboxes and
//! real wall-clock time, and lends the runs of an owned exchange.
//!
//! Everything above raw send/receive — the collective algorithm bodies,
//! the reserved-tag allocator, `split` — is the trait's provided methods,
//! the same code the simulator and the sockets backend run. That keeps the
//! backends' collective *results* (including deterministic rank-order
//! reduction folds) bit-identical; only arrival timing differs.

use crate::mailbox::{Envelope, SrcSel};
use crate::universe::Universe;
use ::comm::raw::{append_moved, Group};
use ::comm::{Aborted, Budget, Communicator, Run, Wire};
use std::any::Any;
use std::sync::Arc;

/// What an envelope carries.
enum Payload<T> {
    /// The vector `send_raw` moved in.
    Moved(Vec<T>),
    /// The window of the sender's buffer `send_run_raw` lent.
    Lent(Run<T>),
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
        Aborted::raise(self.group.rank())
    }

    fn check_alive(&self) {
        if self.uni.is_aborted() {
            self.abort_unwind();
        }
    }

    /// Enqueue `data` (`bytes` of payload) for communicator rank `dst`:
    /// the one send path, and its one accounting call.
    fn push(&self, dst: usize, tag: u64, data: Box<dyn Any + Send>, bytes: usize) {
        self.check_alive();
        let src_w = self.group.world_rank();
        let dst_w = self.group.world_rank_of(dst);
        self.uni.recorder.on_send(src_w, dst_w, bytes);
        let delivered = self.uni.mailboxes[dst_w].push(
            Envelope {
                ctx: self.group.ctx(),
                src: src_w,
                tag,
                data,
                bytes,
            },
            &self.uni.aborted,
        );
        if !delivered {
            self.abort_unwind();
        }
    }

    /// Blocking take of the next envelope on `tag` from communicator rank
    /// `src` (any member with `None`); unwinds if the world aborted.
    fn take(&self, src: Option<usize>, tag: u64) -> Envelope {
        self.check_alive();
        let sel = src.map_or(SrcSel::Any, |s| SrcSel::Exact(self.group.world_rank_of(s)));
        self.uni.mailboxes[self.group.world_rank()]
            .take(self.group.ctx(), sel, tag, &self.uni.aborted)
            .unwrap_or_else(|| self.abort_unwind())
    }

    fn open<T: Wire>(env: Envelope) -> Payload<T> {
        let payload = match env.data.downcast::<Vec<T>>() {
            Ok(moved) => Payload::Moved(*moved),
            Err(data) => Payload::Lent(
                *data
                    .downcast::<Run<T>>()
                    .unwrap_or_else(|_| panic!("type mismatch on recv (tag {})", env.tag)),
            ),
        };
        let records: &[T] = match &payload {
            Payload::Moved(v) => v,
            Payload::Lent(run) => run,
        };
        debug_assert_eq!(env.bytes, std::mem::size_of_val(records));
        payload
    }

    /// The sender's communicator rank with the envelope's payload as a run.
    fn open_run<T: Wire>(&self, env: Envelope) -> (usize, Run<T>) {
        let src_comm = self
            .group
            .rank_of_world(env.src)
            .expect("sender is a member of this communicator");
        let run = match Self::open(env) {
            Payload::Moved(v) => v.into(),
            Payload::Lent(run) => run,
        };
        (src_comm, run)
    }
}

impl Communicator for ThreadComm {
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
        let bytes = std::mem::size_of::<T>() * data.len();
        self.push(dst, tag, Box::new(data), bytes);
    }

    /// Lends: the window itself crosses the mailbox, so the receiver reads
    /// this rank's buffer in place. Still one message of the run's bytes in
    /// every traffic table; `comm.bytes_lent` says they were not copied.
    fn send_run_raw<T: Wire>(&self, dst: usize, tag: u64, run: Run<T>) {
        let bytes = std::mem::size_of_val::<[T]>(&run);
        self.uni.recorder.count("comm.bytes_lent", bytes as u64);
        self.push(dst, tag, Box::new(run), bytes);
    }

    /// The peers' windows hold the buffer anyway: keep the window.
    fn self_run_raw<T: Wire>(&self, run: Run<T>) -> Run<T> {
        run
    }

    fn recv_into_raw<T: Wire>(&self, src: usize, tag: u64, out: &mut Vec<T>) {
        match Self::open(self.take(Some(src), tag)) {
            Payload::Moved(v) => append_moved(v, out),
            Payload::Lent(run) => out.extend_from_slice(&run),
        }
    }

    /// Several sources: the first run to land.
    fn recv_run_raw<T: Wire>(&self, from: &[usize], tag: u64) -> (usize, Run<T>) {
        let src = match *from {
            [src] => Some(src),
            _ => None,
        };
        self.open_run(self.take(src, tag))
    }
}
