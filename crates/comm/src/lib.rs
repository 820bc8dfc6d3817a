//! # comm — the transport abstraction under SDS-Sort
//!
//! The sort algorithms in `sdssort` are written against the
//! [`Communicator`] trait rather than a concrete runtime, so the same
//! algorithm code runs over three very different substrates:
//!
//! * **`mpisim`** — the deterministic virtual-time simulator: single
//!   logical timeline per rank, LogGP network cost model, fault injection,
//!   deterministic by construction (every receive names its sources, and
//!   a set of them is taken in virtual-arrival order). This is where
//!   correctness is proved.
//! * **`shmem`** — a real OS-thread backend: one thread per rank, bounded
//!   in-memory mailboxes, wall-clock [`std::time::Instant`] timing. This is
//!   where real elapsed time is measured.
//! * **`sockcomm`** — a distributed backend: one OS process per rank,
//!   connected by a full mesh of Unix-domain or TCP sockets with
//!   length-prefixed `(ctx, src, tag)` frames. This is where
//!   serialization boundaries and process death are real.
//!
//! Each backend is a *transport*: it implements the required methods of
//! [`Communicator`] — raw send/receive on any tag, a clock, a recorder, its
//! world's [`Budget`] and its communicator bookkeeping ([`raw::Group`]) —
//! and nothing else. Everything above those primitives is a provided
//! method of the trait or lives in [`raw`]: the reserved-tag allocator,
//! `split`, the collective algorithm bodies and the asynchronous
//! all-to-all ([`raw::RawAsync`]) exist in exactly one copy, which is why
//! the same seed yields bit-identical output on all three substrates.
//! `tests/transport_conformance.rs` checks that copy on all three alike.
//! The real backends additionally share the [`mailbox`] module (the
//! `(ctx, src, tag)` matching discipline) and [`Wire`], the zero-copy
//! record codec. [`pages`] is where every layer — the receive buffers here,
//! the sockets' frame payloads, `sdssort`'s scratch and merge outputs —
//! gets an `n`-record buffer from. A rank a failed peer interrupts unwinds
//! with the one [`Aborted`] sentinel, whichever the backend.
//!
//! The trait is MPI-flavoured: rank / topology queries, buffered
//! point-to-point sends, the collectives the sort uses, the asynchronous
//! all-to-all protocol ([`raw::RawAsync`] and [`AsyncExchange`]),
//! communicator splitting, plus the cost-accounting and telemetry hooks
//! (`compute`, `charge_compute`, spans, counters) that feed
//! `telemetry::RunReport`.
//!
//! ## Composed collectives
//!
//! The traffic-generating collectives (`barrier`, `bcast`, `gatherv`,
//! `alltoall`, `alltoallv_given_counts`, `scatterv`, the async all-to-all,
//! their owned forms over [`Run`]s, `split`) talk to the transport
//! directly. The rest (`allreduce`, `exscan`, `allgatherv`, …) are composed
//! from those, with reductions folded in rank order — so results are
//! deterministic even for non-commutative closures, and identical on every
//! backend.
//!
//! ## Tags
//!
//! User point-to-point traffic must stay below [`MAX_USER_TAG`]; the space
//! above it is reserved for collectives, which key their traffic by a
//! per-communicator operation sequence number ([`raw::Group`]), so
//! interleaved collectives and user messages never cross-match.

#![warn(missing_docs)]

pub mod mailbox;
pub mod memory;
pub mod pages;
pub mod raw;
pub mod run;
pub mod wire;

pub use memory::Budget;
pub use run::Run;
pub use wire::Wire;

use raw::{Group, RawAsync};
use std::fmt;
use std::sync::Arc;
use telemetry::{Recorder, SpanId};

/// Largest tag value available to user point-to-point messages. The space
/// at and above this value is reserved for collective operations, whose
/// tags are `MAX_USER_TAG + (op_seq << 12) + round`.
pub const MAX_USER_TAG: u64 = 1 << 48;

/// Error returned when a rank exceeds its memory budget.
///
/// The SDS-Sort paper reports HykSort crashing with out-of-memory errors on
/// skewed inputs because load imbalance concentrates most of the data on a
/// few ranks. Every backend reproduces that failure mode with a per-rank
/// byte [`Budget`]; a world built without a limit never returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Rank (in the world communicator) whose budget was exceeded.
    pub rank: usize,
    /// Bytes the allocation requested.
    pub requested: usize,
    /// Bytes that were still available under the budget.
    pub available: usize,
    /// Total per-rank budget in bytes.
    pub budget: usize,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OOM on rank {}: requested {} B, {} B available of {} B budget",
            self.rank, self.requested, self.available, self.budget
        )
    }
}

impl std::error::Error for OomError {}

/// Panic payload a rank unwinds with *because its world aborted* — a peer
/// panicked, a peer process died, or the simulator declared a deadlock —
/// rather than because of a failure of its own. Every backend raises it
/// from a blocked or late send/receive, and every runner filters it, so
/// the original failure is the one re-raised to the caller.
#[derive(Debug)]
pub struct Aborted {
    /// Communicator rank that was interrupted.
    pub rank: usize,
}

impl Aborted {
    /// Unwind the calling rank with the sentinel. `resume_unwind`, not
    /// `panic_any`: this is control flow to the runner's `catch_unwind`,
    /// and the panic hook's message would be noise next to the original.
    pub fn raise(rank: usize) -> ! {
        std::panic::resume_unwind(Box::new(Aborted { rank }))
    }
}

/// Handle to an in-flight asynchronous `alltoallv` (the paper's
/// `SdssAlltoallvAsync` / `SdssFinished` pair, §2.6): all sends are posted
/// up front, and completed per-peer chunks are retrieved incrementally so
/// the caller can merge while the network is still moving data.
pub trait AsyncExchange<T: Clone, C: Communicator> {
    /// Retrieve the next completed chunk as `(source_rank, run)`, blocking
    /// if none has arrived yet. Returns `None` once all chunks have been
    /// delivered. The local (self) chunk is delivered first — it is
    /// "complete" immediately — then remote chunks in the transport's
    /// arrival order (first to land on a real transport, earliest virtual
    /// arrival in the simulator). On a transport that lends, the run is a
    /// window of the sender's buffer.
    fn wait_any_run(&mut self, comm: &C) -> Option<(usize, Run<T>)>;

    /// [`AsyncExchange::wait_any_run`] with the chunk as a vector of its
    /// own ([`Run::into_vec`]: a lent window is copied out).
    fn wait_any(&mut self, comm: &C) -> Option<(usize, Vec<T>)> {
        self.wait_any_run(comm)
            .map(|(src, run)| (src, run.into_vec()))
    }

    /// Number of per-peer chunks not yet delivered.
    fn remaining(&self) -> usize;

    /// Per-source receive counts (available immediately).
    fn recv_counts(&self) -> &[usize];

    /// Total number of records this rank will receive.
    fn total_recv(&self) -> usize {
        self.recv_counts().iter().sum()
    }

    /// Drain every remaining chunk, returning them in arrival order.
    fn wait_all(&mut self, comm: &C) -> Vec<(usize, Vec<T>)> {
        let mut out = Vec::with_capacity(self.remaining());
        while let Some(hit) = self.wait_any(comm) {
            out.push(hit);
        }
        out
    }
}

/// A rank-local communicator handle: one rank's view of a communicator,
/// analogous to an `MPI_Comm` plus the calling rank.
///
/// A backend is a *transport*: its required methods are the primitives —
/// its [`Group`], its clock, its recorder, its world's [`Budget`], raw
/// point-to-point operations on any tag — and every collective is a
/// provided method over them, so all three backends run one copy.
///
/// All sends are *buffered* (the payload is copied/moved into an envelope
/// and the call returns once it is enqueued), so the common
/// send-everything-then-receive-everything pattern cannot deadlock on any
/// conforming backend.
///
/// The `*_raw` methods take any tag, including the reserved collective
/// tags at and above [`MAX_USER_TAG`]: they are the transport surface, and
/// xlint's `user-tag-range` rule keeps them out of algorithm code.
pub trait Communicator: Sized {
    // ---- transport primitives (required) ---------------------------------

    /// This handle's communicator bookkeeping.
    fn group(&self) -> &Group;

    /// A handle for the same rank of the same world over another
    /// communicator (the child of a split).
    fn with_group(&self, group: Group) -> Self;

    /// Cores per node of the machine (simulated or host).
    fn cores_per_node(&self) -> usize;

    /// Current time on this rank's timeline, in seconds. Virtual time under
    /// the simulator, wall-clock seconds since world start under a real
    /// backend. Only differences are meaningful.
    fn now(&self) -> f64;

    /// The world's telemetry recorder (disabled unless the world enabled it).
    fn recorder(&self) -> &Recorder;

    /// The world's memory account, indexed by world rank.
    fn budget(&self) -> &Budget;

    /// Send an owned vector to communicator rank `dst` on any tag
    /// (including reserved collective tags).
    fn send_raw<T: Wire>(&self, dst: usize, tag: u64, data: Vec<T>);

    /// Blocking receive from communicator rank `src` on any tag, appended
    /// to `out`: the one receive primitive of the source-ordered paths. A
    /// transport that moves vectors through one address space hands its
    /// message to [`raw::append_moved`]; one that serializes decodes the
    /// payload bytes straight onto the end of `out`.
    fn recv_into_raw<T: Wire>(&self, src: usize, tag: u64, out: &mut Vec<T>);

    /// Blocking receive of one run on `tag` from one of the communicator
    /// ranks `from` (ascending, non-empty; each has one run to send);
    /// returns the sender's communicator rank with the payload (a vector
    /// of its own unless the sender lent a window). With one rank it is an
    /// exact-source receive. With several it is the transport's one
    /// multi-source receive, and which run comes first is the transport's
    /// arrival order: the first to land on a real transport, the earliest
    /// virtual arrival in a simulator. [`RawAsync`] keys the runs by source
    /// and hard-asserts against duplicates, so the order cannot change a
    /// result.
    fn recv_run_raw<T: Wire>(&self, from: &[usize], tag: u64) -> (usize, Run<T>);

    // ---- transport hooks (defaulted) -------------------------------------

    /// Send a slice to communicator rank `dst` on any tag. The default
    /// clones it into a vector to hand over; a transport that serializes
    /// (sockets) encodes straight from the borrow instead.
    fn send_slice_raw<T: Wire>(&self, dst: usize, tag: u64, data: &[T]) {
        self.send_raw(dst, tag, data.to_vec());
    }

    /// Blocking receive from communicator rank `src` on any tag.
    fn recv_vec_raw<T: Wire>(&self, src: usize, tag: u64) -> Vec<T> {
        let mut out = Vec::new();
        self.recv_into_raw(src, tag, &mut out);
        out
    }

    /// Blocking receive of a single value from communicator rank `src`.
    fn recv_val_raw<T: Wire>(&self, src: usize, tag: u64) -> T {
        let v = self.recv_vec_raw::<T>(src, tag);
        debug_assert_eq!(v.len(), 1, "recv_val expects single-element message");
        v.into_iter().next().expect("non-empty message")
    }

    /// Send `run` to communicator rank `dst` on any tag: how a chunk of an
    /// owned exchange leaves. The default copies — it is
    /// [`Communicator::send_slice_raw`] from the borrow — and drops the
    /// window; a transport whose ranks share an address space *lends*
    /// instead, handing the window itself to the receiver.
    fn send_run_raw<T: Wire>(&self, dst: usize, tag: u64, run: Run<T>) {
        self.send_slice_raw(dst, tag, &run);
    }

    /// The run a rank delivers to itself out of the buffer it is sending
    /// from, once every remote chunk has been sent. The default takes the
    /// buffer back, cut down to the run ([`Run::try_into_owned`]): a
    /// transport that copies holds no window by then, so the rest of the
    /// buffer is given back before the receives and the run costs no
    /// fresh pages. Only while the buffer is still shared is the run
    /// copied. A transport that lends keeps the window, since the peers'
    /// windows hold the buffer anyway.
    fn self_run_raw<T: Wire>(&self, run: Run<T>) -> Run<T> {
        run.try_into_owned()
            .unwrap_or_else(|shared| {
                let mut copy = pages::with_capacity(shared.len());
                copy.extend_from_slice(&shared);
                copy
            })
            .into()
    }

    /// Called by [`RawAsync`]'s `wait_any_run` with the number of chunks
    /// still pending, before it looks for one: the `MPI_Test` sweep over
    /// the outstanding requests. Costs nothing on a real transport; a cost
    /// model charges it here.
    fn async_test_sweep(&self, _pending: usize) {}

    /// Bytes of the budget withheld from this rank right now: zero on a
    /// real transport; the simulator's memory-pressure fault ramp
    /// withholds a share that grows with virtual time.
    fn withheld(&self) -> usize {
        0
    }

    // ---- identity & topology ---------------------------------------------

    /// Communicator size (`MPI_Comm_size`).
    fn size(&self) -> usize {
        self.group().size()
    }

    /// This rank within the communicator (`MPI_Comm_rank`).
    fn rank(&self) -> usize {
        self.group().rank()
    }

    /// This rank in the world communicator.
    fn world_rank(&self) -> usize {
        self.group().world_rank()
    }

    /// World rank of communicator rank `r`.
    fn world_rank_of(&self, r: usize) -> usize {
        self.group().world_rank_of(r)
    }

    /// Node id hosting this rank; block placement unless the backend
    /// models another.
    fn node(&self) -> usize {
        self.world_rank() / self.cores_per_node()
    }

    // ---- time & cost accounting ------------------------------------------

    /// Run `f` and charge its cost to this rank's timeline. The default is
    /// the wall-clock one: the work takes the time it takes, and the
    /// elapsed seconds are attributed to the compute ledger. The simulator
    /// converts the measured host time to virtual seconds.
    fn compute<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = self.now();
        let r = f();
        self.recorder()
            .add_compute(self.world_rank(), self.now() - t0);
        r
    }

    /// Charge modeled compute seconds to this rank's timeline, attributing
    /// them to the compute ledger. The default is the wall-clock one:
    /// modeled costs exist to shape *virtual* time, so a real backend
    /// records the charge and does not stall the thread.
    fn charge_compute(&self, seconds: f64) {
        self.recorder().add_compute(self.world_rank(), seconds);
    }

    // ---- observability ----------------------------------------------------

    /// Attribute subsequent traffic and time to the named phase. No-op when
    /// telemetry is disabled.
    fn trace_phase(&self, name: &str) {
        self.recorder().set_phase(self.world_rank(), name);
    }

    /// Open a telemetry span on this rank at the current time.
    fn span_begin(&self, name: &str) -> SpanId {
        self.recorder()
            .span_begin(self.world_rank(), name, self.now())
    }

    /// Close a telemetry span at the current time.
    fn span_end(&self, id: SpanId) {
        self.recorder().span_end(id, self.now());
    }

    /// Record a telemetry point event on this rank at the current time.
    fn event(&self, name: &str, detail: &str) {
        self.recorder()
            .event(self.world_rank(), name, detail, self.now());
    }

    /// Bump a named telemetry counter.
    fn count(&self, name: &str, n: u64) {
        self.recorder().count(name, n);
    }

    // ---- memory accounting ------------------------------------------------

    /// Reserve `bytes` against this rank's memory [`Budget`]; always
    /// succeeds in a world built without a limit. With telemetry on, books
    /// `mem.high_water` and each refusal as `mem.oom`.
    fn try_alloc(&self, bytes: usize) -> Result<(), OomError> {
        let me = self.world_rank();
        let res = self.budget().try_alloc(me, bytes, self.withheld());
        let recorder = self.recorder();
        if recorder.enabled() {
            if let Err(e) = &res {
                recorder.count("mem.oom", 1);
                let detail = format!("requested {} with {} available", e.requested, e.available);
                recorder.event(me, "oom", &detail, self.now());
            }
            recorder.gauge_max("mem.high_water", self.budget().high_water(me) as f64);
        }
        res
    }

    /// Release a memory reservation.
    fn free(&self, bytes: usize) {
        self.budget().free(self.world_rank(), bytes);
    }

    /// Fraction of this rank's effective memory budget (the limit less
    /// what the transport withholds) that would be in use after reserving
    /// `extra` more bytes; 0.0 under an unlimited budget.
    fn memory_pressure_with(&self, extra: usize) -> f64 {
        self.budget()
            .pressure_with(self.world_rank(), extra, self.withheld())
    }

    // ---- point-to-point ---------------------------------------------------

    /// Send an owned vector to communicator rank `dst` with `tag` (must be
    /// below [`MAX_USER_TAG`]). Buffered: returns as soon as the envelope
    /// is enqueued (a bounded backend may block while the destination's
    /// mailbox is full, but never on the receiver *matching* the message).
    fn send_vec<T: Wire>(&self, dst: usize, tag: u64, data: Vec<T>) {
        raw::assert_user_tag(tag);
        self.send_raw(dst, tag, data);
    }

    /// Send a copy of a slice to communicator rank `dst`.
    fn send_slice<T: Wire>(&self, dst: usize, tag: u64, data: &[T]) {
        self.send_vec(dst, tag, data.to_vec());
    }

    /// Send a single value.
    fn send_val<T: Wire>(&self, dst: usize, tag: u64, value: T) {
        self.send_vec(dst, tag, vec![value]);
    }

    /// Blocking receive of a vector from communicator rank `src` with `tag`
    /// (below [`MAX_USER_TAG`]).
    fn recv_vec<T: Wire>(&self, src: usize, tag: u64) -> Vec<T> {
        raw::assert_user_tag(tag);
        self.recv_vec_raw(src, tag)
    }

    /// Blocking receive of a single value.
    fn recv_val<T: Wire>(&self, src: usize, tag: u64) -> T {
        raw::assert_user_tag(tag);
        self.recv_val_raw(src, tag)
    }

    // ---- collective primitives -------------------------------------------

    /// Synchronize all ranks: a dissemination barrier, `ceil(log2 p)`
    /// rounds, round `k` sends to `(r + 2^k) mod p` and receives from
    /// `(r - 2^k) mod p`.
    fn barrier(&self) {
        self.count("coll.barrier", 1);
        let p = self.size();
        if p == 1 {
            return;
        }
        let base = self.group().next_coll_tag();
        let r = self.rank();
        let mut k = 0u32;
        while (1usize << k) < p {
            let d = 1usize << k;
            let dst = (r + d) % p;
            let src = (r + p - d) % p;
            self.send_raw::<u8>(dst, base + u64::from(k), Vec::new());
            let _ = self.recv_vec_raw::<u8>(src, base + u64::from(k));
            k += 1;
        }
    }

    /// Broadcast from `root`. `data` must be `Some` on the root and is
    /// ignored elsewhere; every rank returns the payload. A binomial tree
    /// (virtual ranks rotate the root to 0).
    fn bcast<T: Wire>(&self, root: usize, data: Option<Vec<T>>) -> Vec<T> {
        self.count("coll.bcast", 1);
        let p = self.size();
        let tag = self.group().next_coll_tag();
        if p == 1 {
            return data.expect("root must supply data");
        }
        let vr = (self.rank() + p - root) % p; // virtual rank, root = 0
        let mut buf: Option<Vec<T>> = if vr == 0 {
            Some(data.expect("root must supply data"))
        } else {
            None
        };
        // Receive once from the appropriate parent, then forward.
        let rounds = (usize::BITS - (p - 1).leading_zeros()) as usize;
        for k in 0..rounds {
            let d = 1usize << k;
            if buf.is_none() && vr >= d && vr < 2 * d {
                let parent_vr = vr - d;
                let parent = (parent_vr + root) % p;
                buf = Some(self.recv_vec_raw::<T>(parent, tag + k as u64));
            } else if buf.is_some() && vr < d {
                let child_vr = vr + d;
                if child_vr < p {
                    let child = (child_vr + root) % p;
                    self.send_slice_raw(child, tag + k as u64, buf.as_ref().expect("buffered"));
                }
            }
        }
        buf.expect("broadcast reached every rank")
    }

    /// Gather variable-length contributions to `root`. Root returns one
    /// vector per rank (in rank order); other ranks return `None`.
    /// Non-roots send, the root receives in source order.
    fn gatherv<T: Wire>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>> {
        self.count("coll.gatherv", 1);
        let p = self.size();
        let tag = self.group().next_coll_tag();
        if self.rank() == root {
            let mut out: Vec<Vec<T>> = Vec::with_capacity(p);
            for src in 0..p {
                if src == root {
                    out.push(data.to_vec());
                } else {
                    out.push(self.recv_vec_raw::<T>(src, tag));
                }
            }
            Some(out)
        } else {
            self.send_slice_raw(root, tag, data);
            None
        }
    }

    /// Personalized all-to-all: `data` holds exactly one item per rank;
    /// returns the item received from each rank, in rank order.
    fn alltoall<T: Wire>(&self, data: &[T]) -> Vec<T> {
        self.count("coll.alltoall", 1);
        let p = self.size();
        assert_eq!(data.len(), p, "alltoall requires one item per rank");
        let tag = self.group().next_coll_tag();
        let me = self.rank();
        for (dst, item) in data.iter().enumerate() {
            if dst != me {
                self.send_raw(dst, tag, vec![item.clone()]);
            }
        }
        let mut out: Vec<T> = Vec::with_capacity(p);
        for src in 0..p {
            if src == me {
                out.push(data[me].clone());
            } else {
                out.push(self.recv_val_raw::<T>(src, tag));
            }
        }
        out
    }

    /// Variable all-to-all when the receive counts are already known.
    /// `data` is partitioned by `send_counts` (one contiguous run per
    /// destination, in rank order); returns the received data concatenated
    /// in source-rank order, the self chunk copied without touching the
    /// network.
    fn alltoallv_given_counts<T: Wire>(
        &self,
        data: &[T],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Vec<T> {
        self.count("coll.alltoallv", 1);
        let p = self.size();
        assert_eq!(send_counts.len(), p, "one send count per rank");
        assert_eq!(recv_counts.len(), p, "one recv count per rank");
        let total: usize = send_counts.iter().sum();
        assert_eq!(total, data.len(), "send counts must cover the data");
        let tag = self.group().next_coll_tag();
        let me = self.rank();

        let offsets = raw::chunk_offsets(send_counts);
        // The same staggered send order as the asynchronous exchange.
        for i in 1..p {
            let dst = (me + i) % p;
            if send_counts[dst] > 0 {
                self.send_slice_raw(dst, tag, &data[offsets[dst]..offsets[dst + 1]]);
            }
        }
        // One allocation for everything this rank receives; each chunk
        // lands at the end of it, in source order.
        let mut out: Vec<T> = pages::with_capacity(recv_counts.iter().sum());
        for (src, &rc) in recv_counts.iter().enumerate() {
            if src == me {
                out.extend_from_slice(&data[offsets[me]..offsets[me + 1]]);
            } else if rc > 0 {
                let before = out.len();
                self.recv_into_raw(src, tag, &mut out);
                assert_eq!(
                    out.len() - before,
                    rc,
                    "alltoallv count mismatch from {src}"
                );
            }
        }
        out
    }

    /// Begin an asynchronous variable all-to-all with pre-exchanged receive
    /// counts; completed per-peer chunks are retrieved incrementally with
    /// [`AsyncExchange::wait_any`]. Every chunk is copied out of `data` as
    /// it is posted.
    fn alltoallv_async_given_counts<T: Wire>(
        &self,
        data: &[T],
        send_counts: &[usize],
        recv_counts: Vec<usize>,
    ) -> RawAsync<T> {
        self.count("coll.alltoallv_async", 1);
        raw::post_chunks(
            self,
            data.len(),
            send_counts,
            recv_counts,
            |mine| data[mine].to_vec().into(),
            |dst, tag, chunk| self.send_slice_raw(dst, tag, &data[chunk]),
        )
    }

    /// [`Communicator::alltoallv_given_counts`] over a buffer the caller
    /// gives up: returns one [`Run`] per source rank, in rank order (empty
    /// where nothing was sent), instead of concatenating them. A transport
    /// that shares an address space lends each run as a window of `data` —
    /// the receiver reads the sender's memory in place and `data` lives
    /// until its last window drops; any other transport copies each
    /// remote chunk out of `data` exactly as the borrowed form does, and
    /// once every send is posted keeps `data` itself, cut down to the self
    /// run ([`Run::try_into_owned`]).
    fn alltoallv_runs<T: Wire>(
        &self,
        data: Arc<Vec<T>>,
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Vec<Run<T>> {
        self.count("coll.alltoallv", 1);
        raw::post_runs(self, data, send_counts, recv_counts.to_vec()).into_source_order(self)
    }

    /// [`Communicator::alltoallv_async_given_counts`] over a buffer the
    /// caller gives up, as [`Communicator::alltoallv_runs`] is to the
    /// synchronous form: retrieve the runs with
    /// [`AsyncExchange::wait_any_run`].
    fn alltoallv_async_runs<T: Wire>(
        &self,
        data: Arc<Vec<T>>,
        send_counts: &[usize],
        recv_counts: Vec<usize>,
    ) -> RawAsync<T> {
        self.count("coll.alltoallv_async", 1);
        raw::post_runs(self, data, send_counts, recv_counts)
    }

    /// Scatter variable-length chunks from `root`: the root supplies one
    /// vector per rank (in rank order), sends each non-root chunk and
    /// keeps its own; every rank returns its chunk.
    fn scatterv<T: Wire>(&self, root: usize, chunks: Option<Vec<Vec<T>>>) -> Vec<T> {
        self.count("coll.scatterv", 1);
        let p = self.size();
        let tag = self.group().next_coll_tag();
        if self.rank() == root {
            let chunks = chunks.expect("root must supply chunks");
            assert_eq!(chunks.len(), p, "one chunk per rank");
            let mut mine = Vec::new();
            for (dst, chunk) in chunks.into_iter().enumerate() {
                if dst == root {
                    mine = chunk;
                } else {
                    self.send_raw(dst, tag, chunk);
                }
            }
            mine
        } else {
            self.recv_vec_raw(root, tag)
        }
    }

    /// Split this communicator by `color` (`MPI_Comm_split`). Ranks passing
    /// `None` participate in the collective but receive no communicator.
    /// Within each color group, new ranks are ordered by `(key, old rank)`.
    fn split(&self, color: Option<i64>, key: i64) -> Option<Self> {
        // (color, key) for every member, in this-comm rank order; `None`
        // rides as an i64::MIN sentinel paired with a validity flag.
        let mine = [(color.unwrap_or(i64::MIN), i64::from(color.is_some()), key)];
        let all = self.allgather(&mine[..]);
        // Advances on every member, color or not, so later splits agree on
        // context ids.
        let split_seq = self.group().next_split_seq();
        let my_color = color?;

        // Members with my color, sorted by (key, old comm rank).
        let mut group: Vec<(i64, usize)> = all
            .iter()
            .enumerate()
            .filter(|(_, &(c, valid, _))| valid == 1 && c == my_color)
            .map(|(old_rank, &(_, _, k))| (k, old_rank))
            .collect();
        group.sort_unstable();
        let members: Arc<[usize]> = group
            .iter()
            .map(|&(_, old)| self.world_rank_of(old))
            .collect();
        let my_index = group
            .iter()
            .position(|&(_, old)| old == self.rank())
            .expect("calling rank is in its own color group");
        let ctx = raw::split_ctx(self.group().ctx(), split_seq, my_color);
        Some(self.with_group(Group::new(ctx, members, my_index)))
    }

    // ---- composed collectives --------------------------------------------

    /// All ranks obtain the concatenation (rank order) of every rank's
    /// contribution; returns the flat data and per-rank counts.
    fn allgatherv<T: Wire>(&self, data: &[T]) -> (Vec<T>, Vec<usize>) {
        let root = 0;
        let parts = self.gatherv(root, data);
        let (flat, counts) = if self.rank() == root {
            let parts = parts.expect("root has parts");
            let counts: Vec<usize> = parts.iter().map(Vec::len).collect();
            (parts.into_iter().flatten().collect::<Vec<T>>(), counts)
        } else {
            (Vec::new(), Vec::new())
        };
        let counts = self.bcast(
            root,
            if self.rank() == root {
                Some(counts)
            } else {
                None
            },
        );
        let flat = self.bcast(
            root,
            if self.rank() == root {
                Some(flat)
            } else {
                None
            },
        );
        (flat, counts)
    }

    /// All ranks obtain the concatenation of equal-length contributions.
    fn allgather<T: Wire>(&self, data: &[T]) -> Vec<T> {
        self.allgatherv(data).0
    }

    /// Variable all-to-all (`MPI_Alltoallv`): exchanges counts first, then
    /// the data. Returns the received data and per-source counts.
    fn alltoallv<T: Wire>(&self, data: &[T], send_counts: &[usize]) -> (Vec<T>, Vec<usize>) {
        let p = self.size();
        assert_eq!(send_counts.len(), p, "one send count per rank");
        let total: usize = send_counts.iter().sum();
        assert_eq!(total, data.len(), "send counts must cover the data");
        let recv_counts = self.alltoall(send_counts);
        let out = self.alltoallv_given_counts(data, send_counts, &recv_counts);
        (out, recv_counts)
    }

    /// Begin an asynchronous variable all-to-all, exchanging the per-source
    /// receive counts synchronously first.
    fn alltoallv_async<T: Wire>(&self, data: &[T], send_counts: &[usize]) -> RawAsync<T> {
        let recv_counts = self.alltoall(send_counts);
        self.alltoallv_async_given_counts(data, send_counts, recv_counts)
    }

    /// Reduce to `root` with `op`, folding contributions in rank order (so
    /// results are deterministic even for non-commutative closures).
    fn reduce<T: Wire>(&self, root: usize, value: T, op: impl Fn(T, T) -> T) -> Option<T> {
        self.gatherv(root, std::slice::from_ref(&value))
            .map(|parts| {
                parts
                    .into_iter()
                    .flatten()
                    .reduce(op)
                    .expect("at least one contribution")
            })
    }

    /// Allreduce with `op` (deterministic rank-order fold).
    fn allreduce<T: Wire>(&self, value: T, op: impl Fn(T, T) -> T) -> T {
        let root = 0;
        let reduced = self.reduce(root, value, op);
        let v = self.bcast(root, reduced.map(|r| vec![r]));
        v.into_iter().next().expect("bcast payload")
    }

    /// Exclusive prefix scan: rank r returns `op` folded over ranks `0..r`,
    /// or `None` on rank 0.
    fn exscan<T: Wire>(&self, value: T, op: impl Fn(T, T) -> T) -> Option<T> {
        let all = self.allgather(std::slice::from_ref(&value));
        let r = self.rank();
        if r == 0 {
            None
        } else {
            all[..r].iter().cloned().reduce(op)
        }
    }

    // ---- derived communicators -------------------------------------------

    /// Split into per-node communicators: the returned communicator
    /// connects exactly the ranks of this communicator hosted on the
    /// caller's node, ordered by their rank in this communicator.
    fn split_shared_node(&self) -> Self {
        let node = self.node() as i64;
        self.split(Some(node), self.rank() as i64)
            .expect("every rank has a node")
    }

    /// The paper's `SdssRefineComm`: returns `(cg, cl)` where `cl` connects
    /// the ranks on this node and `cg` (leaders only) connects node leaders.
    fn refine_comm(&self) -> (Option<Self>, Self) {
        let cl = self.split_shared_node();
        let am_leader = cl.rank() == 0;
        let cg = self.split(if am_leader { Some(0) } else { None }, self.rank() as i64);
        (cg, cl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_display_mentions_rank_and_sizes() {
        let e = OomError {
            rank: 3,
            requested: 100,
            available: 10,
            budget: 50,
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"));
        assert!(s.contains("100 B"));
        assert!(s.contains("50 B"));
    }

    #[test]
    fn user_tag_space_is_wide() {
        // 2^48 user tags leave plenty of room for the byte-offset-keyed
        // schemes in pivots.rs while collectives stay above.
        assert!(MAX_USER_TAG > u32::MAX as u64);
    }
}
