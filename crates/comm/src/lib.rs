//! # comm — the transport abstraction under SDS-Sort
//!
//! The sort algorithms in `sdssort` are written against the
//! [`Communicator`] trait rather than a concrete runtime, so the same
//! algorithm code runs over three very different substrates:
//!
//! * **`mpisim`** — the deterministic virtual-time simulator: single
//!   logical timeline per rank, LogGP network cost model, per-rank memory
//!   budgets, fault injection, happens-before checking. This is where
//!   correctness is proved.
//! * **`shmem`** — a real OS-thread backend: one thread per rank, bounded
//!   in-memory mailboxes, wall-clock [`std::time::Instant`] timing. This is
//!   where real elapsed time is measured.
//! * **`sockcomm`** — a distributed backend: one OS process per rank,
//!   connected by a full mesh of Unix-domain or TCP sockets with
//!   length-prefixed `(ctx, src, tag)` frames. This is where
//!   serialization boundaries and process death are real.
//!
//! Each backend is a *transport*: it implements [`raw::RawComm`] (raw
//! send/receive on any tag, a clock, memory accounting) and nothing else.
//! [`Communicator`] is implemented for every `RawComm` once, in [`raw`]:
//! the communicator bookkeeping, the reserved-tag allocator, `split`, the
//! collective algorithm bodies and the asynchronous all-to-all exist in
//! exactly one copy, which is why the same seed yields bit-identical output
//! on all three substrates. The real backends additionally share the
//! [`mailbox`] module (the `(ctx, src, tag)` matching discipline) and
//! [`Wire`], the zero-copy record codec. [`pages`] is where every layer —
//! the receive buffers here, the sockets' frame payloads, `sdssort`'s
//! scratch and merge outputs — gets an `n`-record buffer from.
//!
//! The trait is MPI-flavoured: rank / topology queries, buffered
//! point-to-point sends, the collectives the sort uses, the asynchronous
//! all-to-all protocol (via the [`Communicator::Async`] associated type and
//! [`AsyncExchange`]), communicator splitting, plus the cost-accounting and
//! telemetry hooks (`compute`, `charge_compute`, spans, counters) that feed
//! `telemetry::RunReport`.
//!
//! ## Composed collectives
//!
//! Only the traffic-generating primitives (`barrier`, `bcast`, `gatherv`,
//! `alltoall`, `alltoallv_given_counts`, `scatterv`, the async all-to-all,
//! their owned forms over [`Run`]s, `split`) are required methods.
//! Everything else (`allreduce`, scans, scatters, …) is a provided method
//! composed from those primitives, with reductions folded in rank order —
//! so results are deterministic even for non-commutative closures, and
//! identical on every backend.
//!
//! ## Tags
//!
//! User point-to-point traffic must stay below [`MAX_USER_TAG`]; the space
//! above it is reserved for collectives, which key their traffic by a
//! per-communicator operation sequence number ([`raw::Group`]), so
//! interleaved collectives and user messages never cross-match.

#![warn(missing_docs)]

pub mod mailbox;
pub mod pages;
pub mod raw;
pub mod run;
pub mod wire;

pub use run::Run;
pub use wire::Wire;

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
/// few ranks. `mpisim` reproduces that failure mode with a per-rank byte
/// budget; backends without budget enforcement (the threads backend) simply
/// never return it.
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
            "simulated OOM on rank {}: requested {} B, {} B available of {} B budget",
            self.rank, self.requested, self.available, self.budget
        )
    }
}

impl std::error::Error for OomError {}

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
/// All sends are *buffered* (the payload is copied/moved into an envelope
/// and the call returns once it is enqueued), so the common
/// send-everything-then-receive-everything pattern cannot deadlock on any
/// conforming backend.
pub trait Communicator: Sized {
    /// The backend's asynchronous all-to-all handle.
    type Async<T: Wire>: AsyncExchange<T, Self>;

    // ---- identity & topology ---------------------------------------------

    /// Communicator size (`MPI_Comm_size`).
    fn size(&self) -> usize;

    /// This rank within the communicator (`MPI_Comm_rank`).
    fn rank(&self) -> usize;

    /// This rank in the world communicator.
    fn world_rank(&self) -> usize;

    /// World rank of communicator rank `r`.
    fn world_rank_of(&self, r: usize) -> usize;

    /// Cores per node of the machine (simulated or host).
    fn cores_per_node(&self) -> usize;

    /// Node id hosting this rank.
    fn node(&self) -> usize;

    // ---- time & cost accounting ------------------------------------------

    /// Current time on this rank's timeline, in seconds. Virtual time under
    /// the simulator, wall-clock seconds since world start under a real
    /// backend. Only differences are meaningful.
    fn now(&self) -> f64;

    /// Run `f` and charge its cost to this rank's timeline. Under the
    /// simulator the measured host time is converted to virtual seconds;
    /// under a real backend the work simply takes the time it takes, and
    /// the elapsed seconds are attributed to the compute ledger.
    fn compute<R>(&self, f: impl FnOnce() -> R) -> R;

    /// Charge modeled compute seconds to this rank's timeline, attributing
    /// them to the compute ledger. Real backends record the charge in
    /// telemetry but do not stall the thread: modeled costs exist to shape
    /// virtual time, not to burn host CPU.
    fn charge_compute(&self, seconds: f64);

    // ---- observability ----------------------------------------------------

    /// Attribute subsequent traffic and time to the named phase. No-op when
    /// telemetry is disabled.
    fn trace_phase(&self, name: &str);

    /// The world's telemetry recorder (disabled unless the world enabled it).
    fn recorder(&self) -> &Recorder;

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

    /// Declare a read of rank-shared host state to a happens-before checker,
    /// if the backend has one. Default: no-op.
    fn check_shared_read(&self, _key: &str) {}

    /// Declare a write of rank-shared host state to a happens-before
    /// checker, if the backend has one. Default: no-op.
    fn check_shared_write(&self, _key: &str) {}

    // ---- memory accounting ------------------------------------------------

    /// Reserve `bytes` against this rank's memory budget. Backends without
    /// budget enforcement always succeed.
    fn try_alloc(&self, bytes: usize) -> Result<(), OomError>;

    /// Release a memory reservation.
    fn free(&self, bytes: usize);

    /// Fraction of this rank's effective memory budget that would be in use
    /// after reserving `extra` more bytes; 0.0 under an unlimited budget.
    fn memory_pressure_with(&self, extra: usize) -> f64;

    // ---- point-to-point ---------------------------------------------------

    /// Send an owned vector to communicator rank `dst` with `tag` (must be
    /// below [`MAX_USER_TAG`]). Buffered: returns as soon as the envelope
    /// is enqueued (a bounded backend may block while the destination's
    /// mailbox is full, but never on the receiver *matching* the message).
    fn send_vec<T: Wire>(&self, dst: usize, tag: u64, data: Vec<T>);

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
    fn recv_vec<T: Wire>(&self, src: usize, tag: u64) -> Vec<T>;

    /// Blocking receive of a single value.
    fn recv_val<T: Wire>(&self, src: usize, tag: u64) -> T {
        let v = self.recv_vec::<T>(src, tag);
        debug_assert_eq!(v.len(), 1, "recv_val expects single-element message");
        v.into_iter().next().expect("non-empty message")
    }

    // ---- collective primitives -------------------------------------------

    /// Synchronize all ranks.
    fn barrier(&self);

    /// Broadcast from `root`. `data` must be `Some` on the root and is
    /// ignored elsewhere; every rank returns the payload.
    fn bcast<T: Wire>(&self, root: usize, data: Option<Vec<T>>) -> Vec<T>;

    /// Gather variable-length contributions to `root`. Root returns one
    /// vector per rank (in rank order); other ranks return `None`.
    fn gatherv<T: Wire>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>>;

    /// Personalized all-to-all: `data` holds exactly one item per rank;
    /// returns the item received from each rank, in rank order.
    fn alltoall<T: Wire>(&self, data: &[T]) -> Vec<T>;

    /// Variable all-to-all when the receive counts are already known.
    /// `data` is partitioned by `send_counts` (one contiguous run per
    /// destination, in rank order); returns the received data concatenated
    /// in source-rank order.
    fn alltoallv_given_counts<T: Wire>(
        &self,
        data: &[T],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Vec<T>;

    /// Begin an asynchronous variable all-to-all with pre-exchanged receive
    /// counts; completed per-peer chunks are retrieved incrementally with
    /// [`AsyncExchange::wait_any`].
    fn alltoallv_async_given_counts<T: Wire>(
        &self,
        data: &[T],
        send_counts: &[usize],
        recv_counts: Vec<usize>,
    ) -> Self::Async<T>;

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
    ) -> Vec<Run<T>>;

    /// [`Communicator::alltoallv_async_given_counts`] over a buffer the
    /// caller gives up, as [`Communicator::alltoallv_runs`] is to the
    /// synchronous form: retrieve the runs with
    /// [`AsyncExchange::wait_any_run`].
    fn alltoallv_async_runs<T: Wire>(
        &self,
        data: Arc<Vec<T>>,
        send_counts: &[usize],
        recv_counts: Vec<usize>,
    ) -> Self::Async<T>;

    /// Split this communicator by `color` (`MPI_Comm_split`). Ranks passing
    /// `None` participate in the collective but receive no communicator.
    /// Within each color group, new ranks are ordered by `(key, old rank)`.
    fn split(&self, color: Option<i64>, key: i64) -> Option<Self>;

    // ---- composed collectives --------------------------------------------

    /// Gather equal-length contributions to `root`, concatenated in rank
    /// order. Other ranks return `None`.
    fn gather<T: Wire>(&self, root: usize, data: &[T]) -> Option<Vec<T>> {
        self.gatherv(root, data)
            .map(|parts| parts.into_iter().flatten().collect())
    }

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
    fn alltoallv_async<T: Wire>(&self, data: &[T], send_counts: &[usize]) -> Self::Async<T> {
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

    /// Inclusive prefix scan: rank r returns `op` folded over ranks `0..=r`.
    fn scan<T: Wire>(&self, value: T, op: impl Fn(T, T) -> T) -> T {
        let all = self.allgather(std::slice::from_ref(&value));
        all[..=self.rank()]
            .iter()
            .cloned()
            .reduce(op)
            .expect("at least own contribution")
    }

    /// Scatter variable-length chunks from `root`: the root supplies one
    /// vector per rank (in rank order) and every rank returns its chunk.
    /// A traffic-generating primitive (root sends on a reserved collective
    /// tag).
    fn scatterv<T: Wire>(&self, root: usize, chunks: Option<Vec<Vec<T>>>) -> Vec<T>;

    /// Scatter equal-length chunks of `data` from `root` (`MPI_Scatter`).
    fn scatter<T: Wire>(&self, root: usize, data: Option<&[T]>) -> Vec<T> {
        let p = self.size();
        let chunks = if self.rank() == root {
            let data = data.expect("root must supply data");
            assert_eq!(data.len() % p, 0, "scatter requires p equal chunks");
            let len = data.len() / p;
            Some(
                (0..p)
                    .map(|i| data[i * len..(i + 1) * len].to_vec())
                    .collect(),
            )
        } else {
            None
        };
        self.scatterv(root, chunks)
    }

    /// Reduce-scatter: element-wise reduce a per-rank vector of length `p`
    /// with `op`, then rank r returns element r of the reduction.
    fn reduce_scatter<T: Wire>(&self, contributions: &[T], op: impl Fn(T, T) -> T) -> T {
        let p = self.size();
        assert_eq!(contributions.len(), p, "one contribution per rank");
        let received = self.alltoall(contributions);
        received.into_iter().reduce(op).expect("p >= 1")
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

    /// Communicator connecting the first rank of this communicator on each
    /// node ("node leaders"). Non-leader ranks return `None`.
    fn split_node_leaders(&self) -> Option<Self> {
        let local = self.split_shared_node();
        let am_leader = local.rank() == 0;
        self.split(if am_leader { Some(0) } else { None }, self.rank() as i64)
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
