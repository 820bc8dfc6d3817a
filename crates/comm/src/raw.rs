//! The one collective stack: every backend is a [`RawComm`] *transport*,
//! and [`crate::Communicator`] is implemented for all of them here, once.
//!
//! A transport says how a raw envelope is sent and taken (virtual time +
//! faults in `mpisim`, a bounded mailbox in
//! `shmem`, `Wire` + frame + socket in `sockcomm`), what its clock reads,
//! and where its world's [`Budget`] is. Everything that is the same on
//! every substrate lives in this module: the communicator bookkeeping
//! ([`Group`]), the memory reservations against the budget, the reserved
//! collective tag allocator, the user-tag check,
//! `split`, the collective algorithm bodies (dissemination barrier,
//! binomial broadcast, rank-order gatherv, staggered `alltoallv`) and the
//! async self-first exchange protocol ([`RawAsync`]). Because all three
//! backends run these same bodies, the same seed yields the same message
//! pattern and bit-identical per-rank output on each of them
//! (`backend_equivalence`).
//!
//! All ranks in this module's vocabulary are *communicator* ranks; the
//! backend maps them to world ranks (or socket peers) through its
//! [`Group`].

use crate::pages;
use crate::run::Run;
use crate::wire::Wire;
use crate::{AsyncExchange, Budget, Communicator, OomError, MAX_USER_TAG};
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use telemetry::Recorder;

/// One rank's bookkeeping for one communicator: the context id that keys
/// its traffic, the membership, and the two sequence counters every member
/// advances in lock-step (collective operations, splits).
#[derive(Debug)]
pub struct Group {
    ctx: u64,
    /// World ranks of the members, ordered by communicator rank.
    members: Arc<[usize]>,
    world_to_comm: HashMap<usize, usize>,
    my_index: usize,
    split_seq: Cell<u64>,
    coll_seq: Cell<u64>,
}

impl Group {
    /// The view of member `my_index` of the communicator with context id
    /// `ctx` (0 is the world communicator) and the given world-rank
    /// membership.
    pub fn new(ctx: u64, members: Arc<[usize]>, my_index: usize) -> Self {
        let world_to_comm = members.iter().enumerate().map(|(i, &w)| (w, i)).collect();
        Self {
            ctx,
            members,
            world_to_comm,
            my_index,
            split_seq: Cell::new(0),
            coll_seq: Cell::new(0),
        }
    }

    /// Context id distinguishing this communicator's traffic.
    pub fn ctx(&self) -> u64 {
        self.ctx
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The calling rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// The calling rank in the world communicator.
    pub fn world_rank(&self) -> usize {
        self.members[self.my_index]
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.members[r]
    }

    /// Communicator rank of world rank `w`, if a member.
    pub fn rank_of_world(&self, w: usize) -> Option<usize> {
        self.world_to_comm.get(&w).copied()
    }

    /// Allocate the base tag for the next collective operation on this
    /// communicator: `MAX_USER_TAG + (op_seq << 12)`, leaving round numbers
    /// (< 4096) for the algorithm to add. Every member runs the same
    /// collectives in the same order, so sequence numbers agree.
    pub fn next_coll_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        // The reserved space runs from 2^48 to the end of u64: ~2^52
        // operations per communicator. A resident world keeps one
        // communicator for its whole life, so this is a real (if distant)
        // limit and is checked in every build.
        assert!(
            seq < (u64::MAX - MAX_USER_TAG) >> 12,
            "collective tag space exhausted on ctx {} (operation {seq})",
            self.ctx
        );
        MAX_USER_TAG + (seq << 12)
    }

    fn next_split_seq(&self) -> u64 {
        let s = self.split_seq.get();
        self.split_seq.set(s + 1);
        s
    }
}

/// Reject tags that would collide with the reserved collective tag space.
/// An in-flight asynchronous collective receives from a set of sources
/// on its reserved tag; a user message forged into that space could be
/// stolen by it and silently corrupt the exchange.
#[track_caller]
pub fn assert_user_tag(tag: u64) {
    assert!(
        tag < MAX_USER_TAG,
        "tag {tag} is outside the user tag space: tags at or above \
         MAX_USER_TAG (2^48) are reserved for collective operations"
    );
}

/// Context id of the child communicator a split produces: a splitmix64
/// hash chain over `(parent ctx, split sequence number, color)`. Every
/// member computes it locally from values all members agree on, so no
/// shared registry is needed (a process-per-rank world cannot have one, and
/// a resident world would grow one without bound); the high bit is forced
/// so a derived context never collides with the world context 0.
fn split_ctx(parent: u64, split_seq: u64, color: i64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(mix(parent) ^ split_seq) ^ color as u64) | (1 << 63)
}

/// What a backend supplies: raw point-to-point operations on any tag
/// (tags passed here may be at or above [`MAX_USER_TAG`] — these entry
/// points are exactly the ones that bypass the user-tag check), its
/// [`Group`], its clock, and its world's [`Budget`]. In exchange it gets
/// the whole [`Communicator`] surface from the blanket impl below.
///
/// Do not bring both traits into scope where you call the handful of
/// methods they share by name (`now`, `compute`, …) on a concrete backend
/// type: algorithm code uses `Communicator`, transport code `RawComm`.
pub trait RawComm: Sized {
    /// This handle's communicator bookkeeping.
    fn group(&self) -> &Group;

    /// A handle for the same rank of the same world over another
    /// communicator (the child of a split).
    fn with_group(&self, group: Group) -> Self;

    /// Cores per node of the machine (simulated or host).
    fn cores_per_node(&self) -> usize;

    /// Node id hosting this rank; block placement unless the backend
    /// models another.
    fn node(&self) -> usize {
        self.group().world_rank() / self.cores_per_node()
    }

    /// Current time on this rank's timeline, in seconds.
    fn now(&self) -> f64;

    /// The world's telemetry recorder.
    fn recorder(&self) -> &Recorder;

    /// Run `f` and attribute its cost to the compute ledger. The default
    /// is the wall-clock one: the work takes the time it takes.
    fn compute<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = self.now();
        let r = f();
        self.recorder()
            .add_compute(self.group().world_rank(), self.now() - t0);
        r
    }

    /// Book modeled compute seconds. The default is the wall-clock one:
    /// modeled charges shape *virtual* time, so they are recorded in the
    /// ledger and the thread is not stalled.
    fn charge_compute(&self, seconds: f64) {
        self.recorder()
            .add_compute(self.group().world_rank(), seconds);
    }

    /// Attribute this rank's subsequent sends to the named phase.
    fn trace_phase(&self, name: &str) {
        self.recorder().set_phase(self.group().world_rank(), name);
    }

    /// The world's memory account, indexed by world rank.
    fn budget(&self) -> &Budget;

    /// Bytes of the budget withheld from this rank right now: zero on a
    /// real transport; the simulator's memory-pressure fault ramp
    /// withholds a share that grows with virtual time.
    fn withheld(&self) -> usize {
        0
    }

    /// Send an owned vector to communicator rank `dst` on any tag
    /// (including reserved collective tags).
    fn send_raw<T: Wire>(&self, dst: usize, tag: u64, data: Vec<T>);

    /// Send a slice to communicator rank `dst` on any tag. The default
    /// clones it into a vector to hand over; a transport that serializes
    /// (sockets) encodes straight from the borrow instead.
    fn send_slice_raw<T: Wire>(&self, dst: usize, tag: u64, data: &[T]) {
        self.send_raw(dst, tag, data.to_vec());
    }

    /// Blocking receive from communicator rank `src` on any tag, appended
    /// to `out`: the one receive primitive of the source-ordered paths. A
    /// transport that moves vectors through one address space hands its
    /// message to [`append_moved`]; one that serializes decodes the payload
    /// bytes straight onto the end of `out`.
    fn recv_into_raw<T: Wire>(&self, src: usize, tag: u64, out: &mut Vec<T>);

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
    /// [`RawComm::send_slice_raw`] from the borrow — and drops the window;
    /// a transport whose ranks share an address space *lends* instead,
    /// handing the window itself to the receiver.
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

    /// Called by [`RawAsync`]'s `wait_any_run` with the number of chunks
    /// still pending, before it looks for one: the `MPI_Test` sweep over
    /// the outstanding requests. Costs nothing on a real transport; a cost
    /// model charges it here.
    fn async_test_sweep(&self, _pending: usize) {}
}

impl<C: RawComm> Communicator for C {
    type Async<T: Wire> = RawAsync<T>;

    fn size(&self) -> usize {
        self.group().size()
    }

    fn rank(&self) -> usize {
        self.group().rank()
    }

    fn world_rank(&self) -> usize {
        self.group().world_rank()
    }

    fn world_rank_of(&self, r: usize) -> usize {
        self.group().world_rank_of(r)
    }

    fn cores_per_node(&self) -> usize {
        RawComm::cores_per_node(self)
    }

    fn node(&self) -> usize {
        RawComm::node(self)
    }

    fn now(&self) -> f64 {
        RawComm::now(self)
    }

    fn compute<R>(&self, f: impl FnOnce() -> R) -> R {
        RawComm::compute(self, f)
    }

    fn charge_compute(&self, seconds: f64) {
        RawComm::charge_compute(self, seconds);
    }

    fn trace_phase(&self, name: &str) {
        RawComm::trace_phase(self, name);
    }

    fn recorder(&self) -> &Recorder {
        RawComm::recorder(self)
    }

    /// Charges this rank's account in the world's [`Budget`], and with
    /// telemetry on books `mem.high_water` and each refusal as `mem.oom`.
    fn try_alloc(&self, bytes: usize) -> Result<(), OomError> {
        let me = self.world_rank();
        let res = self.budget().try_alloc(me, bytes, self.withheld());
        let recorder = RawComm::recorder(self);
        if recorder.enabled() {
            if let Err(e) = &res {
                recorder.count("mem.oom", 1);
                let detail = format!("requested {} with {} available", e.requested, e.available);
                recorder.event(me, "oom", &detail, RawComm::now(self));
            }
            recorder.gauge_max("mem.high_water", self.budget().high_water(me) as f64);
        }
        res
    }

    fn free(&self, bytes: usize) {
        self.budget().free(self.world_rank(), bytes);
    }

    /// The pressure of the effective budget: the limit less what the
    /// transport withholds.
    fn memory_pressure_with(&self, extra: usize) -> f64 {
        self.budget()
            .pressure_with(self.world_rank(), extra, self.withheld())
    }

    fn send_vec<T: Wire>(&self, dst: usize, tag: u64, data: Vec<T>) {
        assert_user_tag(tag);
        self.send_raw(dst, tag, data);
    }

    fn recv_vec<T: Wire>(&self, src: usize, tag: u64) -> Vec<T> {
        assert_user_tag(tag);
        self.recv_vec_raw(src, tag)
    }

    /// Dissemination barrier: `ceil(log2 p)` rounds, round `k` sends to
    /// `(r + 2^k) mod p` and receives from `(r - 2^k) mod p`.
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

    /// Binomial-tree broadcast (virtual ranks rotate the root to 0).
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

    /// Rank-order gatherv: non-roots send, the root receives in source
    /// order.
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

    /// One item per rank, received in source order.
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

    /// Receives concatenated in source order, the self chunk copied without
    /// touching the network.
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

        let offsets = chunk_offsets(send_counts);
        // The same staggered send order as [`post_chunks`].
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

    /// The asynchronous exchange from a borrow: every chunk is copied out
    /// of `data` as it is posted.
    fn alltoallv_async_given_counts<T: Wire>(
        &self,
        data: &[T],
        send_counts: &[usize],
        recv_counts: Vec<usize>,
    ) -> RawAsync<T> {
        self.count("coll.alltoallv_async", 1);
        post_chunks(
            self,
            data.len(),
            send_counts,
            recv_counts,
            |mine| data[mine].to_vec().into(),
            |dst, tag, chunk| self.send_slice_raw(dst, tag, &data[chunk]),
        )
    }

    /// Source-ordered receives of the runs [`post_runs`] posted.
    fn alltoallv_runs<T: Wire>(
        &self,
        data: Arc<Vec<T>>,
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Vec<Run<T>> {
        self.count("coll.alltoallv", 1);
        post_runs(self, data, send_counts, recv_counts.to_vec()).into_source_order(self)
    }

    fn alltoallv_async_runs<T: Wire>(
        &self,
        data: Arc<Vec<T>>,
        send_counts: &[usize],
        recv_counts: Vec<usize>,
    ) -> RawAsync<T> {
        self.count("coll.alltoallv_async", 1);
        post_runs(self, data, send_counts, recv_counts)
    }

    /// Rank-order scatterv: the root sends each non-root chunk, keeps its
    /// own.
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
        let ctx = split_ctx(self.group().ctx(), split_seq, my_color);
        Some(self.with_group(Group::new(ctx, members, my_index)))
    }
}

/// [`RawComm::recv_into_raw`] for a transport whose messages are vectors
/// moved through one address space: the message becomes `out` when `out`
/// owns no buffer yet (a plain receive stays a move), and is appended to it
/// otherwise.
pub fn append_moved<T>(mut chunk: Vec<T>, out: &mut Vec<T>) {
    if out.capacity() == 0 {
        *out = chunk;
    } else {
        out.append(&mut chunk);
    }
}

/// Start offset of each destination's run in a send buffer partitioned by
/// `counts`, plus the total as the last element.
fn chunk_offsets(counts: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    offsets.push(0usize);
    for &c in counts {
        offsets.push(offsets.last().copied().expect("non-empty") + c);
    }
    offsets
}

/// The posting half of every run exchange, owned or borrowed: reserves the
/// collective's tag, posts each non-empty remote chunk with
/// `send(dst, tag, chunk)` and sets the self chunk aside with `keep` — each
/// given the chunk's range in the send buffer, which `send_counts`
/// partitions.
/// Staggered send order (start at me+1, wrap) as real MPI all-to-all
/// implementations do: receiver r then sees its chunks injected at positions
/// (r - sender) mod p of each sender's loop, spreading arrivals instead of
/// synchronizing them into a hotspot.
fn post_chunks<T, C: RawComm>(
    comm: &C,
    len: usize,
    send_counts: &[usize],
    recv_counts: Vec<usize>,
    keep: impl FnOnce(Range<usize>) -> Run<T>,
    send: impl Fn(usize, u64, Range<usize>),
) -> RawAsync<T> {
    let p = comm.size();
    assert_eq!(send_counts.len(), p, "one send count per rank");
    assert_eq!(recv_counts.len(), p, "one recv count per rank");
    let total: usize = send_counts.iter().sum();
    assert_eq!(total, len, "send counts must cover the data");
    let tag = comm.group().next_coll_tag();
    let me = comm.rank();

    let offsets = chunk_offsets(send_counts);
    let chunk = |r: usize| offsets[r]..offsets[r + 1];
    for i in 1..p {
        let dst = (me + i) % p;
        if send_counts[dst] > 0 {
            send(dst, tag, chunk(dst));
        }
    }
    // After the sends, and with whatever `send` holds let go: the peers'
    // chunks are already under way while this rank keeps its own, and
    // where nothing was lent the self chunk's window is the last.
    drop(send);
    let self_run = (send_counts[me] > 0).then(|| keep(chunk(me)));

    let pending = (0..p)
        .filter(|&src| src != me && recv_counts[src] > 0)
        .collect();
    RawAsync {
        tag,
        pending,
        recv_counts,
        self_run,
    }
}

/// [`post_chunks`] out of a buffer the caller gave up: each chunk leaves as
/// a window of `data`, which the transport lends or copies
/// ([`RawComm::send_run_raw`]), and the self chunk is `data` itself,
/// windowed ([`RawComm::self_run_raw`]). `data` is let go before this
/// returns: where nothing was lent and this rank keeps no chunk it is freed
/// here.
fn post_runs<T: Wire, C: RawComm>(
    comm: &C,
    data: Arc<Vec<T>>,
    send_counts: &[usize],
    recv_counts: Vec<usize>,
) -> RawAsync<T> {
    let sending = Arc::clone(&data);
    post_chunks(
        comm,
        data.len(),
        send_counts,
        recv_counts,
        move |mine| comm.self_run_raw(Run::new(data, mine)),
        move |dst, tag, chunk| comm.send_run_raw(dst, tag, Run::new(Arc::clone(&sending), chunk)),
    )
}

/// Handle to an in-flight asynchronous `alltoallv` — the paper's
/// `SdssAlltoallvAsync` / `SdssFinished` pair (§2.6). Buffered sends make
/// the send side trivially asynchronous; the receive side surfaces the self
/// chunk first, then remote chunks in the transport's arrival order (see
/// [`RawComm::recv_run_raw`]), keyed by source with a hard duplicate check.
pub struct RawAsync<T> {
    tag: u64,
    /// Remote sources whose chunk has not been received, ascending.
    pending: Vec<usize>,
    recv_counts: Vec<usize>,
    self_run: Option<Run<T>>,
}

impl<T> RawAsync<T> {
    /// Number of per-peer chunks not yet delivered. Inherent mirror of
    /// [`crate::AsyncExchange::remaining`]: the trait impl is generic over
    /// every [`RawComm`] backend, so monomorphic call sites would otherwise
    /// need a turbofish to pick one.
    pub fn remaining(&self) -> usize {
        self.pending.len() + usize::from(self.self_run.is_some())
    }

    /// Per-source receive counts (inherent mirror, see
    /// [`RawAsync::remaining`]).
    pub fn recv_counts(&self) -> &[usize] {
        &self.recv_counts
    }

    /// Total number of records this rank will receive (inherent mirror,
    /// see [`RawAsync::remaining`]).
    pub fn total_recv(&self) -> usize {
        self.recv_counts.iter().sum()
    }
}

impl<T: Wire> RawAsync<T> {
    /// The synchronous completion: every run, received in source-rank
    /// order (the self run in its place, an empty run where nothing was
    /// sent) with no request sweep in between.
    fn into_source_order<C: RawComm>(mut self, comm: &C) -> Vec<Run<T>> {
        let me = comm.rank();
        (0..self.recv_counts.len())
            .map(|src| {
                if src == me {
                    self.self_run.take().unwrap_or_default()
                } else if self.recv_counts[src] > 0 {
                    let (_, run) = comm.recv_run_raw::<T>(&[src], self.tag);
                    assert_eq!(
                        run.len(),
                        self.recv_counts[src],
                        "alltoallv count mismatch from {src}"
                    );
                    run
                } else {
                    Run::default()
                }
            })
            .collect()
    }
}

impl<T: Wire, C: RawComm> AsyncExchange<T, C> for RawAsync<T> {
    fn wait_any_run(&mut self, comm: &C) -> Option<(usize, Run<T>)> {
        let remaining = self.remaining();
        if remaining == 0 {
            return None;
        }
        comm.async_test_sweep(remaining);
        if let Some(run) = self.self_run.take() {
            return Some((comm.rank(), run));
        }
        let (src, run) = comm.recv_run_raw::<T>(&self.pending, self.tag);
        // A hard check, not a debug assert: a duplicate or foreign chunk
        // here means the exchange protocol was violated (e.g. a tag
        // collision) and would otherwise corrupt the output silently.
        let Ok(i) = self.pending.binary_search(&src) else {
            panic!(
                "async alltoallv protocol violation: unexpected chunk from rank {src} \
                 on tag {} ({} records); bookkeeping already marked it delivered",
                self.tag,
                run.len()
            )
        };
        self.pending.remove(i);
        Some((src, run))
    }

    fn remaining(&self) -> usize {
        RawAsync::remaining(self)
    }

    fn recv_counts(&self) -> &[usize] {
        &self.recv_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ctx_is_deterministic_distinct_and_nonzero() {
        let a = split_ctx(0, 0, 0);
        assert_eq!(a, split_ctx(0, 0, 0), "pure function of its inputs");
        assert_ne!(a, 0);
        // Distinct along every axis a correct split varies.
        assert_ne!(split_ctx(0, 0, 0), split_ctx(0, 0, 1));
        assert_ne!(split_ctx(0, 0, 0), split_ctx(0, 1, 0));
        assert_ne!(split_ctx(0, 0, 0), split_ctx(a, 0, 0));
        // Negative colors are fine (split colors are i64).
        assert_ne!(split_ctx(0, 0, -1), split_ctx(0, 0, 1));
    }

    #[test]
    fn collective_tags_increase_past_the_old_15_bit_bound() {
        let g = Group::new(0, (0..2).collect(), 1);
        let mut last = g.next_coll_tag();
        assert_eq!(last, MAX_USER_TAG);
        for _ in 0..40_000 {
            let tag = g.next_coll_tag();
            assert!(tag >= last + 4096, "room for 4096 rounds per operation");
            last = tag;
        }
    }

    #[test]
    fn append_moved_moves_into_an_unallocated_vec_and_appends_otherwise() {
        let chunk = vec![7u64, 8, 9];
        let ptr = chunk.as_ptr();
        let mut out = Vec::new();
        append_moved(chunk, &mut out);
        assert_eq!(out.as_ptr(), ptr, "a plain receive must not copy");

        let mut out = Vec::with_capacity(8);
        out.push(1u64);
        let ptr = out.as_ptr();
        append_moved(vec![7, 8, 9], &mut out);
        append_moved(Vec::new(), &mut out);
        assert_eq!(out, [1, 7, 8, 9]);
        assert_eq!(out.as_ptr(), ptr, "the sized buffer must be kept");
    }

    #[test]
    fn group_maps_ranks_both_ways() {
        let g = Group::new(7, vec![5, 2, 9].into(), 1);
        assert_eq!((g.ctx(), g.size(), g.rank(), g.world_rank()), (7, 3, 1, 2));
        assert_eq!(g.world_rank_of(2), 9);
        assert_eq!(g.rank_of_world(9), Some(2));
        assert_eq!(g.rank_of_world(4), None);
    }
}
