//! What the collective stack keeps beside the [`Communicator`] trait: the
//! communicator bookkeeping ([`Group`]) with its reserved collective tag
//! allocator and split context ids, the user-tag check, the posting half
//! of every run exchange, and the async self-first exchange protocol
//! ([`RawAsync`]). A backend implements the trait's transport primitives
//! (virtual time + faults in `mpisim`, a bounded mailbox in `shmem`,
//! `Wire` + frame + socket in `sockcomm`); the collective bodies that call
//! them are the trait's provided methods. Because all three backends run
//! these same bodies, the same seed yields the same message pattern and
//! bit-identical per-rank output on each of them (`backend_equivalence`,
//! `transport_conformance`).
//!
//! All ranks in this module's vocabulary are *communicator* ranks; the
//! backend maps them to world ranks (or socket peers) through its
//! [`Group`].

use crate::run::Run;
use crate::wire::Wire;
use crate::{AsyncExchange, Communicator, MAX_USER_TAG};
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

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

    pub(crate) fn next_split_seq(&self) -> u64 {
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
pub(crate) fn split_ctx(parent: u64, split_seq: u64, color: i64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(mix(parent) ^ split_seq) ^ color as u64) | (1 << 63)
}

/// [`Communicator::recv_into_raw`] for a transport whose messages are vectors
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
pub(crate) fn chunk_offsets(counts: &[usize]) -> Vec<usize> {
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
pub(crate) fn post_chunks<T, C: Communicator>(
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
/// ([`Communicator::send_run_raw`]), and the self chunk is `data` itself,
/// windowed ([`Communicator::self_run_raw`]). `data` is let go before this
/// returns: where nothing was lent and this rank keeps no chunk it is freed
/// here.
pub(crate) fn post_runs<T: Wire, C: Communicator>(
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
/// [`Communicator::recv_run_raw`]), keyed by source with a hard duplicate check.
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
    /// every [`Communicator`] backend, so monomorphic call sites would
    /// otherwise need a turbofish to pick one.
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
    pub(crate) fn into_source_order<C: Communicator>(mut self, comm: &C) -> Vec<Run<T>> {
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

impl<T: Wire, C: Communicator> AsyncExchange<T, C> for RawAsync<T> {
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
