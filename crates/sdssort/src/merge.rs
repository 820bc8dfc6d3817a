//! Sequential merge kernels: two-way and k-way merging of sorted runs.
//!
//! These implement the paper's `SdssMergeTwo` and `SdssMergeAll` (§2.6,
//! §2.7): after the all-to-all exchange every rank holds `p` sorted chunks
//! (one per source rank), and below the `τs` threshold SDS-Sort merges
//! them rather than re-sorting. Both kernels are *stable with respect to
//! run order*: ties go to the earlier run, so merging chunks in source-rank
//! order preserves global stability.
//!
//! The two-way kernel is duplicate-aware, as the paper's merge is (§1, item
//! 6). A key whose block fills more than a sample stride of either run is
//! *replicated*; the kernel cuts both runs at each such key, merges the
//! light records between the cuts with its branchless four-chain loop, and
//! moves each replicated block with one copy — ties still go to `a`, so the
//! output is the stable merge's. [`take_replicated_tally`] counts the
//! records moved so; the sort's phase clock books them as
//! `merge.replicated_records`.
//!
//! An output these kernels allocate ([`merge_two_by_key`],
//! [`kway_merge_into`]) is reserved through [`comm::pages`]: a merge writes
//! its output exactly once, front to back (and back to front), so under an
//! allocator that hands out fresh mappings over half of a 16 MiB merge was
//! first-touch page faults until the buffer asked for huge pages.

use crate::radix::GATE_MAX_SAMPLE;
use crate::record::Sortable;
use comm::pages;
use std::borrow::Cow;
use std::cell::Cell;
use std::mem::MaybeUninit;

/// Merge two sorted runs. Stable: ties take from `a` first.
pub fn merge_two<T: Sortable>(a: &[T], b: &[T]) -> Vec<T> {
    merge_two_by_key(a, b, Sortable::key)
}

/// [`merge_two`] for runs of any `Copy` type sorted by `key`: the
/// pivot-selection network merges bare keys, which need not be [`Sortable`].
pub fn merge_two_by_key<T: Copy, K: Ord>(a: &[T], b: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
    let total = a.len() + b.len();
    let mut out = pages::with_capacity(total);
    merge_two_uninit(a, b, &mut out.spare_capacity_mut()[..total], &key);
    // SAFETY: `merge_two_uninit` initialized all `total` reserved slots.
    unsafe {
        out.set_len(total);
    }
    out
}

/// How many records of `a` are among the first `t` of the stable merge of
/// `a` and `b` (ties take `a`): the merge-path co-rank, by binary search.
///
/// The result `i` satisfies `t - b.len() <= i <= min(t, a.len())`, and
/// `a[..i]` with `b[..t - i]` are exactly the first `t` records of the
/// merge. Record `a[m]` is among them iff fewer than `t - m` records of `b`
/// key strictly below it, i.e. iff `b[t - m - 1]` does not key below it
/// (or `b` has no such record) — a predicate true up to `i` and false
/// after.
fn co_rank<T, K: Ord>(a: &[T], b: &[T], t: usize, key: &impl Fn(&T) -> K) -> usize {
    let (mut lo, mut hi) = (t.saturating_sub(b.len()), t.min(a.len()));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // `t - b.len() <= mid < t`, so this record of `b` exists.
        let jb = t
            .checked_sub(mid + 1)
            .expect("co-rank probes a record below the cut");
        if key(&a[mid]) <= key(&b[jb]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Paired steps in the next round of one two-ended merge over `a[i..ie]`
/// and `b[j..je]`: its two chains retire at most this many records twice
/// over, so neither can drain a run inside the round.
#[inline]
fn round(i: usize, j: usize, ie: usize, je: usize) -> usize {
    (ie - i).min(je - j) / 2
}

thread_local! {
    /// Records this thread's merges moved as replicated-key blocks.
    static REPLICATED: Cell<u64> = const { Cell::new(0) };
}

/// How many records this thread's two-way merges moved as replicated-key
/// blocks since the last call; the count restarts from zero. The sort's
/// phase clock books it as `merge.replicated_records`.
pub fn take_replicated_tally() -> u64 {
    REPLICATED.take()
}

/// One record of each key whose block in the sorted `run` is longer than a
/// stride, ascending. The run is read at a fixed stride,
/// [`REPLICATED_MIN_STRIDE`] records or one [`GATE_MAX_SAMPLE`]-th of the
/// run, whichever is longer, and a key is *replicated* when two
/// consecutive samples hold it.
fn replicated<'a, T, K: Ord>(
    run: &'a [T],
    key: &'a impl Fn(&T) -> K,
) -> impl Iterator<Item = &'a T> {
    let stride = (run.len() / GATE_MAX_SAMPLE).max(REPLICATED_MIN_STRIDE);
    let mut samples = run.iter().step_by(stride).peekable();
    std::iter::from_fn(move || loop {
        let x = samples.next()?;
        if samples.next_if(|y| key(x) == key(y)).is_some() {
            // The key's other samples name the same block.
            while samples.next_if(|y| key(x) == key(y)).is_some() {}
            return Some(x);
        }
    })
}

/// The first index from `from` on whose record is not `below` (`run[from..]`
/// is partitioned by `below`): a galloping probe from `from` brackets it,
/// then a binary search inside the bracket. Probes near `from` are the
/// records the merge wrote last.
fn gallop<T>(run: &[T], from: usize, below: impl Fn(&T) -> bool) -> usize {
    let (mut lo, mut step) = (from, 1);
    let hi = loop {
        // `run[from..lo]` is all `below`.
        match run.get(lo + step - 1) {
            Some(r) if below(r) => {
                lo += step;
                step *= 2;
            }
            Some(_) => break lo + step - 1,
            None => break run.len(),
        }
    };
    lo + run[lo..hi].partition_point(below)
}

/// Two-way merge into uninitialized storage; writes every slot of `out`.
///
/// The one two-way kernel: [`merge_two`], the pivot network, the `k = 2`
/// arm and every cascade level of [`kway_merge_uninit`], and the overlapped
/// exchange's binomial merges all end here (Figs. 5c and 6a time it).
///
/// It is duplicate-aware, as the paper's merge is. For each key that
/// fills more than a sample stride of either run ([`replicated`]; the two
/// runs' keys merged as they are read, nothing allocated), ascending, the
/// kernel finds the key's block in `a` and in `b` ([`gallop`], from the
/// previous cut), merges the light records before the two blocks
/// ([`merge_interleaved`]), then copies `a`'s block and `b`'s block — the
/// stable merge's order (ties to `a`), so the output is the same as
/// without the cuts. With no replicated key the whole merge is one
/// `merge_interleaved`, and the samples were all it added.
fn merge_two_uninit<T: Copy, K: Ord>(
    a: &[T],
    b: &[T],
    out: &mut [MaybeUninit<T>],
    key: &impl Fn(&T) -> K,
) {
    assert_eq!(out.len(), a.len() + b.len());
    let (mut heavy_a, mut heavy_b) = (replicated(a, key).peekable(), replicated(b, key).peekable());
    let (mut i, mut j, mut moved) = (0, 0, 0);
    // The two runs' replicated keys, merged: the smallest not yet cut.
    while let Some(v) = [heavy_a.peek(), heavy_b.peek()]
        .into_iter()
        .flatten()
        .map(|r| key(r))
        .min()
    {
        heavy_a.next_if(|r| key(r) == v);
        heavy_b.next_if(|r| key(r) == v);
        // `a[..i]` and `b[..j]` key below `v`, and so do the light records
        // up to each block; each block runs to the first record above `v`.
        let (la, lb) = (gallop(a, i, |r| key(r) < v), gallop(b, j, |r| key(r) < v));
        let (ea, eb) = (
            gallop(a, la, |r| key(r) <= v),
            gallop(b, lb, |r| key(r) <= v),
        );
        merge_interleaved(&a[i..la], &b[j..lb], &mut out[i + j..la + lb], key);
        out[la + lb..ea + lb].write_copy_of_slice(&a[la..ea]);
        out[ea + lb..ea + eb].write_copy_of_slice(&b[lb..eb]);
        moved += ea + eb - (la + lb);
        (i, j) = (ea, eb);
    }
    merge_interleaved(&a[i..], &b[j..], &mut out[i + j..], key);
    if moved > 0 {
        REPLICATED.set(REPLICATED.get() + moved as u64);
    }
}

/// The branchless kernel under [`merge_two_uninit`]'s cuts; writes every
/// slot of `out`.
///
/// Each merge runs from both ends at once. A *front* chain takes the
/// smaller head into the lowest unwritten slot (ties take `a`), a *back*
/// chain takes the larger tail into the highest (ties take `b`: the later
/// run's record goes last) — the same stable merge written from its two
/// ends. Each chain is a dependent load → compare → index-bump sequence,
/// branchless (select + unconditional bumps) so random interleavings pay no
/// misprediction, and chains share nothing, so the CPU overlaps their
/// latencies. Thin records (≤ [`CASCADE_MAX_BYTES`]) first cut the output
/// at its midpoint by [`co_rank`] and run both halves' two-ended merges in
/// lockstep: four chains retire four records per iteration. Wider records
/// stay one two-ended merge, whose two chains were measured faster than
/// four bandwidth-bound write streams.
///
/// A round runs [`round`] steps (in lockstep, the smaller of the halves'
/// two), so the loop body needs no exhaustion test. Rounds repeat until a
/// run of some half is within one record of empty; each half then
/// finishes with its own rounds, the plain forward loop and two block
/// copies.
fn merge_interleaved<T: Copy, K: Ord>(
    a: &[T],
    b: &[T],
    out: &mut [MaybeUninit<T>],
    key: &impl Fn(&T) -> K,
) {
    assert_eq!(out.len(), a.len() + b.len());
    let t = if std::mem::size_of::<T>() <= CASCADE_MAX_BYTES {
        out.len() / 2
    } else {
        out.len()
    };
    let ia = co_rank(a, b, t, key);
    let jb = t.checked_sub(ia).expect("the co-rank is at most the cut");
    assert!(ia <= a.len() && jb <= b.len());
    // The halves are two two-ended merges that own disjoint runs and
    // slots, split at `t`: the co-rank postcondition (`a[..ia]` and
    // `b[..jb]` are the first `t` records of the stable merge) makes their
    // outputs that merge's. A wide record's `t` is the whole output and
    // its upper half empty. Each half keeps the two-ended invariant:
    // `a[i..ie]` and `b[j..je]` are unconsumed and `out[i + j..ie + je]` is
    // unwritten (indices into the whole runs and output), `i <= ie`,
    // `j <= je`. It holds here (`ia + jb == t`, bounds asserted above) and
    // after every step, which consumes one record and writes one slot at
    // the same end. Inside a round of at most `min(ie - i, je - j) / 2`
    // paired steps at most `2 * (steps - 1)` records of either run are gone
    // before a step, so at least two remain in each: the reads are in
    // bounds and a half's two chains never read the same record.
    let (mut i0, mut j0, mut ie0, mut je0) = (0, 0, ia, jb);
    let (mut i1, mut j1, mut ie1, mut je1) = (ia, jb, a.len(), b.len());
    // SAFETY: by the invariant every read is inside its half's `a[i..ie]`
    // or `b[j..je]` — rounds by their trip count, the forward loop by its
    // condition — and writes fill its `[i + j, ie + je)` once: fronts going
    // up, backs going down, the two tail copies the rest. `T: Copy`, and
    // `out` is a `&mut` borrow, so it overlaps neither input.
    unsafe {
        let dst = out.as_mut_ptr().cast::<T>();
        // One front step: the smaller head to slot `$k`.
        macro_rules! front {
            ($i:ident, $j:ident, $k:expr) => {
                let x = *a.get_unchecked($i);
                let y = *b.get_unchecked($j);
                // `<=` keeps `a`'s element on ties: stability.
                let take_a = key(&x) <= key(&y);
                *dst.add($k) = if take_a { x } else { y };
                $i += usize::from(take_a);
                $j += usize::from(!take_a);
            };
        }
        // One back step: the larger tail to slot `$kb`.
        macro_rules! back {
            ($ie:ident, $je:ident, $kb:expr) => {
                let x = *a.get_unchecked($ie - 1);
                let y = *b.get_unchecked($je - 1);
                // From the back, `<=` gives the tie to `b`: same order.
                let take_b = key(&x) <= key(&y);
                *dst.add($kb) = if take_b { y } else { x };
                $je -= usize::from(take_b);
                $ie -= usize::from(!take_b);
            };
        }
        loop {
            let steps = round(i0, j0, ie0, je0).min(round(i1, j1, ie1, je1));
            if steps == 0 {
                break;
            }
            for _ in 0..steps {
                front!(i0, j0, i0 + j0);
                front!(i1, j1, i1 + j1);
                back!(ie0, je0, ie0 + je0 - 1);
                back!(ie1, je1, ie1 + je1 - 1);
            }
        }
        for (mut i, mut j, mut ie, mut je) in [(i0, j0, ie0, je0), (i1, j1, ie1, je1)] {
            loop {
                let steps = round(i, j, ie, je);
                if steps == 0 {
                    break;
                }
                // Two chains: their slots counted, not summed (faster on
                // wide records, which run only this loop).
                let (mut k, mut kb) = (i + j, ie + je);
                for _ in 0..steps {
                    front!(i, j, k);
                    k += 1;
                    kb -= 1;
                    back!(ie, je, kb);
                }
            }
            while i < ie && j < je {
                front!(i, j, i + j);
            }
            // What is left of the one run not exhausted, as one block
            // copy: when the runs do not interleave (presorted or
            // staircase input, an empty partner) that is the whole half.
            std::ptr::copy_nonoverlapping(a.as_ptr().add(i), dst.add(i + j), ie - i);
            std::ptr::copy_nonoverlapping(b.as_ptr().add(j), dst.add(ie + j), je - j);
        }
    }
}

/// Tournament loser tree over the head keys of `k` sorted sources: the
/// winner (smallest `(key, leaf)` pair) is at `ls[0]`, every internal node
/// holds the loser of its match, so replacing the winner's head costs
/// exactly `⌈log₂ k⌉` comparisons with one tree-node load each — half the
/// loads of a binary heap's sift-down and with no per-record allocation or
/// branchy sift logic.
///
/// The tree holds keys only: its caller owns the records and hands it the
/// winner's next head with [`LoserTree::replace_head`].
/// [`kway_merge_uninit`] drives it over slices, and
/// [`crate::external::RunMerger`] over the decoded blocks of run files.
///
/// Leaves are padded to the next power of two; virtual leaves (index ≥ k)
/// and exhausted sources compare as +∞ with leaf-index tie-breaks, so ties
/// always go to the lowest-indexed *live* source — the same stability rule
/// as the pairwise kernels.
pub(crate) struct LoserTree<K> {
    /// Padded leaf count (power of two, ≥ k).
    m: usize,
    /// Head key of each (possibly virtual) leaf; `None` = exhausted.
    heads: Vec<Option<K>>,
    /// `ls[0]` = winner leaf; `ls[1..m]` = loser leaf at internal nodes.
    ls: Vec<usize>,
}

impl<K: Ord + Copy> LoserTree<K> {
    /// A tree over sources whose first keys are `heads` (`None`: empty).
    pub(crate) fn new(mut heads: Vec<Option<K>>) -> Self {
        let m = heads.len().next_power_of_two();
        heads.resize(m, None);
        let mut lt = Self {
            m,
            heads,
            ls: vec![0; m],
        };
        // Full bottom-up tournament over the complete tree [internal
        // nodes 1..m | leaf i at position m+i]: node j keeps the loser of
        // its children (positions 2j, 2j+1), winners move up, and the
        // champion lands in ls[0].
        let mut winner: Vec<usize> = vec![0; 2 * m];
        for (i, w) in winner[m..].iter_mut().enumerate() {
            *w = i;
        }
        for j in (1..m).rev() {
            let (a, b) = (winner[2 * j], winner[2 * j + 1]);
            let (w, l) = if lt.wins(a, b) { (a, b) } else { (b, a) };
            lt.ls[j] = l;
            winner[j] = w;
        }
        lt.ls[0] = winner[1];
        lt
    }

    /// Does leaf `a` beat leaf `b`? Smallest key wins; ties go to the
    /// lower leaf index (stability); exhausted leaves always lose.
    #[inline]
    fn wins(&self, a: usize, b: usize) -> bool {
        match (self.heads[a], self.heads[b]) {
            (Some(ka), Some(kb)) => (ka, a) < (kb, b),
            (ka, kb) => ka.is_some() || (kb.is_none() && a < b),
        }
    }

    /// The source whose head comes next in merged order, or `None` when
    /// every source is exhausted. A live winner is always a real source
    /// (virtual leaves are permanently exhausted).
    #[inline]
    pub(crate) fn winner(&self) -> Option<usize> {
        let w = self.ls[0];
        self.heads[w].map(|_| w)
    }

    /// Give the winning `leaf` its next head (`None`: it is exhausted) and
    /// replay its path to the root.
    #[inline]
    pub(crate) fn replace_head(&mut self, mut leaf: usize, head: Option<K>) {
        debug_assert_eq!(leaf, self.ls[0], "only the winner's head moves");
        self.heads[leaf] = head;
        let mut t = (self.m + leaf) / 2;
        while t > 0 {
            if self.wins(self.ls[t], leaf) {
                std::mem::swap(&mut self.ls[t], &mut leaf);
            }
            t /= 2;
        }
        self.ls[0] = leaf;
    }
}

/// Widest record (bytes) and most runs for which the pairwise cascade
/// still beats the loser tree: the cascade's `⌈log₂ k⌉` streaming passes
/// are branchless and predictor-friendly but copy every record per pass,
/// while a tournament pop costs `⌈log₂ k⌉` data-dependent branches and
/// copies once. Measured on the weak-scaling driver (cold caller, one
/// merge per sort): thin records at small `k` favour the cascade by
/// ~15 ns/record; 32-byte records favour the tree 2.5–3× at every `k`.
/// The same width bounds [`merge_two_uninit`]'s four-chain split: wider
/// records make four write streams bandwidth-bound.
const CASCADE_MAX_BYTES: usize = 16;
const CASCADE_MAX_K: usize = 8;
/// Shortest stride at which [`merge_two_uninit`] samples a run for
/// replicated keys, so the shortest block it cuts out is this many records
/// plus one.
const REPLICATED_MIN_STRIDE: usize = 64;

/// Small-`k`, thin-record cascade: pairwise [`merge_two`] levels with the
/// final pass writing straight into `out` (at most one intermediate level
/// is alive at a time, so peak extra memory stays ≈ n records). An odd
/// run is borrowed up the levels, never copied before a merge reads it.
fn kway_merge_cascade_uninit<T: Sortable>(runs: &[&[T]], out: &mut [MaybeUninit<T>]) {
    debug_assert!(runs.len() >= 3);
    let mut level: Vec<Cow<[T]>> = runs
        .chunks(2)
        .map(|pair| {
            if pair.len() == 2 {
                Cow::Owned(merge_two(pair[0], pair[1]))
            } else {
                Cow::Borrowed(pair[0])
            }
        })
        .collect();
    while level.len() > 2 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut iter = level.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(Cow::Owned(merge_two(&a, &b))),
                None => next.push(a),
            }
        }
        level = next;
    }
    let last = level.get(1).map_or(&[][..], |run| &run[..]);
    merge_two_uninit(&level[0], last, out, &Sortable::key);
}

/// Merge `k` sorted runs into uninitialized storage of exactly the total
/// length; writes every slot. Stable across runs: ties take from the
/// lowest-indexed run first.
///
/// Direct copy for `k ≤ 1`, the branchless two-way kernel for `k = 2`, a
/// short pairwise cascade for thin records at small `k` (branchless
/// streaming beats tournament branches when copies are cheap), and a
/// [`LoserTree`] beyond: `O(n log k)` comparisons, zero intermediate
/// buffers (the old all-`k` pairwise cascade, which this module's tests
/// keep as an oracle, allocated `O(log k)` full-size `Vec`s per merge).
pub(crate) fn kway_merge_uninit<T: Sortable>(runs: &[&[T]], out: &mut [MaybeUninit<T>]) {
    debug_assert_eq!(out.len(), runs.iter().map(|r| r.len()).sum::<usize>());
    match runs.len() {
        0 => {}
        1 => {
            out.write_copy_of_slice(runs[0]);
        }
        2 => merge_two_uninit(runs[0], runs[1], out, &Sortable::key),
        k if k <= CASCADE_MAX_K && std::mem::size_of::<T>() <= CASCADE_MAX_BYTES => {
            kway_merge_cascade_uninit(runs, out);
        }
        _ => {
            let mut lt =
                LoserTree::new(runs.iter().map(|r| r.first().map(Sortable::key)).collect());
            let mut pos = vec![0usize; runs.len()];
            for slot in out.iter_mut() {
                let w = lt.winner().expect("a record is left for every slot");
                let run = runs[w];
                slot.write(run[pos[w]]);
                pos[w] += 1;
                lt.replace_head(w, run.get(pos[w]).map(Sortable::key));
            }
            debug_assert_eq!(lt.winner(), None);
        }
    }
}

/// Merge `k` sorted runs into an existing buffer (cleared first). Stable
/// across runs; one allocation at most (growing `out` to the total size).
pub fn kway_merge_into<T: Sortable>(runs: &[&[T]], out: &mut Vec<T>) {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    out.clear();
    pages::reserve(out, total);
    kway_merge_uninit(runs, &mut out.spare_capacity_mut()[..total]);
    // SAFETY: `kway_merge_uninit` initialized all `total` reserved slots.
    unsafe {
        out.set_len(total);
    }
}

/// Merge `k` sorted runs. Stable across runs: ties take from the
/// lowest-indexed run first.
///
/// Uses direct concatenation for `k ≤ 1`, the branch-friendly two-way
/// kernel for `k = 2`, and a tournament loser tree beyond (`⌈log₂ k⌉`
/// comparisons per record, one output allocation, no intermediate runs) —
/// the structure *Robust Massively Parallel Sorting* uses for its final
/// multiway merge.
pub fn kway_merge<T: Sortable>(runs: &[&[T]]) -> Vec<T> {
    let mut out = Vec::new();
    kway_merge_into(runs, &mut out);
    out
}

/// The pre-loser-tree pairwise merge cascade (`⌈log₂ k⌉` linear passes,
/// each allocating a full-size intermediate `Vec`): an independently
/// derived oracle for the equivalence test.
#[cfg(test)]
fn kway_merge_cascade<T: Sortable>(runs: &[&[T]]) -> Vec<T> {
    match runs.len() {
        0 => Vec::new(),
        1 => runs[0].to_vec(),
        2 => merge_two(runs[0], runs[1]),
        _ => {
            // First pass: merge adjacent input slices (pairing neighbours
            // keeps run order, hence stability).
            let mut level: Vec<Vec<T>> = runs
                .chunks(2)
                .map(|pair| {
                    if pair.len() == 2 {
                        merge_two(pair[0], pair[1])
                    } else {
                        pair[0].to_vec()
                    }
                })
                .collect();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                let mut iter = level.into_iter();
                while let Some(a) = iter.next() {
                    match iter.next() {
                        Some(b) => next.push(merge_two(&a, &b)),
                        None => next.push(a),
                    }
                }
                level = next;
            }
            level.pop().unwrap_or_default()
        }
    }
}

/// Merge `k` sorted runs with a binary heap of `Reverse((key, run, pos))`
/// (`O(n log k)` with heap constants): a second independent oracle; the
/// loser tree in [`kway_merge`] does about half the memory traffic per
/// record.
#[cfg(test)]
fn kway_merge_heap<T: Sortable>(runs: &[&[T]]) -> Vec<T> {
    use std::cmp::Reverse;
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap = std::collections::BinaryHeap::with_capacity(runs.len());
    for (run, data) in runs.iter().enumerate() {
        if let Some(first) = data.first() {
            heap.push(Reverse((first.key(), run, 0)));
        }
    }
    while let Some(Reverse((_, run, pos))) = heap.pop() {
        out.push(runs[run][pos]);
        if let Some(next) = runs[run].get(pos + 1) {
            heap.push(Reverse((next.key(), run, pos + 1)));
        }
    }
    out
}

/// Merge `k` sorted runs identified by their offsets inside one contiguous
/// buffer (what `alltoallv_given_counts` returns: chunk `i` occupies
/// `buf[disp[i]..disp[i+1]]`). [`crate::exchange`] merges the runs where
/// they lie instead; the benchmark's staged replay, which follows the
/// borrowed exchange, is the caller.
pub fn kway_merge_offsets<T: Sortable>(buf: &[T], disp: &[usize]) -> Vec<T> {
    debug_assert!(disp.len() >= 2, "disp must bracket at least one run");
    let runs: Vec<&[T]> = disp.windows(2).map(|w| &buf[w[0]..w[1]]).collect();
    kway_merge(&runs)
}

/// True if `data` is sorted by key (non-decreasing).
pub fn is_sorted_by_key<T: Sortable>(data: &[T]) -> bool {
    data.windows(2).all(|w| w[0].key() <= w[1].key())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OrderedF64, Record, Tagged};
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn merge_two_basic() {
        assert_eq!(merge_two(&[1u32, 3, 5], &[2, 4, 6]), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(merge_two(&[], &[1u32]), vec![1]);
        assert_eq!(merge_two(&[1u32], &[]), vec![1]);
        assert_eq!(merge_two::<u32>(&[], &[]), Vec::<u32>::new());
        // Runs that do not interleave leave all of one to the tail copy.
        assert_eq!(merge_two(&[1u32, 2, 3], &[4, 5]), vec![1, 2, 3, 4, 5]);
        assert_eq!(merge_two(&[4u32, 5], &[1, 2, 3]), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_two_is_stable() {
        let a = [Record::new(1u32, 'a'), Record::new(2, 'a')];
        let b = [Record::new(1u32, 'b'), Record::new(2, 'b')];
        let m = merge_two(&a, &b);
        let tags: Vec<char> = m.iter().map(|r| r.payload).collect();
        assert_eq!(tags, vec!['a', 'b', 'a', 'b']);
    }

    /// Independent of every merge in this module: concatenate and let
    /// `std`'s stable sort put ties in `a`-before-`b` order.
    fn concat_then_stable_sort<T: Sortable>(a: &[T], b: &[T]) -> Vec<T> {
        let mut v = [a, b].concat();
        v.sort_by_key(Sortable::key);
        v
    }

    /// Every sorted run of `len` keys from `0..keys`, tagged `tag0..`.
    fn sorted_runs(len: usize, keys: u32, tag0: u64) -> Vec<Vec<Tagged<u32>>> {
        if len == 0 {
            return vec![Vec::new()];
        }
        // A run is its first key followed by a run of keys not below it.
        let mut runs = Vec::new();
        for first in 0..keys {
            for rest in sorted_runs(len - 1, keys - first, tag0 + 1) {
                let mut run = vec![Record::new(first, tag0)];
                run.extend(
                    rest.into_iter()
                        .map(|r| Record::new(r.key + first, r.payload)),
                );
                runs.push(run);
            }
        }
        runs
    }

    #[test]
    fn merge_two_matches_stable_oracle_on_every_length_pair() {
        // Three keys up to length 9 give every tie pattern between and
        // inside the runs; two keys up to length 16 reach the four-chain
        // lockstep (it needs two records of each run in each half), a
        // midpoint cut inside a tie block that spans both runs, each half's
        // own rounds, its forward loop and each of its tail copies.
        for (keys, max_len) in [(3, 9), (2, 16)] {
            for la in 0..=max_len {
                for lb in 0..=max_len {
                    for a in sorted_runs(la, keys, 0) {
                        for b in sorted_runs(lb, keys, 100) {
                            assert_eq!(
                                merge_two(&a, &b),
                                concat_then_stable_sort(&a, &b),
                                "a={a:?} b={b:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn co_rank_counts_the_first_records_of_the_stable_merge() {
        // Every cut `t` of every run pair over keys {0, 1, 2} up to length
        // 7: the co-rank is how many `a` records (tags below 100) the
        // oracle's first `t` records hold.
        for la in 0..=7 {
            for lb in 0..=7 {
                for a in sorted_runs(la, 3, 0) {
                    for b in sorted_runs(lb, 3, 100) {
                        let merged = concat_then_stable_sort(&a, &b);
                        for t in 0..=la + lb {
                            let from_a = merged[..t].iter().filter(|r| r.payload < 100).count();
                            assert_eq!(
                                co_rank(&a, &b, t, &Sortable::key),
                                from_a,
                                "t={t} a={a:?} b={b:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Tagged records `tag0..` with these keys, in order.
    fn tagged(keys: impl IntoIterator<Item = u32>, tag0: u64) -> Vec<Tagged<u32>> {
        keys.into_iter()
            .zip(tag0..)
            .map(|(k, t)| Record::new(k, t))
            .collect()
    }

    #[test]
    fn a_block_of_one_stride_is_merged_and_one_stride_plus_one_is_cut() {
        // A block opening at sample 0 holds a second sample from one stride
        // plus one record on; `b`'s copies of the key follow it as a block.
        const S: usize = REPLICATED_MIN_STRIDE;
        let b = tagged([0, 1, 1, 3], 1 << 32);
        for (block, moved) in [(S, 0), (S + 1, S + 3)] {
            let a = tagged(std::iter::repeat_n(1, block).chain(2..2 + S as u32), 0);
            take_replicated_tally();
            assert_eq!(merge_two(&a, &b), concat_then_stable_sort(&a, &b));
            assert_eq!(take_replicated_tally(), moved as u64, "block of {block}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        #[cfg_attr(miri, ignore)]
        fn merge_two_matches_stable_oracle_around_replicated_keys(
            blocks_a in vec(0usize..7, 1..7),
            blocks_b in vec(0usize..7, 6..7),
            light_a in vec(0u32..7, 0..400),
            light_b in vec(0u32..7, 0..400),
            shape in 0usize..4,
        ) {
            // Heavy key `10·(h + 1)` has a block of `LENS[..]` records in each
            // run; light keys `10·g + 5` sit in the gaps around them. A block
            // of `2S - 1` or more always holds two samples, one of `S + 1`
            // only when a sample opens it, one of `S` never.
            const S: usize = REPLICATED_MIN_STRIDE;
            const LENS: [usize; 7] = [0, 1, S, S + 1, 2 * S - 1, 2 * S + 1, 3 * S + 7];
            let heavy = blocks_a.len() as u32;
            let run = |blocks: &[usize], light: &[u32], tag0: u64| {
                let mut keys: Vec<u32> = light
                    .iter()
                    .filter(|&&g| match shape {
                        // the first heavy key is the run's first record
                        1 => g > 0,
                        // the last heavy key is its last record
                        2 => g < heavy,
                        _ => true,
                    })
                    .map(|g| 10 * g + 5)
                    .collect();
                for (h, &len) in (0..heavy).zip(blocks) {
                    keys.extend(std::iter::repeat_n(10 * (h + 1), LENS[len]));
                }
                keys.sort_unstable();
                tagged(keys, tag0)
            };
            let mut blocks_a = blocks_a;
            match shape {
                1 => blocks_a[0] = 5,
                2 => *blocks_a.last_mut().expect("one heavy key at least") = 5,
                _ => {}
            }
            let a = run(&blocks_a, &light_a, 0);
            // one empty run
            let b = if shape == 3 { Vec::new() } else { run(&blocks_b, &light_b, 1 << 32) };
            take_replicated_tally();
            prop_assert_eq!(merge_two(&a, &b), concat_then_stable_sort(&a, &b));
            // A key replicated in one run only is cut as one in both is.
            let sure = |blocks: &[usize]| {
                blocks[..blocks_a.len()].iter().any(|&len| LENS[len] >= 2 * S - 1)
            };
            let cut = sure(&blocks_a) || (!b.is_empty() && sure(&blocks_b));
            prop_assert!(take_replicated_tally() > 0 || !cut, "a sure block was merged");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

        #[test]
        fn merge_two_matches_stable_oracle_on_lopsided_and_degenerate_runs(
            shape in 0usize..5,
            short in 0usize..4,
            long in 9_000usize..=10_000,
            span in 1u32..3000,
            seed in any::<u64>(),
        ) {
            use rand::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut run = |len: usize, lo: u32, hi: u32, tag0: u64| -> Vec<Tagged<u32>> {
                let mut keys: Vec<u32> = (0..len).map(|_| rng.gen_range(lo..hi)).collect();
                keys.sort_unstable();
                keys.into_iter().zip(tag0..).map(|(k, t)| Record::new(k, t)).collect()
            };
            let (a, b) = match shape {
                // 1 vs 10 000 and the like, either way round
                0 => (run(short, 0, span, 0), run(long, 0, span, 1 << 32)),
                1 => (run(long, 0, span, 0), run(short, 0, span, 1 << 32)),
                // all keys equal: only the tie rules order the output
                2 => (run(long / 3, 7, 8, 0), run(long, 7, 8, 1 << 32)),
                // runs that do not interleave, `a` below `b` and above
                3 => (run(long, 0, span, 0), run(long / 2, span, 2 * span, 1 << 32)),
                _ => (run(long / 2, span, 2 * span, 0), run(long, 0, span, 1 << 32)),
            };
            prop_assert_eq!(merge_two(&a, &b), concat_then_stable_sort(&a, &b));
        }

        #[test]
        fn merge_two_matches_stable_oracle_on_few_key_runs(
            shape in 0usize..6,
            keys in 1u32..=4,
            len_a in 0usize..=2000,
            len_b in 0usize..=2000,
            seed in any::<u64>(),
        ) {
            // Long ties on both sides of the midpoint cut, where the
            // co-rank decides which run's equal keys each half gets.
            use rand::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut run = |len: usize, lo: u32, tag0: u64| -> Vec<Tagged<u32>> {
                let mut keys: Vec<u32> = (0..len).map(|_| rng.gen_range(lo..lo + keys)).collect();
                keys.sort_unstable();
                keys.into_iter().zip(tag0..).map(|(k, t)| Record::new(k, t)).collect()
            };
            let (a, b) = match shape {
                // one empty side, either way round
                0 => (run(0, 0, 0), run(len_b, 0, 1 << 32)),
                1 => (run(len_a, 0, 0), run(0, 0, 1 << 32)),
                // runs that do not interleave, `a` below `b` and above
                2 => (run(len_a, 0, 0), run(len_b, keys, 1 << 32)),
                3 => (run(len_a, keys, 0), run(len_b, 0, 1 << 32)),
                _ => (run(len_a, 0, 0), run(len_b, 0, 1 << 32)),
            };
            prop_assert_eq!(merge_two(&a, &b), concat_then_stable_sort(&a, &b));
        }

        #[test]
        fn merge_two_matches_stable_oracle_on_float_keys(
            picks_a in vec(0usize..12, 0..300),
            picks_b in vec(0usize..12, 0..300),
        ) {
            // NaNs of both signs, both zeros and both infinities are keys
            // like any other under the total order, and `-0 < +0`.
            let palette = [
                f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY,
                1.5, -1.5, f64::MIN_POSITIVE, f64::MAX, f64::MIN, 1e-300,
            ];
            let run = |picks: &[usize], tag0: u64| -> Vec<Tagged<OrderedF64>> {
                let mut keys: Vec<OrderedF64> =
                    picks.iter().map(|&i| OrderedF64::new(palette[i])).collect();
                keys.sort_unstable();
                keys.into_iter().zip(tag0..).map(|(k, t)| Record::new(k, t)).collect()
            };
            let (a, b) = (run(&picks_a, 0), run(&picks_b, 1 << 32));
            prop_assert_eq!(merge_two(&a, &b), concat_then_stable_sort(&a, &b));
        }
    }

    #[test]
    fn kway_merge_three_runs() {
        let runs: Vec<&[u64]> = vec![&[1, 4, 7], &[2, 5, 8], &[3, 6, 9]];
        assert_eq!(kway_merge(&runs), (1..=9).collect::<Vec<u64>>());
    }

    #[test]
    fn kway_merge_stability_across_runs() {
        let r0 = [Record::new(5u32, 0u64), Record::new(5, 1)];
        let r1 = [Record::new(5u32, 2u64)];
        let r2 = [Record::new(5u32, 3u64), Record::new(5, 4)];
        let runs: Vec<&[Record<u32, u64>]> = vec![&r0, &r1, &r2];
        let m = kway_merge(&runs);
        let tags: Vec<u64> = m.iter().map(|r| r.payload).collect();
        assert_eq!(
            tags,
            vec![0, 1, 2, 3, 4],
            "equal keys must come out in run order"
        );
    }

    #[test]
    fn kway_merge_with_empty_runs() {
        let runs: Vec<&[u32]> = vec![&[], &[2, 3], &[], &[1], &[]];
        assert_eq!(kway_merge(&runs), vec![1, 2, 3]);
        assert_eq!(kway_merge::<u32>(&[]), Vec::<u32>::new());
    }

    #[test]
    fn kway_merge_offsets_contiguous_buffer() {
        let buf = [1u32, 5, 9, 2, 6, 3, 7, 8];
        let disp = [0, 3, 5, 8];
        assert_eq!(
            kway_merge_offsets(&buf, &disp),
            vec![1, 2, 3, 5, 6, 7, 8, 9]
        );
    }

    #[test]
    fn kway_matches_sort_on_random_runs() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        for k in [1usize, 2, 3, 8, 17] {
            let runs: Vec<Vec<u32>> = (0..k)
                .map(|_| {
                    let mut v: Vec<u32> = (0..rng.gen_range(0..200))
                        .map(|_| rng.gen_range(0..50))
                        .collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
            let merged = kway_merge(&refs);
            let mut expect: Vec<u32> = runs.iter().flatten().copied().collect();
            expect.sort_unstable();
            assert_eq!(merged, expect, "k={k}");
        }
    }

    #[test]
    fn loser_tree_heap_and_cascade_bit_identical() {
        // Tagged records with heavy duplication: any tie-order divergence
        // between the three k-way implementations shows up in the payloads.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        for k in [3usize, 4, 5, 9, 16, 33, 100] {
            let mut tag = 0u64;
            let runs: Vec<Vec<Record<u32, u64>>> = (0..k)
                .map(|_| {
                    let mut v: Vec<u32> = (0..rng.gen_range(0..150))
                        .map(|_| rng.gen_range(0..30))
                        .collect();
                    v.sort_unstable();
                    v.into_iter()
                        .map(|key| {
                            tag += 1;
                            Record::new(key, tag)
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[Record<u32, u64>]> = runs.iter().map(Vec::as_slice).collect();
            let loser = kway_merge(&refs);
            assert_eq!(loser, kway_merge_cascade(&refs), "k={k} vs cascade");
            assert_eq!(loser, kway_merge_heap(&refs), "k={k} vs heap");

            // 16-byte records at k ≤ 8 dispatch to the small-k cascade
            // above; drive the LoserTree itself at every k too so the
            // tournament path keeps small-k tie-order coverage.
            let heads = refs.iter().map(|r| r.first().map(Sortable::key));
            let mut lt = LoserTree::new(heads.collect());
            let mut pos = vec![0usize; k];
            let mut out: Vec<Record<u32, u64>> = Vec::new();
            while let Some(w) = lt.winner() {
                out.push(refs[w][pos[w]]);
                pos[w] += 1;
                lt.replace_head(w, refs[w].get(pos[w]).map(Sortable::key));
            }
            assert_eq!(out, loser, "k={k} tree vs dispatch");
        }
    }

    #[test]
    fn kway_merge_into_reuses_buffer() {
        let runs: Vec<&[u32]> = vec![&[1, 4], &[2, 5], &[3]];
        let mut out = vec![99u32; 64];
        kway_merge_into(&runs, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn is_sorted_detects_order() {
        assert!(is_sorted_by_key(&[1u32, 1, 2, 3]));
        assert!(!is_sorted_by_key(&[2u32, 1]));
        assert!(is_sorted_by_key::<u32>(&[]));
    }
}
