//! Global pivot selection (`SdssSelectPivots`, paper §2.4).
//!
//! Each rank contributes its `p-1` regularly sampled local pivots; the
//! `p·(p-1)` pooled samples are sorted *in parallel* — the paper uses a
//! distributed bitonic sort to avoid gathering all samples on one rank —
//! and the `p-1` global pivots are read off at regular stride. We provide:
//!
//! * a **block bitonic sort** over power-of-two rank counts (hypercube
//!   merge-split, the paper's choice),
//! * a **block odd-even transposition sort** for arbitrary rank counts,
//! * a **gather-based** fallback (sort all samples on rank 0, broadcast) —
//!   both a baseline and the degenerate-path handler when ranks hold
//!   unequal sample counts (tiny inputs).
//!
//! All three produce identical pivot vectors.

use crate::merge::merge_two_by_key;
use comm::Communicator;

/// Which parallel sorter orders the pooled samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PivotMethod {
    /// Distributed sort: bitonic when `p` is a power of two, odd-even
    /// transposition otherwise.
    #[default]
    Distributed,
    /// Gather everything on rank 0, sort sequentially, broadcast.
    Gather,
}

/// Select `p-1` global pivots from each rank's local pivots.
///
/// `local_pivots` must be sorted (they are regular samples of sorted local
/// data). Returns the same pivot vector on every rank.
pub fn select_global_pivots<K: Ord + Copy + Send + Sync + 'static + comm::Wire, C: Communicator>(
    comm: &C,
    local_pivots: &[K],
    method: PivotMethod,
) -> Vec<K> {
    let p = comm.size();
    if p == 1 {
        return Vec::new();
    }
    debug_assert!(
        local_pivots.windows(2).all(|w| w[0] <= w[1]),
        "local pivots must be sorted"
    );

    // The distributed sorters need equal block sizes; tiny inputs can make
    // sample counts differ per rank. Detect and fall back to gathering.
    // The block size is `s·(p-1)` under oversampling factor s (s = 1 is
    // the paper's regular sampling).
    let want = p - 1;
    let b = local_pivots.len();
    let (min_b, max_b) = comm.allreduce((b, b), |a, c| (a.0.min(c.0), a.1.max(c.1)));
    if min_b != max_b || min_b == 0 || matches!(method, PivotMethod::Gather) {
        return gather_select(comm, local_pivots);
    }

    let mut sorted_block = local_pivots.to_vec();
    block_network_sort(comm, &mut sorted_block, 1000, |k| *k);

    // Global pivot i (i = 0..p-2) sits at pooled position (i+1)·total/p
    // over the p·b pooled samples (regular stride; for b = p-1 this is the
    // classical (i+1)(p-1)). Rank r owns pooled positions
    // [r·b, (r+1)·b); extract locally, then share.
    let total = p * b;
    let lo = comm.rank() * b;
    let mut mine: Vec<(u64, K)> = Vec::new();
    for i in 0..want {
        let pos = ((i + 1) * total / p).min(total - 1);
        if pos >= lo && pos < lo + b {
            mine.push((i as u64, sorted_block[pos - lo]));
        }
    }
    let (flat, _) = comm.allgatherv(&mine);
    let mut flat = flat;
    flat.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(flat.len(), want);
    flat.into_iter().map(|(_, k)| k).collect()
}

fn gather_select<K: Ord + Copy + Send + Sync + 'static + comm::Wire, C: Communicator>(
    comm: &C,
    local: &[K],
) -> Vec<K> {
    let p = comm.size();
    let (mut all, _) = comm.allgatherv(local);
    all.sort_unstable();
    crate::sampling::regular_sample_positions(all.len(), p - 1)
        .into_iter()
        .map(|pos| all[pos])
        .collect()
}

/// One merge-split step: exchange blocks with `partner`, merge, keep the
/// low or high half. Blocks must be sorted by `key` and equal-length; the
/// kept half has the caller's original block length.
fn merge_split<T: Copy + comm::Wire, K: Ord, C: Communicator>(
    comm: &C,
    block: &mut Vec<T>,
    partner: usize,
    keep_low: bool,
    tag: u64,
    key: impl Fn(&T) -> K,
) {
    comm.send_slice(partner, tag, block);
    let theirs: Vec<T> = comm.recv_vec(partner, tag);
    let merged = merge_two_by_key(block, &theirs, key);
    let keep = block.len();
    let from = if keep_low { 0 } else { theirs.len() };
    block.clear();
    block.extend_from_slice(&merged[from..from + keep]);
}

/// Sort equal-length blocks, each sorted by `key`, across the ranks of
/// `comm`: on return every rank's block is sorted and blocks ascend with
/// rank. The network is the bitonic one when `p` is a power of two and
/// odd-even transposition otherwise; round `i` of the first is tagged
/// `tag_base + i`, of the second `tag_base + 1000 + i`.
pub fn block_network_sort<T: Copy + comm::Wire, K: Ord, C: Communicator>(
    comm: &C,
    block: &mut Vec<T>,
    tag_base: u64,
    key: impl Fn(&T) -> K + Copy,
) {
    if comm.size().is_power_of_two() {
        bitonic_rounds(comm, block, tag_base, key);
    } else {
        odd_even_rounds(comm, block, tag_base + 1000, key);
    }
}

/// The hypercube merge-split rounds of a block bitonic sort (`p` a power of
/// two): `log p (log p + 1) / 2` of them.
fn bitonic_rounds<T: Copy + comm::Wire, K: Ord, C: Communicator>(
    comm: &C,
    block: &mut Vec<T>,
    tag_base: u64,
    key: impl Fn(&T) -> K + Copy,
) {
    let r = comm.rank();
    let mut round: u64 = 0;
    for k in 1..=comm.size().trailing_zeros() {
        for j in (0..k).rev() {
            let partner = r ^ (1usize << j);
            // Ascending region if bit k of rank is 0 (for the final stage
            // k = log p, every rank is ascending: bit log p of r < p is 0).
            let ascending = (r >> k) & 1 == 0;
            let keep_low = (r < partner) == ascending;
            merge_split(comm, block, partner, keep_low, tag_base + round, key);
            round += 1;
        }
    }
}

/// The `p` pairwise merge-split rounds of a block odd-even transposition
/// sort. Ranks stay in lockstep without a barrier: every round has its tag.
fn odd_even_rounds<T: Copy + comm::Wire, K: Ord, C: Communicator>(
    comm: &C,
    block: &mut Vec<T>,
    tag_base: u64,
    key: impl Fn(&T) -> K + Copy,
) {
    let (p, r) = (comm.size(), comm.rank());
    for round in 0..p {
        // Even rounds pair (0,1), (2,3), …; odd rounds (1,2), (3,4), ….
        let partner = if r.is_multiple_of(2) == (round % 2 == 0) {
            (r + 1 < p).then(|| r + 1)
        } else {
            r.checked_sub(1)
        };
        if let Some(partner) = partner {
            merge_split(
                comm,
                block,
                partner,
                r < partner,
                tag_base + round as u64,
                key,
            );
        }
    }
}

/// Block bitonic sort across a power-of-two number of ranks. On return,
/// every rank's block is sorted and blocks ascend with rank.
pub fn bitonic_block_sort<K: Ord + Copy + Send + Sync + 'static + comm::Wire, C: Communicator>(
    comm: &C,
    mut block: Vec<K>,
) -> Vec<K> {
    assert!(
        comm.size().is_power_of_two(),
        "bitonic needs a power-of-two rank count"
    );
    block.sort_unstable();
    bitonic_rounds(comm, &mut block, 1000, |k| *k);
    block
}

/// Block odd-even transposition sort across any number of ranks. `p`
/// rounds of pairwise merge-splits.
pub fn odd_even_block_sort<K: Ord + Copy + Send + Sync + 'static + comm::Wire, C: Communicator>(
    comm: &C,
    mut block: Vec<K>,
) -> Vec<K> {
    block.sort_unstable();
    odd_even_rounds(comm, &mut block, 2000, |k| *k);
    block
}

/// Reference implementation used by tests: pool all samples, sort, take
/// regular positions.
pub fn reference_pivots<K: Ord + Copy>(all_samples: &mut [K], p: usize) -> Vec<K> {
    all_samples.sort_unstable();
    crate::sampling::regular_sample_positions(all_samples.len(), p.saturating_sub(1))
        .into_iter()
        .map(|pos| all_samples[pos])
        .collect()
}
