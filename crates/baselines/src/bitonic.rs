//! Full parallel bitonic sort — the classical non-sampling baseline
//! (Bilardi & Nicolau; cited as \[4\] in the paper's related work).
//!
//! Block formulation: every rank holds an equal-length sorted block; each
//! comparator of the bitonic network becomes a merge-split (exchange
//! blocks, merge, keep low/high half). Communication volume is
//! `O(n/p · log² p)` versus sample sort's single exchange — the reason the
//! paper's related-work section dismisses non-sampling sorts on
//! distributed memory.
//!
//! Non-power-of-two worlds use odd-even transposition (`p` rounds), which
//! shares the merge-split kernel.

use comm::Communicator;
use sdssort::merge::merge_two;
use sdssort::record::Sortable;

fn merge_split<T: Sortable, C: Communicator>(
    comm: &C,
    block: &mut Vec<T>,
    partner: usize,
    keep_low: bool,
    tag: u64,
) {
    comm.send_slice(partner, tag, block);
    let theirs: Vec<T> = comm.recv_vec(partner, tag);
    let merged = merge_two(block, &theirs);
    let keep = block.len();
    block.clear();
    if keep_low {
        block.extend_from_slice(&merged[..keep]);
    } else {
        let lo = merged
            .len()
            .checked_sub(keep)
            .expect("merged holds ours + theirs, so merged.len() >= keep");
        block.extend_from_slice(&merged[lo..]);
    }
}

/// Sort `data` across `comm` with a block bitonic network (power-of-two
/// worlds) or block odd-even transposition (otherwise).
///
/// Requires every rank to hold the same number of records (checked
/// collectively); pad externally if necessary.
pub fn bitonic_sort<T: Sortable, C: Communicator>(comm: &C, mut data: Vec<T>) -> Vec<T> {
    let p = comm.size();
    let (min_n, max_n) = comm.allreduce((data.len(), data.len()), |a, b| {
        (a.0.min(b.0), a.1.max(b.1))
    });
    assert_eq!(min_n, max_n, "bitonic baseline requires equal block sizes");
    comm.compute(|| data.sort_unstable_by_key(|r| r.key()));
    if p == 1 {
        return data;
    }
    let r = comm.rank();
    if p.is_power_of_two() {
        let stages = p.trailing_zeros();
        let mut round: u64 = 0;
        for k in 1..=stages {
            for j in (0..k).rev() {
                let partner = r ^ (1usize << j);
                let ascending = (r >> k) & 1 == 0;
                let keep_low = (r < partner) == ascending;
                merge_split(comm, &mut data, partner, keep_low, 3000 + round);
                round += 1;
            }
        }
    } else {
        for round in 0..p {
            let even_round = round % 2 == 0;
            let partner = if r.is_multiple_of(2) == even_round {
                (r + 1 < p).then(|| r + 1)
            } else {
                (r > 0).then(|| r - 1)
            };
            if let Some(partner) = partner {
                merge_split(comm, &mut data, partner, r < partner, 4000 + round as u64);
            }
        }
    }
    data
}
