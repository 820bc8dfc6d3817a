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
//! Non-power-of-two worlds use odd-even transposition (`p` rounds). Both
//! networks are the ones SDS-Sort sorts its pivot samples with
//! ([`sdssort::pivots::block_network_sort`]).

use comm::Communicator;
use sdssort::pivots::block_network_sort;
use sdssort::record::Sortable;

/// Sort `data` across `comm` with a block bitonic network (power-of-two
/// worlds) or block odd-even transposition (otherwise).
///
/// Requires every rank to hold the same number of records (checked
/// collectively); pad externally if necessary.
pub fn bitonic_sort<T: Sortable, C: Communicator>(comm: &C, mut data: Vec<T>) -> Vec<T> {
    let (min_n, max_n) = comm.allreduce((data.len(), data.len()), |a, b| {
        (a.0.min(b.0), a.1.max(b.1))
    });
    assert_eq!(min_n, max_n, "bitonic baseline requires equal block sizes");
    comm.compute(|| data.sort_unstable_by_key(|r| r.key()));
    block_network_sort(comm, &mut data, 3000, Sortable::key);
    data
}
