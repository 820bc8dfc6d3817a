//! HykSort (Sundar, Malhotra, Biros — ICS'13), the paper's primary
//! baseline.
//!
//! HykSort generalizes hypercube quicksort: each stage selects `k-1`
//! splitters by iterative histogramming, buckets local data with
//! `upper_bound`, exchanges buckets so that the ranks split into `k`
//! consecutive groups each holding one bucket, merges the received chunks
//! (overlapped with the exchange, per the paper's footnote that HykSort's
//! exchange time includes local ordering), and recurses within the group.
//! With `k = p` it degenerates to single-stage sample sort with histogram
//! pivots.
//!
//! On skewed data the splitters are duplicated key values and `upper_bound`
//! bucketing assigns *all* duplicates of a splitter to one group — the load
//! imbalance that SDS-Sort's evaluation shows growing into out-of-memory
//! failures (Tables 3/4 report RDFA = ∞). The receive-buffer allocation
//! here goes through the simulated memory budget to reproduce exactly
//! that.

use crate::histogram::histogram_splitters;
use comm::Communicator;
use sdssort::config::ComputeCharge;
use sdssort::exchange::{exchange, fail_together, Delivery};
use sdssort::histogram::choose_k;
use sdssort::partition::{classic_cuts, cuts_to_counts};
use sdssort::record::Sortable;
use sdssort::sort::{SortError, SortOutput};
use sdssort::stats::SortStats;

/// HykSort configuration.
#[derive(Debug, Clone, Copy)]
pub struct HykSortConfig {
    /// Fan-out per stage (`k`-way communication; the HykSort paper found
    /// k = 128 optimal, which SDS-Sort's evaluation reuses).
    pub k: usize,
    /// Compute charging (see [`ComputeCharge`]).
    pub charge: ComputeCharge,
    /// Seed for splitter sampling.
    pub seed: u64,
}

impl Default for HykSortConfig {
    fn default() -> Self {
        Self {
            k: 128,
            charge: ComputeCharge::Measured,
            seed: 0xCAFE,
        }
    }
}

/// Sort `data` across `comm` with HykSort. Unstable. Fails collectively
/// with [`SortError`] when any rank's receive buffer exceeds the simulated
/// memory budget.
pub fn hyksort<T: Sortable, C: Communicator>(
    comm: &C,
    mut data: Vec<T>,
    cfg: &HykSortConfig,
) -> Result<SortOutput<T>, SortError> {
    let mut stats = SortStats {
        input_count: data.len(),
        ..SortStats::default()
    };
    // The initial local sort counts as pivot selection (the paper's "initial
    // ordering" footnote), as in every other sorter.
    let t0 = comm.now();
    let n0 = data.len();
    cfg.charge.charged(
        comm,
        |m| m.sort_cost(n0),
        || {
            data.sort_unstable_by_key(|r| r.key());
        },
    );
    stats.pivot_s += comm.now() - t0;
    let data = stage(comm, data, cfg, &mut stats, 0)?;
    stats.recv_count = data.len();
    Ok(SortOutput { data, stats })
}

fn stage<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    cfg: &HykSortConfig,
    stats: &mut SortStats,
    depth: u64,
) -> Result<Vec<T>, SortError> {
    let p = comm.size();
    if p == 1 {
        return Ok(data);
    }
    let k = choose_k(p, cfg.k.max(2));
    let g = p / k; // group size after this stage

    // Splitter selection (histogram refinement).
    let t0 = comm.now();
    let splitters = histogram_splitters(comm, &data, k, cfg.seed ^ depth);
    stats.pivot_s += comm.now() - t0;

    // Classic bucketing: all duplicates of a splitter go to one bucket.
    let t1 = comm.now();
    let bucket_counts = if splitters.is_empty() {
        let mut c = vec![0usize; k];
        c[0] = data.len();
        c
    } else {
        let mut padded = splitters.clone();
        if padded.len() < k - 1 {
            if let Some(&last) = padded.last() {
                padded.resize(k - 1, last);
            }
        }
        cuts_to_counts(&classic_cuts(&data, &padded))
    };
    debug_assert_eq!(bucket_counts.len(), k);

    // Bucket b goes to rank b·g + (rank mod g).
    let me = comm.rank();
    let mut send_counts = vec![0usize; p];
    for (b, &cnt) in bucket_counts.iter().enumerate() {
        let dst = b
            .checked_mul(g)
            .and_then(|bg| bg.checked_add(me % g))
            .expect("bucket destination b*g + (me%g) < p, which fit in usize above");
        send_counts[dst] = cnt;
    }
    // Asynchronous exchange overlapped with progressive merging; merge time
    // is charged to the exchange phase (paper footnote 4: HykSort's
    // exchange contains its local ordering).
    let acc = exchange(
        comm,
        data,
        &send_counts,
        Delivery::Overlapped,
        cfg.charge,
        None,
    )?
    .data;
    stats.exchange_s += comm.now() - t1;

    if g == 1 {
        return Ok(acc);
    }
    let group = (me / g) as i64;
    let sub = comm
        .split(Some(group), (me % g) as i64)
        .expect("every rank is in a group");
    let sorted = stage(&sub, acc, cfg, stats, depth + 1);
    // Below the first stage the memory checks are per group.
    if depth == 0 {
        fail_together(comm, sorted)
    } else {
        sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_k_prefers_largest_divisor() {
        assert_eq!(choose_k(16, 128), 16);
        assert_eq!(choose_k(256, 128), 128);
        assert_eq!(choose_k(12, 4), 4);
        assert_eq!(choose_k(12, 5), 4);
        assert_eq!(choose_k(9, 3), 3);
        // prime p above kmax: single stage with k = p
        assert_eq!(choose_k(7, 4), 7);
        assert_eq!(choose_k(2, 128), 2);
    }
}
