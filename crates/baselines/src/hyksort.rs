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

use crate::histogram::{histogram_splitters, HistogramConfig};
use comm::{AsyncExchange, Communicator};
use sdssort::config::{ComputeCharge, ComputeModel};
use sdssort::merge::merge_two;
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
    /// Histogram refinement parameters.
    pub hist: HistogramConfig,
    /// Compute charging (see [`ComputeCharge`]).
    pub charge: ComputeCharge,
    /// Seed for splitter sampling.
    pub seed: u64,
}

impl Default for HykSortConfig {
    fn default() -> Self {
        Self {
            k: 128,
            hist: HistogramConfig::default(),
            charge: ComputeCharge::Measured,
            seed: 0xCAFE,
        }
    }
}

fn model_of(cfg: &HykSortConfig) -> Option<ComputeModel> {
    match cfg.charge {
        ComputeCharge::Measured => None,
        ComputeCharge::Modeled(m) => Some(m),
    }
}

fn charged<R, C: Communicator>(
    comm: &C,
    cfg: &HykSortConfig,
    cost: impl FnOnce(&ComputeModel) -> f64,
    f: impl FnOnce() -> R,
) -> R {
    match model_of(cfg) {
        None => comm.compute(f),
        Some(m) => {
            let r = f();
            comm.charge_compute(cost(&m));
            r
        }
    }
}

/// Largest divisor of `p` that is ≤ `kmax` and ≥ 2; `p` itself when `p` is
/// prime and exceeds `kmax` (single-stage fallback).
fn choose_k(p: usize, kmax: usize) -> usize {
    debug_assert!(p >= 2);
    let mut best = 1usize;
    let mut d = 2usize;
    while d * d <= p {
        if p.is_multiple_of(d) {
            if d <= kmax {
                best = best.max(d);
            }
            let q = p / d;
            if q <= kmax {
                best = best.max(q);
            }
        }
        d += 1;
    }
    if p <= kmax {
        best = best.max(p);
    }
    if best >= 2 {
        best
    } else {
        p
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
    let n0 = data.len();
    charged(
        comm,
        cfg,
        |m| m.sort_cost(n0),
        || {
            data.sort_unstable_by_key(|r| r.key());
        },
    );
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
    let splitters = histogram_splitters(comm, &data, k, &cfg.hist, cfg.seed ^ depth);
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
    let recv_counts = comm.alltoall(&send_counts);
    let m: usize = recv_counts.iter().sum();
    let bytes = m * std::mem::size_of::<T>();
    let my_alloc = comm.try_alloc(bytes);
    let any_oom = comm.allreduce(my_alloc.is_err() as u8, |a, b| a.max(b)) > 0;
    if any_oom {
        if my_alloc.is_ok() {
            comm.free(bytes);
        }
        return Err(match my_alloc {
            Err(e) => SortError::Oom(e),
            Ok(()) => SortError::PeerOom,
        });
    }

    // Asynchronous exchange overlapped with progressive merging; merge time
    // is charged to the exchange phase (paper footnote 4: HykSort's
    // exchange contains its local ordering).
    let mut pending = comm.alltoallv_async_given_counts(&data, &send_counts, recv_counts);
    drop(data);
    // Binomial-counter progressive merging (see sdssort::sort for the
    // volume argument).
    let mut runs: Vec<(u32, Vec<T>)> = Vec::new();
    while let Some((_src, chunk)) = pending.wait_any(comm) {
        runs.push((0, chunk));
        while runs.len() >= 2 && runs[runs.len() - 1].0 == runs[runs.len() - 2].0 {
            let (lvl, hi) = runs.pop().expect("len>=2");
            let (_, lo) = runs.pop().expect("len>=2");
            let merged = charged(
                comm,
                cfg,
                |mo| mo.kway_merge_cost(hi.len() + lo.len(), 2),
                || merge_two(&lo, &hi),
            );
            runs.push((lvl + 1, merged));
        }
    }
    // Balanced cascade over whatever the stack still holds (free when the
    // counter already collapsed everything into one run).
    let acc = if runs.len() == 1 {
        runs.pop().expect("len==1").1
    } else {
        let refs: Vec<&[T]> = runs.iter().map(|(_, r)| r.as_slice()).collect();
        let left: usize = refs.iter().map(|r| r.len()).sum();
        let k_left = refs.len();
        charged(
            comm,
            cfg,
            |mo| mo.kway_merge_cost(left, k_left),
            || sdssort::merge::kway_merge(&refs),
        )
    };
    comm.free(bytes);
    stats.exchange_s += comm.now() - t1;

    if g == 1 {
        return Ok(acc);
    }
    let group = (me / g) as i64;
    let sub = comm
        .split(Some(group), (me % g) as i64)
        .expect("every rank is in a group");
    stage(&sub, acc, cfg, stats, depth + 1)
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
