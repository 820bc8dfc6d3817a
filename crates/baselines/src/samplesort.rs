//! Classical parallel sort by regular sampling (PSRS; Li et al. 1993).
//!
//! The textbook three-phase algorithm the SDS-Sort paper builds on: local
//! sort, regular sampling with gather-based pivot selection, classic
//! `upper_bound` partitioning, one all-to-all, k-way merge. Its workload
//! bound is `O(2N/p)` *without* duplicate keys and degrades linearly with
//! skew — it shares HykSort's duplicate-pivot failure mode and serves as
//! the second baseline.

use comm::Communicator;
use sdssort::config::{ComputeCharge, ComputeModel};
use sdssort::merge::kway_merge_offsets;
use sdssort::partition::{classic_cuts, cuts_to_counts};
use sdssort::pivots::{select_global_pivots, PivotMethod};
use sdssort::record::Sortable;
use sdssort::sampling::regular_sample;
use sdssort::sort::{SortError, SortOutput};
use sdssort::stats::SortStats;

/// Configuration for classical sample sort.
#[derive(Debug, Clone, Copy)]
pub struct SampleSortConfig {
    /// Compute charging.
    pub charge: ComputeCharge,
}

impl Default for SampleSortConfig {
    fn default() -> Self {
        Self {
            charge: ComputeCharge::Measured,
        }
    }
}

fn charged<R, C: Communicator>(
    comm: &C,
    cfg: &SampleSortConfig,
    cost: impl FnOnce(&ComputeModel) -> f64,
    f: impl FnOnce() -> R,
) -> R {
    match cfg.charge {
        ComputeCharge::Measured => comm.compute(f),
        ComputeCharge::Modeled(m) => {
            let r = f();
            comm.charge_compute(cost(&m));
            r
        }
    }
}

/// Classical PSRS sort of `data` across `comm`. Unstable.
pub fn sample_sort<T: Sortable, C: Communicator>(
    comm: &C,
    mut data: Vec<T>,
    cfg: &SampleSortConfig,
) -> Result<SortOutput<T>, SortError> {
    let p = comm.size();
    let mut stats = SortStats {
        input_count: data.len(),
        ..SortStats::default()
    };
    let t0 = comm.now();

    let n0 = data.len();
    charged(
        comm,
        cfg,
        |m| m.sort_cost(n0),
        || data.sort_unstable_by_key(|r| r.key()),
    );
    if p == 1 {
        stats.pivot_s = comm.now() - t0;
        stats.recv_count = data.len();
        return Ok(SortOutput { data, stats });
    }

    // Regular sampling + gather-based pivot selection (the classical
    // formulation gathers all p(p-1) samples on one rank).
    let samples = regular_sample(&data, p - 1);
    let mut pivots = select_global_pivots(comm, &samples, PivotMethod::Gather);
    if pivots.len() < p - 1 {
        if let Some(&last) = pivots.last() {
            pivots.resize(p - 1, last);
        }
    }
    let cuts = if pivots.is_empty() {
        let mut c = vec![data.len(); p + 1];
        c[0] = 0;
        c
    } else {
        classic_cuts(&data, &pivots)
    };
    let scounts = cuts_to_counts(&cuts);
    stats.pivot_s = comm.now() - t0;

    // Exchange with collective memory check.
    let t1 = comm.now();
    let rcounts = comm.alltoall(&scounts);
    let m: usize = rcounts.iter().sum();
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
    let buf = comm.alltoallv_given_counts(&data, &scounts, &rcounts);
    drop(data);
    stats.exchange_s = comm.now() - t1;

    // Final k-way merge.
    let t2 = comm.now();
    let mut disp = Vec::with_capacity(p + 1);
    disp.push(0usize);
    for &rc in &rcounts {
        disp.push(disp.last().copied().expect("non-empty") + rc);
    }
    let out = charged(
        comm,
        cfg,
        |mo| mo.kway_merge_cost(m, p),
        || kway_merge_offsets(&buf, &disp),
    );
    stats.local_order_s = comm.now() - t2;
    comm.free(bytes);
    stats.recv_count = out.len();
    Ok(SortOutput { data: out, stats })
}
