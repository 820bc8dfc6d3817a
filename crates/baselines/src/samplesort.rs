//! Classical parallel sort by regular sampling (PSRS; Li et al. 1993).
//!
//! The textbook three-phase algorithm the SDS-Sort paper builds on: local
//! sort, regular sampling with gather-based pivot selection, classic
//! `upper_bound` partitioning, one all-to-all, k-way merge. Its workload
//! bound is `O(2N/p)` *without* duplicate keys and degrades linearly with
//! skew — it shares HykSort's duplicate-pivot failure mode and serves as
//! the second baseline.

use comm::Communicator;
use sdssort::config::ComputeCharge;
use sdssort::exchange::{exchange, Delivery};
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
    cfg.charge.charged(
        comm,
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

    // Collective memory check, exchange, final k-way merge.
    let ex = exchange(comm, data, &scounts, Delivery::Merge, cfg.charge, None)?;
    Ok(ex.into_output(stats))
}
