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
use sdssort::driver::{self, Prelude, Step};
use sdssort::exchange::{exchange, Delivery};
use sdssort::partition::{classic_cuts, cuts_at, cuts_to_counts};
use sdssort::pivots::{select_global_pivots, PivotMethod};
use sdssort::record::Sortable;
use sdssort::sampling::regular_sample;
use sdssort::sort::{SortError, SortOutput};

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
    data: Vec<T>,
    cfg: &SampleSortConfig,
) -> Result<SortOutput<T>, SortError> {
    let prelude = Prelude::unstable(cfg.charge);
    driver::sort(comm, data, &prelude, |comm, data, clock| {
        let p = comm.size();
        // Regular sampling + gather-based pivot selection (the classical
        // formulation gathers all p(p-1) samples on one rank).
        clock.enter(Step::Splitters);
        let samples = regular_sample(&data, p - 1);
        let pivots = select_global_pivots(comm, &samples, PivotMethod::Gather);
        clock.enter(Step::Partition);
        let cuts = cuts_at(&data, pivots, p, |pivots| classic_cuts(&data, pivots));
        // Collective memory check, exchange, final k-way merge.
        let scounts = cuts_to_counts(&cuts);
        exchange(comm, data, &scounts, Delivery::Merge, cfg.charge, clock)
    })
}
