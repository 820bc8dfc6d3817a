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
//! pivots. A stage here is its splitter rule plus one
//! [`sdssort::driver::group_step`].
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
use sdssort::driver::{self, group_step, Clock, Level, Prelude, Step};
use sdssort::exchange::Delivery;
use sdssort::histogram::choose_k;
use sdssort::partition::{classic_cuts, cuts_at, cuts_to_counts};
use sdssort::record::Sortable;
use sdssort::sort::{SortError, SortOutput};

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
    data: Vec<T>,
    cfg: &HykSortConfig,
) -> Result<SortOutput<T>, SortError> {
    let prelude = Prelude::unstable(cfg.charge);
    let mut out = driver::sort(comm, data, &prelude, |comm, data, clock| {
        stage(comm, data, cfg, clock, 0)
    })?;
    // Paper footnote 4: HykSort's exchange contains its local ordering.
    out.stats.exchange_s += std::mem::take(&mut out.stats.local_order_s);
    Ok(out)
}

fn stage<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    cfg: &HykSortConfig,
    clock: &mut Clock<'_, C>,
    depth: u64,
) -> Result<Vec<T>, SortError> {
    // `k` groups of `p / k` ranks after this stage.
    let k = choose_k(comm.size(), cfg.k.max(2));

    // Splitter selection (histogram refinement).
    clock.enter(Step::Splitters);
    let splitters = histogram_splitters(comm, &data, k, cfg.seed ^ depth);

    // Classic bucketing: all duplicates of a splitter go to one bucket.
    clock.enter(Step::Partition);
    let cuts = cuts_at(&data, splitters, k, |splitters| {
        classic_cuts(&data, splitters)
    });
    let level = Level {
        to_group: &cuts_to_counts(&cuts),
        // Asynchronous exchange overlapped with progressive merging.
        delivery: Delivery::Overlapped,
        charge: cfg.charge,
        top: depth == 0,
    };
    group_step(comm, data, &level, clock, |sub, data, clock| {
        stage(sub, data, cfg, clock, depth + 1)
    })
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
