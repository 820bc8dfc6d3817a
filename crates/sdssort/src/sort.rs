//! SDS-Sort (paper Fig. 1) as a rule of [`crate::driver`].
//!
//! The driver owns what every sample sort does — the initial local sort,
//! the adaptive node-level merge below `τm`, the phase clock. SDS-Sort's
//! own steps are here:
//!
//! 3. regular sampling of local pivots and distributed global pivot
//!    selection (`SdssSelectPivots`);
//! 4. skew-aware partitioning (`SdssPartition`), fast or stable;
//!
//! and the two adaptive choices of how [`crate::exchange`] finishes the
//! sort (steps 5–7): asynchronous and overlapped with incremental merging
//! when `p < τo` and the sort is unstable, and otherwise a k-way merge below
//! `τs`, an adaptive re-sort above. [`sds_sort_resilient`] makes neither
//! choice: it delivers through [`Delivery::Spill`], so a rank short of
//! memory spills to disk instead of failing the sort.
//!
//! Every rank returns its slice of the globally sorted sequence (ascending
//! with rank) plus a [`SortStats`] phase breakdown.

use crate::config::{PartitionStrategy, PivotSource, SdsConfig};
use crate::driver::{self, Clock, Prelude, Step};
use crate::exchange::{exchange, Delivery};
use crate::partition::{
    classic_cuts, cuts_at, cuts_to_counts, fast_cuts, local_dup_counts, replicated_runs,
    shares_for_source, stable_cuts,
};
use crate::pivots::{select_global_pivots, PivotMethod};
use crate::record::Sortable;
use crate::search::LocalPivotIndex;
use crate::stats::SortStats;
use comm::{Communicator, OomError, Wire};
use std::path::Path;

/// Errors from a distributed sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortError {
    /// This rank's memory budget was exceeded while reserving the receive
    /// buffer.
    Oom(OomError),
    /// Another rank hit its memory budget; the collective sort was
    /// abandoned everywhere (the paper's whole-job crash).
    PeerOom,
    /// A disk error on the resilient spill path.
    Io(String),
}

impl std::fmt::Display for SortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortError::Oom(e) => write!(f, "{e}"),
            SortError::PeerOom => write!(f, "sort aborted: a peer rank ran out of memory"),
            SortError::Io(e) => write!(f, "sort spill i/o failed: {e}"),
        }
    }
}

impl std::error::Error for SortError {}

/// How a rank's failure crosses a process boundary (the sockets backend).
impl Wire for SortError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            SortError::Oom(e) => (0u8, e.rank, e.requested, e.available, e.budget).put(out),
            SortError::PeerOom => out.push(1),
            SortError::Io(msg) => {
                out.push(2);
                msg.put(out);
            }
        }
    }

    fn get(src: &mut &[u8]) -> Option<Self> {
        Some(match u8::get(src)? {
            0 => {
                let (rank, requested, available, budget) = Wire::get(src)?;
                SortError::Oom(OomError {
                    rank,
                    requested,
                    available,
                    budget,
                })
            }
            1 => SortError::PeerOom,
            2 => SortError::Io(String::get(src)?),
            _ => return None,
        })
    }
}

/// Result of one rank's participation in a distributed sort.
#[derive(Debug, Clone)]
pub struct SortOutput<T> {
    /// This rank's slice of the global sorted order (may be empty, e.g. on
    /// non-leader ranks after node merging).
    pub data: Vec<T>,
    /// Phase breakdown and load metrics.
    pub stats: SortStats,
}

/// Sort `data` (one rank's share) across all ranks of `comm` by key.
///
/// On success every rank holds a sorted slice, slices ascend with rank,
/// and the multiset union equals the input union. With `cfg.stable`, equal
/// keys appear in their global input order (rank, then local position).
///
/// Steps 5–7 are [`crate::exchange`]'s, the paper's behaviour: the whole
/// receive buffer is allocated up front, and if any rank cannot, the sort
/// fails everywhere.
pub fn sds_sort<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    cfg: &SdsConfig,
) -> Result<SortOutput<T>, SortError> {
    sds_sort_with(comm, data, cfg, None)
}

/// [`sds_sort`] with graceful degradation: a rank whose receive buffer
/// would not fit its memory budget, or would push it over
/// [`SPILL_PRESSURE`](crate::exchange::SPILL_PRESSURE), spills the incoming
/// chunks as run files under `spill_dir` and merges them back from disk
/// ([`Delivery::Spill`]) instead of failing the whole job. Only a rank that
/// cannot hold even its largest incoming chunk still fails it.
///
/// Takes every record type `sds_sort` takes (a spilled run is the records'
/// `Wire` encoding). Every rank merges its chunks in source-rank order, so
/// below `τs` and without overlap the output equals `sds_sort`'s record for
/// record; ranks that degraded report it in [`SortStats::spilled`] /
/// `spill_records`.
pub fn sds_sort_resilient<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    cfg: &SdsConfig,
    spill_dir: &Path,
) -> Result<SortOutput<T>, SortError> {
    sds_sort_with(comm, data, cfg, Some(spill_dir))
}

/// SDS-Sort, delivering through [`Delivery::Spill`] under `spill_dir` when
/// one is given and otherwise as `cfg` and the (possibly refined)
/// communicator's size choose.
fn sds_sort_with<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    cfg: &SdsConfig,
    spill_dir: Option<&Path>,
) -> Result<SortOutput<T>, SortError> {
    let prelude = Prelude {
        stable: cfg.stable,
        threads: cfg.local_threads,
        kernel: cfg.local_kernel,
        tau_m_bytes: Some(cfg.tau_m_bytes),
        charge: cfg.charge,
    };
    driver::sort(comm, data, &prelude, |comm, data, clock| {
        let p = comm.size();

        // Step 3: sampling + global pivot selection.
        clock.enter(Step::Sample);
        let index = LocalPivotIndex::build(&data, cfg.oversample.max(1) * (p - 1));
        clock.enter(Step::Splitters);
        let pivots = match cfg.pivot_source {
            PivotSource::Sampling => {
                let local_pivots = index.keys().to_vec();
                select_global_pivots(comm, &local_pivots, PivotMethod::default())
            }
            PivotSource::Histogram => {
                crate::histogram::histogram_splitters(comm, &data, p, 0x5D55_0000 ^ p as u64)
            }
        };

        // Step 4: skew-aware partition.
        clock.enter(Step::Partition);
        let cuts = cuts_at(&data, pivots, p, |pivots| {
            // Stable: where this source's duplicates of each replicated pivot
            // fall in the global stream of them.
            let shares = cfg.stable.then(|| {
                let runs = replicated_runs(pivots);
                let my_counts = local_dup_counts(&data, &runs);
                let all_counts = comm.allgather(&my_counts);
                let by_source: Vec<Vec<usize>> = all_counts
                    .chunks(runs.len().max(1))
                    .map(<[usize]>::to_vec)
                    .collect();
                if runs.is_empty() {
                    Vec::new()
                } else {
                    shares_for_source(&by_source, comm.rank())
                }
            });
            cfg.charge.charged(
                comm,
                |m| m.scan_cost(p * 32),
                || match (&shares, cfg.partition) {
                    (Some(shares), _) => stable_cuts(&data, pivots, Some(&index), shares),
                    (None, PartitionStrategy::SkewAware) => fast_cuts(&data, pivots, Some(&index)),
                    // Ablation: duplicate-blind upper_bound partitioning.
                    (None, PartitionStrategy::Classic) => classic_cuts(&data, pivots),
                },
            )
        });
        let scounts = cuts_to_counts(&cuts);
        debug_assert_eq!(scounts.len(), p);

        // Steps 5–7: collective memory check, exchange, final local ordering.
        let delivery = match spill_dir {
            Some(dir) => Delivery::Spill(dir),
            None => delivery(comm, cfg, clock),
        };
        exchange(comm, data, &scounts, delivery, cfg.charge, clock)
    })
}

/// SDS-Sort's two adaptive choices for steps 6–7: overlapped below `τo`
/// when unstable, else a k-way merge below `τs` and a re-sort above.
fn delivery<C: Communicator>(
    comm: &C,
    cfg: &SdsConfig,
    clock: &mut Clock<'_, C>,
) -> Delivery<'static> {
    let p = comm.size();
    let overlap = cfg.should_overlap(p);
    clock.stats.overlapped = overlap;
    let (delivery, order) = match (overlap, cfg.should_merge_local(p)) {
        (true, _) => (Delivery::Overlapped, "merged as the chunks arrive"),
        (false, true) => (Delivery::Merge, "k-way merge"),
        (false, false) => {
            let resort = Delivery::Resort {
                threads: cfg.local_threads,
                stable: cfg.stable,
                kernel: cfg.local_kernel,
            };
            (resort, "re-sort")
        }
    };
    if comm.recorder().enabled() && comm.rank() == 0 {
        let (tau_o, tau_s, stable) = (cfg.tau_o, cfg.tau_s, cfg.stable);
        let how = if overlap { "overlapped" } else { "synchronous" };
        comm.event(
            "decision.overlap",
            &format!("p {p} vs τo {tau_o}, stable {stable}: {how}"),
        );
        comm.event(
            "decision.local-order",
            &format!("p {p} vs τs {tau_s}: {order}"),
        );
    }
    delivery
}
