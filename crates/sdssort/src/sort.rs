//! The SDS-Sort driver (paper Fig. 1).
//!
//! Orchestrates the full pipeline on a communicator:
//!
//! 1. initial local sort (`SdssLocalSort`);
//! 2. adaptive node-level merging when the average message is below `τm`
//!    (`SdssRefineComm` + `SdssNodeMerge`), after which the sort continues
//!    among node leaders only;
//! 3. regular sampling of local pivots and distributed global pivot
//!    selection (`SdssSelectPivots`);
//! 4. skew-aware partitioning (`SdssPartition`), fast or stable;
//! 5. collective memory check for the receive buffer (the step where an
//!    imbalanced sorter dies with OOM);
//! 6. all-to-all exchange — synchronous, or asynchronous overlapped with
//!    incremental merging when `p < τo` and the sort is unstable;
//! 7. adaptive final local ordering: k-way merge below `τs`, adaptive
//!    re-sort above.
//!
//! Every rank returns its slice of the globally sorted sequence (ascending
//! with rank) plus a [`SortStats`] phase breakdown.

use crate::config::{LocalKernel, SdsConfig};
use crate::exchange::{exchange, Delivery, Exchanged};
use crate::local_sort::{local_sort_with, LocalSortReport};
use crate::node_merge::{leaders_verdict, merge_onto_leaders, node_merge_applies};
use crate::partition::{
    cuts_to_counts, fast_cuts, local_dup_counts, replicated_runs, shares_for_source, stable_cuts,
};
use crate::pivots::{select_global_pivots, PivotMethod};
use crate::radix::{RADIX_MAX_AUTO_DIGITS, RADIX_MAX_AUTO_DUP_INV};
use crate::record::Sortable;
use crate::search::LocalPivotIndex;
use crate::stats::SortStats;
use comm::{Communicator, OomError};
use telemetry::SpanId;

/// Errors from a distributed sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortError {
    /// This rank's simulated memory budget was exceeded while allocating
    /// the receive buffer.
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
    sds_sort_with(comm, data, cfg, |comm, data, scounts, sp_ex, stats| {
        let p = comm.size();
        let delivery = if cfg.should_overlap(p) {
            stats.overlapped = true;
            if comm.recorder().enabled() && comm.rank() == 0 {
                comm.event(
                    "decision.overlap",
                    &format!("p {p} below tau_o {}", cfg.tau_o),
                );
            }
            Delivery::Overlapped
        } else if cfg.should_merge_local(p) {
            Delivery::Merge
        } else {
            Delivery::Resort {
                threads: cfg.local_threads,
                stable: cfg.stable,
                kernel: cfg.local_kernel,
            }
        };
        exchange(comm, data, scounts, delivery, cfg.charge, Some(sp_ex))
    })
}

/// Record which local-sort kernel ran (and its transient scratch) in the
/// telemetry counters, and on rank 0 what made `Auto` choose it.
pub(crate) fn count_local_sort<C: Communicator>(comm: &C, n: usize, report: LocalSortReport) {
    let (name, kernel) = match report.kernel {
        LocalKernel::Radix => ("local_sort.kernel.radix", "radix"),
        _ => ("local_sort.kernel.comparison", "comparison"),
    };
    comm.count(name, 1);
    if report.scratch_bytes > 0 {
        comm.count("local_sort.scratch_bytes", report.scratch_bytes as u64);
    }
    if comm.recorder().enabled() && comm.rank() == 0 {
        let why = match report.gate {
            Some(g) => format!(
                "sampled {}: {} digits (radix up to {RADIX_MAX_AUTO_DIGITS}), \
                 δ̂ {}/{} (radix below 1/{RADIX_MAX_AUTO_DUP_INV})",
                g.sampled, g.digits, g.longest_run, g.sampled
            ),
            None => "not sampled: kernel forced, or radix does not apply".to_string(),
        };
        comm.event(
            "decision.local-kernel",
            &format!("{kernel} for n {n}; {why}"),
        );
    }
}

/// Steps 1–4, then `steps_5_to_7` on the (possibly refined) communicator
/// with the sorted data, its per-destination send counts and the open
/// "exchange" span, which it must close. It may note what it did in the
/// stats; the exchange accounting is written here.
pub(crate) fn sds_sort_with<T, C, X>(
    comm: &C,
    mut data: Vec<T>,
    cfg: &SdsConfig,
    steps_5_to_7: X,
) -> Result<SortOutput<T>, SortError>
where
    T: Sortable,
    C: Communicator,
    X: FnOnce(&C, Vec<T>, &[usize], SpanId, &mut SortStats) -> Result<Exchanged<T>, SortError>,
{
    let p = comm.size();
    let mut stats = SortStats {
        input_count: data.len(),
        ..SortStats::default()
    };
    let t0 = comm.now();

    // Step 1: initial local sort (pivot-selection phase per the paper's
    // "initial ordering" footnote).
    comm.trace_phase("pivot");
    let sp_pivot = comm.span_begin("pivot-select");
    let n0 = data.len();
    let lsr = cfg.charge.charged(
        comm,
        |m| m.sort_cost_with(n0, cfg.stable),
        || local_sort_with(&mut data, cfg.local_threads, cfg.stable, cfg.local_kernel),
    );
    count_local_sort(comm, n0, lsr);

    // Step 2: adaptive node-level merging; the sort then continues among
    // the node leaders only.
    let leaders;
    let mut node = None;
    let mut comm = comm;
    let mut alone = p == 1;
    if !alone {
        if let Some(n_avg) = node_merge_applies::<T, C>(comm, data.len(), cfg.tau_m_bytes) {
            stats.node_merged = true;
            if comm.recorder().enabled() && comm.rank() == 0 {
                comm.event(
                    "decision.node-merge",
                    &format!("avg {n_avg} records/rank over {p} ranks"),
                );
            }
            let sp_nm = comm.span_begin("node-merge");
            let (cl, led) = merge_onto_leaders(comm, data, cfg.charge);
            comm.span_end(sp_nm);
            node = Some(cl);
            match led {
                Some((cg, merged)) => {
                    leaders = cg;
                    comm = &leaders;
                    data = merged;
                    alone = comm.size() == 1;
                }
                // Non-leader: its data now lives on the node leader.
                None => {
                    data = Vec::new();
                    alone = true;
                }
            }
        }
    }
    // What becomes of the sort among the leaders holds for their nodes:
    // every exit from here on passes through this.
    let verdict = |sorted| match &node {
        Some(cl) => leaders_verdict(cl, sorted),
        None => sorted,
    };
    if alone {
        stats.pivot_s = comm.now() - t0;
        stats.recv_count = data.len();
        comm.span_end(sp_pivot);
        return verdict(Ok(SortOutput { data, stats }));
    }
    let p = comm.size();

    // Step 3: sampling + global pivot selection.
    let index = LocalPivotIndex::build(&data, cfg.oversample.max(1) * (p - 1));
    let mut pivots = match cfg.pivot_source {
        crate::config::PivotSource::Sampling => {
            let local_pivots = index.keys().to_vec();
            select_global_pivots(comm, &local_pivots, PivotMethod::default())
        }
        crate::config::PivotSource::Histogram => {
            crate::histogram::histogram_splitters(comm, &data, p, 0x5D55_0000 ^ p as u64)
        }
    };
    // Degenerate tiny inputs can yield fewer than p-1 pivots; pad by
    // repeating the last pivot — the replicated-run machinery then spreads
    // the padded range evenly.
    if pivots.len() < p - 1 {
        if let Some(&last) = pivots.last() {
            pivots.resize(p - 1, last);
        }
    }

    // Step 4: skew-aware partition.
    let n = data.len();
    let cuts = if pivots.is_empty() {
        // No data anywhere beyond possibly ours: everything to rank 0.
        let mut cuts = vec![n; p + 1];
        cuts[0] = 0;
        cuts
    } else if cfg.stable {
        let runs = replicated_runs(&pivots);
        let my_counts = local_dup_counts(&data, &runs);
        let all_counts = comm.allgather(&my_counts);
        let by_source: Vec<Vec<usize>> = all_counts
            .chunks(runs.len().max(1))
            .map(<[usize]>::to_vec)
            .collect();
        let shares = if runs.is_empty() {
            Vec::new()
        } else {
            shares_for_source(&by_source, comm.rank())
        };
        cfg.charge.charged(
            comm,
            |m| m.scan_cost(p * 32),
            || stable_cuts(&data, &pivots, Some(&index), &shares),
        )
    } else {
        match cfg.partition {
            crate::config::PartitionStrategy::SkewAware => cfg.charge.charged(
                comm,
                |m| m.scan_cost(p * 32),
                || fast_cuts(&data, &pivots, Some(&index)),
            ),
            // Ablation: duplicate-blind upper_bound partitioning.
            crate::config::PartitionStrategy::Classic => cfg.charge.charged(
                comm,
                |m| m.scan_cost(p * 32),
                || crate::partition::classic_cuts(&data, &pivots),
            ),
        }
    };
    let scounts = cuts_to_counts(&cuts);
    debug_assert_eq!(scounts.len(), p);
    stats.pivot_s = comm.now() - t0;
    comm.span_end(sp_pivot);

    // Steps 5–7: collective memory check, exchange, final local ordering.
    comm.trace_phase("exchange");
    let sp_ex = comm.span_begin("exchange");
    // Stats are discarded on the error path: the paper treats it as a
    // whole-job crash.
    let ex = steps_5_to_7(comm, data, &scounts, sp_ex, &mut stats);
    verdict(ex.map(|ex| ex.into_output(stats)))
}
