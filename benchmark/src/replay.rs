//! The traced run: a staged replay of `sds_sort`.
//!
//! The benchmark measures each layer from outside. This function performs
//! the sort's pipeline itself, through the crates' public functions and in
//! the driver's order (`sdssort::sort`), and opens a span around each call.
//! It covers the path every workload takes — more than one rank, one core
//! per node (no node merging), sampled pivots, skew-aware cuts, k-way merge
//! for the final ordering — and asserts those conditions. Its output is
//! compared with `sds_sort`'s, so a driver change it does not follow fails
//! the run instead of skewing the rows.

use crate::spans::SpanLog;
use comm::{AsyncExchange, Communicator};
use sdssort::merge::{kway_merge, kway_merge_offsets, merge_two};
use sdssort::partition::{
    cuts_to_counts, fast_cuts, local_dup_counts, replicated_runs, shares_for_source, stable_cuts,
};
use sdssort::pivots::{select_global_pivots, PivotMethod};
use sdssort::search::LocalPivotIndex;
use sdssort::{
    local_sort_with, ComputeCharge, ComputeModel, LocalKernel, PartitionStrategy, PivotSource,
    SdsConfig, Sortable,
};

/// Counts the replay reads off the pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// The initial local sort ran the radix kernel.
    pub radix_used: bool,
    /// Bytes this rank sent to other ranks in the exchange, from its send
    /// counts.
    pub bytes_sent: u64,
}

/// `sdssort::sort::charged`: measured compute runs inside `comm.compute`,
/// modelled compute is charged from the model, so the simulator's virtual
/// clock advances exactly as under `sds_sort`.
fn charged<R, C: Communicator>(
    comm: &C,
    cfg: &SdsConfig,
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

/// Run `f` inside a span named `name`, clocked with `comm.now()` (wall
/// time on threads and sockets, virtual time on the simulator).
fn spanned<R, C: Communicator>(
    comm: &C,
    log: &mut SpanLog,
    name: &str,
    f: impl FnOnce(&mut SpanLog) -> R,
) -> R {
    let id = log.open(name, comm.now());
    let r = f(log);
    log.close(id, comm.now());
    r
}

/// Sort `data` across `comm` as `sds_sort` does, one span per layer call.
pub fn staged_sort<T: Sortable, C: Communicator>(
    comm: &C,
    mut data: Vec<T>,
    cfg: &SdsConfig,
    log: &mut SpanLog,
) -> (Vec<T>, ReplayCounts) {
    let p = comm.size();
    assert!(
        comm.cores_per_node() == 1
            && cfg.pivot_source == PivotSource::Sampling
            && cfg.partition == PartitionStrategy::SkewAware
            && cfg.should_merge_local(p),
        "the staged replay covers the default path on one core per node"
    );
    let mut counts = ReplayCounts::default();

    let n0 = data.len();
    let report = spanned(comm, log, "sdssort.local_sort", |_| {
        charged(
            comm,
            cfg,
            |m| m.sort_cost_with(n0, cfg.stable),
            || local_sort_with(&mut data, cfg.local_threads, cfg.stable, cfg.local_kernel),
        )
    });
    counts.radix_used = report.kernel == LocalKernel::Radix;
    if p == 1 {
        return (data, counts);
    }

    // The driver's node-merge decision costs one allreduce even when it
    // declines.
    spanned(comm, log, "comm.size_allreduce", |_| {
        comm.allreduce(data.len() as u64, |a, b| a + b)
    });

    let (index, local_pivots) = spanned(comm, log, "sdssort.sampling", |_| {
        let index = LocalPivotIndex::build(&data, cfg.oversample.max(1) * (p - 1));
        let local_pivots = index.keys().to_vec();
        (index, local_pivots)
    });

    let pivots = spanned(comm, log, "sdssort.pivots", |_| {
        let mut pivots = select_global_pivots(comm, &local_pivots, PivotMethod::default());
        if let Some(&last) = pivots.last() {
            if pivots.len() < p - 1 {
                pivots.resize(p - 1, last);
            }
        }
        pivots
    });

    let n = data.len();
    let scounts = spanned(comm, log, "sdssort.partition", |log| {
        let cuts = if pivots.is_empty() {
            let mut cuts = vec![n; p + 1];
            cuts[0] = 0;
            cuts
        } else if cfg.stable {
            let runs = replicated_runs(&pivots);
            let my_counts = local_dup_counts(&data, &runs);
            let all_counts = spanned(comm, log, "comm.dup_counts_allgather", |_| {
                comm.allgather(&my_counts)
            });
            let by_source: Vec<Vec<usize>> = all_counts
                .chunks(runs.len().max(1))
                .map(<[usize]>::to_vec)
                .collect();
            let shares = if runs.is_empty() {
                Vec::new()
            } else {
                shares_for_source(&by_source, comm.rank())
            };
            charged(
                comm,
                cfg,
                |m| m.scan_cost(p * 32),
                || stable_cuts(&data, &pivots, Some(&index), &shares),
            )
        } else {
            charged(
                comm,
                cfg,
                |m| m.scan_cost(p * 32),
                || fast_cuts(&data, &pivots, Some(&index)),
            )
        };
        cuts_to_counts(&cuts)
    });
    let to_others = n - scounts[comm.rank()];
    counts.bytes_sent = (to_others * std::mem::size_of::<T>()) as u64;

    let rcounts = spanned(comm, log, "comm.alltoall_counts", |_| {
        comm.alltoall(&scounts)
    });
    let m: usize = rcounts.iter().sum();
    let bytes = m * std::mem::size_of::<T>();
    spanned(comm, log, "sdssort.mem_check", |_| {
        let mine = comm.try_alloc(bytes);
        let any_oom = comm.allreduce(u8::from(mine.is_err()), |a, b| a.max(b)) > 0;
        assert!(!any_oom, "benchmark worlds run without a memory budget");
    });

    let out = if cfg.should_overlap(p) {
        // Asynchronous exchange overlapped with binomial-counter merging;
        // the merges nest inside the exchange span, whose self time is
        // therefore the exchange alone.
        spanned(comm, log, "comm.exchange", |log| {
            let mut pending = comm.alltoallv_async_given_counts(&data, &scounts, rcounts.clone());
            drop(data);
            let mut runs: Vec<(u32, Vec<T>)> = Vec::new();
            while let Some((_src, chunk)) = pending.wait_any(comm) {
                runs.push((0, chunk));
                while runs.len() >= 2 && runs[runs.len() - 1].0 == runs[runs.len() - 2].0 {
                    let (lvl, hi) = runs.pop().expect("len>=2");
                    let (_, lo) = runs.pop().expect("len>=2");
                    let merged = spanned(comm, log, "sdssort.merge", |_| {
                        charged(
                            comm,
                            cfg,
                            |mo| mo.kway_merge_cost(hi.len() + lo.len(), 2),
                            || merge_two(&lo, &hi),
                        )
                    });
                    runs.push((lvl + 1, merged));
                }
            }
            if runs.len() == 1 {
                runs.pop().expect("len==1").1
            } else {
                let refs: Vec<&[T]> = runs.iter().map(|(_, r)| r.as_slice()).collect();
                let left: usize = refs.iter().map(|r| r.len()).sum();
                spanned(comm, log, "sdssort.merge", |_| {
                    charged(
                        comm,
                        cfg,
                        |mo| mo.kway_merge_cost(left, refs.len()),
                        || kway_merge(&refs),
                    )
                })
            }
        })
    } else {
        let buf = spanned(comm, log, "comm.exchange", |_| {
            let buf = comm.alltoallv_given_counts(&data, &scounts, &rcounts);
            drop(data);
            buf
        });
        let mut disp = Vec::with_capacity(p + 1);
        disp.push(0usize);
        for &rc in &rcounts {
            disp.push(disp.last().copied().expect("non-empty") + rc);
        }
        spanned(comm, log, "sdssort.merge", |_| {
            charged(
                comm,
                cfg,
                |mo| mo.kway_merge_cost(m, p),
                || kway_merge_offsets(&buf, &disp),
            )
        })
    };
    comm.free(bytes);
    (out, counts)
}

/// Span names whose self time becomes a per-layer metric, with the
/// metric's name.
pub const LAYER_ROWS: [(&str, &str); 8] = [
    ("sdssort.local_sort", "sdssort.local_sort.ms"),
    ("sdssort.sampling", "sdssort.sampling.ms"),
    ("sdssort.pivots", "sdssort.pivots.ms"),
    ("sdssort.partition", "sdssort.partition.ms"),
    ("comm.alltoall_counts", "comm.alltoall_counts.ms"),
    ("comm.exchange", "comm.exchange.ms"),
    ("sdssort.merge", "sdssort.merge.ms"),
    ("staged.tail_wait", "staged.tail_wait.ms"),
];
