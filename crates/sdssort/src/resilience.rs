//! Graceful degradation under memory pressure: the resilient exchange.
//!
//! The paper treats a receive buffer that exceeds the memory budget as a
//! whole-job crash (step 5 of Fig. 1) — that is what [`crate::sds_sort`]
//! faithfully reproduces and what the skew experiments of Fig. 8 measure.
//! This module adds the pragmatic alternative an operator would actually
//! want: when a rank's projected memory high-water crosses a configurable
//! pressure threshold mid-exchange, the rank *spills* received chunks
//! through [`crate::external`]'s run/merge machinery instead of aborting,
//! and the job completes (slower, but correctly and stably).
//!
//! The key interoperability property: the synchronous and asynchronous
//! exchanges consume exactly one collective tag with an identical staggered
//! wire format, so in resilient mode **all** ranks run the asynchronous
//! exchange and each rank independently decides in-memory vs. spill —
//! mixed decisions across ranks need no extra coordination. One allreduce
//! classifies ranks as `0` (in memory), `1` (spilling) or `2` (cannot even
//! stage a single chunk); only a `2` anywhere aborts the collective sort,
//! preserving the paper's crash semantics for truly hopeless budgets.
//!
//! Simulated-memory accounting on the spill path reserves only the staging
//! buffer (the largest incoming chunk): received chunks are written to disk
//! and dropped one at a time, and the final merge is modelled as streaming
//! to the consumer. Disk traffic is charged to the virtual clock through a
//! simple seek + bandwidth model.

use crate::config::SdsConfig;
use crate::driver::{Clock, Step};
use crate::exchange::Reservation;
use crate::external::{remove_run, write_run, RunFile, RunMerger};
use crate::merge::kway_merge;
use crate::record::Sortable;
use crate::sort::{sds_sort_with, SortError, SortOutput};
use comm::{AsyncExchange, Communicator, Run};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Knobs for the resilient exchange.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Fraction of the effective memory budget above which a rank degrades
    /// to spilling even if the full receive buffer would still fit.
    pub pressure_threshold: f64,
    /// Directory for spilled run files (a `rank{NNNN}` subdirectory is
    /// created per rank).
    pub spill_dir: PathBuf,
}

impl ResilienceConfig {
    /// Default: degrade at 80% pressure.
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            pressure_threshold: 0.8,
            spill_dir: spill_dir.into(),
        }
    }
}

/// Maximum records per spilled run file; a larger incoming chunk is split
/// into consecutive runs of at most this size.
const RUN_RECORDS: usize = 1 << 16;

/// Modelled disk streaming bandwidth in bytes/second (500 MB/s).
const DISK_BW: f64 = 5e8;
/// Modelled per-file seek/open latency in seconds (100 µs).
const DISK_SEEK_S: f64 = 1e-4;

/// [`crate::sds_sort`] with graceful degradation: ranks whose receive
/// buffer would breach the memory-pressure threshold spill incoming chunks
/// to disk and stream-merge them instead of failing the whole job.
///
/// Takes every record type `sds_sort` takes (a spilled run is the records'
/// `Wire` encoding), with identical output and stability guarantees; ranks
/// that degraded report it in [`SortStats::spilled`] / `spill_records`.
pub fn sds_sort_resilient<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    cfg: &SdsConfig,
    rcfg: &ResilienceConfig,
) -> Result<SortOutput<T>, SortError> {
    sds_sort_with(comm, data, cfg, |comm, data, scounts, clock| {
        spill_exchange(comm, data, scounts, cfg, rcfg, clock)
    })
}

/// Per-rank exchange strategy, ordered by severity for the allreduce.
const IN_MEMORY: u8 = 0;
const SPILL: u8 = 1;
const HARD_OOM: u8 = 2;

/// Steps 5–7 with degradation to disk spilling under memory pressure. Its
/// memory check is three-way and per rank, unlike the all-or-nothing check
/// of [`crate::exchange::exchange`].
fn spill_exchange<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    scounts: &[usize],
    cfg: &SdsConfig,
    rcfg: &ResilienceConfig,
    clock: &mut Clock<'_, C>,
) -> Result<Vec<T>, SortError> {
    let p = comm.size();
    let rec = std::mem::size_of::<T>();
    clock.enter(Step::Exchange);
    let rcounts = comm.alltoall(scounts);
    let m: usize = rcounts.iter().sum();
    let bytes = m * rec;
    // Spilling stages one chunk at a time; the largest incoming chunk
    // bounds the resident set.
    let chunk_bytes = rcounts.iter().copied().max().unwrap_or(0) * rec;

    let pressure = comm.memory_pressure_with(bytes);
    let whole_buffer = if pressure <= rcfg.pressure_threshold {
        Reservation::new(comm, bytes).ok()
    } else {
        None
    };
    let (code, reservation) = match whole_buffer {
        Some(r) => (IN_MEMORY, Ok(r)),
        None => match Reservation::new(comm, chunk_bytes) {
            Ok(r) => (SPILL, Ok(r)),
            Err(e) => (HARD_OOM, Err(e)),
        },
    };
    let worst = comm.allreduce(code, |a, b| a.max(b));
    let _reservation = match reservation {
        Err(e) => return Err(SortError::Oom(e)),
        Ok(_) if worst == HARD_OOM => return Err(SortError::PeerOom),
        Ok(r) => r,
    };

    // All ranks take the asynchronous exchange (one collective tag,
    // wire-compatible with the synchronous path), so per-rank
    // in-memory/spill decisions interoperate freely.
    let mut pending = comm.alltoallv_async_runs(Arc::new(data), scounts, rcounts);

    if code == IN_MEMORY {
        let mut chunks: Vec<Run<T>> = (0..p).map(|_| Run::default()).collect();
        while let Some((src, chunk)) = pending.wait_any_run(comm) {
            chunks[src] = chunk;
        }
        clock.enter(Step::LocalOrder);
        // Source-rank order with a stable k-way merge (ties to the
        // lowest run index) preserves global stability.
        let refs: Vec<&[T]> = chunks.iter().map(|c| &c[..]).collect();
        let out = cfg
            .charge
            .charged(comm, |mo| mo.kway_merge_cost(m, p), || kway_merge(&refs));
        debug_assert_eq!(out.len(), m);
        return Ok(out);
    }

    clock.stats.spilled = true;
    clock.stats.spill_records = m;
    if comm.recorder().enabled() {
        comm.event(
            "degrade.spill",
            &format!(
                "pressure {pressure:.2} over threshold {}; spilling {m} records",
                rcfg.pressure_threshold
            ),
        );
    }
    let dir = rcfg.spill_dir.join(format!("rank{:04}", comm.world_rank()));
    let io_err = |e: io::Error| SortError::Io(e.to_string());

    // Each incoming chunk is already sorted (a contiguous slice of the
    // sender's sorted share), so it spills as ready-made runs; keyed by
    // (source, part) the runs replay the stable merge order later.
    let mut runs: Vec<(usize, usize, RunFile)> = Vec::new();
    let mut spill = || -> Result<(), SortError> {
        while let Some((src, chunk)) = pending.wait_any_run(comm) {
            for (part, piece) in chunk.chunks(RUN_RECORDS).enumerate() {
                let path = dir.join(format!("src{src:06}-part{part:04}.bin"));
                let rf = write_run(piece, &path).map_err(io_err)?;
                // Disk time for one file: a seek plus streaming it.
                comm.charge_compute(DISK_SEEK_S + std::mem::size_of_val(piece) as f64 / DISK_BW);
                runs.push((src, part, rf));
            }
            // `chunk` drops here: the resident set stays one chunk deep.
        }
        Ok(())
    };
    if let Err(e) = spill() {
        // Drain the exchange so peers' sends are consumed, then clean
        // up before surfacing the disk failure.
        while pending.wait_any_run(comm).is_some() {}
        for (_, _, rf) in &runs {
            remove_run(rf);
        }
        let _ = std::fs::remove_dir(&dir);
        return Err(e);
    }
    clock.enter(Step::LocalOrder);

    runs.sort_by_key(|&(src, part, _)| (src, part));
    let run_files: Vec<RunFile> = runs.into_iter().map(|(_, _, rf)| rf).collect();
    // Read-back: one seek per run plus a full streaming pass.
    comm.charge_compute(run_files.len() as f64 * DISK_SEEK_S + bytes as f64 / DISK_BW);
    let merged = cfg.charge.charged(
        comm,
        |mo| mo.kway_merge_cost(m, run_files.len().max(2)),
        || -> io::Result<Vec<T>> { RunMerger::new(&run_files)?.collect() },
    );
    for rf in &run_files {
        remove_run(rf);
    }
    let _ = std::fs::remove_dir(&dir);
    let out = merged.map_err(io_err)?;
    if out.len() != m {
        let msg = format!("{} records came back from {m} spilled", out.len());
        return Err(SortError::Io(msg));
    }
    Ok(out)
}
