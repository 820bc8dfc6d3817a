//! Steps 5–7 of Fig. 1, once for every distributed sorter.
//!
//! However a sorter chooses its splitters, it ends the same way: every
//! rank knows how many of its (sorted) records go to each destination, and
//! the sort finishes with
//!
//! 5. the collective memory check for the receive buffer — the step where
//!    an imbalanced sorter dies with OOM, on every rank at once;
//! 6. the all-to-all — synchronous, or asynchronous and overlapped with
//!    incremental merging;
//! 7. the final local ordering of the `p` received sorted runs.
//!
//! [`exchange`] is the only implementation of those steps: `sds_sort`,
//! `sds_sort_resilient` and the `algos` sorters all deliver their data
//! through it, and differ only in the [`Delivery`] they ask for. It owns
//! step 5's one reservation — released on every exit — and its one
//! allreduce, and books the exchange and the ordering on the sort's
//! [`Clock`].
//!
//! Step 5 gives every rank one verdict: its receive buffer *fits*; or, when
//! the delivery carries a spill directory ([`Delivery::Spill`]), it
//! *stages* — reserves only its largest incoming chunk and writes the
//! chunks through [`crate::external`] as they arrive; or it is *out of
//! memory*. The allreduce shares the worst verdict, and only an
//! out-of-memory one fails the sort, on every rank. A rank that fits takes
//! [`Delivery::Merge`] while a peer stages: the synchronous and the
//! asynchronous all-to-all post the same runs on one collective tag, so the
//! two interoperate.
//!
//! The sorted buffer is given up to the collective, and what comes back is
//! one [`comm::Run`] per source: on the threads backend a window of the
//! sender's own sorted buffer, which the merge reads in place (a key is
//! touched by the local sort and by the merge into the output, and by
//! nothing in between); on the simulator and over sockets a vector the
//! transport filled. Only the re-sort needs its input contiguous and still
//! receives into one buffer.
//!
//! Every `n`-record buffer these steps fill — the receive buffer of the
//! re-sort, a copying transport's self run, payload and decoded chunk, each
//! merge output — is reserved through [`comm::pages`] by the function that
//! allocates it (`comm::raw`, `comm::wire`, `sockcomm::frame`,
//! [`crate::merge`]), so from one huge page up it is faulted in 2 MiB at a
//! time; the clock books what was reserved and advised as
//! `mem.sort_buffer_bytes` / `mem.huge_advised_bytes`.

use crate::config::{ComputeCharge, LocalKernel};
use crate::driver::{count_local_sort, Clock, Step};
use crate::external::Staged;
use crate::local_sort::local_sort_with;
use crate::merge::{kway_merge, merge_two};
use crate::record::Sortable;
use crate::sort::SortError;
use comm::{AsyncExchange, Communicator, OomError, Run};
use std::path::Path;
use std::sync::Arc;

/// Memory pressure (the share of a rank's budget in use) above which a
/// delivery that can spill stages its receive buffer through disk even
/// though it would fit. The service's admission reads it too.
pub const SPILL_PRESSURE: f64 = 0.8;

/// How steps 6–7 deliver and order the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery<'a> {
    /// Synchronous all-to-all, then one k-way merge of the runs, each read
    /// where the transport left it (ties to the lower source rank, so
    /// stability is preserved).
    Merge,
    /// Synchronous all-to-all, then an adaptive re-sort of the partially
    /// ordered buffer (SDS-Sort's choice at or above `τs`).
    Resort {
        /// Threads for the local sort.
        threads: usize,
        /// Preserve the order of equal keys.
        stable: bool,
        /// Local-sort kernel.
        kernel: LocalKernel,
    },
    /// Asynchronous all-to-all overlapped with binomial-counter merging of
    /// the chunks as they arrive (`SdssAlltoallvAsync` + `SdssMergeTwo`).
    /// Unstable: chunks merge in arrival order.
    Overlapped,
    /// [`Delivery::Merge`] on a rank whose receive buffer fits its budget
    /// below [`SPILL_PRESSURE`]. Any other rank stages: it writes each
    /// chunk as it arrives as runs under its own `rank{NNNN}` subdirectory
    /// of this one, then merges them back from disk, stably.
    Spill(&'a Path),
}

/// A rank's step-5 verdict, ordered by severity for the allreduce.
const FITS: u8 = 0;
const STAGE: u8 = 1;
const OUT_OF_MEMORY: u8 = 2;

/// A charge against this rank's memory budget, released on drop.
struct Reservation<'a, C: Communicator> {
    comm: &'a C,
    bytes: usize,
}

impl<'a, C: Communicator> Reservation<'a, C> {
    fn new(comm: &'a C, bytes: usize) -> Result<Self, OomError> {
        comm.try_alloc(bytes).map(|()| Self { comm, bytes })
    }
}

impl<C: Communicator> Drop for Reservation<'_, C> {
    fn drop(&mut self) {
        self.comm.free(self.bytes);
    }
}

/// Make a failure collective: if `result` is an error on any rank of `comm`,
/// the ranks where it is not return [`SortError::PeerOom`] (the paper's
/// whole-job crash). This is for a multi-level sorter, whose deeper levels
/// check memory on each group's
/// sub-communicator, so one group can fail while the others finish: called
/// on the communicator the sort was started on, with the result of the
/// levels below, it makes every rank fail when any group did.
pub fn fail_together<R, C: Communicator>(
    comm: &C,
    result: Result<R, SortError>,
) -> Result<R, SortError> {
    let any_failed = comm.allreduce(u8::from(result.is_err()), |a, b| a.max(b)) > 0;
    match result {
        Ok(_) if any_failed => Err(SortError::PeerOom),
        result => result,
    }
}

/// Steps 5–7: send `data`, partitioned by `scounts` (one contiguous sorted
/// run per destination, in rank order), and return this rank's share of the
/// global order, sorted.
///
/// Fails on every rank of `comm` when any rank's receive buffer exceeds its
/// memory budget and, under [`Delivery::Spill`], so does its largest
/// incoming chunk. `charge` prices the merging. The exchange and the
/// ordering are booked on `clock`.
pub fn exchange<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    scounts: &[usize],
    delivery: Delivery<'_>,
    charge: ComputeCharge,
    clock: &mut Clock<'_, C>,
) -> Result<Vec<T>, SortError> {
    let p = comm.size();
    let rec = std::mem::size_of::<T>();
    clock.enter(Step::Exchange);
    let rcounts = comm.alltoall(scounts);
    let m: usize = rcounts.iter().sum();
    // Step 5: every rank's verdict, and the worst of them on every rank.
    // The pressure is read only where the delivery can spill.
    let pressure =
        matches!(delivery, Delivery::Spill(_)).then(|| comm.memory_pressure_with(m * rec));
    let largest_chunk = rcounts.iter().copied().max().unwrap_or(0);
    let (verdict, mine) = step_5(comm, m * rec, largest_chunk * rec, pressure);
    let worst = comm.allreduce(verdict, |a, b| a.max(b));
    let _reservation = match mine {
        Err(e) => return Err(SortError::Oom(e)),
        Ok(_) if worst == OUT_OF_MEMORY => return Err(SortError::PeerOom),
        Ok(r) => r,
    };

    let out = match delivery {
        Delivery::Overlapped => {
            let mut pending = comm.alltoallv_async_runs(Arc::new(data), scounts, rcounts);
            let mut merge_s = 0.0;
            // Binomial-counter progressive merging: every incoming chunk is
            // a level-0 run; two runs merge only when they are at the same
            // level. Total merged volume is then exactly the balanced
            // cascade's (m·⌈log2 p⌉), independent of chunk-size variance
            // and arrival order — overlapping adds no merge work over the
            // synchronous path, it only moves it earlier.
            let mut runs: Vec<(u32, Run<T>)> = Vec::new();
            while let Some((_src, chunk)) = pending.wait_any_run(comm) {
                runs.push((0, chunk));
                while runs.len() >= 2 && runs[runs.len() - 1].0 == runs[runs.len() - 2].0 {
                    let (lvl, hi) = runs.pop().expect("len>=2");
                    let (_, lo) = runs.pop().expect("len>=2");
                    let tm = comm.now();
                    let merged = charge.charged(
                        comm,
                        |mo| mo.kway_merge_cost(hi.len() + lo.len(), 2),
                        || merge_two(&lo, &hi),
                    );
                    // Releasing the merged runs is ordering too: on threads
                    // the rank that merges last drops the send buffers'
                    // last lent windows here and so unmaps them.
                    drop((lo, hi));
                    merge_s += comm.now() - tm;
                    runs.push((lvl + 1, merged.into()));
                }
            }
            // Overlap makes exchange and merge inseparable in wall order:
            // the exchange step covers the overlapped region, the ordering
            // step the final cascade, and the merging measured inside the
            // region counts as ordering, so the phases still split the time
            // exactly.
            clock.enter(Step::LocalOrder);
            clock.count_as_ordering(merge_s);
            // Balanced cascade over whatever the stack still holds (free when
            // the counter already collapsed everything into one run).
            if runs.len() == 1 {
                runs.pop().expect("len==1").1.into_vec()
            } else {
                let refs: Vec<&[T]> = runs.iter().map(|(_, r)| &r[..]).collect();
                let left: usize = refs.iter().map(|r| r.len()).sum();
                let k_left = refs.len();
                charge.charged(
                    comm,
                    |mo| mo.kway_merge_cost(left, k_left),
                    || kway_merge(&refs),
                )
            }
        }
        Delivery::Spill(dir) if verdict == STAGE => {
            clock.stats.spilled = true;
            clock.stats.spill_records = m;
            if comm.recorder().enabled() {
                let pressure = pressure.unwrap_or_default();
                comm.event(
                    "degrade.spill",
                    &format!(
                        "pressure {pressure:.2} over threshold {SPILL_PRESSURE}; spilling {m} records"
                    ),
                );
            }
            let dir = dir.join(format!("rank{:04}", comm.world_rank()));
            let pending = comm.alltoallv_async_runs(Arc::new(data), scounts, rcounts);
            let staged = Staged::write(comm, pending, &dir)?;
            clock.enter(Step::LocalOrder);
            staged.read_back(comm, m, charge)?
        }
        Delivery::Merge | Delivery::Spill(_) => {
            let runs = comm.alltoallv_runs(Arc::new(data), scounts, &rcounts);
            clock.enter(Step::LocalOrder);
            let refs: Vec<&[T]> = runs.iter().map(|r| &r[..]).collect();
            charge.charged(comm, |mo| mo.kway_merge_cost(m, p), || kway_merge(&refs))
        }
        Delivery::Resort {
            threads,
            stable,
            kernel,
        } => {
            let mut buf = comm.alltoallv_given_counts(&data, scounts, &rcounts);
            drop(data);
            clock.enter(Step::LocalOrder);
            let report = charge.charged(
                comm,
                |mo| {
                    let base = mo.adaptive_sort_cost(m, p);
                    if stable {
                        base * mo.stable_factor
                    } else {
                        base
                    }
                },
                || local_sort_with(&mut buf, threads, stable, kernel),
            );
            count_local_sort(comm, m, kernel, report);
            buf
        }
    };
    debug_assert_eq!(out.len(), m);
    Ok(out)
}

/// Step 5 on this rank: its verdict, and the reservation it keeps for the
/// exchange — the whole receive buffer of `bytes` when it fits (under a
/// `pressure` of at most [`SPILL_PRESSURE`], where one was read), else,
/// where the delivery can spill, one chunk of `chunk_bytes`.
fn step_5<C: Communicator>(
    comm: &C,
    bytes: usize,
    chunk_bytes: usize,
    pressure: Option<f64>,
) -> (u8, Result<Reservation<'_, C>, OomError>) {
    if pressure.is_none_or(|p| p <= SPILL_PRESSURE) {
        match Reservation::new(comm, bytes) {
            Ok(whole) => return (FITS, Ok(whole)),
            Err(e) if pressure.is_none() => return (OUT_OF_MEMORY, Err(e)),
            Err(_) => {}
        }
    }
    match Reservation::new(comm, chunk_bytes) {
        Ok(chunk) => (STAGE, Ok(chunk)),
        Err(e) => (OUT_OF_MEMORY, Err(e)),
    }
}
