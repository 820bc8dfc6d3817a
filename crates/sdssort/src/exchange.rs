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
//! [`exchange`] is the only in-memory implementation of those steps:
//! `sds_sort` and the `algos` sorters all deliver their data through it
//! ([`crate::resilience`] has the one alternative, which spills to disk
//! instead of failing). It owns the memory
//! reservation — released on every exit — and books the exchange and the
//! ordering on the sort's [`Clock`].
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
use crate::local_sort::local_sort_with;
use crate::merge::{kway_merge, merge_two};
use crate::record::Sortable;
use crate::sort::SortError;
use comm::{AsyncExchange, Communicator, OomError, Run};
use std::sync::Arc;

/// How steps 6–7 deliver and order the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
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
}

/// A charge against this rank's memory budget, released on drop.
pub(crate) struct Reservation<'a, C: Communicator> {
    comm: &'a C,
    bytes: usize,
}

impl<'a, C: Communicator> Reservation<'a, C> {
    pub(crate) fn new(comm: &'a C, bytes: usize) -> Result<Self, OomError> {
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
/// whole-job crash). Besides the memory check below, this is for a
/// multi-level sorter, whose deeper levels check memory on each group's
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
/// memory budget. `charge` prices the merging. The exchange and the ordering
/// are booked on `clock`.
pub fn exchange<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    scounts: &[usize],
    delivery: Delivery,
    charge: ComputeCharge,
    clock: &mut Clock<'_, C>,
) -> Result<Vec<T>, SortError> {
    let p = comm.size();
    clock.enter(Step::Exchange);
    let rcounts = comm.alltoall(scounts);
    let m: usize = rcounts.iter().sum();
    // Step 5: every rank reserves its receive buffer, or the sort fails on
    // every rank, with `Oom` where the budget is exceeded.
    let mine = Reservation::new(comm, m * std::mem::size_of::<T>());
    let _reservation = fail_together(comm, mine.map_err(SortError::Oom))?;

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
        Delivery::Merge => {
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
            count_local_sort(comm, m, report);
            buf
        }
    };
    debug_assert_eq!(out.len(), m);
    Ok(out)
}
