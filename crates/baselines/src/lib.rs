//! # baselines — comparison sorters for the SDS-Sort evaluation
//!
//! Every system the paper compares against, implemented from scratch over
//! the same [`comm::Communicator`] transport trait and [`sdssort`] record
//! abstractions as SDS-Sort itself, so each runs on the simulator, on
//! threads and on sockets alike:
//!
//! * [`hyksort()`](hyksort::hyksort) — HykSort (ICS'13), the state-of-the-art baseline:
//!   k-way hypercube sample sort with histogram-based splitter selection.
//! * [`histogram`] — the iterative histogram splitter refinement itself
//!   (Solomonik & Kale, IPDPS'10).
//! * [`samplesort`] — classical parallel sort by regular sampling (PSRS,
//!   Li et al. 1993).
//! * [`bitonic`] — full parallel bitonic / odd-even block sort, the
//!   non-sampling baseline from related work.
//! * [`radix`] — distributed radix sort with global digit histograms
//!   (related work \[30\]); skew-vulnerable like HykSort.
//! * [`seqscan`] — partitioning-kernel baselines for Fig. 6b (full linear
//!   scan and per-pivot binary search).
//!
//! HykSort and sample sort allocate their receive buffers through the
//! communicator's per-rank memory budget (`try_alloc`), which under the
//! simulator reproduces the paper's observed OOM crashes on highly skewed
//! inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitonic;
pub mod histogram;
pub mod hyksort;
pub mod radix;
pub mod samplesort;
pub mod seqscan;

pub use bitonic::bitonic_sort;
pub use histogram::histogram_splitters;
pub use hyksort::{hyksort, HykSortConfig};
pub use radix::{radix_sort, RadixKey};
pub use samplesort::{sample_sort, SampleSortConfig};
pub use seqscan::{binary_cuts, full_scan_cuts};
