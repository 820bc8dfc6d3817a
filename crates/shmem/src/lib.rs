//! # shmem — real shared-memory execution backend
//!
//! Runs a "distributed" program for real on one machine: each rank is an
//! OS thread, point-to-point messages travel through bounded per-rank
//! mailboxes (full mailbox = sender blocks, i.e. genuine backpressure),
//! and `now()` is wall-clock seconds from a shared [`std::time::Instant`]
//! epoch — so telemetry spans and the resulting `RunReport`s carry *real*
//! times, not modeled ones.
//!
//! This is the second transport implementing the
//! [`Communicator`](::comm::Communicator) trait; the first is `mpisim`,
//! the deterministic virtual-time simulator. The sort in `sdssort` is
//! generic over the trait, so the same algorithm code runs on both:
//!
//! - **mpisim** answers *"what would this cost on a modeled Cray XC30?"* —
//!   single-threaded, reproducible to the tick, with invariant checking.
//! - **shmem** (this crate) answers *"does it actually run, scale, and
//!   stay correct under true concurrency?"* — real threads, real races on
//!   arrival order, real seconds.
//!
//! Both run the same collective bodies (the trait's provided methods) with
//! deterministic rank-order reduction folds, so for a given seed both
//! backends produce bit-identical sorted output; see the workspace's
//! `backend_equivalence` and `transport_conformance` tests.
//!
//! ## Quick start
//!
//! ```
//! use comm::Communicator;
//! use sdssort::{sds_sort, SdsConfig};
//! use shmem::ThreadWorld;
//!
//! let report = ThreadWorld::new(4).run(|comm| {
//!     let r = comm.rank() as u64;
//!     let data: Vec<u64> = (0..100).map(|i| (i * 7 + r) % 13).collect();
//!     sds_sort(comm, data, &SdsConfig::default()).expect("no memory budget set")
//! });
//! let all: Vec<u64> = report.results.iter().flat_map(|o| o.data.clone()).collect();
//! assert!(all.windows(2).all(|w| w[0] <= w[1]));
//! assert!(report.wall_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
pub mod mailbox;
mod resident;
mod universe;
mod world;

pub use crate::comm::ThreadComm;
pub use resident::{GangError, ResidentWorld};
pub use universe::Universe;
pub use world::{ThreadReport, ThreadWorld};
