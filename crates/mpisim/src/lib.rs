//! # mpisim — a thread-based message-passing runtime with an MPI-like API
//!
//! The SDS-Sort paper (HPDC'16) evaluates on Edison, a Cray XC30, over MPI.
//! This crate is the substrate substitution for that environment: every
//! *rank* is an OS thread, communicators provide the MPI operations the
//! sorting algorithms use (point-to-point, `alltoallv`, splits,
//! node-local communicators, an asynchronous all-to-all), and virtual
//! clocks with a LogGP-style network model ([`NetModel`]) reproduce the
//! hardware-dependent aspects of the evaluation: computation advances only
//! the local clock; messages carry arrival times and advance the receiver, so
//! the maximum clock at the end of a run is the modelled makespan on the
//! configured machine. The per-rank memory budget that reproduces the
//! paper's out-of-memory failures is `comm::Budget`, the same account the
//! real backends keep.
//!
//! ## Quick example
//!
//! ```
//! use mpisim::{Communicator, World};
//!
//! let report = World::new(4).cores_per_node(2).run(|comm| {
//!     // Every rank contributes its rank id; allreduce sums them.
//!     comm.allreduce(comm.rank() as u64, |a, b| a + b)
//! });
//! assert!(report.results.iter().all(|&s| s == 6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod comm;
pub mod error;
pub mod faults;
pub mod mailbox;
pub mod netmodel;
pub mod runtime;
pub mod topology;
pub mod universe;

pub use clock::VirtualClock;
pub use comm::Comm;
pub use error::{CommError, OomError};
pub use faults::FaultSpec;
pub use netmodel::NetModel;
pub use runtime::{World, WorldReport};
pub use topology::Topology;
pub use universe::{DeadlockError, Universe};

// Re-exported so downstream crates can name `WorldReport::telemetry` types
// without a direct dependency.
pub use telemetry;

// The backend-neutral surface `Comm` implements, re-exported so tests and
// drivers can bring it into scope from here.
pub use ::comm::{AsyncExchange, Communicator};
