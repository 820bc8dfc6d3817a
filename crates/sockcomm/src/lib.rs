//! Distributed process-per-rank backend for the `comm::Communicator`
//! abstraction: each rank is an OS process, and ranks talk over TCP or
//! Unix-domain sockets instead of a shared-memory mailbox graph.
//!
//! This is the third execution substrate for the SDS-Sort pipeline:
//!
//! | backend    | rank is a…      | messages travel via                   |
//! |------------|-----------------|---------------------------------------|
//! | `mpisim`   | simulated actor | in-process event queue (virtual time) |
//! | `shmem`    | OS thread       | shared-memory bounded mailboxes       |
//! | `sockcomm` | OS **process**  | length-prefixed frames over sockets   |
//!
//! All three run the one collective stack in `comm::raw` (dissemination
//! barrier, binomial bcast, staggered alltoallv, self-first async
//! exchange, split), and the two real ones share the `(ctx, src, tag)`
//! matching discipline in `comm::mailbox`, so the same seed produces bit-identical per-rank
//! output on every backend — `tests/backend_equivalence.rs` at the
//! workspace root proves it.
//!
//! ## Layer map
//!
//! - [`frame`]: length-prefixed wire format with the `(ctx, src, tag)`
//!   header; pure codec + stream IO.
//! - `net`: `Stream`/`Listener` over TCP-loopback or Unix-domain sockets.
//! - `universe`: per-process rank state — mailbox, peer links, abort flag,
//!   close-barrier bookkeeping, traffic counters, memory budget.
//! - `comm`: [`SockComm`], the sockets transport: it implements the
//!   `comm::Communicator` primitives, and the trait's provided methods are
//!   the collectives.
//! - `launch`: [`SocketWorld`] (rendezvous launcher) and [`child_rank`]
//!   (re-exec'd child entry); peer-death detection and teardown.
//!
//! ## Running a world
//!
//! ```no_run
//! use comm::Communicator;
//! use sockcomm::{child_rank, SocketWorld};
//!
//! // Child processes divert here; the parent falls through.
//! child_rank("sum", |comm, base: u64| -> u64 {
//!     comm.barrier();
//!     base + comm.rank() as u64
//! });
//! let report = SocketWorld::new(4)
//!     .run::<u64, u64>("sum", &100)
//!     .expect("world");
//! assert_eq!(report.results, vec![100, 101, 102, 103]);
//! ```
//!
//! Unlike the simulator there is no virtual clock here — `now()` is real
//! wall time (see EXPERIMENTS.md for why multi-process timings are
//! reported separately from simulated makespans).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
pub mod frame;
mod launch;
mod net;
mod universe;

pub use crate::comm::SockComm;
pub use launch::{child_rank, SockError, SockReport, SocketWorld, ENV_RANK};
pub use net::Transport;
pub use universe::DeadPeer;
