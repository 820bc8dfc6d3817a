//! # service — sort-as-a-service on the threads backend
//!
//! Everything else in this workspace runs one sort per world: build
//! threads, sort, join, exit. This crate turns the `shmem` backend into a
//! long-lived **[`SortService`]** that an application embeds and feeds a
//! stream of independent sort jobs:
//!
//! * **Persistent rank pool** — the rank threads are created once
//!   ([`shmem::ResidentWorld`]) and parked between jobs; steady-state jobs
//!   never spawn a thread.
//! * **Bounded submission queue** — built on the same `(ctx, src, tag)`-
//!   matched bounded [`shmem::mailbox::Mailbox`] the backend uses for rank
//!   traffic. A full queue blocks [`ServiceClient::submit`] (real sender
//!   backpressure) or fails [`ServiceClient::try_submit`] fast.
//! * **Arena buffer reuse** — input keys are generated into recycled
//!   per-rank buffers and sorted output buffers are returned to the
//!   [`Arena`], so the steady state allocates from the pool instead of the
//!   OS.
//! * **Overload-graceful degradation** — admission measures each job
//!   against the resident world's per-rank memory budget
//!   ([`ServiceConfig::memory_budget`]): a job runs in memory, runs
//!   through [`sdssort::sds_sort_resilient`], whose own gate spills what
//!   does not fit, or is *shed* (refused with an explicit
//!   [`JobOutcome::Shed`] — never a silent drop). A job whose exchange
//!   still overruns the budget fails with the OOM as
//!   [`JobOutcome::Failed`], and the next job runs as usual.
//! * **Per-job telemetry** — every completed job reports queue wait and
//!   the sort phase breakdown ([`JobReport`]); the service aggregates
//!   throughput and p50/p99 latency into a [`ServiceReport`].
//!
//! ## Quick start
//!
//! ```
//! use service::{JobOutcome, JobSpec, ServiceConfig, SortService};
//!
//! let svc = SortService::start(ServiceConfig::new(4));
//! let client = svc.client();
//! let ticket = client
//!     .submit(JobSpec::new("zipf:0.8", 5_000, 42))
//!     .expect("service accepting jobs");
//! match ticket.wait() {
//!     JobOutcome::Sorted { report, .. } => assert_eq!(report.records, 20_000),
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! let report = svc.shutdown();
//! assert_eq!(report.counters.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod config;
pub mod job;
pub mod loadgen;
pub mod report;
mod service;

pub use arena::Arena;
pub use config::ServiceConfig;
pub use job::{JobOutcome, JobReport, JobSpec, JobTicket, SubmitError, TrySubmitError};
pub use loadgen::LoadGen;
pub use report::{percentile, ServiceCounters, ServiceReport};
pub use service::{ServiceClient, SortService};
