//! # algos — the distributed sorters SDS-Sort is measured against, and the table of all five
//!
//! SDS-Sort's claim is that *dynamic skew-awareness* beats fixed-strategy
//! distributed sorts. This crate holds the sorters that claim is tested
//! against, generic over the [`comm::Communicator`] transport like
//! `sdssort` itself, so all three backends (virtual-time simulator, OS
//! threads, OS processes over sockets), the happens-before checker, fault
//! injection, memory budgets, and telemetry come for free:
//!
//! * [`hyksort()`](hyksort::hyksort) — **HykSort** (Sundar, Malhotra,
//!   Biros — ICS'13), the paper's baseline: k-way hypercube sample sort
//!   with histogram-refined value splitters.
//! * [`ams_sort`] — **multi-level AMS-sort** (Axtmann, Bingmann, Sanders,
//!   Schulz — *Practical Massively Parallel Sorting*, SPAA'15): recursive
//!   `k`-way partitioning with overpartitioned splitters and a two-stage,
//!   hierarchy-aware data exchange (deliver buckets to rank *groups*,
//!   then rebalance exactly within each group). The first level aligns
//!   groups with nodes when the layout allows, and the `τm` node-merge
//!   machinery from `sdssort` is reused verbatim on the input side.
//! * [`hss_sort`] — **Histogram Sort with Sampling** (Harsh, Kale,
//!   Solomonik — SPAA'19): single-stage partitioning whose splitters are
//!   refined by iterative histogramming until every part is provably
//!   within `(1+ε)` of the ideal `N/p` — including under arbitrary
//!   duplication, because boundaries may *split ties* at a key by global
//!   rank order (where HykSort's value-only splitters famously cannot).
//! * [`seqscan`] — the partitioning-kernel baselines of Fig. 6b (full
//!   linear scan against per-pivot binary search).
//!
//! [`Sorter`] is the one table of the five distributed sorters — SDS-Sort,
//! SDS-Sort/stable and the three above — with each row's name, generic
//! entry point, stability and published load bound. `sortcli`, the
//! experiment harness and the test suites dispatch through it.
//!
//! AMS-sort and HSS are deterministic end to end — seeded sampling,
//! synchronous rank-order exchanges, tie-to-lower-run merging — so the
//! `backend_equivalence` suite proves bit-identical per-rank output across
//! all three backends. HykSort overlaps its exchange with merging in
//! arrival order: its output is deterministic, its simulator clock is not.
//!
//! Divergence from SDS-Sort's partition strategy is discussed in
//! DESIGN.md §14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ams;
pub mod hss;
pub mod hyksort;
pub mod seqscan;
pub mod sorter;

pub use ams::{ams_sort, AmsConfig};
pub use hss::{hss_sort, hss_splitters, HssConfig, HssCut};
pub use hyksort::{hyksort, HykSortConfig};
pub use seqscan::full_scan_cuts;
pub use sorter::{Sorter, Tuning};
