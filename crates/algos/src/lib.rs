//! # algos — peer distributed sorting algorithms over [`comm::Communicator`]
//!
//! SDS-Sort's claim is that *dynamic skew-awareness* beats fixed-strategy
//! distributed sorts. To test that claim against the strongest modern
//! competitors — not just HykSort and single-level sample sort — this
//! crate implements two published algorithms as peers of `sdssort`,
//! generic over the [`comm::Communicator`] transport so all three
//! backends (virtual-time simulator, OS threads, OS processes over
//! sockets), the happens-before checker, fault injection, memory budgets,
//! and telemetry come for free:
//!
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
//!
//! Both sorters are deterministic end to end — seeded sampling, synchronous
//! rank-order exchanges, tie-to-lower-run merging — so the
//! `backend_equivalence` suite proves bit-identical per-rank output across
//! all three backends, exactly as it does for `sds_sort`.
//!
//! Divergence from SDS-Sort's partition strategy is discussed in
//! DESIGN.md §14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ams;
pub mod hss;

pub use ams::{ams_sort, AmsConfig};
pub use hss::{hss_sort, hss_splitters, HssConfig, HssCut};
