//! Umbrella crate for the SDS-Sort reproduction workspace.
//!
//! The real functionality lives in the member crates:
//!
//! - [`mpisim`] — thread-based message-passing runtime (the MPI substitute),
//! - [`sdssort`] — the SDS-Sort algorithm itself,
//! - [`algos`] — HykSort, AMS-sort and HSS, and `algos::Sorter`, the one
//!   table of all five distributed sorters,
//! - [`workloads`] — synthetic and science-inspired data generators.
//!
//! This crate only re-exports them so that the workspace-level integration
//! tests in `tests/` and the runnable examples in `examples/` have a single
//! dependency root.

pub use algos;
pub use mpisim;
pub use sdssort;
pub use workloads;
