//! # sdssort — SDS-Sort: Scalable Dynamic Skew-aware Parallel Sorting
//!
//! A from-scratch Rust reproduction of *SDS-Sort* (Dong, Byna, Wu —
//! HPDC'16): a sample-sort for distributed memory that stays load-balanced
//! on heavily skewed (duplicate-ridden) data **without secondary sort
//! keys**, guarantees an `O(4N/p)` per-rank workload bound (Theorem 1),
//! offers the first sampling-based *stable* distributed sort, and adapts
//! at runtime to the machine: node-level merging (`τm`), exchange/compute
//! overlap (`τo`), and merge-vs-sort final ordering (`τs`).
//!
//! The algorithms are generic over the [`comm::Communicator`] transport
//! trait, with three backends: `mpisim`, a deterministic virtual-time
//! message-passing runtime standing in for MPI on a Cray XC30 (see that
//! crate's docs for the substitution rationale), `shmem`, a real OS-thread
//! backend, and `sockcomm`, a real process-per-rank backend over sockets
//! (both measure wall-clock time).
//!
//! ## Quick example
//!
//! ```
//! use mpisim::{Communicator, NetModel, World};
//! use sdssort::{sds_sort, SdsConfig};
//!
//! let report = World::new(4).net(NetModel::zero()).run(|comm| {
//!     // Each rank contributes a scrambled run; keys collide heavily.
//!     let data: Vec<u64> = (0..100).map(|i| (i * 7 + comm.rank() as u64) % 13).collect();
//!     sds_sort(comm, data, &SdsConfig::default()).expect("no memory budget set")
//! });
//! // Concatenated rank outputs are globally sorted.
//! let all: Vec<u64> = report.results.iter().flat_map(|o| o.data.clone()).collect();
//! assert!(all.windows(2).all(|w| w[0] <= w[1]));
//! assert_eq!(all.len(), 400);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod exchange;
pub mod external;
pub mod histogram;
pub mod local_sort;
pub mod merge;
pub mod node_merge;
pub mod partition;
pub mod pivots;
pub mod radix;
pub mod record;
pub mod sampling;
pub mod search;
pub mod selection;
pub mod sort;
pub mod stats;
pub mod validate;
pub mod vsort;

pub use config::{
    ComputeCharge, ComputeModel, LocalKernel, PartitionStrategy, PivotSource, SdsConfig,
};
pub use exchange::SPILL_PRESSURE;
pub use local_sort::{
    local_sort, local_sort_with, parallel_merge, ComparisonKernel, LocalSortReport, MergeStrategy,
};
pub use radix::{
    counts_in_one_pass, radix_applicable, radix_sort, GateSample, KeySpan, RadixForm, RadixRun,
    RADIX_MAX_AUTO_DIGITS, RADIX_MAX_AUTO_DIGITS_VS_VECTOR, RADIX_MAX_AUTO_DUP,
    RADIX_MAX_AUTO_DUP_STABLE, RADIX_MAX_N, RADIX_MIN_N,
};
pub use record::{OrderedF32, OrderedF64, RadixKey, Record, Sortable, Tagged};
pub use selection::kth_smallest_key;
pub use sort::{sds_sort, sds_sort_resilient, SortError, SortOutput};
pub use stats::{rdfa, SortStats};
pub use validate::{is_globally_sorted, is_permutation_of, load_stats};
