//! Service configuration.

use sdssort::SdsConfig;
use std::path::PathBuf;

/// Configuration for one [`crate::SortService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ranks in the resident pool (one persistent OS thread each).
    pub ranks: usize,
    /// Ranks per node, as seen by the sort's node-merge stage.
    pub cores_per_node: usize,
    /// Submission queue capacity in jobs. A full queue blocks
    /// [`crate::ServiceClient::submit`] — this is the client-facing
    /// backpressure bound.
    pub queue_capacity: usize,
    /// Sort configuration applied to every job.
    pub sort: SdsConfig,
    /// Directory for spilled run files when a job runs through the
    /// resilient disk-spilling exchange (a per-job subdirectory is
    /// created).
    pub spill_dir: PathBuf,
    /// Per-rank memory budget in bytes of the resident world
    /// ([`comm::Budget`]). Admission measures each job against it, and it
    /// is hard: a receive buffer over it fails the job with the OOM.
    pub memory_budget: usize,
    /// Buffers the arena keeps pooled per rank; surplus returns to the
    /// allocator.
    pub arena_buffers_per_rank: usize,
}

impl ServiceConfig {
    /// Defaults for a pool of `ranks` ranks: 16-job queue, default sort
    /// thresholds, spill under `$TMPDIR`, 256 MiB of memory split evenly
    /// over the ranks, 4 pooled buffers per rank.
    pub fn new(ranks: usize) -> Self {
        Self {
            ranks,
            cores_per_node: 1,
            queue_capacity: 16,
            sort: SdsConfig::default(),
            spill_dir: std::env::temp_dir().join("sds-service-spill"),
            memory_budget: (256 << 20) / ranks.max(1),
            arena_buffers_per_rank: 4,
        }
    }
}
