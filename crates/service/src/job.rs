//! Job specifications, tickets, and per-job reports.

use std::sync::mpsc;

/// One sort job: which keys to generate and sort, sized per rank.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Workload name understood by [`workloads::keys_by_name`]:
    /// `uniform`, `zipf:<alpha>`, `ptf-like`, or `adversarial`.
    pub workload: String,
    /// Records generated (and sorted) per rank.
    pub records_per_rank: usize,
    /// Generator seed; together with the workload name this makes the job
    /// bit-reproducible.
    pub seed: u64,
    /// Return each rank's sorted slice in the outcome. Off by default —
    /// benchmarks want throughput, not copies — and when off, output
    /// buffers are recycled into the service arena.
    pub return_output: bool,
}

impl JobSpec {
    /// A job of `records_per_rank` records per rank from `workload`.
    pub fn new(workload: impl Into<String>, records_per_rank: usize, seed: u64) -> Self {
        Self {
            workload: workload.into(),
            records_per_rank,
            seed,
            return_output: false,
        }
    }

    /// Request the sorted output back (disables output-buffer recycling
    /// for this job).
    pub fn with_output(mut self) -> Self {
        self.return_output = true;
        self
    }
}

/// Telemetry for one completed job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Service-assigned job id (submission order).
    pub id: u64,
    /// Workload name the job sorted.
    pub workload: String,
    /// Total records sorted across all ranks.
    pub records: u64,
    /// Seconds the job waited in the submission queue.
    pub queue_wait_s: f64,
    /// Wall seconds the gang spent on the job, from dispatch until the
    /// last rank finished: key generation, the sort phases and the gang's
    /// wake-up, so `sort_wall_s ≥ generate_s + pivot_s + exchange_s +
    /// local_order_s`. (Each of those is the slowest rank's; a rank that
    /// waits at the first collective for a slower generator books the wait
    /// as pivot time, so the sum can overshoot when ranks are very uneven.)
    pub sort_wall_s: f64,
    /// The slowest rank's seconds generating its keys
    /// ([`workloads::fill_keys_by_name`]) — inside `sort_wall_s`, before
    /// any sort phase.
    pub generate_s: f64,
    /// Per-phase maxima across ranks: pivot selection — the initial local
    /// sort, sampling, splitter selection and partition, which the next
    /// four fields split it into.
    pub pivot_s: f64,
    /// The initial local sort of the rank whose `pivot_s` is the maximum
    /// (so the four parts sum to `pivot_s`).
    pub local_sort_s: f64,
    /// That rank's local sampling.
    pub sample_s: f64,
    /// That rank's splitter selection.
    pub select_s: f64,
    /// That rank's partition at the splitters.
    pub partition_s: f64,
    /// Per-phase maxima across ranks: all-to-all exchange.
    pub exchange_s: f64,
    /// Per-phase maxima across ranks: final local ordering.
    pub local_order_s: f64,
    /// Whether any rank degraded to the disk-spilling exchange.
    pub spilled: bool,
    /// Records routed through the spill path, summed over ranks.
    pub spill_records: u64,
    /// Memory pressure at admission: the fraction of the per-rank budget
    /// the job's records per rank would take.
    pub admit_pressure: f64,
}

impl JobReport {
    /// End-to-end latency the client observed: queue wait plus sort wall
    /// time.
    pub fn latency_s(&self) -> f64 {
        self.queue_wait_s + self.sort_wall_s
    }
}

/// How a job ended. Every accepted ticket resolves to exactly one of
/// these — the service never drops a job silently.
#[derive(Debug)]
pub enum JobOutcome {
    /// The job sorted successfully.
    Sorted {
        /// Timing and degradation telemetry.
        report: JobReport,
        /// Per-rank sorted slices, present iff
        /// [`JobSpec::return_output`] was set.
        output: Option<Vec<Vec<u64>>>,
    },
    /// Admission control refused the job under memory pressure.
    Shed {
        /// Service-assigned job id.
        id: u64,
        /// Memory pressure that triggered the shed.
        pressure: f64,
        /// Seconds the job waited in the queue before being shed.
        queue_wait_s: f64,
    },
    /// The job failed (bad workload name, sort error, or a poisoned
    /// world).
    Failed {
        /// Service-assigned job id.
        id: u64,
        /// What went wrong.
        error: String,
    },
}

/// Handle to one submitted job; redeem with [`JobTicket::wait`].
pub struct JobTicket {
    pub(crate) id: u64,
    pub(crate) rx: mpsc::Receiver<JobOutcome>,
}

impl JobTicket {
    /// The service-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the job resolves. If the service is torn down without
    /// resolving the job (it never is in normal shutdown, which drains the
    /// queue), this reports an explicit failure rather than hanging.
    pub fn wait(self) -> JobOutcome {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => JobOutcome::Failed {
                id: self.id,
                error: "service terminated before resolving the job".to_owned(),
            },
        }
    }
}

/// Why a blocking submit failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The service is shutting down and no longer accepts jobs.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sort service is shutting down")
    }
}

impl std::error::Error for SubmitError {}

/// Why a non-blocking submit failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySubmitError {
    /// The bounded submission queue is full (backpressure).
    QueueFull,
    /// The service is shutting down and no longer accepts jobs.
    Shutdown,
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::QueueFull => write!(f, "submission queue is full"),
            TrySubmitError::Shutdown => write!(f, "sort service is shutting down"),
        }
    }
}

impl std::error::Error for TrySubmitError {}
