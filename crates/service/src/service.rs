//! The resident [`SortService`]: dispatcher loop, client handles, and the
//! per-rank gang job.
//!
//! ## Architecture
//!
//! ```text
//!  ServiceClient ──submit──▶ Mailbox (bounded; full ⇒ sender blocks)
//!  ServiceClient ──submit──▶    │   (ctx QUEUE_CTX, src client, tag JOB)
//!       ...                     ▼
//!                      dispatcher thread ──gang──▶ ResidentWorld
//!                        │  admission against the     (persistent rank
//!                        │  world's Budget: in-memory  threads, parked
//!                        │  / resilient / shed         between jobs)
//!                        ▼
//!                  JobOutcome over the ticket channel
//! ```
//!
//! The dispatcher executes jobs strictly one gang at a time (the ranks
//! share one communicator; overlapping gangs would interleave
//! collectives), so concurrency for clients comes from the queue: many
//! handles submit concurrently, the bounded mailbox absorbs bursts, and a
//! full mailbox blocks submitters — the same backpressure discipline the
//! backend applies to rank traffic.
//!
//! Admission reads the resident world's per-rank [`comm::Budget`], the
//! same account every reservation of the sort charges. A job's pressure
//! is the share of the budget its records per rank would take (nothing is
//! held between gangs, so that is the whole of it): at [`SHED_AT`] or
//! above the job is shed; above [`SPILL_PRESSURE`], the pressure at which
//! the exchange's memory gate spills, it runs through
//! [`sds_sort_resilient`], whose gate then decides, rank by rank and
//! against the same budget, what spills; below, it runs [`sds_sort`]. The
//! budget is hard either way: a skewed exchange that overruns it fails the
//! job with the OOM, and the next job runs on the same world.
//!
//! Every accepted job resolves its ticket exactly once. Shutdown first
//! stops admission (pushes fail), then drains the queue (the mailbox
//! returns already-queued envelopes even with the stop flag set), so
//! nothing accepted is ever silently dropped.

use crate::arena::Arena;
use crate::config::ServiceConfig;
use crate::job::{JobOutcome, JobReport, JobSpec, JobTicket, SubmitError, TrySubmitError};
use crate::report::{LogHistogram, ServiceCounters, ServiceReport};
use comm::Communicator;
use sdssort::stats::phase_maxima;
use sdssort::{sds_sort, sds_sort_resilient, SdsConfig, SortError, SortStats, SPILL_PRESSURE};
use shmem::mailbox::{Envelope, Mailbox, SrcSel};
use shmem::{ResidentWorld, ThreadComm, ThreadWorld};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Mailbox context id of the submission queue.
const QUEUE_CTX: u64 = 0;
/// Tag carried by job-submission envelopes.
const JOB_TAG: u64 = 1;
/// Memory pressure at or above which a job is shed.
const SHED_AT: f64 = 0.95;

/// What travels through the submission mailbox.
struct Queued {
    id: u64,
    spec: JobSpec,
    /// Submission time in seconds since the service epoch.
    submitted_s: f64,
    reply: mpsc::Sender<JobOutcome>,
}

/// Lifetime aggregates: counters and fixed-memory histograms, so a resident
/// service's metrics do not grow with the jobs it has run.
struct Metrics {
    counters: ServiceCounters,
    queue_waits: LogHistogram,
    latencies: LogHistogram,
    sort_walls: LogHistogram,
    generates: LogHistogram,
}

struct Shared {
    queue: Mailbox,
    /// Doubles as the mailbox abort flag: once set, pushes fail and a
    /// draining take returns `None` when the queue is empty.
    stopping: AtomicBool,
    arena: Arc<Arena>,
    epoch: Instant,
    next_job: AtomicU64,
    next_client: AtomicUsize,
    metrics: Mutex<Metrics>,
}

impl Shared {
    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// A long-lived sort service over a persistent rank pool. See the crate
/// docs for the full model and a quick-start example.
pub struct SortService {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

/// A handle for submitting jobs; obtain one per client thread via
/// [`SortService::client`].
pub struct ServiceClient {
    shared: Arc<Shared>,
    client_id: usize,
}

impl SortService {
    /// Spawn the resident rank pool and the dispatcher, ready for jobs.
    ///
    /// # Panics
    ///
    /// If `cfg.ranks` or `cfg.cores_per_node` is zero. The world is built
    /// here, on the caller's thread, so a configuration no world can run
    /// fails at the call site — not inside the dispatcher, where it would
    /// leave a service that accepts jobs no one will ever run.
    pub fn start(cfg: ServiceConfig) -> Self {
        let mut world = ThreadWorld::new(cfg.ranks)
            .cores_per_node(cfg.cores_per_node)
            .memory_budget(cfg.memory_budget)
            .resident();
        let shared = Arc::new(Shared {
            queue: Mailbox::new(cfg.queue_capacity),
            stopping: AtomicBool::new(false),
            arena: Arc::new(Arena::new(cfg.ranks, cfg.arena_buffers_per_rank)),
            epoch: Instant::now(),
            next_job: AtomicU64::new(0),
            next_client: AtomicUsize::new(0),
            metrics: Mutex::new(Metrics {
                counters: ServiceCounters::default(),
                queue_waits: LogHistogram::new(),
                latencies: LogHistogram::new(),
                sort_walls: LogHistogram::new(),
                generates: LogHistogram::new(),
            }),
        });
        let shared2 = Arc::clone(&shared);
        let dispatcher = std::thread::Builder::new()
            .name("sortsvc-dispatcher".to_owned())
            .spawn(move || {
                // The resident world lives on the dispatcher thread from
                // here on: gangs are strictly sequential by construction.
                while let Some(env) =
                    shared2
                        .queue
                        .take(QUEUE_CTX, SrcSel::Any, JOB_TAG, &shared2.stopping)
                {
                    let queued = env
                        .data
                        .downcast::<Queued>()
                        .expect("submission envelopes carry Queued payloads");
                    run_one(&shared2, &cfg, &mut world, *queued);
                }
            })
            .expect("spawn sortsvc dispatcher thread");
        Self {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// A new client handle. Handles are independent (distinct mailbox
    /// sources) and may live on different threads.
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            shared: Arc::clone(&self.shared),
            client_id: self.shared.next_client.fetch_add(1, Ordering::SeqCst),
        }
    }

    /// Snapshot of the service counters (arena stats included).
    pub fn counters(&self) -> ServiceCounters {
        let mut c = self
            .shared
            .metrics
            .lock()
            .expect("service metrics mutex poisoned")
            .counters;
        c.arena_hits = self.shared.arena.hits();
        c.arena_misses = self.shared.arena.misses();
        c
    }

    /// Stop admission, drain the queue, park the world, and aggregate the
    /// lifetime report. Every job accepted before shutdown still resolves.
    pub fn shutdown(mut self) -> ServiceReport {
        self.finish()
    }

    fn finish(&mut self) -> ServiceReport {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.queue.interrupt();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        let wall_s = self.shared.now_s();
        let m = self
            .shared
            .metrics
            .lock()
            .expect("service metrics mutex poisoned");
        let mut counters = m.counters;
        counters.arena_hits = self.shared.arena.hits();
        counters.arena_misses = self.shared.arena.misses();
        ServiceReport {
            counters,
            wall_s,
            jobs_per_sec: counters.completed as f64 / wall_s.max(1e-9),
            queue_wait_p50_s: m.queue_waits.percentile(50.0),
            queue_wait_p99_s: m.queue_waits.percentile(99.0),
            latency_p50_s: m.latencies.percentile(50.0),
            latency_p99_s: m.latencies.percentile(99.0),
            sort_wall_p50_s: m.sort_walls.percentile(50.0),
            generate_p50_s: m.generates.percentile(50.0),
        }
    }
}

impl Drop for SortService {
    fn drop(&mut self) {
        if self.dispatcher.is_some() {
            let _ = self.finish();
        }
    }
}

impl ServiceClient {
    /// This handle's client id (its mailbox source).
    pub fn id(&self) -> usize {
        self.client_id
    }

    fn package(&self, spec: JobSpec) -> (Envelope, JobTicket) {
        let id = self.shared.next_job.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        let bytes = spec.records_per_rank * std::mem::size_of::<u64>();
        let env = Envelope {
            ctx: QUEUE_CTX,
            src: self.client_id,
            tag: JOB_TAG,
            data: Box::new(Queued {
                id,
                spec,
                submitted_s: self.shared.now_s(),
                reply: tx,
            }),
            bytes,
        };
        (env, JobTicket { id, rx })
    }

    fn note_submitted(&self) {
        self.shared
            .metrics
            .lock()
            .expect("service metrics mutex poisoned")
            .counters
            .submitted += 1;
    }

    /// Submit a job, blocking while the queue is full (backpressure).
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, SubmitError> {
        let (env, ticket) = self.package(spec);
        if self.shared.queue.push(env, &self.shared.stopping) {
            self.note_submitted();
            Ok(ticket)
        } else {
            Err(SubmitError::Shutdown)
        }
    }

    /// Submit without blocking: a full queue fails fast with
    /// [`TrySubmitError::QueueFull`] instead of waiting.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobTicket, TrySubmitError> {
        if self.shared.stopping.load(Ordering::SeqCst) {
            return Err(TrySubmitError::Shutdown);
        }
        let (env, ticket) = self.package(spec);
        match self.shared.queue.try_push(env) {
            Ok(()) => {
                self.note_submitted();
                Ok(ticket)
            }
            Err(_env) => {
                self.shared
                    .metrics
                    .lock()
                    .expect("service metrics mutex poisoned")
                    .counters
                    .queue_full += 1;
                Err(TrySubmitError::QueueFull)
            }
        }
    }
}

/// Execute one queued job end to end on the dispatcher thread.
fn run_one(shared: &Arc<Shared>, cfg: &ServiceConfig, world: &mut ResidentWorld, q: Queued) {
    let Queued {
        id,
        spec,
        submitted_s,
        reply,
    } = q;
    let queue_wait_s = shared.now_s() - submitted_s;
    let records = spec.records_per_rank as u64 * cfg.ranks as u64;

    let budget = world.universe().budget();
    let bytes = spec.records_per_rank * std::mem::size_of::<u64>();
    let admit_pressure = (0..cfg.ranks)
        .map(|r| budget.pressure_with(r, bytes, 0))
        .fold(0.0, f64::max);
    if admit_pressure >= SHED_AT {
        let mut m = shared
            .metrics
            .lock()
            .expect("service metrics mutex poisoned");
        m.counters.shed += 1;
        m.queue_waits.record(queue_wait_s);
        drop(m);
        let _ = reply.send(JobOutcome::Shed {
            id,
            pressure: admit_pressure,
            queue_wait_s,
        });
        return;
    }

    let spill_dir =
        (admit_pressure > SPILL_PRESSURE).then(|| cfg.spill_dir.join(format!("job{id}")));
    let spec = Arc::new(spec);
    let gang_spec = Arc::clone(&spec);
    let arena = Arc::clone(&shared.arena);
    let sort_cfg = cfg.sort;
    let t0 = shared.now_s();
    let gang =
        world.run(move |comm| rank_job(comm, &gang_spec, &arena, &sort_cfg, spill_dir.as_deref()));
    let sort_wall_s = shared.now_s() - t0;

    let outcome = match gang {
        Err(e) => JobOutcome::Failed {
            id,
            error: e.message,
        },
        Ok(per_rank) => assemble(
            id,
            &spec,
            per_rank,
            records,
            queue_wait_s,
            sort_wall_s,
            admit_pressure,
        ),
    };
    let mut m = shared
        .metrics
        .lock()
        .expect("service metrics mutex poisoned");
    match &outcome {
        JobOutcome::Sorted { report, .. } => {
            m.counters.completed += 1;
            if report.spilled {
                m.counters.spilled += 1;
            }
            m.queue_waits.record(report.queue_wait_s);
            m.latencies.record(report.latency_s());
            m.sort_walls.record(report.sort_wall_s);
            m.generates.record(report.generate_s);
        }
        JobOutcome::Failed { .. } => m.counters.failed += 1,
        JobOutcome::Shed { .. } => unreachable!("shed handled before dispatch"),
    }
    drop(m);
    let _ = reply.send(outcome);
}

/// One rank's contribution to a job: its generation seconds, its phase
/// stats, and its sorted output when the job asked for data back.
type RankOutcome = Result<(f64, SortStats, Option<Vec<u64>>), String>;

/// Fold per-rank results into one outcome.
fn assemble(
    id: u64,
    spec: &JobSpec,
    per_rank: Vec<RankOutcome>,
    records: u64,
    queue_wait_s: f64,
    sort_wall_s: f64,
    admit_pressure: f64,
) -> JobOutcome {
    // A rank's own failure names the cause; the ranks that only abandoned
    // the sort with it report `PeerOom`.
    let peer = SortError::PeerOom.to_string();
    let failure = per_rank
        .iter()
        .filter_map(|r| r.as_ref().err())
        .min_by_key(|e| **e == peer);
    if let Some(error) = failure {
        let error = error.clone();
        return JobOutcome::Failed { id, error };
    }
    let mut generate_s = 0.0f64;
    let mut stats = Vec::with_capacity(per_rank.len());
    let mut outputs = Vec::with_capacity(per_rank.len());
    for (g, s, o) in per_rank.into_iter().flatten() {
        generate_s = generate_s.max(g);
        stats.push(s);
        outputs.extend(o);
    }
    let maxima = phase_maxima(&stats);
    // The pivot phase's parts come from one rank, the slowest there, so
    // they sum to `pivot_s`.
    let slowest = stats
        .iter()
        .max_by(|a, b| a.pivot_s.total_cmp(&b.pivot_s))
        .copied()
        .unwrap_or_default();
    JobOutcome::Sorted {
        report: JobReport {
            id,
            workload: spec.workload.clone(),
            records,
            queue_wait_s,
            sort_wall_s,
            generate_s,
            pivot_s: maxima.pivot_s,
            local_sort_s: slowest.local_sort_s,
            sample_s: slowest.sample_s,
            select_s: slowest.select_s,
            partition_s: slowest.partition_s,
            exchange_s: maxima.exchange_s,
            local_order_s: maxima.local_order_s,
            spilled: maxima.spilled,
            spill_records: stats.iter().map(|s| s.spill_records as u64).sum(),
            admit_pressure,
        },
        output: spec.return_output.then_some(outputs),
    }
}

/// One rank's share of a job, running on its persistent thread: through
/// the resilient sort when the job was admitted with a `spill_dir`.
fn rank_job(
    comm: &ThreadComm,
    spec: &JobSpec,
    arena: &Arena,
    sort_cfg: &SdsConfig,
    spill_dir: Option<&Path>,
) -> RankOutcome {
    let mut buf = arena.take(comm.rank());
    let generating = Instant::now();
    // A generator error is deterministic in the workload name, so every
    // rank takes this early return together — nobody is left blocked in a
    // collective.
    if let Err(e) = workloads::fill_keys_by_name(
        &spec.workload,
        &mut buf,
        spec.records_per_rank,
        spec.seed,
        comm.rank(),
    ) {
        arena.put(comm.rank(), buf);
        return Err(e);
    }
    let generate_s = generating.elapsed().as_secs_f64();
    // Each job sorts on its own split context: fresh collective sequence
    // numbers, and any stray envelope from a failed job can never match.
    let sub = comm
        .split(Some(0), comm.rank() as i64)
        .expect("every rank passes the same color");
    let out = match spill_dir {
        Some(dir) => sds_sort_resilient(&sub, buf, sort_cfg, dir),
        None => sds_sort(&sub, buf, sort_cfg),
    };
    match out {
        Ok(o) => {
            let stats = o.stats;
            if spec.return_output {
                Ok((generate_s, stats, Some(o.data)))
            } else {
                // Recycle the output buffer as a future input buffer.
                arena.put(comm.rank(), o.data);
                Ok((generate_s, stats, None))
            }
        }
        Err(e) => Err(e.to_string()),
    }
}
