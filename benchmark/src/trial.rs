//! One trial: what a fresh child process of the runner measures.
//!
//! A world trial runs inside the world closure, identically on threads,
//! sockets and the simulator: generate → warm up → repeat
//! `clone input → barrier → t0 → sds_sort → barrier → t1` until the time
//! budget is spent. The sample is rank 0's `t1 − t0` on the
//! communicator's clock; the two barriers make it the slowest rank's time.
//! Every repetition's output is verified outside the clock.

use crate::replay::{staged_sort, ReplayCounts};
use crate::spans::{spans_from_json, spans_to_json, Span, SpanLog};
use crate::verify::{check_output, BenchRecord, Content, RankDigest, DIGEST_WORDS};
use crate::workloads::{Backend, RecordKind, Workload, VERIFIED_JOBS, WARMUP_JOBS, WARMUP_REPS};
use crate::yardstick::{modelled_seconds, Yardstick};
use comm::Communicator;
use sdssort::{sds_sort, Tagged};
use service::{JobOutcome, JobReport, JobSpec, LoadGen, ServiceClient, ServiceConfig, SortService};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use telemetry::Json;

/// What the runner asks of one trial. Crosses into sockets ranks as a
/// tuple (see [`Plan::to_wire`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    /// Measuring time of this trial, in seconds.
    pub seconds: f64,
    pub trial: u32,
    /// Alternate every untraced repetition with a staged replay.
    pub traced: bool,
    /// Fixed small repetition counts and inputs instead of a time budget.
    pub quick: bool,
    /// When the trial's process started, in seconds since the Unix epoch
    /// (`setup_s` is counted from here in every rank process).
    pub started_unix: f64,
}

pub type PlanWire = (String, u64, f64, u32, bool, bool, f64);

impl Plan {
    pub fn to_wire(&self) -> PlanWire {
        (
            self.workload.clone(),
            self.seed,
            self.seconds,
            self.trial,
            self.traced,
            self.quick,
            self.started_unix,
        )
    }

    pub fn from_wire(w: PlanWire) -> Self {
        Plan {
            workload: w.0,
            seed: w.1,
            seconds: w.2,
            trial: w.3,
            traced: w.4,
            quick: w.5,
            started_unix: w.6,
        }
    }
}

pub fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// Repetitions of a quick trial.
const QUICK_REPS: usize = 2;
/// Repetitions a timed trial makes at least, whatever the budget.
const MIN_REPS: usize = 5;

/// What one rank (or the service trial) reports back to the runner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrialOut {
    /// Process start → first timed repetition.
    pub setup_s: f64,
    /// Seconds per timed operation: a sort between its barriers, or a
    /// job's `submit → wait` as its client saw it.
    pub samples: Vec<f64>,
    /// Records sorted (over all ranks) by each timed operation of a world.
    pub sample_keys: Vec<u64>,
    /// Seconds of one yardstick during this trial (see `yardstick.rs`).
    pub yardstick_s: f64,
    /// Records sorted per second over the whole measured loop (service).
    pub loop_keys_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// First failure, for the run's log.
    pub error: Option<String>,
    /// RDFA of every verified output.
    pub rdfa: Vec<f64>,
    /// This process's peak resident set (`VmHWM`), KiB.
    pub peak_rss_kb: u64,
    /// `SortStats` per repetition, maxima over ranks, seconds:
    /// `[pivot, exchange, local_order]`.
    pub stats: Vec<[f64; 3]>,
    /// Seconds per staged-replay repetition (traced trials).
    pub staged: Vec<f64>,
    /// This rank's replay spans (traced trials).
    pub spans: Vec<Span>,
    /// The replay's initial local sort ran the radix kernel.
    pub radix_used: bool,
    /// Bytes this rank sent to others in each replayed exchange.
    pub bytes_sent: Vec<u64>,
}

fn f64s(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::F64(x)).collect())
}

fn f64s_back(j: Option<&Json>) -> Option<Vec<f64>> {
    j?.as_arr()?.iter().map(Json::as_f64).collect()
}

fn u64s(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::U64(x)).collect())
}

fn u64s_back(j: Option<&Json>) -> Option<Vec<u64>> {
    j?.as_arr()?.iter().map(Json::as_u64).collect()
}

impl TrialOut {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("setup_s", Json::F64(self.setup_s)),
            ("samples", f64s(&self.samples)),
            ("sample_keys", u64s(&self.sample_keys)),
            ("yardstick_s", Json::F64(self.yardstick_s)),
            ("loop_keys_per_s", Json::F64(self.loop_keys_per_s)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("error", self.error.clone().into()),
            ("rdfa", f64s(&self.rdfa)),
            ("peak_rss_kb", Json::U64(self.peak_rss_kb)),
            (
                "stats",
                Json::Arr(self.stats.iter().map(|s| f64s(s)).collect()),
            ),
            ("staged", f64s(&self.staged)),
            ("spans", spans_to_json(&self.spans)),
            ("radix_used", Json::Bool(self.radix_used)),
            ("bytes_sent", u64s(&self.bytes_sent)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        Some(TrialOut {
            setup_s: j.get("setup_s")?.as_f64()?,
            samples: f64s_back(j.get("samples"))?,
            sample_keys: u64s_back(j.get("sample_keys"))?,
            yardstick_s: j.get("yardstick_s")?.as_f64()?,
            loop_keys_per_s: j.get("loop_keys_per_s")?.as_f64()?,
            attempted: j.get("attempted")?.as_u64()?,
            failed: j.get("failed")?.as_u64()?,
            error: j.get("error")?.as_str().map(str::to_owned),
            rdfa: f64s_back(j.get("rdfa"))?,
            peak_rss_kb: j.get("peak_rss_kb")?.as_u64()?,
            stats: j
                .get("stats")?
                .as_arr()?
                .iter()
                .map(|s| <[f64; 3]>::try_from(f64s_back(Some(s))?).ok())
                .collect::<Option<_>>()?,
            staged: f64s_back(j.get("staged"))?,
            spans: spans_from_json(j.get("spans")?)?,
            radix_used: j.get("radix_used")?.as_bool()?,
            bytes_sent: u64s_back(j.get("bytes_sent"))?,
        })
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.error.get_or_insert(why);
    }
}

/// Peak resident set of this process in KiB, from `/proc/self/status`.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Start the peak over: set-up's transients (the zipf:1.4 sampler alone
/// builds a 32 MiB table per rank) would otherwise hide the sorts' own
/// peak. Writing 5 to `clear_refs` resets `VmHWM`; where the kernel
/// refuses, the peak covers the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One rank of a world trial; the entry every backend calls.
pub fn rank_trial<C: Communicator>(comm: &C, plan: &Plan) -> String {
    let w = crate::workloads::find(&plan.workload).expect("the runner passes a known workload");
    let out = match w.record {
        RecordKind::U64 => sort_trial::<u64, C>(comm, w, plan),
        RecordKind::Tagged => sort_trial::<Tagged<u64>, C>(comm, w, plan),
    };
    out.to_json().to_string_compact()
}

/// One verified sort between two barriers. Returns the seconds on the
/// communicator's clock and, on every rank alike, the verdict.
struct Rep<T> {
    seconds: f64,
    verdict: Result<f64, String>,
    stats: [f64; 3],
    output: Vec<T>,
    counts: ReplayCounts,
}

/// Publish this rank's digest and `SortStats`, and check the whole output.
fn verify_rep<T: BenchRecord, C: Communicator>(
    comm: &C,
    output: &[T],
    stats: [f64; 3],
    input: Content,
    stable: bool,
) -> (Result<f64, String>, [f64; 3]) {
    let mut words = [0u64; DIGEST_WORDS + 3];
    words[..DIGEST_WORDS].copy_from_slice(&RankDigest::of(output).to_words());
    for (w, s) in words[DIGEST_WORDS..].iter_mut().zip(stats) {
        *w = s.to_bits();
    }
    let all = comm.allgather(std::slice::from_ref(&words));
    let digests: Vec<RankDigest> = all
        .iter()
        .map(|w| {
            RankDigest::from_words(
                w[..DIGEST_WORDS]
                    .try_into()
                    .expect("digest prefix has DIGEST_WORDS words"),
            )
        })
        .collect();
    let mut maxima = [0.0f64; 3];
    for w in &all {
        for (m, bits) in maxima.iter_mut().zip(&w[DIGEST_WORDS..]) {
            *m = m.max(f64::from_bits(*bits));
        }
    }
    (check_output(&digests, input, stable), maxima)
}

fn sort_trial<T: BenchRecord, C: Communicator>(comm: &C, w: &Workload, plan: &Plan) -> TrialOut {
    let cfg = w.sds_config();
    let inputs: Vec<Vec<T>> = w.inputs(plan.seed, plan.trial, plan.quick, comm.rank());
    // The whole input's content, per input: what every output must equal.
    let contents: Vec<Content> = inputs
        .iter()
        .map(|input| {
            let all = comm.allgather(&[RankDigest::of(input).to_words()]);
            all.iter().fold(Content::default(), |acc, w| {
                acc.merge(RankDigest::from_words(w).content)
            })
        })
        .collect();

    let untraced = |k: usize| -> Rep<T> {
        let data = inputs[k].clone();
        comm.barrier();
        let t0 = comm.now();
        let result = sds_sort(comm, data, &cfg);
        comm.barrier();
        let seconds = comm.now() - t0;
        match result {
            Ok(out) => {
                let s = out.stats;
                let (verdict, stats) = verify_rep(
                    comm,
                    &out.data,
                    [s.pivot_s, s.exchange_s, s.local_order_s],
                    contents[k],
                    w.stable,
                );
                Rep {
                    seconds,
                    verdict,
                    stats,
                    output: out.data,
                    counts: ReplayCounts::default(),
                }
            }
            // A sort error is collective: every rank takes this arm.
            Err(e) => Rep {
                seconds,
                verdict: Err(format!("sds_sort: {e}")),
                stats: [0.0; 3],
                output: Vec::new(),
                counts: ReplayCounts::default(),
            },
        }
    };
    let mut log = SpanLog::default();
    let staged = |k: usize, rep: u32, log: &mut SpanLog| -> Rep<T> {
        let data = inputs[k].clone();
        log.set_rep(rep);
        comm.barrier();
        let t0 = comm.now();
        let total = log.open("staged.total", t0);
        let (output, counts) = staged_sort(comm, data, &cfg, log);
        let wait = log.open("staged.tail_wait", comm.now());
        comm.barrier();
        let t1 = comm.now();
        log.close(wait, t1);
        log.close(total, t1);
        let (verdict, stats) = verify_rep(comm, &output, [0.0; 3], contents[k], w.stable);
        Rep {
            seconds: t1 - t0,
            verdict,
            stats,
            output,
            counts,
        }
    };

    let mut out = TrialOut::default();
    for i in 0..WARMUP_REPS {
        let k = i % inputs.len();
        let plain = untraced(k);
        if let Err(e) = &plain.verdict {
            out.fail(format!("warm-up: {e}"));
        }
        // Once per traced trial the replay's output must be bit-identical
        // to sds_sort's, on every rank.
        if plan.traced && i == 0 {
            let replayed = staged(k, u32::MAX, &mut SpanLog::default());
            let differ = replayed.verdict.is_err() || replayed.output != plain.output;
            if comm.allreduce(u8::from(differ), |a, b| a.max(b)) > 0 {
                out.fail("the staged replay's output differs from sds_sort's".to_owned());
            }
        }
    }
    out.attempted = WARMUP_REPS as u64;

    out.setup_s = unix_now() - plan.started_unix;
    reset_peak_rss();
    // One yardstick before every repetition, on every rank at once, as
    // every rank sorts at once; the simulator's is modelled, like its
    // compute.
    let mut yardstick = (w.backend != Backend::Sim).then(Yardstick::new);
    let clock = Instant::now();
    let mut rep = 0usize;
    loop {
        let k = rep % inputs.len();
        if let Some(y) = &mut yardstick {
            y.measure();
        }
        let plain = untraced(k);
        out.attempted += 1;
        out.samples.push(plain.seconds);
        out.sample_keys.push(contents[k].count);
        out.stats.push(plain.stats);
        match plain.verdict {
            Ok(rdfa) => out.rdfa.push(rdfa),
            Err(e) => out.fail(e),
        }
        drop(plain.output);
        if plan.traced {
            let replayed = staged(k, rep as u32, &mut log);
            out.attempted += 1;
            out.staged.push(replayed.seconds);
            out.bytes_sent.push(replayed.counts.bytes_sent);
            // Counts are reported for the first repetition's input, so that
            // they do not depend on how many repetitions the budget allowed.
            if rep == 0 {
                out.radix_used = replayed.counts.radix_used;
            }
            if let Err(e) = replayed.verdict {
                out.fail(format!("staged replay: {e}"));
            }
        }
        rep += 1;
        // Every rank leaves the loop on the same repetition.
        let spent = comm.allreduce(clock.elapsed().as_secs_f64(), f64::max);
        let done = if plan.quick {
            rep >= QUICK_REPS
        } else {
            rep >= MIN_REPS && spent >= plan.seconds
        };
        if done {
            break;
        }
    }
    out.yardstick_s = yardstick.map_or_else(modelled_seconds, |y| y.seconds());
    out.peak_rss_kb = peak_rss_kb();
    out.spans = log.into_spans();
    out
}

// ---- the service's closed loop -------------------------------------------

/// One finished job as its client saw it.
pub struct ClientJob {
    /// `submit → wait` on the client's clock.
    pub latency_s: f64,
    /// `None` when the job was shed or failed.
    pub report: Option<JobReport>,
}

/// When a closed loop stops taking new jobs.
#[derive(Clone, Copy)]
pub enum Until {
    Jobs(u64),
    Elapsed(Duration),
}

/// `clients` threads each `submit → wait → next` jobs `first..` of `lg`
/// until `until`. Closed, because clients are in-process callers that
/// block on their ticket. Returns the jobs and the loop's wall seconds.
pub fn closed_loop(
    svc: &SortService,
    lg: &LoadGen,
    clients: usize,
    first: u64,
    until: Until,
) -> (Vec<ClientJob>, f64) {
    let next = AtomicU64::new(first);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let jobs: Vec<ClientJob> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let client: ServiceClient = svc.client();
                let (next, stop) = (&next, &stop);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        let j = next.fetch_add(1, Ordering::SeqCst);
                        let over = match until {
                            Until::Jobs(n) => j >= first + n,
                            Until::Elapsed(d) => start.elapsed() >= d,
                        };
                        if over {
                            stop.store(true, Ordering::SeqCst);
                            break;
                        }
                        mine.push(run_job(&client, lg.spec(j)).0);
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    (jobs, start.elapsed().as_secs_f64())
}

fn run_job(client: &ServiceClient, spec: JobSpec) -> (ClientJob, Option<Vec<Vec<u64>>>) {
    let t = Instant::now();
    let outcome = client.submit(spec).map(service::JobTicket::wait);
    let latency_s = t.elapsed().as_secs_f64();
    let (report, output) = match outcome {
        Ok(JobOutcome::Sorted { report, output }) => (Some(report), output),
        _ => (None, None),
    };
    (ClientJob { latency_s, report }, output)
}

/// Untimed pass: `count` jobs with their output returned, each checked
/// like a world repetition against the keys the job names.
pub fn verified_jobs(
    svc: &SortService,
    lg: &LoadGen,
    ranks: usize,
    first: u64,
    count: u64,
    out: &mut TrialOut,
) {
    let client = svc.client();
    for j in first..first + count {
        let spec = lg.spec(j);
        out.attempted += 1;
        let Some(slices) = run_job(&client, spec.clone().with_output()).1 else {
            out.fail(format!("job {j} did not return a sorted output"));
            continue;
        };
        let input = (0..ranks).fold(Content::default(), |c, r| {
            let keys = workloads::keys_by_name(&spec.workload, spec.records_per_rank, spec.seed, r)
                .expect("the load generator names a valid workload");
            c.merge(Content::of(&keys))
        });
        let digests: Vec<RankDigest> = slices.iter().map(|s| RankDigest::of(s)).collect();
        match check_output(&digests, input, false) {
            Ok(rdfa) => out.rdfa.push(rdfa),
            Err(e) => out.fail(format!("job {j}: {e}")),
        }
    }
}

/// Segments of a service trial's timed loop.
const SEGMENTS: usize = 8;
/// Yardsticks each thread takes between two segments (≈ 4 ms).
const YARDSTICKS_PER_PAUSE: usize = 3;

/// Index of the first verified job: fixed, and beyond any timed loop's
/// reach, so the jobs verified (and their RDFA) do not depend on how many
/// jobs the loop completed.
const VERIFIED_FIRST: u64 = 1 << 40;

/// The `service-closed-loop` trial, run by the trial process itself.
pub fn service_trial(w: &Workload, plan: &Plan) -> TrialOut {
    assert_eq!(w.backend, Backend::Service);
    let ranks = w.ranks();
    let lg = w.load_gen(plan.seed, plan.trial);
    let svc = SortService::start(ServiceConfig::new(ranks));
    let mut out = TrialOut::default();

    let warmup = if plan.quick { 10 } else { WARMUP_JOBS as u64 };
    let (warm, _) = closed_loop(&svc, &lg, ranks, 0, Until::Jobs(warmup));
    out.setup_s = unix_now() - plan.started_unix;
    reset_peak_rss();
    // The loop runs in segments; between them, while the service is idle,
    // one thread per rank takes a few yardsticks.
    let mut yardsticks: Vec<Yardstick> = (0..ranks).map(|_| Yardstick::new()).collect();
    let mut take_yardsticks = || {
        std::thread::scope(|scope| {
            for y in &mut yardsticks {
                scope.spawn(|| (0..YARDSTICKS_PER_PAUSE).for_each(|_| y.measure()));
            }
        });
    };
    let segment = if plan.quick {
        Until::Jobs(100)
    } else {
        Until::Elapsed(Duration::from_secs_f64(plan.seconds / SEGMENTS as f64))
    };
    let mut jobs = Vec::new();
    let mut wall_s = 0.0;
    for seg in 0..if plan.quick { 1 } else { SEGMENTS } {
        take_yardsticks();
        // Disjoint job indices per segment, whatever the segments complete.
        let first = warmup + ((seg as u64) << 20);
        let (done, seconds) = closed_loop(&svc, &lg, ranks, first, segment);
        jobs.extend(done);
        wall_s += seconds;
    }
    take_yardsticks();
    out.yardstick_s = yardsticks[0].seconds();
    let mut records = 0u64;
    for job in warm.iter().chain(&jobs) {
        out.attempted += 1;
        if job.report.is_none() {
            out.fail("a job was shed or failed".to_owned());
        }
    }
    for job in &jobs {
        out.samples.push(job.latency_s);
        records += job.report.as_ref().map_or(0, |r| r.records);
    }
    out.loop_keys_per_s = records as f64 / wall_s;

    let count = if plan.quick { 5 } else { VERIFIED_JOBS as u64 };
    verified_jobs(&svc, &lg, ranks, VERIFIED_FIRST, count, &mut out);
    let report = svc.shutdown();
    if !report.counters.balanced() {
        out.fail("the service lost track of a job".to_owned());
    }
    out.peak_rss_kb = peak_rss_kb();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_out_round_trips() {
        let out = TrialOut {
            setup_s: 0.25,
            samples: vec![0.07, 0.071],
            sample_keys: vec![1 << 22, 1 << 22],
            yardstick_s: 0.0014,
            loop_keys_per_s: 1.5e6,
            attempted: 5,
            failed: 1,
            error: Some("rank 1: slice is not sorted".to_owned()),
            rdfa: vec![1.02],
            peak_rss_kb: 123_456,
            stats: vec![[0.04, 0.01, 0.015]],
            staged: vec![0.072],
            spans: vec![Span {
                name: "staged.total".to_owned(),
                start: 1.0,
                end: 1.072,
                parent: None,
                rep: 0,
            }],
            radix_used: true,
            bytes_sent: vec![8 << 20],
        };
        let text = out.to_json().to_string_compact();
        let back = TrialOut::from_json(&Json::parse(&text).expect("valid json"));
        assert_eq!(back, Some(out));
        let plan = Plan {
            workload: "threads-zipf".to_owned(),
            seed: 9,
            seconds: 2.5,
            trial: 2,
            traced: true,
            quick: false,
            started_unix: 1.7e9,
        };
        assert_eq!(Plan::from_wire(plan.to_wire()), plan);
    }
}
