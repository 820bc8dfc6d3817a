//! The runner: launches each trial in a fresh child process, pools the
//! trials' samples and turns them into the named metrics.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::replay::LAYER_ROWS;
use crate::spans::{chrome_events, layer_times, Span};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trial::TrialOut;
use crate::workloads::{Backend, Workload, TRIALS};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use telemetry::Json;

/// glibc's documented default mmap threshold. Setting it also switches off
/// glibc's *dynamic* threshold, under which one binary is bimodal per
/// process (16 MiB buffers either recycled or re-faulted, depending on
/// allocation order). Pinned, every repetition pays for fresh pages — what
/// a one-shot caller pays.
pub const MALLOC_ENV: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "131072");

/// The benchmark's directory (fixed when it is built, in the checkout it
/// runs from).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Everything the benchmark writes goes here.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measurement {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// `(name, value)` of every end-to-end metric (untraced run) or every
    /// per-layer metric (traced run), in catalog order.
    pub metrics: Vec<(String, f64)>,
    /// Pooled timing samples behind the latency metrics.
    pub samples: usize,
}

impl Measurement {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Measuring time of one run, split evenly over its trials.
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

/// Run `exec <args>` in a fresh child process with the allocator pinned and
/// its scratch files under `out/`; the last line of its standard output is
/// its result.
fn exec_child(args: &[String]) -> Result<Json, String> {
    let out = out_dir();
    // A short relative TMPDIR keeps Unix-socket paths inside the checkout
    // and under the 108-byte limit wherever the checkout lives.
    std::fs::create_dir_all(out.join("t")).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .arg("exec")
        .args(args)
        .env(MALLOC_ENV.0, MALLOC_ENV.1)
        .env("TMPDIR", "t")
        .current_dir(&out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&child.stdout);
    let last = text.lines().last().unwrap_or("");
    if !child.status.success() {
        return Err(format!("child exited with {}: {last}", child.status));
    }
    Json::parse(last).map_err(|e| format!("child printed no result: {e}"))
}

/// One trial: per-rank results, rank 0 first.
fn run_trial(
    w: &Workload,
    opts: RunOpts,
    trial: usize,
    trials: usize,
) -> Result<Vec<TrialOut>, String> {
    let mut args = vec![
        "--workload".to_owned(),
        w.name.to_owned(),
        "--seed".to_owned(),
        opts.seed.to_string(),
        "--seconds".to_owned(),
        (opts.seconds / trials as f64).to_string(),
        "--trial".to_owned(),
        trial.to_string(),
        "--trace".to_owned(),
        u8::from(opts.traced).to_string(),
    ];
    if opts.quick {
        args.push("--quick".to_owned());
    }
    let doc = exec_child(&args)?;
    doc.get("ranks")
        .and_then(Json::as_arr)
        .ok_or("trial result has no ranks")?
        .iter()
        .map(|r| TrialOut::from_json(r).ok_or_else(|| "malformed rank result".to_owned()))
        .collect()
}

/// The layer suite's rows, or why it did not run.
pub type SuiteRows = Result<Vec<(String, f64)>, String>;

/// Run the layer suite in its own fresh process.
pub fn suite_rows(opts: RunOpts) -> SuiteRows {
    let mut args = vec![
        "--suite".to_owned(),
        "--seed".to_owned(),
        opts.seed.to_string(),
    ];
    if opts.quick {
        args.push("--quick".to_owned());
    }
    let doc = exec_child(&args)?;
    Ok(doc
        .as_obj()
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, v)| Some((name.clone(), v.as_f64()?)))
        .collect())
}

/// Measure one workload once: `TRIALS` fresh processes, samples pooled. A
/// traced run also needs the layer suite's rows, which do not depend on the
/// workload: `suite` passes rows taken earlier, `None` takes them now.
pub fn measure(w: &Workload, opts: RunOpts, suite: Option<&SuiteRows>) -> Measurement {
    let trials_wanted = if opts.quick { 1 } else { TRIALS };
    let mut m = Measurement::default();
    let mut trials: Vec<Vec<TrialOut>> = Vec::new();
    for t in 0..trials_wanted {
        match run_trial(w, opts, t, trials_wanted) {
            Ok(ranks) if !ranks.is_empty() => trials.push(ranks),
            Ok(_) => m.fail(format!("trial {t}: no ranks reported")),
            Err(e) => m.fail(format!("trial {t}: {e}")),
        }
    }
    // A dead trial is one failed operation; so is every failed check a
    // surviving trial counted.
    m.attempted = m.failed;
    for ranks in &trials {
        let lead = &ranks[0];
        m.attempted += lead.attempted;
        m.failed += lead.failed;
        m.errors.extend(lead.error.clone());
    }
    if trials.is_empty() {
        return m;
    }
    let lead = |f: fn(&TrialOut) -> &Vec<f64>| -> Vec<f64> {
        trials
            .iter()
            .flat_map(|r| f(&r[0]).iter().copied())
            .collect()
    };
    let samples = lead(|t| &t.samples);
    m.samples = samples.len();
    if samples.is_empty() {
        m.fail("no timed repetition completed".to_owned());
        return m;
    }
    // Virtual time repeats, but not to the bit: the order in which host
    // threads deliver chunks to wait_any decides which merges run when
    // (observed: 1.2e-4 apart).
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-3 * b.abs();
    if w.backend == Backend::Sim && samples.iter().any(|&s| !close(s, samples[0])) {
        m.fail("virtual time differs between repetitions".to_owned());
    }
    let rdfa = lead(|t| &t.rdfa);
    if w.backend != Backend::Service && rdfa.iter().any(|&r| r != rdfa[0]) {
        m.fail("RDFA differs between repetitions of one input".to_owned());
    }

    if opts.traced {
        let fresh;
        let suite = match suite {
            Some(rows) => rows,
            None => {
                fresh = suite_rows(opts);
                &fresh
            }
        };
        per_layer(w, suite, &trials, &samples, &mut m);
    } else {
        end_to_end(w, &trials, &rdfa, &mut m);
    }
    m
}

/// A run's pooled timing, in a unit of time that may differ per trial.
struct Timing {
    p50: f64,
    tail: f64,
    keys_per_unit: f64,
}

/// Pool the trials' samples, each divided by `unit(trial)` seconds: 1 for
/// wall-clock seconds, the trial's yardstick for yardsticks.
fn timing(w: &Workload, trials: &[Vec<TrialOut>], unit: impl Fn(&TrialOut) -> f64) -> Timing {
    let leads = || trials.iter().map(|ranks| &ranks[0]);
    let scaled: Vec<f64> = leads()
        .flat_map(|t| t.samples.iter().map(|s| s / unit(t)))
        .collect();
    let keys_per_unit = match w.backend {
        // Throughput of a closed loop is a property of the loop.
        Backend::Service => median(
            &leads()
                .map(|t| t.loop_keys_per_s * unit(t))
                .collect::<Vec<_>>(),
        ),
        _ => median(
            &leads()
                .flat_map(|t| {
                    t.samples
                        .iter()
                        .zip(&t.sample_keys)
                        .map(|(s, &keys)| keys as f64 / (s / unit(t)))
                })
                .collect::<Vec<_>>(),
        ),
    };
    Timing {
        p50: median(&scaled),
        tail: percentile(&scaled, f64::from(w.tail_pct)),
        keys_per_unit,
    }
}

fn end_to_end(w: &Workload, trials: &[Vec<TrialOut>], rdfa: &[f64], m: &mut Measurement) {
    let yd = timing(w, trials, |t| t.yardstick_s);
    let peak_kb = trials
        .iter()
        .flatten()
        .map(|t| t.peak_rss_kb)
        .max()
        .unwrap_or(0);
    let setup = median(&trials.iter().map(|r| r[0].setup_s).collect::<Vec<_>>());
    let values = [
        setup,
        yd.keys_per_unit,
        yd.p50,
        yd.tail,
        peak_kb as f64 / 1024.0,
        median(rdfa),
    ];
    m.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| (d.name.to_owned(), v))
        .collect();
}

fn per_layer(
    w: &Workload,
    suite: &SuiteRows,
    trials: &[Vec<TrialOut>],
    samples: &[f64],
    m: &mut Measurement,
) {
    let mut rows: Vec<(&str, f64)> = Vec::new();

    // Replay rows: per repetition the maximum over ranks of a layer's self
    // time, then the median over the repetitions of every trial.
    let mut per_rep: Vec<Vec<f64>> = vec![Vec::new(); LAYER_ROWS.len()];
    let mut gbps = Vec::new();
    let mut events = Vec::new();
    for (t, ranks) in trials.iter().enumerate() {
        let spans: Vec<&[Span]> = ranks.iter().map(|r| r.spans.as_slice()).collect();
        let times = layer_times(&spans);
        let time = |rep: usize, name: &str| times.get(&(rep as u32, name)).copied().unwrap_or(0.0);
        for rep in 0..ranks[0].staged.len() {
            for (row, (span_name, _)) in per_rep.iter_mut().zip(LAYER_ROWS) {
                row.push(time(rep, span_name));
            }
            let sent: u64 = ranks.iter().map(|r| r.bytes_sent[rep]).sum();
            let exchange_s = time(rep, "comm.exchange");
            // A single rank exchanges nothing.
            gbps.push(if exchange_s > 0.0 {
                sent as f64 / exchange_s / 1e9
            } else {
                0.0
            });
        }
        events.extend(chrome_events(w.name, t as u32, &spans));
    }
    if let Err(e) = write_trace(w.name, events) {
        m.fail(format!("trace file: {e}"));
    }
    let lead = &trials[0];
    let staged: Vec<f64> = trials
        .iter()
        .flat_map(|r| r[0].staged.iter().copied())
        .collect();
    for ((_, metric), values) in LAYER_ROWS.iter().zip(&per_rep) {
        rows.push((metric, median(values) * 1e3));
    }
    // First repetition's exchange: the same bytes whatever the budget.
    let sent_first: u64 = lead.iter().filter_map(|r| r.bytes_sent.first()).sum();
    rows.push((
        "sdssort.local_sort.radix_used",
        f64::from(u8::from(lead[0].radix_used)),
    ));
    rows.push((
        "comm.exchange.mb_sent",
        sent_first as f64 / f64::from(1 << 20),
    ));
    rows.push(("comm.exchange.gbps", median(&gbps)));
    rows.push(("staged.total.ms", median(&staged) * 1e3));
    rows.push(("staged.explained_frac", median(&staged) / median(samples)));
    let stats: Vec<[f64; 3]> = trials.iter().flat_map(|r| r[0].stats.clone()).collect();
    for (i, metric) in [
        "sdssort.stats.pivot_ms",
        "sdssort.stats.exchange_ms",
        "sdssort.stats.local_order_ms",
    ]
    .into_iter()
    .enumerate()
    {
        let col: Vec<f64> = stats.iter().map(|s| s[i]).collect();
        rows.push((metric, median(&col) * 1e3));
    }
    let wall = timing(w, trials, |_| 1.0);
    let yardstick = median(&trials.iter().map(|r| r[0].yardstick_s).collect::<Vec<_>>());
    rows.push(("wall.keys_per_s", wall.keys_per_unit));
    rows.push(("wall.latency_p50_ms", wall.p50 * 1e3));
    rows.push(("wall.latency_tail_ms", wall.tail * 1e3));
    rows.push(("wall.yardstick_ms", yardstick * 1e3));

    m.attempted += 1;
    match suite {
        Ok(suite) => {
            for (name, v) in suite {
                if let Some(d) = crate::metrics::find(name) {
                    rows.push((d.name, *v));
                }
            }
        }
        Err(e) => m.fail(format!("layer suite: {e}")),
    }

    for d in &PER_LAYER {
        match rows.iter().find(|(n, _)| *n == d.name) {
            Some(&(_, v)) if v.is_finite() => m.metrics.push((d.name.to_owned(), v)),
            _ => m.fail(format!("per-layer metric {} was not measured", d.name)),
        }
    }
}

fn write_trace(workload: &str, events: Vec<Json>) -> std::io::Result<()> {
    let doc = Json::obj(vec![
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(events)),
    ]);
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(
        out_dir().join(format!("trace_{workload}.json")),
        doc.to_string_compact(),
    )
}

/// Whether `n` pooled samples support the workload's tail percentile.
pub fn tail_supported(w: &Workload, n: usize) -> bool {
    highest_supported_percentile(n).is_some_and(|q| q >= w.tail_pct)
}

/// The contract's result line for one run.
pub fn contract_line(m: &Measurement) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::U64(m.attempted.max(1))),
        ("failed", Json::U64(m.failed)),
        ("metrics", crate::metrics::metrics_json(&m.metrics)),
    ])
    .to_string_compact()
}
