//! The result document (`run`), and the two commands that read it: `diff`
//! and the A/A self-check.

use crate::metrics::{metrics_json, print_metrics, Better, END_TO_END, EXACT, PER_LAYER};
use crate::runner::{
    bench_dir, measure, suite_rows, tail_supported, Measurement, RunOpts, SuiteRows, MALLOC_ENV,
};
use crate::stats::{quartiles, relative_spread};
use crate::workloads::{real_ranks, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;
use telemetry::Json;

pub const SCHEMA: &str = "sdsbench/1";

/// One workload's results in one set of runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    /// Pooled timing samples behind the latency metrics, and whether they
    /// support the tail percentile (ten samples beyond it).
    pub samples: u64,
    pub tail_pct: u32,
    pub tail_supported: bool,
    pub end_to_end: Vec<(String, f64)>,
    pub per_layer: Vec<(String, f64)>,
}

impl WorkloadResult {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A result document: `sets` complete runs of every workload on one tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    pub quick: bool,
    pub meta: Vec<(String, Json)>,
    pub sets: Vec<Vec<WorkloadResult>>,
}

fn metric_map_back(j: &Json) -> Option<Vec<(String, f64)>> {
    j.as_obj()?
        .iter()
        .map(|(name, v)| Some((name.clone(), v.get("value")?.as_f64()?)))
        .collect()
}

impl Document {
    pub fn to_json(&self) -> Json {
        let sets = self
            .sets
            .iter()
            .map(|set| {
                Json::Arr(
                    set.iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("name", w.name.clone().into()),
                                ("attempted", Json::U64(w.attempted)),
                                ("failed", Json::U64(w.failed)),
                                ("failed_frac", Json::F64(w.failed_frac())),
                                ("samples", Json::U64(w.samples)),
                                ("tail_pct", Json::U64(u64::from(w.tail_pct))),
                                ("tail_supported", Json::Bool(w.tail_supported)),
                                ("end_to_end", metrics_json(&w.end_to_end)),
                                ("per_layer", metrics_json(&w.per_layer)),
                            ])
                        })
                        .collect(),
                )
            })
            .collect();
        Json::obj(vec![
            ("schema", SCHEMA.into()),
            ("quick", Json::Bool(self.quick)),
            ("meta", Json::Obj(self.meta.clone())),
            ("sets", Json::Arr(sets)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        if j.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let parse = || -> Option<Document> {
            let sets = j
                .get("sets")?
                .as_arr()?
                .iter()
                .map(|set| {
                    set.as_arr()?
                        .iter()
                        .map(|w| {
                            Some(WorkloadResult {
                                name: w.get("name")?.as_str()?.to_owned(),
                                attempted: w.get("attempted")?.as_u64()?,
                                failed: w.get("failed")?.as_u64()?,
                                samples: w.get("samples")?.as_u64()?,
                                tail_pct: u32::try_from(w.get("tail_pct")?.as_u64()?).ok()?,
                                tail_supported: w.get("tail_supported")?.as_bool()?,
                                end_to_end: metric_map_back(w.get("end_to_end")?)?,
                                per_layer: metric_map_back(w.get("per_layer")?)?,
                            })
                        })
                        .collect()
                })
                .collect::<Option<_>>()?;
            Some(Document {
                quick: j.get("quick")?.as_bool()?,
                meta: j.get("meta")?.as_obj()?.to_vec(),
                sets,
            })
        };
        parse().ok_or_else(|| "malformed result document".to_owned())
    }

    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let j = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&j).map_err(|e| format!("{path}: {e}"))
    }

    /// Every set's value of one metric on one workload.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.sets
            .iter()
            .filter_map(|set| set.iter().find(|w| w.name == workload))
            .filter_map(|w| {
                w.end_to_end
                    .iter()
                    .chain(&w.per_layer)
                    .find(|(n, _)| n == metric)
                    .map(|(_, v)| *v)
            })
            .collect()
    }

    fn worst_failed_frac(&self, workload: &str) -> f64 {
        self.sets
            .iter()
            .filter_map(|set| set.iter().find(|w| w.name == workload))
            .map(WorkloadResult::failed_frac)
            .fold(0.0, f64::max)
    }
}

// ---- BENCHMARK.json ---------------------------------------------------------

pub fn benchmark_json() -> Result<Json, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The bound of every end-to-end metric: the share of the base's median by
/// which it may worsen.
pub fn bounds(benchmark: &Json) -> BTreeMap<String, f64> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

// ---- meta ---------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

/// Where and how the numbers were taken.
pub fn meta(seed: u64, seconds: f64) -> Vec<(String, Json)> {
    let dir = bench_dir();
    let git_rev = command_line(
        "git",
        &["-C", &dir.to_string_lossy(), "rev-parse", "--short", "HEAD"],
    );
    let cpu_model = read_trimmed("/proc/cpuinfo").and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
    });
    let cache = |index: u32| {
        read_trimmed(&format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        ))
    };
    let unknown = |v: Option<String>| Json::Str(v.unwrap_or_else(|| "unknown".to_owned()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pairs: Vec<(&str, Json)> = vec![
        ("git_rev", unknown(git_rev)),
        ("rustc", unknown(command_line("rustc", &["-V"]))),
        ("nproc", Json::U64(nproc as u64)),
        ("cpu_model", unknown(cpu_model)),
        ("l2_per_core", unknown(cache(2))),
        // A guest may report the host's L3, which it does not own.
        ("l3_reported", unknown(cache(3))),
        ("p", Json::U64(real_ranks() as u64)),
        ("seed", Json::U64(seed)),
        ("seconds_per_run", Json::F64(seconds)),
        (
            "malloc_env",
            format!("{}={}", MALLOC_ENV.0, MALLOC_ENV.1).into(),
        ),
        // Compile time, kept out of every metric (run.sh measures it).
        (
            "build_s",
            std::env::var("SDSBENCH_BUILD_S")
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .into(),
        ),
    ];
    pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

// ---- run ------------------------------------------------------------------------

fn print_measurement(m: &Measurement) {
    print_metrics(&m.metrics);
    for e in &m.errors {
        println!("    FAILED: {e}");
    }
}

/// Measure one workload for the document: end-to-end with the replay off,
/// then the traced run.
pub fn run_workload(w: &Workload, mut opts: RunOpts, suite: &SuiteRows) -> WorkloadResult {
    println!("  {} — {}", w.name, w.why);
    opts.traced = false;
    let plain = measure(w, opts, None);
    println!(
        "   end to end ({} samples, tail p{}{}):",
        plain.samples,
        w.tail_pct,
        if tail_supported(w, plain.samples) {
            ""
        } else {
            ", fewer than ten samples beyond it"
        }
    );
    print_measurement(&plain);
    opts.traced = true;
    let traced = measure(w, opts, Some(suite));
    println!("   per layer:");
    print_measurement(&traced);
    WorkloadResult {
        name: w.name.to_owned(),
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        samples: plain.samples as u64,
        tail_pct: w.tail_pct,
        tail_supported: tail_supported(w, plain.samples),
        end_to_end: plain.metrics,
        per_layer: traced.metrics,
    }
}

/// `sets` complete runs of every workload; workload order alternates
/// between sets so that neighbours differ.
pub fn run_sets(opts: RunOpts, sets: usize) -> Document {
    let mut doc = Document {
        quick: opts.quick,
        meta: meta(opts.seed, opts.seconds),
        sets: Vec::new(),
    };
    for s in 0..sets {
        println!("set {} of {sets}", s + 1);
        // The layer suite does not depend on the workload: once per set.
        let suite = suite_rows(opts);
        let mut order: Vec<&Workload> = WORKLOADS.iter().collect();
        if s % 2 == 1 {
            order.reverse();
        }
        let mut results: Vec<WorkloadResult> = order
            .into_iter()
            .map(|w| run_workload(w, opts, &suite))
            .collect();
        results.sort_by_key(|r| WORKLOADS.iter().position(|w| w.name == r.name));
        doc.sets.push(results);
    }
    doc
}

// ---- diff -----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare the runs of one (metric, workload) pair: `base` against
/// `change`. Worse by more than `bound` of the base's median is a
/// regression, better by more than it an improvement — unless the runs'
/// spread is wider than the bound and the two sides' runs overlap, which
/// resolves nothing either way.
pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (_, a, _) = quartiles(base);
    let (_, b, _) = quartiles(change);
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let overlap = min(base) <= max(change) && min(change) <= max(base);
    let wide = relative_spread(base).max(relative_spread(change)) > bound;
    if worse_by.abs() > bound && wide && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else if wide && overlap && base.len() > 1 {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn quartile_text(values: &[f64]) -> String {
    let (q1, med, q3) = quartiles(values);
    if values.len() < 2 {
        format!("{med:.6}")
    } else {
        format!("{med:.6} [{q1:.6}, {q3:.6}]")
    }
}

/// Print one row per (end-to-end metric, workload) — never an average
/// across workloads — and return whether anything regressed.
pub fn diff(
    base: &Document,
    change: &Document,
    bounds: &BTreeMap<String, f64>,
) -> Result<bool, String> {
    if base.quick != change.quick {
        return Err("a --quick document does not compare with a full one".to_owned());
    }
    println!(
        "base: {} set(s); change: {} set(s); values are medians [q1, q3] over sets",
        base.sets.len(),
        change.sets.len()
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        for d in &END_TO_END {
            let (a, b) = (base.values(w.name, d.name), change.values(w.name, d.name));
            if a.is_empty() || b.is_empty() {
                println!("{:<22} {:<16} missing on one side", w.name, d.name);
                regressed = true;
                continue;
            }
            let bound = bounds.get(d.name).copied().unwrap_or(0.0);
            let v = verdict(&a, &b, d.better, bound);
            regressed |= v == Verdict::Regressed;
            let (_, ma, _) = quartiles(&a);
            let (_, mb, _) = quartiles(&b);
            println!(
                "{:<22} {:<16} base {} -> change {} {}; change/base = {:.4} (base {:.6} {}, {} is better, bound {:.1}%): {}",
                w.name,
                d.name,
                quartile_text(&a),
                quartile_text(&b),
                d.unit,
                mb / ma,
                ma,
                d.unit,
                d.better.as_str(),
                bound * 100.0,
                v.as_str()
            );
        }
        let (fa, fb) = (
            base.worst_failed_frac(w.name),
            change.worst_failed_frac(w.name),
        );
        if fb > fa {
            println!(
                "{:<22} failed_frac      base {fa} -> change {fb}: regressed",
                w.name
            );
            regressed = true;
        }
    }
    Ok(regressed)
}

// ---- A/A ------------------------------------------------------------------------

/// Check that the sets of one document agree: every pair of sets within
/// the bound on every (end-to-end metric, workload) pair, every exact
/// metric equal, nothing failed. Returns the disagreements.
pub fn aa_check(doc: &Document, bounds: &BTreeMap<String, f64>) -> Vec<String> {
    let mut problems = Vec::new();
    for w in &WORKLOADS {
        if doc.worst_failed_frac(w.name) > 0.0 {
            problems.push(format!("{}: failed_frac > 0", w.name));
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let values = doc.values(w.name, d.name);
            if values.len() != doc.sets.len() {
                problems.push(format!("{} {}: missing in a set", w.name, d.name));
                continue;
            }
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if EXACT.contains(&d.name) {
                if lo != hi {
                    problems.push(format!(
                        "{} {}: a count differs between sets: {values:?}",
                        w.name, d.name
                    ));
                }
            } else if let Some(&bound) = bounds.get(d.name) {
                // Worst pairwise difference, relative to the better value.
                let base = match d.better {
                    Better::Lower => lo,
                    Better::Higher => hi,
                };
                let apart = (hi - lo) / base.abs();
                if apart > bound {
                    problems.push(format!(
                        "{} {}: sets are {:.2}% apart, bound {:.1}%: {values:?}",
                        w.name,
                        d.name,
                        apart * 100.0,
                        bound * 100.0
                    ));
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, keys_per_yd: f64) -> WorkloadResult {
        WorkloadResult {
            name: name.to_owned(),
            attempted: 48,
            failed: 0,
            samples: 90,
            tail_pct: 75,
            tail_supported: true,
            end_to_end: vec![
                ("keys_per_yd".to_owned(), keys_per_yd),
                ("rdfa".to_owned(), 1.0004),
            ],
            per_layer: vec![("comm.exchange.mb_sent".to_owned(), 7.99)],
        }
    }

    fn doc(sets: Vec<Vec<WorkloadResult>>) -> Document {
        Document {
            quick: false,
            meta: vec![
                ("git_rev".to_owned(), "abc1234".into()),
                ("build_s".to_owned(), Json::Null),
            ],
            sets,
        }
    }

    #[test]
    fn document_round_trips_through_text() {
        let d = doc(vec![
            vec![
                result("threads-uniform", 6.0e7),
                result("threads-zipf", 7.1e7),
            ],
            vec![
                result("threads-uniform", 6.1e7),
                result("threads-zipf", 7.0e7),
            ],
        ]);
        let text = d.to_json().to_string_pretty();
        let back = Document::from_json(&Json::parse(&text).expect("valid json"));
        assert_eq!(back, Ok(d.clone()));
        assert_eq!(d.values("threads-zipf", "keys_per_yd"), vec![7.1e7, 7.0e7]);
        assert_eq!(
            d.values("threads-zipf", "comm.exchange.mb_sent"),
            vec![7.99, 7.99]
        );
        assert!(Document::from_json(&Json::obj(vec![("schema", "other".into())])).is_err());
    }

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        use Better::{Higher, Lower};
        // One run each: the bound alone decides.
        assert_eq!(verdict(&[100.0], &[104.0], Lower, 0.05), Verdict::Unchanged);
        assert_eq!(verdict(&[100.0], &[106.0], Lower, 0.05), Verdict::Regressed);
        assert_eq!(verdict(&[100.0], &[94.0], Lower, 0.05), Verdict::Improved);
        assert_eq!(verdict(&[100.0], &[94.0], Higher, 0.05), Verdict::Regressed);
        assert_eq!(verdict(&[100.0], &[106.0], Higher, 0.05), Verdict::Improved);
        // Tight runs, clearly apart.
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let worse = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(verdict(&base, &worse, Lower, 0.05), Verdict::Regressed);
        // Spread wider than the bound and the runs overlap: resolves nothing.
        let noisy_base = [90.0, 100.0, 110.0, 95.0, 120.0];
        let noisy_change = [100.0, 112.0, 125.0, 104.0, 118.0];
        assert_eq!(
            verdict(&noisy_base, &noisy_change, Lower, 0.05),
            Verdict::Unresolved
        );
        // Wide spread but every changed run is worse than every base run.
        let apart = [130.0, 150.0, 170.0, 140.0, 160.0];
        assert_eq!(
            verdict(&noisy_base, &apart, Lower, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn aa_flags_unequal_counts_and_pairs_beyond_the_bound() {
        let bounds: BTreeMap<String, f64> = [("keys_per_yd".to_owned(), 0.08)].into();
        let full = |k: f64| -> Vec<WorkloadResult> {
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut r = result(w.name, k);
                    r.end_to_end = END_TO_END
                        .iter()
                        .map(|d| {
                            (
                                d.name.to_owned(),
                                if d.name == "keys_per_yd" { k } else { 1.0 },
                            )
                        })
                        .collect();
                    r.per_layer = PER_LAYER.iter().map(|d| (d.name.to_owned(), 1.0)).collect();
                    r
                })
                .collect()
        };
        assert_eq!(
            aa_check(&doc(vec![full(100.0), full(105.0)]), &bounds),
            Vec::<String>::new()
        );
        let apart = aa_check(&doc(vec![full(100.0), full(111.0)]), &bounds);
        assert_eq!(apart.len(), WORKLOADS.len());
        assert!(apart[0].contains("keys_per_yd"), "{apart:?}");

        let mut second = full(100.0);
        let messages = PER_LAYER
            .iter()
            .position(|d| d.name == "mpisim.messages")
            .expect("a catalog row");
        second[6].per_layer[messages].1 = 2.0;
        let counts = aa_check(&doc(vec![full(100.0), second]), &bounds);
        assert_eq!(counts.len(), 1);
        assert!(
            counts[0].contains("sim-zipf-p16 mpisim.messages"),
            "{counts:?}"
        );
    }
}
