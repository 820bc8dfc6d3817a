//! `sdsbench` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! sdsbench measure --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! sdsbench run  [--seed N] [--seconds S] [--sets K] [--quick] [--out F]   every workload
//! sdsbench diff A.json B.json                                     compare two documents
//! sdsbench aa   [--sets K] [--seed N] [--seconds S] [--quick] [--out F]   A/A self-check
//! sdsbench exec ...                                               (internal) one trial
//! ```

mod metrics;
mod replay;
mod report;
mod runner;
mod spans;
mod stats;
mod suite;
mod trial;
mod verify;
mod workloads;
mod yardstick;

use report::{aa_check, benchmark_json, bounds, diff, run_sets, Document};
use runner::{contract_line, measure, out_dir, RunOpts};
use std::process::ExitCode;
use telemetry::Json;
use trial::{rank_trial, service_trial, unix_now, Plan, PlanWire};
use workloads::{Backend, Workload};

const TRIAL_ENTRY: &str = "sdsbench-trial";
const DEFAULT_SEED: u64 = 1;

/// `--name value` options and bare flags after the subcommand.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Result<Self, String> {
        let mut out = Args {
            positional: Vec::new(),
            options: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if flags.contains(&name) => out.flags.push(name.to_owned()),
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} expects a value"))?;
                    out.options.push((name.to_owned(), value.clone()));
                }
                None => out.positional.push(a.clone()),
            }
        }
        Ok(out)
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read {v:?}"))
            })
            .transpose()
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        workloads::find(name).ok_or(format!("unknown workload {name:?}"))
    }
}

/// `run_seconds` of `BENCHMARK.json`: what one run measures by default.
fn default_seconds() -> Result<f64, String> {
    benchmark_json()?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_owned())
}

fn run_opts(args: &Args) -> Result<RunOpts, String> {
    Ok(RunOpts {
        seed: args.parsed("seed")?.unwrap_or(DEFAULT_SEED),
        seconds: match args.parsed("seconds")? {
            Some(s) => s,
            None => default_seconds()?,
        },
        traced: false,
        quick: args.flag("quick"),
    })
}

/// The contract's entry: one workload, one run, the result as the last line.
fn cmd_measure(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload()?;
    let mut opts = run_opts(args)?;
    opts.traced = match args.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let m = measure(w, opts, None);
    metrics::print_metrics(&m.metrics);
    for e in &m.errors {
        eprintln!("sdsbench: {}: {e}", w.name);
    }
    if m.metrics.is_empty() {
        return Err(format!("{}: nothing was measured", w.name));
    }
    println!("{}", contract_line(&m));
    Ok(ExitCode::SUCCESS)
}

fn write_document(doc: &Document, args: &Args, default_name: &str) -> Result<(), String> {
    let path = match args.get("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
            out_dir().join(default_name)
        }
    };
    std::fs::write(&path, doc.to_json().to_string_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn any_failed(doc: &Document) -> bool {
    doc.sets.iter().flatten().any(|w| w.failed > 0)
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let doc = run_sets(run_opts(args)?, args.parsed("sets")?.unwrap_or(1));
    write_document(&doc, args, "result.json")?;
    Ok(if any_failed(&doc) {
        eprintln!("sdsbench: failed_frac > 0");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("diff expects two result documents".to_owned());
    };
    let regressed = diff(
        &Document::load(a)?,
        &Document::load(b)?,
        &bounds(&benchmark_json()?),
    )?;
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_aa(args: &Args) -> Result<ExitCode, String> {
    let sets = args.parsed("sets")?.unwrap_or(2);
    let doc = match args.get("check") {
        // Re-check a recorded document without measuring again.
        Some(path) => Document::load(path)?,
        None => {
            let doc = run_sets(run_opts(args)?, sets);
            write_document(&doc, args, "aa.json")?;
            doc
        }
    };
    let problems = aa_check(&doc, &bounds(&benchmark_json()?));
    for p in &problems {
        println!("A/A: {p}");
    }
    println!(
        "A/A: {} set(s), {} disagreement(s)",
        doc.sets.len(),
        problems.len()
    );
    Ok(if problems.is_empty() && !any_failed(&doc) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Internal: one trial (or the layer suite) in this fresh process; the
/// result is the last line of standard output.
fn cmd_exec(args: &Args, started_unix: f64) -> Result<ExitCode, String> {
    let seed = args.parsed("seed")?.unwrap_or(DEFAULT_SEED);
    let quick = args.flag("quick");
    if args.flag("suite") {
        let rows = suite::run_suite(seed, quick);
        let doc = Json::obj(rows.into_iter().map(|(n, v)| (n, Json::F64(v))).collect());
        println!("{}", doc.to_string_compact());
        return Ok(ExitCode::SUCCESS);
    }
    let w = args.workload()?;
    let plan = Plan {
        workload: w.name.to_owned(),
        seed,
        seconds: args.parsed("seconds")?.unwrap_or(1.0),
        trial: args.parsed("trial")?.unwrap_or(0),
        traced: args.get("trace") == Some("1"),
        quick,
        started_unix,
    };
    let p = w.ranks();
    // The one explicit setting on every world: one core per node, so that
    // no backend merges a node's data onto one rank before the exchange
    // (SocketWorld would by default) and all measure the distributed case.
    let ranks: Vec<String> = match (w.backend, plan.traced) {
        (Backend::Threads, _) | (Backend::Service, true) => {
            shmem::ThreadWorld::new(p)
                .cores_per_node(1)
                .run(|comm| rank_trial(comm, &plan))
                .results
        }
        (Backend::Sockets, _) => {
            sockcomm::SocketWorld::new(p)
                .cores_per_node(1)
                .run::<PlanWire, String>(TRIAL_ENTRY, &plan.to_wire())
                .map_err(|e| e.to_string())?
                .results
        }
        (Backend::Sim, _) => {
            mpisim::World::new(p)
                .cores_per_node(1)
                .net(mpisim::NetModel::edison())
                .compute_scale(0.0)
                .run(|comm| rank_trial(&*comm, &plan))
                .results
        }
        (Backend::Service, false) => {
            vec![service_trial(w, &plan).to_json().to_string_compact()]
        }
    };
    // Every rank's result is already one JSON object.
    println!("{{\"ranks\":[{}]}}", ranks.join(","));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // A process re-executed as a sockets rank never gets past these hooks.
    sockcomm::child_rank::<PlanWire, String>(TRIAL_ENTRY, |comm, wire| {
        rank_trial(comm, &Plan::from_wire(wire))
    });
    sockcomm::child_rank::<bool, Vec<f64>>(suite::COLLECTIVES_ENTRY, suite::collective_rows);
    sockcomm::child_rank::<bool, bool>(suite::EMPTY_ENTRY, |_, quick| quick);
    let started_unix = unix_now();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: sdsbench measure|run|diff|aa ... (see benchmark/README.md)");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest, &["quick", "suite"]).and_then(|args| match cmd.as_str() {
        "measure" => cmd_measure(&args),
        "run" => cmd_run(&args),
        "diff" => cmd_diff(&args),
        "aa" => cmd_aa(&args),
        "exec" => cmd_exec(&args, started_unix),
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sdsbench: {e}");
            ExitCode::from(2)
        }
    }
}
