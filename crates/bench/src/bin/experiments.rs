//! `experiments` — regenerate the paper's tables and figures, the ablations
//! and the shoot-out from the one registry (`bench::REGISTRY`).
//!
//! ```text
//! Usage: experiments --list | --all | <name>...
//!
//!   --list                 print every registry name with its title
//!   --all                  run every experiment, in EXPERIMENTS.md order
//!   <name>...              run the named experiments, in the order given
//!   --metrics-out <path>   also write each experiment's series as JSON: a
//!                          directory gets BENCH_<name>.json per experiment,
//!                          a path ending in .json is used as-is (one
//!                          experiment only); honours BENCH_METRICS_OUT
//! ```
//!
//! `BENCH_SCALE=full` enlarges every sweep. Exits 0 iff every selected
//! experiment's verdict is REPRODUCED, 1 if any DIVERGED (or a metrics
//! document could not be written), 2 on a usage error.

#![forbid(unsafe_code)]

use bench::{registry, Experiment, Run, Scale, REGISTRY};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: experiments --list | --all | <name>... [--metrics-out <path>]";

struct Args {
    list: bool,
    selected: Vec<&'static Experiment>,
    metrics_out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        list: false,
        selected: Vec::new(),
        metrics_out: std::env::var_os("BENCH_METRICS_OUT").map(PathBuf::from),
    };
    while let Some(a) = argv.next() {
        if a == "--list" {
            args.list = true;
        } else if a == "--all" {
            args.selected = REGISTRY.iter().collect();
        } else if a == "--metrics-out" {
            let path = argv.next().ok_or("missing value for --metrics-out")?;
            args.metrics_out = Some(PathBuf::from(path));
        } else if let Some(path) = a.strip_prefix("--metrics-out=") {
            args.metrics_out = Some(PathBuf::from(path));
        } else if a.starts_with('-') {
            return Err(format!("unknown option {a}"));
        } else {
            let exp = registry::find(&a)
                .ok_or_else(|| format!("unknown experiment {a} (see experiments --list)"))?;
            args.selected.push(exp);
        }
    }
    if !args.list && args.selected.is_empty() {
        return Err("no experiment selected".into());
    }
    let to_json_file = |p: &PathBuf| p.extension().is_some_and(|e| e == "json");
    if args.selected.len() > 1 && args.metrics_out.as_ref().is_some_and(to_json_file) {
        return Err("--metrics-out must be a directory when several experiments run".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for e in REGISTRY {
            println!("{:<24} {}", e.name, e.title);
        }
        return ExitCode::SUCCESS;
    }
    let mut run = Run::new(Scale::from_env(), args.metrics_out);
    let mut diverged = Vec::new();
    for exp in &args.selected {
        match run.execute(exp) {
            Ok(true) => {}
            Ok(false) => diverged.push(exp.name),
            Err(e) => {
                eprintln!("error writing metrics for {}: {e}", exp.name);
                return ExitCode::from(1);
            }
        }
        println!();
    }
    if diverged.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("DIVERGED: {}", diverged.join(", "));
        ExitCode::from(1)
    }
}
