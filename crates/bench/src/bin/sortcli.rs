//! `sortcli` — run any sorter on any workload from the command line.
//!
//! ```text
//! Usage: sortcli [OPTIONS]
//!
//!   --sorter   sds | sds-stable | hyksort | samplesort | bitonic | radix
//!              | ams | hss        (`--algo` is an alias for `--sorter`;
//!                                  `ams` is multi-level AMS-sort and `hss`
//!                                  is Histogram Sort with Sampling, both
//!                                  from crates/algos)
//!   --workload uniform | zipf:<alpha> | staircase[:<steps>] | ptf-like
//!              | adversarial
//!   --backend  sim | threads | sockets
//!                                  (default sim). `sim` runs on the
//!                                  deterministic virtual-time simulator;
//!                                  `threads` runs each rank on a real OS
//!                                  thread (crates/shmem); `sockets` runs
//!                                  each rank as a real OS *process*
//!                                  connected by sockets (crates/sockcomm).
//!                                  Every sorter runs on every backend;
//!                                  both real backends report wall-clock
//!                                  times. Fault injection, memory
//!                                  budgets, tracing and resilience are
//!                                  simulator-only
//!   --transport uds | tcp          (default uds; sockets backend only)
//!                                  socket family for rank-to-rank links
//!   --ranks    <p>                 (default 8)
//!   --records  <n per rank>        (default 20000)
//!   --cores    <cores per node>    (default 24)
//!   --budget   <bytes per rank>    (default unlimited)
//!   --oversample <s>               (default 1; sds only)
//!   --trace                        print per-phase traffic matrices
//!   --seed     <u64>               (default 42)
//!   --faults   <spec>              inject deterministic message faults,
//!                                  e.g. seed=7,delay=0.5:1e-4,reorder=0.3:8,
//!                                  stall=2:0.3:1e-3,sendbuf=0.2:3:1e-5,
//!                                  ramp=0:0.01:0.5 (see mpisim::FaultSpec)
//!   --collective-timeout <secs>    wall-clock deadlock detector: if every
//!                                  rank blocks with no message progress for
//!                                  this long, abort with a diagnostic report
//!   --resilient <spill-dir>        sds only: degrade gracefully under
//!                                  memory pressure by spilling received
//!                                  chunks to <spill-dir> instead of aborting
//!   --metrics-out <path>           write a telemetry RunReport as JSON
//!                                  (a directory gets BENCH_sortcli.json;
//!                                  also honours BENCH_METRICS_OUT)
//!   --validate-metrics <file>      parse a previously written RunReport
//!                                  and exit 0 iff it is valid (CI smoke)
//!   --serve                        run a resident SortService (threads
//!                                  backend) and drive it with a stream of
//!                                  Zipf-sized jobs of --workload keys,
//!                                  --records per rank minimum; reports
//!                                  jobs/sec and latency percentiles
//!   --jobs     <n>                 (serve; default 32) jobs to submit
//!   --clients  <n>                 (serve; default 4) concurrent client
//!                                  handles submitting the jobs
//! ```
//!
//! Prints: correctness verdict (globally sorted + permutation), modelled
//! makespan, phase breakdown, RDFA, message/byte totals.

use bench::{fmt_bytes, fmt_time, Table};
use mpisim::telemetry::{Decisions, Json, MemoryReport, RunReport, WorldMeta};
use mpisim::{Communicator, FaultSpec, NetModel, World};
use sdssort::{
    is_globally_sorted, is_permutation_of, rdfa, sds_sort, sds_sort_resilient, ResilienceConfig,
    SdsConfig, SortError,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug, Clone)]
struct Args {
    sorter: String,
    workload: String,
    backend: String,
    transport: String,
    ranks: usize,
    records: usize,
    cores: usize,
    budget: Option<usize>,
    oversample: usize,
    trace: bool,
    seed: u64,
    faults: Option<FaultSpec>,
    faults_text: Option<String>,
    collective_timeout: Option<Duration>,
    resilient: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    validate_metrics: Option<PathBuf>,
    serve: bool,
    jobs: u64,
    clients: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sorter: "sds".into(),
        workload: "uniform".into(),
        backend: "sim".into(),
        transport: "uds".into(),
        ranks: 8,
        records: 20_000,
        cores: 24,
        budget: None,
        oversample: 1,
        trace: false,
        seed: 42,
        faults: None,
        faults_text: None,
        collective_timeout: None,
        resilient: None,
        metrics_out: std::env::var_os("BENCH_METRICS_OUT").map(PathBuf::from),
        validate_metrics: None,
        serve: false,
        jobs: 32,
        clients: 4,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let take = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--sorter" | "--algo" => args.sorter = take(&mut i)?,
            "--workload" => args.workload = take(&mut i)?,
            "--backend" => args.backend = take(&mut i)?,
            "--transport" => args.transport = take(&mut i)?,
            "--ranks" => args.ranks = take(&mut i)?.parse().map_err(|e| format!("--ranks: {e}"))?,
            "--records" => {
                args.records = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--records: {e}"))?;
            }
            "--cores" => args.cores = take(&mut i)?.parse().map_err(|e| format!("--cores: {e}"))?,
            "--budget" => {
                args.budget = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?,
                );
            }
            "--oversample" => {
                args.oversample = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--oversample: {e}"))?;
            }
            "--trace" => args.trace = true,
            "--seed" => args.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--faults" => {
                let spec = take(&mut i)?;
                args.faults = Some(FaultSpec::parse(&spec).map_err(|e| format!("--faults: {e}"))?);
                args.faults_text = Some(spec);
            }
            "--collective-timeout" => {
                let secs: f64 = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--collective-timeout: {e}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--collective-timeout: must be a positive number".into());
                }
                args.collective_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--resilient" => args.resilient = Some(PathBuf::from(take(&mut i)?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(take(&mut i)?)),
            "--validate-metrics" => args.validate_metrics = Some(PathBuf::from(take(&mut i)?)),
            "--serve" => args.serve = true,
            "--jobs" => args.jobs = take(&mut i)?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--clients" => {
                args.clients = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    Ok(args)
}

/// The SDS configuration this invocation runs (None for baselines).
fn sds_cfg(args: &Args) -> Option<SdsConfig> {
    match args.sorter.as_str() {
        "sds" | "sds-stable" => {
            let mut cfg = if args.sorter == "sds-stable" {
                SdsConfig::stable()
            } else {
                SdsConfig::default()
            };
            cfg.oversample = args.oversample;
            Some(cfg)
        }
        _ => None,
    }
}

/// Dispatch `--sorter` on any backend (`main` validated the name).
fn run_generic<C: comm::Communicator>(
    args: &Args,
    comm: &C,
    input: Vec<u64>,
) -> Result<sdssort::SortOutput<u64>, SortError> {
    match args.sorter.as_str() {
        "sds" | "sds-stable" => {
            let cfg = sds_cfg(args).expect("sds sorter");
            sds_sort(comm, input, &cfg)
        }
        "hyksort" => baselines::hyksort(comm, input, &baselines::HykSortConfig::default()),
        "samplesort" => {
            baselines::sample_sort(comm, input, &baselines::SampleSortConfig::default())
        }
        "radix" => baselines::radix_sort(comm, input),
        "bitonic" => Ok(sdssort::SortOutput {
            data: baselines::bitonic_sort(comm, input),
            stats: sdssort::SortStats::default(),
        }),
        "ams" => algos::ams_sort(comm, input, &algos::AmsConfig::default()),
        "hss" => algos::hss_sort(comm, input, &algos::HssConfig::default()),
        other => panic!("unknown sorter {other} (validated before launch)"),
    }
}

/// Keys for one rank — the shared by-name dispatch, so the CLI, the
/// service, and the harnesses all agree on what `zipf:0.8` means.
fn gen_keys(workload: &str, n: usize, seed: u64, rank: usize) -> Result<Vec<u64>, String> {
    workloads::keys_by_name(workload, n, seed, rank)
}

/// Per-rank outcome: (globally sorted, permutation, output length, stats).
type RankResult = Result<(bool, bool, usize, sdssort::SortStats), SortError>;

/// Per-rank outcome on the sockets backend, flattened to `Wire`-encodable
/// scalars: (sorted, permutation, output length, pivot s, exchange s,
/// local-order s, node merged, overlapped).
type SocketsRankResult = (bool, bool, u64, f64, f64, f64, bool, bool);

/// Entry name the re-exec'd rank processes dispatch on.
const SOCKETS_SORT_ENTRY: &str = "sortcli-sort";

/// One rank process of a `--backend sockets` run. The child re-parses its
/// own argv (the launcher re-execs sortcli with identical arguments), so
/// no configuration needs to travel through the params payload.
fn sockets_rank_entry(comm: &sockcomm::SockComm, _params: u64) -> SocketsRankResult {
    let args = parse_args().expect("parent validated this argv before launching");
    let input = gen_keys(&args.workload, args.records, args.seed, comm.rank())
        .expect("workload validated before launch");
    let o = run_generic(&args, comm, input.clone()).expect("sort failed on sockets rank");
    let sorted = is_globally_sorted(comm, &o.data);
    let permutation = is_permutation_of(comm, &input, &o.data, |&k| k);
    (
        sorted,
        permutation,
        o.data.len() as u64,
        o.stats.pivot_s,
        o.stats.exchange_s,
        o.stats.local_order_s,
        o.stats.node_merged,
        o.stats.overlapped,
    )
}

/// Run the sorter with one OS process per rank over real sockets.
fn run_sorter_sockets(
    a: &Args,
    transport: sockcomm::Transport,
) -> Result<sockcomm::SockReport<SocketsRankResult>, sockcomm::SockError> {
    sockcomm::SocketWorld::new(a.ranks)
        .cores_per_node(a.cores)
        .transport(transport)
        .run::<u64, SocketsRankResult>(SOCKETS_SORT_ENTRY, &0)
}

/// Run the sorter for real on the threads backend (one OS thread per rank,
/// wall-clock timing).
fn run_sorter_threads(a: &Args) -> shmem::ThreadReport<RankResult> {
    let a2 = a.clone();
    shmem::ThreadWorld::new(a.ranks)
        .cores_per_node(a.cores)
        .telemetry(a.metrics_out.is_some())
        .run(move |comm| -> RankResult {
            let input = gen_keys(&a2.workload, a2.records, a2.seed, comm.rank())
                .expect("workload validated before launch");
            let o = run_generic(&a2, comm, input.clone())?;
            let sorted = is_globally_sorted(comm, &o.data);
            let permutation = is_permutation_of(comm, &input, &o.data, |&k| k);
            Ok((sorted, permutation, o.data.len(), o.stats))
        })
}

#[allow(clippy::type_complexity)]
fn run_sorter(a: &Args) -> Result<(RankResult, mpisim::runtime::WorldReport<RankResult>), String> {
    let mut world = World::new(a.ranks)
        .cores_per_node(a.cores)
        .net(NetModel::edison())
        .trace(a.trace)
        .telemetry(a.metrics_out.is_some());
    if let Some(b) = a.budget {
        world = world.memory_budget(b);
    }
    if let Some(spec) = a.faults {
        world = world.faults(spec);
    }
    if let Some(window) = a.collective_timeout {
        world = world.collective_timeout(window);
    }
    let a2 = a.clone();
    let report = world.run(
        move |comm| -> Result<(bool, bool, usize, sdssort::SortStats), SortError> {
            let input = gen_keys(&a2.workload, a2.records, a2.seed, comm.rank())
                .expect("workload validated before launch");
            let o = match &a2.resilient {
                Some(dir) => {
                    let cfg = sds_cfg(&a2).expect("--resilient is validated as sds-only");
                    sds_sort_resilient(comm, input.clone(), &cfg, &ResilienceConfig::new(dir))?
                }
                None => run_generic(&a2, &*comm, input.clone())?,
            };
            let (out, stats) = (o.data, o.stats);
            let sorted = is_globally_sorted(comm, &out);
            let permutation = is_permutation_of(comm, &input, &out, |&k| k);
            Ok((sorted, permutation, out.len(), stats))
        },
    );
    let first = report.results[0].clone();
    Ok((first, report))
}

fn main() -> ExitCode {
    // Rank processes of a `--backend sockets` run divert here (the
    // launcher re-execs this binary); everyone else falls through.
    sockcomm::child_rank(SOCKETS_SORT_ENTRY, sockets_rank_entry);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!("see the module docs at the top of sortcli.rs for usage");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.validate_metrics {
        return match std::fs::read_to_string(path) {
            Ok(text) => match RunReport::from_json_str(&text) {
                Ok(r) => {
                    println!(
                        "valid run report: experiment {:?}, {} ranks, makespan {:.6} s",
                        r.experiment, r.world.ranks, r.makespan_v
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("invalid metrics file {}: {e}", path.display());
                    ExitCode::from(1)
                }
            },
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                ExitCode::from(1)
            }
        };
    }
    match args.sorter.as_str() {
        "sds" | "sds-stable" | "hyksort" | "samplesort" | "bitonic" | "radix" | "ams" | "hss" => {}
        other => {
            eprintln!("error: unknown sorter {other}");
            return ExitCode::from(2);
        }
    }
    if let Err(e) = gen_keys(&args.workload, 1, 0, 0) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if args.resilient.is_some() && sds_cfg(&args).is_none() {
        eprintln!("error: --resilient applies to the sds sorters only");
        return ExitCode::from(2);
    }
    if args.serve {
        if sds_cfg(&args).is_none() {
            eprintln!("error: --serve runs the sds sorters only");
            return ExitCode::from(2);
        }
        if args.clients == 0 {
            eprintln!("error: --clients must be at least 1");
            return ExitCode::from(2);
        }
        let incompatible = [
            (args.faults.is_some(), "--faults"),
            (args.collective_timeout.is_some(), "--collective-timeout"),
            (args.budget.is_some(), "--budget"),
            (args.trace, "--trace"),
            (args.resilient.is_some(), "--resilient"),
        ];
        for (set, flag) in incompatible {
            if set {
                eprintln!(
                    "error: {flag} does not apply to --serve \
                     (the service runs on the threads backend)"
                );
                return ExitCode::from(2);
            }
        }
        return serve_main(&args);
    }
    match args.backend.as_str() {
        "sim" | "threads" | "sockets" => {}
        other => {
            eprintln!("error: unknown backend {other} (expected sim, threads, or sockets)");
            return ExitCode::from(2);
        }
    }
    if args.transport != "uds" && args.backend != "sockets" {
        eprintln!("error: --transport applies to --backend sockets only");
        return ExitCode::from(2);
    }
    if args.backend == "sockets" && sockcomm::Transport::parse(&args.transport).is_none() {
        eprintln!(
            "error: unknown transport {} (expected uds or tcp)",
            args.transport
        );
        return ExitCode::from(2);
    }
    if args.backend == "threads" || args.backend == "sockets" {
        let backend = &args.backend;
        if args.oversample != 1 && sds_cfg(&args).is_none() {
            eprintln!("error: --oversample applies to the sds sorters only");
            return ExitCode::from(2);
        }
        let simulator_only = [
            (args.faults.is_some(), "--faults"),
            (args.collective_timeout.is_some(), "--collective-timeout"),
            (args.budget.is_some(), "--budget"),
            (args.trace, "--trace"),
            (args.resilient.is_some(), "--resilient"),
        ];
        for (set, flag) in simulator_only {
            if set {
                eprintln!("error: {flag} is simulator-only (remove --backend {backend})");
                return ExitCode::from(2);
            }
        }
    }

    println!(
        "sortcli: {} on {} | p = {}, {} records/rank, {} cores/node, {} backend{}",
        args.sorter,
        args.workload,
        args.ranks,
        args.records,
        args.cores,
        args.backend,
        args.budget
            .map(|b| format!(", budget {}", fmt_bytes(b)))
            .unwrap_or_default()
    );
    if let Some(spec) = &args.faults_text {
        println!("faults: {spec}");
    }

    if args.backend == "threads" {
        return threads_main(&args);
    }
    if args.backend == "sockets" {
        return sockets_main(&args);
    }

    let (first, report) = run_sorter(&args).expect("validated");
    match first {
        Err(e) => {
            println!("\nresult: FAILED — {e}");
            println!("(the paper's imbalance-induced crash, reproduced under the memory budget)");
            ExitCode::from(1)
        }
        Ok(_) => {
            let all_ok = report
                .results
                .iter()
                .all(|r| matches!(r, Ok((sorted, perm, _, _)) if *sorted && *perm));
            let loads: Vec<usize> = report
                .results
                .iter()
                .map(|r| r.as_ref().expect("checked ok").2)
                .collect();
            let stats = report.results[0].as_ref().expect("checked ok").3;
            println!(
                "\nresult: {}",
                if all_ok {
                    "OK (sorted, permutation)"
                } else {
                    "CORRUPT"
                }
            );
            let mut t = Table::new(["metric", "value"]);
            t.row(["modelled makespan".to_string(), fmt_time(report.makespan)]);
            t.row(["host wall".to_string(), fmt_time(report.wall.as_secs_f64())]);
            t.row(["pivot phase (rank 0)".to_string(), fmt_time(stats.pivot_s)]);
            t.row([
                "exchange phase (rank 0)".to_string(),
                fmt_time(stats.exchange_s),
            ]);
            t.row([
                "ordering phase (rank 0)".to_string(),
                fmt_time(stats.local_order_s),
            ]);
            t.row([
                "node merged (τm)".to_string(),
                stats.node_merged.to_string(),
            ]);
            t.row(["RDFA".to_string(), format!("{:.4}", rdfa(&loads))]);
            t.row(["messages".to_string(), report.messages.to_string()]);
            t.row(["bytes".to_string(), fmt_bytes(report.bytes as usize)]);
            t.row([
                "peak simulated memory".to_string(),
                fmt_bytes(report.max_memory_high_water),
            ]);
            t.print();
            if stats.spilled {
                println!(
                    "note: memory pressure tripped graceful degradation — {} received\n\
                     records were spilled through disk runs instead of aborting.",
                    stats.spill_records
                );
            }
            if stats.node_merged {
                println!(
                    "note: node-level merging ran (avg message below τm), so output\n\
                     concentrates on node leaders — RDFA counts the empty non-leaders."
                );
            }
            if args.trace {
                println!("\ntraffic by phase:");
                let mut tt = Table::new(["phase", "messages", "inter-node", "bytes"]);
                for (name, tr) in &report.trace_phases {
                    tt.row([
                        name.clone(),
                        tr.total_messages().to_string(),
                        tr.internode_messages(&report.topology).to_string(),
                        fmt_bytes(tr.total_bytes() as usize),
                    ]);
                }
                tt.print();
            }
            if let Some(out) = &args.metrics_out {
                match write_metrics(out, &args, &report, &loads, &stats) {
                    Ok(path) => println!("metrics: wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("error writing metrics: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
            if all_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}

/// Run, validate, report, and optionally emit metrics on the threads
/// backend. Times printed here are real wall-clock seconds.
fn threads_main(args: &Args) -> ExitCode {
    let report = run_sorter_threads(args);
    match &report.results[0] {
        Err(e) => {
            println!("\nresult: FAILED — {e}");
            ExitCode::from(1)
        }
        Ok(_) => {
            let all_ok = report
                .results
                .iter()
                .all(|r| matches!(r, Ok((sorted, perm, _, _)) if *sorted && *perm));
            let loads: Vec<usize> = report
                .results
                .iter()
                .map(|r| r.as_ref().expect("checked ok").2)
                .collect();
            let stats = report.results[0].as_ref().expect("checked ok").3;
            println!(
                "\nresult: {}",
                if all_ok {
                    "OK (sorted, permutation)"
                } else {
                    "CORRUPT"
                }
            );
            let mut t = Table::new(["metric", "value"]);
            t.row(["wall clock".to_string(), fmt_time(report.wall_s)]);
            t.row([
                "slowest rank".to_string(),
                fmt_time(report.per_rank_wall.iter().copied().fold(0.0, f64::max)),
            ]);
            t.row(["pivot phase (rank 0)".to_string(), fmt_time(stats.pivot_s)]);
            t.row([
                "exchange phase (rank 0)".to_string(),
                fmt_time(stats.exchange_s),
            ]);
            t.row([
                "ordering phase (rank 0)".to_string(),
                fmt_time(stats.local_order_s),
            ]);
            t.row([
                "node merged (τm)".to_string(),
                stats.node_merged.to_string(),
            ]);
            t.row(["RDFA".to_string(), format!("{:.4}", rdfa(&loads))]);
            t.row(["messages".to_string(), report.messages.to_string()]);
            t.row(["bytes".to_string(), fmt_bytes(report.bytes as usize)]);
            t.print();
            if stats.node_merged {
                println!(
                    "note: node-level merging ran (avg message below τm), so output\n\
                     concentrates on node leaders — RDFA counts the empty non-leaders."
                );
            }
            if let Some(out) = &args.metrics_out {
                match write_metrics_threads(out, args, &report, &loads, &stats) {
                    Ok(path) => println!("metrics: wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("error writing metrics: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
            if all_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}

/// Run, validate, report, and optionally emit metrics on the sockets
/// backend (one OS process per rank). Times are real wall-clock seconds;
/// `wall clock` additionally includes process spawn + rendezvous.
fn sockets_main(args: &Args) -> ExitCode {
    let transport =
        sockcomm::Transport::parse(&args.transport).expect("transport validated before launch");
    println!("transport: {} (process per rank)", transport.as_str());
    let report = match run_sorter_sockets(args, transport) {
        Ok(r) => r,
        Err(e) => {
            println!("\nresult: FAILED — {e}");
            return ExitCode::from(1);
        }
    };
    let all_ok = report
        .results
        .iter()
        .all(|&(sorted, perm, ..)| sorted && perm);
    let loads: Vec<usize> = report.results.iter().map(|r| r.2 as usize).collect();
    let r0 = report.results[0];
    let stats = sdssort::SortStats {
        pivot_s: r0.3,
        exchange_s: r0.4,
        local_order_s: r0.5,
        node_merged: r0.6,
        overlapped: r0.7,
        ..Default::default()
    };
    println!(
        "\nresult: {}",
        if all_ok {
            "OK (sorted, permutation)"
        } else {
            "CORRUPT"
        }
    );
    let mut t = Table::new(["metric", "value"]);
    t.row([
        "wall clock (launch + sort)".to_string(),
        fmt_time(report.wall_s),
    ]);
    t.row([
        "slowest rank".to_string(),
        fmt_time(report.per_rank_wall.iter().copied().fold(0.0, f64::max)),
    ]);
    t.row(["pivot phase (rank 0)".to_string(), fmt_time(stats.pivot_s)]);
    t.row([
        "exchange phase (rank 0)".to_string(),
        fmt_time(stats.exchange_s),
    ]);
    t.row([
        "ordering phase (rank 0)".to_string(),
        fmt_time(stats.local_order_s),
    ]);
    t.row([
        "node merged (τm)".to_string(),
        stats.node_merged.to_string(),
    ]);
    t.row(["RDFA".to_string(), format!("{:.4}", rdfa(&loads))]);
    t.row(["messages".to_string(), report.messages.to_string()]);
    t.row(["bytes".to_string(), fmt_bytes(report.bytes as usize)]);
    t.print();
    if stats.node_merged {
        println!(
            "note: node-level merging ran (avg message below τm), so output\n\
             concentrates on node leaders — RDFA counts the empty non-leaders."
        );
    }
    if let Some(out) = &args.metrics_out {
        match write_metrics_sockets(out, args, &report, &loads, &stats) {
            Ok(path) => println!("metrics: wrote {}", path.display()),
            Err(e) => {
                eprintln!("error writing metrics: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run a resident [`service::SortService`] over the threads backend and
/// drive it with a stream of Zipf-sized jobs from several concurrent
/// client handles. Reports throughput and latency percentiles; with
/// `--metrics-out`, emits a self-describing experiment document.
fn serve_main(args: &Args) -> ExitCode {
    let mut cfg = service::ServiceConfig::new(args.ranks);
    cfg.cores_per_node = args.cores;
    cfg.sort = sds_cfg(args).expect("validated: --serve runs sds only");
    let load = service::LoadGen::new(args.workload.clone(), args.records, args.seed);
    println!(
        "sortsvc: {} on {} resident ranks | {} jobs from {} clients, >= {} records/rank",
        args.workload, args.ranks, args.jobs, args.clients, args.records
    );
    let report = bench::experiments::drive_service(cfg, &load, args.jobs, args.clients);
    bench::experiments::print_service_report(&report);
    if let Some(out) = &args.metrics_out {
        let mut em = bench::emit::Emitter::with_out("sortsvc", Some(out.clone()));
        em.meta("backend", "threads");
        em.meta("workload", args.workload.clone());
        em.meta("ranks", args.ranks);
        em.meta("min_records_per_rank", args.records);
        em.meta("clients", args.clients);
        em.point(
            "SortService",
            &[("jobs", Json::from(args.jobs))],
            &bench::experiments::service_values(&report),
        );
        if let Err(e) = em.finish() {
            eprintln!("error writing metrics: {e}");
            return ExitCode::from(1);
        }
    }
    if report.counters.failed == 0 && report.counters.balanced() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The config and decision fields shared by both backends' RunReports.
fn base_run_report(
    args: &Args,
    snapshot: mpisim::telemetry::Snapshot,
    loads: &[usize],
    stats: &sdssort::SortStats,
) -> RunReport {
    let mut run = RunReport::from_snapshot(
        "sortcli",
        snapshot,
        loads.iter().map(|&l| l as u64).collect(),
    );
    run.config = [
        ("sorter", Json::from(args.sorter.clone())),
        ("workload", Json::from(args.workload.clone())),
        ("backend", Json::from(args.backend.clone())),
        ("git_rev", Json::from(bench::git_rev())),
        ("ranks", Json::from(args.ranks)),
        ("records_per_rank", Json::from(args.records)),
        ("cores_per_node", Json::from(args.cores)),
        ("oversample", Json::from(args.oversample)),
        ("seed", Json::from(args.seed)),
        (
            "faults",
            Json::from(args.faults_text.clone().unwrap_or_default()),
        ),
        ("resilient", Json::from(args.resilient.is_some())),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let cfg = sds_cfg(args);
    run.decisions = Decisions {
        tau_m_bytes: cfg.as_ref().map_or(0, |c| c.tau_m_bytes as u64),
        tau_o: cfg.as_ref().map_or(0, |c| c.tau_o as u64),
        tau_s: cfg.as_ref().map_or(0, |c| c.tau_s as u64),
        stable: cfg.as_ref().is_some_and(|c| c.stable),
        node_merged: stats.node_merged,
        overlapped: stats.overlapped,
    };
    run
}

/// Resolve the output path: a `.json` path is written as-is; any other
/// path is treated as a directory receiving `BENCH_sortcli.json`.
fn metrics_path(out: &Path) -> std::io::Result<PathBuf> {
    let path = if out.extension().is_some_and(|e| e == "json") {
        out.to_path_buf()
    } else {
        out.join("BENCH_sortcli.json")
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    Ok(path)
}

/// Write the [`RunReport`] for a threads-backend run. Every duration in
/// the report — spans, phase times, makespan — is wall-clock seconds.
fn write_metrics_threads<R>(
    out: &Path,
    args: &Args,
    report: &shmem::ThreadReport<R>,
    loads: &[usize],
    stats: &sdssort::SortStats,
) -> std::io::Result<PathBuf> {
    let snapshot = report.telemetry.clone().unwrap_or_default();
    let mut run = base_run_report(args, snapshot, loads, stats);
    run.world = WorldMeta {
        ranks: args.ranks,
        cores_per_node: args.cores,
        nodes: args.ranks.div_ceil(args.cores),
    };
    run.memory = MemoryReport {
        budget: None,
        max_high_water: 0,
        per_rank_high_water: Vec::new(),
    };
    // On this backend virtual time IS wall time: the makespan is the
    // world's measured wall clock.
    run.makespan_v = report.wall_s;
    run.wall_s = report.wall_s;

    let path = metrics_path(out)?;
    std::fs::write(&path, run.to_json_string() + "\n")?;
    Ok(path)
}

/// Write the [`RunReport`] for a sockets-backend run. Durations are
/// wall-clock seconds measured across real processes; there is no
/// telemetry snapshot (each rank is a separate address space), so the
/// report carries the config, decisions, loads, and timing only.
fn write_metrics_sockets(
    out: &Path,
    args: &Args,
    report: &sockcomm::SockReport<SocketsRankResult>,
    loads: &[usize],
    stats: &sdssort::SortStats,
) -> std::io::Result<PathBuf> {
    let mut run = base_run_report(args, Default::default(), loads, stats);
    run.config
        .push(("transport".to_string(), Json::from(args.transport.clone())));
    run.world = WorldMeta {
        ranks: args.ranks,
        cores_per_node: args.cores,
        nodes: args.ranks.div_ceil(args.cores),
    };
    run.memory = MemoryReport {
        budget: None,
        max_high_water: 0,
        per_rank_high_water: Vec::new(),
    };
    // Real processes: virtual time IS wall time.
    run.makespan_v = report.wall_s;
    run.wall_s = report.wall_s;

    let path = metrics_path(out)?;
    std::fs::write(&path, run.to_json_string() + "\n")?;
    Ok(path)
}

/// Assemble and write the telemetry [`RunReport`] for a successful run. A
/// `.json` path is written as-is; any other path is treated as a directory
/// receiving `BENCH_sortcli.json`.
fn write_metrics<R>(
    out: &Path,
    args: &Args,
    report: &mpisim::WorldReport<R>,
    loads: &[usize],
    stats: &sdssort::SortStats,
) -> std::io::Result<PathBuf> {
    let snapshot = report.telemetry.clone().unwrap_or_default();
    let mut run = base_run_report(args, snapshot, loads, stats);
    run.world = WorldMeta {
        ranks: args.ranks,
        cores_per_node: report.topology.cores_per_node(),
        nodes: report.topology.num_nodes(),
    };
    run.memory = MemoryReport {
        budget: report.memory_budget.map(|b| b as u64),
        max_high_water: report.max_memory_high_water as u64,
        per_rank_high_water: report
            .per_rank_memory_high_water
            .iter()
            .map(|&b| b as u64)
            .collect(),
    };
    run.makespan_v = report.makespan;
    run.wall_s = report.wall.as_secs_f64();

    let path = metrics_path(out)?;
    std::fs::write(&path, run.to_json_string() + "\n")?;
    Ok(path)
}
