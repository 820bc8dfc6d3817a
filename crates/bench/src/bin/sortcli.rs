//! `sortcli` — run any sorter on any workload from the command line.
//!
//! ```text
//! Usage: sortcli [OPTIONS]
//!
//!   --sorter   sds | sds-stable | hyksort | ams | hss
//!                                  (default sds; `--algo` is an alias).
//!                                  The rows of `algos::Sorter`: `ams` is
//!                                  multi-level AMS-sort and `hss` is
//!                                  Histogram Sort with Sampling
//!   --workload uniform | zipf:<alpha> | staircase[:<steps>] | ptf-like
//!              | adversarial
//!   --backend  sim | threads | sockets
//!                                  (default sim). `sim` runs on the
//!                                  deterministic virtual-time simulator;
//!                                  `threads` runs each rank on a real OS
//!                                  thread (crates/shmem); `sockets` runs
//!                                  each rank as a real OS *process*
//!                                  connected by sockets (crates/sockcomm).
//!                                  Every sorter, memory budget and
//!                                  resilient run works on every backend;
//!                                  both real backends report wall-clock
//!                                  times. Fault injection is
//!                                  simulator-only
//!   --transport uds | tcp          (default uds; sockets backend only)
//!                                  socket family for rank-to-rank links
//!   --ranks    <p>                 (default 8)
//!   --records  <n per rank>        (default 20000)
//!   --cores    <cores per node>    (default 24)
//!   --budget   <bytes per rank>    (default unlimited; with --serve the
//!                                  service's, default 256 MiB split over
//!                                  the ranks) every backend charges the
//!                                  sort's reservations against it, and
//!                                  a rank over it ends the run in OOM
//!   --oversample <s>               (default 1; sds only)
//!   --trace                        print traffic by phase (messages,
//!                                  inter-node messages, bytes) from the
//!                                  telemetry snapshot; sim and threads
//!                                  (threads adds how many of the bytes
//!                                  were lent in place, not copied, and
//!                                  how many records the merges moved as
//!                                  replicated-key blocks), then
//!                                  the sorter's decisions with their
//!                                  inputs (τ choices, local-sort kernel)
//!   --trace-out <path>             write every rank's phase spans (nested
//!                                  refine-round spans included) as
//!                                  Chrome-trace JSON: one complete event
//!                                  per span, tid = rank, µs; its
//!                                  otherData.clock is "virtual" on sim and
//!                                  "wall" on threads; sim and threads only
//!   --seed     <u64>               (default 42)
//!   --faults   <spec>              inject deterministic message faults,
//!                                  e.g. seed=7,delay=0.5:1e-4,
//!                                  stall=2:0.3:1e-3,sendbuf=0.2:3:1e-5,
//!                                  ramp=0:0.01:0.5 (see mpisim::FaultSpec)
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
//!                                  jobs/sec, latency percentiles and the
//!                                  median sort wall with the part of it
//!                                  spent generating keys
//!   --jobs     <n>                 (serve; default 32) jobs to submit
//!   --clients  <n>                 (serve; default 4) concurrent client
//!                                  handles submitting the jobs
//! ```
//!
//! Prints: correctness verdict (globally sorted + permutation), modelled
//! makespan, phase breakdown, RDFA beside the sorter's published bound
//! (none for HykSort and AMS, whose value splitters duplicates defeat),
//! message/byte totals. Exits 1 on output that is not a sorted
//! permutation, and on an RDFA over the published bound (`result: OVER
//! BOUND`) unless node merging ran, whose RDFA counts the empty
//! non-leaders.

#![forbid(unsafe_code)]

use algos::{Sorter, Tuning};
use bench::emit::{write_document, Emitter};
use bench::{fmt_bytes, fmt_time, Table};
use mpisim::telemetry::{
    chrome_trace, Decisions, Json, MemoryReport, RunReport, Snapshot, WorldMeta,
};
use mpisim::{FaultSpec, World};
use sdssort::{
    is_globally_sorted, is_permutation_of, rdfa, sds_sort_resilient, SdsConfig, SortError,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Args {
    sorter: Sorter,
    workload: String,
    backend: String,
    transport: String,
    ranks: usize,
    records: usize,
    cores: usize,
    budget: Option<usize>,
    oversample: usize,
    trace: bool,
    trace_out: Option<PathBuf>,
    seed: u64,
    faults: Option<FaultSpec>,
    faults_text: Option<String>,
    resilient: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    validate_metrics: Option<PathBuf>,
    serve: bool,
    jobs: u64,
    clients: usize,
}

impl Args {
    /// Whether the run records telemetry: a metrics report, the `--trace`
    /// table and the `--trace-out` spans all come off its snapshot.
    fn wants_telemetry(&self) -> bool {
        self.metrics_out.is_some() || self.trace || self.trace_out.is_some()
    }
}

/// Parse the value of numeric option `flag`.
fn num<T: std::str::FromStr<Err: std::fmt::Display>>(flag: &str, v: String) -> Result<T, String> {
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        sorter: Sorter::Sds,
        workload: "uniform".into(),
        backend: "sim".into(),
        transport: "uds".into(),
        ranks: 8,
        records: 20_000,
        cores: 24,
        budget: None,
        oversample: 1,
        trace: false,
        trace_out: None,
        seed: 42,
        faults: None,
        faults_text: None,
        resilient: None,
        metrics_out: std::env::var_os("BENCH_METRICS_OUT").map(PathBuf::from),
        validate_metrics: None,
        serve: false,
        jobs: 32,
        clients: 4,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut take = || {
            let v = it.next().cloned();
            v.ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--sorter" | "--algo" => {
                let name = take()?;
                args.sorter = Sorter::by_name(&name).ok_or(format!("unknown sorter {name}"))?;
            }
            "--workload" => args.workload = take()?,
            "--backend" => args.backend = take()?,
            "--transport" => args.transport = take()?,
            "--ranks" => args.ranks = num(flag, take()?)?,
            "--records" => args.records = num(flag, take()?)?,
            "--cores" => args.cores = num(flag, take()?)?,
            "--budget" => args.budget = Some(num(flag, take()?)?),
            "--oversample" => args.oversample = num(flag, take()?)?,
            "--trace" => args.trace = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(take()?)),
            "--seed" => args.seed = num(flag, take()?)?,
            "--faults" => {
                let spec = take()?;
                args.faults = Some(FaultSpec::parse(&spec).map_err(|e| format!("--faults: {e}"))?);
                args.faults_text = Some(spec);
            }
            "--resilient" => args.resilient = Some(PathBuf::from(take()?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(take()?)),
            "--validate-metrics" => args.validate_metrics = Some(PathBuf::from(take()?)),
            "--serve" => args.serve = true,
            "--jobs" => args.jobs = num(flag, take()?)?,
            "--clients" => args.clients = num(flag, take()?)?,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(args)
}

/// Reject argument combinations no backend can run, before any world is
/// built (a usage error exits 2; `World::new` and friends would assert).
fn validate(a: &Args) -> Result<(), String> {
    workloads::keys_by_name(&a.workload, 1, 0, 0)?;
    if a.ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    if a.cores == 0 {
        return Err("--cores must be at least 1".into());
    }
    let sds = sds_cfg(a).is_some();
    if a.resilient.is_some() && !sds {
        return Err("--resilient applies to the sds sorters only".into());
    }
    // `--serve` runs the resident service, which lives on the threads backend.
    let backend = if a.serve {
        "threads"
    } else {
        a.backend.as_str()
    };
    if a.serve && !sds {
        return Err("--serve runs the sds sorters only".into());
    }
    if a.serve && a.clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    if !["sim", "threads", "sockets"].contains(&backend) {
        return Err(format!(
            "unknown backend {backend} (expected sim, threads, or sockets)"
        ));
    }
    if a.transport != "uds" && backend != "sockets" {
        return Err("--transport applies to --backend sockets only".into());
    }
    if backend == "sockets" && sockcomm::Transport::parse(&a.transport).is_none() {
        return Err(format!(
            "unknown transport {} (expected uds or tcp)",
            a.transport
        ));
    }
    if backend != "sim" {
        if a.oversample != 1 && !sds {
            return Err("--oversample applies to the sds sorters only".into());
        }
        let real = if a.serve {
            "--serve"
        } else {
            &format!("--backend {backend}")
        };
        if a.faults.is_some() {
            return Err(format!("--faults is simulator-only (remove {real})"));
        }
        // The table and the spans are read off the run's telemetry
        // snapshot, which a process-per-rank world and the service do not
        // return.
        for (flag, set) in [("--trace", a.trace), ("--trace-out", a.trace_out.is_some())] {
            if set && (a.serve || backend == "sockets") {
                return Err(format!(
                    "{flag} needs a telemetry snapshot, which only sim and threads \
                     return (remove {real})"
                ));
            }
        }
    }
    Ok(())
}

/// Every sorter's defaults, with `--oversample` for SDS.
fn tuning(args: &Args) -> Tuning {
    let mut t = Tuning::default();
    t.sds.oversample = args.oversample;
    t
}

/// The SDS configuration this invocation runs (None for the other sorters).
fn sds_cfg(args: &Args) -> Option<SdsConfig> {
    args.sorter.sds_config(&tuning(args))
}

/// What one rank reports, on every backend: the distributed correctness
/// checks, its post-exchange load, and the phase stats the table prints.
/// `Wire` because on the sockets backend it crosses a process boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RankOutcome {
    sorted: bool,
    permutation: bool,
    len: u64,
    pivot_s: f64,
    local_sort_s: f64,
    sample_s: f64,
    select_s: f64,
    partition_s: f64,
    exchange_s: f64,
    local_order_s: f64,
    other_s: f64,
    node_merged: bool,
    overlapped: bool,
    spilled: bool,
    spill_records: u64,
}

impl comm::Wire for RankOutcome {
    fn put(&self, out: &mut Vec<u8>) {
        (self.sorted, self.permutation, self.len).put(out);
        (
            self.pivot_s,
            self.exchange_s,
            self.local_order_s,
            self.other_s,
        )
            .put(out);
        (
            self.local_sort_s,
            self.sample_s,
            self.select_s,
            self.partition_s,
        )
            .put(out);
        (self.node_merged, self.overlapped, self.spilled).put(out);
        self.spill_records.put(out);
    }

    fn get(src: &mut &[u8]) -> Option<Self> {
        let (sorted, permutation, len) = comm::Wire::get(src)?;
        let (pivot_s, exchange_s, local_order_s, other_s) = comm::Wire::get(src)?;
        let (local_sort_s, sample_s, select_s, partition_s) = comm::Wire::get(src)?;
        let (node_merged, overlapped, spilled) = comm::Wire::get(src)?;
        Some(Self {
            sorted,
            permutation,
            len,
            pivot_s,
            local_sort_s,
            sample_s,
            select_s,
            partition_s,
            exchange_s,
            local_order_s,
            other_s,
            node_merged,
            overlapped,
            spilled,
            spill_records: comm::Wire::get(src)?,
        })
    }
}

/// One rank of the run, on any backend: generate, sort, validate.
fn sort_rank<C: comm::Communicator>(args: &Args, comm: &C) -> Result<RankOutcome, SortError> {
    let input = workloads::keys_by_name(&args.workload, args.records, args.seed, comm.rank())
        .expect("workload validated before launch");
    let o = match &args.resilient {
        Some(dir) => {
            let cfg = sds_cfg(args).expect("--resilient is validated as sds-only");
            sds_sort_resilient(comm, input.clone(), &cfg, dir)?
        }
        None => args.sorter.sort(comm, input.clone(), &tuning(args))?,
    };
    Ok(RankOutcome {
        sorted: is_globally_sorted(comm, &o.data),
        permutation: is_permutation_of(comm, &input, &o.data, |&k| k),
        len: o.data.len() as u64,
        pivot_s: o.stats.pivot_s,
        local_sort_s: o.stats.local_sort_s,
        sample_s: o.stats.sample_s,
        select_s: o.stats.select_s,
        partition_s: o.stats.partition_s,
        exchange_s: o.stats.exchange_s,
        local_order_s: o.stats.local_order_s,
        other_s: o.stats.other_s,
        node_merged: o.stats.node_merged,
        overlapped: o.stats.overlapped,
        spilled: o.stats.spilled,
        spill_records: o.stats.spill_records as u64,
    })
}

/// What a backend hands the one report path: the per-rank outcomes plus
/// the world-level numbers whose meaning differs by backend.
struct BackendRun {
    ranks: Vec<RankOutcome>,
    /// The two leading table rows — what this backend's clocks measure. The
    /// first is the makespan: virtual on the simulator, wall elsewhere.
    times: [(&'static str, f64); 2],
    wall_s: f64,
    messages: u64,
    bytes: u64,
    /// The budget and each rank's peak reservation.
    memory: MemoryReport,
    snapshot: Option<Snapshot>,
}

/// `--trace`: the snapshot's per-phase traffic, one row per phase in
/// first-entered order.
fn trace_table(snapshot: &Snapshot) -> Table {
    let mut t = Table::new(["phase", "messages", "inter-node", "bytes"]);
    for p in &snapshot.phases {
        t.row([
            p.name.clone(),
            p.messages.to_string(),
            p.internode_messages.to_string(),
            fmt_bytes(p.bytes as usize),
        ]);
    }
    t
}

/// The deterministic virtual-time simulator: modelled makespan, simulated
/// memory, optional faults/budget/trace.
fn run_sim(a: &Args) -> Result<BackendRun, String> {
    let mut world = World::new(a.ranks)
        .cores_per_node(a.cores)
        .telemetry(a.wants_telemetry());
    if let Some(b) = a.budget {
        world = world.memory_budget(b);
    }
    if let Some(spec) = a.faults {
        world = world.faults(spec);
    }
    let report = world.run(|comm| sort_rank(a, &*comm));
    Ok(BackendRun {
        times: [
            ("modelled makespan", report.makespan),
            ("host wall", report.wall.as_secs_f64()),
        ],
        wall_s: report.wall.as_secs_f64(),
        messages: report.messages,
        bytes: report.bytes,
        memory: report.memory,
        snapshot: report.telemetry,
        ranks: sorted_ranks(report.results)?,
    })
}

/// Every rank's outcome, or the failure that ended the run: the rank's own
/// OOM before the peers that abandoned the sort with it.
fn sorted_ranks(results: Vec<Result<RankOutcome, SortError>>) -> Result<Vec<RankOutcome>, String> {
    let failure = results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .min_by_key(|e| **e == SortError::PeerOom);
    match failure {
        None => Ok(results.into_iter().flatten().collect()),
        Some(e @ SortError::Io(_)) => Err(e.to_string()),
        Some(e) => {
            let why = "the paper's imbalance-induced crash, reproduced under the memory budget";
            Err(format!("{e}\n({why})"))
        }
    }
}

/// One OS thread per rank (`crates/shmem`). Every duration is wall-clock
/// seconds, so the makespan *is* the world's wall clock.
fn run_threads(a: &Args) -> Result<BackendRun, String> {
    let mut world = shmem::ThreadWorld::new(a.ranks)
        .cores_per_node(a.cores)
        .telemetry(a.wants_telemetry());
    if let Some(b) = a.budget {
        world = world.memory_budget(b);
    }
    let report = world.run(|comm| sort_rank(a, comm));
    let slowest = report.per_rank_wall.iter().copied().fold(0.0, f64::max);
    Ok(BackendRun {
        times: [("wall clock", report.wall_s), ("slowest rank", slowest)],
        wall_s: report.wall_s,
        messages: report.messages,
        bytes: report.bytes,
        memory: report.memory,
        snapshot: report.telemetry,
        ranks: sorted_ranks(report.results)?,
    })
}

/// Entry name the re-exec'd rank processes dispatch on.
const SOCKETS_SORT_ENTRY: &str = "sortcli-sort";

/// One rank process of a `--backend sockets` run. The child re-parses its
/// own argv (the launcher re-execs sortcli with identical arguments), so
/// no configuration needs to travel through the params payload.
fn sockets_rank_entry(comm: &sockcomm::SockComm, _params: u64) -> Result<RankOutcome, SortError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).expect("parent validated this argv before launching");
    sort_rank(&args, comm)
}

/// One OS process per rank over real sockets (`crates/sockcomm`). Wall-clock
/// seconds again, but the world's wall clock additionally includes process
/// spawn + rendezvous, and there is no telemetry snapshot (each rank is a
/// separate address space).
fn run_sockets(a: &Args) -> Result<BackendRun, String> {
    let transport =
        sockcomm::Transport::parse(&a.transport).expect("transport validated before launch");
    println!("transport: {} (process per rank)", transport.as_str());
    let mut world = sockcomm::SocketWorld::new(a.ranks)
        .cores_per_node(a.cores)
        .transport(transport);
    if let Some(b) = a.budget {
        world = world.memory_budget(b);
    }
    let report = world
        .run::<u64, Result<RankOutcome, SortError>>(SOCKETS_SORT_ENTRY, &0)
        .map_err(|e| e.to_string())?;
    let slowest = report.per_rank_wall.iter().copied().fold(0.0, f64::max);
    Ok(BackendRun {
        ranks: sorted_ranks(report.results)?,
        times: [
            ("wall clock (launch + sort)", report.wall_s),
            ("slowest rank", slowest),
        ],
        wall_s: report.wall_s,
        messages: report.messages,
        bytes: report.bytes,
        memory: report.memory,
        snapshot: None,
    })
}

fn main() -> ExitCode {
    // Rank processes of a `--backend sockets` run divert here (the
    // launcher re-execs this binary); everyone else falls through.
    sockcomm::child_rank(SOCKETS_SORT_ENTRY, sockets_rank_entry);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
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
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| {
                RunReport::from_json_str(&text)
                    .map_err(|e| format!("invalid metrics file {}: {e}", path.display()))
            });
        return match parsed {
            Ok(r) => {
                println!(
                    "valid run report: experiment {:?}, {} ranks, makespan {:.6} s",
                    r.experiment, r.world.ranks, r.makespan_v
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(1)
            }
        };
    }
    if let Err(e) = validate(&args) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if args.serve {
        return serve_main(&args);
    }

    println!(
        "sortcli: {} on {} | p = {}, {} records/rank, {} cores/node, {} backend{}",
        args.sorter.name(),
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
    let run = match args.backend.as_str() {
        "threads" => run_threads(&args),
        "sockets" => run_sockets(&args),
        _ => run_sim(&args),
    };
    match run {
        Ok(run) => report(&args, run),
        Err(e) => {
            println!("\nresult: FAILED — {e}");
            ExitCode::from(1)
        }
    }
}

/// Print a `metric | value` table.
fn print_metric_table(rows: Vec<(&str, String)>) {
    let mut t = Table::new(["metric", "value"]);
    for (label, value) in rows {
        t.row([label.to_string(), value]);
    }
    t.print();
}

/// Print the result table and notes of a completed run and, with
/// `--metrics-out`, write its [`RunReport`] — the same rows and the same
/// report fields on every backend.
fn report(args: &Args, run: BackendRun) -> ExitCode {
    let all_ok = run.ranks.iter().all(|r| r.sorted && r.permutation);
    let loads: Vec<usize> = run.ranks.iter().map(|r| r.len as usize).collect();
    let r0 = run.ranks[0];
    let bound = args.sorter.load_bound(&tuning(args));
    let (verdict, passed) = verdict(all_ok, &loads, bound, r0.node_merged);
    println!("\nresult: {verdict}");
    let mut rows: Vec<(&str, String)> = vec![
        (run.times[0].0, fmt_time(run.times[0].1)),
        (run.times[1].0, fmt_time(run.times[1].1)),
        ("pivot phase (rank 0)", fmt_time(r0.pivot_s)),
        ("pivot: local sort", fmt_time(r0.local_sort_s)),
        ("pivot: sample", fmt_time(r0.sample_s)),
        ("pivot: select", fmt_time(r0.select_s)),
        ("pivot: partition", fmt_time(r0.partition_s)),
        ("exchange phase (rank 0)", fmt_time(r0.exchange_s)),
        ("ordering phase (rank 0)", fmt_time(r0.local_order_s)),
        ("other (rank 0)", fmt_time(r0.other_s)),
        ("node merged (τm)", r0.node_merged.to_string()),
        ("RDFA", format!("{:.4}", rdfa(&loads))),
        (
            "RDFA bound (published)",
            bound.map_or_else(|| "none".to_string(), |b| format!("{b}")),
        ),
        ("messages", run.messages.to_string()),
        ("bytes", fmt_bytes(run.bytes as usize)),
    ];
    let peak = run.memory.max_high_water as usize;
    rows.push(("peak reserved (any rank)", fmt_bytes(peak)));
    print_metric_table(rows);
    if run.ranks.iter().any(|r| r.spilled) {
        println!(
            "note: memory pressure tripped graceful degradation — {} received\n\
             records were spilled through disk runs instead of aborting.",
            run.ranks.iter().map(|r| r.spill_records).sum::<u64>()
        );
    }
    if r0.node_merged {
        println!(
            "note: node-level merging ran (avg message below τm), so output\n\
             concentrates on node leaders — RDFA counts the empty non-leaders."
        );
    }
    if args.trace {
        let snapshot = run.snapshot.as_ref().expect("--trace turns telemetry on");
        println!("\ntraffic by phase:");
        trace_table(snapshot).print();
        // Only a transport that lends runs (threads) bumps the counter.
        if let Some(lent) = snapshot.counter("comm.bytes_lent") {
            println!(
                "lent, not copied (comm.bytes_lent): {} of the {} sent",
                fmt_bytes(lent as usize),
                fmt_bytes(snapshot.total_bytes() as usize)
            );
        }
        // Only a buffer of at least one huge page is advised (`comm::pages`).
        if let Some(advised) = snapshot.counter("mem.huge_advised_bytes") {
            println!(
                "huge-page advised (mem.huge_advised_bytes): {} of the {} of sort buffers",
                fmt_bytes(advised as usize),
                fmt_bytes(snapshot.counter("mem.sort_buffer_bytes").unwrap_or(0) as usize)
            );
        }
        // Every step's first touches, counted on each rank's own thread
        // (`driver::Clock`). They follow the host's allocator and page
        // sizes, not the program, so the simulator's two-run identical
        // tables leave them out: real backends only.
        let faults = snapshot
            .counter("mem.page_faults")
            .filter(|_| args.backend != "sim");
        if let Some(faults) = faults {
            println!(
                "page faults in the sort (mem.page_faults): {faults}, {} per rank",
                faults / args.ranks as u64
            );
        }
        // Only a merge that found a key filling a sample stride cuts it out.
        // The simulator's overlapped merges pair chunks by virtual arrival,
        // which follows the measured host compute charged here, so there
        // the count is not a function of the program and would break its
        // two-run identical tables: real backends only.
        let replicated = snapshot
            .counter("merge.replicated_records")
            .filter(|_| args.backend != "sim");
        if let Some(records) = replicated {
            println!(
                "moved as replicated-key blocks (merge.replicated_records): {records} records"
            );
        }
        // What the sorter chose and why (rank 0 records them, in program
        // order): τ decisions and the local-sort kernel gate.
        println!("decisions:");
        for e in snapshot
            .events
            .iter()
            .filter(|e| e.name.starts_with("decision."))
        {
            println!("  {}: {}", e.name, e.detail);
        }
    }
    if let Some(path) = &args.trace_out {
        let snapshot = run
            .snapshot
            .as_ref()
            .expect("--trace-out turns telemetry on");
        if let Err(e) = write_trace(path, &args.backend, snapshot) {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!(
            "trace: {} spans written to {}",
            snapshot.spans.len(),
            path.display()
        );
    }
    if let Some(out) = &args.metrics_out {
        if let Err(e) = write_metrics(out, args, run, &loads) {
            eprintln!("error writing metrics: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::from(u8::from(!passed))
}

/// `--trace-out`: the snapshot's spans as Chrome-trace JSON. The
/// simulator's spans are virtual time, the threads backend's wall clock.
fn write_trace(path: &Path, backend: &str, snapshot: &Snapshot) -> std::io::Result<()> {
    let clock = if backend == "sim" { "virtual" } else { "wall" };
    std::fs::write(
        path,
        chrome_trace(&snapshot.spans, clock).to_string_compact(),
    )
}

/// A completed run's `result:` verdict and whether it passes. Output that
/// is not a sorted permutation fails, and so does an RDFA over the sorter's
/// published bound, unless node merging ran: its RDFA counts the empty
/// non-leaders by design.
fn verdict(all_ok: bool, loads: &[usize], bound: Option<f64>, node_merged: bool) -> (String, bool) {
    if !all_ok {
        return ("CORRUPT".to_string(), false);
    }
    let load = rdfa(loads);
    match bound {
        Some(bound) if load > bound && !node_merged => (
            format!("OVER BOUND (RDFA {load:.4} > bound {bound})"),
            false,
        ),
        _ => ("OK (sorted, permutation)".to_string(), true),
    }
}

/// Assemble and write the telemetry [`RunReport`] of a completed run (a
/// `.json` path is written as-is; any other path is a directory receiving
/// `BENCH_sortcli.json`).
fn write_metrics(
    out: &Path,
    args: &Args,
    run: BackendRun,
    loads: &[usize],
) -> std::io::Result<PathBuf> {
    let r0 = run.ranks[0];
    let mut report = RunReport::from_snapshot(
        "sortcli",
        run.snapshot.unwrap_or_default(),
        loads.iter().map(|&l| l as u64).collect(),
    );
    report.config = [
        ("sorter", Json::from(args.sorter.name())),
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
    if args.backend == "sockets" {
        report
            .config
            .push(("transport".to_string(), Json::from(args.transport.clone())));
    }
    let cfg = sds_cfg(args);
    report.decisions = Decisions {
        tau_m_bytes: cfg.as_ref().map_or(0, |c| c.tau_m_bytes as u64),
        tau_o: cfg.as_ref().map_or(0, |c| c.tau_o as u64),
        tau_s: cfg.as_ref().map_or(0, |c| c.tau_s as u64),
        stable: cfg.as_ref().is_some_and(|c| c.stable),
        node_merged: r0.node_merged,
        overlapped: r0.overlapped,
    };
    report.world = WorldMeta {
        ranks: args.ranks,
        cores_per_node: args.cores,
        nodes: args.ranks.div_ceil(args.cores),
    };
    report.memory = run.memory;
    report.makespan_v = run.times[0].1;
    report.wall_s = run.wall_s;
    write_document(out, "sortcli", &report.to_json_string())
}

/// Run a resident [`service::SortService`] over the threads backend and
/// drive it with a stream of Zipf-sized jobs from several concurrent
/// client handles. Reports throughput and latency percentiles; with
/// `--metrics-out`, emits a self-describing experiment document.
fn serve_main(args: &Args) -> ExitCode {
    let mut cfg = service::ServiceConfig::new(args.ranks);
    cfg.cores_per_node = args.cores;
    if let Some(b) = args.budget {
        cfg.memory_budget = b;
    }
    cfg.sort = sds_cfg(args).expect("validated: --serve runs sds only");
    let load = service::LoadGen::new(args.workload.clone(), args.records, args.seed);
    println!(
        "sortsvc: {} on {} resident ranks | {} jobs from {} clients, >= {} records/rank",
        args.workload, args.ranks, args.jobs, args.clients, args.records
    );
    // Jobs are dealt round-robin across the clients, so the stream is
    // deterministic given `load`. Blocking submits exercise the queue's
    // backpressure; every ticket is awaited before shutdown, so the report
    // accounts for every job.
    let svc = service::SortService::start(cfg);
    std::thread::scope(|scope| {
        for c in 0..args.clients as u64 {
            let (client, load) = (svc.client(), load.clone());
            scope.spawn(move || {
                let tickets: Vec<_> = (c..args.jobs)
                    .step_by(args.clients)
                    .map(|i| client.submit(load.spec(i)).expect("service accepting"))
                    .collect();
                for t in tickets {
                    t.wait();
                }
            });
        }
    });
    let r = svc.shutdown();
    let c = &r.counters;
    // (table label, document key, value, value as printed)
    let time = |label, key, secs: f64| (label, key, Json::from(secs), fmt_time(secs));
    let count = |label, key, n: u64| (label, key, Json::from(n), n.to_string());
    let rate = format!("{:.2}", r.jobs_per_sec);
    let rows = [
        ("jobs/sec", "jobs_per_sec", Json::from(r.jobs_per_sec), rate),
        time("wall clock", "wall_s", r.wall_s),
        time("latency p50", "latency_p50_s", r.latency_p50_s),
        time("latency p99", "latency_p99_s", r.latency_p99_s),
        time("queue wait p50", "queue_wait_p50_s", r.queue_wait_p50_s),
        time("queue wait p99", "queue_wait_p99_s", r.queue_wait_p99_s),
        time("sort wall p50", "sort_wall_p50_s", r.sort_wall_p50_s),
        time("generate p50", "generate_p50_s", r.generate_p50_s),
        count("completed", "completed", c.completed),
        count("shed", "shed", c.shed),
        count("failed", "failed", c.failed),
        count("spilled", "spilled", c.spilled),
        count("queue full", "queue_full", c.queue_full),
        count("arena hits", "arena_hits", c.arena_hits),
        count("arena misses", "arena_misses", c.arena_misses),
    ];
    print_metric_table(
        rows.iter()
            .map(|(l, _, _, text)| (*l, text.clone()))
            .collect(),
    );
    if let Some(out) = &args.metrics_out {
        let mut em = Emitter::with_out("sortsvc", Some(out.clone()));
        em.meta("backend", "threads");
        em.meta("workload", args.workload.clone());
        em.meta("ranks", args.ranks);
        em.meta("min_records_per_rank", args.records);
        em.meta("clients", args.clients);
        let values: Vec<_> = rows.iter().map(|(_, k, v, _)| (*k, v.clone())).collect();
        em.point("SortService", &[("jobs", Json::from(args.jobs))], &values);
        if let Err(e) = em.finish() {
            eprintln!("error writing metrics: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::from(u8::from(c.failed != 0 || !c.balanced()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::telemetry::PhaseComm;

    /// `validate` over `parse_args` of a command line, as `main` runs them.
    fn check(line: &str) -> Result<(), String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        validate(&parse_args(&argv)?)
    }

    #[test]
    fn a_load_over_the_published_bound_fails_the_run() {
        let over = [5, 0, 0, 0, 0]; // RDFA 5
        let under = [2, 1, 1, 0]; // RDFA 2
        assert_eq!(
            verdict(true, &over, Some(4.0), false),
            ("OVER BOUND (RDFA 5.0000 > bound 4)".to_string(), false)
        );
        let ok = ("OK (sorted, permutation)".to_string(), true);
        assert_eq!(verdict(true, &under, Some(4.0), false), ok);
        // Node merging concentrates the output on leaders by design.
        assert_eq!(verdict(true, &over, Some(4.0), true), ok);
        // HykSort and AMS publish no bound.
        assert_eq!(verdict(true, &over, None, false), ok);
        assert!(!verdict(false, &under, Some(4.0), false).1);
    }

    #[test]
    fn validate_accepts_what_ci_runs() {
        for line in [
            "",
            "--backend threads --sorter hyksort --ranks 4",
            "--backend sockets --transport tcp --sorter sds-stable",
            "--budget 60000 --faults seed=7,ramp=0:0:0.5 --resilient /tmp/s",
            "--trace",
            "--backend threads --trace",
            "--backend threads --trace-out /tmp/t.json",
            "--serve --ranks 4 --jobs 12 --workload adversarial",
            "--backend sockets --budget 1",
            "--backend threads --resilient /tmp/s",
            "--serve --budget 100000",
        ] {
            assert_eq!(check(line), Ok(()), "{line}");
        }
    }

    #[test]
    fn validate_rejects_what_no_backend_can_run() {
        // (command line, a fragment the error must name)
        for (line, want) in [
            ("--ranks 0", "--ranks must be at least 1"),
            ("--cores 0", "--cores must be at least 1"),
            ("--serve --ranks 0", "--ranks must be at least 1"),
            ("--serve --cores 0", "--cores must be at least 1"),
            ("--serve --clients 0", "--clients must be at least 1"),
            (
                "--serve --sorter hyksort",
                "--serve runs the sds sorters only",
            ),
            (
                "--serve --trace",
                "--trace needs a telemetry snapshot, which only sim and threads return (remove --serve",
            ),
            ("--sorter quick", "unknown sorter quick"),
            ("--workload nope", "unknown workload"),
            ("--backend mpi", "unknown backend mpi"),
            (
                "--transport tcp",
                "--transport applies to --backend sockets",
            ),
            ("--backend sockets --transport ib", "unknown transport ib"),
            (
                "--sorter ams --resilient /tmp/s",
                "--resilient applies to the sds",
            ),
            (
                "--backend threads --sorter ams --oversample 2",
                "--oversample",
            ),
            (
                "--backend threads --faults seed=1",
                "--faults is simulator-only",
            ),
            (
                "--backend sockets --trace",
                "--trace needs a telemetry snapshot, which only sim and threads return (remove --backend sockets",
            ),
            (
                "--backend sockets --trace-out /tmp/t.json",
                "--trace-out needs a telemetry snapshot, which only sim and threads return (remove --backend sockets",
            ),
            (
                "--serve --trace-out /tmp/t.json",
                "--trace-out needs a telemetry snapshot, which only sim and threads return (remove --serve",
            ),
        ] {
            let err = check(line).expect_err("must be rejected");
            assert!(err.contains(want), "{line}: {err:?} lacks {want:?}");
        }
    }

    #[test]
    fn trace_columns_sum_to_the_reports_totals() {
        let line = "--trace --ranks 8 --cores 4 --records 500 --workload zipf:1.4";
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let args = parse_args(&argv).expect("parses");
        for run in [run_sim(&args), run_threads(&args)] {
            let run = run.expect("sorts");
            let phases = &run.snapshot.as_ref().expect("--trace records").phases;
            assert!(phases
                .iter()
                .any(|p| p.name == "exchange" && p.messages > 0));
            let sum = |f: fn(&PhaseComm) -> u64| phases.iter().map(f).sum::<u64>();
            assert_eq!(sum(|p| p.messages), run.messages);
            assert_eq!(sum(|p| p.bytes), run.bytes);
            assert!(sum(|p| p.internode_messages) < run.messages);
        }
    }

    #[test]
    fn trace_out_writes_one_event_per_span_with_each_ranks_steps_in_order() {
        let dir = std::env::temp_dir().join(format!("sortcli-trace-out-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a temp dir");
        for (backend, clock) in [("sim", "virtual"), ("threads", "wall")] {
            let path = dir.join(format!("{backend}.json"));
            let line = format!(
                "--backend {backend} --sorter hss --ranks 4 --cores 2 --records 500 \
                 --workload zipf:1.4 --trace-out {}",
                path.display()
            );
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            let args = parse_args(&argv).expect("parses");
            assert_eq!(validate(&args), Ok(()));
            let run = if backend == "sim" {
                run_sim(&args)
            } else {
                run_threads(&args)
            };
            let run = run.expect("sorts");
            let snapshot = run.snapshot.as_ref().expect("--trace-out records");
            write_trace(&path, backend, snapshot).expect("writes");
            let text = std::fs::read_to_string(&path).expect("reads back");
            let doc = Json::parse(&text).expect("parses back");
            assert_eq!(
                doc.get("otherData").and_then(|d| d.get("clock")),
                Some(&Json::from(clock))
            );
            let events = doc
                .get("traceEvents")
                .and_then(Json::as_arr)
                .expect("events");
            assert_eq!(events.len(), snapshot.spans.len(), "{backend}");
            fn name(e: &Json) -> &str {
                e.get("name").and_then(Json::as_str).expect("a name")
            }
            let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).expect("a number");
            for rank in 0..args.ranks {
                let mut mine: Vec<&Json> = events
                    .iter()
                    .filter(|e| e.get("tid").and_then(Json::as_u64) == Some(rank as u64))
                    .collect();
                assert!(mine.iter().all(|e| e.get("ph") == Some(&Json::from("X"))));
                mine.sort_by(|a, b| field(a, "ts").total_cmp(&field(b, "ts")));
                let steps: Vec<&str> = mine
                    .iter()
                    .map(|e| name(e))
                    .filter(|n| *n != "refine-round")
                    .collect();
                // The driver's steps, then sortcli's own output checks.
                let driver = [
                    "local-sort",
                    "pivot-select",
                    "partition",
                    "exchange",
                    "local-order",
                ];
                assert_eq!(steps[..driver.len()], driver, "{backend} rank {rank}");
                assert!(
                    steps[driver.len()..].iter().all(|n| *n == "validate"),
                    "{backend} rank {rank}: {steps:?}"
                );
                // Each histogram round nests in its rank's pivot selection.
                let select = mine
                    .iter()
                    .find(|e| name(e) == "pivot-select")
                    .expect("a step");
                let (from, to) = (
                    field(select, "ts"),
                    field(select, "ts") + field(select, "dur"),
                );
                for round in mine.iter().filter(|e| name(e) == "refine-round") {
                    let (a, b) = (field(round, "ts"), field(round, "ts") + field(round, "dur"));
                    assert!(
                        from <= a && b <= to,
                        "{backend} rank {rank}: {a}..{b} outside {from}..{to}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleans up");
    }

    #[test]
    fn rank_outcome_crosses_the_wire_intact() {
        use comm::Wire;
        let sent = RankOutcome {
            sorted: true,
            permutation: false,
            len: 12_345,
            pivot_s: 1.5e-3,
            local_sort_s: 1.0e-3,
            sample_s: 1.0e-4,
            select_s: 3.0e-4,
            partition_s: 1.0e-4,
            exchange_s: 2.5e-4,
            local_order_s: 0.0,
            other_s: 3.0e-6,
            node_merged: true,
            overlapped: false,
            spilled: true,
            spill_records: 77,
        };
        let mut bytes = Vec::new();
        sent.put(&mut bytes);
        assert_eq!(RankOutcome::get(&mut &bytes[..]), Some(sent));
        assert_eq!(RankOutcome::get(&mut &bytes[..bytes.len() - 1]), None);
        let oom = comm::OomError {
            rank: 3,
            requested: 800,
            available: 100,
            budget: 500,
        };
        for sent in [
            Ok(sent),
            Err(SortError::Oom(oom)),
            Err(SortError::PeerOom),
            Err(SortError::Io("disk full".into())),
        ] {
            let mut bytes = Vec::new();
            sent.put(&mut bytes);
            assert_eq!(Wire::get(&mut &bytes[..]), Some(sent));
        }
    }
}
