//! The layer suite: isolated calls into one layer's public functions.
//!
//! Every traced run executes the whole suite, seeded from `--seed`, in one
//! fresh child process; its rows do not depend on the workload being
//! traced, only the staged-replay rows do. Each row names the end-to-end
//! result it predicts in the README's table.

use crate::stats::{median, percentile};
use crate::trial::{closed_loop, ClientJob, Until};
use crate::workloads::{find, real_ranks, SIM_RANKS, WARMUP_JOBS};
use algos::{ams::AmsConfig, ams_sort, hss::HssConfig, hss_sort};
use comm::mailbox::{Envelope, Mailbox, SrcSel};
use comm::{Communicator, Wire};
use mpisim::{NetModel, World};
use sdssort::merge::kway_merge;
use sdssort::partition::fast_cuts;
use sdssort::search::LocalPivotIndex;
use sdssort::{sds_sort, ComputeCharge, ComputeModel, SdsConfig, SortError, SortOutput, Tagged};
use service::{JobSpec, ServiceConfig, SortService};
use shmem::ThreadWorld;
use sockcomm::frame::{decode_frame, encode_frame, read_frame, write_frame, Frame, FrameKind};
use sockcomm::SocketWorld;
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Bytes of one bulk message in the transport rows.
const BULK_BYTES: usize = 8 << 20;
/// `u64`s per peer in the small-message rows (64 B).
const SMALL_WORDS: usize = 8;
const GB: f64 = 1e9;

pub const COLLECTIVES_ENTRY: &str = "sdsbench-suite-collectives";
pub const EMPTY_ENTRY: &str = "sdsbench-suite-empty";

/// Rows of the suite, in the order they run.
pub type Rows = Vec<(&'static str, f64)>;

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median seconds of `reps` runs of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..reps).map(|_| secs(&mut f)).collect::<Vec<_>>())
}

pub fn run_suite(seed: u64, quick: bool) -> Rows {
    let mut rows = Rows::new();
    telemetry_and_baseline(seed, quick, &mut rows);
    mailbox(quick, &mut rows);
    wire(seed, &mut rows);
    frames(&mut rows);
    thread_collectives(quick, &mut rows);
    socket_collectives(quick, &mut rows);
    gang_dispatch(quick, &mut rows);
    service_probe(seed, quick, &mut rows);
    simulator_probe(seed, quick, &mut rows);
    p16_kernels(seed, &mut rows);
    rows
}

// ---- telemetry overhead and the single-thread baseline --------------------

/// `threads-uniform`'s sort with the world's telemetry on or off: rank 0's
/// seconds per sort between barriers.
fn threads_uniform_sorts(seed: u64, n: usize, telemetry: bool, reps: usize) -> Vec<f64> {
    let report = ThreadWorld::new(real_ranks())
        .cores_per_node(1)
        .telemetry(telemetry)
        .run(|comm| {
            let input = workloads::uniform_u64(n, seed, comm.rank());
            let cfg = SdsConfig::default();
            (0..reps + 2)
                .map(|_| {
                    let data = input.clone();
                    comm.barrier();
                    let t0 = comm.now();
                    let out = sds_sort(comm, data, &cfg).expect("no memory budget");
                    comm.barrier();
                    let seconds = comm.now() - t0;
                    black_box(out);
                    seconds
                })
                .skip(2)
                .collect::<Vec<f64>>()
        });
    report.results.into_iter().next().expect("rank 0 exists")
}

fn telemetry_and_baseline(seed: u64, quick: bool, rows: &mut Rows) {
    let w = find("threads-uniform").expect("known workload");
    let n = w.n(quick);
    let reps = if quick { 2 } else { 6 };
    // A throwaway world takes the process's first-touch costs; then off,
    // on, on, off, so that a drift over the process's life cancels.
    threads_uniform_sorts(seed, n, false, 1);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for telemetry in [false, true, true, false] {
        let side = if telemetry { &mut on } else { &mut off };
        side.extend(threads_uniform_sorts(seed, n, telemetry, reps));
    }
    rows.push((
        "telemetry.on_overhead_frac",
        median(&on) / median(&off) - 1.0,
    ));

    let p = real_ranks();
    let all: Vec<u64> = (0..p)
        .flat_map(|r| workloads::uniform_u64(n, seed, r))
        .collect();
    let std_s = median_secs(3, || {
        let mut v = all.clone();
        v.sort_unstable();
        black_box(v);
    });
    // The clone is outside sds_sort's clock too, so take it out here.
    let clone_s = median_secs(3, || {
        black_box(all.clone());
    });
    let std_keys_per_s = all.len() as f64 / (std_s - clone_s).max(1e-9);
    rows.push(("baseline.std_sort_keys_per_s", std_keys_per_s));
    rows.push((
        "baseline.speedup_vs_std",
        all.len() as f64 / median(&off) / std_keys_per_s,
    ));
}

// ---- comm::mailbox ---------------------------------------------------------

const PING_TAG: u64 = 1;

fn envelope<T: Send + 'static>(src: usize, data: Vec<T>) -> Envelope {
    let bytes = std::mem::size_of_val(data.as_slice());
    Envelope {
        ctx: 0,
        src,
        tag: PING_TAG,
        data: Box::new(data),
        bytes,
    }
}

fn mailbox(quick: bool, rows: &mut Rows) {
    let live = AtomicBool::new(false);
    let take = |mb: &Mailbox, src: usize| {
        mb.take(0, SrcSel::Exact(src), PING_TAG, &live)
            .expect("the mailbox is never aborted")
    };

    // Two threads bounce an 8-byte envelope: one round trip is two
    // push/take pairs and two thread wake-ups.
    let trips = if quick { 2_000 } else { 20_000 };
    let (ping, pong) = (Mailbox::new(4), Mailbox::new(4));
    let seconds = std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..trips {
                let env = take(&ping, 0);
                pong.push(envelope(1, vec![env.bytes as u64]), &live);
            }
        });
        secs(|| {
            for i in 0..trips {
                ping.push(envelope(0, vec![i as u64]), &live);
                black_box(take(&pong, 1));
            }
        })
    });
    rows.push(("comm.mailbox.pingpong_us", seconds / trips as f64 * 1e6));

    // Bulk: what a synchronous exchange does per chunk — copy the slice
    // into an envelope, hand it over, append it to the receive buffer.
    let chunk = vec![0xA5u8; BULK_BYTES];
    let chunks = if quick { 4 } else { 16 };
    let mb = Mailbox::new(4);
    let seconds = std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..chunks {
                mb.push(envelope(0, chunk.to_vec()), &live);
            }
        });
        secs(|| {
            for _ in 0..chunks {
                let got = take(&mb, 0)
                    .data
                    .downcast::<Vec<u8>>()
                    .expect("bulk envelopes carry bytes");
                let mut out = Vec::with_capacity(got.len());
                out.extend_from_slice(&got);
                black_box(out);
            }
        })
    });
    rows.push((
        "comm.mailbox.bulk_gbps",
        (chunks * BULK_BYTES) as f64 / seconds / GB,
    ));
}

// ---- comm::wire ------------------------------------------------------------

fn wire_rows<T: Wire>(items: &[T], encode: &'static str, decode: &'static str, rows: &mut Rows) {
    let mut bytes = Vec::new();
    let enc = median_secs(5, || {
        bytes = Vec::new();
        T::put_slice(items, &mut bytes);
    });
    let dec = median_secs(5, || {
        black_box(T::get_vec(&bytes).expect("round trip"));
    });
    rows.push((encode, bytes.len() as f64 / enc / GB));
    rows.push((decode, bytes.len() as f64 / dec / GB));
}

fn wire(seed: u64, rows: &mut Rows) {
    let keys = workloads::uniform_u64(BULK_BYTES / 8, seed, 0);
    wire_rows(
        &keys,
        "comm.wire.encode_u64_gbps",
        "comm.wire.decode_u64_gbps",
        rows,
    );
    let tagged: Vec<Tagged<u64>> = keys[..BULK_BYTES / 16]
        .iter()
        .enumerate()
        .map(|(i, &k)| Tagged::new(k, i as u64))
        .collect();
    wire_rows(
        &tagged,
        "comm.wire.encode_tagged_gbps",
        "comm.wire.decode_tagged_gbps",
        rows,
    );
}

// ---- sockcomm::frame -------------------------------------------------------

fn frames(rows: &mut Rows) {
    let frame = Frame {
        kind: FrameKind::Data,
        ctx: 1,
        src: 0,
        tag: PING_TAG,
        payload: vec![0x5Au8; BULK_BYTES],
    };
    let codec = median_secs(5, || {
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        black_box(decode_frame(&buf).expect("round trip"));
    });
    rows.push(("sockcomm.frame.codec_gbps", BULK_BYTES as f64 / codec / GB));

    let count = 8;
    let (mut tx, mut rx) = UnixStream::pair().expect("socketpair");
    let seconds = std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..count {
                write_frame(&mut tx, &frame).expect("peer reads until the last frame");
            }
        });
        secs(|| {
            for _ in 0..count {
                black_box(read_frame(&mut rx).expect("stream stays open"));
            }
        })
    });
    rows.push((
        "sockcomm.frame.uds_gbps",
        (count * BULK_BYTES) as f64 / seconds / GB,
    ));
}

// ---- collectives inside a world, per backend -------------------------------

/// `[barrier µs, small alltoallv µs, bulk alltoallv GB/s]` on rank 0's
/// clock. Bulk counts the bytes one rank sends to its peers.
pub fn collective_rows<C: Communicator>(comm: &C, quick: bool) -> Vec<f64> {
    let p = comm.size();
    let iters = if quick { 200 } else { 2_000 };
    let per_call = |f: &dyn Fn()| {
        comm.barrier();
        let t0 = comm.now();
        for _ in 0..iters {
            f();
        }
        (comm.now() - t0) / iters as f64
    };
    let barrier_s = per_call(&|| comm.barrier());

    let small = vec![7u64; SMALL_WORDS * p];
    let small_counts = vec![SMALL_WORDS; p];
    let small_s = per_call(&|| {
        black_box(comm.alltoallv_given_counts(&small, &small_counts, &small_counts));
    });

    let words = BULK_BYTES / 8;
    let bulk = vec![9u64; words * p];
    let bulk_counts = vec![words; p];
    let reps = if quick { 2 } else { 8 };
    comm.barrier();
    let t0 = comm.now();
    for _ in 0..reps {
        black_box(comm.alltoallv_given_counts(&bulk, &bulk_counts, &bulk_counts));
    }
    let bulk_s = (comm.now() - t0) / reps as f64;
    let to_peers = (BULK_BYTES * (p - 1)).max(1);
    vec![
        barrier_s * 1e6,
        small_s * 1e6,
        to_peers as f64 / bulk_s / GB,
    ]
}

fn thread_collectives(quick: bool, rows: &mut Rows) {
    let report = ThreadWorld::new(real_ranks())
        .cores_per_node(1)
        .run(|comm| collective_rows(comm, quick));
    let v = &report.results[0];
    rows.push(("shmem.barrier_us", v[0]));
    rows.push(("shmem.alltoallv_small_us", v[1]));
    rows.push(("shmem.alltoallv_bulk_gbps", v[2]));
}

fn socket_collectives(quick: bool, rows: &mut Rows) {
    let world = SocketWorld::new(real_ranks()).cores_per_node(1);
    let report = world
        .run::<bool, Vec<f64>>(COLLECTIVES_ENTRY, &quick)
        .expect("sockets collectives world");
    let v = &report.results[0];
    rows.push(("sockcomm.barrier_us", v[0]));
    rows.push(("sockcomm.alltoallv_small_us", v[1]));
    rows.push(("sockcomm.alltoallv_bulk_gbps", v[2]));

    // An entry that does nothing: spawn + mesh rendezvous + teardown.
    let launches = if quick { 2 } else { 5 };
    let launch_s = median_secs(launches, || {
        world
            .run::<bool, bool>(EMPTY_ENTRY, &quick)
            .expect("empty sockets world");
    });
    rows.push(("sockcomm.launch_ms", launch_s * 1e3));
}

// ---- shmem::resident and the service ---------------------------------------

fn gang_dispatch(quick: bool, rows: &mut Rows) {
    let mut world = ThreadWorld::new(real_ranks()).cores_per_node(1).resident();
    let iters = if quick { 200 } else { 2_000 };
    let seconds = secs(|| {
        for _ in 0..iters {
            world.run(|_| ()).expect("an empty gang does not panic");
        }
    });
    rows.push((
        "shmem.resident.gang_dispatch_us",
        seconds / iters as f64 * 1e6,
    ));
}

fn p50_of(jobs: &[ClientJob], f: impl Fn(&ClientJob, &service::JobReport) -> f64) -> f64 {
    let v: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.report.as_ref().map(|r| f(j, r)))
        .collect();
    median(&v)
}

/// A short closed loop of the service workload's jobs, read through the
/// service's own `JobReport`s, plus the round trip of a job with no
/// records.
fn service_probe(seed: u64, quick: bool, rows: &mut Rows) {
    let w = find("service-closed-loop").expect("known workload");
    let ranks = w.ranks();
    let lg = w.load_gen(seed, 0);
    let svc = SortService::start(ServiceConfig::new(ranks));

    let client = svc.client();
    let empties = if quick { 20 } else { 200 };
    let trips: Vec<f64> = (0..empties)
        .map(|i| {
            secs(|| {
                let ticket = client
                    .submit(JobSpec::new("uniform", 0, seed + i))
                    .expect("the service is running");
                black_box(ticket.wait());
            })
        })
        .collect();
    rows.push(("service.dispatch_empty_us", median(&trips) * 1e6));

    let warmup = if quick { 10 } else { WARMUP_JOBS as u64 };
    closed_loop(&svc, &lg, ranks, 0, Until::Jobs(warmup));
    let until = if quick {
        Until::Jobs(100)
    } else {
        Until::Elapsed(Duration::from_millis(1500))
    };
    let (jobs, wall_s) = closed_loop(&svc, &lg, ranks, warmup, until);
    let counters = svc.counters();
    svc.shutdown();

    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
    rows.push(("service.jobs_per_s", jobs.len() as f64 / wall_s));
    rows.push((
        "service.queue_wait_p50_ms",
        p50_of(&jobs, |_, r| r.queue_wait_s) * 1e3,
    ));
    rows.push((
        "service.sort_wall_p50_ms",
        p50_of(&jobs, |_, r| r.sort_wall_s) * 1e3,
    ));
    rows.push((
        "service.client_overhead_p50_us",
        p50_of(&jobs, |j, r| j.latency_s - r.queue_wait_s - r.sort_wall_s) * 1e6,
    ));
    let takes = counters.arena_hits + counters.arena_misses;
    rows.push((
        "service.arena_hit_rate",
        counters.arena_hits as f64 / takes.max(1) as f64,
    ));
    rows.push(("service.shed", counters.shed as f64));
    rows.push(("service.spilled", counters.spilled as f64));
    rows.push(("service.latency_p99_ms", percentile(&latencies, 99.0) * 1e3));
    rows.push((
        "service.stats.pivot_p50_ms",
        p50_of(&jobs, |_, r| r.pivot_s) * 1e3,
    ));
    rows.push((
        "service.stats.exchange_p50_ms",
        p50_of(&jobs, |_, r| r.exchange_s) * 1e3,
    ));
    rows.push((
        "service.stats.local_order_p50_ms",
        p50_of(&jobs, |_, r| r.local_order_s) * 1e3,
    ));
}

// ---- the simulator ----------------------------------------------------------

fn sim_world() -> World {
    World::new(SIM_RANKS)
        .cores_per_node(1)
        .net(NetModel::edison())
        .compute_scale(0.0)
}

/// One sort alone in a simulated world: `(RDFA, virtual makespan ms,
/// messages, bytes, host seconds)`.
fn lone_sort(
    seed: u64,
    n: usize,
    sort: impl Fn(&mpisim::Comm, Vec<u64>) -> Result<SortOutput<u64>, SortError> + Send + Sync,
) -> (f64, f64, u64, u64, f64) {
    let report = sim_world().run(|comm| {
        let data = workloads::zipf_keys(n, 1.4, seed, comm.rank());
        sort(comm, data).expect("no memory budget").data.len()
    });
    (
        sdssort::rdfa(&report.results),
        report.makespan * 1e3,
        report.messages,
        report.bytes,
        report.wall.as_secs_f64(),
    )
}

fn simulator_probe(seed: u64, quick: bool, rows: &mut Rows) {
    let w = find("sim-zipf-p16").expect("known workload");
    let n = w.n(quick);
    let model = ComputeCharge::Modeled(ComputeModel::nominal());
    let cfg = w.sds_config();
    let runs: Vec<_> = (0..3)
        .map(|_| lone_sort(seed, n, |comm, data| sds_sort(comm, data, &cfg)))
        .collect();
    let (_, _, messages, bytes, _) = runs[0];
    assert!(
        runs.iter().all(|r| (r.2, r.3) == (messages, bytes)),
        "the simulator's traffic repeats exactly: {runs:?}"
    );
    // Virtual time does not quite: the order in which host threads deliver
    // chunks to wait_any decides which merges run, and so what is charged.
    let column =
        |f: fn(&(f64, f64, u64, u64, f64)) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    rows.push(("mpisim.virtual_makespan_ms", column(|r| r.1)));
    rows.push(("mpisim.messages", messages as f64));
    rows.push(("mpisim.bytes", bytes as f64));
    rows.push(("mpisim.host_s", column(|r| r.4)));

    let hss = HssConfig {
        charge: model,
        ..HssConfig::default()
    };
    let (rdfa, ms, ..) = lone_sort(seed, n, |comm, data| hss_sort(comm, data, &hss));
    rows.push(("algos.hss.rdfa", rdfa));
    rows.push(("algos.hss.virtual_makespan_ms", ms));
    let ams = AmsConfig {
        charge: model,
        ..AmsConfig::default()
    };
    let (rdfa, ms, ..) = lone_sort(seed, n, |comm, data| ams_sort(comm, data, &ams));
    rows.push(("algos.ams.rdfa", rdfa));
    rows.push(("algos.ams.virtual_makespan_ms", ms));
}

/// The two kernels whose cost depends on `p`, at `p = 16`, on one thread.
fn p16_kernels(seed: u64, rows: &mut Rows) {
    let runs: Vec<Vec<u64>> = (0..SIM_RANKS)
        .map(|r| {
            let mut v = workloads::uniform_u64(128 << 10, seed, r);
            v.sort_unstable();
            v
        })
        .collect();
    let refs: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
    let merge_s = median_secs(3, || {
        black_box(kway_merge(&refs));
    });
    rows.push((
        "sdssort.merge.kway16_keys_per_s",
        (SIM_RANKS * (128 << 10)) as f64 / merge_s,
    ));

    // 15 regular-sample pivots of 1 Mi zipf keys: the top key holds a
    // third of the data, so several pivots are duplicates of it.
    let mut keys = workloads::zipf_keys(1 << 20, 1.4, seed, 0);
    keys.sort_unstable();
    let pivots: Vec<u64> = (1..SIM_RANKS)
        .map(|i| keys[i * keys.len() / SIM_RANKS])
        .collect();
    assert!(
        pivots.windows(2).any(|w| w[0] == w[1]),
        "the partition row needs a duplicated pivot run"
    );
    let index = LocalPivotIndex::build(&keys, SIM_RANKS - 1);
    let calls = 1_000;
    let seconds = secs(|| {
        for _ in 0..calls {
            black_box(fast_cuts(black_box(&keys), &pivots, Some(&index)));
        }
    });
    rows.push(("sdssort.partition.p16_us", seconds / calls as f64 * 1e6));
}
