//! Backend equivalence: the same sort on the same seed must produce the
//! same answer whether it runs on the deterministic virtual-time simulator
//! (`mpisim`), on real OS threads (`shmem`), or on real OS *processes*
//! over sockets (`sockcomm`).
//!
//! All backends share the collective algorithms and rank-order reduction
//! folds in `comm::raw`, so this holds *bit-for-bit per rank*, not just as
//! a global multiset:
//!
//! - `u64` keys (any variant): identical per-rank output vectors.
//! - Stable variant over tagged records: identical per-rank `(key, tag)`
//!   sequences — stability pins the tie order to global input order,
//!   leaving nothing arrival-dependent.
//! - Fast variant over tagged records: identical per-rank *key* sequences
//!   and a global permutation of the input; equal-key tag order is the
//!   one place real-thread arrival order is allowed to show through.
//!
//! - Records that cross the sockets wire field by field — `Tagged<u32>`
//!   (12 wire bytes, 16 in memory) and `Record<OrderedF32, Pad<24>>` — hold
//!   the same two guarantees through the synchronous (stable) and the
//!   overlapped (fast) exchange, with an empty rank, empty chunks and
//!   zero-length frames in the run, at `p = 1` and `p = 3`, over UDS and TCP.
//!
//! - The owned exchange (`alltoallv_runs`, `alltoallv_async_runs`) delivers
//!   what the borrowed one does on every backend — through both deliveries
//!   of `sdssort::exchange`, with empty self chunks, empty remote chunks,
//!   fewer records than ranks and nothing but ties — and only the threads
//!   backend lends: there every run is read in its sender's buffer. On the
//!   simulator and over sockets a rank's own run is its send buffer, taken
//!   back and cut down to the run, and no remote run is read in place.
//!
//! Also runs the Theorem 1 `O(4N/p)` skew-bound assertions on the threads
//! and sockets backends: the bound is a property of the partition, not the
//! simulator.
//!
//! Sockets worlds re-exec this test binary for their rank processes,
//! targeting the [`sockcomm_child_entry`] test by exact name; in a normal
//! parent test run that test is a no-op.

use mpisim::{Communicator, NetModel, World};
use sdssort::record::Pad;
use sdssort::{sds_sort, sds_sort_resilient, OrderedF32, Record, SdsConfig, Sortable, Tagged};
use shmem::ThreadWorld;
use workloads::{heavy_hitters, staircase, uniform_u64, zipf_keys};

/// Workload matrix: name → per-rank generator (seeded, rank-dependent).
fn gen_keys(workload: &str, n: usize, seed: u64, rank: usize) -> Vec<u64> {
    match workload {
        "uniform" => uniform_u64(n, seed, rank),
        "zipf" => zipf_keys(n, 1.2, seed, rank),
        "staircase" => staircase(n, 4, seed, rank),
        "adversarial" => heavy_hitters(n, 2, 90.0, seed, rank),
        "identical" => vec![seed % 101; n],
        other => panic!("unknown workload {other}"),
    }
}

/// Sort with the row of `algos::Sorter` named `algo` (backend-generic,
/// like `sds_sort`). AMS and HSS are deterministic end to end, so they join
/// the bit-identical matrix below as first-class columns.
fn run_algo<C: comm::Communicator>(algo: &str, comm: &C, data: Vec<u64>) -> Vec<u64> {
    let sorter = algos::Sorter::by_name(algo).expect("a row of the sorter table");
    sorter
        .sort(comm, data, &algos::Tuning::default())
        .expect("no memory budget")
        .data
}

fn run_sim_algo(algo: &str, p: usize, workload: &str, n: usize, seed: u64) -> Vec<Vec<u64>> {
    let world = World::new(p).cores_per_node(4).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = gen_keys(workload, n, seed, comm.rank());
        run_algo(algo, comm, data)
    });
    report.results
}

fn run_threads_algo(algo: &str, p: usize, workload: &str, n: usize, seed: u64) -> Vec<Vec<u64>> {
    use comm::Communicator;
    let report = ThreadWorld::new(p).cores_per_node(4).run(|comm| {
        let data = gen_keys(workload, n, seed, comm.rank());
        run_algo(algo, comm, data)
    });
    report.results
}

fn cfg_for(stable: bool) -> SdsConfig {
    let mut cfg = if stable {
        SdsConfig::stable()
    } else {
        SdsConfig::default()
    };
    cfg.tau_m_bytes = 0; // full-width exchange on both backends
    cfg
}

fn run_sim_u64(p: usize, cfg: &SdsConfig, workload: &str, n: usize, seed: u64) -> Vec<Vec<u64>> {
    let world = World::new(p).cores_per_node(4).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = gen_keys(workload, n, seed, comm.rank());
        sds_sort(comm, data, cfg).expect("no memory budget").data
    });
    report.results
}

fn run_threads_u64(
    p: usize,
    cfg: &SdsConfig,
    workload: &str,
    n: usize,
    seed: u64,
) -> Vec<Vec<u64>> {
    use comm::Communicator;
    let report = ThreadWorld::new(p).cores_per_node(4).run(|comm| {
        let data = gen_keys(workload, n, seed, comm.rank());
        sds_sort(comm, data, cfg).expect("no memory budget").data
    });
    report.results
}

// ---- sockets backend: entry plumbing -------------------------------------

const ENTRY_SORT_U64: &str = "equiv-sort-u64";
const ENTRY_SORT_TAGGED: &str = "equiv-sort-tagged";
const ENTRY_SORT_ALGO: &str = "equiv-sort-algo";
const ENTRY_RECORDS_TAGGED: &str = "equiv-records-tagged";
const ENTRY_RECORDS_WIDE: &str = "equiv-records-wide";
const ENTRY_OWNED_EXCHANGE: &str = "equiv-owned-exchange";
const ENTRY_BIG_U64: &str = "equiv-big-u64";
const ENTRY_BIG_TAGGED: &str = "equiv-big-tagged";

/// (workload, records per rank, seed, stable, force node merge).
type U64Params = (String, u64, u64, bool, bool);

fn sockets_u64_entry(comm: &sockcomm::SockComm, params: U64Params) -> Vec<u64> {
    use comm::Communicator;
    let (workload, n, seed, stable, force_merge) = params;
    let mut cfg = cfg_for(stable);
    if force_merge {
        cfg.tau_m_bytes = usize::MAX;
    }
    let data = gen_keys(&workload, n as usize, seed, comm.rank());
    sds_sort(comm, data, &cfg).expect("no memory budget").data
}

/// (algo, workload, records per rank, seed).
type AlgoParams = (String, String, u64, u64);

fn sockets_algo_entry(comm: &sockcomm::SockComm, params: AlgoParams) -> Vec<u64> {
    use comm::Communicator;
    let (algo, workload, n, seed) = params;
    let data = gen_keys(&workload, n as usize, seed, comm.rank());
    run_algo(&algo, comm, data)
}

/// (records per rank, seed, stable).
type TaggedParams = (u64, u64, bool);

fn sockets_tagged_entry(
    comm: &sockcomm::SockComm,
    params: TaggedParams,
) -> (Vec<Tagged<u32>>, Vec<Tagged<u32>>) {
    use comm::Communicator;
    let (n, seed, stable) = params;
    let cfg = cfg_for(stable);
    let data = tagged_input(n as usize, 64, seed, comm.rank());
    let out = sds_sort(comm, data.clone(), &cfg).expect("no memory budget");
    (data, out.data)
}

/// Rank processes of the sockets worlds below re-enter this binary with
/// `sockcomm_child_entry --exact` and divert inside one of these
/// `child_rank` calls (which never return). In a parent test run no
/// `SOCKCOMM_*` environment is set, every call is a no-op, and the test
/// trivially passes.
#[test]
fn sockcomm_child_entry() {
    sockcomm::child_rank(ENTRY_SORT_U64, sockets_u64_entry);
    sockcomm::child_rank(ENTRY_SORT_TAGGED, sockets_tagged_entry);
    sockcomm::child_rank(ENTRY_SORT_ALGO, sockets_algo_entry);
    sockcomm::child_rank(ENTRY_RECORDS_TAGGED, sort_records::<Tagged<u32>, _>);
    sockcomm::child_rank(ENTRY_RECORDS_WIDE, sort_records::<Wide, _>);
    sockcomm::child_rank(ENTRY_OWNED_EXCHANGE, owned_exchange_cases);
    sockcomm::child_rank(ENTRY_BIG_U64, sort_big::<u64, _>);
    sockcomm::child_rank(ENTRY_BIG_TAGGED, sort_big::<Tagged<u64>, _>);
}

fn sockets_world(p: usize) -> sockcomm::SocketWorld {
    sockcomm::SocketWorld::new(p)
        .cores_per_node(4)
        .child_args(["sockcomm_child_entry", "--exact"])
}

fn run_sockets_u64(
    p: usize,
    workload: &str,
    n: usize,
    seed: u64,
    stable: bool,
    force_merge: bool,
) -> Vec<Vec<u64>> {
    sockets_world(p)
        .run::<U64Params, Vec<u64>>(
            ENTRY_SORT_U64,
            &(workload.to_string(), n as u64, seed, stable, force_merge),
        )
        .expect("sockets world")
        .results
}

fn run_sockets_tagged(p: usize, n: usize, seed: u64, stable: bool) -> (RankRecords, RankRecords) {
    sockets_world(p)
        .run::<TaggedParams, (Vec<Tagged<u32>>, Vec<Tagged<u32>>)>(
            ENTRY_SORT_TAGGED,
            &(n as u64, seed, stable),
        )
        .expect("sockets world")
        .results
        .into_iter()
        .unzip()
}

#[test]
fn ams_and_hss_output_is_bit_identical_across_backends() {
    // The crates/algos peers join the same guarantee as sds_sort: seeded
    // sampling, synchronous rank-order exchanges, and tie-to-lower-run
    // merging leave nothing arrival-dependent, so per-rank outputs match
    // bit for bit between the simulator and real OS threads.
    for algo in ["ams", "hss"] {
        for p in [2usize, 4, 8] {
            for workload in ["uniform", "zipf", "staircase", "adversarial", "identical"] {
                let seed = 0xA15 + p as u64;
                let sim = run_sim_algo(algo, p, workload, 1200, seed);
                let thr = run_threads_algo(algo, p, workload, 1200, seed);
                assert_eq!(
                    sim, thr,
                    "per-rank divergence: algo={algo} p={p} workload={workload}"
                );
            }
        }
    }
}

#[test]
fn sockets_ams_and_hss_output_is_bit_identical_to_sim_and_threads() {
    for algo in ["ams", "hss"] {
        for p in [2usize, 4] {
            for workload in ["uniform", "zipf", "staircase", "adversarial", "identical"] {
                let seed = 0xA15 + p as u64;
                let sim = run_sim_algo(algo, p, workload, 800, seed);
                let thr = run_threads_algo(algo, p, workload, 800, seed);
                let sock = sockets_world(p)
                    .run::<AlgoParams, Vec<u64>>(
                        ENTRY_SORT_ALGO,
                        &(algo.to_string(), workload.to_string(), 800, seed),
                    )
                    .expect("sockets world")
                    .results;
                assert_eq!(
                    sim, sock,
                    "sim vs sockets divergence: algo={algo} p={p} workload={workload}"
                );
                assert_eq!(
                    thr, sock,
                    "threads vs sockets divergence: algo={algo} p={p} workload={workload}"
                );
            }
        }
    }
}

#[test]
fn u64_output_is_bit_identical_across_backends() {
    for p in [2usize, 4, 8] {
        for workload in ["uniform", "zipf", "staircase", "adversarial", "identical"] {
            for stable in [false, true] {
                let cfg = cfg_for(stable);
                let seed = 0xE9 + p as u64;
                let sim = run_sim_u64(p, &cfg, workload, 1500, seed);
                let thr = run_threads_u64(p, &cfg, workload, 1500, seed);
                assert_eq!(
                    sim, thr,
                    "per-rank divergence: p={p} workload={workload} stable={stable}"
                );
            }
        }
    }
}

#[test]
fn u64_output_matches_with_node_merge_enabled() {
    // τm on, multi-rank nodes: the node-merge path (split + leader
    // gather) must agree across backends too.
    for stable in [false, true] {
        let mut cfg = cfg_for(stable);
        cfg.tau_m_bytes = usize::MAX; // force node merging
        let p = 8;
        let sim = run_sim_u64(p, &cfg, "zipf", 1200, 0x5EED);
        let thr = run_threads_u64(p, &cfg, "zipf", 1200, 0x5EED);
        assert_eq!(sim, thr, "node-merge divergence (stable={stable})");
    }
}

/// Records whose tag encodes (rank, position): ties are observable.
fn tagged_input(n: usize, key_space: u32, seed: u64, rank: usize) -> Vec<Tagged<u32>> {
    let keys = zipf_keys(n, 1.1, seed, rank);
    keys.iter()
        .enumerate()
        .map(|(i, &k)| {
            Record::new(
                (k % u64::from(key_space)) as u32,
                ((rank as u64) << 32) | i as u64,
            )
        })
        .collect()
}

type RankRecords = Vec<Vec<Tagged<u32>>>;

fn run_sim_tagged(p: usize, cfg: &SdsConfig, n: usize, seed: u64) -> (RankRecords, RankRecords) {
    let world = World::new(p).cores_per_node(4).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = tagged_input(n, 64, seed, comm.rank());
        let out = sds_sort(comm, data.clone(), cfg).expect("no memory budget");
        (data, out.data)
    });
    report.results.into_iter().unzip()
}

/// With `spill_dir`, the sort runs through the resilient exchange under a
/// per-rank budget of one input share: the fullest rank receives at least
/// a share, which puts it over the spill threshold, and every staged chunk
/// (at most a sender's share) fits, so that rank spills.
fn run_threads_tagged(
    p: usize,
    cfg: &SdsConfig,
    n: usize,
    seed: u64,
    spill_dir: Option<&std::path::Path>,
) -> (RankRecords, RankRecords) {
    use comm::Communicator;
    let mut world = ThreadWorld::new(p).cores_per_node(4);
    if spill_dir.is_some() {
        world = world.memory_budget(n * std::mem::size_of::<Tagged<u32>>());
    }
    let report = world.run(|comm| {
        let data = tagged_input(n, 64, seed, comm.rank());
        let out = match spill_dir {
            None => sds_sort(comm, data.clone(), cfg).expect("no memory budget"),
            Some(dir) => sds_sort_resilient(comm, data.clone(), cfg, dir).expect("spills"),
        };
        (data, out.data, out.stats.spilled)
    });
    let spilled = report.results.iter().any(|r| r.2);
    assert_eq!(spilled, spill_dir.is_some(), "the fullest rank must spill");
    report.results.into_iter().map(|(d, o, _)| (d, o)).unzip()
}

#[test]
fn stable_variant_ties_are_bit_identical_across_backends() {
    for p in [2usize, 4, 8] {
        let cfg = cfg_for(true);
        let (_, sim) = run_sim_tagged(p, &cfg, 1000, 0xAB + p as u64);
        let (_, thr) = run_threads_tagged(p, &cfg, 1000, 0xAB + p as u64, None);
        // Stability pins equal-key order to global input order, so even
        // the payloads match record-for-record.
        assert_eq!(sim, thr, "stable tagged divergence at p={p}");
        // ... and a round trip through run files on disk changes nothing.
        let dir = std::env::temp_dir().join(format!("sds-equiv-spill-{}-{p}", std::process::id()));
        let (_, spilled) = run_threads_tagged(p, &cfg, 1000, 0xAB + p as u64, Some(&dir));
        assert_eq!(sim, spilled, "spilled stable tagged divergence at p={p}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fast_variant_keys_match_and_tags_are_a_permutation() {
    let p = 8;
    let cfg = cfg_for(false);
    let (input, sim) = run_sim_tagged(p, &cfg, 1000, 0xFA57);
    let (_, thr) = run_threads_tagged(p, &cfg, 1000, 0xFA57, None);
    for r in 0..p {
        let sim_keys: Vec<u32> = sim[r].iter().map(|t| t.key).collect();
        let thr_keys: Vec<u32> = thr[r].iter().map(|t| t.key).collect();
        assert_eq!(sim_keys, thr_keys, "key sequence divergence at rank {r}");
    }
    // The fast variant may reorder equal keys differently under real
    // concurrency, but each output is still a permutation of the input.
    let mut want: Vec<u64> = input.iter().flatten().map(|t| t.payload).collect();
    want.sort_unstable();
    for out in [&sim, &thr] {
        let mut got: Vec<u64> = out.iter().flatten().map(|t| t.payload).collect();
        got.sort_unstable();
        assert_eq!(got, want, "output is not a permutation of the input");
    }
}

#[test]
fn sockets_u64_output_is_bit_identical_to_sim_and_threads() {
    for p in [2usize, 4] {
        for workload in ["uniform", "zipf", "staircase", "adversarial", "identical"] {
            for stable in [false, true] {
                let cfg = cfg_for(stable);
                let seed = 0xE9 + p as u64;
                let sim = run_sim_u64(p, &cfg, workload, 800, seed);
                let thr = run_threads_u64(p, &cfg, workload, 800, seed);
                let sock = run_sockets_u64(p, workload, 800, seed, stable, false);
                assert_eq!(
                    sim, sock,
                    "sim vs sockets divergence: p={p} workload={workload} stable={stable}"
                );
                assert_eq!(
                    thr, sock,
                    "threads vs sockets divergence: p={p} workload={workload} stable={stable}"
                );
            }
        }
    }
}

#[test]
fn sockets_u64_output_matches_with_node_merge_enabled() {
    // τm forced on, multi-rank nodes: the node-merge path (communicator
    // split + leader gather) over real processes must agree too.
    for stable in [false, true] {
        let mut cfg = cfg_for(stable);
        cfg.tau_m_bytes = usize::MAX;
        let p = 4;
        let sim = run_sim_u64(p, &cfg, "zipf", 800, 0x5EED);
        let sock = run_sockets_u64(p, "zipf", 800, 0x5EED, stable, true);
        assert_eq!(
            sim, sock,
            "node-merge divergence on sockets (stable={stable})"
        );
    }
}

#[test]
fn sockets_stable_ties_are_bit_identical_to_sim() {
    let p = 4;
    let cfg = cfg_for(true);
    let seed = 0xAB + p as u64;
    let (_, sim) = run_sim_tagged(p, &cfg, 800, seed);
    let (input, sock) = run_sockets_tagged(p, 800, seed, true);
    // Stability pins equal-key order to global input order: even across
    // address spaces, payloads match record-for-record.
    assert_eq!(sim, sock, "stable tagged divergence on sockets at p={p}");
    let mut want: Vec<u64> = input.iter().flatten().map(|t| t.payload).collect();
    want.sort_unstable();
    let mut got: Vec<u64> = sock.iter().flatten().map(|t| t.payload).collect();
    got.sort_unstable();
    assert_eq!(
        got, want,
        "sockets output is not a permutation of the input"
    );
}

// ---- field-wise records through both exchanges ---------------------------

/// The cosmology-shaped record: float key, 24 opaque payload bytes.
type Wide = Record<OrderedF32, Pad<24>>;

/// A record type of the field-wise matrix: built from a small key (so ties
/// abound) and its origin (so every record is distinct).
trait EquivRecord: Sortable + PartialEq + std::fmt::Debug {
    const ENTRY: &'static str;
    fn make(key: u32, rank: usize, i: usize) -> Self;
}

impl EquivRecord for Tagged<u32> {
    const ENTRY: &'static str = ENTRY_RECORDS_TAGGED;
    fn make(key: u32, rank: usize, i: usize) -> Self {
        Record::new(key, ((rank as u64) << 32) | i as u64)
    }
}

impl EquivRecord for Wide {
    const ENTRY: &'static str = ENTRY_RECORDS_WIDE;
    fn make(key: u32, rank: usize, i: usize) -> Self {
        let mut pad = [0xA5u8; 24];
        pad[..8].copy_from_slice(&(rank as u64).to_le_bytes());
        pad[16..].copy_from_slice(&(i as u64).to_le_bytes());
        // Negative, fractional and positive keys.
        Record::new(OrderedF32::new(key as f32 * 0.5 - 300.0), Pad(pad))
    }
}

/// (records per rank, seed, stable).
type RecordParams = (u64, u64, bool);

/// Rank 1 holds nothing (every chunk it sends is empty, and its samples
/// travel as zero-length payloads); the others hold one narrow key band
/// each, so most of their chunks are empty too.
fn record_input<T: EquivRecord>(n: usize, seed: u64, rank: usize) -> Vec<T> {
    if rank == 1 {
        return Vec::new();
    }
    zipf_keys(n, 1.1, seed, rank)
        .iter()
        .enumerate()
        .map(|(i, &k)| T::make(rank as u32 * 400 + (k % 48) as u32, rank, i))
        .collect()
}

/// One rank of the field-wise matrix, on any backend: `(input, output)`.
/// Stable takes the synchronous exchange, fast the overlapped one.
fn sort_records<T: EquivRecord, C: comm::Communicator>(
    comm: &C,
    (n, seed, stable): RecordParams,
) -> (Vec<T>, Vec<T>) {
    let cfg = cfg_for(stable);
    assert_eq!(cfg.should_overlap(comm.size()), !stable);
    let data = record_input::<T>(n as usize, seed, comm.rank());
    let out = sds_sort(comm, data.clone(), &cfg).expect("no memory budget");
    comm.barrier(); // zero-length frames, whatever the sort sent
    (data, out.data)
}

/// Sorted wire encodings of every record: equal iff the multisets are.
fn multiset<T: EquivRecord>(ranks: &[Vec<T>]) -> Vec<Vec<u8>> {
    let mut all: Vec<Vec<u8>> = ranks
        .iter()
        .flatten()
        .map(|rec| {
            let mut bytes = Vec::new();
            rec.put(&mut bytes);
            bytes
        })
        .collect();
    all.sort_unstable();
    all
}

fn records_agree_everywhere<T: EquivRecord>(p: usize, transports: &[sockcomm::Transport]) {
    for stable in [true, false] {
        let params: RecordParams = (700, 0xF1E1D + p as u64, stable);
        let (input, sim): (Vec<Vec<T>>, Vec<Vec<T>>) = World::new(p)
            .cores_per_node(4)
            .net(NetModel::zero())
            .run(|comm| sort_records::<T, _>(comm, params))
            .results
            .into_iter()
            .unzip();
        let (_, thr): (Vec<Vec<T>>, Vec<Vec<T>>) = ThreadWorld::new(p)
            .cores_per_node(4)
            .run(|comm| sort_records::<T, _>(comm, params))
            .results
            .into_iter()
            .unzip();
        assert_eq!(multiset(&input), multiset(&thr), "threads p={p}");
        for &transport in transports {
            let what = format!(
                "{} p={p} {transport:?} stable={stable}",
                std::any::type_name::<T>()
            );
            let (sock_input, sock): (Vec<Vec<T>>, Vec<Vec<T>>) = sockets_world(p)
                .transport(transport)
                .run::<RecordParams, (Vec<T>, Vec<T>)>(T::ENTRY, &params)
                .expect("sockets world")
                .results
                .into_iter()
                .unzip();
            assert_eq!(input, sock_input, "{what}: inputs differ");
            assert_eq!(
                multiset(&input),
                multiset(&sock),
                "{what}: not a permutation"
            );
            if stable {
                // Nothing is arrival-dependent: record for record.
                assert_eq!(sim, sock, "{what}: sim vs sockets");
                assert_eq!(thr, sock, "{what}: threads vs sockets");
            } else {
                // Equal keys may interleave by arrival; the key sequence
                // of every rank may not.
                let keys = |ranks: &[Vec<T>]| -> Vec<Vec<T::Key>> {
                    ranks
                        .iter()
                        .map(|r| r.iter().map(|rec| rec.key()).collect())
                        .collect()
                };
                assert!(keys(&sim) == keys(&sock), "{what}: sim vs sockets keys");
                assert!(keys(&thr) == keys(&sock), "{what}: threads vs sockets keys");
            }
        }
    }
}

#[test]
fn field_wise_records_agree_on_every_backend_through_both_exchanges() {
    use sockcomm::Transport::{Tcp, Uds};
    for (p, transports) in [(1usize, &[Uds][..]), (3, &[Uds, Tcp])] {
        records_agree_everywhere::<Tagged<u32>>(p, transports);
        records_agree_everywhere::<Wide>(p, transports);
    }
}

// ---- buffers of several huge pages ----------------------------------------

impl EquivRecord for u64 {
    const ENTRY: &'static str = ENTRY_BIG_U64;
    fn make(key: u32, _rank: usize, _i: usize) -> Self {
        u64::from(key)
    }
}

impl EquivRecord for Tagged<u64> {
    const ENTRY: &'static str = ENTRY_BIG_TAGGED;
    fn make(key: u32, rank: usize, i: usize) -> Self {
        Record::new(u64::from(key), ((rank as u64) << 32) | i as u64)
    }
}

/// Records per rank of the big-buffer row: 4 MiB of `u64`, 8 MiB of
/// `Tagged<u64>`, so the receive buffers, frame payloads and merge outputs
/// are each at least one 2 MiB huge page long (`comm::pages`).
const BIG_N: usize = 1 << 19;

/// (seed, stable).
type BigParams = (u64, bool);

fn big_input<T: EquivRecord>(seed: u64, rank: usize) -> Vec<T> {
    uniform_u64(BIG_N, seed, rank)
        .iter()
        .enumerate()
        .map(|(i, &k)| T::make((k % 50_000) as u32, rank, i))
        .collect()
}

fn sort_big<T: EquivRecord, C: comm::Communicator>(comm: &C, (seed, stable): BigParams) -> Vec<T> {
    let data = big_input::<T>(seed, comm.rank());
    sds_sort(comm, data, &cfg_for(stable))
        .expect("no memory budget")
        .data
}

/// `stable` must leave nothing arrival-dependent for `T`: always for bare
/// keys, only when set for records with a payload.
fn big_buffers_agree_everywhere<T: EquivRecord>(stable: bool) {
    let p = 2;
    let params: BigParams = (0xB16 + u64::from(stable), stable);
    let what = format!("{} stable={stable}", std::any::type_name::<T>());
    let sim = World::new(p)
        .cores_per_node(4)
        .net(NetModel::zero())
        .run(|comm| sort_big::<T, _>(comm, params))
        .results;
    let mut want: Vec<T> = (0..p).flat_map(|r| big_input::<T>(params.0, r)).collect();
    want.sort_by_key(Sortable::key);
    assert!(
        want == sim.concat(),
        "{what}: not the stable sort of the input"
    );
    let thr = ThreadWorld::new(p)
        .cores_per_node(4)
        .telemetry(true)
        .run(|comm| sort_big::<T, _>(comm, params));
    assert!(sim == thr.results, "{what}: sim vs threads");
    let advised = thr
        .telemetry
        .expect("telemetry enabled")
        .counter("mem.huge_advised_bytes");
    if std::path::Path::new("/sys/kernel/mm/transparent_hugepage/hpage_pmd_size").exists() {
        assert!(
            advised > Some(0),
            "{what}: no buffer was advised on threads"
        );
    } else {
        assert_eq!(advised, None, "{what}: advised without huge pages");
    }
    let sock = sockets_world(p)
        .run::<BigParams, Vec<T>>(T::ENTRY, &params)
        .expect("sockets world")
        .results;
    assert!(sim == sock, "{what}: sim vs sockets");
}

#[test]
fn buffers_of_several_huge_pages_agree_on_every_backend() {
    big_buffers_agree_everywhere::<u64>(false);
    big_buffers_agree_everywhere::<Tagged<u64>>(true);
}

/// The phase clock books the records a rank's two-way merges moved as
/// replicated-key blocks, and only when a merge cut one out: a key holding
/// a tenth of every rank's share is, distinct keys are not.
#[test]
fn replicated_key_blocks_are_booked_only_when_a_merge_cuts_them() {
    let n = 20_000u64;
    let booked = |heavy: bool| {
        ThreadWorld::new(2)
            .cores_per_node(4)
            .telemetry(true)
            .run(|comm| {
                let rank = comm.rank() as u64;
                let data: Vec<u64> = (0..n)
                    .map(|i| {
                        if heavy && i % 10 == 0 {
                            7
                        } else {
                            rank * n + i
                        }
                    })
                    .collect();
                sds_sort(comm, data, &cfg_for(false))
                    .expect("no memory budget")
                    .data
            })
            .telemetry
            .expect("telemetry enabled")
            .counter("merge.replicated_records")
    };
    // Both ranks' blocks of key 7 meet in one merge.
    let heavy = booked(true);
    assert!(heavy >= Some(2 * n / 10), "{heavy:?}");
    assert_eq!(booked(false), None);
}

/// What [`owned_exchange_cases`] found on one rank: the stable merge's
/// output per case, then how many non-empty self and remote runs there
/// were, how many self runs lay where their window lies in the send buffer
/// and how many at the buffer's first byte, and how many remote runs were
/// read in place — `[self, self in place, self at the buffer's start,
/// remote, remote in place]`.
type OwnedExchangeOut = (Vec<Vec<Tagged<u32>>>, Vec<u64>);

/// One rank's sorted data and send counts for each edge of the exchange:
/// an empty self chunk, nothing but the self chunk, fewer records than
/// ranks, nothing but ties, nothing at all.
fn exchange_cases(me: usize, p: usize) -> Vec<(Vec<Tagged<u32>>, Vec<usize>)> {
    // `per_dst[d]` keys go to rank `d`; the payload is (rank, position).
    let case = |per_dst: Vec<Vec<u32>>| {
        let counts: Vec<usize> = per_dst.iter().map(Vec::len).collect();
        let data = per_dst
            .into_iter()
            .flatten()
            .enumerate()
            .map(|(i, key)| Tagged::<u32>::make(key, me, i))
            .collect();
        (data, counts)
    };
    let to = |f: &dyn Fn(usize) -> Vec<u32>| (0..p).map(f).collect::<Vec<_>>();
    vec![
        case(to(&|d| {
            if d == me {
                vec![]
            } else {
                vec![d as u32 * 10; 2]
            }
        })),
        case(to(&|d| {
            if d == me {
                vec![me as u32, me as u32 + 1]
            } else {
                vec![]
            }
        })),
        case(to(&|d| {
            if me == 0 && d == p - 1 {
                vec![5]
            } else {
                vec![]
            }
        })),
        case(to(&|_| vec![7; 3])),
        case(to(&|_| vec![])),
    ]
}

/// Every case of [`exchange_cases`] on any backend: the owned collectives
/// must deliver what the borrowed one does, run for run, and both
/// deliveries of [`sdssort::exchange::exchange`] must order it — the stable
/// merge record for record.
fn owned_exchange_cases<C: comm::Communicator>(comm: &C, world_size: u64) -> OwnedExchangeOut {
    use comm::{AsyncExchange, Run};
    use sdssort::driver::{Clock, Step};
    use sdssort::exchange::{exchange, Delivery};
    use std::sync::Arc;
    let (me, p) = (comm.rank(), comm.size());
    assert_eq!(p as u64, world_size);
    let flat = |runs: &[Run<Tagged<u32>>]| -> Vec<Tagged<u32>> {
        runs.iter().flat_map(|r| r.iter().copied()).collect()
    };
    let mut merged_per_case = Vec::new();
    let mut found = vec![0u64; 5];
    for (data, scounts) in exchange_cases(me, p) {
        let rcounts = comm.alltoall(&scounts);
        let borrowed = comm.alltoallv_given_counts(&data, &scounts, &rcounts);

        let lent = Arc::new(data.clone());
        let mine = lent.as_ptr_range();
        let window = lent[..scounts[..me].iter().sum::<usize>()]
            .as_ptr_range()
            .end;
        let spans = comm.allgather(&[mine.start as usize, mine.end as usize]);
        let runs = comm.alltoallv_runs(lent, &scounts, &rcounts);
        assert_eq!(runs.iter().map(|r| r.len()).collect::<Vec<_>>(), rcounts);
        assert_eq!(flat(&runs), borrowed, "rank {me}: synchronous runs");
        for (src, run) in runs.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
            let at = run.as_ptr();
            if src == me {
                found[0] += 1;
                found[1] += u64::from(at == window);
                found[2] += u64::from(at == mine.start);
            } else {
                found[3] += 1;
                let at = at as usize;
                found[4] += u64::from((spans[2 * src]..spans[2 * src + 1]).contains(&at));
            }
        }
        drop(runs);

        let mut pending = comm.alltoallv_async_runs(Arc::new(data.clone()), &scounts, rcounts);
        let mut by_src: Vec<Run<Tagged<u32>>> = (0..p).map(|_| Run::default()).collect();
        while let Some((src, run)) = pending.wait_any_run(comm) {
            by_src[src] = run;
        }
        assert_eq!(flat(&by_src), borrowed, "rank {me}: asynchronous runs");
        drop(by_src);

        // Ties to the lower source rank, then to the sender's order: the
        // stable sort of the source-ordered receive buffer.
        let mut want = borrowed;
        want.sort_by_key(|r| r.key);
        let charge = SdsConfig::default().charge;
        let clock = &mut Clock::start(comm, Step::Exchange);
        let merged = exchange(comm, data.clone(), &scounts, Delivery::Merge, charge, clock)
            .expect("no memory budget");
        assert_eq!(merged, want, "rank {me}: stable merge over runs");
        let mut overlapped = exchange(comm, data, &scounts, Delivery::Overlapped, charge, clock)
            .expect("no memory budget");
        assert!(overlapped.windows(2).all(|w| w[0].key <= w[1].key));
        overlapped.sort_by_key(|r| (r.key, r.payload));
        want.sort_by_key(|r| (r.key, r.payload));
        assert_eq!(overlapped, want, "rank {me}: overlapped merge over runs");
        merged_per_case.push(merged);
    }
    (merged_per_case, found)
}

#[test]
fn owned_exchange_agrees_everywhere_and_only_threads_lend() {
    for p in [1usize, 3] {
        let sim = World::new(p)
            .net(NetModel::zero())
            .run(|comm| owned_exchange_cases(comm, p as u64))
            .results;
        let thr = ThreadWorld::new(p)
            .run(|comm| owned_exchange_cases(comm, p as u64))
            .results;
        let sock = sockets_world(p)
            .run::<u64, OwnedExchangeOut>(ENTRY_OWNED_EXCHANGE, &(p as u64))
            .expect("sockets world")
            .results;
        for rank in 0..p {
            assert_eq!(
                sim[rank].0, thr[rank].0,
                "p={p} rank {rank}: sim vs threads"
            );
            assert_eq!(
                sim[rank].0, sock[rank].0,
                "p={p} rank {rank}: sim vs sockets"
            );
            let [own, own_in_place, heads, remote, remote_in_place] = thr[rank].1[..] else {
                panic!("five counts");
            };
            assert_eq!(
                (own_in_place, remote_in_place),
                (own, remote),
                "p={p} rank {rank}: threads must read every run in its sender's buffer"
            );
            assert!(
                heads > 0 && (rank == 0 || own > heads) && (p == 1 || remote > 0),
                "the cases have runs to find"
            );
            // The simulator shares the address space and copies every
            // remote run anyway; a sockets rank can only see its own run.
            // On both a rank's own run is its send buffer, taken back: in
            // place where its window heads the buffer, moved to the front
            // where it does not.
            for (backend, found) in [("sim", &sim[rank].1), ("sockets", &sock[rank].1)] {
                assert_eq!(
                    found[..3],
                    [own, heads, own],
                    "p={p} rank {rank}: {backend} must take its send buffer back"
                );
            }
            assert_eq!(
                sim[rank].1[4], 0,
                "p={p} rank {rank}: sim copies remote runs"
            );
        }
    }
}

/// `comm.bytes_lent` on a whole `sds_sort`: every byte that left a rank was
/// lent, none copied. The tag names each record's origin, so a rank's
/// output says how much of it never left.
#[test]
fn a_threads_sort_lends_every_remote_byte() {
    use comm::Communicator;
    let p = 4;
    for stable in [false, true] {
        let cfg = cfg_for(stable);
        let report = ThreadWorld::new(p).telemetry(true).run(|comm| {
            let data = tagged_input(3000, 64, 0x1E27, comm.rank());
            sds_sort(comm, data, &cfg).expect("no memory budget").data
        });
        let from_elsewhere: usize = report
            .results
            .iter()
            .enumerate()
            .map(|(r, out)| {
                out.iter()
                    .filter(|t| (t.payload >> 32) as usize != r)
                    .count()
            })
            .sum();
        let snap = report.telemetry.expect("telemetry enabled");
        assert_eq!(
            snap.counter("comm.bytes_lent"),
            Some((from_elsewhere * std::mem::size_of::<Tagged<u32>>()) as u64),
            "stable={stable}"
        );
    }
}

#[test]
fn skew_bound_holds_on_sockets_backend() {
    // Theorem 1 over real processes: every generator emits exactly n
    // records per rank, so N = p·n.
    for (p, workload) in [
        (4usize, "uniform"),
        (4, "zipf"),
        (4, "adversarial"),
        (4, "identical"),
    ] {
        let out = run_sockets_u64(p, workload, 2000, 3, false, false);
        let n_total = p * 2000;
        let max = out.iter().map(|r| r.len()).max().expect("p >= 1");
        assert!(
            max <= bound(n_total, p),
            "sockets backend: {workload} p={p}: max {max} > bound {}",
            bound(n_total, p)
        );
    }
}

/// Theorem 1's bound with explicit lower-order slack (see
/// `tests/workload_bound.rs`): `U ≤ 4N/p + 2N/p² + p`.
fn bound(n_total: usize, p: usize) -> usize {
    4 * n_total / p + 2 * n_total / (p * p) + p
}

#[test]
fn skew_bound_holds_on_threads_backend() {
    use comm::Communicator;
    let mut cfg = SdsConfig::default();
    cfg.tau_m_bytes = 0;
    for (p, workload) in [
        (4usize, "uniform"),
        (8, "zipf"),
        (8, "adversarial"),
        (8, "identical"),
    ] {
        let report = ThreadWorld::new(p).cores_per_node(4).run(|comm| {
            let data = gen_keys(workload, 2000, 3, comm.rank());
            let n = data.len();
            let out = sds_sort(comm, data, &cfg).expect("no memory budget");
            (n, out.data.len())
        });
        let n_total: usize = report.results.iter().map(|r| r.0).sum();
        let max = report.results.iter().map(|r| r.1).max().expect("p >= 1");
        assert!(
            max <= bound(n_total, p),
            "threads backend: {workload} p={p}: max {max} > bound {}",
            bound(n_total, p)
        );
    }
}

mod property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Any (seed, p, workload, variant) cell: per-rank u64 outputs are
        /// bit-identical across backends.
        #[test]
        fn backends_agree_on_any_seed(
            seed in 0u64..1_000_000,
            p_idx in 0usize..3,
            workload_idx in 0usize..4,
            stable in any::<bool>(),
        ) {
            let p = [2usize, 4, 8][p_idx];
            let workload = ["uniform", "zipf", "adversarial", "identical"][workload_idx];
            let cfg = cfg_for(stable);
            let sim = run_sim_u64(p, &cfg, workload, 600, seed);
            let thr = run_threads_u64(p, &cfg, workload, 600, seed);
            prop_assert_eq!(sim, thr);
        }
    }
}
