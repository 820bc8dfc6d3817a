//! Transport conformance: the collectives, splits and asynchronous
//! all-to-all every backend shares, checked alike on all three — the
//! virtual-time simulator (`mpisim`), OS threads (`shmem`) and OS processes
//! over Unix-domain sockets (`sockcomm`) — at `p = 1`, a non-power-of-two
//! `p` and `p = 4`, with two cores per node on every world.
//!
//! Each case is one rank's body, generic over [`Communicator`], returning
//! what the rank observed in a form that does not depend on arrival order
//! (chunks are keyed by source). Every backend's per-rank results must equal
//! the case's sequential expectation, so they are equal across the three; a
//! failure names the case, the backend and `p`.
//!
//! What only one transport promises stays with it: virtual clocks and
//! arrival order in `mpisim`'s tests, lending by address, wall clock,
//! panics and resident worlds in `shmem`'s, TCP and peer death in
//! `sockcomm`'s.
//!
//! Sockets worlds re-exec this test binary for their rank processes,
//! targeting the [`sockcomm_child_entry`] test by exact name; in a normal
//! parent test run that test is a no-op.

use comm::raw::RawAsync;
use comm::{AsyncExchange, Communicator};
use mpisim::World;
use shmem::ThreadWorld;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// World sizes every case runs at.
const SIZES: [usize; 3] = [1, 3, 4];
/// Cores per node on every world: at `p = 3` the second node is half full.
const CORES: usize = 2;
/// What a rank observed: a list of small vectors, compared whole.
type Obs = Vec<Vec<u64>>;
/// Marks "nothing here": a `None`, a chunk that was never delivered.
const NONE: u64 = u64::MAX;
/// The sockets entry every case runs under; its parameter is the case.
const ENTRY: &str = "transport-conformance";
/// User tags of the point-to-point messages some cases send.
const TAG_RING: u64 = 100;
const TAG_BACK: u64 = 101;
const TAG_EMPTY: u64 = 102;
const TAG_USER: u64 = 5;

/// A non-commutative fold: the decimal digits in fold order.
fn digits(a: u64, b: u64) -> u64 {
    a * 10 + b
}

fn opt(v: Option<u64>) -> Vec<u64> {
    v.map_or(vec![NONE], |v| vec![v])
}

fn ranks(rs: impl IntoIterator<Item = usize>) -> Vec<u64> {
    rs.into_iter().map(|r| r as u64).collect()
}

// ---- the cases: one rank's body each -------------------------------------

fn run_case<C: Communicator>(case: &str, comm: &C) -> Obs {
    match case {
        "point_to_point_ring" => ring(comm),
        "barrier_completes_at_many_sizes" => barrier(comm),
        "bcast_from_every_root" => bcast(comm),
        "gatherv_collects_in_rank_order" => gatherv(comm),
        "allgather_and_allgatherv_concatenate_in_rank_order" => allgather(comm),
        "alltoall_transposes" => alltoall(comm),
        "alltoallv_roundtrips_triangular_matrix" => alltoallv_triangular(comm),
        "alltoallv_with_zero_counts" => alltoallv_zero_counts(comm),
        "scatterv_variable_chunks" => scatterv(comm),
        "reduce_and_allreduce_fold_in_rank_order" => reduce(comm),
        "exscan_prefix_sums" => exscan(comm),
        "interleaved_collectives_do_not_cross_match" => interleaved(comm),
        "forty_thousand_collectives_on_one_communicator" => tag_space(comm),
        "split_groups_by_color_and_orders_by_key" => split_color_key(comm),
        "split_undefined_color_returns_none" => split_none(comm),
        "nested_splits" => nested(comm),
        "split_comm_isolated_from_parent_traffic" => split_isolated(comm),
        "shared_node_split_groups_by_node" => shared_node(comm),
        "refine_comm_gives_leaders_and_locals" => refine(comm),
        "async_alltoallv_delivers_self_first_then_all" => async_self_first(comm),
        "async_alltoallv_empty_chunks_skipped" => async_empty_chunks(comm),
        "two_handles_in_flight" => async_two_handles(comm),
        "async_interleaved_with_collectives" => async_interleaved(comm),
        other => panic!("unknown conformance case {other}"),
    }
}

fn ring<C: Communicator>(comm: &C) -> Obs {
    let (me, p) = (comm.rank(), comm.size());
    let (next, prev) = ((me + 1) % p, (me + p - 1) % p);
    comm.send_val(next, TAG_RING, me as u64);
    let got: u64 = comm.recv_val(prev, TAG_RING);
    comm.send_vec(prev, TAG_BACK, vec![got; 3]);
    comm.send_slice::<u64>(next, TAG_EMPTY, &[]);
    let back: Vec<u64> = comm.recv_vec(next, TAG_BACK);
    let empty: Vec<u64> = comm.recv_vec(prev, TAG_EMPTY);
    vec![vec![got], back, empty]
}

fn barrier<C: Communicator>(comm: &C) -> Obs {
    for _ in 0..3 {
        comm.barrier();
    }
    vec![vec![comm.rank() as u64]]
}

fn bcast<C: Communicator>(comm: &C) -> Obs {
    let me = comm.rank();
    let mut obs = Vec::new();
    for root in 0..comm.size() {
        let r = root as u64;
        obs.push(comm.bcast(root, (me == root).then(|| vec![r * 10, r * 10 + 1])));
        obs.push(comm.bcast::<u64>(root, (me == root).then(Vec::new)));
    }
    obs
}

fn gatherv<C: Communicator>(comm: &C) -> Obs {
    let me = comm.rank();
    let mut obs = Vec::new();
    for root in 0..comm.size() {
        // Rank r contributes r copies of r: rank 0 nothing.
        match comm.gatherv(root, &vec![me as u64; me]) {
            Some(parts) => obs.extend(parts),
            None => obs.push(vec![NONE]),
        }
    }
    obs
}

fn allgather<C: Communicator>(comm: &C) -> Obs {
    let me = comm.rank();
    let all = comm.allgather(&[me as u64 * 10]);
    let (flat, counts) = comm.allgatherv(&vec![me as u64; me]);
    vec![all, flat, ranks(counts)]
}

fn alltoall<C: Communicator>(comm: &C) -> Obs {
    let me = comm.rank();
    let data = ranks((0..comm.size()).map(|dst| me * 100 + dst));
    vec![comm.alltoall(&data)]
}

/// The synchronous exchange, borrowed and owned: `[received, counts,
/// the owned form's runs concatenated]`.
fn exchange<C: Communicator>(comm: &C, data: Vec<u64>, counts: &[usize]) -> Obs {
    let (received, recv_counts) = comm.alltoallv(&data, counts);
    let runs = comm.alltoallv_runs(Arc::new(data), counts, &recv_counts);
    let owned = runs.iter().flat_map(|run| run.iter().copied()).collect();
    vec![received, ranks(recv_counts), owned]
}

fn alltoallv_triangular<C: Communicator>(comm: &C) -> Obs {
    let (me, p) = (comm.rank(), comm.size());
    let counts: Vec<usize> = (0..p).map(|dst| me + dst).collect();
    let data = (0..p)
        .flat_map(|dst| vec![(100 * me + dst) as u64; me + dst])
        .collect();
    exchange(comm, data, &counts)
}

fn alltoallv_zero_counts<C: Communicator>(comm: &C) -> Obs {
    let p = comm.size();
    // Only rank 0 sends, and only to rank p - 1.
    let mut counts = vec![0; p];
    let data = if comm.rank() == 0 {
        counts[p - 1] = 3;
        vec![9, 9, 9]
    } else {
        Vec::new()
    };
    let mut obs = exchange(comm, data, &counts);
    obs.extend(exchange(comm, Vec::new(), &vec![0; p]));
    obs
}

fn scatterv<C: Communicator>(comm: &C) -> Obs {
    let (me, p) = (comm.rank(), comm.size());
    (0..p)
        .map(|root| {
            let chunks = (me == root).then(|| {
                (0..p)
                    .map(|dst| vec![(root * 10 + dst) as u64; dst])
                    .collect()
            });
            comm.scatterv(root, chunks)
        })
        .collect()
}

fn reduce<C: Communicator>(comm: &C) -> Obs {
    let me = comm.rank() as u64;
    let mut obs: Obs = (0..comm.size())
        .map(|root| opt(comm.reduce(root, me + 1, digits)))
        .collect();
    obs.push(comm.allreduce(vec![me], |mut a, b| {
        a.extend(b);
        a
    }));
    obs.push(vec![comm.allreduce(me + 1, digits)]);
    obs
}

fn exscan<C: Communicator>(comm: &C) -> Obs {
    let me = comm.rank() as u64;
    vec![
        opt(comm.exscan(me + 1, |a, b| a + b)),
        opt(comm.exscan(me + 1, digits)),
    ]
}

fn interleaved<C: Communicator>(comm: &C) -> Obs {
    let (me, p) = (comm.rank(), comm.size());
    let ones = vec![1; p];
    // A user message stays in flight across the collectives.
    comm.send_val((me + 1) % p, TAG_USER, 1000 + me as u64);
    let (first, _) = comm.alltoallv(&vec![me as u64; p], &ones);
    let b = comm.bcast(0, (me == 0).then(|| vec![7u64]));
    let (second, _) = comm.alltoallv(&vec![me as u64 + 100; p], &ones);
    let user: u64 = comm.recv_val((me + p - 1) % p, TAG_USER);
    vec![first, b, second, vec![user]]
}

/// A resident world keeps one communicator for its whole life (the sort
/// service splits it once per job): the collective tag allocator must not
/// run out after 2^15 operations (a `split` alone uses three).
fn tag_space<C: Communicator>(comm: &C) -> Obs {
    let mut whole = true;
    for _ in 0..11_000 {
        let child = comm
            .split(Some(0), comm.rank() as i64)
            .expect("every rank has a color");
        whole &= child.size() == comm.size();
    }
    for _ in 0..7_000 {
        comm.barrier();
    }
    let sum = comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b);
    vec![vec![u64::from(whole), sum]]
}

fn split_color_key<C: Communicator>(comm: &C) -> Obs {
    let me = comm.rank();
    let sub = comm
        .split(Some((me % 2) as i64), -(me as i64))
        .expect("every rank has a color");
    vec![
        ranks([sub.rank(), sub.size(), sub.world_rank()]),
        sub.allgather(&[me as u64]),
    ]
}

fn split_none<C: Communicator>(comm: &C) -> Obs {
    let (me, p) = (comm.rank(), comm.size());
    match comm.split((me != p - 1).then_some(7), me as i64) {
        Some(sub) => vec![ranks([sub.rank(), sub.size()]), sub.allgather(&[me as u64])],
        None => vec![vec![NONE]],
    }
}

fn nested<C: Communicator>(comm: &C) -> Obs {
    let me = comm.rank();
    let pair = comm
        .split(Some((me / 2) as i64), me as i64)
        .expect("every rank has a color");
    let reversed = pair
        .split(Some(0), -(pair.rank() as i64))
        .expect("every rank has a color");
    // Sibling pairs run these at once, on the same tags.
    vec![
        pair.allgather(&[me as u64]),
        reversed.allgather(&[me as u64]),
        ranks([reversed.rank(), reversed.size()]),
        vec![
            pair.allreduce(me as u64, |a, b| a + b),
            reversed.allreduce(me as u64, digits),
        ],
    ]
}

fn split_isolated<C: Communicator>(comm: &C) -> Obs {
    let (me, p) = (comm.rank(), comm.size());
    let sub = comm
        .split(Some((me / 2) as i64), me as i64)
        .expect("every rank has a color");
    let (sr, sp) = (sub.rank(), sub.size());
    // The same user tag on the parent and on the child, in flight at once.
    comm.send_val((me + 1) % p, TAG_USER, 1000 + me as u64);
    sub.send_val((sr + 1) % sp, TAG_USER, 2000 + me as u64);
    let from_sub: u64 = sub.recv_val((sr + sp - 1) % sp, TAG_USER);
    let from_parent: u64 = comm.recv_val((me + p - 1) % p, TAG_USER);
    vec![vec![from_sub, from_parent]]
}

fn shared_node<C: Communicator>(comm: &C) -> Obs {
    let me = comm.rank() as u64;
    let local = comm.split_shared_node();
    vec![
        ranks([comm.node(), local.rank(), local.size()]),
        local.allgather(&[me]),
        vec![local.allreduce(me, |a, b| a + b)],
    ]
}

fn refine<C: Communicator>(comm: &C) -> Obs {
    let me = comm.rank() as u64;
    let (cg, cl) = comm.refine_comm();
    let leaders = cg.map_or(vec![NONE], |cg| {
        let mut v = ranks([cg.rank(), cg.size()]);
        v.extend(cg.allgather(&[me]));
        v
    });
    vec![ranks([cl.rank(), cl.size()]), cl.allgather(&[me]), leaders]
}

/// Post the asynchronous exchange in which rank `src` sends
/// `count(src, dst)` copies of `base + 100 src + dst` to each `dst`, from
/// a borrow or (`owned`) from a buffer it gives up.
fn post<C: Communicator>(
    comm: &C,
    owned: bool,
    base: u64,
    count: impl Fn(usize, usize) -> usize,
) -> RawAsync<u64> {
    let (me, p) = (comm.rank(), comm.size());
    let counts: Vec<usize> = (0..p).map(|dst| count(me, dst)).collect();
    let data: Vec<u64> = (0..p)
        .flat_map(|dst| vec![base + (100 * me + dst) as u64; counts[dst]])
        .collect();
    if owned {
        let recv_counts = comm.alltoall(&counts);
        comm.alltoallv_async_runs(Arc::new(data), &counts, recv_counts)
    } else {
        comm.alltoallv_async(&data, &counts)
    }
}

/// Drain a handle (owned ones run by run): `[chunks pending at the start,
/// whether this rank's own chunk came first, chunks delivered twice,
/// chunks pending at the end]`, then each source's chunk (`[NONE]` where
/// none was delivered).
fn drain<C: Communicator>(comm: &C, h: &mut RawAsync<u64>, owned: bool) -> Obs {
    let me = comm.rank();
    let pending = h.remaining() as u64;
    let mut by_src = vec![vec![NONE]; comm.size()];
    let (mut first, mut twice) = (None, 0);
    loop {
        let next = if owned {
            h.wait_any_run(comm).map(|(src, run)| (src, run.to_vec()))
        } else {
            h.wait_any(comm)
        };
        let Some((src, chunk)) = next else { break };
        first.get_or_insert(src);
        twice += u64::from(by_src[src] != [NONE]);
        by_src[src] = chunk;
    }
    let mut obs = vec![vec![
        pending,
        u64::from(first == Some(me)),
        twice,
        h.remaining() as u64,
    ]];
    obs.extend(by_src);
    obs
}

/// Rank `src` sends `(src + dst) % 3 + 1` records to each `dst`.
fn uneven(src: usize, dst: usize) -> usize {
    (src + dst) % 3 + 1
}

fn async_self_first<C: Communicator>(comm: &C) -> Obs {
    [false, true]
        .into_iter()
        .flat_map(|owned| drain(comm, &mut post(comm, owned, 0, uneven), owned))
        .collect()
}

/// The empty-chunk patterns: nothing to self, a sparse ring (self and the
/// next rank only), nothing at all.
fn sparse(pattern: usize, p: usize) -> impl Fn(usize, usize) -> usize {
    move |src, dst| match pattern {
        0 => 2 * usize::from(dst != src),
        1 if dst == (src + 1) % p => 3,
        1 => usize::from(dst == src),
        _ => 0,
    }
}

fn async_empty_chunks<C: Communicator>(comm: &C) -> Obs {
    let mut obs = Vec::new();
    for owned in [false, true] {
        for pattern in 0..3 {
            let mut h = post(comm, owned, 0, sparse(pattern, comm.size()));
            obs.extend(drain(comm, &mut h, owned));
        }
    }
    // The communicator stays usable.
    obs.push(vec![comm.allreduce(1, |a, b| a + b)]);
    obs
}

fn async_two_handles<C: Communicator>(comm: &C) -> Obs {
    let mut obs = Vec::new();
    for owned in [false, true] {
        let mut first = post(comm, owned, 0, uneven);
        let mut second = post(comm, owned, 5000, |_, _| 1);
        // The second drains first: its chunks sit behind the first's.
        obs.extend(drain(comm, &mut second, owned));
        obs.extend(drain(comm, &mut first, owned));
    }
    obs
}

fn async_interleaved<C: Communicator>(comm: &C) -> Obs {
    let (me, p) = (comm.rank(), comm.size());
    let mut obs = Vec::new();
    for owned in [false, true] {
        let mut h = post(comm, owned, 0, |_, _| 4);
        // Collectives of other payload types while the handle is in flight.
        comm.barrier();
        let sum = comm.allreduce(me as u64, |a, b| a + b);
        let b = comm.bcast(0, (me == 0).then(|| vec![7u8, 8, 9]));
        comm.send_val((me + 1) % p, TAG_USER, me as u64);
        let user: u64 = comm.recv_val((me + p - 1) % p, TAG_USER);
        comm.barrier();
        obs.push(vec![sum, u64::from(b == [7, 8, 9]), user]);
        obs.extend(drain(comm, &mut h, owned));
    }
    obs
}

// ---- the sequential expectations -----------------------------------------

/// What [`drain`] reports on rank `r` of `p` for the exchange `count`.
fn drained(p: usize, r: usize, base: u64, count: impl Fn(usize, usize) -> usize) -> Obs {
    let by_src: Obs = (0..p)
        .map(|src| match count(src, r) {
            0 => vec![NONE],
            n => vec![base + (100 * src + r) as u64; n],
        })
        .collect();
    let pending = (0..p).filter(|&src| count(src, r) > 0).count() as u64;
    let mut obs = vec![vec![pending, u64::from(count(r, r) > 0), 0, 0]];
    obs.extend(by_src);
    obs
}

/// The members of `r`'s group when every rank `s` of `0..p` belongs to
/// group `color(s)`.
fn group(p: usize, r: usize, color: impl Fn(usize) -> usize) -> Vec<usize> {
    (0..p).filter(|&s| color(s) == color(r)).collect()
}

/// Run `case` on every backend at every size and compare each rank's
/// result with `want(p, rank)`.
fn conform(case: &str, want: impl Fn(usize, usize) -> Obs) {
    for p in SIZES {
        let expected: Vec<Obs> = (0..p).map(|r| want(p, r)).collect();
        let sim = on(case, "sim", p, || {
            World::new(p)
                .cores_per_node(CORES)
                .run(|comm| run_case(case, comm))
                .results
        });
        let threads = on(case, "threads", p, || {
            ThreadWorld::new(p)
                .cores_per_node(CORES)
                .run(|comm| run_case(case, comm))
                .results
        });
        let sockets = on(case, "sockets", p, || {
            sockcomm::SocketWorld::new(p)
                .cores_per_node(CORES)
                .child_args(["sockcomm_child_entry", "--exact"])
                .run::<String, Obs>(ENTRY, &case.to_owned())
                .unwrap_or_else(|e| panic!("{e}"))
                .results
        });
        for (backend, got) in [("sim", sim), ("threads", threads), ("sockets", sockets)] {
            assert_eq!(got, expected, "{case} on {backend} at p = {p}");
        }
    }
}

/// `run`'s results, or a panic that names the case, backend and size.
fn on(case: &str, backend: &str, p: usize, run: impl FnOnce() -> Vec<Obs>) -> Vec<Obs> {
    std::panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let why = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        panic!("{case} failed on {backend} at p = {p}: {why}")
    })
}

/// Rank processes of the sockets worlds re-enter this binary with
/// `sockcomm_child_entry --exact` and divert here (never returning). In a
/// parent test run no `SOCKCOMM_*` environment is set, the call is a
/// no-op, and the test trivially passes.
#[test]
fn sockcomm_child_entry() {
    sockcomm::child_rank(ENTRY, |comm, case: String| run_case(&case, comm));
}

// ---- the tests: one per case ---------------------------------------------

#[test]
fn point_to_point_ring() {
    conform("point_to_point_ring", |p, r| {
        vec![vec![((r + p - 1) % p) as u64], vec![r as u64; 3], vec![]]
    });
}

#[test]
fn barrier_completes_at_many_sizes() {
    conform("barrier_completes_at_many_sizes", |_, r| {
        vec![vec![r as u64]]
    });
}

#[test]
fn bcast_from_every_root() {
    conform("bcast_from_every_root", |p, _| {
        (0..p as u64)
            .flat_map(|root| [vec![root * 10, root * 10 + 1], vec![]])
            .collect()
    });
}

#[test]
fn gatherv_collects_in_rank_order() {
    conform("gatherv_collects_in_rank_order", |p, r| {
        let mut obs = Vec::new();
        for root in 0..p {
            if root == r {
                obs.extend((0..p).map(|src| vec![src as u64; src]));
            } else {
                obs.push(vec![NONE]);
            }
        }
        obs
    });
}

#[test]
fn allgather_and_allgatherv_concatenate_in_rank_order() {
    conform(
        "allgather_and_allgatherv_concatenate_in_rank_order",
        |p, _| {
            vec![
                ranks((0..p).map(|s| s * 10)),
                (0..p).flat_map(|s| vec![s as u64; s]).collect(),
                ranks(0..p),
            ]
        },
    );
}

#[test]
fn alltoall_transposes() {
    conform("alltoall_transposes", |p, r| {
        vec![ranks((0..p).map(|src| src * 100 + r))]
    });
}

#[test]
fn alltoallv_roundtrips_triangular_matrix() {
    conform("alltoallv_roundtrips_triangular_matrix", |p, r| {
        let received: Vec<u64> = (0..p)
            .flat_map(|src| vec![(100 * src + r) as u64; src + r])
            .collect();
        vec![received.clone(), ranks((0..p).map(|src| src + r)), received]
    });
}

#[test]
fn alltoallv_with_zero_counts() {
    conform("alltoallv_with_zero_counts", |p, r| {
        let last = r == p - 1;
        let received = if last { vec![9, 9, 9] } else { vec![] };
        let counts = (0..p).map(|src| if src == 0 && last { 3 } else { 0 });
        vec![
            received.clone(),
            counts.collect(),
            received,
            vec![],
            vec![0; p],
            vec![],
        ]
    });
}

#[test]
fn scatterv_variable_chunks() {
    conform("scatterv_variable_chunks", |p, r| {
        (0..p).map(|root| vec![(root * 10 + r) as u64; r]).collect()
    });
}

#[test]
fn reduce_and_allreduce_fold_in_rank_order() {
    conform("reduce_and_allreduce_fold_in_rank_order", |p, r| {
        let folded = (1..=p as u64).fold(0, digits);
        let mut obs: Obs = (0..p)
            .map(|root| opt((root == r).then_some(folded)))
            .collect();
        obs.push(ranks(0..p));
        obs.push(vec![folded]);
        obs
    });
}

#[test]
fn exscan_prefix_sums() {
    conform("exscan_prefix_sums", |_, r| {
        let below = 1..=r as u64;
        let some = |v| opt((r > 0).then_some(v));
        vec![some(below.clone().sum()), some(below.fold(0, digits))]
    });
}

#[test]
fn interleaved_collectives_do_not_cross_match() {
    conform("interleaved_collectives_do_not_cross_match", |p, r| {
        vec![
            ranks(0..p),
            vec![7],
            ranks(100..100 + p),
            vec![1000 + ((r + p - 1) % p) as u64],
        ]
    });
}

#[test]
fn forty_thousand_collectives_on_one_communicator() {
    conform("forty_thousand_collectives_on_one_communicator", |p, _| {
        vec![vec![1, (p * (p + 1) / 2) as u64]]
    });
}

#[test]
fn split_groups_by_color_and_orders_by_key() {
    conform("split_groups_by_color_and_orders_by_key", |p, r| {
        let mut members = group(p, r, |s| s % 2);
        members.reverse();
        let at = members.iter().position(|&s| s == r).expect("a member");
        vec![ranks([at, members.len(), r]), ranks(members)]
    });
}

#[test]
fn split_undefined_color_returns_none() {
    conform("split_undefined_color_returns_none", |p, r| {
        if r == p - 1 {
            vec![vec![NONE]]
        } else {
            vec![ranks([r, p - 1]), ranks(0..p - 1)]
        }
    });
}

#[test]
fn nested_splits() {
    conform("nested_splits", |p, r| {
        let pair = group(p, r, |s| s / 2);
        let reversed: Vec<usize> = pair.iter().rev().copied().collect();
        let at = reversed.iter().position(|&s| s == r).expect("a member");
        let sum = pair.iter().sum::<usize>() as u64;
        let folded = reversed.iter().fold(0, |a, &s| digits(a, s as u64));
        vec![
            ranks(pair),
            ranks(reversed.iter().copied()),
            ranks([at, reversed.len()]),
            vec![sum, folded],
        ]
    });
}

#[test]
fn split_comm_isolated_from_parent_traffic() {
    conform("split_comm_isolated_from_parent_traffic", |p, r| {
        let sub = group(p, r, |s| s / 2);
        let at = sub.iter().position(|&s| s == r).expect("a member");
        let prev = sub[(at + sub.len() - 1) % sub.len()];
        vec![vec![2000 + prev as u64, 1000 + ((r + p - 1) % p) as u64]]
    });
}

#[test]
fn shared_node_split_groups_by_node() {
    conform("shared_node_split_groups_by_node", |p, r| {
        let node = group(p, r, |s| s / CORES);
        let sum = node.iter().sum::<usize>() as u64;
        vec![
            ranks([r / CORES, r % CORES, node.len()]),
            ranks(node),
            vec![sum],
        ]
    });
}

#[test]
fn refine_comm_gives_leaders_and_locals() {
    conform("refine_comm_gives_leaders_and_locals", |p, r| {
        let node = group(p, r, |s| s / CORES);
        let leaders = if r % CORES == 0 {
            let all: Vec<usize> = (0..p).step_by(CORES).collect();
            let mut v = ranks([r / CORES, all.len()]);
            v.extend(ranks(all));
            v
        } else {
            vec![NONE]
        };
        vec![ranks([r % CORES, node.len()]), ranks(node), leaders]
    });
}

#[test]
fn async_alltoallv_delivers_self_first_then_all() {
    conform("async_alltoallv_delivers_self_first_then_all", |p, r| {
        [drained(p, r, 0, uneven), drained(p, r, 0, uneven)].concat()
    });
}

#[test]
fn async_alltoallv_empty_chunks_skipped() {
    conform("async_alltoallv_empty_chunks_skipped", |p, r| {
        let mut obs = Vec::new();
        for _owned in 0..2 {
            for pattern in 0..3 {
                obs.extend(drained(p, r, 0, sparse(pattern, p)));
            }
        }
        obs.push(vec![p as u64]);
        obs
    });
}

#[test]
fn two_handles_in_flight() {
    conform("two_handles_in_flight", |p, r| {
        let round = [drained(p, r, 5000, |_, _| 1), drained(p, r, 0, uneven)].concat();
        [round.clone(), round].concat()
    });
}

#[test]
fn async_interleaved_with_collectives() {
    conform("async_interleaved_with_collectives", |p, r| {
        let mut round = vec![vec![(p * (p - 1) / 2) as u64, 1, ((r + p - 1) % p) as u64]];
        round.extend(drained(p, r, 0, |_, _| 4));
        [round.clone(), round].concat()
    });
}
