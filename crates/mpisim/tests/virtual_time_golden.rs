//! Pins the simulator's virtual time: the collectives are the shared
//! bodies in `comm::raw` running over the simulator's raw send/recv, so
//! their message pattern, charge points and tag rounds must stay exactly
//! what the simulator's former private copies produced.

use mpisim::{AsyncExchange, Communicator, NetModel, World};

/// Constants recorded at commit 79e79c9 (the parent of the PR that deleted
/// `mpisim/src/collectives.rs`), with this same script.
const GOLDEN_CLOCK_BITS: [u64; 8] = [
    4545477761497373566,
    4545463004102114598,
    4545389143338843465,
    4545403900734102433,
    4545389143338843465,
    4545278389087424913,
    4545367007245955014,
    4545352249850696046,
];
const GOLDEN_MESSAGES: u64 = 191;
const GOLDEN_BYTES: u64 = 10998;

#[test]
fn synchronous_collectives_keep_their_virtual_time() {
    let p = 8;
    let report = World::new(p)
        .cores_per_node(2)
        .net(NetModel::edison())
        .run(|comm| {
            let r = comm.rank();
            // Modeled charges only (never `compute`, which measures host
            // time) and exact-source receives only: every clock below is
            // a pure function of the script.
            comm.charge_compute(1e-6 * (r as f64 + 1.0));
            comm.barrier();
            let b = comm.bcast(3, (r == 3).then(|| vec![7u64; 100]));
            comm.charge_compute(2e-6 * (r * 3 % p) as f64);
            let g = comm.gatherv(5, &vec![r as u32; r * 10]);
            let (flat, _) = comm.allgatherv(&vec![r as u16; r + 1]);
            let row: Vec<u64> = (0..p).map(|d| (r * p + d) as u64).collect();
            let t = comm.alltoall(&row);
            // (r + d) % 3 is symmetric in (r, d): the send counts are also
            // the receive counts, and a third of the chunks are empty.
            let counts: Vec<usize> = (0..p).map(|d| (r + d) % 3).collect();
            let data: Vec<u64> = counts
                .iter()
                .enumerate()
                .flat_map(|(d, &c)| vec![(r * p + d) as u64; c])
                .collect();
            let v = comm.alltoallv_given_counts(&data, &counts, &counts);
            let chunks = (r == 2).then(|| (0..p).map(|d| vec![d as u32; d * 5]).collect());
            let s = comm.scatterv(2, chunks);
            let child = comm
                .split(Some((r % 3) as i64), -(r as i64))
                .expect("every rank has a color");
            let sum = child.allreduce(r as u64, |a, b| a + b);
            let digest = b.len() + g.map_or(0, |parts| parts.len()) + flat.len() + v.len();
            (digest + s.len(), t, sum)
        });
    for (r, (_, t, sum)) in report.results.iter().enumerate() {
        let want: Vec<u64> = (0..p).map(|s| (s * p + r) as u64).collect();
        assert_eq!(*t, want, "alltoall on rank {r}");
        let group: u64 = (0..p).filter(|x| x % 3 == r % 3).map(|x| x as u64).sum();
        assert_eq!(*sum, group, "child allreduce on rank {r}");
    }
    let bits: Vec<u64> = report.per_rank_time.iter().map(|t| t.to_bits()).collect();
    assert_eq!(
        bits, GOLDEN_CLOCK_BITS,
        "clocks: {:?}",
        report.per_rank_time
    );
    assert_eq!(report.messages, GOLDEN_MESSAGES);
    assert_eq!(report.bytes, GOLDEN_BYTES);
}

/// The `MPI_Test` sweep charge of the asynchronous all-to-all: every
/// `wait_any` call that has chunks left pays `async_test_overhead` once per
/// chunk still pending, so draining `k` chunks (self included) costs
/// `k + (k - 1) + … + 1` sweeps.
#[test]
fn async_wait_any_charges_one_test_sweep_per_pending_chunk() {
    let p = 5;
    let net = NetModel {
        async_test_overhead: 1.0,
        ..NetModel::zero()
    };
    let report = World::new(p).net(net).compute_scale(0.0).run(|comm| {
        let me = comm.rank();
        // Rank `me` sends one record to every rank `d <= me` (self
        // included), so rank `r` receives from the `p - r` ranks `s >= r`.
        let counts: Vec<usize> = (0..p).map(|d| usize::from(d <= me)).collect();
        let data: Vec<u64> = (0..=me).map(|d| (me * 10 + d) as u64).collect();
        let mut pending = comm.alltoallv_async(&data, &counts);
        let k = pending.remaining();
        let before = comm.now();
        let mut got = pending.wait_all(comm);
        got.sort();
        assert!(
            pending.wait_any(comm).is_none(),
            "drained handles charge nothing"
        );
        (k, comm.now() - before, got)
    });
    for (r, (k, dt, got)) in report.results.iter().enumerate() {
        assert_eq!(*k, p - r);
        assert_eq!(*dt, (k * (k + 1) / 2) as f64, "rank {r} drained {k} chunks");
        let want: Vec<(usize, Vec<u64>)> = (r..p).map(|s| (s, vec![(s * 10 + r) as u64])).collect();
        assert_eq!(*got, want);
    }
}
