// xlint fixture: rank-divergent collectives — the static mirror of the
// PR 2 deadlock test (mpisim's runtime detector catches `if rank == 0 {
// barrier() }` when a seed happens to schedule it; this pass catches the
// shape on every path). Scanned under an algorithm-crate path by
// tools/xlint/tests/fixtures.rs; never compiled.

fn root_only_barrier(comm: &Comm) {
    let rank = comm.rank();
    if rank == 0 {
        comm.barrier(); // rank-divergent-collective: other ranks never arrive
    }
}

fn leader_bcast(comm: &Comm, my_rank: usize) {
    if my_rank < 2 {
        let _v = comm.bcast(0, None); // rank-divergent-collective
    } else {
        cleanup();
    }
}

fn rank_bounded_rounds(comm: &Comm) {
    let me = comm.rank();
    for _round in 0..me {
        let _ = comm.allreduce(1u64, |a, b| a + b); // rank-divergent-collective: trip count differs per rank
    }
}

fn rank_match_split(comm: &Comm, rank: usize) {
    match rank % 2 {
        0 => {
            let _sub = comm.split_shared_node(); // rank-divergent-collective
        }
        _ => idle(),
    }
}

fn nested_divergence(comm: &Comm, rank: usize, ready: bool) {
    if rank == 0 {
        if ready {
            comm.alltoall(&[0u64]); // rank-divergent-collective: outer branch is rank-dependent
        }
    }
}

fn leaders_lend_their_runs(comm: &Comm, sorted: Arc<Vec<u64>>, counts: &[usize]) {
    let me = comm.rank();
    if me % 4 == 0 {
        let _runs = comm.alltoallv_runs(sorted, counts, counts); // rank-divergent-collective: the owned exchange is a collective too
    } else {
        let _pending = comm.alltoallv_async_runs(sorted, counts, counts.to_vec()); // rank-divergent-collective
    }
}
