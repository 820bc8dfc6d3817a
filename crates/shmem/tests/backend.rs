//! Integration tests for the threads backend: collectives, splits, async
//! exchange, lent runs, panic propagation, wall-clock timing, and a sort
//! smoke test.

use comm::{AsyncExchange, Communicator, Run};
use shmem::{ThreadComm, ThreadWorld};
use std::sync::Arc;

const TAG_PING: u64 = 100;
const TAG_PONG: u64 = 101;

#[test]
fn point_to_point_ring() {
    let p = 5;
    let rep = ThreadWorld::new(p).run(|comm| {
        let me = comm.rank();
        let nxt = (me + 1) % comm.size();
        let prv = (me + comm.size() - 1) % comm.size();
        comm.send_val(nxt, TAG_PING, me as u64);
        let got: u64 = comm.recv_val(prv, TAG_PING);
        comm.send_vec(prv, TAG_PONG, vec![got; 3]);
        let back: Vec<u64> = comm.recv_vec(nxt, TAG_PONG);
        (got, back)
    });
    for (me, (got, back)) in rep.results.iter().enumerate() {
        let prv = (me + p - 1) % p;
        assert_eq!(*got, prv as u64);
        assert_eq!(*back, vec![me as u64; 3]);
    }
    assert!(rep.messages >= 2 * p as u64);
    assert!(rep.bytes > 0);
}

#[test]
fn bcast_from_every_root() {
    for p in [1, 2, 3, 4, 7, 8] {
        let rep = ThreadWorld::new(p).run(|comm| {
            let mut seen = Vec::new();
            for root in 0..comm.size() {
                let payload =
                    (comm.rank() == root).then(|| vec![root as u64 * 10, root as u64 * 10 + 1]);
                seen.push(comm.bcast(root, payload));
            }
            seen
        });
        for seen in rep.results {
            for (root, v) in seen.iter().enumerate() {
                assert_eq!(v, &[root as u64 * 10, root as u64 * 10 + 1], "p={p}");
            }
        }
    }
}

#[test]
fn gather_allgather_and_friends() {
    let p = 6;
    let rep = ThreadWorld::new(p).run(|comm| {
        let me = comm.rank() as u64;
        // Uneven contribution sizes: rank r sends r+1 copies of r.
        let mine = vec![me; comm.rank() + 1];
        let gat = comm.gatherv(2, &mine);
        let (flat, counts) = comm.allgatherv(&mine);
        let ag = comm.allgather(&[me * 2]);
        let red = comm.reduce(0, me, |a, b| a + b);
        let all = comm.allreduce(me, |a, b| a + b);
        let ex = comm.exscan(me, |a, b| a + b);
        (gat, flat, counts, ag, red, all, ex)
    });
    let total: u64 = (0..p as u64).sum();
    for (r, (gat, flat, counts, ag, red, all, ex)) in rep.results.into_iter().enumerate() {
        if r == 2 {
            let gat = gat.expect("root gets the gather");
            for (src, chunk) in gat.iter().enumerate() {
                assert_eq!(chunk, &vec![src as u64; src + 1]);
            }
        } else {
            assert!(gat.is_none());
        }
        let want_flat: Vec<u64> = (0..p as u64)
            .flat_map(|s| vec![s; s as usize + 1])
            .collect();
        assert_eq!(flat, want_flat);
        assert_eq!(counts, (1..=p).collect::<Vec<_>>());
        assert_eq!(ag, (0..p as u64).map(|s| s * 2).collect::<Vec<_>>());
        assert_eq!(red, (r == 0).then_some(total));
        assert_eq!(all, total);
        assert_eq!(ex, (r > 0).then(|| (0..r as u64).sum()));
    }
}

#[test]
fn scatter_and_scatterv() {
    let p = 4;
    let rep = ThreadWorld::new(p).run(|comm| {
        let chunks = (comm.rank() == 1).then(|| {
            (0..comm.size())
                .map(|dst| vec![dst as u64; dst])
                .collect::<Vec<_>>()
        });
        let vpart = comm.scatterv(1, chunks);
        // Equal chunks, and `p` empty ones, through the same scatterv.
        let equal = (comm.rank() == 3).then(|| {
            (0..comm.size() as u64)
                .map(|dst| vec![2 * dst, 2 * dst + 1])
                .collect::<Vec<_>>()
        });
        let part = comm.scatterv(3, equal);
        let none: Vec<u64> = comm.scatterv(3, (comm.rank() == 3).then(|| vec![vec![]; p]));
        (vpart, part, none)
    });
    for (r, (vpart, part, none)) in rep.results.into_iter().enumerate() {
        assert_eq!(vpart, vec![r as u64; r]);
        assert_eq!(part, vec![2 * r as u64, 2 * r as u64 + 1]);
        assert!(none.is_empty());
    }
}

/// A resident world keeps one communicator for its whole life (and the sort
/// service splits it once per job); the collective tag allocator must not
/// run out after 2^15 operations (a `split` alone uses three).
#[test]
fn forty_thousand_collectives_on_one_communicator() {
    let rep = ThreadWorld::new(2).run(|comm| {
        for _ in 0..11_000 {
            let child = comm
                .split(Some(0), comm.rank() as i64)
                .expect("every rank has a color");
            assert_eq!(child.size(), 2);
        }
        for _ in 0..7_000 {
            comm.barrier();
        }
        comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b)
    });
    assert_eq!(rep.results, vec![3, 3]);
}

/// The same exchange as `mpisim`'s
/// `async_wait_any_charges_one_test_sweep_per_pending_chunk`: the shared
/// handle delivers the same `(src, chunk)` set here, where the test sweep
/// costs nothing.
#[test]
fn async_exchange_delivers_every_pending_chunk_once() {
    let p = 5;
    let rep = ThreadWorld::new(p).run(|comm| {
        let me = comm.rank();
        let counts: Vec<usize> = (0..p).map(|d| usize::from(d <= me)).collect();
        let data: Vec<u64> = (0..=me).map(|d| (me * 10 + d) as u64).collect();
        let mut pending = comm.alltoallv_async(&data, &counts);
        let k = pending.remaining();
        let mut got = pending.wait_all(comm);
        got.sort();
        assert!(pending.wait_any(comm).is_none());
        (k, got)
    });
    for (r, (k, got)) in rep.results.iter().enumerate() {
        assert_eq!(*k, p - r);
        let want: Vec<(usize, Vec<u64>)> = (r..p).map(|s| (s, vec![(s * 10 + r) as u64])).collect();
        assert_eq!(*got, want);
    }
}

#[test]
fn alltoallv_uneven_counts() {
    let p = 5;
    let rep = ThreadWorld::new(p).run(|comm| {
        let me = comm.rank();
        // Rank r sends (r + dst) % 3 items tagged (r, dst).
        let counts: Vec<usize> = (0..comm.size()).map(|dst| (me + dst) % 3).collect();
        let data: Vec<(u64, u64)> = (0..comm.size())
            .flat_map(|dst| vec![(me as u64, dst as u64); (me + dst) % 3])
            .collect();
        comm.alltoallv(&data, &counts)
    });
    for (r, (out, recv_counts)) in rep.results.into_iter().enumerate() {
        let want: Vec<(u64, u64)> = (0..p)
            .flat_map(|src| vec![(src as u64, r as u64); (src + r) % 3])
            .collect();
        assert_eq!(out, want, "rank {r}");
        assert_eq!(
            recv_counts,
            (0..p).map(|src| (src + r) % 3).collect::<Vec<_>>()
        );
    }
}

#[test]
fn async_alltoallv_delivers_self_first_then_all() {
    let p = 4;
    let rep = ThreadWorld::new(p).run(|comm| {
        let me = comm.rank();
        let counts = vec![2usize; comm.size()];
        let data: Vec<u64> = (0..comm.size())
            .flat_map(|dst| [me as u64, dst as u64])
            .collect();
        let mut pending = comm.alltoallv_async(&data, &counts);
        assert_eq!(pending.total_recv(), 2 * comm.size());
        let first = pending.wait_any(comm).expect("self chunk first");
        assert_eq!(first.0, me);
        assert_eq!(first.1, vec![me as u64, me as u64]);
        let mut rest = Vec::new();
        while let Some((src, chunk)) = pending.wait_any(comm) {
            assert_eq!(chunk, vec![src as u64, me as u64]);
            rest.push(src);
        }
        assert_eq!(pending.remaining(), 0);
        rest.sort_unstable();
        rest
    });
    for (r, rest) in rep.results.into_iter().enumerate() {
        let want: Vec<usize> = (0..p).filter(|&s| s != r).collect();
        assert_eq!(rest, want, "rank {r}");
    }
}

/// The exchange of the lending tests: rank `r` sends `r + dst + 1` records
/// of value `10 r + dst` to `dst`, so its send counts are its receive
/// counts too. Returns `(data, counts)`.
fn lending_exchange(me: usize, p: usize) -> (Arc<Vec<u64>>, Vec<usize>) {
    let counts: Vec<usize> = (0..p).map(|dst| me + dst + 1).collect();
    let data = (0..p)
        .flat_map(|dst| vec![(me * 10 + dst) as u64; me + dst + 1])
        .collect();
    (Arc::new(data), counts)
}

/// Zero-copy, asserted by address: through both owned collectives every
/// run — the self run included — is a window of the buffer its sender
/// posted, that buffer lives exactly as long as its windows, and each run
/// is still one message of its bytes in the traffic totals.
#[test]
fn owned_exchange_lends_windows_of_the_senders_buffer() {
    let p = 3;
    let rep = ThreadWorld::new(p).telemetry(true).run(|comm| {
        let me = comm.rank();
        for asynchronous in [false, true] {
            let (data, counts) = lending_exchange(me, p);
            let weak = Arc::downgrade(&data);
            let mine = data.as_ptr_range();
            let spans = comm.allgather(&[mine.start as usize, mine.end as usize]);
            let runs: Vec<Run<u64>> = if asynchronous {
                let mut pending = comm.alltoallv_async_runs(data, &counts, counts.clone());
                let mut by_src: Vec<Run<u64>> = (0..p).map(|_| Run::default()).collect();
                let mut first = None;
                while let Some((src, run)) = pending.wait_any_run(comm) {
                    first.get_or_insert(src);
                    by_src[src] = run;
                }
                assert_eq!(first, Some(me), "self run first");
                by_src
            } else {
                comm.alltoallv_runs(data, &counts, &counts)
            };
            for (src, run) in runs.iter().enumerate() {
                assert_eq!(run[..], vec![(src * 10 + me) as u64; src + me + 1]);
                let at = run.as_ptr() as usize;
                assert!(
                    (spans[2 * src]..spans[2 * src + 1]).contains(&at),
                    "rank {me}: the run from {src} was copied out of its sender's buffer"
                );
            }
            assert!(weak.upgrade().is_some(), "the windows hold the buffer");
            drop(runs);
            comm.barrier(); // every peer has dropped its windows of mine
            assert!(weak.upgrade().is_none(), "freed with its last window");
        }
    });
    // Per round, every remote record: Σ_r Σ_{dst≠r} (r + dst + 1) = 18.
    let remote_bytes = 2 * 18 * 8;
    let snap = rep.telemetry.expect("telemetry enabled");
    assert_eq!(
        snap.counter("comm.bytes_lent"),
        Some(remote_bytes),
        "all lent, none copied"
    );

    // A lent run is still one message of its bytes: the same program over
    // the borrowed collectives counts the same traffic.
    let borrowed = ThreadWorld::new(p).run(|comm| {
        for asynchronous in [false, true] {
            let (data, counts) = lending_exchange(comm.rank(), p);
            comm.allgather(&[0usize, 0]);
            if asynchronous {
                let mut pending = comm.alltoallv_async_given_counts(&data, &counts, counts.clone());
                pending.wait_all(comm);
            } else {
                comm.alltoallv_given_counts(&data, &counts, &counts);
            }
            comm.barrier();
        }
    });
    assert_eq!(
        (rep.messages, rep.bytes),
        (borrowed.messages, borrowed.bytes)
    );
}

/// The borrowed collectives keep their contract next to the owned ones: a
/// rank may complete a lent exchange into one contiguous buffer, and
/// `wait_any` copies each lent window out into a vector of its own.
#[test]
fn lent_runs_complete_through_the_borrowed_receives() {
    let p = 3;
    ThreadWorld::new(p).run(|comm| {
        let me = comm.rank();
        let want: Vec<u64> = (0..p)
            .flat_map(|src| vec![(src * 10 + me) as u64; src + me + 1])
            .collect();
        // Odd ranks lend, even ranks post copies; both are one collective.
        let (data, counts) = lending_exchange(me, p);
        let got: Vec<u64> = if me % 2 == 1 {
            let runs = comm.alltoallv_runs(data, &counts, &counts);
            runs.iter().flat_map(|r| r.iter().copied()).collect()
        } else {
            comm.alltoallv_given_counts(&data, &counts, &counts)
        };
        assert_eq!(got, want);

        let (data, counts) = lending_exchange(me, p);
        // Every sender holds its buffer until the barrier below: no window
        // is the last one (which `Run::into_vec` may take over whole), and
        // no freed sender address can come back as a fresh vector's.
        let posted = Arc::clone(&data);
        let mine = data.as_ptr_range();
        let spans = comm.allgather(&[mine.start as usize, mine.end as usize]);
        let mut pending = comm.alltoallv_async_runs(data, &counts, counts.clone());
        let mut got = pending.wait_all(comm);
        got.sort();
        let chunks: Vec<u64> = got.iter().flat_map(|(_, c)| c.iter().copied()).collect();
        assert_eq!(chunks, want);
        for (src, chunk) in &got {
            let at = chunk.as_ptr() as usize;
            assert!(
                !(spans[2 * src]..spans[2 * src + 1]).contains(&at),
                "rank {me}: the chunk from {src} is still a window of its sender's buffer"
            );
        }
        comm.barrier();
        drop(posted);
    });
}

/// A panic while windows are lent in both directions: rank 1 dies holding
/// its peers' windows, and the peers hold rank 1's. Nothing dangles — the
/// peers still read the dead rank's buffer — nothing hangs, and the world
/// re-raises the original panic.
#[test]
fn a_panic_while_runs_are_lent_reraises_the_original() {
    let p = 3;
    let caught = std::panic::catch_unwind(|| {
        ThreadWorld::new(p).run(|comm: &ThreadComm| {
            let me = comm.rank();
            let (data, counts) = lending_exchange(me, p);
            let runs = comm.alltoallv_runs(data, &counts, &counts);
            if me == 1 {
                panic!("rank 1 exploded mid-merge");
            }
            // Cannot complete without rank 1: returns only by the abort.
            let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| comm.barrier()))
                .expect_err("the barrier needs the dead rank");
            assert_eq!(runs[1][..], vec![(10 + me) as u64; me + 2]);
            std::panic::resume_unwind(aborted);
        })
    });
    let payload = caught.expect_err("world must propagate the panic");
    let msg = payload
        .downcast_ref::<&str>()
        .expect("original panic payload, not the abort marker");
    assert!(msg.contains("rank 1 exploded mid-merge"), "got: {msg}");
}

/// No buffer outlives its job: a resident world (what the sort service
/// runs its jobs on) is back to holding nothing after each of a thousand
/// lent exchanges.
#[test]
fn no_buffer_outlives_its_job_across_a_thousand_resident_jobs() {
    let p = 3;
    let mut world = ThreadWorld::new(p).resident();
    for job in 0..1000 {
        let weaks = world
            .run(move |comm| {
                let (data, counts) = lending_exchange(comm.rank(), p);
                let weak = Arc::downgrade(&data);
                let mut pending = comm.alltoallv_async_runs(data, &counts, counts.clone());
                let mut received = 0;
                while let Some((_, run)) = pending.wait_any_run(comm) {
                    received += run.len();
                }
                assert_eq!(received, pending.total_recv());
                weak
            })
            .expect("healthy world");
        assert!(
            weaks.iter().all(|w| w.upgrade().is_none()),
            "job {job} left a buffer behind"
        );
    }
}

#[test]
fn split_reorders_by_key_and_drops_none() {
    let p = 6;
    let rep = ThreadWorld::new(p).run(|comm| {
        // Ranks 0,2,4 -> color 0 keyed descending; rank 5 opts out.
        let me = comm.rank();
        let color = if me == 5 { None } else { Some((me % 2) as i64) };
        let key = -(me as i64);
        let sub = comm.split(color, key);
        sub.map(|s| {
            (
                s.rank(),
                s.size(),
                s.world_rank(),
                s.allgather(&[me as u64]),
            )
        })
    });
    let mut results = rep.results;
    assert!(results[5].is_none());
    // color 0: world ranks {0,2,4} keyed -0,-2,-4 -> order [4,2,0]
    let (r0, s0, w0, ag0) = results[0].take().expect("rank 0 split");
    assert_eq!((r0, s0, w0), (2, 3, 0));
    assert_eq!(ag0, vec![4, 2, 0]);
    // color 1: world ranks {1,3} keyed -1,-3 -> order [3,1]
    let (r3, s3, w3, ag3) = results[3].take().expect("rank 3 split");
    assert_eq!((r3, s3, w3), (0, 2, 3));
    assert_eq!(ag3, vec![3, 1]);
}

#[test]
fn node_splits_follow_cores_per_node() {
    let rep = ThreadWorld::new(8).cores_per_node(4).run(|comm| {
        let local = comm.split_shared_node();
        let (leaders, _) = comm.refine_comm();
        (
            comm.node(),
            local.rank(),
            local.size(),
            leaders.map(|l| (l.rank(), l.size())),
        )
    });
    for (r, (node, lr, ls, lead)) in rep.results.into_iter().enumerate() {
        assert_eq!(node, r / 4);
        assert_eq!(lr, r % 4);
        assert_eq!(ls, 4);
        if r % 4 == 0 {
            assert_eq!(lead, Some((r / 4, 2)));
        } else {
            assert_eq!(lead, None);
        }
    }
}

#[test]
fn nested_split_contexts_do_not_cross_talk() {
    let rep = ThreadWorld::new(8).run(|comm| {
        let half = comm
            .split(Some((comm.rank() / 4) as i64), comm.rank() as i64)
            .expect("everyone has a color");
        // Same-tag traffic on sibling communicators must not mix.
        let sum = half.allreduce(comm.rank() as u64, |a, b| a + b);
        let quarter = half
            .split(Some((half.rank() / 2) as i64), half.rank() as i64)
            .expect("everyone has a color");
        let qsum = quarter.allreduce(comm.rank() as u64, |a, b| a + b);
        (sum, qsum)
    });
    let want_half = [6u64, 6, 6, 6, 22, 22, 22, 22];
    let want_quarter = [1u64, 1, 5, 5, 9, 9, 13, 13];
    for (r, (sum, qsum)) in rep.results.into_iter().enumerate() {
        assert_eq!(sum, want_half[r], "half sum, rank {r}");
        assert_eq!(qsum, want_quarter[r], "quarter sum, rank {r}");
    }
}

#[test]
fn wall_clock_advances_and_is_reported() {
    let rep = ThreadWorld::new(3).telemetry(true).run(|comm| {
        let t0 = comm.now();
        let sp = comm.span_begin("spin", comm.now());
        let x = comm.compute(|| (0..200_000u64).sum::<u64>());
        comm.span_end(sp, comm.now());
        comm.barrier();
        let t1 = comm.now();
        assert!(t1 >= t0);
        (x, t1 - t0)
    });
    assert!(rep.wall_s > 0.0);
    assert_eq!(rep.per_rank_wall.len(), 3);
    for &w in &rep.per_rank_wall {
        assert!(w > 0.0 && w <= rep.wall_s + 1e-9);
    }
    let snap = rep.telemetry.expect("telemetry enabled");
    assert!(
        snap.spans.iter().any(|s| s.name == "spin"),
        "span recorded with wall-clock times"
    );
    let compute_total: f64 = snap.compute_v.iter().sum();
    assert!(compute_total > 0.0, "compute ledger charged from wall time");
}

#[test]
fn a_send_is_attributed_to_its_senders_phase() {
    const TAG_GO: u64 = 102;
    let rep = ThreadWorld::new(2).telemetry(true).run(|comm| {
        let a = comm.span_begin("a", comm.now());
        if comm.rank() == 0 {
            // Rank 1 is in "a" for certain before this rank moves on.
            let _: u8 = comm.recv_val(1, TAG_PING);
            comm.span_end(a, comm.now());
            comm.span_begin("b", comm.now());
            comm.send_val(1, TAG_GO, 0u8);
            for _ in 0..3 {
                let _: u8 = comm.recv_val(1, TAG_PONG);
            }
        } else {
            comm.send_val(0, TAG_PING, 0u8);
            let _: u8 = comm.recv_val(0, TAG_GO);
            // Rank 0 entered "b" before it released this rank, which is
            // still in "a": these three belong to "a".
            for _ in 0..3 {
                comm.send_val(0, TAG_PONG, 0u8);
            }
            comm.span_end(a, comm.now());
            comm.span_begin("b", comm.now());
        }
    });
    let phases = rep.telemetry.expect("telemetry enabled").phases;
    let got: Vec<_> = phases
        .iter()
        .map(|p| (p.name.as_str(), p.messages))
        .collect();
    assert_eq!(got, [("a", 4), ("b", 1)]);
    assert_eq!(rep.messages, 5);
}

#[test]
fn panic_on_one_rank_aborts_the_world_with_original_payload() {
    let caught = std::panic::catch_unwind(|| {
        ThreadWorld::new(4).run(|comm: &ThreadComm| {
            if comm.rank() == 2 {
                panic!("rank 2 exploded");
            }
            // Everyone else blocks on a message that never comes.
            let _: Vec<u64> = comm.recv_vec((comm.rank() + 1) % comm.size(), TAG_PING);
        })
    });
    let payload = caught.expect_err("world must propagate the panic");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("original panic payload, not the abort marker");
    assert!(msg.contains("rank 2 exploded"), "got: {msg}");
}

#[test]
fn sds_sort_smoke_on_threads() {
    use sdssort::{sds_sort, SdsConfig};
    let p = 4;
    let n_rank = 5_000u64;
    let rep = ThreadWorld::new(p)
        .cores_per_node(2)
        .telemetry(true)
        .run(|comm| {
            let r = comm.rank() as u64;
            // Skewed: lots of duplicates, interleaved across ranks.
            let data: Vec<u64> = (0..n_rank).map(|i| (i * 31 + r * 7) % 97).collect();
            sds_sort(comm, data, &SdsConfig::default()).expect("no memory budget set")
        });
    let all: Vec<u64> = rep.results.iter().flat_map(|o| o.data.clone()).collect();
    assert_eq!(all.len(), p * n_rank as usize);
    assert!(all.windows(2).all(|w| w[0] <= w[1]), "globally sorted");
    assert!(rep.wall_s > 0.0);
    let snap = rep.telemetry.expect("telemetry enabled");
    assert!(!snap.spans.is_empty(), "sort phases recorded as spans");
}
