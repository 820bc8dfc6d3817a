//! The headline qualitative reproduction: under a per-rank memory budget,
//! HykSort fails with OOM on highly skewed data because its duplicate-blind
//! partition concentrates load, while SDS-Sort completes — on the
//! simulator, on threads and over sockets alike — plus HykSort's
//! correctness on benign inputs, and the memory gate and phase accounting
//! every row of the sorter table (`algos::Sorter`) shares.
//!
//! Sockets worlds re-exec this test binary for their rank processes,
//! targeting the [`sockcomm_child_entry`] test by exact name; in a normal
//! parent test run that test is a no-op.

mod common;

use algos::{hyksort, HykSortConfig, Sorter, Tuning};
use common::assert_global_sort;
use mpisim::{Comm, Communicator, NetModel, World};
use sdssort::{
    sds_sort, sds_sort_resilient, ComputeModel, Record, SdsConfig, SortError, SortStats, Tagged,
};
use shmem::ThreadWorld;
use sockcomm::SocketWorld;
use std::path::Path;
use workloads::{uniform_u64, zipf_keys};

#[test]
fn hyksort_sorts_uniform_data() {
    for p in [2usize, 4, 8, 12] {
        let world = World::new(p).cores_per_node(4).net(NetModel::zero());
        let report = world.run(|comm| {
            let data = uniform_u64(2000, 3, comm.rank());
            let out = hyksort(comm, data.clone(), &HykSortConfig::default()).expect("no budget");
            (data, out.data)
        });
        let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
        assert_global_sort(&inputs, &outputs, |&k| k);
    }
}

#[test]
fn hyksort_multistage_with_small_k() {
    // k=2 over p=8 forces three stages of recursion.
    let mut cfg = HykSortConfig::default();
    cfg.k = 2;
    let world = World::new(8).cores_per_node(4).net(NetModel::zero());
    let report = world.run(|comm| {
        let data = uniform_u64(1500, 5, comm.rank());
        let out = hyksort(comm, data.clone(), &cfg).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_global_sort(&inputs, &outputs, |&k| k);
}

/// The core Fig. 8 / Table 3 reproduction: a budget that comfortably fits
/// balanced loads (≥ 4N/p per rank) but not a concentrated one.
#[test]
fn hyksort_ooms_on_skew_sds_survives() {
    let p = 8;
    let n = 4000usize; // per rank
                       // Budget: 6×(N/p)×8B — fits SDS-Sort's 4N/p bound, not an all-on-one
                       // concentration of a 99%-duplicate dataset.
    let budget = 6 * n * 8;
    let gen = |rank: usize| -> Vec<u64> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(rank as u64 ^ 0xBEEF);
        (0..n as u64)
            .map(|_| {
                if rng.gen_bool(0.99) {
                    123
                } else {
                    rng.gen_range(0..1000)
                }
            })
            .collect()
    };

    let world = World::new(p)
        .cores_per_node(4)
        .net(NetModel::zero())
        .memory_budget(budget);
    let hyk = world.run(|comm| {
        let data = gen(comm.rank());
        hyksort(comm, data, &HykSortConfig::default()).map(|o| o.data.len())
    });
    assert!(
        hyk.results
            .iter()
            .any(|r| matches!(r, Err(SortError::Oom(_)))),
        "HykSort must OOM on 99% duplicates under budget"
    );
    assert!(
        hyk.results.iter().all(|r| r.is_err()),
        "OOM must abort the collective everywhere"
    );

    let world = World::new(p)
        .cores_per_node(4)
        .net(NetModel::zero())
        .memory_budget(budget);
    let mut cfg = SdsConfig::default();
    cfg.tau_m_bytes = 0;
    let sds = world.run(|comm| {
        let data = gen(comm.rank());
        sds_sort(comm, data, &cfg).map(|o| o.data.len())
    });
    assert!(
        sds.results.iter().all(Result::is_ok),
        "SDS-Sort must fit the same budget"
    );
    let total: usize = sds.results.iter().map(|r| *r.as_ref().unwrap()).sum();
    assert_eq!(total, p * n);
}

#[test]
fn sds_stable_survives_same_budget() {
    let p = 8;
    let n = 4000usize;
    let budget = 6 * n * 8;
    let world = World::new(p)
        .cores_per_node(4)
        .net(NetModel::zero())
        .memory_budget(budget);
    let mut cfg = SdsConfig::stable();
    cfg.tau_m_bytes = 0;
    let res = world.run(|comm| {
        let data = vec![77u64; n];
        sds_sort(comm, data, &cfg).map(|o| o.data.len())
    });
    assert!(res.results.iter().all(Result::is_ok));
}

#[test]
fn generous_budget_lets_hyksort_finish_skew() {
    // Mirrors the PTF experiment (Fig. 9): the whole dataset fits on one
    // node, so HykSort finishes despite terrible RDFA.
    let p = 4;
    let n = 2000usize;
    let world = World::new(p)
        .cores_per_node(4)
        .net(NetModel::zero())
        .memory_budget(p * n * 8 * 2);
    let report = world.run(|comm| {
        let data = vec![5u64; n];
        let out = hyksort(comm, data, &HykSortConfig::default()).expect("generous budget");
        out.data.len()
    });
    let loads: Vec<usize> = report.results;
    assert_eq!(loads.iter().sum::<usize>(), p * n);
    // all duplicates on one rank: RDFA = p
    let r = sdssort::rdfa(&loads);
    assert!(
        r > (p as f64) * 0.9,
        "HykSort RDFA should approach p, got {r} ({loads:?})"
    );
}

/// Every distributed entry point ends in the one collective memory gate of
/// `sdssort::exchange` (the resilient driver in its own three-way one): a
/// budget no receive buffer fits fails every rank, and the reservation is
/// released on the failed and on the successful exit alike. After `τm` node
/// merging the gate is the leaders', and their verdict reaches the ranks
/// that left their data with them.
#[test]
fn every_sorter_fails_together_and_releases_its_reservation() {
    type Resilient = fn(&Comm, Vec<u64>, &Path) -> Result<usize, SortError>;
    // τm off: node merging would leave the exchange to the node leaders.
    fn sds_cfg(stable: bool) -> SdsConfig {
        SdsConfig {
            stable,
            tau_m_bytes: 0,
            ..SdsConfig::default()
        }
    }
    let mut unmerged = Tuning::default();
    unmerged.sds.tau_m_bytes = 0;
    let mut merged = Tuning::default();
    merged.ams.tau_m_bytes = merged.sds.tau_m_bytes;
    let dir = std::env::temp_dir().join(format!("sds-one-gate-{}", std::process::id()));
    let rows = Sorter::ALL.map(|s| (s, unmerged, s.name().to_string()));
    let merging = [Sorter::Sds, Sorter::Ams].map(|s| (s, merged, format!("{} τm", s.name())));
    for (sorter, tuning, name) in rows.into_iter().chain(merging) {
        one_gate(&name, &dir, |c, d, _| {
            sorter.sort(c, d, &tuning).map(|o| o.data.len())
        });
    }
    let resilient: [(&str, Resilient); 3] = [
        ("sds_sort_resilient", |c, d, dir| {
            sds_sort_resilient(c, d, &sds_cfg(false), dir).map(|o| o.data.len())
        }),
        ("sds_sort_resilient Tagged<u32>", |c, d, dir| {
            let tagged = d.iter().zip(0u64..).map(|(&k, i)| Record::new(k as u32, i));
            let data: Vec<Tagged<u32>> = tagged.collect();
            sds_sort_resilient(c, data, &sds_cfg(true), dir).map(|o| o.data.len())
        }),
        ("sds_sort_resilient τm", |c, d, dir| {
            sds_sort_resilient(c, d, &SdsConfig::default(), dir).map(|o| o.data.len())
        }),
    ];
    for (name, sort) in resilient {
        one_gate(name, &dir, sort);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ranks, records per rank and cores per node of the cross-backend crash
/// (one core per node: no sorter merges a node's data onto its leader).
const FIG6C_P: usize = 8;
const FIG6C_N: usize = 4000;
const FIG6C_CORES: usize = 1;
/// Per-rank budget: holds SDS-Sort's fullest receive buffer on zipf:1.4
/// (5112 records, 40.9 kB), not HykSort's (10 221 records), and puts that
/// SDS rank over the resilient sort's 0.8 spill threshold.
const FIG6C_BUDGET: usize = 48_000;
const FIG6C_ENTRY: &str = "fig6c";

/// One rank's end of a case: its share of the output and whether it
/// spilled, or how its sort failed.
type Fig6cRank = Result<(Vec<u64>, bool), SortError>;

/// Case `case` of the cross-backend crash on one rank: a row of the sorter
/// table, or, past its end, the resilient SDS-Sort spilling under `dir`.
fn fig6c_rank<C: Communicator>(comm: &C, (case, dir): (u64, String)) -> Fig6cRank {
    let data = zipf_keys(FIG6C_N, 1.4, 42, comm.rank());
    let out = match Sorter::ALL.get(case as usize) {
        Some(sorter) => sorter.sort(comm, data, &Tuning::default()),
        None => sds_sort_resilient(comm, data, &SdsConfig::default(), Path::new(&dir)),
    };
    out.map(|o| (o.data, o.stats.spilled))
}

/// Rank processes of the sockets worlds below re-enter this binary with
/// `sockcomm_child_entry --exact` and divert inside this `child_rank` call
/// (which never returns). In a parent test run no `SOCKCOMM_*` environment
/// is set, the call is a no-op, and the test trivially passes.
#[test]
fn sockcomm_child_entry() {
    sockcomm::child_rank(FIG6C_ENTRY, fig6c_rank);
}

/// Fig. 6c on every backend: under one per-rank budget HykSort crashes on
/// zipf:1.4 — `Oom` on the overloaded ranks, `PeerOom` on the rest — while
/// SDS-Sort finishes, and the resilient SDS-Sort finishes by spilling with
/// plain SDS-Sort's output record for record. Reservations are counted
/// from records, so every sorter's per-rank verdict (down to the sizes in
/// an `Oom`), output and spill flags are the same on the simulator, on
/// threads and over sockets.
#[test]
fn fig6c_crash_is_the_same_on_every_backend() {
    let dir = std::env::temp_dir().join(format!("sds-fig6c-{}", std::process::id()));
    let mut cases = Vec::new();
    for case in 0..=Sorter::ALL.len() as u64 {
        let name = Sorter::ALL
            .get(case as usize)
            .map_or("sds_sort_resilient", |s| s.name());
        let on = |backend: &str| (case, dir.join(backend).display().to_string());
        let sim = World::new(FIG6C_P)
            .cores_per_node(FIG6C_CORES)
            .net(NetModel::zero())
            .memory_budget(FIG6C_BUDGET)
            .run(|comm| fig6c_rank(&*comm, on("sim")))
            .results;
        let threads = ThreadWorld::new(FIG6C_P)
            .cores_per_node(FIG6C_CORES)
            .memory_budget(FIG6C_BUDGET)
            .run(|comm| fig6c_rank(comm, on("threads")))
            .results;
        let sockets = SocketWorld::new(FIG6C_P)
            .cores_per_node(FIG6C_CORES)
            .memory_budget(FIG6C_BUDGET)
            .child_args(["sockcomm_child_entry", "--exact"])
            .run::<(u64, String), Fig6cRank>(FIG6C_ENTRY, &on("sockets"))
            .expect("sockets world")
            .results;
        assert_eq!(sim, threads, "{name}: threads differ from the simulator");
        assert_eq!(sim, sockets, "{name}: sockets differ from the simulator");
        cases.push(sim);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let case = |s: Sorter| &cases[Sorter::ALL.iter().position(|&r| r == s).expect("a row")];
    let hyksort = case(Sorter::HykSort);
    let overloaded = |r: &Fig6cRank| match r {
        Err(SortError::Oom(e)) => e.requested > FIG6C_BUDGET,
        _ => false,
    };
    assert!(
        hyksort.iter().any(overloaded),
        "HykSort must crash: {hyksort:?}"
    );
    assert!(
        hyksort
            .iter()
            .all(|r| overloaded(r) || *r == Err(SortError::PeerOom)),
        "HykSort: every rank not over the budget abandons the sort: {hyksort:?}"
    );
    let sds = case(Sorter::Sds);
    assert!(sds.iter().all(Result::is_ok), "SDS-Sort must fit: {sds:?}");
    let resilient = &cases[Sorter::ALL.len()];
    assert!(
        resilient.iter().any(|r| matches!(r, Ok((_, true)))),
        "the resilient sort must spill"
    );
    for (rank, (plain, spilled)) in sds.iter().zip(resilient).enumerate() {
        let (plain, spilled) = (plain.as_ref().unwrap(), spilled.as_ref().unwrap());
        assert_eq!(
            plain.0, spilled.0,
            "rank {rank}: spilling changed the output"
        );
    }
}

/// One case of the test above: `name` under a budget that holds nothing and
/// under one that holds everything.
fn one_gate(
    name: &str,
    dir: &Path,
    sort: impl Fn(&Comm, Vec<u64>, &Path) -> Result<usize, SortError> + Sync,
) {
    const CORES: usize = 4;
    let n = 500usize;
    let merges = name.ends_with("τm");
    let p = if merges { 16 } else { 8 };
    // 64 B holds no rank's receive buffer, nor one staged chunk of it;
    // 1 MiB holds all of the data on one rank.
    for (budget, fits) in [(64, false), (1 << 20, true)] {
        let report = World::new(p)
            .cores_per_node(CORES)
            .net(NetModel::zero())
            .memory_budget(budget)
            .run(|comm| {
                let data = uniform_u64(n, 5, comm.rank());
                let result = sort(comm, data, dir);
                let memory = comm.universe().budget();
                let rank = comm.world_rank();
                (result, memory.used(rank), memory.high_water(rank))
            });
        for (rank, (result, used, high_water)) in report.results.iter().enumerate() {
            assert_eq!(
                *used, 0,
                "{name}, budget {budget}: rank {rank} still holds a reservation"
            );
            if fits {
                assert!(result.is_ok(), "{name}: rank {rank} fits 1 MiB: {result:?}");
                // After node merging only the leaders exchange.
                assert!(
                    *high_water > 0 || (merges && rank % CORES != 0),
                    "{name}: rank {rank} never charged its receive buffer"
                );
            } else {
                assert!(
                    matches!(result, Err(SortError::Oom(_) | SortError::PeerOom)),
                    "{name}: rank {rank} must fail with the others: {result:?}"
                );
            }
        }
        if fits {
            let total: usize = report.results.iter().map(|r| *r.0.as_ref().unwrap()).sum();
            assert_eq!(total, p * n, "{name}: records lost");
        } else {
            assert!(
                report
                    .results
                    .iter()
                    .any(|r| matches!(r.0, Err(SortError::Oom(_)))),
                "{name}: the rank over its budget reports Oom itself"
            );
        }
    }
}

/// A sorter's phases account for the time it took: on every rank
/// `SortStats::total_s()` is the clock spent inside the call — by
/// construction, since one `driver::Clock` books every step — the initial
/// local sort is booked in `pivot_s` (the paper's "initial ordering"
/// footnote), the merging in `local_order_s` and the node merge in
/// `other_s`; otherwise the per-phase rows of Figs. 9/10 and the shoot-out
/// compare different things. HykSort used to book the local sort nowhere
/// (its phases summed to 14 % of its time here), AMS its merging under
/// `exchange_s` and the `split`s between its levels nowhere.
#[test]
fn every_sorters_phases_sum_to_its_time_with_the_local_sort_under_pivot() {
    let mut unmerged = Tuning::default();
    unmerged.sds.tau_m_bytes = 0;
    // k = 4 over p = 8: two HykSort stages; kmax = 4: two AMS levels.
    (unmerged.hyksort.k, unmerged.ams.kmax) = (4, 4);
    let mut merged = unmerged;
    (merged.sds.tau_m_bytes, merged.ams.tau_m_bytes) = (usize::MAX, usize::MAX);
    let dir = std::env::temp_dir().join(format!("sds-phase-sum-{}", std::process::id()));
    let rows = Sorter::ALL.map(|s| (s, unmerged, s.name().to_string()));
    let merging = [Sorter::Sds, Sorter::Ams].map(|s| (s, merged, format!("{} τm", s.name())));
    for (sorter, tuning, name) in rows.into_iter().chain(merging) {
        phases_sum(&name, None, &dir, |c, d, _| {
            sorter.sort(c, d, &tuning).map(|o| o.stats)
        });
    }
    // A budget no receive buffer of the 4000 records fits, and every staged
    // chunk of one does.
    phases_sum("sds-resilient", Some(24_000), &dir, |c, d, dir| {
        sds_sort_resilient(c, d, &unmerged.sds, dir).map(|o| o.stats)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// One case of the test above: `name` on 8 ranks of 4000 Zipf keys each,
/// under `budget`.
fn phases_sum(
    name: &str,
    budget: Option<usize>,
    dir: &Path,
    sort: impl Fn(&Comm, Vec<u64>, &Path) -> Result<SortStats, SortError> + Sync,
) {
    const CORES: usize = 2;
    let n = 4000;
    let model = ComputeModel::nominal();
    let mut world = World::new(8).cores_per_node(CORES);
    if let Some(budget) = budget {
        world = world.memory_budget(budget);
    }
    let report = world.run(|comm| {
        let data = zipf_keys(n, 0.9, 5, comm.rank());
        let t0 = comm.now();
        let stats = sort(comm, data, dir).expect("the budget admits spilling");
        (stats, comm.now() - t0)
    });
    let merges = name.ends_with("τm");
    for (rank, (stats, spent)) in report.results.iter().enumerate() {
        // Rounding only: the phases are differences of one clock's
        // readings. (At 5 % this passed while AMS left 2.5 % unbooked.)
        let gap = (spent - stats.total_s()).abs();
        assert!(
            gap <= 1e-9 * spent,
            "{name} rank {rank}: phases sum to {:e} of {spent:e} s",
            stats.total_s()
        );
        // Every sorter was charged the model's price for the local sort.
        assert!(
            stats.pivot_s >= model.sort_cost(n),
            "{name} rank {rank}: pivot_s {:e} does not hold the local sort ({:e} s)",
            stats.pivot_s,
            model.sort_cost(n)
        );
        // HykSort's exchange contains its ordering (paper footnote 4),
        // and after a node merge only the leaders exchange and order.
        let orders = name != "hyksort" && !(merges && rank % CORES != 0);
        assert_eq!(
            stats.local_order_s > 0.0,
            orders,
            "{name} rank {rank}: local_order_s {:e}",
            stats.local_order_s
        );
        assert_eq!(stats.node_merged, merges, "{name} rank {rank}");
        assert!(
            !merges || stats.other_s > 0.0,
            "{name} rank {rank}: other_s {:e} does not hold the node merge",
            stats.other_s
        );
    }
    let spilled = report.results.iter().any(|(stats, _)| stats.spilled);
    assert_eq!(spilled, budget.is_some(), "{name}: spilling");
}
