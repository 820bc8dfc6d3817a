//! Correctness suite for the peer algorithms on the virtual-time
//! simulator: every row of the sorter table over the skew matrix (sorted
//! permutation, stability where promised, the published load bound), then
//! AMS and HSS in depth: multi-level recursion, the `τm` node-merge path,
//! the HSS `(1+ε)` part-size guarantee, the splitters the shared
//! refinement loop must keep producing, and collective OOM behavior.
//! Cross-backend bit-equality lives in the workspace-level
//! `backend_equivalence` suite.

use algos::{ams_sort, hss_sort, hss_splitters, AmsConfig, HssConfig, Sorter, Tuning};
use mpisim::{Communicator, NetModel, World};
use sdssort::histogram::histogram_splitters;
use sdssort::{is_globally_sorted, Record, SortError, Tagged};
use workloads::keys_by_name;

fn world(p: usize) -> World {
    World::new(p).cores_per_node(4).net(NetModel::zero())
}

/// The skew matrix: uniform, moderate and heavy Zipf, the staircase of
/// duplication levels, heavy hitters, and a single repeated key.
const WORKLOADS: [&str; 6] = [
    "uniform",
    "zipf:1.05",
    "zipf:1.8",
    "staircase:4",
    "adversarial",
    "identical",
];

fn keys(name: &str, n: usize, seed: u64, rank: usize) -> Vec<u64> {
    if name == "identical" {
        return workloads::all_equal(n, 42);
    }
    keys_by_name(name, n, seed, rank).expect("workload name from the fixed matrix")
}

/// Assert the per-rank outputs, concatenated in rank order, are globally
/// sorted and a permutation of the inputs.
fn assert_sorted_permutation(inputs: &[Vec<u64>], outputs: &[Vec<u64>]) {
    let flat: Vec<u64> = outputs.iter().flatten().copied().collect();
    assert!(flat.windows(2).all(|w| w[0] <= w[1]), "globally sorted");
    let mut expect: Vec<u64> = inputs.iter().flatten().copied().collect();
    expect.sort_unstable();
    assert_eq!(flat, expect, "permutation of the input");
}

/// Every row of the sorter table over the skew matrix, on records tagged
/// with their global input position: the output is a sorted permutation,
/// in input order among equal keys where the row is stable, and no rank
/// holds more than the row's published load bound (plus Theorem 1's
/// lower-order slack, `2N/p² + p`, for rounding at this small `N/p`).
#[test]
fn every_sorter_sorts_the_skew_matrix_within_its_published_bound() {
    let (p, n) = (8, 600);
    let mut tuning = Tuning::default();
    // A node merge concentrates a node's output on its leader by design.
    tuning.sds.tau_m_bytes = 0;
    for sorter in Sorter::ALL {
        for name in WORKLOADS {
            let report = world(p).run(|comm| {
                let first = (comm.rank() * n) as u64;
                let keys = keys(name, n, 13, comm.rank()).into_iter();
                let data: Vec<Tagged<u64>> =
                    keys.zip(first..).map(|(k, i)| Record::new(k, i)).collect();
                let out = sorter
                    .sort(comm, data.clone(), &tuning)
                    .expect("no budget set");
                (data, out.data)
            });
            let (ins, outs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
            let got: Vec<Tagged<u64>> = outs.concat();
            let mut want = ins.concat();
            if sorter.stable() {
                want.sort_by_key(|r| r.key);
                assert_eq!(got, want, "{sorter:?} on {name}: stable order");
            } else {
                assert!(
                    got.windows(2).all(|w| w[0].key <= w[1].key),
                    "{sorter:?} on {name}"
                );
                let mut got = got;
                got.sort_unstable_by_key(|r| (r.key, r.payload));
                want.sort_unstable_by_key(|r| (r.key, r.payload));
                assert_eq!(
                    got, want,
                    "{sorter:?} on {name}: a permutation of the input"
                );
            }
            if let Some(bound) = sorter.load_bound(&tuning) {
                let total = p * n;
                let limit = bound * (total / p) as f64 + (2 * total / (p * p) + p) as f64;
                let max = outs.iter().map(Vec::len).max().unwrap_or(0);
                assert!(max as f64 <= limit, "{sorter:?} on {name}: {max} > {limit}");
            }
        }
    }
}

#[test]
fn ams_sorts_the_skew_matrix() {
    let p = 8;
    for name in WORKLOADS {
        let report = world(p).run(move |comm| {
            let data = keys(name, 600, 11, comm.rank());
            let out = ams_sort(comm, data.clone(), &AmsConfig::default()).expect("no budget set");
            (data, out.data)
        });
        let (ins, outs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
        assert_sorted_permutation(&ins, &outs);
    }
}

#[test]
fn ams_recurses_multi_level() {
    // kmax=2 at p=8 forces three levels of 2-way splits; the result must
    // still be exact.
    let p = 8;
    let mut cfg = AmsConfig::default();
    cfg.kmax = 2;
    let report = world(p).run(move |comm| {
        let data = keys("zipf:1.3", 500, 23, comm.rank());
        let out = ams_sort(comm, data.clone(), &cfg).expect("no budget set");
        (data, out.data)
    });
    let (ins, outs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_sorted_permutation(&ins, &outs);
}

/// The level whose groups have one member ends the sort: nothing is left to
/// split or rebalance. AMS used to `split` every rank into a one-rank group
/// there (an allgather per group for nothing: 859 → 835 messages at `p = 16`,
/// `kmax = 8`). A split shows in a rank's spans as the splitter step opening
/// again after an ordering (the rebalance then separates it from the next
/// level's), so each rank must pass through "pivot-select" once per level
/// and once per split, and end in the last level's "local-order".
#[test]
fn ams_does_not_split_into_one_rank_groups() {
    // (p, kmax, levels, of which split): one level of one-rank groups; 8
    // groups of 2, then of 1; 2-way thrice.
    for (p, kmax, levels, split) in [(4, 4, 1, 0), (16, 8, 2, 1), (8, 2, 3, 2)] {
        let mut cfg = AmsConfig::default();
        cfg.kmax = kmax;
        let report = World::new(p)
            .net(NetModel::zero())
            .telemetry(true)
            .run(move |comm| {
                let data = keys("zipf:0.9", 500, 3, comm.rank());
                ams_sort(comm, data, &cfg)
                    .expect("no budget set")
                    .data
                    .len()
            });
        let spans = report.telemetry.expect("telemetry enabled").spans;
        for rank in 0..p {
            let mut mine: Vec<_> = spans.iter().filter(|s| s.rank == rank).collect();
            mine.sort_by(|a, b| a.start_v.total_cmp(&b.start_v));
            let splitter_steps = mine.iter().filter(|s| s.name == "pivot-select").count();
            assert_eq!(
                (splitter_steps, mine.last().map(|s| s.name.as_str())),
                (levels + split, Some("local-order")),
                "p {p} kmax {kmax} rank {rank}"
            );
        }
    }
}

#[test]
fn ams_node_merge_path_engages_and_stays_correct() {
    // A huge τm forces the node-merge prelude: node-local ranks gather to
    // their leader, and only leaders run the multi-level exchange.
    let p = 8;
    let mut cfg = AmsConfig::default();
    cfg.tau_m_bytes = usize::MAX;
    let report = world(p).run(move |comm| {
        let data = keys("staircase:4", 300, 7, comm.rank());
        let out = ams_sort(comm, data.clone(), &cfg).expect("no budget set");
        (data, out.data, out.stats.node_merged)
    });
    let merged = report.results.iter().any(|(_, _, m)| *m);
    assert!(merged, "tau_m = MAX must engage the node merge");
    let (ins, outs): (Vec<_>, Vec<_>) = report.results.into_iter().map(|(i, o, _)| (i, o)).unzip();
    assert_sorted_permutation(&ins, &outs);
}

#[test]
fn ams_deterministic_across_runs() {
    let p = 8;
    let run = || {
        world(p)
            .run(|comm| {
                let data = keys("zipf:1.5", 400, 3, comm.rank());
                ams_sort(comm, data, &AmsConfig::default())
                    .expect("no budget set")
                    .data
            })
            .results
    };
    assert_eq!(run(), run(), "bit-identical per-rank outputs");
}

#[test]
fn ams_tiny_and_empty_inputs() {
    let p = 8;
    for n in [0usize, 1, 3] {
        let report = world(p).run(move |comm| {
            let data = keys("uniform", n, 2, comm.rank());
            let out = ams_sort(comm, data.clone(), &AmsConfig::default()).expect("no budget set");
            (data, out.data)
        });
        let (ins, outs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
        assert_sorted_permutation(&ins, &outs);
    }
}

#[test]
fn hss_sorts_the_skew_matrix() {
    let p = 8;
    for name in WORKLOADS {
        let report = world(p).run(move |comm| {
            let data = keys(name, 600, 17, comm.rank());
            let out = hss_sort(comm, data.clone(), &HssConfig::default()).expect("no budget set");
            (data, out.data)
        });
        let (ins, outs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
        assert_sorted_permutation(&ins, &outs);
    }
}

#[test]
fn hss_part_sizes_within_one_plus_eps() {
    // The headline HSS guarantee: every part of the final partition is at
    // most (1+ε)·(N/p) — *including* under total duplication, where
    // value-only splitters cannot achieve any bound at all. `recv_count`
    // is exactly the realized part size. The +2 absorbs the integer
    // rounding of targets (⌊iN/p⌋) and of the tolerance.
    let p = 8;
    let n = 600usize;
    let eps = 0.1;
    for name in WORKLOADS {
        let mut cfg = HssConfig::default();
        cfg.eps = eps;
        let report = world(p).run(move |comm| {
            let data = keys(name, n, 29, comm.rank());
            hss_sort(comm, data, &cfg)
                .expect("no budget set")
                .stats
                .recv_count
        });
        let total: usize = n * p;
        let ideal = total as f64 / p as f64;
        let bound = ((1.0 + eps) * ideal).floor() as usize + 2;
        for (rank, &part) in report.results.iter().enumerate() {
            assert!(
                part <= bound,
                "{name}: part on rank {rank} is {part} > (1+eps)*ideal bound {bound}"
            );
        }
    }
}

#[test]
fn hss_splitters_hit_targets_within_tolerance() {
    // Stronger than the part-size bound: every realized boundary position
    // is within tol = ⌊ε·ideal/2⌋ of its ideal target ⌊iN/p⌋, whether by
    // histogram refinement or by the exact-selection fallback.
    let p = 8;
    let n = 600usize;
    let eps = 0.1;
    for name in WORKLOADS {
        let mut cfg = HssConfig::default();
        cfg.eps = eps;
        let report = world(p).run(move |comm| {
            let data = {
                let mut d = keys(name, n, 31, comm.rank());
                d.sort_unstable();
                d
            };
            hss_splitters(comm, &data, comm.size(), &cfg)
        });
        let total = (n * p) as u64;
        let ideal = total as f64 / p as f64;
        let tol = (eps * ideal / 2.0).floor() as u64;
        let first = &report.results[0];
        assert_eq!(first.len(), p - 1, "{name}: one cut per boundary");
        for cuts in &report.results {
            assert_eq!(cuts, first, "{name}: cuts replicated on every rank");
        }
        for (i, cut) in first.iter().enumerate() {
            let target = (i as u64 + 1) * total / p as u64;
            let err = cut.position.abs_diff(target);
            assert!(
                err <= tol,
                "{name}: boundary {i} realized {} vs target {target} (err {err} > tol {tol})",
                cut.position
            );
        }
    }
}

#[test]
fn hss_forced_fallback_is_exact() {
    // Zero histogram rounds: every boundary must come from the exact
    // kth_smallest_key fallback, so positions hit targets with err 0.
    let p = 8;
    let n = 500usize;
    let mut cfg = HssConfig::default();
    cfg.max_rounds = 0;
    let report = world(p).run(move |comm| {
        let data = {
            let mut d = keys("zipf:1.8", n, 41, comm.rank());
            d.sort_unstable();
            d
        };
        hss_splitters(comm, &data, comm.size(), &cfg)
    });
    let total = (n * p) as u64;
    for cuts in &report.results {
        for (i, cut) in cuts.iter().enumerate() {
            let target = (i as u64 + 1) * total / p as u64;
            assert_eq!(cut.position, target, "boundary {i} exact under fallback");
        }
    }
}

#[test]
fn hss_deterministic_across_runs() {
    let p = 8;
    let run = || {
        world(p)
            .run(|comm| {
                let data = keys("adversarial", 400, 5, comm.rank());
                hss_sort(comm, data, &HssConfig::default())
                    .expect("no budget set")
                    .data
            })
            .results
    };
    assert_eq!(run(), run(), "bit-identical per-rank outputs");
}

#[test]
fn hss_tiny_and_empty_inputs() {
    let p = 8;
    for n in [0usize, 1, 3] {
        let report = world(p).run(move |comm| {
            let data = keys("uniform", n, 2, comm.rank());
            let out = hss_sort(comm, data.clone(), &HssConfig::default()).expect("no budget set");
            (data, out.data)
        });
        let (ins, outs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
        assert_sorted_permutation(&ins, &outs);
    }
}

#[test]
fn both_fail_collectively_under_memory_pressure() {
    // A budget far below the receive volume must fail on every rank —
    // either locally (Oom) or in sympathy (PeerOom) — never deadlock or
    // succeed partially.
    let p = 4;
    for algo in ["ams", "hss"] {
        let report = World::new(p)
            .cores_per_node(2)
            .net(NetModel::zero())
            .memory_budget(64)
            .run(move |comm| {
                let data = keys("uniform", 1000, 9, comm.rank());
                match algo {
                    "ams" => ams_sort(comm, data, &AmsConfig::default()).map(|o| o.data),
                    _ => hss_sort(comm, data, &HssConfig::default()).map(|o| o.data),
                }
            });
        for (rank, r) in report.results.iter().enumerate() {
            assert!(r.is_err(), "{algo}: rank {rank} must report the OOM");
        }
    }
}

#[test]
fn ams_group_level_oom_fails_every_rank() {
    // `sortcli --sorter ams --workload zipf:1.4 --ranks 16 --cores 4
    // --records 4000 --budget 100000`: the first level (one group per node)
    // fits everywhere, then group 0's rebalance does not. The memory check
    // there is the group's own, so the other groups used to finish and hang
    // in the next world collective, which the deadlock detector turns into a
    // panic here.
    let report = World::new(16)
        .cores_per_node(4)
        .memory_budget(100_000)
        .run(|comm| {
            let data = keys("zipf:1.4", 4000, 42, comm.rank());
            ams_sort(comm, data, &AmsConfig::default())
                .map(|out| is_globally_sorted(comm, &out.data))
        });
    for (rank, r) in report.results.iter().enumerate() {
        assert!(
            matches!(r, Err(SortError::Oom(_) | SortError::PeerOom)),
            "rank {rank} must fail with group 0: {r:?}"
        );
    }
    assert!(report
        .results
        .iter()
        .any(|r| matches!(r, Err(SortError::Oom(_)))));
}

/// Pins the splitters: `histogram_splitters` and `hss_splitters` are two
/// callers of one refinement loop (`sdssort::histogram::refine`) and must
/// answer exactly what their two hand-written loops answered. The file was
/// recorded at commit ba64a77 (the parent of the PR that merged the loops)
/// with this same script. One line per call at `p = 8`: HykSort's
/// splitters (seed 7), then HSS's cuts as configured by default and with
/// `max_rounds = 0`, which forces the exact-selection fallback; an HSS cut
/// reads `key+take_equal@position`.
#[test]
fn splitters_match_the_golden_file() {
    use std::fmt::Write;
    let p = 8;
    let mut out = String::new();
    for name in ["uniform", "zipf:0.9", "staircase:4", "identical"] {
        let report = world(p).run(move |comm| {
            let mut data = keys(name, 600, 53, comm.rank());
            data.sort_unstable();
            let forced = HssConfig {
                max_rounds: 0,
                ..HssConfig::default()
            };
            (
                histogram_splitters(comm, &data, p, 7),
                hss_splitters(comm, &data, p, &HssConfig::default()),
                hss_splitters(comm, &data, p, &forced),
            )
        });
        let first = &report.results[0];
        for answer in &report.results {
            assert_eq!(answer, first, "{name}: replicated on every rank");
        }
        let (histogram, hss, forced) = first;
        write!(out, "{name} histogram").unwrap();
        for key in histogram {
            write!(out, " {key}").unwrap();
        }
        for (label, cuts) in [("hss", hss), ("hss-fallback", forced)] {
            write!(out, "\n{name} {label}").unwrap();
            for c in cuts {
                write!(out, " {}+{}@{}", c.key, c.take_equal, c.position).unwrap();
            }
        }
        out.push('\n');
    }
    assert_eq!(out, include_str!("golden/splitters.txt"));
}
