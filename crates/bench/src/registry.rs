//! The experiment registry and the one runner behind the `experiments`
//! binary.
//!
//! [`REGISTRY`] names every table, figure, ablation and trace of
//! EXPERIMENTS.md; [`Run`] owns what they all share — the scale, the
//! per-experiment [`Emitter`], header/verdict
//! printing, and a memo of the (dataset, p, sorter) cells already sorted, so
//! Table 3 reports from the very runs Figs. 7/8 printed and Table 4 from
//! Figs. 9/10 (on its own, either table simply runs the cells it needs).

use crate::emit::{outcome_values, Emitter};
use crate::experiments::{kernels, scaling, skew, thresholds};
use crate::{run_sorter, RunOutcome, Scale};
use algos::Sorter;
use mpisim::telemetry::Json;
use std::collections::HashMap;
use std::path::PathBuf;
use workloads::{cosmology_particles, ptf_scores, uniform_u64, zipf_keys, Particle};

/// One reproducible experiment.
pub struct Experiment {
    /// Registry key: the command-line name, the `(`name`)` heading in
    /// EXPERIMENTS.md, and the `BENCH_<name>.json` document.
    pub name: &'static str,
    /// Header line.
    pub title: &'static str,
    /// What the paper (or the design rationale) claims.
    pub paper_claim: &'static str,
    /// Print the rows, record the series, and return the shape verdict
    /// (via [`Run::verdict`]).
    pub run: fn(&mut Run) -> bool,
}

/// Every experiment, in EXPERIMENTS.md order.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "fig5a",
        title: "Fig 5a — exchange time, node merging vs direct, by per-node size",
        paper_claim: "merging wins below ~160 MB/node on Edison, loses above",
        run: thresholds::fig5a,
    },
    Experiment {
        name: "fig5b",
        title: "Fig 5b — overlap vs no-overlap of exchange and local ordering, by p",
        paper_claim: "overlap faster below ~4K processes, slower above (Edison)",
        run: thresholds::fig5b,
    },
    Experiment {
        name: "fig5c",
        title: "Fig 5c — final local ordering: merging vs sorting, by chunk count p",
        paper_claim: "merging rises with p, sorting stays flat; crossover ~4000 (Edison)",
        run: kernels::fig5c,
    },
    Experiment {
        name: "table1",
        title: "Table 1 — std::sort vs std::stable_sort, uniform + Zipf floats",
        paper_claim: "unstable < stable everywhere; higher skew (δ) sorts faster",
        run: kernels::table1,
    },
    Experiment {
        name: "table2",
        title: "Table 2 — δ (max replication ratio) vs Zipf exponent α",
        paper_claim: "α: 0.4 0.5 0.6 0.7 0.8 0.9 → δ%: 0.2 0.5 1.0 2.0 3.7 6.4",
        run: kernels::table2,
    },
    Experiment {
        name: "fig6a",
        title: "Fig 6a — parallel merge critical path: skew-aware vs sampling merge",
        paper_claim: "sampling merge degrades on Zipf; skew-aware stays flat on both",
        run: kernels::fig6a,
    },
    Experiment {
        name: "fig6b",
        title: "Fig 6b — partition time: full scan vs binary (HykSort) vs local-pivot",
        paper_claim: "local-pivot partition reduces partition cost to ~0 at every p",
        run: kernels::fig6b,
    },
    Experiment {
        name: "fig6c",
        title: "Fig 6c — sort time vs replication ratio δ under memory budget",
        paper_claim: "SDS variants stable across δ; HykSort OOMs once δ > ~1%",
        run: skew::fig6c,
    },
    Experiment {
        name: "fig7",
        title: "Fig 7 — weak scaling, Uniform workload",
        paper_claim: "SDS-Sort fastest (51% over HykSort at 128K); stable slowest",
        run: scaling::fig7,
    },
    Experiment {
        name: "fig8",
        title: "Fig 8 — weak scaling, Zipf workload (memory budget enforced)",
        paper_claim: "HykSort OOMs at every p; SDS variants run at uniform-like speed",
        run: scaling::fig8,
    },
    Experiment {
        name: "table3",
        title: "Table 3 — RDFA of the scaling tests (Uniform and Zipf)",
        paper_claim: "Uniform: all ≈1; Zipf: HykSort = inf (OOM), SDS ≤ ~2.7",
        run: scaling::table3,
    },
    Experiment {
        name: "fig9",
        title: "Fig 9 — PTF real-bogus scores (δ ≈ 28%), 192 ranks, phase breakdown",
        paper_claim: "SDS-Sort 3.4x over HykSort; SDS/stable 2.2x; HykSort RDFA ≈ 33",
        run: scaling::fig9,
    },
    Experiment {
        name: "fig10",
        title: "Fig 10 — cosmology cluster-ID sort (δ ≈ 0.73%), phase breakdown",
        paper_claim: "HykSort OOM; SDS ~2x faster than SDS/stable; RDFA ≈ 1.4 for both",
        run: scaling::fig10,
    },
    Experiment {
        name: "table4",
        title: "Table 4 — RDFA on PTF and Cosmology data",
        paper_claim: "PTF: HykSort 32.7 vs SDS ~2; Cosmology: HykSort inf vs SDS 1.40",
        run: scaling::table4,
    },
    Experiment {
        name: "ablation-partition",
        title: "Ablation — skew-aware vs classic partition inside the same pipeline",
        paper_claim: "isolates §2.5: the partition alone must explain the skew robustness",
        run: skew::ablation_partition,
    },
    Experiment {
        name: "ablation-pivot-methods",
        title: "Ablation — distributed vs gather-based global pivot selection",
        paper_claim: "§2.4: avoid gathering p(p-1) samples on one rank at large p",
        run: thresholds::ablation_pivot_methods,
    },
    Experiment {
        name: "ablation-networks",
        title: "Ablation — τm crossover under fast (Aries) vs slow (ethernet) networks",
        paper_claim: "node merging is the low-throughput-network optimization (§2.3)",
        run: thresholds::ablation_networks,
    },
    Experiment {
        name: "trace-comm-matrix",
        title: "Trace — communication matrix with and without node merging",
        paper_claim: "merging collapses the cross-node all-to-all onto node leaders (§2.3)",
        run: thresholds::trace_comm_matrix,
    },
    Experiment {
        name: "ablation-pivot-source",
        title: "Ablation — pivot source x partition rule on Zipf α=1.4 (δ ≈ 32%)",
        paper_claim:
            "§2.4: histogram selection is only unsafe when paired with a duplicate-blind partition",
        run: skew::ablation_pivot_source,
    },
    Experiment {
        name: "shootout",
        title: "4-way skew shoot-out — SDS (fast/stable) vs HykSort vs AMS-sort vs HSS",
        paper_claim:
            "skew-aware partitioning keeps every competitor honest: who balances, who concentrates",
        run: skew::shootout,
    },
];

/// The entries that time real code on this host (Figs. 5c, 6a, 6b and
/// Table 1), so their numbers move from run to run. Every other entry is a
/// pure function of code, model and seed, and `crates/bench/golden` holds
/// its document (`scripts/record_golden.sh` records them).
pub const HOST_TIMED: &[&str] = &["fig5c", "table1", "fig6a", "fig6b"];

/// Look an experiment up by registry name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The comparative datasets of §4.2–4.3, each with the per-rank size,
/// seed and memory budget every experiment over it shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Uniform `u64` keys, no budget (Fig. 7 / Table 3 "Uniform").
    Uniform,
    /// Zipf keys, α = 1.4 (δ ≈ 32 %, inside the paper's "Zipf(0.7–2.0)"
    /// band), under a budget of 3.5× the per-rank input: comfortably above
    /// SDS-Sort's observed RDFA (< 2.7, Table 3) and far below an
    /// all-duplicates-on-one-rank concentration of 1 + δ·p shares
    /// (Fig. 8 / Table 3 "Zipf").
    Zipf,
    /// Synthetic PTF real-bogus scores (δ ≈ 28 %). No budget — the paper
    /// notes the whole 27 GB dataset fits on one 64 GB node, so HykSort
    /// finishes despite RDFA ≈ 33 (Fig. 9 / Table 4).
    Ptf,
    /// Cosmology particles with a 24-byte payload, δ ≈ 0.73 %, under a
    /// budget of 2.5× the input — enough for SDS-Sort's balanced partitions
    /// (RDFA < 2), fatal for HykSort's concentration of ~δ·p input-shares
    /// on one rank once p is large (the paper hits the same wall at 16K
    /// ranks with δ·p ≈ 120) (Fig. 10 / Table 4).
    Cosmology,
}

impl Dataset {
    /// Records per rank at `scale`.
    pub fn n_rank(self, scale: Scale) -> usize {
        match self {
            Dataset::Uniform | Dataset::Zipf => scale.pick(20_000, 50_000),
            Dataset::Ptf => scale.pick(4000, 40_000),
            Dataset::Cosmology => scale.pick(2000, 10_000),
        }
    }

    fn run(self, scale: Scale, p: usize, sorter: Sorter) -> RunOutcome {
        let n = self.n_rank(scale);
        match self {
            Dataset::Uniform => run_sorter(sorter, p, None, move |r| uniform_u64(n, 0xF167, r)),
            Dataset::Zipf => run_sorter(sorter, p, Some(n * 8 * 7 / 2), move |r| {
                zipf_keys(n, 1.4, 0xF168, r)
            }),
            Dataset::Ptf => run_sorter(sorter, p, None, move |r| ptf_scores(n, 0x97F, r)),
            Dataset::Cosmology => {
                let budget = n * std::mem::size_of::<Particle>() * 5 / 2;
                run_sorter(sorter, p, Some(budget), move |r| {
                    cosmology_particles(n, 0xC05, r)
                })
            }
        }
    }
}

/// The (p, sorter) cells of one [`Run::sweep`], in sweep order.
pub struct Cells(pub(crate) Vec<(usize, Sorter, RunOutcome)>);

impl Cells {
    /// The outcome of `sorter` at `p`; panics if the sweep did not cover it.
    pub fn get(&self, p: usize, sorter: Sorter) -> &RunOutcome {
        self.0
            .iter()
            .find(|(q, s, _)| *q == p && *s == sorter)
            .map(|(_, _, o)| o)
            .expect("cell requested outside the sweep that produced these cells")
    }
}

/// Shared state of one `experiments` invocation.
pub struct Run {
    scale: Scale,
    out: Option<PathBuf>,
    em: Option<Emitter>,
    memo: HashMap<(Dataset, usize, Sorter), RunOutcome>,
}

impl Run {
    /// A run at `scale`; `out` is the `--metrics-out` destination.
    pub fn new(scale: Scale, out: Option<PathBuf>) -> Self {
        Self {
            scale,
            out,
            em: None,
            memo: HashMap::new(),
        }
    }

    /// Sweep sizes.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Run one registry entry: header (opening with the registry name),
    /// body, verdict, metrics document. Returns the shape verdict.
    pub fn execute(&mut self, exp: &Experiment) -> std::io::Result<bool> {
        let bar = "=".repeat(62);
        println!("{bar}\n[{}] {}", exp.name, exp.title);
        println!("paper: {}", exp.paper_claim);
        let scale = self.scale;
        println!("scale: {scale:?} (set BENCH_SCALE=full for larger sweeps)\n{bar}");
        self.em = Some(Emitter::with_out(exp.name, self.out.clone()));
        let ok = (exp.run)(self);
        self.em.take().expect("set above").finish()?;
        Ok(ok)
    }

    /// Series recorder of the executing experiment.
    pub fn em(&mut self) -> &mut Emitter {
        self.em
            .as_mut()
            .expect("experiment bodies run inside Run::execute")
    }

    /// Print the shape verdict line and hand `ok` back.
    pub fn verdict(&self, ok: bool, what: &str) -> bool {
        let tag = if ok { "REPRODUCED" } else { "DIVERGED" };
        println!("shape: [{tag}] {what}");
        ok
    }

    /// HykSort, SDS-Sort and SDS-Sort/stable on `data` at every `p` in
    /// `ps`, sorting only the cells no earlier experiment of this run
    /// already sorted.
    pub fn sweep(&mut self, data: Dataset, ps: &[usize]) -> Cells {
        let scale = self.scale;
        let mut cells = Vec::new();
        for &p in ps {
            for sorter in [Sorter::HykSort, Sorter::Sds, Sorter::SdsStable] {
                let outcome = self
                    .memo
                    .entry((data, p, sorter))
                    .or_insert_with(|| data.run(scale, p, sorter));
                cells.push((p, sorter, outcome.clone()));
            }
        }
        Cells(cells)
    }

    /// Record every cell: one series per sorter, one point per process
    /// count, with the shared [`outcome_values`] keys. `extra` params are
    /// appended to every point (a workload tag when an experiment emits
    /// several sweeps).
    pub fn emit_cells(&mut self, cells: &Cells, extra: &[(&str, Json)]) {
        for (p, sorter, outcome) in &cells.0 {
            let mut params = vec![("p", Json::from(*p))];
            params.extend(extra.iter().cloned());
            self.em()
                .point(sorter.label(), &params, &outcome_values(outcome));
        }
    }
}
