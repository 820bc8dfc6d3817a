//! The comparative runs of §4.2–4.3: weak scaling (Figs. 7/8, Table 3) and
//! the two science datasets (Figs. 9/10, Table 4). Every cell comes from
//! [`Run::sweep`], so a table reports from the same runs its figures print.

use crate::{fmt_opt_time, fmt_rdfa, fmt_time, Cells, Dataset, Run, RunOutcome, Table};
use algos::Sorter;

/// Process count of the PTF experiment (Fig. 9 / Table 4).
const PTF_P: usize = 192;
/// Process count of the cosmology experiment (Fig. 10 / Table 4).
const COSMOLOGY_P: usize = 512;

/// RDFA bound of regular sampling on distinct keys: each of the p source
/// ranks misplaces less than one stripe (1/p of its share) around a pivot,
/// so no partition exceeds 2·N/p.
const DISTINCT_KEYS_RDFA_BOUND: f64 = 2.0;
/// Theorem 1: with duplicates the skew-aware partition stays under 4·N/p.
const THEOREM1_RDFA_BOUND: f64 = 4.0;

/// (HykSort, SDS-Sort, SDS-Sort/stable) of one process count.
fn triple<T>(cells: &Cells, p: usize, f: impl Fn(&RunOutcome) -> T) -> (T, T, T) {
    (
        f(cells.get(p, Sorter::HykSort)),
        f(cells.get(p, Sorter::Sds)),
        f(cells.get(p, Sorter::SdsStable)),
    )
}

/// Run and record one weak-scaling sweep, print its time table, and return
/// the cells for the caller's verdict.
fn weak_scaling(r: &mut Run, data: Dataset, workload: &str, ps: &[usize]) -> Cells {
    let n_rank = data.n_rank(r.scale());
    let cells = r.sweep(data, ps);
    r.em().meta("workload", workload);
    r.em().meta("n_rank", n_rank);
    r.emit_cells(&cells, &[]);
    let mut table = Table::new([
        "p",
        "HykSort",
        "SDS-Sort",
        "SDS-Sort/stable",
        "SDS throughput",
    ]);
    for &p in ps {
        let (hyk, sds, stb) = triple(&cells, p, |o| o.time_s);
        // The paper's headline metric: bytes sorted per minute (it reports
        // 111-117 TB/min at 128K cores on 52.4 TB).
        let throughput = sds.map_or_else(
            || "-".into(),
            |t| {
                let bytes = (p * n_rank * 8) as f64;
                format!("{:.2} GB/min", bytes / t * 60.0 / 1e9)
            },
        );
        table.row([
            p.to_string(),
            fmt_opt_time(hyk),
            fmt_opt_time(sds),
            fmt_opt_time(stb),
            throughput,
        ]);
    }
    table.print();
    cells
}

/// Fig. 7 — weak scaling on the Uniform workload: SDS-Sort vs
/// SDS-Sort/stable vs HykSort, fixed records per rank, sweeping p.
///
/// Paper result (0.5K–128K cores, 400 MB/rank): all three scale; SDS-Sort
/// is ~51 % faster than HykSort at the top end; SDS-Sort/stable is the
/// slowest of the three (extra pivot-selection and ordering work).
pub fn fig7(r: &mut Run) -> bool {
    let ps: Vec<usize> = r
        .scale()
        .pick(vec![8, 16, 32, 64, 128], vec![8, 16, 32, 64, 128, 256, 512]);
    println!(
        "records/rank: {} u64 (paper: 100M = 400 MB)\n",
        Dataset::Uniform.n_rank(r.scale())
    );
    let cells = weak_scaling(r, Dataset::Uniform, "uniform_u64", &ps);
    let top = *ps.last().expect("non-empty sweep");
    let ok = match triple(&cells, top, |o| o.time_s) {
        (Some(h), Some(s), Some(st)) => {
            println!(
                "at p = {top}: SDS-Sort is {:.0}% faster than HykSort (paper: 51%)",
                (h / s - 1.0) * 100.0
            );
            s < h && st >= s
        }
        _ => false,
    };
    r.verdict(
        ok,
        "SDS-Sort beats HykSort at the largest p; stable variant trails the fast one",
    )
}

/// Fig. 8 — weak scaling on the Zipf workload under per-rank memory
/// budgets.
///
/// Paper result: HykSort fails with out-of-memory at every scale (the
/// histogram partition concentrates the duplicated values), while
/// SDS-Sort and SDS-Sort/stable deliver times similar to the uniform
/// workload.
pub fn fig8(r: &mut Run) -> bool {
    // The sweep starts at p = 16: duplicate concentration is proportional
    // to δ·p, and below that the budget still fits HykSort's imbalance
    // (the paper's sweep starts at 512 ranks, far past this point).
    let ps: Vec<usize> = r
        .scale()
        .pick(vec![16, 32, 64, 128], vec![16, 32, 64, 128, 256, 512]);
    println!(
        "records/rank: {} u64, α = 1.4 (δ ≈ 32%), budget = 3.5× input/rank\n",
        Dataset::Zipf.n_rank(r.scale())
    );
    let cells = weak_scaling(r, Dataset::Zipf, "zipf_keys", &ps);
    r.em().meta("alpha", 1.4);
    let hyk_all_oom = ps
        .iter()
        .all(|&p| cells.get(p, Sorter::HykSort).time_s.is_none());
    let sds_all_ok = ps.iter().all(|&p| {
        let (_, sds, stb) = triple(&cells, p, |o| o.time_s);
        sds.is_some() && stb.is_some()
    });
    r.verdict(
        hyk_all_oom && sds_all_ok,
        "HykSort out-of-memory at every scale; both SDS variants complete",
    )
}

/// Table 3 — RDFA (max partition / average partition) of every sorter in
/// the weak-scaling sweeps, Uniform and Zipf.
///
/// Paper result: on Uniform all sorters sit near 1.0 (HykSort marginally
/// better at mid scales, SDS slightly rising with p but ≤ ~1.06); on Zipf
/// HykSort is ∞ (OOM) everywhere while the SDS variants stay below ~2.7,
/// and the fast and stable variants report (near-)identical RDFA.
pub fn table3(r: &mut Run) -> bool {
    // p ≥ 16 so the Zipf budget regime matches Fig. 8 (see there).
    let ps: Vec<usize> = r
        .scale()
        .pick(vec![16, 32, 64, 128], vec![16, 32, 64, 128, 256]);
    let n_rank = Dataset::Uniform.n_rank(r.scale());
    r.em().meta("n_rank", n_rank);
    // Per block: whether HykSort is ∞ at every p, and the SDS RDFAs
    // (fast, stable) per p.
    let mut block = |name: &str, tag: &str, data: Dataset| {
        let cells = r.sweep(data, &ps);
        r.emit_cells(&cells, &[("workload", tag.into())]);
        println!("\n{name}:");
        let mut table = Table::new(["p", "HykSort", "SDS-Sort", "SDS-Sort/stable"]);
        let mut hyk_inf_everywhere = true;
        let mut sds_rdfa = Vec::new();
        for &p in &ps {
            let (h, s, st) = triple(&cells, p, RunOutcome::rdfa);
            hyk_inf_everywhere &= !h.is_finite();
            sds_rdfa.push((s, st));
            table.row([p.to_string(), fmt_rdfa(h), fmt_rdfa(s), fmt_rdfa(st)]);
        }
        table.print();
        (hyk_inf_everywhere, sds_rdfa)
    };
    let (_, uni) = block("Uniform", "uniform", Dataset::Uniform);
    let (hyk_inf, zipf) = block("Zipf (α = 1.4)", "zipf", Dataset::Zipf);

    // Uniform: the paper reports SDS near 1 and rising mildly with p
    // (1.0025 → 1.0546 at 400 MB/rank). At our scale a stripe between two
    // regular samples is only n_rank/p ≈ 156 records at p = 128, so the
    // drift above 1 is larger and follows the RNG stream (EXPERIMENTS.md
    // tabulates eight seeds; a former `< 1.3` cut was tuned to one). The
    // check is the paper's claim itself: both variants nearer to 1 than to
    // the duplicate-free bound at every p, and no lower at the largest p
    // than at the smallest.
    let near_one = |x: f64| x.is_finite() && x < (1.0 + DISTINCT_KEYS_RDFA_BOUND) / 2.0;
    let (first, last) = (uni[0], uni[uni.len() - 1]);
    let uni_near_one = uni.iter().all(|&(s, st)| near_one(s) && near_one(st))
        && last.0 >= first.0
        && last.1 >= first.1;
    let zipf_bounded = zipf
        .iter()
        .all(|&(s, st)| s.is_finite() && st.is_finite() && s.max(st) <= THEOREM1_RDFA_BOUND);
    r.verdict(
        uni_near_one && hyk_inf && zipf_bounded,
        "Uniform RDFA ≈ 1 for SDS; Zipf RDFA: HykSort = inf, SDS bounded (Theorem 1)",
    )
}

/// Run and record one science dataset at its fixed `p` and print the
/// per-phase breakdown, one row per sorter (a failed sorter's phases print
/// as zero next to its OOM total).
fn science_run(r: &mut Run, data: Dataset, workload: &str, p: usize) -> Cells {
    let cells = r.sweep(data, &[p]);
    r.em().meta("workload", workload);
    let n_rank = data.n_rank(r.scale());
    r.em().meta("n_rank", n_rank);
    r.emit_cells(&cells, &[]);
    let mut table = Table::new([
        "sorter",
        "pivot selection",
        "exchange",
        "local-ordering",
        "other",
        "total",
        "RDFA",
    ]);
    for (_, sorter, outcome) in &cells.0 {
        let ph = outcome.phases;
        table.row([
            sorter.label().to_string(),
            fmt_time(ph.pivot_s),
            fmt_time(ph.exchange_s),
            fmt_time(ph.local_order_s),
            fmt_time(ph.other_s),
            fmt_opt_time(outcome.time_s),
            fmt_rdfa(outcome.rdfa()),
        ]);
    }
    table.print();
    cells
}

/// Fig. 9 — sorting Palomar Transient Factory data (δ ≈ 28 %) on 192
/// ranks, with per-phase breakdown.
///
/// Paper result: HykSort finishes (the 27 GB dataset fits in one node's
/// memory despite RDFA ≈ 33) but is 3.4× slower than SDS-Sort and 2.2×
/// slower than SDS-Sort/stable; the slowdown is concentrated in HykSort's
/// exchange+ordering phase, which one overloaded rank serializes. Note the
/// paper's footnote: HykSort's exchange bar *contains* its local ordering
/// (overlapped), and ours does the same.
pub fn fig9(r: &mut Run) -> bool {
    let n_rank = Dataset::Ptf.n_rank(r.scale());
    println!("records/rank: {n_rank} (f32 score key + u64 object id)\n");
    let cells = science_run(r, Dataset::Ptf, "ptf_scores", PTF_P);
    let (hyk, sds, stb) = triple(&cells, PTF_P, |o| {
        o.time_s.expect("no budget in the PTF experiment")
    });
    println!(
        "\nspeedup over HykSort — SDS-Sort: {:.2}x (paper 3.4x), SDS-Sort/stable: {:.2}x (paper 2.2x)",
        hyk / sds,
        hyk / stb
    );
    let (hyk_rdfa, sds_rdfa, _) = triple(&cells, PTF_P, RunOutcome::rdfa);
    r.verdict(
        hyk / sds > 1.5 && hyk / stb > 1.2 && hyk_rdfa > 5.0 * sds_rdfa,
        "both SDS variants beat HykSort substantially; HykSort's RDFA is an order worse",
    )
}

/// Fig. 10 — sorting cosmology particles by cluster ID (δ ≈ 0.73 %,
/// 24-byte kinematic payload) at high rank counts, with phase breakdown.
///
/// Paper result (2.1 TB, 16K cores): HykSort fails with out-of-memory;
/// SDS-Sort and SDS-Sort/stable finish (15.6 and 7.9 TB/min), with small
/// RDFA (1.3962 for both). The concentration that kills HykSort here is
/// δ·p ≈ 120 shares of a rank's input on one rank; our scaled run keeps
/// δ·p comfortably past the 2.5×-input budget.
pub fn fig10(r: &mut Run) -> bool {
    let n_rank = Dataset::Cosmology.n_rank(r.scale());
    println!("records/rank: {n_rank} (u64 cluster id + 6 f32 payload), budget 2.5x input\n");
    let cells = science_run(r, Dataset::Cosmology, "cosmology_particles", COSMOLOGY_P);
    let (hyk, sds, stb) = triple(&cells, COSMOLOGY_P, |o| o.time_s.is_some());
    let (_, sds_rdfa, stb_rdfa) = triple(&cells, COSMOLOGY_P, RunOutcome::rdfa);
    let rdfa_close = (sds_rdfa - stb_rdfa).abs() < 0.05 && sds_rdfa < 2.0;
    r.verdict(
        !hyk && sds && stb && rdfa_close,
        "HykSort OOMs; both SDS variants finish with small, equal RDFA",
    )
}

/// Table 4 — RDFA on the two science datasets.
///
/// Paper values: PTF — HykSort 32.68, SDS-Sort 1.9908, SDS-Sort/stable
/// 1.6908; Cosmology — HykSort ∞ (OOM), both SDS variants 1.3962.
pub fn table4(r: &mut Run) -> bool {
    let ptf = r.sweep(Dataset::Ptf, &[PTF_P]);
    let cosmo = r.sweep(Dataset::Cosmology, &[COSMOLOGY_P]);
    r.emit_cells(&ptf, &[("dataset", "ptf".into())]);
    r.emit_cells(&cosmo, &[("dataset", "cosmology".into())]);
    let ptf = triple(&ptf, PTF_P, RunOutcome::rdfa);
    let cosmo = triple(&cosmo, COSMOLOGY_P, RunOutcome::rdfa);

    let mut table = Table::new(["dataset", "HykSort", "SDS-Sort", "SDS-Sort/stable"]);
    for (name, (h, s, st)) in [("PTF", ptf), ("Cosmology", cosmo)] {
        table.row([name.to_string(), fmt_rdfa(h), fmt_rdfa(s), fmt_rdfa(st)]);
    }
    table.print();

    let ptf_ok = ptf.0 > 10.0 && ptf.1 < 3.0 && ptf.2 < 3.0;
    let cosmo_ok = cosmo.0.is_infinite() && cosmo.1 < 2.0 && cosmo.2 < 2.0;
    r.verdict(
        ptf_ok && cosmo_ok,
        "PTF: HykSort order-of-magnitude imbalance, SDS small; Cosmology: HykSort inf, SDS ~1.4",
    )
}
