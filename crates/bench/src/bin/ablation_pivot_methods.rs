//! Ablation — pivot-selection machinery.
//!
//! §2.4 argues for a distributed (bitonic) sort of the pooled samples over
//! gathering them on one rank. This harness times both paths on the same
//! sample sets across p, verifies they produce identical pivots, and shows
//! where the gather path's O(p²) root bottleneck overtakes the distributed
//! sort's log-round exchanges.

use bench::{by_scale, fmt_time, header, model, verdict, Table};
use mpisim::{Communicator, World};
use sdssort::pivots::{select_global_pivots, PivotMethod};
use sdssort::sampling::regular_sample;
use workloads::uniform_u64;

fn time_method(p: usize, method: PivotMethod) -> (f64, Vec<u64>) {
    let m = model();
    let _ = m;
    let world = World::new(p).cores_per_node(24).compute_scale(0.0);
    let report = world.run(|comm| {
        let mut data = uniform_u64(4096, 0xAB2, comm.rank());
        data.sort_unstable();
        let samples = regular_sample(&data, p - 1);
        comm.barrier();
        let t0 = comm.clock().now();
        let pivots = select_global_pivots(comm, &samples, method);
        (comm.clock().now() - t0, pivots)
    });
    let t = report.results.iter().map(|r| r.0).fold(0.0f64, f64::max);
    let pivots = report.results.into_iter().next().expect("non-empty").1;
    (t, pivots)
}

fn main() {
    header(
        "Ablation — distributed vs gather-based global pivot selection",
        "§2.4: avoid gathering p(p-1) samples on one rank at large p",
    );
    let ps: Vec<usize> = by_scale(vec![8, 16, 32, 64, 128], vec![8, 16, 32, 64, 128, 256]);
    let mut table = Table::new([
        "p",
        "samples pooled",
        "distributed",
        "gather",
        "identical pivots",
    ]);
    let mut agree_everywhere = true;
    let mut dist_wins_large = false;
    for &p in &ps {
        let (t_dist, piv_dist) = time_method(p, PivotMethod::Distributed);
        let (t_gath, piv_gath) = time_method(p, PivotMethod::Gather);
        let same = piv_dist == piv_gath;
        agree_everywhere &= same;
        if p == *ps.last().expect("non-empty") {
            dist_wins_large = t_dist < t_gath;
        }
        table.row([
            p.to_string(),
            (p * (p - 1)).to_string(),
            fmt_time(t_dist),
            fmt_time(t_gath),
            same.to_string(),
        ]);
    }
    table.print();
    verdict(
        agree_everywhere && dist_wins_large,
        "methods agree exactly; the distributed sorter wins at the largest p",
    );
}
