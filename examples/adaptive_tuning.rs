//! Exploring SDS-Sort's adaptive knobs (τm, τo, τs) — a miniature of the
//! paper's §4.1.1 parameter study.
//!
//! SDS-Sort decides three things at runtime: whether to merge each node's
//! data before the exchange (τm), whether to overlap the exchange with
//! local ordering (τo), and whether to merge or re-sort in the final
//! ordering step (τs). The right settings depend on the machine; this
//! example forces each knob both ways on the same workload and prints the
//! modelled times side by side, so you can see which regime your
//! configuration is in.
//!
//! Run with: `cargo run --release --example adaptive_tuning`

use mpisim::{Communicator, World};
use sdssort::{sds_sort, ComputeModel, SdsConfig};
use workloads::uniform_u64;

fn run(p: usize, n_rank: usize, tweak: impl Fn(&mut SdsConfig)) -> f64 {
    let mut cfg = SdsConfig::modeled(ComputeModel::calibrate());
    cfg.tau_m_bytes = 0;
    cfg.tau_o = 0;
    cfg.tau_s = usize::MAX;
    tweak(&mut cfg);
    let world = World::new(p).cores_per_node(8).compute_scale(0.0);
    world
        .run(|comm| {
            let data = uniform_u64(n_rank, 1, comm.rank());
            sds_sort(comm, data, &cfg).expect("sort failed");
        })
        .makespan
}

fn main() {
    let p = 32;
    let n_rank = 30_000;
    println!("adaptive-knob study: p = {p}, {n_rank} u64/rank (modelled times)\n");

    println!("τm — node-level merging before the exchange:");
    let t_merge = run(p, n_rank, |c| c.tau_m_bytes = usize::MAX);
    let t_direct = run(p, n_rank, |c| c.tau_m_bytes = 0);
    println!("  merge at node : {:>10.1} us", t_merge * 1e6);
    println!("  direct        : {:>10.1} us", t_direct * 1e6);
    println!(
        "  → {} wins at this message size (paper: merge wins below 160 MB/node on Edison)\n",
        if t_merge < t_direct {
            "merging"
        } else {
            "direct"
        }
    );

    println!("τo — overlap exchange with local ordering:");
    let t_overlap = run(p, n_rank, |c| c.tau_o = usize::MAX);
    let t_sync = run(p, n_rank, |c| c.tau_o = 0);
    println!("  overlapped    : {:>10.1} us", t_overlap * 1e6);
    println!("  synchronous   : {:>10.1} us", t_sync * 1e6);
    println!(
        "  → {} wins at p = {p} (paper: overlap wins below ~4096 ranks on Edison)\n",
        if t_overlap < t_sync {
            "overlap"
        } else {
            "synchronous"
        }
    );

    println!("τs — final local ordering by merge vs re-sort:");
    let t_kway = run(p, n_rank, |c| c.tau_s = usize::MAX);
    let t_resort = run(p, n_rank, |c| c.tau_s = 0);
    println!("  k-way merge   : {:>10.1} us", t_kway * 1e6);
    println!("  adaptive sort : {:>10.1} us", t_resort * 1e6);
    println!(
        "  → {} wins with {p} chunks (paper: merge wins below ~4000 chunks on Edison)\n",
        if t_kway < t_resort {
            "merging"
        } else {
            "sorting"
        }
    );
}
