//! BD-CATS-style cosmology post-processing (the paper's second science
//! use case).
//!
//! The BD-CATS clustering pipeline labels every simulation particle with
//! a cluster ID, then sorts the particles by that ID so each cluster's
//! members are contiguous — turning per-cluster analytics into linear
//! scans. Cluster populations follow a steep power law (δ ≈ 0.73 % of all
//! particles share the largest cluster), which is precisely the skew that
//! defeats duplicate-blind sorters. This example sorts particles by
//! cluster ID with SDS-Sort and computes per-cluster aggregates from the
//! contiguous layout.
//!
//! Run with: `cargo run --release --example cosmology_clustering`

use mpisim::{Communicator, World};
use sdssort::{sds_sort, SdsConfig};
use workloads::{cosmology_particles, Particle};

fn main() {
    let ranks = 16;
    let per_rank = 40_000;
    println!("cosmology clustering: {ranks} ranks x {per_rank} particles, sort by cluster ID\n");

    let world = World::new(ranks).cores_per_node(8);
    let report = world.run(|comm| {
        let particles: Vec<Particle> = cosmology_particles(per_rank, 99, comm.rank());
        let out = sds_sort(comm, particles, &SdsConfig::default()).expect("sort failed");

        // With cluster members contiguous, per-cluster aggregation is one
        // linear scan — the locality benefit the paper's intro motivates.
        let mut clusters = 0usize;
        let mut largest: (u64, usize) = (0, 0);
        let mut i = 0;
        while i < out.data.len() {
            let id = out.data[i].key;
            let mut j = i;
            let mut v = [0.0f64; 3];
            while j < out.data.len() && out.data[j].key == id {
                for (axis, vel) in v.iter_mut().zip(out.data[j].payload.vel) {
                    *axis += vel as f64;
                }
                j += 1;
            }
            let size = j - i;
            // NOTE: clusters spanning a rank boundary are counted on both
            // sides; a real pipeline would stitch boundary clusters with
            // one neighbour exchange.
            if size > largest.1 {
                largest = (id, size);
            }
            clusters += 1;
            i = j;
        }
        (out.data.len(), clusters, largest)
    });

    let total: usize = report.results.iter().map(|r| r.0).sum();
    assert_eq!(total, ranks * per_rank);
    let (big_id, big_size) = report
        .results
        .iter()
        .map(|r| r.2)
        .max_by_key(|&(_, s)| s)
        .expect("non-empty");
    println!("particles sorted:     {total}");
    println!(
        "clusters seen:        {} (rank-local segments)",
        report.results.iter().map(|r| r.1).sum::<usize>()
    );
    println!(
        "largest cluster:      id {big_id:#018x} with {big_size} particles ({:.2}% of all — paper δ: 0.73%)",
        big_size as f64 / total as f64 * 100.0
    );
    println!("modelled sort time:   {:.2} ms", report.makespan * 1e3);
    println!(
        "peak reserved:        {} on any rank",
        bytes(report.memory.max_high_water as usize)
    );
}

fn bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1} KiB", b as f64 / 1024.0)
    }
}
