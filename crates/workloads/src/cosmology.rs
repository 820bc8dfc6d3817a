//! Synthetic cosmology particles (BD-CATS-style clustering output).
//!
//! The paper's second science dataset is a 2.1 TB GADGET-2 snapshot of 68
//! billion particles, sorted by the *cluster ID* assigned by BD-CATS, with
//! position and velocity payload (x, y, z, vx, vy, vz) and δ = 0.73 %
//! (Fig. 10, Table 4). Substitution: cluster populations in N-body
//! clustering follow a steep power law (many tiny halos, few huge ones);
//! we reuse the Zipf machinery calibrated so the largest cluster holds
//! 0.73 % of particles, hash the Zipf index into a scattered 64-bit
//! cluster ID (cluster IDs are not value-ordered in BD-CATS output), and
//! attach the 24-byte kinematic payload. Key skew and payload weight are
//! the two properties the evaluation exercises.

use crate::zipf::{with_shared, Table, ZipfGen};
use rand::prelude::*;
use sdssort::Record;

/// Largest-cluster share published for the paper's snapshot, in percent.
pub const COSMOLOGY_DELTA_PCT: f64 = 0.73;

/// Kinematic payload: position and velocity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Kinematics {
    /// Position (x, y, z).
    pub pos: [f32; 3],
    /// Velocity (vx, vy, vz).
    pub vel: [f32; 3],
}

/// Field-wise wire encoding (safe element loop: this crate forbids
/// `unsafe`), so `Particle` exchanges work on the sockets backend too.
impl comm::Wire for Kinematics {
    fn put(&self, out: &mut Vec<u8>) {
        self.pos.put(out);
        self.vel.put(out);
    }
    fn get(src: &mut &[u8]) -> Option<Self> {
        Some(Self {
            pos: comm::Wire::get(src)?,
            vel: comm::Wire::get(src)?,
        })
    }
}

/// A particle record: cluster-ID key + kinematics payload.
pub type Particle = Record<u64, Kinematics>;

/// Splittable 64-bit hash (splitmix64 finalizer) — scatters cluster IDs.
fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate `n` particles for `rank` with the published cluster-size skew.
pub fn cosmology_particles(n: usize, seed: u64, rank: usize) -> Vec<Particle> {
    // α = 0.6 keeps the solved universe small (~25k clusters) while the
    // head cluster holds δ = 0.73 % of particles.
    with_shared(Table::Delta(0.6, COSMOLOGY_DELTA_PCT), |gen| {
        particles_with_gen(gen, n, seed, rank)
    })
}

/// Generator variant with an explicit cluster-size distribution.
pub fn particles_with_gen(gen: &ZipfGen, n: usize, seed: u64, rank: usize) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(seed ^ ((rank as u64) << 20) ^ 0xC05);
    (0..n)
        .map(|_| {
            let cluster = scramble(gen.sample(&mut rng));
            let payload = Kinematics {
                pos: [
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                ],
                vel: [
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ],
            };
            Record::new(cluster, payload)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication_ratio_pct;
    use sdssort::Sortable;

    #[test]
    fn delta_matches_published_value() {
        let parts = cosmology_particles(300_000, 13, 0);
        let delta = replication_ratio_pct(parts.iter().map(|p| p.key()));
        assert!(
            (delta - COSMOLOGY_DELTA_PCT).abs() / COSMOLOGY_DELTA_PCT < 0.3,
            "δ {delta:.3}% should be ≈ {COSMOLOGY_DELTA_PCT}%"
        );
    }

    #[test]
    fn record_is_32_bytes() {
        // u64 key + 6×f32 payload: the paper's heavy-record shape.
        assert_eq!(std::mem::size_of::<Particle>(), 32);
    }

    #[test]
    fn cluster_ids_scattered() {
        // scramble must not preserve the small-integer ordering of the
        // Zipf index — the popular cluster should be a big random id.
        let parts = cosmology_particles(50_000, 3, 1);
        let min = parts.iter().map(|p| p.key).min().unwrap();
        let max = parts.iter().map(|p| p.key).max().unwrap();
        assert!(max > 1 << 60, "ids should span the 64-bit space");
        assert!(min < max);
    }

    #[test]
    fn deterministic_per_rank() {
        let a = cosmology_particles(100, 3, 0);
        let b = cosmology_particles(100, 3, 0);
        assert_eq!(
            a.iter().map(|p| p.key).collect::<Vec<_>>(),
            b.iter().map(|p| p.key).collect::<Vec<_>>()
        );
        let c = cosmology_particles(100, 3, 1);
        assert_ne!(
            a.iter().map(|p| p.key).collect::<Vec<_>>(),
            c.iter().map(|p| p.key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn positions_in_box() {
        let parts = cosmology_particles(5000, 8, 2);
        for p in &parts {
            for c in p.payload.pos {
                assert!((0.0..100.0).contains(&c));
            }
            for v in p.payload.vel {
                assert!((-1.0..1.0).contains(&v));
            }
        }
    }
}
