//! Distributed validation of sort results.
//!
//! Production users of a distributed sort want to *check* the result
//! without gathering everything on one rank. These collectives verify, in
//! `O(n/p)` work and `O(p)` communication per rank:
//!
//! * [`is_globally_sorted`] — local sortedness plus cross-rank boundary
//!   order (tolerating empty ranks);
//! * [`is_permutation_of`] — the output multiset equals the input multiset,
//!   via an order-insensitive content checksum reduced across ranks
//!   (probabilistic: collisions are ~2⁻⁶⁴ per independent check);
//! * [`load_stats`] — per-rank load distribution and RDFA.

use crate::record::Sortable;
use crate::stats::rdfa;
use comm::Communicator;

/// True iff the concatenation of all ranks' `data` (in rank order) is
/// sorted by key. Collective: every rank returns the same answer.
pub fn is_globally_sorted<T: Sortable, C: Communicator>(comm: &C, data: &[T]) -> bool {
    let sp = comm.span_begin("validate", comm.now());
    let locally = data.windows(2).all(|w| w[0].key() <= w[1].key());
    // Exchange boundary keys: every rank publishes (has_data, min, max).
    let snapshot = (
        !data.is_empty(),
        data.first().map(Sortable::key),
        data.last().map(Sortable::key),
    );
    let all = comm.allgather(std::slice::from_ref(&snapshot));
    let mut boundaries_ok = true;
    let mut last_max: Option<T::Key> = None;
    for &(has, min, max) in &all {
        if !has {
            continue;
        }
        if let (Some(prev), Some(min)) = (last_max, min) {
            if prev > min {
                boundaries_ok = false;
            }
        }
        last_max = max;
    }
    let all_local = comm.allreduce(locally as u8, |a, b| a.min(b)) == 1;
    comm.span_end(sp, comm.now());
    all_local && boundaries_ok
}

/// Order-insensitive 128-bit content checksum of a record set. Uses a
/// commutative combination (sum and xor of per-record mixes), so any
/// permutation of the same multiset produces the same value.
pub fn content_checksum<T: Sortable, H: Fn(&T) -> u64>(data: &[T], hash: H) -> (u64, u64) {
    let mut sum = 0u64;
    let mut xor = 0u64;
    for r in data {
        let h = mix(hash(r));
        sum = sum.wrapping_add(h);
        xor ^= h.rotate_left((h % 63) as u32);
    }
    (sum, xor)
}

fn mix(x: u64) -> u64 {
    // splitmix64 finalizer
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// True iff the global multiset of `output` equals that of `input`
/// (probabilistically, via reduced content checksums and an exact count).
/// `hash` must map a record to a value capturing everything that matters
/// (typically key and payload bits). Collective.
pub fn is_permutation_of<T: Sortable, H: Fn(&T) -> u64, C: Communicator>(
    comm: &C,
    input: &[T],
    output: &[T],
    hash: H,
) -> bool {
    let sp = comm.span_begin("validate", comm.now());
    let in_ck = content_checksum(input, &hash);
    let out_ck = content_checksum(output, &hash);
    let contribution = (
        input.len() as u64,
        output.len() as u64,
        in_ck.0,
        in_ck.1,
        out_ck.0,
        out_ck.1,
    );
    let total = comm.allreduce(contribution, |a, b| {
        (
            a.0 + b.0,
            a.1 + b.1,
            a.2.wrapping_add(b.2),
            a.3 ^ b.3,
            a.4.wrapping_add(b.4),
            a.5 ^ b.5,
        )
    });
    let ok = total.0 == total.1 && total.2 == total.4 && total.3 == total.5;
    comm.span_end(sp, comm.now());
    ok
}

/// Global load distribution: every rank returns `(loads, rdfa)` where
/// `loads[r]` is rank r's record count. Collective.
pub fn load_stats<C: Communicator>(comm: &C, local_count: usize) -> (Vec<usize>, f64) {
    let loads = comm.allgather(std::slice::from_ref(&local_count));
    let r = rdfa(&loads);
    (loads, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{NetModel, World};

    fn world(p: usize) -> World {
        World::new(p).cores_per_node(4).net(NetModel::zero())
    }

    #[test]
    fn detects_global_order() {
        let report = world(4).run(|comm| {
            let r = comm.rank() as u64;
            let good: Vec<u64> = (r * 10..r * 10 + 5).collect();
            let sorted = is_globally_sorted(comm, &good);
            // overlapping boundary: rank r reaches into rank r+1's range
            let bad: Vec<u64> = (r * 10 + 7..r * 10 + 19).collect();
            let unsorted = is_globally_sorted(comm, &bad);
            (sorted, unsorted)
        });
        for (good, bad) in report.results {
            assert!(good);
            assert!(!bad, "overlapping rank ranges must be detected");
        }
    }

    #[test]
    fn detects_local_disorder() {
        let report = world(3).run(|comm| {
            let data: Vec<u64> = if comm.rank() == 1 {
                vec![5, 3]
            } else {
                vec![1, 2]
            };
            is_globally_sorted(comm, &data)
        });
        assert!(report.results.iter().all(|&ok| !ok));
    }

    #[test]
    fn tolerates_empty_ranks() {
        let report = world(4).run(|comm| {
            let data: Vec<u64> = if comm.rank() == 2 {
                vec![1, 2, 3]
            } else {
                vec![]
            };
            is_globally_sorted(comm, &data)
        });
        assert!(report.results.iter().all(|&ok| ok));
    }

    #[test]
    fn permutation_check_accepts_redistribution() {
        let report = world(4).run(|comm| {
            let r = comm.rank() as u64;
            let input: Vec<u64> = (0..100).map(|i| i * 4 + r).collect();
            // "output": the same global multiset, redistributed — emulate
            // by rotating ownership one rank over.
            let rr = ((comm.rank() + 1) % 4) as u64;
            let output: Vec<u64> = (0..100).map(|i| i * 4 + rr).collect();
            is_permutation_of(comm, &input, &output, |&x| x)
        });
        assert!(report.results.iter().all(|&ok| ok));
    }

    #[test]
    fn permutation_check_rejects_mutation() {
        let report = world(4).run(|comm| {
            let input: Vec<u64> = (0..50).collect();
            let mut output = input.clone();
            if comm.rank() == 3 {
                output[10] = 999; // corrupt one record on one rank
            }
            is_permutation_of(comm, &input, &output, |&x| x)
        });
        assert!(report.results.iter().all(|&ok| !ok));
    }

    #[test]
    fn permutation_check_rejects_duplication() {
        // Same sum tricks must not fool it: duplicate one record, drop
        // another with the same key sum.
        let report = world(2).run(|comm| {
            let input: Vec<u64> = vec![1, 3];
            let output: Vec<u64> = vec![2, 2];
            is_permutation_of(comm, &input, &output, |&x| x)
        });
        assert!(report.results.iter().all(|&ok| !ok));
    }

    #[test]
    fn load_stats_reports_rdfa() {
        let report = world(4).run(|comm| load_stats(comm, (comm.rank() + 1) * 10));
        for (loads, r) in report.results {
            assert_eq!(loads, vec![10, 20, 30, 40]);
            assert!((r - 40.0 / 25.0).abs() < 1e-12);
        }
    }
}
