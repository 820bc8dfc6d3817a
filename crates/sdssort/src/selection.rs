//! Distributed order statistics: the k-th smallest key.
//!
//! Iterative candidate refinement (the selection analog of histogram
//! splitter refinement, whose exact fallback in `algos::hss` this is):
//! each round, ranks nominate candidate keys from their active windows,
//! one reduction per bound computes every candidate's global rank
//! interval, and windows shrink geometrically. Duplicates are handled
//! exactly — the k-th statistic is well defined even when the key space is
//! 99 % one value.

use crate::partition::rank_interval;
use crate::record::Sortable;
use crate::search::{lower_bound, upper_bound};
use comm::Communicator;

/// Find the key of the `k`-th smallest record globally (`k` is 0-based;
/// `k = 0` is the minimum). `data` must be sorted locally. Collective:
/// every rank returns the same key.
///
/// # Panics
/// Panics if `k >=` total record count (checked collectively).
pub fn kth_smallest_key<T: Sortable, C: Communicator>(comm: &C, data: &[T], k: u64) -> T::Key {
    debug_assert!(crate::merge::is_sorted_by_key(data));
    let total = comm.allreduce(data.len() as u64, |a, b| a + b);
    assert!(k < total, "k = {k} out of range (N = {total})");

    // Active window per rank.
    let mut lo = 0usize;
    let mut hi = data.len();
    loop {
        // Nominate up to 3 candidates per rank from the window.
        let mut mine: Vec<T::Key> = Vec::with_capacity(3);
        if lo < hi {
            mine.push(data[lo].key());
            mine.push(data[(lo + hi) / 2].key());
            mine.push(data[hi - 1].key());
        }
        let (mut candidates, _) = comm.allgatherv(&mine);
        candidates.sort_unstable();
        candidates.dedup();
        debug_assert!(
            !candidates.is_empty(),
            "windows globally non-empty until found"
        );

        // Global rank of each candidate: how many records are < c, and how
        // many are <= c.
        let local: Vec<[usize; 2]> = candidates.iter().map(|&c| rank_interval(data, c)).collect();
        let [g_below, g_upto] = [0, 1].map(|bound| {
            let mine: Vec<u64> = local.iter().map(|iv| iv[bound] as u64).collect();
            comm.allreduce(mine, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect())
        });

        // If some candidate's [below, upto) straddles k, it IS the answer.
        for (i, &c) in candidates.iter().enumerate() {
            if g_below[i] <= k && k < g_upto[i] {
                return c;
            }
        }
        // Otherwise narrow the window: keep keys strictly between the
        // tightest candidates bracketing k.
        let mut lower: Option<T::Key> = None; // largest candidate with upto <= k
        let mut upper: Option<T::Key> = None; // smallest candidate with below > k
        for (i, &c) in candidates.iter().enumerate() {
            if g_upto[i] <= k {
                lower = Some(c);
            }
            if upper.is_none() && g_below[i] > k {
                upper = Some(c);
            }
        }
        if let Some(l) = lower {
            lo = lo.max(upper_bound(data, l));
        }
        if let Some(u) = upper {
            hi = hi.min(lower_bound(data, u));
        }
        if lo > hi {
            hi = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{NetModel, World};
    use rand::prelude::*;

    fn world(p: usize) -> World {
        World::new(p).cores_per_node(4).net(NetModel::zero())
    }

    fn sorted_data(n: usize, max: u64, seed: u64, rank: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed ^ (rank as u64) << 20);
        let mut v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..max)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn kth_matches_sequential_reference() {
        let p = 5;
        for k in [0u64, 1, 100, 2499, 2500, 4999] {
            let report = world(p).run(move |comm| {
                let data = sorted_data(1000, 500, 7, comm.rank());
                (data.clone(), kth_smallest_key(comm, &data, k))
            });
            let mut all: Vec<u64> = report.results.iter().flat_map(|(d, _)| d.clone()).collect();
            all.sort_unstable();
            for (_, got) in &report.results {
                assert_eq!(*got, all[k as usize], "k={k}");
            }
        }
    }

    #[test]
    fn kth_on_heavy_duplicates() {
        let p = 4;
        let report = world(p).run(|comm| {
            // 90% value 7, the rest 3 and 11
            let mut data = vec![7u64; 900];
            data.extend(vec![3u64; 50]);
            data.extend(vec![11u64; 50]);
            data.sort_unstable();
            (
                kth_smallest_key(comm, &data, 0),
                kth_smallest_key(comm, &data, 500),
                kth_smallest_key(comm, &data, 3999),
            )
        });
        for (min, mid, max) in report.results {
            assert_eq!(min, 3);
            assert_eq!(mid, 7);
            assert_eq!(max, 11);
        }
    }

    #[test]
    fn kth_with_empty_ranks() {
        let p = 4;
        let report = world(p).run(|comm| {
            let data: Vec<u64> = if comm.rank() == 2 {
                (0..100).collect()
            } else {
                Vec::new()
            };
            kth_smallest_key(comm, &data, 42)
        });
        for k in report.results {
            assert_eq!(k, 42);
        }
    }
}
