//! Partitioning-kernel baselines for Fig. 6b.
//!
//! Fig. 6b compares the time to compute send displacements for `p-1`
//! pivots over sorted local data with three methods:
//!
//! * **Sequential scan** — one linear pass over all `n` records
//!   ([`full_scan_cuts`]), the traditional `O(n)` approach;
//! * **HykSort-style** — a direct binary search over the whole array per
//!   pivot, `O(p log n)` ([`sdssort::partition::classic_cuts`]);
//! * **local-pivot** — SDS-Sort's two-level search, `O(p log p + p log(n/p))`
//!   (see [`sdssort::search::LocalPivotIndex`]).
//!
//! All three produce identical cut vectors (asserted by tests).

use sdssort::record::Sortable;

/// Cut positions by a single linear scan: walk the sorted data once,
/// advancing the pivot cursor as values pass each pivot.
pub fn full_scan_cuts<T: Sortable>(data: &[T], pivots: &[T::Key]) -> Vec<usize> {
    let p = pivots.len() + 1;
    let mut cuts = Vec::with_capacity(p + 1);
    cuts.push(0usize);
    let mut pi = 0usize;
    for (i, r) in data.iter().enumerate() {
        while pi < pivots.len() && r.key() > pivots[pi] {
            cuts.push(i);
            pi += 1;
        }
        if pi == pivots.len() {
            break;
        }
    }
    while cuts.len() < p {
        cuts.push(data.len());
    }
    cuts.push(data.len());
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use sdssort::partition::classic_cuts;

    #[test]
    fn scan_matches_binary_cuts() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..30 {
            let n = rng.gen_range(0..500);
            let mut data: Vec<u32> = (0..n).map(|_| rng.gen_range(0..60)).collect();
            data.sort_unstable();
            let np = rng.gen_range(1..10);
            let mut pivots: Vec<u32> = (0..np).map(|_| rng.gen_range(0..60)).collect();
            pivots.sort_unstable();
            assert_eq!(
                full_scan_cuts(&data, &pivots),
                classic_cuts(&data, &pivots),
                "n={n} pivots={pivots:?}"
            );
        }
    }

    #[test]
    fn scan_handles_all_data_below_first_pivot() {
        let data = [1u32, 2, 3];
        assert_eq!(full_scan_cuts(&data, &[10, 20]), vec![0, 3, 3, 3]);
    }

    #[test]
    fn scan_handles_all_data_above_last_pivot() {
        let data = [11u32, 12, 13];
        assert_eq!(full_scan_cuts(&data, &[5, 10]), vec![0, 0, 0, 3]);
    }

    #[test]
    fn scan_empty_data() {
        let data: Vec<u32> = Vec::new();
        assert_eq!(full_scan_cuts(&data, &[5]), vec![0, 0, 0]);
    }
}
