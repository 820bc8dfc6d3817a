//! The compute model: what a unit of local work costs, in seconds. A
//! sorter prices each compute section through
//! [`Communicator::compute_with`](crate::Communicator::compute_with); the
//! simulator charges that price from [`ComputeModel::nominal`], the real
//! backends time the work instead.

/// Per-record compute costs, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Comparison-sort cost: seconds per `record · log2(n)` unit.
    pub sort_per_key_log: f64,
    /// Sequential merge cost: seconds per record per merge pass.
    pub merge_per_key: f64,
    /// Linear scan/copy cost: seconds per record.
    pub scan_per_key: f64,
    /// Stable-sort slowdown over the unstable sort (Table 1 measures
    /// ~1.4–2× for `std::stable_sort` vs `std::sort`).
    pub stable_factor: f64,
}

impl ComputeModel {
    /// The model the simulator charges: typical modern-CPU constants
    /// (≈100M keys/s·log for sorting, ≈400M keys/s merging).
    pub fn nominal() -> Self {
        Self {
            sort_per_key_log: 1.0e-8,
            merge_per_key: 2.5e-9,
            scan_per_key: 1.0e-9,
            stable_factor: 1.5,
        }
    }

    /// Modelled cost of comparison-sorting `n` records, stable or not.
    pub fn sort_cost_with(&self, n: usize, stable: bool) -> f64 {
        let base = self.sort_cost(n);
        if stable {
            base * self.stable_factor
        } else {
            base
        }
    }

    /// Modelled cost of comparison-sorting `n` records.
    pub fn sort_cost(&self, n: usize) -> f64 {
        if n < 2 {
            return 0.0;
        }
        self.sort_per_key_log * n as f64 * (n as f64).log2()
    }

    /// Modelled cost of merging `n` total records from `k` sorted chunks.
    pub fn kway_merge_cost(&self, n: usize, k: usize) -> f64 {
        if n == 0 || k < 2 {
            return self.scan_per_key * n as f64;
        }
        self.merge_per_key * n as f64 * (k as f64).log2().max(1.0)
    }

    /// Modelled cost of linearly scanning or copying `n` records.
    pub fn scan_cost(&self, n: usize) -> f64 {
        self.scan_per_key * n as f64
    }

    /// Modelled cost of sorting `n` records that consist of `k` presorted
    /// runs: adaptive sorts approach `O(n log k)` on such inputs (paper
    /// §2.7's argument for re-sorting partially ordered data).
    pub fn adaptive_sort_cost(&self, n: usize, k: usize) -> f64 {
        self.kway_merge_cost(n, k.max(2)) * 1.15 + self.scan_cost(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_model_costs_monotone() {
        let m = ComputeModel::nominal();
        assert!(m.sort_cost(1000) < m.sort_cost(10_000));
        assert!(m.kway_merge_cost(1000, 2) < m.kway_merge_cost(1000, 64));
        assert_eq!(m.sort_cost(1), 0.0);
    }
}
