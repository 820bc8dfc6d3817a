//! Configuration of the SDS-Sort driver.
//!
//! The paper exposes three empirically tuned thresholds (§2.1, §4.1.1):
//!
//! * `τm` — merge per-node data before the exchange when the average
//!   message size `n/p` is below this (paper: 160 MB on Edison);
//! * `τo` — overlap exchange and local ordering when the process count is
//!   below this (paper: 4096 on Edison);
//! * `τs` — use k-way merging for final local ordering when the process
//!   count is below this, otherwise re-sort the partially ordered buffer
//!   (paper: 4000 on Edison).
//!
//! Defaults here are scaled to the simulated machine; every harness that
//! reproduces a figure sweeps the relevant threshold explicitly.

use comm::Communicator;

/// How compute time is charged to the virtual clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComputeCharge {
    /// Measure wall-clock time of each compute section (accurate when the
    /// host is not oversubscribed).
    Measured,
    /// Charge analytically modelled durations from a [`ComputeModel`]
    /// (robust for scaling studies with thousands of simulated ranks).
    Modeled(ComputeModel),
}

impl ComputeCharge {
    /// Run `f` on `comm`'s timeline, charging either its measured duration
    /// or the model cost returned from `cost`.
    pub fn charged<R, C: Communicator>(
        self,
        comm: &C,
        cost: impl FnOnce(&ComputeModel) -> f64,
        f: impl FnOnce() -> R,
    ) -> R {
        match self {
            ComputeCharge::Measured => comm.compute(f),
            ComputeCharge::Modeled(m) => {
                let r = f();
                comm.charge_compute(cost(&m));
                r
            }
        }
    }
}

/// Calibrated per-record compute costs, in seconds.
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
    /// A model with typical modern-CPU constants (≈100M keys/s·log for
    /// sorting, ≈400M keys/s merging). Use [`calibrate`](Self::calibrate)
    /// for host-specific constants.
    pub fn nominal() -> Self {
        Self {
            sort_per_key_log: 1.0e-8,
            merge_per_key: 2.5e-9,
            scan_per_key: 1.0e-9,
            stable_factor: 1.5,
        }
    }

    /// Measure the host's sort and merge throughput once and derive model
    /// constants. Deterministic input, ~10 ms of work.
    pub fn calibrate() -> Self {
        use std::time::Instant;
        let n = 1 << 19;
        let mut data: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let t0 = Instant::now();
        data.sort_unstable();
        let sort_secs = t0.elapsed().as_secs_f64();
        let log_n = (n as f64).log2();
        let sort_per_key_log = (sort_secs / (n as f64 * log_n)).max(1e-11);

        // The even- and odd-indexed keys: two runs that interleave, with no
        // key in common, so the kernel merges every record (the two halves
        // of `data` would be two block copies).
        let a: Vec<u64> = data.iter().step_by(2).copied().collect();
        let b: Vec<u64> = data.iter().skip(1).step_by(2).copied().collect();
        // The two-way kernel the product runs, into storage that is already
        // resident: `merge_per_key` is a cost per merge *pass*, and whether
        // a fresh output faults in page by page is the allocator's regime
        // (it moved this constant by 2.7 ns/key), not the kernel's speed.
        let mut merged = data.clone();
        let t1 = Instant::now();
        crate::merge::kway_merge_into(&[&a, &b], &mut merged);
        let merge_secs = t1.elapsed().as_secs_f64();
        std::hint::black_box(&merged);
        let merge_per_key = (merge_secs / n as f64).max(1e-12);

        // Stable-sort premium: time the stable sort on the same input.
        let mut data2: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let t2 = Instant::now();
        data2.sort();
        let stable_secs = t2.elapsed().as_secs_f64();
        std::hint::black_box(&data2);
        let stable_factor = (stable_secs / sort_secs).clamp(1.0, 4.0);

        Self {
            sort_per_key_log,
            merge_per_key,
            scan_per_key: merge_per_key * 0.5,
            stable_factor,
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

/// Which partitioning rule assigns records to destination ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// The paper's skew-aware partition (replicated-pivot splitting).
    #[default]
    SkewAware,
    /// Classic `upper_bound` partition — ablation switch isolating the
    /// skew-aware contribution (all duplicates of a pivot value land on
    /// one rank; incompatible with `stable`).
    Classic,
}

/// Which kernel `SdssLocalSort` uses to sort each thread's chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalKernel {
    /// Decide per call, from a fixed-stride sample of at most 1 024 keys
    /// ([`crate::radix::GateSample`]): LSD radix when the key has a
    /// monotone `u64` embedding, `n ≥` [`crate::radix::RADIX_MIN_N`], and
    /// either the keys span few enough bits for one counting pass
    /// ([`crate::radix::counts_in_one_pass`], checked on the sample, then
    /// on the whole input), or the sampled keys occupy at most
    /// [`crate::radix::RADIX_MAX_AUTO_DIGITS`] digit bytes
    /// ([`crate::radix::RADIX_MAX_AUTO_DIGITS_VS_VECTOR`] for plain `u64`
    /// keys where [`crate::vsort`] runs) and none of them
    /// holds an eighth of the sample ([`crate::radix::RADIX_MAX_AUTO_DUP`])
    /// — three quarters when the sort is stable
    /// ([`crate::radix::RADIX_MAX_AUTO_DUP_STABLE`]); comparison sort
    /// otherwise.
    #[default]
    Auto,
    /// Force the LSD radix kernel (falls back to comparison when the key
    /// has no monotone `u64` embedding).
    Radix,
    /// Force the comparison kernel: [`crate::vsort`]'s AVX-512 quicksort
    /// for plain `u64` keys where the CPU has it, `slice::sort_unstable_by_key`
    /// / `sort_by_key` otherwise.
    Comparison,
}

/// How global pivots are obtained (§2.4 weighs these two options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PivotSource {
    /// Regular (equal-striped) sampling + distributed sort of the pooled
    /// samples — the paper's choice; robust to duplicates by construction.
    #[default]
    Sampling,
    /// Iterative histogram refinement (HykSort's machinery). §2.4 notes it
    /// "might need secondary sorting keys" on skewed data — but only when
    /// paired with a duplicate-blind partition; SDS-Sort's skew-aware
    /// partition makes it safe (see the `ablation_pivot_source` harness).
    Histogram,
}

/// Full configuration for one SDS-Sort invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdsConfig {
    /// Preserve input order of equal keys (`sf` in the paper).
    pub stable: bool,
    /// Node-merging threshold `τm`, in *bytes* of average per-destination
    /// message (`n/p · record size`). Merge node-locally below this.
    pub tau_m_bytes: usize,
    /// Overlap threshold `τo`: overlap exchange and local ordering when
    /// `p < tau_o` (and the sort is not stable).
    pub tau_o: usize,
    /// Local-ordering threshold `τs`: k-way merge when `p < tau_s`, re-sort
    /// otherwise.
    pub tau_s: usize,
    /// Threads used by the shared-memory local sort (`c` in
    /// `SdssLocalSort`). Keep at 1 inside simulated worlds (each rank is
    /// already a thread); raise it for standalone shared-memory use.
    pub local_threads: usize,
    /// Local-sort kernel selection (see [`LocalKernel`]).
    pub local_kernel: LocalKernel,
    /// How compute is charged to virtual clocks.
    pub charge: ComputeCharge,
    /// Partitioning rule (ablation switch; default skew-aware).
    pub partition: PartitionStrategy,
    /// Global pivot source (ablation switch; default regular sampling).
    pub pivot_source: PivotSource,
    /// Oversampling factor `s ≥ 1`: each rank contributes `s·(p-1)` local
    /// pivots instead of `p-1`. The paper uses `s = 1` (regular sampling);
    /// larger `s` tightens the per-pivot bracketing from `2N/p²` to
    /// `2N/(s·p²)` and hence the workload bound from `4N/p` toward
    /// `(2 + 2/s)·N/p`, at the cost of `s×` more pivot-selection traffic.
    pub oversample: usize,
}

impl Default for SdsConfig {
    fn default() -> Self {
        Self {
            stable: false,
            // Paper: 160 MB on Edison. Scaled to the simulated machine's
            // smaller per-rank volumes; harnesses sweep this.
            tau_m_bytes: 160 << 20,
            tau_o: 4096,
            tau_s: 4000,
            local_threads: 1,
            local_kernel: LocalKernel::Auto,
            charge: ComputeCharge::Measured,
            partition: PartitionStrategy::SkewAware,
            pivot_source: PivotSource::Sampling,
            oversample: 1,
        }
    }
}

impl SdsConfig {
    /// Configuration for the stable variant ("SDS-Sort/stable").
    pub fn stable() -> Self {
        Self {
            stable: true,
            ..Self::default()
        }
    }

    /// Configuration charging modelled compute (for scaling studies).
    pub fn modeled(model: ComputeModel) -> Self {
        Self {
            charge: ComputeCharge::Modeled(model),
            ..Self::default()
        }
    }

    /// Whether to overlap exchange with local ordering (paper line 15,
    /// inverted: overlap unless stable or `p > τo`).
    pub fn should_overlap(&self, p: usize) -> bool {
        !self.stable && p < self.tau_o
    }

    /// Whether final local ordering uses k-way merging (paper line 17).
    pub fn should_merge_local(&self, p: usize) -> bool {
        p < self.tau_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_thresholds() {
        let c = SdsConfig::default();
        assert_eq!(c.tau_m_bytes, 160 << 20);
        assert_eq!(c.tau_o, 4096);
        assert_eq!(c.tau_s, 4000);
        assert!(!c.stable);
    }

    #[test]
    fn stable_disables_overlap() {
        let c = SdsConfig::stable();
        assert!(!c.should_overlap(2));
        let f = SdsConfig::default();
        assert!(f.should_overlap(2));
        assert!(!f.should_overlap(1 << 20));
    }

    #[test]
    fn local_ordering_choice() {
        let c = SdsConfig::default();
        assert!(c.should_merge_local(8));
        assert!(!c.should_merge_local(5000));
    }

    #[test]
    fn compute_model_costs_monotone() {
        let m = ComputeModel::nominal();
        assert!(m.sort_cost(1000) < m.sort_cost(10_000));
        assert!(m.kway_merge_cost(1000, 2) < m.kway_merge_cost(1000, 64));
        assert_eq!(m.sort_cost(1), 0.0);
    }

    #[test]
    fn calibrate_produces_sane_constants() {
        let m = ComputeModel::calibrate();
        assert!(m.sort_per_key_log > 0.0 && m.sort_per_key_log < 1e-6);
        assert!(m.merge_per_key > 0.0 && m.merge_per_key < 1e-6);
    }
}
