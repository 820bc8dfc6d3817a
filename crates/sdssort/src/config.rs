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

pub use comm::ComputeModel;

/// Changes nothing: compute is charged through `Communicator::compute_with`.
/// Read by nothing in the workspace; ROADMAP item 4b deletes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComputeCharge {
    /// Time each compute section.
    Measured,
    /// Charge modelled durations from a [`ComputeModel`].
    Modeled(ComputeModel),
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
    /// Changes nothing. Read by nothing in the workspace; ROADMAP item 4b deletes it.
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

    /// The default configuration. Read by nothing in the workspace; ROADMAP item 4b deletes it.
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
}
