//! Sort statistics: phase breakdown and the RDFA load-balance metric.
//!
//! The paper reports two observables per run: a per-phase time breakdown
//! (pivot selection / exchange / local ordering / other — Figs. 9 and 10)
//! and **RDFA**, the Relative Deviation of the largest partition From the
//! Average (`max(mᵢ)/avg(mᵢ)`, Tables 3 and 4). A sorter that crashes with
//! OOM is reported as RDFA = ∞.

/// Per-rank timing breakdown of one sort (virtual seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SortStats {
    /// Initial local sort + sampling + pivot selection + partition: the
    /// sum of the next four fields (accumulated step by step beside them,
    /// so equal to their sum up to rounding).
    pub pivot_s: f64,
    /// The initial local sort (Fig. 1 step 1).
    pub local_sort_s: f64,
    /// Local sampling before splitter selection (SDS's regular samples);
    /// 0 for a sorter that samples inside its selection.
    pub sample_s: f64,
    /// Splitter selection (step 3).
    pub select_s: f64,
    /// Cutting the local data at the splitters (step 4).
    pub partition_s: f64,
    /// All-to-all exchange (including count exchange and waiting).
    pub exchange_s: f64,
    /// Final local ordering (merge or sort).
    pub local_order_s: f64,
    /// Everything else (allocation, bookkeeping, node merge decision).
    pub other_s: f64,
    /// Records held by this rank after the exchange (`mᵢ` in the paper).
    pub recv_count: usize,
    /// Records this rank started with.
    pub input_count: usize,
    /// Whether node-level merging ran before the exchange.
    pub node_merged: bool,
    /// Whether exchange and local ordering were overlapped.
    pub overlapped: bool,
    /// Whether this rank degraded to spilling received chunks to disk
    /// under memory pressure (resilient driver only).
    pub spilled: bool,
    /// Records routed through the on-disk spill path on this rank.
    pub spill_records: usize,
}

impl SortStats {
    /// Total time across phases.
    pub fn total_s(&self) -> f64 {
        self.pivot_s + self.exchange_s + self.local_order_s + self.other_s
    }
}

/// RDFA over per-rank loads: `max(m) / avg(m)`. Returns ∞ when any load is
/// unknown (modelled OOM) — the paper's convention — and 1.0 for an empty
/// or all-zero distribution (perfectly balanced trivially).
///
/// The computation lives in the `telemetry` crate (it is also derived
/// inside [`telemetry::RunReport`]); this re-export keeps the historical
/// `sdssort::stats::rdfa` path working.
pub use telemetry::{rdfa, rdfa_failed};

/// Combine per-rank [`SortStats`] into the per-phase *maxima* (the
/// critical-path view the paper's stacked bars approximate).
pub fn phase_maxima(all: &[SortStats]) -> SortStats {
    let mut out = SortStats::default();
    for s in all {
        out.pivot_s = out.pivot_s.max(s.pivot_s);
        out.local_sort_s = out.local_sort_s.max(s.local_sort_s);
        out.sample_s = out.sample_s.max(s.sample_s);
        out.select_s = out.select_s.max(s.select_s);
        out.partition_s = out.partition_s.max(s.partition_s);
        out.exchange_s = out.exchange_s.max(s.exchange_s);
        out.local_order_s = out.local_order_s.max(s.local_order_s);
        out.other_s = out.other_s.max(s.other_s);
        out.recv_count = out.recv_count.max(s.recv_count);
        out.input_count = out.input_count.max(s.input_count);
        out.node_merged |= s.node_merged;
        out.overlapped |= s.overlapped;
        out.spilled |= s.spilled;
        out.spill_records = out.spill_records.max(s.spill_records);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdfa_uniform_is_one() {
        assert_eq!(rdfa(&[10, 10, 10, 10]), 1.0);
    }

    #[test]
    fn rdfa_skewed() {
        // one rank holds everything: max/avg = 4
        assert_eq!(rdfa(&[40, 0, 0, 0]), 4.0);
        let r = rdfa(&[30, 10, 10, 10]);
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rdfa_degenerate_cases() {
        assert_eq!(rdfa(&[]), 1.0);
        assert_eq!(rdfa(&[0, 0]), 1.0);
        assert!(rdfa_failed().is_infinite());
    }

    #[test]
    fn totals_and_maxima() {
        let a = SortStats {
            pivot_s: 1.0,
            exchange_s: 2.0,
            local_order_s: 3.0,
            ..Default::default()
        };
        let b = SortStats {
            pivot_s: 4.0,
            exchange_s: 1.0,
            other_s: 0.5,
            ..Default::default()
        };
        assert!((a.total_s() - 6.0).abs() < 1e-12);
        let m = phase_maxima(&[a, b]);
        assert_eq!(m.pivot_s, 4.0);
        assert_eq!(m.exchange_s, 2.0);
        assert_eq!(m.local_order_s, 3.0);
        assert_eq!(m.other_s, 0.5);
    }
}
