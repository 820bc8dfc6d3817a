//! Low-overhead run telemetry for the SDS-Sort workspace.
//!
//! Three layers:
//!
//! * [`metrics`] — counters and max-gauges, lock-free atomics behind a
//!   name registry.
//! * [`recorder`] — the per-run [`Recorder`] sink: per-rank stacks of
//!   open spans, whose names are the phases; per-phase communication
//!   totals (a send counts under its sender's innermost open span, with
//!   inter-node splits from a rank→node map); the closed spans and point
//!   events as timelines; and compute/comm time ledgers.
//!   Disabled recorders cost one relaxed atomic load per operation, and a
//!   recorder never reads or advances virtual clocks, so simulation
//!   results are bit-identical with telemetry on or off.
//! * [`report`] — [`RunReport`], the canonical-JSON serialization of one
//!   sort run (config, τ decisions, per-phase virtual time, comm totals,
//!   memory high-water marks, loads, RDFA).
//!
//! JSON support is hand-rolled in [`json`] (the workspace builds without
//! serde_json), and it is the workspace's one JSON codec (`xlint`'s report
//! goes through it too); the dialect is standard JSON plus bare
//! `NaN`/`Infinity` tokens so floats round-trip bit-exactly.

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod timeline;

pub use json::{Json, ParseError};
pub use metrics::{Counter, Gauge, Registry};
pub use recorder::{PhaseComm, Recorder, Snapshot, SpanId};
pub use report::{Decisions, MemoryReport, RunReport, WorldMeta, SCHEMA_VERSION};
pub use timeline::{phases_from_spans, EventRecord, PhaseTimes, SpanRecord};

/// RDFA (Relative Deviation From Average): `max(loads) / avg(loads)`, the
/// paper's load-balance metric (Tables 3/4). `1.0` for empty or all-zero
/// distributions (trivially balanced).
pub fn rdfa(loads: &[usize]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let total: usize = loads.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let avg = total as f64 / loads.len() as f64;
    let max = *loads.iter().max().expect("non-empty") as f64;
    max / avg
}

/// RDFA for a failed (OOM) run: ∞, per the paper's convention.
pub fn rdfa_failed() -> f64 {
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdfa_matches_paper_convention() {
        assert_eq!(rdfa(&[]), 1.0);
        assert_eq!(rdfa(&[0, 0]), 1.0);
        assert_eq!(rdfa(&[10, 10, 10, 10]), 1.0);
        assert_eq!(rdfa(&[40, 0, 0, 0]), 4.0);
        assert!(rdfa_failed().is_infinite());
    }
}
