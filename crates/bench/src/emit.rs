//! Structured result emission shared by both binaries.
//!
//! Each experiment records its series through an [`Emitter`] — one named
//! series per sorter/variant, one point per parameter setting — instead of
//! hand-rolling `println!` output. When the process was given
//! `--metrics-out <path>`, `finish` additionally writes the run as
//! canonical JSON: a file named `BENCH_<experiment>.json` when the path is
//! a directory, or the path itself when it ends in `.json`.
//!
//! The JSON shape (schema version [`EXPERIMENT_SCHEMA_VERSION`]):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "kind": "experiment",
//!   "experiment": "fig7",
//!   "meta": { "n_rank": 20000, ... },
//!   "series": [
//!     { "name": "SDS-Sort",
//!       "points": [ { "params": {"p": 8}, "values": {"time_s": 0.81, ...} } ] }
//!   ]
//! }
//! ```

use crate::RunOutcome;
use mpisim::telemetry::Json;
use std::path::{Path, PathBuf};

/// Version of the experiment JSON schema written by [`Emitter::finish`].
pub const EXPERIMENT_SCHEMA_VERSION: u64 = 1;

/// Collects one experiment's series and writes them as canonical JSON.
pub struct Emitter {
    experiment: String,
    meta: Vec<(String, Json)>,
    /// (name, points) in first-recorded order.
    series: Vec<(String, Vec<Json>)>,
    out: Option<PathBuf>,
}

impl Emitter {
    /// An emitter writing to an explicit destination (`None` = print only).
    ///
    /// Every document starts self-describing: `git_rev` and `backend`
    /// meta entries are filled in automatically (`backend` is `sim`, where
    /// every registry experiment runs; `sortcli --serve` overrides it via
    /// [`Emitter::meta`]).
    pub fn with_out(experiment: &str, out: Option<PathBuf>) -> Self {
        let mut em = Self {
            experiment: experiment.to_string(),
            meta: Vec::new(),
            series: Vec::new(),
            out,
        };
        em.meta("git_rev", crate::git_rev());
        em.meta("backend", "sim");
        em
    }

    /// Attach an experiment-level metadata entry (sizes, workload, scale).
    /// Setting an existing key replaces its value.
    pub fn meta(&mut self, key: &str, value: impl Into<Json>) {
        let value = value.into();
        match self.meta.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.meta.push((key.to_string(), value)),
        }
    }

    /// Record one data point of `series`: the parameter setting it was
    /// measured at plus the measured values.
    pub fn point(&mut self, series: &str, params: &[(&str, Json)], values: &[(&str, Json)]) {
        let to_obj = |kv: &[(&str, Json)]| {
            Json::Obj(kv.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
        };
        let point = Json::obj(vec![("params", to_obj(params)), ("values", to_obj(values))]);
        match self.series.iter_mut().find(|(name, _)| name == series) {
            Some((_, points)) => points.push(point),
            None => self.series.push((series.to_string(), vec![point])),
        }
    }

    /// The full experiment document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::from(EXPERIMENT_SCHEMA_VERSION)),
            ("kind", Json::from("experiment")),
            ("experiment", Json::from(self.experiment.clone())),
            ("meta", Json::Obj(self.meta.clone())),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|(name, points)| {
                            Json::obj(vec![
                                ("name", Json::from(name.clone())),
                                ("points", Json::Arr(points.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Write the document if a destination was configured.
    pub fn finish(&self) -> std::io::Result<Option<PathBuf>> {
        let Some(out) = &self.out else {
            return Ok(None);
        };
        write_document(out, &self.experiment, &self.to_json().to_string_pretty()).map(Some)
    }
}

/// A `.json` path is used as-is; anything else is treated as a directory
/// receiving `BENCH_<experiment>.json`.
fn resolve_out(out: &Path, experiment: &str) -> PathBuf {
    if out.extension().is_some_and(|e| e == "json") {
        out.to_path_buf()
    } else {
        out.join(format!("BENCH_{experiment}.json"))
    }
}

/// Write `json` as `experiment`'s document under the `--metrics-out`
/// destination `out` (see `resolve_out`), creating missing directories.
/// Prints the output path so logs record where the metrics went.
pub fn write_document(out: &Path, experiment: &str, json: &str) -> std::io::Result<PathBuf> {
    let path = resolve_out(out, experiment);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&path, format!("{json}\n"))?;
    println!("metrics: wrote {}", path.display());
    Ok(path)
}

/// The standard value set recorded for one [`RunOutcome`] — shared so
/// every experiment reports the same keys.
pub fn outcome_values(o: &RunOutcome) -> Vec<(&'static str, Json)> {
    vec![
        ("time_s", Json::from(o.time_s)),
        ("rdfa", Json::from(o.rdfa())),
        ("pivot_s", Json::from(o.phases.pivot_s)),
        ("exchange_s", Json::from(o.phases.exchange_s)),
        ("local_order_s", Json::from(o.phases.local_order_s)),
        ("other_s", Json::from(o.phases.other_s)),
        ("recv_count_max", Json::from(o.phases.recv_count as u64)),
        ("node_merged", Json::from(o.phases.node_merged)),
        ("overlapped", Json::from(o.phases.overlapped)),
        ("messages", Json::from(o.messages)),
        ("bytes", Json::from(o.bytes)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_shape_and_roundtrip() {
        let mut em = Emitter::with_out("figX", None);
        em.meta("n_rank", 1000u64);
        em.point(
            "SDS-Sort",
            &[("p", Json::from(8u64))],
            &[("time_s", Json::from(0.5))],
        );
        em.point(
            "SDS-Sort",
            &[("p", Json::from(16u64))],
            &[("time_s", Json::from(0.75))],
        );
        em.point(
            "HykSort",
            &[("p", Json::from(8u64))],
            &[("time_s", Json::Null)],
        );
        let doc = em.to_json();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("experiment"));
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("figX"));
        let series = doc.get("series").and_then(Json::as_arr).expect("series");
        assert_eq!(series.len(), 2);
        assert_eq!(
            series[0]
                .get("points")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        let reparsed = Json::parse(&doc.to_string_pretty()).expect("canonical JSON parses");
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn documents_are_self_describing() {
        let mut em = Emitter::with_out("figY", None);
        let doc = em.to_json();
        let meta = doc.get("meta").expect("meta object");
        let rev = meta.get("git_rev").and_then(Json::as_str).expect("git_rev");
        assert!(!rev.is_empty());
        assert!(meta.get("backend").and_then(Json::as_str).is_some());
        // Overriding replaces rather than duplicating the key.
        em.meta("backend", "threads");
        let meta = em.to_json();
        let meta = meta.get("meta").expect("meta object");
        assert_eq!(meta.get("backend").and_then(Json::as_str), Some("threads"));
        assert_eq!(em.meta.iter().filter(|(k, _)| k == "backend").count(), 1);
    }

    #[test]
    fn out_path_resolution() {
        assert_eq!(
            resolve_out(Path::new("out/metrics"), "fig7"),
            PathBuf::from("out/metrics/BENCH_fig7.json")
        );
        assert_eq!(
            resolve_out(Path::new("run.json"), "fig7"),
            PathBuf::from("run.json")
        );
    }
}
