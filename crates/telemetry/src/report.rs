//! `RunReport`: one sort run serialized to canonical JSON — configuration,
//! τ decisions, per-phase virtual times, communication totals, memory
//! high-water marks, loads, and RDFA — plus the full recorder snapshot.
//!
//! The schema is versioned; `from_json` refuses documents with a newer
//! major schema than it understands.

use crate::json::Json;
use crate::recorder::Snapshot;
use crate::timeline::{phases_from_spans, PhaseTimes};

pub const SCHEMA_VERSION: u64 = 1;

/// World shape the run executed on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorldMeta {
    pub ranks: usize,
    pub cores_per_node: usize,
    pub nodes: usize,
}

impl WorldMeta {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("ranks", Json::from(self.ranks)),
            ("cores_per_node", Json::from(self.cores_per_node)),
            ("nodes", Json::from(self.nodes)),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            ranks: v.get("ranks")?.as_u64()? as usize,
            cores_per_node: v.get("cores_per_node")?.as_u64()? as usize,
            nodes: v.get("nodes")?.as_u64()? as usize,
        })
    }
}

/// The algorithm's dynamic skew-handling decisions for this run: the τ
/// thresholds in force and which adaptations actually triggered.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Decisions {
    pub tau_m_bytes: u64,
    pub tau_o: u64,
    pub tau_s: u64,
    pub stable: bool,
    pub node_merged: bool,
    pub overlapped: bool,
}

impl Decisions {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tau_m_bytes", Json::from(self.tau_m_bytes)),
            ("tau_o", Json::from(self.tau_o)),
            ("tau_s", Json::from(self.tau_s)),
            ("stable", Json::from(self.stable)),
            ("node_merged", Json::from(self.node_merged)),
            ("overlapped", Json::from(self.overlapped)),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            tau_m_bytes: v.get("tau_m_bytes")?.as_u64()?,
            tau_o: v.get("tau_o")?.as_u64()?,
            tau_s: v.get("tau_s")?.as_u64()?,
            stable: v.get("stable")?.as_bool()?,
            node_merged: v.get("node_merged")?.as_bool()?,
            overlapped: v.get("overlapped")?.as_bool()?,
        })
    }
}

/// Memory accounting for the run (bytes; budget `None` = unlimited).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MemoryReport {
    pub budget: Option<u64>,
    pub max_high_water: u64,
    pub per_rank_high_water: Vec<u64>,
}

impl MemoryReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("budget", Json::from(self.budget)),
            ("max_high_water", Json::from(self.max_high_water)),
            (
                "per_rank_high_water",
                Json::from(self.per_rank_high_water.clone()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        let budget = match v.get("budget")? {
            Json::Null => None,
            other => Some(other.as_u64()?),
        };
        Some(Self {
            budget,
            max_high_water: v.get("max_high_water")?.as_u64()?,
            per_rank_high_water: v
                .get("per_rank_high_water")?
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// Everything observed about one sort run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    pub experiment: String,
    /// Free-form configuration echo (key order is preserved).
    pub config: Vec<(String, Json)>,
    pub world: WorldMeta,
    pub decisions: Decisions,
    /// Per-phase virtual times, derived from the recorder's spans.
    pub phases: Vec<PhaseTimes>,
    pub memory: MemoryReport,
    /// Records per rank after the exchange (`mᵢ` in the paper).
    pub loads: Vec<u64>,
    pub rdfa: f64,
    /// Virtual-time makespan (max final clock over ranks), seconds.
    pub makespan_v: f64,
    /// Host wall-clock spent simulating, seconds.
    pub wall_s: f64,
    /// Full recorder state: per-phase comm, spans, events, metrics.
    pub telemetry: Snapshot,
}

impl RunReport {
    /// Assemble the derived fields (`phases`, `rdfa`) from a snapshot.
    pub fn from_snapshot(experiment: &str, telemetry: Snapshot, loads: Vec<u64>) -> Self {
        let ranks = telemetry.node_of.len();
        let phases = phases_from_spans(&telemetry.spans, ranks);
        let loads_usize: Vec<usize> = loads.iter().map(|&l| l as usize).collect();
        Self {
            experiment: experiment.to_string(),
            phases,
            rdfa: crate::rdfa(&loads_usize),
            loads,
            telemetry,
            ..Self::default()
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("kind", Json::from("run")),
            ("experiment", Json::from(self.experiment.clone())),
            (
                "config",
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ),
            ("world", self.world.to_json()),
            ("decisions", self.decisions.to_json()),
            (
                "phases",
                Json::Arr(self.phases.iter().map(PhaseTimes::to_json).collect()),
            ),
            (
                "comm",
                Json::obj(vec![
                    ("messages", Json::from(self.telemetry.total_messages())),
                    ("bytes", Json::from(self.telemetry.total_bytes())),
                    (
                        "internode_messages",
                        Json::from(self.telemetry.total_internode_messages()),
                    ),
                ]),
            ),
            ("memory", self.memory.to_json()),
            ("loads", Json::from(self.loads.clone())),
            ("rdfa", Json::from(self.rdfa)),
            ("makespan_v", Json::from(self.makespan_v)),
            ("wall_s", Json::from(self.wall_s)),
            ("telemetry", self.telemetry.to_json()),
        ])
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version > SCHEMA_VERSION {
            return Err(format!(
                "report schema {version} is newer than supported {SCHEMA_VERSION}"
            ));
        }
        if v.get("kind").and_then(Json::as_str) != Some("run") {
            return Err("not a run report (kind != \"run\")".to_string());
        }
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field {k:?}"));
        let report = Self {
            experiment: field("experiment")?
                .as_str()
                .ok_or("experiment must be a string")?
                .to_string(),
            config: field("config")?
                .as_obj()
                .ok_or("config must be an object")?
                .to_vec(),
            world: WorldMeta::from_json(field("world")?).ok_or("bad world")?,
            decisions: Decisions::from_json(field("decisions")?).ok_or("bad decisions")?,
            phases: field("phases")?
                .as_arr()
                .ok_or("phases must be an array")?
                .iter()
                .map(PhaseTimes::from_json)
                .collect::<Option<Vec<_>>>()
                .ok_or("bad phase entry")?,
            memory: MemoryReport::from_json(field("memory")?).ok_or("bad memory")?,
            loads: field("loads")?
                .as_arr()
                .ok_or("loads must be an array")?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()
                .ok_or("bad load entry")?,
            rdfa: field("rdfa")?.as_f64().ok_or("rdfa must be a number")?,
            makespan_v: field("makespan_v")?
                .as_f64()
                .ok_or("makespan_v must be a number")?,
            wall_s: field("wall_s")?.as_f64().ok_or("wall_s must be a number")?,
            telemetry: Snapshot::from_json(field("telemetry")?).ok_or("bad telemetry")?,
        };
        Ok(report)
    }

    pub fn from_json_str(s: &str) -> Result<Self, String> {
        let v = Json::parse(s).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample_report() -> RunReport {
        let rec = Recorder::new(vec![0, 0, 1, 1], true);
        rec.set_phase(0, "pivot");
        rec.on_send(0, 1, 10);
        rec.on_send(0, 2, 30);
        rec.set_phase(3, "exchange");
        rec.on_send(3, 0, 100);
        rec.count("coll.alltoallv", 1);
        let s0 = rec.span_begin(0, "pivot", 0.0);
        rec.span_end(s0, 1.5);
        let s1 = rec.span_begin(0, "exchange", 1.5);
        rec.span_end(s1, 2.0);
        rec.event(3, "tau", "node-merge off", 0.5);
        let mut report = RunReport::from_snapshot("unit", rec.snapshot(), vec![10, 20, 30, 40]);
        report.config = vec![
            ("workload".to_string(), Json::from("zipf:1.1")),
            ("records".to_string(), Json::from(1000u64)),
        ];
        report.world = WorldMeta {
            ranks: 4,
            cores_per_node: 2,
            nodes: 2,
        };
        report.decisions = Decisions {
            tau_m_bytes: 160 << 20,
            tau_o: 4096,
            tau_s: 4000,
            stable: false,
            node_merged: false,
            overlapped: true,
        };
        report.memory = MemoryReport {
            budget: Some(1 << 30),
            max_high_water: 4096,
            per_rank_high_water: vec![4096, 1024, 512, 2048],
        };
        report.makespan_v = 2.0;
        report.wall_s = 0.01;
        report
    }

    #[test]
    fn report_roundtrips_losslessly() {
        let report = sample_report();
        let text = report.to_json_string();
        let parsed = RunReport::from_json_str(&text).expect("parse");
        assert_eq!(parsed, report);
        // Canonical: re-serialization is byte-identical.
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn derived_fields_match_inputs() {
        let report = sample_report();
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].name, "pivot");
        assert_eq!(report.phases[0].per_rank_v[0], 1.5);
        assert!((report.rdfa - 1.6).abs() < 1e-12);
        assert_eq!(report.telemetry.total_messages(), 3);
        assert_eq!(report.telemetry.total_bytes(), 140);
        // 0→2 and 3→0 cross nodes under the block map {0,0,1,1}.
        assert_eq!(report.telemetry.total_internode_messages(), 2);
    }

    #[test]
    fn rejects_future_schema_and_wrong_kind() {
        let mut json = sample_report().to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs[0].1 = Json::from(SCHEMA_VERSION + 1);
        }
        assert!(RunReport::from_json(&json).is_err());
        let not_run = Json::obj(vec![
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("kind", Json::from("experiment")),
        ]);
        assert!(RunReport::from_json(&not_run).is_err());
    }
}
