//! Per-rank timelines: named spans (virtual-time intervals) and point
//! events. Spans are keyed by phase name so a run's driver phases
//! (pivot-select, exchange, node-merge, local-order, validate) appear as
//! one interval per rank per entry.

use crate::json::Json;

/// A closed virtual-time interval on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub rank: usize,
    pub name: String,
    pub start_v: f64,
    pub end_v: f64,
}

impl SpanRecord {
    pub fn duration_v(&self) -> f64 {
        self.end_v - self.start_v
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rank", Json::from(self.rank)),
            ("name", Json::from(self.name.clone())),
            ("start_v", Json::from(self.start_v)),
            ("end_v", Json::from(self.end_v)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            rank: v.get("rank")?.as_u64()? as usize,
            name: v.get("name")?.as_str()?.to_string(),
            start_v: v.get("start_v")?.as_f64()?,
            end_v: v.get("end_v")?.as_f64()?,
        })
    }
}

/// A point event on one rank (OOM, τ decision, retry, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    pub rank: usize,
    pub name: String,
    pub detail: String,
    pub v_time: f64,
}

impl EventRecord {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rank", Json::from(self.rank)),
            ("name", Json::from(self.name.clone())),
            ("detail", Json::from(self.detail.clone())),
            ("v_time", Json::from(self.v_time)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            rank: v.get("rank")?.as_u64()? as usize,
            name: v.get("name")?.as_str()?.to_string(),
            detail: v.get("detail")?.as_str()?.to_string(),
            v_time: v.get("v_time")?.as_f64()?,
        })
    }
}

/// Aggregate per-phase virtual times derived from spans: for each span
/// name (in first-appearance order), the per-rank total duration.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTimes {
    pub name: String,
    pub per_rank_v: Vec<f64>,
}

impl PhaseTimes {
    pub fn v_max(&self) -> f64 {
        self.per_rank_v.iter().copied().fold(0.0, f64::max)
    }

    pub fn v_sum(&self) -> f64 {
        self.per_rank_v.iter().sum()
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name.clone())),
            ("v_max", Json::from(self.v_max())),
            ("v_sum", Json::from(self.v_sum())),
            ("per_rank_v", Json::from(self.per_rank_v.clone())),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            name: v.get("name")?.as_str()?.to_string(),
            per_rank_v: v
                .get("per_rank_v")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// Fold spans into per-phase per-rank totals. `ranks` sizes the vectors;
/// phase order is first appearance in `spans`.
pub fn phases_from_spans(spans: &[SpanRecord], ranks: usize) -> Vec<PhaseTimes> {
    let mut order: Vec<String> = Vec::new();
    let mut phases: Vec<PhaseTimes> = Vec::new();
    for s in spans {
        let idx = match order.iter().position(|n| n == &s.name) {
            Some(i) => i,
            None => {
                order.push(s.name.clone());
                phases.push(PhaseTimes {
                    name: s.name.clone(),
                    per_rank_v: vec![0.0; ranks],
                });
                order.len() - 1
            }
        };
        if s.rank < ranks {
            phases[idx].per_rank_v[s.rank] += s.duration_v();
        }
    }
    phases
}

/// The spans as a Chrome-trace document (the JSON Object Format that
/// `chrome://tracing` and Perfetto load): one complete (`"X"`) event per
/// span, `tid` its rank, timestamps and durations in µs. `clock` names the
/// axis, `"virtual"` for the simulator and `"wall"` for a real backend,
/// and goes in the document's `otherData`: the two never share an axis.
/// Nested spans (a `refine-round` inside `pivot-select`) nest by time.
pub fn chrome_trace(spans: &[SpanRecord], clock: &str) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::from(s.name.clone())),
                ("ph", Json::from("X")),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(s.rank)),
                ("ts", Json::from(s.start_v * 1e6)),
                ("dur", Json::from(s.duration_v() * 1e6)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
        ("otherData", Json::obj(vec![("clock", Json::from(clock))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: usize, name: &str, a: f64, b: f64) -> SpanRecord {
        SpanRecord {
            rank,
            name: name.to_string(),
            start_v: a,
            end_v: b,
        }
    }

    #[test]
    fn folds_spans_by_phase_and_rank() {
        let spans = vec![
            span(0, "pivot", 0.0, 1.0),
            span(1, "pivot", 0.0, 2.0),
            span(0, "exchange", 1.0, 4.0),
            span(0, "pivot", 5.0, 5.5), // second interval accumulates
        ];
        let phases = phases_from_spans(&spans, 2);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "pivot");
        assert_eq!(phases[0].per_rank_v, vec![1.5, 2.0]);
        assert_eq!(phases[0].v_max(), 2.0);
        assert_eq!(phases[1].name, "exchange");
        assert_eq!(phases[1].per_rank_v, vec![3.0, 0.0]);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![
            span(0, "pivot-select", 0.5, 2.0),
            span(0, "refine-round", 1.0, 1.5),
            span(1, "exchange", 2.0, 2.25),
        ];
        let doc = Json::parse(&chrome_trace(&spans, "virtual").to_string_compact()).unwrap();
        assert_eq!(
            doc.get("otherData").and_then(|d| d.get("clock")),
            Some(&Json::from("virtual"))
        );
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), spans.len());
        for (e, s) in events.iter().zip(&spans) {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(e.get("name").and_then(Json::as_str), Some(s.name.as_str()));
            assert_eq!(e.get("tid").and_then(Json::as_u64), Some(s.rank as u64));
            assert_eq!(e.get("ts").and_then(Json::as_f64), Some(s.start_v * 1e6));
            assert_eq!(
                e.get("dur").and_then(Json::as_f64),
                Some(s.duration_v() * 1e6)
            );
        }
    }

    #[test]
    fn records_roundtrip_json() {
        let s = span(3, "local-order", 1.25, 2.5);
        assert_eq!(SpanRecord::from_json(&s.to_json()).unwrap(), s);
        let e = EventRecord {
            rank: 1,
            name: "oom".to_string(),
            detail: "requested 4096".to_string(),
            v_time: 0.125,
        };
        assert_eq!(EventRecord::from_json(&e.to_json()).unwrap(), e);
        let p = PhaseTimes {
            name: "x".to_string(),
            per_rank_v: vec![0.5, 0.25],
        };
        assert_eq!(PhaseTimes::from_json(&p.to_json()).unwrap(), p);
    }
}
