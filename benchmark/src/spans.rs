//! In-memory spans for the staged replay: recorded around each call into a
//! layer, kept until the run ends, written once as a Chrome-trace file.

use std::collections::BTreeMap;
use telemetry::Json;

/// One timed call into a layer on one rank. `parent` indexes the same
/// rank's log; `(trial, rep)` identifies the sort the span belongs to (the
/// trial and the workload are constant per log and added when written).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// One rank's spans, in opening order.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl SpanLog {
    /// Attribute the spans opened from now on to repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span at time `now` under the innermost open span.
    pub fn open(&mut self, name: &str, now: f64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) at time `now`.
    pub fn close(&mut self, id: usize, now: f64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = now;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed before export");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children count once, so an overlapped exchange excludes the
/// merges nested inside it and nothing is subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start.max(spans[p].start);
            let hi = s.end.min(spans[p].end);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Layer times of one trial, keyed by `(rep, span name)`: per rank the
/// summed self time of the spans of that name in that repetition, then the
/// maximum over ranks (the rank the others wait for).
pub fn layer_times<'a>(ranks: &[&'a [Span]]) -> BTreeMap<(u32, &'a str), f64> {
    let mut worst: BTreeMap<(u32, &str), f64> = BTreeMap::new();
    for spans in ranks {
        let mut mine: BTreeMap<(u32, &str), f64> = BTreeMap::new();
        for (s, t) in spans.iter().zip(self_times(spans)) {
            *mine.entry((s.rep, s.name.as_str())).or_default() += t;
        }
        for (key, t) in mine {
            let w = worst.entry(key).or_default();
            *w = w.max(t);
        }
    }
    worst
}

/// Compact transport form of a log: `[[name, start, end, parent, rep], ..]`
/// (`parent` is −1 for a root).
pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.clone()),
                    Json::F64(s.start),
                    Json::F64(s.end),
                    Json::I64(s.parent.map_or(-1, |p| p as i64)),
                    Json::U64(u64::from(s.rep)),
                ])
            })
            .collect(),
    )
}

pub fn spans_from_json(j: &Json) -> Option<Vec<Span>> {
    j.as_arr()?
        .iter()
        .map(|row| {
            let row = row.as_arr()?;
            Some(Span {
                name: row.first()?.as_str()?.to_owned(),
                start: row.get(1)?.as_f64()?,
                end: row.get(2)?.as_f64()?,
                parent: usize::try_from(row.get(3)?.as_i64()?).ok(),
                rep: u32::try_from(row.get(4)?.as_u64()?).ok()?,
            })
        })
        .collect()
}

/// Chrome-trace (`chrome://tracing`, Perfetto) events for one trial: one
/// complete event per span, `pid` = trial, `tid` = rank, times in µs.
pub fn chrome_events(workload: &str, trial: u32, ranks: &[&[Span]]) -> Vec<Json> {
    let mut events = Vec::new();
    for (rank, spans) in ranks.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            events.push(Json::obj(vec![
                ("name", Json::Str(s.name.clone())),
                ("cat", "sdsbench".into()),
                ("ph", "X".into()),
                ("ts", Json::F64(s.start * 1e6)),
                ("dur", Json::F64((s.end - s.start) * 1e6)),
                ("pid", Json::U64(u64::from(trial))),
                ("tid", Json::U64(rank as u64)),
                (
                    "args",
                    Json::obj(vec![
                        ("workload", workload.into()),
                        ("trial", Json::U64(u64::from(trial))),
                        ("rep", Json::U64(u64::from(s.rep))),
                        ("rank", Json::U64(rank as u64)),
                        ("id", Json::U64(id as u64)),
                        ("parent", Json::I64(s.parent.map_or(-1, |p| p as i64))),
                    ]),
                ),
            ]));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start,
            end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // total [0,10] ⊃ exchange [2,9] ⊃ merge [3,4], merge [6,8]
        let spans = vec![
            span("total", 0.0, 10.0, None),
            span("exchange", 2.0, 9.0, Some(0)),
            span("merge", 3.0, 4.0, Some(1)),
            span("merge", 6.0, 8.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![3.0, 4.0, 1.0, 2.0]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(st.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_parent() {
        // children [1,5] and [3,7] overlap on [3,5]; [9,12] sticks out past
        // the parent's end at 10; [20,21] lies outside it entirely.
        let spans = vec![
            span("parent", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 3.0, 7.0, Some(0)),
            span("c", 9.0, 12.0, Some(0)),
            span("d", 20.0, 21.0, Some(0)),
        ];
        // covered = [1,7] ∪ [9,10] = 7
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn layer_time_is_max_over_ranks_of_summed_self_time() {
        let r0 = vec![
            span("x", 0.0, 4.0, None),
            span("merge", 1.0, 2.0, Some(0)),
            span("merge", 2.5, 3.0, Some(0)),
        ];
        let r1 = vec![span("x", 0.0, 5.0, None), span("merge", 1.0, 1.25, Some(0))];
        let times = layer_times(&[&r0, &r1]);
        assert_eq!(times[&(0, "merge")], 1.5);
        assert_eq!(times[&(0, "x")], 4.75);
        assert_eq!(times.get(&(1, "x")), None);
    }

    #[test]
    fn log_tracks_parents_and_round_trips() {
        let mut log = SpanLog::default();
        log.set_rep(3);
        let a = log.open("a", 0.0);
        let b = log.open("b", 1.0);
        log.close(b, 2.0);
        log.close(a, 5.0);
        let c = log.open("c", 6.0);
        log.close(c, 7.0);
        let spans = log.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[0].rep, 3);
        let back =
            spans_from_json(&Json::parse(&spans_to_json(&spans).to_string_compact()).unwrap());
        assert_eq!(back, Some(spans));
    }
}
