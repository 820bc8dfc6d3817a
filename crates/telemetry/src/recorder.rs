//! Per-run recorder: the single sink every instrumented component writes
//! to. A `Recorder` is a *pure observer* — it never reads or advances
//! virtual clocks, so simulation results are identical with recording on
//! or off. It is also the only traffic observer: every transport's send
//! path calls [`Recorder::on_send`] once, and a send is counted under the
//! innermost span its sender has open: a span *is* a phase. The two
//! whole-run totals ([`Recorder::messages`], [`Recorder::bytes`]) are
//! always counted; phases, spans, events, metrics and ledgers cost one
//! atomic load when disabled.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::metrics::Registry;
use crate::timeline::{EventRecord, SpanRecord};

/// Handle for an open span: its rank and its depth in that rank's stack.
/// Obtained from [`Recorder::span_begin`]; harmless to end when recording
/// is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    rank: usize,
    depth: usize,
}

impl SpanId {
    const DISABLED: SpanId = SpanId {
        rank: usize::MAX,
        depth: usize::MAX,
    };
}

/// Per-phase communication totals, with inter-node splits computed from
/// the recorder's rank→node map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseComm {
    pub name: String,
    pub messages: u64,
    pub bytes: u64,
    pub internode_messages: u64,
    pub internode_bytes: u64,
}

impl PhaseComm {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name.clone())),
            ("messages", Json::from(self.messages)),
            ("bytes", Json::from(self.bytes)),
            ("internode_messages", Json::from(self.internode_messages)),
            ("internode_bytes", Json::from(self.internode_bytes)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            name: v.get("name")?.as_str()?.to_string(),
            messages: v.get("messages")?.as_u64()?,
            bytes: v.get("bytes")?.as_u64()?,
            internode_messages: v.get("internode_messages")?.as_u64()?,
            internode_bytes: v.get("internode_bytes")?.as_u64()?,
        })
    }
}

struct OpenSpan {
    name: String,
    /// Index into `Inner::phases` of the phase named `name`.
    phase: usize,
    start_v: f64,
}

#[derive(Default)]
struct Inner {
    /// In first-opened order. `phases[0]` is the unnamed phase of a rank
    /// with no span open; a snapshot leaves it out while it is empty.
    phases: Vec<PhaseComm>,
    /// `open[rank]` is the rank's stack of open spans, innermost last. A
    /// send is attributed to the innermost span open on its *sender*, so
    /// the per-phase table is a function of the program, not of which rank
    /// reached a phase boundary first.
    open: Vec<Vec<OpenSpan>>,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
}

pub struct Recorder {
    enabled: AtomicBool,
    node_of: Vec<usize>,
    // Whole-run wire totals, counted whether or not recording is enabled:
    // the world reports' `messages` / `bytes`.
    messages: AtomicU64,
    bytes: AtomicU64,
    registry: Registry,
    // Per-rank accumulated seconds, stored as f64 bits. Each rank only
    // writes its own slot, so a load+store pair per update is race-free.
    compute_v: Vec<AtomicU64>,
    comm_v: Vec<AtomicU64>,
    inner: Mutex<Inner>,
}

fn f64_slot_add(slot: &AtomicU64, dv: f64) {
    let cur = f64::from_bits(slot.load(Ordering::SeqCst));
    slot.store((cur + dv).to_bits(), Ordering::SeqCst);
}

impl Recorder {
    /// `node_of[rank]` gives the node hosting each rank (used to classify
    /// inter-node traffic); its length is the world size.
    pub fn new(node_of: Vec<usize>, enabled: bool) -> Self {
        let ranks = node_of.len();
        Self {
            enabled: AtomicBool::new(enabled),
            node_of,
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            registry: Registry::default(),
            compute_v: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            comm_v: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            inner: Mutex::new(Inner {
                phases: vec![PhaseComm::default()],
                open: (0..ranks).map(|_| Vec::new()).collect(),
                ..Inner::default()
            }),
        }
    }

    pub fn disabled(ranks: usize) -> Self {
        Self::new(vec![0; ranks], false)
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    pub fn ranks(&self) -> usize {
        self.node_of.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Messages sent so far (always counted).
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::SeqCst)
    }

    /// Payload bytes sent so far (always counted).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::SeqCst)
    }

    /// Record one message on the wire, world rank `src` to world rank
    /// `dst`: the one accounting call of every transport's send path.
    pub fn on_send(&self, src: usize, dst: usize, bytes: usize) {
        self.messages.fetch_add(1, Ordering::SeqCst);
        self.bytes.fetch_add(bytes as u64, Ordering::SeqCst);
        if !self.enabled() {
            return;
        }
        let internode = self.node_of[src] != self.node_of[dst];
        let mut inner = self.lock();
        let current = inner.open[src].last().map_or(0, |span| span.phase);
        let phase = &mut inner.phases[current];
        phase.messages += 1;
        phase.bytes += bytes as u64;
        if internode {
            phase.internode_messages += 1;
            phase.internode_bytes += bytes as u64;
        }
    }

    pub fn count(&self, name: &str, n: u64) {
        if !self.enabled() {
            return;
        }
        self.registry.counter(name).add(n);
    }

    pub fn gauge_max(&self, name: &str, v: f64) {
        if !self.enabled() {
            return;
        }
        self.registry.gauge(name).set_max(v);
    }

    /// Record a point event at the caller-supplied virtual time.
    pub fn event(&self, rank: usize, name: &str, detail: &str, v_time: f64) {
        if !self.enabled() {
            return;
        }
        self.lock().events.push(EventRecord {
            rank,
            name: name.to_string(),
            detail: detail.to_string(),
            v_time,
        });
    }

    /// Open a span on world rank `rank` at the caller-supplied time,
    /// inside the spans the rank has open. Until it ends, the rank's sends
    /// are counted under its name. Returns a sentinel id when disabled,
    /// which [`Recorder::span_end`] ignores.
    pub fn span_begin(&self, rank: usize, name: &str, v_now: f64) -> SpanId {
        if !self.enabled() {
            return SpanId::DISABLED;
        }
        let mut inner = self.lock();
        let phase = match inner.phases.iter().position(|p| p.name == name) {
            Some(i) => i,
            None => {
                inner.phases.push(PhaseComm {
                    name: name.to_string(),
                    ..PhaseComm::default()
                });
                inner.phases.len() - 1
            }
        };
        let stack = &mut inner.open[rank];
        stack.push(OpenSpan {
            name: name.to_string(),
            phase,
            start_v: v_now,
        });
        SpanId {
            rank,
            depth: stack.len() - 1,
        }
    }

    /// End span `id` at the caller-supplied time, and with it any span
    /// still open inside it.
    pub fn span_end(&self, id: SpanId, v_now: f64) {
        if id == SpanId::DISABLED || !self.enabled() {
            return;
        }
        let inner = &mut *self.lock();
        let stack = &mut inner.open[id.rank];
        if id.depth < stack.len() {
            let ended = stack.drain(id.depth..).map(|open| SpanRecord {
                rank: id.rank,
                name: open.name,
                start_v: open.start_v,
                end_v: v_now,
            });
            inner.spans.extend(ended);
        }
    }

    /// Accumulate modeled/measured compute seconds on a rank's ledger.
    pub fn add_compute(&self, rank: usize, seconds: f64) {
        if !self.enabled() {
            return;
        }
        if let Some(slot) = self.compute_v.get(rank) {
            f64_slot_add(slot, seconds);
        }
    }

    /// Accumulate communication seconds (injection, transit waits, probe
    /// overheads) on a rank's ledger.
    pub fn add_comm(&self, rank: usize, seconds: f64) {
        if !self.enabled() {
            return;
        }
        if let Some(slot) = self.comm_v.get(rank) {
            f64_slot_add(slot, seconds);
        }
    }

    /// Freeze everything recorded so far. Open spans are not included.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            node_of: self.node_of.clone(),
            phases: inner
                .phases
                .iter()
                .filter(|p| !p.name.is_empty() || p.messages > 0)
                .cloned()
                .collect(),
            spans: inner.spans.clone(),
            events: inner.events.clone(),
            counters: self.registry.counter_values(),
            gauges: self.registry.gauge_values(),
            compute_v: self
                .compute_v
                .iter()
                .map(|s| f64::from_bits(s.load(Ordering::SeqCst)))
                .collect(),
            comm_v: self
                .comm_v
                .iter()
                .map(|s| f64::from_bits(s.load(Ordering::SeqCst)))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .field("ranks", &self.ranks())
            .finish()
    }
}

/// Frozen recorder state, ready to embed in a `RunReport`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    pub node_of: Vec<usize>,
    pub phases: Vec<PhaseComm>,
    pub spans: Vec<SpanRecord>,
    pub events: Vec<EventRecord>,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub compute_v: Vec<f64>,
    pub comm_v: Vec<f64>,
}

impl Snapshot {
    pub fn total_messages(&self) -> u64 {
        self.phases.iter().map(|p| p.messages).sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.bytes).sum()
    }

    /// The value of the named counter, if it was ever bumped.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    pub fn total_internode_messages(&self) -> u64 {
        self.phases.iter().map(|p| p.internode_messages).sum()
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("node_of", Json::from(self.node_of.clone())),
            (
                "phases",
                Json::Arr(self.phases.iter().map(PhaseComm::to_json).collect()),
            ),
            (
                "spans",
                Json::Arr(self.spans.iter().map(SpanRecord::to_json).collect()),
            ),
            (
                "events",
                Json::Arr(self.events.iter().map(EventRecord::to_json).collect()),
            ),
            (
                "counters",
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|(k, v)| {
                            Json::obj(vec![
                                ("name", Json::from(k.clone())),
                                ("value", Json::from(*v)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Arr(
                    self.gauges
                        .iter()
                        .map(|(k, v)| {
                            Json::obj(vec![
                                ("name", Json::from(k.clone())),
                                ("value", Json::from(*v)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("compute_v", Json::from(self.compute_v.clone())),
            ("comm_v", Json::from(self.comm_v.clone())),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Self> {
        let usizes = |j: &Json| -> Option<Vec<usize>> {
            j.as_arr()?
                .iter()
                .map(|x| x.as_u64().map(|u| u as usize))
                .collect()
        };
        let f64s =
            |j: &Json| -> Option<Vec<f64>> { j.as_arr()?.iter().map(Json::as_f64).collect() };
        Some(Self {
            node_of: usizes(v.get("node_of")?)?,
            phases: v
                .get("phases")?
                .as_arr()?
                .iter()
                .map(PhaseComm::from_json)
                .collect::<Option<Vec<_>>>()?,
            spans: v
                .get("spans")?
                .as_arr()?
                .iter()
                .map(SpanRecord::from_json)
                .collect::<Option<Vec<_>>>()?,
            events: v
                .get("events")?
                .as_arr()?
                .iter()
                .map(EventRecord::from_json)
                .collect::<Option<Vec<_>>>()?,
            counters: v
                .get("counters")?
                .as_arr()?
                .iter()
                .map(|c| {
                    Some((
                        c.get("name")?.as_str()?.to_string(),
                        c.get("value")?.as_u64()?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?,
            gauges: v
                .get("gauges")?
                .as_arr()?
                .iter()
                .map(|g| {
                    Some((
                        g.get("name")?.as_str()?.to_string(),
                        g.get("value")?.as_f64()?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?,
            compute_v: f64s(v.get("compute_v")?)?,
            comm_v: f64s(v.get("comm_v")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_counts_only_the_totals() {
        let r = Recorder::disabled(4);
        let id = r.span_begin(0, "s", 0.0);
        r.on_send(0, 3, 100);
        assert_eq!((r.messages(), r.bytes()), (1, 100));
        r.count("c", 1);
        r.gauge_max("g", 5.0);
        r.event(0, "e", "", 1.0);
        r.span_end(id, 1.0);
        r.add_compute(0, 1.0);
        r.add_comm(0, 1.0);
        let snap = r.snapshot();
        assert!(snap.phases.is_empty());
        assert!(snap.spans.is_empty() && snap.events.is_empty());
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
        assert_eq!(snap.compute_v, vec![0.0; 4]);
    }

    #[test]
    fn phase_comm_splits_internode_by_node_map() {
        // Custom (non-block) map: ranks 0,2 on node 0; ranks 1,3 on node 1.
        let r = Recorder::new(vec![0, 1, 0, 1], true);
        for rank in 0..4 {
            r.span_begin(rank, "exchange", 0.0);
        }
        r.on_send(0, 2, 10); // intra-node
        r.on_send(0, 1, 20); // inter-node
        r.on_send(3, 1, 30); // intra-node
        r.on_send(2, 3, 40); // inter-node
        let snap = r.snapshot();
        assert_eq!(snap.phases.len(), 1, "the empty unnamed phase is left out");
        let p = &snap.phases[0];
        assert_eq!((p.messages, p.bytes), (4, 100));
        assert_eq!((p.internode_messages, p.internode_bytes), (2, 60));
        assert_eq!((r.messages(), r.bytes()), (4, 100));
    }

    #[test]
    fn a_send_is_counted_under_its_senders_phase() {
        let r = Recorder::new(vec![0, 0], true);
        r.on_send(1, 0, 1); // before any span: the unnamed phase
        let a0 = r.span_begin(0, "a", 0.0);
        let a1 = r.span_begin(1, "a", 0.0);
        r.span_end(a0, 1.0);
        r.span_begin(0, "b", 1.0);
        r.on_send(1, 0, 8); // rank 1 is still in "a"
        r.on_send(0, 1, 16);
        r.span_end(a1, 2.0);
        r.span_begin(1, "b", 2.0);
        r.on_send(1, 0, 32);
        let got: Vec<(String, u64, u64)> = r
            .snapshot()
            .phases
            .into_iter()
            .map(|p| (p.name, p.messages, p.bytes))
            .collect();
        let want = [("", 1, 1), ("a", 1, 8), ("b", 2, 48)];
        assert_eq!(got, want.map(|(n, m, b)| (n.to_string(), m, b)));
    }

    #[test]
    fn spans_and_ledgers_accumulate() {
        let r = Recorder::new(vec![0, 0], true);
        let a = r.span_begin(0, "pivot", 1.0);
        let b = r.span_begin(1, "pivot", 1.5);
        r.span_end(a, 2.0);
        r.span_end(b, 4.0);
        // Both ended: rank 0 opens its next span at depth 0 again.
        let c = r.span_begin(0, "exchange", 4.0);
        r.span_end(c, 6.0);
        r.add_compute(0, 0.5);
        r.add_compute(0, 0.25);
        r.add_comm(1, 1.5);
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.compute_v, vec![0.75, 0.0]);
        assert_eq!(snap.comm_v, vec![0.0, 1.5]);
    }

    #[test]
    fn snapshot_roundtrips_json() {
        let r = Recorder::new(vec![0, 0, 1], true);
        let pivot = r.span_begin(0, "pivot", 0.0);
        r.on_send(0, 2, 64);
        r.span_end(pivot, 1.0);
        r.count("coll.barrier", 3);
        r.gauge_max("mem.hw", 1024.0);
        r.event(2, "oom", "requested 1 MiB", 7.5);
        let id = r.span_begin(1, "pivot", 0.0);
        r.span_end(id, 2.5);
        r.add_compute(1, 0.125);
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let json = snap.to_json();
        let parsed = Snapshot::from_json(&Json::parse(&json.to_string_pretty()).unwrap()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn a_send_is_counted_under_the_innermost_open_span() {
        let r = Recorder::new(vec![0, 0], true);
        let outer = r.span_begin(0, "outer", 0.0);
        r.on_send(0, 1, 1);
        let inner = r.span_begin(0, "inner", 1.0);
        r.on_send(0, 1, 2);
        r.span_end(inner, 2.0);
        r.on_send(0, 1, 4); // back in "outer"
        r.span_end(outer, 3.0);
        r.on_send(0, 1, 8); // no span open: the unnamed phase
        let got: Vec<(String, u64, u64)> = r
            .snapshot()
            .phases
            .into_iter()
            .map(|p| (p.name, p.messages, p.bytes))
            .collect();
        let want = [("", 1, 8), ("outer", 2, 5), ("inner", 1, 2)];
        assert_eq!(got, want.map(|(n, m, b)| (n.to_string(), m, b)));
        // Ending a span ends the spans still open inside it.
        let outer = r.span_begin(1, "outer", 4.0);
        r.span_begin(1, "inner", 5.0);
        r.span_end(outer, 6.0);
        r.on_send(1, 0, 16);
        let snap = r.snapshot();
        let ended: Vec<(&str, f64)> = snap.spans[2..]
            .iter()
            .map(|s| (s.name.as_str(), s.end_v))
            .collect();
        assert_eq!(ended, [("outer", 6.0), ("inner", 6.0)]);
        assert_eq!(snap.phases[0].bytes, 8 + 16);
    }
}
