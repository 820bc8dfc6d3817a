//! Happens-before determinism/race checking for simulated MPI programs.
//!
//! When a world is built with [`crate::World::check`] (or the `check` cargo
//! feature, which flips the default on), every rank carries a vector clock:
//! a send increments the sender's component and stamps the envelope with the
//! sender's clock; a receive joins the stamp into the receiver's clock. Since
//! collectives are built on the same send/receive primitives, barrier and
//! reduction edges fall out for free. Like the faults layer, the checker is
//! a pure observer — a world built without it is bit-identical, and the only
//! cost when disabled is one branch per hook.
//!
//! Two classes of MPI-semantics races are flagged at world exit (raising
//! [`RaceError`] from [`crate::World::run`], the same way the deadlock
//! detector raises [`crate::DeadlockError`]):
//!
//! * **wildcard-receive nondeterminism** — an any-source receive completed
//!   while a message from a *different* source was also in flight (or a
//!   later send raced with the completed receive): which message matches is
//!   scheduling-dependent, so results can differ run to run;
//! * **tag reuse in flight** — an any-source receive found two or more
//!   in-flight messages from the *same* source on one `(ctx, tag)`: the
//!   receiver cannot attribute replies to operations by tag alone.
//!
//! Reports name world ranks, decoded tags (collective tags are decoded into
//! operation/round like the deadlock report), and the last phase each
//! involved rank entered via
//! [`trace_phase`](::comm::Communicator::trace_phase), read from the same
//! per-rank slot the deadlock report reads.

use crate::comm::describe_tag;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Panic payload raised by [`crate::World::run`] when the happens-before
/// checker recorded findings. Carries a human-readable report.
#[derive(Debug, Clone)]
pub struct RaceError {
    /// Multi-line diagnostic report, one numbered finding per paragraph.
    pub report: String,
}

impl fmt::Display for RaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "happens-before checker found races:\n{}", self.report)
    }
}

impl std::error::Error for RaceError {}

/// Sender-side vector-clock stamp carried by an envelope when checking is
/// on. `None` (the always-case when checking is off) costs nothing.
pub(crate) type Stamp = Box<[u64]>;

/// A message sent but not yet received, from the checker's point of view.
struct InFlight {
    src: usize,
    phase: String,
}

/// A completed any-source receive, kept so later sends on the same
/// `(dst, ctx, tag)` key can be checked for racing with it.
struct WildRecv {
    matched_src: usize,
    /// Receiver's vector clock right after the receive completed.
    vc_after: Vec<u64>,
    phase: String,
}

struct CheckState {
    /// Per-world-rank vector clocks.
    vc: Vec<Vec<u64>>,
    /// In-flight messages keyed by `(dst_world, ctx, tag)`, FIFO per key.
    inflight: HashMap<(usize, u64, u64), Vec<InFlight>>,
    /// Completed any-source receives keyed by `(dst_world, ctx, tag)`.
    wild_hist: HashMap<(usize, u64, u64), Vec<WildRecv>>,
    /// Deduplicated findings, in discovery order.
    findings: Vec<String>,
    /// Dedup keys of findings already recorded.
    seen: std::collections::HashSet<String>,
}

/// Cap on recorded any-source receives per `(dst, ctx, tag)` key and on
/// total findings: diagnostics stay bounded on long runs.
const WILD_HIST_CAP: usize = 128;
const FINDINGS_CAP: usize = 64;

/// The world's happens-before tracker. One branch per hook when disabled.
pub(crate) struct Checker {
    state: Option<Mutex<CheckState>>,
    /// The universe's per-rank last-phase slots (written by `trace_phase`).
    phases: Arc<[Mutex<String>]>,
}

fn vc_leq(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

impl Checker {
    pub fn new(world_size: usize, enabled: bool, phases: Arc<[Mutex<String>]>) -> Self {
        Self {
            phases,
            state: enabled.then(|| {
                Mutex::new(CheckState {
                    vc: vec![vec![0; world_size]; world_size],
                    inflight: HashMap::new(),
                    wild_hist: HashMap::new(),
                    findings: Vec::new(),
                    seen: std::collections::HashSet::new(),
                })
            }),
        }
    }

    /// The last phase `rank` entered.
    fn phase(&self, rank: usize) -> String {
        self.phases[rank].lock().clone()
    }

    /// Record a send from `src` to `dst` on `(ctx, tag)`. Returns the stamp
    /// to attach to the envelope (`None` when checking is off).
    pub fn on_send(&self, src: usize, dst: usize, ctx: u64, tag: u64) -> Option<Stamp> {
        let state = self.state.as_ref()?;
        let phase = self.phase(src);
        let mut s = state.lock();
        s.vc[src][src] += 1;
        let stamp: Stamp = s.vc[src].clone().into_boxed_slice();

        // Retroactive wildcard check: if an any-source receive already
        // completed on this key matching a different source, and this send
        // is not causally after that completion, the two were racing — this
        // message could have been the one matched.
        let key = (dst, ctx, tag);
        let racing = s.wild_hist.get(&key).and_then(|hist| {
            hist.iter()
                .find(|w| w.matched_src != src && !vc_leq(&w.vc_after, &stamp))
                .map(|w| {
                    format!(
                        "wildcard-receive nondeterminism: rank {dst} completed an any-source \
                         receive on ctx {ctx}, {} (matched rank {}, phase {}), while a send of \
                         the same tag from rank {src} (phase {}) was not ordered after it — \
                         which message matches is scheduling-dependent",
                        describe_tag(tag),
                        w.matched_src,
                        fmt_phase(&w.phase),
                        fmt_phase(&phase),
                    )
                })
        });
        if let Some(msg) = racing {
            s.record(format!("wild:{dst}:{ctx}:{tag}"), msg);
        }

        s.inflight
            .entry(key)
            .or_default()
            .push(InFlight { src, phase });
        Some(stamp)
    }

    /// Record a completed receive on `dst` of a message from `src` with the
    /// given stamp. `wildcard` marks any-source receives; receives whose
    /// matching is order-insensitive by protocol (chunks keyed by source
    /// with a duplicate check, as in the async alltoallv) pass `false`.
    pub fn on_recv(
        &self,
        dst: usize,
        ctx: u64,
        tag: u64,
        src: usize,
        stamp: Option<&Stamp>,
        wildcard: bool,
    ) {
        let Some(state) = &self.state else { return };
        let phase = self.phase(dst);
        let mut s = state.lock();
        let key = (dst, ctx, tag);

        if wildcard {
            let mut found: Vec<(String, String)> = Vec::new();
            if let Some(entries) = s.inflight.get(&key) {
                // Another in-flight message from a different source could
                // have matched this any-source receive instead.
                if let Some(other) = entries.iter().find(|e| e.src != src) {
                    found.push((
                        format!("wild:{dst}:{ctx}:{tag}"),
                        format!(
                            "wildcard-receive nondeterminism: rank {dst} matched an any-source \
                             receive on ctx {ctx}, {} to rank {src}, but a message from rank {} \
                             (phase {}) was in flight on the same tag — which message matches \
                             is scheduling-dependent",
                            describe_tag(tag),
                            other.src,
                            fmt_phase(&other.phase),
                        ),
                    ));
                }
                // Two or more in-flight messages from the SAME source are
                // delivered in order (non-overtaking), but an any-source
                // receiver cannot attribute them to operations by tag alone.
                if entries.iter().filter(|e| e.src == src).count() >= 2 {
                    found.push((
                        format!("reuse:{dst}:{ctx}:{tag}:{src}"),
                        format!(
                            "tag reuse in flight: rank {src} had multiple messages in flight \
                             to rank {dst} on ctx {ctx}, {} while rank {dst} received with \
                             any-source matching (phase {}) — replies cannot be attributed to \
                             operations",
                            describe_tag(tag),
                            fmt_phase(&phase),
                        ),
                    ));
                }
            }
            for (dedup, msg) in found {
                s.record(dedup, msg);
            }
        }

        // Drain the oldest matching in-flight entry (FIFO per (key, src),
        // mirroring the mailbox's non-overtaking guarantee).
        if let Some(entries) = s.inflight.get_mut(&key) {
            if let Some(i) = entries.iter().position(|e| e.src == src) {
                entries.remove(i);
            }
            if entries.is_empty() {
                s.inflight.remove(&key);
            }
        }

        // Join the sender's stamp, then tick the receiver.
        if let Some(stamp) = stamp {
            for (mine, theirs) in s.vc[dst].iter_mut().zip(stamp.iter()) {
                *mine = (*mine).max(*theirs);
            }
        }
        s.vc[dst][dst] += 1;

        if wildcard {
            let vc_after = s.vc[dst].clone();
            let hist = s.wild_hist.entry(key).or_default();
            if hist.len() < WILD_HIST_CAP {
                hist.push(WildRecv {
                    matched_src: src,
                    vc_after,
                    phase,
                });
            }
        }
    }

    /// Take the final report, if any findings were recorded. Called once by
    /// the runtime after all ranks joined cleanly.
    pub fn take_report(&self) -> Option<String> {
        let state = self.state.as_ref()?;
        let s = state.lock();
        if s.findings.is_empty() {
            return None;
        }
        let mut rep = format!("{} finding(s):\n", s.findings.len());
        for (i, f) in s.findings.iter().enumerate() {
            rep.push_str(&format!("  {}. {f}\n", i + 1));
        }
        Some(rep)
    }
}

impl CheckState {
    fn record(&mut self, dedup: String, msg: String) {
        if self.findings.len() >= FINDINGS_CAP || !self.seen.insert(dedup) {
            return;
        }
        self.findings.push(msg);
    }
}

fn fmt_phase(phase: &str) -> &str {
    if phase.is_empty() {
        "<none>"
    } else {
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(world_size: usize, enabled: bool) -> Checker {
        let phases = (0..world_size).map(|_| Mutex::default()).collect();
        Checker::new(world_size, enabled, phases)
    }

    #[test]
    fn disabled_checker_is_inert() {
        let c = checker(4, false);
        assert!(c.on_send(0, 1, 0, 5).is_none());
        c.on_recv(1, 0, 5, 0, None, true);
        assert!(c.take_report().is_none());
    }

    #[test]
    fn exact_receives_are_never_racy() {
        let c = checker(2, true);
        let s = c.on_send(0, 1, 0, 5);
        c.on_recv(1, 0, 5, 0, s.as_ref(), false);
        assert!(c.take_report().is_none());
    }

    #[test]
    fn concurrent_wildcard_alternatives_are_flagged() {
        let c = checker(3, true);
        let s1 = c.on_send(1, 0, 0, 5);
        let _s2 = c.on_send(2, 0, 0, 5);
        // Rank 0 matches rank 1's message while rank 2's is also in flight.
        c.on_recv(0, 0, 5, 1, s1.as_ref(), true);
        let rep = c.take_report().expect("race must be flagged");
        assert!(rep.contains("wildcard-receive nondeterminism"), "{rep}");
    }

    #[test]
    fn racing_send_after_wildcard_completion_is_flagged() {
        let c = checker(3, true);
        let s1 = c.on_send(1, 0, 0, 5);
        c.on_recv(0, 0, 5, 1, s1.as_ref(), true);
        // Rank 2 sends the same tag with no knowledge of rank 0's receive.
        let _s2 = c.on_send(2, 0, 0, 5);
        let rep = c.take_report().expect("race must be flagged");
        assert!(rep.contains("wildcard-receive nondeterminism"), "{rep}");
    }

    #[test]
    fn causally_ordered_wildcards_are_clean() {
        let c = checker(3, true);
        const DATA: u64 = 5;
        const GO: u64 = 6;
        let s1 = c.on_send(1, 0, 0, DATA);
        c.on_recv(0, 0, DATA, 1, s1.as_ref(), true);
        // Rank 0 tells rank 2 the first receive completed; rank 2's later
        // send on the same tag is then causally ordered after it.
        let go = c.on_send(0, 2, 0, GO);
        c.on_recv(2, 0, GO, 0, go.as_ref(), false);
        let s2 = c.on_send(2, 0, 0, DATA);
        c.on_recv(0, 0, DATA, 2, s2.as_ref(), true);
        assert!(c.take_report().is_none());
    }

    #[test]
    fn same_source_tag_reuse_under_wildcard_is_flagged() {
        let c = checker(2, true);
        let s1 = c.on_send(1, 0, 0, 9);
        let _s2 = c.on_send(1, 0, 0, 9);
        c.on_recv(0, 0, 9, 1, s1.as_ref(), true);
        let rep = c.take_report().expect("tag reuse must be flagged");
        assert!(rep.contains("tag reuse in flight"), "{rep}");
    }

    #[test]
    fn findings_are_deduplicated() {
        let c = checker(3, true);
        for _ in 0..5 {
            let s1 = c.on_send(1, 0, 0, 5);
            let _s2 = c.on_send(2, 0, 0, 5);
            c.on_recv(0, 0, 5, 1, s1.as_ref(), true);
            c.on_recv(0, 0, 5, 2, None, true);
        }
        let rep = c.take_report().expect("race must be flagged");
        assert_eq!(rep.matches("wildcard-receive").count(), 1, "{rep}");
    }
}
