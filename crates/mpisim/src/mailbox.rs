//! Per-rank mailboxes with MPI-style `(context, source, tag)` matching.
//!
//! Every world rank owns one `Mailbox`. A message is an `Envelope`
//! carrying a type-erased payload plus the metadata needed for matching and
//! for the virtual-time model (byte count and arrival time). Receives
//! match on communicator context, a set of source world ranks, and tag.
//! There is no any-source receive.
//!
//! A receive from a set of sources is the simulator's delivery rule: it
//! waits until every listed source has a matching envelope queued, then
//! takes the one with the smallest `(virtual arrival, source)`. Which
//! chunk a rank gets is then a function of the virtual clocks, not of host
//! thread scheduling; an exact-source receive is the one-source case.
//!
//! A blocked receive registers its wait in the mailbox, under the mailbox
//! lock; the push that satisfies it clears it under the same lock. Both
//! keep the world's [`Idle`] count, which is how deadlock is detected
//! without a timeout.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A message in flight: type-erased payload plus matching metadata.
pub(crate) struct Envelope {
    /// Communicator context id the message was sent on.
    pub ctx: u64,
    /// World rank of the sender.
    pub src: usize,
    /// User or collective tag.
    pub tag: u64,
    /// The payload, a `Vec<T>` boxed as `Any`.
    pub data: Box<dyn Any + Send>,
    /// Payload size in bytes (for statistics; already charged to clocks).
    pub bytes: usize,
    /// Virtual time at which the message is available to the receiver.
    pub arrival: f64,
}

/// What a blocked rank is waiting for (deadlock diagnostics).
#[derive(Debug, Clone)]
pub(crate) struct Wait {
    pub ctx: u64,
    pub tag: u64,
    /// The world ranks (ascending) with no matching envelope queued yet.
    pub missing: Vec<usize>,
}

/// Outcome of a blocking take.
pub(crate) enum TakeResult {
    /// A matching envelope was removed from the queue.
    Got(Envelope),
    /// The world aborted while waiting.
    Aborted,
    /// This wait made every rank of the world idle: nothing can ever be
    /// pushed again, and the wait stays registered for the report.
    Deadlock,
}

/// Ranks that are finished or blocked on a registered wait. A rank that
/// is neither can still push, so the world is deadlocked exactly when the
/// count reaches the world size with a wait registered.
pub(crate) struct Idle {
    count: AtomicUsize,
    world: usize,
}

impl Idle {
    pub fn new(world: usize) -> Self {
        Self {
            count: AtomicUsize::new(0),
            world,
        }
    }

    /// One more rank is idle; true if that makes every rank idle.
    pub fn enter(&self) -> bool {
        self.count.fetch_add(1, Ordering::SeqCst) + 1 == self.world
    }

    fn leave(&self) {
        self.count.fetch_sub(1, Ordering::SeqCst);
    }
}

#[derive(Default)]
struct Inbox {
    queue: VecDeque<Envelope>,
    wait: Option<Wait>,
}

/// A single rank's incoming-message queue.
#[derive(Default)]
pub(crate) struct Mailbox {
    inbox: Mutex<Inbox>,
    cv: Condvar,
}

impl Mailbox {
    /// Deposit an envelope. If it satisfies the owner's registered wait,
    /// clear the wait, count the owner busy again and wake it.
    pub fn push(&self, env: Envelope, idle: &Idle) {
        let mut inbox = self.inbox.lock();
        let satisfied = inbox.wait.as_mut().is_some_and(|w| {
            w.ctx == env.ctx && w.tag == env.tag && {
                if let Ok(i) = w.missing.binary_search(&env.src) {
                    w.missing.remove(i);
                }
                w.missing.is_empty()
            }
        });
        inbox.queue.push_back(env);
        if satisfied {
            inbox.wait = None;
            idle.leave();
            self.cv.notify_one();
        }
    }

    /// Position of the envelope a receive of `(ctx, srcs, tag)` takes, or
    /// the sources it still misses. `srcs` are world ranks, ascending.
    fn find(
        queue: &VecDeque<Envelope>,
        ctx: u64,
        srcs: &[usize],
        tag: u64,
    ) -> Result<usize, Vec<usize>> {
        let matching = queue
            .iter()
            .enumerate()
            .filter(|(_, e)| e.ctx == ctx && e.tag == tag);
        // Only each source's first envelope is a candidate: messages from
        // one sender are never overtaken.
        let mut seen = vec![false; srcs.len()];
        let mut found = 0;
        let mut best = (f64::INFINITY, usize::MAX, 0);
        for (i, e) in matching {
            let Ok(k) = srcs.binary_search(&e.src) else {
                continue;
            };
            if std::mem::replace(&mut seen[k], true) {
                continue;
            }
            if (e.arrival, e.src) < (best.0, best.1) {
                best = (e.arrival, e.src, i);
            }
            found += 1;
            if found == srcs.len() {
                return Ok(best.2);
            }
        }
        Err(srcs
            .iter()
            .zip(&seen)
            .filter(|&(_, &s)| !s)
            .map(|(&w, _)| w)
            .collect())
    }

    /// Blocking take of the envelope `(ctx, srcs, tag)` selects. Registers
    /// the wait while blocked; returns [`TakeResult::Deadlock`] if that
    /// made every rank idle.
    pub fn take(
        &self,
        ctx: u64,
        srcs: &[usize],
        tag: u64,
        aborted: &AtomicBool,
        idle: &Idle,
    ) -> TakeResult {
        let mut inbox = self.inbox.lock();
        loop {
            let missing = match Self::find(&inbox.queue, ctx, srcs, tag) {
                Ok(i) => {
                    let env = inbox.queue.remove(i).expect("matched position exists");
                    return TakeResult::Got(env);
                }
                Err(missing) => missing,
            };
            if aborted.load(Ordering::SeqCst) {
                return TakeResult::Aborted;
            }
            if inbox.wait.is_none() {
                inbox.wait = Some(Wait { ctx, tag, missing });
                if idle.enter() {
                    return TakeResult::Deadlock;
                }
            }
            self.cv.wait(&mut inbox);
        }
    }

    /// The owner's registered wait, if it is blocked.
    pub fn wait(&self) -> Option<Wait> {
        self.inbox.lock().wait.clone()
    }

    /// Metadata snapshot of every queued envelope: `(ctx, src, tag, bytes)`.
    /// Used for deadlock diagnostics.
    pub fn snapshot(&self) -> Vec<(u64, usize, u64, usize)> {
        self.inbox
            .lock()
            .queue
            .iter()
            .map(|e| (e.ctx, e.src, e.tag, e.bytes))
            .collect()
    }

    /// Wake the owner (used on world abort). Taking the lock orders the
    /// wake-up after the abort-flag store for an owner between its check
    /// and its wait.
    pub fn interrupt(&self) {
        drop(self.inbox.lock());
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn env(ctx: u64, src: usize, tag: u64, payload: Vec<u32>) -> Envelope {
        let bytes = payload.len() * 4;
        Envelope {
            ctx,
            src,
            tag,
            data: Box::new(payload),
            bytes,
            arrival: 0.0,
        }
    }

    fn at(arrival: f64, src: usize) -> Envelope {
        Envelope {
            arrival,
            ..env(0, src, 7, vec![src as u32])
        }
    }

    /// Non-blocking take: the envelope a receive would get right now.
    fn try_take(mb: &Mailbox, ctx: u64, srcs: &[usize], tag: u64) -> Option<Envelope> {
        let mut inbox = mb.inbox.lock();
        let i = Mailbox::find(&inbox.queue, ctx, srcs, tag).ok()?;
        inbox.queue.remove(i)
    }

    #[test]
    fn envelope_stays_small() {
        // One queued envelope per message: at p = 4 096 every 8 B more
        // costs about 0.13 GiB of mailbox slots.
        assert!(std::mem::size_of::<Envelope>() <= 56);
    }

    #[test]
    fn try_take_matches_ctx_src_tag() {
        let mb = Mailbox::default();
        let idle = Idle::new(1);
        mb.push(env(1, 0, 7, vec![1]), &idle);
        mb.push(env(1, 2, 7, vec![2]), &idle);
        mb.push(env(2, 2, 7, vec![3]), &idle);

        assert!(try_take(&mb, 1, &[5], 7).is_none());
        let e = try_take(&mb, 1, &[2], 7).unwrap();
        assert_eq!(*e.data.downcast::<Vec<u32>>().unwrap(), vec![2]);
        // ctx 2 message must not match ctx 1 receives
        assert!(try_take(&mb, 1, &[2], 7).is_none());
        assert_eq!(mb.snapshot().len(), 2);
    }

    #[test]
    fn each_source_waits_for_all_then_takes_earliest_arrival() {
        let mb = Mailbox::default();
        let idle = Idle::new(1);
        mb.push(at(3.0, 1), &idle);
        mb.push(at(1.0, 4), &idle);
        assert!(
            try_take(&mb, 0, &[1, 2, 4], 7).is_none(),
            "rank 2's envelope is not queued yet"
        );
        // A later envelope from rank 4 is not a candidate before its first.
        mb.push(at(0.5, 4), &idle);
        mb.push(at(2.0, 2), &idle);
        let next = |srcs: &[usize]| {
            let e = try_take(&mb, 0, srcs, 7).unwrap();
            (e.src, e.arrival)
        };
        assert_eq!(next(&[1, 2, 4]), (4, 1.0));
        assert_eq!(next(&[1, 2, 4]), (4, 0.5));
        assert_eq!(next(&[1, 2]), (2, 2.0));
        // Ties on arrival go to the lower source.
        mb.push(at(3.0, 0), &idle);
        assert_eq!(try_take(&mb, 0, &[0, 1], 7).unwrap().src, 0);
    }

    #[test]
    fn blocking_take_wakes_on_push() {
        let mb = Arc::new(Mailbox::default());
        let idle = Arc::new(Idle::new(2));
        let mb2 = Arc::clone(&mb);
        let idle2 = Arc::clone(&idle);
        let h =
            std::thread::spawn(move || mb2.take(0, &[1, 2], 9, &AtomicBool::new(false), &idle2));
        std::thread::sleep(Duration::from_millis(10));
        mb.push(env(0, 2, 9, vec![42]), &idle);
        mb.push(env(0, 1, 9, vec![41]), &idle);
        match h.join().unwrap() {
            TakeResult::Got(e) => assert_eq!(e.src, 1, "equal arrivals: lower source"),
            _ => panic!("expected envelope"),
        }
        assert!(mb.wait().is_none(), "the satisfying push cleared the wait");
        assert!(!idle.enter(), "the receiver is counted busy again");
    }

    #[test]
    fn blocking_take_returns_none_on_abort() {
        let mb = Arc::new(Mailbox::default());
        let aborted = Arc::new(AtomicBool::new(false));
        let mb2 = Arc::clone(&mb);
        let ab2 = Arc::clone(&aborted);
        let h = std::thread::spawn(move || mb2.take(0, &[1], 9, &ab2, &Idle::new(2)));
        std::thread::sleep(Duration::from_millis(5));
        aborted.store(true, Ordering::SeqCst);
        mb.interrupt();
        assert!(matches!(h.join().unwrap(), TakeResult::Aborted));
    }

    #[test]
    fn tag_mismatch_not_taken() {
        let mb = Mailbox::default();
        mb.push(env(0, 0, 5, vec![1]), &Idle::new(1));
        assert!(try_take(&mb, 0, &[0], 6).is_none());
        assert!(try_take(&mb, 0, &[0], 5).is_some());
    }

    #[test]
    fn last_idle_rank_reports_deadlock() {
        let mb = Mailbox::default();
        let idle = Idle::new(1);
        match mb.take(0, &[3], 9, &AtomicBool::new(false), &idle) {
            TakeResult::Deadlock => {}
            _ => panic!("expected deadlock"),
        }
        let w = mb.wait().expect("the wait stays registered");
        assert_eq!((w.ctx, w.tag, w.missing), (0, 9, vec![3]));
    }

    #[test]
    fn snapshot_reports_queue_metadata() {
        let mb = Mailbox::default();
        mb.push(env(3, 1, 7, vec![1, 2]), &Idle::new(1));
        assert_eq!(mb.snapshot(), vec![(3, 1, 7, 8)]);
    }
}
