//! Resident worlds: a persistent rank pool for long-lived services.
//!
//! [`crate::ThreadWorld::run`] spawns one OS thread per rank, runs one
//! closure, and joins everything — the right shape for a single sort, and
//! exactly the wrong shape for a sort *service*, where thread creation and
//! teardown per job would dominate small jobs and defeat buffer reuse.
//!
//! [`ResidentWorld`] keeps the rank threads alive between jobs. Each rank
//! thread builds its [`ThreadComm`] once and then parks on a channel; a
//! gang-scheduled job is one closure dispatched to every rank, and
//! [`ResidentWorld::run`] blocks until the whole gang finishes. `run` takes
//! `&mut self`, so at most one gang is in flight — overlapping gangs on the
//! same communicator would interleave collectives and deadlock.
//!
//! Failure semantics are fail-fast-forever: if any rank's closure panics,
//! the universe aborts (waking every blocked send/receive, which unwind
//! with [`comm::Aborted`]), the gang completes with an error, and the world
//! is poisoned — every later [`ResidentWorld::run`] returns the same error
//! without dispatching. A poisoned universe cannot be revived because
//! in-flight envelopes from the failed gang may still sit in mailboxes.

use crate::comm::ThreadComm;
use crate::universe::Universe;
use comm::raw::Group;
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One rank's share of a gang job, type-erased so differently typed jobs
/// can flow through the same long-lived channel.
type RankJob = Box<dyn FnOnce(&ThreadComm) + Send>;

struct GangTask {
    job: RankJob,
    latch: Arc<Latch>,
}

/// Counts rank completions for one gang and carries the first panic.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    poison: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new(ranks: usize) -> Self {
        Self {
            state: Mutex::new(LatchState {
                remaining: ranks,
                poison: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, payload: Option<Box<dyn Any + Send>>) {
        let mut st = self.state.lock().expect("latch mutex poisoned");
        if let Some(p) = payload {
            // Keep the original failure: a real payload beats the
            // secondary `comm::Aborted` unwinds of interrupted ranks.
            if st.poison.is_none() || st.poison.as_ref().is_some_and(|q| q.is::<comm::Aborted>()) {
                st.poison = Some(p);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut st = self.state.lock().expect("latch mutex poisoned");
        while st.remaining > 0 {
            st = self
                .done
                .wait(st)
                .expect("latch mutex poisoned while waiting");
        }
        st.poison.take()
    }
}

/// A gang job failed — some rank's closure panicked — and the world is now
/// permanently poisoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GangError {
    /// Human-readable panic message of the first failing rank.
    pub message: String,
}

impl std::fmt::Display for GangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "resident world poisoned: {}", self.message)
    }
}

impl std::error::Error for GangError {}

fn describe_panic(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(a) = payload.downcast_ref::<comm::Aborted>() {
        format!("rank {} interrupted by a peer failure", a.rank)
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A pool of persistent rank threads executing gang-scheduled jobs.
///
/// Built via [`crate::ThreadWorld::resident`]; dropped worlds shut their
/// rank threads down cleanly.
///
/// ```
/// use comm::Communicator;
/// use shmem::ThreadWorld;
///
/// let mut world = ThreadWorld::new(4).resident();
/// for round in 0u64..3 {
///     let sums = world
///         .run(move |comm| comm.allreduce(round + comm.rank() as u64, |a, b| a + b))
///         .expect("healthy world");
///     assert_eq!(sums, vec![6 + 4 * round; 4]);
/// }
/// ```
pub struct ResidentWorld {
    uni: Arc<Universe>,
    senders: Vec<mpsc::Sender<GangTask>>,
    handles: Vec<JoinHandle<()>>,
    poisoned: Option<GangError>,
}

impl ResidentWorld {
    pub(crate) fn start(uni: Arc<Universe>) -> Self {
        let size = uni.size();
        let members: Arc<[usize]> = (0..size).collect();
        let mut senders = Vec::with_capacity(size);
        let mut handles = Vec::with_capacity(size);
        for r in 0..size {
            let (tx, rx) = mpsc::channel::<GangTask>();
            let uni = Arc::clone(&uni);
            let members = Arc::clone(&members);
            let handle = std::thread::Builder::new()
                .name(format!("shmem-resident-{r}"))
                .spawn(move || {
                    // The communicator is built once and survives across
                    // jobs: collective sequence numbers keep advancing, so
                    // consecutive jobs can never collide on tags.
                    let comm = ThreadComm::new(uni, Group::new(0, members, r));
                    while let Ok(task) = rx.recv() {
                        let res = std::panic::catch_unwind(AssertUnwindSafe(|| (task.job)(&comm)));
                        match res {
                            Ok(()) => task.latch.complete(None),
                            Err(payload) => {
                                comm.universe().abort();
                                task.latch.complete(Some(payload));
                            }
                        }
                    }
                })
                .expect("spawn resident rank thread");
            senders.push(tx);
            handles.push(handle);
        }
        Self {
            uni,
            senders,
            handles,
            poisoned: None,
        }
    }

    /// Number of ranks in the pool.
    pub fn size(&self) -> usize {
        self.uni.size()
    }

    /// The shared world state (stats, telemetry recorder, epoch).
    pub fn universe(&self) -> &Arc<Universe> {
        &self.uni
    }

    /// Whether an earlier gang poisoned the world.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Run `f` on every resident rank concurrently and collect the results
    /// in rank order. Blocks until the whole gang finishes. `&mut self`
    /// keeps gangs strictly sequential on this communicator.
    ///
    /// Returns [`GangError`] — immediately, without dispatching — once the
    /// world is poisoned by an earlier panic.
    pub fn run<R, F>(&mut self, f: F) -> Result<Vec<R>, GangError>
    where
        R: Send + 'static,
        F: Fn(&ThreadComm) -> R + Send + Sync + 'static,
    {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let size = self.size();
        let latch = Arc::new(Latch::new(size));
        let f = Arc::new(f);
        let results: Arc<Mutex<Vec<Option<R>>>> =
            Arc::new(Mutex::new((0..size).map(|_| None).collect()));
        for (r, tx) in self.senders.iter().enumerate() {
            let f = Arc::clone(&f);
            let results = Arc::clone(&results);
            let job: RankJob = Box::new(move |comm| {
                let out = f(comm);
                results.lock().expect("gang results mutex poisoned")[r] = Some(out);
            });
            tx.send(GangTask {
                job,
                latch: Arc::clone(&latch),
            })
            .expect("resident rank thread alive");
        }
        if let Some(payload) = latch.wait() {
            let err = GangError {
                message: describe_panic(payload.as_ref()),
            };
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        let collected = Arc::into_inner(results)
            .expect("gang done: no outstanding result handles")
            .into_inner()
            .expect("gang results mutex poisoned");
        Ok(collected
            .into_iter()
            .map(|slot| slot.expect("every rank completed without panic"))
            .collect())
    }
}

impl Drop for ResidentWorld {
    fn drop(&mut self) {
        // Closing the channels lets each rank thread fall out of its loop.
        self.senders.clear();
        for h in self.handles.drain(..) {
            // A rank thread only panics if a job's latch mutex was
            // poisoned; there is nothing useful to do with that here.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ThreadWorld;
    use comm::Communicator;

    #[test]
    fn gangs_reuse_the_same_threads() {
        let mut world = ThreadWorld::new(3).resident();
        let first: Vec<String> = world
            .run(|_comm| {
                std::thread::current()
                    .name()
                    .expect("resident threads are named")
                    .to_owned()
            })
            .expect("healthy");
        for _ in 0..5 {
            let again = world
                .run(|comm| {
                    let _ = comm.allreduce(1u64, |a, b| a + b);
                    std::thread::current()
                        .name()
                        .expect("resident threads are named")
                        .to_owned()
                })
                .expect("healthy");
            assert_eq!(first, again, "jobs must run on the persistent threads");
        }
    }

    #[test]
    fn collectives_work_across_consecutive_gangs() {
        let mut world = ThreadWorld::new(4).resident();
        for round in 0u64..4 {
            let got = world
                .run(move |comm| comm.allreduce(round * 10 + comm.rank() as u64, |a, b| a + b))
                .expect("healthy");
            assert_eq!(got, vec![40 * round + 6; 4]);
        }
    }

    #[test]
    fn panic_poisons_the_world_permanently() {
        let mut world = ThreadWorld::new(2).resident();
        let err = world
            .run(|comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                // Rank 0 blocks on a receive that can only be released by
                // the abort — proving interrupted peers unwind cleanly.
                let _: Vec<u8> = comm.recv_vec(1, 7);
            })
            .expect_err("gang must fail");
        assert!(err.message.contains("rank 1 exploded"), "{err}");
        let err2 = world
            .run(|_comm| ())
            .expect_err("poisoned world rejects new gangs");
        assert_eq!(err, err2);
        assert!(world.is_poisoned());
    }
}
