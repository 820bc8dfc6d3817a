//! The communicator handle: the simulator as a transport, implementing the
//! [`Communicator`] primitives.
//!
//! A [`Comm`] is a single rank's view of a communicator, analogous to an
//! `MPI_Comm` plus the calling rank. It is deliberately `!Send`: a rank's
//! communicator lives on that rank's thread. All sends are *buffered*
//! (payload copied/moved into the envelope), so the common
//! send-everything-then-receive-everything pattern cannot deadlock.
//!
//! Everything the simulator models happens on the raw send/receive path in
//! this file: the virtual clock, the `netmodel` inject/transit charge,
//! `faults` perturbation, recorder accounting and the deadlock predicate.
//! The rest of the [`Communicator`] surface — collectives, the asynchronous
//! all-to-all, `split` — is the trait's provided methods, the single
//! implementation the real backends run too; only the simulator-specific
//! accessors (`clock`, `universe`) are inherent methods.
//!
//! Every receive names its sources: an exact-source receive
//! (`recv_into_raw`) or an arrival-ordered set receive (`recv_run_raw`).
//! Neither lets host thread scheduling pick a message, so a simulated run
//! is deterministic by construction.
//!
//! Tags: user code may use any tag below [`Comm::MAX_USER_TAG`]. Collectives
//! use a reserved high tag space keyed by a per-communicator operation
//! sequence number, so user messages and collective traffic never match
//! each other even when interleaved.

use crate::clock::VirtualClock;
use crate::mailbox::{Envelope, TakeResult};
use crate::universe::Universe;
use ::comm::raw::{append_moved, Group};
use ::comm::{Aborted, Budget, Communicator, Run, Wire};
use std::rc::Rc;
use std::sync::Arc;

/// Human-readable description of a tag: collective tags are decoded into
/// their operation sequence number and round, for the deadlock report.
pub(crate) fn describe_tag(tag: u64) -> String {
    if tag >= Comm::MAX_USER_TAG {
        let seq = (tag - Comm::MAX_USER_TAG) >> 12;
        let round = tag & 0xFFF;
        format!("collective #{seq} round {round}")
    } else {
        format!("user tag {tag}")
    }
}

/// A rank-local handle to a communicator.
pub struct Comm {
    uni: Arc<Universe>,
    group: Group,
    /// This rank's virtual clock (shared with sibling communicators of the
    /// same rank, e.g. after a split).
    clock: Rc<VirtualClock>,
}

impl Comm {
    /// Largest tag value available to user point-to-point messages
    /// (defined once in the backend-neutral `comm` crate).
    pub const MAX_USER_TAG: u64 = ::comm::MAX_USER_TAG;

    pub(crate) fn new(uni: Arc<Universe>, group: Group, clock: Rc<VirtualClock>) -> Self {
        Self { uni, group, clock }
    }

    /// The shared world state.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.uni
    }

    /// This rank's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Charge communication-overhead seconds (injection, probe costs) to
    /// this rank's clock, attributing them to the comm ledger.
    pub(crate) fn charge_comm(&self, seconds: f64) {
        self.clock.charge(seconds);
        self.uni.recorder.add_comm(self.group.world_rank(), seconds);
    }

    fn check_alive(&self) {
        if self.uni.is_aborted() {
            Aborted::raise(self.group.rank());
        }
    }

    /// Charge any injected stall for one message operation on this rank.
    fn inject_op_stall(&self) {
        let s = self.uni.faults().op_stall(self.group.world_rank());
        if s > 0.0 {
            self.charge_comm(s);
        }
    }

    /// Block until the envelope `(srcs, tag)` selects can be taken. If this
    /// wait leaves every rank idle, file the deadlock report; either way a
    /// wait that cannot complete unwinds with [`Aborted`].
    fn blocking_take(&self, srcs: &[usize], tag: u64) -> Envelope {
        let me_w = self.group.world_rank();
        let uni = &self.uni;
        match uni.mailboxes[me_w].take(self.group.ctx(), srcs, tag, &uni.aborted, &uni.idle) {
            TakeResult::Got(env) => return env,
            TakeResult::Deadlock => uni.declare_deadlock(me_w),
            TakeResult::Aborted => {}
        }
        Aborted::raise(self.group.rank())
    }

    /// Complete a receive: advance the clock to the arrival time and unbox
    /// the payload.
    fn open_envelope<T: Send + 'static>(&self, env: Envelope) -> (usize, Vec<T>) {
        self.clock.advance_to(env.arrival);
        let src_comm = self
            .group
            .rank_of_world(env.src)
            .expect("sender is a member of this communicator");
        let data = env
            .data
            .downcast::<Vec<T>>()
            .unwrap_or_else(|_| panic!("type mismatch on recv (tag {})", env.tag));
        debug_assert_eq!(env.bytes, std::mem::size_of::<T>() * data.len());
        (src_comm, *data)
    }

    /// The one blocking receive: the envelope `(srcs, tag)` selects (world
    /// ranks, ascending), as `(src_comm_rank, data)`. A true blocking wait:
    /// idle time advances with the message arrival, not with polling.
    fn recv_sel<T: Send + 'static>(&self, srcs: &[usize], tag: u64) -> (usize, Vec<T>) {
        self.check_alive();
        self.inject_op_stall();
        let env = self.blocking_take(srcs, tag);
        self.open_envelope(env)
    }
}

impl Communicator for Comm {
    fn group(&self) -> &Group {
        &self.group
    }

    /// The child communicator shares this rank's virtual clock.
    fn with_group(&self, group: Group) -> Self {
        Self::new(Arc::clone(&self.uni), group, Rc::clone(&self.clock))
    }

    fn cores_per_node(&self) -> usize {
        self.uni.topology().cores_per_node()
    }

    fn node(&self) -> usize {
        self.uni.topology().node_of(self.group.world_rank())
    }

    fn now(&self) -> f64 {
        self.clock.now()
    }

    fn recorder(&self) -> &telemetry::Recorder {
        &self.uni.recorder
    }

    /// Run `f`, measure its host time, charge it to the virtual clock.
    fn compute<R>(&self, f: impl FnOnce() -> R) -> R {
        let me_w = self.group.world_rank();
        let before = self.clock.now();
        let r = self.clock.measure(f);
        let factor = self.uni.faults().compute_factor(me_w);
        if factor != 1.0 {
            // Slowed rank: the same work takes `factor` times as long.
            let dt = self.clock.now() - before;
            self.clock.charge(dt * (factor - 1.0));
        }
        self.uni
            .recorder
            .add_compute(me_w, self.clock.now() - before);
        r
    }

    fn charge_compute(&self, seconds: f64) {
        let me_w = self.group.world_rank();
        let seconds = seconds * self.uni.faults().compute_factor(me_w);
        self.clock.charge(seconds);
        self.uni.recorder.add_compute(me_w, seconds);
    }

    /// Attributes this rank's subsequent sends to the named phase, and
    /// records it for the deadlock report.
    fn trace_phase(&self, name: &str) {
        let me_w = self.group.world_rank();
        self.uni.recorder.set_phase(me_w, name);
        name.clone_into(&mut self.uni.phases[me_w].lock());
    }

    fn budget(&self) -> &Budget {
        &self.uni.budget
    }

    /// Under a memory-pressure fault ramp, part of the budget is withheld
    /// and the effective headroom shrinks over virtual time.
    fn withheld(&self) -> usize {
        let limit = self.uni.budget.limit();
        self.uni
            .faults()
            .withheld(self.group.world_rank(), self.clock.now(), limit)
    }

    /// Buffered: returns as soon as the envelope is enqueued. The sender's
    /// clock is charged the injection cost from the network model, and the
    /// envelope carries its modelled arrival time.
    fn send_raw<T: Wire>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.check_alive();
        self.inject_op_stall();
        let bytes = std::mem::size_of::<T>() * data.len();
        let src_w = self.group.world_rank();
        let dst_w = self.group.world_rank_of(dst);
        let ctx = self.group.ctx();
        let topo = self.uni.topology();
        let net = self.uni.net();
        let (inject, transit) = match self.uni.faults().message(src_w, dst_w) {
            Some(mf) => net.perturbed_times(topo, src_w, dst_w, bytes, &mf),
            None => (
                net.inject_time(topo, src_w, dst_w, bytes),
                net.transit_time(topo, src_w, dst_w, bytes),
            ),
        };
        self.charge_comm(inject);
        let arrival = self.clock.now() + transit;
        self.uni.recorder.on_send(src_w, dst_w, bytes);
        let env = Envelope {
            ctx,
            src: src_w,
            tag,
            data: Box::new(data),
            bytes,
            arrival,
        };
        self.uni.mailboxes[dst_w].push(env, &self.uni.idle);
    }

    fn recv_into_raw<T: Wire>(&self, src: usize, tag: u64, out: &mut Vec<T>) {
        let src_w = self.group.world_rank_of(src);
        append_moved(self.recv_sel(&[src_w], tag).1, out);
    }

    /// Waits until every source in `from` has its run queued, then takes
    /// the earliest virtual arrival (ties to the lower world rank): the
    /// order chunks are handed over is a function of the virtual clocks.
    fn recv_run_raw<T: Wire>(&self, from: &[usize], tag: u64) -> (usize, Run<T>) {
        let mut srcs: Vec<usize> = from.iter().map(|&r| self.group.world_rank_of(r)).collect();
        srcs.sort_unstable();
        let (src, data) = self.recv_sel(&srcs, tag);
        (src, data.into())
    }

    /// Progress cost of testing the outstanding requests (`MPI_Test`
    /// sweep): grows with the number of pending peers, which is what erodes
    /// the overlap benefit at large process counts (Fig. 5b).
    fn async_test_sweep(&self, pending: usize) {
        self.charge_comm(self.uni.net().async_test_overhead * pending as f64);
    }
}

#[cfg(test)]
mod tests {
    use ::comm::Communicator;

    /// A generic driver exercised through the trait only: proves the trait
    /// surface is sufficient for collective + p2p round trips.
    fn trait_driver<C: Communicator>(comm: &C) -> (u64, Vec<u64>) {
        let sum = comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b);
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send_val(next, 7, comm.rank() as u64);
        let from_prev: u64 = comm.recv_val(prev, 7);
        assert_eq!(from_prev as usize, prev);
        let gathered = comm.allgather(&[comm.rank() as u64]);
        (sum, gathered)
    }

    #[test]
    fn comm_implements_the_trait() {
        let p = 4;
        let report = crate::World::new(p).run(|comm| trait_driver(comm));
        for (sum, gathered) in report.results {
            assert_eq!(sum, (1..=p as u64).sum());
            assert_eq!(gathered, (0..p as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn async_exchange_through_the_trait() {
        let p = 4;
        let report = crate::World::new(p).run(|comm| {
            let data: Vec<u64> = (0..p as u64).map(|i| i * 10 + comm.rank() as u64).collect();
            let counts = vec![1usize; p];
            let mut pending = Communicator::alltoallv_async(comm, &data, &counts);
            let mut by_src = vec![0u64; p];
            while let Some((src, chunk)) = ::comm::AsyncExchange::wait_any(&mut pending, comm) {
                assert_eq!(chunk.len(), 1);
                by_src[src] = chunk[0];
            }
            by_src
        });
        for (r, by_src) in report.results.iter().enumerate() {
            let want: Vec<u64> = (0..p as u64).map(|src| r as u64 * 10 + src).collect();
            assert_eq!(*by_src, want);
        }
    }
}
