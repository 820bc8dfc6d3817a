//! Nonblocking point-to-point operations (`MPI_Isend`/`MPI_Irecv`/
//! `MPI_Test`/`MPI_Wait` analogues).
//!
//! The paper implements its asynchronous all-to-all from exactly these
//! primitives ("a function we implemented with MPI_Isend, MPI_Irecv, and
//! MPI_Test", §2.6). Our sends are buffered, so an isend completes at post
//! time; the interesting object is [`RecvRequest`], which can be tested
//! without blocking and waited on, and charges the model's per-test
//! progress overhead just like the async all-to-all.

use crate::comm::Comm;
use ::comm::raw::assert_user_tag;
use ::comm::{Communicator, Wire};

/// Handle to a posted nonblocking receive.
///
/// Created by [`Comm::irecv`]; consume with [`test`](Self::test) /
/// [`wait`](Self::wait).
pub struct RecvRequest<T> {
    src: usize,
    tag: u64,
    done: Option<Vec<T>>,
}

impl Comm {
    /// Post a buffered (immediately completing) send — `MPI_Isend` with an
    /// implementation that buffers. Provided for symmetry and clarity at
    /// call sites; identical to [`Communicator::send_vec`].
    pub fn isend<T: Wire>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.send_vec(dst, tag, data);
    }

    /// Post a nonblocking receive for a message from `src` with `tag`.
    ///
    /// `tag` must be below [`Comm::MAX_USER_TAG`].
    pub fn irecv<T: Wire>(&self, src: usize, tag: u64) -> RecvRequest<T> {
        assert_user_tag(tag);
        RecvRequest {
            src,
            tag,
            done: None,
        }
    }
}

impl<T: Wire> RecvRequest<T> {
    /// Nonblocking completion test (`MPI_Test`). Returns `true` once the
    /// message has arrived (after which [`wait`](Self::wait) is
    /// immediate). Charges the model's per-test progress overhead.
    pub fn test(&mut self, comm: &Comm) -> bool {
        if self.done.is_some() {
            return true;
        }
        comm.charge_comm(comm.universe().net().async_test_overhead);
        if let Some(data) = comm.try_recv_from::<T>(self.src, self.tag) {
            self.done = Some(data);
            true
        } else {
            false
        }
    }

    /// Block until the message arrives and return it (`MPI_Wait`).
    pub fn wait(mut self, comm: &Comm) -> Vec<T> {
        if let Some(data) = self.done.take() {
            return data;
        }
        comm.recv_vec(self.src, self.tag)
    }

    /// Source rank this request is posted against.
    pub fn source(&self) -> usize {
        self.src
    }

    /// Tag this request is posted against.
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

/// Wait for any of the given requests to complete; returns its index and
/// payload (`MPI_Waitany`). Charges one round-robin test sweep, then — if
/// nothing is ready — truly blocks until a matching message arrives, like
/// the blocking receive. The virtual-time cost of an idle wait is therefore
/// one sweep plus the arrival gap, independent of how long the OS schedules
/// the receiver to sleep.
pub fn wait_any<T: Wire>(
    comm: &Comm,
    requests: &mut Vec<RecvRequest<T>>,
) -> Option<(usize, Vec<T>)> {
    if requests.is_empty() {
        return None;
    }
    // One MPI_Test sweep over the outstanding requests.
    comm.charge_comm(comm.universe().net().async_test_overhead * requests.len() as f64);
    for i in 0..requests.len() {
        let ready = requests[i].done.is_some()
            || match comm.try_recv_from::<T>(requests[i].src, requests[i].tag) {
                Some(data) => {
                    requests[i].done = Some(data);
                    true
                }
                None => false,
            };
        if ready {
            let req = requests.swap_remove(i);
            let data = req.done.expect("request was completed above");
            return Some((i, data));
        }
    }
    // Nothing ready: block on the set of outstanding (src, tag) pairs.
    let specs: Vec<(usize, u64)> = requests.iter().map(|r| (r.src, r.tag)).collect();
    let (src, tag, data) = comm.recv_any_of::<T>(&specs);
    let i = requests
        .iter()
        .position(|r| r.src == src && r.tag == tag)
        .expect("completed message matches a posted request");
    requests.swap_remove(i);
    Some((i, data))
}

#[cfg(test)]
mod tests {
    use crate::netmodel::NetModel;
    use crate::runtime::World;
    use ::comm::Communicator;

    use super::wait_any;

    #[test]
    fn irecv_test_then_wait() {
        let report = World::new(2).net(NetModel::zero()).run(|comm| {
            if comm.rank() == 0 {
                comm.isend(1, 3, vec![1u32, 2, 3]);
                Vec::new()
            } else {
                let mut req = comm.irecv::<u32>(0, 3);
                // poll until complete
                while !req.test(comm) {
                    std::thread::yield_now();
                }
                req.wait(comm)
            }
        });
        assert_eq!(report.results[1], vec![1, 2, 3]);
    }

    #[test]
    fn wait_without_test_blocks_until_arrival() {
        let report = World::new(2).net(NetModel::zero()).run(|comm| {
            if comm.rank() == 0 {
                comm.isend(1, 9, vec![7u8]);
                0
            } else {
                let req = comm.irecv::<u8>(0, 9);
                req.wait(comm)[0]
            }
        });
        assert_eq!(report.results[1], 7);
    }

    #[test]
    fn wait_any_returns_each_once() {
        let p = 4;
        let report = World::new(p).net(NetModel::zero()).run(move |comm| {
            if comm.rank() == 0 {
                let mut reqs: Vec<_> = (1..p).map(|src| comm.irecv::<u64>(src, 1)).collect();
                let mut got = Vec::new();
                while let Some((_, data)) = wait_any(comm, &mut reqs) {
                    got.push(data[0]);
                }
                got.sort_unstable();
                got
            } else {
                comm.isend(0, 1, vec![comm.rank() as u64 * 100]);
                Vec::new()
            }
        });
        assert_eq!(report.results[0], vec![100, 200, 300]);
    }

    #[test]
    fn request_metadata_accessors() {
        World::new(2).net(NetModel::zero()).run(|comm| {
            if comm.rank() == 1 {
                let req = comm.irecv::<u8>(0, 42);
                assert_eq!(req.source(), 0);
                assert_eq!(req.tag(), 42);
                comm.send_val(0, 5, 1u8); // unblock rank 0's recv below
                drop(req); // un-waited requests may be dropped
            } else {
                let _: u8 = comm.recv_val(1, 5);
            }
        });
    }
}
