//! Node-level merging before the exchange (`SdssNodeMerge`, paper §2.3).
//!
//! When the average all-to-all message (`n/p`) is small, SDS-Sort merges
//! the sorted data of all ranks on a node onto the node leader first: the
//! subsequent exchange then runs between node leaders only, with `c²`-fold
//! fewer, `c`-fold larger messages per node pair — amortizing per-message
//! overhead on low-throughput networks. When messages are large, merging is
//! skipped so every core feeds the network (saturating high-throughput
//! interconnects). The decision threshold is `τm`
//! ([`crate::config::SdsConfig::tau_m_bytes`]); Fig. 5a locates the
//! crossover.

use crate::merge::kway_merge;
use crate::record::Sortable;
use crate::sort::SortError;
use comm::Communicator;

/// Bytes of the average all-to-all message of a rank holding `n` records of
/// `T` among `p` ranks — what the `τm` rule (paper line 3, `n/p ≤ τm`)
/// compares with the threshold.
pub fn avg_message_bytes<T>(n: usize, p: usize) -> usize {
    n / p.max(1) * std::mem::size_of::<T>()
}

/// The node-merging decision for a rank holding `local_n` records. It must
/// be uniform across ranks, so it uses the global average local size (one
/// allreduce, paid whether or not merging applies). Returns the average
/// message in bytes, and whether to merge: the machine has more than one
/// core per node and that message is within `tau_m_bytes`.
pub fn node_merge_applies<T: Sortable, C: Communicator>(
    comm: &C,
    local_n: usize,
    tau_m_bytes: usize,
) -> (usize, bool) {
    let p = comm.size();
    let n_sum = comm.allreduce(local_n as u64, |a, b| a + b);
    let avg_msg = avg_message_bytes::<T>((n_sum / p as u64) as usize, p);
    (avg_msg, comm.cores_per_node() > 1 && avg_msg <= tau_m_bytes)
}

/// `SdssRefineComm` + `SdssNodeMerge`: merge each node's sorted data onto
/// its leader. Returns the node-local communicator, for [`leaders_verdict`],
/// and on a leader the leaders' communicator, on which the sort continues,
/// with its node's merged data; every other rank gets `None` there (its data
/// now lives on the leader).
pub fn merge_onto_leaders<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
) -> (C, Option<(C, Vec<T>)>) {
    let (cg, cl) = comm.refine_comm();
    let node_n = cl.allreduce(data.len(), |a, b| a + b);
    let k = cl.size();
    let merged = comm.compute_with(|m| m.kway_merge_cost(node_n, k), || node_merge(&cl, &data));
    let led = match (cg, merged) {
        (Some(cg), Some(merged)) => Some((cg, merged)),
        (None, None) => None,
        _ => unreachable!("leader status must agree between cg and node_merge"),
    };
    (cl, led)
}

/// Make a leader's failure its node's. After [`merge_onto_leaders`] only the
/// leaders sort on, so only they meet the collective memory check; the other
/// ranks have nothing left to do. Every rank passes what it has — the leader
/// the result of the sort among the leaders, the others their empty output —
/// and the leader tells its node (`cl`) whether it failed: a rank whose
/// leader did returns [`SortError::PeerOom`] instead of a success the sort
/// never had.
pub fn leaders_verdict<R, C: Communicator>(
    cl: &C,
    result: Result<R, SortError>,
) -> Result<R, SortError> {
    let mine = (cl.rank() == 0).then(|| vec![result.is_err()]);
    let leader_failed = cl.bcast(0, mine)[0];
    match result {
        Ok(_) if leader_failed => Err(SortError::PeerOom),
        result => result,
    }
}

/// Merge each node's sorted per-rank data onto the node's leader using the
/// node-local communicator `cl` (from [`Communicator::refine_comm`]).
///
/// Returns `Some(merged)` on the leader (rank 0 of `cl`), `None` elsewhere.
/// Gathering in `cl` rank order and merging with run-order-stable k-way
/// merge preserves global stability.
pub fn node_merge<T: Sortable, C: Communicator>(cl: &C, data: &[T]) -> Option<Vec<T>> {
    debug_assert!(
        crate::merge::is_sorted_by_key(data),
        "node_merge expects sorted input"
    );
    match cl.gatherv(0, data) {
        Some(parts) => {
            let runs: Vec<&[T]> = parts.iter().map(Vec::as_slice).collect();
            Some(kway_merge(&runs))
        }
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use mpisim::{NetModel, World};

    #[test]
    fn tau_m_threshold_uses_bytes() {
        // n/p = 100 u64 records = 800 B ≤ 1000 → merge
        assert_eq!(avg_message_bytes::<u64>(800, 8), 800);
        // n/p = 200 u64 = 1600 B > 1000 → no merge
        assert_eq!(avg_message_bytes::<u64>(1600, 8), 1600);
    }

    #[test]
    fn leaders_receive_merged_node_data() {
        let report = World::new(8)
            .cores_per_node(4)
            .net(NetModel::zero())
            .run(|comm| {
                // rank r holds [r*10, r*10 + 5) sorted
                let data: Vec<u64> = (0..5).map(|i| (comm.rank() * 10 + i) as u64).collect();
                let (_cg, cl) = comm.refine_comm();
                node_merge(&cl, &data)
            });
        // node 0 leader = rank 0 gets ranks 0..4's data merged
        let node0: Vec<u64> = report.results[0].clone().expect("leader");
        let mut expect: Vec<u64> = (0..4)
            .flat_map(|r| (0..5).map(move |i| r * 10 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(node0, expect);
        // non-leaders get nothing
        for r in [1, 2, 3, 5, 6, 7] {
            assert!(report.results[r].is_none());
        }
        let node1 = report.results[4].clone().expect("leader");
        assert_eq!(node1.len(), 20);
        assert!(node1.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn node_merge_is_stable_in_rank_order() {
        let report = World::new(4)
            .cores_per_node(4)
            .net(NetModel::zero())
            .run(|comm| {
                // every rank holds two records with the same key 9
                let data = vec![
                    Record::new(9u32, (comm.rank() * 2) as u64),
                    Record::new(9u32, (comm.rank() * 2 + 1) as u64),
                ];
                let (_cg, cl) = comm.refine_comm();
                node_merge(&cl, &data)
            });
        let merged = report.results[0].clone().expect("leader");
        let tags: Vec<u64> = merged.iter().map(|r| r.payload).collect();
        assert_eq!(
            tags,
            (0..8).collect::<Vec<u64>>(),
            "duplicates must stay in rank order"
        );
    }

    #[test]
    fn single_rank_node() {
        let report = World::new(2)
            .cores_per_node(1)
            .net(NetModel::zero())
            .run(|comm| {
                let data = vec![comm.rank() as u32];
                let (_cg, cl) = comm.refine_comm();
                node_merge(&cl, &data)
            });
        assert_eq!(report.results[0], Some(vec![0]));
        assert_eq!(report.results[1], Some(vec![1]));
    }
}
