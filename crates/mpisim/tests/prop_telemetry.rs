//! Property tests: what the recorder reports — the always-on totals, the
//! per-phase split, and the inter-node classification — equals a reference
//! computed from the test's own length matrix and rank→node map, for
//! arbitrary all-to-all length matrices and arbitrary rank→node maps.

use mpisim::telemetry::PhaseComm;
use mpisim::{Communicator, NetModel, World};
use proptest::prelude::*;

fn count_for(seed: u64, p: usize, src: usize, dst: usize) -> usize {
    ((seed >> ((src * p + dst) % 48)) % 7) as usize
}

/// What one `alltoallv` of the `count_for` matrix puts on the wire in
/// phase `name`: per ordered pair of distinct ranks one 8-byte count (the
/// `alltoall` of the send counts) and, where the count is non-zero, one
/// chunk of that many `u64`s.
fn alltoallv_reference(name: &str, seed: u64, node_of: &[usize]) -> PhaseComm {
    let p = node_of.len();
    let mut want = PhaseComm {
        name: name.to_string(),
        ..PhaseComm::default()
    };
    for src in 0..p {
        for dst in (0..p).filter(|&dst| dst != src) {
            let count = count_for(seed, p, src, dst) as u64;
            let (messages, bytes) = (1 + u64::from(count > 0), 8 + 8 * count);
            want.messages += messages;
            want.bytes += bytes;
            if node_of[src] != node_of[dst] {
                want.internode_messages += messages;
                want.internode_bytes += bytes;
            }
        }
    }
    want
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn recorder_matches_reference_for_arbitrary_alltoallv(
        p in 2usize..6,
        cores in 1usize..4,
        seed in any::<u64>(),
    ) {
        let node_of: Vec<usize> = (0..p).map(|r| r / cores).collect();
        let want = alltoallv_reference("bulk", seed, &node_of);
        for telemetry in [true, false] {
            let report = World::new(p)
                .cores_per_node(cores)
                .net(NetModel::zero())
                .telemetry(telemetry)
                .run(move |comm| {
                    comm.trace_phase("bulk");
                    let me = comm.rank();
                    let counts: Vec<usize> =
                        (0..p).map(|dst| count_for(seed, p, me, dst)).collect();
                    let mut data = Vec::new();
                    for (dst, &c) in counts.iter().enumerate() {
                        data.extend(std::iter::repeat_n((me * 100 + dst) as u64, c));
                    }
                    comm.alltoallv(&data, &counts);
                });
            // The totals are counted with telemetry on or off.
            prop_assert_eq!((report.messages, report.bytes), (want.messages, want.bytes));
            prop_assert_eq!(report.telemetry.is_some(), telemetry);
            if let Some(snapshot) = report.telemetry {
                prop_assert_eq!(snapshot.phases, vec![want.clone()]);
            }
        }
    }

    #[test]
    fn internode_split_respects_custom_node_maps(
        p in 2usize..6,
        nodes in 1usize..4,
        seed in any::<u64>(),
    ) {
        // Deterministic pseudo-random rank→node map, made dense by
        // construction (node ids re-indexed in first-appearance order).
        let raw: Vec<usize> = (0..p).map(|r| ((seed >> (r % 48)) as usize) % nodes).collect();
        let mut dense: Vec<usize> = Vec::new();
        let mut ids: Vec<usize> = Vec::new();
        for &n in &raw {
            let id = match ids.iter().position(|&x| x == n) {
                Some(i) => i,
                None => {
                    ids.push(n);
                    ids.len() - 1
                }
            };
            dense.push(id);
        }
        let map = dense.clone();
        let report = World::new(p)
            .node_map(map.clone())
            .net(NetModel::zero())
            .telemetry(true)
            .run(move |comm| {
                comm.trace_phase("ring");
                let dst = (comm.rank() + 1) % p;
                let src = (comm.rank() + p - 1) % p;
                comm.send_vec(dst, 7, vec![comm.rank() as u64]);
                let _ = comm.recv_vec::<u64>(src, 7);
            });
        let snapshot = report.telemetry.as_ref().expect("telemetry enabled");
        // Reference count straight off the ring structure.
        let expect_internode =
            (0..p).filter(|&r| map[r] != map[(r + 1) % p]).count() as u64;
        let phase = snapshot
            .phases
            .iter()
            .find(|ph| ph.name == "ring")
            .expect("recorded ring phase");
        prop_assert_eq!(phase.internode_messages, expect_internode);
        prop_assert_eq!(phase.internode_bytes, 8 * expect_internode);
        prop_assert_eq!(snapshot.total_internode_messages(), expect_internode);
    }
}
