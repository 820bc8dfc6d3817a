//! Property tests: the telemetry recorder agrees with the `Tracer` traffic
//! matrices — totals, per-phase splits, and inter-node classification —
//! for arbitrary all-to-all length matrices and arbitrary rank→node maps.

use mpisim::{Communicator, NetModel, Topology, World};
use proptest::prelude::*;

fn count_for(seed: u64, p: usize, src: usize, dst: usize) -> usize {
    ((seed >> ((src * p + dst) % 48)) % 7) as usize
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn recorder_matches_tracer_for_arbitrary_alltoallv(
        p in 2usize..6,
        cores in 1usize..4,
        seed in any::<u64>(),
    ) {
        let report = World::new(p)
            .cores_per_node(cores)
            .net(NetModel::zero())
            .trace(true)
            .telemetry(true)
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
        let snapshot = report.telemetry.as_ref().expect("telemetry enabled");
        // Whole-run totals: every traced message is also recorded.
        let traced_msgs: u64 =
            report.trace_phases.iter().map(|(_, t)| t.total_messages()).sum();
        let traced_bytes: u64 =
            report.trace_phases.iter().map(|(_, t)| t.total_bytes()).sum();
        prop_assert_eq!(snapshot.total_messages(), traced_msgs);
        prop_assert_eq!(snapshot.total_bytes(), traced_bytes);
        // Per-phase totals and inter-node splits agree with the tracer's
        // matrix folded through the same topology.
        for (name, traffic) in &report.trace_phases {
            let phase = snapshot
                .phases
                .iter()
                .find(|ph| &ph.name == name)
                .expect("recorder saw the same phase");
            prop_assert_eq!(phase.messages, traffic.total_messages());
            prop_assert_eq!(phase.bytes, traffic.total_bytes());
            prop_assert_eq!(
                phase.internode_messages,
                traffic.internode_messages(&report.topology)
            );
            prop_assert_eq!(
                phase.internode_bytes,
                traffic.internode_bytes(&report.topology)
            );
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
            .trace(true)
            .telemetry(true)
            .run(move |comm| {
                comm.trace_phase("ring");
                let dst = (comm.rank() + 1) % p;
                let src = (comm.rank() + p - 1) % p;
                comm.send_vec(dst, 7, vec![comm.rank() as u64]);
                let _ = comm.recv_vec::<u64>(src, 7);
            });
        let snapshot = report.telemetry.as_ref().expect("telemetry enabled");
        let topo = Topology::with_node_map(map.clone());
        // Reference count straight off the ring structure.
        let expect_internode =
            (0..p).filter(|&r| map[r] != map[(r + 1) % p]).count() as u64;
        let traffic = report
            .trace_phases
            .iter()
            .find(|(n, _)| n == "ring")
            .map(|(_, t)| t)
            .expect("traced ring phase");
        prop_assert_eq!(traffic.internode_messages(&topo), expect_internode);
        let phase = snapshot
            .phases
            .iter()
            .find(|ph| ph.name == "ring")
            .expect("recorded ring phase");
        prop_assert_eq!(phase.internode_messages, expect_internode);
        prop_assert_eq!(snapshot.total_internode_messages(), expect_internode);
    }
}
