//! Driver-level coverage: error surfaces, stats plumbing, and corner
//! configurations of `sds_sort` that the workload-centric suites don't
//! target directly.

use mpisim::{Communicator, NetModel, World};
use sdssort::{sds_sort, SdsConfig, SortError};

fn world(p: usize) -> World {
    World::new(p).cores_per_node(4).net(NetModel::zero())
}

#[test]
fn oom_and_peer_oom_are_distinguished() {
    // Rank budgets are uniform, but only some ranks' receive buffers
    // overflow: those get Oom, the rest PeerOom — and everyone errors.
    let p = 4;
    let n = 4000usize;
    let budget = n * 8 * 3 / 2; // < all-duplicates concentration
    let report = world(p).memory_budget(budget).run(|comm| {
        let mut cfg = SdsConfig::default();
        cfg.tau_m_bytes = 0;
        cfg.partition = sdssort::PartitionStrategy::Classic; // force imbalance
        let data = vec![42u64; n];
        sds_sort(comm, data, &cfg)
    });
    let mut direct = 0;
    let mut peer = 0;
    for r in &report.results {
        match r {
            Err(SortError::Oom(e)) => {
                assert!(e.requested > e.budget - e.available || e.requested > 0);
                direct += 1;
            }
            Err(SortError::PeerOom) => peer += 1,
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("no rank may succeed once any rank OOMs"),
        }
    }
    assert!(direct >= 1, "at least the overloaded rank reports Oom");
    assert_eq!(direct + peer, p);
}

#[test]
fn sort_error_display_messages() {
    let peer = SortError::PeerOom;
    assert!(peer.to_string().contains("peer rank"));
    // Oom carries the memory numbers through.
    let report = world(2).memory_budget(10).run(|comm| {
        let mut cfg = SdsConfig::default();
        cfg.tau_m_bytes = 0;
        sds_sort(comm, vec![1u64, 2, 3], &cfg)
    });
    let err = report.results[0]
        .as_ref()
        .expect_err("tiny budget must fail");
    let msg = err.to_string();
    assert!(
        msg.contains('B') || msg.contains("peer"),
        "useful message: {msg}"
    );
}

#[test]
fn stats_phases_are_nonnegative_and_total() {
    let report = world(4).run(|comm| {
        let data: Vec<u64> = (0..2000).map(|i| (i * 31) % 500).collect();
        let mut cfg = SdsConfig::default();
        cfg.tau_m_bytes = 0;
        sds_sort(comm, data, &cfg).expect("no budget").stats
    });
    for s in report.results {
        assert!(s.pivot_s >= 0.0);
        assert!(s.exchange_s >= 0.0);
        assert!(s.local_order_s >= 0.0);
        assert!(s.other_s >= 0.0);
        let total = s.total_s();
        assert!(total >= s.pivot_s);
        assert_eq!(s.input_count, 2000);
        assert!(s.recv_count > 0);
        assert!(!s.node_merged);
    }
}

#[test]
fn stats_record_node_merge_and_overlap_flags() {
    // node merging on (huge τm): leaders carry node_merged = true.
    let report = world(8).run(|comm| {
        let mut cfg = SdsConfig::default();
        cfg.tau_m_bytes = usize::MAX;
        let data: Vec<u64> = (0..500).map(|i| i * 7 % 100).collect();
        sds_sort(comm, data, &cfg).expect("no budget").stats
    });
    assert!(report.results.iter().all(|s| s.node_merged));

    // overlap on (huge τo, τm off): overlapped = true on every rank.
    let report = world(4).run(|comm| {
        let mut cfg = SdsConfig::default();
        cfg.tau_m_bytes = 0;
        cfg.tau_o = usize::MAX;
        let data: Vec<u64> = (0..500).map(|i| i * 13 % 100).collect();
        sds_sort(comm, data, &cfg).expect("no budget").stats
    });
    assert!(report.results.iter().all(|s| s.overlapped));
}

#[test]
fn single_rank_world_short_circuits() {
    let report = world(1).run(|comm| {
        let data = vec![5u64, 3, 1, 4];
        let out = sds_sort(comm, data, &SdsConfig::default()).expect("no budget");
        assert_eq!(out.stats.recv_count, 4);
        out.data
    });
    assert_eq!(report.results[0], vec![1, 3, 4, 5]);
}

#[test]
fn stable_flag_survives_every_config_combination() {
    // stable × {τs merge, τs sort} × {node merge on, off}: all stable.
    for tau_s in [0usize, usize::MAX] {
        for tau_m in [0usize, usize::MAX] {
            let report = world(4).run(move |comm| {
                let mut cfg = SdsConfig::stable();
                cfg.tau_s = tau_s;
                cfg.tau_m_bytes = tau_m;
                let data: Vec<sdssort::Tagged<u8>> = (0..600u64)
                    .map(|i| sdssort::Record::new((i % 5) as u8, ((comm.rank() as u64) << 32) | i))
                    .collect();
                sds_sort(comm, data, &cfg).expect("no budget").data
            });
            let flat: Vec<sdssort::Tagged<u8>> = report.results.into_iter().flatten().collect();
            assert_eq!(flat.len(), 2400);
            for w in flat.windows(2) {
                assert!(w[0].key <= w[1].key, "τs={tau_s} τm={tau_m}: key order");
                if w[0].key == w[1].key {
                    assert!(
                        w[0].payload < w[1].payload,
                        "τs={tau_s} τm={tau_m}: stability"
                    );
                }
            }
        }
    }
}

#[test]
fn output_memory_reservation_is_released() {
    // After a successful sort the tracker must show zero bytes in use
    // (high-water > 0 proves the reservation happened).
    let report = world(4).memory_budget(1 << 20).run(|comm| {
        let mut cfg = SdsConfig::default();
        cfg.tau_m_bytes = 0;
        let data: Vec<u64> = (0..2000).map(|i| i * 3 % 700).collect();
        sds_sort(comm, data, &cfg).expect("fits");
        let uni = comm.universe();
        (
            uni.budget().used(comm.world_rank()),
            uni.budget().high_water(comm.world_rank()),
        )
    });
    for (used, high) in report.results {
        assert_eq!(used, 0, "reservations must be released");
        assert!(high > 0, "the receive buffer was actually charged");
    }
}
