//! Property tests: `RunReport` JSON serialization is lossless — an
//! arbitrary populated report survives serialize → parse → deserialize
//! bit-for-bit, and the canonical text is stable across round-trips.

use proptest::prelude::*;
use telemetry::{Decisions, Json, MemoryReport, Recorder, RunReport, WorldMeta};

/// Build a recorder snapshot whose contents are all derived from `seed`.
fn seeded_report(seed: u64, ranks: usize, phases: usize, spans: usize) -> RunReport {
    let node_of: Vec<usize> = (0..ranks).map(|r| (seed as usize + r) % 3).collect();
    let rec = Recorder::new(node_of, true);
    let mix = |i: u64| -> u64 {
        let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    };
    for ph in 0..phases {
        for rank in 0..ranks {
            rec.set_phase(rank, &format!("phase-{ph}"));
        }
        for i in 0..(mix(ph as u64) % 5) {
            let src = (mix(i) % ranks as u64) as usize;
            let dst = (mix(i + 100) % ranks as u64) as usize;
            rec.on_send(src, dst, (mix(i + 200) % 10_000) as usize);
        }
    }
    for s in 0..spans {
        let rank = (mix(s as u64 + 300) % ranks as u64) as usize;
        let start = (mix(s as u64 + 400) % 1000) as f64 / 256.0;
        let id = rec.span_begin(rank, &format!("span-{}", s % 3), start);
        rec.span_end(id, start + (mix(s as u64 + 500) % 100) as f64 / 64.0);
    }
    rec.count("coll.alltoallv", mix(600) % 40);
    rec.observe("msg.bytes", mix(700) % 100_000);
    rec.gauge_max("mem.high_water", (mix(800) % 1_000_000) as f64);
    rec.event(0, "tau", "decision detail", 0.25);
    rec.add_compute(0, (mix(900) % 1000) as f64 / 997.0);
    rec.add_comm(ranks - 1, (mix(1000) % 1000) as f64 / 991.0);

    let loads: Vec<u64> = (0..ranks as u64).map(|r| mix(r + 1100) % 5000).collect();
    let mut report = RunReport::from_snapshot("prop", rec.snapshot(), loads);
    report.config = vec![
        ("workload".to_string(), Json::from("zipf:1.4")),
        ("n_rank".to_string(), Json::from(mix(1200) % 100_000)),
        (
            "scale".to_string(),
            Json::from(mix(1300) as f64 / u64::MAX as f64),
        ),
    ];
    report.world = WorldMeta {
        ranks,
        cores_per_node: 3,
        nodes: 3,
    };
    report.decisions = Decisions {
        tau_m_bytes: mix(1400) % (1 << 20),
        tau_o: mix(1500) % 4096,
        tau_s: mix(1600) % 4096,
        stable: mix(1700) % 2 == 0,
        node_merged: mix(1800) % 2 == 0,
        overlapped: mix(1900) % 2 == 0,
    };
    report.memory = MemoryReport {
        budget: (mix(2000) % 2 == 0).then(|| mix(2100) % (1 << 30)),
        max_high_water: mix(2200) % (1 << 30),
        per_rank_high_water: (0..ranks as u64)
            .map(|r| mix(r + 2300) % (1 << 30))
            .collect(),
    };
    report.makespan_v = (mix(2400) % 1_000_000) as f64 / 1e4;
    report.wall_s = (mix(2500) % 1_000_000) as f64 / 1e6;
    report
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn run_report_roundtrips_losslessly(
        seed in any::<u64>(),
        ranks in 1usize..6,
        phases in 0usize..4,
        spans in 0usize..8,
    ) {
        let report = seeded_report(seed, ranks, phases, spans);
        let text = report.to_json_string();
        let back = RunReport::from_json_str(&text).expect("valid JSON round-trips");
        prop_assert_eq!(&back, &report);
        // Canonical form: re-serializing the parsed report reproduces the
        // exact same bytes.
        prop_assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn parsed_json_value_equals_original(
        seed in any::<u64>(),
        ranks in 1usize..5,
    ) {
        let report = seeded_report(seed, ranks, 2, 4);
        let doc = report.to_json();
        let reparsed = Json::parse(&doc.to_string_pretty()).expect("pretty JSON parses");
        prop_assert_eq!(reparsed, doc);
    }
}
