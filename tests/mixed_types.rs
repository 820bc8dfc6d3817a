//! Type-diversity matrix: the sorters are generic over record types; this
//! exercises the combinations real users hit — float keys, wide payloads,
//! shared-memory threading inside ranks — across the full pipeline.

mod common;

use common::assert_global_sort;
use mpisim::{Communicator, NetModel, World};
use rand::prelude::*;
use sdssort::record::Pad;
use sdssort::{sds_sort, OrderedF32, OrderedF64, Record, SdsConfig};

fn world(p: usize) -> World {
    World::new(p).cores_per_node(4).net(NetModel::zero())
}

#[test]
fn f64_keys_with_negatives_and_infinities() {
    let report = world(6).run(|comm| {
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64 + 1);
        let mut data: Vec<OrderedF64> = (0..2000)
            .map(|_| OrderedF64::new((rng.gen::<f64>() - 0.5) * 1e12))
            .collect();
        data.push(OrderedF64::new(f64::NEG_INFINITY));
        data.push(OrderedF64::new(f64::INFINITY));
        data.push(OrderedF64::new(-0.0));
        data.push(OrderedF64::new(0.0));
        let out = sds_sort(comm, data.clone(), &SdsConfig::default()).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_global_sort(&inputs, &outputs, |k| *k);
    // -inf first, +inf last in the concatenation
    let flat: Vec<OrderedF64> = outputs.into_iter().flatten().collect();
    assert_eq!(flat.first().map(|k| k.value()), Some(f64::NEG_INFINITY));
    assert_eq!(flat.last().map(|k| k.value()), Some(f64::INFINITY));
}

#[test]
fn wide_payload_records_survive_exchange() {
    // 24-byte opaque payloads (the cosmology shape) with narrow keys.
    type Rec = Record<u32, Pad<24>>;
    let report = world(4).run(|comm| {
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64 + 7);
        let data: Vec<Rec> = (0..1500)
            .map(|i| {
                let mut pad = [0u8; 24];
                pad[..8].copy_from_slice(&(i as u64).to_le_bytes());
                pad[8] = comm.rank() as u8;
                Record::new(rng.gen_range(0..50u32), Pad(pad))
            })
            .collect();
        let out = sds_sort(comm, data.clone(), &SdsConfig::default()).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    // project key + full payload bytes: any corruption in transit fails
    assert_global_sort(&inputs, &outputs, |r| (r.key, r.payload.0));
}

#[test]
fn f32_key_with_payload_stable() {
    type Rec = Record<OrderedF32, u64>;
    let mut cfg = SdsConfig::stable();
    cfg.tau_m_bytes = 0;
    let report = world(6).run(|comm| {
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64 + 3);
        let data: Vec<Rec> = (0..2000u64)
            .map(|i| {
                // quantized scores → heavy duplication
                let score = (rng.gen_range(0..20) as f32) / 20.0;
                Record::new(OrderedF32::new(score), ((comm.rank() as u64) << 32) | i)
            })
            .collect();
        let out = sds_sort(comm, data.clone(), &cfg).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_global_sort(&inputs, &outputs, |r| (r.key, r.payload));
    // stability on equal float keys
    let flat: Vec<Rec> = outputs.into_iter().flatten().collect();
    for w in flat.windows(2) {
        if w[0].key == w[1].key {
            assert!(w[0].payload < w[1].payload, "stable order violated");
        }
    }
}

#[test]
fn signed_integer_keys() {
    let report = world(5).run(|comm| {
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64 + 11);
        let data: Vec<i64> = (0..1800).map(|_| rng.gen_range(-1000..1000)).collect();
        let out = sds_sort(comm, data.clone(), &SdsConfig::default()).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_global_sort(&inputs, &outputs, |&k| k);
    let flat: Vec<i64> = outputs.into_iter().flatten().collect();
    assert!(
        flat.first().copied().unwrap_or(0) < 0,
        "negatives must sort first"
    );
}

#[test]
fn local_threads_inside_ranks() {
    // SdssLocalSort with c = 2 threads per simulated rank (nested
    // parallelism: the shared-memory path inside the distributed path).
    let mut cfg = SdsConfig::default();
    cfg.local_threads = 2;
    cfg.tau_m_bytes = 0;
    let report = world(4).run(|comm| {
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64 + 13);
        let data: Vec<u64> = (0..5000).map(|_| rng.gen_range(0..400)).collect();
        let out = sds_sort(comm, data.clone(), &cfg).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_global_sort(&inputs, &outputs, |&k| k);
}

#[test]
fn u128_keys() {
    let report = world(4).run(|comm| {
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64 + 17);
        let data: Vec<u128> = (0..1200)
            .map(|_| (rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128)
            .collect();
        let out = sds_sort(comm, data.clone(), &SdsConfig::default()).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    assert_global_sort(&inputs, &outputs, |&k| k);
}
