//! Distributed radix sort: correctness on benign inputs, OOM on skew.

use baselines::radix_sort;
use mpisim::{Communicator, NetModel, World};
use sdssort::{OrderedF32, Record, SortError};
use workloads::{uniform_u64, zipf_keys};

fn world(p: usize) -> World {
    World::new(p).cores_per_node(4).net(NetModel::zero())
}

fn check_sorted_permutation(inputs: &[Vec<u64>], outputs: &[Vec<u64>]) {
    let flat: Vec<u64> = outputs.iter().flatten().copied().collect();
    assert!(flat.windows(2).all(|w| w[0] <= w[1]), "not globally sorted");
    let mut a: Vec<u64> = inputs.iter().flatten().copied().collect();
    let mut b = flat;
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "not a permutation");
}

#[test]
fn radix_sorts_uniform_various_p() {
    for p in [1usize, 2, 4, 7, 8] {
        let report = world(p).run(|comm| {
            let data = uniform_u64(2000, 5, comm.rank());
            let out = radix_sort(comm, data.clone()).expect("no budget");
            (data, out.data)
        });
        let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
        check_sorted_permutation(&inputs, &outputs);
    }
}

#[test]
fn radix_sorts_small_key_domain() {
    // Narrow keys exercise the adaptive shift (top bits of the used range).
    let report = world(6).run(|comm| {
        let data: Vec<u64> = uniform_u64(1500, 9, comm.rank())
            .into_iter()
            .map(|k| k % 256)
            .collect();
        let out = radix_sort(comm, data.clone()).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    check_sorted_permutation(&inputs, &outputs);
}

#[test]
fn radix_sorts_float_keys() {
    let report = world(4).run(|comm| {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64);
        let data: Vec<Record<OrderedF32, u32>> = (0..1000)
            .map(|i| Record::new(OrderedF32::new(rng.gen::<f32>() * 2.0 - 1.0), i))
            .collect();
        let out = radix_sort(comm, data).expect("no budget");
        out.data
    });
    let flat: Vec<f32> = report
        .results
        .iter()
        .flatten()
        .map(|r| r.key.value())
        .collect();
    assert!(flat.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(flat.len(), 4000);
}

#[test]
fn radix_handles_zipf_without_budget() {
    let report = world(8).run(|comm| {
        let data = zipf_keys(2000, 0.9, 3, comm.rank());
        let out = radix_sort(comm, data.clone()).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    check_sorted_permutation(&inputs, &outputs);
    // the popular digit pins its whole population on one rank
    let max = outputs.iter().map(Vec::len).max().unwrap();
    let avg = 2000;
    assert!(max > avg, "radix should show imbalance on zipf (max {max})");
}

#[test]
fn radix_ooms_on_heavy_duplicates_under_budget() {
    let p = 8;
    let n = 4000usize;
    let budget = 6 * n * 8; // same budget that SDS-Sort survives
    let world = World::new(p)
        .cores_per_node(4)
        .net(NetModel::zero())
        .memory_budget(budget);
    let res = world.run(|comm| {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64 ^ 0xDEAD);
        let data: Vec<u64> = (0..n as u64)
            .map(|_| {
                if rng.gen_bool(0.99) {
                    123
                } else {
                    rng.gen_range(0..1000)
                }
            })
            .collect();
        radix_sort(comm, data).map(|o| o.data.len())
    });
    assert!(
        res.results.iter().all(Result::is_err),
        "radix sort must OOM on 99% duplicates under the budget SDS-Sort survives"
    );
    assert!(res
        .results
        .iter()
        .any(|r| matches!(r, Err(SortError::Oom(_)))));
}

#[test]
fn radix_empty_and_tiny() {
    let report = world(4).run(|comm| {
        let data: Vec<u64> = if comm.rank() == 1 { vec![42] } else { vec![] };
        radix_sort(comm, data).expect("no budget").data
    });
    let total: usize = report.results.iter().map(Vec::len).sum();
    assert_eq!(total, 1);
}

#[test]
fn radix_full_u64_range_boundaries() {
    // Keys saturating the top of the u64 range exercise the 2^64 boundary
    // arithmetic in the digit-range cuts.
    let report = world(4).run(|comm| {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(comm.rank() as u64 + 77);
        let mut data: Vec<u64> = (0..1000).map(|_| rng.gen()).collect();
        data.extend([u64::MAX, u64::MAX - 1, 0, 1]);
        let out = radix_sort(comm, data.clone()).expect("no budget");
        (data, out.data)
    });
    let (inputs, outputs): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    check_sorted_permutation(&inputs, &outputs);
}
