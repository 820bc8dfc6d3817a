// xlint fixture: a distributed sorter doing the one driver's work itself —
// it reads the phase clock, opens a span and sorts its own input.
// Scanned under an `algos` path by tools/xlint/tests/fixtures.rs; never
// compiled.

fn own_prelude<C: Communicator>(comm: &C, mut data: Vec<u64>) -> Vec<u64> {
    let t0 = comm.now(); // driver-owns-prelude: the driver's clock
    let span = recorder().span_begin(comm.world_rank(), "local-sort", t0); // driver-owns-prelude
    data.sort_unstable_by_key(|&k| k); // driver-owns-prelude: the driver's local sort
    data
}
