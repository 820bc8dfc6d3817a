// xlint fixture: the sanctioned shape of a sorter — a rule the one driver
// calls with its input sorted and the clock running. It enters its own
// steps and ends in the exchange. Zero driver-owns-prelude findings under
// an `algos` or `sdssort/src/sort.rs` path. Never compiled.

fn rule<C: Communicator>(comm: &C, data: Vec<u64>, clock: &mut Clock) -> Result<Vec<u64>, SortError> {
    clock.enter(Step::Splitters);
    let pivots = select_pivots(comm, &data);
    clock.enter(Step::Partition);
    let cuts = partition::cuts_at(&data, &pivots);
    exchange::exchange(comm, data, &cuts, clock)
}

fn lookalikes(now: f64, since: &Reading) -> f64 {
    // A value named `now` and a field read are not the clock's call.
    now - since.now
}
