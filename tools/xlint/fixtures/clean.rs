// xlint fixture: the sanctioned spellings of everything banned_patterns.rs
// does wrong. Scanned under the same fake scoped paths and must produce zero
// violations. Never compiled.

const PIVOT_TAG: u64 = 7;

fn virtual_time(clock: &mut VirtualClock) {
    clock.charge(1e-3);
}

fn seqcst(x: &std::sync::atomic::AtomicU64) {
    let _ = x.load(std::sync::atomic::Ordering::SeqCst);
}

fn documented_unsafe(p: *const u8, n: usize) -> u8 {
    assert!(n > 0);
    // SAFETY: caller guarantees p points to n > 0 readable bytes; asserted
    // non-empty above, so reading the first byte is in bounds.
    unsafe { *p }
}

fn expect_with_invariant(x: Option<u8>) {
    let _ = x.expect("slot was filled by the loop above");
}

fn named_tag(comm: &Comm) {
    comm.send_val(1, PIVOT_TAG, 0u64);
    let _ = comm.recv_vec::<u64>(0, PIVOT_TAG);
}

fn seeded(seed: u64) {
    let _rng = StdRng::seed_from_u64(seed);
}
