// xlint fixture: seeded violations, one per rule. This file is excluded from
// the workspace walk (see SKIP_DIRS in tools/xlint/src/lib.rs) and is scanned
// by tools/xlint/tests/fixtures.rs under fake scoped paths to prove each rule
// fires on real source text. It is never compiled.

use std::time::Instant; // wallclock

fn wallclock() {
    let _t = Instant::now(); // wallclock
    std::thread::sleep(std::time::Duration::from_millis(1)); // wallclock
}

fn relaxed(x: &std::sync::atomic::AtomicU64) {
    let _ = x.load(std::sync::atomic::Ordering::Relaxed); // relaxed-ordering
}

fn undocumented_unsafe(p: *const u8) -> u8 {
    unsafe { *p } // safety-comment: no SAFETY comment above
}

fn unwraps(x: Option<u8>, msg: &str) {
    let _ = x.unwrap(); // no-unwrap
    let _ = x.expect(msg); // no-unwrap: non-literal message
}

fn literal_tag(comm: &Comm) {
    comm.send_val(1, 7, 0u64); // tag-discipline
    let _ = comm.recv_vec::<u64>(0, 3); // tag-discipline
    comm.send_val(0, 281474976710656, 0u64); // tag-discipline: 2^48 is reserved
}

fn entropy() {
    let _rng = rand::thread_rng(); // workload-determinism
}
