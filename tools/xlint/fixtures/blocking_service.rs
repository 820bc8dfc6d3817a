// xlint fixture: blocking calls inside the resident service — each one
// parks a pool rank or the dispatcher itself, defeating the bounded
// mailbox's backpressure. Scanned under a crates/service path by
// tools/xlint/tests/fixtures.rs; never compiled.

fn drain_with_sleep(queue: &JobQueue) {
    while queue.is_empty() {
        std::thread::sleep(std::time::Duration::from_millis(10)); // blocking-in-dispatcher
    }
}

fn wait_for_outcome(rx: &mpsc::Receiver<Outcome>) -> Outcome {
    rx.recv().expect("worker holds the sender") // blocking-in-dispatcher
}

fn poll_with_deadline(rx: &mpsc::Receiver<Outcome>) {
    let _ = rx.recv_timeout(std::time::Duration::from_secs(1)); // blocking-in-dispatcher
    std::thread::park(); // blocking-in-dispatcher
}

use std::thread::sleep as nap; // blocking-in-dispatcher: binding renames thread::sleep
use std::thread::park; // blocking-in-dispatcher: binding of thread::park

fn evasive_waits() {
    nap(std::time::Duration::from_millis(10)); // blocking-in-dispatcher: resolves to thread::sleep
    park(); // blocking-in-dispatcher: resolves to thread::park
}
