//! A configuration no world can run must fail where the service is
//! started, never produce a service that accepts jobs nobody will run.

use service::{JobSpec, ServiceConfig, SortService};
use std::sync::mpsc;
use std::time::Duration;

/// Start a service with `cfg` and, if that succeeds, submit a job and wait
/// for it — on a helper thread, so a service whose dispatcher died (which
/// used to leave `wait` blocked forever) shows up here as a timeout
/// instead of hanging the suite. Returns whether `start` panicked.
fn start_panics(cfg: ServiceConfig) -> bool {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let started = std::panic::catch_unwind(move || {
            let svc = SortService::start(cfg);
            let ticket = svc.client().submit(JobSpec::new("uniform", 100, 1));
            ticket.expect("service accepting").wait();
        });
        let _ = done.send(started.is_err());
    });
    finished
        .recv_timeout(Duration::from_secs(20))
        .expect("start neither failed nor served the job: the service hangs")
}

#[test]
fn zero_ranks_fails_at_start() {
    assert!(start_panics(ServiceConfig::new(0)));
}

#[test]
fn zero_cores_per_node_fails_at_start() {
    let mut cfg = ServiceConfig::new(2);
    cfg.cores_per_node = 0;
    assert!(start_panics(cfg));
}

#[test]
fn a_valid_config_still_serves() {
    assert!(!start_panics(ServiceConfig::new(2)));
}
