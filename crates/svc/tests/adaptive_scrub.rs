//! Adaptive scrub convergence under sustained tick overrun.
//!
//! This timing test lives in its own binary so it runs alone: the daemon
//! thread must get the CPU on schedule for the deadline math to mean
//! anything. Beside the rest of the svc unit tests on a 2-CPU machine, the
//! controller's floor already sits at full coverage (every packet swept
//! every visit), yet whole visits arrive more than the 20 ms deadline
//! apart because sibling tests hold both cores; those misses measure the
//! neighbours, not the controller.

use std::sync::Arc;
use std::time::Duration;
use sudoku_svc::{Service, ServiceConfig};

#[test]
fn adaptive_scrub_recovers_deadline_under_tick_overrun() {
    // Regression for the cadence-drift bug: the old loop computed each
    // tick deadline as `now + tick` *after* the previous tick's work,
    // so sustained overrun silently stretched the achieved period
    // while the startup quota kept assuming the ideal one — packets
    // quietly blew the 20 ms contract forever. With the absolute
    // schedule + adaptive controller, the overrun shows up as tick
    // lag, the achieved-period EWMA lifts the quota floor, and misses
    // stop once the controller converges.
    let mut config = ServiceConfig::small(1024, 4, 0.0, 21);
    config.scrub_every = Some(Duration::from_millis(1));
    let service = Service::start(config).unwrap();
    // Artificial per-tick work: ~2 ms of stall against a 1 ms tick,
    // i.e. every tick overruns its period threefold.
    for _ in 0..50 {
        service.inject_daemon_stall(Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(3));
    }
    let mid_misses = service.audit().tracker.total_misses();
    for _ in 0..50 {
        service.inject_daemon_stall(Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(3));
    }
    let registry = Arc::clone(service.registry());
    let plane = Arc::clone(service.audit());
    let report = service.shutdown();
    let lag = registry.tick_lag_ns.snapshot();
    // Converged: the second half of the run adds (at most a straggler
    // or two of) no new misses. The old static quota missed on every
    // revisit here — dozens in this window.
    let late_misses = report.scrub_deadline_misses - mid_misses;
    assert!(
        late_misses <= 4,
        "controller failed to converge: {late_misses} new misses after warmup \
         (total {}, quota floor ended at {}, worst tick lag {} ns)",
        report.scrub_deadline_misses,
        registry.scrub_floor_quota.get(),
        lag.max()
    );
    // The overrun is surfaced as tick lag, not hidden by the schedule.
    assert!(lag.count() > 0);
    assert!(lag.max() >= 1_000_000, "2 ms stalls must show up as lag");
    // The bulk of the achieved intervals sit inside the envelope.
    let achieved = plane.tracker.achieved_hist_all();
    assert!(
        achieved.quantile(0.50) <= plane.tracker.deadline_ns(),
        "median achieved interval {} ns blew the deadline",
        achieved.quantile(0.50)
    );
    // Backpressure (stall-induced lag = pressure 1) pinned the quota
    // at its floor at least once along the way — the clamp counter is
    // what the watchdog's floor-breach alert keys on.
    assert!(report.scrub_floor_clamps > 0);
}
