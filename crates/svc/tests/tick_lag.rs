//! Scrub-daemon wakeup precision on an idle service.
//!
//! This timing test lives in its own binary so it runs alone: it measures
//! how late the daemon wakes for its tick, and sibling tests holding the
//! CPUs would measure the neighbours instead.

use std::sync::Arc;
use std::time::Duration;
use sudoku_svc::{Service, ServiceConfig};

#[test]
fn idle_daemon_wakes_close_to_its_tick_deadline() {
    // Regression for the sleep overshoot: the tick wait slept a fixed
    // `min(tick, 1 ms)` slice however little time was left, so a 1 ms
    // tick usually woke a whole slice late. Sleeping `min(time left,
    // 1 ms)` lands on the deadline; the lag left is the OS wakeup
    // latency plus the tick's own work.
    let mut config = ServiceConfig::small(1024, 4, 0.0, 29);
    config.scrub_every = Some(Duration::from_millis(1));
    let service = Service::start(config).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let registry = Arc::clone(service.registry());
    service.shutdown();
    let lag = registry.tick_lag_ns.snapshot();
    assert!(lag.count() > 50, "the daemon ticked: {} ticks", lag.count());
    assert!(
        lag.quantile(0.50) <= 1 << 18,
        "median tick lag {} ns over {} ticks (p99 {} ns)",
        lag.quantile(0.50),
        lag.count(),
        lag.quantile(0.99)
    );
}
