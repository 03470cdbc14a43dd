//! The watchdog reads only atomics and the heatmap grids, so a shard
//! mutex held for a long time cannot silence it: while one thread holds
//! shard 0's session, a panic on shard 1 must still reach the `/healthz`
//! reason list within 1 s.

use std::time::{Duration, Instant};
use sudoku_svc::{Service, ServiceConfig};

#[test]
fn watchdog_keeps_scanning_while_a_shard_mutex_is_held() {
    let mut config = ServiceConfig::small(4096, 4, 0.0, 7);
    config.scrub_every = None;
    let service = Service::start(config).unwrap();
    let handle = service.handle();
    let want = "shard_quarantined shard=1".to_string();
    {
        let _held = service.state().session(0).unwrap();
        // Longer than the watchdog's grid-sampling period (250 ms by
        // default), so a scan that needed shard 0 would be parked on it.
        std::thread::sleep(Duration::from_millis(400));
        handle.inject_worker_panic(1, false).unwrap();
        let deadline = Instant::now() + Duration::from_secs(1);
        while !service.audit().degraded_reasons().contains(&want) {
            assert!(
                Instant::now() < deadline,
                "no `{want}` within 1 s while shard 0's mutex is held: {:?}",
                service.audit().degraded_reasons()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let report = service.shutdown();
    assert_eq!(report.quarantined, vec![1]);
}
