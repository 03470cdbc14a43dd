//! The shard mutex is the demand queue. While one thread holds shard 0's
//! session, a write to a shard-0 line started on another thread waits on
//! the mutex counted in `shard_depth(0)`, and at a queue bound of 1 the
//! wire server answers a GET to shard 0 with RETRY instead of blocking a
//! handler behind it. Once the hold ends the write lands, the gauge is
//! back at 0, and the wait is on record: a `queue_wait_ns` sample at least
//! as long as the hold, and a `Queued` trace in the ring.

use std::sync::Arc;
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use sudoku_net::{NetConfig, NetServer, Status, WireClient};
use sudoku_svc::telemetry::{TracePath, TRACE_SAMPLE};
use sudoku_svc::{Service, ServiceConfig};

/// How long shard 0's mutex stays held once the write waits on it.
const HOLD: Duration = Duration::from_millis(50);

#[test]
fn a_write_waiting_on_a_held_shard_is_counted_timed_and_shed_on_the_wire() {
    let mut config = ServiceConfig::small(256, 4, 0.0, 17);
    config.scrub_every = None;
    config.queue_depth = 1;
    let service = Service::start(config).unwrap();
    let handle = service.handle();
    let registry = Arc::clone(service.registry());
    let server = NetServer::start(handle.clone(), NetConfig::default()).expect("ephemeral bind");
    let mut client = WireClient::connect(server.addr(), Some(Duration::from_secs(1))).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let line = (0..256u64).find(|&l| handle.shard_of(l) == 0).unwrap();
    let mut data = LineData::zero();
    data.set_bit(77, true);
    // No request has been admitted yet, so the write gets trace 0: a
    // sampled ID, whose record the ring keeps.
    assert_eq!(registry.traces_issued() % TRACE_SAMPLE, 0);

    let held = service.state().session(0).unwrap();
    let (trace, held_for) = std::thread::scope(|s| {
        let writer = s.spawn(|| handle.write_traced(line, &data));
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.shard_depth(0) == 0 {
            assert!(
                Instant::now() < deadline,
                "the write never showed up waiting on shard 0"
            );
            std::thread::yield_now();
        }
        let waiting = Instant::now();
        assert_eq!(handle.shard_depth(0), 1);
        let get = client.get(line).unwrap();
        assert_eq!(get.status, Status::Retry, "{get:?}");
        std::thread::sleep(HOLD.saturating_sub(waiting.elapsed()));
        let held_for = waiting.elapsed();
        drop(held);
        let (trace, result) = writer.join().unwrap();
        result.unwrap();
        (trace.expect("an admitted write carries a trace"), held_for)
    });

    assert_eq!(handle.shard_depth(0), 0);
    assert_eq!(handle.read(line).unwrap(), data);
    let held_ns = held_for.as_nanos() as u64;
    let waits = registry.queue_wait_ns.snapshot();
    assert!(
        waits.max() >= held_ns,
        "longest queue wait {} ns, hold {held_ns} ns",
        waits.max()
    );
    let record = registry
        .recent_traces()
        .into_iter()
        .find(|t| t.trace == trace)
        .expect("the waiting write's trace is in the ring");
    assert_eq!(record.path, TracePath::Queued, "{record:?}");
    assert!(record.write, "{record:?}");
    assert!(record.queue_wait_ns >= held_ns, "{record:?}");

    drop(client);
    server.shutdown();
    let report = service.shutdown();
    assert_eq!(report.writes, 1);
    assert_eq!(report.failed_writes, 0);
}
