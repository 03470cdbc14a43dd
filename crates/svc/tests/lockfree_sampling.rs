//! The lock-free read's timing sample: one lock-free read in
//! [`LOCKFREE_TIME_EVERY`] is timed (plus each thread's first), and the
//! rest are charged their thread's last timed latency. Sampling the clock
//! must not sample the counts: every read is still counted, every
//! histogram still gets one sample per served op, and every exemplar and
//! sampled trace points at a read whose latency was measured.

use std::collections::BTreeSet;
use sudoku_codes::LineData;
use sudoku_svc::telemetry::{TracePath, LOCKFREE_TIME_EVERY};
use sudoku_svc::{Service, ServiceConfig};

const LINES: u64 = 256;
const CLIENTS: u64 = 4;
/// Reads per client; not a multiple of the timing period, so each client
/// ends partway through one.
const READS: u64 = 1_000;

fn pattern(line: u64) -> LineData {
    let mut d = LineData::zero();
    d.set_bit((line as usize * 37) % 512, true);
    d.set_bit((line as usize * 11 + 201) % 512, true);
    d
}

#[test]
fn lockfree_sampling_keeps_every_count_exact() {
    assert_ne!(READS % LOCKFREE_TIME_EVERY, 0);
    let mut config = ServiceConfig::small(LINES, 4, 0.0, 29);
    config.scrub_every = None;
    let service = Service::start(config).unwrap();
    // One thread, no daemon: every write is applied inline, so every line
    // is clean on the view before the readers start.
    for line in 0..LINES {
        service.handle().write(line, &pattern(line)).unwrap();
    }
    let firsts: BTreeSet<u64> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let handle = service.handle();
                s.spawn(move || {
                    let mut first = None;
                    for i in 0..READS {
                        let line = (client * 61 + i * 7) % LINES;
                        let (trace, result) = handle.read_traced(line);
                        assert_eq!(result.unwrap(), pattern(line), "line {line}");
                        first = first.or(trace);
                    }
                    first.expect("an admitted read carries a trace")
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });

    let registry = std::sync::Arc::clone(service.registry());
    let reads = registry.reads.get();
    assert_eq!(reads, CLIENTS * READS);
    assert_eq!(registry.clean_read_lockfree_hits.get(), reads);
    assert_eq!(registry.read_latency_ns.snapshot().count(), reads);
    assert_eq!(registry.shard_service_ns.snapshot().count(), reads + LINES);
    assert_eq!(
        registry.queue_wait_ns.snapshot().count(),
        reads + registry.writes.get()
    );
    assert!(registry.read_latency_ns.snapshot().min() >= 1);

    let (read_exemplars, _) = registry.exemplars();
    assert!(!read_exemplars.is_empty());
    for (bucket, _, trace) in read_exemplars {
        assert!(
            trace.is_multiple_of(LOCKFREE_TIME_EVERY) || firsts.contains(&trace),
            "bucket {bucket}'s exemplar is untimed trace {trace}"
        );
    }
    let sampled: Vec<_> = registry
        .recent_traces()
        .into_iter()
        .filter(|t| t.path == TracePath::Lockfree)
        .collect();
    assert!(
        !sampled.is_empty(),
        "no lock-free read reached the trace ring"
    );
    for t in sampled {
        assert!(t.trace.is_multiple_of(LOCKFREE_TIME_EVERY), "{t:?}");
        assert!(t.service_ns > 0, "{t:?}");
    }

    let report = service.shutdown();
    assert_eq!(report.reads, reads);
    assert_eq!(report.hists.read_latency_ns.count(), reads);
}
