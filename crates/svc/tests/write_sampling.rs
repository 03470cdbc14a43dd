//! The inline write's timing sample: one inline write in
//! [`LOCKFREE_TIME_EVERY`] is timed (plus each thread's first), and the
//! rest are charged their thread's last timed inline-write latency, the
//! rule lock-free reads follow. Sampling the clock must not sample the
//! counts: every write is still counted, every histogram still gets one
//! sample per served op, and every exemplar and sampled trace points at a
//! write whose latency was measured.

use std::collections::{BTreeMap, BTreeSet};
use sudoku_codes::LineData;
use sudoku_core::ShardPlan;
use sudoku_svc::telemetry::{TracePath, LOCKFREE_TIME_EVERY};
use sudoku_svc::{Service, ServiceConfig};

const LINES: u64 = 256;
const CLIENTS: usize = 4;
/// Writes per client; not a multiple of the timing period, so each client
/// ends partway through one.
const WRITES: u64 = 1_000;

fn versioned(line: u64, version: u64) -> LineData {
    let mut d = LineData::zero();
    d.set_bit((line as usize * 37) % 512, true);
    d.set_bit((version as usize * 11 + 201) % 512, true);
    d
}

#[test]
fn inline_write_sampling_keeps_every_count_exact() {
    assert_ne!(WRITES % LOCKFREE_TIME_EVERY, 0);
    let mut config = ServiceConfig::small(LINES, CLIENTS, 0.0, 31);
    config.scrub_every = None;
    let plan = ShardPlan::new(&config.cache, CLIENTS).unwrap();
    let service = Service::start(config).unwrap();
    // Client `c` writes only lines of shard `c`, and no daemon runs, so no
    // claim is ever contended: every write is served inline.
    let per_client: Vec<(u64, BTreeMap<u64, LineData>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let handle = service.handle();
                let plan = &plan;
                s.spawn(move || {
                    let owned = plan.owned_line_count(client);
                    let mut first = None;
                    let mut last = BTreeMap::new();
                    for i in 0..WRITES {
                        let line = plan.owned_line_at(client, (i * 7) % owned);
                        let data = versioned(line, i);
                        let (trace, result) = handle.write_traced(line, &data);
                        result.unwrap();
                        first = first.or(trace);
                        last.insert(line, data);
                    }
                    (first.expect("an admitted write carries a trace"), last)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let firsts: BTreeSet<u64> = per_client.iter().map(|(first, _)| *first).collect();
    let last: BTreeMap<u64, LineData> = per_client.into_iter().flat_map(|(_, l)| l).collect();

    let registry = std::sync::Arc::clone(service.registry());
    let writes = registry.writes.get();
    assert_eq!(writes, CLIENTS as u64 * WRITES);
    assert_eq!(registry.failed_writes.get(), 0);
    assert_eq!(registry.write_latency_ns.snapshot().count(), writes);
    assert!(registry.write_latency_ns.snapshot().min() >= 1);

    let (_, write_exemplars) = registry.exemplars();
    assert!(!write_exemplars.is_empty());
    for (bucket, _, trace) in write_exemplars {
        assert!(
            trace.is_multiple_of(LOCKFREE_TIME_EVERY) || firsts.contains(&trace),
            "bucket {bucket}'s exemplar is untimed trace {trace}"
        );
    }
    let traces = registry.recent_traces();
    assert!(
        traces.iter().all(|t| t.path != TracePath::Queued),
        "an uncontended write was queued"
    );
    let sampled: Vec<_> = traces
        .into_iter()
        .filter(|t| t.write && t.path == TracePath::Inline)
        .collect();
    assert!(
        !sampled.is_empty(),
        "no inline write reached the trace ring"
    );
    for t in sampled {
        assert!(t.trace.is_multiple_of(LOCKFREE_TIME_EVERY), "{t:?}");
        assert!(t.service_ns > 0, "{t:?}");
    }

    // Every write landed: each line reads back its last version.
    let handle = service.handle();
    for (&line, data) in &last {
        assert_eq!(handle.read(line).unwrap(), *data, "line {line}");
    }
    let reads = registry.reads.get();
    assert_eq!(reads, last.len() as u64);
    assert_eq!(registry.shard_service_ns.snapshot().count(), reads + writes);
    assert_eq!(registry.queue_wait_ns.snapshot().count(), reads + writes);

    let report = service.shutdown();
    assert_eq!(report.writes, writes);
    assert_eq!(report.hists.write_latency_ns.count(), writes);
}
