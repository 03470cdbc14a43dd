//! Demand-path equivalence: the batched/slot-completed/lock-free service
//! front-end must be *bit-identical* to driving the same [`ShardedCache`]
//! engine sequentially — same read results, same stored lines, same
//! aggregate counters — for every shard count, with faults in flight.
//! (Scrub-side shard invariance vs the single-threaded `SudokuCache` is
//! covered by `determinism.rs`; this file pins the *front-end*: packets,
//! completion slots, and the seqlock view must add no observable state.)
//! Plus a torn-read soak proving the seqlock view never serves a
//! half-written line, and a contention stress proving every issued trace
//! ID reaches exactly one caller with exactly one accounting record.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;
use sudoku_codes::LineData;
use sudoku_fault::FaultInjector;
use sudoku_svc::{Service, ServiceConfig, ShardedCache};

const LINES: u64 = 256;

fn pattern(tag: u64) -> LineData {
    let mut d = LineData::zero();
    d.set_bit((tag as usize * 37) % 512, true);
    d.set_bit((tag as usize * 11 + 201) % 512, true);
    d
}

/// Replays one op sequence against a sequentially-driven [`ShardedCache`]
/// and a running `n_shards` service (single client, so the global order
/// is the issue order), asserting identical per-op results, stored lines,
/// and stats.
fn assert_demand_equivalence(n_shards: usize, seed: u64, ber: f64, ops: &[(u64, bool)]) {
    let mut svc_config = ServiceConfig::small(LINES, n_shards, 0.0, seed);
    svc_config.scrub_every = None;
    let reference = ShardedCache::new(svc_config.cache, n_shards).expect("valid config");
    let service = Service::start(svc_config).unwrap();
    let handle = service.handle();

    // Shared initial footprint, then one identical fault plan on both
    // sides: reads below must drive the same ladder repairs in both.
    for line in 0..LINES {
        let data = pattern(line);
        reference.write(line, &data).unwrap();
        handle.write(line, &data).unwrap();
    }
    // Writes complete at acceptance; `inject_fault` below bypasses the
    // queue, so drain the footprint first. A paired read sweep is the
    // barrier: each service read of a pending line rides the FIFO behind
    // its write, and the reference read keeps the counters identical.
    drain_sweep(&reference, &handle);
    let plan = FaultInjector::new(ber, seed).resolved_plan(LINES);
    for (line, bits) in &plan {
        for &bit in bits {
            reference.inject_fault(*line, bit);
            service.state().inject_fault(*line, bit);
        }
    }

    for (i, &(line, is_write)) in ops.iter().enumerate() {
        if is_write {
            let data = pattern(line ^ (i as u64) << 8);
            reference.write(line, &data).unwrap();
            handle.write(line, &data).unwrap();
        } else {
            let expect = reference.read(line);
            match (expect, handle.read(line)) {
                (Ok(want), Ok(got)) => assert_eq!(
                    want, got,
                    "read {line} diverges at n_shards={n_shards} seed={seed} op {i}"
                ),
                (Err(_), Err(e)) => assert!(
                    e.is_due(),
                    "reference DUE but service returned {e} (line {line}, op {i})"
                ),
                (want, got) => panic!(
                    "read {line} diverges at n_shards={n_shards} seed={seed} op {i}: \
                     reference {want:?} vs service {got:?}"
                ),
            }
        }
    }

    // Drain any writes still pending in the shard queues (same paired
    // sweep: identical repairs and counters on both sides), then compare.
    drain_sweep(&reference, &handle);

    // Bit-identity of the stored array and of the aggregate counters —
    // the lock-free view hits are folded into `stats().reads/crc_checks`
    // exactly as the reference's locked read path would have counted them.
    for line in 0..LINES {
        assert_eq!(
            reference.stored_line(line),
            service.state().stored_line(line),
            "stored line {line} diverges at n_shards={n_shards} seed={seed}"
        );
    }
    assert_eq!(
        reference.stats(),
        service.state().stats(),
        "aggregate stats diverge at n_shards={n_shards} seed={seed}"
    );
    let report = service.shutdown();
    assert!(report.worker_panics.is_empty());
    assert_eq!(report.failed_writes, 0, "no write may fail to apply");
}

/// Paired full-array read: on the service side every read of a line with
/// a write still pending takes the FIFO queue path *behind* that write,
/// so when the sweep returns all accepted writes have been applied. The
/// reference read keeps repairs and counters bit-identical.
fn drain_sweep(reference: &ShardedCache, handle: &sudoku_svc::ServiceHandle) {
    for line in 0..LINES {
        match (reference.read(line), handle.read(line)) {
            (Ok(want), Ok(got)) => assert_eq!(want, got, "drain sweep diverges at line {line}"),
            (Err(_), Err(e)) => assert!(e.is_due(), "drain sweep: reference DUE, service {e}"),
            (want, got) => panic!("drain sweep diverges at line {line}: {want:?} vs {got:?}"),
        }
    }
}

/// Deterministic op mix: zipf-ish revisits plus a sweep, ~25% writes.
fn fixed_ops(seed: u64, n: usize) -> Vec<(u64, bool)> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % LINES, (x >> 13).is_multiple_of(4))
        })
        .collect()
}

#[test]
fn demand_path_matches_reference_across_shard_counts() {
    let ops = fixed_ops(0xD5D0_0002, 512);
    for n_shards in [1, 2, 4, 8] {
        assert_demand_equivalence(n_shards, 0xD5D0_0002, 2e-3, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: the packetized, slot-completed, seqlock-fronted demand
    /// path ≡ the single-threaded reference for arbitrary seeds, fault
    /// rates, and op mixes across all supported shard counts.
    #[test]
    fn packetized_service_is_bit_identical_to_reference(
        seed in any::<u64>(),
        ber_idx in 0usize..3,
        shard_idx in 0usize..4,
    ) {
        let ber = [5e-4, 2e-3, 5e-3][ber_idx];
        let n_shards = [1usize, 2, 4, 8][shard_idx];
        assert_demand_equivalence(n_shards, seed, ber, &fixed_ops(seed, 384));
    }
}

/// Torn-read soak: one writer hammers a single hot line alternating
/// between two values while readers race it through the lock-free view.
/// Every read must observe one of the two published values (or the DUE
/// path) — never a torn mix — and the fast path must actually fire.
#[test]
fn seqlock_view_never_serves_torn_lines() {
    let mut config = ServiceConfig::small(256, 2, 0.0, 99);
    config.scrub_every = None;
    let service = Service::start(config).unwrap();
    let a = pattern(1);
    let b = pattern(2);
    let line = 7u64;
    service.handle().write(line, &a).unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer_handle = service.handle();
        let (wa, wb) = (a, b);
        let stop = &stop;
        s.spawn(move || {
            for i in 0..2_000u64 {
                let data = if i % 2 == 0 { wb } else { wa };
                writer_handle.write(line, &data).unwrap();
            }
            stop.store(true, Ordering::Release);
        });
        for _ in 0..3 {
            let reader_handle = service.handle();
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let got = reader_handle.read(line).unwrap();
                    assert!(got == a || got == b, "torn read: {got:?}");
                }
            });
        }
    });
    // First read drains the writer's still-pending tail through the FIFO;
    // after that the line is published and must be served lock-free.
    let handle = service.handle();
    let settled = handle.read(line).unwrap();
    assert!(settled == a || settled == b, "torn settle: {settled:?}");
    for _ in 0..8 {
        assert_eq!(handle.read(line).unwrap(), settled);
    }
    let report = service.shutdown();
    assert_eq!(report.failed_writes, 0);
    assert!(
        report.lockfree_reads >= 8,
        "fast path never fired: {report:?}"
    );
}

/// Trace conservation under contention: four clients race `read_traced`
/// and `write_traced` over a handful of lines on one shard, so every op
/// contends for the same claim and reads that lose the claim race
/// re-probe the lock-free view. Every trace ID the registry issues must
/// reach exactly one caller, and every served request must record exactly
/// one latency sample and one queue-wait sample. It runs at the default
/// queue bound and at a bound of 2, where producers that find the queue
/// full drain it themselves; the clients are the only drainers, so an op
/// no claim holder picks up hangs its client, and the run is cut short
/// with a failure instead.
#[test]
fn trace_ids_are_conserved_under_contention() {
    for queue_depth in [64, 2] {
        within_hang_guard(move || conserve_traces(queue_depth));
    }
}

/// Runs `body` on its own thread and fails with "demand op stranded" if
/// it has not finished within 60 s; a panic in `body` is re-raised here.
fn within_hang_guard(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
        panic!("demand op stranded: the contention run did not finish within 60 s");
    }
    if let Err(panic) = runner.join() {
        std::panic::resume_unwind(panic);
    }
}

fn conserve_traces(queue_depth: usize) {
    const HOT: u64 = 8;
    const CLIENTS: u64 = 4;
    const OPS: u64 = 20_000;
    let mut config = ServiceConfig::small(LINES, 1, 0.0, 23);
    config.scrub_every = None;
    config.queue_depth = queue_depth;
    let service = Service::start(config).unwrap();
    // Each hot line only ever holds one of two values, so a read can be
    // checked without knowing which write it raced.
    let value = |line: u64, alt: bool| pattern(line + if alt { LINES } else { 0 });
    let mut traces: Vec<u64> = (0..HOT)
        .map(|line| {
            let (trace, result) = service.handle().write_traced(line, &value(line, false));
            result.unwrap();
            trace.expect("an accepted write carries a trace")
        })
        .collect();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let handle = service.handle();
                s.spawn(move || {
                    let mut mine = Vec::with_capacity(OPS as usize);
                    let mut x = client.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    for _ in 0..OPS {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let line = (x >> 33) % HOT;
                        let trace = if (x >> 13).is_multiple_of(3) {
                            let (trace, result) =
                                handle.write_traced(line, &value(line, (x >> 17) & 1 == 1));
                            result.unwrap();
                            trace
                        } else {
                            let (trace, result) = handle.read_traced(line);
                            let got = result.unwrap();
                            assert!(
                                got == value(line, false) || got == value(line, true),
                                "line {line} served a value never written to it: {got:?}"
                            );
                            trace
                        };
                        mine.push(trace.expect("an admitted request carries a trace"));
                    }
                    mine
                })
            })
            .collect();
        for client in clients {
            traces.extend(client.join().unwrap());
        }
    });
    let registry = std::sync::Arc::clone(service.registry());
    let report = service.shutdown();
    let returned = traces.len() as u64;
    traces.sort_unstable();
    traces.dedup();
    assert_eq!(
        traces.len() as u64,
        returned,
        "one trace ID reached two callers"
    );
    assert_eq!(
        returned,
        registry.traces_issued(),
        "issued trace IDs that no caller received"
    );
    assert_eq!(report.failed_writes, 0);
    assert_eq!(report.reads + report.writes, returned);
    assert_eq!(registry.read_latency_ns.snapshot().count(), report.reads);
    assert_eq!(
        registry.queue_wait_ns.snapshot().count(),
        report.reads + report.writes
    );
}
