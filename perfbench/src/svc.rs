//! `svc-mixed`: a client thread drives `ServiceHandle::read`/`write` back
//! to back (a closed loop) while the scrub daemon injects and repairs
//! transient faults on a 1 ms tick.
//!
//! One client, not two: on a two-core machine a second spinning client
//! leaves the service's own threads (4 shard workers, the scrub daemon,
//! the watchdog) preempting the clients, and the p50 latency spread run
//! to run measured 8–18 % with two clients against 4–7 % with one.

use crate::hist::LatencyRecorder;
use crate::ops::{self, Golden, Op, OpStream};
use crate::procstat::{self, Usage};
use crate::trace::Tracer;
use crate::{median, Report, SETUP_REPS};
use std::time::{Duration, Instant};
use sudoku_fault::StuckBitMap;
use sudoku_obs::AtomicHist;
use sudoku_svc::{
    AuditConfig, DegradedConfig, Service, ServiceConfig, ServiceHandle, TelemetryRegistry,
};

const SHARDS: usize = 4;
pub const CLIENTS: u64 = 1;
/// Throughput is the median of per-slice rates, which keeps one slow
/// slice (a co-tenant burst, a long repair) from moving the figure.
const SLICE: Duration = Duration::from_millis(250);
/// Traced runs open spans around one op in this many.
const TRACE_EVERY: u64 = 8;

pub fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        cache: ops::cache_config(),
        n_shards: SHARDS,
        queue_depth: 64,
        scrub_every: Some(Duration::from_millis(1)),
        ber: ops::BER,
        seed,
        stuck: StuckBitMap::new(),
        degraded: DegradedConfig::default(),
        telemetry: None,
        audit: AuditConfig::default(),
        adaptive_scrub: true,
    }
}

fn start_service(seed: u64) -> Service {
    Service::start(service_config(seed)).expect("valid service config")
}

/// Seconds one `Service::start` takes.
fn time_start(seed: u64) -> (Service, f64) {
    let t = Instant::now();
    let service = start_service(seed);
    (service, t.elapsed().as_secs_f64())
}

#[derive(Default)]
struct ClientOut {
    reads: LatencyRecorder,
    writes: LatencyRecorder,
    slices: Vec<u64>,
    ops: u64,
    failed: u64,
    sdc: u64,
    tracer: Option<Tracer>,
}

/// One client's op stream and golden copy; they persist across the
/// phases of a run so the oracle stays authoritative.
pub struct ClientState {
    slice: u64,
    stream: OpStream,
    golden: Golden,
}

pub fn clients(seed: u64) -> Vec<ClientState> {
    (0..CLIENTS)
        .map(|slice| ClientState {
            slice,
            stream: OpStream::new(seed, slice, CLIENTS),
            golden: Golden::new(CLIENTS),
        })
        .collect()
}

fn client(
    handle: &ServiceHandle,
    state: &mut ClientState,
    start: Instant,
    end: Instant,
    hist: Option<&AtomicHist>,
) -> ClientOut {
    let mut out = ClientOut {
        tracer: hist.map(|_| Tracer::new(start)),
        ..ClientOut::default()
    };
    let slice = state.slice;
    let golden = &mut state.golden;
    loop {
        let op = state.stream.next_op();
        let req = (slice << 48) | out.ops;
        let traced = out.ops.is_multiple_of(TRACE_EVERY);
        if let Some(tr) = out.tracer.as_mut().filter(|_| traced) {
            let name = match op {
                Op::Read(_) => "svc.read",
                Op::Write(..) => "svc.write",
            };
            tr.begin(name, req);
        }
        let t0 = Instant::now();
        let (ok, read) = match op {
            Op::Read(line) => match handle.read(line) {
                Ok(data) => (true, Some((line, data))),
                Err(_) => (false, None),
            },
            Op::Write(line, data) => {
                let r = handle.write(line, &data);
                golden.wrote(line, data, r.is_ok());
                (r.is_ok(), None)
            }
        };
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        if let Some(tr) = out.tracer.as_mut().filter(|_| traced) {
            tr.end();
            if let Some(h) = hist {
                tr.span("obs.hist_record", req, |_| h.record(ns));
            }
        }
        match op {
            Op::Read(_) => out.reads.record(ns),
            Op::Write(..) => out.writes.record(ns),
        }
        if !ok {
            out.failed += 1;
        }
        if let Some((line, data)) = read {
            if golden.is_sdc(line, &data) {
                out.sdc += 1;
            }
        }
        let idx = ((t1 - start).as_nanos() / SLICE.as_nanos()) as usize;
        if out.slices.len() <= idx {
            out.slices.resize(idx + 1, 0);
        }
        out.slices[idx] += 1;
        out.ops += 1;
        if out.ops.is_multiple_of(64) && t1 >= end {
            break;
        }
    }
    out
}

/// The closed loop's merged result.
pub struct LoadOut {
    pub reads: LatencyRecorder,
    pub writes: LatencyRecorder,
    pub ops: u64,
    pub failed: u64,
    pub sdc: u64,
    /// Median of the per-slice op rates, ops/s.
    pub ops_per_s: f64,
    /// CPU seconds and context switches over the loop, sampled while
    /// the clients still run.
    pub usage: (f64, u64),
    pub tracer: Option<Tracer>,
}

/// Runs the closed loop for `length`; `hist` turns tracing on.
pub fn closed_loop(
    handle: &ServiceHandle,
    states: &mut [ClientState],
    length: Duration,
    hist: Option<&AtomicHist>,
) -> LoadOut {
    let usage = Usage::now();
    let start = Instant::now();
    let end = start + length;
    let mut usage_delta = (0.0, 0);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| s.spawn(move || client(handle, state, start, end, hist)))
            .collect();
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        usage_delta = usage.delta();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = LoadOut {
        reads: LatencyRecorder::default(),
        writes: LatencyRecorder::default(),
        ops: 0,
        failed: 0,
        sdc: 0,
        ops_per_s: 0.0,
        usage: usage_delta,
        tracer: hist.map(|_| Tracer::new(start)),
    };
    // Only slices every client saw from start to end count.
    let full = outs
        .iter()
        .map(|o| o.slices.len())
        .min()
        .unwrap_or(1)
        .saturating_sub(1);
    let mut per_slice = vec![0u64; full];
    for o in outs {
        merged.reads.merge(&o.reads);
        merged.writes.merge(&o.writes);
        merged.ops += o.ops;
        merged.failed += o.failed;
        merged.sdc += o.sdc;
        for (t, c) in per_slice.iter_mut().zip(&o.slices) {
            *t += c;
        }
        if let (Some(mine), Some(theirs)) = (merged.tracer.as_mut(), o.tracer) {
            mine.absorb(theirs);
        }
    }
    let rates: Vec<f64> = per_slice
        .iter()
        .map(|&c| c as f64 / SLICE.as_secs_f64())
        .collect();
    merged.ops_per_s = if rates.is_empty() {
        merged.ops as f64 / length.as_secs_f64()
    } else {
        median(&rates)
    };
    merged
}

/// Ops that waited in a shard queue: every served op records its queue
/// wait, and only queued ones wait longer than the first bucket's 1 ns.
fn queued(registry: &TelemetryRegistry) -> u64 {
    let snap = registry.queue_wait_ns.snapshot();
    snap.all_buckets()
        .iter()
        .filter(|(le, _)| *le > 1)
        .map(|(_, c)| c)
        .sum()
}

/// Stops the service. Scrub packets that missed the 20 ms re-scrub
/// deadline are reported, not charged as failed operations: they are not
/// demand operations, and a saturating closed loop on two cores does
/// starve the daemon now and then.
pub fn finish(service: Service, report: &mut Report) -> sudoku_svc::ServiceReport {
    let svc_report = service.shutdown();
    report.raw(
        "scrub_deadline_misses",
        svc_report.scrub_deadline_misses as f64,
    );
    if !svc_report.fully_healthy() {
        report.error("service ended with a quarantined shard or a caught panic".to_string());
    }
    svc_report
}

pub fn end_to_end(seed: u64, length: Duration) -> Report {
    let mut report = Report::default();
    let (service, first_start) = time_start(seed);
    let handle = service.handle();
    let out = closed_loop(&handle, &mut clients(seed), length, None);
    drop(handle);
    let mut all = out.reads.clone();
    all.merge(&out.writes);
    let lat = all.summary();
    report.put("p50_us", lat.p50 as f64 / 1e3, "us");
    report.put("tail_us", all.quantile(0.90) as f64 / 1e3, "us");
    report.raw("ops_per_s", out.ops_per_s);
    report.raw("latency_samples", lat.count as f64);
    report.raw("p99_us", lat.p99 as f64 / 1e3);
    report.raw("latency_tail_pct", lat.tail_pct);
    report.raw("latency_tail_us", lat.tail as f64 / 1e3);
    report.raw("cpu_s", out.usage.0);
    report.raw("ctx_switches", out.usage.1 as f64);
    report.raw("read_p99_us", out.reads.quantile(0.99) as f64 / 1e3);
    report.raw("write_p99_us", out.writes.quantile(0.99) as f64 / 1e3);
    report.attempted += out.ops;
    report.failed += out.failed;
    if out.sdc > 0 {
        report.error(format!("{} silently corrupted reads", out.sdc));
    }
    finish(service, &mut report);
    // Read before the remaining set-ups: each start spawns threads whose
    // allocator arenas would otherwise add run-to-run noise to the peak.
    report.put("peak_rss_mb", procstat::peak_rss_mb(), "MiB");
    let mut starts = vec![first_start];
    for _ in 1..SETUP_REPS {
        let (service, dt) = time_start(seed);
        service.shutdown();
        starts.push(dt);
    }
    report.put("setup_s", median(&starts), "s");
    report
}

/// The traced run's `svc.*` metrics, plus `obs.hist_record_ns` measured
/// on the live path. Half the time runs untraced, half traced; their
/// rate ratio is the tracing overhead.
pub fn ledger(seed: u64, length: Duration) -> Report {
    let mut report = Report::default();
    let service = start_service(seed);
    let handle = service.handle();
    let mut states = clients(seed);
    let plain = closed_loop(&handle, &mut states, length / 2, None);
    let registry = handle.registry().clone();
    let retries0 = registry.seqlock_retries.get();
    let queued0 = queued(&registry);
    let lockfree0 = registry.clean_read_lockfree_hits.get();
    let reads0 = registry.reads.get();
    let hist = AtomicHist::pow2(40);
    let traced = closed_loop(&handle, &mut states, length / 2, Some(&hist));
    let (cpu_us, switches) = procstat::per_op(traced.usage, traced.ops);
    let reads = registry.reads.get() - reads0;
    let ops = traced.ops.max(1) as f64;
    report.put(
        "svc.lockfree_hit_frac",
        (registry.clean_read_lockfree_hits.get() - lockfree0) as f64 / reads.max(1) as f64,
        "ratio",
    );
    report.put(
        "svc.seqlock_retries_per_kread",
        (registry.seqlock_retries.get() - retries0) as f64 * 1e3 / reads.max(1) as f64,
        "count",
    );
    report.put(
        "svc.queued_frac",
        (queued(&registry) - queued0) as f64 / ops,
        "ratio",
    );
    report.put("svc.ops_per_s", plain.ops_per_s, "1/s");
    report.put("svc.cpu_us_per_op", cpu_us, "us");
    report.put("svc.ctx_switches_per_kop", switches, "count");
    report.put("svc.read_p50_ns", traced.reads.quantile(0.5) as f64, "ns");
    report.put("svc.read_p99_ns", traced.reads.quantile(0.99) as f64, "ns");
    report.put(
        "svc.write_p99_ns",
        traced.writes.quantile(0.99) as f64,
        "ns",
    );
    let tracer = traced.tracer.expect("traced loop returns its spans");
    report.put(
        "obs.hist_record_ns",
        tracer.mean_self_ns("obs.hist_record"),
        "ns",
    );
    report.raw("svc.read_span_ns", tracer.mean_self_ns("svc.read"));
    report.raw("svc.write_span_ns", tracer.mean_self_ns("svc.write"));
    report.put(
        "bench.trace_overhead_pct",
        (plain.ops_per_s / traced.ops_per_s - 1.0) * 100.0,
        "%",
    );
    drop(handle);
    report.attempted += plain.ops + traced.ops;
    report.failed += plain.failed + traced.failed;
    if plain.sdc + traced.sdc > 0 {
        report.error(format!(
            "{} silently corrupted reads",
            plain.sdc + traced.sdc
        ));
    }
    let length_s = length.as_secs_f64();
    let svc_report = finish(service, &mut report);
    report.put(
        "svc.escalated_reads",
        svc_report.escalated_reads as f64,
        "count",
    );
    report.put("svc.due_reads", svc_report.due_reads as f64, "count");
    report.put(
        "svc.scrub_lines_per_s",
        svc_report.scrub_lines_swept as f64 / length_s,
        "1/s",
    );
    report.put(
        "svc.scrub_interval_p99_ms",
        svc_report.scrub_interval_p99_ns as f64 / 1e6,
        "ms",
    );
    report.put(
        "svc.scrub_floor_clamps",
        svc_report.scrub_floor_clamps as f64,
        "count",
    );
    report.put(
        "svc.scrub_deadline_misses",
        svc_report.scrub_deadline_misses as f64,
        "count",
    );
    report.spans(tracer);
    report
}
