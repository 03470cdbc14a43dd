//! The wire probe of the traced ledger: the `svc-mixed` service, mix and
//! BER served by `NetServer` (2 handlers) over loopback. One connection is
//! driven by a sender thread and a receiver thread on a cloned stream,
//! framing with `net::wire`'s public encode/decode.
//!
//! The sender runs in open-loop steps: request `i` of a step is due at a
//! fixed schedule, is never sent early, and its latency is measured from
//! its due time. The probe climbs a fixed rate ladder to find the highest
//! rate that meets the latency limit, then runs a reference step untraced
//! and traced.

use crate::hist::LatencyRecorder;
use crate::openloop::Schedule;
use crate::ops::{Golden, Op, OpStream};
use crate::procstat::{self, Usage};
use crate::trace::Tracer;
use crate::{svc, Report};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sudoku_net::wire::decode_response;
use sudoku_net::{NetConfig, NetServer, Request, Status};

const HANDLERS: usize = 2;
/// Offered rate of the reference step: about half the highest ladder
/// step that met the limit on the parent of the change that added the
/// benchmark.
const REF_RATE: f64 = 20_000.0;
/// The rate ladder: step `k` offers 10k req/s × 1.25^k, for k < 24 (up
/// to 1.7M req/s). Fixed, so every run offers the same steps.
const LADDER_STEPS: usize = 24;

fn ladder_rate(k: usize) -> f64 {
    10_000.0 * 1.25f64.powi(k as i32)
}

/// A ladder step passes when its p99 (from due time) and the generator's
/// p99 lateness both stay under this limit and no request fails. Not
/// 1 ms: scrub-daemon stalls of 1–3 ms hit a two-core machine at any
/// rate, so a 1 ms limit measured whether a stall fell in the step, not
/// where queueing starts.
const LIMIT_US: f64 = 5_000.0;
const STEP_LEN: Duration = Duration::from_millis(400);
const WARMUP: Duration = Duration::from_millis(500);
const MAX_BURST: u64 = 64;
/// Seed salt separating the wire op stream from the in-process one.
const SALT: u64 = 0x5749_5245;

#[derive(Clone, Copy)]
struct StepDesc {
    base: u64,
    sched: Schedule,
    traced: bool,
}

#[derive(Default)]
struct StepStats {
    lat: LatencyRecorder,
    late: LatencyRecorder,
    sent: u64,
    received: u64,
    failed: u64,
    retry: u64,
    sdc: u64,
}

impl StepStats {
    fn passes(&self) -> bool {
        self.failed == 0
            && self.received == self.sent
            && self.lat.quantile(0.99) as f64 <= LIMIT_US * 1e3
            && self.late.quantile(0.99) as f64 <= LIMIT_US * 1e3
    }
}

struct Shared {
    steps: Mutex<Vec<StepDesc>>,
    stats: Mutex<Vec<StepStats>>,
    /// Responses received so far (ids are sequential from 0).
    received: AtomicU64,
    stop: AtomicBool,
    broken: AtomicBool,
}

fn receiver(mut stream: TcpStream, shared: &Shared, seed: u64, epoch: Instant) -> Tracer {
    let mut tracer = Tracer::new(epoch);
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("set read timeout");
    let mut ops = OpStream::new(seed ^ SALT, 0, 1);
    let mut golden = Golden::new(1);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 17);
    let mut chunk = vec![0u8; 1 << 16];
    let mut next_id = 0u64;
    let mut step = 0usize;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => {
                shared.broken.store(true, Ordering::SeqCst);
                break;
            }
        }
        let now = Instant::now();
        // A frame's step was published before its request was sent, so
        // before its response could be read.
        let steps = shared.steps.lock().expect("steps lock").clone();
        let mut stats = shared.stats.lock().expect("stats lock");
        let mut consumed = 0;
        loop {
            while step + 1 < steps.len() && next_id >= steps[step + 1].base {
                step += 1;
            }
            let desc = steps[step];
            let decoded = if desc.traced {
                tracer.span("net.decode", next_id, |_| decode_response(&buf[consumed..]))
            } else {
                decode_response(&buf[consumed..])
            };
            let (resp, used) = match decoded {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    shared.broken.store(true, Ordering::SeqCst);
                    return tracer;
                }
            };
            consumed += used;
            if resp.id != next_id {
                shared.broken.store(true, Ordering::SeqCst);
                return tracer;
            }
            let st = &mut stats[step];
            match (resp.status, ops.next_op()) {
                (Status::Ok, Op::Write(line, data)) => golden.wrote(line, data, true),
                (Status::Ok, Op::Read(line)) => {
                    let sdc = resp.line_data().is_none_or(|d| golden.is_sdc(line, &d));
                    st.sdc += sdc as u64;
                }
                (status, op) => {
                    st.failed += 1;
                    st.retry += (status == Status::Retry) as u64;
                    if let Op::Write(line, data) = op {
                        golden.wrote(line, data, false);
                    }
                }
            }
            let due = desc.sched.due(next_id - desc.base);
            st.lat
                .record(now.saturating_duration_since(due).as_nanos() as u64);
            st.received += 1;
            next_id += 1;
        }
        drop(stats);
        buf.drain(..consumed);
        shared.received.store(next_id, Ordering::SeqCst);
    }
    tracer
}

/// The sender side of one connection.
struct Sender<'a> {
    stream: TcpStream,
    shared: &'a Shared,
    ops: OpStream,
    next_id: u64,
    out: Vec<u8>,
    tracer: Option<Tracer>,
}

impl Sender<'_> {
    fn send_burst(&mut self, n: u64) -> std::io::Result<()> {
        self.out.clear();
        let first = self.next_id;
        let encode = |s: &mut Self| {
            for _ in 0..n {
                let id = s.next_id;
                s.next_id += 1;
                let req = match s.ops.next_op() {
                    Op::Read(line) => Request::Get { id, line },
                    Op::Write(line, data) => Request::Put { id, line, data },
                };
                req.encode(&mut s.out);
            }
        };
        match self.tracer.take() {
            Some(mut tr) => {
                tr.span("net.encode", first, |_| encode(self));
                let r = tr.span("net.send", first, |_| self.stream.write_all(&self.out));
                self.tracer = Some(tr);
                r
            }
            None => {
                encode(self);
                self.stream.write_all(&self.out)
            }
        }
    }

    /// Runs one step at `rate` for `length`; returns its stats once every
    /// response is in (or the drain timed out, which fails the rest).
    fn step(&mut self, rate: f64, length: Duration) -> StepStats {
        let base = self.next_id;
        let sched = Schedule::new(Instant::now(), rate);
        let traced = self.tracer.is_some();
        self.shared
            .steps
            .lock()
            .expect("steps lock")
            .push(StepDesc {
                base,
                sched,
                traced,
            });
        self.shared
            .stats
            .lock()
            .expect("stats lock")
            .push(StepStats::default());
        let mut late = LatencyRecorder::default();
        let total = (rate * length.as_secs_f64()) as u64;
        let mut i = 0u64;
        while i < total && !self.shared.broken.load(Ordering::Relaxed) {
            let now = Instant::now();
            let upto = sched.due_through(now, total).min(i + MAX_BURST);
            if upto == i {
                let wait = sched.due(i).saturating_duration_since(now);
                if wait > Duration::from_micros(200) {
                    std::thread::sleep(wait - Duration::from_micros(100));
                } else {
                    std::thread::yield_now();
                }
                continue;
            }
            for k in i..upto {
                late.record(now.saturating_duration_since(sched.due(k)).as_nanos() as u64);
            }
            if self.send_burst(upto - i).is_err() {
                self.shared.broken.store(true, Ordering::SeqCst);
                break;
            }
            i = upto;
        }
        let drain_deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.received.load(Ordering::SeqCst) < self.next_id
            && Instant::now() < drain_deadline
            && !self.shared.broken.load(Ordering::SeqCst)
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut stats = std::mem::take(
            self.shared
                .stats
                .lock()
                .expect("stats lock")
                .last_mut()
                .expect("this step's stats"),
        );
        stats.sent = self.next_id - base;
        stats.late = late;
        stats.failed += stats.sent - stats.received;
        stats
    }
}

/// Drives one connection through the steps `plan` returns, given the
/// previous step's stats: (rate, length, traced). Returns each step's
/// stats, the spans of traced steps, and whether the stream broke.
fn drive(
    stream: &TcpStream,
    seed: u64,
    mut plan: impl FnMut(Option<&StepStats>) -> Option<(f64, Duration, bool)> + Send,
) -> (Vec<StepStats>, Tracer, bool) {
    let shared = Shared {
        steps: Mutex::new(Vec::new()),
        stats: Mutex::new(Vec::new()),
        received: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        broken: AtomicBool::new(false),
    };
    let read_half = stream.try_clone().expect("clone the client socket");
    let write_half = stream.try_clone().expect("clone the client socket");
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut results = Vec::new();
    std::thread::scope(|s| {
        let rx = s.spawn(|| receiver(read_half, &shared, seed, epoch));
        let tx = s.spawn(|| {
            let mut sender = Sender {
                stream: write_half,
                shared: &shared,
                ops: OpStream::new(seed ^ SALT, 0, 1),
                next_id: 0,
                out: Vec::with_capacity(1 << 14),
                tracer: None,
            };
            let mut spans = Tracer::new(epoch);
            while let Some((rate, length, traced)) = plan(results.last()) {
                sender.tracer = traced.then(|| Tracer::new(epoch));
                results.push(sender.step(rate, length));
                if let Some(tr) = sender.tracer.take() {
                    spans.absorb(tr);
                }
                if shared.broken.load(Ordering::SeqCst) {
                    break;
                }
            }
            shared.stop.store(true, Ordering::SeqCst);
            spans
        });
        tracer.absorb(tx.join().expect("sender thread panicked"));
        tracer.absorb(rx.join().expect("receiver thread panicked"));
    });
    let broken = shared.broken.load(Ordering::SeqCst);
    (results, tracer, broken)
}

/// The `net.*` metrics: a warm-up, the rate ladder, then the reference
/// step untraced and traced (their p50 ratio is the tracing overhead).
/// `length` sets the reference steps; the ladder's steps are fixed.
pub fn ledger(seed: u64, length: Duration) -> Report {
    let mut report = Report::default();
    let service =
        sudoku_svc::Service::start(svc::service_config(seed)).expect("valid service config");
    let server = NetServer::start(
        service.handle(),
        NetConfig {
            handlers: HANDLERS,
            ..NetConfig::default()
        },
    )
    .expect("bind the loopback wire server");
    let stream = TcpStream::connect(server.addr()).expect("connect to the wire server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let ref_len = length / 2;
    let mut k = 0usize;
    let mut ladder_done = false;
    let mut max_rate = 0.0;
    let mut overloaded = None;
    let mut phase = 0;
    let mut usage = None;
    let mut usage_delta = (0.0, 0);
    let (steps, tracer, broken) = drive(&stream, seed, |last| {
        let Some(last) = last else {
            // Not judged: the scrub daemon's first rotation runs at its
            // ceiling quota.
            return Some((ladder_rate(0), WARMUP, false));
        };
        if !ladder_done {
            if k > 0 {
                if last.passes() {
                    max_rate = ladder_rate(k - 1);
                } else {
                    // Ladder step k ran as step k (step 0 is the warm-up).
                    overloaded = Some(k);
                    ladder_done = true;
                }
            }
            if !ladder_done && k < LADDER_STEPS {
                k += 1;
                return Some((ladder_rate(k - 1), STEP_LEN, false));
            }
            ladder_done = true;
        }
        phase += 1;
        match phase {
            1 => Some((REF_RATE, ref_len, false)),
            2 => {
                usage = Some(Usage::now());
                Some((REF_RATE, ref_len, true))
            }
            _ => {
                // Sampled here, in the sender thread, while the receiver
                // and the server threads are still alive.
                usage_delta = usage.expect("usage sampled at the traced step").delta();
                None
            }
        }
    });
    // The probe's refusals are a wire-layer measurement (`net.failed_frac`),
    // not failed operations of the workload; the overloaded ladder step's
    // refusals are what the ladder looks for and are not counted at all.
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, st) in steps.iter().enumerate() {
        if Some(i) != overloaded {
            attempted += st.sent;
            failed += st.failed;
        }
        if st.sdc > 0 {
            report.error(format!("{} silently corrupted reads over the wire", st.sdc));
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    server.shutdown();
    svc::finish(service, &mut report);
    let n = steps.len();
    if n < 4 || broken {
        report.error("the wire stream broke: malformed, reordered or missing responses".into());
        return report;
    }
    let (plain, traced) = (&steps[n - 2], &steps[n - 1]);
    let (cpu_us, switches) = procstat::per_op(usage_delta, traced.received);
    let sent: u64 = steps.iter().map(|s| s.sent).sum();
    let retry: u64 = steps.iter().map(|s| s.retry).sum();
    report.put("net.max_ops_per_s", max_rate, "1/s");
    report.put("net.retry_frac", retry as f64 / sent.max(1) as f64, "ratio");
    report.put(
        "net.failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    report.put(
        "net.encode_ns",
        tracer.total("net.encode").self_ns as f64 / traced.sent.max(1) as f64,
        "ns",
    );
    report.put("net.decode_ns", tracer.mean_self_ns("net.decode"), "ns");
    report.put("net.send_us", tracer.mean_self_ns("net.send") / 1e3, "us");
    report.put("net.ref_p50_us", plain.lat.quantile(0.5) as f64 / 1e3, "us");
    report.put(
        "net.ref_p99_us",
        plain.lat.quantile(0.99) as f64 / 1e3,
        "us",
    );
    report.put("net.cpu_us_per_op", cpu_us, "us");
    report.put("net.ctx_switches_per_kop", switches, "count");
    report.put(
        "bench.gen_late_p99_us",
        traced.late.quantile(0.99) as f64 / 1e3,
        "us",
    );
    report.raw(
        "net.trace_overhead_pct",
        (traced.lat.quantile(0.5) as f64 / plain.lat.quantile(0.5).max(1) as f64 - 1.0) * 100.0,
    );
    report.raw("net.ladder_steps", k as f64);
    for (i, st) in steps.iter().enumerate().take(k + 1) {
        report.raw(
            &format!("net.step{i}.p99_us"),
            st.lat.quantile(0.99) as f64 / 1e3,
        );
        report.raw(
            &format!("net.step{i}.late_p99_us"),
            st.late.quantile(0.99) as f64 / 1e3,
        );
        report.raw(&format!("net.step{i}.failed"), st.failed as f64);
    }
    report.spans(tracer);
    report
}
