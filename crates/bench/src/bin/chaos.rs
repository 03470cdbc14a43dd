//! Chaos soak: concurrent load against the sharded service while the
//! harness injects worker panics (some holding the shard mutex, poisoning
//! it), a scrub-daemon stall and panic, permanent stuck-at cells, and a
//! mid-run shutdown with clients still issuing requests. The soak runs at
//! a tiny queue bound (`--queue`, the number of clients blocked on one
//! shard's mutex at which the wire server sheds RETRY), but it does not
//! saturate a shard: in 20 CI-exact runs on a 2-vCPU VM, 0.01–0.03 % of
//! demand ops waited on a held shard mutex (1.5–1.7 % in two runs on a
//! loaded machine), never more than 5 at once, and no wire request was
//! shed. It prints that share (`shard waits:`).
//!
//! ```text
//! cargo run --release -p sudoku-bench --bin chaos -- --shards 4 --panic-shards 1
//! cargo run --release -p sudoku-bench --bin chaos -- \
//!     --shards 8 --panic-shards 2 --panic-daemon --stuck-ber 1e-5 --json
//! ```
//!
//! The demand clients are `sudoku_svc::loadgen`'s workers
//! (`load_worker`), the same client the `loadgen` soak runs, with its
//! zipfian op stream, golden-copy oracle and degraded-read count. The
//! soak asserts the degraded-mode contract end to end:
//!
//! * **No client panic** — every client runs under `catch_unwind`; a
//!   single unwinding client fails the run (exit 2).
//! * **No SDC** — every client keeps a golden copy of its writes; a read
//!   from a live shard that returns different data is silent corruption
//!   (exit 2). Lines on quarantined shards are excluded: an accepted
//!   write dropped by a dying worker is *lost*, not corrupted, and the
//!   shard fails fast rather than serving stale data. A client stops
//!   when the mid-run shutdown refuses it.
//! * **Bounded DUE escalation** — detected-uncorrectable reads must stay
//!   under `--max-due` (exit 3).
//! * **Prompt detection** — the soak always runs the live telemetry plane
//!   and, after injecting the worker panics, polls `GET /healthz` until it
//!   flips to `503` with a non-empty quarantined-shard list. That
//!   time-to-detection must stay within one sampler interval
//!   (`--ttd-budget-ms`, default = `--sample-ms`; exit 5 otherwise) and is
//!   recorded as `ttd_ms` in `BENCH_chaos.json`.
//! * **Prompt alerting** — before the worker panics, the harness stalls
//!   the scrub daemon for `--stall-ms` (alive but not scrubbing) and
//!   polls `GET /alerts.json` for the watchdog's `daemon_stuck`,
//!   `deadline_miss`, `tick_lag_breach`, and `scrub_floor_breach`
//!   alerts; after the daemon panic it polls for `daemon_dead`. Only an
//!   alert raised after its injection counts: one whose `seq` exceeds the
//!   highest `/alerts.json` listed just before it. A `tick_lag_breach`
//!   counts only with a lag of at least half the stall, so a saturation
//!   lag raised just after the stall began is not taken for the stall's
//!   own (see [`min_alert_value`]).
//!   Per-class time-to-detection is recorded as `ttd_alert_ms` in
//!   `BENCH_chaos.json`, and **every class must fire within its own
//!   documented budget** (see [`alert_budget_ms`]; exit 6 otherwise).
//!
//! * **Spatial discrimination** — before the soak, a seeded A/B on two
//!   quiet services: `--spatial-flips` single-bit faults packed into one
//!   region must raise `spatial_correlation` within
//!   `--spatial-ttd-budget-ms`, while the *same* flip count spread
//!   i.i.d. over the whole line space must raise none (exit 6 either
//!   way). The clustered TTD and the detector's verdict are recorded in
//!   `BENCH_chaos.json` (`ttd_alert_ms.spatial_correlation`,
//!   `spatial`), alongside the soak's own heatmap geometry and
//!   hottest-cell skew.
//!
//! `--telemetry-port <p>` pins the scrape endpoint (default: an ephemeral
//! port, printed at startup); `--flight-recorder <path>` streams the
//! sampler's snapshots to `<path>` as JSONL for artifact upload;
//! `--alerts <path>` streams the audit plane's structured alerts to
//! `<path>` as JSONL; `--heatmap <path>` writes the soak's final heatmap
//! snapshot (all grids + last correlation stat, the `/heatmap.json`
//! shape) for `forensics --heatmap` rendering.
//!
//! * **Typed failure on the wire** — the soak always runs the
//!   `sudoku-net` TCP front end and keeps `--wire-clients` live
//!   connections polling GETs through it while the workers are killed.
//!   Each wire client must observe the quarantine as a typed
//!   `SHARD_DOWN` status within `--wire-ttd-budget-ms` (default 50 ms)
//!   of the injection, and must never hang past its read timeout or see
//!   the connection reset mid-stream (exit 7 otherwise). The wire TTD is
//!   recorded as `wire_ttd_ms` in `BENCH_chaos.json`.
//!
//! `--json` writes `BENCH_chaos.json` with the full degraded-mode counter
//! set, alert TTDs, wire-phase counters, and achieved-scrub-interval
//! quantiles for CI artifact upload. `--check-baseline` reads the
//! committed `BENCH_chaos.json` before the run and warns when it was
//! stamped by a different git revision than HEAD (the soak's own exit
//! codes are the pass/fail gate).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sudoku_bench::{flag, git_rev, header, print_shard_waits, warn_baseline_rev, Flags};
use sudoku_fault::{FaultInjector, StuckBitMap};
use sudoku_net::{NetConfig, NetServer, Status, WireClient};
use sudoku_obs::AlertClass;
use sudoku_svc::loadgen::load_worker;
use sudoku_svc::{
    parse_bind_addr, AuditConfig, LoadgenConfig, Service, ServiceConfig, TelemetryConfig,
    WorkerResult,
};

/// Alert classes whose time-to-detection the soak measures, in the order
/// they are expected to fire: the stall raises the first four, the
/// daemon panic the last.
const TTD_CLASSES: [&str; 5] = [
    "daemon_stuck",
    "deadline_miss",
    "tick_lag_breach",
    "scrub_floor_breach",
    "daemon_dead",
];

/// Honest per-class time-to-detection budget in ms, derived from the
/// watchdog's own thresholds (scan cadence 5 ms, tick-lag budget 2 ms,
/// 20 ms scrub deadline, `daemon_stall_ticks = 8`) rather than from
/// whatever the last run happened to measure:
///
/// * `daemon_stuck` — the tick counter must freeze for 8 ticks before
///   the class arms, plus one scan to notice: ≲ 15 ms; budget 50 ms.
/// * `deadline_miss` — packet staleness must first *cross* the 20 ms
///   guarantee, plus one scan: ≲ 25 ms; budget 75 ms.
/// * `tick_lag_breach` — the lag is only reported when the delayed tick
///   finally starts, which the stall itself delays: budget
///   `stall_ms` + 50 ms.
/// * `scrub_floor_breach` — the adaptive controller must pair
///   floor-pinned clamps with deadline misses over `PAIRING_SCANS = 3`
///   consecutive scans *after* the stall releases: budget `stall_ms` +
///   150 ms (measured ≈ `stall_ms` + 7 ms).
/// * `daemon_dead` — the daemon honors the panic flag at its next tick
///   and the watchdog sees the dead thread one scan later: ≲ 10 ms;
///   budget 50 ms.
fn alert_budget_ms(class: &str, stall_ms: u64) -> u64 {
    match class {
        "daemon_stuck" => 50,
        "deadline_miss" => 75,
        "tick_lag_breach" => stall_ms + 50,
        "scrub_floor_breach" => stall_ms + 150,
        "daemon_dead" => 50,
        other => unreachable!("no TTD budget defined for alert class {other}"),
    }
}

/// The least `value` an alert of `class` must carry to count as the
/// injected fault's own alert, or `None` when the first alert of the
/// class counts. A `tick_lag_breach` carries the tick lag in ns, and the
/// stall's own breach lags by about the whole stall. Under saturation a
/// millisecond-scale lag can breach the 2 ms budget just after the stall
/// begins; timing that one would time the wrong alert, so only a lag of
/// at least half the stall counts.
fn min_alert_value(class: &str, stall_ms: u64) -> Option<f64> {
    match class {
        "tick_lag_breach" => Some(stall_ms as f64 * 1e6 / 2.0),
        _ => None,
    }
}

/// Whether the `/alerts.json` `body` lists an alert of `class` whose
/// `value` is at least `min_value` (any alert of the class when `None`).
fn lists_alert(body: &str, class: &str, min_value: Option<f64>) -> bool {
    let tag = format!("\"class\":\"{class}\"");
    body.split("{\"seq\":").skip(1).any(|alert| {
        alert.contains(&tag)
            && min_value.is_none_or(|min| {
                alert
                    .split_once("\"value\":")
                    .and_then(|(_, rest)| rest.split([',', '}']).next()?.parse::<f64>().ok())
                    .is_some_and(|value| value >= min)
            })
    })
}

struct Opts {
    shards: usize,
    lines: u64,
    clients: usize,
    requests: u64,
    ber: f64,
    stuck_ber: f64,
    tick_ms: u64,
    queue: usize,
    seed: u64,
    panic_shards: usize,
    panic_after_ms: u64,
    shutdown_after_ms: u64,
    max_due: u64,
    telemetry_port: u16,
    bind: std::net::IpAddr,
    flight_recorder: Option<String>,
    sample_ms: u64,
    ttd_budget_ms: u64,
    stall_ms: u64,
    alerts: Option<String>,
    heatmap: Option<String>,
    wire_clients: usize,
    wire_ttd_budget_ms: u64,
    spatial_flips: u64,
    spatial_ttd_budget_ms: u64,
}

impl Opts {
    fn parse() -> Opts {
        let flags = Flags::from_env();
        let sample_ms = flags.get("--sample-ms", 50);
        Opts {
            shards: flags.get("--shards", 4),
            lines: flags.get("--lines", 1 << 13),
            clients: flags.get("--clients", 4),
            requests: flags.get("--requests", 200_000),
            ber: flags.get("--ber", 1e-4),
            stuck_ber: flags.get("--stuck-ber", 1e-5),
            tick_ms: flags.get("--tick-ms", 1),
            // Tiny, yet above the waiters the soak measures (see the
            // module doc): the soak does not saturate a shard.
            queue: flags.get("--queue", 8),
            seed: flags.get("--seed", 42),
            panic_shards: flags.get("--panic-shards", 1),
            panic_after_ms: flags.get("--panic-after-ms", 40),
            shutdown_after_ms: flags.get("--shutdown-after-ms", 120),
            max_due: flags.get("--max-due", u64::MAX),
            telemetry_port: flags.get("--telemetry-port", 0),
            bind: flags
                .parse_with("--bind", parse_bind_addr)
                .unwrap_or(std::net::IpAddr::from([127, 0, 0, 1])),
            flight_recorder: flags.str("--flight-recorder").map(String::from),
            sample_ms,
            ttd_budget_ms: flags.get("--ttd-budget-ms", sample_ms),
            stall_ms: flags.get("--stall-ms", 100),
            alerts: flags.str("--alerts").map(String::from),
            heatmap: flags.str("--heatmap").map(String::from),
            wire_clients: flags.get("--wire-clients", 2),
            wire_ttd_budget_ms: flags.get("--wire-ttd-budget-ms", 50),
            spatial_flips: flags.get("--spatial-flips", 256),
            // The watchdog samples heatmap cells once per flip interval
            // (fast_window / 4 = 250 ms): one full interval to see the
            // delta, one scan to raise, generous margin for the sweep
            // itself to repair the burst.
            spatial_ttd_budget_ms: flags.get("--spatial-ttd-budget-ms", 1000),
        }
    }

    /// The soak's service at `ber` (and `seed`): its cache, shards and
    /// scrub tick.
    fn service_config(&self, ber: f64, seed: u64) -> ServiceConfig {
        ServiceConfig {
            scrub_every: Some(Duration::from_millis(self.tick_ms.max(1))),
            ..ServiceConfig::small(self.lines, self.shards, ber, seed)
        }
    }
}

/// Outcome of the seeded spatial A/B run before the soak.
#[derive(Debug, Default)]
struct SpatialPhase {
    /// Injection → first `spatial_correlation` alert in the clustered run.
    ttd: Option<Duration>,
    /// Whether the i.i.d. control run (same flip count) raised the class
    /// anyway — a false positive that fails the soak.
    iid_fired: bool,
    /// The detector's verdict at fire time, as JSON, for the artifact.
    correlation: Option<String>,
}

/// Seeded spatial A/B: `flips` single-bit faults packed into region 0
/// must raise `spatial_correlation`; the same count spread i.i.d. over
/// the whole line space must not. Both halves run on dedicated quiet
/// services (BER 0, no stuck bits) so the daemon's own injection cannot
/// pollute the verdict, and both observe the *identical* repair total —
/// clustering is the only variable.
fn spatial_phase(opts: &Opts) -> SpatialPhase {
    let budget = Duration::from_millis(opts.spatial_ttd_budget_ms);
    let quiet = |seed: u64| {
        Service::start(opts.service_config(0.0, seed)).expect("valid spatial-phase service config")
    };
    let region_span = (opts.lines / sudoku_obs::DEFAULT_REGIONS as u64).max(1);
    let mut result = SpatialPhase::default();

    // Clustered half: every flip lands inside region 0.
    let service = quiet(opts.seed ^ 0x5A71);
    let plan =
        FaultInjector::new(1e-4, opts.seed ^ 0xC1).exact_plan(0, region_span, opts.spatial_flips);
    service.state().apply_resolved_plan(&plan);
    let start = Instant::now();
    while start.elapsed() < budget + Duration::from_secs(2) {
        if service.audit().alerts.count(AlertClass::SpatialCorrelation) >= 1 {
            result.ttd = Some(start.elapsed());
            result.correlation = service.audit().latest_spatial().map(|stat| stat.to_json());
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    service.shutdown();
    match result.ttd {
        Some(d) => println!(
            "spatial: clustered burst ({} flips in one region) raised \
             spatial_correlation {:.1} ms after injection (budget {} ms)",
            opts.spatial_flips,
            d.as_secs_f64() * 1e3,
            opts.spatial_ttd_budget_ms
        ),
        None => println!(
            "spatial: clustered burst never raised spatial_correlation \
             (budget {} ms)",
            opts.spatial_ttd_budget_ms
        ),
    }

    // Control half: the same flip count, i.i.d. over the whole space,
    // watched for the same span the clustered half had to fire in.
    let service = quiet(opts.seed ^ 0xD1D);
    let plan =
        FaultInjector::new(1e-4, opts.seed ^ 0xD2).exact_plan(0, opts.lines, opts.spatial_flips);
    service.state().apply_resolved_plan(&plan);
    std::thread::sleep(budget + Duration::from_secs(1));
    result.iid_fired = service.audit().alerts.count(AlertClass::SpatialCorrelation) > 0;
    service.shutdown();
    println!(
        "spatial: i.i.d. control ({} flips over the whole space) {}",
        opts.spatial_flips,
        if result.iid_fired {
            "raised spatial_correlation — FALSE POSITIVE"
        } else {
            "stayed quiet"
        }
    );
    result
}

/// Minimal HTTP/1.1 GET against the service's own scrape endpoint:
/// returns the status code and body, or `None` on any transport error.
fn http_get(addr: SocketAddr, path: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(250)).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok()?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let status: u16 = response.split_whitespace().nth(1)?.parse().ok()?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Some((status, body))
}

/// Polls `/healthz` until it reports the injected quarantine (503 with a
/// non-empty shard list), returning the time that took. `None` when the
/// deadline passed without detection.
fn time_to_detection(addr: SocketAddr, deadline: Duration) -> Option<Duration> {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Some((status, body)) = http_get(addr, "/healthz") {
            if status == 503 && !body.contains("\"quarantined\":[]") {
                return Some(start.elapsed());
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// The highest alert `seq` `/alerts.json` lists (0 before the first
/// alert, or when the endpoint does not answer).
fn last_alert_seq(addr: SocketAddr) -> u64 {
    let Some((200, body)) = http_get(addr, "/alerts.json") else {
        return 0;
    };
    body.split("\"seq\":")
        .skip(1)
        .filter_map(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .max()
        .unwrap_or(0)
}

/// Polls `GET /alerts.json?after=<after>` until every named alert class
/// has appeared among the alerts whose `seq` exceeds `after` (or the
/// deadline passes), recording each class's first-seen latency. Each
/// class comes with the least alert `value` that counts
/// ([`min_alert_value`]). An alert raised before the injection
/// (`seq <= after`) never counts. Undetected classes stay `None`.
fn time_to_alerts(
    addr: SocketAddr,
    classes: &[(&str, Option<f64>)],
    after: u64,
    deadline: Duration,
) -> Vec<Option<Duration>> {
    let start = Instant::now();
    let path = format!("/alerts.json?after={after}");
    let mut seen: Vec<Option<Duration>> = vec![None; classes.len()];
    while start.elapsed() < deadline && seen.iter().any(Option::is_none) {
        if let Some((status, body)) = http_get(addr, &path) {
            if status == 200 {
                for (slot, &(class, min_value)) in seen.iter_mut().zip(classes) {
                    if slot.is_none() && lists_alert(&body, class, min_value) {
                        *slot = Some(start.elapsed());
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    seen
}

#[derive(Debug, Default)]
struct WireResult {
    requests: u64,
    retry: u64,
    shard_down: u64,
    /// Read timeouts before the drain began — a hung client, the failure
    /// mode the typed protocol exists to prevent.
    hangs: u64,
    /// Transport errors (reset / mid-frame EOF) before the drain began.
    resets: u64,
    /// Injection → first typed `SHARD_DOWN` on this connection.
    ttd: Option<Duration>,
}

/// The `i`-th line of a wire client's walk over `lines` lines in Hash-1
/// groups of `group` lines: one line from each group in turn, then the
/// next line of each. Groups go to shards round-robin, so any `n_shards`
/// consecutive GETs meet every shard, and a short post-panic window still
/// reaches the dead one.
fn wire_walk(i: u64, lines: u64, group: u64) -> u64 {
    let groups = (lines / group).max(1);
    (i % groups) * group + (i / groups) % group.min(lines)
}

/// One background wire client: GETs striding across Hash-1 groups
/// ([`wire_walk`]) through the `sudoku-net` front end on a live pipelined
/// connection while the chaos controller kills workers under it. Every
/// outcome must be a typed status — a read timeout or a reset before the
/// drain is a protocol-contract violation.
fn wire_client(
    addr: SocketAddr,
    lines: u64,
    group: u64,
    stop: &AtomicBool,
    draining: &AtomicBool,
    injected_at: &Mutex<Option<Instant>>,
) -> WireResult {
    let mut result = WireResult::default();
    let mut client = match WireClient::connect(addr, Some(Duration::from_secs(1))) {
        Ok(client) => client,
        Err(_) => {
            result.resets += 1;
            return result;
        }
    };
    if client
        .set_read_timeout(Some(Duration::from_millis(250)))
        .is_err()
    {
        result.resets += 1;
        return result;
    }
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        match client.get(wire_walk(i, lines, group)) {
            Ok(resp) => {
                result.requests += 1;
                match resp.status {
                    Status::Retry => result.retry += 1,
                    Status::ShardDown => {
                        result.shard_down += 1;
                        if result.ttd.is_none() {
                            if let Some(t0) = *injected_at.lock().expect("injection clock") {
                                result.ttd = Some(t0.elapsed());
                            }
                        }
                    }
                    Status::ShuttingDown => break,
                    _ => {}
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !draining.load(Ordering::Relaxed) {
                    result.hangs += 1;
                }
                break;
            }
            Err(_) => {
                if !draining.load(Ordering::Relaxed) {
                    result.resets += 1;
                }
                break;
            }
        }
        i += 1;
    }
    result
}

fn main() {
    let opts = Opts::parse();
    header("Chaos soak (worker panics + stuck bits + saturation + mid-run shutdown)");
    println!(
        "shards = {}, clients = {}, lines = {}, queue = {}, ber = {:.2e}, stuck ber = {:.2e}, \
         panic shards = {}, seed = {}",
        opts.shards,
        opts.clients,
        opts.lines,
        opts.queue,
        opts.ber,
        opts.stuck_ber,
        opts.panic_shards,
        opts.seed
    );

    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xC0FF_EE00);
    let stuck = StuckBitMap::random(&mut rng, opts.lines, opts.stuck_ber);
    println!(
        "stuck map: {} lines, {} stuck bits",
        stuck.faulty_lines(),
        stuck.total_stuck_bits()
    );
    // The spatial A/B runs first, on its own quiet services: the soak's
    // i.i.d. daemon injection and stuck bits would otherwise blur the
    // clustered-vs-uniform contrast the detector is being graded on.
    let spatial = spatial_phase(&opts);
    let config = ServiceConfig {
        queue_depth: opts.queue,
        stuck,
        // Always on: the soak asserts detection latency through the same
        // endpoint an operator would watch.
        telemetry: Some(TelemetryConfig {
            sample_every: Duration::from_millis(opts.sample_ms.max(1)),
            flight_recorder_cap: 256,
            jsonl_path: opts.flight_recorder.as_ref().map(Into::into),
            port: Some(opts.telemetry_port),
            bind: opts.bind,
        }),
        audit: AuditConfig {
            alerts_jsonl: opts.alerts.as_ref().map(Into::into),
            ..AuditConfig::default()
        },
        ..opts.service_config(opts.ber, opts.seed)
    };
    let group_lines = u64::from(config.cache.group_lines);
    // Read the committed baseline up front: `--json` overwrites the file.
    let baseline = std::fs::read_to_string("BENCH_chaos.json").ok();
    let service = Service::start(config).expect("valid service config");
    let telemetry_addr = service.telemetry_addr().expect("telemetry endpoint is on");
    let registry = std::sync::Arc::clone(service.registry());
    println!("telemetry: GET http://{telemetry_addr}/metrics | /healthz | /snapshot.json");
    // The wire front end is always on: the soak asserts that every
    // injected fault surfaces as a *typed status* on live connections.
    let wire_server = NetServer::start(service.handle(), NetConfig::default())
        .expect("bind wire server on an ephemeral loopback port");
    let wire_addr = wire_server.addr();
    println!(
        "wire: sudoku-net front end on {wire_addr} ({} clients)",
        opts.wire_clients
    );
    let chaos_handle = service.handle();
    let load = LoadgenConfig {
        workers: opts.clients.max(1),
        ..LoadgenConfig::small(opts.requests, opts.seed)
    };

    let mut client_panics = 0u64;
    let mut totals = WorkerResult::default();
    let mut wire_totals = WireResult::default();
    let mut ttd: Option<Duration> = None;
    let mut ttd_alerts: Vec<Option<Duration>> = vec![None; TTD_CLASSES.len()];
    let injected_panics = opts.panic_shards.min(opts.shards.saturating_sub(1));
    let wire_stop = AtomicBool::new(false);
    let wire_draining = AtomicBool::new(false);
    let injected_at: Mutex<Option<Instant>> = Mutex::new(None);
    let report = std::thread::scope(|s| {
        let joins: Vec<_> = (0..load.workers as u64)
            .map(|w| {
                let (handle, load) = (service.handle(), &load);
                s.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        load_worker(&handle, load, w, opts.lines)
                    }))
                })
            })
            .collect();
        let wire_joins: Vec<_> = (0..opts.wire_clients)
            .map(|_| {
                let (stop, draining, injected) = (&wire_stop, &wire_draining, &injected_at);
                let lines = opts.lines.min(256);
                s.spawn(move || {
                    wire_client(wire_addr, lines, group_lines, stop, draining, injected)
                })
            })
            .collect();

        // Chaos controller: let the soak warm up under saturation, then
        // stall the daemon (alive but not scrubbing) while watching the
        // alert stream, kill workers (alternating plain and lock-holding
        // panics), kill the daemon, and finally shut down mid-flight.
        std::thread::sleep(Duration::from_millis(opts.panic_after_ms));
        let mut poll_spent = Duration::ZERO;
        if opts.stall_ms > 0 {
            let after = last_alert_seq(telemetry_addr);
            service.inject_daemon_stall(Duration::from_millis(opts.stall_ms));
            println!("injected scrub daemon stall: {} ms", opts.stall_ms);
            // The stall-driven classes: `daemon_stuck` once the tick
            // counter freezes past the stall budget, `deadline_miss` once
            // packet staleness crosses the 20 ms guarantee,
            // `tick_lag_breach` when the delayed tick finally starts and
            // reports its lag, and `scrub_floor_breach` when the adaptive
            // controller's pinned-at-the-floor clamps coincide with those
            // misses (the floor itself proved insufficient).
            let deadline = Duration::from_millis(opts.stall_ms) + Duration::from_secs(2);
            let poll_start = Instant::now();
            let classes: Vec<(&str, Option<f64>)> = TTD_CLASSES[..4]
                .iter()
                .map(|&class| (class, min_alert_value(class, opts.stall_ms)))
                .collect();
            let stall_ttds = time_to_alerts(telemetry_addr, &classes, after, deadline);
            ttd_alerts[..4].copy_from_slice(&stall_ttds);
            poll_spent += poll_start.elapsed();
            for (class, t) in TTD_CLASSES[..4].iter().zip(&stall_ttds) {
                match t {
                    Some(d) => {
                        println!(
                            "alert {class}: raised {:.1} ms after stall",
                            d.as_secs_f64() * 1e3
                        )
                    }
                    None => println!(
                        "alert {class}: not raised within {:.0} ms",
                        deadline.as_secs_f64() * 1e3
                    ),
                }
            }
        }
        // Stamp the injection clock first: the wire clients date their
        // first typed SHARD_DOWN against it.
        *injected_at.lock().expect("injection clock") = Some(Instant::now());
        for shard in 0..injected_panics {
            let hold_lock = shard % 2 == 1;
            let _ = chaos_handle.inject_worker_panic(shard, hold_lock);
            println!("injected worker panic: shard {shard} (hold_lock = {hold_lock})");
        }
        // Time-to-detection: injection → /healthz going 503 with the
        // quarantined shard listed. Measured before the daemon panic so
        // the 503 is attributable to the worker quarantine alone.
        if injected_panics > 0 {
            let deadline = Duration::from_millis(opts.ttd_budget_ms) + Duration::from_secs(2);
            let poll_start = Instant::now();
            ttd = time_to_detection(telemetry_addr, deadline);
            poll_spent += poll_start.elapsed();
            match ttd {
                Some(d) => println!(
                    "time-to-detection: {:.1} ms (budget {} ms)",
                    d.as_secs_f64() * 1e3,
                    opts.ttd_budget_ms
                ),
                None => println!(
                    "time-to-detection: /healthz never reported the quarantine \
                     (polled {:.0} ms)",
                    poll_spent.as_secs_f64() * 1e3
                ),
            }
        }
        let after = last_alert_seq(telemetry_addr);
        service.inject_daemon_panic();
        println!("injected scrub daemon panic");
        {
            // The daemon honors the panic flag at its next tick; the
            // watchdog then notices the dead thread within one scan.
            let poll_start = Instant::now();
            let dead = time_to_alerts(
                telemetry_addr,
                &[(TTD_CLASSES[4], None)],
                after,
                Duration::from_secs(2),
            );
            ttd_alerts[4] = dead[0];
            poll_spent += poll_start.elapsed();
            match dead[0] {
                Some(d) => println!(
                    "alert daemon_dead: raised {:.1} ms after panic",
                    d.as_secs_f64() * 1e3
                ),
                None => println!("alert daemon_dead: not raised within 2000 ms"),
            }
        }
        std::thread::sleep(
            Duration::from_millis(opts.shutdown_after_ms.saturating_sub(opts.panic_after_ms))
                .saturating_sub(poll_spent),
        );
        println!("mid-run shutdown (clients still issuing requests)...");
        // Transport errors are expected once the drain begins; the wire
        // contract the soak enforces covers the window before it.
        wire_draining.store(true, Ordering::Relaxed);
        wire_stop.store(true, Ordering::Relaxed);
        let audit = service.audit().snapshot();
        let report = service.shutdown();
        for join in wire_joins {
            let r = join.join().expect("wire client never unwinds");
            wire_totals.requests += r.requests;
            wire_totals.retry += r.retry;
            wire_totals.shard_down += r.shard_down;
            wire_totals.hangs += r.hangs;
            wire_totals.resets += r.resets;
            wire_totals.ttd = match (wire_totals.ttd, r.ttd) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        for join in joins {
            match join.join().expect("client thread never unwinds") {
                Ok(r) => totals.add(&r),
                Err(_) => client_panics += 1,
            }
        }
        (report, audit)
    });
    let (report, audit) = report;
    wire_server.shutdown();

    println!(
        "wire: {} requests, {} retry, {} shard_down, {} hangs, {} resets, ttd = {}",
        wire_totals.requests,
        wire_totals.retry,
        wire_totals.shard_down,
        wire_totals.hangs,
        wire_totals.resets,
        match wire_totals.ttd {
            Some(d) => format!("{:.1} ms", d.as_secs_f64() * 1e3),
            None => "none".to_string(),
        }
    );
    println!(
        "clients: {} reads, {} writes, {} shed, {} due, {} sdc, {} served-degraded, {} panics",
        totals.reads,
        totals.writes,
        totals.shed,
        totals.due,
        totals.sdc,
        totals.served_degraded,
        client_panics
    );
    print_shard_waits(&registry);
    println!(
        "service: worker panics = {:?}, daemon panicked = {}, quarantined = {:?}",
        report.worker_panics, report.daemon_panicked, report.quarantined
    );
    println!(
        "degraded: {} rejects, {} spared lines, {} stuck reasserts, {} skipped H2 escalations",
        report.degraded.shard_down_rejects,
        report.degraded.spared_lines,
        report.degraded.stuck_reasserts,
        report.degraded.skipped_h2_escalations
    );
    println!(
        "scrub: {} ticks ({} skipped), {} escalations, {} unresolved",
        report.scrub_ticks, report.skipped_ticks, report.escalations, report.unresolved_lines
    );
    let interval = &audit.achieved_scrub_interval_ns;
    println!(
        "audit: {} alerts ({} critical), {} deadline misses, achieved scrub interval \
         p50 = {:.1} ms / p99 = {:.1} ms / max = {:.1} ms over {} packets",
        audit.alerts_total,
        audit.alerts_critical,
        audit.scrub_deadline_misses,
        interval.quantile(0.50) as f64 / 1e6,
        interval.quantile(0.99) as f64 / 1e6,
        interval.max() as f64 / 1e6,
        interval.count()
    );

    if flag("--json") {
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_str("name", "chaos_soak")
            .field_u64("shards", opts.shards as u64)
            .field_u64("clients", load.workers as u64)
            .field_u64("panic_shards", opts.panic_shards as u64)
            .field_u64("reads", totals.reads)
            .field_u64("writes", totals.writes)
            .field_u64("shed", totals.shed)
            .field_u64("due", totals.due)
            .field_u64("sdc", totals.sdc)
            .field_u64("served_degraded", totals.served_degraded)
            .field_u64("client_panics", client_panics)
            .field_bool("daemon_panicked", report.daemon_panicked)
            .field_array_u64(
                "worker_panics",
                report.worker_panics.iter().map(|&s| s as u64),
            )
            .field_raw("degraded", &report.degraded.to_json());
        match ttd {
            Some(d) => obj.field_f64("ttd_ms", d.as_secs_f64() * 1e3),
            None => obj.field_raw("ttd_ms", "null"),
        };
        let mut ttd_obj = sudoku_obs::json::JsonObject::new();
        for (class, t) in TTD_CLASSES.iter().zip(&ttd_alerts) {
            match t {
                Some(d) => ttd_obj.field_f64(class, d.as_secs_f64() * 1e3),
                None => ttd_obj.field_raw(class, "null"),
            };
        }
        match spatial.ttd {
            Some(d) => ttd_obj.field_f64("spatial_correlation", d.as_secs_f64() * 1e3),
            None => ttd_obj.field_raw("spatial_correlation", "null"),
        };
        let mut budget_obj = sudoku_obs::json::JsonObject::new();
        for class in TTD_CLASSES {
            budget_obj.field_u64(class, alert_budget_ms(class, opts.stall_ms));
        }
        budget_obj.field_u64("spatial_correlation", opts.spatial_ttd_budget_ms);
        match wire_totals.ttd {
            Some(d) => obj.field_f64("wire_ttd_ms", d.as_secs_f64() * 1e3),
            None => obj.field_raw("wire_ttd_ms", "null"),
        };
        obj.field_raw("ttd_alert_ms", &ttd_obj.finish())
            .field_raw("ttd_alert_budget_ms", &budget_obj.finish())
            .field_u64("spatial_flips", opts.spatial_flips)
            .field_bool("spatial_iid_fired", spatial.iid_fired)
            .field_raw("spatial", spatial.correlation.as_deref().unwrap_or("null"))
            .field_u64("wire_requests", wire_totals.requests)
            .field_u64("wire_retry", wire_totals.retry)
            .field_u64("wire_shard_down", wire_totals.shard_down)
            .field_u64("wire_hangs", wire_totals.hangs)
            .field_u64("wire_resets", wire_totals.resets)
            .field_u64("wire_ttd_budget_ms", opts.wire_ttd_budget_ms)
            .field_u64("stall_ms", opts.stall_ms)
            .field_u64("alerts_total", audit.alerts_total)
            .field_u64("alerts_critical", audit.alerts_critical)
            .field_u64("scrub_deadline_misses", audit.scrub_deadline_misses)
            .field_u64(
                "scrub_interval_p50_ns",
                audit.achieved_scrub_interval_ns.quantile(0.50),
            )
            .field_u64(
                "scrub_interval_p99_ns",
                audit.achieved_scrub_interval_ns.quantile(0.99),
            )
            .field_u64(
                "scrub_interval_max_ns",
                audit.achieved_scrub_interval_ns.max(),
            )
            .field_u64("scrub_floor_clamps", report.scrub_floor_clamps)
            .field_u64("scrub_lines_swept", report.scrub_lines_swept)
            .field_u64("ttd_budget_ms", opts.ttd_budget_ms)
            .field_u64("sample_ms", opts.sample_ms)
            .field_u64("seed", opts.seed)
            .field_str("git_rev", &git_rev());
        // Soak-wide spatial stamps: where the soak's own (i.i.d. + stuck)
        // faults actually landed, as geometry plus hottest-cell skew.
        let maps = &report.heatmaps;
        let cells = maps.observed_cells();
        let total: u64 = cells.iter().sum();
        let max = cells.iter().copied().max().unwrap_or(0);
        let mean = total as f64 / cells.len().max(1) as f64;
        obj.field_u64("heatmap_shards", maps.geometry().n_shards() as u64)
            .field_u64("heatmap_regions", maps.geometry().n_regions() as u64)
            .field_u64("heatmap_observed_total", total)
            .field_f64(
                "max_region_skew",
                if mean > 0.0 { max as f64 / mean } else { 0.0 },
            );
        std::fs::write("BENCH_chaos.json", obj.finish() + "\n").expect("write BENCH_chaos.json");
        println!("wrote BENCH_chaos.json");
    }

    // Final heatmap snapshot for post-mortem (`forensics --heatmap <path>`
    // renders it): the full per-cell grids plus the last correlation stat,
    // the same shape `/heatmap.json` serves live.
    if let Some(path) = &opts.heatmap {
        std::fs::write(
            path,
            report.heatmaps.to_json(report.spatial.as_ref()) + "\n",
        )
        .unwrap_or_else(|e| panic!("write --heatmap snapshot {path}: {e}"));
        println!("wrote final heatmap snapshot to {path}");
    }

    if totals.sdc > 0 || client_panics > 0 {
        eprintln!(
            "FAIL: sdc = {}, client panics = {} (must both be 0)",
            totals.sdc, client_panics
        );
        std::process::exit(2);
    }
    if totals.due > opts.max_due {
        eprintln!(
            "FAIL: due = {} exceeds --max-due {}",
            totals.due, opts.max_due
        );
        std::process::exit(3);
    }
    if opts.panic_shards > 0 && totals.served_degraded == 0 && totals.reads > 0 {
        eprintln!("FAIL: no reads served after quarantine — surviving shards did not serve");
        std::process::exit(4);
    }
    if injected_panics > 0 {
        let budget = Duration::from_millis(opts.ttd_budget_ms);
        match ttd {
            None => {
                eprintln!("FAIL: /healthz never reported the injected quarantine");
                std::process::exit(5);
            }
            Some(d) if d > budget => {
                eprintln!(
                    "FAIL: time-to-detection {:.1} ms exceeds the {} ms budget \
                     (one sampler interval)",
                    d.as_secs_f64() * 1e3,
                    opts.ttd_budget_ms
                );
                std::process::exit(5);
            }
            Some(_) => {}
        }
    }
    // Every alert class is held to its own documented budget — a class
    // that fires late is as much a contract breach as one that never
    // fires, and a blanket "most classes fired" rule hides both.
    let mut alert_fail = false;
    if opts.stall_ms > 0 {
        for (class, t) in TTD_CLASSES.iter().zip(&ttd_alerts) {
            let budget = alert_budget_ms(class, opts.stall_ms);
            match t {
                None => {
                    eprintln!("FAIL: alert {class} never fired (budget {budget} ms)");
                    alert_fail = true;
                }
                Some(d) if d.as_secs_f64() * 1e3 > budget as f64 => {
                    eprintln!(
                        "FAIL: alert {class} fired {:.1} ms after injection \
                         (budget {budget} ms)",
                        d.as_secs_f64() * 1e3
                    );
                    alert_fail = true;
                }
                Some(_) => {}
            }
        }
    }
    if opts.spatial_flips > 0 {
        let budget = Duration::from_millis(opts.spatial_ttd_budget_ms);
        match spatial.ttd {
            None => {
                eprintln!(
                    "FAIL: clustered injection never raised spatial_correlation \
                     (budget {} ms)",
                    opts.spatial_ttd_budget_ms
                );
                alert_fail = true;
            }
            Some(d) if d > budget => {
                eprintln!(
                    "FAIL: spatial_correlation fired {:.1} ms after the clustered \
                     injection (budget {} ms)",
                    d.as_secs_f64() * 1e3,
                    opts.spatial_ttd_budget_ms
                );
                alert_fail = true;
            }
            Some(_) => {}
        }
        if spatial.iid_fired {
            eprintln!(
                "FAIL: i.i.d. control injection raised spatial_correlation — \
                 the detector cannot tell clustered from uniform"
            );
            alert_fail = true;
        }
    }
    if alert_fail {
        std::process::exit(6);
    }
    if opts.wire_clients > 0 {
        if wire_totals.hangs > 0 || wire_totals.resets > 0 {
            eprintln!(
                "FAIL: wire clients hung {} times / saw {} resets before the drain \
                 (every fault must be a typed status)",
                wire_totals.hangs, wire_totals.resets
            );
            std::process::exit(7);
        }
        if injected_panics > 0 {
            let budget = Duration::from_millis(opts.wire_ttd_budget_ms);
            match wire_totals.ttd {
                None => {
                    eprintln!(
                        "FAIL: no wire client ever saw the quarantine as a typed \
                         SHARD_DOWN status"
                    );
                    std::process::exit(7);
                }
                Some(d) if d > budget => {
                    eprintln!(
                        "FAIL: wire time-to-detection {:.1} ms exceeds the {} ms budget",
                        d.as_secs_f64() * 1e3,
                        opts.wire_ttd_budget_ms
                    );
                    std::process::exit(7);
                }
                Some(_) => {}
            }
        }
    }
    if flag("--check-baseline") {
        if let Some(text) = baseline.as_deref() {
            warn_baseline_rev(text, "BENCH_chaos.json baseline");
        } else {
            eprintln!("warning: --check-baseline set but no committed BENCH_chaos.json was found");
        }
    }
    println!("PASS: survived the soak with no SDC and no client panic");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stall_is_timed_by_its_own_tick_lag_breach() {
        // Two `/alerts.json` bodies polled after a 100 ms stall: first a
        // 3.1 ms saturation lag raised just after the stall began, then
        // also the stall's own 103 ms breach.
        let alert = |seq: u64, class: &str, value: f64| {
            format!(
                "{{\"seq\":{seq},\"unix_ms\":{seq},\"class\":\"{class}\",\
                 \"severity\":\"warning\",\"shard\":null,\"value\":{value},\
                 \"threshold\":2000000,\"message\":\"daemon tick started late\"}}"
            )
        };
        let body = |alerts: &[String]| {
            format!(
                "{{\"total\":{n},\"criticals\":0,\"dropped\":0,\"after\":4,\
                 \"alerts\":[{}]}}",
                alerts.join(","),
                n = 4 + alerts.len()
            )
        };
        let early = vec![
            alert(5, "daemon_stuck", 12e6),
            alert(6, "tick_lag_breach", 3.1e6),
        ];
        let mut late = early.clone();
        late.push(alert(7, "tick_lag_breach", 103.2e6));
        let (early, late) = (body(&early), body(&late));
        let floor = min_alert_value("tick_lag_breach", 100);
        assert_eq!(floor, Some(50e6));
        assert!(!lists_alert(&early, "tick_lag_breach", floor));
        assert!(lists_alert(&late, "tick_lag_breach", floor));
        // The other classes count their first alert, whatever its value.
        let stuck_floor = min_alert_value("daemon_stuck", 100);
        assert_eq!(stuck_floor, None);
        assert!(lists_alert(&early, "daemon_stuck", stuck_floor));
        assert!(lists_alert(&early, "tick_lag_breach", None));
        assert!(!lists_alert(&late, "deadline_miss", None));
    }

    #[test]
    fn wire_walk_meets_every_shard_in_any_window() {
        let (lines, n_shards, group) = (256u64, 4u64, 16u64);
        let shard = |line: u64| (line / group) % n_shards;
        let walk: Vec<u64> = (0..2 * lines).map(|i| wire_walk(i, lines, group)).collect();
        for window in walk.windows(n_shards as usize) {
            let mut seen: Vec<u64> = window.iter().map(|&l| shard(l)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n_shards).collect::<Vec<_>>(), "{window:?}");
        }
        let mut first: Vec<u64> = walk[..lines as usize].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..lines).collect::<Vec<_>>());
        assert!((0..64).all(|i| wire_walk(i, 8, group) < 8));
    }
}
