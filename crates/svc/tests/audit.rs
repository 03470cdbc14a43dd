//! End-to-end soak of the reliability audit plane: a real service with
//! the watchdog, alert log, and scrub-deadline tracker running against
//! live traffic, plus the HTTP surface that exposes them. The tests
//! inject the failures the watchdog exists for — a stalled scrub daemon,
//! a daemon panic — and assert the alerts arrive through `/alerts.json`
//! within operator-visible time, that `/metrics` stays a valid
//! Prometheus exposition throughout (validated by the `promtext`
//! parser, not substring grep), and that the exporter answers malformed
//! clients with errors instead of hangups.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use sudoku_svc::{AuditConfig, Service, ServiceConfig, TelemetryConfig};

#[path = "../src/promtext.rs"]
mod promtext;

fn audit_service(lines: u64, seed: u64, alerts_jsonl: Option<&std::path::Path>) -> Service {
    let mut config = ServiceConfig::small(lines, 4, 1e-4, seed);
    config.scrub_every = Some(Duration::from_millis(1));
    config.telemetry = Some(TelemetryConfig {
        sample_every: Duration::from_millis(20),
        flight_recorder_cap: 64,
        jsonl_path: None,
        port: Some(0), // ephemeral: tests never collide
        ..TelemetryConfig::default()
    });
    config.audit = AuditConfig {
        alerts_jsonl: alerts_jsonl.map(Into::into),
        ..AuditConfig::default()
    };
    Service::start(config).expect("service with audit plane starts")
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Sends raw bytes and returns the full response text — for clients that
/// are deliberately *not* speaking HTTP. Half-closes the write side so
/// the server sees EOF instead of waiting out its IO timeout.
fn http_raw(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream.write_all(request).unwrap();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn data_with(bit: usize) -> LineData {
    let mut d = LineData::zero();
    d.set_bit(bit % 512, true);
    d
}

/// Polls `/alerts.json` until the named class appears, returning how long
/// that took.
fn wait_for_alert(addr: SocketAddr, class: &str, budget: Duration) -> Duration {
    let needle = format!("\"class\":\"{class}\"");
    let start = Instant::now();
    loop {
        let (status, body) = http_get(addr, "/alerts.json");
        assert_eq!(status, 200);
        if body.contains(&needle) {
            return start.elapsed();
        }
        assert!(
            start.elapsed() < budget,
            "alert {class} not raised within {budget:?}; stream: {body}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn metrics_stay_a_valid_prometheus_exposition_with_audit_families() {
    let service = audit_service(1024, 19, None);
    let addr = service.telemetry_addr().expect("exporter is on");
    let handle = service.handle();
    for line in 0..256u64 {
        handle.write(line, &data_with(line as usize)).unwrap();
        assert_eq!(handle.read(line).unwrap(), data_with(line as usize));
    }
    // Let at least one scrub tick land so the deadline tracker has
    // achieved-interval observations to export.
    std::thread::sleep(Duration::from_millis(20));

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let parsed = promtext::parse(&metrics)
        .unwrap_or_else(|e| panic!("/metrics is not valid Prometheus text: {e}\n{metrics}"));
    // Every declared histogram family satisfies the invariants Prometheus
    // would enforce at scrape time — including the new audit-plane one.
    parsed
        .check_histograms()
        .unwrap_or_else(|e| panic!("histogram invariant violated: {e}"));
    assert!(
        parsed
            .histogram_families()
            .contains(&"sudoku_achieved_scrub_interval_ns"),
        "audit histogram family declared: {:?}",
        parsed.histogram_families()
    );
    for family in [
        "sudoku_scrub_deadline_misses_total",
        "sudoku_observed_ber",
        "sudoku_error_budget_burn_fast",
        "sudoku_error_budget_burn_slow",
        "sudoku_alerts_critical_total",
    ] {
        assert!(
            parsed.value(family).is_some(),
            "{family} sample present and unique"
        );
    }
    assert_eq!(
        parsed.values("sudoku_scrub_staleness_ns").len(),
        4,
        "one staleness gauge per shard"
    );
    let report = service.shutdown();
    assert_eq!(report.reads, 256);
}

#[test]
fn daemon_stall_raises_stuck_and_deadline_alerts_and_degrades_healthz_body() {
    let dir = std::env::temp_dir().join(format!("sudoku-audit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("alerts.jsonl");
    let service = audit_service(2048, 23, Some(&jsonl));
    let addr = service.telemetry_addr().expect("exporter is on");
    let handle = service.handle();
    for line in 0..64u64 {
        handle.write(line, &data_with(line as usize)).unwrap();
    }

    // Stall the daemon well past both the stuck budget (8 ticks = 8 ms)
    // and the 20 ms scrub deadline: alive but not scrubbing.
    service.inject_daemon_stall(Duration::from_millis(100));
    let stuck = wait_for_alert(addr, "daemon_stuck", Duration::from_secs(5));
    let miss = wait_for_alert(addr, "deadline_miss", Duration::from_secs(5));
    println!("daemon_stuck after {stuck:?}, deadline_miss after {miss:?}");

    // Soft degradation: /healthz stays 200 (nothing is quarantined) but
    // the body names the watchdog's reasons.
    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "watchdog conditions never 503: {health}");
    assert!(health.contains("\"degraded_reasons\""), "{health}");

    // The alert stream tails: everything after the last seq is empty.
    let (_, body) = http_get(addr, "/alerts.json");
    let total: u64 = {
        let at = body.find("\"total\":").expect("total field") + 8;
        body[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    assert!(total >= 2, "at least the two awaited alerts: {body}");
    let (status, tail) = http_get(addr, &format!("/alerts.json?after={total}"));
    assert_eq!(status, 200);
    assert!(tail.contains("\"alerts\":[]"), "tail past the end: {tail}");

    // Let the stall run out so the daemon re-sweeps the now-stale
    // packets: the achieved-interval tracker counts those late sweeps as
    // deadline misses (the alert above was staleness-based and fired
    // mid-stall; the counter increments when the sweep lands).
    std::thread::sleep(Duration::from_millis(200));

    // Kill the daemon outright: the watchdog notices the dead thread and
    // escalates within an operator-visible budget.
    service.inject_daemon_panic();
    let dead = wait_for_alert(addr, "daemon_dead", Duration::from_secs(10));
    println!("daemon_dead after {dead:?}");

    let report = service.shutdown();
    assert!(report.alerts >= 3, "alerts counted in the report");
    assert!(report.critical_alerts >= 1, "deadline misses are critical");
    assert!(report.scrub_deadline_misses >= 1);

    // The JSONL sink persisted the same stream the endpoint served.
    let sink = std::fs::read_to_string(&jsonl).unwrap();
    assert!(sink.contains("\"class\":\"daemon_stuck\""), "{sink}");
    assert!(sink.contains("\"class\":\"daemon_dead\""), "{sink}");
    assert!(
        sink.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
        "sink lines are JSON objects"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forced_floor_clamp_raises_scrub_floor_breach_within_budget() {
    // A 100 ms stall against a 1 ms tick forces the failure the
    // floor-breach class exists for: when the daemon finally wakes, the
    // huge tick lag reads as saturation-level demand pressure (the
    // controller clamps its quota at the hard floor) while the late
    // sweeps land as counted deadline misses. Clamps and misses moving
    // together is the watchdog's trigger.
    let service = audit_service(2048, 37, None);
    let addr = service.telemetry_addr().expect("exporter is on");
    service.inject_daemon_stall(Duration::from_millis(100));
    let budget = Duration::from_secs(5);
    let ttd = wait_for_alert(addr, "scrub_floor_breach", budget);
    println!("scrub_floor_breach after {ttd:?} (budget {budget:?})");

    // The clamp counter that fed the alert is on the operator surface:
    // /metrics exports it as a counter family and /healthz carries it.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let clamp_line = metrics
        .lines()
        .find(|l| l.starts_with("sudoku_scrub_floor_clamps_total "))
        .expect("clamp counter family exported");
    let clamps: u64 = clamp_line
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("counter value");
    assert!(clamps > 0, "the breach implies at least one clamp");
    let (_, health) = http_get(addr, "/healthz");
    assert!(health.contains("\"scrub_floor_clamps\":"), "{health}");

    let report = service.shutdown();
    assert!(report.scrub_floor_clamps > 0);
    assert!(report.scrub_deadline_misses >= 1);
    assert!(report.critical_alerts >= 1, "floor breach is critical");
}

#[test]
fn exporter_answers_bad_clients_with_errors_not_hangups() {
    let service = audit_service(512, 29, None);
    let addr = service.telemetry_addr().expect("exporter is on");

    let resp = http_raw(addr, b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405"), "non-GET method: {resp}");
    let resp = http_raw(addr, b"not an http request at all");
    assert!(resp.starts_with("HTTP/1.1 400"), "garbage: {resp}");
    let resp = http_raw(addr, b"GET /metrics");
    assert!(resp.starts_with("HTTP/1.1 400"), "no HTTP version: {resp}");
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);

    // And the real endpoints still work after the abuse.
    let (status, _) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    service.shutdown();
}

#[test]
fn traces_endpoint_links_live_requests_to_exemplars() {
    let service = audit_service(1024, 31, None);
    let addr = service.telemetry_addr().expect("exporter is on");
    let handle = service.handle();
    // Enough requests that the 1-in-64 sampler must fire many times.
    for line in 0..1024u64 {
        handle.write(line, &data_with(line as usize)).unwrap();
        let _ = handle.read(line).unwrap();
    }
    let (status, body) = http_get(addr, "/traces.json");
    assert_eq!(status, 200);
    assert!(body.contains("\"traces_issued\":"), "{body}");
    assert!(body.contains("\"traces\":["), "{body}");
    assert!(
        body.contains("\"path\":") && body.contains("\"outcome\":"),
        "structured spans serialize path and outcome: {body}"
    );
    assert!(
        body.contains("\"read_exemplars\":[{"),
        "read latency buckets carry exemplar trace IDs: {body}"
    );
    service.shutdown();
}
