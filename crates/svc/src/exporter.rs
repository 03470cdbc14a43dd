//! The std-only scrape endpoint of the telemetry plane: a tiny HTTP/1.x
//! server on `127.0.0.1` answering
//!
//! * `GET /metrics` — a fresh [`TelemetrySnapshot`] (including the audit
//!   plane's deadline/burn/alert metrics) in Prometheus text exposition
//!   format,
//! * `GET /healthz` — `200` with a small JSON body while every shard is up
//!   and the scrub daemon alive, `503` with the quarantined-shard list the
//!   moment anything is down (computed **live** from [`ShardHealth`], not
//!   from the last sampler tick, so detection latency is a scrape away).
//!   The body also carries the watchdog's `degraded_reasons` — soft
//!   conditions (tick lag, queue saturation, budget burn) that do **not**
//!   flip the status code, so liveness probes never flap on them,
//! * `GET /snapshot.json` — the flight recorder's most recent snapshot
//!   (or a fresh capture before the sampler's first tick),
//! * `GET /alerts.json[?after=SEQ]` — the watchdog's structured alert
//!   stream; `after` returns only alerts with `seq > SEQ`, so pollers can
//!   tail the stream without re-reading it,
//! * `GET /traces.json` — the sampled causal traces plus the latency
//!   histogram exemplars (per-bucket most-recent trace IDs) that link a
//!   p999 bucket to a concrete request,
//! * `GET /heatmap.json` — the spatial reliability plane: every per-cell
//!   `shard × region` grid (injected, repair tiers, DUEs, stuck bits,
//!   strikes, scrub staleness), the combined observed grid, and the
//!   correlation detector's latest verdict.
//!
//! No HTTP library: the accept loop parses exactly the request line,
//! answers with `Content-Length` + `Connection: close`, and serves one
//! request per connection. Malformed request lines get `400`, non-`GET`
//! methods `405`, unknown paths `404` — a broken scraper sees an honest
//! status, never a silent hangup. That is all `curl`, Prometheus, and the
//! CI smoke jobs need, and it keeps the no-new-dependencies invariant.
//!
//! [`ShardHealth`]: crate::ShardHealth

use crate::audit::{degraded_reasons_json, AuditPlane};
use crate::sharded::ShardedCache;
use crate::telemetry::{FlightRecorder, TelemetryRegistry, TelemetrySnapshot};
use std::io::{Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use sudoku_obs::json::JsonObject;

/// How long the accept loop naps when no connection is pending.
const ACCEPT_NAP: Duration = Duration::from_millis(5);

/// Per-connection read/write timeout: a stuck scraper must not wedge the
/// exporter thread.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// The running scrape endpoint. Stops (and joins its thread) on drop.
#[derive(Debug)]
pub struct Exporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// Parses an operator-supplied bind address: a bare IP (`127.0.0.1`,
/// `0.0.0.0`, `::1`). Both network planes — this HTTP exporter and the
/// `sudoku-net` wire server — accept the same `--bind` syntax through this
/// one helper, so "loopback-only vs exposed" is configured identically.
///
/// # Errors
///
/// A human-readable message naming the offending input.
pub fn parse_bind_addr(s: &str) -> Result<IpAddr, String> {
    s.trim()
        .parse::<IpAddr>()
        .map_err(|_| format!("bad bind address {s:?} (expected an IP like 127.0.0.1 or 0.0.0.0)"))
}

impl Exporter {
    /// Binds `bind:port` (0 = ephemeral; read the chosen port back
    /// via [`Exporter::addr`]) and starts the serving thread.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim (port in use, no permission).
    pub fn start(
        bind: IpAddr,
        port: u16,
        state: Arc<ShardedCache>,
        registry: Arc<TelemetryRegistry>,
        recorder: Arc<FlightRecorder>,
        plane: Arc<AuditPlane>,
    ) -> std::io::Result<Exporter> {
        let listener = TcpListener::bind((bind, port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            serve_loop(
                &listener,
                &state,
                &registry,
                &recorder,
                &plane,
                &thread_stop,
            );
        });
        Ok(Exporter {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn serve_loop(
    listener: &TcpListener,
    state: &ShardedCache,
    registry: &TelemetryRegistry,
    recorder: &FlightRecorder,
    plane: &AuditPlane,
    stop: &AtomicBool,
) {
    // Scrape-triggered snapshots get their own (negative-free, but
    // distinct) sequence space: the sampler numbers the flight-recorder
    // ring; these number ad-hoc captures.
    let scrape_seq = AtomicU64::new(0);
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One request per connection; any per-connection error is
                // the scraper's problem, never the service's.
                let _ = serve_connection(stream, state, registry, recorder, plane, &scrape_seq);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_NAP);
            }
            Err(_) => std::thread::sleep(ACCEPT_NAP),
        }
    }
}

/// What the request parser made of the request line.
enum Request {
    /// A plausible `GET <target> HTTP/1.x` line.
    Get(String),
    /// A well-formed request line with any other method.
    OtherMethod(String),
    /// Anything else: truncated, oversized, empty, or not HTTP.
    Malformed,
}

fn serve_connection(
    mut stream: TcpStream,
    state: &ShardedCache,
    registry: &TelemetryRegistry,
    recorder: &FlightRecorder,
    plane: &AuditPlane,
    scrape_seq: &AtomicU64,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nonblocking(false)?;
    let target = match read_request(&mut stream)? {
        Request::Get(target) => target,
        Request::OtherMethod(method) => {
            return respond(
                &mut stream,
                "405 Method Not Allowed",
                "text/plain",
                &format!("method {method} not allowed; this endpoint is GET-only\n"),
            );
        }
        Request::Malformed => {
            return respond(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                "malformed request line\n",
            );
        }
    };
    // `?query` strings only matter to /alerts.json; every other endpoint
    // ignores them rather than 404ing a scraper that appends one.
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target.as_str(), ""),
    };
    let (status, content_type, body) = match path {
        "/metrics" => {
            let seq = scrape_seq.fetch_add(1, Ordering::Relaxed);
            let snap = TelemetrySnapshot::capture(seq, state, registry, plane);
            ("200 OK", "text/plain; version=0.0.4", snap.to_prometheus())
        }
        "/healthz" => {
            // Live health, straight off the shared atomics — a worker
            // panic is visible here the instant quarantine lands, without
            // waiting for a sampler tick. The status code is a pure
            // function of quarantine + daemon death; the watchdog's soft
            // degradation reasons ride in the body only, so probes don't
            // flap on a tick-lag blip.
            let quarantined = state.health().quarantined();
            let daemon_dead = registry.daemon_dead.get() != 0;
            let healthy = quarantined.is_empty() && !daemon_dead;
            let mut obj = JsonObject::new();
            obj.field_str("status", if healthy { "ok" } else { "degraded" })
                .field_array_u64("quarantined", quarantined.iter().map(|&s| s as u64))
                .field_u64("shards_up", state.health().n_up() as u64)
                .field_u64("shards", state.n_shards() as u64)
                .field_bool("daemon_dead", daemon_dead)
                .field_raw(
                    "degraded_reasons",
                    &degraded_reasons_json(&plane.degraded_reasons()),
                )
                .field_u64("alerts_total", plane.alerts.total())
                .field_u64("alerts_critical", plane.alerts.criticals())
                .field_u64("scrub_floor_clamps", registry.scrub_floor_clamps.get());
            let status = if healthy {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            (status, "application/json", obj.finish())
        }
        "/snapshot.json" => {
            let snap = recorder.latest().unwrap_or_else(|| {
                let seq = scrape_seq.fetch_add(1, Ordering::Relaxed);
                TelemetrySnapshot::capture(seq, state, registry, plane)
            });
            ("200 OK", "application/json", snap.to_json())
        }
        "/alerts.json" => {
            // `?after=SEQ` tails the stream: only alerts with seq > SEQ.
            // A malformed value is a client bug worth surfacing, not
            // guessing around.
            match parse_after(query) {
                Ok(after) => ("200 OK", "application/json", alerts_json(plane, after)),
                Err(bad) => (
                    "400 Bad Request",
                    "text/plain",
                    format!("bad query parameter: {bad}\n"),
                ),
            }
        }
        "/traces.json" => ("200 OK", "application/json", traces_json(registry)),
        "/heatmap.json" => (
            "200 OK",
            "application/json",
            state.heatmaps().to_json(plane.latest_spatial().as_ref()),
        ),
        _ => (
            "404 Not Found",
            "text/plain",
            format!("no such endpoint: {path}\n"),
        ),
    };
    respond(&mut stream, status, content_type, &body)
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Parses the optional `after=SEQ` pair out of a query string. Unknown
/// keys are ignored (scrapers add cachebusters); a non-numeric `after` is
/// an error carrying the offending pair.
fn parse_after(query: &str) -> Result<u64, String> {
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        if let Some(value) = pair.strip_prefix("after=") {
            return value.parse::<u64>().map_err(|_| pair.to_string());
        }
    }
    Ok(0)
}

/// The `/alerts.json` body: log totals plus every retained alert with
/// `seq > after`, oldest first.
fn alerts_json(plane: &AuditPlane, after: u64) -> String {
    let alerts: Vec<String> = plane
        .alerts
        .since(after)
        .iter()
        .map(|a| a.to_json())
        .collect();
    let mut obj = JsonObject::new();
    obj.field_u64("total", plane.alerts.total())
        .field_u64("criticals", plane.alerts.criticals())
        .field_u64("dropped", plane.alerts.dropped())
        .field_u64("after", after)
        .field_raw("alerts", &format!("[{}]", alerts.join(",")));
    obj.finish()
}

/// The `/traces.json` body: the sampled causal traces (oldest first) plus
/// the read/write latency-histogram exemplars — for each bucket that has
/// one, the most recent trace ID that landed there and the bucket's
/// `le` upper bound in ns.
fn traces_json(registry: &TelemetryRegistry) -> String {
    let traces: Vec<String> = registry
        .recent_traces()
        .iter()
        .map(|t| t.to_json())
        .collect();
    let exemplar_json = |slots: Vec<(usize, u64, u64)>| {
        let items: Vec<String> = slots
            .into_iter()
            .map(|(bucket, le_ns, trace)| {
                let mut obj = JsonObject::new();
                obj.field_u64("bucket", bucket as u64)
                    .field_u64("le_ns", le_ns)
                    .field_u64("trace", trace);
                obj.finish()
            })
            .collect();
        format!("[{}]", items.join(","))
    };
    let (read_ex, write_ex) = registry.exemplars();
    let mut obj = JsonObject::new();
    obj.field_u64("traces_issued", registry.traces_issued())
        .field_raw("traces", &format!("[{}]", traces.join(",")))
        .field_raw("read_exemplars", &exemplar_json(read_ex))
        .field_raw("write_exemplars", &exemplar_json(write_ex));
    obj.finish()
}

/// Reads the request head and classifies its request line. Scrapers send
/// tiny heads, so a couple of reads suffice; a head that fills the buffer
/// without completing its request line is malformed (no legitimate
/// scrape target is 2 KiB long).
fn read_request(stream: &mut TcpStream) -> std::io::Result<Request> {
    let mut buf = [0u8; 2048];
    let mut used = 0usize;
    let mut complete = false;
    loop {
        let n = match stream.read(&mut buf[used..]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => return Err(e),
        };
        used += n;
        if buf[..used].windows(2).any(|w| w == b"\r\n") {
            complete = true;
            break;
        }
        if used == buf.len() {
            break; // oversized request line
        }
    }
    if !complete {
        return Ok(Request::Malformed);
    }
    let head = String::from_utf8_lossy(&buf[..used]);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    Ok(match (parts.next(), parts.next(), parts.next()) {
        (Some("GET"), Some(path), Some(version)) if version.starts_with("HTTP/") => {
            Request::Get(path.to_string())
        }
        (Some(method), Some(_path), Some(version))
            if version.starts_with("HTTP/") && method.chars().all(|c| c.is_ascii_uppercase()) =>
        {
            Request::OtherMethod(method.to_string())
        }
        _ => Request::Malformed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditConfig;
    use sudoku_core::{Scheme, SudokuConfig};

    fn test_exporter() -> (Exporter, Arc<ShardedCache>) {
        let (exporter, state, _plane) = test_exporter_with_plane();
        (exporter, state)
    }

    fn test_exporter_with_plane() -> (Exporter, Arc<ShardedCache>, Arc<AuditPlane>) {
        let state =
            Arc::new(ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap());
        let registry = Arc::new(TelemetryRegistry::new(2));
        registry.reads.add(5);
        let recorder = Arc::new(FlightRecorder::new(8));
        let plane =
            Arc::new(AuditPlane::new(state.plan(), AuditConfig::default()).expect("no jsonl"));
        let exporter = Exporter::start(
            IpAddr::from([127, 0, 0, 1]),
            0,
            Arc::clone(&state),
            registry,
            recorder,
            Arc::clone(&plane),
        )
        .expect("ephemeral bind");
        (exporter, state, plane)
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to exporter");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a head/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn parse_bind_addr_accepts_ips_and_rejects_garbage() {
        assert_eq!(
            parse_bind_addr("127.0.0.1"),
            Ok(IpAddr::from([127, 0, 0, 1]))
        );
        assert_eq!(parse_bind_addr(" 0.0.0.0 "), Ok(IpAddr::from([0, 0, 0, 0])));
        assert_eq!(
            parse_bind_addr("::1"),
            Ok(IpAddr::from([0u16, 0, 0, 0, 0, 0, 0, 1]))
        );
        assert!(parse_bind_addr("localhost").is_err());
        assert!(parse_bind_addr("127.0.0.1:9090").is_err());
        assert!(parse_bind_addr("").is_err());
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (exporter, _state) = test_exporter();
        let (head, body) = get(exporter.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain"), "{head}");
        assert!(body.contains("sudoku_reads_total 5"), "{body}");
        assert!(
            body.contains("# TYPE sudoku_read_latency_ns histogram"),
            "{body}"
        );
    }

    #[test]
    fn healthz_flips_to_503_on_quarantine() {
        let (exporter, state) = test_exporter();
        let (head, body) = get(exporter.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        state.health().quarantine(1);
        let (head, body) = get(exporter.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(body.contains("\"quarantined\":[1]"), "{body}");
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
    }

    #[test]
    fn snapshot_endpoint_serves_json_even_before_first_sample() {
        let (exporter, _state) = test_exporter();
        let (head, body) = get(exporter.addr(), "/snapshot.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(
            body.starts_with('{') && body.trim_end().ends_with('}'),
            "{body}"
        );
        assert!(body.contains("\"reads\":5"), "{body}");
    }

    #[test]
    fn unknown_path_is_404_and_exporter_survives() {
        let (exporter, _state) = test_exporter();
        let (head, _) = get(exporter.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        // Still serving afterwards.
        let (head, _) = get(exporter.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    }

    fn raw(addr: SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to exporter");
        stream.write_all(request).unwrap();
        // Half-close so a request with no CRLF terminator reads as EOF on
        // the server instead of waiting out the IO timeout.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response
    }

    #[test]
    fn malformed_requests_get_400_not_a_hangup() {
        let (exporter, _state) = test_exporter();
        // Garbage that never completes a request line.
        let resp = raw(exporter.addr(), b"definitely not http");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        // A request line with no HTTP version.
        let resp = raw(exporter.addr(), b"GET /metrics\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        // An oversized request line (fills the head buffer, never CRLF).
        let resp = raw(exporter.addr(), &vec![b'a'; 4096]);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        // Still serving afterwards.
        let (head, _) = get(exporter.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    }

    #[test]
    fn non_get_methods_get_405() {
        let (exporter, _state) = test_exporter();
        let resp = raw(
            exporter.addr(),
            b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
        let resp = raw(exporter.addr(), b"DELETE /alerts.json HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
    }

    #[test]
    fn metrics_include_audit_plane_families() {
        let (exporter, _state, _plane) = test_exporter_with_plane();
        let (head, body) = get(exporter.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        for family in [
            "sudoku_scrub_deadline_misses_total",
            "sudoku_achieved_scrub_interval_ns",
            "sudoku_scrub_staleness_ns",
            "sudoku_observed_ber",
            "sudoku_error_budget_burn_fast",
            "sudoku_alerts_total",
            "sudoku_scrub_packet_quota",
            "sudoku_scrub_floor_quota",
            "sudoku_scrub_floor_clamps_total",
            "sudoku_scrub_lines_swept_total",
            "sudoku_scrub_quota_packets",
        ] {
            assert!(body.contains(family), "missing {family} in:\n{body}");
        }
    }

    #[test]
    fn heatmap_endpoint_serves_grids_and_correlation() {
        let (exporter, state, plane) = test_exporter_with_plane();
        // The grids are built with the cache: the endpoint serves from
        // the first request on.
        let maps = state.heatmaps();
        maps.charge_injected(3, 2);
        let mut detector = sudoku_obs::CorrelationDetector::new(maps.geometry());
        plane.set_latest_spatial(detector.step(&maps.observed_cells()));
        let (head, body) = get(exporter.addr(), "/heatmap.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"n_regions\":16"), "{body}");
        assert!(body.contains("\"injected\":{\"total\":2"), "{body}");
        assert!(body.contains("\"correlation\":{"), "{body}");
        assert!(body.contains("\"fired\":false"), "{body}");
        // The Prometheus families ride the same grids.
        let (_, prom) = get(exporter.addr(), "/metrics");
        assert!(
            prom.contains("sudoku_region_observed_flips_total{shard=\"0\",region=\"0\"}"),
            "{prom}"
        );
        assert!(prom.contains("sudoku_region_due_total"), "{prom}");
        assert!(prom.contains("sudoku_region_scrub_staleness_ns"), "{prom}");
        assert!(prom.contains("sudoku_spatial_z"), "{prom}");
        assert!(prom.contains("sudoku_worst_region_burn"), "{prom}");
    }

    #[test]
    fn alerts_endpoint_serves_and_tails_the_stream() {
        use sudoku_obs::{AlertClass, Severity};
        let (exporter, _state, plane) = test_exporter_with_plane();
        plane.alerts.raise(
            AlertClass::TickLagBreach,
            Severity::Warning,
            Some(1),
            5e6,
            2e6,
            "tick started 5 ms late (budget 2 ms)",
        );
        plane.alerts.raise(
            AlertClass::DaemonDead,
            Severity::Critical,
            None,
            1.0,
            0.0,
            "scrub daemon died",
        );
        let (head, body) = get(exporter.addr(), "/alerts.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"total\":2"), "{body}");
        assert!(body.contains("\"class\":\"tick_lag_breach\""), "{body}");
        assert!(body.contains("\"class\":\"daemon_dead\""), "{body}");
        // Tail past the first alert: only the second comes back.
        let (_, body) = get(exporter.addr(), "/alerts.json?after=1");
        assert!(!body.contains("tick_lag_breach"), "{body}");
        assert!(body.contains("daemon_dead"), "{body}");
        // A malformed `after` is the client's bug, reported as such.
        let (head, _) = get(exporter.addr(), "/alerts.json?after=banana");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    }

    #[test]
    fn healthz_body_carries_degraded_reasons_without_status_change() {
        let (exporter, _state, plane) = test_exporter_with_plane();
        plane.set_degraded_reasons(vec!["tick_lag_breach".into()]);
        let (head, body) = get(exporter.addr(), "/healthz");
        // Soft conditions never flip the probe status.
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(
            body.contains("\"degraded_reasons\":[\"tick_lag_breach\"]"),
            "{body}"
        );
    }

    #[test]
    fn healthz_renders_control_characters_as_json() {
        let (exporter, _state, plane) = test_exporter_with_plane();
        plane.set_degraded_reasons(vec!["bell\u{7}".into()]);
        let (_, body) = get(exporter.addr(), "/healthz");
        assert!(
            body.contains("\"degraded_reasons\":[\"bell\\u0007\"]"),
            "{body}"
        );
    }

    #[test]
    fn traces_endpoint_serves_traces_and_exemplars() {
        let state =
            Arc::new(ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap());
        let registry = Arc::new(TelemetryRegistry::new(2));
        registry.note_request(crate::telemetry::TraceRecord {
            trace: 0,
            shard: 0,
            write: false,
            path: crate::telemetry::TracePath::Inline,
            outcome: crate::telemetry::TraceOutcome::Ok,
            queue_wait_ns: 0,
            service_ns: 1000,
            h2_ns: 0,
        });
        let recorder = Arc::new(FlightRecorder::new(8));
        let plane =
            Arc::new(AuditPlane::new(state.plan(), AuditConfig::default()).expect("no jsonl"));
        let exporter = Exporter::start(
            IpAddr::from([127, 0, 0, 1]),
            0,
            state,
            registry,
            recorder,
            plane,
        )
        .expect("bind");
        let (head, body) = get(exporter.addr(), "/traces.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"traces_issued\":0"), "{body}");
        assert!(body.contains("\"path\":\"inline\""), "{body}");
        assert!(body.contains("\"read_exemplars\":[{\"bucket\":"), "{body}");
        assert!(body.contains("\"trace\":0"), "{body}");
    }
}
