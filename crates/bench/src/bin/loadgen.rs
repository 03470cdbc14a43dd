//! Service-layer load generator: concurrent demand traffic against the
//! sharded cache service with the scrub daemon running and faults being
//! injected — the paper's "recovery coexists with demand traffic"
//! operating point (§VII-B), measured end to end.
//!
//! ```text
//! cargo run --release -p sudoku-bench --bin loadgen -- --shards 4
//! cargo run --release -p sudoku-bench --bin loadgen -- \
//!     --shards 4 --clients 4 --requests 20000 --ber 1e-4 --json
//! cargo run --release -p sudoku-bench --bin loadgen -- --rate 50000 --theta 0.9
//! cargo run --release -p sudoku-bench --bin loadgen -- \
//!     --telemetry-port 9187 --flight-recorder flight.jsonl --rate 20000
//! ```
//!
//! `--json` additionally writes `BENCH_svc.json`, the service-layer
//! counterpart of `BENCH_kernels.json`: achieved req/sec, read-latency
//! quantiles, shard count, seed, and git revision.
//!
//! `--telemetry-port <p>` serves `GET /metrics` (Prometheus text),
//! `/healthz`, and `/snapshot.json` on `<bind>:<p>` for the duration of
//! the run (`curl` it mid-run; `--bind` defaults to `127.0.0.1`, pass
//! `0.0.0.0` to expose the plane); `--flight-recorder <path>` additionally
//! streams one telemetry snapshot per `--sample-ms` interval to `<path>`
//! as JSONL. Either flag enables the sampler thread.
//!
//! The process exits non-zero if any read returned silently corrupted
//! data (SDC) — the one outcome the SuDoku ladder must never allow — so
//! CI can gate on it directly.
//!
//! `--check-baseline` additionally reads the committed `BENCH_svc.json`
//! *before* the run and fails (exit 1) if achieved req/sec regresses more
//! than 20% below the baseline's — the CI throughput gate for the demand
//! path. The baseline's pre-PR figure is carried forward into the freshly
//! written JSON as `req_per_sec_pre_pr`. A baseline stamped by a
//! different git revision than HEAD only warns: the gate still runs, but
//! the figures are flagged as possibly incomparable.
//!
//! `--alerts <path>` streams the audit plane's structured alerts to
//! `<path>` as JSONL (the same records `/alerts.json` serves).
//!
//! `--adaptive-phases` additionally runs an idle comparison after the
//! loaded run: two demand-free services back to back — the adaptive scrub
//! controller vs the legacy fixed cadence — comparing lines re-scrubbed
//! per second. With `--check-baseline` the adaptive sweep must beat the
//! fixed cadence by ≥2× (the opportunistic-ceiling contract), and the
//! loaded run's achieved re-scrub interval p99 must stay within the 20 ms
//! deadline (the floor contract).

use std::net::IpAddr;
use std::time::Duration;
use sudoku_bench::{
    flag, git_rev, header, json_f64_field, print_shard_waits, warn_baseline_rev, Flags,
};
use sudoku_svc::{
    parse_bind_addr, AuditConfig, LoadgenConfig, Service, ServiceConfig, TelemetryConfig,
};

struct Opts {
    shards: usize,
    clients: usize,
    requests: u64,
    rate: u64,
    lines: u64,
    ber: f64,
    theta: f64,
    write_frac: f64,
    tick_ms: u64,
    queue: usize,
    seed: u64,
    telemetry_port: Option<u16>,
    bind: IpAddr,
    flight_recorder: Option<String>,
    sample_ms: u64,
    alerts: Option<String>,
}

impl Opts {
    fn parse() -> Opts {
        let flags = Flags::from_env();
        Opts {
            shards: flags.get("--shards", 4),
            clients: flags.get("--clients", 4),
            requests: flags.get("--requests", 10_000),
            rate: flags.get("--rate", 0),
            lines: flags.get("--lines", 1 << 14),
            ber: flags.get("--ber", 1e-4),
            theta: flags.get("--theta", 0.8),
            write_frac: flags.get("--write-frac", 0.3),
            tick_ms: flags.get("--tick-ms", 1),
            queue: flags.get("--queue", 64),
            seed: flags.get("--seed", 42),
            telemetry_port: flags.opt("--telemetry-port"),
            bind: flags
                .parse_with("--bind", parse_bind_addr)
                .unwrap_or(IpAddr::from([127, 0, 0, 1])),
            flight_recorder: flags.str("--flight-recorder").map(String::from),
            sample_ms: flags.get("--sample-ms", 50),
            alerts: flags.str("--alerts").map(String::from),
        }
    }

    /// The service both runs start from: the soak's cache, shards, queue
    /// bound and scrub tick, at `ber`.
    fn service_config(&self, ber: f64) -> ServiceConfig {
        ServiceConfig {
            queue_depth: self.queue,
            scrub_every: Some(Duration::from_millis(self.tick_ms.max(1))),
            ..ServiceConfig::small(self.lines, self.shards, ber, self.seed)
        }
    }

    /// The telemetry plane is on when either the scrape endpoint or the
    /// flight-recorder JSONL was requested.
    fn telemetry(&self) -> Option<TelemetryConfig> {
        if self.telemetry_port.is_none() && self.flight_recorder.is_none() {
            return None;
        }
        Some(TelemetryConfig {
            sample_every: Duration::from_millis(self.sample_ms.max(1)),
            flight_recorder_cap: 256,
            jsonl_path: self.flight_recorder.as_ref().map(Into::into),
            port: self.telemetry_port,
            bind: self.bind,
        })
    }
}

fn main() {
    let opts = Opts::parse();
    header("Service load generator (sharded cache + scrub daemon)");
    // Read the committed baseline up front: `--json` overwrites the file.
    let baseline = std::fs::read_to_string("BENCH_svc.json").ok();
    let baseline_rps = baseline
        .as_deref()
        .and_then(|t| json_f64_field(t, "req_per_sec"));
    let pre_pr_rps = baseline
        .as_deref()
        .and_then(|t| json_f64_field(t, "req_per_sec_pre_pr"))
        .or(baseline_rps);
    if flag("--check-baseline") && baseline_rps.is_none() {
        eprintln!(
            "warning: --check-baseline set but BENCH_svc.json has no req_per_sec; gate skipped"
        );
    }
    println!(
        "shards = {}, clients = {}, requests/client = {}, lines = {}, ber = {:.2e}, \
         zipf theta = {}, seed = {}",
        opts.shards, opts.clients, opts.requests, opts.lines, opts.ber, opts.theta, opts.seed
    );

    let service_config = ServiceConfig {
        telemetry: opts.telemetry(),
        audit: AuditConfig {
            alerts_jsonl: opts.alerts.as_ref().map(Into::into),
            ..AuditConfig::default()
        },
        ..opts.service_config(opts.ber)
    };
    let load_config = LoadgenConfig {
        workers: opts.clients,
        requests_per_worker: opts.requests,
        target_rps: opts.rate,
        write_frac: opts.write_frac,
        theta: opts.theta,
        seed: opts.seed,
    };
    let service = Service::start(service_config).expect("valid service config");
    if let Some(addr) = service.telemetry_addr() {
        println!("telemetry: GET http://{addr}/metrics | /healthz | /snapshot.json");
    }
    if let Some(path) = &opts.flight_recorder {
        println!(
            "flight recorder: streaming snapshots to {path} every {} ms",
            opts.sample_ms
        );
    }
    let registry = std::sync::Arc::clone(service.registry());
    let report = sudoku_svc::loadgen::run(service, &load_config);

    let lat = &report.service.hists.read_latency_ns;
    println!(
        "requests = {} ({} reads, {} writes), elapsed = {:.3} s, req/sec = {:.0}",
        report.requests,
        report.reads,
        report.writes,
        report.elapsed.as_secs_f64(),
        report.req_per_sec
    );
    println!(
        "read latency: p50 = {} ns, p99 = {} ns, p999 = {} ns",
        lat.quantile(0.50),
        lat.quantile(0.99),
        lat.quantile(0.999)
    );
    print_shard_waits(&registry);
    println!(
        "scrub: {} ticks, {} lines injected, {} escalations ({} lines), {} unresolved",
        report.service.scrub_ticks,
        report.service.injected_lines,
        report.service.escalations,
        report.service.escalated_lines,
        report.service.unresolved_lines
    );
    println!(
        "integrity: sdc = {}, due = {} (demand) + {} (scrub)",
        report.sdc, report.due, report.service.unresolved_lines
    );
    println!(
        "audit: {} alerts ({} critical), {} scrub-deadline misses",
        report.service.alerts, report.service.critical_alerts, report.service.scrub_deadline_misses
    );
    println!(
        "scrub contract: achieved interval p99 = {:.3} ms (deadline 20 ms), \
         {} lines swept, {} floor clamps",
        report.service.scrub_interval_p99_ns as f64 / 1e6,
        report.service.scrub_lines_swept,
        report.service.scrub_floor_clamps
    );

    // The idle comparison: the adaptive controller's opportunistic
    // ceiling should sweep far faster than the fixed cadence when no
    // demand traffic competes for the shard locks.
    let idle = if flag("--adaptive-phases") {
        let a = idle_sweep_rate(&opts, true);
        let f = idle_sweep_rate(&opts, false);
        let ratio = if f > 0.0 { a / f } else { f64::INFINITY };
        println!(
            "idle sweep: adaptive = {a:.0} lines/sec, fixed cadence = {f:.0} lines/sec \
             ({ratio:.2}x)"
        );
        Some((a, f, ratio))
    } else {
        None
    };

    if flag("--json") {
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_str("name", "svc_loadgen")
            .field_u64("shards", opts.shards as u64)
            .field_u64("clients", opts.clients as u64)
            .field_u64("requests", report.requests)
            .field_f64("req_per_sec", report.req_per_sec)
            .field_f64(
                "req_per_sec_pre_pr",
                pre_pr_rps.unwrap_or(report.req_per_sec),
            )
            .field_u64("p50_read_ns", lat.quantile(0.50))
            .field_u64("p99_read_ns", lat.quantile(0.99))
            .field_u64("p999_read_ns", lat.quantile(0.999))
            .field_u64("sdc", report.sdc)
            .field_u64("due", report.due)
            .field_u64("shed", report.shed)
            .field_u64("scrub_ticks", report.service.scrub_ticks)
            .field_u64("injected_lines", report.service.injected_lines)
            .field_u64("escalations", report.service.escalations)
            .field_u64("unresolved_lines", report.service.unresolved_lines)
            .field_u64("alerts", report.service.alerts)
            .field_u64("critical_alerts", report.service.critical_alerts)
            .field_u64(
                "scrub_deadline_misses",
                report.service.scrub_deadline_misses,
            )
            .field_u64(
                "scrub_interval_p99_ns",
                report.service.scrub_interval_p99_ns,
            )
            .field_u64("scrub_lines_swept", report.service.scrub_lines_swept)
            .field_u64("scrub_floor_clamps", report.service.scrub_floor_clamps)
            .field_u64("seed", opts.seed)
            .field_str("git_rev", &git_rev());
        // Spatial plane stamps: grid geometry, hottest-cell skew over the
        // whole run, and the detector's last verdict — so the committed
        // baseline records what the heatmap plane saw, not just that it
        // was on.
        let maps = &report.service.heatmaps;
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
        match &report.service.spatial {
            Some(stat) => obj.field_raw("spatial", &stat.to_json()),
            None => obj.field_raw("spatial", "null"),
        };
        if let Some((a, f, ratio)) = idle {
            obj.field_f64("idle_lines_per_sec_adaptive", a)
                .field_f64("idle_lines_per_sec_fixed", f)
                .field_f64("idle_sweep_ratio", ratio);
        }
        std::fs::write("BENCH_svc.json", obj.finish() + "\n").expect("write BENCH_svc.json");
        println!("wrote BENCH_svc.json");
    }

    if report.sdc > 0 {
        eprintln!("FAIL: {} silently corrupted reads", report.sdc);
        std::process::exit(1);
    }
    if flag("--check-baseline") {
        if let Some(text) = baseline.as_deref() {
            warn_baseline_rev(text, "BENCH_svc.json baseline");
        }
        if let Some(base) = baseline_rps {
            let floor = base * 0.8;
            if report.req_per_sec < floor {
                eprintln!(
                    "FAIL: {:.0} req/sec is a >20% regression from the committed \
                     baseline {base:.0} (floor {floor:.0})",
                    report.req_per_sec
                );
                std::process::exit(1);
            }
            println!(
                "baseline gate: {:.0} req/sec vs committed {base:.0} ({:+.1}%) — ok",
                report.req_per_sec,
                (report.req_per_sec / base - 1.0) * 100.0
            );
        }
        // The scrub floor contract: even under this demand load the
        // achieved re-scrub interval p99 must stay within the deadline —
        // this is the figure the BER math stands on.
        let deadline_ns = AuditConfig::default().scrub_deadline.as_nanos() as u64;
        let p99 = report.service.scrub_interval_p99_ns;
        if p99 > deadline_ns {
            eprintln!(
                "FAIL: achieved scrub-interval p99 {:.3} ms exceeds the {:.0} ms deadline \
                 under demand load",
                p99 as f64 / 1e6,
                deadline_ns as f64 / 1e6
            );
            std::process::exit(1);
        }
        println!(
            "scrub-interval gate: p99 {:.3} ms ≤ {:.0} ms deadline — ok",
            p99 as f64 / 1e6,
            deadline_ns as f64 / 1e6
        );
        if let Some((_, _, ratio)) = idle {
            if ratio < 2.0 {
                eprintln!(
                    "FAIL: idle adaptive sweep is only {ratio:.2}x the fixed cadence \
                     (contract: ≥2x)"
                );
                std::process::exit(1);
            }
            println!("idle-sweep gate: adaptive {ratio:.2}x fixed (≥2x) — ok");
        }
    }
}

/// Runs a demand-free service for a fixed window and returns the scrub
/// sweep rate in lines/sec — the idle half of the adaptive-vs-fixed
/// comparison. BER is zeroed so both runs sweep identical (clean) work.
fn idle_sweep_rate(opts: &Opts, adaptive: bool) -> f64 {
    let config = ServiceConfig {
        adaptive_scrub: adaptive,
        ..opts.service_config(0.0)
    };
    let started = std::time::Instant::now();
    let service = Service::start(config).expect("valid idle service config");
    std::thread::sleep(Duration::from_millis(400));
    let report = service.shutdown();
    report.scrub_lines_swept as f64 / started.elapsed().as_secs_f64()
}
