//! Wire-layer load generator: pipelined TCP clients driving the sharded
//! cache through the `sudoku-net` front end — the paper's demand path
//! measured end to end *over the network*, with a golden-copy oracle for
//! silent-data-corruption detection and coordinated-omission-safe
//! latency.
//!
//! ```text
//! # In-process: server + M client threads over loopback TCP.
//! cargo run --release -p sudoku-bench --bin netload -- --shards 4 --json
//!
//! # Multi-process: one server, clients from N other processes.
//! cargo run --release -p sudoku-bench --bin netload -- --serve 127.0.0.1:7700
//! cargo run --release -p sudoku-bench --bin netload -- \
//!     --connect 127.0.0.1:7700 --clients 2 --client-offset 0 --clients-total 4
//! cargo run --release -p sudoku-bench --bin netload -- \
//!     --connect 127.0.0.1:7700 --clients 2 --client-offset 2 --clients-total 4
//! ```
//!
//! Each client thread owns a disjoint slice of the line address space
//! (lines `≡ global_worker (mod clients_total)`, where the global worker
//! index spans processes via `--client-offset`/`--clients-total`), so its
//! private golden map is authoritative for every line it touches: a GET
//! whose data differs from the golden copy is an SDC. Requests are
//! pipelined in bursts of `--window` frames per connection — one
//! `write_all` carries the burst, responses stream back in order.
//!
//! Latency is coordinated-omission-safe: with `--rate` set, every request
//! has an absolute scheduled send time (`start + i·interval`) and its
//! latency is measured from that schedule, not from the actual send — a
//! stalled server inflates the tail instead of silently thinning the
//! sample stream. Unpaced runs measure from burst assembly.
//!
//! `--json` writes `BENCH_net.json` (req/sec, latency quantiles,
//! RETRY/DUE/SHARD_DOWN counts); `--check-baseline` fails (exit 1) if
//! req/sec regresses more than 20% below the committed baseline. The
//! process exits non-zero on any SDC or protocol violation.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use sudoku_bench::{
    flag, git_rev, header, json_f64_field, print_shard_waits, warn_baseline_rev, Flags,
};
use sudoku_codes::LineData;
use sudoku_net::{NetConfig, NetServer, Request, Status, WireClient};
use sudoku_obs::Histogram;
use sudoku_sim::ZipfGen;
use sudoku_svc::{Service, ServiceConfig};

struct Opts {
    shards: usize,
    clients: usize,
    requests: u64,
    rate: u64,
    lines: u64,
    ber: f64,
    theta: f64,
    write_frac: f64,
    window: usize,
    handlers: usize,
    queue: usize,
    seed: u64,
    serve: Option<SocketAddr>,
    serve_secs: u64,
    connect: Option<SocketAddr>,
    client_offset: u64,
    clients_total: u64,
}

impl Opts {
    fn parse() -> Opts {
        let flags = Flags::from_env();
        let clients = flags.get("--clients", 2);
        Opts {
            shards: flags.get("--shards", 4),
            clients,
            requests: flags.get("--requests", 100_000),
            rate: flags.get("--rate", 0),
            lines: flags.get("--lines", 1 << 14),
            ber: flags.get("--ber", 0.0),
            theta: flags.get("--theta", 0.8),
            write_frac: flags.get("--write-frac", 0.3),
            window: flags.get("--window", 512),
            handlers: flags.get("--handlers", 2),
            queue: flags.get("--queue", 64),
            seed: flags.get("--seed", 42),
            serve: flags.opt("--serve"),
            serve_secs: flags.get("--serve-secs", 600),
            connect: flags.opt("--connect"),
            client_offset: flags.get("--client-offset", 0),
            clients_total: flags.get("--clients-total", clients as u64),
        }
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            scrub_every: Some(Duration::from_millis(1)),
            queue_depth: self.queue,
            ..ServiceConfig::small(self.lines, self.shards, self.ber, self.seed)
        }
    }
}

#[derive(Default)]
struct WorkerStats {
    reads: u64,
    writes: u64,
    sdc: u64,
    due: u64,
    retry: u64,
    shard_down: u64,
    shutting_down: u64,
    malformed: u64,
    lat: Option<Histogram>,
}

struct Pending {
    id: u64,
    line: u64,
    is_write: bool,
    golden: LineData,
    sched: Instant,
}

/// One wire client: pipelined bursts against its disjoint line slice,
/// with an absolute request schedule when paced.
#[allow(clippy::too_many_lines)]
fn client_worker(addr: SocketAddr, opts: &Opts, worker: u64, start: Instant) -> WorkerStats {
    let mut stats = WorkerStats {
        lat: Some(Histogram::pow2(42)),
        ..WorkerStats::default()
    };
    let total = opts.clients_total.max(1);
    let global = opts.client_offset + worker;
    let span = (opts.lines / total).max(1);
    let mut client =
        WireClient::connect(addr, Some(Duration::from_secs(5))).expect("connect to server");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    // `golden` is updated *speculatively at build time* so a GET pipelined
    // behind a PUT to the same line in one burst expects the new value
    // (the server processes the burst in order). A PUT that comes back
    // refused taints its line until a later PUT lands — GETs on tainted
    // lines are excluded from the SDC oracle because their expected value
    // is unknowable.
    let mut golden: HashMap<u64, LineData> = HashMap::new();
    let mut tainted: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut zipf = ZipfGen::new(span, opts.theta, opts.seed ^ (global << 17));
    // Cheap per-request write/read coin, decorrelated from the zipf stream.
    let mut coin = opts.seed ^ global.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut flip = move || {
        coin ^= coin << 13;
        coin ^= coin >> 7;
        coin ^= coin << 17;
        (coin >> 11) as f64 / (1u64 << 53) as f64
    };
    // Absolute schedule: request i of this worker is due at
    // start + i·(total/rate) — coordinated-omission safety.
    let pace = (opts.rate > 0).then(|| Duration::from_secs_f64(total as f64 / opts.rate as f64));
    let mut batch: Vec<Request> = Vec::with_capacity(opts.window);
    let mut pending: Vec<Pending> = Vec::with_capacity(opts.window);
    let mut issued = 0u64;
    let hist = stats.lat.as_mut().expect("histogram just installed");
    while issued < opts.requests {
        batch.clear();
        pending.clear();
        let burst = (opts.requests - issued).min(opts.window as u64);
        if let Some(pace) = pace {
            // Sleep until the burst's first request is due; lateness past
            // this point is attributed to the server via the schedule.
            let due = start + pace * issued as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
        }
        let now = Instant::now();
        for b in 0..burst {
            let i = issued + b;
            let sched = match pace {
                Some(p) => start + p * i as u32,
                None => now,
            };
            let line = zipf.next_rank() * total + global;
            let id = (global << 48) | i;
            let is_write = flip() < opts.write_frac;
            if is_write {
                let mut data = LineData::zero();
                data.set_bit((line as usize).wrapping_mul(31) % 512, true);
                data.set_bit((i as usize).wrapping_mul(7) % 512, true);
                batch.push(Request::Put { id, line, data });
                pending.push(Pending {
                    id,
                    line,
                    is_write: true,
                    golden: data,
                    sched,
                });
                golden.insert(line, data);
            } else {
                batch.push(Request::Get { id, line });
                pending.push(Pending {
                    id,
                    line,
                    is_write: false,
                    golden: golden.get(&line).copied().unwrap_or_else(LineData::zero),
                    sched,
                });
            }
        }
        issued += burst;
        if client.send(&batch).is_err() {
            stats.malformed += 1;
            break;
        }
        // Responses stream back in request order on this connection.
        for want in &pending {
            let resp = match client.recv() {
                Ok(resp) => resp,
                Err(_) => {
                    stats.malformed += 1;
                    return stats;
                }
            };
            if resp.id != want.id {
                stats.malformed += 1;
                return stats;
            }
            let served_at = Instant::now();
            hist.record(served_at.saturating_duration_since(want.sched).as_nanos() as u64);
            match resp.status {
                Status::Ok if want.is_write => {
                    tainted.remove(&want.line);
                    stats.writes += 1;
                }
                Status::Ok => {
                    stats.reads += 1;
                    if !tainted.contains(&want.line) && resp.line_data() != Some(want.golden) {
                        stats.sdc += 1;
                    }
                }
                Status::Due => {
                    stats.reads += 1;
                    stats.due += 1;
                }
                // Shed or refused. A refused PUT leaves the line's real
                // content behind our speculative golden copy: taint it.
                Status::Retry | Status::ShardDown | Status::ShuttingDown => {
                    if want.is_write {
                        tainted.insert(want.line);
                    }
                    match resp.status {
                        Status::Retry => stats.retry += 1,
                        Status::ShardDown => stats.shard_down += 1,
                        _ => stats.shutting_down += 1,
                    }
                }
                Status::Malformed => stats.malformed += 1,
            }
        }
    }
    stats
}

fn run_clients(addr: SocketAddr, opts: &Opts) -> (WorkerStats, Histogram, Duration) {
    let started = Instant::now();
    let results: Vec<WorkerStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.clients as u64)
            .map(|w| s.spawn(move || client_worker(addr, opts, w, started)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut total = WorkerStats::default();
    let mut lat = Histogram::pow2(42);
    for r in results {
        total.reads += r.reads;
        total.writes += r.writes;
        total.sdc += r.sdc;
        total.due += r.due;
        total.retry += r.retry;
        total.shard_down += r.shard_down;
        total.shutting_down += r.shutting_down;
        total.malformed += r.malformed;
        if let Some(h) = r.lat {
            lat.merge(&h);
        }
    }
    (total, lat, elapsed)
}

fn main() {
    let opts = Opts::parse();
    header("Wire load generator (pipelined TCP clients vs sudoku-net)");

    // Server-only mode: stand up the service + wire front end and hold it
    // open for external client processes.
    if let Some(bind) = opts.serve {
        let service = Service::start(opts.service_config()).expect("valid service config");
        let server = NetServer::start(
            service.handle(),
            NetConfig {
                bind: bind.ip(),
                port: bind.port(),
                handlers: opts.handlers,
                window: opts.window * 2,
            },
        )
        .expect("bind wire server");
        // Machine-greppable readiness line for driver scripts.
        println!("NETLOAD_READY {}", server.addr());
        println!(
            "serving {} shards for up to {} s (Ctrl-C or kill to stop early)",
            opts.shards, opts.serve_secs
        );
        std::thread::sleep(Duration::from_secs(opts.serve_secs));
        server.shutdown();
        service.shutdown();
        return;
    }

    // Read the committed baseline up front: `--json` overwrites the file.
    let baseline = std::fs::read_to_string("BENCH_net.json").ok();
    let baseline_rps = baseline
        .as_deref()
        .and_then(|t| json_f64_field(t, "req_per_sec"));
    let pre_pr_rps = baseline
        .as_deref()
        .and_then(|t| json_f64_field(t, "req_per_sec_pre_pr"))
        .or(baseline_rps);
    if flag("--check-baseline") && baseline_rps.is_none() {
        eprintln!(
            "warning: --check-baseline set but BENCH_net.json has no req_per_sec; gate skipped"
        );
    }

    // In-process mode starts its own server on an ephemeral loopback port;
    // `--connect` drives an external one.
    let mut local: Option<(Service, NetServer)> = None;
    let addr = match opts.connect {
        Some(addr) => addr,
        None => {
            let service = Service::start(opts.service_config()).expect("valid service config");
            let server = NetServer::start(
                service.handle(),
                NetConfig {
                    handlers: opts.handlers,
                    window: opts.window * 2,
                    ..NetConfig::default()
                },
            )
            .expect("bind wire server");
            let addr = server.addr();
            local = Some((service, server));
            addr
        }
    };
    println!(
        "server = {addr}, shards = {}, clients = {} (global {}..{} of {}), \
         requests/client = {}, window = {}, zipf theta = {}, seed = {}",
        opts.shards,
        opts.clients,
        opts.client_offset,
        opts.client_offset + opts.clients as u64,
        opts.clients_total,
        opts.requests,
        opts.window,
        opts.theta,
        opts.seed
    );

    let (stats, lat, elapsed) = run_clients(addr, &opts);
    let completed = stats.reads
        + stats.writes
        + stats.due
        + stats.retry
        + stats.shard_down
        + stats.shutting_down;
    let req_per_sec = completed as f64 / elapsed.as_secs_f64().max(1e-9);

    println!(
        "completed = {completed} ({} reads, {} writes), elapsed = {:.3} s, req/sec = {:.0}",
        stats.reads,
        stats.writes,
        elapsed.as_secs_f64(),
        req_per_sec
    );
    println!(
        "wire latency (CO-safe): p50 = {} ns, p99 = {} ns, p999 = {} ns",
        lat.quantile(0.50),
        lat.quantile(0.99),
        lat.quantile(0.999)
    );
    println!(
        "statuses: retry = {}, due = {}, shard_down = {}, shutting_down = {}, malformed = {}",
        stats.retry, stats.due, stats.shard_down, stats.shutting_down, stats.malformed
    );
    println!("integrity: sdc = {}", stats.sdc);

    if let Some((service, server)) = local {
        let frames = service.handle().registry().net_frames.get();
        let sheds = service.handle().registry().net_sheds.get();
        println!("server: {frames} frames served, {sheds} shed");
        print_shard_waits(service.registry());
        server.shutdown();
        let report = service.shutdown();
        let p99 = report.scrub_interval_p99_ns;
        println!(
            "scrub (concurrent with wire load): achieved interval p99 = {:.3} ms, \
             {} lines swept, {} deadline misses, {} floor clamps",
            p99 as f64 / 1e6,
            report.scrub_lines_swept,
            report.scrub_deadline_misses,
            report.scrub_floor_clamps,
        );
    }

    if flag("--json") {
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_str("name", "netload")
            .field_u64("shards", opts.shards as u64)
            .field_u64("clients", opts.clients as u64)
            .field_u64("clients_total", opts.clients_total)
            .field_u64("window", opts.window as u64)
            .field_u64("requests", completed)
            .field_f64("req_per_sec", req_per_sec)
            .field_f64("req_per_sec_pre_pr", pre_pr_rps.unwrap_or(req_per_sec))
            .field_u64("p50_ns", lat.quantile(0.50))
            .field_u64("p99_ns", lat.quantile(0.99))
            .field_u64("p999_ns", lat.quantile(0.999))
            .field_u64("reads", stats.reads)
            .field_u64("writes", stats.writes)
            .field_u64("retry", stats.retry)
            .field_u64("due", stats.due)
            .field_u64("shard_down", stats.shard_down)
            .field_u64("sdc", stats.sdc)
            .field_u64("malformed", stats.malformed)
            .field_u64("seed", opts.seed)
            .field_str("git_rev", &git_rev());
        std::fs::write("BENCH_net.json", obj.finish() + "\n").expect("write BENCH_net.json");
        println!("wrote BENCH_net.json");
    }

    if stats.sdc > 0 {
        eprintln!("FAIL: {} silently corrupted reads over the wire", stats.sdc);
        std::process::exit(1);
    }
    if stats.malformed > 0 {
        eprintln!(
            "FAIL: {} protocol violations (malformed frames / broken streams)",
            stats.malformed
        );
        std::process::exit(1);
    }
    if flag("--check-baseline") {
        if let Some(text) = baseline.as_deref() {
            warn_baseline_rev(text, "BENCH_net.json baseline");
        }
        if let Some(base) = baseline_rps {
            let floor = base * 0.8;
            if req_per_sec < floor {
                eprintln!(
                    "FAIL: {req_per_sec:.0} req/sec is a >20% regression from the committed \
                     baseline {base:.0} (floor {floor:.0})"
                );
                std::process::exit(1);
            }
            println!(
                "baseline gate: {req_per_sec:.0} req/sec vs committed {base:.0} ({:+.1}%) — ok",
                (req_per_sec / base - 1.0) * 100.0
            );
        }
    }
}
