//! Load generation against a running [`Service`]: replay of `sim::trace`
//! workload mixes or a zipfian stream at a target request rate, with a
//! golden-copy oracle for silent-data-corruption detection.
//!
//! Each load worker owns a disjoint slice of the line address space
//! (lines `≡ worker (mod workers)`), so its private golden map is
//! authoritative for every line it touches: a read that returns data
//! differing from the golden copy is an SDC — the failure mode SuDoku
//! exists to prevent — while a read error is a (detected) DUE. The
//! address slicing is deliberately orthogonal to the service's Hash-1
//! sharding, so every load worker exercises every shard.

use crate::service::{Service, ServiceHandle, ServiceReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use sudoku_sim::{CoreSpec, TraceGen, ZipfGen};

/// How a load worker picks line addresses.
#[derive(Clone, Copy, Debug)]
pub enum AddrMode {
    /// Replay a `sim::trace` synthetic workload shape (APKI, write
    /// fraction, footprint, hot set), folded onto the worker's slice.
    Workload(CoreSpec),
    /// Zipf(θ)-distributed ranks over the worker's slice; writes drawn
    /// i.i.d. with the configured write fraction.
    Zipf {
        /// Skew parameter (0 = uniform; ≈1 = classic Zipf).
        theta: f64,
    },
}

/// Load-generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenConfig {
    /// Concurrent client workers.
    pub workers: usize,
    /// Requests issued per worker.
    pub requests_per_worker: u64,
    /// Target total request rate in req/s (0 = unpaced, go as fast as
    /// backpressure allows).
    pub target_rps: u64,
    /// Write fraction for [`AddrMode::Zipf`] (workload mode brings its own).
    pub write_frac: f64,
    /// Address generation mode.
    pub mode: AddrMode,
    /// Seed for the per-worker generators.
    pub seed: u64,
}

impl LoadgenConfig {
    /// A small zipfian default: 2 workers, 0.3 write fraction, θ = 0.8.
    pub fn small(requests_per_worker: u64, seed: u64) -> Self {
        LoadgenConfig {
            workers: 2,
            requests_per_worker,
            target_rps: 0,
            write_frac: 0.3,
            mode: AddrMode::Zipf { theta: 0.8 },
            seed,
        }
    }
}

/// End-of-run load report: client-side counts plus the drained service's
/// own report.
#[derive(Debug)]
pub struct LoadReport {
    /// Total requests issued.
    pub requests: u64,
    /// Reads issued.
    pub reads: u64,
    /// Writes issued.
    pub writes: u64,
    /// Reads whose data silently differed from the golden copy (must be 0).
    pub sdc: u64,
    /// Reads that returned a detected uncorrectable error.
    pub due: u64,
    /// Requests shed for availability reasons: rejected at the door
    /// (quarantined shard / shutdown) or stranded when a shard died.
    pub shed: u64,
    /// Wall-clock duration of the load phase.
    pub elapsed: Duration,
    /// Achieved request rate.
    pub req_per_sec: f64,
    /// The drained service's report (stats, histograms, scrub counters).
    pub service: ServiceReport,
}

impl LoadReport {
    /// JSON object with the load-side headline numbers and the read-latency
    /// quantiles the soak gates on.
    pub fn to_json(&self) -> String {
        let lat = &self.service.hists.read_latency_ns;
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_u64("requests", self.requests)
            .field_u64("reads", self.reads)
            .field_u64("writes", self.writes)
            .field_u64("sdc", self.sdc)
            .field_u64("due", self.due)
            .field_u64("shed", self.shed)
            .field_f64("elapsed_s", self.elapsed.as_secs_f64())
            .field_f64("req_per_sec", self.req_per_sec)
            .field_u64("p50_read_ns", lat.quantile(0.50))
            .field_u64("p99_read_ns", lat.quantile(0.99))
            .field_u64("p999_read_ns", lat.quantile(0.999))
            .field_raw("service", &self.service.to_json());
        obj.finish()
    }
}

struct WorkerResult {
    reads: u64,
    writes: u64,
    sdc: u64,
    due: u64,
    shed: u64,
}

/// Runs the load against `service`, then drains and shuts it down.
///
/// Consumes the service so the report can include its final state; the
/// returned [`LoadReport`] carries both sides of the run.
pub fn run(service: Service, config: &LoadgenConfig) -> LoadReport {
    let n_lines = service.state().config().geometry.lines();
    let workers = config.workers.max(1) as u64;
    let span = (n_lines / workers).max(1);
    let started = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let handle = service.handle();
                s.spawn(move || load_worker(&handle, config, w, workers, span))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut report = LoadReport {
        requests: 0,
        reads: 0,
        writes: 0,
        sdc: 0,
        due: 0,
        shed: 0,
        elapsed,
        req_per_sec: 0.0,
        service: service.shutdown(),
    };
    for r in &results {
        report.reads += r.reads;
        report.writes += r.writes;
        report.sdc += r.sdc;
        report.due += r.due;
        report.shed += r.shed;
    }
    report.requests = report.reads + report.writes;
    report.req_per_sec = report.requests as f64 / elapsed.as_secs_f64().max(1e-9);
    report
}

/// One client worker: issues its request quota against its own line slice,
/// keeping a golden copy of everything it wrote.
fn load_worker(
    handle: &ServiceHandle,
    config: &LoadgenConfig,
    worker: u64,
    workers: u64,
    span: u64,
) -> WorkerResult {
    let mut result = WorkerResult {
        reads: 0,
        writes: 0,
        sdc: 0,
        due: 0,
        shed: 0,
    };
    let mut golden: HashMap<u64, LineData> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(config.seed ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut zipf = match config.mode {
        AddrMode::Zipf { theta } => Some(ZipfGen::new(span, theta, config.seed ^ (worker << 17))),
        AddrMode::Workload(_) => None,
    };
    let mut trace = match config.mode {
        AddrMode::Workload(spec) => Some(TraceGen::new(spec, worker as u32, config.seed)),
        AddrMode::Zipf { .. } => None,
    };
    // Pacing: each of W workers issues at rps/W, i.e. one request every
    // W/rps seconds.
    let pace = (config.target_rps > 0)
        .then(|| Duration::from_secs_f64(workers as f64 / config.target_rps as f64));
    let mut next_due = Instant::now();
    for i in 0..config.requests_per_worker {
        if let Some(pace) = pace {
            let now = Instant::now();
            if now < next_due {
                std::thread::sleep(next_due - now);
            }
            next_due += pace;
        }
        // The worker's slice is lines ≡ worker (mod workers): disjoint
        // between workers, interleaved across shards.
        let (rank, is_write) = match (&mut zipf, &mut trace) {
            (Some(z), _) => (z.next_rank(), rng.gen_bool(config.write_frac)),
            (_, Some(t)) => {
                let access = t.next_access();
                (access.line_addr % span, access.is_write)
            }
            _ => unreachable!("one generator is always configured"),
        };
        let line = rank * workers + worker;
        if is_write {
            let mut data = LineData::zero();
            data.set_bit((line as usize).wrapping_mul(31) % 512, true);
            data.set_bit((i as usize).wrapping_mul(7) % 512, true);
            match handle.write(line, &data) {
                Ok(()) => {
                    golden.insert(line, data);
                    result.writes += 1;
                }
                // Rejected at the door: nothing was accepted, the golden
                // copy stays authoritative for the line's last good value.
                Err(_) => result.shed += 1,
            }
        } else {
            // Clean lines are served lock-free off the seqlock view; dirty
            // or suspect lines are served on this thread under the shard
            // mutex, and resolve to an error if the shard dies under them.
            match handle.read(line) {
                Ok(data) => {
                    result.reads += 1;
                    let expect = golden.get(&line).copied().unwrap_or_else(LineData::zero);
                    if data != expect {
                        result.sdc += 1;
                    }
                }
                Err(e) if e.is_due() => {
                    result.reads += 1;
                    result.due += 1;
                }
                // Availability error: rejected at the door or stranded by a
                // dying worker.
                Err(_) => result.shed += 1,
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    #[test]
    fn unpaced_zipf_load_has_no_sdc() {
        let mut svc_config = ServiceConfig::small(512, 4, 0.0, 7);
        svc_config.scrub_every = None;
        let service = Service::start(svc_config).unwrap();
        let report = run(service, &LoadgenConfig::small(500, 7));
        assert_eq!(report.requests, 1000);
        assert_eq!(report.sdc, 0);
        assert_eq!(report.due, 0);
        assert_eq!(report.shed, 0);
        assert_eq!(report.service.reads, report.reads);
        assert!(report.req_per_sec > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"sdc\":0"), "{json}");
        assert!(json.contains("\"p99_read_ns\""), "{json}");
    }

    #[test]
    fn paced_workload_mode_roughly_honors_rate() {
        let mut svc_config = ServiceConfig::small(512, 2, 0.0, 8);
        svc_config.scrub_every = None;
        let service = Service::start(svc_config).unwrap();
        let spec = CoreSpec {
            apki: 20.0,
            write_frac: 0.4,
            footprint_lines: 128,
            hot_lines: 32,
            hot_frac: 0.7,
        };
        let config = LoadgenConfig {
            workers: 2,
            requests_per_worker: 100,
            target_rps: 4000,
            write_frac: 0.0,
            mode: AddrMode::Workload(spec),
            seed: 8,
        };
        let report = run(service, &config);
        assert_eq!(report.requests, 200);
        assert_eq!(report.sdc, 0);
        // 200 requests at 4000 req/s should take at least ~50 ms.
        assert!(
            report.elapsed >= Duration::from_millis(40),
            "{:?}",
            report.elapsed
        );
    }
}
