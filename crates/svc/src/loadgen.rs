//! Load generation against a running [`Service`]: a zipfian stream at a
//! target request rate, with a golden-copy oracle for
//! silent-data-corruption detection. [`load_worker`] is the one
//! in-process demand client: [`run`] (the `loadgen` soak) and the
//! `chaos` soak both drive it.
//!
//! Each load worker owns a disjoint slice of the line address space
//! (lines `≡ worker (mod workers)`), so its private golden map is
//! authoritative for every line it touches: a read that returns data
//! differing from the golden copy is an SDC — the failure mode SuDoku
//! exists to prevent — while a read error is a (detected) DUE. The
//! address slicing is deliberately orthogonal to the service's Hash-1
//! sharding, so every load worker exercises every shard.

use crate::error::ServiceError;
use crate::service::{Service, ServiceHandle, ServiceReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use sudoku_sim::ZipfGen;

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
    /// Fraction of requests that are writes, drawn i.i.d.
    pub write_frac: f64,
    /// Zipf skew of the addresses over a worker's slice (0 = uniform;
    /// ≈1 = classic Zipf).
    pub theta: f64,
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
            theta: 0.8,
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

/// One load worker's counts ([`WorkerResult::add`] sums a run's).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerResult {
    /// Reads served, with data or as a DUE.
    pub reads: u64,
    /// Writes accepted.
    pub writes: u64,
    /// Reads from a live shard whose data differed from the golden copy.
    pub sdc: u64,
    /// Reads that returned a detected uncorrectable error.
    pub due: u64,
    /// Requests refused: by a quarantined shard or by the shutdown.
    pub shed: u64,
    /// Reads served with data after the worker first saw a quarantine.
    pub served_degraded: u64,
}

impl WorkerResult {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &WorkerResult) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.sdc += other.sdc;
        self.due += other.due;
        self.shed += other.shed;
        self.served_degraded += other.served_degraded;
    }
}

/// Runs the load against `service`, then drains and shuts it down.
///
/// Consumes the service so the report can include its final state; the
/// returned [`LoadReport`] carries both sides of the run.
pub fn run(service: Service, config: &LoadgenConfig) -> LoadReport {
    let n_lines = service.state().config().geometry.lines();
    let started = Instant::now();
    let mut total = WorkerResult::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.workers.max(1) as u64)
            .map(|w| {
                let handle = service.handle();
                s.spawn(move || load_worker(&handle, config, w, n_lines))
            })
            .collect();
        for h in handles {
            total.add(&h.join().expect("load worker panicked"));
        }
    });
    let elapsed = started.elapsed();
    let requests = total.reads + total.writes;
    LoadReport {
        requests,
        reads: total.reads,
        writes: total.writes,
        sdc: total.sdc,
        due: total.due,
        shed: total.shed,
        elapsed,
        req_per_sec: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        service: service.shutdown(),
    }
}

/// Worker `worker` of `config.workers` over a cache of `lines` lines:
/// issues its request quota against its own line slice, keeping a golden
/// copy of everything it wrote. Tolerant of every [`ServiceError`]: it
/// returns when its quota is spent or the service shuts down under it.
pub fn load_worker(
    handle: &ServiceHandle,
    config: &LoadgenConfig,
    worker: u64,
    lines: u64,
) -> WorkerResult {
    let workers = config.workers.max(1) as u64;
    let span = (lines / workers).max(1);
    let mut result = WorkerResult::default();
    let mut golden: HashMap<u64, LineData> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(config.seed ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut zipf = ZipfGen::new(span, config.theta, config.seed ^ (worker << 17));
    let mut saw_quarantine = false;
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
        let line = zipf.next_rank() * workers + worker;
        let outcome = if rng.gen_bool(config.write_frac) {
            let mut data = LineData::zero();
            data.set_bit((line as usize).wrapping_mul(31) % 512, true);
            data.set_bit((i as usize).wrapping_mul(7) % 512, true);
            handle.write(line, &data).map(|()| {
                golden.insert(line, data);
                result.writes += 1;
            })
        } else {
            // Clean lines are served lock-free off the seqlock view; dirty
            // or suspect lines are served on this thread under the shard
            // mutex, and resolve to an error if the shard dies under them.
            handle.read(line).map(|data| {
                result.reads += 1;
                if saw_quarantine {
                    result.served_degraded += 1;
                }
                let expect = golden.get(&line).copied().unwrap_or_else(LineData::zero);
                // Oracle: only lines on live shards count. A line whose
                // shard died may have lost accepted writes — that is shed
                // availability, not silent corruption.
                if data != expect && !handle.quarantined().contains(&handle.shard_of(line)) {
                    result.sdc += 1;
                }
            })
        };
        match outcome {
            Ok(()) => {}
            Err(e) if e.is_due() => {
                result.reads += 1;
                result.due += 1;
            }
            // Rejected at the door: nothing was accepted, so the golden
            // copy stays authoritative for the line's last good value.
            Err(ServiceError::ShuttingDown) => {
                result.shed += 1;
                break;
            }
            Err(_) => {
                saw_quarantine = true;
                result.shed += 1;
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use std::sync::mpsc;

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
    }

    #[test]
    fn paced_zipf_load_roughly_honors_rate() {
        let mut svc_config = ServiceConfig::small(512, 2, 0.0, 8);
        svc_config.scrub_every = None;
        let service = Service::start(svc_config).unwrap();
        let config = LoadgenConfig {
            requests_per_worker: 100,
            target_rps: 4000,
            ..LoadgenConfig::small(0, 8)
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

    #[test]
    fn workers_serve_degraded_and_return_at_shutdown() {
        const LINES: u64 = 1024;
        let mut svc_config = ServiceConfig::small(LINES, 4, 0.0, 11);
        svc_config.scrub_every = None;
        let service = Service::start(svc_config).unwrap();
        // An unbounded quota: a worker returns only by stopping on the
        // shutdown.
        let config = LoadgenConfig {
            workers: 4,
            requests_per_worker: u64::MAX,
            ..LoadgenConfig::small(0, 11)
        };
        let wait_until = |what: &str, done: &dyn Fn() -> bool| {
            let start = Instant::now();
            while !done() {
                assert!(start.elapsed() < Duration::from_secs(30), "no {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let run = std::thread::scope(|s| {
                let workers: Vec<_> = (0..config.workers as u64)
                    .map(|w| {
                        let handle = service.handle();
                        s.spawn(move || load_worker(&handle, &config, w, LINES))
                    })
                    .collect();
                let reads = || service.registry().reads.get();
                let rejects = || service.state().degraded_stats().shard_down_rejects;
                wait_until("reads before the panic", &|| reads() >= 1_000);
                // Killed holding its mutex, poisoning it. Every worker's
                // slice has its hottest lines (ranks 0-3) on shard 0.
                service.handle().inject_worker_panic(0, true).unwrap();
                wait_until("refusals by the dead shard", &|| rejects() >= 100);
                let seen = reads();
                wait_until("reads after the refusals", &|| reads() >= seen + 1_000);
                let report = service.shutdown();
                let results: Vec<WorkerResult> = workers
                    .into_iter()
                    .map(|w| w.join().expect("a load worker panicked"))
                    .collect();
                (report, results)
            });
            let _ = done.send(());
            run
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60))
        {
            panic!("a load worker did not return after the shutdown began");
        }
        let (report, results) = runner
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        assert_eq!(report.quarantined, vec![0]);
        let mut total = WorkerResult::default();
        for r in &results {
            // Its last request was the one the shutdown refused.
            assert!(r.shed >= 1, "{r:?}");
            total.add(r);
        }
        assert!(total.served_degraded > 0, "{total:?}");
        assert_eq!(total.sdc, 0, "{total:?}");
        assert_eq!(total.due, 0, "{total:?}");
    }
}
