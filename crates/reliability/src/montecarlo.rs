//! Monte-Carlo fault-injection campaigns driving the *real* SuDoku engines.
//!
//! The analytic models in [`crate::analytic`] enumerate failure conditions
//! by hand; the campaigns here validate them behaviourally: every trial
//! injects a statistically exact per-interval fault pattern into a (sparse,
//! full-size) cache and runs the actual scrubber from `sudoku-core`. Because
//! data values are irrelevant to the fault process and all codes are linear,
//! trials use the all-zero golden state WLOG — any line that ends an
//! interval non-zero yet CRC-valid is a silent data corruption.
//!
//! Three campaign shapes:
//!
//! * [`run_interval_campaign`] — unconditional intervals at a given BER;
//!   estimates the per-interval DUE probability (and hence MTTF/FIT) of
//!   SuDoku-X at full scale, exactly the quantity of paper §III-F;
//! * [`run_group_campaign`] — conditional trials that *place* a chosen
//!   fault pattern (e.g. two lines × two faults) in one RAID-Group and
//!   measure the engine's repair success, reproducing the SDR case
//!   percentages of paper §IV-B/C and feeding the rare-event estimates of
//!   SuDoku-Y/Z;
//! * [`run_lifetime_campaign`] — consecutive intervals until the first
//!   DUE, a direct (censored) MTTF estimate.
//!
//! # One driver
//!
//! All three run on one private work-stealing driver. Workers claim trials
//! a chunk at a time from a shared atomic counter; each worker owns one
//! arena for the whole campaign, runs a trial with [`run_interval_in`] /
//! [`run_group_trial_in`] / [`run_lifetime_in`], then returns the arena to
//! the golden-zero state with a sparse undo
//! ([`SudokuCache::reset_to_golden_zero`] rezeroes only the touched lines
//! and PLT entries; [`FaultInjector::reseed`] restores a fresh RNG stream).
//! Because reset + reseed reproduces the freshly-constructed state exactly
//! and every summary is a sum over trials, results are bit-identical to
//! the construct-per-trial implementation for any worker count. The driver
//! also owns the telemetry harvest ([`Observe`]) and the amortization
//! accounting the `*_timed` variants report in a [`ThroughputReport`].

use crate::math::wilson_ci;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use sudoku_codes::TOTAL_BITS;
use sudoku_core::{
    CacheGeometry, Phase, PhaseTimes, Recorder, RecoveryEvent, RecoveryHistograms, Scheme,
    SparseStore, SudokuCache, SudokuConfig,
};
use sudoku_fault::{
    choose_distinct, choose_distinct_into, observe_plan, FaultInjector, LineFaults, ScrubSchedule,
};

/// Trials claimed per worker fetch: large enough that the atomic counter is
/// off the hot path, small enough that the tail imbalance stays bounded.
const TRIAL_CHUNK: u64 = 8;

/// Configuration of an unconditional interval campaign.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct McConfig {
    /// SuDoku variant under test.
    pub scheme: Scheme,
    /// Cache size in lines.
    pub lines: u64,
    /// RAID-Group size in lines.
    pub group: u32,
    /// Per-interval bit error rate.
    pub ber: f64,
    /// Number of independent intervals to simulate.
    pub trials: u64,
    /// Base RNG seed (trial i uses `seed + i`).
    pub seed: u64,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Scrub schedule, for FIT/MTTF conversion of the measured rate.
    pub scrub: ScrubSchedule,
}

impl McConfig {
    /// Paper-scale defaults: 64 MB cache, 512-line groups, BER 5.3×10⁻⁶.
    pub fn paper_default(scheme: Scheme, trials: u64, seed: u64) -> Self {
        McConfig {
            scheme,
            lines: 1 << 20,
            group: 512,
            ber: 5.3e-6,
            trials,
            seed,
            threads: 0,
            scrub: ScrubSchedule::paper_default(),
        }
    }

    fn sudoku_config(&self) -> SudokuConfig {
        SudokuConfig {
            geometry: CacheGeometry::with_lines(self.lines),
            scheme: self.scheme,
            group_lines: self.group,
            max_sdr_mismatches: 6,
            sdr_pair_trials: false,
            defer_hash2: false,
            scrub: self.scrub,
        }
    }
}

/// Wall-clock throughput and amortization accounting for one campaign.
///
/// Produced by the `*_timed` campaign variants and surfaced by every
/// benchmark binary that runs campaigns (DESIGN.md "Performance notes").
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Completed trials per wall-clock second (for lifetime campaigns:
    /// simulated *intervals* per second, since runs vary in length).
    pub trials_per_sec: f64,
    /// Lines examined by scrub passes, summed over all workers.
    pub lines_scrubbed: u64,
    /// CRC/ECC consistency checks actually performed (lines skipped by the
    /// all-zero fast path are not counted).
    pub crc_checks: u64,
}

impl ThroughputReport {
    /// One-line human-readable rendering, prefixed with `label`.
    pub fn println(&self, label: &str) {
        println!(
            "[{label}] {:.2} trials/s | {} lines scrubbed | {} CRC checks",
            self.trials_per_sec, self.lines_scrubbed, self.crc_checks
        );
    }

    /// JSON object with every field, stable order.
    pub fn to_json(&self) -> String {
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_f64("trials_per_sec", self.trials_per_sec);
        obj.field_u64("lines_scrubbed", self.lines_scrubbed);
        obj.field_u64("crc_checks", self.crc_checks);
        obj.finish()
    }
}

/// Telemetry depth of an observed campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observe {
    /// No telemetry: workers run with disabled recorders (the zero-cost
    /// path — one predictable branch per would-be emission).
    Off,
    /// Keep the most recent `N` events *per trial*; histograms and phase
    /// spans are always complete.
    Ring(usize),
    /// Keep every event of every trial (memory grows with the fault count).
    Unbounded,
}

impl Observe {
    /// Whether any collection happens.
    pub fn enabled(&self) -> bool {
        !matches!(self, Observe::Off)
    }

    fn recorder(&self) -> Recorder {
        match self {
            Observe::Off => Recorder::disabled(),
            Observe::Ring(capacity) => Recorder::ring(*capacity),
            Observe::Unbounded => Recorder::unbounded(),
        }
    }
}

/// Telemetry harvested from an observed campaign: the merged event log
/// (sorted by interval, intra-interval emission order preserved), the
/// merged recovery histograms, and the per-phase wall-clock totals summed
/// over workers.
#[derive(Clone, Debug, Default)]
pub struct CampaignTelemetry {
    /// Recovery events, sorted by interval.
    pub events: Vec<RecoveryEvent>,
    /// Merged recovery histograms.
    pub hists: RecoveryHistograms,
    /// Per-phase wall-clock totals (CPU-seconds: workers run concurrently,
    /// so phase totals can exceed the campaign's wall-clock time).
    pub phases: PhaseTimes,
}

impl CampaignTelemetry {
    fn merge(&mut self, other: CampaignTelemetry) {
        self.events.extend(other.events);
        self.hists.merge(&other.hists);
        self.phases.merge(&other.phases);
    }

    /// Each trial runs on exactly one worker, so a stable sort by interval
    /// restores a deterministic, emission-ordered log regardless of how
    /// the scheduler interleaved workers.
    fn finish(&mut self) {
        self.events.sort_by_key(|e| e.interval);
    }

    /// The event log as JSON Lines (one event per line, trailing newline).
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// JSON object with the histogram set, phase times, and event count.
    pub fn to_json(&self) -> String {
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_u64("events", self.events.len() as u64);
        obj.field_raw("histograms", &self.hists.to_json());
        obj.field_raw("phases", &self.phases.to_json());
        obj.finish()
    }
}

/// Outcome of one simulated interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalOutcome {
    /// Faulty lines injected.
    pub faulty_lines: u32,
    /// Faulty bits injected.
    pub faulty_bits: u32,
    /// Lines that needed group recovery.
    pub multibit_lines: u32,
    /// Lines repaired by plain RAID-4.
    pub raid4_repairs: u32,
    /// Lines repaired by SDR.
    pub sdr_repairs: u32,
    /// Lines repaired via Hash-2.
    pub hash2_repairs: u32,
    /// Detectably uncorrectable lines at interval end.
    pub due_lines: u32,
    /// Silently corrupted lines at interval end.
    pub sdc_lines: u32,
}

/// Aggregate of an interval campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Intervals simulated.
    pub trials: u64,
    /// Intervals with ≥ 1 DUE line.
    pub due_intervals: u64,
    /// Intervals with ≥ 1 SDC line.
    pub sdc_intervals: u64,
    /// Total faulty bits injected.
    pub faulty_bits: u64,
    /// Total multi-bit lines observed.
    pub multibit_lines: u64,
    /// Total RAID-4 repairs.
    pub raid4_repairs: u64,
    /// Total SDR repairs.
    pub sdr_repairs: u64,
    /// Total Hash-2 repairs.
    pub hash2_repairs: u64,
}

impl CampaignSummary {
    /// Estimated per-interval DUE probability.
    pub fn due_rate(&self) -> f64 {
        self.due_intervals as f64 / self.trials as f64
    }

    /// 95 % Wilson interval on the per-interval DUE probability.
    pub fn due_rate_ci(&self) -> (f64, f64) {
        wilson_ci(self.due_intervals, self.trials, 1.96)
    }

    /// Measured MTTF in seconds for a given scrub schedule (∞ if no DUE
    /// was observed).
    pub fn mttf_seconds(&self, scrub: &ScrubSchedule) -> f64 {
        let rate = self.due_rate();
        if rate == 0.0 {
            f64::INFINITY
        } else {
            scrub.interval_s() / rate
        }
    }

    /// Measured FIT for a given scrub schedule.
    pub fn fit(&self, scrub: &ScrubSchedule) -> f64 {
        scrub.fit_rate_linear(self.due_rate())
    }

    fn absorb(&mut self, o: &IntervalOutcome) {
        self.trials += 1;
        self.due_intervals += (o.due_lines > 0) as u64;
        self.sdc_intervals += (o.sdc_lines > 0) as u64;
        self.faulty_bits += o.faulty_bits as u64;
        self.multibit_lines += o.multibit_lines as u64;
        self.raid4_repairs += o.raid4_repairs as u64;
        self.sdr_repairs += o.sdr_repairs as u64;
        self.hash2_repairs += o.hash2_repairs as u64;
    }
}

impl Tally for CampaignSummary {
    fn merge(&mut self, r: &CampaignSummary) {
        self.trials += r.trials;
        self.due_intervals += r.due_intervals;
        self.sdc_intervals += r.sdc_intervals;
        self.faulty_bits += r.faulty_bits;
        self.multibit_lines += r.multibit_lines;
        self.raid4_repairs += r.raid4_repairs;
        self.sdr_repairs += r.sdr_repairs;
        self.hash2_repairs += r.hash2_repairs;
    }

    fn trials(&self) -> u64 {
        self.trials
    }
}

/// Lines that survived scrub non-zero without being flagged: silent data
/// corruption under the golden-zero convention.
fn count_sdc(cache: &SudokuCache<SparseStore>, report: &sudoku_core::ScrubReport) -> u32 {
    let mut sdc_lines = 0u32;
    for (idx, line) in cache.store().iter_touched() {
        if !line.is_zero() && !report.unresolved.contains(&idx) {
            sdc_lines += 1;
        }
    }
    sdc_lines
}

/// Adds the time since `start` to `phase`'s span; `start` is `None` when
/// the trial is not observed.
fn end_span(cache: &mut SudokuCache<SparseStore>, phase: Phase, start: Option<Instant>) {
    if let Some(start) = start {
        cache
            .recorder_mut()
            .phases
            .add(phase, start.elapsed().as_secs_f64());
    }
}

/// Draws one interval's fault plan from `injector` and flips its bits in
/// `cache`. Returns the faulty lines (the scrub hints) and the number of
/// bits flipped.
fn inject_interval(
    cache: &mut SudokuCache<SparseStore>,
    injector: &mut FaultInjector,
    lines: u64,
) -> (Vec<u64>, u32) {
    let plan = injector.cache_plan(lines);
    // `observe_plan` records nothing unless the recorder is enabled, and
    // never touches the RNG.
    observe_plan(&plan, cache.recorder_mut());
    let mut hints = Vec::with_capacity(plan.len());
    let mut bits = Vec::new();
    let mut faulty_bits = 0u32;
    for lf in &plan {
        choose_distinct_into(
            injector.rng(),
            TOTAL_BITS as u64,
            lf.faults as u64,
            &mut bits,
        );
        for &pos in &bits {
            cache.inject_fault(lf.line, pos as usize);
        }
        faulty_bits += lf.faults;
        hints.push(lf.line);
    }
    (hints, faulty_bits)
}

/// Scrubs the injected lines `hints` (timing the pass when observed) and
/// measures the trial's outcome.
fn scrub_and_measure(
    cache: &mut SudokuCache<SparseStore>,
    hints: &[u64],
    faulty_bits: u32,
) -> IntervalOutcome {
    let scrub_start = cache.recorder().enabled().then(Instant::now);
    let report = cache.scrub_lines(hints);
    end_span(cache, Phase::Scrub, scrub_start);
    IntervalOutcome {
        faulty_lines: hints.len() as u32,
        faulty_bits,
        multibit_lines: report.multibit_lines as u32,
        raid4_repairs: report.raid4_repairs as u32,
        sdr_repairs: report.sdr_repairs as u32,
        hash2_repairs: report.hash2_repairs as u32,
        due_lines: report.unresolved.len() as u32,
        sdc_lines: count_sdc(cache, &report),
    }
}

/// Simulates one scrub interval in a caller-owned arena.
///
/// `cache` must be in the golden-zero state (freshly constructed or
/// [`SudokuCache::reset_to_golden_zero`]); the injector is reseeded to
/// `trial_seed`, so the result depends only on `(cfg, trial_seed)` and is
/// bit-identical to [`run_interval`]. The cache is left *dirty* — the
/// caller resets it before the next trial.
pub fn run_interval_in(
    cache: &mut SudokuCache<SparseStore>,
    injector: &mut FaultInjector,
    cfg: &McConfig,
    trial_seed: u64,
) -> IntervalOutcome {
    // Telemetry is observational only: neither the span clocks nor
    // `observe_plan` touch the RNG, so observed and unobserved trials are
    // bit-identical.
    let inject_start = cache.recorder().enabled().then(Instant::now);
    injector.reseed(trial_seed);
    let (hints, faulty_bits) = inject_interval(cache, injector, cfg.lines);
    end_span(cache, Phase::Inject, inject_start);
    scrub_and_measure(cache, &hints, faulty_bits)
}

/// Simulates one scrub interval; deterministic in `(cfg, trial_seed)`.
pub fn run_interval(cfg: &McConfig, trial_seed: u64) -> IntervalOutcome {
    let mut cache =
        SudokuCache::new_sparse(cfg.sudoku_config()).expect("valid Monte-Carlo configuration");
    let mut injector = FaultInjector::new(cfg.ber, trial_seed);
    run_interval_in(&mut cache, &mut injector, cfg, trial_seed)
}

/// What a campaign worker accumulates over its trials and the driver sums
/// over workers.
trait Tally: Default + Send {
    /// Adds another worker's tally to this one.
    fn merge(&mut self, other: &Self);
    /// Trials counted: the numerator of `trials_per_sec`.
    fn trials(&self) -> u64;
}

fn worker_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// The one campaign driver. Runs trials `0..trials` on up to `threads`
/// workers that claim them [`TRIAL_CHUNK`] at a time: the calling thread
/// is worker 0 and `threads − 1` more are spawned, so a one-thread
/// campaign spawns none. Each worker owns one arena built from `config`
/// and the extra state `worker()` builds (the fault injector, for kinds
/// that draw from one); `trial(cache, state, i, tally)` runs trial `i` in
/// that arena and folds its outcome into the worker's tally. After every
/// trial the driver harvests the trial's events (at depth `observe`) and
/// returns the arena to golden zero. Tallies are sums and the event log is
/// sorted once merged, so the result does not depend on which worker ran
/// which trial.
fn drive<T: Tally, W>(
    config: SudokuConfig,
    trials: u64,
    threads: usize,
    observe: Observe,
    worker: impl Fn() -> W + Sync,
    trial: impl Fn(&mut SudokuCache<SparseStore>, &mut W, u64, &mut T) + Sync,
) -> (T, ThroughputReport, CampaignTelemetry) {
    let threads = worker_threads(threads).min(trials.max(1) as usize);
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let work = || {
        let mut cache = SudokuCache::new_sparse(config).expect("valid Monte-Carlo configuration");
        let _ = cache.set_recorder(observe.recorder());
        let observing = observe.enabled();
        let mut state = worker();
        let mut tally = T::default();
        let mut report = ThroughputReport::default();
        let mut events: Vec<RecoveryEvent> = Vec::new();
        loop {
            let chunk = next.fetch_add(TRIAL_CHUNK, Ordering::Relaxed);
            if chunk >= trials {
                break;
            }
            for i in chunk..(chunk + TRIAL_CHUNK).min(trials) {
                if observing {
                    cache.recorder_mut().set_interval(i);
                }
                trial(&mut cache, &mut state, i, &mut tally);
                if observing {
                    // Harvest before the reset clears the ring.
                    events.extend(cache.drain_events());
                }
                // Only an observed run times the reset: the clock pair
                // costs more than a sparse reset.
                let t = observing.then(Instant::now);
                cache.reset_to_golden_zero();
                if let Some(t) = t {
                    let dt = t.elapsed().as_secs_f64();
                    cache.recorder_mut().phases.add(Phase::Reset, dt);
                }
            }
        }
        report.lines_scrubbed = cache.stats().lines_scrubbed;
        report.crc_checks = cache.stats().crc_checks;
        let recorder = cache.set_recorder(Recorder::disabled());
        let telemetry = CampaignTelemetry {
            events,
            hists: recorder.hists,
            phases: recorder.phases,
        };
        (tally, report, telemetry)
    };
    let parts: Vec<(T, ThroughputReport, CampaignTelemetry)> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut parts = vec![work()];
        parts.extend(spawned.into_iter().map(|h| h.join().expect("worker")));
        parts
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut total = T::default();
    let mut report = ThroughputReport::default();
    let mut telemetry = CampaignTelemetry::default();
    for (tally, part, worker_telemetry) in parts {
        total.merge(&tally);
        report.lines_scrubbed += part.lines_scrubbed;
        report.crc_checks += part.crc_checks;
        telemetry.merge(worker_telemetry);
    }
    telemetry.finish();
    report.trials_per_sec = if elapsed > 0.0 {
        total.trials() as f64 / elapsed
    } else {
        f64::INFINITY
    };
    (total, report, telemetry)
}

/// Runs `cfg.trials` independent intervals with per-worker reused arenas,
/// collecting telemetry at the requested depth. The summary and throughput
/// accounting are bit-identical across `observe` settings — telemetry
/// never perturbs the trial RNG streams.
pub fn run_interval_campaign_observed(
    cfg: &McConfig,
    observe: Observe,
) -> (CampaignSummary, ThroughputReport, CampaignTelemetry) {
    drive(
        cfg.sudoku_config(),
        cfg.trials,
        cfg.threads,
        observe,
        || FaultInjector::new(cfg.ber, cfg.seed),
        |cache, injector, i, summary: &mut CampaignSummary| {
            summary.absorb(&run_interval_in(
                cache,
                injector,
                cfg,
                cfg.seed.wrapping_add(i),
            ));
        },
    )
}

/// Runs `cfg.trials` independent intervals with per-worker reused arenas
/// and reports campaign throughput alongside the summary (no telemetry).
pub fn run_interval_campaign_timed(cfg: &McConfig) -> (CampaignSummary, ThroughputReport) {
    let (summary, report, _) = run_interval_campaign_observed(cfg, Observe::Off);
    (summary, report)
}

/// Runs `cfg.trials` independent intervals, sharded across threads.
pub fn run_interval_campaign(cfg: &McConfig) -> CampaignSummary {
    run_interval_campaign_timed(cfg).0
}

/// Outcome of a lifetime run: consecutive intervals simulated until the
/// first DUE or the cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LifetimeOutcome {
    /// Intervals survived before the failure (== `cap` if none occurred).
    pub intervals_survived: u64,
    /// Whether a DUE terminated the run.
    pub failed: bool,
}

/// Simulates consecutive scrub intervals in a caller-owned arena until the
/// first DUE or `max_intervals`. Successful scrubs restore the pristine
/// state, so the time-to-first-failure is geometric in the per-interval
/// DUE probability. The cache must start golden-zero and is left dirty
/// after a failed run — the caller resets it.
pub fn run_lifetime_in(
    cache: &mut SudokuCache<SparseStore>,
    injector: &mut FaultInjector,
    cfg: &McConfig,
    max_intervals: u64,
    seed: u64,
) -> LifetimeOutcome {
    injector.reseed(seed);
    for interval in 0..max_intervals {
        let (hints, _) = inject_interval(cache, injector, cfg.lines);
        if !cache.scrub_lines(&hints).fully_repaired() {
            return LifetimeOutcome {
                intervals_survived: interval,
                failed: true,
            };
        }
    }
    LifetimeOutcome {
        intervals_survived: max_intervals,
        failed: false,
    }
}

/// Simulates one lifetime; deterministic in `(cfg, max_intervals, seed)`.
pub fn run_lifetime(cfg: &McConfig, max_intervals: u64, seed: u64) -> LifetimeOutcome {
    let mut cache =
        SudokuCache::new_sparse(cfg.sudoku_config()).expect("valid Monte-Carlo configuration");
    let mut injector = FaultInjector::new(cfg.ber, seed);
    run_lifetime_in(&mut cache, &mut injector, cfg, max_intervals, seed)
}

/// Runs `runs` independent lifetimes (run `r` seeded `seed + r·0x9E37`) on
/// `cfg.threads` workers with reused arenas and reports the censored-mean
/// MTTF with throughput accounting (`trials_per_sec` counts simulated
/// intervals, since runs vary in length).
pub fn run_lifetime_campaign_timed(
    cfg: &McConfig,
    runs: u64,
    max_intervals: u64,
    seed: u64,
) -> ((f64, u64), ThroughputReport) {
    // A lifetime is a run of intervals: `trials` counts the intervals
    // lived and `due_intervals` the failed runs, each of which ends in
    // exactly one DUE interval.
    let (lived, report, _) = drive(
        cfg.sudoku_config(),
        runs,
        cfg.threads,
        Observe::Off,
        || FaultInjector::new(cfg.ber, seed),
        |cache, injector, r, lived: &mut CampaignSummary| {
            let run_seed = seed.wrapping_add(r.wrapping_mul(0x9E37));
            let o = run_lifetime_in(cache, injector, cfg, max_intervals, run_seed);
            // The failing interval itself counts toward the lifetime (a run
            // that dies immediately lived one interval, not zero).
            lived.trials += o.intervals_survived + o.failed as u64;
            lived.due_intervals += o.failed as u64;
        },
    );
    let failures = lived.due_intervals;
    let mttf_s = if failures == 0 {
        f64::INFINITY
    } else {
        lived.trials as f64 / failures as f64 * cfg.scrub.interval_s()
    };
    ((mttf_s, failures), report)
}

/// Runs `runs` independent lifetimes and reports the censored-mean MTTF.
pub fn run_lifetime_campaign(
    cfg: &McConfig,
    runs: u64,
    max_intervals: u64,
    seed: u64,
) -> (f64, u64) {
    run_lifetime_campaign_timed(cfg, runs, max_intervals, seed).0
}

/// A conditional scenario: `fault_counts[i]` faults are injected into the
/// i-th of several distinct lines of one Hash-1 RAID-Group, at uniformly
/// random distinct bit positions per line.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupScenario {
    /// SuDoku variant under test.
    pub scheme: Scheme,
    /// RAID-Group size in lines.
    pub group: u32,
    /// Faults per affected line (length = number of faulty lines).
    pub fault_counts: Vec<u32>,
    /// Enable the pair-flip SDR extension (off = the paper's design).
    pub pair_sdr: bool,
}

impl GroupScenario {
    /// The canonical SuDoku-Y stress case: two lines, two faults each
    /// (paper Figure 3).
    pub fn two_by_two(scheme: Scheme, group: u32) -> Self {
        GroupScenario {
            scheme,
            group,
            fault_counts: vec![2, 2],
            pair_sdr: false,
        }
    }

    fn lines_needed(&self) -> u64 {
        // group² lines give Hash-2 its disjointness guarantee.
        self.group as u64 * self.group as u64
    }

    fn sudoku_config(&self) -> SudokuConfig {
        SudokuConfig {
            geometry: CacheGeometry::with_lines(self.lines_needed()),
            scheme: self.scheme,
            group_lines: self.group,
            max_sdr_mismatches: 6,
            sdr_pair_trials: self.pair_sdr,
            defer_hash2: false,
            scrub: ScrubSchedule::paper_default(),
        }
    }
}

/// Result of a conditional group campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GroupCampaignSummary {
    /// Trials run.
    pub trials: u64,
    /// Trials in which every injected line was restored to golden.
    pub repaired: u64,
    /// Trials ending with ≥1 DUE line.
    pub due: u64,
    /// Trials ending with ≥1 silently corrupted line.
    pub sdc: u64,
}

impl GroupCampaignSummary {
    /// Fraction of trials fully repaired.
    pub fn success_rate(&self) -> f64 {
        self.repaired as f64 / self.trials as f64
    }

    /// 95 % Wilson interval on the success rate.
    pub fn success_ci(&self) -> (f64, f64) {
        wilson_ci(self.repaired, self.trials, 1.96)
    }

    /// Fraction of trials with a DUE.
    pub fn failure_rate(&self) -> f64 {
        self.due as f64 / self.trials as f64
    }

    pub(crate) fn absorb(&mut self, o: &IntervalOutcome) {
        self.trials += 1;
        if o.due_lines == 0 && o.sdc_lines == 0 {
            self.repaired += 1;
        }
        self.due += (o.due_lines > 0) as u64;
        self.sdc += (o.sdc_lines > 0) as u64;
    }
}

impl Tally for GroupCampaignSummary {
    fn merge(&mut self, other: &GroupCampaignSummary) {
        self.trials += other.trials;
        self.repaired += other.repaired;
        self.due += other.due;
        self.sdc += other.sdc;
    }

    fn trials(&self) -> u64 {
        self.trials
    }
}

/// Runs one conditional group trial in a caller-owned arena. The cache
/// must start golden-zero and is left dirty; the trial RNG is derived from
/// `trial_seed` alone, so the result matches [`run_group_trial`] exactly.
pub fn run_group_trial_in(
    cache: &mut SudokuCache<SparseStore>,
    scenario: &GroupScenario,
    trial_seed: u64,
) -> IntervalOutcome {
    let observing = cache.recorder().enabled();
    let inject_start = observing.then(Instant::now);
    let mut rng = StdRng::seed_from_u64(trial_seed);
    // Pick a random Hash-1 group and distinct victim offsets within it.
    let n_groups = scenario.lines_needed() / scenario.group as u64;
    let group = rng.gen_range(0..n_groups);
    // The victims (the scrub hints) are the offsets moved to the group's
    // base line, in place; one bit buffer serves every victim's draw.
    let mut hints = choose_distinct(
        &mut rng,
        scenario.group as u64,
        scenario.fault_counts.len() as u64,
    );
    let mut bits = Vec::new();
    let mut faulty_bits = 0u32;
    for (line, &count) in hints.iter_mut().zip(scenario.fault_counts.iter()) {
        *line += group * scenario.group as u64;
        choose_distinct_into(&mut rng, TOTAL_BITS as u64, count as u64, &mut bits);
        for &pos in &bits {
            cache.inject_fault(*line, pos as usize);
        }
        faulty_bits += count;
    }
    if observing {
        let plan: Vec<LineFaults> = hints
            .iter()
            .zip(scenario.fault_counts.iter())
            .map(|(&line, &faults)| LineFaults { line, faults })
            .collect();
        observe_plan(&plan, cache.recorder_mut());
    }
    end_span(cache, Phase::Inject, inject_start);
    scrub_and_measure(cache, &hints, faulty_bits)
}

/// Runs one conditional group trial. Returns the outcome of the interval.
pub fn run_group_trial(scenario: &GroupScenario, trial_seed: u64) -> IntervalOutcome {
    let mut cache =
        SudokuCache::new_sparse(scenario.sudoku_config()).expect("valid scenario configuration");
    run_group_trial_in(&mut cache, scenario, trial_seed)
}

/// Runs a conditional campaign over `trials` seeds with per-worker reused
/// arenas, collecting telemetry at the requested depth. As with interval
/// campaigns, the summary is bit-identical across `observe` settings.
pub fn run_group_campaign_observed(
    scenario: &GroupScenario,
    trials: u64,
    seed: u64,
    threads: usize,
    observe: Observe,
) -> (GroupCampaignSummary, ThroughputReport, CampaignTelemetry) {
    // Group trials draw from their own per-trial RNG: no injector.
    drive(
        scenario.sudoku_config(),
        trials,
        threads,
        observe,
        || (),
        |cache, _, i, summary: &mut GroupCampaignSummary| {
            summary.absorb(&run_group_trial_in(cache, scenario, seed.wrapping_add(i)));
        },
    )
}

/// Runs a conditional campaign over `trials` seeds with per-worker reused
/// arenas, reporting throughput alongside the summary (no telemetry).
pub fn run_group_campaign_timed(
    scenario: &GroupScenario,
    trials: u64,
    seed: u64,
    threads: usize,
) -> (GroupCampaignSummary, ThroughputReport) {
    let (summary, report, _) =
        run_group_campaign_observed(scenario, trials, seed, threads, Observe::Off);
    (summary, report)
}

/// Runs a conditional campaign over `trials` seeds.
pub fn run_group_campaign(
    scenario: &GroupScenario,
    trials: u64,
    seed: u64,
    threads: usize,
) -> GroupCampaignSummary {
    run_group_campaign_timed(scenario, trials, seed, threads).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudoku_core::CacheStats;

    /// A scaled-down cache keeps unit-test campaigns fast; statistical
    /// behaviour per group is unchanged.
    fn small_cfg(scheme: Scheme, trials: u64) -> McConfig {
        McConfig {
            scheme,
            lines: 1 << 12, // 4096 lines
            group: 64,
            ber: 2e-4, // elevated so events actually occur
            trials,
            seed: 7,
            threads: 2,
            scrub: ScrubSchedule::paper_default(),
        }
    }

    #[test]
    fn interval_trial_is_deterministic() {
        let cfg = small_cfg(Scheme::Y, 1);
        assert_eq!(run_interval(&cfg, 123), run_interval(&cfg, 123));
    }

    #[test]
    fn reused_arena_trials_match_fresh_construction() {
        let cfg = small_cfg(Scheme::Y, 1);
        let mut cache = SudokuCache::new_sparse(cfg.sudoku_config()).unwrap();
        let mut injector = FaultInjector::new(cfg.ber, 0);
        for trial_seed in [5u64, 123, 7777] {
            let reused = run_interval_in(&mut cache, &mut injector, &cfg, trial_seed);
            cache.reset_to_golden_zero();
            assert_eq!(reused, run_interval(&cfg, trial_seed), "seed {trial_seed}");
        }
    }

    #[test]
    fn campaign_matches_accumulated_fresh_trials() {
        // The arena-reusing campaign must equal summing independent
        // fresh-cache trials over the same seeds, bit for bit.
        let cfg = small_cfg(Scheme::Y, 24);
        let (campaign, report) = run_interval_campaign_timed(&cfg);
        let mut expected = CampaignSummary::default();
        for i in 0..cfg.trials {
            expected.absorb(&run_interval(&cfg, cfg.seed.wrapping_add(i)));
        }
        assert_eq!(campaign, expected);
        assert!(report.trials_per_sec > 0.0);
        assert!(report.lines_scrubbed > 0, "{report:?}");
        assert!(report.crc_checks > 0, "{report:?}");
    }

    #[test]
    fn group_campaign_matches_accumulated_fresh_trials() {
        let scenario = GroupScenario::two_by_two(Scheme::Y, 64);
        let (campaign, report) = run_group_campaign_timed(&scenario, 20, 11, 2);
        let mut expected = GroupCampaignSummary::default();
        for i in 0..20u64 {
            expected.absorb(&run_group_trial(&scenario, 11u64.wrapping_add(i)));
        }
        assert_eq!(campaign, expected);
        assert!(report.lines_scrubbed > 0, "{report:?}");
    }

    #[test]
    fn x_campaign_sees_due_events_y_fixes_most() {
        let x = run_interval_campaign(&small_cfg(Scheme::X, 300));
        let y = run_interval_campaign(&small_cfg(Scheme::Y, 300));
        assert_eq!(x.trials, 300);
        // At BER 2e-4, 4096×553 bits → ~450 faults/interval, multi-bit
        // collisions are common: X must fail noticeably more often than Y.
        assert!(
            x.due_intervals > y.due_intervals,
            "x = {}, y = {}",
            x.due_intervals,
            y.due_intervals
        );
        assert!(y.sdr_repairs > 0, "SDR must fire: {y:?}");
    }

    #[test]
    fn z_campaign_stronger_than_y() {
        let y = run_interval_campaign(&small_cfg(Scheme::Y, 200));
        let z = run_interval_campaign(&small_cfg(Scheme::Z, 200));
        assert!(
            z.due_intervals <= y.due_intervals,
            "y = {}, z = {}",
            y.due_intervals,
            z.due_intervals
        );
    }

    #[test]
    fn group_two_by_two_success_matches_paper_figure3() {
        // Paper §IV-C: SDR repairs two 2-fault lines 99.9996 % of the time
        // (failure only on full overlap, ~7.6e-6). 3000 trials cannot
        // distinguish 99.9996 from 100 but must see zero-ish failures.
        let scenario = GroupScenario::two_by_two(Scheme::Y, 64);
        let summary = run_group_campaign(&scenario, 3000, 11, 2);
        assert!(summary.success_rate() > 0.999, "{summary:?}");
        assert_eq!(summary.sdc, 0);
    }

    #[test]
    fn group_three_by_three_fails_under_y_heals_under_z() {
        let y = run_group_campaign(
            &GroupScenario {
                scheme: Scheme::Y,
                group: 64,
                fault_counts: vec![3, 3],
                pair_sdr: false,
            },
            200,
            5,
            2,
        );
        // Two 3-fault lines defeat SDR (paper §V): Y nearly always fails…
        assert!(y.failure_rate() > 0.95, "{y:?}");
        let z = run_group_campaign(
            &GroupScenario {
                scheme: Scheme::Z,
                group: 64,
                fault_counts: vec![3, 3],
                pair_sdr: false,
            },
            200,
            5,
            2,
        );
        // …while Z repairs them through Hash-2 essentially always.
        assert!(z.success_rate() > 0.99, "{z:?}");
    }

    #[test]
    fn ladder_trial_counters_are_pinned() {
        // Each scenario replays trials on one reused arena. The expected
        // counters were recorded from the engine that still copied and
        // XORed every group member; walking only the live members must
        // not move any of them.
        fn replay(scenario: &GroupScenario, seeds: &[u64]) -> (CacheStats, Vec<IntervalOutcome>) {
            let mut cache = SudokuCache::new_sparse(scenario.sudoku_config()).unwrap();
            let mut outcomes = Vec::new();
            for &seed in seeds {
                outcomes.push(run_group_trial_in(&mut cache, scenario, seed));
                cache.reset_to_golden_zero();
            }
            (*cache.stats(), outcomes)
        }
        let seeds = [1, 2, 3, 4, 5, 6, 7, 8];

        // Four 2-fault lines: eight mismatches exceed the SDR cap, so every
        // line falls to RAID-4 in its Hash-2 group.
        let ladder = GroupScenario {
            scheme: Scheme::Z,
            group: 512,
            fault_counts: vec![2, 2, 2, 2],
            pair_sdr: false,
        };
        let (stats, _) = replay(&ladder, &seeds);
        assert_eq!(
            stats,
            CacheStats {
                lines_scrubbed: 32,
                multibit_detections: 32,
                raid4_repairs: 32,
                hash2_repairs: 32,
                group_scans: 40,
                crc_checks: 160,
                ..CacheStats::default()
            }
        );

        // Paper Figure 3(a): SDR resurrects one line, RAID-4 the other.
        let (stats, _) = replay(&GroupScenario::two_by_two(Scheme::Y, 64), &seeds);
        assert_eq!(
            stats,
            CacheStats {
                lines_scrubbed: 16,
                multibit_detections: 16,
                raid4_repairs: 8,
                sdr_repairs: 8,
                sdr_trials: 12,
                group_scans: 8,
                crc_checks: 52,
                ..CacheStats::default()
            }
        );

        // Seed 29173 draws two 2-fault lines with identical fault
        // positions: SDR sees no parity mismatch and only Hash-2 heals.
        let (stats, outcomes) = replay(&GroupScenario::two_by_two(Scheme::Z, 64), &[29173]);
        assert_eq!(
            stats,
            CacheStats {
                lines_scrubbed: 2,
                multibit_detections: 2,
                raid4_repairs: 2,
                hash2_repairs: 2,
                group_scans: 3,
                crc_checks: 10,
                ..CacheStats::default()
            }
        );
        assert_eq!((outcomes[0].hash2_repairs, outcomes[0].due_lines), (2, 0));
        let (_, y_outcomes) = replay(&GroupScenario::two_by_two(Scheme::Y, 64), &[29173]);
        assert_eq!(y_outcomes[0].due_lines, 2, "Y cannot fix full overlap");
    }

    #[test]
    fn lifetime_matches_interval_rate() {
        // At an elevated BER the X design fails within a handful of
        // intervals; the lifetime estimator must land near
        // interval / p_due measured by the independent-interval campaign.
        let cfg = small_cfg(Scheme::X, 150);
        let interval_summary = run_interval_campaign(&cfg);
        let p = interval_summary.due_rate();
        assert!(p > 0.05, "premise: X must fail often here ({p})");
        let ((mttf_s, failures), report) = run_lifetime_campaign_timed(&cfg, 30, 200, 99);
        assert!(failures >= 25, "most lifetimes should end in failure");
        assert!(report.lines_scrubbed > 0, "{report:?}");
        let expected = cfg.scrub.interval_s() / p;
        let ratio = mttf_s / expected;
        assert!(
            (0.4..2.5).contains(&ratio),
            "mttf {mttf_s} vs expected {expected}"
        );
    }

    #[test]
    fn campaigns_do_not_depend_on_worker_count() {
        let one = McConfig {
            threads: 1,
            ..small_cfg(Scheme::Y, 40)
        };
        let three = McConfig { threads: 3, ..one };
        assert_eq!(run_interval_campaign(&one), run_interval_campaign(&three));
        let scenario = GroupScenario::two_by_two(Scheme::Y, 64);
        assert_eq!(
            run_group_campaign(&scenario, 40, 11, 1),
            run_group_campaign(&scenario, 40, 11, 3)
        );
        let x_one = McConfig {
            scheme: Scheme::X,
            ..one
        };
        let x_three = McConfig {
            threads: 3,
            ..x_one
        };
        let lifetimes = run_lifetime_campaign(&x_one, 20, 50, 99);
        assert!(lifetimes.1 > 0, "premise: X lifetimes end in failure");
        assert_eq!(lifetimes, run_lifetime_campaign(&x_three, 20, 50, 99));
    }

    #[test]
    fn lifetime_campaign_matches_accumulated_fresh_runs() {
        // Runs end both by failure and by reaching the cap, so the reused
        // arenas are reset from both states.
        let cfg = McConfig {
            ber: 5e-5,
            ..small_cfg(Scheme::X, 1)
        };
        let (runs, cap, seed) = (24u64, 6u64, 5u64);
        let ((mttf_s, failures), report) = run_lifetime_campaign_timed(&cfg, runs, cap, seed);
        let (mut lived, mut failed) = (0u64, 0u64);
        for r in 0..runs {
            let o = run_lifetime(&cfg, cap, seed.wrapping_add(r.wrapping_mul(0x9E37)));
            lived += o.intervals_survived + o.failed as u64;
            failed += o.failed as u64;
        }
        assert!(0 < failed && failed < runs, "premise: mixed ends, {failed}");
        assert_eq!(failures, failed);
        assert_eq!(
            mttf_s,
            lived as f64 / failed as f64 * cfg.scrub.interval_s()
        );
        assert!(report.trials_per_sec > 0.0 && report.lines_scrubbed > 0);
    }

    #[test]
    fn lifetime_survives_cap_for_strong_scheme() {
        let cfg = small_cfg(Scheme::Z, 1);
        let o = run_lifetime(&cfg, 25, 3);
        assert!(!o.failed, "{o:?}");
        assert_eq!(o.intervals_survived, 25);
    }

    #[test]
    fn campaign_summary_rates() {
        let s = CampaignSummary {
            trials: 1000,
            due_intervals: 10,
            ..CampaignSummary::default()
        };
        assert_eq!(s.due_rate(), 0.01);
        let scrub = ScrubSchedule::paper_default();
        assert!((s.mttf_seconds(&scrub) - 2.0).abs() < 1e-12);
        let (lo, hi) = s.due_rate_ci();
        assert!(lo < 0.01 && 0.01 < hi);
    }
}
