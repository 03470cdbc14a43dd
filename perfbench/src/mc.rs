//! The two Monte-Carlo campaign workloads, run through
//! `reliability::montecarlo`'s public campaign entry points with two
//! workers.
//!
//! * `mc-interval` — the paper-default SuDoku-Z interval campaign (1 Mi
//!   lines, 512-line groups, BER 5.3e-6): fault planning, CRC/ECC-1 scrub
//!   checks and arena reset dominate; the ladder tiers barely fire.
//! * `mc-ladder` — the conditional group campaign "four lines × two
//!   faults" in one 512-line SuDoku-Z group: every trial needs SDR and
//!   Hash-2, so the paper's repair ladder does the work.
//!
//! A run is a sequence of small campaigns (batches) with seeds derived
//! from `--seed`. `p50_us` and `tail_us` are the median and p90 of
//! per-batch wall time per trial, the inverse of campaign throughput (a
//! run has a few hundred batches, so p90 keeps well over ten beyond).

use crate::hist::LatencyRecorder;
use crate::{median, procstat, Report, SETUP_REPS};
use std::time::{Duration, Instant};
use sudoku_core::{CacheGeometry, Scheme, SparseStore, SudokuCache, SudokuConfig};
use sudoku_fault::{FaultInjector, ScrubSchedule};
use sudoku_reliability::montecarlo::{
    run_group_campaign_timed, run_interval_campaign_timed, CampaignSummary, GroupCampaignSummary,
    GroupScenario, McConfig,
};

const THREADS: usize = 2;
/// Trials per batch, sized so a batch takes tens of milliseconds.
const INTERVAL_BATCH: u64 = 48;
const LADDER_BATCH: u64 = 1024;
/// The reference campaigns every run re-checks (recorded on the parent
/// of the change that added the benchmark).
const REF_SEED: u64 = 42;
const REF_INTERVAL_TRIALS: u64 = 256;
const REF_LADDER_TRIALS: u64 = 4096;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Interval,
    Ladder,
}

pub fn interval_config(trials: u64, seed: u64) -> McConfig {
    McConfig {
        threads: THREADS,
        ..McConfig::paper_default(Scheme::Z, trials, seed)
    }
}

/// SuDoku-Z arena of an interval campaign (what `McConfig` builds).
pub fn interval_cache_config(cfg: &McConfig) -> SudokuConfig {
    SudokuConfig {
        geometry: CacheGeometry::with_lines(cfg.lines),
        scheme: cfg.scheme,
        group_lines: cfg.group,
        max_sdr_mismatches: 6,
        sdr_pair_trials: false,
        defer_hash2: false,
        scrub: cfg.scrub,
    }
}

pub fn ladder_scenario() -> GroupScenario {
    GroupScenario {
        scheme: Scheme::Z,
        group: 512,
        fault_counts: vec![2, 2, 2, 2],
        pair_sdr: false,
    }
}

/// SuDoku-Z arena of the ladder scenario: group² lines, so Hash-2 groups
/// are disjoint from Hash-1 groups.
pub fn ladder_cache_config(s: &GroupScenario) -> SudokuConfig {
    SudokuConfig {
        geometry: CacheGeometry::with_lines(s.group as u64 * s.group as u64),
        scheme: s.scheme,
        group_lines: s.group,
        max_sdr_mismatches: 6,
        sdr_pair_trials: s.pair_sdr,
        defer_hash2: false,
        scrub: ScrubSchedule::paper_default(),
    }
}

/// The reference summaries, as measured with `REF_SEED`.
fn reference_interval() -> CampaignSummary {
    CampaignSummary {
        trials: REF_INTERVAL_TRIALS,
        due_intervals: 0,
        sdc_intervals: 0,
        faulty_bits: 787_864,
        multibit_lines: 1_123,
        raid4_repairs: 1_123,
        sdr_repairs: 0,
        hash2_repairs: 0,
    }
}

fn reference_ladder() -> GroupCampaignSummary {
    GroupCampaignSummary {
        trials: REF_LADDER_TRIALS,
        repaired: REF_LADDER_TRIALS,
        due: 0,
        sdc: 0,
    }
}

/// Arena builds per set-up sample: one build takes microseconds, below
/// what a single clock reading resolves steadily.
const BUILDS_PER_SAMPLE: u32 = 64;

/// Builds what the campaign's two workers build before their first trial
/// (a sparse cache each; interval workers also seed a fault injector).
/// Each of `SETUP_REPS` samples is the mean of `BUILDS_PER_SAMPLE` builds.
/// Returns the median sample in seconds.
fn setup(kind: Kind) -> f64 {
    let interval = interval_config(1, 0);
    let cfg = match kind {
        Kind::Interval => interval_cache_config(&interval),
        Kind::Ladder => ladder_cache_config(&ladder_scenario()),
    };
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BUILDS_PER_SAMPLE {
                for _ in 0..THREADS {
                    let cache: SudokuCache<SparseStore> =
                        SudokuCache::new_sparse(cfg).expect("valid campaign configuration");
                    let injector = (kind == Kind::Interval)
                        .then(|| FaultInjector::new(interval.ber, interval.seed));
                    std::hint::black_box((cache, injector));
                }
            }
            t.elapsed().as_secs_f64() / BUILDS_PER_SAMPLE as f64
        })
        .collect();
    median(&times)
}

/// Runs one batch; returns (trials, failed trials, sdc trials).
fn batch(kind: Kind, trials: u64, seed: u64) -> (u64, u64, u64) {
    match kind {
        Kind::Interval => {
            let (s, _) = run_interval_campaign_timed(&interval_config(trials, seed));
            (
                s.trials,
                s.due_intervals.max(s.sdc_intervals),
                s.sdc_intervals,
            )
        }
        Kind::Ladder => {
            let (s, _) = run_group_campaign_timed(&ladder_scenario(), trials, seed, THREADS);
            (s.trials, s.trials - s.repaired, s.sdc)
        }
    }
}

/// Checks the reference campaign of `kind` against its recorded summary.
fn check_reference(kind: Kind, report: &mut Report) {
    match kind {
        Kind::Interval => {
            let (got, _) =
                run_interval_campaign_timed(&interval_config(REF_INTERVAL_TRIALS, REF_SEED));
            if got != reference_interval() {
                report.error(format!(
                    "interval reference campaign changed: {got:?} != {:?}",
                    reference_interval()
                ));
            }
        }
        Kind::Ladder => {
            let (got, _) =
                run_group_campaign_timed(&ladder_scenario(), REF_LADDER_TRIALS, REF_SEED, THREADS);
            if got != reference_ladder() {
                report.error(format!(
                    "ladder reference campaign changed: {got:?} != {:?}",
                    reference_ladder()
                ));
            }
        }
    }
}

pub fn end_to_end(kind: Kind, seed: u64, length: Duration) -> Report {
    let mut report = Report::default();
    report.put("setup_s", setup(kind), "s");
    let size = match kind {
        Kind::Interval => INTERVAL_BATCH,
        Kind::Ladder => LADDER_BATCH,
    };
    // Batch k covers trial seeds base + k·size .. base + (k+1)·size.
    let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rates = Vec::new();
    let mut per_trial = LatencyRecorder::default();
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() < length {
        let t = Instant::now();
        let (trials, failed, sdc) = batch(kind, size, base.wrapping_add(k * size));
        let dt = t.elapsed();
        rates.push(trials as f64 / dt.as_secs_f64());
        per_trial.record((dt.as_nanos() / trials.max(1) as u128) as u64);
        report.attempted += trials;
        report.failed += failed;
        if sdc > 0 {
            report.error(format!("{sdc} trials ended with silent corruption"));
        }
        k += 1;
    }
    report.put("p50_us", per_trial.quantile(0.50) as f64 / 1e3, "us");
    report.put("tail_us", per_trial.quantile(0.90) as f64 / 1e3, "us");
    report.raw("trials_per_s", median(&rates));
    report.raw(
        "mean_trials_per_s",
        report.attempted as f64 / start.elapsed().as_secs_f64(),
    );
    report.raw("batches", k as f64);
    report.raw("per_trial_p99_us", per_trial.quantile(0.99) as f64 / 1e3);
    check_reference(kind, &mut report);
    report.put("peak_rss_mb", procstat::peak_rss_mb(), "MiB");
    report
}
