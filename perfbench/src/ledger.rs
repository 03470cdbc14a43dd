//! The traced run (`--trace 1`): the per-layer ledger.
//!
//! Every workload reports the same per-layer metrics. The workload's own
//! traced phase comes first; layer probes then fill in whatever it did not
//! measure, on inputs derived from the workload and the seed:
//!
//! * a campaign replay — `run_interval_in` (or `run_group_trial_in` on
//!   `mc-ladder`) re-done step by step through public calls, each step in
//!   a span, and checked bit-identical against the real call on a second
//!   arena (`fault`, `core`, `reliability`);
//! * `LineCodec` kernels over seeded lines (`codes`);
//! * a single-threaded `SudokuCache` replay of the `svc-mixed` op stream
//!   (`core.read_ns`, `core.write_ns`);
//! * a short `svc-mixed` traced phase on the campaign workloads, which
//!   have no service of their own (`svc`, `obs`);
//! * the wire probe on every workload (`net`).

use crate::mc;
use crate::ops::{self, Golden, Op, OpStream};
use crate::trace::Tracer;
use crate::{out_dir, svc, wire, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use sudoku_codes::{LineCodec, LineData, TOTAL_BITS};
use sudoku_core::{CacheStats, Scheme, SparseStore, SudokuCache};
use sudoku_fault::{choose_distinct, FaultInjector, ScrubSchedule};
use sudoku_reliability::montecarlo::{
    run_group_trial_in, run_interval_in, GroupScenario, IntervalOutcome, McConfig,
};

pub fn run(workload: &str, seed: u64, length: Duration) -> Report {
    let mut report = match workload {
        "svc-mixed" => {
            let mut report = svc::ledger(seed, length.mul_f64(0.5));
            report.absorb(replay(demand_campaign(), seed, length.mul_f64(0.2)));
            report
        }
        "mc-interval" => replay(
            Campaign::Interval(mc::interval_config(1, 0)),
            seed,
            length.mul_f64(0.5),
        ),
        _ => replay(
            Campaign::Ladder(mc::ladder_scenario()),
            seed,
            length.mul_f64(0.5),
        ),
    };
    report.absorb(codes(seed, length.mul_f64(0.05)));
    report.absorb(core_ops(seed, length.mul_f64(0.1)));
    if workload != "svc-mixed" {
        report.absorb(svc::ledger(seed, length.mul_f64(0.2)));
    }
    report.absorb(wire::ledger(seed, length.mul_f64(0.2)));
    let mut spans = String::new();
    let mut all = Tracer::new(Instant::now());
    for tr in std::mem::take(&mut report.tracers) {
        spans.push_str(&tr.to_jsonl());
        all.absorb(tr);
    }
    for (layer, ns) in all.layer_self_ns() {
        report.raw(&format!("self_ms.{layer}"), ns as f64 / 1e6);
    }
    let dir = out_dir();
    let file = dir.join(format!("{workload}-seed{seed}-spans.jsonl"));
    if std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&file, spans))
        .is_err()
    {
        eprintln!("perfbench: could not write {}", file.display());
    }
    report
}

/// The campaign a replay re-does.
enum Campaign {
    Interval(McConfig),
    Ladder(GroupScenario),
}

/// `svc-mixed`'s 16 Ki-line arena at the daemon's BER, one interval per
/// trial.
fn demand_campaign() -> Campaign {
    Campaign::Interval(McConfig {
        scheme: Scheme::Z,
        lines: ops::LINES,
        group: ops::GROUP,
        ber: ops::BER,
        trials: 1,
        seed: 0,
        threads: 1,
        scrub: ScrubSchedule::paper_default(),
    })
}

fn count_sdc(cache: &SudokuCache<SparseStore>, unresolved: &[u64]) -> u32 {
    cache
        .store()
        .iter_touched()
        .filter(|(idx, line)| !line.is_zero() && !unresolved.contains(idx))
        .count() as u32
}

fn add_stats(total: &mut CacheStats, before: &CacheStats, after: &CacheStats) {
    total.ecc1_repairs += after.ecc1_repairs - before.ecc1_repairs;
    total.raid4_repairs += after.raid4_repairs - before.raid4_repairs;
    total.sdr_trials += after.sdr_trials - before.sdr_trials;
    total.sdr_repairs += after.sdr_repairs - before.sdr_repairs;
    total.hash2_repairs += after.hash2_repairs - before.hash2_repairs;
    total.crc_checks += after.crc_checks - before.crc_checks;
    total.group_scans += after.group_scans - before.group_scans;
}

/// Re-does campaign trials step by step, each step in a span, and checks
/// every outcome against the real trial call on a second arena. The
/// stepped trial's time over the real call's is the tracing overhead.
fn replay(campaign: Campaign, seed: u64, length: Duration) -> Report {
    let mut report = Report::default();
    let cache_cfg = match &campaign {
        Campaign::Interval(cfg) => mc::interval_cache_config(cfg),
        Campaign::Ladder(s) => mc::ladder_cache_config(s),
    };
    let new_arena = || SudokuCache::new_sparse(cache_cfg).expect("valid campaign configuration");
    let (mut cache, mut oracle) = (new_arena(), new_arena());
    let ber = match &campaign {
        Campaign::Interval(cfg) => cfg.ber,
        Campaign::Ladder(_) => 0.0,
    };
    let mut injector = FaultInjector::new(ber, seed);
    let mut oracle_injector = FaultInjector::new(ber, seed);
    let mut tr = Tracer::new(Instant::now());
    let mut counts = CacheStats::default();
    let mut faulty_lines = 0u64;
    let base = seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let start = Instant::now();
    let mut trials = 0u64;
    while trials == 0 || start.elapsed() < length {
        let ts = base.wrapping_add(trials);
        let before = *cache.stats();
        // Victim lines with their fault counts, then bit positions: the
        // same RNG draws, in the same order, as the real trial.
        let (victims, positions): (Vec<(u64, u32)>, Vec<Vec<u64>>) = match &campaign {
            Campaign::Interval(cfg) => {
                let plan = tr.span("fault.plan", ts, |_| {
                    injector.reseed(ts);
                    injector.cache_plan(cfg.lines)
                });
                let positions = tr.span("fault.inject", ts, |_| {
                    plan.iter()
                        .map(|lf| {
                            choose_distinct(injector.rng(), TOTAL_BITS as u64, lf.faults as u64)
                        })
                        .collect()
                });
                (
                    plan.iter().map(|lf| (lf.line, lf.faults)).collect(),
                    positions,
                )
            }
            Campaign::Ladder(s) => {
                let mut rng = StdRng::seed_from_u64(ts);
                let victims: Vec<(u64, u32)> = tr.span("fault.plan", ts, |_| {
                    let n_groups = s.group as u64;
                    let group = rng.gen_range(0..n_groups);
                    choose_distinct(&mut rng, s.group as u64, s.fault_counts.len() as u64)
                        .into_iter()
                        .zip(&s.fault_counts)
                        .map(|(off, &k)| (group * s.group as u64 + off, k))
                        .collect()
                });
                let positions = tr.span("fault.inject", ts, |_| {
                    victims
                        .iter()
                        .map(|&(_, k)| choose_distinct(&mut rng, TOTAL_BITS as u64, k as u64))
                        .collect()
                });
                (victims, positions)
            }
        };
        tr.span("core.inject", ts, |_| {
            for (&(line, _), bits) in victims.iter().zip(&positions) {
                for &bit in bits {
                    cache.inject_fault(line, bit as usize);
                }
            }
        });
        let hints: Vec<u64> = victims.iter().map(|&(line, _)| line).collect();
        let scrub = tr.span("core.scrub_lines", ts, |_| cache.scrub_lines(&hints));
        let outcome = tr.span("reliability.sdc_scan", ts, |_| IntervalOutcome {
            faulty_lines: victims.len() as u32,
            faulty_bits: victims.iter().map(|&(_, k)| k).sum(),
            multibit_lines: scrub.multibit_lines as u32,
            raid4_repairs: scrub.raid4_repairs as u32,
            sdr_repairs: scrub.sdr_repairs as u32,
            hash2_repairs: scrub.hash2_repairs as u32,
            due_lines: scrub.unresolved.len() as u32,
            sdc_lines: count_sdc(&cache, &scrub.unresolved),
        });
        add_stats(&mut counts, &before, cache.stats());
        tr.span("core.reset", ts, |_| cache.reset_to_golden_zero());
        let want = tr.span("reliability.trial", ts, |_| match &campaign {
            Campaign::Interval(cfg) => run_interval_in(&mut oracle, &mut oracle_injector, cfg, ts),
            Campaign::Ladder(s) => run_group_trial_in(&mut oracle, s, ts),
        });
        oracle.reset_to_golden_zero();
        if outcome != want {
            report.error(format!(
                "stepped trial {ts} differs from the real trial: {outcome:?} != {want:?}"
            ));
            break;
        }
        faulty_lines += victims.len() as u64;
        trials += 1;
    }
    let n = trials as f64;
    let per_trial_us = |name: &str| tr.total(name).self_ns as f64 / n / 1e3;
    report.put("fault.plan_us_per_trial", per_trial_us("fault.plan"), "us");
    report.put(
        "fault.inject_us_per_trial",
        per_trial_us("fault.inject"),
        "us",
    );
    report.put(
        "fault.faulty_lines_per_trial",
        faulty_lines as f64 / n,
        "count",
    );
    report.put(
        "core.inject_us_per_trial",
        per_trial_us("core.inject"),
        "us",
    );
    report.put(
        "core.scrub_lines_us_per_trial",
        per_trial_us("core.scrub_lines"),
        "us",
    );
    report.put("core.reset_us_per_trial", per_trial_us("core.reset"), "us");
    report.put("core.ecc1_repairs", counts.ecc1_repairs as f64 / n, "count");
    report.put(
        "core.raid4_repairs",
        counts.raid4_repairs as f64 / n,
        "count",
    );
    report.put("core.sdr_trials", counts.sdr_trials as f64 / n, "count");
    report.put("core.sdr_repairs", counts.sdr_repairs as f64 / n, "count");
    report.put(
        "core.hash2_repairs",
        counts.hash2_repairs as f64 / n,
        "count",
    );
    report.put("core.crc_checks", counts.crc_checks as f64 / n, "count");
    report.put("core.group_scans", counts.group_scans as f64 / n, "count");
    report.put(
        "core.sdr_useful_frac",
        counts.sdr_repairs as f64 / counts.sdr_trials.max(1) as f64,
        "ratio",
    );
    report.put(
        "reliability.trial_us",
        per_trial_us("reliability.trial"),
        "us",
    );
    report.put(
        "reliability.sdc_scan_us_per_trial",
        per_trial_us("reliability.sdc_scan"),
        "us",
    );
    let stepped: f64 = [
        "fault.plan",
        "fault.inject",
        "core.inject",
        "core.scrub_lines",
        "reliability.sdc_scan",
    ]
    .iter()
    .map(|name| per_trial_us(name))
    .sum();
    report.put(
        "bench.trace_overhead_pct",
        (stepped / per_trial_us("reliability.trial") - 1.0) * 100.0,
        "%",
    );
    report.raw("replay_trials", n);
    report.spans(tr);
    report
}

/// Seeded line payloads for the kernel probes.
fn seeded_lines(seed: u64, n: usize) -> Vec<LineData> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            let mut words = [0u64; sudoku_codes::LINE_WORDS];
            for w in &mut words {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *w = state;
            }
            LineData::from_words(words)
        })
        .collect()
}

/// `LineCodec` kernels: encode, the CRC-31 read check, and the scrub
/// check over lines of which one in eight carries a single-bit fault.
fn codes(seed: u64, length: Duration) -> Report {
    const N: usize = 4096;
    let mut report = Report::default();
    let codec = LineCodec::shared();
    let data = seeded_lines(seed, N);
    let mut tr = Tracer::new(Instant::now());
    let mut encoded = Vec::with_capacity(N);
    let mut passes = 0u64;
    let mut clean = 0u64;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < length {
        encoded.clear();
        tr.span("codes.encode", passes, |_| {
            encoded.extend(data.iter().map(|d| codec.encode(d)));
        });
        clean += tr.span("codes.crc31", passes, |_| {
            encoded.iter().filter(|l| codec.crc_ok(l)).count() as u64
        });
        for (i, line) in encoded.iter_mut().enumerate().step_by(8) {
            line.flip_bit(i % TOTAL_BITS);
        }
        tr.span("codes.scrub_check", passes, |_| {
            for l in &encoded {
                std::hint::black_box(codec.scrub_check(l));
            }
        });
        passes += 1;
    }
    if clean != passes * N as u64 {
        report.error("a freshly encoded line failed its CRC-31 check".into());
    }
    let per_line = |name: &str| tr.total(name).self_ns as f64 / (passes * N as u64) as f64;
    report.put("codes.encode_ns", per_line("codes.encode"), "ns");
    report.put("codes.crc31_ns", per_line("codes.crc31"), "ns");
    report.put("codes.scrub_check_ns", per_line("codes.scrub_check"), "ns");
    report.attempted += passes * N as u64;
    report.spans(tr);
    report
}

/// A single-threaded `SudokuCache` replay of the `svc-mixed` op stream
/// (both clients' streams interleaved), every read checked against the
/// golden copy: the floor under the service's per-op latency.
fn core_ops(seed: u64, length: Duration) -> Report {
    let mut report = Report::default();
    let mut cache = SudokuCache::new(ops::cache_config()).expect("valid cache configuration");
    let clients = svc::CLIENTS;
    let mut streams: Vec<OpStream> = (0..clients)
        .map(|c| OpStream::new(seed, c, clients))
        .collect();
    let mut goldens: Vec<Golden> = (0..clients).map(|_| Golden::new(clients)).collect();
    let mut tr = Tracer::new(Instant::now());
    let start = Instant::now();
    let mut n = 0u64;
    while n == 0 || !n.is_multiple_of(1024) || start.elapsed() < length {
        let c = (n % clients) as usize;
        match streams[c].next_op() {
            Op::Read(line) => match tr.span("core.read", n, |_| cache.read(line)) {
                Ok(data) if !goldens[c].is_sdc(line, &data) => {}
                Ok(_) => report.error(format!("core replay read a corrupt line {line}")),
                Err(_) => report.failed += 1,
            },
            Op::Write(line, data) => {
                tr.span("core.write", n, |_| cache.write(line, &data));
                goldens[c].wrote(line, data, true);
            }
        }
        n += 1;
    }
    report.attempted += n;
    report.put("core.read_ns", tr.mean_self_ns("core.read"), "ns");
    report.put("core.write_ns", tr.mean_self_ns("core.write"), "ns");
    report.spans(tr);
    report
}
