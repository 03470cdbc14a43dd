//! Escalation-chain forensics: replays a recovery-event log (JSONL, as
//! written by any campaign bin's `--events` flag) and prints the per-line
//! escalation chains plus the aggregate breakdown — which ladder each
//! repaired line actually climbed.
//!
//! ```text
//! # replay a previously captured log
//! cargo run --release -p sudoku-bench --bin forensics -- --input events.jsonl
//!
//! # demo mode: run a seeded high-BER SuDoku-Z campaign and analyse it
//! cargo run --release -p sudoku-bench --bin forensics
//! cargo run --release -p sudoku-bench --bin forensics -- --events demo.jsonl
//!
//! # render a heatmap snapshot (curl http://.../heatmap.json, or the
//! # "heatmap" bundle inside a service report) next to the chains
//! cargo run --release -p sudoku-bench --bin forensics -- \
//!     --input events.jsonl --heatmap heatmap.json
//! ```
//!
//! `--heatmap <path>` loads a spatial heatmap snapshot (the JSON served
//! by the exporter's `/heatmap.json`) and renders the observed-repair
//! grid as ASCII art with the hottest cell and the detector's last
//! correlation verdict — *where* the failures landed, alongside the
//! chains' *how they were repaired*.

use sudoku_bench::{header, json_f64_field, json_u64_array_field, Args, Flags};
use sudoku_core::Scheme;
use sudoku_fault::ScrubSchedule;
use sudoku_obs::forensics::{breakdown, chains, Chain};
use sudoku_obs::RecoveryEvent;
use sudoku_reliability::montecarlo::{run_interval_campaign_observed, McConfig, Observe};

/// Loads a heatmap snapshot (the `/heatmap.json` document) and renders
/// the observed-repair grid, the hottest cell, and — when the snapshot
/// carries one — the correlation verdict.
fn render_heatmap_snapshot(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read heatmap snapshot {path}: {e}"));
    let n_shards = json_f64_field(&text, "n_shards").map(|v| v as usize);
    let n_regions = json_f64_field(&text, "n_regions").map(|v| v as usize);
    let observed = json_u64_array_field(&text, "observed");
    let (Some(n_shards), Some(n_regions), Some(observed)) = (n_shards, n_regions, observed) else {
        eprintln!("warning: {path} is not a heatmap snapshot (missing geometry or observed grid)");
        return;
    };
    let total: u64 = observed.iter().sum();
    println!("\nspatial heatmap ({path}): {n_shards} shards x {n_regions} regions, {total} observed repairs");
    if let Some((hot, &max)) = observed
        .iter()
        .enumerate()
        .max_by_key(|&(_, &v)| v)
        .filter(|&(_, &v)| v > 0)
    {
        println!(
            "hottest cell: shard {}, region {} — {max} repairs",
            hot / n_regions.max(1),
            hot % n_regions.max(1)
        );
    }
    print!(
        "{}",
        sudoku_obs::render_grid(n_shards, n_regions, &observed)
    );
    if text.contains("\"correlation\":{") {
        let z = json_f64_field(&text, "z").unwrap_or(0.0);
        let dispersion = json_f64_field(&text, "dispersion").unwrap_or(0.0);
        let skew = json_f64_field(&text, "skew").unwrap_or(0.0);
        println!(
            "correlation verdict: z = {z:.1}, dispersion = {dispersion:.1}, skew = {skew:.1}, \
             fired = {}",
            text.contains("\"fired\":true")
        );
    }
}

fn load_events(path: &str) -> Vec<RecoveryEvent> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read event log {path}: {e}"));
    let mut events = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match RecoveryEvent::from_jsonl(line) {
            Some(e) => events.push(e),
            None => eprintln!("warning: {path}:{} is not a recovery event, skipped", n + 1),
        }
    }
    events
}

/// Demo campaign: small SuDoku-Z cache at an elevated BER — high enough
/// that SDR resurrections, Hash-2 cross-resolutions, and the odd DUE all
/// appear within a few hundred intervals.
fn demo_events(args: &Args) -> Vec<RecoveryEvent> {
    let cfg = McConfig {
        scheme: Scheme::Z,
        lines: 1 << 12,
        group: 64,
        ber: 2e-4,
        trials: args.trials,
        seed: args.seed,
        threads: args.threads,
        scrub: ScrubSchedule::paper_default(),
    };
    println!(
        "demo campaign: SuDoku-Z, {} lines, group {}, BER {:.0e}, {} intervals, seed {}",
        cfg.lines, cfg.group, cfg.ber, cfg.trials, cfg.seed
    );
    let (summary, _, telemetry) = run_interval_campaign_observed(&cfg, Observe::Unbounded);
    println!(
        "campaign: raid4 {}, sdr {}, hash2 {}, due intervals {}\n",
        summary.raid4_repairs, summary.sdr_repairs, summary.hash2_repairs, summary.due_intervals
    );
    args.write_telemetry(None, &telemetry);
    telemetry.events
}

fn print_exemplar(title: &str, chain: Option<&&Chain>) {
    match chain {
        Some(c) => println!(
            "{title}:\n  interval {:>4}, line {:>6}: {}",
            c.interval,
            c.line,
            c.signature()
        ),
        None => println!("{title}: none in this log"),
    }
}

fn main() {
    let args = Args::parse(200, 0);
    header("Recovery forensics — escalation chains from the event log");
    let flags = Flags::from_env();
    let heatmap = flags.str("--heatmap");
    let events = match flags.str("--input") {
        Some(path) => {
            let events = load_events(path);
            println!("loaded {} recovery events from {path}\n", events.len());
            events
        }
        // A bare `--heatmap` asks for the spatial rendering alone — don't
        // spin up a demo campaign just to decorate it.
        None if heatmap.is_some() => Vec::new(),
        None => demo_events(&args),
    };
    if events.is_empty() {
        if heatmap.is_none() {
            println!("event log is empty — nothing to analyse.");
        }
        if let Some(path) = &heatmap {
            render_heatmap_snapshot(path);
        }
        return;
    }

    let chains = chains(&events);
    let report = breakdown(&chains);
    println!("{}", report.render());

    // The acceptance exemplars: the full ladder, reconstructed end to end.
    let sdr = chains
        .iter()
        .filter(|c| c.resolved_by_sdr() && c.is_complete())
        .max_by_key(|c| c.sdr_trials());
    print_exemplar("exemplar SDR resurrection (most flip trials)", sdr.as_ref());
    let hash2 = chains
        .iter()
        .filter(|c| c.resolved_via_hash2() && c.is_complete())
        .max_by_key(|c| c.events.len());
    print_exemplar("exemplar Hash-2 cross-resolution", hash2.as_ref());
    let due = chains
        .iter()
        .filter(|c| c.is_due())
        .max_by_key(|c| c.events.len());
    print_exemplar("exemplar DUE (ladder exhausted)", due.as_ref());

    if let Some(path) = &heatmap {
        render_heatmap_snapshot(path);
    }
}
