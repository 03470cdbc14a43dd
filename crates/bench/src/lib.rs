//! # sudoku-bench
//!
//! Experiment harness for the SuDoku reproduction: one binary per table and
//! figure of the paper (run `cargo run -p sudoku-bench --bin repro` for all
//! of them), plus Criterion benches for the codec and correction paths.
//!
//! Every binary prints the paper's reported value next to the reproduced
//! one, and accepts `--seed N`, `--trials N`, `--threads N`,
//! `--accesses N` where applicable.

#![warn(missing_docs)]

use sudoku_reliability::montecarlo::{CampaignTelemetry, Observe, ThroughputReport};

/// Formats a value in 3-significant-digit scientific notation, the way the
/// paper's tables print probabilities and FIT rates.
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    if x.is_infinite() {
        return "inf".to_string();
    }
    if (0.01..10_000.0).contains(&x.abs()) {
        format!("{x:.3}")
    } else {
        format!("{x:.2e}")
    }
}

/// Prints a boxed section header.
pub fn header(title: &str) {
    let bar = "=".repeat(title.len() + 4);
    println!("\n{bar}\n| {title} |\n{bar}");
}

/// Prints the share of served demand ops that waited for a held shard
/// mutex (the rest found it free or were served lock-free), and the most
/// clients any waiter saw blocked on one shard, itself included.
pub fn print_shard_waits(registry: &sudoku_svc::TelemetryRegistry) {
    let (waited, ops) = registry.waited_ops();
    println!(
        "shard waits: {waited} of {ops} demand ops waited on a held shard mutex \
         ({:.4} %), at most {} at once",
        100.0 * waited as f64 / ops.max(1) as f64,
        registry.queue_depth_hist.snapshot().max()
    );
}

/// A binary's command line, read as `--flag value` pairs: the one flag
/// reader every bin uses. A value that does not parse is an error naming
/// the flag, never a silent default.
#[derive(Clone, Debug)]
pub struct Flags(Vec<String>);

impl Flags {
    /// The process's own arguments.
    pub fn from_env() -> Flags {
        Flags(std::env::args().collect())
    }

    /// The raw value after `--name`, when the flag is present.
    pub fn str(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    /// `name`'s value through `parse`, `None` when the flag is absent.
    /// A value `parse` refuses prints an error naming the flag and exits
    /// the process with status 2.
    pub fn parse_with<T, E: std::fmt::Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Option<T> {
        self.try_parse_with(name, parse).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2)
        })
    }

    /// [`Flags::parse_with`] for a [`FromStr`](std::str::FromStr) value.
    pub fn opt<T: std::str::FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: std::fmt::Display,
    {
        self.parse_with(name, str::parse)
    }

    /// [`Flags::opt`], or `default` when the flag is absent.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.opt(name).unwrap_or(default)
    }

    fn try_parse_with<T, E: std::fmt::Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        self.str(name)
            .map(|v| parse(v).map_err(|e| format!("{name} {v:?}: {e}")))
            .transpose()
    }
}

/// The common experiment flags.
#[derive(Clone, Debug)]
pub struct Args {
    /// RNG seed (`--seed`, default 42).
    pub seed: u64,
    /// Monte-Carlo trials (`--trials`).
    pub trials: u64,
    /// Worker threads (`--threads`, 0 = all cores).
    pub threads: usize,
    /// Simulated LLC accesses per core (`--accesses`).
    pub accesses: u64,
    /// Recovery-event JSONL output path (`--events <path>`).
    pub events: Option<String>,
    /// Telemetry metrics JSON output path (`--metrics-json <path>`).
    pub metrics_json: Option<String>,
}

impl Args {
    /// Parses the process arguments with the given defaults.
    pub fn parse(default_trials: u64, default_accesses: u64) -> Args {
        let flags = Flags::from_env();
        Args {
            seed: flags.get("--seed", 42),
            trials: flags.get("--trials", default_trials),
            threads: flags.get("--threads", 0),
            accesses: flags.get("--accesses", default_accesses),
            events: flags.str("--events").map(String::from),
            metrics_json: flags.str("--metrics-json").map(String::from),
        }
    }

    /// Telemetry depth implied by the flags: campaigns record events only
    /// when an output path asked for them.
    pub fn observe(&self) -> Observe {
        if self.events.is_some() || self.metrics_json.is_some() {
            Observe::Unbounded
        } else {
            Observe::Off
        }
    }

    /// Writes one campaign's telemetry sidecar files: the event log as
    /// JSONL to `--events` and the histogram/phase metrics to
    /// `--metrics-json`. With `Some(label)`, the label is spliced into the
    /// file stem so multi-campaign bins keep their outputs apart.
    pub fn write_telemetry(&self, label: Option<&str>, telemetry: &CampaignTelemetry) {
        let dest = |base: &Option<String>| -> Option<String> {
            base.as_ref()
                .map(|p| label.map_or_else(|| p.clone(), |l| labeled_path(p, l)))
        };
        if let Some(path) = dest(&self.events) {
            std::fs::write(&path, telemetry.events_jsonl()).expect("write --events output");
            println!("wrote {} recovery events to {path}", telemetry.events.len());
        }
        if let Some(path) = dest(&self.metrics_json) {
            std::fs::write(&path, telemetry.to_json()).expect("write --metrics-json output");
            println!("wrote telemetry metrics to {path}");
        }
    }
}

/// Whether a bare `--flag` (no value) is present on the command line.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Splices a label into a path's file stem: `out.jsonl` + `mttf_x` →
/// `out.mttf_x.jsonl` (appended when the path has no extension).
pub fn labeled_path(path: &str, label: &str) -> String {
    match path.rfind('.').filter(|&i| !path[i..].contains('/')) {
        Some(i) => format!("{}.{label}{}", &path[..i], &path[i..]),
        None => format!("{path}.{label}"),
    }
}

/// Writes `BENCH_<name>.json` with one labeled [`ThroughputReport`] per
/// campaign — the machine-readable shape shared by every multi-campaign
/// bin's `--json` flag.
pub fn write_bench_reports(name: &str, reports: &[(String, ThroughputReport)]) {
    let mut campaigns = String::from("[");
    for (i, (label, report)) in reports.iter().enumerate() {
        if i > 0 {
            campaigns.push(',');
        }
        let mut one = sudoku_obs::json::JsonObject::new();
        one.field_str("label", label)
            .field_raw("campaign", &report.to_json());
        campaigns.push_str(&one.finish());
    }
    campaigns.push(']');
    let mut obj = sudoku_obs::json::JsonObject::new();
    obj.field_str("name", name)
        .field_raw("campaigns", &campaigns);
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, obj.finish() + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// The current short git revision, resolved **at run time** (never baked
/// in at compile time — a stale build must not stamp a stale rev into a
/// fresh `BENCH_*.json`). `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Extracts the first `"key": "value"` string from a JSON text — the
/// string companion of [`json_f64_field`], for fields like `git_rev`.
/// Escapes inside the value are not interpreted (none of the fields this
/// reads contain any).
pub fn json_str_field(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Warns (stderr) when a committed baseline was produced by a different
/// git revision than the one running now — its figures may not be
/// comparable. Returns whether the revisions matched.
pub fn warn_baseline_rev(baseline_json: &str, baseline_name: &str) -> bool {
    let baseline_rev = json_str_field(baseline_json, "git_rev");
    let current = git_rev();
    match baseline_rev {
        Some(rev) if rev == current => true,
        Some(rev) => {
            eprintln!(
                "warning: {baseline_name} was written at git rev {rev} but HEAD is \
                 {current}; baseline figures may not be comparable"
            );
            false
        }
        None => {
            eprintln!("warning: {baseline_name} carries no git_rev stamp");
            false
        }
    }
}

/// Extracts the first `"key": <number>` value from a JSON text. The
/// workspace's serde is a no-op shim, so baseline files are re-read with
/// this narrow scanner instead of a full parser.
pub fn json_f64_field(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the first `"key": [n, n, ...]` flat unsigned-integer array
/// from a JSON text — the array companion of [`json_f64_field`], for
/// heatmap cell grids. Nested arrays are not supported; any non-integer
/// element makes the whole extraction fail.
pub fn json_u64_array_field(text: &str, key: &str) -> Option<Vec<u64>> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    let mut out = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(part.parse().ok()?);
    }
    Some(out)
}

/// Ratio formatted as "N.NNx".
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.0}x", a / b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats_ranges() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(0.092), "0.092");
        assert_eq!(sci(5.3e-6), "5.30e-6");
        assert_eq!(sci(1.69e14), "1.69e14");
        assert_eq!(sci(f64::INFINITY), "inf");
    }

    #[test]
    fn json_u64_array_field_extracts_flat_arrays() {
        let doc = r#"{"n":2,"observed":[1, 2,3],"due":[],"z":4}"#;
        assert_eq!(json_u64_array_field(doc, "observed"), Some(vec![1, 2, 3]));
        assert_eq!(json_u64_array_field(doc, "due"), Some(vec![]));
        assert_eq!(json_u64_array_field(doc, "z"), None);
        assert_eq!(json_u64_array_field(r#"{"a":[1,x]}"#, "a"), None);
    }

    #[test]
    fn args_defaults() {
        let a = Args::parse(100, 1000);
        assert_eq!(a.trials, 100);
        assert_eq!(a.accesses, 1000);
        assert!(a.events.is_none());
        assert!(a.metrics_json.is_none());
        assert!(!a.observe().enabled());
    }

    #[test]
    fn flags_parse_values_and_name_the_flag_they_refuse() {
        let argv = |args: &[&str]| Flags(args.iter().map(|a| a.to_string()).collect());
        let flags = argv(&["bin", "--requests", "2e5", "--ber", "1e-4", "--seed"]);
        assert_eq!(flags.get("--ber", 0.5), 1e-4);
        assert_eq!(flags.get("--shards", 4u64), 4);
        assert_eq!(flags.str("--requests"), Some("2e5"));
        // A flag with no value after it is absent.
        assert_eq!(flags.str("--seed"), None);
        let err = flags
            .try_parse_with("--requests", str::parse::<u64>)
            .unwrap_err();
        assert!(err.starts_with("--requests \"2e5\""), "{err}");
        assert_eq!(
            flags.try_parse_with("--ber", str::parse::<f64>),
            Ok(Some(1e-4))
        );
        let bad = argv(&["bin", "--ber", "x"]);
        let err = bad.try_parse_with("--ber", str::parse::<f64>).unwrap_err();
        assert!(err.contains("--ber") && err.contains("\"x\""), "{err}");
    }

    #[test]
    fn labeled_path_splices_before_extension() {
        assert_eq!(labeled_path("out.jsonl", "mttf_x"), "out.mttf_x.jsonl");
        assert_eq!(labeled_path("a/b.c/out", "z"), "a/b.c/out.z");
        assert_eq!(labeled_path("events", "y"), "events.y");
    }

    #[test]
    fn json_str_field_scans_strings() {
        let text = "{\"name\":\"svc_loadgen\",\"req_per_sec\":12.5,\"git_rev\":\"0ba23e8\"}";
        assert_eq!(json_str_field(text, "git_rev"), Some("0ba23e8".into()));
        assert_eq!(json_str_field(text, "name"), Some("svc_loadgen".into()));
        assert_eq!(json_str_field(text, "req_per_sec"), None);
        assert_eq!(json_str_field(text, "missing"), None);
    }

    #[test]
    fn git_rev_is_runtime_resolved() {
        // In this checkout it is a short hex rev; anywhere else "unknown".
        let rev = git_rev();
        assert!(!rev.is_empty());
    }

    #[test]
    fn json_f64_field_scans_numbers() {
        let text = "{\n  \"name\": \"x\",\n  \"trials_per_sec\": 743.412,\n  \"n\": 3\n}";
        assert_eq!(json_f64_field(text, "trials_per_sec"), Some(743.412));
        assert_eq!(json_f64_field(text, "n"), Some(3.0));
        assert_eq!(json_f64_field(text, "missing"), None);
        assert_eq!(json_f64_field(text, "name"), None);
    }
}
