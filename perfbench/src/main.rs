//! The repository benchmark. One command runs one named workload for a
//! fixed time, checks its outputs, and prints its metrics as the last
//! line of standard output:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload svc-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off;
//! `--trace 1` runs the same workload with the benchmark's spans on and
//! prints the per-layer ledger. `perfbench/README.md` says why each
//! workload exists and which end-to-end metric each layer metric moves.

mod hist;
mod ledger;
mod mc;
mod openloop;
mod ops;
mod procstat;
mod svc;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::time::Duration;

pub const WORKLOADS: [&str; 3] = ["svc-mixed", "mc-interval", "mc-ladder"];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = num("--seconds")?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be in 1..=120".to_string());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// What one run measured and whether its outputs were right.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any entry makes the run incorrect.
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Raw values kept for the run stamp, not printed as metrics.
    pub raw: Vec<(String, f64)>,
    /// Span ledgers of the traced run, written out at exit.
    pub tracers: Vec<trace::Tracer>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    pub fn raw(&mut self, name: &str, value: f64) {
        self.raw.push((name.to_string(), value));
    }

    pub fn spans(&mut self, tracer: trace::Tracer) {
        self.tracers.push(tracer);
    }

    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Folds a probe's failures, errors and spans into this report, and
    /// those of its metrics this report does not have yet.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        for (name, value, unit) in other.metrics {
            if !self.has(&name) {
                self.put(&name, value, unit);
            }
        }
        self.raw.extend(other.raw);
        self.tracers.extend(other.tracers);
    }

    fn result_json(&self) -> String {
        let mut metrics = String::new();
        let mut correct = self.errors.is_empty() && self.attempted > 0;
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                *value
            } else {
                correct = false;
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            );
        }
        format!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Median of a sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Where run artefacts (stamps, span files) go: the build directory the
/// benchmark was built into, which lies inside the checkout.
pub fn out_dir() -> std::path::PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    std::path::Path::new(&base).join("perfbench-runs")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let report = if args.trace {
        ledger::run(&args.workload, args.seed, seconds)
    } else {
        match args.workload.as_str() {
            "svc-mixed" => svc::end_to_end(args.seed, seconds),
            "mc-interval" => mc::end_to_end(mc::Kind::Interval, args.seed, seconds),
            _ => mc::end_to_end(mc::Kind::Ladder, args.seed, seconds),
        }
    };

    let stamp = procstat::stamp_json(&args.workload, args.seed, args.seconds, args.trace);
    let mut raw = String::new();
    for (i, (name, value)) in report.raw.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(raw, r#"{sep}"{name}":{value}"#);
    }
    let errors: Vec<String> = report.errors.iter().map(|e| format!("{e:?}")).collect();
    let result = report.result_json();
    let record = format!(
        r#"{{"stamp":{stamp},"raw":{{{raw}}},"errors":[{}],"result":{result}}}"#,
        errors.join(",")
    );
    let dir = out_dir();
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&file, format!("{record}\n")))
        .is_err()
    {
        eprintln!("perfbench: could not write {}", file.display());
    }
    for e in &report.errors {
        eprintln!("perfbench: INCORRECT: {e}");
    }
    println!("{record}");
    println!("{result}");
}
