//! Process counters from `/proc` and the machine/run stamp.

use std::process::Command;

/// Clock ticks per second of `/proc/self/stat` CPU times (USER_HZ, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// Context switches (voluntary + involuntary) summed over this process's
/// live threads.
pub fn ctx_switches() -> u64 {
    let mut total = 0;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    for task in tasks.flatten() {
        let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
        for line in status.lines() {
            if line.starts_with("voluntary_ctxt_switches")
                || line.starts_with("nonvoluntary_ctxt_switches")
            {
                total += line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    total
}

/// Peak resident set size (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU and context-switch counts over one measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    cpu_s: f64,
    switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        Usage {
            cpu_s: cpu_seconds(),
            switches: ctx_switches(),
        }
    }

    /// CPU seconds and context switches since `self`. Context switches
    /// are summed over live threads, so call this before the threads that
    /// did the work exit.
    pub fn delta(&self) -> (f64, u64) {
        let now = Usage::now();
        (
            now.cpu_s - self.cpu_s,
            now.switches.saturating_sub(self.switches),
        )
    }
}

/// (CPU µs per op, context switches per 1000 ops) from a `Usage::delta`.
pub fn per_op((cpu_s, switches): (f64, u64), ops: u64) -> (f64, f64) {
    let ops = ops.max(1) as f64;
    (cpu_s * 1e6 / ops, switches as f64 * 1e3 / ops)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The machine and run stamp: enough to trace any number back to a
/// machine, a toolchain, a source revision and a seed.
pub fn stamp_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
    format!(
        r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"nproc":{},"cpu_model":"{}","rustc":"{}","git_rev":"{}"}}"#,
        json_escape(workload),
        seed,
        seconds,
        trace as u8,
        nproc,
        json_escape(&cpu),
        json_escape(&command_line("rustc", &["-V"])),
        json_escape(&command_line("git", &["rev-parse", "HEAD"])),
    )
}
