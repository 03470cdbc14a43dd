//! Structured anomaly alerts: the watchdog's output stream.
//!
//! The live plane ([`crate::Counter`], [`crate::Gauge`], [`crate::AtomicHist`])
//! answers "what is the level right now"; this module answers "when did a
//! level cross a line, and which line". An [`Alert`] is one threshold
//! crossing — scrub deadline missed, tick lag breached, daemon silent,
//! queue pinned at its bound, error budget burning too fast — with enough
//! context (shard, observed value, threshold) to act on without replaying
//! a flight recording.
//!
//! [`AlertLog`] is the shared sink: a bounded ring any thread can raise
//! into and any scraper can read, per-class lock-free counters for cheap
//! `/metrics` exposition, and an optional line-flushed JSONL file so a
//! crash loses nothing (alerts are rare; one `flush` per alert is cheap).

use crate::json::JsonObject;
use crate::live::Counter;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What kind of threshold crossing an alert reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AlertClass {
    /// A line-range packet's achieved scrub interval exceeded the hard
    /// deadline the BER math assumes (the paper's 20 ms guarantee).
    DeadlineMiss,
    /// The scrub daemon's tick started later than the configured lag
    /// budget — scrub cadence is slipping under load.
    TickLagBreach,
    /// A shard's queue sat at its configured bound across consecutive
    /// flight-recorder snapshots — sustained saturation, not a blip.
    QueueSaturation,
    /// The scrub daemon thread died (panicked) — no scrub is running.
    DaemonDead,
    /// The daemon thread is alive but its tick counter stopped advancing —
    /// a stall (stuck lock, livelock), distinct from death.
    DaemonStuck,
    /// A shard was quarantined (worker panic or poisoned lock).
    ShardQuarantined,
    /// The live reliability estimator projects DUE-rate above the
    /// configured error-budget envelope on a sustained window.
    BudgetBurn,
    /// The adaptive scrub controller was pinned at its hard quota floor
    /// (demand pressure asked for less) and the deadline was *still*
    /// missed — the floor itself is insufficient, so the BER math's
    /// contract cannot be honored by backing off any further.
    ScrubFloorBreach,
    /// The spatial-correlation detector rejected the i.i.d. failure
    /// hypothesis: one (shard × region) cell is absorbing far more
    /// failure events than a uniform arrival process explains — the
    /// clustered pattern that defeats parity-group interleaving.
    SpatialCorrelation,
}

impl AlertClass {
    /// Every class with its wire name, in declaration order (so a class's
    /// discriminant is its index here — the fixed exposition order).
    pub const ALL: &'static [(AlertClass, &'static str)] = &[
        (AlertClass::DeadlineMiss, "deadline_miss"),
        (AlertClass::TickLagBreach, "tick_lag_breach"),
        (AlertClass::QueueSaturation, "queue_saturation"),
        (AlertClass::DaemonDead, "daemon_dead"),
        (AlertClass::DaemonStuck, "daemon_stuck"),
        (AlertClass::ShardQuarantined, "shard_quarantined"),
        (AlertClass::BudgetBurn, "budget_burn"),
        (AlertClass::ScrubFloorBreach, "scrub_floor_breach"),
        (AlertClass::SpatialCorrelation, "spatial_correlation"),
    ];

    /// The wire name (snake_case, stable across releases).
    pub fn name(self) -> &'static str {
        Self::ALL[self as usize].1
    }

    /// Parses a wire name back to a class.
    pub fn parse(s: &str) -> Option<AlertClass> {
        Self::ALL.iter().find(|(_, n)| *n == s).map(|&(c, _)| c)
    }
}

impl fmt::Display for AlertClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How urgent an alert is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Degradation that the service survives (slipped deadline, burn rate
    /// trending over budget) — investigate, no page.
    Warning,
    /// A reliability guarantee is void (daemon dead/stuck, sustained
    /// deadline misses) — page.
    Critical,
}

impl Severity {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One threshold crossing.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// Monotone sequence number within the owning [`AlertLog`] (1-based).
    /// Scrapers poll `/alerts.json` and dedupe on this.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch at raise time.
    pub unix_ms: u64,
    /// What crossed.
    pub class: AlertClass,
    /// How urgent.
    pub severity: Severity,
    /// The shard concerned, if the condition is per-shard.
    pub shard: Option<usize>,
    /// The observed value (units depend on `class`: ns of staleness, ns of
    /// tick lag, queue depth, projected FIT …).
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// Human-readable one-liner with the units spelled out.
    pub message: String,
}

impl Alert {
    /// Serializes the alert as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let shard = self
            .shard
            .map_or_else(|| "null".to_string(), |s| s.to_string());
        let mut obj = JsonObject::new();
        obj.field_u64("seq", self.seq)
            .field_u64("unix_ms", self.unix_ms)
            .field_str("class", self.class.name())
            .field_str("severity", self.severity.name())
            .field_raw("shard", &shard)
            .field_f64("value", self.value)
            .field_f64("threshold", self.threshold)
            .field_str("message", &self.message);
        obj.finish()
    }
}

struct LogInner {
    ring: VecDeque<Alert>,
    dropped: u64,
    jsonl: Option<std::io::BufWriter<std::fs::File>>,
}

/// The shared alert stream: bounded ring + per-class counters + optional
/// JSONL file, all behind one short mutex (alerts are rare events; the
/// counters alone are lock-free for `/metrics`).
pub struct AlertLog {
    inner: Mutex<LogInner>,
    capacity: usize,
    next_seq: AtomicU64,
    by_class: Vec<Counter>,
    criticals: Counter,
}

impl fmt::Debug for AlertLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlertLog")
            .field("capacity", &self.capacity)
            .field("total", &self.total())
            .finish()
    }
}

impl AlertLog {
    /// A log retaining the most recent `capacity` alerts in memory.
    pub fn ring(capacity: usize) -> Self {
        AlertLog {
            inner: Mutex::new(LogInner {
                ring: VecDeque::new(),
                dropped: 0,
                jsonl: None,
            }),
            capacity,
            next_seq: AtomicU64::new(0),
            by_class: (0..AlertClass::ALL.len()).map(|_| Counter::new()).collect(),
            criticals: Counter::new(),
        }
    }

    /// A ring that additionally appends every alert to a freshly created
    /// JSONL file, flushed per line (an alert that never hits disk before
    /// a crash is an alert that never happened).
    pub fn with_jsonl(capacity: usize, path: &Path) -> std::io::Result<Self> {
        let log = Self::ring(capacity);
        log.inner.lock().unwrap().jsonl =
            Some(std::io::BufWriter::new(std::fs::File::create(path)?));
        Ok(log)
    }

    /// Raises one alert; returns its sequence number.
    pub fn raise(
        &self,
        class: AlertClass,
        severity: Severity,
        shard: Option<usize>,
        value: f64,
        threshold: f64,
        message: impl Into<String>,
    ) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let alert = Alert {
            seq,
            unix_ms,
            class,
            severity,
            shard,
            value,
            threshold,
            message: message.into(),
        };
        self.by_class[class as usize].inc();
        if severity == Severity::Critical {
            self.criticals.inc();
        }
        let mut inner = self.inner.lock().unwrap();
        if let Some(out) = inner.jsonl.as_mut() {
            let _ = writeln!(out, "{}", alert.to_json());
            let _ = out.flush();
        }
        if self.capacity == 0 {
            inner.dropped += 1;
        } else {
            if inner.ring.len() == self.capacity {
                inner.ring.pop_front();
                inner.dropped += 1;
            }
            inner.ring.push_back(alert);
        }
        seq
    }

    /// Total alerts ever raised (including any evicted from the ring).
    pub fn total(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Alerts raised for one class (lock-free).
    pub fn count(&self, class: AlertClass) -> u64 {
        self.by_class[class as usize].get()
    }

    /// Critical-severity alerts raised (lock-free).
    pub fn criticals(&self) -> u64 {
        self.criticals.get()
    }

    /// Alerts evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Clones of the most recent `n` retained alerts, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Alert> {
        let inner = self.inner.lock().unwrap();
        let skip = inner.ring.len().saturating_sub(n);
        inner.ring.iter().skip(skip).cloned().collect()
    }

    /// Retained alerts with `seq > after`, oldest first — the polling
    /// contract of `/alerts.json?after=N`.
    pub fn since(&self, after: u64) -> Vec<Alert> {
        let inner = self.inner.lock().unwrap();
        inner
            .ring
            .iter()
            .filter(|a| a.seq > after)
            .cloned()
            .collect()
    }

    /// Flushes the JSONL file, if any.
    pub fn flush(&self) {
        if let Some(out) = self.inner.lock().unwrap().jsonl.as_mut() {
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_counts_and_ring() {
        let log = AlertLog::ring(2);
        let s1 = log.raise(
            AlertClass::DeadlineMiss,
            Severity::Warning,
            Some(1),
            25e6,
            20e6,
            "packet 3 scrubbed 25ms late",
        );
        assert_eq!(s1, 1);
        log.raise(
            AlertClass::DaemonDead,
            Severity::Critical,
            None,
            1.0,
            0.0,
            "daemon dead",
        );
        log.raise(
            AlertClass::DeadlineMiss,
            Severity::Warning,
            Some(2),
            30e6,
            20e6,
            "again",
        );
        assert_eq!(log.total(), 3);
        assert_eq!(log.count(AlertClass::DeadlineMiss), 2);
        assert_eq!(log.count(AlertClass::DaemonDead), 1);
        assert_eq!(log.criticals(), 1);
        assert_eq!(log.dropped(), 1);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].seq, 2);
        assert_eq!(recent[1].seq, 3);
        assert_eq!(log.since(2).len(), 1);
        assert_eq!(log.since(2)[0].seq, 3);
        assert!(log.since(3).is_empty());
    }

    #[test]
    fn json_shapes() {
        let log = AlertLog::ring(8);
        log.raise(
            AlertClass::TickLagBreach,
            Severity::Warning,
            Some(0),
            5.5e6,
            2e6,
            "tick started 5.5ms late \"quoted\"",
        );
        let alert = &log.recent(1)[0];
        let doc = alert.to_json();
        assert!(doc.contains("\"class\":\"tick_lag_breach\""));
        assert!(doc.contains("\"severity\":\"warning\""));
        assert!(doc.contains("\"shard\":0"));
        assert!(doc.contains("\\\"quoted\\\""));
        assert!(alert.to_json().starts_with("{\"seq\":1,"));
        // Non-finite values must stay valid JSON.
        let a = Alert {
            value: f64::INFINITY,
            ..alert.clone()
        };
        assert!(a.to_json().contains("\"value\":null"));
    }

    #[test]
    fn alert_json_is_exact() {
        let alert = Alert {
            seq: 7,
            unix_ms: 1_700_000_000_000,
            class: AlertClass::ScrubFloorBreach,
            severity: Severity::Critical,
            shard: None,
            value: 2.0,
            threshold: 0.0,
            message: "floor (2 clamp(s)) — no backoff".to_string(),
        };
        assert_eq!(
            alert.to_json(),
            "{\"seq\":7,\"unix_ms\":1700000000000,\"class\":\"scrub_floor_breach\",\
             \"severity\":\"critical\",\"shard\":null,\"value\":2,\"threshold\":0,\
             \"message\":\"floor (2 clamp(s)) — no backoff\"}"
        );
    }

    #[test]
    fn all_is_indexed_by_discriminant() {
        for (i, &(class, _)) in AlertClass::ALL.iter().enumerate() {
            assert_eq!(class as usize, i);
        }
    }

    #[test]
    fn class_names_roundtrip() {
        for &(c, name) in AlertClass::ALL {
            assert_eq!(AlertClass::parse(name), Some(c));
            assert_eq!(c.name(), name);
        }
        assert_eq!(AlertClass::parse("nope"), None);
    }

    #[test]
    fn jsonl_file_gets_every_alert() {
        let dir = std::env::temp_dir().join(format!("sudoku_alert_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("alerts.jsonl");
        let log = AlertLog::with_jsonl(4, &path).unwrap();
        log.raise(
            AlertClass::DaemonStuck,
            Severity::Critical,
            None,
            3.0,
            1.0,
            "no tick in 3 periods",
        );
        // Per-line flush: visible without dropping the log.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("daemon_stuck"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
