//! # sudoku-obs
//!
//! Structured recovery telemetry for the SuDoku reproduction.
//!
//! The correction engines in `sudoku-core` surface end-of-run aggregates
//! ([`CacheStats`-style counters]); this crate adds the *forensic* layer the
//! field-fault literature calls for — per-event records from which a DUE
//! line's full escalation chain (ECC-1 miss → CRC detect → RAID-4 blocked →
//! SDR trials → Hash-2 retry) can be reconstructed after the fact:
//!
//! * [`RecoveryEvent`] — one structured record per repair attempt, with
//!   interval, line, group, hash dimension, mechanism, trial count, and
//!   outcome; serializable to/from JSONL without external dependencies;
//! * [`Recorder`] — the one event store: an in-memory ring (bounded or
//!   unbounded) plus the histograms, phase spans and an optional heatmap
//!   tap; the disabled recorder costs one branch per emission site and
//!   nothing else (no event construction, no recording);
//! * [`Histogram`] / [`RecoveryHistograms`] — fixed-bucket, allocation-free
//!   on the hot path: SDR trials per resurrection, group-scan sizes, faults
//!   per line, and estimated per-line recovery latency;
//! * [`Counter`] / [`Gauge`] / [`AtomicHist`] — the *live* plane: lock-free
//!   metrics that worker threads update wait-free and a sampler or
//!   `/metrics` scrape snapshots without stopping the world;
//! * [`PhaseTimes`] — span timing for campaign phases (inject / scrub /
//!   recover / reset), merged across workers;
//! * [`forensics`] — escalation-chain reconstruction and breakdowns over a
//!   drained or replayed event log.
//!
//! [`CacheStats`-style counters]: RecoveryEvent

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alert;
mod event;
pub mod forensics;
pub mod heatmap;
mod hist;
pub mod json;
mod live;
mod recorder;
mod span;

pub use alert::{Alert, AlertClass, AlertLog, Severity};
pub use event::{Dim, Mechanism, Outcome, RecoveryEvent};
pub use heatmap::{
    render_grid, CorrelationDetector, CorrelationStat, HeatGrid, Heatmaps, RegionGeometry,
    DEFAULT_REGIONS,
};
pub use hist::{Histogram, RecoveryHistograms, ServiceHistograms};
pub use live::{AtomicHist, Counter, Gauge};
pub use recorder::Recorder;
pub use span::{Phase, PhaseTimes, PHASES};
