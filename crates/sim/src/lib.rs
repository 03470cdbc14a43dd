//! # sudoku-sim
//!
//! Trace-driven performance and energy simulator for the SuDoku STTRAM
//! reproduction — the stand-in for the paper's CMP$im + USIMM stack
//! (§VII-A): multicore front-ends, a banked 64 MB STTRAM LLC with real LRU
//! sets, banked SRAM Parity Line Tables, a DDR3-like memory backend, and
//! the SuDoku overheads (syndrome cycle, PLT traffic, scrub occupancy,
//! repair windows) of §VII-B/C/D/I.
//!
//! # Example: one Figure-8 bar
//!
//! ```
//! use sudoku_sim::{compare_workload, paper_workloads, RunnerConfig};
//!
//! let cfg = RunnerConfig::paper_default(2_000, 1);
//! let workloads = paper_workloads(2);
//! let c = compare_workload(&cfg, &workloads[0]);
//! assert!(c.time_ratio() >= 1.0 && c.time_ratio() < 1.05);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod energy;
mod machine;
mod runner;
mod trace;

pub use config::{EnergyModel, SystemConfig};
pub use energy::{energy_of, EnergyBreakdown};
pub use machine::{
    resolve_workload, CacheMode, Machine, Metrics, OverheadConfig, ResolvedAccess, ResolvedWorkload,
};
pub use runner::{compare_workload, geo_mean, run_resolved, Comparison, RunResult, RunnerConfig};
pub use trace::{paper_workloads, Access, CoreSpec, TraceGen, Workload, ZipfGen};
