//! # sudoku-fault
//!
//! Fault models for the SuDoku STTRAM reproduction (DSN 2019):
//!
//! * [`ThermalModel`] — the paper's Eq. 1 retention-failure model with
//!   Gaussian ∆ process variation, reproducing Table I's BER figures;
//! * [`FaultInjector`] — exact, seeded transient-fault injection at line or
//!   cache granularity;
//! * [`ScrubSchedule`] — scrub-interval bookkeeping and FIT/MTTF
//!   conversions;
//! * [`StuckBitMap`] — permanent (stuck-at) faults for the SRAM V_min study
//!   (§VI, Table IV).
//!
//! # Example
//!
//! ```
//! use sudoku_fault::{FaultInjector, ScrubSchedule, ThermalModel};
//!
//! let thermal = ThermalModel::paper_default(); // ∆ = 35, σ = 10 %
//! let scrub = ScrubSchedule::paper_default(); // 20 ms
//! let ber = thermal.ber(scrub.interval_s());
//! let mut injector = FaultInjector::new(ber, 0xC0FFEE);
//! let plan = injector.cache_plan(1 << 20); // one 64 MB-cache interval
//! assert!(plan.len() < 10_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod injector;
mod permanent;
mod scrub;
mod thermal;

pub use injector::{
    choose_distinct, choose_distinct_into, observe_plan, sample_binomial,
    sample_binomial_at_least_one, FaultInjector, LineFaults,
};
pub use permanent::{StuckBit, StuckBitMap};
pub use scrub::{ScrubSchedule, FIT_HOURS, SECONDS_PER_HOUR};
pub use thermal::{ThermalModel, ATTEMPT_FREQ_HZ};
