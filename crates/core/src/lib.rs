//! # sudoku-core
//!
//! The SuDoku resilient cache architecture (Nair, Asgari, Qureshi — DSN
//! 2019): per-line ECC-1 + CRC-31, region-based RAID-4 parity in an SRAM
//! Parity Line Table, Sequential Data Resurrection, and skewed-hash
//! dual-group recovery — plus functional implementations of every baseline
//! the paper compares against.
//!
//! # Quick start
//!
//! ```
//! use sudoku_core::{Scheme, SudokuCache, SudokuConfig};
//! use sudoku_codes::LineData;
//!
//! // A small SuDoku-Z cache: 256 lines in RAID-Groups of 16.
//! let mut cache = SudokuCache::new(SudokuConfig::small(Scheme::Z, 256, 16))?;
//! let mut data = LineData::zero();
//! data.set_bit(123, true);
//! cache.write(0, &data);
//!
//! // Even a 4-bit burst in one line is repaired through the parity group.
//! for bit in [7, 8, 9, 10] {
//!     cache.inject_fault(0, bit);
//! }
//! assert_eq!(cache.read(0)?, data);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
mod cache;
mod config;
mod hashing;
mod plt;
pub mod recovery;
mod shard;
mod stats;
mod store;
mod vmin;

pub use cache::{SudokuCache, UncorrectableError};
pub use config::{CacheGeometry, ConfigError, Scheme, SudokuConfig};
pub use hashing::{HashDim, SkewedHashes};
pub use plt::ParityTable;
pub use recovery::{
    Casualties, GroupScratch, GroupView, MemberState, Recovered, RepairEngine, RepairParams,
};
pub use shard::ShardPlan;
pub use stats::{CacheStats, ScrubReport, STT_READ_NS, STT_WRITE_NS, SYNDROME_CHECK_NS};
pub use store::{DenseStore, LineStore, SparseStore};
pub use vmin::{reassert_stuck, VminCache};

// The telemetry vocabulary is defined by the dependency-free `sudoku-obs`
// crate; re-exported here so cache users need not name it directly.
pub use sudoku_obs::{
    Dim, Mechanism, Outcome, Phase, PhaseTimes, Recorder, RecoveryEvent, RecoveryHistograms,
};
