//! # sudoku-codes
//!
//! Error detection and correction substrate for the SuDoku STTRAM
//! reproduction (Nair, Asgari, Qureshi — *SuDoku: Tolerating High-Rate of
//! Transient Failures for Enabling Scalable STTRAM*, DSN 2019).
//!
//! The crate provides every code the paper's cache architecture and its
//! baselines rely on:
//!
//! * [`CrcEngine`] / [`crc31`] — the per-line CRC-31 strong detection code;
//! * [`HammingSec`] — the per-line ECC-1 single-error corrector;
//! * [`LineCodec`] / [`ProtectedLine`] — the composed 553-bit stored line
//!   (512 data + 31 CRC + 10 ECC, paper §III-E), every check of which goes
//!   through one 41-bit CRC + ECC-1 syndrome;
//! * [`Line2Codec`] / [`ProtectedLine2`] — the §VII-G ECC-2 variant (BCH
//!   t = 2 in place of ECC-1), and [`LineCode`], the trait both line
//!   types implement for the group-repair ladder;
//! * [`group_parity`] / [`reconstruct`] — RAID-4 XOR parity lines;
//! * [`GfTables`] and [`Bch`] — GF(2^m) arithmetic and the multi-bit BCH
//!   codes used by the ECC-2…ECC-6 and Hi-ECC baselines.
//!
//! # Example: the full SuDoku line flow
//!
//! ```
//! use sudoku_codes::{LineCodec, LineData, ReadCheck};
//!
//! let codec = LineCodec::shared();
//! let mut data = LineData::zero();
//! data.set_bit(123, true);
//! let mut stored = codec.encode(&data);
//!
//! // A single retention failure: ECC-1 repairs it on read.
//! stored.flip_bit(40);
//! match codec.read_check(&stored) {
//!     ReadCheck::Corrected { repaired, .. } => assert_eq!(repaired.data, data),
//!     other => panic!("expected a correction, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bch;
mod bits;
mod crc;
mod gf;
mod hamming;
mod line;
mod line2;
mod parity;

pub use bch::{line_ecc, Bch, BchError, BchOutcome};
pub use bits::{BitBuf, LineData, LINE_BITS, LINE_WORDS};
pub use crc::{crc31, CrcEngine, CrcSpec, CRC31};
pub use gf::{GfError, GfTables};
pub use hamming::{HammingOutcome, HammingSec};
pub use line::{
    LineCode, LineCodec, ProtectedLine, ReadCheck, RepairKind, CRC_BITS, DATA_BITS, ECC_BITS,
    TOTAL_BITS,
};
pub use line2::{Line2Codec, ProtectedLine2, CRC2_BITS, DATA2_BITS, ECC2_BITS, TOTAL2_BITS};
pub use parity::{group_parity, reconstruct};
