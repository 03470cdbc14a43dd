//! The demand op stream shared by `svc-mixed`, the wire probe and the
//! single-threaded `core` replay, with the golden-copy oracle.
//!
//! A stream owns one slice of the line space (lines `≡ slice mod slices`),
//! so its golden copy is authoritative for every line it touches: a read
//! whose data differs from the golden copy is a silent data corruption.

use sudoku_codes::LineData;
use sudoku_core::{Scheme, SudokuConfig};
use sudoku_sim::ZipfGen;

/// Cache lines of the demand workloads' service (16 Ki).
pub const LINES: u64 = 1 << 14;
/// RAID-Group size of the demand workloads' service.
pub const GROUP: u32 = 16;
/// Zipf skew over a stream's slice.
pub const THETA: f64 = 0.8;
/// Share of writes in the mix.
pub const WRITE_FRAC: f64 = 0.3;
/// Transient bit error rate injected by the scrub daemon per tick.
pub const BER: f64 = 1e-4;

pub fn cache_config() -> SudokuConfig {
    SudokuConfig::small(Scheme::Z, LINES, GROUP)
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Read(u64),
    Write(u64, LineData),
}

pub struct OpStream {
    zipf: ZipfGen,
    coin: u64,
    slice: u64,
    slices: u64,
    issued: u64,
}

impl OpStream {
    pub fn new(seed: u64, slice: u64, slices: u64) -> OpStream {
        OpStream {
            zipf: ZipfGen::new(LINES / slices, THETA, seed ^ (slice << 17)),
            coin: (seed ^ slice.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1,
            slice,
            slices,
            issued: 0,
        }
    }

    fn flip(&mut self) -> f64 {
        self.coin ^= self.coin << 13;
        self.coin ^= self.coin >> 7;
        self.coin ^= self.coin << 17;
        (self.coin >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn next_op(&mut self) -> Op {
        let line = self.zipf.next_rank() * self.slices + self.slice;
        let i = self.issued;
        self.issued += 1;
        if self.flip() < WRITE_FRAC {
            let mut data = LineData::zero();
            data.set_bit((line as usize).wrapping_mul(31) % 512, true);
            data.set_bit((i as usize).wrapping_mul(7) % 512, true);
            Op::Write(line, data)
        } else {
            Op::Read(line)
        }
    }
}

/// The golden copy of one slice. The service starts all-zero.
pub struct Golden {
    data: Vec<LineData>,
    /// Lines whose last write was refused: their content is unknowable
    /// until a later write lands, so reads of them are not judged.
    tainted: Vec<bool>,
    slices: u64,
}

impl Golden {
    pub fn new(slices: u64) -> Golden {
        let n = (LINES / slices) as usize;
        Golden {
            data: vec![LineData::zero(); n],
            tainted: vec![false; n],
            slices,
        }
    }

    fn idx(&self, line: u64) -> usize {
        (line / self.slices) as usize
    }

    pub fn wrote(&mut self, line: u64, data: LineData, accepted: bool) {
        let i = self.idx(line);
        if accepted {
            self.data[i] = data;
        }
        self.tainted[i] = !accepted;
    }

    /// Whether a read of `line` returning `got` is a silent corruption.
    pub fn is_sdc(&self, line: u64, got: &LineData) -> bool {
        let i = self.idx(line);
        !self.tainted[i] && self.data[i] != *got
    }
}
