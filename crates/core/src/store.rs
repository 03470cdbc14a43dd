//! Line storage backends.
//!
//! The SuDoku machinery is generic over where the stored lines live:
//!
//! * [`DenseStore`] materializes every line — the natural choice for
//!   functional tests, examples, and small caches;
//! * [`SparseStore`] materializes only lines that differ from the all-zero
//!   codeword. Because the fault process is independent of data values and
//!   every code in the stack is linear, reliability campaigns can WLOG use
//!   zero data everywhere — a full-size 64 MB cache interval (2²⁰ lines of
//!   553 bits at BER 5.3e-6) then touches only its ~3 070 faulty lines,
//!   keeping Monte-Carlo at paper scale cheap.
//!
//! A group scan reads each member once, through
//! [`LineStore::materialized_line`]: the stored line, or `None` when the
//! store knows it is the zero codeword (one map probe on a sparse store).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use sudoku_codes::ProtectedLine;

/// Multiplicative hash for `u64` line indices (Fibonacci hashing). Line
/// indices are small, dense, attacker-free integers — SipHash's DoS
/// resistance buys nothing here and costs ~5× per store access on the
/// Monte-Carlo hot path.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineIndexHasher(u64);

impl Hasher for LineIndexHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only reached via derived/complex keys; fold bytes in words.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type LineMap = HashMap<u64, ProtectedLine, BuildHasherDefault<LineIndexHasher>>;

/// Abstract access to the stored (possibly faulty) lines of a cache.
///
/// Lines are `Copy` 70-byte values; `line` returns by value.
pub trait LineStore {
    /// Number of lines.
    fn n_lines(&self) -> u64;

    /// Reads the stored line at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    fn line(&self, idx: u64) -> ProtectedLine;

    /// Reads the stored line at `idx`, together with whether the store
    /// knows it is a codeword: one it was last given by
    /// [`LineStore::set_line`] and has not flipped since. `false` means
    /// only "not known". The default knows nothing and returns `false`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    fn line_and_codeword(&self, idx: u64) -> (ProtectedLine, bool) {
        (self.line(idx), false)
    }

    /// Overwrites the stored line at `idx`.
    ///
    /// [`SudokuCache`](crate::SudokuCache) stores only codewords here: an
    /// encoded write, a line its ECC corrected, or a reconstruction that
    /// passed the full CRC+ECC check. Faults reach a store only through
    /// [`LineStore::flip_bit`]. A store may therefore remember that a line
    /// it was given here is a codeword until the line is next flipped.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    fn set_line(&mut self, idx: u64, line: ProtectedLine);

    /// Flips one stored bit in place (fault injection — no parity update).
    /// The only way a fault enters a store; the result need not be a
    /// codeword. The default reads, flips and calls
    /// [`LineStore::set_line`], so a store that remembers codewords must
    /// override it.
    fn flip_bit(&mut self, idx: u64, bit: usize) {
        let mut l = self.line(idx);
        l.flip_bit(bit);
        self.set_line(idx, l);
    }

    /// The stored line at `idx` if it might differ from the all-zero
    /// codeword, `None` if it is known to be zero: one read, where a
    /// presence test and [`LineStore::line`] would take two.
    ///
    /// Sparse stores return `None` for untouched lines, letting group
    /// scans skip work that cannot change anything (the zero codeword is
    /// valid and XOR-neutral). The default, for dense stores, always
    /// returns the line.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    fn materialized_line(&self, idx: u64) -> Option<ProtectedLine> {
        Some(self.line(idx))
    }

    /// The materialized line indices in arbitrary order, or `None` when
    /// every line counts as materialized. Lets a group scan over a sparse
    /// store find its possibly non-zero members without visiting the rest.
    fn materialized_lines(&self) -> Option<impl ExactSizeIterator<Item = u64> + '_> {
        None::<std::iter::Empty<u64>>
    }
}

/// Fully materialized storage.
#[derive(Clone, Debug)]
pub struct DenseStore {
    lines: Vec<ProtectedLine>,
}

impl DenseStore {
    /// `n_lines` lines, all initialized to the (valid) zero codeword.
    pub fn new(n_lines: u64) -> Self {
        DenseStore {
            lines: vec![ProtectedLine::zero(); n_lines as usize],
        }
    }

    /// Direct slice access (tests).
    pub fn as_slice(&self) -> &[ProtectedLine] {
        &self.lines
    }
}

impl LineStore for DenseStore {
    fn n_lines(&self) -> u64 {
        self.lines.len() as u64
    }

    fn line(&self, idx: u64) -> ProtectedLine {
        self.lines[idx as usize]
    }

    fn set_line(&mut self, idx: u64, line: ProtectedLine) {
        self.lines[idx as usize] = line;
    }
}

/// Sparse storage: unmaterialized lines read as the zero codeword.
#[derive(Clone, Debug)]
pub struct SparseStore {
    n_lines: u64,
    touched: LineMap,
}

impl SparseStore {
    /// A sparse store over `n_lines` logical lines.
    pub fn new(n_lines: u64) -> Self {
        SparseStore {
            n_lines,
            touched: LineMap::default(),
        }
    }

    /// Number of materialized (non-default) entries.
    pub fn materialized(&self) -> usize {
        self.touched.len()
    }

    /// Iterates over materialized `(index, line)` pairs in arbitrary order.
    pub fn iter_touched(&self) -> impl Iterator<Item = (u64, &ProtectedLine)> {
        self.touched.iter().map(|(k, v)| (*k, v))
    }

    /// Drops entries that have returned to the zero codeword (keeps
    /// long-running campaigns compact).
    pub fn compact(&mut self) {
        self.touched.retain(|_, l| !l.is_zero());
    }

    /// Resets every line to the zero codeword.
    pub fn clear(&mut self) {
        self.touched.clear();
    }
}

impl LineStore for SparseStore {
    fn n_lines(&self) -> u64 {
        self.n_lines
    }

    fn line(&self, idx: u64) -> ProtectedLine {
        assert!(idx < self.n_lines, "line {idx} out of range");
        self.touched.get(&idx).copied().unwrap_or_default()
    }

    fn set_line(&mut self, idx: u64, line: ProtectedLine) {
        assert!(idx < self.n_lines, "line {idx} out of range");
        if line.is_zero() {
            self.touched.remove(&idx);
        } else {
            self.touched.insert(idx, line);
        }
    }

    /// One probe: the flip lands in place, and a line flipped back to
    /// zero leaves the map.
    fn flip_bit(&mut self, idx: u64, bit: usize) {
        assert!(idx < self.n_lines, "line {idx} out of range");
        match self.touched.entry(idx) {
            Entry::Occupied(mut e) => {
                e.get_mut().flip_bit(bit);
                if e.get().is_zero() {
                    e.remove();
                }
            }
            Entry::Vacant(e) => {
                let mut line = ProtectedLine::zero();
                line.flip_bit(bit);
                e.insert(line);
            }
        }
    }

    /// One map probe.
    fn materialized_line(&self, idx: u64) -> Option<ProtectedLine> {
        assert!(idx < self.n_lines, "line {idx} out of range");
        self.touched.get(&idx).copied()
    }

    fn materialized_lines(&self) -> Option<impl ExactSizeIterator<Item = u64> + '_> {
        Some(self.touched.keys().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudoku_codes::{LineCodec, LineData};

    #[test]
    fn dense_roundtrip() {
        let mut s = DenseStore::new(8);
        let codec = LineCodec::shared();
        let mut d = LineData::zero();
        d.set_bit(1, true);
        let line = codec.encode(&d);
        s.set_line(3, line);
        assert_eq!(s.line(3), line);
        assert!(s.line(0).is_zero());
    }

    #[test]
    fn sparse_default_is_zero_codeword() {
        let s = SparseStore::new(1 << 20);
        assert!(s.line(12345).is_zero());
        assert_eq!(s.materialized(), 0);
    }

    #[test]
    fn sparse_set_and_revert() {
        let mut s = SparseStore::new(100);
        let mut l = ProtectedLine::zero();
        l.flip_bit(7);
        s.set_line(42, l);
        assert_eq!(s.materialized(), 1);
        assert_eq!(s.line(42), l);
        s.set_line(42, ProtectedLine::zero());
        assert_eq!(s.materialized(), 0);
    }

    #[test]
    fn flip_bit_default_impl_works_on_sparse() {
        let mut s = SparseStore::new(10);
        s.flip_bit(5, 100);
        assert!(s.line(5).bit(100));
        s.flip_bit(5, 100);
        assert_eq!(s.materialized(), 0);
    }

    #[test]
    fn materialized_line_reads_only_touched_lines() {
        let mut s = SparseStore::new(10);
        assert_eq!(s.materialized_line(4), None);
        s.flip_bit(4, 9);
        assert_eq!(s.materialized_line(4), Some(s.line(4)));
        s.flip_bit(4, 9);
        assert_eq!(s.materialized_line(4), None);
        let d = DenseStore::new(10);
        assert_eq!(d.materialized_line(4), Some(ProtectedLine::zero()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sparse_out_of_range_panics() {
        SparseStore::new(10).line(10);
    }
}
