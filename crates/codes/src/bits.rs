//! Fixed- and variable-length bit containers used by every code in this
//! crate.
//!
//! The SuDoku cache operates on 64-byte (512-bit) cache lines, represented by
//! [`LineData`]. Codes that produce codewords of other lengths (BCH, Hi-ECC
//! regions) use the growable [`BitBuf`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of data bits in a cache line (64 bytes).
pub const LINE_BITS: usize = 512;
/// Number of 64-bit words backing a [`LineData`].
pub const LINE_WORDS: usize = LINE_BITS / 64;

/// A 512-bit cache-line payload.
///
/// This is the unit of data the SuDoku cache stores, scrubs, and repairs.
/// All bitwise operations needed by the parity/RAID machinery (XOR, bit
/// get/flip, population count, difference positions) are provided here.
///
/// # Examples
///
/// ```
/// use sudoku_codes::LineData;
///
/// let mut line = LineData::zero();
/// line.set_bit(42, true);
/// assert!(line.bit(42));
/// assert_eq!(line.count_ones(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct LineData(pub(crate) [u64; LINE_WORDS]);

impl LineData {
    /// An all-zero line.
    pub const fn zero() -> Self {
        LineData([0; LINE_WORDS])
    }

    /// Builds a line from its eight backing words (word 0 holds bits 0..64).
    pub fn from_words(words: [u64; LINE_WORDS]) -> Self {
        LineData(words)
    }

    /// Returns the backing words (word 0 holds bits 0..64).
    pub fn words(&self) -> &[u64; LINE_WORDS] {
        &self.0
    }

    /// Builds a line from 64 bytes, little-endian within each word.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly 64 bytes long.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), 64, "a cache line is exactly 64 bytes");
        let mut words = [0u64; LINE_WORDS];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            words[i] = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
        }
        LineData(words)
    }

    /// Serializes the line to 64 bytes (inverse of [`LineData::from_bytes`]).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        for (i, w) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Reads bit `i` (0-based, `i < 512`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 512`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < LINE_BITS, "bit index {i} out of range");
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 512`.
    #[inline]
    pub fn set_bit(&mut self, i: usize, value: bool) {
        assert!(i < LINE_BITS, "bit index {i} out of range");
        let mask = 1u64 << (i % 64);
        if value {
            self.0[i / 64] |= mask;
        } else {
            self.0[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 512`.
    #[inline]
    pub fn flip_bit(&mut self, i: usize) {
        assert!(i < LINE_BITS, "bit index {i} out of range");
        self.0[i / 64] ^= 1u64 << (i % 64);
    }

    /// XORs `other` into `self` in place.
    #[inline]
    pub fn xor_assign(&mut self, other: &LineData) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a ^= *b;
        }
    }

    /// Returns the XOR of two lines.
    #[inline]
    pub fn xor(&self, other: &LineData) -> LineData {
        let mut out = *self;
        out.xor_assign(other);
        out
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether every bit is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.or_words() == 0
    }

    /// The OR of the backing words: zero exactly when every bit is. No
    /// early exit, so the test compiles to straight-line code.
    #[inline]
    pub(crate) fn or_words(&self) -> u64 {
        self.0.iter().fold(0, |acc, &w| acc | w)
    }

    /// Iterator over the positions of set bits, ascending.
    ///
    /// Walks the backing words directly (no per-word allocation), clearing
    /// the lowest set bit of each word as it goes.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        iter_word_ones(&self.0)
    }
}

/// Ascending set-bit positions over a word slice (bit 0 = LSB of word 0).
fn iter_word_ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    let mut wi = 0usize;
    let mut cur = words.first().copied().unwrap_or(0);
    std::iter::from_fn(move || loop {
        if cur != 0 {
            let tz = cur.trailing_zeros() as usize;
            cur &= cur - 1;
            return Some(wi * 64 + tz);
        }
        wi += 1;
        if wi >= words.len() {
            return None;
        }
        cur = words[wi];
    })
}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineData[")?;
        for w in self.0.iter().rev() {
            write!(f, "{w:016x}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A growable bit buffer for codewords whose length is not 512 bits
/// (BCH codewords, Hi-ECC 1-KB regions, test vectors).
///
/// # Bit-order contract
///
/// Bits are stored in **ascending order**: bit `i` of the buffer is bit
/// `i % 64` (counting from the LSB) of backing word `i / 64`, so bit 0 is
/// the least-significant bit of word 0 and iteration by index visits bits
/// in the same order the CRC and Hamming codes consume them. Any storage
/// bits at positions `>= len` in the last word are always zero — every
/// constructor and mutator preserves this invariant, which is what lets
/// word-level kernels read the final partial word with a single masked
/// load.
///
/// # Examples
///
/// ```
/// use sudoku_codes::BitBuf;
///
/// let mut buf = BitBuf::zeros(100);
/// buf.set(99, true);
/// assert_eq!(buf.count_ones(), 1);
/// assert_eq!(buf.len(), 100);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct BitBuf {
    words: Vec<u64>,
    len: usize,
}

impl BitBuf {
    /// A buffer of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitBuf {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a buffer of `len` bits directly from backing words (bit `i`
    /// is bit `i % 64` of word `i / 64`, per the bit-order contract).
    ///
    /// Storage bits at positions `>= len` in the last word are cleared so
    /// the trailing-zero invariant holds regardless of the input.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)`.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "word count must match the bit length"
        );
        let rem = len % 64;
        if rem != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        BitBuf { words, len }
    }

    /// The backing words (bit `i` of the buffer is bit `i % 64` of word
    /// `i / 64`; bits `>= len` in the last word are zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero bits of storage.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// XORs `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &BitBuf) {
        assert_eq!(self.len, other.len, "BitBuf lengths must match for xor");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a ^= *b;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Positions of set bits, ascending.
    pub fn ones(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }

    /// Iterator over the positions of set bits, ascending (non-allocating).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        iter_word_ones(&self.words)
    }
}

impl fmt::Debug for BitBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitBuf(len={}, ones={})", self.len, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_zero_is_zero() {
        let line = LineData::zero();
        assert!(line.is_zero());
        assert_eq!(line.count_ones(), 0);
    }

    #[test]
    fn line_set_get_flip_roundtrip() {
        let mut line = LineData::zero();
        for i in [0usize, 1, 63, 64, 200, 511] {
            line.set_bit(i, true);
            assert!(line.bit(i));
            line.flip_bit(i);
            assert!(!line.bit(i));
        }
    }

    #[test]
    fn line_bytes_roundtrip() {
        let mut bytes = [0u8; 64];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let line = LineData::from_bytes(&bytes);
        assert_eq!(line.to_bytes(), bytes);
    }

    #[test]
    fn line_xor_is_involution() {
        let mut a = LineData::zero();
        let mut b = LineData::zero();
        a.set_bit(3, true);
        a.set_bit(100, true);
        b.set_bit(100, true);
        b.set_bit(400, true);
        let c = a.xor(&b);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), [3, 400]);
        assert_eq!(c.xor(&b), a);
    }

    #[test]
    fn line_xor_ones_sorted_and_complete() {
        let mut a = LineData::zero();
        let mut b = LineData::zero();
        for i in [5usize, 64, 65, 300, 511] {
            a.flip_bit(i);
        }
        b.flip_bit(5);
        let d: Vec<usize> = a.xor(&b).iter_ones().collect();
        assert_eq!(d, [64, 65, 300, 511]);
    }

    #[test]
    fn line_iter_ones_lists_set_bits() {
        let mut a = LineData::zero();
        for i in [1usize, 2, 70, 130, 509] {
            a.flip_bit(i);
        }
        let ones: Vec<usize> = a.iter_ones().collect();
        assert_eq!(ones, [1, 2, 70, 130, 509]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn line_bit_out_of_range_panics() {
        LineData::zero().bit(512);
    }

    #[test]
    fn bitbuf_basics() {
        let mut buf = BitBuf::zeros(130);
        assert_eq!(buf.len(), 130);
        assert!(buf.is_zero());
        buf.set(0, true);
        buf.set(129, true);
        assert_eq!(buf.ones(), vec![0, 129]);
        buf.flip(0);
        assert_eq!(buf.count_ones(), 1);
    }

    #[test]
    fn bitbuf_xor_assign_matches_manual() {
        let mut a = BitBuf::zeros(77);
        let mut b = BitBuf::zeros(77);
        a.set(10, true);
        a.set(76, true);
        b.set(76, true);
        b.set(33, true);
        a.xor_assign(&b);
        assert_eq!(a.ones(), vec![10, 33]);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn bitbuf_xor_length_mismatch_panics() {
        let mut a = BitBuf::zeros(10);
        let b = BitBuf::zeros(11);
        a.xor_assign(&b);
    }

    #[test]
    fn bitbuf_from_words_roundtrip() {
        let buf = BitBuf::from_words(vec![0x5u64, 0x8000_0000_0000_0001], 128);
        assert_eq!(buf.ones(), vec![0, 2, 64, 127]);
        assert_eq!(buf.words(), &[0x5u64, 0x8000_0000_0000_0001]);
    }

    #[test]
    fn bitbuf_from_words_masks_tail() {
        // Bits above `len` in the final word must be cleared.
        let buf = BitBuf::from_words(vec![u64::MAX], 3);
        assert_eq!(buf.count_ones(), 3);
        assert_eq!(buf.words(), &[0b111u64]);
    }

    #[test]
    #[should_panic(expected = "word count must match")]
    fn bitbuf_from_words_wrong_count_panics() {
        BitBuf::from_words(vec![0u64; 3], 100);
    }

    #[test]
    fn bitbuf_iter_ones_matches_ones() {
        let mut buf = BitBuf::zeros(200);
        for i in [0usize, 63, 64, 65, 130, 199] {
            buf.set(i, true);
        }
        let collected: Vec<usize> = buf.iter_ones().collect();
        assert_eq!(collected, buf.ones());
    }
}
