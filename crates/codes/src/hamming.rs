//! Single-error-correcting (SEC) Hamming code — the "ECC-1" of the paper.
//!
//! SuDoku equips every line with ECC-1 because at a BER of 5.3×10⁻⁶ the
//! overwhelmingly common fault case is a single flipped bit (paper §II-E).
//! For the 543-bit payload (512 data + 31 CRC) the code needs 10 check bits
//! (2¹⁰ ≥ 543 + 10 + 1), which matches the paper's "10 bits per line"
//! overhead, and encodes/decodes with trivial XOR trees (single-cycle in
//! hardware).
//!
//! The implementation is positionally faithful: check bits sit at
//! power-of-two codeword positions, so multi-bit errors can *miscorrect*
//! (the syndrome points at an innocent bit) exactly as real Hamming hardware
//! would. SuDoku detects those miscorrections with the per-line CRC
//! (paper §III-E) — preserving this behaviour is essential for the SDC
//! analysis of Table III.

use crate::bits::BitBuf;
use serde::{Deserialize, Serialize};

/// Result of a Hamming decode attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HammingOutcome {
    /// Zero syndrome: the codeword is consistent (no error, or an undetected
    /// even-weight pattern aligned with the code space).
    Clean,
    /// The syndrome pointed at a payload bit, which was flipped. For a true
    /// single-bit error this is a real correction; for multi-bit errors it
    /// may be a miscorrection (caller must re-validate with the CRC).
    CorrectedPayload(usize),
    /// The syndrome pointed at one of the check bits; the payload is intact.
    CorrectedCheck(u32),
    /// The syndrome pointed outside the codeword: definitely a multi-bit
    /// error, no correction applied.
    Invalid,
}

/// A SEC Hamming code over a fixed payload length.
///
/// # Examples
///
/// ```
/// use sudoku_codes::{BitBuf, HammingSec, HammingOutcome};
///
/// let code = HammingSec::new(543);
/// assert_eq!(code.check_bits(), 10);
/// let mut payload = BitBuf::zeros(543);
/// payload.set(42, true);
/// let check = code.encode(&payload);
/// payload.flip(100); // inject a single-bit error
/// let outcome = code.decode(&mut payload, check);
/// assert_eq!(outcome, HammingOutcome::CorrectedPayload(100));
/// assert!(payload.get(42) && !payload.get(100));
/// ```
#[derive(Clone, Debug)]
pub struct HammingSec {
    payload_bits: usize,
    check_bits: u32,
    /// Total codeword length (payload + check bits).
    n: usize,
    /// 1-based codeword position of payload bit `i` (non-powers-of-two).
    payload_pos: Vec<u32>,
    /// Map from 1-based codeword position to payload index
    /// (`u32::MAX` marks check-bit positions).
    pos_to_payload: Vec<u32>,
}

impl HammingSec {
    /// Builds the code for a payload of `payload_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `payload_bits` is 0 or would need more than 30 check bits.
    pub fn new(payload_bits: usize) -> Self {
        assert!(payload_bits > 0, "payload must be non-empty");
        let mut r = 2u32;
        while (1usize << r) < payload_bits + r as usize + 1 {
            r += 1;
            assert!(r <= 30, "payload too large for SEC Hamming");
        }
        let n = payload_bits + r as usize;
        let mut payload_pos = Vec::with_capacity(payload_bits);
        let mut pos_to_payload = vec![u32::MAX; n + 1];
        let mut idx = 0u32;
        for pos in 1..=n as u32 {
            if pos.is_power_of_two() {
                continue;
            }
            payload_pos.push(pos);
            pos_to_payload[pos as usize] = idx;
            idx += 1;
        }
        debug_assert_eq!(payload_pos.len(), payload_bits);
        HammingSec {
            payload_bits,
            check_bits: r,
            n,
            payload_pos,
            pos_to_payload,
        }
    }

    /// Payload length in bits.
    pub fn payload_bits(&self) -> usize {
        self.payload_bits
    }

    /// Number of check bits (e.g. 10 for the 543-bit SuDoku payload).
    pub fn check_bits(&self) -> u32 {
        self.check_bits
    }

    /// Total codeword length in bits.
    pub fn codeword_bits(&self) -> usize {
        self.n
    }

    fn payload_signature(&self, payload: &BitBuf) -> u32 {
        debug_assert_eq!(payload.len(), self.payload_bits);
        // Walk the backing words directly: mostly-zero payloads (the
        // golden-zero Monte-Carlo state) skip whole words, and no position
        // vector is allocated.
        let mut sig = 0u32;
        for (wi, &w) in payload.words().iter().enumerate() {
            let mut d = w;
            while d != 0 {
                sig ^= self.payload_pos[wi * 64 + d.trailing_zeros() as usize];
                d &= d - 1;
            }
        }
        sig
    }

    /// Computes the check bits for `payload`.
    ///
    /// Check bit `j` is the parity of all payload positions whose 1-based
    /// codeword index has bit `j` set — returned packed, bit `j` of the
    /// result corresponding to the check bit at codeword position `2^j`.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len() != self.payload_bits()`.
    pub fn encode(&self, payload: &BitBuf) -> u32 {
        assert_eq!(
            payload.len(),
            self.payload_bits,
            "payload length must match the code"
        );
        self.payload_signature(payload)
    }

    /// Computes the syndrome of a received (payload, check) pair without
    /// modifying anything. Zero means consistent.
    pub fn syndrome(&self, payload: &BitBuf, check: u32) -> u32 {
        self.payload_signature(payload) ^ (check & ((1 << self.check_bits) - 1))
    }

    /// 1-based codeword position of payload bit `i`: the bit's column in
    /// the parity-check matrix.
    pub(crate) fn position(&self, i: usize) -> u32 {
        self.payload_pos[i]
    }

    /// The payload bit a syndrome names, if any: `None` for a zero,
    /// check-bit (power-of-two) or out-of-range syndrome.
    pub(crate) fn payload_index(&self, syndrome: u32) -> Option<usize> {
        let pos = syndrome as usize;
        if pos == 0 || pos > self.n || syndrome.is_power_of_two() {
            return None;
        }
        Some(self.pos_to_payload[pos] as usize)
    }

    /// Attempts single-error correction in place.
    ///
    /// On [`HammingOutcome::CorrectedPayload`] the payload bit has been
    /// flipped; the caller is responsible for re-validating with a stronger
    /// detection code (the per-line CRC in SuDoku), because a multi-bit
    /// error can masquerade as a correctable single-bit error.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len() != self.payload_bits()`.
    pub fn decode(&self, payload: &mut BitBuf, check: u32) -> HammingOutcome {
        assert_eq!(
            payload.len(),
            self.payload_bits,
            "payload length must match the code"
        );
        let s = self.syndrome(payload, check);
        match self.payload_index(s) {
            Some(idx) => {
                payload.flip(idx);
                HammingOutcome::CorrectedPayload(idx)
            }
            None if s == 0 => HammingOutcome::Clean,
            None if s as usize > self.n => HammingOutcome::Invalid,
            None => HammingOutcome::CorrectedCheck(s.trailing_zeros()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_payload(len: usize, seed: u64) -> BitBuf {
        let mut buf = BitBuf::zeros(len);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                buf.set(i, true);
            }
        }
        buf
    }

    #[test]
    fn check_bit_count_matches_paper() {
        // 543-bit payload (512 data + 31 CRC) needs exactly 10 check bits.
        let code = HammingSec::new(543);
        assert_eq!(code.check_bits(), 10);
        assert_eq!(code.codeword_bits(), 553);
    }

    #[test]
    fn clean_codeword_decodes_clean() {
        let code = HammingSec::new(543);
        let mut payload = filled_payload(543, 7);
        let check = code.encode(&payload);
        let before = payload.clone();
        assert_eq!(code.decode(&mut payload, check), HammingOutcome::Clean);
        assert_eq!(payload, before);
    }

    #[test]
    fn corrects_every_single_payload_error() {
        let code = HammingSec::new(64);
        let golden = filled_payload(64, 42);
        let check = code.encode(&golden);
        for i in 0..64 {
            let mut payload = golden.clone();
            payload.flip(i);
            let outcome = code.decode(&mut payload, check);
            assert_eq!(outcome, HammingOutcome::CorrectedPayload(i));
            assert_eq!(payload, golden);
        }
    }

    #[test]
    fn corrects_every_single_check_bit_error() {
        let code = HammingSec::new(64);
        let mut payload = filled_payload(64, 9);
        let check = code.encode(&payload);
        let before = payload.clone();
        for j in 0..code.check_bits() {
            let corrupted = check ^ (1 << j);
            let outcome = code.decode(&mut payload, corrupted);
            assert_eq!(outcome, HammingOutcome::CorrectedCheck(j));
            assert_eq!(payload, before);
        }
    }

    #[test]
    fn double_errors_never_silently_pass() {
        // A SEC code cannot *correct* double errors, but its syndrome is
        // always non-zero for them (minimum distance 3).
        let code = HammingSec::new(128);
        let golden = filled_payload(128, 3);
        let check = code.encode(&golden);
        for a in (0..128).step_by(7) {
            for b in (a + 1..128).step_by(11) {
                let mut payload = golden.clone();
                payload.flip(a);
                payload.flip(b);
                assert_ne!(code.syndrome(&payload, check), 0, "({a},{b})");
            }
        }
    }

    #[test]
    fn double_errors_can_miscorrect() {
        // Faithfulness check: there exists a double error that the decoder
        // "fixes" by flipping a third, innocent bit. The CRC layer above is
        // what catches these in SuDoku.
        let code = HammingSec::new(543);
        let golden = filled_payload(543, 1);
        let check = code.encode(&golden);
        let mut found_miscorrection = false;
        'outer: for a in 0..40 {
            for b in a + 1..40 {
                let mut payload = golden.clone();
                payload.flip(a);
                payload.flip(b);
                if let HammingOutcome::CorrectedPayload(idx) = code.decode(&mut payload, check) {
                    if idx != a && idx != b {
                        found_miscorrection = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found_miscorrection, "expected at least one miscorrection");
    }

    #[test]
    fn syndrome_zero_iff_consistent() {
        let code = HammingSec::new(100);
        let payload = filled_payload(100, 77);
        let check = code.encode(&payload);
        assert_eq!(code.syndrome(&payload, check), 0);
        assert_ne!(code.syndrome(&payload, check ^ 1), 0);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn wrong_payload_length_panics() {
        let code = HammingSec::new(100);
        let payload = BitBuf::zeros(99);
        code.encode(&payload);
    }

    #[test]
    fn small_codes_have_classic_parameters() {
        // (7,4) Hamming: 4 payload bits, 3 check bits.
        let code = HammingSec::new(4);
        assert_eq!(code.check_bits(), 3);
        assert_eq!(code.codeword_bits(), 7);
        // (15,11): 11 payload bits, 4 check bits.
        let code = HammingSec::new(11);
        assert_eq!(code.check_bits(), 4);
        assert_eq!(code.codeword_bits(), 15);
    }
}
