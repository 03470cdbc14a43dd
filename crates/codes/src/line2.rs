//! The ECC-2 line variant (paper §VII-G): "SuDoku can be enhanced even
//! further by replacing ECC-1 with ECC-2."
//!
//! Layout mirrors the ECC-1 line of [`crate::line`], with the Hamming SEC
//! field replaced by a two-error-correcting BCH code over GF(2¹⁰):
//!
//! ```text
//! bit 0..512    data
//! bit 512..543  CRC-31 (over data)
//! bit 543..563  ECC-2 (BCH t=2 over data‖CRC)
//! ```
//!
//! 563 stored bits per line (51 bits of metadata — still under ECC-6's 60,
//! and the paper's point is that it buys orders of magnitude at very low ∆).

use crate::bch::{Bch, BchOutcome};
use crate::bits::{BitBuf, LineData};
use crate::crc::{crc31, CrcEngine};
use crate::line::{field_ones, LineCode, ReadCheck, RepairKind};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Data bits per line.
pub const DATA2_BITS: usize = 512;
/// CRC field width.
pub const CRC2_BITS: usize = 31;
/// ECC-2 (BCH t=2) parity bits over the 543-bit payload.
pub const ECC2_BITS: usize = 20;
/// Total stored bits per ECC-2 SuDoku line.
pub const TOTAL2_BITS: usize = DATA2_BITS + CRC2_BITS + ECC2_BITS;

/// A stored ECC-2 line: data + CRC-31 + 20-bit BCH parity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ProtectedLine2 {
    /// The 512 data bits.
    pub data: LineData,
    /// The 31 CRC bits (low 31 bits used).
    pub crc: u32,
    /// The 20 ECC-2 parity bits (low 20 bits used).
    pub ecc: u32,
}

impl ProtectedLine2 {
    /// The all-zero codeword (valid).
    pub fn zero() -> Self {
        Self::default()
    }

    /// Reads stored bit `i` (0..563).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 563`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        if i < DATA2_BITS {
            self.data.bit(i)
        } else if i < DATA2_BITS + CRC2_BITS {
            (self.crc >> (i - DATA2_BITS)) & 1 == 1
        } else if i < TOTAL2_BITS {
            (self.ecc >> (i - DATA2_BITS - CRC2_BITS)) & 1 == 1
        } else {
            panic!("stored-bit index {i} out of range");
        }
    }

    /// XORs another stored line into this one (all 563 bits; linearity of
    /// CRC and BCH keeps XORs of codewords valid).
    #[inline]
    pub fn xor_assign(&mut self, other: &ProtectedLine2) {
        self.data.xor_assign(&other.data);
        self.crc ^= other.crc;
        self.ecc ^= other.ecc;
    }
}

impl LineCode for ProtectedLine2 {
    type Codec = Line2Codec;

    fn scrub_check(codec: &Line2Codec, line: &Self) -> ReadCheck<Self> {
        codec.scrub_check(line)
    }

    fn validate(codec: &Line2Codec, line: &Self) -> bool {
        codec.validate(line)
    }

    fn is_zero(&self) -> bool {
        self.data.is_zero() && self.crc == 0 && self.ecc == 0
    }

    fn xor_assign(&mut self, other: &Self) {
        ProtectedLine2::xor_assign(self, other)
    }

    /// Flips stored bit `i` (0..563).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 563`.
    fn flip_bit(&mut self, i: usize) {
        if i < DATA2_BITS {
            self.data.flip_bit(i);
        } else if i < DATA2_BITS + CRC2_BITS {
            self.crc ^= 1 << (i - DATA2_BITS);
        } else if i < TOTAL2_BITS {
            self.ecc ^= 1 << (i - DATA2_BITS - CRC2_BITS);
        } else {
            panic!("stored-bit index {i} out of range");
        }
    }

    fn count_ones(&self) -> u32 {
        self.data.count_ones() + self.crc.count_ones() + self.ecc.count_ones()
    }

    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.data
            .iter_ones()
            .chain(field_ones(u64::from(self.crc), DATA2_BITS))
            .chain(field_ones(u64::from(self.ecc), DATA2_BITS + CRC2_BITS))
    }
}

/// The ECC-2 per-line encoder/decoder: CRC-31 detection plus BCH t=2
/// correction over data‖CRC.
#[derive(Debug, Clone)]
pub struct Line2Codec {
    crc: &'static CrcEngine,
    bch: Bch,
}

impl Default for Line2Codec {
    fn default() -> Self {
        Self::new()
    }
}

impl Line2Codec {
    /// Builds the codec.
    ///
    /// # Panics
    ///
    /// Panics if the BCH construction fails (it cannot for these
    /// parameters).
    pub fn new() -> Self {
        let bch = Bch::new(10, 2, DATA2_BITS + CRC2_BITS).expect("BCH(1023, t=2) exists");
        debug_assert_eq!(bch.parity_bits(), ECC2_BITS);
        Line2Codec { crc: crc31(), bch }
    }

    /// Process-wide shared instance.
    pub fn shared() -> &'static Line2Codec {
        static CODEC: OnceLock<Line2Codec> = OnceLock::new();
        CODEC.get_or_init(Line2Codec::new)
    }

    fn payload_of(data: &LineData, crc: u32) -> BitBuf {
        let mut payload = BitBuf::zeros(DATA2_BITS + CRC2_BITS);
        for i in 0..DATA2_BITS {
            if data.bit(i) {
                payload.set(i, true);
            }
        }
        for j in 0..CRC2_BITS {
            if (crc >> j) & 1 == 1 {
                payload.set(DATA2_BITS + j, true);
            }
        }
        payload
    }

    fn payload_to_parts(payload: &BitBuf) -> (LineData, u32) {
        let mut data = LineData::zero();
        for i in 0..DATA2_BITS {
            if payload.get(i) {
                data.set_bit(i, true);
            }
        }
        let mut crc = 0u32;
        for j in 0..CRC2_BITS {
            if payload.get(DATA2_BITS + j) {
                crc |= 1 << j;
            }
        }
        (data, crc)
    }

    fn parity_bits_of(ecc: u32) -> BitBuf {
        let mut buf = BitBuf::zeros(ECC2_BITS);
        for j in 0..ECC2_BITS {
            if (ecc >> j) & 1 == 1 {
                buf.set(j, true);
            }
        }
        buf
    }

    fn parity_to_u32(buf: &BitBuf) -> u32 {
        let mut out = 0u32;
        for j in 0..ECC2_BITS {
            if buf.get(j) {
                out |= 1 << j;
            }
        }
        out
    }

    /// Encodes a data payload into a stored ECC-2 line.
    pub fn encode(&self, data: &LineData) -> ProtectedLine2 {
        let crc = self.crc.checksum_line(data) as u32;
        let payload = Self::payload_of(data, crc);
        let ecc = Self::parity_to_u32(&self.bch.encode(&payload));
        ProtectedLine2 {
            data: *data,
            crc,
            ecc,
        }
    }

    /// Whether the stored CRC matches the data.
    #[inline]
    pub fn crc_ok(&self, line: &ProtectedLine2) -> bool {
        self.crc.checksum_line(&line.data) as u32 == line.crc
    }

    /// Full consistency: CRC matches and the BCH syndromes are zero.
    pub fn validate(&self, line: &ProtectedLine2) -> bool {
        if !self.crc_ok(line) {
            return false;
        }
        let mut payload = Self::payload_of(&line.data, line.crc);
        let mut parity = Self::parity_bits_of(line.ecc);
        matches!(
            self.bch.decode(&mut payload, &mut parity),
            BchOutcome::Clean
        )
    }

    /// The scrub-path check: CRC, then ≤2-error BCH repair, then CRC
    /// re-check — the ECC-2 analogue of the ECC-1 codec's `scrub_check`.
    pub fn scrub_check(&self, line: &ProtectedLine2) -> ReadCheck<ProtectedLine2> {
        if self.crc_ok(line) {
            let mut payload = Self::payload_of(&line.data, line.crc);
            let mut parity = Self::parity_bits_of(line.ecc);
            return match self.bch.decode(&mut payload, &mut parity) {
                BchOutcome::Clean => ReadCheck::Clean,
                // Data+CRC are CRC-consistent; trust them and regenerate
                // the parity field (it carried the fault(s)).
                _ => {
                    let repaired = ProtectedLine2 {
                        data: line.data,
                        crc: line.crc,
                        ecc: Self::parity_to_u32(
                            &self.bch.encode(&Self::payload_of(&line.data, line.crc)),
                        ),
                    };
                    ReadCheck::Corrected {
                        repaired,
                        kind: RepairKind::EccField,
                    }
                }
            };
        }
        let mut payload = Self::payload_of(&line.data, line.crc);
        let mut parity = Self::parity_bits_of(line.ecc);
        match self.bch.decode(&mut payload, &mut parity) {
            BchOutcome::Corrected(positions) => {
                let (data, crc) = Self::payload_to_parts(&payload);
                let candidate = ProtectedLine2 {
                    data,
                    crc,
                    ecc: Self::parity_to_u32(&parity),
                };
                if self.crc_ok(&candidate) {
                    let first = positions.first().copied().unwrap_or_default();
                    ReadCheck::Corrected {
                        repaired: candidate,
                        kind: RepairKind::PayloadBit(first),
                    }
                } else {
                    ReadCheck::MultiBit
                }
            }
            BchOutcome::Clean | BchOutcome::Uncorrectable => ReadCheck::MultiBit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(seed: u64) -> LineData {
        let mut data = LineData::zero();
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..DATA2_BITS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                data.set_bit(i, true);
            }
        }
        data
    }

    #[test]
    fn total_bits_is_563() {
        assert_eq!(TOTAL2_BITS, 563);
        assert_eq!(Line2Codec::shared().bch.parity_bits(), ECC2_BITS);
    }

    #[test]
    fn encode_validate_roundtrip() {
        let codec = Line2Codec::shared();
        let line = codec.encode(&sample_data(1));
        assert!(codec.validate(&line));
        assert_eq!(codec.scrub_check(&line), ReadCheck::Clean);
    }

    #[test]
    fn repairs_any_single_and_double_fault() {
        let codec = Line2Codec::shared();
        let golden = codec.encode(&sample_data(2));
        // Singles at a sample of positions across all three fields.
        for i in (0..TOTAL2_BITS).step_by(13) {
            let mut line = golden;
            line.flip_bit(i);
            match codec.scrub_check(&line) {
                ReadCheck::Corrected { repaired, .. } => assert_eq!(repaired, golden, "bit {i}"),
                other => panic!("bit {i}: {other:?}"),
            }
        }
        // Doubles.
        for (a, b) in [
            (0usize, 1usize),
            (5, 300),
            (511, 520),
            (100, 545),
            (550, 560),
        ] {
            let mut line = golden;
            line.flip_bit(a);
            line.flip_bit(b);
            match codec.scrub_check(&line) {
                ReadCheck::Corrected { repaired, .. } => {
                    assert_eq!(repaired, golden, "bits {a},{b}")
                }
                other => panic!("bits {a},{b}: {other:?}"),
            }
        }
    }

    #[test]
    fn triple_faults_flagged_multibit() {
        let codec = Line2Codec::shared();
        let golden = codec.encode(&sample_data(3));
        for base in [0usize, 37, 200] {
            let mut line = golden;
            line.flip_bit(base);
            line.flip_bit(base + 101);
            line.flip_bit(base + 222);
            assert_eq!(codec.scrub_check(&line), ReadCheck::MultiBit, "base {base}");
        }
    }

    #[test]
    fn xor_of_codewords_is_valid() {
        let codec = Line2Codec::shared();
        let mut a = codec.encode(&sample_data(4));
        let b = codec.encode(&sample_data(5));
        a.xor_assign(&b);
        assert!(codec.validate(&a), "BCH + CRC are linear");
    }

    #[test]
    fn iter_ones_cover_fields() {
        let codec = Line2Codec::shared();
        let golden = codec.encode(&sample_data(6));
        let mut diff = golden;
        diff.flip_bit(5);
        diff.flip_bit(520);
        diff.flip_bit(562);
        diff.xor_assign(&golden);
        assert_eq!(
            LineCode::iter_ones(&diff).collect::<Vec<_>>(),
            [5, 520, 562]
        );
        assert_eq!(LineCode::count_ones(&diff), 3);
    }
}
