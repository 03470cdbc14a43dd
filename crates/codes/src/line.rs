//! The SuDoku per-line codec: a 512-bit data payload protected by CRC-31
//! (detection) and ECC-1 (Hamming SEC correction).
//!
//! Per paper §III-E the CRC is computed over the data, and the ECC is
//! computed over CRC *and* data, so that ECC-1 can repair a single fault in
//! either field, and so that an ECC miscorrection is caught by the CRC
//! recheck. The stored line is therefore 553 bits:
//!
//! ```text
//! bit 0..512    data
//! bit 512..543  CRC-31 (over data)
//! bit 543..553  ECC-1 check bits (Hamming SEC over data‖CRC)
//! ```
//!
//! Storage overhead: 41 bits per line, vs 60 for ECC-6 (paper §VII-H counts
//! 43 with the amortized 2 bits of PLT parity storage).
//!
//! Both codes are linear and the zero line is a codeword, so a line's
//! CRC syndrome (31 bits) and Hamming syndrome (10 bits) are the XOR of
//! fixed per-bit columns of a 41 × 553 parity-check matrix — the software
//! form of the hardware XOR trees. [`LineCodec`] computes that one
//! syndrome per check (after the read path's CRC-only short-circuit) and
//! derives every answer from it, including the CRC re-check of an ECC-1
//! repair: the repair stands iff the repaired bit's CRC column equals the
//! CRC syndrome.

use crate::bits::{LineData, LINE_BITS};
use crate::crc::{crc31, CrcEngine};
use crate::hamming::HammingSec;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Data bits per line.
pub const DATA_BITS: usize = LINE_BITS;
/// CRC field width.
pub const CRC_BITS: usize = 31;
/// ECC-1 (Hamming SEC) check bits over the 543-bit payload.
pub const ECC_BITS: usize = 10;
/// Total stored bits per SuDoku line.
pub const TOTAL_BITS: usize = DATA_BITS + CRC_BITS + ECC_BITS;

/// The ECC-1 payload, data ‖ CRC: 543 bits.
const PAYLOAD_BITS: usize = DATA_BITS + CRC_BITS;
/// The CRC and ECC fields' widths as masks.
const CRC_MASK: u32 = (1 << CRC_BITS) - 1;
const ECC_MASK: u16 = (1 << ECC_BITS) - 1;
/// Where a packed syndrome's Hamming half starts. The CRC half below it
/// is 32 bits wide, so a set CRC bit 31 shows in it (see [`ProtectedLine`]).
const HAM_SHIFT: u32 = 32;

/// A stored SuDoku cache line: data plus CRC-31 plus ECC-1 metadata.
///
/// All 553 stored bits are addressable (and fault-injectable) through
/// [`ProtectedLine::bit`] / [`ProtectedLine::flip_bit`]; the XOR operations
/// act on the full codeword, which is what the RAID-4 parity lines store.
///
/// The metadata fields keep to their widths, `crc < 2³¹` and `ecc < 2¹⁰`:
/// [`LineCodec::encode`], [`ProtectedLine::flip_bit`] and the XORs of
/// in-width lines cannot leave that range. A line built by hand can, and
/// the checks stay defined for it: a set CRC bit 31 fails every check
/// (`MultiBit`, never repaired) and ECC bits 10..16 are ignored.
///
/// # Examples
///
/// ```
/// use sudoku_codes::{LineCodec, LineData};
///
/// let codec = LineCodec::shared();
/// let mut data = LineData::zero();
/// data.set_bit(9, true);
/// let line = codec.encode(&data);
/// assert!(codec.validate(&line));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ProtectedLine {
    /// The 512 data bits.
    pub data: LineData,
    /// The 31 CRC bits (low 31 bits used).
    pub crc: u32,
    /// The 10 ECC-1 check bits (low 10 bits used).
    pub ecc: u16,
}

impl ProtectedLine {
    /// The all-zero codeword (valid: zero data has zero CRC and zero ECC).
    pub const fn zero() -> Self {
        ProtectedLine {
            data: LineData::zero(),
            crc: 0,
            ecc: 0,
        }
    }

    /// Reads stored bit `i` (0..553, spanning data, CRC, ECC).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 553`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        if i < DATA_BITS {
            self.data.bit(i)
        } else if i < DATA_BITS + CRC_BITS {
            (self.crc >> (i - DATA_BITS)) & 1 == 1
        } else if i < TOTAL_BITS {
            (self.ecc >> (i - DATA_BITS - CRC_BITS)) & 1 == 1
        } else {
            panic!("stored-bit index {i} out of range");
        }
    }

    /// Flips stored bit `i` (0..553).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 553`.
    #[inline]
    pub fn flip_bit(&mut self, i: usize) {
        if i < DATA_BITS {
            self.data.flip_bit(i);
        } else if i < DATA_BITS + CRC_BITS {
            self.crc ^= 1 << (i - DATA_BITS);
        } else if i < TOTAL_BITS {
            self.ecc ^= 1 << (i - DATA_BITS - CRC_BITS);
        } else {
            panic!("stored-bit index {i} out of range");
        }
    }

    /// XORs another stored line into this one (all 553 bits).
    ///
    /// Because CRC and Hamming are linear, the XOR of valid codewords is a
    /// valid codeword — the property RAID-4 parity lines rely on.
    #[inline]
    pub fn xor_assign(&mut self, other: &ProtectedLine) {
        self.data.xor_assign(&other.data);
        self.crc ^= other.crc;
        self.ecc ^= other.ecc;
    }

    /// Returns the XOR of two stored lines.
    #[inline]
    pub fn xor(&self, other: &ProtectedLine) -> ProtectedLine {
        let mut out = *self;
        out.xor_assign(other);
        out
    }

    /// Stored-bit positions at which two lines differ, ascending.
    pub fn diff_positions(&self, other: &ProtectedLine) -> Vec<usize> {
        self.xor(other).iter_ones().collect()
    }

    /// Whether every stored bit is zero (one OR over every field, no
    /// branches).
    #[inline]
    pub fn is_zero(&self) -> bool {
        (self.data.or_words() | self.crc as u64 | self.ecc as u64) == 0
    }
}

/// Ascending positions of the set bits of a metadata field whose bit 0
/// is stored bit `first`.
pub(crate) fn field_ones(mut bits: u64, first: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let i = first + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            i
        })
    })
}

/// How a single-fault repair fixed a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RepairKind {
    /// A data or CRC bit at this stored-bit position was flipped back.
    PayloadBit(usize),
    /// The ECC field itself was faulty and was regenerated.
    EccField,
}

/// Classification of a stored line by the read path (paper §III-B/C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReadCheck<L = ProtectedLine> {
    /// CRC syndrome is zero: the line is served as-is.
    Clean,
    /// The line's ECC repaired the fault(s) it can correct and the CRC
    /// re-check passed.
    Corrected {
        /// The repaired stored line (write it back).
        repaired: L,
        /// What was repaired.
        kind: RepairKind,
    },
    /// The ECC could not produce a CRC-consistent line: multi-bit error,
    /// escalate to RAID-4 / SDR / skewed-hash recovery.
    MultiBit,
}

/// A stored line under a linear per-line code (XORs of codewords are
/// codewords): what the group-repair ladder needs to run over it.
/// Implemented by the ECC-1 [`ProtectedLine`] and the ECC-2
/// [`ProtectedLine2`](crate::ProtectedLine2).
pub trait LineCode: Copy {
    /// The codec that checks this line.
    type Codec: 'static;

    /// The scrub-path check: clean, repaired by the line's own ECC with
    /// the CRC re-checked, or multi-bit.
    fn scrub_check(codec: &Self::Codec, line: &Self) -> ReadCheck<Self>;

    /// Full consistency: CRC and ECC both match.
    fn validate(codec: &Self::Codec, line: &Self) -> bool;

    /// Whether every stored bit is zero.
    fn is_zero(&self) -> bool;

    /// XORs another stored line into this one.
    fn xor_assign(&mut self, other: &Self);

    /// Flips one stored bit.
    fn flip_bit(&mut self, i: usize);

    /// Number of set stored bits.
    fn count_ones(&self) -> u32;

    /// Positions of the set stored bits, ascending.
    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_;
}

impl LineCode for ProtectedLine {
    type Codec = LineCodec;

    #[inline]
    fn scrub_check(codec: &LineCodec, line: &Self) -> ReadCheck {
        codec.scrub_check(line)
    }

    #[inline]
    fn validate(codec: &LineCodec, line: &Self) -> bool {
        codec.validate(line)
    }

    #[inline]
    fn is_zero(&self) -> bool {
        ProtectedLine::is_zero(self)
    }

    #[inline]
    fn xor_assign(&mut self, other: &Self) {
        ProtectedLine::xor_assign(self, other)
    }

    #[inline]
    fn flip_bit(&mut self, i: usize) {
        ProtectedLine::flip_bit(self, i)
    }

    #[inline]
    fn count_ones(&self) -> u32 {
        self.data.count_ones() + self.crc.count_ones() + self.ecc.count_ones()
    }

    /// Data, then CRC, then ECC positions, without allocating.
    #[inline]
    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.data
            .iter_ones()
            .chain(field_ones(u64::from(self.crc), DATA_BITS))
            .chain(field_ones(u64::from(self.ecc), DATA_BITS + CRC_BITS))
    }
}

/// The shared per-line encoder/decoder.
///
/// Every check derives from one 41-bit syndrome (see the module docs);
/// construction builds its column table once, so use
/// [`LineCodec::shared`] to reuse a single instance process-wide.
#[derive(Debug, Clone)]
pub struct LineCodec {
    crc: &'static CrcEngine,
    hamming: HammingSec,
    /// The syndrome of a line with only payload bit `i` set: its CRC
    /// syndrome in bits 0..31, its Hamming syndrome from bit
    /// `HAM_SHIFT`. (ECC bit `j`'s column is `1 << (HAM_SHIFT + j)`.)
    columns: [u64; PAYLOAD_BITS],
}

impl Default for LineCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl LineCodec {
    /// Builds a codec (CRC-31 + Hamming SEC over 543 bits).
    pub fn new() -> Self {
        let crc = crc31();
        let hamming = HammingSec::new(PAYLOAD_BITS);
        let columns = std::array::from_fn(|i| {
            let crc_col = if i < DATA_BITS {
                let mut unit = LineData::zero();
                unit.set_bit(i, true);
                crc.checksum_line(&unit)
            } else {
                1 << (i - DATA_BITS)
            };
            crc_col | u64::from(hamming.position(i)) << HAM_SHIFT
        });
        LineCodec {
            crc,
            hamming,
            columns,
        }
    }

    /// Process-wide shared codec instance.
    pub fn shared() -> &'static LineCodec {
        static CODEC: OnceLock<LineCodec> = OnceLock::new();
        CODEC.get_or_init(LineCodec::new)
    }

    /// The one check kernel: the line's CRC syndrome (low 32 bits) and
    /// Hamming syndrome (from bit `HAM_SHIFT`) as one word, zero iff the
    /// line is a codeword. It XORs the columns of the set bits, skipping
    /// zero words, so a golden-zero line with a few flips costs a few
    /// table reads. CRC bit 31 has no column and lands in the CRC half
    /// as itself; ECC bits past the field have no column and are dropped.
    #[inline]
    fn syndrome(&self, line: &ProtectedLine) -> u64 {
        let crc = line.crc & CRC_MASK;
        self.data_syndrome(&line.data)
            ^ self.column_xor(u64::from(crc), DATA_BITS)
            ^ u64::from(line.crc ^ crc)
            ^ u64::from(line.ecc & ECC_MASK) << HAM_SHIFT
    }

    /// The syndrome of the data bits alone: the data's CRC in the CRC
    /// half, its share of the Hamming check bits in the Hamming half.
    #[inline]
    fn data_syndrome(&self, data: &LineData) -> u64 {
        let mut s = 0;
        for (wi, &w) in data.words().iter().enumerate() {
            s ^= self.column_xor(w, wi * 64);
        }
        s
    }

    /// XOR of the columns of the set bits of `bits`, whose bit 0 is
    /// payload bit `first`.
    #[inline]
    fn column_xor(&self, mut bits: u64, first: usize) -> u64 {
        let mut s = 0;
        while bits != 0 {
            s ^= self.columns[first + bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        s
    }

    /// Encodes a data payload into a stored line (CRC over data, then ECC
    /// over data‖CRC, per paper §III-E): the data's CRC half is the CRC,
    /// and the CRC bits' columns complete the Hamming half.
    pub fn encode(&self, data: &LineData) -> ProtectedLine {
        let s = self.data_syndrome(data);
        let crc = s as u32;
        let s = s ^ self.column_xor(u64::from(crc), DATA_BITS);
        ProtectedLine {
            data: *data,
            crc,
            ecc: (s >> HAM_SHIFT) as u16,
        }
    }

    /// Whether the stored CRC matches the data (the one-cycle read check).
    #[inline]
    pub fn crc_ok(&self, line: &ProtectedLine) -> bool {
        self.crc.checksum_line(&line.data) as u32 == line.crc
    }

    /// Full consistency: CRC matches *and* the ECC field is consistent.
    /// Used by the scrubber (which repairs metadata too) and by tests.
    pub fn validate(&self, line: &ProtectedLine) -> bool {
        self.syndrome(line) == 0
    }

    /// The read-path check (paper §III-B/C): CRC syndrome, then ECC-1
    /// repair attempt, then CRC re-check.
    ///
    /// Note: per the paper, a clean CRC short-circuits — a latent fault in
    /// the ECC field is *not* noticed by reads (the scrub path,
    /// [`LineCodec::scrub_check`], handles it).
    pub fn read_check(&self, line: &ProtectedLine) -> ReadCheck {
        if self.crc_ok(line) {
            return ReadCheck::Clean;
        }
        self.classify(line, self.syndrome(line))
    }

    /// The scrub-path check: like [`LineCodec::read_check`], but a line
    /// whose data+CRC are clean while the ECC field is inconsistent gets
    /// its ECC field regenerated (the scrubber trusts CRC-validated data).
    pub fn scrub_check(&self, line: &ProtectedLine) -> ReadCheck {
        self.classify(line, self.syndrome(line))
    }

    /// Classifies `line` from its syndrome `s`.
    fn classify(&self, line: &ProtectedLine, s: u64) -> ReadCheck {
        let crc = s as u32;
        let ham = (s >> HAM_SHIFT) as u32;
        if crc == 0 {
            if ham == 0 {
                return ReadCheck::Clean;
            }
            let repaired = ProtectedLine {
                ecc: (line.ecc & ECC_MASK) ^ ham as u16,
                ..*line
            };
            return ReadCheck::Corrected {
                repaired,
                kind: RepairKind::EccField,
            };
        }
        // ECC-1 flips the payload bit the Hamming syndrome names; the CRC
        // re-check of that candidate passes iff the bit's CRC column is
        // the whole CRC syndrome. Otherwise ECC-1 miscorrected (the fault
        // was multi-bit) and the CRC caught it, exactly as §III-E intends.
        // A zero, check-bit or out-of-range Hamming syndrome under a CRC
        // miss is more than one fault too. Escalate.
        match self.hamming.payload_index(ham) {
            Some(idx) if self.columns[idx] as u32 == crc => {
                let mut repaired = *line;
                repaired.flip_bit(idx);
                ReadCheck::Corrected {
                    repaired,
                    kind: RepairKind::PayloadBit(idx),
                }
            }
            _ => ReadCheck::MultiBit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn sample_data(seed: u64) -> LineData {
        let mut data = LineData::zero();
        let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        for i in 0..DATA_BITS {
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
    fn total_bits_is_553() {
        assert_eq!(TOTAL_BITS, 553);
    }

    #[test]
    fn encode_validate_roundtrip() {
        let codec = LineCodec::shared();
        let line = codec.encode(&sample_data(1));
        assert!(codec.validate(&line));
        assert_eq!(codec.read_check(&line), ReadCheck::Clean);
    }

    #[test]
    fn every_single_bit_fault_is_repaired() {
        let codec = LineCodec::shared();
        let golden = codec.encode(&sample_data(2));
        for i in 0..TOTAL_BITS {
            let mut line = golden;
            line.flip_bit(i);
            match codec.scrub_check(&line) {
                ReadCheck::Clean => {
                    // Only reachable for ECC-field faults on the read path;
                    // the scrub path must not report Clean for any flip.
                    panic!("bit {i}: scrub_check returned Clean on a faulty line");
                }
                ReadCheck::Corrected { repaired, .. } => {
                    assert_eq!(repaired, golden, "bit {i} repaired incorrectly");
                }
                ReadCheck::MultiBit => panic!("bit {i}: single fault deemed multi-bit"),
            }
        }
    }

    #[test]
    fn read_path_ignores_ecc_field_faults() {
        // Per §III-B the read check is the CRC syndrome only.
        let codec = LineCodec::shared();
        let golden = codec.encode(&sample_data(3));
        let mut line = golden;
        line.flip_bit(TOTAL_BITS - 1); // an ECC-field bit
        assert_eq!(codec.read_check(&line), ReadCheck::Clean);
        // The scrubber regenerates it.
        match codec.scrub_check(&line) {
            ReadCheck::Corrected {
                repaired,
                kind: RepairKind::EccField,
            } => assert_eq!(repaired, golden),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn double_faults_are_flagged_multibit() {
        let codec = LineCodec::shared();
        let golden = codec.encode(&sample_data(4));
        for (a, b) in [(0usize, 1usize), (10, 300), (511, 512), (100, 542)] {
            let mut line = golden;
            line.flip_bit(a);
            line.flip_bit(b);
            assert_eq!(
                codec.read_check(&line),
                ReadCheck::MultiBit,
                "faults at {a},{b}"
            );
        }
    }

    #[test]
    fn out_of_width_fields_are_detected_or_ignored() {
        let codec = LineCodec::shared();
        let golden = codec.encode(&sample_data(8));
        // CRC bit 31 has no column: never clean, never repaired, also
        // beside a single fault ECC-1 could otherwise fix.
        for extra_flip in [None, Some(5), Some(520), Some(550)] {
            let mut line = golden;
            line.crc |= 1 << 31;
            if let Some(i) = extra_flip {
                line.flip_bit(i);
            }
            assert!(!codec.validate(&line));
            assert_eq!(codec.read_check(&line), ReadCheck::MultiBit);
            assert_eq!(codec.scrub_check(&line), ReadCheck::MultiBit);
        }
        // ECC bits past the field are ignored, and an ECC-field repair
        // writes an in-width field.
        let mut line = golden;
        line.ecc |= 1 << 12;
        assert!(codec.validate(&line));
        line.flip_bit(TOTAL_BITS - 1);
        let repaired = golden;
        let kind = RepairKind::EccField;
        assert_eq!(
            codec.scrub_check(&line),
            ReadCheck::Corrected { repaired, kind }
        );
    }

    #[test]
    fn xor_of_valid_codewords_is_valid() {
        let codec = LineCodec::shared();
        let a = codec.encode(&sample_data(5));
        let b = codec.encode(&sample_data(6));
        let c = a.xor(&b);
        assert!(codec.validate(&c), "linearity violated");
    }

    #[test]
    fn diff_positions_cover_all_fields() {
        let golden = LineCodec::shared().encode(&sample_data(7));
        let mut line = golden;
        line.flip_bit(5);
        line.flip_bit(520);
        line.flip_bit(550);
        assert_eq!(line.diff_positions(&golden), vec![5, 520, 550]);
    }

    #[test]
    fn zero_line_is_valid() {
        let codec = LineCodec::shared();
        assert!(codec.validate(&ProtectedLine::zero()));
    }

    #[test]
    fn bit_and_flip_agree() {
        let mut line = ProtectedLine::zero();
        for i in [0usize, 511, 512, 542, 543, 552] {
            assert!(!line.bit(i));
            line.flip_bit(i);
            assert!(line.bit(i));
        }
        assert_eq!(line.count_ones(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bit_panics() {
        ProtectedLine::zero().bit(TOTAL_BITS);
    }
}
