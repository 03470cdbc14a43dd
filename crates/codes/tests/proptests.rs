//! Property-based tests for the code substrate.

use proptest::collection::btree_set;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;
use sudoku_codes::{
    crc31, group_parity, line_ecc, reconstruct, BchOutcome, BitBuf, HammingOutcome, HammingSec,
    LineCodec, LineData, ProtectedLine, ReadCheck, RepairKind, CRC_BITS, DATA_BITS, TOTAL_BITS,
};

fn arb_line_data() -> impl Strategy<Value = LineData> {
    prop::array::uniform8(any::<u64>()).prop_map(LineData::from_words)
}

fn arb_bitbuf(len: usize) -> impl Strategy<Value = BitBuf> {
    prop::collection::vec(any::<bool>(), len).prop_map(move |bits| {
        let mut buf = BitBuf::zeros(len);
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                buf.set(i, true);
            }
        }
        buf
    })
}

/// The line codec as composed from the public CRC-31 and Hamming codes:
/// CRC compare, Hamming decode of the 543-bit payload (data ‖ CRC), then
/// a CRC re-check of the candidate.
struct ReferenceCodec {
    hamming: HammingSec,
}

impl ReferenceCodec {
    fn shared() -> &'static Self {
        static REFERENCE: OnceLock<ReferenceCodec> = OnceLock::new();
        REFERENCE.get_or_init(|| ReferenceCodec {
            hamming: HammingSec::new(DATA_BITS + CRC_BITS),
        })
    }

    fn payload(line: &ProtectedLine) -> BitBuf {
        let mut words = line.data.words().to_vec();
        words.push(u64::from(line.crc));
        BitBuf::from_words(words, DATA_BITS + CRC_BITS)
    }

    fn crc_ok(line: &ProtectedLine) -> bool {
        crc31().checksum_line(&line.data) as u32 == line.crc
    }

    fn encode(&self, data: &LineData) -> ProtectedLine {
        let mut line = ProtectedLine {
            data: *data,
            crc: crc31().checksum_line(data) as u32,
            ecc: 0,
        };
        line.ecc = self.hamming.encode(&Self::payload(&line)) as u16;
        line
    }

    fn validate(&self, line: &ProtectedLine) -> bool {
        Self::crc_ok(line)
            && self
                .hamming
                .syndrome(&Self::payload(line), u32::from(line.ecc))
                == 0
    }

    fn read_check(&self, line: &ProtectedLine) -> ReadCheck {
        if Self::crc_ok(line) {
            return ReadCheck::Clean;
        }
        self.ecc1_repair(line)
    }

    fn scrub_check(&self, line: &ProtectedLine) -> ReadCheck {
        if !Self::crc_ok(line) {
            return self.ecc1_repair(line);
        }
        if self.validate(line) {
            return ReadCheck::Clean;
        }
        let repaired = ProtectedLine {
            ecc: self.hamming.encode(&Self::payload(line)) as u16,
            ..*line
        };
        ReadCheck::Corrected {
            repaired,
            kind: RepairKind::EccField,
        }
    }

    fn ecc1_repair(&self, line: &ProtectedLine) -> ReadCheck {
        let mut payload = Self::payload(line);
        match self.hamming.decode(&mut payload, u32::from(line.ecc)) {
            HammingOutcome::CorrectedPayload(idx) => {
                let mut repaired = *line;
                repaired.flip_bit(idx);
                if Self::crc_ok(&repaired) {
                    ReadCheck::Corrected {
                        repaired,
                        kind: RepairKind::PayloadBit(idx),
                    }
                } else {
                    ReadCheck::MultiBit
                }
            }
            _ => ReadCheck::MultiBit,
        }
    }
}

/// Checks every public codec answer for `line` against the reference.
fn matches_reference(line: &ProtectedLine) -> Result<(), TestCaseError> {
    let (codec, reference) = (LineCodec::shared(), ReferenceCodec::shared());
    prop_assert_eq!(codec.validate(line), reference.validate(line));
    prop_assert_eq!(codec.read_check(line), reference.read_check(line));
    prop_assert_eq!(codec.scrub_check(line), reference.scrub_check(line));
    Ok(())
}

/// `golden` with the stored bits in `flips` flipped.
fn flipped(golden: ProtectedLine, flips: &BTreeSet<usize>) -> ProtectedLine {
    let mut line = golden;
    for &f in flips {
        line.flip_bit(f);
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random data with 0–9 random flips: the dense shape.
    #[test]
    fn codec_matches_reference_on_random_lines(
        data in arb_line_data(),
        flips in btree_set(0usize..TOTAL_BITS, 0..=9)
    ) {
        let golden = LineCodec::shared().encode(&data);
        prop_assert_eq!(golden, ReferenceCodec::shared().encode(&data));
        matches_reference(&flipped(golden, &flips))?;
    }

    /// Zero data with 0–9 flips: the sparse Monte-Carlo shape.
    #[test]
    fn codec_matches_reference_on_sparse_lines(
        flips in btree_set(0usize..TOTAL_BITS, 0..=9)
    ) {
        let line = flipped(ProtectedLine::zero(), &flips);
        prop_assert_eq!(
            LineCodec::shared().encode(&line.data),
            ReferenceCodec::shared().encode(&line.data)
        );
        matches_reference(&line)?;
    }

    /// Arbitrary CRC and ECC fields over random or sparse data, so every
    /// syndrome class is seen, out-of-width bits included (a set CRC bit
    /// 31, ECC bits 10..16).
    #[test]
    fn codec_matches_reference_on_arbitrary_fields(
        data in arb_line_data(),
        sparse_data in btree_set(0usize..DATA_BITS, 0..=4),
        dense in any::<bool>(),
        crc in any::<u32>(),
        ecc in any::<u16>()
    ) {
        let data = if dense { data } else { flipped(ProtectedLine::zero(), &sparse_data).data };
        matches_reference(&ProtectedLine { data, crc, ecc })?;
    }
}

/// Every one of the 553 single flips and 152 628 flip pairs, on a dense
/// golden line and on the zero line, classifies as the reference does.
#[test]
fn every_single_and_double_flip_classifies_as_the_reference() {
    let codec = LineCodec::shared();
    let dense = LineData::from_words(std::array::from_fn(|i| {
        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2 * i as u64 + 1)
    }));
    for golden in [codec.encode(&dense), ProtectedLine::zero()] {
        for a in 0..TOTAL_BITS {
            let single = flipped(golden, &BTreeSet::from([a]));
            matches_reference(&single).unwrap();
            for b in a + 1..TOTAL_BITS {
                matches_reference(&flipped(single, &BTreeSet::from([b]))).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CRC linearity: crc(a ^ b) == crc(a) ^ crc(b).
    #[test]
    fn crc_is_linear(a in arb_line_data(), b in arb_line_data()) {
        let e = crc31();
        prop_assert_eq!(
            e.checksum_line(&a.xor(&b)),
            e.checksum_line(&a) ^ e.checksum_line(&b)
        );
    }

    /// Any 1..=3 bit error over a line is detected by CRC-31.
    #[test]
    fn crc_detects_small_errors(
        data in arb_line_data(),
        flips in btree_set(0usize..512, 1..=3)
    ) {
        let e = crc31();
        let golden = e.checksum_line(&data);
        let mut corrupted = data;
        for f in flips {
            corrupted.flip_bit(f);
        }
        prop_assert_ne!(e.checksum_line(&corrupted), golden);
    }

    /// Hamming corrects every single-bit payload error, for random payloads.
    #[test]
    fn hamming_corrects_single_errors(
        payload in arb_bitbuf(543),
        pos in 0usize..543
    ) {
        let code = HammingSec::new(543);
        let check = code.encode(&payload);
        let mut corrupted = payload.clone();
        corrupted.flip(pos);
        let outcome = code.decode(&mut corrupted, check);
        prop_assert_eq!(outcome, HammingOutcome::CorrectedPayload(pos));
        prop_assert_eq!(corrupted, payload);
    }

    /// Line codec: encode/validate roundtrip and single-fault repair at any
    /// of the 553 stored positions.
    #[test]
    fn line_codec_repairs_any_single_fault(
        data in arb_line_data(),
        pos in 0usize..TOTAL_BITS
    ) {
        let codec = LineCodec::shared();
        let golden = codec.encode(&data);
        prop_assert!(codec.validate(&golden));
        let mut line = golden;
        line.flip_bit(pos);
        match codec.scrub_check(&line) {
            ReadCheck::Corrected { repaired, .. } => prop_assert_eq!(repaired, golden),
            other => return Err(TestCaseError::fail(format!("pos {pos}: {other:?}"))),
        }
    }

    /// Line codec flags any injected double fault as multi-bit (never a
    /// silent wrong repair) — CRC-31 guarantees detection of ≤7 faults.
    #[test]
    fn line_codec_flags_double_faults(
        data in arb_line_data(),
        flips in btree_set(0usize..TOTAL_BITS, 2..=2)
    ) {
        let codec = LineCodec::shared();
        let golden = codec.encode(&data);
        let mut line = golden;
        for &f in &flips {
            line.flip_bit(f);
        }
        match codec.read_check(&line) {
            ReadCheck::MultiBit => {}
            ReadCheck::Clean => {
                // Both flips were in the ECC field: invisible to the read
                // path by design; the scrubber must still not mis-repair.
                prop_assert!(flips.iter().all(|&f| f >= 543));
            }
            ReadCheck::Corrected { repaired, .. } => {
                // A "repair" that does not restore golden would be an SDC;
                // CRC-31 detects all ≤7-bit errors so this must be golden.
                prop_assert_eq!(repaired, golden);
            }
        }
    }

    /// RAID-4: reconstruction recovers any erased member of a random group.
    #[test]
    fn raid4_reconstructs_any_member(
        seeds in prop::collection::vec(any::<u64>(), 2..12),
        victim_sel in any::<prop::sample::Index>()
    ) {
        let codec = LineCodec::shared();
        let lines: Vec<ProtectedLine> = seeds
            .iter()
            .map(|&s| {
                let mut d = LineData::zero();
                let mut x = s | 1;
                for i in 0..512 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x & 1 == 1 {
                        d.set_bit(i, true);
                    }
                }
                codec.encode(&d)
            })
            .collect();
        let parity = group_parity(lines.iter());
        let victim = victim_sel.index(lines.len());
        let rebuilt = reconstruct(
            &parity,
            lines.iter().enumerate().filter(|(i, _)| *i != victim).map(|(_, l)| l),
        );
        prop_assert_eq!(rebuilt, lines[victim]);
    }

    /// BCH (t=3): corrects any ≤3 random errors across the codeword.
    #[test]
    fn bch_corrects_random_errors(
        data in arb_bitbuf(512),
        flips in btree_set(0usize..542, 1..=3)
    ) {
        let code = line_ecc(3).unwrap();
        let golden_parity = code.encode(&data);
        let mut rx_data = data.clone();
        let mut rx_parity = golden_parity.clone();
        for &f in &flips {
            if f < 30 {
                rx_parity.flip(f);
            } else {
                rx_data.flip(f - 30);
            }
        }
        let outcome = code.decode(&mut rx_data, &mut rx_parity);
        prop_assert!(matches!(outcome, BchOutcome::Corrected(_)));
        prop_assert_eq!(rx_data, data);
        prop_assert_eq!(rx_parity, golden_parity);
    }

    /// BCH never reports Clean when errors are present (any count 1..=8).
    #[test]
    fn bch_never_clean_with_errors(
        data in arb_bitbuf(512),
        flips in btree_set(0usize..512, 1..=8)
    ) {
        let code = line_ecc(2).unwrap();
        let mut parity = code.encode(&data);
        let mut rx = data.clone();
        for &f in &flips {
            rx.flip(f);
        }
        let outcome = code.decode(&mut rx, &mut parity);
        prop_assert_ne!(outcome, BchOutcome::Clean);
    }

    /// The slice-by-8 byte kernel and the word-walking `checksum_bits`
    /// kernel agree with the bit/byte-serial references at every length
    /// 0..=1024 bits.
    #[test]
    fn crc_word_kernels_match_reference(len in 0usize..=1024, seed in any::<u64>()) {
        let e = crc31();
        let mut buf = BitBuf::zeros(len);
        let mut x = seed | 1;
        for i in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                buf.set(i, true);
            }
        }
        prop_assert_eq!(e.checksum_bits(&buf), e.checksum_bits_reference(&buf));
        if len % 8 == 0 {
            // Byte-aligned: both word kernels must also match the
            // byte-serial reference over the same octet stream.
            let bytes: Vec<u8> = (0..len / 8)
                .map(|j| (buf.words()[j / 8] >> (8 * (j % 8))) as u8)
                .collect();
            prop_assert_eq!(e.checksum_bytes(&bytes), e.checksum_bytes_reference(&bytes));
            prop_assert_eq!(e.checksum_bits(&buf), e.checksum_bytes_reference(&bytes));
        }
    }
}
