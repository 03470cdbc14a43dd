//! RAID-4 XOR parity over stored lines (paper §III-A).
//!
//! Each RAID-Group of 512 lines is protected by one parity line holding the
//! bitwise XOR of every member's full 553-bit stored codeword. Because the
//! CRC and ECC layers are linear, a parity line built from valid codewords
//! is itself a valid codeword — convenient for keeping the Parity Line
//! Table self-checking.

use crate::line::ProtectedLine;

/// Computes the parity line of a group of stored lines.
///
/// # Examples
///
/// ```
/// use sudoku_codes::{group_parity, LineCodec, LineData};
///
/// let codec = LineCodec::shared();
/// let a = codec.encode(&LineData::zero());
/// let mut d = LineData::zero();
/// d.set_bit(3, true);
/// let b = codec.encode(&d);
/// let parity = group_parity([&a, &b]);
/// // Reconstruction: XOR of parity and all-but-one member yields the member.
/// assert_eq!(parity.xor(&a), b);
/// ```
pub fn group_parity<'a, I>(lines: I) -> ProtectedLine
where
    I: IntoIterator<Item = &'a ProtectedLine>,
{
    let mut acc = ProtectedLine::zero();
    for line in lines {
        acc.xor_assign(line);
    }
    acc
}

/// Reconstructs one missing member from the parity line and the remaining
/// members (classic RAID-4 recovery, paper §III-C.2).
pub fn reconstruct<'a, I>(parity: &ProtectedLine, others: I) -> ProtectedLine
where
    I: IntoIterator<Item = &'a ProtectedLine>,
{
    let mut acc = *parity;
    for line in others {
        acc.xor_assign(line);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::{LineCode, LineCodec, TOTAL_BITS};
    use crate::LineData;

    fn lines(n: usize) -> Vec<ProtectedLine> {
        let codec = LineCodec::shared();
        (0..n)
            .map(|i| {
                let mut d = LineData::zero();
                for b in 0..DATA_SPREAD {
                    let pos = (i * 131 + b * 37) % 512;
                    d.set_bit(pos, (i + b) % 3 == 0);
                }
                codec.encode(&d)
            })
            .collect()
    }

    const DATA_SPREAD: usize = 9;

    #[test]
    fn parity_of_empty_group_is_zero() {
        assert!(group_parity([]).is_zero());
    }

    #[test]
    fn parity_is_self_valid() {
        let ls = lines(8);
        let parity = group_parity(ls.iter());
        assert!(LineCodec::shared().validate(&parity));
    }

    #[test]
    fn reconstruct_recovers_any_member() {
        let ls = lines(6);
        let parity = group_parity(ls.iter());
        for skip in 0..ls.len() {
            let others = ls
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| l);
            assert_eq!(reconstruct(&parity, others), ls[skip], "member {skip}");
        }
    }

    #[test]
    fn mismatch_positions_locate_injected_faults() {
        let mut ls = lines(5);
        let stored_parity = group_parity(ls.iter());
        // Faults in member 2 at known positions.
        ls[2].flip_bit(17);
        ls[2].flip_bit(300);
        ls[2].flip_bit(TOTAL_BITS - 1);
        let recomputed = group_parity(ls.iter());
        assert_eq!(
            recomputed
                .xor(&stored_parity)
                .iter_ones()
                .collect::<Vec<_>>(),
            [17, 300, TOTAL_BITS - 1]
        );
    }

    #[test]
    fn overlapping_faults_cancel_in_parity() {
        // Two members faulty at the same position: the parity cannot see it
        // (paper §IV-B case 3).
        let mut ls = lines(5);
        let stored_parity = group_parity(ls.iter());
        ls[1].flip_bit(100);
        ls[3].flip_bit(100);
        let recomputed = group_parity(ls.iter());
        assert_eq!(recomputed.xor(&stored_parity).iter_ones().next(), None);
    }
}
