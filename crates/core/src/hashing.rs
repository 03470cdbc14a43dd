//! Skewed RAID-Group hashing (paper §V-A).
//!
//! SuDoku-Z maps every line into **two** RAID-Groups using two hashes chosen
//! so that lines sharing a group under Hash-1 are *guaranteed* to land in
//! different groups under Hash-2. With a group of 2^b lines:
//!
//! * Hash-1 masks out the b least-significant line-address bits — a group is
//!   2^b consecutive lines;
//! * Hash-2 masks out the *next* b bits (`addr[2b-1 : b]`) — a group is the
//!   2^b lines that agree on everything except those bits.
//!
//! Two distinct lines in one Hash-1 group differ only in `addr[b-1:0]`; a
//! shared Hash-2 group would additionally force those bits equal, i.e. the
//! same line. Hence the disjointness guarantee the recovery algorithm of
//! §V-B relies on.

use crate::config::{ConfigError, SudokuConfig};
use serde::{Deserialize, Serialize};

/// Which hash dimension a group id belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HashDim {
    /// Hash-1: consecutive-line groups (present in X, Y, Z).
    H1,
    /// Hash-2: skewed groups (SuDoku-Z only).
    H2,
}

/// The pair of group-hash functions for a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkewedHashes {
    n_lines: u64,
    group_bits: u32,
}

impl SkewedHashes {
    /// Builds the hash pair for `n_lines` lines in groups of `group_lines`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadGroupSize`] if the group is not a power of two ≥ 2;
    /// [`ConfigError::LinesNotMultipleOfGroup`] if lines don't tile groups.
    /// (The caller enforces the stricter `group²` divisibility when Hash-2
    /// will actually be used; see [`SudokuConfig::validate`].)
    pub fn new(n_lines: u64, group_lines: u32) -> Result<Self, ConfigError> {
        if group_lines < 2 || !group_lines.is_power_of_two() {
            return Err(ConfigError::BadGroupSize(group_lines));
        }
        if n_lines == 0 || !n_lines.is_multiple_of(group_lines as u64) {
            return Err(ConfigError::LinesNotMultipleOfGroup {
                lines: n_lines,
                group: group_lines,
            });
        }
        Ok(SkewedHashes {
            n_lines,
            group_bits: group_lines.trailing_zeros(),
        })
    }

    /// Builds the hash pair from a validated config.
    pub fn from_config(config: &SudokuConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Self::new(config.geometry.lines(), config.group_lines)
    }

    /// Lines per group.
    pub fn group_lines(&self) -> u64 {
        1 << self.group_bits
    }

    /// Number of groups in each hash dimension.
    pub fn n_groups(&self) -> u64 {
        self.n_lines >> self.group_bits
    }

    /// Total number of lines.
    pub fn n_lines(&self) -> u64 {
        self.n_lines
    }

    /// Whether Hash-2 has its disjointness guarantee (`n_lines` is a
    /// multiple of `group²`).
    pub fn hash2_guaranteed(&self) -> bool {
        self.n_lines.is_multiple_of(1u64 << (2 * self.group_bits))
    }

    /// Group id of `line` under the given dimension.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[inline]
    pub fn group_of(&self, dim: HashDim, line: u64) -> u64 {
        assert!(line < self.n_lines, "line {line} out of range");
        let b = self.group_bits;
        match dim {
            HashDim::H1 => line >> b,
            HashDim::H2 => {
                let low = line & ((1 << b) - 1);
                let high = line >> (2 * b);
                (high << b) | low
            }
        }
    }

    /// The member lines of a group, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `group >= self.n_groups()`.
    pub fn members(&self, dim: HashDim, group: u64) -> impl Iterator<Item = u64> + '_ {
        assert!(group < self.n_groups(), "group {group} out of range");
        (0..self.group_lines()).map(move |i| self.member(dim, group, i))
    }

    /// Member `i` of a group: the `i`-th line [`SkewedHashes::members`]
    /// yields.
    #[inline]
    pub(crate) fn member(&self, dim: HashDim, group: u64, i: u64) -> u64 {
        let b = self.group_bits;
        match dim {
            HashDim::H1 => (group << b) | i,
            HashDim::H2 => {
                let low = group & ((1 << b) - 1);
                let high = group >> b;
                (high << (2 * b)) | (i << b) | low
            }
        }
    }

    /// Position of `line` within its group under `dim` — the inverse of
    /// [`SkewedHashes::members`], which yields `line` at this position of
    /// its group: `addr[b-1:0]` under Hash-1, `addr[2b-1:b]` under Hash-2.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[inline]
    pub fn member_index(&self, dim: HashDim, line: u64) -> u64 {
        assert!(line < self.n_lines, "line {line} out of range");
        let b = self.group_bits;
        let mask = (1 << b) - 1;
        match dim {
            HashDim::H1 => line & mask,
            HashDim::H2 => (line >> b) & mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_example_16_lines_groups_of_4() {
        // Paper Figure 5: 16 lines A..P, group of 4. Under Hash-1 the four
        // consecutive lines form a group; under Hash-2 every fourth line.
        let h = SkewedHashes::new(16, 4).unwrap();
        assert_eq!(h.n_groups(), 4);
        assert_eq!(
            h.members(HashDim::H1, 0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // B (=1), F (=5), J (=9), N (=13) share a Hash-2 group.
        assert_eq!(
            h.members(HashDim::H2, h.group_of(HashDim::H2, 1))
                .collect::<Vec<_>>(),
            vec![1, 5, 9, 13]
        );
        // D (=3), H, L, P likewise.
        assert_eq!(
            h.members(HashDim::H2, h.group_of(HashDim::H2, 3))
                .collect::<Vec<_>>(),
            vec![3, 7, 11, 15]
        );
    }

    #[test]
    fn disjointness_guarantee_exhaustive_small() {
        let h = SkewedHashes::new(256, 16).unwrap();
        assert!(h.hash2_guaranteed());
        for a in 0..256u64 {
            for b in (a + 1)..256 {
                let same1 = h.group_of(HashDim::H1, a) == h.group_of(HashDim::H1, b);
                let same2 = h.group_of(HashDim::H2, a) == h.group_of(HashDim::H2, b);
                assert!(
                    !(same1 && same2),
                    "lines {a},{b} share groups under both hashes"
                );
            }
        }
    }

    #[test]
    fn members_are_inverse_of_group_of() {
        let h = SkewedHashes::new(1 << 12, 64).unwrap();
        for dim in [HashDim::H1, HashDim::H2] {
            for group in [0u64, 1, 17, h.n_groups() - 1] {
                for (i, line) in h.members(dim, group).enumerate() {
                    assert_eq!(h.group_of(dim, line), group, "{dim:?} group {group}");
                    assert_eq!(h.member_index(dim, line), i as u64, "{dim:?} line {line}");
                    assert_eq!(h.member(dim, group, i as u64), line);
                }
            }
        }
    }

    #[test]
    fn every_line_in_exactly_one_group_per_dim() {
        let h = SkewedHashes::new(1024, 32).unwrap();
        for dim in [HashDim::H1, HashDim::H2] {
            let mut seen = vec![false; 1024];
            for g in 0..h.n_groups() {
                for line in h.members(dim, g) {
                    assert!(!seen[line as usize], "{dim:?} line {line} seen twice");
                    seen[line as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn paper_scale_group_of_uses_bits_8_0_and_17_9() {
        // §V-A: Hash-1 masks addr[8:0], Hash-2 masks addr[17:9].
        let h = SkewedHashes::new(1 << 20, 512).unwrap();
        let line = 0b10_110011001_010101010u64; // 20-bit address
        assert_eq!(h.group_of(HashDim::H1, line), line >> 9);
        let expect_h2 = ((line >> 18) << 9) | (line & 0x1FF);
        assert_eq!(h.group_of(HashDim::H2, line), expect_h2);
    }

    #[test]
    fn hash2_guarantee_requires_group_square() {
        let h = SkewedHashes::new(32, 8).unwrap(); // 32 < 64 = 8²
        assert!(!h.hash2_guaranteed());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SkewedHashes::new(16, 3).is_err());
        assert!(SkewedHashes::new(15, 4).is_err());
        assert!(SkewedHashes::new(0, 4).is_err());
    }
}
