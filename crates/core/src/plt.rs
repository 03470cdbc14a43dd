//! The Parity Line Table (paper §III-A, Figure 1).
//!
//! One parity line per RAID-Group, holding the XOR of all member lines'
//! full stored codewords. The PLT lives in SRAM next to the STTRAM array,
//! so — unlike the data lines — it does not suffer retention failures; it
//! is updated on every logical write (read-modify-write of the parity,
//! §III-B) and *not* on fault flips, which is precisely why a parity
//! mismatch localizes faults.
//!
//! A table allocates nothing until its first write: until then every group
//! reads as the zero parity, just as an untouched
//! [`SparseStore`](crate::SparseStore) line reads as the zero codeword. A
//! Monte-Carlo arena never writes, so it never pays for zeroing its tables.

use serde::{Deserialize, Serialize};
use sudoku_codes::ProtectedLine;

/// The parity every group of an unwritten table reads as.
static ZERO_PARITY: ProtectedLine = ProtectedLine::zero();

/// A table of RAID-4 parity lines, one per group.
///
/// Equality compares the parities group by group, so an unwritten table
/// equals one written and then [`ParityTable::reset_zero`]ed.
#[derive(Clone, Debug, Eq, Serialize, Deserialize)]
pub struct ParityTable {
    n_groups: u64,
    /// One parity per group once the table is first written; empty (every
    /// parity zero) before that.
    parities: Vec<ProtectedLine>,
    writes: u64,
    /// Groups whose parity may have left the zero state since construction
    /// or the last [`ParityTable::reset_zero`] (may contain duplicates);
    /// lets the reset undo exactly the touched entries instead of
    /// rewriting the whole table.
    dirty: Vec<u64>,
    /// Set when the dirty list outgrew the table: the tracking degrades to
    /// "everything may be dirty" rather than growing without bound.
    dirty_all: bool,
}

impl PartialEq for ParityTable {
    fn eq(&self, other: &Self) -> bool {
        self.n_groups == other.n_groups
            && self.writes == other.writes
            && self.dirty == other.dirty
            && self.dirty_all == other.dirty_all
            && (0..self.n_groups).all(|g| self.parity(g) == other.parity(g))
    }
}

impl ParityTable {
    /// A table for `n_groups` groups, all parities zero (consistent with an
    /// all-zero cache, since the zero codeword is valid). Allocates nothing.
    pub fn new(n_groups: u64) -> Self {
        ParityTable {
            n_groups,
            parities: Vec::new(),
            writes: 0,
            dirty: Vec::new(),
            dirty_all: false,
        }
    }

    /// Number of groups covered.
    pub fn n_groups(&self) -> u64 {
        self.n_groups
    }

    /// The stored parity line of `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[inline]
    pub fn parity(&self, group: u64) -> &ProtectedLine {
        assert!(group < self.n_groups, "group {group} out of range");
        self.parities.get(group as usize).unwrap_or(&ZERO_PARITY)
    }

    /// The parity of `group`, for writing: the first write allocates the
    /// whole (zero) table. Panics if `group` is out of range.
    fn parity_mut(&mut self, group: u64) -> &mut ProtectedLine {
        if self.parities.is_empty() {
            self.parities = vec![ProtectedLine::zero(); self.n_groups as usize];
        }
        &mut self.parities[group as usize]
    }

    /// Applies a logical write: the member line changed from `old` to
    /// `new`, so XOR the difference into the group parity (the
    /// read-modify-write of §III-B).
    pub fn apply_write(&mut self, group: u64, old: &ProtectedLine, new: &ProtectedLine) {
        let p = self.parity_mut(group);
        p.xor_assign(old);
        p.xor_assign(new);
        self.writes += 1;
        self.mark_dirty(group);
    }

    /// Overwrites a group's parity (used when (re)initializing a cache).
    pub fn set_parity(&mut self, group: u64, parity: ProtectedLine) {
        *self.parity_mut(group) = parity;
        self.mark_dirty(group);
    }

    /// Number of parity updates performed (PLT write traffic, §VII-I).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    fn mark_dirty(&mut self, group: u64) {
        if !self.dirty_all {
            self.dirty.push(group);
            if self.dirty.len() as u64 > self.n_groups {
                self.dirty_all = true;
                self.dirty.clear();
            }
        }
    }

    /// Sparse undo: rezeroes every parity touched since construction (or
    /// the last reset), in O(touched groups) — the reset path campaign
    /// workers use to return a reused cache to the golden-zero state. A
    /// written table keeps its allocation; a never-written one has nothing
    /// to undo. The write-traffic counter deliberately survives (it
    /// measures cumulative PLT traffic, not current state).
    pub fn reset_zero(&mut self) {
        if self.dirty_all {
            self.parities.fill(ProtectedLine::zero());
            self.dirty_all = false;
        } else {
            for i in 0..self.dirty.len() {
                let g = self.dirty[i] as usize;
                self.parities[g] = ProtectedLine::zero();
            }
        }
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudoku_codes::{group_parity, LineCodec, LineData};

    #[test]
    fn new_table_is_zero() {
        let t = ParityTable::new(4);
        assert_eq!(t.n_groups(), 4);
        for g in 0..4 {
            assert!(t.parity(g).is_zero());
        }
    }

    #[test]
    fn apply_write_tracks_group_parity() {
        let codec = LineCodec::shared();
        let mut t = ParityTable::new(1);
        let mut members = vec![codec.encode(&LineData::zero()); 4];
        // Write new data into members 1 and 3.
        for (i, bit) in [(1usize, 10usize), (3, 200)] {
            let mut d = LineData::zero();
            d.set_bit(bit, true);
            let new = codec.encode(&d);
            t.apply_write(0, &members[i], &new);
            members[i] = new;
        }
        assert_eq!(*t.parity(0), group_parity(members.iter()));
        assert_eq!(t.write_count(), 2);
    }

    #[test]
    fn writes_commute_and_cancel() {
        let codec = LineCodec::shared();
        let mut t = ParityTable::new(1);
        let zero = codec.encode(&LineData::zero());
        let mut d = LineData::zero();
        d.set_bit(77, true);
        let val = codec.encode(&d);
        t.apply_write(0, &zero, &val);
        t.apply_write(0, &val, &zero);
        assert!(t.parity(0).is_zero());
    }

    #[test]
    fn reset_zero_undoes_touched_groups_only() {
        let codec = LineCodec::shared();
        let mut t = ParityTable::new(8);
        let zero = codec.encode(&LineData::zero());
        let mut d = LineData::zero();
        d.set_bit(5, true);
        let val = codec.encode(&d);
        t.apply_write(2, &zero, &val);
        t.set_parity(6, val);
        assert!(!t.parity(2).is_zero() && !t.parity(6).is_zero());
        t.reset_zero();
        for g in 0..8 {
            assert!(t.parity(g).is_zero(), "group {g}");
        }
        // Write traffic accounting survives the reset.
        assert_eq!(t.write_count(), 1);
        // Heavy churn trips the dirty-all fallback and still resets.
        for _ in 0..20 {
            t.apply_write(1, &zero, &val);
            t.apply_write(1, &val, &zero);
        }
        t.apply_write(3, &zero, &val);
        t.reset_zero();
        for g in 0..8 {
            assert!(t.parity(g).is_zero(), "group {g} after churn");
        }
    }

    #[test]
    fn unwritten_table_reads_zero_everywhere() {
        let t = ParityTable::new(64);
        assert!(t.parities.is_empty());
        for g in 0..64 {
            assert!(t.parity(g).is_zero(), "group {g}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unwritten_table_still_panics_out_of_range() {
        ParityTable::new(64).parity(64);
    }

    #[test]
    #[should_panic]
    fn unwritten_table_write_out_of_range_panics() {
        ParityTable::new(4).set_parity(4, ProtectedLine::zero());
    }

    #[test]
    fn unwritten_table_equals_written_then_reset() {
        let codec = LineCodec::shared();
        let mut d = LineData::zero();
        d.set_bit(9, true);
        let val = codec.encode(&d);
        let mut written = ParityTable::new(8);
        written.set_parity(3, val);
        assert_ne!(written, ParityTable::new(8));
        written.reset_zero();
        assert!(!written.parities.is_empty());
        assert_eq!(written, ParityTable::new(8));
        assert_eq!(ParityTable::new(8), written);
    }

    #[test]
    fn resetting_an_unwritten_table_is_a_no_op() {
        let mut t = ParityTable::new(8);
        t.reset_zero();
        assert!(t.parities.is_empty());
        assert_eq!(t, ParityTable::new(8));
    }

    #[test]
    #[should_panic]
    fn out_of_range_group_panics() {
        let t = ParityTable::new(2);
        t.parity(2);
    }
}
