//! The line store of one service shard, kept in the lock-free view.
//!
//! A shard owns every `N`-th Hash-1 group ([`ShardPlan`]), so its lines
//! are a fixed, known set. [`ShardStore`] keeps no table of its own: each
//! owned line lives in its [`LineView`] slot, the service's only copy of
//! it (88 bytes per line, seqlock included). `line` loads the slot, and
//! `line_and_codeword` returns its codeword mark with it, so a write whose
//! old value is marked skips the CRC+ECC check of that value. `set_line`
//! publishes into the slot marked a codeword, and `flip_bit` (fault
//! injection, stuck-cell reasserts) publishes the flipped line unmarked.
//! The mark is sound because of [`LineStore::set_line`]'s contract: the
//! cache stores only codewords there, which debug builds assert. All
//! store reads and writes happen under the shard mutex the cache sits
//! behind, which is the seqlock's writer serialization. Lock-free readers
//! therefore see exactly the store, line for line, and the sharded engine
//! never works out which lines a repair rewrote.

use crate::view::LineView;
use std::sync::Arc;
use sudoku_codes::{LineCodec, ProtectedLine};
use sudoku_core::{LineStore, ShardPlan};

/// One shard's owned lines, stored in their view slots.
pub(crate) struct ShardStore {
    n_lines: u64,
    shard: u64,
    n_shards: u64,
    group_bits: u32,
    view: Arc<LineView>,
}

impl ShardStore {
    /// The store of `shard`'s lines under `plan`, kept in `view`.
    pub(crate) fn new(plan: &ShardPlan, shard: usize, view: Arc<LineView>) -> Self {
        let hashes = plan.hashes();
        ShardStore {
            n_lines: hashes.n_lines(),
            shard: shard as u64,
            n_shards: plan.n_shards() as u64,
            group_bits: hashes.group_lines().trailing_zeros(),
            view,
        }
    }

    /// Whether this shard owns `line`. Panics if `line` is out of range.
    #[inline]
    fn owns(&self, line: u64) -> bool {
        assert!(line < self.n_lines, "line {line} out of range");
        (line >> self.group_bits) % self.n_shards == self.shard
    }

    /// Panics unless this shard owns `idx`.
    fn assert_owned(&self, idx: u64) {
        assert!(
            self.owns(idx),
            "line {idx} is not owned by shard {}",
            self.shard
        );
    }
}

impl LineStore for ShardStore {
    fn n_lines(&self) -> u64 {
        self.n_lines
    }

    /// A line another shard owns reads as the zero codeword.
    fn line(&self, idx: u64) -> ProtectedLine {
        self.line_and_codeword(idx).0
    }

    /// The line and its slot's codeword mark, from one slot load (the
    /// caller holds the shard mutex, so the pair is untorn).
    fn line_and_codeword(&self, idx: u64) -> (ProtectedLine, bool) {
        if self.owns(idx) {
            self.view.load(idx)
        } else {
            (ProtectedLine::zero(), true)
        }
    }

    /// Publishes `line` into its slot marked a codeword, which the
    /// trait's contract makes it. Panics if another shard owns `idx`.
    fn set_line(&mut self, idx: u64, line: ProtectedLine) {
        self.assert_owned(idx);
        debug_assert!(
            LineCodec::shared().validate(&line),
            "line {idx}: set_line stores only codewords"
        );
        self.view.publish(idx, &line, true);
    }

    /// Publishes the flipped line unmarked: lock-free reads and sweeps
    /// check it again. Panics if another shard owns `idx`.
    fn flip_bit(&mut self, idx: u64, bit: usize) {
        self.assert_owned(idx);
        let (mut line, _) = self.view.load(idx);
        line.flip_bit(bit);
        self.view.publish(idx, &line, false);
    }

    /// One slot load. Exact: only a non-zero line is returned, as in a
    /// sparse store.
    fn materialized_line(&self, idx: u64) -> Option<ProtectedLine> {
        let line = self.line(idx);
        (!line.is_zero()).then_some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewRead;
    use sudoku_codes::{LineCodec, LineData};
    use sudoku_core::{Scheme, SudokuConfig};

    fn plan(n_shards: usize) -> ShardPlan {
        ShardPlan::new(&SudokuConfig::small(Scheme::Z, 256, 16), n_shards).unwrap()
    }

    fn store(plan: &ShardPlan, shard: usize) -> ShardStore {
        let view = Arc::new(LineView::new(256, plan.n_shards()));
        ShardStore::new(plan, shard, view)
    }

    fn encoded(bit: usize) -> ProtectedLine {
        let mut d = LineData::zero();
        d.set_bit(bit, true);
        LineCodec::shared().encode(&d)
    }

    #[test]
    fn non_owned_line_reads_as_zero() {
        let plan = plan(4);
        let view = Arc::new(LineView::new(256, 4));
        let mut mine = ShardStore::new(&plan, 0, Arc::clone(&view));
        let mut theirs = ShardStore::new(&plan, 1, view);
        let foreign = plan.owned_line_at(1, 0);
        mine.set_line(0, encoded(3));
        theirs.set_line(foreign, encoded(4));
        // The slot holds shard 1's line; shard 0's store does not see it.
        assert!(mine.line(foreign).is_zero());
        assert_eq!(mine.materialized_line(foreign), None);
        assert_eq!(theirs.line(foreign), encoded(4));
    }

    #[test]
    #[should_panic(expected = "not owned by shard 0")]
    fn non_owned_write_panics() {
        let plan = plan(4);
        store(&plan, 0).set_line(plan.owned_line_at(2, 5), encoded(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        store(&plan(2), 0).line(256);
    }

    #[test]
    fn set_flip_and_read_round_trip() {
        let plan = plan(4);
        let line = plan.owned_line_at(3, 21);
        let mut store = store(&plan, 3);
        assert_eq!(store.materialized_line(line), None);
        let value = encoded(77);
        store.set_line(line, value);
        assert_eq!(store.line(line), value);
        assert_eq!(store.materialized_line(line), Some(value));
        store.flip_bit(line, 500);
        let mut flipped = value;
        flipped.flip_bit(500);
        assert_eq!(store.line(line), flipped);
        store.flip_bit(line, 500);
        assert_eq!(store.line(line), value);
        store.set_line(line, ProtectedLine::zero());
        assert_eq!(store.materialized_line(line), None);
    }

    #[test]
    fn every_write_reaches_the_view() {
        let plan = plan(2);
        let view = Arc::new(LineView::new(256, 2));
        let mut store = ShardStore::new(&plan, 1, Arc::clone(&view));
        let line = plan.owned_line_at(1, 9);
        store.set_line(line, encoded(40));
        assert_eq!(view.slot_line(line), Some(encoded(40)));
        assert!(view.is_marked(line));
        store.flip_bit(line, 2);
        assert_eq!(view.slot_line(line), Some(store.line(line)));
        assert!(!view.is_marked(line));
        assert!(matches!(view.try_read(line, 1), (ViewRead::Miss, _)));
        // Flipped back, the slot holds a codeword again, unmarked: the
        // read proves it clean through the CRC.
        store.flip_bit(line, 2);
        assert!(!view.is_marked(line));
        assert_eq!(view.try_read(line, 1).0, ViewRead::Clean(encoded(40).data));
        let mut stats = sudoku_core::CacheStats::default();
        view.fold_stats(1, &mut stats);
        assert_eq!((stats.reads, stats.crc_checks), (1, 1));
        store.set_line(line, encoded(41));
        assert!(view.is_marked(line));
    }

    #[test]
    #[should_panic(expected = "not owned by shard 1")]
    fn non_owned_flip_panics() {
        let plan = plan(4);
        store(&plan, 1).flip_bit(plan.owned_line_at(2, 5), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "set_line stores only codewords")]
    fn storing_a_non_codeword_is_caught_in_debug_builds() {
        let plan = plan(2);
        let mut faulty = encoded(7);
        faulty.flip_bit(8);
        store(&plan, 0).set_line(plan.owned_line_at(0, 1), faulty);
    }

    #[test]
    fn spared_slot_stores_writes_but_serves_no_lock_free_read() {
        let plan = plan(2);
        let view = Arc::new(LineView::new(256, 2));
        let mut store = ShardStore::new(&plan, 0, Arc::clone(&view));
        let line = plan.owned_line_at(0, 3);
        store.set_line(line, encoded(9));
        view.mark_spared(line);
        store.set_line(line, encoded(10));
        store.flip_bit(line, 100);
        let mut expect = encoded(10);
        expect.flip_bit(100);
        assert_eq!(store.line(line), expect);
        store.flip_bit(line, 100);
        assert!(matches!(view.try_read(line, 0), (ViewRead::Miss, _)));
    }
}
