//! The flat, write-through line store of one service shard.
//!
//! A shard owns every `N`-th Hash-1 group ([`ShardPlan`]), so its lines
//! are a fixed, known set. [`ShardStore`] keeps exactly those lines in one
//! `Vec<ProtectedLine>` indexed by shard-local position — the arithmetic
//! inverse of [`ShardPlan::owned_line_at`] — instead of a hash map keyed
//! by global line. The table is allocated on the shard's first write, so a
//! freshly started service pays nothing for it.
//!
//! Every mutation writes through: `set_line` (which `flip_bit` goes
//! through too) publishes the line's new value into its lock-free
//! [`LineView`] slot before it returns. All store writes happen under the
//! shard mutex the cache sits behind, which is the seqlock's writer
//! serialization. The view therefore mirrors the store line for line, and
//! the sharded engine never works out which lines a repair rewrote.

use crate::view::LineView;
use std::sync::Arc;
use sudoku_codes::ProtectedLine;
use sudoku_core::{LineStore, ShardPlan};

/// One shard's owned lines, flat, published into the view on every write.
pub(crate) struct ShardStore {
    n_lines: u64,
    shard: u64,
    n_shards: u64,
    group_bits: u32,
    owned: usize,
    /// Empty until the first write; then one entry per owned line.
    lines: Vec<ProtectedLine>,
    view: Option<Arc<LineView>>,
}

impl ShardStore {
    /// An empty (all-zero) store for `shard`'s lines under `plan`, writing
    /// through to `view` when there is one. Allocates no table.
    pub(crate) fn new(plan: &ShardPlan, shard: usize, view: Option<Arc<LineView>>) -> Self {
        let hashes = plan.hashes();
        ShardStore {
            n_lines: hashes.n_lines(),
            shard: shard as u64,
            n_shards: plan.n_shards() as u64,
            group_bits: hashes.group_lines().trailing_zeros(),
            owned: plan.owned_line_count(shard) as usize,
            lines: Vec::new(),
            view,
        }
    }

    /// Shard-local position of `line`, or `None` when another shard owns
    /// it. Panics if `line` is out of range.
    #[inline]
    fn position(&self, line: u64) -> Option<usize> {
        assert!(line < self.n_lines, "line {line} out of range");
        let group = line >> self.group_bits;
        let offset = line & ((1 << self.group_bits) - 1);
        (group % self.n_shards == self.shard)
            .then(|| (((group / self.n_shards) << self.group_bits) | offset) as usize)
    }
}

/// Fault injection (`flip_bit`) keeps the trait's default: read, flip,
/// `set_line`.
impl LineStore for ShardStore {
    fn n_lines(&self) -> u64 {
        self.n_lines
    }

    /// A line another shard owns reads as the zero codeword.
    fn line(&self, idx: u64) -> ProtectedLine {
        self.position(idx)
            .and_then(|pos| self.lines.get(pos).copied())
            .unwrap_or_default()
    }

    /// Stores and publishes `line`. Panics if another shard owns `idx`.
    fn set_line(&mut self, idx: u64, line: ProtectedLine) {
        let Some(pos) = self.position(idx) else {
            panic!("line {idx} is not owned by shard {}", self.shard);
        };
        if self.lines.is_empty() {
            self.lines = vec![ProtectedLine::zero(); self.owned];
        }
        self.lines[pos] = line;
        if let Some(view) = &self.view {
            view.publish(idx, &line);
        }
    }

    /// Exact: only a non-zero line counts, as in a sparse store.
    fn is_materialized(&self, idx: u64) -> bool {
        !self.line(idx).is_zero()
    }

    /// Before the first write no line is materialized; after it every
    /// group member is visited.
    fn materialized_lines(&self) -> Option<impl ExactSizeIterator<Item = u64> + '_> {
        self.lines.is_empty().then(std::iter::empty)
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

    fn encoded(bit: usize) -> ProtectedLine {
        let mut d = LineData::zero();
        d.set_bit(bit, true);
        LineCodec::shared().encode(&d)
    }

    #[test]
    fn construction_allocates_no_table() {
        let store = ShardStore::new(&plan(4), 1, None);
        assert!(store.lines.is_empty());
        assert_eq!(store.n_lines(), 256);
        assert!(store.line(16).is_zero());
        assert_eq!(store.materialized_lines().map(|l| l.len()), Some(0));
    }

    #[test]
    fn positions_invert_owned_line_at() {
        for n in [1usize, 2, 3, 4, 8] {
            let plan = plan(n);
            for shard in 0..n {
                let store = ShardStore::new(&plan, shard, None);
                for idx in 0..plan.owned_line_count(shard) {
                    let line = plan.owned_line_at(shard, idx);
                    assert_eq!(
                        store.position(line),
                        Some(idx as usize),
                        "n {n} line {line}"
                    );
                }
                let foreign = (0..256).filter(|&l| plan.shard_of_line(l) != shard);
                assert!(foreign.into_iter().all(|l| store.position(l).is_none()));
            }
        }
    }

    #[test]
    fn non_owned_line_reads_as_zero() {
        let plan = plan(4);
        let mut store = ShardStore::new(&plan, 0, None);
        store.set_line(0, encoded(3));
        let foreign = plan.owned_line_at(1, 0);
        assert!(store.line(foreign).is_zero());
        assert!(!store.is_materialized(foreign));
    }

    #[test]
    #[should_panic(expected = "not owned by shard 0")]
    fn non_owned_write_panics() {
        let plan = plan(4);
        let mut store = ShardStore::new(&plan, 0, None);
        store.set_line(plan.owned_line_at(2, 5), encoded(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        ShardStore::new(&plan(2), 0, None).line(256);
    }

    #[test]
    fn set_flip_and_read_round_trip() {
        let plan = plan(4);
        let line = plan.owned_line_at(3, 21);
        let mut store = ShardStore::new(&plan, 3, None);
        let value = encoded(77);
        store.set_line(line, value);
        assert_eq!(store.line(line), value);
        assert!(store.is_materialized(line));
        assert!(store.materialized_lines().is_none());
        store.flip_bit(line, 500);
        let mut flipped = value;
        flipped.flip_bit(500);
        assert_eq!(store.line(line), flipped);
        store.flip_bit(line, 500);
        assert_eq!(store.line(line), value);
        store.set_line(line, ProtectedLine::zero());
        assert!(!store.is_materialized(line));
    }

    #[test]
    fn every_write_reaches_the_view() {
        let plan = plan(2);
        let view = Arc::new(LineView::new(256, 2).unwrap());
        let mut store = ShardStore::new(&plan, 1, Some(Arc::clone(&view)));
        let line = plan.owned_line_at(1, 9);
        store.set_line(line, encoded(40));
        assert_eq!(view.slot_line(line), Some(encoded(40)));
        store.flip_bit(line, 2);
        assert_eq!(view.slot_line(line), Some(store.line(line)));
        assert!(matches!(view.try_read(line, 1), (ViewRead::Miss, _)));
        store.flip_bit(line, 2);
        assert!(matches!(view.try_read(line, 1), (ViewRead::Clean(_), _)));
    }
}
