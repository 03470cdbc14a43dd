//! SuDoku over memories with *persistent* faults (paper §VI): SRAM below
//! V_min, near-threshold arrays, or STTRAM cells with permanent defects.
//!
//! A [`VminCache`] wraps a [`SudokuCache`] together with a
//! [`StuckBitMap`]: after every write — including the write-backs
//! performed by repairs — the stuck cells reassert their values. Reads and
//! scrubs therefore keep re-repairing the same lines, which is exactly the
//! §VI claim: the machinery built for transient faults handles permanent
//! ones with no boot-time testing and no fault map in the controller.
//! (The [`StuckBitMap`] lives in the *test harness* role of physics, not
//! in the controller.)

use crate::cache::{SudokuCache, UncorrectableError};
use crate::config::{ConfigError, SudokuConfig};
use crate::stats::ScrubReport;
use crate::store::{DenseStore, LineStore};
use sudoku_codes::LineData;
use sudoku_fault::StuckBitMap;

/// Reasserts the stuck cells of `line` onto `cache`'s stored copy — the
/// physics step that follows every write or repair write-back to a line
/// with permanent faults. Returns how many stored bits actually flipped.
///
/// Shared by [`VminCache`] and by sharded/service wrappers so the stuck-at
/// behaviour cannot diverge between the single-threaded reference and the
/// degraded-mode service path.
pub fn reassert_stuck<S: LineStore>(
    cache: &mut SudokuCache<S>,
    stuck: &StuckBitMap,
    line: u64,
) -> usize {
    let mut stored = cache.stored_line(line);
    let before = stored;
    let changed = stuck.apply(line, &mut stored);
    if changed > 0 {
        for bit in stored.diff_positions(&before) {
            cache.inject_fault(line, bit);
        }
    }
    changed
}

/// A SuDoku cache whose underlying array has stuck-at cells.
pub struct VminCache<S = DenseStore> {
    inner: SudokuCache<S>,
    stuck: StuckBitMap,
}

impl VminCache<DenseStore> {
    /// A fully materialized V_min cache.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from the SuDoku configuration.
    pub fn new(config: SudokuConfig, stuck: StuckBitMap) -> Result<Self, ConfigError> {
        let mut cache = VminCache {
            inner: SudokuCache::new(config)?,
            stuck,
        };
        cache.reassert_all();
        Ok(cache)
    }
}

impl<S: LineStore> VminCache<S> {
    /// Wraps an existing cache and fault map.
    pub fn from_parts(inner: SudokuCache<S>, stuck: StuckBitMap) -> Self {
        let mut cache = VminCache { inner, stuck };
        cache.reassert_all();
        cache
    }

    /// The wrapped SuDoku cache.
    pub fn inner(&self) -> &SudokuCache<S> {
        &self.inner
    }

    fn reassert(&mut self, idx: u64) {
        reassert_stuck(&mut self.inner, &self.stuck, idx);
    }

    fn reassert_all(&mut self) {
        let lines: Vec<u64> = self.stuck.iter().map(|(l, _)| l).collect();
        for l in lines {
            self.reassert(l);
        }
    }

    /// Writes `data`; the stuck cells immediately corrupt the stored copy.
    pub fn write(&mut self, idx: u64, data: &LineData) {
        self.inner.write(idx, data);
        self.reassert(idx);
    }

    /// Reads line `idx`, repairing around the stuck cells on demand.
    ///
    /// The repaired value is written back and promptly re-corrupted by the
    /// stuck cells — the data stays *readable* as long as the fault
    /// pattern is within SuDoku's reach, which is the §VI operating model.
    ///
    /// # Errors
    ///
    /// [`UncorrectableError`] if the persistent pattern exceeds the scheme.
    pub fn read(&mut self, idx: u64) -> Result<LineData, UncorrectableError> {
        let result = self.inner.read(idx);
        self.reassert(idx);
        result
    }

    /// Scrubs the whole cache; lines whose *only* damage is stuck cells
    /// come back as repair events every time (the §VI trade: repeated
    /// cheap corrections instead of testing + remapping).
    pub fn scrub(&mut self) -> ScrubReport {
        let report = self.inner.scrub();
        self.reassert_all();
        report
    }

    /// Whether every line is currently recoverable (scrub leaves no
    /// unresolved lines) — the "cache failure" predicate of Table IV.
    pub fn is_recoverable(&mut self) -> bool {
        self.scrub().fully_repaired()
    }
}

impl<S: LineStore> std::fmt::Debug for VminCache<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VminCache")
            .field("inner", &self.inner)
            .field("stuck_bits", &self.stuck.total_stuck_bits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn payload(i: u64) -> LineData {
        let mut d = LineData::zero();
        d.set_bit((i as usize * 19) % 512, true);
        d
    }

    #[test]
    fn single_stuck_bit_per_line_is_always_readable() {
        let mut stuck = StuckBitMap::new();
        for line in 0..16u64 {
            stuck.insert(line, (line as u16 * 31) % 553, true);
        }
        let mut cache =
            VminCache::new(SudokuConfig::small(Scheme::X, 64, 16), stuck).expect("valid config");
        for i in 0..64 {
            cache.write(i, &payload(i));
        }
        for round in 0..3 {
            for i in 0..64 {
                assert_eq!(
                    cache.read(i).expect("readable"),
                    payload(i),
                    "round {round}, line {i}"
                );
            }
        }
        // Reads on stuck data/CRC bits keep repairing (stuck ECC-field bits
        // are invisible to the read path, and a cell stuck at the value the
        // payload already holds never faults at all) — but across three
        // rounds of 16 stuck lines the counter must clearly grow.
        assert!(
            cache.inner().stats().ecc1_repairs >= 10,
            "repairs = {}",
            cache.inner().stats().ecc1_repairs
        );
    }

    #[test]
    fn multibit_stuck_line_recovered_via_group() {
        let mut stuck = StuckBitMap::new();
        for bit in [10u16, 20, 30] {
            stuck.insert(5, bit, true);
        }
        let mut cache =
            VminCache::new(SudokuConfig::small(Scheme::Y, 64, 16), stuck).expect("valid config");
        for i in 0..64 {
            cache.write(i, &payload(i));
        }
        assert_eq!(cache.read(5).expect("repairable"), payload(5));
    }

    #[test]
    fn scrub_reports_repairs_every_pass_for_persistent_faults() {
        let mut stuck = StuckBitMap::new();
        stuck.insert(2, 100, true);
        let mut cache =
            VminCache::new(SudokuConfig::small(Scheme::X, 64, 16), stuck).expect("valid config");
        for i in 0..64 {
            cache.write(i, &payload(i));
        }
        for _ in 0..3 {
            let report = cache.scrub();
            assert!(report.fully_repaired());
            assert_eq!(report.ecc1_repairs, 1, "the stuck bit re-breaks each pass");
        }
    }

    #[test]
    fn dense_random_stuck_pattern_mostly_recoverable_under_z() {
        let mut rng = StdRng::seed_from_u64(3);
        let stuck = StuckBitMap::random(&mut rng, 256, 1e-4);
        let mut cache =
            VminCache::new(SudokuConfig::small(Scheme::Z, 256, 16), stuck).expect("valid config");
        for i in 0..256 {
            cache.write(i, &payload(i));
        }
        assert!(cache.is_recoverable());
        for i in 0..256 {
            assert_eq!(cache.read(i).expect("readable"), payload(i));
        }
    }

    #[test]
    fn overwhelming_stuck_pattern_is_a_detected_failure_not_silent() {
        // Two lines of one group each get 4 identical stuck positions:
        // beyond Y and beyond Hash-2? No — Hash-2 separates them. Use the
        // X scheme to see the honest DUE.
        let mut stuck = StuckBitMap::new();
        for bit in [10u16, 20, 30, 40] {
            stuck.insert(0, bit, true);
            stuck.insert(1, bit, true);
        }
        let mut cache =
            VminCache::new(SudokuConfig::small(Scheme::X, 64, 16), stuck).expect("valid config");
        for i in 0..64 {
            cache.write(i, &payload(i));
        }
        assert!(!cache.is_recoverable(), "X must declare DUE, not corrupt");
        assert!(cache.read(0).is_err());
    }
}
