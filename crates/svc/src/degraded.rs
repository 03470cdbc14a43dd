//! Degraded-mode state: shard quarantine, per-shard line-sparing tables,
//! and the counters that make degradation observable.
//!
//! Field studies ("A Systematic Study of DDR4 DRAM Faults in the Field")
//! show memories accumulate mixed permanent+transient fault populations;
//! the paper's §VI claim is that the transient machinery also tolerates
//! permanent defects. This module is what lets the *service* exercise that
//! claim under fire: a shard whose worker panicked (or whose mutex was
//! poisoned mid-repair) is **quarantined** — requests to it fail fast with
//! [`ServiceError::ShardDown`] while the other shards keep serving — and a
//! line that keeps coming back detectably-uncorrectable or keeps needing
//! group reconstruction because of stuck cells is **spared**: remapped to a
//! small per-shard spare pool so the repair ladder stops churning on it.
//!
//! [`ServiceError::ShardDown`]: crate::ServiceError::ShardDown

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use sudoku_codes::LineData;
use sudoku_obs::json::JsonObject;
use sudoku_obs::Heatmaps;

/// Liveness of every shard, shared between the engine, the workers, the
/// scrub daemon, and every client handle. Lock-free: one atomic per shard.
#[derive(Debug)]
pub struct ShardHealth {
    // 0 = up, 1 = quarantined.
    states: Vec<AtomicUsize>,
}

impl ShardHealth {
    /// All shards up.
    pub fn new(n_shards: usize) -> Self {
        ShardHealth {
            states: (0..n_shards).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Whether `shard` is still serving.
    pub fn is_up(&self, shard: usize) -> bool {
        self.states[shard].load(Ordering::Acquire) == 0
    }

    /// Marks `shard` quarantined. Returns `true` the first time (so the
    /// caller can log/count the transition exactly once).
    pub fn quarantine(&self, shard: usize) -> bool {
        self.states[shard].swap(1, Ordering::AcqRel) == 0
    }

    /// The quarantined shards, ascending.
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.states.len()).filter(|&s| !self.is_up(s)).collect()
    }

    /// Number of shards still up.
    pub fn n_up(&self) -> usize {
        (0..self.states.len()).filter(|&s| self.is_up(s)).count()
    }
}

/// Sparing policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct DegradedConfig {
    /// Maximum spared lines per shard (the spare-pool size; 0 disables
    /// sparing). Sized like a hardware spare-row budget: a handful of
    /// entries per bank is enough for the defect rates §VI targets.
    pub spare_cap_per_shard: usize,
    /// A line is spared after this many strikes — demand/scrub DUEs, or
    /// group reconstructions that a stuck cell immediately undid.
    pub strike_threshold: u32,
}

impl Default for DegradedConfig {
    fn default() -> Self {
        DegradedConfig {
            spare_cap_per_shard: 8,
            strike_threshold: 2,
        }
    }
}

/// One shard's line-sparing table: repeated-DUE (or repeatedly
/// reconstructed-then-re-corrupted) lines are remapped here, out of the
/// faulty array. A spared line's entry holds `Some(data)` when the sparing
/// event had a recovered value to carry over (stuck line rescued by
/// SDR/RAID-4), or `None` when the data was already lost (a DUE) — the
/// next write fills it, and until then reads stay detectably failed
/// rather than silently wrong.
#[derive(Debug, Default)]
pub struct SpareTable {
    entries: BTreeMap<u64, Option<LineData>>,
    strikes: BTreeMap<u64, u32>,
    config: DegradedConfig,
    /// Reads served from the spare pool.
    pub spare_reads: u64,
    /// Writes absorbed by the spare pool.
    pub spare_writes: u64,
    /// Sparing requests dropped because the pool was full.
    pub spare_overflow: u64,
}

impl SpareTable {
    /// An empty table with the given policy.
    pub fn new(config: DegradedConfig) -> Self {
        SpareTable {
            config,
            ..SpareTable::default()
        }
    }

    /// Number of spared lines.
    pub fn spared_lines(&self) -> usize {
        self.entries.len()
    }

    /// Whether `line` is remapped to the spare pool.
    pub fn is_spared(&self, line: u64) -> bool {
        self.entries.contains_key(&line)
    }

    /// The spared copy of `line`: `Some(Some(data))` if remapped and
    /// holding data, `Some(None)` if remapped but the data was lost to a
    /// DUE before sparing, `None` if the line is not spared at all.
    pub fn lookup(&mut self, line: u64) -> Option<Option<LineData>> {
        let hit = self.entries.get(&line).copied();
        if hit.is_some() {
            self.spare_reads += 1;
        }
        hit
    }

    /// Absorbs a write to a spared line. Returns `false` when the line is
    /// not spared (the caller writes to the array as usual).
    pub fn write(&mut self, line: u64, data: &LineData) -> bool {
        match self.entries.get_mut(&line) {
            Some(slot) => {
                *slot = Some(*data);
                self.spare_writes += 1;
                true
            }
            None => false,
        }
    }

    /// Records one strike against `line` — a DUE, or a reconstruction that
    /// stuck cells immediately undid — and charges it to `line`'s cell of
    /// the `strikes` grid, the only strike count there is. Nothing is
    /// recorded while sparing is disabled or once the line is spared.
    /// `recovered` carries the repaired data when the striking event
    /// produced one. Once the strike count reaches the threshold the line
    /// is spared (if the pool has room); returns `true` exactly when this
    /// call performed the remap.
    pub fn strike(&mut self, line: u64, recovered: Option<LineData>, maps: &Heatmaps) -> bool {
        if self.config.spare_cap_per_shard == 0 || self.is_spared(line) {
            return false;
        }
        maps.charge_strike(line);
        let count = self.strikes.entry(line).or_insert(0);
        *count += 1;
        if *count < self.config.strike_threshold {
            return false;
        }
        if self.entries.len() >= self.config.spare_cap_per_shard {
            self.spare_overflow += 1;
            return false;
        }
        self.strikes.remove(&line);
        self.entries.insert(line, recovered);
        true
    }
}

/// Aggregated degraded-mode counters, reported next to [`CacheStats`] in
/// every service report.
///
/// [`CacheStats`]: sudoku_core::CacheStats
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradedStats {
    /// Quarantined shards, ascending.
    pub quarantined_shards: Vec<usize>,
    /// Lines remapped to spare pools, across all shards.
    pub spared_lines: u64,
    /// Reads served from spare pools.
    pub spare_reads: u64,
    /// Writes absorbed by spare pools.
    pub spare_writes: u64,
    /// Strikes recorded (DUEs + reconstructions undone by stuck cells):
    /// the `strikes` heatmap grid's total.
    pub strikes: u64,
    /// Sparing requests dropped on full pools.
    pub spare_overflow: u64,
    /// Lines with permanent (stuck-at) cells in the physical fault map.
    pub stuck_lines: u64,
    /// Stored bits re-corrupted by stuck cells after writes/repairs: the
    /// `stuck` heatmap grid's total.
    pub stuck_reasserts: u64,
    /// Group reconstructions of stuck lines that the stuck cells undid —
    /// the "SDR hit a stuck bit" non-convergence signal.
    pub undone_reconstructions: u64,
    /// Requests rejected fast because their shard was quarantined.
    pub shard_down_rejects: u64,
    /// Cross-shard (Hash-2) escalations skipped because a quarantined
    /// shard's parity slice was unavailable.
    pub skipped_h2_escalations: u64,
}

impl DegradedStats {
    /// JSON object with every degraded-mode counter, stable field order.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_array_u64(
            "quarantined_shards",
            self.quarantined_shards.iter().map(|&s| s as u64),
        )
        .field_u64("spared_lines", self.spared_lines)
        .field_u64("spare_reads", self.spare_reads)
        .field_u64("spare_writes", self.spare_writes)
        .field_u64("strikes", self.strikes)
        .field_u64("spare_overflow", self.spare_overflow)
        .field_u64("stuck_lines", self.stuck_lines)
        .field_u64("stuck_reasserts", self.stuck_reasserts)
        .field_u64("undone_reconstructions", self.undone_reconstructions)
        .field_u64("shard_down_rejects", self.shard_down_rejects)
        .field_u64("skipped_h2_escalations", self.skipped_h2_escalations);
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(bit: usize) -> LineData {
        let mut d = LineData::zero();
        d.set_bit(bit, true);
        d
    }

    fn maps() -> Heatmaps {
        Heatmaps::new(sudoku_obs::RegionGeometry::new(1, 1, 64, |_| 0))
    }

    #[test]
    fn health_transitions_once() {
        let health = ShardHealth::new(4);
        assert_eq!(health.n_up(), 4);
        assert!(health.is_up(2));
        assert!(health.quarantine(2), "first transition reports true");
        assert!(!health.quarantine(2), "second transition is idempotent");
        assert!(!health.is_up(2));
        assert_eq!(health.quarantined(), vec![2]);
        assert_eq!(health.n_up(), 3);
    }

    #[test]
    fn sparing_needs_threshold_strikes() {
        let mut table = SpareTable::new(DegradedConfig {
            spare_cap_per_shard: 4,
            strike_threshold: 2,
        });
        let maps = maps();
        assert!(!table.strike(7, None, &maps), "one strike is not enough");
        assert!(table.strike(7, None, &maps), "second strike spares");
        assert!(table.is_spared(7));
        assert_eq!(table.lookup(7), Some(None), "data was lost to the DUE");
        assert!(table.write(7, &data(5)));
        assert_eq!(table.lookup(7), Some(Some(data(5))));
        assert_eq!(table.spare_reads, 2);
        assert_eq!(table.spare_writes, 1);
        // Strikes against an already-spared line are no-ops.
        assert!(!table.strike(7, None, &maps));
        assert_eq!(maps.strikes.total(), 2, "only recorded strikes are charged");
    }

    #[test]
    fn sparing_carries_recovered_data() {
        let mut table = SpareTable::new(DegradedConfig {
            spare_cap_per_shard: 4,
            strike_threshold: 1,
        });
        assert!(table.strike(3, Some(data(9)), &maps()));
        assert_eq!(table.lookup(3), Some(Some(data(9))));
    }

    #[test]
    fn full_pool_overflows_instead_of_evicting() {
        let mut table = SpareTable::new(DegradedConfig {
            spare_cap_per_shard: 1,
            strike_threshold: 1,
        });
        let maps = maps();
        assert!(table.strike(1, None, &maps));
        assert!(!table.strike(2, None, &maps), "pool is full");
        assert_eq!(table.spare_overflow, 1);
        assert!(table.is_spared(1));
        assert!(!table.is_spared(2));
    }

    #[test]
    fn zero_cap_disables_sparing() {
        let mut table = SpareTable::new(DegradedConfig {
            spare_cap_per_shard: 0,
            strike_threshold: 1,
        });
        let maps = maps();
        for _ in 0..4 {
            assert!(!table.strike(1, None, &maps));
        }
        assert_eq!(table.spared_lines(), 0);
        assert_eq!(maps.strikes.total(), 0, "no strike is recorded");
    }

    #[test]
    fn degraded_stats_json_has_every_counter() {
        let stats = DegradedStats {
            quarantined_shards: vec![1, 3],
            spared_lines: 2,
            stuck_reasserts: 17,
            ..DegradedStats::default()
        };
        let json = stats.to_json();
        assert!(json.contains("\"quarantined_shards\":[1,3]"), "{json}");
        assert!(json.contains("\"spared_lines\":2"), "{json}");
        assert!(json.contains("\"stuck_reasserts\":17"), "{json}");
        assert!(json.contains("\"skipped_h2_escalations\":0"), "{json}");
    }
}
