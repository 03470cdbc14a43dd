//! The SuDoku cache: storage, read/write paths, and the X/Y/Z correction
//! engines.
//!
//! The recovery ladder (paper §III–§V):
//!
//! 1. **ECC-1** fixes single-bit faults per line (the common case);
//! 2. **RAID-4** reconstructs one multi-bit-faulty line per group from the
//!    group parity (SuDoku-X);
//! 3. **SDR** (Sequential Data Resurrection) resurrects multiple faulty
//!    lines in a group by flipping parity-mismatch positions one at a time
//!    and re-validating with ECC-1 + CRC (SuDoku-Y);
//! 4. **Skewed-hash recovery** retries lines that remain uncorrectable
//!    under Hash-1 in their Hash-2 groups, iterating to a fixpoint — each
//!    line repaired in one dimension can unlock its group in the other
//!    (SuDoku-Z).

use crate::config::{ConfigError, SudokuConfig};
use crate::hashing::{HashDim, SkewedHashes};
use crate::plt::ParityTable;
use crate::recovery::{
    self, Casualties, GroupScratch, GroupView, MemberState, Recovered, RepairEngine, RepairParams,
};
use crate::stats::{CacheStats, ScrubReport};
use crate::store::{DenseStore, LineStore, SparseStore};
use std::fmt;
use sudoku_codes::{LineCodec, LineData, ProtectedLine, ReadCheck, RepairKind};
use sudoku_obs::{Mechanism, Outcome, Phase, Recorder, RecoveryEvent};

/// Error returned when a read hits a detectably uncorrectable line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UncorrectableError {
    /// The line that could not be repaired.
    pub line: u64,
}

impl fmt::Display for UncorrectableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {} is detectably uncorrectable", self.line)
    }
}

impl std::error::Error for UncorrectableError {}

/// A SuDoku-protected cache over a pluggable line store.
///
/// # Examples
///
/// ```
/// use sudoku_core::{Scheme, SudokuCache, SudokuConfig};
/// use sudoku_codes::LineData;
///
/// let config = SudokuConfig::small(Scheme::Z, 256, 16);
/// let mut cache = SudokuCache::new(config)?;
/// let mut data = LineData::zero();
/// data.set_bit(5, true);
/// cache.write(7, &data);
///
/// // Inject a burst of transient faults into line 7 and recover via RAID-4.
/// for bit in [1, 2, 3, 4, 5, 6] {
///     cache.inject_fault(7, bit);
/// }
/// assert_eq!(cache.read(7)?, data);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SudokuCache<S = DenseStore> {
    config: SudokuConfig,
    hashes: SkewedHashes,
    store: S,
    plt1: ParityTable,
    plt2: Option<ParityTable>,
    codec: &'static LineCodec,
    stats: CacheStats,
    recorder: Recorder,
    scratch: GroupScratch,
}

/// Adapts one group of a cache's own store (plus the in-flight
/// recovered lines) to the [`GroupView`] the shared repair engine
/// drives. The parity is snapshotted by the caller — the PLT is only
/// written by demand writes, never by recovery.
struct CacheGroupView<'a, S> {
    store: &'a mut S,
    recovered: &'a mut Recovered,
    /// The pass's casualties, whose unchanged stored copies are not
    /// checked again; `None` on the reference path, which checks all.
    casualties: Option<&'a Casualties>,
    hashes: SkewedHashes,
    dim: HashDim,
    group: u64,
    parity: ProtectedLine,
}

impl<S: LineStore> GroupView for CacheGroupView<'_, S> {
    fn len(&self) -> usize {
        self.hashes.group_lines() as usize
    }

    /// [`GroupView::state`] is other than `Zero` only for a member in
    /// `recovered` or materialized in the store, so when those lines are
    /// fewer than the group's members they are listed instead of the whole
    /// group. `recovered` counts whatever the store holds: a line
    /// reconstructed to zero leaves a sparse store but stays in the map.
    fn live_members(&self, out: &mut Vec<usize>) {
        let n = self.len();
        match self.store.materialized_lines() {
            Some(lines) if lines.len() + self.recovered.len() < n => {
                let in_group = |line: u64| {
                    let i = self.hashes.member_index(self.dim, line);
                    (self.hashes.member(self.dim, self.group, i) == line).then_some(i as usize)
                };
                out.extend(lines.filter_map(in_group));
                out.extend(self.recovered.lines().filter_map(in_group));
                if out.len() > 1 {
                    out.sort_unstable();
                    out.dedup();
                }
            }
            _ => out.extend(0..n),
        }
    }

    fn line_id(&self, i: usize) -> u64 {
        self.hashes.member(self.dim, self.group, i as u64)
    }

    fn state(&self, i: usize) -> MemberState {
        let m = self.line_id(i);
        if let Some(r) = self.recovered.get(m) {
            return MemberState::Recovered(r);
        }
        let Some(raw) = self.store.materialized_line(m) else {
            return MemberState::Zero;
        };
        match self.casualties.and_then(|c| c.classified(m)) {
            Some(listed) if listed == raw => MemberState::Casualty(raw),
            _ => MemberState::Stored(raw),
        }
    }

    fn commit_repair(&mut self, i: usize, line: ProtectedLine) {
        self.store.set_line(self.line_id(i), line);
    }

    fn commit_reconstruction(&mut self, i: usize, line: ProtectedLine) {
        let m = self.line_id(i);
        self.store.set_line(m, line);
        self.recovered.insert(m, line);
    }

    fn parity(&self) -> ProtectedLine {
        self.parity
    }
}

impl SudokuCache<DenseStore> {
    /// A fully materialized cache, all lines zero.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from validation.
    pub fn new(config: SudokuConfig) -> Result<Self, ConfigError> {
        let store = DenseStore::new(config.geometry.lines());
        Self::with_store(config, store)
    }
}

impl SudokuCache<SparseStore> {
    /// A sparse cache (unwritten lines hold the zero codeword) — the
    /// backing used by full-scale Monte-Carlo campaigns.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from validation.
    pub fn new_sparse(config: SudokuConfig) -> Result<Self, ConfigError> {
        let store = SparseStore::new(config.geometry.lines());
        Self::with_store(config, store)
    }

    /// Returns the cache to the golden all-zero state in O(touched) work:
    /// materialized lines are dropped, parity groups dirtied by writes are
    /// rezeroed sparsely, and the event log is cleared. Equivalent to
    /// reconstructing the cache with [`SudokuCache::new_sparse`], except
    /// that the accumulated [`CacheStats`] (and the PLT write-traffic
    /// counter) deliberately survive — campaign workers reuse one arena
    /// across trials and report the aggregated counters at the end.
    pub fn reset_to_golden_zero(&mut self) {
        self.store.clear();
        self.plt1.reset_zero();
        if let Some(plt2) = self.plt2.as_mut() {
            plt2.reset_zero();
        }
        self.recorder.clear_events();
    }
}

impl<S: LineStore> SudokuCache<S> {
    /// Wraps an existing store (its lines must currently be consistent with
    /// zero parities, i.e. all-zero).
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`]; also fails if the store size disagrees
    /// with the geometry.
    pub fn with_store(config: SudokuConfig, store: S) -> Result<Self, ConfigError> {
        config.validate()?;
        let hashes = SkewedHashes::from_config(&config)?;
        assert_eq!(
            store.n_lines(),
            config.geometry.lines(),
            "store size must match the configured geometry"
        );
        let n_groups = config.n_groups();
        let plt2 = config
            .scheme
            .second_hash_enabled()
            .then(|| ParityTable::new(n_groups));
        Ok(SudokuCache {
            config,
            hashes,
            store,
            plt1: ParityTable::new(n_groups),
            plt2,
            codec: LineCodec::shared(),
            stats: CacheStats::default(),
            recorder: Recorder::disabled(),
            scratch: GroupScratch::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &SudokuConfig {
        &self.config
    }

    /// The group hashes in use.
    pub fn hashes(&self) -> &SkewedHashes {
        &self.hashes
    }

    /// Accumulated event counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The telemetry recorder attached to this cache. The default is
    /// disabled: it records no events, histograms or spans. Install an
    /// enabled one (say, a ring of the most recent 4096 recovery events,
    /// `Recorder::ring(4096)`) with [`SudokuCache::set_recorder`].
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Mutable access to the recorder (interval stamping, phase spans).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Installs `recorder` and returns the previous one — the harvesting
    /// pattern campaign workers use to collect histograms and spans.
    pub fn set_recorder(&mut self, recorder: Recorder) -> Recorder {
        std::mem::replace(&mut self.recorder, recorder)
    }

    /// Retained recovery events, oldest first (empty for disabled or
    /// zero-capacity recorders).
    pub fn events(&self) -> impl Iterator<Item = &RecoveryEvent> {
        self.recorder.events()
    }

    /// Clears the retained recovery events.
    pub fn clear_events(&mut self) {
        self.recorder.clear_events();
    }

    /// Removes and returns the retained recovery events, oldest first.
    pub fn drain_events(&mut self) -> Vec<RecoveryEvent> {
        self.recorder.drain_events()
    }

    /// The underlying line store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Total parity-table write traffic (both PLTs).
    pub fn plt_write_count(&self) -> u64 {
        self.plt1.write_count() + self.plt2.as_ref().map_or(0, ParityTable::write_count)
    }

    /// The stored (possibly faulty) line at `idx`.
    pub fn stored_line(&self, idx: u64) -> ProtectedLine {
        self.store.line(idx)
    }

    /// Whether the stored line at `idx` is a fully consistent codeword.
    pub fn is_line_valid(&self, idx: u64) -> bool {
        self.codec.validate(&self.store.line(idx))
    }

    /// Flips one stored bit — a transient fault. Parities are deliberately
    /// *not* updated; that asymmetry is what lets recovery localize faults.
    pub fn inject_fault(&mut self, idx: u64, bit: usize) {
        self.store.flip_bit(idx, bit);
    }

    fn plt(&self, dim: HashDim) -> &ParityTable {
        match dim {
            HashDim::H1 => &self.plt1,
            HashDim::H2 => self.plt2.as_ref().expect("Hash-2 PLT enabled"),
        }
    }

    fn dims(&self) -> &'static [HashDim] {
        if self.config.scheme.second_hash_enabled() && !self.config.defer_hash2 {
            &[HashDim::H1, HashDim::H2]
        } else {
            &[HashDim::H1]
        }
    }

    /// Builds and emits one recovery event. Callers gate on
    /// `self.recorder.enabled()` so the disabled path never constructs the
    /// event.
    #[inline]
    fn emit(
        &mut self,
        line: u64,
        group: Option<(HashDim, u64)>,
        mechanism: Mechanism,
        outcome: Outcome,
        trials: u32,
    ) {
        recovery::emit_event(&mut self.recorder, line, group, mechanism, outcome, trials);
    }

    /// Writes `data` to line `idx`, updating every enabled PLT (the two
    /// read-modify-writes of paper §III-B).
    ///
    /// If the stored old value is faulty it is repaired (locally or via
    /// group recovery) before the parity delta is computed, so that faults
    /// never leak into the parity tables.
    pub fn write(&mut self, idx: u64, data: &LineData) {
        self.stats.writes += 1;
        let new = self.codec.encode(data);
        let old = self.consistent_old_value(idx);
        let g1 = self.hashes.group_of(HashDim::H1, idx);
        self.plt1.apply_write(g1, &old, &new);
        if let Some(plt2) = self.plt2.as_mut() {
            let g2 = self.hashes.group_of(HashDim::H2, idx);
            plt2.apply_write(g2, &old, &new);
        }
        self.store.set_line(idx, new);
    }

    /// Best-effort recovery of the as-written value of `idx` for the write
    /// path's parity delta.
    fn consistent_old_value(&mut self, idx: u64) -> ProtectedLine {
        let (stored, codeword) = self.store.line_and_codeword(idx);
        if stored.is_zero() {
            return stored; // the zero codeword is valid by linearity
        }
        // The hardware pays the check even where the store knows its
        // answer: `scrub_check` of a codeword is always `Clean`.
        self.stats.crc_checks += 1;
        if codeword {
            return stored;
        }
        match self.codec.scrub_check(&stored) {
            ReadCheck::Clean => return stored,
            ReadCheck::Corrected { repaired, .. } => return repaired,
            ReadCheck::MultiBit => {}
        }
        // Multi-bit old value: run group recovery, then fall back to the
        // RAID-4 erasure estimate if the line is still bad.
        if let Some(line) = self.recover_line(idx, stored) {
            return line;
        }
        let stored = self.store.line(idx);
        self.stats.crc_checks += 1;
        if self.codec.validate(&stored) {
            return stored;
        }
        self.stats.due_lines += 1;
        if self.recorder.enabled() {
            self.emit(idx, None, Mechanism::Due, Outcome::Failed, 0);
        }
        let g1 = self.hashes.group_of(HashDim::H1, idx);
        let mut estimate = *self.plt1.parity(g1);
        for m in self.hashes.members(HashDim::H1, g1) {
            if m != idx {
                estimate.xor_assign(&self.store.line(m));
            }
        }
        estimate
    }

    /// Reads line `idx`, repairing on demand (paper §III-B/C).
    ///
    /// # Errors
    ///
    /// [`UncorrectableError`] if every recovery level fails — a DUE. With
    /// [`SudokuConfig::defer_hash2`] set, only the Hash-1 levels ran: the
    /// read counts no DUE, and the caller's escalation decides.
    pub fn read(&mut self, idx: u64) -> Result<LineData, UncorrectableError> {
        self.stats.reads += 1;
        let stored = self.store.line(idx);
        if stored.is_zero() {
            return Ok(stored.data); // the zero codeword is valid by linearity
        }
        self.stats.crc_checks += 1;
        match self.codec.read_check(&stored) {
            ReadCheck::Clean => Ok(stored.data),
            ReadCheck::Corrected { repaired, kind } => {
                self.count_repair(idx, kind);
                self.store.set_line(idx, repaired);
                Ok(repaired.data)
            }
            ReadCheck::MultiBit => {
                self.stats.multibit_detections += 1;
                if self.recorder.enabled() {
                    self.emit(idx, None, Mechanism::CrcDetect, Outcome::Detected, 0);
                }
                if let Some(line) = self.recover_line(idx, stored) {
                    return Ok(line.data);
                }
                // The line may have been healed as a side effect (or the
                // fault was in metadata only); give the local path one more
                // chance before declaring a DUE.
                let stored = self.store.line(idx);
                self.stats.crc_checks += 1;
                match self.codec.scrub_check(&stored) {
                    ReadCheck::Clean => Ok(stored.data),
                    ReadCheck::Corrected { repaired, kind } => {
                        self.count_repair(idx, kind);
                        self.store.set_line(idx, repaired);
                        Ok(repaired.data)
                    }
                    ReadCheck::MultiBit => {
                        // With Hash-2 deferred this is only half the ladder:
                        // the caller escalates, and the escalation's scrub
                        // report counts the line once if it stays lost.
                        if !self.config.defer_hash2 {
                            self.stats.due_lines += 1;
                            if self.recorder.enabled() {
                                self.emit(idx, None, Mechanism::Due, Outcome::Failed, 0);
                            }
                        }
                        Err(UncorrectableError { line: idx })
                    }
                }
            }
        }
    }

    fn count_repair(&mut self, line: u64, kind: RepairKind) {
        recovery::record_repair(&mut self.stats, &mut self.recorder, line, kind);
    }

    /// Scrubs the entire cache (paper §II-D): every line is checked and
    /// repaired; group recovery handles multi-bit casualties.
    pub fn scrub(&mut self) -> ScrubReport {
        let n = self.store.n_lines();
        self.scrub_lines_impl(0..n, true)
    }

    /// Scrubs only the listed lines plus whatever group recovery pulls in.
    ///
    /// Semantically identical to [`SudokuCache::scrub`] whenever `hints`
    /// covers every faulty line — the fast path for sparse Monte-Carlo
    /// campaigns that know exactly where they injected faults.
    pub fn scrub_lines(&mut self, hints: &[u64]) -> ScrubReport {
        self.scrub_lines_impl(hints.iter().copied(), true)
    }

    /// Like [`SudokuCache::scrub_lines`] but with the all-zero-line fast
    /// path and the casualty memo disabled: every visited line goes
    /// through the full CRC + ECC consistency check. Kept as a reference
    /// path so the optimizations can be property-tested to produce
    /// identical [`ScrubReport`]s and stored lines (the `crc_checks` stat
    /// counter is the only observable difference).
    pub fn scrub_lines_reference(&mut self, hints: &[u64]) -> ScrubReport {
        self.scrub_lines_impl(hints.iter().copied(), false)
    }

    fn scrub_lines_impl(
        &mut self,
        lines: impl IntoIterator<Item = u64>,
        fast: bool,
    ) -> ScrubReport {
        let mut report = ScrubReport::default();
        self.with_working_set(|cache, faulty, recovered| {
            cache.scrub_scan(lines, fast, &mut report, faulty);
            cache.group_recovery(faulty, recovered, &mut report, fast);
        });
        self.finish_scrub(&mut report);
        report
    }

    /// Lends `f` the cache's reused recovery working set, emptied.
    fn with_working_set<R>(
        &mut self,
        f: impl FnOnce(&mut Self, &mut Casualties, &mut Recovered) -> R,
    ) -> R {
        let mut faulty = std::mem::take(&mut self.scratch.casualties);
        let mut recovered = std::mem::take(&mut self.scratch.recovered);
        faulty.clear();
        recovered.clear();
        let out = f(self, &mut faulty, &mut recovered);
        self.scratch.casualties = faulty;
        self.scratch.recovered = recovered;
        out
    }

    /// Group recovery of line `idx`, just classified multi-bit on
    /// `stored`: its reconstructed value, if the ladder rebuilt it.
    fn recover_line(&mut self, idx: u64, stored: ProtectedLine) -> Option<ProtectedLine> {
        self.with_working_set(|cache, faulty, recovered| {
            faulty.insert(idx, stored);
            cache.group_recovery(faulty, recovered, &mut ScrubReport::default(), true);
            recovered.get(idx)
        })
    }

    /// The per-line scan half of a scrub: check (and locally repair) every
    /// listed line once, in ascending order, and list the multi-bit
    /// casualties that need group recovery in `faulty`, each with the
    /// codeword it was classified on. This is the shard-local phase of a
    /// sharded scrub — the caller then drives
    /// [`SudokuCache::recovery_pass`] / [`SudokuCache::finish_scrub`]
    /// explicitly.
    pub fn scrub_scan(
        &mut self,
        lines: impl IntoIterator<Item = u64>,
        fast: bool,
        report: &mut ScrubReport,
        faulty: &mut Casualties,
    ) {
        let mut sorted = std::mem::take(&mut self.scratch.lines);
        sorted.clear();
        sorted.extend(lines);
        sorted.sort_unstable();
        sorted.dedup();
        for &idx in &sorted {
            report.lines_checked += 1;
            self.stats.lines_scrubbed += 1;
            let stored = self.store.line(idx);
            if fast && stored.is_zero() {
                // The all-zero codeword is valid by linearity (zero data,
                // zero CRC, zero ECC), so the CRC check can be skipped —
                // the common case for golden-zero Monte-Carlo state.
                continue;
            }
            self.stats.crc_checks += 1;
            match self.codec.scrub_check(&stored) {
                ReadCheck::Clean => {}
                ReadCheck::Corrected { repaired, kind } => {
                    report.count_repair(kind);
                    self.count_repair(idx, kind);
                    self.store.set_line(idx, repaired);
                }
                ReadCheck::MultiBit => {
                    self.stats.multibit_detections += 1;
                    if self.recorder.enabled() {
                        self.emit(idx, None, Mechanism::CrcDetect, Outcome::Detected, 0);
                    }
                    report.multibit_lines += 1;
                    faulty.insert(idx, stored);
                }
            }
        }
        self.scratch.lines = sorted;
    }

    /// Ends a scrub whose group recovery was driven externally: counts the
    /// lines left in `report.unresolved` as DUEs and records their events
    /// — the accounting [`SudokuCache::scrub`] performs internally.
    pub fn finish_scrub(&mut self, report: &mut ScrubReport) {
        self.stats.due_lines += report.unresolved.len() as u64;
        if self.recorder.enabled() {
            for i in 0..report.unresolved.len() {
                self.emit(
                    report.unresolved[i],
                    None,
                    Mechanism::Due,
                    Outcome::Failed,
                    0,
                );
            }
        }
    }

    /// Drives the X/Y/Z recovery ladder to a fixpoint over `faulty`,
    /// collecting every reconstructed line in `recovered` and leaving the
    /// survivors in `report.unresolved`.
    fn group_recovery(
        &mut self,
        faulty: &mut Casualties,
        recovered: &mut Recovered,
        report: &mut ScrubReport,
        fast: bool,
    ) {
        // Time the whole ladder as one `Recover` span (nested inside the
        // caller's `Scrub` span); the clock is only read when the recorder
        // measures and there is actual recovery work.
        let span_start =
            (self.recorder.measures() && !faulty.is_empty()).then(std::time::Instant::now);
        loop {
            if faulty.is_empty() {
                break;
            }
            let before = faulty.len();
            for &dim in self.dims() {
                if faulty.is_empty() {
                    break;
                }
                self.recovery_pass(dim, faulty, recovered, report, fast);
            }
            if faulty.len() >= before {
                break;
            }
        }
        report.unresolved = faulty.lines().collect();
        if let Some(start) = span_start {
            self.recorder
                .phases
                .add(Phase::Recover, start.elapsed().as_secs_f64());
        }
    }

    /// One recovery pass over `faulty` in one hash dimension: repair every
    /// implicated group (ascending group order, exactly like the
    /// single-threaded ladder), then drop lines that are now clean or
    /// reconstructed. One iteration of the SuDoku-Z fixpoint — exposed so a
    /// sharded driver can interleave shard-local Hash-1 passes with
    /// coordinator-run Hash-2 passes.
    ///
    /// With `fast`, a casualty whose stored copy still equals the codeword
    /// it was listed with counts as multi-bit without a second check;
    /// without it, every line is checked again.
    pub fn recovery_pass(
        &mut self,
        dim: HashDim,
        faulty: &mut Casualties,
        recovered: &mut Recovered,
        report: &mut ScrubReport,
        fast: bool,
    ) {
        if faulty.is_empty() {
            return;
        }
        // Borrow the scratch buffers out of `self` for the duration of the
        // pass (restored below) so the per-group Vec allocations happen
        // only once per cache.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.groups.clear();
        scratch
            .groups
            .extend(faulty.lines().map(|l| self.hashes.group_of(dim, l)));
        scratch.groups.sort_unstable();
        scratch.groups.dedup();
        let params = RepairParams::from_config(&self.config);
        for k in 0..scratch.groups.len() {
            let group = scratch.groups[k];
            let parity = *self.plt(dim).parity(group);
            let mut view = CacheGroupView {
                store: &mut self.store,
                recovered: &mut *recovered,
                casualties: fast.then_some(&*faulty),
                hashes: self.hashes,
                dim,
                group,
                parity,
            };
            let mut engine = RepairEngine {
                codec: self.codec,
                params,
                stats: &mut self.stats,
                recorder: &mut self.recorder,
            };
            engine.repair_group(dim, group, &mut view, &mut scratch, report, fast);
        }
        self.scratch = scratch;
        self.retain_casualties(faulty, recovered, fast);
    }

    /// Drops every line from `faulty` that is reconstructed (present in
    /// `recovered`) or whose stored copy no longer scrubs as multi-bit —
    /// the post-pass filter of the recovery fixpoint, with the same
    /// `crc_checks` accounting. A casualty whose stored copy still equals
    /// its listed codeword stays without a second check; a seed with no
    /// classification, or a line a write has changed since, is checked.
    pub fn retain_multibit(&mut self, faulty: &mut Casualties, recovered: &Recovered) {
        self.retain_casualties(faulty, recovered, true);
    }

    /// [`SudokuCache::retain_multibit`], with the memo only when `memo`.
    fn retain_casualties(&mut self, faulty: &mut Casualties, recovered: &Recovered, memo: bool) {
        faulty.retain(|c| {
            if recovered.contains(c.line) {
                return false;
            }
            self.stats.crc_checks += 1;
            let stored = self.store.line(c.line);
            if memo && c.raw == Some(stored) {
                return true;
            }
            c.raw = Some(stored);
            matches!(self.codec.scrub_check(&stored), ReadCheck::MultiBit)
        });
    }

    /// Snapshot of a group's parity line (the PLT is only written by
    /// demand writes, so this is stable across a recovery). Cross-shard
    /// Hash-2 recovery XORs these snapshots across shards — parity is
    /// linear, so per-shard tables compose.
    pub fn group_parity(&self, dim: HashDim, group: u64) -> ProtectedLine {
        *self.plt(dim).parity(group)
    }

    /// Raw store write-back of a recovered line, deliberately skipping the
    /// parity update (recovery restores the as-written value; the PLT
    /// already reflects it). Used by cross-shard coordinators to commit
    /// reconstructions into the owning shard. `line` must be a codeword,
    /// as [`LineStore::set_line`] requires.
    pub fn set_stored_line(&mut self, idx: u64, line: ProtectedLine) {
        self.store.set_line(idx, line);
    }
}

impl<S: LineStore> fmt::Debug for SudokuCache<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SudokuCache")
            .field("scheme", &self.config.scheme)
            .field("lines", &self.config.geometry.lines())
            .field("group_lines", &self.config.group_lines)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use proptest::collection::{btree_set, vec};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use sudoku_codes::TOTAL_BITS;

    fn data_with(bits: &[usize]) -> LineData {
        let mut d = LineData::zero();
        for &b in bits {
            d.set_bit(b, true);
        }
        d
    }

    fn small_cache(scheme: Scheme) -> SudokuCache<DenseStore> {
        // 256 lines, groups of 16: satisfies the Z divisibility rule.
        SudokuCache::new(SudokuConfig::small(scheme, 256, 16)).unwrap()
    }

    fn populate(cache: &mut SudokuCache<DenseStore>) -> Vec<LineData> {
        let n = cache.config().geometry.lines();
        let mut golden = Vec::with_capacity(n as usize);
        for i in 0..n {
            let d = data_with(&[(i as usize * 37) % 512, (i as usize * 151 + 3) % 512]);
            cache.write(i, &d);
            golden.push(d);
        }
        golden
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut cache = small_cache(Scheme::Z);
        let golden = populate(&mut cache);
        for (i, d) in golden.iter().enumerate() {
            assert_eq!(cache.read(i as u64).unwrap(), *d);
        }
    }

    #[test]
    fn single_bit_fault_repaired_on_read() {
        let mut cache = small_cache(Scheme::X);
        let golden = populate(&mut cache);
        cache.inject_fault(10, 77);
        assert_eq!(cache.read(10).unwrap(), golden[10]);
        assert_eq!(cache.stats().ecc1_repairs, 1);
        assert!(cache.is_line_valid(10));
    }

    #[test]
    fn multibit_fault_repaired_by_raid4() {
        let mut cache = small_cache(Scheme::X);
        let golden = populate(&mut cache);
        for bit in [3, 88, 200, 452] {
            cache.inject_fault(33, bit);
        }
        assert_eq!(cache.read(33).unwrap(), golden[33]);
        assert_eq!(cache.stats().raid4_repairs, 1);
    }

    #[test]
    fn sudoku_x_fails_on_two_multibit_lines_in_one_group() {
        let mut cache = small_cache(Scheme::X);
        let _ = populate(&mut cache);
        // Lines 0 and 1 share a Hash-1 group (group of 16 consecutive).
        cache.inject_fault(0, 5);
        cache.inject_fault(0, 6);
        cache.inject_fault(1, 7);
        cache.inject_fault(1, 8);
        let report = cache.scrub();
        assert_eq!(report.unresolved.len(), 2, "{report:?}");
    }

    #[test]
    fn sudoku_y_sdr_repairs_two_double_fault_lines() {
        // Paper Figure 3(a): non-overlapping faults — SDR fixes one line,
        // RAID-4 fixes the other.
        let mut cache = small_cache(Scheme::Y);
        let golden = populate(&mut cache);
        cache.inject_fault(0, 5);
        cache.inject_fault(0, 6);
        cache.inject_fault(1, 7);
        cache.inject_fault(1, 8);
        let report = cache.scrub();
        assert!(report.fully_repaired(), "{report:?}");
        assert!(report.sdr_repairs >= 1);
        assert_eq!(cache.read(0).unwrap(), golden[0]);
        assert_eq!(cache.read(1).unwrap(), golden[1]);
    }

    #[test]
    fn sudoku_y_sdr_one_overlapping_fault() {
        // Paper Figure 3(b): one shared fault position still repairs.
        let mut cache = small_cache(Scheme::Y);
        let golden = populate(&mut cache);
        cache.inject_fault(2, 100);
        cache.inject_fault(2, 200);
        cache.inject_fault(3, 100); // overlap at 100
        cache.inject_fault(3, 300);
        let report = cache.scrub();
        assert!(report.fully_repaired(), "{report:?}");
        assert_eq!(cache.read(2).unwrap(), golden[2]);
        assert_eq!(cache.read(3).unwrap(), golden[3]);
    }

    #[test]
    fn sudoku_y_fails_on_fully_overlapping_faults() {
        // Paper Figure 3(c): both fault positions shared — no mismatches,
        // SDR cannot act, Y reports DUE.
        let mut cache = small_cache(Scheme::Y);
        let _ = populate(&mut cache);
        cache.inject_fault(4, 100);
        cache.inject_fault(4, 200);
        cache.inject_fault(5, 100);
        cache.inject_fault(5, 200);
        let report = cache.scrub();
        assert_eq!(report.unresolved, vec![4, 5]);
    }

    #[test]
    fn sudoku_z_recovers_fully_overlapping_faults_via_hash2() {
        // The same pattern Y cannot fix: under Hash-2 the two lines land in
        // different groups and each is the lone casualty there.
        let mut cache = small_cache(Scheme::Z);
        let golden = populate(&mut cache);
        cache.inject_fault(4, 100);
        cache.inject_fault(4, 200);
        cache.inject_fault(5, 100);
        cache.inject_fault(5, 200);
        let report = cache.scrub();
        assert!(report.fully_repaired(), "{report:?}");
        assert!(report.hash2_repairs >= 1, "{report:?}");
        assert_eq!(cache.read(4).unwrap(), golden[4]);
        assert_eq!(cache.read(5).unwrap(), golden[5]);
    }

    #[test]
    fn sudoku_z_figure6_scenario() {
        // Paper Figure 6: two lines with three faults each in one Hash-1
        // group; correction succeeds through Hash-2.
        let mut cache = small_cache(Scheme::Z);
        let golden = populate(&mut cache);
        for bit in [10, 20, 30] {
            cache.inject_fault(1, bit); // "line B"
        }
        for bit in [11, 21, 31] {
            cache.inject_fault(3, bit); // "line D"
        }
        let report = cache.scrub();
        assert!(report.fully_repaired(), "{report:?}");
        assert_eq!(cache.read(1).unwrap(), golden[1]);
        assert_eq!(cache.read(3).unwrap(), golden[3]);
    }

    #[test]
    fn three_faulty_lines_two_bits_each_repaired_by_y() {
        // Paper §IV-C: three two-bit-faulty lines → six mismatches; SDR
        // still succeeds (99.9% of the time; this pattern has no overlaps).
        let mut cache = small_cache(Scheme::Y);
        let golden = populate(&mut cache);
        cache.inject_fault(16, 1);
        cache.inject_fault(16, 2);
        cache.inject_fault(17, 3);
        cache.inject_fault(17, 4);
        cache.inject_fault(18, 5);
        cache.inject_fault(18, 6);
        let report = cache.scrub();
        assert!(report.fully_repaired(), "{report:?}");
        for idx in [16u64, 17, 18] {
            assert_eq!(cache.read(idx).unwrap(), golden[idx as usize]);
        }
    }

    #[test]
    fn pair_sdr_extension_rescues_two_triple_fault_lines_without_hash2() {
        // The pattern that defeats the paper's single-flip SDR under Y
        // (two 3-fault lines) but needs no second hash with pair trials.
        let build = |pair: bool| {
            let mut config = SudokuConfig::small(Scheme::Y, 256, 16);
            config.sdr_pair_trials = pair;
            let mut cache = SudokuCache::new(config).unwrap();
            let golden = populate(&mut cache);
            for bit in [10, 20, 30] {
                cache.inject_fault(1, bit);
            }
            for bit in [11, 21, 31] {
                cache.inject_fault(3, bit);
            }
            (cache, golden)
        };
        let (mut plain, _) = build(false);
        assert_eq!(plain.scrub().unresolved.len(), 2, "paper design fails");
        let (mut paired, golden) = build(true);
        let report = paired.scrub();
        assert!(report.fully_repaired(), "{report:?}");
        assert_eq!(paired.read(1).unwrap(), golden[1]);
        assert_eq!(paired.read(3).unwrap(), golden[3]);
    }

    #[test]
    fn pair_sdr_does_not_regress_standard_cases() {
        let mut config = SudokuConfig::small(Scheme::Y, 256, 16);
        config.sdr_pair_trials = true;
        let mut cache = SudokuCache::new(config).unwrap();
        let golden = populate(&mut cache);
        cache.inject_fault(0, 5);
        cache.inject_fault(0, 6);
        cache.inject_fault(1, 7);
        cache.inject_fault(1, 8);
        let report = cache.scrub();
        assert!(report.fully_repaired(), "{report:?}");
        assert_eq!(cache.read(0).unwrap(), golden[0]);
        assert_eq!(cache.read(1).unwrap(), golden[1]);
    }

    #[test]
    fn sdr_respects_mismatch_cap() {
        // Four faulty lines × 2 bits = 8 mismatches > 6: SDR must not even
        // try (paper §IV-C), so Y leaves all four unresolved.
        let mut cache = small_cache(Scheme::Y);
        let _ = populate(&mut cache);
        for (line, base) in [(16u64, 1usize), (17, 3), (18, 5), (19, 7)] {
            cache.inject_fault(line, base);
            cache.inject_fault(line, base + 100);
        }
        let report = cache.scrub();
        assert_eq!(report.unresolved.len(), 4, "{report:?}");
        assert_eq!(report.sdr_repairs, 0);
    }

    #[test]
    fn write_to_faulty_line_keeps_parity_consistent() {
        let mut cache = small_cache(Scheme::Z);
        let golden = populate(&mut cache);
        // Corrupt line 8, then overwrite it logically.
        cache.inject_fault(8, 50);
        cache.inject_fault(8, 51);
        let new = data_with(&[9, 19, 29]);
        cache.write(8, &new);
        assert_eq!(cache.read(8).unwrap(), new);
        // Parity must still protect the *other* lines of the group.
        for bit in [101, 202, 303] {
            cache.inject_fault(9, bit);
        }
        assert_eq!(cache.read(9).unwrap(), golden[9]);
    }

    #[test]
    fn scrub_with_hints_equals_full_scrub() {
        let build = || {
            let mut c = small_cache(Scheme::Z);
            populate(&mut c);
            c.inject_fault(0, 1);
            c.inject_fault(0, 2);
            c.inject_fault(40, 7);
            c
        };
        let mut full = build();
        let mut hinted = build();
        let r1 = full.scrub();
        let r2 = hinted.scrub_lines(&[0, 40]);
        assert_eq!(r1.unresolved, r2.unresolved);
        assert_eq!(r1.sdr_repairs, r2.sdr_repairs);
        for i in 0..256 {
            assert_eq!(full.stored_line(i), hinted.stored_line(i), "line {i}");
        }
    }

    #[test]
    fn zero_fast_path_matches_reference_scrub() {
        // Dense store, golden-zero data: every clean group member is a
        // materialized all-zero line, which only the fast path may skip.
        let build = || {
            let config = SudokuConfig::small(Scheme::Z, 256, 16);
            let mut c = SudokuCache::new(config).unwrap();
            c.inject_fault(7, 1);
            c.inject_fault(7, 2);
            c.inject_fault(8, 3);
            c.inject_fault(8, 4);
            c.inject_fault(100, 550);
            c
        };
        let mut fast = build();
        let mut reference = build();
        let r1 = fast.scrub_lines(&[7, 8, 100]);
        let r2 = reference.scrub_lines_reference(&[7, 8, 100]);
        assert_eq!(r1, r2);
        for i in 0..256 {
            assert_eq!(fast.stored_line(i), reference.stored_line(i), "line {i}");
        }
        // The fast path must have skipped CRC work the reference performed.
        assert!(fast.stats().crc_checks < reference.stats().crc_checks);
    }

    /// Lines 0 and 1 share a Hash-1 group; line 1 carries two faults and
    /// line 0 the given ones.
    fn two_casualty_cache(line0_faults: &[usize]) -> (SudokuCache<DenseStore>, Vec<LineData>) {
        let mut cache = small_cache(Scheme::Y);
        let golden = populate(&mut cache);
        for &bit in line0_faults {
            cache.inject_fault(0, bit);
        }
        cache.inject_fault(1, 7);
        cache.inject_fault(1, 8);
        (cache, golden)
    }

    /// Scans lines 0 and 1 of [`two_casualty_cache`]: both multi-bit.
    fn scan_both(cache: &mut SudokuCache<DenseStore>) -> (Casualties, ScrubReport) {
        let mut report = ScrubReport::default();
        let mut faulty = Casualties::default();
        cache.scrub_scan([1, 0, 1], true, &mut report, &mut faulty);
        assert_eq!(faulty.lines().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(report.multibit_lines, 2);
        (faulty, report)
    }

    #[test]
    fn casualty_changed_after_the_scan_is_checked_again() {
        // Line 0 is rewritten between the scan and the pass to a codeword
        // one flip from golden: pass 1 must check it again and repair it
        // by ECC-1, leaving line 1 the lone casualty for RAID-4.
        let (mut cache, golden) = two_casualty_cache(&[5, 6]);
        let (mut faulty, mut report) = scan_both(&mut cache);
        let mut single = cache.codec.encode(&golden[0]);
        single.flip_bit(5);
        cache.set_stored_line(0, single);
        let before = *cache.stats();
        let mut recovered = Recovered::default();
        cache.recovery_pass(HashDim::H1, &mut faulty, &mut recovered, &mut report, true);
        assert!(faulty.is_empty(), "{faulty:?}");
        assert_eq!(cache.stats().ecc1_repairs - before.ecc1_repairs, 1);
        assert_eq!(recovered.lines().collect::<Vec<_>>(), [1]);

        let (mut fresh, _) = two_casualty_cache(&[5]);
        let fresh_report = fresh.scrub_lines(&[0, 1]);
        assert!(fresh_report.fully_repaired(), "{fresh_report:?}");
        assert_eq!(report.raid4_repairs, fresh_report.raid4_repairs);
        for i in 0..256 {
            assert_eq!(cache.stored_line(i), fresh.stored_line(i), "line {i}");
        }

        // Rewritten to its clean codeword instead, line 0 leaves the list
        // at the next retain, and recovery ends where a fresh scrub does.
        let (mut cache, golden) = two_casualty_cache(&[5, 6]);
        let (mut faulty, mut report) = scan_both(&mut cache);
        cache.set_stored_line(0, cache.codec.encode(&golden[0]));
        let checks = cache.stats().crc_checks;
        let mut recovered = Recovered::default();
        cache.retain_multibit(&mut faulty, &recovered);
        assert_eq!(faulty.lines().collect::<Vec<_>>(), [1]);
        assert_eq!(cache.stats().crc_checks - checks, 2);
        cache.recovery_pass(HashDim::H1, &mut faulty, &mut recovered, &mut report, true);
        assert!(faulty.is_empty(), "{faulty:?}");
        let (mut fresh, _) = two_casualty_cache(&[]);
        assert!(fresh.scrub_lines(&[0, 1]).fully_repaired());
        for i in 0..256 {
            assert_eq!(cache.stored_line(i), fresh.stored_line(i), "line {i}");
        }
    }

    #[test]
    fn unchanged_casualty_is_still_counted_as_a_check() {
        // A retain over unchanged casualties keeps both and charges both.
        let (mut cache, _) = two_casualty_cache(&[5, 6]);
        let (mut faulty, _) = scan_both(&mut cache);
        let checks = cache.stats().crc_checks;
        cache.retain_multibit(&mut faulty, &Recovered::default());
        assert_eq!(faulty.lines().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(cache.stats().crc_checks - checks, 2);

        // Every line holds non-zero data, so the zero fast path skips
        // nothing: the memo's hits must count exactly like the reference
        // path's checks, through SDR, RAID-4 and Hash-2 alike.
        let build = || {
            let mut c = small_cache(Scheme::Z);
            populate(&mut c);
            for (line, bits) in [
                (4, [100, 200]),
                (5, [100, 200]),
                (32, [11, 22]),
                (33, [33, 44]),
            ] {
                for bit in bits {
                    c.inject_fault(line, bit);
                }
            }
            c
        };
        let (mut fast, mut reference) = (build(), build());
        let r1 = fast.scrub_lines(&[4, 5, 32, 33]);
        let r2 = reference.scrub_lines_reference(&[4, 5, 32, 33]);
        assert!(r1.fully_repaired() && r1.hash2_repairs >= 1, "{r1:?}");
        assert_eq!(r1, r2);
        assert_eq!(fast.stats(), reference.stats());
    }

    #[test]
    fn group_scan_repairs_count_into_the_scrub_report() {
        // Line 3's single fault is not in the hints: only the pass-1 scan
        // of line 7's group finds and fixes it, and that fix belongs to
        // this scrub's report as much as to the lifetime counters.
        let mut cache = small_cache(Scheme::Z);
        cache.inject_fault(3, 40);
        cache.inject_fault(7, 1);
        cache.inject_fault(7, 2);
        let before = *cache.stats();
        let report = cache.scrub_lines(&[7]);
        assert!(report.fully_repaired(), "{report:?}");
        assert_eq!(cache.stats().ecc1_repairs - before.ecc1_repairs, 1);
        assert_eq!(report.ecc1_repairs, 1, "{report:?}");
        assert_eq!(report.raid4_repairs, 1, "{report:?}");
        assert!(cache.is_line_valid(3) && cache.is_line_valid(7));
    }

    #[test]
    fn live_members_cover_materialized_and_recovered_lines() {
        fn live<S: LineStore>(
            store: &mut S,
            recovered: &mut Recovered,
            dim: HashDim,
            group: u64,
        ) -> Vec<usize> {
            let mut out = Vec::new();
            CacheGroupView {
                store,
                recovered,
                casualties: None,
                hashes: SkewedHashes::new(256, 16).unwrap(),
                dim,
                group,
                parity: ProtectedLine::zero(),
            }
            .live_members(&mut out);
            out
        }
        let mut nonzero = ProtectedLine::zero();
        nonzero.flip_bit(3);
        // Hash-2 group 5 holds lines 5, 21, 37, 53, 69, ... (members 0..16).
        let mut store = SparseStore::new(256);
        store.set_line(37, nonzero);
        store.set_line(200, nonzero); // another group
        let mut recovered = Recovered::default();
        for line in [5, 37, 69] {
            recovered.insert(line, nonzero);
        }
        assert_eq!(live(&mut store, &mut recovered, HashDim::H2, 5), [0, 2, 4]);

        // A dense store, or a sparse one with at least a group's worth of
        // candidate lines, walks every member.
        let all: Vec<usize> = (0..16).collect();
        let mut dense = DenseStore::new(256);
        assert_eq!(live(&mut dense, &mut recovered, HashDim::H1, 0), all);
        for l in 100..113 {
            store.set_line(l, nonzero);
        }
        assert_eq!(live(&mut store, &mut recovered, HashDim::H1, 0), all);
    }

    #[test]
    fn uncorrectable_read_returns_error() {
        let mut cache = small_cache(Scheme::X);
        let _ = populate(&mut cache);
        // Two multibit lines in one group defeat SuDoku-X.
        cache.inject_fault(0, 5);
        cache.inject_fault(0, 6);
        cache.inject_fault(1, 7);
        cache.inject_fault(1, 8);
        assert_eq!(cache.read(0), Err(UncorrectableError { line: 0 }));
        assert!(cache.stats().due_lines >= 1);
    }

    #[test]
    fn plt_write_traffic_counts_both_tables() {
        let mut cache = small_cache(Scheme::Z);
        let _ = populate(&mut cache);
        // 256 writes × 2 PLTs.
        assert_eq!(cache.plt_write_count(), 512);
    }

    #[test]
    fn faults_in_metadata_region_are_recoverable_too() {
        let mut cache = small_cache(Scheme::Y);
        let golden = populate(&mut cache);
        // Multi-bit faults spanning CRC and ECC fields of two grouped lines.
        cache.inject_fault(0, 515);
        cache.inject_fault(0, 545);
        cache.inject_fault(1, 520);
        cache.inject_fault(1, 549);
        let report = cache.scrub();
        assert!(report.fully_repaired(), "{report:?}");
        assert_eq!(cache.read(0).unwrap(), golden[0]);
        assert_eq!(cache.read(1).unwrap(), golden[1]);
    }

    #[test]
    fn event_log_records_the_ladder() {
        let mut cache = small_cache(Scheme::Z);
        let _ = cache.set_recorder(Recorder::ring(4096));
        let golden = populate(&mut cache);
        cache.inject_fault(7, 100); // single
        let _ = cache.read(7);
        for bit in [1, 2, 3] {
            cache.inject_fault(20, bit); // RAID-4
        }
        let _ = cache.read(20);
        cache.inject_fault(32, 11);
        cache.inject_fault(32, 22);
        cache.inject_fault(33, 33);
        cache.inject_fault(33, 44);
        cache.scrub_lines(&[32, 33]); // SDR + RAID-4
        let repairs: Vec<Mechanism> = cache
            .events()
            .filter(|e| e.outcome == Outcome::Repaired)
            .map(|e| e.mechanism)
            .collect();
        assert!(repairs.contains(&Mechanism::Ecc1));
        assert!(repairs.contains(&Mechanism::Raid4));
        assert!(repairs.contains(&Mechanism::Sdr));
        assert!(cache.events().all(|e| e.mechanism != Mechanism::Due));
        // The multi-bit detections and the blocked-RAID-4 escalation are
        // part of the recorded chain too.
        assert!(cache
            .events()
            .any(|e| e.mechanism == Mechanism::CrcDetect && e.line == 20));
        assert!(cache
            .events()
            .any(|e| e.mechanism == Mechanism::Raid4 && e.outcome == Outcome::Blocked));
        assert_eq!(cache.read(32).unwrap(), golden[32]);
        cache.clear_events();
        assert!(cache.events().next().is_none());
    }

    #[test]
    fn event_log_records_due_with_line() {
        let mut cache = small_cache(Scheme::X);
        let _ = cache.set_recorder(Recorder::ring(4096));
        let _ = populate(&mut cache);
        cache.inject_fault(0, 1);
        cache.inject_fault(0, 2);
        cache.inject_fault(1, 3);
        cache.inject_fault(1, 4);
        cache.scrub();
        let dues: Vec<u64> = cache
            .events()
            .filter(|e| e.mechanism == Mechanism::Due)
            .map(|e| e.line)
            .collect();
        assert_eq!(dues, vec![0, 1]);
    }

    #[test]
    fn disabled_recorder_keeps_stats_and_results_identical() {
        let build = |recorder: Recorder| {
            let mut c = small_cache(Scheme::Z);
            let _ = c.set_recorder(recorder);
            populate(&mut c);
            c.inject_fault(4, 100);
            c.inject_fault(4, 200);
            c.inject_fault(5, 100);
            c.inject_fault(5, 200);
            let report = c.scrub();
            (c, report)
        };
        let (on, r_on) = build(Recorder::unbounded());
        let (off, r_off) = build(Recorder::disabled());
        assert_eq!(r_on, r_off);
        assert_eq!(on.stats(), off.stats());
        assert!(on.events().count() > 0);
        assert_eq!(off.events().count(), 0);
        assert!(off.recorder().hists.is_empty());
        assert!(off.recorder().phases.is_empty());
    }

    /// A tap-only recorder charges the grids exactly what the full event
    /// log of an unbounded recorder folds to, over a seeded mix of single-
    /// and multi-bit faults, scrubs, reads and writes, and keeps no events,
    /// histograms or phase spans.
    #[test]
    fn tap_only_recorder_grids_match_the_full_event_log() {
        use std::sync::Arc;
        use sudoku_obs::{Heatmaps, RegionGeometry};
        let maps = || Arc::new(Heatmaps::new(RegionGeometry::new(1, 16, 256, |_| 0)));
        let run = |recorder: Recorder| {
            let mut cache = small_cache(Scheme::Z);
            let _ = cache.set_recorder(recorder);
            let golden = populate(&mut cache);
            let mut rng = 0x7A90_0001_u64;
            let mut next = move |bound: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % bound
            };
            for _ in 0..60 {
                let line = next(256);
                match next(4) {
                    0 | 1 => {
                        for _ in 0..=next(3) {
                            cache.inject_fault(line, next(TOTAL_BITS as u64) as usize);
                        }
                    }
                    2 => {
                        let _ = cache.read(line);
                    }
                    _ => {
                        let _ = cache.scrub();
                    }
                }
            }
            cache.write(3, &golden[4]);
            let _ = cache.scrub();
            cache
        };
        let tap = maps();
        let tapped = run(Recorder::tap_only(Arc::clone(&tap)));
        let full = run(Recorder::unbounded());
        let folded = maps();
        for event in full.events() {
            folded.record_event(event);
        }
        assert_eq!(tapped.stats(), full.stats());
        assert!(tap.observed_cells().iter().sum::<u64>() > 20);
        assert!(full.stats().raid4_repairs + full.stats().sdr_repairs > 0);
        for ((name, got), (_, want)) in tap.named_grids().iter().zip(folded.named_grids()) {
            assert_eq!(got.snapshot(), want.snapshot(), "grid {name}");
        }
        assert_eq!(tapped.events().count(), 0);
        assert!(tapped.recorder().hists.is_empty());
        assert!(tapped.recorder().phases.is_empty());
        assert!(!full.recorder().hists.is_empty());
        assert!(!full.recorder().phases.is_empty());
    }

    #[test]
    fn recorder_histograms_track_recovery_work() {
        let mut cache = small_cache(Scheme::Y);
        let _ = cache.set_recorder(Recorder::unbounded());
        let _ = populate(&mut cache);
        cache.inject_fault(0, 5);
        cache.inject_fault(0, 6);
        cache.inject_fault(1, 7);
        cache.inject_fault(1, 8);
        let report = cache.scrub();
        assert!(report.fully_repaired());
        let hists = &cache.recorder().hists;
        assert!(hists.sdr_trials_per_resurrection.count() >= 1);
        assert_eq!(hists.group_scan_lines.max(), 16);
        assert!(hists.line_recovery_ns.count() > 0);
        // The Recover span was timed.
        assert!(cache.recorder().phases.spans(Phase::Recover) >= 1);
        // SDR trial counts on events add up to the stats counter.
        let event_trials: u64 = cache
            .events()
            .filter(|e| e.mechanism == Mechanism::Sdr)
            .map(|e| e.trials as u64)
            .sum();
        assert_eq!(event_trials, cache.stats().sdr_trials);
    }

    #[test]
    fn reset_to_golden_zero_equals_fresh_cache() {
        let config = SudokuConfig::small(Scheme::Z, 256, 16);
        let mut reused = SudokuCache::new_sparse(config).unwrap();
        let _ = reused.set_recorder(Recorder::ring(4096));
        // Dirty everything: writes (PLT deltas), faults, a scrub, leftovers.
        reused.write(3, &data_with(&[1, 2, 3]));
        reused.inject_fault(9, 10);
        reused.inject_fault(9, 20);
        reused.inject_fault(10, 10);
        reused.inject_fault(10, 20);
        let _ = reused.scrub_lines(&[9, 10]);
        assert!(reused.events().next().is_some());
        reused.reset_to_golden_zero();
        assert_eq!(reused.store().materialized(), 0);
        assert!(reused.events().next().is_none());

        // The reused arena must now behave exactly like a fresh cache.
        let mut fresh = SudokuCache::new_sparse(config).unwrap();
        for c in [&mut reused, &mut fresh] {
            c.inject_fault(7, 1);
            c.inject_fault(7, 2);
            c.inject_fault(8, 3);
            c.inject_fault(8, 4);
        }
        let r1 = reused.scrub_lines(&[7, 8]);
        let r2 = fresh.scrub_lines(&[7, 8]);
        assert_eq!(r1, r2);
        for i in 0..256 {
            assert_eq!(reused.stored_line(i), fresh.stored_line(i), "line {i}");
        }
    }

    /// Ladder-shaped faults in one Hash-1 group: `victims` (member
    /// offsets) each get the same number of faults, either at fresh
    /// positions or, with `overlap`, all at the first victim's positions —
    /// the pattern only Hash-2 can fix. `stray` adds one unhinted
    /// single-bit fault that only a group scan finds.
    #[derive(Clone, Debug)]
    struct Ladder {
        scheme: Scheme,
        group: u64,
        written: BTreeSet<u64>,
        victims: Vec<(u64, Vec<usize>)>,
        stray: Option<(u64, usize)>,
    }

    fn arb_ladder() -> impl Strategy<Value = Ladder> {
        (
            (0..3usize, 0..16u64, btree_set(0..16u64, 0..=3)),
            (btree_set(0..16u64, 1..=4), 1..=3usize, 0..4u8),
            (vec(btree_set(0..TOTAL_BITS, 3), 4), 0..32u64, 0..TOTAL_BITS),
        )
            .prop_map(
                |((scheme, group, written), (offsets, m, overlap), (bits, stray, stray_bit))| {
                    let victims = offsets
                        .iter()
                        .enumerate()
                        .map(|(k, &off)| {
                            let pick = if overlap == 0 { 0 } else { k };
                            (off, bits[pick].iter().copied().take(m).collect())
                        })
                        .collect();
                    Ladder {
                        scheme: [Scheme::X, Scheme::Y, Scheme::Z][scheme],
                        group,
                        written,
                        victims,
                        stray: (stray < 16 && !offsets.contains(&stray))
                            .then_some((stray, stray_bit)),
                    }
                },
            )
    }

    /// Runs `ladder` on `cache` and returns what a scrub can observe.
    fn run_ladder<S: LineStore>(
        mut cache: SudokuCache<S>,
        ladder: &Ladder,
    ) -> (
        ScrubReport,
        CacheStats,
        Vec<RecoveryEvent>,
        Vec<ProtectedLine>,
    ) {
        let _ = cache.set_recorder(Recorder::ring(4096));
        let line = |off: u64| ladder.group * 16 + off;
        for &off in &ladder.written {
            cache.write(
                line(off),
                &data_with(&[off as usize * 31, 300 + off as usize]),
            );
        }
        for (off, bits) in &ladder.victims {
            for &b in bits {
                cache.inject_fault(line(*off), b);
            }
        }
        if let Some((off, bit)) = ladder.stray {
            cache.inject_fault(line(off), bit);
        }
        let hints: Vec<u64> = ladder.victims.iter().map(|&(off, _)| line(off)).collect();
        let report = cache.scrub_lines(&hints);
        let stored = (0..256).map(|i| cache.stored_line(i)).collect();
        (
            report,
            *cache.stats(),
            cache.events().copied().collect(),
            stored,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The sparse store's live-member walk must be indistinguishable
        /// from the dense store's walk over every member.
        #[test]
        fn sparse_cache_behaves_like_dense_for_zero_data(ladder in arb_ladder()) {
            let config = SudokuConfig::small(ladder.scheme, 256, 16);
            let dense = run_ladder(SudokuCache::new(config).unwrap(), &ladder);
            let sparse = run_ladder(SudokuCache::new_sparse(config).unwrap(), &ladder);
            prop_assert_eq!(&sparse.0, &dense.0, "{:?}", ladder);
            prop_assert_eq!(&sparse.1, &dense.1, "{:?}", ladder);
            prop_assert_eq!(&sparse.2, &dense.2, "{:?}", ladder);
            prop_assert_eq!(&sparse.3, &dense.3, "{:?}", ladder);
        }
    }
}
