//! The sharded storage engine: `N` per-shard [`SudokuCache`]s plus a
//! cross-shard Hash-2 coordinator.
//!
//! Sharding follows [`ShardPlan`]: Hash-1 RAID-Groups round-robin over
//! shards, so every Hash-1 repair (ECC-1, CRC detect, RAID-4, SDR) touches
//! exactly one shard, while every Hash-2 group spans several shards — the
//! SuDoku-Z dimension is inherently a cross-shard protocol. Each shard is
//! a full-geometry [`SudokuCache`] over a store of its own lines
//! (`ShardStore`, kept in the slots of the lock-free line view, the only
//! copy of each line) with [`SudokuConfig::with_deferred_hash2`] set: the
//! shard still maintains its slice of the Hash-2 PLT on writes (parity is
//! linear, so the global Hash-2 parity of a group is the XOR of the
//! per-shard slices), but its *own* recovery ladder stops after Hash-1.
//! Whatever a shard cannot resolve locally escalates to the coordinator,
//! which gathers the Hash-2 group's members from their owning shards and
//! drives the exact same [`RepairEngine`] the single-threaded cache uses.
//!
//! The deterministic whole-cache scrub ([`ShardedCache::scrub_lines`])
//! and the recovery of last resort ([`ShardedCache::escalate`]) share one
//! cross-shard recovery routine. It runs on the caller's thread with every
//! live shard locked and replicates the reference fixpoint schedule: each
//! shard's Hash-1 pass, one shard after another, then the coordinator's
//! Hash-2 pass, until a round makes no progress. Shards' states are
//! disjoint and Hash-1 groups are shard-local, so recovery outcomes,
//! [`ScrubReport`]s, and `CacheStats` totals are invariant in the shard
//! count (property-tested for N ∈ {1, 2, 4, 8}). The two entry points
//! differ only in how they seed each shard's faulty set: a scrub scans its
//! hints, an escalation re-checks lines already seen failing.
//!
//! The scrub daemon never takes the whole-cache path. Each tick
//! (`daemon_tick` in the service) runs the shard-local sweep, which checks
//! clean lines off the view without the shard lock and locks only for the
//! lines that need the ladder (dirty or torn slots, and the lines the tick
//! just faulted), then hands what the shard could not resolve to
//! [`ShardedCache::escalate`].
//!
//! # Degraded mode
//!
//! The engine survives two kinds of damage instead of panicking:
//!
//! * **Shard loss.** A poisoned shard mutex (a thread panicked mid-repair)
//!   quarantines the shard: demand requests to it fail fast with
//!   [`ServiceError::ShardDown`], scrubs and escalations run over the
//!   surviving N−1 shards, and cross-shard Hash-2 recovery — which needs
//!   every shard's parity slice — is skipped (counted, and the implicated
//!   lines become honest DUEs rather than wrong data).
//! * **Permanent faults.** An optional [`StuckBitMap`] (the physics
//!   harness of [`VminCache`]) re-corrupts stuck cells after every write
//!   and repair write-back. Lines that keep coming back — repeated DUEs,
//!   or group reconstructions the stuck cells immediately undo (an SDR
//!   resurrection that can never converge) — are remapped to a small
//!   per-shard spare pool instead of being repaired forever.
//!
//! # Spatial plane
//!
//! The cache builds its [`Heatmaps`] with itself (one row per shard,
//! [`DEFAULT_REGIONS`] line ranges per row) and installs them as the tap
//! of every recorder it owns, so each repair event lands in its
//! (shard, region) cell. The paths that emit no event charge the grids
//! directly: fault injection, stuck-cell reasserts, sparing strikes, and
//! DUEs of lines on dead shards. For stuck reasserts and strikes the
//! grids are the only count: [`DegradedStats`] reports their totals.
//!
//! [`VminCache`]: sudoku_core::VminCache

use crate::degraded::{DegradedConfig, DegradedStats, ShardHealth, SpareTable};
use crate::error::ServiceError;
use crate::store::ShardStore;
use crate::view::{LineView, ViewRead};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, MutexGuard, PoisonError, TryLockError};
use sudoku_codes::{LineCodec, LineData, ProtectedLine};
use sudoku_core::{
    reassert_stuck, CacheStats, Casualties, ConfigError, GroupScratch, GroupView, HashDim,
    MemberState, Recorder, Recovered, RepairEngine, RepairParams, ScrubReport, ShardPlan,
    SudokuCache, SudokuConfig, UncorrectableError,
};
use sudoku_fault::{FaultInjector, StuckBitMap};
use sudoku_obs::{Heatmaps, RegionGeometry, DEFAULT_REGIONS};

/// Lines per shard-mutex hold in the daemon's bulk passes (fault
/// injection, the locked scan). A tick can fault hundreds of lines;
/// taking the lock in chunks lets demand ops in between.
const DAEMON_LOCK_CHUNK: usize = 32;

/// One shard's cache, stored in the lock-free view's slots.
type ShardCache = SudokuCache<ShardStore>;

/// Cross-shard recovery state owned by the coordinator: its own counter
/// pool, recorder, and scratch buffers, so Hash-2 accounting is attributed
/// to the coordinator rather than to any one shard.
struct Coordinator {
    stats: CacheStats,
    recorder: Recorder,
    scratch: GroupScratch,
}

/// Per-shard degraded-mode state: the sparing table plus the
/// non-convergence count. Guarded by its own mutex, acquired only *after*
/// the shard's cache mutex (never while waiting on one) — a strict shard →
/// extra order, so it cannot deadlock against recovery.
struct ShardExtra {
    spares: SpareTable,
    undone_reconstructions: u64,
}

/// Per-call recovery state of one shard during a scrub or escalation.
#[derive(Default)]
struct ScrubState {
    /// The caller's lines this shard owns, until they seed `faulty`.
    lines: Vec<u64>,
    faulty: Casualties,
    recovered: Recovered,
    report: ScrubReport,
}

/// One locked shard plus its in-flight recovery state, for the duration
/// of a scrub or escalation.
struct Working<'a> {
    cache: MutexGuard<'a, ShardCache>,
    st: ScrubState,
}

/// A Hash-2 group's members gathered from their owning shards — the
/// [`GroupView`] the coordinator drives the shared repair engine over.
/// Parity is the XOR of the per-shard Hash-2 PLT slices (linearity);
/// reconstructions commit into the owning shard's store and recovered map.
/// Only constructed when every shard is up (a quarantined shard's parity
/// slice is unavailable, so H2 gathering would be unsound).
struct GatherView<'a, 'b> {
    plan: &'a ShardPlan,
    work: &'a mut [Option<Working<'b>>],
    members: &'a [u64],
    parity: ProtectedLine,
}

impl GatherView<'_, '_> {
    fn slot(&self, line: u64) -> &Working<'_> {
        self.work[self.plan.shard_of_line(line)]
            .as_ref()
            .expect("H2 gathering requires every shard up")
    }
}

impl GroupView for GatherView<'_, '_> {
    fn len(&self) -> usize {
        self.members.len()
    }

    fn line_id(&self, i: usize) -> u64 {
        self.members[i]
    }

    fn state(&self, i: usize) -> MemberState {
        let m = self.members[i];
        let w = self.slot(m);
        if let Some(r) = w.st.recovered.get(m) {
            return MemberState::Recovered(r);
        }
        match w.cache.stored_line(m) {
            raw if raw.is_zero() => MemberState::Zero,
            raw => MemberState::Stored(raw),
        }
    }

    fn commit_repair(&mut self, i: usize, line: ProtectedLine) {
        let m = self.members[i];
        let w = self.work[self.plan.shard_of_line(m)]
            .as_mut()
            .expect("H2 gathering requires every shard up");
        w.cache.set_stored_line(m, line);
    }

    fn commit_reconstruction(&mut self, i: usize, line: ProtectedLine) {
        let m = self.members[i];
        let w = self.work[self.plan.shard_of_line(m)]
            .as_mut()
            .expect("H2 gathering requires every shard up");
        w.cache.set_stored_line(m, line);
        w.st.recovered.insert(m, line);
    }

    fn parity(&self) -> ProtectedLine {
        self.parity
    }
}

/// Merges per-shard and coordinator [`ScrubReport`]s into the global view
/// a single-threaded scrub would have produced: counters sum, unresolved
/// lines concatenate and sort ascending.
pub fn merge_reports<'a>(reports: impl IntoIterator<Item = &'a ScrubReport>) -> ScrubReport {
    let mut out = ScrubReport::default();
    for r in reports {
        out.lines_checked += r.lines_checked;
        out.ecc1_repairs += r.ecc1_repairs;
        out.meta_repairs += r.meta_repairs;
        out.multibit_lines += r.multibit_lines;
        out.raid4_repairs += r.raid4_repairs;
        out.sdr_repairs += r.sdr_repairs;
        out.hash2_repairs += r.hash2_repairs;
        out.unresolved.extend_from_slice(&r.unresolved);
    }
    out.unresolved.sort_unstable();
    out
}

/// A SuDoku cache partitioned into `N` concurrent shards.
///
/// Thread-safe by construction: shards sit behind their own mutexes
/// (demand traffic on different shards never contends), and cross-shard
/// work acquires shard locks in ascending index order, then the
/// coordinator — a total order, so concurrent escalations cannot deadlock.
///
/// # Examples
///
/// ```
/// use sudoku_core::{Scheme, SudokuConfig};
/// use sudoku_svc::ShardedCache;
///
/// let config = SudokuConfig::small(Scheme::Z, 256, 16);
/// let cache = ShardedCache::new(config, 4)?;
/// // Fully overlapping double faults defeat Hash-1 SDR; the cross-shard
/// // Hash-2 coordinator resolves them.
/// for line in [4u64, 5] {
///     cache.inject_fault(line, 100);
///     cache.inject_fault(line, 200);
/// }
/// let report = cache.scrub_lines(&[4, 5]);
/// assert!(report.fully_repaired());
/// assert!(report.hash2_repairs >= 1);
/// # Ok::<(), sudoku_core::ConfigError>(())
/// ```
pub struct ShardedCache {
    plan: ShardPlan,
    config: SudokuConfig,
    shards: Vec<Mutex<ShardCache>>,
    coord: Mutex<Coordinator>,
    health: ShardHealth,
    extras: Vec<Mutex<ShardExtra>>,
    stuck: StuckBitMap,
    rejects: AtomicU64,
    skipped_h2: AtomicU64,
    /// The seqlock-stamped slot of every line: the shard stores keep their
    /// lines here, and clean reads and sweeps load them without a lock.
    view: Arc<LineView>,
    /// The spatial reliability plane, built with the cache: every recorder
    /// emit taps into its per-(shard, region) grids, and the paths that
    /// emit nothing (fault injection, stuck-cell physics, sparing strikes,
    /// dead-shard DUEs) charge it directly. Its `stuck` and `strikes` grids
    /// are the only count of stuck reasserts and strikes.
    heatmaps: Arc<Heatmaps>,
}

impl ShardedCache {
    /// Builds an `n_shards`-way sharded cache over `config`'s geometry,
    /// with no permanent faults and the default sparing policy.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from validation, including
    /// [`ConfigError::BadShardCount`] when the Hash-1 groups cannot be
    /// divided among `n_shards`.
    pub fn new(config: SudokuConfig, n_shards: usize) -> Result<Self, ConfigError> {
        Self::with_faults(
            config,
            n_shards,
            StuckBitMap::new(),
            DegradedConfig::default(),
        )
    }

    /// Builds a sharded cache over an array with permanent (stuck-at)
    /// cells: `stuck` plays the physics role it plays for
    /// [`VminCache`](sudoku_core::VminCache) — after every write and every
    /// repair write-back, the stuck cells reassert their values — and
    /// `degraded` sets the line-sparing policy for cells the ladder keeps
    /// re-repairing. The spatial plane ([`ShardedCache::heatmaps`]) is
    /// built here too, over the plan's shards and [`DEFAULT_REGIONS`], and
    /// installed as the tap of every recorder the cache owns.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] exactly like [`ShardedCache::new`].
    pub fn with_faults(
        config: SudokuConfig,
        n_shards: usize,
        stuck: StuckBitMap,
        degraded: DegradedConfig,
    ) -> Result<Self, ConfigError> {
        let plan = ShardPlan::new(&config, n_shards)?;
        let heatmaps = Arc::new(Heatmaps::new(RegionGeometry::new(
            n_shards,
            DEFAULT_REGIONS,
            config.geometry.lines(),
            |line| plan.shard_of_line(line),
        )));
        let shard_config = config.with_deferred_hash2();
        let view = Arc::new(LineView::new(config.geometry.lines(), n_shards));
        let shards = (0..n_shards)
            .map(|shard| {
                let store = ShardStore::new(&plan, shard, Arc::clone(&view));
                let mut cache = SudokuCache::with_store(shard_config, store)?;
                let _ = cache.set_recorder(Recorder::tap_only(Arc::clone(&heatmaps)));
                Ok(Mutex::new(cache))
            })
            .collect::<Result<Vec<_>, ConfigError>>()?;
        let extras = (0..n_shards)
            .map(|_| {
                Mutex::new(ShardExtra {
                    spares: SpareTable::new(degraded),
                    undone_reconstructions: 0,
                })
            })
            .collect();
        Ok(ShardedCache {
            plan,
            config,
            shards,
            coord: Mutex::new(Coordinator {
                stats: CacheStats::default(),
                recorder: Recorder::tap_only(Arc::clone(&heatmaps)),
                scratch: GroupScratch::default(),
            }),
            health: ShardHealth::new(n_shards),
            extras,
            stuck,
            rejects: AtomicU64::new(0),
            skipped_h2: AtomicU64::new(0),
            view,
            heatmaps,
        })
    }

    /// The spatial reliability plane: per-(shard, region) grids of every
    /// injected bit, repair, DUE, stuck reassert and strike.
    pub fn heatmaps(&self) -> &Arc<Heatmaps> {
        &self.heatmaps
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.plan.n_shards()
    }

    /// The shard partitioning in use.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The (non-deferred) cache configuration the shards were built from.
    pub fn config(&self) -> &SudokuConfig {
        &self.config
    }

    /// Shard liveness, shared with the scrub daemon and handles.
    pub fn health(&self) -> &ShardHealth {
        &self.health
    }

    /// Counts one fail-fast rejection of a request to a quarantined shard.
    pub(crate) fn note_reject(&self) {
        self.rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Fails fast (counting a rejection) when `shard` is quarantined.
    fn check_up(&self, shard: usize) -> Result<(), ServiceError> {
        if self.health.is_up(shard) {
            return Ok(());
        }
        self.note_reject();
        Err(ServiceError::ShardDown(shard))
    }

    /// Acquires `shard`'s cache for a demand operation: fails fast when the
    /// shard is quarantined, before the wait or after it (a shard that died
    /// while this thread waited must not serve it), and quarantines it on
    /// the spot when its mutex turns out to be poisoned (a thread panicked
    /// mid-operation).
    fn lock_shard(&self, shard: usize) -> Result<MutexGuard<'_, ShardCache>, ServiceError> {
        self.check_up(shard)?;
        let locked = self.shards[shard].lock();
        self.checked(shard, locked)
    }

    /// The checks of [`ShardedCache::lock_shard`] after its lock attempt.
    fn checked<'a>(
        &self,
        shard: usize,
        locked: LockResult<MutexGuard<'a, ShardCache>>,
    ) -> Result<MutexGuard<'a, ShardCache>, ServiceError> {
        let Ok(guard) = locked else {
            self.health.quarantine(shard);
            return Err(ServiceError::ShardDown(shard));
        };
        self.check_up(shard)?;
        Ok(guard)
    }

    /// Telemetry-path lock: counters and stored lines of a quarantined (or
    /// poison-locked) shard are still worth harvesting — plain `u64`s and
    /// line words cannot be torn by an unwinding panic.
    fn lock_shard_telemetry(&self, shard: usize) -> MutexGuard<'_, ShardCache> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_extra(&self, shard: usize) -> MutexGuard<'_, ShardExtra> {
        self.extras[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The spare pool's copy of `line`, as [`SpareTable::lookup`] gives
    /// it. Only a line the view marks spared takes the `extras` lock. The
    /// mark is exact while the caller holds `line`'s shard mutex: it is
    /// set under that mutex and the `extras` lock, right after the table
    /// spares the line, and never cleared.
    fn spared_lookup(&self, shard: usize, line: u64) -> Option<Option<LineData>> {
        if !self.view.is_spared(line) {
            return None;
        }
        let hit = self.lock_extra(shard).spares.lookup(line);
        debug_assert!(
            hit.is_some(),
            "line {line} is marked spared in the view only"
        );
        hit
    }

    /// Lands a write to `line` in the spare pool when the line is spared,
    /// as [`SpareTable::write`] does; the lock rule of
    /// [`ShardedCache::spared_lookup`] applies.
    fn spared_write(&self, shard: usize, line: u64, data: &LineData) -> bool {
        if !self.view.is_spared(line) {
            return false;
        }
        let absorbed = self.lock_extra(shard).spares.write(line, data);
        debug_assert!(absorbed, "line {line} is marked spared in the view only");
        absorbed
    }

    fn lock_coord(&self) -> MutexGuard<'_, Coordinator> {
        self.coord.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reasserts the stuck cells of `line` after a write or repair
    /// write-back, charging the flipped bits to the `stuck` grid.
    fn reassert_line(&self, cache: &mut ShardCache, line: u64) {
        if self.stuck.is_stuck(line) {
            let changed = reassert_stuck(cache, &self.stuck, line) as u64;
            if changed > 0 {
                self.heatmaps.charge_stuck(line, changed);
            }
        }
    }

    /// Reasserts every stuck line owned by `shard` (the post-scrub physics
    /// step).
    fn reassert_shard(&self, cache: &mut ShardCache, shard: usize) {
        for line in self.stuck.lines() {
            if self.plan.shard_of_line(line) == shard {
                self.reassert_line(cache, line);
            }
        }
    }

    /// Attempts a lock-free clean read of `line`, owned by `shard`, via
    /// the seqlock view: `Some(data)` when the line is verifiably clean
    /// (CRC checked inline or published as a codeword, or golden zero),
    /// `None` when the caller must take the locked path. The second
    /// element counts seqlock retries (for telemetry).
    pub fn try_read_clean(&self, line: u64, shard: usize) -> (Option<LineData>, u32) {
        debug_assert_eq!(shard, self.plan.shard_of_line(line), "line {line}");
        if !self.health.is_up(shard) {
            // Quarantine wins: the locked path owns the error reporting.
            return (None, 0);
        }
        match self.view.try_read(line, shard) {
            (ViewRead::Clean(data), retries) => (Some(data), retries),
            (ViewRead::Zero, retries) => (Some(LineData::zero()), retries),
            (ViewRead::Miss, retries) => (None, retries),
        }
    }

    /// Opens a per-shard demand session: the shard mutex, held until the
    /// session drops. Blocks while another thread holds it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShardDown`] when the shard is quarantined (or its
    /// mutex is poisoned — it gets quarantined on the spot).
    pub fn session(&self, shard: usize) -> Result<ShardSession<'_>, ServiceError> {
        Ok(ShardSession {
            cache: self.lock_shard(shard)?,
            owner: self,
            shard,
        })
    }

    /// [`ShardedCache::session`] without blocking: `None` while another
    /// thread holds the shard mutex.
    pub(crate) fn try_session(
        &self,
        shard: usize,
    ) -> Option<Result<ShardSession<'_>, ServiceError>> {
        let locked = match self.shards[shard].try_lock() {
            Ok(guard) => Ok(guard),
            Err(TryLockError::Poisoned(poisoned)) => Err(poisoned),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(self.checked(shard, locked).map(|cache| ShardSession {
            cache,
            owner: self,
            shard,
        }))
    }

    /// Writes `data` to `line` on its owning shard (or its spare-pool slot,
    /// when the line has been spared).
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShardDown`] when the owning shard is quarantined.
    pub fn write(&self, line: u64, data: &LineData) -> Result<(), ServiceError> {
        let shard = self.plan.shard_of_line(line);
        self.session(shard)?.write(line, data);
        Ok(())
    }

    /// Reads `line` from its owning shard, escalating to cross-shard
    /// Hash-2 recovery when the shard-local (Hash-1-only) ladder fails.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Uncorrectable`] when even cross-shard recovery fails
    /// (a DUE), [`ServiceError::ShardDown`] when the owning shard is
    /// quarantined.
    pub fn read(&self, line: u64) -> Result<LineData, ServiceError> {
        let shard = self.plan.shard_of_line(line);
        // The session drops with this statement: escalation locks every
        // shard, this one included.
        let local = self.session(shard)?.read(line);
        match local {
            Err(ServiceError::Uncorrectable(_)) => {
                // The owner gave up after Hash-1; gather the Hash-2 groups.
                self.escalate_fetch(line)
            }
            other => other,
        }
    }

    /// Escalates `line` and returns its post-escalation value, captured
    /// *before* stuck cells reassert — a repaired demand read must return
    /// the repaired data even when the array copy immediately re-corrupts.
    pub(crate) fn escalate_fetch(&self, line: u64) -> Result<LineData, ServiceError> {
        self.escalate_inner(&[line], Some(line))
            .1
            .expect("fetch result requested")
    }

    /// Flips one stored bit of `line` — a transient fault. Works on
    /// quarantined shards too (faults are physics, not requests).
    pub fn inject_fault(&self, line: u64, bit: usize) {
        // The store writes the flip through to the view: the lock-free path
        // sees the faulty bits (and misses on the CRC), never stale data.
        self.lock_shard_telemetry(self.plan.shard_of_line(line))
            .inject_fault(line, bit);
        self.heatmaps.charge_injected(line, 1);
    }

    /// Applies a resolved fault plan (line, fault positions) as produced by
    /// [`FaultInjector::resolved_plan`], routing each line to its shard.
    pub fn apply_resolved_plan(&self, plan: &[(u64, Vec<usize>)]) {
        for (line, positions) in plan {
            let mut shard = self.lock_shard_telemetry(self.plan.shard_of_line(*line));
            for &pos in positions {
                shard.inject_fault(*line, pos);
            }
            self.heatmaps.charge_injected(*line, positions.len() as u64);
        }
    }

    /// Injects one scrub interval's worth of transient faults into the
    /// lines owned by `shard`, using the caller's (typically per-shard
    /// forked) injector. Returns the faulted lines — the scan hints for the
    /// following scrub tick. A quarantined shard is skipped (empty result).
    pub fn inject_shard(&self, shard: usize, injector: &mut FaultInjector) -> Vec<u64> {
        let plan = injector.resolved_plan(self.plan.owned_line_count(shard));
        let mut lines = Vec::with_capacity(plan.len());
        // Chunked lock holds: a tick can fault hundreds of lines, and
        // holding the shard mutex across all of them convoys the demand
        // path for the whole tick. Per-line atomicity is all the physics
        // needs — demand ops interleaving between chunks just see some
        // faults earlier than others.
        for chunk in plan.chunks(DAEMON_LOCK_CHUNK) {
            let Ok(mut cache) = self.lock_shard(shard) else {
                return lines;
            };
            for (idx, positions) in chunk {
                let line = self.plan.owned_line_at(shard, *idx);
                for &pos in positions {
                    cache.inject_fault(line, pos);
                }
                self.heatmaps.charge_injected(line, positions.len() as u64);
                lines.push(line);
            }
        }
        lines
    }

    /// The stored (possibly faulty) line at `line`.
    pub fn stored_line(&self, line: u64) -> ProtectedLine {
        self.lock_shard_telemetry(self.plan.shard_of_line(line))
            .stored_line(line)
    }

    /// Aggregate counters: the sum over all shards plus the coordinator —
    /// the pool a single-threaded cache would have accumulated alone.
    /// Quarantined shards' counters are still included (what survived).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in 0..self.n_shards() {
            total.merge(self.lock_shard_telemetry(shard).stats());
            self.view.fold_stats(shard, &mut total);
        }
        total.merge(&self.lock_coord().stats);
        total
    }

    /// The coordinator's own counters (cross-shard Hash-2 work).
    pub fn coordinator_stats(&self) -> CacheStats {
        self.lock_coord().stats
    }

    /// Per-shard spare-pool occupancy (lines currently remapped), for the
    /// live telemetry plane. Poison-tolerant like the other telemetry
    /// reads.
    pub fn spare_occupancy(&self) -> Vec<u64> {
        (0..self.n_shards())
            .map(|s| self.lock_extra(s).spares.spared_lines() as u64)
            .collect()
    }

    /// Aggregated degraded-mode counters: quarantine, sparing, stuck-cell
    /// physics, and skipped cross-shard escalations.
    pub fn degraded_stats(&self) -> DegradedStats {
        let mut out = DegradedStats {
            quarantined_shards: self.health.quarantined(),
            stuck_lines: self.stuck.faulty_lines() as u64,
            shard_down_rejects: self.rejects.load(Ordering::Relaxed),
            skipped_h2_escalations: self.skipped_h2.load(Ordering::Relaxed),
            strikes: self.heatmaps.strikes.total(),
            stuck_reasserts: self.heatmaps.stuck.total(),
            ..DegradedStats::default()
        };
        for shard in 0..self.n_shards() {
            let extra = self.lock_extra(shard);
            out.spared_lines += extra.spares.spared_lines() as u64;
            out.spare_reads += extra.spares.spare_reads;
            out.spare_writes += extra.spares.spare_writes;
            out.spare_overflow += extra.spares.spare_overflow;
            out.undone_reconstructions += extra.undone_reconstructions;
        }
        out
    }

    /// Chaos hook: panics on purpose — optionally while holding `shard`'s
    /// cache mutex, poisoning it the way a real mid-repair panic would.
    /// Never called on any production path.
    pub fn chaos_panic(&self, shard: usize, hold_lock: bool) -> ! {
        ShardSession {
            cache: self.lock_shard_telemetry(shard),
            owner: self,
            shard,
        }
        .chaos_panic(hold_lock)
    }

    /// Deterministic whole-service scrub of the listed lines (plus
    /// whatever group recovery pulls in), replicating the single-threaded
    /// [`SudokuCache::scrub_lines`] schedule exactly: scan the hints, then
    /// run the cross-shard recovery fixpoint on the caller's thread. Holds
    /// every shard lock for the duration — the stop-the-world reference
    /// path. Everything after the scan is [`ShardedCache::escalate`]'s
    /// path: spared lines are skipped, unresolved lines accumulate sparing
    /// strikes, and quarantined shards' hinted lines come back unresolved.
    pub fn scrub_lines(&self, hints: &[u64]) -> ScrubReport {
        let (mut work, down) = self.lock_and_route(hints);
        // Seed by scanning: the hinted lines found multi-bit are the
        // faulty sets.
        for w in work.iter_mut().flatten() {
            let st = &mut w.st;
            w.cache
                .scrub_scan(st.lines.drain(..), true, &mut st.report, &mut st.faulty);
        }
        self.recover(work, down, None).0
    }

    /// Scrubs every line of the cache. Equivalent to
    /// [`ShardedCache::scrub_lines`] over `0..n_lines`.
    pub fn scrub(&self) -> ScrubReport {
        let all: Vec<u64> = (0..self.config.geometry.lines()).collect();
        self.scrub_lines(&all)
    }

    /// Shard-local scrub tick: scans the hinted lines owned by `shard` and
    /// runs the Hash-1-only recovery fixpoint inside that shard, without
    /// touching any other shard. Returns the tick's report and the lines
    /// the shard could **not** resolve locally — the caller escalates
    /// those via [`ShardedCache::escalate`]. Hints owned by other shards,
    /// repeated hints and spared lines are skipped. Clean lines are checked
    /// off the lock-free view; only the others are scanned under the shard
    /// lock, and the counters come out as if every line had been. No DUE
    /// accounting happens here; a line is only a DUE once escalation also
    /// fails. A quarantined shard returns an empty report and no leftovers.
    pub fn scrub_shard_local(&self, shard: usize, hints: &[u64]) -> (ScrubReport, Vec<u64>) {
        let mut owned: Vec<u64> = hints
            .iter()
            .copied()
            .filter(|&l| self.plan.shard_of_line(l) == shard)
            .collect();
        owned.sort_unstable();
        owned.dedup();
        self.scrub_shard_sweep(shard, &[], owned)
    }

    /// The one shard-local scan path. `forced` lines are scanned and
    /// repaired under the lock first, so the faults a tick just injected
    /// stay visible to demand ops no longer than that. `swept` lines are
    /// then pre-checked off the view ([`LineView::sweep`]): clean and
    /// golden-zero ones are counted there, and only dirty or torn ones are
    /// scanned and repaired under the lock too. Spared lines are skipped.
    /// Every line must be owned by `shard` and listed once across both
    /// lists. A tick with nothing to lock for takes no lock at all.
    pub(crate) fn scrub_shard_sweep(
        &self,
        shard: usize,
        forced: &[u64],
        swept: impl IntoIterator<Item = u64>,
    ) -> (ScrubReport, Vec<u64>) {
        let mut report = ScrubReport::default();
        let mut leftover = Vec::new();
        let forced: Vec<u64> = forced
            .iter()
            .copied()
            .filter(|&l| !self.view.is_spared(l))
            .collect();
        let down = || (ScrubReport::default(), Vec::new());
        if !self.health.is_up(shard)
            || !self.repair_locked(shard, &forced, &mut report, &mut leftover)
        {
            return down();
        }
        let mut dirty = Vec::new();
        report.lines_checked += self.view.sweep(shard, swept, &mut dirty);
        if !self.repair_locked(shard, &dirty, &mut report, &mut leftover) {
            return down();
        }
        leftover.sort_unstable();
        leftover.dedup();
        report.unresolved = leftover.clone();
        (report, leftover)
    }

    /// Scans `lines` of `shard` and runs the Hash-1-only recovery fixpoint
    /// over the multi-bit ones, appending what stays unresolved to
    /// `leftover`. The scan takes the shard mutex in [`DAEMON_LOCK_CHUNK`]-line
    /// holds (like fault injection): single-bit repairs are per-line
    /// atomic, and a demand write that slips between chunks just heals its
    /// line before the scan gets there — the fixpoint, under one more hold,
    /// re-verifies every survivor. Takes no lock for no lines (nothing was
    /// repaired, so stuck cells have nothing to undo: a flipped stuck cell
    /// leaves its line dirty). `false` when the shard is down.
    fn repair_locked(
        &self,
        shard: usize,
        lines: &[u64],
        report: &mut ScrubReport,
        leftover: &mut Vec<u64>,
    ) -> bool {
        if lines.is_empty() {
            return true;
        }
        let mut faulty = Casualties::default();
        for chunk in lines.chunks(DAEMON_LOCK_CHUNK) {
            let Ok(mut cache) = self.lock_shard(shard) else {
                return false;
            };
            cache.scrub_scan(chunk.iter().copied(), true, report, &mut faulty);
        }
        let Ok(mut cache) = self.lock_shard(shard) else {
            return false;
        };
        let mut recovered = Recovered::default();
        loop {
            if faulty.is_empty() {
                break;
            }
            let before = faulty.len();
            cache.recovery_pass(HashDim::H1, &mut faulty, &mut recovered, report, true);
            if faulty.len() >= before {
                break;
            }
        }
        // Physics + non-convergence accounting: reconstructions of stuck
        // lines are immediately undone by the stuck cells — count them as
        // strikes (with the recovered data!) instead of looping forever.
        self.note_undone_reconstructions(shard, &recovered);
        self.reassert_shard(&mut cache, shard);
        leftover.extend(faulty.lines());
        true
    }

    /// Cross-shard escalation: re-verifies the given lines and drives the
    /// full Hash-1 + Hash-2 fixpoint over all *surviving* shards, with DUE
    /// accounting for whatever still cannot be repaired. This is the
    /// recovery of last resort behind failed demand reads and failed
    /// shard-local scrubs. With any shard quarantined the Hash-2 pass is
    /// skipped (its parity slice is unavailable), so the affected lines
    /// come back as honest DUEs instead of wrong data; lines owned by dead
    /// shards are unresolved immediately. Unresolved lines accumulate
    /// sparing strikes — repeatedly-DUE lines get remapped to the spare
    /// pool and stop consuming escalations; spared lines are skipped. Runs
    /// on the caller's thread, on the recovery path of
    /// [`ShardedCache::scrub_lines`], seeded by re-checking `lines`
    /// instead of scanning them.
    pub fn escalate(&self, lines: &[u64]) -> ScrubReport {
        self.escalate_inner(lines, None).0
    }

    fn escalate_inner(
        &self,
        lines: &[u64],
        fetch: Option<u64>,
    ) -> (ScrubReport, Option<Result<LineData, ServiceError>>) {
        let (mut work, down) = self.lock_and_route(lines);
        // Seed by re-checking: the lines may have been healed (or cleanly
        // overwritten) since the caller saw them fail; keep only the
        // still-multibit ones. Nothing is recovered yet, so this checks
        // (and classifies) every seed.
        for w in work.iter_mut().flatten() {
            for line in w.st.lines.drain(..) {
                w.st.faulty.insert_seed(line);
            }
            w.cache.retain_multibit(&mut w.st.faulty, &w.st.recovered);
        }
        self.recover(work, down, fetch)
    }

    /// The head of cross-shard recovery: locks every *up* shard in
    /// ascending index order (the global lock order, followed by the
    /// coordinator — see [`ShardedCache`]) and hands each the `lines` it
    /// owns. A quarantined or poison-locked shard yields `None` (and is
    /// quarantined if it was not already); its lines go to the returned
    /// report, to be charged as DUEs. A spared line is already remapped
    /// out of the array — reads hit the pool — so it is dropped.
    fn lock_and_route(&self, lines: &[u64]) -> (Vec<Option<Working<'_>>>, ScrubReport) {
        let mut work: Vec<Option<Working<'_>>> = (0..self.n_shards())
            .map(|s| {
                if !self.health.is_up(s) {
                    return None;
                }
                match self.shards[s].lock() {
                    Ok(cache) => Some(Working {
                        cache,
                        st: ScrubState::default(),
                    }),
                    Err(_) => {
                        self.health.quarantine(s);
                        None
                    }
                }
            })
            .collect();
        let mut down = ScrubReport::default();
        for &line in lines {
            let shard = self.plan.shard_of_line(line);
            match work[shard].as_mut() {
                Some(w) if !self.view.is_spared(line) => w.st.lines.push(line),
                Some(_) => debug_assert!(
                    self.lock_extra(shard).spares.is_spared(line),
                    "line {line} is marked spared in the view only"
                ),
                None => down.unresolved.push(line),
            }
        }
        (work, down)
    }

    /// The tail of cross-shard recovery, over the faulty sets the caller
    /// seeded: the Hash-1/Hash-2 fixpoint (a skipped Hash-2 pass is
    /// counted), each shard's DUE accounting, the demand read of `fetch`,
    /// the strikes for reconstructions the stuck cells undo and for every
    /// unresolved line, the stuck-cell reassert, the DUEs of dead shards'
    /// lines, and the merged report.
    fn recover(
        &self,
        mut work: Vec<Option<Working<'_>>>,
        mut down: ScrubReport,
        fetch: Option<u64>,
    ) -> (ScrubReport, Option<Result<LineData, ServiceError>>) {
        let all_up = work.iter().all(Option::is_some);
        let had_faulty = work.iter().flatten().any(|w| !w.st.faulty.is_empty());
        let coord_report = self.fixpoint(&mut work, all_up);
        if !all_up && had_faulty && self.config.scheme.second_hash_enabled() {
            self.skipped_h2.fetch_add(1, Ordering::Relaxed);
        }
        for w in work.iter_mut().flatten() {
            w.st.report.unresolved = w.st.faulty.lines().collect();
            w.cache.finish_scrub(&mut w.st.report);
        }
        // Capture the demand read's value now: the store holds whatever the
        // escalation repaired, and the stuck-cell reassert below is about
        // to undo that in the array (never in the returned data). The
        // escalation's outcome is the answer: the demand read was already
        // counted by the shard ladder that gave up on it, so only a line
        // left neither lost nor valid (a single-bit fault) is read again.
        let fetched = fetch.map(|line| {
            let shard = self.plan.shard_of_line(line);
            let lost = Err(ServiceError::Uncorrectable(UncorrectableError { line }));
            match work[shard].as_mut() {
                Some(w) => match self.spared_lookup(shard, line) {
                    Some(Some(data)) => Ok(data),
                    Some(None) => lost,
                    None if w.st.report.unresolved.binary_search(&line).is_ok() => lost,
                    None if w.cache.is_line_valid(line) => Ok(w.cache.stored_line(line).data),
                    None => w.cache.read(line).map_err(ServiceError::from),
                },
                None => Err(ServiceError::ShardDown(shard)),
            }
        });
        // Physics, non-convergence, and repeated-DUE sparing strikes.
        for (shard, w) in work.iter_mut().enumerate() {
            if let Some(w) = w {
                self.note_undone_reconstructions(shard, &w.st.recovered);
                self.reassert_shard(&mut w.cache, shard);
                if !w.st.report.unresolved.is_empty() {
                    let mut extra = self.lock_extra(shard);
                    for &line in &w.st.report.unresolved {
                        if extra.spares.strike(line, None, &self.heatmaps) {
                            // Remapped: the array copy is dead to readers.
                            self.view.mark_spared(line);
                        }
                    }
                }
            }
        }
        // Dead shards' lines: their own counters are unreachable, so the
        // coordinator's DUE counter carries the loss, and the heatmap is
        // charged directly (no recorder sees these DUEs).
        down.unresolved.sort_unstable();
        down.unresolved.dedup();
        if !down.unresolved.is_empty() {
            self.lock_coord().stats.due_lines += down.unresolved.len() as u64;
            for &line in &down.unresolved {
                self.heatmaps.charge_due(line);
            }
        }
        let report = merge_reports(
            work.iter()
                .flatten()
                .map(|w| &w.st.report)
                .chain([&coord_report, &down]),
        );
        (report, fetched)
    }

    /// Strikes every reconstructed-but-stuck line: the write-back is about
    /// to be undone by the stuck cells, so the reconstruction did not
    /// converge. The recovered data rides along into the spare slot when
    /// the strike threshold is reached.
    fn note_undone_reconstructions(&self, shard: usize, recovered: &Recovered) {
        if self.stuck.is_empty() || recovered.is_empty() {
            return;
        }
        let mut extra = self.lock_extra(shard);
        for &(line, value) in recovered.iter() {
            if self.stuck.is_stuck(line) {
                extra.undone_reconstructions += 1;
                // When the threshold is reached the line is spared *with*
                // the reconstructed data — reads stop needing escalation.
                if extra.spares.strike(line, Some(value.data), &self.heatmaps) {
                    self.view.mark_spared(line);
                }
            }
        }
    }

    /// The recovery fixpoint over pre-seeded per-shard faulty sets: each
    /// round runs the shard-local Hash-1 pass on every shard, one after
    /// another, then (for schemes with a second hash, when every shard is
    /// up) the coordinator's Hash-2 pass over gathered cross-shard groups,
    /// stopping when a round makes no progress — the exact schedule of the
    /// single-threaded ladder, which is what makes recovery
    /// shard-count-invariant. Both passes take core's all-zero fast path
    /// (`fast = true`).
    fn fixpoint(&self, work: &mut [Option<Working<'_>>], all_up: bool) -> ScrubReport {
        let mut coord = self.lock_coord();
        let mut coord_report = ScrubReport::default();
        let use_h2 = all_up && self.config.scheme.second_hash_enabled();
        loop {
            let before: usize = work.iter().flatten().map(|w| w.st.faulty.len()).sum();
            if before == 0 {
                break;
            }
            for w in work.iter_mut().flatten() {
                let st = &mut w.st;
                w.cache.recovery_pass(
                    HashDim::H1,
                    &mut st.faulty,
                    &mut st.recovered,
                    &mut st.report,
                    true,
                );
            }
            if use_h2 && work.iter().flatten().any(|w| !w.st.faulty.is_empty()) {
                self.h2_pass(&mut coord, work, &mut coord_report);
                for w in work.iter_mut().flatten() {
                    w.cache.retain_multibit(&mut w.st.faulty, &w.st.recovered);
                }
            }
            let after: usize = work.iter().flatten().map(|w| w.st.faulty.len()).sum();
            if after >= before {
                break;
            }
        }
        coord_report
    }

    /// One coordinator Hash-2 pass: repair the Hash-2 group of every
    /// faulty line in ascending group order, gathering members and parity slices
    /// from the owning shards. Only called with every shard up.
    fn h2_pass(
        &self,
        coord: &mut Coordinator,
        work: &mut [Option<Working<'_>>],
        report: &mut ScrubReport,
    ) {
        let hashes = self.plan.hashes();
        let mut groups: Vec<u64> = work
            .iter()
            .flatten()
            .flat_map(|w| w.st.faulty.lines())
            .map(|l| hashes.group_of(HashDim::H2, l))
            .collect();
        groups.sort_unstable();
        groups.dedup();
        for group in groups {
            let members: Vec<u64> = hashes.members(HashDim::H2, group).collect();
            let mut parity = ProtectedLine::zero();
            for w in work.iter().flatten() {
                parity.xor_assign(&w.cache.group_parity(HashDim::H2, group));
            }
            let mut view = GatherView {
                plan: &self.plan,
                work,
                members: &members,
                parity,
            };
            let mut engine = RepairEngine {
                codec: LineCodec::shared(),
                params: RepairParams::from_config(&self.config),
                stats: &mut coord.stats,
                recorder: &mut coord.recorder,
            };
            engine.repair_group(
                HashDim::H2,
                group,
                &mut view,
                &mut coord.scratch,
                report,
                true,
            );
        }
    }
}

/// A demand session holding one shard's cache mutex. Created by
/// [`ShardedCache::session`]; dropping it releases the shard.
///
/// The session holds **only** the shard cache guard — the spare table
/// takes its own (transient, strictly-after) lock, and only for a line
/// the view marks spared; cross-shard escalation requires dropping the
/// session first (it acquires every shard in ascending order).
pub struct ShardSession<'a> {
    cache: MutexGuard<'a, ShardCache>,
    owner: &'a ShardedCache,
    shard: usize,
}

impl ShardSession<'_> {
    /// Chaos hook: panics on purpose — with `hold_lock` still holding the
    /// shard mutex, which the unwind poisons the way a real mid-repair
    /// panic would; otherwise after releasing it. Used by
    /// `ServiceHandle::inject_worker_panic`; never called on any
    /// production path.
    pub(crate) fn chaos_panic(self, hold_lock: bool) -> ! {
        let shard = self.shard;
        if hold_lock {
            panic!("injected worker panic on shard {shard} (lock held)");
        }
        drop(self);
        panic!("injected worker panic on shard {shard}");
    }

    /// Writes `data` to `line` (which must be owned by this shard),
    /// landing in the spare pool when the line has been remapped.
    pub fn write(&mut self, line: u64, data: &LineData) {
        let owner = self.owner;
        if owner.spared_write(self.shard, line, data) {
            return;
        }
        // The store publishes every line the write (and any repair of a
        // faulty old value) rewrites.
        self.cache.write(line, data);
        owner.reassert_line(&mut self.cache, line);
    }

    /// Reads `line` (which must be owned by this shard) through the
    /// shard-local (Hash-1) ladder, without cross-shard escalation. A
    /// spared line is served from the spare pool without touching the
    /// faulty array at all.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Uncorrectable`] when the local ladder fails, or the
    /// line was spared after its data was already lost (the caller
    /// escalates, after dropping this session, as [`ShardedCache::read`]
    /// does).
    pub fn read(&mut self, line: u64) -> Result<LineData, ServiceError> {
        let owner = self.owner;
        if let Some(spared) = owner.spared_lookup(self.shard, line) {
            return match spared {
                Some(data) => Ok(data),
                None => Err(ServiceError::Uncorrectable(UncorrectableError { line })),
            };
        }
        let result = self.cache.read(line).map_err(ServiceError::from);
        owner.reassert_line(&mut self.cache, line);
        result
    }
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.n_shards())
            .field("scheme", &self.config.scheme)
            .field("lines", &self.config.geometry.lines())
            .field("quarantined", &self.health.quarantined())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudoku_core::Scheme;

    fn data_with(bits: &[usize]) -> LineData {
        let mut d = LineData::zero();
        for &b in bits {
            d.set_bit(b, true);
        }
        d
    }

    #[test]
    fn write_read_roundtrip_across_shards() {
        let cache = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 4).unwrap();
        for line in 0..256u64 {
            cache
                .write(line, &data_with(&[(line as usize * 7) % 512]))
                .unwrap();
        }
        for line in 0..256u64 {
            assert_eq!(
                cache.read(line).unwrap(),
                data_with(&[(line as usize * 7) % 512])
            );
        }
        assert_eq!(cache.stats().writes, 256);
        assert_eq!(cache.stats().reads, 256);
    }

    #[test]
    fn demand_read_escalates_across_shards() {
        // Fig. 3(c) pattern: two lines of one Hash-1 group with identical
        // fault positions — zero parity mismatch defeats shard-local SDR,
        // and with defer_hash2 the shard's own read ladder stops there.
        let config = SudokuConfig::small(Scheme::Z, 256, 16);
        let cache = ShardedCache::new(config, 2).unwrap();
        let mut mono = SudokuCache::new(config).unwrap();
        let d4 = data_with(&[40, 41]);
        let d5 = data_with(&[50, 51]);
        cache.write(4, &d4).unwrap();
        cache.write(5, &d5).unwrap();
        mono.write(4, &d4);
        mono.write(5, &d5);
        for line in [4u64, 5] {
            cache.inject_fault(line, 100);
            cache.inject_fault(line, 200);
            mono.inject_fault(line, 100);
            mono.inject_fault(line, 200);
        }
        assert_eq!(cache.read(4).unwrap(), d4);
        assert_eq!(cache.read(5).unwrap(), d5);
        assert_eq!(mono.read(4).unwrap(), d4);
        assert_eq!(mono.read(5).unwrap(), d5);
        assert!(cache.coordinator_stats().raid4_repairs >= 1);
        // Hash-2 repaired both reads: neither is a DUE.
        assert_eq!(cache.stats().due_lines, 0);
        assert_eq!(cache.heatmaps().due.total(), 0);
        // The escalation answers the read it escalated: one read each,
        // and one multi-bit detection, as the monolithic cache counts.
        assert_eq!(cache.stats().reads, mono.stats().reads);
        assert_eq!(
            cache.stats().multibit_detections,
            mono.stats().multibit_detections
        );
    }

    #[test]
    fn demand_read_due_counts_once() {
        // Scheme X has no Hash-2: the same pair is a true DUE. The sharded
        // read (shard ladder, escalation, fetch) and a service handle each
        // count it once, as the monolithic cache does.
        let config = SudokuConfig::small(Scheme::X, 256, 16);
        let faults = [(4u64, 100), (4, 200), (5, 100), (5, 200)];
        let mut mono = SudokuCache::new(config).unwrap();
        for (line, bit) in faults {
            mono.inject_fault(line, bit);
        }
        assert!(mono.read(4).is_err());
        assert_eq!(mono.stats().due_lines, 1);

        let sharded = ShardedCache::new(config, 2).unwrap();
        for (line, bit) in faults {
            sharded.inject_fault(line, bit);
        }
        assert!(matches!(
            sharded.read(4),
            Err(ServiceError::Uncorrectable(UncorrectableError { line: 4 }))
        ));
        assert_eq!(sharded.stats().due_lines, 1);
        assert_eq!(sharded.heatmaps().due.total(), 1);
        assert_eq!(sharded.stats().reads, mono.stats().reads);
        assert_eq!(
            sharded.stats().multibit_detections,
            mono.stats().multibit_detections
        );

        let service = crate::Service::start(crate::ServiceConfig {
            cache: config,
            scrub_every: None,
            ..crate::ServiceConfig::small(256, 2, 0.0, 1)
        })
        .unwrap();
        for (line, bit) in faults {
            service.state().inject_fault(line, bit);
        }
        assert!(matches!(
            service.handle().read(4),
            Err(ServiceError::Uncorrectable(UncorrectableError { line: 4 }))
        ));
        let report = service.shutdown();
        assert_eq!(report.stats.due_lines, 1);
        assert_eq!(report.stats.reads, mono.stats().reads);
        assert_eq!(
            report.stats.multibit_detections,
            mono.stats().multibit_detections
        );
        assert_eq!((report.reads, report.due_reads), (1, 1));
        // One escalated read, one Hash-2 phase sample.
        assert_eq!(report.hists.escalation_ns.count(), 1);
    }

    #[test]
    fn bad_shard_count_is_rejected() {
        let config = SudokuConfig::small(Scheme::Z, 256, 16);
        assert!(matches!(
            ShardedCache::new(config, 0),
            Err(ConfigError::BadShardCount { .. })
        ));
        assert!(matches!(
            ShardedCache::new(config, 17),
            Err(ConfigError::BadShardCount { .. })
        ));
    }

    #[test]
    fn full_scrub_equals_hinted_scrub() {
        let build = || {
            let c = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 4).unwrap();
            c.inject_fault(7, 1);
            c.inject_fault(7, 2);
            c.inject_fault(40, 3);
            c.inject_fault(40, 4);
            c
        };
        let full = build();
        let hinted = build();
        let r1 = full.scrub();
        let r2 = hinted.scrub_lines(&[7, 40]);
        assert_eq!(r1.unresolved, r2.unresolved);
        assert_eq!(r1.sdr_repairs, r2.sdr_repairs);
        for line in 0..256 {
            assert_eq!(full.stored_line(line), hinted.stored_line(line));
        }
    }

    #[test]
    fn coordinator_group_scan_repairs_count_into_the_scrub_report() {
        // Lines 4 and 5 fully overlap, so only their Hash-2 groups heal
        // them; line 20 shares line 4's Hash-2 group, and its unhinted
        // single fault is found by the coordinator's group scan alone.
        let cache = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 4).unwrap();
        for line in [4, 5] {
            cache.inject_fault(line, 100);
            cache.inject_fault(line, 200);
        }
        cache.inject_fault(20, 40);
        let report = cache.scrub_lines(&[4, 5]);
        assert!(report.fully_repaired(), "{report:?}");
        assert_eq!(report.hash2_repairs, 2, "{report:?}");
        assert_eq!(cache.coordinator_stats().ecc1_repairs, 1);
        assert_eq!(report.ecc1_repairs, 1, "{report:?}");
    }

    #[test]
    fn merge_reports_sums_and_sorts() {
        let a = ScrubReport {
            lines_checked: 3,
            unresolved: vec![9, 2],
            ..ScrubReport::default()
        };
        let b = ScrubReport {
            lines_checked: 4,
            sdr_repairs: 1,
            unresolved: vec![5],
            ..ScrubReport::default()
        };
        let m = merge_reports([&a, &b]);
        assert_eq!(m.lines_checked, 7);
        assert_eq!(m.sdr_repairs, 1);
        assert_eq!(m.unresolved, vec![2, 5, 9]);
    }

    #[test]
    fn quarantined_shard_fails_fast_and_others_serve() {
        let cache = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 4).unwrap();
        for line in 0..256u64 {
            cache
                .write(line, &data_with(&[line as usize % 512]))
                .unwrap();
        }
        let victim_line = 0u64;
        let victim = cache.plan().shard_of_line(victim_line);
        assert!(cache.health().quarantine(victim));
        assert_eq!(
            cache.write(victim_line, &data_with(&[1])),
            Err(ServiceError::ShardDown(victim))
        );
        assert_eq!(
            cache.read(victim_line),
            Err(ServiceError::ShardDown(victim))
        );
        // Every line on a surviving shard still reads back.
        let mut served = 0;
        for line in 0..256u64 {
            if cache.plan().shard_of_line(line) != victim {
                assert_eq!(cache.read(line).unwrap(), data_with(&[line as usize % 512]));
                served += 1;
            }
        }
        assert_eq!(served, 192);
        let degraded = cache.degraded_stats();
        assert_eq!(degraded.quarantined_shards, vec![victim]);
        assert!(degraded.shard_down_rejects >= 2);
    }

    #[test]
    fn poisoned_mutex_quarantines_on_contact() {
        let cache = std::sync::Arc::new(
            ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 4).unwrap(),
        );
        let victim = cache.plan().shard_of_line(0);
        let poisoner = std::sync::Arc::clone(&cache);
        let _ = std::thread::spawn(move || poisoner.chaos_panic(victim, true)).join();
        // First contact with the poisoned lock quarantines the shard.
        assert_eq!(cache.read(0), Err(ServiceError::ShardDown(victim)));
        assert!(!cache.health().is_up(victim));
        // Telemetry still works, scrubs still run on the survivors.
        let _ = cache.stats();
        let report = cache.scrub_lines(&[0, 17]);
        assert_eq!(report.unresolved, vec![0], "dead shard's line is a DUE");
    }

    #[test]
    fn escalation_with_dead_shard_reports_due_not_sdc() {
        let cache = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        for line in 0..256u64 {
            cache
                .write(line, &data_with(&[line as usize % 512]))
                .unwrap();
        }
        // The Fig-3(c) H1-defeating pair needs cross-shard H2 — which dies
        // with the other shard's parity slice.
        for line in [4u64, 5] {
            cache.inject_fault(line, 100);
            cache.inject_fault(line, 200);
        }
        let owner = cache.plan().shard_of_line(4);
        let other = 1 - owner;
        cache.health().quarantine(other);
        let report = cache.escalate(&[4, 5]);
        assert_eq!(report.unresolved, vec![4, 5], "honest DUE, no H2 guess");
        assert!(cache.degraded_stats().skipped_h2_escalations >= 1);
        assert!(cache.read(4).is_err());
    }

    #[test]
    fn stuck_lines_keep_serving_through_repair() {
        let mut stuck = StuckBitMap::new();
        for line in 0..8u64 {
            stuck.insert(line * 16, (line as u16 * 31) % 553, true);
        }
        let cache = ShardedCache::with_faults(
            SudokuConfig::small(Scheme::Z, 256, 16),
            4,
            stuck,
            DegradedConfig::default(),
        )
        .unwrap();
        for line in 0..256u64 {
            cache
                .write(line, &data_with(&[line as usize % 512]))
                .unwrap();
        }
        for round in 0..3 {
            for line in 0..256u64 {
                assert_eq!(
                    cache.read(line).unwrap(),
                    data_with(&[line as usize % 512]),
                    "round {round}, line {line}"
                );
            }
        }
        let degraded = cache.degraded_stats();
        assert_eq!(degraded.stuck_lines, 8);
        assert!(degraded.stuck_reasserts > 0, "{degraded:?}");
    }

    #[test]
    fn repeated_due_line_is_spared_and_recovers_on_rewrite() {
        // Scheme X has no SDR and no Hash-2: two multibit lines in one H1
        // group are a permanent DUE. With stuck cells causing it, the line
        // must get spared after the strike threshold — and become readable
        // again once a fresh write lands in the spare slot.
        let mut stuck = StuckBitMap::new();
        for bit in [10u16, 20, 30, 40] {
            stuck.insert(0, bit, true);
            stuck.insert(1, bit, true);
        }
        let cache = ShardedCache::with_faults(
            SudokuConfig::small(Scheme::X, 64, 16),
            2,
            stuck,
            DegradedConfig {
                spare_cap_per_shard: 4,
                strike_threshold: 2,
            },
        )
        .unwrap();
        for line in 0..64u64 {
            cache
                .write(line, &data_with(&[line as usize % 512]))
                .unwrap();
        }
        // Each failed read escalates and records one strike.
        for _ in 0..2 {
            assert!(matches!(cache.read(0), Err(ServiceError::Uncorrectable(_))));
        }
        let degraded = cache.degraded_stats();
        assert!(degraded.spared_lines >= 1, "{degraded:?}");
        // Spared with data lost: still a detected error, never silent.
        assert!(matches!(cache.read(0), Err(ServiceError::Uncorrectable(_))));
        // A fresh write lands in the spare slot and the line lives again.
        cache.write(0, &data_with(&[7])).unwrap();
        assert_eq!(cache.read(0).unwrap(), data_with(&[7]));
        assert!(cache.degraded_stats().spare_reads >= 1);
    }

    #[test]
    fn non_spared_lines_never_touch_the_spare_pool() {
        // Sparing enabled, but no line ever strikes: the session's reads
        // and writes see no view mark and leave the spare pool alone.
        let cache = ShardedCache::with_faults(
            SudokuConfig::small(Scheme::Z, 256, 16),
            2,
            StuckBitMap::new(),
            DegradedConfig {
                spare_cap_per_shard: 4,
                strike_threshold: 1,
            },
        )
        .unwrap();
        for round in 0..2 {
            for line in 0..256u64 {
                let data = data_with(&[(line as usize + round) % 512]);
                cache.write(line, &data).unwrap();
                assert_eq!(cache.read(line).unwrap(), data);
            }
        }
        let degraded = cache.degraded_stats();
        assert_eq!(degraded.spared_lines, 0, "{degraded:?}");
        assert_eq!(degraded.spare_reads, 0, "{degraded:?}");
        assert_eq!(degraded.spare_writes, 0, "{degraded:?}");
    }

    #[test]
    fn strikes_grid_counts_only_recorded_strikes() {
        // The stuck pair of `stuck_sdr_line_spared_with_recovered_data`
        // with sparing disabled: every reconstruction is undone by the
        // stuck cells, but no strike is ever recorded, so the strikes
        // grid must stay empty rather than charge each attempt.
        let mut stuck = StuckBitMap::new();
        for bit in [100u16, 200] {
            stuck.insert(4, bit, true);
            stuck.insert(5, bit, true);
        }
        let cache = ShardedCache::with_faults(
            SudokuConfig::small(Scheme::Z, 256, 16),
            2,
            stuck,
            DegradedConfig {
                spare_cap_per_shard: 0,
                strike_threshold: 2,
            },
        )
        .unwrap();
        for line in 0..256u64 {
            cache
                .write(line, &data_with(&[line as usize % 512]))
                .unwrap();
        }
        for _ in 0..3 {
            assert_eq!(cache.read(4).unwrap(), data_with(&[4]));
            assert_eq!(cache.read(5).unwrap(), data_with(&[5]));
        }
        let degraded = cache.degraded_stats();
        assert!(degraded.undone_reconstructions > 0, "{degraded:?}");
        assert_eq!(degraded.spared_lines, 0);
        assert_eq!(cache.heatmaps().strikes.total(), degraded.strikes);
        assert_eq!(degraded.strikes, 0, "sparing is off: nothing struck");
    }

    #[test]
    fn stuck_sdr_line_spared_with_recovered_data() {
        // Z-scheme: the stuck pair is recoverable every time via H2, but
        // the stuck cells undo each reconstruction — non-convergent repair
        // churn. After the strike threshold the line is spared *with* its
        // recovered data, so reads stop needing escalation at all.
        let mut stuck = StuckBitMap::new();
        for bit in [100u16, 200] {
            stuck.insert(4, bit, true);
            stuck.insert(5, bit, true);
        }
        let cache = ShardedCache::with_faults(
            SudokuConfig::small(Scheme::Z, 256, 16),
            2,
            stuck,
            DegradedConfig {
                spare_cap_per_shard: 4,
                strike_threshold: 2,
            },
        )
        .unwrap();
        for line in 0..256u64 {
            cache
                .write(line, &data_with(&[line as usize % 512]))
                .unwrap();
        }
        for _ in 0..3 {
            assert_eq!(cache.read(4).unwrap(), data_with(&[4]));
            assert_eq!(cache.read(5).unwrap(), data_with(&[5]));
        }
        let degraded = cache.degraded_stats();
        assert!(degraded.undone_reconstructions >= 2, "{degraded:?}");
        assert!(degraded.spared_lines >= 1, "{degraded:?}");
        // Spared reads keep returning the right data from the pool.
        assert_eq!(cache.read(4).unwrap(), data_with(&[4]));
        assert!(cache.degraded_stats().spare_reads >= 1);
    }

    #[test]
    fn scrub_skips_a_spared_hint_as_escalation_does() {
        // The pair of `repeated_due_line_is_spared_and_recovers_on_rewrite`:
        // two failed reads spare line 0 with its data lost. Its array copy
        // is still multi-bit, but it is dead to readers: neither a scrub
        // nor an escalation scans it or charges it another DUE.
        let mut stuck = StuckBitMap::new();
        for bit in [10u16, 20, 30, 40] {
            stuck.insert(0, bit, true);
            stuck.insert(1, bit, true);
        }
        let cache = ShardedCache::with_faults(
            SudokuConfig::small(Scheme::X, 64, 16),
            2,
            stuck,
            DegradedConfig {
                spare_cap_per_shard: 4,
                strike_threshold: 2,
            },
        )
        .unwrap();
        for line in 0..64u64 {
            cache
                .write(line, &data_with(&[line as usize % 512]))
                .unwrap();
        }
        for _ in 0..2 {
            assert!(cache.read(0).is_err());
        }
        assert!(cache.view.is_spared(0));
        let (dues, due_grid) = (cache.stats().due_lines, cache.heatmaps().due.total());
        let scrubbed = cache.scrub_lines(&[0]);
        assert_eq!(scrubbed, ScrubReport::default());
        assert_eq!(cache.escalate(&[0]), scrubbed);
        assert_eq!(cache.stats().due_lines, dues);
        assert_eq!(cache.heatmaps().due.total(), due_grid);
    }

    #[test]
    fn scrub_strikes_the_stuck_pair_as_demand_escalation_does() {
        // The stuck pair of `stuck_sdr_line_spared_with_recovered_data`:
        // Hash-2 reconstructs both lines and the stuck cells undo both. A
        // whole-cache scrub counts that and strikes them exactly as the
        // escalations behind a demand read of each line do.
        let build = || {
            let mut stuck = StuckBitMap::new();
            for bit in [100u16, 200] {
                stuck.insert(4, bit, true);
                stuck.insert(5, bit, true);
            }
            let cache = ShardedCache::with_faults(
                SudokuConfig::small(Scheme::Z, 256, 16),
                2,
                stuck,
                DegradedConfig {
                    spare_cap_per_shard: 4,
                    strike_threshold: 2,
                },
            )
            .unwrap();
            for line in 0..256u64 {
                cache
                    .write(line, &data_with(&[line as usize % 512]))
                    .unwrap();
            }
            cache
        };
        let scrubbed = build();
        assert!(scrubbed.scrub().fully_repaired());
        let demanded = build();
        assert_eq!(demanded.read(4).unwrap(), data_with(&[4]));
        assert_eq!(demanded.read(5).unwrap(), data_with(&[5]));
        let (by_scrub, by_read) = (scrubbed.degraded_stats(), demanded.degraded_stats());
        assert!(by_scrub.undone_reconstructions > 0, "{by_scrub:?}");
        assert!(by_scrub.strikes > 0, "{by_scrub:?}");
        assert_eq!(
            by_scrub.undone_reconstructions,
            by_read.undone_reconstructions
        );
        assert_eq!(by_scrub.strikes, by_read.strikes);
        assert_eq!(scrubbed.heatmaps().strikes.total(), by_scrub.strikes);
    }

    /// Asserts the write-through invariant: with every shard held, each
    /// non-spared line has a view slot equal to its owning store's line,
    /// and each spared line's slot is marked spared.
    fn assert_view_coherent(cache: &ShardedCache, step: usize) {
        let view = &cache.view;
        for shard in 0..cache.n_shards() {
            let guard = cache.lock_shard_telemetry(shard);
            let extra = cache.lock_extra(shard);
            for line in cache.plan.owned_lines(shard) {
                if extra.spares.is_spared(line) {
                    assert_eq!(
                        view.slot_line(line),
                        None,
                        "step {step}, spared line {line}"
                    );
                } else {
                    assert_eq!(
                        view.slot_line(line),
                        Some(guard.stored_line(line)),
                        "step {step}, line {line}"
                    );
                }
            }
        }
    }

    /// Data that names its line (word 0) and version (word 1), so any
    /// lock-free read can be checked without a golden copy.
    fn versioned(line: u64, version: u64) -> LineData {
        let mut words = [0u64; sudoku_codes::LINE_WORDS];
        words[0] = line | 1 << 32;
        words[1] = version;
        LineData::from_words(words)
    }

    #[test]
    fn view_stays_coherent_under_random_interleavings() {
        // Lines 4 and 5 carry the stuck pair that defeats Hash-1 SDR, so
        // reads and escalations keep striking them until they are spared.
        let mut stuck = StuckBitMap::new();
        for bit in [100u16, 200] {
            stuck.insert(4, bit, true);
            stuck.insert(5, bit, true);
        }
        let cache = ShardedCache::with_faults(
            SudokuConfig::small(Scheme::Z, 256, 16),
            4,
            stuck,
            DegradedConfig {
                spare_cap_per_shard: 4,
                strike_threshold: 2,
            },
        )
        .unwrap();
        let n_lines = 256u64;
        let stop = std::sync::atomic::AtomicBool::new(false);
        // Stops the readers however the writer's loop ends, a failed
        // assertion included, so the scope can join them.
        struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        std::thread::scope(|s| {
            // Lock-free readers race every store write below.
            for reader in 0..2u64 {
                let (cache, stop) = (&cache, &stop);
                s.spawn(move || {
                    let mut line = reader;
                    while !stop.load(Ordering::Relaxed) {
                        line = (line * 37 + 11) % n_lines;
                        if let (Some(data), _) =
                            cache.try_read_clean(line, cache.plan().shard_of_line(line))
                        {
                            let owner = data.words()[0];
                            assert!(
                                data == LineData::zero() || owner == line | 1 << 32,
                                "line {line} served another line's data"
                            );
                        }
                    }
                });
            }
            let _stop = StopOnDrop(&stop);
            let mut rng = 0x5EED_0001_u64;
            let mut next = move |bound: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % bound
            };
            let mut version = 0u64;
            for step in 0..600 {
                let line = next(n_lines);
                match next(8) {
                    0..=2 => {
                        version += 1;
                        cache.write(line, &versioned(line, version)).unwrap();
                    }
                    3 => {
                        for _ in 0..=next(2) {
                            cache.inject_fault(line, next(553) as usize);
                        }
                    }
                    4 => {
                        let plan: Vec<(u64, Vec<usize>)> = (0..3)
                            .map(|_| (next(n_lines), vec![next(553) as usize, next(553) as usize]))
                            .collect();
                        cache.apply_resolved_plan(&plan);
                    }
                    5 => {
                        let shard = next(4) as usize;
                        let hints: Vec<u64> = cache.plan().owned_lines(shard).collect();
                        let (_, leftover) = cache.scrub_shard_local(shard, &hints);
                        if !leftover.is_empty() {
                            cache.escalate(&leftover);
                        }
                    }
                    6 => {
                        cache.escalate(&[line, 4, 5]);
                    }
                    _ => {
                        let _ = cache.read(if next(2) == 0 { 4 } else { line });
                    }
                }
                assert_view_coherent(&cache, step);
            }
        });
        assert!(
            cache.degraded_stats().spared_lines >= 1,
            "the interleaving must exercise sparing"
        );
    }

    /// What [`LineView::try_read`] of `line` returns, and the `reads` and
    /// `crc_checks` it counts, with the codeword mark ignored: every
    /// non-zero snapshot goes through the CRC, as before the mark.
    fn unmarked_read(cache: &ShardedCache, line: u64) -> (ViewRead, u64, u64) {
        let view = &cache.view;
        if view.is_spared(line) {
            return (ViewRead::Miss, 0, 0);
        }
        let stored = view.load(line).0;
        if stored.is_zero() {
            (ViewRead::Zero, 1, 0)
        } else if LineCodec::shared().crc_ok(&stored) {
            (ViewRead::Clean(stored.data), 1, 1)
        } else {
            (ViewRead::Miss, 0, 0)
        }
    }

    /// After every step of a seeded mix of writes, fault
    /// injections, stuck-cell reasserts, scrub ticks, escalations and
    /// demand reads, every marked slot holds a codeword, and a lock-free
    /// read of every line returns and counts exactly what it would with
    /// the mark ignored.
    #[test]
    fn codeword_marks_are_exact_under_random_steps() {
        let (mut marked_hits, mut unmarked_hits) = (0u64, 0u64);
        for seed in 1..=4u64 {
            let mut rng = 0x9E37_79B9_7F4A_7C15_u64 ^ seed;
            let mut next = move |bound: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % bound
            };
            let n_lines = 256u64;
            let mut stuck = StuckBitMap::new();
            for _ in 0..6 {
                stuck.insert(next(n_lines), next(553) as u16, next(2) == 0);
            }
            let cache = ShardedCache::with_faults(
                SudokuConfig::small(Scheme::Z, n_lines, 16),
                4,
                stuck,
                DegradedConfig {
                    spare_cap_per_shard: 2,
                    strike_threshold: 3,
                },
            )
            .unwrap();
            for step in 0..300u64 {
                let line = next(n_lines);
                match next(9) {
                    0..=3 => cache.write(line, &versioned(line, step)).unwrap(),
                    4 => {
                        for _ in 0..=next(2) {
                            cache.inject_fault(line, next(553) as usize);
                        }
                    }
                    5 => {
                        let plan: Vec<(u64, Vec<usize>)> = (0..3)
                            .map(|_| (next(n_lines), vec![next(553) as usize]))
                            .collect();
                        cache.apply_resolved_plan(&plan);
                    }
                    6 => {
                        let shard = next(4) as usize;
                        let hints: Vec<u64> = cache.plan().owned_lines(shard).collect();
                        let (_, leftover) = cache.scrub_shard_local(shard, &hints);
                        if !leftover.is_empty() {
                            cache.escalate(&leftover);
                        }
                    }
                    7 => {
                        cache.escalate(&[line]);
                    }
                    _ => {
                        let _ = cache.read(line);
                    }
                }
                for line in 0..n_lines {
                    let shard = cache.plan().shard_of_line(line);
                    let view = &cache.view;
                    let marked = view.is_marked(line);
                    assert!(
                        !marked || LineCodec::shared().validate(&view.load(line).0),
                        "seed {seed}, step {step}: line {line} is marked but no codeword"
                    );
                    let (want, want_reads, want_crc) = unmarked_read(&cache, line);
                    let mut before = CacheStats::default();
                    view.fold_stats(shard, &mut before);
                    let (got, retries) = view.try_read(line, shard);
                    let mut after = CacheStats::default();
                    view.fold_stats(shard, &mut after);
                    assert_eq!(retries, 0);
                    assert_eq!(got, want, "seed {seed}, step {step}, line {line}");
                    assert_eq!(
                        (
                            after.reads - before.reads,
                            after.crc_checks - before.crc_checks
                        ),
                        (want_reads, want_crc),
                        "seed {seed}, step {step}, line {line}"
                    );
                    if matches!(got, ViewRead::Clean(_)) {
                        *if marked {
                            &mut marked_hits
                        } else {
                            &mut unmarked_hits
                        } += 1;
                    }
                }
            }
        }
        // Both read kinds must have been exercised.
        assert!(
            marked_hits > 0 && unmarked_hits > 0,
            "{marked_hits} {unmarked_hits}"
        );
    }

    #[test]
    fn sibling_rewritten_by_recovery_reads_back_lock_free() {
        let cache = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 4).unwrap();
        for line in 0..256u64 {
            cache.write(line, &versioned(line, 0)).unwrap();
        }
        // Line 33 needs RAID-4 over its Hash-1 group; its sibling 34 has a
        // single-bit fault the tick is never told about, and only the
        // group scan of the recovery repairs it.
        let (faulty, sibling) = (33u64, 34u64);
        cache.inject_fault(faulty, 10);
        cache.inject_fault(faulty, 20);
        cache.inject_fault(sibling, 30);
        let shard = cache.plan().shard_of_line(faulty);
        assert_eq!(cache.try_read_clean(sibling, shard).0, None);
        let (report, leftover) = cache.scrub_shard_local(shard, &[faulty]);
        assert!(leftover.is_empty(), "{report:?}");
        assert_eq!(report.raid4_repairs, 1, "{report:?}");
        assert_eq!(
            cache.try_read_clean(sibling, shard).0,
            Some(versioned(sibling, 0))
        );
        assert_eq!(
            cache.try_read_clean(faulty, shard).0,
            Some(versioned(faulty, 0))
        );
    }

    #[test]
    fn write_over_ecc1_dirty_old_value_publishes_one_line() {
        let cache = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        for line in 0..256u64 {
            cache.write(line, &versioned(line, 0)).unwrap();
        }
        let line = 70u64;
        cache.inject_fault(line, 5);
        let view = &cache.view;
        let before: Vec<u64> = (0..256).map(|l| view.epoch(l)).collect();
        cache.write(line, &versioned(line, 1)).unwrap();
        let moved: Vec<(u64, u64)> = (0..256u64)
            .filter(|&l| view.epoch(l) != before[l as usize])
            .map(|l| (l, view.epoch(l) - before[l as usize]))
            .collect();
        assert_eq!(moved, vec![(line, 2)], "one publish of the written line");
        assert_eq!(
            cache
                .try_read_clean(line, cache.plan().shard_of_line(line))
                .0,
            Some(versioned(line, 1))
        );
    }

    /// A write whose old value is marked skips its CRC+ECC check; one whose
    /// old value is unmarked (a flipped bit, a reasserted stuck cell) runs
    /// it. Either way the sharded cache counts and stores exactly what the
    /// monolithic reference, which checks every old value, does.
    #[test]
    fn write_trusts_the_mark_exactly_as_the_monolith_checks() {
        let config = SudokuConfig::small(Scheme::Z, 256, 16);
        let stuck_line = 90u64;
        let mut stuck = StuckBitMap::new();
        stuck.insert(stuck_line, 300, true); // `versioned` never sets bit 300
        let cache =
            ShardedCache::with_faults(config, 2, stuck.clone(), DegradedConfig::default()).unwrap();
        let mut mono = SudokuCache::new(config).unwrap();
        // Both caches take the write; the stuck cell then reasserts, as
        // the shard session's write does.
        let write = |mono: &mut SudokuCache, line: u64, data: &LineData| {
            cache.write(line, data).unwrap();
            mono.write(line, data);
            reassert_stuck(mono, &stuck, line);
        };
        for line in 0..256u64 {
            write(&mut mono, line, &versioned(line, 0));
        }
        let clean = [3u64, 17, 130, 200];
        let flipped = 40u64;
        assert!(clean.iter().all(|&l| cache.view.is_marked(l)));
        for &line in &clean {
            write(&mut mono, line, &versioned(line, 1));
        }
        cache.inject_fault(flipped, 7);
        mono.inject_fault(flipped, 7);
        assert!(!cache.view.is_marked(flipped));
        write(&mut mono, flipped, &versioned(flipped, 1));
        assert!(!cache.view.is_marked(stuck_line));
        write(&mut mono, stuck_line, &versioned(stuck_line, 1));

        let stats = cache.stats();
        assert_eq!(stats, *mono.stats());
        assert_eq!(stats.writes, 256 + 6);
        // One check per overwrite: the populating writes' old values are
        // the zero codeword, which no write checks.
        assert_eq!(stats.crc_checks, 6);

        let report = cache.scrub();
        assert!(report.fully_repaired(), "{report:?}");
        assert!(mono.scrub().fully_repaired());
        reassert_stuck(&mut mono, &stuck, stuck_line);
        assert_eq!(cache.stats(), *mono.stats());

        let written: Vec<u64> = clean.iter().copied().chain([flipped, stuck_line]).collect();
        for &line in &written {
            for bit in [50, 60] {
                cache.inject_fault(line, bit);
                mono.inject_fault(line, bit);
            }
        }
        for &line in &written {
            assert_eq!(cache.read(line).unwrap(), versioned(line, 1), "line {line}");
            assert_eq!(mono.read(line).unwrap(), versioned(line, 1), "line {line}");
        }
    }

    #[test]
    fn scrub_tick_over_clean_lines_publishes_nothing() {
        let cache = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        for line in 0..256u64 {
            cache.write(line, &versioned(line, 0)).unwrap();
        }
        let view = &cache.view;
        let before: Vec<u64> = (0..256).map(|l| view.epoch(l)).collect();
        let hints: Vec<u64> = cache.plan().owned_lines(1).collect();
        let (report, leftover) = cache.scrub_shard_local(1, &hints);
        assert!(leftover.is_empty());
        assert_eq!(report.lines_checked, 128);
        assert!((0..256u64).all(|l| view.epoch(l) == before[l as usize]));
    }

    /// Two shards over `Scheme::Z`, where shard 0 holds every kind of line
    /// a sweep meets: golden zero (200..208 and 224..240 are never
    /// written), clean, ECC-1 (33), ECC-field (34), multi-bit that RAID-4
    /// repairs (66), an overlapping multi-bit pair Hash-1 cannot resolve
    /// (38, 39), a spared stuck pair (4, 5) and a line with a stuck cell
    /// the scan repairs and the physics undoes (8).
    fn swept_state() -> ShardedCache {
        let mut stuck = StuckBitMap::new();
        for bit in [100u16, 200] {
            stuck.insert(4, bit, true);
            stuck.insert(5, bit, true);
        }
        stuck.insert(8, 300, true);
        let cache = ShardedCache::with_faults(
            SudokuConfig::small(Scheme::Z, 256, 16),
            2,
            stuck,
            DegradedConfig {
                spare_cap_per_shard: 4,
                strike_threshold: 2,
            },
        )
        .unwrap();
        for line in 0..200u64 {
            cache.write(line, &versioned(line, 0)).unwrap();
        }
        for _ in 0..3 {
            for line in [4, 5] {
                assert_eq!(cache.read(line).unwrap(), versioned(line, 0));
            }
        }
        cache.inject_fault(33, 7);
        cache.inject_fault(34, 545);
        for (line, bits) in [(66, [10, 20]), (38, [100, 200]), (39, [100, 200])] {
            for bit in bits {
                cache.inject_fault(line, bit);
            }
        }
        cache
    }

    #[test]
    fn lock_free_sweep_equals_the_all_locked_scan() {
        let (swept, locked) = (swept_state(), swept_state());
        let hints: Vec<u64> = swept.plan().owned_lines(0).collect();
        let spared = hints.iter().filter(|&&l| swept.view.is_spared(l)).count();
        assert!(spared >= 1, "the state must hold a spared line");
        let before = swept.stats();
        assert_eq!(before, locked.stats());
        let (report, leftover) = swept.scrub_shard_local(0, &hints);
        let all_locked = locked.scrub_shard_sweep(0, &hints, std::iter::empty());
        assert_eq!((report.clone(), leftover.clone()), all_locked);
        assert_eq!(leftover, vec![38, 39]);
        // Lines 33 and 8 (whose stuck cell the physics then restores).
        assert_eq!(report.ecc1_repairs, 2, "{report:?}");
        assert_eq!(report.meta_repairs, 1, "{report:?}");
        assert_eq!(report.raid4_repairs, 1, "{report:?}");
        let after = swept.stats();
        assert_eq!(after, locked.stats());
        // Spared lines are skipped, and every other line counted once.
        assert_eq!(
            after.lines_scrubbed - before.lines_scrubbed,
            (hints.len() - spared) as u64
        );
        for line in 0..256 {
            assert_eq!(
                swept.stored_line(line),
                locked.stored_line(line),
                "line {line}"
            );
        }
        assert_eq!(
            swept.degraded_stats().stuck_reasserts,
            locked.degraded_stats().stuck_reasserts
        );
        // The sweep did count clean lines off the view; the locked scan
        // counted all of them under the lock.
        let lock_free = |cache: &ShardedCache| {
            let mut stats = CacheStats::default();
            cache.view.fold_stats(0, &mut stats);
            stats.lines_scrubbed
        };
        assert!(lock_free(&swept) > 100);
        assert_eq!(lock_free(&locked), 0);
    }

    #[test]
    fn lock_free_sweep_races_demand_writers() {
        const ROUNDS: u64 = 200;
        let cache = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        let shard = 0;
        let lines: Vec<u64> = cache.plan().owned_lines(shard).collect();
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let start = std::sync::Barrier::new(3);
        let sweeps = std::thread::scope(|s| {
            // Two writers rewrite their own halves of the shard's lines
            // `ROUNDS` times while the sweeps run.
            for w in 0..2usize {
                let (cache, lines, finished, start) = (&cache, &lines, &finished, &start);
                s.spawn(move || {
                    start.wait();
                    for version in 1..=ROUNDS {
                        for &line in lines.iter().skip(w).step_by(2) {
                            cache.write(line, &versioned(line, version)).unwrap();
                        }
                    }
                    finished.fetch_add(1, Ordering::Release);
                });
            }
            start.wait();
            let mut sweeps = 0u64;
            while finished.load(Ordering::Acquire) < 2 {
                let (report, leftover) = cache.scrub_shard_local(shard, &lines);
                assert_eq!(report.lines_checked, lines.len() as u64);
                assert!(leftover.is_empty(), "{report:?}");
                sweeps += 1;
            }
            sweeps
        });
        // Every swept line was counted once, lock-free or under the lock.
        assert_eq!(cache.stats().lines_scrubbed, sweeps * lines.len() as u64);
        assert_view_coherent(&cache, 0);
        for &line in &lines {
            assert_eq!(
                cache.read(line).unwrap(),
                versioned(line, ROUNDS),
                "line {line}"
            );
        }
        // A writer stuck mid-publish (odd epoch) sends its line to the
        // locked scan instead of being counted off the view.
        let line = lines[5];
        let epoch = cache.view.epoch(line);
        cache.view.force_epoch(line, epoch + 1);
        let locked_before = cache.lock_shard_telemetry(shard).stats().lines_scrubbed;
        let total_before = cache.stats().lines_scrubbed;
        let (report, _) = cache.scrub_shard_local(shard, &lines);
        cache.view.force_epoch(line, epoch);
        assert_eq!(report.lines_checked, lines.len() as u64);
        assert_eq!(
            cache.lock_shard_telemetry(shard).stats().lines_scrubbed - locked_before,
            1
        );
        assert_eq!(
            cache.stats().lines_scrubbed - total_before,
            lines.len() as u64
        );
    }
}
