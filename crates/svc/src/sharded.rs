//! The sharded storage engine: `N` per-shard [`SudokuCache`]s plus a
//! cross-shard Hash-2 coordinator.
//!
//! Sharding follows [`ShardPlan`]: Hash-1 RAID-Groups round-robin over
//! shards, so every Hash-1 repair (ECC-1, CRC detect, RAID-4, SDR) touches
//! exactly one shard, while every Hash-2 group spans several shards — the
//! SuDoku-Z dimension is inherently a cross-shard protocol. Each shard is
//! a full-geometry sparse [`SudokuCache`] with
//! [`SudokuConfig::with_deferred_hash2`] set: the shard still maintains
//! its slice of the Hash-2 PLT on writes (parity is linear, so the global
//! Hash-2 parity of a group is the XOR of the per-shard slices), but its
//! *own* recovery ladder stops after Hash-1. Whatever a shard cannot
//! resolve locally escalates to the coordinator, which gathers the Hash-2
//! group's members from their owning shards and drives the exact same
//! [`RepairEngine`] the single-threaded cache uses.
//!
//! The deterministic whole-cache scrub ([`ShardedCache::scrub_lines`])
//! replicates the reference fixpoint schedule — alternating a parallel
//! shard-local Hash-1 pass with a coordinator-sequential Hash-2 pass until
//! no progress — so recovery outcomes, [`ScrubReport`]s, and `CacheStats`
//! totals are invariant in the shard count (property-tested for
//! N ∈ {1, 2, 4, 8}).
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
use crate::view::{LineView, ViewRead};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use sudoku_codes::{LineCodec, LineData, ProtectedLine};
use sudoku_core::{
    reassert_stuck, CacheStats, ConfigError, GroupScratch, GroupView, HashDim, LineStore,
    MemberState, Recorder, RepairEngine, RepairParams, ScrubReport, ShardPlan, SparseStore,
    SudokuCache, SudokuConfig, UncorrectableError,
};
use sudoku_fault::{FaultInjector, StuckBitMap};
use sudoku_obs::{Heatmaps, RegionGeometry, DEFAULT_REGIONS};

/// Lines per shard-mutex hold in the daemon's bulk passes (fault
/// injection, scrub scan). A tick can touch hundreds of lines; taking the
/// lock in chunks keeps the demand path's worst-case wait at one chunk
/// instead of one whole tick.
const DAEMON_LOCK_CHUNK: usize = 32;

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
    hints: Vec<u64>,
    faulty: BTreeSet<u64>,
    recovered: BTreeMap<u64, ProtectedLine>,
    report: ScrubReport,
    /// Every line this pass may have mutated — republished into the
    /// lock-free [`LineView`] before the shard locks drop.
    touched: BTreeSet<u64>,
}

/// One shard's cache plus its in-flight recovery state, borrowed out of
/// the shard mutexes for the duration of a scrub.
struct Working<'a> {
    cache: &'a mut SudokuCache<SparseStore>,
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
        if let Some(&r) = w.st.recovered.get(&m) {
            MemberState::Recovered(r)
        } else if !w.cache.store().is_materialized(m) {
            MemberState::Zero
        } else {
            MemberState::Stored(w.cache.stored_line(m))
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

/// A ring recorder carrying the heatmap tap: the coordinator's, and the
/// replacements [`ShardedCache::harvest_recorders`] installs.
fn tapped_recorder(maps: &Arc<Heatmaps>) -> Recorder {
    let mut recorder = Recorder::ring(4096);
    recorder.set_tap(Arc::clone(maps));
    recorder
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
    shards: Vec<Mutex<SudokuCache<SparseStore>>>,
    coord: Mutex<Coordinator>,
    health: ShardHealth,
    extras: Vec<Mutex<ShardExtra>>,
    stuck: StuckBitMap,
    rejects: AtomicU64,
    skipped_h2: AtomicU64,
    /// Seqlock-stamped mirror of every stored line for lock-free clean
    /// reads; `None` when the geometry is too large to mirror.
    view: Option<LineView>,
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
        let shards = (0..n_shards)
            .map(|_| {
                let mut cache = SudokuCache::new_sparse(shard_config)?;
                cache.recorder_mut().set_tap(Arc::clone(&heatmaps));
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
        let view = LineView::new(config.geometry.lines(), n_shards);
        Ok(ShardedCache {
            plan,
            config,
            shards,
            coord: Mutex::new(Coordinator {
                stats: CacheStats::default(),
                recorder: tapped_recorder(&heatmaps),
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

    /// Shard liveness, shared with workers, the scrub daemon, and handles.
    pub fn health(&self) -> &ShardHealth {
        &self.health
    }

    /// The permanent-fault map the array was built with (physics, not
    /// controller state).
    pub fn stuck_map(&self) -> &StuckBitMap {
        &self.stuck
    }

    /// Counts one fail-fast rejection of a request to a quarantined shard.
    pub(crate) fn note_reject(&self) {
        self.rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Acquires `shard`'s cache for a demand operation: fails fast when the
    /// shard is quarantined, and quarantines it on the spot when its mutex
    /// turns out to be poisoned (a thread panicked mid-operation).
    fn lock_shard(
        &self,
        shard: usize,
    ) -> Result<MutexGuard<'_, SudokuCache<SparseStore>>, ServiceError> {
        if !self.health.is_up(shard) {
            self.note_reject();
            return Err(ServiceError::ShardDown(shard));
        }
        match self.shards[shard].lock() {
            Ok(guard) => Ok(guard),
            Err(_) => {
                self.health.quarantine(shard);
                Err(ServiceError::ShardDown(shard))
            }
        }
    }

    /// Telemetry-path lock: counters and stored lines of a quarantined (or
    /// poison-locked) shard are still worth harvesting — plain `u64`s and
    /// line words cannot be torn by an unwinding panic.
    fn lock_shard_telemetry(&self, shard: usize) -> MutexGuard<'_, SudokuCache<SparseStore>> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_extra(&self, shard: usize) -> MutexGuard<'_, ShardExtra> {
        self.extras[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_coord(&self) -> MutexGuard<'_, Coordinator> {
        self.coord.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reasserts the stuck cells of `line` after a write or repair
    /// write-back, charging the flipped bits to the `stuck` grid.
    fn reassert_line(&self, cache: &mut SudokuCache<SparseStore>, line: u64) {
        if self.stuck.is_stuck(line) {
            let changed = reassert_stuck(cache, &self.stuck, line) as u64;
            if changed > 0 {
                self.heatmaps.charge_stuck(line, changed);
            }
        }
    }

    /// Reasserts every stuck line owned by `shard` (the post-scrub physics
    /// step).
    fn reassert_shard(&self, cache: &mut SudokuCache<SparseStore>, shard: usize) {
        for line in self.stuck.lines() {
            if self.plan.shard_of_line(line) == shard {
                self.reassert_line(cache, line);
            }
        }
    }

    /// Republishes `line`'s stored state into the lock-free view. Callers
    /// must hold the owning shard's mutex (the `cache` guard proves it).
    fn publish_line(&self, cache: &SudokuCache<SparseStore>, line: u64) {
        if let Some(view) = &self.view {
            view.publish(line, &cache.stored_line(line));
        }
    }

    /// Republishes `line`'s whole Hash-1 group (the lines a shard-local
    /// group recovery may have rewritten). Same lock requirement as
    /// [`ShardedCache::publish_line`].
    fn publish_h1_group(&self, cache: &SudokuCache<SparseStore>, line: u64) {
        if let Some(view) = &self.view {
            let hashes = self.plan.hashes();
            let group = hashes.group_of(HashDim::H1, line);
            for member in hashes.members(HashDim::H1, group) {
                view.publish(member, &cache.stored_line(member));
            }
        }
    }

    /// Permanently removes `line` from the lock-free view (it was remapped
    /// to a spare slot; the array copy is no longer authoritative).
    fn invalidate_view(&self, line: u64) {
        if let Some(view) = &self.view {
            view.invalidate(line);
        }
    }

    /// Adds every Hash-1 sibling of the given lines to the republish set
    /// (group recovery may rewrite any of them). No-op without a view.
    fn extend_touched_h1(&self, touched: &mut BTreeSet<u64>, lines: impl Iterator<Item = u64>) {
        if self.view.is_none() {
            return;
        }
        let hashes = self.plan.hashes();
        for line in lines {
            let group = hashes.group_of(HashDim::H1, line);
            touched.extend(hashes.members(HashDim::H1, group));
        }
    }

    /// Adds `shard`'s stuck lines to the republish set: the post-scrub
    /// reassert rewrites them outside any recovery bookkeeping.
    fn extend_touched_stuck(&self, touched: &mut BTreeSet<u64>, shard: usize) {
        if self.view.is_none() || self.stuck.is_empty() {
            return;
        }
        for line in self.stuck.lines() {
            if self.plan.shard_of_line(line) == shard {
                touched.insert(line);
            }
        }
    }

    /// Republishes every touched line while the shard guard is held.
    fn publish_touched(&self, cache: &SudokuCache<SparseStore>, touched: &BTreeSet<u64>) {
        if let Some(view) = &self.view {
            for &line in touched {
                view.publish(line, &cache.stored_line(line));
            }
        }
    }

    /// Adds every Hash-2 sibling of the currently-faulty lines to its
    /// owning shard's republish set (the coordinator's Hash-2 pass may
    /// commit repairs into any of them). Only meaningful with every shard
    /// up — exactly when the Hash-2 pass itself runs.
    fn distribute_h2_touched(&self, work: &mut [Option<Working<'_>>]) {
        let hashes = self.plan.hashes();
        let groups: BTreeSet<u64> = work
            .iter()
            .flatten()
            .flat_map(|w| w.st.faulty.iter())
            .map(|&l| hashes.group_of(HashDim::H2, l))
            .collect();
        let mut members: Vec<u64> = Vec::new();
        for group in groups {
            members.extend(hashes.members(HashDim::H2, group));
        }
        for line in members {
            if let Some(w) = work[self.plan.shard_of_line(line)].as_mut() {
                w.st.touched.insert(line);
            }
        }
    }

    /// Marks a write for `line` as accepted-but-not-applied: lock-free
    /// reads of the line miss until [`ShardedCache::retire_write`]
    /// balances this call, so a queued fire-and-forget write stays
    /// read-your-write consistent (the queue's FIFO order serves the read
    /// after the write). No-op without a view.
    pub(crate) fn begin_write(&self, line: u64) {
        if let Some(view) = &self.view {
            view.begin_write(line);
        }
    }

    /// Balances one [`ShardedCache::begin_write`] once the write has been
    /// applied and republished — or consumed by a teardown path that will
    /// never apply it. No-op without a view.
    pub(crate) fn retire_write(&self, line: u64) {
        if let Some(view) = &self.view {
            view.retire_write(line);
        }
    }

    /// Attempts a lock-free clean read of `line` via the seqlock view:
    /// `Some(data)` when the line is verifiably clean (CRC checked inline,
    /// or golden zero), `None` when the caller must take the locked path.
    /// The second element counts seqlock retries (for telemetry).
    pub fn try_read_clean(&self, line: u64) -> (Option<LineData>, u32) {
        let Some(view) = &self.view else {
            return (None, 0);
        };
        let shard = self.plan.shard_of_line(line);
        if !self.health.is_up(shard) {
            // Quarantine wins: the locked path owns the error reporting.
            return (None, 0);
        }
        match view.try_read(line, shard) {
            (ViewRead::Clean(data), retries) => (Some(data), retries),
            (ViewRead::Zero, retries) => (Some(LineData::zero()), retries),
            (ViewRead::Miss, retries) => (None, retries),
        }
    }

    /// Opens a per-shard demand session: the shard mutex held across a
    /// whole work packet, amortizing one lock acquire over many ops.
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
        match self.read_local(line) {
            Err(ServiceError::Uncorrectable(_)) => {
                // The owner gave up after Hash-1; gather the Hash-2 groups.
                self.escalate_fetch(line, 0)
            }
            other => other,
        }
    }

    /// Escalates `line` and returns its post-escalation value, captured
    /// *before* stuck cells reassert — a repaired demand read must return
    /// the repaired data even when the array copy immediately re-corrupts.
    ///
    /// `trace` (0 = untraced) is stamped into every [`RecoveryEvent`] the
    /// escalation emits — shard-local Hash-1 passes and the coordinator's
    /// Hash-2 pass alike — so `/traces.json` can tie a slow demand read to
    /// the exact recovery ladder it triggered.
    ///
    /// [`RecoveryEvent`]: sudoku_obs::RecoveryEvent
    pub(crate) fn escalate_fetch(&self, line: u64, trace: u64) -> Result<LineData, ServiceError> {
        self.escalate_inner(&[line], Some(line), trace)
            .1
            .expect("fetch result requested")
    }

    /// Reads `line` using only the owning shard's (Hash-1) ladder, without
    /// cross-shard escalation. The service worker uses this to count
    /// escalations explicitly; most callers want [`ShardedCache::read`].
    /// A spared line is served from the spare pool without touching the
    /// faulty array at all.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Uncorrectable`] when the shard-local ladder fails
    /// (or the line was spared after its data was already lost), and
    /// [`ServiceError::ShardDown`] when the owning shard is quarantined.
    pub fn read_local(&self, line: u64) -> Result<LineData, ServiceError> {
        let shard = self.plan.shard_of_line(line);
        self.session(shard)?.read(line)
    }

    /// Flips one stored bit of `line` — a transient fault. Works on
    /// quarantined shards too (faults are physics, not requests).
    pub fn inject_fault(&self, line: u64, bit: usize) {
        let mut cache = self.lock_shard_telemetry(self.plan.shard_of_line(line));
        cache.inject_fault(line, bit);
        // Mirror the corruption into the view: the lock-free path must see
        // the faulty bits (and miss on the CRC), never stale clean data.
        self.publish_line(&cache, line);
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
            self.publish_line(&shard, *line);
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
                self.publish_line(&cache, line);
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
            self.fold_view_stats(shard, &mut total);
        }
        total.merge(&self.lock_coord().stats);
        total
    }

    /// Per-shard counters (index = shard id), excluding the coordinator.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        (0..self.n_shards())
            .map(|s| {
                let mut stats = *self.lock_shard_telemetry(s).stats();
                self.fold_view_stats(s, &mut stats);
                stats
            })
            .collect()
    }

    /// Folds the lock-free view's read accounting for `shard` into
    /// `stats`: every lock-free hit was one `reads` (plus one `crc_checks`
    /// for non-zero lines) the reference would have counted under the
    /// lock, so aggregates stay bit-identical to the reference path.
    fn fold_view_stats(&self, shard: usize, stats: &mut CacheStats) {
        if let Some(view) = &self.view {
            stats.reads += view.reads(shard);
            stats.crc_checks += view.crc_checks(shard);
        }
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

    /// Harvests every shard's telemetry recorder (and the coordinator's)
    /// into `master`, leaving fresh ring recorders behind. Poisoned shards
    /// are harvested too — telemetry survives the panic.
    pub fn harvest_recorders(&self, master: &mut Recorder) {
        for shard in 0..self.n_shards() {
            let old = self
                .lock_shard_telemetry(shard)
                .set_recorder(tapped_recorder(&self.heatmaps));
            master.absorb(old);
        }
        let mut coord = self.lock_coord();
        let old = std::mem::replace(&mut coord.recorder, tapped_recorder(&self.heatmaps));
        master.absorb(old);
    }

    /// Chaos hook: panics on purpose — optionally while holding `shard`'s
    /// cache mutex, poisoning it the way a real mid-repair panic would.
    /// Used by the worker's `Request::Panic` injection and the chaos bin;
    /// never called on any production path.
    pub fn chaos_panic(&self, shard: usize, hold_lock: bool) -> ! {
        if hold_lock {
            let _guard = self.lock_shard_telemetry(shard);
            panic!("injected worker panic on shard {shard} (lock held)");
        }
        panic!("injected worker panic on shard {shard}");
    }

    /// Deterministic whole-service scrub of the listed lines (plus
    /// whatever group recovery pulls in), replicating the single-threaded
    /// [`SudokuCache::scrub_lines`] schedule exactly: scan, then alternate
    /// a parallel shard-local Hash-1 pass with a coordinator-sequential
    /// cross-shard Hash-2 pass until a fixpoint. Holds every shard lock
    /// for the duration — the stop-the-world reference path. Quarantined
    /// shards are skipped; their hinted lines come back unresolved.
    pub fn scrub_lines(&self, hints: &[u64]) -> ScrubReport {
        let mut guards = self.lock_up_shards();
        let all_up = guards.iter().all(Option::is_some);
        let mut work = Self::borrow_working(&mut guards);
        let mut down_report = ScrubReport::default();
        let mirror = self.view.is_some();
        for &line in hints {
            match work[self.plan.shard_of_line(line)].as_mut() {
                Some(w) => {
                    w.st.hints.push(line);
                    if mirror {
                        w.st.touched.insert(line);
                    }
                }
                None => down_report.unresolved.push(line),
            }
        }
        // Scan phase: per-line checks are line-local, so shards scan their
        // own hinted lines concurrently.
        std::thread::scope(|s| {
            for w in work.iter_mut().flatten() {
                s.spawn(move || {
                    w.st.faulty = w
                        .cache
                        .scrub_scan(w.st.hints.drain(..), true, &mut w.st.report);
                });
            }
        });
        // Everything recovery can rewrite from here: Hash-1 siblings of
        // the post-scan faulty lines, plus (when the cross-shard pass will
        // run) their Hash-2 groups. The faulty sets only shrink during the
        // fixpoint, so capturing now over-approximates safely.
        if mirror {
            for w in work.iter_mut().flatten() {
                let faulty: Vec<u64> = w.st.faulty.iter().copied().collect();
                self.extend_touched_h1(&mut w.st.touched, faulty.into_iter());
            }
            if all_up && self.config.scheme.second_hash_enabled() {
                self.distribute_h2_touched(&mut work);
            }
        }
        let coord_report = self.fixpoint(&mut work, all_up);
        for w in work.iter_mut().flatten() {
            w.st.report.unresolved = w.st.faulty.iter().copied().collect();
            let mut report = std::mem::take(&mut w.st.report);
            w.cache.finish_scrub(&mut report);
            w.st.report = report;
        }
        // Physics: stuck cells re-corrupt whatever the scrub wrote back.
        for (shard, w) in work.iter_mut().enumerate() {
            if let Some(w) = w {
                self.reassert_shard(w.cache, shard);
                self.extend_touched_stuck(&mut w.st.touched, shard);
                self.publish_touched(w.cache, &w.st.touched);
            }
        }
        self.finish_down_lines(&mut down_report);
        merge_reports(
            work.iter()
                .flatten()
                .map(|w| &w.st.report)
                .chain([&coord_report, &down_report]),
        )
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
    /// those via [`ShardedCache::escalate`]. No DUE accounting happens
    /// here; a line is only a DUE once escalation also fails. A
    /// quarantined shard returns an empty report and no leftovers.
    pub fn scrub_shard_local(&self, shard: usize, hints: &[u64]) -> (ScrubReport, Vec<u64>) {
        let mut report = ScrubReport::default();
        let owned: Vec<u64> = hints
            .iter()
            .copied()
            .filter(|&l| self.plan.shard_of_line(l) == shard && !self.is_spared(shard, l))
            .collect();
        let mut touched: BTreeSet<u64> = owned.iter().copied().collect();
        // The bulk scan runs in chunked lock holds (like fault injection):
        // single-bit repairs are per-line atomic, and a demand write that
        // slips between chunks just heals its line before the scan gets
        // there — the recovery fixpoint below re-verifies every survivor.
        let mut faulty = BTreeSet::new();
        for chunk in owned.chunks(DAEMON_LOCK_CHUNK) {
            let Ok(mut cache) = self.lock_shard(shard) else {
                return (ScrubReport::default(), Vec::new());
            };
            faulty.extend(cache.scrub_scan(chunk.iter().copied(), true, &mut report));
            // Repairs of scanned lines must reach the view before the next
            // chunk's lock gap, or lock-free reads keep missing on them.
            self.publish_touched(&cache, &chunk.iter().copied().collect());
        }
        let Ok(mut cache) = self.lock_shard(shard) else {
            return (ScrubReport::default(), Vec::new());
        };
        // Group recovery may rewrite any Hash-1 sibling of a faulty line;
        // capture the groups now (the faulty set only shrinks from here).
        self.extend_touched_h1(&mut touched, faulty.iter().copied());
        let mut recovered = BTreeMap::new();
        loop {
            if faulty.is_empty() {
                break;
            }
            let before = faulty.len();
            cache.recovery_pass(HashDim::H1, &mut faulty, &mut recovered, &mut report, true);
            if faulty.len() >= before {
                break;
            }
        }
        // Physics + non-convergence accounting: reconstructions of stuck
        // lines are immediately undone by the stuck cells — count them as
        // strikes (with the recovered data!) instead of looping forever.
        self.note_undone_reconstructions(shard, &recovered);
        self.reassert_shard(&mut cache, shard);
        self.extend_touched_stuck(&mut touched, shard);
        self.publish_touched(&cache, &touched);
        let leftover: Vec<u64> = faulty.into_iter().collect();
        report.unresolved = leftover.clone();
        (report, leftover)
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
    /// pool and stop consuming escalations.
    pub fn escalate(&self, lines: &[u64]) -> ScrubReport {
        self.escalate_inner(lines, None, 0).0
    }

    fn escalate_inner(
        &self,
        lines: &[u64],
        fetch: Option<u64>,
        trace: u64,
    ) -> (ScrubReport, Option<Result<LineData, ServiceError>>) {
        let mut guards = self.lock_up_shards();
        let all_up = guards.iter().all(Option::is_some);
        let mut work = Self::borrow_working(&mut guards);
        // Stamp the demand trace into every recorder this escalation can
        // emit through: each surviving shard's (Hash-1 passes) and the
        // coordinator's (Hash-2 pass). All shard locks are held for the
        // whole escalation, so no concurrent scrub can emit under the
        // stamp; it is cleared again before the locks drop.
        if trace != 0 {
            for w in work.iter_mut().flatten() {
                w.cache.recorder_mut().set_trace(trace);
            }
            self.lock_coord().recorder.set_trace(trace);
        }
        let mut down_report = ScrubReport::default();
        let mirror = self.view.is_some();
        for &line in lines {
            let shard = self.plan.shard_of_line(line);
            match work[shard].as_mut() {
                // A spared line is already remapped out of the array;
                // reads hit the pool, so there is nothing to escalate.
                Some(w) if !self.is_spared(shard, line) => {
                    w.st.faulty.insert(line);
                    if mirror {
                        // The re-verify may repair the seed in place.
                        w.st.touched.insert(line);
                    }
                }
                Some(_) => {}
                None => down_report.unresolved.push(line),
            }
        }
        // Seeds may have been healed (or cleanly overwritten) since the
        // caller saw them fail; keep only the still-multibit ones.
        let empty = BTreeMap::new();
        for w in work.iter_mut().flatten() {
            let mut faulty = std::mem::take(&mut w.st.faulty);
            w.cache.retain_multibit(&mut faulty, &empty);
            w.st.faulty = faulty;
        }
        if mirror {
            for w in work.iter_mut().flatten() {
                let faulty: Vec<u64> = w.st.faulty.iter().copied().collect();
                self.extend_touched_h1(&mut w.st.touched, faulty.into_iter());
            }
            if all_up && self.config.scheme.second_hash_enabled() {
                self.distribute_h2_touched(&mut work);
            }
        }
        let had_faulty = work.iter().flatten().any(|w| !w.st.faulty.is_empty());
        let coord_report = self.fixpoint(&mut work, all_up);
        if !all_up && had_faulty && self.config.scheme.second_hash_enabled() {
            self.skipped_h2.fetch_add(1, Ordering::Relaxed);
        }
        for w in work.iter_mut().flatten() {
            w.st.report.unresolved = w.st.faulty.iter().copied().collect();
            let mut report = std::mem::take(&mut w.st.report);
            w.cache.finish_scrub(&mut report);
            w.st.report = report;
        }
        // Capture the demand read's value now: the store holds whatever the
        // escalation repaired, and the stuck-cell reassert below is about
        // to undo that in the array (never in the returned data).
        let fetched = fetch.map(|line| {
            let shard = self.plan.shard_of_line(line);
            match work[shard].as_mut() {
                Some(w) => {
                    let spared = self.lock_extra(shard).spares.lookup(line);
                    match spared {
                        Some(Some(data)) => Ok(data),
                        Some(None) => Err(ServiceError::Uncorrectable(UncorrectableError { line })),
                        None => w.cache.read(line).map_err(ServiceError::from),
                    }
                }
                None => Err(ServiceError::ShardDown(shard)),
            }
        });
        // Physics, non-convergence, and repeated-DUE sparing strikes.
        for (shard, w) in work.iter_mut().enumerate() {
            if let Some(w) = w {
                self.note_undone_reconstructions(shard, &w.st.recovered);
                self.reassert_shard(w.cache, shard);
                if !w.st.report.unresolved.is_empty() {
                    let mut extra = self.lock_extra(shard);
                    for &line in &w.st.report.unresolved {
                        if extra.spares.strike(line, None, &self.heatmaps) {
                            // Remapped: the array copy is dead to readers.
                            self.invalidate_view(line);
                        }
                    }
                }
                self.extend_touched_stuck(&mut w.st.touched, shard);
                self.publish_touched(w.cache, &w.st.touched);
            }
        }
        self.finish_down_lines(&mut down_report);
        if trace != 0 {
            for w in work.iter_mut().flatten() {
                w.cache.recorder_mut().set_trace(0);
            }
            self.lock_coord().recorder.set_trace(0);
        }
        let report = merge_reports(
            work.iter()
                .flatten()
                .map(|w| &w.st.report)
                .chain([&coord_report, &down_report]),
        );
        (report, fetched)
    }

    fn is_spared(&self, shard: usize, line: u64) -> bool {
        self.lock_extra(shard).spares.is_spared(line)
    }

    /// Strikes every reconstructed-but-stuck line: the write-back is about
    /// to be undone by the stuck cells, so the reconstruction did not
    /// converge. The recovered data rides along into the spare slot when
    /// the strike threshold is reached.
    fn note_undone_reconstructions(&self, shard: usize, recovered: &BTreeMap<u64, ProtectedLine>) {
        if self.stuck.is_empty() || recovered.is_empty() {
            return;
        }
        let mut extra = self.lock_extra(shard);
        for (&line, value) in recovered {
            if self.stuck.is_stuck(line) {
                extra.undone_reconstructions += 1;
                // When the threshold is reached the line is spared *with*
                // the reconstructed data — reads stop needing escalation.
                if extra.spares.strike(line, Some(value.data), &self.heatmaps) {
                    self.invalidate_view(line);
                }
            }
        }
    }

    /// Sorts/dedups the lines owned by dead shards and charges them to the
    /// coordinator's DUE counter (their own shard's counters are
    /// unreachable, but the loss must still be visible in `stats()`).
    fn finish_down_lines(&self, down_report: &mut ScrubReport) {
        if down_report.unresolved.is_empty() {
            return;
        }
        down_report.unresolved.sort_unstable();
        down_report.unresolved.dedup();
        self.lock_coord().stats.due_lines += down_report.unresolved.len() as u64;
        // These DUEs bypass every recorder (the owning shard is dead), so
        // the heatmap is charged directly to keep grid == counter exact.
        for &line in &down_report.unresolved {
            self.heatmaps.charge_due(line);
        }
    }

    /// Acquires every *up* shard's lock in ascending index order (the
    /// global lock order, followed by the coordinator — see
    /// [`ShardedCache`]). A quarantined or poison-locked shard yields
    /// `None` (and is quarantined if it was not already).
    fn lock_up_shards(&self) -> Vec<Option<MutexGuard<'_, SudokuCache<SparseStore>>>> {
        (0..self.n_shards())
            .map(|s| {
                if !self.health.is_up(s) {
                    return None;
                }
                match self.shards[s].lock() {
                    Ok(guard) => Some(guard),
                    Err(_) => {
                        self.health.quarantine(s);
                        None
                    }
                }
            })
            .collect()
    }

    fn borrow_working<'a, 'g>(
        guards: &'a mut [Option<MutexGuard<'g, SudokuCache<SparseStore>>>],
    ) -> Vec<Option<Working<'a>>> {
        guards
            .iter_mut()
            .map(|g| {
                g.as_mut().map(|g| Working {
                    cache: g,
                    st: ScrubState::default(),
                })
            })
            .collect()
    }

    /// The recovery fixpoint over pre-seeded per-shard faulty sets: each
    /// round runs the shard-local Hash-1 pass on every shard in parallel,
    /// then (for schemes with a second hash, when every shard is up) the
    /// coordinator's sequential Hash-2 pass over gathered cross-shard
    /// groups, stopping when a round makes no progress — the exact
    /// schedule of the single-threaded ladder, which is what makes
    /// recovery shard-count-invariant. Both passes take core's all-zero
    /// fast path (`fast = true`).
    fn fixpoint(&self, work: &mut [Option<Working<'_>>], all_up: bool) -> ScrubReport {
        let mut coord = self.lock_coord();
        let mut coord_report = ScrubReport::default();
        let use_h2 = all_up && self.config.scheme.second_hash_enabled();
        loop {
            let before: usize = work.iter().flatten().map(|w| w.st.faulty.len()).sum();
            if before == 0 {
                break;
            }
            std::thread::scope(|s| {
                for w in work.iter_mut().flatten() {
                    s.spawn(move || {
                        let mut faulty = std::mem::take(&mut w.st.faulty);
                        w.cache.recovery_pass(
                            HashDim::H1,
                            &mut faulty,
                            &mut w.st.recovered,
                            &mut w.st.report,
                            true,
                        );
                        w.st.faulty = faulty;
                    });
                }
            });
            if use_h2 && work.iter().flatten().any(|w| !w.st.faulty.is_empty()) {
                self.h2_pass(&mut coord, work, &mut coord_report);
                for w in work.iter_mut().flatten() {
                    let mut faulty = std::mem::take(&mut w.st.faulty);
                    let recovered = std::mem::take(&mut w.st.recovered);
                    w.cache.retain_multibit(&mut faulty, &recovered);
                    w.st.recovered = recovered;
                    w.st.faulty = faulty;
                }
            }
            let after: usize = work.iter().flatten().map(|w| w.st.faulty.len()).sum();
            if after >= before {
                break;
            }
        }
        coord_report
    }

    /// One coordinator Hash-2 pass: repair every implicated cross-shard
    /// group in ascending group order, gathering members and parity slices
    /// from the owning shards. Only called with every shard up.
    fn h2_pass(
        &self,
        coord: &mut Coordinator,
        work: &mut [Option<Working<'_>>],
        report: &mut ScrubReport,
    ) {
        let hashes = self.plan.hashes();
        let groups: BTreeSet<u64> = work
            .iter()
            .flatten()
            .flat_map(|w| w.st.faulty.iter())
            .map(|&l| hashes.group_of(HashDim::H2, l))
            .collect();
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

/// A demand session holding one shard's cache mutex across a whole work
/// packet: `N` reads/writes pay for one lock acquire. Created by
/// [`ShardedCache::session`]; dropping it releases the shard.
///
/// The session holds **only** the shard cache guard — spare-table and
/// stuck-cell bookkeeping take their own (transient, strictly-after)
/// locks per op, and cross-shard escalation requires dropping the session
/// first (it acquires every shard in ascending order).
pub struct ShardSession<'a> {
    cache: MutexGuard<'a, SudokuCache<SparseStore>>,
    owner: &'a ShardedCache,
    shard: usize,
}

impl ShardSession<'_> {
    /// Stamps `trace` (0 = untraced) into the shard recorder so that any
    /// [`RecoveryEvent`] emitted while serving this session's ops — Hash-1
    /// repairs under a demand read, consistency-triggered group recovery
    /// under a write — carries the request's trace ID. The stamp is
    /// cleared automatically when the session drops, so daemon scrubs on
    /// the same shard are never mis-attributed to a finished request.
    ///
    /// [`RecoveryEvent`]: sudoku_obs::RecoveryEvent
    pub fn set_trace(&mut self, trace: u64) {
        self.cache.recorder_mut().set_trace(trace);
    }

    /// Writes `data` to `line` (which must be owned by this shard),
    /// landing in the spare pool when the line has been remapped.
    pub fn write(&mut self, line: u64, data: &LineData) {
        let owner = self.owner;
        if owner.lock_extra(self.shard).spares.write(line, data) {
            return;
        }
        // A clean old value means the write's consistency pre-check could
        // not have triggered group recovery: only `line` itself changed.
        // Otherwise the whole Hash-1 group may have been rewritten under
        // it. The write itself reports which case ran — no separate
        // stored-line CRC probe needed.
        let clean_old = self.cache.write(line, data);
        owner.reassert_line(&mut self.cache, line);
        if clean_old {
            owner.publish_line(&self.cache, line);
        } else {
            owner.publish_h1_group(&self.cache, line);
        }
    }

    /// Reads `line` through the shard-local (Hash-1) ladder, exactly like
    /// [`ShardedCache::read_local`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::Uncorrectable`] when the local ladder fails (the
    /// caller escalates — after dropping this session).
    pub fn read(&mut self, line: u64) -> Result<LineData, ServiceError> {
        let owner = self.owner;
        if let Some(spared) = owner.lock_extra(self.shard).spares.lookup(line) {
            return match spared {
                Some(data) => Ok(data),
                None => Err(ServiceError::Uncorrectable(UncorrectableError { line })),
            };
        }
        // A clean stored line (the common case) is read without mutation,
        // so the view is already in sync and nothing needs republishing.
        let old = self.cache.stored_line(line);
        let clean_old = old.is_zero() || LineCodec::shared().crc_ok(&old);
        let result = self.cache.read(line).map_err(ServiceError::from);
        owner.reassert_line(&mut self.cache, line);
        if !clean_old {
            owner.publish_h1_group(&self.cache, line);
        }
        result
    }
}

impl Drop for ShardSession<'_> {
    fn drop(&mut self) {
        // One relaxed store; keeps scrub events emitted after the session
        // from inheriting a stale demand trace.
        self.cache.recorder_mut().set_trace(0);
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
        let cache = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        let d4 = data_with(&[40, 41]);
        let d5 = data_with(&[50, 51]);
        cache.write(4, &d4).unwrap();
        cache.write(5, &d5).unwrap();
        for line in [4u64, 5] {
            cache.inject_fault(line, 100);
            cache.inject_fault(line, 200);
        }
        assert_eq!(cache.read(4).unwrap(), d4);
        assert_eq!(cache.read(5).unwrap(), d5);
        assert!(cache.coordinator_stats().raid4_repairs >= 1);
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
}
