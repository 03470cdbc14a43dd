//! The live service front-end: client threads that serve their own ops
//! under the owning shard's mutex, a lock-free clean-read fast path, a
//! background scrub daemon with per-shard forked fault injectors, a live
//! telemetry plane, and shutdown.
//!
//! # The demand path
//!
//! A read first tries the seqlock **line view** ([`ShardedCache::try_read_clean`]):
//! load the line's published `(data, crc)` under the seqlock, verify the
//! CRC-31 inline unless the shard published it as a codeword, and serve
//! without touching any mutex — the overwhelming common case in the
//! paper's BER regime. Only a miss (faulty line, torn
//! snapshot, writer in flight, spared line, quarantined shard) falls
//! through to the locked path.
//!
//! Every lock-free miss, every write and every injected worker panic is
//! served on the calling thread under the owning shard's mutex, the one
//! that already serializes the scrub daemon and cross-shard escalation,
//! so **repairs stay serialized per shard**. The mutex is the demand
//! queue: an op first tries it without blocking, and only when another
//! thread holds it does the op count itself in the shard's depth gauge
//! while it blocks, record the wait as its queue-wait phase and trace as
//! [`TracePath::Queued`]. No op is handed to another thread, so none can
//! be stranded, and a write has returned once it is applied: a later read
//! of the line, from any thread, sees it.
//!
//! Both demand ops share one admission prologue (health and acceptance
//! checks, one trace ID), and every op served under the mutex is
//! completed by one routine, `serve`, which runs the cache operation
//! under the demand path's only `catch_unwind`; it and the lock-free hit
//! share the same counter and [`TraceRecord`] accounting.
//!
//! The scrub daemon ticks shards round-robin on the configured interval:
//! inject (per-shard decorrelated [`FaultInjector::fork`] streams, so
//! concurrent injection is reproducible regardless of thread
//! interleaving), then a shard-local Hash-1 scrub, then cross-shard
//! escalation of whatever the shard could not resolve alone. The scrub
//! sweeps its packets off the lock-free view and takes the shard mutex,
//! in small chunks, only for the injected lines and the dirty ones it
//! finds, so clean lines cost the demand path no lock hold at all.
//!
//! # Telemetry
//!
//! Every client thread and the daemon publish into a shared lock-free
//! [`TelemetryRegistry`] as they go — counters (including the lock-free
//! hit/retry rate), per-shard waiter gauges, and per-phase latency
//! histograms (mutex wait → shard service → cross-shard H2
//! gather+repair), threaded by a per-request trace ID. The end-of-run
//! [`ServiceReport`] is a final read of that registry; with
//! [`ServiceConfig::telemetry`] set, a sampler thread additionally
//! records periodic [`TelemetrySnapshot`]s into a bounded flight recorder
//! (and optional JSONL time series), and a std-only TCP exporter serves
//! `GET /metrics`, `/healthz`, and `/snapshot.json` while the service
//! runs.
//!
//! # Failure semantics
//!
//! Nothing on the client path panics. Every handle operation returns
//! `Result<_, `[`ServiceError`]`>`:
//!
//! * A panic while serving a shard (organic or injected via
//!   [`ServiceHandle::inject_worker_panic`]) is caught at the op boundary;
//!   the shard is **quarantined** and subsequent requests to it fail fast
//!   with [`ServiceError::ShardDown`] while the other N−1 shards keep
//!   serving. A client blocked on the dying shard's mutex gets the same
//!   error once it takes the mutex. The registry (shared, not
//!   thread-local) keeps everything the shard recorded.
//! * A scrub daemon panic is caught per tick; scrubbing stops but demand
//!   traffic continues, and [`ServiceReport::daemon_panicked`] says so.
//! * Shutdown never panics: it closes acceptance and harvests the report.
//!   Panicked shards land in [`ServiceReport::worker_panics`], surviving
//!   telemetry is harvested (a poisoned shard mutex does not block
//!   counter collection), and the degraded-mode counters land in
//!   [`ServiceReport::degraded`].
//!
//! [`TelemetrySnapshot`]: crate::TelemetrySnapshot

use crate::audit::{AuditConfig, AuditPlane, ScrubController};
use crate::degraded::{DegradedConfig, DegradedStats};
use crate::error::{ServiceError, StartError};
use crate::exporter::Exporter;
use crate::sharded::{ShardSession, ShardedCache};
use crate::telemetry::{
    FlightRecorder, TelemetryConfig, TelemetryRegistry, TelemetrySnapshot, TraceOutcome, TracePath,
    TraceRecord, LOCKFREE_TIME_EVERY,
};
use crate::watchdog::watchdog_loop;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::io::Write as _;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use sudoku_core::{CacheStats, ShardPlan, SudokuConfig};
use sudoku_fault::{FaultInjector, StuckBitMap};
use sudoku_obs::{CorrelationStat, Heatmaps, ServiceHistograms};

/// Configuration of a running [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The cache geometry and scheme (the service applies
    /// [`SudokuConfig::with_deferred_hash2`] internally per shard).
    pub cache: SudokuConfig,
    /// Number of shards (each behind its own mutex).
    pub n_shards: usize,
    /// Clients blocked on one shard's mutex at which the shard counts as
    /// saturated: the wire server sheds RETRY, the watchdog's
    /// `queue_saturation` streak counts, and the scrub controller reads
    /// full demand pressure. Nothing blocks on it.
    pub queue_depth: usize,
    /// Scrub daemon tick period; `None` disables the daemon.
    pub scrub_every: Option<Duration>,
    /// Per-interval transient bit error rate injected by the daemon
    /// (0.0 = scrub without injection).
    pub ber: f64,
    /// Master seed; per-shard injectors fork decorrelated streams from it.
    pub seed: u64,
    /// Permanent (stuck-at) cells of the underlying array — physics, not
    /// controller state: they reassert after every write and repair.
    pub stuck: StuckBitMap,
    /// Quarantine/sparing policy for degraded operation.
    pub degraded: DegradedConfig,
    /// Live telemetry plane (sampler, flight recorder, scrape endpoint);
    /// `None` runs the lock-free registry only, with zero extra threads.
    pub telemetry: Option<TelemetryConfig>,
    /// Reliability audit plane: scrub-deadline tracking, error-budget
    /// burn estimation, and the anomaly watchdog. Always on (the plane is
    /// lock-free and the watchdog is one light thread); this configures
    /// its thresholds.
    pub audit: AuditConfig,
    /// Drive the scrub daemon's per-visit packet quota with the
    /// closed-loop [`ScrubController`](crate::audit::ScrubController)
    /// (floor from the achieved visit period, opportunistic ceiling when
    /// demand is idle, backoff under pressure). `false` runs the legacy
    /// fixed cadence: a static quota computed once from the nominal
    /// `tick × n_shards` period.
    pub adaptive_scrub: bool,
}

impl ServiceConfig {
    /// A small functional-test configuration: SuDoku-Z, `lines` lines in
    /// groups of 16, 4 shards, a 2 ms scrub tick, a pristine array.
    pub fn small(lines: u64, n_shards: usize, ber: f64, seed: u64) -> Self {
        ServiceConfig {
            cache: SudokuConfig::small(sudoku_core::Scheme::Z, lines, 16),
            n_shards,
            queue_depth: 64,
            scrub_every: Some(Duration::from_millis(2)),
            ber,
            seed,
            stuck: StuckBitMap::new(),
            degraded: DegradedConfig::default(),
            telemetry: None,
            audit: AuditConfig::default(),
            adaptive_scrub: true,
        }
    }
}

/// The state every handle shares: acceptance, the shards that panicked,
/// and the saturation bound.
struct Demand {
    /// Cleared by shutdown: later requests get [`ServiceError::ShuttingDown`].
    accepting: AtomicBool,
    /// Shards whose serving thread caught a panic (quarantined).
    panicked: Mutex<BTreeSet<usize>>,
    queue_depth: usize,
}

std::thread_local! {
    /// This thread's last timed lock-free read latency, ns (at least 1;
    /// 0 = none yet): what its untimed lock-free reads are charged.
    static LOCKFREE_NS: Cell<u64> = const { Cell::new(0) };

    /// This thread's last timed inline write latency, ns (at least 1;
    /// 0 = none yet): what its untimed inline writes are charged.
    static INLINE_WRITE_NS: Cell<u64> = const { Cell::new(0) };
}

/// End-of-run summary assembled by [`Service::shutdown`].
#[derive(Debug)]
pub struct ServiceReport {
    /// Shard count the service ran with.
    pub shards: usize,
    /// Aggregate cache counters (all shards + coordinator).
    pub stats: CacheStats,
    /// Service-level latency/queue-depth histograms (demand path + daemon).
    pub hists: ServiceHistograms,
    /// Demand reads served.
    pub reads: u64,
    /// Demand writes served.
    pub writes: u64,
    /// Demand writes rejected (owning shard down).
    pub failed_writes: u64,
    /// Demand reads that needed cross-shard escalation.
    pub escalated_reads: u64,
    /// Demand reads that remained uncorrectable (DUE).
    pub due_reads: u64,
    /// Demand reads served lock-free off the seqlock line view.
    pub lockfree_reads: u64,
    /// Scrub daemon ticks completed (one tick = one shard).
    pub scrub_ticks: u64,
    /// Daemon ticks skipped because the shard was quarantined.
    pub skipped_ticks: u64,
    /// Lines faulted by the daemon's injectors.
    pub injected_lines: u64,
    /// Cross-shard escalations triggered by scrub leftovers.
    pub escalations: u64,
    /// Lines handed to those escalations.
    pub escalated_lines: u64,
    /// Lines still unresolved after escalation (scrub-detected DUEs).
    pub unresolved_lines: u64,
    /// Shards that panicked while serving demand (caught; shard
    /// quarantined).
    pub worker_panics: Vec<usize>,
    /// Whether the scrub daemon died to a caught panic.
    pub daemon_panicked: bool,
    /// Shards quarantined at shutdown (serving panics + poisoned locks).
    pub quarantined: Vec<usize>,
    /// Degraded-mode counters: sparing, stuck-cell physics, fail-fasts.
    pub degraded: DegradedStats,
    /// Alerts the watchdog raised over the run.
    pub alerts: u64,
    /// Critical-severity alerts among them.
    pub critical_alerts: u64,
    /// Line-range packets whose achieved scrub interval exceeded the
    /// configured deadline.
    pub scrub_deadline_misses: u64,
    /// p99 of the achieved packet re-scrub interval across all shards, ns
    /// (the BER math's 20 ms contract, as measured).
    pub scrub_interval_p99_ns: u64,
    /// Lines actually swept by the scrub daemon over the run.
    pub scrub_lines_swept: u64,
    /// Daemon visits where demand pressure asked for less than the quota
    /// floor and the floor was enforced instead.
    pub scrub_floor_clamps: u64,
    /// The spatial reliability plane's heatmap bundle (shared with the
    /// now-stopped service; the grids are final at shutdown).
    pub heatmaps: Arc<Heatmaps>,
    /// The spatial-correlation detector's last verdict of the run.
    pub spatial: Option<CorrelationStat>,
}

impl ServiceReport {
    /// Whether the run ended with every shard up and no caught panics.
    pub fn fully_healthy(&self) -> bool {
        self.worker_panics.is_empty() && !self.daemon_panicked && self.quarantined.is_empty()
    }

    /// JSON object with the headline counters and latency quantiles.
    pub fn to_json(&self) -> String {
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_u64("shards", self.shards as u64)
            .field_u64("reads", self.reads)
            .field_u64("writes", self.writes)
            .field_u64("failed_writes", self.failed_writes)
            .field_u64("escalated_reads", self.escalated_reads)
            .field_u64("due_reads", self.due_reads)
            .field_u64("lockfree_reads", self.lockfree_reads)
            .field_u64("scrub_ticks", self.scrub_ticks)
            .field_u64("skipped_ticks", self.skipped_ticks)
            .field_u64("injected_lines", self.injected_lines)
            .field_u64("escalations", self.escalations)
            .field_u64("escalated_lines", self.escalated_lines)
            .field_u64("unresolved_lines", self.unresolved_lines)
            .field_array_u64(
                "worker_panics",
                self.worker_panics.iter().map(|&s| s as u64),
            )
            .field_bool("daemon_panicked", self.daemon_panicked)
            .field_array_u64("quarantined", self.quarantined.iter().map(|&s| s as u64))
            .field_u64("alerts", self.alerts)
            .field_u64("critical_alerts", self.critical_alerts)
            .field_u64("scrub_deadline_misses", self.scrub_deadline_misses)
            .field_u64("scrub_interval_p99_ns", self.scrub_interval_p99_ns)
            .field_u64("scrub_lines_swept", self.scrub_lines_swept)
            .field_u64("scrub_floor_clamps", self.scrub_floor_clamps)
            .field_raw("degraded", &self.degraded.to_json())
            .field_raw("stats", &self.stats.to_json())
            .field_raw("service_hists", &self.hists.to_json())
            .field_raw("heatmap", &self.heatmaps.to_json(self.spatial.as_ref()));
        obj.finish()
    }
}

/// A cloneable client of a running [`Service`]: serves clean reads
/// lock-free off the seqlock line view, and everything else on the
/// calling thread under the owning shard's mutex.
#[derive(Clone)]
pub struct ServiceHandle {
    plan: ShardPlan,
    demand: Arc<Demand>,
    registry: Arc<TelemetryRegistry>,
    state: Arc<ShardedCache>,
    plane: Arc<AuditPlane>,
}

impl ServiceHandle {
    /// The shard that owns `line` (useful for interpreting
    /// [`ServiceError::ShardDown`]).
    pub fn shard_of(&self, line: u64) -> usize {
        self.plan.shard_of_line(line)
    }

    /// Shards currently quarantined, ascending.
    pub fn quarantined(&self) -> Vec<usize> {
        self.state.health().quarantined()
    }

    /// The health and acceptance checks every request passes first.
    fn accept(&self, shard: usize) -> Result<(), ServiceError> {
        if !self.state.health().is_up(shard) {
            self.state.note_reject();
            return Err(ServiceError::ShardDown(shard));
        }
        if !self.demand.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        Ok(())
    }

    /// The admission prologue both demand ops share: [`Self::accept`],
    /// then the op's one trace ID. On `Err` no trace was allocated.
    fn admit(&self, shard: usize) -> Result<u64, ServiceError> {
        self.accept(shard)?;
        Ok(self.registry.next_trace_id())
    }

    /// Serves `line` lock-free off the seqlock view when it is verifiably
    /// clean. `None` means the caller must take the locked path.
    ///
    /// A hit is timed and [`account`]ed under `trace` like any other
    /// served read when `trace` is a multiple of [`LOCKFREE_TIME_EVERY`]
    /// or the thread has no timed lock-free read yet. Any other hit skips
    /// the clock: it counts one read and records its thread's last timed
    /// latency into the same histograms, with no exemplar or trace record.
    fn fast_read(&self, line: u64, shard: usize, trace: u64) -> Option<LineData> {
        let carried = LOCKFREE_NS.with(Cell::get);
        let timed = (carried == 0 || trace.is_multiple_of(LOCKFREE_TIME_EVERY)).then(Instant::now);
        let (hit, retries) = self.state.try_read_clean(line, shard);
        let data = hit?;
        if let Some(service_start) = timed {
            let service_ns = (service_start.elapsed().as_nanos() as u64).max(1);
            LOCKFREE_NS.with(|ns| ns.set(service_ns));
            account(
                &self.registry,
                TraceRecord {
                    trace,
                    shard: shard as u32,
                    write: false,
                    path: TracePath::Lockfree,
                    outcome: TraceOutcome::Ok,
                    queue_wait_ns: 0,
                    service_ns,
                    h2_ns: 0,
                },
            );
        } else {
            self.registry.reads.inc();
            self.registry.note_carried(false, carried);
        }
        self.registry.clean_read_lockfree_hits.inc();
        if retries != 0 {
            self.registry.seqlock_retries.add(u64::from(retries));
        }
        Some(data)
    }

    /// Takes `shard`'s mutex for a demand session. A free mutex is taken
    /// without blocking and `None` comes back as the wait. A held one is
    /// waited for with this thread counted in the shard's depth gauge, and
    /// the wait's start comes back with the session.
    fn lock(&self, shard: usize) -> (Result<ShardSession<'_>, ServiceError>, Option<Instant>) {
        if let Some(session) = self.state.try_session(shard) {
            return (session, None);
        }
        // The wait starts before the gauge counts it, so whoever sees this
        // thread counted knows its wait began no later.
        let since = Instant::now();
        let depth = self.registry.depth(shard);
        depth.inc();
        let session = self.state.session(shard);
        self.registry.queue_depth_hist.record(depth.dec());
        (session, Some(since))
    }

    /// Serves one op under `shard`'s mutex on this thread and accounts
    /// for it: the one completion routine behind every lock-free miss and
    /// every write. The cache operation runs under the demand path's only
    /// `catch_unwind`, with the session outside it, so an organic panic
    /// releases the mutex unpoisoned; it quarantines the shard, counts a
    /// lost write as failed, and answers [`ServiceError::ShardDown`].
    ///
    /// A write that took the mutex without waiting is timed only when
    /// `trace` is a multiple of [`LOCKFREE_TIME_EVERY`] or the thread has
    /// no timed inline write yet. Any other such write skips the clock: it
    /// is counted, and records its thread's last timed latency into the
    /// same histograms, with no exemplar or trace record. Reads (a miss,
    /// maybe a DUE) and ops that waited for the mutex are always timed.
    fn serve(
        &self,
        line: u64,
        shard: usize,
        trace: u64,
        write: Option<&LineData>,
    ) -> Result<LineData, ServiceError> {
        let (state, reg) = (&*self.state, &*self.registry);
        let carried = if write.is_some() {
            INLINE_WRITE_NS.with(Cell::get)
        } else {
            0
        };
        let timed = (carried == 0 || trace.is_multiple_of(LOCKFREE_TIME_EVERY)).then(Instant::now);
        let (locked, waited) = self.lock(shard);
        let (timed, queue_wait_ns) = match waited {
            Some(since) => {
                let acquired = Instant::now();
                (
                    Some(acquired),
                    acquired.duration_since(since).as_nanos() as u64,
                )
            }
            None => (timed, 0),
        };
        let mut h2_ns = 0u64;
        let mut session = None;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let live = session.insert(locked?);
            match write {
                Some(data) => {
                    live.write(line, data);
                    Ok(*data)
                }
                // A local ladder failure drops the session *before*
                // escalating: the cross-shard coordinator takes every
                // shard mutex in ascending order.
                None => match live.read(line) {
                    Err(ServiceError::Uncorrectable(_)) => {
                        reg.escalated_reads.inc();
                        session = None;
                        let h2_start = Instant::now();
                        let fetched = state.escalate_fetch(line);
                        // At least 1 ns: `note_request` records the phase
                        // sample only when it is non-zero.
                        h2_ns = h2_start.elapsed().as_nanos().max(1) as u64;
                        fetched
                    }
                    other => other,
                },
            }
        }));
        // Release the shard mutex before the accounting, so the scrub
        // daemon's chunked passes never wait behind telemetry.
        drop(session);
        let Ok(result) = outcome else {
            fail_shard(state, &self.demand, shard);
            if write.is_some() {
                reg.failed_writes.inc();
            }
            return Err(ServiceError::ShardDown(shard));
        };
        let outcome = trace_outcome(&result);
        let Some(service_start) = timed else {
            count(reg, true, outcome);
            reg.note_carried(true, carried);
            return result;
        };
        let service_ns = (service_start.elapsed().as_nanos() as u64).max(1);
        if write.is_some() && waited.is_none() {
            INLINE_WRITE_NS.with(|ns| ns.set(service_ns));
        }
        account(
            reg,
            TraceRecord {
                trace,
                shard: shard as u32,
                write: write.is_some(),
                path: if waited.is_some() {
                    TracePath::Queued
                } else {
                    TracePath::Inline
                },
                outcome,
                queue_wait_ns,
                service_ns,
                h2_ns,
            },
        );
        result
    }

    /// Writes `data` to `line` on this thread, under the owning shard's
    /// mutex, and returns once the write is applied: every later read of
    /// the line, from any thread, sees it. A write the shard could not
    /// apply (it panicked under the write, or was quarantined while the
    /// write waited for its mutex) still returns `Ok` and is counted in
    /// [`ServiceReport::failed_writes`]; later reads of the line get
    /// [`ServiceError::ShardDown`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShardDown`] when the owning shard is quarantined at
    /// admission, [`ServiceError::ShuttingDown`] when the service no
    /// longer accepts requests.
    pub fn write(&self, line: u64, data: &LineData) -> Result<(), ServiceError> {
        self.write_traced(line, data).1
    }

    /// [`ServiceHandle::write`], additionally reporting the trace ID the
    /// request was accepted under (`None` when it was rejected before a
    /// trace was allocated) — this is what lets a wire front end link a
    /// network request ID to the `/traces.json` causal plane.
    ///
    /// # Errors
    ///
    /// Same as [`ServiceHandle::write`].
    pub fn write_traced(
        &self,
        line: u64,
        data: &LineData,
    ) -> (Option<u64>, Result<(), ServiceError>) {
        let shard = self.plan.shard_of_line(line);
        let trace = match self.admit(shard) {
            Ok(trace) => trace,
            Err(e) => return (None, Err(e)),
        };
        // A failed apply is already counted in `failed_writes`.
        let _ = self.serve(line, shard, trace, Some(data));
        (Some(trace), Ok(()))
    }

    /// Blocking read: lock-free off the seqlock view when the line is
    /// verifiably clean, otherwise on this thread under the owning
    /// shard's mutex (through the repair ladder, escalating across shards
    /// when the shard cannot repair the line alone).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Uncorrectable`] when even cross-shard recovery
    /// failed (DUE), [`ServiceError::ShardDown`] when the owning shard is
    /// quarantined (including one that dies while the read waits for its
    /// mutex), and [`ServiceError::ShuttingDown`] when the service is gone.
    pub fn read(&self, line: u64) -> Result<LineData, ServiceError> {
        self.read_traced(line).1
    }

    /// [`ServiceHandle::read`], additionally reporting the trace ID the
    /// request was served under (`None` when it was rejected before a
    /// trace was allocated).
    ///
    /// # Errors
    ///
    /// Same as [`ServiceHandle::read`].
    pub fn read_traced(&self, line: u64) -> (Option<u64>, Result<LineData, ServiceError>) {
        let shard = self.plan.shard_of_line(line);
        let trace = match self.admit(shard) {
            Ok(trace) => trace,
            Err(e) => return (None, Err(e)),
        };
        let result = match self.fast_read(line, shard, trace) {
            Some(data) => Ok(data),
            None => self.serve(line, shard, trace, None),
        };
        (Some(trace), result)
    }

    /// Chaos hook: this thread takes `shard`'s mutex (waiting its turn
    /// like any demand op) and panics on purpose under it — with
    /// `hold_lock`, still holding it, poisoning it exactly like an organic
    /// mid-repair panic. The panic is caught here, never unwinding into
    /// the caller, and the shard is quarantined by the time this returns.
    ///
    /// # Errors
    ///
    /// The same acceptance errors as any other request.
    pub fn inject_worker_panic(&self, shard: usize, hold_lock: bool) -> Result<(), ServiceError> {
        self.accept(shard)?;
        let session = self.lock(shard).0?;
        let _ = catch_unwind(AssertUnwindSafe(|| session.chaos_panic(hold_lock)));
        fail_shard(&self.state, &self.demand, shard);
        Ok(())
    }

    /// Threads blocked on `shard`'s mutex right now, lock-free (the wire
    /// server's RETRY-shed probe: [`Self::queue_bound`] waiters mean the
    /// shard is saturated).
    #[inline]
    pub fn shard_depth(&self, shard: usize) -> usize {
        self.registry.depth(shard).get() as usize
    }

    /// The waiter count at which a shard counts as saturated
    /// ([`ServiceConfig`]'s `queue_depth`).
    pub fn queue_bound(&self) -> usize {
        self.demand.queue_depth
    }

    /// Shard count the service was started with.
    pub fn n_shards(&self) -> usize {
        self.state.n_shards()
    }

    /// A fresh [`TelemetrySnapshot`] rendered as JSON — the body of the
    /// wire STATS opcode: the exporter's `/snapshot.json` shape, audit
    /// section included, always freshly captured.
    pub fn stats_json(&self) -> String {
        TelemetrySnapshot::capture(0, &self.state, &self.registry, &self.plane).to_json()
    }

    /// The live metrics registry this handle feeds.
    pub fn registry(&self) -> &Arc<TelemetryRegistry> {
        &self.registry
    }
}

/// The running concurrent sharded cache service.
///
/// # Examples
///
/// ```
/// use sudoku_svc::{Service, ServiceConfig};
/// use sudoku_codes::LineData;
///
/// let service = Service::start(ServiceConfig::small(256, 4, 0.0, 42))?;
/// let handle = service.handle();
/// let mut data = LineData::zero();
/// data.set_bit(9, true);
/// handle.write(17, &data)?;
/// assert_eq!(handle.read(17)?, data);
/// let report = service.shutdown();
/// assert_eq!(report.writes, 1);
/// assert!(report.fully_healthy());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Service {
    state: Arc<ShardedCache>,
    demand: Arc<Demand>,
    registry: Arc<TelemetryRegistry>,
    daemon: Option<JoinHandle<bool>>,
    stop: Arc<AtomicBool>,
    daemon_panic: Arc<AtomicBool>,
    recorder: Option<Arc<FlightRecorder>>,
    sampler: Option<JoinHandle<()>>,
    sampler_stop: Arc<AtomicBool>,
    exporter: Option<Exporter>,
    plane: Arc<AuditPlane>,
    watchdog: JoinHandle<()>,
    watchdog_stop: Arc<AtomicBool>,
    daemon_stall_us: Arc<AtomicU64>,
}

impl Service {
    /// Starts the service: the scrub daemon (when configured), the
    /// watchdog, and the optional telemetry sampler and exporter. Demand
    /// ops are served by the client threads that issue them.
    ///
    /// # Errors
    ///
    /// [`StartError::Config`] for cache/shard validation failures,
    /// [`StartError::Telemetry`] when the scrape endpoint cannot bind or
    /// the flight-recorder JSONL file cannot be created.
    pub fn start(config: ServiceConfig) -> Result<Self, StartError> {
        let state = Arc::new(ShardedCache::with_faults(
            config.cache,
            config.n_shards,
            config.stuck,
            config.degraded,
        )?);
        let registry = Arc::new(TelemetryRegistry::new(config.n_shards));
        let demand = Arc::new(Demand {
            accepting: AtomicBool::new(true),
            panicked: Mutex::new(BTreeSet::new()),
            queue_depth: config.queue_depth.max(1),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let daemon_panic = Arc::new(AtomicBool::new(false));
        let daemon_stall_us = Arc::new(AtomicU64::new(0));
        // The audit plane exists regardless of telemetry config: deadline
        // accounting and alerting are part of the reliability story, not
        // an optional extra.
        let plane = Arc::new(AuditPlane::new(state.plan(), config.audit.clone())?);
        let daemon = config.scrub_every.map(|tick| {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let panic_flag = Arc::clone(&daemon_panic);
            let registry = Arc::clone(&registry);
            let plane = Arc::clone(&plane);
            let stall = Arc::clone(&daemon_stall_us);
            let master = FaultInjector::new(config.ber, config.seed);
            let queue_bound = config.queue_depth.max(1) as u64;
            let adaptive = config.adaptive_scrub;
            std::thread::spawn(move || {
                daemon_loop(
                    &state,
                    tick,
                    &master,
                    &stop,
                    &panic_flag,
                    &registry,
                    &plane,
                    &stall,
                    queue_bound,
                    adaptive,
                )
            })
        });
        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let state = Arc::clone(&state);
            let plane = Arc::clone(&plane);
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&watchdog_stop);
            let scrub_every = config.scrub_every;
            let queue_bound = config.queue_depth.max(1) as u64;
            std::thread::spawn(move || {
                watchdog_loop(&state, &plane, &registry, scrub_every, queue_bound, &stop)
            })
        };
        // The optional plane: sampler + flight recorder + scrape endpoint.
        let sampler_stop = Arc::new(AtomicBool::new(false));
        let (recorder, sampler, exporter) = match &config.telemetry {
            None => (None, None, None),
            Some(tcfg) => {
                let recorder = Arc::new(FlightRecorder::new(tcfg.flight_recorder_cap));
                let jsonl = match &tcfg.jsonl_path {
                    None => None,
                    Some(path) => Some(std::io::BufWriter::new(std::fs::File::create(path)?)),
                };
                let exporter = match tcfg.port {
                    None => None,
                    Some(port) => Some(Exporter::start(
                        tcfg.bind,
                        port,
                        Arc::clone(&state),
                        Arc::clone(&registry),
                        Arc::clone(&recorder),
                        Arc::clone(&plane),
                    )?),
                };
                let sampler = {
                    let state = Arc::clone(&state);
                    let registry = Arc::clone(&registry);
                    let recorder = Arc::clone(&recorder);
                    let plane = Arc::clone(&plane);
                    let stop = Arc::clone(&sampler_stop);
                    let every = tcfg.sample_every.max(Duration::from_millis(1));
                    std::thread::spawn(move || {
                        sampler_loop(&state, &registry, &recorder, &plane, jsonl, every, &stop)
                    })
                };
                (Some(recorder), Some(sampler), exporter)
            }
        };
        Ok(Service {
            state,
            demand,
            registry,
            daemon,
            stop,
            daemon_panic,
            recorder,
            sampler,
            sampler_stop,
            exporter,
            plane,
            watchdog,
            watchdog_stop,
            daemon_stall_us,
        })
    }

    /// A new client handle (cheap to clone, safe to share across threads).
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            plan: *self.state.plan(),
            demand: Arc::clone(&self.demand),
            registry: Arc::clone(&self.registry),
            state: Arc::clone(&self.state),
            plane: Arc::clone(&self.plane),
        }
    }

    /// The sharded storage engine behind the service (for direct
    /// inspection in tests; demand traffic should go through handles).
    pub fn state(&self) -> &Arc<ShardedCache> {
        &self.state
    }

    /// The live metrics registry every client thread and the daemon
    /// publish into.
    pub fn registry(&self) -> &Arc<TelemetryRegistry> {
        &self.registry
    }

    /// The flight recorder, when [`ServiceConfig::telemetry`] enabled one.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The scrape endpoint's bound address, when one is serving (use port
    /// 0 in [`TelemetryConfig::port`] to let the OS choose).
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.exporter.as_ref().map(Exporter::addr)
    }

    /// Chaos hook: the scrub daemon panics at the start of its next tick
    /// (caught; scrubbing stops, demand traffic continues, and the report
    /// says [`ServiceReport::daemon_panicked`]).
    pub fn inject_daemon_panic(&self) {
        self.daemon_panic.store(true, Ordering::Relaxed);
    }

    /// Chaos hook: the scrub daemon sleeps through `stall` at the start
    /// of its next tick — alive but not scrubbing, the failure mode the
    /// watchdog's `daemon_stuck` / deadline-staleness alerts exist for.
    /// The stall honors shutdown (it sleeps in small slices).
    pub fn inject_daemon_stall(&self, stall: Duration) {
        self.daemon_stall_us
            .store(stall.as_micros() as u64, Ordering::Relaxed);
    }

    /// The reliability audit plane: deadline tracker, alert log, and live
    /// error-budget estimates.
    pub fn audit(&self) -> &Arc<AuditPlane> {
        &self.plane
    }

    /// Shutdown: stops the scrub daemon, closes acceptance (later
    /// requests get [`ServiceError::ShuttingDown`]), stops the telemetry
    /// plane (sampler last, so the flight recorder's final snapshot sees
    /// the quiesced system), and assembles the end-of-run report. Ops run
    /// on their clients' threads, so nothing is left queued: an op
    /// admitted before the call finishes there, under the shard mutex the
    /// report's harvest takes too.
    ///
    /// Never panics: dead shards and a dead daemon are reported in
    /// [`ServiceReport::worker_panics`] / [`ServiceReport::daemon_panicked`],
    /// with their surviving telemetry still harvested.
    pub fn shutdown(self) -> ServiceReport {
        // 1. Stop the daemon first so no new scrub work races the harvest.
        self.stop.store(true, Ordering::Relaxed);
        let mut daemon_panicked = false;
        if let Some(handle) = self.daemon {
            match handle.join() {
                Ok(panicked) => daemon_panicked = panicked,
                // The per-tick catch_unwind makes this unreachable short of
                // a panic in the loop scaffolding itself; report it anyway.
                Err(_) => daemon_panicked = true,
            }
        }
        // 2. Close acceptance.
        self.demand.accepting.store(false, Ordering::Release);
        let worker_panics: Vec<usize> = self
            .demand
            .panicked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .collect();
        // 3. Retire the telemetry plane: the sampler takes one final
        //    snapshot of the quiesced system on its way out (so the last
        //    flight-recorder entry / JSONL line is the end state), then
        //    the exporter stops serving.
        self.sampler_stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler {
            let _ = sampler.join();
        }
        // The watchdog goes down with the sampler (it only observes; the
        // final alert-log flush happens on its way out).
        self.watchdog_stop.store(true, Ordering::Relaxed);
        let _ = self.watchdog.join();
        drop(self.exporter);
        // 4. Harvest telemetry and counters from the quiesced engine —
        //    including from quarantined shards (poison-tolerant locks).
        let reg = &self.registry;
        ServiceReport {
            shards: self.state.n_shards(),
            stats: self.state.stats(),
            hists: reg.service_hists(),
            reads: reg.reads.get(),
            writes: reg.writes.get(),
            failed_writes: reg.failed_writes.get(),
            escalated_reads: reg.escalated_reads.get(),
            due_reads: reg.due_reads.get(),
            lockfree_reads: reg.clean_read_lockfree_hits.get(),
            scrub_ticks: reg.scrub_ticks.get(),
            skipped_ticks: reg.skipped_ticks.get(),
            injected_lines: reg.injected_lines.get(),
            escalations: reg.escalations.get(),
            escalated_lines: reg.escalated_lines.get(),
            unresolved_lines: reg.unresolved_lines.get(),
            worker_panics,
            daemon_panicked,
            quarantined: self.state.health().quarantined(),
            degraded: self.state.degraded_stats(),
            alerts: self.plane.alerts.total(),
            critical_alerts: self.plane.alerts.criticals(),
            scrub_deadline_misses: self.plane.tracker.total_misses(),
            scrub_interval_p99_ns: self.plane.tracker.achieved_hist_all().quantile(0.99),
            scrub_lines_swept: reg.scrub_lines_swept.get(),
            scrub_floor_clamps: reg.scrub_floor_clamps.get(),
            heatmaps: Arc::clone(self.state.heatmaps()),
            spatial: self.plane.latest_spatial(),
        }
    }
}

/// The sampler thread: one [`TelemetrySnapshot`] per interval into the
/// flight recorder (and the JSONL time series, flushed per line so a
/// crash loses at most the current interval), plus one final snapshot of
/// the quiesced system when the stop flag lands.
fn sampler_loop(
    state: &ShardedCache,
    registry: &TelemetryRegistry,
    recorder: &FlightRecorder,
    plane: &AuditPlane,
    mut jsonl: Option<std::io::BufWriter<std::fs::File>>,
    every: Duration,
    stop: &AtomicBool,
) {
    let mut seq = 0u64;
    loop {
        // Sleep in small slices so shutdown stays prompt.
        let deadline = Instant::now() + every;
        while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(every.min(Duration::from_millis(1)));
        }
        let snap = TelemetrySnapshot::capture(seq, state, registry, plane);
        seq += 1;
        if let Some(w) = jsonl.as_mut() {
            let _ = writeln!(w, "{}", snap.to_json());
            let _ = w.flush();
        }
        recorder.push(snap);
        if stop.load(Ordering::Relaxed) {
            break; // the snapshot above was the final, post-shutdown capture
        }
    }
}

/// Quarantines `shard` after a panic caught while serving it and records
/// it for the end-of-run report.
fn fail_shard(state: &ShardedCache, demand: &Demand, shard: usize) {
    state.health().quarantine(shard);
    demand
        .panicked
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(shard);
}

/// The accounting every served demand op gets, whichever path served it
/// (lock-free, or under the shard mutex with or without a wait): the op
/// counters its outcome implies, then its one [`TraceRecord`] — latency,
/// queue-wait, service and H2 phase samples, exemplar, and the sampled
/// trace ring.
fn account(reg: &TelemetryRegistry, record: TraceRecord) {
    count(reg, record.write, record.outcome);
    reg.note_request(record);
}

/// The op counters a served op's outcome implies.
fn count(reg: &TelemetryRegistry, write: bool, outcome: TraceOutcome) {
    match (write, outcome) {
        (false, outcome) => {
            reg.reads.inc();
            if outcome == TraceOutcome::Due {
                reg.due_reads.inc();
            }
        }
        (true, TraceOutcome::Ok) => reg.writes.inc(),
        (true, _) => reg.failed_writes.inc(),
    }
}

/// Maps a served op's result to its trace outcome.
fn trace_outcome(result: &Result<LineData, ServiceError>) -> TraceOutcome {
    match result {
        Ok(_) => TraceOutcome::Ok,
        Err(e) if e.is_due() => TraceOutcome::Due,
        Err(_) => TraceOutcome::Error,
    }
}

/// One scrub tick over `shard`: inject, shard-local scrub, escalate the
/// leftovers. Split out so [`daemon_loop`] can wrap it in `catch_unwind`.
#[allow(clippy::too_many_arguments)]
fn daemon_tick(
    state: &ShardedCache,
    shard: usize,
    injector: &mut FaultInjector,
    inject: bool,
    reg: &TelemetryRegistry,
    plane: &AuditPlane,
    cursor: &mut usize,
    packets_per_tick: usize,
) {
    let started = Instant::now();
    let mut injected = if inject {
        state.inject_shard(shard, injector)
    } else {
        Vec::new()
    };
    reg.injected_lines.add(injected.len() as u64);
    // The bounded incremental sweep: advance this shard's packet cursor
    // far enough per tick that every owned line is revisited within the
    // scrub deadline. Injection hints alone only cover lines the simulator
    // *knows* it faulted — the sweep is what makes the 20 ms guarantee an
    // audited property instead of an assumption. Swept lines are checked
    // off the lock-free view, so a clean line costs the demand path no
    // lock hold; dirty lines and the injected ones are scanned under it.
    let tracker = &plane.tracker;
    let plan = state.plan();
    let n_packets = tracker.n_packets(shard);
    let packet_lines = tracker.packet_lines();
    let owned = plan.owned_line_count(shard);
    let count = packets_per_tick.min(n_packets);
    let first = *cursor % n_packets;
    *cursor = (first + count) % n_packets;
    let pos = |packet: usize| (packet as u64 * packet_lines).min(owned);
    // The tick's packets are one run of owned positions, or two when the
    // cursor wraps.
    let (head, tail) = if first + count <= n_packets {
        (pos(first)..pos(first + count), 0..0)
    } else {
        (pos(first)..owned, 0..pos(first + count - n_packets))
    };
    reg.scrub_lines_swept
        .add(head.end - head.start + tail.end - tail.start);
    injected.sort_unstable();
    let swept = [head, tail]
        .into_iter()
        .flat_map(|run| skip_sorted(plan.owned_lines_in(shard, run), &injected));
    let (_report, leftover) = state.scrub_shard_sweep(shard, &injected, swept);
    for packet in (first..first + count).map(|p| p % n_packets) {
        let start = packet as u64 * packet_lines;
        if start < owned {
            let interval_ns = tracker.note_packet(shard, packet);
            state
                .heatmaps()
                .note_staleness(plan.owned_line_at(shard, start), interval_ns);
        }
    }
    reg.scrub_tick_ns
        .record(started.elapsed().as_nanos() as u64);
    if !leftover.is_empty() {
        let escalation_start = Instant::now();
        let report = state.escalate(&leftover);
        reg.h2_gather_ns
            .record(escalation_start.elapsed().as_nanos() as u64);
        reg.escalations.inc();
        reg.escalated_lines.add(leftover.len() as u64);
        reg.unresolved_lines.add(report.unresolved.len() as u64);
    }
    reg.scrub_ticks.inc();
}

/// The lines of the ascending `run` that are not in the ascending
/// `sorted`: one merge walk, no search per line.
fn skip_sorted<'a>(
    run: impl Iterator<Item = u64> + 'a,
    sorted: &'a [u64],
) -> impl Iterator<Item = u64> + 'a {
    let mut rest = sorted;
    run.filter(move |&line| {
        while let [next, tail @ ..] = rest {
            if *next >= line {
                break;
            }
            rest = tail;
        }
        rest.first() != Some(&line)
    })
}

/// Sleeps until `deadline` in slices of at most 1 ms, each cut to the
/// time left. Returns `false` as soon as `stop` is raised.
fn sleep_until(deadline: Instant, stop: &AtomicBool) -> bool {
    loop {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(Duration::from_millis(1)));
    }
}

#[allow(clippy::too_many_arguments)] // private; mirrors the service wiring
fn daemon_loop(
    state: &ShardedCache,
    tick: Duration,
    master: &FaultInjector,
    stop: &AtomicBool,
    panic_flag: &AtomicBool,
    reg: &TelemetryRegistry,
    plane: &AuditPlane,
    stall_us: &AtomicU64,
    queue_bound: u64,
    adaptive: bool,
) -> bool {
    let mut panicked = false;
    // One decorrelated injector per shard: the fault streams are fixed by
    // (seed, shard) alone, independent of tick interleaving.
    let mut injectors: Vec<FaultInjector> = (0..state.n_shards())
        .map(|s| master.fork(s as u64))
        .collect();
    // Legacy fixed-cadence quotas, used when the adaptive controller is
    // off: a shard is ticked every `tick × n_shards`, so covering all its
    // packets within the deadline needs `n_packets × period / deadline`
    // packets per tick — swept at 1.25× that rate for headroom. The
    // adaptive controller computes the same floor from the *achieved*
    // period instead, so it stays honest when ticks run long.
    let period = tick.saturating_mul(state.n_shards() as u32);
    let period_ns = (period.as_nanos() as u64).max(1);
    let deadline_ns = plane.tracker.deadline_ns().max(1);
    let mut cursors = vec![0usize; state.n_shards()];
    let static_quotas: Vec<usize> = (0..state.n_shards())
        .map(|s| {
            let n_packets = plane.tracker.n_packets(s) as u64;
            let per_tick = (n_packets * period_ns * 5).div_ceil(4 * deadline_ns).max(1);
            per_tick.min(n_packets) as usize
        })
        .collect();
    let mut controller = ScrubController::new(
        &plane.tracker,
        plane.config.tick_lag_budget,
        queue_bound as usize,
        period,
    );
    let epoch = Instant::now();
    let mut next_shard = 0usize;
    // Absolute tick schedule: each deadline is the previous one plus
    // `tick`, not "now + tick" computed after the previous tick's work.
    // The achieved cadence therefore does not drift with work time — an
    // overrun surfaces as tick lag (histogram + gauge) and is repaid by
    // the next sleep being shorter, instead of silently stretching every
    // subsequent period.
    let mut next_deadline = Instant::now() + tick;
    // Consecutive behind-schedule iterations (the sleep was a no-op).
    let mut catchup = 0usize;
    'daemon: loop {
        // Checked every iteration, not only inside the sleep: when every
        // tick overruns its period (tiny tick on a slow build), the sleep
        // loop below never executes — without this check the daemon would
        // spin through catch-up rotations forever and shutdown would hang
        // on the join.
        if stop.load(Ordering::Relaxed) {
            break 'daemon;
        }
        // Sleep in slices of at most 1 ms so shutdown stays prompt, and
        // never past the deadline: a fixed slice would overshoot it by up
        // to a whole slice.
        if !sleep_until(next_deadline, stop) {
            break 'daemon;
        }
        // Chaos hook: an injected stall — alive but not scrubbing. It
        // lands *after* the tick deadline so the whole stall shows up as
        // tick lag and growing packet staleness, exactly like a real
        // starvation would.
        let stall = stall_us.swap(0, Ordering::Relaxed);
        if stall > 0 && !sleep_until(Instant::now() + Duration::from_micros(stall), stop) {
            break 'daemon;
        }
        // How late the tick started: scheduling + the previous tick's
        // overrun. The gauge holds the latest value, the histogram the
        // whole distribution, and the peak the worst since the
        // watchdog's last scan.
        let now = Instant::now();
        let lag_ns = now.duration_since(next_deadline).as_nanos() as u64;
        reg.record_tick_lag(lag_ns);
        next_deadline += tick;
        if next_deadline < now {
            // Behind schedule (a stall, a scheduler hole, or work that
            // ran past the tick). Keep the stale deadline so the sleep
            // at the loop top is a no-op and the next shards get visited
            // back-to-back — on a starved CPU the daemon's wakeups are
            // sparse, and one-visit-per-wakeup would stretch every
            // shard's re-scrub interval to `n_shards × wakeup gap`.
            // Catch-up is bounded to one full rotation: past that the
            // debt is re-anchored away and the daemon yields a tick, so
            // it can never busy-loop the demand path off the core.
            // Coverage beyond the burst is restored by the controller's
            // floor rising with the achieved period, not by replaying
            // arbitrarily old missed ticks.
            catchup += 1;
            if catchup >= state.n_shards() {
                next_deadline = now + tick;
                catchup = 0;
            }
        } else {
            catchup = 0;
        }
        // Pick the next *live* shard, skipping quarantined ones without
        // consuming the tick: the sweep budget a dead shard would have
        // used goes to the survivors (their achieved visit period — and
        // therefore the adaptive floor — stays honest automatically).
        let mut shard = next_shard;
        let mut hops = 0;
        while hops < state.n_shards() && !state.health().is_up(shard) {
            // A quarantined shard's state is frozen: no injection (physics
            // on a dead shard is unobservable anyway) and no scrub.
            reg.skipped_ticks.inc();
            shard = (shard + 1) % state.n_shards();
            hops += 1;
        }
        next_shard = (shard + 1) % state.n_shards();
        reg.scrub_cursor.set(next_shard as u64);
        if hops == state.n_shards() {
            // Everything is quarantined; idle this tick.
            continue;
        }
        let quota = if adaptive {
            let decision = controller.decide(
                shard,
                epoch.elapsed().as_nanos() as u64,
                reg.depth(shard).get(),
                lag_ns,
                plane.tracker.worst_staleness_ns(shard),
            );
            reg.scrub_packet_quota.set(decision.quota as u64);
            reg.scrub_floor_quota.set(decision.floor as u64);
            reg.scrub_quota_hist.record(decision.quota as u64);
            if decision.floor_clamped {
                reg.scrub_floor_clamps.inc();
            }
            decision.quota
        } else {
            static_quotas[shard]
        };
        let inject = master.ber() > 0.0;
        let injector = &mut injectors[shard];
        let result = catch_unwind(AssertUnwindSafe(|| {
            if panic_flag.swap(false, Ordering::Relaxed) {
                panic!("injected scrub daemon panic");
            }
            daemon_tick(
                state,
                shard,
                injector,
                inject,
                reg,
                plane,
                &mut cursors[shard],
                quota,
            );
        }));
        if result.is_err() {
            // Scrubbing stops (reported), demand traffic continues.
            panicked = true;
            reg.daemon_dead.set(1);
            break;
        }
    }
    panicked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_with(bits: &[usize]) -> LineData {
        let mut d = LineData::zero();
        for &b in bits {
            d.set_bit(b, true);
        }
        d
    }

    #[test]
    fn shutdown_drains_every_accepted_request() {
        let mut config = ServiceConfig::small(256, 4, 0.0, 1);
        config.scrub_every = None;
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        for line in 0..200u64 {
            handle
                .write(line, &data_with(&[line as usize % 512]))
                .unwrap();
        }
        let report = service.shutdown();
        assert_eq!(report.writes, 200, "drain must serve every write");
        assert_eq!(report.stats.writes, 200);
        assert_eq!(report.due_reads, 0);
        assert!(report.fully_healthy());
    }

    #[test]
    fn concurrent_clients_roundtrip_against_separate_shards() {
        let mut config = ServiceConfig::small(512, 4, 0.0, 2);
        config.scrub_every = None;
        let service = Service::start(config).unwrap();
        std::thread::scope(|s| {
            for worker in 0..4u64 {
                let handle = service.handle();
                s.spawn(move || {
                    for i in 0..64u64 {
                        let line = worker * 128 + i;
                        let data = data_with(&[(line as usize * 3) % 512]);
                        handle.write(line, &data).unwrap();
                        assert_eq!(handle.read(line).unwrap(), data);
                    }
                });
            }
        });
        // The registry is live: inspect it before shutdown.
        let reg = Arc::clone(service.registry());
        assert_eq!(reg.reads.get(), 256);
        assert_eq!(reg.traces_issued(), 512);
        let report = service.shutdown();
        assert_eq!(report.reads, 256);
        assert_eq!(report.writes, 256);
        assert_eq!(report.due_reads, 0);
        assert!(report.hists.read_latency_ns.count() == 256);
        // Phase accounting covers every request: queue wait is recorded
        // for reads and writes alike (zero for lock-free reads).
        assert_eq!(reg.queue_wait_ns.snapshot().count(), 512);
    }

    #[test]
    fn scrub_daemon_heals_injected_faults() {
        let mut config = ServiceConfig::small(1024, 4, 2e-4, 3);
        config.scrub_every = Some(Duration::from_millis(1));
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        // Demand traffic concurrent with injection + scrub.
        for line in 0..256u64 {
            handle
                .write(line * 4, &data_with(&[line as usize % 512]))
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(40));
        for line in 0..256u64 {
            assert_eq!(
                handle.read(line * 4).unwrap(),
                data_with(&[line as usize % 512]),
                "line {line} corrupted"
            );
        }
        let report = service.shutdown();
        assert!(report.scrub_ticks >= 4, "{report:?}");
        assert!(report.injected_lines > 0, "{report:?}");
        assert_eq!(report.due_reads, 0);
        assert!(report.fully_healthy());
    }

    #[test]
    fn depth_gauge_returns_to_zero_after_rejected_sends() {
        // Regression: a failed send used to leave the optimistic depth
        // increment behind, drifting the gauge upward forever.
        let mut config = ServiceConfig::small(256, 4, 0.0, 7);
        config.scrub_every = None;
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        let victim = handle.shard_of(0);
        handle.inject_worker_panic(victim, false).unwrap();
        // Wait for the quarantine to land.
        while !handle.quarantined().contains(&victim) {
            std::thread::sleep(Duration::from_micros(50));
        }
        for line in 0..64u64 {
            let s = handle.shard_of(line);
            let r = handle.write(line, &data_with(&[1]));
            if s == victim {
                assert_eq!(r, Err(ServiceError::ShardDown(victim)));
            } else {
                r.unwrap();
            }
        }
        let report = service.shutdown();
        assert_eq!(report.worker_panics, vec![victim]);
        // Every accepted request was served, every rejected one undone:
        // the gauge histogram never saw a depth above the queue bound.
        assert!(report.hists.queue_depth.max() <= 64);
        assert_eq!(report.writes, 48);
        assert_eq!(report.quarantined, vec![victim]);
    }

    #[test]
    fn uncontended_panic_injection_is_synchronous() {
        // With no other client holding the claim, the injecting thread
        // drains the chaos op itself: the quarantine has landed by the
        // time the call returns, without any polling.
        for hold_lock in [false, true] {
            let mut config = ServiceConfig::small(256, 4, 0.0, 13);
            config.scrub_every = None;
            let service = Service::start(config).unwrap();
            let handle = service.handle();
            let victim = handle.shard_of(5);
            handle.inject_worker_panic(victim, hold_lock).unwrap();
            assert_eq!(handle.quarantined(), vec![victim], "hold_lock {hold_lock}");
            assert_eq!(
                handle.write(5, &data_with(&[5])),
                Err(ServiceError::ShardDown(victim))
            );
            let report = service.shutdown();
            assert_eq!(report.worker_panics, vec![victim], "hold_lock {hold_lock}");
            assert_eq!(report.quarantined, vec![victim]);
        }
    }

    #[test]
    fn daemon_panic_is_survivable() {
        let mut config = ServiceConfig::small(256, 4, 0.0, 9);
        config.scrub_every = Some(Duration::from_millis(1));
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        service.inject_daemon_panic();
        // The registry flags the dead daemon live (panic unwinding takes a
        // few ms, so poll rather than sleep a fixed interval).
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.registry().daemon_dead.get() == 0 {
            assert!(Instant::now() < deadline, "daemon_dead never flagged");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Demand traffic is unaffected by the daemon's death.
        handle.write(3, &data_with(&[3])).unwrap();
        assert_eq!(handle.read(3).unwrap(), data_with(&[3]));
        let report = service.shutdown();
        assert!(report.daemon_panicked);
        assert!(report.worker_panics.is_empty());
        assert_eq!(report.writes, 1);
    }

    #[test]
    fn quarantined_shards_yield_their_sweep_budget() {
        // With 3 of 4 shards quarantined, the daemon must not burn 3 of
        // every 4 ticks on skip bookkeeping: the hop-skip hands those
        // ticks to the surviving shard, whose visit cadence (and therefore
        // deadline math) stays honest.
        let mut config = ServiceConfig::small(1024, 4, 0.0, 23);
        config.scrub_every = Some(Duration::from_millis(1));
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        for shard in 1..4 {
            handle.inject_worker_panic(shard, false).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.quarantined().len() < 3 {
            assert!(Instant::now() < deadline, "quarantines never landed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let ticks_at_quarantine = service.registry().scrub_ticks.get();
        std::thread::sleep(Duration::from_millis(120));
        let scrubbed = service.registry().scrub_ticks.get() - ticks_at_quarantine;
        // Ideal is ~120 scrubbing ticks (every tick lands on the live
        // shard); the old consume-the-tick skip managed ~30. The bound
        // sits far from both, robust to scheduler noise.
        assert!(
            scrubbed >= 60,
            "live shard starved: only {scrubbed} scrub ticks in 120 ms \
             with 3 shards quarantined"
        );
        // The survivor's packets are being revisited well inside the
        // deadline (checked pre-shutdown: staleness keeps growing once the
        // daemon stops).
        let plane = Arc::clone(service.audit());
        assert!(
            plane.tracker.worst_staleness_ns(0) <= plane.tracker.deadline_ns(),
            "live shard staleness blew the deadline after redistribution"
        );
        let report = service.shutdown();
        assert!(report.skipped_ticks > 0, "pass-overs must still be counted");
        assert_eq!(report.quarantined, vec![1, 2, 3]);
    }

    #[test]
    fn clean_reads_are_served_lock_free() {
        let mut config = ServiceConfig::small(256, 4, 0.0, 11);
        config.scrub_every = None;
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        for line in 0..64u64 {
            handle.write(line, &data_with(&[line as usize])).unwrap();
        }
        // A write has published its line by the time it returns, so every
        // read below MUST be served straight from the seqlock view.
        for line in 0..64u64 {
            assert_eq!(handle.read(line).unwrap(), data_with(&[line as usize]));
        }
        for line in 0..64u64 {
            assert_eq!(handle.read(line).unwrap(), data_with(&[line as usize]));
        }
        let report = service.shutdown();
        assert_eq!(report.reads, 128);
        assert!(
            report.lockfree_reads == 128,
            "clean reads must bypass the queue: {} lock-free of {}",
            report.lockfree_reads,
            report.reads
        );
        // The view's accounting matches the reference: each lock-free read
        // is one cache read + one CRC check in aggregate stats.
        assert_eq!(report.stats.reads, 128);
    }

    #[test]
    fn skip_sorted_drops_exactly_the_listed_lines() {
        let kept = |run: std::ops::Range<u64>, sorted: &[u64]| {
            skip_sorted(run, sorted).collect::<Vec<_>>()
        };
        assert_eq!(kept(3..9, &[1, 4, 5, 8, 20]), vec![3, 6, 7]);
        assert_eq!(kept(0..4, &[]), vec![0, 1, 2, 3]);
        assert_eq!(kept(5..7, &[5, 6]), Vec::<u64>::new());
    }
}
