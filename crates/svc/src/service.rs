//! The live service front-end: a work-stealing worker pool serving
//! batched **work packets** off per-shard bounded queues, a lock-free
//! clean-read fast path, preallocated completion slots, a background scrub
//! daemon with per-shard forked fault injectors, a live telemetry plane,
//! and graceful drain/shutdown.
//!
//! # The demand path
//!
//! A read first tries the seqlock **line view** ([`ShardedCache::try_read_clean`]):
//! load the line's published `(data, crc)` under the seqlock, verify the
//! CRC-31 inline, and serve without touching any mutex — the overwhelming
//! common case in the paper's BER regime. Only a miss (faulty line, torn
//! snapshot, writer in flight, spared line, quarantined shard) falls
//! through to the claimed path.
//!
//! Everything else funnels through one per-shard **claim** (an atomic
//! flag admitting a single drainer at a time, so **repairs stay
//! serialized per shard**). A client whose shard claim is free serves its
//! own op *inline*: drain whatever is FIFO-ahead in the shard queue, run
//! the op through a [`ShardSession`], release — no op allocation, no
//! context switch. A held claim is yielded to and retried a few times
//! (its holder is mid-op, sub-µs) before the client pays the queue path:
//! the op lands on the owning shard's bounded [`VecDeque`] (producers
//! block when a shard's queue is at its bound, so a hot shard throttles
//! its own clients), writes fire-and-forget behind a per-line pending
//! gate that keeps lock-free readers honest, and reads ride preallocated
//! per-thread [`CompletionSlot`]s: whoever drains the queue — the
//! enqueuer itself via flat combining, the claim holder's release
//! re-check, or a pool worker as the backstop — pops up to [`BATCH`] ops
//! at once, serves the packet through one session, writes each result
//! and flips one atomic flag; the client spins briefly then parks. The
//! slot is the only completion mechanism.
//!
//! Both demand ops share one admission prologue (health and acceptance
//! checks, one trace ID, the claim-retry loop), and every served op is
//! completed by one routine: inline and queued ops run the cache
//! operation through `serve_and_account` under the demand path's only
//! `catch_unwind`, and it and the lock-free hit share the same counter
//! and [`TraceRecord`] accounting.
//!
//! The scrub daemon ticks shards round-robin on the configured interval:
//! inject (per-shard decorrelated [`FaultInjector::fork`] streams, so
//! concurrent injection is reproducible regardless of thread
//! interleaving), then a shard-local Hash-1 scrub, then cross-shard
//! escalation of whatever the shard could not resolve alone. Its bulk
//! passes take the shard mutex in small chunks, so a tick never convoys
//! the demand path for more than a few µs at a time.
//!
//! # Telemetry
//!
//! Every worker and the daemon publish into a shared lock-free
//! [`TelemetryRegistry`] as they go — counters (including the lock-free
//! hit/retry rate), queue-depth gauges, and per-phase latency histograms
//! (queue wait → shard service → cross-shard H2 gather+repair), threaded
//! by a per-request trace ID. The end-of-run [`ServiceReport`] is a final
//! read of that registry; with [`ServiceConfig::telemetry`] set, a sampler
//! thread additionally records periodic [`TelemetrySnapshot`]s into a
//! bounded flight recorder (and optional JSONL time series), and a
//! std-only TCP exporter serves `GET /metrics`, `/healthz`, and
//! `/snapshot.json` while the service runs.
//!
//! # Failure semantics
//!
//! Nothing on the client path panics, and no completion handle is ever
//! lost: handles stay *outside* the per-op `catch_unwind`, so a panic
//! mid-op quarantines the shard and then error-completes the op and
//! everything queued behind it. Every handle operation returns
//! `Result<_, `[`ServiceError`]`>`:
//!
//! * A worker panic (organic or injected via
//!   [`ServiceHandle::inject_worker_panic`]) is caught at the op boundary;
//!   the shard is **quarantined**, its queued ops complete with
//!   [`ServiceError::ShardDown`], and subsequent requests to it fail fast
//!   while the other N−1 shards keep serving. The registry (shared, not
//!   worker-local) keeps everything the packet recorded.
//! * A scrub daemon panic is caught per tick; scrubbing stops but demand
//!   traffic continues, and [`ServiceReport::daemon_panicked`] says so.
//! * Shutdown never panics and never strands a client: workers exit only
//!   after verifying every queue is empty with acceptance closed, so
//!   every accepted op was served (live shards) or error-completed (dead
//!   shards). Panicked shards land in [`ServiceReport::worker_panics`],
//!   surviving telemetry is harvested (a poisoned shard mutex does not
//!   block counter collection), and the degraded-mode counters land in
//!   [`ServiceReport::degraded`].
//!
//! [`TelemetrySnapshot`]: crate::TelemetrySnapshot
//! [`CompletionSlot`]: crate::slot::CompletionSlot

use crate::audit::{AuditConfig, AuditPlane, ScrubController};
use crate::degraded::{DegradedConfig, DegradedStats};
use crate::error::{ServiceError, StartError};
use crate::exporter::Exporter;
use crate::sharded::{ShardSession, ShardedCache};
use crate::slot::{CompletionSlot, SlotSender};
use crate::telemetry::{
    FlightRecorder, TelemetryConfig, TelemetryRegistry, TelemetrySnapshot, TraceOutcome, TracePath,
    TraceRecord,
};
use crate::watchdog::watchdog_loop;
use std::collections::{BTreeSet, VecDeque};
use std::io::Write as _;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use sudoku_core::{CacheStats, Recorder, ShardPlan, SudokuConfig};
use sudoku_fault::{FaultInjector, StuckBitMap};
use sudoku_obs::{CorrelationStat, Heatmaps, RecoveryHistograms, ServiceHistograms};

/// Ops per work packet: one shard-mutex acquire is amortized over up to
/// this many demand operations.
const BATCH: usize = 32;

/// Yield-and-retry rounds a client spends on a held shard claim before
/// falling back to the queue. Claims are held for sub-µs inline ops, so
/// the holder usually finishes within a yield; the queue fallback keeps
/// the bound on a holder that got preempted mid-op.
const CLAIM_RETRIES: usize = 16;

/// Configuration of a running [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The cache geometry and scheme (the service applies
    /// [`SudokuConfig::with_deferred_hash2`] internally per shard).
    pub cache: SudokuConfig,
    /// Number of shards = number of pool workers.
    pub n_shards: usize,
    /// Bound of each shard's request queue (producers block when full).
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

/// One demand operation queued for a shard.
enum Op {
    Read {
        line: u64,
        trace: u64,
        enqueued: Instant,
        reply: SlotSender<Result<LineData, ServiceError>>,
    },
    Write {
        line: u64,
        trace: u64,
        data: LineData,
        enqueued: Instant,
    },
    /// Chaos injection: the serving worker panics on purpose when it pops
    /// this, optionally while holding the shard's state mutex (which
    /// poisons it, like a real mid-repair panic would).
    Panic { hold_lock: bool },
}

/// One shard's bounded op queue, claimable by one pool worker at a time.
struct ShardQueue {
    ops: Mutex<VecDeque<Op>>,
    /// Lock-free mirror of `ops.len()`, so parking workers can test
    /// "unclaimed shard with work" without touching the queue mutex.
    len: AtomicUsize,
    /// Set while a worker is serving this shard — the claim is what keeps
    /// repairs serialized per shard even with a stealing pool.
    claimed: AtomicBool,
    /// Signalled when ops are popped, releasing producers blocked on the
    /// queue bound.
    not_full: Condvar,
}

impl ShardQueue {
    fn new() -> Self {
        ShardQueue {
            ops: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            claimed: AtomicBool::new(false),
            not_full: Condvar::new(),
        }
    }
}

/// The shared demand plane: per-shard queues plus the pool's wake/idle
/// machinery and shutdown state.
struct Demand {
    queues: Vec<ShardQueue>,
    /// Ops enqueued but not yet popped, across all shards (incremented
    /// *after* the push, so a nonzero queue implies `pending` catches up).
    pending: AtomicU64,
    /// Cleared by shutdown; checked by producers under the queue lock, so
    /// the workers' verify-empty exit cannot race a late push.
    accepting: AtomicBool,
    idle: Mutex<()>,
    wake: Condvar,
    /// Workers currently inside the park protocol (between announcing the
    /// park under the `idle` lock and leaving the wait). Producers skip
    /// the notify entirely while this is zero — under load, enqueue costs
    /// two atomics instead of a mutex + condvar signal per op.
    parked: AtomicUsize,
    /// Shards whose serving worker caught a panic (quarantined).
    panicked: Mutex<BTreeSet<usize>>,
    queue_depth: usize,
}

impl Demand {
    /// Enqueues `op` on `shard`'s queue, blocking (with periodic re-checks
    /// of shutdown and shard health) while the queue is at its bound.
    /// The depth gauge is incremented under the queue lock, so it can
    /// never drift from the queue's true occupancy. `Panic` ops bypass the
    /// bound and the gauge — chaos must land even on a saturated shard.
    fn enqueue(
        &self,
        shard: usize,
        op: Op,
        state: &ShardedCache,
        reg: &TelemetryRegistry,
    ) -> Result<(), ServiceError> {
        let q = &self.queues[shard];
        let counted = !matches!(op, Op::Panic { .. });
        let mut ops = q.ops.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !self.accepting.load(Ordering::Acquire) {
                return Err(ServiceError::ShuttingDown);
            }
            if !state.health().is_up(shard) {
                state.note_reject();
                return Err(ServiceError::ShardDown(shard));
            }
            if !counted || ops.len() < self.queue_depth {
                break;
            }
            // Saturated: make sure a pool worker is coming to drain (the
            // combining clients ahead of us may all be blocked right here
            // too), then wait for the pop.
            self.notify_parked();
            let (guard, _) = q
                .not_full
                .wait_timeout(ops, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
            ops = guard;
        }
        ops.push_back(op);
        q.len.fetch_add(1, Ordering::SeqCst);
        if counted {
            reg.depth(shard).inc();
        }
        drop(ops);
        self.pending.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Wakes a parked pool worker if there is one. Callers that will NOT
    /// combine (drain the queue themselves) after an enqueue must call
    /// this, or their op waits out a worker park timeout. The SeqCst pair
    /// with the park protocol closes the race: a worker announces the
    /// park (`parked += 1`) *before* re-checking the queues, so either
    /// this producer observes `parked > 0` and notifies (lock-then-notify,
    /// so the signal cannot fall between the worker's re-check and its
    /// wait), or the worker's re-check observes the producer's `len`
    /// increment and never parks. Combining producers skip even these two
    /// atomics' futex half: enqueue itself never signals.
    fn notify_parked(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(self.idle.lock().unwrap_or_else(|e| e.into_inner()));
            self.wake.notify_one();
        }
    }

    /// True when some shard has queued ops and no worker owns its claim —
    /// i.e. a sweeping worker would find work right now.
    fn claimable(&self) -> bool {
        self.queues
            .iter()
            .any(|q| q.len.load(Ordering::SeqCst) > 0 && !q.claimed.load(Ordering::SeqCst))
    }

    /// Pops up to [`BATCH`] ops from `shard`'s queue. `Panic` ops ride in
    /// a packet of their own: the panic protocol (drop the session, maybe
    /// poison the mutex) must not share a session with real ops.
    fn pop_batch(&self, shard: usize) -> Vec<Op> {
        let q = &self.queues[shard];
        if q.len.load(Ordering::SeqCst) == 0 {
            return Vec::new(); // skip the mutex on the empty-queue drain
        }
        let mut ops = q.ops.lock().unwrap_or_else(|e| e.into_inner());
        let mut batch = Vec::with_capacity(BATCH.min(ops.len()));
        while batch.len() < BATCH {
            match ops.front() {
                None => break,
                Some(Op::Panic { .. }) => {
                    if batch.is_empty() {
                        batch.push(ops.pop_front().expect("front exists"));
                    }
                    break;
                }
                Some(_) => batch.push(ops.pop_front().expect("front exists")),
            }
        }
        drop(ops);
        if !batch.is_empty() {
            q.len.fetch_sub(batch.len(), Ordering::SeqCst);
            self.pending
                .fetch_sub(batch.len() as u64, Ordering::Release);
            q.not_full.notify_all();
        }
        batch
    }
}

std::thread_local! {
    /// Per-thread preallocated completion slot: a client blocks on its
    /// own slot until the worker answers, so one reusable slot per thread
    /// replaces a per-request channel allocation. (Writes complete at
    /// acceptance and need no slot at all.)
    static READ_SLOT: Arc<CompletionSlot<Result<LineData, ServiceError>>> = CompletionSlot::new();
}

/// End-of-run summary assembled by [`Service::shutdown`].
#[derive(Debug)]
pub struct ServiceReport {
    /// Shard count the service ran with.
    pub shards: usize,
    /// Aggregate cache counters (all shards + coordinator).
    pub stats: CacheStats,
    /// Per-shard cache counters.
    pub per_shard: Vec<CacheStats>,
    /// Service-level latency/queue-depth histograms (workers + daemon).
    pub hists: ServiceHistograms,
    /// Recovery-ladder histograms harvested from every shard recorder.
    pub recovery_hists: RecoveryHistograms,
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
    /// Shards whose serving worker panicked (caught; shard quarantined).
    pub worker_panics: Vec<usize>,
    /// Whether the scrub daemon died to a caught panic.
    pub daemon_panicked: bool,
    /// Shards quarantined at shutdown (worker panics + poisoned locks).
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
/// lock-free off the seqlock line view, and routes everything else to the
/// owning shard's queue, blocking when that queue is full (backpressure).
#[derive(Clone)]
pub struct ServiceHandle {
    plan: ShardPlan,
    demand: Arc<Demand>,
    registry: Arc<TelemetryRegistry>,
    state: Arc<ShardedCache>,
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

    /// Why an accepted op came back without an answer: the shard died
    /// mid-flight, or the whole service is tearing down.
    fn disconnect_error(&self, s: usize) -> ServiceError {
        if self.state.health().is_up(s) {
            ServiceError::ShuttingDown
        } else {
            self.state.note_reject();
            ServiceError::ShardDown(s)
        }
    }

    /// The admission prologue every demand op shares: the health and
    /// acceptance checks, the op's one trace ID, then the claim-retry
    /// loop. `attempt` tries to serve the op without queueing (lock-free,
    /// or inline on a free claim); it runs up to `CLAIM_RETRIES + 1`
    /// times, yielding to the claim holder in between — the holder is
    /// mid-op and usually sub-µs from release, while the queue costs a
    /// slot round trip (reads) or a pending window that knocks every
    /// reader of the line off the lock-free view (writes).
    /// `Ok((trace, None))` means every attempt lost and the caller
    /// enqueues under `trace`; on `Err` no trace was allocated.
    fn admit<T>(
        &self,
        shard: usize,
        mut attempt: impl FnMut(u64) -> Option<T>,
    ) -> Result<(u64, Option<T>), ServiceError> {
        if !self.state.health().is_up(shard) {
            self.state.note_reject();
            return Err(ServiceError::ShardDown(shard));
        }
        if !self.demand.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let trace = self.registry.next_trace_id();
        for round in 0..=CLAIM_RETRIES {
            if let Some(served) = attempt(trace) {
                return Ok((trace, Some(served)));
            }
            if round < CLAIM_RETRIES {
                thread::yield_now();
            }
        }
        Ok((trace, None))
    }

    /// Serves `line` lock-free off the seqlock view when it is verifiably
    /// clean, accounted under `trace` like any other served read. `None`
    /// means the caller must take the claimed path.
    fn fast_read(&self, line: u64, shard: usize, trace: u64) -> Option<LineData> {
        let service_start = Instant::now();
        let (hit, retries) = self.state.try_read_clean(line);
        let data = hit?;
        account(
            &self.registry,
            TraceRecord {
                trace,
                shard: shard as u32,
                write: false,
                path: TracePath::Lockfree,
                outcome: TraceOutcome::Ok,
                queue_wait_ns: 0,
                service_ns: service_start.elapsed().as_nanos() as u64,
                h2_ns: 0,
            },
        );
        self.registry.clean_read_lockfree_hits.inc();
        self.registry.seqlock_retries.add(u64::from(retries));
        Some(data)
    }

    /// Serves one op inline on this thread: win `shard`'s claim, drain
    /// whatever is FIFO-ahead in its queue (write-pending lines settle
    /// here), then run the op through [`serve_and_account`] directly — no
    /// op, no slot, no context switch. `None` when another thread holds
    /// the claim (the caller retries or enqueues behind it).
    fn serve_inline(
        &self,
        line: u64,
        shard: usize,
        trace: u64,
        write: Option<&LineData>,
    ) -> Option<Result<LineData, ServiceError>> {
        let q = &self.demand.queues[shard];
        if q.claimed.swap(true, Ordering::Acquire) {
            return None;
        }
        drain_claimed(&self.state, &self.demand, shard, &self.registry);
        let mut session = None;
        let served = serve_and_account(
            &self.state,
            &self.demand,
            &self.registry,
            shard,
            Request {
                line,
                trace,
                write,
                enqueued: None,
            },
            &mut session,
        );
        release_claim(&self.state, &self.demand, shard, &self.registry);
        Some(served.unwrap_or(Err(ServiceError::ShardDown(shard))))
    }

    /// Enqueues a write for `line`'s shard (blocking on a full queue) and
    /// returns as soon as it is **accepted** — the worker applies it
    /// asynchronously. Acceptance marks the line write-pending in the
    /// lock-free view, so every subsequent read of the line (from this or
    /// any other thread that learned of the write) takes the shard queue's
    /// FIFO path *behind* the write: fire-and-forget stays
    /// read-your-write consistent. A write a dying shard never applies is
    /// counted in [`ServiceReport::failed_writes`] and surfaces as
    /// [`ServiceError::ShardDown`] on later reads of the line.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShardDown`] when the owning shard is quarantined at
    /// acceptance, [`ServiceError::ShuttingDown`] when the service no
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
        // Queue-bypass fast path: on a free claim the write is applied
        // synchronously on this thread — no op allocation, no queue
        // mutex, no pending-gate round trip. Like a queued write it
        // completes at acceptance: a shard that dies under it counts it
        // in `failed_writes`.
        let (trace, served) = match self.admit(shard, |trace| {
            self.serve_inline(line, shard, trace, Some(data))
        }) {
            Ok(admitted) => admitted,
            Err(e) => return (None, Err(e)),
        };
        if served.is_some() {
            return (Some(trace), Ok(()));
        }
        self.state.begin_write(line);
        let accepted = self.demand.enqueue(
            shard,
            Op::Write {
                line,
                trace,
                data: *data,
                enqueued: Instant::now(),
            },
            &self.state,
            &self.registry,
        );
        if accepted.is_err() {
            // Rejected at the door: nothing will ever apply (or retire) it.
            self.state.retire_write(line);
            return (Some(trace), accepted);
        }
        // Flat-combining assist: try to drain the shard queue (our write
        // included) right here. On a small machine this applies the write
        // without a single context switch; losing the claim race is fine —
        // the holder's drain covers our op.
        claim_and_drain(&self.state, &self.demand, shard, &self.registry);
        (Some(trace), accepted)
    }

    /// Blocking read: lock-free off the seqlock view when the line is
    /// verifiably clean, otherwise enqueued and answered through this
    /// thread's completion slot.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Uncorrectable`] when even cross-shard recovery
    /// failed (DUE), [`ServiceError::ShardDown`] when the owning shard is
    /// quarantined (including mid-flight: a request stranded by a worker
    /// panic reports the shard, never a panic or a hang), and
    /// [`ServiceError::ShuttingDown`] when the service is gone.
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
        // Each round probes the lock-free view, then tries the claim: a
        // free claim drains whatever is FIFO-ahead (our line's pending
        // write included) and runs the locked ladder read right here. A
        // held claim's release re-check drains anything queued meanwhile,
        // often republishing our line clean for the next round's probe.
        let (trace, served) = match self.admit(shard, |trace| {
            self.fast_read(line, shard, trace)
                .map(Ok)
                .or_else(|| self.serve_inline(line, shard, trace, None))
        }) {
            Ok(admitted) => admitted,
            Err(e) => return (None, Err(e)),
        };
        if let Some(result) = served {
            return (Some(trace), result);
        }
        let result = READ_SLOT.with(|slot| {
            self.demand.enqueue(
                shard,
                Op::Read {
                    line,
                    trace,
                    enqueued: Instant::now(),
                    reply: slot.arm(),
                },
                &self.state,
                &self.registry,
            )?;
            // Flat-combining assist: winning the claim serves our own op
            // (and everything FIFO-ahead of it, write-pending lines
            // included) on this thread, filling the slot before the wait
            // even starts — zero context switches on the miss path.
            claim_and_drain(&self.state, &self.demand, shard, &self.registry);
            slot.wait()
                .unwrap_or_else(|| Err(self.disconnect_error(shard)))
        });
        (Some(trace), result)
    }

    /// Chaos hook: the worker serving `shard` panics on purpose when it
    /// pops this op — with `hold_lock`, while holding the shard's state
    /// mutex, poisoning it exactly like an organic mid-repair panic.
    ///
    /// # Errors
    ///
    /// The same acceptance errors as any other request.
    pub fn inject_worker_panic(&self, shard: usize, hold_lock: bool) -> Result<(), ServiceError> {
        self.demand
            .enqueue(shard, Op::Panic { hold_lock }, &self.state, &self.registry)?;
        // No combining here — the chaos op should land on whichever pool
        // worker (or combining client) claims the shard next, so wake one.
        self.demand.notify_parked();
        Ok(())
    }

    /// Current depth of each shard's request queue.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.registry
            .queue_depths()
            .into_iter()
            .map(|d| d as usize)
            .collect()
    }

    /// `shard`'s live queue depth, lock-free (the wire server's RETRY-shed
    /// probe: depth at the bound means an enqueue would block).
    #[inline]
    pub fn shard_depth(&self, shard: usize) -> usize {
        self.demand.queues[shard].len.load(Ordering::Relaxed)
    }

    /// The per-shard queue bound producers block at ([`ServiceConfig`]'s
    /// `queue_depth`).
    pub fn queue_bound(&self) -> usize {
        self.demand.queue_depth
    }

    /// Shard count the service was started with.
    pub fn n_shards(&self) -> usize {
        self.state.n_shards()
    }

    /// A fresh [`TelemetrySnapshot`] rendered as JSON — the body of the
    /// wire STATS opcode (same shape as the exporter's `/snapshot.json`,
    /// always freshly captured).
    pub fn stats_json(&self) -> String {
        TelemetrySnapshot::capture(0, &self.state, &self.registry).to_json()
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
    workers: Vec<JoinHandle<()>>,
    daemon: Option<JoinHandle<bool>>,
    stop: Arc<AtomicBool>,
    daemon_panic: Arc<AtomicBool>,
    recorder: Option<Arc<FlightRecorder>>,
    sampler: Option<JoinHandle<()>>,
    sampler_stop: Arc<AtomicBool>,
    exporter: Option<Exporter>,
    plane: Arc<AuditPlane>,
    watchdog: Option<JoinHandle<()>>,
    watchdog_stop: Arc<AtomicBool>,
    daemon_stall_us: Arc<AtomicU64>,
}

impl Service {
    /// Starts the worker pool (and the scrub daemon, when configured).
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
            queues: (0..config.n_shards).map(|_| ShardQueue::new()).collect(),
            pending: AtomicU64::new(0),
            accepting: AtomicBool::new(true),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            parked: AtomicUsize::new(0),
            panicked: Mutex::new(BTreeSet::new()),
            queue_depth: config.queue_depth.max(1),
        });
        let mut workers = Vec::with_capacity(config.n_shards);
        for home in 0..config.n_shards {
            let state = Arc::clone(&state);
            let demand = Arc::clone(&demand);
            let registry = Arc::clone(&registry);
            workers.push(std::thread::spawn(move || {
                worker_loop(&state, &demand, home, &registry);
            }));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let daemon_panic = Arc::new(AtomicBool::new(false));
        let daemon_stall_us = Arc::new(AtomicU64::new(0));
        // The audit plane exists regardless of telemetry config: deadline
        // accounting and alerting are part of the reliability story, not
        // an optional extra.
        let plane = Arc::new(AuditPlane::new(state.plan(), config.audit.clone())?);
        plane.arm_spatial(state.heatmaps().geometry());
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
            Some(std::thread::spawn(move || {
                watchdog_loop(&state, &plane, &registry, scrub_every, queue_bound, &stop)
            }))
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
            workers,
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
        }
    }

    /// The sharded storage engine behind the service (for direct
    /// inspection in tests; demand traffic should go through handles).
    pub fn state(&self) -> &Arc<ShardedCache> {
        &self.state
    }

    /// The live metrics registry every worker and the daemon publish into.
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

    /// Graceful drain and shutdown: stops the scrub daemon, closes
    /// acceptance, joins the worker pool (workers exit only once every
    /// queue is verifiably empty), then the telemetry plane (sampler last,
    /// so the flight recorder's final snapshot sees the quiesced system),
    /// and assembles the end-of-run report. Every op accepted before the
    /// call is fully served by live shards; ops stranded on dead shards
    /// produce error replies, never hangs.
    ///
    /// Never panics: dead shards and a dead daemon are reported in
    /// [`ServiceReport::worker_panics`] / [`ServiceReport::daemon_panicked`],
    /// with their surviving telemetry still harvested.
    pub fn shutdown(self) -> ServiceReport {
        // 1. Stop the daemon first so no new scrub work races the drain.
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
        // 2. Drain: close acceptance, wake every parked worker and blocked
        //    producer, and join the pool. Workers only exit after seeing
        //    every queue empty with acceptance closed (checked under each
        //    queue's lock), so nothing accepted is left unserved.
        self.demand.accepting.store(false, Ordering::SeqCst);
        {
            let _guard = self.demand.idle.lock().unwrap_or_else(|e| e.into_inner());
            self.demand.wake.notify_all();
        }
        for q in &self.demand.queues {
            let _guard = q.ops.lock().unwrap_or_else(|e| e.into_inner());
            q.not_full.notify_all();
        }
        for worker in self.workers {
            let _ = worker.join();
        }
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
        if let Some(watchdog) = self.watchdog {
            let _ = watchdog.join();
        }
        drop(self.exporter);
        // 4. Harvest telemetry and counters from the quiesced engine —
        //    including from quarantined shards (poison-tolerant locks).
        let mut master = Recorder::unbounded();
        self.state.harvest_recorders(&mut master);
        let reg = &self.registry;
        ServiceReport {
            shards: self.state.n_shards(),
            stats: self.state.stats(),
            per_shard: self.state.shard_stats(),
            hists: reg.service_hists(),
            recovery_hists: master.hists,
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
        let snap = TelemetrySnapshot::capture_with_audit(seq, state, registry, Some(plane));
        seq += 1;
        if let Some(w) = jsonl.as_mut() {
            let _ = writeln!(w, "{}", snap.to_json());
            let _ = w.flush();
        }
        recorder.push(snap);
        if stop.load(Ordering::Relaxed) {
            break; // the snapshot above was the final, post-drain capture
        }
    }
}

/// Claims `shard` and drains its queue in whole work packets on the
/// *calling* thread, returning the number of ops served (0 when another
/// thread already owns the claim). This is the single drain primitive
/// shared by the pool workers and the flat-combining clients: whoever
/// wins the claim serves — repairs stay serialized per shard either way,
/// because the claim admits one drainer at a time and the shard session
/// mutex covers the state itself.
///
/// After releasing the claim, the queue length is re-checked and the
/// claim re-taken if a producer pushed in the release window — producers
/// that lost the claim race rely on the holder to serve what they pushed.
fn claim_and_drain(
    state: &ShardedCache,
    demand: &Demand,
    shard: usize,
    reg: &TelemetryRegistry,
) -> u64 {
    let q = &demand.queues[shard];
    if q.claimed.swap(true, Ordering::Acquire) {
        return 0; // another thread owns this shard right now
    }
    let served = drain_claimed(state, demand, shard, reg);
    served + release_claim(state, demand, shard, reg)
}

/// Drains `shard`'s queue in whole work packets until it is empty,
/// returning the number of ops served. The caller must hold the claim.
fn drain_claimed(
    state: &ShardedCache,
    demand: &Demand,
    shard: usize,
    reg: &TelemetryRegistry,
) -> u64 {
    let mut served = 0u64;
    loop {
        let batch = demand.pop_batch(shard);
        if batch.is_empty() {
            return served;
        }
        served += batch.len() as u64;
        if state.health().is_up(shard) {
            serve_packet(state, demand, shard, batch, reg);
        } else {
            // Quarantined: drain with error replies, never hangs.
            for op in batch {
                complete_shard_down(op, shard, state, reg);
            }
        }
    }
}

/// Releases the claim on `shard`, closing the push-after-empty-pop race:
/// an op pushed between the holder's last empty pop and the release saw
/// the shard claimed and counts on the holder to serve it. Reclaim and
/// drain again (or leave it to whoever beat us to the reclaim). Returns
/// the number of ops served by the recheck drains.
fn release_claim(
    state: &ShardedCache,
    demand: &Demand,
    shard: usize,
    reg: &TelemetryRegistry,
) -> u64 {
    let q = &demand.queues[shard];
    let mut served = 0u64;
    loop {
        q.claimed.store(false, Ordering::Release);
        if q.len.load(Ordering::SeqCst) == 0 || q.claimed.swap(true, Ordering::Acquire) {
            return served;
        }
        served += drain_claimed(state, demand, shard, reg);
    }
}

/// One pool worker: sweeps the shard queues starting from its home shard,
/// claims one shard at a time (keeping repairs serialized per shard), and
/// serves whole work packets until the service stops accepting and every
/// queue is verifiably empty. Under load the clients themselves drain the
/// queues they enqueue on (see [`claim_and_drain`] callers in
/// [`ServiceHandle`]); the pool is the backstop that guarantees progress
/// for ops nobody combines — panic injections, ops stranded by a client
/// that lost the claim race, and the shutdown drain.
fn worker_loop(state: &ShardedCache, demand: &Demand, home: usize, reg: &TelemetryRegistry) {
    let n = demand.queues.len();
    loop {
        let mut served_any = false;
        for i in 0..n {
            let shard = (home + i) % n;
            served_any |= claim_and_drain(state, demand, shard, reg) > 0;
        }
        if served_any {
            continue;
        }
        // Nothing anywhere: park until an enqueue lands on an *unclaimed*
        // shard, or exit once the service stops accepting AND every queue
        // is verifiably empty. The park is announced (`parked += 1`)
        // before the re-check, pairing with the producers' SeqCst
        // `len`-then-`parked` order: an op pushed before a producer saw
        // `parked == 0` is visible to `claimable()` below, and an op
        // pushed after it observes our announcement and notifies under
        // the same `idle` lock we hold until the wait begins. Work owned
        // by another worker's claim is deliberately NOT a wake condition:
        // the claim holder drains it, and parking here instead of
        // yield-spinning is what keeps surplus workers off the scheduler
        // on small machines.
        let guard = demand.idle.lock().unwrap_or_else(|e| e.into_inner());
        demand.parked.fetch_add(1, Ordering::SeqCst);
        if demand.claimable() {
            // An op landed mid-sweep on a shard nobody owns: re-sweep.
            demand.parked.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
            continue;
        }
        if !demand.accepting.load(Ordering::Acquire) {
            demand.parked.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
            // `accepting` was observed false before taking each queue lock
            // below, so any producer that locks a queue after this check
            // must also observe it false and bail: an empty sweep here is
            // conclusive — no op can arrive behind our back.
            let all_empty = demand
                .queues
                .iter()
                .all(|q| q.ops.lock().unwrap_or_else(|e| e.into_inner()).is_empty());
            if all_empty {
                return;
            }
            // Another worker's claim still covers the leftovers; give it
            // the core rather than re-sweeping hot.
            std::thread::yield_now();
        } else {
            let (guard, _) = demand
                .wake
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
            demand.parked.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
        }
    }
}

/// Quarantines `shard` after a caught worker panic and records it for the
/// end-of-run report.
fn fail_shard(state: &ShardedCache, demand: &Demand, shard: usize) {
    state.health().quarantine(shard);
    demand
        .panicked
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(shard);
}

/// Error-completes a stranded op (queued behind a panic, or drained off a
/// dead shard's queue), undoing its depth accounting. The client gets
/// [`ServiceError::ShardDown`], never a hang.
fn complete_shard_down(op: Op, shard: usize, state: &ShardedCache, reg: &TelemetryRegistry) {
    match op {
        Op::Panic { .. } => {}
        Op::Read { reply, .. } => {
            let d = reg.depth(shard).dec();
            reg.queue_depth_hist.record(d);
            state.note_reject();
            reply.complete(Err(ServiceError::ShardDown(shard)));
        }
        Op::Write { line, .. } => {
            let d = reg.depth(shard).dec();
            reg.queue_depth_hist.record(d);
            state.note_reject();
            // The accepted write will never be applied: surface it in the
            // failed-write counter and re-arm the line's lock-free view.
            reg.failed_writes.inc();
            state.retire_write(line);
        }
    }
}

/// Reads `line` through the packet's shard session (opened lazily, so an
/// all-write packet after an escalation doesn't reacquire for nothing).
/// A local ladder failure drops the session *before* escalating — the
/// cross-shard coordinator acquires every shard mutex in ascending order.
fn serve_read<'a>(
    state: &'a ShardedCache,
    shard: usize,
    line: u64,
    trace: u64,
    session: &mut Option<ShardSession<'a>>,
    h2_ns: &mut u64,
    reg: &TelemetryRegistry,
) -> Result<LineData, ServiceError> {
    let live = match session {
        Some(live) => live,
        None => session.insert(state.session(shard)?),
    };
    // Any recovery the ladder runs for this read is stamped with the
    // request's trace ID — /traces.json ties a slow read to the exact
    // RecoveryEvents it caused.
    live.set_trace(trace);
    match live.read(line) {
        Err(ServiceError::Uncorrectable(_)) => {
            reg.escalated_reads.inc();
            *session = None;
            let h2_start = Instant::now();
            let fetched = state.escalate_fetch(line, trace);
            *h2_ns = h2_start.elapsed().as_nanos() as u64;
            reg.h2_gather_ns.record(*h2_ns);
            fetched
        }
        other => other,
    }
}

/// Writes `data` to `line` through the packet's shard session.
fn serve_write<'a>(
    state: &'a ShardedCache,
    shard: usize,
    line: u64,
    trace: u64,
    data: &LineData,
    session: &mut Option<ShardSession<'a>>,
) -> Result<(), ServiceError> {
    let live = match session {
        Some(live) => live,
        None => session.insert(state.session(shard)?),
    };
    // Consistency-triggered group recovery under the write carries the
    // write's trace, same as the read path.
    live.set_trace(trace);
    live.write(line, data);
    Ok(())
}

/// One demand op as [`serve_and_account`] sees it.
struct Request<'d> {
    line: u64,
    trace: u64,
    /// The data to store for a write; `None` for a read.
    write: Option<&'d LineData>,
    /// When a queued op was enqueued; `None` for an op served inline.
    enqueued: Option<Instant>,
}

/// Serves one demand op on `shard`, whose claim the caller holds, and
/// accounts for it: the one completion routine behind the inline and the
/// queued paths alike. The cache operation runs under the demand path's
/// only `catch_unwind`; completion handles stay with the caller, outside
/// it. A served op is [`account`]ed and answered `Some` — for a write,
/// `Ok` carries the data it stored. A caught panic quarantines the shard,
/// counts a lost write as failed, and answers `None`: the caller then
/// error-completes the op and whatever is queued behind it.
fn serve_and_account<'a>(
    state: &'a ShardedCache,
    demand: &Demand,
    reg: &TelemetryRegistry,
    shard: usize,
    req: Request<'_>,
    session: &mut Option<ShardSession<'a>>,
) -> Option<Result<LineData, ServiceError>> {
    let service_start = Instant::now();
    let queue_wait_ns = req
        .enqueued
        .map_or(0, |at| service_start.duration_since(at).as_nanos() as u64);
    let mut h2_ns = 0u64;
    let outcome = catch_unwind(AssertUnwindSafe(|| match req.write {
        None => serve_read(state, shard, req.line, req.trace, session, &mut h2_ns, reg),
        Some(data) => serve_write(state, shard, req.line, req.trace, data, session).map(|()| *data),
    }));
    if req.enqueued.is_none() {
        // An inline op's session serves that op alone: release the shard
        // mutex before the accounting, so the scrub daemon's chunked
        // passes never wait behind telemetry.
        *session = None;
    }
    let Ok(result) = outcome else {
        fail_shard(state, demand, shard);
        if req.write.is_some() {
            reg.failed_writes.inc();
        }
        return None;
    };
    account(
        reg,
        TraceRecord {
            trace: req.trace,
            shard: shard as u32,
            write: req.write.is_some(),
            path: if req.enqueued.is_some() {
                TracePath::Queued
            } else {
                TracePath::Inline
            },
            outcome: trace_outcome(&result),
            queue_wait_ns,
            service_ns: service_start.elapsed().as_nanos() as u64,
            h2_ns,
        },
    );
    Some(result)
}

/// The accounting every served demand op gets, whichever path served it
/// (lock-free, inline, or queued): the op counters its outcome implies,
/// then its one [`TraceRecord`] — latency, queue-wait, service and H2
/// phase samples, exemplar, and the sampled trace ring.
fn account(reg: &TelemetryRegistry, record: TraceRecord) {
    match (record.write, record.outcome) {
        (false, outcome) => {
            reg.reads.inc();
            if outcome == TraceOutcome::Due {
                reg.due_reads.inc();
            }
        }
        (true, TraceOutcome::Ok) => reg.writes.inc(),
        (true, _) => reg.failed_writes.inc(),
    }
    reg.note_request(record);
}

/// Maps a served op's result to its trace outcome.
fn trace_outcome(result: &Result<LineData, ServiceError>) -> TraceOutcome {
    match result {
        Ok(_) => TraceOutcome::Ok,
        Err(e) if e.is_due() => TraceOutcome::Due,
        Err(_) => TraceOutcome::Error,
    }
}

/// Serves one work packet against `shard`, holding one [`ShardSession`]
/// across the batch (one mutex acquire amortized over up to [`BATCH`]
/// ops).
///
/// Panic protocol: completion handles **never** enter the `catch_unwind`
/// inside [`serve_and_account`] — only the cache operation does — so a
/// panic cannot strand or double-complete a client. On a caught panic the
/// shard is quarantined first, then the current op and everything left in
/// the packet complete with [`ServiceError::ShardDown`]. The session
/// `Option` lives outside the closure, so the shard mutex is released
/// (not poisoned) on the way out; `hold_lock` chaos panics still poison
/// it via their own acquire.
fn serve_packet(
    state: &ShardedCache,
    demand: &Demand,
    shard: usize,
    batch: Vec<Op>,
    reg: &TelemetryRegistry,
) {
    let mut session: Option<ShardSession<'_>> = None;
    let mut ops = batch.into_iter();
    while let Some(op) = ops.next() {
        let (line, trace, enqueued, write, reply) = match op {
            Op::Panic { hold_lock } => {
                // Release the session first: a hold_lock panic re-acquires
                // the shard mutex itself (and poisons it on unwind).
                drop(session.take());
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    state.chaos_panic(shard, hold_lock);
                }));
                fail_shard(state, demand, shard);
                for rest in ops {
                    complete_shard_down(rest, shard, state, reg);
                }
                return;
            }
            Op::Read {
                line,
                trace,
                enqueued,
                reply,
            } => (line, trace, enqueued, None, Some(reply)),
            Op::Write {
                line,
                trace,
                data,
                enqueued,
            } => (line, trace, enqueued, Some(data), None),
        };
        let d = reg.depth(shard).dec();
        reg.queue_depth_hist.record(d);
        let req = Request {
            line,
            trace,
            write: write.as_ref(),
            enqueued: Some(enqueued),
        };
        let served = serve_and_account(state, demand, reg, shard, req, &mut session);
        if write.is_some() {
            // Retire *after* the apply-and-republish (or on the way to the
            // teardown below): only then is the view authoritative for the
            // line again.
            state.retire_write(line);
        }
        let panicked = served.is_none();
        if let Some(reply) = reply {
            reply.complete(served.unwrap_or(Err(ServiceError::ShardDown(shard))));
        }
        if panicked {
            for rest in ops {
                complete_shard_down(rest, shard, state, reg);
            }
            return;
        }
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
    let injected = if inject {
        state.inject_shard(shard, injector)
    } else {
        Vec::new()
    };
    reg.injected_lines.add(injected.len() as u64);
    // The bounded incremental sweep: advance this shard's packet cursor
    // far enough per tick that every owned line is revisited within the
    // scrub deadline (the golden-zero fast path makes clean lines nearly
    // free to rescan). Injection hints alone only cover lines the
    // simulator *knows* it faulted — the sweep is what makes the 20 ms
    // guarantee an audited property instead of an assumption.
    let tracker = &plane.tracker;
    let n_packets = tracker.n_packets(shard);
    let packet_lines = tracker.packet_lines();
    let owned = state.plan().owned_line_count(shard);
    let mut hints = injected;
    let mut swept = Vec::with_capacity(packets_per_tick);
    let mut lines_swept = 0u64;
    for _ in 0..packets_per_tick.min(n_packets) {
        let packet = *cursor % n_packets;
        *cursor = (*cursor + 1) % n_packets;
        let start = packet as u64 * packet_lines;
        let end = (start + packet_lines).min(owned);
        hints.extend((start..end).map(|idx| state.plan().owned_line_at(shard, idx)));
        lines_swept += end.saturating_sub(start);
        if start < owned {
            swept.push((packet, state.plan().owned_line_at(shard, start)));
        }
    }
    reg.scrub_lines_swept.add(lines_swept);
    hints.sort_unstable();
    hints.dedup();
    let (_report, leftover) = state.scrub_shard_local(shard, &hints);
    for (packet, first_line) in swept {
        let interval_ns = tracker.note_packet(shard, packet);
        state.heatmaps().note_staleness(first_line, interval_ns);
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
        // overrun. The gauge holds the latest value; the histogram the
        // whole distribution.
        let now = Instant::now();
        let lag_ns = now.duration_since(next_deadline).as_nanos() as u64;
        reg.tick_lag_ns.record(lag_ns);
        reg.last_tick_lag_ns.set(lag_ns);
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
        config.queue_depth = 4; // small queue: the test exercises blocking
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
        // Writes complete at acceptance: the first read of each line may
        // queue behind its still-pending write (FIFO gives read-your-write),
        // after which the line is published and the second read MUST be
        // served straight from the seqlock view.
        for line in 0..64u64 {
            assert_eq!(handle.read(line).unwrap(), data_with(&[line as usize]));
        }
        for line in 0..64u64 {
            assert_eq!(handle.read(line).unwrap(), data_with(&[line as usize]));
        }
        let report = service.shutdown();
        assert_eq!(report.reads, 128);
        assert!(
            report.lockfree_reads >= 64,
            "clean reads must bypass the queue: {} lock-free of {}",
            report.lockfree_reads,
            report.reads
        );
        // The view's accounting matches the reference: each lock-free read
        // is one cache read + one CRC check in aggregate stats.
        assert_eq!(report.stats.reads, 128);
    }
}
