//! The live telemetry plane: a lock-free metrics registry every thread
//! updates wait-free, a sampler thread that snapshots the whole system
//! into a bounded flight-recorder ring (and optional JSONL time series),
//! and the [`TelemetrySnapshot`] both the `/metrics` Prometheus exposition
//! and `/snapshot.json` render from.
//!
//! Until this plane existed, a soak or chaos run was a black box until
//! `shutdown()` assembled the final [`ServiceReport`]; now the recovery
//! ladder is observable *while it operates*: per-shard queue depth and
//! health, scrub-daemon progress and tick lag, ECC-1 / SDR / RAID-4 /
//! Hash-2 ladder counters, spare-pool occupancy, and per-phase request
//! latency (queue wait → shard service → cross-shard H2 gather+repair)
//! threaded by a per-request trace ID.
//!
//! Every exported scalar and histogram is declared once, as one row of
//! the `SCALARS` or `HISTOGRAMS` table: its `to_json()` key, its Prometheus
//! family, HELP text and type, and the function a capture reads it with.
//! [`TelemetrySnapshot::capture`], [`TelemetrySnapshot::to_json`] and
//! [`TelemetrySnapshot::to_prometheus`] walk the rows; only the labelled
//! families (per shard, per heatmap cell) and the audit block are
//! written out by hand. The spatial grids are always there: the
//! [`ShardedCache`] builds them with itself.
//!
//! Cost model: the hot path touches only [`Counter`]s, [`Gauge`]s and
//! [`AtomicHist`]s — no locks, no allocation. A counter or histogram
//! update is a plain relaxed load and store into a stripe only the
//! calling thread writes (past 15 live writer threads, the rest share
//! one stripe and pay a locked `fetch_add`); a gauge is one relaxed
//! atomic read-modify-write. Snapshots are pulled by the sampler (or a scrape), which *does* briefly
//! take the shard mutexes to read the recovery-ladder [`CacheStats`]; that
//! cost rides on the sampler interval, never on a request.
//!
//! [`ServiceReport`]: crate::ServiceReport

use crate::audit::{AuditPlane, AuditSnapshot};
use crate::degraded::DegradedStats;
use crate::sharded::ShardedCache;
use std::collections::VecDeque;
use std::net::IpAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use sudoku_core::CacheStats;
use sudoku_obs::json::JsonObject;
use sudoku_obs::{AtomicHist, Counter, Gauge, Heatmaps, Histogram, ServiceHistograms};

/// Configuration of the optional live telemetry plane (sampler thread,
/// flight recorder, scrape endpoint). The registry itself is always on —
/// its hot-path cost is a handful of relaxed atomics per request.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Sampler period: one [`TelemetrySnapshot`] lands in the flight
    /// recorder (and JSONL file) every interval.
    pub sample_every: Duration,
    /// Bounded flight-recorder capacity in snapshots; the ring keeps the
    /// most recent `cap` (≈ `cap × sample_every` seconds of history).
    pub flight_recorder_cap: usize,
    /// Optional JSONL time-series file: one snapshot per line, flushed per
    /// line so a crash leaves everything up to the last interval on disk.
    pub jsonl_path: Option<PathBuf>,
    /// Optional TCP scrape endpoint on `bind:port` serving
    /// `/metrics`, `/healthz`, and `/snapshot.json` (0 = ephemeral port;
    /// read it back via [`Service::telemetry_addr`]).
    ///
    /// [`Service::telemetry_addr`]: crate::Service::telemetry_addr
    pub port: Option<u16>,
    /// Address the scrape endpoint binds (default loopback-only; set
    /// `0.0.0.0` to expose the plane, the same knob the wire server has).
    pub bind: IpAddr,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_every: Duration::from_millis(50),
            flight_recorder_cap: 256,
            jsonl_path: None,
            port: None,
            bind: IpAddr::from([127, 0, 0, 1]),
        }
    }
}

/// Which demand path served a request — the causal "where did this
/// request's time go" dimension of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePath {
    /// Served off the seqlock line view, no shard mutex.
    Lockfree,
    /// Served inline by the requester holding the shard claim.
    Inline,
    /// Rode the bounded shard queue to a drainer.
    Queued,
}

impl TracePath {
    /// Lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            TracePath::Lockfree => "lockfree",
            TracePath::Inline => "inline",
            TracePath::Queued => "queued",
        }
    }
}

/// How a traced request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Served normally.
    Ok,
    /// Served but detectably uncorrectable — always retained in the trace
    /// ring regardless of sampling, because every DUE deserves a trace.
    Due,
    /// Failed (shard down / shutting down).
    Error,
}

impl TraceOutcome {
    /// Lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Due => "due",
            TraceOutcome::Error => "error",
        }
    }
}

/// One completed request's per-phase timing, identified by its trace ID.
/// One histogram-bucket exemplar: `(bucket_index, upper_bound_ns,
/// trace_id)` — the most recent sampled trace to land in that latency
/// bucket.
pub type Exemplar = (usize, u64, u64);

/// The registry keeps a sampled ring of these (1 in [`TRACE_SAMPLE`],
/// plus **every** DUE) so `/snapshot.json` and `/traces.json` can show
/// concrete end-to-end traces without a per-request lock on the hot path.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    /// The per-request trace ID the handle allocated at enqueue time.
    pub trace: u64,
    /// Owning shard.
    pub shard: u32,
    /// Whether the request was a write.
    pub write: bool,
    /// Which demand path served it.
    pub path: TracePath,
    /// How it ended.
    pub outcome: TraceOutcome,
    /// Time spent queued before a drainer dequeued it, ns.
    pub queue_wait_ns: u64,
    /// Shard-local service time (dequeue → reply), ns.
    pub service_ns: u64,
    /// Cross-shard Hash-2 gather+repair time (0 when not escalated), ns.
    pub h2_ns: u64,
}

impl TraceRecord {
    /// End-to-end latency: queue wait plus service (H2 time is inside the
    /// service span — escalation happens while the drainer owns the
    /// request).
    pub fn total_ns(&self) -> u64 {
        self.queue_wait_ns + self.service_ns
    }

    /// One JSON object per trace (`/snapshot.json`, `/traces.json`).
    pub fn to_json(self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("trace", self.trace)
            .field_u64("shard", self.shard as u64)
            .field_bool("write", self.write)
            .field_str("path", self.path.name())
            .field_str("outcome", self.outcome.name())
            .field_u64("queue_wait_ns", self.queue_wait_ns)
            .field_u64("service_ns", self.service_ns)
            .field_u64("h2_ns", self.h2_ns)
            .field_u64("total_ns", self.total_ns());
        obj.finish()
    }
}

/// One trace in [`TRACE_SAMPLE`] completed requests is retained in the
/// recent-traces ring (the only mutex the plane owns, taken off the fast
/// path by the sampling).
pub const TRACE_SAMPLE: u64 = 64;

const TRACE_RING: usize = 64;

/// The lock-free metrics registry shared by every drainer, the scrub
/// daemon, the client handles, the sampler, and the scrape endpoint.
///
/// Writers update counters/gauges/histograms wait-free; readers snapshot
/// via [`TelemetrySnapshot::capture`] without stopping the world.
#[derive(Debug)]
pub struct TelemetryRegistry {
    // Demand-path counters.
    /// Demand reads served.
    pub reads: Counter,
    /// Demand writes served.
    pub writes: Counter,
    /// Demand writes rejected (owning shard down).
    pub failed_writes: Counter,
    /// Demand reads that needed cross-shard Hash-2 escalation.
    pub escalated_reads: Counter,
    /// Demand reads that stayed uncorrectable (DUE).
    pub due_reads: Counter,
    /// Demand reads served lock-free off the seqlock line view (no shard
    /// mutex, CRC verified inline).
    pub clean_read_lockfree_hits: Counter,
    /// Seqlock retries taken by lock-free reads (torn snapshot or writer
    /// in flight); the retry *rate* is this over the hit count.
    pub seqlock_retries: Counter,
    // Scrub-daemon progress.
    /// Scrub ticks completed (one tick = one shard).
    pub scrub_ticks: Counter,
    /// Ticks skipped because the shard was quarantined.
    pub skipped_ticks: Counter,
    /// Lines faulted by the daemon's injectors.
    pub injected_lines: Counter,
    /// Cross-shard escalations triggered by scrub leftovers.
    pub escalations: Counter,
    /// Lines handed to those escalations.
    pub escalated_lines: Counter,
    /// Lines still unresolved after escalation (scrub-detected DUEs).
    pub unresolved_lines: Counter,
    /// Next shard the daemon will scrub (round-robin cursor).
    pub scrub_cursor: Gauge,
    /// 1 once the scrub daemon died to a caught panic.
    pub daemon_dead: Gauge,
    /// Most recent tick's start lag behind its deadline, ns.
    pub last_tick_lag_ns: Gauge,
    /// Lines actually swept by the scrub daemon.
    pub scrub_lines_swept: Counter,
    /// Most recent adaptive quota decision (packets this visit).
    pub scrub_packet_quota: Gauge,
    /// Most recent adaptive quota floor (packets; the deadline contract).
    pub scrub_floor_quota: Gauge,
    /// Visits where demand pressure asked for less than the floor and the
    /// floor was enforced instead.
    pub scrub_floor_clamps: Counter,
    // Latency histograms (same pow2 layouts as [`ServiceHistograms`]).
    /// End-to-end demand-read latency, ns.
    pub read_latency_ns: AtomicHist,
    /// End-to-end demand-write latency, ns.
    pub write_latency_ns: AtomicHist,
    /// Phase: time queued before a drainer dequeued the request, ns.
    pub queue_wait_ns: AtomicHist,
    /// Phase: shard-local service time (dequeue → reply), ns.
    pub shard_service_ns: AtomicHist,
    /// Phase: cross-shard Hash-2 gather+repair time, ns (demand + scrub).
    pub h2_gather_ns: AtomicHist,
    /// Wall-clock duration of one shard scrub tick, ns.
    pub scrub_tick_ns: AtomicHist,
    /// Scrub-tick start lag behind the deadline, ns.
    pub tick_lag_ns: AtomicHist,
    /// Per-shard request-queue depth sampled at dequeue.
    pub queue_depth_hist: AtomicHist,
    /// Adaptive scrub quota per daemon visit, packets.
    pub scrub_quota_hist: AtomicHist,
    // Wire plane (the `sudoku-net` TCP front end).
    /// Wire connections ever accepted.
    pub net_connections: Counter,
    /// Wire connections open right now.
    pub net_open_connections: Gauge,
    /// Wire request frames decoded (well-formed, any opcode).
    pub net_frames: Counter,
    /// Wire requests shed with RETRY (in-flight window or queue full).
    pub net_sheds: Counter,
    /// Malformed wire frames (each also closes its connection).
    pub net_malformed: Counter,
    depths: Vec<Gauge>,
    next_trace: AtomicU64,
    traces: Mutex<VecDeque<TraceRecord>>,
    /// Histogram exemplars: per bucket of `read_latency_ns` (and
    /// `write_latency_ns`), the most recent trace ID that landed there,
    /// stored as `trace + 1` (0 = no exemplar yet). This is what links a
    /// p999 bucket on a dashboard to a concrete causal trace in
    /// `/traces.json`.
    read_exemplars: Vec<AtomicU64>,
    write_exemplars: Vec<AtomicU64>,
}

impl TelemetryRegistry {
    /// A zeroed registry for an `n_shards`-way service.
    pub fn new(n_shards: usize) -> Self {
        let read_latency_ns = AtomicHist::pow2(40);
        let write_latency_ns = AtomicHist::pow2(40);
        let exemplars =
            |hist: &AtomicHist| (0..hist.n_buckets()).map(|_| AtomicU64::new(0)).collect();
        TelemetryRegistry {
            read_exemplars: exemplars(&read_latency_ns),
            write_exemplars: exemplars(&write_latency_ns),
            reads: Counter::new(),
            writes: Counter::new(),
            failed_writes: Counter::new(),
            escalated_reads: Counter::new(),
            due_reads: Counter::new(),
            clean_read_lockfree_hits: Counter::new(),
            seqlock_retries: Counter::new(),
            scrub_ticks: Counter::new(),
            skipped_ticks: Counter::new(),
            injected_lines: Counter::new(),
            escalations: Counter::new(),
            escalated_lines: Counter::new(),
            unresolved_lines: Counter::new(),
            scrub_cursor: Gauge::new(),
            daemon_dead: Gauge::new(),
            last_tick_lag_ns: Gauge::new(),
            scrub_lines_swept: Counter::new(),
            scrub_packet_quota: Gauge::new(),
            scrub_floor_quota: Gauge::new(),
            scrub_floor_clamps: Counter::new(),
            read_latency_ns,
            write_latency_ns,
            queue_wait_ns: AtomicHist::pow2(40),
            shard_service_ns: AtomicHist::pow2(40),
            h2_gather_ns: AtomicHist::pow2(40),
            scrub_tick_ns: AtomicHist::pow2(40),
            tick_lag_ns: AtomicHist::pow2(40),
            queue_depth_hist: AtomicHist::pow2(20),
            scrub_quota_hist: AtomicHist::pow2(20),
            net_connections: Counter::new(),
            net_open_connections: Gauge::new(),
            net_frames: Counter::new(),
            net_sheds: Counter::new(),
            net_malformed: Counter::new(),
            depths: (0..n_shards).map(|_| Gauge::new()).collect(),
            next_trace: AtomicU64::new(0),
            traces: Mutex::new(VecDeque::with_capacity(TRACE_RING)),
        }
    }

    /// Allocates the next per-request trace ID.
    #[inline]
    pub fn next_trace_id(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Trace IDs issued so far.
    pub fn traces_issued(&self) -> u64 {
        self.next_trace.load(Ordering::Relaxed)
    }

    /// `shard`'s live queue-depth gauge.
    #[inline]
    pub fn depth(&self, shard: usize) -> &Gauge {
        &self.depths[shard]
    }

    /// Current depth of every shard's request queue.
    pub fn queue_depths(&self) -> Vec<u64> {
        self.depths.iter().map(Gauge::get).collect()
    }

    /// Completes one request's phase accounting: records the phase and
    /// end-to-end histograms, and retains a 1-in-[`TRACE_SAMPLE`] sample
    /// of concrete [`TraceRecord`]s for `/snapshot.json`.
    pub fn note_request(&self, record: TraceRecord) {
        self.queue_wait_ns.record(record.queue_wait_ns);
        self.shard_service_ns.record(record.service_ns);
        if record.h2_ns > 0 {
            self.h2_gather_ns.record(record.h2_ns);
        }
        let total = record.total_ns();
        if record.write {
            self.write_latency_ns.record(total);
            let bucket = self.write_latency_ns.bucket_of(total);
            self.write_exemplars[bucket].store(record.trace + 1, Ordering::Relaxed);
        } else {
            self.read_latency_ns.record(total);
            let bucket = self.read_latency_ns.bucket_of(total);
            self.read_exemplars[bucket].store(record.trace + 1, Ordering::Relaxed);
        }
        // DUEs are always retained — a detected-uncorrectable read is the
        // event the whole audit plane exists for, and there are few.
        if record.trace.is_multiple_of(TRACE_SAMPLE) || record.outcome == TraceOutcome::Due {
            // `try_lock`, never `lock`: the ring is a diagnostic sample, and
            // a sampled trace must not make a lock-free read wait behind a
            // scraper (or another sampler) holding the ring. Contended
            // pushes are simply dropped.
            if let Ok(mut ring) = self.traces.try_lock() {
                if ring.len() == TRACE_RING {
                    ring.pop_front();
                }
                ring.push_back(record);
            }
        }
    }

    /// The latency-histogram exemplars: `(bucket_index, upper_bound_ns,
    /// trace_id)` for every bucket that has one, reads and writes
    /// separately.
    pub fn exemplars(&self) -> (Vec<Exemplar>, Vec<Exemplar>) {
        let collect = |slots: &[AtomicU64], hist: &AtomicHist| {
            slots
                .iter()
                .enumerate()
                .filter_map(|(bucket, slot)| {
                    let stamped = slot.load(Ordering::Relaxed);
                    (stamped > 0).then(|| (bucket, hist.bucket_bound(bucket), stamped - 1))
                })
                .collect::<Vec<_>>()
        };
        (
            collect(&self.read_exemplars, &self.read_latency_ns),
            collect(&self.write_exemplars, &self.write_latency_ns),
        )
    }

    /// The sampled recent traces, oldest first.
    pub fn recent_traces(&self) -> Vec<TraceRecord> {
        self.traces
            .lock()
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Folds the registry's histograms into the [`ServiceHistograms`]
    /// shape the end-of-run [`ServiceReport`] carries.
    ///
    /// [`ServiceReport`]: crate::ServiceReport
    pub fn service_hists(&self) -> ServiceHistograms {
        ServiceHistograms {
            read_latency_ns: self.read_latency_ns.snapshot(),
            write_latency_ns: self.write_latency_ns.snapshot(),
            scrub_tick_ns: self.scrub_tick_ns.snapshot(),
            escalation_ns: self.h2_gather_ns.snapshot(),
            queue_depth: self.queue_depth_hist.snapshot(),
        }
    }
}

/// The spatial reliability plane folded into a snapshot: the heatmap's
/// combined observed-repair grid, the DUE grid, and the per-cell achieved
/// scrub-interval gauge, all row-major `shard × region`. (The full
/// nine-grid bundle stays on `/heatmap.json`; snapshots carry the three
/// a dashboard panels on.)
#[derive(Clone, Debug)]
pub struct HeatmapSnapshot {
    /// Shard rows in each grid.
    pub n_shards: usize,
    /// Region columns in each grid.
    pub n_regions: usize,
    /// Observed repair events per cell (ECC-1 + RAID-4 + SDR + DUE).
    pub observed: Vec<u64>,
    /// Uncorrectable lines per cell.
    pub due: Vec<u64>,
    /// Last achieved scrub interval per cell, ns.
    pub staleness: Vec<u64>,
}

impl HeatmapSnapshot {
    /// Captures the three dashboard grids from the live heatmaps.
    pub fn capture(maps: &Heatmaps) -> HeatmapSnapshot {
        HeatmapSnapshot {
            n_shards: maps.geometry().n_shards(),
            n_regions: maps.geometry().n_regions(),
            observed: maps.observed_cells(),
            due: maps.due.snapshot(),
            staleness: maps.staleness.snapshot(),
        }
    }

    /// The snapshot as a JSON object (the `heatmap` field of
    /// `/snapshot.json`).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("n_shards", self.n_shards as u64)
            .field_u64("n_regions", self.n_regions as u64)
            .field_array_u64("observed", self.observed.iter().copied())
            .field_array_u64("due", self.due.iter().copied())
            .field_array_u64("staleness_ns", self.staleness.iter().copied());
        obj.finish()
    }
}

/// Prometheus type of a [`ScalarMetric`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricKind {
    /// Monotone count; the family name ends in `_total`.
    Counter,
    /// A level that can go down.
    Gauge,
}

impl MetricKind {
    /// The exposition `# TYPE` word.
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One exported scalar, declared once: its `to_json()` key, its
/// Prometheus family, HELP text and type, and how a capture reads it.
/// [`TelemetrySnapshot`] keeps one value per row of [`SCALARS`].
#[derive(Clone, Copy, Debug)]
struct ScalarMetric {
    /// Top-level `to_json()` key; `None` for Prometheus-only rows (the
    /// ladder and degraded rows sit in the nested `stats` / `degraded`
    /// objects instead).
    json: Option<&'static str>,
    /// Prometheus family; `None` for JSON-only rows.
    prom: Option<&'static str>,
    /// Prometheus `# HELP` text.
    help: &'static str,
    /// Prometheus `# TYPE`.
    kind: MetricKind,
    read: ScalarRead,
}

/// One exported histogram, declared once. [`TelemetrySnapshot`] keeps one
/// [`Histogram`] per row of [`HISTOGRAMS`].
#[derive(Clone, Copy, Debug)]
struct HistMetric {
    /// `to_json()` key.
    json: &'static str,
    /// Prometheus family (`_bucket` / `_sum` / `_count` series).
    prom: &'static str,
    /// Prometheus `# HELP` text.
    help: &'static str,
    read: fn(&TelemetryRegistry) -> &AtomicHist,
}

type ScalarRead = fn(&TelemetryRegistry, &TelemetrySnapshot) -> u64;

const fn counter(
    json: Option<&'static str>,
    prom: Option<&'static str>,
    help: &'static str,
    read: ScalarRead,
) -> ScalarMetric {
    ScalarMetric {
        json,
        prom,
        help,
        kind: MetricKind::Counter,
        read,
    }
}

const fn gauge(
    json: Option<&'static str>,
    prom: Option<&'static str>,
    help: &'static str,
    read: ScalarRead,
) -> ScalarMetric {
    ScalarMetric {
        kind: MetricKind::Gauge,
        ..counter(json, prom, help, read)
    }
}

/// Every exported scalar. Rows read the registry, or the parts of the
/// snapshot captured before them (shard health, ladder and degraded
/// counters, histograms).
#[rustfmt::skip]
const SCALARS: &[ScalarMetric] = &[
    gauge(Some("shards_up"), Some("sudoku_shards_up"),
        "Shards currently serving", |_, s| (s.shards - s.quarantined.len()) as u64),
    gauge(Some("shards"), Some("sudoku_shards"),
        "Configured shard count", |_, s| s.shards as u64),
    gauge(None, Some("sudoku_daemon_up"),
        "1 while the scrub daemon is alive", |_, s| u64::from(!s.daemon_dead)),
    // Demand path.
    counter(Some("reads"), Some("sudoku_reads_total"),
        "Demand reads served", |r, _| r.reads.get()),
    counter(Some("writes"), Some("sudoku_writes_total"),
        "Demand writes served", |r, _| r.writes.get()),
    counter(Some("failed_writes"), Some("sudoku_failed_writes_total"),
        "Demand writes rejected (shard down)", |r, _| r.failed_writes.get()),
    counter(Some("escalated_reads"), Some("sudoku_escalated_reads_total"),
        "Demand reads escalated cross-shard", |r, _| r.escalated_reads.get()),
    counter(Some("due_reads"), Some("sudoku_due_reads_total"),
        "Demand reads left uncorrectable", |r, _| r.due_reads.get()),
    counter(Some("clean_read_lockfree_hits"), Some("sudoku_clean_read_lockfree_hits_total"),
        "Demand reads served lock-free off the seqlock line view",
        |r, _| r.clean_read_lockfree_hits.get()),
    counter(Some("seqlock_retries"), Some("sudoku_seqlock_retries_total"),
        "Seqlock retries taken by lock-free reads", |r, _| r.seqlock_retries.get()),
    counter(Some("traces_issued"), Some("sudoku_traces_total"),
        "Per-request trace IDs issued", |r, _| r.traces_issued()),
    // Scrub daemon.
    counter(Some("scrub_ticks"), Some("sudoku_scrub_ticks_total"),
        "Scrub ticks completed", |r, _| r.scrub_ticks.get()),
    counter(Some("skipped_ticks"), Some("sudoku_scrub_skipped_ticks_total"),
        "Scrub ticks skipped (quarantined shard)", |r, _| r.skipped_ticks.get()),
    counter(Some("injected_lines"), Some("sudoku_injected_lines_total"),
        "Lines faulted by the injectors", |r, _| r.injected_lines.get()),
    counter(Some("escalations"), Some("sudoku_scrub_escalations_total"),
        "Cross-shard escalations from scrub leftovers", |r, _| r.escalations.get()),
    counter(Some("escalated_lines"), None,
        "Lines handed to scrub escalations", |r, _| r.escalated_lines.get()),
    counter(Some("unresolved_lines"), Some("sudoku_scrub_unresolved_lines_total"),
        "Scrub-detected DUE lines", |r, _| r.unresolved_lines.get()),
    counter(Some("scrub_lines_swept"), Some("sudoku_scrub_lines_swept_total"),
        "Lines actually swept by the scrub daemon", |r, _| r.scrub_lines_swept.get()),
    counter(Some("scrub_floor_clamps"), Some("sudoku_scrub_floor_clamps_total"),
        "Scrub visits where the quota floor was enforced against demand pressure",
        |r, _| r.scrub_floor_clamps.get()),
    gauge(Some("scrub_cursor"), Some("sudoku_scrub_cursor"),
        "Next shard the daemon scrubs", |r, _| r.scrub_cursor.get()),
    gauge(Some("last_tick_lag_ns"), Some("sudoku_scrub_tick_lag_ns"),
        "Most recent tick's start lag behind deadline", |r, _| r.last_tick_lag_ns.get()),
    gauge(Some("scrub_packet_quota"), Some("sudoku_scrub_packet_quota"),
        "Most recent adaptive scrub quota (packets per visit)", |r, _| r.scrub_packet_quota.get()),
    gauge(Some("scrub_floor_quota"), Some("sudoku_scrub_floor_quota"),
        "Most recent adaptive scrub quota floor (packets)", |r, _| r.scrub_floor_quota.get()),
    // Wire plane.
    counter(Some("net_connections"), Some("sudoku_net_connections_total"),
        "Wire connections accepted", |r, _| r.net_connections.get()),
    gauge(Some("net_open_connections"), Some("sudoku_net_open_connections"),
        "Wire connections open", |r, _| r.net_open_connections.get()),
    counter(Some("net_frames"), Some("sudoku_net_frames_total"),
        "Wire request frames decoded", |r, _| r.net_frames.get()),
    counter(Some("net_sheds"), Some("sudoku_net_sheds_total"),
        "Wire requests shed with RETRY", |r, _| r.net_sheds.get()),
    counter(Some("net_malformed"), Some("sudoku_net_malformed_total"),
        "Malformed wire frames", |r, _| r.net_malformed.get()),
    // Recovery ladder (CacheStats).
    counter(None, Some("sudoku_ecc1_repairs_total"),
        "ECC-1 single-bit fixes", |_, s| s.stats.ecc1_repairs),
    counter(None, Some("sudoku_meta_repairs_total"),
        "ECC-metadata regenerations", |_, s| s.stats.meta_repairs),
    counter(None, Some("sudoku_multibit_detections_total"),
        "Lines flagged multibit by CRC", |_, s| s.stats.multibit_detections),
    counter(None, Some("sudoku_raid4_repairs_total"),
        "RAID-4 reconstructions", |_, s| s.stats.raid4_repairs),
    counter(None, Some("sudoku_sdr_repairs_total"),
        "SDR resurrections", |_, s| s.stats.sdr_repairs),
    counter(None, Some("sudoku_sdr_trials_total"),
        "SDR flip-and-check trials", |_, s| s.stats.sdr_trials),
    counter(None, Some("sudoku_hash2_repairs_total"),
        "Repairs only the Hash-2 dimension delivered", |_, s| s.stats.hash2_repairs),
    counter(None, Some("sudoku_due_lines_total"),
        "Lines left uncorrectable", |_, s| s.stats.due_lines),
    counter(None, Some("sudoku_group_scans_total"),
        "Whole-group recovery reads", |_, s| s.stats.group_scans),
    // Degraded mode.
    counter(None, Some("sudoku_skipped_h2_escalations_total"),
        "H2 escalations refused (shard down)", |_, s| s.degraded.skipped_h2_escalations),
    counter(None, Some("sudoku_shard_down_rejects_total"),
        "Requests rejected fast on quarantined shards", |_, s| s.degraded.shard_down_rejects),
    counter(None, Some("sudoku_stuck_reasserts_total"),
        "Bits re-corrupted by stuck cells", |_, s| s.degraded.stuck_reasserts),
    counter(None, Some("sudoku_spare_strikes_total"),
        "Sparing strikes recorded", |_, s| s.degraded.strikes),
    gauge(None, Some("sudoku_spared_lines"),
        "Lines remapped to spare pools", |_, s| s.degraded.spared_lines),
    // Latency quantiles.
    gauge(None, Some("sudoku_read_latency_ns_p99"),
        "Demand-read latency p99 (histogram upper bound)",
        |_, s| s.hist("read_latency_ns").quantile(0.99)),
    gauge(None, Some("sudoku_read_latency_ns_p999"),
        "Demand-read latency p999 (histogram upper bound)",
        |_, s| s.hist("read_latency_ns").quantile(0.999)),
];

const fn hist(
    json: &'static str,
    prom: &'static str,
    help: &'static str,
    read: fn(&TelemetryRegistry) -> &AtomicHist,
) -> HistMetric {
    HistMetric {
        json,
        prom,
        help,
        read,
    }
}

/// Every exported histogram.
#[rustfmt::skip]
const HISTOGRAMS: &[HistMetric] = &[
    hist("read_latency_ns", "sudoku_read_latency_ns",
        "Demand-read latency", |r| &r.read_latency_ns),
    hist("write_latency_ns", "sudoku_write_latency_ns",
        "Demand-write latency", |r| &r.write_latency_ns),
    hist("queue_wait_ns", "sudoku_queue_wait_ns", "Queue-wait phase", |r| &r.queue_wait_ns),
    hist("shard_service_ns", "sudoku_shard_service_ns",
        "Shard-service phase", |r| &r.shard_service_ns),
    hist("h2_gather_ns", "sudoku_h2_gather_ns",
        "Cross-shard H2 gather+repair phase", |r| &r.h2_gather_ns),
    hist("scrub_tick_ns", "sudoku_scrub_tick_ns", "Scrub-tick duration", |r| &r.scrub_tick_ns),
    hist("tick_lag_ns", "sudoku_tick_lag_ns", "Scrub-tick lag", |r| &r.tick_lag_ns),
    hist("scrub_quota", "sudoku_scrub_quota_packets",
        "Adaptive scrub quota per daemon visit", |r| &r.scrub_quota_hist),
];

/// One coherent picture of the whole service at a sampling instant: the
/// registry's lock-free metrics, plus the recovery-ladder and degraded
/// counters pulled (briefly, under the shard mutexes) from the engine.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// Monotone snapshot sequence number (per sampler/scraper).
    pub seq: u64,
    /// Milliseconds since the UNIX epoch at capture time.
    pub unix_ms: u64,
    /// Quarantined shards, ascending.
    pub quarantined: Vec<usize>,
    /// Total shard count.
    pub shards: usize,
    /// Whether the scrub daemon died to a caught panic.
    pub daemon_dead: bool,
    /// Per-shard live queue depth.
    pub queue_depths: Vec<u64>,
    /// Per-shard spare-pool occupancy (lines remapped).
    pub spare_occupancy: Vec<u64>,
    /// Recovery-ladder counters (ECC-1 fixes, SDR trials, RAID-4/H2
    /// reconstructions, DUEs, group scans) summed over shards+coordinator.
    pub stats: CacheStats,
    /// Degraded-mode counters (sparing, stuck physics, skipped H2, …).
    pub degraded: DegradedStats,
    /// One histogram per [`HISTOGRAMS`] row, in table order.
    hists: Vec<Histogram>,
    /// One value per [`SCALARS`] row, in table order.
    scalars: Vec<u64>,
    /// Sampled per-request traces, oldest first.
    pub recent_traces: Vec<TraceRecord>,
    /// The audit plane's view (scrub deadlines, burn rates, alerts) when
    /// the capture was given one.
    pub audit: Option<AuditSnapshot>,
    /// The spatial reliability plane's dashboard grids.
    pub heatmap: HeatmapSnapshot,
}

fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl TelemetrySnapshot {
    /// Captures the system state: lock-free reads of the registry, plus a
    /// brief pass under the shard mutexes for [`CacheStats`] and
    /// [`DegradedStats`] (poison-tolerant — quarantined shards are still
    /// read).
    pub fn capture(seq: u64, state: &ShardedCache, reg: &TelemetryRegistry) -> TelemetrySnapshot {
        Self::capture_with_audit(seq, state, reg, None)
    }

    /// [`TelemetrySnapshot::capture`], additionally folding in the audit
    /// plane's deadline/burn/alert view when one is running.
    pub fn capture_with_audit(
        seq: u64,
        state: &ShardedCache,
        reg: &TelemetryRegistry,
        audit: Option<&AuditPlane>,
    ) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot {
            seq,
            unix_ms: unix_ms_now(),
            quarantined: state.health().quarantined(),
            shards: state.n_shards(),
            daemon_dead: reg.daemon_dead.get() != 0,
            queue_depths: reg.queue_depths(),
            spare_occupancy: state.spare_occupancy(),
            stats: state.stats(),
            degraded: state.degraded_stats(),
            hists: HISTOGRAMS
                .iter()
                .map(|h| (h.read)(reg).snapshot())
                .collect(),
            scalars: Vec::with_capacity(SCALARS.len()),
            recent_traces: reg.recent_traces(),
            audit: audit.map(AuditPlane::snapshot),
            heatmap: HeatmapSnapshot::capture(state.heatmaps()),
        };
        snap.scalars = SCALARS.iter().map(|m| (m.read)(reg, &snap)).collect();
        snap
    }

    /// Whether every shard is up and the daemon (if it ever ran) is alive.
    pub fn healthy(&self) -> bool {
        self.quarantined.is_empty() && !self.daemon_dead
    }

    /// The captured histogram of the [`HISTOGRAMS`] row with JSON key
    /// `json`.
    ///
    /// # Panics
    ///
    /// If no row has that key (a typo in a table reader).
    fn hist(&self, json: &str) -> &Histogram {
        let row = HISTOGRAMS.iter().position(|h| h.json == json);
        &self.hists[row.expect("histogram row")]
    }

    /// One JSON object per snapshot — the flight-recorder JSONL line and
    /// the `/snapshot.json` body.
    pub fn to_json(&self) -> String {
        let traces: Vec<String> = self.recent_traces.iter().map(|t| t.to_json()).collect();
        let mut obj = JsonObject::new();
        obj.field_u64("seq", self.seq)
            .field_u64("unix_ms", self.unix_ms)
            .field_bool("healthy", self.healthy())
            .field_array_u64("quarantined", self.quarantined.iter().map(|&s| s as u64))
            .field_bool("daemon_dead", self.daemon_dead)
            .field_array_u64("queue_depths", self.queue_depths.iter().copied())
            .field_array_u64("spare_occupancy", self.spare_occupancy.iter().copied());
        for (row, &v) in SCALARS.iter().zip(&self.scalars) {
            if let Some(key) = row.json {
                obj.field_u64(key, v);
            }
        }
        obj.field_raw("stats", &self.stats.to_json())
            .field_raw("degraded", &self.degraded.to_json());
        for (row, h) in HISTOGRAMS.iter().zip(&self.hists) {
            obj.field_raw(row.json, &h.to_json());
        }
        obj.field_raw("recent_traces", &format!("[{}]", traces.join(",")));
        if let Some(audit) = &self.audit {
            obj.field_raw("audit", &audit.to_json());
        }
        obj.field_raw("heatmap", &self.heatmap.to_json());
        obj.finish()
    }

    /// Prometheus text exposition (version 0.0.4) of the snapshot.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (row, v) in SCALARS.iter().zip(&self.scalars) {
            if let Some(name) = row.prom {
                prometheus_scalar(&mut out, name, row.help, row.kind, v);
            }
        }
        // Per-shard labelled gauges.
        out.push_str("# HELP sudoku_shard_up Liveness per shard\n# TYPE sudoku_shard_up gauge\n");
        for shard in 0..self.shards {
            let up = u64::from(!self.quarantined.contains(&shard));
            out.push_str(&format!("sudoku_shard_up{{shard=\"{shard}\"}} {up}\n"));
        }
        out.push_str(
            "# HELP sudoku_queue_depth Live request-queue depth per shard\n# TYPE sudoku_queue_depth gauge\n",
        );
        for (shard, depth) in self.queue_depths.iter().enumerate() {
            out.push_str(&format!(
                "sudoku_queue_depth{{shard=\"{shard}\"}} {depth}\n"
            ));
        }
        out.push_str(
            "# HELP sudoku_spare_occupancy Spare-pool occupancy per shard\n# TYPE sudoku_spare_occupancy gauge\n",
        );
        for (shard, n) in self.spare_occupancy.iter().enumerate() {
            out.push_str(&format!(
                "sudoku_spare_occupancy{{shard=\"{shard}\"}} {n}\n"
            ));
        }
        for (row, h) in HISTOGRAMS.iter().zip(&self.hists) {
            prometheus_hist(&mut out, row.prom, row.help, h);
        }
        if let Some(audit) = &self.audit {
            // Non-finite estimates (no data yet) render as 0.
            let fgauge = |out: &mut String, name: &str, help: &str, v: f64| {
                let v = if v.is_finite() { v } else { 0.0 };
                prometheus_scalar(out, name, help, MetricKind::Gauge, v);
            };
            let counter = |out: &mut String, name: &str, help: &str, v: u64| {
                prometheus_scalar(out, name, help, MetricKind::Counter, v);
            };
            let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
                prometheus_scalar(out, name, help, MetricKind::Gauge, v);
            };
            counter(
                &mut out,
                "sudoku_scrub_deadline_misses_total",
                "Packet sweeps whose achieved interval exceeded the hard deadline",
                audit.scrub_deadline_misses,
            );
            gauge(
                &mut out,
                "sudoku_scrub_deadline_ns",
                "Configured hard scrub deadline",
                audit.scrub_deadline_ns,
            );
            out.push_str(
                "# HELP sudoku_scrub_deadline_misses Deadline misses per shard\n\
                 # TYPE sudoku_scrub_deadline_misses counter\n",
            );
            for (shard, misses) in audit.per_shard_misses.iter().enumerate() {
                out.push_str(&format!(
                    "sudoku_scrub_deadline_misses{{shard=\"{shard}\"}} {misses}\n"
                ));
            }
            out.push_str(
                "# HELP sudoku_scrub_staleness_ns Worst live packet staleness per shard\n\
                 # TYPE sudoku_scrub_staleness_ns gauge\n",
            );
            for (shard, ns) in audit.per_shard_worst_staleness_ns.iter().enumerate() {
                out.push_str(&format!(
                    "sudoku_scrub_staleness_ns{{shard=\"{shard}\"}} {ns}\n"
                ));
            }
            prometheus_hist(
                &mut out,
                "sudoku_achieved_scrub_interval_ns",
                "Achieved per-packet scrub interval",
                &audit.achieved_scrub_interval_ns,
            );
            fgauge(
                &mut out,
                "sudoku_observed_ber",
                "Observed per-interval raw bit-error rate (slow window)",
                audit.observed_ber,
            );
            fgauge(
                &mut out,
                "sudoku_projected_due_fit",
                "Projected DUE FIT at the observed BER",
                audit.projected_fit,
            );
            fgauge(
                &mut out,
                "sudoku_error_budget_burn_fast",
                "Fast-window error-budget burn rate",
                audit.burn_fast,
            );
            fgauge(
                &mut out,
                "sudoku_error_budget_burn_slow",
                "Slow-window error-budget burn rate",
                audit.burn_slow,
            );
            counter(
                &mut out,
                "sudoku_alerts_critical_total",
                "Critical alerts raised",
                audit.alerts_critical,
            );
            counter(
                &mut out,
                "sudoku_alerts_dropped_total",
                "Alerts evicted from the ring before scrape",
                audit.alerts_dropped,
            );
            out.push_str(
                "# HELP sudoku_alerts_total Alerts raised, by class\n\
                 # TYPE sudoku_alerts_total counter\n",
            );
            for (class, n) in &audit.alerts_by_class {
                out.push_str(&format!("sudoku_alerts_total{{class=\"{class}\"}} {n}\n"));
            }
            gauge(
                &mut out,
                "sudoku_worst_region",
                "Index of the region behind the worst-region gauges",
                audit.worst_region,
            );
            fgauge(
                &mut out,
                "sudoku_worst_region_ber",
                "Worst-region observed per-interval raw bit-error rate (slow window)",
                audit.worst_region_ber,
            );
            fgauge(
                &mut out,
                "sudoku_worst_region_burn",
                "Error-budget burn rate were every region at the worst region's BER",
                audit.worst_region_burn,
            );
            if let Some(spatial) = &audit.spatial {
                fgauge(
                    &mut out,
                    "sudoku_spatial_z",
                    "Max-cell z-score of the latest spatial-correlation window",
                    spatial.z,
                );
                fgauge(
                    &mut out,
                    "sudoku_spatial_dispersion",
                    "Index of dispersion (variance/mean) of the latest window's cell deltas",
                    spatial.dispersion,
                );
                fgauge(
                    &mut out,
                    "sudoku_spatial_skew",
                    "Hottest cell over the i.i.d.-expected per-cell mean, latest window",
                    spatial.skew(),
                );
                gauge(
                    &mut out,
                    "sudoku_spatial_fired",
                    "1 while the latest window rejected the i.i.d. failure hypothesis",
                    u64::from(spatial.fired),
                );
            }
        }
        let hm = &self.heatmap;
        let n_regions = hm.n_regions.max(1);
        let grid = |out: &mut String, name: &str, help: &str, kind: MetricKind, cells: &[u64]| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {}\n",
                kind.name()
            ));
            for (i, v) in cells.iter().enumerate() {
                let (shard, region) = (i / n_regions, i % n_regions);
                out.push_str(&format!(
                    "{name}{{shard=\"{shard}\",region=\"{region}\"}} {v}\n"
                ));
            }
        };
        grid(
            &mut out,
            "sudoku_region_observed_flips_total",
            "Observed repair events (ECC-1 + RAID-4 + SDR + DUE) per (shard, region) cell",
            MetricKind::Counter,
            &hm.observed,
        );
        grid(
            &mut out,
            "sudoku_region_due_total",
            "Uncorrectable lines per (shard, region) cell",
            MetricKind::Counter,
            &hm.due,
        );
        grid(
            &mut out,
            "sudoku_region_scrub_staleness_ns",
            "Last achieved scrub interval per (shard, region) cell",
            MetricKind::Gauge,
            &hm.staleness,
        );
        out
    }
}

/// Renders one unlabelled sample with its HELP and TYPE lines.
fn prometheus_scalar(
    out: &mut String,
    name: &str,
    help: &str,
    kind: MetricKind,
    v: impl std::fmt::Display,
) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {}\n{name} {v}\n",
        kind.name()
    ));
}

/// Renders one histogram in Prometheus exposition shape: cumulative `le`
/// buckets (sparse — only buckets that change the cumulative count, plus
/// `+Inf`), then `_sum` and `_count`.
fn prometheus_hist(out: &mut String, name: &str, help: &str, h: &Histogram) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (bound, count) in h.all_buckets() {
        if count == 0 {
            continue;
        }
        cumulative += count;
        if bound == u64::MAX {
            continue; // folded into +Inf below
        }
        out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{name}_sum {}\n", h.sum()));
    out.push_str(&format!("{name}_count {}\n", h.count()));
}

/// Bounded ring of the most recent [`TelemetrySnapshot`]s — the in-memory
/// half of the flight recorder. A crash or chaos event leaves the last
/// `cap × sample_every` seconds of system state here (and, when a JSONL
/// path is configured, on disk).
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<TelemetrySnapshot>>,
    cap: usize,
    pushed: AtomicU64,
}

impl FlightRecorder {
    /// An empty recorder keeping the most recent `cap` snapshots.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(cap.max(1))),
            cap: cap.max(1),
            pushed: AtomicU64::new(0),
        }
    }

    /// Appends a snapshot, evicting the oldest at capacity.
    pub fn push(&self, snap: TelemetrySnapshot) {
        self.pushed.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut ring) = self.ring.lock() {
            if ring.len() == self.cap {
                ring.pop_front();
            }
            ring.push_back(snap);
        }
    }

    /// The most recent snapshot, if any.
    pub fn latest(&self) -> Option<TelemetrySnapshot> {
        self.ring.lock().ok().and_then(|r| r.back().cloned())
    }

    /// Every retained snapshot, oldest first.
    pub fn snapshots(&self) -> Vec<TelemetrySnapshot> {
        self.ring
            .lock()
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Snapshots retained right now.
    pub fn len(&self) -> usize {
        self.ring.lock().map(|r| r.len()).unwrap_or(0)
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots ever pushed (retained or evicted).
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedCache;
    use sudoku_core::{Scheme, SudokuConfig};

    fn snap(seq: u64) -> TelemetrySnapshot {
        let state = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        let reg = TelemetryRegistry::new(2);
        TelemetrySnapshot::capture(seq, &state, &reg)
    }

    #[test]
    fn registry_counts_and_phases() {
        let reg = TelemetryRegistry::new(4);
        reg.reads.inc();
        reg.reads.inc();
        reg.depth(2).inc();
        assert_eq!(reg.queue_depths(), vec![0, 0, 1, 0]);
        reg.note_request(TraceRecord {
            trace: 0,
            shard: 1,
            write: false,
            path: TracePath::Queued,
            outcome: TraceOutcome::Ok,
            queue_wait_ns: 500,
            service_ns: 1500,
            h2_ns: 0,
        });
        reg.note_request(TraceRecord {
            trace: 1,
            shard: 0,
            write: true,
            path: TracePath::Inline,
            outcome: TraceOutcome::Ok,
            queue_wait_ns: 100,
            service_ns: 900,
            h2_ns: 400,
        });
        assert_eq!(reg.read_latency_ns.snapshot().count(), 1);
        assert_eq!(reg.write_latency_ns.snapshot().count(), 1);
        assert_eq!(reg.queue_wait_ns.snapshot().count(), 2);
        assert_eq!(reg.h2_gather_ns.snapshot().count(), 1);
        // trace 0 is a sample multiple; trace 1 is not.
        assert_eq!(reg.recent_traces().len(), 1);
        let hists = reg.service_hists();
        assert_eq!(hists.read_latency_ns.count(), 1);
        assert_eq!(hists.read_latency_ns.max(), 2000);
    }

    #[test]
    fn snapshot_json_and_prometheus_render() {
        let state = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        let reg = TelemetryRegistry::new(2);
        reg.reads.add(3);
        reg.note_request(TraceRecord {
            trace: 0,
            shard: 0,
            write: false,
            path: TracePath::Lockfree,
            outcome: TraceOutcome::Ok,
            queue_wait_ns: 100,
            service_ns: 200,
            h2_ns: 0,
        });
        let snap = TelemetrySnapshot::capture(7, &state, &reg);
        assert!(snap.healthy());
        let json = snap.to_json();
        assert!(json.contains("\"seq\":7"), "{json}");
        assert!(json.contains("\"reads\":3"), "{json}");
        assert!(json.contains("\"recent_traces\":[{"), "{json}");
        assert!(json.contains("\"queue_wait_ns\""), "{json}");
        let prom = snap.to_prometheus();
        assert!(prom.contains("sudoku_reads_total 3"), "{prom}");
        assert!(prom.contains("sudoku_shard_up{shard=\"0\"} 1"), "{prom}");
        assert!(
            prom.contains("sudoku_read_latency_ns_bucket{le=\"+Inf\"} 1"),
            "{prom}"
        );
        assert!(prom.contains("sudoku_read_latency_ns_count 1"), "{prom}");
        assert!(
            prom.contains("# TYPE sudoku_ecc1_repairs_total counter"),
            "{prom}"
        );
    }

    #[test]
    fn quarantine_shows_in_snapshot_health() {
        let state = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        let reg = TelemetryRegistry::new(2);
        state.health().quarantine(1);
        let snap = TelemetrySnapshot::capture(0, &state, &reg);
        assert!(!snap.healthy());
        assert_eq!(snap.quarantined, vec![1]);
        let prom = snap.to_prometheus();
        assert!(prom.contains("\nsudoku_shards_up 1\n"), "{prom}");
        assert!(prom.contains("sudoku_shard_up{shard=\"1\"} 0"), "{prom}");
    }

    #[test]
    fn every_metric_is_declared_once() {
        let mut keys = std::collections::BTreeSet::new();
        let mut families = std::collections::BTreeSet::new();
        for row in SCALARS {
            assert!(
                row.json.is_some() || row.prom.is_some(),
                "{row:?} exports nothing"
            );
            if let Some(key) = row.json {
                assert!(keys.insert(key), "JSON key {key} declared twice");
            }
            if let Some(name) = row.prom {
                assert!(families.insert(name), "family {name} declared twice");
                assert_eq!(
                    row.kind == MetricKind::Counter,
                    name.ends_with("_total"),
                    "{name}: counter families, and only they, end in _total"
                );
            }
        }
        for row in HISTOGRAMS {
            assert!(
                keys.insert(row.json),
                "JSON key {} declared twice",
                row.json
            );
            assert!(
                families.insert(row.prom),
                "family {} declared twice",
                row.prom
            );
        }
        // Every row renders, with its declared HELP and TYPE.
        let parsed = crate::promtext::parse(&snap(0).to_prometheus()).expect("valid exposition");
        for row in SCALARS {
            if let Some(name) = row.prom {
                assert_eq!(parsed.helps.get(name).map(String::as_str), Some(row.help));
                assert_eq!(
                    parsed.types.get(name).map(String::as_str),
                    Some(row.kind.name())
                );
            }
        }
        for row in HISTOGRAMS {
            assert_eq!(
                parsed.types.get(row.prom).map(String::as_str),
                Some("histogram")
            );
        }
    }

    #[test]
    fn flight_recorder_is_bounded_fifo() {
        let recorder = FlightRecorder::new(3);
        assert!(recorder.is_empty());
        for seq in 0..5 {
            recorder.push(snap(seq));
        }
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.pushed(), 5);
        let seqs: Vec<u64> = recorder.snapshots().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(recorder.latest().unwrap().seq, 4);
    }
}
