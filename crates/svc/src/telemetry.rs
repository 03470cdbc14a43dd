//! The live telemetry plane: a lock-free metrics registry every thread
//! updates wait-free, a sampler thread that snapshots the whole system
//! into a bounded flight-recorder ring (and optional JSONL time series),
//! and the [`TelemetrySnapshot`] both the `/metrics` Prometheus exposition
//! and `/snapshot.json` render from.
//!
//! Until this plane existed, a soak or chaos run was a black box until
//! `shutdown()` assembled the final [`ServiceReport`]; now the recovery
//! ladder is observable *while it operates*: per-shard mutex waiters and
//! health, scrub-daemon progress and tick lag, ECC-1 / SDR / RAID-4 /
//! Hash-2 ladder counters, spare-pool occupancy, and per-phase request
//! latency (mutex wait → shard service → cross-shard H2 gather+repair)
//! threaded by a per-request trace ID.
//!
//! Every exported value is declared once, as one row of the `METRICS`
//! table: its JSON key, its Prometheus family, HELP text and type, and
//! the function that reads it — a scalar, a per-shard or per-class
//! family, a `shard × region` grid or a histogram, from the registry (at
//! capture), the snapshot, its audit section or its heatmap section.
//! [`TelemetrySnapshot::capture`] builds every snapshot with its audit
//! section; [`TelemetrySnapshot::to_prometheus`] and the three `to_json`
//! renderers (the snapshot, [`AuditSnapshot`], [`HeatmapSnapshot`]) walk
//! the rows. The spatial grids are always there: the [`ShardedCache`]
//! builds them with itself.
//!
//! Cost model: the hot path touches only [`Counter`]s, [`Gauge`]s and
//! [`AtomicHist`]s — no locks, no allocation. A counter or histogram
//! update is a plain relaxed load and store into a stripe only the
//! calling thread writes (past 15 live writer threads, the rest share
//! one stripe and pay a locked `fetch_add`); a gauge is one relaxed
//! atomic read-modify-write. Snapshots are pulled by the sampler (or a
//! scrape) and take no shard or coordinator mutex: the recovery-ladder
//! counters are the totals of the heatmap grids the recorders tap, so a
//! shard lock held for long stalls no scrape.
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
use sudoku_obs::json::JsonObject;
use sudoku_obs::{
    AtomicHist, CorrelationStat, Counter, Gauge, Heatmaps, Histogram, ServiceHistograms,
};

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
    /// Served under the shard mutex, which was free.
    Inline,
    /// Served under the shard mutex after waiting for another thread to
    /// release it.
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
    /// The per-request trace ID the handle allocated at admission.
    pub trace: u64,
    /// Owning shard.
    pub shard: u32,
    /// Whether the request was a write.
    pub write: bool,
    /// Which demand path served it.
    pub path: TracePath,
    /// How it ended.
    pub outcome: TraceOutcome,
    /// Time spent blocked on the shard mutex another thread held (0 when
    /// it was free), ns.
    pub queue_wait_ns: u64,
    /// Shard-local service time (mutex taken → reply), ns. A lock-free read
    /// or an inline write is timed only when its trace is a multiple of
    /// [`LOCKFREE_TIME_EVERY`] (or it is its thread's first on that path),
    /// and only timed ops leave a record, so every record carries a
    /// measured time.
    pub service_ns: u64,
    /// Cross-shard Hash-2 gather+repair time (0 when not escalated), ns.
    pub h2_ns: u64,
}

impl TraceRecord {
    /// End-to-end latency: mutex wait plus service (H2 time is inside the
    /// service span — the client escalates while serving the request).
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

/// One lock-free read in this many, and one inline write in this many,
/// is timed: the op whose trace ID is a multiple of it, plus each
/// thread's first on each of the two paths. An untimed op skips both
/// clock reads and leaves no exemplar or trace record, but is still
/// counted and still lands one sample in each histogram a timed op does,
/// charged with its thread's last timed latency on the same path. So
/// every `_count` and bucket total stays exact, and only the `_sum`,
/// `min` and `max` of the lock-free-read and inline-write shares are
/// estimates. Reads that take the shard lock (misses, which can end in a
/// DUE) and ops that waited for the shard mutex are always timed.
pub const LOCKFREE_TIME_EVERY: u64 = 16;

// Every lock-free or inline-write trace the ring samples is a timed one.
const _: () = assert!(TRACE_SAMPLE.is_multiple_of(LOCKFREE_TIME_EVERY));

const TRACE_RING: usize = 64;

/// The lock-free metrics registry shared by the client handles, the scrub
/// daemon, the sampler, and the scrape endpoint.
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
    /// Phase: time blocked on a held shard mutex, ns (0 for an op that
    /// found it free).
    pub queue_wait_ns: AtomicHist,
    /// Phase: shard-local service time (mutex taken → reply), ns.
    pub shard_service_ns: AtomicHist,
    /// Phase: cross-shard Hash-2 gather+repair time, ns (demand + scrub).
    pub h2_gather_ns: AtomicHist,
    /// Wall-clock duration of one shard scrub tick, ns.
    pub scrub_tick_ns: AtomicHist,
    /// Scrub-tick start lag behind the deadline, ns.
    pub tick_lag_ns: AtomicHist,
    /// Per-shard waiter count, sampled as each waiting op takes the shard
    /// mutex (itself included).
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
    /// Wire requests shed with RETRY (in-flight window full or shard
    /// saturated).
    pub net_sheds: Counter,
    /// Malformed wire frames (each also closes its connection).
    pub net_malformed: Counter,
    depths: Vec<Gauge>,
    /// Worst tick-start lag since the watchdog last took it, ns.
    peak_tick_lag_ns: AtomicU64,
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
            peak_tick_lag_ns: AtomicU64::new(0),
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

    /// `shard`'s live depth gauge: threads blocked on its mutex.
    #[inline]
    pub fn depth(&self, shard: usize) -> &Gauge {
        &self.depths[shard]
    }

    /// Served demand ops that waited for a held shard mutex, and all
    /// served demand ops: the `queue_wait_ns` samples above its first
    /// bucket (1 ns), and all its samples (every served op records one).
    pub fn waited_ops(&self) -> (u64, u64) {
        let waits = self.queue_wait_ns.snapshot();
        let free = waits.all_buckets().first().map_or(0, |&(_, c)| c);
        (waits.count() - free, waits.count())
    }

    /// Threads blocked on each shard's mutex right now.
    pub fn queue_depths(&self) -> Vec<u64> {
        self.depths.iter().map(Gauge::get).collect()
    }

    /// Records one daemon tick's start lag behind its deadline: into the
    /// lag histogram, the most-recent-tick gauge, and the peak that
    /// [`TelemetryRegistry::take_peak_tick_lag`] hands the watchdog.
    pub fn record_tick_lag(&self, lag_ns: u64) {
        self.tick_lag_ns.record(lag_ns);
        self.last_tick_lag_ns.set(lag_ns);
        self.peak_tick_lag_ns.fetch_max(lag_ns, Ordering::Relaxed);
    }

    /// The worst tick lag recorded since the previous call, and resets
    /// it: a late tick between two watchdog scans is seen at the next scan
    /// even when on-time ticks followed it. With no tick since, this is 0:
    /// a lag is read once, by the scan after its tick started (a daemon
    /// that stops ticking is `daemon_stuck`'s to report).
    pub fn take_peak_tick_lag(&self) -> u64 {
        self.peak_tick_lag_ns.swap(0, Ordering::Relaxed)
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

    /// Accounts the histograms of one untimed lock-free read or inline
    /// write (see [`LOCKFREE_TIME_EVERY`]): the samples
    /// [`Self::note_request`] would record for it, with `service_ns` its
    /// thread's last timed latency on the same path, and no exemplar or
    /// trace record.
    #[inline]
    pub(crate) fn note_carried(&self, write: bool, service_ns: u64) {
        self.queue_wait_ns.record(0);
        self.shard_service_ns.record(service_ns);
        if write {
            self.write_latency_ns.record(service_ns);
        } else {
            self.read_latency_ns.record(service_ns);
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
/// scrub-interval gauge, all row-major `shard × region`, plus the totals
/// of the repair-tier grids, which are the live recovery-ladder counters.
/// (The full nine-grid bundle stays on `/heatmap.json`; snapshots carry
/// the three a dashboard panels on.)
#[derive(Clone, Debug)]
pub struct HeatmapSnapshot {
    /// Shard rows in each grid.
    pub n_shards: usize,
    /// Region columns in each grid.
    pub n_regions: usize,
    /// ECC-1 grid total: single-bit payload fixes plus ECC-field
    /// regenerations.
    pub ecc1_repairs: u64,
    /// RAID-4 grid total.
    pub raid4_repairs: u64,
    /// SDR grid total.
    pub sdr_repairs: u64,
    /// Hash-2 grid total (a subset of the RAID-4 and SDR repairs).
    pub hash2_repairs: u64,
    /// Observed repair events per cell (ECC-1 + RAID-4 + SDR + DUE).
    pub observed: Vec<u64>,
    /// Uncorrectable lines per cell.
    pub due: Vec<u64>,
    /// Last achieved scrub interval per cell, ns.
    pub staleness: Vec<u64>,
}

impl HeatmapSnapshot {
    /// Captures the three dashboard grids and the ladder totals from the
    /// live heatmaps.
    pub fn capture(maps: &Heatmaps) -> HeatmapSnapshot {
        HeatmapSnapshot {
            n_shards: maps.geometry().n_shards(),
            n_regions: maps.geometry().n_regions(),
            ecc1_repairs: maps.ecc1.total(),
            raid4_repairs: maps.raid4.total(),
            sdr_repairs: maps.sdr.total(),
            hash2_repairs: maps.hash2.total(),
            observed: maps.observed_cells(),
            due: maps.due.snapshot(),
            staleness: maps.staleness.snapshot(),
        }
    }

    /// The snapshot as a JSON object (the `heatmap` field of
    /// `/snapshot.json`).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        json_rows(&mut obj, |_, read| match read {
            Read::Heatmap(read) => Some(read(self)),
            _ => None,
        });
        obj.finish()
    }

    /// A row-major grid of this snapshot's shape.
    fn grid(&self, cells: &[u64]) -> Value {
        Value::Grid(cells.to_vec(), self.n_regions.max(1))
    }
}

/// Prometheus type of a [`Metric`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricKind {
    /// Monotone count; the family name ends in `_total`.
    Counter,
    /// A level that can go down.
    Gauge,
    /// `_bucket` / `_sum` / `_count` series.
    Histogram,
}

impl MetricKind {
    /// The exposition `# TYPE` word.
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One row's value in one snapshot, in the shape both renderers share.
#[derive(Clone, Debug)]
pub(crate) enum Value {
    /// One sample; a JSON number.
    U64(u64),
    /// One sample; a non-finite estimate (no data yet) renders as 0 in
    /// the exposition and `null` in JSON.
    F64(f64),
    /// One sample per shard (`{shard}`); a JSON array.
    Shards(Vec<u64>),
    /// One sample per alert class (`{class}`); a JSON object.
    Classes(Vec<(&'static str, u64)>),
    /// Row-major `shard × region` cells, with the region count
    /// (`{shard,region}`); a JSON array.
    Grid(Vec<u64>, usize),
    /// A histogram; a JSON object.
    Hist(Histogram),
    /// Nothing to export in this snapshot (a spatial gauge before the
    /// detector's first verdict).
    Absent,
}

/// Where a row's value comes from. The variant also names the row's JSON
/// object: the snapshot's top level, `"audit"` or `"heatmap"`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Read {
    /// A registry counter or gauge, copied at capture.
    Reg(fn(&TelemetryRegistry) -> u64),
    /// A registry histogram, copied at capture.
    RegHist(fn(&TelemetryRegistry) -> &AtomicHist),
    /// The rest of the snapshot (shard health, degraded counters,
    /// quantiles).
    Snap(fn(&TelemetrySnapshot) -> Value),
    /// The audit section.
    Audit(fn(&AuditSnapshot) -> Value),
    /// The heatmap section.
    Heatmap(fn(&HeatmapSnapshot) -> Value),
}

/// One exported value, declared once: its JSON key, its Prometheus
/// family, HELP text and type, and how a snapshot reads it.
#[derive(Clone, Copy, Debug)]
struct Metric {
    /// JSON key in the row's object; `None` for Prometheus-only rows (the
    /// degraded rows sit in the nested `degraded` object instead, the
    /// spatial gauges in the `spatial` verdict).
    json: Option<&'static str>,
    /// Prometheus family; `None` for JSON-only rows.
    prom: Option<&'static str>,
    /// Prometheus `# HELP` text.
    help: &'static str,
    /// Prometheus `# TYPE`.
    kind: MetricKind,
    read: Read,
}

const fn counter(
    json: Option<&'static str>,
    prom: Option<&'static str>,
    help: &'static str,
    read: Read,
) -> Metric {
    Metric {
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
    read: Read,
) -> Metric {
    Metric {
        kind: MetricKind::Gauge,
        ..counter(json, prom, help, read)
    }
}

const fn hist(json: &'static str, prom: &'static str, help: &'static str, read: Read) -> Metric {
    Metric {
        kind: MetricKind::Histogram,
        ..counter(Some(json), Some(prom), help, read)
    }
}

/// A spatial gauge's value in the detector's verdict; [`Value::Absent`]
/// before the first one.
fn spatial(audit: &AuditSnapshot, read: fn(&CorrelationStat) -> Value) -> Value {
    audit.spatial.as_ref().map_or(Value::Absent, read)
}

/// Every exported value. Each renderer walks the rows in this order.
#[rustfmt::skip]
const METRICS: &[Metric] = &[
    // Shards.
    gauge(Some("queue_depths"), Some("sudoku_queue_depth"),
        "Threads blocked on each shard's mutex",
        Read::Snap(|s| Value::Shards(s.queue_depths.clone()))),
    gauge(Some("spare_occupancy"), Some("sudoku_spare_occupancy"),
        "Spare-pool occupancy per shard", Read::Snap(|s| Value::Shards(s.spare_occupancy.clone()))),
    gauge(None, Some("sudoku_shard_up"), "Liveness per shard", Read::Snap(|s| Value::Shards(
        (0..s.shards).map(|shard| u64::from(!s.quarantined.contains(&shard))).collect()))),
    gauge(Some("shards_up"), Some("sudoku_shards_up"), "Shards currently serving",
        Read::Snap(|s| Value::U64((s.shards - s.quarantined.len()) as u64))),
    gauge(Some("shards"), Some("sudoku_shards"),
        "Configured shard count", Read::Snap(|s| Value::U64(s.shards as u64))),
    gauge(None, Some("sudoku_daemon_up"),
        "1 while the scrub daemon is alive", Read::Snap(|s| Value::U64(u64::from(!s.daemon_dead)))),
    // Demand path.
    counter(Some("reads"), Some("sudoku_reads_total"),
        "Demand reads served", Read::Reg(|r| r.reads.get())),
    counter(Some("writes"), Some("sudoku_writes_total"),
        "Demand writes served", Read::Reg(|r| r.writes.get())),
    counter(Some("failed_writes"), Some("sudoku_failed_writes_total"),
        "Demand writes rejected (shard down)", Read::Reg(|r| r.failed_writes.get())),
    counter(Some("escalated_reads"), Some("sudoku_escalated_reads_total"),
        "Demand reads escalated cross-shard", Read::Reg(|r| r.escalated_reads.get())),
    counter(Some("due_reads"), Some("sudoku_due_reads_total"),
        "Demand reads left uncorrectable", Read::Reg(|r| r.due_reads.get())),
    counter(Some("clean_read_lockfree_hits"), Some("sudoku_clean_read_lockfree_hits_total"),
        "Demand reads served lock-free off the seqlock line view",
        Read::Reg(|r| r.clean_read_lockfree_hits.get())),
    counter(Some("seqlock_retries"), Some("sudoku_seqlock_retries_total"),
        "Seqlock retries taken by lock-free reads", Read::Reg(|r| r.seqlock_retries.get())),
    counter(Some("traces_issued"), Some("sudoku_traces_total"),
        "Per-request trace IDs issued", Read::Reg(TelemetryRegistry::traces_issued)),
    // Scrub daemon.
    counter(Some("scrub_ticks"), Some("sudoku_scrub_ticks_total"),
        "Scrub ticks completed", Read::Reg(|r| r.scrub_ticks.get())),
    counter(Some("skipped_ticks"), Some("sudoku_scrub_skipped_ticks_total"),
        "Scrub ticks skipped (quarantined shard)", Read::Reg(|r| r.skipped_ticks.get())),
    counter(Some("injected_lines"), Some("sudoku_injected_lines_total"),
        "Lines faulted by the injectors", Read::Reg(|r| r.injected_lines.get())),
    counter(Some("escalations"), Some("sudoku_scrub_escalations_total"),
        "Cross-shard escalations from scrub leftovers", Read::Reg(|r| r.escalations.get())),
    counter(Some("escalated_lines"), None,
        "Lines handed to scrub escalations", Read::Reg(|r| r.escalated_lines.get())),
    counter(Some("unresolved_lines"), Some("sudoku_scrub_unresolved_lines_total"),
        "Scrub-detected DUE lines", Read::Reg(|r| r.unresolved_lines.get())),
    counter(Some("scrub_lines_swept"), Some("sudoku_scrub_lines_swept_total"),
        "Lines actually swept by the scrub daemon", Read::Reg(|r| r.scrub_lines_swept.get())),
    counter(Some("scrub_floor_clamps"), Some("sudoku_scrub_floor_clamps_total"),
        "Scrub visits where the quota floor was enforced against demand pressure",
        Read::Reg(|r| r.scrub_floor_clamps.get())),
    gauge(Some("scrub_cursor"), Some("sudoku_scrub_cursor"),
        "Next shard the daemon scrubs", Read::Reg(|r| r.scrub_cursor.get())),
    gauge(Some("last_tick_lag_ns"), Some("sudoku_scrub_tick_lag_ns"),
        "Most recent tick's start lag behind deadline", Read::Reg(|r| r.last_tick_lag_ns.get())),
    gauge(Some("scrub_packet_quota"), Some("sudoku_scrub_packet_quota"),
        "Most recent adaptive scrub quota (packets per visit)",
        Read::Reg(|r| r.scrub_packet_quota.get())),
    gauge(Some("scrub_floor_quota"), Some("sudoku_scrub_floor_quota"),
        "Most recent adaptive scrub quota floor (packets)",
        Read::Reg(|r| r.scrub_floor_quota.get())),
    // Wire plane.
    counter(Some("net_connections"), Some("sudoku_net_connections_total"),
        "Wire connections accepted", Read::Reg(|r| r.net_connections.get())),
    gauge(Some("net_open_connections"), Some("sudoku_net_open_connections"),
        "Wire connections open", Read::Reg(|r| r.net_open_connections.get())),
    counter(Some("net_frames"), Some("sudoku_net_frames_total"),
        "Wire request frames decoded", Read::Reg(|r| r.net_frames.get())),
    counter(Some("net_sheds"), Some("sudoku_net_sheds_total"),
        "Wire requests shed with RETRY", Read::Reg(|r| r.net_sheds.get())),
    counter(Some("net_malformed"), Some("sudoku_net_malformed_total"),
        "Malformed wire frames", Read::Reg(|r| r.net_malformed.get())),
    // Recovery ladder: the totals of the heatmap's repair-tier grids.
    counter(Some("ecc1_repairs"), Some("sudoku_ecc1_repairs_total"),
        "ECC-1 repairs: single-bit payload fixes plus ECC-field regenerations",
        Read::Heatmap(|h| Value::U64(h.ecc1_repairs))),
    counter(Some("raid4_repairs"), Some("sudoku_raid4_repairs_total"),
        "RAID-4 reconstructions", Read::Heatmap(|h| Value::U64(h.raid4_repairs))),
    counter(Some("sdr_repairs"), Some("sudoku_sdr_repairs_total"),
        "SDR resurrections", Read::Heatmap(|h| Value::U64(h.sdr_repairs))),
    counter(Some("hash2_repairs"), Some("sudoku_hash2_repairs_total"),
        "Repairs only the Hash-2 dimension delivered",
        Read::Heatmap(|h| Value::U64(h.hash2_repairs))),
    counter(Some("due_lines"), Some("sudoku_due_lines_total"),
        "Lines left uncorrectable", Read::Heatmap(|h| Value::U64(h.due.iter().sum()))),
    // Degraded mode.
    counter(None, Some("sudoku_skipped_h2_escalations_total"),
        "H2 escalations refused (shard down)",
        Read::Snap(|s| Value::U64(s.degraded.skipped_h2_escalations))),
    counter(None, Some("sudoku_shard_down_rejects_total"),
        "Requests rejected fast on quarantined shards",
        Read::Snap(|s| Value::U64(s.degraded.shard_down_rejects))),
    counter(None, Some("sudoku_stuck_reasserts_total"),
        "Bits re-corrupted by stuck cells", Read::Snap(|s| Value::U64(s.degraded.stuck_reasserts))),
    counter(None, Some("sudoku_spare_strikes_total"),
        "Sparing strikes recorded", Read::Snap(|s| Value::U64(s.degraded.strikes))),
    gauge(None, Some("sudoku_spared_lines"),
        "Lines remapped to spare pools", Read::Snap(|s| Value::U64(s.degraded.spared_lines))),
    // Latency and scrub histograms.
    hist("read_latency_ns", "sudoku_read_latency_ns",
        "Demand-read latency; lock-free reads are timed 1 in 16, and an untimed one \
         carries its thread's last timed value, so _sum, min and max are estimates",
        Read::RegHist(|r| &r.read_latency_ns)),
    hist("write_latency_ns", "sudoku_write_latency_ns",
        "Demand-write latency; inline writes are timed 1 in 16, and an untimed one \
         carries its thread's last timed value, so _sum, min and max are estimates",
        Read::RegHist(|r| &r.write_latency_ns)),
    hist("queue_wait_ns", "sudoku_queue_wait_ns",
        "Shard-mutex wait phase", Read::RegHist(|r| &r.queue_wait_ns)),
    hist("shard_service_ns", "sudoku_shard_service_ns",
        "Shard-service phase; lock-free reads and inline writes are timed 1 in 16, and \
         an untimed one carries its thread's last timed value, so _sum, min and max \
         are estimates",
        Read::RegHist(|r| &r.shard_service_ns)),
    hist("h2_gather_ns", "sudoku_h2_gather_ns",
        "Cross-shard H2 gather+repair phase", Read::RegHist(|r| &r.h2_gather_ns)),
    hist("scrub_tick_ns", "sudoku_scrub_tick_ns",
        "Scrub-tick duration", Read::RegHist(|r| &r.scrub_tick_ns)),
    hist("tick_lag_ns", "sudoku_tick_lag_ns", "Scrub-tick lag", Read::RegHist(|r| &r.tick_lag_ns)),
    hist("scrub_quota", "sudoku_scrub_quota_packets",
        "Adaptive scrub quota per daemon visit", Read::RegHist(|r| &r.scrub_quota_hist)),
    gauge(None, Some("sudoku_read_latency_ns_p99"),
        "Demand-read latency p99 (histogram upper bound)",
        Read::Snap(|s| Value::U64(s.hist("read_latency_ns").quantile(0.99)))),
    gauge(None, Some("sudoku_read_latency_ns_p999"),
        "Demand-read latency p999 (histogram upper bound)",
        Read::Snap(|s| Value::U64(s.hist("read_latency_ns").quantile(0.999)))),
    // Audit: scrub deadlines.
    gauge(Some("scrub_deadline_ns"), Some("sudoku_scrub_deadline_ns"),
        "Configured hard scrub deadline", Read::Audit(|a| Value::U64(a.scrub_deadline_ns))),
    gauge(Some("packet_lines"), None,
        "Lines per deadline-tracking packet", Read::Audit(|a| Value::U64(a.packet_lines))),
    counter(Some("scrub_deadline_misses"), Some("sudoku_scrub_deadline_misses_total"),
        "Packet sweeps whose achieved interval exceeded the hard deadline",
        Read::Audit(|a| Value::U64(a.scrub_deadline_misses))),
    counter(Some("per_shard_misses"), Some("sudoku_shard_scrub_deadline_misses_total"),
        "Deadline misses per shard", Read::Audit(|a| Value::Shards(a.per_shard_misses.clone()))),
    gauge(Some("per_shard_worst_staleness_ns"), Some("sudoku_scrub_staleness_ns"),
        "Worst live packet staleness per shard",
        Read::Audit(|a| Value::Shards(a.per_shard_worst_staleness_ns.clone()))),
    hist("achieved_scrub_interval_ns", "sudoku_achieved_scrub_interval_ns",
        "Achieved per-packet scrub interval",
        Read::Audit(|a| Value::Hist(a.achieved_scrub_interval_ns.clone()))),
    // Audit: error budget.
    gauge(Some("observed_ber"), Some("sudoku_observed_ber"),
        "Observed per-interval raw bit-error rate (slow window): one flip per ECC-1 repair, \
         two per RAID-4/SDR repair or DUE, from the heatmap grids",
        Read::Audit(|a| Value::F64(a.observed_ber))),
    gauge(Some("projected_fit"), Some("sudoku_projected_due_fit"),
        "Projected DUE FIT at the observed BER", Read::Audit(|a| Value::F64(a.projected_fit))),
    gauge(Some("burn_fast"), Some("sudoku_error_budget_burn_fast"),
        "Fast-window error-budget burn rate", Read::Audit(|a| Value::F64(a.burn_fast))),
    gauge(Some("burn_slow"), Some("sudoku_error_budget_burn_slow"),
        "Slow-window error-budget burn rate", Read::Audit(|a| Value::F64(a.burn_slow))),
    gauge(Some("worst_region"), Some("sudoku_worst_region"),
        "Index of the region behind the worst-region gauges",
        Read::Audit(|a| Value::U64(a.worst_region))),
    gauge(Some("worst_region_ber"), Some("sudoku_worst_region_ber"),
        "Worst region's observed per-interval raw bit-error rate over its own bits (slow \
         window): one flip per ECC-1 repair, two per RAID-4/SDR repair or DUE",
        Read::Audit(|a| Value::F64(a.worst_region_ber))),
    gauge(Some("worst_region_burn"), Some("sudoku_worst_region_burn"),
        "Error-budget burn rate were every region at the worst region's BER",
        Read::Audit(|a| Value::F64(a.worst_region_burn))),
    // Audit: the spatial detector's verdict (the `spatial` object in JSON).
    gauge(None, Some("sudoku_spatial_z"),
        "Max-cell z-score of the latest spatial-correlation window",
        Read::Audit(|a| spatial(a, |s| Value::F64(s.z)))),
    gauge(None, Some("sudoku_spatial_dispersion"),
        "Index of dispersion (variance/mean) of the latest window's cell deltas",
        Read::Audit(|a| spatial(a, |s| Value::F64(s.dispersion)))),
    gauge(None, Some("sudoku_spatial_skew"),
        "Hottest cell over the i.i.d.-expected per-cell mean, latest window",
        Read::Audit(|a| spatial(a, |s| Value::F64(s.skew())))),
    gauge(None, Some("sudoku_spatial_fired"),
        "1 while the latest window rejected the i.i.d. failure hypothesis",
        Read::Audit(|a| spatial(a, |s| Value::U64(u64::from(s.fired))))),
    // Audit: alerts.
    counter(Some("alerts_total"), None,
        "Alerts raised", Read::Audit(|a| Value::U64(a.alerts_total))),
    counter(Some("alerts_critical"), Some("sudoku_alerts_critical_total"),
        "Critical alerts raised", Read::Audit(|a| Value::U64(a.alerts_critical))),
    counter(Some("alerts_dropped"), Some("sudoku_alerts_dropped_total"),
        "Alerts evicted from the ring before scrape",
        Read::Audit(|a| Value::U64(a.alerts_dropped))),
    counter(Some("alerts_by_class"), Some("sudoku_alerts_total"),
        "Alerts raised, by class", Read::Audit(|a| Value::Classes(a.alerts_by_class.clone()))),
    // Heatmap grids.
    gauge(Some("n_shards"), None,
        "Shard rows in each grid", Read::Heatmap(|h| Value::U64(h.n_shards as u64))),
    gauge(Some("n_regions"), None,
        "Region columns in each grid", Read::Heatmap(|h| Value::U64(h.n_regions as u64))),
    counter(Some("observed"), Some("sudoku_region_observed_flips_total"),
        "Observed repair events (ECC-1 + RAID-4 + SDR + DUE) per (shard, region) cell",
        Read::Heatmap(|h| h.grid(&h.observed))),
    counter(Some("due"), Some("sudoku_region_due_total"),
        "Uncorrectable lines per (shard, region) cell", Read::Heatmap(|h| h.grid(&h.due))),
    gauge(Some("staleness_ns"), Some("sudoku_region_scrub_staleness_ns"),
        "Last achieved scrub interval per (shard, region) cell",
        Read::Heatmap(|h| h.grid(&h.staleness))),
];

/// Writes the JSON field of every keyed row `value` reads; `value` gets a
/// row's index and reader and answers `None` for rows of other objects.
pub(crate) fn json_rows(obj: &mut JsonObject, value: impl Fn(usize, Read) -> Option<Value>) {
    for (i, row) in METRICS.iter().enumerate() {
        let (Some(key), Some(v)) = (row.json, value(i, row.read)) else {
            continue;
        };
        match v {
            Value::U64(v) => obj.field_u64(key, v),
            Value::F64(v) => obj.field_f64(key, v),
            Value::Shards(v) | Value::Grid(v, _) => obj.field_array_u64(key, v),
            Value::Classes(classes) => {
                let mut inner = JsonObject::new();
                for (class, n) in classes {
                    inner.field_u64(class, n);
                }
                obj.field_raw(key, &inner.finish())
            }
            Value::Hist(h) => obj.field_raw(key, &h.to_json()),
            Value::Absent => &mut *obj,
        };
    }
}

/// Renders one family: HELP and TYPE, then its samples (nothing at all
/// for [`Value::Absent`]). Histograms get cumulative `le` buckets (sparse —
/// only buckets that change the cumulative count, plus `+Inf`), then
/// `_sum` and `_count`.
fn prometheus_family(out: &mut String, name: &str, row: &Metric, value: Value) {
    use std::fmt::Write;
    if let Value::Absent = value {
        return;
    }
    let _ = writeln!(
        out,
        "# HELP {name} {}\n# TYPE {name} {}",
        row.help,
        row.kind.name()
    );
    let _ = match value {
        Value::U64(v) => writeln!(out, "{name} {v}"),
        Value::F64(v) => writeln!(out, "{name} {}", if v.is_finite() { v } else { 0.0 }),
        Value::Shards(vs) => vs
            .iter()
            .enumerate()
            .try_for_each(|(shard, v)| writeln!(out, "{name}{{shard=\"{shard}\"}} {v}")),
        Value::Classes(classes) => classes
            .iter()
            .try_for_each(|(class, n)| writeln!(out, "{name}{{class=\"{class}\"}} {n}")),
        Value::Grid(cells, n_regions) => cells.iter().enumerate().try_for_each(|(i, v)| {
            let (shard, region) = (i / n_regions, i % n_regions);
            writeln!(out, "{name}{{shard=\"{shard}\",region=\"{region}\"}} {v}")
        }),
        Value::Hist(h) => {
            let mut cumulative = 0u64;
            for (bound, count) in h.all_buckets() {
                cumulative += count;
                // Empty buckets add nothing; the top one folds into +Inf.
                if count > 0 && bound != u64::MAX {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
            }
            writeln!(
                out,
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}",
                h.count(),
                h.sum(),
                h.count()
            )
        }
        Value::Absent => Ok(()),
    };
}

/// One picture of the whole service at a sampling instant: the
/// registry's lock-free metrics, the degraded counters, the heatmap grids
/// (whose totals are the recovery-ladder counters) and the audit plane's
/// view. Nothing in it is read under a shard or coordinator mutex.
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
    /// Per-shard threads blocked on the shard mutex.
    pub queue_depths: Vec<u64>,
    /// Per-shard spare-pool occupancy (lines remapped).
    pub spare_occupancy: Vec<u64>,
    /// Degraded-mode counters (sparing, stuck physics, skipped H2, …).
    pub degraded: DegradedStats,
    /// One value per [`METRICS`] row: the registry copy for the rows that
    /// read the registry, [`Value::Absent`] for the rest.
    registry: Vec<Value>,
    /// Sampled per-request traces, oldest first.
    pub recent_traces: Vec<TraceRecord>,
    /// The audit plane's view (scrub deadlines, burn rates, alerts).
    pub audit: AuditSnapshot,
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
    /// Captures the system state without a shard or coordinator mutex.
    /// The registry, shard health and the heatmap grids are atomics; the
    /// audit plane's deadline/burn/alert view is copied out of its own
    /// locks; spare occupancy and [`DegradedStats`] take the per-shard
    /// spare-pool locks, which every holder takes last and keeps for a
    /// few table operations.
    pub fn capture(
        seq: u64,
        state: &ShardedCache,
        reg: &TelemetryRegistry,
        plane: &AuditPlane,
    ) -> TelemetrySnapshot {
        TelemetrySnapshot {
            seq,
            unix_ms: unix_ms_now(),
            quarantined: state.health().quarantined(),
            shards: state.n_shards(),
            daemon_dead: reg.daemon_dead.get() != 0,
            queue_depths: reg.queue_depths(),
            spare_occupancy: state.spare_occupancy(),
            degraded: state.degraded_stats(),
            registry: METRICS
                .iter()
                .map(|row| match row.read {
                    Read::Reg(read) => Value::U64(read(reg)),
                    Read::RegHist(read) => Value::Hist(read(reg).snapshot()),
                    _ => Value::Absent,
                })
                .collect(),
            recent_traces: reg.recent_traces(),
            audit: plane.snapshot(),
            heatmap: HeatmapSnapshot::capture(state.heatmaps()),
        }
    }

    /// Whether every shard is up and the daemon (if it ever ran) is alive.
    pub fn healthy(&self) -> bool {
        self.quarantined.is_empty() && !self.daemon_dead
    }

    /// Row `i`'s value in this snapshot.
    fn value(&self, i: usize) -> Value {
        match METRICS[i].read {
            Read::Reg(_) | Read::RegHist(_) => self.registry[i].clone(),
            Read::Snap(read) => read(self),
            Read::Audit(read) => read(&self.audit),
            Read::Heatmap(read) => read(&self.heatmap),
        }
    }

    /// The captured histogram of the registry row with JSON key `json`.
    ///
    /// # Panics
    ///
    /// If no registry histogram row has that key (a typo in a table
    /// reader).
    fn hist(&self, json: &str) -> &Histogram {
        let row = METRICS
            .iter()
            .position(|m| m.json == Some(json) && matches!(m.read, Read::RegHist(_)));
        match &self.registry[row.expect("histogram row")] {
            Value::Hist(h) => h,
            other => unreachable!("histogram row captured {other:?}"),
        }
    }

    /// One JSON object per snapshot — the flight-recorder JSONL line, the
    /// `/snapshot.json` body and the wire STATS body.
    pub fn to_json(&self) -> String {
        let traces: Vec<String> = self.recent_traces.iter().map(|t| t.to_json()).collect();
        let mut obj = JsonObject::new();
        obj.field_u64("seq", self.seq)
            .field_u64("unix_ms", self.unix_ms)
            .field_bool("healthy", self.healthy())
            .field_array_u64("quarantined", self.quarantined.iter().map(|&s| s as u64))
            .field_bool("daemon_dead", self.daemon_dead);
        json_rows(&mut obj, |i, read| match read {
            Read::Audit(_) | Read::Heatmap(_) => None,
            _ => Some(self.value(i)),
        });
        obj.field_raw("degraded", &self.degraded.to_json())
            .field_raw("recent_traces", &format!("[{}]", traces.join(",")))
            .field_raw("audit", &self.audit.to_json())
            .field_raw("heatmap", &self.heatmap.to_json());
        obj.finish()
    }

    /// Prometheus text exposition (version 0.0.4) of the snapshot.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(16384);
        for (i, row) in METRICS.iter().enumerate() {
            if let Some(name) = row.prom {
                prometheus_family(&mut out, name, row, self.value(i));
            }
        }
        out
    }
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
    use sudoku_obs::CorrelationDetector;

    fn plane(state: &ShardedCache) -> AuditPlane {
        AuditPlane::new(state.plan(), crate::AuditConfig::default()).unwrap()
    }

    fn snap(seq: u64) -> TelemetrySnapshot {
        let state = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        let reg = TelemetryRegistry::new(2);
        TelemetrySnapshot::capture(seq, &state, &reg, &plane(&state))
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
        let snap = TelemetrySnapshot::capture(7, &state, &reg, &plane(&state));
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
        let snap = TelemetrySnapshot::capture(0, &state, &reg, &plane(&state));
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
        for row in METRICS {
            assert!(
                row.json.is_some() || row.prom.is_some(),
                "{row:?} exports nothing"
            );
            if let Some(key) = row.json {
                // Keys are unique within their JSON object.
                let object = match row.read {
                    Read::Audit(_) => "audit",
                    Read::Heatmap(_) => "heatmap",
                    _ => "",
                };
                assert!(keys.insert((object, key)), "JSON key {key} declared twice");
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
        // Every row renders, with its declared HELP and TYPE; the spatial
        // rows need a detector verdict.
        let state = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        let plane = plane(&state);
        let mut detector = CorrelationDetector::new(state.heatmaps().geometry());
        plane.set_latest_spatial(detector.step(&state.heatmaps().observed_cells()));
        let snap = TelemetrySnapshot::capture(0, &state, &TelemetryRegistry::new(2), &plane);
        let parsed = crate::promtext::parse(&snap.to_prometheus()).expect("valid exposition");
        let json = snap.to_json();
        for row in METRICS {
            if let Some(name) = row.prom {
                assert_eq!(parsed.helps.get(name).map(String::as_str), Some(row.help));
                assert_eq!(
                    parsed.types.get(name).map(String::as_str),
                    Some(row.kind.name())
                );
            }
            if let Some(key) = row.json {
                assert!(
                    json.contains(&format!("\"{key}\":")),
                    "{key} missing: {json}"
                );
            }
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
