//! The reliability audit plane: measures the assumptions the DUE/SDC math
//! rests on, instead of asserting them.
//!
//! The paper's reliability claim (§VII-B) is conditional: *if* every line
//! is scrubbed within the 20 ms interval and *if* the raw flip rate stays
//! at the budgeted BER, then the projected DUE/SDC rates hold. Until this
//! module, the service asserted both conditions; now it audits them live:
//!
//! * [`ScrubDeadlineTracker`] — per-shard **achieved scrub interval**
//!   histograms at line-range-packet granularity (a packet is a fixed
//!   span of a shard's owned lines, so the histogram measures what the
//!   BER math actually depends on — when each *line* was last swept, not
//!   when the daemon last ticked), a hard-floor violation counter for the
//!   deadline, and worst-packet staleness gauges.
//! * [`ReliabilityEstimator`] — sliding-window observed raw-flip rate fed
//!   through the paper's analytic BER→FIT model
//!   ([`sudoku_reliability::analytic`]) to produce a live projected DUE
//!   FIT and an **error-budget burn rate** (projected FIT over the
//!   configured envelope), on a fast and a slow window so a transient
//!   spike does not page but a sustained burn does.
//! * [`ScrubController`] — the closed-loop quota law of the adaptive
//!   scrub daemon: per-shard packet quotas scaled between a hard floor
//!   (the rate that keeps the achieved re-scrub interval inside the
//!   deadline at the *measured* visit period) and an opportunistic
//!   ceiling, backing off toward the floor under demand pressure and
//!   never below it.
//! * [`AuditPlane`] — the always-on bundle the daemon, watchdog, exporter
//!   and snapshot all share: tracker + [`AlertLog`] + live estimate
//!   gauges + the `/healthz` degradation-reason list.
//!
//! The watchdog thread (see [`crate::watchdog`]) turns these measurements
//! into [`Alert`]s.
//!
//! [`Alert`]: sudoku_obs::Alert

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sudoku_core::ShardPlan;
use sudoku_obs::json::JsonObject;
use sudoku_obs::{
    AlertClass, AlertLog, AtomicHist, CorrelationDetector, CorrelationStat, Counter, Gauge,
    Heatmaps, Histogram, RegionGeometry,
};
use sudoku_reliability::analytic::{total_fit, Params};

/// Configuration of the audit plane. Constructed with
/// [`AuditConfig::default`] and overridden field-wise; every threshold has
/// a paper-anchored or SRE-conventional default.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// The hard scrub-interval guarantee the BER math assumes: every
    /// line-range packet must be re-scrubbed within this much wall time.
    /// The paper's operating point is 20 ms (§VI).
    pub scrub_deadline: Duration,
    /// Lines per deadline-tracking packet (the granularity of the
    /// achieved-interval histograms and of the daemon's bounded sweep).
    pub packet_lines: u64,
    /// Tick-start lag above this raises a [`TickLagBreach`] alert — the
    /// daemon is being starved and the deadline is next.
    ///
    /// [`TickLagBreach`]: sudoku_obs::AlertClass::TickLagBreach
    pub tick_lag_budget: Duration,
    /// A shard whose queue sits at its bound for this many *consecutive*
    /// watchdog scans raises [`QueueSaturation`] (one saturated instant is
    /// backpressure working; a streak is a stall).
    ///
    /// [`QueueSaturation`]: sudoku_obs::AlertClass::QueueSaturation
    pub queue_saturation_scans: u32,
    /// The daemon counts as stuck when its tick counter has not advanced
    /// for this many scrub periods while the thread is still alive.
    pub daemon_stall_ticks: u32,
    /// The DUE error budget: projected DUE FIT above this envelope counts
    /// as burning. The paper's SuDoku-Z point is ~5.4e-3 FIT at the
    /// default BER; 1.0 FIT (about one uncorrectable error per 114,000
    /// device-years) is a conservative production envelope.
    pub due_fit_budget: f64,
    /// Fast burn window (catches sharp regressions).
    pub fast_window: Duration,
    /// Slow burn window (confirms the burn is sustained, not a blip).
    pub slow_window: Duration,
    /// Burn-rate threshold: both windows above this raises
    /// [`BudgetBurn`].
    ///
    /// [`BudgetBurn`]: sudoku_obs::AlertClass::BudgetBurn
    pub burn_threshold: f64,
    /// Watchdog scan period.
    pub scan_every: Duration,
    /// In-memory alert ring capacity.
    pub alert_capacity: usize,
    /// Optional JSONL alert stream (one flushed line per alert).
    pub alerts_jsonl: Option<PathBuf>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            scrub_deadline: Duration::from_millis(20),
            packet_lines: 128,
            tick_lag_budget: Duration::from_millis(2),
            queue_saturation_scans: 3,
            daemon_stall_ticks: 8,
            due_fit_budget: 1.0,
            fast_window: Duration::from_secs(1),
            slow_window: Duration::from_secs(10),
            burn_threshold: 1.0,
            scan_every: Duration::from_millis(5),
            alert_capacity: 256,
            alerts_jsonl: None,
        }
    }
}

/// A gauge holding an `f64` (stored as IEEE-754 bits in an `AtomicU64`),
/// for the live reliability estimates the hot path never touches.
#[derive(Debug, Default)]
pub struct F64Gauge(AtomicU64);

impl F64Gauge {
    /// A gauge at 0.0.
    pub fn new() -> Self {
        F64Gauge(AtomicU64::new(0))
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// One shard's deadline-tracking state.
#[derive(Debug)]
struct ShardTrack {
    /// Per-packet last-scrub timestamp, ns since the tracker epoch
    /// (0 = never scrubbed; the first sweep measures from the epoch, so a
    /// packet the daemon never reaches shows up as unbounded staleness,
    /// not as a silent gap).
    last_scrub_ns: Vec<AtomicU64>,
    /// Achieved packet scrub intervals, ns.
    achieved_ns: AtomicHist,
    /// Packets whose achieved interval exceeded the deadline.
    misses: Counter,
    /// The most recent missed interval, ns (alert context).
    last_miss_ns: Gauge,
}

/// Measures the **achieved** scrub interval per line-range packet — the
/// quantity the paper's BER math actually assumes a bound on.
///
/// The daemon calls [`ScrubDeadlineTracker::note_packet`] after sweeping a
/// packet; the tracker records the elapsed time since that same packet was
/// last swept into a per-shard [`AtomicHist`] and counts deadline misses.
/// Everything is lock-free: one `swap` + one histogram record per packet.
#[derive(Debug)]
pub struct ScrubDeadlineTracker {
    epoch: Instant,
    deadline_ns: u64,
    packet_lines: u64,
    shards: Vec<ShardTrack>,
}

impl ScrubDeadlineTracker {
    /// A tracker for `plan`'s shard layout with `packet_lines`-line
    /// packets and the given deadline. The epoch (the staleness zero
    /// point) is the moment of construction — service start.
    pub fn new(plan: &ShardPlan, packet_lines: u64, deadline: Duration) -> Self {
        let packet_lines = packet_lines.max(1);
        let shards = (0..plan.n_shards())
            .map(|s| {
                let n_packets = plan.owned_line_count(s).div_ceil(packet_lines).max(1);
                ShardTrack {
                    last_scrub_ns: (0..n_packets).map(|_| AtomicU64::new(0)).collect(),
                    achieved_ns: AtomicHist::pow2(40),
                    misses: Counter::new(),
                    last_miss_ns: Gauge::new(),
                }
            })
            .collect();
        ScrubDeadlineTracker {
            epoch: Instant::now(),
            deadline_ns: deadline.as_nanos() as u64,
            packet_lines,
            shards,
        }
    }

    /// The deadline in nanoseconds.
    pub fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }

    /// Lines per packet.
    pub fn packet_lines(&self) -> u64 {
        self.packet_lines
    }

    /// Number of packets tracked for `shard`.
    pub fn n_packets(&self, shard: usize) -> usize {
        self.shards[shard].last_scrub_ns.len()
    }

    /// Nanoseconds since the tracker epoch (service start).
    #[inline]
    fn now_ns(&self) -> u64 {
        // 1ns floor so a stored timestamp can never collide with the
        // "never scrubbed" sentinel 0.
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// Records that `packet` of `shard` has just been fully swept.
    /// Returns the achieved interval in ns. The first sweep of a packet
    /// measures from the epoch — the deadline clock starts at service
    /// start, not at first contact.
    pub fn note_packet(&self, shard: usize, packet: usize) -> u64 {
        let track = &self.shards[shard];
        let now = self.now_ns();
        let prev = track.last_scrub_ns[packet].swap(now, Ordering::Relaxed);
        let interval = now - prev;
        track.achieved_ns.record(interval);
        if interval > self.deadline_ns {
            track.misses.inc();
            track.last_miss_ns.set(interval);
        }
        interval
    }

    /// Deadline misses recorded for `shard` so far.
    pub fn misses(&self, shard: usize) -> u64 {
        self.shards[shard].misses.get()
    }

    /// Deadline misses across all shards.
    pub fn total_misses(&self) -> u64 {
        self.shards.iter().map(|t| t.misses.get()).sum()
    }

    /// The most recent missed interval on `shard`, ns (0 = none yet).
    pub fn last_miss_ns(&self, shard: usize) -> u64 {
        self.shards[shard].last_miss_ns.get()
    }

    /// How stale `shard`'s worst packet is right now, ns: the age of the
    /// least recently swept packet (for a never-swept packet, the time
    /// since service start).
    pub fn worst_staleness_ns(&self, shard: usize) -> u64 {
        let now = self.now_ns();
        self.shards[shard]
            .last_scrub_ns
            .iter()
            .map(|t| now.saturating_sub(t.load(Ordering::Relaxed)))
            .max()
            .unwrap_or(0)
    }

    /// Snapshot of `shard`'s achieved-interval histogram.
    pub fn achieved_hist(&self, shard: usize) -> sudoku_obs::Histogram {
        self.shards[shard].achieved_ns.snapshot()
    }

    /// Snapshot of the achieved-interval histogram merged across shards.
    pub fn achieved_hist_all(&self) -> sudoku_obs::Histogram {
        let mut all = sudoku_obs::Histogram::pow2(40);
        for track in &self.shards {
            all.merge(&track.achieved_ns.snapshot());
        }
        all
    }

    /// Number of shards tracked.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }
}

/// Headroom divisor on the re-scrub deadline: the floor is sized so a
/// full rotation completes within `deadline / FLOOR_HEADROOM` at the
/// achieved cadence, leaving the other half of the deadline as margin
/// for scheduler holes. The budget is converted to a whole number of
/// visits first (see [`ScrubController::floor`]): a rate-multiplier
/// floor loses its margin to quota quantization (7 packets per visit
/// against 32 still takes 5 whole visits), while a naive 3× rate
/// floor measured ~35% of a saturated core — the visit-count form
/// holds the interval bound with the least sweeping that achieves it.
const FLOOR_HEADROOM: f64 = 2.0;
/// Opportunistic ceiling as a multiple of the floor (capped at the
/// shard's packet count): how far above break-even an idle system sweeps.
const CEILING_FACTOR: usize = 8;
/// Fraction of the deadline past which the controller goes to the
/// ceiling unconditionally (a packet is about to breach the contract;
/// demand pressure no longer gets a vote). The test is *anticipatory*:
/// it fires on `staleness + visit_period`, not raw staleness, because
/// staleness is only sampled when the daemon visits the shard — a packet
/// just under the raw threshold now would be sampled again one full
/// period later, already past the deadline.
const URGENCY_FRACTION: f64 = 0.85;
/// EWMA weight of the newest achieved visit-period observation — for
/// observations *better* than the estimate. A worse observation is
/// adopted outright (fast attack, slow decay): one late revisit is
/// enough to raise the floor, because under-estimating the period
/// under-sizes the quota and burns the deadline, while over-estimating
/// merely sweeps harder for the ~1/α visits the decay takes.
const PERIOD_ALPHA: f64 = 0.2;

/// One quota decision from the [`ScrubController`].
#[derive(Clone, Copy, Debug)]
pub struct QuotaDecision {
    /// Packets the daemon should sweep on this visit.
    pub quota: usize,
    /// The hard floor this visit (never swept below, whatever demand says).
    pub floor: usize,
    /// The opportunistic ceiling this visit.
    pub ceiling: usize,
    /// Demand pressure asked for *less* than the floor — the floor was
    /// enforced against the backoff signal.
    pub floor_clamped: bool,
    /// A packet's staleness crossed 85 % of the deadline
    /// (`URGENCY_FRACTION`): the quota was forced to the ceiling.
    pub emergency: bool,
    /// The shard has not yet been covered once since the controller
    /// started: cold-start warmup sweeps at the ceiling so the first
    /// rotation finishes inside the deadline even though the period
    /// estimate is still the (possibly optimistic) nominal seed.
    pub warming: bool,
}

/// Per-shard controller state.
#[derive(Clone, Copy, Debug)]
struct ShardControl {
    n_packets: u64,
    /// EWMA of the achieved inter-visit period, ns.
    period_ewma_ns: f64,
    /// When the daemon last visited this shard, ns on the caller's clock.
    last_visit_ns: Option<u64>,
    /// Packets still owed before the first full rotation is complete
    /// (cold-start warmup: quota stays at the ceiling until zero).
    warmup_left: u64,
}

/// The adaptive scrub daemon's closed-loop quota law, as a pure step
/// function the daemon calls once per shard visit.
///
/// The inputs each tick are the shard's live queue depth, the tick-start
/// lag, and the shard's worst packet staleness; the output is a per-visit
/// packet quota in `[floor, ceiling]`:
///
/// * **floor** — from the *achieved* inter-visit period (fast-attack /
///   slow-decay EWMA: a worse period is adopted in one observation), not
///   the configured one: the packets-per-visit that revisits every packet
///   within the deadline at the measured cadence, times a headroom of 2
///   (`FLOOR_HEADROOM`). When ticks run long or shards drop out of the
///   rotation, the measured period moves and the floor follows — the
///   deadline math stays honest instead of assuming the ideal schedule.
/// * **ceiling** — 8 × floor (`CEILING_FACTOR`), capped at the shard's
///   packet count: an idle system sweeps its whole shard every visit.
/// * **backoff** — demand pressure `p = max(depth/bound, lag/budget)`
///   (clamped to `[0,1]`) scales the quota down from the ceiling, but
///   never below the floor; a decision the pressure pushed under the
///   floor is reported as `floor_clamped` (the telemetry counter the
///   watchdog's floor-breach alert keys on).
/// * **emergency** — a packet that would cross 85 % of the deadline
///   (`URGENCY_FRACTION`) before the *next* visit (staleness + achieved
///   period) overrides everything and goes to the ceiling.
/// * **warmup** — until the first full rotation has covered every packet
///   once, the quota stays at the ceiling and backpressure does not get
///   a vote: the period estimate is still the nominal seed, so trusting
///   it to pace the *first* sweep would let a slow start burn the
///   deadline before the controller has measured anything.
#[derive(Debug)]
pub struct ScrubController {
    deadline_ns: u64,
    lag_budget_ns: u64,
    queue_bound: u64,
    shards: Vec<ShardControl>,
}

impl ScrubController {
    /// A controller for `tracker`'s shard/packet layout. `nominal_period`
    /// seeds the per-shard period EWMA (the ideal `tick × n_shards`
    /// rotation — replaced by measurement from the first revisit on).
    pub fn new(
        tracker: &ScrubDeadlineTracker,
        lag_budget: Duration,
        queue_bound: usize,
        nominal_period: Duration,
    ) -> Self {
        let seed_ns = (nominal_period.as_nanos() as u64).max(1) as f64;
        ScrubController {
            deadline_ns: tracker.deadline_ns().max(1),
            lag_budget_ns: (lag_budget.as_nanos() as u64).max(1),
            queue_bound: (queue_bound as u64).max(1),
            shards: (0..tracker.n_shards())
                .map(|s| ShardControl {
                    n_packets: tracker.n_packets(s) as u64,
                    period_ewma_ns: seed_ns,
                    last_visit_ns: None,
                    warmup_left: tracker.n_packets(s) as u64,
                })
                .collect(),
        }
    }

    /// The hard floor implied by `shard`'s current achieved period:
    /// enough packets per visit that the whole shard is covered within
    /// `deadline / FLOOR_HEADROOM`. Quantization-aware — the budget is
    /// first converted to the whole number of visits that fit in it at
    /// the achieved period, then the packet count is divided across
    /// exactly those visits, so the interval bound holds by construction
    /// instead of being eroded by ceil() rotation effects.
    pub fn floor(&self, shard: usize) -> usize {
        let sc = &self.shards[shard];
        let budget_ns = self.deadline_ns as f64 / FLOOR_HEADROOM;
        let visits = (budget_ns / sc.period_ewma_ns.max(1.0)).floor().max(1.0);
        let need = (sc.n_packets as f64 / visits).ceil() as usize;
        need.clamp(1, sc.n_packets.max(1) as usize)
    }

    /// One visit's quota decision for `shard`. `now_ns` is any monotone
    /// nanosecond clock (consecutive calls for the same shard measure the
    /// achieved visit period from it); `queue_depth` is the shard's live
    /// demand-queue depth and `tick_lag_ns` the lag this tick started with.
    pub fn decide(
        &mut self,
        shard: usize,
        now_ns: u64,
        queue_depth: u64,
        tick_lag_ns: u64,
        worst_staleness_ns: u64,
    ) -> QuotaDecision {
        let sc = &mut self.shards[shard];
        if let Some(prev) = sc.last_visit_ns {
            let observed = now_ns.saturating_sub(prev) as f64;
            sc.period_ewma_ns = if observed > sc.period_ewma_ns {
                observed
            } else {
                (1.0 - PERIOD_ALPHA) * sc.period_ewma_ns + PERIOD_ALPHA * observed
            };
        }
        sc.last_visit_ns = Some(now_ns);
        let n_packets = sc.n_packets.max(1) as usize;
        let floor = self.floor(shard);
        let ceiling = floor.saturating_mul(CEILING_FACTOR).clamp(floor, n_packets);
        let pressure = (queue_depth as f64 / self.queue_bound as f64)
            .max(tick_lag_ns as f64 / self.lag_budget_ns as f64)
            .clamp(0.0, 1.0);
        let desired = ceiling as f64 * (1.0 - pressure);
        let floor_clamped = desired < floor as f64;
        let emergency = worst_staleness_ns as f64 + self.shards[shard].period_ewma_ns
            >= URGENCY_FRACTION * self.deadline_ns as f64;
        let warming = self.shards[shard].warmup_left > 0;
        let quota = if emergency || warming {
            ceiling
        } else {
            (desired.round() as usize).clamp(floor, ceiling)
        };
        let sc = &mut self.shards[shard];
        sc.warmup_left = sc.warmup_left.saturating_sub(quota as u64);
        QuotaDecision {
            quota,
            floor,
            ceiling,
            floor_clamped,
            emergency,
            warming,
        }
    }

    /// The current achieved-period estimate for `shard`, ns.
    pub fn achieved_period_ns(&self, shard: usize) -> f64 {
        self.shards[shard].period_ewma_ns
    }
}

/// One flip-count sample in the estimator's sliding window.
#[derive(Clone, Copy, Debug)]
struct FlipSample {
    at: Instant,
    flips: u64,
}

/// Projects live DUE FIT from the *observed* raw-flip rate, through the
/// same analytic model the paper uses offline
/// ([`sudoku_reliability::analytic::total_fit`]).
///
/// Feed it cumulative observed-flip counts (see
/// [`ReliabilityEstimator::observed_flips`] for the accounting); it keeps
/// a sliding window of samples, converts the windowed flip rate to a
/// per-interval BER, and evaluates the model at that BER. The output is a
/// burn rate: projected FIT over the configured budget. Values above 1.0
/// mean the error budget is being consumed faster than provisioned.
#[derive(Debug)]
pub struct ReliabilityEstimator {
    params: Params,
    scheme: sudoku_core::Scheme,
    budget_fit: f64,
    total_bits: f64,
    interval_s: f64,
    fast: Duration,
    slow: Duration,
    samples: VecDeque<FlipSample>,
    /// Sliding window of cumulative per-region observed-repair counts
    /// (folded across shards), for the worst-region BER/burn estimates.
    region_samples: VecDeque<RegionSample>,
}

/// One cumulative per-region observed-repair sample.
#[derive(Clone, Debug)]
struct RegionSample {
    at: Instant,
    per_region: Vec<u64>,
}

impl ReliabilityEstimator {
    /// An estimator for a cache of `config`'s geometry and scheme, with
    /// the audit deadline as the scrub interval of the model.
    pub fn new(config: &sudoku_core::SudokuConfig, audit: &AuditConfig) -> Self {
        let lines = config.geometry.lines();
        let interval_s = audit.scrub_deadline.as_secs_f64();
        let params = Params {
            lines,
            group: config.group_lines,
            scrub: sudoku_fault::ScrubSchedule::new(interval_s),
            ..Params::paper_default()
        };
        let total_bits = lines as f64 * f64::from(params.data_bits + params.meta_bits);
        ReliabilityEstimator {
            params,
            scheme: config.scheme,
            budget_fit: audit.due_fit_budget.max(f64::MIN_POSITIVE),
            total_bits,
            interval_s,
            fast: audit.fast_window,
            slow: audit.slow_window,
            samples: VecDeque::new(),
            region_samples: VecDeque::new(),
        }
    }

    /// The observed-flip accounting convention: every per-line single-bit
    /// repair (payload or metadata) is one raw flip; every CRC multibit
    /// detection is at least two. This undercounts ≥3-fault lines — the
    /// estimate is a *floor*, which is the right bias for an alert that
    /// fires on exceeding a budget.
    pub fn observed_flips(stats: &sudoku_core::CacheStats) -> u64 {
        stats.ecc1_repairs + stats.meta_repairs + 2 * stats.multibit_detections
    }

    /// Records a cumulative flip count at `now` and drops samples older
    /// than the slow window.
    pub fn push_sample(&mut self, now: Instant, flips: u64) {
        self.samples.push_back(FlipSample { at: now, flips });
        let horizon = self.slow;
        // Keep one sample beyond the horizon so the slow window always has
        // a left edge to difference against. The deque makes eviction O(1)
        // per sample instead of shifting the whole window.
        while self.samples.len() > 2 && now.duration_since(self.samples[1].at) >= horizon {
            self.samples.pop_front();
        }
    }

    /// Observed BER per scrub interval over the trailing `window`, or
    /// `None` before two samples span any time.
    pub fn observed_ber(&self, window: Duration) -> Option<f64> {
        let newest = self.samples.back()?;
        // The oldest sample still inside (or at the edge of) the window.
        let left = self
            .samples
            .iter()
            .find(|s| newest.at.duration_since(s.at) <= window)?;
        let dt = newest.at.duration_since(left.at).as_secs_f64();
        if dt <= 0.0 {
            return None;
        }
        let flips = newest.flips.saturating_sub(left.flips) as f64;
        // flips per interval per bit = observed per-interval BER.
        let intervals = dt / self.interval_s;
        Some(flips / (self.total_bits * intervals))
    }

    /// Projected DUE FIT at the BER observed over `window`. The model
    /// input is clamped to 0.1 per bit per interval: anything above that
    /// is not a BER estimate, it is an outage, and the clamped projection
    /// is already astronomically over any sane budget.
    pub fn projected_fit(&self, window: Duration) -> Option<f64> {
        let ber = self.observed_ber(window)?;
        if ber <= 0.0 {
            return Some(0.0);
        }
        let params = self.params.with_ber(ber.min(0.1));
        Some(total_fit(&params, self.scheme))
    }

    /// Burn rates over the (fast, slow) windows: projected FIT over the
    /// budget. `None` entries mean the window has no data yet.
    pub fn burn_rates(&self) -> (Option<f64>, Option<f64>) {
        (
            self.projected_fit(self.fast).map(|f| f / self.budget_fit),
            self.projected_fit(self.slow).map(|f| f / self.budget_fit),
        )
    }

    /// Records a cumulative per-region observed-repair vector (the
    /// heatmap's observed cells folded across shards) at `now`, with the
    /// same slow-window eviction as [`ReliabilityEstimator::push_sample`].
    pub fn push_region_sample(&mut self, now: Instant, per_region: Vec<u64>) {
        self.region_samples.push_back(RegionSample {
            at: now,
            per_region,
        });
        let horizon = self.slow;
        while self.region_samples.len() > 2
            && now.duration_since(self.region_samples[1].at) >= horizon
        {
            self.region_samples.pop_front();
        }
    }

    /// The region with the highest observed per-interval BER over the
    /// trailing `window`, normalized by that region's share of the bits
    /// (regions split the line space ~evenly). `None` before two samples
    /// span any time inside the window.
    pub fn worst_region_ber(&self, window: Duration) -> Option<(usize, f64)> {
        let newest = self.region_samples.back()?;
        let left = self
            .region_samples
            .iter()
            .find(|s| newest.at.duration_since(s.at) <= window)?;
        let dt = newest.at.duration_since(left.at).as_secs_f64();
        if dt <= 0.0 || newest.per_region.is_empty() {
            return None;
        }
        let n_regions = newest.per_region.len();
        let region_bits = self.total_bits / n_regions as f64;
        let intervals = dt / self.interval_s;
        newest
            .per_region
            .iter()
            .zip(left.per_region.iter())
            .map(|(n, l)| n.saturating_sub(*l) as f64 / (region_bits * intervals))
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Worst-region burn rate over `window`: the error-budget burn the
    /// cache would sustain if *every* region ran at the worst region's
    /// observed BER — a conservative localized-degradation alarm (a hot
    /// region burns this number long before the cache-wide average moves).
    pub fn worst_region_burn(&self, window: Duration) -> Option<(usize, f64)> {
        let (region, ber) = self.worst_region_ber(window)?;
        if ber <= 0.0 {
            return Some((region, 0.0));
        }
        let params = self.params.with_ber(ber.min(0.1));
        Some((region, total_fit(&params, self.scheme) / self.budget_fit))
    }

    /// Whether the fast window is *blind*: the estimator holds enough
    /// samples to difference, but they are spaced wider than the fast
    /// window, so the fast burn rate is structurally `None` — the sampler
    /// period exceeds `fast_window` and sharp regressions cannot be seen.
    /// The watchdog surfaces this as a degradation reason instead of
    /// letting the fast alarm stay silently disarmed.
    pub fn fast_window_blind(&self) -> bool {
        self.samples.len() >= 2 && self.observed_ber(self.fast).is_none()
    }

    /// The model parameters in use (for exposition/tests).
    pub fn params(&self) -> &Params {
        &self.params
    }
}

/// The always-on audit bundle shared by the scrub daemon (packet sweep
/// accounting), the watchdog (alert generation + live estimates), the
/// exporter (`/metrics`, `/alerts.json`, `/healthz` reasons) and the
/// snapshot path.
#[derive(Debug)]
pub struct AuditPlane {
    /// The audit configuration the plane was built with.
    pub config: AuditConfig,
    /// Per-packet scrub-deadline accounting.
    pub tracker: ScrubDeadlineTracker,
    /// The structured alert stream.
    pub alerts: AlertLog,
    /// Live observed per-interval BER (slow window).
    pub observed_ber: F64Gauge,
    /// Live projected DUE FIT (slow window).
    pub projected_fit: F64Gauge,
    /// Fast-window error-budget burn rate.
    pub burn_fast: F64Gauge,
    /// Slow-window error-budget burn rate.
    pub burn_slow: F64Gauge,
    /// Worst-region observed per-interval BER (slow window).
    pub worst_region_ber: F64Gauge,
    /// Worst-region error-budget burn rate (slow window).
    pub worst_region_burn: F64Gauge,
    /// Index of the worst region behind the two gauges above.
    pub worst_region: Gauge,
    /// Active degradation reasons, rendered into the `/healthz` body (the
    /// 200/503 status itself stays a pure function of quarantine +
    /// daemon death — probes must not flap on soft conditions).
    degraded_reasons: Mutex<Vec<String>>,
    /// The online spatial-correlation detector over the heatmap's
    /// observed-repair grid, armed once the heatmaps are attached.
    spatial: Mutex<Option<CorrelationDetector>>,
    /// The detector's most recent verdict.
    latest_spatial: Mutex<Option<CorrelationStat>>,
}

impl AuditPlane {
    /// Builds the plane for `plan`'s shard layout.
    ///
    /// # Errors
    ///
    /// The I/O error from creating the alerts JSONL file, when one is
    /// configured.
    pub fn new(plan: &ShardPlan, config: AuditConfig) -> std::io::Result<Self> {
        let tracker = ScrubDeadlineTracker::new(plan, config.packet_lines, config.scrub_deadline);
        let alerts = match &config.alerts_jsonl {
            Some(path) => AlertLog::with_jsonl(config.alert_capacity, path)?,
            None => AlertLog::ring(config.alert_capacity),
        };
        Ok(AuditPlane {
            config,
            tracker,
            alerts,
            observed_ber: F64Gauge::new(),
            projected_fit: F64Gauge::new(),
            burn_fast: F64Gauge::new(),
            burn_slow: F64Gauge::new(),
            worst_region_ber: F64Gauge::new(),
            worst_region_burn: F64Gauge::new(),
            worst_region: Gauge::new(),
            degraded_reasons: Mutex::new(Vec::new()),
            spatial: Mutex::new(None),
            latest_spatial: Mutex::new(None),
        })
    }

    /// Arms the spatial-correlation detector for `geom`'s cell layout.
    /// Idempotent; called by the service once the heatmaps exist.
    pub fn arm_spatial(&self, geom: &RegionGeometry) {
        if let Ok(mut slot) = self.spatial.lock() {
            if slot.is_none() {
                *slot = Some(CorrelationDetector::new(geom));
            }
        }
    }

    /// Steps the spatial detector over the current cumulative
    /// observed-repair cells of `maps`, storing and returning the fresh
    /// verdict. `None` when the detector was never armed.
    pub fn step_spatial(&self, maps: &Heatmaps) -> Option<CorrelationStat> {
        self.step_spatial_cells(&maps.observed_cells())
    }

    /// Steps the spatial detector over an already-sampled cumulative cell
    /// vector (same layout as [`Heatmaps::observed_cells`]), storing and
    /// returning the fresh verdict. `None` when the detector was never
    /// armed. This is the pure-data entry the watchdog's scan uses.
    pub fn step_spatial_cells(&self, cells: &[u64]) -> Option<CorrelationStat> {
        let stat = {
            let mut slot = self.spatial.lock().ok()?;
            slot.as_mut()?.step(cells)
        };
        if let Ok(mut latest) = self.latest_spatial.lock() {
            *latest = Some(stat.clone());
        }
        Some(stat)
    }

    /// The armed detector's firing threshold on the max-cell z-score;
    /// `None` before [`AuditPlane::arm_spatial`].
    pub fn spatial_z_threshold(&self) -> Option<f64> {
        self.spatial
            .lock()
            .ok()
            .and_then(|s| s.as_ref().map(CorrelationDetector::z_threshold))
    }

    /// The detector's most recent verdict, if it has stepped at least once.
    pub fn latest_spatial(&self) -> Option<CorrelationStat> {
        self.latest_spatial.lock().ok().and_then(|s| s.clone())
    }

    /// Replaces the active degradation-reason list (watchdog only).
    pub fn set_degraded_reasons(&self, reasons: Vec<String>) {
        if let Ok(mut current) = self.degraded_reasons.lock() {
            *current = reasons;
        }
    }

    /// The active degradation reasons, for the `/healthz` body.
    pub fn degraded_reasons(&self) -> Vec<String> {
        self.degraded_reasons
            .lock()
            .map(|r| r.clone())
            .unwrap_or_default()
    }

    /// One coherent picture of the audit plane for `/metrics`,
    /// `/snapshot.json`, and the end-of-run bench reports.
    pub fn snapshot(&self) -> AuditSnapshot {
        let n_shards = self.tracker.n_shards();
        AuditSnapshot {
            scrub_deadline_ns: self.tracker.deadline_ns(),
            packet_lines: self.tracker.packet_lines(),
            scrub_deadline_misses: self.tracker.total_misses(),
            per_shard_misses: (0..n_shards).map(|s| self.tracker.misses(s)).collect(),
            per_shard_worst_staleness_ns: (0..n_shards)
                .map(|s| self.tracker.worst_staleness_ns(s))
                .collect(),
            achieved_scrub_interval_ns: self.tracker.achieved_hist_all(),
            observed_ber: self.observed_ber.get(),
            projected_fit: self.projected_fit.get(),
            burn_fast: self.burn_fast.get(),
            burn_slow: self.burn_slow.get(),
            worst_region: self.worst_region.get(),
            worst_region_ber: self.worst_region_ber.get(),
            worst_region_burn: self.worst_region_burn.get(),
            spatial: self.latest_spatial(),
            alerts_total: self.alerts.total(),
            alerts_critical: self.alerts.criticals(),
            alerts_dropped: self.alerts.dropped(),
            alerts_by_class: AlertClass::ALL
                .iter()
                .map(|&(class, name)| (name, self.alerts.count(class)))
                .collect(),
            degraded_reasons: self.degraded_reasons(),
        }
    }
}

/// A point-in-time copy of everything the audit plane measures — the
/// audit section of [`TelemetrySnapshot`] and of the bench reports.
///
/// [`TelemetrySnapshot`]: crate::telemetry::TelemetrySnapshot
#[derive(Clone, Debug)]
pub struct AuditSnapshot {
    /// The configured hard scrub deadline, ns.
    pub scrub_deadline_ns: u64,
    /// Lines per deadline-tracking packet.
    pub packet_lines: u64,
    /// Completed packet sweeps whose achieved interval exceeded the
    /// deadline, all shards.
    pub scrub_deadline_misses: u64,
    /// Same, per shard.
    pub per_shard_misses: Vec<u64>,
    /// Worst live packet staleness per shard, ns (how long the most
    /// neglected packet has gone unswept as of this snapshot).
    pub per_shard_worst_staleness_ns: Vec<u64>,
    /// Achieved scrub interval across all shards' packets.
    pub achieved_scrub_interval_ns: Histogram,
    /// Observed per-interval raw BER (slow window; 0 until first estimate).
    pub observed_ber: f64,
    /// Projected DUE FIT at the observed BER (slow window).
    pub projected_fit: f64,
    /// Fast-window error-budget burn rate.
    pub burn_fast: f64,
    /// Slow-window error-budget burn rate.
    pub burn_slow: f64,
    /// Index of the region with the worst observed BER (slow window).
    pub worst_region: u64,
    /// That region's observed per-interval BER.
    pub worst_region_ber: f64,
    /// Burn rate at the worst region's BER (cache-wide, conservative).
    pub worst_region_burn: f64,
    /// The spatial-correlation detector's latest verdict, when armed.
    pub spatial: Option<CorrelationStat>,
    /// Alerts ever raised.
    pub alerts_total: u64,
    /// Critical alerts ever raised.
    pub alerts_critical: u64,
    /// Alerts evicted from the ring before being scraped.
    pub alerts_dropped: u64,
    /// Per-class alert counts, in [`AlertClass::ALL`] order.
    pub alerts_by_class: Vec<(&'static str, u64)>,
    /// Active degradation reasons at snapshot time.
    pub degraded_reasons: Vec<String>,
}

impl AuditSnapshot {
    /// One JSON object (the `"audit"` section of `/snapshot.json` and of
    /// the bench reports).
    pub fn to_json(&self) -> String {
        let by_class: Vec<String> = self
            .alerts_by_class
            .iter()
            .map(|(name, n)| format!("\"{name}\":{n}"))
            .collect();
        let reasons: Vec<String> = self
            .degraded_reasons
            .iter()
            .map(|r| format!("{:?}", r))
            .collect();
        let mut obj = JsonObject::new();
        obj.field_u64("scrub_deadline_ns", self.scrub_deadline_ns)
            .field_u64("packet_lines", self.packet_lines)
            .field_u64("scrub_deadline_misses", self.scrub_deadline_misses)
            .field_array_u64("per_shard_misses", self.per_shard_misses.iter().copied())
            .field_array_u64(
                "per_shard_worst_staleness_ns",
                self.per_shard_worst_staleness_ns.iter().copied(),
            )
            .field_raw(
                "achieved_scrub_interval_ns",
                &self.achieved_scrub_interval_ns.to_json(),
            )
            .field_f64("observed_ber", self.observed_ber)
            .field_f64("projected_fit", self.projected_fit)
            .field_f64("burn_fast", self.burn_fast)
            .field_f64("burn_slow", self.burn_slow)
            .field_u64("worst_region", self.worst_region)
            .field_f64("worst_region_ber", self.worst_region_ber)
            .field_f64("worst_region_burn", self.worst_region_burn)
            .field_raw(
                "spatial",
                &self
                    .spatial
                    .as_ref()
                    .map_or_else(|| "null".to_string(), CorrelationStat::to_json),
            )
            .field_u64("alerts_total", self.alerts_total)
            .field_u64("alerts_critical", self.alerts_critical)
            .field_u64("alerts_dropped", self.alerts_dropped)
            .field_raw("alerts_by_class", &format!("{{{}}}", by_class.join(",")))
            .field_raw("degraded_reasons", &format!("[{}]", reasons.join(",")));
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudoku_core::{Scheme, SudokuConfig};

    fn plan4() -> ShardPlan {
        let config = SudokuConfig::small(Scheme::Z, 1024, 16);
        ShardPlan::new(&config, 4).unwrap()
    }

    #[test]
    fn tracker_records_intervals_and_misses() {
        let tracker = ScrubDeadlineTracker::new(&plan4(), 64, Duration::from_millis(20));
        assert_eq!(tracker.n_shards(), 4);
        // 1024 lines / 4 shards = 256 owned lines; 64-line packets → 4.
        assert_eq!(tracker.n_packets(0), 4);
        let first = tracker.note_packet(0, 0);
        assert!(first >= 1);
        let second = tracker.note_packet(0, 0);
        assert!(second < Duration::from_millis(20).as_nanos() as u64);
        assert_eq!(tracker.misses(0), 0, "sub-ms resweep is not a miss");
        assert_eq!(tracker.achieved_hist(0).count(), 2);
        assert_eq!(tracker.achieved_hist_all().count(), 2);
        // Packets never swept dominate worst staleness.
        assert!(tracker.worst_staleness_ns(0) >= second);
    }

    #[test]
    fn tracker_flags_deadline_miss() {
        let tracker = ScrubDeadlineTracker::new(&plan4(), 64, Duration::from_nanos(1));
        // First sweep measures from the epoch — already over a 1 ns
        // deadline, by design (a packet the daemon is late to *first*
        // reach is late, full stop).
        tracker.note_packet(1, 0);
        assert_eq!(tracker.misses(1), 1);
        std::thread::sleep(Duration::from_millis(1));
        let interval = tracker.note_packet(1, 0);
        assert!(interval > 1);
        assert_eq!(tracker.misses(1), 2);
        assert_eq!(tracker.total_misses(), 2);
        assert_eq!(tracker.last_miss_ns(1), interval);
    }

    #[test]
    fn estimator_burns_budget_at_elevated_ber() {
        let config = SudokuConfig::small(Scheme::Z, 65536, 512);
        let audit = AuditConfig {
            due_fit_budget: 1.0,
            ..AuditConfig::default()
        };
        let mut est = ReliabilityEstimator::new(&config, &audit);
        let t0 = Instant::now();
        est.push_sample(t0, 0);
        // One slow window later, a flip count implying a catastophic BER
        // (~1e-3/interval: far beyond the paper's 5.3e-6 design point).
        let bits = 65536.0 * 553.0;
        let intervals = audit.slow_window.as_secs_f64() / 20e-3;
        let flips = (1e-3 * bits * intervals) as u64;
        est.push_sample(t0 + audit.slow_window, flips);
        let ber = est.observed_ber(audit.slow_window).unwrap();
        assert!((5e-4..2e-3).contains(&ber), "observed {ber}");
        let (fast, slow) = est.burn_rates();
        let slow = slow.unwrap();
        assert!(slow > 1.0, "burn {slow} must exceed budget at BER {ber}");
        // The fast window only has the latest sample pair, which spans the
        // whole slow window — still a valid (identical) estimate or None.
        if let Some(fast) = fast {
            assert!(fast > 0.0);
        }
    }

    #[test]
    fn estimator_quiet_system_burns_nothing() {
        let config = SudokuConfig::small(Scheme::Z, 4096, 16);
        let audit = AuditConfig::default();
        let mut est = ReliabilityEstimator::new(&config, &audit);
        let t0 = Instant::now();
        est.push_sample(t0, 10);
        est.push_sample(t0 + Duration::from_secs(1), 10);
        assert_eq!(est.projected_fit(Duration::from_secs(2)), Some(0.0));
        let (_, slow) = est.burn_rates();
        // Slow window spans one second of data: observed BER 0.
        assert_eq!(slow, Some(0.0));
    }

    #[test]
    fn observed_flip_accounting() {
        let stats = sudoku_core::CacheStats {
            ecc1_repairs: 3,
            meta_repairs: 2,
            multibit_detections: 4,
            ..Default::default()
        };
        assert_eq!(ReliabilityEstimator::observed_flips(&stats), 13);
    }

    #[test]
    fn estimator_sparse_sampling_goes_blind_on_fast_window() {
        let config = SudokuConfig::small(Scheme::Z, 4096, 16);
        let audit = AuditConfig {
            fast_window: Duration::from_millis(50),
            ..AuditConfig::default()
        };
        let mut est = ReliabilityEstimator::new(&config, &audit);
        let t0 = Instant::now();
        assert!(!est.fast_window_blind(), "no samples yet is not blind");
        est.push_sample(t0, 0);
        assert!(!est.fast_window_blind(), "one sample cannot be blind");
        // Sampler period (1 s) exceeds the fast window (50 ms): the fast
        // burn rate is None even though the estimator *is* being fed.
        est.push_sample(t0 + Duration::from_secs(1), 7);
        let (fast, slow) = est.burn_rates();
        assert!(fast.is_none());
        assert!(slow.is_some());
        assert!(est.fast_window_blind(), "sparse sampling must be surfaced");
        // A sample inside the fast window restores sight.
        est.push_sample(t0 + Duration::from_secs(1) + Duration::from_millis(10), 7);
        assert!(!est.fast_window_blind());
    }

    #[test]
    fn estimator_window_eviction_keeps_left_edge() {
        let config = SudokuConfig::small(Scheme::Z, 4096, 16);
        let audit = AuditConfig {
            slow_window: Duration::from_millis(100),
            ..AuditConfig::default()
        };
        let mut est = ReliabilityEstimator::new(&config, &audit);
        let t0 = Instant::now();
        for i in 0..50u64 {
            est.push_sample(t0 + Duration::from_millis(10 * i), i);
        }
        // Eviction keeps one sample beyond the horizon so the slow window
        // always has a left edge to difference against.
        assert!(est.observed_ber(audit.slow_window).is_some());
        assert!(est.samples.len() <= 12, "window must stay bounded");
    }

    fn controller4(deadline: Duration) -> (ScrubDeadlineTracker, ScrubController) {
        // 1024 lines / 4 shards = 256 owned; 64-line packets → 4 packets.
        let tracker = ScrubDeadlineTracker::new(&plan4(), 64, deadline);
        let ctl = ScrubController::new(
            &tracker,
            Duration::from_millis(2),
            64,
            Duration::from_millis(4),
        );
        (tracker, ctl)
    }

    #[test]
    fn controller_idle_sweeps_at_ceiling() {
        let (_t, mut ctl) = controller4(Duration::from_millis(20));
        // Nominal period 4 ms, deadline 20 ms, 4 packets: budget =
        // 20 ms / 2 = 10 ms → floor(10/4) = 2 visits → floor =
        // ceil(4 / 2) = 2 packets; ceiling = min(8×2, 4) = 4.
        let d = ctl.decide(0, 0, 0, 0, 0);
        assert_eq!(d.floor, 2);
        assert_eq!(d.ceiling, 4);
        assert_eq!(d.quota, 4, "idle system sweeps the whole shard");
        assert!(!d.floor_clamped);
        assert!(!d.emergency);
    }

    #[test]
    fn controller_backs_off_under_pressure_but_holds_floor() {
        let (_t, mut ctl) = controller4(Duration::from_millis(20));
        // The first visit per shard is cold-start warmup: the whole shard
        // is swept at the ceiling no matter what the queue says.
        let d = ctl.decide(0, 0, 64, 0, 0);
        assert!(d.warming);
        assert_eq!(d.quota, d.ceiling);
        let d = ctl.decide(1, 0, 64, 0, 0);
        assert!(d.warming);
        // Saturated queue: pressure 1 → desired 0 → clamped to the floor.
        let d = ctl.decide(0, 4_000_000, 64, 0, 0);
        assert!(!d.warming);
        assert_eq!(d.quota, d.floor);
        assert!(d.floor_clamped);
        // Quarter pressure from tick lag alone backs off proportionally:
        // desired = ceiling 4 × 0.75 = 3, above the floor of 2 → no clamp.
        let d = ctl.decide(1, 4_000_000, 0, 500_000, 0);
        assert_eq!(d.quota, 3);
        assert!(!d.floor_clamped);
    }

    #[test]
    fn controller_emergency_overrides_backpressure() {
        let (_t, mut ctl) = controller4(Duration::from_millis(20));
        // Staleness at 95% of the deadline with a saturated queue: the
        // contract wins — quota goes to the ceiling anyway.
        let d = ctl.decide(0, 0, 64, 2_000_000, 19_000_000);
        assert!(d.emergency);
        assert_eq!(d.quota, d.ceiling);
        // The pressure-induced clamp is still *counted* (telemetry must
        // see that demand asked for less than the floor).
        assert!(d.floor_clamped);
    }

    #[test]
    fn controller_floor_tracks_achieved_period() {
        let (_t, mut ctl) = controller4(Duration::from_millis(20));
        assert_eq!(ctl.floor(2), 2);
        // Visits arriving at 16 ms instead of the nominal 4 ms: the EWMA
        // converges and the floor rises to keep the deadline honest: only
        // one 16 ms visit fits in the 10 ms budget, so the floor becomes
        // the whole rotation, ceil(4 / 1) = 4 packets.
        let mut now = 0u64;
        for _ in 0..60 {
            ctl.decide(2, now, 0, 0, 0);
            now += 16_000_000;
        }
        assert!(ctl.achieved_period_ns(2) > 15.0e6);
        assert_eq!(ctl.floor(2), 4);
        let d = ctl.decide(2, now, 64, 0, 0);
        assert_eq!(d.quota, 4, "floor never traded away under pressure");
        assert!(d.floor_clamped);
    }

    #[test]
    fn plane_reasons_roundtrip() {
        let plane = AuditPlane::new(&plan4(), AuditConfig::default()).unwrap();
        assert!(plane.degraded_reasons().is_empty());
        plane.set_degraded_reasons(vec!["tick_lag_breach shard=1".into()]);
        assert_eq!(plane.degraded_reasons().len(), 1);
        plane.burn_fast.set(2.5);
        assert_eq!(plane.burn_fast.get(), 2.5);
    }
}
