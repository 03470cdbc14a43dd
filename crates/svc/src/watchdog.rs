//! The anomaly watchdog: turns audit-plane measurements into
//! [`Alert`]s.
//!
//! A dedicated thread scans the live signals every
//! [`AuditConfig::scan_every`] and keeps one table of open **episodes**,
//! keyed by reason and optional shard, under one rule: an episode raises
//! one alert into the plane's [`AlertLog`] when its condition starts,
//! stays silent while it holds, and re-arms when it clears (quarantine
//! and daemon death are terminal and never re-arm). The open episodes are
//! the plane's degradation reasons, served in the `/healthz` *body*; the
//! 200/503 status flaps only on quarantine and daemon death. Nine alert
//! classes:
//!
//! | class | trigger | severity |
//! |---|---|---|
//! | `deadline_miss` | a packet's achieved scrub interval exceeded the deadline, **or** a packet is overdue right now (staleness breach — fires even when the sweep never completes) | critical |
//! | `tick_lag_breach` | daemon tick started later than the lag budget | warning |
//! | `queue_saturation` | a shard queue at its bound for N consecutive scans | warning |
//! | `daemon_dead` | the scrub daemon died to a caught panic | critical |
//! | `daemon_stuck` | tick counter stalled for N scrub periods while the daemon is nominally alive | critical |
//! | `shard_quarantined` | a shard entered quarantine | critical |
//! | `budget_burn` | fast **and** slow error-budget burn rates above threshold | critical |
//! | `scrub_floor_breach` | the adaptive controller clamped its quota at the hard floor **and** the deadline was still missed — backing off further cannot honor the BER contract | critical |
//! | `spatial_correlation` | the heatmap's windowed max-cell z-score rejected the i.i.d. failure hypothesis — repairs are clustering in one (shard, region) cell | critical |
//!
//! The scan logic is a pure step function over a [`ScanObs`] record —
//! the live loop ([`watchdog_loop`]) builds one from the registry, the
//! shard health bits and the heatmap grids each period; tests feed
//! synthetic ones and assert on the alert stream deterministically.
//! Every input is a relaxed atomic read: the watchdog takes no shard,
//! coordinator or spare-pool mutex, so a long-held shard lock cannot
//! silence it.
//!
//! The error budget, the worst-region gauges and the spatial detector
//! share one observed-failure stream: each sampled scan reads the
//! repair-tier grids once ([`GridSample`]). The [`ReliabilityEstimator`]
//! windows them as flips, and the [`CorrelationDetector`] steps on them
//! as events; the watchdog builds and owns both, from the grids'
//! geometry.
//!
//! [`Alert`]: sudoku_obs::Alert
//! [`CorrelationDetector`]: sudoku_obs::CorrelationDetector
//! [`AlertLog`]: sudoku_obs::AlertLog
//! [`AuditConfig::scan_every`]: crate::audit::AuditConfig::scan_every

use crate::audit::{AuditPlane, GridSample, ReliabilityEstimator};
use crate::sharded::ShardedCache;
use crate::telemetry::TelemetryRegistry;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use sudoku_core::SudokuConfig;
use sudoku_obs::{AlertClass, CorrelationDetector, RegionGeometry, Severity};

/// One scan's worth of observations, as plain data. The live loop fills
/// this from the telemetry registry, the shard health bits and the
/// heatmap grids; tests construct it directly.
#[derive(Clone, Debug)]
pub struct ScanObs {
    /// Scan time (monotonic).
    pub now: Instant,
    /// Whether a scrub daemon is configured at all. When `false`, every
    /// scrub-liveness check (deadline, stall, lag) is off — a service
    /// without a daemon is not "missing deadlines".
    pub daemon_expected: bool,
    /// Whether the daemon died to a caught panic.
    pub daemon_dead: bool,
    /// Worst daemon tick-start lag since the previous scan, ns (0 when
    /// no tick started since). The live loop takes it with
    /// [`TelemetryRegistry::take_peak_tick_lag`], so a late tick followed
    /// by on-time ones is not missed, and a scan with no tick closes an
    /// open lag episode.
    pub last_tick_lag_ns: u64,
    /// Cumulative scrub ticks completed.
    pub scrub_ticks: u64,
    /// Per-shard threads blocked on the shard mutex.
    pub queue_depths: Vec<u64>,
    /// Quarantined shards, ascending.
    pub quarantined: Vec<usize>,
    /// Cumulative adaptive-scrub floor clamps (visits where demand
    /// pressure asked for less than the quota floor).
    pub floor_clamps: u64,
    /// The cumulative repair-tier grids when this scan sampled them;
    /// `None` on scans between samples, across which every episode the
    /// grids drive (budget burn, fast-window blindness, spatial
    /// correlation) holds.
    pub grids: Option<GridSample>,
}

/// Why an episode is open, in `/healthz` order: the global reasons first,
/// then the per-shard ones.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Reason {
    DaemonDead,
    DaemonStuck,
    TickLag,
    BudgetBurn,
    FloorBreach,
    FastBlind,
    Spatial,
    Quarantined,
    Stale,
    Saturated,
}

impl Reason {
    const NAMES: [&'static str; 10] = [
        "daemon_dead",
        "daemon_stuck",
        "tick_lag_breach",
        "budget_burn",
        "scrub_floor_breach",
        "burn_fast_blind",
        "spatial_correlation",
        "shard_quarantined",
        "scrub_deadline_stale",
        "queue_saturation",
    ];
}

/// The open episodes, keyed by (shard, reason) so that iteration yields
/// the `/healthz` order: global (`None`) reasons first, then by shard.
#[derive(Default)]
struct Episodes(BTreeSet<(Option<usize>, Reason)>);

impl Episodes {
    /// The one edge detector: `raise` runs on the scan that opens the
    /// episode; a scan without the condition closes it. Terminal
    /// conditions are only ever stepped open.
    fn step(&mut self, reason: Reason, shard: Option<usize>, bad: bool, raise: impl FnOnce()) {
        if !bad {
            self.0.remove(&(shard, reason));
        } else if self.0.insert((shard, reason)) {
            raise();
        }
    }

    /// The `/healthz` reasons: each name, plus ` shard=N` if per-shard.
    fn reasons(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|&(shard, reason)| {
                let name = Reason::NAMES[reason as usize];
                match shard {
                    Some(s) => format!("{name} shard={s}"),
                    None => name.to_string(),
                }
            })
            .collect()
    }
}

/// Advances a cumulative counter's watermark; returns how far it moved.
fn delta(last: &mut u64, now: u64) -> u64 {
    let moved = now.saturating_sub(*last);
    *last = now;
    moved
}

/// The watchdog's mutable scan state: the open episodes, the counter
/// watermarks and streaks behind them, and the two consumers of the grid
/// stream.
pub struct Watchdog {
    plane: std::sync::Arc<AuditPlane>,
    /// The error-budget window and the spatial detector, both over the
    /// heatmap geometry; `None` when the watchdog runs without grids.
    stream: Option<(ReliabilityEstimator, CorrelationDetector)>,
    /// Queue bound (a depth at this value is saturated).
    queue_bound: u64,
    /// `daemon_stall_ticks` × scrub period; `None` disables stall checks.
    stall_budget: Option<Duration>,
    episodes: Episodes,
    /// Per-shard consecutive scans at the queue bound.
    sat_streaks: Vec<u32>,
    /// Per-shard deadline misses seen as of the previous scan.
    last_misses: Vec<u64>,
    last_scrub_ticks: u64,
    ticks_advanced_at: Option<Instant>,
    last_floor_clamps: u64,
    last_total_misses: u64,
    clamps_fresh: u8,
    misses_fresh: u8,
    window_clamps: u64,
    window_misses: u64,
}

/// How many scans a fresh floor-clamp (or deadline-miss) observation
/// stays eligible to pair with the other signal for the floor-breach
/// alert. The daemon writes the two counters milliseconds apart, so a
/// strict same-scan test would drop real breaches to scan-boundary luck.
const PAIRING_SCANS: u8 = 3;

impl Watchdog {
    /// A watchdog over `plane` for `n_shards` shards with the given queue
    /// bound. `scrub_every` sizes the daemon-stall budget (`None` = no
    /// daemon, stall checks off). `grids` — the cache's configuration and
    /// its heatmap geometry — builds the estimator and the spatial
    /// detector, which enables the budget-burn, worst-region and
    /// spatial-correlation classes.
    pub fn new(
        plane: std::sync::Arc<AuditPlane>,
        n_shards: usize,
        queue_bound: u64,
        scrub_every: Option<Duration>,
        grids: Option<(&SudokuConfig, &RegionGeometry)>,
    ) -> Self {
        let stall_budget = scrub_every.map(|t| t * plane.config.daemon_stall_ticks.max(1));
        let stream = grids.map(|(config, geom)| {
            (
                ReliabilityEstimator::new(config, &plane.config, geom),
                CorrelationDetector::new(geom),
            )
        });
        Watchdog {
            plane,
            stream,
            queue_bound,
            stall_budget,
            episodes: Episodes::default(),
            sat_streaks: vec![0; n_shards],
            last_misses: vec![0; n_shards],
            last_scrub_ticks: 0,
            ticks_advanced_at: None,
            last_floor_clamps: 0,
            last_total_misses: 0,
            clamps_fresh: 0,
            misses_fresh: 0,
            window_clamps: 0,
            window_misses: 0,
        }
    }

    /// One scan step: raises alerts for newly-entered episodes, re-arms
    /// cleared ones, refreshes the live estimate gauges, and rewrites the
    /// `/healthz` degradation reasons.
    pub fn scan(&mut self, obs: &ScanObs) {
        let cfg_scans = self.plane.config.queue_saturation_scans.max(1);
        let plane = std::sync::Arc::clone(&self.plane);
        let deadline_ns = plane.tracker.deadline_ns();
        let n_shards = self.last_misses.len();
        let episodes = &mut self.episodes;

        // --- scrub-deadline accounting (only with a daemon to hold it) --
        if obs.daemon_expected {
            for shard in 0..n_shards {
                // Completed-sweep misses recorded by the tracker since the
                // previous scan: one alert per fresh batch, not a latch.
                let new = delta(&mut self.last_misses[shard], plane.tracker.misses(shard));
                if new > 0 {
                    plane.alerts.raise(
                        AlertClass::DeadlineMiss,
                        Severity::Critical,
                        Some(shard),
                        plane.tracker.last_miss_ns(shard) as f64,
                        deadline_ns as f64,
                        format!(
                            "shard {shard}: {new} packet(s) exceeded the \
                             scrub deadline (worst achieved interval \
                             {:.2} ms)",
                            plane.tracker.last_miss_ns(shard) as f64 / 1e6
                        ),
                    );
                }
                // Live staleness breach: a packet is overdue *now*. This
                // is the path that fires when the daemon stalls or dies —
                // the miss counter above only moves when a sweep finally
                // completes.
                let staleness = plane.tracker.worst_staleness_ns(shard);
                episodes.step(Reason::Stale, Some(shard), staleness > deadline_ns, || {
                    plane.alerts.raise(
                        AlertClass::DeadlineMiss,
                        Severity::Critical,
                        Some(shard),
                        staleness as f64,
                        deadline_ns as f64,
                        format!(
                            "shard {shard}: worst packet {:.2} ms \
                             stale, past the {:.0} ms scrub deadline",
                            staleness as f64 / 1e6,
                            deadline_ns as f64 / 1e6
                        ),
                    );
                });
            }

            // --- daemon tick lag ---------------------------------------
            let budget_ns = self.plane.config.tick_lag_budget.as_nanos() as u64;
            let lag_ns = obs.last_tick_lag_ns;
            episodes.step(Reason::TickLag, None, lag_ns > budget_ns, || {
                plane.alerts.raise(
                    AlertClass::TickLagBreach,
                    Severity::Warning,
                    None,
                    lag_ns as f64,
                    budget_ns as f64,
                    format!(
                        "daemon tick started {:.2} ms late (budget \
                         {:.2} ms)",
                        lag_ns as f64 / 1e6,
                        budget_ns as f64 / 1e6
                    ),
                );
            });

            // --- adaptive floor breach ---------------------------------
            // The controller clamping at its floor is normal under demand
            // pressure; the floor *failing* is not. Fresh clamps
            // coinciding with fresh counted deadline misses means the
            // floor itself was insufficient: there is no further backoff
            // that honors the BER contract, so this is critical. The two
            // counters are written by the daemon milliseconds apart (the
            // clamp at decide time, the miss when the late sweep lands),
            // so "coinciding" is a short pairing window of scans, not one
            // scan — a scan boundary between them must not hide the
            // breach. The episode holds while fresh misses remain in the
            // window and closes once they run out.
            let new_clamps = delta(&mut self.last_floor_clamps, obs.floor_clamps);
            let new_misses = delta(&mut self.last_total_misses, plane.tracker.total_misses());
            if new_clamps > 0 {
                self.clamps_fresh = PAIRING_SCANS;
                self.window_clamps = new_clamps;
            }
            if new_misses > 0 {
                self.misses_fresh = PAIRING_SCANS;
                self.window_misses = new_misses;
            }
            let paired = self.clamps_fresh > 0 && self.misses_fresh > 0;
            if paired || self.misses_fresh == 0 {
                episodes.step(Reason::FloorBreach, None, paired, || {
                    plane.alerts.raise(
                        AlertClass::ScrubFloorBreach,
                        Severity::Critical,
                        None,
                        self.window_clamps as f64,
                        0.0,
                        format!(
                            "scrub quota pinned at its floor ({} fresh \
                             clamp(s)) while {} packet(s) still missed the \
                             deadline — no backoff honors the BER contract",
                            self.window_clamps, self.window_misses
                        ),
                    );
                });
            }
            if paired {
                // One coincidence fires once: consume the pair.
                self.clamps_fresh = 0;
                self.misses_fresh = 0;
            }
            self.clamps_fresh = self.clamps_fresh.saturating_sub(1);
            self.misses_fresh = self.misses_fresh.saturating_sub(1);

            // --- daemon death / stall ----------------------------------
            if obs.daemon_dead {
                episodes.step(Reason::DaemonDead, None, true, || {
                    plane.alerts.raise(
                        AlertClass::DaemonDead,
                        Severity::Critical,
                        None,
                        1.0,
                        0.0,
                        "scrub daemon died to a panic; scrubbing has \
                         stopped"
                            .to_string(),
                    );
                });
            } else if let Some(stall_budget) = self.stall_budget {
                if delta(&mut self.last_scrub_ticks, obs.scrub_ticks) > 0 {
                    self.ticks_advanced_at = Some(obs.now);
                }
                let stalled = obs
                    .now
                    .duration_since(*self.ticks_advanced_at.get_or_insert(obs.now));
                episodes.step(Reason::DaemonStuck, None, stalled > stall_budget, || {
                    plane.alerts.raise(
                        AlertClass::DaemonStuck,
                        Severity::Critical,
                        None,
                        stalled.as_secs_f64() * 1e3,
                        stall_budget.as_secs_f64() * 1e3,
                        format!(
                            "scrub daemon alive but tick counter \
                             stalled at {} for {:.1} ms",
                            obs.scrub_ticks,
                            stalled.as_secs_f64() * 1e3
                        ),
                    );
                });
            }
        }

        // --- queue saturation ------------------------------------------
        for (shard, &depth) in obs.queue_depths.iter().enumerate().take(n_shards) {
            let streak = &mut self.sat_streaks[shard];
            *streak = if self.queue_bound > 0 && depth >= self.queue_bound {
                streak.saturating_add(1)
            } else {
                0
            };
            episodes.step(Reason::Saturated, Some(shard), *streak >= cfg_scans, || {
                plane.alerts.raise(
                    AlertClass::QueueSaturation,
                    Severity::Warning,
                    Some(shard),
                    depth as f64,
                    self.queue_bound as f64,
                    format!(
                        "shard {shard} queue pinned at bound {} for \
                         {streak} consecutive scans",
                        self.queue_bound
                    ),
                );
            });
        }

        // --- quarantine ------------------------------------------------
        for &shard in obs.quarantined.iter().filter(|&&s| s < n_shards) {
            episodes.step(Reason::Quarantined, Some(shard), true, || {
                plane.alerts.raise(
                    AlertClass::ShardQuarantined,
                    Severity::Critical,
                    Some(shard),
                    1.0,
                    0.0,
                    format!("shard {shard} quarantined; serving N-1"),
                );
            });
        }

        // --- the grid stream: error budget, spatial correlation --------
        if let (Some((est, detector)), Some(grids)) = (self.stream.as_mut(), &obs.grids) {
            est.push(obs.now, grids);
            // Sparse sampling: the sampler period exceeds the fast window,
            // so the fast burn rate is structurally `None`. Surface the
            // blindness as a degraded reason instead of silently losing
            // the sharp-regression detector.
            episodes.step(Reason::FastBlind, None, est.fast_window_blind(), || {});
            let slow_window = plane.config.slow_window;
            if let Some(ber) = est.observed_ber(slow_window) {
                plane.observed_ber.set(ber);
            }
            if let Some(fit) = est.projected_fit(slow_window) {
                plane.projected_fit.set(fit);
            }
            let (fast, slow) = est.burn_rates();
            if let Some(fast) = fast {
                plane.burn_fast.set(fast);
            }
            if let Some(slow) = slow {
                plane.burn_slow.set(slow);
            }
            let threshold = plane.config.burn_threshold;
            let verdict = match (fast, slow) {
                (Some(f), Some(s)) if f > threshold && s > threshold => Some(true),
                (_, Some(s)) if s <= threshold => Some(false),
                _ => None,
            };
            if let Some(burning) = verdict {
                episodes.step(Reason::BudgetBurn, None, burning, || {
                    let s = slow.unwrap_or_default();
                    plane.alerts.raise(
                        AlertClass::BudgetBurn,
                        Severity::Critical,
                        None,
                        s,
                        threshold,
                        format!(
                            "error-budget burn {s:.2}x over both \
                             windows (projected DUE \
                             {:.3e} FIT vs budget {:.3e})",
                            plane.projected_fit.get(),
                            plane.config.due_fit_budget
                        ),
                    );
                });
            }

            // The detector windows cumulative events itself, so each
            // sampled scan is one step.
            let stat = detector.step(&grids.events());
            plane.set_latest_spatial(stat.clone());
            episodes.step(Reason::Spatial, None, stat.fired, || {
                plane.alerts.raise(
                    AlertClass::SpatialCorrelation,
                    Severity::Critical,
                    Some(stat.max_shard),
                    stat.z,
                    detector.z_threshold(),
                    format!(
                        "spatially correlated failures: {} of {} \
                         window repairs landed in cell (shard {}, \
                         region {}) — z {:.1}, dispersion {:.1} \
                         reject the i.i.d. hypothesis",
                        stat.max_cell,
                        stat.total,
                        stat.max_shard,
                        stat.max_region,
                        stat.z,
                        stat.dispersion
                    ),
                );
            });

            // Per-region error budget, on the same window.
            if let Some((region, ber)) = est.worst_region_ber(slow_window) {
                plane.worst_region.set(region as u64);
                plane.worst_region_ber.set(ber);
            }
            if let Some((_, burn)) = est.worst_region_burn(slow_window) {
                plane.worst_region_burn.set(burn);
            }
        }

        plane.set_degraded_reasons(episodes.reasons());
    }
}

/// The live watchdog thread body: scans every
/// [`AuditConfig::scan_every`], and reads the heatmap grids on a coarser
/// cadence, `max(fast_window / 4, 100 ms)`: four samples per fast window
/// keep it sighted, and the slow window then holds at most ~100 samples.
///
/// [`AuditConfig::scan_every`]: crate::audit::AuditConfig::scan_every
pub fn watchdog_loop(
    state: &ShardedCache,
    plane: &std::sync::Arc<AuditPlane>,
    reg: &TelemetryRegistry,
    scrub_every: Option<Duration>,
    queue_bound: u64,
    stop: &AtomicBool,
) {
    let maps = state.heatmaps();
    let mut dog = Watchdog::new(
        std::sync::Arc::clone(plane),
        state.n_shards(),
        queue_bound,
        scrub_every,
        Some((state.config(), maps.geometry())),
    );
    let scan_every = plane.config.scan_every.max(Duration::from_millis(1));
    let sample_every = (plane.config.fast_window / 4).max(Duration::from_millis(100));
    let mut last_sample: Option<Instant> = None;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        let grids = last_sample
            .is_none_or(|at| now.duration_since(at) >= sample_every)
            .then(|| {
                last_sample = Some(now);
                GridSample::read(maps)
            });
        let obs = ScanObs {
            now,
            daemon_expected: scrub_every.is_some(),
            daemon_dead: reg.daemon_dead.get() != 0,
            last_tick_lag_ns: reg.take_peak_tick_lag(),
            scrub_ticks: reg.scrub_ticks.get(),
            queue_depths: reg.queue_depths(),
            quarantined: state.health().quarantined(),
            floor_clamps: reg.scrub_floor_clamps.get(),
            grids,
        };
        dog.scan(&obs);
        std::thread::sleep(scan_every);
    }
    plane.alerts.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditConfig;
    use std::sync::Arc;
    use sudoku_core::{Scheme, ShardPlan};

    fn plane(config: AuditConfig) -> Arc<AuditPlane> {
        let cache = SudokuConfig::small(Scheme::Z, 1024, 16);
        let plan = ShardPlan::new(&cache, 4).unwrap();
        Arc::new(AuditPlane::new(&plan, config).unwrap())
    }

    fn quiet_obs(now: Instant) -> ScanObs {
        ScanObs {
            now,
            daemon_expected: true,
            daemon_dead: false,
            last_tick_lag_ns: 0,
            scrub_ticks: 0,
            queue_depths: vec![0; 4],
            quarantined: Vec::new(),
            floor_clamps: 0,
            grids: None,
        }
    }

    /// A grid sample of ECC-1 repairs only: each cell's count is both its
    /// events and its flips.
    fn ecc1(cells: Vec<u64>) -> Option<GridSample> {
        Some(GridSample {
            multibit: vec![0; cells.len()],
            ecc1: cells,
        })
    }

    /// The 4-shard, 16-region heatmap geometry over 1024 lines.
    fn geom4(plan: &ShardPlan) -> RegionGeometry {
        RegionGeometry::new(4, 16, 1024, |l| plan.shard_of_line(l))
    }

    #[test]
    fn tick_lag_breach_is_latched() {
        let plane = plane(AuditConfig {
            // Huge deadline so synthetic staleness never interferes.
            scrub_deadline: Duration::from_secs(3600),
            tick_lag_budget: Duration::from_millis(2),
            ..AuditConfig::default()
        });
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, None);
        let t0 = Instant::now();
        let mut obs = quiet_obs(t0);
        obs.last_tick_lag_ns = 10_000_000; // 10 ms > 2 ms budget
        dog.scan(&obs);
        dog.scan(&obs); // still breached: latched, no second alert
        assert_eq!(plane.alerts.count(AlertClass::TickLagBreach), 1);
        assert!(plane
            .degraded_reasons()
            .contains(&"tick_lag_breach".to_string()));
        obs.last_tick_lag_ns = 0;
        dog.scan(&obs); // clears and re-arms
        assert!(plane.degraded_reasons().is_empty());
        obs.last_tick_lag_ns = 10_000_000;
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::TickLagBreach), 2);
    }

    #[test]
    fn a_late_tick_between_scans_raises_one_breach() {
        let plane = plane(AuditConfig {
            scrub_deadline: Duration::from_secs(3600),
            tick_lag_budget: Duration::from_millis(2),
            ..AuditConfig::default()
        });
        let reg = TelemetryRegistry::new(4);
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, None);
        let t0 = Instant::now();
        let mut scan = |reg: &TelemetryRegistry| {
            let mut obs = quiet_obs(t0);
            obs.last_tick_lag_ns = reg.take_peak_tick_lag();
            dog.scan(&obs);
        };
        reg.record_tick_lag(100_000);
        scan(&reg);
        // One stalled tick, then catch-up ticks back on time, all between
        // two scans: the point gauge reads on time by the scan.
        reg.record_tick_lag(100_000_000);
        for _ in 0..4 {
            reg.record_tick_lag(50_000);
        }
        assert_eq!(reg.last_tick_lag_ns.get(), 50_000);
        scan(&reg);
        assert_eq!(plane.alerts.count(AlertClass::TickLagBreach), 1);
        for _ in 0..3 {
            reg.record_tick_lag(50_000);
            scan(&reg);
        }
        assert!(plane.degraded_reasons().is_empty());
        // A late tick is read by the scan after it; a scan that sees no
        // tick reads no lag, and clears the episode.
        reg.record_tick_lag(10_000_000);
        scan(&reg);
        assert_eq!(plane.alerts.count(AlertClass::TickLagBreach), 2);
        assert!(plane
            .degraded_reasons()
            .contains(&"tick_lag_breach".to_string()));
        scan(&reg);
        assert!(plane.degraded_reasons().is_empty());
    }

    #[test]
    fn a_stall_after_a_late_tick_raises_its_own_breach() {
        // A saturation-late tick just before a stall, then a scan during
        // the stall (no tick), then the stall's own lag: the stall must
        // raise a fresh alert carrying its own lag, not hide inside the
        // episode the small lag opened.
        let plane = plane(AuditConfig {
            scrub_deadline: Duration::from_secs(3600),
            tick_lag_budget: Duration::from_millis(2),
            ..AuditConfig::default()
        });
        let reg = TelemetryRegistry::new(4);
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, None);
        let t0 = Instant::now();
        let mut scan = |reg: &TelemetryRegistry| {
            let mut obs = quiet_obs(t0);
            obs.last_tick_lag_ns = reg.take_peak_tick_lag();
            dog.scan(&obs);
        };
        reg.record_tick_lag(3_000_000);
        scan(&reg);
        scan(&reg);
        reg.record_tick_lag(101_000_000);
        scan(&reg);
        assert_eq!(plane.alerts.count(AlertClass::TickLagBreach), 2);
        let stall = plane
            .alerts
            .recent(16)
            .into_iter()
            .rfind(|a| a.class == AlertClass::TickLagBreach)
            .expect("the stall's breach");
        assert!(stall.value >= 100e6, "{stall:?}");
    }

    #[test]
    fn queue_saturation_needs_a_streak() {
        let plane = plane(AuditConfig {
            scrub_deadline: Duration::from_secs(3600),
            queue_saturation_scans: 3,
            ..AuditConfig::default()
        });
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, None);
        let t0 = Instant::now();
        let mut obs = quiet_obs(t0);
        obs.queue_depths[2] = 64;
        dog.scan(&obs);
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::QueueSaturation), 0);
        dog.scan(&obs); // third consecutive saturated scan fires
        assert_eq!(plane.alerts.count(AlertClass::QueueSaturation), 1);
        let alert = &plane.alerts.recent(1)[0];
        assert_eq!(alert.shard, Some(2));
        // One idle scan resets the streak entirely.
        obs.queue_depths[2] = 0;
        dog.scan(&obs);
        obs.queue_depths[2] = 64;
        dog.scan(&obs);
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::QueueSaturation), 1);
    }

    #[test]
    fn daemon_death_and_stall_alerts() {
        let plane = plane(AuditConfig {
            scrub_deadline: Duration::from_secs(3600),
            daemon_stall_ticks: 4,
            ..AuditConfig::default()
        });
        let scrub_every = Some(Duration::from_millis(2));
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, scrub_every, None);
        let t0 = Instant::now();
        let mut obs = quiet_obs(t0);
        obs.scrub_ticks = 5;
        dog.scan(&obs);
        // Ticks frozen past 4 × 2 ms: stuck.
        obs.now = t0 + Duration::from_millis(20);
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::DaemonStuck), 1);
        assert!(plane
            .degraded_reasons()
            .contains(&"daemon_stuck".to_string()));
        // Ticks advance again: latch clears...
        obs.now = t0 + Duration::from_millis(25);
        obs.scrub_ticks = 6;
        dog.scan(&obs);
        assert!(plane.degraded_reasons().is_empty());
        // ...then the daemon dies: a different, terminal class.
        obs.daemon_dead = true;
        dog.scan(&obs);
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::DaemonDead), 1);
        assert_eq!(plane.alerts.criticals(), 2);
    }

    #[test]
    fn staleness_breach_raises_deadline_miss() {
        let plane = plane(AuditConfig {
            // Epoch staleness crosses this immediately.
            scrub_deadline: Duration::from_nanos(1),
            ..AuditConfig::default()
        });
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, None);
        dog.scan(&quiet_obs(Instant::now()));
        // One staleness alert per shard, latched.
        assert_eq!(plane.alerts.count(AlertClass::DeadlineMiss), 4);
        dog.scan(&quiet_obs(Instant::now()));
        assert_eq!(plane.alerts.count(AlertClass::DeadlineMiss), 4);
        let reasons = plane.degraded_reasons();
        assert!(reasons
            .iter()
            .any(|r| r.starts_with("scrub_deadline_stale")));
    }

    #[test]
    fn completed_sweep_misses_raise_too() {
        let plane = plane(AuditConfig {
            scrub_deadline: Duration::from_nanos(1),
            ..AuditConfig::default()
        });
        // Record a real packet sweep whose interval (measured from epoch)
        // exceeds the 1 ns deadline.
        plane.tracker.note_packet(1, 0);
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, None);
        dog.scan(&quiet_obs(Instant::now()));
        let miss_alerts = plane.alerts.count(AlertClass::DeadlineMiss);
        // 4 staleness alerts + 1 counted-miss alert on shard 1.
        assert_eq!(miss_alerts, 5);
        assert_eq!(plane.tracker.total_misses(), 1);
    }

    #[test]
    fn quarantine_alert_once_per_shard() {
        let plane = plane(AuditConfig {
            scrub_deadline: Duration::from_secs(3600),
            ..AuditConfig::default()
        });
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, None);
        let mut obs = quiet_obs(Instant::now());
        obs.quarantined = vec![3];
        dog.scan(&obs);
        dog.scan(&obs);
        obs.quarantined = vec![1, 3];
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::ShardQuarantined), 2);
        let reasons = plane.degraded_reasons();
        assert!(reasons.contains(&"shard_quarantined shard=1".to_string()));
        assert!(reasons.contains(&"shard_quarantined shard=3".to_string()));
    }

    #[test]
    fn floor_breach_needs_clamps_and_misses_together() {
        let plane = plane(AuditConfig {
            // Epoch staleness makes every noted packet a counted miss.
            scrub_deadline: Duration::from_nanos(1),
            ..AuditConfig::default()
        });
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, None);
        let mut obs = quiet_obs(Instant::now());
        // Clamps without fresh misses: normal backpressure, no alert.
        obs.floor_clamps = 3;
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::ScrubFloorBreach), 0);
        // Let the clamp's pairing window expire over quiet scans…
        dog.scan(&obs);
        dog.scan(&obs);
        // …then misses without fresh clamps: plain deadline trouble, not
        // a floor failure.
        plane.tracker.note_packet(0, 0);
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::ScrubFloorBreach), 0);
        // Both move between scans: the floor itself failed. (1024 lines /
        // 4 shards / 128-line packets = 2 packets per shard; re-noting a
        // packet records a fresh missed interval each time.)
        plane.tracker.note_packet(0, 1);
        obs.floor_clamps = 5;
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::ScrubFloorBreach), 1);
        assert!(plane
            .degraded_reasons()
            .contains(&"scrub_floor_breach".to_string()));
        // Latched: both still rising raises nothing new.
        plane.tracker.note_packet(0, 0);
        obs.floor_clamps = 7;
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::ScrubFloorBreach), 1);
        // Misses stop → re-arm; a fresh coincidence fires again.
        obs.floor_clamps = 8;
        dog.scan(&obs);
        dog.scan(&obs);
        assert!(!plane
            .degraded_reasons()
            .contains(&"scrub_floor_breach".to_string()));
        plane.tracker.note_packet(0, 1);
        obs.floor_clamps = 9;
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::ScrubFloorBreach), 2);
    }

    #[test]
    fn sparse_flip_sampling_surfaces_blindness() {
        let cache = SudokuConfig::small(Scheme::Z, 1024, 16);
        let audit = AuditConfig {
            scrub_deadline: Duration::from_secs(3600),
            fast_window: Duration::from_millis(50),
            ..AuditConfig::default()
        };
        let plan = ShardPlan::new(&cache, 4).unwrap();
        let plane = Arc::new(AuditPlane::new(&plan, audit).unwrap());
        let geom = geom4(&plan);
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, Some((&cache, &geom)));
        let t0 = Instant::now();
        let sample = |flips: u64| {
            let mut cells = vec![0; 64];
            cells[0] = flips;
            ecc1(cells)
        };
        // Samples arriving 1 s apart against a 50 ms fast window: the
        // fast burn detector is structurally blind.
        for step in 0..2u64 {
            let mut obs = quiet_obs(t0 + Duration::from_secs(step));
            obs.daemon_expected = false;
            obs.grids = sample(step);
            dog.scan(&obs);
        }
        assert!(plane
            .degraded_reasons()
            .contains(&"burn_fast_blind".to_string()));
        // A sample inside the fast window restores sight.
        let mut obs = quiet_obs(t0 + Duration::from_secs(1) + Duration::from_millis(10));
        obs.daemon_expected = false;
        obs.grids = sample(2);
        dog.scan(&obs);
        assert!(!plane
            .degraded_reasons()
            .contains(&"burn_fast_blind".to_string()));
    }

    #[test]
    fn budget_burn_fires_on_sustained_elevated_flips() {
        let cache = SudokuConfig::small(Scheme::Z, 1024, 16);
        let audit = AuditConfig {
            scrub_deadline: Duration::from_secs(3600),
            due_fit_budget: 1.0,
            burn_threshold: 1.0,
            fast_window: Duration::from_secs(1),
            slow_window: Duration::from_secs(4),
            ..AuditConfig::default()
        };
        let plan = ShardPlan::new(&cache, 4).unwrap();
        let plane = Arc::new(AuditPlane::new(&plan, audit).unwrap());
        let geom = geom4(&plan);
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, Some((&cache, &geom)));
        let t0 = Instant::now();
        // A flip rate implying BER ~1e-3 per interval — catastrophic —
        // spread evenly over the 64 cells.
        let bits = 1024.0 * 553.0;
        let per_sec = 1e-3 * bits / 20e-3;
        for step in 0..6u64 {
            let mut obs = quiet_obs(t0 + Duration::from_secs(step));
            obs.daemon_expected = false;
            obs.grids = ecc1(vec![(per_sec * step as f64 / 64.0) as u64; 64]);
            dog.scan(&obs);
        }
        assert_eq!(plane.alerts.count(AlertClass::BudgetBurn), 1, "latched");
        assert!(plane.burn_slow.get() > 1.0);
        assert!(plane.observed_ber.get() > 1e-4);
        assert!(plane
            .degraded_reasons()
            .contains(&"budget_burn".to_string()));
    }

    #[test]
    fn spatial_correlation_fires_on_clustered_cells_only() {
        let cache = SudokuConfig::small(Scheme::Z, 1024, 16);
        let plan = ShardPlan::new(&cache, 4).unwrap();
        let plane = Arc::new(
            AuditPlane::new(
                &plan,
                AuditConfig {
                    scrub_deadline: Duration::from_secs(3600),
                    ..AuditConfig::default()
                },
            )
            .unwrap(),
        );
        let geom = geom4(&plan);
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, Some((&cache, &geom)));
        let mut obs = quiet_obs(Instant::now());
        // i.i.d.: 128 events spread evenly over the 64 cells — quiet.
        obs.grids = ecc1(vec![2u64; 64]);
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::SpatialCorrelation), 0);
        // Clustered: 128 more events, all into one cell.
        let mut cells = vec![2u64; 64];
        cells[10] += 128;
        obs.grids = ecc1(cells.clone());
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::SpatialCorrelation), 1);
        let alert = &plane.alerts.recent(1)[0];
        assert_eq!(alert.shard, Some(10 / 16));
        assert!(plane
            .degraded_reasons()
            .contains(&"spatial_correlation".to_string()));
        // Latched while it persists (cumulative cells unchanged → an
        // empty window that cannot fire → the latch re-arms)…
        obs.grids = ecc1(cells.clone());
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::SpatialCorrelation), 1);
        // …so a second burst raises a second episode.
        cells[10] += 128;
        obs.grids = ecc1(cells);
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::SpatialCorrelation), 2);
        let stat = plane.latest_spatial().expect("detector stepped");
        assert!(stat.fired);
        assert_eq!(stat.max_shard, 0);
        assert_eq!(stat.max_region, 10);
    }

    #[test]
    fn worst_region_gauges_track_a_hot_region() {
        let cache = SudokuConfig::small(Scheme::Z, 1024, 16);
        let audit = AuditConfig {
            scrub_deadline: Duration::from_secs(3600),
            due_fit_budget: 1.0,
            fast_window: Duration::from_secs(1),
            slow_window: Duration::from_secs(8),
            ..AuditConfig::default()
        };
        let plan = ShardPlan::new(&cache, 4).unwrap();
        let plane = Arc::new(AuditPlane::new(&plan, audit).unwrap());
        let geom = geom4(&plan);
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, Some((&cache, &geom)));
        let t0 = Instant::now();
        // Every observed repair lands in region 3 (on shard 0): its gauge
        // BER runs 16× the cache-wide average, and the projected
        // whole-cache-at-that-BER burn dominates the cache-wide one.
        for step in 0..4u64 {
            let mut obs = quiet_obs(t0 + Duration::from_secs(step));
            obs.daemon_expected = false;
            let mut cells = vec![0u64; 64];
            cells[3] = step * 4000;
            obs.grids = ecc1(cells);
            dog.scan(&obs);
        }
        assert_eq!(plane.worst_region.get(), 3);
        assert!(plane.worst_region_ber.get() > plane.observed_ber.get());
        assert!(plane.worst_region_burn.get() >= plane.burn_slow.get());
        let snap = plane.snapshot();
        assert_eq!(snap.worst_region, 3);
        assert!(snap.worst_region_burn > 0.0);
    }

    /// One alert as the characterization compares it: (class, severity,
    /// shard, value, threshold, message).
    type Want = (AlertClass, Severity, Option<usize>, f64, f64, String);

    /// The blanked value of a staleness alert. Staleness is wall-clock
    /// time, so its value is pinned by its bound and its rendering, then
    /// blanked for the exact comparison.
    const STALE: f64 = -1.0;

    fn fresh_alerts(plane: &AuditPlane, seen: &mut u64) -> Vec<Want> {
        let new = plane.alerts.since(*seen);
        *seen = plane.alerts.total();
        new.iter()
            .map(|a| {
                let mut want = (
                    a.class,
                    a.severity,
                    a.shard,
                    a.value,
                    a.threshold,
                    a.message.clone(),
                );
                if a.message.contains(" stale, past the ") {
                    assert!(a.value > a.threshold, "{a:?}");
                    assert_eq!(
                        a.message,
                        format!(
                            "shard {}: worst packet {:.2} ms stale, past the {:.0} ms \
                             scrub deadline",
                            a.shard.unwrap(),
                            a.value / 1e6,
                            a.threshold / 1e6
                        )
                    );
                    want.3 = STALE;
                    want.5 = String::new();
                }
                want
            })
            .collect()
    }

    /// Scripts every alert class through enter, hold, clear and re-enter
    /// (quarantine and daemon death: enter and hold) over two shards, and
    /// pins the exact alert stream and `/healthz` reason list after every
    /// scan.
    #[test]
    fn episode_stream_is_characterized() {
        const DEADLINE_NS: f64 = 100e6;
        let cache = SudokuConfig::small(Scheme::Z, 1024, 16);
        let audit = AuditConfig {
            scrub_deadline: Duration::from_millis(100),
            packet_lines: 256,
            tick_lag_budget: Duration::from_millis(2),
            queue_saturation_scans: 2,
            daemon_stall_ticks: 4,
            due_fit_budget: 1.0,
            burn_threshold: 1.0,
            fast_window: Duration::from_secs(1),
            slow_window: Duration::from_secs(4),
            ..AuditConfig::default()
        };
        let plan = ShardPlan::new(&cache, 2).unwrap();
        let plane = Arc::new(AuditPlane::new(&plan, audit).unwrap());
        let geom = RegionGeometry::new(2, 16, 1024, |l| plan.shard_of_line(l));
        assert_eq!(plane.tracker.n_packets(0), 2);
        assert_eq!(plane.tracker.n_packets(1), 2);
        let mut dog = Watchdog::new(
            Arc::clone(&plane),
            2,
            8,
            Some(Duration::from_millis(2)),
            Some((&cache, &geom)),
        );
        let mut seen = 0u64;

        let stale = |shard: usize| -> Want {
            (
                AlertClass::DeadlineMiss,
                Severity::Critical,
                Some(shard),
                STALE,
                DEADLINE_NS,
                String::new(),
            )
        };
        // The counted-miss alert reports the tracker's last missed
        // interval, which the scan left in place.
        let missed = |shard: usize, new: u64| -> Want {
            let ns = plane.tracker.last_miss_ns(shard) as f64;
            (
                AlertClass::DeadlineMiss,
                Severity::Critical,
                Some(shard),
                ns,
                DEADLINE_NS,
                format!(
                    "shard {shard}: {new} packet(s) exceeded the scrub deadline \
                     (worst achieved interval {:.2} ms)",
                    ns / 1e6
                ),
            )
        };
        let floor = |clamps: u64, misses: u64| -> Want {
            (
                AlertClass::ScrubFloorBreach,
                Severity::Critical,
                None,
                clamps as f64,
                0.0,
                format!(
                    "scrub quota pinned at its floor ({clamps} fresh clamp(s)) while \
                     {misses} packet(s) still missed the deadline — no backoff honors \
                     the BER contract"
                ),
            )
        };
        let lag = || -> Want {
            (
                AlertClass::TickLagBreach,
                Severity::Warning,
                None,
                5e6,
                2e6,
                "daemon tick started 5.00 ms late (budget 2.00 ms)".to_string(),
            )
        };
        let saturated = |shard: usize| -> Want {
            (
                AlertClass::QueueSaturation,
                Severity::Warning,
                Some(shard),
                8.0,
                8.0,
                format!("shard {shard} queue pinned at bound 8 for 2 consecutive scans"),
            )
        };
        let stuck = |ticks: u64| -> Want {
            (
                AlertClass::DaemonStuck,
                Severity::Critical,
                None,
                1000.0,
                8.0,
                format!("scrub daemon alive but tick counter stalled at {ticks} for 1000.0 ms"),
            )
        };
        let quarantined = |shard: usize| -> Want {
            (
                AlertClass::ShardQuarantined,
                Severity::Critical,
                Some(shard),
                1.0,
                0.0,
                format!("shard {shard} quarantined; serving N-1"),
            )
        };
        // The burn alert reports the slow-window gauges the scan just set.
        let burn = || -> Want {
            let s = plane.burn_slow.get();
            assert!(plane.burn_fast.get() > 1.0 && s > 1.0);
            (
                AlertClass::BudgetBurn,
                Severity::Critical,
                None,
                s,
                1.0,
                format!(
                    "error-budget burn {s:.2}x over both windows (projected DUE \
                     {:.3e} FIT vs budget {:.3e})",
                    plane.projected_fit.get(),
                    1.0
                ),
            )
        };
        // `n` window repairs, all into cell 19 = (shard 1, region 3) of
        // 32: mean n/32, z = (n - mean) / √mean, dispersion
        // (n²/32 - mean²) / mean. For n = 128: z 62, dispersion 124.
        let spatial = |n: u64| -> Want {
            let n = n as f64;
            let mean = n / 32.0;
            let z = (n - mean) / mean.sqrt();
            let dispersion = (n * n / 32.0 - mean * mean) / mean;
            (
                AlertClass::SpatialCorrelation,
                Severity::Critical,
                Some(1),
                z,
                8.0,
                format!(
                    "spatially correlated failures: {n} of {n} window repairs landed in \
                     cell (shard 1, region 3) — z {z:.1}, dispersion {dispersion:.1} \
                     reject the i.i.d. hypothesis"
                ),
            )
        };

        let t0 = Instant::now();
        macro_rules! scan {
            ($obs:expr => [$($want:expr),*] ; [$($reason:expr),*]) => {{
                dog.scan(&$obs);
                let got = fresh_alerts(&plane, &mut seen);
                let at = $obs.now.duration_since(t0).as_secs();
                assert_eq!(got, vec![$($want),*] as Vec<Want>, "alerts at t={at}s");
                assert_eq!(
                    plane.degraded_reasons(),
                    vec![$($reason),*] as Vec<&str>,
                    "reasons at t={at}s"
                );
            }};
        }
        // Every scan advances the synthetic clock 1 s and, unless frozen,
        // the daemon's tick counter.
        fn tick(obs: &mut ScanObs) {
            obs.now += Duration::from_secs(1);
            obs.scrub_ticks += 1;
        }
        fn freeze(obs: &mut ScanObs) {
            obs.now += Duration::from_secs(1);
        }
        let nap = || std::thread::sleep(Duration::from_millis(120));
        let (st0, st1) = (
            "scrub_deadline_stale shard=0",
            "scrub_deadline_stale shard=1",
        );
        let (q0, q1) = ("shard_quarantined shard=0", "shard_quarantined shard=1");
        let qs1 = "queue_saturation shard=1";

        // Every scan samples the grids unless told otherwise; the repairs
        // are ECC-1 ones, so a cell's events and flips are one count.
        let mut cells = vec![0u64; 32];
        let mut obs = ScanObs {
            queue_depths: vec![0; 2],
            grids: ecc1(cells.clone()),
            ..quiet_obs(t0)
        };
        scan!(obs => []; []);

        // Staleness enters on both shards and holds; sweeping shard 0
        // clears it there and counts two misses, which pair with a fresh
        // floor clamp into a floor breach.
        nap();
        tick(&mut obs);
        scan!(obs => [stale(0), stale(1)]; [st0, st1]);
        tick(&mut obs);
        scan!(obs => []; [st0, st1]);
        plane.tracker.note_packet(0, 0);
        plane.tracker.note_packet(0, 1);
        obs.floor_clamps = 1;
        tick(&mut obs);
        scan!(obs => [missed(0, 2), floor(1, 2)]; ["scrub_floor_breach", st1]);

        // Shard 0 goes stale again; a fresh miss on shard 1 holds the
        // breach, which clears once the misses' pairing window runs out.
        nap();
        plane.tracker.note_packet(1, 0);
        tick(&mut obs);
        scan!(obs => [stale(0), missed(1, 1)]; ["scrub_floor_breach", st0, st1]);
        tick(&mut obs);
        scan!(obs => []; ["scrub_floor_breach", st0, st1]);
        tick(&mut obs);
        scan!(obs => []; ["scrub_floor_breach", st0, st1]);
        tick(&mut obs);
        scan!(obs => []; [st0, st1]);
        plane.tracker.note_packet(0, 0);
        obs.floor_clamps = 2;
        tick(&mut obs);
        scan!(obs => [missed(0, 1), floor(1, 1)]; ["scrub_floor_breach", st0, st1]);

        // Tick lag and shard 1's queue saturation, interleaved.
        obs.last_tick_lag_ns = 5_000_000;
        obs.queue_depths = vec![0, 8];
        tick(&mut obs);
        scan!(obs => [lag()]; ["tick_lag_breach", st0, st1]);
        tick(&mut obs);
        scan!(obs => [saturated(1)]; ["tick_lag_breach", st0, st1, qs1]);
        obs.last_tick_lag_ns = 0;
        tick(&mut obs);
        scan!(obs => []; [st0, st1, qs1]);
        obs.last_tick_lag_ns = 5_000_000;
        obs.queue_depths = vec![0, 0];
        tick(&mut obs);
        scan!(obs => [lag()]; ["tick_lag_breach", st0, st1]);
        obs.last_tick_lag_ns = 0;
        obs.queue_depths = vec![0, 8];
        tick(&mut obs);
        scan!(obs => []; [st0, st1]);
        obs.queue_depths = vec![8, 8];
        tick(&mut obs);
        scan!(obs => [saturated(1)]; [st0, st1, qs1]);
        obs.queue_depths = vec![0, 0];
        tick(&mut obs);
        scan!(obs => []; [st0, st1]);

        // A frozen tick counter past 4 × 2 ms is a stall.
        freeze(&mut obs);
        scan!(obs => [stuck(obs.scrub_ticks)]; ["daemon_stuck", st0, st1]);
        freeze(&mut obs);
        scan!(obs => []; ["daemon_stuck", st0, st1]);
        tick(&mut obs);
        scan!(obs => []; [st0, st1]);
        freeze(&mut obs);
        scan!(obs => [stuck(obs.scrub_ticks)]; ["daemon_stuck", st0, st1]);
        tick(&mut obs);
        scan!(obs => []; [st0, st1]);

        // Quarantine never re-arms; the shards stay quarantined.
        obs.quarantined = vec![1];
        tick(&mut obs);
        scan!(obs => [quarantined(1)]; [st0, q1, st1]);
        obs.quarantined = vec![0, 1];
        tick(&mut obs);
        scan!(obs => [quarantined(0)]; [q0, st0, q1, st1]);

        // A flip rate of BER 1e-3 per 100 ms interval, spread evenly over
        // the 32 cells, burns both windows without clustering; spatial
        // bursts ride along while the burn holds.
        let rate = (1e-3 * 1024.0 * 553.0 / 0.1) as u64;
        let spread = |cells: &mut Vec<u64>| cells.iter_mut().for_each(|c| *c += rate / 32);
        spread(&mut cells);
        obs.grids = ecc1(cells.clone());
        tick(&mut obs);
        scan!(obs => [burn()]; ["budget_burn", q0, st0, q1, st1]);
        spread(&mut cells);
        obs.grids = ecc1(cells.clone());
        tick(&mut obs);
        scan!(obs => []; ["budget_burn", q0, st0, q1, st1]);
        tick(&mut obs);
        scan!(obs => []; ["budget_burn", q0, st0, q1, st1]);
        cells[19] += 128;
        obs.grids = ecc1(cells.clone());
        tick(&mut obs);
        scan!(obs => [spatial(128)]; ["budget_burn", "spatial_correlation", q0, st0, q1, st1]);
        cells[19] += 128;
        obs.grids = ecc1(cells.clone());
        tick(&mut obs);
        scan!(obs => []; ["budget_burn", "spatial_correlation", q0, st0, q1, st1]);
        // The burn's flips leave the slow window while the cluster
        // persists; once it stops, the spatial episode clears too.
        cells[19] += 128;
        obs.grids = ecc1(cells.clone());
        tick(&mut obs);
        scan!(obs => []; ["spatial_correlation", q0, st0, q1, st1]);
        tick(&mut obs);
        scan!(obs => []; [q0, st0, q1, st1]);
        // A hot cell at the burn rate re-enters both at once.
        cells[19] += rate;
        obs.grids = ecc1(cells.clone());
        tick(&mut obs);
        scan!(obs => [burn(), spatial(rate)];
            ["budget_burn", "spatial_correlation", q0, st0, q1, st1]);

        // Between grid samples every episode the grids drive holds; the
        // next sample, 2 s after the last, blinds the 1 s fast window.
        obs.grids = None;
        tick(&mut obs);
        scan!(obs => []; ["budget_burn", "spatial_correlation", q0, st0, q1, st1]);
        obs.grids = ecc1(cells.clone());
        tick(&mut obs);
        scan!(obs => []; ["budget_burn", "burn_fast_blind", q0, st0, q1, st1]);
        tick(&mut obs);
        scan!(obs => []; ["budget_burn", q0, st0, q1, st1]);
        obs.now += Duration::from_secs(1);
        tick(&mut obs);
        scan!(obs => []; ["burn_fast_blind", q0, st0, q1, st1]);
        tick(&mut obs);
        scan!(obs => []; [q0, st0, q1, st1]);

        // Daemon death is terminal, and silences the stall check.
        obs.daemon_dead = true;
        tick(&mut obs);
        let dead: Want = (
            AlertClass::DaemonDead,
            Severity::Critical,
            None,
            1.0,
            0.0,
            "scrub daemon died to a panic; scrubbing has stopped".to_string(),
        );
        scan!(obs => [dead]; ["daemon_dead", q0, st0, q1, st1]);
        freeze(&mut obs);
        scan!(obs => []; ["daemon_dead", q0, st0, q1, st1]);
    }
}
