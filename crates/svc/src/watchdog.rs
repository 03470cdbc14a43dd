//! The anomaly watchdog: turns audit-plane measurements into
//! [`Alert`]s.
//!
//! A dedicated thread scans the live signals every
//! [`AuditConfig::scan_every`] and raises **latched episodes** into the
//! plane's [`AlertLog`]: one alert on entering a bad state, silence while
//! it persists, re-arm when it clears. Nine alert classes:
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
//! the live loop ([`watchdog_loop`]) builds one from the registry and
//! cache each period; tests feed synthetic ones and assert on the alert
//! stream deterministically.
//!
//! Latched conditions are also rendered into the plane's
//! degradation-reason list, which the exporter serves in the `/healthz`
//! *body*. The 200/503 status itself is untouched: probes keep flapping
//! only on quarantine and daemon death, never on soft conditions.
//!
//! [`Alert`]: sudoku_obs::Alert
//! [`AlertLog`]: sudoku_obs::AlertLog
//! [`AuditConfig::scan_every`]: crate::audit::AuditConfig::scan_every

use crate::audit::{AuditPlane, ReliabilityEstimator};
use crate::sharded::ShardedCache;
use crate::telemetry::TelemetryRegistry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use sudoku_obs::{AlertClass, Severity};

/// One scan's worth of observations, as plain data. The live loop fills
/// this from the telemetry registry and the cache; tests construct it
/// directly.
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
    /// Latest daemon tick-start lag, ns.
    pub last_tick_lag_ns: u64,
    /// Cumulative scrub ticks completed.
    pub scrub_ticks: u64,
    /// Per-shard live queue depth.
    pub queue_depths: Vec<u64>,
    /// Quarantined shards, ascending.
    pub quarantined: Vec<usize>,
    /// Cumulative observed raw flips ([`ReliabilityEstimator::observed_flips`])
    /// when this scan sampled them; `None` on scans between samples.
    pub flips: Option<u64>,
    /// Cumulative adaptive-scrub floor clamps (visits where demand
    /// pressure asked for less than the quota floor).
    pub floor_clamps: u64,
    /// Cumulative observed-repair heatmap cells
    /// ([`sudoku_obs::Heatmaps::observed_cells`]) when this scan sampled
    /// them; `None` on scans between samples (sampled at the flip
    /// cadence — grid reads are cheap, but the counters only move as
    /// fast as repairs happen).
    pub region_cells: Option<Vec<u64>>,
    /// The same sample folded across shards into cumulative per-region
    /// totals, feeding the per-region error-budget window.
    pub region_totals: Option<Vec<u64>>,
}

/// Per-shard episode latches.
#[derive(Clone, Copy, Debug, Default)]
struct ShardLatch {
    stale: bool,
    sat_streak: u32,
    saturated: bool,
    quarantined: bool,
}

/// The watchdog's mutable scan state: latches, streaks, and the
/// reliability estimator's sample window.
pub struct Watchdog {
    plane: std::sync::Arc<AuditPlane>,
    estimator: Option<ReliabilityEstimator>,
    /// Queue bound (a depth at this value is saturated).
    queue_bound: u64,
    /// `daemon_stall_ticks` × scrub period; `None` disables stall checks.
    stall_budget: Option<Duration>,
    shards: Vec<ShardLatch>,
    /// Per-shard deadline misses seen as of the previous scan.
    last_misses: Vec<u64>,
    lag_high: bool,
    daemon_dead_raised: bool,
    stall_raised: bool,
    burning: bool,
    last_scrub_ticks: u64,
    ticks_advanced_at: Option<Instant>,
    last_floor_clamps: u64,
    last_total_misses: u64,
    clamps_fresh: u8,
    misses_fresh: u8,
    window_clamps: u64,
    window_misses: u64,
    floor_breach_raised: bool,
    fast_blind: bool,
    spatial_raised: bool,
}

/// How many scans a fresh floor-clamp (or deadline-miss) observation
/// stays eligible to pair with the other signal for the floor-breach
/// alert. The daemon writes the two counters milliseconds apart, so a
/// strict same-scan test would drop real breaches to scan-boundary luck.
const PAIRING_SCANS: u8 = 3;

impl Watchdog {
    /// A watchdog over `plane` for `n_shards` shards with the given queue
    /// bound. `scrub_every` sizes the daemon-stall budget (`None` = no
    /// daemon, stall checks off). `estimator` enables the budget-burn
    /// class.
    pub fn new(
        plane: std::sync::Arc<AuditPlane>,
        n_shards: usize,
        queue_bound: u64,
        scrub_every: Option<Duration>,
        estimator: Option<ReliabilityEstimator>,
    ) -> Self {
        let stall_budget = scrub_every.map(|t| t * plane.config.daemon_stall_ticks.max(1));
        Watchdog {
            plane,
            estimator,
            queue_bound,
            stall_budget,
            shards: vec![ShardLatch::default(); n_shards],
            last_misses: vec![0; n_shards],
            lag_high: false,
            daemon_dead_raised: false,
            stall_raised: false,
            burning: false,
            last_scrub_ticks: 0,
            ticks_advanced_at: None,
            last_floor_clamps: 0,
            last_total_misses: 0,
            clamps_fresh: 0,
            misses_fresh: 0,
            window_clamps: 0,
            window_misses: 0,
            floor_breach_raised: false,
            fast_blind: false,
            spatial_raised: false,
        }
    }

    /// One scan step: raises alerts for newly-entered episodes, re-arms
    /// cleared ones, refreshes the live estimate gauges, and rewrites the
    /// `/healthz` degradation reasons.
    pub fn scan(&mut self, obs: &ScanObs) {
        let cfg_scans = self.plane.config.queue_saturation_scans.max(1);
        let plane = std::sync::Arc::clone(&self.plane);
        let deadline_ns = plane.tracker.deadline_ns();

        // --- scrub-deadline accounting (only with a daemon to hold it) --
        if obs.daemon_expected {
            for shard in 0..self.shards.len() {
                // Completed-sweep misses recorded by the tracker since the
                // previous scan.
                let misses = plane.tracker.misses(shard);
                if misses > self.last_misses[shard] {
                    let new = misses - self.last_misses[shard];
                    self.last_misses[shard] = misses;
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
                let latch = &mut self.shards[shard];
                if staleness > deadline_ns {
                    if !latch.stale {
                        latch.stale = true;
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
                    }
                } else {
                    latch.stale = false;
                }
            }

            // --- daemon tick lag ---------------------------------------
            let budget_ns = self.plane.config.tick_lag_budget.as_nanos() as u64;
            if obs.last_tick_lag_ns > budget_ns {
                if !self.lag_high {
                    self.lag_high = true;
                    plane.alerts.raise(
                        AlertClass::TickLagBreach,
                        Severity::Warning,
                        None,
                        obs.last_tick_lag_ns as f64,
                        budget_ns as f64,
                        format!(
                            "daemon tick started {:.2} ms late (budget \
                             {:.2} ms)",
                            obs.last_tick_lag_ns as f64 / 1e6,
                            budget_ns as f64 / 1e6
                        ),
                    );
                }
            } else {
                self.lag_high = false;
            }

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
            // breach.
            let total_misses = plane.tracker.total_misses();
            let clamps_up = obs.floor_clamps > self.last_floor_clamps;
            let misses_up = total_misses > self.last_total_misses;
            if clamps_up {
                self.clamps_fresh = PAIRING_SCANS;
                self.window_clamps = obs.floor_clamps - self.last_floor_clamps;
            }
            if misses_up {
                self.misses_fresh = PAIRING_SCANS;
                self.window_misses = total_misses - self.last_total_misses;
            }
            if self.clamps_fresh > 0 && self.misses_fresh > 0 {
                if !self.floor_breach_raised {
                    self.floor_breach_raised = true;
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
                }
                // One coincidence fires once: consume the pair.
                self.clamps_fresh = 0;
                self.misses_fresh = 0;
            } else if !misses_up && self.misses_fresh == 0 {
                self.floor_breach_raised = false;
            }
            self.clamps_fresh = self.clamps_fresh.saturating_sub(1);
            self.misses_fresh = self.misses_fresh.saturating_sub(1);
            self.last_floor_clamps = obs.floor_clamps;
            self.last_total_misses = total_misses;

            // --- daemon death / stall ----------------------------------
            if obs.daemon_dead {
                if !self.daemon_dead_raised {
                    self.daemon_dead_raised = true;
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
                }
            } else if let Some(stall_budget) = self.stall_budget {
                if obs.scrub_ticks != self.last_scrub_ticks || self.ticks_advanced_at.is_none() {
                    self.last_scrub_ticks = obs.scrub_ticks;
                    self.ticks_advanced_at = Some(obs.now);
                    self.stall_raised = false;
                } else if let Some(at) = self.ticks_advanced_at {
                    let stalled = obs.now.duration_since(at);
                    if stalled > stall_budget && !self.stall_raised {
                        self.stall_raised = true;
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
                    }
                }
            }
        }

        // --- queue saturation ------------------------------------------
        for (shard, &depth) in obs.queue_depths.iter().enumerate() {
            if shard >= self.shards.len() {
                break;
            }
            let latch = &mut self.shards[shard];
            if self.queue_bound > 0 && depth >= self.queue_bound {
                latch.sat_streak = latch.sat_streak.saturating_add(1);
                if latch.sat_streak >= cfg_scans && !latch.saturated {
                    latch.saturated = true;
                    plane.alerts.raise(
                        AlertClass::QueueSaturation,
                        Severity::Warning,
                        Some(shard),
                        depth as f64,
                        self.queue_bound as f64,
                        format!(
                            "shard {shard} queue pinned at bound {} for \
                             {} consecutive scans",
                            self.queue_bound, latch.sat_streak
                        ),
                    );
                }
            } else {
                latch.sat_streak = 0;
                latch.saturated = false;
            }
        }

        // --- quarantine ------------------------------------------------
        for &shard in &obs.quarantined {
            if let Some(latch) = self.shards.get_mut(shard) {
                if !latch.quarantined {
                    latch.quarantined = true;
                    plane.alerts.raise(
                        AlertClass::ShardQuarantined,
                        Severity::Critical,
                        Some(shard),
                        1.0,
                        0.0,
                        format!("shard {shard} quarantined; serving N-1"),
                    );
                }
            }
        }

        // --- error-budget burn -----------------------------------------
        if let (Some(est), Some(flips)) = (self.estimator.as_mut(), obs.flips) {
            est.push_sample(obs.now, flips);
            // Sparse sampling: the sampler period exceeds the fast window,
            // so the fast burn rate is structurally `None`. Surface the
            // blindness as a degraded reason instead of silently losing
            // the sharp-regression detector.
            self.fast_blind = est.fast_window_blind();
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
            match (fast, slow) {
                (Some(f), Some(s)) if f > threshold && s > threshold && !self.burning => {
                    self.burning = true;
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
                }
                (_, Some(s)) if s <= threshold => self.burning = false,
                _ => {}
            }
        }

        // --- spatial correlation ---------------------------------------
        // The detector windows cumulative cells itself, so each sampled
        // scan is one step; between samples the latch simply holds.
        if let Some(cells) = &obs.region_cells {
            if let Some(stat) = plane.step_spatial_cells(cells) {
                if stat.fired {
                    if !self.spatial_raised {
                        self.spatial_raised = true;
                        plane.alerts.raise(
                            AlertClass::SpatialCorrelation,
                            Severity::Critical,
                            Some(stat.max_shard),
                            stat.z,
                            plane.spatial_z_threshold().unwrap_or(0.0),
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
                    }
                } else {
                    self.spatial_raised = false;
                }
            }
        }

        // --- per-region error budget -----------------------------------
        if let (Some(est), Some(totals)) = (self.estimator.as_mut(), &obs.region_totals) {
            est.push_region_sample(obs.now, totals.clone());
            let slow_window = plane.config.slow_window;
            if let Some((region, ber)) = est.worst_region_ber(slow_window) {
                plane.worst_region.set(region as u64);
                plane.worst_region_ber.set(ber);
            }
            if let Some((_, burn)) = est.worst_region_burn(slow_window) {
                plane.worst_region_burn.set(burn);
            }
        }

        // --- /healthz degradation reasons ------------------------------
        let mut reasons = Vec::new();
        if self.daemon_dead_raised {
            reasons.push("daemon_dead".to_string());
        }
        if self.stall_raised {
            reasons.push("daemon_stuck".to_string());
        }
        if self.lag_high {
            reasons.push("tick_lag_breach".to_string());
        }
        if self.burning {
            reasons.push("budget_burn".to_string());
        }
        if self.floor_breach_raised {
            reasons.push("scrub_floor_breach".to_string());
        }
        if self.fast_blind {
            reasons.push("burn_fast_blind".to_string());
        }
        if self.spatial_raised {
            reasons.push("spatial_correlation".to_string());
        }
        for (shard, latch) in self.shards.iter().enumerate() {
            if latch.quarantined {
                reasons.push(format!("shard_quarantined shard={shard}"));
            }
            if latch.stale {
                reasons.push(format!("scrub_deadline_stale shard={shard}"));
            }
            if latch.saturated {
                reasons.push(format!("queue_saturation shard={shard}"));
            }
        }
        plane.set_degraded_reasons(reasons);
    }
}

/// The live watchdog thread body: scans every
/// [`AuditConfig::scan_every`], sampling cumulative observed flips at a
/// coarser cadence (shard locks are touched only on flip samples, never
/// on plain scans).
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
    let estimator = ReliabilityEstimator::new(state.config(), &plane.config);
    let mut dog = Watchdog::new(
        std::sync::Arc::clone(plane),
        state.n_shards(),
        queue_bound,
        scrub_every,
        Some(estimator),
    );
    let scan_every = plane.config.scan_every.max(Duration::from_millis(1));
    // Flip sampling aggregates CacheStats under shard locks — keep it to
    // a few Hz so the watchdog never becomes demand-path contention.
    let flip_every = (plane.config.fast_window / 4).max(Duration::from_millis(100));
    let mut last_flip_sample: Option<Instant> = None;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        let sample_flips = last_flip_sample.is_none_or(|at| now.duration_since(at) >= flip_every);
        let flips = if sample_flips {
            last_flip_sample = Some(now);
            Some(ReliabilityEstimator::observed_flips(&state.stats()))
        } else {
            None
        };
        // Heatmap samples ride the same coarse cadence: plain relaxed grid
        // reads, folded across shards for the per-region budget window.
        let (region_cells, region_totals) = if sample_flips {
            let maps = state.heatmaps();
            let cells = maps.observed_cells();
            let n_regions = maps.geometry().n_regions();
            let mut totals = vec![0u64; n_regions];
            for (i, &c) in cells.iter().enumerate() {
                totals[i % n_regions] += c;
            }
            (Some(cells), Some(totals))
        } else {
            (None, None)
        };
        let obs = ScanObs {
            now,
            daemon_expected: scrub_every.is_some(),
            daemon_dead: reg.daemon_dead.get() != 0,
            last_tick_lag_ns: reg.last_tick_lag_ns.get(),
            scrub_ticks: reg.scrub_ticks.get(),
            queue_depths: reg.queue_depths(),
            quarantined: state.health().quarantined(),
            flips,
            floor_clamps: reg.scrub_floor_clamps.get(),
            region_cells,
            region_totals,
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
    use sudoku_core::{Scheme, ShardPlan, SudokuConfig};
    use sudoku_obs::RegionGeometry;

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
            flips: None,
            floor_clamps: 0,
            region_cells: None,
            region_totals: None,
        }
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
        let plane = Arc::new(AuditPlane::new(&plan, audit.clone()).unwrap());
        let est = ReliabilityEstimator::new(&cache, &audit);
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, Some(est));
        let t0 = Instant::now();
        // Samples arriving 1 s apart against a 50 ms fast window: the
        // fast burn detector is structurally blind.
        for step in 0..2u64 {
            let mut obs = quiet_obs(t0 + Duration::from_secs(step));
            obs.daemon_expected = false;
            obs.flips = Some(step);
            dog.scan(&obs);
        }
        assert!(plane
            .degraded_reasons()
            .contains(&"burn_fast_blind".to_string()));
        // A sample inside the fast window restores sight.
        let mut obs = quiet_obs(t0 + Duration::from_secs(1) + Duration::from_millis(10));
        obs.daemon_expected = false;
        obs.flips = Some(2);
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
        let plane = Arc::new(AuditPlane::new(&plan, audit.clone()).unwrap());
        let est = ReliabilityEstimator::new(&cache, &audit);
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, Some(est));
        let t0 = Instant::now();
        // A flip rate implying BER ~1e-3 per interval — catastrophic.
        let bits = 1024.0 * 553.0;
        let per_sec = 1e-3 * bits / 20e-3;
        for step in 0..6u64 {
            let mut obs = quiet_obs(t0 + Duration::from_secs(step));
            obs.daemon_expected = false;
            obs.flips = Some((per_sec * step as f64) as u64);
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
        let geom = RegionGeometry::new(4, 16, 1024, |l| plan.shard_of_line(l));
        plane.arm_spatial(&geom);
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, None);
        let mut obs = quiet_obs(Instant::now());
        // i.i.d.: 128 events spread evenly over the 64 cells — quiet.
        obs.region_cells = Some(vec![2u64; 64]);
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::SpatialCorrelation), 0);
        // Clustered: 128 more events, all into one cell.
        let mut cells = vec![2u64; 64];
        cells[10] += 128;
        obs.region_cells = Some(cells.clone());
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::SpatialCorrelation), 1);
        let alert = &plane.alerts.recent(1)[0];
        assert_eq!(alert.shard, Some(10 / 16));
        assert!(plane
            .degraded_reasons()
            .contains(&"spatial_correlation".to_string()));
        // Latched while it persists (cumulative cells unchanged → an
        // empty window that cannot fire → the latch re-arms)…
        obs.region_cells = Some(cells.clone());
        dog.scan(&obs);
        assert_eq!(plane.alerts.count(AlertClass::SpatialCorrelation), 1);
        // …so a second burst raises a second episode.
        cells[10] += 128;
        obs.region_cells = Some(cells);
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
        let plane = Arc::new(AuditPlane::new(&plan, audit.clone()).unwrap());
        let est = ReliabilityEstimator::new(&cache, &audit);
        let mut dog = Watchdog::new(Arc::clone(&plane), 4, 64, None, Some(est));
        let t0 = Instant::now();
        // Every observed repair lands in region 3: its gauge BER runs 16×
        // the cache-wide average, and the projected whole-cache-at-that-
        // BER burn dominates the cache-wide one.
        for step in 0..4u64 {
            let mut obs = quiet_obs(t0 + Duration::from_secs(step));
            obs.daemon_expected = false;
            obs.flips = Some(step * 4000);
            let mut totals = vec![0u64; 16];
            totals[3] = step * 4000;
            obs.region_totals = Some(totals);
            dog.scan(&obs);
        }
        assert_eq!(plane.worst_region.get(), 3);
        assert!(plane.worst_region_ber.get() > plane.observed_ber.get());
        assert!(plane.worst_region_burn.get() >= plane.burn_slow.get());
        let snap = plane.snapshot();
        assert_eq!(snap.worst_region, 3);
        assert!(snap.worst_region_burn > 0.0);
    }
}
