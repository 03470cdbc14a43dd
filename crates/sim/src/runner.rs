//! Workload runner: simulates SuDoku-Z against the idealized error-free
//! cache on identical traces and reports the normalized results of
//! Figures 8 and 9.

use crate::config::{EnergyModel, SystemConfig};
use crate::energy::{energy_of, EnergyBreakdown};
use crate::machine::{
    resolve_workload, CacheMode, Machine, Metrics, OverheadConfig, ResolvedWorkload,
};
use crate::trace::Workload;
use serde::{Deserialize, Serialize};

/// Everything measured for one workload under one cache mode.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Timing counters.
    pub metrics: Metrics,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl RunResult {
    /// Energy-delay product of the run.
    pub fn edp(&self) -> f64 {
        self.energy.edp(self.metrics.exec_time_ns)
    }

    /// Serializes the run (metrics, energy, derived EDP) as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_raw("metrics", &self.metrics.to_json())
            .field_raw("energy", &self.energy.to_json())
            .field_f64("edp", self.edp());
        obj.finish()
    }
}

/// The Figure 8/9 data point for one workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Workload name.
    pub name: String,
    /// Idealized error-free run.
    pub ideal: RunResult,
    /// SuDoku-Z run on the same trace.
    pub sudoku: RunResult,
}

impl Comparison {
    /// Execution time of SuDoku-Z normalized to ideal (Figure 8).
    pub fn time_ratio(&self) -> f64 {
        self.sudoku.metrics.exec_time_ns / self.ideal.metrics.exec_time_ns
    }

    /// System-EDP of SuDoku-Z normalized to ideal (Figure 9).
    pub fn edp_ratio(&self) -> f64 {
        self.sudoku.edp() / self.ideal.edp()
    }

    /// Serializes the data point (both runs plus the Figure 8/9 ratios)
    /// as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_str("name", &self.name)
            .field_raw("ideal", &self.ideal.to_json())
            .field_raw("sudoku", &self.sudoku.to_json())
            .field_f64("time_ratio", self.time_ratio())
            .field_f64("edp_ratio", self.edp_ratio());
        obj.finish()
    }
}

/// Simulation driver configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunnerConfig {
    /// System shape and timings.
    pub system: SystemConfig,
    /// Energy parameters.
    pub energy: EnergyModel,
    /// SuDoku background activity.
    pub overhead: OverheadConfig,
    /// LLC accesses simulated per core.
    pub accesses_per_core: u64,
    /// Trace seed.
    pub seed: u64,
}

impl RunnerConfig {
    /// Paper-like defaults with a given per-core access budget.
    pub fn paper_default(accesses_per_core: u64, seed: u64) -> Self {
        RunnerConfig {
            system: SystemConfig::paper_default(),
            energy: EnergyModel::paper_default(),
            overhead: OverheadConfig::paper_default(),
            accesses_per_core,
            seed,
        }
    }
}

/// Runs one already-resolved workload under one mode.
pub fn run_resolved(cfg: &RunnerConfig, resolved: &ResolvedWorkload, mode: CacheMode) -> RunResult {
    let machine = Machine::new(cfg.system, mode, cfg.overhead);
    let metrics = machine.simulate(resolved);
    let energy = energy_of(&cfg.system, &cfg.energy, mode, &cfg.overhead, &metrics);
    RunResult { metrics, energy }
}

/// Runs the ideal-vs-SuDoku-Z comparison for one workload: both modes
/// replay the *same* resolved access stream, so the ratios isolate
/// SuDoku's overheads.
pub fn compare_workload(cfg: &RunnerConfig, workload: &Workload) -> Comparison {
    let resolved = resolve_workload(&cfg.system, workload, cfg.accesses_per_core, cfg.seed);
    Comparison {
        name: workload.name.clone(),
        ideal: run_resolved(cfg, &resolved, CacheMode::Ideal),
        sudoku: run_resolved(cfg, &resolved, CacheMode::sudoku_z()),
    }
}

/// Geometric-mean helper for figure summaries.
pub fn geo_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return f64::NAN;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::paper_workloads;

    #[test]
    fn comparison_ratios_match_paper_shape() {
        let cfg = RunnerConfig::paper_default(8_000, 17);
        let workloads = paper_workloads(4);
        let mut time_ratios = Vec::new();
        let mut edp_ratios = Vec::new();
        for w in workloads.iter().take(5) {
            let c = compare_workload(&cfg, w);
            assert!(c.time_ratio() >= 1.0, "{}: {}", c.name, c.time_ratio());
            assert!(c.time_ratio() < 1.03, "{}: {}", c.name, c.time_ratio());
            time_ratios.push(c.time_ratio());
            edp_ratios.push(c.edp_ratio());
        }
        let t = geo_mean(time_ratios);
        let e = geo_mean(edp_ratios);
        // Paper: ~0.1–0.15 % slowdown, ≤0.4 % EDP. Allow headroom on the
        // short unit-test traces.
        assert!((1.0..1.02).contains(&t), "time {t}");
        assert!((1.0..1.03).contains(&e), "edp {e}");
    }

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!(geo_mean(std::iter::empty()).is_nan());
    }
}
