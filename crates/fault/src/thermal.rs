//! The STTRAM thermal retention-failure model (paper §II-B, Eq. 1).
//!
//! A cell with thermal stability factor ∆ flips spontaneously with rate
//! λ = f₀·e^(−∆) (f₀ = 1 GHz attempt frequency), so the probability it
//! fails within a window t_s is `p_cell = 1 − e^(−λ·t_s)`. Process
//! variation makes ∆ itself Gaussian with σ of up to 10% of the mean
//! (paper §I); the *effective* bit error rate is the expectation of
//! `p_cell` over that distribution, which the low-∆ tail dominates.

use serde::{Deserialize, Serialize};

/// Default thermal attempt frequency, 1 GHz (paper Eq. 1).
pub const ATTEMPT_FREQ_HZ: f64 = 1.0e9;

/// Gaussian-∆ thermal model of an STTRAM cell population.
///
/// # Examples
///
/// ```
/// use sudoku_fault::ThermalModel;
///
/// // The paper's 22 nm operating point: ∆ = 35, σ = 10 %.
/// let model = ThermalModel::new(35.0, 0.10);
/// let ber = model.ber(20e-3);
/// // Paper Table I: ≈ 5.3e-6 per 20 ms scrub interval.
/// assert!(ber > 3e-6 && ber < 9e-6, "ber = {ber}");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    delta_mean: f64,
    sigma_frac: f64,
    attempt_freq_hz: f64,
}

impl ThermalModel {
    /// A model with mean thermal stability `delta_mean` and a normalized
    /// standard deviation `sigma_frac` (e.g. `0.10` for the paper's 10%).
    ///
    /// # Panics
    ///
    /// Panics if `delta_mean <= 0` or `sigma_frac < 0`.
    pub fn new(delta_mean: f64, sigma_frac: f64) -> Self {
        Self::with_attempt_freq(delta_mean, sigma_frac, ATTEMPT_FREQ_HZ)
    }

    /// Like [`ThermalModel::new`] with an explicit attempt frequency.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive (σ may be zero).
    pub fn with_attempt_freq(delta_mean: f64, sigma_frac: f64, attempt_freq_hz: f64) -> Self {
        assert!(delta_mean > 0.0, "delta must be positive");
        assert!(sigma_frac >= 0.0, "sigma fraction must be non-negative");
        assert!(attempt_freq_hz > 0.0, "attempt frequency must be positive");
        ThermalModel {
            delta_mean,
            sigma_frac,
            attempt_freq_hz,
        }
    }

    /// The paper's default operating point: ∆ = 35, σ = 10% (22 nm node).
    pub fn paper_default() -> Self {
        ThermalModel::new(35.0, 0.10)
    }

    /// Mean thermal stability factor.
    pub fn delta_mean(&self) -> f64 {
        self.delta_mean
    }

    /// Normalized σ of the ∆ distribution.
    pub fn sigma_frac(&self) -> f64 {
        self.sigma_frac
    }

    /// Absolute σ of the ∆ distribution.
    pub fn sigma(&self) -> f64 {
        self.delta_mean * self.sigma_frac
    }

    /// Failure rate (per second) of a single cell with exact stability
    /// `delta`: λ = f₀ e^(−∆).
    pub fn cell_rate(&self, delta: f64) -> f64 {
        self.attempt_freq_hz * (-delta).exp()
    }

    /// Failure probability of a single cell with exact stability `delta`
    /// within `window_s` seconds (paper Eq. 1).
    pub fn p_cell_fixed(&self, delta: f64, window_s: f64) -> f64 {
        -(-self.cell_rate(delta) * window_s).exp_m1()
    }

    /// Population-average failure rate E\[λ\].
    ///
    /// λ is log-normal in ∆, so E\[λ\] = f₀·e^(−µ + σ²/2) in closed form.
    pub fn effective_rate(&self) -> f64 {
        let s = self.sigma();
        self.attempt_freq_hz * (-self.delta_mean + 0.5 * s * s).exp()
    }

    /// The population-average cell MTTF, 1 / E\[λ\], in seconds.
    ///
    /// For the paper's ∆=35, σ=10% this is about one hour (§I), versus
    /// ~18 days without variation.
    pub fn mean_cell_mttf_s(&self) -> f64 {
        1.0 / self.effective_rate()
    }

    /// Effective bit error rate within a window: E_∆\[1 − e^(−λ(∆)·t)\],
    /// integrated numerically over the Gaussian ∆ distribution.
    ///
    /// For λt ≪ 1 over the entire relevant ∆ range this approaches
    /// `effective_rate() * window_s`; the integral also captures the
    /// saturation of the deep low-∆ tail.
    pub fn ber(&self, window_s: f64) -> f64 {
        assert!(window_s >= 0.0, "window must be non-negative");
        if window_s == 0.0 {
            return 0.0;
        }
        let s = self.sigma();
        if s == 0.0 {
            return self.p_cell_fixed(self.delta_mean, window_s);
        }
        // Composite Simpson over ±10σ; the integrand is smooth and the
        // Gaussian kills both tails.
        let lo = self.delta_mean - 10.0 * s;
        let hi = self.delta_mean + 10.0 * s;
        let n = 4000usize; // even
        let h = (hi - lo) / n as f64;
        let norm = 1.0 / (s * (2.0 * std::f64::consts::PI).sqrt());
        let f = |delta: f64| {
            let z = (delta - self.delta_mean) / s;
            norm * (-0.5 * z * z).exp() * self.p_cell_fixed(delta, window_s)
        };
        let mut acc = f(lo) + f(hi);
        for i in 1..n {
            let x = lo + i as f64 * h;
            acc += if i % 2 == 1 { 4.0 } else { 2.0 } * f(x);
        }
        (acc * h / 3.0).clamp(0.0, 1.0)
    }

    /// Expected number of failed bits among `bits` cells within a window.
    pub fn expected_failures(&self, bits: u64, window_s: f64) -> f64 {
        bits as f64 * self.ber(window_s)
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta35_cell_mttf_without_variation_is_about_18_days() {
        let m = ThermalModel::new(35.0, 0.0);
        let mttf_days = 1.0 / m.cell_rate(35.0) / 86_400.0;
        assert!((17.0..20.0).contains(&mttf_days), "{mttf_days} days");
    }

    #[test]
    fn delta35_sigma10_mean_mttf_is_about_an_hour() {
        let m = ThermalModel::paper_default();
        let mttf_h = m.mean_cell_mttf_s() / 3600.0;
        assert!((0.5..2.0).contains(&mttf_h), "{mttf_h} hours");
    }

    #[test]
    fn ber_matches_paper_table1_delta35() {
        let m = ThermalModel::paper_default();
        let ber = m.ber(20e-3);
        // Paper: 5.3e-6. Our integral gives the same order and ~10%
        // agreement with the linearized estimate.
        assert!((3e-6..9e-6).contains(&ber), "ber = {ber}");
    }

    #[test]
    fn ber_matches_paper_table1_delta60_order() {
        let m = ThermalModel::new(60.0, 0.10);
        let ber = m.ber(20e-3);
        // Paper: 2.7e-12; we accept the same decade neighbourhood.
        assert!(ber > 1e-13 && ber < 1e-10, "ber = {ber}");
    }

    #[test]
    fn ber_scales_almost_linearly_with_window() {
        let m = ThermalModel::paper_default();
        let b10 = m.ber(10e-3);
        let b20 = m.ber(20e-3);
        let ratio = b20 / b10;
        assert!((1.9..2.1).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn ber_increases_as_delta_decreases() {
        let windows = 20e-3;
        let b35 = ThermalModel::new(35.0, 0.10).ber(windows);
        let b34 = ThermalModel::new(34.0, 0.10).ber(windows);
        let b33 = ThermalModel::new(33.0, 0.10).ber(windows);
        assert!(b33 > b34 && b34 > b35);
    }

    #[test]
    fn zero_window_has_zero_ber() {
        assert_eq!(ThermalModel::paper_default().ber(0.0), 0.0);
    }

    #[test]
    fn sigma_zero_matches_fixed_formula() {
        let m = ThermalModel::new(35.0, 0.0);
        let direct = m.p_cell_fixed(35.0, 0.02);
        assert!((m.ber(0.02) - direct).abs() < 1e-18);
    }

    #[test]
    fn expected_failures_64mb_is_thousands_of_bits() {
        // Paper §I: ~2880 faulty bits per 20 ms in a 64 MB cache.
        let m = ThermalModel::paper_default();
        let data_bits = 64u64 * 1024 * 1024 * 8;
        let expected = m.expected_failures(data_bits, 20e-3);
        assert!((1000.0..10000.0).contains(&expected), "{expected}");
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn non_positive_delta_rejected() {
        ThermalModel::new(0.0, 0.1);
    }
}
