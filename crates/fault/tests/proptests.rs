//! Property-based tests for the fault models.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sudoku_fault::{
    choose_distinct, choose_distinct_into, sample_binomial, sample_binomial_at_least_one,
    FaultInjector, ScrubSchedule, StuckBitMap, ThermalModel,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// BER is a probability and monotone in the window length.
    #[test]
    fn ber_is_probability_and_monotone(
        delta in 25.0f64..70.0,
        sigma in 0.0f64..0.2,
        w1 in 1e-4f64..1e-1,
        scale in 1.01f64..10.0
    ) {
        let m = ThermalModel::new(delta, sigma);
        let b1 = m.ber(w1);
        let b2 = m.ber(w1 * scale);
        prop_assert!((0.0..=1.0).contains(&b1));
        prop_assert!(b2 >= b1, "ber must grow with the window: {b1} vs {b2}");
    }

    /// BER is monotone decreasing in ∆.
    #[test]
    fn ber_decreases_with_delta(delta in 26.0f64..60.0, sigma in 0.01f64..0.15) {
        let lo = ThermalModel::new(delta, sigma).ber(20e-3);
        let hi = ThermalModel::new(delta + 1.0, sigma).ber(20e-3);
        prop_assert!(hi <= lo, "∆+1 must not be less reliable: {hi} vs {lo}");
    }

    /// Binomial samples stay within range for arbitrary parameters.
    #[test]
    fn binomial_in_range(seed in any::<u64>(), n in 1u64..100_000, p in 0.0f64..0.5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = sample_binomial(&mut rng, n, p);
        prop_assert!(k <= n);
    }

    /// Conditional binomial is ≥ 1 and ≤ n.
    #[test]
    fn conditional_binomial_in_range(seed in any::<u64>(), n in 1u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = sample_binomial_at_least_one(&mut rng, n, 1e-4);
        prop_assert!((1..=n).contains(&k));
    }

    /// choose_distinct returns exactly k strictly increasing in-range values.
    #[test]
    fn choose_distinct_contract(seed in any::<u64>(), n in 1u64..5_000, frac in 0.0f64..1.0) {
        let k = ((n as f64 * frac) as u64).min(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let picks = choose_distinct(&mut rng, n, k);
        prop_assert_eq!(picks.len() as u64, k);
        prop_assert!(picks.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(picks.iter().all(|&v| v < n));
    }

    /// choose_distinct_into leaves exactly choose_distinct's values, even in
    /// a reused buffer with stale contents, and the RNG in the same state.
    #[test]
    fn choose_distinct_into_matches_choose_distinct(
        seed in any::<u64>(),
        n in 1u64..5_000,
        frac in 0.0f64..1.0,
        stale in proptest::collection::vec(any::<u64>(), 0..64)
    ) {
        let k = ((n as f64 * frac) as u64).min(n);
        let mut fresh_rng = StdRng::seed_from_u64(seed);
        let want = choose_distinct(&mut fresh_rng, n, k);
        let mut into_rng = StdRng::seed_from_u64(seed);
        let mut buf = stale;
        choose_distinct_into(&mut into_rng, n, k, &mut buf);
        prop_assert_eq!(&buf, &want);
        prop_assert_eq!(into_rng.gen::<u64>(), fresh_rng.gen::<u64>());
        // Reused again, for a second draw from the same streams.
        choose_distinct_into(&mut into_rng, n, k / 2, &mut buf);
        prop_assert_eq!(buf, choose_distinct(&mut fresh_rng, n, k / 2));
        prop_assert_eq!(into_rng.gen::<u64>(), fresh_rng.gen::<u64>());
    }

    /// A cache plan never lists a line twice and respects fault bounds.
    #[test]
    fn cache_plan_contract(seed in any::<u64>(), ber in 1e-7f64..1e-3) {
        let mut injector = FaultInjector::new(ber, seed);
        let plan = injector.cache_plan(1 << 14);
        for pair in plan.windows(2) {
            prop_assert!(pair[0].line < pair[1].line, "plan must be sorted/unique");
        }
        prop_assert!(plan.iter().all(|lf| lf.faults >= 1 && lf.faults <= 553));
    }

    /// FIT and MTTF are consistent inverses.
    #[test]
    fn fit_mttf_inverse(p in 1e-12f64..0.5, interval in 1e-3f64..0.1) {
        let s = ScrubSchedule::new(interval);
        let fit = s.fit_rate(p);
        let mttf_h = s.mttf_hours(p);
        prop_assert!((fit * mttf_h / 1e9 - 1.0).abs() < 1e-9);
    }

    /// Stuck-bit application is idempotent.
    #[test]
    fn stuck_apply_idempotent(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let map = StuckBitMap::random(&mut rng, 64, 5e-3);
        let mut line = sudoku_codes::ProtectedLine::zero();
        for l in 0..64u64 {
            map.apply(l, &mut line);
            let snapshot = line;
            prop_assert_eq!(map.apply(l, &mut line), 0);
            prop_assert_eq!(line, snapshot);
        }
    }
}

/// Statistical check (not proptest): the empirical binomial mean and
/// variance match theory within tolerance.
#[test]
fn binomial_moments_match_theory() {
    let (n, p, trials) = (553u64, 5e-3, 60_000usize);
    let mut rng = StdRng::seed_from_u64(12345);
    let samples: Vec<f64> = (0..trials)
        .map(|_| sample_binomial(&mut rng, n, p) as f64)
        .collect();
    let mean = samples.iter().sum::<f64>() / trials as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / trials as f64;
    let expect_mean = n as f64 * p;
    let expect_var = n as f64 * p * (1.0 - p);
    assert!(
        (mean / expect_mean - 1.0).abs() < 0.03,
        "mean {mean} vs {expect_mean}"
    );
    assert!(
        (var / expect_var - 1.0).abs() < 0.08,
        "var {var} vs {expect_var}"
    );
}
