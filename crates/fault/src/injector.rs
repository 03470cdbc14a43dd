//! Seeded transient-fault injection.
//!
//! Transient retention failures strike every stored bit independently with
//! the per-interval BER (paper §II-B). The injector offers two granularities:
//!
//! * **per line** — flip each of the 553 stored bits with probability `ber`
//!   (used by functional tests and small caches);
//! * **per cache plan** — sample *which* lines are faulty and *how many*
//!   faults each has, without materializing clean lines. At BER 5.3×10⁻⁶
//!   a 64 MB cache sees only ≈ 1700 faulty lines per 20 ms interval out of
//!   a million, so Monte-Carlo campaigns over full-size caches stay cheap.
//!
//! All sampling is exact binomial (inversion from k = 0) when n·p is small
//! — always true per line — and switches to a normal approximation only for
//! cache-level counts with n·p > 10⁴, where the relative error is < 10⁻³.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sudoku_codes::{ProtectedLine, TOTAL_BITS};

/// Draws from Binomial(n, p) — exact inversion for small n·p, normal
/// approximation (continuity-corrected, clamped) for large n·p.
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if p == 0.0 || n == 0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    let np = n as f64 * p;
    if np <= 1e4 && p < 0.1 {
        // Exact inversion. pmf(0) = exp(n·ln(1−p)) does not underflow for
        // n·p ≤ 1e4 only when np ≲ 700; chain through Poisson-like scaling
        // otherwise by falling to the normal branch.
        if np <= 500.0 {
            let mut u: f64 = rng.gen();
            let q = p / (1.0 - p);
            let mut pmf = ((n as f64) * ln_one_minus(p)).exp();
            let mut k = 0u64;
            loop {
                if u <= pmf || k >= n {
                    return k;
                }
                u -= pmf;
                pmf *= (n - k) as f64 / (k + 1) as f64 * q;
                k += 1;
                if pmf < 1e-300 && u > 0.0 {
                    // Numerical tail exhaustion: extremely unlikely draw.
                    return k;
                }
            }
        }
    }
    // Normal approximation.
    let mean = np;
    let sd = (np * (1.0 - p)).sqrt();
    let z = standard_normal(rng);
    let k = (mean + sd * z).round();
    k.clamp(0.0, n as f64) as u64
}

/// Draws from Binomial(n, p) conditioned on the result being ≥ 1.
///
/// Used to populate the fault count of a line already known to be faulty.
pub fn sample_binomial_at_least_one<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1)");
    let p0 = ((n as f64) * ln_one_minus(p)).exp();
    let scale = 1.0 - p0; // P(K >= 1)
    let mut u: f64 = rng.gen::<f64>() * scale;
    let q = p / (1.0 - p);
    let mut pmf = p0 * n as f64 * q; // pmf(1)
    let mut k = 1u64;
    loop {
        if u <= pmf || k >= n {
            return k;
        }
        u -= pmf;
        pmf *= (n - k) as f64 / (k + 1) as f64 * q;
        k += 1;
        if pmf < 1e-300 {
            return k;
        }
    }
}

/// Box–Muller standard normal draw.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// ln(1 − p) without catastrophic cancellation for tiny p.
#[inline]
fn ln_one_minus(p: f64) -> f64 {
    (-p).ln_1p()
}

/// Chooses `k` distinct values in `0..n`, ascending.
pub fn choose_distinct<R: Rng + ?Sized>(rng: &mut R, n: u64, k: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(k as usize);
    choose_distinct_into(rng, n, k, &mut out);
    out
}

/// [`choose_distinct`] into a caller's buffer: replaces the contents of
/// `out` with the same `k` values, drawn in the same order, so the RNG
/// ends in the same state. Up to 16 sparse draws, a reused buffer makes
/// the draw allocation-free once it holds `k` values (`n` on the dense
/// path, where `3k ≥ n`).
#[inline]
pub fn choose_distinct_into<R: Rng + ?Sized>(rng: &mut R, n: u64, k: u64, out: &mut Vec<u64>) {
    assert!(k <= n, "cannot choose {k} distinct values from {n}");
    out.clear();
    if k == 0 {
        return;
    }
    if k == 1 {
        // A single draw cannot collide; skip the set machinery. Consumes
        // one `gen_range` like both general paths below, so the RNG stream
        // (and hence every downstream trial) is unchanged.
        out.push(rng.gen_range(0..n));
        return;
    }
    if k * 3 >= n {
        // Dense: partial Fisher-Yates over an index vector.
        out.extend(0..n);
        for i in 0..k as usize {
            let j = rng.gen_range(i..n as usize);
            out.swap(i, j);
        }
        out.truncate(k as usize);
    } else if k <= 16 {
        // Sparse, tiny k: rejection sampling with a linear-scan dedup —
        // same accept/reject per draw as the set-based path, no heap
        // beyond the output vector.
        while (out.len() as u64) < k {
            let x = rng.gen_range(0..n);
            if !out.contains(&x) {
                out.push(x);
            }
        }
    } else {
        // Sparse: rejection sampling (hash set + one sort; the accepted
        // value sequence matches an ordered-set implementation exactly).
        let mut set = std::collections::HashSet::with_capacity(k as usize);
        while (set.len() as u64) < k {
            set.insert(rng.gen_range(0..n));
        }
        out.extend(set);
    }
    out.sort_unstable();
}

/// One faulty line in a cache-level fault plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineFaults {
    /// Index of the faulty line within the cache.
    pub line: u64,
    /// Number of faulty stored bits (≥ 1, ≤ 553).
    pub faults: u32,
}

/// Records a sampled fault plan into `recorder`: one `Inject` event per
/// faulty line (`trials` = injected fault bits) plus, when the recorder
/// measures, the faults-per-line histogram. Touches no RNG, so observing
/// a plan never perturbs the deterministic trial stream.
pub fn observe_plan(plan: &[LineFaults], recorder: &mut sudoku_obs::Recorder) {
    if !recorder.enabled() {
        return;
    }
    for lf in plan {
        recorder.emit(sudoku_obs::RecoveryEvent {
            interval: 0, // stamped by the recorder
            line: lf.line,
            group: None,
            hash_dim: None,
            mechanism: sudoku_obs::Mechanism::Inject,
            outcome: sudoku_obs::Outcome::Injected,
            trials: lf.faults,
        });
        if recorder.measures() {
            recorder.hists.faults_per_line.record(lf.faults as u64);
        }
    }
}

/// A deterministic, seeded transient-fault injector.
///
/// # Examples
///
/// ```
/// use sudoku_fault::FaultInjector;
/// use sudoku_codes::{LineCodec, LineData};
///
/// let mut injector = FaultInjector::new(5.3e-6, 42);
/// let mut line = LineCodec::shared().encode(&LineData::zero());
/// let flipped = injector.inject_line(&mut line);
/// // At this BER a single line almost never faults in one interval.
/// assert!(flipped.len() <= 553);
/// ```
#[derive(Clone, Debug)]
pub struct FaultInjector {
    ber: f64,
    seed: u64,
    rng: StdRng,
}

impl FaultInjector {
    /// An injector flipping each stored bit with probability `ber` per
    /// injection round, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not in `[0, 1)`.
    pub fn new(ber: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&ber), "ber must be in [0, 1)");
        FaultInjector {
            ber,
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured bit error rate.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// The seed this injector was created (or last reseeded) with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Re-seeds the injector in place, restoring the exact state of
    /// `FaultInjector::new(self.ber(), seed)` without reconstructing it.
    /// Campaign workers use this to reuse a per-worker injector across
    /// trials while keeping each trial's fault stream deterministic in its
    /// trial seed alone.
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// A fresh injector with the same BER on an independent deterministic
    /// stream: stream `s` of seed `k` always yields the same injector, and
    /// distinct streams decorrelate via SplitMix64 mixing. A sharded
    /// service forks one injector per shard so concurrent injection stays
    /// reproducible regardless of thread interleaving.
    pub fn fork(&self, stream: u64) -> FaultInjector {
        FaultInjector::new(self.ber, splitmix64(self.seed ^ splitmix64(stream)))
    }

    /// Mutable access to the underlying RNG (for composed samplers).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Injects faults into every stored bit of one line; returns the flipped
    /// positions (ascending).
    pub fn inject_line(&mut self, line: &mut ProtectedLine) -> Vec<usize> {
        let k = sample_binomial(&mut self.rng, TOTAL_BITS as u64, self.ber);
        let positions = choose_distinct(&mut self.rng, TOTAL_BITS as u64, k);
        for &pos in &positions {
            line.flip_bit(pos as usize);
        }
        positions.into_iter().map(|p| p as usize).collect()
    }

    /// Injects exactly `k` faults at random distinct positions of one line.
    pub fn inject_exactly(&mut self, line: &mut ProtectedLine, k: u32) -> Vec<usize> {
        let positions = choose_distinct(&mut self.rng, TOTAL_BITS as u64, k as u64);
        for &pos in &positions {
            line.flip_bit(pos as usize);
        }
        positions.into_iter().map(|p| p as usize).collect()
    }

    /// Injects a *burst*: `width` adjacent stored bits flipped starting at
    /// a random position — the spatially correlated signature of particle
    /// strikes and disturb faults (paper §VI, Table V). Returns the flipped
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds the stored line length.
    pub fn inject_burst(&mut self, line: &mut ProtectedLine, width: u32) -> Vec<usize> {
        assert!(
            width >= 1 && (width as usize) <= TOTAL_BITS,
            "burst width must be in 1..=553"
        );
        let start = self.rng.gen_range(0..=(TOTAL_BITS - width as usize));
        let positions: Vec<usize> = (start..start + width as usize).collect();
        for &pos in &positions {
            line.flip_bit(pos);
        }
        positions
    }

    /// Samples a cache-level fault plan for one scrub interval: which of
    /// `n_lines` lines are faulty, and with how many faulty bits each.
    ///
    /// Equivalent in distribution to flipping every bit of every line
    /// independently, but only O(faulty lines) work.
    pub fn cache_plan(&mut self, n_lines: u64) -> Vec<LineFaults> {
        let p_line = -((TOTAL_BITS as f64) * (-self.ber).ln_1p()).exp_m1();
        let faulty = sample_binomial(&mut self.rng, n_lines, p_line);
        let lines = choose_distinct(&mut self.rng, n_lines, faulty);
        lines
            .into_iter()
            .map(|line| LineFaults {
                line,
                faults: sample_binomial_at_least_one(&mut self.rng, TOTAL_BITS as u64, self.ber)
                    as u32,
            })
            .collect()
    }

    /// A cache plan with the fault *positions* already drawn: the exact
    /// RNG stream of [`FaultInjector::cache_plan`] followed by one
    /// `choose_distinct` per faulty line in plan order — the sequence every
    /// Monte-Carlo campaign applies. Useful when the same faults must be
    /// applied to several caches (e.g. a sharded replica of a
    /// single-threaded reference).
    pub fn resolved_plan(&mut self, n_lines: u64) -> Vec<(u64, Vec<usize>)> {
        let plan = self.cache_plan(n_lines);
        plan.into_iter()
            .map(|lf| {
                let positions = choose_distinct(&mut self.rng, TOTAL_BITS as u64, lf.faults as u64)
                    .into_iter()
                    .map(|p| p as usize)
                    .collect();
                (lf.line, positions)
            })
            .collect()
    }

    /// An *exact-count* resolved plan: exactly `k` distinct faulty lines
    /// drawn uniformly from `[start, start + span)`, each with exactly one
    /// flipped stored bit. The A/B primitive for spatial experiments — a
    /// clustered run (span = one region) and an i.i.d. run (span = whole
    /// cache) built this way inject *identical* total flip counts by
    /// construction, so any detector difference is attributable to
    /// clustering alone.
    ///
    /// # Panics
    ///
    /// Panics if `span` is 0 or `k > span`.
    pub fn exact_plan(&mut self, start: u64, span: u64, k: u64) -> Vec<(u64, Vec<usize>)> {
        assert!(span > 0, "span must be non-empty");
        let lines = choose_distinct(&mut self.rng, span, k);
        lines
            .into_iter()
            .map(|line| {
                let pos = choose_distinct(&mut self.rng, TOTAL_BITS as u64, 1);
                (start + line, vec![pos[0] as usize])
            })
            .collect()
    }
}

/// SplitMix64 finalizer — the standard seed-spreading mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudoku_codes::{LineCodec, LineData};

    #[test]
    fn binomial_zero_p_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_binomial(&mut rng, 1000, 0.0), 0);
    }

    #[test]
    fn binomial_mean_close_to_np() {
        let mut rng = StdRng::seed_from_u64(2);
        let (n, p, trials) = (553u64, 0.01, 20_000);
        let sum: u64 = (0..trials).map(|_| sample_binomial(&mut rng, n, p)).sum();
        let mean = sum as f64 / trials as f64;
        let expect = n as f64 * p;
        assert!((mean - expect).abs() < 0.15, "mean {mean} vs {expect}");
    }

    #[test]
    fn binomial_large_np_uses_normal_and_stays_sane() {
        let mut rng = StdRng::seed_from_u64(3);
        let (n, p) = (1u64 << 30, 0.001);
        for _ in 0..100 {
            let k = sample_binomial(&mut rng, n, p);
            let mean = n as f64 * p;
            let sd = (mean * (1.0 - p)).sqrt();
            assert!((k as f64 - mean).abs() < 8.0 * sd, "k = {k}");
        }
    }

    #[test]
    fn conditional_binomial_always_at_least_one() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let k = sample_binomial_at_least_one(&mut rng, 553, 5.3e-6);
            assert!(k >= 1);
        }
    }

    #[test]
    fn conditional_binomial_multibit_fraction_matches_theory() {
        // P(K ≥ 2 | K ≥ 1) ≈ (n−1)p/2 for tiny p.
        let mut rng = StdRng::seed_from_u64(5);
        let p = 1e-3;
        let trials = 200_000;
        let multi = (0..trials)
            .filter(|_| sample_binomial_at_least_one(&mut rng, 553, p) >= 2)
            .count();
        let frac = multi as f64 / trials as f64;
        let theory = {
            let p0 = (553.0 * (1.0f64 - p).ln()).exp();
            let p1 = 553.0 * p * (552.0 * (1.0f64 - p).ln()).exp();
            (1.0 - p0 - p1) / (1.0 - p0)
        };
        assert!(
            (frac - theory).abs() < 0.01,
            "frac {frac} vs theory {theory}"
        );
    }

    #[test]
    fn choose_distinct_is_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(6);
        let picks = choose_distinct(&mut rng, 100, 40);
        assert_eq!(picks.len(), 40);
        assert!(picks.windows(2).all(|w| w[0] < w[1]));
        assert!(picks.iter().all(|&v| v < 100));
    }

    #[test]
    fn choose_distinct_full_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let picks = choose_distinct(&mut rng, 10, 10);
        assert_eq!(picks, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reseed_matches_fresh_injector() {
        let golden = LineCodec::shared().encode(&LineData::zero());
        let mut reused = FaultInjector::new(0.01, 1);
        // Burn some state, then reseed.
        let mut l = golden;
        let _ = reused.inject_line(&mut l);
        reused.reseed(77);
        let mut fresh = FaultInjector::new(0.01, 77);
        let mut a = golden;
        let mut b = golden;
        assert_eq!(reused.inject_line(&mut a), fresh.inject_line(&mut b));
        assert_eq!(reused.cache_plan(1 << 16), fresh.cache_plan(1 << 16));
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let codec = LineCodec::shared();
        let golden = codec.encode(&LineData::zero());
        let run = |seed| {
            let mut inj = FaultInjector::new(0.01, seed);
            let mut line = golden;
            inj.inject_line(&mut line)
        };
        assert_eq!(run(99), run(99));
        // Different seeds almost surely differ across many lines.
        let mut a = FaultInjector::new(0.01, 1);
        let mut b = FaultInjector::new(0.01, 2);
        let flips_a: Vec<_> = (0..50)
            .flat_map(|_| {
                let mut l = golden;
                a.inject_line(&mut l)
            })
            .collect();
        let flips_b: Vec<_> = (0..50)
            .flat_map(|_| {
                let mut l = golden;
                b.inject_line(&mut l)
            })
            .collect();
        assert_ne!(flips_a, flips_b);
    }

    #[test]
    fn inject_exactly_flips_exactly_k() {
        let codec = LineCodec::shared();
        let golden = codec.encode(&LineData::zero());
        let mut inj = FaultInjector::new(1e-6, 8);
        let mut line = golden;
        let flips = inj.inject_exactly(&mut line, 5);
        assert_eq!(flips.len(), 5);
        assert_eq!(line.diff_positions(&golden).len(), 5);
    }

    #[test]
    fn cache_plan_statistics_match_paper_expectations() {
        // 64 MB cache = 2^20 lines; at BER 5.3e-6 the paper expects ~2900
        // faulty bits and ~4 lines with 2+ faults per 20 ms interval.
        let mut inj = FaultInjector::new(5.3e-6, 10);
        let n_lines = 1u64 << 20;
        let mut total_bits = 0u64;
        let mut multi = 0u64;
        let rounds = 20;
        for _ in 0..rounds {
            let plan = inj.cache_plan(n_lines);
            total_bits += plan.iter().map(|lf| lf.faults as u64).sum::<u64>();
            multi += plan.iter().filter(|lf| lf.faults >= 2).count() as u64;
        }
        let bits_per_round = total_bits as f64 / rounds as f64;
        let multi_per_round = multi as f64 / rounds as f64;
        assert!(
            (2500.0..3700.0).contains(&bits_per_round),
            "bits {bits_per_round}"
        );
        assert!(
            (1.0..10.0).contains(&multi_per_round),
            "multi {multi_per_round}"
        );
    }

    #[test]
    fn burst_is_contiguous_and_in_range() {
        let codec = LineCodec::shared();
        let golden = codec.encode(&LineData::zero());
        let mut inj = FaultInjector::new(1e-6, 21);
        for width in [1u32, 2, 8, 31, 553] {
            let mut line = golden;
            let positions = inj.inject_burst(&mut line, width);
            assert_eq!(positions.len(), width as usize);
            assert!(positions.windows(2).all(|w| w[1] == w[0] + 1), "contiguous");
            assert!(*positions.last().unwrap() < 553);
            assert_eq!(line.diff_positions(&golden).len(), width as usize);
        }
    }

    #[test]
    fn bursts_up_to_31_bits_always_detected_by_crc_or_ecc() {
        // A degree-31 CRC detects every burst of ≤31 bits confined to the
        // CRC-protected region; bursts touching the ECC field are caught by
        // the scrub path. Either way: never silently clean.
        let codec = LineCodec::shared();
        let golden = codec.encode(&LineData::zero());
        let mut inj = FaultInjector::new(1e-6, 22);
        for trial in 0..500 {
            let width = 2 + (trial % 30) as u32;
            let mut line = golden;
            inj.inject_burst(&mut line, width);
            assert_ne!(
                codec.scrub_check(&line),
                sudoku_codes::ReadCheck::Clean,
                "width {width} burst slipped through"
            );
        }
    }

    #[test]
    #[should_panic(expected = "ber must be")]
    fn invalid_ber_rejected() {
        FaultInjector::new(1.5, 0);
    }

    #[test]
    fn fork_is_deterministic_and_decorrelated() {
        let base = FaultInjector::new(1e-3, 42);
        let mut a1 = base.fork(3);
        let mut a2 = base.fork(3);
        let mut b = base.fork(4);
        assert_eq!(a1.seed(), a2.seed());
        let p1 = a1.cache_plan(1 << 12);
        let p2 = a2.cache_plan(1 << 12);
        assert_eq!(p1, p2, "same stream must replay identically");
        assert_ne!(p1, b.cache_plan(1 << 12), "streams must differ");
        // Forking must not disturb the parent's own stream.
        let mut parent = FaultInjector::new(1e-3, 42);
        let _ = parent.fork(9);
        let mut untouched = FaultInjector::new(1e-3, 42);
        assert_eq!(parent.cache_plan(1 << 12), untouched.cache_plan(1 << 12));
    }

    #[test]
    fn resolved_plan_matches_manual_resolution() {
        let mut a = FaultInjector::new(2e-3, 7);
        let mut b = FaultInjector::new(2e-3, 7);
        let resolved = a.resolved_plan(1 << 12);
        let plan = b.cache_plan(1 << 12);
        assert_eq!(resolved.len(), plan.len());
        for ((line, positions), lf) in resolved.iter().zip(plan.iter()) {
            assert_eq!(*line, lf.line);
            let expect: Vec<usize> = choose_distinct(b.rng(), TOTAL_BITS as u64, lf.faults as u64)
                .into_iter()
                .map(|p| p as usize)
                .collect();
            assert_eq!(*positions, expect);
        }
    }

    #[test]
    fn exact_plan_injects_exactly_k_single_bit_lines_in_range() {
        let mut inj = FaultInjector::new(1e-3, 99);
        let plan = inj.exact_plan(500, 200, 64);
        assert_eq!(plan.len(), 64);
        let mut seen = std::collections::HashSet::new();
        for (line, positions) in &plan {
            assert!(*line >= 500 && *line < 700);
            assert_eq!(positions.len(), 1);
            assert!(positions[0] < TOTAL_BITS);
            assert!(seen.insert(*line), "lines must be distinct");
        }
        // Deterministic under the same seed.
        let mut again = FaultInjector::new(1e-3, 99);
        assert_eq!(again.exact_plan(500, 200, 64), plan);
    }
}
