//! Fine-resolution latency recorder.
//!
//! Log-linear buckets: every power of two is split into 128 equal
//! sub-buckets, so a bucket is at most 1/128 of its lower bound wide and
//! the midpoint a quantile reports is within 0.4 % of any sample in it
//! (values below 128 are exact). The repository's own histograms use
//! power-of-two buckets, whose 2x step hides any change smaller than 2x.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const N_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Clone, Debug)]
pub struct LatencyRecorder {
    counts: Vec<u64>,
    total: u64,
}

/// A reported timing: p50, the highest standard percentile with at least
/// ten samples beyond it, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: u64,
    pub p50: u64,
    pub p99: u64,
    pub tail_pct: f64,
    pub tail: u64,
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) - SUB;
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// The midpoint of bucket `i` (exact for the unit-width low buckets).
fn midpoint(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        return i;
    }
    let shift = i / SUB - 1;
    let lower = (SUB + i % SUB) << shift;
    lower + ((1u64 << shift) >> 1)
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder {
            counts: vec![0; N_BUCKETS],
            total: 0,
        }
    }
}

impl LatencyRecorder {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &LatencyRecorder) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return midpoint(i);
            }
        }
        midpoint(N_BUCKETS - 1)
    }

    pub fn summary(&self) -> Summary {
        let mut tail_pct = 50.0;
        for pct in [90.0, 99.0, 99.9, 99.99, 99.999] {
            if self.total as f64 * (1.0 - pct / 100.0) >= 10.0 {
                tail_pct = pct;
            }
        }
        Summary {
            count: self.total,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            tail_pct,
            tail: self.quantile(tail_pct / 100.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_are_within_one_percent_of_exact() {
        // Log-uniform samples from 1 ns to ~1 s, the range the benchmark sees.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut samples = Vec::new();
        let mut rec = LatencyRecorder::default();
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let exp = (state % 30) as u32;
            let v = (1u64 << exp) + (state >> 34) % (1u64 << exp);
            samples.push(v);
            rec.record(v);
        }
        samples.sort_unstable();
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999] {
            let want = exact(&samples, q) as f64;
            let got = rec.quantile(q) as f64;
            assert!(
                (got - want).abs() <= 0.01 * want,
                "q={q}: got {got}, exact {want}"
            );
        }
    }

    #[test]
    fn small_values_are_exact_and_buckets_are_contiguous() {
        let mut rec = LatencyRecorder::default();
        for v in 0..SUB {
            rec.record(v);
            assert_eq!(midpoint(index(v)), v);
        }
        assert_eq!(rec.quantile(1.0), SUB - 1);
        for v in [SUB, 1000, 123_456_789, u64::MAX] {
            let i = index(v);
            assert!(i < N_BUCKETS);
            assert!(index(v - 1) <= i);
        }
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let mut rec = LatencyRecorder::default();
        for v in 0..5_000 {
            rec.record(v);
        }
        let s = rec.summary();
        assert_eq!(s.count, 5_000);
        // p99.9 would leave only 5 samples beyond it.
        assert_eq!(s.tail_pct, 99.0);
        assert!((s.tail as f64 - 4950.0).abs() <= 0.01 * 4950.0);
    }
}
