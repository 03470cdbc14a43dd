//! Fixed-bucket histograms, allocation-free on the hot path.

use crate::json::JsonObject;

/// A power-of-two-bucketed histogram over `u64` samples.
///
/// Bucket `i` covers `(bounds[i-1], bounds[i]]` with `bounds[i] = 2^i`
/// (bucket 0 covers `0..=1`); one final overflow bucket catches everything
/// above the largest bound. `record` is two compares, a leading-zeros
/// instruction, and four integer adds — no allocation, no branching on
/// sample magnitude beyond the clamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    max_exp: u32,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with buckets `0..=1, 2, 4, …, 2^max_exp` plus overflow.
    pub fn pow2(max_exp: u32) -> Self {
        assert!((1..=63).contains(&max_exp), "max_exp must be in 1..=63");
        Histogram {
            counts: vec![0; max_exp as usize + 2],
            max_exp,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Reassembles a histogram from raw parts (an [`AtomicHist`] snapshot).
    /// The sample count is *derived* from the bucket counts, so a snapshot
    /// always satisfies `count == sum(buckets)` even when the source was
    /// being written concurrently.
    ///
    /// [`AtomicHist`]: crate::AtomicHist
    pub(crate) fn from_parts(counts: Vec<u64>, max_exp: u32, sum: u64, min: u64, max: u64) -> Self {
        let count = counts.iter().sum();
        Histogram {
            counts,
            max_exp,
            count,
            sum,
            min,
            max,
        }
    }

    /// Bucket index of a sample: `ceil(log2(v))`, clamped to the overflow
    /// bucket.
    #[inline]
    fn bucket(&self, v: u64) -> usize {
        bucket_index(v, self.max_exp)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let bucket = self.bucket(v);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample seen (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper bound of bucket `i` (`u64::MAX` for the overflow bucket).
    fn bucket_bound(&self, i: usize) -> u64 {
        if i as u32 > self.max_exp {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`), or
    /// `None` when the histogram is empty — an empty histogram has no
    /// quantiles, and conflating "no samples" with "0 ns" hides outages
    /// from dashboards.
    pub fn try_quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Some(self.bucket_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the
    /// bucket bound below which at least `q · count` samples fall. Exact
    /// values are not retained, so this is conservative by up to one
    /// power-of-two bucket. Returns 0 on an empty histogram; callers that
    /// must distinguish "no samples" from "fast" use
    /// [`Histogram::try_quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.try_quantile(q).unwrap_or(0)
    }

    /// Merges another histogram (same bucket layout) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket layouts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.max_exp, other.max_exp, "bucket layouts must match");
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_bound(i), c))
            .collect()
    }

    /// Every bucket (zero counts included) as `(upper_bound, count)` pairs,
    /// ascending; the final bound is `u64::MAX` (the overflow bucket). The
    /// shape a Prometheus exposition needs for cumulative `le` buckets.
    pub fn all_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bucket_bound(i), c))
            .collect()
    }

    fn quantile_json(&self, q: f64) -> String {
        match self.try_quantile(q) {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        }
    }

    /// Compact JSON rendering: summary statistics plus non-empty buckets.
    /// Quantiles render as `null` when the histogram is empty, so consumers
    /// can tell "no samples" from "fast" (the `count` field agrees).
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .into_iter()
            .map(|(bound, c)| {
                if bound == u64::MAX {
                    format!("[\"overflow\",{c}]")
                } else {
                    format!("[{bound},{c}]")
                }
            })
            .collect();
        let mut obj = JsonObject::new();
        obj.field_u64("count", self.count);
        obj.field_u64("sum", self.sum);
        obj.field_f64("mean", self.mean());
        obj.field_u64("min", self.min());
        obj.field_u64("max", self.max);
        obj.field_raw("p50", &self.quantile_json(0.50));
        obj.field_raw("p90", &self.quantile_json(0.90));
        obj.field_raw("p99", &self.quantile_json(0.99));
        obj.field_raw("p999", &self.quantile_json(0.999));
        obj.field_raw("buckets", &format!("[{}]", buckets.join(",")));
        obj.finish()
    }
}

/// Bucket index of sample `v` in a pow2 layout with `max_exp`:
/// `ceil(log2(v))`, clamped to the overflow bucket. Shared by [`Histogram`]
/// and the lock-free [`AtomicHist`](crate::AtomicHist) so their layouts can
/// never drift apart.
#[inline]
pub(crate) fn bucket_index(v: u64, max_exp: u32) -> usize {
    let exp = if v <= 1 {
        0
    } else {
        64 - (v - 1).leading_zeros()
    };
    (exp.min(max_exp + 1)) as usize
}

/// The histogram set a concurrent cache service populates: end-to-end
/// request latencies (queueing included), scrub-tick durations, cross-shard
/// escalation durations, and sampled per-shard queue depths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceHistograms {
    /// Demand-read latency in ns, send to reply.
    pub read_latency_ns: Histogram,
    /// Demand-write latency in ns, send to reply.
    pub write_latency_ns: Histogram,
    /// Wall-clock duration of one shard scrub tick, ns.
    pub scrub_tick_ns: Histogram,
    /// Wall-clock duration of one cross-shard escalation, ns.
    pub escalation_ns: Histogram,
    /// Sampled per-shard request-queue depth.
    pub queue_depth: Histogram,
}

impl ServiceHistograms {
    /// JSON object with one entry per histogram.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_raw("read_latency_ns", &self.read_latency_ns.to_json());
        obj.field_raw("write_latency_ns", &self.write_latency_ns.to_json());
        obj.field_raw("scrub_tick_ns", &self.scrub_tick_ns.to_json());
        obj.field_raw("escalation_ns", &self.escalation_ns.to_json());
        obj.field_raw("queue_depth", &self.queue_depth.to_json());
        obj.finish()
    }
}

/// The named histogram set the SuDoku recovery paths populate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryHistograms {
    /// SDR flip-and-check trials spent per successful resurrection.
    pub sdr_trials_per_resurrection: Histogram,
    /// Members read per RAID-Group scan.
    pub group_scan_lines: Histogram,
    /// Injected faulty bits per faulty line (campaign injection records).
    pub faults_per_line: Histogram,
    /// Estimated per-line repair latency in ns, derived from the §VII-B
    /// cost constants (`STT_READ_NS` / `STT_WRITE_NS` / syndrome cycles).
    pub line_recovery_ns: Histogram,
}

impl Default for RecoveryHistograms {
    fn default() -> Self {
        RecoveryHistograms {
            sdr_trials_per_resurrection: Histogram::pow2(16),
            group_scan_lines: Histogram::pow2(16),
            faults_per_line: Histogram::pow2(10),
            line_recovery_ns: Histogram::pow2(32),
        }
    }
}

impl RecoveryHistograms {
    /// Merges another set into this one.
    pub fn merge(&mut self, other: &RecoveryHistograms) {
        self.sdr_trials_per_resurrection
            .merge(&other.sdr_trials_per_resurrection);
        self.group_scan_lines.merge(&other.group_scan_lines);
        self.faults_per_line.merge(&other.faults_per_line);
        self.line_recovery_ns.merge(&other.line_recovery_ns);
    }

    /// Whether every histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.sdr_trials_per_resurrection.is_empty()
            && self.group_scan_lines.is_empty()
            && self.faults_per_line.is_empty()
            && self.line_recovery_ns.is_empty()
    }

    /// JSON object with one entry per histogram.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_raw(
            "sdr_trials_per_resurrection",
            &self.sdr_trials_per_resurrection.to_json(),
        );
        obj.field_raw("group_scan_lines", &self.group_scan_lines.to_json());
        obj.field_raw("faults_per_line", &self.faults_per_line.to_json());
        obj.field_raw("line_recovery_ns", &self.line_recovery_ns.to_json());
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_ceil_log2() {
        let mut h = Histogram::pow2(4);
        for v in [0, 1, 2, 3, 4, 5, 16, 17, 1000] {
            h.record(v);
        }
        // 0,1 → bucket 0; 2 → 1; 3,4 → 2; 5 → 3; 16 → 4; 17,1000 → overflow.
        assert_eq!(
            h.nonzero_buckets(),
            vec![(1, 2), (2, 1), (4, 2), (8, 1), (16, 1), (u64::MAX, 2)]
        );
        assert_eq!(h.count(), 9);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let mut h = Histogram::pow2(10);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert!(h.quantile(0.5) >= 50 && h.quantile(0.5) <= 64);
        assert_eq!(h.quantile(1.0), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::pow2(8);
        let mut b = Histogram::pow2(8);
        let mut c = Histogram::pow2(8);
        for v in [1u64, 5, 9, 200] {
            a.record(v);
            c.record(v);
        }
        for v in [3u64, 300, 4] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::pow2(8);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.try_quantile(0.99), None, "no samples ⇒ no quantile");
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        let json = h.to_json();
        assert!(json.contains("\"count\":0"), "{json}");
        assert!(
            json.contains("\"p50\":null") && json.contains("\"p999\":null"),
            "empty quantiles must be null, not 0: {json}"
        );
    }

    #[test]
    fn populated_histogram_reports_p90() {
        let mut h = Histogram::pow2(10);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.try_quantile(0.90), Some(h.quantile(0.90)));
        assert!(h.quantile(0.90) >= 90);
        let json = h.to_json();
        assert!(json.contains("\"p90\":"), "{json}");
        assert!(
            !json.contains("null"),
            "populated quantiles are numeric: {json}"
        );
    }

    #[test]
    fn all_buckets_includes_zero_counts_and_overflow() {
        let mut h = Histogram::pow2(4);
        h.record(3);
        let buckets = h.all_buckets();
        assert_eq!(buckets.len(), 6, "max_exp + 2 buckets");
        assert_eq!(buckets.last(), Some(&(u64::MAX, 0)));
        assert_eq!(buckets[2], (4, 1));
        let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, h.count());
    }

    #[test]
    fn recovery_set_merge_and_json() {
        let mut a = RecoveryHistograms::default();
        assert!(a.is_empty());
        a.sdr_trials_per_resurrection.record(5);
        a.line_recovery_ns.record(4_600);
        let mut b = RecoveryHistograms::default();
        b.sdr_trials_per_resurrection.record(7);
        a.merge(&b);
        assert_eq!(a.sdr_trials_per_resurrection.count(), 2);
        assert!(a.to_json().contains("sdr_trials_per_resurrection"));
    }
}
