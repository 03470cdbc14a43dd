//! Lock-free live metrics: atomic counters, gauges, and a shard-striped
//! power-of-two histogram.
//!
//! The offline telemetry of this crate ([`Histogram`], [`Recorder`]) is
//! owned by one thread and merged at the end of a run. A *live* telemetry
//! plane needs the opposite: many writer threads updating the same metric
//! wait-free on the hot path, and a reader (a sampler or a `/metrics`
//! scrape) snapshotting at any moment without stopping the world.
//!
//! * [`Counter`] / [`Gauge`] — one relaxed atomic each. A counter only
//!   grows; successive snapshots of it are monotone.
//! * [`AtomicHist`] — the pow2 bucket layout of [`Histogram`], striped
//!   over several independent bucket arrays so concurrent writers on
//!   different stripes never contend on a cache line. `record` is one
//!   bucket `fetch_add` plus sum/min/max updates; `snapshot` folds the
//!   stripes into an ordinary [`Histogram`] whose `count` is **derived
//!   from the bucket counts**, so `count == sum(buckets)` holds in every
//!   snapshot no matter how the reads interleave with writers.
//!
//! [`Recorder`]: crate::Recorder

use crate::hist::{bucket_index, Histogram};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A monotonically increasing event count, updatable wait-free from any
/// thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (queue depth, pool occupancy, liveness bit):
/// settable and steppable wait-free from any thread.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Steps the level up by one, returning the previous value.
    #[inline]
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Steps the level down by one, returning the previous value. The
    /// caller pairs every `dec` with an earlier `inc` (the gauge does not
    /// guard against underflow, exactly like the depth accounting it
    /// replaces).
    #[inline]
    pub fn dec(&self) -> u64 {
        self.0.fetch_sub(1, Ordering::Relaxed)
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of independent bucket-array stripes. Eight covers the worker
/// counts the service runs with; more threads than stripes just share.
const STRIPES: usize = 8;

/// Round-robin stripe assignment: each thread picks its stripe once, on
/// first use, and keeps it for life — no per-record hashing.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// One stripe: a private bucket array plus a private sum. The stripe is
/// padded to a 64-byte cache line, so no two stripes' `sum` words share
/// one; each bucket array is its own heap allocation.
#[derive(Debug)]
#[repr(align(64))]
struct Stripe {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
}

const _: () = assert!(std::mem::size_of::<Stripe>() == 64 && std::mem::align_of::<Stripe>() == 64);

/// A lock-free, multi-writer histogram with the same power-of-two bucket
/// layout as [`Histogram`] (`Histogram::pow2(max_exp)`).
///
/// Writers call [`AtomicHist::record`] wait-free; any thread can call
/// [`AtomicHist::snapshot`] at any time and gets a coherent [`Histogram`]
/// whose `count` equals the sum of its bucket counts.
///
/// # Examples
///
/// ```
/// use sudoku_obs::AtomicHist;
///
/// let h = AtomicHist::pow2(20);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             for v in 0..1000u64 {
///                 h.record(v);
///             }
///         });
///     }
/// });
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 4000);
/// ```
#[derive(Debug)]
pub struct AtomicHist {
    stripes: Box<[Stripe]>,
    max_exp: u32,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHist {
    /// A histogram with buckets `0..=1, 2, 4, …, 2^max_exp` plus overflow —
    /// the exact layout of [`Histogram::pow2`], so snapshots merge with
    /// offline histograms of the same `max_exp`.
    pub fn pow2(max_exp: u32) -> Self {
        assert!((1..=63).contains(&max_exp), "max_exp must be in 1..=63");
        let n_buckets = max_exp as usize + 2;
        let stripes = (0..STRIPES)
            .map(|_| Stripe {
                counts: (0..n_buckets).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
            })
            .collect();
        AtomicHist {
            stripes,
            max_exp,
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample, wait-free: one `fetch_add` on the calling
    /// thread's stripe bucket, one on its stripe sum, and a relaxed
    /// min/max update only when a plain load shows the sample moves the
    /// bound. Skipping is exact: min only falls and max only rises, so a
    /// sample the load already covers is covered for good.
    #[inline]
    pub fn record(&self, v: u64) {
        let stripe = &self.stripes[MY_STRIPE.with(|s| *s)];
        stripe.counts[bucket_index(v, self.max_exp)].fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(v, Ordering::Relaxed);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of buckets (`max_exp + 2`: `0..=1`, each power of two up to
    /// `2^max_exp`, plus overflow). Indexes returned by
    /// [`AtomicHist::bucket_of`] are always `< n_buckets()`.
    pub fn n_buckets(&self) -> usize {
        self.max_exp as usize + 2
    }

    /// The bucket index a sample of value `v` lands in — the same mapping
    /// [`AtomicHist::record`] uses. Exposed so callers can maintain
    /// per-bucket side tables (e.g. exemplar trace IDs keyed by latency
    /// bucket) that stay aligned with this histogram's layout.
    #[inline]
    pub fn bucket_of(&self, v: u64) -> usize {
        bucket_index(v, self.max_exp)
    }

    /// Upper bound of bucket `i` (`u64::MAX` for the overflow bucket) —
    /// the `le` value a Prometheus rendering of this bucket would carry.
    pub fn bucket_bound(&self, i: usize) -> u64 {
        if i as u32 > self.max_exp {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Folds the stripes into an ordinary [`Histogram`] without blocking
    /// writers. The snapshot's `count` is derived from its bucket counts
    /// (never from a separately-raced total), so
    /// `snapshot.count() == sum(buckets)` holds unconditionally, and —
    /// because every bucket only grows — successive snapshots from one
    /// reader thread have monotone counts.
    pub fn snapshot(&self) -> Histogram {
        let n_buckets = self.max_exp as usize + 2;
        let mut counts = vec![0u64; n_buckets];
        let mut sum = 0u64;
        for stripe in self.stripes.iter() {
            for (total, c) in counts.iter_mut().zip(stripe.counts.iter()) {
                *total += c.load(Ordering::Relaxed);
            }
            sum += stripe.sum.load(Ordering::Relaxed);
        }
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        Histogram::from_parts(counts, self.max_exp, sum, min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.inc(), 7);
        assert_eq!(g.dec(), 8);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn atomic_hist_matches_sequential_histogram() {
        let atomic = AtomicHist::pow2(8);
        let mut reference = Histogram::pow2(8);
        for v in [0u64, 1, 2, 3, 5, 16, 17, 300, 1 << 20] {
            atomic.record(v);
            reference.record(v);
        }
        let snap = atomic.snapshot();
        assert_eq!(snap, reference, "same layout, same buckets, same stats");
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let atomic = AtomicHist::pow2(8);
        let snap = atomic.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), 0);
        assert_eq!(snap.try_quantile(0.5), None);
    }

    #[test]
    fn snapshot_merges_into_offline_histogram() {
        let atomic = AtomicHist::pow2(8);
        atomic.record(5);
        let mut offline = Histogram::pow2(8);
        offline.record(9);
        offline.merge(&atomic.snapshot());
        assert_eq!(offline.count(), 2);
        assert_eq!(offline.sum(), 14);
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let h = AtomicHist::pow2(16);
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * 1000 + i % 100);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 8 * per_thread);
        let bucket_total: u64 = snap.all_buckets().iter().map(|&(_, c)| c).sum();
        assert_eq!(snap.count(), bucket_total);
    }
}
