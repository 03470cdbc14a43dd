//! Lock-free live metrics: counters, gauges, and a power-of-two histogram,
//! striped per thread.
//!
//! The offline telemetry of this crate ([`Histogram`], [`Recorder`]) is
//! owned by one thread and merged at the end of a run. A *live* telemetry
//! plane needs the opposite: many writer threads updating the same metric
//! wait-free on the hot path, and a reader (a sampler or a `/metrics`
//! scrape) snapshotting at any moment without stopping the world.
//!
//! Writers own their stripes. A process-wide pool of 16 stripe slots
//! hands each thread one slot on its first record (a CAS on a bitmask)
//! and takes it back when the thread exits. Slots 0–14 have one owner at
//! a time, so an update there is a plain relaxed load and store: no
//! locked instruction, and no cache line another writer touches. Slot 15
//! is shared: threads that find the pool full, and records made while a
//! thread's thread-locals are being torn down, update it with
//! `fetch_add`/`fetch_min`/`fetch_max`. Readers fold the stripes.
//!
//! * [`Counter`] — one 64-byte cell per stripe; `get` sums them, so one
//!   reader's successive reads are monotone.
//! * [`Gauge`] — one relaxed atomic: many threads set it and step it both
//!   ways, so it cannot be split by owner.
//! * [`AtomicHist`] — the pow2 bucket layout of [`Histogram`], with a
//!   bucket array, sum, min and max per stripe. `snapshot` folds the
//!   stripes into an ordinary [`Histogram`] whose `count` is **derived
//!   from the bucket counts**, so `count == sum(buckets)` holds in every
//!   snapshot no matter how the reads interleave with writers.
//!
//! [`Recorder`]: crate::Recorder

use crate::hist::{bucket_index, Histogram};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Number of stripes: [`SHARED`] plus one owned slot per concurrently
/// live writer thread, up to 15.
const STRIPES: usize = 16;

/// The stripe every thread may write, with read-modify-writes.
const SHARED: usize = STRIPES - 1;

/// Which owned slots (bits `0..SHARED`) a live thread holds.
static HELD: AtomicU32 = AtomicU32::new(0);

/// A thread's stripe, claimed on its first record and released by its
/// thread-local destructor.
struct Claim(usize);

impl Claim {
    /// Takes the lowest free owned slot, or [`SHARED`] when all are held.
    /// The `Acquire` CAS pairs with the `Release` in the previous owner's
    /// `drop`: every plain store the previous owner made to the slot
    /// happens before this thread's first load of it.
    fn take() -> Claim {
        let mut held = HELD.load(Ordering::Relaxed);
        loop {
            let free = !held & ((1 << SHARED) - 1);
            if free == 0 {
                return Claim(SHARED);
            }
            let slot = free.trailing_zeros() as usize;
            match HELD.compare_exchange_weak(
                held,
                held | 1 << slot,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Claim(slot),
                Err(now) => held = now,
            }
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.0 != SHARED {
            HELD.fetch_and(!(1 << self.0), Ordering::Release);
        }
    }
}

thread_local! {
    static CLAIM: Claim = Claim::take();
}

/// The calling thread's stripe: its own slot, or [`SHARED`] when it holds
/// none (the pool was full, or its thread-locals are being torn down).
#[inline]
fn stripe() -> usize {
    CLAIM.try_with(|c| c.0).unwrap_or(SHARED)
}

/// Adds `n` to `cell` of stripe `stripe`: a plain load and store on an
/// owned stripe, a `fetch_add` on the shared one.
#[inline]
fn bump(cell: &AtomicU64, stripe: usize, n: u64) {
    if stripe == SHARED {
        cell.fetch_add(n, Ordering::Relaxed);
    } else {
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }
}

/// One atomic word alone on a 64-byte cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Padded(AtomicU64);

/// A monotonically increasing event count, updatable wait-free from any
/// thread.
///
/// The 1 KiB of stripe cells live on the heap, so a struct of many
/// counters stays a few words per counter to build and move.
#[derive(Debug, Default)]
pub struct Counter(Box<[Padded; STRIPES]>);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        let stripe = stripe();
        bump(&self.0[stripe].0, stripe, n);
    }

    /// The current value: the sum of the stripes. Each stripe only grows,
    /// so one thread's successive reads never go down.
    pub fn get(&self) -> u64 {
        self.0
            .iter()
            .fold(0, |sum, c| sum.wrapping_add(c.0.load(Ordering::Relaxed)))
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

/// Eight words: one cache line of a histogram stripe.
#[derive(Debug)]
#[repr(align(64))]
struct Line([AtomicU64; 8]);

const _: () = assert!(std::mem::size_of::<Line>() == 64 && std::mem::size_of::<Padded>() == 64);

/// Words ahead of the bucket counts in a histogram stripe: sum, min, max.
const BUCKETS: usize = 3;

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
    /// Stripe `s` is lines `s * stride .. (s + 1) * stride`: sum, min,
    /// max, then the bucket counts. No two stripes share a line.
    lines: Box<[Line]>,
    stride: usize,
    max_exp: u32,
}

impl AtomicHist {
    /// A histogram with buckets `0..=1, 2, 4, …, 2^max_exp` plus overflow —
    /// the exact layout of [`Histogram::pow2`], so snapshots merge with
    /// offline histograms of the same `max_exp`.
    pub fn pow2(max_exp: u32) -> Self {
        assert!((1..=63).contains(&max_exp), "max_exp must be in 1..=63");
        let stride = (BUCKETS + max_exp as usize + 2).div_ceil(8);
        let lines = (0..STRIPES * stride)
            .map(|i| {
                // Word 1 of a stripe's first line is its min.
                let min = i % stride == 0;
                Line(std::array::from_fn(|w| {
                    AtomicU64::new(if min && w == 1 { u64::MAX } else { 0 })
                }))
            })
            .collect();
        AtomicHist {
            lines,
            stride,
            max_exp,
        }
    }

    /// The lines of stripe `stripe`.
    #[inline]
    fn stripe(&self, stripe: usize) -> &[Line] {
        &self.lines[stripe * self.stride..(stripe + 1) * self.stride]
    }

    /// Records one sample, wait-free, into the calling thread's stripe:
    /// its bucket and sum, and its min/max only when a plain load shows
    /// the sample moves the bound. On an owned stripe each update is a
    /// plain load and store; on the shared one a `fetch_add`,
    /// `fetch_min` or `fetch_max`.
    #[inline]
    pub fn record(&self, v: u64) {
        let stripe = stripe();
        let lines = self.stripe(stripe);
        let b = BUCKETS + bucket_index(v, self.max_exp);
        bump(&lines[b / 8].0[b % 8], stripe, 1);
        let [sum, min, max, ..] = &lines[0].0;
        bump(sum, stripe, v);
        if v < min.load(Ordering::Relaxed) {
            if stripe == SHARED {
                min.fetch_min(v, Ordering::Relaxed);
            } else {
                min.store(v, Ordering::Relaxed);
            }
        }
        if v > max.load(Ordering::Relaxed) {
            if stripe == SHARED {
                max.fetch_max(v, Ordering::Relaxed);
            } else {
                max.store(v, Ordering::Relaxed);
            }
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
    /// writers: bucket counts and sums add up, mins and maxes fold. The
    /// snapshot's `count` is derived from its bucket counts (never from a
    /// separately-raced total), so `snapshot.count() == sum(buckets)`
    /// holds unconditionally, and — because every bucket only grows —
    /// successive snapshots from one reader thread have monotone counts.
    pub fn snapshot(&self) -> Histogram {
        let mut counts = vec![0u64; self.n_buckets()];
        let (mut sum, mut min, mut max) = (0u64, u64::MAX, 0u64);
        for stripe in 0..STRIPES {
            let lines = self.stripe(stripe);
            let words = lines.iter().flat_map(|l| l.0.iter());
            for (total, c) in counts.iter_mut().zip(words.skip(BUCKETS)) {
                *total += c.load(Ordering::Relaxed);
            }
            let [s, lo, hi, ..] = &lines[0].0;
            sum = sum.wrapping_add(s.load(Ordering::Relaxed));
            min = min.min(lo.load(Ordering::Relaxed));
            max = max.max(hi.load(Ordering::Relaxed));
        }
        Histogram::from_parts(counts, self.max_exp, sum, min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Mutex, PoisonError};

    /// Serializes the tests here that spawn writer threads: the stripe
    /// pool is process-wide.
    static POOL: Mutex<()> = Mutex::new(());

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
        let _pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
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

    #[test]
    fn exited_threads_give_their_slots_back() {
        let _pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
        let (hist, counter) = (AtomicHist::pow2(16), Counter::new());
        let mut reference = Histogram::pow2(16);
        // Twice the pool, one thread at a time. `join` waits for the
        // thread's thread-local destructors, so its slot is free again
        // before the next thread starts.
        for n in 1..=2 * SHARED as u64 + 1 {
            let stripe = std::thread::scope(|s| {
                s.spawn(|| {
                    hist.record(n);
                    counter.inc();
                    stripe()
                })
                .join()
                .expect("writer never panics")
            });
            reference.record(n);
            assert_ne!(stripe, SHARED, "writer {n} found every slot held");
            assert_eq!(hist.snapshot(), reference, "after writer {n}");
            assert_eq!(counter.get(), n);
        }
    }

    /// The metrics a [`Probe`] records into, and the stripe it saw.
    type Probed = (AtomicHist, Counter, AtomicUsize);

    /// Records one sample and one count, and notes its thread's stripe,
    /// when the thread's thread-locals are torn down.
    struct Probe(Arc<Probed>);

    impl Drop for Probe {
        fn drop(&mut self) {
            let (hist, counter, seen) = &*self.0;
            seen.store(stripe(), Ordering::Relaxed);
            hist.record(77);
            counter.inc();
        }
    }

    thread_local! {
        static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
    }

    #[test]
    fn teardown_records_are_counted() {
        let _pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
        let probed: Arc<Probed> =
            Arc::new((AtomicHist::pow2(8), Counter::new(), AtomicUsize::new(0)));
        let probe = Arc::clone(&probed);
        std::thread::spawn(move || {
            // The probe registers first; the first record then claims.
            PROBE.with(|p| *p.borrow_mut() = Some(Probe(Arc::clone(&probe))));
            probe.0.record(5);
            probe.1.inc();
        })
        .join()
        .expect("writer never panics");
        let (hist, counter, seen) = &*probed;
        let mut reference = Histogram::pow2(8);
        reference.record(5);
        reference.record(77);
        assert_eq!(
            hist.snapshot(),
            reference,
            "the live and the teardown record both count"
        );
        assert_eq!(counter.get(), 2);
        // glibc runs thread-local destructors in reverse order of
        // registration, so the probe ran after the claim gave its slot
        // back, and recorded on the shared stripe.
        if cfg!(all(target_os = "linux", target_env = "gnu")) {
            assert_eq!(seen.load(Ordering::Relaxed), SHARED);
        }
    }
}
