//! Stripe ownership of the live metrics plane under thread churn.
//!
//! Each writer thread claims one of 15 owned stripes on its first record
//! and updates it with plain loads and stores; threads beyond the pool
//! share one last stripe through read-modify-writes. Whatever stripe a
//! record lands on, nothing may be lost:
//!
//! * waves of writers larger than the pool keep exact counts, sums, mins,
//!   maxes and counter totals, wave after wave, as exited writers hand
//!   their slots back;
//! * the per-stripe min/max fold equals one sequential [`Histogram`].
//!
//! Slot reuse by single threads and records made at thread teardown are
//! tested inside the crate, where the stripe a thread got is visible.

use std::sync::Barrier;
use sudoku_obs::{AtomicHist, Counter, Histogram};

/// More live writers than the 15 owned stripes, so every wave puts some
/// of them on the shared stripe at once.
const WAVE: u64 = 20;
const WAVES: u64 = 2;
const PER_WRITER: u64 = 20_000;

/// The samples writer `w` records: a range of its own, so the global
/// min and max come from different writers.
fn samples(w: u64) -> impl Iterator<Item = u64> {
    (0..PER_WRITER).map(move |i| w * 3_001 + (i * 7_919) % 65_537)
}

fn reference(writers: impl Iterator<Item = u64>) -> Histogram {
    let mut h = Histogram::pow2(24);
    for w in writers {
        samples(w).for_each(|v| h.record(v));
    }
    h
}

#[test]
fn waves_of_writers_beyond_the_pool_lose_nothing() {
    let hist = AtomicHist::pow2(24);
    let counter = Counter::new();
    for wave in 0..WAVES {
        // Every writer of a wave records once, then waits for the rest,
        // so all of them hold their stripe claims at the same time.
        let barrier = Barrier::new(WAVE as usize);
        std::thread::scope(|s| {
            for w in wave * WAVE..(wave + 1) * WAVE {
                let (hist, counter, barrier) = (&hist, &counter, &barrier);
                s.spawn(move || {
                    let mut values = samples(w);
                    hist.record(values.next().expect("PER_WRITER > 0"));
                    counter.inc();
                    barrier.wait();
                    for v in values {
                        hist.record(v);
                        counter.inc();
                    }
                });
            }
        });
        let done = (wave + 1) * WAVE;
        assert_eq!(
            hist.snapshot(),
            reference(0..done),
            "wave {wave}: buckets, count, sum, min and max must be exact"
        );
        assert_eq!(counter.get(), done * PER_WRITER);
    }
}

#[test]
fn per_stripe_min_max_fold_equals_sequential_histogram() {
    let hist = AtomicHist::pow2(24);
    let writers = 6u64;
    // All writers hold their claims at once, so they record on distinct
    // stripes; each has a different min and max.
    let barrier = Barrier::new(writers as usize);
    std::thread::scope(|s| {
        for w in 0..writers {
            let (hist, barrier) = (&hist, &barrier);
            s.spawn(move || {
                barrier.wait();
                samples(w).for_each(|v| hist.record(v));
            });
        }
    });
    let snap = hist.snapshot();
    let expect = reference(0..writers);
    assert_eq!(snap.min(), expect.min());
    assert_eq!(snap.max(), expect.max());
    assert_eq!(snap, expect);
}
