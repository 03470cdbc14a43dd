//! Allocation regression test for the ladder campaign's hot loop.
//!
//! A counting global allocator tallies the heap blocks and bytes the
//! measuring thread asks for. Building the 512²-line ladder arena must
//! not zero whole parity tables, and a warmed-up `run_group_trial_in` +
//! `reset_to_golden_zero` loop must allocate at most two blocks per trial.
//! The file holds one test, so no other test thread shares the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use sudoku_core::{CacheGeometry, Scheme, SudokuCache, SudokuConfig};
use sudoku_fault::ScrubSchedule;
use sudoku_reliability::montecarlo::{run_group_trial_in, GroupScenario};

struct Counting;

static BLOCKS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(size: usize) {
    if COUNTING.with(Cell::get) {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` on this thread with counting on; returns its result and the
/// (blocks, bytes) it allocated.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (blocks, bytes) = (
        BLOCKS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (
        out,
        BLOCKS.load(Ordering::Relaxed) - blocks,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// The ladder scenario: four lines × two faults in one 512-line
/// SuDoku-Z group, on a 512²-line arena.
fn ladder() -> (GroupScenario, SudokuConfig) {
    let scenario = GroupScenario {
        scheme: Scheme::Z,
        group: 512,
        fault_counts: vec![2, 2, 2, 2],
        pair_sdr: false,
    };
    let config = SudokuConfig {
        geometry: CacheGeometry::with_lines(512 * 512),
        scheme: Scheme::Z,
        group_lines: 512,
        max_sdr_mismatches: 6,
        sdr_pair_trials: false,
        defer_hash2: false,
        scrub: ScrubSchedule::paper_default(),
    };
    (scenario, config)
}

#[test]
fn ladder_arena_and_trials_stay_off_the_heap() {
    let (scenario, config) = ladder();

    let (cache, blocks, bytes) =
        counted(|| SudokuCache::new_sparse(config).expect("valid ladder configuration"));
    assert!(
        bytes < 16 * 1024,
        "building the ladder arena allocated {bytes} B in {blocks} blocks"
    );

    let mut cache = cache;
    // Warm up: the store's map, the scratch buffers and the recovered-line
    // map reach their steady-state capacities.
    for seed in 10_000..10_256 {
        run_group_trial_in(&mut cache, &scenario, seed);
        cache.reset_to_golden_zero();
    }
    const TRIALS: u64 = 2048;
    let (repaired, blocks, _) = counted(|| {
        let mut repaired = 0u64;
        // Seeds 42.. are the reference ladder campaign's, all repaired.
        for seed in 42..42 + TRIALS {
            let o = run_group_trial_in(&mut cache, &scenario, seed);
            repaired += (o.due_lines == 0 && o.sdc_lines == 0) as u64;
            cache.reset_to_golden_zero();
        }
        repaired
    });
    assert_eq!(repaired, TRIALS, "every ladder trial is repaired");
    assert!(
        blocks <= 2 * TRIALS,
        "{TRIALS} warmed-up trials allocated {blocks} blocks ({:.2} per trial)",
        blocks as f64 / TRIALS as f64
    );
}
