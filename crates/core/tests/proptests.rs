//! Property-based tests for the SuDoku cache invariants.

use proptest::collection::{btree_set, vec};
use proptest::prelude::*;
use sudoku_codes::{LineData, TOTAL_BITS};
use sudoku_core::{CacheStats, HashDim, Recorder, Scheme, SkewedHashes, SudokuCache, SudokuConfig};

const LINES: u64 = 256;
const GROUP: u32 = 16;

fn golden(i: u64) -> LineData {
    let mut d = LineData::zero();
    d.set_bit((i as usize * 41) % 512, true);
    d.set_bit((i as usize * 7 + 99) % 512, true);
    d
}

fn populated(scheme: Scheme) -> SudokuCache {
    let mut cache =
        SudokuCache::new(SudokuConfig::small(scheme, LINES, GROUP)).expect("valid config");
    for i in 0..LINES {
        cache.write(i, &golden(i));
    }
    cache
}

/// A random fault pattern: map line → set of distinct bit positions.
fn arb_faults(
    max_lines: usize,
    max_faults_per_line: usize,
) -> impl Strategy<Value = Vec<(u64, Vec<usize>)>> {
    vec(
        (
            0..LINES,
            btree_set(0usize..TOTAL_BITS, 1..=max_faults_per_line),
        ),
        0..=max_lines,
    )
    .prop_map(|v| {
        // Deduplicate lines, keeping the first pattern.
        let mut seen = std::collections::BTreeSet::new();
        v.into_iter()
            .filter(|(l, _)| seen.insert(*l))
            .map(|(l, s)| (l, s.into_iter().collect()))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The fundamental safety invariant: with ≤7 faults per line (CRC-31's
    /// guaranteed detection range) the cache either restores golden data
    /// or reports a DUE — it never silently serves wrong data.
    #[test]
    fn never_silent_corruption(faults in arb_faults(12, 7)) {
        let mut cache = populated(Scheme::Z);
        let mut hints = Vec::new();
        for (line, bits) in &faults {
            for &b in bits {
                cache.inject_fault(*line, b);
            }
            hints.push(*line);
        }
        let report = cache.scrub_lines(&hints);
        for i in 0..LINES {
            match cache.read(i) {
                Ok(data) => prop_assert_eq!(data, golden(i), "line {} corrupted", i),
                Err(e) => prop_assert!(
                    report.unresolved.contains(&e.line),
                    "DUE for line {} not reported by scrub", e.line
                ),
            }
        }
    }

    /// Single-fault-per-line patterns are always fully repaired by ECC-1,
    /// regardless of how many lines are hit.
    #[test]
    fn all_single_faults_always_repaired(faults in arb_faults(40, 1)) {
        let mut cache = populated(Scheme::X);
        let mut hints = Vec::new();
        for (line, bits) in &faults {
            cache.inject_fault(*line, bits[0]);
            hints.push(*line);
        }
        let report = cache.scrub_lines(&hints);
        prop_assert!(report.fully_repaired(), "{:?}", report);
        for i in 0..LINES {
            prop_assert_eq!(cache.read(i).expect("readable"), golden(i));
        }
    }

    /// Scrub is idempotent: a second pass right after the first finds
    /// nothing new to repair (when the first pass repaired everything).
    #[test]
    fn scrub_idempotent_after_success(faults in arb_faults(6, 3)) {
        let mut cache = populated(Scheme::Z);
        for (line, bits) in &faults {
            for &b in bits {
                cache.inject_fault(*line, b);
            }
        }
        let first = cache.scrub();
        prop_assume!(first.fully_repaired());
        let second = cache.scrub();
        prop_assert_eq!(second.ecc1_repairs, 0);
        prop_assert_eq!(second.multibit_lines, 0);
        prop_assert!(second.fully_repaired());
    }

    /// Stronger schemes never resolve fewer lines than weaker ones on the
    /// identical fault pattern.
    #[test]
    fn ladder_monotone_on_any_pattern(faults in arb_faults(8, 4)) {
        let mut unresolved = Vec::new();
        for scheme in [Scheme::X, Scheme::Y, Scheme::Z] {
            let mut cache = populated(scheme);
            for (line, bits) in &faults {
                for &b in bits {
                    cache.inject_fault(*line, b);
                }
            }
            unresolved.push(cache.scrub().unresolved.len());
        }
        prop_assert!(unresolved[0] >= unresolved[1], "{:?}", unresolved);
        prop_assert!(unresolved[1] >= unresolved[2], "{:?}", unresolved);
    }

    /// Writes after arbitrary fault/scrub history always read back.
    #[test]
    fn writes_always_win(
        faults in arb_faults(6, 3),
        target in 0..LINES,
        payload_bit in 0usize..512
    ) {
        let mut cache = populated(Scheme::Z);
        for (line, bits) in &faults {
            for &b in bits {
                cache.inject_fault(*line, b);
            }
        }
        let mut d = LineData::zero();
        d.set_bit(payload_bit, true);
        cache.write(target, &d);
        prop_assert_eq!(cache.read(target).expect("just written"), d);
    }

    /// Skewed-hash disjointness at arbitrary valid sizes.
    #[test]
    fn skewed_hash_disjointness(bits in 2u32..5, mult in 1u64..5) {
        let group = 1u32 << bits;
        let lines = (group as u64 * group as u64) * mult;
        let h = SkewedHashes::new(lines, group).expect("valid");
        prop_assert!(h.hash2_guaranteed());
        // Sample pairs rather than the full quadratic space.
        for a in (0..lines).step_by(7) {
            for b in (a + 1..lines).step_by(11) {
                let same1 = h.group_of(HashDim::H1, a) == h.group_of(HashDim::H1, b);
                let same2 = h.group_of(HashDim::H2, a) == h.group_of(HashDim::H2, b);
                prop_assert!(!(same1 && same2), "{a} {b}");
            }
        }
    }

    /// The scrub fast paths (the all-zero word and the casualty memo) are
    /// observation-equivalent: on a golden-zero cache under any fault
    /// plan, the optimized scrub returns a byte-identical `ScrubReport`,
    /// stored lines, event log and counters (bar `crc_checks`, the
    /// skipped zero words) vs the reference path that checks every line.
    #[test]
    fn zero_fast_path_reports_identical(faults in arb_faults(12, 7)) {
        let config = SudokuConfig::small(Scheme::Z, LINES, GROUP);
        let mut fast = SudokuCache::new(config).expect("valid config");
        let mut reference = SudokuCache::new(config).expect("valid config");
        fast.set_recorder(Recorder::ring(4096));
        reference.set_recorder(Recorder::ring(4096));
        let mut hints = Vec::new();
        for (line, bits) in &faults {
            for &b in bits {
                fast.inject_fault(*line, b);
                reference.inject_fault(*line, b);
            }
            hints.push(*line);
        }
        let r_fast = fast.scrub_lines(&hints);
        let r_ref = reference.scrub_lines_reference(&hints);
        prop_assert_eq!(r_fast, r_ref);
        for i in 0..LINES {
            prop_assert_eq!(fast.stored_line(i), reference.stored_line(i), "line {}", i);
        }
        prop_assert!(fast.events().eq(reference.events()));
        let masked = |c: &SudokuCache| CacheStats { crc_checks: 0, ..*c.stats() };
        prop_assert_eq!(masked(&fast), masked(&reference));
    }
}
