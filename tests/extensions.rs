//! Integration tests for the features beyond the paper's base design:
//! ECC-2 lines (§VII-G), pair-flip SDR, bursts, persistent faults, the
//! repair-event log, and lifetime campaigns — exercised through the
//! workspace facade.

use sudoku_sttram::codes::{Line2Codec, LineData, ProtectedLine2};
use sudoku_sttram::core::{
    Mechanism, Outcome, Recorder, Scheme, SudokuCache, SudokuConfig, VminCache,
};
use sudoku_sttram::fault::{FaultInjector, ScrubSchedule, StuckBitMap};
use sudoku_sttram::reliability::ecc2::{run_ecc2_campaign, Ecc2Scenario};
use sudoku_sttram::reliability::montecarlo::{run_lifetime_campaign, McConfig};

/// §VII-G end-to-end: the exact fault pattern that forces ECC-1 SuDoku-Y
/// onto its second hash is locally resurrectable with ECC-2 lines.
#[test]
fn ecc2_resurrects_what_ecc1_cannot() {
    // ECC-1 design, single hash: two 3-fault lines → DUE.
    let mut y = SudokuCache::new(SudokuConfig::small(Scheme::Y, 256, 16)).expect("valid");
    for i in 0..256 {
        let mut d = LineData::zero();
        d.set_bit(i as usize % 512, true);
        y.write(i, &d);
    }
    for bit in [10, 20, 30] {
        y.inject_fault(4, bit);
    }
    for bit in [11, 21, 31] {
        y.inject_fault(5, bit);
    }
    assert_eq!(y.scrub().unresolved.len(), 2);

    // ECC-2 harness, same pattern, same single hash: repaired.
    let summary = run_ecc2_campaign(
        &Ecc2Scenario {
            group: 16,
            fault_counts: vec![3, 3],
            max_mismatches: 6,
        },
        300,
        7,
    );
    assert!(summary.success_rate() > 0.99, "{summary:?}");
}

/// The ECC-2 codec composes with RAID parity exactly like ECC-1 (XOR of
/// codewords is a codeword), so PLT machinery would carry over unchanged.
#[test]
fn ecc2_lines_are_raid_compatible() {
    let codec = Line2Codec::shared();
    let mut parity = ProtectedLine2::zero();
    let mut members = Vec::new();
    for i in 0..8u64 {
        let mut d = LineData::zero();
        d.set_bit((i * 61 + 3) as usize % 512, true);
        let line = codec.encode(&d);
        parity.xor_assign(&line);
        members.push(line);
    }
    assert!(codec.validate(&parity));
    // Reconstruct member 5 from parity + the rest.
    let mut rebuilt = parity;
    for (i, m) in members.iter().enumerate() {
        if i != 5 {
            rebuilt.xor_assign(m);
        }
    }
    assert_eq!(rebuilt, members[5]);
}

/// Pair-flip SDR through the public configuration surface.
#[test]
fn pair_sdr_via_config_builder() {
    let config = SudokuConfig::small(Scheme::Y, 256, 16).with_pair_sdr();
    assert!(config.sdr_pair_trials);
    let mut cache = SudokuCache::new(config).expect("valid");
    for i in 0..256 {
        cache.write(i, &LineData::zero());
    }
    for bit in [10, 20, 30] {
        cache.inject_fault(0, bit);
    }
    for bit in [11, 21, 31] {
        cache.inject_fault(1, bit);
    }
    assert!(
        cache.scrub().fully_repaired(),
        "pair trials fix (3,3) on one hash"
    );
}

/// A wide burst in one line plus a stuck cell elsewhere: mixed fault
/// classes recovered together.
#[test]
fn burst_plus_persistent_fault_mixed_recovery() {
    let mut stuck = StuckBitMap::new();
    stuck.insert(40, 99, true);
    let mut cache = VminCache::new(SudokuConfig::small(Scheme::Z, 256, 16), stuck)
        .expect("valid configuration");
    let payload = |i: u64| {
        let mut d = LineData::zero();
        d.set_bit((i * 7) as usize % 512, true);
        d
    };
    for i in 0..256 {
        cache.write(i, &payload(i));
    }
    // The stuck line stays readable through the persistent-fault wrapper…
    assert_eq!(cache.read(40).expect("stuck line readable"), payload(40));
    // …while a 40-bit burst on a plain cache is reconstructed via RAID-4.
    let mut injector = FaultInjector::new(1e-6, 5);
    let mut plain = SudokuCache::new(SudokuConfig::small(Scheme::Z, 256, 16)).expect("valid");
    for i in 0..256 {
        plain.write(i, &payload(i));
    }
    let mut line = plain.stored_line(7);
    let before = line;
    injector.inject_burst(&mut line, 40);
    for b in line.diff_positions(&before) {
        plain.inject_fault(7, b);
    }
    assert_eq!(plain.read(7).expect("burst repaired"), payload(7));
}

/// Event log is visible through the facade and attributes dimensions.
#[test]
fn event_log_through_facade() {
    let mut cache = SudokuCache::new(SudokuConfig::small(Scheme::Z, 256, 16)).expect("valid");
    let _ = cache.set_recorder(Recorder::ring(4096));
    for i in 0..256 {
        cache.write(i, &LineData::zero());
    }
    for bit in [1, 2, 3] {
        cache.inject_fault(9, bit);
    }
    let _ = cache.read(9);
    let raid4: Vec<_> = cache
        .events()
        .filter(|e| e.mechanism == Mechanism::Raid4 && e.outcome == Outcome::Repaired)
        .collect();
    assert_eq!(raid4.len(), 1);
    assert_eq!(raid4[0].line, 9);
    assert!(raid4[0].hash_dim.is_some());
}

/// Lifetime (consecutive intervals) agrees with the independent-interval
/// view at moderate failure rates.
#[test]
fn lifetime_campaign_consistency() {
    let cfg = McConfig {
        scheme: Scheme::X,
        lines: 1 << 12,
        group: 64,
        ber: 2e-4,
        trials: 0,
        seed: 17,
        threads: 0,
        scrub: ScrubSchedule::paper_default(),
    };
    let (mttf_s, failures) = run_lifetime_campaign(&cfg, 20, 100, 3);
    assert!(failures > 0, "X at this BER must fail within 100 intervals");
    assert!(mttf_s.is_finite() && mttf_s > 0.0);
}
