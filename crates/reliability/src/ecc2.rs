//! Functional validation of the ECC-2 SuDoku variant (paper §VII-G).
//!
//! The paper notes that at very low ∆ "SuDoku can be enhanced even further
//! by replacing ECC-1 with ECC-2". Analytically that is
//! [`crate::analytic::Params::with_line_ecc`]; this module exercises the
//! claim *functionally*: a RAID-Group of [`ProtectedLine2`] lines (CRC-31 +
//! BCH t=2) is injected with a chosen fault pattern and repaired on one
//! hash by the same [`RepairEngine`] the ECC-1 cache runs — fix locally,
//! SDR (flip-one-mismatch + ECC + CRC), final RAID-4 — instantiated for
//! the ECC-2 line. With ECC-2, SDR resurrects lines with *three* faults,
//! the very pattern that forces the ECC-1 design to fall back on its
//! second hash.
//!
//! [`RepairEngine`]: sudoku_core::RepairEngine

use crate::montecarlo::{GroupCampaignSummary, IntervalOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sudoku_codes::{Line2Codec, LineCode, ProtectedLine2, ReadCheck, TOTAL2_BITS};
use sudoku_core::{
    CacheStats, GroupScratch, GroupView, HashDim, MemberState, Recorder, RepairEngine,
    RepairParams, ScrubReport,
};
use sudoku_fault::choose_distinct;

/// A conditional ECC-2 group scenario (single hash dimension).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ecc2Scenario {
    /// Lines per RAID-Group.
    pub group: u32,
    /// Faults per affected line.
    pub fault_counts: Vec<u32>,
    /// SDR mismatch budget (6 in the paper).
    pub max_mismatches: u32,
}

impl Ecc2Scenario {
    /// The §VII-G stress case: two 3-fault lines in one group.
    pub fn three_by_three(group: u32) -> Self {
        Ecc2Scenario {
            group,
            fault_counts: vec![3, 3],
            max_mismatches: 6,
        }
    }
}

/// One RAID-Group of ECC-2 lines held in a vector. The golden data is all
/// zero, so the stored parity is the zero codeword (linearity, as in the
/// main Monte-Carlo engine).
struct Ecc2Group {
    lines: Vec<ProtectedLine2>,
}

impl GroupView<ProtectedLine2> for Ecc2Group {
    fn len(&self) -> usize {
        self.lines.len()
    }

    fn line_id(&self, i: usize) -> u64 {
        i as u64
    }

    fn state(&self, i: usize) -> MemberState<ProtectedLine2> {
        MemberState::Stored(self.lines[i])
    }

    fn commit_repair(&mut self, i: usize, line: ProtectedLine2) {
        self.lines[i] = line;
    }

    fn commit_reconstruction(&mut self, i: usize, line: ProtectedLine2) {
        self.lines[i] = line;
    }

    fn parity(&self) -> ProtectedLine2 {
        ProtectedLine2::zero()
    }
}

/// Runs one trial: inject `scenario.fault_counts` into distinct random
/// lines of a zero-data group and repair the group once with the shared
/// repair engine. A line left multi-bit is a DUE; any other line left
/// non-zero is silently corrupted.
pub fn run_ecc2_group_trial(scenario: &Ecc2Scenario, seed: u64) -> IntervalOutcome {
    let codec = Line2Codec::shared();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut group = Ecc2Group {
        lines: vec![ProtectedLine2::zero(); scenario.group as usize],
    };
    let victims = choose_distinct(
        &mut rng,
        scenario.group as u64,
        scenario.fault_counts.len() as u64,
    );
    for (&v, &count) in victims.iter().zip(scenario.fault_counts.iter()) {
        for pos in choose_distinct(&mut rng, TOTAL2_BITS as u64, count as u64) {
            group.lines[v as usize].flip_bit(pos as usize);
        }
    }

    let mut stats = CacheStats::default();
    let mut recorder = Recorder::disabled();
    let mut report = ScrubReport::default();
    RepairEngine {
        codec,
        params: RepairParams {
            sdr_enabled: true,
            max_sdr_mismatches: scenario.max_mismatches,
            sdr_pair_trials: false,
        },
        stats: &mut stats,
        recorder: &mut recorder,
    }
    .repair_group(
        HashDim::H1,
        0,
        &mut group,
        &mut GroupScratch::default(),
        &mut report,
        true,
    );

    let mut outcome = IntervalOutcome {
        faulty_lines: victims.len() as u32,
        faulty_bits: scenario.fault_counts.iter().sum(),
        raid4_repairs: report.raid4_repairs as u32,
        sdr_repairs: report.sdr_repairs as u32,
        ..IntervalOutcome::default()
    };
    for line in group.lines.iter().filter(|l| !l.is_zero()) {
        match codec.scrub_check(line) {
            ReadCheck::MultiBit => outcome.due_lines += 1,
            _ => outcome.sdc_lines += 1,
        }
    }
    // Every casualty ends reconstructed by SDR or RAID-4, or unresolved.
    outcome.multibit_lines = outcome.sdr_repairs + outcome.raid4_repairs + outcome.due_lines;
    outcome
}

/// Runs `trials` seeds of a scenario.
pub fn run_ecc2_campaign(scenario: &Ecc2Scenario, trials: u64, seed: u64) -> GroupCampaignSummary {
    run_ecc2_campaign_with_repairs(scenario, trials, seed).0
}

/// [`run_ecc2_campaign`] together with the SDR and the RAID-4 repairs
/// summed over its trials, in that order.
pub fn run_ecc2_campaign_with_repairs(
    scenario: &Ecc2Scenario,
    trials: u64,
    seed: u64,
) -> (GroupCampaignSummary, u64, u64) {
    let (mut s, mut sdr, mut raid4) = (GroupCampaignSummary::default(), 0, 0);
    for t in 0..trials {
        let o = run_ecc2_group_trial(scenario, seed.wrapping_add(t));
        s.absorb(&o);
        sdr += u64::from(o.sdr_repairs);
        raid4 += u64::from(o.raid4_repairs);
    }
    (s, sdr, raid4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_fault_lines_fixed_locally() {
        let s = run_ecc2_campaign(
            &Ecc2Scenario {
                group: 64,
                fault_counts: vec![2, 2, 2],
                max_mismatches: 6,
            },
            200,
            1,
        );
        assert_eq!(s.repaired, s.trials, "{s:?}");
    }

    #[test]
    fn three_by_three_succeeds_with_ecc2() {
        // The pattern ECC-1 SDR cannot fix on a single hash.
        let s = run_ecc2_campaign(&Ecc2Scenario::three_by_three(64), 400, 2);
        assert!(s.success_rate() > 0.99, "{s:?}");
        assert_eq!(s.sdc, 0);
    }

    #[test]
    fn three_plus_four_succeeds() {
        // (3,4): SDR resurrects the 3-fault line, RAID-4 the 4-fault one.
        // 7 mismatches exceed the budget only without overlaps... (3+4=7):
        // over budget → abort → RAID-4 alone cannot fix two lines → DUE
        // unless SDR ran. Expect mostly DUE with cap 6, success with cap 7.
        let strict = run_ecc2_campaign(
            &Ecc2Scenario {
                group: 64,
                fault_counts: vec![3, 4],
                max_mismatches: 6,
            },
            200,
            3,
        );
        assert!(strict.success_rate() < 0.2, "{strict:?}");
        let relaxed = run_ecc2_campaign(
            &Ecc2Scenario {
                group: 64,
                fault_counts: vec![3, 4],
                max_mismatches: 8,
            },
            200,
            3,
        );
        assert!(relaxed.success_rate() > 0.95, "{relaxed:?}");
    }

    #[test]
    fn repairs_split_by_mechanism() {
        // BCH t = 2 fixes both lines of a (2,2) trial locally.
        let two_by_two = Ecc2Scenario {
            group: 64,
            fault_counts: vec![2, 2],
            max_mismatches: 6,
        };
        for seed in 0..200 {
            let o = run_ecc2_group_trial(&two_by_two, seed);
            assert_eq!(
                (
                    o.multibit_lines,
                    o.sdr_repairs,
                    o.raid4_repairs,
                    o.due_lines
                ),
                (0, 0, 0, 0),
                "seed {seed}: {o:?}"
            );
        }
        // (3,3): SDR resurrects one line, RAID-4 then rebuilds the other.
        let mut repaired = 0;
        for seed in 0..400 {
            let o = run_ecc2_group_trial(&Ecc2Scenario::three_by_three(64), seed);
            if o.due_lines == 0 && o.sdc_lines == 0 {
                repaired += 1;
                assert_eq!(
                    (o.multibit_lines, o.sdr_repairs, o.raid4_repairs),
                    (2, 1, 1),
                    "seed {seed}: {o:?}"
                );
            }
        }
        assert!(repaired > 396, "{repaired} of 400 repaired");
    }

    /// The trial seeds in `first..first + trials` whose trial ends
    /// repaired; every other trial must end DUE, and none SDC.
    fn repaired_seeds(scenario: &Ecc2Scenario, first: u64, trials: u64) -> Vec<u64> {
        let mut repaired = Vec::new();
        for seed in first..first + trials {
            let s = run_ecc2_campaign(scenario, 1, seed);
            assert_eq!((s.trials, s.sdc), (1, 0), "seed {seed}: {s:?}");
            if s.repaired == 1 {
                repaired.push(seed);
            } else {
                assert_eq!(s.due, 1, "seed {seed}: {s:?}");
            }
        }
        repaired
    }

    /// Pins which trials the ECC-2 ladder repairs, seed by seed, so any
    /// change to the repair ladder must reproduce every outcome.
    #[test]
    fn ecc2_outcomes_are_pinned_seed_by_seed() {
        let three_four = |group| Ecc2Scenario {
            group,
            fault_counts: vec![3, 4],
            max_mismatches: 6,
        };
        assert_eq!(repaired_seeds(&three_four(64), 3, 200), PINNED_3_4_G64);
        assert_eq!(repaired_seeds(&three_four(16), 11, 1000), PINNED_3_4_G16);
        // The ecc2_sdr patterns at seed 0: all repaired but two × 4.
        for (counts, all_repaired) in [
            (vec![2, 2], true),
            (vec![3, 3], true),
            (vec![2, 2, 2], true),
            (vec![2, 3], true),
            (vec![4, 4], false),
        ] {
            let scenario = Ecc2Scenario {
                group: 64,
                fault_counts: counts,
                max_mismatches: 6,
            };
            let repaired = repaired_seeds(&scenario, 0, 2000);
            let expected = if all_repaired { 2000 } else { 0 };
            assert_eq!(repaired.len(), expected, "{scenario:?}");
        }
    }

    const PINNED_3_4_G64: &[u64] = &[72, 81, 110, 165, 182, 197];
    const PINNED_3_4_G16: &[u64] = &[
        72, 81, 110, 165, 182, 197, 260, 335, 382, 449, 587, 633, 671, 680, 800, 806, 818, 872,
        894, 896, 899, 953, 971, 973,
    ];

    #[test]
    fn four_by_four_fails_even_with_ecc2() {
        let s = run_ecc2_campaign(
            &Ecc2Scenario {
                group: 64,
                fault_counts: vec![4, 4],
                max_mismatches: 6,
            },
            100,
            4,
        );
        assert!(s.success_rate() < 0.05, "{s:?}");
        assert_eq!(s.sdc, 0);
    }
}
