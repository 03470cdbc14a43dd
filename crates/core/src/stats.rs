//! Event counters and latency accounting (paper §VII-B).

use serde::{Deserialize, Serialize};
use sudoku_codes::RepairKind;

/// STTRAM read latency, 9 ns (Table VI).
pub const STT_READ_NS: f64 = 9.0;
/// STTRAM write latency, 18 ns (Table VI).
pub const STT_WRITE_NS: f64 = 18.0;
/// One 3.2 GHz core cycle, ≈0.3125 ns — the CRC/ECC syndrome check adds one.
pub const SYNDROME_CHECK_NS: f64 = 1.0 / 3.2;

/// Counters accumulated by a SuDoku cache across its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Logical reads served.
    pub reads: u64,
    /// Logical writes served.
    pub writes: u64,
    /// Lines examined by scrub passes.
    pub lines_scrubbed: u64,
    /// Single-bit repairs performed by per-line ECC-1.
    pub ecc1_repairs: u64,
    /// ECC-metadata regenerations (fault in the ECC field itself).
    pub meta_repairs: u64,
    /// Lines flagged multi-bit by CRC.
    pub multibit_detections: u64,
    /// Lines reconstructed by plain RAID-4 (paper §III-C.2).
    pub raid4_repairs: u64,
    /// Lines resurrected by SDR bit-flip trials (paper §IV).
    pub sdr_repairs: u64,
    /// Individual SDR flip-and-check trials attempted.
    pub sdr_trials: u64,
    /// Lines repaired only thanks to the Hash-2 dimension (paper §V).
    pub hash2_repairs: u64,
    /// Lines left detectably uncorrectable (DUE).
    pub due_lines: u64,
    /// Whole-group reads performed during recovery.
    pub group_scans: u64,
    /// CRC/ECC consistency checks performed by the read, scrub, and
    /// recovery paths (all-zero lines skipped by the fast path are not
    /// counted — that is the point of the counter).
    pub crc_checks: u64,
}

impl CacheStats {
    /// Total lines repaired by any mechanism.
    pub fn total_repairs(&self) -> u64 {
        self.ecc1_repairs + self.meta_repairs + self.raid4_repairs + self.sdr_repairs
    }

    /// Estimated time spent in recovery, in nanoseconds, using the paper's
    /// §VII-B accounting: a group scan costs `group_lines` STTRAM reads,
    /// each SDR trial a handful of cycles, each repair one write-back.
    pub fn recovery_time_ns(&self, group_lines: u32) -> f64 {
        let scan = self.group_scans as f64 * group_lines as f64 * STT_READ_NS;
        let trials = self.sdr_trials as f64 * 4.0 * SYNDROME_CHECK_NS;
        let writebacks = self.total_repairs() as f64 * STT_WRITE_NS;
        scan + trials + writebacks
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.lines_scrubbed += other.lines_scrubbed;
        self.ecc1_repairs += other.ecc1_repairs;
        self.meta_repairs += other.meta_repairs;
        self.multibit_detections += other.multibit_detections;
        self.raid4_repairs += other.raid4_repairs;
        self.sdr_repairs += other.sdr_repairs;
        self.sdr_trials += other.sdr_trials;
        self.hash2_repairs += other.hash2_repairs;
        self.due_lines += other.due_lines;
        self.group_scans += other.group_scans;
        self.crc_checks += other.crc_checks;
    }

    /// JSON object with every counter, stable field order.
    pub fn to_json(&self) -> String {
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_u64("reads", self.reads);
        obj.field_u64("writes", self.writes);
        obj.field_u64("lines_scrubbed", self.lines_scrubbed);
        obj.field_u64("ecc1_repairs", self.ecc1_repairs);
        obj.field_u64("meta_repairs", self.meta_repairs);
        obj.field_u64("multibit_detections", self.multibit_detections);
        obj.field_u64("raid4_repairs", self.raid4_repairs);
        obj.field_u64("sdr_repairs", self.sdr_repairs);
        obj.field_u64("sdr_trials", self.sdr_trials);
        obj.field_u64("hash2_repairs", self.hash2_repairs);
        obj.field_u64("due_lines", self.due_lines);
        obj.field_u64("group_scans", self.group_scans);
        obj.field_u64("crc_checks", self.crc_checks);
        obj.finish()
    }
}

/// Outcome of one scrub pass.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Lines examined.
    pub lines_checked: u64,
    /// Per-line single-bit repairs (ECC-1).
    pub ecc1_repairs: u64,
    /// ECC-field regenerations.
    pub meta_repairs: u64,
    /// Lines that needed group-level recovery.
    pub multibit_lines: u64,
    /// Lines fixed by plain RAID-4 reconstruction.
    pub raid4_repairs: u64,
    /// Lines fixed by SDR.
    pub sdr_repairs: u64,
    /// Lines fixed only via the Hash-2 dimension.
    pub hash2_repairs: u64,
    /// Lines left uncorrectable (their indices) — a detectable
    /// uncorrectable error (DUE) if non-empty.
    pub unresolved: Vec<u64>,
}

impl ScrubReport {
    /// Counts one per-line repair (ECC-1 payload fix or ECC-field
    /// regeneration) found by this scrub.
    pub(crate) fn count_repair(&mut self, kind: RepairKind) {
        match kind {
            RepairKind::PayloadBit(_) => self.ecc1_repairs += 1,
            RepairKind::EccField => self.meta_repairs += 1,
        }
    }

    /// Whether the scrub repaired everything it detected.
    pub fn fully_repaired(&self) -> bool {
        self.unresolved.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_time_matches_paper_magnitudes() {
        // One RAID-4 repair over a 512-line group ≈ 4.6 µs of reads
        // (paper §III-D: "approximately 4 µs per repair").
        let stats = CacheStats {
            group_scans: 1,
            raid4_repairs: 1,
            ..CacheStats::default()
        };
        let t = stats.recovery_time_ns(512);
        assert!((4000.0..5000.0).contains(&t), "{t} ns");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats {
            reads: 1,
            sdr_trials: 5,
            ..CacheStats::default()
        };
        let b = CacheStats {
            reads: 2,
            due_lines: 1,
            ..CacheStats::default()
        };
        a.merge(&b);
        assert_eq!(a.reads, 3);
        assert_eq!(a.sdr_trials, 5);
        assert_eq!(a.due_lines, 1);
    }

    #[test]
    fn empty_report_is_fully_repaired() {
        assert!(ScrubReport::default().fully_repaired());
    }

    #[test]
    fn stats_json_has_every_counter() {
        let stats = CacheStats {
            reads: 7,
            sdr_trials: 5,
            due_lines: 1,
            ..CacheStats::default()
        };
        let json = stats.to_json();
        assert!(json.contains("\"reads\":7"), "{json}");
        assert!(json.contains("\"sdr_trials\":5"), "{json}");
        assert!(json.contains("\"due_lines\":1"), "{json}");
        assert!(json.contains("\"crc_checks\":0"), "{json}");
    }
}
