//! The group-repair engine, factored out of [`SudokuCache`] so that every
//! consumer drives *identical* correction logic.
//!
//! The engine implements the per-group half of the recovery ladder (paper
//! §III-C–§V): build a corrected view of the group members (fixing the
//! faults each line's own ECC corrects on the way), then RAID-4 when
//! exactly one casualty remains, with Sequential Data Resurrection
//! bridging the multi-casualty gap. What varies between consumers is
//! *where the members live* and *which line code protects them*:
//!
//! * [`SudokuCache`] repairs groups of its own store (the single-threaded
//!   paper machine);
//! * a sharded service repairs Hash-1 groups inside one shard and Hash-2
//!   groups through a cross-shard coordinator that gathers members from
//!   their owning shards;
//! * the §VII-G ECC-2 trials repair one group of ECC-2 lines.
//!
//! All of them go through [`RepairEngine::repair_group`] over a
//! [`GroupView`], so stats accounting, event emission, and the repair
//! decisions themselves cannot diverge — the property the sharded
//! determinism tests rely on. The engine is generic over the
//! [`LineCode`] of its lines, ECC-1 ([`ProtectedLine`]) by default; each
//! code gets its own monomorphised copy.
//!
//! [`SudokuCache`]: crate::SudokuCache

use crate::config::SudokuConfig;
use crate::hashing::HashDim;
use crate::stats::{CacheStats, ScrubReport, STT_READ_NS, STT_WRITE_NS, SYNDROME_CHECK_NS};
use sudoku_codes::{LineCode, ProtectedLine, ReadCheck, RepairKind};
use sudoku_obs::{Dim, Mechanism, Outcome, Recorder, RecoveryEvent};

/// Telemetry dimension tag for a hash dimension.
#[inline]
pub fn obs_dim(dim: HashDim) -> Dim {
    match dim {
        HashDim::H1 => Dim::H1,
        HashDim::H2 => Dim::H2,
    }
}

/// Builds and emits one recovery event. Callers gate on
/// `recorder.enabled()` so the disabled path never constructs the event.
#[inline]
pub fn emit_event(
    recorder: &mut Recorder,
    line: u64,
    group: Option<(HashDim, u64)>,
    mechanism: Mechanism,
    outcome: Outcome,
    trials: u32,
) {
    recorder.emit(RecoveryEvent {
        interval: 0, // stamped by the recorder
        line,
        group: group.map(|(_, g)| g),
        hash_dim: group.map(|(d, _)| obs_dim(d)),
        mechanism,
        outcome,
        trials,
    });
}

/// Counts one per-line repair (ECC-1 payload fix or ECC-field regeneration)
/// into the stats and, when telemetry is on, the event log and (when the
/// recorder measures) the latency histogram — the §VII-B accounting of
/// one line read, a syndrome check, and one write-back.
pub fn record_repair(stats: &mut CacheStats, recorder: &mut Recorder, line: u64, kind: RepairKind) {
    let mechanism = match kind {
        RepairKind::PayloadBit(_) => {
            stats.ecc1_repairs += 1;
            Mechanism::Ecc1
        }
        RepairKind::EccField => {
            stats.meta_repairs += 1;
            Mechanism::EccField
        }
    };
    if recorder.enabled() {
        emit_event(recorder, line, None, mechanism, Outcome::Repaired, 0);
    }
    if recorder.measures() {
        recorder
            .hists
            .line_recovery_ns
            .record((STT_READ_NS + SYNDROME_CHECK_NS + STT_WRITE_NS) as u64);
    }
}

/// State of one group member as presented to the repair engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberState<L = ProtectedLine> {
    /// The member was reconstructed earlier in this recovery; the
    /// reconstructed value takes precedence over the (possibly
    /// re-corrupted) stored copy.
    Recovered(L),
    /// The member is unmaterialized in a sparse store — the zero codeword,
    /// valid by construction.
    Zero,
    /// The raw (possibly faulty) stored copy.
    Stored(L),
    /// The raw stored copy of a listed casualty, unchanged since it was
    /// classified multi-bit: the engine treats it as multi-bit without
    /// checking it again.
    Casualty(L),
}

/// One multi-bit casualty of a recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Casualty {
    pub(crate) line: u64,
    /// The stored codeword the line was classified multi-bit on, or `None`
    /// for a seed nobody has checked yet.
    pub(crate) raw: Option<ProtectedLine>,
}

/// The multi-bit casualties of one recovery, ascending by line and
/// without duplicates — the working set the SuDoku-Z fixpoint shrinks.
///
/// Each entry keeps the codeword it was classified on, so a recovery
/// pass checks a casualty again only when its stored copy has changed
/// since: the memo is keyed on the value, which keeps it exact even when
/// writes land between passes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Casualties {
    entries: Vec<Casualty>,
}

impl Casualties {
    /// Number of listed casualties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no casualty is listed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the list, keeping its allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The listed lines, ascending.
    pub fn lines(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.entries.iter().map(|c| c.line)
    }

    /// The codeword `line` was classified multi-bit on, if it is listed
    /// and classified.
    pub(crate) fn classified(&self, line: u64) -> Option<ProtectedLine> {
        self.find(line).ok().and_then(|i| self.entries[i].raw)
    }

    /// Lists `line` as classified multi-bit on `raw`, replacing any
    /// earlier classification.
    pub fn insert(&mut self, line: u64, raw: ProtectedLine) {
        match self.find(line) {
            Ok(i) => self.entries[i].raw = Some(raw),
            Err(i) => self.entries.insert(
                i,
                Casualty {
                    line,
                    raw: Some(raw),
                },
            ),
        }
    }

    /// Lists `line` as a seed with no classification: the next
    /// [`SudokuCache::retain_multibit`] checks it. A line already listed
    /// keeps its entry.
    ///
    /// [`SudokuCache::retain_multibit`]: crate::SudokuCache::retain_multibit
    pub fn insert_seed(&mut self, line: u64) {
        if let Err(i) = self.find(line) {
            self.entries.insert(i, Casualty { line, raw: None });
        }
    }

    /// Keeps the entries `keep` approves, in order; `keep` may update an
    /// entry's classification.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&mut Casualty) -> bool) {
        self.entries.retain_mut(keep);
    }

    fn find(&self, line: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&line, |c| c.line)
    }
}

/// The lines one recovery reconstructed and their recovered values,
/// ascending by line. (For transient faults the store holds the same
/// value after write-back; for stuck cells that corrupt every write-back
/// this is the only place the recovered data exists.)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovered {
    entries: Vec<(u64, ProtectedLine)>,
}

impl Recovered {
    /// Number of recovered lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recovered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the set, keeping its allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The recovered `(line, value)` pairs, ascending by line.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &(u64, ProtectedLine)> + '_ {
        self.entries.iter()
    }

    /// The recovered lines, ascending.
    pub fn lines(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.entries.iter().map(|&(line, _)| line)
    }

    /// The recovered value of `line`, if it was reconstructed.
    pub fn get(&self, line: u64) -> Option<ProtectedLine> {
        self.find(line).ok().map(|i| self.entries[i].1)
    }

    /// Whether `line` was reconstructed.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_ok()
    }

    /// Records `value` as the recovered value of `line`.
    pub fn insert(&mut self, line: u64, value: ProtectedLine) {
        match self.find(line) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (line, value)),
        }
    }

    fn find(&self, line: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&line, |&(l, _)| l)
    }
}

/// One RAID-Group's members as seen by [`RepairEngine::repair_group`]:
/// where they live, how to read them, and how to write repairs back.
///
/// Implementations exist over a cache's own store (shard-local groups),
/// over members gathered from peer shards (cross-shard Hash-2 groups) and
/// over the ECC-2 trials' groups.
pub trait GroupView<L = ProtectedLine> {
    /// Number of members in the group.
    fn len(&self) -> usize;

    /// Whether the group has no members (never true for a real group).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends to `out`, ascending and without duplicates, every member
    /// index whose [`GroupView::state`] may be other than
    /// [`MemberState::Zero`]. The repair engine visits only these: an
    /// omitted member is the zero codeword, which is valid and
    /// XOR-neutral. The default lists every member.
    fn live_members(&self, out: &mut Vec<usize>) {
        out.extend(0..self.len());
    }

    /// Global line id of member `i`.
    fn line_id(&self, i: usize) -> u64;

    /// Pre-repair state of member `i`.
    fn state(&self, i: usize) -> MemberState<L>;

    /// Write-back of a pass-1 local repair: the store only.
    fn commit_repair(&mut self, i: usize, line: L);

    /// Write-back of a group reconstruction (RAID-4 or SDR): the store
    /// *and* the recovered-value map consulted by [`GroupView::state`].
    fn commit_reconstruction(&mut self, i: usize, line: L);

    /// The group's parity line under the dimension being repaired.
    fn parity(&self) -> L;
}

/// Reusable buffers for recovery: one group scan needs the live-member
/// list, the corrected view, the faulty list and SDR's mismatch
/// positions; a scrub needs its sorted hints, each pass's group list and
/// the fixpoint's casualties and recovered lines. Recovery visits many
/// groups per scrub and a campaign runs many scrubs — reusing the
/// allocations keeps the cost at the actual line reads.
#[derive(Debug, Default)]
pub struct GroupScratch<L = ProtectedLine> {
    live: Vec<usize>,
    /// `(member index, corrected line)` for every member that is non-zero
    /// or a multi-bit casualty, ascending by member index. The members
    /// left out are zero codewords, which no XOR over the group sees.
    view: Vec<(usize, L)>,
    /// Positions in `view` of the multi-bit casualties.
    faulty: Vec<usize>,
    /// SDR's parity-mismatch positions, ascending.
    mismatches: Vec<usize>,
    /// A scan's lines, sorted and deduplicated.
    pub(crate) lines: Vec<u64>,
    /// One pass's groups, sorted and deduplicated.
    pub(crate) groups: Vec<u64>,
    /// The working set of a cache's own recovery fixpoint.
    pub(crate) casualties: Casualties,
    pub(crate) recovered: Recovered,
}

/// The scheme knobs the repair ladder consults (paper §IV–§V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairParams {
    /// Whether Sequential Data Resurrection is enabled (schemes Y and Z).
    pub sdr_enabled: bool,
    /// SDR gives up beyond this many parity-mismatch positions.
    pub max_sdr_mismatches: u32,
    /// The pair-flip SDR extension (off in the paper's design).
    pub sdr_pair_trials: bool,
}

impl RepairParams {
    /// Extracts the repair knobs from a cache configuration.
    pub fn from_config(config: &SudokuConfig) -> Self {
        RepairParams {
            sdr_enabled: config.scheme.sdr_enabled(),
            max_sdr_mismatches: config.max_sdr_mismatches,
            sdr_pair_trials: config.sdr_pair_trials,
        }
    }
}

/// The group-repair ladder bound to one consumer's accounting: stats
/// counters, telemetry recorder, and scheme parameters.
///
/// Short-lived by design — borrow the stats/recorder, repair one or more
/// groups, drop.
pub struct RepairEngine<'a, L: LineCode = ProtectedLine> {
    /// The shared line codec.
    pub codec: &'static L::Codec,
    /// Scheme knobs.
    pub params: RepairParams,
    /// Counter set receiving the accounting for this repair work.
    pub stats: &'a mut CacheStats,
    /// Telemetry recorder receiving events and histograms.
    pub recorder: &'a mut Recorder,
}

impl<L: LineCode> RepairEngine<'_, L> {
    #[inline]
    fn emit(
        &mut self,
        line: u64,
        group: Option<(HashDim, u64)>,
        mechanism: Mechanism,
        outcome: Outcome,
        trials: u32,
    ) {
        emit_event(self.recorder, line, group, mechanism, outcome, trials);
    }

    /// Repairs one RAID-Group: read its live members into a corrected
    /// buffer (fixing singles, paper §III-C.2), then RAID-4 or SDR over the
    /// buffer. With `fast`, members whose raw copy is the all-zero line
    /// skip the CRC check (the zero codeword is valid by linearity).
    ///
    /// The work is proportional to [`GroupView::live_members`], not to the
    /// group size; the telemetry that models a hardware group scan still
    /// charges every member.
    pub fn repair_group<V: GroupView<L>>(
        &mut self,
        dim: HashDim,
        group: u64,
        src: &mut V,
        scratch: &mut GroupScratch<L>,
        report: &mut ScrubReport,
        fast: bool,
    ) {
        self.stats.group_scans += 1;
        scratch.live.clear();
        scratch.view.clear();
        scratch.faulty.clear();
        src.live_members(&mut scratch.live);
        // Pass 1: the corrected view. Previously reconstructed values take
        // precedence over the (possibly re-corrupted) stored copies.
        for &i in scratch.live.iter() {
            let line = match src.state(i) {
                MemberState::Recovered(r) => r,
                MemberState::Zero => continue,
                MemberState::Casualty(raw) => {
                    // Classified multi-bit on this very codeword; the
                    // hardware still pays the check.
                    self.stats.crc_checks += 1;
                    scratch.faulty.push(scratch.view.len());
                    raw
                }
                MemberState::Stored(raw) => {
                    if fast && raw.is_zero() {
                        // The all-zero codeword is valid by linearity.
                        continue;
                    }
                    self.stats.crc_checks += 1;
                    match L::scrub_check(self.codec, &raw) {
                        ReadCheck::Clean => raw,
                        ReadCheck::Corrected { repaired, kind } => {
                            record_repair(self.stats, self.recorder, src.line_id(i), kind);
                            report.count_repair(kind);
                            src.commit_repair(i, repaired);
                            repaired
                        }
                        ReadCheck::MultiBit => {
                            scratch.faulty.push(scratch.view.len());
                            raw
                        }
                    }
                }
            };
            // Zero members are XOR-neutral; casualties are never zero.
            if !line.is_zero() {
                scratch.view.push((i, line));
            }
        }
        if self.recorder.measures() {
            self.recorder
                .hists
                .group_scan_lines
                .record(src.len() as u64);
        }
        if !scratch.faulty.is_empty() {
            // Plain RAID-4 reconstructs exactly one erased member; two or
            // more casualties block it and escalate to SDR.
            if scratch.faulty.len() >= 2 && self.recorder.enabled() {
                for &fi in scratch.faulty.iter() {
                    let line = src.line_id(scratch.view[fi].0);
                    let trials = scratch.faulty.len() as u32;
                    self.emit(
                        line,
                        Some((dim, group)),
                        Mechanism::Raid4,
                        Outcome::Blocked,
                        trials,
                    );
                }
            }
            // Pass 2: Sequential Data Resurrection while >= 2 lines are
            // faulty.
            if scratch.faulty.len() >= 2 && self.params.sdr_enabled {
                self.run_sdr(dim, group, src, scratch, report);
            }
            // Pass 3: a single remaining casualty falls to plain RAID-4.
            if scratch.faulty.len() == 1 {
                let vi = scratch.faulty[0];
                if self.try_raid4(dim, group, vi, src, &scratch.view) {
                    report.raid4_repairs += 1;
                    if dim == HashDim::H2 {
                        report.hash2_repairs += 1;
                        self.stats.hash2_repairs += 1;
                    }
                }
            }
        }
    }

    /// RAID-4 reconstruction of the member at view position `vi` from the
    /// group parity and the corrected view of the remaining members; the
    /// candidate must re-validate (CRC + ECC).
    fn try_raid4<V: GroupView<L>>(
        &mut self,
        dim: HashDim,
        group: u64,
        vi: usize,
        src: &mut V,
        view: &[(usize, L)],
    ) -> bool {
        let mut candidate = src.parity();
        for (k, (_, line)) in view.iter().enumerate() {
            if k != vi {
                candidate.xor_assign(line);
            }
        }
        self.stats.crc_checks += 1;
        let member = view[vi].0;
        let line = src.line_id(member);
        if L::validate(self.codec, &candidate) {
            src.commit_reconstruction(member, candidate);
            self.stats.raid4_repairs += 1;
            if self.recorder.enabled() {
                self.emit(
                    line,
                    Some((dim, group)),
                    Mechanism::Raid4,
                    Outcome::Repaired,
                    0,
                );
            }
            if self.recorder.measures() {
                // §VII-B: read every group member, write the victim back.
                self.recorder
                    .hists
                    .line_recovery_ns
                    .record((src.len() as f64 * STT_READ_NS + STT_WRITE_NS) as u64);
            }
            true
        } else {
            if self.recorder.enabled() {
                self.emit(
                    line,
                    Some((dim, group)),
                    Mechanism::Raid4,
                    Outcome::Failed,
                    0,
                );
            }
            false
        }
    }

    /// Validates an SDR candidate: the flip must leave only faults the
    /// line's ECC corrects and pass the CRC re-check.
    fn sdr_accept(&self, candidate: &L) -> Option<L> {
        match L::scrub_check(self.codec, candidate) {
            ReadCheck::Clean => Some(*candidate),
            ReadCheck::Corrected { repaired, .. } => Some(repaired),
            ReadCheck::MultiBit => None,
        }
    }

    /// SDR (paper §IV): compute the parity-mismatch positions over the
    /// corrected view, then for each faulty line sequentially flip a
    /// mismatched bit, apply the line's ECC, and accept if the CRC
    /// validates. Repairing one line shrinks the mismatch set and may
    /// unlock the others; a final survivor goes to RAID-4 in the caller.
    fn run_sdr<V: GroupView<L>>(
        &mut self,
        dim: HashDim,
        group: u64,
        src: &mut V,
        scratch: &mut GroupScratch<L>,
        report: &mut ScrubReport,
    ) {
        loop {
            if scratch.faulty.len() < 2 {
                return;
            }
            let mut diff = src.parity();
            for (_, line) in scratch.view.iter() {
                diff.xor_assign(line);
            }
            let n_mismatches = diff.count_ones();
            if n_mismatches == 0 || n_mismatches > self.params.max_sdr_mismatches {
                // Fully overlapping faults (no mismatch) or too many
                // candidates (paper §IV-C caps SDR at six positions).
                if self.recorder.enabled() {
                    for &fi in scratch.faulty.iter() {
                        let line = src.line_id(scratch.view[fi].0);
                        self.emit(line, Some((dim, group)), Mechanism::Sdr, Outcome::Failed, 0);
                    }
                }
                return;
            }
            scratch.mismatches.clear();
            scratch.mismatches.extend(diff.iter_ones());
            let mismatches = &scratch.mismatches;
            let round_start_trials = self.stats.sdr_trials;
            let mut fixed_victim: Option<(usize, L)> = None;
            'victims: for &vi in scratch.faulty.iter() {
                let stored = scratch.view[vi].1;
                for &pos in mismatches {
                    self.stats.sdr_trials += 1;
                    self.stats.crc_checks += 1;
                    let mut candidate = stored;
                    candidate.flip_bit(pos);
                    if let Some(fixed) = self.sdr_accept(&candidate) {
                        fixed_victim = Some((vi, fixed));
                        break 'victims; // recompute mismatches
                    }
                }
                if self.params.sdr_pair_trials {
                    // Extension: a line with t+2 faults needs *two* known
                    // positions flipped before ECC-t can finish the job.
                    for a in 0..mismatches.len() {
                        for b in a + 1..mismatches.len() {
                            self.stats.sdr_trials += 1;
                            self.stats.crc_checks += 1;
                            let mut candidate = stored;
                            candidate.flip_bit(mismatches[a]);
                            candidate.flip_bit(mismatches[b]);
                            if let Some(fixed) = self.sdr_accept(&candidate) {
                                fixed_victim = Some((vi, fixed));
                                break 'victims;
                            }
                        }
                    }
                }
            }
            let Some((vi, fixed)) = fixed_victim else {
                if self.recorder.enabled() {
                    // A failed round spends the same trial count on every
                    // victim, so the per-line share is exact.
                    let per_line =
                        (self.stats.sdr_trials - round_start_trials) / scratch.faulty.len() as u64;
                    for &fi in scratch.faulty.iter() {
                        let line = src.line_id(scratch.view[fi].0);
                        self.emit(
                            line,
                            Some((dim, group)),
                            Mechanism::Sdr,
                            Outcome::Failed,
                            per_line as u32,
                        );
                    }
                }
                return;
            };
            let member = scratch.view[vi].0;
            src.commit_reconstruction(member, fixed);
            scratch.view[vi].1 = fixed;
            scratch.faulty.retain(|&f| f != vi);
            self.stats.sdr_repairs += 1;
            let round_trials = self.stats.sdr_trials - round_start_trials;
            if self.recorder.enabled() {
                let line = src.line_id(member);
                self.emit(
                    line,
                    Some((dim, group)),
                    Mechanism::Sdr,
                    Outcome::Repaired,
                    round_trials as u32,
                );
            }
            if self.recorder.measures() {
                self.recorder
                    .hists
                    .sdr_trials_per_resurrection
                    .record(round_trials);
                // §VII-B: the group scan, the flip-and-check trials (a few
                // cycles each), the victim's write-back.
                let ns = src.len() as f64 * STT_READ_NS
                    + round_trials as f64 * 4.0 * SYNDROME_CHECK_NS
                    + STT_WRITE_NS;
                self.recorder.hists.line_recovery_ns.record(ns as u64);
            }
            report.sdr_repairs += 1;
            if dim == HashDim::H2 {
                report.hash2_repairs += 1;
                self.stats.hash2_repairs += 1;
            }
        }
    }
}
