//! The **line view**: one seqlock-stamped slot per line holding its
//! `(data, crc, ecc)` triple. The slots are the service's only copy of the
//! array: each shard's store reads and writes its lines here under the
//! shard mutex, and clients and the scrub daemon read them without taking
//! any lock at all.
//!
//! This is what makes the demand hot path "a few atomic loads": a clean
//! read loads the line's slot under the seqlock and never touches a
//! mutex. Each slot also carries a **codeword mark**, published in the
//! same seqlock epoch as the line: the shard store sets it on every
//! `set_line` (the cache stores only codewords there — encoded writes,
//! corrected lines and validated reconstructions) and clears it on every
//! `flip_bit` (fault injection and stuck-cell reasserts). A marked
//! snapshot is served without recomputing its CRC-31; an unmarked one is
//! verified with the CRC inline, exactly as the reference read does.
//! Anything else — a torn snapshot, an odd epoch (writer in flight), a
//! CRC mismatch (the line is faulty and needs the ladder), or a spared
//! line (the line was remapped to a spare) — is a **miss**, and the
//! caller falls back to the locked repair path, which is bit-identical to
//! the reference.
//!
//! A demand write trusts the mark too. The store hands the cache a line's
//! old value together with its mark ([`LineView::load`], under the shard
//! mutex), and a marked old value skips the CRC+ECC check the write would
//! run on it before folding it into the parities.
//!
//! # Writer protocol (under the owning shard's mutex)
//!
//! Writers are already serialized per line by the shard mutex, so the
//! seqlock needs no writer CAS: bump the epoch to odd (`Relaxed` store,
//! then a `Release` fence orders it before the payload), store the eight
//! data words + packed `crc|ecc|mark` meta word (`Relaxed`), then store the
//! even epoch with `Release`. A reader validates with the mirrored
//! acquire-fence protocol; equal even epochs on both sides of the payload
//! loads guarantee an untorn snapshot. The mark lives in the meta word,
//! so an untorn snapshot's mark belongs to its own words: a mark can
//! never vouch for a line it was not published with. The store's own
//! reads hold the mutex, so they see the last write without the seqlock.
//!
//! # Accounting
//!
//! The reference cache counts `reads` on every read and `crc_checks` on
//! every non-zero read. The view replicates that exactly — per-shard
//! striped counters folded into [`CacheStats`] by [`LineView::fold_stats`]
//! — so aggregate stats stay bit-identical whether a read was served
//! lock-free or under the lock. An all-zero slot (data, crc *and* ecc all
//! zero) is the golden never-written line: served as zero with **no** CRC
//! check, exactly like the reference's `is_zero` fast path. A marked
//! non-zero line, read or a write's old value, still counts its
//! `crc_checks`: the hardware pays the check even where the service knows
//! its answer, so counts do not depend on the mark. The daemon's lock-free sweep ([`LineView::sweep`])
//! counts `lines_scrubbed` and `crc_checks` the same way the locked
//! `scrub_scan` would have, in counters of their own, and likewise counts
//! a marked line as checked clean without running the check.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use sudoku_codes::{LineCodec, LineData, ProtectedLine, LINE_WORDS};
use sudoku_core::CacheStats;
use sudoku_obs::Counter;

/// Meta-word bit marking a slot whose publisher proved its line a full
/// CRC+ECC codeword (see [`LineView::publish`]). Published in the same
/// seqlock epoch as the line, so a snapshot's mark always belongs to its
/// words.
const CODEWORD: u64 = 1 << 48;

/// Bounded seqlock retries before giving up and taking the locked path.
const MAX_RETRIES: u32 = 8;

/// One line's state: seqlock epoch, the eight data words, a packed meta
/// word (`crc` in bits 0..32, `ecc` in bits 32..48, the [`CODEWORD`] mark
/// in bit 48), and the spared mark.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; LINE_WORDS],
    meta: AtomicU64,
    /// Non-zero once the line is remapped to a spare slot: permanently out
    /// of the lock-free paths. The slot keeps storing the (faulty) array
    /// copy. A whole word, not an `AtomicBool`: with no padding byte, a
    /// fresh slot is all zero words, and a bool made building a 16 Ki-line
    /// view about a fifth slower.
    spared: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
            meta: AtomicU64::new(0),
            spared: AtomicU64::new(0),
        }
    }

    /// The slot's words as a line, and whether it is marked a codeword.
    /// Untorn only while no writer is in flight: under the owning shard's
    /// mutex, or between matching epochs.
    fn load(&self) -> (ProtectedLine, bool) {
        let meta = self.meta.load(Ordering::Relaxed);
        let line = ProtectedLine {
            data: LineData::from_words(std::array::from_fn(|i| {
                self.words[i].load(Ordering::Relaxed)
            })),
            crc: (meta & 0xFFFF_FFFF) as u32,
            ecc: (meta >> 32) as u16,
        };
        (line, meta & CODEWORD != 0)
    }

    /// An untorn seqlock snapshot with its codeword mark, or `None` when a
    /// writer stayed in flight (or kept tearing the snapshot) for
    /// [`MAX_RETRIES`] tries. The second element counts the retries taken.
    fn snapshot(&self) -> (Option<(ProtectedLine, bool)>, u32) {
        let mut retries = 0u32;
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let line = self.load();
                // Pairs with the writer's release fence: if any payload
                // load above observed a post-fence store, this fence makes
                // the writer's odd-epoch store visible to the re-load below.
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return (Some(line), retries);
                }
            }
            if retries >= MAX_RETRIES {
                return (None, retries);
            }
            retries += 1;
            std::hint::spin_loop();
        }
    }
}

/// Per-shard lock-free read accounting. Every reader thread bumps its own
/// stripe of each counter, so concurrent readers share no cache line.
#[derive(Default)]
struct ReadCounters {
    reads: Counter,
    crc_checks: Counter,
}

/// Per-shard lock-free sweep accounting: the lines the daemon found clean
/// off the view, which the locked scan would have counted.
#[repr(align(64))]
#[derive(Default)]
struct SweepCounters {
    lines_scrubbed: AtomicU64,
    crc_checks: AtomicU64,
}

/// Outcome of a lock-free view read.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ViewRead {
    /// Non-zero line whose CRC verified inline, or that its shard
    /// published as a codeword: serve it, no lock.
    Clean(LineData),
    /// Golden all-zero line (never written / zero slot): serve zero with
    /// no CRC check, mirroring the reference's `is_zero` fast path.
    Zero,
    /// Torn snapshot, writer in flight, CRC mismatch or spared line: fall
    /// back to the locked path (which does all the
    /// accounting).
    Miss,
}

/// The seqlock-stamped slots of the whole line address space.
pub(crate) struct LineView {
    slots: Vec<Slot>,
    reads: Vec<ReadCounters>,
    sweeps: Vec<SweepCounters>,
    codec: &'static LineCodec,
}

impl LineView {
    /// An all-zero view of `n_lines` lines with accounting for `n_shards`.
    pub(crate) fn new(n_lines: u64, n_shards: usize) -> LineView {
        LineView {
            slots: (0..n_lines).map(|_| Slot::new()).collect(),
            reads: (0..n_shards).map(|_| ReadCounters::default()).collect(),
            sweeps: (0..n_shards).map(|_| SweepCounters::default()).collect(),
            codec: LineCodec::shared(),
        }
    }

    /// Lock-free read of `line`, charging accounting to `shard`. Returns
    /// the outcome plus the number of seqlock retries taken. A snapshot
    /// marked a codeword is clean without recomputing its CRC: the mark
    /// travels only with a line its publisher proved a full codeword, and
    /// the read still counts the check the hardware pays.
    pub(crate) fn try_read(&self, line: u64, shard: usize) -> (ViewRead, u32) {
        let slot = &self.slots[line as usize];
        if slot.spared.load(Ordering::Acquire) != 0 {
            return (ViewRead::Miss, 0);
        }
        let (snapshot, retries) = slot.snapshot();
        let Some((candidate, codeword)) = snapshot else {
            return (ViewRead::Miss, retries);
        };
        let counters = &self.reads[shard];
        if candidate.is_zero() {
            counters.reads.inc();
            return (ViewRead::Zero, retries);
        }
        if codeword || self.codec.crc_ok(&candidate) {
            counters.reads.inc();
            counters.crc_checks.inc();
            return (ViewRead::Clean(candidate.data), retries);
        }
        // Faulty line: the locked ladder owns it (and its accounting).
        (ViewRead::Miss, retries)
    }

    /// The daemon's lock-free pre-check of `lines` (all owned by `shard`),
    /// counted as the locked scan would count them: a golden-zero slot is
    /// one `lines_scrubbed`, an untorn snapshot marked a codeword or
    /// passing the full CRC+ECC-1 check ([`LineCodec::validate`]) one
    /// `lines_scrubbed` plus one `crc_checks`. Spared lines are skipped
    /// uncounted. Every other line — dirty, or torn by a writer in flight
    /// — is pushed to `locked` for the locked scan, which counts it
    /// instead, so each line is counted exactly once. Returns the number
    /// of lines counted here.
    pub(crate) fn sweep(
        &self,
        shard: usize,
        lines: impl IntoIterator<Item = u64>,
        locked: &mut Vec<u64>,
    ) -> u64 {
        let (mut clean, mut zero) = (0u64, 0u64);
        for line in lines {
            if self.is_spared(line) {
                continue;
            }
            match self.slots[line as usize].snapshot().0 {
                Some((l, _)) if l.is_zero() => zero += 1,
                Some((l, codeword)) if codeword || self.codec.validate(&l) => clean += 1,
                _ => locked.push(line),
            }
        }
        let counters = &self.sweeps[shard];
        counters
            .lines_scrubbed
            .fetch_add(clean + zero, Ordering::Relaxed);
        counters.crc_checks.fetch_add(clean, Ordering::Relaxed);
        clean + zero
    }

    /// The line `line`'s slot holds, and whether it is marked a codeword.
    /// The caller holds the owning shard's mutex, which every writer of
    /// the slot holds too.
    pub(crate) fn load(&self, line: u64) -> (ProtectedLine, bool) {
        self.slots[line as usize].load()
    }

    /// Stores `stored` as `line`'s current state, marked a codeword when
    /// `codeword`. Must be called while holding the owning shard's mutex
    /// (writers are serialized by it — the seqlock has no writer-side
    /// CAS). Pass `codeword` only for a line the caller proved a full
    /// CRC+ECC codeword: lock-free reads and sweeps then trust it without
    /// a check. A spared line's slot keeps storing: its array copy still
    /// exists, only no lock-free path reads it.
    pub(crate) fn publish(&self, line: u64, stored: &ProtectedLine, codeword: bool) {
        let slot = &self.slots[line as usize];
        let s = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (dst, &w) in slot.words.iter().zip(stored.data.words().iter()) {
            dst.store(w, Ordering::Relaxed);
        }
        let mark = if codeword { CODEWORD } else { 0 };
        slot.meta.store(
            (stored.crc as u64) | ((stored.ecc as u64) << 32) | mark,
            Ordering::Relaxed,
        );
        slot.seq.store(s + 2, Ordering::Release);
    }

    /// Permanently takes `line` out of the lock-free paths (it was
    /// remapped to a spare slot): reads miss and sweeps skip it forever.
    pub(crate) fn mark_spared(&self, line: u64) {
        self.slots[line as usize].spared.store(1, Ordering::Release);
    }

    /// Whether `line` was marked spared.
    pub(crate) fn is_spared(&self, line: u64) -> bool {
        self.slots[line as usize].spared.load(Ordering::Acquire) != 0
    }

    /// Folds `shard`'s lock-free accounting into `stats`: every lock-free
    /// read hit was one `reads` (plus one `crc_checks` for a non-zero
    /// line), and every lock-free swept line one `lines_scrubbed` (plus
    /// one `crc_checks` for a non-zero line), that the reference would
    /// have counted under the lock — so aggregates stay bit-identical to
    /// the reference path.
    pub(crate) fn fold_stats(&self, shard: usize, stats: &mut CacheStats) {
        let (reads, sweeps) = (&self.reads[shard], &self.sweeps[shard]);
        stats.reads += reads.reads.get();
        stats.lines_scrubbed += sweeps.lines_scrubbed.load(Ordering::Relaxed);
        stats.crc_checks += reads.crc_checks.get() + sweeps.crc_checks.load(Ordering::Relaxed);
    }
}

impl std::fmt::Debug for LineView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineView")
            .field("lines", &self.slots.len())
            .field("shards", &self.reads.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slot inspection for the write-through tests of the sharded engine.
    impl LineView {
        /// The line `line`'s slot holds, or `None` once it is spared.
        /// Only meaningful while no writer is in flight (tests hold the
        /// owning shard's mutex).
        pub(crate) fn slot_line(&self, line: u64) -> Option<ProtectedLine> {
            (!self.is_spared(line)).then(|| self.load(line).0)
        }

        /// The seqlock epoch of `line`'s slot: each publish advances it by 2.
        pub(crate) fn epoch(&self, line: u64) -> u64 {
            self.slots[line as usize].seq.load(Ordering::Acquire)
        }

        /// Overwrites the seqlock epoch of `line`'s slot, as a writer
        /// stuck mid-publish would leave it (an odd value).
        pub(crate) fn force_epoch(&self, line: u64, seq: u64) {
            self.slots[line as usize].seq.store(seq, Ordering::Release);
        }

        /// Whether `line`'s slot is marked a codeword. Only meaningful
        /// while no writer is in flight.
        pub(crate) fn is_marked(&self, line: u64) -> bool {
            self.slots[line as usize].load().1
        }
    }

    fn encoded(bits: &[usize]) -> ProtectedLine {
        let mut d = LineData::zero();
        for &b in bits {
            d.set_bit(b, true);
        }
        LineCodec::shared().encode(&d)
    }

    fn folded(view: &LineView, shard: usize) -> CacheStats {
        let mut stats = CacheStats::default();
        view.fold_stats(shard, &mut stats);
        stats
    }

    #[test]
    fn zero_slot_serves_zero_without_crc_check() {
        let view = LineView::new(16, 2);
        let (out, retries) = view.try_read(3, 1);
        assert!(matches!(out, ViewRead::Zero));
        assert_eq!(retries, 0);
        assert_eq!(folded(&view, 1).reads, 1);
        assert_eq!(folded(&view, 1).crc_checks, 0);
    }

    #[test]
    fn published_line_reads_back_clean_with_crc_check() {
        let view = LineView::new(16, 2);
        let stored = encoded(&[5, 100]);
        view.publish(7, &stored, false);
        match view.try_read(7, 0) {
            (ViewRead::Clean(data), _) => assert_eq!(data, stored.data),
            _ => panic!("expected clean hit"),
        }
        assert_eq!(folded(&view, 0).reads, 1);
        assert_eq!(folded(&view, 0).crc_checks, 1);
    }

    #[test]
    fn marked_line_reads_clean_without_a_crc_and_counts_the_check() {
        let view = LineView::new(16, 2);
        // A line whose CRC no longer matches, published marked against
        // the contract: the read serves it, so it never ran the CRC.
        let mut forged = encoded(&[5, 100]);
        forged.data.set_bit(6, true);
        view.publish(7, &forged, true);
        assert!(view.is_marked(7));
        assert_eq!(view.try_read(7, 0).0, ViewRead::Clean(forged.data));
        // The same line unmarked takes the CRC and misses.
        view.publish(7, &forged, false);
        assert_eq!(view.try_read(7, 0).0, ViewRead::Miss);
        let stored = encoded(&[5, 100]);
        view.publish(7, &stored, true);
        assert_eq!(view.try_read(7, 0).0, ViewRead::Clean(stored.data));
        // Each hit counted one read and one CRC check, as an unmarked
        // hit does; the miss counted nothing.
        assert_eq!(folded(&view, 0).reads, 2);
        assert_eq!(folded(&view, 0).crc_checks, 2);
        // A zero line published marked is still golden zero: no check.
        view.publish(8, &ProtectedLine::zero(), true);
        assert_eq!(view.try_read(8, 1).0, ViewRead::Zero);
        assert_eq!(
            (folded(&view, 1).reads, folded(&view, 1).crc_checks),
            (1, 0)
        );
    }

    #[test]
    fn corrupt_line_misses_without_accounting() {
        let view = LineView::new(16, 1);
        let mut stored = encoded(&[9]);
        // Flip a data bit without updating the CRC: the inline check fails.
        stored.data.set_bit(10, true);
        view.publish(2, &stored, false);
        assert!(matches!(view.try_read(2, 0), (ViewRead::Miss, _)));
        assert_eq!(folded(&view, 0), CacheStats::default());
    }

    #[test]
    fn spared_slot_stores_but_misses_forever() {
        let view = LineView::new(16, 1);
        view.publish(4, &encoded(&[1]), true);
        view.mark_spared(4);
        assert!(matches!(view.try_read(4, 0), (ViewRead::Miss, _)));
        // The array copy keeps being stored; readers keep missing.
        view.publish(4, &encoded(&[2]), true);
        assert_eq!(view.load(4).0, encoded(&[2]));
        assert!(matches!(view.try_read(4, 0), (ViewRead::Miss, _)));
        assert_eq!(view.slot_line(4), None);
    }

    #[test]
    fn sweep_counts_clean_lines_and_defers_the_rest() {
        let view = LineView::new(16, 2);
        view.publish(1, &encoded(&[7]), false);
        let mut ecc_field = encoded(&[8]);
        ecc_field.ecc ^= 1;
        view.publish(2, &ecc_field, false);
        let mut dirty = encoded(&[9]);
        dirty.data.set_bit(10, true);
        view.publish(3, &dirty, false);
        view.publish(4, &encoded(&[11]), false);
        view.mark_spared(4);
        view.publish(5, &encoded(&[12]), false);
        view.force_epoch(5, view.epoch(5) + 1);
        view.publish(7, &encoded(&[13]), true);
        // Marked against the contract: the sweep trusts the mark and
        // never runs the check that would defer it.
        view.publish(8, &ecc_field, true);
        let mut locked = Vec::new();
        // 0 and 6 are golden zero,
        // 1 is clean, 2 fails only its ECC field, 3 its CRC, 4 is spared,
        // 5 has a writer stuck in flight, and 7 and 8 are marked.
        assert_eq!(view.sweep(1, 0..9, &mut locked), 5);
        assert_eq!(locked, vec![2, 3, 5]);
        let stats = folded(&view, 1);
        assert_eq!((stats.lines_scrubbed, stats.crc_checks), (5, 3));
        assert_eq!(folded(&view, 0), CacheStats::default());
    }

    #[test]
    fn concurrent_publish_never_yields_torn_clean_read() {
        // A writer flips line 0 between two valid encodings while readers
        // hammer it: every Clean hit must be one of the two golden values.
        // The writer marks every other pair of publishes, so both values
        // are read marked and unmarked. Unmarked, the CRC would catch a
        // mash of the two; marked, only the seqlock stands between a torn
        // snapshot and a wrong-data read here. The run lasts until the
        // readers have summed `MIN_RETRIES` seqlock retries, under a time
        // cap. Only the retries of reads that went on to serve a snapshot
        // count: such a read overlapped a publish that then finished, so
        // the writer ran beside it. A writer parked mid-publish makes every
        // read spend all its retries and miss, and those prove nothing.
        // The writer pauses between publishes so that a read that meets
        // one can finish before the next.
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        const MIN_RETRIES: u64 = 100_000;
        const CAP: Duration = Duration::from_secs(10);
        let view = LineView::new(4, 1);
        // The two values differ in every word, so any mix of words from
        // two publishes is neither.
        let a = encoded(&(0..8).map(|w| 64 * w + 1).collect::<Vec<_>>());
        let b = encoded(&(0..8).map(|w| 64 * w + 2).collect::<Vec<_>>());
        let (stop, torn) = (AtomicBool::new(false), AtomicBool::new(false));
        let retries = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    view.publish(0, if i & 1 == 0 { &a } else { &b }, i & 2 != 0);
                    i += 1;
                    for _ in 0..64 {
                        std::hint::spin_loop();
                    }
                }
            });
            for _ in 0..3 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let (read, r) = view.try_read(0, 0);
                        let ViewRead::Clean(data) = read else {
                            continue;
                        };
                        if data != a.data && data != b.data {
                            torn.store(true, Ordering::Relaxed);
                            stop.store(true, Ordering::Relaxed);
                        }
                        if r > 0 {
                            retries.fetch_add(u64::from(r), Ordering::Relaxed);
                        }
                    }
                });
            }
            let start = Instant::now();
            while retries.load(Ordering::Relaxed) < MIN_RETRIES
                && start.elapsed() < CAP
                && !stop.load(Ordering::Relaxed)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(!torn.load(Ordering::Relaxed), "torn read escaped");
    }
}
