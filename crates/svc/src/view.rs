//! The lock-free **line view**: a seqlock-stamped mirror of every stored
//! line's `(data, crc, ecc)` triple, published by the shard stores on
//! every write *inside* the shard lock and read by clients without taking
//! any lock at all.
//!
//! This is what makes the demand hot path "a CRC check plus a few atomic
//! loads": a clean read loads the line's slot under the seqlock, verifies
//! the CRC-31 inline, and never touches a mutex. Anything else — a torn
//! snapshot, an odd epoch (writer in flight), a CRC mismatch (the line is
//! faulty and needs the ladder), or an invalidated slot (the line was
//! remapped to a spare) — is a **miss**, and the caller falls back to the
//! locked worker/repair path, which is bit-identical to the reference.
//!
//! # Writer protocol (under the owning shard's mutex)
//!
//! Writers are already serialized per line by the shard mutex, so the
//! seqlock needs no writer CAS: bump the epoch to odd (`Relaxed` store,
//! then a `Release` fence orders it before the payload), store the eight
//! data words + packed `crc|ecc` meta word (`Relaxed`), then store the
//! even epoch with `Release`. A reader validates with the mirrored
//! acquire-fence protocol; equal even epochs on both sides of the payload
//! loads guarantee an untorn snapshot.
//!
//! # Accounting
//!
//! The reference cache counts `reads` on every read and `crc_checks` on
//! every non-zero read. The view replicates that exactly — per-shard
//! atomic counters folded into [`CacheStats`] by the sharded engine — so
//! aggregate stats stay bit-identical whether a read was served lock-free
//! or under the lock. An all-zero slot (data, crc *and* ecc all zero) is
//! the golden never-written line: served as zero with **no** CRC check,
//! exactly like the reference's `is_zero` fast path.
//!
//! [`CacheStats`]: sudoku_core::CacheStats

use std::sync::atomic::{fence, AtomicU64, Ordering};
use sudoku_codes::{LineCodec, LineData, ProtectedLine, LINE_WORDS};

/// Epoch sentinel: the line was remapped to a spare slot (or otherwise
/// taken out of the view) — permanently invalid, reads always miss.
const SPARED: u64 = u64::MAX;

/// Bounded seqlock retries before giving up and taking the locked path.
const MAX_RETRIES: u32 = 8;

/// Views are only built for geometries up to this many lines (the slot
/// array is ~80 B/line; 2^20 lines ≈ 84 MB). Larger geometries simply run
/// without the lock-free path.
pub(crate) const MAX_VIEW_LINES: u64 = 1 << 20;

/// One line's published state: seqlock epoch, the eight data words, a
/// packed meta word (`crc` in bits 0..32, `ecc` in bits 32..48), and the
/// count of accepted-but-not-yet-applied writes (see [`LineView::begin_write`]).
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; LINE_WORDS],
    meta: AtomicU64,
    /// Writes accepted into the shard queue but not yet applied (which
    /// publishes them). While nonzero, lock-free reads miss: they fall to
    /// the shard queue, whose FIFO order puts them *behind* the write —
    /// that is what makes fire-and-forget writes read-your-write
    /// consistent.
    pending: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
            meta: AtomicU64::new(0),
            pending: AtomicU64::new(0),
        }
    }
}

/// Per-shard read accounting, cache-line padded so shards don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct ShardCounters {
    reads: AtomicU64,
    crc_checks: AtomicU64,
}

/// Outcome of a lock-free view read.
pub(crate) enum ViewRead {
    /// Non-zero line whose CRC verified inline: serve it, no lock.
    Clean(LineData),
    /// Golden all-zero line (never written / zero slot): serve zero with
    /// no CRC check, mirroring the reference's `is_zero` fast path.
    Zero,
    /// Torn snapshot, writer in flight, CRC mismatch, or invalidated slot:
    /// fall back to the locked path (which does all the accounting).
    Miss,
}

/// The seqlock-stamped mirror of the whole line address space.
pub(crate) struct LineView {
    slots: Vec<Slot>,
    counters: Vec<ShardCounters>,
    codec: &'static LineCodec,
}

impl LineView {
    /// Builds a view for `n_lines` lines, or `None` when the geometry is
    /// too large to mirror (the service then runs with locked reads only).
    pub(crate) fn new(n_lines: u64, n_shards: usize) -> Option<LineView> {
        if n_lines > MAX_VIEW_LINES {
            return None;
        }
        Some(LineView {
            slots: (0..n_lines).map(|_| Slot::new()).collect(),
            counters: (0..n_shards).map(|_| ShardCounters::default()).collect(),
            codec: LineCodec::shared(),
        })
    }

    /// Lock-free read of `line`, charging accounting to `shard`. Returns
    /// the outcome plus the number of seqlock retries taken.
    pub(crate) fn try_read(&self, line: u64, shard: usize) -> (ViewRead, u32) {
        let slot = &self.slots[line as usize];
        if slot.pending.load(Ordering::Acquire) != 0 {
            // A write for this line is queued but not applied yet: the
            // locked path's FIFO queue orders this read after it.
            return (ViewRead::Miss, 0);
        }
        let mut retries = 0u32;
        loop {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == SPARED {
                return (ViewRead::Miss, retries);
            }
            if s1 & 1 == 1 {
                // Writer in flight.
                if retries >= MAX_RETRIES {
                    return (ViewRead::Miss, retries);
                }
                retries += 1;
                std::hint::spin_loop();
                continue;
            }
            let mut words = [0u64; LINE_WORDS];
            for (w, src) in words.iter_mut().zip(slot.words.iter()) {
                *w = src.load(Ordering::Relaxed);
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            // Pairs with the writer's release fence: if any payload load
            // above observed a post-fence store, this fence makes the
            // writer's odd-epoch store visible to the re-load below.
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                if retries >= MAX_RETRIES {
                    return (ViewRead::Miss, retries);
                }
                retries += 1;
                std::hint::spin_loop();
                continue;
            }
            // Untorn snapshot.
            let counters = &self.counters[shard];
            if meta == 0 && words.iter().all(|&w| w == 0) {
                counters.reads.fetch_add(1, Ordering::Relaxed);
                return (ViewRead::Zero, retries);
            }
            let candidate = ProtectedLine {
                data: LineData::from_words(words),
                crc: (meta & 0xFFFF_FFFF) as u32,
                ecc: (meta >> 32) as u16,
            };
            if self.codec.crc_ok(&candidate) {
                counters.reads.fetch_add(1, Ordering::Relaxed);
                counters.crc_checks.fetch_add(1, Ordering::Relaxed);
                return (ViewRead::Clean(candidate.data), retries);
            }
            // Faulty line: the locked ladder owns it (and its accounting).
            return (ViewRead::Miss, retries);
        }
    }

    /// Publishes `stored` as `line`'s current state. Must be called while
    /// holding the owning shard's mutex (writers are serialized by it —
    /// the seqlock has no writer-side CAS). A no-op on invalidated slots:
    /// a spared line never re-enters the view.
    pub(crate) fn publish(&self, line: u64, stored: &ProtectedLine) {
        let slot = &self.slots[line as usize];
        let s = slot.seq.load(Ordering::Relaxed);
        if s == SPARED {
            return;
        }
        slot.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (dst, &w) in slot.words.iter().zip(stored.data.words().iter()) {
            dst.store(w, Ordering::Relaxed);
        }
        slot.meta.store(
            (stored.crc as u64) | ((stored.ecc as u64) << 32),
            Ordering::Relaxed,
        );
        slot.seq.store(s + 2, Ordering::Release);
    }

    /// Permanently takes `line` out of the view (it was remapped to a
    /// spare slot): reads miss forever, later publishes are no-ops.
    pub(crate) fn invalidate(&self, line: u64) {
        self.slots[line as usize]
            .seq
            .store(SPARED, Ordering::Release);
    }

    /// Marks a write for `line` as accepted (queued, not yet applied):
    /// lock-free reads of the line miss until [`LineView::retire_write`]
    /// balances this call. Called by the *client* thread at enqueue — the
    /// increment is in its program order, so its own subsequent reads are
    /// guaranteed to take the queued path behind the write.
    pub(crate) fn begin_write(&self, line: u64) {
        self.slots[line as usize]
            .pending
            .fetch_add(1, Ordering::Release);
    }

    /// Balances one [`LineView::begin_write`]: the write was applied and
    /// published (or consumed by a teardown path — either way it will
    /// never be applied later, so the view is authoritative again once
    /// the count drains).
    pub(crate) fn retire_write(&self, line: u64) {
        self.slots[line as usize]
            .pending
            .fetch_sub(1, Ordering::Release);
    }

    /// Lock-free reads served for `shard` (each also counted one read in
    /// the reference accounting).
    pub(crate) fn reads(&self, shard: usize) -> u64 {
        self.counters[shard].reads.load(Ordering::Relaxed)
    }

    /// Inline CRC checks performed for `shard`'s lock-free reads.
    pub(crate) fn crc_checks(&self, shard: usize) -> u64 {
        self.counters[shard].crc_checks.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for LineView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineView")
            .field("lines", &self.slots.len())
            .field("shards", &self.counters.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slot inspection for the write-through tests of the sharded engine.
    impl LineView {
        /// The line `line`'s slot holds, or `None` once it is invalidated.
        /// Only meaningful while no writer is in flight (tests hold the
        /// owning shard's mutex).
        pub(crate) fn slot_line(&self, line: u64) -> Option<ProtectedLine> {
            let slot = &self.slots[line as usize];
            if slot.seq.load(Ordering::Acquire) == SPARED {
                return None;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            Some(ProtectedLine {
                data: LineData::from_words(std::array::from_fn(|i| {
                    slot.words[i].load(Ordering::Relaxed)
                })),
                crc: (meta & 0xFFFF_FFFF) as u32,
                ecc: (meta >> 32) as u16,
            })
        }

        /// The seqlock epoch of `line`'s slot: each publish advances it by 2.
        pub(crate) fn epoch(&self, line: u64) -> u64 {
            self.slots[line as usize].seq.load(Ordering::Acquire)
        }

        /// Whether a write to `line` is accepted but not yet retired.
        pub(crate) fn has_pending(&self, line: u64) -> bool {
            self.slots[line as usize].pending.load(Ordering::Acquire) != 0
        }
    }

    fn encoded(bits: &[usize]) -> ProtectedLine {
        let mut d = LineData::zero();
        for &b in bits {
            d.set_bit(b, true);
        }
        LineCodec::shared().encode(&d)
    }

    #[test]
    fn zero_slot_serves_zero_without_crc_check() {
        let view = LineView::new(16, 2).unwrap();
        let (out, retries) = view.try_read(3, 1);
        assert!(matches!(out, ViewRead::Zero));
        assert_eq!(retries, 0);
        assert_eq!(view.reads(1), 1);
        assert_eq!(view.crc_checks(1), 0);
    }

    #[test]
    fn published_line_reads_back_clean_with_crc_check() {
        let view = LineView::new(16, 2).unwrap();
        let stored = encoded(&[5, 100]);
        view.publish(7, &stored);
        match view.try_read(7, 0) {
            (ViewRead::Clean(data), _) => assert_eq!(data, stored.data),
            _ => panic!("expected clean hit"),
        }
        assert_eq!(view.reads(0), 1);
        assert_eq!(view.crc_checks(0), 1);
    }

    #[test]
    fn corrupt_line_misses_without_accounting() {
        let view = LineView::new(16, 1).unwrap();
        let mut stored = encoded(&[9]);
        // Flip a data bit without updating the CRC: the inline check fails.
        stored.data.set_bit(10, true);
        view.publish(2, &stored);
        assert!(matches!(view.try_read(2, 0), (ViewRead::Miss, _)));
        assert_eq!(view.reads(0), 0);
        assert_eq!(view.crc_checks(0), 0);
    }

    #[test]
    fn invalidated_slot_misses_forever() {
        let view = LineView::new(16, 1).unwrap();
        view.publish(4, &encoded(&[1]));
        view.invalidate(4);
        assert!(matches!(view.try_read(4, 0), (ViewRead::Miss, _)));
        // Publishing after invalidation is a no-op: still a miss.
        view.publish(4, &encoded(&[2]));
        assert!(matches!(view.try_read(4, 0), (ViewRead::Miss, _)));
    }

    #[test]
    fn pending_write_blocks_lock_free_reads_until_retired() {
        let view = LineView::new(16, 1).unwrap();
        let stored = encoded(&[3, 200]);
        view.publish(6, &stored);
        view.begin_write(6);
        view.begin_write(6);
        assert!(matches!(view.try_read(6, 0), (ViewRead::Miss, _)));
        view.retire_write(6);
        // One write still in flight: still a miss.
        assert!(matches!(view.try_read(6, 0), (ViewRead::Miss, _)));
        view.retire_write(6);
        assert!(matches!(view.try_read(6, 0), (ViewRead::Clean(_), _)));
    }

    #[test]
    fn oversized_geometry_gets_no_view() {
        assert!(LineView::new(MAX_VIEW_LINES + 1, 4).is_none());
        assert!(LineView::new(MAX_VIEW_LINES, 4).is_some());
    }

    #[test]
    fn concurrent_publish_never_yields_torn_clean_read() {
        // A writer flips line 0 between two valid encodings while readers
        // hammer it: every Clean hit must be one of the two golden values
        // (the CRC would catch a mash of the two, so a torn-but-accepted
        // snapshot would surface as a wrong-data panic here).
        let view = std::sync::Arc::new(LineView::new(4, 1).unwrap());
        let a = encoded(&[1, 64, 300]);
        let b = encoded(&[2, 65, 301]);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let view = std::sync::Arc::clone(&view);
                let stop = std::sync::Arc::clone(&stop);
                let (a, b) = (a, b);
                s.spawn(move || {
                    for i in 0..200_000u64 {
                        view.publish(0, if i & 1 == 0 { &a } else { &b });
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            for _ in 0..3 {
                let view = std::sync::Arc::clone(&view);
                let stop = std::sync::Arc::clone(&stop);
                let (a, b) = (a, b);
                s.spawn(move || {
                    let mut hits = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if let (ViewRead::Clean(data), _) = view.try_read(0, 0) {
                            assert!(data == a.data || data == b.data, "torn read escaped");
                            hits += 1;
                        }
                    }
                    hits
                });
            }
        });
    }
}
