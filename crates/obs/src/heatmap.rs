//! Spatial reliability heatmaps: per-(shard × line-region) failure
//! attribution and an online spatial-correlation detector.
//!
//! Every counter the live plane exposes today ([`crate::Counter`],
//! [`crate::AtomicHist`]) is global or per-shard — a whole-row failure
//! cluster that would defeat a Hash-1 parity group is invisible until it
//! becomes a DUE. This module adds the *where*: a fixed-geometry 2D grid
//! of padded atomic cells ([`HeatGrid`]), one grid per failure-path signal
//! ([`Heatmaps`]), and a windowed detector ([`CorrelationDetector`]) that
//! compares the observed per-cell event counts against the i.i.d.
//! expectation and flags clustering while it is still a repair storm
//! rather than a data-loss event.
//!
//! Recording follows the [`AtomicHist`] philosophy: wait-free relaxed
//! `fetch_add` per event on the writer side, and snapshots that read each
//! monotone cell independently — a snapshot is coherent in the same sense
//! an `AtomicHist` snapshot is (every cell is a true count that happened,
//! no cell is torn, totals equal the sum of what was recorded).
//!
//! The repair-tier grids are fed by a tap on [`crate::Recorder`]: every
//! repair site in the workspace already emits a [`RecoveryEvent`] with the
//! exact line, mechanism, and outcome, so [`Heatmaps::record_event`]
//! charges cells with the *same* cardinality as the `CacheStats` counters
//! (one event per counted repair, extended to space). The service's
//! sharded cache builds one bundle with itself and taps every recorder it
//! owns; the paths that emit no event (injection, stuck-cell physics,
//! sparing strikes, dead-shard DUEs) charge the grids directly, and for
//! stuck reasserts and strikes the grids are the only count there is.
//!
//! [`AtomicHist`]: crate::AtomicHist

use crate::event::{Dim, Mechanism, Outcome, RecoveryEvent};
use crate::json::JsonObject;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of line-regions per grid row. Coarse enough that a
/// region holds thousands of lines at service geometries (so i.i.d.
/// injection populates every cell), fine enough that a clustered burst
/// concentrates in one or two cells.
pub const DEFAULT_REGIONS: usize = 16;

/// The fixed spatial geometry every grid of a [`Heatmaps`] bundle shares:
/// `n_shards` rows × `n_regions` columns over a line space of `n_lines`.
///
/// Regions partition the *global* line space into contiguous equal ranges
/// (`region_of(line) = line · n_regions / n_lines`) — the axis physical
/// clustering lives on. Shards are the service's round-robin Hash-1-group
/// partition, supplied as a precomputed line→shard table so this crate
/// stays below `sudoku-core` in the dependency order.
#[derive(Debug)]
pub struct RegionGeometry {
    n_shards: usize,
    n_regions: usize,
    n_lines: u64,
    shard_of: Box<[u16]>,
}

impl RegionGeometry {
    /// Builds the geometry, precomputing the line→shard table from
    /// `shard_of_line` (typically `ShardPlan::shard_of_line`).
    ///
    /// # Panics
    ///
    /// If any dimension is zero, `n_shards` exceeds `u16::MAX`, or
    /// `shard_of_line` returns an out-of-range shard.
    pub fn new(
        n_shards: usize,
        n_regions: usize,
        n_lines: u64,
        shard_of_line: impl Fn(u64) -> usize,
    ) -> Self {
        assert!(n_shards > 0 && n_regions > 0 && n_lines > 0);
        assert!(n_shards <= u16::MAX as usize);
        let shard_of = (0..n_lines)
            .map(|line| {
                let s = shard_of_line(line);
                assert!(s < n_shards, "shard {s} out of range for {n_shards}");
                s as u16
            })
            .collect();
        RegionGeometry {
            n_shards,
            n_regions,
            n_lines,
            shard_of,
        }
    }

    /// Number of shard rows.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Number of region columns.
    pub fn n_regions(&self) -> usize {
        self.n_regions
    }

    /// Number of lines the region axis partitions.
    pub fn n_lines(&self) -> u64 {
        self.n_lines
    }

    /// Total cells per grid (`n_shards × n_regions`).
    pub fn n_cells(&self) -> usize {
        self.n_shards * self.n_regions
    }

    /// The contiguous region `line` falls in. Out-of-range lines clamp to
    /// the last region (defensive; callers pass in-range lines).
    #[inline]
    pub fn region_of(&self, line: u64) -> usize {
        let line = line.min(self.n_lines - 1);
        ((line as u128 * self.n_regions as u128) / self.n_lines as u128) as usize
    }

    /// The shard that owns `line`, from the precomputed table.
    /// Out-of-range lines clamp to the last line's owner.
    #[inline]
    pub fn shard_of(&self, line: u64) -> usize {
        self.shard_of[line.min(self.n_lines - 1) as usize] as usize
    }

    /// Flat row-major cell index of `line`'s (shard, region) cell.
    #[inline]
    pub fn cell_of(&self, line: u64) -> usize {
        self.shard_of(line) * self.n_regions + self.region_of(line)
    }

    /// The `[start, end)` global line range of `region`.
    pub fn region_bounds(&self, region: usize) -> (u64, u64) {
        let start = (region as u128 * self.n_lines as u128).div_ceil(self.n_regions as u128) as u64;
        let end =
            ((region as u128 + 1) * self.n_lines as u128).div_ceil(self.n_regions as u128) as u64;
        (start, end)
    }

    /// Geometry as a JSON object (for `/heatmap.json` and BENCH stamps).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("n_shards", self.n_shards as u64);
        obj.field_u64("n_regions", self.n_regions as u64);
        obj.field_u64("n_lines", self.n_lines);
        obj.finish()
    }
}

/// One 64-byte-aligned cell: concurrent writers on different cells never
/// share a cache line (the same padding discipline as the `AtomicHist`
/// stripes).
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

/// A 2D grid of padded atomic counters, row-major `shard × region`.
///
/// `add` is one relaxed `fetch_add`; `snapshot` reads every monotone cell
/// relaxed, so totals always equal the sum of recorded events (no torn or
/// invented counts — each cell is independently coherent).
#[derive(Debug)]
pub struct HeatGrid {
    cells: Box<[PaddedCell]>,
    n_regions: usize,
}

impl HeatGrid {
    fn new(n_shards: usize, n_regions: usize) -> Self {
        HeatGrid {
            cells: (0..n_shards * n_regions)
                .map(|_| PaddedCell::default())
                .collect(),
            n_regions,
        }
    }

    #[inline]
    fn idx(&self, shard: usize, region: usize) -> usize {
        shard * self.n_regions + region
    }

    /// Adds `n` events to the (shard, region) cell, wait-free.
    #[inline]
    pub fn add(&self, shard: usize, region: usize, n: u64) {
        self.cells[self.idx(shard, region)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` events to the flat `cell` index, wait-free.
    #[inline]
    pub fn add_cell(&self, cell: usize, n: u64) {
        self.cells[cell].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the (shard, region) cell — gauge semantics (used by the
    /// scrub-staleness grid, whose cells are levels rather than counts).
    #[inline]
    pub fn store(&self, shard: usize, region: usize, v: u64) {
        self.cells[self.idx(shard, region)]
            .0
            .store(v, Ordering::Relaxed);
    }

    /// One cell's current value.
    pub fn get(&self, shard: usize, region: usize) -> u64 {
        self.cells[self.idx(shard, region)]
            .0
            .load(Ordering::Relaxed)
    }

    /// Relaxed copy of every cell, row-major (shard-major).
    pub fn snapshot(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .collect()
    }

    /// Sum over all cells.
    pub fn total(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// The spatial reliability bundle: one [`HeatGrid`] per failure-path
/// signal, sharing one [`RegionGeometry`].
///
/// Counter grids (everything except `staleness`) hold event counts;
/// `staleness` holds the most recently observed achieved re-scrub
/// interval per cell in nanoseconds (gauge semantics).
#[derive(Debug)]
pub struct Heatmaps {
    geom: RegionGeometry,
    /// Transient fault bits injected by the scrub daemon's injector (and
    /// any chaos path that applies a resolved plan).
    pub injected: HeatGrid,
    /// Per-line ECC repairs: `Ecc1` payload-bit repairs plus `EccField`
    /// metadata regenerations (totals equal
    /// `ecc1_repairs + meta_repairs`).
    pub ecc1: HeatGrid,
    /// RAID-4 group reconstructions, either hash dimension
    /// (totals equal `raid4_repairs`).
    pub raid4: HeatGrid,
    /// SDR resurrections, either hash dimension (totals equal
    /// `sdr_repairs`).
    pub sdr: HeatGrid,
    /// Repairs that needed the Hash-2 dimension — a subset of `raid4` +
    /// `sdr` (totals equal `hash2_repairs`).
    pub hash2: HeatGrid,
    /// Detected-uncorrectable lines (totals equal `due_lines`; lines owned
    /// by dead shards are charged by the caller, which is the only DUE
    /// accounting site that emits no event).
    pub due: HeatGrid,
    /// Stuck-cell reasserts: bits the permanent-fault physics flipped back
    /// after a write or repair write-back.
    pub stuck: HeatGrid,
    /// Sparing strikes recorded against repeatedly-failing lines.
    pub strikes: HeatGrid,
    /// Most recently observed achieved re-scrub interval (ns) for packets
    /// in this cell — gauge, not a count.
    pub staleness: HeatGrid,
}

impl Heatmaps {
    /// Builds the bundle over `geom`.
    pub fn new(geom: RegionGeometry) -> Self {
        let (s, r) = (geom.n_shards, geom.n_regions);
        Heatmaps {
            geom,
            injected: HeatGrid::new(s, r),
            ecc1: HeatGrid::new(s, r),
            raid4: HeatGrid::new(s, r),
            sdr: HeatGrid::new(s, r),
            hash2: HeatGrid::new(s, r),
            due: HeatGrid::new(s, r),
            stuck: HeatGrid::new(s, r),
            strikes: HeatGrid::new(s, r),
            staleness: HeatGrid::new(s, r),
        }
    }

    /// The shared geometry.
    pub fn geometry(&self) -> &RegionGeometry {
        &self.geom
    }

    /// Every counter grid with its wire name, in a fixed exposition order
    /// (`staleness` is last and is the one gauge-semantics grid).
    pub fn named_grids(&self) -> [(&'static str, &HeatGrid); 9] {
        [
            ("injected", &self.injected),
            ("ecc1", &self.ecc1),
            ("raid4", &self.raid4),
            ("sdr", &self.sdr),
            ("hash2", &self.hash2),
            ("due", &self.due),
            ("stuck", &self.stuck),
            ("strikes", &self.strikes),
            ("staleness", &self.staleness),
        ]
    }

    /// Charges `bits` injected fault bits against `line`'s cell.
    #[inline]
    pub fn charge_injected(&self, line: u64, bits: u64) {
        self.injected.add_cell(self.geom.cell_of(line), bits);
    }

    /// Charges one DUE against `line`'s cell — for DUE accounting sites
    /// that emit no [`RecoveryEvent`] (lines owned by dead shards).
    #[inline]
    pub fn charge_due(&self, line: u64) {
        self.due.add_cell(self.geom.cell_of(line), 1);
    }

    /// Charges `bits` stuck-cell reasserts against `line`'s cell.
    #[inline]
    pub fn charge_stuck(&self, line: u64, bits: u64) {
        self.stuck.add_cell(self.geom.cell_of(line), bits);
    }

    /// Charges one sparing strike against `line`'s cell.
    #[inline]
    pub fn charge_strike(&self, line: u64) {
        self.strikes.add_cell(self.geom.cell_of(line), 1);
    }

    /// Records the achieved re-scrub interval of a swept packet whose
    /// first line is `line` (gauge: last writer wins per cell).
    #[inline]
    pub fn note_staleness(&self, line: u64, interval_ns: u64) {
        self.staleness.store(
            self.geom.shard_of(line),
            self.geom.region_of(line),
            interval_ns,
        );
    }

    /// The [`crate::Recorder`] tap: charges the repair-tier and DUE grids
    /// from one emitted event, with the same cardinality as the
    /// `CacheStats` counters the repair sites increment alongside each
    /// emission.
    pub fn record_event(&self, event: &RecoveryEvent) {
        let cell = self.geom.cell_of(event.line);
        match (event.mechanism, event.outcome) {
            (Mechanism::Ecc1 | Mechanism::EccField, Outcome::Repaired) => {
                self.ecc1.add_cell(cell, 1);
            }
            (Mechanism::Raid4, Outcome::Repaired) => {
                self.raid4.add_cell(cell, 1);
                if event.hash_dim == Some(Dim::H2) {
                    self.hash2.add_cell(cell, 1);
                }
            }
            (Mechanism::Sdr, Outcome::Repaired) => {
                self.sdr.add_cell(cell, 1);
                if event.hash_dim == Some(Dim::H2) {
                    self.hash2.add_cell(cell, 1);
                }
            }
            (Mechanism::Due, _) => self.due.add_cell(cell, 1),
            (Mechanism::Inject, _) => self.injected.add_cell(cell, event.trials.max(1) as u64),
            _ => {}
        }
    }

    /// The per-cell observed failure-event counts the correlation detector
    /// and per-region budgets run on: ECC repairs + RAID-4 + SDR + DUEs.
    /// The `hash2` grid is excluded — its repairs already appear in
    /// `raid4`/`sdr` — so every detected flip event counts exactly once.
    pub fn observed_cells(&self) -> Vec<u64> {
        let mut cells = self.ecc1.snapshot();
        for grid in [&self.raid4, &self.sdr, &self.due] {
            for (c, v) in cells.iter_mut().zip(grid.snapshot()) {
                *c += v;
            }
        }
        cells
    }

    /// The whole bundle as a JSON document for `/heatmap.json`: geometry,
    /// every grid row-major, the combined observed grid, and (when the
    /// caller has a detector) the latest correlation statistics.
    pub fn to_json(&self, correlation: Option<&CorrelationStat>) -> String {
        let mut obj = JsonObject::new();
        obj.field_raw("geometry", &self.geom.to_json());
        let mut grids = JsonObject::new();
        for (name, grid) in self.named_grids() {
            let mut g = JsonObject::new();
            g.field_u64("total", grid.total());
            g.field_array_u64("cells", grid.snapshot());
            grids.field_raw(name, &g.finish());
        }
        obj.field_raw("grids", &grids.finish());
        obj.field_array_u64("observed", self.observed_cells());
        match correlation {
            Some(stat) => obj.field_raw("correlation", &stat.to_json()),
            None => obj.field_raw("correlation", "null"),
        };
        obj.finish()
    }
}

/// Renders a row-major shard × region cell grid as an ASCII heatmap —
/// one row per shard, one column per region, each cell an intensity
/// glyph scaled to the hottest cell — followed by a per-shard total
/// column. The forensic companion to [`Heatmaps::to_json`]: a snapshot
/// pasted into a terminal shows *where* the failures landed without any
/// plotting tooling.
///
/// `cells.len()` short of `n_shards * n_regions` renders the missing
/// tail as zero; the ramp is ` .:-=+*#%@` (space = zero, `@` = max).
pub fn render_grid(n_shards: usize, n_regions: usize, cells: &[u64]) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let n_regions = n_regions.max(1);
    let max = cells.iter().copied().max().unwrap_or(0);
    let mut out = String::new();
    out.push_str("        ");
    for region in 0..n_regions {
        out.push(if region % 4 == 0 { '|' } else { ' ' });
    }
    out.push_str("  total  (regions 0..");
    out.push_str(&n_regions.to_string());
    out.push_str(", | every 4)\n");
    for shard in 0..n_shards.max(1) {
        out.push_str(&format!("shard {shard:>2} "));
        let mut row_total = 0u64;
        for region in 0..n_regions {
            let v = cells.get(shard * n_regions + region).copied().unwrap_or(0);
            row_total += v;
            let glyph = if max == 0 || v == 0 {
                RAMP[0]
            } else {
                // Non-zero cells start at '.', the hottest cell gets '@'.
                let step = 1 + (v as u128 * (RAMP.len() - 2) as u128 / max as u128) as usize;
                RAMP[step.min(RAMP.len() - 1)]
            };
            out.push(glyph as char);
        }
        out.push_str(&format!("  {row_total}\n"));
    }
    out
}

/// One windowed reading of the spatial-correlation detector.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CorrelationStat {
    /// Observed failure events in the window (sum of cell deltas).
    pub total: u64,
    /// Mean events per cell in the window.
    pub mean: f64,
    /// The hottest cell's event count in the window.
    pub max_cell: u64,
    /// Shard row of the hottest cell.
    pub max_shard: usize,
    /// Region column of the hottest cell.
    pub max_region: usize,
    /// Max-cell z-score against the i.i.d. Poisson expectation:
    /// `(max − mean) / √mean`. Near `√(2 ln n_cells)` for i.i.d. arrivals;
    /// grows with `√total` under clustering.
    pub z: f64,
    /// Index of dispersion (variance / mean) of the cell deltas: ≈1 for
    /// i.i.d. (Poisson), ≫1 for clustered arrivals.
    pub dispersion: f64,
    /// Whether this window crossed the detector's firing condition.
    pub fired: bool,
}

impl CorrelationStat {
    /// Max-cell skew: hottest cell over the i.i.d.-expected per-cell mean
    /// (1.0 when the window is empty). The BENCH stamp.
    pub fn skew(&self) -> f64 {
        if self.mean > 0.0 {
            self.max_cell as f64 / self.mean
        } else {
            1.0
        }
    }

    /// The reading as a flat JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("total", self.total);
        obj.field_f64("mean", self.mean);
        obj.field_u64("max_cell", self.max_cell);
        obj.field_u64("max_shard", self.max_shard as u64);
        obj.field_u64("max_region", self.max_region as u64);
        obj.field_f64("z", self.z);
        obj.field_f64("dispersion", self.dispersion);
        obj.field_f64("skew", self.skew());
        obj.field_bool("fired", self.fired);
        obj.finish()
    }
}

/// Online spatial-correlation detector over a cell grid.
///
/// Pure and steppable like the watchdog's scan: the caller periodically
/// feeds it the current cumulative [`Heatmaps::observed_cells`]; each
/// [`CorrelationDetector::step`] differences against the previous feed
/// (the *window*), computes the max-cell z-score and index of dispersion
/// of the window's deltas, and reports whether the i.i.d. hypothesis is
/// rejected. A minimum-events guard keeps near-empty windows quiet (a
/// 3-event window where all 3 hit one cell is noise, not a cluster).
#[derive(Debug)]
pub struct CorrelationDetector {
    n_regions: usize,
    prev: Vec<u64>,
    z_threshold: f64,
    min_events: u64,
    last: CorrelationStat,
}

impl CorrelationDetector {
    /// Default firing threshold on the max-cell z-score. The i.i.d.
    /// expected max over `n` Poisson cells sits near `√(2 ln n)` standard
    /// errors (≈ 2.9 for 64 cells); 8 is far above that noise floor yet a
    /// one-region burst of ~64+ events crosses it immediately.
    pub const DEFAULT_Z: f64 = 8.0;
    /// Default minimum window events before the detector may fire.
    pub const DEFAULT_MIN_EVENTS: u64 = 64;

    /// A detector over `geom`'s grid with the default thresholds.
    pub fn new(geom: &RegionGeometry) -> Self {
        Self::with_thresholds(geom, Self::DEFAULT_Z, Self::DEFAULT_MIN_EVENTS)
    }

    /// A detector with explicit thresholds (tests and tuning).
    pub fn with_thresholds(geom: &RegionGeometry, z_threshold: f64, min_events: u64) -> Self {
        CorrelationDetector {
            n_regions: geom.n_regions(),
            prev: vec![0; geom.n_cells()],
            z_threshold,
            min_events,
            last: CorrelationStat::default(),
        }
    }

    /// Differences `cells` (cumulative, same layout as `prev`) against the
    /// previous step and evaluates the window. Returns the new reading,
    /// which [`CorrelationDetector::last`] also retains.
    ///
    /// # Panics
    ///
    /// If `cells` has a different length than the geometry's cell count.
    pub fn step(&mut self, cells: &[u64]) -> CorrelationStat {
        assert_eq!(cells.len(), self.prev.len(), "grid geometry changed");
        let n = cells.len() as f64;
        let mut total = 0u64;
        let mut max_cell = 0u64;
        let mut max_idx = 0usize;
        let mut sum_sq = 0.0f64;
        for (i, (&now, prev)) in cells.iter().zip(self.prev.iter_mut()).enumerate() {
            let delta = now.saturating_sub(*prev);
            *prev = now;
            total += delta;
            sum_sq += (delta as f64) * (delta as f64);
            if delta > max_cell {
                max_cell = delta;
                max_idx = i;
            }
        }
        let mean = total as f64 / n;
        let variance = (sum_sq / n - mean * mean).max(0.0);
        let z = if mean > 0.0 {
            (max_cell as f64 - mean) / mean.sqrt()
        } else {
            0.0
        };
        let dispersion = if mean > 0.0 { variance / mean } else { 0.0 };
        let stat = CorrelationStat {
            total,
            mean,
            max_cell,
            max_shard: max_idx / self.n_regions,
            max_region: max_idx % self.n_regions,
            z,
            dispersion,
            fired: total >= self.min_events && z >= self.z_threshold,
        };
        self.last = stat.clone();
        stat
    }

    /// The most recent reading (default-zero before the first step).
    pub fn last(&self) -> &CorrelationStat {
        &self.last
    }

    /// The firing threshold on the max-cell z-score.
    pub fn z_threshold(&self) -> f64 {
        self.z_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(n_shards: usize, n_regions: usize, n_lines: u64) -> RegionGeometry {
        // Round-robin by 16-line Hash-1 group, like the service's plan.
        RegionGeometry::new(n_shards, n_regions, n_lines, move |line| {
            (line as usize / 16) % n_shards
        })
    }

    #[test]
    fn region_mapping_is_contiguous_and_total() {
        let g = geom(4, 16, 1000);
        let mut last = 0;
        let mut counts = vec![0u64; 16];
        for line in 0..1000 {
            let r = g.region_of(line);
            assert!(r >= last, "regions must be monotone in line");
            assert!(r < 16);
            last = r;
            counts[r] += 1;
        }
        // Equal partition within rounding.
        assert!(counts.iter().all(|&c| (62..=63).contains(&c)), "{counts:?}");
        // Bounds cover the space exactly.
        let mut covered = 0;
        for r in 0..16 {
            let (start, end) = g.region_bounds(r);
            assert_eq!(start, covered);
            covered = end;
            for line in start..end {
                assert_eq!(g.region_of(line), r);
            }
        }
        assert_eq!(covered, 1000);
    }

    #[test]
    fn cell_indexing_matches_shard_and_region() {
        let g = geom(4, 8, 256);
        for line in 0..256 {
            let cell = g.cell_of(line);
            assert_eq!(cell, g.shard_of(line) * 8 + g.region_of(line));
            assert_eq!(g.shard_of(line), (line as usize / 16) % 4);
        }
        assert_eq!(g.n_cells(), 32);
    }

    #[test]
    fn grid_concurrent_adds_lose_nothing() {
        let grid = HeatGrid::new(4, 8);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let grid = &grid;
                s.spawn(move || {
                    for i in 0..10_000usize {
                        grid.add(t, i % 8, 1);
                    }
                });
            }
        });
        assert_eq!(grid.total(), 40_000);
        let snap = grid.snapshot();
        assert_eq!(snap.len(), 32);
        assert_eq!(snap.iter().sum::<u64>(), 40_000);
        assert_eq!(grid.get(2, 3), 1250);
    }

    #[test]
    fn record_event_charges_the_matching_grids() {
        let maps = Heatmaps::new(geom(2, 4, 64));
        let ev = |line, mechanism, outcome, hash_dim| RecoveryEvent {
            interval: 0,
            trace: 0,
            line,
            group: None,
            hash_dim,
            mechanism,
            outcome,
            trials: 0,
        };
        maps.record_event(&ev(0, Mechanism::Ecc1, Outcome::Repaired, None));
        maps.record_event(&ev(0, Mechanism::EccField, Outcome::Repaired, None));
        maps.record_event(&ev(17, Mechanism::Raid4, Outcome::Repaired, Some(Dim::H1)));
        maps.record_event(&ev(17, Mechanism::Sdr, Outcome::Repaired, Some(Dim::H2)));
        maps.record_event(&ev(33, Mechanism::Due, Outcome::Failed, None));
        // Non-repair outcomes and detections charge nothing.
        maps.record_event(&ev(5, Mechanism::Raid4, Outcome::Blocked, Some(Dim::H1)));
        maps.record_event(&ev(5, Mechanism::CrcDetect, Outcome::Detected, None));
        assert_eq!(maps.ecc1.total(), 2);
        assert_eq!(maps.raid4.total(), 1);
        assert_eq!(maps.sdr.total(), 1);
        assert_eq!(maps.hash2.total(), 1, "only the H2-dim repair");
        assert_eq!(maps.due.total(), 1);
        // Line 0 → shard 0; line 17 → shard 1.
        assert_eq!(maps.ecc1.get(0, 0), 2);
        assert_eq!(maps.raid4.get(1, 1), 1);
        // Observed = ecc1 + raid4 + sdr + due (hash2 excluded).
        assert_eq!(maps.observed_cells().iter().sum::<u64>(), 5);
    }

    #[test]
    fn direct_charges_and_staleness_gauge() {
        let maps = Heatmaps::new(geom(2, 4, 64));
        maps.charge_injected(3, 5);
        maps.charge_due(3);
        maps.charge_stuck(3, 2);
        maps.charge_strike(3);
        maps.note_staleness(3, 7_000_000);
        assert_eq!(maps.injected.get(0, 0), 5);
        assert_eq!(maps.due.get(0, 0), 1);
        assert_eq!(maps.stuck.get(0, 0), 2);
        assert_eq!(maps.strikes.get(0, 0), 1);
        assert_eq!(maps.staleness.get(0, 0), 7_000_000);
        // Gauge semantics: overwritten, not accumulated.
        maps.note_staleness(3, 1_000_000);
        assert_eq!(maps.staleness.get(0, 0), 1_000_000);
    }

    #[test]
    fn detector_fires_on_clustered_and_stays_quiet_on_iid() {
        let g = geom(4, 16, 65_536);
        let mut det = CorrelationDetector::new(&g);
        let n = g.n_cells();
        // Window 1: i.i.d. — every cell gets ~8 events with ±2 jitter from
        // a tiny deterministic hash.
        let iid: Vec<u64> = (0..n)
            .map(|i| 8 + ((i * 2654435761) >> 28) as u64 % 5)
            .collect();
        let stat = det.step(&iid);
        assert!(stat.total >= CorrelationDetector::DEFAULT_MIN_EVENTS);
        assert!(!stat.fired, "i.i.d. window must not fire: {stat:?}");
        assert!(stat.dispersion < 2.0, "{stat:?}");
        // Window 2: the same background plus a one-region burst (region 3
        // across all four shards — a physical row cluster).
        let mut clustered = iid.clone();
        for shard in 0..4 {
            clustered[shard * 16 + 3] += 100;
        }
        // Cumulative feed: add window 1 as the baseline.
        let cumulative: Vec<u64> = iid.iter().zip(&clustered).map(|(a, b)| a + b).collect();
        let stat = det.step(&cumulative);
        assert!(stat.fired, "clustered window must fire: {stat:?}");
        assert_eq!(stat.max_region, 3);
        assert!(stat.z >= CorrelationDetector::DEFAULT_Z);
        assert!(stat.dispersion > 10.0, "{stat:?}");
        assert!(stat.skew() > 5.0, "{stat:?}");
        assert_eq!(det.last(), &stat);
    }

    #[test]
    fn detector_min_events_guard() {
        let g = geom(2, 4, 64);
        let mut det = CorrelationDetector::with_thresholds(&g, 3.0, 50);
        // 10 events all in one cell: huge z, but below the events floor.
        let mut cells = vec![0u64; g.n_cells()];
        cells[0] = 10;
        let stat = det.step(&cells);
        assert!(stat.z > 3.0);
        assert!(!stat.fired, "below min_events must stay quiet");
        // Same shape with enough mass fires.
        cells[0] = 100;
        let stat = det.step(&cells);
        assert_eq!(stat.total, 90);
        assert!(stat.fired);
    }

    #[test]
    fn empty_window_is_quiet_and_json_is_sane() {
        let g = geom(2, 4, 64);
        let mut det = CorrelationDetector::new(&g);
        let stat = det.step(&vec![0u64; g.n_cells()]);
        assert!(!stat.fired);
        assert_eq!(stat.z, 0.0);
        assert_eq!(stat.skew(), 1.0);
        let json = stat.to_json();
        assert!(json.contains("\"fired\":false"), "{json}");
        let maps = Heatmaps::new(geom(2, 4, 64));
        let doc = maps.to_json(Some(&stat));
        assert!(doc.contains("\"geometry\":{\"n_shards\":2"), "{doc}");
        assert!(doc.contains("\"injected\":{\"total\":0"), "{doc}");
        assert!(doc.contains("\"correlation\":{\"total\":0"), "{doc}");
        let bare = maps.to_json(None);
        assert!(bare.contains("\"correlation\":null"), "{bare}");
    }

    #[test]
    fn render_grid_marks_the_hottest_cell_and_sums_rows() {
        let mut cells = vec![0u64; 2 * 8];
        cells[3] = 2; // shard 0, region 3: lukewarm
        cells[8] = 10; // shard 1, region 0: the hottest cell
        let art = render_grid(2, 8, &cells);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3, "{art}");
        assert!(lines[1].starts_with("shard  0"), "{art}");
        assert!(lines[1].ends_with("  2"), "{art}");
        assert!(lines[2].contains('@'), "hottest cell gets '@': {art}");
        assert!(lines[2].ends_with("  10"), "{art}");
        // A short cells slice renders, zero-filled, rather than panicking.
        let padded = render_grid(2, 8, &cells[..9]);
        assert!(padded.lines().count() == 3, "{padded}");
        // The all-zero grid is all-blank cells.
        let blank = render_grid(1, 4, &[0, 0, 0, 0]);
        assert!(!blank.contains('@'), "{blank}");
    }
}
