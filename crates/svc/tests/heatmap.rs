//! End-to-end soak of the spatial reliability plane: a real service (its
//! cache builds the heatmaps), the correlation detector armed, and the
//! scrub daemon repairing injected faults.
//!
//! The load-bearing properties: the injected grid equals the flips an
//! exact fault plan applied, cell by cell (ground truth), and every
//! repair-tier grid total equals the whole-cache counter the repair
//! sites bump beside each emission after a mixed inject + scrub + demand
//! run — the heatmap is an exact spatial decomposition of the recovery
//! ladder, not a sampled approximation. And the detector's contract: a
//! seeded *clustered* injection raises `spatial_correlation` while an
//! i.i.d. injection of the same total flip count raises none.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use sudoku_fault::FaultInjector;
use sudoku_obs::{AlertClass, Heatmaps};
use sudoku_svc::{Service, ServiceConfig, TelemetryConfig};

fn heatmap_service(lines: u64, ber: f64, seed: u64) -> Service {
    let mut config = ServiceConfig::small(lines, 4, ber, seed);
    config.scrub_every = Some(Duration::from_millis(1));
    config.telemetry = Some(TelemetryConfig {
        sample_every: Duration::from_millis(20),
        flight_recorder_cap: 64,
        jsonl_path: None,
        port: Some(0),
        ..TelemetryConfig::default()
    });
    Service::start(config).expect("service starts")
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The injected grid must hold exactly the flips `plan` applied, cell by
/// cell: ground truth, not one counter checked against another. (The
/// daemon's own injector runs at a negligible BER in these services.)
fn assert_injected_grid_is_the_plan(maps: &Heatmaps, plan: &[(u64, Vec<usize>)]) {
    let geom = maps.geometry();
    let mut expected = vec![0u64; geom.n_cells()];
    for (line, positions) in plan {
        expected[geom.cell_of(*line)] += positions.len() as u64;
    }
    assert_eq!(maps.injected.snapshot(), expected, "injected grid vs plan");
}

fn data_with(bit: usize) -> LineData {
    let mut d = LineData::zero();
    d.set_bit(bit % 512, true);
    d
}

/// After a mixed run (daemon injection at a hot BER, scrub repairs,
/// demand reads and writes racing it), every repair-tier grid total must
/// equal its whole-cache counter exactly: the tap rides the same emission
/// the counters do, so the spatial decomposition loses and invents
/// nothing. (Strikes and stuck reasserts have no second count: the
/// report's degraded totals are those grids' totals.)
#[test]
fn grid_totals_equal_cache_counters_after_mixed_run() {
    let service = heatmap_service(4096, 1e-4, 41);
    let handle = service.handle();
    for line in 0..1024u64 {
        handle.write(line, &data_with(line as usize)).unwrap();
    }
    // Demand reads race the scrub daemon over faulted lines: repairs come
    // from both the demand path and the sweep, through different
    // recorders, all tapped.
    for round in 0..4 {
        for line in 0..1024u64 {
            let _ = handle.read(line);
        }
        std::thread::sleep(Duration::from_millis(25 * (round % 2)));
    }
    let report = service.shutdown();
    let maps = &report.heatmaps;
    let stats = &report.stats;
    assert_eq!(
        maps.ecc1.total(),
        stats.ecc1_repairs + stats.meta_repairs,
        "ECC grid decomposes ecc1 + meta repairs"
    );
    assert_eq!(maps.raid4.total(), stats.raid4_repairs, "RAID-4 grid");
    assert_eq!(maps.sdr.total(), stats.sdr_repairs, "SDR grid");
    assert_eq!(maps.hash2.total(), stats.hash2_repairs, "Hash-2 grid");
    assert_eq!(maps.due.total(), stats.due_lines, "DUE grid");
    assert_eq!(maps.stuck.total(), 0, "no stuck map configured");
    // The combined observed grid is the per-cell sum of the four
    // detection-bearing grids.
    let observed: u64 = maps.observed_cells().iter().sum();
    assert_eq!(
        observed,
        maps.ecc1.total() + maps.raid4.total() + maps.sdr.total() + maps.due.total()
    );
    assert!(
        stats.ecc1_repairs > 0,
        "the run actually repaired something"
    );
    // The daemon stamped achieved scrub intervals into the staleness
    // grid (gauge semantics: every swept cell holds its last interval).
    assert!(maps.staleness.total() > 0, "staleness gauge stamped");
    // The final report JSON carries the whole bundle.
    let json = report.to_json();
    assert!(json.contains("\"heatmap\":{"), "{json}");
    assert!(json.contains("\"observed\":["), "{json}");
}

/// The live plane reads the ladder off the grids, the shutdown harvest
/// off the quiesced engine's counters: the sampler's final, post-drain
/// snapshot (the last flight-recorder entry) must carry exactly the
/// harvest's values, ECC-1 being payload fixes plus ECC-field
/// regenerations.
#[test]
fn final_snapshot_ladder_equals_harvest() {
    let service = heatmap_service(2048, 1e-3, 53);
    let recorder = service.flight_recorder().expect("recorder is on").clone();
    let handle = service.handle();
    for line in 0..512u64 {
        handle.write(line, &data_with(3 * line as usize)).unwrap();
    }
    for _ in 0..3 {
        for line in 0..512u64 {
            let _ = handle.read(line);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let report = service.shutdown();
    let last = recorder.latest().expect("final snapshot recorded");
    let (live, stats) = (&last.heatmap, &report.stats);
    let due: u64 = live.due.iter().sum();
    assert_eq!(
        [
            live.ecc1_repairs,
            live.raid4_repairs,
            live.sdr_repairs,
            live.hash2_repairs,
            due
        ],
        [
            stats.ecc1_repairs + stats.meta_repairs,
            stats.raid4_repairs,
            stats.sdr_repairs,
            stats.hash2_repairs,
            stats.due_lines
        ],
        "live ladder vs harvest"
    );
    let prom = last.to_prometheus();
    for (family, value) in [
        ("sudoku_ecc1_repairs_total", live.ecc1_repairs),
        ("sudoku_raid4_repairs_total", stats.raid4_repairs),
        ("sudoku_due_lines_total", stats.due_lines),
    ] {
        assert!(prom.contains(&format!("\n{family} {value}\n")), "{prom}");
    }
    assert!(stats.raid4_repairs + stats.sdr_repairs > 0, "{stats:?}");
}

/// A seeded burst confined to one region must raise `spatial_correlation`
/// within an operator-visible budget; the very same flip count spread
/// i.i.d. over the whole line space must not. Equal totals make the
/// *only* difference between the two runs the clustering itself.
#[test]
fn clustered_injection_fires_detector_iid_does_not() {
    let lines = 4096u64;
    let k = 256u64;
    let region_span = lines / 16; // one region of the default 16
    let budget = Duration::from_secs(10);

    // --- clustered: k single-bit faults inside region 0 ----------------
    let service = heatmap_service(lines, 1e-15, 43);
    let addr = service.telemetry_addr().expect("exporter is on");
    let mut injector = FaultInjector::new(1e-4, 0xC0DE);
    let plan = injector.exact_plan(0, region_span, k);
    service.state().apply_resolved_plan(&plan);
    let start = Instant::now();
    let ttd = loop {
        if service.audit().alerts.count(AlertClass::SpatialCorrelation) >= 1 {
            break start.elapsed();
        }
        assert!(
            start.elapsed() < budget,
            "spatial_correlation not raised within {budget:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    println!("spatial_correlation after {ttd:?} (budget {budget:?})");
    // The burst is visible on the scrape surface too.
    let (status, body) = http_get(addr, "/heatmap.json");
    assert_eq!(status, 200);
    assert!(body.contains("\"correlation\":{"), "{body}");
    let report = service.shutdown();
    let maps = &report.heatmaps;
    assert_injected_grid_is_the_plan(maps, &plan);
    // Every injected bit was a single-bit ECC-1 repair.
    assert_eq!(report.stats.ecc1_repairs + report.stats.meta_repairs, k);
    // Fold observed cells to regions: the hot region is region 0.
    let n_regions = maps.geometry().n_regions();
    let mut per_region = vec![0u64; n_regions];
    for (i, v) in maps.observed_cells().iter().enumerate() {
        per_region[i % n_regions] += v;
    }
    assert_eq!(per_region[0], k, "every observed repair is in region 0");

    // --- i.i.d.: the same k over the whole line space ------------------
    let service = heatmap_service(lines, 1e-15, 47);
    let mut injector = FaultInjector::new(1e-4, 0xD1CE);
    let plan = injector.exact_plan(0, lines, k);
    service.state().apply_resolved_plan(&plan);
    // Give the watchdog several detector windows — the same span in which
    // the clustered run must fire.
    std::thread::sleep(Duration::from_millis(1200));
    assert_eq!(
        service.audit().alerts.count(AlertClass::SpatialCorrelation),
        0,
        "i.i.d. injection of the same flip count stays quiet"
    );
    let report = service.shutdown();
    assert_injected_grid_is_the_plan(&report.heatmaps, &plan);
    assert_eq!(
        report.stats.ecc1_repairs + report.stats.meta_repairs,
        k,
        "equal observed totals: clustering was the only difference"
    );
    assert!(
        report.spatial.is_some(),
        "the detector stepped (verdict recorded), it just never fired"
    );
}
