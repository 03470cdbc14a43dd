//! A scrape takes no shard lock: the live recovery-ladder counters are the
//! heatmap grids' totals, so while one thread holds shard 0's session a
//! `/metrics` scrape and the wire STATS body (`ServiceHandle::stats_json`)
//! must both answer within 1 s, and carry the repair made before the lock
//! was taken.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;
use sudoku_codes::LineData;
use sudoku_svc::{Service, ServiceConfig, TelemetryConfig};

fn metrics(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn scrape_answers_while_a_shard_mutex_is_held() {
    let mut config = ServiceConfig::small(4096, 4, 0.0, 7);
    config.scrub_every = None;
    config.telemetry = Some(TelemetryConfig {
        port: Some(0),
        ..TelemetryConfig::default()
    });
    let service = Service::start(config).unwrap();
    let addr = service.telemetry_addr().expect("exporter is on");
    let handle = service.handle();
    // One ECC-1 repair on shard 0's first line, made before the lock.
    let mut data = LineData::zero();
    data.set_bit(3, true);
    handle.write(0, &data).unwrap();
    service.state().inject_fault(0, 100);
    assert_eq!(handle.read(0).unwrap(), data);
    let (tx, rx) = mpsc::channel();
    {
        let _held = service.state().session(0).unwrap();
        let scraper = handle.clone();
        std::thread::spawn(move || {
            let _ = tx.send((metrics(addr), scraper.stats_json()));
        });
        let (prom, json) = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("a scrape blocked on shard 0's mutex for 1 s");
        assert!(prom.contains("\nsudoku_ecc1_repairs_total 1\n"), "{prom}");
        assert!(prom.contains("\nsudoku_due_lines_total 0\n"), "{prom}");
        assert!(json.contains("\"ecc1_repairs\":1,"), "{json}");
    }
    let report = service.shutdown();
    assert_eq!(report.stats.ecc1_repairs + report.stats.meta_repairs, 1);
}
