//! End-to-end loopback tests of the live telemetry plane: in-band
//! `StatsRequest` scraping under concurrent traffic, monotonically
//! advancing time-series samples, slow-request exemplars under an
//! injected latency fault, and the drain-export byte-identity contract
//! (the sampler must never perturb the `fidr.metrics.v1` export).

mod common;

use common::{deterministic_drain_json, small_system};
use fidr::client::{run_traffic, StorageClient};
use fidr::core::FidrConfig;
use fidr::nic::protocol::StatsFormat;
use fidr::server::{Server, ServerConfig, StallFault};
use fidr::trace::{parse_json, Json, TraceConfig};
use std::time::Duration;

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

/// The highest sample `seq` in one scraped timeseries document, if any.
fn max_seq(doc: &Json) -> Option<u64> {
    doc.get("samples")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|s| num(s, "seq") as u64)
        .max()
}

#[test]
fn scrapes_advance_monotonically_and_catch_slow_exemplars() {
    let handle = Server::spawn(ServerConfig {
        system: FidrConfig {
            trace: TraceConfig::enabled(),
            ..small_system()
        },
        // Fast sampling so a short test sees many ticks.
        sample_ms: 10,
        // run_traffic spaces connections 1_000_000 LBAs apart; shift 18
        // (256-Ki-LBA streams) keeps the two connections in distinct
        // stream rollups.
        stream_shift: 18,
        top_streams: 4,
        // Every 40th write sleeps 30 ms — far past the p99 threshold the
        // first 32 fast requests arm, so exemplars are guaranteed.
        stall: Some(StallFault {
            every: 40,
            millis: 30,
        }),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = handle.local_addr();

    let traffic = std::thread::spawn(move || {
        run_traffic(|| StorageClient::connect(addr), 2, 120, 7).expect("traffic")
    });

    // Scrape in-band from a separate connection while traffic runs: the
    // visible sample frontier must only ever move forward.
    let mut scraper = StorageClient::connect(addr).expect("connect scraper");
    let mut frontiers: Vec<u64> = Vec::new();
    while !traffic.is_finished() {
        let body = scraper
            .scrape(StatsFormat::Json)
            .expect("scrape mid-traffic");
        let doc = parse_json(std::str::from_utf8(&body).expect("utf-8")).expect("scrape JSON");
        if let Some(seq) = max_seq(&doc) {
            frontiers.push(seq);
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    let report = traffic.join().expect("traffic thread");
    assert_eq!(report.verify_failures, 0);

    // Let at least one more tick land after the last write, then take
    // the final document.
    std::thread::sleep(Duration::from_millis(40));
    let body = scraper.scrape(StatsFormat::Json).expect("final scrape");
    let doc = parse_json(std::str::from_utf8(&body).expect("utf-8")).expect("scrape JSON");

    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("fidr.timeseries.v1")
    );
    // Samples advance monotonically: strictly increasing seq and
    // nondecreasing timestamps within a document, and the frontier seen
    // across scrapes never moves backwards.
    let samples = doc.get("samples").and_then(Json::as_arr).expect("samples");
    assert!(
        samples.len() >= 2,
        "expected several ticks, got {samples:?}"
    );
    for pair in samples.windows(2) {
        assert!(num(&pair[0], "seq") < num(&pair[1], "seq"));
        assert!(num(&pair[0], "t_ms") <= num(&pair[1], "t_ms"));
    }
    for pair in frontiers.windows(2) {
        assert!(pair[0] <= pair[1], "sample frontier moved backwards");
    }
    let final_seq = max_seq(&doc).expect("final samples");
    assert!(
        frontiers.first().copied().unwrap_or(0) < final_seq,
        "sample frontier never advanced: {frontiers:?} -> {final_seq}"
    );

    // The injected stalls must surface as slow exemplars past the armed
    // p99 threshold.
    let exemplars = doc
        .get("exemplars")
        .and_then(Json::as_arr)
        .expect("exemplars");
    assert!(!exemplars.is_empty(), "no slow exemplar captured");
    for e in exemplars {
        assert!(num(e, "latency_us") > num(e, "threshold_us"));
        assert!(e.get("spans").and_then(Json::as_arr).is_some());
    }

    // Per-stream rollups: both connections' streams are visible and the
    // totals add up to real traffic.
    let streams = doc.get("streams").and_then(Json::as_arr).expect("streams");
    assert!(streams.len() >= 2, "expected two streams, got {streams:?}");
    let totals = doc.get("totals").expect("totals");
    assert!(num(totals, "writes") >= f64::from(u8::from(report.writes > 0)));
    assert_eq!(num(totals, "writes") as u64, report.writes);
    assert_eq!(num(totals, "reads") as u64, report.reads);

    // The Prometheus rendering of the same plane serves in-band too.
    let prom = scraper
        .scrape(StatsFormat::Prometheus)
        .expect("prometheus scrape");
    let prom = std::str::from_utf8(&prom).expect("utf-8");
    assert!(prom.contains("# TYPE fidr_server_ops_write_count counter"));
    assert!(prom.contains("fidr_server_window_ops_rate"));
    assert!(prom.contains("fidr_server_stream_writes{stream="));

    handle.shutdown().expect("drain");
}

#[test]
fn sampler_and_workers_never_change_the_drain_export() {
    let run = |workers: usize, sample_ms: u64| {
        let handle = Server::spawn(ServerConfig {
            system: FidrConfig {
                workers,
                ..small_system()
            },
            sample_ms,
            ..ServerConfig::default()
        })
        .expect("bind loopback");
        let addr = handle.local_addr();
        let report = run_traffic(|| StorageClient::connect(addr), 1, 90, 5).expect("traffic");
        assert_eq!(report.verify_failures, 0);
        deterministic_drain_json(&handle.shutdown().expect("drain"))
    };
    // Sampler off + serial pipeline vs sampler hot + 4 workers: the
    // telemetry plane is read-only over the merged metrics, so the
    // drain-time export must stay byte-identical.
    let baseline = run(1, 0);
    let sampled = run(4, 10);
    assert_eq!(
        baseline, sampled,
        "sampler or worker count leaked into the drain export"
    );
}
