//! Acceptance: the live pipeline served over the telemetry endpoint.
//!
//! Mirrors what the `repro monitor --metrics-addr` path does — replay
//! the wire scenario's capture with the monitor publishing into a
//! shared registry, serve that registry over HTTP, and check the
//! scraped `/metrics` text carries the decode-latency histogram, the
//! per-shard queue series, and verdict counters that sum to the final
//! report's verdict total.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use stepstone_experiments::scenario_run::export_spec_pcap;
use stepstone_experiments::{live, ExperimentConfig, Scale};
use stepstone_ingest::ReplayClock;
use stepstone_telemetry::{MetricsServer, Registry};

/// Minimal HTTP GET against the exposition endpoint.
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.trim().is_empty() {
            break;
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).unwrap();
    (status, body)
}

/// Sums every series of one metric family in Prometheus text output.
fn family_total(rendered: &str, family: &str) -> u64 {
    rendered
        .lines()
        .filter(|l| l.starts_with(family) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .sum()
}

#[test]
fn replayed_capture_is_scrapable_over_http() {
    let spec = ExperimentConfig::new(Scale::Quick).wire_spec();
    let bytes = export_spec_pcap(&spec).expect("wire flows carry the small watermark");

    let registry = Arc::new(Registry::new());
    let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let report = live::replay_pcap(
        &spec,
        &bytes,
        ReplayClock::Fast,
        Some(Arc::clone(&registry)),
    )
    .expect("capture replays");
    assert!(report.to_string().contains("pcap replay"), "{report}");
    let addr = server.local_addr();

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);

    // Decode-latency histogram with cumulative buckets.
    assert!(
        metrics.contains("# TYPE monitor_decode_latency_micros histogram"),
        "{metrics}"
    );
    assert!(
        metrics.contains("monitor_decode_latency_micros_bucket{le=\"+Inf\"}"),
        "{metrics}"
    );
    let decodes = report.outcome.monitor_stats.decodes_run;
    assert_eq!(
        family_total(&metrics, "monitor_decode_latency_micros_count"),
        decodes
    );

    // One queue-depth gauge series per shard, drained after finish.
    let depth_series = metrics
        .lines()
        .filter(|l| l.starts_with("monitor_shard_queue_depth{"))
        .count();
    assert_eq!(depth_series, spec.shards);
    assert_eq!(family_total(&metrics, "monitor_shard_queue_depth"), 0);

    // Verdict counters sum to the report's verdict total, and the
    // correlated count matches the detected pairs.
    let verdict_total = family_total(&metrics, "monitor_verdicts_total");
    assert_eq!(verdict_total as usize, report.outcome.verdicts.len());
    assert!(
        metrics.contains(&format!(
            "monitor_verdicts_total{{kind=\"correlated\"}} {}",
            report.detection.true_positives + report.detection.false_positives
        )),
        "{metrics}"
    );

    // The ingest layer publishes into the same registry.
    assert_eq!(
        family_total(&metrics, "ingest_packets_total"),
        report.outcome.demux_stats.packets
    );
    assert_eq!(
        family_total(&metrics, "ingest_replay_events_total"),
        report.outcome.events
    );

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    let (status, body) = get(addr, "/snapshot");
    assert_eq!(status, 200);
    assert!(body.starts_with('{'), "{body}");
    assert!(body.contains("\"monitor_verdicts_total\""), "{body}");

    server.shutdown();
}

#[test]
fn in_memory_replay_also_publishes_when_given_a_registry() {
    let spec = ExperimentConfig::new(Scale::Quick).monitor_spec();
    let registry = Arc::new(Registry::new());
    let report = live::replay(&spec, Some(Arc::clone(&registry))).expect("scenario replays");

    let rendered = registry.render_prometheus();
    assert_eq!(
        family_total(&rendered, "monitor_packets_ingested_total"),
        report.stats.packets_ingested
    );
    assert_eq!(
        family_total(&rendered, "monitor_verdicts_total") as usize,
        report.stats.verdicts_emitted as usize
    );
}
