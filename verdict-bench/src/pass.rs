//! One measured pass: set-up, the capture loop, the flush, and the
//! correctness check of every pair's terminal verdict.

use std::collections::HashMap;
use std::time::Instant;

use stepstone_ingest::{parse_capture, DemuxFlow, FiveTuple, FlowDemux};
use stepstone_monitor::{DegradeReason, FlowId, Monitor, MonitorStats, TerminalKind, Verdict};
use stepstone_scenario::fnv1a;

use crate::corpus::{flow_tuple, Corpus};
use crate::quantile_u32;
use crate::trace::{SpanId, Spans};

/// How often (in events) the loop drains verdicts, as a live consumer
/// would; the same cadence as the ingest crate's replay loop.
const DRAIN_EVERY: u64 = 256;

/// The per-packet latency quantiles a pass keeps: p50, p90, p95, p98,
/// p99, p99.5, p99.9 and the maximum.
pub const LATENCY_QUANTILES: [f64; 8] = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 1.0];

/// Binds every upstream and starts a monitor with them registered;
/// returns the monitor and the set-up's wall time in seconds.
///
/// # Errors
///
/// A binding error, rendered.
pub fn set_up<S: Spans>(
    corpus: &Corpus,
    spans: &mut S,
    parent: Option<SpanId>,
) -> Result<(Monitor, f64), String> {
    let started = Instant::now();
    let mut monitor = Monitor::new(corpus.monitor_config());
    spans.leaf("monitor.new", parent, started, Instant::now());
    for upstream in &corpus.upstreams {
        let t0 = Instant::now();
        let bound = corpus
            .bind(upstream)
            .map_err(|e| format!("binding upstream {}: {e}", upstream.id))?;
        let t1 = Instant::now();
        monitor.register_upstream(upstream.id, bound);
        spans.leaf("core.bind", parent, t0, t1);
        spans.leaf("monitor.register_upstream", parent, t1, Instant::now());
    }
    Ok((monitor, started.elapsed().as_secs_f64()))
}

/// The outcome of checking every pair's terminal verdict.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Pairs without exactly one terminal verdict, or degraded for an
    /// operational reason (worker lost, stalled, shed).
    pub failed_pairs: u64,
    /// Engine or stream faults, one line each; empty on a clean pass.
    pub problems: Vec<String>,
    /// FNV-1a digest of the sorted canonical verdict lines
    /// (`pair U:F kind`, with `F` the demux flow id, i.e. first-seen
    /// order in the capture) — the same digest as the scenario
    /// runner's `ScenarioOutcome::verdict_digest` for a capture replay.
    pub digest: u64,
    /// Candidate pairs the spec defines.
    pub pairs: u64,
    /// Pairs that ended `Correlated`.
    pub correlated: u64,
    /// Pairs that ended `Cleared`.
    pub cleared: u64,
    /// Pairs that ended `Degraded`, for any reason.
    pub degraded: u64,
    /// True pairs (upstream `i`, scenario flow `i`) that ended
    /// `Correlated`.
    pub true_correlated: u64,
}

/// Everything one pass measured.
pub struct Pass {
    /// Wall time of the monitor's set-up, s.
    pub setup_s: f64,
    /// Capture records read.
    pub records: u64,
    /// Wall time from the first capture record to `Monitor::finish`
    /// returning.
    pub wall_s: f64,
    /// Wall time of `Monitor::finish`.
    pub flush_s: f64,
    /// Per-packet loop time (parse + demux + ingest): the quantiles
    /// [`LATENCY_QUANTILES`] of the pass's samples, µs.
    pub latency_us: [f64; LATENCY_QUANTILES.len()],
    /// Peak resident set of the process (`VmHWM`), KiB; 0 where the OS
    /// does not report it.
    pub peak_rss_kb: u64,
    /// The peak was reset before the pass, so it covers the pass alone.
    /// Where the OS cannot reset it, the peak also covers input
    /// generation.
    pub rss_reset: bool,
    /// The monitor's final counters.
    pub stats: MonitorStats,
    /// Decodes in the monitor's decode-latency histogram.
    pub decode_count: u64,
    /// Their summed latency, µs.
    pub decode_sum_us: u64,
    /// The demuxed flows, for the offline decode pass.
    pub flows: Vec<DemuxFlow>,
    /// The verdict check.
    pub check: Check,
}

impl Pass {
    /// Capture packets per second of wall time.
    pub fn pkts_per_s(&self) -> f64 {
        self.records as f64 / self.wall_s
    }

    /// Decode busy time, s.
    pub fn decode_busy_s(&self) -> f64 {
        self.decode_sum_us as f64 / 1e6
    }
}

/// Runs one pass over `capture`: set-up, the closed capture loop (each
/// record goes to the monitor as soon as the previous one was
/// accepted), the flush, and the verdict check.
///
/// # Errors
///
/// A set-up failure, rendered. Faults during the pass are not errors:
/// they land in [`Check::problems`].
pub fn run<S: Spans>(corpus: &Corpus, capture: &[u8], spans: &mut S) -> Result<Pass, String> {
    let rss_reset = reset_peak_rss();
    let root = spans.open("pass", None);
    let setup_span = spans.open("setup", root);
    let (mut monitor, setup_s) = set_up(corpus, spans, setup_span)?;
    spans.close(setup_span);
    let registry = monitor.registry();
    let expected: usize = corpus.suspicious.iter().map(|(_, f)| f.len()).sum();
    let mut latencies_ns: Vec<u32> = Vec::with_capacity(expected);
    let mut problems = Vec::new();
    let mut demux = FlowDemux::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    let (mut records_read, mut events) = (0u64, 0u64);

    let replay_span = spans.open("replay", root);
    let started = Instant::now();
    let mut records = parse_capture(capture).map_err(|e| format!("capture header: {e}"))?;
    spans.leaf("ingest.open", replay_span, started, Instant::now());
    loop {
        let t0 = Instant::now();
        let next = records.next();
        let t1 = if S::ON { Instant::now() } else { t0 };
        let record = match next {
            None => break,
            Some(Ok(record)) => record,
            Some(Err(e)) => {
                problems.push(format!("stream error after {records_read} records: {e}"));
                break;
            }
        };
        records_read += 1;
        let Some((flow, packet)) = demux.push(&record) else {
            problems.push(format!("record {records_read} has no transport flow"));
            continue;
        };
        let t2 = if S::ON { Instant::now() } else { t0 };
        // A rejected packet is counted in the monitor's stats, which
        // the check reads.
        monitor.ingest(flow, packet);
        let t3 = Instant::now();
        latencies_ns.push(u32::try_from((t3 - t0).as_nanos()).unwrap_or(u32::MAX));
        if S::ON {
            spans.leaf("ingest.parse", replay_span, t0, t1);
            spans.leaf("ingest.demux", replay_span, t1, t2);
            spans.leaf("monitor.ingest", replay_span, t2, t3);
        }
        events += 1;
        if events.is_multiple_of(DRAIN_EVERY) {
            let d0 = if S::ON { Instant::now() } else { t3 };
            verdicts.extend(monitor.drain_verdicts());
            if S::ON {
                spans.leaf("monitor.drain_verdicts", replay_span, d0, Instant::now());
            }
        }
    }
    spans.close(replay_span);
    let finish_span = spans.open("monitor.finish", root);
    let flush_started = Instant::now();
    let report = monitor.finish();
    let finished = Instant::now();
    spans.close(finish_span);
    spans.close(root);

    let peak_rss_kb = peak_rss_kb().unwrap_or(0);
    let (flows, _) = demux.finish();
    verdicts.extend(report.verdicts);
    let decode = registry
        .histogram("monitor_decode_latency_micros", "")
        .snapshot();
    let check = check(corpus, &flows, &verdicts, &report.stats, problems);
    let latency_us = LATENCY_QUANTILES.map(|q| quantile_u32(&mut latencies_ns, q) / 1e3);
    Ok(Pass {
        setup_s,
        records: records_read,
        wall_s: (finished - started).as_secs_f64(),
        flush_s: (finished - flush_started).as_secs_f64(),
        latency_us,
        peak_rss_kb,
        rss_reset,
        stats: report.stats,
        decode_count: decode.count(),
        decode_sum_us: decode.sum(),
        flows,
        check,
    })
}

/// Checks the engine's books and every candidate pair's verdict, and
/// digests the verdicts.
fn check(
    corpus: &Corpus,
    flows: &[DemuxFlow],
    verdicts: &[Verdict],
    stats: &MonitorStats,
    mut problems: Vec<String>,
) -> Check {
    let spec = &corpus.spec;
    if !stats.conservation_holds() {
        problems.push("monitor conservation identities do not hold".to_string());
    }
    for (count, what) in [
        (stats.worker_panics, "worker panics"),
        (stats.jobs_lost, "decode jobs lost"),
        (stats.pairs_shed, "pairs shed"),
        (stats.packets_rejected, "packets rejected"),
    ] {
        if count > 0 {
            problems.push(format!("{count} {what}"));
        }
    }
    // Demux numbers flows in first-seen order; the capture's 5-tuples
    // carry the scenario identities.
    let by_tuple: HashMap<FiveTuple, u64> = (0..spec.suspicious_flows() as u64)
        .map(|id| (flow_tuple(FlowId(id)), id))
        .collect();
    let mut demux_of: HashMap<u64, FlowId> = HashMap::new();
    for flow in flows {
        match by_tuple.get(&flow.tuple) {
            Some(&id) => {
                demux_of.insert(id, flow.id);
            }
            None => problems.push(format!("demuxed flow {} has a foreign 5-tuple", flow.id)),
        }
    }
    if demux_of.len() != spec.suspicious_flows() {
        problems.push(format!(
            "demuxed {} scenario flows, expected {}",
            demux_of.len(),
            spec.suspicious_flows()
        ));
    }
    let mut terminal: HashMap<(u64, FlowId), (u32, TerminalKind, bool)> = HashMap::new();
    for verdict in verdicts {
        let (Some(pair), Some(kind)) = (verdict.pair(), verdict.terminal_kind()) else {
            continue;
        };
        let operational = matches!(
            verdict,
            Verdict::Degraded {
                reason: DegradeReason::WorkerLost | DegradeReason::Stalled | DegradeReason::Shed,
                ..
            }
        );
        let entry = terminal
            .entry((pair.upstream.0, pair.flow))
            .or_insert((0, kind, false));
        entry.0 += 1;
        entry.2 |= operational;
    }
    let mut out = Check {
        pairs: spec.candidate_pairs() as u64,
        ..Check::default()
    };
    let mut lines: Vec<(u64, u64, TerminalKind)> = Vec::with_capacity(terminal.len());
    for upstream in 0..spec.upstreams as u64 {
        for scenario_flow in 0..spec.suspicious_flows() as u64 {
            let demux_flow = demux_of.get(&scenario_flow);
            match demux_flow.and_then(|&f| terminal.get(&(upstream, f)).map(|t| (f, t))) {
                Some((flow, &(1, kind, operational))) => {
                    out.failed_pairs += u64::from(operational);
                    match kind {
                        TerminalKind::Correlated => out.correlated += 1,
                        TerminalKind::Cleared => out.cleared += 1,
                        TerminalKind::Degraded => out.degraded += 1,
                    }
                    if kind == TerminalKind::Correlated && upstream == scenario_flow {
                        out.true_correlated += 1;
                    }
                    lines.push((upstream, flow.0, kind));
                }
                _ => out.failed_pairs += 1,
            }
        }
    }
    if terminal.len() as u64 != out.pairs {
        problems.push(format!(
            "{} pairs have verdicts, {} candidate pairs exist",
            terminal.len(),
            out.pairs
        ));
    }
    lines.sort_unstable();
    let mut text = String::with_capacity(lines.len() * 24);
    for (upstream, flow, kind) in &lines {
        text.push_str(&format!("pair {upstream}:{flow} {kind}\n"));
    }
    out.digest = fnv1a(text.as_bytes());
    out.problems = problems;
    out
}

/// Resets the kernel's peak-RSS mark for this process, so the next
/// [`peak_rss_kb`] covers only what follows. `false` where the OS does
/// not support it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
