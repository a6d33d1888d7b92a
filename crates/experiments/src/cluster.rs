//! Distributed replay: drive a [`stepstone_cluster`] worker topology
//! over the same worlds the single-process [`live`](crate::live)
//! harness replays.
//!
//! The coordinator never ships correlators over the pipe. A
//! [`ScenarioSpec`] is pure data — every flow and watermark derives
//! from its seed — so its canonical text is the `Hello` spec, and each
//! worker parses it and rebuilds the *identical* corpus locally in
//! [`worker_main`]. The coordinator synthesises only the packet stream
//! and routes it; the workers own all decode state.
//!
//! Chaos (the spec's `chaos` key) composes across the process boundary
//! the same way it does in one process: the flow layer (deletion, chaff
//! bursts, delay) runs coordinator-side before routing, the wire layer
//! mutates capture bytes before parsing, and each worker arms its
//! engine with [`stepstone_chaos::FaultPlan::for_worker`] so sibling
//! processes draw independent — but reproducible — runtime fault
//! schedules from one `--chaos` spec.

use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stepstone_cluster::{serve, Cluster, ClusterConfig, ClusterStats, WireStats, WorkerSummary};
use stepstone_ingest::{FlowDemux, IngestError, ReplayClock};
use stepstone_monitor::{MonitorConfig, Verdict};
use stepstone_scenario::ScenarioSpec;
use stepstone_telemetry::Registry;

use crate::live::live_config;
use crate::scenario_run::{
    build_spec_corpus, capture_truth, chaos_plan, feed, is_true_pair, merged_stream, wire_records,
    Channel, Detection, ScenarioRunError,
};

/// The worker-process entry point behind `repro cluster-worker`: serves
/// the framed IPC loop on the given pipes, rebuilding the monitor (and
/// its full correlator corpus) from the coordinator's canonical spec
/// under the live engine policy. A spec that does not parse fails the
/// handshake with the parser's message.
pub fn worker_main<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
) -> Result<WorkerSummary, String> {
    serve(reader, writer, |worker, spec| {
        let text = std::str::from_utf8(spec).map_err(|e| format!("spec is not UTF-8: {e}"))?;
        let spec = ScenarioSpec::parse(text).map_err(|e| e.to_string())?;
        let plan = chaos_plan(&spec).map(|plan| plan.for_worker(u64::from(worker)));
        let corpus = build_spec_corpus(&spec, None, live_config(None, plan.as_ref()))
            .map_err(|e| e.to_string())?;
        Ok(corpus.monitor)
    })
    .map_err(|e| e.to_string())
}

/// Options for a distributed replay.
pub struct ClusterOptions {
    /// Worker process count (≥ 1).
    pub workers: u32,
    /// Worker executable (normally `std::env::current_exe()`).
    pub program: std::path::PathBuf,
    /// Arguments selecting the worker entry point (e.g.
    /// `["cluster-worker"]` for the `repro` binary).
    pub args: Vec<String>,
    /// Coordinator metrics registry: cluster counters plus per-worker
    /// snapshots land here, one Prometheus endpoint for the topology.
    pub registry: Option<Arc<Registry>>,
    /// Deterministic mid-replay SIGKILL (worker, after-packet) for the
    /// soak harness.
    pub kill_after: Option<(u32, u64)>,
}

impl ClusterOptions {
    /// Options for `workers` processes of `program`.
    pub fn new(workers: u32, program: std::path::PathBuf, args: Vec<String>) -> Self {
        ClusterOptions {
            workers,
            program,
            args,
            registry: None,
            kill_after: None,
        }
    }

    fn to_config(&self, spec: &ScenarioSpec) -> ClusterConfig {
        let mut config = ClusterConfig::new(self.program.clone(), self.workers);
        config.args = self.args.clone();
        config.spec = spec.canonical().into_bytes();
        config.upstreams = (0..spec.upstreams as u64).collect();
        config.registry = self.registry.clone();
        config.kill_after = self.kill_after;
        config
    }
}

/// How a distributed replay can fail outright (worker deaths are
/// survived, not errors).
#[derive(Debug)]
pub enum ClusterRunError {
    /// The world could not be built, or the capture bytes were
    /// unusable ([`cluster_replay_pcap`] only).
    Scenario(ScenarioRunError),
    /// The coordinator failed (spawn, config, or outbound framing).
    Cluster(stepstone_cluster::ClusterError),
}

impl fmt::Display for ClusterRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterRunError::Scenario(e) => write!(f, "{e}"),
            ClusterRunError::Cluster(e) => write!(f, "cluster failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterRunError {}

impl From<ScenarioRunError> for ClusterRunError {
    fn from(e: ScenarioRunError) -> Self {
        ClusterRunError::Scenario(e)
    }
}

impl From<stepstone_cluster::ClusterError> for ClusterRunError {
    fn from(e: stepstone_cluster::ClusterError) -> Self {
        ClusterRunError::Cluster(e)
    }
}

/// The outcome of one distributed replay.
#[derive(Debug)]
pub struct ClusterRunReport {
    /// The replayed world.
    pub spec: ScenarioSpec,
    /// Worker processes configured.
    pub workers: u32,
    /// Packets routed by the coordinator.
    pub events: u64,
    /// Wall-clock time for routing + shutdown + report collection.
    pub elapsed: Duration,
    /// Verdicts scored against the true pairs; degraded pairs include
    /// `WorkerLost` backfills.
    pub detection: Detection,
    /// Coordinator-level conservation ledger.
    pub cluster: ClusterStats,
    /// Merged final engine counters from every reporting worker.
    pub engine: WireStats,
    /// Final engine counters per worker slot (`None` = died without
    /// reporting).
    pub per_worker: Vec<Option<WireStats>>,
    /// Every deduped verdict the topology emitted, in arrival order —
    /// kept so soak tests can assert exactly-one-terminal-per-pair.
    pub verdicts: Vec<Verdict>,
    /// A capture-tail error that ended a pcap stream early, if any.
    pub stream_error: Option<IngestError>,
}

impl ClusterRunReport {
    /// Replay throughput in packets per second.
    pub fn packets_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Scores the topology's final report into a run report.
    fn new(
        spec: &ScenarioSpec,
        workers: u32,
        events: u64,
        elapsed: Duration,
        report: stepstone_cluster::ClusterReport,
        is_true_pair: impl Fn(&stepstone_monitor::PairId) -> bool,
        stream_error: Option<IngestError>,
    ) -> Self {
        ClusterRunReport {
            spec: spec.clone(),
            workers,
            events,
            elapsed,
            detection: Detection::score(spec, &report.verdicts, is_true_pair),
            cluster: report.stats,
            engine: report.engine,
            per_worker: report.per_worker,
            verdicts: report.verdicts,
            stream_error,
        }
    }
}

impl fmt::Display for ClusterRunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.spec;
        writeln!(
            f,
            "cluster replay: {} workers, {} upstreams, {} decoys, {} candidate pairs",
            self.workers,
            s.upstreams,
            s.decoys,
            s.candidate_pairs()
        )?;
        writeln!(
            f,
            "throughput:     {} packets in {:.3} s = {:.0} packets/sec",
            self.events,
            self.elapsed.as_secs_f64(),
            self.packets_per_sec()
        )?;
        writeln!(f, "{}", self.detection)?;
        if let Some(err) = &self.stream_error {
            writeln!(f, "stream error:   capture tail abandoned: {err}")?;
        }
        writeln!(f, "{}", self.cluster)?;
        for (w, stats) in self.per_worker.iter().enumerate() {
            match stats {
                Some(s) => writeln!(
                    f,
                    "worker {w}: {} ingested, {} decodes, {} jobs lost, {} verdicts",
                    s.packets_ingested, s.decodes_run, s.jobs_lost, s.verdicts_emitted
                )?,
                None => writeln!(f, "worker {w}: died without a final report")?,
            }
        }
        write!(
            f,
            "engine (merged): {} ingested, {} decodes run, {} jobs lost",
            self.engine.packets_ingested, self.engine.decodes_run, self.engine.jobs_lost
        )
    }
}

/// Replays the spec's synthetic world through a worker topology — the
/// distributed counterpart of [`crate::live::replay`].
pub fn cluster_replay(
    spec: &ScenarioSpec,
    opts: &ClusterOptions,
) -> Result<ClusterRunReport, ClusterRunError> {
    // The coordinator synthesises the same corpus the workers rebuild;
    // it streams the suspicious flows and drops the local monitor.
    let events =
        merged_stream(&build_spec_corpus(spec, None, MonitorConfig::default())?.suspicious);

    let mut cluster = Cluster::spawn(opts.to_config(spec))?;
    let mut channel = Channel::new(chaos_plan(spec).as_ref());
    let started = Instant::now();
    let routed = feed(&events, &mut channel, |flow, packet| {
        cluster.route(flow, packet)
    })?;
    let report = cluster.finish()?;
    let elapsed = started.elapsed();
    Ok(ClusterRunReport::new(
        spec,
        opts.workers,
        routed,
        elapsed,
        report,
        is_true_pair,
        None,
    ))
}

/// Replays pcap/pcapng bytes through a worker topology — the
/// distributed counterpart of [`crate::live::replay_pcap`]. The wire
/// fault layer (when the spec carries chaos) corrupts the capture bytes
/// before parsing; demux runs coordinator-side and verdicts are
/// attributed back to scenario identities through the injective
/// 5-tuple map.
pub fn cluster_replay_pcap(
    spec: &ScenarioSpec,
    bytes: &[u8],
    clock: ReplayClock,
    opts: &ClusterOptions,
) -> Result<ClusterRunReport, ClusterRunError> {
    let plan = chaos_plan(spec);
    let mut mutated = Vec::new();
    let records =
        wire_records(bytes, plan.as_ref(), &mut mutated).map_err(ScenarioRunError::from)?;

    let mut cluster = Cluster::spawn(opts.to_config(spec))?;
    let mut demux = FlowDemux::new();
    let mut channel = Channel::new(plan.as_ref());
    let mut deliveries = Vec::new();
    let started = Instant::now();
    let mut routed = 0u64;
    let mut pacer = None;
    let mut stream_error = None;
    for record in records {
        let record = match record {
            Ok(record) => record,
            Err(e) => {
                stream_error = Some(e);
                break;
            }
        };
        let pacer = pacer.get_or_insert_with(|| clock.pacer(record.timestamp));
        pacer.wait_until(record.timestamp);
        if let Some((flow, packet)) = demux.push(&record) {
            deliveries.clear();
            channel.apply(flow, packet, &mut deliveries);
            for &(flow, packet) in &deliveries {
                cluster.route(flow, packet)?;
                routed += 1;
            }
        }
    }
    let (flows, _demux_stats) = demux.finish();
    let report = cluster.finish()?;
    let elapsed = started.elapsed();
    Ok(ClusterRunReport::new(
        spec,
        opts.workers,
        routed,
        elapsed,
        report,
        capture_truth(spec, &flows),
        stream_error,
    ))
}
