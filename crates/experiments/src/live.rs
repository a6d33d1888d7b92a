//! Live replay: drive the online monitor over a scenario's world.
//!
//! Batch experiments answer the paper's accuracy questions; this module
//! answers the deployment question — what does the correlator look like
//! as an *online* service? It streams a [`ScenarioSpec`]'s world through
//! a monitor running the *live* engine policy and reports throughput
//! (packets/sec) next to detection quality and engine counters. Unlike
//! [`crate::scenario_run::run_spec`], it arms the spec's whole chaos
//! plan, runtime layer included, so verdicts depend on worker timing.

use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stepstone_chaos::FaultPlan;
use stepstone_ingest::{replay_records_with, ReplayClock, ReplayOutcome};
use stepstone_monitor::{MonitorConfig, MonitorStats};
use stepstone_scenario::ScenarioSpec;
use stepstone_telemetry::Registry;

use crate::scenario_run::{
    build_spec_corpus, capture_truth, chaos_plan, feed, is_true_pair, merged_stream, wire_records,
    Channel, Detection, ScenarioRunError,
};

/// The live engine policy: the default schedule, publishing into
/// `registry` when given, and armed with `plan`'s runtime faults *and*
/// the matching degradation policy (shedding, stall detection, fast
/// restarts) when given.
pub(crate) fn live_config(
    registry: Option<Arc<Registry>>,
    plan: Option<&FaultPlan>,
) -> MonitorConfig {
    let mut config = MonitorConfig::default();
    if let Some(registry) = registry {
        config = config.with_registry(registry);
    }
    match plan {
        Some(plan) => plan.arm_monitor(config),
        None => config,
    }
}

/// The outcome of one replay.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// The replayed world.
    pub spec: ScenarioSpec,
    /// Events replayed (accepted packets).
    pub events: u64,
    /// Wall-clock time for ingest + flush.
    pub elapsed: Duration,
    /// Verdicts scored against the true pairs; nothing degrades
    /// without a fault plan.
    pub detection: Detection,
    /// Final engine counters.
    pub stats: MonitorStats,
}

impl LiveReport {
    /// Replay throughput in packets per second.
    pub fn packets_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

impl fmt::Display for LiveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.spec;
        writeln!(
            f,
            "monitor replay: {} upstreams, {} decoys, {} candidate pairs, {} shards, backend {}, decode {}",
            s.upstreams,
            s.decoys,
            s.candidate_pairs(),
            s.shards,
            s.backend,
            s.decode
        )?;
        writeln!(
            f,
            "throughput:     {} packets in {:.3} s = {:.0} packets/sec",
            self.events,
            self.elapsed.as_secs_f64(),
            self.packets_per_sec()
        )?;
        writeln!(f, "{}", self.detection)?;
        write!(f, "{}", self.stats)
    }
}

/// Builds the spec's world and replays its merged stream through a
/// fresh live monitor, publishing into `registry` when given so callers
/// can watch the replay over a [`stepstone_telemetry::MetricsServer`]
/// bound to the same registry. There is no wire in this mode, so the
/// chaos plan's wire layer does not apply.
pub fn replay(
    spec: &ScenarioSpec,
    registry: Option<Arc<Registry>>,
) -> Result<LiveReport, ScenarioRunError> {
    let plan = chaos_plan(spec);
    let mut corpus = build_spec_corpus(spec, None, live_config(registry, plan.as_ref()))?;
    let events = merged_stream(&corpus.suspicious);
    let mut channel = Channel::new(plan.as_ref());
    let started = Instant::now();
    let Ok(delivered) = feed(&events, &mut channel, |flow, packet| {
        corpus.monitor.ingest(flow, packet);
        Ok::<(), Infallible>(())
    });
    let report = corpus.monitor.finish();
    Ok(LiveReport {
        spec: spec.clone(),
        events: delivered,
        elapsed: started.elapsed(),
        detection: Detection::score(spec, &report.verdicts, is_true_pair),
        stats: report.stats,
    })
}

/// The outcome of replaying a capture through the monitor.
#[derive(Debug)]
pub struct PcapReport {
    /// The world whose correlators judged the capture.
    pub spec: ScenarioSpec,
    /// The pacing used.
    pub clock: ReplayClock,
    /// Demux/monitor/verdict details from the ingest pipeline.
    pub outcome: ReplayOutcome,
    /// Verdicts scored against the true pairs; nothing degrades
    /// without a fault plan.
    pub detection: Detection,
}

impl PcapReport {
    /// Replay throughput in packets per second (meaningful for
    /// [`ReplayClock::Fast`]; paced replays track the capture clock).
    pub fn packets_per_sec(&self) -> f64 {
        self.outcome.events as f64 / self.outcome.elapsed.as_secs_f64().max(1e-9)
    }
}

impl fmt::Display for PcapReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.outcome;
        writeln!(
            f,
            "pcap replay:    {} flows demuxed from {} packets ({} ignored, {} clamped), clock {}",
            o.demux_stats.flows_opened,
            o.demux_stats.packets,
            o.demux_stats.ignored,
            o.demux_stats.clamped,
            self.clock
        )?;
        writeln!(
            f,
            "throughput:     {} events in {:.3} s = {:.0} packets/sec",
            o.events,
            o.elapsed.as_secs_f64(),
            self.packets_per_sec()
        )?;
        writeln!(f, "{}", self.detection)?;
        if let Some(err) = &o.stream_error {
            writeln!(f, "stream error:   capture tail abandoned: {err}")?;
        }
        write!(f, "{}", o.monitor_stats)
    }
}

/// Replays pcap/pcapng bytes through a live monitor rebuilt from
/// `spec`, attributing verdicts back to scenario flow identities via
/// the 5-tuple mapping. Flows in the capture that carry no scenario
/// tuple are still streamed to the monitor (as extra suspicious flows);
/// they just cannot count as true positives. The monitor publishes
/// into `registry` when given; the ingest demux and replay loop bind to
/// the same registry, so one endpoint covers the whole pipeline.
///
/// Under the spec's chaos plan all fault layers run end to end:
///
/// 1. the capture *bytes* are corrupted/truncated by the wire layer;
/// 2. the surviving records pass through the wire record adapter
///    (drop, duplicate, timestamp skew);
/// 3. demuxed events pass through the flow layer (deletion, chaff
///    bursts, extra delay);
/// 4. the monitor itself runs armed with the runtime layer and the
///    profile's degradation policy.
///
/// A capture tail destroyed by the wire layer ends the stream
/// gracefully (see [`ReplayOutcome::stream_error`]); header damage is
/// impossible by construction (the wire layer spares the file header).
pub fn replay_pcap(
    spec: &ScenarioSpec,
    bytes: &[u8],
    clock: ReplayClock,
    registry: Option<Arc<Registry>>,
) -> Result<PcapReport, ScenarioRunError> {
    let plan = chaos_plan(spec);
    let corpus = build_spec_corpus(spec, None, live_config(registry, plan.as_ref()))?;
    let mut mutated = Vec::new();
    let records = wire_records(bytes, plan.as_ref(), &mut mutated)?;
    let mut channel = Channel::new(plan.as_ref());
    let outcome = replay_records_with(records, corpus.monitor, clock, None, |flow, packet, out| {
        channel.apply(flow, packet, out)
    });
    Ok(PcapReport {
        spec: spec.clone(),
        clock,
        detection: Detection::score(spec, &outcome.verdicts, capture_truth(spec, &outcome.flows)),
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, Scale};

    #[test]
    fn quick_scenario_detects_all_true_pairs() {
        let spec = ExperimentConfig::new(Scale::Quick).monitor_spec();
        let report = replay(&spec, None).expect("quick scenario flows are long enough");
        assert_eq!(report.detection.true_positives, spec.upstreams);
        assert_eq!(report.detection.missed, 0);
        assert_eq!(report.stats.packets_rejected, 0);
        assert!(report.packets_per_sec() > 0.0);
        let rendered = report.to_string();
        assert!(rendered.contains("packets/sec"), "{rendered}");
    }
}
