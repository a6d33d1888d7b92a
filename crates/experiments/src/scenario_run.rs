//! Runs a [`ScenarioSpec`] end to end: spec → corpus → monitor →
//! canonical outcome.
//!
//! This is the bridge between the dependency-free `stepstone-scenario`
//! DSL and the rest of the workspace: it maps every spec field onto the
//! concrete generators ([`stepstone_traffic`]), adversary stages
//! ([`stepstone_adversary`]), chaos channel ([`stepstone_chaos`]) and
//! the online engine ([`stepstone_monitor`]). It is the workspace's one
//! world-builder: serve sessions, matrix cells, the live replay
//! ([`crate::live`]) and cluster workers all build their corpus here.
//!
//! # Determinism contract
//!
//! Everything about the *corpus* derives from the spec (two holders of
//! the same text build interchangeable corpora). [`run_spec`] and
//! [`run_spec_pcap`] arm only the spec chaos's *channel* layers — flow
//! faults here, plus wire faults where there is a wire — never the
//! engine's runtime faults, whose effects depend on thread timing. The
//! monitor runs with [`MonitorConfig::deterministic_schedule`], so the
//! set of windows decoded per pair — and therefore which terminal class
//! each pair lands in — is a pure function of the event stream, not of
//! worker timing (without it, a pair sitting near its backend's
//! decision threshold can latch in one run and clear in the next when a
//! borderline boundary window is skipped for an in-flight decode).
//! Decode *latencies* still vary, so the canonical [`VerdictLine`]s
//! carry only pair identities and [`TerminalKind`]s, making
//! [`ScenarioOutcome::verdict_digest`] stable across runs, processes
//! and machines — the property the matrix report and the
//! snapshot/restore acceptance test rely on.

use std::convert::Infallible;
use std::fmt;

use stepstone_adversary::{
    AdversaryPipeline, ChaffInjector, ChaffModel, PacketLoss, Repacketizer, UniformPerturbation,
};
use stepstone_chaos::{FaultPlan, FlowFaultInjector, Profile};
use stepstone_core::{Algorithm, BackendKind, BoundCorrelator, DecodeOptions, WatermarkCorrelator};
use stepstone_flow::{Flow, Packet, TimeDelta, Timestamp};
use stepstone_ingest::{
    parse_capture, replay_records_with, write_flows, CaptureRecord, DemuxFlow, FiveTuple,
    IngestError, ReplayClock,
};
use stepstone_monitor::{
    FlowId, Monitor, MonitorConfig, MonitorStats, PairId, TerminalKind, UpstreamId, Verdict,
};
use stepstone_scenario::{
    fnv1a, Backend, Chaff, ChaosProfile, Decode, Repacketize, ScenarioSpec, Traffic,
};
use stepstone_traffic::corpus::tcplib_corpus;
use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{
    IpdWatermarker, Watermark, WatermarkError, WatermarkKey, WatermarkParams,
};

/// What can go wrong running a scenario.
#[derive(Debug)]
#[non_exhaustive]
pub enum ScenarioRunError {
    /// The spec's flows cannot carry its watermark.
    Watermark(WatermarkError),
    /// The submitted capture bytes are not a valid pcap/pcapng file.
    Ingest(IngestError),
    /// The spec (possibly after a threshold override) is inconsistent.
    Invalid(String),
}

impl fmt::Display for ScenarioRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioRunError::Watermark(e) => write!(f, "corpus synthesis failed: {e}"),
            ScenarioRunError::Ingest(e) => write!(f, "capture ingestion failed: {e}"),
            ScenarioRunError::Invalid(reason) => write!(f, "invalid scenario run: {reason}"),
        }
    }
}

impl std::error::Error for ScenarioRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioRunError::Watermark(e) => Some(e),
            ScenarioRunError::Ingest(e) => Some(e),
            ScenarioRunError::Invalid(_) => None,
        }
    }
}

impl From<WatermarkError> for ScenarioRunError {
    fn from(e: WatermarkError) -> Self {
        ScenarioRunError::Watermark(e)
    }
}

impl From<IngestError> for ScenarioRunError {
    fn from(e: IngestError) -> Self {
        ScenarioRunError::Ingest(e)
    }
}

/// One canonical verdict line: a pair and its timing-independent
/// terminal class. The full [`Verdict`]s carry run-dependent
/// diagnostics (Hamming distances, decode counts); these lines carry
/// only what is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct VerdictLine {
    /// The upstream's id.
    pub upstream: u64,
    /// The suspicious flow's id.
    pub flow: u64,
    /// The pair's terminal class.
    pub kind: TerminalKind,
}

impl fmt::Display for VerdictLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pair {}:{} {}", self.upstream, self.flow, self.kind)
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The spec's schedule digest (see [`ScenarioSpec::digest`]).
    pub digest: u64,
    /// Events delivered to the monitor.
    pub events: u64,
    /// True (upstream `i`, flow `i`) pairs detected.
    pub true_positives: u32,
    /// Correlated verdicts on pairs that are not true pairs.
    pub false_positives: u32,
    /// True pairs the monitor failed to detect.
    pub missed: u32,
    /// Pairs that ended degraded.
    pub degraded: u32,
    /// Effective deletions the run's channel inflicted: watermarked
    /// packets the adversary pipeline dropped or merged away, plus
    /// chaos-deleted stream events. Seed-deterministic (never read back
    /// from decode internals), so it shares the reproducibility
    /// contract of the other counters.
    pub erasures: u64,
    /// Canonical verdict lines, sorted.
    pub verdicts: Vec<VerdictLine>,
    /// The ingest error that ended a capture replay early, if any.
    /// In-memory runs never set this.
    pub stream_error: Option<String>,
}

impl ScenarioOutcome {
    /// The canonical verdict text: one [`VerdictLine`] per line, in
    /// sorted order — the bytes compared across restore cycles.
    pub fn canonical_verdicts(&self) -> String {
        let mut out = String::new();
        for line in &self.verdicts {
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }

    /// FNV-1a/64 digest of [`Self::canonical_verdicts`] — the run's
    /// reproducible result identity.
    pub fn verdict_digest(&self) -> u64 {
        fnv1a(self.canonical_verdicts().as_bytes())
    }
}

impl fmt::Display for ScenarioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events {} tp {} fp {} missed {} degraded {} erasures {} vdigest {:016x}",
            self.events,
            self.true_positives,
            self.false_positives,
            self.missed,
            self.degraded,
            self.erasures,
            self.verdict_digest()
        )?;
        if let Some(err) = &self.stream_error {
            write!(f, " stream-error {err:?}")?;
        }
        Ok(())
    }
}

/// The scenario's watermark parameters, with an optional threshold
/// override (the serve hot-reload path).
fn params_for(
    spec: &ScenarioSpec,
    threshold: Option<u32>,
) -> Result<WatermarkParams, ScenarioRunError> {
    let threshold = threshold.unwrap_or(spec.wm_threshold);
    if threshold as usize >= spec.wm_bits {
        return Err(ScenarioRunError::Invalid(format!(
            "threshold {threshold} must be below wm-bits {}",
            spec.wm_bits
        )));
    }
    Ok(WatermarkParams {
        bits: spec.wm_bits,
        redundancy: spec.wm_redundancy,
        offset: spec.wm_offset,
        adjustment: TimeDelta::from_millis(spec.wm_adjustment_ms as i64),
        threshold,
    })
}

/// The correlator backend a spec's `backend` key names.
pub(crate) fn backend_kind(backend: Backend) -> BackendKind {
    match backend {
        Backend::Paper => BackendKind::Paper,
        Backend::Elices => BackendKind::Elices,
        Backend::Game => BackendKind::Game,
    }
}

/// Maps the spec's chaos key to a fault plan. [`run_spec`] and
/// [`run_spec_pcap`] treat it as the *channel* and arm its wire/flow
/// layers only (worker kills are timing-dependent in effect, which
/// would break the verdict-digest stability contract); the live and
/// cluster replays arm the runtime layer too.
pub fn chaos_plan(spec: &ScenarioSpec) -> Option<FaultPlan> {
    spec.chaos.map(|(seed, profile)| {
        FaultPlan::new(
            seed,
            match profile {
                ChaosProfile::Mild => Profile::Mild,
                ChaosProfile::Harsh => Profile::Harsh,
                ChaosProfile::Adversarial => Profile::Adversarial,
            },
        )
    })
}

/// The spec `chaos` value naming `plan` — the inverse of
/// [`chaos_plan`], which carries a `--chaos` plan inside a spec.
pub fn chaos_key(plan: &FaultPlan) -> (u64, ChaosProfile) {
    let profile = match plan.profile() {
        Profile::Mild => ChaosProfile::Mild,
        Profile::Harsh => ChaosProfile::Harsh,
        Profile::Adversarial => ChaosProfile::Adversarial,
    };
    (plan.seed(), profile)
}

/// One suspicious flow of the spec's traffic mix. Upstream flows
/// alternate interactive/tcplib under [`Traffic::Mixed`]; decoys under
/// `Mixed` are telnet background sessions.
fn generate_flow(spec: &ScenarioSpec, index: usize, decoy: bool, seed: Seed) -> Flow {
    let interactive = |profile: InteractiveProfile| {
        SessionGenerator::new(profile).generate(spec.packets, Timestamp::ZERO, &mut seed.rng(0))
    };
    #[expect(
        clippy::expect_used,
        reason = "tcplib_corpus(1, ..) yields exactly one flow by contract"
    )]
    let tcplib = || {
        tcplib_corpus(1, spec.packets, seed)
            .pop()
            .expect("tcplib_corpus(1, ..) yields one flow")
    };
    match spec.traffic {
        Traffic::Interactive => interactive(InteractiveProfile::ssh()),
        Traffic::Tcplib => tcplib(),
        Traffic::Mixed if decoy => interactive(InteractiveProfile::telnet()),
        Traffic::Mixed if index % 2 == 1 => tcplib(),
        Traffic::Mixed => interactive(InteractiveProfile::ssh()),
    }
}

/// The spec's adversary pipeline: perturbation, then chaff, then loss,
/// then repacketization — the paper's §2 stages in order, with the §6
/// future-work channels (loss, repacketization) appended when the spec
/// asks for them.
fn adversary(spec: &ScenarioSpec) -> AdversaryPipeline {
    let mut pipeline = AdversaryPipeline::new().then(UniformPerturbation::new(
        TimeDelta::from_millis(spec.delta_ms as i64),
    ));
    if let Chaff::PoissonMillis(m) = spec.chaff {
        if m > 0 {
            pipeline = pipeline.then(ChaffInjector::new(ChaffModel::Poisson {
                rate: m as f64 / 1000.0,
            }));
        }
    }
    if spec.loss_ppm > 0 {
        pipeline = pipeline.then(PacketLoss::new(f64::from(spec.loss_ppm) / 1_000_000.0));
    }
    if let Repacketize::WindowMs(w) = spec.repacketize {
        pipeline = pipeline.then(Repacketizer::new(TimeDelta::from_millis(w as i64)));
    }
    pipeline
}

/// The spec's derived corpus: a monitor with every upstream correlator
/// registered, plus the suspicious flows (true downstreams first, then
/// decoys) keyed by scenario [`FlowId`].
pub(crate) struct SpecCorpus {
    pub(crate) monitor: Monitor,
    pub(crate) suspicious: Vec<(FlowId, Flow)>,
    /// The bound correlators, indexed by upstream id — clones of what
    /// the monitor registered, for offline (batch) decode accounting.
    pub(crate) correlators: Vec<BoundCorrelator>,
    /// Watermarked packets the adversary pipeline deleted (or merged
    /// away) across the true downstream flows — the channel's share of
    /// the outcome's `erasures` count.
    pub(crate) channel_erasures: u64,
}

/// Synthesises the spec's corpus into a monitor started from the
/// caller's `config` (its engine policy); the spec sets shards and
/// decode batch. `threshold` overrides the spec's detection threshold
/// (serve hot-reload).
pub(crate) fn build_spec_corpus(
    spec: &ScenarioSpec,
    threshold: Option<u32>,
    config: MonitorConfig,
) -> Result<SpecCorpus, ScenarioRunError> {
    let params = params_for(spec, threshold)?;
    let backend = backend_kind(spec.backend);
    let decode = match spec.decode {
        Decode::Strict => DecodeOptions::strict(),
        Decode::Robust => DecodeOptions::robust(spec.erasure_budget),
    };
    let seed = Seed::new(spec.seed);
    let delta = TimeDelta::from_millis(spec.delta_ms as i64);
    let pipeline = adversary(spec);
    let mut monitor = Monitor::new(
        config
            .with_shards(spec.shards)
            .with_decode_batch(spec.decode_batch),
    );
    let mut suspicious: Vec<(FlowId, Flow)> = Vec::new();
    let mut correlators: Vec<BoundCorrelator> = Vec::new();
    let mut channel_erasures = 0u64;
    for i in 0..spec.upstreams {
        let branch = seed.child(i as u64);
        let original = generate_flow(spec, i, false, branch.child(0));
        let marker = IpdWatermarker::new(WatermarkKey::new(branch.child(1).value()), params);
        let watermark = Watermark::random(
            params.bits,
            &mut WatermarkKey::new(branch.child(2).value()).rng(1),
        );
        let marked = marker.embed(&original, &watermark)?;
        let correlator = WatermarkCorrelator::new(marker, watermark, delta, Algorithm::GreedyPlus);
        let bound =
            correlator.bind_backend_with(backend, decode, spec.chaff.rate(), &original, &marked)?;
        monitor.register_upstream(UpstreamId(i as u64), bound.clone());
        correlators.push(bound);
        let attacked = pipeline.apply(&marked, branch.child(3));
        let surviving = (attacked.len() - attacked.chaff_count()) as u64;
        channel_erasures += (marked.len() as u64).saturating_sub(surviving);
        suspicious.push((FlowId(i as u64), attacked));
    }
    for d in 0..spec.decoys {
        let branch = seed.child(0x1000 + d as u64);
        let decoy = pipeline.apply(
            &generate_flow(spec, spec.upstreams + d, true, branch.child(0)),
            branch.child(1),
        );
        suspicious.push((FlowId((spec.upstreams + d) as u64), decoy));
    }
    Ok(SpecCorpus {
        monitor,
        suspicious,
        correlators,
        channel_erasures,
    })
}

/// The engine policy of [`run_spec`] and [`run_spec_pcap`]: the
/// deterministic schedule the module's determinism contract rests on.
fn scenario_config() -> MonitorConfig {
    MonitorConfig::default().with_deterministic_schedule()
}

/// The scenario-flow → wire-5-tuple mapping every capture of a spec's
/// world uses: deterministic and injective, so exported captures
/// demultiplex back to the scenario's flow identities. UDP keeps the
/// minimum frame at 42 bytes, under both the generator's 64-byte
/// payload and 48-byte chaff sizes, so packet sizes survive the
/// round-trip exactly.
pub(crate) fn flow_tuple(id: FlowId) -> FiveTuple {
    let low = (id.0 & 0xFF) as u8;
    let high = ((id.0 >> 8) & 0xFF) as u8;
    let port = 40_000 + (id.0 & 0xFFFF) as u16;
    FiveTuple::udp_v4([10, 7, high, low], port, [192, 0, 2, 1], 22)
}

/// The true-pair test for verdicts over a world's own stream, which
/// keeps scenario ids: upstream `i`'s true downstream is flow `i`.
pub(crate) fn is_true_pair(pair: &PairId) -> bool {
    pair.upstream.0 == pair.flow.0
}

/// The true-pair test for verdicts over a capture of `spec`'s world.
/// The demux numbers flows in first-seen order, which need not match
/// the scenario's ids, so a pair's flow is translated back to its
/// scenario id through the injective tuple map first. Flows that carry
/// no scenario tuple never count as true pairs.
pub(crate) fn capture_truth<'a>(
    spec: &'a ScenarioSpec,
    flows: &'a [DemuxFlow],
) -> impl Fn(&PairId) -> bool + 'a {
    move |pair| {
        flows
            .iter()
            .find(|f| f.id == pair.flow)
            .and_then(|f| {
                (0..spec.suspicious_flows() as u64)
                    .map(FlowId)
                    .find(|id| flow_tuple(*id) == f.tuple)
            })
            .is_some_and(|id| id.0 == pair.upstream.0)
    }
}

/// Parses capture bytes as they arrive across `plan`'s wire layer: the
/// bytes corrupted and possibly truncated (into `mutated`), the
/// surviving records dropped, duplicated or skewed. Without a plan the
/// capture parses as-is.
pub(crate) fn wire_records<'a>(
    bytes: &'a [u8],
    plan: Option<&FaultPlan>,
    mutated: &'a mut Vec<u8>,
) -> Result<Box<dyn Iterator<Item = Result<CaptureRecord, IngestError>> + 'a>, IngestError> {
    Ok(match plan {
        Some(plan) => {
            mutated.extend_from_slice(bytes);
            plan.wire().mutate_bytes(mutated);
            Box::new(plan.wire().adapt(parse_capture(mutated)?))
        }
        None => Box::new(parse_capture(bytes)?),
    })
}

/// Merges the suspicious flows into one time-ordered event stream, as a
/// tap on the monitored link would deliver it.
pub(crate) fn merged_stream(suspicious: &[(FlowId, Flow)]) -> Vec<(FlowId, Packet)> {
    let mut events: Vec<(FlowId, Packet)> = suspicious
        .iter()
        .flat_map(|(id, flow)| flow.packets().iter().map(move |&p| (*id, p)))
        .collect();
    events.sort_by_key(|&(_, p)| p.timestamp());
    events
}

/// The flow-fault layer between a stream and the engine: with a plan,
/// every event passes through its injector (deletion, chaff bursts,
/// bounded extra delay); without one, events pass unchanged.
pub(crate) struct Channel {
    injector: Option<FlowFaultInjector>,
    /// Events the injector swallowed outright.
    pub(crate) swallowed: u64,
}

impl Channel {
    /// The channel of `plan`'s flow layer, or the identity.
    pub(crate) fn new(plan: Option<&FaultPlan>) -> Self {
        Channel {
            injector: plan.map(FaultPlan::flow_injector),
            swallowed: 0,
        }
    }

    /// Appends the deliveries one event turns into to `out`.
    pub(crate) fn apply(&mut self, flow: FlowId, packet: Packet, out: &mut Vec<(FlowId, Packet)>) {
        let before = out.len();
        match self.injector.as_mut() {
            Some(injector) => injector.apply(flow, packet, out),
            None => out.push((flow, packet)),
        }
        if out.len() == before {
            self.swallowed += 1;
        }
    }
}

/// Streams `events` through `channel` into `sink` and returns how many
/// deliveries reached it — the loop behind every in-memory replay, be
/// the sink a monitor or a cluster coordinator.
pub(crate) fn feed<E>(
    events: &[(FlowId, Packet)],
    channel: &mut Channel,
    mut sink: impl FnMut(FlowId, Packet) -> Result<(), E>,
) -> Result<u64, E> {
    let mut deliveries: Vec<(FlowId, Packet)> = Vec::new();
    let mut delivered = 0u64;
    for &(flow, packet) in events {
        deliveries.clear();
        channel.apply(flow, packet, &mut deliveries);
        for &(flow, packet) in &deliveries {
            sink(flow, packet)?;
            delivered += 1;
        }
    }
    Ok(delivered)
}

/// How a replay's verdicts score against its world's true pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Detection {
    /// True (upstream `i`, downstream `i`) pairs detected.
    pub true_positives: usize,
    /// Correlated verdicts on pairs that are not true pairs.
    pub false_positives: usize,
    /// True pairs that were not detected.
    pub missed: usize,
    /// Pairs that ended degraded (worker lost, stalled, or shed).
    pub degraded: usize,
}

impl Detection {
    /// Tallies correlated verdicts into true/false positives (per the
    /// caller's notion of a true pair) and counts degraded pairs.
    pub(crate) fn score<F>(spec: &ScenarioSpec, verdicts: &[Verdict], is_true_pair: F) -> Self
    where
        F: Fn(&PairId) -> bool,
    {
        let mut d = Detection::default();
        for v in verdicts {
            match v {
                Verdict::Correlated { pair, .. } if is_true_pair(pair) => d.true_positives += 1,
                Verdict::Correlated { .. } => d.false_positives += 1,
                Verdict::Degraded { .. } => d.degraded += 1,
                _ => {}
            }
        }
        d.missed = spec.upstreams.saturating_sub(d.true_positives);
        d
    }
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "detection:      {}/{} true pairs, {} false positives, {} missed, {} degraded",
            self.true_positives,
            self.true_positives + self.missed,
            self.false_positives,
            self.missed,
            self.degraded
        )
    }
}

/// Runs the spec over its own synthetic stream.
pub fn run_spec(
    spec: &ScenarioSpec,
    threshold: Option<u32>,
) -> Result<ScenarioOutcome, ScenarioRunError> {
    run_spec_with_stats(spec, threshold).map(|(outcome, _)| outcome)
}

/// [`run_spec`], also returning the monitor's final counters. Under the
/// deterministic schedule its cost counters — decodes run and skipped,
/// pairs cleared early — repeat exactly from run to run, like the
/// verdicts.
pub fn run_spec_with_stats(
    spec: &ScenarioSpec,
    threshold: Option<u32>,
) -> Result<(ScenarioOutcome, MonitorStats), ScenarioRunError> {
    let mut corpus = build_spec_corpus(spec, threshold, scenario_config())?;
    let mut channel = Channel::new(chaos_plan(spec).as_ref());
    let Ok(delivered) = feed(
        &merged_stream(&corpus.suspicious),
        &mut channel,
        |flow, packet| {
            corpus.monitor.ingest(flow, packet);
            Ok::<(), Infallible>(())
        },
    );
    let erasures = corpus.channel_erasures + channel.swallowed;
    let report = corpus.monitor.finish();
    let outcome = outcome_from(
        spec,
        delivered,
        erasures,
        &report.verdicts,
        None,
        is_true_pair,
    );
    Ok((outcome, report.stats))
}

/// Renders the spec's suspicious stream as classic-pcap bytes: each
/// suspicious flow rides its own 5-tuple, merged into one time-ordered
/// capture. The export is fully determined by the spec, so a capture
/// written today replays against correlators rebuilt from the same
/// spec tomorrow — that is how the `tests/data/sample.pcap` fixture
/// (the `wire` preset) works.
pub fn export_spec_pcap(spec: &ScenarioSpec) -> Result<Vec<u8>, ScenarioRunError> {
    let corpus = build_spec_corpus(spec, None, MonitorConfig::default())?;
    let tagged: Vec<_> = corpus
        .suspicious
        .iter()
        .map(|(id, flow)| (flow_tuple(*id), flow))
        .collect();
    let mut bytes = Vec::new();
    write_flows(&mut bytes, &tagged)?;
    Ok(bytes)
}

/// Replays capture bytes through a monitor rebuilt from the spec,
/// attributing verdicts back to scenario flow identities via the
/// shared 5-tuple mapping. The spec's chaos (if any) applies its flow
/// layer to the demuxed events; the capture bytes themselves are
/// replayed as-is (they already crossed whatever wire produced them).
pub fn run_spec_pcap(
    spec: &ScenarioSpec,
    bytes: &[u8],
    threshold: Option<u32>,
) -> Result<ScenarioOutcome, ScenarioRunError> {
    let corpus = build_spec_corpus(spec, threshold, scenario_config())?;
    let mut channel = Channel::new(chaos_plan(spec).as_ref());
    let replay = replay_records_with(
        parse_capture(bytes)?,
        corpus.monitor,
        ReplayClock::Fast,
        None,
        |flow, packet, out| channel.apply(flow, packet, out),
    );
    Ok(outcome_from(
        spec,
        replay.events,
        corpus.channel_erasures + channel.swallowed,
        &replay.verdicts,
        replay.stream_error.as_ref().map(ToString::to_string),
        capture_truth(spec, &replay.flows),
    ))
}

/// Packages verdicts into the canonical outcome.
fn outcome_from<F>(
    spec: &ScenarioSpec,
    events: u64,
    erasures: u64,
    verdicts: &[Verdict],
    stream_error: Option<String>,
    is_true_pair: F,
) -> ScenarioOutcome
where
    F: Fn(&PairId) -> bool,
{
    let detection = Detection::score(spec, verdicts, is_true_pair);
    let mut lines: Vec<VerdictLine> = verdicts
        .iter()
        .filter_map(|v| {
            let pair = v.pair()?;
            Some(VerdictLine {
                upstream: pair.upstream.0,
                flow: pair.flow.0,
                kind: v.terminal_kind()?,
            })
        })
        .collect();
    lines.sort_unstable();
    ScenarioOutcome {
        digest: spec.digest(),
        events,
        true_positives: detection.true_positives as u32,
        false_positives: detection.false_positives as u32,
        missed: detection.missed as u32,
        degraded: detection.degraded as u32,
        erasures,
        verdicts: lines,
        stream_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use stepstone_scenario::preset;

    #[test]
    fn quick_smoke_detects_all_true_pairs() {
        let spec = preset("quick-smoke").expect("preset");
        let outcome = run_spec(&spec, None).expect("runs");
        assert_eq!(outcome.true_positives, spec.upstreams as u32);
        assert_eq!(outcome.missed, 0);
        assert!(outcome.stream_error.is_none());
        // Every candidate pair reached a terminal class.
        assert_eq!(outcome.verdicts.len(), spec.candidate_pairs());
    }

    #[test]
    fn verdict_digest_is_stable_across_runs() {
        let spec = preset("quick-smoke").expect("preset");
        let a = run_spec(&spec, None).expect("first run");
        let b = run_spec(&spec, None).expect("second run");
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.verdict_digest(), b.verdict_digest());
    }

    #[test]
    fn chaos_preset_runs_channel_faults_only() {
        let spec = preset("deletion-harsh").expect("preset");
        let outcome = run_spec(&spec, None).expect("runs");
        // The channel may cost detections, never engine integrity:
        // runtime faults are not armed, so nothing can degrade.
        assert_eq!(outcome.degraded, 0);
        let again = run_spec(&spec, None).expect("second run");
        assert_eq!(outcome, again, "channel faults are seed-deterministic");
    }

    #[test]
    fn pcap_round_trip_matches_in_memory_classification() {
        let mut spec = preset("quick-smoke").expect("preset");
        spec.chaos = None;
        let bytes = export_spec_pcap(&spec).expect("export");
        let outcome = run_spec_pcap(&spec, &bytes, None).expect("replay");
        assert_eq!(outcome.true_positives, spec.upstreams as u32);
        assert_eq!(outcome.missed, 0);
    }

    #[test]
    fn threshold_override_must_stay_below_bits() {
        let spec = preset("quick-smoke").expect("preset");
        let err = run_spec(&spec, Some(64)).expect_err("threshold too wide");
        assert!(matches!(err, ScenarioRunError::Invalid(_)), "{err:?}");
    }

    #[test]
    fn backend_and_profile_names_stay_in_lockstep() {
        // The scenario crate is dependency-free, so its Backend and
        // ChaosProfile mirror the real enums by name; pin the lists.
        for (scenario, core) in stepstone_scenario::Backend::ALL
            .iter()
            .zip(BackendKind::ALL.iter())
        {
            assert_eq!(scenario.name(), core.name());
        }
        for (scenario, chaos) in [
            (ChaosProfile::Mild, Profile::Mild),
            (ChaosProfile::Harsh, Profile::Harsh),
            (ChaosProfile::Adversarial, Profile::Adversarial),
        ] {
            assert_eq!(scenario.name(), format!("{chaos}"));
            // chaos_key inverts chaos_plan, so a --chaos plan rides a spec.
            let mut spec = preset("quick-smoke").expect("preset");
            spec.chaos = Some(chaos_key(&FaultPlan::new(44, chaos)));
            assert_eq!(chaos_plan(&spec), Some(FaultPlan::new(44, chaos)));
        }
        for (scenario, core) in stepstone_scenario::Decode::ALL
            .iter()
            .zip(stepstone_core::DecodeMode::ALL.iter())
        {
            assert_eq!(scenario.name(), core.name());
        }
    }

    /// The acceptance A/B for this layer: on the `deletion-harsh`
    /// preset the strict decoder (paper §3.2 abort-on-empty rule) loses
    /// the true pairs, while `decode = robust` recovers at least 3 of 4
    /// at zero false positives — and stays seed-deterministic.
    #[test]
    fn robust_decode_rescues_deletion_harsh_pairs() {
        let spec = preset("deletion-harsh").expect("preset");
        let strict = run_spec(&spec, None).expect("strict run");
        assert_eq!(strict.false_positives, 0, "{strict}");

        let mut robust_spec = spec.clone();
        robust_spec.decode = stepstone_scenario::Decode::Robust;
        let robust = run_spec(&robust_spec, None).expect("robust run");
        assert!(
            robust.true_positives >= 3,
            "robust decode must recover >=3/4 true pairs: strict {strict} robust {robust}"
        );
        assert_eq!(robust.false_positives, 0, "{robust}");
        assert!(
            robust.true_positives > strict.true_positives,
            "robust must beat strict on the deletion channel: strict {strict} robust {robust}"
        );
        assert!(robust.erasures > 0, "the channel deletes packets: {robust}");

        let again = run_spec(&robust_spec, None).expect("second robust run");
        assert_eq!(robust, again, "robust runs are seed-deterministic");
    }

    #[test]
    fn mixed_traffic_generates_distinct_flow_families() {
        let spec = preset("tcplib-mix").expect("preset");
        let corpus = build_spec_corpus(&spec, None, MonitorConfig::default()).expect("corpus");
        assert_eq!(corpus.suspicious.len(), spec.suspicious_flows());
        assert_eq!(corpus.correlators.len(), spec.upstreams);
    }

    #[test]
    fn tuple_mapping_is_injective_over_the_stream() {
        let spec = preset("multi-flow").expect("preset");
        let flows = spec.suspicious_flows() as u64;
        let tuples: BTreeSet<_> = (0..flows).map(|i| flow_tuple(FlowId(i))).collect();
        assert_eq!(tuples.len() as u64, flows);
    }
}
