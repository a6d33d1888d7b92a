//! The load generator: a [`ScenarioSpec`] becomes upstream correlators
//! to bind and a classic-pcap capture to replay.
//!
//! This mirrors the scenario runner's corpus builder in
//! `stepstone-experiments` (`scenario_run::build_spec_corpus`, which is
//! crate-private) step for step, so the capture written here is
//! byte-identical to what `repro scenario` exports for the same spec —
//! `tests/equivalence.rs` pins that. Unlike the original, it keeps the
//! binding inputs instead of a ready monitor: binding correlators and
//! starting the monitor are the program's set-up, which the benchmark
//! times on its own.

use std::fmt;

use stepstone_adversary::{
    AdversaryPipeline, ChaffInjector, ChaffModel, PacketLoss, Repacketizer, UniformPerturbation,
};
use stepstone_core::{Algorithm, BackendKind, BoundCorrelator, DecodeOptions, WatermarkCorrelator};
use stepstone_flow::{Flow, TimeDelta, Timestamp};
use stepstone_ingest::{FiveTuple, IngestError};
use stepstone_monitor::{FlowId, MonitorConfig, UpstreamId};
use stepstone_scenario::{Backend, Chaff, Decode, Repacketize, ScenarioSpec, Traffic};
use stepstone_traffic::corpus::tcplib_corpus;
use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{
    IpdWatermarker, Watermark, WatermarkError, WatermarkKey, WatermarkParams,
};

/// What can go wrong generating a workload's inputs.
#[derive(Debug)]
pub enum CorpusError {
    /// The spec's flows cannot carry its watermark.
    Watermark(WatermarkError),
    /// Writing the capture failed.
    Ingest(IngestError),
    /// The spec asks for something the benchmark does not model.
    Unsupported(&'static str),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Watermark(e) => write!(f, "corpus synthesis failed: {e}"),
            CorpusError::Ingest(e) => write!(f, "capture writing failed: {e}"),
            CorpusError::Unsupported(what) => write!(f, "unsupported workload: {what}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<WatermarkError> for CorpusError {
    fn from(e: WatermarkError) -> Self {
        CorpusError::Watermark(e)
    }
}

impl From<IngestError> for CorpusError {
    fn from(e: IngestError) -> Self {
        CorpusError::Ingest(e)
    }
}

/// One watermarked upstream: everything binding its correlator needs.
pub struct Upstream {
    /// The upstream's monitor identity.
    pub id: UpstreamId,
    correlator: WatermarkCorrelator,
    original: Flow,
    marked: Flow,
}

/// A workload's generated inputs.
pub struct Corpus {
    /// The spec the corpus was generated from.
    pub spec: ScenarioSpec,
    /// The watermarked upstreams, in id order.
    pub upstreams: Vec<Upstream>,
    /// The suspicious flows keyed by scenario flow id: the attacked
    /// downstream of upstream `i` is flow `i`, decoys follow.
    pub suspicious: Vec<(FlowId, Flow)>,
    backend: BackendKind,
    decode: DecodeOptions,
}

/// The 5-tuple a scenario flow travels on in the capture. A copy of
/// the experiments crate's flow→tuple map, which is crate-private;
/// injective over the 16-bit flow ids a scenario can have.
pub fn flow_tuple(id: FlowId) -> FiveTuple {
    let low = (id.0 & 0xFF) as u8;
    let high = ((id.0 >> 8) & 0xFF) as u8;
    let port = 40_000 + (id.0 & 0xFFFF) as u16;
    FiveTuple::udp_v4([10, 7, high, low], port, [192, 0, 2, 1], 22)
}

fn params(spec: &ScenarioSpec) -> WatermarkParams {
    WatermarkParams {
        bits: spec.wm_bits,
        redundancy: spec.wm_redundancy,
        offset: spec.wm_offset,
        adjustment: TimeDelta::from_millis(spec.wm_adjustment_ms as i64),
        threshold: spec.wm_threshold,
    }
}

/// One suspicious flow of the spec's traffic mix.
fn generate_flow(spec: &ScenarioSpec, index: usize, decoy: bool, seed: Seed) -> Flow {
    let interactive = |profile: InteractiveProfile| {
        SessionGenerator::new(profile).generate(spec.packets, Timestamp::ZERO, &mut seed.rng(0))
    };
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

/// The spec's adversary pipeline: perturbation, chaff, loss, then
/// repacketization.
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

impl Corpus {
    /// Generates the spec's upstreams and suspicious flows.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Unsupported`] for a spec with a chaos channel
    /// (its faults act between demux and engine, which the benchmark
    /// does not model), and [`CorpusError::Watermark`] when the flows
    /// cannot carry the watermark.
    pub fn generate(spec: &ScenarioSpec) -> Result<Corpus, CorpusError> {
        if spec.chaos.is_some() {
            return Err(CorpusError::Unsupported("chaos channels are not replayed"));
        }
        let params = params(spec);
        let backend = match spec.backend {
            Backend::Paper => BackendKind::Paper,
            Backend::Elices => BackendKind::Elices,
            Backend::Game => BackendKind::Game,
        };
        let decode = match spec.decode {
            Decode::Strict => DecodeOptions::strict(),
            Decode::Robust => DecodeOptions::robust(spec.erasure_budget),
        };
        let seed = Seed::new(spec.seed);
        let delta = TimeDelta::from_millis(spec.delta_ms as i64);
        let pipeline = adversary(spec);
        let mut upstreams = Vec::with_capacity(spec.upstreams);
        let mut suspicious = Vec::with_capacity(spec.suspicious_flows());
        for i in 0..spec.upstreams {
            let branch = seed.child(i as u64);
            let original = generate_flow(spec, i, false, branch.child(0));
            let marker = IpdWatermarker::new(WatermarkKey::new(branch.child(1).value()), params);
            let watermark = Watermark::random(
                params.bits,
                &mut WatermarkKey::new(branch.child(2).value()).rng(1),
            );
            let marked = marker.embed(&original, &watermark)?;
            let correlator =
                WatermarkCorrelator::new(marker, watermark, delta, Algorithm::GreedyPlus);
            suspicious.push((FlowId(i as u64), pipeline.apply(&marked, branch.child(3))));
            upstreams.push(Upstream {
                id: UpstreamId(i as u64),
                correlator,
                original,
                marked,
            });
        }
        for d in 0..spec.decoys {
            let branch = seed.child(0x1000 + d as u64);
            let decoy = pipeline.apply(
                &generate_flow(spec, spec.upstreams + d, true, branch.child(0)),
                branch.child(1),
            );
            suspicious.push((FlowId((spec.upstreams + d) as u64), decoy));
        }
        Ok(Corpus {
            spec: spec.clone(),
            upstreams,
            suspicious,
            backend,
            decode,
        })
    }

    /// Renders the suspicious flows as one classic-pcap capture,
    /// interleaved in timestamp order.
    ///
    /// # Errors
    ///
    /// Any error of the pcap writer.
    pub fn capture(&self) -> Result<Vec<u8>, CorpusError> {
        let tagged: Vec<_> = self
            .suspicious
            .iter()
            .map(|(id, flow)| (flow_tuple(*id), flow))
            .collect();
        let mut bytes = Vec::new();
        stepstone_ingest::write_flows(&mut bytes, &tagged)?;
        Ok(bytes)
    }

    /// Binds one upstream's correlator with the spec's backend, decode
    /// mode and chaff rate — the program's per-upstream set-up.
    ///
    /// # Errors
    ///
    /// The binding's watermark error.
    pub fn bind(&self, upstream: &Upstream) -> Result<BoundCorrelator, WatermarkError> {
        upstream.correlator.bind_backend_with(
            self.backend,
            self.decode,
            self.spec.chaff.rate(),
            &upstream.original,
            &upstream.marked,
        )
    }

    /// The engine configuration of a scenario run: the spec's shards
    /// and decode batch, with the deterministic schedule so the work
    /// done is a pure function of the capture.
    pub fn monitor_config(&self) -> MonitorConfig {
        MonitorConfig::default()
            .with_shards(self.spec.shards)
            .with_decode_batch(self.spec.decode_batch)
            .with_deterministic_schedule()
    }
}
