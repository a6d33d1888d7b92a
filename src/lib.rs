//! **stepstone** — active timing-based correlation of perturbed traffic
//! flows with chaff packets.
//!
//! A from-scratch implementation of Peng, Ning, Reeves & Wang (ICDCS
//! 2005): trace interactive stepping-stone attacks by embedding a secret
//! inter-packet-delay watermark into the attacker's upstream flow and
//! detecting the *best watermark* over order-consistent packet matchings
//! of suspicious flows — robust to bounded timing perturbation **and**
//! chaff packets simultaneously.
//!
//! This crate is a facade over the workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`flow`] | `stepstone-flow` | packets, flows, time types, FIFO semantics |
//! | [`traffic`] | `stepstone-traffic` | interactive/tcplib traffic generation, trace I/O |
//! | [`netsim`] | `stepstone-netsim` | discrete-event stepping-stone chain simulator |
//! | [`adversary`] | `stepstone-adversary` | perturbation, chaff, loss, re-packetization |
//! | [`watermark`] | `stepstone-watermark` | the IPD probabilistic watermark |
//! | [`matching`] | `stepstone-matching` | matching sets under the timing constraint |
//! | [`core`] | `stepstone-core` | the four best-watermark algorithms |
//! | [`backends`] | `stepstone-backends` | the correlator-backend seam + passive Elices/game backends |
//! | [`baselines`] | `stepstone-baselines` | basic WM, Zhang-Guan, IPD correlation, packet counting |
//! | [`stats`] | `stepstone-stats` | rates, cost summaries, figures |
//! | [`experiments`] | `stepstone-experiments` | the paper's tables and figures |
//! | [`monitor`] | `stepstone-monitor` | online multi-flow correlation engine |
//! | [`ingest`] | `stepstone-ingest` | pcap/pcapng wire ingestion, flow demux, replay clock |
//! | [`telemetry`] | `stepstone-telemetry` | lock-free metrics, tracing spans, `/metrics` endpoint |
//! | [`chaos`] | `stepstone-chaos` | seed-deterministic wire/flow/runtime fault injection |
//!
//! # Quickstart
//!
//! ```
//! use stepstone::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The attacker's interactive session, observed at the first hop.
//! let session = SessionGenerator::new(InteractiveProfile::ssh())
//!     .generate(1000, Timestamp::ZERO, &mut Seed::new(7).rng(0));
//!
//! // Defender embeds a secret 24-bit watermark.
//! let marker = IpdWatermarker::new(WatermarkKey::new(0x5EC2E7), WatermarkParams::paper());
//! let watermark = Watermark::random(24, &mut WatermarkKey::new(1).rng(1));
//! let marked = marker.embed(&session, &watermark)?;
//!
//! // The attacker perturbs timing (≤ 7s) and injects chaff (3 pkt/s).
//! let suspicious = AdversaryPipeline::new()
//!     .then(UniformPerturbation::new(TimeDelta::from_secs(7)))
//!     .then(ChaffInjector::new(ChaffModel::Poisson { rate: 3.0 }))
//!     .apply(&marked, Seed::new(99));
//!
//! // The defender still finds the watermark.
//! let correlator = WatermarkCorrelator::new(
//!     marker, watermark, TimeDelta::from_secs(7), Algorithm::GreedyPlus,
//! );
//! let outcome = correlator.prepare(&session, &marked)?.correlate(&suspicious);
//! assert!(outcome.correlated);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]
#![warn(missing_docs)]

pub use stepstone_adversary as adversary;
pub use stepstone_backends as backends;
pub use stepstone_baselines as baselines;
pub use stepstone_chaos as chaos;
pub use stepstone_core as core;
pub use stepstone_experiments as experiments;
pub use stepstone_flow as flow;
pub use stepstone_ingest as ingest;
pub use stepstone_matching as matching;
pub use stepstone_monitor as monitor;
pub use stepstone_netsim as netsim;
pub use stepstone_scenario as scenario;
pub use stepstone_stats as stats;
pub use stepstone_telemetry as telemetry;
pub use stepstone_traffic as traffic;
pub use stepstone_watermark as watermark;

/// The most common imports in one place.
pub mod prelude {
    pub use stepstone_adversary::{
        AdversaryPipeline, ChaffInjector, ChaffModel, PacketLoss, Repacketizer, Transform,
        UniformPerturbation,
    };
    pub use stepstone_baselines::{
        BasicWatermarkDetector, IpdCorrelationDetector, PacketCountingDetector, ZhangGuanDetector,
    };
    pub use stepstone_core::{
        Algorithm, BackendKind, BoundCorrelator, Correlation, WatermarkCorrelator,
    };
    pub use stepstone_flow::{Flow, FlowBuilder, Packet, Provenance, TimeDelta, Timestamp};
    pub use stepstone_ingest::{
        parse_capture, replay_capture, write_flows, FiveTuple, FlowDemux, PcapWriter, ReplayClock,
    };
    pub use stepstone_monitor::{FlowId, Monitor, MonitorConfig, UpstreamId, Verdict};
    pub use stepstone_netsim::SteppingStoneChain;
    pub use stepstone_traffic::{
        corpus, FlowSummary, InteractiveProfile, PoissonProcess, Seed, SessionGenerator,
    };
    pub use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};
}
