//! Dataset construction: corpora, watermarks, and attacked flows.

use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
use stepstone_flow::{Flow, TimeDelta};
use stepstone_traffic::{corpus, Seed};
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

use crate::config::ExperimentConfig;

/// One corpus trace with its embedded watermark: what the defender
/// knows.
#[derive(Debug, Clone)]
pub struct PreparedFlow {
    /// The unmarked origin flow (layout derivation input).
    pub original: Flow,
    /// The watermarked flow as sent into the network.
    pub marked: Flow,
    /// The per-flow watermarker (secret key + Table 1 parameters).
    pub marker: IpdWatermarker,
    /// The per-flow random watermark (paper §4.1: "for each trace, we
    /// first embed a randomly generated watermark").
    pub watermark: Watermark,
}

/// The experiment dataset: every trace watermarked and ready.
#[derive(Debug, Clone)]
pub struct Dataset {
    flows: Vec<PreparedFlow>,
}

impl Dataset {
    /// Builds the dataset for a configuration (deterministic in
    /// `cfg.seed`).
    ///
    /// # Panics
    ///
    /// Panics if a corpus trace cannot host the watermark layout, which
    /// would mean the configuration's `min_packets` is inconsistent with
    /// its watermark parameters.
    pub fn build(cfg: &ExperimentConfig) -> Self {
        let raw = if cfg.synthetic {
            corpus::tcplib_corpus(cfg.corpus, cfg.min_packets, cfg.seed.child(0x7C9))
        } else {
            corpus::bell_labs_like(cfg.corpus, cfg.min_packets, cfg.seed.child(0xBE11))
        };
        let flows = raw
            .into_iter()
            .enumerate()
            .map(|(i, original)| prepare_flow(original, cfg.params, cfg.seed.child(i as u64)))
            .collect();
        Dataset { flows }
    }

    /// The prepared traces.
    pub fn flows(&self) -> &[PreparedFlow] {
        &self.flows
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` for an empty dataset (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

/// Watermarks one trace with a per-flow key and random watermark.
fn prepare_flow(original: Flow, params: WatermarkParams, seed: Seed) -> PreparedFlow {
    let key = WatermarkKey::new(seed.child(1).value());
    let marker = IpdWatermarker::new(key, params);
    let watermark = Watermark::random(params.bits, &mut key.rng(0x3A7));
    #[expect(
        clippy::expect_used,
        reason = "corpus generators emit flows long enough for the layout by construction"
    )]
    let marked = marker
        .embed(&original, &watermark)
        .expect("corpus traces are sized to host the watermark layout");
    PreparedFlow {
        original,
        marked,
        marker,
        watermark,
    }
}

/// The attacked downstream flow for one grid point: uniform timing
/// perturbation bounded by `delta` (the paper sets the perturbation
/// bound equal to the matcher's `Δ`) followed by Poisson chaff at
/// `chaff_rate`. Deterministic in `seed`.
pub fn attacked(marked: &Flow, delta: TimeDelta, chaff_rate: f64, seed: Seed) -> Flow {
    AdversaryPipeline::new()
        .then(UniformPerturbation::new(delta))
        .then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff_rate }))
        .apply(marked, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    fn quick() -> ExperimentConfig {
        ExperimentConfig::new(Scale::Quick)
    }

    #[test]
    fn build_is_deterministic_and_sized() {
        let cfg = quick();
        let a = Dataset::build(&cfg);
        let b = Dataset::build(&cfg);
        assert_eq!(a.len(), cfg.corpus);
        assert!(!a.is_empty());
        for (x, y) in a.flows().iter().zip(b.flows()) {
            assert_eq!(x.original, y.original);
            assert_eq!(x.marked, y.marked);
            assert_eq!(x.watermark, y.watermark);
        }
    }

    #[test]
    fn flows_have_distinct_keys_and_watermarks() {
        let ds = Dataset::build(&quick());
        for i in 0..ds.len() {
            for j in i + 1..ds.len() {
                let (a, b) = (&ds.flows()[i], &ds.flows()[j]);
                assert_ne!(a.marker.key(), b.marker.key(), "{i} vs {j}");
                assert_ne!(a.watermark, b.watermark, "{i} vs {j}");
            }
        }
    }

    #[test]
    fn marked_flows_are_watermarked_versions_of_originals() {
        let ds = Dataset::build(&quick());
        for f in ds.flows() {
            assert_eq!(f.marked.len(), f.original.len());
            for i in 0..f.original.len() {
                assert!(f.marked.timestamp(i) >= f.original.timestamp(i));
            }
        }
    }

    #[test]
    fn synthetic_corpus_differs() {
        let cfg = quick();
        let real = Dataset::build(&cfg);
        let synth = Dataset::build(&cfg.clone().with_synthetic());
        assert_ne!(real.flows()[0].original, synth.flows()[0].original);
    }

    #[test]
    fn attacked_applies_both_countermeasures() {
        let ds = Dataset::build(&quick());
        let marked = &ds.flows()[0].marked;
        let out = attacked(marked, TimeDelta::from_secs(4), 2.0, Seed::new(1));
        assert!(out.chaff_count() > 0);
        assert_eq!(out.payload_indices().len(), marked.len());
        // Zero point: no perturbation, no chaff.
        let clean = attacked(marked, TimeDelta::ZERO, 0.0, Seed::new(1));
        assert_eq!(&clean, marked);
    }
}
