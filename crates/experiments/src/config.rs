//! Experiment configuration (the paper's Table 1, plus scaling).

use stepstone_flow::TimeDelta;
use stepstone_scenario::ScenarioSpec;
use stepstone_traffic::Seed;
use stepstone_watermark::WatermarkParams;

/// How much of the paper-scale experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: for unit/integration tests and CI smoke runs (seconds).
    Quick,
    /// Reduced corpus and sampled false-positive pairs (minutes on one
    /// core) — the default for `repro`.
    Default,
    /// The paper's setup: 91 traces ≥ 1000 packets, all 91 × 90
    /// false-positive pairs, full parameter grids.
    Full,
}

/// All experiment parameters (Table 1) plus dataset scaling.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// The scale this configuration was built for.
    pub scale: Scale,
    /// Master seed: corpora, watermarks, keys, and attacks all derive
    /// from it.
    pub seed: Seed,
    /// Number of traces in the corpus.
    pub corpus: usize,
    /// Minimum packets per trace.
    pub min_packets: usize,
    /// Number of (upstream, unrelated-downstream) pairs per
    /// false-positive grid point; `None` = all ordered pairs.
    pub fpr_pairs: Option<usize>,
    /// The `Δ` grid (Table 1: 0–8 s, also the perturbation bound).
    pub deltas: Vec<TimeDelta>,
    /// The chaff-rate grid (Table 1: 0–5 pkt/s in 0.5 steps).
    pub chaff_rates: Vec<f64>,
    /// Fixed `Δ` for the chaff sweeps (Figs 3, 5, 7, 9: 7 s).
    pub fixed_delta: TimeDelta,
    /// Fixed chaff rate for the delta sweeps (Figs 4, 6, 8, 10: 3).
    pub fixed_chaff: f64,
    /// Watermark scheme parameters (24 bits, r = 4, threshold 7).
    pub params: WatermarkParams,
    /// Zhang-Guan deviation threshold (3 s).
    pub zg_threshold: TimeDelta,
    /// Optimal algorithm cost bound (10⁶ accesses).
    pub cost_bound: u64,
    /// Use the §4.2 synthetic tcplib corpus instead of the
    /// Bell-Labs-like interactive corpus.
    pub synthetic: bool,
}

impl ExperimentConfig {
    /// Builds the configuration for a [`Scale`], with Table 1 values for
    /// everything the scale does not shrink.
    pub fn new(scale: Scale) -> Self {
        let (corpus, min_packets, fpr_pairs, deltas, chaff_rates) = match scale {
            Scale::Quick => (6, 400, Some(12), vec![1i64, 4, 7], vec![0.0, 1.0, 3.0]),
            Scale::Default => (
                24,
                1000,
                Some(120),
                (0..=8).collect(),
                (0..=10).map(|k| k as f64 * 0.5).collect(),
            ),
            Scale::Full => (
                91,
                1000,
                None,
                (0..=8).collect(),
                (0..=10).map(|k| k as f64 * 0.5).collect(),
            ),
        };
        ExperimentConfig {
            scale,
            seed: Seed::new(0x5EED_0001),
            corpus,
            min_packets,
            fpr_pairs,
            deltas: deltas.into_iter().map(TimeDelta::from_secs).collect(),
            chaff_rates,
            fixed_delta: TimeDelta::from_secs(7),
            fixed_chaff: 3.0,
            params: WatermarkParams::paper(),
            zg_threshold: TimeDelta::from_secs(3),
            cost_bound: 1_000_000,
            synthetic: false,
        }
    }

    /// Builder-style seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: Seed) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style switch to the §4.2 synthetic tcplib corpus.
    #[must_use]
    pub fn with_synthetic(mut self) -> Self {
        self.synthetic = true;
        self
    }

    /// A checked-in scenario preset, reseeded with this configuration's
    /// seed.
    pub(crate) fn preset(&self, name: &str) -> ScenarioSpec {
        #[expect(
            clippy::expect_used,
            reason = "checked-in preset texts parse; pinned by the preset tests"
        )]
        let mut spec = stepstone_scenario::preset(name).expect("checked-in presets parse");
        spec.seed = self.seed.value();
        spec
    }

    /// The `wire` preset: the scale-independent world behind
    /// `tests/data/sample.pcap`.
    pub fn wire_spec(&self) -> ScenarioSpec {
        self.preset("wire")
    }

    /// The `monitor` preset sized for this scale — 2, 4 or 8 upstreams
    /// and as many decoys: quick stays interactive, full approaches
    /// the paper's all-pairs setup.
    pub fn monitor_spec(&self) -> ScenarioSpec {
        let mut spec = self.preset("monitor");
        let flows = match self.scale {
            Scale::Quick => 2,
            Scale::Default => 4,
            Scale::Full => 8,
        };
        spec.upstreams = flows;
        spec.decoys = flows;
        spec
    }

    /// Number of false-positive pairs actually evaluated per point.
    pub fn fpr_pair_count(&self) -> usize {
        let all = self.corpus * self.corpus.saturating_sub(1);
        match self.fpr_pairs {
            Some(k) => k.min(all),
            None => all,
        }
    }

    /// The (upstream, downstream) index pairs for false-positive runs:
    /// a deterministic round-robin so sampled subsets spread evenly over
    /// the corpus.
    pub fn fpr_index_pairs(&self) -> Vec<(usize, usize)> {
        let n = self.corpus;
        let want = self.fpr_pair_count();
        let mut pairs = Vec::with_capacity(want);
        'outer: for k in 1..n.max(1) {
            for i in 0..n {
                pairs.push((i, (i + k) % n));
                if pairs.len() >= want {
                    break 'outer;
                }
            }
        }
        pairs
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::new(Scale::Default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_table_1() {
        let c = ExperimentConfig::new(Scale::Full);
        assert_eq!(c.corpus, 91);
        assert_eq!(c.min_packets, 1000);
        assert_eq!(c.deltas.len(), 9);
        assert_eq!(c.chaff_rates.len(), 11);
        assert_eq!(c.fixed_delta, TimeDelta::from_secs(7));
        assert_eq!(c.fixed_chaff, 3.0);
        assert_eq!(c.params.bits, 24);
        assert_eq!(c.zg_threshold, TimeDelta::from_secs(3));
        assert_eq!(c.cost_bound, 1_000_000);
        assert_eq!(c.fpr_pair_count(), 91 * 90);
    }

    #[test]
    fn quick_scale_is_small() {
        let c = ExperimentConfig::new(Scale::Quick);
        assert!(c.corpus <= 8);
        assert!(c.fpr_pair_count() <= 12);
    }

    #[test]
    fn fpr_pairs_are_distinct_ordered_pairs() {
        let c = ExperimentConfig::new(Scale::Quick);
        let pairs = c.fpr_index_pairs();
        assert_eq!(pairs.len(), c.fpr_pair_count());
        for &(i, j) in &pairs {
            assert_ne!(i, j);
            assert!(i < c.corpus && j < c.corpus);
        }
        let mut dedup = pairs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), pairs.len());
    }

    #[test]
    fn full_fpr_pairs_cover_everything() {
        let mut c = ExperimentConfig::new(Scale::Quick);
        c.fpr_pairs = None;
        let pairs = c.fpr_index_pairs();
        assert_eq!(pairs.len(), c.corpus * (c.corpus - 1));
    }

    #[test]
    fn builders_apply() {
        let c = ExperimentConfig::new(Scale::Quick)
            .with_seed(Seed::new(9))
            .with_synthetic();
        assert_eq!(c.seed, Seed::new(9));
        assert!(c.synthetic);
    }

    #[test]
    fn presets_take_the_config_seed_and_the_monitor_takes_its_scale() {
        let quick = ExperimentConfig::new(Scale::Quick).with_seed(Seed::new(9));
        let full = ExperimentConfig::new(Scale::Full).with_seed(Seed::new(9));
        assert_eq!(quick.wire_spec(), full.wire_spec());
        assert_eq!(quick.wire_spec().seed, 9);
        let monitor = quick.monitor_spec();
        assert_eq!((monitor.upstreams, monitor.decoys), (2, 2));
        assert_eq!(full.monitor_spec().upstreams, 8);
        // The monitor world is the paper's Table 1 headline regime.
        assert_eq!(monitor.delta_ms, quick.fixed_delta.as_millis() as u64);
        assert_eq!(monitor.chaff.rate(), quick.fixed_chaff);
        assert_eq!(monitor.wm_bits, quick.params.bits);
        assert_eq!(monitor.wm_threshold, quick.params.threshold);
    }
}
