//! The five schemes every figure compares.

use stepstone_baselines::{BasicWatermarkDetector, ZhangGuanDetector};
use stepstone_core::{Algorithm, WatermarkCorrelator};
use stepstone_flow::{Flow, TimeDelta};

use crate::config::ExperimentConfig;
use crate::dataset::PreparedFlow;

/// A correlation scheme under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The basic watermark scheme of ref \[7\] ("WM" in the figures).
    BasicWm,
    /// Algorithm 2.
    Greedy,
    /// Algorithm 3.
    GreedyPlus,
    /// Algorithm 4 (cost-bounded).
    Optimal,
    /// The passive scheme of ref \[11\].
    ZhangGuan,
}

/// All schemes in figure order.
pub const SCHEMES: [Scheme; 5] = [
    Scheme::BasicWm,
    Scheme::Greedy,
    Scheme::GreedyPlus,
    Scheme::Optimal,
    Scheme::ZhangGuan,
];

impl Scheme {
    /// The label used in figures and CSV.
    pub const fn label(&self) -> &'static str {
        match self {
            Scheme::BasicWm => "wm",
            Scheme::Greedy => "greedy",
            Scheme::GreedyPlus => "greedy+",
            Scheme::Optimal => "optimal",
            Scheme::ZhangGuan => "zhang",
        }
    }

    /// Position in [`SCHEMES`] (array indexing for results).
    pub fn index(&self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "SCHEMES enumerates every variant; a miss is a compile-time-sized table bug"
        )]
        let index = SCHEMES
            .iter()
            .position(|s| s == self)
            .expect("SCHEMES contains every variant");
        index
    }

    /// Runs this scheme on one (upstream, suspicious) pair, returning
    /// the decision and the cost in packet accesses.
    pub fn correlate(
        &self,
        up: &PreparedFlow,
        suspicious: &Flow,
        delta: TimeDelta,
        cfg: &ExperimentConfig,
    ) -> (bool, u64) {
        match self {
            Scheme::BasicWm => {
                #[expect(
                    clippy::expect_used,
                    reason = "dataset flows were embedded with this layout, so binding cannot fail"
                )]
                let d = BasicWatermarkDetector::new(up.marker, up.watermark.clone(), &up.original)
                    .expect("prepared flows host the layout");
                let out = d.correlate(suspicious);
                (out.correlated, out.cost)
            }
            Scheme::ZhangGuan => {
                let d = ZhangGuanDetector::new(delta, cfg.zg_threshold);
                // Passive scheme: observes the marked upstream flow.
                let out = d.correlate(&up.marked, suspicious);
                (out.correlated, out.cost)
            }
            Scheme::Greedy | Scheme::GreedyPlus | Scheme::Optimal => {
                let algorithm = match self {
                    Scheme::Greedy => Algorithm::Greedy,
                    Scheme::GreedyPlus => Algorithm::GreedyPlus,
                    _ => Algorithm::Optimal {
                        cost_bound: cfg.cost_bound,
                    },
                };
                let c = WatermarkCorrelator::new(up.marker, up.watermark.clone(), delta, algorithm);
                #[expect(
                    clippy::expect_used,
                    reason = "dataset flows were embedded with this layout, so prepare cannot reject them"
                )]
                let prepared = c
                    .prepare(&up.original, &up.marked)
                    .expect("prepared flows host the layout");
                let out = prepared.correlate(suspicious);
                (out.correlated, out.cost)
            }
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::dataset::{attacked, Dataset};
    use stepstone_traffic::Seed;

    #[test]
    fn labels_and_indices_are_consistent() {
        for (i, s) in SCHEMES.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(!s.label().is_empty());
            assert_eq!(s.to_string(), s.label());
        }
    }

    #[test]
    fn every_scheme_detects_the_trivial_self_pair() {
        let cfg = ExperimentConfig::new(Scale::Quick);
        let ds = Dataset::build(&cfg);
        let up = &ds.flows()[0];
        // Mild attack so even the fragile baselines have a chance.
        let suspicious = attacked(&up.marked, TimeDelta::from_millis(500), 0.0, Seed::new(4));
        for s in SCHEMES {
            let (correlated, cost) =
                s.correlate(up, &suspicious, TimeDelta::from_millis(500), &cfg);
            assert!(correlated, "{s} missed the near-identity pair");
            assert!(cost > 0, "{s} reported zero cost");
        }
    }

    #[test]
    fn schemes_reject_far_apart_flows() {
        let cfg = ExperimentConfig::new(Scale::Quick);
        let ds = Dataset::build(&cfg);
        let up = &ds.flows()[0];
        let far = up.marked.shifted(TimeDelta::from_secs(1_000_000));
        for s in [
            Scheme::Greedy,
            Scheme::GreedyPlus,
            Scheme::Optimal,
            Scheme::ZhangGuan,
        ] {
            let (correlated, _) = s.correlate(up, &far, TimeDelta::from_secs(7), &cfg);
            assert!(!correlated, "{s} matched a disjoint flow");
        }
    }
}
