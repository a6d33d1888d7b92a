//! Diagnostics: distributions behind the headline rates.
//!
//! The figures report only rates and mean costs; these runners expose
//! the distributions that explain them — the best-watermark Hamming
//! histograms (which show why Greedy+'s decisions are threshold-
//! insensitive) and the matching-set sizes (which validate the paper's
//! §3.4 approximation `|M(pᵢ)| ≈ λ_f′ · Δ`).

use stepstone_core::{Algorithm, WatermarkCorrelator};
use stepstone_matching::{CostMeter, Matcher};
use stepstone_stats::Histogram;

use crate::config::ExperimentConfig;
use crate::dataset::{attacked, Dataset};

/// Best-watermark Hamming histograms for Greedy+ at the headline grid
/// point, split into correlated and uncorrelated pairs. Pairs whose
/// matching phase fails outright are counted separately (they have no
/// Hamming distance at all).
pub fn hamming_histograms(cfg: &ExperimentConfig) -> String {
    let ds = Dataset::build(cfg);
    let bits = cfg.params.bits;
    let mut correlated = Histogram::new(bits);
    let mut uncorrelated = Histogram::new(bits);
    let mut unmatched = 0u64;
    for (i, up) in ds.flows().iter().enumerate() {
        let correlator = WatermarkCorrelator::new(
            up.marker,
            up.watermark.clone(),
            cfg.fixed_delta,
            Algorithm::GreedyPlus,
        );
        #[expect(
            clippy::expect_used,
            reason = "dataset flows were embedded with this layout, so prepare cannot reject them"
        )]
        let prepared = correlator
            .prepare(&up.original, &up.marked)
            .expect("prepared flows host the layout");
        let own = attacked(
            &up.marked,
            cfg.fixed_delta,
            cfg.fixed_chaff,
            cfg.seed.child(0xD1A).child(i as u64),
        );
        if let Some(h) = prepared.correlate(&own).hamming {
            correlated.record(h as usize);
        } else {
            unmatched += 1;
        }
        let other = &ds.flows()[(i + 1) % ds.len()];
        let unrelated = attacked(
            &other.marked,
            cfg.fixed_delta,
            cfg.fixed_chaff,
            cfg.seed.child(0xD1B).child(i as u64),
        );
        match prepared.correlate(&unrelated).hamming {
            Some(h) => uncorrelated.record(h as usize),
            None => unmatched += 1,
        }
    }
    format!(
        "# diagnostics: Greedy+ best-watermark Hamming distances (Δ = {:.0}s, λc = {})\n\
         threshold = {} of {} bits; pairs with no matching at all: {}\n\n\
         correlated pairs (median {:?}):\n{}\n\
         uncorrelated pairs that matched (median {:?}):\n{}",
        cfg.fixed_delta.as_secs_f64(),
        cfg.fixed_chaff,
        cfg.params.threshold,
        bits,
        unmatched,
        correlated.median(),
        correlated,
        uncorrelated.median(),
        uncorrelated,
    )
}

/// Matching-set size distribution at the headline point, against the
/// paper's approximation `|M(pᵢ)| ≈ λ_f′ · Δ`.
pub fn matching_set_sizes(cfg: &ExperimentConfig) -> String {
    let ds = Dataset::build(cfg);
    let mut sizes = Histogram::new(128);
    let mut predicted_sum = 0.0;
    let mut measured_sum = 0.0;
    let mut flows = 0.0f64;
    for (i, up) in ds.flows().iter().enumerate() {
        let suspicious = attacked(
            &up.marked,
            cfg.fixed_delta,
            cfg.fixed_chaff,
            cfg.seed.child(0xD1C).child(i as u64),
        );
        let mut meter = CostMeter::new();
        let Some(sets) =
            Matcher::new(cfg.fixed_delta).matching_sets(&up.marked, &suspicious, &mut meter)
        else {
            continue;
        };
        for k in 0..sets.len() {
            sizes.record(sets.set(k).len());
        }
        let lambda = suspicious.mean_rate();
        predicted_sum += lambda * cfg.fixed_delta.as_secs_f64();
        measured_sum += sets.total_candidates() as f64 / sets.len() as f64;
        flows += 1.0;
    }
    format!(
        "# diagnostics: matching-set sizes (Δ = {:.0}s, λc = {})\n\
         paper §3.4 approximation λ_f′·Δ = {:.1}; measured mean |M| = {:.1}\n\n{}",
        cfg.fixed_delta.as_secs_f64(),
        cfg.fixed_chaff,
        predicted_sum / flows.max(1.0),
        measured_sum / flows.max(1.0),
        sizes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    #[test]
    fn hamming_histograms_render_both_populations() {
        let out = hamming_histograms(&ExperimentConfig::new(Scale::Quick));
        assert!(out.contains("correlated pairs"), "{out}");
        assert!(out.contains("uncorrelated pairs"), "{out}");
        assert!(out.contains("threshold = 7 of 24"), "{out}");
    }

    #[test]
    fn set_size_approximation_is_in_the_right_ballpark() {
        let cfg = ExperimentConfig::new(Scale::Quick);
        let out = matching_set_sizes(&cfg);
        // Extract the two numbers back out of the report.
        let line = out
            .lines()
            .find(|l| l.contains("approximation"))
            .expect("approximation line");
        let nums: Vec<f64> = line
            .split(|c: char| !c.is_ascii_digit() && c != '.')
            .filter_map(|t| t.parse().ok())
            .filter(|&v| v > 1.0)
            .collect();
        let (predicted, measured) = (nums[nums.len() - 2], nums[nums.len() - 1]);
        // The paper's approximation should hold within a factor of two
        // (edge effects shrink windows near flow boundaries).
        assert!(
            measured > predicted * 0.5 && measured < predicted * 2.0,
            "predicted {predicted}, measured {measured}"
        );
    }
}
