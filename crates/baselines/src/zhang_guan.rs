//! The passive deviation-based scheme of ref \[11\].

use stepstone_flow::{Flow, TimeDelta};
use stepstone_matching::{CostMeter, Matcher};

/// Outcome of the passive deviation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviationOutcome {
    /// `true` when a complete order-consistent matching exists whose
    /// delay spread is within the threshold.
    pub correlated: bool,
    /// The smallest delay spread found (`max delay − min delay` over the
    /// chosen matching); `None` when no complete matching exists.
    pub deviation: Option<TimeDelta>,
    /// Packet accesses (matching + scoring) — comparable to the active
    /// algorithms' cost metric.
    pub cost: u64,
}

/// The passive scheme the paper compares against: find possible
/// corresponding packets under the timing constraint, compute the
/// smallest delay *deviation*, and report a stepping stone when it is
/// below a threshold (Table 1: 3 seconds).
///
/// Our instantiation (the original is an unpublished tech report; see
/// DESIGN.md §3): a complete order-preserving matching is built greedily
/// with *delay tracking* — each upstream packet takes the candidate
/// whose delay is closest to the running mean of the delays chosen so
/// far (ties toward the earlier packet, to keep room for successors).
/// The deviation is the spread of the chosen delays. Correlated flows
/// under `U(0, maxdelay)` perturbation yield spreads around the
/// perturbation range; unrelated flows only score well when chaff and a
/// large `Δ` offer enough candidates — reproducing the published
/// detection/false-positive shapes.
///
/// Being passive, it needs no watermark and no traffic manipulation —
/// the trade-off the paper discusses in §5.
///
/// # Example
///
/// ```
/// use stepstone_baselines::ZhangGuanDetector;
/// use stepstone_flow::{Flow, TimeDelta, Timestamp};
///
/// # fn main() -> Result<(), stepstone_flow::FlowError> {
/// let up = Flow::from_timestamps((0..50).map(Timestamp::from_secs))?;
/// let down = up.shifted(TimeDelta::from_millis(400)); // constant delay
/// let d = ZhangGuanDetector::new(TimeDelta::from_secs(7), TimeDelta::from_secs(3));
/// let out = d.correlate(&up, &down);
/// assert!(out.correlated);
/// assert_eq!(out.deviation, Some(TimeDelta::ZERO));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZhangGuanDetector {
    delta: TimeDelta,
    threshold: TimeDelta,
}

impl ZhangGuanDetector {
    /// Creates a detector with maximum delay `Δ` and deviation
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if either bound is negative.
    pub fn new(delta: TimeDelta, threshold: TimeDelta) -> Self {
        assert!(!delta.is_negative(), "maximum delay must be non-negative");
        assert!(
            !threshold.is_negative(),
            "deviation threshold must be non-negative"
        );
        ZhangGuanDetector { delta, threshold }
    }

    /// The paper's configuration: `Δ` as given, 3-second threshold.
    pub fn paper(delta: TimeDelta) -> Self {
        ZhangGuanDetector::new(delta, TimeDelta::from_secs(3))
    }

    /// The maximum delay bound.
    pub const fn delta(&self) -> TimeDelta {
        self.delta
    }

    /// The deviation threshold.
    pub const fn threshold(&self) -> TimeDelta {
        self.threshold
    }

    /// Scores `suspicious` against `upstream`.
    pub fn correlate(&self, upstream: &Flow, suspicious: &Flow) -> DeviationOutcome {
        let mut meter = CostMeter::new();
        let Some(mut sets) =
            Matcher::new(self.delta).matching_sets(upstream, suspicious, &mut meter)
        else {
            return DeviationOutcome {
                correlated: false,
                deviation: None,
                cost: meter.count(),
            };
        };
        if !sets.tighten(&mut meter) {
            return DeviationOutcome {
                correlated: false,
                deviation: None,
                cost: meter.count(),
            };
        }
        if sets.is_empty() {
            return DeviationOutcome {
                correlated: false,
                deviation: None,
                cost: meter.count(),
            };
        }

        // Smallest-deviation search: a stepping-stone relay delays every
        // packet by roughly the same amount plus bounded jitter, so a
        // correlated pair admits a complete matching whose delays all
        // fall in one narrow *band* [L, L + threshold]. Slide the band's
        // lower edge over [0, Δ − threshold] and test each band with
        // earliest-first-fit (the feasibility-maximizing order for
        // interval problems); the deviation is the realized delay spread
        // of the best feasible band. The grid density trades accuracy
        // for cost — this is why the passive scheme's cost tops the
        // active algorithms', as in Figs 7–10.
        const GRID: i64 = 12;
        let slack = (self.delta - self.threshold).max(TimeDelta::ZERO);
        let mut best_deviation: Option<TimeDelta> = None;
        for step in 0..=GRID {
            let lo = slack * step / GRID;
            let band = (lo, lo + self.threshold);
            if let Some(dev) = self.band_first_fit(upstream, suspicious, &sets, band, &mut meter) {
                if best_deviation.is_none_or(|b| dev < b) {
                    best_deviation = Some(dev);
                }
            }
            if slack == TimeDelta::ZERO {
                break; // Δ ≤ threshold: a single all-covering band
            }
        }
        if let Some(dev) = best_deviation {
            return DeviationOutcome {
                correlated: dev <= self.threshold,
                deviation: Some(dev),
                cost: meter.count(),
            };
        }
        // No narrow band is feasible: report the spread of the plain
        // first-fit matching (which exists — tightening succeeded).
        #[expect(
            clippy::expect_used,
            reason = "tighten() already proved a feasible matching exists in this band"
        )]
        let dev = self
            .band_first_fit(
                upstream,
                suspicious,
                &sets,
                (TimeDelta::ZERO, self.delta),
                &mut meter,
            )
            .expect("tightened sets admit the earliest-first-fit matching");
        DeviationOutcome {
            correlated: dev <= self.threshold,
            deviation: Some(dev),
            cost: meter.count(),
        }
    }

    /// Fraction of upstream packets allowed to fall outside the band,
    /// in percent — a robustified deviation: a handful of burst packets
    /// squeezed out of the band should not hide an otherwise coherent
    /// relay, and symmetrically lets the scheme be fooled when chaff is
    /// dense (its published false-positive behaviour).
    pub const OUTLIER_TOLERANCE_PCT: usize = 10;

    /// Earliest-first-fit within a delay band: each upstream packet
    /// takes the earliest order-consistent candidate whose delay lies in
    /// `[band.0, band.1]`, falling back to the earliest feasible
    /// candidate when the band offers none (an *outlier*). The pass
    /// succeeds when outliers stay within
    /// [`OUTLIER_TOLERANCE_PCT`](Self::OUTLIER_TOLERANCE_PCT). Returns
    /// the in-band delay spread, or `None` when the pass starves or
    /// exceeds the tolerance.
    fn band_first_fit(
        &self,
        upstream: &Flow,
        suspicious: &Flow,
        sets: &stepstone_matching::MatchingSets,
        band: (TimeDelta, TimeDelta),
        meter: &mut CostMeter,
    ) -> Option<TimeDelta> {
        if sets.is_empty() {
            return Some(TimeDelta::ZERO);
        }
        let allowed_outliers = sets.len() * Self::OUTLIER_TOLERANCE_PCT / 100;
        let mut outliers = 0usize;
        let mut min_delay = TimeDelta::MAX;
        let mut max_delay = -TimeDelta::MAX;
        let mut prev: Option<u32> = None;
        for i in 0..sets.len() {
            let set = sets.set(i);
            let t_up = upstream.timestamp(i);
            // Candidates are index-sorted and delay grows with the
            // index, so the in-band packets form a contiguous subrange.
            let lo_idx = set.partition_point(|&c| {
                meter.charge_one();
                suspicious.timestamp(c as usize) - t_up < band.0
            });
            let after_prev = match prev {
                Some(p) => set.partition_point(|&c| c <= p),
                None => 0,
            };
            let start = lo_idx.max(after_prev);
            let (c, in_band) = if start < set.len() {
                meter.charge_one();
                let c = set[start];
                let delay = suspicious.timestamp(c as usize) - t_up;
                (c, delay <= band.1)
            } else if after_prev < set.len() {
                // No in-band candidate: take the earliest feasible one.
                (set[after_prev], false)
            } else {
                return None; // starvation
            };
            if in_band {
                let delay = suspicious.timestamp(c as usize) - t_up;
                min_delay = min_delay.min(delay);
                max_delay = max_delay.max(delay);
            } else {
                outliers += 1;
                if outliers > allowed_outliers {
                    return None;
                }
            }
            prev = Some(c);
        }
        if min_delay > max_delay {
            return None; // everything was an outlier
        }
        Some(max_delay - min_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::ChaCha8Rng;
    use stepstone_adversary::{ChaffInjector, ChaffModel, Transform, UniformPerturbation};
    use stepstone_flow::Timestamp;
    use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};

    fn interactive(n: usize, seed: u64) -> Flow {
        SessionGenerator::new(InteractiveProfile::ssh()).generate(
            n,
            Timestamp::ZERO,
            &mut Seed::new(seed).rng(0),
        )
    }

    fn rng(seed: u64) -> ChaCha8Rng {
        Seed::new(seed).rng(3)
    }

    #[test]
    fn constant_shift_has_zero_deviation() {
        let up = interactive(300, 1);
        let down = up.shifted(TimeDelta::from_millis(900));
        let d = ZhangGuanDetector::paper(TimeDelta::from_secs(7));
        let out = d.correlate(&up, &down);
        assert!(out.correlated);
        assert_eq!(out.deviation, Some(TimeDelta::ZERO));
    }

    #[test]
    fn small_perturbation_is_detected() {
        let up = interactive(300, 2);
        let d = ZhangGuanDetector::paper(TimeDelta::from_secs(7));
        let down = UniformPerturbation::new(TimeDelta::from_secs(2)).apply_with(&up, &mut rng(2));
        let out = d.correlate(&up, &down);
        assert!(out.correlated, "{out:?}");
        assert!(out.deviation.unwrap() <= TimeDelta::from_secs(2));
    }

    #[test]
    fn large_perturbation_defeats_the_threshold() {
        // With U(0, 7s) perturbation the spread of true delays is ~7s,
        // far over the 3s threshold — the paper's "fails to reach 100%".
        let mut detected = 0;
        for seed in 0..8 {
            let up = interactive(400, 10 + seed);
            let down =
                UniformPerturbation::new(TimeDelta::from_secs(7)).apply_with(&up, &mut rng(seed));
            let d = ZhangGuanDetector::paper(TimeDelta::from_secs(7));
            if d.correlate(&up, &down).correlated {
                detected += 1;
            }
        }
        // Well below the active schemes' 100% (the exact value moves
        // with the outlier tolerance; the paper only requires "fails to
        // reach 100%" and "significantly lower without chaff").
        assert!(detected <= 6, "detected {detected}/8 at 7s perturbation");
    }

    #[test]
    fn chaff_does_not_break_detection_of_small_perturbation() {
        let up = interactive(300, 3);
        let perturbed =
            UniformPerturbation::new(TimeDelta::from_secs(1)).apply_with(&up, &mut rng(4));
        let down = ChaffInjector::new(ChaffModel::Poisson { rate: 3.0 })
            .apply_with(&perturbed, &mut rng(5));
        let d = ZhangGuanDetector::paper(TimeDelta::from_secs(7));
        let out = d.correlate(&up, &down);
        assert!(out.correlated, "{out:?}");
    }

    #[test]
    fn disjoint_flows_fail_matching() {
        let up = interactive(100, 6);
        let far = up.shifted(TimeDelta::from_secs(100_000));
        let d = ZhangGuanDetector::paper(TimeDelta::from_secs(7));
        let out = d.correlate(&up, &far);
        assert!(!out.correlated);
        assert_eq!(out.deviation, None);
    }

    #[test]
    fn unrelated_sparse_flows_rarely_correlate() {
        let d = ZhangGuanDetector::paper(TimeDelta::from_secs(7));
        let up = interactive(300, 7);
        let mut fps = 0;
        for seed in 0..10 {
            let other = interactive(300, 100 + seed);
            if d.correlate(&up, &other).correlated {
                fps += 1;
            }
        }
        assert!(fps <= 3, "{fps}/10 unrelated flows correlated");
    }

    #[test]
    fn cost_scales_with_candidates() {
        let up = interactive(200, 8);
        let down = up.shifted(TimeDelta::from_millis(100));
        let chaffed =
            ChaffInjector::new(ChaffModel::Poisson { rate: 5.0 }).apply_with(&down, &mut rng(9));
        let d = ZhangGuanDetector::paper(TimeDelta::from_secs(7));
        let plain = d.correlate(&up, &down).cost;
        let noisy = d.correlate(&up, &chaffed).cost;
        assert!(noisy > plain, "noisy {noisy} <= plain {plain}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_threshold() {
        let _ = ZhangGuanDetector::new(TimeDelta::from_secs(1), TimeDelta::from_micros(-1));
    }
}
