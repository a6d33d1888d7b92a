//! Chaff (meaningless padding packet) injection.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use stepstone_flow::{Flow, FlowBuilder, Packet, TimeDelta, Timestamp};
use stepstone_traffic::PoissonProcess;

use crate::pipeline::Transform;

/// How chaff arrival times are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ChaffModel {
    /// The paper's model: a homogeneous Poisson process with the given
    /// rate in packets/second (`λ_c ∈ [0, 5]` in the evaluation).
    Poisson {
        /// Chaff arrival rate in packets/second.
        rate: f64,
    },
    /// On/off bursts: burst starts form a Poisson process with rate
    /// `rate / burst_len`, each burst emitting `burst_len` packets at
    /// 50 ms spacing. Stresses matchers with locally dense chaff while
    /// keeping the long-run rate comparable to `Poisson`.
    Bursty {
        /// Long-run chaff rate in packets/second.
        rate: f64,
        /// Packets per burst.
        burst_len: usize,
    },
    /// Adaptive chaff: inter-arrivals are bootstrap-resampled from the
    /// carrier flow's own inter-packet delays, rescaled to hit `rate`.
    /// The chaff is then statistically similar to real traffic — a
    /// stronger adversary than the paper's Poisson assumption.
    Mimic {
        /// Long-run chaff rate in packets/second.
        rate: f64,
    },
}

impl ChaffModel {
    /// The long-run chaff rate in packets/second.
    pub fn rate(&self) -> f64 {
        match *self {
            ChaffModel::Poisson { rate }
            | ChaffModel::Bursty { rate, .. }
            | ChaffModel::Mimic { rate } => rate,
        }
    }
}

/// Injects chaff packets into a flow according to a [`ChaffModel`].
///
/// Chaff covers the carrier flow's whole time span and is merged by
/// timestamp, so payload packets keep their timing and order — chaff is
/// purely additive, exactly as in the paper.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaffInjector {
    model: ChaffModel,
}

impl ChaffInjector {
    /// Creates an injector.
    ///
    /// # Panics
    ///
    /// Panics if the model's rate is negative or not finite, or a bursty
    /// model has `burst_len == 0`.
    pub fn new(model: ChaffModel) -> Self {
        let rate = model.rate();
        assert!(
            rate.is_finite() && rate >= 0.0,
            "chaff rate must be non-negative and finite, got {rate}"
        );
        if let ChaffModel::Bursty { burst_len, .. } = model {
            assert!(burst_len > 0, "burst length must be positive");
        }
        ChaffInjector { model }
    }

    /// The configured model.
    pub const fn model(&self) -> ChaffModel {
        self.model
    }

    fn chaff_times(&self, flow: &Flow, rng: &mut ChaCha8Rng) -> Vec<Timestamp> {
        let (Some(first), span) = (flow.first(), flow.duration()) else {
            return Vec::new();
        };
        let start = first.timestamp();
        match self.model {
            ChaffModel::Poisson { rate } => PoissonProcess::new(rate).arrivals(start, span, rng),
            ChaffModel::Bursty { rate, burst_len } => {
                let starts =
                    PoissonProcess::new(rate / burst_len as f64).arrivals(start, span, rng);
                let gap = TimeDelta::from_millis(50);
                let end = start + span;
                let mut times: Vec<Timestamp> = starts
                    .into_iter()
                    .flat_map(|t0| (0..burst_len).map(move |k| t0 + gap * k as i64))
                    .filter(|&t| t < end)
                    .collect();
                times.sort_unstable();
                times
            }
            ChaffModel::Mimic { rate } => {
                if rate == 0.0 || flow.len() < 2 {
                    return Vec::new();
                }
                let ipds: Vec<TimeDelta> = flow.ipds().collect();
                let mean_ipd = span.as_secs_f64() / ipds.len() as f64;
                // Rescale bootstrap samples so the long-run rate is `rate`.
                let scale = (1.0 / rate) / mean_ipd.max(f64::MIN_POSITIVE);
                let end = start + span;
                let mut times = Vec::new();
                let mut t = start;
                loop {
                    let sample = ipds[rng.gen_range(0..ipds.len())];
                    t += sample.mul_f64(scale).max(TimeDelta::from_micros(1));
                    if t >= end {
                        break;
                    }
                    times.push(t);
                }
                times
            }
        }
    }
}

impl Transform for ChaffInjector {
    fn apply_with(&self, flow: &Flow, rng: &mut ChaCha8Rng) -> Flow {
        let times = self.chaff_times(flow, rng);
        if times.is_empty() {
            return flow.clone();
        }
        let mut b = FlowBuilder::with_capacity(times.len());
        for t in times {
            #[expect(
                clippy::expect_used,
                reason = "PoissonProcess emits sorted times, so push cannot see a regression"
            )]
            b.push(Packet::chaff(t, PoissonProcess::CHAFF_SIZE))
                .expect("chaff times are sorted");
        }
        flow.merged_with(&b.finish())
    }

    fn label(&self) -> String {
        match self.model {
            ChaffModel::Poisson { rate } => format!("chaff-poisson(λc={rate})"),
            ChaffModel::Bursty { rate, burst_len } => {
                format!("chaff-bursty(λc={rate},burst={burst_len})")
            }
            ChaffModel::Mimic { rate } => format!("chaff-mimic(λc={rate})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_traffic::Seed;

    fn carrier(n: i64) -> Flow {
        Flow::from_timestamps((0..n).map(Timestamp::from_secs)).unwrap()
    }

    fn rng(seed: u64) -> ChaCha8Rng {
        Seed::new(seed).rng(0)
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let f = carrier(100);
        for model in [
            ChaffModel::Poisson { rate: 0.0 },
            ChaffModel::Bursty {
                rate: 0.0,
                burst_len: 3,
            },
            ChaffModel::Mimic { rate: 0.0 },
        ] {
            let out = ChaffInjector::new(model).apply_with(&f, &mut rng(1));
            assert_eq!(out, f, "{model:?}");
        }
    }

    #[test]
    fn payload_is_untouched() {
        let f = carrier(200);
        let out = ChaffInjector::new(ChaffModel::Poisson { rate: 3.0 }).apply_with(&f, &mut rng(2));
        let payload: Vec<Timestamp> = out
            .iter()
            .filter(|p| p.provenance().is_payload())
            .map(|p| p.timestamp())
            .collect();
        assert_eq!(payload, f.timestamps());
    }

    #[test]
    fn poisson_rate_is_respected() {
        let f = carrier(1000); // 999s duration
        let out = ChaffInjector::new(ChaffModel::Poisson { rate: 2.0 }).apply_with(&f, &mut rng(3));
        let c = out.chaff_count();
        // 1998 expected, std ≈ 45.
        assert!((1750..2250).contains(&c), "chaff count {c}");
    }

    #[test]
    fn bursty_rate_is_comparable_and_bursty() {
        let f = carrier(1000);
        let out = ChaffInjector::new(ChaffModel::Bursty {
            rate: 2.0,
            burst_len: 5,
        })
        .apply_with(&f, &mut rng(4));
        let c = out.chaff_count();
        assert!((1400..2400).contains(&c), "chaff count {c}");
    }

    #[test]
    fn mimic_rate_is_approximate() {
        let f = carrier(1000);
        let out = ChaffInjector::new(ChaffModel::Mimic { rate: 2.0 }).apply_with(&f, &mut rng(5));
        let c = out.chaff_count();
        assert!((1500..2500).contains(&c), "chaff count {c}");
    }

    #[test]
    fn chaff_lands_inside_the_flow_span() {
        let f = carrier(50);
        for model in [
            ChaffModel::Poisson { rate: 5.0 },
            ChaffModel::Bursty {
                rate: 5.0,
                burst_len: 4,
            },
            ChaffModel::Mimic { rate: 5.0 },
        ] {
            let out = ChaffInjector::new(model).apply_with(&f, &mut rng(6));
            let (start, end) = (
                f.first().unwrap().timestamp(),
                f.last().unwrap().timestamp(),
            );
            for p in out.iter().filter(|p| p.provenance().is_chaff()) {
                assert!(p.timestamp() >= start && p.timestamp() < end, "{model:?}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_flows_are_left_alone() {
        let inj = ChaffInjector::new(ChaffModel::Poisson { rate: 5.0 });
        assert_eq!(inj.apply_with(&Flow::new(), &mut rng(7)), Flow::new());
        let single = carrier(1);
        assert_eq!(inj.apply_with(&single, &mut rng(7)), single);
    }

    #[test]
    fn injection_is_deterministic() {
        let f = carrier(100);
        let inj = ChaffInjector::new(ChaffModel::Poisson { rate: 1.0 });
        assert_eq!(
            inj.apply_with(&f, &mut rng(8)),
            inj.apply_with(&f, &mut rng(8))
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_rate() {
        let _ = ChaffInjector::new(ChaffModel::Poisson { rate: -1.0 });
    }

    #[test]
    #[should_panic(expected = "burst length")]
    fn rejects_zero_burst() {
        let _ = ChaffInjector::new(ChaffModel::Bursty {
            rate: 1.0,
            burst_len: 0,
        });
    }
}
