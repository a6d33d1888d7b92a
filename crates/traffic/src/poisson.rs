//! Poisson arrival processes.

use rand::Rng;
use stepstone_flow::{Flow, FlowBuilder, Packet, Timestamp};

use crate::dists::Exponential;

/// A homogeneous Poisson packet arrival process.
///
/// The paper's chaff model: "Poisson distributed chaff packets" with
/// arrival rate `λ_c` from 0 to 5 packets/second. Also useful as a
/// memoryless traffic source for analytically checkable tests.
///
/// # Example
///
/// ```
/// use stepstone_traffic::{PoissonProcess, Seed};
/// use stepstone_flow::{TimeDelta, Timestamp};
///
/// let p = PoissonProcess::new(2.0);
/// let mut rng = Seed::new(9).rng(0);
/// let flow = p.chaff_flow(Timestamp::ZERO, TimeDelta::from_secs(100), &mut rng);
/// // Roughly 200 packets; all marked as chaff.
/// assert!(flow.len() > 120 && flow.len() < 280);
/// assert_eq!(flow.chaff_count(), flow.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonProcess {
    rate: f64,
}

impl PoissonProcess {
    /// Default chaff packet size in bytes (an SSH-padded minimum cell).
    pub const CHAFF_SIZE: u32 = 48;

    /// Creates a process with the given arrival rate in packets/second.
    ///
    /// A rate of exactly `0.0` is allowed and produces empty flows
    /// (the paper's `λ_c = 0` grid point).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "poisson rate must be non-negative and finite, got {rate}"
        );
        PoissonProcess { rate }
    }

    /// The arrival rate in packets/second.
    pub const fn rate(&self) -> f64 {
        self.rate
    }

    /// Samples arrival timestamps on `[start, start + span)`.
    pub fn arrivals<R: Rng + ?Sized>(
        &self,
        start: Timestamp,
        span: stepstone_flow::TimeDelta,
        rng: &mut R,
    ) -> Vec<Timestamp> {
        let mut out = Vec::new();
        if self.rate == 0.0 || span <= stepstone_flow::TimeDelta::ZERO {
            return out;
        }
        let exp = Exponential::new(self.rate);
        let end = start + span;
        let mut t = start;
        loop {
            t += stepstone_flow::TimeDelta::from_secs_f64(exp.sample(rng));
            if t >= end {
                break;
            }
            out.push(t);
        }
        out
    }

    /// Generates a chaff [`Flow`] covering `[start, start + span)`.
    ///
    /// Every packet is marked [`Provenance::Chaff`] and sized
    /// [`CHAFF_SIZE`](Self::CHAFF_SIZE).
    ///
    /// [`Provenance::Chaff`]: stepstone_flow::Provenance::Chaff
    pub fn chaff_flow<R: Rng + ?Sized>(
        &self,
        start: Timestamp,
        span: stepstone_flow::TimeDelta,
        rng: &mut R,
    ) -> Flow {
        let mut b = FlowBuilder::new();
        for t in self.arrivals(start, span, rng) {
            #[expect(
                clippy::expect_used,
                reason = "arrivals() accumulates positive gaps, so times are sorted"
            )]
            b.push(Packet::chaff(t, Self::CHAFF_SIZE))
                .expect("arrivals are generated in order");
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seed;
    use stepstone_flow::TimeDelta;

    #[test]
    fn zero_rate_produces_no_arrivals() {
        let p = PoissonProcess::new(0.0);
        let mut rng = Seed::new(1).rng(0);
        assert!(p
            .arrivals(Timestamp::ZERO, TimeDelta::from_secs(100), &mut rng)
            .is_empty());
    }

    #[test]
    fn empty_span_produces_no_arrivals() {
        let p = PoissonProcess::new(5.0);
        let mut rng = Seed::new(1).rng(0);
        assert!(p
            .arrivals(Timestamp::ZERO, TimeDelta::ZERO, &mut rng)
            .is_empty());
    }

    #[test]
    fn rate_matches_expectation() {
        let p = PoissonProcess::new(3.0);
        let mut rng = Seed::new(2).rng(0);
        let n = p
            .arrivals(Timestamp::ZERO, TimeDelta::from_secs(2_000), &mut rng)
            .len();
        // 6000 expected, std ≈ 77.
        assert!((5_600..6_400).contains(&n), "{n} arrivals");
    }

    #[test]
    fn arrivals_are_sorted_and_in_window() {
        let p = PoissonProcess::new(10.0);
        let mut rng = Seed::new(3).rng(0);
        let start = Timestamp::from_secs(50);
        let span = TimeDelta::from_secs(10);
        let arr = p.arrivals(start, span, &mut rng);
        assert!(!arr.is_empty());
        for w in arr.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(arr.iter().all(|&t| t >= start && t < start + span));
    }

    #[test]
    fn chaff_flow_is_all_chaff() {
        let p = PoissonProcess::new(1.0);
        let mut rng = Seed::new(4).rng(0);
        let f = p.chaff_flow(Timestamp::ZERO, TimeDelta::from_secs(200), &mut rng);
        assert_eq!(f.chaff_count(), f.len());
        assert!(f.iter().all(|pk| pk.size() == PoissonProcess::CHAFF_SIZE));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_rate() {
        let _ = PoissonProcess::new(-1.0);
    }
}
