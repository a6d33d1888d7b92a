//! Packet loss — a future-work evasion that violates assumption 1.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use stepstone_flow::Flow;

use crate::pipeline::Transform;

/// Drops each packet independently with a fixed probability.
///
/// The paper's algorithms assume every upstream packet reaches the
/// downstream flow (assumption 1); §6 names loss as future work. This
/// model lets the harness measure how gracefully each algorithm degrades
/// when the assumption breaks (`future_loss` experiment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketLoss {
    probability: f64,
}

impl PacketLoss {
    /// Creates a loss model.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]`.
    pub fn new(probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "loss probability must be in [0, 1], got {probability}"
        );
        PacketLoss { probability }
    }

    /// The per-packet drop probability.
    pub const fn probability(&self) -> f64 {
        self.probability
    }
}

impl Transform for PacketLoss {
    fn apply_with(&self, flow: &Flow, rng: &mut ChaCha8Rng) -> Flow {
        if self.probability == 0.0 {
            return flow.clone();
        }
        let kept = flow
            .iter()
            .copied()
            .filter(|_| !rng.gen_bool(self.probability));
        #[expect(
            clippy::expect_used,
            reason = "dropping packets from a sorted flow cannot break ordering"
        )]
        let survivors = Flow::from_packets(kept).expect("filtering preserves order");
        survivors
    }

    fn label(&self) -> String {
        format!("loss(p={})", self.probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_flow::Timestamp;
    use stepstone_traffic::Seed;

    fn carrier(n: i64) -> Flow {
        Flow::from_timestamps((0..n).map(Timestamp::from_secs)).unwrap()
    }

    #[test]
    fn zero_probability_is_identity() {
        let f = carrier(20);
        let out = PacketLoss::new(0.0).apply_with(&f, &mut Seed::new(1).rng(0));
        assert_eq!(out, f);
    }

    #[test]
    fn full_probability_drops_everything() {
        let f = carrier(20);
        let out = PacketLoss::new(1.0).apply_with(&f, &mut Seed::new(1).rng(0));
        assert!(out.is_empty());
    }

    #[test]
    fn loss_rate_is_respected() {
        let f = carrier(10_000);
        let out = PacketLoss::new(0.1).apply_with(&f, &mut Seed::new(2).rng(0));
        let lost = f.len() - out.len();
        assert!((800..1200).contains(&lost), "lost {lost}");
    }

    #[test]
    fn survivors_keep_order_and_identity() {
        let f = carrier(100);
        let out = PacketLoss::new(0.3).apply_with(&f, &mut Seed::new(3).rng(0));
        let mut prev = None;
        for p in &out {
            let idx = p.provenance().upstream_index().unwrap();
            if let Some(prev) = prev {
                assert!(idx > prev);
            }
            prev = Some(idx);
            assert_eq!(p.timestamp(), f.timestamp(idx as usize));
        }
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn rejects_bad_probability() {
        let _ = PacketLoss::new(1.5);
    }
}
