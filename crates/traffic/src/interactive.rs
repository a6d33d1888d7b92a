//! A keystroke/think-time model of interactive SSH/Telnet sessions.

use rand::Rng;
use stepstone_flow::{Flow, FlowBuilder, Packet, Provenance, TimeDelta, Timestamp};

use crate::dists::{BoundedPareto, LogNormal};

/// Statistical profile of one interactive session.
///
/// The model alternates *keystroke bursts* (typing, log-normal spaced)
/// with *think times* (heavy-tailed Pareto pauses), which reproduces the
/// two regimes Paxson & Floyd measured in wide-area Telnet traffic: a
/// dense sub-second body and a power-law tail of multi-second pauses.
/// Packet sizes are drawn from the cipher-padded sizes typical of
/// interactive SSH (multiples of 16 bytes).
///
/// # Example
///
/// ```
/// use stepstone_traffic::{InteractiveProfile, SessionGenerator, Seed};
/// use stepstone_flow::Timestamp;
///
/// let gen = SessionGenerator::new(InteractiveProfile::ssh());
/// let mut rng = Seed::new(3).rng(0);
/// let flow = gen.generate(500, Timestamp::ZERO, &mut rng);
/// assert_eq!(flow.len(), 500);
/// assert!(flow.mean_rate() > 0.2 && flow.mean_rate() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InteractiveProfile {
    /// Spacing between packets within a keystroke burst.
    keystroke_gap: LogNormal,
    /// Heavy-tailed pause between bursts.
    think_time: BoundedPareto,
    /// Probability that a burst continues after each keystroke
    /// (geometric burst length with mean `1/(1-p)`).
    burst_continue: f64,
    /// Candidate packet sizes in bytes (cipher-block padded).
    sizes: Vec<u32>,
}

impl InteractiveProfile {
    /// A Telnet-like profile: character-at-a-time, slightly slower
    /// typing, longer think pauses.
    pub fn telnet() -> Self {
        InteractiveProfile {
            keystroke_gap: LogNormal::new((0.22f64).ln(), 0.6),
            think_time: BoundedPareto::new(0.8, 0.95, 90.0),
            burst_continue: 0.82,
            sizes: vec![64, 64, 64, 80, 96, 128, 256],
        }
    }

    /// An SSH-like profile: denser keystroke bursts, 16-byte padded
    /// packet sizes, moderately long pauses.
    pub fn ssh() -> Self {
        InteractiveProfile {
            keystroke_gap: LogNormal::new((0.15f64).ln(), 0.55),
            think_time: BoundedPareto::new(0.6, 1.0, 60.0),
            burst_continue: 0.86,
            sizes: vec![48, 48, 64, 64, 80, 96, 112, 144],
        }
    }

    /// Builder-style override of the burst continuation probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    #[must_use]
    pub fn with_burst_continue(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "burst_continue must be in [0,1)");
        self.burst_continue = p;
        self
    }

    /// Builder-style override of the think-time distribution.
    #[must_use]
    pub fn with_think_time(mut self, think_time: BoundedPareto) -> Self {
        self.think_time = think_time;
        self
    }

    /// Builder-style override of the intra-burst keystroke gap.
    #[must_use]
    pub fn with_keystroke_gap(mut self, gap: LogNormal) -> Self {
        self.keystroke_gap = gap;
        self
    }
}

impl Default for InteractiveProfile {
    fn default() -> Self {
        InteractiveProfile::ssh()
    }
}

/// Generates interactive flows from an [`InteractiveProfile`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionGenerator {
    profile: InteractiveProfile,
}

impl SessionGenerator {
    /// Creates a generator for the given profile.
    pub const fn new(profile: InteractiveProfile) -> Self {
        SessionGenerator { profile }
    }

    /// The generator's profile.
    pub const fn profile(&self) -> &InteractiveProfile {
        &self.profile
    }

    /// Generates a session of exactly `packets` packets starting at
    /// `start`. Every packet is payload with provenance equal to its own
    /// index (an *origin* flow).
    pub fn generate<R: Rng + ?Sized>(&self, packets: usize, start: Timestamp, rng: &mut R) -> Flow {
        let p = &self.profile;
        let mut b = FlowBuilder::with_capacity(packets);
        let mut t = start;
        let mut in_burst = true;
        for i in 0..packets {
            let size = p.sizes[rng.gen_range(0..p.sizes.len())];
            #[expect(
                clippy::expect_used,
                reason = "gaps sampled below are clamped non-negative, so timestamps never regress"
            )]
            b.push(Packet::with_provenance(
                t,
                size,
                Provenance::Payload(i as u32),
            ))
            .expect("time only moves forward");
            // Decide the gap to the next packet.
            let gap_secs = if in_burst && rng.gen_bool(p.burst_continue) {
                p.keystroke_gap.sample(rng)
            } else {
                in_burst = true;
                p.think_time.sample(rng)
            };
            // Sub-millisecond floor: two keystrokes can't share a µs.
            t += TimeDelta::from_secs_f64(gap_secs.max(0.001));
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seed;

    #[test]
    fn generates_requested_packet_count() {
        let gen = SessionGenerator::new(InteractiveProfile::telnet());
        let mut rng = Seed::new(1).rng(0);
        for n in [0, 1, 10, 1000] {
            assert_eq!(gen.generate(n, Timestamp::ZERO, &mut rng).len(), n);
        }
    }

    #[test]
    fn timestamps_strictly_increase() {
        let gen = SessionGenerator::new(InteractiveProfile::ssh());
        let mut rng = Seed::new(2).rng(0);
        let f = gen.generate(2000, Timestamp::ZERO, &mut rng);
        for w in f.packets().windows(2) {
            assert!(w[0].timestamp() < w[1].timestamp());
        }
    }

    #[test]
    fn rate_is_interactive_scale() {
        // Interactive traffic is on the order of 0.3–5 packets/second.
        for seed in 0..5 {
            let gen = SessionGenerator::new(InteractiveProfile::ssh());
            let mut rng = Seed::new(seed).rng(0);
            let f = gen.generate(1500, Timestamp::ZERO, &mut rng);
            let r = f.mean_rate();
            assert!((0.2..8.0).contains(&r), "seed {seed}: rate {r}");
        }
    }

    #[test]
    fn ipds_are_heavy_tailed() {
        // The think-time tail should produce some multi-second gaps while
        // the burst body keeps the median well under a second.
        let gen = SessionGenerator::new(InteractiveProfile::telnet());
        let mut rng = Seed::new(3).rng(0);
        let f = gen.generate(3000, Timestamp::ZERO, &mut rng);
        let mut ipds: Vec<f64> = f.ipds().map(|d| d.as_secs_f64()).collect();
        ipds.sort_by(f64::total_cmp);
        let median = ipds[ipds.len() / 2];
        let p99 = ipds[ipds.len() * 99 / 100];
        assert!(median < 1.0, "median {median}");
        assert!(p99 > 2.0, "p99 {p99}");
    }

    #[test]
    fn provenance_is_origin_labelled() {
        let gen = SessionGenerator::default();
        let mut rng = Seed::new(4).rng(0);
        let f = gen.generate(50, Timestamp::ZERO, &mut rng);
        for (i, p) in f.iter().enumerate() {
            assert_eq!(p.provenance(), Provenance::Payload(i as u32));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = SessionGenerator::new(InteractiveProfile::ssh());
        let a = gen.generate(300, Timestamp::ZERO, &mut Seed::new(5).rng(0));
        let b = gen.generate(300, Timestamp::ZERO, &mut Seed::new(5).rng(0));
        let c = gen.generate(300, Timestamp::ZERO, &mut Seed::new(6).rng(0));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn profile_builders_apply() {
        let p = InteractiveProfile::ssh()
            .with_burst_continue(0.5)
            .with_keystroke_gap(LogNormal::new(0.0, 0.0))
            .with_think_time(BoundedPareto::new(1.0, 1.0, 10.0));
        let gen = SessionGenerator::new(p);
        let mut rng = Seed::new(7).rng(0);
        let f = gen.generate(100, Timestamp::ZERO, &mut rng);
        assert_eq!(f.len(), 100);
    }

    #[test]
    #[should_panic(expected = "burst_continue")]
    fn rejects_bad_burst_probability() {
        let _ = InteractiveProfile::ssh().with_burst_continue(1.0);
    }
}
