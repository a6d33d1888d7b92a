//! A re-implementation of the `tcplib` Telnet conversation model.
//!
//! `tcplib` (Danzig & Jamin, USC-CS-91-495) generates synthetic
//! wide-area traffic by inverse-transform sampling from measured
//! empirical CDFs. The original distribution tables shipped as 1991 C
//! code that is no longer distributed; this module encodes the *shape*
//! of its Telnet inter-arrival and packet-size distributions as explicit
//! [`Empirical`] breakpoint tables: a dense sub-second body (typing),
//! a knee around one second, and a tail out to tens of seconds (think
//! pauses). The paper's §4.2 uses 100 such traces to confirm the
//! real-world results; our harness does the same.

use rand::Rng;
use stepstone_flow::{Flow, FlowBuilder, Packet, Provenance, TimeDelta, Timestamp};

use crate::dists::Empirical;

/// Inter-arrival CDF breakpoints, in seconds.
///
/// Re-derived from the published shape of `tcplib`'s
/// `telnet_interarrival` table: ~25% of gaps under 100 ms, ~78% under a
/// second, a heavy tail reaching the tens of seconds.
const TELNET_INTERARRIVAL_CDF: &[(f64, f64)] = &[
    (0.005, 0.00),
    (0.010, 0.02),
    (0.050, 0.10),
    (0.100, 0.25),
    (0.200, 0.45),
    (0.300, 0.55),
    (0.500, 0.65),
    (0.750, 0.72),
    (1.000, 0.78),
    (2.000, 0.87),
    (5.000, 0.94),
    (10.00, 0.97),
    (30.00, 0.99),
    (120.0, 1.00),
];

/// Packet-size CDF breakpoints, in bytes.
///
/// Telnet is character-at-a-time: most packets carry one byte of
/// payload; the tail models line-mode and option negotiation. Values are
/// on-wire payload sizes before any cipher padding.
const TELNET_PKTSIZE_CDF: &[(f64, f64)] = &[
    (1.0, 0.00),
    (2.0, 0.70),
    (4.0, 0.80),
    (8.0, 0.86),
    (16.0, 0.91),
    (64.0, 0.96),
    (256.0, 0.99),
    (512.0, 1.00),
];

/// The `tcplib`-style Telnet source.
///
/// # Example
///
/// ```
/// use stepstone_traffic::{tcplib::TelnetModel, Seed};
/// use stepstone_flow::Timestamp;
///
/// let model = TelnetModel::new();
/// let mut rng = Seed::new(11).rng(0);
/// let flow = model.generate(1000, Timestamp::ZERO, &mut rng);
/// assert_eq!(flow.len(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TelnetModel {
    interarrival: Empirical,
    pktsize: Empirical,
}

impl TelnetModel {
    /// Creates the model with the built-in distribution tables.
    pub fn new() -> Self {
        TelnetModel {
            interarrival: Empirical::from_cdf(TELNET_INTERARRIVAL_CDF.to_vec()),
            pktsize: Empirical::from_cdf(TELNET_PKTSIZE_CDF.to_vec()),
        }
    }

    /// The inter-arrival distribution (seconds).
    pub const fn interarrival(&self) -> &Empirical {
        &self.interarrival
    }

    /// The packet-size distribution (bytes).
    pub const fn packet_size(&self) -> &Empirical {
        &self.pktsize
    }

    /// Generates a Telnet session of exactly `packets` packets starting
    /// at `start`, provenance-labelled as an origin flow.
    pub fn generate<R: Rng + ?Sized>(&self, packets: usize, start: Timestamp, rng: &mut R) -> Flow {
        let mut b = FlowBuilder::with_capacity(packets);
        let mut t = start;
        for i in 0..packets {
            let size = self.pktsize.sample(rng).round().max(1.0) as u32;
            #[expect(
                clippy::expect_used,
                reason = "interarrival samples are clamped to a positive floor, so t is monotone"
            )]
            b.push(Packet::with_provenance(
                t,
                size,
                Provenance::Payload(i as u32),
            ))
            .expect("time only moves forward");
            t += TimeDelta::from_secs_f64(self.interarrival.sample(rng).max(0.001));
        }
        b.finish()
    }
}

impl Default for TelnetModel {
    fn default() -> Self {
        TelnetModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seed;

    #[test]
    fn generates_exact_count_with_increasing_times() {
        let m = TelnetModel::new();
        let mut rng = Seed::new(1).rng(0);
        let f = m.generate(500, Timestamp::ZERO, &mut rng);
        assert_eq!(f.len(), 500);
        for w in f.packets().windows(2) {
            assert!(w[0].timestamp() < w[1].timestamp());
        }
    }

    #[test]
    fn interarrival_body_and_tail_match_table() {
        let m = TelnetModel::new();
        let mut rng = Seed::new(2).rng(0);
        let f = m.generate(20_000, Timestamp::ZERO, &mut rng);
        let ipds: Vec<f64> = f.ipds().map(|d| d.as_secs_f64()).collect();
        let under_100ms = ipds.iter().filter(|&&d| d <= 0.1).count() as f64 / ipds.len() as f64;
        let under_1s = ipds.iter().filter(|&&d| d <= 1.0).count() as f64 / ipds.len() as f64;
        let over_10s = ipds.iter().filter(|&&d| d > 10.0).count() as f64 / ipds.len() as f64;
        assert!((under_100ms - 0.25).abs() < 0.03, "{under_100ms}");
        assert!((under_1s - 0.78).abs() < 0.03, "{under_1s}");
        assert!(over_10s > 0.005 && over_10s < 0.06, "{over_10s}");
    }

    #[test]
    fn packet_sizes_are_mostly_tiny() {
        let m = TelnetModel::new();
        let mut rng = Seed::new(3).rng(0);
        let f = m.generate(5_000, Timestamp::ZERO, &mut rng);
        let tiny = f.iter().filter(|p| p.size() <= 2).count() as f64 / f.len() as f64;
        assert!(tiny > 0.55, "{tiny}");
        assert!(f.iter().all(|p| (1..=512).contains(&p.size())));
    }

    #[test]
    fn rate_is_interactive_scale() {
        let m = TelnetModel::new();
        let mut rng = Seed::new(4).rng(0);
        let f = m.generate(2_000, Timestamp::ZERO, &mut rng);
        let r = f.mean_rate();
        assert!((0.2..5.0).contains(&r), "rate {r}");
    }

    #[test]
    fn deterministic_per_seed() {
        let m = TelnetModel::new();
        let a = m.generate(100, Timestamp::ZERO, &mut Seed::new(5).rng(0));
        let b = m.generate(100, Timestamp::ZERO, &mut Seed::new(5).rng(0));
        assert_eq!(a, b);
    }
}
