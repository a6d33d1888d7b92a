//! First-in-first-out delay semantics.

use crate::flow::Flow;
use crate::packet::Packet;
use crate::time::TimeDelta;

/// A FIFO forwarding element that can hold packets back but never
/// reorder them.
///
/// Both the watermark embedder (which delays selected packets by the
/// adjustment `a`) and the adversary's timing perturbation are modelled
/// as such an element: when packet `i` is held until `t_i + delay_i`,
/// every later packet leaves no earlier than the packets before it. This
/// is what makes the paper's *order constraint* (assumption 3) hold by
/// construction, and it is the source of the small probability that a
/// watermark bit cannot be embedded exactly.
///
/// # Example
///
/// ```
/// use stepstone_flow::{FifoChannel, Flow, TimeDelta, Timestamp};
///
/// # fn main() -> Result<(), stepstone_flow::FlowError> {
/// let f = Flow::from_timestamps([0.0, 0.1, 5.0].map(Timestamp::from_secs_f64))?;
/// // Delay only the first packet by 1s: the second is dragged along
/// // (FIFO), the third is unaffected.
/// let delayed = FifoChannel::new().apply_fn(&f, |i, _| {
///     if i == 0 { TimeDelta::from_secs(1) } else { TimeDelta::ZERO }
/// });
/// assert_eq!(delayed.timestamp(0), Timestamp::from_secs_f64(1.0));
/// assert_eq!(delayed.timestamp(1), Timestamp::from_secs_f64(1.0));
/// assert_eq!(delayed.timestamp(2), Timestamp::from_secs_f64(5.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FifoChannel {
    min_gap: TimeDelta,
}

impl FifoChannel {
    /// Creates a FIFO channel with no minimum inter-packet gap.
    pub const fn new() -> Self {
        FifoChannel {
            min_gap: TimeDelta::ZERO,
        }
    }

    /// Creates a FIFO channel that spaces released packets at least
    /// `min_gap` apart (a crude serialization-delay model).
    ///
    /// # Panics
    ///
    /// Panics if `min_gap` is negative.
    pub fn with_min_gap(min_gap: TimeDelta) -> Self {
        assert!(
            !min_gap.is_negative(),
            "FifoChannel minimum gap must be non-negative"
        );
        FifoChannel { min_gap }
    }

    /// The configured minimum inter-packet gap.
    pub const fn min_gap(&self) -> TimeDelta {
        self.min_gap
    }

    /// Applies per-packet hold delays with FIFO semantics.
    ///
    /// Packet `i` is released at
    /// `max(release_{i-1} + min_gap, t_i + delays[i])`.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len() != flow.len()` or any delay is negative
    /// (a forwarding element cannot send a packet before receiving it).
    #[must_use]
    pub fn apply(&self, flow: &Flow, delays: &[TimeDelta]) -> Flow {
        assert_eq!(delays.len(), flow.len(), "one delay per packet is required");
        self.apply_fn(flow, |i, _| delays[i])
    }

    /// Applies per-packet hold delays computed by a closure, with FIFO
    /// semantics. See [`apply`](Self::apply).
    ///
    /// # Panics
    ///
    /// Panics if the closure returns a negative delay.
    #[must_use]
    pub fn apply_fn<F>(&self, flow: &Flow, mut delay_of: F) -> Flow
    where
        F: FnMut(usize, &Packet) -> TimeDelta,
    {
        let mut packets = Vec::with_capacity(flow.len());
        let mut prev_release = None;
        for (i, p) in flow.iter().enumerate() {
            let delay = delay_of(i, p);
            assert!(
                !delay.is_negative(),
                "FIFO delays must be non-negative, got {delay} for packet {i}"
            );
            let mut release = p.timestamp() + delay;
            if let Some(prev) = prev_release {
                release = release.max(prev + self.min_gap);
            }
            prev_release = Some(release);
            packets.push(p.at(release));
        }
        #[expect(
            clippy::expect_used,
            reason = "release times are clamped to be monotone in the loop above"
        )]
        let released = Flow::from_packets(packets).expect("FIFO release times are monotone");
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn flow(secs: &[f64]) -> Flow {
        Flow::from_timestamps(secs.iter().map(|&s| Timestamp::from_secs_f64(s))).unwrap()
    }

    #[test]
    fn zero_delays_are_identity() {
        let f = flow(&[0.0, 1.0, 2.0]);
        let g = FifoChannel::new().apply(&f, &[TimeDelta::ZERO; 3]);
        assert_eq!(f, g);
    }

    #[test]
    fn constant_delay_shifts_everything() {
        let f = flow(&[0.0, 1.0]);
        let g = FifoChannel::new().apply(&f, &[TimeDelta::from_secs(2); 2]);
        assert_eq!(g.timestamps(), flow(&[2.0, 3.0]).timestamps());
    }

    #[test]
    fn fifo_drags_later_packets() {
        let f = flow(&[0.0, 0.5, 0.6, 10.0]);
        let g = FifoChannel::new().apply_fn(&f, |i, _| {
            if i == 0 {
                TimeDelta::from_secs(1)
            } else {
                TimeDelta::ZERO
            }
        });
        // Packets 1 and 2 cannot leave before packet 0.
        assert_eq!(g.timestamp(0), Timestamp::from_secs(1));
        assert_eq!(g.timestamp(1), Timestamp::from_secs(1));
        assert_eq!(g.timestamp(2), Timestamp::from_secs(1));
        assert_eq!(g.timestamp(3), Timestamp::from_secs(10));
    }

    #[test]
    fn min_gap_spaces_packets() {
        let f = flow(&[0.0, 0.0, 0.0]);
        let g =
            FifoChannel::with_min_gap(TimeDelta::from_millis(10)).apply(&f, &[TimeDelta::ZERO; 3]);
        assert_eq!(
            g.timestamps(),
            vec![
                Timestamp::ZERO,
                Timestamp::from_millis(10),
                Timestamp::from_millis(20)
            ]
        );
    }

    #[test]
    fn preserves_provenance_and_size() {
        let f = Flow::from_packets([Packet::chaff(Timestamp::ZERO, 123)]).unwrap();
        let g = FifoChannel::new().apply(&f, &[TimeDelta::from_secs(1)]);
        assert!(g[0].provenance().is_chaff());
        assert_eq!(g[0].size(), 123);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_delay() {
        let f = flow(&[0.0]);
        let _ = FifoChannel::new().apply(&f, &[TimeDelta::from_secs(-1)]);
    }

    #[test]
    #[should_panic(expected = "one delay per packet")]
    fn rejects_wrong_delay_count() {
        let f = flow(&[0.0, 1.0]);
        let _ = FifoChannel::new().apply(&f, &[TimeDelta::ZERO]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_min_gap() {
        let _ = FifoChannel::with_min_gap(TimeDelta::from_micros(-1));
    }
}
