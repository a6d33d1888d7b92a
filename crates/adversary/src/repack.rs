//! Re-packetization — the other future-work evasion from §6.

use rand_chacha::ChaCha8Rng;
use stepstone_flow::{Flow, Packet};

use crate::pipeline::Transform;

/// Coalesces packets that arrive within `window` of their predecessor
/// into a single packet (Nagle-style merging at a relay).
///
/// The merged packet keeps the *first* packet's timestamp and
/// provenance and the summed size, which is what a coalescing TCP stack
/// produces on the wire. This breaks the paper's assumption 1 (one
/// upstream packet → one downstream packet); the `future_repack`
/// experiment measures how the algorithms degrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repacketizer {
    window: stepstone_flow::TimeDelta,
}

impl Repacketizer {
    /// Creates a re-packetizer that merges packets closer than `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is negative.
    pub fn new(window: stepstone_flow::TimeDelta) -> Self {
        assert!(!window.is_negative(), "merge window must be non-negative");
        Repacketizer { window }
    }

    /// The merge window.
    pub const fn window(&self) -> stepstone_flow::TimeDelta {
        self.window
    }
}

impl Transform for Repacketizer {
    fn apply_with(&self, flow: &Flow, _rng: &mut ChaCha8Rng) -> Flow {
        if self.window == stepstone_flow::TimeDelta::ZERO || flow.len() < 2 {
            return flow.clone();
        }
        let mut merged: Vec<Packet> = Vec::with_capacity(flow.len());
        for p in flow {
            match merged.last_mut() {
                Some(head) if p.timestamp() - head.timestamp() <= self.window => {
                    // Coalesce into the head packet; size accumulates.
                    // Clamped to 1: merging zero-size records must not
                    // synthesise a zero-length packet mid-window — no
                    // coalescing stack emits an empty segment, and a
                    // zero-length record breaks size-quantum matching
                    // downstream.
                    *head = Packet::with_provenance(
                        head.timestamp(),
                        head.size().saturating_add(p.size()).max(1),
                        head.provenance(),
                    );
                }
                _ => merged.push(*p),
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "coalescing adjacent packets keeps the head timestamps sorted"
        )]
        let repacked = Flow::from_packets(merged).expect("merging preserves order");
        repacked
    }

    fn label(&self) -> String {
        format!("repack(window={})", self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_flow::{TimeDelta, Timestamp};
    use stepstone_traffic::Seed;

    fn rng() -> ChaCha8Rng {
        Seed::new(1).rng(0)
    }

    fn flow(millis: &[i64]) -> Flow {
        Flow::from_timestamps(millis.iter().map(|&m| Timestamp::from_millis(m))).unwrap()
    }

    #[test]
    fn zero_window_is_identity() {
        let f = flow(&[0, 1, 2]);
        assert_eq!(
            Repacketizer::new(TimeDelta::ZERO).apply_with(&f, &mut rng()),
            f
        );
    }

    #[test]
    fn merges_a_tight_burst_into_one_packet() {
        let f = flow(&[0, 10, 20, 5000]);
        let out = Repacketizer::new(TimeDelta::from_millis(50)).apply_with(&f, &mut rng());
        assert_eq!(out.len(), 2);
        assert_eq!(out.timestamp(0), Timestamp::ZERO);
        assert_eq!(out[0].size(), 64 * 3);
        assert_eq!(out.timestamp(1), Timestamp::from_secs(5));
    }

    #[test]
    fn window_is_measured_from_the_merged_head() {
        // 0, 40, 80: with a 50ms window, 40 merges into 0, but 80 is
        // 80ms from the head so it survives.
        let f = flow(&[0, 40, 80]);
        let out = Repacketizer::new(TimeDelta::from_millis(50)).apply_with(&f, &mut rng());
        assert_eq!(out.len(), 2);
        assert_eq!(out.timestamp(1), Timestamp::from_millis(80));
    }

    #[test]
    fn sparse_flows_are_untouched() {
        let f = flow(&[0, 1000, 2000]);
        let out = Repacketizer::new(TimeDelta::from_millis(50)).apply_with(&f, &mut rng());
        assert_eq!(out, f);
    }

    #[test]
    fn provenance_of_head_wins() {
        let f = flow(&[0, 10]);
        let out = Repacketizer::new(TimeDelta::from_millis(50)).apply_with(&f, &mut rng());
        assert_eq!(out[0].provenance().upstream_index(), Some(0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_window() {
        let _ = Repacketizer::new(TimeDelta::from_micros(-1));
    }
}
