//! The decision gate: a resumable chain through a pair's matching
//! sets that tells the monitor which windows can decide.

use stepstone_flow::{Flow, SlidingWindow, TimeDelta};

/// What a pair's decision gate says about its current window
/// ([`CorrelatorBackend::gate`](crate::CorrelatorBackend::gate)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The window may decide: decode it.
    Complete,
    /// The window ran out before the chain did: its decode is provably
    /// unmatched, but a longer window may still decide.
    Pending,
    /// The chain is broken for good: this window and every longer
    /// window of the same stream decode unmatched, so the pair is
    /// unrelated.
    Unrelated,
}

/// The chain a pair's decision gate follows through a suspicious
/// stream, one link per upstream packet.
///
/// Link `i` is the earliest suspicious packet `j` with
/// `tᵢ ≤ sⱼ ≤ tᵢ + Δ` and, when a size quantum is set, the upstream
/// packet's quantized size class — exactly the members of the paper's
/// matching set `M(pᵢ)` (§3.2). An *ordered* chain additionally needs
/// `j` after link `i − 1`: that is the earliest order-consistent
/// matching, which the forward pass of the phase-1 tightening (§3.3)
/// computes. An unordered chain only asks every matching set to be
/// non-empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainRule {
    /// The maximum delay `Δ`.
    pub delta: TimeDelta,
    /// The size quantum, if the size constraint is on.
    pub size_quantum: Option<u32>,
    /// Links must be strictly increasing (order-consistent).
    pub ordered: bool,
}

/// Where one pair's [`ChainRule`] chain stands: the next upstream packet
/// to link and the absolute push index of the next suspicious packet to
/// examine. Two integers carried across windows, so each suspicious
/// packet is examined about once over the pair's whole life.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChainState {
    /// The next upstream packet the chain has to link.
    next: usize,
    /// Absolute push index of the next suspicious packet the chain
    /// examines (for an unordered chain: the first packet not earlier
    /// than the next upstream packet).
    cursor: u64,
}

impl ChainState {
    /// Extends the [`ChainRule`] chain of `upstream` over the packets
    /// `window` gained since the last call, and reports how far it got.
    ///
    /// Links never move once placed: a longer window only offers later
    /// packets. The chain therefore resumes where it stopped, and the
    /// verdict of a call equals that of one call over the whole stream
    /// so far. A packet evicted before the chain reached it is skipped,
    /// which can only delay links — and an evicted packet is in no
    /// later window either. The window must keep the stream's
    /// non-decreasing timestamps, so it must never have been
    /// [`clear`](SlidingWindow::clear)ed.
    ///
    /// - [`Gate::Complete`]: every upstream packet is linked.
    /// - [`Gate::Pending`]: the window ended before the next link.
    /// - [`Gate::Unrelated`]: a window packet is later than `tᵢ + Δ`
    ///   while upstream packet `i` has no link, so `M(pᵢ)` (above link
    ///   `i − 1`, when ordered) is final and empty.
    pub fn advance(&mut self, upstream: &Flow, rule: ChainRule, window: &SlidingWindow) -> Gate {
        let mut lo = self.cursor.max(window.evicted());
        while let Some(up) = upstream.get(self.next) {
            let t = up.timestamp();
            let latest = t + rule.delta;
            let class = rule.size_quantum.map(|q| (up.size().div_ceil(q), q));
            let mut j = lo;
            let link = loop {
                // An ordered chain never revisits what it passed; an
                // unordered one rescans from the set's start.
                let resume = if rule.ordered { j } else { lo };
                let Some(p) = window.get(j) else {
                    self.cursor = resume;
                    return Gate::Pending;
                };
                if p.timestamp() > latest {
                    self.cursor = resume;
                    return Gate::Unrelated;
                }
                if p.timestamp() >= t && class.is_none_or(|(c, q)| p.size().div_ceil(q) == c) {
                    break j;
                }
                j += 1;
                if p.timestamp() < t {
                    // Too early for this set, so for every later one.
                    lo = j;
                }
            };
            self.next += 1;
            if rule.ordered {
                lo = link + 1;
            }
        }
        self.cursor = lo;
        Gate::Complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_flow::{Packet, Timestamp};

    fn flow(secs: &[f64]) -> Flow {
        Flow::from_timestamps(secs.iter().map(|&s| Timestamp::from_secs_f64(s))).unwrap()
    }

    fn rule(ordered: bool) -> ChainRule {
        ChainRule {
            delta: TimeDelta::from_secs(1),
            size_quantum: None,
            ordered,
        }
    }

    /// Feeds `down` into a window one packet at a time, advancing the
    /// gate after each push.
    fn gates(up: &Flow, down: &[f64], rule: ChainRule, capacity: usize) -> Vec<Gate> {
        let mut window = SlidingWindow::new(capacity);
        let mut state = ChainState::default();
        down.iter()
            .map(|&s| {
                window
                    .push(Packet::new(Timestamp::from_secs_f64(s), 64))
                    .unwrap();
                state.advance(up, rule, &window)
            })
            .collect()
    }

    #[test]
    fn ordered_chain_needs_distinct_increasing_links() {
        let up = flow(&[0.0, 0.1]);
        // One packet serves both sets, but not both links.
        assert_eq!(gates(&up, &[0.5], rule(true), 8), [Gate::Pending]);
        assert_eq!(gates(&up, &[0.5], rule(false), 8), [Gate::Complete]);
        assert_eq!(
            gates(&up, &[0.5, 0.6], rule(true), 8),
            [Gate::Pending, Gate::Complete]
        );
        // The second set closes (1.1 s) before a second link arrives.
        assert_eq!(
            gates(&up, &[0.5, 1.5], rule(true), 8),
            [Gate::Pending, Gate::Unrelated]
        );
    }

    #[test]
    fn the_delay_bound_is_inclusive() {
        let up = flow(&[0.0]);
        assert_eq!(gates(&up, &[1.0], rule(true), 8), [Gate::Complete]);
        assert_eq!(gates(&up, &[1.000_001], rule(true), 8), [Gate::Unrelated]);
    }

    #[test]
    fn a_packet_before_the_set_opens_is_never_a_link() {
        let up = flow(&[5.0]);
        assert_eq!(
            gates(&up, &[1.0, 4.9, 5.5], rule(true), 8),
            [Gate::Pending, Gate::Pending, Gate::Complete]
        );
    }

    #[test]
    fn size_classes_filter_links_without_losing_them_for_later_sets() {
        let up = Flow::from_packets([
            Packet::new(Timestamp::from_secs(0), 16),
            Packet::new(Timestamp::from_secs_f64(0.1), 48),
        ])
        .unwrap();
        let mut window = SlidingWindow::new(8);
        let mut state = ChainState::default();
        let sized = ChainRule {
            size_quantum: Some(16),
            ..rule(false)
        };
        // Class 3 arrives first: wrong for set 0, right for set 1.
        window
            .push(Packet::new(Timestamp::from_secs_f64(0.5), 48))
            .unwrap();
        assert_eq!(state.advance(&up, sized, &window), Gate::Pending);
        window
            .push(Packet::new(Timestamp::from_secs_f64(0.6), 16))
            .unwrap();
        assert_eq!(state.advance(&up, sized, &window), Gate::Complete);
    }

    #[test]
    fn evicted_packets_are_skipped() {
        let up = flow(&[0.0, 0.1]);
        let mut window = SlidingWindow::new(1);
        let mut state = ChainState::default();
        for s in [0.2, 0.3] {
            window
                .push(Packet::new(Timestamp::from_secs_f64(s), 64))
                .unwrap();
        }
        // Only 0.3 s is left: one link, not two.
        assert_eq!(state.advance(&up, rule(true), &window), Gate::Pending);
    }

    #[test]
    fn packets_evicted_before_the_first_call_do_not_stall_the_chain() {
        let up = flow(&[5.0, 5.1]);
        let mut window = SlidingWindow::new(2);
        for s in [1.0, 2.0, 3.0, 5.5, 5.6] {
            window
                .push(Packet::new(Timestamp::from_secs_f64(s), 64))
                .unwrap();
        }
        let mut state = ChainState::default();
        assert_eq!(state.advance(&up, rule(true), &window), Gate::Complete);
    }

    #[test]
    fn an_empty_upstream_is_complete() {
        assert_eq!(gates(&Flow::new(), &[1.0], rule(true), 4), [Gate::Complete]);
    }
}
