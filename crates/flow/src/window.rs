//! Bounded sliding windows over live packet streams.

use std::collections::VecDeque;

use crate::error::FlowError;
use crate::flow::Flow;
use crate::packet::Packet;
use crate::time::{TimeDelta, Timestamp};

/// A bounded, append-only window over one flow's live packet stream.
///
/// Online monitors cannot hold a suspicious flow's full history: flows
/// are unbounded and memory is not. A `SlidingWindow` keeps the most
/// recent `capacity` packets, enforcing the same non-decreasing
/// timestamp invariant as [`Flow`], and evicts from the front when
/// full. [`snapshot`](SlidingWindow::snapshot) materialises the current
/// contents as a [`Flow`] for batch decoding.
///
/// # Example
///
/// ```
/// use stepstone_flow::{Packet, SlidingWindow, Timestamp};
///
/// let mut w = SlidingWindow::new(2);
/// w.push(Packet::new(Timestamp::from_secs(1), 64)).unwrap();
/// w.push(Packet::new(Timestamp::from_secs(2), 64)).unwrap();
/// // Third push evicts the oldest packet.
/// let evicted = w.push(Packet::new(Timestamp::from_secs(3), 64)).unwrap();
/// assert_eq!(evicted.unwrap().timestamp(), Timestamp::from_secs(1));
/// assert_eq!(w.len(), 2);
/// assert_eq!(w.pushed(), 3);
/// assert_eq!(w.evicted(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    packets: VecDeque<Packet>,
    capacity: usize,
    pushed: u64,
    evicted: u64,
}

impl SlidingWindow {
    /// Creates an empty window holding at most `capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            packets: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            pushed: 0,
            evicted: 0,
        }
    }

    /// Maximum number of packets retained.
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Packets currently in the window.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// `true` when no packets are retained.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// `true` when the next push will evict the oldest packet.
    pub fn is_full(&self) -> bool {
        self.packets.len() == self.capacity
    }

    /// Total packets ever accepted, including since-evicted ones.
    pub const fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Packets evicted from the front to respect the capacity bound.
    pub const fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Timestamp of the oldest retained packet.
    pub fn first_timestamp(&self) -> Option<Timestamp> {
        self.packets.front().map(Packet::timestamp)
    }

    /// Timestamp of the newest retained packet.
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.packets.back().map(Packet::timestamp)
    }

    /// Appends a packet, evicting (and returning) the oldest packet if
    /// the window is full.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::OutOfOrder`] — with `index` counting all
    /// packets ever pushed — if the packet's timestamp precedes the
    /// newest retained packet's. The window is unchanged on error.
    pub fn push(&mut self, packet: Packet) -> Result<Option<Packet>, FlowError> {
        if let Some(last) = self.last_timestamp() {
            if packet.timestamp() < last {
                return Err(FlowError::OutOfOrder {
                    index: self.pushed as usize,
                    previous: last,
                    offending: packet.timestamp(),
                });
            }
        }
        let evicted = if self.is_full() {
            self.evicted += 1;
            self.packets.pop_front()
        } else {
            None
        };
        self.packets.push_back(packet);
        self.pushed += 1;
        Ok(evicted)
    }

    /// Time since the newest packet arrived, saturating at zero if `now`
    /// precedes it. `None` for an empty window.
    pub fn idle_since(&self, now: Timestamp) -> Option<TimeDelta> {
        let last = self.last_timestamp()?;
        Some(if now < last {
            TimeDelta::ZERO
        } else {
            now - last
        })
    }

    /// Time spanned by the retained packets (zero when fewer than two).
    pub fn span(&self) -> TimeDelta {
        match (self.first_timestamp(), self.last_timestamp()) {
            (Some(first), Some(last)) => last - first,
            _ => TimeDelta::ZERO,
        }
    }

    /// The packet with absolute push index `index` (counting every
    /// packet ever pushed, as [`pushed`](SlidingWindow::pushed) does),
    /// or `None` if it was evicted or not pushed yet. Lets a consumer
    /// resume a scan across pushes and evictions from one integer.
    pub fn get(&self, index: u64) -> Option<&Packet> {
        let offset = index.checked_sub(self.evicted)?;
        self.packets.get(usize::try_from(offset).ok()?)
    }

    /// Iterates over the retained packets, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.packets.iter()
    }

    /// Materialises the retained packets as a [`Flow`] for batch
    /// decoding. Provenance is preserved.
    pub fn snapshot(&self) -> Flow {
        #[expect(
            clippy::expect_used,
            reason = "push() rejects out-of-order packets, so the retained buffer is always sorted"
        )]
        let flow = Flow::from_packets(self.packets.iter().copied())
            .expect("window invariant: timestamps are non-decreasing");
        flow
    }

    /// [`snapshot`](SlidingWindow::snapshot) for a consumer done with
    /// the stream: moves the retained packets out instead of copying
    /// them, reusing the window's buffer, and leaves the window empty
    /// as [`clear`](SlidingWindow::clear) does.
    pub fn take_snapshot(&mut self) -> Flow {
        let packets = Vec::from(std::mem::take(&mut self.packets));
        self.evicted += packets.len() as u64;
        #[expect(
            clippy::expect_used,
            reason = "push() rejects out-of-order packets, so the retained buffer is always sorted"
        )]
        let flow =
            Flow::from_packets(packets).expect("window invariant: timestamps are non-decreasing");
        flow
    }

    /// Drops all retained packets; cumulative counters are kept.
    pub fn clear(&mut self) {
        self.evicted += self.packets.len() as u64;
        self.packets.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(secs: f64) -> Packet {
        Packet::new(Timestamp::from_secs_f64(secs), 64)
    }

    #[test]
    fn keeps_most_recent_capacity_packets() {
        let mut w = SlidingWindow::new(3);
        for i in 0..10 {
            w.push(p(i as f64)).unwrap();
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.pushed(), 10);
        assert_eq!(w.evicted(), 7);
        assert_eq!(w.first_timestamp(), Some(Timestamp::from_secs(7)));
        assert_eq!(w.last_timestamp(), Some(Timestamp::from_secs(9)));
        assert_eq!(w.span(), TimeDelta::from_secs(2));
    }

    #[test]
    fn get_uses_absolute_push_indices() {
        let mut w = SlidingWindow::new(3);
        for i in 0..5 {
            w.push(p(i as f64)).unwrap();
        }
        assert_eq!(w.get(1), None, "evicted");
        assert_eq!(
            w.get(2).map(Packet::timestamp),
            Some(Timestamp::from_secs(2))
        );
        assert_eq!(
            w.get(4).map(Packet::timestamp),
            Some(Timestamp::from_secs(4))
        );
        assert_eq!(w.get(5), None, "not pushed yet");
    }

    #[test]
    fn rejects_out_of_order_and_stays_unchanged() {
        let mut w = SlidingWindow::new(4);
        w.push(p(1.0)).unwrap();
        w.push(p(2.0)).unwrap();
        let err = w.push(p(1.5)).unwrap_err();
        assert!(
            matches!(err, FlowError::OutOfOrder { index: 2, .. }),
            "unexpected error {err:?}"
        );
        assert_eq!(w.len(), 2);
        assert_eq!(w.pushed(), 2);
        // Equal timestamps are allowed, matching Flow's invariant.
        w.push(p(2.0)).unwrap();
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn snapshot_matches_flow_semantics() {
        let mut w = SlidingWindow::new(8);
        let chaff = Packet::chaff(Timestamp::from_secs(2), 48);
        w.push(p(1.0)).unwrap();
        w.push(chaff).unwrap();
        w.push(p(3.0)).unwrap();
        let flow = w.snapshot();
        assert_eq!(flow.len(), 3);
        assert_eq!(flow.chaff_count(), 1);
        assert_eq!(flow[1], chaff);
    }

    #[test]
    fn take_snapshot_moves_the_packets_out() {
        let mut w = SlidingWindow::new(2);
        for i in 0..3 {
            w.push(p(i as f64)).unwrap();
        }
        let copy = w.snapshot();
        assert_eq!(w.take_snapshot(), copy);
        assert!(w.is_empty());
        assert_eq!(w.pushed(), 3);
        assert_eq!(w.evicted(), 3);
    }

    #[test]
    fn idle_since_saturates() {
        let mut w = SlidingWindow::new(2);
        assert_eq!(w.idle_since(Timestamp::from_secs(5)), None);
        w.push(p(4.0)).unwrap();
        assert_eq!(
            w.idle_since(Timestamp::from_secs(9)),
            Some(TimeDelta::from_secs(5))
        );
        assert_eq!(w.idle_since(Timestamp::from_secs(1)), Some(TimeDelta::ZERO));
    }

    #[test]
    fn clear_counts_dropped_packets_as_evicted() {
        let mut w = SlidingWindow::new(4);
        w.push(p(1.0)).unwrap();
        w.push(p(2.0)).unwrap();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.evicted(), 2);
        assert_eq!(w.pushed(), 2);
        // Order restarts after a clear: earlier timestamps are fine.
        w.push(p(0.5)).unwrap();
        assert_eq!(w.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SlidingWindow::new(0);
    }
}
