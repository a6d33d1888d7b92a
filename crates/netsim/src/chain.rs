//! Assembling and running whole stepping-stone chains.

use rand_chacha::ChaCha8Rng;
use stepstone_flow::{Flow, Packet, TimeDelta};
use stepstone_traffic::{PoissonProcess, Seed};

use crate::engine::EventQueue;
use crate::node::{Node, NodeId, RelayHost, Tap, Wire};

/// One hop of a chain: the wire into a stepping stone plus the
/// stepping-stone host itself, and optionally the chaff that host
/// injects.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Hop {
    wire: Wire,
    relay: RelayHost,
    /// Poisson chaff the stepping stone mixes into its output flow,
    /// in packets/second (a compromised relay generating cover
    /// traffic in-line, rather than post-hoc).
    chaff_rate: f64,
}

/// Builder for [`SteppingStoneChain`].
///
/// Produced by [`SteppingStoneChain::builder`].
#[derive(Debug, Clone, Default)]
pub struct ChainBuilder {
    hops: Vec<Hop>,
}

impl ChainBuilder {
    /// Adds a hop with the given wire latency and jitter, and a default
    /// relay (1 ms service, jitter equal to one tenth of the wire
    /// jitter).
    #[must_use]
    pub fn hop(mut self, latency: TimeDelta, jitter: TimeDelta) -> Self {
        self.hops.push(Hop {
            wire: Wire::new(latency, jitter),
            relay: RelayHost::new(TimeDelta::from_millis(1), jitter / 10),
            chaff_rate: 0.0,
        });
        self
    }

    /// Adds a hop with explicit wire and relay elements.
    #[must_use]
    pub fn hop_with(mut self, wire: Wire, relay: RelayHost) -> Self {
        self.hops.push(Hop {
            wire,
            relay,
            chaff_rate: 0.0,
        });
        self
    }

    /// Makes the most recently added stepping stone inject Poisson
    /// chaff at `rate` packets/second into its output flow — a
    /// compromised relay generating cover traffic in-line. The chaff is
    /// observed at this hop's tap and travels down the rest of the
    /// chain like any other packet.
    ///
    /// # Panics
    ///
    /// Panics if no hop was added yet, or `rate` is negative or not
    /// finite.
    #[must_use]
    pub fn with_chaff(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "chaff rate must be non-negative and finite, got {rate}"
        );
        #[expect(
            clippy::expect_used,
            reason = "builder misuse (with_chaff before any hop); documented panic contract"
        )]
        let hop = self.hops.last_mut().expect("with_chaff must follow a hop");
        hop.chaff_rate = rate;
        self
    }

    /// Finalizes the chain.
    ///
    /// # Panics
    ///
    /// Panics if no hops were added — a chain needs at least one
    /// stepping stone.
    pub fn build(self) -> SteppingStoneChain {
        assert!(
            !self.hops.is_empty(),
            "a stepping-stone chain needs at least one hop"
        );
        SteppingStoneChain { hops: self.hops }
    }
}

/// A configured chain `h₁ → h₂ → … → hₙ` ready to relay flows.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct SteppingStoneChain {
    hops: Vec<Hop>,
}

impl SteppingStoneChain {
    /// Starts building a chain.
    pub fn builder() -> ChainBuilder {
        ChainBuilder::default()
    }

    /// Number of hops (stepping stones).
    pub fn hops(&self) -> usize {
        self.hops.len()
    }

    /// An upper bound on the total delay the chain can add to a packet
    /// that never queues behind another (propagation + jitter + service).
    ///
    /// Queueing behind earlier packets can exceed this for bursts; the
    /// experiment harness folds that into the paper's single maximum
    /// delay `Δ`.
    pub fn max_unqueued_delay(&self) -> TimeDelta {
        self.hops
            .iter()
            .map(|h| h.wire.max_delay() + h.relay.service() + h.relay.jitter())
            .sum()
    }

    /// Relays `origin` through the chain, returning the flow observed by
    /// a tap after each stepping stone. Deterministic in `seed`.
    pub fn simulate(&self, origin: &Flow, seed: Seed) -> ChainObservation {
        // Node layout per hop i: wire(3i) → relay(3i+1) → tap(3i+2),
        // with each tap forwarding into the next hop's wire.
        let mut wires: Vec<Wire> = self.hops.iter().map(|h| h.wire).collect();
        let mut relays: Vec<RelayHost> = self.hops.iter().map(|h| h.relay).collect();
        let mut taps: Vec<Tap> = self.hops.iter().map(|_| Tap::new()).collect();
        let node_count = self.hops.len() * 3;

        let mut queue = EventQueue::new();
        // The source injects the origin flow into the first wire.
        for p in origin {
            queue.schedule(p.timestamp(), NodeId::new(0), *p);
        }
        // Chaff-injecting stepping stones: their cover traffic enters at
        // the tap (the relay's output) and flows onward from there.
        if let (Some(first), Some(last)) = (origin.first(), origin.last()) {
            let span = (last.timestamp() - first.timestamp())
                + self.max_unqueued_delay()
                + TimeDelta::from_secs(1);
            for (i, hop) in self.hops.iter().enumerate() {
                if hop.chaff_rate > 0.0 {
                    let process = PoissonProcess::new(hop.chaff_rate);
                    let mut chaff_rng = seed.child(0xC4AF ^ i as u64).rng(1);
                    for t in process.arrivals(first.timestamp(), span, &mut chaff_rng) {
                        queue.schedule(
                            t,
                            NodeId::new(3 * i + 2),
                            Packet::chaff(t, PoissonProcess::CHAFF_SIZE),
                        );
                    }
                }
            }
        }
        let mut rng: ChaCha8Rng = seed.rng(0xC4A1);
        while let Some(ev) = queue.pop() {
            let idx = ev.node.index();
            let (hop, role) = (idx / 3, idx % 3);
            let node: &mut dyn Node = match role {
                0 => &mut wires[hop],
                1 => &mut relays[hop],
                _ => &mut taps[hop],
            };
            if let Some((delay, packet)) = node.receive(ev.packet, ev.time, &mut rng) {
                let next = idx + 1;
                if next < node_count {
                    queue.schedule(ev.time + delay, NodeId::new(next), packet);
                }
            }
        }
        ChainObservation {
            flows: taps.iter().map(Tap::flow).collect(),
        }
    }
}

/// The flows observed after each hop of a simulated chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainObservation {
    flows: Vec<Flow>,
}

impl ChainObservation {
    /// Number of observation points (one per hop).
    pub fn hops(&self) -> usize {
        self.flows.len()
    }

    /// The flow observed after hop `index` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ hops()`.
    pub fn at_hop(&self, index: usize) -> &Flow {
        &self.flows[index]
    }

    /// The flow observed at the end of the chain.
    ///
    /// # Panics
    ///
    /// Panics if the chain had no hops (builder forbids this).
    pub fn last(&self) -> &Flow {
        #[expect(
            clippy::expect_used,
            reason = "the builder refuses to construct a zero-hop chain"
        )]
        let last = self.flows.last().expect("chains have at least one hop");
        last
    }

    /// Iterates over per-hop flows, upstream to downstream.
    pub fn iter(&self) -> std::slice::Iter<'_, Flow> {
        self.flows.iter()
    }
}
