//! Discrete-event simulation of stepping-stone connection chains.
//!
//! The paper's threat model is a chain `h₁ → h₂ → … → hₙ` of hosts
//! relaying an interactive session (§2). This crate provides the
//! substrate that turns an *origin* flow into the flows observed on each
//! hop of such a chain:
//!
//! * [`engine`] — a small deterministic discrete-event engine
//!   ([`EventQueue`], [`Event`]) with stable tie-breaking;
//! * [`node`] — network elements implementing [`Node`]: jittery
//!   [`Wire`]s and FIFO [`RelayHost`]s with service times;
//! * [`chain`] — [`SteppingStoneChain`], a builder that assembles
//!   `source → wire → relay → … → tap` and returns the flow observed
//!   after every hop.
//!
//! Relays are FIFO, so the paper's assumptions 1–3 (every packet
//! forwarded exactly once, bounded delay, order preserved) hold by
//! construction; the per-hop delay bound is checked in tests. A
//! compromised stepping stone can inject cover traffic in-line
//! ([`ChainBuilder::with_chaff`]); the adversary's *deliberate*
//! perturbation and post-hoc chaff live in `stepstone-adversary` and
//! compose with this simulator.
//!
//! # Example
//!
//! ```
//! use stepstone_netsim::SteppingStoneChain;
//! use stepstone_flow::{Flow, TimeDelta, Timestamp};
//! use stepstone_traffic::Seed;
//!
//! # fn main() -> Result<(), stepstone_flow::FlowError> {
//! let origin = Flow::from_timestamps((0..50).map(Timestamp::from_secs))?;
//! let observed = SteppingStoneChain::builder()
//!     .hop(TimeDelta::from_millis(40), TimeDelta::from_millis(15))
//!     .hop(TimeDelta::from_millis(80), TimeDelta::from_millis(30))
//!     .build()
//!     .simulate(&origin, Seed::new(7));
//! assert_eq!(observed.hops(), 2);
//! let last = observed.at_hop(1);
//! assert_eq!(last.len(), origin.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]
#![warn(missing_docs)]

pub mod chain;
pub mod engine;
pub mod node;

pub use chain::{ChainBuilder, ChainObservation, SteppingStoneChain};
pub use engine::{Event, EventQueue};
pub use node::{Node, NodeId, RelayHost, Tap, Wire};
