//! Adversary models against timing-based flow correlation.
//!
//! The paper's intruder (§2) evades correlation with two countermeasures
//! applied to a downstream flow, both modelled here, plus the two
//! evasions the paper defers to future work (§6):
//!
//! * [`UniformPerturbation`] — i.i.d. `U(0, max)` per-packet delays
//!   applied through a FIFO queue, the paper's "timing perturbations
//!   uniformly distributed with a maximum delay from 0 to 8 seconds";
//! * [`ChaffInjector`] — meaningless padding packets merged into the
//!   flow: [`ChaffModel::Poisson`] (the paper's model, rate `λ_c`),
//!   plus bursty and IPD-mimicking variants for robustness studies;
//! * [`PacketLoss`] — drops payload packets (violates assumption 1);
//! * [`Repacketizer`] — merges packets that arrive close together
//!   (violates assumption 1 the other way);
//! * [`AdversaryPipeline`] — composes any sequence of the above via the
//!   [`Transform`] trait.
//!
//! # Example
//!
//! ```
//! use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
//! use stepstone_flow::{Flow, TimeDelta, Timestamp};
//! use stepstone_traffic::Seed;
//!
//! # fn main() -> Result<(), stepstone_flow::FlowError> {
//! let flow = Flow::from_timestamps((0..100).map(Timestamp::from_secs))?;
//! let attacked = AdversaryPipeline::new()
//!     .then(UniformPerturbation::new(TimeDelta::from_secs(4)))
//!     .then(ChaffInjector::new(ChaffModel::Poisson { rate: 2.0 }))
//!     .apply(&flow, Seed::new(42));
//! assert_eq!(attacked.payload_indices().len(), 100); // payload survives
//! assert!(attacked.chaff_count() > 0);
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

mod chaff;
mod loss;
mod perturb;
mod pipeline;
mod repack;

pub use chaff::{ChaffInjector, ChaffModel};
pub use loss::PacketLoss;
pub use perturb::{ConstantDelay, UniformPerturbation};
pub use pipeline::{AdversaryPipeline, Transform};
pub use repack::Repacketizer;
