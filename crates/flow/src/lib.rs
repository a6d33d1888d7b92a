//! Packet and flow substrate for stepping-stone correlation.
//!
//! This crate provides the vocabulary types every other `stepstone` crate
//! builds on:
//!
//! * [`Timestamp`] and [`TimeDelta`] — microsecond-resolution time points
//!   and spans with checked arithmetic and typed conversions,
//! * [`Packet`] — a single observed packet (timestamp, size, provenance),
//! * [`Flow`] — a unidirectional sequence of packets with non-decreasing
//!   timestamps,
//! * [`FifoChannel`] — first-in-first-out delay semantics used by both
//!   the watermark embedder and the adversary's perturbation models.
//!
//! # Ground truth vs. observable data
//!
//! A [`Packet`] carries a [`Provenance`] record: whether it is original
//! payload (and which upstream index it descends from) or chaff. This is
//! *evaluation-only ground truth*: correlation algorithms in
//! `stepstone-core` and `stepstone-baselines` only ever read timestamps
//! (and, optionally, quantized sizes), exactly like the defender in the
//! paper who observes an encrypted flow. Tests use provenance as an
//! oracle.
//!
//! # Example
//!
//! ```
//! use stepstone_flow::{Flow, TimeDelta, Timestamp};
//!
//! # fn main() -> Result<(), stepstone_flow::FlowError> {
//! let flow = Flow::from_timestamps([0.0, 0.5, 1.25, 2.0].map(Timestamp::from_secs_f64))?;
//! assert_eq!(flow.len(), 4);
//! assert_eq!(flow.duration(), TimeDelta::from_secs_f64(2.0));
//! // Inter-packet delay between packets 1 and 2:
//! assert_eq!(flow.ipd(1, 2), TimeDelta::from_secs_f64(0.75));
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

mod error;
mod fifo;
mod flow;
mod packet;
mod time;
mod window;

pub use error::FlowError;
pub use fifo::FifoChannel;
pub use flow::{Flow, FlowBuilder, Ipds};
pub use packet::{Packet, Provenance};
pub use time::{TimeDelta, Timestamp};
pub use window::SlidingWindow;
