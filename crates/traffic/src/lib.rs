//! Interactive traffic generation and trace I/O.
//!
//! The paper evaluates on 91 real SSH/Telnet traces from the NLANR Bell
//! Labs-I archive and on 100 synthetic `tcplib` traces. The archive is no
//! longer available, so this crate synthesizes statistically equivalent
//! interactive traffic (see `DESIGN.md` §3 for the substitution
//! rationale):
//!
//! * [`InteractiveProfile`] — a keystroke/think-time session model with
//!   Pareto-distributed pauses, following the Paxson–Floyd observation
//!   that Telnet inter-arrivals are heavy-tailed;
//! * [`tcplib`] — a re-implementation of the `tcplib` Telnet
//!   conversation model driven by an explicit empirical CDF;
//! * [`PoissonProcess`] — memoryless arrivals, used for chaff and for
//!   analytically tractable tests;
//! * [`corpus`] — seeded construction of whole datasets
//!   ([`corpus::bell_labs_like`], [`corpus::tcplib_corpus`]);
//! * [`io`] — a line-oriented text format and a compact binary format
//!   for persisting flows.
//!
//! Everything is deterministic given a [`Seed`].
//!
//! # Example
//!
//! ```
//! use stepstone_traffic::{corpus, Seed};
//!
//! let flows = corpus::bell_labs_like(3, 200, Seed::new(7));
//! assert_eq!(flows.len(), 3);
//! assert!(flows.iter().all(|f| f.len() >= 200));
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

pub mod analysis;
pub mod corpus;
mod dists;
mod interactive;
pub mod io;
mod poisson;
mod rng;
pub mod tcplib;

pub use analysis::FlowSummary;
pub use dists::{BoundedPareto, Empirical, Exponential, LogNormal, Pareto};
pub use interactive::{InteractiveProfile, SessionGenerator};
pub use poisson::PoissonProcess;
pub use rng::Seed;
