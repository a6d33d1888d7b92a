//! Seed-deterministic fault injection for the stepstone live pipeline.
//!
//! The paper's threat model is an adversarial channel — bounded delay,
//! chaff insertion — but a deployed monitor also faces faults the paper
//! never had to model: corrupt captures, lossy and duplicating taps,
//! panicking decode workers, stalled queues. This crate turns all of
//! those into a *reproducible experiment*: a [`FaultPlan`] derives
//! every fault from a single `u64` seed and a [`Profile`], composing
//! three independent layers:
//!
//! | Layer | Injects | Applied at |
//! |-------|---------|------------|
//! | [`WireFaults`] | byte corruption, truncation, record drop/duplicate, timestamp skew | around the pcap/pcapng reader |
//! | [`FlowFaults`] | packet deletion, chaff bursts, bounded extra delay | between demux and the engine |
//! | [`RuntimeFaults`] | contained panics, worker kills, slow decodes | inside shard workers, via [`FaultHook`](stepstone_monitor::FaultHook) |
//!
//! Every layer's decision stream is *index-addressed*: the fault for
//! record `i`, event `i`, or decode `i` is a pure function of `(seed,
//! layer, i)`. Two runs with the same seed therefore agree on the fault
//! schedule byte for byte — [`FaultPlan::schedule_digest`] is the
//! witness — even when thread interleavings differ.
//!
//! # Example
//!
//! ```
//! use stepstone_chaos::{FaultPlan, Profile};
//! use stepstone_monitor::MonitorConfig;
//!
//! let plan = FaultPlan::parse("7:harsh").unwrap();
//! // Arm the engine: runtime faults in, degradation policy on.
//! let config = plan.arm_monitor(MonitorConfig::default());
//! // Same seed, same schedule — reproducible by construction.
//! assert_eq!(plan.schedule_digest(1024), FaultPlan::new(7, Profile::Harsh).schedule_digest(1024));
//! # let _ = config;
//! ```
//!
//! The survival half — supervised worker restarts, stall watchdog,
//! load shedding, `Degraded` verdicts — lives in `stepstone-monitor`;
//! this crate only produces the weather.

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

mod flowfault;
mod plan;
mod rng;
mod runtime;
mod wire;

pub use flowfault::{FlowDecision, FlowFaultInjector, FlowFaults};
pub use plan::{FaultPlan, ParseChaosError, Profile};
pub use rng::SplitMix64;
pub use runtime::RuntimeFaults;
pub use wire::{RecordDecision, WireFaultAdapter, WireFaults};
