//! Baseline stepping-stone correlation schemes the paper compares
//! against (§4, §5).
//!
//! * [`BasicWatermarkDetector`] — the unmodified IPD watermark scheme of
//!   ref \[7\]: position-aligned decoding with no packet matching. Robust
//!   to timing perturbation, destroyed by any chaff (the paper's
//!   motivating observation).
//! * [`ZhangGuanDetector`] — the passive scheme of ref \[11\] (Zhang,
//!   Persaud, Johnson & Guan): order-preserving packet matching under a
//!   maximum delay bound, scored by the *smallest delay deviation* and
//!   thresholded (Table 1 uses 3 seconds). The exact algorithm was an
//!   unpublished tech report; DESIGN.md §3 documents our instantiation.
//! * [`IpdCorrelationDetector`] — Wang, Reeves & Wu (ESORICS'02, ref
//!   \[8\]): passive correlation of inter-packet-delay vectors; an
//!   extension baseline from related work.
//! * [`PacketCountingDetector`] — Blum, Song & Venkataraman (RAID'04,
//!   ref \[1\]): bounded packet-count difference monitoring; an extension
//!   baseline from related work.
//!
//! All baselines meter cost in the same packets-accessed unit as the
//! core algorithms so the paper's cost figures are comparable.

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

mod basic_wm;
mod blum;
mod ipd_corr;
mod zhang_guan;

pub use basic_wm::BasicWatermarkDetector;
pub use blum::{CountingOutcome, PacketCountingDetector};
pub use ipd_corr::{IpdCorrelationDetector, IpdCorrelationOutcome};
pub use zhang_guan::{DeviationOutcome, ZhangGuanDetector};
