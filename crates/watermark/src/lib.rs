//! Inter-packet-delay (IPD) probabilistic flow watermarking.
//!
//! This is the active-watermarking substrate of the paper (its §3.1,
//! following Wang, Reeves, Ning & Feng, NCSU TR-2005-1): a secret,
//! timing-based watermark is embedded into an *upstream* flow by slightly
//! delaying selected packets, and later decoded from suspicious flows.
//!
//! The scheme, per watermark bit:
//!
//! 1. choose `2r` disjoint *embedding pairs* `(p_e, p_{e+d})` with
//!    inter-packet delay `ipd_e = t_{e+d} − t_e`;
//! 2. split them randomly into two groups of `r`;
//! 3. the decode statistic is
//!    `D = (1/2r) · Σ (ipd¹ᵢ − ipd²ᵢ)`, which has zero mean for an
//!    unwatermarked flow;
//! 4. embedding bit 1 raises `D` by `2r·a`; bit 0 lowers it by the
//!    same amount — realized *raise-only*: the selected group's IPDs
//!    are raised by `2a` each (delaying the pair's second packet),
//!    because lowering an IPD (delaying the first packet) saturates at
//!    zero for tight keystroke pairs and silently loses signal;
//! 5. decoding reads the sign of `D`.
//!
//! Delays pass through a [`FifoChannel`] so packet order is preserved
//! (which is also why a bit occasionally fails to embed — the paper's
//! "slight probability"). Pair selection additionally prefers tight
//! IPDs so the unwatermarked `D` concentrates near zero; see
//! [`BitLayout::derive_for_flow`].
//!
//! Pair positions and the group split derive from a secret
//! [`WatermarkKey`] via a seeded ChaCha stream, so embedder and detector
//! agree on the layout while an attacker cannot locate the pairs.
//!
//! [`FifoChannel`]: stepstone_flow::FifoChannel
//!
//! # Example
//!
//! ```
//! use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};
//! use stepstone_flow::{Flow, Timestamp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let flow = Flow::from_timestamps((0..600).map(Timestamp::from_secs))?;
//! let params = WatermarkParams::paper();
//! let marker = IpdWatermarker::new(WatermarkKey::new(0xFEED), params);
//! let watermark = Watermark::random(24, &mut WatermarkKey::new(1).rng(0));
//!
//! let marked = marker.embed(&flow, &watermark)?;
//! // Without perturbation the watermark decodes exactly.
//! let layout = marker.layout_for_flow(&flow)?;
//! let decoded = marker.decode_aligned(&marked, &layout)?;
//! assert!(watermark.hamming_distance(&decoded) <= 1);
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
mod key;
mod layout;
mod marker;
mod params;
mod soft;
mod watermark;

pub use error::WatermarkError;
pub use key::WatermarkKey;
pub use layout::{BitLayout, PairRef};
pub use marker::IpdWatermarker;
pub use params::WatermarkParams;
pub use soft::SoftWatermark;
pub use watermark::Watermark;
