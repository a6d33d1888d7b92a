//! Evaluation statistics and reporting for correlation experiments.
//!
//! * [`RateEstimate`] — detection / false-positive rates with Wilson
//!   confidence intervals;
//! * [`CostSummary`] — the paper's packets-accessed cost metric, with
//!   the "0 → 1 for log plots" convention of Figures 9–10;
//! * [`Histogram`] — small integer histograms (Hamming distances,
//!   matching-set sizes);
//! * [`Series`], [`Figure`] — labelled data series, rendered as aligned
//!   ASCII tables, simple ASCII charts, or CSV.
//!
//! # Example
//!
//! ```
//! use stepstone_stats::{Figure, RateEstimate, Series};
//!
//! let mut detection = Series::new("greedy+");
//! detection.push(0.0, 1.0);
//! detection.push(1.0, 0.98);
//! let fig = Figure::new("fig3", "Detection rate vs chaff rate", "λc (pkt/s)", "detection rate")
//!     .with_series(detection);
//! let table = fig.to_table();
//! assert!(table.contains("greedy+"));
//!
//! let rate = RateEstimate::new(45, 50);
//! assert_eq!(rate.rate(), 0.9);
//! let (lo, hi) = rate.wilson_interval(1.96);
//! assert!(lo < 0.9 && 0.9 < hi);
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

mod cost;
mod figure;
mod histogram;
mod rate;

pub use cost::CostSummary;
pub use figure::{Figure, Series};
pub use histogram::Histogram;
pub use rate::RateEstimate;
