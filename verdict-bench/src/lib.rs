//! Capture-to-verdict benchmark for the stepstone online path.
//!
//! A workload is a [`ScenarioSpec`] file. The benchmark generates the
//! spec's flows ([`corpus`]), writes them as one pcap capture, and
//! replays the capture through `parse_capture` → `FlowDemux` →
//! `Monitor` → decode → terminal verdict ([`pass`]), timing each public
//! call from the outside ([`trace`]).

use std::time::Instant;

use stepstone_ingest::DemuxFlow;
use stepstone_scenario::{ScenarioError, ScenarioSpec};

pub mod corpus;
pub mod pass;
pub mod trace;

use corpus::Corpus;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The workload's name, as passed to `--workload`.
    pub name: &'static str,
    /// The scenario text.
    pub text: &'static str,
    /// The verdict digest pinned for the spec's own seed, where the
    /// workload's decisions are fixed by the paper's rules.
    pub pinned_digest: Option<u64>,
    /// Every true pair must end `Correlated`.
    pub all_true_pairs: bool,
}

/// The benchmark's workloads, in the order a full run visits them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "stress-8192",
        text: include_str!("../workloads/stress-8192.scn"),
        pinned_digest: Some(0xc061_a6ff_9cb0_f2c7),
        all_true_pairs: true,
    },
    Workload {
        name: "mild-8192",
        text: include_str!("../workloads/mild-8192.scn"),
        pinned_digest: Some(0xf648_4b60_d04c_1b2d),
        all_true_pairs: true,
    },
    // Robust decisions are expected to change as the robust decision
    // rule is calibrated, so only run-to-run identity is checked.
    Workload {
        name: "robust-8192",
        text: include_str!("../workloads/robust-8192.scn"),
        pinned_digest: None,
        all_true_pairs: false,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The workload's spec, with its corpus seed replaced by `seed`
    /// when one is given.
    ///
    /// # Errors
    ///
    /// The scenario parser's error.
    pub fn spec(&self, seed: Option<u64>) -> Result<ScenarioSpec, ScenarioError> {
        let mut spec = ScenarioSpec::parse(self.text)?;
        if let Some(seed) = seed {
            spec.seed = seed;
        }
        Ok(spec)
    }

    /// The seed the workload file pins.
    pub fn default_seed(&self) -> u64 {
        ScenarioSpec::parse(self.text).map_or(0, |s| s.seed)
    }
}

/// Decode cost of every pair on its final demuxed flow, in the paper's
/// unit (packets accessed).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Offline {
    /// Pairs decoded.
    pub decodes: u64,
    /// Median wall time of one decode, µs.
    pub p50_us: f64,
    /// Σ `Correlation::cost`: what the backend reports, matching
    /// included.
    pub packets_accessed: u64,
    /// Σ `Correlation::matching_cost`: the matching phase's share.
    pub matching_packets_accessed: u64,
    /// Strict decodes where matching proved the pair unrelated (no
    /// feasible matching, so no watermark was decoded). Robust decodes
    /// never abort: their gap-tolerant sets always exist.
    pub aborted: u64,
}

/// Correlates every upstream once against every demuxed flow through
/// `BoundCorrelator::correlate`, single-threaded.
///
/// # Errors
///
/// A binding error, rendered.
pub fn offline_decode(corpus: &Corpus, flows: &[DemuxFlow]) -> Result<Offline, String> {
    let mut out = Offline::default();
    let mut times_us: Vec<f64> = Vec::with_capacity(corpus.upstreams.len() * flows.len());
    for upstream in &corpus.upstreams {
        let bound = corpus
            .bind(upstream)
            .map_err(|e| format!("binding upstream {}: {e}", upstream.id))?;
        for flow in flows {
            let started = Instant::now();
            let outcome = bound.correlate(std::hint::black_box(&flow.flow));
            times_us.push(started.elapsed().as_secs_f64() * 1e6);
            out.packets_accessed += outcome.cost;
            out.matching_packets_accessed += outcome.matching_cost;
            out.aborted += u64::from(outcome.robust.is_none() && outcome.hamming.is_none());
        }
    }
    out.decodes = times_us.len() as u64;
    out.p50_us = median(&times_us);
    Ok(out)
}

/// Median of `values` (mean of the middle two for an even count); 0
/// for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of `samples` by nearest rank (`q` in 0..=1); 0 for
/// none. Sorts in place.
pub fn quantile_u32(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    f64::from(samples[rank.clamp(1, samples.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_parses_under_its_name() {
        for w in WORKLOADS {
            let spec = w.spec(None).expect("workload parses");
            assert_eq!(spec.name, w.name);
            assert_eq!(spec.candidate_pairs(), 8192);
            assert_eq!(w.spec(Some(9)).expect("reseeded").seed, 9);
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_u32(&mut s, 0.5), 50.0);
        assert_eq!(quantile_u32(&mut s, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
