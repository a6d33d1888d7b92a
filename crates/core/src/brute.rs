//! Algorithm 1: Brute Force (paper §3.3.1).
//!
//! Enumerates *every* order-consistent combination of matching packets
//! for the embedding packets, using the shared DFS of [`crate::optimal`]
//! with all endpoints free. The paper notes the cost is roughly
//! `Π |M(pᵢ)|`; the search is therefore only practical with a cost
//! bound, and the other three algorithms exist to avoid it.

use stepstone_flow::Flow;
use stepstone_matching::{CostMeter, MatchingSets};
use stepstone_watermark::Watermark;

use crate::endpoint::{decode_bits, BitState, EndpointPlan};
use crate::optimal::{exhaustive_search, SearchResult};

/// Runs Brute Force from the trivially feasible first-match baseline.
///
/// Requires tightened matching sets (which make the first matches
/// strictly increasing, hence feasible) — tightening only removes
/// candidates that cannot participate in any complete order-consistent
/// matching, so no subsequence the paper's formulation would consider is
/// lost.
#[allow(
    clippy::too_many_arguments,
    reason = "the decode inputs shared by every search backend; a struct would only rename them"
)]
pub(crate) fn run_brute_force(
    plan: &EndpointPlan,
    sets: &MatchingSets,
    suspicious: &Flow,
    wanted: &Watermark,
    threshold: u32,
    cost_bound: u64,
    meter: &mut CostMeter,
) -> SearchResult {
    let base_sel: Vec<u32> = plan.endpoints.iter().map(|e| sets.first(e.up)).collect();
    let base_state: BitState = decode_bits(plan, &base_sel, suspicious, meter);
    let free = vec![true; plan.len()];
    exhaustive_search(
        plan,
        sets,
        suspicious,
        &base_sel,
        &base_state,
        &free,
        wanted,
        threshold,
        cost_bound,
        meter,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::run_greedy;
    use stepstone_flow::Timestamp;
    use stepstone_watermark::{BitLayout, WatermarkKey, WatermarkParams};

    /// A tiny scheme so brute force finishes: 2 bits, r = 1.
    fn tiny() -> (EndpointPlan, Watermark) {
        let params = WatermarkParams {
            bits: 2,
            redundancy: 1,
            offset: 1,
            adjustment: stepstone_flow::TimeDelta::from_millis(500),
            threshold: 0,
        };
        let layout = BitLayout::derive(WatermarkKey::new(9), &params, 30).unwrap();
        let w = Watermark::from_bits([true, false]);
        (EndpointPlan::build(&layout, &w), w)
    }

    fn windowed_sets(n: usize, window: u32) -> MatchingSets {
        let m = n + window as usize;
        let mut sets = MatchingSets::from_sets(
            (0..n as u32).map(|i| (i..=i + window).collect()).collect(),
            m,
        );
        let mut meter = CostMeter::new();
        assert!(sets.tighten(&mut meter));
        sets
    }

    #[test]
    fn brute_force_completes_on_tiny_instances() {
        let (plan, w) = tiny();
        let sets = windowed_sets(30, 2);
        let flow = Flow::from_timestamps(
            (0..32i64).map(|i| Timestamp::from_millis(i * 400 + (i % 5) * 70)),
        )
        .unwrap();
        let mut meter = CostMeter::new();
        let r = run_brute_force(&plan, &sets, &flow, &w, 0, 1_000_000, &mut meter);
        assert!(r.completed || r.state.hamming(&w) == 0);
    }

    #[test]
    fn greedy_lower_bounds_brute_force() {
        // The paper's key relationship: Greedy "guarantees to return a
        // watermark whose hamming distance is no bigger than that of the
        // Brute Force algorithm".
        for seed in 0..5i64 {
            let (plan, w) = tiny();
            let sets = windowed_sets(30, 3);
            let flow = Flow::from_timestamps(
                (0..33i64).map(|i| Timestamp::from_millis(i * 350 + ((i * seed) % 7) * 50)),
            )
            .unwrap();
            let mut meter = CostMeter::new();
            let (_, gstate) = run_greedy(&plan, &sets, &flow, &mut meter);
            let b = run_brute_force(&plan, &sets, &flow, &w, 0, 1_000_000, &mut meter);
            assert!(
                gstate.hamming(&w) <= b.state.hamming(&w),
                "seed {seed}: greedy {} > brute {}",
                gstate.hamming(&w),
                b.state.hamming(&w)
            );
        }
    }
}
