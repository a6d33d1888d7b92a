//! Algorithm 4 (Optimal): bounded exhaustive search over the matches of
//! the still-mismatched bits (paper §3.3.4), plus the shared DFS also
//! used by Brute Force.

use stepstone_flow::Flow;
use stepstone_matching::{CostMeter, MatchingSets};
use stepstone_watermark::Watermark;

use crate::endpoint::{BitState, EndpointPlan};

/// Result of a bounded exhaustive search.
#[derive(Debug, Clone)]
pub(crate) struct SearchResult {
    /// Best decode found (never worse than the starting selection).
    pub state: BitState,
    /// The selection realizing it (read by invariant tests).
    #[cfg_attr(not(test), allow(dead_code, reason = "read by invariant tests"))]
    pub sel: Vec<u32>,
    /// `false` when the cost bound stopped the search early.
    pub completed: bool,
}

/// Depth-first enumeration of order-consistent selections.
///
/// Walks every endpoint in upstream order. Endpoints with `free[i] ==
/// false` keep `base_sel[i]`; free endpoints try every candidate above
/// the running lower bound. Each candidate costs one packet access;
/// when `meter` reaches `cost_bound` the best result so far is returned
/// with `completed = false` ("it returns the best watermark obtained so
/// far"). The search also stops as soon as a selection reaches the
/// detection `threshold`.
#[allow(
    clippy::too_many_arguments,
    reason = "the decode inputs shared by every search backend plus the search bounds"
)]
pub(crate) fn exhaustive_search(
    plan: &EndpointPlan,
    sets: &MatchingSets,
    suspicious: &Flow,
    base_sel: &[u32],
    base_state: &BitState,
    free: &[bool],
    wanted: &Watermark,
    threshold: u32,
    cost_bound: u64,
    meter: &mut CostMeter,
) -> SearchResult {
    let mut dfs = Dfs {
        plan,
        sets,
        suspicious,
        free,
        wanted,
        threshold,
        cost_bound,
        meter,
        sel: base_sel.to_vec(),
        d: fixed_contributions(plan, base_sel, free, suspicious),
        best_sel: base_sel.to_vec(),
        best_hamming: base_state.hamming(wanted),
        best_d: base_state.d.clone(),
        stop: false,
        truncated: false,
    };
    dfs.recurse(0, None);
    SearchResult {
        state: BitState { d: dfs.best_d },
        sel: dfs.best_sel,
        completed: !dfs.truncated,
    }
}

/// `D` contributions of the pinned (non-free) endpoints only.
fn fixed_contributions(
    plan: &EndpointPlan,
    base_sel: &[u32],
    free: &[bool],
    suspicious: &Flow,
) -> Vec<i64> {
    let mut d = vec![0i64; plan.bits];
    for (i, e) in plan.endpoints.iter().enumerate() {
        if !free[i] {
            // lint: allow(micros_math) signed ±1-weighted sum of timestamps for the IPD decode objective; no TimeDelta form exists
            d[e.bit] += e.coeff as i64 * suspicious.timestamp(base_sel[i] as usize).as_micros();
        }
    }
    d
}

struct Dfs<'a> {
    plan: &'a EndpointPlan,
    sets: &'a MatchingSets,
    suspicious: &'a Flow,
    free: &'a [bool],
    wanted: &'a Watermark,
    threshold: u32,
    cost_bound: u64,
    meter: &'a mut CostMeter,
    sel: Vec<u32>,
    /// Running D: fixed contributions plus the free choices made so far.
    d: Vec<i64>,
    best_sel: Vec<u32>,
    best_hamming: u32,
    best_d: Vec<i64>,
    stop: bool,
    truncated: bool,
}

impl Dfs<'_> {
    fn recurse(&mut self, i: usize, bound: Option<u32>) {
        if self.stop {
            return;
        }
        if self.meter.exhausted(self.cost_bound) {
            self.truncated = true;
            self.stop = true;
            return;
        }
        if i == self.plan.endpoints.len() {
            self.evaluate_leaf();
            return;
        }
        if !self.free[i] {
            // Pinned endpoint: the branch survives only if order holds.
            if bound.is_some_and(|b| self.sel[i] <= b) {
                return;
            }
            let s = self.sel[i];
            self.recurse(i + 1, Some(s));
            return;
        }
        let e = &self.plan.endpoints[i];
        let set = self.sets.set(e.up);
        let start = match bound {
            Some(b) => set.partition_point(|&c| c <= b),
            None => 0,
        };
        for &c in &set[start..] {
            if self.stop {
                return;
            }
            self.meter.charge_one();
            let t = self.suspicious.timestamp(c as usize).as_micros();
            let contribution = e.coeff as i64 * t;
            self.d[e.bit] += contribution;
            self.sel[i] = c;
            self.recurse(i + 1, Some(c));
            self.d[e.bit] -= contribution;
        }
    }

    fn evaluate_leaf(&mut self) {
        let hamming = (0..self.plan.bits)
            .filter(|&b| (self.d[b] > 0) != self.wanted.bit(b))
            .count() as u32;
        if hamming < self.best_hamming {
            self.best_hamming = hamming;
            self.best_sel = self.sel.clone();
            self.best_d = self.d.clone();
            if hamming <= self.threshold {
                // Good enough to report a correlation: terminate, as the
                // paper does once the threshold is reached.
                self.stop = true;
            }
        }
    }
}

/// The Optimal algorithm's final phase: free exactly the endpoints of
/// the bits that are still mismatched after phase 3 but that Greedy
/// could decode (unfixable bits stay mismatched in every selection).
pub(crate) fn free_mask_for(
    plan: &EndpointPlan,
    state: &BitState,
    wanted: &Watermark,
    fixable: &[bool],
) -> Vec<bool> {
    let mut free = vec![false; plan.len()];
    for (bit, &fx) in fixable.iter().enumerate().take(plan.bits) {
        if fx && !state.matches(bit, wanted) {
            for &pos in &plan.of_bit[bit] {
                free[pos] = true;
            }
        }
    }
    free
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::decode_bits;
    use crate::greedy::greedy_selection;
    use crate::greedy_plus::repair_order;
    use stepstone_flow::Timestamp;
    use stepstone_watermark::{BitLayout, WatermarkKey, WatermarkParams};

    fn setup(window: u32) -> (EndpointPlan, Watermark, MatchingSets, Flow) {
        let layout =
            BitLayout::derive(WatermarkKey::new(3), &WatermarkParams::small(), 200).unwrap();
        let w = Watermark::from_bits(vec![true, false, true, true, false, false, true, false]);
        let plan = EndpointPlan::build(&layout, &w);
        let n = 200usize;
        let m = n + window as usize;
        let mut sets = MatchingSets::from_sets(
            (0..n as u32).map(|i| (i..=i + window).collect()).collect(),
            m,
        );
        let mut meter = CostMeter::new();
        assert!(sets.tighten(&mut meter));
        // Irregular timestamps so D values are nontrivial.
        let flow = Flow::from_timestamps(
            (0..m as i64).map(|i| Timestamp::from_millis(i * 700 + (i % 3) * 211)),
        )
        .unwrap();
        (plan, w, sets, flow)
    }

    fn baseline(plan: &EndpointPlan, sets: &MatchingSets, flow: &Flow) -> (Vec<u32>, BitState) {
        let mut meter = CostMeter::new();
        let greedy = greedy_selection(plan, sets);
        let sel = repair_order(plan, sets, &greedy, &mut meter);
        let state = decode_bits(plan, &sel, flow, &mut meter);
        (sel, state)
    }

    #[test]
    fn search_from_all_pinned_returns_baseline() {
        let (plan, w, sets, flow) = setup(2);
        let (sel, state) = baseline(&plan, &sets, &flow);
        let free = vec![false; plan.len()];
        let mut meter = CostMeter::new();
        let r = exhaustive_search(
            &plan, &sets, &flow, &sel, &state, &free, &w, 0, 1_000_000, &mut meter,
        );
        assert!(r.completed);
        assert_eq!(r.sel, sel);
        assert_eq!(r.state.hamming(&w), state.hamming(&w));
    }

    #[test]
    fn search_never_returns_worse_than_baseline() {
        for window in [0, 1, 3] {
            let (plan, w, sets, flow) = setup(window);
            let (sel, state) = baseline(&plan, &sets, &flow);
            let free = vec![true; plan.len()];
            let mut meter = CostMeter::new();
            let r = exhaustive_search(
                &plan, &sets, &flow, &sel, &state, &free, &w, 0, 200_000, &mut meter,
            );
            assert!(
                r.state.hamming(&w) <= state.hamming(&w),
                "window {window}: {} > {}",
                r.state.hamming(&w),
                state.hamming(&w)
            );
        }
    }

    #[test]
    fn search_result_is_order_consistent_and_in_sets() {
        let (plan, w, sets, flow) = setup(3);
        let (sel, state) = baseline(&plan, &sets, &flow);
        let free = vec![true; plan.len()];
        let mut meter = CostMeter::new();
        let r = exhaustive_search(
            &plan, &sets, &flow, &sel, &state, &free, &w, 0, 500_000, &mut meter,
        );
        for k in 1..r.sel.len() {
            assert!(r.sel[k - 1] < r.sel[k]);
        }
        for (e, s) in plan.endpoints.iter().zip(&r.sel) {
            assert!(sets.set(e.up).contains(s));
        }
    }

    #[test]
    fn cost_bound_truncates_search() {
        let (plan, w, sets, flow) = setup(3);
        let (sel, state) = baseline(&plan, &sets, &flow);
        let free = vec![true; plan.len()];
        let mut meter = CostMeter::new();
        let r = exhaustive_search(
            &plan, &sets, &flow, &sel, &state, &free, &w, 0, 50, &mut meter,
        );
        assert!(!r.completed);
        // Still sane output.
        assert!(r.state.hamming(&w) <= state.hamming(&w));
    }

    #[test]
    fn free_mask_selects_only_mismatched_fixable_bits() {
        let (plan, w, sets, flow) = setup(2);
        let (_, state) = baseline(&plan, &sets, &flow);
        let fixable = vec![true; plan.bits];
        let free = free_mask_for(&plan, &state, &w, &fixable);
        for bit in 0..plan.bits {
            let expect = !state.matches(bit, &w);
            for &pos in &plan.of_bit[bit] {
                assert_eq!(free[pos], expect, "bit {bit}");
            }
        }
        // Nothing fixable ⇒ nothing free.
        let free = free_mask_for(&plan, &state, &w, &vec![false; plan.bits]);
        assert!(free.iter().all(|&f| !f));
    }
}
