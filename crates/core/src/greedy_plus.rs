//! Algorithm 3: Greedy+ — order repair and local improvement
//! (paper §3.3.3, phases 3 and 4; phase 1 is
//! [`MatchingSets::tighten`], phase 2 is the Greedy early-reject in the
//! correlator).

use stepstone_flow::Flow;
use stepstone_matching::{latest_before, CostMeter, MatchingSets};
use stepstone_watermark::Watermark;

use crate::endpoint::{decode_bits, BitState, EndpointPlan};

/// Phase 3: repair order conflicts in a Greedy selection.
///
/// Walking from the last embedding packet backwards: an endpoint that
/// chose its *first* match keeps it (after tightening, first matches are
/// strictly increasing, so they can never conflict with anything later);
/// an endpoint that chose a later match keeps it if it is below every
/// later selection, and otherwise falls back to "the last match that
/// has no conflict with packets later than it".
///
/// Requires tightened matching sets. Charges one access per endpoint.
pub(crate) fn repair_order(
    plan: &EndpointPlan,
    sets: &MatchingSets,
    greedy_sel: &[u32],
    meter: &mut CostMeter,
) -> Vec<u32> {
    let mut sel = greedy_sel.to_vec();
    let mut min_later = u32::MAX;
    for pos in (0..plan.len()).rev() {
        let e = &plan.endpoints[pos];
        meter.charge_one();
        if e.wants_late && sel[pos] >= min_later {
            #[expect(
                clippy::expect_used,
                reason = "tightening makes first matches strictly increasing, so a conflict-free pick exists"
            )]
            let pick = latest_before(sets.set(e.up), min_later).expect(
                "tightened first matches strictly increase, so one is always conflict-free",
            );
            sel[pos] = pick;
        }
        min_later = min_later.min(sel[pos]);
    }
    sel
}

/// Phase 4: local improvement.
///
/// Mismatched-but-fixable bits (those Greedy *could* decode — bits
/// Greedy itself missed can never match, the paper's "bits that will
/// never match") are visited in ascending `|D|`. For each, the bit's
/// endpoints are adjusted from the last backwards: a selection already
/// at its Greedy extreme is kept; otherwise the selection steps toward
/// the extreme, shifting later endpoints forward as needed ("since other
/// packets will be affected, we have to re-select their matches too"),
/// committing only when the bit's `D` improves and no currently-matched
/// bit flips sign. Terminates as soon as the Hamming distance reaches
/// the threshold.
#[allow(
    clippy::too_many_arguments,
    reason = "the decode inputs shared by every search backend; a struct would only rename them"
)]
pub(crate) fn improve(
    plan: &EndpointPlan,
    sets: &MatchingSets,
    suspicious: &Flow,
    sel: &mut [u32],
    state: &mut BitState,
    wanted: &Watermark,
    threshold: u32,
    fixable: &[bool],
    meter: &mut CostMeter,
    cost_bound: Option<u64>,
) {
    // Order mismatched fixable bits by |D| ascending — easiest first.
    let mut targets: Vec<usize> = (0..plan.bits)
        .filter(|&b| fixable[b] && !state.matches(b, wanted))
        .collect();
    targets.sort_by_key(|&b| state.d[b].abs());

    for &bit in &targets {
        if state.hamming(wanted) <= threshold {
            return;
        }
        if state.matches(bit, wanted) {
            continue; // an earlier cascade fixed it
        }
        // Endpoints of this bit, last first.
        for &pos in plan.of_bit[bit].iter().rev() {
            if state.matches(bit, wanted) {
                break;
            }
            loop {
                if let Some(bound) = cost_bound {
                    if meter.exhausted(bound) {
                        return;
                    }
                }
                let e = &plan.endpoints[pos];
                let set = sets.set(e.up);
                #[expect(
                    clippy::expect_used,
                    reason = "MatchingSets::tighten rejects flows with an empty set up front"
                )]
                let desired = if e.wants_late {
                    *set.last().expect("sets are never empty")
                } else {
                    set[0]
                };
                if sel[pos] == desired {
                    break; // already at the Greedy extreme: stick
                }
                // Step one candidate toward the extreme (repair only
                // ever moved wants-late selections earlier, so the step
                // is always "next later candidate").
                let next_idx = set.partition_point(|&c| c <= sel[pos]);
                if next_idx >= set.len() {
                    break;
                }
                match try_shift(
                    plan,
                    sets,
                    suspicious,
                    sel,
                    state,
                    wanted,
                    pos,
                    set[next_idx],
                    bit,
                    meter,
                ) {
                    ShiftOutcome::Committed => {
                        if state.matches(bit, wanted) {
                            break;
                        }
                    }
                    ShiftOutcome::Rejected => break,
                }
            }
        }
    }
}

enum ShiftOutcome {
    Committed,
    Rejected,
}

/// Attempts to move `sel[pos]` to `target`, cascading later endpoints to
/// the smallest candidates that restore strict order. Commits only if
/// the focus bit's `D` moves toward its wanted sign and no
/// currently-matched bit flips.
#[allow(
    clippy::too_many_arguments,
    reason = "one shift attempt threads the whole improve() state through"
)]
fn try_shift(
    plan: &EndpointPlan,
    sets: &MatchingSets,
    suspicious: &Flow,
    sel: &mut [u32],
    state: &mut BitState,
    wanted: &Watermark,
    pos: usize,
    target: u32,
    focus_bit: usize,
    meter: &mut CostMeter,
) -> ShiftOutcome {
    // Build the cascade plan.
    let mut moves: Vec<(usize, u32)> = vec![(pos, target)];
    let mut bound = target;
    for (later, &cur) in sel.iter().enumerate().skip(pos + 1) {
        if cur > bound {
            break;
        }
        let set = sets.set(plan.endpoints[later].up);
        let idx = set.partition_point(|&c| c <= bound);
        meter.charge_one();
        if idx >= set.len() {
            return ShiftOutcome::Rejected; // cannot restore order
        }
        moves.push((later, set[idx]));
        bound = set[idx];
    }
    // Compute D deltas per affected bit.
    let mut delta: Vec<(usize, i64)> = Vec::with_capacity(moves.len());
    for &(p, new) in &moves {
        let e = &plan.endpoints[p];
        meter.charge(2); // old and new timestamps
        let old_t = suspicious.timestamp(sel[p] as usize).as_micros();
        let new_t = suspicious.timestamp(new as usize).as_micros();
        delta.push((e.bit, e.coeff as i64 * (new_t - old_t)));
    }
    let mut new_d = state.d.clone();
    for &(b, dd) in &delta {
        new_d[b] += dd;
    }
    // The focus bit must strictly improve toward its wanted sign.
    let sigma = plan.wanted_sign[focus_bit];
    if new_d[focus_bit] * sigma <= state.d[focus_bit] * sigma {
        return ShiftOutcome::Rejected;
    }
    // No currently-matched bit may flip.
    for (b, &nd) in new_d.iter().enumerate().take(plan.bits) {
        if b != focus_bit && state.matches(b, wanted) {
            let decoded = nd > 0;
            if decoded != wanted.bit(b) {
                return ShiftOutcome::Rejected;
            }
        }
    }
    // Commit.
    for &(p, new) in &moves {
        sel[p] = new;
    }
    state.d = new_d;
    ShiftOutcome::Committed
}

/// Recomputes the decode after phase 3 (convenience wrapper).
pub(crate) fn decode_selection(
    plan: &EndpointPlan,
    sel: &[u32],
    suspicious: &Flow,
    meter: &mut CostMeter,
) -> BitState {
    decode_bits(plan, sel, suspicious, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_selection;
    use stepstone_flow::Timestamp;
    use stepstone_watermark::{BitLayout, WatermarkKey, WatermarkParams};

    fn setup(bits: Vec<bool>, window: u32) -> (EndpointPlan, Watermark, MatchingSets, Flow) {
        let layout =
            BitLayout::derive(WatermarkKey::new(3), &WatermarkParams::small(), 200).unwrap();
        let w = Watermark::from_bits(bits);
        let plan = EndpointPlan::build(&layout, &w);
        let n = 200usize;
        let m = n + window as usize;
        let mut sets = MatchingSets::from_sets(
            (0..n as u32).map(|i| (i..=i + window).collect()).collect(),
            m,
        );
        let mut meter = CostMeter::new();
        assert!(sets.tighten(&mut meter));
        let flow = Flow::from_timestamps((0..m as i64).map(Timestamp::from_secs)).unwrap();
        (plan, w, sets, flow)
    }

    #[test]
    fn repair_restores_strict_order() {
        let (plan, _w, sets, _flow) = setup(vec![true; 8], 4);
        let greedy = greedy_selection(&plan, &sets);
        let mut meter = CostMeter::new();
        let repaired = repair_order(&plan, &sets, &greedy, &mut meter);
        for k in 1..repaired.len() {
            assert!(repaired[k - 1] < repaired[k], "position {k}");
        }
        // Every repaired choice still comes from the packet's own set.
        for (e, s) in plan.endpoints.iter().zip(&repaired) {
            assert!(sets.set(e.up).contains(s));
        }
    }

    #[test]
    fn repair_keeps_first_choices() {
        let (plan, _w, sets, _flow) = setup(vec![true; 8], 4);
        let greedy = greedy_selection(&plan, &sets);
        let mut meter = CostMeter::new();
        let repaired = repair_order(&plan, &sets, &greedy, &mut meter);
        for (k, e) in plan.endpoints.iter().enumerate() {
            if !e.wants_late {
                assert_eq!(repaired[k], greedy[k], "first-choice endpoint {k} moved");
            }
        }
    }

    #[test]
    fn repair_is_identity_when_no_conflicts() {
        // Window 0: singleton sets, greedy is already feasible.
        let (plan, _w, sets, _flow) = setup(vec![true; 8], 0);
        let greedy = greedy_selection(&plan, &sets);
        let mut meter = CostMeter::new();
        let repaired = repair_order(&plan, &sets, &greedy, &mut meter);
        assert_eq!(repaired, greedy);
    }

    #[test]
    fn improve_never_breaks_matched_bits() {
        let (plan, w, sets, flow) =
            setup(vec![true, false, true, false, true, false, true, false], 3);
        let greedy = greedy_selection(&plan, &sets);
        let mut meter = CostMeter::new();
        let greedy_state = decode_bits(&plan, &greedy, &flow, &mut meter);
        let fixable: Vec<bool> = (0..plan.bits)
            .map(|b| greedy_state.matches(b, &w))
            .collect();
        let mut sel = repair_order(&plan, &sets, &greedy, &mut meter);
        let mut state = decode_bits(&plan, &sel, &flow, &mut meter);
        let matched_before: Vec<usize> = (0..plan.bits).filter(|&b| state.matches(b, &w)).collect();
        improve(
            &plan, &sets, &flow, &mut sel, &mut state, &w, 0, &fixable, &mut meter, None,
        );
        for b in matched_before {
            assert!(state.matches(b, &w), "bit {b} regressed");
        }
        // Order still strict after improvement.
        for k in 1..sel.len() {
            assert!(sel[k - 1] < sel[k]);
        }
    }

    #[test]
    fn improve_hamming_never_increases() {
        for window in [1, 2, 5] {
            let (plan, w, sets, flow) = setup(vec![true; 8], window);
            let greedy = greedy_selection(&plan, &sets);
            let mut meter = CostMeter::new();
            let gstate = decode_bits(&plan, &greedy, &flow, &mut meter);
            let fixable: Vec<bool> = (0..plan.bits).map(|b| gstate.matches(b, &w)).collect();
            let mut sel = repair_order(&plan, &sets, &greedy, &mut meter);
            let mut state = decode_bits(&plan, &sel, &flow, &mut meter);
            let before = state.hamming(&w);
            improve(
                &plan, &sets, &flow, &mut sel, &mut state, &w, 0, &fixable, &mut meter, None,
            );
            assert!(state.hamming(&w) <= before, "window {window}");
            // The incremental D bookkeeping matches a fresh decode.
            let fresh = decode_bits(&plan, &sel, &flow, &mut meter);
            assert_eq!(fresh.d, state.d, "window {window}");
        }
    }

    #[test]
    fn improve_respects_cost_bound() {
        let (plan, w, sets, flow) = setup(vec![true; 8], 5);
        let greedy = greedy_selection(&plan, &sets);
        let mut meter = CostMeter::new();
        let gstate = decode_bits(&plan, &greedy, &flow, &mut meter);
        let fixable: Vec<bool> = (0..plan.bits).map(|b| gstate.matches(b, &w)).collect();
        let mut sel = repair_order(&plan, &sets, &greedy, &mut meter);
        let mut state = decode_bits(&plan, &sel, &flow, &mut meter);
        let already = meter.count();
        improve(
            &plan,
            &sets,
            &flow,
            &mut sel,
            &mut state,
            &w,
            0,
            &fixable,
            &mut meter,
            Some(already + 1),
        );
        // The bound stops the phase almost immediately.
        assert!(meter.count() <= already + 16, "{}", meter.count());
    }
}
