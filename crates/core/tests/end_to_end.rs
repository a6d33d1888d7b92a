//! End-to-end pipeline tests: generate → watermark → attack → correlate.

use stepstone_adversary::{
    AdversaryPipeline, ChaffInjector, ChaffModel, PacketLoss, UniformPerturbation,
};
use stepstone_core::{Algorithm, Correlation, WatermarkCorrelator};
use stepstone_flow::{Flow, TimeDelta, Timestamp};
use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

fn interactive(n: usize, seed: u64) -> Flow {
    SessionGenerator::new(InteractiveProfile::ssh()).generate(
        n,
        Timestamp::ZERO,
        &mut Seed::new(seed).rng(0),
    )
}

/// One attacked downstream flow of `marked`.
fn attack(marked: &Flow, delta_s: i64, chaff_rate: f64, seed: u64) -> Flow {
    AdversaryPipeline::new()
        .then(UniformPerturbation::new(TimeDelta::from_secs(delta_s)))
        .then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff_rate }))
        .apply(marked, Seed::new(seed))
}

struct Bench {
    original: Flow,
    marked: Flow,
    marker: IpdWatermarker,
    watermark: Watermark,
}

fn bench(seed: u64, n: usize) -> Bench {
    let original = interactive(n, seed);
    let marker = IpdWatermarker::new(WatermarkKey::new(seed ^ 0xABC), WatermarkParams::paper());
    let watermark = Watermark::random(24, &mut WatermarkKey::new(seed).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    Bench {
        original,
        marked,
        marker,
        watermark,
    }
}

fn correlate(b: &Bench, algorithm: Algorithm, delta_s: i64, suspicious: &Flow) -> Correlation {
    let c = WatermarkCorrelator::new(
        b.marker,
        b.watermark.clone(),
        TimeDelta::from_secs(delta_s),
        algorithm,
    );
    c.prepare(&b.original, &b.marked)
        .unwrap()
        .correlate(suspicious)
}

#[test]
fn all_algorithms_detect_chaffed_perturbed_downstream_flows() {
    // The paper's headline result: with Δ = 7 s perturbation and λc = 3
    // chaff, the matching algorithms still find the watermark.
    for seed in 0..4 {
        let b = bench(seed, 1000);
        let suspicious = attack(&b.marked, 7, 3.0, seed);
        assert!(suspicious.chaff_count() > 0);
        for alg in [
            Algorithm::Greedy,
            Algorithm::GreedyPlus,
            Algorithm::optimal_paper(),
        ] {
            let out = correlate(&b, alg, 7, &suspicious);
            assert!(
                out.correlated,
                "seed {seed}, {alg}: {out} (expected detection)"
            );
        }
    }
}

#[test]
fn uncorrelated_flows_are_mostly_rejected() {
    let b = bench(100, 1000);
    let mut fps = [0u32; 3];
    let trials = 10;
    for seed in 0..trials {
        let other = interactive(1000, 500 + seed);
        let suspicious = attack(&other, 7, 3.0, seed);
        for (k, alg) in [
            Algorithm::GreedyPlus,
            Algorithm::optimal_paper(),
            Algorithm::Greedy,
        ]
        .into_iter()
        .enumerate()
        {
            if correlate(&b, alg, 7, &suspicious).correlated {
                fps[k] += 1;
            }
        }
    }
    // Greedy+ and Optimal should reject the large majority; Greedy is
    // allowed to be worse (that is its documented trade-off).
    assert!(fps[0] <= 3, "greedy+ false positives: {}/{trials}", fps[0]);
    assert!(fps[1] <= 3, "optimal false positives: {}/{trials}", fps[1]);
}

#[test]
fn hamming_invariants_between_algorithms() {
    // Greedy lower-bounds every order-respecting algorithm (order
    // constraints only restrict the choices).
    for seed in 0..5 {
        let b = bench(200 + seed, 1000);
        let suspicious = attack(&b.marked, 5, 2.0, seed);
        let g = correlate(&b, Algorithm::Greedy, 5, &suspicious);
        let gp = correlate(&b, Algorithm::GreedyPlus, 5, &suspicious);
        let op = correlate(&b, Algorithm::optimal_paper(), 5, &suspicious);
        let (g, gp, op) = (g.hamming.unwrap(), gp.hamming.unwrap(), op.hamming.unwrap());
        assert!(g <= gp, "seed {seed}: greedy {g} > greedy+ {gp}");
        assert!(g <= op, "seed {seed}: greedy {g} > optimal {op}");
    }
}

#[test]
fn greedy_has_the_smallest_decode_cost() {
    let b = bench(300, 1000);
    let suspicious = attack(&b.marked, 7, 3.0, 77);
    let g = correlate(&b, Algorithm::Greedy, 7, &suspicious);
    let gp = correlate(&b, Algorithm::GreedyPlus, 7, &suspicious);
    assert!(
        g.cost <= gp.cost,
        "greedy {} should not exceed greedy+ {}",
        g.cost,
        gp.cost
    );
}

#[test]
fn chaff_free_perturbation_only_still_detects() {
    for seed in 0..3 {
        let b = bench(400 + seed, 1000);
        let suspicious = attack(&b.marked, 4, 0.0, seed);
        for alg in [
            Algorithm::Greedy,
            Algorithm::GreedyPlus,
            Algorithm::optimal_paper(),
        ] {
            let out = correlate(&b, alg, 4, &suspicious);
            assert!(out.correlated, "seed {seed}, {alg}: {out}");
        }
    }
}

#[test]
fn disjoint_time_ranges_fail_matching_immediately() {
    let b = bench(500, 1000);
    // A suspicious flow that ends before the upstream flow begins.
    let early = b.marked.shifted(TimeDelta::from_secs(-100_000));
    let out = correlate(&b, Algorithm::GreedyPlus, 7, &early);
    assert!(!out.correlated);
    assert_eq!(out.hamming, None, "matching should fail outright");
    // The paper plots these as cost 0 (→ 1 in log scale): almost free.
    assert!(out.cost < 10_000, "cost {}", out.cost);
}

#[test]
fn identity_correlation_is_perfect() {
    let b = bench(600, 1000);
    for alg in [
        Algorithm::Greedy,
        Algorithm::GreedyPlus,
        Algorithm::optimal_paper(),
        Algorithm::brute_force_paper(),
    ] {
        let out = correlate(&b, alg, 1, &b.marked);
        assert!(out.correlated, "{alg}: {out}");
        assert_eq!(out.hamming, Some(0), "{alg}");
    }
}

#[test]
fn prepare_rejects_mismatched_flows() {
    let b = bench(700, 1000);
    let c = WatermarkCorrelator::new(
        b.marker,
        b.watermark.clone(),
        TimeDelta::from_secs(7),
        Algorithm::GreedyPlus,
    );
    let truncated = b.marked.subsequence(0..999).unwrap();
    assert!(c.prepare(&b.original, &truncated).is_err());
}

#[test]
fn short_flows_cannot_be_prepared() {
    let original = interactive(50, 1);
    let marker = IpdWatermarker::new(WatermarkKey::new(1), WatermarkParams::paper());
    let watermark = Watermark::random(24, &mut WatermarkKey::new(1).rng(1));
    let c = WatermarkCorrelator::new(
        marker,
        watermark,
        TimeDelta::from_secs(7),
        Algorithm::Greedy,
    );
    assert!(c.prepare(&original, &original).is_err());
}

#[test]
fn size_quantum_constraint_shrinks_cost_without_losing_detection() {
    let b = bench(800, 1000);
    let suspicious = attack(&b.marked, 5, 3.0, 9);
    let plain = WatermarkCorrelator::new(
        b.marker,
        b.watermark.clone(),
        TimeDelta::from_secs(5),
        Algorithm::GreedyPlus,
    );
    let constrained = plain.clone().with_size_quantum(16);
    let out_plain = plain
        .prepare(&b.original, &b.marked)
        .unwrap()
        .correlate(&suspicious);
    let out_constrained = constrained
        .prepare(&b.original, &b.marked)
        .unwrap()
        .correlate(&suspicious);
    // Chaff is 48 bytes; payload sizes vary, so the candidate pool
    // shrinks, and detection must survive the thinner matching sets.
    assert!(out_constrained.correlated, "{out_constrained}");
    // Total decode work can go either way (thinner sets can push work
    // into later phases), but the constraint must not explode the cost.
    assert!(
        out_constrained.cost <= out_plain.cost * 2,
        "constrained {} vastly exceeds plain {}",
        out_constrained.cost,
        out_plain.cost
    );
    let _ = out_plain.correlated; // plain may or may not detect; not asserted here
}

/// An attacked downstream flow that ALSO drops packets — the assumption-1
/// violation the robust decode is for.
fn lossy_attack(marked: &Flow, delta_s: i64, chaff_rate: f64, loss: f64, seed: u64) -> Flow {
    AdversaryPipeline::new()
        .then(UniformPerturbation::new(TimeDelta::from_secs(delta_s)))
        .then(PacketLoss::new(loss))
        .then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff_rate }))
        .apply(marked, Seed::new(seed))
}

#[test]
fn robust_decode_detects_deleted_copies_that_strict_mode_aborts_on() {
    let mut strict_detections = 0u32;
    for seed in 0..4 {
        let b = bench(200 + seed, 1000);
        // Sparse chaff: a deleted packet's Δ-window is often genuinely
        // empty, so deletions surface as erasures instead of being
        // papered over by chaff candidates.
        let suspicious = lossy_attack(&b.marked, 5, 0.3, 0.05, seed);
        let strict = WatermarkCorrelator::new(
            b.marker,
            b.watermark.clone(),
            TimeDelta::from_secs(5),
            Algorithm::GreedyPlus,
        );
        let robust = strict
            .clone()
            .with_decode(stepstone_core::DecodeOptions::robust(120));
        let out_strict = strict
            .prepare(&b.original, &b.marked)
            .unwrap()
            .correlate(&suspicious);
        if out_strict.correlated {
            strict_detections += 1;
        }
        assert_eq!(out_strict.robust, None, "strict never reports erasures");
        let out = robust
            .prepare(&b.original, &b.marked)
            .unwrap()
            .correlate(&suspicious);
        assert!(out.correlated, "seed {seed}: {out} (expected detection)");
        let r = out.robust.expect("robust decode reports its outcome");
        assert!(r.erasures > 0, "5% loss must show up as erasures");
        assert!(!r.budget_blown, "true pair stays within budget: {r:?}");
        assert!(r.confidence_pct >= 50, "confidence {}", r.confidence_pct);
    }
    // At 5% loss the strict decoder aborts on the first unmatched
    // upstream packet; if it somehow detected every seed there would be
    // nothing for the robust mode to fix.
    assert!(
        strict_detections < 4,
        "strict survived all seeds; loss model broken?"
    );
}

#[test]
fn robust_decode_keeps_rejecting_unrelated_flows() {
    let b = bench(300, 1000);
    for seed in 0..6 {
        let other = interactive(1000, 900 + seed);
        let suspicious = lossy_attack(&other, 5, 2.0, 0.05, seed);
        let robust = WatermarkCorrelator::new(
            b.marker,
            b.watermark.clone(),
            TimeDelta::from_secs(5),
            Algorithm::GreedyPlus,
        )
        .with_decode(stepstone_core::DecodeOptions::robust(120));
        let out = robust
            .prepare(&b.original, &b.marked)
            .unwrap()
            .correlate(&suspicious);
        assert!(!out.correlated, "seed {seed}: false positive {out}");
        let r = out.robust.expect("robust decode reports its outcome");
        // An unrelated flow demands far more erasures than any sane
        // budget; the blown budget is what holds the FP floor.
        assert!(r.budget_blown, "decoy must exhaust the budget: {r:?}");
    }
}

#[test]
#[should_panic(expected = "size quantum must be positive")]
fn a_zero_size_quantum_is_rejected_at_configuration() {
    let marker = IpdWatermarker::new(WatermarkKey::new(3), WatermarkParams::paper());
    let watermark = Watermark::random(24, &mut WatermarkKey::new(3).rng(1));
    let _ = WatermarkCorrelator::new(
        marker,
        watermark,
        TimeDelta::from_secs(1),
        Algorithm::GreedyPlus,
    )
    .with_size_quantum(0);
}
