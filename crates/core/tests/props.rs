//! Property-based invariants across the four algorithms on small random
//! instances.

use proptest::prelude::*;
use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
use stepstone_core::{
    Algorithm, BackendKind, ChainState, DecodeOptions, Gate, Phase1Scope, WatermarkCorrelator,
};
use stepstone_flow::{Flow, Packet, SlidingWindow, TimeDelta, Timestamp};
use stepstone_traffic::Seed;
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

/// A small scheme so Brute Force finishes: 4 bits, r = 1 (16 endpoints).
fn tiny_params() -> WatermarkParams {
    WatermarkParams {
        bits: 4,
        redundancy: 1,
        offset: 1,
        adjustment: TimeDelta::from_millis(800),
        threshold: 1,
    }
}

/// A deterministic flow from a seed: ~120 packets, irregular spacing.
fn seeded_flow(seed: u64) -> Flow {
    use rand::Rng;
    let mut rng = Seed::new(seed).rng(0);
    let mut t = 0i64;
    let packets = (0..120).map(|_| {
        t += rng.gen_range(50_000..2_000_000);
        Timestamp::from_micros(t)
    });
    Flow::from_timestamps(packets).unwrap()
}

fn correlate_with(
    alg: Algorithm,
    original: &Flow,
    marked: &Flow,
    suspicious: &Flow,
    marker: IpdWatermarker,
    watermark: &Watermark,
    delta: TimeDelta,
) -> stepstone_core::Correlation {
    WatermarkCorrelator::new(marker, watermark.clone(), delta, alg)
        .prepare(original, marked)
        .unwrap()
        .correlate(suspicious)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's one unconditional hierarchy guarantee holds on
    /// arbitrary attacked flows: Greedy's Hamming distance lower-bounds
    /// every order-respecting algorithm's, and all decisions implement
    /// the same threshold semantics.
    #[test]
    fn hamming_hierarchy(
        flow_seed in 0u64..5000,
        attack_seed in 0u64..5000,
        delta_s in 1i64..5,
        chaff in 0.0f64..2.0,
        correlated in proptest::bool::ANY,
    ) {
        let original = seeded_flow(flow_seed);
        let marker = IpdWatermarker::new(WatermarkKey::new(flow_seed ^ 77), tiny_params());
        let watermark = Watermark::random(4, &mut WatermarkKey::new(flow_seed).rng(1));
        let marked = marker.embed(&original, &watermark).unwrap();
        let delta = TimeDelta::from_secs(delta_s);
        let base = if correlated { marked.clone() } else { seeded_flow(flow_seed ^ 0xDEAD) };
        let suspicious = AdversaryPipeline::new()
            .then(UniformPerturbation::new(delta))
            .then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff }))
            .apply(&base, Seed::new(attack_seed));

        let run = |alg| correlate_with(alg, &original, &marked, &suspicious, marker, &watermark, delta);
        let g = run(Algorithm::Greedy);
        let gp = run(Algorithm::GreedyPlus);
        let op = run(Algorithm::Optimal { cost_bound: 10_000_000 });
        let bf = run(Algorithm::BruteForce { cost_bound: 50_000_000 });

        // Either everyone failed matching or no one did (Greedy does not
        // tighten, so it can only have MORE information).
        if g.hamming.is_none() {
            prop_assert!(!g.correlated);
        }
        // The one unconditional guarantee (paper §3.3.2): Greedy ignores
        // the order constraint, so its Hamming distance lower-bounds
        // every order-respecting algorithm's. (Greedy+ vs Optimal have
        // no fixed order — Greedy+'s cascades can reach selections the
        // Optimal search holds fixed, which is the paper's "performs
        // slightly worse under the bound of computation cost"; and all
        // searches stop at the threshold, so they are not minimizers.)
        if let Some(g_h) = g.hamming {
            for (name, other) in [("greedy+", &gp), ("optimal", &op), ("brute", &bf)] {
                if let Some(h) = other.hamming {
                    prop_assert!(g_h <= h, "greedy {g_h} > {name} {h}");
                }
            }
        }
        // Decisions agree on the threshold semantics.
        for out in [&g, &gp, &op, &bf] {
            if let Some(h) = out.hamming {
                prop_assert_eq!(out.correlated, h <= tiny_params().threshold);
            } else {
                prop_assert!(!out.correlated);
            }
        }
    }

    /// Decisions are pure functions of their inputs.
    #[test]
    fn correlation_is_deterministic(flow_seed in 0u64..2000, attack_seed in 0u64..2000) {
        let original = seeded_flow(flow_seed);
        let marker = IpdWatermarker::new(WatermarkKey::new(1), tiny_params());
        let watermark = Watermark::random(4, &mut WatermarkKey::new(2).rng(1));
        let marked = marker.embed(&original, &watermark).unwrap();
        let suspicious = AdversaryPipeline::new()
            .then(UniformPerturbation::new(TimeDelta::from_secs(2)))
            .apply(&marked, Seed::new(attack_seed));
        let run = || correlate_with(
            Algorithm::GreedyPlus, &original, &marked, &suspicious, marker, &watermark,
            TimeDelta::from_secs(2),
        );
        prop_assert_eq!(run(), run());
    }

    /// A self-pair under in-bound perturbation is always detected by
    /// every algorithm (tiny threshold notwithstanding, because the true
    /// subsequence is reachable).
    #[test]
    fn in_bound_perturbation_never_defeats_detection(
        flow_seed in 0u64..2000,
        attack_seed in 0u64..2000,
    ) {
        let original = seeded_flow(flow_seed);
        let marker = IpdWatermarker::new(WatermarkKey::new(3), tiny_params());
        let watermark = Watermark::random(4, &mut WatermarkKey::new(4).rng(1));
        let marked = marker.embed(&original, &watermark).unwrap();
        // Mild perturbation relative to the 800 ms adjustment.
        let suspicious = AdversaryPipeline::new()
            .then(UniformPerturbation::new(TimeDelta::from_millis(200)))
            .apply(&marked, Seed::new(attack_seed));
        for alg in [Algorithm::Greedy, Algorithm::GreedyPlus, Algorithm::optimal_paper()] {
            let out = correlate_with(
                alg, &original, &marked, &suspicious, marker, &watermark,
                TimeDelta::from_millis(200),
            );
            prop_assert!(out.correlated, "{alg}: {out}");
        }
    }

    /// The decision gate is resumable, sound, and exact where the proof
    /// says so. Over random flows, every algorithm and phase-1 scope,
    /// size quantum off (0) or on, and random boundary splits of the
    /// stream:
    ///
    /// - advanced boundary by boundary, the gate equals the gate
    ///   computed over the same window in one shot;
    /// - `Pending` or `Unrelated` ⇒ the batch decode of that window is
    ///   unmatched (no correlation, no Hamming distance, no robust
    ///   outcome), and for Greedy and for phase 1 over all packets the
    ///   converse holds too;
    /// - once `Unrelated`, every longer window decodes unmatched and
    ///   the gate stays `Unrelated`.
    ///
    /// Robust mode and the passive backends are never gated.
    #[test]
    fn the_decision_gate_is_resumable_sound_and_exact(
        flow_seed in 0u64..5000,
        attack_seed in 0u64..5000,
        size_seed in 0u64..5000,
        delta_s in 1i64..5,
        chaff in 0.0f64..2.0,
        correlated in proptest::bool::ANY,
        quantum in 0u32..64,
        cuts in proptest::collection::vec(0.0f64..1.0, 1..5),
    ) {
        use rand::Rng;

        let original = seeded_flow(flow_seed);
        let marker = IpdWatermarker::new(WatermarkKey::new(flow_seed ^ 77), tiny_params());
        let watermark = Watermark::random(4, &mut WatermarkKey::new(flow_seed).rng(1));
        let marked = marker.embed(&original, &watermark).unwrap();
        let delta = TimeDelta::from_secs(delta_s);
        let base = if correlated { marked.clone() } else { seeded_flow(flow_seed ^ 0xDEAD) };
        // Every packet here is 64 B; re-size a quarter of them so size
        // classes can both keep and break links.
        let mut rng = Seed::new(size_seed).rng(2);
        let suspicious: Vec<Packet> = AdversaryPipeline::new()
            .then(UniformPerturbation::new(delta))
            .then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff }))
            .apply(&base, Seed::new(attack_seed))
            .iter()
            .map(|p| {
                let size = if rng.gen_bool(0.75) { 64 } else { rng.gen_range(1..128) };
                Packet::with_provenance(p.timestamp(), size, p.provenance())
            })
            .collect();
        let mut boundaries: Vec<usize> = cuts
            .iter()
            .map(|c| 1 + ((suspicious.len() - 1) as f64 * c) as usize)
            .chain([suspicious.len()])
            .collect();
        boundaries.sort_unstable();
        boundaries.dedup();

        for alg in [
            Algorithm::Greedy,
            Algorithm::GreedyPlus,
            Algorithm::Optimal { cost_bound: 10_000_000 },
            // The claims concern the matching phases, which run before
            // any search, so a small search bound keeps this quick.
            Algorithm::BruteForce { cost_bound: 100_000 },
        ] {
            for scope in [Phase1Scope::AllPackets, Phase1Scope::EmbeddingOnly] {
                let mut cfg = WatermarkCorrelator::new(marker, watermark.clone(), delta, alg)
                    .with_phase1_scope(scope);
                if quantum > 0 {
                    cfg = cfg.with_size_quantum(quantum);
                }
                let exact = alg == Algorithm::Greedy || scope == Phase1Scope::AllPackets;
                let bound = cfg.bind(&original, &marked).unwrap();
                let backend = bound.as_backend();
                let mut window = SlidingWindow::new(suspicious.len());
                let mut chain = ChainState::default();
                let mut unrelated = false;
                for &end in &boundaries {
                    for &p in &suspicious[window.len()..end] {
                        window.push(p).unwrap();
                    }
                    let gate = backend.gate(&window, &mut chain);
                    prop_assert_eq!(gate, backend.gate(&window, &mut ChainState::default()));
                    let out = bound.correlate(&window.snapshot());
                    let unmatched = !out.correlated && out.hamming.is_none() && out.robust.is_none();
                    let ctx = format!("{alg} {scope:?} q={quantum} end={end} {gate:?}: {out}");
                    if gate != Gate::Complete {
                        prop_assert!(unmatched, "{}", ctx);
                    }
                    if exact {
                        prop_assert_eq!(gate == Gate::Complete, !unmatched, "{}", ctx);
                    }
                    if unrelated {
                        prop_assert_eq!(gate, Gate::Unrelated, "{}", ctx);
                    }
                    unrelated |= gate == Gate::Unrelated;
                }
                for kind in BackendKind::ALL {
                    for decode in [DecodeOptions::strict(), DecodeOptions::robust(2)] {
                        if kind == BackendKind::Paper && !decode.is_robust() {
                            continue;
                        }
                        let other = cfg
                            .bind_backend_with(kind, decode, chaff, &original, &marked)
                            .unwrap();
                        prop_assert_eq!(
                            other.as_backend().gate(&window, &mut ChainState::default()),
                            Gate::Complete,
                            "{:?} {:?}", kind, decode.mode
                        );
                    }
                }
            }
        }
    }
}
