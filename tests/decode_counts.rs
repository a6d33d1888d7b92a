//! Deterministic cost counters, pinned: a small stress-regime world
//! (`tests/data/stress-8x8.scn`) runs under the deterministic schedule,
//! and its decode counts and verdict digest must repeat exactly. A
//! change to the decision gate or the boundary grid that moves them
//! fails here, not only in the capture-to-verdict benchmark.

use stepstone::experiments::scenario_run::run_spec_with_stats;
use stepstone::scenario::ScenarioSpec;

#[test]
fn stress_world_decode_counts_are_pinned() {
    let spec = ScenarioSpec::parse(include_str!("data/stress-8x8.scn")).expect("spec parses");
    let (outcome, stats) = run_spec_with_stats(&spec, None).expect("the world builds");
    assert_eq!(outcome.verdicts.len(), spec.candidate_pairs());
    // 128 pairs: 27 latch, each on its first and only decode; 65 are
    // proved unrelated in stream time; the other 36 chains are still
    // open when their flows end and clear in the flush, undecoded.
    assert_eq!(stats.decodes_run, 27, "{stats}");
    assert_eq!(stats.pairs_latched, 27, "{stats}");
    assert_eq!(stats.pairs_cleared_early, 65, "{stats}");
    assert_eq!(stats.decodes_skipped, 1889, "{stats}");
    // The verdicts are those of the ungated engine.
    assert_eq!(
        format!("{:016x}", outcome.verdict_digest()),
        "2c2c06a15bc421b6",
        "{outcome}"
    );
}
