//! The checked-in preset library: named scenarios shipped with the
//! binary via `include_str!`, so `repro serve`/`repro matrix` can run
//! them without any files on disk.
//!
//! | Preset | What it stages |
//! |--------|----------------|
//! | `quick-smoke` | Smallest valid scenario; CI smoke and doctests |
//! | `baseline` | The paper's §4 regime: interactive flows, moderate chaff |
//! | `multi-flow` | Several watermarked flows through one adversary (the Kiyavash et al. multi-flow staging) |
//! | `deletion-harsh` | Gong/Kiyavash deletion + bursty-insertion channel: harsh chaos + packet loss |
//! | `chaff-storm` | Heavy Poisson chaff, the paper's worst cover-traffic column |
//! | `tcplib-mix` | Mixed interactive/tcplib traffic with telnet background decoys |
//! | `wire` | The `tests/data/sample.pcap` world: one watermarked flow, one decoy |
//! | `monitor` | `repro monitor`'s world: the paper's Δ = 7 s, chaff 3/s regime |
//! | `backends-mild` | The sparse-channel regime of the cross-backend comparison (`BENCH_backends.json`) |

use crate::{ScenarioError, ScenarioSpec};

/// Every preset name, in library order. [`preset`] accepts exactly
/// these.
pub const NAMES: [&str; 9] = [
    "quick-smoke",
    "baseline",
    "multi-flow",
    "deletion-harsh",
    "chaff-storm",
    "tcplib-mix",
    "wire",
    "monitor",
    "backends-mild",
];

const SOURCES: [&str; 9] = [
    include_str!("../presets/quick-smoke.scn"),
    include_str!("../presets/baseline.scn"),
    include_str!("../presets/multi-flow.scn"),
    include_str!("../presets/deletion-harsh.scn"),
    include_str!("../presets/chaff-storm.scn"),
    include_str!("../presets/tcplib-mix.scn"),
    include_str!("../presets/wire.scn"),
    include_str!("../presets/monitor.scn"),
    include_str!("../presets/backends-mild.scn"),
];

/// Looks up a preset by name and parses it.
pub fn preset(name: &str) -> Result<ScenarioSpec, ScenarioError> {
    match NAMES.iter().position(|&n| n == name) {
        Some(index) => ScenarioSpec::parse(SOURCES[index]),
        None => Err(ScenarioError::UnknownPreset {
            name: name.to_string(),
        }),
    }
}

/// The raw DSL text of a preset, if the name is known — what `repro
/// scenarios --dump` prints.
pub fn preset_text(name: &str) -> Option<&'static str> {
    NAMES
        .iter()
        .position(|&n| n == name)
        .map(|index| SOURCES[index])
}

/// Parses every preset, in [`NAMES`] order.
pub fn all() -> Vec<ScenarioSpec> {
    #[expect(
        clippy::expect_used,
        reason = "checked-in preset texts parse; pinned by the digest tests"
    )]
    let specs = NAMES
        .iter()
        .map(|name| preset(name).expect("checked-in presets parse; pinned by tests"))
        .collect();
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_parses_and_matches_its_file_name() {
        for name in NAMES {
            let spec = preset(name).unwrap_or_else(|e| panic!("preset {name}: {e}"));
            assert_eq!(spec.name, name, "preset file name and `name` key agree");
        }
    }

    #[test]
    fn preset_digests_are_distinct() {
        let digests: Vec<u64> = all().iter().map(ScenarioSpec::digest).collect();
        let mut unique = digests.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), digests.len(), "digests: {digests:x?}");
    }

    #[test]
    fn presets_round_trip_through_canonical() {
        for spec in all() {
            let again = ScenarioSpec::parse(&spec.canonical()).expect("canonical parses");
            assert_eq!(again, spec);
        }
    }

    #[test]
    fn unknown_preset_lists_the_library() {
        let err = preset("bogus").expect_err("unknown");
        let text = err.to_string();
        for name in NAMES {
            assert!(text.contains(name), "{text}");
        }
    }

    #[test]
    fn library_stages_the_issue_scenarios() {
        let multi = preset("multi-flow").expect("multi-flow");
        assert!(
            multi.upstreams >= 4,
            "multi-flow stages several watermarked flows"
        );
        let harsh = preset("deletion-harsh").expect("deletion-harsh");
        assert!(
            matches!(harsh.chaos, Some((_, crate::ChaosProfile::Harsh))),
            "deletion-harsh arms the harsh chaos channel"
        );
        assert!(harsh.loss_ppm > 0, "deletion-harsh deletes packets");
    }
}
