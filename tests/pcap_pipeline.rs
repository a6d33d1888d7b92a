//! Wire-format integration: the checked-in `tests/data/sample.pcap`
//! fixture streams through the full ingest → monitor pipeline and the
//! monitor finds the scenario's true pair.
//!
//! The fixture is the `wire` scenario preset's world, regenerated
//! byte-for-byte by `cargo run -p stepstone-experiments --bin repro --
//! --out tests/data pcap-export`; this test pins both directions — the
//! capture on disk parses, and a fresh export still matches it.

use stepstone::experiments::live::replay_pcap;
use stepstone::experiments::scenario_run::export_spec_pcap;
use stepstone::experiments::{ExperimentConfig, Scale};
use stepstone::ingest::{parse_capture, FlowDemux, ReplayClock};

fn fixture_bytes() -> Vec<u8> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/sample.pcap");
    std::fs::read(path).expect("tests/data/sample.pcap is checked in")
}

#[test]
fn fixture_is_small_and_parses_cleanly() {
    let bytes = fixture_bytes();
    assert!(bytes.len() < 64 * 1024, "fixture must stay under 64 KiB");
    let mut demux = FlowDemux::new();
    let mut records = 0usize;
    for record in parse_capture(&bytes).expect("fixture has a valid header") {
        let record = record.expect("fixture has no torn records");
        assert!(record.tuple.is_some(), "every fixture packet demuxes");
        demux.push(&record);
        records += 1;
    }
    let (flows, stats) = demux.finish();
    assert_eq!(flows.len(), 2, "one true downstream + one decoy");
    assert_eq!(stats.packets as usize, records);
    assert_eq!(stats.clamped, 0);
}

#[test]
fn fixture_replays_to_the_expected_verdicts() {
    // Any scale yields the same wire world, so the default seed
    // rebuilds the correlators the fixture was exported against.
    let spec = ExperimentConfig::new(Scale::Quick).wire_spec();
    let report = replay_pcap(&spec, &fixture_bytes(), ReplayClock::Fast, None)
        .expect("fixture replays through the monitor");
    assert_eq!(
        report.detection.true_positives, 1,
        "the true pair is detected"
    );
    assert_eq!(report.detection.false_positives, 0, "the decoy is cleared");
    assert_eq!(report.detection.missed, 0);
    assert_eq!(report.outcome.rejected, 0);
}

#[test]
fn fixture_matches_a_fresh_export() {
    let spec = ExperimentConfig::new(Scale::Default).wire_spec();
    let fresh = export_spec_pcap(&spec).expect("wire scenario exports");
    assert_eq!(
        fresh,
        fixture_bytes(),
        "tests/data/sample.pcap is stale: regenerate with \
         `cargo run -p stepstone-experiments --bin repro -- --out tests/data pcap-export`"
    );
}
