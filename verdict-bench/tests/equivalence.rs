//! The benchmark's load generator feeds the program exactly what the
//! scenario runner (`repro scenario`) would: the same capture bytes,
//! replayed to the same verdicts.

mod common;

use stepstone_experiments::scenario_run::{export_spec_pcap, run_spec_pcap};
use stepstone_scenario::ScenarioSpec;
use stepstone_verdict_bench::corpus::Corpus;
use stepstone_verdict_bench::pass;
use stepstone_verdict_bench::trace::NoSpans;
use stepstone_verdict_bench::WORKLOADS;

fn assert_matches_scenario_runner(spec: &ScenarioSpec) -> u64 {
    let corpus = Corpus::generate(spec).expect("corpus");
    let capture = corpus.capture().expect("capture");
    assert!(
        capture == export_spec_pcap(spec).expect("scenario export"),
        "{}: capture differs from the scenario export",
        spec.name
    );
    let pass = pass::run(&corpus, &capture, &mut NoSpans).expect("pass");
    assert!(pass.check.problems.is_empty(), "{:?}", pass.check.problems);
    assert_eq!(pass.check.failed_pairs, 0);
    let reference = run_spec_pcap(spec, &capture, None).expect("scenario replay");
    assert_eq!(
        pass.check.digest,
        reference.verdict_digest(),
        "{}: verdict digest differs from the scenario runner's",
        spec.name
    );
    pass.check.digest
}

#[test]
fn small_workloads_match_the_scenario_runner() {
    for workload in &WORKLOADS {
        assert_matches_scenario_runner(&common::small(workload));
    }
}

/// The full-size workloads at their pinned seeds: the capture equals the
/// scenario export, the digest equals the scenario runner's, and the
/// pinned digests are that digest. About a minute in release mode.
#[test]
#[ignore = "full-size workloads; run with --release -- --ignored"]
fn full_workloads_match_the_scenario_runner_and_their_pins() {
    for workload in &WORKLOADS {
        let digest = assert_matches_scenario_runner(&workload.spec(None).expect("spec"));
        if let Some(pinned) = workload.pinned_digest {
            assert_eq!(digest, pinned, "{}: pinned digest is stale", workload.name);
        }
    }
}
