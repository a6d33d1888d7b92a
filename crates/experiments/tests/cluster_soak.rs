//! Cluster soak: a 3-worker process topology under a pinned harsh
//! chaos plan, with one worker SIGKILLed mid-replay.
//!
//! What "survival" means here:
//!
//! * the run terminates (no deadlock in routing, shutdown, or report
//!   collection) and the coordinator's ledger balances: every routed
//!   packet and sent batch is acked, rejected, or counted lost;
//! * the kill is visible: at least one death detected, the victim's
//!   flows rehash onto survivors, and the death renders on `/metrics`;
//! * every candidate pair still ends with **exactly one** terminal
//!   verdict (`Correlated`, `Cleared`, or `Degraded`) — losing a
//!   worker may degrade pairs, it may never silently drop one;
//! * the merged engine counters from the reporting workers balance on
//!   their own conservation identity with drained queues.
//!
//! The chaos seed is pinned (44, shared with the single-process soak)
//! so CI failures reproduce with
//! `repro monitor --cluster 3 --chaos 44:harsh`.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;

use stepstone_cluster::{HashRing, Message};
use stepstone_experiments::cluster::{cluster_replay, ClusterOptions, ClusterRunReport};
use stepstone_experiments::{ExperimentConfig, Scale};
use stepstone_monitor::PairId;
use stepstone_scenario::{ChaosProfile, ScenarioSpec};
use stepstone_telemetry::Registry;

const WORKERS: u32 = 3;
/// Pinned harsh seed, shared with the single-process chaos soak.
const CHAOS_SEED: u64 = 44;
/// Routed-packet count after which the victim takes SIGKILL — well
/// inside the ~10k-packet replay, so batches are in flight.
const KILL_AFTER: u64 = 4_000;

fn soak_spec() -> ScenarioSpec {
    ExperimentConfig::new(Scale::Quick).monitor_spec()
}

fn worker_options() -> ClusterOptions {
    ClusterOptions::new(
        WORKERS,
        PathBuf::from(env!("CARGO_BIN_EXE_repro")),
        vec!["cluster-worker".to_string()],
    )
}

/// Exactly-one-terminal-verdict-per-pair: the invariant chaos and
/// worker deaths must not break. Returns the per-pair counts for the
/// caller's size assertion.
fn assert_one_terminal_per_pair(report: &ClusterRunReport) -> HashMap<PairId, usize> {
    let mut terminal: HashMap<PairId, usize> = HashMap::new();
    for verdict in &report.verdicts {
        if let Some(pair) = verdict.pair() {
            *terminal.entry(pair).or_insert(0) += 1;
        }
    }
    assert!(
        terminal.values().all(|&n| n == 1),
        "duplicate terminal verdicts: {terminal:?}"
    );
    assert_eq!(
        terminal.len(),
        report.spec.candidate_pairs(),
        "every candidate pair must resolve exactly once\n{report}"
    );
    terminal
}

#[test]
fn three_workers_survive_kill_nine_mid_replay() {
    let spec = ScenarioSpec {
        chaos: Some((CHAOS_SEED, ChaosProfile::Harsh)),
        ..soak_spec()
    };
    let mut opts = worker_options();
    // Kill the worker that owns flow 0, so the rehash after the death
    // provably has flows to move.
    let victim = HashRing::with_workers(WORKERS)
        .owner(0)
        .expect("non-empty ring owns every key");
    let registry = Arc::new(Registry::new());
    opts.registry = Some(Arc::clone(&registry));
    opts.kill_after = Some((victim, KILL_AFTER));

    let report = cluster_replay(&spec, &opts).expect("topology survives the kill");
    let stats = &report.cluster;

    // The coordinator's cross-process ledger balances even with a
    // worker dying mid-batch: sent == acked + lost, routed == acked +
    // rejected + lost.
    assert!(stats.conservation_holds(), "ledger must balance\n{report}");

    // The kill is visible, and the victim's flows moved to survivors.
    assert!(
        stats.worker_deaths >= 1,
        "the SIGKILL must be detected\n{report}"
    );
    assert!(
        stats.flows_rehashed >= 1,
        "the victim owned flow 0\n{report}"
    );

    // The merged engine books balance too: reporting workers drained
    // their queues and accounted every scheduled decode.
    assert!(
        report.engine.conservation_holds(),
        "engine books must balance\n{report}"
    );
    assert_eq!(report.engine.queue_depth, 0, "queues must drain\n{report}");

    // No pair is silently dropped: the survivors (or the Degraded
    // backfill) give every candidate pair exactly one terminal verdict.
    assert_one_terminal_per_pair(&report);

    // ...and the death renders on the one Prometheus endpoint.
    let rendered = registry.render_prometheus();
    let deaths: f64 = rendered
        .lines()
        .find(|l| l.starts_with("cluster_worker_deaths_detected_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("death counter must render:\n{rendered}"));
    assert!(deaths >= 1.0, "metrics must show the death: {deaths}");
}

#[test]
fn clean_three_worker_run_matches_single_process_detection() {
    let spec = soak_spec();
    let report = cluster_replay(&spec, &worker_options()).expect("clean replay succeeds");
    let stats = &report.cluster;

    // A clean shutdown retires workers instead of counting deaths.
    assert_eq!(stats.worker_deaths, 0, "no deaths in a clean run\n{report}");
    assert_eq!(stats.packets_lost, 0, "no losses in a clean run\n{report}");
    assert!(stats.conservation_holds(), "ledger must balance\n{report}");
    assert!(
        report.engine.conservation_holds(),
        "engine books must balance\n{report}"
    );

    // Detection parity with the single-process monitor: every true
    // pair latches (false positives are corpus behaviour, shared with
    // the single-process path, and not asserted here).
    assert_eq!(
        report.detection.true_positives, spec.upstreams,
        "all true pairs must correlate\n{report}"
    );
    assert_eq!(
        report.detection.missed, 0,
        "no true pair may be missed\n{report}"
    );
    assert_one_terminal_per_pair(&report);
}

/// A worker handed a `Hello` spec that `ScenarioSpec::parse` rejects
/// fails the handshake with the parser's message: it exits non-zero
/// without acknowledging, and never panics.
#[test]
fn worker_fails_the_handshake_on_an_unparseable_spec() {
    let canonical = soak_spec().canonical();
    for (label, spec) in [
        ("non-UTF-8", vec![0xFF, 0xFE]),
        (
            "unknown key",
            format!("{canonical}future-knob = 9\n").into_bytes(),
        ),
        (
            "zero upstreams",
            canonical
                .replace("upstreams = 2\n", "upstreams = 0\n")
                .into_bytes(),
        ),
    ] {
        let expected = match std::str::from_utf8(&spec) {
            Ok(text) => ScenarioSpec::parse(text)
                .expect_err("the parser rejects this spec")
                .to_string(),
            Err(_) => "spec is not UTF-8".to_string(),
        };
        let mut hello = Vec::new();
        Message::Hello {
            worker: 0,
            generation: 0,
            spec,
        }
        .write_to(&mut hello)
        .expect("frame encodes");
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("cluster-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("worker spawns");
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(&hello).expect("worker reads its Hello");
        drop(stdin);
        let output = child.wait_with_output().expect("worker exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{label}: {stderr}");
        assert!(stderr.contains(&expected), "{label}: {stderr}");
        assert!(!stderr.contains("panicked"), "{label}: {stderr}");
        assert!(output.stdout.is_empty(), "{label}: no HelloAck may be sent");
    }
}
