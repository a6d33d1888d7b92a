//! Shutdown and backpressure edge cases for the engine: a flush that
//! starts with full shard queues, drop-count conservation, and
//! degenerate (empty/undersized) inputs.

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};

use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
use stepstone_core::{Algorithm, WatermarkCorrelator};
use stepstone_flow::{Flow, Packet, TimeDelta, Timestamp};
use stepstone_monitor::{
    DecodeFault, FaultHook, FlowId, Monitor, MonitorConfig, PairId, UpstreamId, Verdict,
};
use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

fn interactive(n: usize, seed: u64) -> Flow {
    SessionGenerator::new(InteractiveProfile::ssh()).generate(
        n,
        Timestamp::ZERO,
        &mut Seed::new(seed).rng(0),
    )
}

fn attack(marked: &Flow, seed: u64) -> Flow {
    AdversaryPipeline::new()
        .then(UniformPerturbation::new(TimeDelta::from_secs(2)))
        .then(ChaffInjector::new(ChaffModel::Poisson { rate: 0.5 }))
        .apply(marked, Seed::new(seed))
}

/// A monitor with one registered upstream built from `n` packets.
fn monitor_with_upstream(config: MonitorConfig, n: usize, seed: u64) -> (Monitor, Flow) {
    let original = interactive(n, seed);
    let marker = IpdWatermarker::new(WatermarkKey::new(seed ^ 0xABC), WatermarkParams::small());
    let watermark = Watermark::random(8, &mut WatermarkKey::new(seed).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    let correlator = WatermarkCorrelator::new(
        marker,
        watermark,
        TimeDelta::from_secs(2),
        Algorithm::GreedyPlus,
    );
    let mut monitor = Monitor::new(config);
    monitor.register_upstream(UpstreamId(0), correlator.bind(&original, &marked).unwrap());
    (monitor, marked)
}

/// Asserts every `(upstream, flow)` pair got exactly one terminal
/// verdict (`Correlated` or `Cleared`).
fn assert_one_terminal_verdict_per_pair(verdicts: &[Verdict], expected_pairs: usize) {
    let mut per_pair: BTreeMap<PairId, usize> = BTreeMap::new();
    for v in verdicts {
        if let Some(pair) = v.pair() {
            *per_pair.entry(pair).or_default() += 1;
        }
    }
    assert_eq!(
        per_pair.len(),
        expected_pairs,
        "pair coverage mismatch: {per_pair:?}"
    );
    for (pair, count) in per_pair {
        assert_eq!(count, 1, "pair {pair:?} got {count} terminal verdicts");
    }
}

/// Shutdown with every decode still pending and room for only one job
/// per shard: `decode_batch` is set above the stream length so ingest
/// schedules nothing, then `finish` must flush one decode per pair
/// through a single-slot queue via blocking pushes — without losing a
/// pair, leaking a queue slot, or deadlocking on the completion stream.
#[test]
fn finish_flushes_every_pair_through_full_single_slot_queues() {
    const FLOWS: usize = 8;
    let (mut monitor, marked) = monitor_with_upstream(
        MonitorConfig::default()
            .with_shards(2)
            .with_queue_capacity(1)
            .with_decode_batch(1_000_000),
        200,
        7,
    );
    for i in 0..FLOWS {
        let flow = attack(&marked, 100 + i as u64);
        for &p in flow.packets() {
            monitor.ingest(FlowId(i as u64), p);
        }
    }
    // Nothing ran during ingest: the whole workload lands on finish().
    let before = monitor.stats();
    assert_eq!(before.decodes_scheduled, 0, "{before}");
    assert_eq!(before.pairs_active, FLOWS);

    let report = monitor.finish();
    assert_one_terminal_verdict_per_pair(&report.verdicts, FLOWS);
    let stats = report.stats;
    assert_eq!(
        stats.decodes_scheduled, stats.decodes_run,
        "every accepted flush job must complete: {stats}"
    );
    assert_eq!(stats.decodes_scheduled, FLOWS as u64);
    assert_eq!(stats.queue_depths, vec![0, 0], "queues must drain: {stats}");
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.verdicts_emitted, report.verdicts.len() as u64);
}

/// Heavy backpressure: drops are counted, but accepted work is
/// conserved — after `finish`, scheduled = run, the queues are empty,
/// and no pair is left without a verdict. The first decode is held
/// until every packet is ingested, so the one-slot queue is provably
/// full whatever the shard worker's speed.
#[test]
fn drop_accounting_is_conserved_under_backpressure() {
    const FLOWS: usize = 6;
    let (release, hold) = mpsc::channel::<()>();
    let hold = Mutex::new(hold);
    let (mut monitor, marked) = monitor_with_upstream(
        MonitorConfig::default()
            .with_shards(1)
            .with_queue_capacity(1)
            .with_decode_batch(1)
            .with_fault_hook(FaultHook::new(move |seq, _| {
                if seq == 0 {
                    // Err means the test dropped its sender: stop holding.
                    let _ = hold.lock().expect("only this hook locks").recv();
                }
                DecodeFault::None
            })),
        200,
        9,
    );
    let mut total_packets = 0u64;
    for i in 0..FLOWS {
        let flow = attack(&marked, 300 + i as u64);
        total_packets += flow.len() as u64;
        for &p in flow.packets() {
            monitor.ingest(FlowId(i as u64), p);
        }
    }
    let mid = monitor.stats();
    release.send(()).expect("the hook holds the receiver");
    assert!(mid.decodes_dropped > 0, "expected drops: {mid}");
    assert_eq!(mid.packets_ingested, total_packets);

    let report = monitor.finish();
    assert_one_terminal_verdict_per_pair(&report.verdicts, FLOWS);
    let stats = report.stats;
    assert_eq!(stats.decodes_scheduled, stats.decodes_run, "{stats}");
    assert_eq!(stats.queue_depths, vec![0], "{stats}");
    // Drops never shrink across the flush (finish blocks, not drops).
    assert!(stats.decodes_dropped >= mid.decodes_dropped);
    assert_eq!(stats.worker_panics, 0);
}

/// `finish` on an engine that saw no packets (and one that saw no
/// upstreams) returns an empty, internally consistent report.
#[test]
fn finish_on_idle_engines_is_empty_and_consistent() {
    let report = Monitor::new(MonitorConfig::default()).finish();
    assert!(report.verdicts.is_empty());
    assert_eq!(report.stats.decodes_scheduled, 0);
    assert_eq!(report.stats.queue_depths, vec![0]);

    let (monitor, _) = monitor_with_upstream(MonitorConfig::default().with_shards(3), 150, 13);
    let report = monitor.finish();
    assert!(report.verdicts.is_empty(), "{:?}", report.verdicts);
    assert_eq!(report.stats.queue_depths, vec![0, 0, 0]);

    // No upstreams registered: flows are tracked but produce no pairs.
    let mut monitor = Monitor::new(MonitorConfig::default());
    for i in 0..50 {
        monitor.ingest(FlowId(1), Packet::new(Timestamp::from_secs(i), 64));
    }
    let report = monitor.finish();
    assert!(report.verdicts.is_empty());
    assert_eq!(report.stats.packets_ingested, 50);
    assert_eq!(report.stats.pairs_active, 0);
}

/// A flow far shorter than the upstream can never host a complete
/// matching; the engine must not decode it, yet its pair still
/// resolves to `Cleared { decodes: 0 }` at shutdown.
#[test]
fn undersized_flow_clears_without_decoding() {
    let (mut monitor, marked) =
        monitor_with_upstream(MonitorConfig::default().with_decode_batch(1), 300, 17);
    let short = attack(&marked, 23);
    for &p in short.packets().iter().take(20) {
        monitor.ingest(FlowId(0), p);
    }
    let report = monitor.finish();
    assert_eq!(report.stats.decodes_scheduled, 0, "{}", report.stats);
    let pair = PairId {
        upstream: UpstreamId(0),
        flow: FlowId(0),
    };
    assert!(
        report.verdicts.iter().any(|v| matches!(
            v,
            Verdict::Cleared { pair: p, decodes: 0, .. } if *p == pair
        )),
        "expected an undecoded Cleared verdict: {:?}",
        report.verdicts
    );
}

/// Strict decoding is gated on the earliest order-consistent chain
/// through the matching sets: a decoy long enough to pass the window
/// gate but ending before the upstream can never link the last
/// upstream packet. Spread evenly over the upstream's bursty span, it
/// breaks the chain at the first due boundary, so the pair is cleared
/// there, in stream time, without a single decode. Robust decoding is
/// not gated, so the same flows are decoded there.
#[test]
fn decoy_ending_before_the_upstream_is_skipped_only_in_strict_mode() {
    use stepstone_core::{BackendKind, DecodeOptions};

    let n = 300;
    let original = interactive(n, 41);
    let marker = IpdWatermarker::new(WatermarkKey::new(41 ^ 0xABC), WatermarkParams::small());
    let watermark = Watermark::random(8, &mut WatermarkKey::new(41).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    let correlator = WatermarkCorrelator::new(
        marker,
        watermark,
        TimeDelta::from_secs(2),
        Algorithm::GreedyPlus,
    );
    // 2n packets spread evenly over the upstream's span, minus a second.
    let end = marked.last().unwrap().timestamp().as_micros() - 1_000_000;
    let decoy = Flow::from_timestamps(
        (0..2 * n as i64).map(|i| Timestamp::from_micros(i * end / (2 * n as i64))),
    )
    .unwrap();
    let pair = PairId {
        upstream: UpstreamId(0),
        flow: FlowId(0),
    };
    for config in [
        MonitorConfig::default().with_decode_batch(16),
        MonitorConfig::default()
            .with_decode_batch(16)
            .with_deterministic_schedule(),
    ] {
        let mut monitor = Monitor::new(config.clone());
        monitor.register_upstream(UpstreamId(0), correlator.bind(&original, &marked).unwrap());
        for &p in decoy.packets() {
            monitor.ingest(FlowId(0), p);
        }
        let report = monitor.finish();
        let stats = &report.stats;
        assert_eq!(stats.decodes_run, 0, "{stats}");
        assert_eq!(stats.decodes_scheduled, 0, "{stats}");
        assert_eq!(stats.pairs_cleared_early, 1, "{stats}");
        assert_eq!(
            report
                .verdicts
                .iter()
                .filter(|v| v.pair() == Some(pair))
                .collect::<Vec<_>>(),
            [&Verdict::Cleared {
                pair,
                hamming: None,
                decodes: 0
            }],
        );

        let robust = correlator
            .bind_backend_with(
                BackendKind::Paper,
                DecodeOptions::robust(4),
                0.0,
                &original,
                &marked,
            )
            .unwrap();
        let mut monitor = Monitor::new(config);
        monitor.register_upstream(UpstreamId(0), robust);
        for &p in decoy.packets() {
            monitor.ingest(FlowId(0), p);
        }
        let report = monitor.finish();
        assert!(report.stats.decodes_run > 0, "{}", report.stats);
        assert_eq!(report.stats.decodes_skipped, 0, "{}", report.stats);
        assert_eq!(report.stats.pairs_cleared_early, 0, "{}", report.stats);
        assert_one_terminal_verdict_per_pair(&report.verdicts, 1);
    }
}

/// Eviction racing an in-flight decode: the orphaned pair's completion
/// still produces exactly one terminal verdict, and shutdown leaves no
/// orphan behind.
#[test]
fn eviction_with_inflight_decode_still_resolves_the_pair() {
    let (mut monitor, marked) = monitor_with_upstream(
        MonitorConfig::default()
            .with_idle_timeout(TimeDelta::from_secs(30))
            .with_decode_batch(1),
        200,
        29,
    );
    let flow = attack(&marked, 31);
    let mut last = Timestamp::ZERO;
    for &p in flow.packets() {
        monitor.ingest(FlowId(3), p);
        last = p.timestamp();
    }
    // Evict immediately after ingest: a decode scheduled by the last
    // packets is likely still in flight, exercising the orphan path.
    let evicted = monitor.evict_idle(last + TimeDelta::from_secs(60));
    assert_eq!(evicted, 1);
    let report = monitor.finish();
    let pair = PairId {
        upstream: UpstreamId(0),
        flow: FlowId(3),
    };
    assert_eq!(
        report
            .verdicts
            .iter()
            .filter(|v| v.pair() == Some(pair))
            .count(),
        1,
        "exactly one terminal verdict for the evicted pair: {:?}",
        report.verdicts
    );
    assert_eq!(report.stats.flows_evicted, 1);
    assert_eq!(report.stats.decodes_scheduled, report.stats.decodes_run);
}

/// The graceful-degradation ladder: under `--decode robust` a pair
/// whose erasure demand exceeds the budget must never end `Cleared` —
/// the shutdown sweep turns the would-be clean negative into
/// `Degraded(ErasureBudget)`, while a genuinely matching (if lossy)
/// flow still correlates.
#[test]
fn blown_erasure_budget_degrades_instead_of_clearing() {
    use stepstone_core::DecodeOptions;
    use stepstone_monitor::DegradeReason;

    let n = 400;
    let original = interactive(n, 11);
    let marker = IpdWatermarker::new(WatermarkKey::new(11 ^ 0xABC), WatermarkParams::small());
    let watermark = Watermark::random(8, &mut WatermarkKey::new(11).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    let correlator = WatermarkCorrelator::new(
        marker,
        watermark,
        TimeDelta::from_secs(2),
        Algorithm::GreedyPlus,
    )
    .with_decode(DecodeOptions::robust(40));
    let mut monitor = Monitor::new(MonitorConfig::default().with_shards(1));
    monitor.register_upstream(UpstreamId(0), correlator.bind(&original, &marked).unwrap());

    // Flow 0: the marked flow with a 30-packet burst deleted. The burst
    // spans far more than Δ, so the affected slots have genuinely empty
    // matching sets — erasures within budget; the pair must still
    // correlate on the surviving bits.
    let lossy = Flow::from_packets(
        marked
            .packets()
            .iter()
            .enumerate()
            .filter(|(i, _)| !(100..130).contains(i))
            .map(|(_, &p)| p),
    )
    .unwrap();
    for &p in lossy.packets() {
        monitor.ingest(FlowId(0), p);
    }
    // Flow 1: an unrelated flow — its erasure demand dwarfs the budget.
    let decoy = interactive(n + 40, 999);
    for &p in decoy.packets() {
        monitor.ingest(FlowId(1), p);
    }

    let report = monitor.finish();
    assert_one_terminal_verdict_per_pair(&report.verdicts, 2);
    let mut correlated = 0;
    let mut degraded = 0;
    for v in &report.verdicts {
        match v {
            Verdict::Correlated { pair, .. } => {
                assert_eq!(pair.flow, FlowId(0), "only the lossy copy correlates");
                correlated += 1;
            }
            Verdict::Degraded { pair, reason } => {
                assert_eq!(pair.flow, FlowId(1), "only the decoy degrades");
                assert!(
                    matches!(reason, DegradeReason::ErasureBudget { erasures, .. } if *erasures > 40),
                    "unexpected degrade reason {reason}"
                );
                degraded += 1;
            }
            Verdict::Cleared { pair, .. } => {
                panic!("pair {pair:?} cleared despite a blown erasure budget")
            }
            Verdict::Evicted { .. } => {}
        }
    }
    assert_eq!((correlated, degraded), (1, 1), "{:?}", report.verdicts);
}
