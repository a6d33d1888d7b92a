//! The online correlation engine: registry, shard pool, verdicts.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stepstone_core::{BackendKind, BoundCorrelator, ChainState, Correlation, Gate};
use stepstone_flow::{Packet, SlidingWindow, Timestamp};
use stepstone_telemetry::{span, Registry};

use crate::config::MonitorConfig;
use crate::ids::{FlowId, PairId, UpstreamId};
use crate::metrics::EngineMetrics;
use crate::queue::{shard_queue, ShardGauges, ShardSender};
use crate::stats::MonitorStats;
use crate::supervisor::{Completion, DecodeJob, Supervisor, WorkerEvent};
use crate::verdict::{DegradeReason, Verdict};

/// Ingests evict-sweep cadence: with an idle timeout configured, every
/// this many accepted packets the engine sweeps for idle flows.
const EVICT_SWEEP_EVERY: u64 = 1024;

/// Per-pair decode bookkeeping, owned by the control side.
#[derive(Debug, Clone, Default)]
struct PairState {
    /// A decode job for this pair is queued or running.
    in_flight: bool,
    /// The flow's push count covered by the last scheduled decode.
    decoded_through: u64,
    /// Completed decodes.
    decodes: u32,
    /// Hamming distance of the most recent completed decode.
    last_hamming: Option<u32>,
    /// A robust decode reported erasure demand beyond the budget. Once
    /// set, the pair can never end `Cleared` — the graceful-degradation
    /// ladder turns every would-be clean negative into
    /// [`DegradeReason::ErasureBudget`].
    budget_blown: bool,
    /// Erasures reported by the most recent budget-blowing decode.
    erasures: u32,
    /// Decided-bit confidence of that decode (percent).
    confidence: u8,
    /// A terminal verdict was emitted for the pair — latched
    /// `Correlated`, cleared early, shed, or stall-degraded. The pair
    /// is done: no more scheduling, and the shutdown sweep skips it.
    resolved: bool,
    /// The backend's decision-gate chain through this flow
    /// (`CorrelatorBackend::gate`), advanced at each due boundary.
    chain: ChainState,
}

impl PairState {
    /// Folds one robust decode outcome into the ladder state; a no-op
    /// for strict decodes (`outcome.robust` is `None`).
    fn note_robust(&mut self, outcome: &Correlation) {
        if let Some(r) = outcome.robust {
            if r.budget_blown {
                self.budget_blown = true;
                self.erasures = r.erasures;
                self.confidence = r.confidence_pct;
            }
        }
    }

    /// The terminal verdict for a pair ending without a correlation:
    /// `Cleared` when every decode stayed within the erasure budget,
    /// `Degraded` otherwise — a blown budget means the decodes could
    /// not see enough of the flow to vouch for a clean negative.
    fn terminal_negative(&self, pair: PairId) -> Verdict {
        if self.budget_blown {
            Verdict::Degraded {
                pair,
                reason: DegradeReason::ErasureBudget {
                    erasures: self.erasures,
                    confidence: self.confidence,
                },
            }
        } else {
            Verdict::Cleared {
                pair,
                hamming: self.last_hamming,
                decodes: self.decodes,
            }
        }
    }
}

/// One tracked suspicious flow.
struct Suspect {
    window: SlidingWindow,
    /// The flow's pairs, sorted by upstream id. Every flow pairs with
    /// every upstream, so a flat vector is dense, and scheduling walks
    /// it in step with the upstream registry instead of searching it.
    pairs: Vec<(UpstreamId, PairState)>,
}

impl Suspect {
    fn pair(&self, upstream: UpstreamId) -> Option<&PairState> {
        let at = self
            .pairs
            .binary_search_by_key(&upstream, |&(id, _)| id)
            .ok()?;
        Some(&self.pairs[at].1)
    }

    fn pair_mut(&mut self, upstream: UpstreamId) -> Option<&mut PairState> {
        let at = self
            .pairs
            .binary_search_by_key(&upstream, |&(id, _)| id)
            .ok()?;
        Some(&mut self.pairs[at].1)
    }
}

/// One registered upstream: its correlator plus what scheduling needs
/// from it, computed once at registration.
struct Watched {
    correlator: Arc<BoundCorrelator>,
    /// The window length a pair needs before decoding
    /// ([`Monitor::min_window_for`]).
    min_window: usize,
}

/// The final report returned by [`Monitor::finish`].
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Verdicts not yet drained, including the terminal `Cleared`
    /// verdicts emitted during the flush (pair order, deterministic).
    pub verdicts: Vec<Verdict>,
    /// Final counter snapshot.
    pub stats: MonitorStats,
}

/// The single-threaded control half of the engine: flow registry, pair
/// bookkeeping, verdict buffer and counters. Split from [`Monitor`] so
/// completion pumping can run while a shard sender is borrowed (the
/// borrow is disjoint field-by-field), keeping the shutdown flush
/// deadlock-free.
struct Control {
    suspects: HashMap<FlowId, Suspect>,
    /// Pairs whose flow was evicted while a decode was in flight; kept
    /// so the completion still resolves to a terminal verdict.
    orphans: HashMap<PairId, PairState>,
    /// Which backend decodes each registered upstream, so terminal
    /// verdicts can be counted under their backend label without
    /// touching the correlator `Arc`s.
    backends: BTreeMap<UpstreamId, BackendKind>,
    /// Verdicts awaiting [`Monitor::drain_verdicts`]. Grows by one per
    /// pair/flow lifecycle event and is bounded by the number of live
    /// pairs between drains; all growth is audited through `emit`.
    // #[bounded(via = "emit")]
    verdicts: VecDeque<Verdict>,
    /// Pairs with a queued or running decode, orphans included. Kept in
    /// step with every `in_flight` flip, so the shutdown drain waits on
    /// a count instead of scanning every pair.
    in_flight: usize,
    clock: Option<Timestamp>,
    /// Engine counters live in the telemetry registry; `Control`
    /// increments these pre-resolved handles and
    /// [`Monitor::stats`] reads them back, so the stats snapshot and
    /// the `/metrics` endpoint share one source of truth.
    metrics: Arc<EngineMetrics>,
}

impl Control {
    fn new(metrics: Arc<EngineMetrics>) -> Self {
        Control {
            suspects: HashMap::new(),
            orphans: HashMap::new(),
            backends: BTreeMap::new(),
            verdicts: VecDeque::new(),
            in_flight: 0,
            clock: None,
            metrics,
        }
    }

    /// Drains worker events without blocking: completions update pair
    /// state and may emit `Correlated`; death notices account the lost
    /// job and hand the shard to the supervisor, which also gets its
    /// respawn poll here (the pump runs on every ingest).
    fn pump(&mut self, done_rx: &Receiver<WorkerEvent>, supervisor: &mut Supervisor) {
        while let Ok(event) = done_rx.try_recv() {
            self.handle(event, supervisor);
        }
        supervisor.respawn_due(false);
    }

    /// Blocks until `pair` has no queued or running decode, handling
    /// worker events (and respawning dead workers) as they arrive.
    /// Terminates: every accepted job yields a completion or a death
    /// notice, and both clear the pair's `in_flight`.
    fn await_landing(
        &mut self,
        pair: PairId,
        done_rx: &Receiver<WorkerEvent>,
        supervisor: &mut Supervisor,
    ) {
        while self
            .suspects
            .get(&pair.flow)
            .and_then(|s| s.pair(pair.upstream))
            .is_some_and(|state| state.in_flight)
        {
            match done_rx.recv_timeout(Duration::from_millis(1)) {
                Ok(event) => self.handle(event, supervisor),
                Err(RecvTimeoutError::Timeout) => {}
                // The supervisor holds a sender for the engine's life;
                // without one no completion can ever arrive.
                Err(RecvTimeoutError::Disconnected) => return,
            }
            supervisor.respawn_due(false);
        }
    }

    /// Applies one worker event: a completion updates its pair and may
    /// emit `Correlated`; a death notice accounts the lost job and
    /// hands the shard to the supervisor.
    fn handle(&mut self, event: WorkerEvent, supervisor: &mut Supervisor) {
        match event {
            WorkerEvent::Done(done) => self.absorb(done),
            WorkerEvent::Died { shard, inflight } => {
                supervisor.note_death(shard);
                let Some(pair) = inflight else { return };
                // The job died dequeued-but-incomplete; account it so
                // `dequeued == decodes_run + jobs_lost` holds.
                self.metrics.jobs_lost.inc();
                if let Some(state) = self
                    .suspects
                    .get_mut(&pair.flow)
                    .and_then(|s| s.pair_mut(pair.upstream))
                {
                    // The pair gets another chance: new packets (or the
                    // shutdown flush) schedule a fresh decode.
                    if std::mem::take(&mut state.in_flight) {
                        self.in_flight -= 1;
                    }
                } else if self.orphans.remove(&pair).is_some() {
                    // Evicted mid-decode and the decode died with its
                    // worker: degraded is the terminal word.
                    self.in_flight -= 1;
                    self.emit(Verdict::Degraded {
                        pair,
                        reason: DegradeReason::WorkerLost,
                    });
                }
            }
        }
    }

    /// Applies one completed decode to its pair.
    fn absorb(&mut self, done: Completion) {
        let Completion { pair, outcome } = done;
        let state = match self.suspects.get_mut(&pair.flow) {
            Some(s) => s.pair_mut(pair.upstream),
            None => None,
        };
        if let Some(r) = outcome.robust {
            self.metrics.decode_erasures.add(u64::from(r.erasures));
        }
        if let Some(state) = state {
            if std::mem::take(&mut state.in_flight) {
                self.in_flight -= 1;
            }
            state.decodes += 1;
            state.last_hamming = outcome.hamming;
            state.note_robust(&outcome);
            if outcome.correlated && !state.resolved {
                state.resolved = true;
                self.metrics.pairs_latched.inc();
                // Latched pairs stop being candidates.
                self.metrics.pairs_active.dec();
                self.emit(Verdict::Correlated {
                    pair,
                    hamming: outcome.hamming.unwrap_or(0),
                    cost: outcome.cost + outcome.matching_cost,
                });
            }
        } else if let Some(mut state) = self.orphans.remove(&pair) {
            // The flow was evicted mid-decode: this completion is
            // the pair's terminal word. (The pair left the active
            // gauge when its flow was evicted.)
            self.in_flight -= 1;
            state.decodes += 1;
            state.last_hamming = outcome.hamming;
            state.note_robust(&outcome);
            if outcome.correlated {
                self.metrics.pairs_latched.inc();
                self.emit(Verdict::Correlated {
                    pair,
                    hamming: outcome.hamming.unwrap_or(0),
                    cost: outcome.cost + outcome.matching_cost,
                });
            } else {
                self.emit(state.terminal_negative(pair));
            }
        }
    }

    /// Books a decode job a shard queue accepted for `pair`, covering
    /// its flow through push count `pushed`.
    fn launched(&mut self, pair: PairId, pushed: u64) {
        self.metrics.decodes_scheduled.inc();
        if let Some(state) = self
            .suspects
            .get_mut(&pair.flow)
            .and_then(|s| s.pair_mut(pair.upstream))
        {
            if !state.in_flight {
                self.in_flight += 1;
            }
            state.in_flight = true;
            state.decoded_through = pushed;
        }
    }

    /// Emits a terminal `Degraded` verdict for a live, unresolved pair.
    fn degrade_pair(&mut self, pair: PairId, reason: DegradeReason) {
        let Some(state) = self
            .suspects
            .get_mut(&pair.flow)
            .and_then(|s| s.pair_mut(pair.upstream))
        else {
            return;
        };
        if state.resolved {
            return;
        }
        state.resolved = true;
        self.metrics.pairs_active.dec();
        if matches!(reason, DegradeReason::Shed) {
            self.metrics.pairs_shed.inc();
        }
        self.emit(Verdict::Degraded { pair, reason });
    }

    /// Sheds the lowest-priority pair — unresolved, not in flight, and
    /// with the fewest packets in its flow window (ties broken by pair
    /// id for determinism) — emitting a terminal `Degraded` verdict.
    /// No-op if every pair is resolved or mid-decode.
    fn shed_lowest_priority(&mut self) {
        let mut victim: Option<(usize, FlowId, UpstreamId)> = None;
        for (&flow, suspect) in &self.suspects {
            let len = suspect.window.len();
            for &(upstream, ref state) in &suspect.pairs {
                if state.resolved || state.in_flight {
                    continue;
                }
                let better = match victim {
                    None => true,
                    Some((best_len, best_flow, best_upstream)) => {
                        len < best_len
                            || (len == best_len && (flow, upstream) < (best_flow, best_upstream))
                    }
                };
                if better {
                    victim = Some((len, flow, upstream));
                }
            }
        }
        if let Some((_, flow, upstream)) = victim {
            self.degrade_pair(PairId { upstream, flow }, DegradeReason::Shed);
        }
    }

    /// The single choke point through which the verdict queue grows.
    fn emit(&mut self, verdict: Verdict) {
        self.metrics.count_verdict(&verdict);
        // Correlated/Cleared are the per-backend decode outcomes;
        // Evicted is per-flow and Degraded is an engine-health event,
        // neither attributable to a backend's decision quality.
        let attributed = match &verdict {
            Verdict::Correlated { pair, .. } => Some((pair.upstream, true)),
            Verdict::Cleared { pair, .. } => Some((pair.upstream, false)),
            Verdict::Evicted { .. } | Verdict::Degraded { .. } => None,
        };
        if let Some((upstream, correlated)) = attributed {
            if let Some(&backend) = self.backends.get(&upstream) {
                self.metrics.count_backend_verdict(backend, correlated);
            }
        }
        self.verdicts.push_back(verdict);
    }
}

/// The online multi-flow correlation engine.
///
/// A `Monitor` owns a pool of decode worker threads ("shards"). The
/// caller registers watermarked upstream flows once, then feeds a
/// time-ordered stream of `(FlowId, Packet)` events through
/// [`ingest`](Monitor::ingest); the engine windows each suspicious
/// flow, schedules (upstream, suspicious) pair decodes onto the shard
/// owning the pair, and surfaces results through
/// [`drain_verdicts`](Monitor::drain_verdicts). Ingest never blocks:
/// when a shard queue is full the decode attempt is dropped and
/// counted, and the pair retries as more packets arrive.
///
/// # Fault tolerance
///
/// A worker panic during a decode is contained: the panic is caught,
/// counted in [`MonitorStats::worker_panics`], and reported as a
/// failed (non-correlating) decode, so the owning pair still resolves
/// to a terminal verdict instead of wedging [`finish`](Monitor::finish).
///
/// A panic that kills the worker thread outright is survived: the
/// supervisor respawns the shard's worker with capped exponential
/// backoff ([`MonitorStats::worker_restarts`]), the job that died with
/// the worker is accounted ([`MonitorStats::jobs_lost`]) and its pair
/// released to retry, and queued jobs survive because the queue's
/// receiving side outlives the worker. Under sustained backpressure the
/// engine can shed its lowest-priority pair
/// ([`MonitorConfig::shed_after_drops`]), and an optional watchdog
/// ([`MonitorConfig::stall_timeout`]) flags wedged shards so shutdown
/// degrades their pairs instead of hanging. Every such giving-up is an
/// explicit [`Verdict::Degraded`] — the engine never silently drops a
/// registered pair.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Monitor {
    config: MonitorConfig,
    upstreams: BTreeMap<UpstreamId, Watched>,
    control: Control,
    shards: Vec<ShardSender<DecodeJob>>,
    /// Gauge handles outliving `shards`, so the final stats snapshot in
    /// [`finish`](Monitor::finish) still sees per-shard depths/drops
    /// after the senders are dropped to release the workers.
    gauges: Vec<ShardGauges>,
    done_rx: Receiver<WorkerEvent>,
    /// Owns worker threads and restart policy. Declared after `shards`
    /// and `done_rx` so that on a plain drop the senders and the done
    /// receiver go first, letting workers exit before the supervisor's
    /// drop joins them.
    supervisor: Supervisor,
    /// Accepted packets since start, kept as a plain integer purely to
    /// pace the idle-eviction sweep without summing counter stripes.
    sweep_tick: u64,
    /// Consecutive decode attempts dropped on full queues; trips the
    /// shedding policy when it reaches `config.shed_after_drops`.
    drop_streak: u64,
}

impl Monitor {
    /// Creates an engine and spawns its shard workers.
    ///
    /// # Panics
    ///
    /// Panics if any sizing field of `config` is zero or a worker
    /// thread cannot be spawned.
    pub fn new(config: MonitorConfig) -> Self {
        config.validate();
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let metrics = Arc::new(EngineMetrics::new(registry));
        // The done channel is intentionally unbounded: its occupancy is
        // bounded by construction — at most (queue_capacity + 1) jobs
        // per shard are ever in flight, each contributing one
        // completion (or one death notice), and the control side drains
        // on every ingest.
        // lint: allow(bounded_queue) occupancy bounded by shards * (queue_capacity + 1) in-flight jobs
        let (done_tx, done_rx) = std::sync::mpsc::channel::<WorkerEvent>();
        let mut shards = Vec::with_capacity(config.shards);
        let mut receivers = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let (tx, rx) = shard_queue::<DecodeJob>(config.queue_capacity);
            shards.push(tx);
            receivers.push(rx);
        }
        let gauges: Vec<ShardGauges> = shards.iter().map(ShardSender::gauges).collect();
        for (shard, shard_gauges) in gauges.iter().enumerate() {
            metrics.register_shard(shard, shard_gauges);
        }
        let supervisor = Supervisor::new(
            &config,
            Arc::clone(&metrics),
            receivers,
            gauges.clone(),
            done_tx,
        );
        Monitor {
            config,
            upstreams: BTreeMap::new(),
            control: Control::new(metrics),
            shards,
            gauges,
            done_rx,
            supervisor,
            sweep_tick: 0,
            drop_streak: 0,
        }
    }

    /// The telemetry registry this engine publishes into — hand it to a
    /// [`MetricsServer`](stepstone_telemetry::MetricsServer) to expose
    /// the engine's counters, queue gauges, and decode-latency
    /// histogram over HTTP.
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.control.metrics.registry)
    }

    /// Registers a watermarked upstream flow. Every tracked suspicious
    /// flow — current and future — becomes a candidate pair with it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered.
    pub fn register_upstream(&mut self, id: UpstreamId, correlator: BoundCorrelator) {
        self.control.backends.insert(id, correlator.backend());
        let watched = Watched {
            min_window: self.min_window_for(&correlator),
            correlator: Arc::new(correlator),
        };
        let previous = self.upstreams.insert(id, watched);
        assert!(previous.is_none(), "upstream {id} registered twice");
    }

    /// Feeds one packet of suspicious flow `flow` into the engine.
    /// Returns `true` if the packet was accepted into the flow's
    /// window; `false` if it was rejected as out-of-order (counted in
    /// [`MonitorStats::packets_rejected`]).
    ///
    /// Never blocks: decode scheduling uses `try_push` and drops on a
    /// full shard queue.
    pub fn ingest(&mut self, flow: FlowId, packet: Packet) -> bool {
        self.control.pump(&self.done_rx, &mut self.supervisor);
        self.control.clock = Some(match self.control.clock {
            Some(t) if t >= packet.timestamp() => t,
            _ => packet.timestamp(),
        });
        let window_capacity = self.config.window_capacity;
        let upstreams = self.upstreams.len();
        // `metrics` and `suspects` are disjoint fields of `control`,
        // so the closure can bump the gauge exactly when the entry is
        // inserted — no second map lookup on the hot path.
        let metrics = &self.control.metrics;
        let suspect = self.control.suspects.entry(flow).or_insert_with(|| {
            metrics.flows_active.inc();
            Suspect {
                window: SlidingWindow::new(window_capacity),
                // The flow pairs with every upstream on this packet.
                pairs: Vec::with_capacity(upstreams),
            }
        });
        if suspect.window.push(packet).is_err() {
            self.control.metrics.packets_rejected.inc();
            return false;
        }
        self.control.metrics.packets_ingested.inc();
        // A plain local tick, not `packets_ingested.get()`: summing the
        // counter stripes on every packet is measurable at line rate.
        self.sweep_tick = self.sweep_tick.wrapping_add(1);
        self.schedule_pairs(flow);
        if self.config.idle_timeout.is_some() && self.sweep_tick.is_multiple_of(EVICT_SWEEP_EVERY) {
            if let Some(now) = self.control.clock {
                self.evict_idle(now);
            }
        }
        true
    }

    /// Moves verdicts emitted since the last drain to the caller,
    /// oldest first. Non-blocking.
    pub fn drain_verdicts(&mut self) -> Vec<Verdict> {
        self.control.pump(&self.done_rx, &mut self.supervisor);
        self.control.verdicts.drain(..).collect()
    }

    /// Evicts suspicious flows idle longer than the configured timeout
    /// as of stream time `now`, emitting `Evicted` (and terminal
    /// `Cleared`) verdicts. Returns the number of flows evicted.
    /// No-op when no idle timeout is configured.
    pub fn evict_idle(&mut self, now: Timestamp) -> usize {
        let Some(timeout) = self.config.idle_timeout else {
            return 0;
        };
        // Clone the registry handle so the span guard borrows a local,
        // not `self.control` (which `emit` below needs mutably).
        let registry = Arc::clone(&self.control.metrics.registry);
        span!(registry.spans(), "evict_sweep");
        let expired: Vec<(FlowId, stepstone_flow::TimeDelta)> = self
            .control
            .suspects
            .iter()
            .filter_map(|(&id, s)| {
                let idle = s.window.idle_since(now)?;
                (idle > timeout).then_some((id, idle))
            })
            .collect();
        for &(id, idle) in &expired {
            let Some(suspect) = self.control.suspects.remove(&id) else {
                continue;
            };
            self.control.metrics.flows_evicted.inc();
            self.control.metrics.flows_active.dec();
            for (upstream, state) in suspect.pairs {
                let pair = PairId { upstream, flow: id };
                if state.resolved {
                    // Already has its terminal verdict (latched, shed,
                    // or degraded) and already left the active gauge.
                    continue;
                }
                // Non-resolved pairs leave the active gauge with their
                // flow.
                self.control.metrics.pairs_active.dec();
                if state.in_flight {
                    // Let the in-flight decode resolve the pair.
                    self.control.orphans.insert(pair, state);
                } else {
                    // Terminal even when never decoded: an eviction
                    // must not silently drop a registered pair. A pair
                    // whose robust decodes blew the erasure budget ends
                    // `Degraded` here, never falsely `Cleared`.
                    self.control.emit(state.terminal_negative(pair));
                }
            }
            self.control.emit(Verdict::Evicted { flow: id, idle });
        }
        expired.len()
    }

    /// A point-in-time snapshot of the engine counters, assembled by
    /// reading the telemetry registry handles back — the same values
    /// `/metrics` renders.
    pub fn stats(&self) -> MonitorStats {
        let m = &self.control.metrics;
        let flows_active = usize::try_from(m.flows_active.get()).unwrap_or(0);
        let pairs_active = usize::try_from(m.pairs_active.get()).unwrap_or(0);
        // The incrementally-maintained gauges must agree with the
        // control state they mirror; recompute the truth in debug
        // builds to catch any missed transition.
        debug_assert_eq!(flows_active, self.control.suspects.len());
        debug_assert_eq!(
            pairs_active,
            self.control
                .suspects
                .values()
                .map(|s| s.pairs.iter().filter(|(_, p)| !p.resolved).count())
                .sum::<usize>()
        );
        debug_assert_eq!(
            self.control.in_flight,
            self.control.orphans.len()
                + self
                    .control
                    .suspects
                    .values()
                    .map(|s| s.pairs.iter().filter(|(_, p)| p.in_flight).count())
                    .sum::<usize>()
        );
        MonitorStats {
            packets_ingested: m.packets_ingested.get(),
            packets_rejected: m.packets_rejected.get(),
            flows_active,
            flows_evicted: m.flows_evicted.get(),
            pairs_active,
            pairs_latched: m.pairs_latched.get(),
            pairs_cleared_early: m.pairs_cleared_early.get(),
            decodes_scheduled: m.decodes_scheduled.get(),
            decodes_run: m.decodes_run.get(),
            decodes_skipped: m.decodes_skipped.get(),
            decodes_dropped: self.gauges.iter().map(ShardGauges::dropped).sum(),
            queue_depths: self.gauges.iter().map(ShardGauges::depth).collect(),
            queue_enqueued: self.gauges.iter().map(ShardGauges::enqueued).sum(),
            queue_dequeued: self.gauges.iter().map(ShardGauges::dequeued).sum(),
            worker_panics: m.worker_panics.get(),
            worker_restarts: m.worker_restarts.get(),
            jobs_lost: m.jobs_lost.get(),
            pairs_shed: m.pairs_shed.get(),
            verdicts_emitted: m.verdicts_emitted(),
        }
    }

    /// Flushes and shuts down: runs one final decode for every pair
    /// with undecoded packets, joins the workers, resolves every
    /// remaining pair to a terminal verdict, and returns the undrained
    /// verdicts plus a final stats snapshot.
    ///
    /// Unlike [`ingest`](Monitor::ingest), the flush uses blocking
    /// pushes — at shutdown completeness beats latency. Downed shards
    /// are respawned immediately (no backoff) so their queued work
    /// drains; shards the watchdog flags as stalled get `Degraded`
    /// verdicts for their pending pairs instead of more work.
    pub fn finish(mut self) -> MonitorReport {
        // Bring every downed shard back first: the drain below needs
        // someone to work the queues.
        self.control.pump(&self.done_rx, &mut self.supervisor);
        self.supervisor.respawn_due(true);
        // Let in-flight decodes land first: a pair whose last decode
        // covered only a prefix must still get its full-window flush
        // decode below, and an in-flight completion may latch the pair
        // and make that flush unnecessary. Workers cannot wedge this
        // loop: every accepted job produces a completion even when the
        // decode panics (see supervisor::worker_loop), a dead worker is
        // respawned without backoff, and a stalled shard's pairs are
        // abandoned as `Degraded` once the grace period lapses.
        let drain_started = Instant::now();
        while self.control.in_flight > 0 {
            match self.done_rx.recv_timeout(Duration::from_millis(1)) {
                Ok(event) => self.control.handle(event, &mut self.supervisor),
                Err(RecvTimeoutError::Timeout) => {}
                // The supervisor holds a sender for the engine's life;
                // without one no completion can ever arrive.
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.supervisor.respawn_due(true);
            if let Some(timeout) = self.config.stall_timeout {
                if self.supervisor.any_stalled() && drain_started.elapsed() > timeout * 2 {
                    self.abandon_stalled();
                }
            }
        }
        // Final decode for every unresolved pair that has data beyond
        // its last decode (or was never decoded at all). The flow is
        // complete now, so a gate that is not `Complete` means the pair
        // is unrelated: its decode is skipped, as at a boundary, and
        // the pair falls through to the terminal sweep.
        let flows: Vec<FlowId> = self.control.suspects.keys().copied().collect();
        for flow in flows {
            let Some(suspect) = self.control.suspects.get_mut(&flow) else {
                continue;
            };
            let mut jobs = Vec::new();
            for (upstream, state) in &mut suspect.pairs {
                let upstream = *upstream;
                let Some(watched) = self.upstreams.get(&upstream) else {
                    continue;
                };
                if state.resolved
                    || state.in_flight
                    || suspect.window.len() < watched.min_window
                    || state.decoded_through >= suspect.window.pushed()
                {
                    continue;
                }
                let backend = watched.correlator.as_backend();
                if backend.gate(&suspect.window, &mut state.chain) != Gate::Complete {
                    self.control.metrics.decodes_skipped.inc();
                    continue;
                }
                jobs.push((upstream, Arc::clone(&watched.correlator)));
            }
            if jobs.is_empty() {
                continue;
            }
            // One snapshot serves every upstream's job for this flow.
            // The flow is complete and nothing reads its window again,
            // so the snapshot takes the window's buffer rather than
            // copying it: a flush that decodes many flows at once then
            // needs no new memory for their windows.
            let pushed = suspect.window.pushed();
            let window = Arc::new(suspect.window.take_snapshot());
            for (upstream, correlator) in jobs {
                let pair = PairId { upstream, flow };
                let shard = (pair.shard_hash() % self.shards.len() as u64) as usize;
                if self.supervisor.is_stalled(shard) {
                    // Scheduling onto a wedged shard would hang the
                    // flush; degraded is the honest terminal word.
                    self.control.degrade_pair(pair, DegradeReason::Stalled);
                    continue;
                }
                let job = DecodeJob {
                    pair,
                    correlator,
                    window: Arc::clone(&window),
                };
                // Blocking push: the flush must not drop work. The
                // pump callback keeps draining completions so a full
                // queue and an undrained done stream cannot deadlock —
                // and keeps respawning dead workers, so the queue is
                // always eventually drained; the disjoint
                // `control`/`shards`/`supervisor` borrows make this
                // legal.
                let sender = &self.shards[shard];
                let control = &mut self.control;
                let supervisor = &mut self.supervisor;
                let done_rx = &self.done_rx;
                let accepted = sender
                    .push_blocking(job, || control.pump(done_rx, &mut *supervisor))
                    .is_ok();
                if accepted {
                    self.control.launched(pair, pushed);
                }
                // A push error means the shard's receiver is gone —
                // impossible while the supervisor holds it, but if it
                // ever happens the pair still resolves through the
                // terminal sweep below.
            }
        }
        // Closing the job channels lets workers drain and exit; the
        // supervisor joins them, respawning as needed until every
        // queue is verifiably empty.
        self.shards.clear();
        self.supervisor.drain_to_exit();
        self.control.pump(&self.done_rx, &mut self.supervisor);
        debug_assert!(
            self.control.orphans.is_empty(),
            "all in-flight decodes resolved"
        );
        // Terminal verdicts for everything still undecided, in
        // deterministic (flow, upstream) order.
        let mut remaining: Vec<(FlowId, UpstreamId, PairState)> = Vec::new();
        for (&flow, suspect) in &self.control.suspects {
            for &(upstream, ref state) in &suspect.pairs {
                if !state.resolved {
                    remaining.push((flow, upstream, state.clone()));
                }
            }
        }
        remaining.sort_by_key(|&(flow, upstream, _)| (flow, upstream));
        for (flow, upstream, state) in remaining {
            // The degradation ladder applies to the shutdown sweep too:
            // budget-blown pairs end `Degraded`, not `Cleared`.
            self.control
                .emit(state.terminal_negative(PairId { upstream, flow }));
        }
        let stats = self.stats();
        MonitorReport {
            verdicts: self.control.verdicts.drain(..).collect(),
            stats,
        }
    }

    /// Resolves every pending pair pinned to a stalled shard with a
    /// `Degraded` verdict, releasing the shutdown drain from waiting on
    /// a wedged worker. Idempotent: abandoned pairs are `resolved`, and
    /// a completion that arrives late for one is counted but not
    /// re-emitted.
    fn abandon_stalled(&mut self) {
        let shard_count = self.shards.len() as u64;
        let mut victims: Vec<PairId> = Vec::new();
        for (&flow, suspect) in &self.control.suspects {
            for &(upstream, ref state) in &suspect.pairs {
                let pair = PairId { upstream, flow };
                let shard = (pair.shard_hash() % shard_count) as usize;
                if state.in_flight && !state.resolved && self.supervisor.is_stalled(shard) {
                    victims.push(pair);
                }
            }
        }
        for pair in victims {
            if let Some(state) = self
                .control
                .suspects
                .get_mut(&pair.flow)
                .and_then(|s| s.pair_mut(pair.upstream))
            {
                if std::mem::take(&mut state.in_flight) {
                    self.control.in_flight -= 1;
                }
                state.resolved = true;
            }
            self.control.metrics.pairs_active.dec();
            self.control.emit(Verdict::Degraded {
                pair,
                reason: DegradeReason::Stalled,
            });
        }
        let orphaned: Vec<PairId> = self
            .control
            .orphans
            .keys()
            .copied()
            .filter(|pair| {
                let shard = (pair.shard_hash() % shard_count) as usize;
                self.supervisor.is_stalled(shard)
            })
            .collect();
        for pair in orphaned {
            self.control.orphans.remove(&pair);
            self.control.in_flight -= 1;
            self.control.emit(Verdict::Degraded {
                pair,
                reason: DegradeReason::Stalled,
            });
        }
    }

    /// The window size a pair needs before decoding is worthwhile: a
    /// complete matching needs at least as many suspicious packets as
    /// upstream packets, clamped to what the window can ever hold.
    ///
    /// Under `--decode robust` the requirement relaxes by the erasure
    /// budget: deletions make a genuine downstream flow *shorter* than
    /// its upstream, and the robust decode is built to absorb exactly
    /// that many missing packets.
    fn min_window_for(&self, correlator: &BoundCorrelator) -> usize {
        let decode = correlator.decode_options();
        let full = correlator.upstream().len();
        let needed = if decode.is_robust() {
            full.saturating_sub(decode.erasure_budget as usize)
        } else {
            full
        };
        needed
            .min(self.config.window_capacity)
            .max(self.config.min_window.min(self.config.window_capacity))
            .max(1)
    }

    /// Schedules decodes for `flow`'s pairs that have accrued enough
    /// new packets. Uses `try_push`; a full shard queue counts a drop
    /// and the pair retries on a later packet. Sustained drop streaks
    /// trip the load-shedding policy, if enabled.
    ///
    /// A due window first advances the pair's decision gate. A window
    /// that cannot decide is not decoded: the boundary is marked
    /// covered and counted in `decodes_skipped`. A pair the gate proves
    /// unrelated is resolved `Cleared` on the spot and counted in
    /// `pairs_cleared_early`. Every decoded window shares one snapshot
    /// of the flow's window, taken at most once per call.
    ///
    /// The gates run in a first pass under a single lookup of the flow;
    /// only the pairs whose window can decide reach the second pass,
    /// which queues them.
    fn schedule_pairs(&mut self, flow: FlowId) {
        // First pass, under one lookup of the flow: advance every due
        // pair's gate and collect the pairs whose window can decide.
        // Nothing here touches the worker side, so the flow's entry
        // stays borrowed throughout; both collections stay empty, and
        // unallocated, on the packets that decide nothing.
        let Some(suspect) = self.control.suspects.get_mut(&flow) else {
            return;
        };
        let pushed = suspect.window.pushed();
        let mut due: Vec<(PairId, Arc<BoundCorrelator>)> = Vec::new();
        let mut cleared: Vec<Verdict> = Vec::new();
        // Both the registry and the flow's pairs are sorted by upstream
        // id, so the pair of the k-th upstream is at `slot` or missing.
        for (slot, (&upstream, watched)) in self.upstreams.iter().enumerate() {
            if suspect
                .pairs
                .get(slot)
                .is_none_or(|&(id, _)| id != upstream)
            {
                // A fresh pair enters the active gauge (PairState
                // defaults to unresolved).
                self.control.metrics.pairs_active.inc();
                suspect.pairs.insert(slot, (upstream, PairState::default()));
            }
            let state = &mut suspect.pairs[slot].1;
            if state.resolved
                || (state.in_flight && !self.config.deterministic_schedule)
                || suspect.window.len() < watched.min_window
                || pushed - state.decoded_through < self.config.decode_batch as u64
            {
                continue;
            }
            let pair = PairId { upstream, flow };
            match watched
                .correlator
                .as_backend()
                .gate(&suspect.window, &mut state.chain)
            {
                Gate::Complete => due.push((pair, Arc::clone(&watched.correlator))),
                gate => {
                    // Advance the boundary grid exactly as a decode
                    // would, so every window still decoded is the same
                    // window.
                    state.decoded_through = pushed;
                    if gate == Gate::Pending {
                        self.control.metrics.decodes_skipped.inc();
                    } else {
                        state.resolved = true;
                        self.control.metrics.pairs_active.dec();
                        self.control.metrics.pairs_cleared_early.inc();
                        cleared.push(state.terminal_negative(pair));
                    }
                }
            }
        }
        // Every decoded window shares one snapshot of the flow.
        let snapshot = (!due.is_empty()).then(|| Arc::new(suspect.window.snapshot()));
        for verdict in cleared {
            self.control.emit(verdict);
        }
        let Some(snapshot) = snapshot else {
            return;
        };
        // Second pass: queue the collected decodes.
        for (pair, correlator) in due {
            let Some(state) = self
                .control
                .suspects
                .get(&flow)
                .and_then(|s| s.pair(pair.upstream))
            else {
                continue;
            };
            if state.resolved {
                // Resolved while an earlier pair was queued: shed, or
                // latched by a completion a queue pump absorbed.
                continue;
            }
            if state.in_flight {
                // Deterministic mode keeps at most one job per pair
                // outstanding: wait for the previous decode to land,
                // then re-check, so a latch it reports stops scheduling
                // whatever the worker timing — decoded windows and
                // decode counts are both a pure function of the stream.
                self.control
                    .await_landing(pair, &self.done_rx, &mut self.supervisor);
                let resolved = self
                    .control
                    .suspects
                    .get(&flow)
                    .and_then(|s| s.pair(pair.upstream))
                    .is_none_or(|state| state.resolved);
                if resolved {
                    continue;
                }
            }
            let job = DecodeJob {
                pair,
                correlator,
                window: Arc::clone(&snapshot),
            };
            let shard = (pair.shard_hash() % self.shards.len() as u64) as usize;
            if self.config.deterministic_schedule {
                // Blocking push, as in the shutdown flush: the decoded
                // windows must be a pure function of the event stream,
                // so a full queue stalls ingest (while the pump keeps
                // completions draining) instead of dropping the
                // attempt. The disjoint `control`/`shards`/`supervisor`
                // borrows make the callback legal.
                let sender = &self.shards[shard];
                let control = &mut self.control;
                let supervisor = &mut self.supervisor;
                let done_rx = &self.done_rx;
                let accepted = sender
                    .push_blocking(job, || control.pump(done_rx, &mut *supervisor))
                    .is_ok();
                if accepted {
                    self.control.launched(pair, pushed);
                }
                continue;
            }
            match self.shards[shard].try_push(job) {
                Ok(()) => {
                    self.drop_streak = 0;
                    self.control.launched(pair, pushed);
                }
                Err(_) => {
                    // The drop is already counted by the shard queue;
                    // the pair retries when more packets arrive. A long
                    // enough streak means the engine is oversubscribed,
                    // and shedding one pair beats starving them all.
                    self.drop_streak += 1;
                    if let Some(limit) = self.config.shed_after_drops {
                        if self.drop_streak >= limit {
                            self.drop_streak = 0;
                            self.control.shed_lowest_priority();
                        }
                    }
                }
            }
        }
    }
}
