//! The coordinator: ingest, routing, and cross-process supervision.
//!
//! A [`Cluster`] owns N worker child processes. Packets routed through
//! [`Cluster::route`] are batched per worker and framed over the
//! worker's stdin; one reader thread per child turns its stdout frames
//! into events on a bounded channel the coordinator drains between
//! routes. Flow → worker assignment is sticky: the consistent-hash
//! [`ring`](crate::ring) is consulted when a flow is first seen and
//! again only when its owner dies.
//!
//! Supervision extends the engine's single-process contract across the
//! process boundary:
//!
//! * a worker that closes its pipe, breaks a frame, or goes silent past
//!   the stall deadline is killed and declared dead;
//! * its unacked in-flight batches are counted lost (`batches_lost` /
//!   `packets_lost` — the cluster-level analogue of the engine's
//!   `jobs_lost`), never silently forgotten;
//! * its flows are rehashed onto the survivors and announced with
//!   `Rebalance` frames; packets for those flows buffered after the
//!   death are delivered to the new owner, not dropped;
//! * the slot respawns with capped exponential backoff and a bumped
//!   generation; frames from a previous life are discarded by
//!   generation tag;
//! * at [`finish`](Cluster::finish) every candidate pair that never
//!   produced a terminal verdict is backfilled with
//!   `Degraded(WorkerLost)`, so the cluster reports exactly one
//!   terminal verdict per pair no matter what died when.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stepstone_flow::Packet;
use stepstone_monitor::{DegradeReason, FlowId, PairId, UpstreamId, Verdict};
use stepstone_telemetry::{Counter, Gauge, Registry};

use crate::message::{BatchEntry, Message, WireStats, MAX_BATCH_ENTRIES, MAX_REBALANCE_FLOWS};
use crate::ring::HashRing;
use crate::wire::WireError;

/// Supervision runs every this many routed packets (plus at finish);
/// amortises the clock read and slot scan off the packet path.
const TICK_EVERY: u64 = 64;

/// Events a reader thread reports about one worker, tagged with the
/// generation of the child that produced them so frames from a dead
/// incarnation cannot be attributed to its replacement.
enum Event {
    Msg(u32, Message),
    Closed(u32),
}

/// How a cluster run can fail outright. Worker deaths are not errors —
/// they are accounted and survived — so this only covers coordinator-
/// side impossibilities.
#[derive(Debug)]
pub enum ClusterError {
    /// Spawning a worker process failed at the OS level.
    Spawn(std::io::Error),
    /// A spawned child was missing its stdin/stdout pipe.
    Pipe(&'static str),
    /// Encoding an outbound frame failed (a list exceeded its cap).
    Wire(WireError),
    /// The configuration was unusable.
    Config(&'static str),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Spawn(e) => write!(f, "failed to spawn worker: {e}"),
            ClusterError::Pipe(which) => write!(f, "worker child missing {which} pipe"),
            ClusterError::Wire(e) => write!(f, "outbound frame error: {e}"),
            ClusterError::Config(why) => write!(f, "bad cluster config: {why}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<WireError> for ClusterError {
    fn from(e: WireError) -> Self {
        ClusterError::Wire(e)
    }
}

/// Configuration for [`Cluster::spawn`].
#[derive(Clone)]
pub struct ClusterConfig {
    /// Worker executable; every worker runs the same argv and learns
    /// its slot index from the `Hello` handshake.
    pub program: std::path::PathBuf,
    /// Arguments passed to each worker.
    pub args: Vec<String>,
    /// How many worker slots to run.
    pub workers: u32,
    /// Opaque spec bytes handed to every worker's monitor factory.
    pub spec: Vec<u8>,
    /// Upstream ids in the corpus, for terminal-verdict backfill.
    pub upstreams: Vec<u64>,
    /// Packets per `Batch` frame.
    pub batch_size: usize,
    /// Ping cadence per worker.
    pub heartbeat: Duration,
    /// Silence longer than this marks a hello-acked worker dead.
    pub stall_after: Duration,
    /// Silence allowed before `HelloAck` (corpus rebuild takes time).
    pub handshake_deadline: Duration,
    /// Base delay before respawning a dead slot; doubles per failure.
    pub respawn_backoff: Duration,
    /// Ceiling for the respawn backoff.
    pub respawn_backoff_cap: Duration,
    /// How long `finish` waits for acks and reports before giving up
    /// on a worker and counting its remaining in-flight work lost.
    pub shutdown_deadline: Duration,
    /// Metrics registry; cluster counters and per-worker snapshots are
    /// registered here when present.
    pub registry: Option<Arc<Registry>>,
    /// Deterministic chaos: SIGKILL worker `.0` right after the
    /// `.1`-th routed packet. Exercises the supervision path in tests
    /// without racing an external `kill`.
    pub kill_after: Option<(u32, u64)>,
}

impl ClusterConfig {
    /// A config with defaults tuned for the replay harness.
    pub fn new(program: std::path::PathBuf, workers: u32) -> Self {
        ClusterConfig {
            program,
            args: Vec::new(),
            workers,
            spec: Vec::new(),
            upstreams: Vec::new(),
            batch_size: 256,
            heartbeat: Duration::from_millis(250),
            stall_after: Duration::from_secs(5),
            handshake_deadline: Duration::from_secs(30),
            respawn_backoff: Duration::from_millis(50),
            respawn_backoff_cap: Duration::from_secs(1),
            shutdown_deadline: Duration::from_secs(30),
            registry: None,
            kill_after: None,
        }
    }
}

/// Capped exponential backoff after `failures` consecutive deaths —
/// the supervisor's respawn schedule, shared with the `repro matrix`
/// orchestrator so cell retries pace themselves the same way.
pub fn backoff(base: Duration, cap: Duration, failures: u32) -> Duration {
    base.saturating_mul(1u32 << failures.min(10)).min(cap)
}

/// Coordinator-level counters. These sit one level above the engine's
/// `MonitorStats`: the conservation identity here is
/// `packets_routed == packets_acked + packets_rejected + packets_lost`
/// (and the batch-level equivalent), with nothing in flight once
/// [`Cluster::finish`] returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Worker slots configured.
    pub workers: u32,
    /// Batches framed onto worker stdin.
    pub batches_sent: u64,
    /// Batches acknowledged by sequence number.
    pub batches_acked: u64,
    /// Batches that died with their worker before an ack.
    pub batches_lost: u64,
    /// Packets handed to [`Cluster::route`].
    pub packets_routed: u64,
    /// Packets a worker accepted into its engine.
    pub packets_acked: u64,
    /// Packets a worker rejected (out-of-order for their flow).
    pub packets_rejected: u64,
    /// Packets lost in flight with a worker death, or routed while no
    /// worker was alive to take them.
    pub packets_lost: u64,
    /// Worker deaths detected (pipe closed, frame error, or stall).
    pub worker_deaths: u64,
    /// Successful respawns after a death.
    pub respawns: u64,
    /// Flows rehashed onto survivors after deaths.
    pub flows_rehashed: u64,
    /// Verdicts received from workers (before dedupe).
    pub verdicts_streamed: u64,
    /// Duplicate terminal verdicts discarded (first one wins).
    pub verdicts_deduped: u64,
    /// Terminal verdicts backfilled as `Degraded(WorkerLost)`.
    pub verdicts_backfilled: u64,
}

impl ClusterStats {
    /// The cross-process conservation identity: every routed packet and
    /// sent batch is acked, rejected, or counted lost.
    pub fn conservation_holds(&self) -> bool {
        self.batches_sent == self.batches_acked + self.batches_lost
            && self.packets_routed == self.packets_acked + self.packets_rejected + self.packets_lost
    }
}

impl std::fmt::Display for ClusterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cluster: {} workers", self.workers)?;
        writeln!(
            f,
            "  batches  sent {} = acked {} + lost {}",
            self.batches_sent, self.batches_acked, self.batches_lost
        )?;
        writeln!(
            f,
            "  packets  routed {} = acked {} + rejected {} + lost {}",
            self.packets_routed, self.packets_acked, self.packets_rejected, self.packets_lost
        )?;
        writeln!(
            f,
            "  deaths {}  respawns {}  flows rehashed {}",
            self.worker_deaths, self.respawns, self.flows_rehashed
        )?;
        write!(
            f,
            "  verdicts streamed {}  deduped {}  backfilled {}",
            self.verdicts_streamed, self.verdicts_deduped, self.verdicts_backfilled
        )
    }
}

/// What a finished cluster run produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// Exactly one terminal verdict per candidate pair, plus any
    /// `Evicted` notices, in arrival order.
    pub verdicts: Vec<Verdict>,
    /// Coordinator-level counters.
    pub stats: ClusterStats,
    /// Field-wise sum of the final engine counters from every worker
    /// that reported at shutdown.
    pub engine: WireStats,
    /// Final engine counters per slot; `None` for a slot whose last
    /// incarnation died without reporting.
    pub per_worker: Vec<Option<WireStats>>,
}

/// Per-worker telemetry handles, labelled by slot.
struct SlotMetrics {
    up: Arc<Gauge>,
    deaths: Arc<Counter>,
    packets_ingested: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    jobs_lost: Arc<Gauge>,
    verdicts: Arc<Gauge>,
}

/// Cluster-level telemetry handles.
struct Metrics {
    batches_sent: Arc<Counter>,
    batches_acked: Arc<Counter>,
    batches_lost: Arc<Counter>,
    packets_routed: Arc<Counter>,
    packets_acked: Arc<Counter>,
    packets_rejected: Arc<Counter>,
    packets_lost: Arc<Counter>,
    worker_deaths: Arc<Counter>,
    respawns: Arc<Counter>,
    flows_rehashed: Arc<Counter>,
    verdicts_streamed: Arc<Counter>,
    slots: Vec<SlotMetrics>,
}

impl Metrics {
    fn register(registry: &Registry, workers: u32) -> Metrics {
        let slots = (0..workers)
            .map(|w| {
                let label = w.to_string();
                let labels: &[(&str, &str)] = &[("worker", label.as_str())];
                SlotMetrics {
                    up: registry.gauge_with(
                        "cluster_worker_up",
                        labels,
                        "1 while the worker slot has a live child",
                    ),
                    deaths: registry.counter_with(
                        "cluster_worker_deaths_total",
                        labels,
                        "Deaths detected for this worker slot",
                    ),
                    packets_ingested: registry.gauge_with(
                        "cluster_worker_packets_ingested",
                        labels,
                        "Engine packets_ingested from the last heartbeat",
                    ),
                    queue_depth: registry.gauge_with(
                        "cluster_worker_queue_depth",
                        labels,
                        "Engine decode-queue depth from the last heartbeat",
                    ),
                    jobs_lost: registry.gauge_with(
                        "cluster_worker_jobs_lost",
                        labels,
                        "Engine jobs_lost from the last heartbeat",
                    ),
                    verdicts: registry.gauge_with(
                        "cluster_worker_verdicts_emitted",
                        labels,
                        "Engine verdicts_emitted from the last heartbeat",
                    ),
                }
            })
            .collect();
        Metrics {
            // conserve(batch_ledger): batches_sent = batches_acked + batches_lost
            batches_sent: registry
                .counter("cluster_batches_sent_total", "Batches framed to workers"),
            batches_acked: registry.counter(
                "cluster_batches_acked_total",
                "Batches acknowledged by workers",
            ),
            batches_lost: registry.counter(
                "cluster_batches_lost_total",
                "Batches lost with worker deaths",
            ),
            // conserve(packet_ledger): packets_routed = packets_acked + packets_rejected + packets_lost
            packets_routed: registry
                .counter("cluster_packets_routed_total", "Packets routed to workers"),
            packets_acked: registry.counter(
                "cluster_packets_acked_total",
                "Packets a worker accepted into its engine",
            ),
            packets_rejected: registry.counter(
                "cluster_packets_rejected_total",
                "Packets a worker rejected as out-of-order for their flow",
            ),
            packets_lost: registry.counter(
                "cluster_packets_lost_total",
                "Packets lost with worker deaths",
            ),
            worker_deaths: registry.counter(
                "cluster_worker_deaths_detected_total",
                "Worker deaths detected",
            ),
            respawns: registry.counter("cluster_respawns_total", "Worker respawns"),
            flows_rehashed: registry
                .counter("cluster_flows_rehashed_total", "Flows moved to survivors"),
            verdicts_streamed: registry.counter(
                "cluster_verdicts_streamed_total",
                "Verdicts received from workers",
            ),
            slots,
        }
    }
}

/// One worker slot: the live child (if any) plus everything the
/// supervisor knows about it.
struct Slot {
    index: u32,
    generation: u32,
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    reader: Option<JoinHandle<()>>,
    hello_acked: bool,
    /// Packets waiting to fill the next batch for this worker. Survives
    /// a death: the buffered packets follow the flow to its next owner
    /// (or to this slot's next incarnation).
    outbatch: Vec<BatchEntry>,
    /// Sent-but-unacked batches: (seq, packet count).
    pending: VecDeque<(u64, u64)>,
    next_seq: u64,
    next_ping: u64,
    last_heard: Instant,
    last_ping: Instant,
    /// Consecutive deaths since the last successful `HelloAck`.
    failures: u32,
    /// A dead slot may not respawn before this instant.
    down_until: Option<Instant>,
    /// Final engine stats, once the worker reports at shutdown.
    report: Option<WireStats>,
    /// Set once `Shutdown` was framed to this incarnation.
    shutdown_sent: bool,
}

impl Slot {
    /// A slot with no child and all progress counters at zero.
    fn parked(index: u32, now: Instant) -> Slot {
        Slot {
            index,
            generation: 0,
            child: None,
            stdin: None,
            reader: None,
            hello_acked: false,
            outbatch: Vec::new(),
            pending: VecDeque::new(),
            next_seq: 0,
            next_ping: 0,
            last_heard: now,
            last_ping: now,
            failures: 0,
            down_until: None,
            report: None,
            shutdown_sent: false,
        }
    }

    fn alive(&self) -> bool {
        self.child.is_some()
    }
}

/// The coordinator. See the module docs for the full contract.
pub struct Cluster {
    config: ClusterConfig,
    slots: Vec<Slot>,
    ring: HashRing,
    /// Sticky flow → slot assignment, fixed at first sighting and
    /// changed only by a rebalance.
    assignment: HashMap<u64, u32>,
    events_tx: SyncSender<(u32, Event)>,
    events_rx: Receiver<(u32, Event)>,
    /// Reader threads from previous incarnations, reaped at finish.
    graveyard: Vec<JoinHandle<()>>,
    /// First terminal verdict per pair; later duplicates are dropped.
    terminal: HashMap<PairId, Verdict>,
    /// Pair order of first arrival, so reports are deterministic.
    terminal_order: Vec<PairId>,
    evictions: Vec<Verdict>,
    stats: ClusterStats,
    metrics: Option<Metrics>,
}

impl Cluster {
    /// Spawns the worker processes and sends the `Hello` handshakes.
    /// Workers build their monitors asynchronously; routing may begin
    /// immediately (stdin frames queue behind the handshake).
    pub fn spawn(config: ClusterConfig) -> Result<Cluster, ClusterError> {
        if config.workers == 0 {
            return Err(ClusterError::Config("workers must be >= 1"));
        }
        if config.batch_size == 0 || config.batch_size > MAX_BATCH_ENTRIES {
            return Err(ClusterError::Config("batch_size out of range"));
        }
        // Bounded: reader threads block (backpressure) rather than
        // buffering unboundedly if the coordinator falls behind.
        let (events_tx, events_rx) = sync_channel(4096);
        let metrics = config
            .registry
            .as_deref()
            .map(|r| Metrics::register(r, config.workers));
        let now = Instant::now();
        let mut cluster = Cluster {
            slots: Vec::new(),
            ring: HashRing::new(),
            assignment: HashMap::new(),
            events_tx,
            events_rx,
            graveyard: Vec::new(),
            terminal: HashMap::new(),
            terminal_order: Vec::new(),
            evictions: Vec::new(),
            stats: ClusterStats {
                workers: config.workers,
                ..ClusterStats::default()
            },
            metrics,
            config,
        };
        for index in 0..cluster.config.workers {
            let mut slot = Slot::parked(index, now);
            cluster.spawn_child(&mut slot)?;
            cluster.ring.add(index);
            cluster.slots.push(slot);
        }
        Ok(cluster)
    }

    /// Starts (or restarts) the child for a slot and sends `Hello`.
    /// `slot` is held outside `self.slots` while this runs.
    fn spawn_child(&mut self, slot: &mut Slot) -> Result<(), ClusterError> {
        let mut child = Command::new(&self.config.program)
            .args(&self.config.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(ClusterError::Spawn)?;
        let stdin = child.stdin.take().ok_or(ClusterError::Pipe("stdin"))?;
        let stdout = child.stdout.take().ok_or(ClusterError::Pipe("stdout"))?;

        slot.generation += 1;
        slot.hello_acked = false;
        slot.pending.clear();
        slot.next_seq = 0;
        slot.shutdown_sent = false;
        slot.down_until = None;
        let now = Instant::now();
        slot.last_heard = now;
        slot.last_ping = now;

        let generation = slot.generation;
        let index = slot.index;
        let tx = self.events_tx.clone();
        let reader = std::thread::spawn(move || {
            let mut stdout = stdout;
            loop {
                match Message::read_from(&mut stdout) {
                    Ok(Some(msg)) => {
                        if tx.send((index, Event::Msg(generation, msg))).is_err() {
                            return; // coordinator gone
                        }
                    }
                    Ok(None) | Err(_) => {
                        let _ = tx.send((index, Event::Closed(generation)));
                        return;
                    }
                }
            }
        });
        if let Some(old) = slot.reader.take() {
            self.graveyard.push(old);
        }
        slot.reader = Some(reader);

        let mut stdin = stdin;
        let hello = Message::Hello {
            worker: index,
            generation,
            spec: self.config.spec.clone(),
        };
        let hello_ok = hello
            .write_to(&mut stdin)
            .and_then(|()| stdin.flush().map_err(WireError::Io));
        slot.child = Some(child);
        slot.stdin = Some(stdin);
        // If Hello could not be written the child died instantly; the
        // reader's Closed event drives the normal death path.
        if hello_ok.is_ok() {
            if let Some(m) = &self.metrics {
                m.slots[index as usize].up.set(1);
            }
        }
        Ok(())
    }

    /// Routes one packet. Consults the ring on a flow's first sighting;
    /// thereafter the flow sticks to its worker until that worker dies.
    pub fn route(&mut self, flow: FlowId, packet: Packet) -> Result<(), ClusterError> {
        self.pump();
        self.stats.packets_routed += 1;
        if self.stats.packets_routed.is_multiple_of(TICK_EVERY) {
            self.tick();
        }
        if let Some(m) = &self.metrics {
            m.packets_routed.inc();
        }

        let owner = match self.assignment.get(&flow.0) {
            Some(&w) => Some(w),
            None => {
                let chosen = self.ring.owner(flow.0);
                if let Some(w) = chosen {
                    self.assignment.insert(flow.0, w);
                }
                chosen
            }
        };
        match owner {
            None => {
                // No worker alive anywhere: the packet is lost, and the
                // ledger says so.
                self.stats.packets_lost += 1;
                if let Some(m) = &self.metrics {
                    m.packets_lost.inc();
                }
            }
            Some(w) => {
                let slot = &mut self.slots[w as usize];
                slot.outbatch.push(BatchEntry::from_packet(flow, packet));
                if slot.outbatch.len() >= self.config.batch_size {
                    self.flush_slot(w)?;
                }
            }
        }

        // Deterministic chaos: kill the configured worker right after
        // the configured number of routed packets.
        if let Some((victim, after)) = self.config.kill_after {
            if self.stats.packets_routed >= after {
                self.kill_slot(victim);
                self.config.kill_after = None;
            }
        }
        Ok(())
    }

    /// Sends the slot's buffered packets as one batch, if any. A slot
    /// between lives keeps its buffer; the packets are delivered when
    /// the flow's new owner (or the next incarnation) can take them.
    fn flush_slot(&mut self, index: u32) -> Result<(), ClusterError> {
        let slot = &mut self.slots[index as usize];
        if slot.outbatch.is_empty() || !slot.alive() {
            return Ok(());
        }
        let entries = std::mem::take(&mut slot.outbatch);
        let packets = entries.len() as u64;
        let seq = slot.next_seq;
        slot.next_seq += 1;
        let frame = Message::Batch { seq, entries }.encode()?;
        slot.pending.push_back((seq, packets));
        self.stats.batches_sent += 1;
        if let Some(m) = &self.metrics {
            m.batches_sent.inc();
        }
        let slot = &mut self.slots[index as usize];
        let wrote = match slot.stdin.as_mut() {
            Some(stdin) => stdin.write_all(&frame).and_then(|()| stdin.flush()),
            None => return Ok(()),
        };
        if wrote.is_err() {
            // Broken pipe: the worker died under us. Account and move on.
            self.declare_dead(index);
        }
        Ok(())
    }

    /// Drains every queued reader event without blocking.
    fn pump(&mut self) {
        loop {
            match self.events_rx.try_recv() {
                Ok((index, event)) => self.handle_event(index, event),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return,
            }
        }
    }

    fn handle_event(&mut self, index: u32, event: Event) {
        match event {
            Event::Closed(generation) => {
                let (current, reported) = {
                    let slot = &self.slots[index as usize];
                    (
                        generation == slot.generation && slot.alive(),
                        slot.report.is_some(),
                    )
                };
                if current {
                    if reported {
                        // The worker delivered its final `Report` and
                        // exited: a clean shutdown, not a death.
                        self.retire_slot(index);
                    } else {
                        self.declare_dead(index);
                    }
                }
            }
            Event::Msg(generation, msg) => {
                {
                    let slot = &mut self.slots[index as usize];
                    if generation != slot.generation || !slot.alive() {
                        return; // a ghost from a previous life
                    }
                    slot.last_heard = Instant::now();
                }
                #[deny(clippy::wildcard_enum_match_arm)]
                match msg {
                    Message::HelloAck { .. } => {
                        let slot = &mut self.slots[index as usize];
                        slot.hello_acked = true;
                        slot.failures = 0;
                    }
                    Message::BatchAck {
                        seq,
                        accepted,
                        rejected,
                    } => {
                        let slot = &mut self.slots[index as usize];
                        if let Some(pos) = slot.pending.iter().position(|&(s, _)| s == seq) {
                            slot.pending.remove(pos);
                            self.stats.batches_acked += 1;
                            self.stats.packets_acked += accepted as u64;
                            self.stats.packets_rejected += rejected as u64;
                            if let Some(m) = &self.metrics {
                                m.batches_acked.inc();
                                m.packets_acked.add(accepted as u64);
                                m.packets_rejected.add(rejected as u64);
                            }
                        }
                    }
                    Message::Pong { stats, .. } => {
                        if let Some(m) = &self.metrics {
                            let sm = &m.slots[index as usize];
                            sm.packets_ingested.set(stats.packets_ingested as i64);
                            sm.queue_depth.set(stats.queue_depth as i64);
                            sm.jobs_lost.set(stats.jobs_lost as i64);
                            sm.verdicts.set(stats.verdicts_emitted as i64);
                        }
                    }
                    Message::Verdicts(verdicts) => {
                        self.absorb_verdicts(verdicts);
                    }
                    Message::Report { stats, verdicts } => {
                        self.absorb_verdicts(verdicts);
                        self.slots[index as usize].report = Some(stats);
                    }
                    // Coordinator-to-worker frames on a worker's stdout
                    // are protocol noise; ignore rather than bring down
                    // the topology over one confused child. Named
                    // explicitly (not `_`) so a future Message variant
                    // fails to compile until this dispatch decides how
                    // to treat it.
                    Message::Hello { .. }
                    | Message::Batch { .. }
                    | Message::Ping { .. }
                    | Message::Rebalance { .. }
                    | Message::Shutdown => {}
                }
            }
        }
    }

    /// Folds a worker verdict stream into the cluster ledger: terminal
    /// verdicts dedupe first-wins per pair, evictions append.
    fn absorb_verdicts(&mut self, verdicts: Vec<Verdict>) {
        self.stats.verdicts_streamed += verdicts.len() as u64;
        if let Some(m) = &self.metrics {
            m.verdicts_streamed.add(verdicts.len() as u64);
        }
        for v in verdicts {
            match v.pair() {
                None => self.evictions.push(v),
                Some(pair) => match self.terminal.entry(pair) {
                    Entry::Occupied(_) => self.stats.verdicts_deduped += 1,
                    Entry::Vacant(slot) => {
                        slot.insert(v);
                        self.terminal_order.push(pair);
                    }
                },
            }
        }
    }

    /// Periodic supervision: heartbeats, stall detection, respawns.
    fn tick(&mut self) {
        let now = Instant::now();
        for index in 0..self.slots.len() as u32 {
            let alive = self.slots[index as usize].alive();
            if alive {
                let stalled = {
                    let slot = &self.slots[index as usize];
                    let deadline = if slot.hello_acked {
                        self.config.stall_after
                    } else {
                        self.config.handshake_deadline
                    };
                    now.duration_since(slot.last_heard) > deadline
                };
                if stalled {
                    self.declare_dead(index);
                    continue;
                }
                let ping = {
                    let slot = &mut self.slots[index as usize];
                    if slot.hello_acked
                        && !slot.shutdown_sent
                        && now.duration_since(slot.last_ping) >= self.config.heartbeat
                    {
                        slot.last_ping = now;
                        let seq = slot.next_ping;
                        slot.next_ping += 1;
                        Some(seq)
                    } else {
                        None
                    }
                };
                if let Some(seq) = ping {
                    let dead = {
                        let slot = &mut self.slots[index as usize];
                        match (Message::Ping { seq }.encode(), slot.stdin.as_mut()) {
                            (Ok(frame), Some(stdin)) => stdin
                                .write_all(&frame)
                                .and_then(|()| stdin.flush())
                                .is_err(),
                            _ => false,
                        }
                    };
                    if dead {
                        self.declare_dead(index);
                    }
                }
            } else {
                let due = match self.slots[index as usize].down_until {
                    Some(until) => now >= until,
                    None => false,
                };
                if due {
                    self.respawn(index, now);
                }
            }
        }
    }

    /// Brings a dead slot back: new child, new generation, back on the
    /// ring for new flows (old flows stay where the rebalance put them).
    fn respawn(&mut self, index: u32, now: Instant) {
        let mut taken =
            std::mem::replace(&mut self.slots[index as usize], Slot::parked(index, now));
        let result = self.spawn_child(&mut taken);
        let ok = result.is_ok();
        self.slots[index as usize] = taken;
        if ok {
            self.stats.respawns += 1;
            if let Some(m) = &self.metrics {
                m.respawns.inc();
            }
            self.ring.add(index);
        } else {
            let failures = {
                let slot = &mut self.slots[index as usize];
                slot.failures = slot.failures.saturating_add(1);
                slot.failures
            };
            let delay = backoff(
                self.config.respawn_backoff,
                self.config.respawn_backoff_cap,
                failures,
            );
            self.slots[index as usize].down_until = Some(now + delay);
        }
    }

    /// SIGKILLs a worker's child (used by deterministic chaos). Death
    /// accounting happens through the normal pipeline: the reader sees
    /// EOF and posts `Closed`.
    fn kill_slot(&mut self, index: u32) {
        if let Some(slot) = self.slots.get_mut(index as usize) {
            if let Some(child) = slot.child.as_mut() {
                let _ = child.kill(); // SIGKILL on unix
            }
        }
    }

    /// Reaps a worker that exited cleanly after delivering its final
    /// `Report`: no death is counted, nothing rehashes, no respawn is
    /// scheduled — the topology is winding down.
    fn retire_slot(&mut self, index: u32) {
        let slot = &mut self.slots[index as usize];
        if let Some(mut child) = slot.child.take() {
            let _ = child.wait();
        }
        slot.stdin = None;
        if let Some(m) = &self.metrics {
            m.slots[index as usize].up.set(0);
        }
    }

    /// Marks a worker dead: reaps the child, counts the in-flight loss,
    /// rehashes its flows onto survivors, schedules the respawn.
    fn declare_dead(&mut self, index: u32) {
        {
            let slot = &mut self.slots[index as usize];
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.stdin = None;
            self.stats.worker_deaths += 1;

            // In-flight loss: every sent-but-unacked batch died with
            // the worker. The unsent outbatch is kept — those packets
            // follow their flows to the next owner.
            let lost_batches = slot.pending.len() as u64;
            let lost_packets: u64 = slot.pending.iter().map(|&(_, n)| n).sum();
            slot.pending.clear();
            self.stats.batches_lost += lost_batches;
            self.stats.packets_lost += lost_packets;

            slot.failures = slot.failures.saturating_add(1);
            slot.hello_acked = false;
            let delay = backoff(
                self.config.respawn_backoff,
                self.config.respawn_backoff_cap,
                slot.failures,
            );
            slot.down_until = Some(Instant::now() + delay);

            if let Some(m) = &self.metrics {
                let sm = &m.slots[index as usize];
                sm.up.set(0);
                sm.deaths.inc();
                m.worker_deaths.inc();
                m.batches_lost.add(lost_batches);
                m.packets_lost.add(lost_packets);
            }
        }

        // Rehash the dead worker's flows onto the survivors and tell
        // each inheritor which flows it now owns. Buffered packets for
        // the moved flows move with them.
        self.ring.remove(index);
        let mut moved: HashMap<u32, Vec<u64>> = HashMap::new();
        for (&flow, owner) in self.assignment.iter_mut() {
            if *owner == index {
                if let Some(new_owner) = self.ring.owner(flow) {
                    *owner = new_owner;
                    moved.entry(new_owner).or_default().push(flow);
                }
                // With no survivors the assignment stays pointed at the
                // dead slot; its buffered packets go to the respawn.
            }
        }
        if !moved.is_empty() {
            let buffered = std::mem::take(&mut self.slots[index as usize].outbatch);
            for entry in buffered {
                match self.assignment.get(&entry.flow) {
                    Some(&new_owner) if new_owner != index => {
                        self.slots[new_owner as usize].outbatch.push(entry);
                    }
                    _ => self.slots[index as usize].outbatch.push(entry),
                }
            }
        }
        for (inheritor, mut flows) in moved {
            flows.sort_unstable();
            self.stats.flows_rehashed += flows.len() as u64;
            if let Some(m) = &self.metrics {
                m.flows_rehashed.add(flows.len() as u64);
            }
            for chunk in flows.chunks(MAX_REBALANCE_FLOWS) {
                let frame = match (Message::Rebalance {
                    from_worker: index,
                    flows: chunk.to_vec(),
                })
                .encode()
                {
                    Ok(frame) => frame,
                    Err(_) => continue, // chunked under the cap; unreachable
                };
                let slot = &mut self.slots[inheritor as usize];
                if let Some(stdin) = slot.stdin.as_mut() {
                    let _ = stdin.write_all(&frame).and_then(|()| stdin.flush());
                }
            }
        }
    }

    /// Live cluster counters (the ledger so far).
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// How many workers are currently alive.
    pub fn live_workers(&self) -> usize {
        self.slots.iter().filter(|s| s.alive()).count()
    }

    /// Flushes partial batches, waits for outstanding acks, shuts every
    /// worker down, collects their reports, backfills missing terminal
    /// verdicts, and returns the aggregate.
    pub fn finish(mut self) -> Result<ClusterReport, ClusterError> {
        // Phase 1: drain buffers and wait for in-flight acks so the
        // lost/acked split is exact. tick() keeps supervising, so a
        // death here still rebalances and respawns.
        let deadline = Instant::now() + self.config.shutdown_deadline;
        while Instant::now() < deadline {
            self.pump();
            self.tick();
            for index in 0..self.slots.len() as u32 {
                self.flush_slot(index)?;
            }
            let outstanding = self
                .slots
                .iter()
                .any(|s| (s.alive() && !s.pending.is_empty()) || !s.outbatch.is_empty());
            if !outstanding {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Whatever never made it out of a buffer is lost.
        for slot in self.slots.iter_mut() {
            let n = slot.outbatch.len() as u64;
            if n > 0 {
                slot.outbatch.clear();
                self.stats.packets_lost += n;
                if let Some(m) = &self.metrics {
                    m.packets_lost.add(n);
                }
            }
        }

        // Phase 2: order shutdown everywhere and wait for reports. No
        // tick(): a slot that dies now must not respawn into a
        // shutting-down cluster; its report is simply missing.
        for index in 0..self.slots.len() as u32 {
            let send_failed = {
                let slot = &mut self.slots[index as usize];
                if !slot.alive() || slot.shutdown_sent {
                    continue;
                }
                slot.shutdown_sent = true;
                match (Message::Shutdown.encode(), slot.stdin.as_mut()) {
                    (Ok(frame), Some(stdin)) => stdin
                        .write_all(&frame)
                        .and_then(|()| stdin.flush())
                        .is_err(),
                    _ => false,
                }
            };
            if send_failed {
                self.declare_dead(index);
            }
        }
        let deadline = Instant::now() + self.config.shutdown_deadline;
        while Instant::now() < deadline {
            self.pump();
            let waiting = self
                .slots
                .iter()
                .any(|s| s.alive() && s.shutdown_sent && s.report.is_none());
            if !waiting {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.pump();

        // Anything still unacked or unreported is lost; the ledger
        // closes with nothing in flight.
        for index in 0..self.slots.len() as u32 {
            let unreported = {
                let slot = &self.slots[index as usize];
                slot.alive() && slot.report.is_none()
            };
            if unreported {
                self.declare_dead(index);
            }
        }
        self.pump();

        // Reap children and reader threads. Readers block on a bounded
        // channel, so keep draining while waiting for them to exit.
        let mut readers: Vec<JoinHandle<()>> = std::mem::take(&mut self.graveyard);
        for slot in self.slots.iter_mut() {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.stdin = None;
            if let Some(reader) = slot.reader.take() {
                readers.push(reader);
            }
        }
        let reap_deadline = Instant::now() + Duration::from_secs(10);
        while !readers.is_empty() && Instant::now() < reap_deadline {
            self.pump();
            let mut still_running = Vec::new();
            for reader in readers {
                if reader.is_finished() {
                    let _ = reader.join();
                } else {
                    still_running.push(reader);
                }
            }
            readers = still_running;
            if !readers.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // A reader still alive past the deadline is blocked on the
        // event channel; it exits once the receiver drops with us.
        drop(readers);

        // Backfill: every candidate pair the topology saw must end in
        // exactly one terminal verdict. Pairs whose verdict died with a
        // worker become Degraded(WorkerLost).
        let mut verdicts: Vec<Verdict> = Vec::new();
        for pair in &self.terminal_order {
            if let Some(v) = self.terminal.get(pair) {
                verdicts.push(*v);
            }
        }
        let mut flows: Vec<u64> = self.assignment.keys().copied().collect();
        flows.sort_unstable();
        for &upstream in &self.config.upstreams {
            for &flow in &flows {
                let pair = PairId {
                    upstream: UpstreamId(upstream),
                    flow: FlowId(flow),
                };
                if let Entry::Vacant(slot) = self.terminal.entry(pair) {
                    let v = Verdict::Degraded {
                        pair,
                        reason: DegradeReason::WorkerLost,
                    };
                    slot.insert(v);
                    verdicts.push(v);
                    self.stats.verdicts_backfilled += 1;
                }
            }
        }
        verdicts.extend(self.evictions.iter().copied());

        let per_worker: Vec<Option<WireStats>> = self.slots.iter().map(|s| s.report).collect();
        let engine = per_worker
            .iter()
            .flatten()
            .fold(WireStats::default(), |acc, s| acc.merged(s));

        Ok(ClusterReport {
            verdicts,
            stats: self.stats,
            engine,
            per_worker,
        })
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_workers_is_rejected() {
        let config = ClusterConfig::new(std::path::PathBuf::from("/bin/true"), 0);
        assert!(matches!(
            Cluster::spawn(config),
            Err(ClusterError::Config(_))
        ));
    }

    #[test]
    fn oversized_batch_size_is_rejected() {
        let mut config = ClusterConfig::new(std::path::PathBuf::from("/bin/true"), 1);
        config.batch_size = MAX_BATCH_ENTRIES + 1;
        assert!(matches!(
            Cluster::spawn(config),
            Err(ClusterError::Config(_))
        ));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(1);
        assert_eq!(backoff(base, cap, 1), Duration::from_millis(100));
        assert_eq!(backoff(base, cap, 2), Duration::from_millis(200));
        assert_eq!(backoff(base, cap, 20), cap);
    }

    #[test]
    fn stats_conservation_accounting() {
        let stats = ClusterStats {
            workers: 3,
            batches_sent: 10,
            batches_acked: 8,
            batches_lost: 2,
            packets_routed: 100,
            packets_acked: 80,
            packets_rejected: 5,
            packets_lost: 15,
            ..ClusterStats::default()
        };
        assert!(stats.conservation_holds());
        let broken = ClusterStats {
            packets_lost: 14,
            ..stats
        };
        assert!(!broken.conservation_holds());
        let shown = stats.to_string();
        assert!(shown.contains("routed 100"), "{shown}");
    }
}
