//! `repro matrix`: the one evaluation pipeline behind the committed
//! `BENCH_scenarios.json`, `BENCH_robust.json` and `BENCH_backends.json`.
//! It fans scenario × axis × seed cells across worker processes and
//! collates one machine-readable report.
//!
//! Besides `--scenarios` and `--seeds`, any scenario DSL key can be an
//! axis (`--vary KEY=V1,V2,..`). Each value goes through the DSL's own
//! parser ([`ScenarioSpec::set`]) and each cell through
//! [`ScenarioSpec::validate`], so the matrix holds no per-key code.
//! Without a `backend` axis every cell is crossed with every backend.
//!
//! Each cell is one [`ScenarioSpec`] run in a fresh `repro matrix-cell`
//! child — the canonical spec text goes down the child's stdin, one
//! `cell ...` result line comes back up its stdout — so cells are
//! isolated the same way cluster workers are: a wedged or crashed cell
//! costs a retry, never the whole sweep. Supervision reuses the cluster
//! coordinator's [`backoff`] pacing: up to [`MAX_ATTEMPTS`] tries per
//! cell, exponentially spaced, with a hard per-attempt timeout.
//!
//! A cell reports its online run's detection counts and digests plus
//! the batch decode cost of every pair at full window — no timings —
//! so two runs of the same matrix render byte-identical JSON, the
//! property the checked-in benchmark files and their CI checks rely on.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use stepstone_cluster::backoff;
use stepstone_monitor::MonitorConfig;
use stepstone_scenario::{preset, Backend, ScenarioError, ScenarioSpec, MAX_SPEC_BYTES};

use crate::scenario_run::{build_spec_corpus, run_spec, ScenarioRunError};

/// Schema tag of the JSON report.
pub const SCHEMA: &str = "stepstone-matrix-v2";

/// Tries per cell before it is recorded as a failure.
pub const MAX_ATTEMPTS: u32 = 3;

/// Hard wall-clock budget for one cell attempt. Generous: the largest
/// preset runs in seconds; only a wedged child hits this.
const CELL_TIMEOUT: Duration = Duration::from_secs(120);

/// Retry pacing handed to the cluster [`backoff`] curve.
const BACKOFF_BASE: Duration = Duration::from_millis(200);
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Supervisor poll cadence while children run.
const POLL: Duration = Duration::from_millis(25);

/// Longest child stdout the supervisor reads (one `cell` line).
const MAX_CELL_OUTPUT: usize = 64 * 1024;

/// What to sweep and how hard to drive it.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Scenario names: presets, or paths to `.scn` files (anything
    /// containing `/` or ending in `.scn` is read from disk).
    pub scenarios: Vec<String>,
    /// `KEY=V1,V2,..` axes over scenario DSL keys, crossed with every
    /// scenario. Without a `backend` axis, every backend is one.
    pub vary: Vec<String>,
    /// Corpus seeds to cross every other axis with.
    pub seeds: Vec<u64>,
    /// Concurrent worker processes.
    pub workers: usize,
    /// The binary to respawn as `matrix-cell` (normally
    /// `std::env::current_exe()`).
    pub worker_exe: PathBuf,
}

/// Why a matrix could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Malformed options — an empty axis, a repeated value or key, a
    /// reserved key, no workers — or a worker that cannot be spawned.
    Usage(String),
    /// An axis value (or key) the scenario DSL rejects.
    Value {
        /// The axis key.
        key: String,
        /// The rejected value text.
        value: String,
        /// The DSL's error.
        error: ScenarioError,
    },
    /// A scenario that does not resolve, or a derived cell the spec
    /// validator rejects.
    Scenario(String),
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Usage(msg) | MatrixError::Scenario(msg) => f.write_str(msg),
            MatrixError::Value { key, value, error } => write!(f, "--vary {key}={value}: {error}"),
        }
    }
}

/// One cell's reproducible result. The fields up to `digest` are the
/// report order, which the derived `PartialOrd` follows; digests are
/// unique within a matrix, so the costs never decide it.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub struct CellOutcome {
    /// The base scenario's name.
    pub scenario: String,
    /// Backend name.
    pub backend: &'static str,
    /// Decode-mode name.
    pub decode: &'static str,
    /// Packet loss in parts per million.
    pub loss_ppm: u32,
    /// Corpus seed.
    pub seed: u64,
    /// The specialised spec's digest.
    pub digest: u64,
    /// Events delivered to the monitor.
    pub events: u64,
    /// True pairs detected.
    pub true_positives: u32,
    /// Correlated verdicts on non-true pairs.
    pub false_positives: u32,
    /// True pairs missed.
    pub missed: u32,
    /// Pairs that ended degraded.
    pub degraded: u32,
    /// Effective deletions the cell's channel inflicted (see
    /// [`crate::scenario_run::ScenarioOutcome::erasures`]).
    pub erasures: u64,
    /// Mean packet accesses of one full-window decode of a true pair.
    pub mean_cost_true: f64,
    /// Mean packet accesses of one full-window decode of a non-pair.
    pub mean_cost_other: f64,
    /// The run's verdict digest (see
    /// [`crate::scenario_run::ScenarioOutcome::verdict_digest`]).
    pub verdict_digest: u64,
}

impl CellOutcome {
    /// The cell's fields in report order, each value rendered as JSON
    /// (costs to one decimal): the JSON report's cell object and the
    /// `cell ...` line print the same text.
    fn fields(&self) -> [(&'static str, String); 15] {
        let text = |s: &str| format!("\"{s}\"");
        let hex = |d: u64| format!("\"{d:016x}\"");
        [
            ("scenario", text(&self.scenario)),
            ("backend", text(self.backend)),
            ("decode", text(self.decode)),
            ("loss_ppm", self.loss_ppm.to_string()),
            ("seed", self.seed.to_string()),
            ("digest", hex(self.digest)),
            ("events", self.events.to_string()),
            ("true_positives", self.true_positives.to_string()),
            ("false_positives", self.false_positives.to_string()),
            ("missed", self.missed.to_string()),
            ("degraded", self.degraded.to_string()),
            ("erasures", self.erasures.to_string()),
            ("mean_cost_true", format!("{:.1}", self.mean_cost_true)),
            ("mean_cost_other", format!("{:.1}", self.mean_cost_other)),
            ("verdict_digest", hex(self.verdict_digest)),
        ]
    }

    /// The `cell key=value ...` line a `matrix-cell` child prints.
    fn line(&self) -> String {
        let mut line = "cell".to_string();
        for (key, value) in self.fields() {
            line.push_str(&format!(" {key}={value}"));
        }
        line
    }
}

/// The collated sweep: outcomes in report order, plus any cells that
/// exhausted their retries.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Every successful cell, sorted.
    pub cells: Vec<CellOutcome>,
    /// One line per cell that never produced a result, sorted.
    pub failures: Vec<String>,
}

impl MatrixReport {
    /// The JSON report: schema-tagged, sorted, free of
    /// timing fields — byte-identical across runs of the same matrix.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"");
        out.push_str(SCHEMA);
        out.push_str("\",\n  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let fields: Vec<String> = c
                .fields()
                .iter()
                .map(|(key, value)| format!("\"{key}\": {value}"))
                .collect();
            out.push_str(&format!("\n    {{{}}}", fields.join(", ")));
        }
        out.push_str("\n  ],\n  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{f}\""));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl fmt::Display for MatrixReport {
    /// One `cell ...` line per cell, then one `FAILED ...` line per
    /// failure.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.cells {
            writeln!(f, "{}", c.line())?;
        }
        for failure in &self.failures {
            writeln!(f, "FAILED {failure}")?;
        }
        Ok(())
    }
}

/// Resolves a scenario name: a path (contains `/` or ends in `.scn`)
/// is read from disk, anything else is a preset.
pub fn resolve_scenario(name: &str) -> Result<ScenarioSpec, String> {
    if name.contains('/') || name.ends_with(".scn") {
        let meta = std::fs::metadata(name).map_err(|e| format!("cannot stat {name}: {e}"))?;
        if meta.len() > MAX_SPEC_BYTES as u64 {
            return Err(format!(
                "{name} is {} bytes; scenarios cap at {MAX_SPEC_BYTES}",
                meta.len()
            ));
        }
        let bytes = std::fs::read(name).map_err(|e| format!("cannot read {name}: {e}"))?;
        let text = std::str::from_utf8(&bytes).map_err(|_| format!("{name} is not UTF-8"))?;
        ScenarioSpec::parse(text).map_err(|e| format!("{name}: {e}"))
    } else {
        preset(name).map_err(|e| e.to_string())
    }
}

/// A cell's name in failure lines and validator errors.
fn label(spec: &ScenarioSpec) -> String {
    format!("{} [{:016x}] seed {}", spec.name, spec.digest(), spec.seed)
}

/// Derives the full scenario × axes × seed product. Each cell is a
/// clone of its base spec with one value of every axis set through
/// the DSL parser, then the seed; a chaos-bearing scenario also folds
/// the cell seed into its chaos seed, so different seeds exercise
/// different fault schedules while the same cell stays reproducible.
/// Every cell must pass the spec validator and be distinct: two cells
/// with one digest mean a value repeats on some axis.
pub fn derive_cells(options: &MatrixOptions) -> Result<Vec<ScenarioSpec>, MatrixError> {
    let usage = |msg: String| Err(MatrixError::Usage(msg));
    if options.scenarios.is_empty() || options.seeds.is_empty() {
        return usage("matrix needs at least one scenario and seed".to_string());
    }
    let mut axes: Vec<(&str, Vec<&str>)> = Vec::new();
    for text in &options.vary {
        let Some((key, values)) = text.split_once('=') else {
            return usage(format!("--vary {text}: expected KEY=V1,V2,.."));
        };
        let key = key.trim();
        let values: Vec<&str> = values.split(',').map(str::trim).collect();
        if key == "seed" || key == "name" {
            return usage(format!(
                "--vary {key} is not an axis; use --seeds/--scenarios"
            ));
        }
        if axes.iter().any(|(earlier, _)| *earlier == key) {
            return usage(format!("--vary {key} is given twice"));
        }
        if values.contains(&"") {
            return usage(format!("--vary {key} has an empty value"));
        }
        axes.push((key, values));
    }
    if !axes.iter().any(|(key, _)| *key == "backend") {
        axes.insert(0, ("backend", Backend::ALL.map(Backend::name).to_vec()));
    }

    let (mut cells, mut digests) = (Vec::new(), BTreeSet::new());
    for name in &options.scenarios {
        let base = resolve_scenario(name).map_err(MatrixError::Scenario)?;
        let mut specs = vec![base];
        for (key, values) in &axes {
            let mut next = Vec::with_capacity(specs.len() * values.len());
            for spec in &specs {
                for &value in values {
                    let mut cell = spec.clone();
                    cell.set(key, value).map_err(|error| MatrixError::Value {
                        key: key.to_string(),
                        value: value.to_string(),
                        error,
                    })?;
                    next.push(cell);
                }
            }
            specs = next;
        }
        for spec in specs {
            for &seed in &options.seeds {
                let mut cell = spec.clone();
                cell.seed = seed;
                if let Some((chaos_seed, profile)) = cell.chaos {
                    cell.chaos = Some((chaos_seed ^ seed.rotate_left(17), profile));
                }
                cell.validate()
                    .map_err(|e| MatrixError::Scenario(format!("{}: {e}", label(&cell))))?;
                if !digests.insert(cell.digest()) {
                    return usage(format!(
                        "{} is derived twice: a value repeats in --scenarios, --seeds or --vary",
                        label(&cell)
                    ));
                }
                cells.push(cell);
            }
        }
    }
    Ok(cells)
}

/// Runs one cell in process: the spec's online run plus the batch
/// decode cost of every (upstream, suspicious) pair.
///
/// # Errors
///
/// Corpus-synthesis failures (see [`run_spec`]).
pub fn run_cell(spec: &ScenarioSpec) -> Result<CellOutcome, ScenarioRunError> {
    let outcome = run_spec(spec, None)?;
    let (mean_cost_true, mean_cost_other) = batch_costs(spec)?;
    Ok(CellOutcome {
        scenario: spec.name.clone(),
        backend: spec.backend.name(),
        decode: spec.decode.name(),
        loss_ppm: spec.loss_ppm,
        seed: spec.seed,
        digest: outcome.digest,
        events: outcome.events,
        true_positives: outcome.true_positives,
        false_positives: outcome.false_positives,
        missed: outcome.missed,
        degraded: outcome.degraded,
        erasures: outcome.erasures,
        mean_cost_true,
        mean_cost_other,
        verdict_digest: outcome.verdict_digest(),
    })
}

/// Decodes every (upstream, suspicious) pair once at full window and
/// averages the billed packet accesses (`cost + matching_cost`, the
/// monitor's per-verdict convention) over true pairs and non-pairs.
fn batch_costs(spec: &ScenarioSpec) -> Result<(f64, f64), ScenarioRunError> {
    let corpus = build_spec_corpus(spec, None, MonitorConfig::default())?;
    let (mut true_sum, mut true_n) = (0u64, 0u64);
    let (mut other_sum, mut other_n) = (0u64, 0u64);
    for (i, correlator) in corpus.correlators.iter().enumerate() {
        for (flow_id, flow) in &corpus.suspicious {
            let outcome = correlator.correlate(flow);
            let billed = outcome.cost + outcome.matching_cost;
            if flow_id.0 == i as u64 {
                true_sum += billed;
                true_n += 1;
            } else {
                other_sum += billed;
                other_n += 1;
            }
        }
    }
    let mean = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
    Ok((mean(true_sum, true_n), mean(other_sum, other_n)))
}

/// The hidden `repro matrix-cell` entry point: one canonical spec on
/// stdin, one `cell ...` line on stdout.
///
/// # Errors
///
/// `(exit_code, message)`: the CLI's bad-scenario code for input that
/// does not parse, its stream-error code for a run that fails.
pub fn matrix_cell_main(
    input: &mut dyn Read,
    output: &mut dyn Write,
    exit_bad_scenario: u8,
    exit_run_error: u8,
) -> Result<(), (u8, String)> {
    let mut text = String::new();
    input
        .take(MAX_SPEC_BYTES as u64 + 1)
        .read_to_string(&mut text)
        .map_err(|e| (exit_bad_scenario, format!("cannot read spec: {e}")))?;
    if text.len() > MAX_SPEC_BYTES {
        return Err((
            exit_bad_scenario,
            format!("spec exceeds {MAX_SPEC_BYTES} bytes"),
        ));
    }
    let spec =
        ScenarioSpec::parse(&text).map_err(|e| (exit_bad_scenario, format!("bad spec: {e}")))?;
    let outcome = run_cell(&spec).map_err(|e| (exit_run_error, format!("run failed: {e}")))?;
    writeln!(output, "{}", outcome.line())
        .map_err(|e| (exit_run_error, format!("cannot write result: {e}")))?;
    Ok(())
}

/// Parses one `cell ...` line back into an outcome for `spec`'s cell.
/// The outcome must render back to exactly the line, which rejects a
/// missing, repeated, unknown or reordered key and a line that names
/// another cell.
fn parse_cell_line(line: &str, spec: &ScenarioSpec) -> Option<CellOutcome> {
    let line = line.trim();
    let fields: BTreeMap<&str, &str> = line
        .strip_prefix("cell ")?
        .split_whitespace()
        .filter_map(|field| field.split_once('='))
        .collect();
    let field = |key: &str| fields.get(key).copied();
    let hex = |key: &str| u64::from_str_radix(field(key)?.trim_matches('"'), 16).ok();
    let outcome = CellOutcome {
        scenario: spec.name.clone(),
        backend: spec.backend.name(),
        decode: spec.decode.name(),
        loss_ppm: spec.loss_ppm,
        seed: spec.seed,
        digest: spec.digest(),
        events: field("events")?.parse().ok()?,
        true_positives: field("true_positives")?.parse().ok()?,
        false_positives: field("false_positives")?.parse().ok()?,
        missed: field("missed")?.parse().ok()?,
        degraded: field("degraded")?.parse().ok()?,
        erasures: field("erasures")?.parse().ok()?,
        mean_cost_true: field("mean_cost_true")?.parse().ok()?,
        mean_cost_other: field("mean_cost_other")?.parse().ok()?,
        verdict_digest: hex("verdict_digest")?,
    };
    (outcome.line() == line).then_some(outcome)
}

/// One in-flight child.
struct RunningCell {
    child: Child,
    spec: ScenarioSpec,
    attempts: u32,
    started: Instant,
}

/// Spawns one cell child and feeds it its spec.
fn spawn_cell(exe: &PathBuf, spec: &ScenarioSpec) -> Result<Child, MatrixError> {
    let mut child = Command::new(exe)
        .arg("matrix-cell")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| MatrixError::Usage(format!("cannot spawn {}: {e}", exe.display())))?;
    // The canonical text is well under the pipe buffer; a child that
    // died already surfaces as a write error, which the caller retries.
    if let Some(mut stdin) = child.stdin.take() {
        if stdin.write_all(spec.canonical().as_bytes()).is_err() {
            // Leave the child to be reaped by the exit path below.
        }
    }
    Ok(child)
}

/// Reads the child's single result line (bounded).
fn read_cell_output(child: &mut Child) -> String {
    let Some(stdout) = child.stdout.take() else {
        return String::new();
    };
    let mut text = String::new();
    let mut bounded = stdout.take(MAX_CELL_OUTPUT as u64);
    if bounded.read_to_string(&mut text).is_err() {
        return String::new();
    }
    text
}

/// Runs the whole matrix: at most `workers` children at a time, each
/// failed cell retried up to [`MAX_ATTEMPTS`] times with cluster
/// [`backoff`] pacing.
///
/// # Errors
///
/// Only setup failures (see [`MatrixError`]). Cell failures after
/// retries land in [`MatrixReport::failures`] instead, so one broken
/// cell cannot hide the rest of the sweep.
pub fn run_matrix(options: &MatrixOptions) -> Result<MatrixReport, MatrixError> {
    if options.workers == 0 {
        return Err(MatrixError::Usage(
            "matrix needs at least one worker".to_string(),
        ));
    }
    let mut pending: VecDeque<(ScenarioSpec, u32, Instant)> = derive_cells(options)?
        .into_iter()
        .map(|spec| (spec, 0u32, Instant::now()))
        .collect();
    let mut running: Vec<RunningCell> = Vec::new();
    let mut report = MatrixReport::default();

    while !pending.is_empty() || !running.is_empty() {
        // Fill free slots with eligible (backoff-expired) cells.
        while running.len() < options.workers {
            let Some(at) = pending
                .iter()
                .position(|(_, _, eligible)| *eligible <= Instant::now())
            else {
                break;
            };
            let Some((spec, attempts, _)) = pending.remove(at) else {
                break;
            };
            running.push(RunningCell {
                child: spawn_cell(&options.worker_exe, &spec)?,
                spec,
                attempts: attempts + 1,
                started: Instant::now(),
            });
        }

        let mut finished: Vec<usize> = Vec::new();
        for (i, slot) in running.iter_mut().enumerate() {
            match slot.child.try_wait() {
                Ok(Some(_)) | Err(_) => finished.push(i),
                Ok(None) => {
                    if slot.started.elapsed() > CELL_TIMEOUT {
                        let _ = slot.child.kill();
                        let _ = slot.child.wait();
                        finished.push(i);
                    }
                }
            }
        }
        // Highest index first so removals do not shift pending ones.
        for &i in finished.iter().rev() {
            let mut slot = running.remove(i);
            let output = read_cell_output(&mut slot.child);
            let _ = slot.child.wait();
            let parsed = output
                .lines()
                .find_map(|line| parse_cell_line(line, &slot.spec));
            match parsed {
                Some(outcome) => report.cells.push(outcome),
                None if slot.attempts < MAX_ATTEMPTS => {
                    let eligible =
                        Instant::now() + backoff(BACKOFF_BASE, BACKOFF_CAP, slot.attempts);
                    pending.push_back((slot.spec, slot.attempts, eligible));
                }
                None => report.failures.push(format!(
                    "{}: no result after {} attempts",
                    label(&slot.spec),
                    slot.attempts,
                )),
            }
        }

        if !running.is_empty() || !pending.is_empty() {
            std::thread::sleep(POLL);
        }
    }

    report
        .cells
        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    report.failures.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(scenarios: &[&str], vary: &[&str], seeds: &[u64]) -> MatrixOptions {
        MatrixOptions {
            scenarios: scenarios.iter().map(|s| s.to_string()).collect(),
            vary: vary.iter().map(|v| v.to_string()).collect(),
            seeds: seeds.to_vec(),
            workers: 2,
            worker_exe: PathBuf::from("unused"),
        }
    }

    /// Runs every derived cell in process.
    fn run_all(scenarios: &[&str], vary: &[&str], seeds: &[u64]) -> Vec<CellOutcome> {
        let cells = derive_cells(&options(scenarios, vary, seeds)).expect("derives");
        cells.iter().map(|c| run_cell(c).expect("runs")).collect()
    }

    #[test]
    fn derive_cells_covers_the_full_product() {
        let cells = derive_cells(&options(&["quick-smoke", "deletion-harsh"], &[], &[1, 2]))
            .expect("derives");
        assert_eq!(cells.len(), 2 * Backend::ALL.len() * 2);
        let no_seeds = derive_cells(&options(&["quick-smoke"], &[], &[]));
        assert!(matches!(no_seeds, Err(MatrixError::Usage(_))));
        // Chaos-bearing cells fold the seed into the chaos seed.
        let chaos_seeds: BTreeSet<u64> =
            cells.iter().filter_map(|c| c.chaos).map(|c| c.0).collect();
        assert_eq!(chaos_seeds.len(), 2, "{chaos_seeds:?}");
        // A `--vary backend` axis replaces the default one.
        let axes = ["backend=game", "upstreams=2,3"];
        let cells = derive_cells(&options(&["baseline"], &axes, &[1])).expect("derives");
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.backend == Backend::Game));
    }

    #[test]
    fn cell_main_round_trips_through_the_line_format() {
        let cells = derive_cells(&options(&["quick-smoke"], &[], &[1, 2])).expect("derives");
        let spec = &cells[0];
        let mut input = spec.canonical().into_bytes();
        let mut output = Vec::new();
        matrix_cell_main(&mut input.as_slice(), &mut output, 5, 3).expect("cell runs");
        let line = String::from_utf8(output).expect("utf-8");
        let line = line.trim();
        let outcome = parse_cell_line(line, spec).expect("parses");
        assert_eq!(line, run_cell(spec).expect("in process").line());
        assert!(outcome.mean_cost_true > 0.0);
        // A line for another cell, a repeated key standing in for a
        // missing one, a dropped key and an extra key are all rejected.
        assert!(parse_cell_line(line, &cells[1]).is_none());
        let erasures = format!("erasures={}", outcome.erasures);
        let tp = format!("true_positives={}", outcome.true_positives);
        let repeated = line.replace(&erasures, &tp);
        assert_eq!(repeated.split(' ').count(), line.split(' ').count());
        for bad in [
            repeated,
            line.replace(&erasures, ""),
            format!("{line} extra=1"),
        ] {
            assert!(parse_cell_line(&bad, spec).is_none(), "{bad}");
        }
        input.truncate(3);
        let mut output = Vec::new();
        let (code, _) =
            matrix_cell_main(&mut input.as_slice(), &mut output, 5, 3).expect_err("truncated spec");
        assert_eq!(code, 5);
    }

    /// The `BENCH_robust.json` matrix: robust decoding must not buy
    /// detections with accusations, nor cost any at zero loss.
    #[test]
    fn robust_matrix_has_no_fp_and_robust_never_trails_strict_at_zero_loss() {
        let axes = ["decode=strict,robust", "loss=0,0.01,0.05,0.1"];
        let cells = run_all(&["baseline"], &axes, &[1]);
        assert_eq!(cells.len(), 3 * 2 * 4);
        assert!(cells.iter().all(|c| c.false_positives == 0), "{cells:?}");
        for backend in Backend::ALL {
            let tp = |decode: &str| {
                let cell = cells
                    .iter()
                    .find(|c| (c.backend, c.decode, c.loss_ppm) == (backend.name(), decode, 0));
                cell.expect("cell exists").true_positives
            };
            assert!(
                tp("robust") >= tp("strict"),
                "{backend}: robust regressed at zero loss"
            );
        }
    }

    /// The `BENCH_backends.json` matrix: in the mild regime every
    /// backend separates true pairs from decoys; in the saturated
    /// stress regime the passive backends go quiet rather than
    /// false-positive.
    #[test]
    fn backend_matrix_separates_mild_and_keeps_passive_backends_quiet_under_stress() {
        let mild = run_all(&["backends-mild"], &[], &[1_592_590_337]);
        let stress = run_all(&["monitor"], &["backend=elices,game"], &[1_592_590_337]);
        assert_eq!((mild.len(), stress.len()), (3, 2));
        for c in mild.iter().chain(&stress) {
            assert!(
                c.true_positives + c.missed == 4 && c.mean_cost_true > 0.0,
                "{c:?}"
            );
        }
        assert!(
            mild.iter().all(|c| (c.missed, c.false_positives) == (0, 0)),
            "{mild:?}"
        );
        assert!(stress.iter().all(|c| c.false_positives == 0), "{stress:?}");
    }
}
