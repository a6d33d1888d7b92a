//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale quick|default|full] [--seed N] [--out DIR] [--chart] <target>...
//! targets: table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
//!          figures (3–10)  synthetic (§4.2)  summary (§4.3)
//!          future-loss future-repack (§6)  monitor (online engine)
//!          backends (cross-backend table)  pcap-export (wire fixture)  all
//! ```

#![forbid(unsafe_code)]
//!
//! The `monitor` target additionally honours `--pairs N`, `--decoys N`,
//! `--shards N` and `--packets N` to size the online replay,
//! `--backend paper|elices|game` to pick the correlator backend, and
//! `--decode strict|robust` (with `--erasure-budget N`) to pick the
//! decode layer.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use stepstone_chaos::FaultPlan;
use stepstone_core::{DecodeMode, DecodeOptions, UnknownBackend, UnknownDecodeMode};
use stepstone_experiments::{
    ablations, backends, cluster, diagnostics, figures, live, matrix, robust, scenario_run, serve,
    ExperimentConfig, Scale,
};
use stepstone_ingest::ReplayClock;
use stepstone_scenario::ScenarioSpec;
use stepstone_stats::Figure;
use stepstone_telemetry::{MetricsServer, Registry};
use stepstone_traffic::Seed;

/// Exit code when a `--pcap` replay abandoned the capture tail on a
/// stream error (the verdicts above it still printed). Also used for
/// `matrix` cells that exhausted their retries: the results above are
/// honest but incomplete.
const EXIT_STREAM_ERROR: u8 = 3;

/// Exit code for an unrecognised `--backend` or `--decode` name.
/// Distinct from the generic usage error so scripts sweeping backends
/// or decode modes can tell a typo from a broken invocation.
const EXIT_UNKNOWN_BACKEND: u8 = 4;

/// Exit code for a scenario that does not parse or validate (a DSL
/// error, not an infrastructure one).
const EXIT_BAD_SCENARIO: u8 = 5;

/// Exit code when `--snapshot` points at a file that exists but does
/// not decode; `repro serve` refuses to silently discard state the
/// operator expected to resume.
const EXIT_BAD_SNAPSHOT: u8 = 6;

/// A CLI failure: a generic usage/runtime error (exit 1, with the
/// usage text), or one of the typed conditions scripts branch on —
/// unknown `--backend` or `--decode` (exit [`EXIT_UNKNOWN_BACKEND`]),
/// bad scenario (exit [`EXIT_BAD_SCENARIO`]), bad snapshot (exit
/// [`EXIT_BAD_SNAPSHOT`]) — which print just their message (the usage
/// dump would bury it).
enum CliError {
    Usage(String),
    UnknownBackend(UnknownBackend),
    UnknownDecode(UnknownDecodeMode),
    Scenario(String),
    Snapshot(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

impl From<UnknownBackend> for CliError {
    fn from(err: UnknownBackend) -> Self {
        CliError::UnknownBackend(err)
    }
}

impl From<UnknownDecodeMode> for CliError {
    fn from(err: UnknownDecodeMode) -> Self {
        CliError::UnknownDecode(err)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    // Hidden entry point: the coordinator respawns this same binary as
    // `repro cluster-worker` with the IPC frames on stdin/stdout. Not a
    // user-facing target, so errors skip the usage text.
    if args.first().map(String::as_str) == Some("cluster-worker") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return match cluster::worker_main(&mut stdin.lock(), &mut stdout.lock()) {
            Ok(_) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("repro cluster-worker: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    // Hidden entry point: the matrix supervisor respawns this binary as
    // `repro matrix-cell` with one canonical spec on stdin and one
    // result line on stdout.
    if args.first().map(String::as_str) == Some("matrix-cell") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return match matrix::matrix_cell_main(
            &mut stdin.lock(),
            &mut stdout.lock(),
            EXIT_BAD_SCENARIO,
            EXIT_STREAM_ERROR,
        ) {
            Ok(()) => ExitCode::SUCCESS,
            Err((code, msg)) => {
                eprintln!("repro matrix-cell: {msg}");
                ExitCode::from(code)
            }
        };
    }
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(CliError::UnknownBackend(err)) => {
            eprintln!("repro: {err}");
            ExitCode::from(EXIT_UNKNOWN_BACKEND)
        }
        Err(CliError::UnknownDecode(err)) => {
            eprintln!("repro: {err}");
            ExitCode::from(EXIT_UNKNOWN_BACKEND)
        }
        Err(CliError::Scenario(msg)) => {
            eprintln!("repro: {msg}");
            ExitCode::from(EXIT_BAD_SCENARIO)
        }
        Err(CliError::Snapshot(msg)) => {
            eprintln!("repro: {msg}");
            ExitCode::from(EXIT_BAD_SNAPSHOT)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("repro: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: repro [--scale quick|default|full] [--seed N] [--out DIR] [--chart]
             [--pairs N] [--decoys N] [--shards N] [--packets N]
             [--backend paper|elices|game]
             [--decode strict|robust] [--erasure-budget N]
             [--pcap FILE] [--replay fast|real|xN] [--cluster N]
             [--chaos SEED[:mild|harsh|adversarial]]
             [--metrics-addr HOST:PORT]
             [--scenario NAME|FILE.scn] [--addr HOST:PORT] [--snapshot FILE]
             [--scenarios A,B,..] [--backends A,B,..] [--seeds N,M,..]
             [--workers N] <target>...
targets: table1 fig3..fig10 figures synthetic summary future-loss future-repack\n         extension-hops ablations diagnostics monitor backends pcap-export\n         scenarios scenario serve matrix robust-sweep all
exit codes: 0 ok, 1 usage/runtime error, 3 stream error / failed matrix cells,
            4 unknown --backend/--decode, 5 bad scenario, 6 bad snapshot";

struct Options {
    cfg: ExperimentConfig,
    out: Option<PathBuf>,
    chart: bool,
    targets: Vec<String>,
    /// `monitor` world overrides: upstreams, decoys, shards, packets,
    /// and the backend every upstream registers with.
    pairs: Option<usize>,
    decoys: Option<usize>,
    shards: Option<usize>,
    packets: Option<usize>,
    backend: Option<stepstone_scenario::Backend>,
    /// Decode layer every bound correlator runs; `None` keeps each
    /// target's default (strict for `monitor`, the spec's own
    /// `decode =` key for `scenario`).
    decode: Option<DecodeOptions>,
    /// `monitor` reads this capture instead of an in-memory stream.
    pcap: Option<PathBuf>,
    /// Pacing for `--pcap` replay.
    replay: ReplayClock,
    /// `monitor` runs under this seed-deterministic fault plan.
    chaos: Option<FaultPlan>,
    /// `monitor` replays through this many worker processes instead of
    /// an in-process engine.
    cluster: Option<u32>,
    /// `monitor` serves live telemetry here (e.g. `127.0.0.1:9184`,
    /// or port `0` for an ephemeral one) and keeps the endpoint up
    /// after the report prints, until the process is killed.
    metrics_addr: Option<String>,
    /// `scenario` runs this preset name or `.scn` file.
    scenario: Option<String>,
    /// `serve` listens here (port 0 picks an ephemeral port, printed
    /// to stderr).
    addr: String,
    /// `serve` persists and restores its session table here.
    snapshot: Option<PathBuf>,
    /// `matrix` axes and parallelism.
    scenarios: Vec<String>,
    backends_axis: Vec<stepstone_scenario::Backend>,
    seeds: Vec<u64>,
    workers: usize,
}

fn parse(args: &[String]) -> Result<Options, CliError> {
    let mut scale = Scale::Default;
    let mut seed: Option<u64> = None;
    let mut out = None;
    let mut chart = false;
    let mut targets = Vec::new();
    let mut pairs = None;
    let mut decoys = None;
    let mut shards = None;
    let mut packets = None;
    let mut backend = None;
    let mut decode_mode: Option<DecodeMode> = None;
    let mut erasure_budget: u32 = 64;
    let mut pcap = None;
    let mut replay = ReplayClock::Fast;
    let mut chaos = None;
    let mut cluster = None;
    let mut metrics_addr = None;
    let mut scenario = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut snapshot = None;
    let mut scenarios = vec![
        "quick-smoke".to_string(),
        "baseline".to_string(),
        "deletion-harsh".to_string(),
    ];
    let mut backends_axis = stepstone_scenario::Backend::ALL.to_vec();
    let mut seeds: Vec<u64> = vec![1, 2, 3];
    let mut workers: usize = 2;
    let parse_count = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .ok_or(format!("{flag} needs a value"))?
            .parse::<usize>()
            .map_err(|e| format!("bad {flag}: {e}"))
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("default") => Scale::Default,
                    Some("full") => Scale::Full,
                    other => return Err(format!("bad --scale {other:?}").into()),
                };
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|e| format!("bad --seed: {e}"))?);
            }
            "--out" => {
                out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?));
            }
            "--chart" => chart = true,
            "--pairs" => pairs = Some(parse_count(&mut it, "--pairs")?),
            "--decoys" => decoys = Some(parse_count(&mut it, "--decoys")?),
            "--shards" => shards = Some(parse_count(&mut it, "--shards")?),
            "--packets" => packets = Some(parse_count(&mut it, "--packets")?),
            "--backend" => {
                let v = it.next().ok_or("--backend needs a name")?;
                backend = Some(parse_scenario_backend(v)?);
            }
            "--decode" => {
                let v = it.next().ok_or("--decode needs a mode name")?;
                decode_mode = Some(DecodeMode::parse(v)?);
            }
            "--erasure-budget" => {
                let v = it.next().ok_or("--erasure-budget needs a count")?;
                erasure_budget = v
                    .parse::<u32>()
                    .map_err(|e| format!("bad --erasure-budget: {e}"))?;
            }
            "--pcap" => {
                pcap = Some(PathBuf::from(it.next().ok_or("--pcap needs a file")?));
            }
            "--replay" => {
                let v = it.next().ok_or("--replay needs a value")?;
                replay = v.parse().map_err(|e| format!("{e}"))?;
            }
            "--chaos" => {
                let v = it.next().ok_or("--chaos needs SEED[:PROFILE]")?;
                chaos = Some(FaultPlan::parse(v).map_err(|e| format!("bad --chaos: {e}"))?);
            }
            "--cluster" => {
                let n = parse_count(&mut it, "--cluster")?;
                if n == 0 {
                    return Err("--cluster must be at least 1".into());
                }
                cluster = Some(n as u32);
            }
            "--metrics-addr" => {
                metrics_addr = Some(
                    it.next()
                        .ok_or("--metrics-addr needs HOST:PORT")?
                        .to_string(),
                );
            }
            "--scenario" => {
                scenario = Some(
                    it.next()
                        .ok_or("--scenario needs a name or file")?
                        .to_string(),
                );
            }
            "--addr" => {
                addr = it.next().ok_or("--addr needs HOST:PORT")?.to_string();
            }
            "--snapshot" => {
                snapshot = Some(PathBuf::from(it.next().ok_or("--snapshot needs a file")?));
            }
            "--scenarios" => {
                let v = it.next().ok_or("--scenarios needs A,B,..")?;
                scenarios = v.split(',').map(str::to_string).collect();
            }
            "--backends" => {
                let v = it.next().ok_or("--backends needs A,B,..")?;
                backends_axis = v
                    .split(',')
                    .map(parse_scenario_backend)
                    .collect::<Result<_, _>>()?;
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs N,M,..")?;
                seeds = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map_err(|e| format!("bad --seeds: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--workers" => {
                workers = parse_count(&mut it, "--workers")?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--help" | "-h" => return Err("help requested".into()),
            t if !t.starts_with('-') => targets.push(t.to_string()),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    if targets.is_empty() {
        return Err("no targets given".into());
    }
    let mut cfg = ExperimentConfig::new(scale);
    if let Some(s) = seed {
        cfg = cfg.with_seed(Seed::new(s));
    }
    Ok(Options {
        cfg,
        out,
        chart,
        targets,
        pairs,
        decoys,
        shards,
        packets,
        backend,
        decode: decode_mode.map(|mode| match mode {
            DecodeMode::Strict => DecodeOptions::strict(),
            DecodeMode::Robust => DecodeOptions::robust(erasure_budget),
        }),
        pcap,
        replay,
        chaos,
        cluster,
        metrics_addr,
        scenario,
        addr,
        snapshot,
        scenarios,
        backends_axis,
        seeds,
        workers,
    })
}

/// Parses a scenario-DSL backend name. Routed through [`CliError`]'s
/// unknown-backend arm (exit [`EXIT_UNKNOWN_BACKEND`]) the same way
/// `--backend` is, since the names are pinned to match.
fn parse_scenario_backend(name: &str) -> Result<stepstone_scenario::Backend, CliError> {
    let name = name.trim();
    stepstone_scenario::Backend::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| {
            CliError::UnknownBackend(UnknownBackend {
                input: name.to_string(),
            })
        })
}

fn run(args: &[String]) -> Result<u8, CliError> {
    let opts = parse(args)?;
    if let Some(dir) = &opts.out {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut code = 0u8;
    for target in &opts.targets {
        code = code.max(dispatch(target, &opts)?);
    }
    Ok(code)
}

fn dispatch(target: &str, opts: &Options) -> Result<u8, CliError> {
    let cfg = &opts.cfg;
    match target {
        "table1" => print!("{}", figures::table1(cfg)),
        "fig3" => emit(&figures::fig3(cfg), opts)?,
        "fig4" => emit(&figures::fig4(cfg), opts)?,
        "fig5" => emit(&figures::fig5(cfg), opts)?,
        "fig6" => emit(&figures::fig6(cfg), opts)?,
        "fig7" => emit(&figures::fig7(cfg), opts)?,
        "fig8" => emit(&figures::fig8(cfg), opts)?,
        "fig9" => emit(&figures::fig9(cfg), opts)?,
        "fig10" => emit(&figures::fig10(cfg), opts)?,
        "figures" => {
            for f in figures::all(cfg) {
                emit(&f, opts)?;
            }
        }
        "synthetic" => {
            for f in figures::synthetic_all(cfg) {
                emit(&f, opts)?;
            }
        }
        "summary" => print!("{}", figures::summary(cfg)),
        "extension-hops" => emit(&figures::extension_hops(cfg), opts)?,
        "future-loss" => emit(&figures::future_loss(cfg), opts)?,
        "future-repack" => emit(&figures::future_repack(cfg), opts)?,
        "monitor" => {
            let (spec, bytes) = match &opts.pcap {
                // Wire mode: correlators come from the scale-independent
                // wire world, packets from the capture file.
                Some(path) => (
                    world(cfg.wire_spec(), opts)?,
                    Some(
                        fs::read(path)
                            .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
                    ),
                ),
                None => (world(cfg.monitor_spec(), opts)?, None),
            };
            let server = match &opts.metrics_addr {
                Some(addr) => {
                    let registry = Arc::new(Registry::new());
                    let server = MetricsServer::bind(addr.as_str(), Arc::clone(&registry))
                        .map_err(|e| format!("cannot bind --metrics-addr {addr}: {e}"))?;
                    eprintln!("serving metrics at http://{}/metrics", server.local_addr());
                    Some((server, registry))
                }
                None => None,
            };
            let registry = server.as_ref().map(|(_, r)| Arc::clone(r));
            if let Some(plan) = &opts.chaos {
                eprintln!(
                    "chaos plan {plan}: schedule digest {:016x}",
                    plan.schedule_digest(4096)
                );
            }
            let mut stream_error = false;
            if let Some(workers) = opts.cluster {
                let mut copts = cluster::ClusterOptions::new(
                    workers,
                    env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?,
                    vec!["cluster-worker".to_string()],
                );
                copts.registry = registry;
                let report = match &bytes {
                    Some(bytes) => cluster::cluster_replay_pcap(&spec, bytes, opts.replay, &copts),
                    None => cluster::cluster_replay(&spec, &copts),
                }
                .map_err(|e| format!("monitor: {e}"))?;
                stream_error = report.stream_error.is_some();
                println!("{report}");
            } else if let Some(bytes) = &bytes {
                let report = live::replay_pcap(&spec, bytes, opts.replay, registry)
                    .map_err(|e| format!("monitor: {e}"))?;
                stream_error = report.outcome.stream_error.is_some();
                println!("{report}");
            } else {
                let report = live::replay(&spec, registry).map_err(|e| format!("monitor: {e}"))?;
                println!("{report}");
            }
            if let Some((_server, _)) = server {
                // Keep the endpoint up so a scraper can read the final
                // counters after the report; exit via SIGINT/SIGTERM.
                eprintln!("metrics endpoint stays up until the process is killed");
                loop {
                    std::thread::park();
                }
            }
            if stream_error {
                // The capture tail was abandoned: verdicts above are
                // honest but incomplete, so say so in the exit code.
                return Ok(EXIT_STREAM_ERROR);
            }
        }
        "backends" => {
            let comparison = backends::compare(cfg).map_err(|e| format!("backends: {e}"))?;
            print!("{comparison}");
            if let Some(dir) = &opts.out {
                let scale = match cfg.scale {
                    Scale::Quick => "quick",
                    Scale::Default => "default",
                    Scale::Full => "full",
                };
                let path = dir.join("BENCH_backends.json");
                fs::write(&path, comparison.to_json(scale))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
        }
        "pcap-export" => {
            let spec = world(cfg.wire_spec(), opts)?;
            let bytes =
                scenario_run::export_spec_pcap(&spec).map_err(|e| format!("pcap-export: {e}"))?;
            let dir = opts.out.clone().unwrap_or_else(|| PathBuf::from("."));
            let path = dir.join("sample.pcap");
            fs::write(&path, &bytes)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {} ({} bytes)", path.display(), bytes.len());
        }
        "diagnostics" => {
            print!("{}", diagnostics::hamming_histograms(cfg));
            print!("{}", diagnostics::matching_set_sizes(cfg));
        }
        "ablations" => {
            emit(&ablations::ablation_adjustment(cfg), opts)?;
            emit(&ablations::ablation_redundancy(cfg), opts)?;
            emit(&ablations::ablation_threshold(cfg), opts)?;
            emit(&ablations::ablation_chaff_models(cfg), opts)?;
            print!("{}", ablations::ablation_phase1(cfg));
        }
        "scenarios" => {
            println!(
                "{:<16} {:<16} {:<11} {:<8}  headline",
                "name", "digest", "traffic", "backend"
            );
            for spec in stepstone_scenario::all_presets() {
                println!(
                    "{:<16} {:016x} {:<11} {:<8}  {} upstreams, {} decoys, {} pkts",
                    spec.name,
                    spec.digest(),
                    spec.traffic,
                    spec.backend,
                    spec.upstreams,
                    spec.decoys,
                    spec.packets,
                );
            }
        }
        "scenario" => {
            let name = opts
                .scenario
                .as_deref()
                .ok_or("the scenario target needs --scenario NAME|FILE.scn")?;
            let mut spec = matrix::resolve_scenario(name).map_err(CliError::Scenario)?;
            apply_decode(&mut spec, opts);
            eprintln!("scenario {} digest {:016x}", spec.name, spec.digest());
            let outcome = match &opts.pcap {
                Some(path) => {
                    let bytes = fs::read(path)
                        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                    scenario_run::run_spec_pcap(&spec, &bytes, None)
                }
                None => scenario_run::run_spec(&spec, None),
            }
            .map_err(|e| format!("scenario: {e}"))?;
            print!("{}", outcome.canonical_verdicts());
            println!("{outcome}");
            if outcome.stream_error.is_some() {
                return Ok(EXIT_STREAM_ERROR);
            }
        }
        "serve" => {
            let registry = Arc::new(Registry::new());
            let config = serve::ServeConfig {
                addr: opts.addr.clone(),
                snapshot: opts.snapshot.clone(),
            };
            let handle = serve::start(&config, &registry).map_err(|e| match e {
                serve::ServeError::Snapshot(_) => CliError::Snapshot(e.to_string()),
                _ => CliError::Usage(format!("serve: {e}")),
            })?;
            eprintln!(
                "serving sessions at http://{}/sessions",
                handle.local_addr()
            );
            if let Some(path) = &opts.snapshot {
                eprintln!("snapshotting state to {}", path.display());
            }
            // Serve until killed; the write-through snapshot means even
            // SIGKILL loses nothing that cannot recompute.
            loop {
                std::thread::park();
            }
        }
        "matrix" => {
            let options = matrix::MatrixOptions {
                scenarios: opts.scenarios.clone(),
                backends: opts.backends_axis.clone(),
                seeds: opts.seeds.clone(),
                workers: opts.workers,
                worker_exe: env::current_exe()
                    .map_err(|e| format!("cannot find own binary: {e}"))?,
            };
            let report = matrix::run_matrix(&options).map_err(CliError::Scenario)?;
            print!("{report}");
            if let Some(dir) = &opts.out {
                let path = dir.join("BENCH_scenarios.json");
                fs::write(&path, report.to_json())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
            if !report.failures.is_empty() {
                return Ok(EXIT_STREAM_ERROR);
            }
        }
        "robust-sweep" => {
            let report = robust::run_sweep().map_err(|e| format!("robust-sweep: {e}"))?;
            print!("{report}");
            if let Some(dir) = &opts.out {
                let path = dir.join("BENCH_robust.json");
                fs::write(&path, report.to_json())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
        }
        "all" => {
            print!("{}", figures::table1(cfg));
            for f in figures::all(cfg) {
                emit(&f, opts)?;
            }
            for f in figures::synthetic_all(cfg) {
                emit(&f, opts)?;
            }
            print!("{}", figures::summary(cfg));
            emit(&figures::future_loss(cfg), opts)?;
            emit(&figures::future_repack(cfg), opts)?;
            dispatch("ablations", opts)?;
            dispatch("diagnostics", opts)?;
            dispatch("extension-hops", opts)?;
            return dispatch("monitor", opts);
        }
        other => return Err(format!("unknown target {other}").into()),
    }
    Ok(0)
}

/// Applies the monitor world overrides — sizing, `--backend`,
/// `--decode`, `--chaos` — to a preset, then runs the spec validator.
fn world(mut spec: ScenarioSpec, opts: &Options) -> Result<ScenarioSpec, String> {
    if let Some(n) = opts.pairs {
        spec.upstreams = n;
    }
    if let Some(n) = opts.decoys {
        spec.decoys = n;
    }
    if let Some(n) = opts.shards {
        spec.shards = n;
    }
    if let Some(n) = opts.packets {
        spec.packets = n;
    }
    if let Some(backend) = opts.backend {
        spec.backend = backend;
    }
    apply_decode(&mut spec, opts);
    if let Some(plan) = &opts.chaos {
        spec.chaos = Some(scenario_run::chaos_key(plan));
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// The CLI decode layer overrides the spec's own `decode` key (and,
/// for robust decoding, its `erasure-budget`).
fn apply_decode(spec: &mut ScenarioSpec, opts: &Options) {
    if let Some(decode) = opts.decode {
        spec.decode = match decode.mode {
            DecodeMode::Strict => stepstone_scenario::Decode::Strict,
            DecodeMode::Robust => stepstone_scenario::Decode::Robust,
        };
        if decode.is_robust() {
            spec.erasure_budget = decode.erasure_budget;
        }
    }
}

fn emit(fig: &Figure, opts: &Options) -> Result<(), String> {
    println!("{}", fig.to_table());
    if opts.chart {
        println!("{}", fig.to_ascii_chart(64));
    }
    if let Some(dir) = &opts.out {
        let path = dir.join(format!("{}.csv", fig.id()));
        fs::write(&path, fig.to_csv())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
