//! `verdict-bench`: runs one workload of the capture-to-verdict
//! benchmark and prints its metrics, the last stdout line being one
//! JSON object.
//!
//! ```text
//! verdict-bench --workload stress-8192 [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics. With `--trace 1`
//! it runs one untraced pass, then traced passes, and reports the
//! per-layer metrics, a self-time table and the tracing overhead; the
//! spans go to `DIR/<workload>.spans.tsv`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stepstone_verdict_bench::corpus::Corpus;
use stepstone_verdict_bench::pass::{self, Pass, LATENCY_QUANTILES};
use stepstone_verdict_bench::trace::{NoSpans, Tracer};
use stepstone_verdict_bench::{median, offline_decode, Workload, WORKLOADS};

/// Extra stand-alone set-ups per run, on top of each pass's own, so
/// `setup_s` is a median of many samples even when a run fits one
/// pass. One set-up takes a few milliseconds.
const SETUP_REPS: usize = 40;

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: verdict-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// What the result is stamped with, so a number names its host.
struct Host {
    nproc: usize,
    cpu: String,
    rustc: &'static str,
    commit: String,
    source_digest: String,
}

impl Host {
    fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // Only a checkout that is itself a git work tree names its
        // commit; the source digest identifies the measured code either
        // way.
        let commit = Path::new(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .output()
                    .ok()
                    .filter(|o| o.status.success())
                    .and_then(|o| String::from_utf8(o.stdout).ok())
                    .map(|s| s.trim().to_string())
            })
            .flatten()
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("VERDICT_BENCH_RUSTC"),
            commit,
            source_digest: source_digest(),
        }
    }
}

/// FNV-1a over the program's sources (`crates/**`, the root manifest
/// and lock file), walked in sorted order: the identity of the code
/// measured, also where the checkout is not a git work tree.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() => walk(&path, files),
                Ok(t) if t.is_file() => files.push(path),
                _ => {}
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        if let Ok(content) = std::fs::read(file) {
            bytes.extend_from_slice(file.to_string_lossy().as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&content);
        }
    }
    format!("{:016x}", stepstone_scenario::fnv1a(&bytes))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Renders a finite number as JSON (non-finite becomes `null`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The run's correctness check across passes.
struct Judgement {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn judge(workload: &Workload, seed: u64, upstreams: u64, passes: &[Pass]) -> Judgement {
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, p) in passes.iter().enumerate() {
        attempted += p.check.pairs;
        failed += p.check.failed_pairs;
        for problem in &p.check.problems {
            problems.push(format!("pass {i}: {problem}"));
        }
        if p.check.failed_pairs > 0 {
            problems.push(format!("pass {i}: {} failed pairs", p.check.failed_pairs));
        }
        if workload.all_true_pairs && p.check.true_correlated != upstreams {
            problems.push(format!(
                "pass {i}: {}/{upstreams} true pairs correlated",
                p.check.true_correlated
            ));
        }
        if p.check.digest != passes[0].check.digest {
            problems.push(format!(
                "pass {i}: verdict digest {:016x} differs from pass 0's {:016x}",
                p.check.digest, passes[0].check.digest
            ));
        }
    }
    if let (Some(pinned), Some(first)) = (workload.pinned_digest, passes.first()) {
        if seed == workload.default_seed() && first.check.digest != pinned {
            problems.push(format!(
                "verdict digest {:016x} differs from the pinned {pinned:016x}",
                first.check.digest
            ));
        }
    }
    Judgement {
        problems,
        attempted,
        failed,
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let host = Host::probe();
    let workload = args.workload;
    let spec = workload.spec(args.seed).map_err(|e| e.to_string())?;
    println!(
        "host: nproc {} | cpu {} | {} | commit {} | source {}",
        host.nproc, host.cpu, host.rustc, host.commit, host.source_digest
    );
    println!(
        "workload {} seed {} trace {} budget {}s: {spec}",
        workload.name,
        spec.seed,
        u8::from(args.trace),
        args.seconds
    );

    let t = Instant::now();
    let corpus = Corpus::generate(&spec).map_err(|e| e.to_string())?;
    let gen_corpus_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let capture = corpus.capture().map_err(|e| e.to_string())?;
    let gen_capture_s = t.elapsed().as_secs_f64();
    println!(
        "gen.corpus_s {gen_corpus_s:.3} s | gen.capture_s {gen_capture_s:.3} s | capture {} bytes",
        capture.len()
    );

    let mut setup_samples = Vec::with_capacity(SETUP_REPS + 16);
    for _ in 0..SETUP_REPS {
        let (monitor, setup_s) = pass::set_up(&corpus, &mut NoSpans, None)?;
        drop(monitor);
        setup_samples.push(setup_s);
    }

    // Passes repeat while the next one is expected to end no more than
    // half a pass past the budget, so a run lasts about the budget even
    // when one pass is a large share of it. The traced run needs one
    // untraced pass to compare against.
    let records: usize = corpus.suspicious.iter().map(|(_, f)| f.len()).sum();
    let budget = Duration::from_secs_f64(args.seconds);
    let min_passes = if args.trace { 2 } else { 1 };
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut tracer: Option<Tracer> = None;
    let mut layer_times: Vec<[f64; 6]> = Vec::new();
    loop {
        let pass_started = Instant::now();
        let p = if args.trace && !passes.is_empty() {
            // Only the last traced pass's spans are kept.
            drop(tracer.take());
            let mut t =
                Tracer::with_capacity(3 * records + records / 256 + 3 * spec.upstreams + 16);
            let p = pass::run(&corpus, &capture, &mut t)?;
            let rows = t.self_times();
            let total = |names: &[&str]| -> f64 {
                rows.iter()
                    .filter(|r| names.contains(&r.name))
                    .map(|r| r.total_ns as f64 / 1e9)
                    .sum()
            };
            layer_times.push([
                total(&["core.bind"]),
                total(&["monitor.new", "monitor.register_upstream"]),
                total(&["ingest.open", "ingest.parse"]),
                total(&["ingest.demux"]),
                total(&["monitor.ingest"]),
                median(
                    &t.spans()
                        .iter()
                        .filter(|s| s.name == "monitor.ingest")
                        .map(|s| s.duration_ns() as f64 / 1e3)
                        .collect::<Vec<_>>(),
                ),
            ]);
            tracer = Some(t);
            p
        } else {
            pass::run(&corpus, &capture, &mut NoSpans)?
        };
        setup_samples.push(p.setup_s);
        // Only the latest pass's flows feed the offline decode; earlier
        // ones would only inflate the next pass's resident set.
        if let Some(previous) = passes.last_mut() {
            previous.flows = Vec::new();
        }
        passes.push(p);
        let last = pass_started.elapsed();
        if passes.len() >= min_passes && started.elapsed() + last / 2 > budget {
            break;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();

    let upstreams = spec.upstreams as u64;
    let judgement = judge(&workload, spec.seed, upstreams, &passes);
    let first = &passes[0];
    println!(
        "passes {} in {measured_s:.2} s | records {} | verdict digest {:016x} | {} correlated, {} cleared, {} degraded, {}/{} true pairs",
        passes.len(),
        first.records,
        first.check.digest,
        first.check.correlated,
        first.check.cleared,
        first.check.degraded,
        first.check.true_correlated,
        upstreams
    );
    let per_pass: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", p.pkts_per_s()))
        .collect();
    println!("pkts_per_s by pass: {}", per_pass.join(" "));
    let counts_stable = passes.iter().all(|p| {
        p.stats.decodes_run == first.stats.decodes_run
            && p.stats.decodes_scheduled == first.stats.decodes_scheduled
    });
    println!(
        "decodes run {} (scheduled {}), identical across passes: {}",
        first.stats.decodes_run,
        first.stats.decodes_scheduled,
        if counts_stable { "yes" } else { "no" }
    );

    let latency = |i: usize| median(&passes.iter().map(|p| p.latency_us[i]).collect::<Vec<_>>());
    let metrics = if args.trace {
        let traced = &passes[1..];
        let untraced_pps = passes[0].pkts_per_s();
        let traced_pps = median(&traced.iter().map(Pass::pkts_per_s).collect::<Vec<_>>());
        let col = |i: usize| median(&layer_times.iter().map(|r| r[i]).collect::<Vec<_>>());
        let last = traced.last().expect("at least one traced pass");
        let wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let busy = median(&traced.iter().map(Pass::decode_busy_s).collect::<Vec<_>>());
        let decodes = last.decode_count.max(1) as f64;
        let terminal = (last.check.correlated + last.check.cleared + last.check.degraded).max(1);
        let t = Instant::now();
        let offline = offline_decode(&corpus, &last.flows)?;
        println!(
            "offline decode of {} pairs in {:.2} s",
            offline.decodes,
            t.elapsed().as_secs_f64()
        );
        let ingest_s = col(4);
        vec![
            metric("core.bind_s", col(0), "s"),
            metric("monitor.start_s", col(1), "s"),
            metric("ingest.parse_s", col(2), "s"),
            metric("ingest.demux_s", col(3), "s"),
            metric("ingest.records", last.records as f64, "count"),
            metric("ingest.flows", last.flows.len() as f64, "count"),
            metric("monitor.ingest_s", ingest_s, "s"),
            metric("monitor.ingest_share", ingest_s / wall, "share"),
            metric("monitor.ingest_p50_us", col(5), "us"),
            metric(
                "monitor.decodes_scheduled",
                last.stats.decodes_scheduled as f64,
                "count",
            ),
            metric(
                "monitor.decodes_run",
                last.stats.decodes_run as f64,
                "count",
            ),
            metric(
                "monitor.decodes_per_pair",
                last.stats.decodes_run as f64 / terminal as f64,
                "ratio",
            ),
            metric(
                "monitor.pairs_latched",
                last.stats.pairs_latched as f64,
                "count",
            ),
            metric(
                "monitor.verdicts_cleared",
                last.check.cleared as f64,
                "count",
            ),
            metric(
                "monitor.verdicts_degraded",
                last.check.degraded as f64,
                "count",
            ),
            metric(
                "monitor.shard_busy_share",
                busy / (spec.shards as f64 * wall),
                "share",
            ),
            metric("backends.decode_busy_s", busy, "s"),
            metric(
                "backends.decode_mean_us",
                last.decode_sum_us as f64 / decodes,
                "us",
            ),
            metric("backends.final_decode_p50_us", offline.p50_us, "us"),
            metric(
                "backends.packets_accessed",
                offline.packets_accessed as f64,
                "count",
            ),
            metric(
                "matching.packets_accessed",
                offline.matching_packets_accessed as f64,
                "count",
            ),
            metric(
                "matching.abort_share",
                offline.aborted as f64 / offline.decodes.max(1) as f64,
                "share",
            ),
            // Per-packet loop time of the untraced pass: recorded, but
            // too dependent on host CPU speed to carry a bound.
            metric("replay.pkt_p50_us", passes[0].latency_us[0], "us"),
            metric("replay.pkt_p999_us", passes[0].latency_us[6], "us"),
            metric("trace.pkts_per_s_ratio", traced_pps / untraced_pps, "ratio"),
        ]
    } else {
        vec![
            metric("setup_s", median(&setup_samples), "s"),
            metric(
                "pkts_per_s",
                median(&passes.iter().map(Pass::pkts_per_s).collect::<Vec<_>>()),
                "1/s",
            ),
            metric(
                "flush_ms",
                median(&passes.iter().map(|p| p.flush_s * 1e3).collect::<Vec<_>>()),
                "ms",
            ),
            metric(
                "peak_rss_mb",
                median(
                    &passes
                        .iter()
                        .map(|p| p.peak_rss_kb as f64 / 1024.0)
                        .collect::<Vec<_>>(),
                ),
                "MB",
            ),
        ]
    };

    println!(
        "failed_share {} ({} failed of {} attempted pairs)",
        judgement.failed as f64 / judgement.attempted.max(1) as f64,
        judgement.failed,
        judgement.attempted
    );
    if !args.trace {
        let tail: Vec<String> = LATENCY_QUANTILES
            .iter()
            .enumerate()
            .map(|(i, q)| format!("p{} {:.1}", q * 100.0, latency(i)))
            .collect();
        let samples: u64 = passes.iter().map(|p| p.records).sum();
        println!(
            "pkt latency: {samples} samples in {} passes (p99.9 of one pass has {} beyond it); medians over passes, us: {}; setup samples {}",
            passes.len(),
            passes[0].records / 1000,
            tail.join(" "),
            setup_samples.len()
        );
    }
    if passes.iter().any(|p| !p.rss_reset) {
        println!(
            "note: the OS cannot reset the peak RSS, so peak_rss_mb includes input generation"
        );
    }
    for m in &metrics {
        println!("metric {:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    if let Some(t) = &tracer {
        print_self_times(t);
        let traced = median(&passes[1..].iter().map(Pass::pkts_per_s).collect::<Vec<_>>());
        println!(
            "tracing overhead: traced {traced:.0} pkt/s vs untraced {:.0} pkt/s",
            passes[0].pkts_per_s()
        );
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let path = args.out.join(format!("{}.spans.tsv", workload.name));
        std::fs::write(&path, t.to_tsv()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    for problem in &judgement.problems {
        println!("CHECK FAILED: {problem}");
    }
    let correct = judgement.problems.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        judgement.attempted,
        judgement.failed,
        metrics_json(&metrics)
    );
    write_record(args, &host, &spec, gen_corpus_s, gen_capture_s, &result)?;
    println!("{result}");
    Ok(correct)
}

fn print_self_times(tracer: &Tracer) {
    let rows = tracer.self_times();
    let wall: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    println!("self time of the last traced pass, by layer:");
    println!(
        "  {:<28} {:>10} {:>12} {:>12} {:>7}",
        "span", "count", "total_s", "self_s", "self%"
    );
    for r in rows {
        println!(
            "  {:<28} {:>10} {:>12.6} {:>12.6} {:>6.2}%",
            r.name,
            r.count,
            r.total_ns as f64 / 1e9,
            r.self_ns as f64 / 1e9,
            100.0 * r.self_ns as f64 / wall.max(1) as f64
        );
    }
}

/// Writes the result, stamped with its host and inputs, to the output
/// directory.
fn write_record(
    args: &Args,
    host: &Host,
    spec: &stepstone_scenario::ScenarioSpec,
    gen_corpus_s: f64,
    gen_capture_s: f64,
    result: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"spec_digest\": \"{:016x}\", \
         \"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}}}, \
         \"gen\": {{\"corpus_s\": {}, \"capture_s\": {}}}, \"result\": {result}}}\n",
        json_string(args.workload.name),
        spec.seed,
        u8::from(args.trace),
        json_number(args.seconds),
        spec.digest(),
        host.nproc,
        json_string(&host.cpu),
        json_string(host.rustc),
        json_string(&host.commit),
        json_string(&host.source_digest),
        json_number(gen_corpus_s),
        json_number(gen_capture_s),
    );
    let path = args.out.join(format!(
        "{}-trace{}.json",
        args.workload.name,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("verdict-bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("verdict-bench: {e}");
            ExitCode::from(3)
        }
    }
}
