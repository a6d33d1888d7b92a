//! End-to-end check of the lint binary: a seeded violation of each rule
//! must fail the pass and be reported under its id, waivers and the
//! `--rule` filter must work, SARIF must be well formed, and the real
//! workspace must be clean.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch workspace under the target dir, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fixture root");
        Self { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent"))
            .expect("create fixture dirs");
        std::fs::write(path, content).expect("write fixture file");
    }

    /// Runs `xtask lint --root <fixture> <extra..>`; returns (exit 0?,
    /// stdout).
    fn lint(&self, extra: &[&str]) -> (bool, String) {
        let mut args = vec!["lint", "--root", self.root.to_str().expect("utf-8 path")];
        args.extend_from_slice(extra);
        let output = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(&args)
            .output()
            .expect("run xtask lint");
        (
            output.status.success(),
            String::from_utf8_lossy(&output.stdout).into_owned(),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The header every library root carries.
const HEADER: &str = "#![forbid(unsafe_code)]\n\
    #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
    clippy::todo, clippy::unimplemented, clippy::allow_attributes_without_reason))]\n";

/// The no-panic half of [`HEADER`], for seeding a bad `forbid`.
fn no_panic_header() -> &'static str {
    HEADER.split_once('\n').expect("two-line header").1
}

#[test]
fn clean_workspace_exits_zero() {
    let fx = Fixture::new("clean");
    fx.write(
        "crates/good/src/lib.rs",
        &format!("{HEADER}pub fn ok() {{}}\n"),
    );
    let (ok, out) = fx.lint(&[]);
    assert!(ok, "expected exit 0 on a clean tree, got:\n{out}");
    assert!(out.contains("0 finding(s)"));
}

#[test]
fn each_seeded_rule_violation_fails_the_lint() {
    // One violation per rule (bounded_ipc once per scope it covers,
    // crate_header once per way a root can leave the crate uncovered),
    // each with a snippet of the expected message.
    let bad_forbid = |forbid: &str| format!("{}{forbid}pub fn f() {{}}\n", no_panic_header());
    let cases: Vec<(&str, &str, String, &str)> = vec![
        (
            "micros_math",
            "crates/b/src/x.rs",
            "pub fn f(d: TimeDelta) -> i64 { d.as_micros() * 2 }\n".into(),
            "raw integer arithmetic",
        ),
        (
            "ordering_comment",
            "crates/c/src/x.rs",
            "pub fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n".into(),
            "`Ordering::Relaxed`",
        ),
        (
            "bounded_queue",
            "crates/monitor/src/extra.rs",
            "pub fn f() { let (_tx, _rx) = std::sync::mpsc::channel::<u8>(); }\n".into(),
            "unbounded `mpsc::channel`",
        ),
        (
            "heartbeat_touch",
            "crates/monitor/src/drain.rs",
            "pub fn worker_drain(ctx: &Ctx) { loop { ctx.step(); } }\n".into(),
            "heartbeat",
        ),
        (
            "crate_header",
            "crates/e/src/lib.rs",
            bad_forbid(""),
            "forbid(unsafe_code)",
        ),
        (
            "crate_header",
            "crates/e/src/lib.rs",
            bad_forbid("#![cfg_attr(test, forbid(unsafe_code))]\n"),
            "forbid(unsafe_code)",
        ),
        (
            "crate_header",
            "crates/e/src/lib.rs",
            bad_forbid("#[forbid(unsafe_code)]\nmod m;\n"),
            "forbid(unsafe_code)",
        ),
        (
            "crate_header",
            "crates/e/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n".into(),
            "no-panic header",
        ),
        (
            "bounded_ipc",
            "crates/cluster/src/extra.rs",
            "pub fn f(len: u32) -> Vec<u8> { Vec::with_capacity(len as usize + MAX_HEADER) }\n"
                .into(),
            "`with_capacity`",
        ),
        (
            "bounded_ipc",
            "crates/scenario/src/extra.rs",
            "pub fn f(r: &mut impl Read) -> Vec<u8> {\n\
             \x20   let mut b = Vec::new();\n\
             \x20   r.read_to_end(&mut b);\n\
             \x20   b\n\
             }\n"
            .into(),
            "`.read_to_end()`",
        ),
        (
            "lock_order",
            "crates/monitor/src/a.rs",
            "pub fn ab(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                 let ga = a.lock().unwrap();\n\
                 let gb = b.lock().unwrap();\n\
             }\n\
             pub fn ba(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                 let gb = b.lock().unwrap();\n\
                 let ga = a.lock().unwrap();\n\
             }\n"
            .into(),
            "cycle",
        ),
        (
            "lock_order",
            "crates/monitor/src/w.rs",
            "pub fn worker(rx: &Mutex<Receiver<u8>>) {\n\
                 let guard = rx.lock().unwrap();\n\
                 let _job = guard.recv();\n\
             }\n"
            .into(),
            "held across blocking `recv()`",
        ),
        (
            "unit_flow",
            "crates/ingest/src/ts.rs",
            "pub fn skewed(ts_micros: i64, skew_nanos: i64) -> i64 { ts_micros + skew_nanos }\n"
                .into(),
            "mixed-unit",
        ),
        (
            // `dropped` is a declared ledger member that is never
            // incremented nor rendered.
            "counter_pairing",
            "crates/telemetry/src/wire.rs",
            "// conserve(jobs): enqueued = dequeued + dropped\n\
             pub fn wire(r: &Registry, s: &S) {\n\
                 r.counter(\"t_jobs_enqueued_total\", \"h\");\n\
                 r.counter(\"t_jobs_dequeued_total\", \"h\");\n\
                 s.enqueued.inc();\n\
                 s.dequeued.inc();\n\
             }\n"
            .into(),
            "`dropped`",
        ),
        (
            "counter_pairing",
            "crates/cluster/src/m.rs",
            "pub fn wire(r: &Registry) {\n\
                 let c = r.counter(\"cluster_frames_lost_total\", \"h\");\n\
                 c.inc();\n\
             }\n"
            .into(),
            "no conserve() declaration",
        ),
    ];
    for (i, (rule, path, src, snippet)) in cases.into_iter().enumerate() {
        let fx = Fixture::new(&format!("seed-{i}-{rule}"));
        fx.write("crates/good/src/lib.rs", HEADER);
        fx.write("crates/monitor/src/lib.rs", HEADER);
        fx.write(path, &src);
        let (ok, out) = fx.lint(&[]);
        assert!(!ok, "seeded {rule} violation must fail the lint:\n{out}");
        assert!(
            out.contains(&format!("[{rule}]")) && out.contains(snippet),
            "output must name {rule} with {snippet:?}:\n{out}"
        );
    }
}

#[test]
fn waivers_suppress_findings_of_both_rule_kinds() {
    let fx = Fixture::new("allow");
    fx.write(
        "crates/a/src/x.rs",
        "// lint: allow(micros_math) wire format stores raw µs\n\
         pub fn f(d: TimeDelta) -> i64 { d.as_micros() * 2 }\n",
    );
    fx.write(
        "crates/monitor/src/w.rs",
        "pub fn worker(rx: &Mutex<Receiver<u8>>) {\n\
             let guard = rx.lock().unwrap();\n\
             // lint: allow(lock_order) single consumer owns the receiver while blocked\n\
             let _job = guard.recv();\n\
         }\n",
    );
    let (ok, out) = fx.lint(&[]);
    assert!(ok, "justified findings must be suppressed:\n{out}");
}

#[test]
fn rule_filter_runs_only_that_rule() {
    let fx = Fixture::new("filter");
    // Seeds violations of unit_flow, counter_pairing and crate_header.
    fx.write(
        "crates/ingest/src/ts.rs",
        "pub fn skewed(ts_micros: i64, skew_nanos: i64) -> i64 { ts_micros + skew_nanos }\n",
    );
    fx.write(
        "crates/cluster/src/lib.rs",
        "pub fn wire(r: &Registry) { let c = r.counter(\"c_lost_total\", \"h\"); c.inc(); }\n",
    );
    let (ok, out) = fx.lint(&["--rule", "unit_flow"]);
    assert!(!ok, "{out}");
    assert!(out.contains("[unit_flow]"), "{out}");
    assert!(!out.contains("[counter_pairing]"), "{out}");
    assert!(!out.contains("[crate_header]"), "{out}");
}

#[test]
fn sarif_output_is_well_formed() {
    let fx = Fixture::new("sarif");
    fx.write(
        "crates/ingest/src/ts.rs",
        "pub fn skewed(ts_micros: i64, skew_nanos: i64) -> i64 { ts_micros + skew_nanos }\n",
    );
    let (ok, out) = fx.lint(&["--format", "sarif"]);
    assert!(!ok);
    assert!(out.contains("\"version\":\"2.1.0\""), "{out}");
    assert!(out.contains("xtask-lint"), "{out}");
    assert!(out.contains("\"ruleId\":\"unit_flow\""), "{out}");
    assert!(out.contains("crates/ingest/src/ts.rs"), "{out}");
    assert_eq!(out.matches('{').count(), out.matches('}').count());
    assert_eq!(out.matches('[').count(), out.matches(']').count());
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["check"][..],
        &["lint", "--format", "xml"],
        &["lint", "--rule", "no_such_rule"],
        &["lint", "--fix"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(args)
            .output()
            .expect("run xtask");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn real_workspace_is_clean() {
    // The repo itself must satisfy its own invariants: run the pass
    // against the actual workspace this test compiled from.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root", root.to_str().expect("utf-8 path")])
        .output()
        .expect("run xtask lint");
    assert!(
        output.status.success(),
        "workspace must be lint-clean:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
}
