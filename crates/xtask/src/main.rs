//! `cargo xtask` — workspace automation.
//!
//! ```text
//! cargo xtask lint [--format text|sarif] [--root DIR] [--rule ID]
//! ```
//!
//! `lint` is the workspace's one static-analysis pass: per-file rules
//! over every Rust source file, and cross-file rules over the
//! `cluster`, `ingest`, `monitor` and `telemetry` crates (see the
//! [`lint`] module docs and DESIGN.md §"Static analysis & invariants").
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error. There is
//! deliberately no `--fix`: CI runs deny-by-default and violations are
//! fixed (or justified inline) by hand.

#![forbid(unsafe_code)]

mod cross;
mod graph;
mod json;
mod lexer;
mod lint;
mod parse;
mod report;
mod workspace;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask lint [--format text|sarif] [--root DIR] [--rule ID]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Parses `args`, runs the pass and prints the report. `Ok(true)` when
/// no rule found anything.
fn run(args: &[String]) -> Result<bool, String> {
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("lint") {
        return Err(USAGE.to_string());
    }
    let (mut sarif, mut root, mut rules) = (false, None, lint::RULES.to_vec());
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.next().map(String::as_str)) {
            ("--format", Some("text")) => sarif = false,
            ("--format", Some("sarif")) => sarif = true,
            ("--format", other) => {
                return Err(format!("--format expects `text` or `sarif`, got {other:?}"))
            }
            ("--root", Some(dir)) => root = Some(PathBuf::from(dir)),
            ("--rule", Some(id)) => match lint::RULES.iter().find(|r| **r == id) {
                Some(r) => rules = vec![r],
                None => {
                    return Err(format!(
                        "unknown rule {id:?}; known rules: {}",
                        lint::RULES.join(", ")
                    ))
                }
            },
            (flag @ ("--root" | "--rule"), None) => return Err(format!("{flag} expects a value")),
            (other, _) => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => default_root()
            .ok_or_else(|| "could not locate the workspace root; pass --root".to_string())?,
    };
    let pass = lint::run(&root, &rules)?;
    let rendered = if sarif {
        report::sarif(&rules, &pass.findings)
    } else {
        report::text(&pass.findings, pass.files)
    };
    print!("{rendered}");
    Ok(pass.findings.is_empty())
}

/// The workspace root: `$CARGO_MANIFEST_DIR/../..` when run via
/// `cargo xtask`, else the nearest ancestor of the current directory
/// whose `Cargo.toml` declares `[workspace]`.
fn default_root() -> Option<PathBuf> {
    if let Ok(manifest_dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let candidate = PathBuf::from(&manifest_dir).join("../..");
        if let Ok(canon) = candidate.canonicalize() {
            return Some(canon);
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
