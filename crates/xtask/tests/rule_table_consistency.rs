//! Self-consistency of the rule inventory: the `RULES` /
//! `ANALYZE_RULES` arrays (observed through the binary's JSON output),
//! the markdown tables in the two module docs, and the README rules
//! table must all list the same ids — and the English count words in
//! the prose ("Seven rules", "Four rules") must match reality, so a
//! future rule can't land in one place and silently miss the others.

use std::path::Path;
use std::process::Command;

/// Runs the xtask binary on an empty root and returns the rule ids
/// from the JSON `counts` object (one per registered rule, present
/// even at zero).
fn binary_rule_ids(subcommand: &str) -> Vec<String> {
    // One root per test thread: tests run in parallel, and two tests
    // sharing a root race its removal against the other's scan.
    let thread = std::thread::current().id();
    let root =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("consistency-{subcommand}-{thread:?}"));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create empty root");
    let output = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args([
            subcommand,
            "--format",
            "json",
            "--root",
            root.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("run xtask");
    assert!(output.status.success(), "empty root must be clean");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let counts_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("\"counts\""))
        .expect("json output has a counts object");
    // `"counts": {"a": 0, "b": 0}` — the quoted strings after the key
    // are exactly the rule ids.
    let body = counts_line.split_once('{').expect("counts is an object").1;
    let mut ids: Vec<String> = body
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect();
    ids.sort();
    let _ = std::fs::remove_dir_all(&root);
    ids
}

/// Extracts rule ids from a module doc's markdown table: lines of the
/// form ``//! | `id` | invariant |``.
fn doc_table_ids(src: &str) -> Vec<String> {
    let mut ids: Vec<String> = src
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("//! | `"))
        .filter_map(|l| l.split('`').next())
        .map(str::to_owned)
        .collect();
    ids.sort();
    ids
}

fn read_source(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn read_readme() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    std::fs::read_to_string(&path).expect("read README.md")
}

/// Rule ids from the README's combined rules table: rows of the form
/// ``| lint | `id` | ...`` / ``| analyze | `id` | ...``.
fn readme_rule_ids(readme: &str, pass: &str) -> Vec<String> {
    let section = readme
        .split("### Static analysis rules")
        .nth(1)
        .expect("README has a Static analysis rules section")
        .split("\n## ")
        .next()
        .expect("section body");
    let prefix = format!("| {pass} | `");
    let mut ids: Vec<String> = section
        .lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str()))
        .filter_map(|l| l.split('`').next())
        .map(str::to_owned)
        .collect();
    ids.sort();
    ids
}

fn count_word(n: usize) -> &'static str {
    [
        "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
    ][n]
}

#[test]
fn lint_rule_table_matches_the_rules_array() {
    let ids = binary_rule_ids("lint");
    let doc = doc_table_ids(&read_source("src/lint.rs"));
    assert_eq!(ids, doc, "lint.rs module-doc table must list RULES exactly");
}

#[test]
fn analyze_rule_table_matches_the_rules_array() {
    let ids = binary_rule_ids("analyze");
    let doc = doc_table_ids(&read_source("src/analyze.rs"));
    assert_eq!(
        ids, doc,
        "analyze.rs module-doc table must list ANALYZE_RULES exactly"
    );
}

#[test]
fn readme_rules_table_matches_both_passes() {
    let readme = read_readme();
    assert_eq!(
        binary_rule_ids("lint"),
        readme_rule_ids(&readme, "lint"),
        "README rules table must list every lint rule"
    );
    assert_eq!(
        binary_rule_ids("analyze"),
        readme_rule_ids(&readme, "analyze"),
        "README rules table must list every analyze rule"
    );
}

#[test]
fn count_words_in_prose_match_rule_counts() {
    let word = count_word(binary_rule_ids("lint").len());
    let lint_src = read_source("src/lint.rs").to_lowercase();
    assert!(
        lint_src.contains(&format!("{word} rules")),
        "lint.rs prose must say \"{word} rules\""
    );
    let word = count_word(binary_rule_ids("analyze").len());
    let analyze_src = read_source("src/analyze.rs").to_lowercase();
    assert!(
        analyze_src.contains(&format!("{word} rules")),
        "analyze.rs prose must say \"{word} rules\""
    );
}

#[test]
fn readme_lane_count_word_matches_the_lanes_table() {
    let readme = read_readme();
    let lanes_section = readme
        .split("## Verification lanes")
        .nth(1)
        .expect("README has a Verification lanes section")
        .split("###")
        .next()
        .expect("section body");
    let lane_rows = lanes_section
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| Lane") && !l.starts_with("|--"))
        .count();
    let word = count_word(lane_rows);
    assert!(
        lanes_section.contains(&format!("{word} additional gates")),
        "README must say \"{word} additional gates\" for {lane_rows} lanes"
    );
}
