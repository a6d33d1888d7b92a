//! Self-consistency of the rule inventory: the `RULES` array (observed
//! through the SARIF `tool.driver.rules` array the binary emits), the
//! markdown table in the `lint` module docs, and the README rules table
//! must all list the same ids — and the English count words in the
//! prose ("Nine rules", "six additional gates") must match reality, so
//! a future rule or lane can't land in one place and silently miss the
//! others.

use std::path::Path;
use std::process::Command;

/// Runs the binary on an empty root and returns the rule ids of the
/// SARIF run's `tool.driver.rules` array.
fn binary_rule_ids() -> Vec<String> {
    // One root per test thread: tests run in parallel, and two tests
    // sharing a root race its removal against the other's scan.
    let thread = std::thread::current().id();
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("consistency-{thread:?}"));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create empty root");
    let output = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args([
            "lint",
            "--format",
            "sarif",
            "--root",
            root.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("run xtask");
    assert!(output.status.success(), "empty root must be clean");
    let _ = std::fs::remove_dir_all(&root);
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    // `"rules":[{"id":"a","name":"A"},{"id":"b",..}]` — the values of
    // the `id` keys inside the array are exactly the rule ids.
    let rules = stdout
        .split_once("\"rules\":[")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("SARIF driver has a rules array")
        .0;
    let mut ids: Vec<String> = rules
        .split("\"id\":\"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .map(str::to_owned)
        .collect();
    ids.sort();
    ids
}

/// Extracts rule ids from the `lint` module doc's markdown table:
/// lines of the form ``//! | `id` | invariant |``.
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

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Rule ids from the README's rules table: rows of the form
/// ``| `id` | scope | invariant |``.
fn readme_rule_ids(readme: &str) -> Vec<String> {
    let section = readme
        .split("### Static analysis rules")
        .nth(1)
        .expect("README has a Static analysis rules section")
        .split("\n## ")
        .next()
        .expect("section body");
    let mut ids: Vec<String> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
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
fn module_doc_table_matches_the_rules_array() {
    assert_eq!(
        binary_rule_ids(),
        doc_table_ids(&read("src/lint.rs")),
        "lint.rs module-doc table must list RULES exactly"
    );
}

#[test]
fn readme_rules_table_matches_the_rules_array() {
    assert_eq!(
        binary_rule_ids(),
        readme_rule_ids(&read("../../README.md")),
        "README rules table must list every rule"
    );
}

#[test]
fn count_word_in_prose_matches_rule_count() {
    let word = count_word(binary_rule_ids().len());
    assert!(
        read("src/lint.rs")
            .to_lowercase()
            .contains(&format!("{word} rules")),
        "lint.rs prose must say \"{word} rules\""
    );
}

#[test]
fn readme_lane_count_word_matches_the_lanes_table() {
    let readme = read("../../README.md");
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
