//! Finding output: human text and SARIF.
//!
//! The SARIF output is minimal SARIF 2.1.0 — one run, one driver whose
//! `rules` array lists every rule that ran, one result per finding —
//! enough for GitHub code-scanning annotations.

use crate::json::{obj, Value};
use crate::lint::Finding;

/// Renders findings as `path:line: [rule] message` lines, matching
/// compiler-diagnostic conventions so editors can jump to them, then a
/// one-line summary.
pub fn text(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.path, f.line, f.rule, f.message
        ));
    }
    out.push_str(&format!(
        "xtask lint: {} finding(s) across {} file(s) scanned\n",
        findings.len(),
        files_scanned
    ));
    out
}

/// Renders findings as a minimal SARIF 2.1.0 document (one run, one
/// result per finding) for GitHub code-scanning upload.
pub fn sarif(rules: &[&str], findings: &[Finding]) -> String {
    let rule_objs: Vec<Value> = rules
        .iter()
        .map(|r| {
            obj(vec![
                ("id", Value::Str((*r).to_string())),
                (
                    "name",
                    Value::Str(r.split('_').map(capitalize).collect::<String>()),
                ),
            ])
        })
        .collect();
    let results: Vec<Value> = findings
        .iter()
        .map(|f| {
            obj(vec![
                ("ruleId", Value::Str(f.rule.to_string())),
                ("level", Value::Str("error".to_string())),
                (
                    "message",
                    obj(vec![("text", Value::Str(f.message.clone()))]),
                ),
                (
                    "locations",
                    Value::Arr(vec![obj(vec![(
                        "physicalLocation",
                        obj(vec![
                            (
                                "artifactLocation",
                                obj(vec![("uri", Value::Str(f.path.clone()))]),
                            ),
                            (
                                "region",
                                obj(vec![("startLine", Value::Num(f.line as i64))]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    let doc = obj(vec![
        (
            "$schema",
            Value::Str("https://json.schemastore.org/sarif-2.1.0.json".to_string()),
        ),
        ("version", Value::Str("2.1.0".to_string())),
        (
            "runs",
            Value::Arr(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", Value::Str("xtask-lint".to_string())),
                            ("rules", Value::Arr(rule_objs)),
                        ]),
                    )]),
                ),
                ("results", Value::Arr(results)),
            ])]),
        ),
    ]);
    doc.render() + "\n"
}

fn capitalize(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "unit_flow",
            path: "crates/ingest/src/pcap.rs".to_string(),
            line: 110,
            message: "`a_us` with a \"quoted\" name".to_string(),
        }]
    }

    #[test]
    fn text_is_compiler_style() {
        let t = text(&sample(), 3);
        assert!(t.starts_with("crates/ingest/src/pcap.rs:110: [unit_flow]"));
        assert!(t.contains("xtask lint: 1 finding(s) across 3 file(s)"));
    }

    #[test]
    fn sarif_lists_rules_and_locates_findings() {
        let s = sarif(&["lock_order", "unit_flow"], &sample());
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains(
            "\"driver\":{\"name\":\"xtask-lint\",\"rules\":[\
             {\"id\":\"lock_order\",\"name\":\"LockOrder\"},\
             {\"id\":\"unit_flow\",\"name\":\"UnitFlow\"}]}"
        ));
        assert!(s.contains(
            "\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"crates/ingest/src/pcap.rs\"},\
             \"region\":{\"startLine\":110}}"
        ));
        assert!(s.contains("\\\"quoted\\\""));
    }
}
