//! The cross-file rules of the lint pass: `lock_order`, `unit_flow`
//! and `counter_pairing` (the rule table lives in the [`lint`]
//! module docs).
//!
//! Where the per-file rules check one token stream at a time, these
//! parse every `src/` file of [`ANALYZED_CRATES`] into
//! [`FileFacts`], link them into a workspace symbol graph
//! ([`crate::graph::Graph`]), and evaluate graph-level rules. Waivers
//! use the same `// lint: allow(<rule>) <reason>` comments as the
//! per-file rules.
//!
//! [`lint`]: crate::lint

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{lock_cycles, Graph};
use crate::lint::{FileClass, Finding};
use crate::parse::FileFacts;

/// Crates whose `src/` trees feed the cross-file rules.
pub const ANALYZED_CRATES: [&str; 4] = ["cluster", "ingest", "monitor", "telemetry"];

/// Registered counter name tokens that mark a conservation ledger
/// side; any counter carrying one must belong to a `conserve()`
/// family.
const LEDGER_TOKENS: [&str; 7] = [
    "_sent",
    "_acked",
    "_enqueued",
    "_dequeued",
    "_dropped",
    "_lost",
    "_rejected",
];

/// `true` for the files whose facts feed the cross-file rules.
pub fn in_scope(class: &FileClass) -> bool {
    ANALYZED_CRATES.contains(&class.crate_dir.as_str()) && class.rel_path.contains("/src/")
}

/// Evaluates one cross-file rule (by id) over the analyzed files'
/// facts. Per-file ids are a no-op here.
pub fn run_rule(rule: &str, files: &[FileFacts]) -> Vec<Finding> {
    match rule {
        "lock_order" => rule_lock_order(files),
        "unit_flow" => rule_unit_flow(files),
        "counter_pairing" => rule_counter_pairing(files),
        _ => Vec::new(),
    }
}

fn finding(rule: &'static str, path: &str, line: usize, message: String) -> Finding {
    Finding {
        rule,
        path: path.to_string(),
        line,
        message,
    }
}

fn facts_for<'a>(files: &'a [FileFacts], path: &str) -> Option<&'a FileFacts> {
    files.iter().find(|f| f.rel_path == path)
}

// ---------------------------------------------------------------------
// lock_order
// ---------------------------------------------------------------------

fn rule_lock_order(files: &[FileFacts]) -> Vec<Finding> {
    let g = Graph::build(files);
    let mut out = Vec::new();

    for cycle in lock_cycles(&g.lock_edges()) {
        // A waiver on any acquisition site in the cycle breaks it.
        let waived = cycle.iter().any(|e| {
            facts_for(files, &e.rel_path).is_some_and(|f| f.allowed("lock_order", e.line))
        });
        if waived {
            continue;
        }
        let chain = cycle
            .iter()
            .map(|e| match &e.via {
                Some(via) => format!("{} -> {} (via {via})", e.held, e.acquired),
                None => format!("{} -> {}", e.held, e.acquired),
            })
            .collect::<Vec<_>>()
            .join(", ");
        let anchor = &cycle[0];
        out.push(finding(
            "lock_order",
            &anchor.rel_path,
            anchor.line,
            format!("lock acquisition-order cycle (potential deadlock): {chain}"),
        ));
    }

    let mut seen = BTreeSet::new();
    for (lock, block, path, line, via) in g.blocking_while_held() {
        if !seen.insert((lock.clone(), block.clone(), path.clone(), line)) {
            continue;
        }
        if facts_for(files, &path).is_some_and(|f| f.allowed("lock_order", line)) {
            continue;
        }
        let how = match via {
            Some(via) => format!("through `{via}`"),
            None => "directly".to_string(),
        };
        out.push(finding(
            "lock_order",
            &path,
            line,
            format!(
                "lock `{lock}` is held across blocking `{block}()` {how}; \
                 drop the guard before blocking or waive with a reason"
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------
// unit_flow
// ---------------------------------------------------------------------

fn rule_unit_flow(files: &[FileFacts]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        for (line, message) in &f.unit_findings {
            if !f.allowed("unit_flow", *line) {
                out.push(finding("unit_flow", &f.rel_path, *line, message.clone()));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// counter_pairing
// ---------------------------------------------------------------------

fn rule_counter_pairing(files: &[FileFacts]) -> Vec<Finding> {
    let mut out = Vec::new();
    // Registered metric names across every analyzed crate (the
    // "rendered on /metrics" witness).
    let all_metrics: Vec<&(String, usize, bool)> =
        files.iter().flat_map(|f| &f.metric_names).collect();
    // Mutations and declared members, per crate.
    let mut mutated: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut members: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for f in files {
        for (m, _) in &f.mutations {
            mutated.entry(&f.crate_dir).or_default().insert(m);
        }
        for decl in &f.conserves {
            for m in &decl.members {
                members.entry(&f.crate_dir).or_default().insert(m);
            }
        }
    }

    for f in files {
        for decl in &f.conserves {
            if f.allowed("counter_pairing", decl.line) {
                continue;
            }
            for member in &decl.members {
                let is_mutated = mutated.get(f.crate_dir.as_str()).is_some_and(|set| {
                    set.iter()
                        .any(|m| *m == member || m.contains(member.as_str()))
                });
                if !is_mutated {
                    out.push(finding(
                        "counter_pairing",
                        &f.rel_path,
                        decl.line,
                        format!(
                            "conserve({}) member `{member}` is never incremented in \
                             crate `{}` — one side of the ledger can drift silently",
                            decl.family, f.crate_dir
                        ),
                    ));
                }
                let is_rendered = all_metrics
                    .iter()
                    .any(|(name, _, _)| name.contains(member.as_str()));
                if !is_rendered {
                    out.push(finding(
                        "counter_pairing",
                        &f.rel_path,
                        decl.line,
                        format!(
                            "conserve({}) member `{member}` is not rendered on /metrics \
                             (no registered metric name contains it)",
                            decl.family
                        ),
                    ));
                }
            }
        }
    }

    // Sweep: registered counters that look like ledger sides must be
    // covered by a conserve() declaration in their crate.
    for f in files {
        for (name, line, is_counter) in &f.metric_names {
            if !is_counter {
                continue;
            }
            let Some(token) = LEDGER_TOKENS.iter().find(|t| name.contains(*t)) else {
                continue;
            };
            let covered = members
                .get(f.crate_dir.as_str())
                .is_some_and(|set| set.iter().any(|m| name.contains(*m)));
            if !covered && !f.allowed("counter_pairing", *line) {
                out.push(finding(
                    "counter_pairing",
                    &f.rel_path,
                    *line,
                    format!(
                        "counter `{name}` carries ledger token `{token}` but no \
                         conserve() declaration in crate `{}` covers it — declare \
                         the family or waive with a reason",
                        f.crate_dir
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::tests::facts;

    #[test]
    fn lock_order_flags_cycles_and_blocking() {
        let files = vec![
            facts(
                "crates/monitor/src/a.rs",
                "fn ab(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                     let ga = a.lock().unwrap();\n\
                     let gb = b.lock().unwrap();\n\
                 }\n\
                 fn holds(rx: &Mutex<Receiver<u8>>) {\n\
                     let g = rx.lock().unwrap();\n\
                     let item = g.recv();\n\
                 }\n",
            ),
            facts(
                "crates/monitor/src/b.rs",
                "fn ba(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                     let gb = b.lock().unwrap();\n\
                     let ga = a.lock().unwrap();\n\
                 }\n",
            ),
        ];
        let found = rule_lock_order(&files);
        assert!(
            found.iter().any(|f| f.message.contains("cycle")),
            "{found:?}"
        );
        assert!(found
            .iter()
            .any(|f| f.message.contains("held across blocking `recv()`")));
    }

    #[test]
    fn lock_order_waiver_suppresses() {
        let files = vec![facts(
            "crates/monitor/src/a.rs",
            "fn holds(rx: &Mutex<Receiver<u8>>) {\n\
                 let g = rx.lock().unwrap();\n\
                 // lint: allow(lock_order) shared hand-off; watchdog covers stalls\n\
                 let item = g.recv();\n\
             }\n",
        )];
        assert!(rule_lock_order(&files).is_empty());
    }

    #[test]
    fn counter_pairing_catches_missing_increment_and_render() {
        let files = vec![facts(
            "crates/monitor/src/m.rs",
            "// conserve(queue): enqueued = dequeued + depth\n\
             fn wire(r: &Registry) {\n\
                 r.counter(\"m_enqueued_total\", \"h\");\n\
                 r.counter(\"m_dequeued_total\", \"h\");\n\
             }\n\
             fn bump(s: &S) { s.enqueued.inc(); s.dequeued.inc(); }\n",
        )];
        let found = rule_counter_pairing(&files);
        // `depth` is neither mutated nor rendered: two findings.
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|f| f.message.contains("`depth`")));
    }

    #[test]
    fn counter_pairing_sweep_catches_undeclared_ledger_counter() {
        let files = vec![facts(
            "crates/cluster/src/m.rs",
            "fn wire(r: &Registry) {\n\
                 let c = r.counter(\"cluster_frames_dropped_total\", \"h\");\n\
                 c.inc();\n\
             }\n",
        )];
        let found = rule_counter_pairing(&files);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("_dropped"));
    }

    #[test]
    fn counter_pairing_clean_family_is_silent() {
        let files = vec![facts(
            "crates/cluster/src/m.rs",
            "// conserve(frames): frames_sent = frames_acked + frames_dropped\n\
             fn wire(r: &Registry, s: &mut S) {\n\
                 r.counter(\"cluster_frames_sent_total\", \"h\");\n\
                 r.counter(\"cluster_frames_acked_total\", \"h\");\n\
                 r.counter(\"cluster_frames_dropped_total\", \"h\");\n\
                 s.frames_sent += 1;\n\
                 s.frames_acked += 1;\n\
                 s.frames_dropped += 1;\n\
             }\n",
        )];
        assert!(rule_counter_pairing(&files).is_empty());
    }
}
