//! The workspace's one static-analysis pass: `cargo xtask lint`.
//!
//! Nine rules, each with a machine-readable id (stable — CI, SARIF and
//! the waiver mechanism key on them). The first six check one file at a
//! time, over every Rust source file in the workspace. The last three
//! parse the `src/` trees of the long-running crates
//! ([`cross::ANALYZED_CRATES`]) into a workspace symbol graph and check
//! properties that span files (see [`cross`]).
//!
//! | id | invariant |
//! |----|-----------|
//! | `micros_math` | no raw integer arithmetic on microsecond values outside `flow::time` |
//! | `ordering_comment` | every atomic `Ordering::*` use carries an `// ordering:` justification |
//! | `bounded_queue` | no unbounded channels in `monitor`; `#[bounded]`-tagged queues grow only through their choke-point method |
//! | `heartbeat_touch` | every `loop` in a `monitor` worker function refreshes the shard heartbeat at the top of each iteration |
//! | `crate_header` | every crate root declares an unconditional `#![forbid(unsafe_code)]`, and every library root also carries the no-panic clippy header |
//! | `bounded_ipc` | boundary-input code (`cluster` IPC, the `scenario` DSL, the `experiments` serve layer) never allocates or reads unboundedly from outside input: no unbounded channels, no `read_to_end`-style reads, every `with_capacity` argument is a `.min(..)` clamp, a `MAX_*` constant or an integer literal |
//! | `lock_order` | the workspace lock acquisition-order graph is acyclic, and no lock guard is held across a blocking call (`recv`, `sleep`, `wait`, frame reads) |
//! | `unit_flow` | no arithmetic or comparison mixes time units (µs/ns/ms/s as declared by binding names), and no `from_*`/`as_*` conversion is fed an operand of a different unit |
//! | `counter_pairing` | every counter family declared with `// conserve(<family>): <members>` has all members mutated in the declaring crate and rendered on `/metrics`; every registered ledger-suffixed counter belongs to a declared family |
//!
//! Checks that rustc or clippy make with real name resolution are not
//! rules here. The no-panic family is `clippy::{unwrap_used,
//! expect_used, panic, todo, unimplemented}`, denied outside tests by
//! the header that `crate_header` requires of every library root. IPC
//! dispatch exhaustiveness is rustc's match check plus
//! `#[deny(clippy::wildcard_enum_match_arm)]` on the two cluster
//! dispatch matches.
//!
//! A finding on line `L` is suppressed by a comment on `L` or `L-1` of
//! the form `// lint: allow(<rule>) <reason>` — the reason is
//! mandatory; an empty reason keeps the finding. DESIGN.md §"Static
//! analysis & invariants" documents each rule's rationale.

use std::path::Path;

use crate::cross;
use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::parse::parse_file;
use crate::workspace;

/// The stable ids of every rule, in report order.
pub const RULES: [&str; 9] = [
    "micros_math",
    "ordering_comment",
    "bounded_queue",
    "heartbeat_touch",
    "crate_header",
    "bounded_ipc",
    "lock_order",
    "unit_flow",
    "counter_pairing",
];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// How a file participates in the pass, derived from its path.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Directory name of the owning crate under `crates/`, or `"root"`
    /// for the facade crate.
    pub crate_dir: String,
    /// `true` for code reachable from the crate's library target
    /// (under `src/`, not `main.rs`/`src/bin`); raw µs math is only
    /// forbidden here, and a library root must carry the no-panic
    /// header.
    pub is_library: bool,
    /// `true` for `src/lib.rs` / `src/main.rs` / `src/bin/*` — the
    /// files `crate_header` audits.
    pub is_crate_root: bool,
}

/// The outcome of one pass.
pub struct Pass {
    /// Every finding, sorted by path/line/rule.
    pub findings: Vec<Finding>,
    /// Rust source files scanned.
    pub files: usize,
}

/// Runs `rules` over the workspace at `root`: the per-file rules over
/// every file, the cross-file rules over the analyzed crates.
pub fn run(root: &Path, rules: &[&'static str]) -> Result<Pass, String> {
    let files = workspace::workspace_files(root)
        .map_err(|err| format!("failed to walk {}: {err}", root.display()))?;
    let mut findings = Vec::new();
    let mut facts = Vec::new();
    for (class, path) in &files {
        let src = std::fs::read_to_string(path)
            .map_err(|err| format!("failed to read {}: {err}", path.display()))?;
        let lexed = lex(&src);
        let mask = test_region_mask(&lexed.toks);
        for rule in rules {
            run_rule(rule, class, &lexed, &mask, &mut findings);
        }
        if cross::in_scope(class) {
            facts.push(parse_file(class, &lexed, &mask));
        }
    }
    for rule in rules {
        findings.append(&mut cross::run_rule(rule, &facts));
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings.dedup();
    Ok(Pass {
        findings,
        files: files.len(),
    })
}

/// Runs every per-file rule over one source text (unit-test entry
/// point).
#[cfg(test)]
pub fn lint_file(class: &FileClass, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let test_mask = test_region_mask(&lexed.toks);
    let mut findings = Vec::new();
    for rule in RULES {
        run_rule(rule, class, &lexed, &test_mask, &mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup();
    findings
}

/// Runs one per-file rule (by id) over a pre-lexed file, if the file's
/// class puts it in the rule's scope. Cross-file ids are a no-op here.
fn run_rule(
    rule: &str,
    class: &FileClass,
    lexed: &Lexed,
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    match rule {
        "micros_math" if class.is_library && class.rel_path != "crates/flow/src/time.rs" => {
            rule_micros_math(class, lexed, test_mask, findings)
        }
        "ordering_comment" => rule_ordering_comment(class, lexed, findings),
        "bounded_queue" if class.crate_dir == "monitor" && class.rel_path.contains("/src/") => {
            rule_bounded_queue(class, lexed, test_mask, findings)
        }
        "heartbeat_touch" if class.crate_dir == "monitor" && class.rel_path.contains("/src/") => {
            rule_heartbeat_touch(class, lexed, test_mask, findings)
        }
        "bounded_ipc" if bounded_ipc_scope(class) => {
            rule_bounded_ipc(class, lexed, test_mask, findings)
        }
        "crate_header" if class.is_crate_root => rule_crate_header(class, lexed, findings),
        _ => {}
    }
}

/// Library files whose inputs cross a process or trust boundary and so
/// fall under [`rule_bounded_ipc`]: the `cluster` IPC layer (worker
/// stdout frames), the `scenario` crate (DSL text from files and HTTP
/// bodies), and the `experiments` serve layer (HTTP request bodies,
/// snapshot files, session channels).
fn bounded_ipc_scope(class: &FileClass) -> bool {
    (matches!(class.crate_dir.as_str(), "cluster" | "scenario") && class.rel_path.contains("/src/"))
        || class.rel_path.starts_with("crates/experiments/src/serve")
}

/// `true` when a `// lint: allow(<rule>) <reason>` comment with a
/// non-empty reason covers `line` (same line or the line above).
pub(crate) fn allowed(comments: &[(usize, String)], rule: &str, line: usize) -> bool {
    let marker = format!("lint: allow({rule})");
    comments.iter().any(|(l, text)| {
        (*l == line || *l + 1 == line)
            && text
                .find(&marker)
                .map(|at| !text[at + marker.len()..].trim().is_empty())
                == Some(true)
    })
}

fn push(
    findings: &mut Vec<Finding>,
    lexed: &Lexed,
    rule: &'static str,
    class: &FileClass,
    line: usize,
    message: String,
) {
    if !allowed(&lexed.comments, rule, line) {
        findings.push(Finding {
            rule,
            path: class.rel_path.clone(),
            line,
            message,
        });
    }
}

/// Marks every token inside a `#[test]` item or `#[cfg(test)]` item
/// body (the attribute's item extends to the matching `}`, or to the
/// first `;` for bodiless items). `#[cfg(not(test))]` is real code and
/// is not masked.
pub(crate) fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let close = match_forward(toks, i + 1, '[', ']');
            let attr = &toks[i + 2..close.min(toks.len())];
            let is_test =
                attr.iter().any(|t| t.is_ident("test")) && !attr.iter().any(|t| t.is_ident("not"));
            if is_test {
                if let Some(end) = item_end(toks, close + 1) {
                    for m in mask.iter_mut().take(end + 1).skip(i) {
                        *m = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the closing delimiter matching the opener at `open`.
/// Returns `toks.len() - 1` for unbalanced input.
pub(crate) fn match_forward(toks: &[Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Finds where the item starting at `from` ends: the matching `}` of
/// its body, or the first top-level `;` for bodiless items. Leading
/// extra attributes are skipped.
pub(crate) fn item_end(toks: &[Tok], mut from: usize) -> Option<usize> {
    while from < toks.len() {
        if toks[from].is_punct('#') && from + 1 < toks.len() && toks[from + 1].is_punct('[') {
            from = match_forward(toks, from + 1, '[', ']') + 1;
            continue;
        }
        break;
    }
    let mut j = from;
    while j < toks.len() {
        if toks[j].is_punct('{') {
            return Some(match_forward(toks, j, '{', '}'));
        }
        if toks[j].is_punct(';') {
            return Some(j);
        }
        // Skip parenthesised/bracketed groups so a `;` or `{` inside
        // them (e.g. in an array length expression) is not mistaken
        // for the item's own.
        if toks[j].is_punct('(') {
            j = match_forward(toks, j, '(', ')') + 1;
            continue;
        }
        if toks[j].is_punct('[') {
            j = match_forward(toks, j, '[', ']') + 1;
            continue;
        }
        j += 1;
    }
    None
}

const ARITH: [char; 5] = ['+', '-', '*', '/', '%'];

fn is_arith(t: &Tok) -> bool {
    ARITH.iter().any(|&c| t.is_punct(c))
}

fn rule_micros_math(class: &FileClass, lexed: &Lexed, mask: &[bool], findings: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let msg = "raw integer arithmetic on a microsecond value outside `flow::time`; \
               use `Timestamp`/`TimeDelta` operators or justify with \
               `// lint: allow(micros_math) <reason>`";
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        // `<expr>.as_micros()` adjacent to an arithmetic operator.
        if toks[i].is_ident("as_micros")
            && i > 0
            && toks[i - 1].is_punct('.')
            && i + 2 < toks.len()
            && toks[i + 1].is_punct('(')
            && toks[i + 2].is_punct(')')
        {
            let after = toks.get(i + 3);
            let operand_after = after.map(is_arith) == Some(true);
            let start = receiver_start(toks, i - 1);
            let operand_before = start > 0 && is_arith(&toks[start - 1]);
            if operand_after || operand_before {
                push(
                    findings,
                    lexed,
                    "micros_math",
                    class,
                    toks[i].line,
                    msg.to_string(),
                );
            }
        }
        // `from_micros(<expr with top-level arithmetic>)`.
        if toks[i].is_ident("from_micros") && i + 1 < toks.len() && toks[i + 1].is_punct('(') {
            let close = match_forward(toks, i + 1, '(', ')');
            let mut depth = 0usize;
            for (j, tok) in toks.iter().enumerate().take(close).skip(i + 1) {
                match () {
                    _ if tok.is_punct('(') => depth += 1,
                    _ if tok.is_punct(')') => depth -= 1,
                    // A leading unary minus is a sign, not arithmetic.
                    _ if depth == 1 && is_arith(tok) && !(j == i + 2 && tok.is_punct('-')) => {
                        push(
                            findings,
                            lexed,
                            "micros_math",
                            class,
                            tok.line,
                            msg.to_string(),
                        );
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Walks a method-call chain backwards from the `.` at `dot` to the
/// first token of the receiver expression, e.g. from the final `.` of
/// `c * s.timestamp(i).as_micros()` back to `s`.
fn receiver_start(toks: &[Tok], dot: usize) -> usize {
    let mut j = dot;
    loop {
        if j == 0 {
            return 0;
        }
        let mut k = j - 1;
        // Trailing call/index groups of this chain component.
        while toks[k].is_punct(')') || toks[k].is_punct(']') {
            let open = if toks[k].is_punct(')') {
                match_backward(toks, k, '(', ')')
            } else {
                match_backward(toks, k, '[', ']')
            };
            if open == 0 {
                return 0;
            }
            k = open - 1;
        }
        if matches!(toks[k].kind, TokKind::Ident | TokKind::Lit) {
            // The component's name, possibly `path::qualified`.
            let mut s = k;
            while s >= 3
                && toks[s - 1].is_punct(':')
                && toks[s - 2].is_punct(':')
                && toks[s - 3].kind == TokKind::Ident
            {
                s -= 3;
            }
            j = s;
        } else {
            // Bare parenthesised receiver such as `(a + b)`.
            return k + 1;
        }
        if j >= 1 && toks[j - 1].is_punct('.') {
            j -= 1;
            continue;
        }
        return j;
    }
}

/// Index of the opening delimiter matching the closer at `close`.
fn match_backward(toks: &[Tok], close: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    let mut j = close;
    loop {
        if toks[j].is_punct(close_c) {
            depth += 1;
        } else if toks[j].is_punct(open_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        if j == 0 {
            return 0;
        }
        j -= 1;
    }
}

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn rule_ordering_comment(class: &FileClass, lexed: &Lexed, findings: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("Ordering") || i + 3 >= toks.len() {
            continue;
        }
        if !(toks[i + 1].is_punct(':') && toks[i + 2].is_punct(':')) {
            continue;
        }
        let variant = &toks[i + 3];
        if variant.kind != TokKind::Ident || !ATOMIC_ORDERINGS.contains(&variant.text.as_str()) {
            continue;
        }
        let line = toks[i].line;
        let justified =
            (line.saturating_sub(2)..=line).any(|l| lexed.comment_on_line_contains(l, "ordering:"));
        if !justified {
            push(
                findings,
                lexed,
                "ordering_comment",
                class,
                line,
                format!(
                    "`Ordering::{}` without an `// ordering:` justification comment \
                     (same line or up to two lines above)",
                    variant.text
                ),
            );
        }
    }
}

fn rule_bounded_queue(
    class: &FileClass,
    lexed: &Lexed,
    mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    let toks = &lexed.toks;
    // (a) Unbounded `mpsc::channel` — monitor queues must be
    // `sync_channel` (bounded) or carry a justification.
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_ident("channel") {
            continue;
        }
        let call_like = toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
            || (toks.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
                && toks.get(i + 2).map(|t| t.is_punct(':')) == Some(true));
        if call_like {
            push(
                findings,
                lexed,
                "bounded_queue",
                class,
                toks[i].line,
                "unbounded `mpsc::channel` in the monitor crate; use a bounded \
                 `sync_channel` or justify with `// lint: allow(bounded_queue) <reason>`"
                    .to_string(),
            );
        }
    }
    // Collect `#[bounded(via = "method")]` tag comments and the field
    // each one annotates (the first identifier on a following line).
    let mut tags: Vec<(String, String, usize)> = Vec::new(); // (field, via, tag_line)
    for (line, text) in &lexed.comments {
        let Some(at) = text.find("#[bounded(via") else {
            continue;
        };
        let rest = &text[at..];
        let via = rest.split('"').nth(1).unwrap_or_default().to_string();
        let field = toks
            .iter()
            .find(|t| t.kind == TokKind::Ident && t.line > *line && t.line <= *line + 2)
            .map(|t| t.text.clone());
        if let (Some(field), false) = (field, via.is_empty()) {
            tags.push((field, via, *line));
        }
    }
    // (b) Pushes into tagged queue fields outside their choke point.
    let mut fn_stack: Vec<(String, usize)> = Vec::new(); // (fn name, depth of its `{`)
    let mut pending_fn: Option<String> = None;
    let mut depth = 0usize;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("fn") {
            if let Some(name) = toks.get(i + 1) {
                if name.kind == TokKind::Ident {
                    pending_fn = Some(name.text.clone());
                }
            }
        } else if t.is_punct('{') {
            depth += 1;
            if let Some(name) = pending_fn.take() {
                fn_stack.push((name, depth));
            }
        } else if t.is_punct('}') {
            if fn_stack.last().map(|(_, d)| *d) == Some(depth) {
                fn_stack.pop();
            }
            depth = depth.saturating_sub(1);
        } else if !mask[i]
            && t.is_ident("self")
            && i + 5 < toks.len()
            && toks[i + 1].is_punct('.')
            && toks[i + 3].is_punct('.')
            && toks[i + 5].is_punct('(')
        {
            let field = &toks[i + 2];
            let method = &toks[i + 4];
            const GROW: [&str; 6] = [
                "push",
                "push_back",
                "push_front",
                "extend",
                "append",
                "insert",
            ];
            if field.kind == TokKind::Ident && GROW.contains(&method.text.as_str()) {
                let tag = tags.iter().find(|(f, _, _)| *f == field.text);
                if let Some((_, via, _)) = tag {
                    if fn_stack.last().map(|(n, _)| n.as_str()) != Some(via.as_str()) {
                        push(
                            findings,
                            lexed,
                            "bounded_queue",
                            class,
                            t.line,
                            format!(
                                "`self.{}.{}(..)` outside `{via}`, the choke point declared \
                                 by its `#[bounded(via = \"{via}\")]` tag",
                                field.text, method.text
                            ),
                        );
                    }
                }
            }
        }
    }
    // (c) Every VecDeque field must carry a tag (or an allow).
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_ident("struct") {
            continue;
        }
        // Find the struct body `{`, skipping generics; `(` or `;`
        // means a tuple/unit struct with no named fields.
        let mut j = i + 1;
        let mut angle = 0i32;
        let body = loop {
            if j >= toks.len() {
                break None;
            }
            let t = &toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0 && t.is_punct('{') {
                break Some(j);
            } else if angle == 0 && (t.is_punct('(') || t.is_punct(';')) {
                break None;
            }
            j += 1;
        };
        let Some(open) = body else { continue };
        let close = match_forward(toks, open, '{', '}');
        let mut k = open + 1;
        let mut brace = 1i32;
        while k < close {
            let t = &toks[k];
            if t.is_punct('{') {
                brace += 1;
            } else if t.is_punct('}') {
                brace -= 1;
            } else if brace == 1
                && t.kind == TokKind::Ident
                && toks.get(k + 1).map(|n| n.is_punct(':')) == Some(true)
                && toks.get(k + 2).map(|n| n.is_punct(':')) != Some(true)
            {
                // Field `t.text` — scan its type up to the next
                // top-level comma or the struct's closing brace.
                let mut m = k + 2;
                let mut inner = 0i32;
                let mut has_deque = false;
                while m < close {
                    let u = &toks[m];
                    if u.is_punct('<') || u.is_punct('(') || u.is_punct('[') {
                        inner += 1;
                    } else if u.is_punct('>') || u.is_punct(')') || u.is_punct(']') {
                        inner -= 1;
                    } else if inner == 0 && u.is_punct(',') {
                        break;
                    } else if u.is_ident("VecDeque") {
                        has_deque = true;
                    }
                    m += 1;
                }
                if has_deque {
                    let tagged = tags.iter().any(|(f, _, _)| *f == t.text)
                        || (t.line.saturating_sub(2)..=t.line)
                            .any(|l| lexed.comment_on_line_contains(l, "#[bounded(via"));
                    if !tagged {
                        push(
                            findings,
                            lexed,
                            "bounded_queue",
                            class,
                            t.line,
                            format!(
                                "queue field `{}: VecDeque<..>` has no `#[bounded(via = \
                                 \"<method>\")]` tag naming its choke-point method",
                                t.text
                            ),
                        );
                    }
                }
                k = m;
                continue;
            }
            k += 1;
        }
    }
}

/// Boundary-input code decodes bytes that originate outside the
/// process — worker stdout frames in `crates/cluster`, DSL text and
/// HTTP bodies in `crates/scenario`, request bodies and snapshot files
/// in the `experiments` serve layer — and must treat them as hostile
/// (a corrupted or wedged peer must not take the host with it). Three
/// unboundedness vectors are forbidden in that scope (see
/// [`bounded_ipc_scope`]): unbounded `mpsc::channel` (a dead
/// coordinator loop lets a reader thread buffer without limit),
/// `read_to_end`/`read_to_string` (a stuck peer pins memory until the
/// pipe closes, which may be never), and `with_capacity` calls whose
/// argument is not visibly bounded (a forged length prefix must not
/// size an allocation; see [`cap_witnessed`]).
fn rule_bounded_ipc(class: &FileClass, lexed: &Lexed, mask: &[bool], findings: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if name == "channel" {
            let call_like = toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
                || (toks.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
                    && toks.get(i + 2).map(|t| t.is_punct(':')) == Some(true));
            if call_like {
                push(
                    findings,
                    lexed,
                    "bounded_ipc",
                    class,
                    toks[i].line,
                    "unbounded `mpsc::channel` in boundary-input code; use a bounded \
                     `sync_channel` or justify with `// lint: allow(bounded_ipc) <reason>`"
                        .to_string(),
                );
            }
        }
        if (name == "read_to_end" || name == "read_to_string")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
        {
            push(
                findings,
                lexed,
                "bounded_ipc",
                class,
                toks[i].line,
                format!(
                    "`.{name}()` reads unboundedly from the pipe; read length-prefixed \
                     frames into fixed-size buffers or justify with \
                     `// lint: allow(bounded_ipc) <reason>`"
                ),
            );
        }
        if name == "with_capacity" && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true) {
            let close = match_forward(toks, i + 1, '(', ')');
            if !cap_witnessed(&toks[i + 2..close.max(i + 2)]) {
                push(
                    findings,
                    lexed,
                    "bounded_ipc",
                    class,
                    toks[i].line,
                    "`with_capacity` argument is not a `.min(..)` clamp, a `MAX_*` \
                     constant or an integer literal; a wire-derived length must be \
                     clamped before it sizes an allocation, or justify with \
                     `// lint: allow(bounded_ipc) <reason>`"
                        .to_string(),
                );
            }
        }
    }
}

/// A stall watchdog is only as honest as the heartbeats feeding it: a
/// worker iteration path that forgets to refresh its shard heartbeat
/// shows up as a false "stalled" flag under load. Every `loop` inside a
/// `fn worker*` in the monitor crate must therefore call
/// `touch_heartbeat` *as its first statement*, so each arm of the loop
/// body — dequeue, fault handling, decode — passes through the refresh
/// on every iteration.
fn rule_heartbeat_touch(
    class: &FileClass,
    lexed: &Lexed,
    mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    let toks = &lexed.toks;
    let mut i = 0;
    while i < toks.len() {
        let named_worker = toks[i].is_ident("fn")
            && toks
                .get(i + 1)
                .map(|t| t.kind == TokKind::Ident && t.text.starts_with("worker"))
                == Some(true);
        if mask[i] || !named_worker {
            i += 1;
            continue;
        }
        let Some(body_end) = item_end(toks, i) else {
            i += 1;
            continue;
        };
        let Some(open) = (i..body_end).find(|&j| toks[j].is_punct('{')) else {
            i = body_end + 1;
            continue;
        };
        for j in open + 1..body_end {
            if !(toks[j].is_ident("loop") && toks.get(j + 1).map(|t| t.is_punct('{')) == Some(true))
            {
                continue;
            }
            let close = match_forward(toks, j + 1, '{', '}');
            // The refresh must come before the first statement boundary
            // (`;`) or nested block (`{`) — i.e. be the loop's first
            // statement — so no iteration path can skip it.
            let touched = toks[j + 2..close]
                .iter()
                .take_while(|t| !t.is_punct(';') && !t.is_punct('{'))
                .any(|t| t.is_ident("touch_heartbeat"));
            if !touched {
                push(
                    findings,
                    lexed,
                    "heartbeat_touch",
                    class,
                    toks[j].line,
                    "worker loop does not refresh its shard heartbeat; call \
                     `touch_heartbeat()` as the loop's first statement or justify \
                     with `// lint: allow(heartbeat_touch) <reason>`"
                        .to_string(),
                );
            }
        }
        i = body_end + 1;
    }
}

/// `true` when a `with_capacity` argument is visibly bounded. Only
/// three forms count, each after an optional trailing `as T` cast: an
/// outermost `.min(..)` call (`len.min(MAX)`, `(n as usize).min(8)`),
/// a lone `MAX_*` constant (path-qualified or not), and an integer
/// literal. A clamp or constant anywhere else (`len + MAX_HEADER`,
/// `MAX_N * len`, `(len.min(8) + extra)`) bounds nothing.
fn cap_witnessed(arg: &[Tok]) -> bool {
    let arg = match arg {
        [rest @ .., as_kw, ty] if as_kw.is_ident("as") && ty.kind == TokKind::Ident => rest,
        _ => arg,
    };
    match arg {
        [lit] if lit.kind == TokKind::Lit => lit.text.starts_with(|c: char| c.is_ascii_digit()),
        [.., last] if last.kind == TokKind::Ident => {
            last.text.starts_with("MAX_")
                && arg.iter().enumerate().all(|(k, t)| {
                    t.kind == TokKind::Ident && k % 3 == 0 || t.is_punct(':') && k % 3 != 0
                })
        }
        [.., last] if last.is_punct(')') => {
            let open = match_backward(arg, arg.len() - 1, '(', ')');
            // `<receiver> . min ( .. )` with no operator outside the
            // receiver's own brackets.
            open >= 3
                && arg[open - 1].is_ident("min")
                && arg[open - 2].is_punct('.')
                && top_level(&arg[..open - 2]).all(|t| {
                    t.kind == TokKind::Ident && !t.is_ident("as")
                        || t.kind == TokKind::Lit
                        || t.is_punct('.')
                        || t.is_punct(':')
                })
        }
        _ => false,
    }
}

/// The tokens of `toks` outside every `()`/`[]`/`{}` group.
fn top_level(toks: &[Tok]) -> impl Iterator<Item = &Tok> {
    let mut depth = 0usize;
    toks.iter().filter(move |t| {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else {
            return depth == 0;
        }
        false
    })
}

/// The no-panic lints every library root denies outside tests.
const NO_PANIC_LINTS: [&str; 6] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "todo",
    "unimplemented",
    "allow_attributes_without_reason",
];

/// rustc enforces `#![forbid(unsafe_code)]` and clippy the no-panic
/// lints, but neither notices a crate that never declares them. Every
/// crate root must carry an unconditional crate-level
/// `#![forbid(unsafe_code)]` (a `cfg_attr`-wrapped one, an outer
/// `#[forbid(..)]` on a module or an inner one in an inline module
/// leaves the crate uncovered), and every library root must also carry
/// `#![cfg_attr(not(test), deny(clippy::..))]` naming every lint in
/// [`NO_PANIC_LINTS`].
fn rule_crate_header(class: &FileClass, lexed: &Lexed, findings: &mut Vec<Finding>) {
    let attrs = crate_attributes(&lexed.toks);
    let forbids_unsafe = attrs.iter().any(|a| {
        a.len() == 4
            && a[0].is_ident("forbid")
            && a[2].is_ident("unsafe_code")
            && a[3].is_punct(')')
    });
    if !forbids_unsafe {
        push(
            findings,
            lexed,
            "crate_header",
            class,
            1,
            "crate root is missing an unconditional `#![forbid(unsafe_code)]`".to_string(),
        );
    }
    const NOT_TEST_DENY: [&str; 9] = ["cfg_attr", "(", "not", "(", "test", ")", ",", "deny", "("];
    let denies_panics = attrs.iter().any(|a| {
        a.len() > NOT_TEST_DENY.len()
            && a.iter().zip(NOT_TEST_DENY).all(|(t, want)| t.text == want)
            && NO_PANIC_LINTS.iter().all(|lint| {
                a.windows(4)
                    .any(|w| w[0].is_ident("clippy") && w[3].is_ident(lint))
            })
    });
    if class.is_library && !denies_panics {
        push(
            findings,
            lexed,
            "crate_header",
            class,
            1,
            format!(
                "library root is missing the no-panic header \
                 `#![cfg_attr(not(test), deny(clippy::{}))]`",
                NO_PANIC_LINTS.join(", clippy::")
            ),
        );
    }
}

/// The token contents of every crate-level inner attribute: `X` in each
/// `#![X]` outside any brace block.
fn crate_attributes(toks: &[Tok]) -> Vec<&[Tok]> {
    let mut attrs = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if depth == 0
            && t.is_punct('#')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct('['))
        {
            let close = match_forward(toks, i + 2, '[', ']');
            attrs.push(&toks[i + 3..close.max(i + 3)]);
            i = close;
        }
        i += 1;
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::classify;

    /// A library file that is not a crate root.
    fn lib_class() -> FileClass {
        classify("crates/demo/src/x.rs")
    }

    fn monitor_class() -> FileClass {
        classify("crates/monitor/src/engine.rs")
    }

    fn cluster_class() -> FileClass {
        classify("crates/cluster/src/wire.rs")
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    const HEADER: &str = "#![forbid(unsafe_code)]\n\
        #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
        clippy::todo, clippy::unimplemented, clippy::allow_attributes_without_reason))]\n";

    #[test]
    fn micros_math_flags_raw_arithmetic() {
        let src = "pub fn f(a: TimeDelta, step: i64) -> i64 { a.as_micros() * step / 12 }\n\
                   pub fn g(a: TimeDelta, b: TimeDelta) -> i64 { a.as_micros() + b.as_micros() }\n\
                   pub fn h(x: i64) -> TimeDelta { TimeDelta::from_micros(x * 1000) }\n";
        let findings = lint_file(&lib_class(), src);
        assert_eq!(rules_of(&findings), vec!["micros_math"; 3]);
    }

    #[test]
    fn micros_math_allows_plain_reads_and_negative_literals() {
        let src = "pub fn f(a: TimeDelta) -> i64 { a.as_micros() }\n\
                   pub fn g() -> TimeDelta { TimeDelta::from_micros(-7_000) }\n\
                   pub fn h(a: TimeDelta) -> f64 { a.as_micros() as f64 }\n\
                   pub fn k(r: &mut Rng, j: TimeDelta) -> i64 { r.gen_range(0..=j.as_micros()) }\n";
        assert!(lint_file(&lib_class(), src).is_empty());
    }

    #[test]
    fn micros_math_sees_operand_before_a_chain() {
        let src =
            "pub fn f(c: i64, s: &Flow, i: usize) -> i64 { c * s.timestamp(i).as_micros() }\n";
        assert_eq!(rules_of(&lint_file(&lib_class(), src)), vec!["micros_math"]);
    }

    #[test]
    fn waivers_need_a_reason_and_tests_are_masked() {
        let src = "// lint: allow(micros_math) wire format stores raw µs\n\
                   pub fn f(a: TimeDelta) -> i64 { a.as_micros() * 2 }\n\
                   pub fn g(a: TimeDelta) -> i64 { a.as_micros() * 2 } // lint: allow(micros_math)\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { let _ = d.as_micros() * 2; }\n\
                   }\n\
                   #[cfg(not(test))]\n\
                   pub fn h(a: TimeDelta) -> i64 { a.as_micros() * 2 }\n";
        let findings = lint_file(&lib_class(), src);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 10], "{findings:?}");
    }

    #[test]
    fn ordering_requires_justification() {
        let src = "pub fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n\
                   // ordering: independent counter, no other memory is published\n\
                   pub fn g(a: &AtomicU64) -> u64 { a.load(Ordering::Acquire) }\n\
                   pub fn h(a: &AtomicU64) { a.store(1, Ordering::SeqCst); // ordering: total order needed\n\
                   }\n";
        let findings = lint_file(&lib_class(), src);
        assert_eq!(rules_of(&findings), vec!["ordering_comment"]);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn cmp_ordering_is_exempt() {
        let src = "pub fn f(a: u8, b: u8) -> Ordering { if a < b { Ordering::Less } else { Ordering::Greater } }\n";
        assert!(lint_file(&lib_class(), src).is_empty());
    }

    #[test]
    fn bounded_queue_flags_unbounded_channel() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n\
                   fn g() { let (tx, rx) = channel(); }\n\
                   fn h(cap: usize) { let (tx, rx) = sync_channel::<u8>(cap); }\n";
        let findings = lint_file(&monitor_class(), src);
        assert_eq!(rules_of(&findings), vec!["bounded_queue"; 2]);
    }

    #[test]
    fn bounded_queue_enforces_choke_point() {
        let src = "struct Q {\n\
                       // #[bounded(via = \"emit\")] drained by the caller\n\
                       verdicts: VecDeque<u8>,\n\
                   }\n\
                   impl Q {\n\
                       fn emit(&mut self, v: u8) { self.verdicts.push_back(v); }\n\
                       fn sneak(&mut self, v: u8) { self.verdicts.push_back(v); }\n\
                   }\n";
        let findings = lint_file(&monitor_class(), src);
        assert_eq!(rules_of(&findings), vec!["bounded_queue"]);
        assert_eq!(findings[0].line, 7);
    }

    #[test]
    fn bounded_queue_requires_tag_on_vecdeque_fields() {
        let src = "struct Q { backlog: VecDeque<u8>, names: Vec<String> }\n";
        let findings = lint_file(&monitor_class(), src);
        assert_eq!(rules_of(&findings), vec!["bounded_queue"]);
        assert!(findings[0].message.contains("backlog"));
    }

    #[test]
    fn bounded_queue_only_applies_to_monitor() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n";
        assert!(lint_file(&classify("crates/flow/src/x.rs"), src).is_empty());
    }

    #[test]
    fn bounded_ipc_flags_unbounded_channel_and_reads() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n\
                   fn g(r: &mut impl Read) { let mut b = Vec::new(); r.read_to_end(&mut b); }\n\
                   fn h(cap: usize) { let (tx, rx) = sync_channel::<u8>(cap); }\n";
        let findings = lint_file(&cluster_class(), src);
        assert_eq!(rules_of(&findings), vec!["bounded_ipc"; 2]);
    }

    #[test]
    fn bounded_ipc_accepts_only_clamps_constants_and_literals() {
        let flagged = [
            "len as usize",
            "len as usize + MAX_HEADER",
            "MAX_N * len",
            "(len.min(8) + extra)",
            "len + extra.min(8)",
            "*len.min(8)",
        ];
        let accepted = [
            "count.min(max)",
            "(len as usize).min(1024)",
            "len.min(MAX_FRAME) as usize",
            "MAX_FRAME",
            "Self::MAX_ITEMS as usize",
            "512",
        ];
        for arg in flagged {
            let src = format!("fn f(len: u32) -> Vec<u8> {{ Vec::with_capacity({arg}) }}\n");
            let findings = lint_file(&cluster_class(), &src);
            assert_eq!(
                rules_of(&findings),
                vec!["bounded_ipc"],
                "{arg} must be flagged"
            );
        }
        for arg in accepted {
            let src = format!("fn f(len: u32) -> Vec<u8> {{ Vec::with_capacity({arg}) }}\n");
            assert!(
                lint_file(&cluster_class(), &src).is_empty(),
                "{arg} must pass"
            );
        }
    }

    #[test]
    fn bounded_ipc_respects_allow_and_other_crates() {
        let src = "// lint: allow(bounded_ipc) reads a local spec file, not the pipe\n\
                   fn f(r: &mut impl Read) { let mut b = Vec::new(); r.read_to_end(&mut b); }\n";
        assert!(lint_file(&cluster_class(), src).is_empty());
        let src = "fn f(len: u32) -> Vec<u8> { Vec::with_capacity(len as usize) }\n";
        assert!(lint_file(&monitor_class(), src).is_empty());
    }

    #[test]
    fn bounded_ipc_covers_scenario_and_serve_sources() {
        let src = "fn f(len: u32) -> Vec<u8> { Vec::with_capacity(len as usize) }\n";
        for rel_path in [
            "crates/scenario/src/spec.rs",
            "crates/experiments/src/serve/mod.rs",
            "crates/experiments/src/serve/snapshot.rs",
        ] {
            assert_eq!(
                rules_of(&lint_file(&classify(rel_path), src)),
                vec!["bounded_ipc"],
                "{rel_path} must be in scope"
            );
        }
        // The rest of `experiments` (one-shot CLI paths reading local
        // files the operator named) stays out of scope.
        assert!(lint_file(&classify("crates/experiments/src/matrix.rs"), src).is_empty());
    }

    #[test]
    fn heartbeat_touch_flags_a_loop_that_skips_the_beat() {
        let src = "fn worker_loop(ctx: &Ctx) {\n\
                       loop {\n\
                           let job = ctx.recv();\n\
                           ctx.touch_heartbeat();\n\
                       }\n\
                   }\n";
        let findings = lint_file(&monitor_class(), src);
        assert_eq!(rules_of(&findings), vec!["heartbeat_touch"]);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn heartbeat_touch_accepts_a_top_of_loop_refresh() {
        let src = "fn worker_loop(ctx: &Ctx) {\n\
                       loop {\n\
                           ctx.touch_heartbeat();\n\
                           let job = ctx.recv();\n\
                       }\n\
                   }\n";
        assert!(lint_file(&monitor_class(), src).is_empty());
    }

    #[test]
    fn heartbeat_touch_only_audits_worker_functions() {
        let src = "fn control_loop(ctx: &Ctx) { loop { ctx.step(); } }\n";
        assert!(lint_file(&monitor_class(), src).is_empty());
    }

    #[test]
    fn heartbeat_touch_respects_allow() {
        let src = "// lint: allow(heartbeat_touch) drains a closed queue, no watchdog armed\n\
                   fn worker_drain(ctx: &Ctx) { loop { ctx.step(); } }\n";
        assert!(lint_file(&monitor_class(), src).is_empty());
    }

    #[test]
    fn heartbeat_touch_only_applies_to_monitor() {
        let src = "fn worker_loop(ctx: &Ctx) { loop { ctx.step(); } }\n";
        assert!(lint_file(&classify("crates/flow/src/x.rs"), src).is_empty());
    }

    #[test]
    fn crate_header_accepts_the_full_header() {
        let lib = classify("crates/demo/src/lib.rs");
        assert!(lint_file(&lib, &format!("//! Docs.\n{HEADER}pub fn f() {{}}\n")).is_empty());
        let bin = classify("crates/demo/src/main.rs");
        assert!(lint_file(&bin, "#![forbid(unsafe_code)]\nfn main() {}\n").is_empty());
    }

    #[test]
    fn crate_header_counts_only_unconditional_crate_level_forbid() {
        let no_panic = &HEADER[HEADER.find('\n').unwrap_or(0) + 1..];
        for forbid in [
            "",
            "#![cfg_attr(test, forbid(unsafe_code))]\n",
            "#[forbid(unsafe_code)]\nmod m;\n",
            "mod m { #![forbid(unsafe_code)] }\n",
        ] {
            let src = format!("{no_panic}{forbid}pub fn f() {{}}\n");
            let findings = lint_file(&classify("crates/demo/src/lib.rs"), &src);
            assert_eq!(rules_of(&findings), vec!["crate_header"], "{forbid:?}");
            assert!(findings[0].message.contains("forbid(unsafe_code)"));
        }
    }

    #[test]
    fn crate_header_requires_the_no_panic_header_in_library_roots() {
        let partial = "#![forbid(unsafe_code)]\n\
                       #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n";
        let findings = lint_file(&classify("crates/demo/src/lib.rs"), partial);
        assert_eq!(rules_of(&findings), vec!["crate_header"]);
        assert!(findings[0].message.contains("no-panic header"));
        // Binary roots and the dev-tool crates need only the forbid.
        let forbid_only = "#![forbid(unsafe_code)]\n";
        assert!(lint_file(&classify("crates/demo/src/bin/tool.rs"), forbid_only).is_empty());
        assert!(lint_file(&classify("crates/bench/src/lib.rs"), forbid_only).is_empty());
    }
}
