//! Workspace discovery: which `.rs` files exist and how each one
//! participates in the lint pass.

use std::path::{Path, PathBuf};

use crate::lint::FileClass;

/// Directory names never descended into.
const SKIP_DIRS: [&str; 6] = [
    "target",
    "vendor",
    ".git",
    ".github",
    "results",
    "node_modules",
];

/// Walks `root` and classifies every Rust source file found.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(FileClass, PathBuf)>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.0.rel_path.cmp(&b.0.rel_path));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(FileClass, PathBuf)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((classify(&rel), path));
        }
    }
    Ok(())
}

/// Derives a [`FileClass`] from a workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_dir = if parts.len() >= 2 && parts[0] == "crates" {
        parts[1].to_string()
    } else {
        "root".to_string()
    };
    let in_src = (crate_dir != "root" && parts.get(2) == Some(&"src"))
        || (crate_dir == "root" && parts.first() == Some(&"src"));
    let file = parts.last().copied().unwrap_or_default();
    // `xtask` is the lint driver itself and `bench` holds criterion
    // harnesses — dev tools, not library code shipped to correlation
    // paths, so the µs rule and the no-panic header don't apply.
    let is_library = in_src
        && file != "main.rs"
        && file != "tests.rs"
        && !rel.contains("/src/bin/")
        && crate_dir != "xtask"
        && crate_dir != "bench";
    // Crate roots: `src/lib.rs`, `src/main.rs`, and every `src/bin/*`
    // binary root — all audited by `crate_header`.
    let is_crate_root = (in_src && (file == "lib.rs" || file == "main.rs") && {
        let depth = if crate_dir == "root" { 2 } else { 4 };
        parts.len() == depth
    }) || rel.contains("/src/bin/");
    FileClass {
        rel_path: rel.to_string(),
        crate_dir,
        is_library,
        is_crate_root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_crate_library_files() {
        let c = classify("crates/flow/src/time.rs");
        assert_eq!(c.crate_dir, "flow");
        assert!(c.is_library);
        assert!(!c.is_crate_root);
    }

    #[test]
    fn classifies_crate_roots() {
        assert!(classify("crates/flow/src/lib.rs").is_crate_root);
        assert!(classify("src/lib.rs").is_crate_root);
        assert!(classify("crates/xtask/src/main.rs").is_crate_root);
        assert!(!classify("crates/flow/src/window.rs").is_crate_root);
        assert!(classify("crates/experiments/src/bin/repro.rs").is_crate_root);
    }

    #[test]
    fn classifies_the_ingest_crate_like_any_library() {
        // The auto-discovered ingest crate gets the full library rule
        // set (micros_math, crate_header at the root).
        let parser = classify("crates/ingest/src/pcap.rs");
        assert_eq!(parser.crate_dir, "ingest");
        assert!(parser.is_library);
        assert!(!parser.is_crate_root);
        assert!(classify("crates/ingest/src/lib.rs").is_crate_root);
        assert!(!classify("crates/ingest/tests/roundtrip.rs").is_library);
    }

    #[test]
    fn classifies_the_telemetry_crate_like_any_library() {
        // Telemetry sits on the hottest paths of all; its src files
        // get the full library rule set (ordering_comment, micros_math,
        // crate_header at the root).
        let counter = classify("crates/telemetry/src/metrics.rs");
        assert_eq!(counter.crate_dir, "telemetry");
        assert!(counter.is_library);
        assert!(!counter.is_crate_root);
        assert!(classify("crates/telemetry/src/lib.rs").is_crate_root);
        assert!(!classify("crates/telemetry/tests/histogram_props.rs").is_library);
    }

    #[test]
    fn non_library_paths() {
        assert!(!classify("crates/monitor/tests/props.rs").is_library);
        assert!(!classify("tests/pipeline.rs").is_library);
        assert!(!classify("examples/demo.rs").is_library);
        assert!(!classify("crates/experiments/src/bin/repro.rs").is_library);
        assert!(!classify("crates/xtask/src/lint.rs").is_library);
        assert!(classify("src/lib.rs").is_library);
    }
}
