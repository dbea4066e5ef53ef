//! # `apc-lint` — progress-condition static analysis
//!
//! Enforces the paper's asymmetric progress guarantees at the source level.
//! Functions declare their progress class with the inert
//! `#[progress(wait_free | bounded_wait_free | lock_free | obstruction_free
//! | blocking)]` attribute from `apc-progress-macros`; this crate lexes the
//! workspace, extracts functions and call sites, builds a name-resolved
//! call graph, and checks:
//!
//! * **R1 `progress`** — no strong-class fn transitively reaches a blocking
//!   primitive (`Mutex::lock`, channel `recv`, `thread::sleep`/`park`,
//!   `File::sync_*`, condvar waits) or a callee annotated with a weaker
//!   class, except through `try_*` probes or an explicit waiver. The
//!   classes are ordered wait-free (`wait_free` and `bounded_wait_free`,
//!   one level) over `lock_free` over `obstruction_free` over `blocking`.
//! * **R2 `safety`** — every `unsafe` site carries `// SAFETY:` (or a
//!   `# Safety` doc section on `unsafe fn`).
//! * **R3 `relaxed`** — every `Ordering::Relaxed` carries `// RELAXED:`.
//! * **R4 `panic`** — no `unwrap`/`expect`/`panic!` in non-blocking bodies.
//!
//! Waive a finding in place with `// APC-LINT: allow(<rule>): <reason>`.
//!
//! Run it with `cargo run -p apc-lint -- --deny` (CI does).

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

use graph::Workspace;
use report::{CrateCoverage, Report};

/// Source roots scanned relative to the workspace root.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tools", "shims"];

/// Path components that mark non-production code.
const EXCLUDE_COMPONENTS: [&str; 4] = ["tests", "benches", "examples", "fixtures"];

/// Collects every production `.rs` file under the workspace root, sorted.
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if EXCLUDE_COMPONENTS.contains(&name) || name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses and checks the workspace rooted at `root`.
///
/// Paths in the report are relative to `root`.
pub fn analyze(root: &Path) -> std::io::Result<(Workspace, Report)> {
    let files = collect_workspace_files(root)?;
    analyze_files(root, &files)
}

/// Parses and checks an explicit file list (used by fixture tests).
pub fn analyze_files(root: &Path, files: &[PathBuf]) -> std::io::Result<(Workspace, Report)> {
    let mut asts = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        asts.push(parse::parse_file(rel, &src));
    }
    let ws = Workspace::build(asts);
    let mut report = Report {
        findings: rules::run(&ws),
        files_scanned: ws.files.len(),
        fns_total: ws.files.iter().map(|f| f.fns.len()).sum(),
        fns_annotated: ws.files.iter().flat_map(|f| &f.fns).filter(|f| f.class.is_some()).count(),
        coverage: coverage_by_crate(&ws),
    };
    report.finish();
    Ok((ws, report))
}

/// Aggregates `annotated/total` function counts per crate — the
/// observability twin of the `--deny` gate: coverage is *surfaced* (in the
/// text report, the JSON artifact, and the CI step summary) so annotation
/// erosion is visible long before it becomes a reachability finding.
fn coverage_by_crate(ws: &Workspace) -> Vec<CrateCoverage> {
    let mut by_crate: std::collections::BTreeMap<String, (usize, usize)> =
        std::collections::BTreeMap::new();
    for file in &ws.files {
        let entry = by_crate.entry(crate_of(&file.path)).or_default();
        entry.0 += file.fns.len();
        entry.1 += file.fns.iter().filter(|f| f.class.is_some()).count();
    }
    by_crate
        .into_iter()
        .map(|(name, (fns_total, fns_annotated))| CrateCoverage { name, fns_total, fns_annotated })
        .collect()
}

/// The crate component of a repo-relative path: `crates/<name>` and
/// `shims/<name>` keep their second component, anything else (`src`,
/// `tools`, a fixture file handed in directly) is grouped by its first.
fn crate_of(rel: &Path) -> String {
    let mut comps = rel.components().filter_map(|c| c.as_os_str().to_str());
    match (comps.next(), comps.next()) {
        (Some(top @ ("crates" | "shims")), Some(name)) => format!("{top}/{name}"),
        (Some(top), _) => top.to_string(),
        (None, _) => String::from("(unknown)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_own_sources_excluding_tests() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = collect_workspace_files(&root).unwrap();
        assert!(files.iter().any(|p| p.ends_with("crates/lint/src/lib.rs")));
        assert!(!files.iter().any(|p| {
            p.components()
                .any(|c| matches!(c.as_os_str().to_str(), Some("tests" | "benches" | "fixtures")))
        }));
    }
}
