//! Findings, the aggregate report, and its text / JSON renderings.

use std::fmt::Write as _;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id: `progress`, `safety`, `relaxed`, `panic`, `annotation`, or
    /// `waiver`.
    pub rule: &'static str,
    /// Repo-relative path of the file the finding anchors to.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Call chain for reachability findings (source first, sink last);
    /// empty for local findings.
    pub path: Vec<String>,
}

/// `#[progress(..)]` annotation coverage for one crate (one top-level
/// source component: `crates/<name>`, `shims/<name>`, `src`, `tools`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateCoverage {
    /// Crate path relative to the workspace root, e.g. `crates/store`.
    pub name: String,
    /// Total functions extracted from the crate.
    pub fns_total: usize,
    /// Functions carrying a `#[progress(..)]` class.
    pub fns_annotated: usize,
}

/// The analyzer's aggregate output.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Total functions extracted.
    pub fns_total: usize,
    /// Functions carrying a `#[progress(..)]` class.
    pub fns_annotated: usize,
    /// Per-crate annotation coverage, sorted by crate name.
    pub coverage: Vec<CrateCoverage>,
}

impl Report {
    /// Sorts findings into the canonical order.
    pub fn finish(&mut self) {
        self.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Process exit code: 0 clean (or warn-only mode), 1 findings under
    /// `--deny`.
    pub fn exit_code(&self, deny: bool) -> i32 {
        if deny && !self.findings.is_empty() {
            1
        } else {
            0
        }
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}: {}:{}: {}", f.rule, f.file, f.line, f.message);
            for (i, hop) in f.path.iter().enumerate() {
                let _ = writeln!(out, "    {}{}", "  ".repeat(i), hop);
            }
        }
        if !self.coverage.is_empty() {
            let _ = writeln!(out, "annotation coverage (annotated/total fns):");
            for c in &self.coverage {
                let _ = writeln!(out, "  {}: {}/{}", c.name, c.fns_annotated, c.fns_total);
            }
        }
        let _ = writeln!(
            out,
            "apc-lint: {} finding(s) across {} file(s); {} fn(s), {} annotated",
            self.findings.len(),
            self.files_scanned,
            self.fns_total,
            self.fns_annotated,
        );
        out
    }

    /// Renders the machine-readable report (`apc-lint/2` schema; v2 added
    /// the per-crate `coverage` block).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"apc-lint/2\",");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"fns_total\": {},", self.fns_total);
        let _ = writeln!(out, "  \"fns_annotated\": {},", self.fns_annotated);
        out.push_str("  \"coverage\": [");
        for (i, c) in self.coverage.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"crate\": {}, \"fns_total\": {}, \"fns_annotated\": {}}}",
                json_str(&c.name),
                c.fns_total,
                c.fns_annotated,
            );
        }
        if !self.coverage.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        let _ = writeln!(out, "  \"finding_count\": {},", self.findings.len());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
            );
            if !f.path.is_empty() {
                out.push_str(", \"path\": [");
                for (j, hop) in f.path.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&json_str(hop));
                }
                out.push(']');
            }
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_schema() {
        let mut r = Report {
            findings: vec![Finding {
                rule: "progress",
                file: "a \"b\".rs".into(),
                line: 3,
                message: "bad\nthing".into(),
                path: vec!["X::f".into(), "lock @ a.rs:3".into()],
            }],
            files_scanned: 1,
            fns_total: 2,
            fns_annotated: 1,
            coverage: vec![],
        };
        r.finish();
        let j = r.render_json();
        assert!(j.contains("\"schema\": \"apc-lint/2\""));
        assert!(j.contains("\\\"b\\\""));
        assert!(j.contains("bad\\nthing"));
        assert!(j.contains("\"path\": [\"X::f\", \"lock @ a.rs:3\"]"));
        assert_eq!(r.exit_code(true), 1);
        assert_eq!(r.exit_code(false), 0);
    }

    #[test]
    fn coverage_block_renders_in_text_and_json() {
        let r = Report {
            findings: vec![],
            files_scanned: 3,
            fns_total: 10,
            fns_annotated: 4,
            coverage: vec![
                CrateCoverage { name: "crates/obs".into(), fns_total: 6, fns_annotated: 4 },
                CrateCoverage { name: "tools".into(), fns_total: 4, fns_annotated: 0 },
            ],
        };
        let t = r.render_text();
        assert!(t.contains("annotation coverage (annotated/total fns):"), "{t}");
        assert!(t.contains("  crates/obs: 4/6"), "{t}");
        assert!(t.contains("  tools: 0/4"), "{t}");
        let j = r.render_json();
        assert!(
            j.contains("{\"crate\": \"crates/obs\", \"fns_total\": 6, \"fns_annotated\": 4}"),
            "{j}"
        );
        assert!(j.contains("\"coverage\": ["), "{j}");
    }

    #[test]
    fn clean_report_exits_zero() {
        let r = Report::default();
        assert_eq!(r.exit_code(true), 0);
        assert!(r.render_text().contains("0 finding(s)"));
    }
}
