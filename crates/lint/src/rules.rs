//! The four rules, plus annotation validation and waiver checking.
//!
//! * `progress` (R1) — no strong-class fn (`wait_free`, `bounded_wait_free`,
//!   `lock_free`) transitively reaches a blocking primitive or a callee
//!   annotated with a weaker class: the classes are ordered wait-free
//!   (both kinds, one level: the analyzer cannot count steps) over
//!   `lock_free` over `obstruction_free` over `blocking`, so a wait-free fn
//!   that reaches a `lock_free` one is a finding too. Traversal trusts
//!   strong annotations (each is verified as its own source) and cuts at
//!   `try_*` callees.
//! * `safety` (R2) — every `unsafe` site carries a `SAFETY` comment (or a
//!   `# Safety` doc section for `unsafe fn`).
//! * `relaxed` (R3) — every `Ordering::Relaxed` carries a `RELAXED:`
//!   justification comment.
//! * `panic` (R4) — no `unwrap`/`expect`/`panic!`-family in any
//!   *non-blocking* function body — strong classes and `obstruction_free`
//!   alike. A panicking guest aborts its thread, which is strictly worse
//!   than the unbounded-but-live retrying it promised; only `blocking`
//!   fns, which never promised liveness, may panic. (Plain asserts are
//!   allowed: they signal broken invariants, not environmental failure.)
//!
//! Any rule can be waived at a call/finding site with
//! `// APC-LINT: allow(<rule>): <reason>` on the line or up to two lines
//! above; the reason is mandatory and malformed waivers are themselves
//! findings (`waiver`).

use std::collections::{HashMap, HashSet, VecDeque};

use crate::graph::{Call, CallKind, FnId, Workspace};
use crate::parse::{Class, FileAst};
use crate::report::Finding;

/// Rule ids a waiver may name.
const RULES: [&str; 4] = ["progress", "safety", "relaxed", "panic"];

/// Method names that panic on failure (R4).
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that always panic (R4).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Is the given rule waived at `line` (or up to two lines above)?
fn waived(file: &FileAst, line: u32, rule: &str) -> bool {
    (line.saturating_sub(2)..=line).any(|l| {
        file.lexed
            .plain_comment(l)
            .and_then(parse_waiver)
            .is_some_and(|(r, reason)| r == rule && !reason.is_empty())
    })
}

/// Parses `.. APC-LINT: allow(<rule>): <reason>` out of a comment line.
/// Returns `(rule, reason)` when the shape is right, `None` otherwise.
fn parse_waiver(comment: &str) -> Option<(&str, &str)> {
    let rest = comment.split("APC-LINT").nth(1)?;
    let rest = rest.strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix("allow")?.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim();
    let reason = rest[close + 1..].strip_prefix(':')?.trim();
    Some((rule, reason))
}

/// Runs every rule over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_waiver_syntax(ws, &mut findings);
    check_annotations(ws, &mut findings);
    check_reachability(ws, &mut findings);
    check_safety(ws, &mut findings);
    check_relaxed(ws, &mut findings);
    check_panic(ws, &mut findings);
    findings
}

fn file_name(ws: &Workspace, file: usize) -> String {
    ws.files[file].path.display().to_string()
}

/// `waiver`: every comment mentioning APC-LINT must be a well-formed waiver
/// naming a known rule with a non-empty reason.
fn check_waiver_syntax(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        let mut lines: Vec<&u32> = file.lexed.plain.keys().collect();
        lines.sort();
        for &line in lines {
            let comment = &file.lexed.plain[&line];
            if !comment.contains("APC-LINT") {
                continue;
            }
            match parse_waiver(comment) {
                Some((rule, reason)) if RULES.contains(&rule) && !reason.is_empty() => {}
                Some((rule, reason)) if RULES.contains(&rule) && reason.is_empty() => {
                    findings.push(Finding {
                        rule: "waiver",
                        file: file_name(ws, fi),
                        line,
                        message: format!("waiver for `{rule}` is missing its reason"),
                        path: Vec::new(),
                    });
                }
                Some((rule, _)) => findings.push(Finding {
                    rule: "waiver",
                    file: file_name(ws, fi),
                    line,
                    message: format!(
                        "waiver names unknown rule `{rule}`; expected one of: {}",
                        RULES.join(", ")
                    ),
                    path: Vec::new(),
                }),
                None => findings.push(Finding {
                    rule: "waiver",
                    file: file_name(ws, fi),
                    line,
                    message: "malformed waiver; expected `APC-LINT: allow(<rule>): <reason>`"
                        .into(),
                    path: Vec::new(),
                }),
            }
        }
    }
}

/// `annotation`: `#[progress(..)]` with an unknown class (the proc macro
/// rejects these at compile time; this covers un-compiled fixtures too).
fn check_annotations(ws: &Workspace, findings: &mut Vec<Finding>) {
    for id in ws.all_fns() {
        let f = ws.fn_info(id);
        if let Some(bad) = &f.unknown_class {
            findings.push(Finding {
                rule: "annotation",
                file: file_name(ws, id.file),
                line: f.line,
                message: format!("fn `{}` declares unknown progress class `{bad}`", f.qualified()),
                path: Vec::new(),
            });
        }
    }
}

/// BFS over the call graph from `source`, invoking `visit` for every
/// reachable call site with its owning function. Traversal does not enter
/// annotated callees (`visit` judges each at its call site, and a strong
/// one is verified as its own source) and skips test functions; `progress`
/// waivers cut edges entirely.
fn bfs_calls(ws: &Workspace, source: FnId, mut visit: impl FnMut(FnId, &Call, &[String])) {
    let mut queue = VecDeque::new();
    let mut seen = HashSet::new();
    // Chain of qualified names from the source to (and including) each
    // enqueued fn.
    let mut chains: HashMap<FnId, Vec<String>> = HashMap::new();
    queue.push_back(source);
    seen.insert(source);
    chains.insert(source, vec![ws.fn_info(source).qualified()]);
    while let Some(cur) = queue.pop_front() {
        let chain = chains[&cur].clone();
        for call in ws.calls_of(cur) {
            if waived(&ws.files[cur.file], call.line, "progress") {
                continue;
            }
            visit(cur, call, &chain);
            for target in ws.resolve(cur, call) {
                let tf = ws.fn_info(target);
                if tf.is_test || tf.class.is_some() {
                    continue;
                }
                if seen.insert(target) {
                    let mut c = chain.clone();
                    c.push(tf.qualified());
                    chains.insert(target, c);
                    queue.push_back(target);
                }
            }
        }
    }
}

/// `progress` (R1): strong fns must not reach blocking primitives or
/// callees annotated with a weaker class.
fn check_reachability(ws: &Workspace, findings: &mut Vec<Finding>) {
    for source in ws.all_fns() {
        let sf = ws.fn_info(source);
        let Some(promised) = sf.class.filter(|c| c.is_strong() && !sf.is_test) else {
            continue;
        };
        let class = promised.name();
        let src_name = sf.qualified();
        let mut reported = HashSet::new();
        bfs_calls(ws, source, |owner, call, chain| {
            let site = (owner.file, call.line, call.name.clone());
            if ws.is_blocking_primitive(owner.file, call) {
                if reported.insert(site) {
                    let mut path = chain.to_vec();
                    path.push(format!(
                        "{} @ {}:{}",
                        call.name,
                        file_name(ws, owner.file),
                        call.line
                    ));
                    findings.push(Finding {
                        rule: "progress",
                        file: file_name(ws, owner.file),
                        line: call.line,
                        message: format!(
                            "{class} fn `{src_name}` reaches blocking primitive `{}`",
                            call.name
                        ),
                        path,
                    });
                }
                return;
            }
            for target in ws.resolve(owner, call) {
                let tf = ws.fn_info(target);
                let Some(tc) = tf.class.filter(|c| c.is_weaker_than(promised) && !tf.is_test)
                else {
                    continue;
                };
                let site = (owner.file, call.line, tf.qualified());
                if reported.insert(site) {
                    let mut path = chain.to_vec();
                    path.push(format!(
                        "{} [{}] @ {}:{}",
                        tf.qualified(),
                        tc.name(),
                        file_name(ws, owner.file),
                        call.line
                    ));
                    findings.push(Finding {
                        rule: "progress",
                        file: file_name(ws, owner.file),
                        line: call.line,
                        message: format!(
                            "{class} fn `{src_name}` calls `{}` which is only {}",
                            tf.qualified(),
                            tc.name()
                        ),
                        path,
                    });
                }
            }
        });
    }
}

/// `safety` (R2): every `unsafe` site needs a SAFETY comment; `unsafe fn`
/// may instead carry a `# Safety` doc section.
fn check_safety(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        for site in &file.unsafes {
            if file.is_test_line(site.line) {
                continue;
            }
            let ok = match site.kind {
                "fn" | "trait" | "impl" => {
                    file.lexed.comment_near(site.line, 15, "SAFETY")
                        || file.lexed.comment_near(site.line, 15, "# Safety")
                }
                // 5-line lookback: a multi-line SAFETY comment above a
                // wrapped statement keeps its marker a few lines up.
                _ => file.lexed.comment_near(site.line, 5, "SAFETY"),
            };
            if !ok && !waived(file, site.line, "safety") {
                findings.push(Finding {
                    rule: "safety",
                    file: file_name(ws, fi),
                    line: site.line,
                    message: format!(
                        "unsafe {} without a `// SAFETY:` comment{}",
                        site.kind,
                        if site.kind == "fn" { " or `# Safety` doc section" } else { "" }
                    ),
                    path: Vec::new(),
                });
            }
        }
    }
}

/// `relaxed` (R3): every `Ordering::Relaxed` needs a `RELAXED:` comment.
fn check_relaxed(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        for &line in &file.relaxed {
            if file.is_test_line(line) {
                continue;
            }
            if !file.lexed.comment_near(line, 3, "RELAXED") && !waived(file, line, "relaxed") {
                findings.push(Finding {
                    rule: "relaxed",
                    file: file_name(ws, fi),
                    line,
                    message: "Ordering::Relaxed without a `// RELAXED:` justification".into(),
                    path: Vec::new(),
                });
            }
        }
    }
}

/// `panic` (R4): non-blocking bodies must not unwrap/expect or panic.
/// Covers the strong classes *and* `obstruction_free`: the guest tier's
/// promise is weak but real, and a panic forfeits it entirely.
fn check_panic(ws: &Workspace, findings: &mut Vec<Finding>) {
    for id in ws.all_fns() {
        let f = ws.fn_info(id);
        if f.is_test || !f.class.is_some_and(Class::is_nonblocking) {
            continue;
        }
        let class = f.class.expect("checked above").name();
        let qualified = f.qualified();
        for call in ws.calls_of(id) {
            let hit = match &call.kind {
                CallKind::Method(_) => PANIC_METHODS.contains(&call.name.as_str()),
                CallKind::Macro => PANIC_MACROS.contains(&call.name.as_str()),
                _ => false,
            };
            if hit && !waived(&ws.files[id.file], call.line, "panic") {
                let spelled = match call.kind {
                    CallKind::Macro => format!("{}!", call.name),
                    _ => call.name.clone(),
                };
                findings.push(Finding {
                    rule: "panic",
                    file: file_name(ws, id.file),
                    line: call.line,
                    message: format!(
                        "{class} fn `{qualified}` uses `{spelled}` in its commit path"
                    ),
                    path: Vec::new(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use std::path::PathBuf;

    fn analyze(srcs: &[&str]) -> Vec<Finding> {
        let ws = Workspace::build(
            srcs.iter()
                .enumerate()
                .map(|(i, s)| parse_file(PathBuf::from(format!("f{i}.rs")), s))
                .collect(),
        );
        run(&ws)
    }

    #[test]
    fn waiver_parsing() {
        assert_eq!(
            parse_waiver(" APC-LINT: allow(progress): ports are exclusively owned"),
            Some(("progress", "ports are exclusively owned"))
        );
        assert_eq!(parse_waiver(" APC-LINT: allow(progress):"), Some(("progress", "")));
        assert_eq!(parse_waiver(" APC-LINT: allow progress"), None);
    }

    #[test]
    fn direct_blocking_call_flagged() {
        let f = analyze(&[
            "struct S; impl S {\n#[progress(wait_free)]\nfn f(&self) { self.m.lock(); }\n}",
        ]);
        assert_eq!(f.iter().filter(|x| x.rule == "progress").count(), 1);
        assert!(f[0].message.contains("blocking primitive `lock`"));
    }

    #[test]
    fn two_hop_transitive_blocking_flagged_with_path() {
        let f = analyze(&[
            "#[progress(wait_free)]\nfn a() { b(); }\nfn b() { c(); }\nfn c() { std::thread::sleep(d); }",
        ]);
        let hits: Vec<_> = f.iter().filter(|x| x.rule == "progress").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].path, vec!["a", "b", "c", "sleep @ f0.rs:4"]);
    }

    #[test]
    fn weak_annotated_callee_flagged() {
        let f = analyze(&[
            "struct S; impl S {\n#[progress(lock_free)]\nfn f(&self) { self.spin(); }\n\
             #[progress(blocking)]\nfn spin(&self) { loop {} }\n}",
        ]);
        let hits: Vec<_> = f.iter().filter(|x| x.rule == "progress").collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("only blocking"));
    }

    #[test]
    fn strong_annotated_callee_is_trusted_boundary() {
        // `g` is wait_free and internally waives its own lock; `f` calling
        // `g` must not re-traverse into it.
        let f = analyze(&[
            "struct S; impl S {\n#[progress(wait_free)]\nfn f(&self) { self.g(); }\n\
             #[progress(wait_free)]\nfn g(&self) {\n// APC-LINT: allow(progress): benign\nself.m.lock(); }\n}",
        ]);
        assert_eq!(f.iter().filter(|x| x.rule == "progress").count(), 0);
    }

    #[test]
    fn class_order_a_wait_free_fn_may_not_call_a_lock_free_one() {
        for class in ["wait_free", "bounded_wait_free"] {
            let f = analyze(&[&format!(
                "struct S; impl S {{\n#[progress({class})]\nfn f(&self) {{ self.seal(); }}\n\
                 #[progress(lock_free)]\nfn seal(&self) {{}}\n}}"
            )]);
            let hits: Vec<_> = f.iter().filter(|x| x.rule == "progress").collect();
            assert_eq!(hits.len(), 1, "{class}: {f:?}");
            assert!(hits[0].message.contains(&format!("{class} fn `S::f`")), "{class}: {f:?}");
            assert!(hits[0].message.contains("`S::seal` which is only lock_free"), "{f:?}");
        }
    }

    #[test]
    fn class_order_the_wait_free_classes_are_one_level_and_lock_free_calls_lock_free() {
        let f = analyze(&[
            "struct S; impl S {\n#[progress(bounded_wait_free)]\nfn a(&self) { self.b(); }\n\
             #[progress(wait_free)]\nfn b(&self) { self.c(); }\n\
             #[progress(bounded_wait_free)]\nfn c(&self) {}\n\
             #[progress(lock_free)]\nfn d(&self) { self.e(); }\n\
             #[progress(lock_free)]\nfn e(&self) {}\n}",
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    /// A split, a merge and the drain they share each reach the `blocking`
    /// seal act, and a rebalance is `blocking` itself: R1 flags each one
    /// reached from a wait-free fn, by its class and by no name.
    #[test]
    fn class_order_a_reconfiguration_under_a_wait_free_fn_is_a_progress_finding() {
        for sink in ["split_locked", "merge_locked", "seal_drain"] {
            let f = analyze(&[&format!(
                "struct S; impl S {{\n#[progress(bounded_wait_free)]\nfn commit(&self) {{ self.{sink}(); }}\n\
                 fn {sink}(&self) {{ self.seal_act(); }}\n\
                 #[progress(blocking)]\nfn seal_act(&self) {{}}\n}}"
            )]);
            let hits: Vec<_> = f.iter().filter(|x| x.rule == "progress").collect();
            assert_eq!(hits.len(), 1, "{sink}: {f:?}");
            assert_eq!(hits[0].path[..2], [String::from("S::commit"), format!("S::{sink}")]);
            assert!(hits[0].message.contains("`S::seal_act` which is only blocking"), "{f:?}");
        }
        let f = analyze(&[
            "struct S; impl S {\n#[progress(bounded_wait_free)]\nfn commit(&self) { self.rebalance(); }\n\
             #[progress(blocking)]\nfn rebalance(&self) {}\n}",
        ]);
        let hits: Vec<_> = f.iter().filter(|x| x.rule == "progress").collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].message.contains("`S::rebalance` which is only blocking"), "{f:?}");
    }

    #[test]
    fn waiver_cuts_edge_and_requires_reason() {
        let ok = analyze(&[
            "#[progress(wait_free)]\nfn f() {\n// APC-LINT: allow(progress): uncontended by design\nm.lock(); }",
        ]);
        assert_eq!(ok.iter().filter(|x| x.rule == "progress").count(), 0);
        let bad = analyze(&[
            "#[progress(wait_free)]\nfn f() {\n// APC-LINT: allow(progress):\nm.lock(); }",
        ]);
        assert_eq!(bad.iter().filter(|x| x.rule == "progress").count(), 1);
        assert_eq!(bad.iter().filter(|x| x.rule == "waiver").count(), 1);
    }

    #[test]
    fn unknown_rule_waiver_flagged() {
        let f = analyze(&["// APC-LINT: allow(speed): gotta go fast\nfn f() {}"]);
        assert_eq!(f.iter().filter(|x| x.rule == "waiver").count(), 1);
    }

    #[test]
    fn safety_comment_required() {
        let f = analyze(&[
            "fn f() { unsafe { g() } }\n// SAFETY: checked above\nfn h() { unsafe { g() } }",
        ]);
        let hits: Vec<_> = f.iter().filter(|x| x.rule == "safety").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn unsafe_fn_accepts_safety_doc() {
        let f = analyze(&["/// # Safety\n/// ptr must be valid\npub unsafe fn g(p: *const u8) {}"]);
        assert_eq!(f.iter().filter(|x| x.rule == "safety").count(), 0);
    }

    #[test]
    fn relaxed_needs_justification() {
        let f = analyze(&[
            "fn f(a: &AtomicU64) {\n// RELAXED: monotonic counter, no ordering needed\na.load(Ordering::Relaxed);\na.store(1, Ordering::Relaxed);\n}",
        ]);
        let hits: Vec<_> = f.iter().filter(|x| x.rule == "relaxed").collect();
        // Line 3 is covered by the comment's 3-line lookback... and so is
        // line 4 (lookback reaches line 2). Move the second Relaxed further.
        assert_eq!(hits.len(), 0);
        let far = analyze(&[
            "fn f(a: &AtomicU64) {\n// RELAXED: counter\na.load(Ordering::Relaxed);\nlet x = 1;\nlet y = 2;\nlet z = 3;\na.store(1, Ordering::Relaxed);\n}",
        ]);
        assert_eq!(far.iter().filter(|x| x.rule == "relaxed").count(), 1);
    }

    #[test]
    fn relaxed_in_tests_ignored() {
        let f = analyze(&[
            "#[cfg(test)]\nmod tests {\nfn t(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}",
        ]);
        assert_eq!(f.iter().filter(|x| x.rule == "relaxed").count(), 0);
    }

    #[test]
    fn panic_in_strong_fn_flagged() {
        let f = analyze(&[
            "struct S; impl S {\n#[progress(wait_free)]\nfn f(&self) { self.x.load().unwrap(); }\n\
             #[progress(blocking)]\nfn g(&self) { self.x.load().unwrap(); }\n}",
        ]);
        let hits: Vec<_> = f.iter().filter(|x| x.rule == "panic").collect();
        assert_eq!(hits.len(), 1); // only the wait_free one
        assert!(hits[0].message.contains("`unwrap`"));
    }

    #[test]
    fn panic_in_obstruction_free_fn_flagged() {
        // The guest tier promised unbounded-but-live retrying; an abort
        // forfeits that, so R4 covers obstruction_free too. Only
        // `blocking` — which never promised liveness — may panic.
        let f = analyze(&[
            "struct S; impl S {\n#[progress(obstruction_free)]\nfn g(&self) { self.slot.take().expect(\"occupied\"); }\n\
             #[progress(blocking)]\nfn b(&self) { self.slot.take().expect(\"occupied\"); }\n}",
        ]);
        let hits: Vec<_> = f.iter().filter(|x| x.rule == "panic").collect();
        assert_eq!(hits.len(), 1); // only the obstruction_free one
        assert!(hits[0].message.contains("obstruction_free fn `S::g`"));
    }

    #[test]
    fn panic_macro_flagged_assert_allowed() {
        let f =
            analyze(&["#[progress(wait_free)]\nfn f() { assert_ne!(1, 2); panic!(\"boom\"); }"]);
        let hits: Vec<_> = f.iter().filter(|x| x.rule == "panic").collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("panic!"));
    }

    #[test]
    fn unknown_class_flagged() {
        let f = analyze(&["#[progress(sometimes_fast)]\nfn f() {}"]);
        assert_eq!(f.iter().filter(|x| x.rule == "annotation").count(), 1);
    }

    #[test]
    fn try_call_is_allowlisted() {
        let f = analyze(&[
            "struct S; impl S {\n#[progress(wait_free)]\nfn f(&self) { self.try_admit(); }\n\
             fn try_admit(&self) { self.m.lock(); }\n}",
        ]);
        assert_eq!(f.iter().filter(|x| x.rule == "progress").count(), 0);
    }
}
