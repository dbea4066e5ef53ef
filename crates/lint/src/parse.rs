//! Item extraction: functions, impl blocks, struct fields, `unsafe` and
//! `Ordering::Relaxed` sites, with `#[cfg(test)]` scoping.
//!
//! This is not a full parser — it is a structural walk of the token stream
//! that recovers exactly what the rules need: every function (qualified by
//! its impl/trait type) with its attribute-declared progress class and body
//! token range, plus the line spans of test-only code so rules can skip it.

use std::collections::HashMap;
use std::path::PathBuf;

use crate::lexer::{lex, Delim, Lexed, Tok, TokKind};

/// The five progress classes of `#[progress(..)]`, weakest first (so `Ord`
/// compares strength).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// May wait on other processes indefinitely (by design).
    Blocking,
    /// Terminates when run long enough in isolation.
    ObstructionFree,
    /// Some concurrent caller always makes progress.
    LockFree,
    /// Wait-free with an a-priori step bound.
    BoundedWaitFree,
    /// Terminates in a finite number of the caller's own steps.
    WaitFree,
}

impl Class {
    /// Parses a class identifier as written in the attribute.
    pub fn parse(name: &str) -> Option<Class> {
        Some(match name {
            "wait_free" => Class::WaitFree,
            "bounded_wait_free" => Class::BoundedWaitFree,
            "lock_free" => Class::LockFree,
            "obstruction_free" => Class::ObstructionFree,
            "blocking" => Class::Blocking,
            _ => return None,
        })
    }

    /// The attribute spelling.
    pub fn name(self) -> &'static str {
        match self {
            Class::WaitFree => "wait_free",
            Class::BoundedWaitFree => "bounded_wait_free",
            Class::LockFree => "lock_free",
            Class::ObstructionFree => "obstruction_free",
            Class::Blocking => "blocking",
        }
    }

    /// Classes whose promises the analyzer enforces transitively.
    pub fn is_strong(self) -> bool {
        matches!(self, Class::WaitFree | Class::BoundedWaitFree | Class::LockFree)
    }

    /// Does a callee of this class break a caller's promise of `promised`?
    /// Strength is the declared order, except that the two wait-free
    /// classes are one level: the analyzer cannot count steps.
    pub fn is_weaker_than(self, promised: Class) -> bool {
        let level = |c| if c == Class::BoundedWaitFree { Class::WaitFree } else { c };
        level(self) < level(promised)
    }

    /// Classes that promise *some* liveness — everything above `blocking`.
    /// R4 holds these to a no-panic standard: even the obstruction-free
    /// tier promised to keep retrying, and an abort is strictly worse
    /// than waiting.
    pub fn is_nonblocking(self) -> bool {
        self != Class::Blocking
    }
}

/// One extracted function.
#[derive(Debug)]
pub struct FnInfo {
    /// Bare function name.
    pub name: String,
    /// Impl or trait type the function is associated with, if any.
    pub self_type: Option<String>,
    /// 1-based line of the function name.
    pub line: u32,
    /// True when the function is test-only (`#[cfg(test)]`, `#[test]`, or
    /// inside a test module).
    pub is_test: bool,
    /// Declared progress class, if annotated.
    pub class: Option<Class>,
    /// An unknown class name written in `#[progress(..)]`, if any.
    pub unknown_class: Option<String>,
    /// Token index range of the body (exclusive of the braces), if present.
    pub body: Option<(usize, usize)>,
}

impl FnInfo {
    /// `Type::name` or `name`.
    pub fn qualified(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// An `unsafe` occurrence.
#[derive(Debug)]
pub struct UnsafeSite {
    /// 1-based line.
    pub line: u32,
    /// "block", "fn", "impl" or "trait".
    pub kind: &'static str,
}

/// Everything extracted from one file.
#[derive(Debug)]
pub struct FileAst {
    /// Path as given to [`parse_file`].
    pub path: PathBuf,
    /// Lexer output (token stream + comment table).
    pub lexed: Lexed,
    /// All functions, in source order.
    pub fns: Vec<FnInfo>,
    /// All `unsafe` sites.
    pub unsafes: Vec<UnsafeSite>,
    /// Lines with an `.. :: Relaxed` token sequence.
    pub relaxed: Vec<u32>,
    /// Struct field name → base type name (empty string = ambiguous).
    pub fields: HashMap<String, String>,
    /// Whether the file mentions `RwLock` (gates the `read`/`write` rule).
    pub has_rwlock: bool,
    /// Line spans (inclusive) of test-only items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl FileAst {
    /// Is `line` inside test-only code?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// Mutable accumulator threaded through the item walk (kept separate from
/// the token stream so the walk borrows tokens immutably).
#[derive(Default)]
struct Extract {
    fns: Vec<FnInfo>,
    fields: HashMap<String, String>,
    test_ranges: Vec<(u32, u32)>,
}

/// Attributes collected in front of an item.
#[derive(Default)]
struct Attrs {
    cfg_test: bool,
    is_test_fn: bool,
    class: Option<Class>,
    unknown_class: Option<String>,
}

/// Parses one file's source text.
pub fn parse_file(path: PathBuf, src: &str) -> FileAst {
    let lexed = lex(src);
    let has_rwlock =
        lexed.tokens.iter().any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "RwLock"));
    let mut st = Extract::default();
    let mut i = 0usize;
    parse_items(&lexed.tokens, &mut i, None, false, &mut st);
    let (unsafes, relaxed) = scan_unsafe_and_relaxed(&lexed.tokens);
    FileAst {
        path,
        lexed,
        fns: st.fns,
        unsafes,
        relaxed,
        fields: st.fields,
        has_rwlock,
        test_ranges: st.test_ranges,
    }
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s),
        _ => None,
    }
}

fn is_punct(toks: &[Tok], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

fn is_open(toks: &[Tok], i: usize, d: Delim) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Open(k)) if *k == d)
}

/// Advances past a balanced delimiter group whose opener is at `*i`.
fn skip_group(toks: &[Tok], i: &mut usize) {
    let mut depth = 0usize;
    while *i < toks.len() {
        match toks[*i].kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    return;
                }
            }
            _ => {}
        }
        *i += 1;
    }
}

/// Advances past a balanced `<...>` group whose `<` is at `*i`, treating the
/// `->` arrow as opaque (so `Fn() -> T` inside bounds does not unbalance).
pub(crate) fn skip_angles(toks: &[Tok], i: &mut usize) {
    let mut depth = 0i32;
    while *i < toks.len() {
        match toks[*i].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                let arrow = *i > 0 && matches!(toks[*i - 1].kind, TokKind::Punct('-'));
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        *i += 1;
                        return;
                    }
                }
            }
            TokKind::Open(_) => {
                skip_group(toks, i);
                continue;
            }
            _ => {}
        }
        *i += 1;
    }
}

/// Collects `#[...]` / `#![...]` attributes starting at `*i`.
fn collect_attrs(toks: &[Tok], i: &mut usize) -> Attrs {
    let mut attrs = Attrs::default();
    while is_punct(toks, *i, '#') {
        let mut j = *i + 1;
        if is_punct(toks, j, '!') {
            j += 1;
        }
        if !is_open(toks, j, Delim::Bracket) {
            break;
        }
        let start = j;
        let mut end = j;
        skip_group(toks, &mut end);
        let content: Vec<&str> = (start..end).filter_map(|k| ident_at(toks, k)).collect();
        if content.contains(&"cfg") && content.contains(&"test") && !content.contains(&"not") {
            attrs.cfg_test = true;
        }
        if content == ["test"] || content.first() == Some(&"should_panic") {
            attrs.is_test_fn = true;
        }
        if let Some(pos) = content.iter().position(|s| *s == "progress") {
            match content.get(pos + 1) {
                Some(class_name) => match Class::parse(class_name) {
                    Some(c) => attrs.class = Some(c),
                    None => attrs.unknown_class = Some((*class_name).to_string()),
                },
                None => attrs.unknown_class = Some(String::new()),
            }
        }
        *i = end;
    }
    attrs
}

/// Scans to the next `{` at bracket depth 0, skipping angle groups (used for
/// trait bounds / where clauses before a body).
fn scan_to_body(toks: &[Tok], i: &mut usize) {
    while *i < toks.len() && !is_open(toks, *i, Delim::Brace) {
        if is_punct(toks, *i, '<') {
            skip_angles(toks, i);
        } else if matches!(toks[*i].kind, TokKind::Open(_)) {
            skip_group(toks, i);
        } else {
            *i += 1;
        }
    }
}

/// Parses items until the end of the enclosing brace group (or EOF).
fn parse_items(
    toks: &[Tok],
    i: &mut usize,
    self_type: Option<&str>,
    in_test: bool,
    st: &mut Extract,
) {
    loop {
        if *i >= toks.len() || matches!(toks[*i].kind, TokKind::Close(_)) {
            if *i < toks.len() {
                *i += 1; // consume the closing brace
            }
            return;
        }
        let attrs = collect_attrs(toks, i);
        let item_test = in_test || attrs.cfg_test || attrs.is_test_fn;
        let start_line = toks.get(*i).map(|t| t.line).unwrap_or(0);

        // Modifiers before the item keyword.
        loop {
            match ident_at(toks, *i) {
                Some("pub") => {
                    *i += 1;
                    if is_open(toks, *i, Delim::Paren) {
                        skip_group(toks, i);
                    }
                }
                Some("unsafe") => *i += 1, // recorded by the global scan
                Some("const") if ident_at(toks, *i + 1) == Some("fn") => *i += 1,
                Some("async" | "default") => *i += 1,
                Some("extern")
                    if matches!(toks.get(*i + 1).map(|t| &t.kind), Some(TokKind::Literal))
                        && ident_at(toks, *i + 2) == Some("fn") =>
                {
                    *i += 2;
                }
                _ => break,
            }
        }

        match ident_at(toks, *i) {
            Some("fn") => {
                *i += 1;
                let name = ident_at(toks, *i).unwrap_or("").to_string();
                let line = toks.get(*i).map(|t| t.line).unwrap_or(start_line);
                *i += 1;
                if is_punct(toks, *i, '<') {
                    skip_angles(toks, i);
                }
                if is_open(toks, *i, Delim::Paren) {
                    skip_group(toks, i);
                }
                // Return type / where clause: scan to body `{` or `;`.
                let mut body = None;
                while *i < toks.len() {
                    match &toks[*i].kind {
                        TokKind::Punct(';') => {
                            *i += 1;
                            break;
                        }
                        TokKind::Punct('<') => skip_angles(toks, i),
                        TokKind::Open(Delim::Brace) => {
                            let open = *i;
                            skip_group(toks, i);
                            body = Some((open + 1, *i - 1));
                            break;
                        }
                        TokKind::Open(_) => skip_group(toks, i),
                        _ => *i += 1,
                    }
                }
                if item_test && !in_test {
                    let end_line = toks.get(i.saturating_sub(1)).map(|t| t.line).unwrap_or(line);
                    st.test_ranges.push((start_line, end_line));
                }
                st.fns.push(FnInfo {
                    name,
                    self_type: self_type.map(str::to_string),
                    line,
                    is_test: item_test,
                    class: attrs.class,
                    unknown_class: attrs.unknown_class,
                    body,
                });
            }
            Some("mod") => {
                *i += 2; // `mod` + name
                if is_punct(toks, *i, ';') {
                    *i += 1;
                } else if is_open(toks, *i, Delim::Brace) {
                    *i += 1;
                    parse_items(toks, i, None, item_test, st);
                    if item_test && !in_test {
                        let end_line =
                            toks.get(i.saturating_sub(1)).map(|t| t.line).unwrap_or(start_line);
                        st.test_ranges.push((start_line, end_line));
                    }
                }
            }
            Some("impl") => {
                *i += 1;
                if is_punct(toks, *i, '<') {
                    skip_angles(toks, i);
                }
                // Collect path idents; the impl type is the last path
                // segment after `for` (trait impl) or overall (inherent).
                let mut head: Vec<String> = Vec::new();
                let mut tail: Vec<String> = Vec::new();
                let mut for_seen = false;
                while *i < toks.len() && !is_open(toks, *i, Delim::Brace) {
                    match &toks[*i].kind {
                        TokKind::Ident(s) if s == "for" => {
                            for_seen = true;
                            *i += 1;
                        }
                        TokKind::Ident(s) if s == "where" => scan_to_body(toks, i),
                        TokKind::Ident(s) => {
                            if for_seen {
                                tail.push(s.clone());
                            } else {
                                head.push(s.clone());
                            }
                            *i += 1;
                        }
                        TokKind::Punct('<') => skip_angles(toks, i),
                        TokKind::Open(_) => skip_group(toks, i),
                        _ => *i += 1,
                    }
                }
                let ty = if for_seen { tail.last().cloned() } else { head.last().cloned() };
                if is_open(toks, *i, Delim::Brace) {
                    *i += 1;
                    parse_items(toks, i, ty.as_deref(), item_test, st);
                    if item_test && !in_test {
                        let end_line =
                            toks.get(i.saturating_sub(1)).map(|t| t.line).unwrap_or(start_line);
                        st.test_ranges.push((start_line, end_line));
                    }
                }
            }
            Some("trait") => {
                *i += 1;
                let name = ident_at(toks, *i).map(str::to_string);
                *i += 1;
                scan_to_body(toks, i);
                if is_open(toks, *i, Delim::Brace) {
                    *i += 1;
                    parse_items(toks, i, name.as_deref(), item_test, st);
                }
            }
            Some("struct") => {
                *i += 2; // `struct` + name
                if is_punct(toks, *i, '<') {
                    skip_angles(toks, i);
                }
                if ident_at(toks, *i) == Some("where") {
                    // `struct S<..> where ..: .. { .. }` — scan the clause
                    // up to the field body (or the `;` of a unit struct).
                    scan_to_body(toks, i);
                }
                if is_open(toks, *i, Delim::Brace) {
                    let body_start = *i + 1;
                    skip_group(toks, i);
                    extract_fields(toks, body_start, *i - 1, &mut st.fields);
                } else {
                    // Tuple or unit struct: skip to `;`.
                    while *i < toks.len() && !is_punct(toks, *i, ';') {
                        if matches!(toks[*i].kind, TokKind::Open(_)) {
                            skip_group(toks, i);
                        } else {
                            *i += 1;
                        }
                    }
                    *i += 1;
                }
                if item_test && !in_test {
                    let end_line =
                        toks.get(i.saturating_sub(1)).map(|t| t.line).unwrap_or(start_line);
                    st.test_ranges.push((start_line, end_line));
                }
            }
            Some("enum" | "union") => {
                *i += 1;
                scan_to_body(toks, i);
                if *i < toks.len() {
                    skip_group(toks, i);
                }
                if item_test && !in_test {
                    let end_line =
                        toks.get(i.saturating_sub(1)).map(|t| t.line).unwrap_or(start_line);
                    st.test_ranges.push((start_line, end_line));
                }
            }
            Some("macro_rules") => {
                *i += 1;
                if is_punct(toks, *i, '!') {
                    *i += 1;
                }
                *i += 1; // macro name
                if *i < toks.len() && matches!(toks[*i].kind, TokKind::Open(_)) {
                    skip_group(toks, i);
                }
            }
            Some("use" | "type" | "static" | "const") => {
                while *i < toks.len() && !is_punct(toks, *i, ';') {
                    if matches!(toks[*i].kind, TokKind::Open(_)) {
                        skip_group(toks, i);
                    } else {
                        *i += 1;
                    }
                }
                *i += 1;
                if item_test && !in_test {
                    let end_line =
                        toks.get(i.saturating_sub(1)).map(|t| t.line).unwrap_or(start_line);
                    st.test_ranges.push((start_line, end_line));
                }
            }
            Some("extern") => {
                *i += 1;
                while *i < toks.len()
                    && !is_open(toks, *i, Delim::Brace)
                    && !is_punct(toks, *i, ';')
                {
                    *i += 1;
                }
                if *i < toks.len() && is_open(toks, *i, Delim::Brace) {
                    skip_group(toks, i);
                } else {
                    *i += 1;
                }
            }
            _ => {
                // Unknown construct: advance one token (or skip a stray
                // balanced group) so parsing always terminates.
                if *i < toks.len() && matches!(toks[*i].kind, TokKind::Open(_)) {
                    skip_group(toks, i);
                } else {
                    *i += 1;
                }
            }
        }
    }
}

/// Extracts `field: Type` pairs from a struct body token range (global map;
/// conflicting types for the same field name poison the entry).
fn extract_fields(toks: &[Tok], start: usize, end: usize, fields: &mut HashMap<String, String>) {
    let mut i = start;
    while i < end {
        // Skip attributes and visibility.
        while is_punct(toks, i, '#') {
            i += 1;
            if matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Open(_))) {
                skip_group(toks, &mut i);
            }
        }
        if ident_at(toks, i) == Some("pub") {
            i += 1;
            if is_open(toks, i, Delim::Paren) {
                skip_group(toks, &mut i);
            }
        }
        let field = match ident_at(toks, i) {
            Some(s) => s.to_string(),
            None => {
                i += 1;
                continue;
            }
        };
        i += 1;
        if !is_punct(toks, i, ':') {
            continue;
        }
        i += 1;
        // Base type: the first path's last segment before `<`, skipping
        // `&`, lifetimes, `mut`, `dyn`.
        let mut base: Option<String> = None;
        let mut depth = 0i32;
        while i < end {
            match &toks[i].kind {
                TokKind::Punct(',') if depth == 0 => {
                    i += 1;
                    break;
                }
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    let arrow = i > 0 && matches!(toks[i - 1].kind, TokKind::Punct('-'));
                    if !arrow {
                        depth -= 1;
                    }
                }
                TokKind::Open(_) => {
                    skip_group(toks, &mut i);
                    continue;
                }
                TokKind::Ident(s) if depth == 0 && base.is_none() && s != "mut" && s != "dyn" => {
                    let mut last = s.clone();
                    let mut j = i + 1;
                    while is_punct(toks, j, ':') && is_punct(toks, j + 1, ':') {
                        if let Some(seg) = ident_at(toks, j + 2) {
                            last = seg.to_string();
                            j += 3;
                        } else {
                            break;
                        }
                    }
                    base = Some(last);
                    i = j;
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
        if let Some(ty) = base {
            use std::collections::hash_map::Entry;
            match fields.entry(field) {
                Entry::Vacant(v) => {
                    v.insert(ty);
                }
                Entry::Occupied(mut o) => {
                    if o.get() != &ty {
                        o.insert(String::new());
                    }
                }
            }
        }
    }
}

/// Global pass recording `unsafe` sites and `:: Relaxed` lines.
fn scan_unsafe_and_relaxed(toks: &[Tok]) -> (Vec<UnsafeSite>, Vec<u32>) {
    let mut unsafes = Vec::new();
    let mut relaxed = Vec::new();
    for i in 0..toks.len() {
        match &toks[i].kind {
            TokKind::Ident(s) if s == "unsafe" => {
                // `unsafe fn(..)` in type position (field, param, generic
                // argument) is a pointer type, not an unsafe site.
                let type_position = ident_at(toks, i + 1) == Some("fn")
                    && i > 0
                    && matches!(
                        toks[i - 1].kind,
                        TokKind::Punct(':' | '<' | ',' | '=') | TokKind::Open(_)
                    );
                if type_position {
                    continue;
                }
                let kind = match toks.get(i + 1).map(|t| &t.kind) {
                    Some(TokKind::Open(Delim::Brace)) => "block",
                    Some(TokKind::Ident(k)) if k == "fn" => "fn",
                    Some(TokKind::Ident(k)) if k == "impl" => "impl",
                    Some(TokKind::Ident(k)) if k == "trait" => "trait",
                    // `unsafe extern "C" fn`, etc. — look further for `fn`.
                    _ => {
                        if ident_at(toks, i + 2) == Some("fn")
                            || ident_at(toks, i + 3) == Some("fn")
                        {
                            "fn"
                        } else {
                            "block"
                        }
                    }
                };
                unsafes.push(UnsafeSite { line: toks[i].line, kind });
            }
            // One finding per line, even with several Relaxed on it.
            TokKind::Ident(s)
                if s == "Relaxed"
                    && i >= 2
                    && matches!(toks[i - 1].kind, TokKind::Punct(':'))
                    && matches!(toks[i - 2].kind, TokKind::Punct(':'))
                    && relaxed.last() != Some(&toks[i].line) =>
            {
                relaxed.push(toks[i].line);
            }
            _ => {}
        }
    }
    (unsafes, relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileAst {
        parse_file(PathBuf::from("test.rs"), src)
    }

    #[test]
    fn extracts_free_and_method_fns() {
        let ast = parse(
            "fn free_one() {}\n\
             struct S;\n\
             impl S { fn method(&self) {} }\n\
             impl std::fmt::Debug for S { fn fmt(&self) {} }\n",
        );
        let names: Vec<String> = ast.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["free_one", "S::method", "S::fmt"]);
    }

    #[test]
    fn generic_impl_resolves_type() {
        let ast = parse(
            "impl<T: Clone + Send> Cell<T> where T: Eq { fn load(&self) -> Option<T> { None } }",
        );
        assert_eq!(ast.fns[0].qualified(), "Cell::load");
        assert!(ast.fns[0].body.is_some());
    }

    #[test]
    fn progress_attr_parsed() {
        let ast = parse("#[progress(wait_free)]\nfn f() {}\n#[progress(bogus)]\nfn g() {}\n");
        assert_eq!(ast.fns[0].class, Some(Class::WaitFree));
        assert_eq!(ast.fns[1].class, None);
        assert_eq!(ast.fns[1].unknown_class.as_deref(), Some("bogus"));
    }

    #[test]
    fn cfg_test_mod_ranges() {
        let ast = parse(
            "fn live() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() {}\n\
             }\n",
        );
        assert!(!ast.fns[0].is_test);
        assert!(ast.fns[1].is_test);
        assert!(ast.is_test_line(4));
        assert!(!ast.is_test_line(1));
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let ast = parse("#[cfg(not(test))]\nfn live() {}\n");
        assert!(!ast.fns[0].is_test);
    }

    #[test]
    fn unsafe_and_relaxed_sites() {
        let ast = parse(
            "fn f() { let x = unsafe { g() }; }\n\
             unsafe fn g() {}\n\
             fn h() { a.load(Ordering::Relaxed); }\n",
        );
        assert_eq!(ast.unsafes.len(), 2);
        assert_eq!(ast.unsafes[0].kind, "block");
        assert_eq!(ast.unsafes[1].kind, "fn");
        assert_eq!(ast.relaxed, vec![3]);
    }

    #[test]
    fn struct_fields_mapped() {
        let ast =
            parse("pub struct Shard { pub stats: Generations<Digest>, ports: Vec<Mutex<Handle>> }");
        assert_eq!(ast.fields.get("stats").map(String::as_str), Some("Generations"));
        assert_eq!(ast.fields.get("ports").map(String::as_str), Some("Vec"));
    }

    #[test]
    fn trait_methods_get_trait_type() {
        let ast = parse("trait Consensus<T> { fn propose(&self) -> T; fn peek(&self); }");
        assert_eq!(ast.fns[0].qualified(), "Consensus::propose");
        assert!(ast.fns[0].body.is_none());
    }

    #[test]
    fn fn_returning_impl_fn_arrow_in_generics() {
        let ast = parse("fn f<F: Fn() -> Option<u8>>(g: F) -> impl Fn() -> u8 { move || 1 }");
        assert_eq!(ast.fns.len(), 1);
        assert!(ast.fns[0].body.is_some());
    }

    #[test]
    fn braced_struct_with_where_clause_does_not_swallow_rest_of_file() {
        let ast = parse(
            "pub struct U<S, F>\n\
             where\n\
                 S: Spec,\n\
                 F: Factory<RecordOf<S>>,\n\
             {\n\
                 spec: S,\n\
             }\n\
             impl<S, F> U<S, F>\n\
             where\n\
                 S: Spec,\n\
             {\n\
                 #[progress(wait_free)]\n\
                 fn anchor(&self) -> u64 { 0 }\n\
             }\n",
        );
        assert_eq!(ast.fields.get("spec").map(String::as_str), Some("S"));
        assert_eq!(ast.fns.len(), 1, "the impl after the struct must be parsed");
        assert_eq!(ast.fns[0].qualified(), "U::anchor");
        assert_eq!(ast.fns[0].class, Some(Class::WaitFree));
    }
}
