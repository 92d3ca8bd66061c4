//! Item and call extraction over the token stream.
//!
//! One linear walk with an explicit scope stack turns [`crate::lexer`]
//! output into the structural facts the passes need:
//!
//! * every `fn` — its name, module/impl-qualified path, body token
//!   range, whether it is test code (`#[test]`, `#[cfg(test)]`, or
//!   nested inside either), and the base names of everything it calls;
//! * every named-struct field whose declared type mentions `HashMap`
//!   or `HashSet` (the determinism pass treats iteration over such a
//!   field as a nondeterminism source);
//! * token ranges that are test code, so path-insensitive lints can
//!   skip them without the old "everything after the first
//!   `#[cfg(test)]` line" heuristic.
//!
//! This is deliberately an over-approximation, not a parser: call
//! resolution is by base name, generics are skipped by bracket
//! matching, and anything unrecognized is ignored. The passes built on
//! top are lints with a waiver escape hatch, so erring toward extra
//! edges is safe and erring toward missing ones is not.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Lexed, Tok};

/// Rust keywords (plus primitive-ish words) that never name a callable
/// we care about; `maybe_call` and the receiver rules skip them.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while",
];

pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Base name of the callee (`lock`, `take_next`, `println`).
    pub name: String,
    /// Token index of the name, for liveness analyses that need to know
    /// *where* in the body the call happens.
    pub tok: usize,
    /// 1-based line of the name token.
    pub line: u32,
    /// For method calls `recv.name(…)`: the last path segment of the
    /// receiver (`state` in `self.inner.state.lock()`, `inbox` in
    /// `inbox[m].lock()`). `None` for free/path calls.
    pub recv: Option<String>,
    /// For path calls `A::name(…)`: the segment before the name
    /// (`QueueState` in `QueueState::take_next(…)`, `Self`).
    pub path_qual: Option<String>,
    /// `name!(…)` macro invocation rather than a fn call.
    pub is_macro: bool,
}

/// One function item.
#[derive(Debug)]
pub struct FnInfo {
    /// Base name (`submit`).
    pub name: String,
    /// Scope-qualified name (`JobQueue::submit`, `tests::smoke`).
    pub qual: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Test code: `#[test]` / inside `#[cfg(test)]`.
    pub is_test: bool,
    /// Token range of the signature (after the name, before the body).
    pub sig: Range<usize>,
    /// Token range strictly inside the body braces.
    pub body: Range<usize>,
    /// Calls made in the body (`f(…)`, `x.f(…)`, `f::<T>(…)`, `f!(…)`).
    pub calls: Vec<Call>,
}

/// Everything extracted from one file.
#[derive(Debug)]
pub struct FileIndex {
    pub rel: PathBuf,
    pub lexed: Lexed,
    /// Source lines, for excerpts in findings.
    pub src_lines: Vec<String>,
    pub fns: Vec<FnInfo>,
    /// Token ranges that are test code (test fns, `#[cfg(test)]` mods).
    pub test_ranges: Vec<Range<usize>>,
    /// Names of struct fields declared with a `HashMap`/`HashSet` type.
    pub hash_fields: BTreeSet<String>,
    /// Every named struct field declared in this file → whether its
    /// type mentions a hash container. Lets the taint pass resolve
    /// `self.field` against the *local* declaration instead of the
    /// workspace-wide name union (a `Vec` field must not inherit
    /// hash-ness from a same-named field in another crate).
    pub fields: BTreeMap<String, bool>,
}

impl FileIndex {
    /// Is token index `i` inside test code?
    pub fn in_test_code(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|r| r.contains(&i))
    }

    /// Trimmed source text of 1-based `line`, truncated for display.
    pub fn excerpt(&self, line: u32) -> String {
        let t = self
            .src_lines
            .get(line as usize - 1)
            .map(|s| s.trim())
            .unwrap_or("");
        if t.chars().count() > 120 {
            let head: String = t.chars().take(119).collect();
            format!("{head}…")
        } else {
            t.to_string()
        }
    }
}

/// Lex and index one file.
pub fn index_file(rel: &Path, src: &str) -> FileIndex {
    let lexed = lex(src);
    let mut ix = Indexer {
        t: &lexed.tokens,
        i: 0,
        frames: Vec::new(),
        fns: Vec::new(),
        test_ranges: Vec::new(),
        hash_fields: BTreeSet::new(),
        fields: BTreeMap::new(),
        pending_test: false,
    };
    ix.run();
    let Indexer {
        fns,
        test_ranges,
        hash_fields,
        fields,
        ..
    } = ix;
    FileIndex {
        rel: rel.to_path_buf(),
        src_lines: src.lines().map(str::to_string).collect(),
        lexed,
        fns,
        test_ranges,
        hash_fields,
        fields,
    }
}

enum FrameKind {
    Mod(String),
    Impl(String),
    Fn(usize),
    Block,
}

struct Frame {
    kind: FrameKind,
    test: bool,
    /// This frame is where test-ness *starts* (parent was non-test).
    test_root: bool,
    /// Token index just past the opening `{`.
    start: usize,
}

struct Indexer<'a> {
    t: &'a [crate::lexer::Token],
    i: usize,
    frames: Vec<Frame>,
    fns: Vec<FnInfo>,
    test_ranges: Vec<Range<usize>>,
    hash_fields: BTreeSet<String>,
    fields: BTreeMap<String, bool>,
    pending_test: bool,
}

impl Indexer<'_> {
    fn run(&mut self) {
        while self.i < self.t.len() {
            match &self.t[self.i].tok {
                Tok::Punct('#') if self.punct(self.i + 1, '[') => self.attr(),
                Tok::Punct('#') if self.punct(self.i + 1, '!') && self.punct(self.i + 2, '[') => {
                    // Inner attribute `#![…]`: skip without test-marking.
                    self.i += 2;
                    self.skip_brackets();
                }
                Tok::Ident(k) if k == "mod" && self.ident(self.i + 1).is_some() => self.mod_item(),
                Tok::Ident(k) if k == "impl" => self.impl_item(),
                Tok::Ident(k) if k == "fn" && self.ident(self.i + 1).is_some() => self.fn_item(),
                Tok::Ident(k) if k == "struct" && self.ident(self.i + 1).is_some() => {
                    self.struct_item()
                }
                Tok::Punct('{') => {
                    self.push_frame(FrameKind::Block, self.cur_test());
                    self.i += 1;
                }
                Tok::Punct('}') => {
                    self.pop_frame();
                    self.i += 1;
                }
                Tok::Punct(';') => {
                    self.pending_test = false;
                    self.i += 1;
                }
                Tok::Ident(name) if !is_keyword(name) => {
                    self.maybe_call(name.clone());
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        // Unbalanced input (macro-heavy files): close what's left so
        // body ranges stay well-formed.
        while !self.frames.is_empty() {
            self.pop_frame();
        }
    }

    fn ident(&self, i: usize) -> Option<&str> {
        match self.t.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.t.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
    }

    fn cur_test(&self) -> bool {
        self.frames.iter().any(|f| f.test)
    }

    fn push_frame(&mut self, kind: FrameKind, test: bool) {
        let parent_test = self.cur_test();
        self.frames.push(Frame {
            kind,
            test,
            test_root: test && !parent_test,
            start: self.i + 1,
        });
    }

    fn pop_frame(&mut self) {
        if let Some(f) = self.frames.pop() {
            if let FrameKind::Fn(idx) = f.kind {
                self.fns[idx].body.end = self.i;
            }
            if f.test_root {
                self.test_ranges.push(f.start..self.i);
            }
        }
    }

    /// Scope path of the current stack (mods, impls, enclosing fns).
    fn qual_prefix(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        for f in &self.frames {
            match &f.kind {
                FrameKind::Mod(n) | FrameKind::Impl(n) => parts.push(n),
                FrameKind::Fn(idx) => parts.push(&self.fns[*idx].name),
                FrameKind::Block => {}
            }
        }
        parts.join("::")
    }

    /// At `#` with `[` next: consume the attribute; `test`-bearing cfg
    /// attributes mark the next item as test code. `cfg(not(test))`
    /// deliberately does not count.
    fn attr(&mut self) {
        self.i += 1; // onto '['
        let start = self.i;
        self.skip_brackets();
        let mut saw_test = false;
        let mut saw_not = false;
        for t in &self.t[start..self.i.min(self.t.len())] {
            if let Tok::Ident(s) = &t.tok {
                saw_test |= s == "test";
                saw_not |= s == "not";
            }
        }
        if saw_test && !saw_not {
            self.pending_test = true;
        }
    }

    /// At `[`: advance past the matching `]`.
    fn skip_brackets(&mut self) {
        let mut depth = 0usize;
        while self.i < self.t.len() {
            match self.t[self.i].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// `j` sits on `<`: return the index just past the matching `>`.
    /// The `>` of a `->` arrow never closes a bracket. Capped so a
    /// stray comparison operator can't eat the file.
    fn skip_angles(&self, j: usize) -> usize {
        let mut depth = 0usize;
        let mut k = j;
        let cap = (j + 512).min(self.t.len());
        while k < cap {
            match self.t[k].tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') if !self.punct(k.wrapping_sub(1), '-') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        j + 1
    }

    fn mod_item(&mut self) {
        let name = self.ident(self.i + 1).unwrap_or("").to_string();
        if self.punct(self.i + 2, '{') {
            let test = self.cur_test() || self.pending_test;
            self.i += 2; // onto '{' so frame.start is right
            self.push_frame(FrameKind::Mod(name), test);
            self.i += 1;
        } else {
            // `mod x;` — out-of-line, nothing to scope.
            self.i += 2;
        }
        self.pending_test = false;
    }

    /// `impl … {`: the scope name is the last path segment of the
    /// implemented type — after `for` if present, before generics,
    /// stopping at `where`.
    fn impl_item(&mut self) {
        let mut j = self.i + 1;
        if self.punct(j, '<') {
            j = self.skip_angles(j);
        }
        let mut ty = String::new();
        while j < self.t.len() {
            match &self.t[j].tok {
                Tok::Punct('{') => break,
                Tok::Punct(';') => {
                    self.i = j + 1;
                    self.pending_test = false;
                    return;
                }
                Tok::Punct('<') => {
                    j = self.skip_angles(j);
                    continue;
                }
                Tok::Ident(k) if k == "for" => ty.clear(),
                Tok::Ident(k) if k == "where" => {
                    while j < self.t.len() && !self.punct(j, '{') {
                        j += 1;
                    }
                    break;
                }
                Tok::Ident(k) if !is_keyword(k) => ty = k.clone(),
                _ => {}
            }
            j += 1;
        }
        let test = self.cur_test() || self.pending_test;
        self.pending_test = false;
        self.i = j; // onto '{'
        self.push_frame(FrameKind::Impl(ty), test);
        self.i += 1;
    }

    fn fn_item(&mut self) {
        let name = self.ident(self.i + 1).unwrap_or("").to_string();
        let line = self.t[self.i + 1].line;
        let mut j = self.i + 2;
        while j < self.t.len() && !self.punct(j, '{') && !self.punct(j, ';') {
            if self.punct(j, '<') {
                j = self.skip_angles(j);
            } else {
                j += 1;
            }
        }
        if j >= self.t.len() || self.punct(j, ';') {
            // Trait method declaration / extern fn: no body to index.
            self.pending_test = false;
            self.i = j + 1;
            return;
        }
        let is_test = self.cur_test() || self.pending_test;
        self.pending_test = false;
        let prefix = self.qual_prefix();
        let qual = if prefix.is_empty() {
            name.clone()
        } else {
            format!("{prefix}::{name}")
        };
        let idx = self.fns.len();
        self.fns.push(FnInfo {
            name,
            qual,
            line,
            is_test,
            sig: (self.i + 2)..j,
            body: (j + 1)..(j + 1), // end patched at pop
            calls: Vec::new(),
        });
        self.i = j; // onto '{'
        self.push_frame(FrameKind::Fn(idx), is_test);
        self.i += 1;
    }

    /// `struct X { … }`: record fields whose type mentions a hash
    /// container. Tuple/unit structs carry no named fields.
    fn struct_item(&mut self) {
        let mut j = self.i + 2;
        while j < self.t.len() {
            match self.t[j].tok {
                Tok::Punct('{') => break,
                Tok::Punct(';') => {
                    self.pending_test = false;
                    self.i = j + 1;
                    return;
                }
                Tok::Punct('(') => {
                    // Tuple struct: skip the parens, then fall out at `;`.
                    let mut depth = 0usize;
                    while j < self.t.len() {
                        match self.t[j].tok {
                            Tok::Punct('(') => depth += 1,
                            Tok::Punct(')') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                Tok::Punct('<') => {
                    j = self.skip_angles(j);
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        if j >= self.t.len() {
            self.i = j;
            return;
        }
        // j is at '{'. Walk the body, splitting fields at top-level commas.
        let (mut bd, mut pd, mut sd, mut ad) = (1usize, 0usize, 0usize, 0usize);
        let mut k = j + 1;
        let mut chunk = k;
        while k < self.t.len() && bd > 0 {
            match self.t[k].tok {
                Tok::Punct('{') => bd += 1,
                Tok::Punct('}') => {
                    bd -= 1;
                    if bd == 0 {
                        self.field_chunk(chunk, k);
                    }
                }
                Tok::Punct('(') => pd += 1,
                Tok::Punct(')') => pd = pd.saturating_sub(1),
                Tok::Punct('[') => sd += 1,
                Tok::Punct(']') => sd = sd.saturating_sub(1),
                Tok::Punct('<') => ad += 1,
                Tok::Punct('>') if !self.punct(k.wrapping_sub(1), '-') => ad = ad.saturating_sub(1),
                Tok::Punct(',') if bd == 1 && pd == 0 && sd == 0 && ad == 0 => {
                    self.field_chunk(chunk, k);
                    chunk = k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        self.pending_test = false;
        self.i = k;
    }

    /// One `name: Type` chunk of a struct body: if the type mentions
    /// `HashMap`/`HashSet`, remember the field name.
    fn field_chunk(&mut self, from: usize, to: usize) {
        let mut colon = None;
        for k in from..to {
            if self.punct(k, ':') && !self.punct(k + 1, ':') && !self.punct(k.wrapping_sub(1), ':')
            {
                colon = Some(k);
                break;
            }
        }
        let Some(c) = colon else { return };
        let name = match (c > from).then(|| &self.t[c - 1].tok) {
            Some(Tok::Ident(n)) if !is_keyword(n) => n.clone(),
            _ => return,
        };
        let hashy = self.t[c + 1..to]
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "HashMap" || s == "HashSet"));
        if hashy {
            self.hash_fields.insert(name.clone());
        }
        // `true` wins across same-named fields in one file: erring
        // toward hash-typed is the safe direction for a taint pass.
        let e = self.fields.entry(name).or_insert(false);
        *e = *e || hashy;
    }

    /// A non-keyword ident inside a fn body: record a call edge when it
    /// is followed by `(`, `!`, or a `::<…>(` turbofish. The receiver
    /// segment (for `recv.name(…)`) and path qualifier (for
    /// `A::name(…)`) travel along for the resolution heuristics.
    fn maybe_call(&mut self, name: String) {
        let Some(fn_idx) = self.frames.iter().rev().find_map(|f| match f.kind {
            FrameKind::Fn(idx) => Some(idx),
            _ => None,
        }) else {
            return;
        };
        let i = self.i;
        let is_macro = self.punct(i + 1, '!');
        let call = self.punct(i + 1, '(')
            || is_macro
            || (self.punct(i + 1, ':') && self.punct(i + 2, ':') && self.punct(i + 3, '<') && {
                let e = self.skip_angles(i + 3);
                self.punct(e, '(')
            });
        if !call {
            return;
        }
        let mut recv = None;
        let mut path_qual = None;
        if self.punct(i.wrapping_sub(1), '.') {
            recv = self.recv_segment(i.wrapping_sub(2));
        } else if self.punct(i.wrapping_sub(1), ':') && self.punct(i.wrapping_sub(2), ':') {
            if let Some(q) = self.ident(i.wrapping_sub(3)) {
                if !is_keyword(q) || q == "Self" || q == "self" {
                    path_qual = Some(q.to_string());
                }
            }
        }
        self.fns[fn_idx].calls.push(Call {
            name,
            tok: i,
            line: self.t[i].line,
            recv,
            path_qual,
            is_macro,
        });
    }

    /// The last path segment of a method receiver ending at token `j`
    /// (the token before the `.`): steps back over one trailing index
    /// `[…]` or call `(…)` so `inbox[m].lock()` and `slot(m).lock()`
    /// both resolve to their base ident.
    fn recv_segment(&self, j: usize) -> Option<String> {
        let mut j = j;
        let close_open = match self.t.get(j).map(|t| &t.tok) {
            Some(Tok::Punct(']')) => Some((']', '[')),
            Some(Tok::Punct(')')) => Some((')', '(')),
            _ => None,
        };
        if let Some((close, open)) = close_open {
            let mut depth = 0usize;
            loop {
                match self.t.get(j).map(|t| &t.tok) {
                    Some(Tok::Punct(c)) if *c == close => depth += 1,
                    Some(Tok::Punct(c)) if *c == open => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    None => return None,
                    _ => {}
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            j = j.checked_sub(1)?;
        }
        match self.t.get(j).map(|t| &t.tok) {
            Some(Tok::Ident(s)) if !is_keyword(s) || s == "self" => Some(s.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> FileIndex {
        index_file(Path::new("crates/x/src/lib.rs"), src)
    }

    #[test]
    fn free_fns_and_inherent_methods_get_quals() {
        let src = "
            fn top() {}
            mod inner { fn deep() {} }
            struct S;
            impl S { fn method(&self) {} }
            impl std::fmt::Display for S { fn fmt(&self) {} }
        ";
        let ix = index(src);
        let quals: Vec<&str> = ix.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["top", "inner::deep", "S::method", "S::fmt"]);
    }

    #[test]
    fn impl_with_generics_and_where_clause() {
        let src = "
            impl<T: Send> Router<T> where T: Sync { fn post(&self) {} }
            impl<F: Fn() -> u32> Wrapper<F> { fn call(&self) {} }
        ";
        let ix = index(src);
        let quals: Vec<&str> = ix.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["Router::post", "Wrapper::call"]);
    }

    #[test]
    fn test_attributes_mark_fns_and_mods() {
        let src = "
            fn prod() {}
            #[test]
            fn unit() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn case() {}
            }
            #[cfg(not(test))]
            fn also_prod() {}
        ";
        let ix = index(src);
        let flags: Vec<(&str, bool)> = ix
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_test))
            .collect();
        assert_eq!(
            flags,
            vec![
                ("prod", false),
                ("unit", true),
                ("helper", true),
                ("case", true),
                ("also_prod", false),
            ]
        );
        // Token-range view agrees: the tests mod is one test range.
        let spawn_tok = ix
            .fns
            .iter()
            .find(|f| f.name == "case")
            .map(|f| f.body.start)
            .unwrap();
        assert!(ix.in_test_code(spawn_tok));
    }

    #[test]
    fn calls_cover_free_method_turbofish_and_macros() {
        let src = "
            fn caller(v: Vec<u32>) {
                helper();
                v.iter().sum::<u32>();
                parse::<u32>(\"7\");
                println!(\"hi\");
                let s = Struct { field: 1 };
            }
        ";
        let ix = index(src);
        let calls = &ix.fns[0].calls;
        let has = |n: &str| calls.iter().any(|c| c.name == n);
        for expect in ["helper", "iter", "sum", "parse", "println"] {
            assert!(has(expect), "missing {expect} in {calls:?}");
        }
        // Struct literals are not calls.
        assert!(!has("Struct"));
    }

    #[test]
    fn call_sites_carry_receiver_and_path_qualifier() {
        let src = "
            fn caller(&self) {
                free();
                self.inner.state.lock();
                inbox[m].lock();
                QueueState::take_next();
                Self::helper();
                println!(\"hi\");
            }
        ";
        let ix = index(src);
        let calls = &ix.fns[0].calls;
        let find = |n: &str| calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(find("free").recv, None);
        assert_eq!(find("free").path_qual, None);
        assert_eq!(find("lock").recv.as_deref(), Some("state"));
        assert_eq!(
            calls
                .iter()
                .filter(|c| c.name == "lock")
                .nth(1)
                .unwrap()
                .recv
                .as_deref(),
            Some("inbox")
        );
        assert_eq!(find("take_next").path_qual.as_deref(), Some("QueueState"));
        assert_eq!(find("helper").path_qual.as_deref(), Some("Self"));
        assert!(find("println").is_macro);
        assert!(!find("lock").is_macro);
        // Token indices are inside the body and lines are 1-based.
        assert!(ix.fns[0].body.contains(&find("free").tok));
        assert!(find("free").line >= 2);
    }

    #[test]
    fn hash_fields_are_found_through_generics_and_nesting() {
        let src = "
            struct State {
                jobs: HashMap<JobId, JobEntry>,
                names: Vec<String>,
                by_client: BTreeMap<u32, HashSet<u64>>,
                plain: u64,
            }
            struct Tuple(HashMap<u32, u32>);
        ";
        let ix = index(src);
        let fields: Vec<&str> = ix.hash_fields.iter().map(String::as_str).collect();
        assert_eq!(fields, vec!["by_client", "jobs"]);
    }

    #[test]
    fn fn_bodies_have_sane_token_ranges() {
        let src = "fn a() { inner(); } fn b() {}";
        let ix = index(src);
        assert_eq!(ix.fns.len(), 2);
        let a = &ix.fns[0];
        assert!(a.body.start < a.body.end);
        // `b` has an empty body.
        let b = &ix.fns[1];
        assert!(b.body.is_empty());
    }

    #[test]
    fn trait_method_declarations_without_bodies_are_skipped() {
        let src = "trait T { fn decl(&self); fn with_default(&self) { helper(); } }";
        let ix = index(src);
        let names: Vec<&str> = ix.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_default"]);
    }

    #[test]
    fn nested_fn_quals_include_the_outer_fn() {
        let src = "fn outer() { fn inner() {} inner(); }";
        let ix = index(src);
        let quals: Vec<&str> = ix.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["outer", "outer::inner"]);
        assert!(ix.fns[0].calls.iter().any(|c| c.name == "inner"));
    }
}
