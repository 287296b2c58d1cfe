//! R3 `unit-newtypes`: a token check over the [`crate::lexer`] stream.
//!
//! A parameter of a plain `pub fn` whose name carries a unit suffix
//! (`freq_hz`, `gain_db`, `range_m`, ...) must take the
//! `rfly_dsp::units` newtype, not raw `f64`: a finding fires when the
//! parameter's type contains the word `f64`, bare, borrowed, in a slice
//! or inside an `Option`.
//!
//! The scan walks items only: the file, `mod`, `impl` and `trait`
//! bodies. Every other brace group (fn bodies, struct and enum bodies,
//! const initialisers, macro bodies) is skipped whole, so a nested fn
//! is never a public API. Skipped as well: `pub(crate)`/`pub(super)`/
//! `pub(in …)` and private fns, trait-method declarations (they carry
//! no `pub`), items under `#[cfg(test)]`/`#[test]`, and test-like
//! files ([`is_source`]).

use std::fmt;

use crate::lexer::{Tok, TokKind};

/// One R3 violation.
#[derive(Debug)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line of the parameter.
    pub line: u32,
    /// Which parameter takes raw `f64`, and the newtype it should take.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [unit-newtypes] {}",
            self.file, self.line, self.message
        )
    }
}

/// True if R3 applies to the workspace-relative `path`: shipping
/// library and binary code. Integration tests, benches, examples and
/// the fixtures under `tests/` are test-like and out of scope, but a
/// crate's own `src/` is always source.
pub fn is_source(path: &str) -> bool {
    let in_crate_src = path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, rest)| rest.starts_with("src/"));
    let test_like = path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
        || path.contains("/examples/");
    in_crate_src || !test_like
}

/// Unit suffix → the `rfly_dsp::units` newtype that carries the unit,
/// longest suffix first so `_dbm` wins over `_db` and `_ms` over
/// `_m`/`_s`.
const SUFFIXES: &[(&str, &str)] = &[
    ("_meters", "Meters"),
    ("_seconds", "Seconds"),
    ("_secs", "Seconds"),
    ("_sec", "Seconds"),
    ("_dbm", "Dbm"),
    ("_khz", "Hertz"),
    ("_mhz", "Hertz"),
    ("_ghz", "Hertz"),
    ("_ms", "Seconds"),
    ("_hz", "Hertz"),
    ("_db", "Db"),
    ("_m", "Meters"),
    ("_s", "Seconds"),
];

/// The newtype a unit-suffixed identifier names (`center_hz` → `Hertz`).
fn suffix_unit(name: &str) -> Option<&'static str> {
    let lower = name.to_ascii_lowercase();
    SUFFIXES
        .iter()
        .find(|(suf, _)| lower.ends_with(suf))
        .map(|&(_, unit)| unit)
}

/// R3 findings for one lexed file. `path` must be workspace-relative;
/// it decides test-like scoping.
pub fn check(path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut scan = Scan {
        toks,
        i: 0,
        path,
        findings: Vec::new(),
    };
    if is_source(path) {
        // A stray `}` ends no container at file level.
        while scan.i < toks.len() {
            scan.items(false);
            scan.i += 1;
        }
    }
    scan.findings
}

struct Scan<'a> {
    toks: &'a [Tok],
    i: usize,
    path: &'a str,
    findings: Vec<Finding>,
}

impl Scan<'_> {
    fn at_punct(&self, c: char) -> bool {
        self.toks.get(self.i).is_some_and(|t| t.is_punct(c))
    }

    /// Scans items up to (not past) the `}` that closes the container,
    /// or to end of file. `in_test` marks a container under a test
    /// attribute.
    fn items(&mut self, in_test: bool) {
        // Per-item state: what the attributes and visibility seen since
        // the last item boundary say about the next item.
        let mut test = in_test;
        let mut public = false;
        while let Some(t) = self.toks.get(self.i) {
            if t.is_punct('}') {
                return;
            }
            self.i += 1;
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "#") => {
                    let inner = self.at_punct('!');
                    if inner {
                        self.i += 1;
                    }
                    let start = self.i;
                    self.skip_group();
                    test |= !inner && is_test_attr(&self.toks[start..self.i]);
                }
                (TokKind::Ident, "pub") => {
                    public = !self.at_punct('(');
                    if !public {
                        self.skip_group();
                    }
                }
                // `fn` before a name; `fn(f64)` is a pointer type.
                (TokKind::Ident, "fn")
                    if self
                        .toks
                        .get(self.i)
                        .is_some_and(|n| n.kind == TokKind::Ident) =>
                {
                    self.fn_item(public && !test);
                    (test, public) = (in_test, false);
                }
                (TokKind::Ident, "mod" | "impl" | "trait") => {
                    if self.skip_to_body() {
                        self.i += 1;
                        self.items(test);
                        self.i += 1;
                    }
                    (test, public) = (in_test, false);
                }
                (TokKind::Punct, ";") => (test, public) = (in_test, false),
                (TokKind::Punct, "{") => {
                    self.i -= 1;
                    self.skip_group();
                    (test, public) = (in_test, false);
                }
                (TokKind::Punct, "(" | "[") => {
                    self.i -= 1;
                    self.skip_group();
                }
                _ => {}
            }
        }
    }

    /// After `fn`: the name, generics, parameter list (checked when
    /// `check` holds), then the return type and where clause up to the
    /// body, which is skipped whole.
    fn fn_item(&mut self, check: bool) {
        self.i += 1; // the name
        if self.at_punct('<') {
            self.skip_group();
        }
        if !self.at_punct('(') {
            return;
        }
        let open = self.i;
        self.skip_group();
        if check {
            let inner = &self.toks[open + 1..self.i.saturating_sub(1)];
            for param in split_top_level(inner) {
                self.check_param(param);
            }
        }
        if self.skip_to_body() {
            self.skip_group();
        }
    }

    /// Flags one `pattern: Type` parameter that names a unit but takes
    /// raw `f64`.
    fn check_param(&mut self, mut param: &[Tok]) {
        let Some(first) = param.first() else {
            return;
        };
        let line = first.line;
        while param.first().is_some_and(|t| t.is_punct('#')) {
            param = &param[1..];
            param = &param[group_len(param)..];
        }
        let receiver = param
            .iter()
            .find(|t| !(t.is_punct('&') || t.kind == TokKind::Lifetime || t.is_ident("mut")));
        if receiver.is_some_and(|t| t.is_ident("self")) {
            return;
        }
        let Some(colon) = (0..param.len()).find(|&k| is_type_colon(param, k)) else {
            return;
        };
        let (pat, ty) = (&param[..colon], &param[colon + 1..]);
        let Some(name) = bound_name(pat) else {
            return;
        };
        let Some(unit) = suffix_unit(name) else {
            return;
        };
        if ty.iter().any(|t| t.is_ident("f64")) {
            self.findings.push(Finding {
                file: self.path.to_string(),
                line,
                message: format!("parameter `{name}` takes raw f64 — use rfly_dsp::units::{unit}"),
            });
        }
    }

    /// Skips an item header (generics, bounds, return type, where
    /// clause) to its body. True with the cursor on the body's `{`;
    /// false past a `;` (no body) or at a closing `}`.
    fn skip_to_body(&mut self) -> bool {
        while let Some(t) = self.toks.get(self.i) {
            if t.is_punct('{') {
                return true;
            }
            if t.is_punct('}') {
                return false;
            }
            if t.is_punct(';') {
                self.i += 1;
                return false;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                self.skip_group();
            } else {
                self.i += 1;
            }
        }
        false
    }

    /// Skips the balanced group whose opener is at the cursor; any other
    /// token is skipped alone.
    fn skip_group(&mut self) {
        self.i += group_len(&self.toks[self.i.min(self.toks.len())..]).max(1);
    }
}

/// Length of the balanced `(..)`, `[..]`, `{..}` or `<..>` group that
/// opens `toks` (the whole slice if it never closes); 0 when `toks`
/// does not start with an opener. The `>` of a `->` closes nothing.
fn group_len(toks: &[Tok]) -> usize {
    let Some(open) = toks.first() else {
        return 0;
    };
    let close = match open.text.as_str() {
        "(" if open.kind == TokKind::Punct => ')',
        "[" if open.kind == TokKind::Punct => ']',
        "{" if open.kind == TokKind::Punct => '}',
        "<" if open.kind == TokKind::Punct => '>',
        _ => return 0,
    };
    let opener = open.text.chars().next().unwrap_or('(');
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate() {
        if t.is_punct(opener) {
            depth += 1;
        } else if t.is_punct(close) && !is_arrow_head(toks, k) {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    toks.len()
}

/// True if `toks[k]` is the `>` of a `->`.
fn is_arrow_head(toks: &[Tok], k: usize) -> bool {
    k > 0 && toks[k].is_punct('>') && toks[k - 1].is_punct('-')
}

/// Splits a parameter list at its top-level commas.
fn split_top_level(toks: &[Tok]) -> Vec<&[Tok]> {
    let mut parts = Vec::new();
    let (mut depth, mut start) = (0i32, 0);
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ">" if is_arrow_head(toks, k) => {}
            ")" | "]" | "}" | ">" => depth -= 1,
            "," if depth == 0 => {
                parts.push(&toks[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    parts.push(&toks[start..]);
    parts
}

/// True if `param[k]` is the top-level `:` between pattern and type,
/// not half of a `::` path separator.
fn is_type_colon(param: &[Tok], k: usize) -> bool {
    let colon = |j: usize| param.get(j).is_some_and(|t| t.is_punct(':'));
    let depth: i32 = param[..k]
        .iter()
        .map(|t| match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokKind::Punct => 1,
            ")" | "]" | "}" if t.kind == TokKind::Punct => -1,
            _ => 0,
        })
        .sum();
    colon(k) && depth == 0 && !colon(k + 1) && !(k > 0 && colon(k - 1))
}

/// The name a parameter pattern binds: `mut x` → `x`, `(a, b)` → `a`;
/// path segments, struct-pattern labels and `mut`/`ref`/`box` are not
/// bindings. Falls back to the first identifier.
fn bound_name(pat: &[Tok]) -> Option<&str> {
    let colon = |j: usize| pat.get(j).is_some_and(|t| t.is_punct(':'));
    let binding = pat.iter().enumerate().find(|&(k, t)| {
        let first = t.text.chars().next().unwrap_or('_');
        t.kind == TokKind::Ident
            && (first.is_lowercase() || first == '_')
            && !matches!(
                t.text.as_str(),
                "_" | "mut" | "ref" | "box" | "true" | "false"
            )
            && !(colon(k + 1) || (k >= 2 && colon(k - 1) && colon(k - 2)))
    });
    binding
        .map(|(_, t)| t)
        .or_else(|| pat.iter().find(|t| t.kind == TokKind::Ident))
        .map(|t| t.text.as_str())
}

/// True for `#[test]` and `#[cfg(test ...)]`, given the bracket group.
fn is_test_attr(group: &[Tok]) -> bool {
    let inner = group.get(1..group.len().saturating_sub(1)).unwrap_or(&[]);
    match inner {
        [t] => t.is_ident("test"),
        [cfg, open, t, ..] => cfg.is_ident("cfg") && open.is_punct('(') && t.is_ident("test"),
        _ => false,
    }
}

mod tests {
    use super::*;
    use crate::lexer::lex;

    fn hits(src: &str) -> Vec<(u32, String)> {
        check("crates/channel/src/x.rs", &lex(src))
            .into_iter()
            .map(|f| (f.line, f.message))
            .collect()
    }

    #[test]
    fn unit_suffixed_public_params_need_newtypes() {
        let hits = hits(
            "pub fn tune(freq_hz: f64, span: &[f64], gains_db: &[f64]) {}\n\
             pub(crate) fn scoped(freq_hz: f64) {}\n\
             fn private(freq_hz: f64) {}\n\
             pub fn typed(freq_hz: Hertz, n_m: usize) {}\n\
             pub trait T { fn decl(&self, delay_s: f64); }\n\
             impl X { pub fn method(&self, range_m: f64) {} }\n\
             #[cfg(test)]\n\
             mod tests { pub fn helper(freq_hz: f64) {} }\n",
        );
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits[0].1.contains("`freq_hz`") && hits[0].1.contains("Hertz"));
        assert!(hits[1].1.contains("`gains_db`") && hits[1].1.contains("Db"));
        assert_eq!(hits[2].0, 6);
        assert!(hits[2].1.contains("`range_m`") && hits[2].1.contains("Meters"));
    }

    #[test]
    fn test_fns_are_skipped() {
        let hits = hits(
            "#[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() {\n\
                     let x: Option<u32> = None;\n\
                     let _ = x.unwrap();\n\
                 }\n\
             }\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn closure_and_optional_slice_types_are_raw_f64() {
        // The `>` of `->` must not close a group, or the comma after the
        // closure type would be lost and `span_m` read as part of it.
        let hits = hits(
            "pub fn shape(\n\
                 gain_db: impl Fn(f64) -> f64,\n\
                 span_m: Option<&[f64]>,\n\
                 n: usize,\n\
             ) {}\n",
        );
        assert_eq!(
            hits,
            [
                (
                    2,
                    "parameter `gain_db` takes raw f64 — use rfly_dsp::units::Db".to_string()
                ),
                (
                    3,
                    "parameter `span_m` takes raw f64 — use rfly_dsp::units::Meters".to_string()
                ),
            ]
        );
    }

    #[test]
    fn where_clause_and_const_fn() {
        let hits = hits(
            "pub fn mix<T>(lo_hz: T, span_m: f64) -> f64\n\
             where\n\
                 T: Into<f64> + Fn(f64) -> f64,\n\
             {\n\
                 span_m\n\
             }\n\
             pub const fn wrap(delay_s: f64) -> f64 { delay_s }\n",
        );
        let lines: Vec<u32> = hits.iter().map(|h| h.0).collect();
        assert_eq!(lines, [1, 7], "{hits:?}");
        assert!(hits[0].1.contains("`span_m`"));
        assert!(hits[1].1.contains("`delay_s`") && hits[1].1.contains("Seconds"));
    }

    #[test]
    fn unit_names_outside_the_params_are_ignored() {
        // A unit-suffixed fn name, and a fn-pointer return type whose
        // own parameter is named `freq_hz`: neither is a parameter.
        let hits = hits(
            "pub fn range_m(tag: usize) -> f64 { 0.0 }\n\
             pub fn tuner(n: usize) -> fn(freq_hz: f64) -> f64 { todo() }\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn test_scope_covers_nested_mods_and_ends_with_its_item() {
        let hits = hits(
            "#[cfg(test)]\n\
             mod tests {\n\
                 mod inner { pub fn h(freq_hz: f64) {} }\n\
             }\n\
             #[cfg(test)]\n\
             fn helper(freq_hz: f64) {}\n\
             pub fn real(freq_hz: f64) {}\n",
        );
        let lines: Vec<u32> = hits.iter().map(|h| h.0).collect();
        assert_eq!(lines, [7], "{hits:?}");
    }
}
