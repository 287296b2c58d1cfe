//! Findings, the rule catalog, and the allow gate.
//!
//! The one code rule, R3 `unit-newtypes`, runs in
//! [`crate::unit_newtypes`]; every finding it emits passes through
//! [`apply_allows`] exactly once. The token-level invariants (R1, R2,
//! R4–R8) are rustc and clippy lints; DESIGN.md §8 maps each one.

use crate::lexer::Comment;

/// One rule violation; every finding fails the gate.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule slug (e.g. `unit-newtypes`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The trimmed source-line text, filled in by [`apply_allows`] for
    /// the JSON artifact.
    pub line_text: String,
}

/// All rule slugs the analyzer knows: R3 plus the two allowlist
/// meta-rules.
pub const RULES: &[(&str, &str)] = &[
    (
        "unit-newtypes",
        "R3: unit-suffixed public fn params must use rfly-dsp::units newtypes",
    ),
    (
        "allow-justification",
        "allow directives must carry a `-- justification`",
    ),
    (
        "stale-allow",
        "allow directives must suppress at least one finding",
    ),
];

/// What kind of file is being linted, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Shipping library/binary code: every rule applies.
    Source,
    /// Integration tests, benches, and examples: no rule applies.
    TestLike,
}

/// Everything the rules need to know about one file.
#[derive(Debug)]
pub struct FileCtx {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Source vs. test-like classification.
    pub kind: FileKind,
}

impl FileCtx {
    /// Derives the context from a workspace-relative path.
    pub fn from_path(path: &str) -> Self {
        let path = path.replace('\\', "/");
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
        let kind = if test_like && !in_crate_src {
            FileKind::TestLike
        } else {
            FileKind::Source
        };
        Self { path, kind }
    }
}

/// An `// rfly-lint: allow(rule, ...) -- justification` directive.
#[derive(Debug)]
struct Allow {
    rules: Vec<String>,
    line: u32,
    own_line: bool,
    justified: bool,
    used: std::cell::Cell<bool>,
}

/// Applies this file's `// rfly-lint: allow(...)` directives (found in
/// its lexed `comments`) to a set of findings, flags
/// unjustified/stale/unknown directives, fills in `line_text` from the
/// source, and sorts. This is the single allow gate: every finding
/// passes through here exactly once.
pub fn apply_allows(
    path: &str,
    src: &str,
    comments: &[Comment],
    findings: Vec<Finding>,
) -> Vec<Finding> {
    // Fast path: nothing to filter and no directives to audit.
    if findings.is_empty() && !src.contains("rfly-lint:") {
        return findings;
    }
    let ctx = FileCtx::from_path(path);
    let allows = parse_allows(comments);

    let mut kept: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            !allows.iter().any(|a| {
                // A trailing allow covers its own line; an own-line
                // allow covers its own line and the line below it.
                let covers_line = a.line == f.line || (a.own_line && a.line + 1 == f.line);
                let covers_rule = a.rules.iter().any(|r| r == f.rule);
                if covers_line && covers_rule && a.justified {
                    a.used.set(true);
                    true
                } else {
                    false
                }
            })
        })
        .collect();

    for a in &allows {
        if !a.justified {
            kept.push(Finding {
                rule: "allow-justification",
                file: ctx.path.clone(),
                line: a.line,
                message: "allow directive lacks a `-- <justification>` clause".to_string(),
                line_text: String::new(),
            });
        } else if !a.used.get() {
            kept.push(Finding {
                rule: "stale-allow",
                file: ctx.path.clone(),
                line: a.line,
                message: format!(
                    "allow({}) suppresses nothing — remove it",
                    a.rules.join(", ")
                ),
                line_text: String::new(),
            });
        }
        for r in &a.rules {
            if !RULES.iter().any(|(slug, _)| slug == r) {
                kept.push(Finding {
                    rule: "stale-allow",
                    file: ctx.path.clone(),
                    line: a.line,
                    message: format!("allow names unknown rule `{r}`"),
                    line_text: String::new(),
                });
            }
        }
    }

    let lines: Vec<&str> = src.lines().collect();
    for f in &mut kept {
        f.line_text = lines
            .get(f.line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
    }

    kept.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    kept
}

/// Parses `rfly-lint: allow(rule, ...) -- justification` directives out
/// of the comment list.
fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        if c.doc {
            continue;
        }
        let Some(pos) = c.text.find("rfly-lint:") else {
            continue;
        };
        let rest = &c.text[pos + "rfly-lint:".len()..];
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = &rest[close + 1..];
        let justified = tail
            .split_once("--")
            .is_some_and(|(_, j)| !j.trim().is_empty());
        allows.push(Allow {
            rules,
            line: c.line,
            own_line: c.own_line,
            justified,
            used: std::cell::Cell::new(false),
        });
    }
    allows
}
