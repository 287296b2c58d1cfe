//! A minimal Rust lexer for the lint pass.
//!
//! It feeds R3 ([`crate::unit_newtypes`]) its token stream and the
//! allow gate its comments. Hand-rolled, it keeps the crate free of external
//! dependencies and `rustc` internals, and it handles the corners that
//! naive regex scans get wrong: nested block comments, raw strings,
//! char literals vs. lifetimes, and numeric literals with suffixes.

/// The coarse classification of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `unwrap`, `f64`, ...).
    Ident,
    /// A lifetime (`'a`), including the leading quote.
    Lifetime,
    /// A numeric literal, including any suffix (`1e6`, `0.5f32`).
    Number,
    /// A string, raw-string, byte-string, or char literal.
    Literal,
    /// A single punctuation character (`.`, `(`, `!`, ...).
    Punct,
}

/// One lexed token with its source line (1-indexed).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// The token text as written.
    pub text: String,
    /// 1-indexed source line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True if the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
    /// True if the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A comment encountered while lexing, kept out of the token stream but
/// recorded for the allowlist scanner.
#[derive(Debug, Clone)]
pub struct Comment {
    /// The comment text, without the `//`/`/*` delimiters.
    pub text: String,
    /// 1-indexed line the comment starts on.
    pub line: u32,
    /// True if nothing but whitespace precedes the comment on its line.
    pub own_line: bool,
    /// True for doc comments (`///`, `//!`, `/** */`, `/*! */`), which
    /// are documentation, not directives.
    pub doc: bool,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens, comments and whitespace removed.
    pub tokens: Vec<Tok>,
    /// Comments, for allowlist-directive scanning.
    pub comments: Vec<Comment>,
}

/// Lexes Rust source. Never fails: unrecognized bytes are skipped, so a
/// syntactically broken file degrades to fewer findings rather than a
/// crashed lint run.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Tracks whether any token has been emitted on the current line, so
    // comments can be classified as standalone or trailing.
    let mut line_has_code = false;

    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != '\n' {
                    j += 1;
                }
                let doc = matches!(b.get(start), Some('/') | Some('!'));
                out.comments.push(Comment {
                    text: b[start..j].iter().collect(),
                    line,
                    own_line: !line_has_code,
                    doc,
                });
                i = j;
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                let start_line = line;
                let own = !line_has_code;
                let start = i + 2;
                let mut depth = 1;
                let mut j = start;
                while j < b.len() && depth > 0 {
                    if b[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == '/' && j + 1 < b.len() && b[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == '*' && j + 1 < b.len() && b[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                let doc = matches!(b.get(start), Some('*') | Some('!'));
                out.comments.push(Comment {
                    text: b[start..end].iter().collect(),
                    line: start_line,
                    own_line: own,
                    doc,
                });
                line_has_code = false;
                i = j;
            }
            '"' => {
                let (text, nl, j) = scan_string(&b, i);
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text,
                    line,
                });
                line += nl;
                line_has_code = true;
                i = j;
            }
            'r' | 'b' if starts_raw_or_byte_string(&b, i) => {
                let (text, nl, j) = scan_raw_or_byte(&b, i);
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text,
                    line,
                });
                line += nl;
                line_has_code = true;
                i = j;
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
                let is_lifetime = i + 1 < b.len()
                    && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                    && !(i + 2 < b.len() && b[i + 2] == '\'');
                if is_lifetime {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: b[i..j].iter().collect(),
                        line,
                    });
                    i = j;
                } else {
                    let mut j = i + 1;
                    if j < b.len() && b[j] == '\\' {
                        j += 2;
                        // Consume the rest of escapes like \u{1F600}.
                        while j < b.len() && b[j] != '\'' {
                            j += 1;
                        }
                    } else if j < b.len() {
                        j += 1;
                    }
                    if j < b.len() && b[j] == '\'' {
                        j += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: b[i..j].iter().collect(),
                        line,
                    });
                    i = j;
                }
                line_has_code = true;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                let mut seen_dot = false;
                while j < b.len() {
                    let d = b[j];
                    if d.is_alphanumeric() || d == '_' {
                        // An exponent sign (1e-6) is part of the number.
                        if (d == 'e' || d == 'E')
                            && j + 1 < b.len()
                            && (b[j + 1] == '+' || b[j + 1] == '-')
                            && j + 2 < b.len()
                            && b[j + 2].is_ascii_digit()
                        {
                            j += 2;
                        }
                        j += 1;
                    } else if d == '.'
                        && !seen_dot
                        && j + 1 < b.len()
                        && (b[j + 1].is_ascii_digit()
                            || b[j + 1].is_whitespace()
                            || b[j + 1] == ')'
                            || b[j + 1] == ',')
                    {
                        // `1.5` or a trailing `1.` — but not `1..10`.
                        seen_dot = true;
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Tok {
                    kind: TokKind::Number,
                    text: b[i..j].iter().collect(),
                    line,
                });
                line_has_code = true;
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: b[i..j].iter().collect(),
                    line,
                });
                line_has_code = true;
                i = j;
            }
            _ => {
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                line_has_code = true;
                i += 1;
            }
        }
    }
    out
}

fn starts_raw_or_byte_string(b: &[char], i: usize) -> bool {
    // r"..."  r#"..."#  b"..."  br"..."  br#"..."#  b'...'
    let rest = &b[i..];
    match rest.first() {
        Some('r') => matches!(rest.get(1), Some('"') | Some('#')),
        Some('b') => match rest.get(1) {
            Some('"') | Some('\'') => true,
            Some('r') => matches!(rest.get(2), Some('"') | Some('#')),
            _ => false,
        },
        _ => false,
    }
}

fn scan_string(b: &[char], start: usize) -> (String, u32, usize) {
    // Plain "..." with escapes; returns (text, newlines crossed, next index).
    let mut j = start + 1;
    let mut nl = 0;
    while j < b.len() {
        match b[j] {
            '\\' => {
                // A `\<newline>` continuation still ends a source line.
                if b.get(j + 1) == Some(&'\n') {
                    nl += 1;
                }
                j += 2;
            }
            '\n' => {
                nl += 1;
                j += 1;
            }
            '"' => {
                j += 1;
                break;
            }
            _ => j += 1,
        }
    }
    (b[start..j.min(b.len())].iter().collect(), nl, j)
}

fn scan_raw_or_byte(b: &[char], start: usize) -> (String, u32, usize) {
    let mut j = start;
    // Skip the b/r prefix letters.
    while j < b.len() && (b[j] == 'b' || b[j] == 'r') {
        j += 1;
    }
    if j < b.len() && b[j] == '\'' {
        // Byte char b'x'.
        let mut k = j + 1;
        if k < b.len() && b[k] == '\\' {
            k += 2;
        } else {
            k += 1;
        }
        if k < b.len() && b[k] == '\'' {
            k += 1;
        }
        return (b[start..k.min(b.len())].iter().collect(), 0, k);
    }
    let mut hashes = 0;
    while j < b.len() && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != '"' {
        // Not actually a string (e.g. the identifier `r#keyword`); treat
        // the prefix as consumed punctuation-free text.
        return (
            b[start..j.min(b.len())].iter().collect(),
            0,
            j.max(start + 1),
        );
    }
    j += 1;
    let mut nl = 0;
    while j < b.len() {
        if b[j] == '\n' {
            nl += 1;
            j += 1;
        } else if b[j] == '"' {
            // Need `hashes` trailing #s to close.
            let mut k = j + 1;
            let mut h = 0;
            while k < b.len() && b[k] == '#' && h < hashes {
                h += 1;
                k += 1;
            }
            if h == hashes {
                j = k;
                break;
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (b[start..j.min(b.len())].iter().collect(), nl, j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let l = lex("fn main() {\n    x.unwrap();\n}\n");
        assert!(l.tokens[0].is_ident("fn"));
        assert_eq!(l.tokens[0].line, 1);
        let unwrap = l.tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!(unwrap.line, 2);
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("let a = 1; // trailing note\n// own line\nlet b = 2;\n");
        assert_eq!(l.comments.len(), 2);
        assert!(!l.comments[0].own_line);
        assert!(l.comments[1].own_line);
        assert!(l.tokens.iter().all(|t| !t.text.contains("note")));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still */ let x = 1;");
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
        assert!(l.tokens.iter().any(|t| t.is_ident("let")));
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let s = "fn unwrap() // not code"; x();"#);
        assert!(!idents(r#"let s = "fn unwrap()";"#).contains(&"unwrap".to_string()));
        assert!(l.comments.is_empty());
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = lex(r##"let s = r#"quote " inside"#; y();"##);
        assert!(l.tokens.iter().any(|t| t.is_ident("y")));
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Literal)
                .count(),
            1
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn numbers_with_suffixes_and_exponents() {
        let l = lex("let a = 1e-6; let b = 0.5f32; let c = 0xFF; let r = 1..10;");
        let nums: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["1e-6", "0.5f32", "0xFF", "1", "10"]);
    }

    #[test]
    fn float_member_access_is_not_a_decimal() {
        let l = lex("let x = 4f64.sqrt();");
        assert!(l.tokens.iter().any(|t| t.is_ident("sqrt")));
    }

    #[test]
    fn backslash_newline_in_string_still_counts_the_line() {
        // `\<newline>` continuations span source lines; tokens after the
        // string must not drift upward.
        let l = lex("let s = \"a\\\n  b\";\nlet after = 1;");
        let t = l.tokens.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(t.line, 3);
    }
}
