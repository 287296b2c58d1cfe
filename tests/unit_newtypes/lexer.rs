//! A minimal Rust lexer for R3 ([`crate::r3`]).
//!
//! It yields only what R3 reads: words, lifetimes, literals and single
//! punctuation characters, each with its source line. Comments and
//! whitespace are skipped. Hand-rolled, it needs no external dependency
//! and no `rustc` internals, and it handles the corners that naive
//! regex scans get wrong: nested block comments, raw strings, escapes
//! in (byte) strings, and char literals vs. lifetimes.

/// The coarse classification of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier, keyword or numeric literal (`fn`, `f64`, `0xFF`):
    /// one run of alphanumerics and `_`.
    Ident,
    /// A lifetime (`'a`), including the leading quote.
    Lifetime,
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

/// Lexes Rust source. Never fails: an unterminated literal or comment
/// runs to the end of the file, so a syntactically broken file degrades
/// to fewer findings rather than a crashed run.
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let (mut i, mut line) = (0usize, 1u32);
    while i < b.len() {
        let next = |k: usize| b.get(i + k).copied();
        let (kind, end) = match b[i] {
            c if c.is_whitespace() => (None, i + 1),
            '/' if next(1) == Some('/') => {
                let len = b[i..].iter().take_while(|&&c| c != '\n').count();
                (None, i + len)
            }
            '/' if next(1) == Some('*') => (None, block_comment_end(&b, i)),
            '"' => (Some(TokKind::Literal), string_end(&b, i)),
            'b' if next(1) == Some('"') => (Some(TokKind::Literal), string_end(&b, i + 1)),
            'b' if next(1) == Some('\'') => (Some(TokKind::Literal), char_end(&b, i + 1)),
            'r' if matches!(next(1), Some('"' | '#')) => {
                (Some(TokKind::Literal), raw_string_end(&b, i))
            }
            'b' if next(1) == Some('r') && matches!(next(2), Some('"' | '#')) => {
                (Some(TokKind::Literal), raw_string_end(&b, i + 1))
            }
            // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
            '\'' if next(1).is_some_and(|c| c.is_alphabetic() || c == '_')
                && next(2) != Some('\'') =>
            {
                (Some(TokKind::Lifetime), word_end(&b, i + 1))
            }
            '\'' => (Some(TokKind::Literal), char_end(&b, i)),
            c if c.is_alphanumeric() || c == '_' => (Some(TokKind::Ident), word_end(&b, i)),
            _ => (Some(TokKind::Punct), i + 1),
        };
        let end = end.clamp(i + 1, b.len());
        if let Some(kind) = kind {
            toks.push(Tok {
                kind,
                text: b[i..end].iter().collect(),
                line,
            });
        }
        // A token or comment that spans lines (a block comment, a
        // multi-line or `\<newline>`-continued string) moves the line on.
        for &c in &b[i..end] {
            if c == '\n' {
                line += 1;
            }
        }
        i = end;
    }
    toks
}

/// End of the run of alphanumerics and `_` starting at `start`.
fn word_end(b: &[char], start: usize) -> usize {
    start
        + b[start..]
            .iter()
            .take_while(|&&c| c.is_alphanumeric() || c == '_')
            .count()
}

/// End of the block comment opening at `start`; block comments nest.
fn block_comment_end(b: &[char], start: usize) -> usize {
    let (mut depth, mut j) = (0usize, start);
    while j < b.len() {
        match (b[j], b.get(j + 1)) {
            ('/', Some('*')) => {
                depth += 1;
                j += 2;
            }
            ('*', Some('/')) => {
                depth -= 1;
                j += 2;
                if depth == 0 {
                    return j;
                }
            }
            _ => j += 1,
        }
    }
    b.len()
}

/// End of the escaped string whose opening `"` is at `quote`: plain
/// `"…"` and byte `b"…"` alike, so `\"` never closes it.
fn string_end(b: &[char], quote: usize) -> usize {
    let mut j = quote + 1;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    b.len()
}

/// End of the char (or byte char) literal whose opening `'` is at
/// `quote`, escapes like `'\u{1F600}'` included.
fn char_end(b: &[char], quote: usize) -> usize {
    let mut j = quote + 1;
    if b.get(j) == Some(&'\\') {
        j += 2;
        while j < b.len() && b[j] != '\'' {
            j += 1;
        }
    } else {
        j += 1;
    }
    if b.get(j) == Some(&'\'') {
        j += 1;
    }
    j
}

/// End of the raw string `r#…#"…"#…#` whose `r` is at `r`: no escapes,
/// closed by a `"` and as many `#`s as opened it. A raw identifier
/// (`r#type`) ends after its `r#`, and its name lexes as a word.
fn raw_string_end(b: &[char], r: usize) -> usize {
    let hashes = b[r + 1..].iter().take_while(|&&c| c == '#').count();
    let mut j = r + 1 + hashes;
    if b.get(j) != Some(&'"') {
        return j;
    }
    j += 1;
    while j < b.len() {
        if b[j] == '"' && b[j + 1..].iter().take_while(|&&c| c == '#').count() >= hashes {
            return j + 1 + hashes;
        }
        j += 1;
    }
    b.len()
}

mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    fn literals(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let l = lex("fn main() {\n    x.unwrap();\n}\n");
        assert!(l[0].is_ident("fn"));
        assert_eq!(l[0].line, 1);
        let unwrap = l.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!(unwrap.line, 2);
    }

    #[test]
    fn comments_produce_no_tokens() {
        let l = lex("let a = 1; // trailing note\n// own line\nlet b = 2;\n");
        assert!(l
            .iter()
            .all(|t| !t.text.contains("note") && !t.text.contains("own")));
        assert_eq!(l.iter().find(|t| t.is_ident("b")).unwrap().line, 3);
    }

    #[test]
    fn nested_block_comments_produce_no_tokens() {
        let l = lex("/* outer /* inner */ still */ let x = 1;");
        assert!(l[0].is_ident("let"), "{l:?}");
        assert!(!idents("/* a /* b */ still */").contains(&"still".to_string()));
    }

    #[test]
    fn string_contents_produce_no_tokens() {
        let src = r#"let s = "fn unwrap() // not code"; x();"#;
        assert_eq!(idents(src), ["let", "s", "x"]);
        assert_eq!(literals(src), [r#""fn unwrap() // not code""#]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = lex(r##"let s = r#"quote " inside"#; y();"##);
        assert!(l.iter().any(|t| t.is_ident("y")));
        assert_eq!(l.iter().filter(|t| t.kind == TokKind::Literal).count(), 1);
    }

    #[test]
    fn byte_strings_honour_escapes_and_raw_byte_strings_do_not() {
        // `b"\""` is one escaped literal; only `r`/`br` prefixes are raw.
        assert_eq!(literals(r#"b"\""; x"#), [r#"b"\"""#]);
        assert_eq!(idents(r#"b"\""; x"#), ["x"]);
        assert_eq!(literals(r#"br"\"; x"#), [r#"br"\""#]);
        assert_eq!(literals(r##"br#"a"b"#; x"##), [r##"br#"a"b"#"##]);
        assert_eq!(idents("let r#type = b'\\'';"), ["let", "type"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = l.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        assert_eq!(lifetimes, 2);
        let chars = l.iter().filter(|t| t.kind == TokKind::Literal).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn numbers_lex_as_words_with_their_suffixes() {
        assert_eq!(
            idents("let a = 0xFF; let b = 2f64; let r = 1..10;"),
            ["let", "a", "0xFF", "let", "b", "2f64", "let", "r", "1", "10"]
        );
    }

    #[test]
    fn float_member_access_is_not_a_decimal() {
        let l = lex("let x = 4f64.sqrt();");
        assert!(l.iter().any(|t| t.is_ident("sqrt")));
    }

    #[test]
    fn backslash_newline_in_string_still_counts_the_line() {
        // `\<newline>` continuations span source lines; tokens after the
        // string must not drift upward.
        let l = lex("let s = \"a\\\n  b\";\nlet after = 1;");
        let t = l.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(t.line, 3);
    }
}
