//! The stable line-oriented text codec shared by fault schedules,
//! resilience logs, and the `rfly-replay` mission journal.
//!
//! Design rules, in order of priority:
//!
//! 1. **Bit-exact round-trips.** Floats are written with Rust's default
//!    `Display`, which since 1.0 emits the *shortest* decimal string
//!    that parses back to the identical bit pattern. A journal re-read
//!    from disk therefore reproduces every margin and phasor exactly.
//! 2. **Diffable.** One record per line, whitespace-separated tokens,
//!    `key=value` for named parameters — `diff`/`grep` are the triage
//!    tools, not a bespoke viewer.
//! 3. **Zero dependencies.** Parsing is hand-rolled over
//!    `split_whitespace`; no serde in the workspace.
//!
//! Every parse path returns [`ParseError`] with a 1-indexed line
//! number — journals are written by machines but read by humans
//! mid-incident.

use std::fmt;

use rfly_protocol::epc::Epc;
use rfly_sim::world::{TagSnapshot, WorldSnapshot};

/// A parse failure: which line, and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-indexed line number in the parsed text (0 when unknown).
    pub line: usize,
    /// What was expected or what was malformed.
    pub message: String,
}

impl ParseError {
    /// A parse error at `line`.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Writes an `f64` in its shortest round-trip decimal form.
///
/// `parse_f64(&fmt_f64(x))` returns a value with `x`'s exact bits for
/// every finite `x` — the property the whole journal format leans on.
pub fn fmt_f64(x: f64) -> String {
    format!("{x}")
}

/// An optional index in text: the number, or `-` for none.
pub fn opt_usize(v: Option<usize>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "-".to_string(),
    }
}

/// The 24-digit lowercase hex form of an EPC (no separators — one
/// `split_whitespace` token).
pub fn epc_hex(epc: Epc) -> String {
    let mut s = String::with_capacity(24);
    for b in epc.0 {
        use fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Parses the [`epc_hex`] form, reporting errors at `line_no`.
pub fn parse_epc_hex(t: &str, line_no: usize) -> Result<Epc, ParseError> {
    if t.len() != 24 || !t.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(ParseError::new(
            line_no,
            format!("expected 24-hex-digit EPC, found {t:?}"),
        ));
    }
    let mut bytes = [0u8; 12];
    for (k, b) in bytes.iter_mut().enumerate() {
        let pair = &t[2 * k..2 * k + 2];
        *b = u8::from_str_radix(pair, 16)
            .map_err(|_| ParseError::new(line_no, format!("bad hex byte {pair:?}")))?;
    }
    Ok(Epc::new(bytes))
}

/// A whitespace-token cursor over one line, with typed extractors.
///
/// Every extractor names what it expected so errors read like
/// `line 7: expected relay index, found "x"`.
#[derive(Debug)]
pub struct Fields<'a> {
    line_no: usize,
    toks: std::str::SplitWhitespace<'a>,
}

impl<'a> Fields<'a> {
    /// A cursor over `line`, reporting errors at 1-indexed `line_no`.
    pub fn new(line: &'a str, line_no: usize) -> Self {
        Self {
            line_no,
            toks: line.split_whitespace(),
        }
    }

    /// A parse error at this cursor's line.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.line_no, message)
    }

    /// The next raw token; `what` names it in the error.
    pub fn tok(&mut self, what: &str) -> Result<&'a str, ParseError> {
        self.toks
            .next()
            .ok_or_else(|| ParseError::new(self.line_no, format!("missing {what}")))
    }

    /// The next raw token, if any — for variable-length tails
    /// (repeated `wp=` / `emb=` groups).
    pub fn opt_tok(&mut self) -> Option<&'a str> {
        self.toks.next()
    }

    /// The next token as a `usize`.
    pub fn usize(&mut self, what: &str) -> Result<usize, ParseError> {
        let t = self.tok(what)?;
        t.parse()
            .map_err(|_| self.error(format!("expected {what}, found {t:?}")))
    }

    /// The next token as a `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, ParseError> {
        let t = self.tok(what)?;
        t.parse()
            .map_err(|_| self.error(format!("expected {what}, found {t:?}")))
    }

    /// The next token as a hex-encoded `u64` (RNG state words).
    pub fn hex_u64(&mut self, what: &str) -> Result<u64, ParseError> {
        let t = self.tok(what)?;
        u64::from_str_radix(t, 16)
            .map_err(|_| self.error(format!("expected hex {what}, found {t:?}")))
    }

    /// The next token as an `f64`.
    pub fn f64(&mut self, what: &str) -> Result<f64, ParseError> {
        let t = self.tok(what)?;
        t.parse()
            .map_err(|_| self.error(format!("expected {what}, found {t:?}")))
    }

    /// The next token, which must be `key=<value>`; returns the value.
    pub fn kv(&mut self, key: &str) -> Result<&'a str, ParseError> {
        let t = self.tok(key)?;
        match t.split_once('=') {
            Some((k, v)) if k == key => Ok(v),
            _ => Err(self.error(format!("expected {key}=<value>, found {t:?}"))),
        }
    }

    /// `key=<f64>`.
    pub fn kv_f64(&mut self, key: &str) -> Result<f64, ParseError> {
        let v = self.kv(key)?;
        v.parse()
            .map_err(|_| self.error(format!("bad float in {key}={v:?}")))
    }

    /// `key=<usize>`.
    pub fn kv_usize(&mut self, key: &str) -> Result<usize, ParseError> {
        let v = self.kv(key)?;
        v.parse()
            .map_err(|_| self.error(format!("bad integer in {key}={v:?}")))
    }

    /// `key=<usize>`, or `key=-` for none (the [`opt_usize`] form).
    pub fn kv_opt_usize(&mut self, key: &str) -> Result<Option<usize>, ParseError> {
        match self.kv(key)? {
            "-" => Ok(None),
            v => v
                .parse()
                .map(Some)
                .map_err(|_| self.error(format!("bad integer in {key}={v:?}"))),
        }
    }

    /// The next token as a 24-hex-digit EPC.
    pub fn epc(&mut self, what: &str) -> Result<Epc, ParseError> {
        let line_no = self.line_no;
        let t = self.tok(what)?;
        parse_epc_hex(t, line_no)
    }

    /// `key=<24-hex-digit EPC>`.
    pub fn kv_epc(&mut self, key: &str) -> Result<Epc, ParseError> {
        let line_no = self.line_no;
        let v = self.kv(key)?;
        parse_epc_hex(v, line_no)
    }

    /// Expects the literal token `lit` next.
    pub fn expect_tok(&mut self, lit: &str) -> Result<(), ParseError> {
        let t = self.tok(lit)?;
        if t == lit {
            Ok(())
        } else {
            Err(self.error(format!("expected {lit:?}, found {t:?}")))
        }
    }

    /// Asserts the line is exhausted.
    pub fn finish(mut self) -> Result<(), ParseError> {
        match self.toks.next() {
            None => Ok(()),
            Some(t) => Err(ParseError::new(
                self.line_no,
                format!("trailing token {t:?}"),
            )),
        }
    }
}

fn rng_hex(words: [u64; 4]) -> String {
    format!(
        "{:x},{:x},{:x},{:x}",
        words[0], words[1], words[2], words[3]
    )
}

fn parse_rng_hex(f: &mut Fields<'_>, key: &str) -> Result<[u64; 4], ParseError> {
    let v = f.kv(key)?;
    let mut words = [0u64; 4];
    let mut parts = v.split(',');
    for w in words.iter_mut() {
        let p = parts
            .next()
            .ok_or_else(|| f.error(format!("{key} needs 4 comma-joined hex words")))?;
        *w = u64::from_str_radix(p, 16)
            .map_err(|_| f.error(format!("bad hex word {p:?} in {key}")))?;
    }
    if parts.next().is_some() {
        return Err(f.error(format!("{key} has more than 4 words")));
    }
    Ok(words)
}

fn parse_hex_u8(f: &mut Fields<'_>, key: &str) -> Result<u8, ParseError> {
    let v = f.kv(key)?;
    u8::from_str_radix(v, 16).map_err(|_| f.error(format!("bad {key} {v:?}")))
}

/// The world half of a checkpoint: one `world` line (the world and
/// embedded-tag RNG streams, the embedded tag's Gen2 flags) and one
/// `wtag` line per tag.
pub fn world_text(world: &WorldSnapshot) -> String {
    let mut s = format!(
        "world rng={} embrng={} embflags={:x}\n",
        rng_hex(world.rng),
        rng_hex(world.embedded_rng),
        world.embedded_flags,
    );
    for t in &world.tags {
        s.push_str(&format!(
            "wtag {} rng={} flags={:x}\n",
            epc_hex(t.epc),
            rng_hex(t.rng),
            t.flags,
        ));
    }
    s
}

/// Collects the [`world_text`] lines of a checkpoint back into a
/// [`WorldSnapshot`].
#[derive(Debug, Default)]
pub struct WorldLines {
    world: Option<([u64; 4], [u64; 4], u8)>,
    tags: Vec<TagSnapshot>,
}

impl WorldLines {
    /// Parses `line` if it is a `world` or `wtag` record. Returns
    /// `Ok(false)`, consuming nothing, for any other record.
    pub fn parse(&mut self, line: &str, line_no: usize) -> Result<bool, ParseError> {
        let mut f = Fields::new(line, line_no);
        match f.opt_tok() {
            Some("world") => {
                let rng = parse_rng_hex(&mut f, "rng")?;
                let embedded_rng = parse_rng_hex(&mut f, "embrng")?;
                let embedded_flags = parse_hex_u8(&mut f, "embflags")?;
                f.finish()?;
                self.world = Some((rng, embedded_rng, embedded_flags));
            }
            Some("wtag") => {
                let epc = f.epc("EPC")?;
                let rng = parse_rng_hex(&mut f, "rng")?;
                let flags = parse_hex_u8(&mut f, "flags")?;
                f.finish()?;
                self.tags.push(TagSnapshot { epc, rng, flags });
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The collected snapshot; an error if the `world` line was missing.
    pub fn finish(self) -> Result<WorldSnapshot, ParseError> {
        let (rng, embedded_rng, embedded_flags) = self
            .world
            .ok_or_else(|| ParseError::new(0, "missing world line"))?;
        Ok(WorldSnapshot {
            rng,
            embedded_rng,
            embedded_flags,
            tags: self.tags,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_lines_round_trip() {
        let world = WorldSnapshot {
            rng: [1, 0xdead_beef, u64::MAX, 0],
            embedded_rng: [7, 8, 9, 10],
            embedded_flags: 0x1f,
            tags: vec![TagSnapshot {
                epc: Epc::from_index(42),
                rng: [3, 4, 5, 6],
                flags: 0xa,
            }],
        };
        let text = world_text(&world);
        let mut lines = WorldLines::default();
        for (n, line) in text.lines().enumerate() {
            assert!(lines.parse(line, n + 1).expect("parses"));
        }
        assert!(!lines.parse("tick 3 cells=2", 9).expect("other record"));
        assert_eq!(lines.finish().expect("complete"), world);
        assert!(WorldLines::default().finish().is_err());
        let mut bad = WorldLines::default();
        assert!(bad
            .parse("world rng=1,2,3 embrng=1,2,3,4 embflags=0", 1)
            .is_err());
    }

    #[test]
    fn f64_display_round_trips_bit_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0 / 3.0,
            std::f64::consts::PI,
            -17.25,
            1e-300,
            9.87e12,
            f64::MIN_POSITIVE,
        ] {
            let s = fmt_f64(x);
            let back: f64 = s.parse().expect("parses");
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
    }

    #[test]
    fn epc_hex_round_trips() {
        let epc = Epc::from_index(0xDEAD_BEEF);
        let s = epc_hex(epc);
        assert_eq!(s.len(), 24);
        let mut f = Fields::new(&s, 1);
        assert_eq!(f.epc("epc").expect("parses"), epc);
    }

    #[test]
    fn fields_extractors_and_errors() {
        let mut f = Fields::new("r 3 db=-4.5 cafe", 7);
        f.expect_tok("r").expect("literal");
        assert_eq!(f.usize("relay").expect("relay"), 3);
        assert_eq!(f.kv_f64("db").expect("db"), -4.5);
        assert_eq!(f.hex_u64("word").expect("hex"), 0xCAFE);
        f.finish().expect("exhausted");

        let mut g = Fields::new("x", 9);
        let err = g.usize("step").expect_err("not a number");
        assert_eq!(err.line, 9);
        assert!(err.to_string().contains("step"), "{err}");

        let h = Fields::new("a b", 2);
        assert!(h.finish().is_err(), "trailing token");
    }

    #[test]
    fn kv_requires_the_named_key() {
        let mut f = Fields::new("dx=1.5", 4);
        assert!(f.kv_f64("dy").is_err());
    }
}
