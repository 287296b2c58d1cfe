//! The stable line-oriented text codec shared by fault schedules,
//! resilience logs, and the `rfly-replay` mission journal.
//!
//! Design rules, in order of priority:
//!
//! 1. **Bit-exact round-trips.** Floats are written in the bytes of
//!    Rust's default `Display` (`{x}` in a format string), which emits
//!    the *shortest* decimal string that parses back to the identical
//!    bit pattern. The workspace's one float writer,
//!    [`rfly_dsp::decimal`], produces exactly those bytes without
//!    `core::fmt`: [`Line`] calls it directly, and a `Display` impl
//!    wraps its floats in [`Shortest`]. A journal re-read from disk
//!    reproduces every margin and phasor exactly.
//! 2. **Diffable.** One record per line, whitespace-separated tokens,
//!    `key=value` for named parameters — `diff`/`grep` are the triage
//!    tools, not a bespoke viewer.
//! 3. **Zero dependencies.** Parsing is hand-rolled over
//!    `split_whitespace`; no serde in the workspace.
//! 4. **One buffer.** Encoders append to one caller-owned `String`.
//!    The encoders a durable run calls every step (a checkpoint's
//!    `to_text`, a journal step block and seal) and [`write_world`]
//!    push their tokens through [`Line`], the writing twin of
//!    [`Fields`], with no `core::fmt` step per token. Other records'
//!    text forms are `Display` impls (one line, or a block of lines)
//!    with their floats wrapped in [`Shortest`]. Only an encoder that
//!    hands a whole file or a whole journal block to storage creates a
//!    `String`; nothing builds one per field or per line. Writing into
//!    a `String` cannot fail, so `let _ = write!(…)` is the idiom
//!    there.
//!
//! Every parse path returns [`ParseError`] with a 1-indexed line
//! number — journals are written by machines but read by humans
//! mid-incident.

use std::fmt;

pub use rfly_dsp::decimal::Shortest;
use rfly_dsp::decimal::{push_f64, push_u64};
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

/// An optional index in text: the number, or `-` for none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptUsize(pub Option<usize>);

impl fmt::Display for OptUsize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(n) => write!(f, "{n}"),
            None => f.write_str("-"),
        }
    }
}

/// The lowercase hex digit of each nibble value.
const NIBBLES: &[u8; 16] = b"0123456789abcdef";

/// The 24-digit lowercase hex form of an EPC (no separators — one
/// `split_whitespace` token). The digits are looked up per nibble into
/// a stack buffer and written with one `write_str`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpcHex(pub Epc);

impl fmt::Display for EpcHex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(std::str::from_utf8(&epc_digits(self.0)).map_err(|_| fmt::Error)?)
    }
}

/// A line writer, the writing twin of [`Fields`]: [`Line::new`]
/// appends the record tag (the token [`Fields::expect_tok`] reads),
/// each method appends one space-separated token (the `and_*` methods
/// one more comma-joined value of the last token), and [`Line::end`]
/// appends the newline. Digits go straight into the buffer: floats
/// through [`push_f64`], the bytes of their `Display` form, and
/// integers, hex words and EPCs through digit tables.
#[derive(Debug)]
pub struct Line<'a> {
    out: &'a mut String,
}

impl<'a> Line<'a> {
    /// Starts a line in `out` with the record tag `tag`.
    pub fn new(out: &'a mut String, tag: &str) -> Self {
        out.push_str(tag);
        Self { out }
    }

    /// ` <n>`.
    pub fn usize(&mut self, n: usize) -> &mut Self {
        self.out.push(' ');
        push_u64(self.out, n as u64);
        self
    }

    /// ` <v>`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.out.push(' ');
        push_f64(self.out, v);
        self
    }

    /// ` <x>` in lowercase hex.
    pub fn hex_u64(&mut self, x: u64) -> &mut Self {
        self.out.push(' ');
        push_hex(self.out, x);
        self
    }

    /// ` <epc>` in the [`EpcHex`] form.
    pub fn epc(&mut self, epc: Epc) -> &mut Self {
        self.out.push(' ');
        push_epc(self.out, epc);
        self
    }

    /// ` key=` — the start of a `key=<value>` token.
    fn key(&mut self, key: &str) -> &mut Self {
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push('=');
        self
    }

    /// ` key=<v>`.
    pub fn kv_f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        push_f64(self.out, v);
        self
    }

    /// ` key=<n>`.
    pub fn kv_usize(&mut self, key: &str, n: usize) -> &mut Self {
        self.key(key);
        push_u64(self.out, n as u64);
        self
    }

    /// ` key=<n>`, or ` key=-` for none (the [`OptUsize`] form).
    pub fn kv_opt_usize(&mut self, key: &str, n: Option<usize>) -> &mut Self {
        match n {
            Some(n) => self.kv_usize(key, n),
            None => {
                self.key(key).out.push('-');
                self
            }
        }
    }

    /// ` key=<x>` in lowercase hex.
    pub fn kv_hex(&mut self, key: &str, x: u64) -> &mut Self {
        self.key(key);
        push_hex(self.out, x);
        self
    }

    /// ` key=<epc>` in the [`EpcHex`] form.
    pub fn kv_epc(&mut self, key: &str, epc: Epc) -> &mut Self {
        self.key(key);
        push_epc(self.out, epc);
        self
    }

    /// `,<v>` after the last token.
    pub fn and_f64(&mut self, v: f64) -> &mut Self {
        self.out.push(',');
        push_f64(self.out, v);
        self
    }

    /// `,<x>` in lowercase hex after the last token.
    pub fn and_hex(&mut self, x: u64) -> &mut Self {
        self.out.push(',');
        push_hex(self.out, x);
        self
    }

    /// Ends the line.
    pub fn end(&mut self) {
        self.out.push('\n');
    }
}

/// Appends `x` in lowercase hex without leading zeros (`{x:x}`).
fn push_hex(out: &mut String, x: u64) {
    let mut digits = [0u8; 16];
    let mut at = digits.len();
    let mut rest = x;
    loop {
        at -= 1;
        digits[at] = NIBBLES[(rest & 0xf) as usize];
        rest >>= 4;
        if rest == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).unwrap_or_default());
}

/// Appends the [`EpcHex`] form of `epc`.
fn push_epc(out: &mut String, epc: Epc) {
    let digits = epc_digits(epc);
    out.push_str(std::str::from_utf8(&digits).unwrap_or_default());
}

/// The 24 lowercase hex digits of an EPC, looked up per nibble.
fn epc_digits(epc: Epc) -> [u8; 24] {
    let mut digits = [0u8; 24];
    for (pair, b) in digits.chunks_exact_mut(2).zip(epc.0) {
        pair[0] = NIBBLES[usize::from(b >> 4)];
        pair[1] = NIBBLES[usize::from(b & 0xf)];
    }
    digits
}

/// Parses the [`EpcHex`] form, reporting errors at `line_no`.
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

    /// `key=<usize>`, or `key=-` for none (the [`OptUsize`] form).
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

/// Appends the world half of a checkpoint: one `world` line (the world
/// and embedded-tag RNG streams, the embedded tag's Gen2 flags) and one
/// `wtag` line per tag. RNG streams are four comma-joined hex words.
pub fn write_world(out: &mut String, world: &WorldSnapshot) {
    let [a, b, c, d] = world.rng;
    let [e, g, h, i] = world.embedded_rng;
    Line::new(out, "world")
        .kv_hex("rng", a)
        .and_hex(b)
        .and_hex(c)
        .and_hex(d)
        .kv_hex("embrng", e)
        .and_hex(g)
        .and_hex(h)
        .and_hex(i)
        .kv_hex("embflags", u64::from(world.embedded_flags))
        .end();
    for t in &world.tags {
        let [a, b, c, d] = t.rng;
        Line::new(out, "wtag")
            .epc(t.epc)
            .kv_hex("rng", a)
            .and_hex(b)
            .and_hex(c)
            .and_hex(d)
            .kv_hex("flags", u64::from(t.flags))
            .end();
    }
}

/// Collects the [`write_world`] lines of a checkpoint back into a
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
        let mut text = String::new();
        write_world(&mut text, &world);
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

    /// The codec's float form, [`push_f64`], parses back to the
    /// identical bit pattern for random finite values, random
    /// subnormals, ±0 and the extremes.
    #[test]
    fn f64_display_round_trips_bit_exactly() {
        let mut rng = rfly_dsp::rng::StdRng::seed_from_u64(0xF10A7);
        let mut cases = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        ];
        for _ in 0..20_000 {
            let bits = rng.next_u64();
            // The sign and mantissa of `bits` with a zero exponent: a
            // subnormal (or ±0).
            cases.push(f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF));
            let x = f64::from_bits(bits);
            if x.is_finite() {
                cases.push(x);
            }
        }
        let mut text = String::new();
        for x in cases {
            text.clear();
            push_f64(&mut text, x);
            let back: f64 = text.parse().expect("parses");
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn epc_hex_matches_the_two_digit_byte_form_for_every_byte() {
        for b in 0..=u8::MAX {
            let epc = Epc::new([b; 12]);
            let table = EpcHex(epc).to_string();
            let per_byte: String = epc.0.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(table, per_byte, "byte {b:#04x}");
        }
    }

    /// Each [`Line`] token is the bytes of the `format!` form it
    /// replaced, and [`Fields`] reads the line back.
    #[test]
    fn line_tokens_match_their_format_forms() {
        let epc = Epc::from_index(0xBEEF);
        let mut rng = rfly_dsp::rng::StdRng::seed_from_u64(0x11E);
        for _ in 0..1000 {
            let (x, v) = (
                rng.next_u64() >> (rng.next_u64() % 64),
                f64::from_bits(rng.next_u64()),
            );
            let n = x as usize;
            let mut line = String::new();
            Line::new(&mut line, "t")
                .usize(n)
                .f64(v)
                .hex_u64(x)
                .epc(epc)
                .kv_f64("v", v)
                .and_f64(-v)
                .kv_usize("n", n)
                .kv_opt_usize("o", None)
                .kv_opt_usize("p", Some(n))
                .kv_hex("h", x)
                .and_hex(0)
                .kv_epc("e", epc)
                .end();
            let e = EpcHex(epc);
            let neg = -v;
            assert_eq!(
                line,
                format!("t {n} {v} {x:x} {e} v={v},{neg} n={n} o=- p={n} h={x:x},0 e={e}\n")
            );
            let mut f = Fields::new(&line, 1);
            f.expect_tok("t").expect("tag");
            assert_eq!(f.usize("n").expect("n"), n);
        }
    }

    #[test]
    fn epc_hex_round_trips() {
        let epc = Epc::from_index(0xDEAD_BEEF);
        let s = EpcHex(epc).to_string();
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
