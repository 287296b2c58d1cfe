//! Output fingerprints, order statistics, the JSON the benchmark reads
//! and writes, and the two-set comparison behind `--compare`.

/// FNV-1a 64-bit, folded incrementally so a workload's fingerprint is
/// independent of how its units are split across processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A unit's simulated output in canonical bytes: the exact values the
/// fingerprint covers, floats by their bit patterns.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Output(pub Vec<u8>);

impl Output {
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.0.extend_from_slice(b);
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method), so spreads printed here match
/// the ones the acceptance check computes. `values` must be non-empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = 4;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `p` of a non-empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value (the subset the benchmark's own files use).
#[derive(Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn as_obj(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \t\r\n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let word =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                match word {
                    "null" => Ok(Json::Null),
                    "true" => Ok(Json::Bool(true)),
                    "false" => Ok(Json::Bool(false)),
                    _ => word
                        .parse()
                        .map(Json::Num)
                        .map_err(|_| format!("bad literal {word:?} at byte {start}")),
                }
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }
}

/// One end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds out of `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    let metrics = doc.get("end_to_end").ok_or("no end_to_end metrics")?;
    metrics
        .as_arr()
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) != Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Median and quartiles of one side's runs.
#[derive(Debug)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(values);
        Self {
            q1,
            median,
            q3,
            n: values.len(),
        }
    }

    /// Run-to-run spread: the quartile distance over the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, with a spread inside it.
    Ok,
    /// Every B run beats every A run.
    Better,
    /// Worse than the bound allows.
    Regressed,
    /// The spread exceeds the bound, so no verdict can be given.
    Unresolved,
}

/// One `(workload, metric)` row of a comparison.
#[derive(Debug)]
pub struct Row {
    pub key: String,
    pub a: Summary,
    pub b: Summary,
    /// How much worse B's median is than A's, as a share of A's.
    pub worse: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// The per-run value of every `<workload>.<metric>` key in `runs`
/// (one `--json` record per run).
fn series(runs: &[Json]) -> std::collections::BTreeMap<String, Vec<f64>> {
    let mut out: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for run in runs {
        if let Some(metrics) = run.get("metrics") {
            for (k, v) in metrics.as_obj() {
                if let Some(v) = v.as_f64() {
                    out.entry(k.clone()).or_default().push(v);
                }
            }
        }
    }
    out
}

/// Compares run set B against baseline A on every end-to-end metric in
/// `bounds`, plus `fail_rate`, which may not rise at all.
pub fn compare(a_runs: &[Json], b_runs: &[Json], bounds: &[Bound]) -> Vec<Row> {
    let a = series(a_runs);
    let b = series(b_runs);
    let mut rows = Vec::new();
    for (key, av) in &a {
        let Some(bv) = b.get(key) else { continue };
        let metric = key.split_once('.').map_or(key.as_str(), |(_, m)| m);
        let (sa, sb) = (Summary::of(av), Summary::of(bv));
        let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
        let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
        let (worse, bound, verdict) = if metric == "fail_rate" {
            let regressed = max(bv) > max(av);
            let verdict = if regressed {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            (sb.median - sa.median, 0.0, verdict)
        } else if let Some(rule) = bounds.iter().find(|r| r.name == metric) {
            let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
            let worse = sign * (sb.median - sa.median) / sa.median.abs();
            let (all_better, all_worse) = if rule.lower_is_better {
                (max(bv) < min(av), min(bv) > max(av))
            } else {
                (min(bv) > max(av), max(bv) < min(av))
            };
            let verdict = if sa.spread().max(sb.spread()) > rule.bound {
                if all_better {
                    Verdict::Better
                } else if all_worse && worse > rule.bound {
                    Verdict::Regressed
                } else {
                    Verdict::Unresolved
                }
            } else if worse > rule.bound {
                Verdict::Regressed
            } else if all_better {
                Verdict::Better
            } else {
                Verdict::Ok
            };
            (worse, rule.bound, verdict)
        } else {
            continue;
        };
        rows.push(Row {
            key: key.clone(),
            a: sa,
            b: sb,
            worse,
            bound,
            verdict,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn json_round_trips_the_result_line() {
        let line = r#"{"correct": true, "attempted": 24, "failed": 0, "metrics": {"unit_p50_ms": {"value": 1.25e2, "unit": "ms"}, "a\"b": [null, false, -3]}}"#;
        let doc = Json::parse(line).expect("parses");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(
            m.get("unit_p50_ms").and_then(|v| v.get("value")),
            Some(&Json::Num(125.0))
        );
        assert_eq!(m.get("a\"b").map(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(
            Json::parse(&quote("x\"\\\n")),
            Ok(Json::Str("x\"\\\n".into()))
        );
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1] 2").is_err());
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let b = bounds(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names: Vec<&str> = b.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["unit_p50_ms", "setup_s", "peak_rss_mb"]);
        assert!(b
            .iter()
            .all(|r| r.lower_is_better && r.bound > 0.0 && r.bound <= 0.25));
    }

    /// `n` runs of one workload whose metrics are `base` scaled by
    /// `scale`, with ±1 % run-to-run jitter.
    fn runs(n: usize, scale: f64, fail_rate: &[f64]) -> Vec<Json> {
        (0..n)
            .map(|i| {
                let jitter = 1.0 + 0.01 * (i as f64 - 1.0);
                Json::parse(&format!(
                    "{{\"metrics\": {{\"w.unit_p50_ms\": {}, \"w.setup_s\": {}, \"w.peak_rss_mb\": 4.0, \"w.fail_rate\": {}}}}}",
                    100.0 * scale * jitter,
                    0.002 * jitter,
                    fail_rate[i % fail_rate.len()]
                ))
                .expect("valid record")
            })
            .collect()
    }

    fn verdict(rows: &[Row], key: &str) -> Verdict {
        rows.iter()
            .find(|r| r.key == key)
            .map(|r| r.verdict)
            .expect("row present")
    }

    #[test]
    fn compare_flags_a_planted_slowdown_past_the_bound_but_not_within_it() {
        let b = bounds(BENCHMARK_JSON).expect("bounds");
        let bound = b[0].bound;
        let base = runs(3, 1.0, &[0.0]);
        let slow = compare(&base, &runs(3, 1.0 + 1.5 * bound, &[0.0]), &b);
        assert_eq!(verdict(&slow, "w.unit_p50_ms"), Verdict::Regressed);
        assert_eq!(verdict(&slow, "w.setup_s"), Verdict::Ok);
        let mild = compare(&base, &runs(3, 1.0 + 0.5 * bound, &[0.0]), &b);
        assert_eq!(verdict(&mild, "w.unit_p50_ms"), Verdict::Ok);
        let fast = compare(&base, &runs(3, 1.0 - 1.5 * bound, &[0.0]), &b);
        assert_eq!(verdict(&fast, "w.unit_p50_ms"), Verdict::Better);
    }

    #[test]
    fn compare_flags_any_rise_in_fail_rate() {
        let b = bounds(BENCHMARK_JSON).expect("bounds");
        let base = runs(3, 1.0, &[0.0]);
        let failing = compare(&base, &runs(3, 1.0, &[0.0, 0.01]), &b);
        assert_eq!(verdict(&failing, "w.fail_rate"), Verdict::Regressed);
        let clean = compare(&base, &runs(3, 1.0, &[0.0]), &b);
        assert_eq!(verdict(&clean, "w.fail_rate"), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let b = bounds(BENCHMARK_JSON).expect("bounds");
        let record = |v: f64| {
            Json::parse(&format!("{{\"metrics\": {{\"w.unit_p50_ms\": {v}}}}}")).expect("valid")
        };
        let noisy_a = Vec::from([80.0, 100.0, 120.0].map(record));
        let noisy_b = Vec::from([90.0, 108.0, 130.0].map(record));
        let rows = compare(&noisy_a, &noisy_b, &b);
        assert_eq!(verdict(&rows, "w.unit_p50_ms"), Verdict::Unresolved);
    }

    #[test]
    fn fingerprints_fold_byte_by_byte() {
        // FNV-1a 64 of "a" is the published test vector.
        let mut f = Fnv::default();
        f.fold(b"a");
        assert_eq!(f.0, 0xaf63_dc4c_8601_ec8c);
        // Folding in pieces equals folding at once.
        let (mut whole, mut parts) = (Fnv::default(), Fnv::default());
        whole.fold(b"abcdef");
        parts.fold(b"ab");
        parts.fold(b"cdef");
        assert_eq!(whole, parts);
    }
}
