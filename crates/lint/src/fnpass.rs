//! Stage 3 of the v2 analyzer: the per-function dataflow pass.
//!
//! One abstract evaluation over each function body computes, in a
//! single walk:
//!
//! * **[`FnSummary`]** facts for the workspace index — call sites,
//!   panic sites, determinism-sink sites, and whether the return value
//!   is a local determinism-taint source;
//! * **R3 `unit-newtypes`** findings — a `pub fn` parameter named with a
//!   unit suffix (`_hz`, `_db`, ...) whose type is raw `f64`;
//! * **R10 `unit-dataflow`** findings — raw `f64` add/sub/compare on
//!   values with *unit provenance* (escaped from a `Hertz`/`Db`/`Dbm`/
//!   `Meters`/`Seconds` newtype via `as_hz()`/`value()`/a `_hz`-suffixed
//!   name) that should happen in newtype space instead;
//! * **R12 `parallel-safety`** findings — spawn closures mutating
//!   captured state, and order-sensitive folds of channel-received
//!   values.
//!
//! The abstract domain per value is `Facts`: an optional unit (raw
//! provenance vs. actual newtype), a coarse type name, a set of
//! determinism taints (`wall-clock`, `unordered-iteration`,
//! `nan-unsafe-compare`, `recv-order`), and the workspace calls that
//! fed the value. The pass is flow-insensitive across branches (both
//! sides of an `if` apply their env effects) and single-pass through
//! loop bodies — deliberate simplifications recorded in DESIGN.md §13.3.

use crate::ast::{Ast, BinOp, Block, Expr, FnDef, Item, ItemKind, Stmt, Vis};
use crate::index::{CallSite, FnSummary, PanicKind, PanicSite, SinkSite};
use crate::rules::{FileCtx, FileKind, Finding, Severity};
use std::collections::{BTreeSet, HashMap};

/// The result of analyzing one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// One summary per non-test function.
    pub summaries: Vec<FnSummary>,
    /// Intra-procedural findings (R3, R10, R12), pre-allow.
    pub findings: Vec<Finding>,
}

/// The five unit newtypes R10 tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Hertz,
    Db,
    Dbm,
    Meters,
    Seconds,
}

impl Unit {
    fn name(self) -> &'static str {
        match self {
            Unit::Hertz => "Hertz",
            Unit::Db => "Db",
            Unit::Dbm => "Dbm",
            Unit::Meters => "Meters",
            Unit::Seconds => "Seconds",
        }
    }
}

/// How a raw f64 acquired unit provenance. `Escape` (the value left a
/// newtype through `as_hz()`/`value()`/`wavelength()`) is the strong
/// signal R10 gates same-unit raw math on; `Suffix` (a `_hz`-style
/// identifier) marks code that never adopted the newtype — consistent
/// suffix-only math is legal, but mixing suffixed *different* units or
/// wrapping a suffixed value in the wrong constructor still errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitProv {
    Escape,
    Suffix,
}

/// A unit fact on a raw f64: the unit plus how we learned it.
type UnitFact = (Unit, UnitProv);

/// Determinism-taint kinds (R11 sources + the R12 channel-order kind).
const WALL_CLOCK: &str = "wall-clock";
const UNORDERED: &str = "unordered-iteration";
const NAN_CMP: &str = "nan-unsafe-compare";
const RECV_ORDER: &str = "recv-order";

/// The abstract value the evaluator threads through expressions.
#[derive(Debug, Clone, Default)]
struct Facts {
    /// Raw-f64 unit provenance (escaped from a newtype or named with a
    /// unit suffix).
    unit: Option<UnitFact>,
    /// The value *is* the newtype (arithmetic on it is fine).
    newtype: Option<Unit>,
    /// Coarse type name (`HashMap`, `Receiver`, `Journal`, `Bench`, ...).
    ty: Option<String>,
    /// Determinism taints on the value.
    dets: BTreeSet<&'static str>,
    /// Indices into the analyzer's call list: workspace calls whose
    /// results feed this value.
    call_ids: Vec<usize>,
}

impl Facts {
    fn of_ty(ty: &str) -> Facts {
        Facts {
            newtype: unit_from_ty(ty),
            ty: base_ty(ty),
            ..Facts::default()
        }
    }

    fn join(mut self, other: &Facts) -> Facts {
        self.unit = match (self.unit, other.unit) {
            (Some((a, pa)), Some((b, pb))) if a == b => {
                let prov = if pa == UnitProv::Escape || pb == UnitProv::Escape {
                    UnitProv::Escape
                } else {
                    UnitProv::Suffix
                };
                Some((a, prov))
            }
            _ => None,
        };
        if self.newtype != other.newtype {
            self.newtype = None;
        }
        if self.ty != other.ty {
            self.ty = None;
        }
        self.dets.extend(other.dets.iter().copied());
        for &id in &other.call_ids {
            if !self.call_ids.contains(&id) {
                self.call_ids.push(id);
            }
        }
        self
    }
}

type Env = HashMap<String, Facts>;

/// Analyzes one parsed file: summaries for every non-test fn plus
/// intra-procedural findings. `path` must be workspace-relative.
/// Test code (`#[test]`, `#[cfg(test)]`, test-like files) is skipped.
pub fn analyze_file(path: &str, src: &str, ast: &Ast) -> FileAnalysis {
    let ctx = FileCtx::from_path(path);
    let crate_name = ctx.crate_name.clone().unwrap_or_else(|| "rfly".to_string());
    let lines: Vec<&str> = src.lines().collect();
    let structs = collect_struct_fields(&ast.items);
    let mod_path = file_mod_path(path);

    let mut out = FileAnalysis::default();
    ast.visit_fns(&mut |mods, impl_ty, in_test, fd| {
        if in_test || ctx.kind == FileKind::TestLike {
            return;
        }
        if fd.vis == Vis::Pub {
            check_unit_params(path, fd, &mut out.findings);
        }
        if fd.body.is_none() {
            return;
        }
        let mut qual = vec![crate_name.clone()];
        qual.extend(mod_path.iter().cloned());
        qual.extend(mods.iter().cloned());
        if let Some(ty) = impl_ty {
            qual.push(ty.to_string());
        }
        qual.push(fd.name.clone());

        let mut a = FnAnalyzer {
            file: path,
            lines: &lines,
            structs: &structs,
            impl_ty,
            findings: &mut out.findings,
            calls: Vec::new(),
            panics: Vec::new(),
            sinks: Vec::new(),
            det_return: false,
        };
        a.run(fd);
        out.summaries.push(FnSummary {
            qual: qual.join("::"),
            crate_name: crate_name.clone(),
            file: path.to_string(),
            line: fd.line,
            name: fd.name.clone(),
            impl_ty: impl_ty.map(|s| s.to_string()),
            vis: fd.vis,
            is_test: false,
            ret: fd.ret.clone(),
            panics: a.panics,
            calls: a.calls,
            det_return: a.det_return,
            sink_sites: a.sinks,
        });
    });
    out
}

/// R3: a public fn parameter whose name carries a unit suffix must take
/// the `rfly_dsp::units` newtype, not raw `f64` (bare, borrowed, or
/// inside a slice/option).
fn check_unit_params(path: &str, fd: &FnDef, findings: &mut Vec<Finding>) {
    for p in fd.params.iter().filter(|p| !p.is_self) {
        let Some((unit, _)) = suffix_unit(&p.name) else {
            continue;
        };
        if p.ty
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .any(|w| w == "f64")
        {
            findings.push(Finding {
                rule: "unit-newtypes",
                file: path.to_string(),
                line: p.line,
                message: format!(
                    "parameter `{}` takes raw f64 — use rfly_dsp::units::{}",
                    p.name,
                    unit.name()
                ),
                severity: Severity::Error,
                line_text: String::new(),
            });
        }
    }
}

/// `crates/dsp/src/loc/heatmap.rs` → `["loc", "heatmap"]`;
/// `lib.rs`/`mod.rs`/`main.rs` contribute no segment.
fn file_mod_path(path: &str) -> Vec<String> {
    let rest = path.split_once("/src/").map(|(_, r)| r).unwrap_or(path);
    rest.trim_end_matches(".rs")
        .split('/')
        .filter(|s| !matches!(*s, "lib" | "mod" | "main" | "bin"))
        .map(|s| s.to_string())
        .collect()
}

/// Struct name → field name → type text, for `self.field` typing.
fn collect_struct_fields(items: &[Item]) -> HashMap<String, HashMap<String, String>> {
    let mut map = HashMap::new();
    fn rec(items: &[Item], map: &mut HashMap<String, HashMap<String, String>>) {
        for item in items {
            match &item.kind {
                ItemKind::Struct { name, fields } => {
                    map.insert(
                        name.clone(),
                        fields.iter().cloned().collect::<HashMap<_, _>>(),
                    );
                }
                ItemKind::Mod {
                    items: Some(items), ..
                } => rec(items, map),
                _ => {}
            }
        }
    }
    rec(items, &mut map);
    map
}

/// The base type name of a type text: `&mut HashMap<K, V>` → `HashMap`.
fn base_ty(ty: &str) -> Option<String> {
    let t = ty
        .trim_start_matches(['&', '*'])
        .trim_start_matches("mut ")
        .trim_start_matches("dyn ")
        .trim();
    let head = t.split(['<', ' ', '(']).next()?;
    let name = head.rsplit("::").next()?.trim();
    if name.is_empty() {
        None
    } else {
        Some(name.to_string())
    }
}

fn unit_from_ty(ty: &str) -> Option<Unit> {
    match base_ty(ty)?.as_str() {
        "Hertz" => Some(Unit::Hertz),
        "Db" => Some(Unit::Db),
        "Dbm" => Some(Unit::Dbm),
        "Meters" => Some(Unit::Meters),
        "Seconds" => Some(Unit::Seconds),
        _ => None,
    }
}

/// Unit provenance from an identifier suffix (`center_hz`, `ref_gain_db`).
/// Checked longest-suffix-first so `_dbm` wins over `_db` and `_ms` over
/// `_m`/`_s`.
fn suffix_unit(name: &str) -> Option<UnitFact> {
    const TABLE: &[(&str, Unit)] = &[
        ("_meters", Unit::Meters),
        ("_seconds", Unit::Seconds),
        ("_secs", Unit::Seconds),
        ("_sec", Unit::Seconds),
        ("_dbm", Unit::Dbm),
        ("_khz", Unit::Hertz),
        ("_mhz", Unit::Hertz),
        ("_ghz", Unit::Hertz),
        ("_ms", Unit::Seconds),
        ("_hz", Unit::Hertz),
        ("_db", Unit::Db),
        ("_m", Unit::Meters),
        ("_s", Unit::Seconds),
    ];
    let lower = name.to_ascii_lowercase();
    TABLE
        .iter()
        .find(|(suf, _)| lower.ends_with(suf))
        .map(|&(_, u)| (u, UnitProv::Suffix))
}

/// Unit-newtype constructors: `(type, fn)` → the unit being wrapped.
fn ctor_unit(ty: &str, f: &str) -> Option<Unit> {
    match (ty, f) {
        ("Hertz", "hz" | "khz" | "mhz" | "ghz") => Some(Unit::Hertz),
        ("Db", "new" | "from_linear" | "from_amplitude") => Some(Unit::Db),
        ("Dbm", "new" | "from_watts" | "from_milliwatts") => Some(Unit::Dbm),
        ("Meters", "new" | "cm" | "km") => Some(Unit::Meters),
        ("Seconds", "new" | "ms") => Some(Unit::Seconds),
        _ => None,
    }
}

/// Raw-escape methods that give their result unit *provenance*.
fn escape_unit(method: &str, recv_newtype: Option<Unit>) -> Option<Unit> {
    match method {
        "as_hz" | "as_khz" | "as_mhz" => Some(Unit::Hertz),
        "wavelength" => Some(Unit::Meters), // Hertz::wavelength is meters
        "value" => recv_newtype,            // shared by Db/Dbm/Meters/Seconds
        _ => None,
    }
}

/// Methods whose results are sanctioned linear-domain escapes (no
/// provenance): mixing them with raw math is the newtypes' point.
const LINEAR_ESCAPES: &[&str] = &["linear", "amplitude", "watts", "milliwatts"];

/// Common std methods never recorded as workspace call sites — keeps
/// summaries small and, more importantly, prevents false call-graph
/// edges from std names shadowing workspace fns.
const STD_METHODS: &[&str] = &[
    "abs",
    "atan2",
    "ceil",
    "chars",
    "clamp",
    "clone",
    "cloned",
    "collect",
    "contains",
    "copied",
    "cos",
    "count",
    "enumerate",
    "exp",
    "extend",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "floor",
    "fold",
    "get",
    "get_mut",
    "hypot",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_finite",
    "is_nan",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "log10",
    "log2",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "pop",
    "position",
    "powf",
    "powi",
    "push",
    "push_str",
    "remove",
    "rev",
    "round",
    "skip",
    "sin",
    "sort",
    "sorted",
    "split",
    "sqrt",
    "starts_with",
    "ends_with",
    "step_by",
    "sum",
    "take",
    "tan",
    "to_owned",
    "to_string",
    "trim",
    "truncate",
    "values",
    "windows",
    "zip",
    "chunks",
    "any",
    "all",
    "find",
    "retain",
    "drain",
    "resize",
    "reserve",
    "rem_euclid",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "ok",
    "err",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_secs_f64",
    "as_millis",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "to_vec",
    "concat",
    "repeat",
    "swap",
    "fract",
    "signum",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "partial_cmp",
    "cmp",
    "total_cmp",
    "eq",
    "ne",
    "lines",
    "bytes",
    "write",
    "write_str",
    "write_fmt",
    "finish",
    "field",
    "debug_struct",
    "unsigned_abs",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "wrapping_sub",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "leading_zeros",
    "trailing_zeros",
    "to_ascii_lowercase",
    "to_ascii_uppercase",
    "split_whitespace",
    "trim_start",
    "trim_end",
    "strip_prefix",
    "strip_suffix",
    "split_once",
    "rsplit",
    "first",
    "split_at",
    "binary_search",
    "binary_search_by",
    "dedup",
    "rotate_left",
    "rotate_right",
    "fill",
    "exp2",
    "exp_m1",
    "ln_1p",
    "mul_add",
    "recip",
    "to_degrees",
    "to_radians",
    "is_sign_negative",
    "is_sign_positive",
    "nth",
    "peekable",
    "peek",
    "scan",
    "take_while",
    "skip_while",
    "partition",
    "unzip",
    "by_ref",
    "inspect",
    "cycle",
    "chain",
    "once",
    "copysign",
];

/// In-place sorts that launder unordered-iteration taint from the
/// receiver (a sorted collection has a deterministic order).
const SORT_LAUNDER: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by",
    "sort_unstable_by",
];

/// Mutating container methods — used for the R12 captured-mutation and
/// recv-order fold checks.
const MUTATORS: &[&str] = &[
    "push", "push_str", "insert", "extend", "append", "remove", "clear", "truncate", "resize",
    "pop", "swap", "retain", "drain", "fill",
];

struct FnAnalyzer<'a> {
    file: &'a str,
    lines: &'a [&'a str],
    structs: &'a HashMap<String, HashMap<String, String>>,
    impl_ty: Option<&'a str>,
    findings: &'a mut Vec<Finding>,
    calls: Vec<CallSite>,
    panics: Vec<PanicSite>,
    sinks: Vec<SinkSite>,
    det_return: bool,
}

impl<'a> FnAnalyzer<'a> {
    fn run(&mut self, fd: &FnDef) {
        let mut env: Env = HashMap::new();
        for p in &fd.params {
            if p.is_self {
                let f = Facts {
                    ty: self.impl_ty.map(|s| s.to_string()),
                    ..Facts::default()
                };
                env.insert("self".to_string(), f);
            } else {
                let mut f = Facts::of_ty(&p.ty);
                if f.newtype.is_none() && f.ty.as_deref() == Some("f64") {
                    f.unit = suffix_unit(&p.name);
                }
                env.insert(p.name.clone(), f);
            }
        }
        let body = fd.body.as_ref().expect("checked by caller");
        let ret = self.eval_block(body, &mut env);
        self.mark_returned(&ret);
    }

    fn mark_returned(&mut self, facts: &Facts) {
        if !facts.dets.is_empty() {
            self.det_return = true;
        }
        for &id in &facts.call_ids {
            self.calls[id].in_return = true;
        }
    }

    fn line_text(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn finding(&mut self, rule: &'static str, line: u32, message: String) {
        let line_text = self.line_text(line);
        self.findings.push(Finding {
            rule,
            file: self.file.to_string(),
            line,
            message,
            severity: Severity::Error,
            line_text,
        });
    }

    fn panic_site(&mut self, what: &str, kind: PanicKind, line: u32) {
        // One advisory per (kind, line) is enough.
        if self.panics.iter().any(|p| p.line == line && p.kind == kind) {
            return;
        }
        self.panics.push(PanicSite {
            what: what.to_string(),
            kind,
            line,
            text: self.line_text(line),
        });
    }

    fn eval_block(&mut self, b: &Block, env: &mut Env) -> Facts {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let {
                    binds,
                    ty,
                    init,
                    else_block,
                    ..
                } => {
                    let facts = init.as_ref().map(|e| self.eval(e, env)).unwrap_or_default();
                    self.bind_let(binds, ty.as_deref(), init.as_ref(), facts, env);
                    if let Some(eb) = else_block {
                        self.eval_block(eb, env);
                    }
                }
                Stmt::Expr(e) => {
                    self.eval(e, env);
                }
                Stmt::Item(_) => {}
            }
        }
        match &b.tail {
            Some(t) => self.eval(t, env),
            None => Facts::default(),
        }
    }

    fn bind_let(
        &mut self,
        binds: &[String],
        ty: Option<&str>,
        init: Option<&Expr>,
        facts: Facts,
        env: &mut Env,
    ) {
        // `let (tx, rx) = channel();` — type the channel halves.
        let is_channel = matches!(
            init,
            Some(Expr::Call { callee, .. })
                if matches!(&**callee, Expr::Path { segs, .. }
                    if segs.last().is_some_and(|s| s == "channel"))
        );
        if is_channel && binds.len() == 2 {
            let tx = Facts {
                ty: Some("Sender".to_string()),
                ..Facts::default()
            };
            let rx = Facts {
                ty: Some("Receiver".to_string()),
                ..Facts::default()
            };
            env.insert(binds[0].clone(), tx);
            env.insert(binds[1].clone(), rx);
            return;
        }
        if binds.len() == 1 {
            let mut f = facts;
            if let Some(t) = ty {
                let annotated = Facts::of_ty(t);
                if annotated.newtype.is_some() {
                    f.newtype = annotated.newtype;
                    f.unit = None;
                }
                if annotated.ty.is_some() {
                    f.ty = annotated.ty;
                }
            }
            if f.unit.is_none() && f.newtype.is_none() {
                f.unit = suffix_unit(&binds[0]);
            }
            env.insert(binds[0].clone(), f);
        } else {
            // Destructuring spreads taints to every binding.
            for b in binds {
                let mut f = Facts {
                    dets: facts.dets.clone(),
                    call_ids: facts.call_ids.clone(),
                    ..Facts::default()
                };
                f.unit = suffix_unit(b);
                env.insert(b.clone(), f);
            }
        }
    }

    fn eval(&mut self, e: &Expr, env: &mut Env) -> Facts {
        match e {
            Expr::Lit { .. } => Facts::default(),
            Expr::Path { segs, line: _ } => {
                if segs.len() == 1 {
                    if let Some(f) = env.get(&segs[0]) {
                        return f.clone();
                    }
                    return Facts {
                        unit: suffix_unit(&segs[0]),
                        ..Facts::default()
                    };
                }
                // Multi-segment value path (consts, enum variants): a
                // unit-suffixed const still carries provenance.
                Facts {
                    unit: segs.last().and_then(|s| suffix_unit(s)),
                    ..Facts::default()
                }
            }
            Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                let mut f = Facts::default();
                for el in elems {
                    let ef = self.eval(el, env);
                    f.dets.extend(ef.dets);
                    for id in ef.call_ids {
                        if !f.call_ids.contains(&id) {
                            f.call_ids.push(id);
                        }
                    }
                }
                f
            }
            Expr::Call { callee, args, line } => self.eval_call(callee, args, *line, env),
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => self.eval_method(recv, method, args, *line, env),
            Expr::Field { recv, field, .. } => {
                let rf = self.eval(recv, env);
                let mut f = Facts::default();
                // `self.field` typed through the struct map.
                if let (Some(recv_ty), true) = (rf.ty.as_deref(), true) {
                    if let Some(fields) = self.structs.get(recv_ty) {
                        if let Some(ty) = fields.get(field) {
                            f = Facts::of_ty(ty);
                        }
                    }
                }
                if f.unit.is_none() && f.newtype.is_none() && f.ty.is_none() {
                    f.unit = suffix_unit(field);
                }
                f.dets = rf.dets;
                f.call_ids = rf.call_ids;
                f
            }
            Expr::Index { recv, index, line } => {
                let rf = self.eval(recv, env);
                self.eval(index, env);
                self.panic_site("indexing", PanicKind::Index, *line);
                Facts {
                    dets: rf.dets,
                    call_ids: rf.call_ids,
                    ..Facts::default()
                }
            }
            Expr::Binary { op, lhs, rhs, line } => {
                let lf = self.eval(lhs, env);
                let rf = self.eval(rhs, env);
                self.check_unit_binary(*op, lhs, rhs, &lf, &rf, *line);
                let (lu, ru) = (lf.unit, rf.unit);
                let mut f = lf.join(&rf);
                // Dimensional propagation: literal·unit keeps the unit
                // (a named factor may carry its own dimension, e.g.
                // `hover_w * dt_s` is joules), unit/unit and unit·unit
                // leave the tracked domain (ratio / squared), `%` keeps
                // the dividend's unit, and comparisons are dimensionless.
                match op {
                    BinOp::Mul => {
                        f.unit = match (lu, ru) {
                            (Some(u), None) if is_literal(rhs) => Some(u),
                            (None, Some(u)) if is_literal(lhs) => Some(u),
                            _ => None,
                        }
                    }
                    BinOp::Div => {
                        f.unit = match (lu, ru) {
                            (Some(u), None) if is_literal(rhs) => Some(u),
                            _ => None,
                        }
                    }
                    BinOp::Rem => f.unit = lu,
                    BinOp::Eq | BinOp::Cmp | BinOp::Logic | BinOp::Bit => {
                        f.unit = None;
                        f.newtype = None;
                    }
                    BinOp::Add | BinOp::Sub => {}
                }
                f
            }
            Expr::Unary { operand, .. } => self.eval(operand, env),
            Expr::Assign { op, lhs, rhs, line } => {
                let rf = self.eval(rhs, env);
                // R12: order-sensitive fold of channel-received values.
                if op.is_some() && rf.dets.contains(RECV_ORDER) {
                    self.finding(
                        "parallel-safety",
                        *line,
                        "order-sensitive fold of channel-received values — \
                         join worker handles in a fixed order or index results by worker id"
                            .to_string(),
                    );
                }
                if let Expr::Path { segs, .. } = &**lhs {
                    if segs.len() == 1 {
                        if let Some(cur) = env.get(&segs[0]) {
                            // R10 on compound add/sub.
                            if let Some(bop) = op {
                                if bop.is_add_sub() {
                                    let cur = cur.clone();
                                    self.check_unit_binary(*bop, lhs, rhs, &cur, &rf, *line);
                                }
                            }
                        }
                        let merged = match (op, env.get(&segs[0])) {
                            (Some(_), Some(cur)) => cur.clone().join(&rf),
                            _ => rf.clone(),
                        };
                        env.insert(segs[0].clone(), merged);
                    }
                } else {
                    self.eval(lhs, env);
                }
                Facts::default()
            }
            Expr::Cast { expr, .. } => {
                let mut f = self.eval(expr, env);
                f.ty = None;
                f.newtype = None;
                f
            }
            Expr::Range { lo, hi, .. } => {
                let mut f = Facts::default();
                if let Some(e) = lo {
                    f = f.join(&self.eval(e, env));
                }
                if let Some(e) = hi {
                    f = f.join(&self.eval(e, env));
                }
                f.unit = None;
                f
            }
            Expr::Closure { params, body, .. } => {
                let mut inner = env.clone();
                for p in params {
                    inner.insert(p.clone(), Facts::default());
                }
                self.eval(body, &mut inner);
                Facts::default()
            }
            Expr::If {
                cond,
                cond_binds,
                then,
                else_,
                ..
            } => {
                let cf = self.eval(cond, env);
                for b in cond_binds {
                    let mut f = Facts {
                        dets: cf.dets.clone(),
                        call_ids: cf.call_ids.clone(),
                        ..Facts::default()
                    };
                    f.unit = suffix_unit(b);
                    env.insert(b.clone(), f);
                }
                let tf = self.eval_block(then, env);
                match else_ {
                    Some(eb) => tf.join(&self.eval(eb, env)),
                    None => tf,
                }
            }
            Expr::Match { scrut, arms, .. } => {
                let sf = self.eval(scrut, env);
                let mut out: Option<Facts> = None;
                for arm in arms {
                    for b in &arm.binds {
                        let mut f = Facts {
                            dets: sf.dets.clone(),
                            call_ids: sf.call_ids.clone(),
                            ..Facts::default()
                        };
                        f.unit = suffix_unit(b);
                        env.insert(b.clone(), f);
                    }
                    let af = self.eval(&arm.body, env);
                    out = Some(match out {
                        Some(acc) => acc.join(&af),
                        None => af,
                    });
                }
                out.unwrap_or_default()
            }
            Expr::While {
                cond,
                cond_binds,
                body,
                ..
            } => {
                let cf = self.eval(cond, env);
                for b in cond_binds {
                    env.insert(
                        b.clone(),
                        Facts {
                            dets: cf.dets.clone(),
                            call_ids: cf.call_ids.clone(),
                            ..Facts::default()
                        },
                    );
                }
                self.eval_block(body, env);
                Facts::default()
            }
            Expr::Loop { body, .. } => {
                self.eval_block(body, env);
                Facts::default()
            }
            Expr::For {
                binds, iter, body, ..
            } => {
                let itf = self.eval(iter, env);
                let mut dets = itf.dets.clone();
                match itf.ty.as_deref() {
                    Some("HashMap" | "HashSet") => {
                        dets.insert(UNORDERED);
                    }
                    Some("Receiver") => {
                        dets.insert(RECV_ORDER);
                    }
                    _ => {}
                }
                for b in binds {
                    let mut f = Facts {
                        dets: dets.clone(),
                        call_ids: itf.call_ids.clone(),
                        ..Facts::default()
                    };
                    f.unit = suffix_unit(b);
                    env.insert(b.clone(), f);
                }
                self.eval_block(body, env);
                Facts::default()
            }
            Expr::BlockExpr { block, .. } => self.eval_block(block, env),
            Expr::Return { value, .. } => {
                if let Some(v) = value {
                    let f = self.eval(v, env);
                    self.mark_returned(&f);
                }
                Facts::default()
            }
            Expr::Jump { value, .. } => {
                if let Some(v) = value {
                    self.eval(v, env);
                }
                Facts::default()
            }
            Expr::Try { expr, .. } => self.eval(expr, env),
            Expr::MacroCall { name, args, line } => {
                if name == "panic" {
                    self.panic_site("panic!", PanicKind::Hard, *line);
                }
                let mut f = Facts::default();
                for a in args {
                    let af = self.eval(a, env);
                    f.dets.extend(af.dets);
                    for id in af.call_ids {
                        if !f.call_ids.contains(&id) {
                            f.call_ids.push(id);
                        }
                    }
                }
                f
            }
            Expr::StructLit {
                name, fields, rest, ..
            } => {
                let mut f = Facts {
                    ty: Some(name.clone()),
                    ..Facts::default()
                };
                for (_, fe) in fields {
                    let ff = self.eval(fe, env);
                    f.dets.extend(ff.dets);
                    for id in ff.call_ids {
                        if !f.call_ids.contains(&id) {
                            f.call_ids.push(id);
                        }
                    }
                }
                if let Some(r) = rest {
                    let rf = self.eval(r, env);
                    f.dets.extend(rf.dets);
                }
                f
            }
            Expr::Unknown { .. } => Facts::default(),
        }
    }

    fn eval_call(&mut self, callee: &Expr, args: &[Expr], line: u32, env: &mut Env) -> Facts {
        let arg_facts: Vec<Facts> = args.iter().map(|a| self.eval(a, env)).collect();
        let Expr::Path { segs, .. } = callee else {
            self.eval(callee, env);
            return Facts::default();
        };
        let name = segs.last().cloned().unwrap_or_default();
        let hint = if segs.len() >= 2 {
            Some(segs[segs.len() - 2].clone())
        } else {
            None
        };

        let mut f = Facts::default();
        for af in &arg_facts {
            f.dets.extend(af.dets.iter().copied());
        }

        // Wall-clock sources.
        if matches!(
            (hint.as_deref(), name.as_str()),
            (Some("Instant" | "SystemTime"), "now")
        ) {
            f.dets.insert(WALL_CLOCK);
            f.ty = Some("Instant".to_string());
            return f;
        }

        // Unit-newtype constructors, with the cross-wrap check.
        if let Some(target) = hint.as_deref().and_then(|h| ctor_unit(h, &name)) {
            if let Some((src, _)) = arg_facts.first().and_then(|a| a.unit) {
                if src != target {
                    self.finding(
                        "unit-dataflow",
                        line,
                        format!(
                            "wrapping a {}-provenance value in {} — unit cross-wrap",
                            src.name(),
                            target.name()
                        ),
                    );
                }
            }
            f.newtype = Some(target);
            f.ty = Some(target.name().to_string());
            return f;
        }

        // Constructor-shaped associated fns type their result.
        if let Some(h) = hint.as_deref() {
            if h.chars().next().is_some_and(|c| c.is_uppercase())
                && (name == "new"
                    || name == "begin"
                    || name == "default"
                    || name.starts_with("from")
                    || name.starts_with("with")
                    || name.starts_with("open"))
            {
                f.ty = Some(h.to_string());
            }
        }

        // Record the workspace call site.
        if !STD_METHODS.contains(&name.as_str()) && name != "channel" {
            let id = self.calls.len();
            self.calls.push(CallSite {
                name: name.clone(),
                recv_ty: hint,
                via_method: false,
                in_return: false,
                line,
            });
            f.call_ids.push(id);
        }
        if f.unit.is_none() {
            f.unit = suffix_unit(&name);
        }
        f
    }

    fn eval_method(
        &mut self,
        recv: &Expr,
        method: &str,
        args: &[Expr],
        line: u32,
        env: &mut Env,
    ) -> Facts {
        // R12: closures handed to spawn must not mutate captured state.
        if method == "spawn" {
            for a in args {
                if let Expr::Closure {
                    params,
                    body,
                    is_move,
                    ..
                } = a
                {
                    self.check_spawn_closure(params, body, *is_move, line);
                }
            }
        }

        let rf = self.eval(recv, env);
        let arg_facts: Vec<Facts> = args.iter().map(|a| self.eval(a, env)).collect();

        // Panic sites.
        if matches!(method, "unwrap" | "expect") {
            self.panic_site(method, PanicKind::Hard, line);
        }

        let mut f = Facts {
            dets: rf.dets.clone(),
            call_ids: rf.call_ids.clone(),
            ..Facts::default()
        };
        for af in &arg_facts {
            f.dets.extend(af.dets.iter().copied());
            for &id in &af.call_ids {
                if !f.call_ids.contains(&id) {
                    f.call_ids.push(id);
                }
            }
        }

        // Determinism sources.
        if matches!(
            method,
            "iter" | "iter_mut" | "keys" | "values" | "values_mut" | "into_iter" | "drain"
        ) && matches!(rf.ty.as_deref(), Some("HashMap" | "HashSet"))
        {
            f.dets.insert(UNORDERED);
        }
        if matches!(
            method,
            "recv" | "try_recv" | "recv_timeout" | "recv_deadline"
        ) && rf.ty.as_deref() == Some("Receiver")
        {
            f.dets.insert(RECV_ORDER);
        }
        if method == "elapsed" {
            f.dets.insert(WALL_CLOCK);
        }

        // Sorting: launder unordered taint, or taint with NaN-unsafe
        // compare when the comparator is partial.
        if SORT_LAUNDER.contains(&method) {
            let nan_unsafe = args.iter().any(closure_uses_partial_cmp);
            if let Expr::Path { segs, .. } = recv {
                if segs.len() == 1 {
                    if let Some(v) = env.get_mut(&segs[0]) {
                        v.dets.remove(UNORDERED);
                        if nan_unsafe {
                            v.dets.insert(NAN_CMP);
                        }
                    }
                }
            }
            if nan_unsafe {
                f.dets.insert(NAN_CMP);
            } else {
                f.dets.remove(UNORDERED);
            }
        } else if matches!(method, "max_by" | "min_by") && args.iter().any(closure_uses_partial_cmp)
        {
            f.dets.insert(NAN_CMP);
        }

        // A container filled with tainted values is tainted:
        // `samples.push(t0.elapsed())` carries the wall clock.
        if MUTATORS.contains(&method) {
            if let Expr::Path { segs, .. } = recv {
                if let Some(v) = segs.first().filter(|_| segs.len() == 1) {
                    if let Some(var) = env.get_mut(v) {
                        for a in &arg_facts {
                            var.dets.extend(a.dets.iter().copied());
                        }
                    }
                }
            }
        }

        // R12: order-sensitive accumulation of channel-received values.
        if MUTATORS.contains(&method) && arg_facts.iter().any(|a| a.dets.contains(RECV_ORDER)) {
            self.finding(
                "parallel-safety",
                line,
                "order-sensitive fold of channel-received values — \
                 join worker handles in a fixed order or index results by worker id"
                    .to_string(),
            );
        }

        // Unit escapes and provenance.
        if let Some(u) = escape_unit(method, rf.newtype) {
            f.unit = Some((u, UnitProv::Escape));
        } else if LINEAR_ESCAPES.contains(&method) {
            f.unit = None;
        } else if f.unit.is_none() {
            f.unit = suffix_unit(method).or(rf.unit.filter(|_| method == "clone"));
        }

        // Determinism sinks (R11, resolved in the whole-program pass).
        let sink = match (method, rf.ty.as_deref()) {
            ("metric" | "table", _) => Some("Bench::metric"),
            ("push", Some("Journal")) => Some("Journal::push"),
            ("seal", Some("Journal")) => Some("Journal::seal"),
            ("to_text", Some("Journal")) => Some("Journal::to_text"),
            ("to_text", Some("Checkpoint")) => Some("Checkpoint::to_text"),
            ("render_json" | "render_text" | "write_to_dir", _) => Some("Report::render"),
            _ => None,
        };
        if let Some(sink) = sink {
            let mut taints: Vec<String> = rf
                .dets
                .iter()
                .chain(arg_facts.iter().flat_map(|a| a.dets.iter()))
                .map(|s| s.to_string())
                .collect();
            taints.sort();
            taints.dedup();
            let mut call_args: Vec<CallSite> = Vec::new();
            for af in &arg_facts {
                for &id in &af.call_ids {
                    if call_args.len() < 8 {
                        call_args.push(self.calls[id].clone());
                    }
                }
            }
            self.sinks.push(SinkSite {
                sink: sink.to_string(),
                line,
                text: self.line_text(line),
                local_taints: taints,
                call_args,
            });
        }

        // Record the call site for the graph.
        if !STD_METHODS.contains(&method) {
            let recv_ty = rf.ty.clone();
            let id = self.calls.len();
            self.calls.push(CallSite {
                name: method.to_string(),
                recv_ty,
                via_method: true,
                in_return: false,
                line,
            });
            f.call_ids.push(id);
        }
        f
    }

    /// R10: raw-f64 add/sub/compare with unit provenance involved.
    fn check_unit_binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        lf: &Facts,
        rf: &Facts,
        line: u32,
    ) {
        if !(op.is_add_sub() || matches!(op, BinOp::Eq | BinOp::Cmp)) {
            return;
        }
        // Newtype-space arithmetic is what we want people to write;
        // rustc checks it. Anything involving a newtype is fine here.
        if lf.newtype.is_some() || rf.newtype.is_some() {
            return;
        }
        // Literal operands are calibration constants, not unit crossings.
        if is_literal(lhs) || is_literal(rhs) {
            return;
        }
        match (lf.unit, rf.unit) {
            // Different units never belong in the same raw +/-/compare,
            // however the provenance was learned.
            (Some((a, _)), Some((b, _))) if a != b => self.finding(
                "unit-dataflow",
                line,
                format!(
                    "raw f64 arithmetic mixes {} and {} — convert explicitly in newtype space",
                    a.name(),
                    b.name()
                ),
            ),
            // Same unit, but at least one side was *unwrapped from the
            // newtype* to do math the newtype already supports. Pure
            // suffix-named math (code that never adopted the newtype)
            // is consistent and stays legal.
            (Some((u, pa)), Some((_, pb)))
                if op.is_add_sub() && (pa == UnitProv::Escape || pb == UnitProv::Escape) =>
            {
                self.finding(
                    "unit-dataflow",
                    line,
                    format!(
                        "raw f64 {} arithmetic on a value unwrapped from the newtype — \
                         use the {} ops instead",
                        u.name(),
                        u.name()
                    ),
                )
            }
            (Some((u, UnitProv::Escape)), None) | (None, Some((u, UnitProv::Escape)))
                if op.is_add_sub() =>
            {
                self.finding(
                    "unit-dataflow",
                    line,
                    format!(
                        "{}-provenance value mixed with untyped f64 in +/- — wrap both sides in {}",
                        u.name(),
                        u.name()
                    ),
                )
            }
            _ => {}
        }
    }

    /// R12: a closure handed to `spawn` must not mutate variables it
    /// captures — shared mutable state across workers breaks the
    /// deterministic-merge contract.
    fn check_spawn_closure(
        &mut self,
        params: &[String],
        body: &Expr,
        is_move: bool,
        spawn_line: u32,
    ) {
        let _ = spawn_line;
        let mut bound: BTreeSet<String> = params.iter().cloned().collect();
        collect_bound(body, &mut bound);
        let mut hits: Vec<(u32, String, &'static str)> = Vec::new();
        body.walk(&mut |e| match e {
            Expr::Assign { lhs, line, .. } => {
                // `*slot = …` in a `move` closure is the deterministic
                // slot-distribution pattern: the moved `&mut` is
                // exclusive to this worker and the layout is fixed by
                // the iteration index, not by thread interleaving.
                if is_move && matches!(&**lhs, Expr::Unary { .. }) {
                    return;
                }
                if let Some(v) = assign_target(lhs) {
                    if !bound.contains(&v) {
                        hits.push((*line, v, "assigns to"));
                    }
                }
            }
            Expr::MethodCall {
                recv, method, line, ..
            } if MUTATORS.contains(&method.as_str()) => {
                if let Expr::Path { segs, .. } = &**recv {
                    if segs.len() == 1 && !bound.contains(&segs[0]) {
                        hits.push((*line, segs[0].clone(), "mutates"));
                    }
                }
            }
            _ => {}
        });
        hits.sort();
        hits.dedup();
        for (line, var, verb) in hits {
            self.finding(
                "parallel-safety",
                line,
                format!(
                    "spawn closure {verb} captured `{var}` — \
                     return per-worker results and merge them in a deterministic order"
                ),
            );
        }
    }
}

/// The variable ultimately assigned through derefs/fields/indexing:
/// `*acc`, `acc.field`, `acc[i]` all root at `acc`. Indexed assignment
/// roots too — inside a spawn closure even `results[i] = x` is a shared
/// mutable capture (use per-worker returns instead).
fn assign_target(lhs: &Expr) -> Option<String> {
    match lhs {
        Expr::Path { segs, .. } if segs.len() == 1 => Some(segs[0].clone()),
        Expr::Unary { operand, .. } => assign_target(operand),
        Expr::Field { recv, .. } | Expr::Index { recv, .. } => assign_target(recv),
        _ => None,
    }
}

/// Collects every identifier bound *inside* an expression tree (lets,
/// for/if-let/while-let/match binds, nested closure params) — the
/// complement of the captured set.
fn collect_bound(e: &Expr, bound: &mut BTreeSet<String>) {
    e.walk(&mut |x| match x {
        Expr::Closure { params, .. } => bound.extend(params.iter().cloned()),
        Expr::For { binds, .. } => bound.extend(binds.iter().cloned()),
        Expr::If { cond_binds, .. } | Expr::While { cond_binds, .. } => {
            bound.extend(cond_binds.iter().cloned())
        }
        Expr::Match { arms, .. } => {
            for a in arms {
                bound.extend(a.binds.iter().cloned());
            }
        }
        _ => {}
    });
    // Lets inside blocks.
    fn block_lets(b: &Block, bound: &mut BTreeSet<String>) {
        for s in &b.stmts {
            if let Stmt::Let { binds, .. } = s {
                bound.extend(binds.iter().cloned());
            }
        }
    }
    e.walk(&mut |x| match x {
        Expr::BlockExpr { block, .. }
        | Expr::Loop { body: block, .. }
        | Expr::While { body: block, .. }
        | Expr::For { body: block, .. } => block_lets(block, bound),
        Expr::If { then, .. } => block_lets(then, bound),
        _ => {}
    });
}

fn closure_uses_partial_cmp(e: &Expr) -> bool {
    let Expr::Closure { body, .. } = e else {
        return false;
    };
    let mut partial = false;
    let mut total = false;
    body.walk(&mut |x| {
        if let Expr::MethodCall { method, .. } = x {
            if method == "partial_cmp" {
                partial = true;
            }
            if method == "total_cmp" {
                total = true;
            }
        }
    });
    partial && !total
}

fn is_literal(e: &Expr) -> bool {
    match e {
        Expr::Lit { .. } => true,
        Expr::Unary { operand, .. } => is_literal(operand),
        Expr::Cast { expr, .. } => is_literal(expr),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn analyze(src: &str) -> FileAnalysis {
        let ast = parse_file(src);
        analyze_file("crates/channel/src/x.rs", src, &ast)
    }

    fn rules_of(a: &FileAnalysis) -> Vec<&'static str> {
        a.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unit_mix_across_escapes_is_flagged() {
        let a = analyze(
            "use rfly_dsp::units::{Db, Hertz};\n\
             pub fn f(freq: Hertz, gain: Db) -> f64 {\n\
                 freq.as_hz() + gain.value()\n\
             }\n",
        );
        assert_eq!(rules_of(&a), vec!["unit-dataflow"], "{:?}", a.findings);
        assert!(a.findings[0].message.contains("Hertz"));
        assert!(a.findings[0].message.contains("Db"));
    }

    #[test]
    fn same_unit_raw_subtraction_is_flagged() {
        // The ops/energy.rs shape: Db escape minus a _db-suffixed field.
        let a = analyze(
            "pub struct T { ref_gain_db: f64 }\n\
             impl T {\n\
                 pub fn margin(&self, gain: Db) -> f64 {\n\
                     gain.value() - self.ref_gain_db\n\
                 }\n\
             }\n",
        );
        assert_eq!(rules_of(&a), vec!["unit-dataflow"], "{:?}", a.findings);
    }

    #[test]
    fn newtype_arithmetic_and_literals_are_clean() {
        let a = analyze(
            "fn f(a: Hertz, b: Hertz, snr_db: f64) -> bool {\n\
                 let c = a + b;\n\
                 let _ = c;\n\
                 snr_db > 3.0\n\
             }\n\
             pub fn g(x: Hertz) -> f64 {\n\
                 x.as_hz() / 2.0\n\
             }\n",
        );
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn ctor_cross_wrap_is_flagged() {
        let a = analyze(
            "pub fn f(gain: Db) -> Hertz {\n\
                 Hertz::hz(gain.value())\n\
             }\n",
        );
        assert_eq!(rules_of(&a), vec!["unit-dataflow"], "{:?}", a.findings);
        assert!(a.findings[0].message.contains("cross-wrap"));
    }

    #[test]
    fn panic_and_call_sites_are_summarized() {
        let a = analyze(
            "pub fn f(x: Option<u32>) -> u32 {\n\
                 helper();\n\
                 x.unwrap()\n\
             }\n\
             fn helper() {}\n",
        );
        let s = &a.summaries[0];
        assert_eq!(s.qual, "channel::x::f");
        assert_eq!(s.panics.len(), 1);
        assert_eq!(s.panics[0].what, "unwrap");
        assert!(s.calls.iter().any(|c| c.name == "helper"));
    }

    #[test]
    fn wallclock_to_metric_sink_is_recorded() {
        let a = analyze(
            "pub fn run(bench: &mut Bench) {\n\
                 let t0 = Instant::now();\n\
                 work();\n\
                 let dt = t0.elapsed().as_secs_f64();\n\
                 bench.metric(\"time_s\", dt);\n\
             }\n",
        );
        let s = &a.summaries[0];
        assert_eq!(s.sink_sites.len(), 1, "{:?}", s.sink_sites);
        assert_eq!(s.sink_sites[0].sink, "Bench::metric");
        assert!(
            s.sink_sites[0]
                .local_taints
                .contains(&WALL_CLOCK.to_string()),
            "{:?}",
            s.sink_sites[0]
        );
    }

    #[test]
    fn wallclock_pushed_into_a_vec_taints_it() {
        let a = analyze(
            "pub fn run(bench: &mut Bench) {\n\
                 let mut samples = Vec::new();\n\
                 let t0 = Instant::now();\n\
                 samples.push(t0.elapsed().as_secs_f64());\n\
                 let m = median(&mut samples);\n\
                 bench.metric(\"median_s\", m);\n\
             }\n",
        );
        let sink = &a.summaries[0].sink_sites[0];
        assert!(
            sink.local_taints.contains(&WALL_CLOCK.to_string()),
            "{sink:?}"
        );
    }

    #[test]
    fn hashmap_iteration_taints_until_sorted() {
        let a = analyze(
            "pub fn dirty(m: &HashMap<u32, f64>, bench: &mut Bench) {\n\
                 let mut total = 0.0;\n\
                 for (_k, v) in m.iter() {\n\
                     total += v;\n\
                 }\n\
                 bench.metric(\"total\", total);\n\
             }\n\
             pub fn clean(m: &HashMap<u32, f64>, bench: &mut Bench) {\n\
                 let mut pairs: Vec<(u32, f64)> = Vec::new();\n\
                 for (k, v) in m.iter() {\n\
                     pairs.push((k, v));\n\
                 }\n\
                 pairs.sort_by_key(|p| p.0);\n\
                 let mut total = 0.0;\n\
                 for p in pairs.iter() {\n\
                     total += p.1;\n\
                 }\n\
                 bench.metric(\"total\", total);\n\
             }\n",
        );
        let dirty = &a.summaries[0].sink_sites[0];
        assert!(
            dirty.local_taints.contains(&UNORDERED.to_string()),
            "{dirty:?}"
        );
        let clean = &a.summaries[1].sink_sites[0];
        assert!(
            !clean.local_taints.contains(&UNORDERED.to_string()),
            "{clean:?}"
        );
    }

    #[test]
    fn spawn_closure_mutation_is_flagged() {
        let a = analyze(
            "pub fn bad(s: &Scope, shared: &mut Vec<f64>) {\n\
                 s.spawn(|| {\n\
                     shared.push(1.0);\n\
                 });\n\
             }\n\
             pub fn good(s: &Scope) {\n\
                 s.spawn(move || {\n\
                     let mut local: Vec<f64> = Vec::new();\n\
                     local.push(1.0);\n\
                     local\n\
                 });\n\
             }\n",
        );
        let rules = rules_of(&a);
        assert_eq!(rules, vec!["parallel-safety"], "{:?}", a.findings);
        assert!(a.findings[0].message.contains("shared"));
    }

    #[test]
    fn recv_order_fold_is_flagged() {
        let a = analyze(
            "pub fn bad() -> f64 {\n\
                 let (tx, rx) = channel();\n\
                 let _ = tx;\n\
                 let mut acc = 0.0;\n\
                 for v in rx {\n\
                     acc += v;\n\
                 }\n\
                 acc\n\
             }\n",
        );
        assert_eq!(rules_of(&a), vec!["parallel-safety"], "{:?}", a.findings);
    }

    #[test]
    fn det_return_marks_wallclock_returns() {
        let a = analyze(
            "pub fn stamp() -> f64 {\n\
                 Instant::now().elapsed().as_secs_f64()\n\
             }\n\
             pub fn pure(x: f64) -> f64 {\n\
                 x * 2.0\n\
             }\n",
        );
        assert!(a.summaries[0].det_return);
        assert!(!a.summaries[1].det_return);
    }

    #[test]
    fn unit_suffixed_public_params_need_newtypes() {
        let a = analyze(
            "pub fn tune(freq_hz: f64, span: &[f64], gains_db: &[f64]) {}\n\
             pub(crate) fn scoped(freq_hz: f64) {}\n\
             fn private(freq_hz: f64) {}\n\
             pub fn typed(freq_hz: Hertz, n_m: usize) {}\n\
             pub trait T { fn decl(&self, delay_s: f64); }\n\
             impl X { pub fn method(&self, range_m: f64) {} }\n\
             #[cfg(test)]\n\
             mod tests { pub fn helper(freq_hz: f64) {} }\n",
        );
        let hits: Vec<(u32, &str)> = a
            .findings
            .iter()
            .map(|f| (f.line, f.message.as_str()))
            .collect();
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits[0].1.contains("`freq_hz`") && hits[0].1.contains("Hertz"));
        assert!(hits[1].1.contains("`gains_db`") && hits[1].1.contains("Db"));
        assert_eq!(hits[2].0, 6);
        assert!(hits[2].1.contains("`range_m`") && hits[2].1.contains("Meters"));
    }

    #[test]
    fn test_fns_are_skipped() {
        let a = analyze(
            "#[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() {\n\
                     let x: Option<u32> = None;\n\
                     let _ = x.unwrap();\n\
                 }\n\
             }\n",
        );
        assert!(a.summaries.is_empty());
        assert!(a.findings.is_empty());
    }
}
