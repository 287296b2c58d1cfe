//! Stage 2 of the v2 analyzer: the workspace index.
//!
//! Per-function summaries (one [`FnSummary`] per function in every
//! crate) are distilled from the AST by the per-function pass and glued
//! here into a whole-program view: name-resolution maps, a call graph,
//! and the reachability query behind rule R9 (transitive-panic). The
//! index never needs the ASTs back — summaries are small and flat.
//!
//! Call resolution is name-based (there is no type inference for
//! arbitrary receivers), tuned for signal over soundness:
//!
//! * `Type::method(..)` and method calls with a locally-known receiver
//!   type resolve through the `Type::name` map;
//! * bare calls resolve through the bare-name map, preferring the
//!   caller's own crate;
//! * method calls with an unknown receiver resolve only when the name
//!   is unambiguous (exactly one non-test candidate in the workspace).
//!
//! Ambiguous names produce *no* edge rather than edges to every
//! candidate — a deliberate under-approximation that keeps R9 findings
//! actionable (DESIGN.md §13.2 records the trade-off).

use crate::ast::Vis;
use std::collections::{HashMap, VecDeque};

/// What kind of panic a [`PanicSite`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!(..)` / `unwrap()` / `expect(..)` — hard panics.
    Hard,
    /// Slice/array indexing `x[i]` — can panic, reported as advisory.
    Index,
}

/// One potentially-panicking operation inside a function body.
#[derive(Debug, Clone, PartialEq)]
pub struct PanicSite {
    /// What the operation is, as shown in messages (`unwrap`, `panic!`,
    /// `expect`, `indexing`).
    pub what: String,
    /// Hard panic vs indexing advisory.
    pub kind: PanicKind,
    /// Source line.
    pub line: u32,
    /// The trimmed source line text (for findings).
    pub text: String,
}

/// One determinism-sink call site (journal write, bench metric,
/// report/checkpoint serialization) recorded for the whole-program R11
/// pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkSite {
    /// The sink's display name (`Journal::push`, `Bench::metric`, ...).
    pub sink: String,
    /// Source line.
    pub line: u32,
    /// The trimmed source line text.
    pub text: String,
    /// Determinism-taint kinds that reach the sink locally
    /// (`wall-clock`, `unordered-iteration`, ...).
    pub local_taints: Vec<String>,
    /// Workspace calls whose return values feed the sink — resolved
    /// against the det-return closure by the whole-program pass.
    pub call_args: Vec<CallSite>,
}

/// One call site inside a function body, as the per-function pass saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// The callee's final name segment (`merge`, `unwrap_or_default`).
    pub name: String,
    /// A receiver-type or path hint: `Some("PathSet")` for
    /// `PathSet::merge(..)` or for `x.merge(..)` where `x`'s type is
    /// locally known; `None` otherwise.
    pub recv_ty: Option<String>,
    /// True for `recv.name(..)` method syntax.
    pub via_method: bool,
    /// True when the call's value is (part of) the function's return
    /// value — used by the determinism fixpoint.
    pub in_return: bool,
    /// Source line.
    pub line: u32,
}

/// The flat summary of one function.
#[derive(Debug, Clone, PartialEq)]
pub struct FnSummary {
    /// Fully-qualified display name:
    /// `crate::mod::Type::name` (mods are inline mods only).
    pub qual: String,
    /// The crate the function lives in (`channel`, `core`, ...).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Line of the `fn`.
    pub line: u32,
    /// The bare function name.
    pub name: String,
    /// The impl/trait self-type name, if this is a method.
    pub impl_ty: Option<String>,
    /// Visibility.
    pub vis: Vis,
    /// True for `#[test]` fns and anything under `#[cfg(test)]`.
    pub is_test: bool,
    /// Return type text, if any.
    pub ret: Option<String>,
    /// Potentially-panicking operations in the body.
    pub panics: Vec<PanicSite>,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// True when the function's return value is *locally* a determinism
    /// taint source (wall-clock, unordered iteration order, ...).
    pub det_return: bool,
    /// Determinism-sink call sites in the body (R11).
    pub sink_sites: Vec<SinkSite>,
}

/// A resolved whole-program view over all function summaries.
pub struct WorkspaceIndex {
    /// All summaries; a function's id is its position here.
    pub fns: Vec<FnSummary>,
    /// `Type::method` → candidate fn ids.
    by_type_method: HashMap<String, Vec<usize>>,
    /// bare name → candidate fn ids.
    by_bare: HashMap<String, Vec<usize>>,
    /// Resolved forward call edges (caller → callees), deduplicated.
    pub edges: Vec<Vec<usize>>,
}

impl WorkspaceIndex {
    /// Builds the index: resolution maps plus the resolved call graph.
    pub fn build(fns: Vec<FnSummary>) -> Self {
        let mut by_type_method: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_bare: HashMap<String, Vec<usize>> = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            if f.is_test {
                continue; // test fns are never call-graph targets
            }
            if let Some(ty) = &f.impl_ty {
                by_type_method
                    .entry(format!("{ty}::{}", f.name))
                    .or_default()
                    .push(id);
            }
            by_bare.entry(f.name.clone()).or_default().push(id);
        }
        let mut idx = WorkspaceIndex {
            fns,
            by_type_method,
            by_bare,
            edges: Vec::new(),
        };
        idx.edges = idx
            .fns
            .iter()
            .enumerate()
            .map(|(id, f)| {
                let mut out: Vec<usize> = f
                    .calls
                    .iter()
                    .filter_map(|c| idx.resolve(c, id))
                    .filter(|&callee| callee != id)
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        idx
    }

    /// Resolves one call site to a callee id, or `None` when unknown or
    /// ambiguous. `caller` breaks bare-name ties toward the same crate.
    pub fn resolve(&self, call: &CallSite, caller: usize) -> Option<usize> {
        if let Some(ty) = &call.recv_ty {
            // `Type::method` / typed receiver: exact map first.
            let key = format!("{ty}::{}", call.name);
            if let Some(c) = self.by_type_method.get(&key) {
                return unique_or_same_crate(c, &self.fns, &self.fns[caller].crate_name);
            }
            // A lowercase hint is a module/crate path segment, not a
            // type: `journal::seal(..)` — filter bare candidates by it.
            if ty.chars().next().is_some_and(|c| c.is_lowercase()) {
                if let Some(cands) = self.by_bare.get(&call.name) {
                    let filtered: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| {
                            self.fns[i].crate_name == *ty
                                || self.fns[i].qual.contains(&format!("::{ty}::"))
                        })
                        .collect();
                    if filtered.len() == 1 {
                        return Some(filtered[0]);
                    }
                }
            }
            return None;
        }
        let cands = self.by_bare.get(&call.name)?;
        if call.via_method {
            // Unknown receiver: only an unambiguous method name links.
            let methods: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].impl_ty.is_some())
                .collect();
            if methods.len() == 1 {
                return Some(methods[0]);
            }
            return None;
        }
        // Bare free-fn call: prefer free fns in the caller's crate.
        let free: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.fns[i].impl_ty.is_none())
            .collect();
        unique_or_same_crate(&free, &self.fns, &self.fns[caller].crate_name)
    }

    /// The public non-test functions of [`ENTRY_CRATES`] — R9's BFS
    /// sources, and the scope of its direct-indexing advisory.
    pub fn entry_fns(&self) -> impl Iterator<Item = &FnSummary> {
        self.fns.iter().filter(|f| {
            f.vis == Vis::Pub && !f.is_test && ENTRY_CRATES.contains(&f.crate_name.as_str())
        })
    }

    /// R9's core query: for each *hard* panic site reachable from a
    /// public non-test function of one of `entry_crates`, returns
    /// `(entry, path, panicking fn, site)` where `path` is the shortest
    /// call chain `entry → .. → panicking fn`. Functions that panic
    /// directly (depth 0) are excluded — the per-file rules own those.
    pub fn transitive_panics(&self) -> Vec<ReachedPanic> {
        self.reach_from_entries(|f| {
            !f.panics.is_empty() && f.panics.iter().any(|p| p.kind == PanicKind::Hard)
        })
    }

    fn reach_from_entries(&self, is_target: impl Fn(&FnSummary) -> bool) -> Vec<ReachedPanic> {
        // Multi-source forward BFS from all public entry fns, recording
        // parents, so each target gets its shortest entry path.
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut visited = vec![false; self.fns.len()];
        let mut queue = VecDeque::new();
        for (id, f) in self.fns.iter().enumerate() {
            if f.vis == Vis::Pub && !f.is_test && ENTRY_CRATES.contains(&f.crate_name.as_str()) {
                visited[id] = true;
                queue.push_back(id);
            }
        }
        let entry_set = visited.clone();
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if !visited[v] {
                    visited[v] = true;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        let mut out = Vec::new();
        for (id, f) in self.fns.iter().enumerate() {
            if !visited[id] || f.is_test || !is_target(f) {
                continue;
            }
            if entry_set[id] && parent[id].is_none() {
                continue; // a direct panic in an entry fn is local, not transitive
            }
            // Reconstruct entry → .. → id.
            let mut path = vec![id];
            let mut cur = id;
            while let Some(p) = parent[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            for site in &f.panics {
                if site.kind == PanicKind::Hard {
                    out.push(ReachedPanic {
                        entry: path[0],
                        path: path.clone(),
                        site: site.clone(),
                    });
                }
            }
        }
        out.sort_by(|a, b| {
            let fa = &self.fns[a.path[a.path.len() - 1]];
            let fb = &self.fns[b.path[b.path.len() - 1]];
            (&fa.file, a.site.line).cmp(&(&fb.file, b.site.line))
        });
        out
    }

    /// Fixpoint over summaries: the set of functions whose return value
    /// carries a determinism-taint source, either locally
    /// (`det_return`) or by returning the value of a call to another
    /// tainted function. Returns a bitmap indexed by fn id.
    pub fn det_return_closure(&self) -> Vec<bool> {
        let mut det: Vec<bool> = self.fns.iter().map(|f| f.det_return).collect();
        loop {
            let mut changed = false;
            for (id, f) in self.fns.iter().enumerate() {
                if det[id] {
                    continue;
                }
                let tainted = f
                    .calls
                    .iter()
                    .filter(|c| c.in_return)
                    .filter_map(|c| self.resolve(c, id))
                    .any(|callee| det[callee]);
                if tainted {
                    det[id] = true;
                    changed = true;
                }
            }
            if !changed {
                return det;
            }
        }
    }

    /// Renders a call path as `a → b → c` using qualified names.
    pub fn render_path(&self, path: &[usize]) -> String {
        path.iter()
            .map(|&id| self.fns[id].qual.as_str())
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// One transitive-panic reachability result.
#[derive(Debug, Clone)]
pub struct ReachedPanic {
    /// The public entry function's id.
    pub entry: usize,
    /// The call chain, `entry` first, panicking fn last.
    pub path: Vec<usize>,
    /// The panic site inside the final function.
    pub site: PanicSite,
}

/// Crates whose public APIs are R9 entry points — the same set whose
/// roots deny `clippy::unwrap_used`/`expect_used` (R1), so the two
/// rules compose: R1 proves entries clean locally, R9 proves everything
/// they call clean transitively.
pub const ENTRY_CRATES: &[&str] = &[
    "chaos", "core", "faults", "fleet", "obs", "ops", "replay", "scenario", "sim",
];

fn unique_or_same_crate(cands: &[usize], fns: &[FnSummary], crate_name: &str) -> Option<usize> {
    match cands.len() {
        0 => None,
        1 => Some(cands[0]),
        _ => {
            let same: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| fns[i].crate_name == crate_name)
                .collect();
            if same.len() == 1 {
                Some(same[0])
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(name: &str, crate_name: &str, vis: Vis) -> FnSummary {
        FnSummary {
            qual: format!("{crate_name}::{name}"),
            crate_name: crate_name.to_string(),
            file: format!("crates/{crate_name}/src/lib.rs"),
            line: 1,
            name: name.to_string(),
            impl_ty: None,
            vis,
            is_test: false,
            ret: None,
            panics: Vec::new(),
            calls: Vec::new(),
            det_return: false,
            sink_sites: Vec::new(),
        }
    }

    fn call(name: &str) -> CallSite {
        CallSite {
            name: name.to_string(),
            recv_ty: None,
            via_method: false,
            in_return: false,
            line: 1,
        }
    }

    #[test]
    fn bare_calls_resolve_within_crate() {
        let mut a = summary("api", "core", Vis::Pub);
        a.calls.push(call("helper"));
        let helper_core = summary("helper", "core", Vis::Private);
        let helper_dsp = summary("helper", "dsp", Vis::Private);
        let idx = WorkspaceIndex::build(vec![a, helper_core, helper_dsp]);
        assert_eq!(idx.edges[0], vec![1], "same-crate candidate wins the tie");
    }

    #[test]
    fn ambiguous_method_calls_produce_no_edge() {
        let mut a = summary("api", "core", Vis::Pub);
        a.calls.push(CallSite {
            via_method: true,
            ..call("step")
        });
        let mut m1 = summary("step", "sim", Vis::Pub);
        m1.impl_ty = Some("World".to_string());
        let mut m2 = summary("step", "drone", Vis::Pub);
        m2.impl_ty = Some("Kinematics".to_string());
        let idx = WorkspaceIndex::build(vec![a, m1, m2]);
        assert!(idx.edges[0].is_empty(), "two candidates — refuse to guess");
    }

    #[test]
    fn typed_receiver_resolves_through_type_map() {
        let mut a = summary("api", "core", Vis::Pub);
        a.calls.push(CallSite {
            recv_ty: Some("World".to_string()),
            via_method: true,
            ..call("step")
        });
        let mut m1 = summary("step", "sim", Vis::Pub);
        m1.impl_ty = Some("World".to_string());
        let mut m2 = summary("step", "drone", Vis::Pub);
        m2.impl_ty = Some("Kinematics".to_string());
        let idx = WorkspaceIndex::build(vec![a, m1, m2]);
        assert_eq!(idx.edges[0], vec![1], "type hint disambiguates");
    }

    #[test]
    fn transitive_panic_found_at_depth_two() {
        let mut a = summary("api", "core", Vis::Pub);
        a.calls.push(call("mid"));
        let mut mid = summary("mid", "core", Vis::Private);
        mid.calls.push(call("deep"));
        let mut deep = summary("deep", "dsp", Vis::Pub);
        deep.panics.push(PanicSite {
            what: "unwrap".to_string(),
            kind: PanicKind::Hard,
            line: 42,
            text: String::new(),
        });
        let idx = WorkspaceIndex::build(vec![a, mid, deep]);
        let reached = idx.transitive_panics();
        assert_eq!(reached.len(), 1);
        assert_eq!(reached[0].path, vec![0, 1, 2]);
        assert_eq!(reached[0].site.line, 42);
        assert_eq!(
            idx.render_path(&reached[0].path),
            "core::api → core::mid → dsp::deep"
        );
    }

    #[test]
    fn direct_panic_in_entry_is_not_r9s_business() {
        let mut a = summary("api", "core", Vis::Pub);
        a.panics.push(PanicSite {
            what: "panic!".to_string(),
            kind: PanicKind::Hard,
            line: 7,
            text: String::new(),
        });
        let idx = WorkspaceIndex::build(vec![a]);
        assert!(idx.transitive_panics().is_empty());
    }

    #[test]
    fn non_entry_crate_public_fns_are_not_entries() {
        // dsp is not an entry crate; its public fns reaching panics is
        // fine unless something in an entry crate calls them.
        let mut a = summary("api", "dsp", Vis::Pub);
        a.calls.push(call("deep"));
        let mut deep = summary("deep", "dsp", Vis::Private);
        deep.panics.push(PanicSite {
            what: "unwrap".to_string(),
            kind: PanicKind::Hard,
            line: 3,
            text: String::new(),
        });
        let idx = WorkspaceIndex::build(vec![a, deep]);
        assert!(idx.transitive_panics().is_empty());
    }

    #[test]
    fn test_fns_are_excluded_from_the_graph() {
        let mut a = summary("api", "core", Vis::Pub);
        a.calls.push(call("helper"));
        let mut t = summary("helper", "core", Vis::Private);
        t.is_test = true;
        t.panics.push(PanicSite {
            what: "unwrap".to_string(),
            kind: PanicKind::Hard,
            line: 9,
            text: String::new(),
        });
        let idx = WorkspaceIndex::build(vec![a, t]);
        assert!(idx.edges[0].is_empty());
        assert!(idx.transitive_panics().is_empty());
    }

    #[test]
    fn det_closure_propagates_through_return_calls() {
        let mut a = summary("now_ms", "obs", Vis::Pub);
        a.det_return = true;
        let mut b = summary("stamp", "obs", Vis::Pub);
        b.calls.push(CallSite {
            in_return: true,
            ..call("now_ms")
        });
        let mut c = summary("ignores", "obs", Vis::Pub);
        c.calls.push(call("now_ms")); // not in return position
        let idx = WorkspaceIndex::build(vec![a, b, c]);
        let det = idx.det_return_closure();
        assert_eq!(det, vec![true, true, false]);
    }
}
