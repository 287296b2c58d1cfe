//! Stage 2 of the v2 analyzer: the workspace index.
//!
//! Per-function summaries (one [`FnSummary`] per function in every
//! crate) are distilled from the AST by the per-function pass and glued
//! here into a whole-program view: name-resolution maps and the
//! determinism fixpoint behind rule R11 (determinism-taint). The index
//! never needs the ASTs back — summaries are small and flat.
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
//! Ambiguous names resolve to nothing rather than to every candidate —
//! a deliberate under-approximation that keeps R11 findings actionable
//! (DESIGN.md §13.1 records the trade-off).

use std::collections::HashMap;

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
    /// The bare function name.
    pub name: String,
    /// The impl/trait self-type name, if this is a method.
    pub impl_ty: Option<String>,
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
}

impl WorkspaceIndex {
    /// Builds the index: the resolution maps over every summarised fn
    /// (test fns are never summarised, so never resolution targets).
    pub fn build(fns: Vec<FnSummary>) -> Self {
        let mut by_type_method: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_bare: HashMap<String, Vec<usize>> = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            if let Some(ty) = &f.impl_ty {
                by_type_method
                    .entry(format!("{ty}::{}", f.name))
                    .or_default()
                    .push(id);
            }
            by_bare.entry(f.name.clone()).or_default().push(id);
        }
        WorkspaceIndex {
            fns,
            by_type_method,
            by_bare,
        }
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
}

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

    fn summary(name: &str, crate_name: &str) -> FnSummary {
        FnSummary {
            qual: format!("{crate_name}::{name}"),
            crate_name: crate_name.to_string(),
            file: format!("crates/{crate_name}/src/lib.rs"),
            name: name.to_string(),
            impl_ty: None,
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

    /// What the first call of the first fn resolves to.
    fn first_call(fns: Vec<FnSummary>) -> Option<usize> {
        let idx = WorkspaceIndex::build(fns);
        idx.resolve(&idx.fns[0].calls[0], 0)
    }

    #[test]
    fn bare_calls_resolve_within_crate() {
        let mut a = summary("api", "core");
        a.calls.push(call("helper"));
        let helper_core = summary("helper", "core");
        let helper_dsp = summary("helper", "dsp");
        assert_eq!(
            first_call(vec![a, helper_core, helper_dsp]),
            Some(1),
            "same-crate candidate wins the tie"
        );
    }

    #[test]
    fn ambiguous_method_calls_resolve_to_nothing() {
        let mut a = summary("api", "core");
        a.calls.push(CallSite {
            via_method: true,
            ..call("step")
        });
        let mut m1 = summary("step", "sim");
        m1.impl_ty = Some("World".to_string());
        let mut m2 = summary("step", "drone");
        m2.impl_ty = Some("Kinematics".to_string());
        assert_eq!(
            first_call(vec![a, m1, m2]),
            None,
            "two candidates — refuse to guess"
        );
    }

    #[test]
    fn typed_receiver_resolves_through_type_map() {
        let mut a = summary("api", "core");
        a.calls.push(CallSite {
            recv_ty: Some("World".to_string()),
            via_method: true,
            ..call("step")
        });
        let mut m1 = summary("step", "sim");
        m1.impl_ty = Some("World".to_string());
        let mut m2 = summary("step", "drone");
        m2.impl_ty = Some("Kinematics".to_string());
        assert_eq!(
            first_call(vec![a, m1, m2]),
            Some(1),
            "type hint disambiguates"
        );
    }

    #[test]
    fn det_closure_propagates_through_return_calls() {
        let mut a = summary("now_ms", "obs");
        a.det_return = true;
        let mut b = summary("stamp", "obs");
        b.calls.push(CallSite {
            in_return: true,
            ..call("now_ms")
        });
        let mut c = summary("ignores", "obs");
        c.calls.push(call("now_ms")); // not in return position
        let idx = WorkspaceIndex::build(vec![a, b, c]);
        let det = idx.det_return_closure();
        assert_eq!(det, vec![true, true, false]);
    }
}
