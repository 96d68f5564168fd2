//! L7 — validator coverage over the call graph.
//!
//! Every **public entry point** in `taps-core`/`taps-sdn` whose call
//! paths can mutate link occupancy (an [`IntervalSet`] mutator invoked
//! on a `self`-rooted receiver: `insert_set`, `remove_set`,
//! `insert_range`, `remove_range`) must also reach a **validate
//! gate** — a function that invokes `check_schedule`/`check_occupancy`.
//! Validation in this workspace is post-hoc: `taps_core::admission`
//! checks the *whole* allocation batch against the invariants after the
//! engine staged its occupancy mutations and before it hands the batch
//! to `Taps`/`Controller` for commit (routes installed, grants sent). The
//! gate is therefore a sibling of the mutation on the call tree, not
//! its dominator — what the rule enforces is that an entry which
//! mutates occupancy has a validation step *somewhere* downstream; an
//! entry with none at all is flagged at its `fn` line. Entries that
//! legitimately sit below the validation boundary (the allocation-layer
//! primitives every gated caller wraps, pure-removal rollback paths)
//! carry a `// lint: l7-ok(reason)` marker on the `fn` line or the
//! line above.
//!
//! [`IntervalSet`]: ../../../crates/timeline/src/lib.rs

use super::callgraph::CallGraph;
use super::model::Workspace;
use crate::rules::Finding;
use crate::scan::MarkerKind;
use std::collections::BTreeSet;
use syn::{Delimiter, TokenTree};

/// IntervalSet occupancy mutators tracked by the rule.
const MUTATORS: &[&str] = &["insert_set", "remove_set", "insert_range", "remove_range"];
/// Idents whose presence in a body makes that function a validate gate.
const GATE_CALLS: &[&str] = &["check_schedule", "check_occupancy"];
/// Crates whose public surface the rule covers.
const SCOPE_CRATES: &[&str] = &["taps_core", "taps_sdn"];

pub fn check(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Finding>) {
    let n = ws.fns.len();
    let mut is_mutator = vec![false; n];
    let mut is_gate = vec![false; n];
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        is_mutator[i] = body_mutates_self(&f.body);
        is_gate[i] =
            SCOPE_CRATES.contains(&f.crate_ident.as_str()) && body_mentions(&f.body, GATE_CALLS);
    }
    // Name-based method resolution over-approximates: a std-collection
    // call like `vec.drain(..)` in core resolves to every workspace
    // method named `drain`, including ones in crates *above* core in the
    // dependency graph. Core/sdn cannot actually call upward, so edges
    // into out-of-scope crates are artifacts — refuse to traverse
    // through them (and never count their bodies as gates), else a
    // higher-level crate could silently legitimize an ungated entry.
    let out_of_scope = |n: usize| !SCOPE_CRATES.contains(&ws.fns[n].crate_ident.as_str());

    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test || !f.is_pub || !SCOPE_CRATES.contains(&f.crate_ident.as_str()) {
            continue;
        }
        if is_gate[i] {
            continue;
        }
        let reach = graph.reachable(i, &out_of_scope);
        // Post-hoc validation: a gate anywhere downstream covers the
        // entry (commit validates the full batch before exposure).
        if reach.iter().any(|&nid| is_gate[nid]) {
            continue;
        }
        let ungated: BTreeSet<usize> = reach.iter().copied().filter(|&m| is_mutator[m]).collect();
        let Some(&first) = ungated.iter().next() else {
            continue;
        };
        let line = f.line as usize;
        if let Some(entry) = ws.files.get(&f.rel) {
            if entry.source.marker_for(MarkerKind::L7Ok, line).is_some() {
                continue;
            }
            out.push(Finding {
                rule: "L7",
                path: f.rel.clone(),
                line,
                snippet: entry
                    .source
                    .raw_lines
                    .get(line.saturating_sub(1))
                    .cloned()
                    .unwrap_or_default(),
                message: format!(
                    "public entry point `{}` reaches timeline mutator `{}` \
                     ({}:{}) with no validate gate (`check_schedule`/`check_occupancy`) \
                     anywhere downstream: route the mutation through a gated commit, \
                     or allowlist with `// lint: l7-ok(reason)`",
                    f.qualified(),
                    ws.fns[first].qualified(),
                    ws.fns[first].rel,
                    ws.fns[first].line,
                ),
            });
        }
    }
}

/// True when the body contains `self.….<mutator>(…)` — the receiver
/// chain (fields, index groups, `?`) must root at `self`, so building
/// a *local* occupancy set (as `validate.rs` itself does) stays clean.
fn body_mutates_self(tokens: &[TokenTree]) -> bool {
    fn scan(tokens: &[TokenTree]) -> bool {
        for (i, t) in tokens.iter().enumerate() {
            if let TokenTree::Group(g) = t {
                if scan(&g.stream) {
                    return true;
                }
            }
            let TokenTree::Punct(p) = t else { continue };
            if p.ch != '.' {
                continue;
            }
            let Some(TokenTree::Ident(name)) = tokens.get(i + 1) else {
                continue;
            };
            if !MUTATORS.contains(&name.text.as_str()) {
                continue;
            }
            let Some(TokenTree::Group(g)) = tokens.get(i + 2) else {
                continue;
            };
            if g.delimiter != Delimiter::Parenthesis {
                continue;
            }
            if receiver_root_is_self(tokens, i) {
                return true;
            }
        }
        false
    }
    scan(tokens)
}

/// Walks the receiver chain leftward from the `.` at `dot` and reports
/// whether it roots at the `self` keyword.
fn receiver_root_is_self(tokens: &[TokenTree], dot: usize) -> bool {
    let mut j = dot;
    loop {
        if j == 0 {
            return false;
        }
        j -= 1;
        match &tokens[j] {
            // Index/call group in the chain: `self.occupancy[l.idx()]`.
            TokenTree::Group(_) => continue,
            TokenTree::Punct(p) if p.ch == '?' => continue,
            TokenTree::Ident(id) => {
                let chained = j > 0 && matches!(&tokens[j - 1], TokenTree::Punct(p) if p.ch == '.');
                if chained {
                    j -= 1; // step over the `.` and keep walking left
                    continue;
                }
                return id.text == "self";
            }
            _ => return false,
        }
    }
}

fn body_mentions(tokens: &[TokenTree], names: &[&str]) -> bool {
    tokens.iter().any(|t| match t {
        TokenTree::Ident(i) => names.contains(&i.text.as_str()),
        TokenTree::Group(g) => body_mentions(&g.stream, names),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::callgraph::CallGraph;

    fn l7(src: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(&[("crates/core/src/lib.rs", src)]);
        let graph = CallGraph::build(&ws);
        let mut out = Vec::new();
        check(&ws, &graph, &mut out);
        out
    }

    const GATED: &str = "pub struct S { occ: u64 }\nimpl S {\n    pub fn admit(&mut self) { self.commit() }\n    fn commit(&mut self) {\n        check_schedule();\n        self.occ.insert_set(1);\n    }\n}\nfn check_schedule() {}\n";

    #[test]
    fn gated_mutation_passes() {
        assert!(l7(GATED).is_empty(), "{:?}", l7(GATED));
    }

    #[test]
    fn posthoc_sibling_gate_covers_the_entry() {
        // The workspace's actual shape: the entry stages mutations via
        // the engine, then validates the whole batch in a sibling
        // commit call before exposing it.
        let src = "pub struct S { occ: u64 }\nimpl S {\n    pub fn admit(&mut self) {\n        self.stage();\n        self.commit();\n    }\n    fn stage(&mut self) { self.occ.insert_set(1); }\n    fn commit(&mut self) { check_schedule(); }\n}\nfn check_schedule() {}\n";
        assert!(l7(src).is_empty(), "{:?}", l7(src));
    }

    #[test]
    fn bypass_is_flagged_at_the_entry() {
        let src = "pub struct S { occ: u64 }\nimpl S {\n    pub fn sneak(&mut self) { self.occ.insert_set(1); }\n}\n";
        let out = l7(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "L7");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("S::sneak"));
    }

    #[test]
    fn local_receivers_and_markers_pass() {
        let src = "pub fn rebuild(sets: &mut [u64]) {\n    sets[0].insert_set(1);\n}\n";
        assert!(
            l7(src).is_empty(),
            "local receiver is not an occupancy mutation"
        );

        let src = "pub struct S { occ: u64 }\nimpl S {\n    // lint: l7-ok(rollback path restores a previously validated state)\n    pub fn rollback(&mut self) { self.occ.remove_set(1); }\n}\n";
        assert!(l7(src).is_empty(), "{:?}", l7(src));
    }
}
