//! The workspace-level semantic rules over per-function summaries:
//!
//! * **R10 `lock-order`** — build the lock-acquisition graph (direct
//!   acquired-while-held edges plus calls made under a guard expanded
//!   against each callee's transitive may-acquire set) and report every
//!   strongly-connected component of two or more locks as a potential
//!   deadlock;
//! * **R11 `panic-reachability`** — transitive closure of panic sources
//!   over the call graph; error when a panic can reach the public
//!   tuning surface (`tune*` in dta-core, `Server` methods in
//!   dta-server) without a justifying pragma, with the full witness
//!   path in the message;
//! * **R12 `determinism-taint`** — interprocedural taint: wall-clock
//!   reads, `Ordering::Relaxed` loads, and hash-map iteration must not
//!   flow into `det::` cost comparisons, in any number of hops.
//!
//! All three run as monotone fixpoints over [`FnSummary`] records only
//! — no AST, no source text.
//!
//! Call resolution is conservative-by-name: same impl and file beat
//! same crate beat the rest of the workspace; method names that
//! shadow ubiquitous std methods (`get`, `len`, `clone`, …) are never
//! resolved cross-function, so a `HashMap::get` cannot alias a
//! workspace function and manufacture false paths.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallSite, FnSummary, Reason, TaintSet, DET_SINKS};
use crate::rules::{Finding, Severity};

/// Method names too generic to resolve by name alone: these are
/// overwhelmingly std-library calls (on maps, vecs, options, iterators)
/// and resolving them to same-named workspace functions would invent
/// call edges out of thin air.
const NO_RESOLVE_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "contains",
    "contains_key",
    "extend",
    "clear",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "to_string",
    "to_owned",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "split",
    "join",
    "min",
    "max",
    "count",
    "sum",
    "collect",
    "filter",
    "filter_map",
    "find",
    "any",
    "all",
    "fold",
    "keys",
    "values",
    "entry",
    "take",
    "replace",
    "new",
    "from",
    "default",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "clamp",
    "abs",
    "floor",
    "ceil",
    "round",
    "drain",
    "last",
    "first",
    "append",
    "retain",
    "rev",
    "zip",
    "enumerate",
    "chain",
    "flat_map",
    "flatten",
    "position",
    "binary_search",
    "starts_with",
    "ends_with",
    "trim",
    "parse",
    "chars",
    "bytes",
    "lines",
    "then",
    "then_some",
    "ok",
    "err",
    "is_some",
    "is_none",
    "copied",
    "cloned",
    "expect",
    "unwrap",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "get_or_init",
    "windows",
    "chunks",
    "swap",
    "resize",
    "truncate",
    "to_vec",
    "into",
    "try_into",
    "as_bytes",
    "saturating_sub",
    "saturating_add",
    "checked_sub",
    "checked_add",
    "wrapping_add",
    "rem",
    "skip",
    "step_by",
    "sum_by",
    "partition",
    "unzip",
    "peekable",
    "peek",
    "push_str",
    "repeat",
];

/// Public entry points R11 guards: no unjustified panic may be
/// reachable from these.
const CORE_SURFACE_FNS: &[&str] =
    &["tune", "tune_resume", "tune_with_observer", "tune_with_control"];

/// One function's index plus the workspace name index.
struct Graph<'a> {
    fns: &'a [FnSummary],
    by_name: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> Graph<'a> {
    fn new(fns: &'a [FnSummary]) -> Self {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        Graph { fns, by_name }
    }

    /// Resolve a call site from `caller` to workspace function indices.
    /// Preference order: same file + same impl, same file, same crate;
    /// an unqualified cross-crate match resolves only when globally
    /// unique.
    fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        if call.is_method && NO_RESOLVE_METHODS.contains(&call.name.as_str()) {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(call.name.as_str()) else { return Vec::new() };
        let from = &self.fns[caller];
        let matches_qualifier = |f: &FnSummary| match call.qualifier.as_deref() {
            None => true,
            Some("Self") => f.impl_type == from.impl_type && f.crate_name == from.crate_name,
            Some(q) => {
                f.modules.iter().any(|m| m == q)
                    || f.impl_type.as_deref() == Some(q)
                    || f.crate_name == q
            }
        };
        let filtered: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| {
                let f = &self.fns[i];
                let receiver_ok = if call.is_method {
                    // `x.name(…)` targets methods only
                    f.is_method
                } else {
                    // `name(…)` can't hit a `self`-taking method; a
                    // qualified `Type::name(…)` can (UFCS)
                    !f.is_method || call.qualifier.is_some()
                };
                receiver_ok && matches_qualifier(f)
            })
            .collect();
        let score = |i: usize| -> u8 {
            let f = &self.fns[i];
            if f.file == from.file && f.impl_type == from.impl_type {
                3
            } else if f.file == from.file {
                2
            } else if f.crate_name == from.crate_name {
                1
            } else {
                0
            }
        };
        let best = filtered.iter().map(|&i| score(i)).max().unwrap_or(0);
        let group: Vec<usize> = filtered.into_iter().filter(|&i| score(i) == best).collect();
        if best == 0 && call.qualifier.is_none() && group.len() > 1 {
            // ambiguous unqualified cross-crate name: don't guess
            return Vec::new();
        }
        group
    }
}

/// Run all three semantic rules. Returned findings are unsuppressed —
/// the caller applies per-file pragmas.
pub fn analyze(fns: &[FnSummary]) -> Vec<Finding> {
    let graph = Graph::new(fns);
    let mut findings = Vec::new();
    r10_lock_order(&graph, &mut findings);
    r11_panic_reachability(&graph, &mut findings);
    r12_determinism_taint(&graph, &mut findings);
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    findings.dedup_by(|a, b| (&a.path, a.line, a.col, a.rule) == (&b.path, b.line, b.col, b.rule));
    findings
}

fn finding(rule: &'static str, path: &str, line: u32, col: u32, message: String) -> Finding {
    Finding { rule, severity: Severity::Error, path: path.to_string(), line, col, message }
}

// ── R10: lock-order cycles ─────────────────────────────────────────

fn r10_lock_order(g: &Graph<'_>, findings: &mut Vec<Finding>) {
    let n = g.fns.len();
    // transitive may-acquire sets
    let mut may: Vec<BTreeSet<String>> =
        g.fns.iter().map(|f| f.acquires.iter().map(|a| a.id.clone()).collect()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let mut add = BTreeSet::new();
            for call in &g.fns[i].calls {
                for c in g.resolve(i, call) {
                    for id in &may[c] {
                        if !may[i].contains(id) {
                            add.insert(id.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                may[i].extend(add);
                changed = true;
            }
        }
    }
    // edge set: (held, acquired) → earliest witness site
    let mut edges: BTreeMap<(String, String), (String, u32, u32)> = BTreeMap::new();
    let mut add_edge = |held: &str, acq: &str, file: &str, line: u32, col: u32| {
        if held == acq {
            return;
        }
        let key = (held.to_string(), acq.to_string());
        let site = (file.to_string(), line, col);
        match edges.get_mut(&key) {
            Some(s) if *s <= site => {}
            Some(s) => *s = site,
            None => {
                edges.insert(key, site);
            }
        }
    };
    for (i, f) in g.fns.iter().enumerate() {
        for e in &f.lock_edges {
            add_edge(&e.held, &e.acquired, &f.file, e.line, e.col);
        }
        for hc in &f.held_calls {
            let call = &f.calls[hc.call as usize];
            for c in g.resolve(i, call) {
                for id in &may[c] {
                    add_edge(&hc.held, id, &f.file, call.line, call.col);
                }
            }
        }
    }
    // strongly-connected components over lock ids (iterative Tarjan)
    let nodes: Vec<&String> = {
        let mut s = BTreeSet::new();
        for (h, a) in edges.keys() {
            s.insert(h);
            s.insert(a);
        }
        s.into_iter().collect()
    };
    let idx_of: BTreeMap<&String, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|&n| edges.keys().filter(|(h, _)| h == n).map(|(_, a)| idx_of[a]).collect())
        .collect();
    for scc in tarjan_sccs(&adj) {
        if scc.len() < 2 {
            continue;
        }
        let in_scc: BTreeSet<usize> = scc.iter().copied().collect();
        // describe every edge inside the component, anchored at the
        // earliest witness site
        let mut parts = Vec::new();
        let mut anchor: Option<(String, u32, u32)> = None;
        for ((h, a), site) in &edges {
            if in_scc.contains(&idx_of[h]) && in_scc.contains(&idx_of[a]) {
                parts.push(format!("{h} -> {a} ({}:{})", site.0, site.1));
                match &anchor {
                    Some(s) if s <= site => {}
                    _ => anchor = Some(site.clone()),
                }
            }
        }
        let Some((file, line, col)) = anchor else { continue };
        findings.push(finding(
            "R10",
            &file,
            line,
            col,
            format!(
                "potential deadlock: lock-order cycle {} — two sessions interleaving \
                 these acquisitions can block forever; impose a single global order \
                 (acquire in ascending lock-id order) or drop the first guard before \
                 taking the second",
                parts.join(", ")
            ),
        ));
    }
}

/// Iterative Tarjan SCC (no recursion: the lock graph is tiny but the
/// linter must never overflow its own stack on adversarial input).
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    // explicit DFS frames: (node, next child position)
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut frames = vec![(start, 0usize)];
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*ci) {
                *ci += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    out.push(scc);
                }
            }
        }
    }
    out.sort();
    out
}

// ── R11: panic reachability ────────────────────────────────────────

#[derive(Clone)]
enum Why {
    Own(usize),
    Via { call: usize, callee: usize },
}

fn r11_panic_reachability(g: &Graph<'_>, findings: &mut Vec<Finding>) {
    let n = g.fns.len();
    let mut can: Vec<Option<Why>> =
        g.fns.iter().map(|f| if f.panics.is_empty() { None } else { Some(Why::Own(0)) }).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if can[i].is_some() {
                continue;
            }
            // deterministic witness: the earliest panicking call site
            let mut best: Option<(u32, u32, usize, usize)> = None;
            for (ci, call) in g.fns[i].calls.iter().enumerate() {
                if call.absorbed {
                    continue;
                }
                for c in g.resolve(i, call) {
                    if can[c].is_some() {
                        let cand = (call.line, call.col, c, ci);
                        if best.is_none_or(|b| cand < b) {
                            best = Some(cand);
                        }
                    }
                }
            }
            if let Some((_, _, callee, call)) = best {
                can[i] = Some(Why::Via { call, callee });
                changed = true;
            }
        }
    }
    for (i, f) in g.fns.iter().enumerate() {
        let surface =
            (f.crate_name == "core" && f.vis_pub && CORE_SURFACE_FNS.contains(&f.name.as_str()))
                || (f.crate_name == "core"
                    && f.vis_pub
                    && f.is_method
                    && f.impl_type.as_deref() == Some("SessionSupervisor"))
                || (f.crate_name == "server"
                    && f.vis_pub
                    && f.is_method
                    && f.impl_type.as_deref() == Some("Server"));
        if !surface {
            continue;
        }
        if can[i].is_none() {
            continue;
        }
        // reconstruct the witness path
        let mut path = Vec::new();
        let mut cur = i;
        let mut seen = BTreeSet::new();
        let leaf = loop {
            if !seen.insert(cur) {
                break None; // defensive: recursion cycle
            }
            match &can[cur] {
                Some(Why::Own(p)) => break g.fns[cur].panics.get(*p).map(|p| (cur, p)),
                Some(Why::Via { call, callee }) => {
                    let c = &g.fns[cur].calls[*call];
                    path.push(format!("{} ({}:{})", g.fns[cur].name, g.fns[cur].file, c.line));
                    cur = *callee;
                }
                None => break None,
            }
        };
        let Some((leaf_idx, site)) = leaf else { continue };
        let lf = &g.fns[leaf_idx];
        let chain = if path.is_empty() {
            String::from("directly")
        } else {
            format!("via {}", path.join(" -> "))
        };
        findings.push(finding(
            "R11",
            &f.file,
            f.name_line,
            f.name_col,
            format!(
                "panic can reach public surface `{}` {chain}: `{}` at {}:{}:{} in `{}` — \
                 the anytime guarantee promises a best-so-far result, never an unwind; \
                 return a typed error, absorb with catch_unwind, write the invariant \
                 down (`expect(\"<≥10 chars>\")`), or justify the source site with \
                 `// dta-lint: allow(R11): <why>`",
                f.name, site.kind, lf.file, site.line, site.col, lf.name
            ),
        ));
    }
}

// ── R12: determinism taint ─────────────────────────────────────────

/// A fully-resolved nondeterminism source.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct GroundSrc {
    file: String,
    line: u32,
    col: u32,
    kind: String,
}

#[derive(Default, Clone, PartialEq)]
struct TaintTables {
    /// Ground sources reaching each function's return value.
    ret_g: Vec<BTreeSet<GroundSrc>>,
    /// Parameters flowing into each function's return value.
    ret_p: Vec<BTreeSet<u32>>,
    /// Parameters that (transitively) reach a `det::` sink.
    sink_p: Vec<BTreeSet<u32>>,
}

fn r12_determinism_taint(g: &Graph<'_>, findings: &mut Vec<Finding>) {
    let n = g.fns.len();
    let mut t = TaintTables {
        ret_g: vec![BTreeSet::new(); n],
        ret_p: vec![BTreeSet::new(); n],
        sink_p: vec![BTreeSet::new(); n],
    };
    // seed: the det:: sink functions themselves — every parameter is a
    // sink, so any resolved call with a tainted argument is a finding
    for (i, f) in g.fns.iter().enumerate() {
        if f.crate_name == "core"
            && f.file.ends_with("/det.rs")
            && DET_SINKS.contains(&f.name.as_str())
        {
            t.sink_p[i] = (0..f.params).collect();
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let f = &g.fns[i];
            let mut ev = Evaluator { g, t: &t, caller: i, memo: BTreeMap::new() };
            let (rg, rp) = ev.eval_set(&f.ret);
            let mut sp = t.sink_p[i].clone();
            for s in &f.sinks {
                let (_, p) = ev.eval_set(&s.reasons);
                sp.extend(p);
            }
            for (ci, call) in f.calls.iter().enumerate() {
                for c in g.resolve(i, call) {
                    let sink_params = t.sink_p[c].clone();
                    for k in sink_params {
                        if let Some(arg) = call.args.get(k as usize) {
                            let (_, p) = ev.eval_set(arg);
                            sp.extend(p);
                        }
                    }
                    let _ = ci;
                }
            }
            if rg != t.ret_g[i] || rp != t.ret_p[i] || sp != t.sink_p[i] {
                t.ret_g[i] = rg;
                t.ret_p[i] = rp;
                t.sink_p[i] = sp;
                changed = true;
            }
        }
    }
    // final pass: emit findings at sink feeds carrying ground sources
    let describe = |srcs: &BTreeSet<GroundSrc>| -> String {
        let first = srcs.iter().next().expect("non-empty ground source set");
        let extra =
            if srcs.len() > 1 { format!(" (+{} more)", srcs.len() - 1) } else { String::new() };
        format!("{} at {}:{}:{}{extra}", first.kind, first.file, first.line, first.col)
    };
    for i in 0..n {
        let f = &g.fns[i];
        let mut ev = Evaluator { g, t: &t, caller: i, memo: BTreeMap::new() };
        for s in &f.sinks {
            let (grounds, _) = ev.eval_set(&s.reasons);
            if !grounds.is_empty() {
                findings.push(finding(
                    "R12",
                    &f.file,
                    s.line,
                    s.col,
                    format!(
                        "nondeterministic value flows into `{}`: {} — cost comparisons \
                         and recommendation ordering must be reproducible across runs; \
                         derive the value from session-deterministic state or keep it \
                         out of the comparison",
                        s.callee,
                        describe(&grounds)
                    ),
                ));
            }
        }
        for call in &f.calls {
            for c in g.resolve(i, call) {
                for k in t.sink_p[c].iter().copied().collect::<Vec<_>>() {
                    if let Some(arg) = call.args.get(k as usize) {
                        let (grounds, _) = ev.eval_set(arg);
                        if !grounds.is_empty() {
                            findings.push(finding(
                                "R12",
                                &f.file,
                                call.line,
                                call.col,
                                format!(
                                    "argument {} of `{}` reaches a det:: cost comparison \
                                     inside the callee, and it is nondeterministic: {} — \
                                     the taint crosses the call boundary into the \
                                     recommendation ordering",
                                    k + 1,
                                    call.name,
                                    describe(&grounds)
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// Grounds a symbolic [`TaintSet`] of one function against the current
/// fixpoint tables: `Call` reasons are expanded through callee
/// summaries (memoized per call index; expression nesting is acyclic
/// within a function).
struct Evaluator<'a> {
    g: &'a Graph<'a>,
    t: &'a TaintTables,
    caller: usize,
    memo: BTreeMap<u32, (BTreeSet<GroundSrc>, BTreeSet<u32>)>,
}

impl<'a> Evaluator<'a> {
    fn eval_set(&mut self, set: &TaintSet) -> (BTreeSet<GroundSrc>, BTreeSet<u32>) {
        let mut grounds = BTreeSet::new();
        let mut params = BTreeSet::new();
        for reason in set {
            match reason {
                Reason::Source { kind, line, col } => {
                    grounds.insert(GroundSrc {
                        file: self.g.fns[self.caller].file.clone(),
                        line: *line,
                        col: *col,
                        kind: kind.clone(),
                    });
                }
                Reason::Param(k) => {
                    params.insert(*k);
                }
                Reason::Call(j) => {
                    let (cg, cp) = self.eval_call(*j);
                    grounds.extend(cg);
                    params.extend(cp);
                }
            }
        }
        (grounds, params)
    }

    fn eval_call(&mut self, j: u32) -> (BTreeSet<GroundSrc>, BTreeSet<u32>) {
        if let Some(hit) = self.memo.get(&j) {
            return hit.clone();
        }
        // cycle guard: while this call is being evaluated, a nested
        // lookup returns bottom (expression nesting is acyclic, but be
        // safe against malformed summaries)
        self.memo.insert(j, (BTreeSet::new(), BTreeSet::new()));
        let call = &self.g.fns[self.caller].calls[j as usize];
        let callees = self.g.resolve(self.caller, call);
        let mut grounds = BTreeSet::new();
        let mut params = BTreeSet::new();
        if callees.is_empty() {
            // unknown callee (std, closure): return value conservatively
            // carries every argument's taint
            for arg in &call.args {
                let (ag, ap) = self.eval_set(arg);
                grounds.extend(ag);
                params.extend(ap);
            }
        } else {
            for c in callees {
                grounds.extend(self.t.ret_g[c].iter().cloned());
                for k in &self.t.ret_p[c] {
                    if let Some(arg) = call.args.get(*k as usize) {
                        let (ag, ap) = self.eval_set(arg);
                        grounds.extend(ag);
                        params.extend(ap);
                    }
                }
            }
        }
        let out = (grounds, params);
        self.memo.insert(j, out.clone());
        out
    }
}
