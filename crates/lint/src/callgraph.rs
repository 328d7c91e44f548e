//! Per-function summaries: the bridge between the per-file AST and the
//! workspace-level semantic rules.
//!
//! [`summarize_file`] walks one parsed file and produces a
//! [`FnSummary`] per non-test function. A summary is *self-contained
//! algebra* — every cross-function fact is symbolic (a [`Reason::Call`]
//! index, an unresolved callee name) so the workspace fixpoints in
//! [`crate::semantic`] run over summaries alone: a file's summary
//! depends only on the file's own bytes.
//!
//! What one summary records:
//!
//! * **calls** — every function/method call with a symbolic taint set
//!   per argument (receiver is argument 0 for methods);
//! * **panics** (R11) — unjustified `panic!`-family macros, `unwrap`,
//!   short-message `expect`, and slice indexing; sites inside a
//!   `catch_unwind` argument are absorbed; an `expect` whose message is
//!   a written-down invariant (≥ [`pragma::MIN_JUSTIFICATION`] chars)
//!   or a site covered by an `allow(R11)` pragma is *not* a source;
//! * **lock facts** (R10) — direct acquisitions (zero-argument
//!   `read()`/`write()`/`lock()`), acquired-while-held edges from
//!   lexical guard scopes, and calls made while a guard is held;
//! * **taint facts** (R12) — the return-value taint and local
//!   `det::`-sink feeds, over the reason lattice
//!   {wall clock, `Ordering::Relaxed`, hash iteration} ∪ params ∪ call
//!   returns.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::*;
use crate::pragma::{Pragma, MIN_JUSTIFICATION};

/// Lock-acquiring method names. Zero-argument calls only, so
/// `io::Read::read(&mut buf)` / `io::Write::write(buf)` never match.
pub const LOCK_METHODS: &[&str] = &["read", "write", "lock"];

/// `det::` functions whose arguments are determinism sinks (R12).
pub const DET_SINKS: &[&str] = &["improves", "min_by_cost_position"];

/// Iterator-producing methods that make hash-container iteration (R12
/// hash-order source) when the receiver is a `HashMap`/`HashSet`.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Why a value is tainted (R12) — symbolic within one function.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reason {
    /// A local nondeterminism source (`kind` names it; position is
    /// within the summary's own file).
    Source { kind: String, line: u32, col: u32 },
    /// Flows from the function's k-th parameter.
    Param(u32),
    /// Flows from the return value of `calls[idx]`.
    Call(u32),
}

pub type TaintSet = BTreeSet<Reason>;

/// One call site, with symbolic argument taints.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// Path qualifier before the name (`det::improves` → `det`,
    /// `Self::helper` → `Self`); `None` for unqualified and method
    /// calls.
    pub qualifier: Option<String>,
    pub is_method: bool,
    pub line: u32,
    pub col: u32,
    /// Inside a `catch_unwind` argument: panics from this callee are
    /// absorbed (R11 ignores the edge; R10/R12 still use it).
    pub absorbed: bool,
    /// Symbolic taint of each argument. For methods, index 0 is the
    /// receiver and source arguments follow.
    pub args: Vec<TaintSet>,
}

/// An unjustified potential-panic site (R11 source).
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// `panic!` / `unwrap` / `expect` / `index` / `unreachable!` / ….
    pub kind: String,
    pub line: u32,
    pub col: u32,
}

/// A direct lock acquisition.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Canonical lock id (`Type.field`, alias-resolved).
    pub id: String,
    pub line: u32,
    pub col: u32,
}

/// Lock B acquired at (line, col) while a guard of lock A is held.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub line: u32,
    pub col: u32,
}

/// `calls[call]` made while a guard of `held` is held — expanded
/// against the callee's transitive acquisitions in the fixpoint.
#[derive(Debug, Clone)]
pub struct HeldCall {
    pub held: String,
    pub call: u32,
}

/// A local `det::` sink call with the union of its argument taints.
#[derive(Debug, Clone)]
pub struct SinkSite {
    pub callee: String,
    pub line: u32,
    pub col: u32,
    pub reasons: TaintSet,
}

/// Everything the semantic phase needs to know about one function.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Crate directory name under `crates/`.
    pub crate_name: String,
    /// Module names this function is addressable under (file stem plus
    /// enclosing inline `mod` names) — qualifier matching.
    pub modules: Vec<String>,
    /// `impl` type head (or trait name) for methods/associated fns.
    pub impl_type: Option<String>,
    pub name: String,
    /// Has a `self` receiver.
    pub is_method: bool,
    pub vis_pub: bool,
    /// Number of declared (non-`self`) parameters.
    pub params: u32,
    /// Position of the name identifier (surface findings anchor here).
    pub name_line: u32,
    pub name_col: u32,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    pub acquires: Vec<LockAcq>,
    pub lock_edges: Vec<LockEdge>,
    pub held_calls: Vec<HeldCall>,
    pub sinks: Vec<SinkSite>,
    /// Symbolic taint of the return value.
    pub ret: TaintSet,
}

/// Per-file extraction output.
#[derive(Debug, Default, Clone)]
pub struct FileFacts {
    pub fns: Vec<FnSummary>,
    /// Lines of `allow(R11)` pragmas that justified at least one
    /// would-be panic source (stale-pragma accounting).
    pub used_pragma_lines: BTreeSet<u32>,
}

/// Summarize every non-test function in a parsed file.
pub fn summarize_file(
    rel_path: &str,
    file: &SourceFile,
    pragmas: &[Pragma],
    test_ranges: &[(u32, u32)],
) -> FileFacts {
    let rel = rel_path.replace('\\', "/");
    let comps: Vec<&str> = rel.split('/').filter(|c| !c.is_empty()).collect();
    let crate_name = comps
        .iter()
        .position(|c| *c == "crates")
        .and_then(|i| comps.get(i + 1))
        .map(|s| s.to_string())
        .unwrap_or_default();
    let stem = comps.last().and_then(|f| f.strip_suffix(".rs")).unwrap_or("").to_string();
    let mut facts = FileFacts::default();
    let mut cx =
        WalkCx { rel: &rel, crate_name: &crate_name, pragmas, test_ranges, facts: &mut facts };
    let modules = vec![stem];
    walk_items(&file.items, &modules, None, false, &mut cx);
    facts
}

struct WalkCx<'a> {
    rel: &'a str,
    crate_name: &'a str,
    pragmas: &'a [Pragma],
    test_ranges: &'a [(u32, u32)],
    facts: &'a mut FileFacts,
}

fn walk_items(
    items: &[Item],
    modules: &[String],
    impl_type: Option<&str>,
    exempt: bool,
    cx: &mut WalkCx<'_>,
) {
    for item in items {
        let exempt = exempt
            || item.cfg_test
            || cx.test_ranges.iter().any(|&(a, b)| item.line >= a && item.line <= b);
        match &item.kind {
            ItemKind::Fn(f) => {
                if exempt {
                    continue;
                }
                summarize_fn(item, f, modules, impl_type, cx);
                if let Some(body) = &f.body {
                    walk_nested(body, modules, impl_type, cx);
                }
            }
            ItemKind::Mod { items, .. } => {
                let mut inner = modules.to_vec();
                inner.push(item.name.clone());
                walk_items(items, &inner, impl_type, exempt, cx);
            }
            ItemKind::Impl { items, .. } | ItemKind::Trait { items } => {
                walk_items(items, modules, Some(item.name.as_str()), exempt, cx);
            }
            _ => {}
        }
    }
}

/// Functions nested inside a function body.
fn walk_nested(block: &Block, modules: &[String], impl_type: Option<&str>, cx: &mut WalkCx<'_>) {
    for stmt in &block.stmts {
        if let Stmt::Item(item) = stmt {
            walk_items(std::slice::from_ref(item), modules, impl_type, false, cx);
        }
    }
}

fn summarize_fn(
    item: &Item,
    f: &FnItem,
    modules: &[String],
    impl_type: Option<&str>,
    cx: &mut WalkCx<'_>,
) {
    let Some(body) = &f.body else { return };
    let mut summary = FnSummary {
        file: cx.rel.to_string(),
        crate_name: cx.crate_name.to_string(),
        modules: modules.to_vec(),
        impl_type: impl_type.map(|s| s.to_string()),
        name: item.name.clone(),
        is_method: f.has_self,
        vis_pub: item.vis_pub,
        params: f.params.len() as u32,
        name_line: f.name_line,
        name_col: f.name_col,
        calls: Vec::new(),
        panics: Vec::new(),
        acquires: Vec::new(),
        lock_edges: Vec::new(),
        held_calls: Vec::new(),
        sinks: Vec::new(),
        ret: TaintSet::new(),
    };
    let mut az = FnAnalyzer {
        impl_type,
        pragmas: cx.pragmas,
        out: &mut summary,
        used_pragmas: &mut cx.facts.used_pragma_lines,
        vars: BTreeMap::new(),
        guards: Vec::new(),
        catch: 0,
    };
    az.seed_params(&f.params);
    // Two passes over the body: pass 1 computes loop-carried variable
    // taints; pass 2 re-records every site with those taints in scope.
    // Call indices are identical across passes (same traversal order),
    // so `Reason::Call` indices from pass 1 stay valid.
    az.eval_block(body);
    az.out.calls.clear();
    az.out.panics.clear();
    az.out.acquires.clear();
    az.out.lock_edges.clear();
    az.out.held_calls.clear();
    az.out.sinks.clear();
    az.out.ret.clear();
    az.guards.clear();
    az.catch = 0;
    let tail = az.eval_block(body);
    az.out.ret.extend(tail.taint);
    cx.facts.fns.push(summary);
}

/// The value lattice an expression evaluates to.
#[derive(Debug, Clone, Default)]
struct Val {
    taint: TaintSet,
    /// Receiver is a hash container (`HashMap`/`HashSet`) — iterating
    /// it is an R12 source.
    hash: bool,
    /// Canonical lock id this expression denotes, when it (or an alias
    /// chain) names a lockable field (`self.shards[i]` → `T.shards`).
    lock: Option<String>,
}

impl Val {
    fn tainted(taint: TaintSet) -> Self {
        Val { taint, hash: false, lock: None }
    }
}

#[derive(Debug, Clone, Default)]
struct VarInfo {
    taint: TaintSet,
    hash: bool,
    lock: Option<String>,
}

/// One held lock guard. Non-persistent guards (temporaries) die at the
/// end of the statement that created them; persistent guards
/// (let-bound) die at the end of their block or at `drop(var)`.
#[derive(Debug)]
struct Guard {
    id: String,
    var: Option<String>,
    persistent: bool,
}

struct FnAnalyzer<'a> {
    impl_type: Option<&'a str>,
    pragmas: &'a [Pragma],
    out: &'a mut FnSummary,
    used_pragmas: &'a mut BTreeSet<u32>,
    vars: BTreeMap<String, VarInfo>,
    guards: Vec<Guard>,
    catch: u32,
}

impl<'a> FnAnalyzer<'a> {
    fn seed_params(&mut self, params: &[Param]) {
        for (k, p) in params.iter().enumerate() {
            if let Some(name) = &p.name {
                let mut taint = TaintSet::new();
                taint.insert(Reason::Param(k as u32));
                let hash =
                    p.ty.as_ref().is_some_and(|t| t.head == "HashMap" || t.head == "HashSet");
                self.vars.insert(name.clone(), VarInfo { taint, hash, lock: None });
            }
        }
    }

    /// Whether an `allow(R11)` pragma justifies a panic source at
    /// `line`. Marks the pragma used.
    fn justified(&mut self, line: u32) -> bool {
        let mut hit = false;
        for p in self.pragmas {
            if p.suppresses("R11", line) {
                self.used_pragmas.insert(p.line);
                hit = true;
            }
        }
        hit
    }

    fn source(&mut self, kind: &str, line: u32, col: u32) -> Reason {
        Reason::Source { kind: kind.to_string(), line, col }
    }

    fn panic_site(&mut self, kind: &str, line: u32, col: u32) {
        if self.catch == 0 && !self.justified(line) {
            self.out.panics.push(PanicSite { kind: kind.to_string(), line, col });
        }
    }

    /// Record a lock acquisition: edges against every held guard, then
    /// a temporary guard for the remainder of the statement.
    fn acquire(&mut self, id: &str, line: u32, col: u32) {
        self.out.acquires.push(LockAcq { id: id.to_string(), line, col });
        for g in &self.guards {
            if g.id != id {
                self.out.lock_edges.push(LockEdge {
                    held: g.id.clone(),
                    acquired: id.to_string(),
                    line,
                    col,
                });
            }
        }
        self.guards.push(Guard { id: id.to_string(), var: None, persistent: false });
    }

    fn record_call(
        &mut self,
        name: &str,
        qualifier: Option<String>,
        is_method: bool,
        line: u32,
        col: u32,
        args: Vec<TaintSet>,
    ) -> u32 {
        let idx = self.out.calls.len() as u32;
        for g in &self.guards {
            self.out.held_calls.push(HeldCall { held: g.id.clone(), call: idx });
        }
        self.out.calls.push(CallSite {
            name: name.to_string(),
            qualifier,
            is_method,
            line,
            col,
            absorbed: self.catch > 0,
            args,
        });
        idx
    }

    /// Union a binding into the variable table. Writes union rather
    /// than replace so pass-1 loop-carried taint survives pass 2 and
    /// shadowing degrades conservatively.
    fn bind(&mut self, name: &str, val: &Val) {
        let e = self.vars.entry(name.to_string()).or_default();
        e.taint.extend(val.taint.iter().cloned());
        e.hash |= val.hash;
        if e.lock.is_none() {
            e.lock = val.lock.clone();
        }
    }

    fn bind_pat(&mut self, pat: &Pat, val: &Val) {
        if let Some(single) = &pat.single {
            self.bind(single, val);
            return;
        }
        // destructuring spreads the taint but not hash/lock identity
        let spread = Val::tainted(val.taint.clone());
        for name in &pat.names {
            self.bind(name, &spread);
        }
    }

    fn eval_block(&mut self, block: &Block) -> Val {
        let glen = self.guards.len();
        let mut last = Val::default();
        let n = block.stmts.len();
        for (i, stmt) in block.stmts.iter().enumerate() {
            let slen = self.guards.len();
            last = Val::default();
            match stmt {
                Stmt::Let(l) => {
                    let v = match &l.init {
                        Some(init) => {
                            let v = self.eval_expr(init);
                            // let-bound guard: promote the acquisition's
                            // temporary guard (the last one pushed while
                            // evaluating the initializer) to persistent
                            if is_direct_acq(init) {
                                if let Some(g) =
                                    self.guards[slen..].iter_mut().rev().find(|g| !g.persistent)
                                {
                                    g.persistent = true;
                                    g.var = l.pat.single.clone();
                                }
                            }
                            v
                        }
                        None => Val::default(),
                    };
                    let mut v = v;
                    if v.hash
                        || l.ty.as_ref().is_some_and(|t| t.head == "HashMap" || t.head == "HashSet")
                    {
                        v.hash = true;
                    }
                    self.bind_pat(&l.pat, &v);
                    if let Some(els) = &l.els {
                        self.eval_block(els);
                    }
                }
                Stmt::Expr { expr, semi } => {
                    let v = self.eval_expr(expr);
                    if !semi && i + 1 == n {
                        last = v; // tail expression: the block's value
                    }
                }
                Stmt::Item(_) => {} // nested items summarized separately
            }
            // temporaries acquired during this statement are released
            let mut j = slen;
            while j < self.guards.len() {
                if self.guards[j].persistent {
                    j += 1;
                } else {
                    self.guards.remove(j);
                }
            }
        }
        self.guards.truncate(glen);
        last
    }

    fn eval_expr(&mut self, expr: &Expr) -> Val {
        match &expr.kind {
            ExprKind::Lit | ExprKind::StrLit(_) | ExprKind::Continue | ExprKind::Opaque => {
                Val::default()
            }
            ExprKind::Path(segs) => {
                if let [name] = segs.as_slice() {
                    if let Some(v) = self.vars.get(name) {
                        return Val { taint: v.taint.clone(), hash: v.hash, lock: v.lock.clone() };
                    }
                }
                Val::default()
            }
            ExprKind::MethodCall { recv, name, args, name_line, name_col } => {
                self.eval_method(recv, name, args, *name_line, *name_col)
            }
            ExprKind::Call { callee, args } => self.eval_call(expr, callee, args),
            ExprKind::MacroCall { path, args } => {
                let empty = String::new();
                let last = path.last().unwrap_or(&empty);
                if matches!(last.as_str(), "panic" | "unreachable" | "todo" | "unimplemented") {
                    self.panic_site(&format!("{last}!"), expr.line, expr.col);
                }
                let mut taint = TaintSet::new();
                for a in args {
                    taint.extend(self.eval_expr(a).taint);
                }
                Val::tainted(taint)
            }
            ExprKind::Field { recv, name } => {
                let rv = self.eval_expr(recv);
                let lock = match (&recv.kind, &rv.lock) {
                    // `self.field` names a lockable slot on the impl type
                    (ExprKind::Path(segs), _) if segs.as_slice() == ["self"] => {
                        Some(format!("{}.{}", self.impl_type.unwrap_or("<free>"), name))
                    }
                    // deeper chains extend the id (`self.inner.cache`)
                    (_, Some(base)) => Some(format!("{base}.{name}")),
                    _ => None,
                };
                Val { taint: rv.taint, hash: false, lock }
            }
            ExprKind::Index { recv, index, bracket_line, bracket_col } => {
                let rv = self.eval_expr(recv);
                let iv = self.eval_expr(index);
                self.panic_site("index", *bracket_line, *bracket_col);
                let mut taint = rv.taint;
                taint.extend(iv.taint);
                // indexing a lock array keeps the array's lock id
                Val { taint, hash: false, lock: rv.lock }
            }
            ExprKind::Unary { expr } | ExprKind::Ref { expr } => self.eval_expr(expr),
            ExprKind::Try { expr } | ExprKind::Cast { expr } => {
                Val::tainted(self.eval_expr(expr).taint)
            }
            ExprKind::Binary { lhs, rhs } => {
                let mut taint = self.eval_expr(lhs).taint;
                taint.extend(self.eval_expr(rhs).taint);
                Val::tainted(taint)
            }
            ExprKind::Assign { lhs, rhs } => {
                self.eval_expr(lhs);
                let rv = self.eval_expr(rhs);
                if let ExprKind::Path(segs) = &lhs.kind {
                    if let [name] = segs.as_slice() {
                        self.bind(name, &rv);
                    }
                }
                Val::default()
            }
            ExprKind::If { pat, cond, then, els } => {
                // if-let condition temporaries (a lock read in the
                // scrutinee) live through the body: guards acquired in
                // `cond` stay active until the enclosing statement ends
                let cv = self.eval_expr(cond);
                if let Some(p) = pat {
                    self.bind_pat(p, &Val::tainted(cv.taint.clone()));
                }
                let mut taint = self.eval_block(then).taint;
                if let Some(e) = els {
                    taint.extend(self.eval_expr(e).taint);
                }
                Val::tainted(taint)
            }
            ExprKind::Match { scrutinee, arms } => {
                let sv = self.eval_expr(scrutinee);
                let mut taint = TaintSet::new();
                for arm in arms {
                    self.bind_pat(&arm.pat, &Val::tainted(sv.taint.clone()));
                    if let Some(g) = &arm.guard {
                        self.eval_expr(g);
                    }
                    taint.extend(self.eval_expr(&arm.body).taint);
                }
                Val::tainted(taint)
            }
            ExprKind::While { pat, cond, body } => {
                let cv = self.eval_expr(cond);
                if let Some(p) = pat {
                    self.bind_pat(p, &Val::tainted(cv.taint));
                }
                self.eval_block(body);
                Val::default()
            }
            ExprKind::For { pat, iter, body } => {
                let iv = self.eval_expr(iter);
                let mut bindv = Val::tainted(iv.taint.clone());
                if iv.hash {
                    // iterating a hash container: order nondeterminism
                    bindv.taint.insert(self.source("hash-map iteration", iter.line, iter.col));
                }
                // `for shard in &self.shards`: elements alias the slot
                bindv.lock = iv.lock;
                self.bind_pat(pat, &bindv);
                self.eval_block(body);
                Val::default()
            }
            ExprKind::Loop { body } => {
                self.eval_block(body);
                Val::default()
            }
            ExprKind::Block(b) => self.eval_block(b),
            ExprKind::Closure { params, body } => {
                // closure bodies run "inline": their sites belong to the
                // enclosing function, and their value taints the closure
                for p in params {
                    self.vars.entry(p.clone()).or_default();
                }
                Val::tainted(self.eval_expr(body).taint)
            }
            ExprKind::StructLit { fields, .. } => {
                let mut taint = TaintSet::new();
                for f in fields {
                    taint.extend(self.eval_expr(f).taint);
                }
                Val::tainted(taint)
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                let mut taint = TaintSet::new();
                for e in es {
                    taint.extend(self.eval_expr(e).taint);
                }
                Val::tainted(taint)
            }
            ExprKind::Range { lo, hi } => {
                let mut taint = TaintSet::new();
                if let Some(e) = lo {
                    taint.extend(self.eval_expr(e).taint);
                }
                if let Some(e) = hi {
                    taint.extend(self.eval_expr(e).taint);
                }
                Val::tainted(taint)
            }
            ExprKind::Return(e) | ExprKind::Break(e) => {
                if let Some(e) = e {
                    let v = self.eval_expr(e);
                    if matches!(expr.kind, ExprKind::Return(_)) {
                        self.out.ret.extend(v.taint);
                    }
                }
                Val::default()
            }
        }
    }

    fn eval_method(
        &mut self,
        recv: &Expr,
        name: &str,
        args: &[Expr],
        name_line: u32,
        name_col: u32,
    ) -> Val {
        let rv = self.eval_expr(recv);
        // zero-argument read()/write()/lock(): a lock acquisition when
        // the receiver names a lockable slot
        if args.is_empty() && LOCK_METHODS.contains(&name) {
            if let Some(id) = rv.lock.clone() {
                self.acquire(&id, name_line, name_col);
                return Val::tainted(rv.taint);
            }
        }
        let avals: Vec<TaintSet> = args.iter().map(|a| self.eval_expr(a).taint).collect();
        let mut taint = rv.taint.clone();
        for a in &avals {
            taint.extend(a.iter().cloned());
        }
        match name {
            "unwrap" if args.is_empty() => self.panic_site("unwrap", name_line, name_col),
            "expect" => {
                let written = args
                    .first()
                    .and_then(|a| a.as_str_lit())
                    .is_some_and(|m| m.len() >= MIN_JUSTIFICATION);
                if !written {
                    self.panic_site("expect", name_line, name_col);
                }
            }
            "elapsed" if args.is_empty() => {
                taint.insert(self.source("wall-clock elapsed()", name_line, name_col));
            }
            _ => {}
        }
        // atomics: any Relaxed-ordering operand taints the result
        if args
            .iter()
            .any(|a| a.as_path().is_some_and(|segs| segs.last().is_some_and(|s| s == "Relaxed")))
        {
            taint.insert(self.source("Ordering::Relaxed", name_line, name_col));
        }
        if rv.hash && HASH_ITER_METHODS.contains(&name) {
            taint.insert(self.source("hash-map iteration", name_line, name_col));
        }
        let mut call_args = vec![rv.taint.clone()];
        call_args.extend(avals);
        let idx = self.record_call(name, None, true, name_line, name_col, call_args);
        taint.insert(Reason::Call(idx));
        Val {
            taint,
            hash: rv.hash && matches!(name, "clone"),
            // element accessors keep the lock-alias channel alive:
            // `self.shards.get(i)` still aliases the `shards` slot, so a
            // later `.write()` on the result is an acquisition of it
            lock: if matches!(
                name,
                "clone"
                    | "get"
                    | "get_mut"
                    | "expect"
                    | "unwrap"
                    | "first"
                    | "last"
                    | "as_ref"
                    | "as_mut"
            ) {
                rv.lock
            } else {
                None
            },
        }
    }

    fn eval_call(&mut self, expr: &Expr, callee: &Expr, args: &[Expr]) -> Val {
        let Some(segs) = callee.as_path().map(|s| s.to_vec()) else {
            // closure/fn-pointer call: evaluate and propagate
            let mut taint = self.eval_expr(callee).taint;
            for a in args {
                taint.extend(self.eval_expr(a).taint);
            }
            return Val::tainted(taint);
        };
        let name = segs.last().cloned().unwrap_or_default();
        let qual = if segs.len() >= 2 {
            let q = &segs[segs.len() - 2];
            if matches!(q.as_str(), "crate" | "super" | "self" | "std") {
                None
            } else {
                Some(q.clone())
            }
        } else {
            None
        };
        // wall-clock sources
        if name == "now" && matches!(qual.as_deref(), Some("Instant") | Some("SystemTime")) {
            let mut taint = TaintSet::new();
            taint.insert(self.source(
                &format!("{}::now()", qual.as_deref().unwrap_or("")),
                expr.line,
                expr.col,
            ));
            return Val::tainted(taint);
        }
        // hash-container constructors
        if matches!(qual.as_deref(), Some("HashMap") | Some("HashSet"))
            && matches!(name.as_str(), "new" | "with_capacity" | "from" | "default")
        {
            for a in args {
                self.eval_expr(a);
            }
            return Val { taint: TaintSet::new(), hash: true, lock: None };
        }
        // drop(guard) releases a let-bound guard early
        if name == "drop" && args.len() == 1 {
            if let Some([var]) = args[0].as_path() {
                let var = var.clone();
                self.guards.retain(|g| g.var.as_deref() != Some(var.as_str()));
                return Val::default();
            }
        }
        // catch_unwind absorbs panics from everything inside its args
        if name == "catch_unwind" {
            self.catch += 1;
            let mut taint = TaintSet::new();
            for a in args {
                taint.extend(self.eval_expr(a).taint);
            }
            self.catch -= 1;
            return Val::tainted(taint);
        }
        let avals: Vec<TaintSet> = args.iter().map(|a| self.eval_expr(a).taint).collect();
        let mut taint = TaintSet::new();
        for a in &avals {
            taint.extend(a.iter().cloned());
        }
        // `det::` sink: arguments must be deterministic
        if qual.as_deref() == Some("det") && DET_SINKS.contains(&name.as_str()) {
            self.out.sinks.push(SinkSite {
                callee: format!("det::{name}"),
                line: expr.line,
                col: expr.col,
                reasons: taint.clone(),
            });
        }
        // a call through a let-bound name (closure or fn-pointer variable)
        // can never resolve to a workspace item — the closure body's
        // effects were already recorded when its definition was walked.
        // The sentinel qualifier matches no module, so resolution skips it.
        let qual = if qual.is_none() && self.vars.contains_key(&name) {
            Some("<local>".to_string())
        } else {
            qual
        };
        let idx = self.record_call(&name, qual, false, expr.line, expr.col, avals);
        taint.insert(Reason::Call(idx));
        Val::tainted(taint)
    }
}

/// Whether `init` is itself a direct lock acquisition (`….read()` /
/// `….write()` / `….lock()` with no arguments) — the let-bound guard
/// shape. The analyzer pushes the matching temporary guard while
/// evaluating `init`; the caller promotes it by position.
fn is_direct_acq(init: &Expr) -> bool {
    matches!(
        &init.kind,
        ExprKind::MethodCall { name, args, .. }
            if args.is_empty() && LOCK_METHODS.contains(&name.as_str())
    )
}
