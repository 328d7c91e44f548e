//! Greedy(m, k) — the search scheme used by both Candidate Selection and
//! Enumeration (§2.2, citing [8]).
//!
//! Greedy(m, k) first finds the *optimal* subset of up to `m` structures
//! by exhaustive enumeration, then extends it greedily one structure at a
//! time up to `k` total. The guarantee: optimal for answer sizes ≤ m, and
//! in practice very close to optimal beyond because the seed avoids the
//! classic greedy trap of a locally-good-but-globally-poor first pick.
//!
//! Both phases are embarrassingly parallel — Phase 1's subsets are
//! independent, and within one Phase-2 round every extension of the
//! incumbent is independent — so both fan out across `workers` threads.
//! Determinism is preserved by construction: work is generated in one
//! canonical order (subsets size-ascending then lexicographic; round
//! extensions by candidate index) and the winner of each reduction is the
//! minimum by `(cost, position)`, so the earliest-generated entrant wins
//! cost ties exactly as a serial left-to-right scan would. Parallel and
//! serial runs therefore return bit-identical outcomes.
//!
//! Two robustness layers sit on top (anytime tuning):
//!
//! * **Panic isolation** — every evaluation runs under `catch_unwind`
//!   (on the serial path too) and is retried until it comes back clean,
//!   up to a fixed bound; transient panics fire once per call site, and
//!   a workload-level evaluation crosses one site per statement, so each
//!   retry clears at least one site and the evaluation converges to the
//!   cost the clean schedule would have seen — the recommendation is
//!   byte-identical with and without the mid-run rescue. A permanently
//!   poisonous evaluation exhausts the bound and is skipped as
//!   infeasible instead of killing the session.
//! * **Deterministic budgets** — [`greedy_mk`] charges its
//!   [`SessionControl`] one unit per evaluation, granted in
//!   canonical-prefix batches at serial coordination points. Exhaustion
//!   returns the best-so-far outcome plus a [`GreedySnapshot`] cursor
//!   from which a later call continues to the byte-identical final
//!   answer.
//!
//! Between two granted batches no evaluation is in flight. At two kinds
//! of such *serial points* [`greedy_mk`] tells its caller's hook
//! ([`SerialPoint`]), so that what an evaluator fixes there depends on no
//! worker:
//!
//! 1. **Singletons** — once per run, when Phase 1 has evaluated every
//!    singleton and no larger subset (or resumes past that point).
//!    Enumeration installs each candidate's *atom* there.
//! 2. **Incumbent** — before every Phase-2 round, with the incumbent it
//!    extends. Enumeration fixes the incumbent's atom there.
//!
//! Phase 1 also has *ceiling points*: the singletons' position and every
//! [`CEILING_STRIDE`]-th position after it. At each one the scan reduces
//! the round's front, and every later position up to the next one is
//! evaluated against that front's cost, its *ceiling*: a set that provably
//! cannot cost less may be skipped as infeasible, since at a later
//! position it could not displace the front. The ceiling of a position is
//! a function of the positions before its ceiling point alone, so it does
//! not depend on the worker count, the grant size, a cut or a resume.
//!
//! There is one body, [`greedy_mk`], and two callers. Enumeration runs it
//! under the session's control, so every evaluation is a budget unit and
//! the run is resumable. Candidate Selection runs it once per statement
//! under a control *detached* from the session's (no budget, the
//! session's cancel flag), because that stage charges its budget at
//! block boundaries, not per evaluation.

use crate::control::{SessionControl, StopReason};
use crate::det;
use crate::obs::{SessionObserver, Span, SpanName};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluate a subset against a ceiling. `None` means the subset is
/// infeasible (e.g. over the storage bound), or that it provably costs no
/// less than the ceiling, when there is one; otherwise the value is a cost
/// (lower = better).
///
/// `Sync` because evaluations fan out across worker threads.
pub type EvalFn<'e, S> = dyn Fn(&[&S], Option<f64>) -> Option<f64> + Sync + 'e;

/// Phase-1 positions from one ceiling point to the next after the first,
/// which is the singletons' position: how often the scan reduces its front
/// to tighten the ceiling. A constant, so that a position's ceiling is
/// the same in every run.
pub const CEILING_STRIDE: usize = 256;

/// The first ceiling point after `pos`, given the first one, `first`.
fn next_ceiling_point(first: usize, pos: usize) -> usize {
    match pos.checked_sub(first) {
        None => first,
        Some(past) => first + (past / CEILING_STRIDE + 1) * CEILING_STRIDE,
    }
}

/// A serial point [`greedy_mk`] tells its hook about. No evaluation is in
/// flight at any of them, so what an evaluator fixes there (enumeration's
/// atoms) depends on no worker.
#[derive(Debug)]
pub enum SerialPoint<'a, S> {
    /// Phase 1 has evaluated every singleton and no larger subset yet.
    Singletons,
    /// The incumbent the next Phase-2 round extends.
    Incumbent(&'a [&'a S]),
}

impl<S> SerialPoint<'_, S> {
    /// The point's place in its run: 1 for the singletons, then 2 plus
    /// the incumbent's size before each Phase-2 round (it grows by one a
    /// round). It rises from each point of a run to the next, and a point
    /// a resumed run hears again has the ordinal it had the first time,
    /// so a count kept by ordinal is the same however the run was cut.
    pub fn ordinal(&self) -> u32 {
        match self {
            SerialPoint::Singletons => 1,
            SerialPoint::Incumbent(set) => 2 + set.len() as u32,
        }
    }
}

/// Told each [`SerialPoint`] as the run reaches it.
pub type SerialFn<'e, S> = dyn Fn(SerialPoint<'_, S>) + 'e;

/// Result of a Greedy(m, k) run.
#[derive(Debug, Clone)]
pub struct GreedyOutcome<S> {
    /// Chosen structures, in pick order.
    pub chosen: Vec<S>,
    /// Cost of the chosen set (the empty set's cost if nothing helps).
    pub cost: f64,
    /// Evaluations granted (see [`greedy_mk`] for the counting rule).
    pub evaluations: usize,
    /// Panics caught and rescued by re-running the evaluation (0 in a
    /// healthy run).
    pub worker_restarts: usize,
}

/// Find the minimum of `f` over `0..n` by `(cost, position)`.
///
/// Positions where `f` returns `None` (infeasible) are skipped. The
/// cancel flag is polled before each evaluation; once it is up, remaining
/// positions are abandoned (each worker stops where it is). Position
/// tie-breaking makes the reduction independent of thread count and
/// interleaving: the result for a completed run is identical for any
/// `workers`.
///
/// Every evaluation is individually isolated: each panic at a position
/// is noted in `restarts` and the position retried, up to
/// [`crate::control::MAX_PANIC_RETRIES`] times. A *transient* panic
/// (fault injection, a recovering server — once per call site) then
/// yields the cost the clean schedule would have seen, so the reduction
/// — and hence the recommendation — is byte-identical with and without
/// the mid-run rescue; only a position that never comes back clean
/// degrades to "infeasible". The guard is identical on the serial and
/// parallel paths, so no panic escapes at any worker count.
fn par_min(
    n: usize,
    workers: usize,
    control: &SessionControl,
    restarts: &AtomicUsize,
    f: &(dyn Fn(usize) -> Option<f64> + Sync),
) -> Option<(usize, f64)> {
    let scan = |positions: &mut dyn Iterator<Item = usize>| -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for pos in positions {
            if control.is_cancelled() {
                break;
            }
            let outcome = crate::control::isolated_with(
                &|| {
                    restarts.fetch_add(1, Ordering::SeqCst);
                },
                || f(pos),
            );
            if let Some(Some(cost)) = outcome {
                best = det::min_by_cost_position((pos, cost), best);
            }
        }
        best
    };
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return scan(&mut (0..n));
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| scan(&mut ((w..n).step_by(workers)))))
                })
            })
            .collect();
        let mut best: Option<(usize, f64)> = None;
        for (w, h) in handles.into_iter().enumerate() {
            let local = match h.join() {
                Ok(Ok(result)) => result,
                // out-of-band: per-position guards make a worker-level
                // panic (iterator machinery, thread spawn) vanishingly
                // rare, but if it happens the slice is redone serially
                _ => {
                    restarts.fetch_add(1, Ordering::SeqCst);
                    scan(&mut ((w..n).step_by(workers)))
                }
            };
            if let Some(local) = local {
                best = det::min_by_cost_position(local, best);
            }
        }
        best
    })
}

/// `n` choose `k`, saturating at `usize::MAX`: in `u64` while the
/// partial products fit, then in `u128`.
fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    // each partial product is itself a binomial, so every division is exact
    let mut c: u64 = 1;
    for i in 0..k {
        match c.checked_mul((n - i) as u64) {
            Some(product) => c = product / (i as u64 + 1),
            None => {
                let wide = (i..k).fold(u128::from(c), |c, j| {
                    c.saturating_mul((n - j) as u128) / (j as u128 + 1)
                });
                return usize::try_from(wide).unwrap_or(usize::MAX);
            }
        }
    }
    usize::try_from(c).unwrap_or(usize::MAX)
}

/// How many index subsets of `0..n` have size 1..=m: the length of the
/// canonical evaluation order [`subset_at`] walks.
fn subset_count(n: usize, m: usize) -> usize {
    (1..=m.min(n)).fold(0usize, |total, size| total.saturating_add(binomial(n, size)))
}

/// The subset at `pos` in the canonical evaluation order — index subsets
/// of `0..n` with size 1..=m, size-ascending and lexicographic within
/// each size — worked out from `pos` alone, so no run lists the order.
/// `None` past its end. Each slot's element is found by a binary search,
/// so a position costs O(m² log n) multiplications, not O(n) divisions.
fn subset_at(n: usize, m: usize, mut pos: usize) -> Option<Vec<usize>> {
    for size in 1..=m.min(n) {
        let count = binomial(n, size);
        if pos >= count {
            pos -= count;
            continue;
        }
        // the `pos`-th `size`-subset: at each slot, skip every smallest
        // element whose subsets all come before `pos`. The subsets whose
        // slot holds an element in `start..e` number C(n − start, after + 1)
        // − C(n − e, after + 1), so the slot holds the largest `e` with
        // fewer than `pos + 1` of them before it
        let mut subset = Vec::with_capacity(size);
        let mut start = 0;
        for slot in 0..size {
            let after = size - slot - 1;
            let all = binomial(n - start, after + 1);
            let before = |e: usize| all - binomial(n - e, after + 1);
            // `before(start)` is 0 ≤ pos; `before(n − after)` is `all` > pos
            let (mut lo, mut hi) = (start, n - after);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if before(mid) <= pos {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            pos -= before(lo);
            subset.push(lo);
            start = lo + 1;
        }
        return Some(subset);
    }
    None
}

/// Where an interrupted Greedy(m, k) run stopped, in canonical-order
/// coordinates that a resumed run can re-derive.
#[derive(Debug, Clone, PartialEq)]
pub enum GreedyCursor {
    /// Mid Phase 1: `next` is a position in the canonical subset order;
    /// `round_best` is the `(position, cost)` front over subsets
    /// `0..next` (not yet adopted — adoption happens when the phase
    /// completes).
    Phase1 {
        /// Next canonical subset position to evaluate.
        next: usize,
        /// Best `(position, cost)` seen so far in the phase.
        round_best: Option<(usize, f64)>,
        /// The front's cost at the last ceiling point at or before `next`,
        /// which positions up to the next ceiling point are evaluated against;
        /// `None` before the first, or when the cursor did not carry it
        /// (the run resumed then evaluates every set until the next one).
        ceiling: Option<f64>,
    },
    /// Mid a Phase-2 round: `next` indexes the round's `remaining` list
    /// (recomputed deterministically from the adopted set on resume).
    Phase2 {
        /// Next position in the round's `remaining` list.
        next: usize,
        /// Best `(position, cost)` seen so far in the round.
        round_best: Option<(usize, f64)>,
    },
}

/// Complete state of an interrupted Greedy(m, k) run: the adopted
/// incumbent plus the in-flight round's cursor. Resuming from this with
/// the same candidates and evaluator reproduces the uninterrupted run's
/// answer bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedySnapshot {
    /// Adopted candidate indexes, in pick order.
    pub best_set: Vec<usize>,
    /// Cost of the adopted set.
    pub best_cost: f64,
    /// Evaluations performed so far (across all prior runs).
    pub evaluations: usize,
    /// Where the in-flight round stopped.
    pub cursor: GreedyCursor,
}

impl GreedySnapshot {
    /// The state of a run that has not started yet.
    pub fn fresh(base_cost: f64) -> Self {
        GreedySnapshot {
            best_set: Vec::new(),
            best_cost: base_cost,
            evaluations: 0,
            cursor: GreedyCursor::Phase1 { next: 0, round_best: None, ceiling: None },
        }
    }
}

/// Outcome of a budget-aware Greedy(m, k) run: the (possibly best-so-far)
/// outcome, plus — when interrupted — the reason and a resume snapshot.
#[derive(Debug, Clone)]
pub struct GreedyRun<S> {
    /// Best selection found, whether or not the run completed.
    pub outcome: GreedyOutcome<S>,
    /// `Some` when the run stopped early (budget or cancellation).
    pub interrupted: Option<(StopReason, GreedySnapshot)>,
}

/// Run Greedy(m, k) over `candidates`, fanning evaluations out over
/// `workers` threads (1 = fully serial, same result either way).
///
/// `base_cost` is the cost of the empty selection; a subset is only ever
/// adopted if it strictly improves on the incumbent.
///
/// Each evaluation costs one unit of `control`'s budget. Units are
/// granted in canonical-prefix batches from this (serial) coordination
/// point, so a given budget always cuts the scan at the same position
/// regardless of worker count. On exhaustion or cancellation the run
/// returns its best-so-far outcome — if the in-flight round's front
/// already improves on the incumbent it is included, since it is a valid
/// selection — plus a [`GreedySnapshot`]; passing that snapshot back as
/// `resume` (with more budget) continues the scan exactly where it
/// stopped and yields the byte-identical uninterrupted answer.
///
/// **Counting rule:** `evaluations` is the sum of the batches granted,
/// not of the positions the workers got to. The two differ only when a
/// cancellation lands mid-batch, where the granted figure is the one
/// that does not depend on thread interleaving.
///
/// `serial` hears the run's serial points, with no evaluation in flight:
///
/// 1. [`SerialPoint::Singletons`], once per run over a non-empty pool,
///    when Phase 1 has evaluated every singleton and before it evaluates
///    any larger subset — or, when `m` is 1, as Phase 1 ends. A granted
///    batch that straddles that point is scanned in two passes, up to it
///    and on from it, but granted once, so budgets, cut positions and
///    `evaluations` do not move. A run resumed past the singletons hears
///    it before it evaluates anything; a cancel raised before the point
///    silences it.
/// 2. [`SerialPoint::Incumbent`] before every Phase-2 round, with the
///    incumbent the round extends: at Phase 2's start — after Phase 1,
///    or on resuming a snapshot taken in Phase 2 — and after each
///    adoption. That is every point at which the incumbent changes.
///
/// Phase 1 is scanned in passes that end at its ceiling points (see the
/// module docs) and at the batches' ends, and each position past the
/// first ceiling point is evaluated against its ceiling; Phase 2 has none.
/// A set skipped against its ceiling is granted and counted like any
/// other.
///
/// The two phases are wrapped in `greedyPhase1` / `greedyPhase2` spans so
/// a recording observer can attribute wall time and evaluation deltas to
/// each. The spans are pure instrumentation — the search, budget ledger,
/// and returned outcome are byte-identical under any observer.
#[allow(clippy::too_many_arguments)] // the session's full budget context
pub fn greedy_mk<S: Clone + Sync>(
    candidates: &[S],
    base_cost: f64,
    m: usize,
    k: usize,
    workers: usize,
    eval: &EvalFn<'_, S>,
    serial: &SerialFn<'_, S>,
    control: &SessionControl,
    resume: Option<GreedySnapshot>,
    obs: &dyn SessionObserver,
) -> GreedyRun<S> {
    let restarts = AtomicUsize::new(0);
    let mut snap = resume.unwrap_or_else(|| GreedySnapshot::fresh(base_cost));

    // Scan positions `next..n` of the current round in granted batches,
    // telling `serial` the singletons are done when the scan first gets
    // to position `*singletons` (then cleared), and reducing the front at
    // each ceiling point from `ceilings` on (Phase 1's, starting at the
    // singletons) into `*ceiling`. Returns the completed round's front, or
    // `Err(reason)` leaving the cursor fields updated for the snapshot.
    let run_round = |next: &mut usize,
                     round_best: &mut Option<(usize, f64)>,
                     ceiling: &mut Option<f64>,
                     n: usize,
                     evaluations: &mut usize,
                     singletons: &mut Option<usize>,
                     ceilings: Option<usize>,
                     f: &(dyn Fn(usize, Option<f64>) -> Option<f64> + Sync)|
     -> Result<(), StopReason> {
        while *next < n {
            let remaining = n - *next;
            let granted = control.grant(remaining as u64) as usize;
            if granted == 0 {
                return Err(control.stop().map_or(StopReason::BudgetExhausted, |r| r));
            }
            let end = *next + granted;
            let mut from = *next;
            while from < end {
                if singletons.is_some_and(|at| at <= from) && !control.is_cancelled() {
                    *singletons = None;
                    serial(SerialPoint::Singletons);
                }
                let point = ceilings.map(|first| next_ceiling_point(first, from));
                let to = point.map_or(end, |p| p.min(end));
                let against = *ceiling;
                let shifted = |p: usize| f(from + p, against);
                if let Some((pos, cost)) = par_min(to - from, workers, control, &restarts, &shifted)
                {
                    *round_best = det::min_by_cost_position((pos + from, cost), *round_best);
                }
                if point == Some(to) {
                    *ceiling = round_best.map(|(_, cost)| cost);
                }
                from = to;
            }
            *evaluations += granted;
            *next = end;
            if control.is_cancelled() {
                return Err(StopReason::Cancelled);
            }
        }
        if !control.is_cancelled() && singletons.take().is_some() {
            serial(SerialPoint::Singletons);
        }
        Ok(())
    };

    let members = |set: &[usize]| -> Vec<&S> {
        set.iter().map(|&i| candidates.get(i).expect("sets index the candidate list")).collect()
    };

    let interrupted = 'search: {
        // Phase 1: exhaustive over subsets of size 1..=m.
        if let GreedyCursor::Phase1 { mut next, mut round_best, mut ceiling } = snap.cursor.clone()
        {
            let _p1_span = Span::enter(obs, SpanName::GreedyPhase1);
            let subset = |pos| {
                subset_at(candidates.len(), m, pos).expect("positions lie in the subset order")
            };
            let eval_subset = |pos: usize, ceiling: Option<f64>| -> Option<f64> {
                eval(&members(&subset(pos)), ceiling)
            };
            // the first pair's position: one past the last singleton, and
            // the first ceiling point
            let mut singletons = (m > 0 && !candidates.is_empty()).then_some(candidates.len());
            let round = run_round(
                &mut next,
                &mut round_best,
                &mut ceiling,
                subset_count(candidates.len(), m),
                &mut snap.evaluations,
                &mut singletons,
                Some(candidates.len()),
                &eval_subset,
            );
            if let Err(reason) = round {
                snap.cursor = GreedyCursor::Phase1 { next, round_best, ceiling };
                break 'search Some(reason);
            }
            if let Some((pos, cost)) = round_best {
                if det::improves(cost, snap.best_cost) {
                    snap.best_cost = cost;
                    snap.best_set = subset(pos);
                }
            }
            snap.cursor = GreedyCursor::Phase2 { next: 0, round_best: None };
        }

        // Phase 2: greedy extension up to k, one winner per round.
        let _p2_span = Span::enter(obs, SpanName::GreedyPhase2);
        loop {
            if snap.best_set.len() >= k.max(m) {
                break 'search None;
            }
            let remaining: Vec<usize> =
                (0..candidates.len()).filter(|i| !snap.best_set.contains(i)).collect();
            if remaining.is_empty() {
                break 'search None;
            }
            let (mut next, mut round_best) = match snap.cursor {
                GreedyCursor::Phase2 { next, round_best } => (next, round_best),
                // unreachable by construction; treat as a fresh round
                GreedyCursor::Phase1 { .. } => (0, None),
            };
            let incumbent = members(&snap.best_set);
            serial(SerialPoint::Incumbent(&incumbent));
            let extensions = members(&remaining);
            let eval_extension = |pos: usize, _: Option<f64>| -> Option<f64> {
                let mut set = incumbent.clone();
                set.push(
                    extensions.get(pos).expect("run_round positions index the remaining list"),
                );
                eval(&set, None)
            };
            let round = run_round(
                &mut next,
                &mut round_best,
                &mut None,
                remaining.len(),
                &mut snap.evaluations,
                &mut None,
                None,
                &eval_extension,
            );
            if let Err(reason) = round {
                snap.cursor = GreedyCursor::Phase2 { next, round_best };
                break 'search Some(reason);
            }
            match round_best {
                Some((pos, cost)) if det::improves(cost, snap.best_cost) => {
                    snap.best_set.push(
                        *remaining.get(pos).expect("round_best positions index the remaining list"),
                    );
                    snap.best_cost = cost;
                    snap.cursor = GreedyCursor::Phase2 { next: 0, round_best: None };
                }
                _ => break 'search None, // no further improvement
            }
        }
    };

    // Best-so-far: on interruption, an in-flight round's front that
    // already improves on the incumbent is a valid selection — include
    // it in the outcome (the snapshot keeps the raw incumbent so resume
    // replays the round unchanged).
    let (mut out_set, mut out_cost) = (snap.best_set.clone(), snap.best_cost);
    if interrupted.is_some() {
        match snap.cursor {
            GreedyCursor::Phase1 { round_best: Some((pos, cost)), .. }
                if det::improves(cost, out_cost) =>
            {
                out_set = subset_at(candidates.len(), m, pos)
                    .expect("round_best positions lie in the subset order");
                out_cost = cost;
            }
            GreedyCursor::Phase2 { round_best: Some((pos, cost)), .. }
                if det::improves(cost, out_cost) =>
            {
                let remaining: Vec<usize> =
                    (0..candidates.len()).filter(|i| !out_set.contains(i)).collect();
                out_set.push(
                    *remaining.get(pos).expect("round_best positions index the remaining list"),
                );
                out_cost = cost;
            }
            _ => {}
        }
    }

    let worker_restarts = restarts.load(Ordering::SeqCst);
    control.note_worker_restarts(worker_restarts);
    GreedyRun {
        outcome: GreedyOutcome {
            chosen: out_set
                .iter()
                .map(|&i| {
                    candidates.get(i).expect("selected positions index the candidate list").clone()
                })
                .collect(),
            cost: out_cost,
            evaluations: snap.evaluations,
            worker_restarts,
        },
        interrupted: interrupted.map(|reason| (reason, snap)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NOOP;

    /// An unbudgeted, uncancelled run: it must complete.
    fn run<S: Clone + Sync>(
        candidates: &[S],
        base_cost: f64,
        m: usize,
        k: usize,
        workers: usize,
        eval: &EvalFn<'_, S>,
    ) -> GreedyOutcome<S> {
        let control = SessionControl::unlimited();
        let finished =
            greedy_mk(candidates, base_cost, m, k, workers, eval, &|_| {}, &control, None, &NOOP);
        assert!(finished.interrupted.is_none());
        assert_eq!(control.consumed() as usize, finished.outcome.evaluations);
        finished.outcome
    }

    /// The canonical order listed outright: every index subset of `0..n`
    /// with size 1..=m, size-ascending and lexicographic within each size.
    fn subsets_up_to(n: usize, m: usize) -> Vec<Vec<usize>> {
        fn extend(n: usize, size: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if cur.len() == size {
                out.push(cur.clone());
                return;
            }
            let start = cur.last().map_or(0, |&l| l + 1);
            for i in start..n {
                cur.push(i);
                extend(n, size, cur, out);
                cur.pop();
            }
        }
        let mut out = Vec::new();
        for size in 1..=m.min(n) {
            extend(n, size, &mut Vec::new(), &mut out);
        }
        out
    }

    /// The order `subset_at` walks, as far as it goes.
    fn unranked(n: usize, m: usize) -> Vec<Vec<usize>> {
        (0..).map_while(|pos| subset_at(n, m, pos)).collect()
    }

    #[test]
    fn canonical_subset_order() {
        assert_eq!(
            unranked(3, 2),
            vec![vec![0], vec![1], vec![2], vec![0, 1], vec![0, 2], vec![1, 2],]
        );
        assert!(unranked(0, 2).is_empty());
        assert_eq!(subset_count(0, 2), 0);
        assert_eq!(unranked(2, 5).len(), 3, "m is clamped to n");
        assert_eq!(subset_count(2, 5), 3);
    }

    #[test]
    fn unranking_lists_every_subset_in_canonical_order() {
        for n in 0..=12 {
            for m in 0..=3 {
                let listed = subsets_up_to(n, m);
                assert_eq!(unranked(n, m), listed, "n={n} m={m}");
                assert_eq!(subset_count(n, m), listed.len(), "n={n} m={m}");
            }
        }
        assert_eq!(subset_count(86, 2), 3741);
        assert_eq!(subset_at(86, 2, 3740), Some(vec![84, 85]));
        assert_eq!(subset_at(86, 2, 3741), None);
        assert_eq!(binomial(200, 3), 1_313_400);
    }

    /// The unranking before the binary search: each slot walked one
    /// element at a time. Kept as the oracle of [`subset_at`].
    fn walked_subset_at(n: usize, m: usize, mut pos: usize) -> Option<Vec<usize>> {
        for size in 1..=m.min(n) {
            let count = binomial(n, size);
            if pos >= count {
                pos -= count;
                continue;
            }
            let mut subset = Vec::with_capacity(size);
            let mut next = 0;
            for slot in 0..size {
                let after = size - slot - 1;
                while pos >= binomial(n - next - 1, after) {
                    pos -= binomial(n - next - 1, after);
                    next += 1;
                }
                subset.push(next);
                next += 1;
            }
            return Some(subset);
        }
        None
    }

    #[test]
    fn the_searched_unranking_equals_the_walked_one() {
        for n in 0..=64 {
            for m in 0..=3 {
                let count = subset_count(n, m);
                for pos in 0..=count {
                    assert_eq!(subset_at(n, m, pos), walked_subset_at(n, m, pos), "{n} {m} {pos}");
                }
            }
        }
        // far into a wide pool's pairs and triples
        for (n, m) in [(5_000, 2), (700, 3)] {
            let count = subset_count(n, m);
            for pos in (0..count).step_by(count / 997).chain([count - 1, count]) {
                assert_eq!(subset_at(n, m, pos), walked_subset_at(n, m, pos), "{n} {m} {pos}");
            }
        }
        assert_eq!(binomial(100_000, 3), 166_661_666_700_000);
        // its last partial product passes u64; the binomial does not
        let n = 1u128 << 22;
        let wide = n * (n - 1) / 2 * (n - 2) / 3;
        assert_eq!(binomial(1 << 22, 3) as u128, wide, "finished in u128");
    }

    /// The Phase-1 ceilings of a 40-candidate pool, by subset: the cost of
    /// the front over every position before the position's ceiling point,
    /// from an unpruned run's costs; `None` before the first point.
    fn expected_ceilings(
        n: usize,
        cost: &dyn Fn(&[&usize]) -> f64,
    ) -> std::collections::BTreeMap<Vec<usize>, Option<u64>> {
        let order = subsets_up_to(n, 2);
        let costs: Vec<f64> =
            order.iter().map(|set| cost(&set.iter().collect::<Vec<_>>())).collect();
        let front_before = |point: usize| {
            costs[..point]
                .iter()
                .enumerate()
                .fold(None, |best, (p, &c)| det::min_by_cost_position((p, c), best))
        };
        order
            .iter()
            .enumerate()
            .map(|(pos, set)| {
                let ceiling = (pos >= n).then(|| {
                    let point = n + (pos - n) / CEILING_STRIDE * CEILING_STRIDE;
                    front_before(point).map(|(_, c)| c.to_bits())
                });
                (set.clone(), ceiling.flatten())
            })
            .collect()
    }

    #[test]
    fn each_position_is_evaluated_against_the_front_at_its_ceiling_point() {
        let candidates: Vec<usize> = (0..40).collect();
        let cost = |set: &[&usize]| {
            let s: usize = set.iter().map(|&&i| i * i).sum();
            2000.0 - (37 * s % 311) as f64 - 40.0 * set.len() as f64
        };
        let want = expected_ceilings(candidates.len(), &cost);
        assert!(want.values().filter(|c| c.is_some()).count() > 700);
        // the ceiling each Phase-1 subset was evaluated against; a subset
        // that cannot undercut it is skipped
        let heard = parking_lot::Mutex::new(std::collections::BTreeMap::new());
        let skipped = AtomicUsize::new(0);
        let eval = |set: &[&usize], ceiling: Option<f64>| {
            let c = cost(set);
            let key: Vec<usize> = set.iter().map(|&&i| i).collect();
            if key.windows(2).all(|w| w[0] < w[1]) && key.len() <= 2 {
                heard.lock().insert(key, ceiling.map(f64::to_bits));
            }
            if ceiling.is_some_and(|ceiling| c >= ceiling) {
                skipped.fetch_add(1, Ordering::SeqCst);
                return None;
            }
            Some(c)
        };
        let unpruned = run(&candidates, 2000.0, 2, 6, 1, &|set, _| Some(cost(set)));
        let same = |got: &GreedyOutcome<usize>, context: &str| {
            assert_eq!(got.chosen, unpruned.chosen, "{context}");
            assert_eq!(got.cost.to_bits(), unpruned.cost.to_bits(), "{context}");
            assert_eq!(got.evaluations, unpruned.evaluations, "{context}");
        };
        let take = || std::mem::take(&mut *heard.lock());
        for workers in [1, 2, 4] {
            same(&run(&candidates, 2000.0, 2, 6, workers, &eval), &format!("workers={workers}"));
            // Phase 2 extends sorted pairs too, against no ceiling
            let got: std::collections::BTreeMap<_, _> =
                take().into_iter().filter(|(set, _)| want.contains_key(set)).collect();
            assert_eq!(got.len(), want.len(), "workers={workers}");
            for (set, ceiling) in &got {
                assert!(*ceiling == want[set] || set.len() > 1 && ceiling.is_none(), "{set:?}");
            }
        }
        assert!(skipped.load(Ordering::SeqCst) > 300, "{skipped:?}");
        // cut anywhere, resumed with the cursor's ceiling or without it
        let total = unpruned.evaluations as u64;
        for cut in (0..total).step_by(23) {
            for carried in [true, false] {
                let c1 = SessionControl::with_budget(cut);
                let first =
                    greedy_mk(&candidates, 2000.0, 2, 6, 1, &eval, &|_| {}, &c1, None, &NOOP);
                let (_, mut snap) = first.interrupted.expect("the budget interrupts");
                let resumed_at = match &mut snap.cursor {
                    GreedyCursor::Phase1 { next, ceiling, .. } => {
                        if !carried {
                            *ceiling = None;
                        }
                        Some(*next)
                    }
                    GreedyCursor::Phase2 { .. } => None,
                };
                let c2 = SessionControl::resumed(c1.consumed(), None).expect("valid resume");
                let second =
                    greedy_mk(&candidates, 2000.0, 2, 6, 3, &eval, &|_| {}, &c2, Some(snap), &NOOP);
                let context = format!("cut={cut} carried={carried}");
                same(&second.outcome, &context);
                // a set heard a ceiling other than its own only when the
                // cursor dropped it, and then none, until the next point
                let unheard_until = match resumed_at {
                    Some(next) if !carried && next >= candidates.len() => {
                        next_ceiling_point(candidates.len(), next)
                    }
                    _ => 0,
                };
                let order = subsets_up_to(candidates.len(), 2);
                for (set, ceiling) in take().into_iter().filter(|(set, _)| want.contains_key(set)) {
                    let pos = order.iter().position(|s| *s == set).expect("a Phase-1 subset");
                    let dropped = ceiling.is_none() && pos < unheard_until;
                    assert!(ceiling == want[&set] || dropped, "{context}: {set:?} at {pos}");
                }
            }
        }
    }

    #[test]
    fn finds_optimal_pair_that_greedy_misses() {
        // classic trap: {a} is the best singleton, but {b, c} together are
        // far better and exclude a. Greedy(1, k) would seed with `a`;
        // Greedy(2, k) finds {b, c} exhaustively.
        let candidates = ["a", "b", "c"];
        let cost = |set: &[&&str], _: Option<f64>| {
            let mut names: Vec<&str> = set.iter().map(|s| **s).collect();
            names.sort_unstable();
            Some(match names.as_slice() {
                [] => 100.0,
                ["a"] => 50.0,
                ["b"] | ["c"] => 80.0,
                ["b", "c"] => 10.0,
                // sets containing `a` alongside others stay mediocre
                _ => 49.0,
            })
        };

        let g1 = run(&candidates, 100.0, 1, 3, 1, &cost);
        let g2 = run(&candidates, 100.0, 2, 3, 1, &cost);
        assert!(g1.cost > g2.cost, "g1={} g2={}", g1.cost, g2.cost);
        assert_eq!(g2.cost, 10.0);
        let mut chosen = g2.chosen.clone();
        chosen.sort_unstable();
        assert_eq!(chosen, vec!["b", "c"]);
    }

    #[test]
    fn greedy_extension_beyond_m() {
        // additive benefits: every item shaves 10 off
        let candidates: Vec<usize> = (0..6).collect();
        let eval = |set: &[&usize], _: Option<f64>| Some(100.0 - 10.0 * set.len() as f64);
        let g = run(&candidates, 100.0, 2, 4, 1, &eval);
        assert_eq!(g.chosen.len(), 4);
        assert_eq!(g.cost, 60.0);
    }

    #[test]
    fn the_incumbent_hook_hears_every_incumbent_phase_two_extends() {
        let candidates: Vec<usize> = (0..7).collect();
        let eval = |set: &[&usize], _: Option<f64>| {
            let s: usize = set.iter().map(|&&i| i).sum();
            Some(500.0 - (11 * s % 53) as f64 - 60.0 * set.len() as f64)
        };
        let heard = parking_lot::Mutex::new(Vec::new());
        let hook = |point: SerialPoint<'_, usize>| {
            if let SerialPoint::Incumbent(set) = point {
                let set = set.iter().map(|&&i| i).collect::<Vec<_>>();
                heard.lock().push(set);
            }
        };
        let take = || std::mem::take(&mut *heard.lock());
        let full = greedy_mk(
            &candidates,
            500.0,
            2,
            5,
            3,
            &eval,
            &hook,
            &SessionControl::unlimited(),
            None,
            &NOOP,
        );
        // the Phase-1 seed, then the incumbent after each adoption that
        // leaves room for another round
        let chosen = full.outcome.chosen;
        assert_eq!(chosen.len(), 5);
        assert_eq!(take(), (2..5).map(|n| chosen[..n].to_vec()).collect::<Vec<_>>());

        // a run resumed in Phase 2 hears its incumbent before evaluating
        let total = full.outcome.evaluations as u64;
        for cut in 0..total {
            let c1 = SessionControl::with_budget(cut);
            let first = greedy_mk(&candidates, 500.0, 2, 5, 1, &eval, &hook, &c1, None, &NOOP);
            let (_, snap) = first.interrupted.expect("the budget interrupts");
            let before = take();
            let c2 =
                SessionControl::resumed(c1.consumed(), None).expect("unbudgeted resume is valid");
            let phase2 = matches!(snap.cursor, GreedyCursor::Phase2 { .. });
            let incumbent = snap.best_set.clone();
            greedy_mk(&candidates, 500.0, 2, 5, 2, &eval, &hook, &c2, Some(snap), &NOOP);
            let after = take();
            if phase2 {
                assert_eq!(after.first(), Some(&incumbent), "cut={cut}");
                assert_eq!(before.last(), Some(&incumbent), "cut={cut}");
            } else {
                assert!(before.is_empty(), "cut={cut}: still in Phase 1");
            }
            assert_eq!(after.last(), Some(&chosen[..4].to_vec()), "cut={cut}");
        }
    }

    /// What a run did, in order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Event {
        /// It evaluated a subset of this size.
        Evaluated(usize),
        /// Its hook heard the singletons were done.
        Singletons,
    }

    struct Log(parking_lot::Mutex<Vec<Event>>);

    impl Log {
        fn new() -> Self {
            Log(parking_lot::Mutex::new(Vec::new()))
        }

        fn push(&self, event: Event) {
            self.0.lock().push(event);
        }

        fn take(&self) -> Vec<Event> {
            std::mem::take(&mut *self.0.lock())
        }

        /// A run over `candidates` that logs here, under `control`.
        fn run(
            &self,
            candidates: &[usize],
            m: usize,
            workers: usize,
            control: &SessionControl,
            resume: Option<GreedySnapshot>,
        ) -> GreedyRun<usize> {
            let eval = |set: &[&usize], _: Option<f64>| {
                self.push(Event::Evaluated(set.len()));
                let s: usize = set.iter().map(|&&i| i).sum();
                Some(500.0 - (11 * s % 53) as f64 - 9.0 * set.len() as f64)
            };
            let hook = |point: SerialPoint<'_, usize>| {
                if let SerialPoint::Singletons = point {
                    self.push(Event::Singletons);
                }
            };
            greedy_mk(candidates, 500.0, m, 5, workers, &eval, &hook, control, resume, &NOOP)
        }
    }

    /// Where the hook heard the singletons were done in `log`, if it did,
    /// after checking it heard that once, after every singleton and before
    /// every larger subset.
    fn singletons_point(log: &[Event]) -> Option<usize> {
        let at = log.iter().position(|&e| e == Event::Singletons)?;
        let (before, after) = log.split_at(at);
        assert!(before.iter().all(|&e| e == Event::Evaluated(1)), "{log:?}");
        assert!(after.iter().skip(1).all(|&e| matches!(e, Event::Evaluated(2..))), "{log:?}");
        Some(at)
    }

    #[test]
    fn the_singletons_point_comes_once_between_the_last_singleton_and_the_first_pair() {
        let candidates: Vec<usize> = (0..9).collect();
        let log = Log::new();
        for workers in [1, 2, 4] {
            let run = log.run(&candidates, 2, workers, &SessionControl::unlimited(), None);
            assert!(run.interrupted.is_none());
            let events = log.take();
            // granted every pair, in one batch with the singletons
            assert_eq!(singletons_point(&events), Some(9), "workers={workers}");
        }
        // with m = 1 it comes as Phase 1 ends; over no candidates, never
        log.run(&candidates, 1, 2, &SessionControl::unlimited(), None);
        let events = log.take();
        assert_eq!(singletons_point(&events), Some(9), "m=1: {events:?}");
        log.run(&[], 2, 2, &SessionControl::unlimited(), None);
        assert!(log.take().is_empty());
    }

    #[test]
    fn a_run_cut_at_any_budget_hears_the_singletons_point_where_it_gets_past_it() {
        let candidates: Vec<usize> = (0..6).collect();
        let log = Log::new();
        let total = log.run(&candidates, 2, 1, &SessionControl::unlimited(), None).outcome;
        let total = total.evaluations;
        log.take();
        let (singles, phase1) = (candidates.len(), subset_count(6, 2));
        for cut in 0..total {
            let c1 = SessionControl::with_budget(cut as u64);
            let first = log.run(&candidates, 2, 2, &c1, None);
            let (_, snap) = first.interrupted.expect("the budget interrupts");
            let events = log.take();
            // the first run hears it once it has scanned a pair
            let want = (cut > singles).then_some(singles);
            assert_eq!(singletons_point(&events), want, "cut={cut}: {events:?}");
            // a run resumed among the singletons hears it where they end,
            // one resumed at or past the first pair first thing, and one
            // resumed in Phase 2 not at all
            let want = match snap.cursor {
                GreedyCursor::Phase1 { next, .. } => Some(singles.saturating_sub(next)),
                GreedyCursor::Phase2 { .. } => None,
            };
            let in_pairs = (singles..phase1).contains(&cut);
            assert_eq!(want == Some(0), in_pairs, "cut={cut}");
            let c2 =
                SessionControl::resumed(c1.consumed(), None).expect("unbudgeted resume is valid");
            let second = log.run(&candidates, 2, 4, &c2, Some(snap));
            assert!(second.interrupted.is_none(), "cut={cut}");
            let events = log.take();
            assert_eq!(singletons_point(&events), want, "cut={cut}: {events:?}");
        }
    }

    #[test]
    fn stops_when_no_improvement() {
        let candidates = ["x", "y"];
        let eval = |set: &[&&str], _: Option<f64>| {
            if set.len() == 1 && **set[0] == *"x" {
                Some(90.0)
            } else {
                Some(95.0)
            }
        };
        let g = run(&candidates, 100.0, 1, 5, 1, &eval);
        assert_eq!(g.chosen, vec!["x"]);
        assert_eq!(g.cost, 90.0);
    }

    #[test]
    fn infeasible_subsets_skipped() {
        // "y" is infeasible (over storage); the best feasible is "x"
        let candidates = ["x", "y"];
        let eval = |set: &[&&str], _: Option<f64>| {
            if set.iter().any(|s| ***s == *"y") {
                None
            } else {
                Some(50.0)
            }
        };
        let g = run(&candidates, 100.0, 2, 2, 1, &eval);
        assert_eq!(g.chosen, vec!["x"]);
    }

    #[test]
    fn empty_candidates() {
        let candidates: Vec<&str> = vec![];
        let eval = |_: &[&&str], _: Option<f64>| Some(1.0);
        let g = run(&candidates, 100.0, 2, 4, 1, &eval);
        assert!(g.chosen.is_empty());
        assert_eq!(g.cost, 100.0);
        assert_eq!(g.evaluations, 0);
    }

    #[test]
    fn stop_cuts_search_short() {
        // a cancel raised on the session's control mid-search reaches a
        // search running under a control detached from it, and nothing
        // that search is granted lands in the session's ledger
        let candidates: Vec<usize> = (0..100).collect();
        let session = SessionControl::unlimited();
        let cancel = session.cancel_handle();
        let calls = AtomicUsize::new(0);
        let eval = |_: &[&usize], _: Option<f64>| {
            if calls.fetch_add(1, Ordering::SeqCst) + 1 == 5 {
                cancel.cancel();
            }
            Some(100.0)
        };
        let run = greedy_mk(
            &candidates,
            100.0,
            2,
            4,
            1,
            &eval,
            &|_| {},
            &session.detached(),
            None,
            &NOOP,
        );
        assert!(matches!(run.interrupted, Some((StopReason::Cancelled, _))));
        assert_eq!(calls.load(Ordering::SeqCst), 5, "no evaluation starts after the cancel");
        // the counting rule: the whole granted batch, not the five scanned
        assert_eq!(run.outcome.evaluations, subset_count(100, 2));
        assert_eq!(session.consumed(), 0);
        assert_eq!(session.counters().snapshot(), crate::obs::CounterSet::new().snapshot());
    }

    #[test]
    fn never_adopts_non_improving_set() {
        let candidates = ["a"];
        let eval = |_: &[&&str], _: Option<f64>| Some(100.0); // equal, not better
        let g = run(&candidates, 100.0, 1, 1, 1, &eval);
        assert!(g.chosen.is_empty());
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        // a lumpy deterministic cost surface with deliberate ties: subsets
        // {1} and {2} tie, and several pairs tie — position tie-breaking
        // must pick the same winner at any worker count
        let candidates: Vec<usize> = (0..12).collect();
        let eval = |set: &[&usize], _: Option<f64>| {
            let s: usize = set.iter().map(|&&i| i).sum();
            let n = set.len();
            Some(1000.0 - (17 * s % 101) as f64 - 31.0 * n as f64)
        };
        let serial = run(&candidates, 1000.0, 2, 6, 1, &eval);
        for workers in [2, 4, 7] {
            let parallel = run(&candidates, 1000.0, 2, 6, workers, &eval);
            assert_eq!(serial.chosen, parallel.chosen, "workers={workers}");
            assert_eq!(serial.cost.to_bits(), parallel.cost.to_bits(), "workers={workers}");
            assert_eq!(serial.evaluations, parallel.evaluations, "workers={workers}");
        }
    }

    #[test]
    fn panicking_position_degrades_to_infeasible() {
        // position-dependent deterministic panic: the set containing
        // candidate 5 blows up. With panic isolation the result must be
        // byte-identical to the same surface with 5 marked infeasible.
        let candidates: Vec<usize> = (0..12).collect();
        let poisoned = |set: &[&usize], _: Option<f64>| {
            if set.iter().any(|&&i| i == 5) {
                panic!("deterministic poison");
            }
            let s: usize = set.iter().map(|&&i| i).sum();
            Some(1000.0 - (13 * s % 97) as f64 - 20.0 * set.len() as f64)
        };
        let infeasible = |set: &[&usize], _: Option<f64>| {
            if set.iter().any(|&&i| i == 5) {
                return None;
            }
            let s: usize = set.iter().map(|&&i| i).sum();
            Some(1000.0 - (13 * s % 97) as f64 - 20.0 * set.len() as f64)
        };
        let clean = run(&candidates, 1000.0, 2, 5, 1, &infeasible);
        for workers in [2, 4] {
            // silence the default panic hook for the deliberate panics
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let g = run(&candidates, 1000.0, 2, 5, workers, &poisoned);
            std::panic::set_hook(prev);
            assert!(g.worker_restarts > 0, "workers={workers}: no restart recorded");
            assert_eq!(clean.chosen, g.chosen, "workers={workers}");
            assert_eq!(clean.cost.to_bits(), g.cost.to_bits(), "workers={workers}");
        }
    }

    #[test]
    fn budget_interrupt_then_resume_is_byte_identical() {
        let candidates: Vec<usize> = (0..10).collect();
        let eval = |set: &[&usize], _: Option<f64>| {
            let s: usize = set.iter().map(|&&i| i).sum();
            Some(500.0 - (11 * s % 53) as f64 - 9.0 * set.len() as f64)
        };
        let full = {
            let control = SessionControl::unlimited();
            greedy_mk(&candidates, 500.0, 2, 5, 3, &eval, &|_| {}, &control, None, &NOOP)
        };
        assert!(full.interrupted.is_none());
        let total = full.outcome.evaluations as u64;

        // cut the run at every possible budget, resume with the rest, and
        // demand the byte-identical final answer at a different thread
        // count than the uninterrupted run
        for cut in 0..total {
            let c1 = SessionControl::with_budget(cut);
            let first = greedy_mk(&candidates, 500.0, 2, 5, 1, &eval, &|_| {}, &c1, None, &NOOP);
            let (reason, snap) = match first.interrupted {
                Some(pair) => pair,
                None => panic!("budget {cut} of {total} should interrupt"),
            };
            assert_eq!(reason, StopReason::BudgetExhausted);
            assert_eq!(snap.evaluations as u64, cut, "exactly the budget is spent");
            let c2 =
                SessionControl::resumed(c1.consumed(), None).expect("unbudgeted resume is valid");
            let second =
                greedy_mk(&candidates, 500.0, 2, 5, 4, &eval, &|_| {}, &c2, Some(snap), &NOOP);
            assert!(second.interrupted.is_none(), "cut={cut}");
            assert_eq!(full.outcome.chosen, second.outcome.chosen, "cut={cut}");
            assert_eq!(full.outcome.cost.to_bits(), second.outcome.cost.to_bits(), "cut={cut}");
            assert_eq!(full.outcome.evaluations, second.outcome.evaluations, "cut={cut}");
        }
    }

    #[test]
    fn interrupted_outcome_is_best_so_far_and_never_worse_than_base() {
        let candidates: Vec<usize> = (0..8).collect();
        let eval = |set: &[&usize], _: Option<f64>| {
            let s: usize = set.iter().map(|&&i| i).sum();
            Some(300.0 - (7 * s % 31) as f64 - 5.0 * set.len() as f64)
        };
        let full = {
            let control = SessionControl::unlimited();
            greedy_mk(&candidates, 300.0, 2, 4, 1, &eval, &|_| {}, &control, None, &NOOP)
        };
        let total = full.outcome.evaluations as u64;
        let mut last_cost = f64::INFINITY;
        for cut in 0..=total {
            let control = SessionControl::with_budget(cut);
            let run = greedy_mk(&candidates, 300.0, 2, 4, 1, &eval, &|_| {}, &control, None, &NOOP);
            assert!(run.outcome.cost <= 300.0, "cut={cut}: anytime outcome worse than base");
            // same budget twice ⇒ byte-identical
            let control2 = SessionControl::with_budget(cut);
            let rerun =
                greedy_mk(&candidates, 300.0, 2, 4, 2, &eval, &|_| {}, &control2, None, &NOOP);
            assert_eq!(run.outcome.chosen, rerun.outcome.chosen, "cut={cut}");
            assert_eq!(run.outcome.cost.to_bits(), rerun.outcome.cost.to_bits(), "cut={cut}");
            last_cost = last_cost.min(run.outcome.cost);
        }
        assert_eq!(last_cost.to_bits(), full.outcome.cost.to_bits());
    }

    #[test]
    fn cancellation_interrupts_with_reason() {
        let candidates: Vec<usize> = (0..6).collect();
        let eval = |set: &[&usize], _: Option<f64>| Some(100.0 - set.len() as f64);
        let control = SessionControl::unlimited();
        control.cancel_handle().cancel();
        let run = greedy_mk(&candidates, 100.0, 2, 4, 1, &eval, &|_| {}, &control, None, &NOOP);
        match run.interrupted {
            Some((StopReason::Cancelled, _)) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert!(run.outcome.chosen.is_empty());
        assert_eq!(run.outcome.cost, 100.0);
    }
}
