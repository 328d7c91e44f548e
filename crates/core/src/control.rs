//! Session control: deterministic work budgets and cooperative
//! cancellation (the anytime-tuning layer).
//!
//! The paper's DTA is explicitly interruptible — §2.1 lets the DBA bound
//! tuning time, and a production advisor must hand back its best-so-far
//! recommendation whenever asked. Wall-clock deadlines would make runs
//! irreproducible, so the budget here is counted in *work units*: one
//! unit is one configuration evaluation (a Greedy(m, k) `eval` call or a
//! pre-costing item). Units are granted and charged only at serial
//! coordination points — never from inside worker threads — so a given
//! budget always cuts the search at exactly the same place regardless of
//! thread count or interleaving. Same budget ⇒ byte-identical result.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::obs::{Counter, CounterSet};

/// Why a stage stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The deterministic work budget ran out.
    BudgetExhausted,
    /// The session's cancel flag was raised.
    Cancelled,
}

/// Pipeline stages, in execution order (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Per-statement base-configuration costing before column groups.
    PreCosting,
    /// §2.2 column-group restriction.
    ColumnGroups,
    /// §5.2 statistics creation.
    Statistics,
    /// §2.2 per-query candidate selection.
    CandidateSelection,
    /// §2.2 candidate merging.
    Merging,
    /// §2.2/§4 enumeration.
    Enumeration,
}

impl Stage {
    /// Stable identifier used by the XML checkpoint schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::PreCosting => "preCosting",
            Stage::ColumnGroups => "columnGroups",
            Stage::Statistics => "statistics",
            Stage::CandidateSelection => "candidateSelection",
            Stage::Merging => "merging",
            Stage::Enumeration => "enumeration",
        }
    }

    /// Inverse of [`Stage::as_str`]; `None` for unknown identifiers.
    pub fn parse(s: &str) -> Option<Stage> {
        Some(match s {
            "preCosting" => Stage::PreCosting,
            "columnGroups" => Stage::ColumnGroups,
            "statistics" => Stage::Statistics,
            "candidateSelection" => Stage::CandidateSelection,
            "merging" => Stage::Merging,
            "enumeration" => Stage::Enumeration,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a tuning session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// The pipeline ran to convergence.
    Complete,
    /// The work budget ran out in `stage`; the result is the best
    /// configuration found up to that point (valid, storage-bounded,
    /// never worse than the raw configuration).
    BudgetExhausted {
        /// Stage that was in progress when the budget ran out.
        stage: Stage,
    },
    /// The session was cancelled in `stage`; best-so-far, as above.
    Cancelled {
        /// Stage that was in progress when the cancel flag was seen.
        stage: Stage,
    },
}

impl std::fmt::Display for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completion::Complete => write!(f, "complete"),
            Completion::BudgetExhausted { stage } => {
                write!(f, "budget exhausted during {stage}")
            }
            Completion::Cancelled { stage } => write!(f, "cancelled during {stage}"),
        }
    }
}

/// A budget ledger was asked to enter an impossible state. Raised by
/// the resume/restore constructors instead of silently clamping, so a
/// corrupted checkpoint or manifest surfaces as a typed error rather
/// than an under-granted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlError {
    /// `consumed + extra` overflowed the u64 unit ledger.
    BudgetOverflow {
        /// Units already consumed at resume time.
        consumed: u64,
        /// Fresh units requested on top.
        extra: u64,
    },
    /// A total budget smaller than the units already consumed — the
    /// session would be silently under-granted (stopped before doing
    /// any work) instead of honouring the stated budget.
    BudgetBelowConsumed {
        /// Units already consumed at restore time.
        consumed: u64,
        /// The (too small) total budget requested.
        budget: u64,
    },
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::BudgetOverflow { consumed, extra } => {
                write!(f, "budget ledger overflow: {consumed} consumed + {extra} extra units")
            }
            ControlError::BudgetBelowConsumed { consumed, budget } => {
                write!(f, "budget {budget} is below the {consumed} units already consumed")
            }
        }
    }
}

impl std::error::Error for ControlError {}

/// Cloneable handle that lets another thread (a DBA console, a signal
/// handler) request cooperative cancellation of a running session.
#[derive(Clone)]
pub struct CancelHandle(Arc<AtomicBool>);

impl CancelHandle {
    /// Raise the cancel flag; the session stops at its next poll point.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Per-session control block: the work budget, the cancel flag, and the
/// session's deterministic counter set (panic rescues, budget ledger
/// telemetry — see [`crate::obs::CounterSet`]).
pub struct SessionControl {
    budget: Option<u64>,
    consumed: AtomicU64,
    cancel: Arc<AtomicBool>,
    counters: Arc<CounterSet>,
}

impl SessionControl {
    /// No budget: the session runs to convergence unless cancelled.
    pub fn unlimited() -> Self {
        SessionControl {
            budget: None,
            consumed: AtomicU64::new(0),
            cancel: Arc::new(AtomicBool::new(false)),
            counters: Arc::new(CounterSet::new()),
        }
    }

    /// A deterministic budget of `units` configuration evaluations.
    pub fn with_budget(units: u64) -> Self {
        SessionControl { budget: Some(units), ..SessionControl::unlimited() }
    }

    /// Rebuild control state for a resumed session: the checkpoint's
    /// consumed units plus `extra` fresh units of budget. Rejects
    /// ledgers that cannot be honoured (overflow) instead of silently
    /// under-granting.
    pub fn resumed(consumed: u64, extra: Option<u64>) -> Result<Self, ControlError> {
        let budget = match extra {
            None => None,
            Some(e) => Some(
                consumed
                    .checked_add(e)
                    .ok_or(ControlError::BudgetOverflow { consumed, extra: e })?,
            ),
        };
        SessionControl::restored(consumed, budget)
    }

    /// Rebuild control state from absolute ledger values: `consumed`
    /// units already spent against a total `budget`. Rejects
    /// `budget < consumed` — such a control would report exhaustion
    /// before granting a single unit, silently under-granting the
    /// session instead of honouring the stated budget.
    pub fn restored(consumed: u64, budget: Option<u64>) -> Result<Self, ControlError> {
        if let Some(b) = budget {
            if b < consumed {
                return Err(ControlError::BudgetBelowConsumed { consumed, budget: b });
            }
        }
        Ok(SessionControl {
            budget,
            consumed: AtomicU64::new(consumed),
            cancel: Arc::new(AtomicBool::new(false)),
            counters: Arc::new(CounterSet::new()),
        })
    }

    /// A control for a search nested inside this session whose work the
    /// caller charges itself: no budget, this session's cancel flag, and
    /// private counters, so nothing the nested search grants shows up in
    /// the session's ledger or tallies.
    pub(crate) fn detached(&self) -> Self {
        SessionControl { cancel: Arc::clone(&self.cancel), ..SessionControl::unlimited() }
    }

    /// Replace the budget of a live ledger, keeping what it has consumed,
    /// its cancel flag and its counters. Rejects a budget below the units
    /// already consumed, as [`SessionControl::restored`] does.
    pub fn set_budget(&mut self, budget: Option<u64>) -> Result<(), ControlError> {
        let consumed = self.consumed();
        if let Some(b) = budget.filter(|&b| b < consumed) {
            return Err(ControlError::BudgetBelowConsumed { consumed, budget: b });
        }
        self.budget = budget;
        Ok(())
    }

    /// The session's shared counter set — the single source of truth
    /// for deterministic telemetry ([`crate::obs::Counter`]).
    pub fn counters(&self) -> &Arc<CounterSet> {
        &self.counters
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Units consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::SeqCst)
    }

    /// A handle for requesting cancellation from another thread.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle(Arc::clone(&self.cancel))
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Unconditionally consume `units` (serial coordination points only;
    /// overshoot past the budget is recorded, not prevented).
    pub fn charge(&self, units: u64) {
        self.consumed.fetch_add(units, Ordering::SeqCst);
        self.counters.add(Counter::BudgetCharged, units);
    }

    /// Return `units` to the ledger (serial coordination points only).
    /// The supervisor grants each tenant a full quantum up front and
    /// refunds whatever the slice did not spend, so the fleet ledger
    /// tracks real work instead of pessimistic reservations.
    pub fn refund(&self, units: u64) {
        let mut cur = self.consumed.load(Ordering::SeqCst);
        loop {
            let next = cur.saturating_sub(units);
            match self.consumed.compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.counters.add(Counter::BudgetRefunded, units);
    }

    /// Units still grantable: `budget - consumed` (`None` when
    /// unbudgeted, i.e. unbounded).
    pub fn remaining(&self) -> Option<u64> {
        self.budget.map(|b| b.saturating_sub(self.consumed.load(Ordering::SeqCst)))
    }

    /// Grant up to `want` units against the remaining budget and consume
    /// the grant. Returns the number granted (`want` when unbudgeted,
    /// `0` when exhausted or cancelled). Must only be called from serial
    /// coordination points — the load/add pair is not atomic against a
    /// concurrent granter, and budget determinism depends on a single
    /// canonical grant order.
    pub fn grant(&self, want: u64) -> u64 {
        if self.is_cancelled() {
            return 0;
        }
        match self.budget {
            None => {
                // unbudgeted grants still feed the ledger, so an
                // unlimited run reports how much work a budget would need
                self.consumed.fetch_add(want, Ordering::SeqCst);
                self.counters.add(Counter::BudgetGranted, want);
                want
            }
            Some(b) => {
                let used = self.consumed.load(Ordering::SeqCst);
                let granted = want.min(b.saturating_sub(used));
                self.consumed.fetch_add(granted, Ordering::SeqCst);
                self.counters.add(Counter::BudgetGranted, granted);
                granted
            }
        }
    }

    /// Poll point: should the current stage stop, and why? Cancellation
    /// wins over budget exhaustion when both hold.
    pub fn stop(&self) -> Option<StopReason> {
        if self.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        match self.budget {
            Some(b) if self.consumed.load(Ordering::SeqCst) >= b => {
                Some(StopReason::BudgetExhausted)
            }
            _ => None,
        }
    }
}

impl Default for SessionControl {
    fn default() -> Self {
        SessionControl::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_stops() {
        let c = SessionControl::unlimited();
        assert_eq!(c.stop(), None);
        assert_eq!(c.grant(1000), 1000);
        c.charge(1_000_000);
        assert_eq!(c.stop(), None);
    }

    #[test]
    fn budget_grants_prefix_then_exhausts() {
        let c = SessionControl::with_budget(10);
        assert_eq!(c.grant(6), 6);
        assert_eq!(c.stop(), None);
        assert_eq!(c.grant(6), 4, "only the remainder is granted");
        assert_eq!(c.stop(), Some(StopReason::BudgetExhausted));
        assert_eq!(c.grant(1), 0);
        assert_eq!(c.consumed(), 10);
    }

    #[test]
    fn zero_budget_stops_immediately() {
        let c = SessionControl::with_budget(0);
        assert_eq!(c.grant(5), 0);
        assert_eq!(c.stop(), Some(StopReason::BudgetExhausted));
    }

    #[test]
    fn cancellation_beats_budget_and_blocks_grants() {
        let c = SessionControl::with_budget(100);
        c.charge(200);
        let h = c.cancel_handle();
        h.cancel();
        assert!(h.is_cancelled());
        assert_eq!(c.stop(), Some(StopReason::Cancelled));
        assert_eq!(c.grant(1), 0);
    }

    #[test]
    fn resumed_control_continues_the_ledger() {
        let c = SessionControl::resumed(7, Some(3)).expect("7 + 3 fits in the ledger");
        assert_eq!(c.consumed(), 7);
        assert_eq!(c.budget(), Some(10));
        assert_eq!(c.remaining(), Some(3));
        assert_eq!(c.grant(5), 3);
        assert_eq!(c.stop(), Some(StopReason::BudgetExhausted));
        let unlimited = SessionControl::resumed(7, None).expect("unbudgeted resume is valid");
        assert_eq!(unlimited.grant(5), 5);
        assert_eq!(unlimited.remaining(), None);
    }

    #[test]
    fn impossible_ledgers_are_typed_errors() {
        assert_eq!(
            SessionControl::resumed(u64::MAX, Some(1)).err(),
            Some(ControlError::BudgetOverflow { consumed: u64::MAX, extra: 1 })
        );
        assert_eq!(
            SessionControl::restored(10, Some(7)).err(),
            Some(ControlError::BudgetBelowConsumed { consumed: 10, budget: 7 })
        );
        let exact = SessionControl::restored(10, Some(10)).expect("budget == consumed is legal");
        assert_eq!(exact.stop(), Some(StopReason::BudgetExhausted));
        let msg =
            SessionControl::restored(10, Some(7)).err().map(|e| e.to_string()).unwrap_or_default();
        assert!(msg.contains("below"), "{msg}");
    }

    #[test]
    fn a_live_budget_can_be_replaced_but_not_set_below_consumption() {
        let mut c = SessionControl::with_budget(10);
        assert_eq!(c.grant(10), 10);
        assert_eq!(c.stop(), Some(StopReason::BudgetExhausted));
        let cancel = c.cancel_handle();
        c.set_budget(Some(15)).expect("15 covers the 10 consumed");
        assert_eq!((c.consumed(), c.remaining(), c.stop()), (10, Some(5), None));
        assert_eq!(
            c.set_budget(Some(9)).err(),
            Some(ControlError::BudgetBelowConsumed { consumed: 10, budget: 9 })
        );
        assert_eq!(c.budget(), Some(15), "a rejected budget changes nothing");
        c.set_budget(None).expect("unbounded is always valid");
        assert_eq!(c.grant(100), 100);
        cancel.cancel();
        assert!(c.is_cancelled(), "the handles handed out before still reach it");
    }

    #[test]
    fn refunds_reopen_the_ledger() {
        let c = SessionControl::with_budget(10);
        assert_eq!(c.grant(10), 10);
        assert_eq!(c.stop(), Some(StopReason::BudgetExhausted));
        c.refund(4);
        assert_eq!(c.consumed(), 6);
        assert_eq!(c.remaining(), Some(4));
        assert_eq!(c.stop(), None);
        assert_eq!(c.counters().get(Counter::BudgetRefunded), 4);
        // refunds never underflow the ledger
        c.refund(1_000);
        assert_eq!(c.consumed(), 0);
    }

    #[test]
    fn budget_ledger_feeds_counters() {
        let c = SessionControl::with_budget(10);
        c.charge(2);
        assert_eq!(c.grant(6), 6);
        assert_eq!(c.counters().get(Counter::BudgetCharged), 2);
        assert_eq!(c.counters().get(Counter::BudgetGranted), 6);
    }

    #[test]
    fn stage_strings_roundtrip() {
        for s in [
            Stage::PreCosting,
            Stage::ColumnGroups,
            Stage::Statistics,
            Stage::CandidateSelection,
            Stage::Merging,
            Stage::Enumeration,
        ] {
            assert_eq!(Stage::parse(s.as_str()), Some(s));
        }
        assert_eq!(Stage::parse("warpDrive"), None);
    }

    #[test]
    fn completion_display() {
        assert_eq!(Completion::Complete.to_string(), "complete");
        assert_eq!(
            Completion::BudgetExhausted { stage: Stage::Enumeration }.to_string(),
            "budget exhausted during enumeration"
        );
        assert_eq!(
            Completion::Cancelled { stage: Stage::PreCosting }.to_string(),
            "cancelled during preCosting"
        );
    }
}
