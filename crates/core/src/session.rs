//! The tuning session: Figure 1's pipeline end to end, wrapped in the
//! robustness layer (DESIGN.md §9) — deterministic work budgets,
//! cooperative cancellation, fault retry/degradation, and
//! checkpoint/resume.
//!
//! One `Session` owns everything a tuning run accumulates and advances
//! the pipeline in place: `Session::run` until the pipeline completes
//! or its [`SessionControl`] stops it, as many times as it takes. The
//! `tune*` functions are wrappers that build one, run it once and ask it
//! for its report; the session supervisor keeps one per tenant and runs
//! it a slice at a time. A [`SessionCheckpoint`] is the *serialized* form
//! of a parked session — `Session::checkpoint` writes one when somebody
//! wants it (an interrupted `tune*` result, a fleet manifest), and
//! `Session::from_checkpoint` is the way back.

use crate::candidates::{assemble_pool, select_candidates, CandidatePool, ItemSelection};
use crate::checkpoint::{SessionCheckpoint, StatsProgress};
use crate::colgroups::{interesting_column_groups, ColumnGroups};
use crate::control::{Completion, ControlError, SessionControl, Stage, StopReason};
use crate::cost::{CacheState, CostEvaluator};
use crate::enumeration::{
    enumerate, enumeration_pool, EnumerationPool, EnumerationResult, EnumerationResume,
};
use crate::merging::merge_candidates;
use crate::obs::{Counter, CounterSet, SessionObserver, Span, SpanName, NOOP};
use crate::options::TuningOptions;
use crate::report::{EvaluationReport, StatementReport, TuningResult};
use dta_physical::Configuration;
use dta_server::{ServerError, TuningTarget};
use dta_stats::StatKey;
use dta_workload::{compress, Workload};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Errors from a tuning session.
#[derive(Debug)]
pub enum TuneError {
    /// The user-specified configuration is not valid (§6.2).
    InvalidUserConfiguration(Vec<dta_physical::ValidityError>),
    /// A server interaction failed.
    Server(ServerError),
    /// A resume was handed a structurally inconsistent checkpoint.
    InvalidCheckpoint(String),
    /// A resume was handed an impossible budget ledger (see
    /// [`ControlError`]).
    Control(ControlError),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::InvalidUserConfiguration(errs) => {
                write!(f, "invalid user-specified configuration: ")?;
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            TuneError::Server(e) => write!(f, "server error: {e}"),
            TuneError::InvalidCheckpoint(m) => write!(f, "invalid checkpoint: {m}"),
            TuneError::Control(e) => write!(f, "invalid session control: {e}"),
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Server(e) => Some(e),
            TuneError::Control(e) => Some(e),
            TuneError::InvalidUserConfiguration(_) | TuneError::InvalidCheckpoint(_) => None,
        }
    }
}

impl From<ServerError> for TuneError {
    fn from(e: ServerError) -> Self {
        TuneError::Server(e)
    }
}

impl From<ControlError> for TuneError {
    fn from(e: ControlError) -> Self {
        TuneError::Control(e)
    }
}

/// Convenience: weighted workload cost under a configuration.
pub fn workload_cost(
    target: &TuningTarget<'_>,
    workload: &Workload,
    config: &Configuration,
) -> Result<f64, ServerError> {
    let eval = CostEvaluator::new(target, &workload.items);
    eval.workload_cost(config)
}

/// Run a full tuning session.
///
/// When `options.work_budget_units` is set, the session stops once the
/// budget is consumed and returns its best-so-far recommendation plus a
/// [`SessionCheckpoint`] (anytime tuning); pass that checkpoint to
/// [`tune_resume`] to continue. The budget is deterministic: the same
/// budget cuts the search at the same point on every run and at any
/// `parallel_workers` setting.
pub fn tune(
    target: &TuningTarget<'_>,
    workload: &Workload,
    options: &TuningOptions,
) -> Result<TuningResult, TuneError> {
    tune_with_observer(target, workload, options, &NOOP)
}

/// [`tune`] with a trace sink (DESIGN.md §10): `obs` receives stage
/// spans, events, and per-shard cache statistics, and its
/// [`SessionObserver::summary`] lands in [`TuningResult::observer`].
/// The recommendation is byte-identical to an unobserved run — the
/// observer only reads the deterministic counters; wall-clock time
/// never flows back into the search.
pub fn tune_with_observer(
    target: &TuningTarget<'_>,
    workload: &Workload,
    options: &TuningOptions,
    obs: &dyn SessionObserver,
) -> Result<TuningResult, TuneError> {
    let control = match options.work_budget_units {
        Some(units) => SessionControl::with_budget(units),
        None => SessionControl::unlimited(),
    };
    run_to_report(Session::new(workload, options), target, &control, obs)
}

/// Run a tuning session under an externally owned [`SessionControl`] —
/// the caller keeps the [`crate::CancelHandle`] and can cancel the
/// session from another thread. The control's own budget is used and
/// `options.work_budget_units` is ignored; [`tune`] and
/// [`tune_with_observer`] build their control from it.
pub fn tune_with_control(
    target: &TuningTarget<'_>,
    workload: &Workload,
    options: &TuningOptions,
    control: &SessionControl,
) -> Result<TuningResult, TuneError> {
    run_to_report(Session::new(workload, options), target, control, &NOOP)
}

/// Continue an interrupted (budget-exhausted or cancelled) session from
/// its checkpoint, with `extra_budget` fresh work units (`None` = run to
/// convergence).
///
/// The resumed session prices through the checkpoint's warmed cache and
/// replays no completed work, and — against the same tuning target — its
/// final recommendation *and report* are byte-identical to what an
/// uninterrupted run with a sufficient budget would have produced.
pub fn tune_resume(
    target: &TuningTarget<'_>,
    checkpoint: &SessionCheckpoint,
    extra_budget: Option<u64>,
) -> Result<TuningResult, TuneError> {
    let session = Session::from_checkpoint(checkpoint)?;
    let control = SessionControl::resumed(checkpoint.consumed_units, extra_budget)?;
    run_to_report(session, target, &control, &NOOP)
}

/// What every `tune*` entry point does with its session: one run, then
/// the report of wherever that got.
fn run_to_report(
    mut session: Session,
    target: &TuningTarget<'_>,
    control: &SessionControl,
    obs: &dyn SessionObserver,
) -> Result<TuningResult, TuneError> {
    session.run(target, control, obs)?;
    session.finish(target, control, obs)
}

/// The numbers of a session that only a run which parks or completes
/// moves: what a checkpoint records besides progress and cache.
#[derive(Debug, Clone, Copy, Default)]
struct Ledger {
    /// Budget units consumed; the next run's control starts here.
    consumed_units: u64,
    /// What-if server overhead units spent by the runs so far.
    tuning_work_units: f64,
    whatif_calls: usize,
    worker_restarts: usize,
    whatif_retries: usize,
    retry_backoff_units: u64,
}

impl Ledger {
    /// The tallies plus what `counters` gained since `since` was
    /// snapshotted; units and overhead are the caller's to set.
    fn plus(self, counters: &CounterSet, since: &[u64; Counter::COUNT]) -> Ledger {
        let gained =
            |c: Counter| counters.get(c) - since.get(c as usize).copied().unwrap_or_default();
        Ledger {
            whatif_calls: self.whatif_calls + gained(Counter::WhatIfCalls) as usize,
            worker_restarts: self.worker_restarts + gained(Counter::PanicRescues) as usize,
            whatif_retries: self.whatif_retries + gained(Counter::WhatIfRetries) as usize,
            retry_backoff_units: self.retry_backoff_units + gained(Counter::RetryBackoffUnits),
            ..self
        }
    }
}

/// The base configuration of a session: the server's
/// constraint-enforcing indexes plus the (validated) user-specified
/// configuration.
fn base_configuration(
    target: &TuningTarget<'_>,
    options: &TuningOptions,
) -> Result<Configuration, TuneError> {
    let raw = target.whatif_server().raw_configuration();
    let Some(user) = &options.user_specified else { return Ok(raw) };
    let errors = user.validate(target.catalog());
    if !errors.is_empty() {
        return Err(TuneError::InvalidUserConfiguration(errors));
    }
    Ok(raw.union(user))
}

/// A tuning session, live: everything a run accumulates, owned in one
/// place so that the next run — the next supervisor slice — picks it up
/// where it lies instead of rebuilding it from a by-value copy.
///
/// Two things hold by construction (DESIGN.md §9):
///
/// * **No report-only price enters the cache.** [`run`](Self::run) prices
///   nothing but the search; [`finish`](Self::finish) prices the report
///   and takes its entries back out before it returns.
/// * **A failed run is a transaction.** When `run` returns `Err`, or a
///   panic escapes it, the session is what it was when the run began:
///   the cache entries, degraded marks and fallbacks the run wrote are
///   rolled back ([`CacheState::rollback`]), its pre-costs and selections
///   are truncated away, and the ledger was never touched — only a run
///   that parks or completes writes it.
pub(crate) struct Session {
    options: TuningOptions,
    /// The compressed (tuned) workload.
    workload: Workload,
    /// Statements and events of the original, uncompressed workload.
    total_statements: usize,
    total_events: f64,
    /// The evaluator's cache state, shared with the evaluator of each run.
    cache: Arc<CacheState>,
    ledger: Ledger,
    /// How the last run ended. A session that has not run is one that
    /// stopped before pre-costing with nothing spent; and a checkpoint
    /// does not say whether a budget or a cancel cut it, so a rebuilt
    /// session reads as budget-exhausted in its stage until it runs.
    ended: Completion,
    /// The ledger's work units before the last run and the server's
    /// overhead meter when it began. A report adds its own pricing as
    /// `before + (now − start)`, one difference over the last run's whole
    /// span, because that is the sum an uninterrupted session's report
    /// makes and the two must agree to the bit; the ledger's total plus
    /// a second, smaller difference would round differently.
    last_run: Option<(f64, f64)>,

    // progress: append-only within a run, truncated if it fails
    pre_costs: Vec<f64>,
    stats: Option<StatsProgress>,
    /// `Some` once the selection stage was entered: the completed prefix.
    selections: Option<Vec<ItemSelection>>,
    /// The greedy cursor, when the last run was cut mid-enumeration.
    enumeration: Option<EnumerationResume>,
    /// Best configuration the last run's enumeration found, if it got
    /// that far — what the report recommends.
    best: Option<EnumerationResult>,

    // derived from the above and the target, computed once, never stored
    base: Option<Configuration>,
    groups: Option<ColumnGroups>,
    /// The merged candidate pool.
    pool: Option<MergedPool>,
}

/// A merged candidate pool, and its candidates as enumeration walks them
/// with their atoms once made ([`enumeration_pool`]): built together,
/// dropped together — on a rollback too, so that no atom outlives the
/// cache entries it was read from.
struct MergedPool {
    merged: CandidatePool,
    ordered: EnumerationPool,
}

impl Session {
    /// A session over `workload`, compressed (§5.1) if `options` say so.
    pub(crate) fn new(workload: &Workload, options: &TuningOptions) -> Session {
        let tuned = if options.compress {
            compress(workload, options.compression).compressed
        } else {
            workload.clone()
        };
        Session {
            cache: Arc::new(CacheState::new(&tuned.items)),
            options: options.clone(),
            workload: tuned,
            total_statements: workload.len(),
            total_events: workload.total_events(),
            ledger: Ledger::default(),
            ended: Completion::BudgetExhausted { stage: Stage::PreCosting },
            last_run: None,
            pre_costs: Vec::new(),
            stats: None,
            selections: None,
            enumeration: None,
            best: None,
            base: None,
            groups: None,
            pool: None,
        }
    }

    /// Rebuild the session a checkpoint was written from. What the
    /// checkpoint leaves out is derived again by the next run, exactly as
    /// the parked session would have found it.
    pub(crate) fn from_checkpoint(cp: &SessionCheckpoint) -> Result<Session, TuneError> {
        cp.validate().map_err(TuneError::InvalidCheckpoint)?;
        let cache = CacheState::new(&cp.workload.items);
        cache.import(&cp.cache, &cp.degraded);
        Ok(Session {
            options: cp.options.clone(),
            workload: cp.workload.clone(),
            total_statements: cp.total_statements,
            total_events: cp.total_events,
            cache: Arc::new(cache),
            ledger: Ledger {
                consumed_units: cp.consumed_units,
                tuning_work_units: cp.tuning_work_units,
                whatif_calls: cp.whatif_calls,
                worker_restarts: cp.worker_restarts,
                whatif_retries: cp.whatif_retries,
                retry_backoff_units: cp.retry_backoff_units,
            },
            ended: Completion::BudgetExhausted { stage: cp.stage },
            last_run: None,
            pre_costs: cp.pre_costs.clone(),
            stats: cp.stats,
            selections: cp.selections.clone(),
            enumeration: cp.enumeration.clone(),
            best: None,
            base: None,
            groups: None,
            pool: None,
        })
    }

    /// The by-value, serializable form of the session as it is parked.
    /// This is the one place a workload, options and a cache are copied
    /// into a checkpoint, and nothing calls it per slice: the supervisor
    /// does for a manifest, `finish` does for an interrupted result.
    pub(crate) fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            options: self.options.clone(),
            workload: self.workload.clone(),
            total_statements: self.total_statements,
            total_events: self.total_events,
            stage: self.parked_stage().unwrap_or(Stage::Enumeration),
            consumed_units: self.ledger.consumed_units,
            tuning_work_units: self.ledger.tuning_work_units,
            pre_costs: self.pre_costs.clone(),
            stats: self.stats,
            selections: self.selections.clone(),
            enumeration: self.enumeration.clone(),
            cache: self.cache.export(),
            whatif_calls: self.ledger.whatif_calls,
            worker_restarts: self.ledger.worker_restarts,
            whatif_retries: self.ledger.whatif_retries,
            retry_backoff_units: self.ledger.retry_backoff_units,
            degraded: self.cache.degraded_items(),
        }
    }

    /// Budget units consumed so far: where the next run's control starts.
    pub(crate) fn consumed_units(&self) -> u64 {
        self.ledger.consumed_units
    }

    /// The stage the session is parked in; `None` once it is complete.
    pub(crate) fn parked_stage(&self) -> Option<Stage> {
        match self.ended {
            Completion::Complete => None,
            Completion::BudgetExhausted { stage } | Completion::Cancelled { stage } => Some(stage),
        }
    }

    /// Advance the pipeline, in place, until it completes or `control`
    /// stops it. All or nothing: on `Err`, and on a panic (it is passed
    /// on), the session is left exactly as the run found it.
    pub(crate) fn run(
        &mut self,
        target: &TuningTarget<'_>,
        control: &SessionControl,
        obs: &dyn SessionObserver,
    ) -> Result<Completion, TuneError> {
        if self.ended == Completion::Complete {
            return Ok(Completion::Complete);
        }
        let (pre_costs, stats, selections) =
            (self.pre_costs.len(), self.stats, self.selections.as_ref().map(Vec::len));
        self.cache.begin();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.advance(target, control, obs)));
        if matches!(outcome, Ok(Ok(_))) {
            self.cache.commit();
        } else {
            self.cache.rollback();
            self.pre_costs.truncate(pre_costs);
            self.stats = stats;
            match (selections, &mut self.selections) {
                (Some(done), Some(all)) => all.truncate(done),
                _ => self.selections = None,
            }
            // pure functions of what was just truncated
            self.groups = None;
            self.pool = None;
        }
        outcome.unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// The pipeline proper.
    ///
    /// Budget discipline: pre-costing charges one unit per statement,
    /// candidate selection charges per block (see
    /// [`crate::candidates::SELECTION_BLOCK`]), enumeration charges one
    /// unit per evaluation in granted prefixes; column groups,
    /// statistics, and merging are poll-only stages. All charging happens
    /// at serial coordination points, so a budget cuts at the same place
    /// at any worker count. Nothing here prices for a report: what the
    /// cache holds at a cut is what the search asked for.
    ///
    /// Everything that can fail comes before the ledger is written, so
    /// [`run`](Self::run) has only progress and cache to take back.
    fn advance(
        &mut self,
        target: &TuningTarget<'_>,
        control: &SessionControl,
        obs: &dyn SessionObserver,
    ) -> Result<Completion, TuneError> {
        obs.attach_counters(control.counters());
        let whatif_server = target.whatif_server();
        let overhead_start = whatif_server.overhead_units();
        let counters = control.counters();
        let counters_start = counters.snapshot();

        let Session { options, workload, cache, pre_costs, stats, selections, .. } = self;
        let base = match &mut self.base {
            Some(base) => base,
            empty => empty.insert(base_configuration(target, options)?),
        };
        let items = &workload.items;

        // ONE shared, thread-safe evaluator serves the whole run:
        // pre-cost estimation, candidate selection, and enumeration all
        // hit the session's cache, and its miss counter is the run's
        // what-if tally; it shares the control's counter set so observer
        // telemetry has a single source of truth
        let eval = CostEvaluator::over(target, items, Arc::clone(cache), Arc::clone(counters));

        let mut best: Option<EnumerationResult> = None;
        let mut cursor: Option<EnumerationResume> = None;

        let cut: Option<(StopReason, Stage)> = 'pipeline: {
            // preliminary base costs (pre-statistics) for column-group
            // weighting — one budget unit per statement
            let pre_span = Span::enter(obs, SpanName::PreCosting);
            while pre_costs.len() < items.len() {
                if let Some(reason) = control.stop() {
                    break 'pipeline Some((reason, Stage::PreCosting));
                }
                let i = pre_costs.len();
                pre_costs.push(eval.item_cost(i, base)?);
                control.charge(1);
            }
            // the pre-statistics base costs double as the per-item fallbacks
            // a permanent fault degrades a statement to
            cache.set_fallbacks(pre_costs.clone());
            drop(pre_span);

            // §2.2 column-group restriction (pure computation; poll-only)
            if let Some(reason) = control.stop() {
                break 'pipeline Some((reason, Stage::ColumnGroups));
            }
            let groups = self.groups.get_or_insert_with(|| {
                let _cg_span = Span::enter(obs, SpanName::ColumnGroups);
                interesting_column_groups(
                    target.catalog(),
                    items,
                    pre_costs,
                    options.colgroup_cost_threshold,
                )
            });

            // §5.2 statistics for the interesting groups (histograms come
            // from singleton groups; densities from the multi-column ones).
            // Once past this stage a session keeps the numbers: the
            // statistics exist on the target and the cache is
            // post-statistics.
            if stats.is_none() {
                if let Some(reason) = control.stop() {
                    break 'pipeline Some((reason, Stage::Statistics));
                }
                let _stats_span = Span::enter(obs, SpanName::Statistics);
                let mut required: Vec<StatKey> = Vec::new();
                let mut table_keys: BTreeSet<(String, String)> = BTreeSet::new();
                for item in items.iter() {
                    for t in item.statement.referenced_tables() {
                        table_keys.insert((item.database.clone(), t.to_string()));
                    }
                }
                for (db, table) in &table_keys {
                    for group in groups.for_table(db, table) {
                        let cols: Vec<String> = group.iter().cloned().collect();
                        required.push(StatKey {
                            database: db.clone(),
                            table: table.clone(),
                            columns: cols,
                        });
                    }
                }
                let report = target.ensure_statistics(&required, options.reduce_statistics);
                if report.created > 0 {
                    // new statistics change what-if estimates; pre-statistics
                    // cached costs are stale and must not leak into the search
                    cache.invalidate();
                }
                *stats = Some(StatsProgress {
                    requested: report.requested,
                    created: report.created,
                    work_units: report.work_units,
                    failed: report.failed,
                    retries: report.retries,
                    backoff_units: report.backoff_units,
                });
                obs.event(
                    "stats",
                    &format!(
                        "requested={} created={} failed={} retries={}",
                        report.requested, report.created, report.failed, report.retries
                    ),
                );
            }

            // §2.2 candidate selection (per query, block-budgeted, possibly
            // parallel within each block)
            let sel_span = Span::enter(obs, SpanName::CandidateSelection);
            let done = selections.get_or_insert_with(Vec::new);
            if let Some(reason) = select_candidates(&eval, base, groups, options, control, done) {
                break 'pipeline Some((reason, Stage::CandidateSelection));
            }
            drop(sel_span);

            // §2.2 merging (pure; poll-only). The run that completes
            // selection assembles and merges the pool; later runs find it.
            if self.pool.is_none() {
                let mut pool = assemble_pool(done);
                counters.raise(Counter::PeakPoolSize, pool.candidates.len() as u64);
                if let Some(reason) = control.stop() {
                    break 'pipeline Some((reason, Stage::Merging));
                }
                let merge_span = Span::enter(obs, SpanName::Merging);
                merge_candidates(&mut pool);
                drop(merge_span);
                obs.event(
                    "pool",
                    &format!("generated={} merged={}", pool.generated, pool.candidates.len()),
                );
                let ordered = enumeration_pool(&pool.candidates, options);
                self.pool = Some(MergedPool { merged: pool, ordered });
            } else if let Some(reason) = control.stop() {
                break 'pipeline Some((reason, Stage::Merging));
            }
            let pool = &self.pool.as_ref().expect("merging leaves its pool in place").ordered;

            // §2.2/§4 enumeration — shares the selection phase's cache and
            // charges one budget unit per configuration evaluation
            let enum_span = Span::enter(obs, SpanName::Enumeration);
            let erun = enumerate(
                &eval,
                base,
                pool,
                whatif_server,
                options,
                control,
                self.enumeration.clone(),
                obs,
            );
            best = Some(erun.result);
            if let Some((reason, at)) = erun.interrupted {
                cursor = Some(at);
                break 'pipeline Some((reason, Stage::Enumeration));
            }
            drop(enum_span);
            None
        };

        // The run parks or completes: what it reached is the session's
        // progress now. A cut ahead of a stage forgets what earlier runs
        // had of that stage and the ones after it (a slice cancelled at
        // birth stops at the column-groups poll, and the tenant selects
        // again, against a warm cache). Keeping it would be better and is
        // a change of its own: the fleet ledgers pinned in the chaos
        // tests record the units the second selection consumes.
        if cut.is_some_and(|(_, stage)| stage < Stage::CandidateSelection) {
            self.selections = None;
            self.pool = None;
        }
        self.enumeration = cursor;
        self.best = best;
        let work_before = self.ledger.tuning_work_units;
        self.last_run = Some((work_before, overhead_start));
        self.ledger = Ledger {
            consumed_units: control.consumed(),
            tuning_work_units: work_before + (whatif_server.overhead_units() - overhead_start),
            ..self.ledger.plus(counters, &counters_start)
        };
        self.ended = match cut {
            None => Completion::Complete,
            Some((StopReason::BudgetExhausted, stage)) => Completion::BudgetExhausted { stage },
            Some((StopReason::Cancelled, stage)) => Completion::Cancelled { stage },
        };
        Ok(self.ended)
    }

    /// The report of the session as it stands: price the best-so-far
    /// recommendation and account for the whole session. An interrupted
    /// session's result carries its checkpoint.
    ///
    /// Anytime guarantee: whatever the cut, the recommendation is a valid
    /// configuration, it respects the storage bound and alignment
    /// (enumeration enforces both; earlier cuts return the base
    /// configuration), and it is never worse than the raw configuration.
    ///
    /// The session is read, not advanced: what pricing the report adds to
    /// the cache and the degraded set is taken out again, so a session
    /// that runs on — or is checkpointed — after reporting is the one
    /// that never reported. The report's own what-if calls, retries and
    /// overhead are in the result's totals and nowhere in the session's.
    pub(crate) fn finish(
        &self,
        target: &TuningTarget<'_>,
        control: &SessionControl,
        obs: &dyn SessionObserver,
    ) -> Result<TuningResult, TuneError> {
        let checkpoint = self.parked_stage().map(|_| Box::new(self.checkpoint()));
        let whatif_server = target.whatif_server();
        let counters = control.counters();
        let counters_start = counters.snapshot();
        let computed;
        let base = match &self.base {
            Some(base) => base,
            None => {
                computed = base_configuration(target, &self.options)?;
                &computed
            }
        };
        let items = &self.workload.items;
        let eval =
            CostEvaluator::over(target, items, Arc::clone(&self.cache), Arc::clone(counters));

        let epilogue_span = Span::enter(obs, SpanName::Epilogue);
        let slice = ReportSlice::begin(&self.cache);
        let priced = eval.workload_cost(base);
        let degraded = self.cache.degraded_items();
        drop(slice);
        let base_cost = priced?;
        let (recommendation, recommended_cost, pool_size, lazy_variants, enum_evaluations) =
            match &self.best {
                Some(r) => {
                    (r.configuration.clone(), r.cost, r.pool_size, r.lazy_variants, r.evaluations)
                }
                None => (base.clone(), base_cost, 0, 0, 0),
            };

        let storage_bytes = recommendation
            .total_bytes(whatif_server)
            .saturating_sub(base.total_bytes(whatif_server));

        let selections = self.selections.as_deref().unwrap_or(&[]);
        let candidates_generated: usize = selections.iter().map(|s| s.generated).sum();
        let selection_evaluations: usize = selections.iter().map(|s| s.evaluations).sum();
        // if merging never ran (the cut hit at or before it), report the
        // unmerged tally of the partial pool
        let candidates_selected = match &self.pool {
            Some(pool) => pool.merged.candidates.len(),
            None => assemble_pool(selections).candidates.len(),
        };
        let stats = self.stats.unwrap_or_default();
        let degraded_statements: Vec<String> = degraded
            .iter()
            .map(|&i| {
                items
                    .get(i)
                    .expect("degraded indices come from this workload")
                    .statement
                    .to_string()
            })
            .collect();

        // deterministic candidate telemetry, tallied once at this serial
        // coordination point (generated/pruned match the report fields)
        counters.add(Counter::CandidatesGenerated, candidates_generated as u64);
        counters.add(
            Counter::CandidatesPruned,
            candidates_generated.saturating_sub(candidates_selected) as u64,
        );
        counters.raise(Counter::PeakPoolSize, pool_size as u64);
        drop(epilogue_span);
        obs.event("completion", &self.ended.to_string());
        obs.record_cache_shards(&self.cache.stats());

        let total = self.ledger.plus(counters, &counters_start);
        let tuning_work_units = match self.last_run {
            Some((before, start)) => before + (whatif_server.overhead_units() - start),
            None => total.tuning_work_units,
        };
        Ok(TuningResult {
            recommendation,
            base_cost,
            recommended_cost: recommended_cost.min(base_cost),
            statements_tuned: items.len(),
            total_statements: self.total_statements,
            total_events: self.total_events,
            whatif_calls: total.whatif_calls,
            evaluations: selection_evaluations + enum_evaluations,
            candidates_generated,
            candidates_selected,
            pool_size,
            lazy_variants,
            stats_requested: stats.requested,
            stats_created: stats.created,
            stats_work_units: stats.work_units,
            tuning_work_units,
            storage_bytes,
            completion: self.ended,
            worker_restarts: total.worker_restarts,
            whatif_retries: total.whatif_retries + stats.retries,
            retry_backoff_units: total.retry_backoff_units + stats.backoff_units,
            degraded_statements,
            checkpoint,
            observer: obs.summary(),
        })
    }
}

/// A cache slice that [`Session::finish`] prices its report in, taken
/// back when dropped: however the pricing ends, unwinding included, the
/// session is left as it was.
struct ReportSlice<'c>(&'c CacheState);

impl<'c> ReportSlice<'c> {
    fn begin(cache: &'c CacheState) -> Self {
        cache.begin();
        ReportSlice(cache)
    }
}

impl Drop for ReportSlice<'_> {
    fn drop(&mut self) {
        self.0.rollback();
    }
}

/// §6.3 exploratory analysis: evaluate a user-proposed configuration for
/// a workload against the current one, without any search.
///
/// Prices through a [`CostEvaluator`], so a statement whose referenced
/// tables the two configurations cover identically (e.g. the proposal
/// adds nothing relevant to it) is costed once, not twice — the raw
/// two-calls-per-statement path this replaces had no such reuse.
pub fn evaluate_configuration(
    target: &TuningTarget<'_>,
    workload: &Workload,
    current: &Configuration,
    proposed: &Configuration,
) -> Result<EvaluationReport, ServerError> {
    let eval = CostEvaluator::new(target, &workload.items);
    let mut statements = Vec::with_capacity(workload.len());
    let mut current_total = 0.0;
    let mut proposed_total = 0.0;
    for (i, item) in workload.items.iter().enumerate() {
        let (current_cost, _) = eval.item_report(i, current)?;
        let (proposed_cost, used_structures) = eval.item_report(i, proposed)?;
        current_total += item.weight * current_cost;
        proposed_total += item.weight * proposed_cost;
        statements.push(StatementReport {
            database: item.database.clone(),
            sql: item.statement.to_string(),
            weight: item.weight,
            current_cost,
            proposed_cost,
            used_structures,
            whatif_calls: 0,
            retries: 0,
            degraded: false,
        });
    }
    // per-statement what-if accounting: shards map one-to-one onto
    // statements, so shard i's tally is statement i's retry history
    let shard_stats = eval.cache_stats();
    let degraded = eval.degraded_items();
    for (i, (report, shard)) in statements.iter_mut().zip(&shard_stats).enumerate() {
        report.whatif_calls = shard.calls as usize;
        report.retries = shard.retries as usize;
        report.degraded = degraded.binary_search(&i).is_ok();
    }
    Ok(EvaluationReport { statements, current_total, proposed_total })
}
