//! Multi-tenant session supervision: fair-share scheduling, fault
//! containment, preemption, and crash recovery (DESIGN.md §11).
//!
//! The paper's DTA runs one tuning session at a time; a long-lived
//! advisor instead multiplexes many concurrent tenant sessions against
//! a shared work budget. [`SessionSupervisor`] is that multiplexer,
//! built entirely out of the PR-5 anytime substrate:
//!
//! * **Fair share** — a deterministic round-robin over tenant ids hands
//!   each runnable tenant one scheduling *quantum* of work units per
//!   turn, granted from a fleet-wide [`SessionControl`] ledger. Unused
//!   grant is refunded at the serial apply point, so the ledger tracks
//!   real work. Worker threads only parallelize *independent* tenant
//!   slices between two serial scheduling points — grant order, apply
//!   order, and every per-tenant ledger are fixed by tenant id, so a
//!   fleet run is byte-identical across repetitions and worker counts
//!   (the PR 1/PR 5 invariant, extended to fleets).
//! * **Containment** — every slice runs under `catch_unwind`, on top of
//!   the what-if call's own panic guard. A tenant whose `Server`
//!   keeps failing is retried from its last good checkpoint after a
//!   deterministic exponential backoff (counted in scheduling turns,
//!   never wall clock) and quarantined after bounded retries; siblings
//!   never notice.
//! * **Preemption** — a running slice is cancelled through its
//!   [`CancelHandle`] (manual, via [`SupervisorHandle::preempt`], or
//!   automatic via the per-tenant unit cap). The session parks where it
//!   is — live, in its tenant's slot — and re-enters the run queue; its
//!   next slice is a `Session::run` on the same object, so a slice
//!   costs the work it does and preemption never costs correctness.
//! * **Crash recovery** — [`SessionSupervisor::manifest`] snapshots the
//!   whole fleet (each parked session serialized to a
//!   [`SessionCheckpoint`], queue order, the fleet ledger) into a
//!   [`FleetManifest`]; `dta-xml` persists it, and
//!   [`SessionSupervisor::recover`] rebuilds the supervisor — and every
//!   parked session from its checkpoint — after a simulated node
//!   restart. A rebuilt session continues byte-identically to the live
//!   one it was written from. Tuning targets are external database
//!   servers that survive an advisor restart (created statistics
//!   included), so recovery re-attaches to the same [`Server`]s and
//!   replays to byte-identical final recommendations.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use dta_physical::Configuration;
use dta_server::{Server, TuningTarget};
use dta_workload::Workload;
use parking_lot::Mutex;

use crate::checkpoint::SessionCheckpoint;
use crate::control::{CancelHandle, Completion, ControlError, SessionControl, StopReason};
use crate::obs::{Counter, CounterTotals, NOOP};
use crate::options::TuningOptions;
use crate::report::TuningResult;
use crate::session::{Session, TuneError};

/// Scheduling and containment knobs for a [`SessionSupervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// Work units granted to a tenant per scheduling turn (≥ 1).
    pub quantum: u64,
    /// Fleet-wide work budget (`None` = unbounded). Grants for every
    /// tenant come out of this single ledger.
    pub fleet_budget: Option<u64>,
    /// Worker threads per scheduling turn (≥ 1). Affects wall clock
    /// only: grant and apply order stay serial and id-deterministic.
    pub workers: usize,
    /// Consecutive failed slices a tenant survives before quarantine.
    pub max_session_retries: u32,
    /// Base containment backoff, in scheduling turns; doubles per
    /// consecutive failure (deterministic exponential backoff).
    pub backoff_turns: u64,
    /// Per-tenant consumption cap: a tenant at or past it is parked as
    /// a noisy neighbor and scheduled no further (`None` = no cap).
    pub tenant_unit_cap: Option<u64>,
    /// Livelock guard: a tenant that has run this many slices without
    /// finishing is quarantined (e.g. a preemption source that cancels
    /// every slice before it can make progress).
    pub max_slices_per_tenant: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            quantum: 64,
            fleet_budget: None,
            workers: 1,
            max_session_retries: 2,
            backoff_turns: 1,
            tenant_unit_cap: None,
            max_slices_per_tenant: 10_000,
        }
    }
}

impl SupervisorPolicy {
    fn validate(&self) -> Result<(), SupervisorError> {
        if self.quantum == 0 {
            return Err(SupervisorError::InvalidPolicy("quantum must be at least 1".into()));
        }
        if self.workers == 0 {
            return Err(SupervisorError::InvalidPolicy("workers must be at least 1".into()));
        }
        if self.max_slices_per_tenant == 0 {
            return Err(SupervisorError::InvalidPolicy(
                "max_slices_per_tenant must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Errors from supervisor construction, admission, or recovery.
#[derive(Debug)]
pub enum SupervisorError {
    /// The policy cannot schedule anything (zero quantum/workers).
    InvalidPolicy(String),
    /// A tenant id was admitted twice.
    DuplicateTenant(String),
    /// A recovery manifest and the supplied tenant specs disagree.
    ManifestMismatch(String),
    /// The fleet ledger could not be rebuilt (see [`ControlError`]).
    Control(ControlError),
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::InvalidPolicy(m) => write!(f, "invalid supervisor policy: {m}"),
            SupervisorError::DuplicateTenant(id) => write!(f, "duplicate tenant id: {id}"),
            SupervisorError::ManifestMismatch(m) => write!(f, "manifest mismatch: {m}"),
            SupervisorError::Control(e) => write!(f, "fleet ledger: {e}"),
        }
    }
}

impl std::error::Error for SupervisorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SupervisorError::Control(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ControlError> for SupervisorError {
    fn from(e: ControlError) -> Self {
        SupervisorError::Control(e)
    }
}

/// One tenant's tuning request: an id, the tenant's server, and the
/// session inputs. The server reference is the *external* tuning target
/// — it outlives the supervisor, which is what makes crash recovery
/// meaningful (re-attach and resume, statistics intact).
pub struct TenantSpec<'srv> {
    id: String,
    server: &'srv Server,
    workload: Workload,
    options: TuningOptions,
}

impl<'srv> TenantSpec<'srv> {
    /// A new tenant session request.
    pub fn new(
        id: impl Into<String>,
        server: &'srv Server,
        workload: Workload,
        options: TuningOptions,
    ) -> Self {
        TenantSpec { id: id.into(), server, workload, options }
    }

    /// The tenant id (the scheduling key).
    pub fn id(&self) -> &str {
        &self.id
    }
}

/// A tenant's lifecycle state under supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantStatus {
    /// Admitted, no slice run yet.
    Queued,
    /// Interrupted mid-session; a checkpoint holds its progress.
    Parked,
    /// Ran to convergence; a recommendation is available.
    Completed,
    /// Contained after repeated failures; removed from scheduling.
    Quarantined,
}

impl TenantStatus {
    /// Stable identifier used by the XML manifest schema.
    pub fn as_str(self) -> &'static str {
        match self {
            TenantStatus::Queued => "queued",
            TenantStatus::Parked => "parked",
            TenantStatus::Completed => "completed",
            TenantStatus::Quarantined => "quarantined",
        }
    }

    /// Inverse of [`TenantStatus::as_str`]; `None` for unknown names.
    pub fn parse(s: &str) -> Option<TenantStatus> {
        Some(match s {
            "queued" => TenantStatus::Queued,
            "parked" => TenantStatus::Parked,
            "completed" => TenantStatus::Completed,
            "quarantined" => TenantStatus::Quarantined,
            _ => return None,
        })
    }
}

impl std::fmt::Display for TenantStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A completed tenant session: the recommendation and its prices. The
/// full [`TuningResult`] is present for sessions completed in this
/// process and absent after a manifest round-trip (the manifest stores
/// only what recovery needs).
#[derive(Debug, Clone)]
pub struct FinishedSession {
    /// The recommended physical design.
    pub recommendation: Configuration,
    /// Weighted workload cost under the base configuration.
    pub base_cost: f64,
    /// Weighted workload cost under the recommendation.
    pub recommended_cost: f64,
    /// The full session report, when the session finished in-process.
    pub result: Option<Box<TuningResult>>,
}

/// Per-tenant bookkeeping inside the supervisor.
struct Tenant<'srv> {
    spec: TenantSpec<'srv>,
    status: TenantStatus,
    /// The tenant's session, from its first park until it completes:
    /// taken out at the serial plan point, run on a worker, put back at
    /// the serial apply point.
    session: Option<Session>,
    finished: Option<FinishedSession>,
    quarantine_reason: Option<String>,
    consumed: u64,
    slices: u64,
    retries: u32,
    backoff_owed: u64,
    capped: bool,
    counters: CounterTotals,
}

impl<'srv> Tenant<'srv> {
    fn fresh(spec: TenantSpec<'srv>) -> Self {
        Tenant {
            spec,
            status: TenantStatus::Queued,
            session: None,
            finished: None,
            quarantine_reason: None,
            consumed: 0,
            slices: 0,
            retries: 0,
            backoff_owed: 0,
            capped: false,
            counters: CounterTotals::new(),
        }
    }

    fn runnable(&self) -> bool {
        matches!(self.status, TenantStatus::Queued | TenantStatus::Parked)
    }
}

/// Context handed to the slice fault-injection hook at the start of
/// every slice (see [`SessionSupervisor::set_chaos_hook`]).
pub struct SliceContext<'a> {
    /// The tenant about to run.
    pub tenant: &'a str,
    /// The tenant's slice index (0 for its first slice).
    pub slice: u64,
    /// The slice's cancel handle — cancelling it preempts exactly this
    /// slice, deterministically.
    pub cancel: CancelHandle,
}

/// Deterministic fault-injection seam: called at the start of every
/// slice, on the slice's worker thread. A hook that keys its behavior
/// on `(tenant, slice)` is deterministic regardless of interleaving. A
/// panicking hook exercises the containment path.
pub type ChaosHook = Arc<dyn Fn(&SliceContext<'_>) + Send + Sync>;

/// Shared registry behind [`SupervisorHandle`]: cancel handles of the
/// slices currently in flight, keyed by tenant id.
struct Registry {
    running: Mutex<BTreeMap<String, CancelHandle>>,
}

/// Cloneable async control surface for a running fleet: preempt one
/// tenant or cancel the whole fleet from another thread.
#[derive(Clone)]
pub struct SupervisorHandle {
    fleet: CancelHandle,
    registry: Arc<Registry>,
}

impl SupervisorHandle {
    /// Preempt `tenant`'s currently running slice, if any. The slice
    /// parks as a checkpoint and the tenant re-enters the run queue.
    /// Returns whether a running slice was found.
    pub fn preempt(&self, tenant: &str) -> bool {
        match self.registry.running.lock().get(tenant) {
            Some(h) => {
                h.cancel();
                true
            }
            None => false,
        }
    }

    /// Stop the whole fleet: no further grants, and every in-flight
    /// slice is cancelled (each parks as a checkpoint).
    pub fn cancel_fleet(&self) {
        self.fleet.cancel();
        for h in self.registry.running.lock().values() {
            h.cancel();
        }
    }
}

/// One planned slice: the tenant, its grant, and its session — `None`
/// until the tenant has parked once — out of the tenant's slot for as
/// long as the slice is in flight.
struct Planned {
    idx: usize,
    grant: u64,
    session: Option<Session>,
}

/// Outcome of one executed slice, produced on a worker thread and
/// applied at the serial scheduling point.
enum SliceOutcome {
    /// The session ran to convergence; this is its report.
    Finished(Box<TuningResult>),
    /// The session was interrupted (budget or cancel) and is parked, live.
    Parked,
    /// The slice failed (server error or escaped panic) and its session
    /// is what it was before the slice.
    Failed(String),
}

/// What a worker thread reports back for one slice.
struct SliceReport {
    outcome: SliceOutcome,
    /// Work units actually consumed by the slice.
    used: u64,
    /// What the slice's own counter set tallied: the slice's work and
    /// nothing carried over, so the tenant's totals are the plain sum.
    counters: [u64; Counter::COUNT],
}

impl SliceReport {
    /// A slice that failed before it could run anything.
    fn failed(reason: String) -> Self {
        SliceReport {
            outcome: SliceOutcome::Failed(reason),
            used: 0,
            counters: [0; Counter::COUNT],
        }
    }
}

/// One tenant's row in a [`FleetManifest`].
#[derive(Debug, Clone)]
pub struct TenantManifest {
    /// Tenant id.
    pub id: String,
    /// Lifecycle state at capture.
    pub status: TenantStatus,
    /// Work units consumed so far.
    pub consumed: u64,
    /// Slices run so far.
    pub slices: u64,
    /// Consecutive failed slices at capture.
    pub retries: u32,
    /// Backoff turns still owed before the next slice.
    pub backoff_owed: u64,
    /// Whether the per-tenant unit cap parked this tenant.
    pub capped: bool,
    /// Why the tenant was quarantined, if it was.
    pub quarantine_reason: Option<String>,
    /// The parked session, for `Parked` (and pre-empted `Queued` is
    /// impossible: a queued tenant has no progress to store).
    pub checkpoint: Option<Box<SessionCheckpoint>>,
    /// The finished session, for `Completed`.
    pub finished: Option<FinishedSession>,
    /// Per-tenant counter totals, in [`Counter::ALL`] order.
    pub counters: CounterTotals,
}

/// A point-in-time snapshot of the whole fleet: everything
/// [`SessionSupervisor::recover`] needs to continue after a process
/// restart. Serialized by `dta-xml` (`manifest_to_xml` /
/// `manifest_from_xml`) with bit-exact floats.
#[derive(Debug, Clone)]
pub struct FleetManifest {
    /// Scheduling quantum the fleet was running under.
    pub quantum: u64,
    /// Scheduling turns completed.
    pub rounds: u64,
    /// Fleet ledger: units consumed.
    pub fleet_consumed: u64,
    /// Fleet ledger: total budget (`None` = unbounded).
    pub fleet_budget: Option<u64>,
    /// Run-queue order at capture (front first).
    pub queue: Vec<String>,
    /// Per-tenant rows, in tenant-id order.
    pub tenants: Vec<TenantManifest>,
}

/// One tenant's row in a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant id.
    pub id: String,
    /// Final lifecycle state.
    pub status: TenantStatus,
    /// Whether the per-tenant unit cap parked this tenant.
    pub capped: bool,
    /// Work units consumed.
    pub consumed: u64,
    /// Slices run.
    pub slices: u64,
    /// Consecutive failed slices at the end.
    pub retries: u32,
    /// Why the tenant was quarantined, if it was.
    pub quarantine_reason: Option<String>,
    /// Stage the tenant is parked in, if parked.
    pub parked_stage: Option<crate::control::Stage>,
    /// The finished session, if completed.
    pub finished: Option<FinishedSession>,
    /// Per-tenant counter totals (what-if calls, panic rescues, budget
    /// ledger…) — the quarantine audit trail.
    pub counters: CounterTotals,
}

impl TenantOutcome {
    /// What-if calls that panicked and were re-issued on this tenant's
    /// behalf.
    pub fn panic_rescues(&self) -> u64 {
        self.counters.get(Counter::PanicRescues)
    }
}

/// Fleet-level outcome of [`SessionSupervisor::run`].
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-tenant outcomes, in tenant-id order.
    pub tenants: Vec<TenantOutcome>,
    /// Scheduling turns completed.
    pub rounds: u64,
    /// Fleet ledger: units consumed.
    pub fleet_consumed: u64,
    /// Fleet ledger: total budget.
    pub fleet_budget: Option<u64>,
    /// Why scheduling stopped early, if it did (`None` = every tenant
    /// reached a terminal state).
    pub stopped: Option<StopReason>,
}

impl FleetReport {
    /// Number of tenants that ran to convergence.
    pub fn completed(&self) -> usize {
        self.tenants.iter().filter(|t| t.status == TenantStatus::Completed).count()
    }

    /// Number of tenants parked mid-session.
    pub fn parked(&self) -> usize {
        self.tenants.iter().filter(|t| t.status == TenantStatus::Parked).count()
    }

    /// Number of quarantined tenants.
    pub fn quarantined(&self) -> usize {
        self.tenants.iter().filter(|t| t.status == TenantStatus::Quarantined).count()
    }

    /// Supervisor throughput: sessions completed per thousand fleet
    /// work units (the `dta-bench-snap` metric).
    pub fn sessions_per_kilounit(&self) -> f64 {
        if self.fleet_consumed == 0 {
            return 0.0;
        }
        self.completed() as f64 * 1000.0 / self.fleet_consumed as f64
    }

    /// The outcome row for `tenant`, if admitted.
    pub fn tenant(&self, tenant: &str) -> Option<&TenantOutcome> {
        self.tenants.iter().find(|t| t.id == tenant)
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet: {} tenants · {} completed · {} parked · {} quarantined · {} rounds",
            self.tenants.len(),
            self.completed(),
            self.parked(),
            self.quarantined(),
            self.rounds,
        )?;
        match self.fleet_budget {
            Some(b) => writeln!(f, "budget: {}/{} units consumed", self.fleet_consumed, b)?,
            None => writeln!(f, "budget: {} units consumed (unbounded)", self.fleet_consumed)?,
        }
        if let Some(reason) = self.stopped {
            let why = match reason {
                StopReason::BudgetExhausted => "fleet budget exhausted",
                StopReason::Cancelled => "fleet cancelled",
            };
            writeln!(f, "stopped early: {why}")?;
        }
        for t in &self.tenants {
            write!(
                f,
                "  {:<12} {:<11} {:>8} units · {} slices · {} rescues",
                t.id,
                t.status.as_str(),
                t.consumed,
                t.slices,
                t.panic_rescues(),
            )?;
            if t.capped {
                write!(f, " · capped")?;
            }
            if let Some(stage) = t.parked_stage {
                write!(f, " · parked in {stage}")?;
            }
            if let Some(fin) = &t.finished {
                let impr = if fin.base_cost > 0.0 {
                    100.0 * (fin.base_cost - fin.recommended_cost) / fin.base_cost
                } else {
                    0.0
                };
                write!(f, " · {impr:.1}% improvement")?;
            }
            if let Some(reason) = &t.quarantine_reason {
                write!(f, " · {reason}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The multi-tenant session supervisor (module docs for the model).
///
/// Lifecycle: [`admit`](Self::admit) tenants, [`run`](Self::run) the
/// fleet, read the [`FleetReport`]; between runs,
/// [`manifest`](Self::manifest) snapshots and
/// [`recover`](Self::recover) rebuilds — the round trip is exercised by
/// the chaos tests in `crates/core/tests/robustness.rs`.
pub struct SessionSupervisor<'srv> {
    policy: SupervisorPolicy,
    fleet: SessionControl,
    tenants: Vec<Tenant<'srv>>,
    queue: VecDeque<usize>,
    rounds: u64,
    started: bool,
    stopped: Option<StopReason>,
    chaos: Option<ChaosHook>,
    registry: Arc<Registry>,
}

impl<'srv> SessionSupervisor<'srv> {
    /// A supervisor with no tenants yet.
    pub fn new(policy: SupervisorPolicy) -> Result<Self, SupervisorError> {
        policy.validate()?;
        let fleet = match policy.fleet_budget {
            Some(b) => SessionControl::with_budget(b),
            None => SessionControl::unlimited(),
        };
        Ok(SessionSupervisor {
            policy,
            fleet,
            tenants: Vec::new(),
            queue: VecDeque::new(),
            rounds: 0,
            started: false,
            stopped: None,
            chaos: None,
            registry: Arc::new(Registry { running: Mutex::new(BTreeMap::new()) }),
        })
    }

    /// Admit a tenant session. Before the first [`run`](Self::run) the
    /// run queue is seeded in tenant-id order regardless of admission
    /// order; a tenant admitted later joins at the back of the queue.
    pub fn admit(&mut self, spec: TenantSpec<'srv>) -> Result<(), SupervisorError> {
        if self.tenants.iter().any(|t| t.spec.id == spec.id) {
            return Err(SupervisorError::DuplicateTenant(spec.id));
        }
        self.tenants.push(Tenant::fresh(spec));
        if self.started {
            let idx = self.tenants.len() - 1;
            self.queue.push_back(idx);
        }
        Ok(())
    }

    /// Install the deterministic fault-injection hook (tests, chaos
    /// matrices). See [`ChaosHook`].
    pub fn set_chaos_hook(&mut self, hook: ChaosHook) {
        self.chaos = Some(hook);
    }

    /// A cloneable control surface for preemption and fleet cancel.
    pub fn handle(&self) -> SupervisorHandle {
        SupervisorHandle { fleet: self.fleet.cancel_handle(), registry: Arc::clone(&self.registry) }
    }

    /// The policy this supervisor schedules under.
    pub fn policy(&self) -> &SupervisorPolicy {
        &self.policy
    }

    /// Replace the fleet-wide work budget (`None` = unbounded) of a live
    /// supervisor: what an operator does to a fleet that
    /// [`run`](Self::run) left parked on an exhausted budget, without a
    /// [`manifest`](Self::manifest)/[`recover`](Self::recover) cycle that
    /// would rebuild every parked session from its serialized form. The
    /// ledger keeps what it has consumed; a budget below that is refused.
    pub fn set_fleet_budget(&mut self, budget: Option<u64>) -> Result<(), SupervisorError> {
        self.fleet.set_budget(budget)?;
        self.policy.fleet_budget = budget;
        Ok(())
    }

    /// Run the fleet until every tenant reaches a terminal state or the
    /// fleet ledger stops granting (budget exhausted / cancelled).
    /// Parked tenants stay parked in the latter case, live: raise the
    /// budget ([`set_fleet_budget`](Self::set_fleet_budget)) and `run`
    /// again, or call [`manifest`](Self::manifest) to persist them.
    pub fn run(&mut self) -> FleetReport {
        if !self.started {
            self.started = true;
            if self.queue.is_empty() {
                self.seed_queue();
            }
        }
        self.stopped = None;
        loop {
            let (mut batch, stalled) = self.plan_turn();
            if batch.is_empty() {
                if stalled {
                    self.stopped = self.fleet.stop();
                    break;
                }
                if self.queue.is_empty() {
                    // every tenant is terminal (or capped out of the queue)
                    break;
                }
                // a backoff-only turn: owed turns were decremented while
                // planning; count the turn and go around
                self.rounds += 1;
                continue;
            }
            let reports = self.run_turn(&mut batch);
            for (planned, report) in batch.into_iter().zip(reports) {
                self.apply(planned, report);
            }
            self.rounds += 1;
        }
        self.report()
    }

    /// Seed the run queue with every runnable tenant, in id order.
    fn seed_queue(&mut self) {
        let mut order: Vec<(&str, usize)> = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.runnable())
            .map(|(i, t)| (t.spec.id.as_str(), i))
            .collect();
        order.sort();
        self.queue = order.into_iter().map(|(_, i)| i).collect();
    }

    /// Serial scheduling point: pop up to `workers` runnable tenants,
    /// plan their grants and take their sessions out for the slice.
    /// Returns the batch and whether the fleet ledger refused a grant
    /// (budget exhausted or cancelled).
    fn plan_turn(&mut self) -> (Vec<Planned>, bool) {
        let mut batch: Vec<Planned> = Vec::new();
        let mut deferred: Vec<usize> = Vec::new();
        let mut stalled = false;
        // bound the scan to one pass over the queue as it stood at turn
        // start, so a deferred tenant is not re-examined this turn
        let mut passes = self.queue.len();
        while batch.len() < self.policy.workers && passes > 0 {
            passes -= 1;
            let Some(idx) = self.queue.pop_front() else { break };
            let Some(tenant) = self.tenants.get_mut(idx) else { continue };
            if !tenant.runnable() {
                continue;
            }
            if let Some(cap) = self.policy.tenant_unit_cap {
                if tenant.consumed >= cap {
                    // noisy neighbor: park permanently (stays in the
                    // manifest as parked+capped, out of the queue)
                    tenant.capped = true;
                    continue;
                }
            }
            if tenant.slices >= self.policy.max_slices_per_tenant {
                tenant.status = TenantStatus::Quarantined;
                tenant.quarantine_reason =
                    Some("slice cap exceeded without completing (livelock guard)".into());
                continue;
            }
            if tenant.backoff_owed > 0 {
                tenant.backoff_owed -= 1;
                deferred.push(idx);
                continue;
            }
            let grant = self.fleet.grant(self.policy.quantum);
            if grant == 0 {
                // ledger refused: put the tenant back at the front and
                // stop planning — in-flight refunds may reopen it later
                self.queue.push_front(idx);
                stalled = true;
                break;
            }
            batch.push(Planned { idx, grant, session: tenant.session.take() });
        }
        for idx in deferred {
            self.queue.push_back(idx);
        }
        (batch, stalled)
    }

    /// Execute one turn's slices, one scoped worker thread per slice.
    /// Slices touch disjoint tenants, so parallel execution cannot
    /// reorder anything observable; outcomes are applied in plan order.
    /// The sessions stay in `batch`, on this thread's stack: a worker
    /// borrows its own, so not even a dying worker thread can lose one.
    fn run_turn(&self, batch: &mut [Planned]) -> Vec<SliceReport> {
        if let [only] = batch {
            // fast path: no thread spawn for a single slice
            return vec![self.run_slice(only)];
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = batch
                .iter_mut()
                .map(|planned| scope.spawn(move || self.run_slice(planned)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // run_slice catches panics itself; a panicking
                    // worker thread is still contained here
                    h.join().unwrap_or_else(|_| {
                        SliceReport::failed("slice worker thread panicked".into())
                    })
                })
                .collect()
        })
    }

    /// Run one tenant slice under containment. Worker-thread context:
    /// must not touch supervisor state other than the registry.
    fn run_slice(&self, planned: &mut Planned) -> SliceReport {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let Some(tenant) = self.tenants.get(planned.idx) else {
            return SliceReport::failed("tenant index out of range".into());
        };
        let before = planned.session.as_ref().map_or(0, Session::consumed_units);
        let control = match SessionControl::resumed(before, Some(planned.grant)) {
            Ok(c) => c,
            Err(e) => return SliceReport::failed(e.to_string()),
        };
        self.registry.running.lock().insert(tenant.spec.id.clone(), control.cancel_handle());
        if self.fleet.is_cancelled() {
            control.cancel_handle().cancel();
        }
        // a tenant that has never parked starts (and, should the slice
        // fail, starts again) from its spec
        let parked = planned.session.is_some();
        let run = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &self.chaos {
                hook(&SliceContext {
                    tenant: &tenant.spec.id,
                    slice: tenant.slices,
                    cancel: control.cancel_handle(),
                });
            }
            let target = TuningTarget::Single(tenant.spec.server);
            let session = planned
                .session
                .get_or_insert_with(|| Session::new(&tenant.spec.workload, &tenant.spec.options));
            // a slice that parks prices no report and builds no result;
            // the one that completes the session reports it, once
            Ok(match session.run(&target, &control, &NOOP)? {
                Completion::Complete => Some(session.finish(&target, &control, &NOOP)?),
                Completion::BudgetExhausted { .. } | Completion::Cancelled { .. } => None,
            })
        }));
        self.registry.running.lock().remove(&tenant.spec.id);
        let outcome = match run {
            Ok(Ok(Some(result))) => SliceOutcome::Finished(Box::new(result)),
            Ok(Ok(None)) => SliceOutcome::Parked,
            Ok(Err(e)) => SliceOutcome::Failed(session_error_message(&e)),
            Err(payload) => SliceOutcome::Failed(panic_message(&payload)),
        };
        if !parked && matches!(outcome, SliceOutcome::Failed(_)) {
            planned.session = None;
        }
        SliceReport {
            outcome,
            used: control.consumed().saturating_sub(before),
            counters: control.counters().snapshot(),
        }
    }

    /// Serial apply point: settle the ledger, absorb telemetry, put the
    /// session back and route the tenant to its next state. Applied in
    /// plan order, so the fleet ledger trajectory is identical at any
    /// worker count.
    fn apply(&mut self, planned: Planned, report: SliceReport) {
        let Planned { idx, grant, session } = planned;
        // settle the fleet ledger first: refund unused grant, charge
        // truthful overshoot
        if report.used < grant {
            self.fleet.refund(grant - report.used);
        } else if report.used > grant {
            self.fleet.charge(report.used - grant);
        }
        let Some(tenant) = self.tenants.get_mut(idx) else {
            return;
        };
        tenant.slices += 1;
        tenant.consumed = tenant.consumed.saturating_add(report.used);
        tenant.counters.absorb(&report.counters);
        tenant.session = session;
        match report.outcome {
            SliceOutcome::Finished(result) => {
                tenant.status = TenantStatus::Completed;
                tenant.retries = 0;
                tenant.session = None;
                tenant.finished = Some(FinishedSession {
                    recommendation: result.recommendation.clone(),
                    base_cost: result.base_cost,
                    recommended_cost: result.recommended_cost,
                    result: Some(result),
                });
            }
            SliceOutcome::Parked => {
                tenant.status = TenantStatus::Parked;
                tenant.retries = 0;
                self.queue.push_back(idx);
            }
            SliceOutcome::Failed(reason) => {
                tenant.retries += 1;
                if tenant.retries > self.policy.max_session_retries {
                    tenant.status = TenantStatus::Quarantined;
                    tenant.quarantine_reason = Some(reason);
                } else {
                    // deterministic exponential backoff, in scheduling
                    // turns: base << (retries - 1), saturating
                    let shift = tenant.retries.saturating_sub(1).min(62);
                    tenant.backoff_owed =
                        self.policy.backoff_turns.checked_shl(shift).unwrap_or(u64::MAX);
                    self.queue.push_back(idx);
                }
            }
        }
    }

    /// Snapshot the fleet for persistence (`dta-xml`'s
    /// `manifest_to_xml`) and later [`recover`](Self::recover). This is
    /// where parked sessions are serialized — each to a checkpoint, by
    /// value, here and not per slice.
    pub fn manifest(&self) -> FleetManifest {
        let mut rows: Vec<TenantManifest> = self
            .tenants
            .iter()
            .map(|t| TenantManifest {
                id: t.spec.id.clone(),
                status: t.status,
                consumed: t.consumed,
                slices: t.slices,
                retries: t.retries,
                backoff_owed: t.backoff_owed,
                capped: t.capped,
                quarantine_reason: t.quarantine_reason.clone(),
                checkpoint: t.session.as_ref().map(|s| Box::new(s.checkpoint())),
                finished: t.finished.as_ref().map(|f| FinishedSession {
                    recommendation: f.recommendation.clone(),
                    base_cost: f.base_cost,
                    recommended_cost: f.recommended_cost,
                    // manifests carry only what recovery needs
                    result: None,
                }),
                counters: t.counters,
            })
            .collect();
        rows.sort_by(|a, b| a.id.cmp(&b.id));
        FleetManifest {
            quantum: self.policy.quantum,
            rounds: self.rounds,
            fleet_consumed: self.fleet.consumed(),
            fleet_budget: self.fleet.budget(),
            queue: self
                .queue
                .iter()
                .filter_map(|&i| self.tenants.get(i).map(|t| t.spec.id.clone()))
                .collect(),
            tenants: rows,
        }
    }

    /// Rebuild a supervisor from a persisted manifest after a process
    /// restart. `specs` re-attach each manifest tenant to its (still
    /// running) database server — exactly one spec per manifest row,
    /// matched by id. The manifest is authoritative for the scheduling
    /// quantum, the queue order, and the fleet ledger; `policy`
    /// supplies the rest (workers, containment, caps).
    ///
    /// Resuming a parked session requires the *same* server state the
    /// checkpoint was cut against (created statistics included) —
    /// tuning targets are external servers that survive an advisor
    /// restart. Pointing a spec at a rebuilt, statistics-less server
    /// diverges; that is a usage error, not a detected one.
    pub fn recover(
        policy: SupervisorPolicy,
        manifest: &FleetManifest,
        specs: Vec<TenantSpec<'srv>>,
    ) -> Result<Self, SupervisorError> {
        let mut policy = policy;
        policy.quantum = manifest.quantum;
        policy.fleet_budget = manifest.fleet_budget;
        policy.validate()?;
        let mut by_id: BTreeMap<String, TenantSpec<'srv>> = BTreeMap::new();
        for spec in specs {
            let id = spec.id.clone();
            if by_id.insert(id.clone(), spec).is_some() {
                return Err(SupervisorError::DuplicateTenant(id));
            }
        }
        let mut tenants: Vec<Tenant<'srv>> = Vec::with_capacity(manifest.tenants.len());
        for row in &manifest.tenants {
            let Some(spec) = by_id.remove(&row.id) else {
                return Err(SupervisorError::ManifestMismatch(format!(
                    "manifest tenant {:?} has no spec to re-attach to",
                    row.id
                )));
            };
            if matches!(row.status, TenantStatus::Parked) && row.checkpoint.is_none() {
                return Err(SupervisorError::ManifestMismatch(format!(
                    "parked tenant {:?} carries no checkpoint",
                    row.id
                )));
            }
            let session =
                row.checkpoint.as_deref().map(Session::from_checkpoint).transpose().map_err(
                    |e| SupervisorError::ManifestMismatch(format!("tenant {:?}: {e}", row.id)),
                )?;
            tenants.push(Tenant {
                spec,
                status: row.status,
                session,
                finished: row.finished.clone(),
                quarantine_reason: row.quarantine_reason.clone(),
                consumed: row.consumed,
                slices: row.slices,
                retries: row.retries,
                backoff_owed: row.backoff_owed,
                capped: row.capped,
                counters: row.counters,
            });
        }
        if let Some(extra) = by_id.keys().next() {
            return Err(SupervisorError::ManifestMismatch(format!(
                "spec for tenant {extra:?} has no manifest row"
            )));
        }
        let fleet = SessionControl::restored(manifest.fleet_consumed, manifest.fleet_budget)?;
        let index_of: BTreeMap<&str, usize> =
            tenants.iter().enumerate().map(|(i, t)| (t.spec.id.as_str(), i)).collect();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for id in &manifest.queue {
            let Some(&i) = index_of.get(id.as_str()) else {
                return Err(SupervisorError::ManifestMismatch(format!(
                    "queued tenant {id:?} has no manifest row"
                )));
            };
            queue.push_back(i);
        }
        // runnable tenants the captured queue does not cover (e.g. a
        // manifest taken before the first run, or a cap that the new
        // policy lifted) re-enter in id order
        let allowed = |t: &Tenant<'srv>| match policy.tenant_unit_cap {
            Some(cap) => t.consumed < cap,
            None => true,
        };
        let mut missing: Vec<(&str, usize)> = tenants
            .iter()
            .enumerate()
            .filter(|(i, t)| t.runnable() && allowed(t) && !queue.contains(i))
            .map(|(i, t)| (t.spec.id.as_str(), i))
            .collect();
        missing.sort();
        let late: Vec<usize> = missing.into_iter().map(|(_, i)| i).collect();
        queue.extend(late);
        Ok(SessionSupervisor {
            policy,
            fleet,
            tenants,
            queue,
            rounds: manifest.rounds,
            started: true,
            stopped: None,
            chaos: None,
            registry: Arc::new(Registry { running: Mutex::new(BTreeMap::new()) }),
        })
    }

    /// The current fleet outcome (the same shape [`run`](Self::run)
    /// returns), in tenant-id order.
    pub fn report(&self) -> FleetReport {
        let mut rows: Vec<TenantOutcome> = self
            .tenants
            .iter()
            .map(|t| TenantOutcome {
                id: t.spec.id.clone(),
                status: t.status,
                capped: t.capped,
                consumed: t.consumed,
                slices: t.slices,
                retries: t.retries,
                quarantine_reason: t.quarantine_reason.clone(),
                parked_stage: t.session.as_ref().and_then(Session::parked_stage),
                finished: t.finished.clone(),
                counters: t.counters,
            })
            .collect();
        rows.sort_by(|a, b| a.id.cmp(&b.id));
        FleetReport {
            tenants: rows,
            rounds: self.rounds,
            fleet_consumed: self.fleet.consumed(),
            fleet_budget: self.fleet.budget(),
            stopped: self.stopped,
        }
    }
}

/// Best-effort human-readable payload of a caught panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("slice panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("slice panicked: {s}")
    } else {
        "slice panicked (non-string payload)".into()
    }
}

/// Flatten a session error into the quarantine reason string.
fn session_error_message(e: &TuneError) -> String {
    format!("session failed: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::CounterTotals;
    use crate::options::TuningOptions;

    fn spec<'a>(id: &str, server: &'a Server) -> TenantSpec<'a> {
        TenantSpec::new(id, server, Workload::from_items(Vec::new()), TuningOptions::default())
    }

    fn row(id: &str, status: TenantStatus) -> TenantManifest {
        TenantManifest {
            id: id.into(),
            status,
            consumed: 0,
            slices: 0,
            retries: 0,
            backoff_owed: 0,
            capped: false,
            quarantine_reason: None,
            checkpoint: None,
            finished: None,
            counters: CounterTotals::new(),
        }
    }

    fn manifest(rows: Vec<TenantManifest>, queue: Vec<String>) -> FleetManifest {
        FleetManifest {
            quantum: 64,
            rounds: 0,
            fleet_consumed: 0,
            fleet_budget: None,
            queue,
            tenants: rows,
        }
    }

    #[test]
    fn zero_valued_policy_knobs_are_rejected() {
        for policy in [
            SupervisorPolicy { quantum: 0, ..SupervisorPolicy::default() },
            SupervisorPolicy { workers: 0, ..SupervisorPolicy::default() },
            SupervisorPolicy { max_slices_per_tenant: 0, ..SupervisorPolicy::default() },
        ] {
            let err = SessionSupervisor::new(policy).err().expect("policy must be rejected");
            assert!(matches!(err, SupervisorError::InvalidPolicy(_)), "{err}");
        }
    }

    #[test]
    fn duplicate_tenant_ids_are_rejected_at_admission() {
        let server = Server::new("s");
        let mut sup = SessionSupervisor::new(SupervisorPolicy::default()).unwrap();
        sup.admit(spec("twin", &server)).unwrap();
        let err = sup.admit(spec("twin", &server)).expect_err("duplicate must be rejected");
        assert!(matches!(err, SupervisorError::DuplicateTenant(id) if id == "twin"), "twin");
    }

    #[test]
    fn recover_rejects_manifests_that_do_not_match_the_specs() {
        let server = Server::new("s");
        let policy = SupervisorPolicy::default;

        // a manifest row with no spec to re-attach to
        let err = SessionSupervisor::recover(
            policy(),
            &manifest(vec![row("a", TenantStatus::Queued)], vec![]),
            vec![],
        )
        .err()
        .expect("orphan row");
        assert!(err.to_string().contains("no spec"), "{err}");

        // a spec with no manifest row
        let err = SessionSupervisor::recover(
            policy(),
            &manifest(vec![row("a", TenantStatus::Queued)], vec![]),
            vec![spec("a", &server), spec("b", &server)],
        )
        .err()
        .expect("orphan spec");
        assert!(err.to_string().contains("no manifest row"), "{err}");

        // two specs claiming the same row
        let err = SessionSupervisor::recover(
            policy(),
            &manifest(vec![row("a", TenantStatus::Queued)], vec![]),
            vec![spec("a", &server), spec("a", &server)],
        )
        .err()
        .expect("duplicate spec");
        assert!(matches!(err, SupervisorError::DuplicateTenant(_)), "{err}");

        // a parked tenant whose checkpoint went missing
        let err = SessionSupervisor::recover(
            policy(),
            &manifest(vec![row("a", TenantStatus::Parked)], vec![]),
            vec![spec("a", &server)],
        )
        .err()
        .expect("parked without checkpoint");
        assert!(err.to_string().contains("no checkpoint"), "{err}");

        // a queue entry naming a tenant that has no row
        let err = SessionSupervisor::recover(
            policy(),
            &manifest(vec![row("a", TenantStatus::Queued)], vec!["ghost".into()]),
            vec![spec("a", &server)],
        )
        .err()
        .expect("ghost queue entry");
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn recover_takes_quantum_and_budget_from_the_manifest() {
        let server = Server::new("s");
        let mut m = manifest(vec![row("a", TenantStatus::Queued)], vec![]);
        m.quantum = 7;
        m.fleet_budget = Some(1234);
        let sup = SessionSupervisor::recover(
            SupervisorPolicy { quantum: 999, fleet_budget: None, ..SupervisorPolicy::default() },
            &m,
            vec![spec("a", &server)],
        )
        .unwrap();
        assert_eq!(sup.policy().quantum, 7);
        assert_eq!(sup.policy().fleet_budget, Some(1234));
        // the runnable tenant missing from the captured queue re-enters
        let report = sup.report();
        assert_eq!(report.tenants.len(), 1);
        assert_eq!(report.fleet_budget, Some(1234));
    }
}
