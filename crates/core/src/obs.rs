//! Session observability: structured tracing, deterministic counters,
//! and bounded event logs for every Figure-1 stage (DESIGN.md §10).
//!
//! Two layers with very different determinism contracts:
//!
//! * **[`CounterSet`]** — always-on, deterministic tallies (what-if
//!   calls, cache hits/misses, retries/backoff, panic rescues, budget
//!   charges/grants, candidates generated/pruned). These feed
//!   `TuningResult` and checkpoints, so they are **byte-identical
//!   across runs and worker counts** — the counting sites are either
//!   serial coordination points or deterministic per-(item, config)
//!   evaluation paths.
//! * **[`SessionObserver`]** — an opt-in trace sink. [`NoopObserver`]
//!   is the zero-cost default; [`RecordingObserver`] aggregates
//!   hierarchical stage spans (wall-time plus counter deltas), per-shard
//!   cache statistics, and a bounded ring buffer of events.
//!
//! **Determinism quarantine.** Wall-clock time exists *only* in this
//! module (rule R9, clippy's `disallowed_types`, bans
//! `Instant`/`SystemTime` elsewhere in `crates/`, the benchmark harness
//! shim aside), and it flows *only* into report-only fields
//! (`wall_nanos`, the event ring). Nothing the recommendation path
//! reads ever depends on a clock: [`ObserverSummary::deterministic_digest`]
//! is the byte-comparable projection, and the tests in
//! `crates/core/tests/observability.rs` hold it identical across runs
//! and `parallel_workers` counts.

#![expect(
    clippy::disallowed_types,
    reason = "R9's sanctioned module: wall time is read here and only reported"
)]

use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Deterministic session counters. The variant order is the canonical
/// export order for text/JSON reports and snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// What-if optimizer calls issued: misses not derived, one per attempt.
    WhatIfCalls,
    /// Cost-cache lookups made that hit, across all shards; a greedy
    /// evaluation does not look up a statement that takes its base cost
    /// or an atom's (`CostEvaluator::priced`).
    CacheHits,
    /// Cost-cache misses (entries computed and inserted).
    CacheMisses,
    /// Transient what-if faults absorbed by retry.
    WhatIfRetries,
    /// Deterministic backoff units accounted across those retries.
    RetryBackoffUnits,
    /// Worker panics isolated and retried (`worker_restarts`).
    PanicRescues,
    /// Work units charged against the session budget.
    BudgetCharged,
    /// Work units granted from the session budget.
    BudgetGranted,
    /// Work units returned to the ledger (unused supervisor grants).
    BudgetRefunded,
    /// Candidate structures generated by per-query selection.
    CandidatesGenerated,
    /// Candidates dropped between generation and the merged pool.
    CandidatesPruned,
    /// Largest candidate-pool size observed (a gauge, kept via max).
    PeakPoolSize,
    /// Cache misses priced from recorded access paths instead of a
    /// what-if call (`CostEvaluator`'s derived costs).
    DerivedCosts,
    /// Phase-1 sets enumeration counted but did not price: their bound
    /// showed they could not undercut the round's front.
    PrunedSets,
}

impl Counter {
    /// Every counter, in canonical export order.
    pub const ALL: [Counter; 14] = [
        Counter::WhatIfCalls,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::WhatIfRetries,
        Counter::RetryBackoffUnits,
        Counter::PanicRescues,
        Counter::BudgetCharged,
        Counter::BudgetGranted,
        Counter::BudgetRefunded,
        Counter::CandidatesGenerated,
        Counter::CandidatesPruned,
        Counter::PeakPoolSize,
        Counter::DerivedCosts,
        Counter::PrunedSets,
    ];

    /// Number of counters (the slot-array length).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable camelCase name used by every export format.
    pub fn name(self) -> &'static str {
        match self {
            Counter::WhatIfCalls => "whatifCalls",
            Counter::CacheHits => "cacheHits",
            Counter::CacheMisses => "cacheMisses",
            Counter::WhatIfRetries => "whatifRetries",
            Counter::RetryBackoffUnits => "retryBackoffUnits",
            Counter::PanicRescues => "panicRescues",
            Counter::BudgetCharged => "budgetCharged",
            Counter::BudgetGranted => "budgetGranted",
            Counter::BudgetRefunded => "budgetRefunded",
            Counter::CandidatesGenerated => "candidatesGenerated",
            Counter::CandidatesPruned => "candidatesPruned",
            Counter::PeakPoolSize => "peakPoolSize",
            Counter::DerivedCosts => "derivedCosts",
            Counter::PrunedSets => "prunedSets",
        }
    }

    /// Inverse of [`Counter::name`]; `None` for unknown names. Used by
    /// the fleet-manifest XML schema to restore per-tenant totals.
    pub fn parse(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }

    fn slot(self) -> usize {
        self as usize
    }
}

/// A fixed array of atomic counters shared by [`crate::SessionControl`],
/// [`crate::cost::CostEvaluator`], and any attached observer. All
/// operations are `SeqCst`: the counters are read at serial coordination
/// points (span boundaries, the session epilogue, checkpoints), and no
/// library atomic is `Relaxed` (R6, DESIGN.md §8).
#[derive(Debug)]
pub struct CounterSet {
    slots: [AtomicU64; Counter::COUNT],
}

impl Default for CounterSet {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterSet {
    /// A zeroed counter set.
    pub fn new() -> Self {
        CounterSet { slots: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// The atomic behind `counter`.
    fn atom(&self, counter: Counter) -> &AtomicU64 {
        self.slots.get(counter.slot()).expect("Counter::slot() is bounded by Counter::COUNT")
    }

    /// Add `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.atom(counter).fetch_add(n, Ordering::SeqCst);
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.atom(counter).load(Ordering::SeqCst)
    }

    /// Raise `counter` to at least `n` (gauges such as peak pool size).
    pub fn raise(&self, counter: Counter, n: u64) {
        self.atom(counter).fetch_max(n, Ordering::SeqCst);
    }

    /// A point-in-time copy of every counter, in [`Counter::ALL`] order.
    pub fn snapshot(&self) -> [u64; Counter::COUNT] {
        std::array::from_fn(|i| {
            self.slots.get(i).expect("from_fn index is bounded by COUNT").load(Ordering::SeqCst)
        })
    }
}

/// Plain (non-atomic) per-tenant counter totals, accumulated by the
/// session supervisor from each slice's [`CounterSet`] snapshot at the
/// serial apply point. A slice's set starts at zero and nothing is ever
/// carried into it, so a snapshot is that slice's work alone and the
/// totals are what the tenant's session did. Gauges
/// ([`Counter::PeakPoolSize`]) merge via max; everything else sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterTotals {
    totals: [u64; Counter::COUNT],
}

impl CounterTotals {
    /// A zeroed total set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one slice's counter snapshot into the totals.
    pub fn absorb(&mut self, snapshot: &[u64; Counter::COUNT]) {
        for (c, v) in Counter::ALL.into_iter().zip(snapshot.iter().copied()) {
            let cur = self.get(c);
            match c {
                Counter::PeakPoolSize => self.set(c, cur.max(v)),
                _ => self.set(c, cur.saturating_add(v)),
            }
        }
    }

    /// Current total for `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.totals
            .get(counter.slot())
            .copied()
            .expect("Counter::slot() is bounded by Counter::COUNT")
    }

    /// Overwrite the total for `counter` (manifest restore).
    pub fn set(&mut self, counter: Counter, value: u64) {
        if let Some(slot) = self.totals.get_mut(counter.slot()) {
            *slot = value;
        }
    }

    /// The totals in [`Counter::ALL`] order.
    pub fn as_array(&self) -> &[u64; Counter::COUNT] {
        &self.totals
    }
}

/// Hierarchical span names, one per Figure-1 stage plus the two greedy
/// phases. String forms match [`crate::Stage`] where the stages overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// Per-statement pre-statistics costing.
    PreCosting,
    /// Column-group restriction (frequent itemsets).
    ColumnGroups,
    /// Reduced statistics creation (§5.2).
    Statistics,
    /// Per-query candidate selection.
    CandidateSelection,
    /// Candidate merging.
    Merging,
    /// Global Greedy(m,k) enumeration.
    Enumeration,
    /// Greedy Phase 1: exhaustive seeds up to size m.
    GreedyPhase1,
    /// Greedy Phase 2: one-at-a-time extensions to size k.
    GreedyPhase2,
    /// Report epilogue (base-cost pricing, recommendation assembly).
    Epilogue,
}

impl SpanName {
    /// Stable camelCase name used in span paths and exports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::PreCosting => "preCosting",
            SpanName::ColumnGroups => "columnGroups",
            SpanName::Statistics => "statistics",
            SpanName::CandidateSelection => "candidateSelection",
            SpanName::Merging => "merging",
            SpanName::Enumeration => "enumeration",
            SpanName::GreedyPhase1 => "greedyPhase1",
            SpanName::GreedyPhase2 => "greedyPhase2",
            SpanName::Epilogue => "epilogue",
        }
    }
}

impl fmt::Display for SpanName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Point-in-time per-shard cache statistics exported by
/// [`crate::cost::CostEvaluator::cache_stats`]. Shards are per workload
/// statement, so index `i` is also statement `i`'s tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Cache hits on this shard.
    pub hits: u64,
    /// Cache misses (entries computed) on this shard.
    pub misses: u64,
    /// Transient-fault retries absorbed on this shard.
    pub retries: u64,
    /// What-if optimizer calls issued for this shard (miss attempts).
    pub calls: u64,
}

/// Trace sink threaded through the tuning session. All methods default
/// to no-ops so `NoopObserver` (and minimal custom observers) cost
/// nothing. Spans are emitted only from serial coordination code, so
/// implementations never see concurrent enter/exit for the same stack.
pub trait SessionObserver: Send + Sync {
    /// Called once at session start with the session's counter set, so
    /// recording observers can snapshot counter deltas per span.
    fn attach_counters(&self, _counters: &Arc<CounterSet>) {}

    /// A stage (or greedy phase) began.
    fn span_enter(&self, _name: SpanName) {}

    /// The most recently entered stage ended.
    fn span_exit(&self, _name: SpanName) {}

    /// A discrete, report-only event (bounded ring buffer downstream).
    fn event(&self, _kind: &str, _detail: &str) {}

    /// Per-shard cache statistics, reported once at session end.
    fn record_cache_shards(&self, _shards: &[ShardSnapshot]) {}

    /// The aggregated trace, if this observer records one.
    fn summary(&self) -> Option<ObserverSummary> {
        None
    }
}

/// The zero-cost default observer: every hook is an empty default
/// method, so calls through `&NOOP` inline to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl SessionObserver for NoopObserver {}

/// Shared no-op instance for APIs that need a `&'static dyn` default.
pub static NOOP: NoopObserver = NoopObserver;

/// RAII span guard: enters on construction, exits on drop — so early
/// returns, `?`, and budget-cut `break`s still close the span.
pub struct Span<'a> {
    obs: &'a dyn SessionObserver,
    name: SpanName,
}

impl<'a> Span<'a> {
    /// Enter `name` on `obs`, closing it when the guard drops.
    pub fn enter(obs: &'a dyn SessionObserver, name: SpanName) -> Self {
        obs.span_enter(name);
        Span { obs, name }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.obs.span_exit(self.name);
    }
}

/// Ring-buffer capacity for report-only events.
pub const EVENT_CAP: usize = 256;

struct OpenSpan {
    name: SpanName,
    // span start time; feeds only the report-only wall_nanos aggregate
    started: Instant,
    at_enter: [u64; Counter::COUNT],
}

#[derive(Default)]
struct SpanAgg {
    enters: u64,
    wall_nanos: u128,
    whatif_calls: u64,
    work_units: u64,
}

struct RecState {
    counters: Option<Arc<CounterSet>>,
    stack: Vec<OpenSpan>,
    spans: BTreeMap<String, SpanAgg>,
    events: Vec<ObsEvent>,
    dropped_events: u64,
    shards: Vec<ShardSnapshot>,
}

/// An observer that aggregates spans, counters, shard statistics, and a
/// bounded event log into an [`ObserverSummary`]. One mutex guards the
/// whole state; every hook site is serial coordination code, so the
/// lock is uncontended.
pub struct RecordingObserver {
    state: Mutex<RecState>,
}

impl Default for RecordingObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordingObserver {
    /// A fresh recorder; counters attach when the session starts.
    pub fn new() -> Self {
        RecordingObserver {
            state: Mutex::new(RecState {
                counters: None,
                stack: Vec::new(),
                spans: BTreeMap::new(),
                events: Vec::new(),
                dropped_events: 0,
                shards: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RecState> {
        // the lock does not poison: a hook that panicked mid-record leaves
        // a best-effort trace, and recording goes on
        self.state.lock()
    }
}

impl SessionObserver for RecordingObserver {
    fn attach_counters(&self, counters: &Arc<CounterSet>) {
        self.lock().counters = Some(Arc::clone(counters));
    }

    fn span_enter(&self, name: SpanName) {
        let mut s = self.lock();
        let at_enter = match &s.counters {
            Some(c) => c.snapshot(),
            None => [0; Counter::COUNT],
        };
        s.stack.push(OpenSpan { name, started: Instant::now(), at_enter });
    }

    fn span_exit(&self, name: SpanName) {
        let mut s = self.lock();
        let open = match s.stack.pop() {
            Some(open) if open.name == name => open,
            // Mismatched or stray exit: drop it rather than corrupt the
            // aggregate — span sites are RAII guards, so this is a bug
            // signal, not a normal path.
            Some(open) => {
                s.stack.push(open);
                return;
            }
            None => return,
        };
        let mut path = String::new();
        for frame in &s.stack {
            path.push_str(frame.name.as_str());
            path.push('/');
        }
        path.push_str(name.as_str());
        let now = match &s.counters {
            Some(c) => c.snapshot(),
            None => open.at_enter,
        };
        let wall = open.started.elapsed().as_nanos();
        let agg = s.spans.entry(path).or_default();
        agg.enters += 1;
        agg.wall_nanos += wall;
        let since = |c: Counter| {
            now.get(c.slot()).zip(open.at_enter.get(c.slot())).map_or(0, |(n, at)| n - at)
        };
        agg.whatif_calls += since(Counter::WhatIfCalls);
        agg.work_units += since(Counter::BudgetCharged) + since(Counter::BudgetGranted);
    }

    fn event(&self, kind: &str, detail: &str) {
        let mut s = self.lock();
        if s.events.len() >= EVENT_CAP {
            s.events.remove(0);
            s.dropped_events += 1;
        }
        s.events.push(ObsEvent { kind: kind.to_string(), detail: detail.to_string() });
    }

    fn record_cache_shards(&self, shards: &[ShardSnapshot]) {
        self.lock().shards = shards.to_vec();
    }

    fn summary(&self) -> Option<ObserverSummary> {
        let s = self.lock();
        let counters = match &s.counters {
            Some(c) => c.snapshot(),
            None => [0; Counter::COUNT],
        };
        Some(ObserverSummary {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name().to_string(), counters.get(c.slot()).copied().unwrap_or(0)))
                .collect(),
            spans: s
                .spans
                .iter()
                .map(|(path, agg)| SpanSummary {
                    path: path.clone(),
                    enters: agg.enters,
                    wall_nanos: agg.wall_nanos,
                    whatif_calls: agg.whatif_calls,
                    work_units: agg.work_units,
                })
                .collect(),
            shards: s.shards.clone(),
            events: s.events.clone(),
            dropped_events: s.dropped_events,
        })
    }
}

/// A report-only event captured by [`RecordingObserver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Short machine-readable kind (e.g. `"stats"`, `"pool"`).
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
}

/// One aggregated span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// `'/'`-joined hierarchical path, e.g. `"enumeration/greedyPhase2"`.
    pub path: String,
    /// Times this path was entered.
    pub enters: u64,
    /// Total wall time inside the span — **report-only**, excluded from
    /// the deterministic digest.
    pub wall_nanos: u128,
    /// What-if calls issued while the span was open.
    pub whatif_calls: u64,
    /// Budget units charged + granted while the span was open.
    pub work_units: u64,
}

/// The aggregated trace of one tuning session.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserverSummary {
    /// `(name, value)` in [`Counter::ALL`] order.
    pub counters: Vec<(String, u64)>,
    /// Aggregated spans, sorted by path.
    pub spans: Vec<SpanSummary>,
    /// Per-shard (= per-statement) cache statistics.
    pub shards: Vec<ShardSnapshot>,
    /// Bounded event log — **report-only**: capture order under
    /// parallelism is not deterministic.
    pub events: Vec<ObsEvent>,
    /// Events evicted from the ring buffer.
    pub dropped_events: u64,
}

impl ObserverSummary {
    /// Value of `counter`, 0 when absent.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.iter().find(|(name, _)| name == counter.name()).map(|&(_, v)| v).unwrap_or(0)
    }

    /// Cache hit rate over hits + misses (0 when the cache was idle).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.counter(Counter::CacheHits);
        let total = hits + self.counter(Counter::CacheMisses);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The byte-comparable deterministic projection: every counter,
    /// span counter-deltas, and shard statistics — no wall time, no
    /// events. Equal strings ⇔ equal deterministic telemetry.
    pub fn deterministic_digest(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(name);
            out.push('=');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        for s in &self.spans {
            out.push_str(&format!(
                "span {} enters={} whatif={} work={}\n",
                s.path, s.enters, s.whatif_calls, s.work_units
            ));
        }
        for (i, sh) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "shard {i} hits={} misses={} retries={} calls={}\n",
                sh.hits, sh.misses, sh.retries, sh.calls
            ));
        }
        out
    }

    /// Stable-schema JSON (`dta-obs/v1`). Wall times ride along as
    /// report-only fields; consumers comparing runs should use the
    /// deterministic fields only.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"dta-obs/v1\",\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), value));
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"enters\":{},\"wallNanos\":{},\"whatifCalls\":{},\"workUnits\":{}}}",
                json_escape(&s.path),
                s.enters,
                s.wall_nanos,
                s.whatif_calls,
                s.work_units
            ));
        }
        out.push_str("],\"shards\":[");
        for (i, sh) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"hits\":{},\"misses\":{},\"retries\":{},\"calls\":{}}}",
                sh.hits, sh.misses, sh.retries, sh.calls
            ));
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"detail\":\"{}\"}}",
                json_escape(&e.kind),
                json_escape(&e.detail)
            ));
        }
        out.push_str(&format!("],\"droppedEvents\":{}}}", self.dropped_events));
        out
    }
}

impl fmt::Display for ObserverSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "session trace")?;
        writeln!(f, "  counters:")?;
        for (name, value) in &self.counters {
            writeln!(f, "    {name:<22} {value}")?;
        }
        if !self.spans.is_empty() {
            writeln!(f, "  spans (wall time is report-only):")?;
            for s in &self.spans {
                writeln!(
                    f,
                    "    {:<44} x{:<3} {:>10.3}ms  whatif={:<6} work={}",
                    s.path,
                    s.enters,
                    s.wall_nanos as f64 / 1.0e6,
                    s.whatif_calls,
                    s.work_units
                )?;
            }
        }
        if !self.shards.is_empty() {
            let (mut hits, mut misses) = (0u64, 0u64);
            for sh in &self.shards {
                hits += sh.hits;
                misses += sh.misses;
            }
            writeln!(
                f,
                "  cache: {} shards, {hits} hits / {misses} misses ({:.1}% hit rate)",
                self.shards.len(),
                100.0 * self.cache_hit_rate()
            )?;
        }
        if !self.events.is_empty() {
            writeln!(f, "  events ({} dropped):", self.dropped_events)?;
            for e in &self.events {
                writeln!(f, "    [{}] {}", e.kind, e.detail)?;
            }
        }
        Ok(())
    }
}

/// Minimal JSON string escaping for the dependency-free exporters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_set_add_get_raise() {
        let c = CounterSet::new();
        c.add(Counter::WhatIfCalls, 3);
        c.add(Counter::WhatIfCalls, 2);
        assert_eq!(c.get(Counter::WhatIfCalls), 5);
        c.raise(Counter::PeakPoolSize, 7);
        c.raise(Counter::PeakPoolSize, 4);
        assert_eq!(c.get(Counter::PeakPoolSize), 7);
        let snap = c.snapshot();
        assert_eq!(snap[Counter::WhatIfCalls as usize], 5);
        assert_eq!(snap[Counter::PeakPoolSize as usize], 7);
    }

    #[test]
    fn noop_observer_has_no_summary() {
        assert!(NOOP.summary().is_none());
    }

    #[test]
    fn recording_observer_aggregates_hierarchical_spans() {
        let counters = Arc::new(CounterSet::new());
        let obs = RecordingObserver::new();
        obs.attach_counters(&counters);
        {
            let _outer = Span::enter(&obs, SpanName::Enumeration);
            counters.add(Counter::WhatIfCalls, 2);
            {
                let _inner = Span::enter(&obs, SpanName::GreedyPhase1);
                counters.add(Counter::WhatIfCalls, 3);
                counters.add(Counter::BudgetGranted, 4);
            }
            {
                let _inner = Span::enter(&obs, SpanName::GreedyPhase2);
                counters.add(Counter::WhatIfCalls, 1);
            }
        }
        let sum = obs.summary().expect("recording observer summarizes");
        let paths: Vec<&str> = sum.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["enumeration", "enumeration/greedyPhase1", "enumeration/greedyPhase2"]
        );
        let outer = &sum.spans[0];
        assert_eq!(outer.enters, 1);
        assert_eq!(outer.whatif_calls, 6, "outer span includes nested deltas");
        let p1 = &sum.spans[1];
        assert_eq!(p1.whatif_calls, 3);
        assert_eq!(p1.work_units, 4);
        assert_eq!(sum.counter(Counter::WhatIfCalls), 6);
    }

    #[test]
    fn event_ring_buffer_is_bounded() {
        let obs = RecordingObserver::new();
        for i in 0..(EVENT_CAP + 10) {
            obs.event("k", &format!("e{i}"));
        }
        let sum = obs.summary().expect("summary");
        assert_eq!(sum.events.len(), EVENT_CAP);
        assert_eq!(sum.dropped_events, 10);
        assert_eq!(sum.events[0].detail, "e10", "oldest events evicted first");
    }

    #[test]
    fn digest_excludes_wall_time_and_events() {
        let counters = Arc::new(CounterSet::new());
        let obs = RecordingObserver::new();
        obs.attach_counters(&counters);
        {
            let _s = Span::enter(&obs, SpanName::Merging);
        }
        obs.event("noise", "nondeterministic");
        let sum = obs.summary().expect("summary");
        let digest = sum.deterministic_digest();
        assert!(digest.contains("span merging enters=1"), "{digest}");
        assert!(!digest.contains("nondeterministic"), "{digest}");
        assert!(!digest.contains("wall"), "{digest}");
    }

    #[test]
    fn json_export_is_stable_schema() {
        let counters = Arc::new(CounterSet::new());
        counters.add(Counter::CacheHits, 3);
        counters.add(Counter::CacheMisses, 1);
        let obs = RecordingObserver::new();
        obs.attach_counters(&counters);
        obs.record_cache_shards(&[ShardSnapshot { hits: 3, misses: 1, retries: 0, calls: 1 }]);
        let sum = obs.summary().expect("summary");
        let json = sum.to_json();
        assert!(json.starts_with("{\"schema\":\"dta-obs/v1\""), "{json}");
        for c in Counter::ALL {
            assert!(json.contains(&format!("\"{}\":", c.name())), "missing {} in {json}", c.name());
        }
        assert!(json.contains("\"shards\":[{\"hits\":3,\"misses\":1,\"retries\":0,\"calls\":1}]"));
        assert!((sum.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_escape_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
