//! Workload cost evaluation with a shared, thread-safe per-statement
//! cache.
//!
//! Every configuration DTA explores is priced as the weighted sum of
//! optimizer-estimated statement costs (§2.2). Four optimizations keep
//! the what-if calls and the lookups manageable without changing any
//! result:
//!
//! 1. **Relevance filtering** — the configuration is projected onto the
//!    structures that can affect the statement's plan before the what-if
//!    call. Clustered indexes and heap partitionings on a table the
//!    statement references are kept, whatever columns they hold: a
//!    clustered index replaces the heap and a partitioning changes every
//!    scan. A non-clustered index on such a table `T` is dropped when all
//!    four of these hold: (a) no seekable sarg column and no join column
//!    of any binding of `T` leads its key, so it is never sought nor
//!    probed; (b) it lacks a column that every binding of `T` requires,
//!    so it covers none — with a binding that requires nothing
//!    (`SELECT COUNT(*) FROM T`) every index covers and none is dropped;
//!    (c) the statement does not insert into or delete from `T`, which
//!    maintains every index, and it updates no column the index holds,
//!    partitioning column included; (d) the statement binds. A view
//!    joining such a table is kept by DML, which maintains it, and by a
//!    statement that does not bind; a SELECT keeps it only if the view
//!    can answer it — the full-match test the planner runs before it
//!    costs a view ([`PreparedStatement::view_use`]). The planner
//!    never reads what is dropped, so the projection prices bit for bit
//!    like the whole configuration: same cost, rows, plan and used
//!    structures ([`PreparedStatement::column_use`] states the index
//!    rule; the `prepared_equivalence` test holds the planner to both).
//!    The common cases are an index sharing no column with what the
//!    statement names on `T`, which meets (a) to (c) at once, and a view
//!    grouped or filtered on columns other than the statement's;
//! 2. **Memoization** — the projected configuration is fingerprinted and
//!    the (statement, fingerprint) → cost mapping cached, so greedy steps
//!    that add nothing a statement can see are free;
//! 3. **Delta pricing** — a greedy evaluation prices `base ∪ S` against a
//!    reference configuration whose per-statement costs were read from
//!    the cache at a serial point (the base in Phase 1, the incumbent in
//!    Phase 2), given the structures by which the two differ. A statement
//!    none of those structures is relevant to projects both alike, so
//!    its lookup would hit the entry its reference cost came from: it
//!    takes that cost and is not looked up at all
//!    ([`CostEvaluator::delta_cost`]). The sum is the same bits, and only
//!    cache hits go uncounted;
//! 4. **Atomic costs** — once Phase 1 has priced every singleton, each
//!    candidate's [`Atom`] holds its delta from the base and the cost of
//!    each statement that delta reaches, read at a serial point. A
//!    Phase-1 set whose delta is the disjoint union of its members' is
//!    priced from them with no relevance scan: a statement one atom
//!    reaches takes that atom's cost, one none reaches its base cost, and
//!    only one that two atoms reach is looked up
//!    ([`CostEvaluator::atomic_cost`]). Every skipped lookup would have
//!    hit the singleton's entry, so again only hits go uncounted. Every
//!    path sums in one workload-order loop.
//!
//! The evaluator is `Send + Sync` so ONE instance (and therefore one
//! cache) serves the whole tuning session — pre-cost estimation,
//! parallel per-query candidate selection, and parallel enumeration all
//! share hits. The cache is sharded by statement index
//! (`RwLock<HashMap>` per statement), so concurrent lookups of different
//! statements never contend and lookups of the same statement contend
//! only on a reader-writer lock. Two threads racing on the same miss are
//! deduplicated through a per-shard in-flight set: exactly one issues
//! the what-if call while the others wait for the cache entry and count
//! a hit. The dedup is what makes the observability counters (what-if
//! calls, hits, misses, retries) byte-identical across worker counts —
//! each unique (statement, fingerprint) pair costs one miss and one
//! server call no matter how the scheduler interleaves the lookups.
//!
//! Fingerprints are computed without allocating or hashing, and without
//! reading a structure off the statement's tables: every structure in a
//! [`Configuration`] carries its content hash, the integer keys of its
//! tables and fixed-size masks of its columns (see
//! [`dta_physical::StructureHandle`]), and each shard — from its first
//! lookup on — the keys of its statement's tables with a [`ColumnUse`] of
//! each, and the statement's side of view matching (`Relevance`). A
//! lookup prices through an [`Overlay`], a configuration indexed by table
//! ([`crate::overlay`]). It walks only those tables' structures, testing
//! each against that table's use ([`StructureHandle::serves`]), then the
//! views joining them, testing each with the planner's full-match rule,
//! and combines the hashes of the relevant structures with
//! order-independent arithmetic. Two column names sharing a mask bit can
//! only keep an index relevant, so the masks cost no exactness. The hot
//! path (a cache hit) therefore allocates nothing, reads a string only to
//! match such a view, and costs the statement's tables, not the
//! configuration. The projected [`Configuration`] is only materialized
//! on a miss, as pointer copies, where the what-if call dwarfs it. A [`Configuration`] handed to a
//! public entry point is indexed once per call: on every table for
//! [`CostEvaluator::workload_cost`], on the statement's tables only for
//! [`CostEvaluator::item_cost`].
//!
//! What the evaluator *learns* — the shards with their caches, relevance
//! and prepared statements, the fallback costs, the degraded set — is a
//! `CacheState` with no lifetime in it; the [`CostEvaluator`] is the
//! borrowed façade over `(target, items, counters)` that prices through
//! one. A standalone evaluator owns a fresh state. A tuning session
//! (`crate::session::Session`) owns one for as long as it lives and
//! lends it to the evaluator of each `run`, so a session parked between
//! two supervisor slices keeps its cache where it is. The state is also
//! where a slice becomes a transaction: `CacheState::begin` opens one,
//! and `CacheState::rollback` takes back every entry, degraded mark and
//! fallback it wrote (DESIGN.md §9).
//!
//! Debug builds additionally run the sanitizer-lite checks from
//! [`crate::invariants`]: every cache hit re-derives a second,
//! independent fingerprint to detect primary-key collisions, every
//! cached cost must be finite and non-negative, weighted sums must
//! accumulate monotonically, the shard table must stay one-to-one with
//! the workload, and a statement priced without a lookup — at its
//! reference cost or an atom's — must find that very cost cached for the
//! evaluated configuration. All of it
//! compiles away under `--release`.

use crate::invariants;
use crate::obs::{Counter, CounterSet, ShardSnapshot};
use crate::overlay::{Indexed, Overlay};
use dta_optimizer::{PreparedStatement, ViewUse};
use dta_physical::{table_key, ColumnUse, Configuration, PhysicalStructure, StructureHandle};
use dta_server::{FaultKind, ServerError, TuningTarget};
use dta_stats::RetryPolicy;
use dta_workload::WorkloadItem;
use parking_lot::{Mutex, Rank, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A memoized what-if result for one (statement, projected config) pair.
#[derive(Debug, Clone)]
struct CacheEntry {
    cost: f64,
    /// Names of the structures the plan uses (for §6.3 reports): the
    /// handles' shared names, not the handles, so an entry keeps no
    /// structure alive — a lazily synthesized variant is dropped with
    /// the evaluation that made it.
    used_structures: Box<[Arc<str>]>,
    /// Secondary fingerprint for debug-build collision detection
    /// ([`invariants::check_fingerprint`]); 0 in release builds. Its low
    /// half: 32 independent bits catch a collision as surely as 64 for
    /// every purpose a debug build has, and the other four bytes are
    /// `slice` — the entry is no larger for carrying a stamp.
    verify: u32,
    /// The slice that priced the entry ([`CacheState::begin`]): what a
    /// rollback of that slice drops.
    slice: u32,
}

/// One exported cache entry, for checkpointing a session's warmed cache
/// (resume imports these so it re-prices nothing it already priced).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheExport {
    /// Workload item index the entry belongs to.
    pub item: usize,
    /// Primary fingerprint of the projected configuration.
    pub fingerprint: u64,
    /// Cached optimizer estimate.
    pub cost: f64,
    /// Structures the cached plan uses.
    pub used_structures: Vec<String>,
    /// Secondary fingerprint (0 when the writer had invariants off).
    pub verify: u64,
}

/// A shard's cost cache and in-flight claims, keyed by fingerprint: probed
/// by key, filtered, and listed only through sorted keys
/// (`CacheState::export`).
#[expect(clippy::disallowed_types, reason = "probed by key; export sorts the keys")]
type HashMap<K, V> = std::collections::HashMap<K, V>;
#[expect(clippy::disallowed_types, reason = "probed by key, never iterated")]
type HashSet<T> = std::collections::HashSet<T>;

/// Cached names as a report and a checkpoint list them.
fn names(used: &[Arc<str>]) -> Vec<String> {
    used.iter().map(|n| n.to_string()).collect()
}

/// Releases an in-flight fingerprint claim on drop, so an early `?`
/// return cannot leave waiters spinning on a claim nobody will finish.
struct ClaimGuard<'g> {
    set: &'g Mutex<HashSet<u64>>,
    fp: u64,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        self.set.lock().remove(&self.fp);
    }
}

/// Per-shard (= per-statement) cache statistics: hits, misses, retries,
/// and what-if calls, each a monotonic atomic tally.
#[derive(Debug, Default)]
struct ShardStat {
    hits: AtomicU64,
    misses: AtomicU64,
    retries: AtomicU64,
    calls: AtomicU64,
}

impl ShardStat {
    fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            retries: self.retries.load(Ordering::SeqCst),
            calls: self.calls.load(Ordering::SeqCst),
        }
    }
}

/// Which structures a statement can see: per table it references, sorted
/// by [`table_key`], how it uses the table's columns
/// ([`PreparedStatement::column_use`]), and which views joining those
/// tables it can use ([`PreparedStatement::view_use`]).
pub(crate) struct Relevance {
    tables: Box<[(u64, ColumnUse)]>,
    /// The views' side, from the statement's latest preparation: it
    /// depends on the binding alone, so any preparation gives the same
    /// verdicts, and holding the latest keeps no earlier one's view
    /// matching alive beside it.
    views: RwLock<ViewUse>,
}

impl Relevance {
    /// The statement's tables and their use, sorted by key.
    #[inline]
    pub(crate) fn tables(&self) -> &[(u64, ColumnUse)] {
        &self.tables
    }

    /// Whether `h` can affect the statement: a structure on one of its
    /// tables that [`StructureHandle::serves`] its use of it, or a view
    /// joining one of them that [`ViewUse::admits`].
    #[inline]
    pub(crate) fn admits(&self, h: &StructureHandle) -> bool {
        h.relevant_to(&self.tables)
            && match h.structure() {
                PhysicalStructure::View(v) => self.views.read().admits(v),
                _ => true,
            }
    }
}

// Lock ranks (DESIGN.md §8). A shard's claims are held while its cache
// is read, and a read cache entry while the statement's view use is
// checked; `CacheState`'s undo is held while the slice's degraded set
// and fallbacks are snapshotted. The other locks here are leaves.
const CLAIMS: Rank = Rank::outer(1);
const CACHE: Rank = Rank::outer(2);
const UNDO: Rank = Rank::outer(1);

/// Everything the evaluator keeps for one statement.
struct Shard {
    /// The statement's [`Relevance`], fixed on the shard's first lookup.
    relevance: OnceLock<Relevance>,
    /// The statement's cache.
    cache: RwLock<HashMap<u64, CacheEntry>>,
    /// Fingerprints currently being priced. Concurrent misses on the
    /// same fingerprint dedup through this set so hit/miss/call tallies
    /// stay deterministic across worker counts.
    in_flight: Mutex<HashSet<u64>>,
    /// Hit/miss/retry/call tallies.
    stat: ShardStat,
    /// The statement prepared for what-if calls: made on the shard's
    /// first miss that reaches the server — an evaluator that only ever
    /// hits, or lives for one supervisor slice, prepares nothing it does
    /// not price — and re-made when the target's estimate epoch has
    /// moved past its stamp.
    prepared: RwLock<Option<Arc<PreparedStatement>>>,
}

/// What [`CacheState::rollback`] puts back. The two sets are small and
/// copied when the slice begins; the caches are not — entries carry the
/// stamp of the slice that priced them, and an invalidation hands over
/// the maps it empties.
struct Undo {
    degraded: BTreeSet<usize>,
    fallbacks: Vec<f64>,
    /// Misses tallied when the slice began: one that has tallied no more
    /// cached nothing, and its rollback — the one after every report of
    /// a complete session — has no entries to look for.
    misses: u64,
    /// Per shard, the cache [`CacheState::invalidate`] emptied during the
    /// slice: what earlier slices priced, and what this one had so far.
    invalidated: Option<Vec<HashMap<u64, CacheEntry>>>,
}

/// Everything pricing a workload accumulates, and nothing borrowed: one
/// shard per statement (cache, relevance, preparation, tallies), the
/// fallback costs and the degraded set. Every field is behind a lock or
/// an atomic, so whoever owns the state — a standalone
/// [`CostEvaluator`], or a [`crate::session::Session`] across all its
/// runs — shares it with the evaluator at work by `Arc`.
pub(crate) struct CacheState {
    /// One shard per statement, in workload order.
    shards: Vec<Shard>,
    /// Per-item fallback costs used when a statement degrades (its
    /// pre-statistics base cost; 0.0 until the session sets them, and
    /// 0.0 for an item whose pre-costing itself failed — constant per
    /// item either way, so degraded items cancel out of comparisons).
    fallbacks: RwLock<Vec<f64>>,
    /// Items degraded to their fallback cost by permanent faults.
    degraded: Mutex<BTreeSet<usize>>,
    /// Stamp of the slice in progress; 0 until the first `begin`.
    slice: AtomicU32,
    /// `Some` between `begin` and the `commit` or `rollback` that ends
    /// the slice.
    undo: Mutex<Option<Undo>>,
}

impl CacheState {
    /// Cold state for `items`: empty caches, nothing prepared.
    pub(crate) fn new(items: &[WorkloadItem]) -> Self {
        let shards = items
            .iter()
            .map(|_| Shard {
                relevance: OnceLock::new(),
                cache: RwLock::ranked(HashMap::new(), CACHE),
                in_flight: Mutex::ranked(HashSet::new(), CLAIMS),
                stat: ShardStat::default(),
                prepared: RwLock::new(None),
            })
            .collect();
        Self {
            shards,
            fallbacks: RwLock::new(Vec::new()),
            degraded: Mutex::new(BTreeSet::new()),
            slice: AtomicU32::new(0),
            undo: Mutex::ranked(None, UNDO),
        }
    }

    /// Open a slice: what is cached, degraded or installed as a fallback
    /// from here on is the slice's, until `commit` keeps it or `rollback`
    /// takes it back. Serial coordination points only — no evaluator is
    /// pricing while a slice begins or ends.
    pub(crate) fn begin(&self) {
        self.slice.fetch_add(1, Ordering::SeqCst);
        let mut undo = self.undo.lock();
        // one leaf at a time: each guard drops at the end of its statement
        let degraded = self.degraded.lock().clone();
        let fallbacks = self.fallbacks.read().clone();
        *undo = Some(Undo { degraded, fallbacks, misses: self.misses(), invalidated: None });
    }

    /// Keep what the slice wrote.
    pub(crate) fn commit(&self) {
        *self.undo.lock() = None;
    }

    /// Take back what the slice wrote: the state prices, degrades and
    /// exports exactly as it did when the slice began. (The per-shard
    /// tallies and the preparations stay: the first describe this
    /// process, the second are checked against the target on every use.)
    pub(crate) fn rollback(&self) {
        let Some(undo) = self.undo.lock().take() else { return };
        if let Some(caches) = undo.invalidated {
            for (shard, cache) in self.shards.iter().zip(caches) {
                *shard.cache.write() = cache;
            }
        }
        if self.misses() != undo.misses {
            let slice = self.slice.load(Ordering::SeqCst);
            for shard in &self.shards {
                #[expect(clippy::disallowed_methods, reason = "a filter: order-independent")]
                shard.cache.write().retain(|_, e| e.slice != slice);
            }
        }
        *self.degraded.lock() = undo.degraded;
        *self.fallbacks.write() = undo.fallbacks;
    }

    /// Cache misses so far, over all shards: every entry a slice caches
    /// is tallied as one before it is inserted.
    fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.stat.misses.load(Ordering::SeqCst)).sum()
    }

    /// Per-shard cache statistics, in statement order.
    pub(crate) fn stats(&self) -> Vec<ShardSnapshot> {
        self.shards.iter().map(|s| s.stat.snapshot()).collect()
    }

    /// Drop every cached cost.
    ///
    /// Needed when the cost model itself changes mid-session — e.g.
    /// after statistics creation, which alters what-if estimates.
    /// Preparations need no dropping: each is checked against the
    /// target's estimate epoch before it prices anything.
    pub(crate) fn invalidate(&self) {
        let dropped: Vec<_> =
            self.shards.iter().map(|s| std::mem::take(&mut *s.cache.write())).collect();
        if let Some(undo) = self.undo.lock().as_mut() {
            // a second invalidation in one slice drops only what the
            // slice itself priced since the first
            undo.invalidated.get_or_insert(dropped);
        }
    }

    /// A cache entry stamped with the slice in progress.
    fn entry(&self, cost: f64, used_structures: Box<[Arc<str>]>, verify: u64) -> CacheEntry {
        CacheEntry {
            cost,
            used_structures,
            verify: verify as u32,
            slice: self.slice.load(Ordering::SeqCst),
        }
    }

    /// The constant fallback cost a degraded item is priced at.
    fn fallback_cost(&self, i: usize) -> f64 {
        self.fallbacks.read().get(i).copied().unwrap_or(0.0)
    }

    /// Install per-item fallback costs (the pre-statistics base costs)
    /// used when a permanent fault degrades a statement.
    pub(crate) fn set_fallbacks(&self, costs: Vec<f64>) {
        *self.fallbacks.write() = costs;
    }

    /// Item indexes degraded to their fallback cost by permanent faults,
    /// in deterministic ascending order.
    pub(crate) fn degraded_items(&self) -> Vec<usize> {
        self.degraded.lock().iter().copied().collect()
    }

    /// The warmed cache in checkpoint form, in deterministic
    /// `(item, fingerprint)` order.
    pub(crate) fn export(&self) -> Vec<CacheExport> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let shard = shard.cache.read();
            #[expect(clippy::disallowed_methods, reason = "the keys are sorted next")]
            let mut keys: Vec<u64> = shard.keys().copied().collect();
            keys.sort_unstable();
            for fp in keys {
                if let Some(e) = shard.get(&fp) {
                    out.push(CacheExport {
                        item: i,
                        fingerprint: fp,
                        cost: e.cost,
                        used_structures: names(&e.used_structures),
                        verify: u64::from(e.verify),
                    });
                }
            }
        }
        out
    }

    /// Re-warm from a checkpoint: its cache entries and degraded set. The
    /// per-shard tallies start fresh — they describe this process's cache
    /// behaviour, not the session ledger.
    pub(crate) fn import(&self, entries: &[CacheExport], degraded: &[usize]) {
        for e in entries {
            if let Some(shard) = self.shards.get(e.item) {
                invariants::check_cost(e.cost, "imported cache entry");
                let used = e.used_structures.iter().map(|n| Arc::from(n.as_str())).collect();
                shard.cache.write().insert(e.fingerprint, self.entry(e.cost, used, e.verify));
            }
        }
        self.degraded.lock().extend(degraded);
    }
}

/// Caching cost evaluator over one tuning target and workload.
///
/// `Send + Sync`: share a single instance across every phase of the
/// session and across worker threads.
pub struct CostEvaluator<'a> {
    target: &'a TuningTarget<'a>,
    items: &'a [WorkloadItem],
    /// What the evaluator has learned — its own, or the session's.
    state: Arc<CacheState>,
    /// Deterministic session counters — shared with `SessionControl`
    /// (and any observer) so what-if/retry telemetry has one source of
    /// truth; a standalone evaluator owns a private set.
    counters: Arc<CounterSet>,
    /// Bounded-retry policy for transient what-if faults.
    retry: RetryPolicy,
}

impl<'a> CostEvaluator<'a> {
    /// Build an evaluator for `items` against `target` with a private
    /// counter set.
    pub fn new(target: &'a TuningTarget<'a>, items: &'a [WorkloadItem]) -> Self {
        Self::over(target, items, Arc::new(CacheState::new(items)), Arc::new(CounterSet::new()))
    }

    /// An evaluator pricing through `state`, which must have been built
    /// for these `items`, and tallying into `counters` (the session's —
    /// see [`crate::SessionControl::counters`]).
    pub(crate) fn over(
        target: &'a TuningTarget<'a>,
        items: &'a [WorkloadItem],
        state: Arc<CacheState>,
        counters: Arc<CounterSet>,
    ) -> Self {
        Self { target, items, state, counters, retry: RetryPolicy::default() }
    }

    /// The workload items being priced.
    pub fn items(&self) -> &'a [WorkloadItem] {
        self.items
    }

    /// Tuning target.
    pub fn target(&self) -> &'a TuningTarget<'a> {
        self.target
    }

    /// What-if calls actually issued (cache misses).
    pub fn whatif_calls(&self) -> usize {
        self.counters.get(Counter::WhatIfCalls) as usize
    }

    /// Per-shard cache statistics, in statement order. Shards map
    /// one-to-one onto workload statements, so entry `i` is statement
    /// `i`'s hit/miss/retry/call tally.
    pub fn cache_stats(&self) -> Vec<ShardSnapshot> {
        self.state.stats()
    }

    /// Item indexes degraded to their fallback cost by permanent faults,
    /// in deterministic ascending order.
    pub fn degraded_items(&self) -> Vec<usize> {
        self.state.degraded_items()
    }

    /// Item `i` and its shard.
    fn slot(&self, i: usize) -> (&'a WorkloadItem, &Shard) {
        let shards = &self.state.shards;
        invariants::check_shards(shards.len(), self.items.len(), i);
        (
            self.items.get(i).expect("item index is in range for this evaluator"),
            shards.get(i).expect("item index is in range for this evaluator"),
        )
    }

    /// `item` prepared against the target's current estimates.
    fn preparation(&self, item: &WorkloadItem, shard: &Shard) -> Arc<PreparedStatement> {
        let epoch = self.target.estimate_epoch();
        if let Some(p) = shard.prepared.read().as_ref().filter(|p| p.epoch() == epoch) {
            return Arc::clone(p);
        }
        let fresh = Arc::new(self.target.prepare(&item.database, &item.statement));
        if let Some(relevance) = shard.relevance.get() {
            *relevance.views.write() = fresh.view_use();
        }
        *shard.prepared.write() = Some(Arc::clone(&fresh));
        fresh
    }

    /// `item`'s [`Relevance`]: made from its preparation on the shard's
    /// first lookup and kept — it depends on the binding only, which no
    /// statistic and no estimate epoch moves.
    fn relevance<'s>(&self, item: &WorkloadItem, shard: &'s Shard) -> &'s Relevance {
        shard.relevance.get_or_init(|| {
            let prepared = self.preparation(item, shard);
            let mut tables: Vec<u64> = item
                .statement
                .referenced_tables()
                .into_iter()
                .map(|t| table_key(&item.database, t))
                .collect();
            tables.sort_unstable();
            tables.dedup();
            Relevance {
                tables: tables.into_iter().map(|k| (k, prepared.column_use(k))).collect(),
                views: RwLock::new(prepared.view_use()),
            }
        })
    }

    /// Statement `i`'s [`Relevance`], as its lookups use it.
    #[cfg(test)]
    pub(crate) fn relevance_of(&self, i: usize) -> &Relevance {
        let (item, shard) = self.slot(i);
        self.relevance(item, shard)
    }

    /// Order-independent fingerprint of `config` projected onto what a
    /// statement sees (`relevant`), combined from the content hashes the
    /// handles memoize: no allocation, and no string hashed. The
    /// value depends on the projected structures alone — it is what
    /// hashing each of them afresh would give — so a checkpoint's entry,
    /// keyed on the projection it priced, hits whenever a later build
    /// projects onto the same structures.
    pub(crate) fn fingerprint(relevant: &Relevance, config: &Overlay<'_>) -> u64 {
        let mut sum = 0u64;
        let mut xor = 0u64;
        let mut count = 0u64;
        config.for_each_relevant(relevant, |h| {
            let v = h.content_hash();
            sum = sum.wrapping_add(v);
            xor ^= v;
            count += 1;
        });
        let mut h = DefaultHasher::new();
        (sum, xor, count).hash(&mut h);
        h.finish()
    }

    /// Second, independently-combined fingerprint of the same projection
    /// (different seed, different combiners). Debug builds store it per
    /// cache entry and re-derive it on every hit: a primary-key collision
    /// — two projections sharing a [`Self::fingerprint`] — then trips
    /// [`invariants::check_fingerprint`] instead of silently pricing one
    /// configuration with another's cost. It hashes the structures
    /// themselves, so it checks the memoized hashes as well.
    pub(crate) fn verify_fingerprint(relevant: &Relevance, config: &Overlay<'_>) -> u64 {
        /// Seed decorrelating this hash from the primary fingerprint's.
        const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut sum = 0u64;
        let mut prod = 1u64;
        let mut count = 0u64;
        config.for_each_relevant(relevant, |s| {
            let mut h = DefaultHasher::new();
            SEED.hash(&mut h);
            s.structure().hash(&mut h);
            let v = h.finish();
            sum = sum.wrapping_add(v);
            prod = prod.wrapping_mul(v | 1);
            count += 1;
        });
        let mut h = DefaultHasher::new();
        (count, prod, sum).hash(&mut h);
        h.finish()
    }

    /// Count a cache hit on `entry` and return what the caller asked for.
    fn record_hit(
        &self,
        i: usize,
        shard: &Shard,
        relevant: &Relevance,
        entry: &CacheEntry,
        config: &Overlay<'_>,
        want_structures: bool,
    ) -> (f64, Vec<String>) {
        // imported checkpoint entries may carry verify == 0 when the
        // writing build had invariants compiled out; skip the check
        if invariants::ENABLED && entry.verify != 0 {
            let recomputed = Self::verify_fingerprint(relevant, config) as u32;
            invariants::check_fingerprint(entry.verify.into(), recomputed.into(), i);
        }
        shard.stat.hits.fetch_add(1, Ordering::SeqCst);
        self.counters.add(Counter::CacheHits, 1);
        let used = if want_structures { names(&entry.used_structures) } else { Vec::new() };
        (entry.cost, used)
    }

    /// Price item `i` under `config`, returning the full cache entry.
    fn item_entry(
        &self,
        i: usize,
        config: &Overlay<'_>,
        want_structures: bool,
    ) -> Result<(f64, Vec<String>), ServerError> {
        let (item, shard) = self.slot(i);
        let relevant = self.relevance(item, shard);
        let fp = Self::fingerprint(relevant, config);
        if let Some(e) = shard.cache.read().get(&fp) {
            return Ok(self.record_hit(i, shard, relevant, e, config, want_structures));
        }
        // claim-or-wait: exactly one thread computes each fingerprint.
        // Waiters count a hit once the entry lands, so the hit/miss/call
        // tallies are byte-identical no matter how lookups interleave.
        loop {
            {
                let mut claims = shard.in_flight.lock();
                // recheck under the claim lock: the computing thread
                // inserts into the cache before releasing its claim
                if let Some(e) = shard.cache.read().get(&fp) {
                    return Ok(self.record_hit(i, shard, relevant, e, config, want_structures));
                }
                if claims.insert(fp) {
                    break;
                }
            }
            // another thread holds the claim; let it finish
            std::thread::yield_now();
        }
        // the claim is released on every exit path below (including `?`)
        let _claim = ClaimGuard { set: &shard.in_flight, fp };
        shard.stat.misses.fetch_add(1, Ordering::SeqCst);
        self.counters.add(Counter::CacheMisses, 1);
        let verify =
            if invariants::ENABLED { Self::verify_fingerprint(relevant, config) } else { 0 };
        if self.state.degraded.lock().contains(&i) {
            // a permanent fault already degraded this statement: price
            // every configuration at its constant fallback, no server call
            let cost = self.state.fallback_cost(i);
            shard.cache.write().insert(fp, self.state.entry(cost, Box::default(), verify));
            return Ok((cost, Vec::new()));
        }
        // only a miss materializes the projection, and only as pointer
        // copies; the what-if call dwarfs it
        let projected = config.projection(relevant);
        let prepared = self.preparation(item, shard);
        let mut attempt: u32 = 0;
        let plan = loop {
            // one call per unique miss (plus deterministic retries): the
            // in-flight claim above serialized racing lookups away
            self.counters.add(Counter::WhatIfCalls, 1);
            shard.stat.calls.fetch_add(1, Ordering::SeqCst);
            match self.target.whatif_prepared(&prepared, &projected) {
                Ok(plan) => break Some(plan),
                Err(ServerError::Fault { kind: FaultKind::Transient, .. })
                    if self.retry.allows_retry(attempt) =>
                {
                    // bounded retry with deterministic backoff accounting
                    self.counters.add(Counter::WhatIfRetries, 1);
                    self.counters
                        .add(Counter::RetryBackoffUnits, self.retry.backoff_units(attempt));
                    shard.stat.retries.fetch_add(1, Ordering::SeqCst);
                    attempt += 1;
                }
                // permanent fault, or transient retries exhausted: degrade
                // this statement to its fallback instead of aborting
                Err(ServerError::Fault { .. }) => break None,
                Err(other) => return Err(other),
            }
        };
        let (cost, used_structures) = match plan {
            Some(plan) => {
                invariants::check_cost(plan.cost, "what-if estimate");
                (plan.cost, plan.used_names())
            }
            None => {
                self.state.degraded.lock().insert(i);
                (self.state.fallback_cost(i), Box::default())
            }
        };
        let used = if want_structures { names(&used_structures) } else { Vec::new() };
        shard.cache.write().insert(fp, self.state.entry(cost, used_structures, verify));
        Ok((cost, used))
    }

    /// Each statement's cost under `config` as the cache holds it now,
    /// read without a lookup: no counter moves and no call is made. `None`
    /// for a statement with no entry for `config`'s projection, or with no
    /// [`Relevance`] yet (it has never been looked up).
    pub(crate) fn cached_costs(&self, config: &Overlay<'_>) -> Vec<Option<f64>> {
        let shards = &self.state.shards;
        shards.iter().map(|shard| Self::cached(shard, shard.relevance.get()?, config)).collect()
    }

    /// The cost `shard`'s cache holds for `config`'s projection, if any.
    fn cached(shard: &Shard, relevant: &Relevance, config: &Overlay<'_>) -> Option<f64> {
        shard.cache.read().get(&Self::fingerprint(relevant, config)).map(|e| e.cost)
    }

    /// Estimated cost of one item under `config`.
    pub fn item_cost(&self, i: usize, config: &Configuration) -> Result<f64, ServerError> {
        self.price(i, &Overlay::of(&self.index_for(i, config)))
    }

    /// `config` indexed for item `i`'s lookup: on its tables only.
    fn index_for<'c>(&self, i: usize, config: &'c Configuration) -> Indexed<'c> {
        let (item, shard) = self.slot(i);
        Indexed::for_lookup(config, self.relevance(item, shard).tables())
    }

    /// [`Self::item_cost`] under a configuration indexed already.
    pub(crate) fn price(&self, i: usize, config: &Overlay<'_>) -> Result<f64, ServerError> {
        self.item_entry(i, config, false).map(|(c, _)| c)
    }

    /// Cost plus the structures the plan uses (§6.3 reports).
    pub fn item_report(
        &self,
        i: usize,
        config: &Configuration,
    ) -> Result<(f64, Vec<String>), ServerError> {
        self.item_entry(i, &Overlay::of(&self.index_for(i, config)), true)
    }

    /// Weighted workload cost under `config`.
    ///
    /// Items are summed in workload order, so the result is bitwise
    /// identical no matter which thread asks.
    pub fn workload_cost(&self, config: &Configuration) -> Result<f64, ServerError> {
        self.delta_cost(&Overlay::of(&Indexed::new(config, None)), &[], &[])
    }

    /// Weighted workload cost under `config`, which differs from a
    /// reference configuration by the structures in `delta` — those the
    /// one holds and the other does not. `reference[i]` is statement `i`'s
    /// cost under the reference, as [`Self::cached_costs`] read it.
    ///
    /// A statement no `delta` structure is relevant to projects `config`
    /// onto what it projected the reference onto, so its lookup would hit
    /// the entry its reference cost was read from: it takes that cost and
    /// is not looked up. Every other statement — and one without a
    /// reference cost — is looked up. The sum is [`Self::sum`]'s (with no
    /// reference, this *is* `workload_cost`), so it is bit-equal to
    /// pricing `config` whole, and only the hits skipped go uncounted.
    pub(crate) fn delta_cost(
        &self,
        config: &Overlay<'_>,
        delta: &[StructureHandle],
        reference: &[Option<f64>],
    ) -> Result<f64, ServerError> {
        self.sum(config, |i, item, shard| {
            let cost = reference.get(i).copied().flatten()?;
            let relevant = self.relevance(item, shard);
            (!delta.iter().any(|h| relevant.admits(h))).then_some(cost)
        })
    }

    /// The atom of a singleton: `config` is `base ∪ {c}` and differs from
    /// the base by `delta`. Each statement the delta reaches is listed
    /// with its cost under `config` as the cache holds it now — read, not
    /// looked up, so no counter moves. `None` when a statement has no
    /// [`Relevance`] yet, so what the delta reaches is unknown.
    pub(crate) fn atom(&self, config: &Overlay<'_>, delta: Vec<StructureHandle>) -> Option<Atom> {
        let mut reached = Vec::new();
        for (i, shard) in self.state.shards.iter().enumerate() {
            let relevant = shard.relevance.get()?;
            if delta.iter().any(|h| relevant.admits(h)) {
                reached.push((i, Self::cached(shard, relevant, config)));
            }
        }
        Some(Atom { delta, reached })
    }

    /// [`Self::delta_cost`] against the base for `base ∪ S`, given the
    /// atoms of the members of `S`: `reference` holds the base's costs.
    ///
    /// When `delta` is the disjoint union of the atoms' deltas, a
    /// statement no atom reaches takes its base cost, one that exactly
    /// one atom reaches takes that atom's cost, and only one that two or
    /// more reach — or whose cost the base or the atom lacks — is looked
    /// up: the relevance scan is the atoms'. Any other `delta` is priced
    /// by [`Self::delta_cost`]. Either way the sum is [`Self::sum`]'s.
    pub(crate) fn atomic_cost(
        &self,
        config: &Overlay<'_>,
        delta: &[StructureHandle],
        atoms: &[&Atom],
        reference: &[Option<f64>],
    ) -> Result<f64, ServerError> {
        if !Atom::split(delta, atoms) {
            return self.delta_cost(config, delta, reference);
        }
        let mut reached: Vec<_> = atoms.iter().map(|a| a.reached.iter().peekable()).collect();
        self.sum(config, |i, _, _| {
            let (mut reaching, mut cost) = (0, None);
            for atom in &mut reached {
                if let Some(&(_, c)) = atom.next_if(|&&(j, _)| j == i) {
                    reaching += 1;
                    cost = c;
                }
            }
            match reaching {
                0 => reference.get(i).copied().flatten(),
                1 => cost,
                _ => None,
            }
        })
    }

    /// Weighted workload cost under `config`, summed in workload order:
    /// statement `i` takes `known(i, …)` when that is a cost — one the
    /// cache holds for `config`'s projection, which debug builds check —
    /// and is looked up otherwise. Every pricing of a whole workload sums
    /// here, with the same operations in the same order, so all of them
    /// give the same bits.
    fn sum(
        &self,
        config: &Overlay<'_>,
        mut known: impl FnMut(usize, &WorkloadItem, &Shard) -> Option<f64>,
    ) -> Result<f64, ServerError> {
        let mut total = 0.0;
        for i in 0..self.items.len() {
            let (item, shard) = self.slot(i);
            let cost = match known(i, item, shard) {
                Some(cost) => {
                    if invariants::ENABLED {
                        let cached = Self::cached(shard, self.relevance(item, shard), config);
                        invariants::check_reference_cost(cost, cached, i);
                    }
                    cost
                }
                None => self.price(i, config)?,
            };
            let next = total + item.weight * cost;
            invariants::check_monotonic_sum(total, next, "workload_cost");
            total = next;
        }
        Ok(total)
    }
}

/// What one candidate `c` changes on its own — AutoAdmin's *atomic
/// configuration*: the delta of `base ∪ {c}` from the base, and each
/// statement that delta reaches with its cost under `base ∪ {c}`. Made
/// by [`CostEvaluator::atom`] at a serial point, after the singleton was
/// priced; [`CostEvaluator::atomic_cost`] prices sets from atoms.
#[derive(Debug)]
pub(crate) struct Atom {
    delta: Vec<StructureHandle>,
    /// Statements the delta reaches, ascending, each with its cost under
    /// `base ∪ {c}` if the cache held one.
    reached: Vec<(usize, Option<f64>)>,
}

impl Atom {
    /// Whether `delta` is the disjoint union of the atoms' deltas. A delta
    /// lists a structure once, so: the atoms' deltas share no structure,
    /// each lies in `delta`, and together they are as long.
    pub(crate) fn split(delta: &[StructureHandle], atoms: &[&Atom]) -> bool {
        let parts = || atoms.iter().flat_map(|a| &a.delta);
        let disjoint = || {
            atoms.iter().enumerate().all(|(k, a)| {
                atoms.iter().skip(k + 1).all(|b| !a.delta.iter().any(|h| b.delta.contains(h)))
            })
        };
        parts().count() == delta.len() && disjoint() && parts().all(|h| delta.contains(h))
    }

    /// The statements the atom reaches, with their costs.
    #[cfg(test)]
    pub(crate) fn reached(&self) -> &[(usize, Option<f64>)] {
        &self.reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::{Column, ColumnType, Database, Table, Value};
    use dta_physical::{Index, PhysicalStructure};
    use dta_server::Server;
    use dta_sql::parse_statement;
    use dta_workload::Workload;

    fn server() -> Server {
        let mut s = Server::new("s");
        let mut db = Database::new("d");
        for name in ["t", "u"] {
            // no statement names `c`
            let columns = ["a", "b", "c"].map(|c| Column::new(c, ColumnType::Int));
            db.add_table(Table::new(name, columns.to_vec())).expect("fresh table");
        }
        s.create_database(db).expect("fresh database");
        for name in ["t", "u"] {
            let d = s.table_data_mut("d", name).expect("table exists");
            for i in 0..5000i64 {
                d.push_row(vec![Value::Int(i % 100), Value::Int(i), Value::Int(i % 7)]);
            }
        }
        s
    }

    fn wl() -> Workload {
        Workload::from_items(vec![
            dta_workload::WorkloadItem::weighted(
                "d",
                parse_statement("SELECT b FROM t WHERE a = 5").expect("valid SQL"),
                10.0,
            ),
            dta_workload::WorkloadItem::new(
                "d",
                parse_statement("SELECT b FROM u WHERE a = 7").expect("valid SQL"),
            ),
        ])
    }

    #[test]
    fn caching_avoids_redundant_calls() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let empty = Configuration::new();
        let c1 = eval.workload_cost(&empty).expect("costing succeeds");
        assert_eq!(eval.whatif_calls(), 2);
        let c2 = eval.workload_cost(&empty).expect("costing succeeds");
        assert_eq!(eval.whatif_calls(), 2, "second evaluation fully cached");
        assert_eq!(c1, c2);
    }

    #[test]
    fn shard_stats_track_hits_and_misses_per_statement() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let empty = Configuration::new();
        eval.workload_cost(&empty).expect("costing succeeds");
        eval.workload_cost(&empty).expect("costing succeeds");
        let stats = eval.cache_stats();
        assert_eq!(stats.len(), 2, "one shard per statement");
        for st in &stats {
            assert_eq!((st.misses, st.hits, st.calls, st.retries), (1, 1, 1, 0), "{stats:?}");
        }
    }

    #[test]
    fn racing_misses_dedup_to_one_call() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let empty = Configuration::new();
        let threads = 8;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| eval.item_cost(0, &empty).expect("costing succeeds"));
            }
        });
        let st = &eval.cache_stats()[0];
        assert_eq!(
            (st.misses, st.hits, st.calls),
            (1, threads - 1, 1),
            "concurrent lookups of one fingerprint dedup to a single miss"
        );
    }

    #[test]
    fn irrelevant_structures_hit_cache() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        eval.workload_cost(&Configuration::new()).expect("costing succeeds");
        let calls = eval.whatif_calls();
        // an index on `u` cannot affect the statement on `t`
        let cfg = Configuration::from_structures([PhysicalStructure::Index(Index::non_clustered(
            "d",
            "u",
            &["a"],
            &["b"],
        ))]);
        eval.item_cost(0, &cfg).expect("costing succeeds");
        assert_eq!(eval.whatif_calls(), calls, "projection made it a cache hit");
        eval.item_cost(1, &cfg).expect("costing succeeds");
        assert_eq!(eval.whatif_calls(), calls + 1);
        // nor can a non-clustered index on `t` over a column it never names
        let on_c = |table| PhysicalStructure::Index(Index::non_clustered("d", table, &["c"], &[]));
        eval.workload_cost(&Configuration::from_structures([on_c("t"), on_c("u")]))
            .expect("costing succeeds");
        assert_eq!(eval.whatif_calls(), calls + 1, "both statements hit");
        // a clustered index on `c` can: it replaces the heap
        let clustered = PhysicalStructure::Index(Index::clustered("d", "t", &["c"]));
        eval.item_cost(0, &Configuration::from_structures([clustered])).expect("costing succeeds");
        assert_eq!(eval.whatif_calls(), calls + 2);
    }

    #[test]
    fn weights_scale_costs() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let total = eval.workload_cost(&Configuration::new()).expect("costing succeeds");
        let c0 = eval.item_cost(0, &Configuration::new()).expect("costing succeeds");
        let c1 = eval.item_cost(1, &Configuration::new()).expect("costing succeeds");
        assert!((total - (10.0 * c0 + c1)).abs() < 1e-9);
    }

    #[test]
    fn index_changes_cost() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let before = eval.item_cost(0, &Configuration::new()).expect("costing succeeds");
        let cfg = Configuration::from_structures([PhysicalStructure::Index(Index::non_clustered(
            "d",
            "t",
            &["a"],
            &["b"],
        ))]);
        let after = eval.item_cost(0, &cfg).expect("costing succeeds");
        assert!(after < before);
    }

    /// Relevance decided by comparing names — a statement of [`wl`] reads
    /// one table, seeks on `a` and requires `a` and `b` — and every relevant structure
    /// hashed afresh. Returns (primary, verify).
    fn reference_fingerprints(item: &WorkloadItem, config: &Configuration) -> (u64, u64) {
        const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
        let tables = item.statement.referenced_tables();
        let relevant = |s: &&PhysicalStructure| match s {
            PhysicalStructure::Index(ix) => {
                let holds = |c: &str| {
                    ix.leaf_columns().any(|l| l == c)
                        || ix.partitioning.as_ref().is_some_and(|p| p.column == c)
                };
                ix.database == item.database
                    && tables.iter().any(|t| *t == ix.table)
                    && (ix.kind == dta_physical::IndexKind::Clustered
                        || ix.key_columns.first().is_some_and(|k| k == "a")
                        || (holds("a") && holds("b")))
            }
            // only an ungrouped view of exactly its table that projects
            // `a` and `b` answers the statement
            PhysicalStructure::View(v) => {
                v.database == item.database
                    && v.tables.iter().eq(tables.iter())
                    && !v.is_grouped()
                    && ["a", "b"]
                        .iter()
                        .all(|c| v.projected.iter().any(|p| p.table == tables[0] && p.column == *c))
            }
            PhysicalStructure::TablePartitioning { database, table, .. } => {
                *database == item.database && tables.iter().any(|t| t == table)
            }
        };
        let (mut sum, mut xor, mut count) = (0u64, 0u64, 0u64);
        let (mut vsum, mut vprod) = (0u64, 1u64);
        for s in config.iter().filter(relevant) {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            let v = h.finish();
            sum = sum.wrapping_add(v);
            xor ^= v;
            count += 1;
            let mut h = DefaultHasher::new();
            SEED.hash(&mut h);
            s.hash(&mut h);
            let v = h.finish();
            vsum = vsum.wrapping_add(v);
            vprod = vprod.wrapping_mul(v | 1);
        }
        let mut primary = DefaultHasher::new();
        (sum, xor, count).hash(&mut primary);
        let mut verify = DefaultHasher::new();
        (count, vprod, vsum).hash(&mut verify);
        (primary.finish(), verify.finish())
    }

    /// Structures on the statements' tables, on other tables, and in
    /// another database that reuses a table name.
    fn random_configuration(rng: &mut rand::rngs::StdRng) -> Configuration {
        use rand::Rng;
        let mut pick = |n: usize| rng.gen_range(0..n);
        let scheme = |column| dta_physical::RangePartitioning::new(column, vec![Value::Int(9)]);
        (0..pick(9))
            .map(|_| {
                let (db, t) = [("d", "t"), ("d", "u"), ("d", "w"), ("e", "t")][pick(4)];
                let column = ["a", "b", "c"][pick(3)];
                match pick(8) {
                    0 => PhysicalStructure::TablePartitioning {
                        database: db.into(),
                        table: t.into(),
                        scheme: scheme(column),
                    },
                    1 => PhysicalStructure::View(dta_physical::MaterializedView::grouped(
                        db,
                        &[t, "w"][..1 + pick(2)],
                        Vec::new(),
                        vec![dta_physical::QualifiedColumn::new(t, column)],
                        vec![dta_physical::ViewAggregate::count_star()],
                    )),
                    7 => PhysicalStructure::View(dta_physical::MaterializedView::join_view(
                        db,
                        &[t, "w"][..1 + pick(2)],
                        Vec::new(),
                        [(t, "a"), (t, column)][..1 + pick(2)]
                            .iter()
                            .map(|(t, c)| dta_physical::QualifiedColumn::new(t, c))
                            .collect(),
                    )),
                    2 => PhysicalStructure::Index(Index::clustered(db, t, &[column])),
                    3 => PhysicalStructure::Index(
                        Index::non_clustered(db, t, &["c"], &[]).partitioned(scheme(column)),
                    ),
                    4 => {
                        let included = [&["a"][..], &["b"], &["a", "b"]][pick(3)];
                        PhysicalStructure::Index(Index::non_clustered(db, t, &["c"], included))
                    }
                    _ => PhysicalStructure::Index(Index::non_clustered(db, t, &[column], &[])),
                }
            })
            .collect()
    }

    /// The primary and verify fingerprints of `config` projected onto
    /// what `relevant` sees, as the lookups compute them.
    fn fingerprints(relevant: &Relevance, config: &Configuration) -> (u64, u64) {
        let indexed = Indexed::new(config, None);
        let overlay = Overlay::of(&indexed);
        (
            CostEvaluator::fingerprint(relevant, &overlay),
            CostEvaluator::verify_fingerprint(relevant, &overlay),
        )
    }

    #[test]
    fn memoized_fingerprints_equal_hashing_from_scratch() {
        use rand::{rngs::StdRng, SeedableRng};
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let mut rng = StdRng::seed_from_u64(12);
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..2_000 {
            let config = random_configuration(&mut rng);
            for (i, item) in w.items.iter().enumerate() {
                let memoized = fingerprints(eval.relevance_of(i), &config);
                assert_eq!(memoized, reference_fingerprints(item, &config), "item {i}: {config}");
                distinct.insert(memoized.0);
            }
        }
        assert!(distinct.len() > 100, "the configurations exercise relevance: {}", distinct.len());
    }

    #[test]
    fn exported_cache_hits_after_configuration_round_trips() {
        use rand::{rngs::StdRng, SeedableRng};
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let mut rng = StdRng::seed_from_u64(13);
        let configs: Vec<Configuration> = (0..40).map(|_| random_configuration(&mut rng)).collect();
        let writer = CostEvaluator::new(&target, &w.items);
        let costs: Vec<f64> =
            configs.iter().map(|c| writer.workload_cost(c).expect("costing succeeds")).collect();
        let export = writer.state.export();

        // a later process: structures re-wrapped, configurations rebuilt
        // by every route, and nothing is priced twice
        let reader = CostEvaluator::new(&target, &w.items);
        reader.state.import(&export, &[]);
        let relevant = reader.relevance(&w.items[0], reader.slot(0).1);
        for (config, cost) in configs.iter().zip(&costs) {
            let rebuilt = Configuration::from_structures(config.iter().cloned());
            let (front, back) = (config.project(|h| relevant.admits(h)), config);
            for round_trip in [config.clone(), rebuilt, front.union(back), config.project(|_| true)]
            {
                let again = reader.workload_cost(&round_trip).expect("costing succeeds");
                assert_eq!(again.to_bits(), cost.to_bits());
            }
        }
        assert_eq!(reader.whatif_calls(), 0, "every lookup hit");
        assert!(reader.cache_stats().iter().all(|st| st.misses == 0));
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let a = PhysicalStructure::Index(Index::non_clustered("d", "t", &["a"], &[]));
        let b = PhysicalStructure::Index(Index::non_clustered("d", "t", &["b"], &["a"]));
        let ab = Configuration::from_structures([a.clone(), b.clone()]);
        let ba = Configuration::from_structures([b.clone(), a.clone()]);
        let fingerprint = |config| fingerprints(eval.relevance_of(0), config).0;
        assert_eq!(fingerprint(&ab), fingerprint(&ba));
        let only_a = Configuration::from_structures([a]);
        assert_ne!(fingerprint(&ab), fingerprint(&only_a));
    }

    #[test]
    fn invalidate_clears_cached_costs() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        eval.workload_cost(&Configuration::new()).expect("costing succeeds");
        assert_eq!(eval.whatif_calls(), 2);
        eval.state.invalidate();
        eval.workload_cost(&Configuration::new()).expect("costing succeeds");
        assert_eq!(eval.whatif_calls(), 4, "cache was dropped, calls re-issued");
    }

    /// An index on `t` keyed on `column` that covers statement 0.
    fn on_t(column: &str) -> Configuration {
        let other = if column == "a" { "b" } else { "a" };
        Configuration::from_structures([PhysicalStructure::Index(Index::non_clustered(
            "d",
            "t",
            &[column],
            &[other],
        ))])
    }

    #[test]
    fn a_rolled_back_slice_misses_again_and_committed_slices_still_hit() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let state = &eval.state;
        // priced outside any slice, then in a slice that commits
        let raw = eval.workload_cost(&Configuration::new()).expect("costing succeeds");
        state.begin();
        let kept = eval.workload_cost(&on_t("a")).expect("costing succeeds");
        state.commit();
        let before = state.export();
        assert_eq!((eval.whatif_calls(), before.len()), (3, 3));

        state.begin();
        eval.workload_cost(&on_t("b")).expect("costing succeeds");
        assert_eq!((eval.whatif_calls(), state.export().len()), (4, 4));
        state.rollback();
        assert_eq!(state.export(), before, "the export is what it was when the slice began");

        // what earlier slices priced still hits, bit for bit …
        for (config, cost) in [(Configuration::new(), raw), (on_t("a"), kept)] {
            let again = eval.workload_cost(&config).expect("costing succeeds");
            assert_eq!(again.to_bits(), cost.to_bits());
        }
        assert_eq!(eval.whatif_calls(), 4);
        // … and what the failed slice priced is a miss, and a call, again
        eval.workload_cost(&on_t("b")).expect("costing succeeds");
        assert_eq!(eval.whatif_calls(), 5);
        // a rollback with no slice open takes nothing back
        state.rollback();
        assert_eq!(state.export().len(), 4);
    }

    #[test]
    fn a_rollback_restores_what_the_slice_invalidated_degraded_and_fell_back_to() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let state = &eval.state;
        eval.workload_cost(&Configuration::new()).expect("costing succeeds");
        state.set_fallbacks(vec![7.0, 8.0]);
        let before = state.export();

        state.begin();
        eval.item_cost(0, &on_t("a")).expect("costing succeeds");
        state.invalidate();
        eval.item_cost(1, &on_t("b")).expect("costing succeeds");
        state.invalidate();
        state.set_fallbacks(vec![1.0, 2.0]);
        // a permanently faulted statement degrades inside the slice
        s.set_fault_policy(Some(dta_server::FaultPolicy {
            whatif_permanent_rate: 1.0,
            ..Default::default()
        }));
        assert_eq!(eval.item_cost(1, &on_t("a")).expect("degrades"), 2.0);
        s.set_fault_policy(None);
        assert_eq!(state.degraded_items(), [1]);
        state.rollback();

        assert_eq!(state.export(), before, "both invalidations are undone");
        assert!(state.degraded_items().is_empty());
        assert_eq!(state.fallback_cost(0), 7.0);
        let calls = eval.whatif_calls();
        eval.workload_cost(&Configuration::new()).expect("costing succeeds");
        assert_eq!(eval.whatif_calls(), calls, "the pre-slice cache is back and hits");
        // statement 1 answers from that cache, not from a fallback
        assert_ne!(eval.item_cost(1, &on_t("a")).expect("costing succeeds"), 2.0);
    }

    #[test]
    fn a_stale_preparation_never_prices_a_call() {
        use dta_stats::StatKey;
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let on_a = |included: &[&str]| {
            Configuration::from_structures([PhysicalStructure::Index(Index::non_clustered(
                "d",
                "t",
                &["a"],
                included,
            ))])
        };
        // the first miss prepares statement 0 …
        eval.item_cost(0, &on_a(&[])).expect("costing succeeds");
        // … a statistic then moves its estimates, and nobody invalidates
        assert_eq!(s.create_statistics(&[StatKey::new("d", "t", &["a"])]).created, 1);
        let cfg = on_a(&["b"]);
        let item = &w.items[0];
        let got = eval.item_cost(0, &cfg).expect("costing succeeds");
        let fresh = s.whatif(&item.database, &item.statement, &cfg).expect("binds").cost;
        assert_eq!(got.to_bits(), fresh.to_bits(), "the miss re-prepared");
        // a twin server that never got the statistic prices what the stale
        // preparation would have
        let stale = server().whatif(&item.database, &item.statement, &cfg).expect("binds").cost;
        assert_ne!(got.to_bits(), stale.to_bits(), "the statistic moves this estimate");
        // cached costs are a separate matter: those `invalidate` drops
        eval.state.invalidate();
        let again = eval.item_cost(0, &on_a(&[])).expect("costing succeeds");
        let fresh = s.whatif(&item.database, &item.statement, &on_a(&[])).expect("binds").cost;
        assert_eq!(again.to_bits(), fresh.to_bits());
    }

    #[test]
    fn preparing_is_not_a_whatif_call() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let counters = Arc::new(CounterSet::new());
        let state = Arc::new(CacheState::new(&w.items));
        let eval = CostEvaluator::over(&target, &w.items, state, Arc::clone(&counters));
        assert!(eval.state.shards.iter().all(|shard| shard.prepared.read().is_none()), "lazy");
        for item in &w.items {
            let prep = target.prepare(&item.database, &item.statement);
            assert_eq!(prep.epoch(), target.estimate_epoch());
        }
        assert_eq!((s.whatif_invocations(), s.overhead_units()), (0, 0.0));
        assert_eq!(counters.snapshot(), CounterSet::new().snapshot());
        // a priced miss prepares its own statement only, and counts once
        let charged = {
            eval.item_cost(1, &Configuration::new()).expect("costing succeeds");
            s.overhead_units()
        };
        assert!(
            eval.state.shards[0].prepared.read().is_none()
                && eval.state.shards[1].prepared.read().is_some()
        );
        assert_eq!((s.whatif_invocations(), counters.get(Counter::WhatIfCalls)), (1, 1));
        let twin = server();
        twin.whatif(&w.items[1].database, &w.items[1].statement, &Configuration::new())
            .expect("binds");
        assert_eq!(charged, twin.overhead_units(), "charged as the unprepared call is");
    }

    /// Statements on `t` of every kind, and a SELECT on `u`.
    fn mixed() -> Workload {
        let item = |sql: &str| {
            dta_workload::WorkloadItem::new("d", parse_statement(sql).expect("valid SQL"))
        };
        Workload::from_items(vec![
            item("INSERT INTO t VALUES (1, 2, 3)"),
            item("DELETE FROM t WHERE a = 4"),
            item("UPDATE t SET c = 1 WHERE a = 5"),
            item("SELECT b FROM u WHERE a = 7"),
            item("SELECT b FROM t WHERE a = 5"),
        ])
    }

    fn index(table: &str, keys: &[&str], included: &[&str]) -> PhysicalStructure {
        PhysicalStructure::Index(Index::non_clustered("d", table, keys, included))
    }

    /// Price `reference ∪ {added}` against `reference`, on `eval` by its
    /// delta and on `twin` whole: the two must agree bit for bit and in
    /// every miss and call. Returns which statements `eval` looked up.
    fn delta_lookups(
        eval: &CostEvaluator<'_>,
        twin: &CostEvaluator<'_>,
        reference: &Configuration,
        added: PhysicalStructure,
    ) -> Vec<bool> {
        let costs = eval.cached_costs(&Overlay::of(&Indexed::new(reference, None)));
        let mut config = reference.clone();
        config.add(added.clone());
        let indexed = Indexed::new(&config, None);
        let lookups = |e: &CostEvaluator<'_>| -> Vec<u64> {
            e.cache_stats().iter().map(|st| st.hits + st.misses).collect()
        };
        let before = lookups(eval);
        let delta = [StructureHandle::new(added)];
        let got =
            eval.delta_cost(&Overlay::of(&indexed), &delta, &costs).expect("costing succeeds");
        let want = twin.workload_cost(&config).expect("costing succeeds");
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(eval.whatif_calls(), twin.whatif_calls());
        let misses = |e: &CostEvaluator<'_>| -> Vec<u64> {
            e.cache_stats().iter().map(|st| st.misses).collect()
        };
        assert_eq!(misses(eval), misses(twin));
        lookups(eval).iter().zip(before).map(|(after, before)| *after > before).collect()
    }

    #[test]
    fn a_statement_is_looked_up_exactly_when_the_delta_can_change_its_plan() {
        let (s, w) = (server(), mixed());
        let target = TuningTarget::Single(&s);
        let (eval, twin) =
            (CostEvaluator::new(&target, &w.items), CostEvaluator::new(&target, &w.items));
        let reference = Configuration::from_structures([index("t", &["a"], &["b"])]);
        for e in [&eval, &twin] {
            e.workload_cost(&reference).expect("costing succeeds");
        }
        let [insert, delete, update, on_u, on_t] = [0, 1, 2, 3, 4];
        let looked_up = |added| delta_lookups(&eval, &twin, &reference, added);

        // INSERT and DELETE maintain every index on `t`, whatever it holds
        let seen = looked_up(index("t", &["c"], &[]));
        assert!(seen[insert] && seen[delete], "{seen:?}");
        // an UPDATE maintains an index holding its SET column …
        assert!(looked_up(index("t", &["b"], &["c"]))[update]);
        // … and none that holds neither it nor what the UPDATE seeks on
        assert!(!looked_up(index("t", &["b"], &[]))[update]);
        // a SELECT on `u` sees nothing on `t`; the SELECT on `t` sees a seek
        let seen = looked_up(index("t", &["a"], &["c"]));
        assert!(!seen[on_u] && seen[on_t], "{seen:?}");
        // a view joining `t` and `u` is seen from either table
        let joined = dta_physical::MaterializedView::grouped(
            "d",
            &["t", "u"],
            vec![dta_physical::JoinPair::new(
                dta_physical::QualifiedColumn::new("t", "a"),
                dta_physical::QualifiedColumn::new("u", "a"),
            )],
            vec![dta_physical::QualifiedColumn::new("t", "b")],
            vec![dta_physical::ViewAggregate::count_star()],
        );
        // a view joining `t` and `u` is maintained by the DML on `t` but
        // answers neither single-table SELECT
        assert_eq!(looked_up(PhysicalStructure::View(joined)), [true, true, true, false, false]);
        // a view of `t` answers the SELECT on `t` when it produces what that
        // reads, and only then
        let of_t = |columns: &[&str]| {
            let projected = columns.iter().map(|c| dta_physical::QualifiedColumn::new("t", c));
            PhysicalStructure::View(dta_physical::MaterializedView::join_view(
                "d",
                &["t"],
                Vec::new(),
                projected.collect(),
            ))
        };
        assert_eq!(looked_up(of_t(&["a", "b"])), [true, true, true, false, true]);
        assert_eq!(looked_up(of_t(&["b", "c"])), [true, true, true, false, false]);
        // the lookups skipped are hits the twin counted, and only those
        let hits = |e: &CostEvaluator<'_>| e.counters.get(Counter::CacheHits);
        assert!(hits(&eval) < hits(&twin), "{} !< {}", hits(&eval), hits(&twin));
    }

    #[test]
    fn a_statement_degraded_mid_search_still_prices_bit_equal() {
        let (w, permanent) =
            (mixed(), dta_server::FaultPolicy { whatif_permanent_rate: 1.0, ..Default::default() });
        // one server each, so that each sees the same fault schedule
        let (s, twin_s) = (server(), server());
        let (target, twin_target) = (TuningTarget::Single(&s), TuningTarget::Single(&twin_s));
        let (eval, twin) =
            (CostEvaluator::new(&target, &w.items), CostEvaluator::new(&twin_target, &w.items));
        let reference = Configuration::from_structures([index("t", &["a"], &["b"])]);
        for e in [&eval, &twin] {
            e.state.set_fallbacks(vec![7.0; 5]);
            e.workload_cost(&reference).expect("costing succeeds");
        }
        // the SELECT on `t` then faults for good on a configuration it sees
        for (server, e) in [(&s, &eval), (&twin_s, &twin)] {
            server.set_fault_policy(Some(permanent));
            e.item_cost(4, &Configuration::from_structures([index("t", &["a"], &[])]))
                .expect("degrades");
            server.set_fault_policy(None);
            assert_eq!(e.degraded_items(), [4]);
        }
        // priced at its reference cost — the real one, as the hit it skips
        // would have returned — where the delta cannot reach it …
        assert!(!delta_lookups(&eval, &twin, &reference, index("u", &["a"], &[]))[4]);
        // … and at its fallback, through a lookup, where it can
        assert!(delta_lookups(&eval, &twin, &reference, index("t", &["a"], &["c"]))[4]);
        assert_eq!(eval.item_cost(4, &reference).expect("cached").to_bits(), {
            twin.item_cost(4, &reference).expect("cached").to_bits()
        });
        assert_ne!(eval.item_cost(4, &reference).expect("cached"), 7.0, "priced before the fault");
    }

    #[test]
    fn item_report_returns_used_structures() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let ix = Index::non_clustered("d", "t", &["a"], &["b"]);
        let cfg = Configuration::from_structures([PhysicalStructure::Index(ix.clone())]);
        let (_, used) = eval.item_report(0, &cfg).expect("costing succeeds");
        assert!(used.contains(&ix.name()), "{used:?}");
        // and the cached path returns them too
        let (_, used_again) = eval.item_report(0, &cfg).expect("costing succeeds");
        assert_eq!(used, used_again);
    }

    #[test]
    fn evaluator_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CostEvaluator<'static>>();
        assert_send_sync::<TuningTarget<'static>>();
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let cfg = Configuration::from_structures([PhysicalStructure::Index(Index::non_clustered(
            "d",
            "t",
            &["a"],
            &["b"],
        ))]);
        let serial = eval.workload_cost(&cfg).expect("costing succeeds");
        let results: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| eval.workload_cost(&cfg).expect("costing succeeds")))
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker joins")).collect()
        });
        for r in results {
            assert_eq!(r.to_bits(), serial.to_bits());
        }
    }
}
