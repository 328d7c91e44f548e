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
//! 3. **Atoms** — a greedy evaluation prices `base ∪ S` given its delta
//!    from the base and some [`Atom`]s fixed at serial points: each pool
//!    candidate's once Phase 1 has priced the singletons, and in Phase 2
//!    the incumbent's. An atom holds a delta from the base and the cost
//!    of each statement it reaches, read from the cache. A statement
//!    nothing in the delta reaches takes its base cost, one that exactly
//!    one atom inside the delta reaches, and nothing else, takes that
//!    atom's cost, and any other is looked up
//!    ([`CostEvaluator::priced`], which `workload_cost` is with nothing
//!    known). Every skipped lookup would have hit the entry its cost came
//!    from, so the sum is the same bits and only cache hits go uncounted;
//! 4. **Derived costs** — every entry records the access path its plan
//!    picked for each table binding of a SELECT, UPDATE or DELETE, and a
//!    binding's path depends on its own table's structures alone. So a
//!    miss is priced with no what-if call when each table it reads has
//!    its records: the entry of the projection that differs from the base
//!    on that table alone, less the non-clustered indexes the set added
//!    there and every view it added, and that entry plus each such index.
//!    Per binding the planner takes the first of the cheapest recorded
//!    paths, and the join order, the probes, the view rewrites and the
//!    rest of the plan are the planner's ([`CostEvaluator::derive`]). An
//!    INSERT picks no path and reads its target's records alike; its
//!    plan is the planner's maintenance sum. Such a miss is still a miss;
//!    only calls, and the work they charge, go uncounted.
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
//! the workload, a statement priced without a lookup — at its base cost
//! or an atom's — must find that very cost cached for the evaluated
//! configuration, and a derived cost must be what planning the projection
//! gives, bit for bit. All of it compiles away under `--release`.

use crate::invariants;
use crate::obs::{Counter, CounterSet, ShardSnapshot};
use crate::overlay::{Indexed, Overlay, Slot};
pub use dta_optimizer::Picks;
use dta_optimizer::{Plan, PreparedStatement, ViewUse};
use dta_physical::{
    table_key, ColumnUse, Configuration, IndexKind, PhysicalStructure, StructureHandle,
};
use dta_server::{FaultKind, ServerError, TuningTarget};
use dta_stats::RetryPolicy;
use dta_workload::WorkloadItem;
use parking_lot::{Mutex, Rank, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A memoized what-if result for one (statement, projected config) pair.
#[derive(Debug, Clone)]
struct CacheEntry {
    cost: f64,
    /// The structures the plan uses (for §6.3 reports), as the position
    /// of their names in the shard's [`UsedLists`].
    used: u32,
    /// Secondary fingerprint for debug-build collision detection
    /// ([`invariants::check_fingerprint`]); release builds keep none.
    /// Its low half: 32 independent bits catch a collision as surely as
    /// 64 for every purpose a debug build has.
    #[cfg(debug_assertions)]
    verify: u32,
    /// The slice that priced the entry ([`CacheState::begin`]): what a
    /// rollback of that slice drops.
    slice: u32,
    /// The shard's epoch when the entry was priced ([`Shard::epoch`],
    /// saturated at `u16::MAX`): a derived cost reads the entry only once
    /// a later serial point has passed.
    epoch: u16,
    /// The access path the plan picked for each table binding
    /// ([`Plan::picks`]), which a derived cost is finished from
    /// ([`CostEvaluator::derive`]); [`Picks::NONE`] for a degraded
    /// statement's fallback and for an INSERT, which has no binding to
    /// record. Inline: a release entry is 32 bytes.
    picks: Picks,
}

// what the entry's `picks` doc promises
#[cfg(not(debug_assertions))]
const _: () = assert!(std::mem::size_of::<CacheEntry>() == 32);

/// The names of the structures a shard's cached plans use, each list once:
/// an entry holds its list's position ([`CacheEntry::used`]), so the many
/// entries whose plans use the same structures share one list, and an
/// entry allocates nothing. The names are the handles' shared names, not
/// the handles, so a list keeps no structure alive — a lazily synthesized
/// variant is dropped with the evaluation that made it. Lists are told
/// apart by the names' addresses: plans share their handles' names, so
/// one set of structures gives one list, and only names made apart (a
/// checkpoint's, a synthesized variant's) list the same text twice. A
/// list outlives the entries that named it (a rollback or an invalidation
/// drops entries, not lists).
#[derive(Default)]
struct UsedLists {
    lists: Vec<Box<[Arc<str>]>>,
    /// By the combined addresses of a list's names, its position.
    positions: HashMap<u64, u32>,
}

impl UsedLists {
    /// The combined addresses of `used`'s names.
    fn key(used: &[Arc<str>]) -> u64 {
        used.iter().fold(used.len() as u64, |key, name| {
            let at = Arc::as_ptr(name).cast::<u8>() as usize as u64;
            (key.rotate_left(17) ^ at).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        })
    }

    /// The position of `used`, listed now if it was not.
    fn position(&mut self, used: Box<[Arc<str>]>) -> u32 {
        let key = Self::key(&used);
        let same = |listed: &[Arc<str>]| {
            listed.len() == used.len() && listed.iter().zip(&*used).all(|(a, b)| Arc::ptr_eq(a, b))
        };
        if let Some(&at) = self.positions.get(&key) {
            if self.lists.get(at as usize).is_some_and(|listed| same(listed)) {
                return at;
            }
        }
        // a new list, or one whose key another list holds: listed apart
        let at = u32::try_from(self.lists.len()).expect("fewer structure sets than u32::MAX");
        self.lists.push(used);
        self.positions.entry(key).or_insert(at);
        at
    }

    /// The names of the list at `at`.
    fn names(&self, at: u32) -> Vec<String> {
        self.lists.get(at as usize).map_or_else(Vec::new, |used| names(used))
    }
}

impl CacheEntry {
    /// The secondary fingerprint; 0 in release builds.
    fn verify(&self) -> u32 {
        #[cfg(debug_assertions)]
        return self.verify;
        #[cfg(not(debug_assertions))]
        0
    }
}

/// An epoch as an entry keeps it: saturated at `u16::MAX`, where every
/// later serial point looks like the last, so that nothing priced past it
/// is ever read.
fn epoch16(epoch: u32) -> u16 {
    u16::try_from(epoch).unwrap_or(u16::MAX)
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
    /// Secondary fingerprint (0 when the writer had invariants off): the
    /// low half an entry keeps.
    pub verify: u32,
    /// The access path the cached plan picked for each table binding;
    /// [`Picks::NONE`] when it recorded none.
    pub picks: Picks,
    /// The ordinal of the serial point last passed when the entry was
    /// priced ([`crate::greedy::SerialPoint::ordinal`], saturated at
    /// `u16::MAX`): a derived cost reads the entry only after a later one.
    pub epoch: u16,
}

/// A shard's cost cache and in-flight claims, keyed by fingerprint: probed
/// by key, filtered, and listed only through sorted keys
/// (`CacheState::export`).
#[expect(clippy::disallowed_types, reason = "probed by key; export sorts the keys")]
type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FingerprintHasher>>;
#[expect(clippy::disallowed_types, reason = "probed by key, never iterated")]
type HashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FingerprintHasher>>;

/// The hasher of the shard maps, whose keys are fingerprints — already
/// `DefaultHasher` outputs: a key hashes to itself.
#[derive(Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

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
    /// Per table binding the planner picks an access path for, in the
    /// order [`Picks`] records them, the position of its table in
    /// `tables` ([`PreparedStatement::binding_keys`]): empty for an
    /// INSERT, which picks none; `None` for a statement a derived cost
    /// cannot price, one that does not bind or has more bindings than a
    /// record holds.
    bindings: Option<Box<[u8]>>,
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
    /// The ordinal of the serial point the search pricing this statement
    /// last passed ([`crate::greedy::SerialPoint::ordinal`]; 0 before
    /// the first). A derived cost reads only entries priced at a lower
    /// one — present at that serial point — so whether a lookup is
    /// derived depends on no worker's timing.
    epoch: AtomicU32,
    /// The names of the structures its entries' plans use.
    used: Mutex<UsedLists>,
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
                cache: RwLock::ranked(HashMap::default(), CACHE),
                in_flight: Mutex::ranked(HashSet::default(), CLAIMS),
                stat: ShardStat::default(),
                epoch: AtomicU32::new(0),
                used: Mutex::new(UsedLists::default()),
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

    /// A cache entry of a plan that picked `picks`, stamped with the slice
    /// in progress and `shard`'s epoch.
    fn entry(
        &self,
        shard: &Shard,
        cost: f64,
        used_structures: Box<[Arc<str>]>,
        verify: u64,
        picks: Picks,
    ) -> CacheEntry {
        #[cfg(not(debug_assertions))]
        let _ = verify;
        CacheEntry {
            cost,
            picks,
            used: shard.used.lock().position(used_structures),
            #[cfg(debug_assertions)]
            verify: verify as u32,
            slice: self.slice.load(Ordering::SeqCst),
            epoch: epoch16(shard.epoch.load(Ordering::SeqCst)),
        }
    }

    /// Every statement's search has reached a serial point with this
    /// ordinal ([`crate::greedy::SerialPoint::ordinal`]; 0 as a search
    /// starts).
    pub(crate) fn serial_point(&self, ordinal: u32) {
        for shard in &self.shards {
            shard.epoch.store(ordinal, Ordering::SeqCst);
        }
    }

    /// Statement `i`'s own search has reached a serial point with this
    /// ordinal.
    pub(crate) fn item_serial_point(&self, i: usize, ordinal: u32) {
        if let Some(shard) = self.shards.get(i) {
            shard.epoch.store(ordinal, Ordering::SeqCst);
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
            let (cache, used) = (shard.cache.read(), shard.used.lock());
            #[expect(clippy::disallowed_methods, reason = "the keys are sorted next")]
            let mut keys: Vec<u64> = cache.keys().copied().collect();
            keys.sort_unstable();
            for fp in keys {
                if let Some(e) = cache.get(&fp) {
                    out.push(CacheExport {
                        item: i,
                        fingerprint: fp,
                        cost: e.cost,
                        used_structures: used.names(e.used),
                        verify: e.verify(),
                        picks: e.picks,
                        epoch: e.epoch,
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
        // one shared name per structure, as plans share them, so that
        // entries using the same structures share their list
        let mut shared: BTreeMap<&str, Arc<str>> = BTreeMap::new();
        for e in entries {
            if let Some(shard) = self.shards.get(e.item) {
                invariants::check_cost(e.cost, "imported cache entry");
                let used: Box<[Arc<str>]> = e
                    .used_structures
                    .iter()
                    .map(|n| Arc::clone(shared.entry(n).or_insert_with(|| Arc::from(n.as_str()))))
                    .collect();
                let entry = CacheEntry {
                    epoch: e.epoch,
                    ..self.entry(shard, e.cost, used, e.verify.into(), e.picks)
                };
                shard.cache.write().insert(e.fingerprint, entry);
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

    /// What-if calls issued: misses not derived, one per attempt.
    pub fn whatif_calls(&self) -> usize {
        self.counters.get(Counter::WhatIfCalls) as usize
    }

    /// Cache misses priced from recorded access paths, with no what-if
    /// call ([`Self::derive`]).
    pub fn derived_costs(&self) -> usize {
        self.counters.get(Counter::DerivedCosts) as usize
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

    /// The search pricing every statement has reached a serial point
    /// with this ordinal ([`crate::greedy::SerialPoint::ordinal`]; 0 as
    /// it starts): a derived cost reads what was priced before it.
    pub(crate) fn serial_point(&self, ordinal: u32) {
        self.state.serial_point(ordinal);
    }

    /// [`Self::serial_point`] for a search pricing statement `i` alone.
    pub(crate) fn item_serial_point(&self, i: usize, ordinal: u32) {
        self.state.item_serial_point(i, ordinal);
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
            let bindings = prepared.binding_keys().and_then(|keys| {
                let at = |key| u8::try_from(tables.binary_search(key).ok()?).ok();
                keys.iter().map(at).collect::<Option<Box<[u8]>>>()
            });
            Relevance {
                bindings: bindings.filter(|b| b.len() <= Picks::MAX),
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
        Print::of(relevant, config).finish()
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
        if invariants::ENABLED && entry.verify() != 0 {
            let recomputed = Self::verify_fingerprint(relevant, config) as u32;
            invariants::check_fingerprint(entry.verify().into(), recomputed.into(), i);
        }
        shard.stat.hits.fetch_add(1, Ordering::SeqCst);
        self.counters.add(Counter::CacheHits, 1);
        let used = if want_structures { shard.used.lock().names(entry.used) } else { Vec::new() };
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
        let print = Print::of(relevant, config);
        let fp = print.finish();
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
            let entry = self.state.entry(shard, cost, Box::default(), verify, Picks::NONE);
            shard.cache.write().insert(fp, entry);
            return Ok((cost, Vec::new()));
        }
        // only a miss materializes the projection, and only as pointer
        // copies; the what-if call dwarfs it
        let projected = config.projection(relevant);
        let prepared = self.preparation(item, shard);
        let plan = match Self::derive(shard, relevant, config, print, &prepared, &projected) {
            Some(plan) => {
                if invariants::ENABLED {
                    let planned = dta_optimizer::optimize_prepared(&prepared, &projected).ok();
                    let planned = planned.as_ref().map(|p| (p.cost, p.used_names(), p.picks()));
                    let planned = planned.as_ref().map(|(cost, used, p)| (*cost, &used[..], *p));
                    let derived = (plan.cost, &plan.used_names()[..], plan.picks());
                    invariants::check_derived(derived, planned, i);
                }
                self.counters.add(Counter::DerivedCosts, 1);
                Some(plan)
            }
            None => self.call(shard, &prepared, &projected)?,
        };
        let (cost, used_structures, picks) = match plan {
            Some(plan) => {
                invariants::check_cost(plan.cost, "what-if estimate");
                (plan.cost, plan.used_names(), plan.picks())
            }
            None => {
                self.state.degraded.lock().insert(i);
                (self.state.fallback_cost(i), Box::default(), Picks::NONE)
            }
        };
        let used = if want_structures { names(&used_structures) } else { Vec::new() };
        let entry = self.state.entry(shard, cost, used_structures, verify, picks);
        shard.cache.write().insert(fp, entry);
        Ok((cost, used))
    }

    /// Re-issues of one what-if call that panicked before [`Self::call`]
    /// gives up on it. Injected panics fire a bounded number of times per
    /// call site (once by default), so a call that panics this often is
    /// poisoned: it fails instead of hanging the session.
    pub(crate) const MAX_PANIC_RETRIES: usize = 64;

    /// A what-if call pricing `prepared` under `projected`, retried while
    /// a transient fault allows; `None` once a fault degrades the
    /// statement (a permanent one, or transient retries exhausted).
    ///
    /// The one panic guard of a session's pricing: a call that panics (an
    /// injected fault, a poisoned optimizer) is counted as a
    /// [`Counter::PanicRescues`] and re-issued. Injected panics fire a
    /// bounded number of times per call site, so the re-issued call
    /// answers what the clean schedule would have; past
    /// [`Self::MAX_PANIC_RETRIES`] re-issues the call fails permanently,
    /// and its caller fails or degrades as for any server error.
    fn call(
        &self,
        shard: &Shard,
        prepared: &PreparedStatement,
        projected: &Configuration,
    ) -> Result<Option<Plan>, ServerError> {
        let (mut attempt, mut panics): (u32, usize) = (0, 0);
        loop {
            // one call per unique miss (plus deterministic retries): the
            // in-flight claim serialized racing lookups away
            self.counters.add(Counter::WhatIfCalls, 1);
            shard.stat.calls.fetch_add(1, Ordering::SeqCst);
            let answer =
                catch_unwind(AssertUnwindSafe(|| self.target.whatif_prepared(prepared, projected)));
            let Ok(answer) = answer else {
                self.counters.add(Counter::PanicRescues, 1);
                panics += 1;
                if panics > Self::MAX_PANIC_RETRIES {
                    return Err(ServerError::Fault {
                        kind: FaultKind::Permanent,
                        what: "what-if panicked past the retry bound".into(),
                    });
                }
                continue;
            };
            match answer {
                Ok(plan) => return Ok(Some(plan)),
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
                // permanent fault, or transient retries exhausted: the
                // caller degrades the statement instead of aborting
                Err(ServerError::Fault { .. }) => return Ok(None),
                Err(other) => return Err(other),
            }
        }
    }

    /// The plan of a statement under `config`, finished from the access
    /// paths its cache recorded instead of by a what-if call.
    ///
    /// A table binding's access path depends on its own table's structures
    /// alone: the planner prices the joins, the views and every other
    /// table around the picks. So each table `T` a binding reads is read
    /// from its own reference: the statement's projection of `config` on
    /// `T` less `X_T`, the non-clustered indexes the set added there (in
    /// whatever partitioning alignment gave them), with every other table
    /// at the base's and no view beyond the base's. `T`'s bindings take
    /// their paths from the reference's entry, and each index of `X_T` is
    /// tried beside the reference alone, in the entry of the reference plus
    /// it. Those entries must have recorded a path for every binding,
    /// priced before the statement's last serial point ([`Shard::epoch`]);
    /// no clustered index may be added, and on `T` the reference's indexes
    /// must lead `X_T`'s, so that a position means one index in all of
    /// them; and with each index of `X_T`, every binding of `T` must have
    /// read either the reference's path or that index, and every other
    /// binding the reference's path. Then, binding by binding, every path
    /// the planner could pick under `config` is a recorded one: a path of
    /// the reference that loses there loses here — the clustering and
    /// partitioning that price the table's paths are the reference's — and
    /// an added index's path that does not win beside the reference alone
    /// cannot win beside more. So the first of the cheapest recorded paths,
    /// in `config`'s order, is the planner's pick, and the planner — join
    /// order, probes, grouping, view rewrites and maintenance included —
    /// finishes the plan from it ([`dta_optimizer::derive_prepared`]), bit
    /// for bit. An INSERT picks no path, so its plan is the maintenance sum
    /// under `config`; it reads its target's records as an UPDATE does,
    /// and derives where an UPDATE would. `None` — and a what-if call — in
    /// every other case: a statement that does not bind or has more
    /// bindings than [`Picks::MAX`], an added clustered index, a missing
    /// or late record.
    fn derive(
        shard: &Shard,
        relevant: &Relevance,
        config: &Overlay<'_>,
        print: Print,
        prepared: &PreparedStatement,
        projected: &Configuration,
    ) -> Option<Plan> {
        let bindings = relevant.bindings.as_deref()?;
        // the tables whose records it reads, each once: at most one per
        // binding, and an INSERT's one table, its target
        let reads = if bindings.is_empty() { &[0][..] } else { bindings };
        let mut references = [Reference::default(); Picks::MAX];
        let mut read = 0;
        for &table in reads {
            if references.iter().take(read).all(|r| r.table != table) {
                references.get_mut(read)?.table = table;
                read += 1;
            }
        }
        let references = references.get_mut(..read)?;
        // the base's fingerprint is `print` less the views the set added
        // and less what differs from the base on each re-listed table; each
        // added index is listed with its reference, its position among the
        // indexes there, and the position it has in the reference plus it
        let mut base_print = print;
        for (_, v) in config.added_views().iter().filter(|(_, v)| relevant.admits(v)) {
            base_print = base_print.without(v);
        }
        let base = config.base();
        let mut added = Vec::new();
        let mut relisted = config.keys().peekable();
        for (table, &(key, used)) in relevant.tables().iter().enumerate() {
            // both ascend by key
            while relisted.next_if(|&k| k < key).is_some() {}
            if relisted.next_if_eq(&key).is_none() {
                continue;
            }
            let reference = references.iter().position(|r| usize::from(r.table) == table);
            // what it sees here less what the base sees, and the added
            // indexes' part of that; the base's slots come first, in order
            let (mut diff, mut extra) = (Print::default(), Print::default());
            let mut before = base.on(key).iter().peekable();
            let (mut indexes, mut own) = (0usize, None);
            for (slot, h) in config.on(key) {
                let serves = h.serves(used);
                if let Slot::Base(_) = slot {
                    // the base's structures alignment dropped come first
                    while let Some((_, o)) = before.next_if(|(s, _)| s < slot) {
                        if o.serves(used) {
                            diff = diff.without(o);
                        }
                    }
                    let (_, o) = before.next_if(|(s, _)| s == slot)?;
                    if o != h {
                        // rewritten by alignment
                        if o.serves(used) {
                            diff = diff.without(o);
                        }
                        if serves {
                            diff = diff.with(h);
                        }
                    }
                    if serves && h.as_index().is_some() {
                        if own.is_some() {
                            return None;
                        }
                        indexes += 1;
                    }
                    continue;
                }
                if !serves {
                    continue;
                }
                diff = diff.with(h);
                match (slot, h.as_index().map(|ix| ix.kind)) {
                    (Slot::Set(_), Some(IndexKind::NonClustered)) => {
                        indexes += 1;
                        let position = u8::try_from(indexes).ok().filter(|&p| p < u8::MAX)?;
                        let own = *own.get_or_insert(position);
                        extra = extra.with(h);
                        if let Some(r) = reference {
                            added.push((r, &**h, position, own, 0u8));
                        }
                    }
                    // an added clustered index
                    (_, Some(_)) => return None,
                    // a heap partitioning
                    (_, None) => {}
                }
            }
            for (_, o) in before {
                if o.serves(used) {
                    diff = diff.without(o);
                }
            }
            base_print = base_print.minus(diff);
            if let Some(r) = reference.and_then(|r| references.get_mut(r)) {
                r.diff = diff.minus(extra);
            }
        }
        let epoch = epoch16(shard.epoch.load(Ordering::SeqCst));
        let cache = shard.cache.read();
        let picks_at = |print: Print| {
            let picks = cache.get(&print.finish()).filter(|e| e.epoch < epoch)?.picks;
            (picks.as_slice().len() == bindings.len()).then_some(picks)
        };
        for r in references.iter_mut() {
            r.picks = picks_at(base_print.plus(r.diff))?;
        }
        // each binding reads its table's reference's path
        let mut first = [Picks::SCAN; Picks::MAX];
        for (b, (at, &table)) in first.iter_mut().zip(bindings.iter()).enumerate() {
            let reference = references.iter().find(|r| r.table == table)?;
            *at = *reference.picks.as_slice().get(b)?;
        }
        let first = Picks::from_slice(first.get(..bindings.len())?);
        // for each added index, the bindings of its table that picked it
        // beside its reference's paths alone, as a mask
        for (r, h, _, own, won) in &mut added {
            let reference = references.get(*r)?;
            let alone = picks_at(base_print.plus(reference.diff).with(h))?;
            let picked = bindings.iter().zip(reference.picks.as_slice()).zip(alone.as_slice());
            for (b, ((&on, &was), &now)) in picked.enumerate() {
                if on == reference.table && now == *own {
                    *won |= 1 << b;
                } else if now != was {
                    return None;
                }
            }
        }
        drop(cache);
        let wins = added.iter().filter_map(|&(_, _, at, _, won)| (won != 0).then_some((at, won)));
        dta_optimizer::derive_prepared(prepared, projected, first, wins)
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

    /// [`Self::item_report`] under a configuration indexed already.
    #[cfg(test)]
    pub(crate) fn report(
        &self,
        i: usize,
        config: &Overlay<'_>,
    ) -> Result<(f64, Vec<String>), ServerError> {
        self.item_entry(i, config, true)
    }

    /// Cost plus the structures the plan uses (§6.3 reports).
    pub fn item_report(
        &self,
        i: usize,
        config: &Configuration,
    ) -> Result<(f64, Vec<String>), ServerError> {
        self.item_entry(i, &Overlay::of(&self.index_for(i, config)), true)
    }

    /// Weighted workload cost under `config`: [`Self::priced`] with no
    /// delta, atoms or base costs, so every statement is looked up.
    pub fn workload_cost(&self, config: &Configuration) -> Result<f64, ServerError> {
        self.priced(&Overlay::of(&Indexed::new(config, None)), &[], &[], &[])
    }

    /// The atom of `config`, which differs from the base by `delta`. Each
    /// statement the delta reaches is listed with its cost under `config`
    /// as the cache holds it now — read, not looked up, so no counter
    /// moves. `None` when a statement has no [`Relevance`] yet, so what
    /// the delta reaches is unknown.
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

    /// Weighted workload cost under `config`, which differs from the base
    /// by the structures in `delta` — those the one holds and the other
    /// does not. `base_costs[i]` is statement `i`'s cost under the base, as
    /// [`Self::cached_costs`] read it.
    ///
    /// Each atom whose delta lies in `delta` and shares no structure with
    /// an atom used before it is used; each statement the rest of `delta`
    /// reaches is found by [`Relevance::admits`]. A statement nothing in
    /// `delta` reaches takes its base cost, one that exactly one used atom
    /// and nothing else reaches takes that atom's cost, and any other —
    /// or one whose cost is missing — is looked up. A cost taken without a
    /// lookup is the one the cache holds for `config`'s projection, which
    /// debug builds check. Statements are summed in workload order with
    /// the same operations whatever is looked up, so every pricing of a
    /// configuration gives the same bits, and only the hits skipped go
    /// uncounted.
    pub(crate) fn priced(
        &self,
        config: &Overlay<'_>,
        delta: &[StructureHandle],
        atoms: &[&Atom],
        base_costs: &[Option<f64>],
    ) -> Result<f64, ServerError> {
        self.summed(config, delta, atoms, base_costs, |i| self.price(i, config))
    }

    /// [`Self::priced`]'s sum, with each statement it looks up priced by
    /// `look_up`.
    fn summed<E>(
        &self,
        config: &Overlay<'_>,
        delta: &[StructureHandle],
        atoms: &[&Atom],
        base_costs: &[Option<f64>],
        mut look_up: impl FnMut(usize) -> Result<f64, E>,
    ) -> Result<f64, E> {
        let mut used: Vec<&Atom> = Vec::new();
        for &atom in atoms {
            let inside = atom.delta.iter().all(|h| delta.contains(h));
            if inside && !used.iter().any(|u| u.delta.iter().any(|h| atom.delta.contains(h))) {
                used.push(atom);
            }
        }
        let rest: Vec<&StructureHandle> =
            delta.iter().filter(|h| !used.iter().any(|a| a.delta.contains(h))).collect();
        let mut reached: Vec<_> = used.iter().map(|a| a.reached.iter().peekable()).collect();
        let mut total = 0.0;
        for i in 0..self.items.len() {
            let (item, shard) = self.slot(i);
            let (mut reaching, mut known) = (0, base_costs.get(i).copied().flatten());
            for atom in &mut reached {
                if let Some(&(_, cost)) = atom.next_if(|&&(j, _)| j == i) {
                    reaching += 1;
                    known = cost;
                }
            }
            if reaching > 1 || rest.iter().any(|h| self.relevance(item, shard).admits(h)) {
                known = None;
            }
            let cost = match known {
                Some(cost) => {
                    if invariants::ENABLED {
                        let cached = Self::cached(shard, self.relevance(item, shard), config);
                        invariants::check_reference_cost(cost, cached, i);
                    }
                    cost
                }
                None => look_up(i)?,
            };
            let next = total + item.weight * cost;
            invariants::check_monotonic_sum(total, next, "workload_cost");
            total = next;
        }
        Ok(total)
    }

    /// Per statement, whether a set of added non-clustered indexes that
    /// leave its tables laid out as in the base prices it through one
    /// access path: it binds one table (a SELECT, UPDATE or DELETE) or
    /// none (an INSERT). Its plan then reads one path, the base's or one
    /// index's, and maintenance adds per index, so the set cannot cost it
    /// less than `base − Σ max(0, base − cₓ)` over the indexes' singleton
    /// costs `cₓ`. `false` for a statement not looked up yet.
    pub(crate) fn one_path(&self) -> Vec<bool> {
        let shards = &self.state.shards;
        shards
            .iter()
            .map(|s| {
                s.relevance.get().and_then(|r| r.bindings.as_ref()).is_some_and(|b| b.len() <= 1)
            })
            .collect()
    }

    /// Debug builds: a Phase-1 set skipped against `ceiling` — priced as
    /// [`Self::priced`] would, but with each statement it would look up
    /// planned on its projection, so the cache, the counters and the server
    /// stay untouched — must cost no less than its `floor` and than the
    /// ceiling, so that it could not have displaced the front. Skipped when
    /// a statement to plan is degraded, as its cost would then be the
    /// cache's, not the plan's.
    pub(crate) fn check_pruned(
        &self,
        config: &Overlay<'_>,
        delta: &[StructureHandle],
        atoms: &[&Atom],
        base_costs: &[Option<f64>],
        floor: f64,
        ceiling: f64,
    ) {
        if !invariants::ENABLED {
            return;
        }
        let planned = self.summed(config, delta, atoms, base_costs, |i| {
            let (item, shard) = self.slot(i);
            if self.state.degraded.lock().contains(&i) {
                return Err(());
            }
            let projected = config.projection(self.relevance(item, shard));
            let prepared = self.preparation(item, shard);
            dta_optimizer::optimize_prepared(&prepared, &projected).map(|p| p.cost).map_err(|_| ())
        });
        if let Ok(planned) = planned {
            invariants::check_pruned(planned, floor, ceiling);
        }
    }
}

/// What a configuration changes from the base — AutoAdmin's *atomic
/// configuration*: its delta from the base, and each statement that
/// delta reaches with its cost under the configuration. Made by
/// [`CostEvaluator::atom`] at a serial point, for a singleton `base ∪ {c}`
/// or the incumbent, after it was priced; [`CostEvaluator::priced`]
/// prices sets from atoms.
#[derive(Debug)]
pub(crate) struct Atom {
    delta: Vec<StructureHandle>,
    /// Statements the delta reaches, ascending, each with its cost under
    /// the configuration if the cache held one.
    reached: Vec<(usize, Option<f64>)>,
}

impl Atom {
    /// The statements the atom reaches, ascending, with their costs.
    pub(crate) fn reached(&self) -> &[(usize, Option<f64>)] {
        &self.reached
    }
}

/// The order-independent combination of the content hashes of the
/// structures a statement sees, which [`CostEvaluator::fingerprint`]
/// hashes: one more structure is one more term. Terms add and subtract in
/// any order, so a print may stand for a difference between two
/// projections on the way to one.
#[derive(Debug, Clone, Copy, Default)]
struct Print {
    sum: u64,
    xor: u64,
    count: u64,
}

impl Print {
    /// Over `config` projected onto what `relevant` sees.
    fn of(relevant: &Relevance, config: &Overlay<'_>) -> Self {
        let mut print = Self::default();
        config.for_each_relevant(relevant, |h| print = print.with(h));
        print
    }

    /// With `h` too.
    fn with(self, h: &StructureHandle) -> Self {
        let v = h.content_hash();
        self.plus(Self { sum: v, xor: v, count: 1 })
    }

    /// Without `h`.
    fn without(self, h: &StructureHandle) -> Self {
        let v = h.content_hash();
        self.minus(Self { sum: v, xor: v, count: 1 })
    }

    /// With the terms of `other` too.
    fn plus(self, other: Self) -> Self {
        Self {
            sum: self.sum.wrapping_add(other.sum),
            xor: self.xor ^ other.xor,
            count: self.count.wrapping_add(other.count),
        }
    }

    /// Without the terms of `other`.
    fn minus(self, other: Self) -> Self {
        Self {
            sum: self.sum.wrapping_sub(other.sum),
            xor: self.xor ^ other.xor,
            count: self.count.wrapping_sub(other.count),
        }
    }

    /// The fingerprint.
    fn finish(self) -> u64 {
        let mut h = DefaultHasher::new();
        (self.sum, self.xor, self.count).hash(&mut h);
        h.finish()
    }
}

/// A table some binding reads, as [`CostEvaluator::derive`] prices it:
/// its position among the statement's tables, its reference's print less
/// the base's, and the paths the reference's entry recorded.
#[derive(Debug, Clone, Copy)]
struct Reference {
    table: u8,
    diff: Print,
    picks: Picks,
}

impl Default for Reference {
    fn default() -> Self {
        Self { table: u8::MAX, diff: Print::default(), picks: Picks::NONE }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::{Column, ColumnType, Database, Table, Value};
    use dta_physical::{Index, PhysicalStructure};
    use dta_server::{FaultPolicy, Server};
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
    fn a_panicking_call_is_reissued_until_it_answers_or_past_the_bound_fails() {
        let clean = {
            let s = server();
            let target = TuningTarget::Single(&s);
            let w = wl();
            CostEvaluator::new(&target, &w.items).item_cost(0, &Configuration::new())
        };
        let clean = clean.expect("costing succeeds");
        // every call site panics `repeats` times, then answers
        let panicking = |repeats: usize| {
            let s = server();
            s.set_fault_policy(Some(FaultPolicy {
                seed: 7,
                whatif_panic_rate: 1.0,
                whatif_panic_repeats: repeats as u32,
                ..FaultPolicy::default()
            }));
            s
        };
        for r in [1, 3, CostEvaluator::MAX_PANIC_RETRIES] {
            let s = panicking(r);
            let target = TuningTarget::Single(&s);
            let w = wl();
            let eval = CostEvaluator::new(&target, &w.items);
            let cost = eval.item_cost(0, &Configuration::new()).expect("rescued at the call");
            assert_eq!(cost.to_bits(), clean.to_bits(), "r={r}");
            assert_eq!(eval.counters.get(Counter::PanicRescues), r as u64, "r={r}");
            assert_eq!(eval.whatif_calls(), 1 + r, "r={r}");
            assert!(eval.degraded_items().is_empty(), "r={r}");
        }
        // one panic more than the bound re-issues: the call fails for good
        let past = CostEvaluator::MAX_PANIC_RETRIES + 1;
        let s = panicking(past);
        let target = TuningTarget::Single(&s);
        let w = wl();
        let eval = CostEvaluator::new(&target, &w.items);
        let failed = eval.item_cost(0, &Configuration::new());
        assert!(
            matches!(failed, Err(ServerError::Fault { kind: FaultKind::Permanent, .. })),
            "{failed:?}"
        );
        assert_eq!(eval.counters.get(Counter::PanicRescues), past as u64);
        assert_eq!(eval.whatif_calls(), past);
        assert!(eval.degraded_items().is_empty(), "an error is not a degradation");
        // the claim was released and nothing was cached: the next lookup
        // calls again, and the site has stopped panicking
        let cost = eval.item_cost(0, &Configuration::new()).expect("the site answers now");
        assert_eq!(cost.to_bits(), clean.to_bits());
        assert_eq!(eval.whatif_calls(), past + 1);
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

    /// Price `base ∪ {added}` from its delta from `base`, on `eval` and
    /// on `twin` whole: the two must agree bit for bit and in every miss
    /// and call. Returns which statements `eval` looked up.
    fn delta_lookups(
        eval: &CostEvaluator<'_>,
        twin: &CostEvaluator<'_>,
        base: &Configuration,
        added: PhysicalStructure,
    ) -> Vec<bool> {
        let costs = eval.cached_costs(&Overlay::of(&Indexed::new(base, None)));
        let mut config = base.clone();
        config.add(added.clone());
        let indexed = Indexed::new(&config, None);
        let lookups = |e: &CostEvaluator<'_>| -> Vec<u64> {
            e.cache_stats().iter().map(|st| st.hits + st.misses).collect()
        };
        let before = lookups(eval);
        let delta = [StructureHandle::new(added)];
        let got =
            eval.priced(&Overlay::of(&indexed), &delta, &[], &costs).expect("costing succeeds");
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
        let base = Configuration::from_structures([index("t", &["a"], &["b"])]);
        for e in [&eval, &twin] {
            e.workload_cost(&base).expect("costing succeeds");
        }
        let [insert, delete, update, on_u, on_t] = [0, 1, 2, 3, 4];
        let looked_up = |added| delta_lookups(&eval, &twin, &base, added);

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
        let base = Configuration::from_structures([index("t", &["a"], &["b"])]);
        for e in [&eval, &twin] {
            e.state.set_fallbacks(vec![7.0; 5]);
            e.workload_cost(&base).expect("costing succeeds");
        }
        // the SELECT on `t` then faults for good on a configuration it sees
        for (server, e) in [(&s, &eval), (&twin_s, &twin)] {
            server.set_fault_policy(Some(permanent));
            e.item_cost(4, &Configuration::from_structures([index("t", &["a"], &[])]))
                .expect("degrades");
            server.set_fault_policy(None);
            assert_eq!(e.degraded_items(), [4]);
        }
        // priced at its base cost — the real one, as the hit it skips
        // would have returned — where the delta cannot reach it …
        assert!(!delta_lookups(&eval, &twin, &base, index("u", &["a"], &[]))[4]);
        // … and at its fallback, through a lookup, where it can
        assert!(delta_lookups(&eval, &twin, &base, index("t", &["a"], &["c"]))[4]);
        assert_eq!(eval.item_cost(4, &base).expect("cached").to_bits(), {
            twin.item_cost(4, &base).expect("cached").to_bits()
        });
        assert_ne!(eval.item_cost(4, &base).expect("cached"), 7.0, "priced before the fault");
    }

    #[test]
    fn a_derived_cost_reads_only_what_was_priced_before_the_last_serial_point() {
        let (s, w) = (server(), wl());
        let target = TuningTarget::Single(&s);
        let empty = Configuration::new();
        let base = Indexed::new(&empty, None);
        // two plain indexes statement 0 seeks through, alone and together
        let handles =
            [index("t", &["a"], &["b"]), index("t", &["a"], &["c"])].map(StructureHandle::new);
        let [one, other] = [&handles[0], &handles[1]];
        let price = |eval: &CostEvaluator<'_>, set: &[&StructureHandle]| {
            eval.price(0, &Overlay::union(&base, set)).expect("costing succeeds")
        };
        let tally = |eval: &CostEvaluator<'_>| (eval.whatif_calls(), eval.derived_costs());
        let mut pairs = Vec::new();
        for serial_point in [false, true] {
            let eval = CostEvaluator::new(&target, &w.items);
            eval.serial_point(0);
            for set in [&[][..], &[one], &[other]] {
                price(&eval, set);
            }
            assert_eq!(tally(&eval), (3, 0), "the base and the singletons are calls");
            if serial_point {
                eval.serial_point(1);
            }
            pairs.push(price(&eval, &[one, other]).to_bits());
            // priced in the same batch, the records are not read; past a
            // serial point they are, and no call is made
            let want = if serial_point { (3, 1) } else { (4, 0) };
            assert_eq!(tally(&eval), want);
        }
        assert_eq!(pairs[0], pairs[1], "derived or called, the same cost");

        // an INSERT into `t` reads `t`'s records as the SELECT does
        let sql = "INSERT INTO t VALUES (1, 2, 3)";
        let insert = [WorkloadItem::new("d", parse_statement(sql).expect("valid SQL"))];
        let price = |eval: &CostEvaluator<'_>, set: &[&StructureHandle]| {
            eval.price(0, &Overlay::union(&base, set)).expect("costing succeeds").to_bits()
        };
        let planned = {
            let whole = Overlay::union(&base, &[one, other]).materialize();
            s.whatif("d", &insert[0].statement, &whole).expect("binds").cost.to_bits()
        };
        for singletons_first in [false, true] {
            let eval = CostEvaluator::new(&target, &insert);
            eval.serial_point(0);
            price(&eval, &[]);
            eval.serial_point(1);
            // the base is recorded, but `base ∪ {one}` plus `one` is not
            price(&eval, &[one]);
            assert_eq!(tally(&eval), (2, 0), "[derived-record] the singleton is a call");
            if singletons_first {
                price(&eval, &[other]);
            }
            eval.serial_point(2);
            if !singletons_first {
                price(&eval, &[other]);
            }
            assert_eq!(price(&eval, &[one, other]), planned);
            // the pair reads `base ∪ {one}` and `base ∪ {other}`, and only
            // once both are older than the last serial point
            let want = if singletons_first { (3, 1) } else { (4, 0) };
            assert_eq!(tally(&eval), want, "[derived-record] the pair, {singletons_first}");
        }
    }

    #[test]
    fn a_join_derives_alike_from_imported_records_and_unrecorded_ones_are_called() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let join = "SELECT t.c, u.b FROM t, u WHERE t.a = u.a AND t.b = 5";
        let items = [WorkloadItem::new("d", parse_statement(join).expect("valid SQL"))];
        let empty = Configuration::new();
        let base = Indexed::new(&empty, None);
        // a plain index on each table: one seeks `t`, one probes `u`
        let handles = [index("t", &["b"], &["a"]), index("u", &["a"], &["b"])];
        let [one, other] = handles.map(StructureHandle::new);
        let price = |eval: &CostEvaluator<'_>, set: &[&StructureHandle]| {
            eval.price(0, &Overlay::union(&base, set)).expect("costing succeeds")
        };
        let tally = |eval: &CostEvaluator<'_>| (eval.whatif_calls(), eval.derived_costs());
        let live = CostEvaluator::new(&target, &items);
        live.serial_point(0);
        for set in [&[][..], &[&one], &[&other]] {
            price(&live, set);
        }
        let exported = live.state.export();
        assert!(exported.iter().all(|e| e.picks.as_slice().len() == 2), "{exported:?}");
        live.serial_point(1);
        let want = price(&live, &[&one, &other]);
        assert_eq!(tally(&live), (3, 1), "the pair is derived");
        // a session rebuilt from the records derives what the live one
        // did; a list of another length than the statement's bindings, or
        // none, reads as unrecorded, and the pair is called
        for (picks, derived) in [(None, 1), (Some(&[0][..]), 0), (Some(&[0; 9]), 0), (Some(&[]), 0)]
        {
            let mut entries = exported.clone();
            if let Some(picks) = picks {
                entries.iter_mut().for_each(|e| e.picks = Picks::from_slice(picks));
            }
            let rebuilt = CostEvaluator::new(&target, &items);
            rebuilt.state.import(&entries, &[]);
            rebuilt.serial_point(1);
            assert_eq!(price(&rebuilt, &[&one, &other]).to_bits(), want.to_bits(), "{picks:?}");
            assert_eq!(tally(&rebuilt), (1 - derived, derived), "{picks:?}");
            if picks.is_none() {
                assert_eq!(rebuilt.state.export(), live.state.export());
            }
        }
    }

    #[test]
    fn a_pair_of_partitionings_derives_from_its_singletons_unless_one_is_as_new() {
        let s = server();
        let target = TuningTarget::Single(&s);
        let join = "SELECT t.c, u.b FROM t, u WHERE t.a = u.a AND t.b < 900 AND u.b < 900";
        let items = [WorkloadItem::new("d", parse_statement(join).expect("valid SQL"))];
        let empty = Configuration::new();
        let base = Indexed::new(&empty, None);
        // a heap partitioning on each joined table: each cuts its scan
        let scheme = dta_physical::RangePartitioning::new("b", vec![Value::Int(1000)]);
        let [on_t, on_u] = ["t", "u"].map(|table| {
            StructureHandle::new(PhysicalStructure::TablePartitioning {
                database: "d".into(),
                table: table.into(),
                scheme: scheme.clone(),
            })
        });
        let price = |eval: &CostEvaluator<'_>, set: &[&StructureHandle]| {
            eval.price(0, &Overlay::union(&base, set)).expect("costing succeeds")
        };
        let planned = {
            let whole = Overlay::union(&base, &[&on_t, &on_u]).materialize();
            s.whatif("d", &items[0].statement, &whole).expect("binds")
        };
        let tally = |eval: &CostEvaluator<'_>| (eval.whatif_calls(), eval.derived_costs());
        // both singletons priced before the serial point: the pair reads
        // each table's path from the singleton on that table, the base
        // unpriced
        let eval = CostEvaluator::new(&target, &items);
        price(&eval, &[&on_t]);
        price(&eval, &[&on_u]);
        eval.serial_point(1);
        assert_eq!(price(&eval, &[&on_t, &on_u]).to_bits(), planned.cost.to_bits());
        assert_eq!(tally(&eval), (2, 1), "the pair is derived");
        // one singleton priced in the pair's batch: the pair is called
        let eval = CostEvaluator::new(&target, &items);
        price(&eval, &[&on_t]);
        eval.serial_point(1);
        price(&eval, &[&on_u]);
        assert_eq!(price(&eval, &[&on_t, &on_u]).to_bits(), planned.cost.to_bits());
        assert_eq!(tally(&eval), (3, 0), "the pair is called");
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
