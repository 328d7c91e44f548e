//! Enumeration (§2.2, §4): pick the final configuration from the
//! candidate pool with Greedy(m, k), honoring the storage bound, the
//! user-specified configuration, and the alignment constraint.
//!
//! Alignment (§4) is enforced by *rewriting* every evaluated
//! configuration so that each table and all of its indexes share one
//! partitioning. In [`crate::options::AlignmentMode::Lazy`] mode, the
//! partitioned index variants this requires are synthesized on demand —
//! the paper's lazy technique. [`crate::options::AlignmentMode::Eager`]
//! instead cross-products the pool with every candidate partitioning up
//! front (the unscalable baseline kept for the ablation).

use crate::candidates::Candidate;
use crate::control::{SessionControl, StopReason};
use crate::cost::CostEvaluator;
use crate::greedy::{greedy_mk, GreedySnapshot};
use crate::obs::SessionObserver;
use crate::options::{AlignmentMode, TuningOptions};
use dta_physical::sizing::structure_bytes;
use dta_physical::{
    table_key, Configuration, PhysicalStructure, RangePartitioning, SizingInfo, StructureHandle,
    ValidityError,
};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The outcome of enumeration.
#[derive(Debug, Clone)]
pub struct EnumerationResult {
    /// Final configuration (base structures included).
    pub configuration: Configuration,
    /// Workload cost under it.
    pub cost: f64,
    /// Greedy evaluations performed.
    pub evaluations: usize,
    /// Size of the pool enumeration ran over (after any eager expansion).
    pub pool_size: usize,
    /// Aligned variants synthesized lazily during evaluation.
    pub lazy_variants: usize,
}

/// Enumeration progress captured in a checkpoint: the greedy cursor plus
/// the lazy-variant tally at the cut (the pool ordering and any eager
/// expansion are recomputed deterministically from the candidate pool).
#[derive(Debug, Clone, PartialEq)]
pub struct EnumerationResume {
    /// The interrupted Greedy(m, k) state.
    pub snapshot: GreedySnapshot,
    /// Lazy aligned variants synthesized before the cut.
    pub lazy_variants: usize,
}

/// The outcome of a budget-aware enumeration run.
#[derive(Debug, Clone)]
pub struct EnumerationRun {
    /// Best configuration found, whether or not the run completed.
    pub result: EnumerationResult,
    /// `Some` when the budget or a cancellation cut the search short.
    pub interrupted: Option<(StopReason, EnumerationResume)>,
}

/// What alignment does to each structure of a configuration.
struct Alignment {
    /// Per structure, in order, what stands in its place: itself, a
    /// repartitioned variant, or nothing when it is dropped or has become
    /// identical to an earlier structure.
    forms: Vec<Option<StructureHandle>>,
    /// Heap partitionings introduced for tables that only an index
    /// partitions, in table order.
    synthesized: Vec<StructureHandle>,
    /// Structures rewritten, dropped or introduced.
    rewritten: usize,
}

/// Align every table of `config`: each table's indexes take on the
/// table's effective partitioning (or lose theirs if the table is
/// unpartitioned). Tables are aligned independently of one another.
fn align(config: &Configuration) -> Alignment {
    // table → target partitioning. Precedence: a clustered index pins the
    // table's partitioning (even "unpartitioned"); else an explicit heap
    // partitioning; else the first partitioned index's scheme (in which
    // case the heap must be partitioned too).
    let mut target: BTreeMap<u64, Option<&RangePartitioning>> = BTreeMap::new();
    let mut synthesized = Vec::new();
    let mut rewritten = 0usize;
    for (db, t) in config.tables() {
        let want = if let Some(ci) = config.clustered_index(db, t) {
            ci.partitioning.as_ref()
        } else if let Some(p) = config.table_partitioning(db, t) {
            Some(p)
        } else if let Some(p) = config.indexes_on(db, t).find_map(|ix| ix.partitioning.as_ref()) {
            // the heap itself must adopt this partitioning for the table
            // to count as aligned — a lazily introduced structure
            synthesized.push(StructureHandle::new(PhysicalStructure::TablePartitioning {
                database: db.to_string(),
                table: t.to_string(),
                scheme: p.clone(),
            }));
            rewritten += 1;
            Some(p)
        } else {
            None
        };
        target.insert(table_key(db, t), want);
    }

    let mut placed = Configuration::new();
    let mut forms = Vec::with_capacity(config.len());
    for h in config.handles() {
        let want = h.table_key().and_then(|k| target.get(&k).copied().flatten());
        let form = match h.structure() {
            PhysicalStructure::Index(ix) if ix.partitioning.as_ref() != want => {
                rewritten += 1;
                let mut v = ix.clone();
                v.partitioning = want.cloned();
                Some(StructureHandle::new(PhysicalStructure::Index(v)))
            }
            // a heap partitioning is meaningless (and misaligned) when a
            // clustered index pins a different scheme; it is dropped
            // entirely when the table must be unpartitioned
            PhysicalStructure::TablePartitioning { database, table, scheme }
                if want != Some(scheme) =>
            {
                rewritten += 1;
                want.map(|w| {
                    StructureHandle::new(PhysicalStructure::TablePartitioning {
                        database: database.clone(),
                        table: table.clone(),
                        scheme: w.clone(),
                    })
                })
            }
            _ => Some(h.clone()),
        };
        forms.push(form.filter(|f| placed.add_shared(f.clone())));
    }
    Alignment { forms, synthesized, rewritten }
}

/// Rewrite `config` so every table is aligned: each table's indexes take
/// on the table's effective partitioning (or lose theirs if the table is
/// unpartitioned). Returns the number of structures rewritten.
#[cfg(test)]
fn align_configuration(config: &Configuration) -> (Configuration, usize) {
    let aligned = align(config);
    let mut out = Configuration::new();
    for h in aligned.forms.into_iter().flatten().chain(aligned.synthesized) {
        out.add_shared(h);
    }
    (out, aligned.rewritten)
}

/// Builds the configurations enumeration prices — `base ∪ set`, aligned
/// (§4), structurally feasible and within the storage bound — at a cost
/// that depends on the candidate set, not on how wide the base is.
///
/// The invariant that makes this possible: alignment, the one-clustering
/// / one-heap-partitioning rule and storage are all decided table by
/// table. So the base is aligned, checked and sized once, here, and an
/// evaluation redoes that work only for the tables its candidates are
/// on (plus any table the base itself leaves misaligned or in conflict —
/// none, for a valid aligned base — and any its [`Reference`] changed).
/// The result is what recomputing over the whole configuration gives,
/// structure for structure: base order, then set order, then introduced
/// heap partitionings in table order.
pub struct Assembler<'a> {
    base: &'a Configuration,
    alignment: bool,
    storage_bytes: Option<u64>,
    sizing: &'a dyn SizingInfo,
    base_bytes: u64,
    /// Keys of the base's tables that alignment changes or that break
    /// the one-clustering / one-heap-partitioning rule as they stand:
    /// every evaluation rechecks them along with its candidates' tables.
    unsettled: Vec<u64>,
    /// The base's views.
    base_views: Vec<StructureHandle>,
    /// The base, indexed as a [`Reference`].
    base_reference: Reference,
}

/// A configuration that evaluations are priced against, indexed once so
/// that [`Assembler::assemble`] reads each evaluation's delta off the
/// evaluation's own tables. Its per-statement costs are the caller's.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Tables on which it may differ from the base: every evaluation
    /// re-assembles them, so that its delta covers them.
    keys: Vec<u64>,
    /// Its structures on tables, by table key, each table's in
    /// configuration order.
    tables: Vec<(u64, StructureHandle)>,
    /// Its views that are not the base's.
    views: Vec<StructureHandle>,
}

impl Reference {
    /// `configuration`, which may differ from the base on the tables `keys`
    /// names only, and whose views beyond `base_views` are its own.
    fn of(configuration: &Configuration, keys: Vec<u64>, base_views: &[StructureHandle]) -> Self {
        let mut tables = Vec::new();
        let mut views = Vec::new();
        for h in configuration.handles() {
            match h.table_key() {
                Some(k) => tables.push((k, h.clone())),
                None if !base_views.contains(h) => views.push(h.clone()),
                None => {}
            }
        }
        // stable: each table's structures stay in configuration order
        tables.sort_by_key(|(k, _)| *k);
        Self { keys, tables, views }
    }

    /// Its structures on the table with this key.
    fn on(&self, key: u64) -> impl Iterator<Item = &StructureHandle> {
        let from = self.tables.partition_point(|(k, _)| *k < key);
        let tail = self.tables.get(from..).unwrap_or_default();
        tail.iter().take_while(move |(k, _)| *k == key).map(|(_, h)| h)
    }
}

/// A feasible configuration [`Assembler::assemble`] built, and how it
/// differs from the [`Reference`] it was built against.
#[derive(Debug, Clone, PartialEq)]
pub struct Assembled {
    /// `base ∪ set`, aligned, feasible and within the storage bound.
    pub configuration: Configuration,
    /// The structures one of `configuration` and the reference holds and
    /// the other does not: added, re-partitioned (both forms) or dropped
    /// on the tables the evaluation touched, and views added or dropped.
    /// A statement none of them is relevant to projects both alike.
    pub delta: Vec<StructureHandle>,
}

impl<'a> Assembler<'a> {
    /// Align, check and size `base` under `options`.
    pub fn new(
        base: &'a Configuration,
        options: &TuningOptions,
        sizing: &'a dyn SizingInfo,
    ) -> Self {
        let alignment = options.alignment.required();
        let mut unsettled = Vec::new();
        if alignment {
            let aligned = align(base);
            for (h, form) in base.handles().iter().zip(&aligned.forms) {
                if form.as_ref() != Some(h) {
                    unsettled.extend(h.table_key());
                }
            }
            unsettled.extend(aligned.synthesized.iter().filter_map(StructureHandle::table_key));
        }
        for conflict in base.table_conflicts() {
            if let ValidityError::MultipleClusterings { database, table }
            | ValidityError::MultipleTablePartitionings { database, table } = conflict
            {
                unsettled.push(table_key(&database, &table));
            }
        }
        let base_views: Vec<StructureHandle> =
            base.handles().iter().filter(|h| h.table_key().is_none()).cloned().collect();
        Self {
            base,
            alignment,
            storage_bytes: options.storage_bytes,
            sizing,
            base_bytes: base.total_bytes(sizing),
            unsettled,
            base_reference: Reference::of(base, Vec::new(), &base_views),
            base_views,
        }
    }

    /// The base itself — as given, not as assembled — as a [`Reference`].
    pub fn base_reference(&self) -> &Reference {
        &self.base_reference
    }

    /// The configuration for `base ∪ set` and that configuration as a
    /// [`Reference`]; `None` when it is infeasible or over the bound.
    pub fn reference(&self, set: &[&StructureHandle]) -> Option<(Configuration, Reference)> {
        let configuration = self.assemble(set, &self.base_reference).0?.configuration;
        let keys = self.unsettled.iter().copied().chain(set.iter().filter_map(|h| h.table_key()));
        let reference = Reference::of(&configuration, keys.collect(), &self.base_views);
        Some((configuration, reference))
    }

    /// The configuration for `base ∪ set` with its delta from `reference`
    /// — `None` when it is infeasible or over the storage bound — and the
    /// number of structures alignment rewrote to build it.
    pub fn assemble(
        &self,
        set: &[&StructureHandle],
        reference: &Reference,
    ) -> (Option<Assembled>, usize) {
        let mut cfg = self.base.extended(set.iter().copied());
        let mut keys: Vec<u64> = self
            .unsettled
            .iter()
            .chain(&reference.keys)
            .copied()
            .chain(set.iter().filter_map(|h| h.table_key()))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let touched = |h: &StructureHandle| h.table_key().is_some_and(|k| keys.contains(&k));
        let mut rewritten = 0;
        if self.alignment {
            let aligned = align(&cfg.project(touched));
            rewritten = aligned.rewritten;
            let mut forms = aligned.forms.into_iter();
            cfg = cfg.replace_where(touched, |_| forms.next().flatten());
            for s in aligned.synthesized {
                cfg.add_shared(s);
            }
        }
        // structural feasibility: at most one clustering/partitioning per
        // table; cheap local checks (full catalog validation happened on
        // the user-specified part already)
        let part = cfg.project(touched);
        if !part.table_conflicts().is_empty() {
            return (None, rewritten);
        }
        if let Some(bound) = self.storage_bytes {
            // everything off the touched tables is the base's, except the
            // set's views, which follow the base's structures
            let base_part = self.base.project(touched);
            let new_views: u64 = cfg
                .handles()
                .iter()
                .filter(|h| !touched(h))
                .skip(self.base.len() - base_part.len())
                .map(|h| structure_bytes(h.structure(), self.sizing))
                .sum();
            let total = self.base_bytes - base_part.total_bytes(self.sizing)
                + new_views
                + part.total_bytes(self.sizing);
            if total.saturating_sub(self.base_bytes) > bound {
                return (None, rewritten);
            }
        }
        // off the touched tables both hold the base's structures; compare
        // the rest: the touched tables', and the views beyond the base's
        let before: Vec<&StructureHandle> = keys.iter().flat_map(|&k| reference.on(k)).collect();
        let after: Vec<&StructureHandle> = part.handles().iter().collect();
        let views: Vec<&StructureHandle> = set
            .iter()
            .copied()
            .filter(|h| h.table_key().is_none() && !self.base_views.contains(h))
            .collect();
        let reference_views: Vec<&StructureHandle> = reference.views.iter().collect();
        let mut delta = Vec::new();
        for (one, other) in [
            (&after, &before),
            (&before, &after),
            (&views, &reference_views),
            (&reference_views, &views),
        ] {
            delta.extend(one.iter().filter(|h| !other.contains(h)).map(|h| (*h).clone()));
        }
        (Some(Assembled { configuration: cfg, delta }), rewritten)
    }
}

/// Expand a pool eagerly with every (index × partitioning) variant — the
/// §4 strawman.
pub fn eager_alignment_expansion(pool: &[PhysicalStructure]) -> Vec<PhysicalStructure> {
    let mut schemes: BTreeMap<(String, String), Vec<RangePartitioning>> = BTreeMap::new();
    for s in pool {
        let (db, table, scheme) = match s {
            PhysicalStructure::TablePartitioning { database, table, scheme } => {
                (database.clone(), table.clone(), scheme.clone())
            }
            PhysicalStructure::Index(ix) => match &ix.partitioning {
                Some(p) => (ix.database.clone(), ix.table.clone(), p.clone()),
                None => continue,
            },
            _ => continue,
        };
        let entry = schemes.entry((db, table)).or_default();
        if !entry.contains(&scheme) {
            entry.push(scheme);
        }
    }
    let mut out: Vec<PhysicalStructure> = pool.to_vec();
    for s in pool {
        if let PhysicalStructure::Index(ix) = s {
            if let Some(ps) = schemes.get(&(ix.database.clone(), ix.table.clone())) {
                for p in ps {
                    let mut v = ix.clone();
                    v.partitioning = Some(p.clone());
                    let v = PhysicalStructure::Index(v);
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
    }
    out
}

/// Run enumeration.
///
/// Greedy evaluations fan out over `options.parallel_workers` threads
/// through the shared evaluator; results are identical at any worker
/// count (see [`crate::greedy`]). Each evaluation charges one unit of
/// `control`'s budget; on exhaustion the run returns best-so-far plus an
/// [`EnumerationResume`] cursor, and a later call passing that cursor
/// (with the same pool and a warmed cache) continues to the
/// byte-identical uninterrupted answer. The inner Greedy(m, k) run
/// reports its two phases to `obs` as spans — instrumentation only.
#[allow(clippy::too_many_arguments)]
pub fn enumerate(
    eval: &CostEvaluator<'_>,
    base: &Configuration,
    pool: &[Candidate],
    sizing: &dyn SizingInfo,
    options: &TuningOptions,
    control: &SessionControl,
    resume: Option<EnumerationResume>,
    obs: &dyn SessionObserver,
) -> EnumerationRun {
    // order candidates by observed benefit (helps greedy find good seeds
    // early when the time budget cuts the search short)
    let mut ordered: Vec<&Candidate> = pool.iter().collect();
    ordered.sort_by(|a, b| b.benefit.total_cmp(&a.benefit));
    let mut structures: Vec<PhysicalStructure> =
        ordered.iter().map(|c| c.structure.clone()).collect();

    if options.alignment == AlignmentMode::Eager {
        structures = eager_alignment_expansion(&structures);
    }

    let pool: Vec<StructureHandle> = structures.into_iter().map(StructureHandle::new).collect();
    let (lazy_seed, snapshot) = match resume {
        Some(r) => (r.lazy_variants, Some(r.snapshot)),
        None => (0, None),
    };
    let lazy_variants = AtomicUsize::new(lazy_seed);

    let assembler = Assembler::new(base, options, sizing);
    let assemble = |set: &[&StructureHandle], reference: &Reference| -> Option<Assembled> {
        let (assembled, rewritten) = assembler.assemble(set, reference);
        // dta-lint: allow(R6): monotonic telemetry counter; read only
        // after greedy_mk has joined every worker.
        lazy_variants.fetch_add(rewritten, Ordering::Relaxed);
        assembled
    };

    let base_cost = crate::control::isolated(control, || eval.workload_cost(base))
        .and_then(|r| r.ok())
        .unwrap_or(f64::INFINITY);
    // What an evaluation is priced against, with each statement's cost
    // under it: fixed at serial points only — the base as just priced for
    // Phase 1, each incumbent for Phase 2 — so which lookups are skipped
    // depends on nothing a worker does.
    let against = RwLock::new((assembler.base_reference().clone(), eval.cached_costs(base)));
    let eval_fn = |set: &[&StructureHandle]| -> Option<f64> {
        let guard = against.read();
        let (reference, costs) = &*guard;
        let Assembled { configuration, delta } = assemble(set, reference)?;
        eval.delta_cost(&configuration, &delta, costs).ok()
    };
    // The incumbent was assembled when it was evaluated: this assembly
    // re-derives it and is not tallied again. An incumbent that cannot be
    // assembled (an empty one over a conflicting base) leaves the last
    // reference in place, which prices any set exactly, if less cheaply.
    let incumbent_changed = |set: &[&StructureHandle]| {
        if let Some((configuration, reference)) = assembler.reference(set) {
            *against.write() = (reference, eval.cached_costs(&configuration));
        }
    };
    let k = pool.len();
    let run = greedy_mk(
        &pool,
        base_cost,
        options.greedy_m,
        k,
        options.parallel_workers,
        &eval_fn,
        &incumbent_changed,
        control,
        snapshot,
        obs,
    );

    // snapshot the tally at the cut BEFORE assembling the best-so-far
    // configuration below: the final assembly's rewrites must not leak
    // into the resume cursor, or a resumed run would double-count them
    // dta-lint: allow(R6): all workers joined inside the greedy engine;
    // this read races with nothing.
    let lazy_at_cut = lazy_variants.load(Ordering::Relaxed);
    let final_refs: Vec<&StructureHandle> = run.outcome.chosen.iter().collect();
    let configuration = assemble(&final_refs, assembler.base_reference())
        .map_or_else(|| base.clone(), |a| a.configuration);
    EnumerationRun {
        result: EnumerationResult {
            configuration,
            cost: run.outcome.cost,
            evaluations: run.outcome.evaluations,
            pool_size: pool.len(),
            lazy_variants: lazy_at_cut,
        },
        interrupted: run.interrupted.map(|(reason, snapshot)| {
            (reason, EnumerationResume { snapshot, lazy_variants: lazy_at_cut })
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::Value;
    use dta_physical::Index;

    fn part(col: &str) -> RangePartitioning {
        RangePartitioning::new(col, vec![Value::Int(100), Value::Int(200)])
    }

    #[test]
    fn align_rewrites_indexes_to_table_partitioning() {
        let cfg = Configuration::from_structures([
            PhysicalStructure::TablePartitioning {
                database: "d".into(),
                table: "t".into(),
                scheme: part("x"),
            },
            PhysicalStructure::Index(Index::non_clustered("d", "t", &["a"], &[])),
            PhysicalStructure::Index(
                Index::non_clustered("d", "t", &["b"], &[]).partitioned(part("y")),
            ),
        ]);
        assert!(!cfg.is_aligned());
        let (aligned, rewritten) = align_configuration(&cfg);
        assert!(aligned.is_aligned(), "{aligned}");
        assert_eq!(rewritten, 2);
    }

    #[test]
    fn align_strips_partitioning_when_table_unpartitioned_by_clustered() {
        // clustered index unpartitioned → table unpartitioned → secondary
        // index must lose its partitioning
        let cfg = Configuration::from_structures([
            PhysicalStructure::Index(Index::clustered("d", "t", &["k"])),
            PhysicalStructure::Index(
                Index::non_clustered("d", "t", &["a"], &[]).partitioned(part("a")),
            ),
        ]);
        let (aligned, rewritten) = align_configuration(&cfg);
        assert!(aligned.is_aligned());
        assert_eq!(rewritten, 1);
        assert!(aligned.indexes_on("d", "t").all(|ix| ix.partitioning.is_none()));
    }

    #[test]
    fn align_adopts_index_partitioning_when_no_table_partitioning() {
        let cfg = Configuration::from_structures([
            PhysicalStructure::Index(
                Index::non_clustered("d", "t", &["a"], &[]).partitioned(part("a")),
            ),
            PhysicalStructure::Index(Index::non_clustered("d", "t", &["b"], &[])),
        ]);
        let (aligned, _) = align_configuration(&cfg);
        assert!(aligned.is_aligned());
        // both indexes end up partitioned the same way
        let parts: Vec<_> =
            aligned.indexes_on("d", "t").map(|ix| ix.partitioning.clone()).collect();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], parts[1]);
        assert!(parts[0].is_some());
    }

    #[test]
    fn eager_expansion_cross_products() {
        let pool = vec![
            PhysicalStructure::TablePartitioning {
                database: "d".into(),
                table: "t".into(),
                scheme: part("x"),
            },
            PhysicalStructure::Index(Index::non_clustered("d", "t", &["a"], &[])),
            PhysicalStructure::Index(Index::non_clustered("d", "t", &["b"], &[])),
        ];
        let expanded = eager_alignment_expansion(&pool);
        // original 3 + 2 partitioned index variants
        assert_eq!(expanded.len(), 5);
    }

    /// The parent implementation of alignment: whole-configuration,
    /// name-keyed. Kept as the oracle for the differential test below.
    fn reference_align(config: &Configuration) -> (Configuration, usize) {
        let mut target: BTreeMap<(String, String), Option<RangePartitioning>> = BTreeMap::new();
        let mut add_heap_partitioning: Vec<(String, String, RangePartitioning)> = Vec::new();
        let mut tables: Vec<(String, String)> = config
            .iter()
            .filter_map(|s| s.table().map(|t| (s.database().to_string(), t.to_string())))
            .collect();
        tables.sort();
        tables.dedup();
        let mut rewritten = 0usize;
        for (db, t) in tables {
            let want = if let Some(ci) = config.clustered_index(&db, &t) {
                ci.partitioning.clone()
            } else if let Some(p) = config.table_partitioning(&db, &t) {
                Some(p.clone())
            } else if let Some(p) =
                config.indexes_on(&db, &t).find_map(|ix| ix.partitioning.clone())
            {
                add_heap_partitioning.push((db.clone(), t.clone(), p.clone()));
                rewritten += 1;
                Some(p)
            } else {
                None
            };
            target.insert((db, t), want);
        }

        let mut out = Configuration::new();
        for s in config.iter() {
            match s {
                PhysicalStructure::Index(ix) => {
                    let want =
                        target.get(&(ix.database.clone(), ix.table.clone())).cloned().flatten();
                    if ix.partitioning != want {
                        let mut v = ix.clone();
                        v.partitioning = want;
                        rewritten += 1;
                        out.add(PhysicalStructure::Index(v));
                    } else {
                        out.add(s.clone());
                    }
                }
                PhysicalStructure::TablePartitioning { database, table, scheme } => {
                    let want = target.get(&(database.clone(), table.clone())).cloned().flatten();
                    match want {
                        Some(w) if w == *scheme => {
                            out.add(s.clone());
                        }
                        _ => {
                            rewritten += 1;
                            if let Some(w) = want {
                                out.add(PhysicalStructure::TablePartitioning {
                                    database: database.clone(),
                                    table: table.clone(),
                                    scheme: w,
                                });
                            }
                        }
                    }
                }
                _ => {
                    out.add(s.clone());
                }
            }
        }
        for (database, table, scheme) in add_heap_partitioning {
            out.add(PhysicalStructure::TablePartitioning { database, table, scheme });
        }
        (out, rewritten)
    }

    /// The parent implementation of `assemble`: copy the base, add the
    /// set, then align, check and size the whole configuration.
    fn reference_assemble(
        base: &Configuration,
        set: &[&PhysicalStructure],
        options: &TuningOptions,
        sizing: &dyn SizingInfo,
    ) -> (Option<Configuration>, usize) {
        let base_bytes = base.total_bytes(sizing);
        let mut rewritten = 0;
        let mut cfg = base.clone();
        for s in set {
            cfg.add((*s).clone());
        }
        if options.alignment.required() {
            let (aligned, n) = reference_align(&cfg);
            rewritten = n;
            cfg = aligned;
        }
        let mut tables: Vec<(String, String)> = cfg
            .iter()
            .filter_map(|s| s.table().map(|t| (s.database().to_string(), t.to_string())))
            .collect();
        tables.sort();
        tables.dedup();
        for (db, t) in &tables {
            let clusterings = cfg
                .iter()
                .filter(|s| {
                    matches!(s, PhysicalStructure::Index(i) if i.database == *db
                        && i.table == *t && i.kind == dta_physical::IndexKind::Clustered)
                })
                .count();
            let parts = cfg
                .iter()
                .filter(|s| {
                    matches!(s, PhysicalStructure::TablePartitioning { database, table, .. }
                        if database == db && table == t)
                })
                .count();
            if clusterings > 1 || parts > 1 {
                return (None, rewritten);
            }
        }
        if let Some(bound) = options.storage_bytes {
            if cfg.total_bytes(sizing).saturating_sub(base_bytes) > bound {
                return (None, rewritten);
            }
        }
        (Some(cfg), rewritten)
    }

    /// Sizes that differ by table, column and view, so a wrong storage
    /// sum shows.
    struct Sizes;

    impl SizingInfo for Sizes {
        fn table_rows(&self, database: &str, table: &str) -> u64 {
            1_000
                + 37 * (database.len() + 3 * table.len()) as u64
                + table_key(database, table) % 500
        }
        fn column_width(&self, _: &str, _: &str, column: &str) -> u32 {
            4 + u32::from(column.as_bytes()[0] % 7)
        }
        fn view_rows(&self, view: &dta_physical::MaterializedView) -> u64 {
            50 + 11 * view.tables.len() as u64 + view.group_by.len() as u64
        }
    }

    /// A random structure over a handful of tables — the same table name
    /// in two databases included — so that draws collide: duplicates,
    /// second clusterings, second heap partitionings, conflicting schemes.
    fn random_structure(rng: &mut rand::rngs::StdRng) -> PhysicalStructure {
        use rand::Rng;
        const TABLES: [(&str, &str); 5] =
            [("d", "t0"), ("d", "t1"), ("d", "t2"), ("d", "t3"), ("e", "t0")];
        let mut pick = |n: usize| rng.gen_range(0..n);
        let (db, t) = TABLES[pick(TABLES.len())];
        let column = ["a", "b", "x", "y"][pick(4)];
        let scheme = part(["x", "y"][pick(2)]);
        match pick(20) {
            0..=8 => {
                let mut ix = if pick(3) == 0 {
                    Index::non_clustered(db, t, &[column, "k"], &["v"])
                } else {
                    Index::non_clustered(db, t, &[column], &[])
                };
                if pick(3) == 0 {
                    ix = ix.partitioned(scheme);
                }
                PhysicalStructure::Index(ix)
            }
            9..=11 => {
                let ix = Index::clustered(db, t, &[column]);
                PhysicalStructure::Index(if pick(2) == 0 { ix.partitioned(scheme) } else { ix })
            }
            12..=15 => PhysicalStructure::TablePartitioning {
                database: db.into(),
                table: t.into(),
                scheme,
            },
            _ => {
                let joined = [t, "t9"];
                PhysicalStructure::View(dta_physical::MaterializedView::grouped(
                    db,
                    &joined[..1 + pick(2)],
                    Vec::new(),
                    vec![dta_physical::QualifiedColumn::new(t, column)],
                    vec![dta_physical::ViewAggregate::count_star()],
                ))
            }
        }
    }

    /// The structures one of `a` and `b` holds and the other does not.
    fn symmetric_difference(a: &Configuration, b: &Configuration) -> Vec<StructureHandle> {
        let only = |x: &Configuration, y: &Configuration| {
            x.handles().iter().filter(|h| !y.handles().contains(h)).cloned().collect::<Vec<_>>()
        };
        [only(a, b), only(b, a)].concat()
    }

    /// Whether `a` and `b` hold the same structures, repeats aside.
    fn same_set(a: &[StructureHandle], b: &[StructureHandle]) -> bool {
        a.iter().all(|h| b.contains(h)) && b.iter().all(|h| a.contains(h))
    }

    /// A server holding every table [`random_structure`] draws from, with
    /// rows that spread over its partition boundaries.
    fn differential_server() -> dta_server::Server {
        use dta_catalog::{Column, ColumnType, Database, Table};
        let mut server = dta_server::Server::new("s");
        for (db, tables) in [("d", &["t0", "t1", "t2", "t3", "t9"][..]), ("e", &["t0", "t9"])] {
            let mut database = Database::new(db);
            for t in tables {
                let columns =
                    ["a", "b", "x", "y", "k", "v"].map(|c| Column::new(c, ColumnType::Int));
                database.add_table(Table::new(*t, columns.to_vec())).expect("fresh table");
            }
            server.create_database(database).expect("fresh database");
            for t in tables {
                let data = server.table_data_mut(db, t).expect("table exists");
                for i in 0..300i64 {
                    let row = [i % 40, i % 13, i, (7 * i) % 300, i % 60, i];
                    data.push_row(row.map(Value::Int).to_vec());
                }
            }
        }
        server
    }

    /// Reads, joins and every kind of write over those tables: INSERT and
    /// DELETE maintain every index on their target, an UPDATE those that
    /// hold its SET column — partitioning columns included.
    fn differential_workload() -> Vec<dta_workload::WorkloadItem> {
        [
            ("d", "SELECT b FROM t0 WHERE a = 5"),
            ("d", "SELECT x, y FROM t1 WHERE b < 4"),
            ("d", "SELECT COUNT(*) FROM t2"),
            ("d", "SELECT t0.v FROM t0, t1 WHERE t0.k = t1.k AND t1.a = 3"),
            ("d", "SELECT a, COUNT(*) FROM t3 GROUP BY a"),
            ("d", "SELECT t9.b FROM t2, t9 WHERE t2.k = t9.k AND t2.x < 120"),
            ("d", "INSERT INTO t3 VALUES (1, 2, 3, 4, 5, 6)"),
            ("d", "DELETE FROM t1 WHERE y = 7"),
            ("d", "UPDATE t0 SET x = 1 WHERE a = 3"),
            ("d", "UPDATE t2 SET y = 2 WHERE k = 4"),
            ("e", "SELECT b FROM t0 WHERE x = 150"),
            ("e", "UPDATE t0 SET y = 5 WHERE b = 2"),
        ]
        .map(|(db, sql)| {
            let statement = dta_sql::parse_statement(sql).expect("valid SQL");
            dta_workload::WorkloadItem::new(db, statement)
        })
        .to_vec()
    }

    #[test]
    fn delta_pricing_equals_pricing_the_assembled_configuration() {
        use crate::cost::CostEvaluator;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let server = differential_server();
        let target = dta_server::TuningTarget::Single(&server);
        let items = differential_workload();
        // `eval` prices by delta; `twin` prices every configuration whole
        let (eval, twin) =
            (CostEvaluator::new(&target, &items), CostEvaluator::new(&target, &items));
        let tally = |e: &CostEvaluator<'_>| {
            let stats = e.cache_stats();
            (e.whatif_calls(), stats.iter().map(|st| st.misses).collect::<Vec<_>>())
        };
        let hits = |e: &CostEvaluator<'_>| e.cache_stats().iter().map(|st| st.hits).sum::<u64>();
        let mut rng = StdRng::seed_from_u64(0x0de1_7a00);
        let draw = |rng: &mut StdRng, n: usize| -> Vec<StructureHandle> {
            (0..rng.gen_range(0..n + 1))
                .map(|_| StructureHandle::new(random_structure(rng)))
                .collect()
        };
        // outcomes seen, so the test cannot pass by never reaching a branch
        let (mut priced, mut incumbents, mut unsettled_base, mut absent) = (0, 0, 0, 0);
        for round in 0..150 {
            let base: Configuration =
                (0..rng.gen_range(0..8usize)).map(|_| random_structure(&mut rng)).collect();
            let incumbent = draw(&mut rng, 3);
            // extensions of the incumbent, as Phase 2 prices, and sets that
            // drop some of it
            let sets: Vec<Vec<StructureHandle>> = (0..4)
                .map(|i| {
                    let extra = draw(&mut rng, 2);
                    let kept = if i % 2 == 0 {
                        incumbent.len()
                    } else {
                        rng.gen_range(0..incumbent.len() + 1)
                    };
                    incumbent.iter().take(kept).cloned().chain(extra).collect()
                })
                .collect();
            for alignment in [AlignmentMode::None, AlignmentMode::Lazy, AlignmentMode::Eager] {
                let options =
                    TuningOptions { alignment, storage_bytes: None, ..Default::default() };
                let assembler = Assembler::new(&base, &options, &Sizes);
                unsettled_base += usize::from(!assembler.unsettled.is_empty());
                // the base as given, or the incumbent as assembled; now and
                // then with its costs never priced, so some are absent
                let incumbent_refs: Vec<&StructureHandle> = incumbent.iter().collect();
                let (config, reference) = match round % 3 {
                    0 => (base.clone(), assembler.base_reference().clone()),
                    _ => match assembler.reference(&incumbent_refs) {
                        Some(pair) => pair,
                        None => continue,
                    },
                };
                incumbents += usize::from(round % 3 != 0);
                if round % 5 != 4 {
                    for e in [&eval, &twin] {
                        e.workload_cost(&config).expect("costing succeeds");
                    }
                }
                let costs = eval.cached_costs(&config);
                absent += costs.iter().filter(|c| c.is_none()).count();
                for set in &sets {
                    let set_refs: Vec<&StructureHandle> = set.iter().collect();
                    let Some(assembled) = assembler.assemble(&set_refs, &reference).0 else {
                        continue;
                    };
                    let got = eval.delta_cost(&assembled.configuration, &assembled.delta, &costs);
                    let want = twin.workload_cost(&assembled.configuration);
                    let context = format!(
                        "round {round}, {alignment:?}\nbase {base}reference {config}priced {}delta {:?}",
                        assembled.configuration, assembled.delta
                    );
                    let bits =
                        |r: Result<f64, _>| r.map(f64::to_bits).map_err(|e| format!("{e:?}"));
                    assert_eq!(bits(got), bits(want), "{context}");
                    assert_eq!(tally(&eval), tally(&twin), "{context}");
                    priced += 1;
                }
            }
        }
        let skipped = hits(&twin) - hits(&eval);
        for seen in [priced, incumbents, unsettled_base, absent, skipped as usize] {
            assert!(seen > 100, "{priced} {incumbents} {unsettled_base} {absent} {skipped}");
        }
    }

    #[test]
    fn delta_assembly_equals_full_recomputation() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x00a5_5e4b);
        // outcomes seen, so the test cannot pass by never reaching a branch
        let (mut feasible, mut infeasible, mut rewrote, mut over_bound, mut unsettled_base) =
            (0, 0, 0, 0, 0);
        for round in 0..4_000 {
            let base: Configuration =
                (0..rng.gen_range(0..10usize)).map(|_| random_structure(&mut rng)).collect();
            let mut set: Vec<PhysicalStructure> =
                (0..rng.gen_range(0..5usize)).map(|_| random_structure(&mut rng)).collect();
            if let Some(again) = base.iter().next().filter(|_| round % 7 == 0) {
                set.push(again.clone());
            }
            if let Some(again) = set.first().cloned().filter(|_| round % 11 == 0) {
                set.push(again);
            }
            let set_refs: Vec<&PhysicalStructure> = set.iter().collect();
            let handles: Vec<StructureHandle> =
                set.iter().cloned().map(StructureHandle::new).collect();
            let handle_refs: Vec<&StructureHandle> = handles.iter().collect();
            let storage_bytes = match round % 3 {
                0 => None,
                1 => Some(rng.gen_range(0..60_000u64)),
                _ => Some(u64::MAX),
            };
            for alignment in [AlignmentMode::None, AlignmentMode::Lazy, AlignmentMode::Eager] {
                let options = TuningOptions { alignment, storage_bytes, ..Default::default() };
                let assembler = Assembler::new(&base, &options, &Sizes);
                let (assembled, rewritten) =
                    assembler.assemble(&handle_refs, assembler.base_reference());
                let full = reference_assemble(&base, &set_refs, &options, &Sizes);
                let context = format!(
                    "round {round}, {alignment:?}, bound {storage_bytes:?}\nbase {base}set {set:?}"
                );
                let configuration = assembled.as_ref().map(|a| a.configuration.clone());
                assert_eq!((configuration, rewritten), full, "{context}");
                // against the base, the delta is what one holds and the other not
                if let Some(Assembled { configuration, delta }) = &assembled {
                    assert!(
                        same_set(delta, &symmetric_difference(configuration, &base)),
                        "{context}"
                    );
                }
                // tally what this case exercised
                let unbounded = TuningOptions { storage_bytes: None, ..options.clone() };
                match (&full.0, reference_assemble(&base, &set_refs, &unbounded, &Sizes).0) {
                    (Some(_), _) => feasible += 1,
                    (None, Some(_)) => over_bound += 1,
                    (None, None) => infeasible += 1,
                }
                rewrote += usize::from(full.1 > 0);
                unsettled_base += usize::from(!assembler.unsettled.is_empty());
            }
        }
        for seen in [feasible, infeasible, rewrote, over_bound, unsettled_base] {
            assert!(seen > 200, "{feasible} {infeasible} {rewrote} {over_bound} {unsettled_base}");
        }
    }
}
