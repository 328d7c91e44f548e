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
use crate::cost::{Atom, CostEvaluator};
use crate::greedy::{greedy_mk, GreedySnapshot, SerialPoint};
use crate::obs::{Counter, SessionObserver};
use crate::options::{AlignmentMode, TuningOptions};
use crate::overlay::{Indexed, Overlay, Placed, Slot};
use crate::{det, invariants};
use dta_physical::sizing::structure_bytes;
use dta_physical::{
    Configuration, IndexKind, PhysicalStructure, RangePartitioning, SizingInfo, StructureHandle,
};
use parking_lot::{Rank, RwLock};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// Align one table's structures, listed as the whole configuration holds
/// them: each index takes on the table's effective partitioning (or loses
/// its own if the table is unpartitioned) in its slot, and a structure
/// that becomes identical to an earlier one is dropped. Tables are aligned
/// independently of one another. Returns the number of structures
/// rewritten, dropped or introduced.
fn align(table: &mut Vec<Placed<'_>>) -> usize {
    // Precedence: a clustered index pins the table's partitioning (even
    // "unpartitioned"); else an explicit heap partitioning; else the first
    // partitioned index's scheme (in which case the heap must be
    // partitioned too).
    let indexes = || {
        table.iter().filter_map(|(_, h)| match h.structure() {
            PhysicalStructure::Index(ix) => Some(ix),
            _ => None,
        })
    };
    let heap = table.iter().find_map(|(_, h)| match h.structure() {
        PhysicalStructure::TablePartitioning { scheme, .. } => Some(scheme),
        _ => None,
    });
    let mut synthesized = None;
    let want = match (indexes().find(|ix| ix.kind == IndexKind::Clustered), heap) {
        (Some(ci), _) => ci.partitioning.as_ref(),
        (None, Some(p)) => Some(p),
        (None, None) => indexes().find_map(|ix| {
            let p = ix.partitioning.as_ref()?;
            // the heap itself must adopt this partitioning for the table
            // to count as aligned — a lazily introduced structure
            synthesized = Some(StructureHandle::new(PhysicalStructure::TablePartitioning {
                database: ix.database.clone(),
                table: ix.table.clone(),
                scheme: p.clone(),
            }));
            Some(p)
        }),
    };
    let mut rewritten = usize::from(synthesized.is_some());
    let mut aligned: Vec<Placed<'_>> = Vec::with_capacity(table.len() + 1);
    for (slot, h) in table.iter() {
        let form = match h.structure() {
            PhysicalStructure::Index(ix) if ix.partitioning.as_ref() != want => {
                rewritten += 1;
                let mut v = ix.clone();
                v.partitioning = want.cloned();
                Some(Cow::Owned(StructureHandle::new(PhysicalStructure::Index(v))))
            }
            // a heap partitioning is meaningless (and misaligned) when a
            // clustered index pins a different scheme; it is dropped
            // entirely when the table must be unpartitioned
            PhysicalStructure::TablePartitioning { database, table, scheme }
                if want != Some(scheme) =>
            {
                rewritten += 1;
                want.map(|w| {
                    Cow::Owned(StructureHandle::new(PhysicalStructure::TablePartitioning {
                        database: database.clone(),
                        table: table.clone(),
                        scheme: w.clone(),
                    }))
                })
            }
            _ => Some(h.clone()),
        };
        if let Some(form) = form.filter(|f| !aligned.iter().any(|(_, o)| o == f)) {
            aligned.push((*slot, form));
        }
    }
    aligned.extend(synthesized.map(|s| (Slot::Synthesized, Cow::Owned(s))));
    *table = aligned;
    rewritten
}

/// Whether a table's structures break the one-clustering /
/// one-heap-partitioning rule.
fn conflicted(table: &[Placed<'_>]) -> bool {
    let count = |is: fn(&PhysicalStructure) -> bool| {
        table.iter().filter(|(_, h)| is(h.structure())).count()
    };
    count(|s| matches!(s, PhysicalStructure::Index(ix) if ix.kind == IndexKind::Clustered)) > 1
        || count(|s| matches!(s, PhysicalStructure::TablePartitioning { .. })) > 1
}

/// Rewrite `config` so every table is aligned: each table's indexes take
/// on the table's effective partitioning (or lose theirs if the table is
/// unpartitioned). Returns the number of structures rewritten.
#[cfg(test)]
fn align_configuration(config: &Configuration) -> (Configuration, usize) {
    let base = Indexed::new(config, None);
    let keys: Vec<u64> = base.keys().collect();
    let mut rewritten = 0;
    let aligned = Overlay::build(&base, &[], &keys, |table| rewritten += align(table));
    (aligned.materialize(), rewritten)
}

/// Builds the configurations enumeration prices — `base ∪ set`, aligned
/// (§4), structurally feasible and within the storage bound — as
/// [`Overlay`]s of the base, at a cost that depends on the candidate set,
/// not on how wide the base is.
///
/// The invariant that makes this possible: alignment, the one-clustering
/// / one-heap-partitioning rule and storage are all decided table by
/// table. So the base is indexed, aligned, checked and sized once, here,
/// and an evaluation re-lists, re-aligns, re-checks and re-sizes only the
/// tables its candidates are on (plus any table the base itself leaves
/// misaligned or in conflict — none, for a valid aligned base).
/// [`Overlay::materialize`] gives what recomputing over the whole
/// configuration gives, structure for structure.
pub struct Assembler<'a> {
    base: Indexed<'a>,
    alignment: bool,
    storage_bytes: Option<u64>,
    sizing: &'a dyn SizingInfo,
    /// Keys of the base's tables that alignment changes or that break
    /// the one-clustering / one-heap-partitioning rule as they stand:
    /// every evaluation rechecks them along with its candidates' tables.
    unsettled: Vec<u64>,
}

/// A feasible configuration [`Assembler::assemble`] built, and how it
/// differs from the base.
#[derive(Debug, Clone)]
pub struct Assembled<'b> {
    /// `base ∪ set`, aligned, feasible and within the storage bound.
    pub overlay: Overlay<'b>,
    /// The structures one of `overlay` and the base holds and the other
    /// does not: added, re-partitioned (both forms) or dropped on the
    /// tables the evaluation re-listed, and the views added. A statement
    /// none of them is relevant to projects both alike.
    pub delta: Vec<StructureHandle>,
}

impl<'a> Assembler<'a> {
    /// Index, align, check and size `base` under `options`.
    pub fn new(
        base: &'a Configuration,
        options: &TuningOptions,
        sizing: &'a dyn SizingInfo,
    ) -> Self {
        let alignment = options.alignment.required();
        let base = Indexed::new(base, options.storage_bytes.map(|_| sizing));
        let unsettled = base
            .keys()
            .filter(|&key| {
                let table = base.on(key);
                conflicted(table) || (alignment && align(&mut table.to_vec()) > 0)
            })
            .collect();
        Self { base, alignment, storage_bytes: options.storage_bytes, sizing, unsettled }
    }

    /// The base itself — as given, not as assembled.
    pub fn base(&self) -> Overlay<'_> {
        Overlay::of(&self.base)
    }

    /// Whether `h` is a non-clustered index with no partitioning on a table
    /// the base holds no partitioning on: no heap partitioning and no
    /// partitioned index.
    fn unpartitioned_index(&self, h: &StructureHandle) -> bool {
        let unpartitioned = |h: &StructureHandle| match h.structure() {
            PhysicalStructure::Index(ix) => ix.partitioning.is_none(),
            PhysicalStructure::TablePartitioning { .. } => false,
            PhysicalStructure::View(_) => true,
        };
        h.as_index().is_some_and(|ix| ix.kind == IndexKind::NonClustered)
            && unpartitioned(h)
            && h.table_key()
                .is_some_and(|key| self.base.on(key).iter().all(|(_, o)| unpartitioned(o)))
    }

    /// The configuration for `base ∪ set` with its delta from the base —
    /// `None` when it is infeasible or over the storage bound — and the
    /// number of structures alignment rewrote to build it.
    pub fn assemble(&self, set: &[&StructureHandle]) -> (Option<Assembled<'_>>, usize) {
        let mut keys: Vec<u64> = self
            .unsettled
            .iter()
            .copied()
            .chain(set.iter().filter_map(|h| h.table_key()))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let bytes = |table: &[Placed<'_>]| -> u64 {
            table.iter().map(|(_, h)| structure_bytes(h.structure(), self.sizing)).sum()
        };
        let (mut rewritten, mut conflicting, mut listed_bytes) = (0, false, 0);
        let overlay = Overlay::build(&self.base, set, &keys, |table| {
            if self.alignment {
                rewritten += align(table);
            }
            // structural feasibility: at most one clustering/partitioning
            // per table; cheap local checks (full catalog validation
            // happened on the user-specified part already)
            conflicting |= conflicted(table);
            if self.storage_bytes.is_some() {
                listed_bytes += bytes(table);
            }
        });
        if conflicting {
            return (None, rewritten);
        }
        if let Some(bound) = self.storage_bytes {
            // off the re-listed tables everything is the base's, but for
            // the views the set adds: the growth over the base is what
            // they and the re-listed tables hold beyond the base's there
            let replaced: u64 = keys.iter().map(|&key| self.base.bytes(key)).sum();
            let grown = listed_bytes + bytes(overlay.added_views());
            if grown.saturating_sub(replaced) > bound {
                return (None, rewritten);
            }
        }
        // off the re-listed tables the overlay holds the base's structures;
        // compare the rest: the re-listed tables', and the views it adds
        let mut delta = Vec::new();
        let pairs = keys.iter().map(|&key| (overlay.on(key), self.base.on(key)));
        for (after, before) in pairs.chain([(overlay.added_views(), &[][..])]) {
            for (one, other) in [(after, before), (before, after)] {
                let only = one.iter().filter(|(_, h)| !other.iter().any(|(_, o)| o == h));
                delta.extend(only.map(|(_, h)| StructureHandle::clone(h)));
            }
        }
        (Some(Assembled { overlay, delta }), rewritten)
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

/// The pool enumeration walks: the candidates ordered by observed
/// benefit (which helps greedy find good seeds early when the budget cuts
/// the search short), expanded eagerly when options say so, each wrapped
/// once, and — from the first singletons point a run over it hears — each
/// candidate's atom. A session builds it when it merges its pool and hands
/// it to every [`enumerate`] run, so a run parked and resumed by a
/// supervisor re-sorts, re-wraps and re-makes nothing; a failed run drops
/// it with the merged pool. The candidates are a function of the pool and
/// options alone, and the atoms of the cache the singletons were priced
/// into: a resumed session derives both again. A pool is handed only to
/// runs over one workload, base and set of options.
pub struct EnumerationPool {
    handles: Vec<StructureHandle>,
    members: OnceLock<Vec<Option<Member>>>,
}

/// Build the [`EnumerationPool`] of `pool` under `options`.
pub fn enumeration_pool(pool: &[Candidate], options: &TuningOptions) -> EnumerationPool {
    let mut ordered: Vec<&Candidate> = pool.iter().collect();
    ordered.sort_by(|a, b| b.benefit.total_cmp(&a.benefit));
    let mut structures: Vec<PhysicalStructure> =
        ordered.iter().map(|c| c.structure.clone()).collect();
    if options.alignment == AlignmentMode::Eager {
        structures = eager_alignment_expansion(&structures);
    }
    let handles = structures.into_iter().map(StructureHandle::new).collect();
    EnumerationPool { handles, members: OnceLock::new() }
}

/// A pool candidate `c` as Phase 1's bound reads it: the atom of
/// `base ∪ {c}`, and whether `c` is *plain* — a non-clustered index with
/// no partitioning, on a table the base holds no partitioning on, that
/// assembly adds as it is: `base ∪ {c}` differs from the base by `c` alone
/// and rewrites nothing. A set of plain members differs from the base by
/// its members alone, so assembling it would rewrite nothing either.
struct Member {
    atom: Atom,
    plain: bool,
}

/// Rank of the [`Against`] lock: every evaluation holds it while it
/// prices, so every cost-cache and server lock is taken under it
/// (DESIGN.md §8).
const AGAINST: Rank = Rank::outer(0);

/// What a Greedy evaluation is priced against: each statement's cost
/// under the base as the cache held it, the pool's members (once the
/// run's singletons point has installed them), what Phase 1's bound reads,
/// and in Phase 2 the incumbent's length and atom. Fixed at serial points
/// only.
struct Against<'p> {
    costs: Vec<Option<f64>>,
    members: &'p [Option<Member>],
    bound: Option<Bound>,
    incumbent: Option<(usize, Atom)>,
}

/// One statement as Phase 1's bound reads it: its weight, its cost under
/// the base, and whether a set of plain members is read through one
/// access path ([`CostEvaluator::one_path`]).
struct Fact {
    weight: f64,
    base: f64,
    one_path: bool,
}

/// What Phase 1's bound reads beside the members' atoms: every statement's
/// [`Fact`], their weighted base total, and the margin that covers the
/// rounding between the bound's sum and a priced one
/// ([`PRUNING_MARGIN`] of the total).
struct Bound {
    facts: Vec<Fact>,
    total: f64,
    margin: f64,
}

/// The margin a Phase-1 bound is taken less, relative to the workload's
/// weighted base cost: far above the rounding of two sums over a few
/// thousand statements (about 1e-13 of it), far below any cost two sets
/// differ by.
const PRUNING_MARGIN: f64 = 1e-9;

impl Bound {
    /// The bound over `facts`: `None` when a statement has no base cost.
    fn new(eval: &CostEvaluator<'_>, base_costs: &[Option<f64>]) -> Option<Self> {
        let facts = eval
            .one_path()
            .into_iter()
            .zip(base_costs)
            .zip(eval.items())
            .map(|((one_path, &base), item)| {
                Some(Fact { weight: item.weight, base: base?, one_path })
            })
            .collect::<Option<Vec<Fact>>>()?;
        let total = facts.iter().fold(0.0, |sum, f| sum + f.weight * f.base);
        Some(Self { facts, total, margin: PRUNING_MARGIN * total })
    }

    /// The least the set of `members` can cost, less the margin: the
    /// weighted sum of each statement's floor. A statement no member reaches
    /// costs its base cost, one that one member reaches that member's atom
    /// cost, and one that several reach, `base − Σ max(0, base − cₓ)` when
    /// one access path serves it, else 0. `None` — and the set is priced —
    /// when a member is not plain or lacks a cost.
    fn floor(&self, members: &[&Member]) -> Option<f64> {
        if !members.iter().all(|m| m.plain) {
            return None;
        }
        let mut reached: Vec<_> =
            members.iter().map(|m| m.atom.reached().iter().peekable()).collect();
        let mut floor = self.total;
        while let Some(q) = reached.iter_mut().filter_map(|r| r.peek().map(|&&(q, _)| q)).min() {
            let fact = self.facts.get(q)?;
            let (mut reaching, mut gained, mut alone) = (0, 0.0, 0.0);
            for r in &mut reached {
                if let Some(&(_, priced)) = r.next_if(|&&(j, _)| j == q) {
                    let gain = fact.base - priced?;
                    reaching += 1;
                    gained += gain.max(0.0);
                    alone = gain;
                }
            }
            let drop = match reaching {
                1 => alone,
                _ if fact.one_path => gained,
                _ => fact.base,
            };
            floor -= fact.weight * drop;
        }
        Some(floor - self.margin)
    }
}

/// Run enumeration over `pool`, as [`enumeration_pool`] builds it.
///
/// Greedy evaluations fan out over `options.parallel_workers` threads
/// through the shared evaluator; results are identical at any worker
/// count (see [`crate::greedy`]). Each evaluation charges one unit of
/// `control`'s budget; on exhaustion the run returns best-so-far plus an
/// [`EnumerationResume`] cursor, and a later call passing that cursor
/// (with the same pool and a warmed cache) continues to the
/// byte-identical uninterrupted answer. The inner Greedy(m, k) run
/// reports its two phases to `obs` as spans — instrumentation only.
///
/// Every evaluation is priced from its delta from the base
/// ([`CostEvaluator::priced`]), given the atoms of its members once the
/// run's singletons point has installed them, and in Phase 2 the
/// incumbent's atom in place of the incumbent's members'.
///
/// A Phase-1 set of plain members (see [`Member`]) whose floor — the
/// least it can cost, less a margin ([`Bound::floor`]) — is no lower than
/// its ceiling ([`crate::greedy`]) is not assembled and not priced: it is
/// counted as [`Counter::PrunedSets`] and returned infeasible, since at
/// its position it could not displace the front. It is still granted and
/// charged, so budgets, cuts, `evaluations` and checkpoints do not move,
/// and as assembling it would rewrite nothing, neither do
/// `lazy_variants`. Debug builds price each pruned set exactly and check
/// that (`invariants::check_pruned`).
#[allow(clippy::too_many_arguments)]
pub fn enumerate(
    eval: &CostEvaluator<'_>,
    base: &Configuration,
    pool: &EnumerationPool,
    sizing: &dyn SizingInfo,
    options: &TuningOptions,
    control: &SessionControl,
    resume: Option<EnumerationResume>,
    obs: &dyn SessionObserver,
) -> EnumerationRun {
    let (lazy_seed, snapshot) = match resume {
        Some(r) => (r.lazy_variants, Some(r.snapshot)),
        None => (0, None),
    };
    let lazy_variants = AtomicUsize::new(lazy_seed);
    let candidates = &pool.handles;

    let assembler = Assembler::new(base, options, sizing);
    let assemble = |set: &[&StructureHandle]| {
        let (assembled, rewritten) = assembler.assemble(set);
        lazy_variants.fetch_add(rewritten, Ordering::SeqCst);
        assembled
    };

    // a search starts before its first serial point: what it prices
    // before then, a derived cost reads only after it
    eval.serial_point(0);
    let base_cost = eval.priced(&assembler.base(), &[], &[], &[]).unwrap_or(f64::INFINITY);
    let handles = |set: &[&usize]| -> Vec<&StructureHandle> {
        set.iter().map(|&&c| candidates.get(c).expect("greedy positions index the pool")).collect()
    };
    // The base's costs as just priced, the pool's members and the bound
    // once its singletons are, each incumbent's atom for Phase 2: fixed at
    // serial points only, so which lookups are skipped and which sets are
    // pruned depends on nothing a worker does.
    let against = RwLock::ranked(
        Against {
            costs: eval.cached_costs(&assembler.base()),
            members: &[],
            bound: None,
            incumbent: None,
        },
        AGAINST,
    );
    let eval_fn = |set: &[&usize], ceiling: Option<f64>| -> Option<f64> {
        let against = against.read();
        if let (Some(ceiling), Some(bound)) = (ceiling, &against.bound) {
            let members: Option<Vec<&Member>> =
                set.iter().map(|&&c| against.members.get(c)?.as_ref()).collect();
            let floor = members.as_deref().and_then(|members| bound.floor(members));
            if let Some(floor) = floor.filter(|&floor| det::cannot_undercut(floor, ceiling)) {
                control.counters().add(Counter::PrunedSets, 1);
                if invariants::ENABLED {
                    let Assembled { overlay, delta } = assembler.assemble(&handles(set)).0?;
                    let atoms: Vec<&Atom> = members.iter().flatten().map(|m| &m.atom).collect();
                    eval.check_pruned(&overlay, &delta, &atoms, &against.costs, floor, ceiling);
                }
                return None;
            }
        }
        let Assembled { overlay, delta } = assemble(&handles(set))?;
        let (len, incumbent) =
            against.incumbent.as_ref().map_or((0, None), |(len, atom)| (*len, Some(atom)));
        let members = set.get(len..).unwrap_or_default();
        let atoms: Vec<&Atom> = incumbent
            .into_iter()
            .chain(members.iter().filter_map(|&&c| Some(&against.members.get(c)?.as_ref()?.atom)))
            .collect();
        eval.priced(&overlay, &delta, &atoms, &against.costs).ok()
    };
    // An atom re-derives its set's assembly — a singleton's, or the
    // incumbent's, assembled when it was evaluated — which is not tallied
    // again. One that cannot be made leaves its statements to the
    // relevance scan, which prices any set exactly, if less cheaply.
    // The pool's members are made once, at the first singletons point a
    // run over it hears, and installed at every one a run hears; a run
    // resumed in Phase 2 hears none and prices from the incumbent's atom.
    let member = |c: &StructureHandle| {
        let (assembled, rewritten) = assembler.assemble(&[c]);
        let Assembled { overlay, delta } = assembled?;
        let plain = rewritten == 0 && delta == [c.clone()] && assembler.unpartitioned_index(c);
        Some(Member { atom: eval.atom(&overlay, delta)?, plain })
    };
    let serial = |point: SerialPoint<'_, usize>| {
        eval.serial_point(point.ordinal());
        match point {
            SerialPoint::Singletons => {
                let members = pool.members.get_or_init(|| candidates.iter().map(member).collect());
                let mut against = against.write();
                against.bound = Bound::new(eval, &against.costs);
                against.members = members;
            }
            SerialPoint::Incumbent(set) => {
                let incumbent = assembler
                    .assemble(&handles(set))
                    .0
                    .and_then(|Assembled { overlay, delta }| eval.atom(&overlay, delta))
                    .map(|a| (set.len(), a));
                against.write().incumbent = incumbent;
            }
        }
    };
    let positions: Vec<usize> = (0..candidates.len()).collect();
    let k = candidates.len();
    let run = greedy_mk(
        &positions,
        base_cost,
        options.greedy_m,
        k,
        options.parallel_workers,
        &eval_fn,
        &serial,
        control,
        snapshot,
        obs,
    );

    // snapshot the tally at the cut BEFORE assembling the best-so-far
    // configuration below: the final assembly's rewrites must not leak
    // into the resume cursor, or a resumed run would double-count them
    let lazy_at_cut = lazy_variants.load(Ordering::SeqCst);
    let chosen: Vec<&usize> = run.outcome.chosen.iter().collect();
    let configuration =
        assemble(&handles(&chosen)).map_or_else(|| base.clone(), |a| a.overlay.materialize());
    EnumerationRun {
        result: EnumerationResult {
            configuration,
            cost: run.outcome.cost,
            evaluations: run.outcome.evaluations,
            pool_size: candidates.len(),
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
    use crate::cost::Relevance;
    use dta_catalog::Value;
    use dta_physical::{table_key, Index};

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
        let (db, t) = TABLES[rng.gen_range(0..TABLES.len())];
        structure_on(rng, db, t)
    }

    /// A random index, clustering, heap partitioning or view on `db.t`.
    fn structure_on(rng: &mut rand::rngs::StdRng, db: &str, t: &str) -> PhysicalStructure {
        use rand::Rng;
        let mut pick = |n: usize| rng.gen_range(0..n);
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
                let joined = [t, if t == "t9" { "t8" } else { "t9" }];
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
        server_with_rows(300)
    }

    /// [`differential_server`] with `rows` rows in each table.
    fn server_with_rows(rows: i64) -> dta_server::Server {
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
                for i in 0..rows {
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

    /// The Greedy shapes [`priced_from_atoms`] prices.
    #[derive(Clone, Copy, PartialEq)]
    enum Phase {
        /// Subsets of the pool from their members' atoms and from decoys.
        One,
        /// Incumbents as atoms, extended, sliced and dropped from.
        Two,
    }

    /// Outcomes [`priced_from_atoms`] saw, so that a test cannot pass by
    /// never reaching a branch.
    #[derive(Debug, Default)]
    struct Seen {
        split: usize,
        unsplit: usize,
        shared: usize,
        missing: usize,
        absent: usize,
        unsettled_base: usize,
        extended: usize,
        sliced: usize,
        broken: usize,
        skipped: usize,
    }

    /// Prices `phase`'s sets with `CostEvaluator::priced` on one evaluator,
    /// as `enumerate` does, and whole on a twin, and asserts the two agree
    /// bit for bit and miss for miss: 150 random bases over pools of five
    /// candidates, all three alignment modes, base costs left absent every
    /// third round and singletons now and then left unpriced.
    fn priced_from_atoms(seed: u64, phase: Phase) -> Seen {
        use crate::cost::{Atom, CostEvaluator};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let server = differential_server();
        let target = dta_server::TuningTarget::Single(&server);
        let items = differential_workload();
        // `eval` prices as `enumerate` does; `twin` prices every set whole
        let (eval, twin) =
            (CostEvaluator::new(&target, &items), CostEvaluator::new(&target, &items));
        // a miss is a what-if call or a derived cost, whichever prices it
        let tally = |e: &CostEvaluator<'_>| {
            let stats = e.cache_stats();
            let misses = stats.iter().map(|st| st.misses).collect::<Vec<_>>();
            (e.whatif_calls() + e.derived_costs(), misses)
        };
        let hits = |e: &CostEvaluator<'_>| e.cache_stats().iter().map(|st| st.hits).sum::<u64>();
        let bits = |r: Result<f64, _>| r.map(f64::to_bits).map_err(|e| format!("{e:?}"));
        // every subset of the five candidates with one to three members
        let subsets: Vec<Vec<usize>> = (1u32..32)
            .filter(|mask| mask.count_ones() <= 3)
            .map(|mask| (0..5).filter(|c| mask >> c & 1 == 1).collect())
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = Seen::default();
        for round in 0..150 {
            let base: Configuration =
                (0..rng.gen_range(0..8usize)).map(|_| random_structure(&mut rng)).collect();
            let pool: Vec<StructureHandle> =
                (0..5).map(|_| StructureHandle::new(random_structure(&mut rng))).collect();
            let members = |subset: &[usize]| -> Vec<&StructureHandle> {
                subset.iter().map(|&c| &pool[c]).collect()
            };
            for alignment in [AlignmentMode::None, AlignmentMode::Lazy, AlignmentMode::Eager] {
                let options =
                    TuningOptions { alignment, storage_bytes: None, ..Default::default() };
                let assembler = Assembler::new(&base, &options, &Sizes);
                seen.unsettled_base += usize::from(!assembler.unsettled.is_empty());
                // the base priced, or now and then not, so its costs are absent
                if round % 3 != 2 {
                    for e in [&eval, &twin] {
                        e.workload_cost(&base).expect("costing succeeds");
                    }
                }
                let costs = eval.cached_costs(&assembler.base());
                seen.absent += costs.iter().filter(|c| c.is_none()).count();
                // price `set` from `atoms` on `eval` and whole on `twin`;
                // `None` when the set is infeasible
                let price = |set: &[&StructureHandle], atoms: &[&Atom], context: &str| {
                    let Assembled { overlay, delta } = assembler.assemble(set).0?;
                    let got = eval.priced(&overlay, &delta, atoms, &costs);
                    let whole = overlay.materialize();
                    let want = twin.workload_cost(&whole);
                    let context = format!(
                        "round {round}, {alignment:?}, {context}\nbase {base}priced {whole}delta {delta:?}"
                    );
                    assert_eq!(bits(got), bits(want), "{context}");
                    assert_eq!(tally(&eval), tally(&twin), "{context}");
                    Some(delta)
                };
                // a set's atom with its delta, as `enumerate` makes it
                let atom = |set: &[&StructureHandle]| -> Option<(Vec<StructureHandle>, Atom)> {
                    let Assembled { overlay, delta } = assembler.assemble(set).0?;
                    Some((delta.clone(), eval.atom(&overlay, delta)?))
                };
                // the singletons priced from the base's costs alone, now and
                // then one left unpriced so that its atom lacks costs, then
                // the atoms
                let singles: Vec<Option<(Vec<StructureHandle>, Atom)>> = (0..pool.len())
                    .map(|c| {
                        if (round + c) % 4 != 3 {
                            price(&members(&[c]), &[], "singleton");
                        }
                        atom(&members(&[c]))
                    })
                    .collect();
                let single = |c: usize| singles.get(c).and_then(Option::as_ref);
                // Phase 1: each subset from its members' atoms, and from
                // genuine atoms that are not the members': mostly the
                // members' again, in any order, repeats included
                for subset in subsets.iter().filter(|_| phase == Phase::One) {
                    let decoys: Vec<usize> = (0..rng.gen_range(1..4))
                        .map(|_| match rng.gen_range(0..10) {
                            0..=6 => subset[rng.gen_range(0..subset.len())],
                            _ => rng.gen_range(0..pool.len()),
                        })
                        .collect();
                    for given in [subset, &decoys] {
                        let atoms: Vec<&(Vec<StructureHandle>, Atom)> =
                            given.iter().filter_map(|&c| single(c)).collect();
                        let just: Vec<&Atom> = atoms.iter().map(|(_, a)| a).collect();
                        let Some(delta) = price(&members(subset), &just, "phase 1") else {
                            break;
                        };
                        // whether the atoms are `delta` split into disjoint parts
                        let parts: Vec<&StructureHandle> =
                            atoms.iter().flat_map(|(d, _)| d).collect();
                        if parts.len() == delta.len() && delta.iter().all(|h| parts.contains(&h)) {
                            seen.split += 1;
                            for i in 0..items.len() {
                                let reaching: Vec<Option<f64>> = just
                                    .iter()
                                    .filter_map(|a| a.reached().iter().find(|r| r.0 == i))
                                    .map(|r| r.1)
                                    .collect();
                                seen.shared += usize::from(reaching.len() > 1);
                                seen.missing += usize::from(reaching == [None]);
                            }
                        } else {
                            seen.unsplit += 1;
                        }
                    }
                }
                // Phase 2: incumbents (none, one member, two) as atoms, each
                // extended by every other candidate with its atom, with no
                // candidate atom (a supervisor slice), and by a set that
                // drops one of its members
                for size in (0..3).filter(|_| phase == Phase::Two) {
                    let mut incumbent: Vec<usize> = (0..pool.len()).collect();
                    while incumbent.len() > size {
                        incumbent.remove(rng.gen_range(0..incumbent.len()));
                    }
                    let Some((inc_delta, inc_atom)) = atom(&members(&incumbent)) else {
                        continue;
                    };
                    for c in (0..pool.len()).filter(|c| !incumbent.contains(c)) {
                        let set = [incumbent.clone(), vec![c]].concat();
                        let with = single(c).map(|(_, a)| a);
                        for atoms in
                            [vec![&inc_atom], [&inc_atom].into_iter().chain(with).collect()]
                        {
                            let Some(delta) = price(&members(&set), &atoms, "phase 2") else {
                                break;
                            };
                            if !inc_delta.iter().all(|h| delta.contains(h)) {
                                seen.broken += 1;
                            } else if atoms.len() > 1 {
                                seen.extended += 1;
                            } else {
                                seen.sliced += 1;
                            }
                        }
                        if let Some(dropped) = set.get(1..).filter(|_| !incumbent.is_empty()) {
                            let atoms: Vec<&Atom> = [&inc_atom].into_iter().chain(with).collect();
                            price(&members(dropped), &atoms, "a set without the incumbent");
                        }
                    }
                }
            }
        }
        seen.skipped = (hits(&twin) - hits(&eval)) as usize;
        seen
    }

    #[test]
    fn atomic_pricing_equals_pricing_the_assembled_configuration() {
        let s = priced_from_atoms(0x0a70_3c05, Phase::One);
        let counts = [s.split, s.unsplit, s.shared, s.missing, s.absent, s.unsettled_base];
        for count in counts.into_iter().chain([s.skipped]) {
            assert!(count > 100, "{s:?}");
        }
    }

    #[test]
    fn delta_pricing_equals_pricing_the_assembled_configuration() {
        let s = priced_from_atoms(0x0a70_3c05, Phase::Two);
        let counts = [s.extended, s.sliced, s.broken, s.absent, s.unsettled_base, s.skipped];
        for count in counts {
            assert!(count > 100, "{s:?}");
        }
    }

    /// Reads and writes that the cost cache derives — one table with
    /// grouping, order and TOP over it, an UPDATE, a DELETE and an INSERT,
    /// joins of two and three tables, a self-join, a join an
    /// index-nested-loop probe can answer, a grouped and ordered join, and
    /// a one-table statement and a join that a view of
    /// [`answering_views`] answers.
    fn derivable_workload() -> Vec<dta_workload::WorkloadItem> {
        [
            "SELECT a FROM t0 WHERE a = 5",
            "SELECT a, b FROM t0 WHERE a < 9",
            "SELECT v FROM t0 WHERE x < 90 AND b < 6",
            "SELECT TOP 5 k FROM t0 WHERE y = 7 ORDER BY k",
            "SELECT COUNT(*) FROM t1",
            "SELECT b, COUNT(*) FROM t1 WHERE x < 100 GROUP BY b ORDER BY b",
            "UPDATE t0 SET y = 1 WHERE a = 3",
            "DELETE FROM t1 WHERE b = 4",
            "INSERT INTO t0 VALUES (1, 2, 3, 4, 5, 6)",
            "SELECT t0.v FROM t0, t1 WHERE t0.k = t1.k AND t1.a = 3",
            "SELECT t0.v FROM t0, t1, t2 WHERE t0.k = t1.k AND t1.x = t2.x AND t2.b = 4 AND t0.a < 20",
            "SELECT p.v FROM t0 p, t0 q WHERE p.k = q.y AND q.a = 2",
            "SELECT t1.v FROM t0, t1 WHERE t0.k = t1.x AND t0.x = 7 AND t0.y = 7 AND t0.a = 7",
            "SELECT t0.a, COUNT(*) FROM t0, t1 WHERE t0.k = t1.k AND t1.b < 6 GROUP BY t0.a ORDER BY t0.a",
            "SELECT y, COUNT(*) FROM t1 GROUP BY y",
            "SELECT t0.b, COUNT(*) FROM t0, t1 WHERE t0.k = t1.k GROUP BY t0.b",
        ]
        .map(|sql| {
            let statement = dta_sql::parse_statement(sql).expect("valid SQL");
            dta_workload::WorkloadItem::new("d", statement)
        })
        .to_vec()
    }

    /// Views that answer the last two statements of [`derivable_workload`]
    /// with far fewer rows than their tables hold, so that a plan reading
    /// them wins and keeps every binding's access path out of its tree.
    fn answering_views() -> [PhysicalStructure; 2] {
        use dta_physical::{JoinPair, MaterializedView, QualifiedColumn, ViewAggregate};
        let count = || vec![ViewAggregate::count_star()];
        let column = QualifiedColumn::new;
        [
            MaterializedView::grouped("d", &["t1"], Vec::new(), vec![column("t1", "y")], count()),
            MaterializedView::grouped(
                "d",
                &["t0", "t1"],
                vec![JoinPair::new(column("t0", "k"), column("t1", "k"))],
                vec![column("t0", "b")],
                count(),
            ),
        ]
        .map(PhysicalStructure::View)
    }

    /// The indexes the index-nested-loop joins of `node` probe.
    fn probed(node: &dta_optimizer::PlanNode, out: &mut Vec<String>) {
        use dta_optimizer::PlanNode as N;
        match node {
            N::IndexNLJoin { outer, inner, .. } => {
                out.extend(inner.method.handle().map(|h| h.name().to_string()));
                probed(outer, out);
            }
            N::HashJoin { left, right, .. } => {
                probed(left, out);
                probed(right, out);
            }
            N::HashAggregate { input, .. }
            | N::StreamAggregate { input, .. }
            | N::Sort { input, .. }
            | N::Top { input, .. } => probed(input, out),
            _ => {}
        }
    }

    /// Candidates on `d.t0` or `d.t1`: mostly non-clustered indexes, and
    /// in pairs of twins — one key, included columns of equal width — whose
    /// paths cost the same, so the planner breaks the tie by order. Each
    /// structure once, as in a candidate pool: a set then lists what a
    /// statement sees in one order, the pool's, which is the order its
    /// cache entry was priced in.
    fn derivable_candidates(rng: &mut rand::rngs::StdRng) -> Vec<PhysicalStructure> {
        use rand::Rng;
        let mut out = Vec::new();
        while out.len() < 6 {
            let t = ["t0", "t1"][rng.gen_range(0..2)];
            let key = ["a", "b", "x", "k", "y"][rng.gen_range(0..5)];
            match rng.gen_range(0..10) {
                0..=5 => {
                    for included in [["v"], ["k"]].iter().take(1 + rng.gen_range(0..2)) {
                        let ix = Index::non_clustered("d", t, &[key], included);
                        out.push(PhysicalStructure::Index(ix));
                    }
                }
                6 | 7 => {
                    out.push(PhysicalStructure::Index(Index::non_clustered("d", t, &[key], &[])))
                }
                _ => out.push(structure_on(rng, "d", t)),
            }
        }
        let mut pool: Vec<PhysicalStructure> = Vec::new();
        for s in out {
            if !pool.contains(&s) {
                pool.push(s);
            }
        }
        pool
    }

    /// One lookup [`price_sets`] made: the alignment mode's position, the
    /// set priced, the statement, whether its cost was derived, and what
    /// planning the assembled configuration (`whole`) gives.
    struct Priced<'p> {
        mode: usize,
        members: &'p [&'p StructureHandle],
        item: usize,
        derived: bool,
        plan: &'p dta_optimizer::Plan,
        whole: &'p Configuration,
    }

    /// Price `items` under `base ∪ S` for the base and every set `S` of one
    /// to three of `pool`'s members, in Greedy's order — the base and the
    /// singletons, a serial point, the pairs, another, the triples — in each
    /// alignment mode with a cold cache, so that each mode derives its own.
    /// Each cost and its structures must be what planning the assembled
    /// configuration gives; each lookup is handed to `seen`.
    fn price_sets(
        server: &dta_server::Server,
        items: &[dta_workload::WorkloadItem],
        base: &Configuration,
        pool: &[StructureHandle],
        label: &str,
        mut seen: impl FnMut(Priced<'_>),
    ) {
        use crate::cost::CostEvaluator;
        let target = dta_server::TuningTarget::Single(server);
        let mut sets: Vec<Vec<usize>> = vec![Vec::new()];
        sets.extend((0..pool.len()).map(|c| vec![c]));
        sets.extend(
            (1u32..1 << pool.len())
                .filter(|m| (2..=3).contains(&m.count_ones()))
                .map(|mask| (0..pool.len()).filter(|c| mask >> c & 1 == 1).collect()),
        );
        sets.sort_by_key(|set| set.len().max(1));
        for (mode, alignment) in
            [AlignmentMode::None, AlignmentMode::Lazy, AlignmentMode::Eager].into_iter().enumerate()
        {
            let options = TuningOptions { alignment, storage_bytes: None, ..Default::default() };
            let assembler = Assembler::new(base, &options, &Sizes);
            let eval = CostEvaluator::new(&target, items);
            for set in &sets {
                if set.len() > 1 {
                    // Greedy's serial points: the sets one smaller are priced
                    eval.serial_point(set.len() as u32 - 1);
                }
                let members: Vec<&StructureHandle> = set.iter().map(|&c| &pool[c]).collect();
                let Some(Assembled { overlay, .. }) = assembler.assemble(&members).0 else {
                    continue;
                };
                let whole = overlay.materialize();
                for (item, statement) in items.iter().enumerate() {
                    let before = eval.derived_costs();
                    let got = eval.report(item, &overlay).expect("costing succeeds");
                    let plan = server
                        .whatif(&statement.database, &statement.statement, &whole)
                        .expect("binds");
                    let context = format!(
                        "{label}, {alignment:?}, `{}`\nbase {base}priced {whole}",
                        statement.statement
                    );
                    assert_eq!(got.0.to_bits(), plan.cost.to_bits(), "{context}");
                    assert_eq!(got.1, plan.used_structures(), "{context}");
                    let derived = eval.derived_costs() > before;
                    seen(Priced {
                        mode,
                        members: &members,
                        item,
                        derived,
                        plan: &plan,
                        whole: &whole,
                    });
                }
            }
        }
    }

    /// A join of nine bindings, one more than a record holds
    /// ([`crate::cost::Picks::MAX`]): it records no path, so the cost
    /// cache never derives it.
    fn nine_bindings() -> dta_workload::WorkloadItem {
        let sql = "SELECT p1.v FROM t0 p1, t1 p2, t0 p3, t1 p4, t0 p5, t1 p6, t0 p7, t1 p8, t0 p9 \
                   WHERE p1.k = p2.k AND p2.k = p3.k AND p3.k = p4.k AND p4.k = p5.k \
                   AND p5.k = p6.k AND p6.k = p7.k AND p7.k = p8.k AND p8.k = p9.k AND p1.a = 3";
        dta_workload::WorkloadItem::new("d", dta_sql::parse_statement(sql).expect("valid SQL"))
    }

    #[test]
    fn derived_costs_equal_planning_the_assembled_configuration() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // tables large enough that indexes beat their scans
        let server = server_with_rows(4_000);
        let mut items = derivable_workload();
        let derivable = items.len();
        items.push(nine_bindings());
        let insert =
            items.iter().position(|item| matches!(item.statement, dta_sql::Statement::Insert(_)));
        let joins: Vec<bool> = items
            .iter()
            .map(
                |item| matches!(&item.statement, dta_sql::Statement::Select(q) if q.from.len() > 1),
            )
            .collect();
        // the reference cases: each statement's tables read their paths
        // from the records that differ from the base on that table alone
        let on = |table: &str, key: &str| {
            PhysicalStructure::Index(Index::non_clustered("d", table, &[key], &[]))
        };
        let heap = |table: &str| PhysicalStructure::TablePartitioning {
            database: "d".into(),
            table: table.into(),
            scheme: part("x"),
        };
        let [by_y, by_b] = answering_views();
        // a second view that answers `by_y`'s statement, re-aggregated
        let by_y_b = PhysicalStructure::View(dta_physical::MaterializedView::grouped(
            "d",
            &["t1"],
            Vec::new(),
            ["y", "b"].map(|c| dta_physical::QualifiedColumn::new("t1", c)).to_vec(),
            vec![dta_physical::ViewAggregate::count_star()],
        ));
        // it beats the scan of `x < 90 AND b < 6` until a partitioning on
        // `x` cuts the scan to a third
        let t0_by_b =
            PhysicalStructure::Index(Index::non_clustered("d", "t0", &["b"], &["x", "v"]));
        let t0_clustered = PhysicalStructure::Index(Index::clustered("d", "t0", &["a"]));
        let cases = [
            // (a) aligned added indexes beside a heap partitioning, and a
            // base index that alignment rewrites
            (
                "a",
                vec![t0_by_b],
                vec![heap("t0"), on("t0", "k"), on("t0", "y"), on("t0", "x"), on("t0", "b")],
            ),
            // (b) partitionings on two joined tables, no index added
            ("b", Vec::new(), vec![heap("t0"), heap("t1"), heap("t2")]),
            // (c) added views with no added index and with one
            (
                "c",
                Vec::new(),
                vec![by_y.clone(), by_y_b, by_b.clone(), on("t1", "y"), on("t0", "b")],
            ),
            // (d) writes under an added view and a partitioning
            ("d", Vec::new(), vec![by_y, by_b.clone(), heap("t0"), heap("t1")]),
            // (e) an added clustered index
            ("e", Vec::new(), vec![t0_clustered.clone(), on("t0", "k"), on("t0", "y")]),
            // (f) the INSERT under added indexes beside an added view, and
            // under an added clustered index
            ("f", Vec::new(), vec![on("t0", "k"), on("t0", "y"), by_b, t0_clustered]),
        ];
        let answered = derivable - 2..derivable;
        let writes = |item: usize| {
            matches!(items[item].statement, dta_sql::Statement::Update(_))
                || matches!(items[item].statement, dta_sql::Statement::Delete(_))
        };
        // per case, lookups in the case's situation: derived, called, and
        // the derived ones apart — (c) with one added index, (d) of the
        // DELETE, (f) under an added clustered index — and not
        let mut situations = [[0usize; 4]; 6];
        for (case, (label, base, pool)) in cases.into_iter().enumerate() {
            let base: Configuration = base.into_iter().map(StructureHandle::new).collect();
            let pool: Vec<StructureHandle> = pool.into_iter().map(StructureHandle::new).collect();
            price_sets(&server, &items, &base, &pool, label, |p| {
                let statement = &items[p.item].statement;
                let tables = statement.referenced_tables();
                let on_its_tables = |kind: Option<IndexKind>| {
                    let on = |h: &&&StructureHandle| {
                        h.structure().table().is_some_and(|t| tables.contains(&t))
                            && h.as_index().map(|ix| ix.kind) == kind
                    };
                    p.members.iter().filter(on).count()
                };
                let indexes = on_its_tables(Some(IndexKind::NonClustered));
                let partitionings = on_its_tables(None);
                let viewed = p.members.iter().any(|h| {
                    h.as_view().is_some_and(|v| v.tables.iter().any(|t| tables.contains(&&**t)))
                });
                let (situation, apart) = match case {
                    0 => (p.mode > 0 && partitionings > 0 && indexes > 0, false),
                    1 => (tables.len() == 2 && partitionings == 2, false),
                    2 => (answered.contains(&p.item) && viewed && indexes < 2, indexes == 1),
                    3 => (writes(p.item) && viewed && partitionings > 0, tables == ["t1"]),
                    4 => (on_its_tables(Some(IndexKind::Clustered)) > 0, false),
                    _ => {
                        let clustered = on_its_tables(Some(IndexKind::Clustered)) > 0;
                        let pair = p.members.len() > 1 && Some(p.item) == insert;
                        (pair && (clustered || indexes > 0 && viewed), clustered)
                    }
                };
                if situation {
                    let tally = &mut situations[case];
                    tally[usize::from(!p.derived)] += 1;
                    tally[2] += usize::from(p.derived && apart);
                    tally[3] += usize::from(p.derived && !apart);
                }
            });
        }
        let seen = format!("{situations:?}");
        for (case, &[derived, called, apart, rest]) in situations.iter().enumerate() {
            match case {
                0 | 1 => assert!(derived > 0, "{seen}"),
                2 | 3 => assert!(apart > 0 && rest > 0, "{seen}"),
                4 => assert!(derived == 0 && called > 0, "{seen}"),
                _ => assert!(apart == 0 && rest > 0 && called > 0, "{seen}"),
            }
        }

        // random bases and pools
        let mut rng = StdRng::seed_from_u64(0x0de2_1ed0);
        // outcomes seen, so the test cannot pass by never reaching a branch
        let (mut derived, mut dml, mut ties, mut called) = (0, 0, 0, 0);
        let (mut derived_joins, mut probing_added, mut rewritten) = (0, 0, vec![0; items.len()]);
        let mut per_mode = [0; 3];
        let mut per_item = vec![0; items.len()];
        let mut nine_called = 0;
        for round in 0..40 {
            // bases on the statements' tables and elsewhere, clusterings,
            // partitionings and views included, and every other one with
            // the views that answer the last two statements
            let mut base: Configuration = (0..rng.gen_range(0..5usize))
                .map(|_| match rng.gen_range(0..3) {
                    0 => random_structure(&mut rng),
                    _ => {
                        let t = ["t0", "t1"][rng.gen_range(0..2)];
                        structure_on(&mut rng, "d", t)
                    }
                })
                .collect();
            if round % 2 == 0 {
                base.extend(answering_views().map(StructureHandle::new));
            }
            let pool: Vec<StructureHandle> =
                derivable_candidates(&mut rng).into_iter().map(StructureHandle::new).collect();
            price_sets(&server, &items, &base, &pool, &format!("round {round}"), |p| {
                if !p.derived {
                    called += 1;
                    nine_called += usize::from(p.item == derivable && p.members.len() > 1);
                    return;
                }
                let item = &items[p.item];
                derived += 1;
                per_mode[p.mode] += 1;
                per_item[p.item] += 1;
                dml += usize::from(!matches!(item.statement, dta_sql::Statement::Select(_)));
                derived_joins += usize::from(joins[p.item]);
                rewritten[p.item] += usize::from(p.plan.to_string().contains("ViewScan"));
                let mut inners = Vec::new();
                probed(&p.plan.root, &mut inners);
                probing_added +=
                    usize::from(p.members.iter().any(|h| inners.iter().any(|n| **n == **h.name())));
                // a tie the order decided: the planner, given the
                // structures in reverse, reads another at one cost
                let reversed: Configuration = p.whole.handles().iter().rev().cloned().collect();
                let swapped =
                    server.whatif(&item.database, &item.statement, &reversed).expect("binds");
                ties += usize::from(
                    swapped.cost.to_bits() == p.plan.cost.to_bits()
                        && swapped.used_structures() != p.plan.used_structures(),
                );
            });
        }
        let seen = format!(
            "{derived} {dml} {ties} {called} {derived_joins} {probing_added} {per_mode:?} \
             {per_item:?} {rewritten:?}"
        );
        for count in
            [derived, dml, ties, called, derived_joins, per_mode[0], per_mode[1], per_mode[2]]
        {
            assert!(count > 50, "{seen}");
        }
        assert!(probing_added > 0, "{seen}");
        // every statement derives but the one with more bindings than a
        // record holds, which is called where the others derive
        for (i, &n) in per_item.iter().enumerate() {
            assert_eq!(n > 0, i < derivable, "statement {i} derived {n} times: {seen}");
        }
        assert!(nine_called > 50, "{seen} {nine_called}");
        // the derived plans of the statements a view answers read it
        for &n in &rewritten[answered] {
            assert!(n > 0, "{seen}");
        }
    }

    /// Three tables of the synthetic generators' shape — `k` unique, `a`
    /// to `d` skewed, a wide `pad` — with statistics on every column, large
    /// enough that seeks and index nested-loop joins beat scans.
    fn star_server() -> dta_server::Server {
        use dta_workload::gen_util::{build_database, TableSpec};
        use rand::SeedableRng;
        let mut server = dta_server::Server::new("s");
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let specs = [
            TableSpec::new("t0", 2_000).distincts(500, 20).scale(50.0),
            TableSpec::new("t1", 2_000).distincts(400, 10).scale(50.0),
            TableSpec::new("t2", 2_000).distincts(300, 30).scale(50.0),
        ];
        build_database(&mut server, "d", &specs, &mut rng);
        let target = dta_server::TuningTarget::Single(&server);
        let keys: Vec<dta_stats::StatKey> = ["t0", "t1", "t2"]
            .iter()
            .flat_map(|t| ["k", "a", "b", "c", "d"].map(|c| dta_stats::StatKey::new("d", t, &[c])))
            .collect();
        target.ensure_statistics(&keys, false);
        server
    }

    /// `sql` on `d`, weighted.
    fn item(sql: &str, weight: f64) -> dta_workload::WorkloadItem {
        let statement = dta_sql::parse_statement(sql).expect("valid SQL");
        dta_workload::WorkloadItem::weighted("d", statement, weight)
    }

    fn index(table: &str, key: &str) -> StructureHandle {
        StructureHandle::new(PhysicalStructure::Index(Index::non_clustered(
            "d",
            table,
            &[key],
            &[],
        )))
    }

    /// Phase 1 as [`enumerate`] runs it over `pool` on `eval` — pruning by
    /// bound — and as Greedy runs it pricing every set whole on `twin`:
    /// each run cut where Phase 1 ends, then resumed to the end. Returns
    /// the two fronts (best set and cost bits) and the two final answers,
    /// and the sets the pruned runs counted as pruned.
    #[allow(clippy::type_complexity)]
    fn phase_one_both_ways(
        eval: &CostEvaluator<'_>,
        twin: &CostEvaluator<'_>,
        base: &Configuration,
        pool: &[StructureHandle],
        options: &TuningOptions,
    ) -> ([((Vec<usize>, u64), (Configuration, u64, usize)); 2], u64) {
        use crate::greedy::GreedyCursor;
        let n = pool.len();
        let phase1 = (n + n * n.saturating_sub(1) / 2) as u64;
        let front = |snapshot: &GreedySnapshot| {
            assert!(matches!(snapshot.cursor, GreedyCursor::Phase2 { next: 0, .. }));
            (snapshot.best_set.clone(), snapshot.best_cost.to_bits())
        };
        // pruned: the pool's members live across both runs, as in a session
        let enumeration = EnumerationPool { handles: pool.to_vec(), members: OnceLock::new() };
        let run = |control: &SessionControl, resume| {
            enumerate(eval, base, &enumeration, &Sizes, options, control, resume, &crate::obs::NOOP)
        };
        let cut = SessionControl::with_budget(phase1);
        let (_, resume) = run(&cut, None).interrupted.expect("Phase 2 is left");
        let pruned_front = front(&resume.snapshot);
        let rest = SessionControl::resumed(cut.consumed(), None).expect("valid resume");
        let done = run(&rest, Some(resume)).result;
        let pruned = (done.configuration, done.cost.to_bits(), done.evaluations);
        let pruned_sets =
            [&cut, &rest].iter().map(|c| c.counters().get(Counter::PrunedSets)).sum::<u64>();
        // whole: every set assembled and priced on the twin
        let assembler = Assembler::new(base, options, &Sizes);
        let whole = |set: &[&usize], _: Option<f64>| -> Option<f64> {
            let members: Vec<&StructureHandle> = set.iter().map(|&&c| &pool[c]).collect();
            let assembled = assembler.assemble(&members).0?;
            twin.workload_cost(&assembled.overlay.materialize()).ok()
        };
        let base_cost = twin.workload_cost(base).expect("costing succeeds");
        let positions: Vec<usize> = (0..n).collect();
        let greedy = |control: &SessionControl, resume| {
            let (m, k, w) = (options.greedy_m, n, options.parallel_workers);
            greedy_mk(
                &positions,
                base_cost,
                m,
                k,
                w,
                &whole,
                &|_| {},
                control,
                resume,
                &crate::obs::NOOP,
            )
        };
        let cut = SessionControl::with_budget(phase1);
        let (_, resume) = greedy(&cut, None).interrupted.expect("Phase 2 is left");
        let whole_front = front(&resume);
        let rest = SessionControl::resumed(cut.consumed(), None).expect("valid resume");
        let done = greedy(&rest, Some(resume)).outcome;
        let chosen: Vec<&StructureHandle> = done.chosen.iter().map(|&c| &pool[c]).collect();
        let configuration =
            assembler.assemble(&chosen).0.map_or_else(|| base.clone(), |a| a.overlay.materialize());
        let whole = (configuration, done.cost.to_bits(), done.evaluations);
        ([(pruned_front, pruned), (whole_front, whole)], pruned_sets)
    }

    #[test]
    fn a_superadditive_join_pair_wins_phase_one_unpruned() {
        let server = star_server();
        let target = dta_server::TuningTarget::Single(&server);
        // t0 is read through its join columns: an index on t0.c lets the
        // join start from t1's three rows and probe t0, and one on t2.k
        // then lets it probe t2 instead of scanning it — which without the
        // first, from t0 scanned whole, gains nothing
        let join = "SELECT t0.pad FROM t0, t1, t2 WHERE t0.c = t1.k AND t0.d = t2.k \
                    AND t1.a = 3 AND t2.b = 5";
        let update = "UPDATE t2 SET k = 0 WHERE c = 7";
        let (x, y, z) = (index("t0", "c"), index("t2", "k"), index("t1", "b"));
        let base = Configuration::new();
        let alone = |sql: &str, set: &[&StructureHandle]| {
            let items = [item(sql, 1.0)];
            let e = CostEvaluator::new(&target, &items);
            let config: Configuration = set.iter().map(|&h| h.clone()).collect();
            e.workload_cost(&config).expect("costing succeeds")
        };
        let b = alone(join, &[]);
        let (gx, gy, gxy) =
            (b - alone(join, &[&x]), b - alone(join, &[&y]), b - alone(join, &[&x, &y]));
        let superadditive = gxy - gx - gy;
        assert!(superadditive > 0.2 * b, "{b} {gx} {gy} {gxy}");
        // the UPDATE maintains y: weighted so that y alone costs more than
        // it gains, by half of what it gains beside x
        let maintenance = alone(update, &[&y]) - alone(update, &[]);
        assert!(maintenance > 0.0, "{maintenance}");
        let weight = (gy + superadditive / 2.0) / maintenance;
        let items = [item(join, 1.0), item(update, weight)];
        let (eval, twin) =
            (CostEvaluator::new(&target, &items), CostEvaluator::new(&target, &items));
        let options = TuningOptions { parallel_workers: 1, ..Default::default() };
        let pool = [x, y, z];
        let ([(pruned_front, pruned), (whole_front, whole)], _) =
            phase_one_both_ways(&eval, &twin, &base, &pool, &options);
        assert_eq!(whole_front.0, vec![0, 1], "the pair is Phase 1's winner");
        assert_eq!(pruned_front, whole_front, "[pruned-set] Phase 1's front");
        assert_eq!(pruned, whole, "[pruned-set] the answer");
    }

    #[test]
    fn pruned_enumeration_equals_pricing_every_phase_one_set_whole() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let server = star_server();
        let target = dta_server::TuningTarget::Single(&server);
        let mut rng = StdRng::seed_from_u64(0x9e7a_11ed);
        let column = |rng: &mut StdRng| ["k", "a", "b", "c", "d"][rng.gen_range(0..5)];
        let table = |rng: &mut StdRng| ["t0", "t1", "t2"][rng.gen_range(0..3)];
        // outcomes seen, so the test cannot pass by never reaching a branch
        let (mut pruned_sets, mut rounds) = (0, 0);
        for round in 0..6 {
            // reads of one, two and three tables, and writes of each kind
            let mut sqls = vec![
                "SELECT t0.pad FROM t0, t1, t2 WHERE t0.c = t1.k AND t0.d = t2.k AND t1.a = 3 \
                 AND t2.b = 5"
                    .to_string(),
                "INSERT INTO t1 VALUES (1, 2, 3, 4, 5, 'x')".to_string(),
            ];
            for _ in 0..6 {
                let (t, c) = (table(&mut rng), column(&mut rng));
                sqls.push(match rng.gen_range(0..6) {
                    0 => format!("SELECT pad FROM {t} WHERE {c} = {}", rng.gen_range(0..20)),
                    1 => format!("SELECT {c}, COUNT(*) FROM {t} WHERE b < 4 GROUP BY {c}"),
                    2 => format!(
                        "SELECT t0.pad FROM t0, t1 WHERE t0.{c} = t1.k AND t1.{} = 2",
                        column(&mut rng)
                    ),
                    3 => format!("UPDATE {t} SET {c} = 1 WHERE a = {}", rng.gen_range(0..20)),
                    4 => format!("DELETE FROM {t} WHERE {c} = 3"),
                    _ => format!("SELECT k FROM {t} WHERE {c} < 30 AND b = 1"),
                });
            }
            let items: Vec<_> =
                sqls.iter().map(|sql| item(sql, rng.gen_range(1..4) as f64)).collect();
            // a base on some tables; a pool of mostly plain indexes
            let base: Configuration = (0..rng.gen_range(0..3usize))
                .map(|_| {
                    let t = table(&mut rng);
                    StructureHandle::new(structure_on(&mut rng, "d", t))
                })
                .collect();
            let mut pool: Vec<StructureHandle> = Vec::new();
            while pool.len() < 25 {
                let (t, c) = (table(&mut rng), column(&mut rng));
                let h =
                    match rng.gen_range(0..10) {
                        0 => StructureHandle::new(structure_on(&mut rng, "d", t)),
                        1 | 2 => StructureHandle::new(PhysicalStructure::Index(
                            Index::non_clustered("d", t, &[c, column(&mut rng)], &["pad"]),
                        )),
                        _ => index(t, c),
                    };
                if !pool.contains(&h) {
                    pool.push(h);
                }
            }
            let alignment = [AlignmentMode::None, AlignmentMode::Lazy][round % 2];
            let storage_bytes = (round % 3 == 2).then_some(4_000_000);
            let options = TuningOptions {
                alignment,
                storage_bytes,
                parallel_workers: 1 + round % 2,
                ..Default::default()
            };
            let (eval, twin) =
                (CostEvaluator::new(&target, &items), CostEvaluator::new(&target, &items));
            let ([(pruned_front, pruned), (whole_front, whole)], counted) =
                phase_one_both_ways(&eval, &twin, &base, &pool, &options);
            let context = format!("round {round}\nbase {base}pool {pool:?}");
            assert_eq!(pruned_front, whole_front, "{context}");
            assert_eq!(pruned, whole, "{context}");
            pruned_sets += counted;
            rounds += usize::from(counted > 0);
        }
        assert!(pruned_sets > 500 && rounds > 3, "{pruned_sets} {rounds}");
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
                let (assembled, rewritten) = assembler.assemble(&handle_refs);
                let full = reference_assemble(&base, &set_refs, &options, &Sizes);
                let context = format!(
                    "round {round}, {alignment:?}, bound {storage_bytes:?}\nbase {base}set {set:?}"
                );
                let configuration = assembled.as_ref().map(|a| a.overlay.materialize());
                assert_eq!((configuration.clone(), rewritten), full, "{context}");
                // against the base, the delta is what one holds and the other not
                if let (Some(Assembled { delta, .. }), Some(configuration)) =
                    (&assembled, &configuration)
                {
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

    /// Tables `d.t0` … `d.t119`, and `e.t0` and `e.t9`, with no rows: the
    /// catalog a wide base lives in.
    fn wide_server() -> dta_server::Server {
        use dta_catalog::{Column, ColumnType, Database, Table};
        let mut server = dta_server::Server::new("s");
        let tables = |names: Vec<String>, db: &str| {
            let mut database = Database::new(db);
            for t in names {
                let columns =
                    ["a", "b", "x", "y", "k", "v"].map(|c| Column::new(c, ColumnType::Int));
                database.add_table(Table::new(t, columns.to_vec())).expect("fresh table");
            }
            database
        };
        let wide = (0..WIDE_TABLES).map(|n| format!("t{n}")).collect();
        server.create_database(tables(wide, "d")).expect("fresh database");
        server
            .create_database(tables(vec!["t0".into(), "t9".into()], "e"))
            .expect("fresh database");
        server
    }

    /// Tables of the wide base.
    const WIDE_TABLES: usize = 120;

    /// Reads, joins and writes over the first sixteen wide tables.
    fn wide_workload() -> Vec<dta_workload::WorkloadItem> {
        [
            ("d", "SELECT b FROM t0 WHERE a = 5"),
            ("d", "SELECT x, y FROM t1 WHERE b < 4"),
            ("d", "SELECT COUNT(*) FROM t2"),
            ("d", "SELECT t3.v FROM t3, t4 WHERE t3.k = t4.k AND t4.a = 3"),
            ("d", "SELECT a, COUNT(*) FROM t5 GROUP BY a"),
            ("d", "SELECT t9.b FROM t6, t9 WHERE t6.k = t9.k AND t6.x < 120"),
            ("d", "SELECT t7.a FROM t7, t8, t10 WHERE t7.k = t8.k AND t8.v = t10.v"),
            ("d", "INSERT INTO t11 VALUES (1, 2, 3, 4, 5, 6)"),
            ("d", "DELETE FROM t12 WHERE y = 7"),
            ("d", "UPDATE t13 SET x = 1 WHERE a = 3"),
            ("d", "UPDATE t14 SET y = 2 WHERE k = 4"),
            ("d", "SELECT k FROM t15 WHERE y = 9"),
            ("e", "SELECT b FROM t0 WHERE x = 150"),
            ("e", "UPDATE t9 SET y = 5 WHERE b = 2"),
        ]
        .map(|(db, sql)| {
            let statement = dta_sql::parse_statement(sql).expect("valid SQL");
            dta_workload::WorkloadItem::new(db, statement)
        })
        .to_vec()
    }

    /// What a lookup of a statement reads: the primary and verify
    /// fingerprints, and the projection a miss prices, by table (each in
    /// its order) and its views (in theirs).
    type Lookup = (u64, u64, BTreeMap<u64, Vec<StructureHandle>>, Vec<StructureHandle>);

    fn lookup<'h>(
        (primary, verify): (u64, u64),
        projection: impl Iterator<Item = &'h StructureHandle>,
    ) -> Lookup {
        let mut tables: BTreeMap<u64, Vec<StructureHandle>> = BTreeMap::new();
        let mut views = Vec::new();
        for h in projection {
            match h.table_key() {
                Some(key) => tables.entry(key).or_default().push(h.clone()),
                None => views.push(h.clone()),
            }
        }
        (primary, verify, tables, views)
    }

    /// The fingerprints a lookup of the statement `relevance` describes
    /// computes under `config`.
    fn fingerprints(relevance: &Relevance, config: &Overlay<'_>) -> (u64, u64) {
        (
            CostEvaluator::fingerprint(relevance, config),
            CostEvaluator::verify_fingerprint(relevance, config),
        )
    }

    #[test]
    fn overlay_lookups_equal_materialized_lookups() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let server = wide_server();
        let target = dta_server::TuningTarget::Single(&server);
        let items = wide_workload();
        let eval = CostEvaluator::new(&target, &items);
        let mut rng = StdRng::seed_from_u64(0x0be7_1a75);
        // a structure on one of the statements' tables `focus` times in
        // ten, else on any wide table
        let draw = |rng: &mut StdRng, focus: usize| {
            let (db, n) = match rng.gen_range(0..10) {
                0 => ("e", [0, 9][rng.gen_range(0..2)]),
                f if f <= focus => ("d", rng.gen_range(0..16)),
                _ => ("d", rng.gen_range(0..WIDE_TABLES)),
            };
            StructureHandle::new(structure_on(rng, db, &format!("t{n}")))
        };
        // outcomes seen, so the test cannot pass by never reaching a branch
        let (mut compared, mut unsettled, mut shared, mut ordered, mut with_views) =
            (0, 0, 0, 0, 0);
        for round in 0..150 {
            // one structure on every wide table, then more anywhere
            let every: Vec<PhysicalStructure> =
                (0..WIDE_TABLES).map(|n| structure_on(&mut rng, "d", &format!("t{n}"))).collect();
            let more: Vec<StructureHandle> =
                (0..rng.gen_range(240..300)).map(|_| draw(&mut rng, 2)).collect();
            let base: Configuration =
                every.into_iter().map(StructureHandle::new).chain(more).collect();
            let tables: std::collections::BTreeSet<_> =
                base.handles().iter().filter_map(StructureHandle::table_key).collect();
            assert!(base.len() >= 300 && tables.len() >= 100, "round {round}: {}", tables.len());
            // sets: fresh structures and repeats of the base's
            let mut set = || -> Vec<StructureHandle> {
                (0..rng.gen_range(1..7))
                    .map(|_| match rng.gen_range(0..3) {
                        0 => base.handles()[rng.gen_range(0..base.len())].clone(),
                        _ => draw(&mut rng, 7),
                    })
                    .collect()
            };
            let sets = [set(), set(), set(), set()];
            for alignment in [AlignmentMode::None, AlignmentMode::Lazy, AlignmentMode::Eager] {
                let options =
                    TuningOptions { alignment, storage_bytes: None, ..Default::default() };
                let assembler = Assembler::new(&base, &options, &Sizes);
                unsettled += assembler.unsettled.len();
                let indexed = Indexed::new(&base, None);
                let mut overlays = vec![assembler.base()];
                for set in &sets {
                    let set_refs: Vec<&StructureHandle> = set.iter().collect();
                    shared += set.iter().filter(|h| base.handles().contains(h)).count();
                    overlays.extend(assembler.assemble(&set_refs).0.map(|a| a.overlay));
                    // candidate selection's `base ∪ set`
                    let union = Overlay::union(&indexed, &set_refs);
                    let whole = base.union(&set.iter().cloned().collect());
                    assert_eq!(union.materialize(), whole, "round {round}");
                    overlays.push(union);
                }
                for overlay in &overlays {
                    // the materialized configuration, looked up as a plain
                    // one is: indexed whole, its projection the filter the
                    // lookups used before overlays
                    let whole = overlay.materialize();
                    let whole_indexed = Indexed::new(&whole, None);
                    for i in 0..items.len() {
                        let relevance = eval.relevance_of(i);
                        let projection = overlay.projection(relevance);
                        let got =
                            lookup(fingerprints(relevance, overlay), projection.handles().iter());
                        let want = lookup(
                            fingerprints(relevance, &Overlay::of(&whole_indexed)),
                            whole.handles().iter().filter(|h| relevance.admits(h)),
                        );
                        assert_eq!(got, want, "round {round}, {alignment:?}, statement {i}");
                        compared += 1;
                        ordered += usize::from(got.2.values().any(|on| on.len() > 1));
                        with_views += usize::from(!got.3.is_empty());
                    }
                }
            }
        }
        for seen in [unsettled, shared, ordered, with_views] {
            assert!(seen > 200, "{compared} {unsettled} {shared} {ordered} {with_views}");
        }
    }
}
