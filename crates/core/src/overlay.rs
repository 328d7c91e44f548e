//! Table-indexed configurations: how the search prices `base ∪ set`
//! without copying the base.
//!
//! Every configuration enumeration and candidate selection price is a
//! wide base — the constraint indexes plus any user-specified design
//! (§6.2) — and a handful of structures. An [`Indexed`] configuration
//! lists its structures by table key, once. An [`Overlay`] borrows such a
//! base and re-lists only the tables an evaluation changes, plus the views
//! it adds. A cost-cache lookup walks only the tables its statement
//! references (`Overlay::for_each_relevant`), so neither building an
//! overlay nor pricing through one costs anything proportional to the
//! base.
//!
//! Within a table, an overlay holds the structures in the order the whole
//! configuration holds them: base order, then set order, then a heap
//! partitioning alignment introduced. The planner breaks ties by that
//! order. Across tables the order is free, because the planner looks
//! structures up by table key. [`Overlay::materialize`] rebuilds the whole
//! configuration, in its order, where one is returned or stored.

use crate::cost::Relevance;
use dta_physical::sizing::structure_bytes;
use dta_physical::{ColumnUse, Configuration, SizingInfo, StructureHandle};
use std::borrow::Cow;

/// Where a structure stands in the whole configuration an overlay stands
/// for. Heap partitionings alignment introduced follow everything else,
/// in table-name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Slot {
    /// Position in the base.
    Base(u32),
    /// Position in the set.
    Set(u32),
    /// A heap partitioning introduced by alignment.
    Synthesized,
}

/// A structure in its slot: borrowed from the configuration indexed, or
/// owned when an evaluation brought or made it.
pub(crate) type Placed<'h> = (Slot, Cow<'h, StructureHandle>);

/// One table of an [`Indexed`] configuration.
#[derive(Debug, Clone)]
struct Table {
    key: u64,
    /// Its structures are `entries[start..end]`.
    start: usize,
    end: usize,
    /// Their bytes ([`structure_bytes`]); 0 when the index is unsized.
    bytes: u64,
}

/// A configuration indexed by table: each table's structures in
/// configuration order, found by [`dta_physical::table_key`], and the
/// views. Indexing a configuration borrows its structures: it reads each
/// handle's table key and copies no handle.
#[derive(Debug, Clone, Default)]
pub struct Indexed<'c> {
    entries: Vec<Placed<'c>>,
    /// Sorted by key.
    tables: Vec<Table>,
    views: Vec<Placed<'c>>,
}

impl<'c> Indexed<'c> {
    /// Index `config`, sizing each table's structures with `sizing` if
    /// one is given.
    pub fn new(config: &'c Configuration, sizing: Option<&dyn SizingInfo>) -> Self {
        let mut keyed = Vec::with_capacity(config.len());
        let mut indexed = Self::with_views(config);
        for (pos, h) in config.handles().iter().enumerate() {
            if let Some(key) = h.table_key() {
                keyed.push((key, Slot::Base(pos as u32), h));
            }
        }
        indexed.entries.reserve_exact(keyed.len());
        // slots are distinct, so each table keeps configuration order
        keyed.sort_unstable_by_key(|&(key, slot, _)| (key, slot));
        for (key, slot, h) in keyed {
            if indexed.tables.last().is_none_or(|t| t.key != key) {
                indexed.open(key);
            }
            indexed.push((slot, Cow::Borrowed(h)));
        }
        if let Some(sizing) = sizing {
            for t in &mut indexed.tables {
                let on = indexed.entries.get(t.start..t.end).unwrap_or_default();
                t.bytes = on.iter().map(|(_, h)| structure_bytes(h.structure(), sizing)).sum();
            }
        }
        indexed
    }

    /// Index `config` on the tables of `relevance` only, and its views:
    /// all that one statement's lookup reads, with a pass over the
    /// handles per table and nothing sorted — `relevance` is sorted by
    /// key, as a statement's is.
    pub(crate) fn for_lookup(config: &'c Configuration, relevance: &[(u64, ColumnUse)]) -> Self {
        let mut indexed = Self::with_views(config);
        indexed.tables.reserve_exact(relevance.len());
        for &(key, _) in relevance {
            indexed.open(key);
            for (pos, h) in config.handles().iter().enumerate() {
                if h.table_key() == Some(key) {
                    indexed.push((Slot::Base(pos as u32), Cow::Borrowed(h)));
                }
            }
        }
        indexed
    }

    /// `config`'s views, and no table yet.
    fn with_views(config: &'c Configuration) -> Self {
        let views = config.handles().iter().enumerate().filter(|(_, h)| h.table_key().is_none());
        let views = views.map(|(pos, h)| (Slot::Base(pos as u32), Cow::Borrowed(h))).collect();
        Self { views, ..Self::default() }
    }

    /// Start the table `key`, which sorts after every table so far: the
    /// structures pushed next are its.
    fn open(&mut self, key: u64) {
        let at = self.entries.len();
        self.tables.push(Table { key, start: at, end: at, bytes: 0 });
    }

    /// Append a structure to the table opened last.
    fn push(&mut self, placed: Placed<'c>) {
        self.entries.push(placed);
        if let Some(t) = self.tables.last_mut() {
            t.end = self.entries.len();
        }
    }

    fn table(&self, key: u64) -> Option<&Table> {
        let at = self.tables.binary_search_by_key(&key, |t| t.key).ok()?;
        self.tables.get(at)
    }

    /// Its structures on the table with this key, in configuration order;
    /// `None` when it lists no such table.
    fn listed(&self, key: u64) -> Option<&[Placed<'c>]> {
        self.table(key).map(|t| self.entries.get(t.start..t.end).unwrap_or_default())
    }

    /// Its structures on the table with this key, in configuration order.
    pub(crate) fn on(&self, key: u64) -> &[Placed<'c>] {
        self.listed(key).unwrap_or_default()
    }

    /// The bytes of its structures on the table with this key.
    pub(crate) fn bytes(&self, key: u64) -> u64 {
        self.table(key).map_or(0, |t| t.bytes)
    }

    /// Keys of the tables it lists, sorted.
    pub(crate) fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.tables.iter().map(|t| t.key)
    }
}

/// A shared [`Indexed`] base with some of its tables re-listed and some
/// views added: `base ∪ set` as an evaluation prices it.
#[derive(Debug, Clone)]
pub struct Overlay<'b> {
    base: &'b Indexed<'b>,
    /// The re-listed tables — an empty one drops the base's structures
    /// there — and the views beyond the base's.
    own: Indexed<'b>,
}

impl<'b> Overlay<'b> {
    /// The base itself.
    pub fn of(base: &'b Indexed<'b>) -> Self {
        Self { base, own: Indexed::default() }
    }

    /// `base ∪ set`, re-listing each table of `keys` — sorted, distinct,
    /// and naming every table a set member is on — as the base's
    /// structures there, then the set's, repeats dropped, and then as
    /// `edit` leaves that list. The set's views the base lacks are added,
    /// repeats dropped.
    pub(crate) fn build(
        base: &'b Indexed<'b>,
        set: &[&StructureHandle],
        keys: &[u64],
        mut edit: impl FnMut(&mut Vec<Placed<'b>>),
    ) -> Self {
        let mut own = Indexed::default();
        let mut list: Vec<Placed<'b>> = Vec::new();
        for &key in keys {
            list.clear();
            list.extend_from_slice(base.on(key));
            for (j, h) in set.iter().enumerate() {
                if h.table_key() == Some(key) && !list.iter().any(|(_, o)| **o == **h) {
                    list.push((Slot::Set(j as u32), Cow::Owned((*h).clone())));
                }
            }
            edit(&mut list);
            own.open(key);
            for placed in list.drain(..) {
                own.push(placed);
            }
        }
        for (j, h) in set.iter().enumerate() {
            let known = base.views.iter().chain(&own.views).any(|(_, v)| **v == **h);
            if h.table_key().is_none() && !known {
                own.views.push((Slot::Set(j as u32), Cow::Owned((*h).clone())));
            }
        }
        Self { base, own }
    }

    /// `base ∪ set`, re-listing the set's tables only.
    pub(crate) fn union(base: &'b Indexed<'b>, set: &[&StructureHandle]) -> Self {
        let mut keys: Vec<u64> = set.iter().filter_map(|h| h.table_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        Self::build(base, set, &keys, |_| {})
    }

    /// The base it overlays.
    pub(crate) fn base(&self) -> Overlay<'b> {
        Self::of(self.base)
    }

    /// Its structures on the table with this key, in configuration order.
    pub(crate) fn on(&self, key: u64) -> &[Placed<'b>] {
        self.own.listed(key).unwrap_or_else(|| self.base.on(key))
    }

    /// Keys of the tables it re-lists, sorted.
    pub(crate) fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.own.keys()
    }

    /// The views it holds beyond the base's, in set order.
    pub(crate) fn added_views(&self) -> &[Placed<'b>] {
        &self.own.views
    }

    /// Call `f` on each structure that can affect the statement
    /// `relevance` describes ([`Relevance::admits`]): on each of its
    /// tables, those that serve its use of it, in configuration order;
    /// then the views joining one of them that it can use, the base's
    /// before those added. A plain loop: a lookup walks this once or
    /// twice, and on small tables iterator adaptors cost more than the
    /// walk.
    pub(crate) fn for_each_relevant<'s>(
        &'s self,
        relevance: &Relevance,
        mut f: impl FnMut(&'s StructureHandle),
    ) {
        for &(key, used) in relevance.tables() {
            for (_, h) in self.on(key) {
                if h.serves(used) {
                    f(h);
                }
            }
        }
        self.for_each_relevant_view(relevance, f);
    }

    /// The views [`Self::for_each_relevant`] walks, in its order.
    pub(crate) fn for_each_relevant_view<'s>(
        &'s self,
        relevance: &Relevance,
        mut f: impl FnMut(&'s StructureHandle),
    ) {
        for (_, v) in self.base.views.iter().chain(&self.own.views) {
            if relevance.admits(v) {
                f(v);
            }
        }
    }

    /// What [`Self::for_each_relevant`] walks, as the configuration a
    /// what-if call prices.
    pub(crate) fn projection(&self, relevance: &Relevance) -> Configuration {
        let mut projected = Configuration::new();
        self.for_each_relevant(relevance, |h| projected.extend([h.clone()]));
        projected
    }

    /// The whole configuration, in its order: base order, then set order,
    /// then introduced heap partitionings in table-name order — each
    /// structure alignment rewrote in the slot of the one it replaced.
    pub fn materialize(&self) -> Configuration {
        let kept = self.base.tables.iter().filter(|t| self.own.listed(t.key).is_none());
        let kept = kept.flat_map(|t| self.base.entries.get(t.start..t.end).unwrap_or_default());
        let mut all: Vec<&Placed<'b>> =
            kept.chain(&self.own.entries).chain(&self.base.views).chain(&self.own.views).collect();
        fn name(h: &StructureHandle) -> (&str, Option<&str>) {
            (h.structure().database(), h.structure().table())
        }
        all.sort_by(|(a, ha), (b, hb)| a.cmp(b).then_with(|| name(ha).cmp(&name(hb))));
        all.into_iter().map(|(_, h)| h.clone().into_owned()).collect()
    }
}
