//! Configurations: sets of physical design structures.

use crate::partitioning::RangePartitioning;
use crate::sizing::{structure_bytes, SizingInfo};
use crate::{Index, IndexKind, MaterializedView, PhysicalStructure};
use dta_catalog::Catalog;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Why a configuration is not valid (§6.2: user-specified configurations
/// must be *valid*, i.e. realizable in the database).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidityError {
    /// Two different clusterings specified for one table — the paper's
    /// own example of an invalid configuration.
    MultipleClusterings { database: String, table: String },
    /// Two different table partitionings for one table.
    MultipleTablePartitionings { database: String, table: String },
    /// The structure references a database missing from the catalog.
    UnknownDatabase(String),
    /// The structure references a table missing from the catalog.
    UnknownTable { database: String, table: String },
    /// The structure references a column missing from its table.
    UnknownColumn { database: String, table: String, column: String },
    /// The structure is internally malformed (empty keys, duplicate
    /// columns, disconnected view...).
    Malformed(String),
    /// Identical structure appears twice.
    Duplicate(String),
}

impl std::fmt::Display for ValidityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidityError::MultipleClusterings { database, table } => {
                write!(f, "more than one clustering on {database}.{table}")
            }
            ValidityError::MultipleTablePartitionings { database, table } => {
                write!(f, "more than one table partitioning on {database}.{table}")
            }
            ValidityError::UnknownDatabase(d) => write!(f, "unknown database {d}"),
            ValidityError::UnknownTable { database, table } => {
                write!(f, "unknown table {database}.{table}")
            }
            ValidityError::UnknownColumn { database, table, column } => {
                write!(f, "unknown column {database}.{table}.{column}")
            }
            ValidityError::Malformed(s) => write!(f, "malformed structure {s}"),
            ValidityError::Duplicate(s) => write!(f, "duplicate structure {s}"),
        }
    }
}

/// Integer key of a `(database, table)` pair. Structures carry the key
/// of the table they are attached to, so "is this structure on one of
/// these tables" is an integer comparison. Keys stand in for the names
/// wherever a configuration is searched by table — the lookups below and
/// the cost cache's relevance test — so two tables are told apart only
/// if their 64-bit SipHashes differ: the odds the cost cache already
/// accepts for its fingerprints.
pub fn table_key(database: &str, table: &str) -> u64 {
    content_hash(&(database, table))
}

/// Integer key of a database name: what [`Configuration::views_in`]
/// selects a database's views by.
pub fn database_key(database: &str) -> u64 {
    content_hash(&database)
}

fn content_hash(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// A set of column names in 64 bits: each name sets one bit, picked by
/// a hash of its bytes. Masks of two sets that share a name intersect;
/// masks of two disjoint sets may intersect too, when two names pick the
/// same bit. So "the masks are disjoint" proves "no column in common",
/// and a test built on it can only err towards "may have one".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnMask(u64);

impl ColumnMask {
    /// No column.
    pub const NONE: Self = Self(0);
    /// Every column: intersects every mask but [`Self::NONE`].
    pub const ALL: Self = Self(u64::MAX);

    /// The mask of `columns`.
    pub fn of<S: AsRef<str>>(columns: impl IntoIterator<Item = S>) -> Self {
        columns.into_iter().fold(Self::NONE, |mask, c| mask.union(Self::bit(c.as_ref())))
    }

    /// The one bit `column` sets: FNV-1a over its bytes, then a
    /// multiply-xorshift so that the top six bits pick it.
    fn bit(column: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in column.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        Self(1 << (h >> 58))
    }

    /// Both sets' columns.
    pub fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// A mask of the columns in both sets, and perhaps of a few more.
    pub fn intersection(self, other: Self) -> Self {
        Self(self.0 & other.0)
    }

    /// Whether the sets may share a column (certainly do not, if false).
    #[inline]
    pub fn intersects(self, other: Self) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether this set may hold every column of `other` (certainly
    /// does not, if false).
    #[inline]
    pub fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }
}

/// How a statement uses one table, as far as it decides whether a
/// non-clustered index there can change the statement's plan. The
/// planner reads such an index in three ways only: it seeks or probes it
/// when the index leads with a seekable sarg column or a join column, it
/// scans it when the index covers a binding, and it maintains it when
/// the statement modifies a column the index holds. An index that may do
/// none of these is never read, so every mask errs towards "may".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnUse {
    /// Columns a seek or an index-nested-loop probe can lead with: the
    /// seekable sarg and join columns of every binding of the table.
    pub leading: ColumnMask,
    /// Columns an index must hold to cover any binding of the table: the
    /// columns every binding requires. [`ColumnMask::NONE`] when some
    /// binding requires none — then every index covers it.
    pub covering: ColumnMask,
    /// Columns whose indexes the statement maintains: an UPDATE's SET
    /// columns.
    pub maintained: ColumnMask,
}

impl ColumnUse {
    /// Every non-clustered index on the table can matter: an index that
    /// must hold no column to cover holds it.
    pub const ALL: Self = Self {
        leading: ColumnMask::NONE,
        covering: ColumnMask::NONE,
        maintained: ColumnMask::NONE,
    };

    /// The use of a table by both this and `other`'s bindings.
    pub fn and(self, other: Self) -> Self {
        Self {
            leading: self.leading.union(other.leading),
            covering: self.covering.intersection(other.covering),
            maintained: self.maintained.union(other.maintained),
        }
    }
}

/// The tables a structure can matter to, as [`table_key`]s.
#[derive(Debug, Clone)]
enum Scope {
    /// An index or heap partitioning: its own table.
    Table(u64),
    /// A materialized view.
    View(Arc<ViewKeys>),
}

#[derive(Debug)]
struct ViewKeys {
    /// Hash of the database name.
    database: u64,
    /// Every base table the view joins.
    tables: Vec<u64>,
}

/// A structure as a [`Configuration`] holds it: shared, with its content
/// hash, table keys and column masks computed once, when it is wrapped,
/// and its name the first time it is asked for. Cloning copies a
/// pointer; comparing looks at the hashes before the contents. A what-if
/// plan holds the handles of the structures it reads and maintains, so
/// planning copies no structure and names none.
#[derive(Clone)]
pub struct StructureHandle {
    shared: Arc<Shared>,
    hash: u64,
    scope: Scope,
}

/// What every copy of a handle points to. The column masks live here,
/// not in the handle: a relevance test reads them only for a structure
/// on one of the statement's tables, while configurations copy and
/// index handles, which a smaller handle keeps cheap.
#[derive(Debug)]
struct Shared {
    structure: PhysicalStructure,
    /// A non-clustered index's leading key column; [`ColumnMask::NONE`]
    /// for any other structure.
    lead: ColumnMask,
    /// A non-clustered index's key, included and partitioning columns;
    /// [`ColumnMask::ALL`] for any other structure, which therefore
    /// "covers" every use of its table and is relevant to it. (The
    /// planner never counts a partitioning column towards a cover; doing
    /// so here can only keep an index relevant.)
    columns: ColumnMask,
    /// [`PhysicalStructure::name`], made on first use.
    name: OnceLock<Arc<str>>,
}

impl StructureHandle {
    /// Wrap a structure, hashing it.
    pub fn new(structure: PhysicalStructure) -> Self {
        let (mut lead, mut columns) = (ColumnMask::NONE, ColumnMask::ALL);
        let scope = match &structure {
            PhysicalStructure::Index(i) => {
                if i.kind == IndexKind::NonClustered {
                    lead = ColumnMask::of(i.key_columns.first());
                    columns = ColumnMask::of(
                        i.leaf_columns().chain(i.partitioning.as_ref().map(|p| &p.column)),
                    );
                }
                Scope::Table(table_key(&i.database, &i.table))
            }
            PhysicalStructure::TablePartitioning { database, table, .. } => {
                Scope::Table(table_key(database, table))
            }
            PhysicalStructure::View(v) => Scope::View(Arc::new(ViewKeys {
                database: database_key(&v.database),
                tables: v.tables.iter().map(|t| table_key(&v.database, t)).collect(),
            })),
        };
        Self {
            hash: content_hash(&structure),
            shared: Arc::new(Shared { structure, lead, columns, name: OnceLock::new() }),
            scope,
        }
    }

    /// The structure itself.
    #[inline]
    pub fn structure(&self) -> &PhysicalStructure {
        &self.shared.structure
    }

    /// Whether the two are copies of one handle (not merely equal).
    #[inline]
    pub fn ptr_eq(this: &Self, other: &Self) -> bool {
        Arc::ptr_eq(&this.shared, &other.shared)
    }

    /// The structure if it is an index.
    #[inline]
    pub fn as_index(&self) -> Option<&Index> {
        match self.structure() {
            PhysicalStructure::Index(i) => Some(i),
            _ => None,
        }
    }

    /// The structure if it is a materialized view.
    #[inline]
    pub fn as_view(&self) -> Option<&MaterializedView> {
        match self.structure() {
            PhysicalStructure::View(v) => Some(v),
            _ => None,
        }
    }

    /// [`PhysicalStructure::name`], formatted on the first call and
    /// shared by every copy of the handle from then on: a clone of the
    /// result copies a pointer.
    pub fn name(&self) -> &Arc<str> {
        self.shared.name.get_or_init(|| Arc::from(self.structure().name()))
    }

    /// `DefaultHasher` hash of the structure's contents. The cost cache
    /// builds its fingerprints from these values and checkpoints store
    /// the fingerprints, so how it is computed must not change: a
    /// fingerprint of a given set of structures keeps its value whatever
    /// rule decides which structures a statement's set holds.
    #[inline]
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Key of the table an index or heap partitioning is attached to;
    /// `None` for a view.
    #[inline]
    pub fn table_key(&self) -> Option<u64> {
        match self.scope {
            Scope::Table(k) => Some(k),
            Scope::View(_) => None,
        }
    }

    /// Whether the structure may affect a statement that uses its tables
    /// as the `(`[`table_key`]`, use)` pairs of `tables` say: it is a view
    /// joining one of them, or attached to one of them and [`Self::serves`]
    /// the statement's use of it. [`ColumnUse::ALL`] makes every
    /// structure on its table relevant. Whether the statement can use a
    /// view that passes is not decided here: that takes the statement's
    /// binding (`dta_optimizer::PreparedStatement::view_use`).
    #[inline]
    pub fn relevant_to(&self, tables: &[(u64, ColumnUse)]) -> bool {
        match &self.scope {
            // a table has one entry: stop at it, relevant or not
            Scope::Table(k) => {
                tables.iter().find(|(t, _)| t == k).is_some_and(|(_, used)| self.serves(*used))
            }
            Scope::View(v) => v.tables.iter().any(|k| tables.iter().any(|(t, _)| t == k)),
        }
    }

    /// Whether the structure, attached to a table a statement uses as
    /// `used` says, can affect the statement: anything but a
    /// non-clustered index always can, and a non-clustered index when it
    /// may lead a seek or probe, cover a binding or need maintaining.
    #[inline]
    pub fn serves(&self, used: ColumnUse) -> bool {
        let Shared { lead, columns, .. } = &*self.shared;
        used.leading.intersects(*lead)
            || columns.contains(used.covering)
            || used.maintained.intersects(*columns)
    }
}

/// The structure alone: what the handle memoizes is derived from it.
impl std::fmt::Debug for StructureHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("StructureHandle").field(self.structure()).finish()
    }
}

impl From<PhysicalStructure> for StructureHandle {
    fn from(structure: PhysicalStructure) -> Self {
        Self::new(structure)
    }
}

impl PartialEq for StructureHandle {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.shared, &other.shared)
                || self.shared.structure == other.shared.structure)
    }
}

impl Eq for StructureHandle {}

/// A physical database design: a set of structures, kept in insertion
/// order. The structures are held as [`StructureHandle`]s, so copying a
/// configuration, or building one out of another's structures, copies
/// pointers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Configuration {
    entries: Vec<StructureHandle>,
}

impl Configuration {
    /// Empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from structures, de-duplicating.
    pub fn from_structures(structures: impl IntoIterator<Item = PhysicalStructure>) -> Self {
        let mut c = Self::new();
        for s in structures {
            c.add(s);
        }
        c
    }

    /// Add a structure; returns false if an identical one is present.
    pub fn add(&mut self, s: PhysicalStructure) -> bool {
        self.add_shared(StructureHandle::new(s))
    }

    /// [`Self::add`] for a structure that is already wrapped: nothing is
    /// hashed or copied.
    fn add_shared(&mut self, h: StructureHandle) -> bool {
        if self.entries.contains(&h) {
            false
        } else {
            self.entries.push(h);
            true
        }
    }

    /// Remove a structure; returns true if it was present.
    pub fn remove(&mut self, s: &PhysicalStructure) -> bool {
        match self.position(s) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, s: &PhysicalStructure) -> bool {
        self.position(s).is_some()
    }

    fn position(&self, s: &PhysicalStructure) -> Option<usize> {
        let hash = content_hash(s);
        self.entries.iter().position(|e| e.hash == hash && e.structure() == s)
    }

    /// Number of structures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no structures.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate the structures.
    pub fn iter(&self) -> impl Iterator<Item = &PhysicalStructure> {
        self.entries.iter().map(StructureHandle::structure)
    }

    /// The structures as shared handles, in the same order as
    /// [`Self::iter`].
    #[inline]
    pub fn handles(&self) -> &[StructureHandle] {
        &self.entries
    }

    /// Union of two configurations.
    pub fn union(&self, other: &Configuration) -> Configuration {
        let mut c = self.clone();
        c.extend(other.handles().iter().cloned());
        c
    }

    /// The structures `keep` selects, in order.
    pub fn project(&self, mut keep: impl FnMut(&StructureHandle) -> bool) -> Configuration {
        Configuration { entries: self.entries.iter().filter(|h| keep(h)).cloned().collect() }
    }

    /// The handles attached to the table with this [`table_key`].
    fn on_table(&self, key: u64) -> impl Iterator<Item = &StructureHandle> {
        self.entries.iter().filter(move |e| matches!(e.scope, Scope::Table(k) if k == key))
    }

    /// All indexes on a table.
    pub fn indexes_on(&self, database: &str, table: &str) -> impl Iterator<Item = &Index> {
        self.indexes_on_key(table_key(database, table))
    }

    /// [`Self::indexes_on`] for a caller that holds the table's
    /// [`table_key`]: no name is hashed.
    pub fn indexes_on_key(&self, key: u64) -> impl Iterator<Item = &Index> {
        self.index_handles_on_key(key).map(|(_, i)| i)
    }

    /// [`Self::indexes_on_key`], each index with the handle that holds it.
    pub fn index_handles_on_key(
        &self,
        key: u64,
    ) -> impl Iterator<Item = (&StructureHandle, &Index)> {
        self.on_table(key).filter_map(|e| e.as_index().map(|i| (e, i)))
    }

    /// The clustered index on a table, if any.
    pub fn clustered_index(&self, database: &str, table: &str) -> Option<&Index> {
        self.clustered_index_key(table_key(database, table))
    }

    /// [`Self::clustered_index`] by [`table_key`].
    pub fn clustered_index_key(&self, key: u64) -> Option<&Index> {
        self.indexes_on_key(key).find(|i| i.kind == IndexKind::Clustered)
    }

    /// Explicit heap partitioning of a table, if any.
    pub fn table_partitioning(&self, database: &str, table: &str) -> Option<&RangePartitioning> {
        self.table_partitioning_key(table_key(database, table))
    }

    fn table_partitioning_key(&self, key: u64) -> Option<&RangePartitioning> {
        self.on_table(key).find_map(|e| match e.structure() {
            PhysicalStructure::TablePartitioning { scheme, .. } => Some(scheme),
            _ => None,
        })
    }

    /// The partitioning the table's *data* actually has: the clustered
    /// index's partitioning if a clustered index exists, else the heap
    /// partitioning.
    pub fn effective_table_partitioning(
        &self,
        database: &str,
        table: &str,
    ) -> Option<&RangePartitioning> {
        self.effective_table_partitioning_key(table_key(database, table))
    }

    /// [`Self::effective_table_partitioning`] by [`table_key`].
    pub fn effective_table_partitioning_key(&self, key: u64) -> Option<&RangePartitioning> {
        match self.clustered_index_key(key) {
            Some(ci) => ci.partitioning.as_ref(),
            None => self.table_partitioning_key(key),
        }
    }

    /// All materialized views in a database.
    pub fn views(&self, database: &str) -> impl Iterator<Item = &MaterializedView> {
        self.views_in(database_key(database))
    }

    /// [`Self::views`] by [`database_key`].
    pub fn views_in(&self, database_key: u64) -> impl Iterator<Item = &MaterializedView> {
        self.view_handles_in(database_key).map(|(_, v)| v)
    }

    /// [`Self::views_in`], each view with the handle that holds it.
    pub fn view_handles_in(
        &self,
        database_key: u64,
    ) -> impl Iterator<Item = (&StructureHandle, &MaterializedView)> {
        self.entries.iter().filter_map(move |e| match (&e.scope, e.structure()) {
            (Scope::View(keys), PhysicalStructure::View(v)) if keys.database == database_key => {
                Some((e, v))
            }
            _ => None,
        })
    }

    /// Validate against a catalog (existence + well-formedness +
    /// single-clustering / single-partitioning rules). Returns all
    /// violations found.
    pub fn validate(&self, catalog: &Catalog) -> Vec<ValidityError> {
        let mut errors = Vec::new();
        let mut seen: Vec<&PhysicalStructure> = Vec::new();
        for s in self.iter() {
            if seen.contains(&s) {
                errors.push(ValidityError::Duplicate(s.name()));
            }
            seen.push(s);
        }

        let check_column = |errors: &mut Vec<ValidityError>, db: &str, table: &str, col: &str| {
            let Some(d) = catalog.database(db) else {
                errors.push(ValidityError::UnknownDatabase(db.to_string()));
                return;
            };
            let Some(t) = d.table(table) else {
                errors.push(ValidityError::UnknownTable {
                    database: db.to_string(),
                    table: table.to_string(),
                });
                return;
            };
            if !t.has_column(col) {
                errors.push(ValidityError::UnknownColumn {
                    database: db.to_string(),
                    table: table.to_string(),
                    column: col.to_string(),
                });
            }
        };

        for s in self.iter() {
            match s {
                PhysicalStructure::Index(ix) => {
                    if !ix.is_well_formed() {
                        errors.push(ValidityError::Malformed(ix.name()));
                    }
                    for c in ix.leaf_columns() {
                        check_column(&mut errors, &ix.database, &ix.table, c);
                    }
                    if let Some(p) = &ix.partitioning {
                        check_column(&mut errors, &ix.database, &ix.table, &p.column);
                    }
                }
                PhysicalStructure::View(v) => {
                    if !v.is_well_formed() {
                        errors.push(ValidityError::Malformed(v.name()));
                    }
                    for qc in v.group_by.iter().chain(v.projected.iter()) {
                        check_column(&mut errors, &v.database, &qc.table, &qc.column);
                    }
                    for jp in &v.join_pairs {
                        check_column(&mut errors, &v.database, &jp.left.table, &jp.left.column);
                        check_column(&mut errors, &v.database, &jp.right.table, &jp.right.column);
                    }
                }
                PhysicalStructure::TablePartitioning { database, table, scheme } => {
                    check_column(&mut errors, database, table, &scheme.column);
                }
            }
        }

        errors.extend(self.table_conflicts());
        errors
    }

    /// The distinct `(database, table)` pairs structures are attached to,
    /// in name order.
    pub fn tables(&self) -> Vec<(&str, &str)> {
        let mut tables: Vec<(&str, &str)> =
            self.iter().filter_map(|s| s.table().map(|t| (s.database(), t))).collect();
        tables.sort_unstable();
        tables.dedup();
        tables
    }

    /// The one-clustering / one-heap-partitioning rule: an error for each
    /// table that breaks it, in table order.
    pub fn table_conflicts(&self) -> Vec<ValidityError> {
        let mut errors = Vec::new();
        for (db, t) in self.tables() {
            if self.indexes_on(db, t).filter(|i| i.kind == IndexKind::Clustered).count() > 1 {
                errors.push(ValidityError::MultipleClusterings {
                    database: db.to_string(),
                    table: t.to_string(),
                });
            }
            let partitionings = self
                .on_table(table_key(db, t))
                .filter(|e| matches!(e.structure(), PhysicalStructure::TablePartitioning { .. }))
                .count();
            if partitionings > 1 {
                errors.push(ValidityError::MultipleTablePartitionings {
                    database: db.to_string(),
                    table: t.to_string(),
                });
            }
        }
        errors
    }

    /// The §4 alignment predicate: for every table that any structure in
    /// the configuration touches, the table and all of its indexes are
    /// partitioned identically (including "all unpartitioned").
    pub fn is_aligned(&self) -> bool {
        for (db, t) in self.tables() {
            let table_part = self.effective_table_partitioning(db, t);
            for ix in self.indexes_on(db, t) {
                if ix.partitioning.as_ref() != table_part {
                    return false;
                }
            }
            // a heap partitioning must agree with the clustered index too
            if let (Some(hp), Some(ci)) =
                (self.table_partitioning(db, t), self.clustered_index(db, t))
            {
                if ci.partitioning.as_ref() != Some(hp) {
                    return false;
                }
            }
        }
        true
    }

    /// Total incremental storage in bytes.
    pub fn total_bytes(&self, info: &dyn SizingInfo) -> u64 {
        self.iter().map(|s| structure_bytes(s, info)).sum()
    }

    /// Structures present in `self` but not in `other`.
    pub fn difference(&self, other: &Configuration) -> Vec<&PhysicalStructure> {
        self.entries
            .iter()
            .filter(|e| !other.entries.contains(e))
            .map(StructureHandle::structure)
            .collect()
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Configuration ({} structures):", self.len())?;
        for s in self.iter() {
            writeln!(f, "  - {}", s.name())?;
        }
        Ok(())
    }
}

impl FromIterator<PhysicalStructure> for Configuration {
    fn from_iter<T: IntoIterator<Item = PhysicalStructure>>(iter: T) -> Self {
        Self::from_structures(iter)
    }
}

/// Built from shared structures, de-duplicating: nothing is hashed or
/// copied.
impl FromIterator<StructureHandle> for Configuration {
    fn from_iter<T: IntoIterator<Item = StructureHandle>>(iter: T) -> Self {
        let mut c = Self::new();
        c.extend(iter);
        c
    }
}

/// Shared structures added as [`Configuration::add`] adds: a repeat is
/// dropped, and nothing is hashed or copied.
impl Extend<StructureHandle> for Configuration {
    fn extend<T: IntoIterator<Item = StructureHandle>>(&mut self, iter: T) {
        for h in iter {
            self.add_shared(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_catalog::{Column, ColumnType, Database, Table, Value};

    fn catalog() -> Catalog {
        let mut db = Database::new("db");
        db.add_table(Table::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
                Column::new("x", ColumnType::Int),
            ],
        ))
        .unwrap();
        let mut cat = Catalog::new();
        cat.add_database(db).unwrap();
        cat
    }

    fn part(col: &str) -> RangePartitioning {
        RangePartitioning::new(col, vec![Value::Int(10), Value::Int(20)])
    }

    #[test]
    fn add_remove_dedup() {
        let mut c = Configuration::new();
        let s = PhysicalStructure::Index(Index::non_clustered("db", "t", &["a"], &[]));
        assert!(c.add(s.clone()));
        assert!(!c.add(s.clone()));
        assert_eq!(c.len(), 1);
        assert!(c.remove(&s));
        assert!(!c.remove(&s));
        assert!(c.is_empty());
    }

    #[test]
    fn validity_multiple_clusterings() {
        let c = Configuration::from_structures([
            PhysicalStructure::Index(Index::clustered("db", "t", &["a"])),
            PhysicalStructure::Index(Index::clustered("db", "t", &["b"])),
        ]);
        let errs = c.validate(&catalog());
        assert!(errs.iter().any(|e| matches!(e, ValidityError::MultipleClusterings { .. })));
    }

    #[test]
    fn validity_unknown_objects() {
        let c = Configuration::from_structures([
            PhysicalStructure::Index(Index::non_clustered("db", "t", &["zzz"], &[])),
            PhysicalStructure::Index(Index::non_clustered("db", "missing", &["a"], &[])),
            PhysicalStructure::Index(Index::non_clustered("nodb", "t", &["a"], &[])),
        ]);
        let errs = c.validate(&catalog());
        assert!(errs.iter().any(|e| matches!(e, ValidityError::UnknownColumn { .. })));
        assert!(errs.iter().any(|e| matches!(e, ValidityError::UnknownTable { .. })));
        assert!(errs.iter().any(|e| matches!(e, ValidityError::UnknownDatabase(_))));
    }

    #[test]
    fn valid_config_passes() {
        let c = Configuration::from_structures([
            PhysicalStructure::Index(Index::clustered("db", "t", &["a"])),
            PhysicalStructure::Index(Index::non_clustered("db", "t", &["x"], &["b"])),
            PhysicalStructure::TablePartitioning {
                database: "db".into(),
                table: "t".into(),
                scheme: part("x"),
            },
        ]);
        assert!(c.validate(&catalog()).is_empty());
    }

    #[test]
    fn alignment_checks() {
        // aligned: table partitioned on x, all indexes partitioned on x
        let aligned = Configuration::from_structures([
            PhysicalStructure::TablePartitioning {
                database: "db".into(),
                table: "t".into(),
                scheme: part("x"),
            },
            PhysicalStructure::Index(
                Index::non_clustered("db", "t", &["a"], &[]).partitioned(part("x")),
            ),
        ]);
        assert!(aligned.is_aligned());

        // not aligned: index unpartitioned while table is partitioned
        let misaligned = Configuration::from_structures([
            PhysicalStructure::TablePartitioning {
                database: "db".into(),
                table: "t".into(),
                scheme: part("x"),
            },
            PhysicalStructure::Index(Index::non_clustered("db", "t", &["a"], &[])),
        ]);
        assert!(!misaligned.is_aligned());

        // unpartitioned everything is trivially aligned
        let plain = Configuration::from_structures([PhysicalStructure::Index(
            Index::non_clustered("db", "t", &["a"], &[]),
        )]);
        assert!(plain.is_aligned());

        // clustered index partitioning defines the table's partitioning
        let via_clustered = Configuration::from_structures([
            PhysicalStructure::Index(Index::clustered("db", "t", &["a"]).partitioned(part("x"))),
            PhysicalStructure::Index(
                Index::non_clustered("db", "t", &["b"], &[]).partitioned(part("x")),
            ),
        ]);
        assert!(via_clustered.is_aligned());
    }

    #[test]
    fn effective_partitioning_prefers_clustered() {
        let c = Configuration::from_structures([
            PhysicalStructure::Index(Index::clustered("db", "t", &["a"]).partitioned(part("a"))),
            PhysicalStructure::TablePartitioning {
                database: "db".into(),
                table: "t".into(),
                scheme: part("x"),
            },
        ]);
        assert_eq!(c.effective_table_partitioning("db", "t").unwrap().column, "a");
        // and that combination is not aligned (heap partitioning disagrees)
        assert!(!c.is_aligned());
    }

    #[test]
    fn union_and_difference() {
        let a = Configuration::from_structures([PhysicalStructure::Index(Index::non_clustered(
            "db",
            "t",
            &["a"],
            &[],
        ))]);
        let b = Configuration::from_structures([PhysicalStructure::Index(Index::non_clustered(
            "db",
            "t",
            &["b"],
            &[],
        ))]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert_eq!(u.difference(&a).len(), 1);
        assert_eq!(a.difference(&u).len(), 0);
    }

    /// A mixed bag: indexes on two tables of two databases, a heap
    /// partitioning, and views in both databases.
    fn assorted() -> Vec<PhysicalStructure> {
        let view = |db: &str, tables: &[&str]| {
            PhysicalStructure::View(MaterializedView::grouped(
                db,
                tables,
                Vec::new(),
                vec![crate::QualifiedColumn::new(tables[0], "a")],
                vec![crate::ViewAggregate::count_star()],
            ))
        };
        vec![
            PhysicalStructure::Index(Index::non_clustered("db", "t", &["a"], &[])),
            view("db", &["t"]),
            PhysicalStructure::Index(Index::clustered("db", "u", &["a"])),
            PhysicalStructure::Index(Index::non_clustered("other", "t", &["a"], &[])),
            PhysicalStructure::TablePartitioning {
                database: "db".into(),
                table: "t".into(),
                scheme: part("x"),
            },
            view("other", &["t", "u"]),
            PhysicalStructure::Index(Index::non_clustered("db", "t", &["b"], &["a"])),
        ]
    }

    #[test]
    fn equality_is_by_value_and_order_whether_or_not_structures_are_shared() {
        let original = Configuration::from_structures(assorted());
        // shares every handle with `original`
        let shared = original.clone();
        // shares nothing: every structure wrapped afresh
        let rebuilt = Configuration::from_structures(assorted());
        assert_eq!(original, shared);
        assert_eq!(original, rebuilt);

        // nothing is ignored: order and every field count
        let mut reversed = assorted();
        reversed.reverse();
        assert_ne!(original, Configuration::from_structures(reversed));
        let mut altered = assorted();
        altered[0] =
            PhysicalStructure::Index(Index::non_clustered("db", "t", &["a"], &[]).constraint());
        assert_ne!(original, Configuration::from_structures(altered));
        let mut shorter = original.clone();
        assert!(shorter.remove(&assorted()[6]));
        assert_ne!(original, shorter);
    }

    #[test]
    fn add_de_duplicates_by_value_and_remove_keeps_order() {
        let mut c = Configuration::from_structures(assorted());
        for s in assorted() {
            assert!(c.contains(&s));
            assert!(!c.add(s.clone()), "an equal structure, separately built, is a duplicate");
            assert!(!c.add_shared(StructureHandle::new(s)));
        }
        assert_eq!(c.len(), assorted().len());

        assert!(c.remove(&assorted()[2]));
        let mut expected = assorted();
        expected.remove(2);
        assert_eq!(c.iter().cloned().collect::<Vec<_>>(), expected);
        assert!(!c.contains(&assorted()[2]));
    }

    #[test]
    fn table_lookups_match_a_naive_filter() {
        let c = Configuration::from_structures(assorted());
        for (db, t) in [("db", "t"), ("db", "u"), ("other", "t"), ("other", "u"), ("db", "none")] {
            let naive: Vec<&Index> = c
                .iter()
                .filter_map(|s| match s {
                    PhysicalStructure::Index(i) if i.database == db && i.table == t => Some(i),
                    _ => None,
                })
                .collect();
            assert_eq!(c.indexes_on(db, t).collect::<Vec<_>>(), naive, "{db}.{t}");
            assert_eq!(
                c.clustered_index(db, t),
                naive.iter().copied().find(|i| i.kind == IndexKind::Clustered)
            );
            let naive_partitioning = c.iter().find_map(|s| match s {
                PhysicalStructure::TablePartitioning { database, table, scheme }
                    if database == db && table == t =>
                {
                    Some(scheme)
                }
                _ => None,
            });
            assert_eq!(c.table_partitioning(db, t), naive_partitioning);
        }
        for db in ["db", "other", "none"] {
            let naive: Vec<&MaterializedView> = c
                .iter()
                .filter_map(|s| match s {
                    PhysicalStructure::View(v) if v.database == db => Some(v),
                    _ => None,
                })
                .collect();
            assert_eq!(c.views(db).collect::<Vec<_>>(), naive, "{db}");
        }
        assert_eq!(c.tables(), [("db", "t"), ("db", "u"), ("other", "t")]);
    }

    #[test]
    fn every_way_of_building_gives_the_same_configuration() {
        let built = Configuration::from_structures(assorted());
        let collected: Configuration = assorted().into_iter().collect();
        // overlapping operands: union de-duplicates
        let front = Configuration::from_structures(assorted().into_iter().take(4));
        let back = Configuration::from_structures(assorted().into_iter().skip(2));
        assert_eq!(built.len(), assorted().len());
        assert_eq!(built, collected);
        assert_eq!(built, front.union(&back));

        // projection keeps order
        let on_t = table_key("db", "t");
        let naive: Vec<PhysicalStructure> = assorted()
            .into_iter()
            .filter(|s| match s {
                PhysicalStructure::View(v) => v.database == "db" && v.tables.contains(&"t".into()),
                s => s.database() == "db" && s.table() == Some("t"),
            })
            .collect();
        let projected = built.project(|h| h.relevant_to(&[(on_t, ColumnUse::ALL)]));
        assert_eq!(projected.iter().cloned().collect::<Vec<_>>(), naive);
        let shared: Configuration =
            built.handles().iter().chain(front.handles()).cloned().collect();
        assert_eq!(shared, built);
    }

    #[test]
    fn a_non_clustered_index_is_relevant_to_the_uses_it_may_serve() {
        let use_of = |leading: &[&str], covering: &[&str], maintained: &[&str]| ColumnUse {
            leading: ColumnMask::of(leading),
            covering: ColumnMask::of(covering),
            maintained: ColumnMask::of(maintained),
        };
        let relevant = |s: &PhysicalStructure, used: ColumnUse| {
            StructureHandle::new(s.clone()).relevant_to(&[(table_key("db", "t"), used)])
        };
        let nc = PhysicalStructure::Index(
            Index::non_clustered("db", "t", &["a", "b"], &["c"]).partitioned(part("x")),
        );
        // sought or probed on its leading key only
        assert!(relevant(&nc, use_of(&["a"], &["q"], &[])));
        assert!(!relevant(&nc, use_of(&["b", "c", "x"], &["q"], &[])));
        // covering what a binding requires, whatever the order
        assert!(relevant(&nc, use_of(&[], &["c", "b"], &[])));
        assert!(!relevant(&nc, use_of(&[], &["c", "q"], &[])));
        // maintained for any column it holds, the partitioning one too
        for set in ["a", "c", "x"] {
            assert!(relevant(&nc, use_of(&[], &["q"], &[set])), "SET {set}");
        }
        assert!(!relevant(&nc, use_of(&["q"], &["q"], &["q"])), "q shares no bit with a, b, c, x");
        assert!(relevant(&nc, ColumnUse::ALL));
        // every other structure on the table serves every use
        let unusable = use_of(&["q"], &["q"], &[]);
        let others = assorted().into_iter().filter(|s| match s {
            PhysicalStructure::Index(i) => i.kind == IndexKind::Clustered,
            _ => true,
        });
        for s in others.filter(|s| s.table().is_none_or(|t| t == "t") && s.database() == "db") {
            assert!(relevant(&s, unusable), "{s}");
        }
        // and nothing off the statement's tables is relevant
        let elsewhere = PhysicalStructure::Index(Index::non_clustered("db", "u", &["q"], &[]));
        assert!(!relevant(&elsewhere, ColumnUse::ALL));
    }

    #[test]
    fn column_masks_are_sets() {
        let (a, b) = (ColumnMask::of(["a"]), ColumnMask::of(["b"]));
        assert_eq!(ColumnMask::of(["a", "b", "a"]), a.union(b));
        assert_eq!(ColumnMask::of(Vec::<String>::new()), ColumnMask::NONE);
        assert!(a.intersects(a.union(b)) && ColumnMask::ALL.intersects(b));
        assert!(!ColumnMask::NONE.intersects(ColumnMask::ALL));
        assert!(a.union(b).contains(b) && a.contains(ColumnMask::NONE));
        assert_eq!(a.union(b).intersection(a), a);
        // the use of two bindings: either may lead, both must be covered
        let one = ColumnUse { leading: a, covering: a.union(b), maintained: ColumnMask::NONE };
        let two = ColumnUse { leading: b, covering: b, maintained: a };
        assert_eq!(one.and(two), ColumnUse { leading: a.union(b), covering: b, maintained: a });
        assert_eq!(one.and(ColumnUse::ALL).covering, ColumnMask::NONE);
    }
}
