//! What a what-if call allocates. A plan shares the configuration's
//! structure handles and the preparation's names, predicates and sort
//! keys, so pricing a prepared statement allocates its plan's nodes and
//! a few planning scratch lists, and listing the structures a plan uses
//! copies pointers into one list. This binary counts every allocation
//! its test thread makes (a counting global allocator) while it prices
//! the TPC-H statements under one configuration holding clustered and
//! non-clustered indexes, a partitioning and materialized views.

#![allow(clippy::disallowed_types, reason = "the counting allocator's flags are thread-local")]

use dta_optimizer::plan::{PlanNode, TableAccess};
use dta_physical::{
    Configuration, Index, JoinPair, MaterializedView, PhysicalStructure, QualifiedColumn,
    RangePartitioning, StructureHandle, ViewAggregate,
};
use dta_server::Server;
use dta_sql::AggFunc;
use dta_workload::tpch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) of a thread while its
/// `COUNTING` flag is up.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: the allocator runs while thread locals are torn down
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// The raw configuration plus indexes the TPC-H statements seek, probe
/// and cover through, a clustered index, a heap partitioning and two
/// materialized views (Q1's exact grouping, and a join view).
fn mixed_configuration(server: &Server) -> Configuration {
    let db = tpch::DB;
    let mut config = server.raw_configuration();
    let nc = |t: &str, keys: &[&str], incl: &[&str]| {
        PhysicalStructure::Index(Index::non_clustered(db, t, keys, incl))
    };
    for s in [
        nc("lineitem", &["l_shipdate"], &["l_extendedprice", "l_discount", "l_quantity"]),
        nc("lineitem", &["l_orderkey"], &[]),
        nc("lineitem", &["l_partkey"], &["l_extendedprice", "l_discount", "l_quantity"]),
        nc("lineitem", &["l_suppkey"], &[]),
        nc("orders", &["o_orderdate"], &["o_custkey", "o_orderpriority", "o_shippriority"]),
        nc("orders", &["o_custkey"], &[]),
        nc("customer", &["c_mktsegment"], &["c_custkey"]),
        nc("part", &["p_brand", "p_container"], &[]),
        nc("partsupp", &["ps_partkey"], &["ps_suppkey", "ps_supplycost"]),
        PhysicalStructure::Index(Index::clustered(db, "nation", &["n_nationkey"])),
        PhysicalStructure::TablePartitioning {
            database: db.into(),
            table: "customer".into(),
            scheme: RangePartitioning::new(
                "c_acctbal",
                vec![dta_catalog::Value::Float(0.0), dta_catalog::Value::Float(5000.0)],
            ),
        },
        PhysicalStructure::View(MaterializedView::grouped(
            db,
            &["lineitem"],
            vec![],
            vec![
                QualifiedColumn::new("lineitem", "l_returnflag"),
                QualifiedColumn::new("lineitem", "l_linestatus"),
                QualifiedColumn::new("lineitem", "l_shipdate"),
            ],
            vec![
                ViewAggregate::column(AggFunc::Sum, QualifiedColumn::new("lineitem", "l_quantity")),
                ViewAggregate::count_star(),
            ],
        )),
        PhysicalStructure::View(MaterializedView::join_view(
            db,
            &["customer", "orders"],
            vec![JoinPair::new(
                QualifiedColumn::new("customer", "c_custkey"),
                QualifiedColumn::new("orders", "o_custkey"),
            )],
            vec![QualifiedColumn::new("customer", "c_custkey")],
        )),
    ] {
        config.add(s);
    }
    config
}

/// Every index and view handle a plan reads, with the node reading it.
fn plan_handles<'p>(node: &'p PlanNode, out: &mut Vec<&'p StructureHandle>) {
    let mut access = |a: &'p TableAccess| out.extend(a.method.handle());
    match node {
        PlanNode::Access(a) => access(a),
        PlanNode::ViewScan { view, .. } => out.push(view),
        PlanNode::HashJoin { left, right, .. } => {
            plan_handles(left, out);
            plan_handles(right, out);
        }
        PlanNode::IndexNLJoin { outer, inner, .. } => {
            access(inner);
            plan_handles(outer, out);
        }
        PlanNode::HashAggregate { input, .. }
        | PlanNode::StreamAggregate { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Top { input, .. } => plan_handles(input, out),
        PlanNode::Insert { .. } => {}
        PlanNode::Update { access, .. } | PlanNode::Delete { access, .. } => {
            plan_handles(access, out)
        }
    }
}

#[test]
fn whatif_calls_share_what_their_preparation_and_configuration_hold() {
    let server = tpch::build_server(tpch::TpchScale::new(0.002, 1.0), 42);
    let config = mixed_configuration(&server);
    let prepared: Vec<_> =
        tpch::workload().items.iter().map(|i| server.prepare(&i.database, &i.statement)).collect();

    // one pass to warm what is made once per session: the handles' names
    for p in &prepared {
        server.whatif_prepared(p, &config).expect("TPC-H plans").used_names();
    }

    let (mut calls, mut planning, mut bookkeeping, mut used) = (0, 0, 0, 0);
    for p in &prepared {
        let (plan, n) = counted(|| server.whatif_prepared(p, &config));
        let plan = plan.expect("TPC-H plans");
        calls += 1;
        planning += n;

        let (names, n) = counted(|| plan.used_names());
        bookkeeping += n;
        used += names.len();
        assert_eq!(
            names.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
            plan.used_structures(),
            "{}",
            p.text()
        );

        // the plan holds the configuration's own handles, not copies
        let mut handles = Vec::new();
        plan_handles(&plan.root, &mut handles);
        for h in handles {
            let own = config.handles().iter().find(|c| *c == h).expect("planned from `config`");
            assert!(StructureHandle::ptr_eq(own, h), "{} copies {}", p.text(), h.name());
        }
    }
    assert!(used >= calls, "the configuration is used: {used} structures in {calls} plans");
    let per_call = planning as f64 / calls as f64;
    let per_miss = bookkeeping as f64 / calls as f64;
    assert!(per_call <= 25.0, "{per_call:.1} allocations per what-if call");
    assert!(per_miss <= 2.0, "{per_miss:.2} allocations to list a plan's structures");
}
