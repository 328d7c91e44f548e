//! What building a statistic allocates. The sample is sorted once as
//! positions over per-column key arrays, so a statistic allocates a fixed
//! handful of arrays whatever its sample size, plus the bounds its
//! histogram keeps: one string per bucket on a string column, none on an
//! integer one. This binary counts every allocation its test thread
//! makes (a counting global allocator) while it builds statistics on a
//! 20,000-row table.

use dta_catalog::{Column, ColumnType, Table, Value};
use dta_stats::{build_statistic, StatKey, DEFAULT_SAMPLE_FRACTION};
use dta_storage::{TableData, WorkCounter};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// 20,000 rows: two integer columns with repeats, and a string column.
fn table() -> TableData {
    let t = Table::new(
        "t",
        vec![
            Column::new("a", ColumnType::Int),
            Column::new("b", ColumnType::Int),
            Column::new("s", ColumnType::Str(12)),
        ],
    );
    let mut d = TableData::new(&t);
    for i in 0..20_000i64 {
        d.push_row(vec![
            Value::Int(i * 7919 % 5003),
            Value::Int(i % 17),
            Value::Str(format!("name-{}", i * 31 % 4001)),
        ]);
    }
    d
}

#[test]
fn a_statistic_allocates_a_fixed_handful_of_arrays() {
    let data = table();
    let work = WorkCounter::default();
    let mut rng = StdRng::seed_from_u64(7);

    let key = StatKey::new("db", "t", &["a", "b"]);
    let (ints, n) =
        counted(|| build_statistic(key, &data, DEFAULT_SAMPLE_FRACTION, &mut rng, &work));
    assert!(ints.sample_rows >= 1_000, "sample of {} rows", ints.sample_rows);
    assert!(n <= 24, "all-integer statistic made {n} allocations");

    let key = StatKey::new("db", "t", &["s", "a"]);
    let (strs, n) =
        counted(|| build_statistic(key, &data, DEFAULT_SAMPLE_FRACTION, &mut rng, &work));
    let buckets = strs.histogram.bucket_count();
    assert!(buckets > 100, "{buckets} buckets");
    assert!(n <= 24 + buckets, "string-led statistic made {n} allocations over {buckets} buckets");
}
