//! What parsing and templating a statement allocate. The lexer decides
//! keywords without lower-casing a copy, the parser moves each token's
//! name or string into the tree instead of copying it, and a signature
//! is printed straight from the statement into one string. This binary
//! counts every allocation its test thread makes (a counting global
//! allocator) over PSOFT's 6,000 statements.

#![allow(clippy::disallowed_types, reason = "the counting allocator's flags are thread-local")]

use dta_sql::{parse_statement, signature};
use dta_workload::psoft;
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

#[test]
fn parse_allocations() {
    let texts: Vec<String> =
        psoft::build(1.0, 42).workload.items.iter().map(|i| i.statement.to_string()).collect();
    assert_eq!(texts.len(), psoft::EVENTS);
    let per_statement = |n: usize| n as f64 / texts.len() as f64;

    let (parsed, n) = counted(|| {
        texts.iter().map(|t| parse_statement(t).expect("PSOFT parses")).collect::<Vec<_>>()
    });
    // the statements themselves, and the token list each parse builds
    let parse = per_statement(n - 1);
    assert!(parse <= 12.0, "{parse:.2} allocations per parse");

    let (signatures, n) = counted(|| parsed.iter().map(signature).collect::<Vec<_>>());
    let template = per_statement(n - 1);
    assert!(template <= 1.05, "{template:.2} allocations per signature");
    assert_eq!(signatures.len(), texts.len());
}
