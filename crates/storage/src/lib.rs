//! Storage substrate: a columnar table store with a page model,
//! page-based sampling, and work accounting.
//!
//! The paper's experiments are reported against SQL Server's storage
//! engine. This crate provides the closest laptop-scale equivalent the
//! rest of the system needs:
//!
//! * a **page model** ([`pages_for`], [`PAGE_SIZE`]) from which the
//!   optimizer's I/O costs and DTA's storage estimates are derived;
//! * **actual row storage** (column-major) that the execution engine runs
//!   over and that statistics are sampled from;
//! * a **logical scale factor** per table so that a small materialized row
//!   set can stand in for a multi-gigabyte production table: histograms
//!   and selectivities are scale-invariant, while page counts and storage
//!   sizes are reported at the logical scale;
//! * a [`WorkCounter`] that meters pages read/written and CPU row
//!   operations — the deterministic "elapsed time" unit used by the
//!   production/test-server overhead experiment (Figure 3) and by all
//!   running-time comparisons.

// R11: no panic site in library code but an `expect("<invariant>")`
// or a reasoned `#[expect]` (DESIGN.md §8). The same block stands in
// every crate `tune()`, `Server` and the baselines reach.
#![deny(
    clippy::panic,
    clippy::unwrap_used,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod data;
pub mod work;

pub use data::{Store, TableData};
pub use work::{WorkCounter, WorkSnapshot};

/// Bytes per page, matching SQL Server's 8 KB pages.
pub const PAGE_SIZE: u64 = 8192;

/// Number of pages needed to store `rows` rows of `row_width` bytes.
/// Always at least 1 for a non-empty row count.
pub fn pages_for(rows: u64, row_width: u32) -> u64 {
    if rows == 0 {
        return 0;
    }
    let bytes = rows.saturating_mul(row_width.max(1) as u64);
    bytes.div_ceil(PAGE_SIZE).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        assert_eq!(pages_for(0, 100), 0);
        assert_eq!(pages_for(1, 100), 1);
        assert_eq!(pages_for(82, 100), 2); // 8200 bytes -> 2 pages
        assert_eq!(pages_for(81, 100), 1); // 8100 bytes -> 1 page
        assert_eq!(pages_for(1_000_000, 100), 12_208);
    }

    #[test]
    fn zero_width_rows_still_occupy_space() {
        assert_eq!(pages_for(10, 0), 1);
    }
}
