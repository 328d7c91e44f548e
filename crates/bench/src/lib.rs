//! Experiment implementations behind every table and figure of §7.
//!
//! Each function regenerates one experiment and returns structured rows;
//! the `report` binary pretty-prints them next to the paper's published
//! numbers. Absolute values live in simulated work units — the
//! comparison with the paper is about *shape* (who wins, by what rough
//! factor), per DESIGN.md.

pub mod experiments;
pub mod snapshot;

pub use experiments::*;

/// Percentage helper.
pub fn pct(x: f64) -> f64 {
    (x * 100.0 * 10.0).round() / 10.0
}
