//! Sanitizer-lite: debug-build invariant checks for the cost layer.
//!
//! clippy and `tests/source_rules.rs` enforce the *static* discipline
//! behind PR 1's byte-identical-recommendation guarantee (DESIGN.md §8),
//! and the `parking_lot` shim's ranked locks check lock order in debug
//! builds; this module is the cost layer's runtime twin. Every check is
//! gated on [`ENABLED`] (a `debug_assertions` constant), so `cargo test`
//! exercises them on every run while `--release` folds each call to
//! nothing — verified by the `compiles_away_in_release` test, which
//! observes the same constant the branches fold on.
//!
//! What the cost layer asserts (see `crate::cost`):
//!
//! * **fingerprint collisions** — the what-if cache is keyed by a 64-bit
//!   order-independent fingerprint of the projected configuration. A
//!   collision would silently price one configuration with another's
//!   cost and corrupt the search ranking. Debug builds store a second,
//!   independently-combined fingerprint per entry and re-derive it on
//!   every hit;
//! * **cost sanity** — optimizer estimates are finite and non-negative
//!   (§2.2: costs are optimizer-estimated execution costs). NaN in
//!   particular would make `det::improves` silently never adopt;
//! * **monotonic accumulation** — workload cost is a weighted sum with
//!   non-negative weights, so every partial sum is ≥ its predecessor;
//! * **shard-count consistency** — the cache has exactly one shard per
//!   workload statement; an index permutation would cross-pollute
//!   per-statement caches;
//! * **reference costs** — a statement a greedy evaluation does not look
//!   up takes a cost read earlier: its base cost, when no structure of
//!   the delta is relevant to it, or an atom's, when only that atom's
//!   delta is. The cache must hold that very cost for the evaluated
//!   configuration;
//! * **derived costs** — a cost the evaluator finishes from recorded
//!   access paths instead of a what-if call must be the cost, bit for
//!   bit, the used structures, name for name, and the access paths
//!   picked, binding for binding, that planning the same projection gives;
//! * **pruned sets** — a Phase-1 set enumeration skips against its
//!   ceiling must, priced exactly, cost no less than the floor its bound
//!   gave and than the ceiling, so that it could not displace the front.

use dta_optimizer::Picks;
use std::sync::Arc;

/// `true` in debug builds, `false` in `--release`.
///
/// Checks are written `if ENABLED { assert!(…) }`, so release builds
/// constant-fold the whole call away — no branch, no formatting code.
pub const ENABLED: bool = cfg!(debug_assertions);

#[cold]
#[inline(never)]
#[expect(
    clippy::panic,
    reason = "the debug-build sanitizer exists to crash loudly on corrupted internal state; \
              release builds compile every caller away, so this panic can never escape a \
              production tune()"
)]
fn violation(what: &str, detail: &str) -> ! {
    panic!("dta invariant violated [{what}]: {detail}");
}

/// A what-if cost must be finite and non-negative.
#[inline(always)]
pub fn check_cost(cost: f64, context: &str) {
    if ENABLED && !(cost.is_finite() && cost >= 0.0) {
        violation("cost-sanity", &format!("{context}: cost = {cost}"));
    }
}

/// Weighted accumulation with non-negative weights never decreases.
#[inline(always)]
pub fn check_monotonic_sum(previous: f64, next: f64, context: &str) {
    // `!(next >= previous)`, not `next < previous`: a NaN partial sum
    // must trip the check, and NaN fails every comparison
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if ENABLED && !(next >= previous) {
        violation(
            "monotonic-sum",
            &format!("{context}: partial sum fell from {previous} to {next}"),
        );
    }
}

/// A cache hit's secondary fingerprint must match the one stored when
/// the entry was created — otherwise two distinct projected
/// configurations collided on the primary 64-bit key.
#[inline(always)]
pub fn check_fingerprint(stored: u64, recomputed: u64, statement: usize) {
    if ENABLED && stored != recomputed {
        violation(
            "fingerprint-collision",
            &format!(
                "statement {statement}: cache hit for a different projected \
                 configuration (stored {stored:#018x}, recomputed {recomputed:#018x})"
            ),
        );
    }
}

/// A statement priced without a lookup — at its base cost, or at an
/// atom's, because the delta could not change its projection from that
/// configuration's — must have a cache entry for the evaluated
/// configuration's projection holding exactly that cost: the entry its
/// skipped lookup would have hit.
#[inline(always)]
pub fn check_reference_cost(reference: f64, cached: Option<f64>, statement: usize) {
    if ENABLED && cached.map(f64::to_bits) != Some(reference.to_bits()) {
        violation(
            "reference-cost",
            &format!(
                "statement {statement}: priced without a lookup at {reference}, \
                 but the cache holds {cached:?} for the configuration"
            ),
        );
    }
}

/// A derived cost, the structures its plan uses and the access paths it
/// picked must be exactly what planning the statement under the same
/// projection gives (`planned`; `None` when planning fails).
#[inline(always)]
pub fn check_derived(
    derived: (f64, &[Arc<str>], Picks),
    planned: Option<(f64, &[Arc<str>], Picks)>,
    statement: usize,
) {
    let bits =
        |(cost, used, picks): (f64, &[Arc<str>], Picks)| (cost.to_bits(), used.to_vec(), picks);
    if ENABLED && planned.map(bits) != Some(bits(derived)) {
        violation(
            "derived-cost",
            &format!("statement {statement}: derived {derived:?}, but planning gives {planned:?}"),
        );
    }
}

/// A set pruned by its bound must cost, as planned (`planned`), at least
/// its `floor` — the bound is sound — and at least `ceiling`, the front's
/// cost it was skipped against — it could not have displaced the front.
#[inline(always)]
pub fn check_pruned(planned: f64, floor: f64, ceiling: f64) {
    // `!(a >= b)`: a NaN must trip the check
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if ENABLED && !(planned >= floor && planned >= ceiling) {
        violation(
            "pruned-set",
            &format!(
                "a set pruned with floor {floor} against ceiling {ceiling} costs {planned} \
                 when planned"
            ),
        );
    }
}

/// The cache must hold exactly one shard per workload statement, and
/// every lookup must stay in range.
#[inline(always)]
pub fn check_shards(shards: usize, statements: usize, index: usize) {
    if ENABLED && (shards != statements || index >= shards) {
        violation(
            "shard-consistency",
            &format!("{shards} shards for {statements} statements, lookup at {index}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole sanitizer pivots on one constant; whichever profile
    /// this test runs under, the constant must equal the profile's
    /// `debug_assertions` — i.e. `cargo test --release` observes the
    /// checks compiled away, `cargo test` observes them armed.
    #[test]
    fn compiles_away_in_release() {
        assert_eq!(ENABLED, cfg!(debug_assertions));
    }

    #[test]
    fn sane_values_pass_in_any_profile() {
        check_cost(0.0, "zero");
        check_cost(123.45, "plain");
        check_monotonic_sum(1.0, 1.0, "flat");
        check_monotonic_sum(1.0, 2.0, "rising");
        check_fingerprint(42, 42, 0);
        check_reference_cost(1.5, Some(1.5), 0);
        let used: [Arc<str>; 1] = [Arc::from("ix")];
        let picks = Picks::from_slice(&[0, 1]);
        check_derived((2.5, &used, picks), Some((2.5, &used, picks)), 0);
        check_shards(3, 3, 2);
        check_pruned(5.0, 4.0, 5.0);
    }

    #[cfg(debug_assertions)]
    mod armed {
        use super::*;

        #[test]
        #[should_panic(expected = "cost-sanity")]
        fn nan_cost_trips() {
            check_cost(f64::NAN, "poisoned");
        }

        #[test]
        #[should_panic(expected = "cost-sanity")]
        fn negative_cost_trips() {
            check_cost(-1.0, "negative");
        }

        #[test]
        #[should_panic(expected = "monotonic-sum")]
        fn decreasing_sum_trips() {
            check_monotonic_sum(2.0, 1.0, "fell");
        }

        #[test]
        #[should_panic(expected = "fingerprint-collision")]
        fn collision_trips() {
            check_fingerprint(1, 2, 7);
        }

        #[test]
        #[should_panic(expected = "reference-cost")]
        fn a_reference_cost_the_cache_lacks_trips() {
            check_reference_cost(1.5, None, 4);
        }

        #[test]
        #[should_panic(expected = "derived-cost")]
        fn a_derived_cost_planning_disagrees_with_trips() {
            let (one, other): ([Arc<str>; 1], [Arc<str>; 1]) = ([Arc::from("a")], [Arc::from("b")]);
            let picks = Picks::from_slice(&[1]);
            check_derived((2.5, &one, picks), Some((2.5, &other, picks)), 4);
        }

        #[test]
        #[should_panic(expected = "derived-cost")]
        fn a_derived_pick_planning_disagrees_with_trips() {
            let used: [Arc<str>; 1] = [Arc::from("a")];
            let (derived, planned) = (Picks::from_slice(&[0, 1]), Picks::from_slice(&[0, 2]));
            check_derived((2.5, &used, derived), Some((2.5, &used, planned)), 4);
        }

        #[test]
        #[should_panic(expected = "pruned-set")]
        fn a_pruned_set_below_its_floor_trips() {
            check_pruned(3.0, 4.0, 2.0);
        }

        #[test]
        #[should_panic(expected = "pruned-set")]
        fn a_pruned_set_below_its_ceiling_trips() {
            check_pruned(3.0, 2.0, 4.0);
        }

        #[test]
        #[should_panic(expected = "shard-consistency")]
        fn shard_mismatch_trips() {
            check_shards(2, 3, 0);
        }

        #[test]
        #[should_panic(expected = "shard-consistency")]
        fn out_of_range_lookup_trips() {
            check_shards(3, 3, 3);
        }
    }
}
