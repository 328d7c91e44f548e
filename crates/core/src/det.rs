//! Deterministic float-comparison helpers — the one sanctioned home
//! for raw `f64` comparisons in the search (`dta-lint` rule R2).
//!
//! PR 1's guarantee — parallel and serial Greedy(m,k) return
//! byte-identical recommendations — rests on two comparison
//! disciplines:
//!
//! 1. every reduction picks its winner by **`(cost, position)`**, so a
//!    cost tie is always broken toward the earliest-generated entrant,
//!    exactly as a serial left-to-right strict-`<` scan would;
//! 2. a candidate is only ever **adopted on strict improvement**, so
//!    float equality (including `-0.0`/`+0.0` and accumulated-sum
//!    round-trips) can never flip a decision between runs.
//!
//! Scattering ad-hoc `<`/`min` over the search re-opens both holes —
//! `f64::min` is also NaN-silent, which would let a poisoned cost win a
//! reduction without a trace. Search code therefore routes every cost
//! comparison through these helpers; `dta-lint` R2 flags raw
//! comparisons in `greedy.rs`/`enumeration.rs`. What flows into them is
//! gated where it arises (DESIGN.md §8): wall clocks and hash containers
//! are clippy's disallowed types (R9, R1), and every `Relaxed` load
//! carries an R6 pragma.

/// Whether `candidate` strictly improves on `incumbent`.
///
/// NaN never improves (every comparison with NaN is false), so a
/// poisoned cost can never be adopted — and the debug-build sanitizer
/// ([`crate::invariants`]) catches the NaN at its source.
#[inline]
pub fn improves(candidate: f64, incumbent: f64) -> bool {
    candidate < incumbent
}

/// Minimum of an entrant and an incumbent by `(cost, position)`.
///
/// The entrant wins only with a strictly lower cost, or an equal cost
/// at a strictly lower position. Folding any permutation of entrants
/// through this yields the same winner a serial in-order scan picks,
/// which is what makes the parallel reduction order-insensitive.
#[inline]
pub fn min_by_cost_position(
    entrant: (usize, f64),
    incumbent: Option<(usize, f64)>,
) -> Option<(usize, f64)> {
    match incumbent {
        None => Some(entrant),
        Some(inc) => {
            if entrant.1 < inc.1 || (entrant.1 == inc.1 && entrant.0 < inc.0) {
                Some(entrant)
            } else {
                Some(inc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_is_strict() {
        assert!(improves(1.0, 2.0));
        assert!(!improves(2.0, 2.0), "equality must never flip a decision");
        assert!(!improves(3.0, 2.0));
    }

    #[test]
    fn nan_never_improves() {
        assert!(!improves(f64::NAN, 1.0));
        assert!(improves(1.0, f64::INFINITY));
        assert!(!improves(f64::NAN, f64::NAN));
    }

    #[test]
    fn position_breaks_ties() {
        assert_eq!(min_by_cost_position((5, 1.0), Some((3, 1.0))), Some((3, 1.0)));
        assert_eq!(min_by_cost_position((2, 1.0), Some((3, 1.0))), Some((2, 1.0)));
        assert_eq!(min_by_cost_position((9, 0.5), Some((3, 1.0))), Some((9, 0.5)));
        assert_eq!(min_by_cost_position((9, 2.0), Some((3, 1.0))), Some((3, 1.0)));
        assert_eq!(min_by_cost_position((7, 4.0), None), Some((7, 4.0)));
    }

    #[test]
    fn fold_order_does_not_matter() {
        // entrants with deliberate ties, folded in every rotation
        let entrants = [(4, 2.0), (1, 2.0), (3, 1.5), (6, 1.5), (0, 9.0)];
        let fold = |order: &[(usize, f64)]| {
            order.iter().fold(None, |acc, &e| min_by_cost_position(e, acc))
        };
        let expect = fold(&entrants);
        assert_eq!(expect, Some((3, 1.5)));
        for rot in 1..entrants.len() {
            let mut rotated = entrants.to_vec();
            rotated.rotate_left(rot);
            assert_eq!(fold(&rotated), expect, "rotation {rot}");
        }
    }

    #[test]
    fn negative_zero_cannot_flip_a_winner() {
        // -0.0 == 0.0: the tie must resolve by position, not sign bit
        assert_eq!(min_by_cost_position((5, -0.0), Some((2, 0.0))), Some((2, 0.0)));
        assert_eq!(min_by_cost_position((1, -0.0), Some((2, 0.0))), Some((1, -0.0)));
    }
}
