//! R12 fixture: a wall-clock read crossing a function boundary into a
//! `det::` cost comparison (clippy::disallowed_types when planted in
//! dta-core: the clock is refused where it is read).

use crate::det;
use std::time::Instant;

fn sampled_cost() -> f64 {
    let t = Instant::now();
    t.elapsed().as_secs_f64()
}

pub fn pick(best: f64) -> bool {
    let cost = sampled_cost();
    det::improves(cost, best)
}
