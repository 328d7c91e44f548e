//! R9 fixture: wall-clock reads on the recommendation path
//! (clippy::disallowed_types).

use std::time::Instant;

pub fn timed(base: f64) -> f64 {
    let started = Instant::now();
    let t = std::time::SystemTime::now();
    let _ = t;
    base + started.elapsed().as_secs_f64()
}
