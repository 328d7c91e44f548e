//! R1 fixture: Hash{Map,Set} iteration (clippy::disallowed_methods and
//! clippy::iter_over_hash_type when planted in dta-core).

use std::collections::{HashMap, HashSet};

pub fn total(costs: &HashMap<String, f64>) -> f64 {
    let mut sum = 0.0;
    for (_key, value) in costs.iter() {
        sum += *value;
    }
    sum
}

pub fn visit_all(pool: &HashSet<u64>) {
    for id in pool {
        let _ = id;
    }
}
