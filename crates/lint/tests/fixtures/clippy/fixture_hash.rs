//! Hash-container fixture: a `HashMap` field, whose explicit
//! `.into_iter()` no method list can name (clippy::disallowed_types when
//! planted in dta-core: the container is refused where it is declared).

use std::collections::HashMap;

pub struct Costs {
    by_statement: HashMap<u64, f64>,
}

impl Costs {
    pub fn first(self) -> Option<(u64, f64)> {
        self.by_statement.into_iter().next()
    }
}
