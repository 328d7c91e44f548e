//! R11 fixture: panic sites three frames below the public tuning
//! surface (clippy::unwrap_used, indexing_slicing and string_slice when
//! planted in dta-core). Each is flagged where it is written, whichever
//! caller reaches it.

pub fn tune(x: Option<u32>, costs: &[f64], sql: &str) -> f64 {
    middle(x, costs, sql)
}

fn middle(x: Option<u32>, costs: &[f64], sql: &str) -> f64 {
    deep(x, costs, sql)
}

fn deep(x: Option<u32>, costs: &[f64], sql: &str) -> f64 {
    let first = costs[0];
    let head = &sql[..80];
    f64::from(x.unwrap()) + first + head.len() as f64
}
