//! R5 fixture: a bare unwrap in library code (clippy::unwrap_used).

pub fn head(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}
