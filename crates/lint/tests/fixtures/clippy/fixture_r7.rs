//! R7 fixture: panics and process kills in library code (clippy::panic,
//! clippy::exit, clippy::disallowed_methods).

pub fn explode(n: u32) -> u32 {
    if n == 0 {
        panic!("n must be positive");
    }
    n
}

pub fn bail() {
    std::process::exit(2);
}

pub fn die() {
    std::process::abort();
}
