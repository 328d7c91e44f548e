//! R8 fixture: ad-hoc prints in library code (clippy::print_stdout,
//! clippy::print_stderr, clippy::dbg_macro).

pub fn trace(cost: f64) -> f64 {
    println!("cost = {cost}");
    eprintln!("still here");
    dbg!(cost)
}
