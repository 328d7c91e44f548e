//! R3 fixture: interior mutability (clippy::disallowed_types).

use std::cell::RefCell;

pub struct Scratch {
    buffer: RefCell<Vec<f64>>,
}
