//! R4 fixture: a detached thread spawn (clippy::disallowed_methods).

pub fn background() {
    std::thread::spawn(|| {});
}
