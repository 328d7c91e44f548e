//! Offline stand-in for the `parking_lot` crate, with ranked locks.
//!
//! The build environment cannot fetch crates, so this provides the
//! `parking_lot` API subset the workspace uses — [`Mutex`] and
//! [`RwLock`] whose `lock`/`read`/`write` return guards directly (no
//! poisoning) — implemented over `std::sync`. A panic while a lock is
//! held poisons the std primitive; we recover the data regardless, which
//! matches parking_lot's poison-free semantics.
//!
//! **Lock order (R10, DESIGN.md §8).** Every lock carries a [`Rank`]
//! fixed at construction: `new` gives [`Rank::LEAF`], `ranked` a lower
//! one. A thread may acquire a lock only while every lock it holds has a
//! strictly lower rank, so two threads can never wait on each other in
//! opposite orders. Debug builds check this on every acquisition and
//! panic, before blocking, on a lock taken out of rank; release builds
//! compile the check and the per-thread bookkeeping away.

// the one place std's locks are named: everything else takes these
#![allow(clippy::disallowed_types, reason = "the shim wraps std's locks")]

/// A lock's place in the acquisition order: lower ranks are taken first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank(u8);

impl Rank {
    /// The default rank: no other lock may be taken while it is held.
    pub const LEAF: Rank = Rank(u8::MAX);

    /// A lock other locks are taken under. Lower levels are outer.
    pub const fn outer(level: u8) -> Rank {
        assert!(level < u8::MAX, "u8::MAX is the leaf rank");
        Rank(level)
    }
}

#[cfg(debug_assertions)]
mod held {
    use super::Rank;

    #[expect(clippy::disallowed_types, reason = "thread-local, never shared between threads")]
    type Stack = std::cell::RefCell<Vec<Rank>>;

    thread_local! {
        /// Ranks of the locks this thread holds, in acquisition order.
        static HELD: Stack = const { Stack::new(Vec::new()) };
    }

    /// One acquisition's entry in this thread's held ranks.
    pub(crate) struct Held(Rank);

    impl Held {
        /// Record an acquisition of `rank`, or panic if any held lock's
        /// rank is not strictly below it.
        #[track_caller]
        pub(crate) fn acquire(rank: Rank) -> Held {
            let over = HELD.with(|held| {
                let mut held = held.borrow_mut();
                let over = held.iter().copied().find(|&h| h >= rank);
                if over.is_none() {
                    held.push(rank);
                }
                over
            });
            if let Some(over) = over {
                #[expect(clippy::panic, reason = "the debug-build lock-order check")]
                {
                    panic!(
                        "lock order violated: acquiring a lock of rank {} while holding one \
                         of rank {}",
                        rank.0, over.0
                    );
                }
            }
            Held(rank)
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // guards may drop in any order: forget the latest of this rank
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(i) = held.iter().rposition(|&h| h == self.0) {
                    held.remove(i);
                }
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod held {
    use super::Rank;

    /// Release builds keep no bookkeeping.
    pub(crate) struct Held;

    impl Held {
        #[inline(always)]
        pub(crate) fn acquire(_: Rank) -> Held {
            Held
        }
    }
}

use held::Held;

/// Guard of a [`Mutex`]; releases the lock (and its rank) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    _held: Held,
}

/// Shared guard of a [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

/// Exclusive guard of a [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A mutual-exclusion lock without poisoning.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    rank: Rank,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// New leaf lock around `value`.
    pub fn new(value: T) -> Self {
        Self::ranked(value, Rank::LEAF)
    }

    /// New lock around `value` at `rank`.
    pub fn ranked(value: T, rank: Rank) -> Self {
        Self { rank, inner: std::sync::Mutex::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let _held = Held::acquire(self.rank);
        MutexGuard { inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()), _held }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A readers-writer lock without poisoning.
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    rank: Rank,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// New leaf lock around `value`.
    pub fn new(value: T) -> Self {
        Self::ranked(value, Rank::LEAF)
    }

    /// New lock around `value` at `rank`.
    pub fn ranked(value: T, rank: Rank) -> Self {
        Self { rank, inner: std::sync::RwLock::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let _held = Held::acquire(self.rank);
        RwLockReadGuard { inner: self.inner.read().unwrap_or_else(|e| e.into_inner()), _held }
    }

    /// Acquire exclusive write access.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let _held = Held::acquire(self.rank);
        RwLockWriteGuard { inner: self.inner.write().unwrap_or_else(|e| e.into_inner()), _held }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::ranked(vec![1, 2], Rank::outer(0));
        std::thread::scope(|s| {
            let a = s.spawn(|| l.read().len());
            let b = s.spawn(|| l.read().len());
            assert_eq!(a.join().unwrap() + b.join().unwrap(), 4);
        });
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn shared_across_threads() {
        let m = Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4000);
    }

    /// Two locks a thread may nest, outer before inner.
    struct Pair {
        a: RwLock<u32>,
        b: RwLock<u32>,
    }

    impl Pair {
        fn new() -> Self {
            Pair { a: RwLock::ranked(1, Rank::outer(0)), b: RwLock::ranked(2, Rank::outer(1)) }
        }

        /// Holds `a` while a callee takes `b`: in rank.
        fn forward(&self) -> u32 {
            let a = self.a.read();
            *a + self.grab_b()
        }

        fn grab_b(&self) -> u32 {
            *self.b.read()
        }
    }

    #[test]
    fn increasing_rank_acquisition_and_reacquisition_pass() {
        let pair = Pair::new();
        assert_eq!(pair.forward(), 3);
        // every guard above is gone, so either lock may be taken again,
        // in either order, one at a time
        *pair.b.write() += 1;
        *pair.a.write() += 1;
        assert_eq!(pair.forward(), 5);
        // guards released out of acquisition order leave nothing behind
        let a = pair.a.read();
        let b = pair.b.read();
        drop(a);
        drop(b);
        let leaf = Mutex::new(1);
        let mut a = pair.a.write();
        *a += *leaf.lock();
        drop(a);
        assert_eq!(pair.forward(), 6);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "lock order violated: acquiring a lock of rank 0 while holding one of rank 1"
    )]
    fn opposite_order_acquisition_panics() {
        let pair = Pair::new();
        pair.forward();
        // hold `b` while taking `a`: the opposite order
        let _b = pair.b.write();
        let _a = pair.a.write();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order violated")]
    fn same_rank_nesting_panics() {
        let (x, y) = (Mutex::new(1), Mutex::new(2));
        let _x = x.lock();
        let _y = y.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order violated")]
    fn rereading_a_held_rwlock_panics() {
        let l = RwLock::ranked(0, Rank::outer(3));
        let _first = l.read();
        let _second = l.read();
    }
}
