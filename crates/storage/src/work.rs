//! Work accounting: the deterministic clock of the simulation.
//!
//! All "running time", "tuning time", and "server overhead" figures in
//! the reproduced experiments are measured in *work units* accumulated
//! here, not in wall-clock seconds: one unit per page read/written plus a
//! small charge per CPU row operation. This keeps every experiment
//! deterministic and machine-independent while preserving the ratios the
//! paper reports (e.g. Figure 3's "% reduction in production server
//! overhead" and Table 3's speedups).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cost of one CPU row operation relative to one page I/O.
pub const CPU_OP_WEIGHT: f64 = 0.002;

/// Thread-safe accumulator of simulated work.
#[derive(Debug, Default)]
pub struct WorkCounter {
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    cpu_ops: AtomicU64,
}

impl WorkCounter {
    /// New counter at zero, wrapped for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record `n` page reads.
    pub fn read_pages(&self, n: u64) {
        self.pages_read.fetch_add(n, Ordering::SeqCst);
    }

    /// Record `n` page writes.
    pub fn write_pages(&self, n: u64) {
        self.pages_written.fetch_add(n, Ordering::SeqCst);
    }

    /// Record `n` CPU row operations (comparisons, hash probes, ...).
    pub fn cpu(&self, n: u64) {
        self.cpu_ops.fetch_add(n, Ordering::SeqCst);
    }

    /// Snapshot the current totals.
    pub fn snapshot(&self) -> WorkSnapshot {
        WorkSnapshot {
            pages_read: self.pages_read.load(Ordering::SeqCst),
            pages_written: self.pages_written.load(Ordering::SeqCst),
            cpu_ops: self.cpu_ops.load(Ordering::SeqCst),
        }
    }

    /// Total work units so far.
    pub fn work_units(&self) -> f64 {
        self.snapshot().work_units()
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.pages_read.store(0, Ordering::SeqCst);
        self.pages_written.store(0, Ordering::SeqCst);
        self.cpu_ops.store(0, Ordering::SeqCst);
    }
}

/// An immutable snapshot of a [`WorkCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkSnapshot {
    pub pages_read: u64,
    pub pages_written: u64,
    pub cpu_ops: u64,
}

impl WorkSnapshot {
    /// Scalar work units: pages + weighted CPU operations.
    pub fn work_units(&self) -> f64 {
        (self.pages_read + self.pages_written) as f64 + self.cpu_ops as f64 * CPU_OP_WEIGHT
    }

    /// Work done between `earlier` and `self`.
    pub fn since(&self, earlier: WorkSnapshot) -> WorkSnapshot {
        WorkSnapshot {
            pages_read: self.pages_read - earlier.pages_read,
            pages_written: self.pages_written - earlier.pages_written,
            cpu_ops: self.cpu_ops - earlier.cpu_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_snapshots() {
        let w = WorkCounter::default();
        w.read_pages(10);
        w.write_pages(5);
        w.cpu(1000);
        let s = w.snapshot();
        assert_eq!(s.pages_read, 10);
        assert_eq!(s.pages_written, 5);
        assert_eq!(s.cpu_ops, 1000);
        assert!((s.work_units() - (15.0 + 1000.0 * CPU_OP_WEIGHT)).abs() < 1e-9);
    }

    #[test]
    fn since_computes_delta() {
        let w = WorkCounter::default();
        w.read_pages(3);
        let before = w.snapshot();
        w.read_pages(7);
        w.cpu(10);
        let delta = w.snapshot().since(before);
        assert_eq!(delta.pages_read, 7);
        assert_eq!(delta.cpu_ops, 10);
    }

    #[test]
    fn reset_zeroes() {
        let w = WorkCounter::default();
        w.read_pages(3);
        w.reset();
        assert_eq!(w.snapshot(), WorkSnapshot::default());
    }

    #[test]
    fn shared_across_threads() {
        let w = WorkCounter::shared();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let w = Arc::clone(&w);
                s.spawn(move || {
                    for _ in 0..100 {
                        w.read_pages(1);
                    }
                });
            }
        });
        assert_eq!(w.snapshot().pages_read, 400);
    }
}
