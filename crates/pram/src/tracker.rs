//! Work/depth accounting.
//!
//! PRAM algorithms are analysed in the *work–depth* model: the **work** is
//! the total number of primitive operations executed over all processors and
//! the **depth** (here called *rounds*) is the number of synchronous parallel
//! steps.  The paper's claims — `O(n log log n)` operations, `O(log n)` time —
//! are exactly bounds on these two quantities, so reproducing them requires a
//! way to *count* them rather than only measuring wall-clock time.
//!
//! The [`Tracker`] is a pair of relaxed atomic counters.  To keep the
//! overhead negligible, algorithms charge work **in bulk**: a parallel loop
//! over `n` items performing a constant amount of per-item work charges `n`
//! (or `c·n`) operations once, and one round.  This makes the counts
//! deterministic (identical at every thread count) and keeps the
//! perturbation of wall-clock benchmarks well under the measurement noise.

use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot of accumulated costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Total number of primitive operations charged (the PRAM "operations"
    /// or "work" measure).
    pub work: u64,
    /// Number of synchronous parallel rounds charged (the PRAM "time" or
    /// "depth" measure, up to constant factors).
    pub rounds: u64,
}

impl Stats {
    /// The zero cost.
    pub const ZERO: Stats = Stats { work: 0, rounds: 0 };

    /// Component-wise sum of two cost snapshots.
    #[must_use]
    pub fn plus(self, other: Stats) -> Stats {
        Stats {
            work: self.work + other.work,
            rounds: self.rounds + other.rounds,
        }
    }

    /// Work per element, useful for checking near-linear work empirically.
    #[must_use]
    pub fn work_per(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.work as f64 / n as f64
        }
    }
}

/// Shared work/depth counters.
///
/// A `Tracker` can be cheaply shared by reference between all the algorithm
/// layers of a single run.  Counting can be disabled entirely (see
/// [`Tracker::disabled`]); a disabled tracker still accepts charges but they
/// are not recorded, which lets hot code stay branch-light.
#[derive(Debug, Default)]
pub struct Tracker {
    enabled: bool,
    work: AtomicU64,
    rounds: AtomicU64,
}

impl Tracker {
    /// A tracker that records charges.
    #[must_use]
    pub fn new() -> Self {
        Tracker {
            enabled: true,
            work: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
        }
    }

    /// A tracker that ignores all charges (zero overhead apart from a branch).
    #[must_use]
    pub fn disabled() -> Self {
        Tracker {
            enabled: false,
            work: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
        }
    }

    /// Whether charges are recorded.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Charge `ops` operations of work.
    #[inline]
    pub fn charge_work(&self, ops: u64) {
        if self.enabled {
            self.work.fetch_add(ops, Ordering::Relaxed);
        }
    }

    /// Charge `r` parallel rounds of depth.
    #[inline]
    pub fn charge_rounds(&self, r: u64) {
        if self.enabled {
            self.rounds.fetch_add(r, Ordering::Relaxed);
        }
    }

    /// Charge one parallel step that performs `ops` operations in total.
    #[inline]
    pub fn charge_step(&self, ops: u64) {
        if self.enabled {
            self.work.fetch_add(ops, Ordering::Relaxed);
            self.rounds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Read the accumulated costs.
    #[must_use]
    pub fn stats(&self) -> Stats {
        Stats {
            work: self.work.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
        }
    }

    /// Reset both counters to zero.
    pub fn reset(&self) {
        self.work.store(0, Ordering::Relaxed);
        self.rounds.store(0, Ordering::Relaxed);
    }

    /// Costs accumulated since the given earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: Stats) -> Stats {
        let now = self.stats();
        Stats {
            work: now.work.saturating_sub(earlier.work),
            rounds: now.rounds.saturating_sub(earlier.rounds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let t = Tracker::new();
        t.charge_work(10);
        t.charge_rounds(2);
        t.charge_step(5);
        let s = t.stats();
        assert_eq!(s.work, 15);
        assert_eq!(s.rounds, 3);
    }

    #[test]
    fn disabled_ignores_charges() {
        let t = Tracker::disabled();
        t.charge_work(10);
        t.charge_step(100);
        assert_eq!(t.stats(), Stats::ZERO);
        assert!(!t.is_enabled());
    }

    #[test]
    fn reset_and_since() {
        let t = Tracker::new();
        t.charge_step(100);
        let snap = t.stats();
        t.charge_step(50);
        let delta = t.since(snap);
        assert_eq!(delta.work, 50);
        assert_eq!(delta.rounds, 1);
        t.reset();
        assert_eq!(t.stats(), Stats::ZERO);
    }

    #[test]
    fn stats_plus_and_work_per() {
        let a = Stats {
            work: 10,
            rounds: 1,
        };
        let b = Stats {
            work: 30,
            rounds: 4,
        };
        let c = a.plus(b);
        assert_eq!(
            c,
            Stats {
                work: 40,
                rounds: 5
            }
        );
        assert!((c.work_per(10) - 4.0).abs() < 1e-12);
        assert_eq!(Stats::ZERO.work_per(0), 0.0);
    }

    #[test]
    fn concurrent_charging_is_consistent() {
        let t = Tracker::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        t.charge_step(3);
                    }
                });
            }
        });
        let s = t.stats();
        assert_eq!(s.work, 8 * 1000 * 3);
        assert_eq!(s.rounds, 8 * 1000);
    }
}
