//! Scratch-buffer workspace: checkout/return pools of reusable vectors.
//!
//! Every doubling-style algorithm in this workspace runs `O(log n)` rounds,
//! and each round used to allocate (and immediately drop) a handful of
//! full-length vectors — pair lists, rank arrays, radix ping-pong buffers.
//! The [`Workspace`] turns those into *checkouts* from per-type pools: a
//! buffer is taken with [`Workspace::take_u32`] (etc.), used for the round,
//! and automatically returned to the pool when its [`Scratch`] guard drops.
//! A converged doubling loop therefore allocates O(1) buffers per *run*
//! instead of O(1) per *round* (see DESIGN.md, "Workspace").
//!
//! Buffers keep their capacity in the pool, so a checkout at a size that has
//! been seen before costs only a pop + `Vec::resize` truncation (no element
//! writes).  Newly grown regions are zero-filled — contents of a checked-out
//! buffer are unspecified (stale or zero), and callers must fully overwrite
//! what they read.
//!
//! The pools sit behind mutexes, but checkouts happen at *round* granularity
//! (a handful per parallel step), so contention is negligible.

use crate::faults::Faults;
use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// A 16-byte key–payload record: the unit the packed radix sort physically
/// moves between ping-pong buffers (`sfcp-parprim`'s cache-aware engine
/// streams these instead of gathering keys through an index permutation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
pub struct Rec {
    /// Sort key.
    pub key: u64,
    /// Payload carried alongside the key (callers usually store an index).
    pub pay: u32,
}

impl Rec {
    /// Pack a key and its payload into one record.
    #[inline]
    #[must_use]
    pub fn new(key: u64, pay: u32) -> Self {
        Rec { key, pay }
    }
}

/// Allocation statistics, for asserting buffer reuse in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// Total checkouts served.
    pub checkouts: u64,
    /// Checkouts that could not pop a pooled buffer (fresh `Vec`).
    pub misses: u64,
    /// Buffers returned to the pools (guard drops).
    pub returns: u64,
}

impl WorkspaceStats {
    /// Checkouts whose guard has not yet been dropped.  Zero whenever no
    /// [`Scratch`] guard is live — the leak-test invariant.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.checkouts - self.returns
    }
}

/// Pools of reusable scratch vectors, one per element type.
#[derive(Debug, Default)]
pub struct Workspace {
    u8s: Mutex<Vec<Vec<u8>>>,
    u32s: Mutex<Vec<Vec<u32>>>,
    u64s: Mutex<Vec<Vec<u64>>>,
    recs: Mutex<Vec<Vec<Rec>>>,
    pairs: Mutex<Vec<Vec<(u64, u64)>>>,
    checkouts: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    pooled_bytes: AtomicU64,
    epoch: AtomicU64,
    faults: Faults,
}

/// Element types the workspace pools.
pub trait Poolable: Copy + Default + Send + Sync + 'static {
    /// The pool holding returned buffers of this element type.
    fn pool(ws: &Workspace) -> &Mutex<Vec<Vec<Self>>>;
}

impl Poolable for u8 {
    fn pool(ws: &Workspace) -> &Mutex<Vec<Vec<u8>>> {
        &ws.u8s
    }
}

impl Poolable for u32 {
    fn pool(ws: &Workspace) -> &Mutex<Vec<Vec<u32>>> {
        &ws.u32s
    }
}

impl Poolable for u64 {
    fn pool(ws: &Workspace) -> &Mutex<Vec<Vec<u64>>> {
        &ws.u64s
    }
}

impl Poolable for Rec {
    fn pool(ws: &Workspace) -> &Mutex<Vec<Vec<Rec>>> {
        &ws.recs
    }
}

impl Poolable for (u64, u64) {
    fn pool(ws: &Workspace) -> &Mutex<Vec<Vec<(u64, u64)>>> {
        &ws.pairs
    }
}

impl Workspace {
    /// A fresh workspace with empty pools.
    #[must_use]
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Check out a buffer of exactly `len` elements.  Contents are
    /// unspecified (stale pool data or zeros); the caller must fully
    /// overwrite every element it reads.
    #[must_use]
    pub fn take<T: Poolable>(&self, len: usize) -> Scratch<'_, T> {
        // This workspace's checkout fault hook fires before any counter
        // increment or pool pop, so an injected failure at this checkout
        // leaves every counter and pool exactly as they were — the unwind
        // releases live `Scratch` guards (returning their buffers) and
        // `outstanding()` stays reconciled.
        self.faults.on_checkout();
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        let mut buf = match T::pool(self).lock().pop() {
            Some(buf) => {
                self.pooled_bytes.fetch_sub(
                    (buf.capacity() * std::mem::size_of::<T>()) as u64,
                    Ordering::Relaxed,
                );
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        buf.resize(len, T::default());
        Scratch { buf, ws: self }
    }

    /// Check out a `Vec<u8>` of length `len` (0/1 flag arrays).
    #[must_use]
    pub fn take_u8(&self, len: usize) -> Scratch<'_, u8> {
        self.take(len)
    }

    /// Check out a `Vec<u32>` of length `len`.
    #[must_use]
    pub fn take_u32(&self, len: usize) -> Scratch<'_, u32> {
        self.take(len)
    }

    /// Check out a `Vec<u64>` of length `len`.
    #[must_use]
    pub fn take_u64(&self, len: usize) -> Scratch<'_, u64> {
        self.take(len)
    }

    /// Check out a record buffer of length `len` (radix ping-pong).
    #[must_use]
    pub fn take_recs(&self, len: usize) -> Scratch<'_, Rec> {
        self.take(len)
    }

    /// Check out a pair buffer of length `len`.
    #[must_use]
    pub fn take_pairs(&self, len: usize) -> Scratch<'_, (u64, u64)> {
        self.take(len)
    }

    /// Checkout/miss counters (monotone; misses stop growing once the pools
    /// are warm — the property the reuse regression tests assert).
    #[must_use]
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
        }
    }

    /// Number of buffers currently sitting in the pools (returned and
    /// available).  Stable across repeated identical runs once the pools are
    /// warm — together with `stats().outstanding() == 0` this is the
    /// leak-test invariant.
    #[must_use]
    pub fn pooled_buffers(&self) -> usize {
        self.u8s.lock().len()
            + self.u32s.lock().len()
            + self.u64s.lock().len()
            + self.recs.lock().len()
            + self.pairs.lock().len()
    }

    /// Capacity (in bytes) currently held by the pools.  Measured at *return*
    /// time, so growth that happens **after** checkout — a `take_u32(0)`
    /// followed by `push`/`resize` on the guard, the pattern every `_into`
    /// output buffer and the acyclicity stack use — is reported here even
    /// though the checkout itself was size 0.  Like
    /// [`Workspace::pooled_buffers`], this is stable across repeated
    /// identical runs once the pools are warm; a monotone climb under a
    /// fixed workload means some caller keeps growing a pooled buffer.
    #[must_use]
    pub fn pooled_bytes(&self) -> u64 {
        self.pooled_bytes.load(Ordering::Relaxed)
    }

    /// This workspace's fault injector (see [`crate::faults`]).  Its
    /// checkout hook fires inside [`Workspace::take`]; its engine-pass hook
    /// fires inside [`Ctx::pass`](crate::Ctx::pass) on the owning context.
    #[must_use]
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Recovery epoch: incremented by every [`Workspace::recover`] call.
    /// A caller holding per-workspace caches can compare epochs to notice
    /// that a recovery happened in between.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Reconcile the workspace after a failed invocation (the poison/recover
    /// protocol; see DESIGN.md, "Failure model and recovery").
    ///
    /// The `Scratch` guards are unwind-safe — a panic that unwinds through
    /// algorithm code drops every live guard, returning its buffer to the
    /// pool — so after `catch_unwind` the pools already hold every buffer.
    /// This call closes the remaining gaps a mid-`take` failure could leave:
    ///
    /// * `returns` is set to `checkouts`, so [`WorkspaceStats::outstanding`]
    ///   reads zero again;
    /// * `pooled_bytes` is recomputed from the pools themselves (the
    ///   source of truth), erasing any drift from a checkout that
    ///   unwound between its accounting steps;
    /// * the [`Workspace::epoch`] is bumped.
    ///
    /// The pools and their buffers are kept — a recovered workspace is warm,
    /// and the next identical run serves every checkout from the pools with
    /// bit-identical charges (the fault-injection suite pins this).
    pub fn recover(&self) {
        let checkouts = self.checkouts.load(Ordering::Relaxed);
        self.returns.store(checkouts, Ordering::Relaxed);
        let bytes = pool_capacity_bytes(&self.u8s)
            + pool_capacity_bytes(&self.u32s)
            + pool_capacity_bytes(&self.u64s)
            + pool_capacity_bytes(&self.recs)
            + pool_capacity_bytes(&self.pairs);
        self.pooled_bytes.store(bytes, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }
}

/// Total capacity (bytes) of the buffers currently held by one pool.
fn pool_capacity_bytes<T>(pool: &Mutex<Vec<Vec<T>>>) -> u64 {
    pool.lock()
        .iter()
        .map(|buf| (buf.capacity() * std::mem::size_of::<T>()) as u64)
        .sum()
}

/// RAII guard for a checked-out buffer; dereferences to `Vec<T>` and returns
/// the buffer (with its capacity) to the pool on drop.
#[derive(Debug)]
pub struct Scratch<'ws, T: Poolable> {
    buf: Vec<T>,
    ws: &'ws Workspace,
}

impl<T: Poolable> Deref for Scratch<'_, T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T: Poolable> DerefMut for Scratch<'_, T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: Poolable> Drop for Scratch<'_, T> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // Account the buffer at the capacity it returns with: any growth that
        // happened while it was checked out shows up in `pooled_bytes`.
        self.ws.pooled_bytes.fetch_add(
            (buf.capacity() * std::mem::size_of::<T>()) as u64,
            Ordering::Relaxed,
        );
        T::pool(self.ws).lock().push(buf);
        self.ws.returns.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_has_requested_length() {
        let ws = Workspace::new();
        let a = ws.take_u32(100);
        assert_eq!(a.len(), 100);
        let b = ws.take_u64(7);
        assert_eq!(b.len(), 7);
        let c = ws.take_recs(3);
        assert_eq!(c.len(), 3);
        let d = ws.take_pairs(2);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn buffers_are_reused_after_return() {
        let ws = Workspace::new();
        {
            let mut a = ws.take_u32(1000);
            a[999] = 7;
        }
        // Second checkout pops the returned buffer: no miss.
        let before = ws.stats();
        let b = ws.take_u32(500);
        assert_eq!(b.len(), 500);
        let after = ws.stats();
        assert_eq!(
            after.misses, before.misses,
            "warm checkout must not allocate"
        );
        assert_eq!(after.checkouts, before.checkouts + 1);
    }

    #[test]
    fn growing_a_reused_buffer_zero_fills_the_tail() {
        let ws = Workspace::new();
        {
            let mut a = ws.take_u64(4);
            for x in a.iter_mut() {
                *x = u64::MAX;
            }
        }
        let b = ws.take_u64(8);
        // The tail beyond any previously initialised length is zeroed.
        assert!(b[4..].iter().all(|&x| x == 0));
    }

    #[test]
    fn pools_are_type_separated() {
        let ws = Workspace::new();
        drop(ws.take_u32(10));
        let s = ws.stats();
        assert_eq!(s.checkouts, 1);
        // A u64 checkout cannot reuse the returned u32 buffer.
        drop(ws.take_u64(10));
        assert_eq!(ws.stats().misses, 2);
    }

    #[test]
    fn nested_checkouts_get_distinct_buffers() {
        let ws = Workspace::new();
        let mut a = ws.take_u32(16);
        let mut b = ws.take_u32(16);
        a[0] = 1;
        b[0] = 2;
        assert_eq!(a[0], 1);
        assert_eq!(b[0], 2);
    }

    #[test]
    fn rec_layout_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Rec>(), 16);
    }

    #[test]
    fn u8_pool_works() {
        let ws = Workspace::new();
        {
            let mut f = ws.take_u8(64);
            f.fill(1);
            assert_eq!(f[63], 1);
        }
        // Warm re-checkout hits the pool.
        let before = ws.stats();
        drop(ws.take_u8(32));
        assert_eq!(ws.stats().misses, before.misses);
    }

    #[test]
    fn outstanding_tracks_live_guards() {
        let ws = Workspace::new();
        assert_eq!(ws.stats().outstanding(), 0);
        let a = ws.take_u32(8);
        let b = ws.take_u64(8);
        assert_eq!(ws.stats().outstanding(), 2);
        drop(a);
        assert_eq!(ws.stats().outstanding(), 1);
        drop(b);
        assert_eq!(ws.stats().outstanding(), 0);
        assert_eq!(ws.pooled_buffers(), 2);
    }

    #[test]
    fn pooled_bytes_reports_growth_after_checkout() {
        let ws = Workspace::new();
        assert_eq!(ws.pooled_bytes(), 0);
        {
            // Checked out at size 0, grown to 1000 elements while out: the
            // pool must account the grown capacity on return.
            let mut stack = ws.take_u32(0);
            for i in 0..1000u32 {
                stack.push(i);
            }
        }
        assert!(
            ws.pooled_bytes() >= 4000,
            "growth after checkout must be reported, got {} bytes",
            ws.pooled_bytes()
        );
        // Re-checkout removes the buffer (and its bytes) from the pool…
        let held = ws.take_u32(10);
        assert_eq!(ws.pooled_bytes(), 0);
        // …and returning it restores the full grown capacity.
        let cap_bytes = (held.capacity() * std::mem::size_of::<u32>()) as u64;
        drop(held);
        assert_eq!(ws.pooled_bytes(), cap_bytes);
    }

    #[test]
    fn pooled_bytes_stable_across_identical_runs() {
        let ws = Workspace::new();
        let run = |ws: &Workspace| {
            let mut a = ws.take_u32(0);
            a.extend(0..500u32);
            let b = ws.take_u64(64);
            drop((a, b));
        };
        run(&ws);
        let warm = ws.pooled_bytes();
        assert!(warm > 0);
        for _ in 0..5 {
            run(&ws);
            assert_eq!(ws.pooled_bytes(), warm);
        }
    }

    #[test]
    fn guards_return_buffers_on_panic_unwind() {
        let ws = Workspace::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _a = ws.take_u32(64);
            let _b = ws.take_u64(64);
            panic!("mid-run failure");
        }));
        assert!(result.is_err());
        // Both guards dropped during the unwind: nothing outstanding, both
        // buffers back in the pools with their bytes accounted.
        assert_eq!(ws.stats().outstanding(), 0);
        assert_eq!(ws.pooled_buffers(), 2);
        assert_eq!(ws.pooled_bytes(), 64 * 4 + 64 * 8);
    }

    #[test]
    fn recover_reconciles_counters_and_recounts_bytes() {
        let ws = Workspace::new();
        drop(ws.take_u32(100));
        // Simulate a mid-`take` unwind that incremented `checkouts` without a
        // matching return by leaking a guard.
        std::mem::forget(ws.take_u32(100));
        assert_eq!(ws.stats().outstanding(), 1);
        let epoch_before = ws.epoch();
        ws.recover();
        assert_eq!(ws.stats().outstanding(), 0);
        assert_eq!(ws.epoch(), epoch_before + 1);
        // Bytes recomputed from the pools themselves (the leaked buffer is
        // gone; the pool is empty), and the workspace is reusable.
        assert_eq!(ws.pooled_bytes(), 0);
        assert_eq!(ws.pooled_buffers(), 0);
        drop(ws.take_u32(50));
        assert_eq!(ws.stats().outstanding(), 0);
        assert_eq!(ws.pooled_buffers(), 1);
    }

    #[test]
    fn recover_on_a_healthy_workspace_is_idempotent() {
        let ws = Workspace::new();
        drop(ws.take_u32(128));
        drop(ws.take_u64(16));
        let stats = ws.stats();
        let bytes = ws.pooled_bytes();
        let buffers = ws.pooled_buffers();
        ws.recover();
        assert_eq!(ws.stats(), stats);
        assert_eq!(ws.pooled_bytes(), bytes);
        assert_eq!(ws.pooled_buffers(), buffers);
    }

    #[test]
    fn pooled_buffers_stable_across_identical_runs() {
        let ws = Workspace::new();
        let run = |ws: &Workspace| {
            let a = ws.take_u32(100);
            let b = ws.take_u8(100);
            drop((a, b));
        };
        run(&ws);
        let warm = ws.pooled_buffers();
        for _ in 0..5 {
            run(&ws);
            assert_eq!(ws.pooled_buffers(), warm);
        }
    }
}
