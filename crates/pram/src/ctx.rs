//! Execution context: one code path, two execution modes, one cost model.
//!
//! Every algorithm in the workspace is written against [`Ctx`]: a bundle of
//! an execution [`Mode`] (sequential or rayon-parallel) and a [`Tracker`].
//! The helpers on `Ctx` express the canonical PRAM idiom — "for all `i` in
//! parallel do …" — and charge one round plus `n` operations per invocation
//! (callers charge extra work explicitly when the per-item body is not
//! constant-time).  Because the charges do not depend on the mode, the
//! measured work/depth of a run is identical whether it executed on one
//! thread or sixteen; only the wall-clock time differs.

use crate::topology::Topology;
use crate::trace::{Span, Trace};
use crate::tracker::{Stats, Tracker};
use crate::workspace::Workspace;
use rayon::prelude::*;

/// How parallel loops are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Run every parallel loop as a plain sequential loop on the calling
    /// thread.  Useful for baselines, debugging, and measuring the pure
    /// operation counts without scheduling noise.
    Sequential,
    /// Run parallel loops on the global rayon thread pool.
    #[default]
    Parallel,
}

/// Reference task grain (minimum items per rayon task) on hosts with
/// 64-byte cache lines.  The live default is derived per-host by
/// [`Topology::default_grain`] — 32 cache lines of 4-byte elements per task —
/// which reproduces this value on mainstream hardware; the constant remains
/// as the documented reference point.
pub const DEFAULT_GRAIN: usize = 2048;

/// Execution context shared by all algorithms: execution mode + cost tracker
/// + scratch-buffer workspace.
#[derive(Debug)]
pub struct Ctx {
    mode: Mode,
    tracker: Tracker,
    grain: usize,
    topology: Topology,
    workspace: Workspace,
    trace: Trace,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx::new(Mode::Parallel)
    }
}

impl Ctx {
    /// A context with the given mode and a fresh enabled [`Tracker`].
    #[must_use]
    pub fn new(mode: Mode) -> Self {
        let topology = Topology::probe();
        Ctx {
            mode,
            tracker: Tracker::new(),
            grain: topology.default_grain(),
            topology,
            workspace: Workspace::new(),
            trace: Trace::new(),
        }
    }

    /// A sequential context (enabled tracker).
    #[must_use]
    pub fn sequential() -> Self {
        Ctx::new(Mode::Sequential)
    }

    /// A parallel context (enabled tracker).
    #[must_use]
    pub fn parallel() -> Self {
        Ctx::new(Mode::Parallel)
    }

    /// A parallel context whose tracker is disabled — the configuration used
    /// for pure wall-clock benchmarking.
    #[must_use]
    pub fn untracked(mode: Mode) -> Self {
        Ctx {
            tracker: Tracker::disabled(),
            ..Ctx::new(mode)
        }
    }

    /// Enable span tracing on this context (builder form of
    /// [`Trace::enable`]; see [`crate::trace`] for the span model and the
    /// disabled-cost contract).
    #[must_use]
    pub fn with_tracing(self) -> Self {
        self.trace.enable();
        self
    }

    /// Replace the task grain size (minimum items per rayon task).
    #[must_use]
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = grain.max(1);
        self
    }

    /// Replace the probed host topology (tests: mock the cache sizes so the
    /// radix and CSR regimes flip without a 100 MB input).
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// The host topology snapshot this context consults for physical tuning
    /// (never for charges).
    #[inline]
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The scratch-buffer workspace: checkout/return of reusable vectors so
    /// that per-round allocations in doubling loops amortise to zero.
    #[inline]
    #[must_use]
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// The execution mode.
    #[inline]
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Whether parallel loops actually run on the thread pool.
    #[inline]
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.mode == Mode::Parallel
    }

    /// The task grain size (minimum items per rayon task).
    #[inline]
    #[must_use]
    pub fn grain(&self) -> usize {
        self.grain
    }

    /// The underlying cost tracker.
    #[inline]
    #[must_use]
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// The span trace recorder (disabled by default; enable with
    /// [`Ctx::with_tracing`] or [`Trace::enable`]).
    #[inline]
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Open an instrumentation span named `name`, closed (and recorded) when
    /// the returned guard drops.  While tracing is disabled this is a single
    /// relaxed atomic load returning a no-op guard — the zero-cost contract
    /// engine passes rely on (see [`crate::trace`]).  Charges nothing in any
    /// state.
    #[inline]
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if !self.trace.is_enabled() {
            return Span::disabled();
        }
        self.trace.open(name, &self.tracker, &self.workspace)
    }

    /// Accumulated costs so far.
    #[must_use]
    pub fn stats(&self) -> Stats {
        self.tracker.stats()
    }

    /// Reset the cost counters.  Spans still open at this point are
    /// invalidated — their snapshots predate the reset, so letting them close
    /// normally would record nonsense deltas ([`Trace::invalidate_open`]).
    pub fn reset_stats(&self) {
        self.trace.invalidate_open();
        self.tracker.reset();
    }

    /// Recover the context after a failed invocation (a caught panic or an
    /// injected fault): reconcile the workspace ([`Workspace::recover`] —
    /// `outstanding()` back to zero, pooled bytes recounted from the pools,
    /// epoch bumped) and reset the cost counters, so the next run on this
    /// context starts from a clean tracker over warm pools and produces
    /// bit-identical charges to a run on a freshly warmed context.  The
    /// `try_` wrappers across the workspace call this before returning an
    /// `Err` (see DESIGN.md, "Failure model and recovery").
    /// Open trace spans are invalidated first: a span that was open across
    /// the failed invocation snapshotted counters that this recovery resets,
    /// so its close discards instead of recording negative-looking deltas
    /// (the fault-injection suite exercises exactly this).
    pub fn recover(&self) {
        self.trace.invalidate_open();
        self.workspace.recover();
        self.tracker.reset();
    }

    /// Charge extra work (operations) without a round.
    #[inline]
    pub fn charge_work(&self, ops: u64) {
        self.tracker.charge_work(ops);
    }

    /// Charge extra depth (rounds) without work.
    #[inline]
    pub fn charge_rounds(&self, rounds: u64) {
        self.tracker.charge_rounds(rounds);
    }

    /// Charge one synchronous parallel step performing `ops` operations.
    #[inline]
    pub fn charge_step(&self, ops: u64) {
        self.tracker.charge_step(ops);
    }

    // ------------------------------------------------------------------
    // Parallel loop helpers.
    // ------------------------------------------------------------------

    /// `for all i in 0..n pardo out[i] = f(i)` — one round, `n` operations.
    pub fn par_map_idx<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync + Send,
    {
        self.charge_step(n as u64);
        match self.mode {
            Mode::Sequential => (0..n).map(f).collect(),
            Mode::Parallel => (0..n)
                .into_par_iter()
                .with_min_len(self.grain)
                .map(f)
                .collect(),
        }
    }

    /// `for all i in 0..n pardo f(i)` (side effects only) — one round, `n` ops.
    pub fn par_for_idx<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        self.charge_step(n as u64);
        match self.mode {
            Mode::Sequential => (0..n).for_each(f),
            Mode::Parallel => (0..n).into_par_iter().with_min_len(self.grain).for_each(f),
        }
    }

    /// Parallel map over a slice — one round, `items.len()` operations.
    pub fn par_map_slice<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync + Send,
    {
        self.charge_step(items.len() as u64);
        match self.mode {
            Mode::Sequential => items.iter().map(f).collect(),
            Mode::Parallel => items.par_iter().with_min_len(self.grain).map(f).collect(),
        }
    }

    /// Parallel in-place update of a mutable slice; `f` receives the index and
    /// a mutable reference — one round, `items.len()` operations.
    pub fn par_update<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync + Send,
    {
        self.charge_step(items.len() as u64);
        match self.mode {
            Mode::Sequential => {
                for (i, item) in items.iter_mut().enumerate() {
                    f(i, item);
                }
            }
            Mode::Parallel => items
                .par_iter_mut()
                .with_min_len(self.grain)
                .enumerate()
                .for_each(|(i, item)| f(i, item)),
        }
    }

    /// Parallel loop over equally sized chunks of a mutable slice; `f`
    /// receives the chunk index and the chunk.  Used by blocked scans and
    /// radix passes.  Charges one round and `items.len()` operations.
    pub fn par_chunks_mut<T, F>(&self, items: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync + Send,
    {
        let chunk = chunk.max(1);
        self.charge_step(items.len() as u64);
        match self.mode {
            Mode::Sequential => {
                for (i, c) in items.chunks_mut(chunk).enumerate() {
                    f(i, c);
                }
            }
            Mode::Parallel => items
                .par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(i, c)| f(i, c)),
        }
    }

    /// Parallel loop over equally sized chunks of a shared slice.
    pub fn par_chunks<T, F>(&self, items: &[T], chunk: usize, f: F)
    where
        T: Sync,
        F: Fn(usize, &[T]) + Sync + Send,
    {
        let chunk = chunk.max(1);
        self.charge_step(items.len() as u64);
        match self.mode {
            Mode::Sequential => {
                for (i, c) in items.chunks(chunk).enumerate() {
                    f(i, c);
                }
            }
            Mode::Parallel => items
                .par_chunks(chunk)
                .enumerate()
                .for_each(|(i, c)| f(i, c)),
        }
    }

    /// Parallel unstable sort — charged as a sorting step
    /// (`n` operations per round over `ceil(log2 n)` rounds, the comparison
    /// model cost; integer sorting in `sfcp-parprim` charges less work, which
    /// is exactly the difference the paper exploits).
    pub fn par_sort_unstable<T: Ord + Send>(&self, items: &mut [T]) {
        let n = items.len() as u64;
        let rounds = crate::ceil_log2(items.len()) as u64;
        self.tracker.charge_work(n.saturating_mul(rounds.max(1)));
        self.tracker.charge_rounds(rounds.max(1));
        match self.mode {
            Mode::Sequential => items.sort_unstable(),
            Mode::Parallel => items.par_sort_unstable(),
        }
    }

    /// Parallel unstable sort by key, charged like [`Ctx::par_sort_unstable`].
    pub fn par_sort_unstable_by_key<T, K, F>(&self, items: &mut [T], key: F)
    where
        T: Send,
        K: Ord + Send,
        F: Fn(&T) -> K + Sync + Send,
    {
        let n = items.len() as u64;
        let rounds = crate::ceil_log2(items.len()) as u64;
        self.tracker.charge_work(n.saturating_mul(rounds.max(1)));
        self.tracker.charge_rounds(rounds.max(1));
        match self.mode {
            Mode::Sequential => items.sort_unstable_by_key(key),
            Mode::Parallel => items.par_sort_unstable_by_key(key),
        }
    }

    /// Parallel stable sort by key.
    pub fn par_sort_by_key<T, K, F>(&self, items: &mut [T], key: F)
    where
        T: Send,
        K: Ord + Send,
        F: Fn(&T) -> K + Sync + Send,
    {
        let n = items.len() as u64;
        let rounds = crate::ceil_log2(items.len()) as u64;
        self.tracker.charge_work(n.saturating_mul(rounds.max(1)));
        self.tracker.charge_rounds(rounds.max(1));
        match self.mode {
            Mode::Sequential => items.sort_by_key(key),
            Mode::Parallel => items.par_sort_by_key(key),
        }
    }

    /// Parallel reduce with an associative combiner over `0..n` mapped through
    /// `map` — charged as one round of `n` operations plus `log n` combine
    /// rounds.
    pub fn par_reduce_idx<T, M, R>(&self, n: usize, identity: T, map: M, reduce: R) -> T
    where
        T: Send + Sync + Clone,
        M: Fn(usize) -> T + Sync + Send,
        R: Fn(T, T) -> T + Sync + Send,
    {
        self.charge_step(n as u64);
        self.charge_rounds(crate::ceil_log2(n) as u64);
        match self.mode {
            Mode::Sequential => (0..n).map(map).fold(identity, reduce),
            Mode::Parallel => (0..n)
                .into_par_iter()
                .with_min_len(self.grain)
                .map(map)
                .reduce(|| identity.clone(), reduce),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_modes() -> [Ctx; 2] {
        [Ctx::sequential(), Ctx::parallel()]
    }

    #[test]
    fn par_map_idx_matches_sequential_semantics() {
        for ctx in both_modes() {
            let v = ctx.par_map_idx(100, |i| i * 2);
            assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_for_idx_side_effects() {
        use std::sync::atomic::{AtomicU64, Ordering};
        for ctx in both_modes() {
            let acc = AtomicU64::new(0);
            ctx.par_for_idx(1000, |i| {
                acc.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(acc.load(Ordering::Relaxed), 999 * 1000 / 2);
        }
    }

    #[test]
    fn par_map_slice_and_update() {
        for ctx in both_modes() {
            let input: Vec<u32> = (0..257).collect();
            let doubled = ctx.par_map_slice(&input, |&x| x * 2);
            assert_eq!(doubled[200], 400);

            let mut data: Vec<u32> = vec![0; 513];
            ctx.par_update(&mut data, |i, x| *x = i as u32 + 1);
            assert_eq!(data[0], 1);
            assert_eq!(data[512], 513);
        }
    }

    #[test]
    fn par_chunks_cover_everything() {
        for ctx in both_modes() {
            let mut data = vec![0u32; 1000];
            ctx.par_chunks_mut(&mut data, 64, |ci, chunk| {
                for x in chunk.iter_mut() {
                    *x = ci as u32;
                }
            });
            assert_eq!(data[0], 0);
            assert_eq!(data[63], 0);
            assert_eq!(data[64], 1);
            assert_eq!(data[999], (999 / 64) as u32);
        }
    }

    #[test]
    fn sorts_work_in_both_modes() {
        for ctx in both_modes() {
            let mut v: Vec<i64> = (0..500).rev().collect();
            ctx.par_sort_unstable(&mut v);
            assert!(v.windows(2).all(|w| w[0] <= w[1]));

            let mut pairs: Vec<(u32, u32)> = (0..300).map(|i| (300 - i, i)).collect();
            ctx.par_sort_by_key(&mut pairs, |p| p.0);
            assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn reduce_matches() {
        for ctx in both_modes() {
            let total = ctx.par_reduce_idx(1000, 0u64, |i| i as u64, |a, b| a + b);
            assert_eq!(total, 999 * 1000 / 2);
        }
    }

    #[test]
    fn work_and_rounds_are_mode_independent() {
        let seq = Ctx::sequential();
        let par = Ctx::parallel();
        for ctx in [&seq, &par] {
            let _ = ctx.par_map_idx(1024, |i| i + 1);
            ctx.par_for_idx(512, |_| ());
            let mut v: Vec<u32> = (0..256).rev().collect();
            ctx.par_sort_unstable(&mut v);
        }
        assert_eq!(seq.stats(), par.stats());
        assert!(seq.stats().work >= 1024 + 512);
    }

    #[test]
    fn untracked_records_nothing() {
        let ctx = Ctx::untracked(Mode::Parallel);
        let _ = ctx.par_map_idx(4096, |i| i);
        assert_eq!(ctx.stats(), Stats::ZERO);
    }
}
