//! Execution context: one code path, one cost model.
//!
//! Every algorithm in the workspace is written against [`Ctx`]: a bundle of
//! a [`Tracker`], the task grain, the probed [`Topology`], a scratch
//! [`Workspace`] and a span [`Trace`].  The helpers on `Ctx` express the
//! canonical PRAM idiom — "for all `i` in parallel do …" — run it on the
//! rayon pool, and charge one round plus `n` operations per invocation
//! (callers charge extra work explicitly when the per-item body is not
//! constant-time).  The charges depend only on the input: the measured
//! work/depth of a run is identical whether it executed on one thread or
//! sixteen, at any grain; only the wall-clock time differs.

use crate::topology::Topology;
use crate::trace::{Span, Trace};
use crate::tracker::{Stats, Tracker};
use crate::workspace::Workspace;
use rayon::prelude::*;

/// Reference task grain (minimum items per rayon task) on hosts with
/// 64-byte cache lines.  The live default is derived per-host by
/// [`Topology::default_grain`] — 32 cache lines of 4-byte elements per task —
/// which reproduces this value on mainstream hardware; the constant remains
/// as the documented reference point.
pub const DEFAULT_GRAIN: usize = 2048;

/// Execution context shared by all algorithms: cost tracker + task grain +
/// host topology + scratch-buffer workspace + span trace.
#[derive(Debug)]
pub struct Ctx {
    tracker: Tracker,
    grain: usize,
    topology: Topology,
    workspace: Workspace,
    trace: Trace,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx::parallel()
    }
}

impl Ctx {
    /// A context with a fresh enabled [`Tracker`], the probed host
    /// [`Topology`] and the task grain derived from it.
    #[must_use]
    pub fn parallel() -> Self {
        let topology = Topology::probe();
        Ctx {
            tracker: Tracker::new(),
            grain: topology.default_grain(),
            topology,
            workspace: Workspace::new(),
            trace: Trace::new(),
        }
    }

    /// A context whose tracker is disabled — the configuration used for pure
    /// wall-clock benchmarking.
    #[must_use]
    pub fn untracked() -> Self {
        Ctx {
            tracker: Tracker::disabled(),
            ..Ctx::parallel()
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

    /// Announce an engine pass named `name`: fire this context's engine-pass
    /// fault hook ([`crate::faults`]), then open the pass's span
    /// ([`Ctx::span`]).  Every `sfcp-parprim` engine primitive calls this at
    /// its entry; the hook has no other public route, so every pass that an
    /// injection can target also shows in the phase tree.  Disabled, it
    /// costs two relaxed loads and charges nothing.
    #[inline]
    #[must_use]
    pub fn pass(&self, name: &'static str) -> Span<'_> {
        self.workspace.faults().on_engine_pass();
        self.span(name)
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
        (0..n)
            .into_par_iter()
            .with_min_len(self.grain)
            .map(f)
            .collect()
    }

    /// `for all i in 0..n pardo f(i)` (side effects only) — one round, `n` ops.
    pub fn par_for_idx<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        self.charge_step(n as u64);
        (0..n).into_par_iter().with_min_len(self.grain).for_each(f);
    }

    /// Parallel map over a slice — one round, `items.len()` operations.
    pub fn par_map_slice<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync + Send,
    {
        self.charge_step(items.len() as u64);
        items.par_iter().with_min_len(self.grain).map(f).collect()
    }

    /// Parallel in-place update of a mutable slice; `f` receives the index and
    /// a mutable reference — one round, `items.len()` operations.
    pub fn par_update<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync + Send,
    {
        self.charge_step(items.len() as u64);
        items
            .par_iter_mut()
            .with_min_len(self.grain)
            .enumerate()
            .for_each(|(i, item)| f(i, item));
    }

    /// Parallel loop over equally sized chunks of a mutable slice; `f`
    /// receives the chunk index and the chunk.  Used by blocked scans and
    /// radix passes.  Charges one round and `items.len()` operations.
    pub fn par_chunks_mut<T, F>(&self, items: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync + Send,
    {
        self.charge_step(items.len() as u64);
        items
            .par_chunks_mut(chunk.max(1))
            .enumerate()
            .for_each(|(i, c)| f(i, c));
    }

    /// Parallel unstable sort by key — charged as a sorting step (`n`
    /// operations per round over `ceil(log2 n)` rounds, the comparison model
    /// cost; integer sorting in `sfcp-parprim` charges less work, which is
    /// exactly the difference the paper exploits).
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
        items.par_sort_unstable_by_key(key);
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
        (0..n)
            .into_par_iter()
            .with_min_len(self.grain)
            .map(map)
            .reduce(|| identity.clone(), reduce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_idx_matches_sequential_semantics() {
        let ctx = Ctx::parallel();
        let v = ctx.par_map_idx(100, |i| i * 2);
        assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_for_idx_side_effects() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let ctx = Ctx::parallel();
        let acc = AtomicU64::new(0);
        ctx.par_for_idx(1000, |i| {
            acc.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn par_map_slice_and_update() {
        let ctx = Ctx::parallel();
        let input: Vec<u32> = (0..257).collect();
        let doubled = ctx.par_map_slice(&input, |&x| x * 2);
        assert_eq!(doubled[200], 400);

        let mut data: Vec<u32> = vec![0; 513];
        ctx.par_update(&mut data, |i, x| *x = i as u32 + 1);
        assert_eq!(data[0], 1);
        assert_eq!(data[512], 513);
    }

    #[test]
    fn par_chunks_cover_everything() {
        let ctx = Ctx::parallel();
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

    #[test]
    fn sort_by_key_sorts_and_charges_the_comparison_model() {
        let ctx = Ctx::parallel();
        let mut pairs: Vec<(u32, u32)> = (0..300).map(|i| (300 - i, i)).collect();
        ctx.par_sort_unstable_by_key(&mut pairs, |p| p.0);
        assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
        // 300 items over ceil(log2 300) = 9 rounds.
        assert_eq!(
            ctx.stats(),
            Stats {
                work: 300 * 9,
                rounds: 9
            }
        );
    }

    #[test]
    fn reduce_matches() {
        let ctx = Ctx::parallel();
        let total = ctx.par_reduce_idx(1000, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(total, 999 * 1000 / 2);
    }

    #[test]
    fn untracked_records_nothing() {
        let ctx = Ctx::untracked();
        let _ = ctx.par_map_idx(4096, |i| i);
        assert_eq!(ctx.stats(), Stats::ZERO);
    }
}
