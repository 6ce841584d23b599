//! The Euler-tour technique on rooted forests.
//!
//! Section 4 of the paper assumes "the trees are stored in the form of
//! adjacency lists suitable for constructing their Euler tours" and then
//! computes node levels, marks nodes, and unmarks whole subtrees — all of
//! which are Euler-tour computations.  This module provides:
//!
//! * [`RootedForest`] — a parent array plus CSR children lists;
//! * [`EulerTour::build`] — the Tarjan–Vishkin construction: one *down* arc
//!   and one *up* arc per node (the root's arcs are virtual, so every tree
//!   with `s` nodes contributes exactly `2s` arcs), a successor function, and
//!   a list-ranking pass that turns the linked tour into array positions;
//! * [`EulerTour::levels`] — depth of every node below its root;
//! * [`EulerTour::ancestor_sums`] — for every node, the sum of a per-node
//!   value over its *proper ancestors*.  With 0/1 values this implements
//!   step 3 of *Algorithm tree node labeling* ("for each unmarked node,
//!   unmark all of its descendants") in `O(n)` work;
//! * [`EulerTour::subtree_sizes`] — number of nodes in every subtree.
//!
//! Work `O(n)` (plus the list-ranking cost), depth `O(log n)`.

use crate::listrank::{is_sampled_ruler, list_rank_into};
use crate::scan::scan_generic_into;
use sfcp_pram::{Ctx, Error};

/// A rooted forest on nodes `0..n`: `parent[r] == r` exactly for roots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedForest {
    parent: Vec<u32>,
    /// CSR offsets into `children`, length `n + 1`.
    child_start: Vec<u32>,
    /// Children of every node, grouped by parent, ascending node id inside a
    /// group.
    children: Vec<u32>,
}

impl RootedForest {
    /// Build the forest from a parent array (the hot path: `decompose` calls
    /// this once per run with parents that are acyclic by construction).
    ///
    /// The children lists come out of the parallel CSR builder
    /// ([`crate::csr::build_csr_into`]), so every intermediate is a workspace
    /// checkout; the only fresh allocations are the two retained CSR vectors
    /// of the returned structure.
    ///
    /// The parent pointers are **not** checked for acyclicity here — use
    /// [`RootedForest::from_parents_checked`] for untrusted input.  Both
    /// constructors charge identical work/depth: the documented model cost
    /// includes the validation pass, which this fast path charges without
    /// executing (see DESIGN.md, "CSR construction"), exactly like the
    /// early-exit loops of `jump.rs` charge their skipped rounds.
    ///
    /// # Panics
    /// Panics if an index is out of range.  On cyclic input the structure is
    /// returned malformed (downstream Euler-tour passes will misbehave);
    /// debug builds of `decompose` go through the checked constructor.
    #[must_use]
    pub fn from_parents(ctx: &Ctx, parent: Vec<u32>) -> Self {
        let forest = Self::build_unchecked(ctx, parent);
        // Charge (without executing) the acyclicity walk of the checked
        // constructor, keeping the fast path's charges identical to it and
        // to the pre-split constructor.
        ctx.charge_step(forest.len() as u64);
        forest
    }

    /// [`RootedForest::from_parents`] plus full typed validation — the
    /// constructor for untrusted parent arrays (tests, debug builds,
    /// external input).  Charges exactly what the unchecked fast path
    /// charges.
    ///
    /// # Errors
    /// [`Error::TooLarge`] for `parent.len() >= 2^31` (indices must stay
    /// below the bit-31 ruler flag of the ranking machinery),
    /// [`Error::OutOfRange`] for an out-of-range parent pointer, and
    /// [`Error::CycleDetected`] when the parent pointers contain a cycle
    /// (i.e. the input is not a forest).
    pub fn from_parents_checked(ctx: &Ctx, parent: Vec<u32>) -> Result<Self, Error> {
        sfcp_pram::check_index_width(parent.len())?;
        let n = parent.len();
        for (i, &p) in parent.iter().enumerate() {
            if p as usize >= n {
                return Err(Error::OutOfRange {
                    what: "parent",
                    index: i,
                    value: p,
                    len: n,
                });
            }
        }
        let forest = Self::build_unchecked(ctx, parent);
        forest.check_acyclic(ctx)?;
        Ok(forest)
    }

    /// Shared constructor body: range check + CSR children build.
    fn build_unchecked(ctx: &Ctx, parent: Vec<u32>) -> Self {
        let n = parent.len();
        for (i, &p) in parent.iter().enumerate() {
            assert!((p as usize) < n, "parent[{i}] = {p} out of range");
        }
        // Children lists: group child ids by parent (roots contribute
        // nothing).  The ascending stream makes every group ascending, and
        // the builder's model charge (count + prefix + scatter, one round of
        // n each) is exactly what the inline sequential build charged.
        let mut child_start = Vec::new();
        let mut children = Vec::new();
        {
            let parent = &parent;
            crate::csr::build_csr_into(
                ctx,
                n,
                n,
                |i| {
                    let p = parent[i];
                    (p as usize != i).then_some((p, i as u32))
                },
                &mut child_start,
                &mut children,
            );
        }
        RootedForest {
            parent,
            child_start,
            children,
        }
    }

    /// The acyclicity walk: visit every node once with memoized states; if a
    /// walk revisits a node already on its own path, the parent pointers
    /// contain a cycle.  `0` = unvisited, `1` = on the current path,
    /// `2` = finished.  One charged round of `n` operations on success; the
    /// error path charges nothing (the caller discards the forest anyway).
    fn check_acyclic(&self, ctx: &Ctx) -> Result<(), Error> {
        let n = self.parent.len();
        let ws = ctx.workspace();
        let mut state = ws.take_u8(n);
        state.fill(0);
        // Checked out empty and grown while out; the pool's byte accounting
        // picks the growth up on return (`Workspace::pooled_bytes`).
        let mut stack = ws.take_u32(0);
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let mut cur = start;
            stack.clear();
            loop {
                match state[cur] {
                    0 => {
                        state[cur] = 1;
                        stack.push(cur as u32);
                        let p = self.parent[cur] as usize;
                        if p == cur {
                            break;
                        }
                        cur = p;
                    }
                    1 => return Err(Error::CycleDetected { node: cur as u32 }),
                    _ => break,
                }
            }
            for &v in stack.iter() {
                state[v as usize] = 2;
            }
        }
        ctx.charge_step(n as u64);
        Ok(())
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `v` (itself for roots).
    #[must_use]
    pub fn parent(&self, v: u32) -> u32 {
        self.parent[v as usize]
    }

    /// The parent array.
    #[must_use]
    pub fn parents(&self) -> &[u32] {
        &self.parent
    }

    /// Whether `v` is a root.
    #[must_use]
    pub fn is_root(&self, v: u32) -> bool {
        self.parent[v as usize] == v
    }

    /// Children of `v`.
    #[must_use]
    pub fn children(&self, v: u32) -> &[u32] {
        let s = self.child_start[v as usize] as usize;
        let e = self.child_start[v as usize + 1] as usize;
        &self.children[s..e]
    }

    /// All roots, in ascending order.
    #[must_use]
    pub fn roots(&self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .filter(|&v| self.is_root(v))
            .collect()
    }
}

/// Arc identifiers: the down arc (entering `v` from its parent) is `2v`, the
/// up arc (leaving `v` back to its parent) is `2v + 1`.  Roots get virtual
/// down/up arcs so that every tree of `s` nodes has a tour of exactly `2s`
/// arcs and prefix sums over a whole tree cancel to zero.
#[inline]
fn down(v: u32) -> u32 {
    2 * v
}
#[inline]
fn up(v: u32) -> u32 {
    2 * v + 1
}

/// Emit the successor of every arc node `v` settles — its own down arc and
/// the up arcs of its children (consecutive children chain up→down, the
/// last child bounces to `up(v)`, a root terminates its own up arc).  The
/// third argument marks the one head slot of each tree: the down arc of a
/// root, which no other arc points to.
#[inline]
fn settle_node<W: FnMut(u32, u32, bool)>(forest: &RootedForest, v: u32, emit: &mut W) {
    let kids = forest.children(v);
    let root = forest.is_root(v);
    match kids.first() {
        Some(&c) => emit(down(v), down(c), root),
        None => emit(down(v), up(v), root),
    }
    for w in kids.windows(2) {
        emit(up(w[0]), down(w[1]), false);
    }
    if let Some(&last) = kids.last() {
        emit(up(last), up(v), false);
    }
    if root {
        emit(up(v), up(v), false);
    }
}

/// The shared successor-construction pass: stream every node's CSR child
/// list and write each arc's (optionally transformed) successor exactly
/// once.  Charges one round of `2n` operations (one per arc).
fn arc_successor_pass<T>(ctx: &Ctx, forest: &RootedForest, succ: &mut [u32], transform: T)
where
    T: Fn(u32, u32, bool) -> u32 + Sync + Send,
{
    sfcp_pram::faults::on_engine_pass();
    let _span = ctx.span("arc_successors");
    let n = forest.len();
    assert_eq!(succ.len(), 2 * n, "tour successor slice must hold 2n arcs");
    let succ_ptr = SendPtr(succ.as_mut_ptr());
    ctx.par_for_idx(n, |vi| {
        let sp = succ_ptr;
        settle_node(forest, vi as u32, &mut |slot, val, head| {
            // SAFETY: each arc slot has exactly one writer (see the covering
            // argument on `arc_successors_into`).
            unsafe {
                *sp.0.add(slot as usize) = transform(slot, val, head);
            }
        });
    });
    // One round of n was charged for the per-node dispatch; the pass
    // settles 2n arcs, one operation each.
    ctx.charge_work(n as u64);
}

/// Scatter `±value` deltas at every node's entry/exit tour positions.
/// Charged one round of `n` (two disjoint writes per node).
fn scatter_entry_exit_deltas<T, F>(ctx: &Ctx, entry: &[u32], exit: &[u32], deltas: &mut [T], f: F)
where
    T: Copy + Send + Sync,
    F: Fn(usize) -> (T, T) + Sync + Send,
{
    let ptr = SendPtr(deltas.as_mut_ptr());
    ctx.par_for_idx(entry.len(), |v| {
        let p = ptr;
        let (plus, minus) = f(v);
        // SAFETY: entry/exit positions are all distinct.
        unsafe {
            *p.0.add(entry[v] as usize) = plus;
            *p.0.add(exit[v] as usize) = minus;
        }
    });
}

/// An Euler tour of a [`RootedForest`], with global positions.
///
/// Trees are laid out one after another (in ascending order of root id) in a
/// single global position space of size `2n`, which lets a single prefix scan
/// serve all trees at once: the per-tree contributions cancel, so no
/// segmentation is necessary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EulerTour {
    /// Global position of every node's down arc.
    entry: Vec<u32>,
    /// Global position of every node's up arc.
    exit: Vec<u32>,
}

impl EulerTour {
    /// Construct the tour of `forest`.
    ///
    /// Equivalent to [`EulerTour::arc_successors_into`] + a
    /// [`crate::listrank::list_rank_into`] over the `2n` arcs +
    /// [`EulerTour::from_arc_ranks`]; `decompose` uses the split entry
    /// points to rank the tour and the broken-cycle chains in one fused
    /// ranking invocation (see DESIGN.md, "List ranking").
    #[must_use]
    pub fn build(ctx: &Ctx, forest: &RootedForest) -> Self {
        sfcp_pram::faults::on_engine_pass();
        let _span = ctx.span("euler_build");
        let n = forest.len();
        if n == 0 {
            return EulerTour {
                entry: Vec::new(),
                exit: Vec::new(),
            };
        }
        let ws = ctx.workspace();
        let mut succ = ws.take_u32(2 * n);
        Self::arc_successors_into(ctx, forest, &mut succ);
        // Rank every arc: distance to its tree's terminal arc.
        let mut dist = ws.take_u32(0);
        list_rank_into(ctx, &succ, &mut dist);
        Self::from_arc_ranks(ctx, forest, &dist)
    }

    /// The successor function of the tour (a collection of linked lists, one
    /// per tree, terminated at the root's up arc), written into
    /// `succ[..2n]`.  One pass per *node* streaming its CSR children list: v
    /// settles its own down arc and the up arcs of all its children
    /// (consecutive children chain up→down, the last child bounces to
    /// up(v)).  Every arc is written exactly once — down(v) at v; up(v) at
    /// v's parent, or at v itself when v is a root (the tree's terminal arc)
    /// — and, unlike the former per-arc formulation, no arc has to *search*
    /// for its position among its siblings, so the pass is linear even on
    /// star-shaped trees (one round, `2n` operations: one per arc).
    ///
    /// Taking the output slice lets `decompose` lay the tour arcs and the
    /// broken-cycle chains out in one buffer and rank both with a single
    /// ranking invocation.
    ///
    /// # Panics
    /// Panics if `succ.len() != 2 * forest.len()`.
    pub fn arc_successors_into(ctx: &Ctx, forest: &RootedForest, succ: &mut [u32]) {
        arc_successor_pass(ctx, forest, succ, |_, val, _| val);
    }

    /// [`EulerTour::arc_successors_into`] with the ruler flags of the
    /// list ranking ORed into each word as it is written — the
    /// Euler half of the `has_pred` fold (see
    /// [`crate::listrank::list_rank_flagged_into`] for the flag contract).
    /// The heads of the tour lists are known analytically — the down arc of
    /// every root, and nothing else, has no predecessor — so no sampling
    /// pre-pass over the successor array is ever needed.  `domain_len` is
    /// the length of the full successor array the ranking will run over
    /// (`2n` for a standalone tour; `2n + m` when broken-cycle chains are
    /// fused behind the arcs, as in `decompose`).
    ///
    /// Charges exactly what [`EulerTour::arc_successors_into`] charges.
    ///
    /// # Panics
    /// Panics if `succ.len() != 2 * forest.len()` or
    /// `domain_len >= 2^31` (the flag bit must stay out of the index
    /// space).
    pub fn arc_successors_flagged_into(
        ctx: &Ctx,
        forest: &RootedForest,
        succ: &mut [u32],
        domain_len: usize,
    ) {
        assert!(
            domain_len < (1 << 31) && domain_len >= succ.len(),
            "flagged successor domains pack a flag bit above a 31-bit index"
        );
        arc_successor_pass(ctx, forest, succ, move |slot, val, head| {
            let ruler = head || val == slot || is_sampled_ruler(slot as usize, domain_len);
            val | (u32::from(ruler) << 31)
        });
    }

    /// Fallible [`EulerTour::from_arc_ranks`]: the entry point for arc-rank
    /// streams of untrusted length (e.g. truncated inputs).
    ///
    /// # Errors
    /// [`Error::LengthMismatch`] when `dist.len() < 2 * forest.len()`.
    pub fn try_from_arc_ranks(
        ctx: &Ctx,
        forest: &RootedForest,
        dist: &[u32],
    ) -> Result<Self, Error> {
        if dist.len() < 2 * forest.len() {
            return Err(Error::LengthMismatch {
                what: "arc ranking must cover all 2n arcs",
                left: dist.len(),
                right: 2 * forest.len(),
            });
        }
        Ok(Self::from_arc_ranks(ctx, forest, dist))
    }

    /// Finish the tour from the arc ranking: `dist[a]` is the distance of
    /// arc `a` (in the `down`/`up` arc numbering) to its tree's terminal
    /// arc, i.e. the output of ranking [`EulerTour::arc_successors_into`].
    ///
    /// # Panics
    /// Panics if `dist.len() < 2 * forest.len()`.
    #[must_use]
    pub fn from_arc_ranks(ctx: &Ctx, forest: &RootedForest, dist: &[u32]) -> Self {
        if forest.is_empty() {
            return EulerTour {
                entry: Vec::new(),
                exit: Vec::new(),
            };
        }
        // Standalone callers have no root array at hand; compute one here.
        // `decompose` threads its once-computed roots through
        // [`EulerTour::from_arc_ranks_with_roots`] instead.
        let ws = ctx.workspace();
        let mut root_of = ws.take_u32(0);
        crate::jump::find_roots_into(ctx, forest.parents(), &mut root_of);
        Self::from_arc_ranks_with_roots(ctx, forest, dist, &root_of)
    }

    /// [`EulerTour::from_arc_ranks`] with a caller-provided root array
    /// (`root_of[v]` = the root of `v`'s tree, i.e. the output of
    /// [`crate::jump::find_roots`] on `forest.parents()`).  This is the
    /// root-threading entry: `decompose` computes the root array **once**
    /// and reuses it here, for the `cycle_of` propagation, and for tree
    /// labelling, instead of re-running pointer jumping three times.
    ///
    /// Charges [`EulerTour::from_arc_ranks`]'s cost minus the root
    /// computation the caller already paid for.
    ///
    /// # Panics
    /// Panics if `dist` or `root_of` are shorter than the forest requires.
    #[must_use]
    pub fn from_arc_ranks_with_roots(
        ctx: &Ctx,
        forest: &RootedForest,
        dist: &[u32],
        root_of: &[u32],
    ) -> Self {
        sfcp_pram::faults::on_engine_pass();
        let _span = ctx.span("euler_from_ranks");
        let n = forest.len();
        if n == 0 {
            return EulerTour {
                entry: Vec::new(),
                exit: Vec::new(),
            };
        }
        let num_arcs = 2 * n;
        assert!(dist.len() >= num_arcs, "arc ranking must cover all 2n arcs");
        assert!(root_of.len() >= n, "root array must cover every node");
        let dist = &dist[..num_arcs];
        let ws = ctx.workspace();

        // Tour length of the tree containing v = dist[down(root)] + 1; the
        // position of an arc inside its own tree is length - 1 - dist.
        // Global positions: trees are concatenated by ascending root id.
        // Only root slots of `tree_offset` are written, and only root slots
        // are read (through `root_of`), so no fill is needed.
        let mut tree_offset = ws.take_u32(n); // offset by root id
        let mut acc = 0u32;
        let mut num_roots = 0u64;
        for v in 0..n as u32 {
            if forest.is_root(v) {
                tree_offset[v as usize] = acc;
                acc += dist[down(v) as usize] + 1;
                num_roots += 1;
            }
        }
        debug_assert_eq!(acc as usize, num_arcs);
        ctx.charge_step(num_roots);

        // One fused pass computes both position arrays: the root lookup, tour
        // length and tree offset gathers are shared, and a node's down/up
        // arc ranks are adjacent in `dist`.  The model computes entry and
        // exit as two parallel maps; the fused pass charges both.
        let mut entry = vec![0u32; n];
        let mut exit = vec![0u32; n];
        {
            let entry_ptr = SendPtr(entry.as_mut_ptr());
            let exit_ptr = SendPtr(exit.as_mut_ptr());
            let (dist, tree_offset) = (&dist, &tree_offset);
            ctx.par_for_idx(n, |v| {
                let r = root_of[v];
                let len = dist[down(r) as usize] + 1;
                let base = tree_offset[r as usize] + len - 1;
                let (ep, xp) = (entry_ptr, exit_ptr);
                // SAFETY: each v writes its own slot in both arrays.
                unsafe {
                    *ep.0.add(v) = base - dist[down(v as u32) as usize];
                    *xp.0.add(v) = base - dist[up(v as u32) as usize];
                }
            });
            ctx.charge_step(n as u64);
        }

        EulerTour { entry, exit }
    }

    /// Number of nodes the tour covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entry.len()
    }

    /// Whether the tour is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entry.is_empty()
    }

    /// Global position of the arc entering `v`.
    #[must_use]
    pub fn entry(&self, v: u32) -> u32 {
        self.entry[v as usize]
    }

    /// Global position of the arc leaving `v`.
    #[must_use]
    pub fn exit(&self, v: u32) -> u32 {
        self.exit[v as usize]
    }

    /// `true` iff `u` is an ancestor of `v` (every node is its own ancestor).
    #[must_use]
    pub fn is_ancestor(&self, u: u32, v: u32) -> bool {
        self.entry(u) <= self.entry(v) && self.exit(v) <= self.exit(u)
    }

    /// Number of nodes in the subtree rooted at every node.
    #[must_use]
    pub fn subtree_sizes(&self, ctx: &Ctx) -> Vec<u32> {
        ctx.par_map_idx(self.len(), |v| (self.exit[v] - self.entry[v]).div_ceil(2))
    }

    /// For every node `v`, the sum of `values[u]` over all *proper* ancestors
    /// `u` of `v` (not including `v` itself).
    ///
    /// Values must be small enough that the total fits in `i64`.
    #[must_use]
    pub fn ancestor_sums(&self, ctx: &Ctx, values: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        self.ancestor_sums_into(ctx, values, &mut out);
        out
    }

    /// [`EulerTour::ancestor_sums`] writing into a reusable output buffer;
    /// the delta and prefix intermediates are workspace checkouts, so the
    /// whole pass is allocation-free once the pools are warm.
    pub fn ancestor_sums_into(&self, ctx: &Ctx, values: &[u64], out: &mut Vec<u64>) {
        sfcp_pram::faults::on_engine_pass();
        let _span = ctx.span("ancestor_sums");
        let n = self.len();
        assert_eq!(values.len(), n);
        out.clear();
        if n == 0 {
            return;
        }
        // Scatter +value at entry positions and -value at exit positions,
        // then an exclusive prefix sum evaluated at entry(v) counts exactly
        // the currently-open nodes, i.e. v's proper ancestors (v's own +value
        // sits *at* entry(v) and is excluded by exclusivity).  The entry/exit
        // positions cover 0..2n exactly, so the scatter fully overwrites the
        // checked-out delta buffer.
        let ws = ctx.workspace();
        let mut deltas = ws.take_i64(2 * n);
        scatter_entry_exit_deltas(ctx, &self.entry, &self.exit, &mut deltas, |v| {
            (values[v] as i64, -(values[v] as i64))
        });
        let mut prefix = ws.take_i64(0);
        scan_generic_into(ctx, &deltas, 0i64, |a, b| a + b, false, &mut prefix);
        out.resize(n, 0);
        ctx.par_update(out, |v, s| {
            let sum = prefix[self.entry[v] as usize];
            debug_assert!(sum >= 0);
            *s = sum as u64;
        });
    }

    /// Specialization of [`EulerTour::ancestor_sums_into`] for 0/1 flag
    /// values: for every node, the number of *proper* ancestors whose flag is
    /// set.  Counts are bounded by `n`, so the deltas and the prefix scan run
    /// over u32 words in two's complement (wrapping adds), halving the
    /// memory traffic of the i64 general case.  The passes and charges are
    /// identical to [`EulerTour::ancestor_sums_into`].
    ///
    /// # Panics
    /// Debug-asserts every flag is 0 or 1.
    pub fn ancestor_counts_into(&self, ctx: &Ctx, flags: &[u64], out: &mut Vec<u64>) {
        sfcp_pram::faults::on_engine_pass();
        let _span = ctx.span("ancestor_counts");
        let n = self.len();
        assert_eq!(flags.len(), n);
        debug_assert!(flags.iter().all(|&v| v <= 1), "flags must be 0/1");
        out.clear();
        if n == 0 {
            return;
        }
        let ws = ctx.workspace();
        let mut deltas = ws.take_u32(2 * n);
        scatter_entry_exit_deltas(ctx, &self.entry, &self.exit, &mut deltas, |v| {
            let f = flags[v] as u32;
            (f, f.wrapping_neg())
        });
        let mut prefix = ws.take_u32(0);
        scan_generic_into(
            ctx,
            &deltas,
            0u32,
            |a, b| a.wrapping_add(b),
            false,
            &mut prefix,
        );
        out.resize(n, 0);
        ctx.par_update(out, |v, s| {
            let count = prefix[self.entry[v] as usize];
            debug_assert!(count as usize <= n);
            *s = u64::from(count);
        });
    }

    /// Depth of every node below its root (roots have level 0).
    #[must_use]
    pub fn levels(&self, ctx: &Ctx) -> Vec<u32> {
        let mut out = Vec::new();
        self.levels_into(ctx, &mut out);
        out
    }

    /// [`EulerTour::levels`] writing into a reusable output buffer.
    ///
    /// Specializes [`EulerTour::ancestor_counts_into`] for the all-ones
    /// flag vector: the flags array never materializes (every entry
    /// position scatters `+1`, every exit `−1`), and the count-to-level
    /// copy is fused into the prefix gather.  Charges exactly what the
    /// unspecialized pipeline charges — the skipped copy pass is charged
    /// without being executed (DESIGN.md, "Charge discipline").
    pub fn levels_into(&self, ctx: &Ctx, out: &mut Vec<u32>) {
        sfcp_pram::faults::on_engine_pass();
        let _span = ctx.span("levels");
        let n = self.len();
        out.clear();
        if n == 0 {
            return;
        }
        let ws = ctx.workspace();
        let mut deltas = ws.take_u32(2 * n);
        scatter_entry_exit_deltas(ctx, &self.entry, &self.exit, &mut deltas, |_| {
            (1u32, 1u32.wrapping_neg())
        });
        let mut prefix = ws.take_u32(0);
        scan_generic_into(
            ctx,
            &deltas,
            0u32,
            |a, b| a.wrapping_add(b),
            false,
            &mut prefix,
        );
        out.resize(n, 0);
        ctx.par_update(out, |v, l| {
            let count = prefix[self.entry[v] as usize];
            debug_assert!((count as usize) < n.max(1));
            *l = count;
        });
        // The unspecialized pipeline runs a separate u64 count buffer and a
        // count-to-level copy pass; charge the copy without executing it.
        ctx.charge_step(n as u64);
    }
}

#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: `SendPtr` only smuggles a raw base pointer into parallel tasks
// whose writes target disjoint indices; every dereference site carries its
// own SAFETY argument for that disjointness, and the pointee buffer is
// borrowed for the whole parallel region, so it outlives every task.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` across tasks only copies the pointer value —
// no shared-reference method dereferences it, so aliased access to the
// pointee can never originate from the `Sync` impl itself.
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    #[allow(clippy::needless_range_loop)]
    fn random_forest(n: usize, roots: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let roots = roots.clamp(1, n);
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for i in roots..n {
            parent[i] = rng.gen_range(0..i) as u32;
        }
        let mut relabel: Vec<u32> = (0..n as u32).collect();
        relabel.shuffle(&mut rng);
        let mut out = vec![0u32; n];
        for i in 0..n {
            out[relabel[i] as usize] = relabel[parent[i] as usize];
        }
        out
    }

    fn reference_levels(parent: &[u32]) -> Vec<u32> {
        let n = parent.len();
        (0..n)
            .map(|i| {
                let mut d = 0;
                let mut cur = i;
                while parent[cur] as usize != cur {
                    cur = parent[cur] as usize;
                    d += 1;
                }
                d
            })
            .collect()
    }

    #[test]
    fn forest_structure_small() {
        let ctx = Ctx::parallel();
        // 0 is root; children 1,2; 1 has child 3; 4 is an isolated root.
        let forest = RootedForest::from_parents_checked(&ctx, vec![0, 0, 0, 1, 4]).unwrap();
        assert_eq!(forest.len(), 5);
        assert_eq!(forest.roots(), vec![0, 4]);
        assert_eq!(forest.children(0), &[1, 2]);
        assert_eq!(forest.children(1), &[3]);
        assert!(forest.children(4).is_empty());
        assert!(forest.is_root(4));
        assert!(!forest.is_root(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn forest_rejects_out_of_range_parents() {
        let ctx = Ctx::sequential();
        let _ = RootedForest::from_parents(&ctx, vec![0, 5, 1]);
    }

    #[test]
    fn forest_rejects_cycles() {
        let ctx = Ctx::sequential();
        // 1 -> 2 -> 1 cycle.
        let err = RootedForest::from_parents_checked(&ctx, vec![0, 2, 1]).unwrap_err();
        assert!(matches!(err, Error::CycleDetected { .. }));
        assert!(err.to_string().contains("not a rooted forest"));
        // The error path must leave the workspace reconciled.
        assert_eq!(ctx.workspace().stats().outstanding(), 0);
    }

    #[test]
    fn checked_constructor_rejects_out_of_range_with_typed_error() {
        let ctx = Ctx::sequential();
        let err = RootedForest::from_parents_checked(&ctx, vec![0, 5, 1]).unwrap_err();
        assert!(matches!(err, Error::OutOfRange { index: 1, .. }));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn truncated_arc_ranks_are_a_typed_error() {
        let ctx = Ctx::parallel();
        let forest = RootedForest::from_parents(&ctx, vec![0u32, 0, 1]);
        let err = EulerTour::try_from_arc_ranks(&ctx, &forest, &[0u32; 5]).unwrap_err();
        assert!(matches!(
            err,
            Error::LengthMismatch {
                left: 5,
                right: 6,
                ..
            }
        ));
    }

    /// The fast and checked constructors must agree structurally *and* charge
    /// byte-identical work/depth (the fast path charges the skipped
    /// validation pass).
    #[test]
    fn checked_and_unchecked_constructors_agree() {
        for n in [5usize, 300, 3000, 20_000] {
            let parent = random_forest(n, 3, n as u64);
            let fast_ctx = Ctx::parallel();
            let checked_ctx = Ctx::parallel();
            let fast = RootedForest::from_parents(&fast_ctx, parent.clone());
            let checked = RootedForest::from_parents_checked(&checked_ctx, parent).unwrap();
            assert_eq!(fast, checked, "structures diverged at n={n}");
            assert_eq!(
                fast_ctx.stats(),
                checked_ctx.stats(),
                "constructor charges diverged at n={n}"
            );
        }
    }

    #[test]
    fn tour_entry_exit_nesting() {
        let ctx = Ctx::parallel();
        let parent = vec![0u32, 0, 0, 1, 1, 2];
        let forest = RootedForest::from_parents(&ctx, parent.clone());
        let tour = EulerTour::build(&ctx, &forest);
        // Entry/exit positions are a balanced-parenthesis structure.
        for v in 0..parent.len() as u32 {
            assert!(tour.entry(v) < tour.exit(v));
        }
        // Child nested inside parent.
        for v in 0..parent.len() as u32 {
            if !forest.is_root(v) {
                let p = forest.parent(v);
                assert!(tour.entry(p) < tour.entry(v));
                assert!(tour.exit(v) < tour.exit(p));
            }
        }
        // All 2n positions distinct and within range.
        let mut all: Vec<u32> = (0..parent.len() as u32)
            .flat_map(|v| [tour.entry(v), tour.exit(v)])
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..2 * parent.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn levels_and_subtree_sizes_small() {
        let ctx = Ctx::parallel();
        let parent = vec![0u32, 0, 0, 1, 1, 2, 6];
        let forest = RootedForest::from_parents(&ctx, parent);
        let tour = EulerTour::build(&ctx, &forest);
        assert_eq!(tour.levels(&ctx), vec![0, 1, 1, 2, 2, 2, 0]);
        assert_eq!(tour.subtree_sizes(&ctx), vec![6, 3, 2, 1, 1, 1, 1]);
        assert!(tour.is_ancestor(0, 3));
        assert!(tour.is_ancestor(1, 4));
        assert!(!tour.is_ancestor(2, 3));
        assert!(tour.is_ancestor(6, 6));
        assert!(!tour.is_ancestor(0, 6));
    }

    #[test]
    fn ancestor_sums_counts_flagged_ancestors() {
        let ctx = Ctx::parallel();
        // Path 0 <- 1 <- 2 <- 3 <- 4.
        let parent = vec![0u32, 0, 1, 2, 3];
        let forest = RootedForest::from_parents(&ctx, parent);
        let tour = EulerTour::build(&ctx, &forest);
        // Flag nodes 1 and 3.
        let flags = vec![0u64, 1, 0, 1, 0];
        assert_eq!(tour.ancestor_sums(&ctx, &flags), vec![0, 0, 1, 1, 2]);
    }

    /// The split entry points must reproduce `build` exactly, including when
    /// the arc ranking comes from a longer *fused* buffer (tour arcs first,
    /// unrelated chains after) — the layout `decompose` ranks in one
    /// ranking invocation.
    #[test]
    fn split_entry_points_match_build_with_fused_slice() {
        let ctx = Ctx::parallel();
        let parent = vec![0u32, 0, 0, 1, 1, 2, 6];
        let forest = RootedForest::from_parents(&ctx, parent);
        let built = EulerTour::build(&ctx, &forest);
        let n = forest.len();
        let num_arcs = 2 * n;
        // Fused layout: tour successors in [..2n], a 3-element chain after.
        let mut fused = vec![0u32; num_arcs + 3];
        EulerTour::arc_successors_into(&ctx, &forest, &mut fused[..num_arcs]);
        let tail = [
            num_arcs as u32 + 1,
            num_arcs as u32 + 2,
            num_arcs as u32 + 2,
        ];
        fused[num_arcs..].copy_from_slice(&tail);
        let ranks = crate::listrank::list_rank(&ctx, &fused);
        assert_eq!(&ranks[num_arcs..], &[2, 1, 0]);
        let tour = EulerTour::from_arc_ranks(&ctx, &forest, &ranks);
        assert_eq!(built, tour, "fused-slice finish diverged from build");
    }

    #[test]
    fn single_node_trees() {
        let ctx = Ctx::parallel();
        let parent: Vec<u32> = (0..10).collect();
        let forest = RootedForest::from_parents(&ctx, parent);
        let tour = EulerTour::build(&ctx, &forest);
        assert_eq!(tour.levels(&ctx), vec![0; 10]);
        assert_eq!(tour.subtree_sizes(&ctx), vec![1; 10]);
    }

    proptest! {
        #[test]
        fn levels_match_reference(n in 1usize..300, roots in 1usize..6, seed in 0u64..40) {
            let parent = random_forest(n, roots, seed);
            let ctx = Ctx::parallel().with_grain(32);
            let forest = RootedForest::from_parents_checked(&ctx, parent.clone()).unwrap();
            let tour = EulerTour::build(&ctx, &forest);
            prop_assert_eq!(tour.levels(&ctx), reference_levels(&parent));
        }

        #[test]
        fn subtree_sizes_match_reference(n in 1usize..200, seed in 0u64..40) {
            let parent = random_forest(n, 2, seed);
            let ctx = Ctx::parallel().with_grain(32);
            let forest = RootedForest::from_parents_checked(&ctx, parent.clone()).unwrap();
            let tour = EulerTour::build(&ctx, &forest);
            let sizes = tour.subtree_sizes(&ctx);
            // Reference by counting descendants.
            for v in 0..n as u32 {
                let mut count = 0;
                for u in 0..n as u32 {
                    // is u a descendant of v?
                    let mut cur = u;
                    loop {
                        if cur == v { count += 1; break; }
                        let p = parent[cur as usize];
                        if p == cur { break; }
                        cur = p;
                    }
                }
                prop_assert_eq!(sizes[v as usize], count);
            }
        }
    }

    /// Miri target: the arc-layout scatters plus the fused Euler ranking at
    /// a size whose `2n` arc list exceeds the tiny-list Wyllie fallback, so
    /// the ruling-set/bucket walks run their raw-pointer paths.
    #[test]
    fn miri_euler_levels_cross_tiny_list_threshold() {
        let n = 700usize;
        let parent: Vec<u32> = (0..n)
            .map(|i| {
                if i == 0 {
                    0
                } else {
                    ((i as u64).wrapping_mul(2_654_435_761) % i as u64) as u32
                }
            })
            .collect();
        let ctx = Ctx::parallel();
        let forest = RootedForest::from_parents_checked(&ctx, parent.clone()).unwrap();
        let tour = EulerTour::build(&ctx, &forest);
        assert_eq!(tour.levels(&ctx), reference_levels(&parent));
    }
}
