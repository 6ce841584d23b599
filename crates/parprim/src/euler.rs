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
//! * [`EulerTour::tree_arc_successors_flagged_into`] and
//!   [`EulerTour::from_tree_arc_ranks`] — the same tour ranked over its tree
//!   edges only, leaving the roots' arc slots to the caller;
//! * [`EulerTour::levels`] — depth of every node below its root;
//! * [`EulerTour::ancestor_counts_into`] — for every node, the number of
//!   its *proper ancestors* whose 0/1 flag is set.  This implements step 3
//!   of *Algorithm tree node labeling* ("for each unmarked node, unmark all
//!   of its descendants") in `O(n)` work.
//!
//! Work `O(n)` (plus the list-ranking cost), depth `O(log n)`.

use crate::listrank::{list_rank_into, ruler_sample, RULER_FLAG};
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
/// last child bounces to `up(v)`, a root terminates its own up arc).
///
/// Without `root_arcs` a root owns no arcs: its tour covers only its tree
/// edges, from the down arc of its first child to the up arc of its last
/// child, which terminates.
#[inline]
fn settle_node<W: FnMut(u32, u32)>(forest: &RootedForest, v: u32, root_arcs: bool, emit: &mut W) {
    let kids = forest.children(v);
    let root = forest.is_root(v);
    let owns_arcs = root_arcs || !root;
    if owns_arcs {
        emit(down(v), kids.first().map_or(up(v), |&c| down(c)));
    }
    for w in kids.windows(2) {
        emit(up(w[0]), down(w[1]));
    }
    if let Some(&last) = kids.last() {
        emit(up(last), if owns_arcs { up(v) } else { up(last) });
    }
    if root && root_arcs {
        emit(up(v), up(v));
    }
}

/// The shared successor-construction pass: stream every node's CSR child
/// list and write each arc's (optionally transformed) successor exactly
/// once.  Charges one round of `n` for the per-node dispatch plus `extra`
/// work.
fn arc_successor_pass<T>(
    ctx: &Ctx,
    forest: &RootedForest,
    succ: &mut [u32],
    root_arcs: bool,
    extra: u64,
    transform: T,
) where
    T: Fn(u32, u32) -> u32 + Sync + Send,
{
    let _span = ctx.pass("arc_successors");
    let n = forest.len();
    assert_eq!(succ.len(), 2 * n, "tour successor slice must hold 2n arcs");
    let succ_ptr = SendPtr(succ.as_mut_ptr());
    ctx.par_for_idx(n, |vi| {
        let sp = succ_ptr;
        settle_node(forest, vi as u32, root_arcs, &mut |slot, val| {
            // SAFETY: each arc slot has exactly one writer (see the covering
            // argument on `arc_successors_into`).
            unsafe {
                *sp.0.add(slot as usize) = transform(slot, val);
            }
        });
    });
    ctx.charge_work(extra);
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
    /// [`EulerTour::from_arc_ranks`].  `decompose` builds the same tour
    /// through the tree-edge entry points
    /// ([`EulerTour::tree_arc_successors_flagged_into`] and
    /// [`EulerTour::from_tree_arc_ranks`]), which leave the roots' arc
    /// slots to its broken-cycle chains (see DESIGN.md, "List ranking").
    #[must_use]
    pub fn build(ctx: &Ctx, forest: &RootedForest) -> Self {
        let _span = ctx.pass("euler_build");
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
    /// — and no arc has to *search* for its position among its siblings, so
    /// the pass is linear even on star-shaped trees (one round, `2n`
    /// operations: one per arc).
    ///
    /// # Panics
    /// Panics if `succ.len() != 2 * forest.len()`.
    pub fn arc_successors_into(ctx: &Ctx, forest: &RootedForest, succ: &mut [u32]) {
        // One round of n was charged for the per-node dispatch; the pass
        // settles 2n arcs, one operation each.
        arc_successor_pass(ctx, forest, succ, true, forest.len() as u64, |_, val| val);
    }

    /// The successors of the **tree-edge tour**, flagged for
    /// [`crate::listrank::list_rank_flagged_into`]: the tour
    /// [`EulerTour::arc_successors_into`] builds, minus every root's two
    /// virtual arcs.  A root's tour starts at the down arc of its first
    /// child and ends at the up arc of its last child; a childless root has
    /// no tour words at all.  The two slots a root's arcs would take,
    /// `2r` and `2r + 1`, receive the caller's lists instead:
    /// `root_words(i)` gives, for `r = roots[i]`, the successor of each
    /// slot and whether the slot heads a list (nothing points to it).
    /// `decompose` lays its broken-cycle chains out there, so one ranking
    /// over exactly `2n` words ranks the tours and the chains together.
    ///
    /// The ruler flags are ORed into each word as it is written — the Euler
    /// half of the `has_pred` fold.  Terminals and the hash sample over the
    /// `succ.len()`-word domain are flagged as each word is written, heads
    /// as `root_words` reports them.  The tour heads — the first child's
    /// down arc of every root, the only tree arcs nothing points to — are
    /// flagged by a second pass over the roots, the one that also writes
    /// the roots' slots, since the child writes that word in the first.
    ///
    /// `roots` must hold every root of `forest` once, in any order.
    /// Charges one round of `2n − #roots` (one operation per tree arc plus
    /// one per root visited) and one round of `#roots`.
    ///
    /// # Panics
    /// Panics if `succ.len() != 2 * forest.len()` or `succ.len() >= 2^31`
    /// (the flag bit must stay out of the index space).
    pub fn tree_arc_successors_flagged_into<W>(
        ctx: &Ctx,
        forest: &RootedForest,
        roots: &[u32],
        succ: &mut [u32],
        root_words: W,
    ) where
        W: Fn(usize) -> [(u32, bool); 2] + Sync + Send,
    {
        assert!(
            succ.len() < (1 << 31),
            "flagged successor domains pack a flag bit above a 31-bit index"
        );
        let sampled = ruler_sample(succ.len());
        let word = move |slot: u32, next: u32, head: bool| {
            let ruler = head || next == slot || sampled(slot as usize);
            next | (u32::from(ruler) << 31)
        };
        let tree_nodes = forest.len() - roots.len();
        arc_successor_pass(
            ctx,
            forest,
            succ,
            false,
            tree_nodes as u64,
            move |slot, next| word(slot, next, false),
        );
        let succ_ptr = SendPtr(succ.as_mut_ptr());
        ctx.par_for_idx(roots.len(), |i| {
            let r = roots[i];
            let [(first, first_head), (second, second_head)] = root_words(i);
            let sp = succ_ptr;
            // SAFETY: a root's own slots have no writer in the tour pass,
            // and the roots are distinct.  Every node has one parent, so
            // the first children of distinct roots are distinct too: one
            // writer per slot.
            unsafe {
                *sp.0.add(down(r) as usize) = word(down(r), first, first_head);
                *sp.0.add(up(r) as usize) = word(up(r), second, second_head);
                if let Some(&c) = forest.children(r).first() {
                    *sp.0.add(down(c) as usize) |= RULER_FLAG;
                }
            }
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
    /// The root array comes from [`crate::jump::find_roots_into`] on
    /// `forest.parents()`; `decompose`, which reads its root array off its
    /// ranking's list tails, finishes its tour with
    /// [`EulerTour::from_tree_arc_ranks`] instead.
    ///
    /// # Panics
    /// Panics if `dist.len() < 2 * forest.len()`.
    #[must_use]
    pub fn from_arc_ranks(ctx: &Ctx, forest: &RootedForest, dist: &[u32]) -> Self {
        let n = forest.len();
        if n == 0 {
            return EulerTour {
                entry: Vec::new(),
                exit: Vec::new(),
            };
        }
        let ws = ctx.workspace();
        let mut root_of = ws.take_u32(0);
        crate::jump::find_roots_into(ctx, forest.parents(), &mut root_of);
        let _span = ctx.pass("euler_from_ranks");
        let num_arcs = 2 * n;
        assert!(dist.len() >= num_arcs, "arc ranking must cover all 2n arcs");
        let dist = &dist[..num_arcs];

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
            let (dist, tree_offset, root_of) = (&dist, &tree_offset, &root_of);
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

    /// Finish the tree-edge tour: `dist[a]` is, for every tree arc `a`, its
    /// distance to the up arc of its root's last child — the ranking of
    /// [`EulerTour::tree_arc_successors_flagged_into`]'s words (root slots
    /// are never read).  `roots` lists every root of `forest` in ascending
    /// order and `root_of[v]` is the root of `v`'s tree.  This is the
    /// root-threading entry: `decompose` reads the root array off the list
    /// tails of the same ranking
    /// ([`crate::listrank::list_rank_flagged_into`]) and reuses it here,
    /// for the `cycle_of` propagation, and for tree labelling.
    ///
    /// The result equals [`EulerTour::build`]'s tour bit for bit: a root
    /// whose tree has `s` nodes, at global offset `o`, enters at `o` and
    /// exits at `o + 2s − 1`, and its tree arcs fill the `2(s − 1)`
    /// positions between.  Charges what [`EulerTour::from_arc_ranks`]
    /// charges after its root computation: one round of `#roots` for the
    /// offsets and two of `n` for the positions (entry and exit are two maps
    /// in the model; one fused pass computes both).
    ///
    /// # Panics
    /// Panics if `dist` or `root_of` are shorter than the forest requires.
    #[must_use]
    pub fn from_tree_arc_ranks(
        ctx: &Ctx,
        forest: &RootedForest,
        roots: &[u32],
        dist: &[u32],
        root_of: &[u32],
    ) -> Self {
        let _span = ctx.pass("euler_from_ranks");
        let n = forest.len();
        if n == 0 {
            return EulerTour {
                entry: Vec::new(),
                exit: Vec::new(),
            };
        }
        assert!(dist.len() >= 2 * n, "arc ranking must cover all 2n arcs");
        assert!(root_of.len() >= n, "root array must cover every node");
        debug_assert!(roots.windows(2).all(|w| w[0] < w[1]), "roots ascend");
        // The number of tree arcs of r's tour: 2(s − 1) for a tree of s
        // nodes, which is the rank of its head plus one.
        let tree_arcs = |r: u32| {
            forest
                .children(r)
                .first()
                .map_or(0, |&c| dist[down(c) as usize] + 1)
        };

        // Trees are concatenated by ascending root id, each 2s positions
        // long; `last[r]` is the position just before the root's exit: its
        // tour's terminal arc, or its entry when it has no child.  Only
        // root slots are written and read (through `root_of`), so no fill
        // is needed.
        let ws = ctx.workspace();
        let mut last = ws.take_u32(n);
        let mut acc = 0u32;
        for &r in roots {
            let arcs = tree_arcs(r);
            last[r as usize] = acc + arcs;
            acc += arcs + 2;
        }
        debug_assert_eq!(acc as usize, 2 * n);
        ctx.charge_step(roots.len() as u64);

        // One fused pass computes both position arrays; the model's two
        // parallel maps are both charged.
        let mut entry = vec![0u32; n];
        let mut exit = vec![0u32; n];
        {
            let entry_ptr = SendPtr(entry.as_mut_ptr());
            let exit_ptr = SendPtr(exit.as_mut_ptr());
            let last = &last;
            ctx.par_for_idx(n, |v| {
                let r = root_of[v];
                let base = last[r as usize];
                let (enter, leave) = if r as usize == v {
                    (base - tree_arcs(r), base + 1)
                } else {
                    (base - dist[2 * v], base - dist[2 * v + 1])
                };
                let (ep, xp) = (entry_ptr, exit_ptr);
                // SAFETY: each v writes its own slot in both arrays.
                unsafe {
                    *ep.0.add(v) = enter;
                    *xp.0.add(v) = leave;
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

    /// For every node, the number of its *proper* ancestors (not `v`
    /// itself) whose 0/1 flag is set, written into a reusable output buffer.
    ///
    /// Scatter `+flag` at entry positions and `−flag` at exit positions;
    /// an exclusive prefix sum evaluated at `entry(v)` then counts exactly
    /// the currently open flagged nodes, i.e. `v`'s flagged proper ancestors
    /// (`v`'s own `+flag` sits *at* `entry(v)` and is excluded by
    /// exclusivity).  The entry/exit positions cover `0..2n` exactly, so the
    /// scatter fully overwrites the checked-out delta buffer.  Counts are
    /// bounded by `n`, so the deltas and the scan run over u32 words in
    /// two's complement (wrapping adds).  Charges one scatter round of `n`,
    /// a scan of `2n` and one gather round of `n`.
    ///
    /// # Panics
    /// Debug-asserts every flag is 0 or 1.
    pub fn ancestor_counts_into(&self, ctx: &Ctx, flags: &[u64], out: &mut Vec<u64>) {
        let _span = ctx.pass("ancestor_counts");
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
        let _span = ctx.pass("levels");
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

    /// Subtree sizes read off the tour positions: a subtree of `s` nodes
    /// spans `2s` consecutive positions, from its root's entry to its exit.
    fn subtree_sizes(tour: &EulerTour) -> Vec<u32> {
        (0..tour.len() as u32)
            .map(|v| (tour.exit(v) + 1 - tour.entry(v)) / 2)
            .collect()
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
        let ctx = Ctx::parallel();
        let _ = RootedForest::from_parents(&ctx, vec![0, 5, 1]);
    }

    #[test]
    fn forest_rejects_cycles() {
        let ctx = Ctx::parallel();
        // 1 -> 2 -> 1 cycle.
        let err = RootedForest::from_parents_checked(&ctx, vec![0, 2, 1]).unwrap_err();
        assert!(matches!(err, Error::CycleDetected { .. }));
        assert!(err.to_string().contains("not a rooted forest"));
        // The error path must leave the workspace reconciled.
        assert_eq!(ctx.workspace().stats().outstanding(), 0);
    }

    #[test]
    fn checked_constructor_rejects_out_of_range_with_typed_error() {
        let ctx = Ctx::parallel();
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
        assert_eq!(subtree_sizes(&tour), vec![6, 3, 2, 1, 1, 1, 1]);
        // `u` is an ancestor of `v` iff `v`'s interval nests in `u`'s.
        let is_ancestor =
            |u: u32, v: u32| tour.entry(u) <= tour.entry(v) && tour.exit(v) <= tour.exit(u);
        assert!(is_ancestor(0, 3));
        assert!(is_ancestor(1, 4));
        assert!(!is_ancestor(2, 3));
        assert!(is_ancestor(6, 6));
        assert!(!is_ancestor(0, 6));
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
        let mut counts = Vec::new();
        tour.ancestor_counts_into(&ctx, &flags, &mut counts);
        assert_eq!(counts, vec![0, 0, 1, 1, 2]);
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
        assert_eq!(subtree_sizes(&tour), vec![1; 10]);
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
            let sizes = subtree_sizes(&tour);
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

        /// Step 3's count against a walk up every node's parent chain.
        #[test]
        fn ancestor_counts_match_reference(
            n in 1usize..300,
            roots in 1usize..6,
            seed in 0u64..40,
            flag_mask in any::<u64>(),
        ) {
            let parent = random_forest(n, roots, seed);
            let flags: Vec<u64> = (0..n).map(|v| (flag_mask >> (v % 64)) & 1).collect();
            let ctx = Ctx::parallel().with_grain(32);
            let forest = RootedForest::from_parents_checked(&ctx, parent.clone()).unwrap();
            let tour = EulerTour::build(&ctx, &forest);
            let mut counts = Vec::new();
            tour.ancestor_counts_into(&ctx, &flags, &mut counts);
            for (v, &count) in counts.iter().enumerate() {
                let mut expected = 0;
                let mut cur = v;
                while parent[cur] as usize != cur {
                    cur = parent[cur] as usize;
                    expected += flags[cur];
                }
                prop_assert_eq!(count, expected, "node {}", v);
            }
        }
    }

    /// Miri target: the tree-edge tour's raw-pointer writes — tour arcs,
    /// the roots' slots, the head flags and the position finish — at grain
    /// 4, on a forest with childless and child-bearing roots, over a domain
    /// past the tiny-list threshold.  Each root's slots hold a two-word list
    /// `2r → 2r + 1`, as `decompose`'s cycle chains would.
    #[test]
    fn miri_tree_arc_tour_matches_build() {
        let n = 600u32;
        // Roots 0..40; a tree node hangs below an earlier tree node or an
        // even root, so the odd roots stay childless.
        let parent: Vec<u32> = (0..n)
            .map(|i| match i {
                0..40 => i,
                _ => match (u64::from(i).wrapping_mul(2_654_435_761) % u64::from(i)) as u32 {
                    h @ 0..40 => h & !1,
                    h => h,
                },
            })
            .collect();
        let ctx = Ctx::parallel().with_grain(4);
        let forest = RootedForest::from_parents_checked(&ctx, parent).unwrap();
        let roots = forest.roots();
        assert!(roots.iter().any(|&r| forest.children(r).is_empty()));
        assert!(roots.iter().any(|&r| !forest.children(r).is_empty()));
        let mut succ = vec![0u32; 2 * n as usize];
        EulerTour::tree_arc_successors_flagged_into(&ctx, &forest, &roots, &mut succ, |i| {
            let r = roots[i];
            [(2 * r + 1, true), (2 * r + 1, false)]
        });
        let (mut ranks, mut tails) = (Vec::new(), Vec::new());
        crate::listrank::list_rank_flagged_into(&ctx, &succ, &mut ranks, &mut tails);
        for &r in &roots {
            assert_eq!(ranks[2 * r as usize..][..2], [1, 0], "root {r}'s own list");
        }
        let root_of = crate::jump::find_roots(&ctx, forest.parents());
        for (v, &r) in root_of.iter().enumerate() {
            let tail = match forest.children(r).last() {
                Some(&c) if r as usize != v => 2 * c + 1, // the tour's end
                _ => 2 * r + 1,                           // the root's own list
            };
            assert_eq!(tails[v], tail, "tail of slot {}", 2 * v);
        }
        let tour = EulerTour::from_tree_arc_ranks(&ctx, &forest, &roots, &ranks, &root_of);
        assert_eq!(tour, EulerTour::build(&ctx, &forest));
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
