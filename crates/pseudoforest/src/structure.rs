//! Full structural decomposition of a pseudo-forest: cycles with leaders and
//! positions, the rooted forest of tree nodes, and node levels.
//!
//! This packages step 1 of *Algorithm cycle node labeling* ("label each cycle
//! with one of the indices of the cycle, and then rank all the nodes in each
//! cycle starting from the chosen index") together with the data Section 4
//! assumes ("each tree has been rooted at an arbitrary node of the cycle",
//! levels known, Euler-tour-ready children lists).

use crate::cycles::{cycle_nodes, CycleMethod};
use crate::graph::FunctionalGraph;
use sfcp_parprim::euler::{EulerTour, RootedForest};
use sfcp_parprim::listrank::list_rank_flagged_into;
use sfcp_pram::{Ctx, Error};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The decomposition of a functional graph into cycles and hanging trees.
///
/// The cycles are stored in one flat CSR layout (`cycle_offsets` +
/// `cycle_nodes`) instead of a nested `Vec<Vec<u32>>`: one allocation for all
/// cycles, contiguous in memory for the canonization pass that streams over
/// them, and scatter-friendly for the parallel materialization pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// Whether each node lies on a cycle.
    pub is_cycle: Vec<bool>,
    /// For every node, the id (0-based, by ascending leader) of the cycle of
    /// its pseudo-tree.
    pub cycle_of: Vec<u32>,
    /// For cycle nodes, the position within their cycle counting forward from
    /// the leader (`u32::MAX` for tree nodes).
    pub cycle_pos: Vec<u32>,
    /// CSR offsets into [`Decomposition::cycle_nodes`], length
    /// `num_cycles() + 1`: cycle `c` occupies
    /// `cycle_nodes[cycle_offsets[c] .. cycle_offsets[c + 1]]`.
    pub cycle_offsets: Vec<u32>,
    /// Member nodes of every cycle in cycle order starting at the leader (the
    /// smallest node id of the cycle); cycles concatenated by ascending
    /// leader id.
    pub cycle_nodes: Vec<u32>,
    /// The hanging trees: every cycle node is a root, every non-cycle node's
    /// parent is `f(x)`.
    pub forest: RootedForest,
    /// Euler tour of `forest`.
    pub tour: EulerTour,
    /// Distance of every node to its cycle (0 for cycle nodes).
    pub levels: Vec<u32>,
    /// The root (cycle node) of every node's pseudo-tree — read off the
    /// list tails the fused Euler ranking reports (a tree node's tour ends
    /// at the up arc of its root's last child), and threaded through the
    /// tour finish, the `cycle_of` propagation, and (by `sfcp-core`'s tree
    /// labelling) the Lemma 4.1 correspondence.
    pub roots: Vec<u32>,
}

/// Fallible [`decompose`]: validates the size envelope up front, converts any
/// mid-pipeline panic (including injected faults, see [`sfcp_pram::faults`])
/// into a typed [`Error`], and runs the [`Ctx::recover`] protocol before
/// returning, so the context — and its warm buffer pools — stays usable:
/// `outstanding() == 0`, stable `pooled_bytes()`, and bit-identical charges
/// on the next successful run (see DESIGN.md, "Failure model and recovery").
///
/// # Errors
/// [`Error::TooLarge`] when `2 * g.len()` reaches `2^31` (the fused
/// Euler + broken-cycle ranking domain of `2n` words must keep bit 31 free
/// for the ruler flag, so `n` is capped at `2^30` up front);
/// [`Error::Injected`] / [`Error::Panicked`] when the pipeline unwinds.
pub fn try_decompose(
    ctx: &Ctx,
    g: &FunctionalGraph,
    method: CycleMethod,
) -> Result<Decomposition, Error> {
    // The fused ranking domain is exactly 2n words, so n < 2^30 =
    // MAX_DOMAIN / 2 is the exact bound.
    if g.len() >= sfcp_pram::MAX_DOMAIN / 2 {
        return Err(Error::TooLarge {
            n: g.len(),
            max: sfcp_pram::MAX_DOMAIN / 2,
        });
    }
    match catch_unwind(AssertUnwindSafe(|| decompose(ctx, g, method))) {
        Ok(d) => Ok(d),
        Err(payload) => {
            let err = Error::from_panic(payload);
            ctx.recover();
            Err(err)
        }
    }
}

/// Compute the decomposition.
///
/// Every intermediate of the pipeline — compacted ids, cycle successors, the
/// broken-cycle ranking, leader numbering — is checked out from the `ctx`
/// workspace, so repeated decompositions allocate only the returned structure
/// once the pools are warm.
///
/// The two rankings of the pipeline — the Euler tours over the tree edges
/// and the `m` broken-cycle successor chains — share **one** successor
/// buffer of exactly `2n` words, numbered by node, and are ranked with a
/// **single** list-ranking invocation (the fused Euler ranking; see
/// DESIGN.md, "List ranking"), so the sampling, walk, and contraction
/// passes run once instead of twice.  A tree node's two words are its tour
/// arcs; a cycle node's two words carry its chain, so a root without
/// children adds no tour words and no rulers.  The same invocation reports
/// each tree node's tour end, which names its root, so no pointer jumping
/// runs.
#[must_use]
pub fn decompose(ctx: &Ctx, g: &FunctionalGraph, method: CycleMethod) -> Decomposition {
    let mut span_all = ctx.span("decompose");
    span_all.attr("n", g.len() as u64);
    let n = g.len();
    let f = g.table();
    let span_phase = ctx.span("cycle_nodes");
    let is_cycle = cycle_nodes(ctx, g, method);
    drop(span_phase);
    let ws = ctx.workspace();

    // ---- Cycle structure ----------------------------------------------
    // Compact the cycle nodes and rank them around their cycles.
    let span_phase = ctx.span("cycle_structure");
    let mut cycle_ids = ws.take_u32(0);
    sfcp_parprim::compact::compact_indices_into(ctx, n, |x| is_cycle[x], &mut cycle_ids);
    let m = cycle_ids.len();
    // Only the compacted (cycle-node) slots are ever read back, and all of
    // them are written below, so the checkout needs no fill.
    let mut compact_index = ws.take_u32(n);
    for (j, &x) in cycle_ids.iter().enumerate() {
        compact_index[x as usize] = j as u32;
    }
    ctx.charge_step(m as u64);

    // Successor of a cycle node within the compacted numbering.
    let mut cycle_succ = ws.take_u32(m);
    {
        let (cycle_ids, compact_index) = (&cycle_ids, &compact_index);
        ctx.par_update(&mut cycle_succ, |j, s| {
            let x = cycle_ids[j] as usize;
            *s = compact_index[f[x] as usize];
        });
    }
    // Leader of every cycle = minimum compacted index on the cycle; since
    // cycle_ids is ascending, that is also the minimum node id.
    let mut leader_compact = ws.take_u32(0);
    sfcp_parprim::jump::permutation_cycle_min_into(ctx, &cycle_succ, &mut leader_compact);

    // Dense cycle numbering by ascending leader node id.
    let mut leaders = ws.take_u32(0);
    {
        let leader_compact = &leader_compact;
        sfcp_parprim::compact::compact_indices_into(
            ctx,
            m,
            |j| leader_compact[j] as usize == j,
            &mut leaders,
        );
    }
    let num_cycles = leaders.len();
    // Again only leader slots are read back, so no fill.
    let mut cycle_number_of_leader = ws.take_u32(m);
    for (c, &lj) in leaders.iter().enumerate() {
        cycle_number_of_leader[lj as usize] = c as u32;
    }
    ctx.charge_step(num_cycles as u64);
    drop(span_phase);

    // ---- Tree structure ---------------------------------------------------
    // Root every pseudo-tree at its cycle nodes: cycle nodes become roots of
    // the forest, tree nodes keep parent f(x).  The parents are acyclic by
    // construction (tree nodes point along f towards a cycle-node root), so
    // release builds take the unchecked fast path; debug builds run the
    // checked constructor, which charges identically by design.
    let span_phase = ctx.span("tree_structure");
    let parents: Vec<u32> = ctx.par_map_idx(n, |x| if is_cycle[x] { x as u32 } else { f[x] });
    let forest = if cfg!(debug_assertions) {
        RootedForest::from_parents_checked(ctx, parents)
            .expect("decompose builds acyclic in-range parents")
    } else {
        RootedForest::from_parents(ctx, parents)
    };
    drop(span_phase);

    // ---- Fused Euler ranking domain ---------------------------------------
    // The pipeline needs two rankings: the tree-edge Euler tours (positions
    // along each tree's tour) and the m broken-cycle chains (rank of every
    // cycle node forward from its leader).  Both are successor lists over
    // one buffer of exactly 2n words, numbered by node, and ONE ranking
    // invocation ranks them together: one segment walk, one contracted
    // doubling for both.  A tree node v keeps 2v / 2v + 1 as its down and
    // up arcs; a cycle node x, a root whose tour has no arcs of its own,
    // lends its two slots to its chain, so a root without children costs
    // the ranking no tour words and no rulers.  The ruler flags of the list
    // ranking are ORed into each word as it is written — heads are known
    // analytically (the first child's down arc of every root; the leader of
    // every chain), so the ranking's `has_pred` sampling passes disappear
    // (the `has_pred` fold; see DESIGN.md §7).
    let span_phase = ctx.span("fused_successors");
    let mut fused_succ = ws.take_u32(2 * n);
    {
        // The chain of a cycle runs 2x → 2x + 1 → 2f(x) and breaks just
        // before its leader: 2x + 1 terminates when f(x) is the leader.  A
        // chain's head is its leader's first word (nothing points to it —
        // its predecessor terminated).  The cycle nodes are the roots,
        // listed by `cycle_ids`, so root j is compacted cycle node j.
        let (cycle_ids, cycle_succ, leader_compact) = (&cycle_ids, &cycle_succ, &leader_compact);
        EulerTour::tree_arc_successors_flagged_into(
            ctx,
            &forest,
            cycle_ids,
            &mut fused_succ,
            |j| {
                let x = cycle_ids[j];
                let leader = leader_compact[j];
                let next = if cycle_succ[j] == leader {
                    2 * x + 1 // the successor is the leader: terminate here
                } else {
                    2 * f[x as usize]
                };
                [(2 * x + 1, leader as usize == j), (next, false)]
            },
        );
    }
    drop(span_phase);

    // The single fused ranking: a tree arc's tour rank lands in its own
    // slot, and cycle node x is dist[2x + 1] / 2 nodes from its chain end.
    // It also reports the tail of every even slot, which gives the root
    // array: a tree node's down arc 2v lies on its root's tour, which ends
    // at the up arc 2c + 1 of the root's last child c, so root(v) = f(c); a
    // cycle node is its own root.  The array is threaded through the tour
    // finish, the cycle_of propagation below, and tree labelling (retained
    // on the returned structure).
    let mut fused_ranks = ws.take_u32(0);
    let mut roots = Vec::new();
    list_rank_flagged_into(ctx, &fused_succ, &mut fused_ranks, &mut roots);
    ctx.par_update(&mut roots, |v, r| {
        *r = if is_cycle[v] {
            v as u32
        } else {
            f[(*r / 2) as usize]
        };
    });
    let tour = EulerTour::from_tree_arc_ranks(ctx, &forest, &cycle_ids, &fused_ranks, &roots);
    let dist_to_end = |x: u32| fused_ranks[2 * x as usize + 1] / 2;

    // Cycle length = dist(leader) + 1; position = length - 1 - dist.
    let span_phase = ctx.span("cycle_csr");
    let mut cycle_pos = vec![u32::MAX; n];
    let mut cycle_of = vec![u32::MAX; n];

    // CSR offsets: cycle c (by ascending leader) has length
    // dist_to_end(leader) + 1; exclusive prefix sums give the offsets.
    let mut cycle_offsets = vec![0u32; num_cycles + 1];
    {
        let off_ptr = SendPtr(cycle_offsets.as_mut_ptr());
        let (leaders, cycle_ids) = (&leaders, &cycle_ids);
        ctx.par_for_idx(num_cycles, |c| {
            let p = off_ptr;
            let leader = cycle_ids[leaders[c] as usize];
            // SAFETY: one write per cycle, at slot c + 1.
            unsafe {
                *p.0.add(c + 1) = dist_to_end(leader) + 1;
            }
        });
    }
    // Uncharged glue: this prefix sweep replaces the per-cycle Vec
    // allocation loop of the nested-cycles layout, which was equally
    // uncharged — charging it here would break the byte-identical charge
    // parity with the pre-CSR pipeline that the bench rows pin.
    for c in 0..num_cycles {
        cycle_offsets[c + 1] += cycle_offsets[c];
    }
    debug_assert_eq!(cycle_offsets[num_cycles] as usize, m);

    {
        let pos_ptr = SendPtr(cycle_pos.as_mut_ptr());
        let of_ptr = SendPtr(cycle_of.as_mut_ptr());
        let (cycle_ids, leader_compact, cycle_number_of_leader, cycle_offsets) = (
            &cycle_ids,
            &leader_compact,
            &cycle_number_of_leader,
            &cycle_offsets,
        );
        ctx.par_for_idx(m, |j| {
            let x = cycle_ids[j] as usize;
            let c = cycle_number_of_leader[leader_compact[j] as usize];
            let len = cycle_offsets[c as usize + 1] - cycle_offsets[c as usize];
            let pos = len - 1 - dist_to_end(x as u32);
            let (pp, op) = (pos_ptr, of_ptr);
            // SAFETY: one write per cycle node.
            unsafe {
                *pp.0.add(x) = pos;
                *op.0.add(x) = c;
            }
        });
    }

    // Materialize the cycles into the flat CSR node array (disjoint writes:
    // (cycle, position) pairs are unique and cover every slot).
    let mut cycle_nodes_flat = vec![0u32; m];
    {
        let node_ptr = SendPtr(cycle_nodes_flat.as_mut_ptr());
        let (cycle_ids, cycle_offsets) = (&cycle_ids, &cycle_offsets);
        let (cycle_of, cycle_pos) = (&cycle_of, &cycle_pos);
        ctx.par_for_idx(m, |j| {
            let x = cycle_ids[j];
            let c = cycle_of[x as usize] as usize;
            let pos = cycle_pos[x as usize] as usize;
            let p = node_ptr;
            // SAFETY: see above.
            unsafe {
                *p.0.add(cycle_offsets[c] as usize + pos) = x;
            }
        });
    }
    drop(span_phase);

    let levels = tour.levels(ctx);

    // Propagate the cycle id to tree nodes through the threaded root array.
    let span_phase = ctx.span("propagate_cycle_of");
    let cycle_of = {
        let (cycle_of, roots) = (&cycle_of, &roots);
        ctx.par_map_idx(n, |x| cycle_of[roots[x] as usize])
    };
    drop(span_phase);

    Decomposition {
        is_cycle,
        cycle_of,
        cycle_pos,
        cycle_offsets,
        cycle_nodes: cycle_nodes_flat,
        forest,
        tour,
        levels,
        roots,
    }
}

impl Decomposition {
    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.is_cycle.len()
    }

    /// Whether the decomposition is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.is_cycle.is_empty()
    }

    /// Number of cycles (= number of pseudo-trees / components).
    #[must_use]
    pub fn num_cycles(&self) -> usize {
        self.cycle_offsets.len() - 1
    }

    /// The member nodes of cycle `c`, in cycle order starting at the leader.
    #[must_use]
    pub fn cycle(&self, c: usize) -> &[u32] {
        let s = self.cycle_offsets[c] as usize;
        let e = self.cycle_offsets[c + 1] as usize;
        &self.cycle_nodes[s..e]
    }

    /// Length of cycle `c`.
    #[must_use]
    pub fn cycle_len(&self, c: usize) -> usize {
        (self.cycle_offsets[c + 1] - self.cycle_offsets[c]) as usize
    }

    /// Iterator over all cycles as node slices, by ascending leader id.
    pub fn cycles(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.num_cycles()).map(|c| self.cycle(c))
    }

    /// The root (cycle node) of the pseudo-tree containing `x` — a lookup
    /// into the once-computed [`Decomposition::roots`] array.
    #[must_use]
    pub fn root_of(&self, x: u32) -> u32 {
        self.roots[x as usize]
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
    use crate::generators;
    use proptest::prelude::*;

    fn check_invariants(g: &FunctionalGraph, d: &Decomposition) {
        let n = g.len();
        assert_eq!(d.len(), n);
        // The roots read off the ranking's tails are the forest's roots.
        let roots = sfcp_parprim::jump::find_roots(&Ctx::parallel(), d.forest.parents());
        assert_eq!(d.roots, roots);
        // CSR well-formedness: offsets are monotone and cover cycle_nodes.
        assert_eq!(d.cycle_offsets.len(), d.num_cycles() + 1);
        assert_eq!(d.cycle_offsets[0], 0);
        assert!(d.cycle_offsets.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            *d.cycle_offsets.last().unwrap() as usize,
            d.cycle_nodes.len()
        );
        // Every cycle is consistent: consecutive members are connected by f,
        // the leader is the smallest member, positions match indices.
        for (c, cycle) in d.cycles().enumerate() {
            assert!(!cycle.is_empty());
            let leader = cycle[0];
            assert_eq!(*cycle.iter().min().unwrap(), leader);
            for (i, &x) in cycle.iter().enumerate() {
                assert!(d.is_cycle[x as usize]);
                assert_eq!(d.cycle_of[x as usize], c as u32);
                assert_eq!(d.cycle_pos[x as usize], i as u32);
                assert_eq!(
                    g.apply(x),
                    cycle[(i + 1) % cycle.len()],
                    "cycle {c} broken at {x}"
                );
            }
        }
        // Every cycle node appears in exactly one cycle.
        assert_eq!(
            d.cycle_nodes.len(),
            d.is_cycle.iter().filter(|&&b| b).count()
        );
        // Levels: cycle nodes at level 0; tree nodes one deeper than f(x).
        for x in 0..n as u32 {
            if d.is_cycle[x as usize] {
                assert_eq!(d.levels[x as usize], 0);
            } else {
                assert_eq!(d.levels[x as usize], d.levels[g.apply(x) as usize] + 1);
                // Same component as its parent.
                assert_eq!(d.cycle_of[x as usize], d.cycle_of[g.apply(x) as usize]);
            }
        }
    }

    #[test]
    fn paper_example_decomposition() {
        let ctx = Ctx::parallel();
        let g = generators::paper_example_function();
        let d = decompose(&ctx, &g, CycleMethod::Euler);
        check_invariants(&g, &d);
        assert_eq!(d.num_cycles(), 2);
        let mut lens: Vec<usize> = d.cycles().map(<[u32]>::len).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![4, 12]);
        assert!(d.is_cycle.iter().all(|&b| b));
    }

    #[test]
    fn all_methods_give_same_decomposition() {
        let ctx = Ctx::parallel();
        let g = generators::random_function(2000, 5);
        let a = decompose(&ctx, &g, CycleMethod::Sequential);
        let c = decompose(&ctx, &g, CycleMethod::Euler);
        assert_eq!(a.is_cycle, c.is_cycle);
        assert_eq!(a.cycle_offsets, c.cycle_offsets);
        assert_eq!(a.cycle_nodes, c.cycle_nodes);
        assert_eq!(a.levels, c.levels);
        assert_eq!(a, c, "full decompositions must agree (Sequential vs Euler)");
        check_invariants(&g, &c);
    }

    #[test]
    fn structures_on_edge_cases() {
        let ctx = Ctx::parallel();
        for g in [
            FunctionalGraph::new(vec![0]),
            FunctionalGraph::new(vec![0; 12]),
            FunctionalGraph::new((0..12).collect()),
            generators::long_tail(200, 1, 9),
            generators::star(100, 3, 2),
        ] {
            let d = decompose(&ctx, &g, CycleMethod::Euler);
            check_invariants(&g, &d);
        }
    }

    #[test]
    fn root_of_matches_levels() {
        let ctx = Ctx::parallel();
        let g = generators::long_tail(64, 8, 3);
        let d = decompose(&ctx, &g, CycleMethod::Euler);
        for x in 0..64u32 {
            let r = d.root_of(x);
            assert!(d.is_cycle[r as usize]);
            assert_eq!(g.iterate(x, d.levels[x as usize] as usize), r);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn invariants_on_random_functions(n in 1usize..150, seed in 0u64..200) {
            let ctx = Ctx::parallel().with_grain(16);
            let g = generators::random_function(n, seed);
            let d = decompose(&ctx, &g, CycleMethod::Euler);
            check_invariants(&g, &d);
        }
    }

    /// Miri target: the fused successor writes — tour arcs, the cycle
    /// chains in the roots' slots, the tour head flags — and the tour finish
    /// at grain 4, on a graph with childless and child-bearing roots.
    #[test]
    fn miri_decompose_with_both_kinds_of_roots() {
        let ctx = Ctx::parallel().with_grain(4);
        let g = generators::random_function(300, 5);
        let d = decompose(&ctx, &g, CycleMethod::Euler);
        check_invariants(&g, &d);
        assert_eq!(d.tour, EulerTour::build(&ctx, &d.forest));
        let childless = |&x: &u32| d.forest.children(x).is_empty();
        assert!(d.cycle_nodes.iter().any(childless));
        assert!(!d.cycle_nodes.iter().all(childless));
    }

    /// Miri target: the full decomposition pipeline (cycle labeling, chain
    /// layout, level scatter) under the Euler method, against the
    /// sequential oracle.
    #[test]
    fn miri_decompose_methods_agree() {
        let ctx = Ctx::parallel();
        let g = generators::random_function(300, 5);
        let a = decompose(&ctx, &g, CycleMethod::Sequential);
        let c = decompose(&ctx, &g, CycleMethod::Euler);
        assert_eq!(a, c);
        check_invariants(&g, &c);
    }
}
