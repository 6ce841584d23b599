//! Marking the cycle nodes of a pseudo-forest — *Algorithm finding cycle
//! nodes* (Section 5) and the sequential oracle it is checked against.
//!
//! * [`cycle_nodes_euler`] — the paper's method: add a *buddy* edge
//!   `(f(x), x)` for every edge `(x, f(x))`, build the Euler partition of the
//!   resulting undirected multigraph via the Tarjan–Vishkin successor
//!   function, and observe that each pseudo-tree yields exactly two Euler
//!   cycles with a tree edge and its buddy on the *same* cycle and a cycle
//!   edge and its buddy on *different* cycles (a unicyclic ribbon graph has
//!   exactly two faces, bridges border one face twice, cycle edges border
//!   both).  Near-linear work, `O(log n)` depth.
//! * [`cycle_nodes_seq`] — sequential oracle: repeatedly peel nodes of
//!   in-degree zero (Kahn-style); whatever survives lies on a cycle. `O(n)`.

use crate::graph::FunctionalGraph;
use sfcp_parprim::jump::permutation_cycle_min_flagged_into;
use sfcp_parprim::listrank::{is_sampled_ruler, RULER_FLAG};
use sfcp_pram::Ctx;

/// Which cycle-node detection algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CycleMethod {
    /// Sequential in-degree peeling (the oracle).
    Sequential,
    /// The paper's Euler-tour buddy-edge method (Section 5).
    #[default]
    Euler,
}

/// Mark the nodes lying on cycles: `out[x] == true` iff `x` is a cycle node.
#[must_use]
pub fn cycle_nodes(ctx: &Ctx, g: &FunctionalGraph, method: CycleMethod) -> Vec<bool> {
    match method {
        CycleMethod::Sequential => cycle_nodes_seq(ctx, g),
        CycleMethod::Euler => cycle_nodes_euler(ctx, g),
    }
}

/// Sequential in-degree peeling.
#[must_use]
pub fn cycle_nodes_seq(ctx: &Ctx, g: &FunctionalGraph) -> Vec<bool> {
    let n = g.len();
    let mut indeg = g.in_degrees(ctx);
    let mut queue: Vec<u32> = (0..n as u32).filter(|&x| indeg[x as usize] == 0).collect();
    let mut removed = vec![false; n];
    while let Some(x) = queue.pop() {
        removed[x as usize] = true;
        let y = g.apply(x);
        indeg[y as usize] -= 1;
        if indeg[y as usize] == 0 {
            queue.push(y);
        }
    }
    ctx.charge_step(n as u64);
    removed.iter().map(|&r| !r).collect()
}

/// The paper's Euler-tour buddy-edge method (Section 5).
#[must_use]
pub fn cycle_nodes_euler(ctx: &Ctx, g: &FunctionalGraph) -> Vec<bool> {
    let _span = ctx.span("cycle_nodes_euler");
    let n = g.len();
    if n == 0 {
        return Vec::new();
    }
    let f = g.table();
    let ws = ctx.workspace();

    // Self-loops (fixed points of f) are cycles of length one; they would
    // degenerate in the multigraph construction, so mark them directly and
    // exclude their edges from the Euler machinery.
    let mut is_self_loop = ws.take_u8(n);
    ctx.par_update(&mut is_self_loop, |x, s| *s = u8::from(f[x] as usize == x));

    // Edge x is the undirected edge {x, f(x)} (skipped for self-loops).
    // Arc 2x is x → f(x) ("forward"), arc 2x+1 is f(x) → x (the "buddy").
    //
    // Build, for every vertex v, the circular list of its incident edge
    // endpoints.  Endpoint kinds: (edge x, tail) at vertex x — packed as
    // `2x + 1` — and (edge x, head) at vertex f(x) — packed as `2x`.
    // CSR by vertex via the parallel builder: stream slot 2x carries the
    // tail endpoint, slot 2x + 1 the head endpoint, reproducing the
    // rotation order of the former sequential cursor sweep (any rotation
    // system works — a unicyclic ribbon graph has two faces in every
    // embedding — but a deterministic one keeps runs reproducible).  The
    // builder charges its documented count/prefix/scatter model, one round
    // of `num_keys = n` operations more than the fused sequential build it
    // replaces charged (see DESIGN.md, "CSR construction").
    let mut start = ws.take_u32(0);
    let mut incident = ws.take_u32(0);
    {
        let is_self_loop = &is_self_loop;
        sfcp_parprim::csr::build_csr_into(
            ctx,
            n,
            2 * n,
            |s| {
                let x = s / 2;
                if is_self_loop[x] == 1 {
                    None
                } else if s % 2 == 0 {
                    Some((x as u32, (x as u32) * 2 + 1)) // tail endpoint at x
                } else {
                    Some((f[x], (x as u32) * 2)) // head endpoint at f(x)
                }
            },
            &mut start,
            &mut incident,
        );
    }

    // Arc numbering: arc_out of endpoint (e, tail at x)  = 2e   (x → f(x)),
    //                arc_out of endpoint (e, head at f(x)) = 2e+1 (f(x) → x).
    // The corresponding incoming arc at that endpoint is the other one.
    // Successor (face-tracing) permutation: the arc entering v along the
    // endpoint at position p continues with the outgoing arc of the endpoint
    // at position p+1 (cyclically) in v's incident list.
    // Unused arc slots (self-loop edges) stay as self-loops of the
    // permutation and are ignored afterwards.
    //
    // The ruler flags of the cycle-min contraction ride along in bit 31 of
    // every word as it is written (fixed points and the deterministic hash
    // sample — the `has_pred` fold of DESIGN.md §7), so
    // `permutation_cycle_min_flagged_into` skips its validation and
    // sampling pre-passes entirely, charging them without executing.  Arc
    // ids at or above 2^31 cannot carry the flag bit — graphs that large
    // fall back to the unflagged construction and the untrusted cycle-min
    // entry, exactly the pre-fold pipeline.
    let num_arcs = 2 * n;
    let flagging = num_arcs < (1 << 31);
    let id_flag = if flagging { RULER_FLAG } else { 0 };
    let mut succ = ws.take_u32(num_arcs);
    for (a, s) in succ.iter_mut().enumerate() {
        *s = a as u32 | id_flag; // identity = fixed point = ruler
    }
    // Per-vertex emission of the incoming-arc → outgoing-arc pairs.
    let succ_ptr = SendPtr(succ.as_mut_ptr());
    let (start, incident) = (&start, &incident);
    ctx.par_for_idx(n, |v| {
        let p = succ_ptr;
        let s = start[v] as usize;
        let e = start[v + 1] as usize;
        for idx in s..e {
            let endpoint = incident[idx];
            let edge = endpoint >> 1;
            let is_tail = endpoint & 1 == 1;
            // Incoming arc at this endpoint: the arc pointing *to* v along
            // `edge`.  If v is the tail (v == x) the incoming arc is the
            // buddy 2e+1 (f(x) → x); if v is the head it is 2e (x → f(x)).
            let in_arc = if is_tail { 2 * edge + 1 } else { 2 * edge };
            // Next endpoint in v's rotation.
            let next_idx = if idx + 1 == e { s } else { idx + 1 };
            let next_endpoint = incident[next_idx];
            let next_edge = next_endpoint >> 1;
            let next_is_tail = next_endpoint & 1 == 1;
            // Outgoing arc of the next endpoint: the arc leaving v.
            let out_arc = if next_is_tail {
                2 * next_edge
            } else {
                2 * next_edge + 1
            };
            let flag = u32::from(flagging && is_sampled_ruler(in_arc as usize, num_arcs));
            // SAFETY: each incoming arc is written exactly once (it has a
            // unique endpoint position).
            unsafe {
                *p.0.add(in_arc as usize) = out_arc | (flag << 31);
            }
        }
    });
    ctx.charge_work(2 * n as u64);

    // Faces = cycles of the successor permutation (a genuine permutation by
    // construction — the trusted flagged entry point charges the validation
    // of the untrusted one without executing it).
    let mut face = ws.take_u32(0);
    if flagging {
        permutation_cycle_min_flagged_into(ctx, &succ, &mut face);
    } else {
        sfcp_parprim::jump::permutation_cycle_min_into(ctx, &succ, &mut face);
    }

    // An edge lies on the graph cycle iff its two arcs are on different faces;
    // its tail endpoint x is then a cycle node.  Self-loops are cycle nodes.
    let (is_self_loop, face) = (&is_self_loop, &face);
    ctx.par_map_idx(n, |x| {
        if is_self_loop[x] == 1 {
            true
        } else {
            face[2 * x] != face[2 * x + 1]
        }
    })
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

    fn all_methods() -> [CycleMethod; 2] {
        [CycleMethod::Sequential, CycleMethod::Euler]
    }

    fn check_agreement(g: &FunctionalGraph) -> Vec<bool> {
        let ctx = Ctx::parallel().with_grain(16);
        let expected = cycle_nodes_seq(&ctx, g);
        for m in all_methods() {
            assert_eq!(
                cycle_nodes(&ctx, g, m),
                expected,
                "{m:?} on f = {:?}",
                g.table()
            );
        }
        expected
    }

    #[test]
    fn empty_and_tiny() {
        let ctx = Ctx::parallel();
        let empty = FunctionalGraph::new(vec![]);
        for m in all_methods() {
            assert!(cycle_nodes(&ctx, &empty, m).is_empty());
        }
        // A single fixed point.
        check_agreement(&FunctionalGraph::new(vec![0]));
        // A 2-cycle.
        check_agreement(&FunctionalGraph::new(vec![1, 0]));
        // A fixed point with a tail: 1 → 0 → 0.
        check_agreement(&FunctionalGraph::new(vec![0, 0]));
    }

    #[test]
    fn paper_example_is_all_cycles() {
        let g = generators::paper_example_function();
        let marks = check_agreement(&g);
        assert!(
            marks.iter().all(|&m| m),
            "Fig. 1 consists of two simple cycles"
        );
    }

    #[test]
    fn identity_and_constant_functions() {
        // Identity: every node is a fixed point.
        let marks = check_agreement(&FunctionalGraph::new((0..10).collect()));
        assert!(marks.iter().all(|&m| m));
        // Constant function: only the fixed point 0 is on a cycle.
        let marks = check_agreement(&FunctionalGraph::new(vec![0; 10]));
        assert_eq!(marks.iter().filter(|&&m| m).count(), 1);
        assert!(marks[0]);
    }

    #[test]
    fn structured_generators_agree() {
        check_agreement(&generators::cycles_only(&[1, 2, 3, 5, 8], 1));
        check_agreement(&generators::long_tail(300, 7, 2));
        check_agreement(&generators::star(200, 5, 3));
        check_agreement(&generators::equal_cycles(10, 6, 4));
    }

    #[test]
    fn random_functions_agree_large() {
        for seed in 0..5 {
            let g = generators::random_function(5000, seed);
            check_agreement(&g);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn methods_agree_on_random_functions(
            n in 1usize..200,
            seed in 0u64..500,
        ) {
            let g = generators::random_function(n, seed);
            check_agreement(&g);
        }

        #[test]
        fn methods_agree_on_cycle_collections(
            lengths in proptest::collection::vec(1usize..12, 1..10),
            seed in 0u64..100,
        ) {
            let g = generators::cycles_only(&lengths, seed);
            let marks = check_agreement(&g);
            prop_assert!(marks.iter().all(|&m| m));
        }
    }

    /// Miri target: the incoming-arc emission scatter and the Euler face
    /// labelling, on a graph with tree nodes (the paper example is a
    /// permutation) at a grain that splits it across tasks.
    #[test]
    fn miri_euler_agrees_with_seq() {
        let ctx = Ctx::parallel().with_grain(4);
        let g = generators::random_function(48, 0);
        let want = cycle_nodes_seq(&ctx, &g);
        assert!(want.contains(&false), "the graph must have tree nodes");
        assert_eq!(cycle_nodes_euler(&ctx, &g), want);
    }
}
