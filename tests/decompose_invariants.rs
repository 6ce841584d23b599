//! Property tests for the structural invariants of [`sfcp_forest::Decomposition`]
//! against a naive sequential reference.
//!
//! The decomposition pipeline is a chain of parallel passes over workspace
//! scratch (compaction, cycle-min contraction, list ranking, Euler tours); a
//! bug in any buffer lifetime or scatter bound shows up as a violated
//! structural invariant.  Each randomized functional graph is checked for:
//!
//! * `cycle_of` consistency with `f` (a node and its image share a cycle id),
//! * `cycle_pos` being a valid rotation starting at the minimum-id leader,
//! * `levels[x] == 0 ⟺ is_cycle[x]`, levels increasing away from cycles,
//! * the CSR cycles partitioning exactly the cycle-node set,
//! * the forest rooted at the cycle nodes, every node's root, and the Euler
//!   tour equal to the one [`EulerTour::build`] gives for that forest.

use proptest::prelude::*;
use sfcp_forest::{cycles::CycleMethod, decompose, Decomposition, FunctionalGraph};
use sfcp_parprim::euler::EulerTour;
use sfcp_pram::Ctx;

/// Naive reference: cycle nodes by in-degree peeling, distances by walking.
struct Reference {
    is_cycle: Vec<bool>,
    /// Distance of every node to its cycle.
    levels: Vec<u32>,
    /// The cycle node every node's walk along `f` reaches first.
    roots: Vec<u32>,
    /// For cycle nodes, the members of their cycle in f-order starting at the
    /// smallest member; indexed by that smallest member (leader).
    cycles_by_leader: Vec<Vec<u32>>,
}

fn reference(f: &[u32]) -> Reference {
    let n = f.len();
    // Kahn-style peeling: whatever survives lies on a cycle.
    let mut indeg = vec![0u32; n];
    for &y in f {
        indeg[y as usize] += 1;
    }
    let mut queue: Vec<u32> = (0..n as u32).filter(|&x| indeg[x as usize] == 0).collect();
    let mut removed = vec![false; n];
    while let Some(x) = queue.pop() {
        removed[x as usize] = true;
        let y = f[x as usize] as usize;
        indeg[y] -= 1;
        if indeg[y] == 0 {
            queue.push(y as u32);
        }
    }
    let is_cycle: Vec<bool> = removed.iter().map(|&r| !r).collect();

    // Levels and roots by walking until a cycle node is reached.
    let (levels, roots): (Vec<u32>, Vec<u32>) = (0..n)
        .map(|x| {
            let mut cur = x;
            let mut d = 0u32;
            while !is_cycle[cur] {
                cur = f[cur] as usize;
                d += 1;
                assert!(d as usize <= n, "walk escaped the graph");
            }
            (d, cur as u32)
        })
        .unzip();

    // Cycles by walking from each leader (smallest member).
    let mut cycles_by_leader: Vec<Vec<u32>> = Vec::new();
    let mut seen = vec![false; n];
    for x in 0..n {
        if !is_cycle[x] || seen[x] {
            continue;
        }
        let mut members = vec![x as u32];
        seen[x] = true;
        let mut cur = f[x] as usize;
        while cur != x {
            seen[cur] = true;
            members.push(cur as u32);
            cur = f[cur] as usize;
        }
        // Rotate so the smallest member leads (x is the smallest only if the
        // scan reached this cycle through it first, which it did: x is the
        // smallest unseen index of the cycle, and indices are scanned in
        // ascending order).
        cycles_by_leader.push(members);
    }
    Reference {
        is_cycle,
        levels,
        roots,
        cycles_by_leader,
    }
}

fn check_against_reference(g: &FunctionalGraph, d: &Decomposition) {
    let n = g.len();
    let f = g.table();
    let r = reference(f);

    assert_eq!(d.is_cycle, r.is_cycle, "cycle-node marks");
    assert_eq!(d.levels, r.levels, "levels");
    assert_eq!(d.roots, r.roots, "roots");
    // The forest is rooted at the cycle nodes, and its tour is the one the
    // standalone construction builds.
    for (x, (&parent, &image)) in d.forest.parents().iter().zip(f).enumerate() {
        let expected = if r.is_cycle[x] { x as u32 } else { image };
        assert_eq!(parent, expected, "parent of {x}");
    }
    assert_eq!(
        d.tour,
        EulerTour::build(&Ctx::parallel(), &d.forest),
        "tour"
    );
    // levels[x] == 0 ⟺ is_cycle[x].
    for x in 0..n {
        assert_eq!(
            d.levels[x] == 0,
            d.is_cycle[x],
            "level/cycle mismatch at {x}"
        );
    }

    // CSR well-formedness and partition property.
    assert_eq!(d.cycle_offsets.len(), d.num_cycles() + 1);
    assert_eq!(d.cycle_offsets[0], 0);
    assert!(d.cycle_offsets.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(
        d.cycle_nodes.len(),
        r.is_cycle.iter().filter(|&&b| b).count(),
        "CSR cycles must partition exactly the cycle nodes"
    );
    let mut seen_in_csr = vec![false; n];
    for &x in &d.cycle_nodes {
        assert!(!seen_in_csr[x as usize], "node {x} appears in two cycles");
        seen_in_csr[x as usize] = true;
        assert!(r.is_cycle[x as usize], "tree node {x} inside a cycle");
    }

    // Per-cycle: leader is the minimum, order is a rotation of f starting at
    // the leader, cycle_of/cycle_pos agree.
    assert_eq!(d.num_cycles(), r.cycles_by_leader.len());
    for (c, expected) in r.cycles_by_leader.iter().enumerate() {
        let cycle = d.cycle(c);
        assert_eq!(cycle, expected.as_slice(), "cycle {c} member order");
        let leader = cycle[0];
        assert_eq!(*cycle.iter().min().unwrap(), leader, "leader must be min");
        for (i, &x) in cycle.iter().enumerate() {
            assert_eq!(d.cycle_of[x as usize], c as u32);
            assert_eq!(d.cycle_pos[x as usize], i as u32);
            assert_eq!(
                g.apply(x),
                cycle[(i + 1) % cycle.len()],
                "rotation broken at {x}"
            );
        }
    }

    // cycle_of is f-invariant on every node (trees inherit their root's id),
    // and cycle_pos is MAX exactly on tree nodes.
    for x in 0..n as u32 {
        assert_eq!(
            d.cycle_of[x as usize],
            d.cycle_of[g.apply(x) as usize],
            "cycle_of not f-invariant at {x}"
        );
        assert_eq!(
            d.cycle_pos[x as usize] == u32::MAX,
            !d.is_cycle[x as usize],
            "cycle_pos sentinel wrong at {x}"
        );
    }
}

#[test]
fn paper_example_matches_reference() {
    let ctx = Ctx::parallel();
    let g = sfcp_forest::generators::paper_example_function();
    for method in [CycleMethod::Sequential, CycleMethod::Euler] {
        let d = decompose(&ctx, &g, method);
        check_against_reference(&g, &d);
    }
}

#[test]
fn structured_generators_match_reference() {
    let ctx = Ctx::parallel();
    for g in [
        FunctionalGraph::new(vec![0]),
        FunctionalGraph::new(vec![0; 50]),
        FunctionalGraph::new((0..50).collect()),
        sfcp_forest::generators::long_tail(400, 3, 11),
        sfcp_forest::generators::star(300, 4, 5),
        sfcp_forest::generators::equal_cycles(12, 9, 3),
    ] {
        let d = decompose(&ctx, &g, CycleMethod::Euler);
        check_against_reference(&g, &d);
    }
}

/// Whether some root of `d` has tree children and whether some has none.
fn root_kinds(d: &Decomposition) -> (bool, bool) {
    let with_children = |&x: &u32| !d.forest.children(x).is_empty();
    (
        d.cycle_nodes.iter().any(with_children),
        !d.cycle_nodes.iter().all(with_children),
    )
}

/// Cycles only, above the 1,024-word tiny-list bound of the ranking: every
/// root is childless, so the fused ranking holds only cycle chains.
#[test]
fn all_cycle_input_matches_reference() {
    let ctx = Ctx::parallel();
    let g = sfcp_forest::generators::cycles_only(&[1024; 12], 7);
    let d = decompose(&ctx, &g, CycleMethod::Euler);
    check_against_reference(&g, &d);
    assert_eq!(root_kinds(&d), (false, true));
}

/// Roots with and without trees in one ranking: cycles of 1,000 and 24
/// nodes, with trees hanging off every third node of the first cycle.
#[test]
fn mixed_roots_match_reference() {
    let ctx = Ctx::parallel();
    let mut f: Vec<u32> = (0..1000).map(|x| (x + 1) % 1000).collect();
    f.extend((0..24).map(|x| 1000 + (x + 1) % 24));
    for i in 0..600u32 {
        // Every 3rd node of the 1,000-cycle grows a tree: first children of
        // the roots, then chains below them.
        f.push(if i < 334 { 3 * i } else { 1024 + i - 334 });
    }
    let g = FunctionalGraph::new(f);
    let d = decompose(&ctx, &g, CycleMethod::Euler);
    check_against_reference(&g, &d);
    assert_eq!(root_kinds(&d), (true, true));
}

/// Large enough to push the cycle-min labeling onto its contraction path and
/// the list ranking onto the ruling set.
#[test]
fn large_random_graphs_match_reference() {
    let ctx = Ctx::parallel();
    for seed in 0..3 {
        let g = sfcp_forest::generators::random_function(30_000, seed);
        let d = decompose(&ctx, &g, CycleMethod::Euler);
        check_against_reference(&g, &d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_functions_match_reference(
        n in 1usize..250,
        seed in 0u64..500,
    ) {
        let g = sfcp_forest::generators::random_function(n, seed);
        let ctx = Ctx::parallel().with_grain(32);
        let d = decompose(&ctx, &g, CycleMethod::Euler);
        check_against_reference(&g, &d);
    }

    #[test]
    fn cycle_collections_match_reference(
        lengths in proptest::collection::vec(1usize..15, 1..10),
        seed in 0u64..100,
    ) {
        let g = sfcp_forest::generators::cycles_only(&lengths, seed);
        let ctx = Ctx::parallel().with_grain(32);
        let d = decompose(&ctx, &g, CycleMethod::Euler);
        check_against_reference(&g, &d);
        prop_assert!(d.is_cycle.iter().all(|&b| b));
    }
}
