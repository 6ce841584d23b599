//! The linear-time sequential algorithm (Paige–Tarjan–Bonic style, \[16\] in
//! the paper), structured exactly like the parallel algorithm:
//!
//! 1. find the cycle nodes,
//! 2. label the cycle nodes by canonising each cycle's B-label string
//!    (smallest repeating prefix + least rotation) and grouping equivalent
//!    cycles,
//! 3. label the tree nodes level by level using Lemma 2.1(i):
//!    `Q(x)` is determined by the pair `(B(x), Q(f(x)))`.
//!
//! Everything is hashed, so the running time is `O(n)` expected (the original
//! paper achieves deterministic linear time with radix bucketing; hashing is
//! the standard practical substitution).

use crate::problem::{Instance, Partition};
use sfcp_pram::fxhash::FxHashMap;
use sfcp_strings::canonical::booth_msp;
use sfcp_strings::period::smallest_period_seq;
use sfcp_strings::rotation;

/// Compute the coarsest stable refinement with the sequential linear-time
/// algorithm.
#[must_use]
pub fn coarsest_sequential(instance: &Instance) -> Partition {
    let n = instance.len();
    if n == 0 {
        return Partition::new(Vec::new());
    }
    let f = instance.f();
    let b = instance.blocks();

    // ---- Step 1: cycle nodes (in-degree peeling) and cycle extraction -----
    let mut indeg = vec![0u32; n];
    for &y in f {
        indeg[y as usize] += 1;
    }
    let mut stack: Vec<u32> = (0..n as u32).filter(|&x| indeg[x as usize] == 0).collect();
    let mut removed = vec![false; n];
    while let Some(x) = stack.pop() {
        removed[x as usize] = true;
        let y = f[x as usize] as usize;
        indeg[y] -= 1;
        if indeg[y] == 0 {
            stack.push(y as u32);
        }
    }

    let mut labels = vec![u32::MAX; n];
    let mut next_label = 0u32;

    // ---- Step 2: cycle node labelling --------------------------------------
    // Canonical period string → first of its `p` consecutive Q labels; the
    // node at offset `o` from the least rotation gets `base + o`.  One
    // lookup per cycle keeps the step O(n) however long the periods are.
    let mut class_base: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    let mut visited = vec![false; n];
    let mut cycle = Vec::new();
    for start in 0..n as u32 {
        if removed[start as usize] || visited[start as usize] {
            continue;
        }
        // Walk the cycle containing `start`.
        cycle.clear();
        let mut cur = start;
        loop {
            visited[cur as usize] = true;
            cycle.push(cur);
            cur = f[cur as usize];
            if cur == start {
                break;
            }
        }
        let s: Vec<u32> = cycle.iter().map(|&x| b[x as usize]).collect();
        let p = smallest_period_seq(&s);
        let prefix = &s[..p];
        let msp = booth_msp(prefix);
        let base = *class_base.entry(rotation(prefix, msp)).or_insert_with(|| {
            let l = next_label;
            next_label += p as u32;
            l
        });
        for (pos, &x) in cycle.iter().enumerate() {
            labels[x as usize] = base + ((pos + p - msp) % p) as u32;
        }
    }

    // ---- Step 3: tree node labelling, level by level ----------------------
    // Pair (B(x), Q(f(x))) determines Q(x) (Lemma 2.1(i)); seed the map with
    // the cycle nodes so that tree nodes equivalent to cycle nodes merge.
    let mut pair_class: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    for x in 0..n {
        if !removed[x] {
            pair_class.insert((b[x], labels[f[x] as usize]), labels[x]);
        }
    }
    // Order the tree nodes by increasing level (distance to the cycle) with a
    // reverse-BFS from the cycle nodes over the pre-image relation.
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for x in 0..n as u32 {
        if removed[x as usize] {
            children[f[x as usize] as usize].push(x);
        }
    }
    let mut queue: std::collections::VecDeque<u32> =
        (0..n as u32).filter(|&x| !removed[x as usize]).collect();
    // The queue initially holds cycle nodes; their tree children follow.
    while let Some(y) = queue.pop_front() {
        for &x in &children[y as usize] {
            let key = (b[x as usize], labels[y as usize]);
            let label = *pair_class.entry(key).or_insert_with(|| {
                let l = next_label;
                next_label += 1;
                l
            });
            labels[x as usize] = label;
            queue.push_back(x);
        }
    }

    debug_assert!(labels.iter().all(|&l| l != u32::MAX));
    Partition::new(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::coarsest_naive;
    use crate::verify::assert_valid;
    use proptest::prelude::*;

    #[test]
    fn paper_example() {
        let inst = Instance::paper_example();
        let q = coarsest_sequential(&inst);
        let expected = Partition::new(sfcp_forest::generators::paper_example_expected_q());
        assert!(q.same_partition(&expected), "got {:?}", q.labels());
        assert_valid(&inst, &q);
    }

    #[test]
    fn edge_cases_match_naive() {
        for inst in [
            Instance::new(vec![], vec![]),
            Instance::new(vec![0], vec![0]),
            Instance::new(vec![1, 0], vec![0, 0]),
            Instance::new(vec![0; 10], (0..10).collect()),
            Instance::new((0..10).collect(), vec![0; 10]),
            Instance::new(vec![1, 2, 3, 4, 5, 0], vec![0, 1, 0, 1, 0, 1]),
            Instance::new(vec![1, 2, 3, 4, 5, 0], vec![0, 1, 0, 0, 1, 0]),
        ] {
            let q = coarsest_sequential(&inst);
            assert!(
                q.same_partition(&coarsest_naive(&inst)),
                "mismatch on {:?}",
                inst.f()
            );
        }
    }

    #[test]
    fn structured_instances_match_naive() {
        for inst in [
            Instance::random(800, 2, 0),
            Instance::random(800, 6, 1),
            Instance::random_cycles(&[2, 3, 4, 6, 6, 12], 2, 2),
            Instance::periodic_cycles(10, 24, 6, 3, 3),
            Instance::deep(600, 5, 2, 4),
            Instance::deep(600, 1, 3, 5),
        ] {
            let q = coarsest_sequential(&inst);
            assert!(q.same_partition(&coarsest_naive(&inst)));
            assert_valid(&inst, &q);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn matches_naive_on_random_instances(n in 1usize..150, blocks in 1usize..4, seed in 0u64..400) {
            let inst = Instance::random(n, blocks, seed);
            let q = coarsest_sequential(&inst);
            prop_assert!(q.same_partition(&coarsest_naive(&inst)));
        }
    }
}
