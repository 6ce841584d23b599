//! Hopcroft-style partition refinement specialised to a single function —
//! the classical `O(n log n)` sequential algorithm of Aho–Hopcroft–Ullman
//! cited as \[1\] in the paper.
//!
//! The algorithm keeps a worklist of *splitter* blocks.  Processing a
//! splitter `A` intersects every block `Y` with `f⁻¹(A)`; blocks cut into two
//! pieces are replaced and the smaller piece joins the worklist ("process the
//! smaller half").
//!
//! Blocks are contiguous ranges of one element array with a position index,
//! so intersecting with `f⁻¹(A)` moves only the hit members (each swapped
//! into the hit prefix of its block) and a split relabels only the smaller
//! piece.  Processing a splitter therefore costs `O(|f⁻¹(A)|)`, and the
//! smaller-half rule bounds the total by `O(n log n)`.

use crate::problem::{Instance, Partition};

/// Compute the coarsest stable refinement by Hopcroft's algorithm.
#[must_use]
pub fn coarsest_hopcroft(instance: &Instance) -> Partition {
    refine(instance).0
}

/// [`coarsest_hopcroft`] plus the number of member moves it made (one per
/// pre-image member swapped into the hit prefix of its block) — the
/// quantity the `O(n log n)` bound is about.
pub(crate) fn refine(instance: &Instance) -> (Partition, u64) {
    let n = instance.len();
    if n == 0 {
        return (Partition::new(Vec::new()), 0);
    }
    let f = instance.f();

    // Inverse function as CSR.
    let mut offsets = vec![0u32; n + 1];
    for &y in f {
        offsets[y as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut preimage = vec![0u32; n];
    for (x, &y) in f.iter().enumerate() {
        preimage[cursor[y as usize] as usize] = x as u32;
        cursor[y as usize] += 1;
    }

    // Blocks as ranges `start[b]..end[b]` of `elems`, grouped by initial
    // label; `pos[x]` is the slot of `x` in `elems`.
    let mut block_of = vec![0u32; n];
    let mut start: Vec<u32> = Vec::new();
    {
        let mut ids = std::collections::HashMap::new();
        for (x, &label) in instance.blocks().iter().enumerate() {
            let id = *ids.entry(label).or_insert_with(|| {
                start.push(0);
                start.len() as u32 - 1
            });
            block_of[x] = id;
            start[id as usize] += 1; // size, turned into a start below
        }
    }
    let mut running = 0u32;
    for s in start.iter_mut() {
        let size = *s;
        *s = running;
        running += size;
    }
    let mut end = start.clone();
    let mut elems = vec![0u32; n];
    let mut pos = vec![0u32; n];
    for x in 0..n {
        let b = block_of[x] as usize;
        elems[end[b] as usize] = x as u32;
        pos[x] = end[b];
        end[b] += 1;
    }

    // Worklist: initially every block (the classical optimisation of leaving
    // out the largest block also works; keeping all of them only costs a
    // constant factor and keeps the code simpler to reason about).
    let num_blocks = start.len();
    let mut worklist: Vec<u32> = (0..num_blocks as u32).collect();

    // Per block, how many of its members sit in the hit prefix of the
    // current splitter's pre-image.
    let mut hits: Vec<u32> = vec![0; num_blocks];
    let mut touched: Vec<u32> = Vec::new();
    let mut pre: Vec<u32> = Vec::new();
    let mut moves = 0u64;

    while let Some(splitter) = worklist.pop() {
        // Collect the pre-image first: marking below reorders `elems`,
        // possibly inside the splitter block itself.
        pre.clear();
        for &y in &elems[start[splitter as usize] as usize..end[splitter as usize] as usize] {
            pre.extend_from_slice(
                &preimage[offsets[y as usize] as usize..offsets[y as usize + 1] as usize],
            );
        }

        // Move every hit member into the hit prefix of its block.
        touched.clear();
        for &x in &pre {
            let b = block_of[x as usize] as usize;
            if hits[b] == 0 {
                touched.push(b as u32);
            }
            let slot = start[b] + hits[b];
            let other = elems[slot as usize];
            let from = pos[x as usize];
            elems.swap(slot as usize, from as usize);
            pos[other as usize] = from;
            pos[x as usize] = slot;
            hits[b] += 1;
            moves += 1;
        }

        for &b in &touched {
            let b = b as usize;
            let hit = std::mem::take(&mut hits[b]);
            let (lo, hi) = (start[b], end[b]);
            if hit == hi - lo {
                continue; // the whole block maps into the splitter: no split
            }
            // The smaller piece (the hit prefix or the rest) becomes a new
            // block; the larger keeps the old id.
            let mid = lo + hit;
            let new_id = start.len() as u32;
            let (new_lo, new_hi) = if hit <= hi - mid {
                start[b] = mid;
                (lo, mid)
            } else {
                end[b] = mid;
                (mid, hi)
            };
            for &x in &elems[new_lo as usize..new_hi as usize] {
                block_of[x as usize] = new_id;
            }
            start.push(new_lo);
            end.push(new_hi);
            hits.push(0);
            // If b is still on the worklist both halves get processed; if
            // not, the smaller half suffices — the new block either way.
            worklist.push(new_id);
        }
    }

    (Partition::new(block_of), moves)
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
        let q = coarsest_hopcroft(&inst);
        let expected = Partition::new(sfcp_forest::generators::paper_example_expected_q());
        assert!(q.same_partition(&expected));
        assert_valid(&inst, &q);
    }

    #[test]
    fn edge_cases() {
        assert_eq!(coarsest_hopcroft(&Instance::new(vec![], vec![])).len(), 0);
        let single = Instance::new(vec![0], vec![0]);
        assert_eq!(coarsest_hopcroft(&single).num_blocks(), 1);
        // Constant function, distinct labels.
        let inst = Instance::new(vec![0; 8], (0..8).collect());
        let q = coarsest_hopcroft(&inst);
        assert!(q.same_partition(&coarsest_naive(&inst)));
        // Identity function.
        let inst = Instance::new((0..8).collect(), vec![0, 1, 0, 1, 0, 1, 0, 1]);
        let q = coarsest_hopcroft(&inst);
        assert!(q.same_partition(&coarsest_naive(&inst)));
    }

    #[test]
    fn matches_naive_on_structured_instances() {
        for inst in [
            Instance::random(500, 2, 1),
            Instance::random(500, 5, 2),
            Instance::random_cycles(&[3, 4, 5, 6, 7, 8], 2, 3),
            Instance::periodic_cycles(8, 12, 4, 3, 4),
            Instance::deep(400, 7, 2, 5),
        ] {
            let q = coarsest_hopcroft(&inst);
            assert!(q.same_partition(&coarsest_naive(&inst)));
            assert_valid(&inst, &q);
        }
    }

    /// A chain `f(i) = i + 1` ending in a fixed point whose label is the
    /// only distinct one: every refinement step cuts a single node off the
    /// big block, so a split that scans the whole block costs Θ(n²) over
    /// the run.  The member moves must stay within `2·n·⌈log₂ n⌉`.
    #[test]
    fn chain_splits_move_n_log_n_members() {
        for n in [1_000usize, 8_000, 64_000] {
            let f: Vec<u32> = (1..=n as u32).map(|i| i.min(n as u32 - 1)).collect();
            let mut labels = vec![0u32; n];
            labels[n - 1] = 1;
            let inst = Instance::new(f, labels);
            let (q, moves) = refine(&inst);
            assert_eq!(q.num_blocks(), n, "every chain node is its own class");
            let bound = 2 * n as u64 * u64::from(sfcp_pram::ceil_log2(n));
            assert!(moves <= bound, "n = {n}: {moves} moves > {bound}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_naive_on_random_instances(n in 1usize..120, blocks in 1usize..5, seed in 0u64..300) {
            let inst = Instance::random(n, blocks, seed);
            let q = coarsest_hopcroft(&inst);
            prop_assert!(q.same_partition(&coarsest_naive(&inst)));
        }
    }
}
