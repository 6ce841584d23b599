//! The JáJá–Ryu parallel algorithm (Sections 2–5 of the paper).
//!
//! ```text
//! Algorithm coarsest partition
//!   Step 1: mark all the cycle nodes in the pseudo-forest          (Section 5)
//!   Step 2: find the Q-labels of the cycle nodes                   (Section 3)
//!   Step 3: find the Q-labels of the remaining tree nodes          (Section 4)
//! ```
//!
//! Step 2 canonises each cycle's B-label string (smallest repeating prefix,
//! then minimal starting point via *Algorithm efficient m.s.p.*), groups
//! equivalent cycles with *Algorithm partition*, and labels every cycle node
//! by (cycle class, offset along the period): the class's base, an
//! exclusive scan of the class periods, plus the offset.  Step 3 first
//! inherits cycle labels along matching paths (Lemma 4.1, implemented with
//! Euler-tour ancestor sums), then labels the remaining "unmarked" nodes by
//! a doubling computation over their root paths (Lemma 4.2) that stops at
//! the first round splitting no class: `O(n log k)` work for `k` the longest
//! path prefix two classes need to separate.  A level-by-level work-optimal
//! labelling is Step 3's oracle (the paper gets both bounds at once via
//! Kedem–Palem scheduling — see DESIGN.md).

use crate::cycle_equivalence::{group_cycles, GroupingMethod};
use crate::error::DecomposeError;
use crate::problem::{Instance, Partition};
use sfcp_forest::cycles::CycleMethod;
use sfcp_forest::{decompose, Decomposition};
use sfcp_parprim::rank::{dense_ranks_by_sort, dense_ranks_of_pairs_into};
use sfcp_parprim::scan::scan_generic;
use sfcp_pram::Ctx;
use sfcp_strings::canonical::booth_msp;
use sfcp_strings::msp::{minimal_starting_point, MspMethod};
use sfcp_strings::period::{smallest_period, smallest_period_seq};
use sfcp_strings::rotation;

/// Tunables of the parallel algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// How the cycle nodes are detected (Section 5).
    pub cycle_method: CycleMethod,
    /// Which m.s.p. algorithm canonises long cycles (Section 3.1).
    pub msp_method: MspMethod,
    /// Cycles at least this long use the parallel period/m.s.p. routines;
    /// shorter ones use the sequential linear-time routines (running a
    /// multi-round parallel algorithm on a ten-element string is pure
    /// overhead on real hardware).
    pub parallel_strings_threshold: usize,
    /// How equivalent cycles are grouped (Section 3.2).
    pub grouping: GroupingMethod,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            cycle_method: CycleMethod::Euler,
            msp_method: MspMethod::Efficient,
            parallel_strings_threshold: 1 << 13,
            grouping: GroupingMethod::Partition,
        }
    }
}

/// Compute the coarsest stable refinement with the paper's parallel
/// algorithm under the default configuration.
#[must_use]
pub fn coarsest_parallel(ctx: &Ctx, instance: &Instance) -> Partition {
    coarsest_parallel_with(ctx, instance, ParallelConfig::default())
}

/// Fallible [`coarsest_parallel`]: validates the size envelope, converts any
/// mid-pipeline panic (internal assert or injected fault) into a typed
/// [`DecomposeError`], and runs [`Ctx::recover`] before returning so the
/// context and its warm pools stay usable (see DESIGN.md, "Failure model and
/// recovery").
///
/// # Errors
/// [`DecomposeError::InvalidInput`] when the instance exceeds the fused
/// ranking domain's size envelope; [`DecomposeError::Execution`] when the
/// pipeline unwinds (retrying the same call is sound).
pub fn try_coarsest_parallel(ctx: &Ctx, instance: &Instance) -> Result<Partition, DecomposeError> {
    try_coarsest_parallel_with(ctx, instance, ParallelConfig::default())
}

/// [`try_coarsest_parallel`] with an explicit configuration.
///
/// # Errors
/// See [`try_coarsest_parallel`].
pub fn try_coarsest_parallel_with(
    ctx: &Ctx,
    instance: &Instance,
    config: ParallelConfig,
) -> Result<Partition, DecomposeError> {
    // Same envelope as `sfcp_forest::try_decompose`: the fused Euler +
    // broken-cycle ranking runs over 2n words flagged at bit 31.
    if instance.len() >= sfcp_pram::MAX_DOMAIN / 2 {
        return Err(DecomposeError::InvalidInput(sfcp_pram::Error::TooLarge {
            n: instance.len(),
            max: sfcp_pram::MAX_DOMAIN / 2,
        }));
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        coarsest_parallel_with(ctx, instance, config)
    })) {
        Ok(q) => Ok(q),
        Err(payload) => {
            let err = sfcp_pram::Error::from_panic(payload);
            ctx.recover();
            Err(err.into())
        }
    }
}

/// Compute the coarsest stable refinement with an explicit configuration.
#[must_use]
pub fn coarsest_parallel_with(ctx: &Ctx, instance: &Instance, config: ParallelConfig) -> Partition {
    let mut span_all = ctx.span("coarsest_parallel");
    span_all.attr("n", instance.len() as u64);
    let n = instance.len();
    if n == 0 {
        return Partition::new(Vec::new());
    }
    // ---- Step 1: structure -------------------------------------------------
    let dec = decompose(ctx, instance.graph(), config.cycle_method);

    // ---- Step 2: cycle node labelling --------------------------------------
    let span_phase = ctx.span("label_cycle_nodes");
    let (mut labels, mut next_label) = label_cycle_nodes(ctx, instance, &dec, config);
    drop(span_phase);

    // ---- Step 3: tree node labelling ---------------------------------------
    if dec.levels.iter().any(|&l| l > 0) {
        let mut span = ctx.span("label_tree_nodes");
        let (unmarked, terminals) =
            label_tree_nodes(ctx, instance, &dec, &mut labels, &mut next_label);
        span.attr("unmarked", unmarked as u64);
        span.attr("terminals", terminals as u64);
    }

    debug_assert!(labels.iter().all(|&l| l != u32::MAX), "every node labelled");
    Partition::new(labels)
}

/// Step 2: label the cycle nodes.  Returns the (partial) label array — tree
/// nodes still carry `u32::MAX` — and the number of labels handed out.
fn label_cycle_nodes(
    ctx: &Ctx,
    instance: &Instance,
    dec: &Decomposition,
    config: ParallelConfig,
) -> (Vec<u32>, u32) {
    let n = instance.len();
    let b = instance.blocks();
    let num_cycles = dec.num_cycles();

    // Canonise every cycle: smallest repeating prefix, rotated to its m.s.p.
    // Short cycles use the sequential linear routines, long cycles the
    // parallel ones (Section 3.1); both paths are exercised by the tests.
    let threshold = config.parallel_strings_threshold.max(2);
    let canons: Vec<((u32, u32), Vec<u32>)> = ctx.par_map_idx(num_cycles, |c| {
        let cycle = dec.cycle(c);
        let s: Vec<u32> = cycle.iter().map(|&x| b[x as usize]).collect();
        let (period, msp) = if s.len() >= threshold {
            let p = smallest_period(ctx, &s);
            let r = minimal_starting_point(ctx, &s[..p], config.msp_method);
            (p, r)
        } else {
            let p = smallest_period_seq(&s);
            let r = booth_msp(&s[..p]);
            (p, r)
        };
        ctx.charge_work(s.len() as u64);
        ((period as u32, msp as u32), rotation(&s[..period], msp))
    });

    // Group equivalent cycles (Section 3.2).  The canonical strings move
    // out of `canons`; every cycle keeps its (period, m.s.p.) pair.
    let (shapes, canonical): (Vec<(u32, u32)>, Vec<Vec<u32>>) = canons.into_iter().unzip();
    let cycle_class = group_cycles(ctx, &canonical, config.grouping);
    drop(canonical);

    // A cycle node's class is (class of its cycle, offset of the node along
    // the canonical period).  The class ids are dense and the offsets of a
    // class of period p cover 0..p, so the order-preserving rank of the pair
    // is base[class] + offset, with base the exclusive scan of the class
    // periods in class-id order.  Equivalent cycles share their period.
    let num_classes = cycle_class.iter().max().map_or(0, |&k| k as usize + 1);
    let mut class_period = vec![0u32; num_classes];
    for (&k, &(period, _)) in cycle_class.iter().zip(&shapes) {
        class_period[k as usize] = period;
    }
    ctx.charge_step(num_cycles as u64);
    let base = scan_generic(ctx, &class_period, 0u32, |x, y| x + y, false);
    let num_labels: u32 = class_period.iter().sum();

    let mut labels = vec![u32::MAX; n];
    {
        let ptr = SendPtr(labels.as_mut_ptr());
        let (base, shapes, cycle_class) = (&base, &shapes, &cycle_class);
        ctx.par_for_idx(dec.cycle_nodes.len(), |i| {
            let x = dec.cycle_nodes[i] as usize;
            let c = dec.cycle_of[x] as usize;
            let (period, msp) = shapes[c];
            let offset = (i as u32 - dec.cycle_offsets[c] + period - msp) % period;
            let p = ptr;
            // SAFETY: the cycle CSR lists every cycle node once, so distinct
            // indices write distinct slots.
            unsafe {
                *p.0.add(x) = base[cycle_class[c] as usize] + offset;
            }
        });
    }
    (labels, num_labels)
}

/// Step 3: label the tree nodes by the paper's route — Lemma 4.1 marking +
/// Euler-tour descendant unmarking, then Lemma 4.2 doubling over the
/// residual forest.  Returns the number of unmarked nodes and of terminals
/// (distinct anchor labels).
fn label_tree_nodes(
    ctx: &Ctx,
    instance: &Instance,
    dec: &Decomposition,
    labels: &mut [u32],
    next_label: &mut u32,
) -> (usize, usize) {
    let n = instance.len();
    let f = instance.f();
    let b = instance.blocks();
    let ws = ctx.workspace();

    // Root (cycle node) of every node's pseudo-tree — computed once by
    // `decompose` and threaded through on the decomposition (formerly a
    // third pointer-jumping run per coarsest invocation).
    let roots = &dec.roots;

    // Steps 1–2: the corresponding cycle node of every tree node and the
    // per-node B-label match flag (Lemma 4.1).
    let corr: Vec<u32> = ctx.par_map_idx(n, |x| {
        if dec.is_cycle[x] {
            x as u32
        } else {
            let r = roots[x];
            let c = dec.cycle_of[x] as usize;
            let cycle = dec.cycle(c);
            let k = cycle.len() as u32;
            let level = dec.levels[x];
            let pos_r = dec.cycle_pos[r as usize];
            let pos = (pos_r + k - (level % k)) % k;
            cycle[pos as usize]
        }
    });
    let ok: Vec<bool> = ctx.par_map_idx(n, |x| dec.is_cycle[x] || b[x] == b[corr[x] as usize]);

    // Step 3: unmark all descendants of an unmatching node — a node is truly
    // marked iff it matches and has no unmatching proper ancestor, computed
    // with one Euler-tour ancestor sum (all intermediates workspace-backed).
    let mut bad = ws.take_u64(n);
    {
        let ok = &ok;
        ctx.par_update(&mut bad, |x, v| *v = u64::from(!ok[x]));
    }
    let mut bad_ancestors = ws.take_u64(0);
    dec.tour.ancestor_counts_into(ctx, &bad, &mut bad_ancestors);
    let marked: Vec<bool> = {
        let bad_ancestors = &bad_ancestors;
        ctx.par_map_idx(n, |x| ok[x] && bad_ancestors[x] == 0)
    };

    // Step 4: marked tree nodes inherit the label of their corresponding
    // cycle node.
    {
        let ptr = SendPtr(labels.as_mut_ptr());
        ctx.par_for_idx(n, |x| {
            if marked[x] && !dec.is_cycle[x] {
                let p = ptr;
                // SAFETY: each marked tree node writes its own slot only, and
                // reads the slot of its corresponding node, which is a cycle
                // node; cycle slots are never written here, so no slot is both
                // read and written by the loop.
                unsafe {
                    *p.0.add(x) = *p.0.add(corr[x] as usize);
                }
            }
        });
    }

    // Step 5: label the unmarked nodes by doubling over their root paths
    // (Lemma 4.2): x ≡ y iff the B-label strings of their paths to the roots
    // of the unmarked forest are equal and the labels of the roots' parents
    // are equal.
    let unmarked_ids: Vec<u32> = sfcp_parprim::compact::compact_indices(ctx, n, |x| !marked[x]);
    let u = unmarked_ids.len();
    if u == 0 {
        return (0, 0);
    }
    let mut compact = vec![u32::MAX; n];
    {
        let ptr = SendPtr(compact.as_mut_ptr());
        let ids = &unmarked_ids;
        ctx.par_for_idx(u, |i| {
            let p = ptr;
            // SAFETY: distinct unmarked nodes write distinct slots.
            unsafe {
                *p.0.add(ids[i] as usize) = i as u32;
            }
        });
    }

    // Anchors: the labels of the (already labelled) parents of unmarked
    // roots.  Terminal virtual nodes, one per distinct anchor label.
    let anchor_label_of: Vec<u32> = ctx.par_map_slice(&unmarked_ids, |&x| {
        let parent = f[x as usize];
        if marked[parent as usize] {
            labels[parent as usize]
        } else {
            u32::MAX // parent is unmarked: no anchor here
        }
    });
    let (anchor_terminal, num_terminals) = {
        let keys: Vec<u64> = anchor_label_of
            .iter()
            .filter(|&&a| a != u32::MAX)
            .map(|&a| u64::from(a))
            .collect();
        let (dense, count) = dense_ranks_by_sort(ctx, &keys);
        // Re-expand to per-unmarked-node terminal ids.
        let mut it = dense.iter();
        let expanded: Vec<u32> = anchor_label_of
            .iter()
            .map(|&a| {
                if a == u32::MAX {
                    u32::MAX
                } else {
                    *it.next().unwrap()
                }
            })
            .collect();
        (expanded, count)
    };

    // Extended node set: unmarked nodes 0..u, then terminals u..u+T.
    // All per-round scratch below is workspace-backed and ping-ponged across
    // the doubling rounds (O(1) buffers per run, not per round).
    let total = u + num_terminals;
    let mut jump: Vec<u32> = ctx.par_map_idx(total, |i| {
        if i < u {
            let x = unmarked_ids[i] as usize;
            let parent = f[x] as usize;
            if marked[parent] {
                (u + anchor_terminal[i] as usize) as u32
            } else {
                compact[parent]
            }
        } else {
            i as u32 // terminals are fixed points
        }
    });
    // Initial labels: tag B-labels and terminal ids apart.
    let mut pairs = ws.take_pairs(total);
    {
        let unmarked_ids = &unmarked_ids;
        ctx.par_update(&mut pairs, |i, p| {
            *p = if i < u {
                (0, u64::from(b[unmarked_ids[i] as usize]))
            } else {
                (1, (i - u) as u64)
            };
        });
    }
    let mut lab = ws.take_u32(0);
    let mut distinct = dense_ranks_of_pairs_into(ctx, &pairs, &mut lab);

    // Round r ranks (label, label of the 2^r-th successor), so afterwards a
    // label encodes the first 2^(r+1) B-labels of the node's path, padded
    // with its terminal.  Every pair leads with the previous label, so labels
    // only refine, and an equal class count means an equal partition:
    // P_2k = P_k.  Nodes with equal k-prefixes then have equal 2k-prefixes,
    // hence successors with equal k-prefixes: P_k is stable under f, so
    // P_(k+1) = P_k, the fixpoint, and no later round splits a class.  The
    // loop therefore stops at the first round that splits nothing (or once
    // every class is a singleton).  Once 2^(r+1) ≥ d + 2, for d the residual
    // depth, every label includes its terminal, so round r + 1 splits
    // nothing: the loop runs at most ⌈lg(d + 2)⌉ + 1 rounds.
    let mut next_lab = ws.take_u32(0);
    let mut next_jump = ws.take_u32(total);
    for round in 0u64.. {
        if distinct == total {
            break;
        }
        let mut span_round = ctx.span("doubling_round");
        span_round.attr("round", round);
        {
            let lab = &lab;
            let jump = &jump;
            ctx.par_update(&mut pairs, |i, p| {
                *p = (u64::from(lab[i]), u64::from(lab[jump[i] as usize]));
            });
        }
        let count = dense_ranks_of_pairs_into(ctx, &pairs, &mut next_lab);
        span_round.attr("classes", count as u64);
        if count == distinct {
            break;
        }
        distinct = count;
        {
            let jump_ref = &jump;
            ctx.par_update(&mut next_jump, |i, j| *j = jump_ref[jump_ref[i] as usize]);
        }
        std::mem::swap(&mut *lab, &mut *next_lab);
        std::mem::swap(&mut jump, &mut *next_jump);
    }

    // Ranks are order-preserving, the terminals start as (1, t) above every
    // (0, b), and every later pair leads with the previous label: the T
    // terminal classes keep the top T labels, so the unmarked classes are
    // exactly 0..distinct - T.  Unmarked nodes are never equivalent to
    // already-labelled nodes (a node equivalent to any cycle node is marked),
    // so they take these classes offset past the labels already handed out.
    let classes = distinct - num_terminals;
    debug_assert!(
        (0..num_terminals).all(|t| lab[u + t] as usize == classes + t),
        "terminals must hold the top labels"
    );
    {
        let ptr = SendPtr(labels.as_mut_ptr());
        let base = *next_label;
        let (ids, lab) = (&unmarked_ids, &lab);
        ctx.par_for_idx(u, |i| {
            let p = ptr;
            // SAFETY: distinct unmarked nodes write distinct slots.
            unsafe {
                *p.0.add(ids[i] as usize) = base + lab[i];
            }
        });
    }
    *next_label += classes as u32;
    (u, num_terminals)
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
    use crate::naive::coarsest_naive;
    use crate::verify::assert_valid;
    use proptest::prelude::*;
    use sfcp_pram::fxhash::FxHashMap;

    fn configs() -> Vec<ParallelConfig> {
        let mut out = Vec::new();
        for grouping in [GroupingMethod::Partition, GroupingMethod::Hash] {
            for cycle_method in [CycleMethod::Euler, CycleMethod::Sequential] {
                out.push(ParallelConfig {
                    cycle_method,
                    grouping,
                    ..ParallelConfig::default()
                });
            }
        }
        out
    }

    /// The pipeline of [`coarsest_parallel_with`] with Step 3's oracle in
    /// place of the doubling.
    fn coarsest_levelwise(ctx: &Ctx, instance: &Instance, config: ParallelConfig) -> Partition {
        let dec = decompose(ctx, instance.graph(), config.cycle_method);
        let (mut labels, mut next_label) = label_cycle_nodes(ctx, instance, &dec, config);
        if dec.levels.iter().any(|&l| l > 0) {
            label_tree_nodes_levelwise(ctx, instance, &dec, &mut labels, &mut next_label);
        }
        Partition::new(labels)
    }

    /// Step 3's oracle, level-by-level labelling: `Q(x)` is determined by
    /// `(B(x), Q(f(x)))` (Lemma 2.1(i)); levels are processed in increasing
    /// order so the image is always labelled first.  `O(n)` work, but depth
    /// proportional to the tree height.
    #[allow(clippy::needless_range_loop)] // level indexes a per-level bucket list
    fn label_tree_nodes_levelwise(
        ctx: &Ctx,
        instance: &Instance,
        dec: &Decomposition,
        labels: &mut [u32],
        next_label: &mut u32,
    ) {
        let n = instance.len();
        let f = instance.f();
        let b = instance.blocks();
        let ws = ctx.workspace();

        // Bucket the tree nodes by level: a CSR build keyed by level
        // (ascending node order inside each level).
        let max_level = *dec.levels.iter().max().unwrap() as usize;
        let mut level_start = ws.take_u32(0);
        let mut level_nodes = ws.take_u32(0);
        sfcp_parprim::csr::build_csr_into(
            ctx,
            max_level + 1,
            n,
            |x| (!dec.is_cycle[x]).then(|| (dec.levels[x], x as u32)),
            &mut level_start,
            &mut level_nodes,
        );

        // Seed the signature map with the cycle nodes so tree nodes that are
        // equivalent to cycle nodes merge with them.
        let mut pair_class: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for x in 0..n {
            if dec.is_cycle[x] {
                pair_class.insert((b[x], labels[f[x] as usize]), labels[x]);
            }
        }

        for level in 1..=max_level {
            let nodes = &level_nodes[level_start[level] as usize..level_start[level + 1] as usize];
            if nodes.is_empty() {
                continue;
            }
            // Keys can be computed in parallel; the dense assignment walks the
            // level sequentially (the map is shared across levels).
            let keys: Vec<(u32, u32)> =
                ctx.par_map_slice(nodes, |&x| (b[x as usize], labels[f[x as usize] as usize]));
            for (i, &x) in nodes.iter().enumerate() {
                let label = *pair_class.entry(keys[i]).or_insert_with(|| {
                    let l = *next_label;
                    *next_label += 1;
                    l
                });
                labels[x as usize] = label;
            }
        }
    }

    #[test]
    fn paper_example_all_configs() {
        let inst = Instance::paper_example();
        let expected = Partition::new(sfcp_forest::generators::paper_example_expected_q());
        let ctx = Ctx::parallel();
        for config in configs() {
            for q in [
                coarsest_parallel_with(&ctx, &inst, config),
                coarsest_levelwise(&ctx, &inst, config),
            ] {
                assert!(
                    q.same_partition(&expected),
                    "config {config:?} gave {:?}",
                    q.labels()
                );
            }
        }
    }

    #[test]
    fn edge_cases_match_naive() {
        let ctx = Ctx::parallel();
        for inst in [
            Instance::new(vec![], vec![]),
            Instance::new(vec![0], vec![5]),
            Instance::new(vec![1, 0], vec![0, 0]),
            Instance::new(vec![1, 0], vec![0, 1]),
            Instance::new(vec![0; 10], (0..10).collect()),
            Instance::new(vec![0; 10], vec![0; 10]),
            Instance::new((0..10).collect(), vec![0; 10]),
            Instance::new(vec![1, 2, 3, 4, 5, 0], vec![0, 1, 0, 1, 0, 1]),
            Instance::new(vec![1, 2, 3, 4, 5, 0], vec![0, 1, 0, 0, 1, 0]),
        ] {
            let q = coarsest_parallel(&ctx, &inst);
            assert!(
                q.same_partition(&coarsest_naive(&inst)),
                "mismatch on f = {:?}, B = {:?}: got {:?}",
                inst.f(),
                inst.blocks(),
                q.labels()
            );
        }
    }

    /// Twin chains: a 2-cycle with B = (1, 2) and three all-0 chains of
    /// 1,000 nodes, two hanging off node 0 and one off node 1.  Chain nodes at
    /// equal depth below node 0 are equivalent, all others are apart, and
    /// separating the deepest ones takes their whole path: every doubling
    /// round splits a class until the fixpoint round.
    fn twin_chains() -> Instance {
        let (mut f, mut b) = (vec![1u32, 0], vec![1u32, 2]);
        for anchor in [0, 0, 1] {
            let mut parent = anchor;
            for _ in 0..1000 {
                f.push(parent);
                b.push(0);
                parent = f.len() as u32 - 1;
            }
        }
        Instance::new(f, b)
    }

    #[test]
    fn structured_instances_match_naive_all_configs() {
        let instances = [
            Instance::random(600, 2, 0),
            Instance::random(600, 5, 1),
            Instance::random_cycles(&[2, 3, 4, 6, 6, 12, 24], 2, 2),
            Instance::periodic_cycles(9, 24, 6, 3, 3),
            Instance::deep(500, 5, 2, 4),
            Instance::deep(500, 1, 2, 5),
            twin_chains(),
        ];
        let ctx = Ctx::parallel();
        for inst in &instances {
            let expected = coarsest_naive(inst);
            for config in configs() {
                for q in [
                    coarsest_parallel_with(&ctx, inst, config),
                    coarsest_levelwise(&ctx, inst, config),
                ] {
                    assert!(
                        q.same_partition(&expected),
                        "config {config:?} mismatched on n = {}",
                        inst.len()
                    );
                }
            }
            assert_valid(inst, &expected);
        }
    }

    #[test]
    fn twin_chains_split_a_class_in_every_doubling_round() {
        let inst = twin_chains();
        assert_eq!(
            (inst.len(), coarsest_naive(&inst).num_blocks()),
            (3002, 2002)
        );
        let ctx = Ctx::parallel().with_tracing();
        let _ = coarsest_parallel(&ctx, &inst);
        let snap = ctx.trace().snapshot();
        let classes: Vec<u64> = snap
            .spans_named("doubling_round")
            .iter()
            .map(|r| r.attrs.iter().find(|(k, _)| *k == "classes").unwrap().1)
            .collect();
        // The bound ⌈lg(d + 2)⌉ + 1 for the residual depth d = 999: every
        // round before it splits a class, so the exit cannot fire early.
        assert_eq!(classes.len(), 11, "{classes:?}");
        let (last, grew) = classes.split_last().unwrap();
        assert!(grew.windows(2).all(|w| w[0] < w[1]), "{classes:?}");
        assert_eq!(Some(last), grew.last(), "{classes:?}");
    }

    #[test]
    fn large_cycle_uses_parallel_string_routines() {
        // A single cycle longer than the threshold forces the parallel
        // period/m.s.p. path.
        let inst = Instance::periodic_cycles(1, 1 << 14, 8, 3, 7);
        let ctx = Ctx::parallel();
        let config = ParallelConfig {
            parallel_strings_threshold: 1 << 10,
            ..ParallelConfig::default()
        };
        let q = coarsest_parallel_with(&ctx, &inst, config);
        assert!(q.same_partition(&coarsest_naive(&inst)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_naive_on_random_instances(n in 1usize..120, blocks in 1usize..4, seed in 0u64..300) {
            let inst = Instance::random(n, blocks, seed);
            let ctx = Ctx::parallel().with_grain(32);
            let expected = coarsest_naive(&inst);
            let q = coarsest_parallel(&ctx, &inst);
            prop_assert!(q.same_partition(&expected), "default config");
            let q2 = coarsest_levelwise(&ctx, &inst, ParallelConfig {
                grouping: GroupingMethod::Hash,
                ..ParallelConfig::default()
            });
            prop_assert!(q2.same_partition(&expected), "levelwise + hash grouping");
        }

        #[test]
        fn matches_naive_on_cycle_instances(
            lengths in proptest::collection::vec(1usize..16, 1..8),
            blocks in 1usize..4,
            seed in 0u64..100,
        ) {
            let inst = Instance::random_cycles(&lengths, blocks, seed);
            let ctx = Ctx::parallel().with_grain(32);
            let q = coarsest_parallel(&ctx, &inst);
            prop_assert!(q.same_partition(&coarsest_naive(&inst)));
        }
    }

    /// The sort-based cycle-node labelling that the scan of class periods
    /// replaced, kept as its reference: canonise every cycle sequentially,
    /// group the strings, then dense-rank the (class, offset) pairs of the
    /// cycle nodes.
    fn label_cycle_nodes_by_sort(
        ctx: &Ctx,
        inst: &Instance,
        dec: &Decomposition,
        grouping: GroupingMethod,
    ) -> (Vec<u32>, u32) {
        let (n, b) = (inst.len(), inst.blocks());
        let mut shapes = Vec::new();
        let mut strings = Vec::new();
        for cycle in dec.cycles() {
            let s: Vec<u32> = cycle.iter().map(|&x| b[x as usize]).collect();
            let p = smallest_period_seq(&s);
            let r = booth_msp(&s[..p]);
            shapes.push((p as u32, r as u32));
            strings.push(rotation(&s[..p], r));
        }
        let class = group_cycles(ctx, &strings, grouping);
        let ids: Vec<u32> = (0..n as u32)
            .filter(|&x| dec.is_cycle[x as usize])
            .collect();
        let keys: Vec<(u64, u64)> = ids
            .iter()
            .map(|&x| {
                let c = dec.cycle_of[x as usize] as usize;
                let (p, msp) = shapes[c];
                let offset = (dec.cycle_pos[x as usize] + p - msp) % p;
                (u64::from(class[c]), u64::from(offset))
            })
            .collect();
        let (dense, count) = sfcp_parprim::rank::dense_ranks_of_pairs(ctx, &keys);
        let mut labels = vec![u32::MAX; n];
        for (&x, &l) in ids.iter().zip(&dense) {
            labels[x as usize] = l;
        }
        (labels, count as u32)
    }

    #[test]
    fn cycle_labels_match_the_sort_based_ranking() {
        let instances = [
            Instance::random_cycles(&[2, 3, 4, 6, 6, 12, 24, 40, 97, 128], 2, 2),
            Instance::random_cycles(&[1, 1, 5, 5, 5, 9, 300], 3, 8),
            Instance::periodic_cycles(9, 24, 6, 3, 3),
            Instance::periodic_cycles(12, 64, 16, 2, 4),
            Instance::random(3000, 1, 6),
            Instance::random(3000, 3, 5),
        ];
        let ctx = Ctx::parallel().with_grain(16);
        for inst in &instances {
            let dec = decompose(&ctx, inst.graph(), CycleMethod::Euler);
            // A small threshold sends the longer cycles down the parallel
            // period and m.s.p. routines.
            for (grouping, threshold) in [
                (GroupingMethod::Partition, 32),
                (GroupingMethod::Hash, 1 << 13),
            ] {
                let config = ParallelConfig {
                    grouping,
                    parallel_strings_threshold: threshold,
                    ..ParallelConfig::default()
                };
                assert_eq!(
                    label_cycle_nodes(&ctx, inst, &dec, config),
                    label_cycle_nodes_by_sort(&ctx, inst, &dec, grouping),
                    "n = {}, {grouping:?}",
                    inst.len()
                );
            }
        }
    }

    /// Miri target: the end-to-end parallel coarsest-partition pipeline on
    /// the paper example.
    #[test]
    fn miri_paper_example_parallel() {
        let inst = Instance::paper_example();
        let expected = Partition::new(sfcp_forest::generators::paper_example_expected_q());
        let ctx = Ctx::parallel();
        let q = coarsest_parallel(&ctx, &inst);
        assert!(q.same_partition(&expected), "{:?}", q.labels());
    }

    /// Miri target: tree labelling, which the paper example (a permutation)
    /// never reaches.  This instance has 14 cycle nodes, 9 marked tree nodes
    /// and 25 unmarked ones, so step 4's inherited labels and the final
    /// scatter of the doubling both run, across tasks at grain 4.
    #[test]
    fn miri_random_forest_parallel() {
        let inst = Instance::random(48, 2, 0);
        let ctx = Ctx::parallel().with_grain(4).with_tracing();
        let q = coarsest_parallel(&ctx, &inst);
        assert!(q.same_partition(&coarsest_naive(&inst)), "{:?}", q.labels());
        let snap = ctx.trace().snapshot();
        let tree = snap.spans_named("label_tree_nodes");
        assert_eq!(tree[0].attrs, [("unmarked", 25), ("terminals", 6)]);
    }
}
