//! Problem instances and partitions.
//!
//! An instance of the single function coarsest partition problem is a
//! function `f` on `{0, …, n-1}` (the array `A_f`) together with an initial
//! partition `B` given as block labels (the array `A_B`).  The output is
//! another labelling `A_Q` — the coarsest partition refining `B` that is
//! stable under `f`.

use rand::prelude::*;
use sfcp_forest::generators;
use sfcp_forest::FunctionalGraph;

/// An instance of the coarsest partition problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    graph: FunctionalGraph,
    blocks: Vec<u32>,
}

impl Instance {
    /// Build an instance from the function table and the initial block
    /// labels.  Block labels may be arbitrary `u32`s; they are interpreted
    /// purely up to equality.
    ///
    /// # Panics
    /// Panics if the arrays have different lengths or `f` is out of range.
    #[must_use]
    pub fn new(f: Vec<u32>, blocks: Vec<u32>) -> Self {
        assert_eq!(f.len(), blocks.len(), "A_f and A_B must have equal length");
        Instance {
            graph: FunctionalGraph::new(f),
            blocks,
        }
    }

    /// Fallible [`Instance::new`]: the constructor for untrusted inputs.
    ///
    /// # Errors
    /// [`sfcp_pram::Error::LengthMismatch`] when the arrays have different
    /// lengths, plus everything [`FunctionalGraph::try_new`] rejects
    /// (out-of-range values, oversized domains).
    pub fn try_new(f: Vec<u32>, blocks: Vec<u32>) -> Result<Self, sfcp_pram::Error> {
        if f.len() != blocks.len() {
            return Err(sfcp_pram::Error::LengthMismatch {
                what: "A_f and A_B",
                left: f.len(),
                right: blocks.len(),
            });
        }
        Ok(Instance {
            graph: FunctionalGraph::try_new(f)?,
            blocks,
        })
    }

    /// Content digest of the instance: FxHash over `n`, `A_f`, and `A_B`.
    ///
    /// Two instances with equal digests are (with fingerprint confidence)
    /// the same problem; the serving layer keys its snapshot cache on this
    /// value.
    #[must_use]
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = sfcp_pram::fxhash::FxHasher::default();
        h.write_u64(self.len() as u64);
        for &v in self.f() {
            h.write_u32(v);
        }
        for &v in &self.blocks {
            h.write_u32(v);
        }
        h.finish()
    }

    /// Build from an existing functional graph.
    #[must_use]
    pub fn from_graph(graph: FunctionalGraph, blocks: Vec<u32>) -> Self {
        assert_eq!(graph.len(), blocks.len());
        Instance { graph, blocks }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the instance is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The function graph.
    #[must_use]
    pub fn graph(&self) -> &FunctionalGraph {
        &self.graph
    }

    /// The function table `A_f`.
    #[must_use]
    pub fn f(&self) -> &[u32] {
        self.graph.table()
    }

    /// The initial block labels `A_B`.
    #[must_use]
    pub fn blocks(&self) -> &[u32] {
        &self.blocks
    }

    /// The instance of Example 2.2 / Fig. 1 of the paper.
    #[must_use]
    pub fn paper_example() -> Self {
        Instance::from_graph(
            generators::paper_example_function(),
            generators::paper_example_blocks(),
        )
    }

    /// A random instance: uniformly random function, uniformly random block
    /// labels over `num_blocks` blocks.
    #[must_use]
    pub fn random(n: usize, num_blocks: usize, seed: u64) -> Self {
        let graph = generators::random_function(n, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9e37_79b9));
        let blocks = (0..n)
            .map(|_| rng.gen_range(0..num_blocks.max(1)) as u32)
            .collect();
        Instance::from_graph(graph, blocks)
    }

    /// A cycles-only instance with the given cycle lengths and random labels.
    #[must_use]
    pub fn random_cycles(lengths: &[usize], num_blocks: usize, seed: u64) -> Self {
        let graph = generators::cycles_only(lengths, seed);
        let n = graph.len();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xabcd));
        let blocks = (0..n)
            .map(|_| rng.gen_range(0..num_blocks.max(1)) as u32)
            .collect();
        Instance::from_graph(graph, blocks)
    }

    /// `k` cycles of equal length `len`, whose B-labels are periodic with the
    /// given `period`: a workload where many cycles are equivalent, stressing
    /// the cycle-equivalence machinery of Section 3.2.
    #[must_use]
    pub fn periodic_cycles(
        k: usize,
        len: usize,
        period: usize,
        num_blocks: usize,
        seed: u64,
    ) -> Self {
        assert!(
            period > 0 && len.is_multiple_of(period),
            "period must divide the cycle length"
        );
        let graph = generators::equal_cycles(k, len, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5151);
        // A small pool of period-patterns shared by the cycles.
        let num_patterns = (k / 3).max(1);
        let patterns: Vec<Vec<u32>> = (0..num_patterns)
            .map(|_| {
                (0..period)
                    .map(|_| rng.gen_range(0..num_blocks.max(1)) as u32)
                    .collect()
            })
            .collect();
        // Assign labels by walking each cycle.
        let n = graph.len();
        let mut blocks = vec![0u32; n];
        let mut visited = vec![false; n];
        let mut cycle_index = 0usize;
        for start in 0..n as u32 {
            if visited[start as usize] {
                continue;
            }
            let pattern = &patterns[cycle_index % num_patterns];
            let mut cur = start;
            let mut pos = 0usize;
            while !visited[cur as usize] {
                visited[cur as usize] = true;
                blocks[cur as usize] = pattern[pos % period];
                pos += 1;
                cur = graph.apply(cur);
            }
            cycle_index += 1;
        }
        Instance::from_graph(graph, blocks)
    }

    /// A deep instance: one long path into a small cycle, with `num_blocks`
    /// random labels — the worst case for level-by-level tree labelling.
    #[must_use]
    pub fn deep(n: usize, cycle_len: usize, num_blocks: usize, seed: u64) -> Self {
        let graph = generators::long_tail(n, cycle_len, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7777);
        let blocks = (0..n)
            .map(|_| rng.gen_range(0..num_blocks.max(1)) as u32)
            .collect();
        Instance::from_graph(graph, blocks)
    }
}

/// A partition of `{0, …, n-1}` represented by per-element labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    labels: Vec<u32>,
}

impl Partition {
    /// Wrap raw labels (interpreted up to equality).
    #[must_use]
    pub fn new(labels: Vec<u32>) -> Self {
        Partition { labels }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the partition covers no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label of element `x`.
    #[must_use]
    pub fn label(&self, x: u32) -> u32 {
        self.labels[x as usize]
    }

    /// The raw labels.
    #[must_use]
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Consume the partition and return the label array (the serving
    /// layer's snapshot encoder takes ownership instead of copying).
    #[must_use]
    pub fn into_labels(self) -> Vec<u32> {
        self.labels
    }

    /// Number of distinct blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for &l in &self.labels {
            seen.insert(l);
        }
        seen.len()
    }

    /// Canonical form: blocks renumbered by first occurrence (element 0's
    /// block becomes 0, the next new block 1, and so on).  Two labelings
    /// describe the same partition iff their canonical forms are equal.
    #[must_use]
    pub fn canonical(&self) -> Partition {
        let mut map = std::collections::HashMap::new();
        let mut out = Vec::with_capacity(self.labels.len());
        for &l in &self.labels {
            let next = map.len() as u32;
            out.push(*map.entry(l).or_insert(next));
        }
        Partition::new(out)
    }

    /// Whether two labelings describe the same partition (same equivalence
    /// classes, possibly different label values).
    #[must_use]
    pub fn same_partition(&self, other: &Partition) -> bool {
        self.len() == other.len() && self.canonical() == other.canonical()
    }
}

impl From<Vec<u32>> for Partition {
    fn from(labels: Vec<u32>) -> Self {
        Partition::new(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_construction_and_accessors() {
        let inst = Instance::new(vec![1, 2, 0], vec![0, 0, 1]);
        assert_eq!(inst.len(), 3);
        assert_eq!(inst.f(), &[1, 2, 0]);
        assert_eq!(inst.blocks(), &[0, 0, 1]);
        assert_eq!(inst.graph().apply(2), 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_mismatched_lengths() {
        let _ = Instance::new(vec![0, 1], vec![0]);
    }

    #[test]
    fn paper_example_instance() {
        let inst = Instance::paper_example();
        assert_eq!(inst.len(), 16);
        assert_eq!(inst.blocks()[0], 0);
        assert_eq!(inst.blocks()[6], 2);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(Instance::random(500, 4, 1), Instance::random(500, 4, 1));
        assert_ne!(Instance::random(500, 4, 1), Instance::random(500, 4, 2));
        let c = Instance::periodic_cycles(6, 12, 4, 3, 9);
        assert_eq!(c.len(), 72);
        let d = Instance::deep(100, 4, 2, 3);
        assert_eq!(d.len(), 100);
    }

    #[test]
    fn partition_canonicalisation() {
        let p = Partition::new(vec![7, 7, 3, 9, 3]);
        let q = Partition::new(vec![0, 0, 1, 2, 1]);
        let r = Partition::new(vec![0, 0, 1, 2, 2]);
        assert!(p.same_partition(&q));
        assert!(!p.same_partition(&r));
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.canonical().labels(), q.labels());
        assert_eq!(p.label(3), 9);
    }

    #[test]
    fn partition_edge_cases() {
        let empty = Partition::new(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.num_blocks(), 0);
        assert!(empty.same_partition(&Partition::new(vec![])));
        assert!(!empty.same_partition(&Partition::new(vec![0])));
    }
}
