//! Request batching: fuse many small partition instances into one solver
//! invocation, and the size/deadline admission policy that decides when.
//!
//! ## Why fusion is answer-preserving
//!
//! The union instance places the members side by side with disjoint label
//! ranges: member `i` at node offset `o_i` gets `f_u[o_i + x] = o_i +
//! f_i[x]` and `B_u[o_i + x] = o_i + canon(B_i)[x]` (canonical block labels
//! are `< n_i`, so offsetting by `o_i` keeps every member's initial blocks
//! disjoint from every other's).  `f_u` never crosses members, and
//! refinement only ever *splits* blocks — starting from an initial
//! partition that already separates the members, no block ever spans two
//! members.  The coarsest partition of the union restricted to member `i`
//! is therefore exactly member `i`'s coarsest partition, and after
//! first-occurrence canonicalization the label arrays are bit-identical to
//! a solo solve (`tests/service_differential.rs` pins this).

use sfcp::Instance;
use sfcp_pram::fxhash::FxHashMap;
use std::time::Duration;

/// Admission policy for fusing queued requests into one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum cohort size.
    pub max_batch: usize,
    /// Maximum total fused domain size.
    pub max_fused_n: usize,
    /// How long a worker holds the first queued request while collecting
    /// more ([`Duration::ZERO`] disables cross-request coalescing; explicit
    /// `batch` frames still fuse).
    pub deadline: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 64,
            max_fused_n: 1 << 22,
            deadline: Duration::ZERO,
        }
    }
}

/// Canonical (first-occurrence) renumbering of arbitrary labels.
fn first_occurrence(labels: &[u32]) -> Vec<u32> {
    let mut map = FxHashMap::default();
    let mut out = Vec::with_capacity(labels.len());
    for &l in labels {
        let next = map.len() as u32;
        out.push(*map.entry(l).or_insert(next));
    }
    out
}

/// A fused union instance plus the `(offset, len)` span of each member.
#[derive(Debug, Clone)]
pub struct FusedInstance {
    /// The union instance.
    pub instance: Instance,
    /// Per-member `(node offset, length)` in request order.
    pub spans: Vec<(usize, usize)>,
}

/// Fuse member instances into one union instance (see the module docs for
/// the preservation argument).  The total fused domain must stay within
/// `u32` addressing (asserted); the worker's admission policy caps cohorts
/// far below that.
#[must_use]
pub fn fuse_instances(members: &[Instance]) -> FusedInstance {
    let total: usize = members.iter().map(Instance::len).sum();
    assert!(
        u32::try_from(total).is_ok(),
        "fused domain exceeds u32 addressing"
    );
    let mut f = Vec::with_capacity(total);
    let mut blocks = Vec::with_capacity(total);
    let mut spans = Vec::with_capacity(members.len());
    let mut offset = 0usize;
    for member in members {
        let off = offset as u32;
        f.extend(member.f().iter().map(|&v| off + v));
        blocks.extend(
            first_occurrence(member.blocks())
                .into_iter()
                .map(|v| off + v),
        );
        spans.push((offset, member.len()));
        offset += member.len();
    }
    FusedInstance {
        instance: Instance::new(f, blocks),
        spans,
    }
}

/// Slice a fused solution back into per-member canonical label arrays.
#[must_use]
pub fn split_canonical_labels(fused_labels: &[u32], spans: &[(usize, usize)]) -> Vec<Vec<u32>> {
    spans
        .iter()
        .map(|&(offset, len)| first_occurrence(&fused_labels[offset..offset + len]))
        .collect()
}

/// Canonical labels of a solo partition result (the service's wire form,
/// shared with [`split_canonical_labels`] so solo and fused paths agree).
#[must_use]
pub fn canonical_labels(partition: &sfcp::Partition) -> Vec<u32> {
    first_occurrence(partition.labels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcp::{coarsest_partition, Algorithm};
    use sfcp_pram::Ctx;

    #[test]
    fn fused_solve_matches_solo_solves() {
        let members = vec![
            Instance::paper_example(),
            Instance::random(257, 3, 41),
            Instance::new(vec![0], vec![7]),
            Instance::random(64, 2, 9),
        ];
        let fused = fuse_instances(&members);
        let ctx = Ctx::parallel();
        let q = coarsest_partition(&ctx, &fused.instance, Algorithm::Parallel);
        let split = split_canonical_labels(q.labels(), &fused.spans);
        for (member, got) in members.iter().zip(&split) {
            let solo = coarsest_partition(&ctx, member, Algorithm::Parallel);
            assert_eq!(got, &canonical_labels(&solo));
        }
    }

    #[test]
    fn first_occurrence_is_canonical() {
        assert_eq!(first_occurrence(&[9, 9, 4, 9, 1]), vec![0, 0, 1, 0, 2]);
        assert!(first_occurrence(&[]).is_empty());
    }
}
