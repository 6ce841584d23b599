//! Verification of candidate solutions.
//!
//! A labelling `Q` solves the coarsest partition problem for `(f, B)` iff
//!
//! 1. `Q` refines `B` (condition 1 of Section 2),
//! 2. `Q` is stable: `Q[x] == Q[y] ⇒ Q[f(x)] == Q[f(y)]` (condition 2), and
//! 3. no coarser partition satisfies 1–2.
//!
//! Conditions 1–2 are checked directly in `O(n)`.  For coarseness the
//! verifier uses the lattice fact that every stable refinement of `B` refines
//! the coarsest one: a stable refinement with the *same number of blocks* as
//! the coarsest partition must therefore be equal to it.  The block count of
//! the coarsest partition is obtained from the independent fixpoint
//! refinement oracle ([`crate::naive`]), so the check never trusts the
//! algorithm under test.

use crate::problem::{Instance, Partition};
use std::collections::HashMap;

/// Why a candidate labelling was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Lengths of instance and partition differ.
    LengthMismatch {
        /// Number of elements of the instance.
        instance: usize,
        /// Number of labels of the partition.
        partition: usize,
    },
    /// Two elements share a Q-block but lie in different B-blocks.
    NotARefinement {
        /// The first element of the offending pair.
        x: u32,
        /// The second element, in `x`'s Q-block but not its B-block.
        y: u32,
    },
    /// Two elements share a Q-block but their images do not.
    NotStable {
        /// The first element of the offending pair.
        x: u32,
        /// The second element: `f(x)` and `f(y)` lie in different Q-blocks.
        y: u32,
    },
    /// The labelling is a stable refinement but has more blocks than the
    /// coarsest one.
    NotCoarsest {
        /// Number of blocks of the checked labelling.
        blocks: usize,
        /// Number of blocks of the coarsest stable refinement.
        coarsest_blocks: usize,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::LengthMismatch {
                instance,
                partition,
            } => {
                write!(
                    fm,
                    "partition has {partition} labels but the instance has {instance} elements"
                )
            }
            VerifyError::NotARefinement { x, y } => {
                write!(
                    fm,
                    "elements {x} and {y} share a Q-block but different B-blocks"
                )
            }
            VerifyError::NotStable { x, y } => {
                write!(
                    fm,
                    "elements {x} and {y} share a Q-block but f(x) and f(y) do not"
                )
            }
            VerifyError::NotCoarsest {
                blocks,
                coarsest_blocks,
            } => {
                write!(fm, "the labelling has {blocks} blocks but the coarsest partition has {coarsest_blocks}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Check conditions 1–2 only (refinement of `B` and `f`-stability), in `O(n)`.
pub fn verify_stable_refinement(instance: &Instance, q: &Partition) -> Result<(), VerifyError> {
    let n = instance.len();
    if q.len() != n {
        return Err(VerifyError::LengthMismatch {
            instance: n,
            partition: q.len(),
        });
    }
    let f = instance.f();
    let b = instance.blocks();
    let labels = q.labels();

    // For each Q-block, remember the first element seen: all later members
    // must agree with it on the B-label and on the Q-label of the image.
    let mut representative: HashMap<u32, u32> = HashMap::new();
    for x in 0..n as u32 {
        match representative.entry(labels[x as usize]) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(x);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let r = *e.get();
                if b[x as usize] != b[r as usize] {
                    return Err(VerifyError::NotARefinement { x, y: r });
                }
                if labels[f[x as usize] as usize] != labels[f[r as usize] as usize] {
                    return Err(VerifyError::NotStable { x, y: r });
                }
            }
        }
    }
    Ok(())
}

/// Check that `q` is *the* coarsest stable refinement of the instance's
/// initial partition (conditions 1–3).
pub fn verify(instance: &Instance, q: &Partition) -> Result<(), VerifyError> {
    verify_stable_refinement(instance, q)?;
    // Coarseness: compare the block count with the independent fixpoint
    // oracle.  Every stable refinement refines the coarsest partition, so an
    // equal block count forces equality.
    let coarsest_blocks = crate::naive::coarsest_naive(instance).num_blocks();
    let blocks = q.num_blocks();
    if blocks != coarsest_blocks {
        return Err(VerifyError::NotCoarsest {
            blocks,
            coarsest_blocks,
        });
    }
    Ok(())
}

/// Convenience used by tests: panic with a readable message if `q` does not
/// solve `instance`.
pub fn assert_valid(instance: &Instance, q: &Partition) {
    if let Err(e) = verify(instance, q) {
        panic!("invalid coarsest partition: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's worked example (Example 3.1): input and expected output.
    fn paper_case() -> (Instance, Partition) {
        let inst = Instance::paper_example();
        let expected = Partition::new(sfcp_forest::generators::paper_example_expected_q());
        (inst, expected)
    }

    #[test]
    fn accepts_the_papers_answer() {
        let (inst, expected) = paper_case();
        assert!(verify(&inst, &expected).is_ok());
        assert_valid(&inst, &expected);
    }

    #[test]
    fn rejects_wrong_lengths() {
        let (inst, _) = paper_case();
        let err = verify(&inst, &Partition::new(vec![0; 3])).unwrap_err();
        assert!(matches!(err, VerifyError::LengthMismatch { .. }));
    }

    #[test]
    fn rejects_non_refinements() {
        let (inst, _) = paper_case();
        // Everything in one block: stable (f maps the block to itself) but
        // clearly not a refinement of B.
        let err = verify(&inst, &Partition::new(vec![0; 16])).unwrap_err();
        assert!(matches!(err, VerifyError::NotARefinement { .. }));
    }

    #[test]
    fn rejects_unstable_partitions() {
        // A 4-cycle with all elements in the same B-block.
        let inst = Instance::new(vec![1, 2, 3, 0], vec![0, 0, 0, 0]);
        // Partition {0,1},{2,3}: refines B, but 0 and 1 share a block while
        // f(0)=1 and f(1)=2 do not.
        let err = verify(&inst, &Partition::new(vec![0, 0, 1, 1])).unwrap_err();
        assert!(matches!(err, VerifyError::NotStable { .. }));
    }

    #[test]
    fn rejects_over_refined_partitions() {
        let (inst, _) = paper_case();
        // All singletons: refines B and is trivially stable, but is not the
        // coarsest (the paper's answer has only 4 blocks).
        let singletons = Partition::new((0..16).collect());
        assert!(verify_stable_refinement(&inst, &singletons).is_ok());
        let err = verify(&inst, &singletons).unwrap_err();
        assert!(matches!(err, VerifyError::NotCoarsest { .. }));
    }

    #[test]
    fn rejects_split_two_cycle() {
        // The subtle case: a 2-cycle with identical B-labels.  Splitting it
        // into singletons is a *stable refinement* but not the coarsest
        // partition; the block-count comparison catches it.
        let inst = Instance::new(vec![1, 0], vec![0, 0]);
        assert!(verify_stable_refinement(&inst, &Partition::new(vec![0, 1])).is_ok());
        let err = verify(&inst, &Partition::new(vec![0, 1])).unwrap_err();
        assert!(matches!(err, VerifyError::NotCoarsest { .. }));
        assert!(verify(&inst, &Partition::new(vec![3, 3])).is_ok());
    }

    #[test]
    fn accepts_relabeled_answers() {
        let (inst, expected) = paper_case();
        // Any bijective relabelling is still the same partition.
        let relabeled: Vec<u32> = expected.labels().iter().map(|&l| l * 10 + 5).collect();
        assert!(verify(&inst, &Partition::new(relabeled)).is_ok());
    }
}
