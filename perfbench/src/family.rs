//! Instance families, reference block counts and the answer check.
//!
//! The reference for an answer's coarseness is a block count computed once
//! per instance.  Instances with tree nodes use `SequentialLinear`
//! (`sfcp::sequential::coarsest_sequential`).  Instances made only of
//! cycles use the benchmark's own O(n) cycle oracle instead: on long
//! periodic cycles `SequentialLinear` clones the canonical period string for
//! every cycle node, which costs O(n · period) time and O(classes · period)
//! memory (about 10 s and 2.4 GB on `long_cycles`) and breaks its O(n)
//! rustdoc claim.  There `SequentialLinear` runs on a budgeted prefix of
//! whole cycles ([`cycle_prefix`]) and must agree with the oracle on it.

use sfcp::sequential::coarsest_sequential;
use sfcp::verify::verify_stable_refinement;
use sfcp::{Instance, Partition};
use std::collections::HashSet;

/// A generator of instances of any size from a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `Instance::random(n, 3, seed)`: a uniformly random function.
    Random,
    /// `Instance::periodic_cycles`: cycles only, of length up to 2^14,
    /// periodic labels with period a quarter of the length.
    Cycles,
    /// `Instance::deep(n, 8, 4, seed)`: one path of depth n into a cycle.
    Deep,
}

impl Family {
    /// The instance of size `n` for `seed`.  For [`Family::Cycles`] the size
    /// is rounded down to whole cycles.
    #[must_use]
    pub fn instance(self, n: usize, seed: u64) -> Instance {
        match self {
            Family::Random => Instance::random(n, 3, seed),
            Family::Cycles => {
                let len = (n / 8).clamp(4, 1 << 14) & !3;
                Instance::periodic_cycles((n / len).max(1), len, len / 4, 4, seed)
            }
            Family::Deep => Instance::deep(n, 8, 4, seed),
        }
    }
}

/// Nodes [`cycle_prefix`] may keep: two cycles of the `long_cycles`
/// workload, where `SequentialLinear` takes about 0.2 s and 130 MB.
pub const SEQUENTIAL_BUDGET_NODES: usize = 1 << 15;

/// Block count of the coarsest partition of `inst`, from the cycle oracle
/// when every node lies on a cycle and from `SequentialLinear` otherwise.
#[must_use]
pub fn reference_blocks(inst: &Instance) -> usize {
    cycle_oracle_blocks(inst).unwrap_or_else(|| count_blocks(coarsest_sequential(inst).labels()))
}

/// Check one answer: it must be a stable refinement of the initial
/// partition (`verify_stable_refinement`, O(n)) with the reference block
/// count.  Every stable refinement refines the coarsest partition, so an
/// equal count proves it is the coarsest.
///
/// # Errors
/// A description of the first violation.
pub fn check(inst: &Instance, q: &Partition, expected_blocks: usize) -> Result<(), String> {
    verify_stable_refinement(inst, q).map_err(|e| e.to_string())?;
    let blocks = count_blocks(q.labels());
    if blocks == expected_blocks {
        Ok(())
    } else {
        Err(format!(
            "{blocks} blocks where the reference has {expected_blocks}"
        ))
    }
}

/// Number of distinct labels.  The solvers hand out dense labels, so a
/// bitmap over `0..=max` does; sparse labels fall back to sorting.
#[must_use]
pub fn count_blocks(labels: &[u32]) -> usize {
    let Some(&max) = labels.iter().max() else {
        return 0;
    };
    if (max as usize) < 4 * labels.len() {
        let mut seen = vec![false; max as usize + 1];
        labels.iter().for_each(|&l| seen[l as usize] = true);
        seen.into_iter().filter(|&s| s).count()
    } else {
        let mut v = labels.to_vec();
        v.sort_unstable();
        v.dedup();
        v.len()
    }
}

/// Coarsest-partition block count of an instance whose every node lies on a
/// cycle, or `None` if some node does not.  Two cycle nodes are equivalent
/// iff their cycles have the same primitive label string up to rotation and
/// they sit at the same offset in it, so the count is the summed length of
/// the distinct canonical primitive strings.
#[must_use]
pub fn cycle_oracle_blocks(inst: &Instance) -> Option<usize> {
    let f = inst.f();
    let b = inst.blocks();
    let n = f.len();
    // Every node is on a cycle iff `f` is a permutation.
    let mut hit = vec![false; n];
    for &y in f {
        if std::mem::replace(&mut hit[y as usize], true) {
            return None;
        }
    }
    let mut visited = vec![false; n];
    let mut classes: HashSet<Vec<u32>> = HashSet::new();
    let mut blocks = 0;
    let mut s = Vec::new();
    for start in 0..n {
        if visited[start] {
            continue;
        }
        s.clear();
        let mut x = start;
        while !visited[x] {
            visited[x] = true;
            s.push(b[x]);
            x = f[x] as usize;
        }
        let p = primitive_period(&s);
        let r = least_rotation(&s[..p]);
        if classes.insert([&s[r..p], &s[..r]].concat()) {
            blocks += p;
        }
    }
    Some(blocks)
}

/// Length of the shortest `p` with `s = u^(len/p)` for some `u` of length
/// `p` (prefix function, O(len)).
#[must_use]
pub fn primitive_period(s: &[u32]) -> usize {
    let n = s.len();
    if n == 0 {
        return 0;
    }
    let mut pi = vec![0usize; n];
    for i in 1..n {
        let mut k = pi[i - 1];
        while k > 0 && s[i] != s[k] {
            k = pi[k - 1];
        }
        if s[i] == s[k] {
            k += 1;
        }
        pi[i] = k;
    }
    let p = n - pi[n - 1];
    if n.is_multiple_of(p) {
        p
    } else {
        n
    }
}

/// Start of the lexicographically least rotation of `s` (two-pointer
/// minimum-rotation scan, O(len)).
#[must_use]
pub fn least_rotation(s: &[u32]) -> usize {
    let n = s.len();
    let (mut i, mut j, mut k) = (0, 1, 0);
    while i < n && j < n && k < n {
        let (a, c) = (s[(i + k) % n], s[(j + k) % n]);
        if a == c {
            k += 1;
            continue;
        }
        if a > c {
            i += k + 1;
        } else {
            j += k + 1;
        }
        if i == j {
            j += 1;
        }
        k = 0;
    }
    i.min(j)
}

/// The sub-instance formed by whole cycles of an all-cycles instance, taken
/// in order of their smallest node while the total stays within
/// `max_nodes` (at least one cycle), with nodes renumbered densely.
#[must_use]
pub fn cycle_prefix(inst: &Instance, max_nodes: usize) -> Instance {
    let f = inst.f();
    let mut new_id = vec![u32::MAX; f.len()];
    let mut order: Vec<usize> = Vec::new();
    for start in 0..f.len() {
        if new_id[start] != u32::MAX {
            continue;
        }
        let mut cycle = vec![start];
        let mut x = f[start] as usize;
        while x != start {
            cycle.push(x);
            x = f[x] as usize;
        }
        if !order.is_empty() && order.len() + cycle.len() > max_nodes {
            break;
        }
        for x in cycle {
            new_id[x] = order.len() as u32;
            order.push(x);
        }
    }
    let sub_f = order.iter().map(|&x| new_id[f[x] as usize]).collect();
    let sub_b = order.iter().map(|&x| inst.blocks()[x]).collect();
    Instance::new(sub_f, sub_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_deterministic_per_seed() {
        for fam in [Family::Random, Family::Cycles, Family::Deep] {
            for n in [1 << 8, 1 << 12] {
                let a = fam.instance(n, 7);
                assert_eq!(a, fam.instance(n, 7), "{fam:?} n={n}");
                assert_ne!(a, fam.instance(n, 8), "{fam:?} n={n}");
                assert!(a.len() <= n && a.len() >= n / 2, "{fam:?} n={n}");
            }
        }
    }

    #[test]
    fn long_cycles_headline_shape() {
        // The workload definition: 96 cycles of 2^14 nodes, period 2^12.
        let n = 96 << 14;
        let len = (n / 8).clamp(4, 1 << 14) & !3;
        assert_eq!((len, n / len, len / 4), (1 << 14, 96, 1 << 12));
    }

    #[test]
    fn string_helpers_match_brute_force() {
        let cases: [&[u32]; 7] = [
            &[0],
            &[1, 1, 1],
            &[1, 0, 1, 0],
            &[2, 1, 2, 1, 2],
            &[3, 1, 2, 3, 1, 2],
            &[0, 0, 1, 0, 0, 1, 0],
            &[5, 4, 5, 4, 4],
        ];
        for s in cases {
            let n = s.len();
            let brute_p = (1..=n)
                .find(|&p| n % p == 0 && (0..n).all(|i| s[i] == s[i % p]))
                .unwrap();
            assert_eq!(primitive_period(s), brute_p, "{s:?}");
            let rot = |r: usize| [&s[r..], &s[..r]].concat();
            let best = (0..n).map(rot).min().unwrap();
            assert_eq!(rot(least_rotation(s)), best, "{s:?}");
        }
    }

    #[test]
    fn cycle_oracle_agrees_with_sequential_linear() {
        for seed in 0..4 {
            for inst in [
                Instance::periodic_cycles(9, 24, 6, 3, seed),
                Instance::random_cycles(&[1, 2, 3, 4, 6, 6, 12, 12], 2, seed),
                Family::Cycles.instance(1 << 10, seed),
            ] {
                let seq = count_blocks(coarsest_sequential(&inst).labels());
                assert_eq!(cycle_oracle_blocks(&inst), Some(seq));
            }
        }
        assert_eq!(cycle_oracle_blocks(&Instance::random(64, 2, 1)), None);
    }

    #[test]
    fn cycle_prefix_keeps_whole_cycles_within_budget() {
        let inst = Instance::periodic_cycles(6, 16, 4, 3, 2);
        let sub = cycle_prefix(&inst, 40);
        assert_eq!(sub.len(), 32);
        assert!(cycle_oracle_blocks(&sub).is_some());
        assert_eq!(cycle_prefix(&inst, 1).len(), 16);
    }

    #[test]
    fn check_rejects_unstable_and_over_refined_answers() {
        let inst = Instance::new(vec![1, 2, 3, 0], vec![0, 0, 0, 0]);
        assert!(check(&inst, &Partition::new(vec![7, 7, 7, 7]), 1).is_ok());
        assert!(check(&inst, &Partition::new(vec![0, 0, 1, 1]), 1).is_err());
        assert!(check(&inst, &Partition::new(vec![0, 1, 2, 3]), 1).is_err());
        assert_eq!(count_blocks(&[9, u32::MAX, 9]), 2);
    }
}
