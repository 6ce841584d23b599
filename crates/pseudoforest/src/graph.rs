//! The functional graph `G = (V, E)` with `V = {0, …, n-1}` and
//! `E = {(x, f(x))}` — a pseudo-forest.

use sfcp_pram::{Ctx, Error};

/// A total function on `{0, …, n-1}`, i.e. the array `A_f` of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalGraph {
    f: Vec<u32>,
}

impl FunctionalGraph {
    /// Wrap a function table.
    ///
    /// # Panics
    /// Panics if any value is out of range.
    #[must_use]
    pub fn new(f: Vec<u32>) -> Self {
        Self::try_new(f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`FunctionalGraph::new`]: the constructor for untrusted
    /// function tables.
    ///
    /// # Errors
    /// [`Error::TooLarge`] when `f.len() >= 2^31` (node ids must stay below
    /// the bit-31 ruler flag of the ranking machinery) and
    /// [`Error::OutOfRange`] when any value is not a node id.
    pub fn try_new(f: Vec<u32>) -> Result<Self, Error> {
        sfcp_pram::check_index_width(f.len())?;
        let n = f.len();
        for (x, &y) in f.iter().enumerate() {
            if y as usize >= n {
                return Err(Error::OutOfRange {
                    what: "f",
                    index: x,
                    value: y,
                    len: n,
                });
            }
        }
        Ok(FunctionalGraph { f })
    }

    /// Number of elements of the ground set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.f.len()
    }

    /// Whether the ground set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.f.is_empty()
    }

    /// `f(x)`.
    #[inline]
    #[must_use]
    pub fn apply(&self, x: u32) -> u32 {
        self.f[x as usize]
    }

    /// The raw function table.
    #[must_use]
    pub fn table(&self) -> &[u32] {
        &self.f
    }

    /// `f^k(x)` by repeated application (used in tests and small examples).
    #[must_use]
    pub fn iterate(&self, x: u32, k: usize) -> u32 {
        let mut cur = x;
        for _ in 0..k {
            cur = self.apply(cur);
        }
        cur
    }

    /// In-degrees of all nodes.
    #[must_use]
    pub fn in_degrees(&self, ctx: &Ctx) -> Vec<u32> {
        let n = self.len();
        let mut deg = vec![0u32; n];
        for &y in &self.f {
            deg[y as usize] += 1;
        }
        ctx.charge_step(n as u64);
        deg
    }
}

impl From<Vec<u32>> for FunctionalGraph {
    fn from(f: Vec<u32>) -> Self {
        FunctionalGraph::new(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let g = FunctionalGraph::new(vec![1, 2, 0, 0]);
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
        assert_eq!(g.apply(0), 1);
        assert_eq!(g.apply(3), 0);
        assert_eq!(g.iterate(0, 0), 0);
        assert_eq!(g.iterate(0, 1), 1);
        assert_eq!(g.iterate(0, 3), 0);
        assert_eq!(g.table(), &[1, 2, 0, 0]);
    }

    #[test]
    fn empty_graph() {
        let g = FunctionalGraph::new(vec![]);
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let _ = FunctionalGraph::new(vec![0, 5, 1]);
    }

    #[test]
    fn try_new_reports_the_offending_entry() {
        let err = FunctionalGraph::try_new(vec![0, 5, 1]).unwrap_err();
        assert!(matches!(
            err,
            Error::OutOfRange {
                index: 1,
                value: 5,
                len: 3,
                ..
            }
        ));
        assert!(FunctionalGraph::try_new(vec![0, 2, 1]).is_ok());
    }

    #[test]
    fn degrees_and_squares() {
        let ctx = Ctx::parallel();
        let g = FunctionalGraph::new(vec![1, 2, 0, 0, 0]);
        assert_eq!(g.in_degrees(&ctx), vec![3, 1, 1, 0, 0]);
        let squared: Vec<u32> = (0..5).map(|x| g.iterate(x, 2)).collect();
        assert_eq!(squared, vec![2, 0, 1, 1, 1]);
    }
}
