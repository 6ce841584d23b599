//! Seeded workloads for the integration tests: the big-`n` functional
//! graph of `tests/bign.rs`.

/// The big-`n` functional-graph workload: the chunked generator under the
/// harness seed (see
/// [`sfcp_forest::generators::random_function_chunked`] for the chunking
/// and determinism contract).
#[must_use]
pub fn bign_function(n: usize) -> sfcp_forest::FunctionalGraph {
    sfcp_forest::generators::random_function_chunked(n, 0xB16_C0FFEE ^ n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bign_function_is_deterministic() {
        assert_eq!(bign_function(10_000), bign_function(10_000));
        assert_eq!(bign_function(10_000).len(), 10_000);
    }
}
