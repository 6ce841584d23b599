//! Seeded workloads for the integration tests (`tests/bign.rs`, `tests/csr_workload.rs`).

use rand::prelude::*;
use sfcp_pram::Ctx;

/// A sharded/contracted multigraph edge stream: the adjacency build a
/// distributed partition pass performs after contracting supernodes, where
/// every vertex id carries its shard in the high bits.  The global key space
/// (`shards × per-shard id range`) deliberately exceeds
/// [`sfcp_parprim::csr::DIRECT_BUILD_MAX_KEYS`], so a CSR build of this
/// stream flows through `build_csr`'s packed-word radix *bucketed* fallback
/// end-to-end — the regime no in-tree decomposition call site reaches (every
/// pseudo-forest key space is `≤ n`).
///
/// Slots are closure-valued like every `build_csr` stream: a slot is `None`
/// when the contraction dropped the edge (self-merged supernodes), otherwise
/// `(global vertex key, edge payload)`.  Keys are skewed towards low
/// in-shard ids so some supernode groups are large while most of the huge
/// key space stays empty — the shape radix bucketing has to handle.
pub struct ShardedMultigraph {
    /// Global contracted key space (`shards << id_bits`), `> 2^22`.
    pub num_keys: usize,
    slots: Vec<Option<(u32, u32)>>,
}

impl ShardedMultigraph {
    /// Number of stream slots.
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The edge stream (the closure `build_csr` consumes).
    #[must_use]
    pub fn edge(&self, s: usize) -> Option<(u32, u32)> {
        self.slots[s]
    }

    /// Group the stream into CSR adjacency via the shared parallel builder —
    /// the end-to-end path through the bucketed regime.
    #[must_use]
    pub fn build_csr(&self, ctx: &Ctx) -> (Vec<u32>, Vec<u32>) {
        sfcp_parprim::csr::build_csr(ctx, self.num_keys, self.num_slots(), |s| self.edge(s))
    }
}

/// Build the sharded multigraph workload: 64 shards of `2^17` contracted ids
/// (key space `2^23`), `num_slots` edge slots, deterministic in `seed`.
#[must_use]
pub fn sharded_multigraph(num_slots: usize, seed: u64) -> ShardedMultigraph {
    const SHARDS: u32 = 64;
    const ID_BITS: u32 = 17;
    let num_keys = (SHARDS as usize) << ID_BITS;
    assert!(
        num_keys > sfcp_parprim::csr::DIRECT_BUILD_MAX_KEYS,
        "workload must exceed the direct-build counter budget"
    );
    let mut rng = StdRng::seed_from_u64(0x5AADED ^ seed);
    let slots = (0..num_slots)
        .map(|s| {
            if rng.gen_bool(0.15) {
                return None; // contracted-away edge
            }
            let shard = rng.gen_range(0..SHARDS);
            let mut id = rng.gen_range(0..1u32 << ID_BITS);
            if rng.gen_bool(0.5) {
                id >>= 14; // skew: a few heavy supernodes at every shard base
            }
            Some(((shard << ID_BITS) | id, s as u32))
        })
        .collect();
    ShardedMultigraph { num_keys, slots }
}

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

    #[test]
    fn sharded_multigraph_is_deterministic_and_bucket_sized() {
        let a = sharded_multigraph(5000, 7);
        let b = sharded_multigraph(5000, 7);
        assert_eq!(a.num_keys, b.num_keys);
        assert_eq!(a.num_slots(), 5000);
        assert!(a.num_keys > sfcp_parprim::csr::DIRECT_BUILD_MAX_KEYS);
        for s in 0..a.num_slots() {
            assert_eq!(a.edge(s), b.edge(s));
            if let Some((k, _)) = a.edge(s) {
                assert!((k as usize) < a.num_keys);
            }
        }
    }
}
