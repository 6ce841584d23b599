//! Workload generators shared by the criterion benches and the experiment
//! binaries.  Everything is seeded so that every row of `EXPERIMENTS.md` can
//! be regenerated exactly.

use rand::prelude::*;
use sfcp::Instance;
use sfcp_pram::Ctx;

/// Random functional-graph instance (experiments E1, E2, E10).
#[must_use]
pub fn random_instance(n: usize) -> Instance {
    Instance::random(n, 8, 0xC0FFEE)
}

/// Cycles-only instance: `k` cycles of equal length with periodic labels
/// (experiments E3, E6).
#[must_use]
pub fn cycles_instance(n: usize) -> Instance {
    let len = 256.min(n.max(4));
    let k = (n / len).max(1);
    Instance::periodic_cycles(k, len, 8.min(len), 4, 0xBEEF)
}

/// Deep instance: a single long path into a small cycle (experiment E7).
#[must_use]
pub fn deep_instance(n: usize) -> Instance {
    Instance::deep(n, 8.min(n), 4, 0xDEAD)
}

/// Random circular string (experiment E4).
#[must_use]
pub fn random_string(n: usize, alphabet: u32) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(0x5EED ^ n as u64);
    (0..n).map(|_| rng.gen_range(0..alphabet.max(1))).collect()
}

/// A list of strings with heavy shared prefixes, total length ~`n`
/// (experiment E5).
#[must_use]
pub fn string_list(n: usize) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(0xAB1E ^ n as u64);
    let len = 32usize;
    let m = (n / len).max(1);
    let shared: Vec<u32> = (0..len - 2).map(|_| rng.gen_range(0..3)).collect();
    (0..m)
        .map(|_| {
            let mut s = shared.clone();
            s.push(rng.gen_range(0..5));
            s.push(rng.gen_range(0..5));
            s
        })
        .collect()
}

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

/// Canonical cycle strings for the grouping benchmark (experiment E6):
/// `k` strings of length `len` drawn from a small pool so that many are equal.
#[must_use]
pub fn canonical_cycle_strings(k: usize, len: usize) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(0x7A57E ^ (k as u64) << 8 ^ len as u64);
    let pool: Vec<Vec<u32>> = (0..(k / 4).max(1))
        .map(|_| (0..len).map(|_| rng.gen_range(0..4)).collect())
        .collect();
    (0..k)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_sized() {
        assert_eq!(random_instance(1000).len(), 1000);
        assert_eq!(random_instance(1000), random_instance(1000));
        assert!(cycles_instance(1000).len() >= 768);
        assert_eq!(deep_instance(500).len(), 500);
        assert_eq!(random_string(100, 4).len(), 100);
        let list = string_list(3200);
        assert_eq!(list.len(), 100);
        let strings = canonical_cycle_strings(40, 16);
        assert_eq!(strings.len(), 40);
        assert!(strings.iter().all(|s| s.len() == 16));
    }

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
