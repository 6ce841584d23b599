//! Property suite for the serving layer's [`Snapshot`] format: encode →
//! decode is the identity; corrupted bytes (any single-bit flip, any
//! truncation, trailing garbage) surface as typed errors and never panic;
//! and a snapshot-cache hit replays exactly the answer and charges of the
//! cold compute it memoized.

use proptest::collection::vec;
use proptest::prelude::*;
use sfcp_repro::sfcp::Instance;
use sfcp_service::snapshot::{Snapshot, SnapshotCache, SnapshotPayload};
use sfcp_service::worker::Worker;
use sfcp_service::{ComputeRequest, ReplyPayload};

/// Build one of the three payload shapes from primitive generator inputs.
fn payload_from(kind: u8, values: Vec<u32>, a: u64, b: u64, c: u64) -> SnapshotPayload {
    match kind {
        0 => SnapshotPayload::Labels(values),
        1 => SnapshotPayload::Msp(a),
        _ => SnapshotPayload::Decomposition {
            num_cycles: a,
            num_cycle_nodes: b,
            digest: c,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity for every payload shape.
    #[test]
    fn encode_decode_is_identity(
        kind in 0u8..3,
        values in vec(any::<u32>(), 0..300),
        (a, b, c) in (any::<u64>(), any::<u64>(), any::<u64>()),
        (work, rounds) in (any::<u64>(), any::<u64>()),
    ) {
        let snap = Snapshot { payload: payload_from(kind, values, a, b, c), work, rounds };
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).expect("decode of a fresh encode");
        prop_assert_eq!(back.payload, snap.payload);
        prop_assert_eq!((back.work, back.rounds), (snap.work, snap.rounds));
    }

    /// Any single-bit flip anywhere in the encoding is caught by the
    /// checksum (or a typed structural check) — never a panic, never a
    /// silently different answer.
    #[test]
    fn any_single_bit_flip_is_a_typed_error(
        kind in 0u8..3,
        values in vec(any::<u32>(), 0..200),
        (a, b, c) in (any::<u64>(), any::<u64>(), any::<u64>()),
        byte_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let snap = Snapshot { payload: payload_from(kind, values, a, b, c), work: a, rounds: b };
        let mut bytes = snap.encode();
        let at = (byte_seed % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        prop_assert!(
            Snapshot::decode(&bytes).is_err(),
            "flip of bit {bit} at byte {at} went undetected"
        );
    }

    /// Every truncation (and any trailing garbage) is a typed error.
    #[test]
    fn truncations_and_trailing_bytes_are_typed_errors(
        kind in 0u8..3,
        values in vec(any::<u32>(), 0..200),
        (a, b, c) in (any::<u64>(), any::<u64>(), any::<u64>()),
        cut_seed in any::<u64>(),
        extra in 1usize..9,
    ) {
        let snap = Snapshot { payload: payload_from(kind, values, a, b, c), work: c, rounds: a };
        let bytes = snap.encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(Snapshot::decode(&bytes[..cut]).is_err(), "truncation to {cut} bytes");

        let mut padded = bytes.clone();
        padded.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert!(Snapshot::decode(&padded).is_err(), "{extra} trailing bytes");
    }

    /// A cache hit replays exactly the cold compute: same labels, same
    /// charges, `cached` flag flipped.
    #[test]
    fn cache_hit_equals_cold_compute(
        n in 8usize..200,
        blocks in 2usize..5,
        seed in 0u64..500,
    ) {
        let mut worker = Worker::new(0, 1 << 20, false);
        let inst = Instance::random(n, blocks, seed);
        let req = ComputeRequest::partition(inst.f().to_vec(), inst.blocks().to_vec());

        let cold = worker.serve(1, &req).outcome.expect("cold solve");
        prop_assert!(!cold.cached);
        let hit = worker.serve(2, &req).outcome.expect("cache hit");
        prop_assert!(hit.cached, "identical request must hit the cache");
        prop_assert_eq!(&hit.payload, &cold.payload);
        prop_assert_eq!((hit.work, hit.rounds), (cold.work, cold.rounds));

        // The digest view of the same cached entry agrees with the labels.
        let digested = worker
            .serve(3, &req.clone().digest_only())
            .outcome
            .expect("digest view");
        prop_assert!(digested.cached);
        let ReplyPayload::Labels(labels) = &cold.payload else {
            panic!("labels expected");
        };
        prop_assert_eq!(
            digested.payload,
            ReplyPayload::LabelsDigest(sfcp_service::snapshot::labels_digest(labels))
        );
    }
}

/// Corrupt bytes planted *inside the cache* degrade to a miss (recompute),
/// never a wrong answer — decode runs on every hit.
#[test]
fn corrupt_cache_entries_degrade_to_misses() {
    let mut cache = SnapshotCache::new(1 << 16);
    let snap = Snapshot {
        payload: SnapshotPayload::Labels(vec![0, 1, 0, 2]),
        work: 42,
        rounds: 7,
    };
    cache.insert(9, &snap);
    assert!(cache.get(9).is_some());
    cache.corrupt_for_test(9);
    assert!(
        cache.get(9).is_none(),
        "a corrupt entry must read as a miss"
    );
    let stats = cache.stats();
    assert_eq!(stats.entries, 0, "the corrupt entry must have been evicted");
}
