//! `Snapshot` — versioned, checksummed serialization of computed results,
//! and the bounded LRU response cache built on it.
//!
//! A snapshot carries the answer **and** the run's tracked charges, so a
//! cache hit replays exactly what a cold compute would have reported (the
//! charge discipline makes charges input-determined, which is what makes
//! them cacheable at all).  The format is fixed-layout little-endian:
//!
//! ```text
//! magic "SFCPSNAP" (8) · version u32 · kind u32 · work u64 · rounds u64
//! · payload (kind-dependent) · fxhash checksum over all prior bytes (u64)
//! ```
//!
//! Decoding is total: every read is bounds-checked and every failure is a
//! typed [`SnapshotError`] — the bytes may come from another process or a
//! corrupted store.  `tests/snapshot_roundtrip.rs` drives encode→decode
//! identity and bit-flip/truncation corruption through this contract.

use sfcp_pram::fxhash::FxHashMap;
use std::collections::VecDeque;
use std::fmt;
use std::hash::Hasher;

/// Leading magic bytes.
pub const MAGIC: [u8; 8] = *b"SFCPSNAP";
/// Current format version.
pub const VERSION: u32 = 1;

/// The result payload of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotPayload {
    /// Canonical partition labels.
    Labels(Vec<u32>),
    /// Minimal starting point of a circular string.
    Msp(u64),
    /// Decomposition summary (counters + structure fingerprint).
    Decomposition {
        /// Number of cycles.
        num_cycles: u64,
        /// Total nodes on cycles.
        num_cycle_nodes: u64,
        /// FxHash over the decomposition arrays.
        digest: u64,
    },
}

impl SnapshotPayload {
    fn kind_tag(&self) -> u32 {
        match self {
            SnapshotPayload::Labels(_) => 1,
            SnapshotPayload::Msp(_) => 2,
            SnapshotPayload::Decomposition { .. } => 3,
        }
    }
}

/// A cached result: payload plus the tracked charges of the run that
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The computed result.
    pub payload: SnapshotPayload,
    /// Tracked work charge of the producing run.
    pub work: u64,
    /// Tracked rounds charge of the producing run.
    pub rounds: u64,
}

/// Why a byte string is not a valid snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// Shorter than the fixed header + checksum.
    TooShort {
        /// Actual byte count.
        len: usize,
    },
    /// The magic bytes are wrong.
    BadMagic,
    /// Unknown format version.
    BadVersion {
        /// The version found.
        found: u32,
    },
    /// Unknown payload kind tag.
    BadKind {
        /// The tag found.
        found: u32,
    },
    /// The payload section is cut short (or its declared length
    /// overflows).
    Truncated,
    /// Bytes remain after the payload and checksum.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// The checksum does not match the content.
    ChecksumMismatch {
        /// Checksum recomputed from the content.
        computed: u64,
        /// Checksum stored in the trailer.
        stored: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort { len } => write!(f, "snapshot too short ({len} bytes)"),
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::BadVersion { found } => write!(f, "unknown snapshot version {found}"),
            SnapshotError::BadKind { found } => write!(f, "unknown snapshot kind {found}"),
            SnapshotError::Truncated => write!(f, "snapshot payload truncated"),
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot")
            }
            SnapshotError::ChecksumMismatch { computed, stored } => {
                write!(
                    f,
                    "snapshot checksum mismatch ({computed:#x} != {stored:#x})"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Header (magic + version + kind + charges) and checksum trailer sizes.
const HEADER: usize = 8 + 4 + 4 + 8 + 8;
const TRAILER: usize = 8;

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = sfcp_pram::fxhash::FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Bounds-checked little-endian reader.
struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self.i.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.b.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.b[self.i..end];
        self.i = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }
}

impl Snapshot {
    /// Serialize to the fixed-layout byte format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = match &self.payload {
            SnapshotPayload::Labels(labels) => 8 + labels.len() * 4,
            SnapshotPayload::Msp(_) => 8,
            SnapshotPayload::Decomposition { .. } => 24,
        };
        let mut out = Vec::with_capacity(HEADER + payload_len + TRAILER);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.payload.kind_tag().to_le_bytes());
        out.extend_from_slice(&self.work.to_le_bytes());
        out.extend_from_slice(&self.rounds.to_le_bytes());
        match &self.payload {
            SnapshotPayload::Labels(labels) => {
                out.extend_from_slice(&(labels.len() as u64).to_le_bytes());
                for &v in labels {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            SnapshotPayload::Msp(k) => out.extend_from_slice(&k.to_le_bytes()),
            SnapshotPayload::Decomposition {
                num_cycles,
                num_cycle_nodes,
                digest,
            } => {
                out.extend_from_slice(&num_cycles.to_le_bytes());
                out.extend_from_slice(&num_cycle_nodes.to_le_bytes());
                out.extend_from_slice(&digest.to_le_bytes());
            }
        }
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Deserialize, validating structure and checksum.  Total: arbitrary
    /// corrupt bytes yield a typed error, never a panic.
    ///
    /// # Errors
    /// [`SnapshotError`] describing the first structural violation found.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < HEADER + TRAILER {
            return Err(SnapshotError::TooShort { len: bytes.len() });
        }
        let (content, trailer) = bytes.split_at(bytes.len() - TRAILER);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let computed = checksum(content);
        if computed != stored {
            return Err(SnapshotError::ChecksumMismatch { computed, stored });
        }
        let mut r = Reader { b: content, i: 0 };
        if r.take(8)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        let kind = r.u32()?;
        let work = r.u64()?;
        let rounds = r.u64()?;
        let payload = match kind {
            1 => {
                let count = r.u64()?;
                let count = usize::try_from(count).map_err(|_| SnapshotError::Truncated)?;
                // The element read below is bounds-checked per element, but
                // reject absurd counts up front so a corrupt length cannot
                // trigger a huge allocation before failing.
                let need = count.checked_mul(4).ok_or(SnapshotError::Truncated)?;
                if r.b.len() - r.i < need {
                    return Err(SnapshotError::Truncated);
                }
                let mut labels = Vec::with_capacity(count);
                for _ in 0..count {
                    labels.push(u32::from_le_bytes(
                        r.take(4)?.try_into().expect("4-byte slice"),
                    ));
                }
                SnapshotPayload::Labels(labels)
            }
            2 => SnapshotPayload::Msp(r.u64()?),
            3 => SnapshotPayload::Decomposition {
                num_cycles: r.u64()?,
                num_cycle_nodes: r.u64()?,
                digest: r.u64()?,
            },
            found => return Err(SnapshotError::BadKind { found }),
        };
        if r.i != content.len() {
            return Err(SnapshotError::TrailingBytes {
                extra: content.len() - r.i,
            });
        }
        Ok(Snapshot {
            payload,
            work,
            rounds,
        })
    }
}

/// Counters exposed by [`SnapshotCache::stats`] (and over the wire by the
/// `probe` request).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a snapshot.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Resident entries.
    pub entries: usize,
    /// Resident encoded bytes.
    pub bytes: usize,
}

struct Entry {
    bytes: Vec<u8>,
    stamp: u64,
}

/// A bounded LRU over **encoded** snapshots, keyed by input digest
/// (FxHash over kind and input content).
///
/// Entries are stored encoded so every hit exercises the full
/// decode-and-verify path — a corrupted entry can never leak a wrong
/// answer; it drops out as a miss.
pub struct SnapshotCache {
    map: FxHashMap<u64, Entry>,
    /// Recency queue of `(key, stamp)`; stale pairs (stamp no longer
    /// matching the entry) are skipped lazily at eviction time.
    order: VecDeque<(u64, u64)>,
    next_stamp: u64,
    max_bytes: usize,
    cur_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SnapshotCache {
    /// An empty cache bounded to `max_bytes` of encoded snapshots
    /// (`0` disables caching entirely).
    #[must_use]
    pub fn new(max_bytes: usize) -> SnapshotCache {
        SnapshotCache {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            next_stamp: 0,
            max_bytes,
            cur_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up and decode; a hit refreshes recency.
    pub fn get(&mut self, key: u64) -> Option<Snapshot> {
        let decoded = self
            .map
            .get(&key)
            .map(|entry| Snapshot::decode(&entry.bytes));
        match decoded {
            None => {
                self.misses += 1;
                None
            }
            Some(Ok(snapshot)) => {
                let stamp = self.next_stamp;
                self.next_stamp += 1;
                if let Some(entry) = self.map.get_mut(&key) {
                    entry.stamp = stamp;
                }
                self.order.push_back((key, stamp));
                self.hits += 1;
                Some(snapshot)
            }
            Some(Err(_)) => {
                // A corrupt resident entry (cannot happen through this API,
                // but the store is bytes): drop it, report a miss.
                if let Some(entry) = self.map.remove(&key) {
                    self.cur_bytes -= entry.bytes.len();
                }
                self.misses += 1;
                None
            }
        }
    }

    /// Insert an encoded snapshot, evicting least-recently-used entries to
    /// stay within the byte budget.  Oversized snapshots are not admitted.
    pub fn insert(&mut self, key: u64, snapshot: &Snapshot) {
        let bytes = snapshot.encode();
        if bytes.len() > self.max_bytes {
            return;
        }
        if let Some(old) = self.map.remove(&key) {
            self.cur_bytes -= old.bytes.len();
        }
        while self.cur_bytes + bytes.len() > self.max_bytes {
            let Some((victim, stamp)) = self.order.pop_front() else {
                break;
            };
            let live = self.map.get(&victim).is_some_and(|e| e.stamp == stamp);
            if live {
                let entry = self.map.remove(&victim).expect("live entry");
                self.cur_bytes -= entry.bytes.len();
                self.evictions += 1;
            }
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.cur_bytes += bytes.len();
        self.order.push_back((key, stamp));
        self.map.insert(key, Entry { bytes, stamp });
    }

    /// Flip a byte inside a resident entry (test support: proves a corrupt
    /// store degrades to a miss, never a wrong answer).
    #[doc(hidden)]
    pub fn corrupt_for_test(&mut self, key: u64) {
        if let Some(entry) = self.map.get_mut(&key) {
            let mid = entry.bytes.len() / 2;
            entry.bytes[mid] ^= 0x40;
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.cur_bytes,
        }
    }
}

/// FxHash fingerprint of a label array (what `digest:true` responses
/// carry; exported so the differential harness can fingerprint direct
/// library results identically).
#[must_use]
pub fn labels_digest(labels: &[u32]) -> u64 {
    let mut h = sfcp_pram::fxhash::FxHasher::default();
    h.write_u64(labels.len() as u64);
    for &v in labels {
        h.write_u32(v);
    }
    h.finish()
}

/// FxHash fingerprint of a decomposition's structure arrays (the
/// `decompose` response payload; exported for the differential harness).
#[must_use]
pub fn decomposition_digest(d: &sfcp_forest::Decomposition) -> u64 {
    let mut h = sfcp_pram::fxhash::FxHasher::default();
    h.write_u64(d.is_cycle.len() as u64);
    for &b in &d.is_cycle {
        h.write_u8(u8::from(b));
    }
    for arr in [
        &d.cycle_of,
        &d.cycle_pos,
        &d.cycle_offsets,
        &d.cycle_nodes,
        &d.levels,
        &d.roots,
    ] {
        h.write_u64(arr.len() as u64);
        for &v in arr {
            h.write_u32(v);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            payload: SnapshotPayload::Labels(vec![0, 1, 1, 2]),
            work: 1234,
            rounds: 56,
        }
    }

    #[test]
    fn encode_decode_identity() {
        for snap in [
            sample(),
            Snapshot {
                payload: SnapshotPayload::Msp(3),
                work: 9,
                rounds: 2,
            },
            Snapshot {
                payload: SnapshotPayload::Decomposition {
                    num_cycles: 4,
                    num_cycle_nodes: 17,
                    digest: 0xdead_beef,
                },
                work: 0,
                rounds: 0,
            },
        ] {
            assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let bytes = sample().encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    Snapshot::decode(&corrupt).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncations_are_typed() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..len]).is_err(),
                "truncation to {len} accepted"
            );
        }
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        let snap = |tag: u32| Snapshot {
            payload: SnapshotPayload::Labels(vec![tag; 8]),
            work: 1,
            rounds: 1,
        };
        let one = snap(0).encode().len();
        let mut cache = SnapshotCache::new(3 * one);
        cache.insert(1, &snap(1));
        cache.insert(2, &snap(2));
        cache.insert(3, &snap(3));
        assert!(cache.get(1).is_some(), "1 still resident");
        cache.insert(4, &snap(4)); // evicts 2 (LRU); 1 was refreshed
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert!(cache.get(4).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= 3 * one);
    }

    #[test]
    fn zero_budget_disables_admission() {
        let mut cache = SnapshotCache::new(0);
        cache.insert(1, &sample());
        assert!(cache.get(1).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
