//! Host cache-topology probe: the one place physical tuning constants come
//! from.
//!
//! Every cache-aware layer in this workspace used to carry its own
//! host-tuned constant — a 2048-element grain in [`crate::Ctx`], a 4M-counter
//! histogram budget in the radix `block_plan`, 64 wavefront lanes in the
//! bucketed list-ranking walks, 2 KB staging tiles — all calibrated on one
//! container and silently wrong everywhere else.  [`Topology`] probes the
//! actual machine once (Linux sysfs, with documented fallbacks) and derives
//! each of those quantities, so the physical geometry follows the host while
//! the *model* (tracked work/depth charges) never reads any of it.
//!
//! # Charge discipline
//!
//! Nothing in this module may influence a tracked charge.  Charges are a
//! machine-independent model: the same input must produce bit-identical
//! `work`/`rounds` on every host, at every thread count, under every engine
//! (see `DESIGN.md`, "Charge discipline").  The probe therefore only feeds
//! *physical* decisions — block counts, tile sizes, lane widths, and the
//! radix and CSR regime choices, whose candidates charge identically by
//! construction.
//!
//! # Mocking
//!
//! Tests pin behaviour on both sides of the LLC boundary by overriding the
//! probed values: `Topology::probe().with_llc_bytes(1 << 20)` attached via
//! `Ctx::with_topology` moves the boundary without needing 100 MB inputs.

use std::sync::OnceLock;

/// Conservative fallback last-level cache size (32 MB) when sysfs is absent
/// (non-Linux, sandboxed, or exotic hosts).
const FALLBACK_LLC_BYTES: usize = 32 << 20;
/// Fallback per-core L2 size (1 MB).
const FALLBACK_L2_BYTES: usize = 1 << 20;
/// Fallback L1 data-cache size (32 KB).
const FALLBACK_L1D_BYTES: usize = 32 << 10;
/// Fallback cache-line size; 64 bytes on every mainstream CPU of the last
/// two decades.
const FALLBACK_CACHE_LINE: usize = 64;

/// A snapshot of the host's memory hierarchy: cache capacities, line size,
/// and core count.  Cheap to copy; carried by value on [`crate::Ctx`].
///
/// Obtain one with [`Topology::probe`] (cached after the first call) and
/// adjust it for tests with the `with_*` builders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    llc_bytes: usize,
    l2_bytes: usize,
    l1d_bytes: usize,
    cache_line: usize,
    cores: usize,
}

impl Topology {
    /// Probe the host once and return the cached snapshot.
    ///
    /// On Linux this reads `/sys/devices/system/cpu/cpu0/cache/index*/`
    /// (`level`, `type`, `size`, `coherency_line_size`), taking the
    /// highest-level data/unified cache as the LLC.  Any field that cannot
    /// be read falls back to a conservative default (32 MB LLC, 1 MB L2,
    /// 32 KB L1d, 64 B lines, 1 core).
    pub fn probe() -> Self {
        static PROBED: OnceLock<Topology> = OnceLock::new();
        *PROBED.get_or_init(Self::probe_uncached)
    }

    /// The documented fallback snapshot (what [`Topology::probe`] returns
    /// when sysfs is unavailable), with the core count still taken from the
    /// runtime.  Public so docs/tests can reference the exact values.
    pub fn fallback() -> Self {
        Topology {
            llc_bytes: FALLBACK_LLC_BYTES,
            l2_bytes: FALLBACK_L2_BYTES,
            l1d_bytes: FALLBACK_L1D_BYTES,
            cache_line: FALLBACK_CACHE_LINE,
            cores: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }

    fn probe_uncached() -> Self {
        let mut topo = Self::fallback();
        let base = "/sys/devices/system/cpu/cpu0/cache";
        let mut best_level = 0u32;
        for index in 0..10 {
            let dir = format!("{base}/index{index}");
            let Some(level) = read_sysfs_u32(&format!("{dir}/level")) else {
                continue;
            };
            let kind = std::fs::read_to_string(format!("{dir}/type")).unwrap_or_default();
            if kind.trim() == "Instruction" {
                continue;
            }
            let Some(size) = read_sysfs_size(&format!("{dir}/size")) else {
                continue;
            };
            if let Some(line) = read_sysfs_u32(&format!("{dir}/coherency_line_size")) {
                if line > 0 {
                    topo.cache_line = line as usize;
                }
            }
            match level {
                1 => topo.l1d_bytes = size,
                2 => topo.l2_bytes = size,
                _ => {}
            }
            if level >= best_level {
                best_level = level;
                topo.llc_bytes = size;
            }
        }
        topo
    }

    /// Last-level cache capacity in bytes (the budget the radix histogram
    /// and direct CSR build are sized against).
    pub fn llc_bytes(&self) -> usize {
        self.llc_bytes
    }

    /// Per-core L2 capacity in bytes.
    pub fn l2_bytes(&self) -> usize {
        self.l2_bytes
    }

    /// L1 data-cache capacity in bytes.
    pub fn l1d_bytes(&self) -> usize {
        self.l1d_bytes
    }

    /// Cache-line size in bytes.
    pub fn cache_line(&self) -> usize {
        self.cache_line
    }

    /// Number of logical cores available to this process.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Override the LLC capacity (tests: mock the footprint boundary).
    #[must_use]
    pub fn with_llc_bytes(mut self, bytes: usize) -> Self {
        self.llc_bytes = bytes.max(1);
        self
    }

    /// Override the L2 capacity.
    #[must_use]
    pub fn with_l2_bytes(mut self, bytes: usize) -> Self {
        self.l2_bytes = bytes.max(1);
        self
    }

    /// Override the L1d capacity.
    #[must_use]
    pub fn with_l1d_bytes(mut self, bytes: usize) -> Self {
        self.l1d_bytes = bytes.max(1);
        self
    }

    /// Override the cache-line size.
    #[must_use]
    pub fn with_cache_line(mut self, bytes: usize) -> Self {
        self.cache_line = bytes.max(1);
        self
    }

    // -----------------------------------------------------------------------
    // Derived physical tuning quantities.  Each replaces a constant that was
    // previously hand-tuned to this repository's original 64-byte-line /
    // large-LLC container; the derivations reproduce the old values on that
    // host exactly and scale sanely elsewhere.  None of these may appear in
    // a tracked charge.
    // -----------------------------------------------------------------------

    /// Default parallel grain: the minimum items per rayon task.  32 cache
    /// lines of 4-byte elements per task (2048 on 64-byte lines), clamped to
    /// `[1024, 8192]` so degenerate line sizes stay sane.
    pub fn default_grain(&self) -> usize {
        (self.cache_line * 32).clamp(1024, 8192)
    }

    /// Entries per staging tile of the CSR builder's write-combined counting
    /// pass: 32 cache lines of staging per bucket at 16 bytes per entry
    /// (128 entries / 2 KB tiles on 64-byte lines), clamped to `[64, 512]`.
    pub fn scatter_tile_entries(&self) -> usize {
        ((self.cache_line * 32) / 16).clamp(64, 512)
    }

    /// Concurrent lanes per wavefront batch in the bucketed list-ranking
    /// walks.  Each lane keeps ~12 bytes of hot state in L1 alongside the
    /// ruler tables; `l1d / 768` reproduces the tuned 64 lanes at 48 KB L1d,
    /// clamped to `[16, 64]` (the compile-time lane-array bound).
    pub fn wavefront_lanes(&self) -> usize {
        (self.l1d_bytes / 768).clamp(16, 64)
    }

    /// Counter budget for the radix-sort histogram matrix (`blocks × radix`
    /// `u32` cells): an eighth of the LLC, with a 64K floor.  On hosts with
    /// ≥ 32 MB of LLC this is at least the historical 4M-counter budget's
    /// effective use (the block cap of 256 binds first), so block plans are
    /// unchanged there; on small-LLC hosts it shrinks the matrix to fit.
    pub fn radix_counter_budget(&self) -> usize {
        (self.llc_bytes / 8 / std::mem::size_of::<u32>()).max(1 << 16)
    }

    /// Largest CSR key count for which the direct blocked build (per-block
    /// histogram rows of `num_keys` `u32` counters) is allowed: the rows of
    /// the counting pass should fit in half the LLC.  Clamped to a 64K floor
    /// so tiny hosts still take the direct path on small inputs.
    pub fn csr_direct_counter_budget(&self) -> usize {
        (self.llc_bytes / 2 / std::mem::size_of::<u32>()).max(1 << 16)
    }
}

/// Read and parse a small integer sysfs file (`"64\n"` → 64).
fn read_sysfs_u32(path: &str) -> Option<u32> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// Read and parse a sysfs size file (`"107520K\n"` → 110 100 480).
fn read_sysfs_size(path: &str) -> Option<usize> {
    let raw = std::fs::read_to_string(path).ok()?;
    let s = raw.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1usize << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1usize << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1),
    };
    let value: usize = digits.parse().ok()?;
    (value > 0).then_some(value * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_sane_and_cached() {
        let t = Topology::probe();
        assert!(t.llc_bytes() >= t.l1d_bytes());
        assert!(t.cache_line() >= 16 && t.cache_line() <= 1024);
        assert!(t.cores() >= 1);
        assert_eq!(t, Topology::probe());
    }

    #[test]
    fn derived_values_reproduce_tuned_constants_on_reference_host() {
        // 64-byte lines / 48 KB L1d — the host the historical constants were
        // tuned on — must reproduce them exactly.
        let t = Topology::fallback()
            .with_cache_line(64)
            .with_l1d_bytes(48 << 10);
        assert_eq!(t.default_grain(), 2048);
        assert_eq!(t.scatter_tile_entries(), 128);
        assert_eq!(t.wavefront_lanes(), 64);
    }

    #[test]
    fn derived_values_shrink_on_small_hosts_within_bounds() {
        let t = Topology::fallback()
            .with_cache_line(32)
            .with_l1d_bytes(16 << 10)
            .with_llc_bytes(2 << 20);
        assert_eq!(t.default_grain(), 1024);
        assert_eq!(t.scatter_tile_entries(), 64);
        assert!(t.wavefront_lanes() >= 16 && t.wavefront_lanes() <= 64);
        assert_eq!(t.radix_counter_budget(), 1 << 16);
        assert_eq!(t.csr_direct_counter_budget(), (2 << 20) / 8);
    }

    #[test]
    fn size_parsing_handles_suffixes() {
        assert_eq!(read_sysfs_size("/nonexistent"), None);
        // Parsing internals via a temp file.
        let dir = std::env::temp_dir().join("sfcp_topology_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("size");
        std::fs::write(&p, "107520K\n").unwrap();
        assert_eq!(read_sysfs_size(p.to_str().unwrap()), Some(107520 << 10));
        std::fs::write(&p, "8M\n").unwrap();
        assert_eq!(read_sysfs_size(p.to_str().unwrap()), Some(8 << 20));
    }
}
