//! Host stamp: the core count and cache sizes, probed once.
//!
//! Benchmark records carry this stamp so a result is only compared against
//! one taken on a matching host.  No pass reads it: the physical plan of
//! every pass (task grain, block counts, lane widths) is a constant or a
//! function of the input and the thread count, and the tracked work/depth
//! charges depend on the input alone (see `DESIGN.md`, "Charge
//! discipline").  The `charge-taint` lint keeps it that way: a probe read
//! outside this file is a finding.

use std::sync::OnceLock;

/// Conservative fallback last-level cache size (32 MB) when sysfs is absent
/// (non-Linux, sandboxed, or exotic hosts).
const FALLBACK_LLC_BYTES: usize = 32 << 20;
/// Fallback per-core L2 size (1 MB).
const FALLBACK_L2_BYTES: usize = 1 << 20;

/// A snapshot of the host: core count, LLC and L2 capacities.  Cheap to
/// copy.  Obtain one with [`Topology::probe`] (cached after the first call).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    llc_bytes: usize,
    l2_bytes: usize,
    cores: usize,
}

impl Topology {
    /// Probe the host once and return the cached snapshot.
    ///
    /// On Linux this reads `/sys/devices/system/cpu/cpu0/cache/index*/`
    /// (`level`, `type`, `size`), taking the highest-level data/unified
    /// cache as the LLC.  Any field that cannot be read falls back to a
    /// conservative default (32 MB LLC, 1 MB L2); the core count comes from
    /// the runtime.
    pub fn probe() -> Self {
        static PROBED: OnceLock<Topology> = OnceLock::new();
        *PROBED.get_or_init(Self::probe_uncached)
    }

    fn probe_uncached() -> Self {
        let mut topo = Topology {
            llc_bytes: FALLBACK_LLC_BYTES,
            l2_bytes: FALLBACK_L2_BYTES,
            cores: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        };
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
            if level == 2 {
                topo.l2_bytes = size;
            }
            if level >= best_level {
                best_level = level;
                topo.llc_bytes = size;
            }
        }
        topo
    }

    /// Last-level cache capacity in bytes.
    pub fn llc_bytes(&self) -> usize {
        self.llc_bytes
    }

    /// Per-core L2 capacity in bytes.
    pub fn l2_bytes(&self) -> usize {
        self.l2_bytes
    }

    /// Number of logical cores available to this process.
    pub fn cores(&self) -> usize {
        self.cores
    }
}

/// Read and parse a small integer sysfs file (`"2\n"` → 2).
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
        assert!(t.llc_bytes() > 0 && t.l2_bytes() > 0);
        assert!(t.cores() >= 1);
        assert_eq!(t, Topology::probe());
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
