//! Readers for `/proc/self/{stat,status}` and the peak-RSS reset.

use std::fs;

/// Ticks per second of the CPU times in `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 by the Linux user-space ABI).
pub const USER_HZ: f64 = 100.0;

/// CPU time this process has used, summed over all its threads, including
/// threads that have already exited.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl CpuTimes {
    /// User plus kernel seconds.
    #[must_use]
    pub fn total(self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Component-wise `self - earlier`.
    #[must_use]
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parse `utime` and `stime` (fields 14 and 15) out of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
#[must_use]
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is field 3 (state), so field k sits at index k - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / USER_HZ,
        sys_s: stime as f64 / USER_HZ,
    })
}

/// The value in kB of a `Key:   1234 kB` line of `/proc/<pid>/status`.
#[must_use]
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// CPU time of this process so far.
#[must_use]
pub fn cpu_times() -> Option<CpuTimes> {
    parse_stat(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size (`VmHWM`) in kB since start or the last
/// [`reset_peak_rss`].
#[must_use]
pub fn peak_rss_kb() -> Option<u64> {
    parse_status_kb(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// Reset the peak-RSS high-water mark to the current RSS by writing `5` to
/// `/proc/self/clear_refs`.  Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                        250 37 0 0 20 0 3 0 123456 1000000 2000 18446744073709551615";

    const STATUS: &str = "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\n\
                          VmRSS:\t   65432 kB\nThreads:\t3\n";

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        let t = parse_stat(STAT).unwrap();
        assert_eq!(t.user_s, 2.5);
        assert_eq!(t.sys_s, 0.37);
        assert!((t.total() - 2.87).abs() < 1e-12);
    }

    #[test]
    fn truncated_stat_is_none() {
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn status_lines_parse_by_exact_key() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(65_432));
        assert_eq!(parse_status_kb(STATUS, "Vm"), None);
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
    }

    #[test]
    fn live_readers_work_on_linux() {
        assert!(cpu_times().is_some());
        assert!(peak_rss_kb().unwrap() > 0);
    }
}
