//! `charge-taint` — the machine-blind-charges gate.
//!
//! DESIGN.md ("Charge discipline") promises that tracked work/depth never
//! depends on the host: `tests/charge_determinism.rs` pins bit-identical
//! charges across thread counts, task grains and tracing.  The probed
//! `sfcp_pram::Topology` is the one window onto the host's caches, and it
//! only stamps benchmark records: no pass, charged or physical, reads it.
//! Any library read of the probe would make the hazard one careless call
//! wide — a charged code path that reads it can silently turn a model
//! quantity into a host-dependent one.
//!
//! This rule forbids `topology()` / `Topology::` reads everywhere outside
//! the probe's own module and test code.  Adding a probe consumer therefore
//! requires either extending the allowlist here (reviewed, with the
//! charge-neutrality argument) or a justified inline
//! `lint:allow(charge-taint)`.

use crate::scan::{stale_entries, Defined, FileScan, Finding};

/// Rule identifier.
pub const RULE: &str = "charge-taint";

/// Functions allowed to consult the topology probe, as
/// (file-path suffix, function name) pairs; `"*"` allows a whole file.
/// Only the probe layer itself is listed.
pub const ALLOWLIST: &[(&str, &str)] = &[("crates/pram/src/topology.rs", "*")];

/// Every [`ALLOWLIST`] entry must name a scanned file and, unless it is
/// `"*"`, a function that file defines.
#[must_use]
pub fn check_entries(defined: &Defined) -> Vec<Finding> {
    stale_entries(RULE, "ALLOWLIST", ALLOWLIST, defined)
}

fn allowlisted(rel_path: &str, func: &str) -> bool {
    ALLOWLIST
        .iter()
        .any(|(file, f)| rel_path.ends_with(file) && (*f == "*" || *f == func))
}

/// Run the rule over one scanned file.
pub fn check(scan: &FileScan) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in scan.lines.iter().enumerate() {
        if scan.in_test[idx] {
            continue;
        }
        let code = &line.code;
        if !(code.contains("topology()") || code.contains("Topology::")) {
            continue;
        }
        let func = scan.fn_at(idx);
        if allowlisted(&scan.rel_path, func) {
            continue;
        }
        let line_no = idx + 1;
        if scan.allowed(RULE, line_no) {
            continue;
        }
        out.push(Finding {
            file: scan.rel_path.clone(),
            line: line_no,
            rule: RULE,
            message: format!(
                "topology probe read in `{}` — library code must stay \
                 machine-blind; the probe only stamps benchmark records \
                 (allowlist in xtask charge_taint.rs), or justify with \
                 lint:allow({RULE})",
                if func.is_empty() {
                    "<item scope>"
                } else {
                    func
                }
            ),
        });
    }
    out
}
