//! `charge-taint` — the machine-blind-charges gate.
//!
//! DESIGN.md ("Charge discipline") promises that tracked work/depth never
//! depends on the host: `tests/charge_determinism.rs` pins bit-identical
//! charges across engines, thread counts, and mocked cache sizes.  PR 7
//! threaded the probed `sfcp_pram::Topology` into every physical tuning
//! constant, which makes the hazard one careless call wide: any *charged*
//! code path that reads the probe can silently turn a model quantity into a
//! host-dependent one.
//!
//! This rule forbids `topology()` / `Topology::` reads everywhere except an
//! explicit allowlist of **physical-plan** functions — the places whose
//! DESIGN.md contract is "physical only: results and charges are identical
//! on every host".  Adding a new topology consumer therefore requires either
//! extending the allowlist here (reviewed, with the charge-neutrality
//! argument) or a justified inline `lint:allow(charge-taint)`.

use crate::scan::{FileScan, Finding};

/// Rule identifier.
pub const RULE: &str = "charge-taint";

/// Functions allowed to consult the topology probe, as
/// (file-path suffix, function name) pairs; `"*"` allows a whole file.
///
/// Every entry must be charge-neutral.  The cross-check is
/// `tests/charge_determinism.rs`, which runs decompose under the probed
/// topology and under tiny-LLC / huge-LLC mocks and asserts bit-identical
/// charges — none of the functions below may feed the tracker.
const ALLOWLIST: &[(&str, &str)] = &[
    // The probe layer itself.
    ("crates/pram/src/topology.rs", "*"),
    // Ctx construction snapshots the probe and derives the physical task
    // grain; the accessors hand the snapshot out without charging.
    ("crates/pram/src/ctx.rs", "new"),
    ("crates/pram/src/ctx.rs", "topology"),
    ("crates/pram/src/ctx.rs", "with_topology"),
    // Radix block plan: the physical clamp on the *model* plan; charges
    // always use `model_block_plan` (DESIGN.md §3).
    ("crates/parprim/src/intsort.rs", "block_plan"),
    // CSR build-regime selection and write-combined counting threshold;
    // the charge is a fixed documented model in both regimes (DESIGN.md §5).
    ("crates/parprim/src/csr.rs", "direct_build_max_keys"),
    ("crates/parprim/src/csr.rs", "build_csr_direct"),
    // Wavefront lane count for the list-ranking walker, probed from L1d
    // (DESIGN.md §6); lane count only affects gather overlap, never charges.
    (
        "crates/parprim/src/listrank/bucket.rs",
        "chain_walk_bucketed",
    ),
    (
        "crates/parprim/src/listrank/bucket.rs",
        "cycle_walk_bucketed",
    ),
];

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
                "topology probe read in `{}` — charged model code must stay \
                 machine-blind; route physical tuning through an allowlisted \
                 plan function (xtask charge_taint.rs) or justify with \
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
