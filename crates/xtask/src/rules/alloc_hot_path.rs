//! `alloc-hot-path` — the zero-allocation contract of the engine hot paths.
//!
//! DESIGN.md §2 ("the workspace") makes per-round allocation a regression:
//! every doubling-style pass checks scratch out of the `Workspace` pools,
//! and the `_into` entry points are the documented zero-allocation surface
//! (the non-`_into` convenience wrappers allocate exactly the returned
//! result, once per run, by contract).  This rule enforces two things in
//! the hot-path modules:
//!
//! 1. inside any `*_into` function: no allocation constructs at all
//!    (`Vec::new`, `Vec::with_capacity`, `vec![…]`, `.to_vec()`,
//!    `.collect::<Vec…>`) — scratch comes from the workspace, output goes
//!    into the caller's buffer;
//! 2. anywhere in a hot-path module: no `.to_vec()` / `.collect::<Vec…>`
//!    — the accidental-copy class that silently duplicates an O(n) array.
//!    Deliberate copies in the allocating baseline engines carry a
//!    justified `lint:allow`.

use crate::scan::{stale_entries, Defined, FileScan, Finding};

/// Rule identifier.
pub const RULE: &str = "alloc-hot-path";

/// The hot-path modules: the parprim engine passes, the pseudoforest
/// decomposition passes and the paper's pipeline (ROADMAP
/// "zero-allocation workspace-backed hot paths").
pub const HOT_FILES: &[&str] = &[
    "crates/parprim/src/intsort.rs",
    "crates/parprim/src/rank.rs",
    "crates/parprim/src/scan.rs",
    "crates/parprim/src/compact.rs",
    "crates/parprim/src/csr.rs",
    "crates/parprim/src/euler.rs",
    "crates/parprim/src/jump.rs",
    "crates/parprim/src/listrank/mod.rs",
    "crates/parprim/src/listrank/wyllie.rs",
    "crates/parprim/src/listrank/ruling.rs",
    "crates/parprim/src/listrank/bucket.rs",
    "crates/pseudoforest/src/cycles.rs",
    "crates/pseudoforest/src/structure.rs",
    "crates/core/src/parallel.rs",
];

const ALLOC_ANY: &[&str] = &["Vec::new(", "Vec::with_capacity(", "vec!["];
const ALLOC_COPY: &[&str] = &[".to_vec()", ".collect::<Vec"];

/// Every [`HOT_FILES`] entry must name a scanned file.
#[must_use]
pub fn check_entries(defined: &Defined) -> Vec<Finding> {
    let entries: Vec<(&str, &str)> = HOT_FILES.iter().map(|f| (*f, "*")).collect();
    stale_entries(RULE, "HOT_FILES", &entries, defined)
}

/// Run the rule over one scanned file.
pub fn check(scan: &FileScan) -> Vec<Finding> {
    if !HOT_FILES.iter().any(|f| scan.rel_path == *f) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in scan.lines.iter().enumerate() {
        if scan.in_test[idx] {
            continue;
        }
        let code = &line.code;
        let line_no = idx + 1;
        let in_into_fn = scan.fn_at(idx).ends_with("_into");

        let copy_hit = ALLOC_COPY.iter().find(|p| code.contains(**p));
        let ctor_hit = ALLOC_ANY.iter().find(|p| code.contains(**p));
        let hit = match (copy_hit, ctor_hit) {
            (Some(p), _) => Some((*p, true)),
            (None, Some(p)) if in_into_fn => Some((*p, false)),
            _ => None,
        };
        let Some((pat, is_copy)) = hit else { continue };
        if scan.allowed(RULE, line_no) {
            continue;
        }
        let message = if is_copy {
            format!(
                "`{pat}` copies an array in hot-path module — gather into a \
                 workspace checkout instead, or justify the deliberate copy \
                 with lint:allow({RULE})"
            )
        } else {
            format!(
                "`{pat}` inside zero-allocation entry point `{}` — `_into` \
                 functions must draw scratch from the Workspace and write \
                 the caller's buffer",
                scan.fn_at(idx)
            )
        };
        out.push(Finding {
            file: scan.rel_path.clone(),
            line: line_no,
            rule: RULE,
            message,
        });
    }
    out
}
