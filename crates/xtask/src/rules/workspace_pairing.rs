//! `workspace-pairing` — checkout/return discipline for `Workspace`
//! scratch buffers.
//!
//! Every `Workspace::take_*` checkout is an RAII `Scratch` guard whose
//! drop returns the buffer to the pool; `stats().outstanding() == 0` is the
//! leak-test invariant (PR 3 closed an accounting leak of exactly this
//! class by hand).  Two source shapes defeat the protocol:
//!
//! 1. a checkout that is neither bound (`let buf = ws.take_u32(n)`) nor
//!    handed off (argument to an `*_into` sink, explicit `drop`, or a
//!    `return`) — the guard drops on the same statement, so the checkout
//!    was dead weight at best and a stale-alias bug at worst;
//! 2. `mem::forget` / `ManuallyDrop` applied in first-party code — the
//!    buffer never returns, `outstanding()` never reconciles, and the
//!    warm-pool charge determinism the bench harness relies on is gone.

use crate::scan::{FileScan, Finding};

/// Rule identifier.
pub const RULE: &str = "workspace-pairing";

const TAKE_CALLS: &[&str] = &[
    "take_u8(",
    "take_u32(",
    "take_u64(",
    "take_recs(",
    "take_pairs(",
    "take::<",
];

/// Text of the statement enclosing byte `pos` of line `idx`: everything from
/// the previous statement terminator (`;`, `{`, `}`) up to `pos`.
fn statement_prefix(scan: &FileScan, idx: usize, pos: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let head = &scan.lines[idx].code[..pos];
    if let Some(term) = head.rfind([';', '{', '}']) {
        return head[term + 1..].to_string();
    }
    parts.push(head.to_string());
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let code = &scan.lines[i].code;
        if let Some(term) = code.rfind([';', '{', '}']) {
            parts.push(code[term + 1..].to_string());
            break;
        }
        parts.push(code.clone());
    }
    parts.reverse();
    parts.join(" ")
}

fn word_in(text: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(p) = text[start..].find(word) {
        let abs = start + p;
        let before_ok = abs == 0
            || !text[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = abs + word.len();
        let after_ok = !text[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

/// Run the rule over one scanned file.
pub fn check(scan: &FileScan) -> Vec<Finding> {
    let mut out = Vec::new();
    // The Workspace implementation itself defines the take_* family.
    let is_impl = scan.rel_path.ends_with("crates/pram/src/workspace.rs");
    for (idx, line) in scan.lines.iter().enumerate() {
        if scan.in_test[idx] {
            continue;
        }
        let code = &line.code;
        let line_no = idx + 1;

        if (code.contains("mem::forget(") || code.contains("ManuallyDrop::new("))
            && !scan.allowed(RULE, line_no)
        {
            out.push(Finding {
                file: scan.rel_path.clone(),
                line: line_no,
                rule: RULE,
                message: "mem::forget/ManuallyDrop defeats the Scratch \
                          return protocol — workspace accounting can never \
                          reconcile a forgotten checkout"
                    .to_string(),
            });
        }

        if is_impl {
            continue;
        }
        for pat in TAKE_CALLS {
            let mut search = 0;
            while let Some(p) = code[search..].find(pat) {
                let pos = search + p;
                search = pos + pat.len();
                // Skip definitions (`pub fn take_u32(...)`) and paths that
                // merely *name* the method.
                let head = &code[..pos];
                if head.contains("fn ") {
                    continue;
                }
                let stmt = statement_prefix(scan, idx, pos);
                let bound = word_in(&stmt, "let") || word_in(&stmt, "return");
                let handed_off = stmt.contains("_into(") || stmt.contains("drop(");
                if bound || handed_off || scan.allowed(RULE, line_no) {
                    continue;
                }
                out.push(Finding {
                    file: scan.rel_path.clone(),
                    line: line_no,
                    rule: RULE,
                    message: format!(
                        "workspace checkout `{}` is neither let-bound nor \
                         handed off (return / `_into` sink / drop) — the \
                         Scratch guard dies on this statement",
                        pat.trim_end_matches('(')
                    ),
                });
            }
        }
    }
    out
}
