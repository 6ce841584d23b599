//! `bench-engines` — schema check over the committed `BENCH_parprim*.json`
//! engine labels.
//!
//! A mislabeled row — one whose `engines` header did not name what its
//! timing columns measured — once reached a committed bench file; this rule
//! keeps that class unrepresentable at commit time.  For every row of every
//! `BENCH_parprim*.json` in the repo root:
//!
//! * an `"engines": [a, b]` field must be the sort/rank engine-set pair
//!   (kept in lockstep with `SORT_RANK_LABELS` in
//!   `crates/bench/src/bin/bench_json.rs`);
//! * in a schema-2 file (header line `"schema": 2`), every result row must
//!   embed the `"trace"` span summary with its `"spans"` list — the
//!   observability field the schema bump added.  (Pre-bump files carry no
//!   `"schema"` header and are exempt.)
//!
//! The files are line-structured (one row object per line, written by
//! `bench_json`), so a comment/string-blind line scan is exact here.

use crate::scan::Finding;

/// Rule identifier.
pub const RULE: &str = "bench-engines";

/// The engine-set labels every row carries (mirrors `bench_json.rs`; the
/// self-test in `crates/xtask/tests` cross-checks the committed files).
const KNOWN_PAIR: [&str; 2] = ["packed", "permutation"];

fn extract_quoted(list: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = list;
    while let Some(open) = rest.find('"') {
        let Some(close) = rest[open + 1..].find('"') else {
            break;
        };
        out.push(rest[open + 1..open + 1 + close].to_string());
        rest = &rest[open + 2 + close..];
    }
    out
}

fn field_value<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let pos = line.find(field)? + field.len();
    Some(line[pos..].trim_start())
}

/// Check one committed bench JSON file.
#[must_use]
pub fn check(rel_path: &str, contents: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    // Bumped when the header's `"schema": N` line is seen; rows before it
    // (there are none in well-formed output) default to the unversioned
    // pre-trace schema.
    let mut schema: u64 = 1;
    for (idx, line) in contents.lines().enumerate() {
        let line_no = idx + 1;
        let mut finding = |message: String| {
            out.push(Finding {
                file: rel_path.to_string(),
                line: line_no,
                rule: RULE,
                message,
            });
        };
        if let Some(rest) = field_value(line, "\"schema\":") {
            schema = rest
                .split([',', '}'])
                .next()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(1);
        }
        let name = field_value(line, "\"name\":")
            .map(|v| extract_quoted(v).into_iter().next().unwrap_or_default());

        // Schema 2 rows must carry the span summary.  Only rows (lines with
        // a name) are checked; header lines are exempt.
        if let Some(name) = name.filter(|_| schema >= 2) {
            let trace = field_value(line, "\"trace\":");
            if !trace.is_some_and(|t| t.contains("\"spans\":[")) {
                finding(format!(
                    "schema-2 row `{name}` is missing the \"trace\" summary \
                     (with its \"spans\" list) — regenerate with bench_json, \
                     or drop the \"schema\": 2 header"
                ));
            }
        }

        if let Some(rest) = field_value(line, "\"engines\":") {
            let Some(close) = rest.find(']') else {
                finding("unterminated engines list".to_string());
                continue;
            };
            let labels = extract_quoted(&rest[..close]);
            if labels != KNOWN_PAIR {
                finding(format!(
                    "engines {labels:?} is not the measured engine set \
                     (expected {KNOWN_PAIR:?})"
                ));
            }
        }
    }
    out
}
