//! `bench-schema` — schema check over the committed `BENCH_parprim*.json`
//! files.
//!
//! In a schema-2-or-later file (header line `"schema": N`, `N >= 2`), every
//! result row must embed the `"trace"` span summary with its `"spans"` list
//! — the observability field the schema-2 bump added.  (Pre-bump files
//! carry no `"schema"` header and are exempt.)
//!
//! The files are line-structured (one row object per line, written by
//! `bench_json`), so a comment/string-blind line scan is exact here.

use crate::scan::Finding;

/// Rule identifier.
pub const RULE: &str = "bench-schema";

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
        if let Some(rest) = field_value(line, "\"schema\":") {
            schema = rest
                .split([',', '}'])
                .next()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(1);
        }
        // Only rows (lines with a name) are checked; header lines are
        // exempt.
        let Some(name) = field_value(line, "\"name\":").filter(|_| schema >= 2) else {
            continue;
        };
        let name = name.split('"').nth(1).unwrap_or_default();
        let trace = field_value(line, "\"trace\":");
        if !trace.is_some_and(|t| t.contains("\"spans\":[")) {
            out.push(Finding {
                file: rel_path.to_string(),
                line: idx + 1,
                rule: RULE,
                message: format!(
                    "schema-{schema} row `{name}` is missing the \"trace\" summary \
                     (with its \"spans\" list) — regenerate with bench_json, \
                     or drop the \"schema\" header"
                ),
            });
        }
    }
    out
}
