//! # xtask — first-party repo tooling (`cargo run -p xtask -- lint`)
//!
//! `sfcp-lint` is a self-contained static-analysis pass over the
//! first-party crates, enforcing the invariants the test suite can only
//! check at runtime (see DESIGN.md, "Statically enforced invariants"):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `charge-taint` | topology probe reads only in allowlisted physical-plan functions |
//! | `unsafe-safety` | every `unsafe` carries an adjacent `// SAFETY:` invariant |
//! | `unsafe-attr` | crate roots declare `deny(unsafe_op_in_unsafe_fn)` / `forbid(unsafe_code)` |
//! | `workspace-pairing` | workspace checkouts are bound or handed off; no `mem::forget` |
//! | `alloc-hot-path` | no allocation in `_into` hot paths; no accidental O(n) copies |
//! | `facade-coverage` | panicking `pram`/`core` entry points have `try_` twins |
//! | `bench-schema` | committed schema-2+ bench rows carry their trace summary |
//! | `lint-allow` | every inline suppression carries a justification |
//!
//! Suppression: `// lint:allow(rule-id): justification` on (or directly
//! above) the offending line.  The justification is mandatory.
//!
//! The file-gated rules' own lists (`charge-taint`'s allowlist,
//! `alloc-hot-path`'s hot files) are checked against the tree: an entry
//! naming a missing file or function is a finding of its rule, so a
//! deleted or renamed module cannot drop out of a rule unnoticed.
//!
//! Span coverage of engine passes needs no rule: the engine-pass fault hook
//! is crate-private to `sfcp-pram` and fires only through `Ctx::pass`,
//! which opens the pass's span, so the compiler enforces the pairing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod lexer;
pub mod rules;
pub mod scan;

use rules::facade_coverage::FacadeState;
use scan::{Defined, FileScan, Finding};
use std::path::{Path, PathBuf};

/// Directories (repo-relative) whose `.rs` files are first-party sources.
const SCAN_DIRS: &[&str] = &["crates", "src", "tests", "examples"];
/// Path components that are never scanned: vendored shims, build output,
/// and the lint's own deliberately-violating fixtures.
const SKIP_COMPONENTS: &[&str] = &["vendor", "target", "fixtures"];

/// Recursively collect first-party `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if SKIP_COMPONENTS.contains(&name.as_str()) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Whether a repo-relative path is test code wholesale (integration tests:
/// not part of the charged/hot production surface).
fn is_test_path(rel_path: &str) -> bool {
    rel_path.starts_with("tests/") || rel_path.contains("/tests/")
}

/// Run every lint over the repo at `root`.  Returns sorted findings and the
/// number of files scanned.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn run_lint(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let dir_path = root.join(dir);
        if dir_path.is_dir() {
            collect_rs(&dir_path, &mut files)?;
        }
    }
    files.sort();

    let mut findings = Vec::new();
    let mut facades = FacadeState::default();
    let mut defined = Defined::new();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let rel_path = rel(root, path);
        let scan = FileScan::new(&rel_path, &src, is_test_path(&rel_path));
        findings.extend(scan.scan_findings.iter().cloned());
        findings.extend(rules::charge_taint::check(&scan));
        findings.extend(rules::unsafe_hygiene::check_safety(&scan));
        findings.extend(rules::unsafe_hygiene::check_attr(&scan));
        findings.extend(rules::workspace_pairing::check(&scan));
        findings.extend(rules::alloc_hot_path::check(&scan));
        facades.ingest(&scan);
        defined.insert(rel_path, scan.defined_fns());
    }
    findings.extend(facades.finish());
    findings.extend(rules::charge_taint::check_entries(&defined));
    findings.extend(rules::alloc_hot_path::check_entries(&defined));

    let mut bench_files: Vec<PathBuf> = std::fs::read_dir(root)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_parprim") && n.ends_with(".json"))
        })
        .collect();
    bench_files.sort();
    let total = files.len() + bench_files.len();
    for path in bench_files {
        let contents = std::fs::read_to_string(&path)?;
        findings.extend(rules::bench_schema::check(&rel(root, &path), &contents));
    }

    findings.sort();
    findings.dedup();
    Ok((findings, total))
}

/// Locate the workspace root: start at `crates/xtask` and walk up to the
/// directory holding the workspace `Cargo.toml`.
#[must_use]
pub fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}
