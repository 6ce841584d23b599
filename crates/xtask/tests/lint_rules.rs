//! Fixture-based rule tests: for every sfcp-lint rule, one deliberately
//! violating fixture (under `tests/fixtures/`, a directory the repo walk
//! skips) and one clean fixture.  The fixtures are scanned under fake
//! repo-relative paths so the file-gated rules (hot-path modules, crate
//! roots, facade crates) fire exactly as they would in the tree.

use xtask::rules::{
    alloc_hot_path, bench_schema, charge_taint, facade_coverage::FacadeState, unsafe_hygiene,
    workspace_pairing,
};
use xtask::scan::{Defined, FileScan};

fn scan(rel_path: &str, src: &str) -> FileScan {
    FileScan::new(rel_path, src, false)
}

/// The defined-function map of a tree holding `files`, each scanned from a
/// source that defines exactly the listed functions.
fn tree(files: &[(&str, Vec<&str>)]) -> Defined {
    files
        .iter()
        .map(|(path, fns)| {
            let src: String = fns.iter().map(|f| format!("fn {f}() {{}}\n")).collect();
            (path.to_string(), scan(path, &src).defined_fns())
        })
        .collect()
}

#[test]
fn charge_taint_flags_probe_reads_in_engine_code() {
    let s = scan(
        "crates/parprim/src/rank.rs",
        include_str!("fixtures/charge_taint_bad.rs"),
    );
    let findings = charge_taint::check(&s);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == charge_taint::RULE));
    assert!(findings[0].message.contains("rank_pass_into"));
}

#[test]
fn charge_taint_allows_plan_functions_and_tests() {
    let s = scan(
        "crates/parprim/src/intsort.rs",
        include_str!("fixtures/charge_taint_clean.rs"),
    );
    assert_eq!(charge_taint::check(&s), vec![]);
}

#[test]
fn charge_taint_flags_allowlist_entries_naming_no_function() {
    // A tree defining every allowlisted function, and the same tree with
    // `Ctx::parallel` renamed away.
    let mut files: Vec<(&str, Vec<&str>)> = Vec::new();
    for &(file, func) in charge_taint::ALLOWLIST {
        match files.iter_mut().find(|(f, _)| *f == file) {
            Some((_, fns)) => fns.push(func),
            None => files.push((file, vec![func])),
        }
    }
    assert_eq!(charge_taint::check_entries(&tree(&files)), vec![]);
    for (file, fns) in &mut files {
        if *file == "crates/pram/src/ctx.rs" {
            fns.retain(|f| *f != "parallel");
        }
    }
    let findings = charge_taint::check_entries(&tree(&files));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, charge_taint::RULE);
    assert_eq!(findings[0].file, "crates/pram/src/ctx.rs");
    assert!(findings[0].message.contains("`parallel`"));
}

#[test]
fn unsafe_safety_flags_missing_invariants() {
    let s = scan(
        "crates/parprim/src/example.rs",
        include_str!("fixtures/unsafe_safety_bad.rs"),
    );
    let findings = unsafe_hygiene::check_safety(&s);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .all(|f| f.rule == unsafe_hygiene::RULE_SAFETY));
}

#[test]
fn unsafe_safety_accepts_adjacent_and_trailing_comments() {
    let s = scan(
        "crates/parprim/src/example.rs",
        include_str!("fixtures/unsafe_safety_clean.rs"),
    );
    assert_eq!(unsafe_hygiene::check_safety(&s), vec![]);
}

#[test]
fn unsafe_attr_requires_crate_root_discipline() {
    let bad = scan(
        "crates/parprim/src/lib.rs",
        include_str!("fixtures/unsafe_attr_bad.rs"),
    );
    let findings = unsafe_hygiene::check_attr(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, unsafe_hygiene::RULE_ATTR);

    // The same source is also insufficient for a must-forbid crate root.
    let bad_forbid = scan(
        "crates/pram/src/lib.rs",
        include_str!("fixtures/unsafe_attr_clean.rs"),
    );
    let findings = unsafe_hygiene::check_attr(&bad_forbid);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("forbid(unsafe_code)"));
}

#[test]
fn unsafe_attr_accepts_declared_discipline_and_ignores_non_roots() {
    let clean = scan(
        "crates/parprim/src/lib.rs",
        include_str!("fixtures/unsafe_attr_clean.rs"),
    );
    assert_eq!(unsafe_hygiene::check_attr(&clean), vec![]);

    // A module file that merely *ends* in lib.rs-like paths is not a root.
    let non_root = scan(
        "crates/parprim/src/engine.rs",
        include_str!("fixtures/unsafe_attr_bad.rs"),
    );
    assert_eq!(unsafe_hygiene::check_attr(&non_root), vec![]);
}

#[test]
fn workspace_pairing_flags_dropped_checkouts_and_forget() {
    let s = scan(
        "crates/parprim/src/example.rs",
        include_str!("fixtures/workspace_pairing_bad.rs"),
    );
    let findings = workspace_pairing::check(&s);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("take_u32")));
    assert!(findings.iter().any(|f| f.message.contains("mem::forget")));
}

#[test]
fn workspace_pairing_accepts_bindings_and_handoffs() {
    let s = scan(
        "crates/parprim/src/example.rs",
        include_str!("fixtures/workspace_pairing_clean.rs"),
    );
    assert_eq!(workspace_pairing::check(&s), vec![]);
}

#[test]
fn alloc_hot_path_flags_into_allocations_and_copies() {
    let s = scan(
        "crates/parprim/src/rank.rs",
        include_str!("fixtures/alloc_hot_path_bad.rs"),
    );
    let findings = alloc_hot_path::check(&s);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("rank_into")));
    assert!(findings.iter().any(|f| f.message.contains(".to_vec()")));
}

#[test]
fn alloc_hot_path_accepts_workspace_scratch_and_justified_copies() {
    let s = scan(
        "crates/parprim/src/rank.rs",
        include_str!("fixtures/alloc_hot_path_clean.rs"),
    );
    assert_eq!(alloc_hot_path::check(&s), vec![]);
}

#[test]
fn alloc_hot_path_flags_hot_files_entries_naming_no_file() {
    let all: Vec<(&str, Vec<&str>)> = alloc_hot_path::HOT_FILES
        .iter()
        .map(|f| (*f, vec![]))
        .collect();
    assert_eq!(alloc_hot_path::check_entries(&tree(&all)), vec![]);
    let without_scan: Vec<_> = all
        .into_iter()
        .filter(|(f, _)| *f != "crates/parprim/src/scan.rs")
        .collect();
    let findings = alloc_hot_path::check_entries(&tree(&without_scan));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, alloc_hot_path::RULE);
    assert_eq!(findings[0].file, "crates/parprim/src/scan.rs");
    assert!(findings[0].message.contains("HOT_FILES"));
}

#[test]
fn alloc_hot_path_ignores_non_hot_modules() {
    let s = scan(
        "crates/bench/src/tables.rs",
        include_str!("fixtures/alloc_hot_path_bad.rs"),
    );
    assert_eq!(alloc_hot_path::check(&s), vec![]);
}

#[test]
fn facade_coverage_flags_missing_and_orphaned_twins() {
    let mut state = FacadeState::default();
    state.ingest(&scan(
        "crates/pram/src/api.rs",
        include_str!("fixtures/facade_bad.rs"),
    ));
    let findings = state.finish();
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("try_decompose")));
    assert!(findings.iter().any(|f| f.message.contains("`vanished`")));
}

#[test]
fn facade_coverage_accepts_paired_twins_across_result_types() {
    let mut state = FacadeState::default();
    state.ingest(&scan(
        "crates/pram/src/api.rs",
        include_str!("fixtures/facade_clean.rs"),
    ));
    assert_eq!(state.finish(), vec![]);
}

#[test]
fn bench_schema_flags_rows_without_trace() {
    let findings = bench_schema::check(
        "BENCH_parprim.json",
        include_str!("fixtures/bench_schema_bad.json"),
    );
    // A row with no trace at all, and one whose trace has no spans list.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("`untraced`")));
    assert!(findings.iter().any(|f| f.message.contains("`spanless`")));
    assert!(findings
        .iter()
        .all(|f| f.message.contains("missing the \"trace\" summary")));
}

#[test]
fn bench_schema_accepts_traced_rows() {
    let findings = bench_schema::check(
        "BENCH_parprim.json",
        include_str!("fixtures/bench_schema_clean.json"),
    );
    assert_eq!(findings, vec![]);
}

#[test]
fn facade_coverage_flags_handlers_without_result_returns() {
    let mut state = FacadeState::default();
    state.ingest(&scan(
        "crates/service/src/worker.rs",
        include_str!("fixtures/service_handler_bad.rs"),
    ));
    let findings = state.finish();
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`handle_partition`")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`handle_decompose`")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`handle_reset`")));
}

#[test]
fn facade_coverage_accepts_conforming_handlers() {
    let mut state = FacadeState::default();
    state.ingest(&scan(
        "crates/service/src/worker.rs",
        include_str!("fixtures/service_handler_clean.rs"),
    ));
    assert_eq!(state.finish(), vec![]);
}

#[test]
fn handler_rule_is_scoped_to_the_service_crate() {
    // The same non-conforming handlers in another facade crate are not the
    // service wire surface; only the `# Panics`-twin rule applies there.
    let mut state = FacadeState::default();
    state.ingest(&scan(
        "crates/core/src/worker.rs",
        include_str!("fixtures/service_handler_bad.rs"),
    ));
    assert_eq!(state.finish(), vec![]);
}

#[test]
fn unsafe_attr_covers_the_service_crate_root() {
    // The service crate is declared unsafe-free: a root without
    // `forbid(unsafe_code)` must be flagged.
    let findings = unsafe_hygiene::check_attr(&scan(
        "crates/service/src/lib.rs",
        include_str!("fixtures/unsafe_attr_bad.rs"),
    ));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("forbid(unsafe_code)"));
}
