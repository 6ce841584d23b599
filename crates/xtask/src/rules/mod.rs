//! The sfcp-lint rule set, one module per rule (rule ids are each module's
//! `RULE` constant; the escape hatch is `lint:allow(<rule>): justification`).

pub mod alloc_hot_path;
pub mod bench_schema;
pub mod charge_taint;
pub mod facade_coverage;
pub mod unsafe_hygiene;
pub mod workspace_pairing;
