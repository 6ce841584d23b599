//! Acceptance tests for the `sfcp_pram::trace` observability layer
//! (DESIGN.md §12): a traced warm decompose must emit a phase tree that
//! covers every engine pass and a valid Chrome/Perfetto `trace.json`; the
//! end-to-end algorithm must additionally show its labelling phases and
//! doubling rounds.
//!
//! The fault layer's pass counter is process-global, so the cross-check
//! against it lives in this dedicated binary (like `fault_injection.rs`).

use sfcp_repro::sfcp::{coarsest_partition, Algorithm, Instance};
use sfcp_repro::sfcp_forest::cycles::CycleMethod;
use sfcp_repro::sfcp_forest::{decompose, generators};
use sfcp_repro::sfcp_pram::{faults, Ctx};

fn warm_size() -> usize {
    // The issue-spec acceptance size runs under the optimized CI sweep;
    // tier-1 `cargo test -q` is unoptimized and uses a smaller instance
    // (the span structure under test is size-independent past the
    // parallel thresholds).
    if cfg!(debug_assertions) {
        100_000
    } else {
        1_000_000
    }
}

/// A traced context with warm pools: one untraced decompose to fill the
/// workspace, then tracing enabled on a clean recorder/tracker.
fn warm_traced_ctx(g: &sfcp_repro::sfcp_forest::FunctionalGraph) -> Ctx {
    let ctx = Ctx::parallel();
    let _ = decompose(&ctx, g, CycleMethod::Euler);
    ctx.reset_stats();
    ctx.trace().enable();
    ctx
}

#[test]
fn traced_warm_decompose_covers_every_engine_pass() {
    let n = warm_size();
    let g = generators::random_function(n, 0xACE5);
    let ctx = warm_traced_ctx(&g);

    // Count the injection points of one warm run: `on_engine_pass` fires
    // once per engine pass, and the trace-span lint guarantees each firing
    // function opens a span — so the recorded span count must dominate the
    // pass count, or a pass executed outside the phase tree.
    faults::start_counting();
    let d = decompose(&ctx, &g, CycleMethod::Euler);
    let (_, passes) = faults::counts();
    faults::reset();
    std::hint::black_box(d.num_cycles());

    let snap = ctx.trace().snapshot();
    assert!(passes > 0, "the fault hook must see the warm run");
    assert!(
        snap.spans.len() as u64 >= passes,
        "phase tree misses engine passes: {} spans < {passes} passes",
        snap.spans.len()
    );
    assert_eq!(snap.dropped_spans, 0, "ring evicted spans at warm size");
    assert_eq!(snap.open_discarded, 0);

    // The pipeline's phases, root to leaves.
    for phase in [
        "decompose",
        "cycle_nodes",
        "cycle_nodes_euler",
        "build_csr",
        "cycle_structure",
        "fused_successors",
        "tree_structure",
        "arc_successors",
        "find_roots",
        "list_rank_flagged",
        "euler_from_ranks",
        "cycle_csr",
        "levels",
        "propagate_cycle_of",
    ] {
        assert!(
            !snap.spans_named(phase).is_empty(),
            "phase `{phase}` missing from the tree: {:?}",
            snap.spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }

    // Exactly one pipeline root, carrying the whole run's charge delta.
    let roots = snap.spans_named("decompose");
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].parent, None);
    assert_eq!(roots[0].charge, ctx.stats());
    assert!(roots[0].wall_ns > 0);

    // The rendered report contains the tree.
    assert!(snap.render_tree().contains("decompose"));
}

#[test]
fn traced_coarsest_parallel_shows_labelling_phases_and_rounds() {
    let inst = Instance::random(20_000, 4, 9);
    let ctx = Ctx::parallel().with_tracing();
    let q = coarsest_partition(&ctx, &inst, Algorithm::Parallel);
    std::hint::black_box(q.num_blocks());

    let snap = ctx.trace().snapshot();
    for phase in ["coarsest_parallel", "label_cycle_nodes", "decompose"] {
        assert!(
            !snap.spans_named(phase).is_empty(),
            "phase `{phase}` missing: {:?}",
            snap.spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }
    // The deep-tree instance exercises the doubling loop; each round span
    // carries its round index attribute.
    let deep = Instance::deep(5_000, 5, 2, 4);
    ctx.trace().clear();
    ctx.reset_stats();
    let q = coarsest_partition(&ctx, &deep, Algorithm::Parallel);
    std::hint::black_box(q.num_blocks());
    let snap = ctx.trace().snapshot();
    let rounds = snap.spans_named("doubling_round");
    assert!(!rounds.is_empty(), "no doubling rounds recorded");
    for (i, r) in rounds.iter().enumerate() {
        assert_eq!(
            r.attrs.iter().find(|(k, _)| *k == "round").map(|&(_, v)| v),
            Some(i as u64),
            "round attribute mismatch: {r:?}"
        );
    }
}

#[test]
fn chrome_export_and_summary_are_valid_json() {
    let g = generators::random_function(50_000, 0xACE5);
    let ctx = warm_traced_ctx(&g);
    let d = decompose(&ctx, &g, CycleMethod::Euler);
    std::hint::black_box(d.num_cycles());
    let snap = ctx.trace().snapshot();

    let chrome = snap.to_chrome_json();
    assert_valid_json(&chrome);
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"displayTimeUnit\""));
    // Complete events for the spans.
    assert!(chrome.contains("\"ph\":\"X\""));
    assert!(chrome.contains("\"decompose\""));

    let summary = snap.summary().to_json();
    assert_valid_json(&summary);
    assert!(summary.contains("\"spans\""));
}

/// Minimal recursive-descent JSON validator (no JSON dependency in-tree):
/// accepts exactly the RFC 8259 grammar the exporters emit and panics on
/// the first syntax error.
fn assert_valid_json(s: &str) {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn peek(&self) -> u8 {
            assert!(self.i < self.b.len(), "unexpected end of JSON");
            self.b[self.i]
        }
        fn eat(&mut self, c: u8) {
            assert_eq!(
                self.peek(),
                c,
                "expected {:?} at byte {}",
                c as char,
                self.i
            );
            self.i += 1;
        }
        fn value(&mut self) {
            self.ws();
            match self.peek() {
                b'{' => {
                    self.eat(b'{');
                    self.ws();
                    if self.peek() != b'}' {
                        loop {
                            self.ws();
                            self.string();
                            self.ws();
                            self.eat(b':');
                            self.value();
                            self.ws();
                            if self.peek() == b',' {
                                self.eat(b',');
                            } else {
                                break;
                            }
                        }
                    }
                    self.ws();
                    self.eat(b'}');
                }
                b'[' => {
                    self.eat(b'[');
                    self.ws();
                    if self.peek() != b']' {
                        loop {
                            self.value();
                            self.ws();
                            if self.peek() == b',' {
                                self.eat(b',');
                            } else {
                                break;
                            }
                        }
                    }
                    self.ws();
                    self.eat(b']');
                }
                b'"' => self.string(),
                b't' => self.lit("true"),
                b'f' => self.lit("false"),
                b'n' => self.lit("null"),
                _ => self.number(),
            }
        }
        fn lit(&mut self, lit: &str) {
            assert!(
                self.b[self.i..].starts_with(lit.as_bytes()),
                "bad literal at byte {}",
                self.i
            );
            self.i += lit.len();
        }
        fn string(&mut self) {
            self.eat(b'"');
            while self.peek() != b'"' {
                if self.peek() == b'\\' {
                    self.i += 1;
                    match self.peek() {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => self.i += 1,
                        b'u' => {
                            for _ in 0..5 {
                                self.i += 1;
                            }
                        }
                        c => panic!("bad escape {:?} at byte {}", c as char, self.i),
                    }
                } else {
                    assert!(self.peek() >= 0x20, "raw control char at byte {}", self.i);
                    self.i += 1;
                }
            }
            self.eat(b'"');
        }
        fn number(&mut self) {
            let start = self.i;
            if self.peek() == b'-' {
                self.i += 1;
            }
            while self.i < self.b.len()
                && matches!(
                    self.b[self.i],
                    b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
                )
            {
                self.i += 1;
            }
            let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
            assert!(
                text.parse::<f64>().is_ok(),
                "bad number {text:?} at byte {start}"
            );
        }
    }
    let mut p = P {
        b: s.as_bytes(),
        i: 0,
    };
    p.value();
    p.ws();
    assert_eq!(p.i, s.len(), "trailing bytes after JSON value");
}
