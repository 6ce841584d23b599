//! Phase-tree profile of the decomposition pipeline, built on the
//! `sfcp_pram::trace` span recorder: every engine pass and pipeline phase
//! opens a span, so one traced run yields the full tree — wall/self time,
//! work/depth charges and workspace checkouts — with no hand-rolled timing
//! in the harness.
//!
//! Run: `cargo run --release --example profile_decompose [-- --trace out.json]`
//!
//! `--trace <path>` additionally writes the Chrome/Perfetto export of the
//! final warm run — load it at `ui.perfetto.dev` or `chrome://tracing`.

use sfcp_repro::sfcp_forest::cycles::CycleMethod;
use sfcp_repro::sfcp_pram::Ctx;

fn main() {
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(args.next().expect("--trace needs a path")),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let n = 1_000_000;
    let g = sfcp_repro::sfcp_forest::generators::random_function(n, 0xDECADE);
    let ctx = Ctx::parallel();
    // Warm the workspace pools untraced, so the profiled runs below show
    // the steady-state (pool-hit) shape rather than first-run allocations.
    let _ = sfcp_repro::sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
    ctx.reset_stats();
    ctx.trace().enable();

    for run in 0..2 {
        ctx.trace().clear();
        ctx.reset_stats();
        let d = sfcp_repro::sfcp_forest::decompose(&ctx, &g, CycleMethod::Euler);
        std::hint::black_box(d.num_cycles());
        let snap = ctx.trace().snapshot();
        println!("== warm decompose run {run} (n = {n}) ==");
        print!("{}", snap.render_tree());
        println!();
        if run == 1 {
            if let Some(path) = &trace_path {
                std::fs::write(path, snap.to_chrome_json()).expect("failed to write trace json");
                println!("wrote {path} (chrome://tracing / ui.perfetto.dev)");
            }
        }
    }
}
