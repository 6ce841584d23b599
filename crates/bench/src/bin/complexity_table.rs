//! Regenerates the work/depth tables of `EXPERIMENTS.md` (experiments E1–E8,
//! E11): for every algorithm and a sweep of sizes, the measured operations
//! (work), parallel rounds (depth), the derived per-element and per-log
//! ratios, and wall-clock times in both execution modes.
//!
//! Run with: `cargo run -p sfcp-bench --bin complexity_table --release`

use sfcp::{coarsest_partition, Algorithm, Instance, ALL_ALGORITHMS};
use sfcp_bench::tables::{f3, ms, render};
use sfcp_bench::workloads;
use sfcp_pram::{Ctx, Mode};
use sfcp_strings::msp::{minimal_starting_point, MspMethod};
use sfcp_strings::string_sort::{sort_strings, StringSortMethod};
use std::time::Instant;

fn measure(instance: &Instance, algorithm: Algorithm) -> (sfcp_pram::Stats, f64, f64) {
    let ctx = Ctx::new(Mode::Parallel);
    let t = Instant::now();
    let q = coarsest_partition(&ctx, instance, algorithm);
    let par_time = t.elapsed().as_secs_f64() * 1e3;
    assert!(q.num_blocks() > 0 || instance.is_empty());
    let stats = ctx.stats();

    let ctx_seq = Ctx::untracked(Mode::Sequential);
    let t = Instant::now();
    let _ = coarsest_partition(&ctx_seq, instance, algorithm);
    let seq_time = t.elapsed().as_secs_f64() * 1e3;
    (stats, seq_time, par_time)
}

fn table_full_problem(
    title: &str,
    make: impl Fn(usize) -> Instance,
    sizes: &[usize],
    skip_naive_above: usize,
) {
    let header = [
        "n",
        "algorithm",
        "work",
        "rounds",
        "work/n",
        "rounds/log n",
        "t_seq(ms)",
        "t_par(ms)",
        "speedup",
    ];
    let mut rows = Vec::new();
    for &n in sizes {
        let instance = make(n);
        for algorithm in ALL_ALGORITHMS {
            if algorithm == Algorithm::Naive && n > skip_naive_above {
                continue;
            }
            let (stats, seq_time, par_time) = measure(&instance, algorithm);
            let log_n = (n.max(2) as f64).log2();
            rows.push(vec![
                n.to_string(),
                format!("{algorithm:?}"),
                stats.work.to_string(),
                stats.rounds.to_string(),
                f3(stats.work as f64 / n as f64),
                f3(stats.rounds as f64 / log_n),
                f3(seq_time),
                f3(par_time),
                f3(seq_time / par_time.max(1e-9)),
            ]);
        }
    }
    println!("{}\n", render(title, &header, &rows));
}

fn table_msp(sizes: &[usize]) {
    let header = ["n", "method", "work", "rounds", "work/n", "t_par(ms)"];
    let mut rows = Vec::new();
    for &n in sizes {
        let s = workloads::random_string(n, 8);
        for method in [
            MspMethod::Booth,
            MspMethod::Simple,
            MspMethod::Doubling,
            MspMethod::Efficient,
        ] {
            let ctx = Ctx::parallel();
            let t = Instant::now();
            let msp = minimal_starting_point(&ctx, &s, method);
            let elapsed = t.elapsed();
            assert!(msp < n);
            let stats = ctx.stats();
            rows.push(vec![
                n.to_string(),
                format!("{method:?}"),
                stats.work.to_string(),
                stats.rounds.to_string(),
                f3(stats.work as f64 / n as f64),
                ms(elapsed),
            ]);
        }
    }
    println!(
        "{}\n",
        render(
            "T4 (E4): minimal starting point of a circular string",
            &header,
            &rows
        )
    );
}

fn table_string_sort(sizes: &[usize]) {
    let header = [
        "total n",
        "#strings",
        "method",
        "work",
        "rounds",
        "work/n",
        "t_par(ms)",
    ];
    let mut rows = Vec::new();
    for &n in sizes {
        let strings = workloads::string_list(n);
        let total: usize = strings.iter().map(Vec::len).sum();
        for method in [StringSortMethod::Comparison, StringSortMethod::Contraction] {
            let ctx = Ctx::parallel();
            let t = Instant::now();
            let order = sort_strings(&ctx, &strings, method);
            let elapsed = t.elapsed();
            assert_eq!(order.len(), strings.len());
            let stats = ctx.stats();
            rows.push(vec![
                total.to_string(),
                strings.len().to_string(),
                format!("{method:?}"),
                stats.work.to_string(),
                stats.rounds.to_string(),
                f3(stats.work as f64 / total.max(1) as f64),
                ms(elapsed),
            ]);
        }
    }
    println!(
        "{}\n",
        render("T5 (E5): sorting variable-length strings", &header, &rows)
    );
}

fn table_tree_ablation(sizes: &[usize]) {
    use sfcp::parallel::{coarsest_parallel_with, ParallelConfig, TreeLabelMethod};
    let header = ["n", "tree method", "work", "rounds", "t_par(ms)"];
    let mut rows = Vec::new();
    for &n in sizes {
        let instance = workloads::deep_instance(n);
        for method in [TreeLabelMethod::Doubling, TreeLabelMethod::Levelwise] {
            let config = ParallelConfig {
                tree_method: method,
                ..ParallelConfig::default()
            };
            let ctx = Ctx::parallel();
            let t = Instant::now();
            let q = coarsest_parallel_with(&ctx, &instance, config);
            let elapsed = t.elapsed();
            assert!(q.num_blocks() > 0);
            let stats = ctx.stats();
            rows.push(vec![
                n.to_string(),
                format!("{method:?}"),
                stats.work.to_string(),
                stats.rounds.to_string(),
                ms(elapsed),
            ]);
        }
    }
    println!(
        "{}\n",
        render(
            "T7 (E7): tree labelling ablation on deep path instances",
            &header,
            &rows
        )
    );
}

fn table_find_cycles(sizes: &[usize]) {
    use sfcp_forest::cycles::{cycle_nodes, CycleMethod};
    let header = ["n", "method", "work", "rounds", "t_par(ms)"];
    let mut rows = Vec::new();
    for &n in sizes {
        let g = sfcp_forest::generators::random_function(n, 77);
        for method in [
            CycleMethod::Sequential,
            CycleMethod::Jump,
            CycleMethod::Euler,
        ] {
            let ctx = Ctx::parallel();
            let t = Instant::now();
            let marks = cycle_nodes(&ctx, &g, method);
            let elapsed = t.elapsed();
            assert_eq!(marks.len(), n);
            let stats = ctx.stats();
            rows.push(vec![
                n.to_string(),
                format!("{method:?}"),
                stats.work.to_string(),
                stats.rounds.to_string(),
                ms(elapsed),
            ]);
        }
    }
    println!(
        "{}\n",
        render("T8 (E8): cycle-node detection", &header, &rows)
    );
}

fn table_primitives(sizes: &[usize]) {
    let header = ["n", "primitive", "work", "rounds", "work/n"];
    let mut rows = Vec::new();
    for &n in sizes {
        let values: Vec<u64> = (0..n as u64)
            .map(|i| (i * 2_654_435_761) % 1_000_003)
            .collect();
        {
            let ctx = Ctx::parallel();
            let _ = sfcp_parprim::scan::inclusive_scan(&ctx, &values);
            let s = ctx.stats();
            rows.push(vec![
                n.to_string(),
                "prefix sums".into(),
                s.work.to_string(),
                s.rounds.to_string(),
                f3(s.work as f64 / n as f64),
            ]);
        }
        {
            let ctx = Ctx::parallel();
            let _ = sfcp_parprim::intsort::radix_sort_u64(&ctx, &values);
            let s = ctx.stats();
            rows.push(vec![
                n.to_string(),
                "integer sort".into(),
                s.work.to_string(),
                s.rounds.to_string(),
                f3(s.work as f64 / n as f64),
            ]);
        }
        {
            let ctx = Ctx::parallel();
            let mut data = values.clone();
            sfcp_parprim::merge::parallel_merge_sort(&ctx, &mut data);
            let s = ctx.stats();
            rows.push(vec![
                n.to_string(),
                "comparison sort".into(),
                s.work.to_string(),
                s.rounds.to_string(),
                f3(s.work as f64 / n as f64),
            ]);
        }
        {
            // A single list spanning all elements.
            let mut next: Vec<u32> = (1..=n as u32).collect();
            next[n - 1] = (n - 1) as u32;
            let ctx = Ctx::parallel();
            let _ = sfcp_parprim::listrank::list_rank(&ctx, &next);
            let s = ctx.stats();
            rows.push(vec![
                n.to_string(),
                "list ranking (ruling set)".into(),
                s.work.to_string(),
                s.rounds.to_string(),
                f3(s.work as f64 / n as f64),
            ]);
        }
        {
            let mut next: Vec<u32> = (1..=n as u32).collect();
            next[n - 1] = (n - 1) as u32;
            let ctx = Ctx::parallel();
            let _ = sfcp_parprim::listrank::list_rank_wyllie(&ctx, &next);
            let s = ctx.stats();
            rows.push(vec![
                n.to_string(),
                "list ranking (Wyllie)".into(),
                s.work.to_string(),
                s.rounds.to_string(),
                f3(s.work as f64 / n as f64),
            ]);
        }
    }
    println!(
        "{}\n",
        render("T10 (E11): parallel primitives", &header, &rows)
    );
}

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .nth(1)
        .map(|a| {
            a.split(',')
                .map(|x| {
                    x.trim()
                        .parse()
                        .expect("size list: comma-separated integers")
                })
                .collect()
        })
        .unwrap_or_else(|| vec![1 << 12, 1 << 14, 1 << 16, 1 << 18]);

    println!("single function coarsest partition — complexity tables (sizes {sizes:?})\n");
    table_full_problem(
        "T1/T2 (E1, E2): full problem on random functional graphs",
        workloads::random_instance,
        &sizes,
        1 << 16,
    );
    table_full_problem(
        "T3 (E3): full problem on cycles-only inputs (periodic labels)",
        workloads::cycles_instance,
        &sizes,
        1 << 16,
    );
    table_msp(&sizes);
    table_string_sort(&sizes);
    let cycle_sizes: Vec<usize> = sizes.iter().map(|&n| n.min(1 << 16)).collect();
    table_tree_ablation(&cycle_sizes);
    table_find_cycles(&sizes);
    table_primitives(&sizes);
}
