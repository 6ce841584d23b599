//! Experiment E11 (table T10): the parallel primitives the algorithm is built
//! from — prefix sums, integer sorting vs comparison sorting, list ranking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfcp_pram::{Ctx, Mode};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    for &n in &[1usize << 16, 1 << 19] {
        let values: Vec<u64> = (0..n as u64)
            .map(|i| (i * 2_654_435_761) % 1_000_003)
            .collect();
        group.bench_with_input(BenchmarkId::new("prefix_sums", n), &values, |b, v| {
            b.iter(|| {
                let ctx = Ctx::untracked(Mode::Parallel);
                sfcp_parprim::scan::inclusive_scan(&ctx, v)
            })
        });
        group.bench_with_input(BenchmarkId::new("radix_sort", n), &values, |b, v| {
            b.iter(|| {
                let ctx = Ctx::untracked(Mode::Parallel);
                sfcp_parprim::intsort::radix_sort_u64(&ctx, v)
            })
        });
        group.bench_with_input(BenchmarkId::new("merge_sort", n), &values, |b, v| {
            b.iter(|| {
                let ctx = Ctx::untracked(Mode::Parallel);
                let mut data = v.clone();
                sfcp_parprim::merge::parallel_merge_sort(&ctx, &mut data);
                data
            })
        });
        let mut next: Vec<u32> = (1..=n as u32).collect();
        next[n - 1] = (n - 1) as u32;
        group.bench_with_input(BenchmarkId::new("list_rank", n), &next, |b, v| {
            b.iter(|| {
                let ctx = Ctx::untracked(Mode::Parallel);
                sfcp_parprim::listrank::list_rank(&ctx, v)
            })
        });
        group.bench_with_input(BenchmarkId::new("list_rank_wyllie", n), &next, |b, v| {
            b.iter(|| {
                let ctx = Ctx::untracked(Mode::Parallel);
                sfcp_parprim::listrank::list_rank_wyllie(&ctx, v)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench
}
criterion_main!(benches);
