//! Cross-crate integration tests: the full public API exercised end to end,
//! with every algorithm cross-checked against every other and against the
//! verifier.

use sfcp::{coarsest_partition, Algorithm, Instance, Partition, ALL_ALGORITHMS};
use sfcp_forest::cycles::CycleMethod;
use sfcp_forest::generators;
use sfcp_pram::Ctx;

fn check_all_algorithms_agree(instance: &Instance) -> Partition {
    let ctx = Ctx::parallel();
    let reference = coarsest_partition(&ctx, instance, Algorithm::Naive);
    sfcp::verify::assert_valid(instance, &reference);
    for algorithm in ALL_ALGORITHMS {
        let ctx = Ctx::parallel();
        let q = coarsest_partition(&ctx, instance, algorithm);
        assert!(
            q.same_partition(&reference),
            "{algorithm:?} disagrees with the oracle on n = {}",
            instance.len()
        );
    }
    reference
}

#[test]
fn paper_worked_example_end_to_end() {
    let instance = Instance::paper_example();
    let q = check_all_algorithms_agree(&instance);
    let expected = Partition::new(generators::paper_example_expected_q());
    assert!(q.same_partition(&expected));
    assert_eq!(q.num_blocks(), 4);
}

#[test]
fn random_functional_graphs() {
    for (n, blocks, seed) in [
        (257usize, 2usize, 1u64),
        (1024, 4, 2),
        (4096, 8, 3),
        (9999, 3, 4),
    ] {
        let instance = Instance::random(n, blocks, seed);
        check_all_algorithms_agree(&instance);
    }
}

#[test]
fn cycles_only_instances() {
    for (lengths, blocks, seed) in [
        (vec![1usize; 64], 2usize, 1u64),
        (vec![2, 3, 5, 7, 11, 13, 17, 19], 2, 2),
        (vec![128; 16], 4, 3),
        (vec![1000, 1000, 1000], 3, 4),
    ] {
        let instance = Instance::random_cycles(&lengths, blocks, seed);
        check_all_algorithms_agree(&instance);
    }
}

#[test]
fn periodic_cycles_with_many_equivalent_cycles() {
    for (k, len, period) in [(16usize, 32usize, 8usize), (64, 16, 4), (8, 60, 6)] {
        let instance = Instance::periodic_cycles(k, len, period, 3, 11);
        check_all_algorithms_agree(&instance);
    }
}

#[test]
fn deep_path_instances() {
    for (n, cycle_len) in [(2000usize, 1usize), (2000, 7), (5000, 100)] {
        let instance = Instance::deep(n, cycle_len, 2, 5);
        check_all_algorithms_agree(&instance);
    }
}

#[test]
fn degenerate_instances() {
    // Identity function with distinct labels: everything is its own class.
    let n = 100;
    let instance = Instance::new((0..n).collect(), (0..n).collect());
    let q = check_all_algorithms_agree(&instance);
    assert_eq!(q.num_blocks(), n as usize);

    // Constant function, all labels equal: two classes at most (the fixed
    // point's behaviour differs from everyone else's only through B — here it
    // does not, so everything collapses... except distance matters only via
    // labels, which are all equal, so a single class).
    let instance = Instance::new(vec![0; 50], vec![0; 50]);
    let q = check_all_algorithms_agree(&instance);
    assert_eq!(q.num_blocks(), 1);

    // Constant function, the sink labelled differently: classes are the
    // distances to the sink (0 or 1 step → 2 tree levels), i.e. 2 blocks:
    // the sink and everything else... but everything else maps straight to
    // the sink, so exactly 2 classes.
    let mut blocks = vec![0u32; 50];
    blocks[0] = 1;
    let instance = Instance::new(vec![0; 50], blocks);
    let q = check_all_algorithms_agree(&instance);
    assert_eq!(q.num_blocks(), 2);
}

#[test]
fn partition_is_invariant_under_block_relabeling() {
    // Renaming the initial block labels must not change the partition.
    let instance = Instance::random(2048, 5, 17);
    let renamed = Instance::new(
        instance.f().to_vec(),
        instance.blocks().iter().map(|&b| b * 17 + 3).collect(),
    );
    let ctx = Ctx::parallel();
    let a = coarsest_partition(&ctx, &instance, Algorithm::Parallel);
    let b = coarsest_partition(&ctx, &renamed, Algorithm::Parallel);
    assert!(a.same_partition(&b));
}

#[test]
fn output_refines_input_blocks() {
    let instance = Instance::random(3000, 4, 23);
    let ctx = Ctx::parallel();
    let q = coarsest_partition(&ctx, &instance, Algorithm::Parallel);
    // Same Q-block ⇒ same B-block.
    for x in 0..instance.len() {
        for y in (x + 1)..(x + 50).min(instance.len()) {
            if q.label(x as u32) == q.label(y as u32) {
                assert_eq!(instance.blocks()[x], instance.blocks()[y]);
            }
        }
    }
}

/// The headline complexity shape of the paper, one row per solver input
/// family: run at n = 2^12 and n = 2^16, the work per element grows far
/// slower than linearly (`O(n · polyloglog)`-style, not `O(n²)` or worse),
/// and the rounds stay within a constant factor of `log n`.  The `decompose` rows cover step 1 (the Euler cycle finder of
/// Section 5) on its own.
#[test]
fn work_depth_accounting_shapes() {
    fn solve(ctx: &Ctx, inst: &Instance) {
        let _ = coarsest_partition(ctx, inst, Algorithm::Parallel);
    }
    fn decompose(ctx: &Ctx, g: &sfcp_forest::FunctionalGraph) {
        let _ = sfcp_forest::decompose(ctx, g, CycleMethod::Euler);
    }
    type Row = (&'static str, fn(&Ctx, usize));
    let rows: [Row; 5] = [
        ("coarsest_parallel on random(n, 4, 7)", |ctx, n| {
            solve(ctx, &Instance::random(n, 4, 7))
        }),
        ("coarsest_parallel on deep(n, 8, 4, 7)", |ctx, n| {
            solve(ctx, &Instance::deep(n, 8, 4, 7))
        }),
        (
            "coarsest_parallel on periodic_cycles(n / 256, 256, 16, 4, 7)",
            |ctx, n| solve(ctx, &Instance::periodic_cycles(n / 256, 256, 16, 4, 7)),
        ),
        ("decompose on random_function(n, 7)", |ctx, n| {
            decompose(ctx, &generators::random_function(n, 7))
        }),
        ("decompose on long_tail(n, 5, 7)", |ctx, n| {
            decompose(ctx, &generators::long_tail(n, 5, 7))
        }),
    ];
    let (small, large) = (1usize << 12, 1usize << 16);
    let log_n = (large as f64).log2();
    for (name, run) in rows {
        let stats = |n: usize| {
            let ctx = Ctx::parallel();
            run(&ctx, n);
            ctx.stats()
        };
        let (s, l) = (stats(small), stats(large));
        let growth = (l.work as f64 / large as f64) / (s.work as f64 / small as f64);
        assert!(
            growth < 1.6,
            "{name}: per-element work grew {growth:.3}× over a 16× size increase — not near-linear"
        );
        let rounds = l.rounds as f64;
        assert!(
            rounds < 60.0 * log_n,
            "{name}: depth {rounds} should stay within a constant factor of log n = {log_n:.1}"
        );
    }
}
