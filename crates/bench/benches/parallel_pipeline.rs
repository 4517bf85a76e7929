//! The pipeline at 1/2/4/8 `cfg.workers` on the T-Drive synth profile.
//! Because the release is bit-identical at every worker count, any
//! spread between the bars is pure scheduling cost / parallel speedup —
//! the work is the same.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use trajdp_bench::standard_world;
use trajdp_core::freq::FrequencyAnalysis;
use trajdp_core::global::{perturb_tf_shard, realize_tf};
use trajdp_core::{anonymize, FreqDpConfig, IndexKind, Model};

fn bench_worker_sweep(c: &mut Criterion) {
    let world = standard_world(80, 120, 47);
    let mut group = c.benchmark_group("parallel_pipeline");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let cfg = FreqDpConfig { m: 10, workers, ..Default::default() };
        group.bench_with_input(BenchmarkId::new("sharded", workers), &cfg, |b, cfg| {
            b.iter(|| black_box(anonymize(&world.dataset, Model::Combined, cfg).expect("valid")))
        });
    }
    group.finish();
}

fn bench_phase_split(c: &mut Criterion) {
    // The local phase is embarrassingly parallel; the global phase
    // shards its perturbation and chunks its modification scans.
    // Benchmarked separately so regressions are attributable.
    let world = standard_world(80, 120, 47);
    let mut group = c.benchmark_group("parallel_phases");
    group.sample_size(10);
    for workers in [1usize, 8] {
        let cfg = FreqDpConfig { m: 10, workers, ..Default::default() };
        for (name, model) in [("local-only", Model::PureLocal), ("global-only", Model::PureGlobal)]
        {
            group.bench_with_input(BenchmarkId::new(name, workers), &cfg, |b, cfg| {
                b.iter(|| black_box(anonymize(&world.dataset, model, cfg).expect("valid")))
            });
        }
    }
    group.finish();
}

fn bench_global_modification(c: &mut Criterion) {
    // The dominant cost of the pipeline: `GlobalEdit` in isolation
    // (perturbation precomputed), at several worker counts. The output
    // is byte-identical across the bars; the spread is pure parallel
    // speedup of the modification phase.
    let world = standard_world(160, 130, 53);
    let fa = FrequencyAnalysis::compute(&world.dataset, 10);
    let perturbed = perturb_tf_shard(&fa, &fa.candidate_points(), 0, 0.4, 99)
        .expect("valid epsilon")
        .into_iter()
        .collect();
    let mut group = c.benchmark_group("global_modification");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("realize-tf", workers), &workers, |b, &w| {
            b.iter(|| {
                black_box(realize_tf(
                    &world.dataset,
                    &fa,
                    &perturbed,
                    IndexKind::default(),
                    true,
                    w,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_worker_sweep, bench_phase_split, bench_global_modification);
criterion_main!(benches);
