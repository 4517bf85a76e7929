//! Microbenchmarks of the Laplace machinery: zero-mean vs shifted
//! sampling, and the full TF/PF perturbation passes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use trajdp_bench::standard_world;
use trajdp_core::freq::FrequencyAnalysis;
use trajdp_core::global::perturb_tf_shard;
use trajdp_core::local::{perturb_pf, select_point_list, LocalOptions};
use trajdp_mech::{Laplace, LaplaceMechanism};

fn bench_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("laplace-sampling");
    let zero = Laplace::new(0.0, 2.0).expect("valid");
    let shifted = Laplace::new(-7.0, 2.0).expect("valid");
    g.bench_function("zero-mean", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(zero.sample(&mut rng)))
    });
    g.bench_function("shifted-mean", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(shifted.sample(&mut rng)))
    });
    let mech = LaplaceMechanism::new(0.5, 1.0).expect("valid");
    g.bench_function("mechanism-randomize", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(mech.randomize(black_box(13.0), &mut rng)))
    });
    g.finish();
}

fn bench_perturbation(c: &mut Criterion) {
    let world = standard_world(50, 100, 7);
    let analysis = FrequencyAnalysis::compute(&world.dataset, 10);
    let mut g = c.benchmark_group("frequency-perturbation");
    g.bench_function("global-tf", |b| {
        let candidates = analysis.candidate_points();
        let mut seed = 3u64;
        b.iter(|| {
            seed += 1;
            black_box(perturb_tf_shard(&analysis, &candidates, 0, 0.5, seed).expect("valid"))
        })
    });
    g.bench_function("local-pf-per-trajectory", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let traj = &world.dataset.trajectories[0];
        let list = select_point_list(traj, &analysis, 0, &mut rng);
        b.iter(|| {
            black_box(
                perturb_pf(traj, &list, 10, 0.5, LocalOptions::default(), &mut rng).expect("valid"),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sampling, bench_perturbation);
criterion_main!(benches);
