//! Cross-crate determinism: `anonymize` sharded over any `cfg.workers`
//! must reproduce the serial run **byte for byte** (as released CSV),
//! for every model, on realistic synthetic data.

use traj_freq_dp::core::{anonymize, FreqDpConfig, Model};
use traj_freq_dp::model::csv::to_csv;
use traj_freq_dp::synth::{generate, GeneratorConfig};

#[test]
fn parallel_csv_is_byte_identical_to_serial() {
    let world = generate(&GeneratorConfig::tdrive_profile(30, 60, 17));
    let cfg = FreqDpConfig { m: 5, seed: 0xD1CE, ..Default::default() };
    for model in [Model::PureGlobal, Model::PureLocal, Model::Combined] {
        let serial_csv = to_csv(&anonymize(&world.dataset, model, &cfg).unwrap().dataset);
        for workers in [1usize, 2, 3, 8, 64] {
            let cfg = FreqDpConfig { workers, ..cfg };
            let parallel_csv = to_csv(&anonymize(&world.dataset, model, &cfg).unwrap().dataset);
            assert_eq!(
                parallel_csv, serial_csv,
                "{model:?} with {workers} workers must match serial byte-for-byte"
            );
        }
    }
}

#[test]
fn parallel_modification_is_byte_identical_for_combined_models() {
    // `cfg.workers` shards the perturbation, the global modification
    // phase (`GlobalEdit`), and the local phase; both full combined
    // pipelines must release the exact same bytes at every worker count.
    let world = generate(&GeneratorConfig::tdrive_profile(35, 70, 29));
    for model in [Model::Combined, Model::CombinedLocalFirst] {
        let base_cfg = FreqDpConfig { m: 6, seed: 0xBEEF, ..Default::default() };
        let serial_csv = to_csv(&anonymize(&world.dataset, model, &base_cfg).unwrap().dataset);
        for workers in [1usize, 2, 3, 8, 64] {
            let cfg = FreqDpConfig { workers, ..base_cfg };
            let pipeline_csv = to_csv(&anonymize(&world.dataset, model, &cfg).unwrap().dataset);
            assert_eq!(
                pipeline_csv, serial_csv,
                "{model:?}: pipeline with cfg.workers={workers} diverged"
            );
        }
    }
}

#[test]
fn parallel_modification_with_bbox_pruning_is_byte_identical() {
    let world = generate(&GeneratorConfig::tdrive_profile(25, 50, 31));
    let base_cfg = FreqDpConfig { m: 5, seed: 0xACE, bbox_pruning: true, ..Default::default() };
    let serial_csv =
        to_csv(&anonymize(&world.dataset, Model::Combined, &base_cfg).unwrap().dataset);
    for workers in [2usize, 3, 8, 64] {
        let cfg = FreqDpConfig { workers, ..base_cfg };
        let csv = to_csv(&anonymize(&world.dataset, Model::Combined, &cfg).unwrap().dataset);
        assert_eq!(csv, serial_csv, "bbox-pruned modification diverged at {workers} workers");
    }
}

/// 64-bit FNV-1a over the released bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

#[test]
fn release_bytes_match_golden_hashes() {
    // An independent reference for the byte-reproducibility contract:
    // the hashes were captured once and must not move at any worker
    // count. A change here changes every published release for a
    // fixed seed.
    let world = generate(&GeneratorConfig::tdrive_profile(6, 12, 5));
    let golden = [
        (Model::PureGlobal, 0xB9A5_3433_09FA_AD1F),
        (Model::PureLocal, 0x8F69_AD98_3846_CB17),
        (Model::Combined, 0xC00F_30F7_568C_EDD5),
        (Model::CombinedLocalFirst, 0xEE32_A352_DFE6_D7E9),
    ];
    for (model, expected) in golden {
        for workers in [1usize, 8] {
            let cfg = FreqDpConfig { m: 3, seed: 0x60_1D, workers, ..Default::default() };
            let csv = to_csv(&anonymize(&world.dataset, model, &cfg).unwrap().dataset);
            assert_eq!(
                fnv1a64(csv.as_bytes()),
                expected,
                "{model:?} at {workers} workers: release bytes moved"
            );
        }
    }
    // GL at the paper's settings (m = 10, ε = 1 split evenly) on a
    // dataset large enough that TF-decreasing victims hold several
    // occurrences of the deleted point, so the incremental deletion
    // path of the global modification phase is pinned too.
    let world = generate(&GeneratorConfig::tdrive_profile(40, 80, 11));
    for workers in [1usize, 8] {
        let cfg = FreqDpConfig {
            m: 10,
            eps_global: 0.5,
            eps_local: 0.5,
            seed: 0x60_1D,
            workers,
            ..Default::default()
        };
        let csv = to_csv(&anonymize(&world.dataset, Model::Combined, &cfg).unwrap().dataset);
        assert_eq!(
            fnv1a64(csv.as_bytes()),
            0xE9C7_8AE3_24A4_1AAA,
            "GL at publish scale, {workers} workers: release bytes moved"
        );
    }
}

#[test]
fn different_seeds_still_differ_in_parallel() {
    let world = generate(&GeneratorConfig::tdrive_profile(15, 40, 23));
    let cfg = |seed| FreqDpConfig { m: 4, seed, workers: 8, ..Default::default() };
    let a = anonymize(&world.dataset, Model::Combined, &cfg(1)).unwrap();
    let b = anonymize(&world.dataset, Model::Combined, &cfg(2)).unwrap();
    assert_ne!(to_csv(&a.dataset), to_csv(&b.dataset));
}
