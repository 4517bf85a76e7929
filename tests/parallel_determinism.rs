//! Cross-crate determinism: `anonymize` sharded over any `cfg.workers`
//! must reproduce the serial run **byte for byte** (as released CSV),
//! for every model, on realistic synthetic data.

use traj_freq_dp::core::{anonymize, FreqDpConfig, IndexKind, Model};
use traj_freq_dp::index::{SearchStats, Strategy};
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
    // `cfg.workers` shards the local phase around the serial global
    // mechanism; both full combined pipelines must release the exact
    // same bytes at every worker count.
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
    // Every fourth trajectory cut to one sample and every fourth emptied:
    // trajectories without a segment take TF increases by appending, and
    // both editors' append step is pinned for every model.
    let mut short = generate(&GeneratorConfig::tdrive_profile(40, 80, 11)).dataset;
    for (i, t) in short.trajectories.iter_mut().enumerate() {
        match i % 4 {
            1 => t.samples.truncate(1),
            3 => t.samples.clear(),
            _ => {}
        }
    }
    let golden = [
        (Model::PureGlobal, 0xF4BD_FBA5_88AD_8D82),
        (Model::PureLocal, 0xC1CA_364D_F685_772E),
        (Model::Combined, 0xACEA_C95F_DC6B_BCEC),
        (Model::CombinedLocalFirst, 0x183C_CF77_7D40_64D7),
    ];
    for (model, expected) in golden {
        for workers in [1usize, 8] {
            let cfg = FreqDpConfig { m: 10, seed: 0x60_1D, workers, ..Default::default() };
            let csv = to_csv(&anonymize(&short, model, &cfg).unwrap().dataset);
            assert_eq!(
                fnv1a64(csv.as_bytes()),
                expected,
                "{model:?} with short trajectories at {workers} workers: release bytes moved"
            );
        }
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

#[test]
fn release_bytes_and_search_work_match_goldens_for_every_hier_strategy() {
    // Local bytes depend on the index: the k-nearest insertions of the
    // local phase break distance ties in traversal order, so each
    // HierGrid strategy releases its own bytes. The hashes and GL's
    // search counters were captured once per strategy; a change to the
    // grid's layout must leave every traversal, and so all of them, as
    // they are, at every worker count. The global `segments_checked`
    // counts one distance per distinct segment geometry reached, since
    // the global editor indexes each geometry once.
    let world = generate(&GeneratorConfig::tdrive_profile(40, 80, 11));
    let stats = |cells_visited, segments_checked| SearchStats { cells_visited, segments_checked };
    let golden = [
        (
            IndexKind::Hier(512, Strategy::TopDown),
            0xD905_5A64_939F_245D,
            0xDD5E_CE3F_DCAF_32FA,
            stats(1837, 6327),
            stats(923, 19170),
        ),
        (
            IndexKind::Hier(512, Strategy::BottomUp),
            0xEC96_D226_3E84_0838,
            0x2A6F_9429_BDEA_557A,
            stats(2283, 6625),
            stats(1262, 19302),
        ),
        (
            IndexKind::Hier(64, Strategy::BottomUpDown),
            0x4F20_7ACC_B8DA_8F38,
            0xE9C7_8AE3_24A4_1AAA,
            stats(1871, 6489),
            stats(865, 19286),
        ),
        (
            IndexKind::default(),
            0x4F20_7ACC_B8DA_8F38,
            0xE9C7_8AE3_24A4_1AAA,
            stats(2135, 6477),
            stats(1254, 19278),
        ),
    ];
    for (index, pure_local, combined, local_work, global_work) in golden {
        for workers in [1usize, 8] {
            let cfg = FreqDpConfig { m: 10, seed: 0x60_1D, workers, index, ..Default::default() };
            for (model, expected) in [(Model::PureLocal, pure_local), (Model::Combined, combined)] {
                let out = anonymize(&world.dataset, model, &cfg).unwrap();
                assert_eq!(
                    fnv1a64(to_csv(&out.dataset).as_bytes()),
                    expected,
                    "{index:?} {model:?} at {workers} workers: release bytes moved"
                );
                if model == Model::Combined {
                    let (local, global) = (out.local.unwrap(), out.global.unwrap());
                    let at = format!("{index:?} at {workers} workers");
                    assert_eq!(local.search_stats, local_work, "{at}: GL local search work");
                    assert_eq!(global.search_stats, global_work, "{at}: GL global search work");
                }
            }
        }
    }
}
