//! Ablation: the **trajectory-bbox branch-and-bound** optimization for
//! global (inter-trajectory) modification — the improvement §V-C of the
//! paper explicitly leaves as future work ("early pruning unpromising
//! trajectories based on their bounding box").
//!
//! Compares wall time and segment-distance work of the global phase
//! with the segment-index search vs the bbox branch-and-bound, as the
//! dataset grows. Outputs are identical by construction, and the bin
//! asserts it: it panics (exit code 101) when the two searches release
//! different datasets, so a small run is a CI gate on the bbox path. The
//! last row runs a dataset in which every fourth trajectory has one
//! sample and every fourth is empty.
//!
//! ```text
//! cargo run -p trajdp_bench --release --bin ablation_bboxprune
//! TRAJDP_LEN=20 cargo run -p trajdp_bench --release --bin ablation_bboxprune
//! ```

#![forbid(unsafe_code)]

use trajdp_bench::{env_param, standard_world};
use trajdp_core::{anonymize, FreqDpConfig, Model};
use trajdp_model::Dataset;

/// Runs PureG on `ds` with the index search and with the bbox search,
/// prints one row, and panics when the two release different datasets.
fn compare(label: &str, ds: &Dataset, seed: u64) {
    let run = |bbox: bool| {
        let cfg = FreqDpConfig { m: 10, bbox_pruning: bbox, seed, ..Default::default() };
        let out = anonymize(ds, Model::PureGlobal, &cfg).expect("valid config");
        let work = out.global.as_ref().expect("global ran").search_stats.segments_checked;
        (out.global_time.as_secs_f64() * 1e3, work, out.dataset)
    };
    let (t_index, w_index, index_release) = run(false);
    let (t_bbox, w_bbox, bbox_release) = run(true);
    assert!(
        index_release == bbox_release,
        "{label}: the bbox search released a different dataset than the index search"
    );
    println!(
        "{label:<10} {t_index:>12.1} {t_bbox:>14.1} {:>9.2}x | {w_index:>16} {w_bbox:>16}",
        t_index / t_bbox.max(1e-9)
    );
}

fn main() {
    let len = env_param("TRAJDP_LEN", 100);
    let seed = env_param("TRAJDP_SEED", 42) as u64;
    println!(
        "{:<10} {:>12} {:>14} {:>10} | {:>16} {:>16}",
        "|D|", "index (ms)", "bbox (ms)", "speedup", "seg-dists index", "seg-dists bbox"
    );
    println!("{}", "-".repeat(88));
    for size in [100usize, 200, 400, 800] {
        compare(&size.to_string(), &standard_world(size, len, seed).dataset, seed);
    }
    // A trajectory with fewer than two samples has no segment: both
    // searches must rank it after every trajectory that has one.
    let mut short = standard_world(100, len, seed).dataset;
    for (i, t) in short.trajectories.iter_mut().enumerate() {
        match i % 4 {
            1 => t.samples.truncate(1),
            3 => t.samples.clear(),
            _ => {}
        }
    }
    compare("100 short", &short, seed);
    println!("\nNote: both searches produce identical modifications. On the compact");
    println!("synthetic city, trajectory bounding boxes overlap heavily, so the bound");
    println!("rarely prunes whole trajectories and the index-based search stays ahead —");
    println!("an honest negative result for the paper's future-work idea at this scale;");
    println!("the bound can only pay off when trajectories are spatially localized.");
}
