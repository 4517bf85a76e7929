//! Regenerates **Figure 5**: modification efficiency.
//!
//! Left plot: total GL modification time across index variants
//! (Linear, UG, HGt, HGb, HG+) as the dataset size grows. The uniform
//! grid uses 64×64 cells — the same cell-size-to-sample-spacing ratio
//! the paper's 512×512 grid has over the full Beijing extent; the
//! hierarchical grid keeps a 512×512 finest level, since tolerating
//! over-fine leaves is exactly its advantage.
//! Right plot: time split between local (intra-) and global (inter-)
//! modification under the best index (HG+).
//! A third table gives each index variant's global search work: the
//! distances its TF increases computed, one per distinct segment
//! geometry a search reached (the global editor indexes each geometry
//! once, however many trajectories drive it).
//!
//! ```text
//! cargo run -p trajdp_bench --release --bin fig5
//! TRAJDP_SIZES="1000 2000 4000" cargo run -p trajdp_bench --release --bin fig5
//! ```

#![forbid(unsafe_code)]

use trajdp_bench::{env_param, standard_world};
use trajdp_core::{anonymize, FreqDpConfig, IndexKind, Model};
use trajdp_index::Strategy;

fn sizes_from_env() -> Vec<usize> {
    std::env::var("TRAJDP_SIZES")
        .ok()
        .map(|s| s.split_whitespace().filter_map(|v| v.parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![100, 200, 400, 600, 800, 1000])
}

fn main() {
    let len = env_param("TRAJDP_LEN", 100);
    let seed = env_param("TRAJDP_SEED", 42) as u64;
    let sizes = sizes_from_env();
    let kinds: [(&str, IndexKind); 5] = [
        ("Linear", IndexKind::Linear),
        ("UG", IndexKind::Uniform(64)),
        ("HGt", IndexKind::Hier(512, Strategy::TopDown)),
        ("HGb", IndexKind::Hier(512, Strategy::BottomUp)),
        ("HG+", IndexKind::Hier(512, Strategy::BottomUpDown)),
    ];
    eprintln!("Figure 5 reproduction: sizes {sizes:?}, |τ| = {len}, ε_G = ε_L = 0.5");

    println!("Left: total modification time (ms) per index variant");
    print!("{:<8}", "|D|");
    for (name, _) in &kinds {
        print!(" {name:>10}");
    }
    println!();
    let mut hgplus_split: Vec<(usize, f64, f64)> = Vec::new();
    let mut global_work: Vec<(usize, Vec<usize>)> = Vec::new();
    for &size in &sizes {
        let world = standard_world(size, len, seed);
        print!("{size:<8}");
        let mut distances = Vec::with_capacity(kinds.len());
        for (name, kind) in kinds {
            let cfg = FreqDpConfig { m: 10, index: kind, seed, ..Default::default() };
            let out = anonymize(&world.dataset, Model::Combined, &cfg).expect("valid config");
            let total = out.global_time + out.local_time;
            print!(" {:>10.1}", total.as_secs_f64() * 1e3);
            distances.push(out.global.as_ref().map_or(0, |g| g.search_stats.segments_checked));
            if name == "HG+" {
                hgplus_split.push((
                    size,
                    out.local_time.as_secs_f64() * 1e3,
                    out.global_time.as_secs_f64() * 1e3,
                ));
            }
        }
        println!();
        global_work.push((size, distances));
    }

    println!("\nRight: local vs global modification time under HG+ (ms)");
    println!("{:<8} {:>10} {:>10} {:>10}", "|D|", "Local", "Global", "Total");
    for (size, local, global) in hgplus_split {
        println!("{size:<8} {local:>10.1} {global:>10.1} {:>10.1}", local + global);
    }

    println!(
        "\nGlobal search work per index variant: distances computed, one per \
         distinct segment geometry a TF-increase search reached"
    );
    print!("{:<8}", "|D|");
    for (name, _) in &kinds {
        print!(" {name:>10}");
    }
    println!();
    for (size, distances) in global_work {
        print!("{size:<8}");
        for d in distances {
            print!(" {d:>10}");
        }
        println!();
    }
}
