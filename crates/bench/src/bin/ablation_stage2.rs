//! Ablation: the importance of **Stage 2** in the local mechanism
//! (§III-B3, "The Importance of Stage-2").
//!
//! Stage 1 alone shrinks trajectories (negative-mean noise only
//! removes); stage 2 re-inflates cardinality by raising the PF of the
//! second `m` points. This ablation quantifies the claim: cardinality
//! drift and INF with and without stage 2, across ε.
//!
//! ```text
//! cargo run -p trajdp_bench --release --bin ablation_stage2
//! ```

#![forbid(unsafe_code)]

use trajdp_bench::{env_param, standard_world};
use trajdp_core::local::LocalOptions;
use trajdp_core::{anonymize, FreqDpConfig, Model};
use trajdp_metrics::information_loss;

fn main() {
    let size = env_param("TRAJDP_SIZE", 150);
    let len = env_param("TRAJDP_LEN", 120);
    let seed = env_param("TRAJDP_SEED", 42) as u64;
    let world = standard_world(size, len, seed);
    let original_points = world.dataset.total_points() as f64;
    eprintln!("Stage-2 ablation: |D| = {size}, original points = {original_points}");

    println!("{:<6} {:<9} | {:>12} {:>10} {:>8}", "eps", "stage2", "points", "drift(%)", "INF");
    println!("{}", "-".repeat(52));
    for eps in [0.5, 1.0, 2.0] {
        for stage2 in [true, false] {
            let cfg = FreqDpConfig {
                m: 10,
                eps_local: eps,
                local_opts: LocalOptions { stage2, ..Default::default() },
                seed,
                ..Default::default()
            };
            let out = anonymize(&world.dataset, Model::PureLocal, &cfg).expect("valid config");
            let points = out.dataset.total_points() as f64;
            let drift = (points - original_points) / original_points * 100.0;
            let inf = information_loss(&world.dataset, &out.dataset);
            println!(
                "{:<6.1} {:<9} | {:>12.0} {:>10.2} {:>8.3}",
                eps,
                if stage2 { "on" } else { "off" },
                points,
                drift,
                inf
            );
        }
    }
    println!("\nExpected shape: stage2=off rows show a strictly larger cardinality drop.");
}
