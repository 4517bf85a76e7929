//! Ablation: the **budget split** ε_G : ε_L of the combined GL model.
//!
//! The paper fixes an even split (ε_G = ε_L = ε/2). This ablation sweeps
//! the ratio at fixed total ε = 1.0 and reports the privacy/utility
//! frontier, justifying (or challenging) the 50/50 choice.
//!
//! ```text
//! cargo run -p trajdp_bench --release --bin ablation_split
//! ```

#![forbid(unsafe_code)]

use trajdp_attacks::{LinkingAttack, SignatureType};
use trajdp_bench::{env_param, standard_world};
use trajdp_core::{anonymize, FreqDpConfig, Model};
use trajdp_metrics::{frequent_pattern_f1, information_loss};

fn main() {
    let size = env_param("TRAJDP_SIZE", 150);
    let len = env_param("TRAJDP_LEN", 120);
    let seed = env_param("TRAJDP_SEED", 42) as u64;
    let total = 1.0;
    let world = standard_world(size, len, seed);
    eprintln!("Budget-split ablation: |D| = {size}, total ε = {total}");

    println!("{:<14} | {:>8} {:>8} {:>8}", "eps_G : eps_L", "LAs", "INF", "FFP");
    println!("{}", "-".repeat(46));
    for g_share in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let cfg = FreqDpConfig {
            m: 10,
            eps_global: total * g_share,
            eps_local: total * (1.0 - g_share),
            seed,
            ..Default::default()
        };
        let out = anonymize(&world.dataset, Model::Combined, &cfg).expect("valid config");
        let la = LinkingAttack::new(SignatureType::Spatial)
            .linking_accuracy(&world.dataset, &out.dataset);
        let inf = information_loss(&world.dataset, &out.dataset);
        let ffp = frequent_pattern_f1(&world.dataset, &out.dataset, 64, 2, 200);
        println!(
            "{:<14} | {:>8.3} {:>8.3} {:>8.3}",
            format!("{:.2} : {:.2}", total * g_share, total * (1.0 - g_share)),
            la,
            inf,
            ffp
        );
    }
    println!("\nNote: smaller ε means more noise, so a small ε_L share strengthens the local");
    println!("mechanism. The paper's 50/50 split balances both attack surfaces.");
}
