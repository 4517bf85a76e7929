//! Regenerates **Figure 4**: impact of the privacy budget ε on the three
//! frequency-based models (PureG, PureL, GL), |D| = 1000.
//!
//! Eight series per model, matching subplots (a)–(h): LAs, INF, DE, TE,
//! FFP, route-based F-score, route-based RMF, point-based accuracy.
//!
//! ```text
//! cargo run -p trajdp_bench --release --bin fig4
//! TRAJDP_SIZE=1000 cargo run -p trajdp_bench --release --bin fig4
//! ```

#![forbid(unsafe_code)]

use trajdp_bench::{env_param, evaluate, standard_world, timed, EvalOptions};
use trajdp_core::{anonymize, FreqDpConfig, Model};

fn main() {
    let size = env_param("TRAJDP_SIZE", 200);
    let len = env_param("TRAJDP_LEN", 120);
    let seed = env_param("TRAJDP_SEED", 42) as u64;
    let epsilons = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0];
    let models =
        [("PureG", Model::PureGlobal), ("PureL", Model::PureLocal), ("GL", Model::Combined)];
    eprintln!("Figure 4 reproduction: |D| = {size}, ε ∈ {epsilons:?}");
    let world = standard_world(size, len, seed);

    println!(
        "{:<7} {:>5} | {:>6} {:>6} {:>6} {:>6} {:>6} {:>7} {:>6} {:>6}",
        "model", "eps", "LAs", "INF", "DE", "TE", "FFP", "F-score", "RMF", "Acc"
    );
    println!("{}", "-".repeat(78));
    for (name, model) in models {
        for eps in epsilons {
            // Even budget split for GL, full budget for the pure models
            // (the paper plots every model against the total ε).
            let (eps_g, eps_l) = match model {
                Model::PureGlobal => (eps, eps),
                Model::PureLocal => (eps, eps),
                _ => (eps / 2.0, eps / 2.0),
            };
            let cfg = FreqDpConfig {
                m: 10,
                eps_global: eps_g,
                eps_local: eps_l,
                seed,
                ..Default::default()
            };
            let (out, t) = timed(|| anonymize(&world.dataset, model, &cfg).expect("valid config"));
            let row = evaluate(name, &world, &out.dataset, t, EvalOptions::default());
            let rec = row.recovery.expect("recovery enabled");
            println!(
                "{:<7} {:>5.1} | {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>7.3} {:>6.3} {:>6.3}",
                name,
                eps,
                row.la_s,
                row.inf,
                row.de,
                row.te,
                row.ffp,
                rec.f_score,
                rec.rmf,
                rec.accuracy
            );
        }
        println!();
    }
}
