//! Regenerates **Table II**: effectiveness of all fourteen methods
//! (|D| = 1000, ε = 1.0, m = 10, k = 5, l = 3).
//!
//! ```text
//! cargo run -p trajdp_bench --release --bin table2
//! TRAJDP_SIZE=1000 TRAJDP_LEN=200 cargo run -p trajdp_bench --release --bin table2
//! ```
//!
//! The default size is reduced so the full table finishes in minutes on
//! a laptop; set `TRAJDP_SIZE=1000` for the paper-scale run. Absolute
//! numbers differ from the paper (synthetic data, Rust reimplementation)
//! but the method ordering — who wins on which axis — is the
//! reproduction target (see EXPERIMENTS.md).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use trajdp_baselines::{
    adatrace, dpt, glove, klt, rsc, sc, w4m, AdaTraceConfig, DptConfig, GloveConfig, KltConfig,
    W4mConfig,
};
use trajdp_bench::{env_param, evaluate, print_table, standard_world, timed, EvalOptions, EvalRow};
use trajdp_core::{anonymize, FreqDpConfig, Model};
use trajdp_model::Dataset;

fn main() {
    let size = env_param("TRAJDP_SIZE", 300);
    let len = env_param("TRAJDP_LEN", 120);
    let m = env_param("TRAJDP_M", 10);
    let seed = env_param("TRAJDP_SEED", 42) as u64;
    eprintln!("Table II reproduction: |D| = {size}, |τ| = {len}, m = {m}, ε = 1.0");
    eprintln!("generating synthetic T-Drive world...");
    let world = standard_world(size, len, seed);
    let ds = &world.dataset;

    let mut rows: Vec<EvalRow> = Vec::new();
    let mut eval = |name: &str, anon: Dataset, time: Duration, generative: bool| {
        eprintln!("evaluating {name}...");
        rows.push(evaluate(
            name,
            &world,
            &anon,
            time,
            EvalOptions { generative, ..Default::default() },
        ));
    };

    // Signature-closure family.
    let (out, t) = timed(|| sc(ds, m));
    eval("SC", out, t, false);
    for alpha_m in [100.0, 500.0, 1000.0, 3000.0, 5000.0] {
        let (out, t) = timed(|| rsc(ds, m, alpha_m));
        eval(&format!("RSC-{}", alpha_m / 1000.0), out, t, false);
    }

    // k-anonymity family.
    let (out, t) = timed(|| w4m(ds, &W4mConfig { k: 5, delta: 300.0 }));
    eval("W4M", out, t, false);
    let (out, t) = timed(|| glove(ds, &GloveConfig { k: 5 }));
    eval("GLOVE", out, t, false);
    let (out, t) = timed(|| klt(ds, &KltConfig { k: 5, l: 3, ..Default::default() }));
    eval("KLT", out, t, false);

    // Generative DP family.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD9);
    let (out, t) = timed(|| {
        dpt(ds, &DptConfig { epsilon: 1.0, synthetic_len: len, ..Default::default() }, &mut rng)
    });
    eval("DPT", out, t, true);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAD);
    let (out, t) =
        timed(|| adatrace(ds, &AdaTraceConfig { epsilon: 1.0, ..Default::default() }, &mut rng));
    eval("AdaTrace", out, t, true);

    // Frequency-based randomized DP models (this paper).
    let cfg = FreqDpConfig { m, eps_global: 0.5, eps_local: 0.5, seed, ..Default::default() };
    let (out, t) = timed(|| anonymize(ds, Model::PureGlobal, &cfg).expect("valid config"));
    eval("PureG", out.dataset, t, false);
    let (out, t) = timed(|| anonymize(ds, Model::PureLocal, &cfg).expect("valid config"));
    eval("PureL", out.dataset, t, false);
    let (out, t) = timed(|| anonymize(ds, Model::Combined, &cfg).expect("valid config"));
    eval("GL", out.dataset, t, false);

    println!("\nTable II (reproduction) — |D| = {size}, ε = 1.0");
    print_table(&rows);
}
