//! Complexity gate on exact work counters, after Goldsmith, Aiken &
//! Wilkerson, "Measuring Empirical Computational Complexity" (ESEC/FSE
//! 2007): each model runs on `tdrive_profile(n, 80, s)` and on 8n
//! trajectories, and the search work per edit of every phase it runs and
//! the edits per input sample must grow far slower than the input. The
//! counters are
//! exact, so the bounds need no timing slack and cannot flake on a
//! noisy host.

use traj_freq_dp::core::{anonymize, FreqDpConfig, Model};
use traj_freq_dp::synth::{generate, GeneratorConfig};

/// Work counters of one run, as rates.
struct Rates {
    /// Global segment distances per global edit, if the model runs the
    /// global phase.
    global_per_edit: Option<f64>,
    /// Local segment distances per local edit, if the model runs the
    /// local phase.
    local_per_edit: Option<f64>,
    /// Edits of both phases per input sample.
    edits_per_sample: f64,
}

fn rates(model: Model, n: usize, seed: u64) -> Rates {
    let world = generate(&GeneratorConfig::tdrive_profile(n, 80, seed));
    let samples: usize = world.dataset.trajectories.iter().map(|t| t.len()).sum();
    let out =
        anonymize(&world.dataset, model, &FreqDpConfig { seed, ..Default::default() }).unwrap();
    let per_edit = |checked: usize, edits: usize| checked as f64 / edits.max(1) as f64;
    Rates {
        global_per_edit: out.global.as_ref().map(|global| {
            per_edit(global.search_stats.segments_checked, global.insertions + global.deletions)
        }),
        local_per_edit: out.local.as_ref().map(|local| {
            per_edit(local.search_stats.segments_checked, local.insertions + local.deletions)
        }),
        edits_per_sample: out.total_edits() as f64 / samples as f64,
    }
}

/// Bounds the 8n-over-n ratio of every rate the model has, for seeds 1
/// to 3.
fn assert_flat(model: Model) {
    let ratio = |small: Option<f64>, large: Option<f64>| {
        assert_eq!(small.is_some(), large.is_some());
        small.zip(large).map(|(small, large)| large / small)
    };
    for seed in 1..=3 {
        let (small, large) = (rates(model, 50, seed), rates(model, 400, seed));
        let bounds = [
            ("global segments per edit", ratio(small.global_per_edit, large.global_per_edit), 6.0),
            ("local segments per edit", ratio(small.local_per_edit, large.local_per_edit), 1.5),
            ("edits per sample", Some(large.edits_per_sample / small.edits_per_sample), 1.5),
        ];
        for (what, ratio, bound) in bounds {
            let Some(ratio) = ratio else { continue };
            assert!(
                ratio <= bound,
                "{model:?}, seed {seed}: {what} grew {ratio:.2}x (bound {bound}x)"
            );
        }
    }
}

#[test]
fn gl_work_per_edit_stays_flat_from_n_to_8n() {
    assert_flat(Model::Combined);
}

#[test]
fn lg_work_per_edit_stays_flat_from_n_to_8n() {
    assert_flat(Model::CombinedLocalFirst);
}

#[test]
fn pure_g_work_per_edit_stays_flat_from_n_to_8n() {
    assert_flat(Model::PureGlobal);
}

#[test]
fn pure_l_work_per_edit_stays_flat_from_n_to_8n() {
    assert_flat(Model::PureLocal);
}
