//! Complexity gate on exact work counters, after Goldsmith, Aiken &
//! Wilkerson, "Measuring Empirical Computational Complexity" (ESEC/FSE
//! 2007): each model runs on `tdrive_profile(n, 80, s)` and on 8n
//! trajectories, and the search work per edit of every phase it runs —
//! segments checked and index cells visited — and the edits per input
//! sample must grow far slower than the input. The counters are exact,
//! so the bounds need no timing slack and cannot flake on a noisy host.

use traj_freq_dp::core::{anonymize, FreqDpConfig, Model};
use traj_freq_dp::index::SearchStats;
use traj_freq_dp::synth::{generate, GeneratorConfig};

/// Search work of one phase per edit of that phase.
#[derive(Clone, Copy)]
struct PerEdit {
    /// Segment distances computed.
    segments: f64,
    /// Index cells visited.
    cells: f64,
}

impl PerEdit {
    fn new(stats: SearchStats, edits: usize) -> Self {
        let edits = edits.max(1) as f64;
        Self {
            segments: stats.segments_checked as f64 / edits,
            cells: stats.cells_visited as f64 / edits,
        }
    }
}

/// Work counters of one run, as rates.
struct Rates {
    /// Global search work per global edit, if the model runs the global
    /// phase.
    global: Option<PerEdit>,
    /// Local search work per local edit, if the model runs the local
    /// phase.
    local: Option<PerEdit>,
    /// Edits of both phases per input sample.
    edits_per_sample: f64,
}

fn rates(model: Model, n: usize, seed: u64) -> Rates {
    let world = generate(&GeneratorConfig::tdrive_profile(n, 80, seed));
    let samples: usize = world.dataset.trajectories.iter().map(|t| t.len()).sum();
    let out =
        anonymize(&world.dataset, model, &FreqDpConfig { seed, ..Default::default() }).unwrap();
    Rates {
        global: out
            .global
            .as_ref()
            .map(|global| PerEdit::new(global.search_stats, global.insertions + global.deletions)),
        local: out
            .local
            .as_ref()
            .map(|local| PerEdit::new(local.search_stats, local.insertions + local.deletions)),
        edits_per_sample: out.total_edits() as f64 / samples as f64,
    }
}

/// Bounds the 8n-over-n ratio of every rate the model has, for seeds 1
/// to 3. Every rate is bounded at 1.5×; the global segments per edit, the
/// closest to it, measured 0.92–1.03× for GL and PureG and 1.12–1.38×
/// for LG.
fn assert_flat(model: Model) {
    let ratio = |small: Option<PerEdit>, large: Option<PerEdit>, rate: fn(PerEdit) -> f64| {
        assert_eq!(small.is_some(), large.is_some());
        small.zip(large).map(|(small, large)| rate(large) / rate(small))
    };
    for seed in 1..=3 {
        let (small, large) = (rates(model, 50, seed), rates(model, 400, seed));
        let bounds = [
            ("global segments per edit", ratio(small.global, large.global, |p| p.segments), 1.5),
            ("global cells per edit", ratio(small.global, large.global, |p| p.cells), 1.5),
            ("local segments per edit", ratio(small.local, large.local, |p| p.segments), 1.5),
            ("local cells per edit", ratio(small.local, large.local, |p| p.cells), 1.5),
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
