//! The global TF randomization mechanism (Algorithm 1, §III-B2).
//!
//! A point-counting query "how many trajectories pass through `p`?" has
//! sensitivity 1 under dataset adjacency, so adding `Lap(1/ε_G)` noise to
//! every TF value of the candidate set `P` yields ε_G-DP. Noisy values
//! are rounded into `[0, |D|]` (post-processing), and the dataset is then
//! altered by inter-trajectory modification until it realizes the
//! perturbed distribution.

use crate::editor::DatasetEditor;
use crate::freq::FrequencyAnalysis;
use crate::indexkind::IndexKind;
use crate::stream::{stream_rng, PHASE_GLOBAL};
use std::collections::HashMap;
use trajdp_index::SearchStats;
use trajdp_mech::{round_to_range, LaplaceMechanism, MechError};
use trajdp_model::{Dataset, LocationTable, PointKey};

/// Wall-clock breakdown of one [`realize_tf`] run. Pure observability:
/// the timings never feed back into the computation, so determinism and
/// worker-count invariance of the edits are untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Editor construction plus edit-step planning.
    pub build: std::time::Duration,
    /// Time spent applying TF increases.
    pub increase: std::time::Duration,
    /// Time spent applying TF decreases.
    pub decrease: std::time::Duration,
    /// End-to-end modification wall (covers build + increase + decrease
    /// plus report assembly).
    pub realize: std::time::Duration,
}

/// Outcome of one global-mechanism run.
#[derive(Debug, Clone)]
pub struct GlobalReport {
    /// For every candidate point: `(original TF, perturbed TF)`.
    pub tf_changes: HashMap<PointKey, (usize, u64)>,
    /// Total utility loss of the inter-trajectory modification.
    pub utility_loss: f64,
    /// Point insertions performed.
    pub insertions: usize,
    /// Point deletions performed.
    pub deletions: usize,
    /// Accumulated K-nearest-search work of the modification. The
    /// phase is serial, so the counters are the same at every worker
    /// count.
    pub search_stats: SearchStats,
    /// Wall-clock per modification stage (not reproducible — it
    /// measures this run's real elapsed time).
    pub timings: StageTimings,
}

/// Perturbs the TF of one contiguous shard of the sorted candidate set
/// using **per-point RNG streams** derived from the root seed.
///
/// `candidates` must be a slice of [`FrequencyAnalysis::candidate_points`]
/// starting at position `first_index` of the full sorted order; each
/// point `j` draws from stream `(root_seed, PHASE_GLOBAL, j)`, so the
/// result is independent of how the candidate set is cut into shards.
pub fn perturb_tf_shard(
    analysis: &FrequencyAnalysis,
    candidates: &[PointKey],
    first_index: usize,
    epsilon: f64,
    root_seed: u64,
) -> Result<Vec<(PointKey, u64)>, MechError> {
    let mech = LaplaceMechanism::new(epsilon, 1.0)?;
    let n = analysis.dataset_size as u64;
    let mut out = Vec::with_capacity(candidates.len());
    for (offset, &p) in candidates.iter().enumerate() {
        let mut rng = stream_rng(root_seed, PHASE_GLOBAL, (first_index + offset) as u64);
        let l = analysis.candidate_tf[&p] as f64;
        let noisy = mech.randomize(l, &mut rng);
        out.push((p, round_to_range(noisy, 0, n)));
    }
    Ok(out)
}

/// One planned inter-trajectory edit of [`realize_tf`].
enum EditStep {
    /// Raise the TF of the point by the given amount.
    Increase(PointKey, usize),
    /// Lower the TF of the point by the given amount.
    Decrease(PointKey, usize),
}

/// Inter-trajectory modification (`GlobalEdit`, Algorithm 1 line 7):
/// deterministically edits the dataset until it realizes `perturbed`,
/// applying the TF-increasing and TF-decreasing tasks one by one in
/// candidate order.
///
/// This phase draws no randomness — given the perturbed targets it is a
/// pure function of the dataset, however the perturbation was sharded.
/// It runs serially on the calling thread. `bbox_pruning` and `workers`
/// are ignored, kept only for the callers that pass them: every TF
/// increase is one grouped index search, which selects what the retired
/// trajectory-bbox search did, so either value releases the same bytes.
pub fn realize_tf(
    ds: &Dataset,
    analysis: &FrequencyAnalysis,
    perturbed: &HashMap<PointKey, u64>,
    kind: IndexKind,
    _bbox_pruning: bool,
    _workers: usize,
) -> (Dataset, GlobalReport) {
    let (out, _, report) = realize(ds, analysis, perturbed, kind);
    (out, report)
}

/// [`realize_tf`], also returning the location table whose sample ids
/// describe the edited dataset ([`DatasetEditor::into_parts`]).
fn realize(
    ds: &Dataset,
    analysis: &FrequencyAnalysis,
    perturbed: &HashMap<PointKey, u64>,
    kind: IndexKind,
) -> (Dataset, LocationTable, GlobalReport) {
    // lint: allow(determinism): wall-clock feeds the timing report only; no edit decision reads it
    let realize_started = std::time::Instant::now();
    let mut editor = DatasetEditor::with_locations(
        ds.trajectories.clone(),
        kind,
        ds.domain,
        analysis.locations(),
    );
    let mut tf_changes = HashMap::with_capacity(perturbed.len());
    // Plan every edit up front. An edit touches only occurrences of its
    // own point, so it never changes another candidate's TF and the
    // deltas are fixed before any edit applies.
    let mut steps: Vec<EditStep> = Vec::new();
    for p in analysis.candidate_points() {
        let original = analysis.candidate_tf[&p];
        let target = perturbed[&p];
        tf_changes.insert(p, (original, target));
        let current = editor.tf(p) as u64;
        match target.cmp(&current) {
            std::cmp::Ordering::Greater => {
                steps.push(EditStep::Increase(p, (target - current) as usize));
            }
            std::cmp::Ordering::Less => {
                steps.push(EditStep::Decrease(p, (current - target) as usize));
            }
            std::cmp::Ordering::Equal => {}
        }
    }
    let build = realize_started.elapsed();
    let mut increase_time = std::time::Duration::ZERO;
    let mut decrease_time = std::time::Duration::ZERO;
    for step in steps {
        // lint: allow(determinism): wall-clock feeds the timing report only; no edit decision reads it
        let step_started = std::time::Instant::now();
        match step {
            EditStep::Increase(p, delta) => {
                editor.increase_tf(p.to_point(), delta);
                increase_time += step_started.elapsed();
            }
            EditStep::Decrease(p, delta) => {
                editor.decrease_tf(p, delta);
                decrease_time += step_started.elapsed();
            }
        }
    }
    let report = GlobalReport {
        tf_changes,
        utility_loss: editor.loss,
        insertions: editor.insertions,
        deletions: editor.deletions,
        search_stats: editor.stats,
        timings: StageTimings {
            build,
            increase: increase_time,
            decrease: decrease_time,
            realize: realize_started.elapsed(),
        },
    };
    let (trajectories, locations) = editor.into_parts();
    (Dataset::new(ds.domain, trajectories), locations, report)
}

/// Runs the full global mechanism: TF perturbation (Algorithm 1, lines
/// 1–6) followed by inter-trajectory modification (`GlobalEdit`, line 7).
///
/// Both steps run serially on the calling thread: [`perturb_tf_shard`]
/// perturbs the whole sorted candidate set (a few hundred Laplace draws,
/// one per-point stream each), and [`realize_tf`] realizes the targets.
/// The returned dataset realizes the perturbed TF distribution for every
/// candidate point, up to saturation (a TF cannot exceed `|D|` or drop
/// below the available occurrences). It comes with a location table
/// whose sample ids describe it under the analysis's numbering, so a
/// local phase run on it next looks none of its samples up.
pub fn apply_global_streamed(
    ds: &Dataset,
    analysis: &FrequencyAnalysis,
    epsilon: f64,
    kind: IndexKind,
    root_seed: u64,
) -> Result<(Dataset, LocationTable, GlobalReport), MechError> {
    let candidates = analysis.candidate_points();
    let perturbed: HashMap<PointKey, u64> =
        perturb_tf_shard(analysis, &candidates, 0, epsilon, root_seed)?.into_iter().collect();
    Ok(realize(ds, analysis, &perturbed, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdp_model::{Point, Sample, Trajectory};

    /// The whole perturbed TF distribution as a single shard.
    fn perturb_all(fa: &FrequencyAnalysis, epsilon: f64, seed: u64) -> HashMap<PointKey, u64> {
        perturb_tf_shard(fa, &fa.candidate_points(), 0, epsilon, seed)
            .unwrap()
            .into_iter()
            .collect()
    }

    fn traj(id: u64, pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(
            id,
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| Sample::new(Point::new(x, y), i as i64 * 10))
                .collect(),
        )
    }

    fn ds() -> Dataset {
        Dataset::from_trajectories(vec![
            traj(0, &[(0.0, 0.0), (10.0, 0.0), (0.0, 0.0), (20.0, 5.0)]),
            traj(1, &[(100.0, 100.0), (110.0, 100.0), (100.0, 100.0)]),
            traj(2, &[(200.0, 0.0), (210.0, 0.0), (220.0, 0.0)]),
            traj(3, &[(50.0, 50.0), (60.0, 50.0), (50.0, 50.0), (70.0, 55.0)]),
        ])
    }

    #[test]
    fn perturb_tf_stays_in_range() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        // Tiny ε → huge noise; rounding must still clamp to [0, |D|].
        let p = perturb_all(&fa, 0.01, 3);
        for &v in p.values() {
            assert!(v <= d.len() as u64);
        }
        assert_eq!(p.len(), fa.dimensionality());
    }

    #[test]
    fn perturb_tf_rejects_bad_epsilon() {
        let fa = FrequencyAnalysis::compute(&ds(), 2);
        let candidates = fa.candidate_points();
        for epsilon in [0.0, -1.0, f64::NAN, 1e-320] {
            let out = perturb_tf_shard(&fa, &candidates, 0, epsilon, 3);
            assert!(matches!(out, Err(MechError::NonPositiveEpsilon { .. })), "{epsilon:e}");
        }
    }

    #[test]
    fn perturb_tf_concentrates_with_large_epsilon() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        // ε = 1000 → noise ≈ 0 → rounded TF equals the original.
        let p = perturb_all(&fa, 1000.0, 5);
        for (k, &v) in &p {
            assert_eq!(v, fa.candidate_tf[k] as u64);
        }
    }

    #[test]
    fn apply_global_realizes_perturbed_tf() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let (out, _, report) =
            apply_global_streamed(&d, &fa, 0.5, IndexKind::default(), 11).unwrap();
        assert_eq!(out.len(), d.len());
        for (p, &(_, target)) in &report.tf_changes {
            let realized = out.trajectory_frequency(*p) as u64;
            assert_eq!(realized, target, "point {p:?} should have TF {target}, got {realized}");
        }
    }

    #[test]
    fn apply_global_with_zero_noise_is_identity_on_tf() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let (out, _, report) =
            apply_global_streamed(&d, &fa, 1000.0, IndexKind::default(), 17).unwrap();
        assert_eq!(report.insertions, 0);
        assert_eq!(report.deletions, 0);
        assert_eq!(report.utility_loss, 0.0);
        assert_eq!(out, d);
    }

    #[test]
    fn sharded_perturbation_is_cut_invariant() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let candidates = fa.candidate_points();
        let whole = perturb_all(&fa, 0.5, 99);
        // Any shard boundary must reproduce the single-shard result.
        for cut in 0..=candidates.len() {
            let (a, b) = candidates.split_at(cut);
            let mut merged: HashMap<PointKey, u64> =
                perturb_tf_shard(&fa, a, 0, 0.5, 99).unwrap().into_iter().collect();
            merged.extend(perturb_tf_shard(&fa, b, cut, 0.5, 99).unwrap());
            assert_eq!(merged, whole, "cut at {cut}");
        }
    }

    #[test]
    fn streamed_apply_is_deterministic_and_seed_sensitive() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let (a, _, _) = apply_global_streamed(&d, &fa, 0.5, IndexKind::default(), 5).unwrap();
        let (b, _, _) = apply_global_streamed(&d, &fa, 0.5, IndexKind::default(), 5).unwrap();
        assert_eq!(a, b);
        let (c, _, _) = apply_global_streamed(&d, &fa, 0.5, IndexKind::default(), 6).unwrap();
        assert_ne!(a, c, "different root seeds must perturb differently");
    }

    #[test]
    fn realize_tf_is_worker_count_invariant() {
        use trajdp_synth::{generate, GeneratorConfig};
        // A realistic world gives a candidate set with a healthy mix of
        // increases, decreases, and no-ops once perturbed.
        let world = generate(&GeneratorConfig::tdrive_profile(25, 50, 13));
        let d = &world.dataset;
        let fa = FrequencyAnalysis::compute(d, 4);
        let perturbed = perturb_all(&fa, 0.4, 21);
        let (base, base_report) = realize_tf(d, &fa, &perturbed, IndexKind::default(), false, 1);
        for workers in [2usize, 3, 8] {
            let (out, report) =
                realize_tf(d, &fa, &perturbed, IndexKind::default(), false, workers);
            assert_eq!(out, base, "workers={workers} dataset diverged");
            assert_eq!(report.insertions, base_report.insertions);
            assert_eq!(report.deletions, base_report.deletions);
            assert_eq!(report.utility_loss, base_report.utility_loss);
            assert_eq!(report.tf_changes, base_report.tf_changes);
            assert_eq!(report.search_stats, base_report.search_stats);
        }
    }

    #[test]
    fn global_phase_is_index_independent() {
        use trajdp_index::Strategy;
        use trajdp_synth::{generate, GeneratorConfig};
        // Trajectories are picked by the total `(distance, slot)` order,
        // so no index's traversal order can decide a tie: every kind
        // releases the same dataset, loss and TF changes.
        let world = generate(&GeneratorConfig::tdrive_profile(40, 80, 11));
        let d = &world.dataset;
        let fa = FrequencyAnalysis::compute(d, 10);
        let kinds = [
            IndexKind::Linear,
            IndexKind::Uniform(64),
            IndexKind::Hier(512, Strategy::TopDown),
            IndexKind::Hier(512, Strategy::BottomUp),
            IndexKind::Hier(512, Strategy::BottomUpDown),
        ];
        let run = |kind| apply_global_streamed(d, &fa, 0.5, kind, 0x60_1D).unwrap();
        let (base, _, base_report) = run(IndexKind::default());
        assert!(base_report.insertions > 0 && base_report.deletions > 0, "too few edits to tell");
        for kind in kinds {
            let (out, _, report) = run(kind);
            assert_eq!(out, base, "{kind:?} released a different dataset");
            assert_eq!(report.utility_loss, base_report.utility_loss, "{kind:?}");
            assert_eq!(report.tf_changes, base_report.tf_changes, "{kind:?}");
        }
    }

    #[test]
    fn report_counts_are_consistent() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let (_, _, report) = apply_global_streamed(&d, &fa, 0.2, IndexKind::default(), 23).unwrap();
        // Any modification must be accounted: if points moved, loss ≥ 0
        // and the counters reflect edits.
        if report.insertions == 0 && report.deletions == 0 {
            assert_eq!(report.utility_loss, 0.0);
        }
        assert!(report.utility_loss.is_finite());
    }
}
