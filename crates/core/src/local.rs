//! The local PF randomization mechanism (Algorithm 2, §III-B3).
//!
//! For every trajectory, a list of `2m` points is selected: first the
//! trajectory's top-`m` signature points (which lie in `P` by
//! construction), then further points of the trajectory — preferring
//! other members of `P` — until the list holds `2m` entries.
//!
//! **Stage 1** perturbs the PF of the first `m` points with
//! `Lap(−f_k, 1/ε_L)` noise: the negative mean suppresses the signature
//! occurrences with high probability. **Stage 2** perturbs the next `m`
//! points with `Lap(−µ̄, 1/ε_L)` where `µ̄` is the mean noise actually
//! added in stage 1 — when stage 1 shrank the trajectory, `−µ̄` is
//! positive and stage 2 grows it back, stabilizing cardinality.
//!
//! Theorems 2–3 prove the non-zero mean does not weaken the ε_L-DP
//! guarantee (the guarantee depends only on the scale `1/ε_L`).

use crate::editor::TrajectoryEditor;
use crate::freq::FrequencyAnalysis;
use crate::indexkind::IndexKind;
use crate::pool::map_chunks;
use crate::stream::{stream_rng, PHASE_LOCAL};
use rand::Rng;
use std::collections::HashMap;
use trajdp_index::SearchStats;
use trajdp_mech::{round_count, Laplace, LaplaceMechanism, MechError};
use trajdp_model::{Dataset, PointKey, Rect, Trajectory};

/// Ablation switches for the local mechanism. Defaults reproduce the
/// paper's Algorithm 2 exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalOptions {
    /// Run stage 2 (the cardinality-compensating perturbation of the
    /// second `m` points). Disabling reproduces the "Stage-1 only"
    /// ablation discussed in §III-B3.
    pub stage2: bool,
    /// Use the classical zero-mean Laplace instead of the paper's
    /// non-trivial shifted Laplace (ablation of the mean-shift design).
    pub zero_mean: bool,
}

impl Default for LocalOptions {
    fn default() -> Self {
        Self { stage2: true, zero_mean: false }
    }
}

/// Perturbation plan for one trajectory: every selected point with its
/// original and perturbed PF.
#[derive(Debug, Clone, Default)]
pub struct PfPlan {
    /// `(point, original PF, perturbed PF)` in processing order; the
    /// first half is stage 1, the second stage 2.
    pub entries: Vec<(PointKey, usize, u64)>,
}

/// Outcome of one local-mechanism run over a dataset.
#[derive(Debug, Clone)]
pub struct LocalReport {
    /// Per-trajectory perturbation plans (index-aligned).
    pub plans: Vec<PfPlan>,
    /// Total utility loss of all intra-trajectory modifications.
    pub utility_loss: f64,
    /// Point insertions performed.
    pub insertions: usize,
    /// Point deletions performed.
    pub deletions: usize,
    /// Accumulated K-nearest-search work.
    pub search_stats: SearchStats,
}

/// Selects the `2m`-point list `PL(τ)` for trajectory slot `i`
/// (Algorithm 2 input): the top-`m` signature first, then remaining
/// distinct points preferring members of `P`, randomly ordered.
pub fn select_point_list<R: Rng + ?Sized>(
    traj: &Trajectory,
    analysis: &FrequencyAnalysis,
    slot: usize,
    rng: &mut R,
) -> Vec<PointKey> {
    let m = analysis.m;
    let mut list: Vec<PointKey> = analysis.signature_points(slot);
    list.truncate(m);
    // Distinct points of the trajectory not already selected.
    let mut in_p: Vec<PointKey> = Vec::new();
    let mut rest: Vec<PointKey> = Vec::new();
    let mut seen: std::collections::HashSet<PointKey> = list.iter().copied().collect();
    for s in &traj.samples {
        let k = s.loc.key();
        if seen.insert(k) {
            if analysis.candidate_tf.contains_key(&k) {
                in_p.push(k);
            } else {
                rest.push(k);
            }
        }
    }
    // Prefer other signature points (members of P), then random others.
    shuffle(&mut in_p, rng);
    shuffle(&mut rest, rng);
    for k in in_p.into_iter().chain(rest) {
        if list.len() >= 2 * m {
            break;
        }
        list.push(k);
    }
    list
}

fn shuffle<T, R: Rng + ?Sized>(v: &mut [T], rng: &mut R) {
    // Fisher–Yates; avoids pulling in rand's slice extension trait.
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Draws the perturbed PF values for one trajectory (Algorithm 2,
/// lines 2–16) without modifying it.
pub fn perturb_pf<R: Rng + ?Sized>(
    traj: &Trajectory,
    point_list: &[PointKey],
    m: usize,
    epsilon: f64,
    opts: LocalOptions,
    rng: &mut R,
) -> Result<PfPlan, MechError> {
    // The point-counting query has sensitivity 1, so the scale is 1/ε.
    let scale = LaplaceMechanism::new(epsilon, 1.0)?.noise_scale();
    let mut pf: HashMap<PointKey, usize> = HashMap::new();
    for s in &traj.samples {
        *pf.entry(s.loc.key()).or_insert(0) += 1;
    }
    let mut entries = Vec::with_capacity(point_list.len());
    // Stage 1: top-m points, Lap(−f_k, 1/ε).
    let stage1 = &point_list[..m.min(point_list.len())];
    let mut noise_sum = 0.0;
    for &p in stage1 {
        let f = *pf.get(&p).unwrap_or(&0);
        let mean = if opts.zero_mean { 0.0 } else { -(f as f64) };
        let eta = Laplace::new(mean, scale)?.sample(rng);
        let f_star = round_count(f as f64 + eta);
        noise_sum += f_star as f64 - f as f64; // the *actual* applied noise
        entries.push((p, f, f_star));
    }
    let mu_bar = if stage1.is_empty() { 0.0 } else { noise_sum / stage1.len() as f64 };
    // Stage 2: remaining m points, Lap(−µ̄, 1/ε).
    if opts.stage2 {
        for &p in point_list.iter().skip(m).take(m) {
            let f = *pf.get(&p).unwrap_or(&0);
            let mean = if opts.zero_mean { 0.0 } else { -mu_bar };
            let eta = Laplace::new(mean, scale)?.sample(rng);
            let f_star = round_count(f as f64 + eta);
            entries.push((p, f, f_star));
        }
    }
    Ok(PfPlan { entries })
}

/// The local mechanism's outcome on a single trajectory: the smallest
/// unit of work [`apply_local_streamed`] shards over its workers.
#[derive(Debug, Clone)]
pub struct LocalUnit {
    /// The modified trajectory.
    pub trajectory: Trajectory,
    /// The perturbation plan that was realized.
    pub plan: PfPlan,
    /// Utility loss of this trajectory's modifications.
    pub utility_loss: f64,
    /// Point insertions performed.
    pub insertions: usize,
    /// Point deletions performed.
    pub deletions: usize,
    /// K-nearest-search work of this trajectory's edits.
    pub search_stats: SearchStats,
}

/// Runs the local mechanism on one trajectory (point-list selection, PF
/// perturbation, intra-trajectory modification). Deletions run before
/// insertions so freshly inserted occurrences are never re-deleted.
// The unit signature mirrors Algorithm 2's inputs one-to-one; bundling
// them into a struct would only add indirection at every shard call.
#[allow(clippy::too_many_arguments)]
pub fn local_unit<R: Rng + ?Sized>(
    traj: &Trajectory,
    analysis: &FrequencyAnalysis,
    slot: usize,
    epsilon: f64,
    kind: IndexKind,
    opts: LocalOptions,
    domain: Rect,
    rng: &mut R,
) -> Result<LocalUnit, MechError> {
    let mut editor = TrajectoryEditor::new(Trajectory::new(traj.id, Vec::new()), kind, domain);
    local_unit_on(&mut editor, traj, analysis, slot, epsilon, opts, rng)
}

/// [`local_unit`] on a reusable editor: the editor restarts on a copy of
/// `traj`, so one editor (and one index arena) serves a whole shard.
fn local_unit_on<R: Rng + ?Sized>(
    editor: &mut TrajectoryEditor,
    traj: &Trajectory,
    analysis: &FrequencyAnalysis,
    slot: usize,
    epsilon: f64,
    opts: LocalOptions,
    rng: &mut R,
) -> Result<LocalUnit, MechError> {
    let list = select_point_list(traj, analysis, slot, rng);
    let plan = perturb_pf(traj, &list, analysis.m, epsilon, opts, rng)?;
    editor.reset(traj);
    for &(p, f, f_star) in &plan.entries {
        if (f_star as usize) < f {
            editor.delete_occurrences(p, f - f_star as usize);
        }
    }
    for &(p, f, f_star) in &plan.entries {
        if f_star as usize > f {
            editor.insert_occurrences(p.to_point(), f_star as usize - f);
        }
    }
    Ok(LocalUnit {
        utility_loss: editor.loss,
        insertions: editor.insertions,
        deletions: editor.deletions,
        search_stats: editor.stats,
        trajectory: editor.trajectory().clone(),
        plan,
    })
}

/// [`local_unit`] drawing from the trajectory's **own RNG stream**
/// `(root_seed, PHASE_LOCAL, slot)`, making the result independent of
/// processing order and shard boundaries.
#[allow(clippy::too_many_arguments)]
pub fn local_unit_streamed(
    traj: &Trajectory,
    analysis: &FrequencyAnalysis,
    slot: usize,
    epsilon: f64,
    kind: IndexKind,
    opts: LocalOptions,
    domain: Rect,
    root_seed: u64,
) -> Result<LocalUnit, MechError> {
    let mut rng = stream_rng(root_seed, PHASE_LOCAL, slot as u64);
    local_unit(traj, analysis, slot, epsilon, kind, opts, domain, &mut rng)
}

/// Merges per-trajectory units (in slot order) into a dataset and an
/// aggregate report. Accumulation order is fixed — slot 0 first — so
/// float sums are identical however the units were produced.
pub fn merge_local_units(domain: Rect, units: Vec<LocalUnit>) -> (Dataset, LocalReport) {
    let mut report = LocalReport {
        plans: Vec::with_capacity(units.len()),
        utility_loss: 0.0,
        insertions: 0,
        deletions: 0,
        search_stats: SearchStats::default(),
    };
    let mut out = Vec::with_capacity(units.len());
    for u in units {
        report.utility_loss += u.utility_loss;
        report.insertions += u.insertions;
        report.deletions += u.deletions;
        report.search_stats.cells_visited += u.search_stats.cells_visited;
        report.search_stats.segments_checked += u.search_stats.segments_checked;
        report.plans.push(u.plan);
        out.push(u.trajectory);
    }
    (Dataset::new(domain, out), report)
}

/// Runs the full local mechanism over the dataset: trajectory slots are
/// cut into one contiguous shard per worker, every slot draws from its
/// own stream (as in [`local_unit_streamed`]), and the units merge in
/// slot order — so the output is identical at every `workers`, and
/// `workers == 1` runs inline on the calling thread. Each shard edits
/// its trajectories one after another on a single reused editor.
pub fn apply_local_streamed(
    ds: &Dataset,
    analysis: &FrequencyAnalysis,
    epsilon: f64,
    kind: IndexKind,
    opts: LocalOptions,
    workers: usize,
    root_seed: u64,
) -> Result<(Dataset, LocalReport), MechError> {
    let shards = map_chunks(workers, &ds.trajectories, |lo, chunk| {
        let mut editor = TrajectoryEditor::new(Trajectory::new(0, Vec::new()), kind, ds.domain);
        chunk
            .iter()
            .enumerate()
            .map(|(offset, traj)| {
                let slot = lo + offset;
                let mut rng = stream_rng(root_seed, PHASE_LOCAL, slot as u64);
                local_unit_on(&mut editor, traj, analysis, slot, epsilon, opts, &mut rng)
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let mut units = Vec::with_capacity(ds.len());
    for shard in shards {
        units.extend(shard?);
    }
    Ok(merge_local_units(ds.domain, units))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajdp_model::{Point, Sample};

    fn traj(id: u64, xs: &[f64]) -> Trajectory {
        Trajectory::new(
            id,
            xs.iter()
                .enumerate()
                .map(|(i, &x)| Sample::new(Point::new(x, (i % 3) as f64), i as i64 * 10))
                .collect(),
        )
    }

    fn ds() -> Dataset {
        Dataset::from_trajectories(vec![
            traj(0, &[1.0, 2.0, 1.0, 3.0, 1.0, 4.0, 5.0, 1.0, 6.0, 7.0]),
            traj(1, &[10.0, 11.0, 12.0, 10.0, 13.0, 14.0]),
            traj(2, &[20.0, 21.0, 22.0, 23.0, 24.0, 25.0]),
        ])
    }

    #[test]
    fn point_list_starts_with_signature_and_has_no_duplicates() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let list = select_point_list(&d.trajectories[0], &fa, 0, &mut rng);
        let sig = fa.signature_points(0);
        assert_eq!(&list[..sig.len()], &sig[..]);
        let set: std::collections::HashSet<_> = list.iter().collect();
        assert_eq!(set.len(), list.len(), "duplicate entries in PL(τ)");
        assert!(list.len() <= 2 * fa.m);
    }

    #[test]
    fn point_list_saturates_on_short_trajectories() {
        let d = Dataset::from_trajectories(vec![traj(0, &[1.0, 2.0, 1.0])]);
        let fa = FrequencyAnalysis::compute(&d, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let list = select_point_list(&d.trajectories[0], &fa, 0, &mut rng);
        // Only three distinct points exist (the y coordinate varies), far
        // fewer than 2m = 10 — the list saturates at the distinct count.
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn stage1_suppresses_signature_frequencies() {
        // With the shifted Laplace, stage-1 noisy PF should be ≈ 0 on
        // average (noise centred at −f_k).
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let t = &d.trajectories[0];
        let list = select_point_list(t, &fa, 0, &mut rng);
        let mut suppressed = 0usize;
        let runs = 300;
        for _ in 0..runs {
            let plan = perturb_pf(t, &list, 2, 2.0, LocalOptions::default(), &mut rng).unwrap();
            let (_, f, f_star) = plan.entries[0];
            assert!(f > 0);
            if (f_star as usize) < f {
                suppressed += 1;
            }
        }
        assert!(
            suppressed as f64 / runs as f64 > 0.6,
            "stage 1 should usually shrink the top signature PF ({suppressed}/{runs})"
        );
    }

    #[test]
    fn zero_mean_ablation_is_symmetric() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let t = &d.trajectories[0];
        let list = select_point_list(t, &fa, 0, &mut rng);
        let opts = LocalOptions { zero_mean: true, ..Default::default() };
        let (mut up, mut down) = (0usize, 0usize);
        for _ in 0..400 {
            let plan = perturb_pf(t, &list, 2, 1.0, opts, &mut rng).unwrap();
            let (_, f, f_star) = plan.entries[0];
            match (f_star as usize).cmp(&f) {
                std::cmp::Ordering::Greater => up += 1,
                std::cmp::Ordering::Less => down += 1,
                _ => {}
            }
        }
        // Zero-mean noise must go both ways in comparable proportion.
        let ratio = up as f64 / (up + down).max(1) as f64;
        assert!(ratio > 0.3 && ratio < 0.7, "zero-mean should be symmetric, got {ratio}");
    }

    #[test]
    fn stage2_disabled_halves_plan() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let t = &d.trajectories[0];
        let list = select_point_list(t, &fa, 0, &mut rng);
        let full = perturb_pf(t, &list, 2, 1.0, LocalOptions::default(), &mut rng).unwrap();
        let s1 = perturb_pf(
            t,
            &list,
            2,
            1.0,
            LocalOptions { stage2: false, ..Default::default() },
            &mut rng,
        )
        .unwrap();
        assert!(s1.entries.len() < full.entries.len());
        assert_eq!(s1.entries.len(), 2);
    }

    #[test]
    fn apply_local_realizes_perturbed_pf() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let (out, report) =
            apply_local_streamed(&d, &fa, 0.5, IndexKind::default(), LocalOptions::default(), 1, 6)
                .unwrap();
        assert_eq!(out.len(), d.len());
        for (slot, plan) in report.plans.iter().enumerate() {
            for &(p, _, f_star) in &plan.entries {
                let realized = out.trajectories[slot].count_point(p);
                assert_eq!(
                    realized, f_star as usize,
                    "slot {slot} point {p:?}: wanted PF {f_star}, got {realized}"
                );
            }
        }
    }

    #[test]
    fn streamed_local_is_order_and_shard_invariant() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let (whole, report) = apply_local_streamed(
            &d,
            &fa,
            0.5,
            IndexKind::default(),
            LocalOptions::default(),
            1,
            77,
        )
        .unwrap();
        // Recompute each trajectory in reverse order — per-slot streams
        // make the result identical.
        let mut units: Vec<LocalUnit> = (0..d.len())
            .rev()
            .map(|slot| {
                local_unit_streamed(
                    &d.trajectories[slot],
                    &fa,
                    slot,
                    0.5,
                    IndexKind::default(),
                    LocalOptions::default(),
                    d.domain,
                    77,
                )
                .unwrap()
            })
            .collect();
        units.reverse();
        let (merged, merged_report) = merge_local_units(d.domain, units);
        assert_eq!(merged, whole);
        assert_eq!(merged_report.utility_loss, report.utility_loss);
        assert_eq!(merged_report.insertions, report.insertions);
        assert_eq!(merged_report.deletions, report.deletions);
        // A fresh editor per trajectory searches exactly like the one
        // editor a shard reuses.
        assert_eq!(merged_report.search_stats, report.search_stats);
        // Sharding over any worker count reproduces the serial run.
        for workers in [2usize, 3, 8] {
            let (sharded, sharded_report) = apply_local_streamed(
                &d,
                &fa,
                0.5,
                IndexKind::default(),
                LocalOptions::default(),
                workers,
                77,
            )
            .unwrap();
            assert_eq!(sharded, whole, "{workers} workers");
            assert_eq!(sharded_report.utility_loss, report.utility_loss, "{workers} workers");
        }
    }

    #[test]
    fn streamed_local_is_seed_sensitive() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let kind = IndexKind::default();
        let (a, _) =
            apply_local_streamed(&d, &fa, 0.5, kind, LocalOptions::default(), 1, 1).unwrap();
        let (b, _) =
            apply_local_streamed(&d, &fa, 0.5, kind, LocalOptions::default(), 1, 2).unwrap();
        assert_ne!(a, b, "different root seeds should perturb differently");
    }

    #[test]
    fn apply_local_rejects_bad_epsilon() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        for epsilon in [0.0, -1.0, f64::NAN, 1e-320] {
            let out = apply_local_streamed(
                &d,
                &fa,
                epsilon,
                IndexKind::default(),
                LocalOptions::default(),
                1,
                7,
            );
            assert!(matches!(out, Err(MechError::NonPositiveEpsilon { .. })), "{epsilon:e}");
        }
    }

    #[test]
    fn stage2_preserves_cardinality_better_than_stage1_only() {
        // The "Importance of Stage-2" claim: with stage 2 the total point
        // count stays closer to the original than with stage 1 alone.
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 2);
        let original: usize = d.total_points();
        let (mut dev_full, mut dev_s1) = (0i64, 0i64);
        for seed in 0..30u64 {
            let (full, _) = apply_local_streamed(
                &d,
                &fa,
                1.0,
                IndexKind::default(),
                LocalOptions::default(),
                1,
                seed,
            )
            .unwrap();
            let (s1, _) = apply_local_streamed(
                &d,
                &fa,
                1.0,
                IndexKind::default(),
                LocalOptions { stage2: false, ..Default::default() },
                1,
                seed,
            )
            .unwrap();
            dev_full += (full.total_points() as i64 - original as i64).abs();
            dev_s1 += (s1.total_points() as i64 - original as i64).abs();
        }
        assert!(
            dev_full <= dev_s1,
            "stage 2 should stabilize cardinality (dev {dev_full} vs stage-1-only {dev_s1})"
        );
    }
}
