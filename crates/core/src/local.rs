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
use trajdp_index::SearchStats;
use trajdp_mech::{round_count, Laplace, LaplaceMechanism, MechError};
use trajdp_model::{Dataset, LocationTable, PointKey, Rect, Trajectory};

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

/// One trajectory's PF by dense location id: the scratch state of the
/// local mechanism, which a shard reuses for all its trajectories. Ids
/// are those of the analysis's [`LocationTable`]; a location the
/// analysis never saw gets an id past the table's end.
#[derive(Debug)]
struct PfCounts {
    /// `pf[id]`: occurrences of location `id` in the counted trajectory;
    /// all zero between trajectories.
    pf: Vec<usize>,
    /// The counted trajectory's distinct ids, in first-appearance order.
    distinct: Vec<usize>,
    /// `picked[id]`: whether `id` already heads the point list; all
    /// false between trajectories.
    picked: Vec<bool>,
    /// Locations missing from the analysis's table: its id `j` is id
    /// `table.len() + j`.
    unseen: LocationTable,
}

impl PfCounts {
    fn new(analysis: &FrequencyAnalysis) -> Self {
        let ids = analysis.locations().len();
        Self {
            pf: vec![0; ids],
            distinct: Vec::new(),
            picked: vec![false; ids],
            unseen: LocationTable::default(),
        }
    }

    /// Counts the PF of `traj`, the trajectory at `slot` of the dataset
    /// being edited, whose sample ids `samples` holds (see
    /// [`apply_local_streamed`]). A sample still at its stored id takes
    /// it, so a trajectory `samples` describes hashes nothing.
    fn count(
        &mut self,
        analysis: &FrequencyAnalysis,
        samples: &LocationTable,
        slot: usize,
        traj: &Trajectory,
    ) {
        let table = analysis.locations();
        for (i, s) in traj.samples.iter().enumerate() {
            let key = s.loc.key();
            let id = match samples.sample_id(slot, i, key) {
                Some(id) if (id as usize) < table.len() => id as usize,
                _ => table.len() + self.unseen.intern(key) as usize,
            };
            if id >= self.pf.len() {
                self.pf.resize(id + 1, 0);
                self.picked.resize(id + 1, false);
            }
            if self.pf[id] == 0 {
                self.distinct.push(id);
            }
            self.pf[id] += 1;
        }
    }

    /// The location of `id`.
    fn key(&self, table: &LocationTable, id: usize) -> PointKey {
        match id.checked_sub(table.len()) {
            Some(j) => self.unseen.key(j as u32),
            None => table.key(id as u32),
        }
    }

    /// Forgets the counted trajectory, touching only its own entries.
    fn clear(&mut self) {
        for id in self.distinct.drain(..) {
            self.pf[id] = 0;
        }
        if !self.unseen.is_empty() {
            self.unseen = LocationTable::default();
        }
    }
}

/// Selects the `2m`-point list `PL(τ)` for the trajectory `counts` holds,
/// at slot `slot` (Algorithm 2 input): the top-`m` signature first, then
/// the remaining distinct points, members of `P` before the others,
/// each group randomly ordered. Every point comes with its PF.
fn select_point_list<R: Rng + ?Sized>(
    counts: &mut PfCounts,
    analysis: &FrequencyAnalysis,
    slot: usize,
    rng: &mut R,
) -> Vec<(PointKey, usize)> {
    let m = analysis.m;
    let table = analysis.locations();
    let signature = &analysis.signatures[slot];
    let signature = &signature[..m.min(signature.len())];
    let mut list = Vec::with_capacity(signature.len());
    let mut picked = Vec::with_capacity(signature.len());
    for e in signature {
        let id = table.id(e.point).expect("signature points are interned") as usize;
        counts.picked[id] = true;
        picked.push(id);
        list.push((e.point, counts.pf[id]));
    }
    // Distinct points of the trajectory not already selected.
    let (mut in_p, mut rest): (Vec<usize>, Vec<usize>) = counts
        .distinct
        .iter()
        .filter(|&&id| !counts.picked[id])
        .partition(|&&id| analysis.is_candidate(id as u32));
    for id in picked {
        counts.picked[id] = false;
    }
    // Prefer other signature points (members of P), then random others.
    shuffle(&mut in_p, rng);
    shuffle(&mut rest, rng);
    for id in in_p.into_iter().chain(rest) {
        if list.len() >= 2 * m {
            break;
        }
        list.push((counts.key(table, id), counts.pf[id]));
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
/// lines 2–16) from its point list of `(point, PF)` pairs, without
/// modifying it.
fn perturb_pf<R: Rng + ?Sized>(
    point_list: &[(PointKey, usize)],
    m: usize,
    epsilon: f64,
    opts: LocalOptions,
    rng: &mut R,
) -> Result<PfPlan, MechError> {
    // The point-counting query has sensitivity 1, so the scale is 1/ε.
    let scale = LaplaceMechanism::new(epsilon, 1.0)?.noise_scale();
    let mut entries = Vec::with_capacity(point_list.len());
    // Stage 1: top-m points, Lap(−f_k, 1/ε).
    let stage1 = &point_list[..m.min(point_list.len())];
    let mut noise_sum = 0.0;
    for &(p, f) in stage1 {
        let mean = if opts.zero_mean { 0.0 } else { -(f as f64) };
        let eta = Laplace::new(mean, scale)?.sample(rng);
        let f_star = round_count(f as f64 + eta);
        noise_sum += f_star as f64 - f as f64; // the *actual* applied noise
        entries.push((p, f, f_star));
    }
    let mu_bar = if stage1.is_empty() { 0.0 } else { noise_sum / stage1.len() as f64 };
    // Stage 2: remaining m points, Lap(−µ̄, 1/ε).
    if opts.stage2 {
        for &(p, f) in point_list.iter().skip(m).take(m) {
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
    let mut counts = PfCounts::new(analysis);
    let samples = analysis.locations();
    local_unit_on(&mut editor, &mut counts, traj, analysis, samples, slot, epsilon, opts, rng)
}

/// [`local_unit`] on a reusable editor and PF scratch: the editor
/// restarts on a copy of `traj`, so one editor (and one index arena) and
/// one set of counts serve a whole shard.
#[allow(clippy::too_many_arguments)]
fn local_unit_on<R: Rng + ?Sized>(
    editor: &mut TrajectoryEditor,
    counts: &mut PfCounts,
    traj: &Trajectory,
    analysis: &FrequencyAnalysis,
    samples: &LocationTable,
    slot: usize,
    epsilon: f64,
    opts: LocalOptions,
    rng: &mut R,
) -> Result<LocalUnit, MechError> {
    counts.count(analysis, samples, slot, traj);
    let list = select_point_list(counts, analysis, slot, rng);
    counts.clear();
    let plan = perturb_pf(&list, analysis.m, epsilon, opts, rng)?;
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
///
/// `samples` holds the location id of every sample of `ds` under the
/// analysis's numbering: `analysis.locations()` when `ds` is the
/// analysed dataset, or the table [`crate::global::apply_global_streamed`]
/// returns with the dataset it edited. A sample whose stored id does not
/// match, or is one the analysis lacks, is looked up instead, so the
/// table decides only how many samples are hashed, never the output.
#[allow(clippy::too_many_arguments)]
pub fn apply_local_streamed(
    ds: &Dataset,
    analysis: &FrequencyAnalysis,
    samples: &LocationTable,
    epsilon: f64,
    kind: IndexKind,
    opts: LocalOptions,
    workers: usize,
    root_seed: u64,
) -> Result<(Dataset, LocalReport), MechError> {
    let shards = map_chunks(workers, &ds.trajectories, |lo, chunk| {
        let mut editor = TrajectoryEditor::new(Trajectory::new(0, Vec::new()), kind, ds.domain);
        let mut counts = PfCounts::new(analysis);
        chunk
            .iter()
            .enumerate()
            .map(|(offset, traj)| {
                let slot = lo + offset;
                let mut rng = stream_rng(root_seed, PHASE_LOCAL, slot as u64);
                local_unit_on(
                    &mut editor,
                    &mut counts,
                    traj,
                    analysis,
                    samples,
                    slot,
                    epsilon,
                    opts,
                    &mut rng,
                )
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
    use crate::freq::reference::{edge_datasets, grid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{HashMap, HashSet};
    use trajdp_model::{Point, Sample};

    /// The point list of `traj` at `slot`, counted on fresh scratch.
    fn point_list<R: Rng>(
        traj: &Trajectory,
        fa: &FrequencyAnalysis,
        slot: usize,
        rng: &mut R,
    ) -> Vec<(PointKey, usize)> {
        let mut counts = PfCounts::new(fa);
        counts.count(fa, fa.locations(), slot, traj);
        select_point_list(&mut counts, fa, slot, rng)
    }

    /// The hash-set point-list selection the dense-id one replaced.
    fn reference_select_point_list<R: Rng + ?Sized>(
        traj: &Trajectory,
        analysis: &FrequencyAnalysis,
        slot: usize,
        rng: &mut R,
    ) -> Vec<PointKey> {
        let m = analysis.m;
        let mut list: Vec<PointKey> = analysis.signature_points(slot);
        list.truncate(m);
        let mut in_p: Vec<PointKey> = Vec::new();
        let mut rest: Vec<PointKey> = Vec::new();
        let mut seen: HashSet<PointKey> = list.iter().copied().collect();
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

    /// The hash-map PF perturbation the dense-id one replaced.
    fn reference_perturb_pf<R: Rng + ?Sized>(
        traj: &Trajectory,
        point_list: &[PointKey],
        m: usize,
        epsilon: f64,
        opts: LocalOptions,
        rng: &mut R,
    ) -> Result<PfPlan, MechError> {
        let scale = LaplaceMechanism::new(epsilon, 1.0)?.noise_scale();
        let mut pf: HashMap<PointKey, usize> = HashMap::new();
        for s in &traj.samples {
            *pf.entry(s.loc.key()).or_insert(0) += 1;
        }
        let mut entries = Vec::with_capacity(point_list.len());
        let stage1 = &point_list[..m.min(point_list.len())];
        let mut noise_sum = 0.0;
        for &p in stage1 {
            let f = *pf.get(&p).unwrap_or(&0);
            let mean = if opts.zero_mean { 0.0 } else { -(f as f64) };
            let eta = Laplace::new(mean, scale)?.sample(rng);
            let f_star = round_count(f as f64 + eta);
            noise_sum += f_star as f64 - f as f64;
            entries.push((p, f, f_star));
        }
        let mu_bar = if stage1.is_empty() { 0.0 } else { noise_sum / stage1.len() as f64 };
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

    /// The reference plan of the unit at `slot`, from its own stream.
    fn reference_plan(
        traj: &Trajectory,
        fa: &FrequencyAnalysis,
        slot: usize,
        opts: LocalOptions,
        root_seed: u64,
    ) -> Vec<(PointKey, usize, u64)> {
        let mut rng = stream_rng(root_seed, PHASE_LOCAL, slot as u64);
        let list = reference_select_point_list(traj, fa, slot, &mut rng);
        reference_perturb_pf(traj, &list, fa.m, 0.7, opts, &mut rng).unwrap().entries
    }

    /// `ds` with points the analysis of `ds` never saw spliced into
    /// every other trajectory, and one sample of every third removed.
    fn edited(ds: &Dataset) -> Dataset {
        let mut out = ds.clone();
        let fresh = grid(5);
        for (t, traj) in out.trajectories.iter_mut().enumerate() {
            if t % 3 == 0 && !traj.samples.is_empty() {
                traj.samples.remove(traj.len() / 2);
            }
            if t % 2 == 0 {
                for (i, p) in fresh.iter().enumerate() {
                    let at = (i * 7) % (traj.len() + 1);
                    traj.samples.insert(at, Sample::new(Point::new(p.x + 0.5, -p.y - 1.0), 0));
                }
                for (i, s) in traj.samples.iter_mut().enumerate() {
                    s.t = i as i64;
                }
            }
        }
        Dataset::from_trajectories(out.trajectories)
    }

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
        let list = point_list(&d.trajectories[0], &fa, 0, &mut rng);
        let sig = fa.signature_points(0);
        let keys: Vec<PointKey> = list.iter().map(|&(k, _)| k).collect();
        assert_eq!(&keys[..sig.len()], &sig[..]);
        let set: HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), list.len(), "duplicate entries in PL(τ)");
        assert!(list.len() <= 2 * fa.m);
    }

    #[test]
    fn point_list_saturates_on_short_trajectories() {
        let d = Dataset::from_trajectories(vec![traj(0, &[1.0, 2.0, 1.0])]);
        let fa = FrequencyAnalysis::compute(&d, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let list = point_list(&d.trajectories[0], &fa, 0, &mut rng);
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
        let list = point_list(t, &fa, 0, &mut rng);
        let mut suppressed = 0usize;
        let runs = 300;
        for _ in 0..runs {
            let plan = perturb_pf(&list, 2, 2.0, LocalOptions::default(), &mut rng).unwrap();
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
        let list = point_list(t, &fa, 0, &mut rng);
        let opts = LocalOptions { zero_mean: true, ..Default::default() };
        let (mut up, mut down) = (0usize, 0usize);
        for _ in 0..400 {
            let plan = perturb_pf(&list, 2, 1.0, opts, &mut rng).unwrap();
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
        let list = point_list(t, &fa, 0, &mut rng);
        let full = perturb_pf(&list, 2, 1.0, LocalOptions::default(), &mut rng).unwrap();
        let s1 = perturb_pf(
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
        let (out, report) = apply_local_streamed(
            &d,
            &fa,
            fa.locations(),
            0.5,
            IndexKind::default(),
            LocalOptions::default(),
            1,
            6,
        )
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
            fa.locations(),
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
                fa.locations(),
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
            apply_local_streamed(&d, &fa, fa.locations(), 0.5, kind, LocalOptions::default(), 1, 1)
                .unwrap();
        let (b, _) =
            apply_local_streamed(&d, &fa, fa.locations(), 0.5, kind, LocalOptions::default(), 1, 2)
                .unwrap();
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
                fa.locations(),
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
                fa.locations(),
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
                fa.locations(),
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

    #[test]
    fn dense_point_lists_and_plans_match_the_hash_map_reference() {
        let stage1_only = LocalOptions { stage2: false, ..Default::default() };
        for (i, d) in edge_datasets().iter().enumerate() {
            for m in [1, 3, 8] {
                let fa = FrequencyAnalysis::compute(d, m);
                for opts in [LocalOptions::default(), stage1_only] {
                    for (slot, traj) in d.trajectories.iter().enumerate() {
                        let mut rng = StdRng::seed_from_u64(slot as u64);
                        let mut ref_rng = rng.clone();
                        let list = point_list(traj, &fa, slot, &mut rng);
                        let plan = perturb_pf(&list, m, 0.7, opts, &mut rng).unwrap();
                        let ref_list = reference_select_point_list(traj, &fa, slot, &mut ref_rng);
                        let ref_plan =
                            reference_perturb_pf(traj, &ref_list, m, 0.7, opts, &mut ref_rng)
                                .unwrap();
                        let keys: Vec<PointKey> = list.iter().map(|&(k, _)| k).collect();
                        assert_eq!(keys, ref_list, "dataset {i}, m {m}, slot {slot}");
                        assert_eq!(
                            plan.entries, ref_plan.entries,
                            "dataset {i}, m {m}, slot {slot}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn units_on_unseen_locations_match_the_hash_map_reference() {
        // The analysis sees `d`; the units run on an edited copy holding
        // locations it never saw, on a fresh scratch per unit and on one
        // scratch per shard.
        let finite = |d: &Dataset| {
            d.trajectories
                .iter()
                .flat_map(|t| t.points())
                .all(|p| p.x.is_finite() && p.y.is_finite())
        };
        for (i, d) in edge_datasets().iter().enumerate().filter(|(_, d)| finite(d)) {
            let fa = FrequencyAnalysis::compute(d, 3);
            let e = edited(d);
            let opts = LocalOptions::default();
            let expected: Vec<_> = e
                .trajectories
                .iter()
                .enumerate()
                .map(|(slot, traj)| reference_plan(traj, &fa, slot, opts, 41))
                .collect();
            for (slot, traj) in e.trajectories.iter().enumerate() {
                let unit = local_unit_streamed(
                    traj,
                    &fa,
                    slot,
                    0.7,
                    IndexKind::default(),
                    opts,
                    e.domain,
                    41,
                )
                .unwrap();
                assert_eq!(unit.plan.entries, expected[slot], "dataset {i}, slot {slot}");
            }
            for workers in [1, 2] {
                let (_, report) = apply_local_streamed(
                    &e,
                    &fa,
                    fa.locations(),
                    0.7,
                    IndexKind::default(),
                    opts,
                    workers,
                    41,
                )
                .unwrap();
                let plans: Vec<_> = report.plans.into_iter().map(|p| p.entries).collect();
                assert_eq!(plans, expected, "dataset {i}, {workers} workers");
            }
        }
    }
    #[test]
    fn units_on_a_global_phase_output_match_the_hash_map_reference() {
        // GL: the local phase runs on what the global phase edited, with
        // the sample ids its editor kept. Those ids describe every edited
        // trajectory exactly and are all the analysis's own (a TF
        // increase brings only candidate points), so no sample is looked
        // up, and the plans are the hash-map reference's.
        use crate::global::apply_global_streamed;
        use trajdp_synth::{generate, GeneratorConfig};
        let mut inputs = edge_datasets();
        inputs.push(generate(&GeneratorConfig::tdrive_profile(30, 60, 7)).dataset);
        let mut edits = 0;
        for (i, d) in inputs.iter().enumerate() {
            let fa = FrequencyAnalysis::compute(d, 3);
            let (mid, ids, global) =
                apply_global_streamed(d, &fa, 0.3, IndexKind::default(), 41).unwrap();
            edits += global.insertions + global.deletions;
            for (slot, traj) in mid.trajectories.iter().enumerate() {
                let stored = ids.trajectory(slot);
                assert_eq!(stored.len(), traj.len(), "dataset {i}, slot {slot}");
                for (s, &id) in traj.samples.iter().zip(stored) {
                    assert_eq!(ids.key(id), s.loc.key(), "dataset {i}, slot {slot}: stale id");
                    assert!((id as usize) < fa.locations().len(), "dataset {i}: unseen location");
                }
            }
            let opts = LocalOptions::default();
            let expected: Vec<_> = mid
                .trajectories
                .iter()
                .enumerate()
                .map(|(slot, traj)| reference_plan(traj, &fa, slot, opts, 41))
                .collect();
            for workers in [1, 2] {
                let (_, report) = apply_local_streamed(
                    &mid,
                    &fa,
                    &ids,
                    0.7,
                    IndexKind::default(),
                    opts,
                    workers,
                    41,
                )
                .unwrap();
                let plans: Vec<_> = report.plans.into_iter().map(|p| p.entries).collect();
                assert_eq!(plans, expected, "dataset {i}, {workers} workers");
            }
        }
        assert!(edits > 100, "too few global edits to tell: {edits}");
    }
}
