//! The published models: `PureG`, `PureL`, and the composed `GL`
//! (§V-A "Frequency-based randomized DP models").
//!
//! Composition follows Theorem 1: the global mechanism spends ε_G, the
//! local mechanism ε_L, and the combined model is (ε_G + ε_L)-DP. The
//! two mechanisms are independent and may run in either order (the paper
//! notes exchangeable ordering); [`Model::Combined`] runs global first,
//! [`Model::CombinedLocalFirst`] the reverse.

use crate::freq::FrequencyAnalysis;
use crate::global::{apply_global_streamed, GlobalReport};
use crate::indexkind::IndexKind;
use crate::local::{apply_local_streamed, LocalOptions, LocalReport};
use std::time::Duration;
use trajdp_mech::{LaplaceMechanism, MechError};
use trajdp_model::{Dataset, LocationTable};

/// Which anonymization model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Global TF perturbation only (ε = ε_G).
    PureGlobal,
    /// Local PF perturbation only (ε = ε_L).
    PureLocal,
    /// Global then local (ε = ε_G + ε_L).
    Combined,
    /// Local then global (ε = ε_G + ε_L) — exchangeable ordering.
    CombinedLocalFirst,
}

/// Configuration shared by all models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqDpConfig {
    /// Signature size `m` (the paper uses 10).
    pub m: usize,
    /// Budget of the global mechanism, ε_G.
    pub eps_global: f64,
    /// Budget of the local mechanism, ε_L.
    pub eps_local: f64,
    /// Index used by the modification phase.
    pub index: IndexKind,
    /// Local-mechanism ablation switches.
    pub local_opts: LocalOptions,
    /// Ignored: every TF increase of the global modification phase is
    /// one grouped search of the segment index. The trajectory-bbox
    /// search this once selected (§V-C's future-work pruning) picked the
    /// same trajectories, so either value releases the same bytes.
    pub bbox_pruning: bool,
    /// Worker threads for the per-trajectory local mechanism, the one
    /// sharded phase; the global mechanism (TF perturbation and
    /// `GlobalEdit`) runs serially at every value. Randomness comes from
    /// per-unit streams, so the output is byte-identical at every value;
    /// `1` runs fully serial on the calling thread.
    pub workers: usize,
    /// RNG seed for reproducible runs.
    pub seed: u64,
}

impl Default for FreqDpConfig {
    fn default() -> Self {
        Self {
            m: 10,
            eps_global: 0.5,
            eps_local: 0.5,
            index: IndexKind::default(),
            local_opts: LocalOptions::default(),
            bbox_pruning: false,
            workers: 1,
            seed: 0xFD01,
        }
    }
}

/// Everything a model run produces.
#[derive(Debug, Clone)]
pub struct AnonymizedOutput {
    /// The anonymized dataset.
    pub dataset: Dataset,
    /// Total privacy budget spent (ε).
    pub epsilon_spent: f64,
    /// Global-mechanism report, when the model includes it.
    pub global: Option<GlobalReport>,
    /// Local-mechanism report, when the model includes it.
    pub local: Option<LocalReport>,
    /// Wall time of the global phase (perturbation + modification).
    pub global_time: Duration,
    /// Wall time of the local phase.
    pub local_time: Duration,
}

impl AnonymizedOutput {
    /// Total utility loss across both phases.
    pub fn utility_loss(&self) -> f64 {
        self.global.as_ref().map_or(0.0, |g| g.utility_loss)
            + self.local.as_ref().map_or(0.0, |l| l.utility_loss)
    }

    /// Total number of edit operations performed.
    pub fn total_edits(&self) -> usize {
        self.global.as_ref().map_or(0, |g| g.insertions + g.deletions)
            + self.local.as_ref().map_or(0, |l| l.insertions + l.deletions)
    }
}

/// The end-to-end ε a model spends (Theorem 1): the sum of the budgets of
/// the mechanisms it runs. Fails when any of those budgets is one the
/// Laplace mechanism rejects — non-positive, non-finite, or so close to
/// zero that the noise scale `1/ε` overflows — so callers can refuse a
/// bad budget split before running anything.
pub fn total_budget(model: Model, eps_global: f64, eps_local: f64) -> Result<f64, MechError> {
    let spent: &[f64] = match model {
        Model::PureGlobal => &[eps_global],
        Model::PureLocal => &[eps_local],
        Model::Combined | Model::CombinedLocalFirst => &[eps_global, eps_local],
    };
    for &epsilon in spent {
        // Both mechanisms answer point-counting queries of sensitivity 1.
        LaplaceMechanism::new(epsilon, 1.0)?;
    }
    Ok(spent.iter().sum())
}

/// Runs a model end to end on a dataset — the one whole-pipeline entry
/// point behind the CLI, the server, and the benches.
///
/// The signature analysis runs once on the *original* dataset, as in the
/// paper — both mechanisms perturb the same candidate set `P`, and the
/// release is (ε_G + ε_L)-DP for the combined models ([`total_budget`]
/// validates both budgets before either mechanism runs).
///
/// Randomness comes from **per-unit streams** derived from `cfg.seed`
/// (see [`crate::stream`]): one stream per candidate point in the global
/// phase, one per trajectory in the local phase. The local phase shards
/// its trajectories over `cfg.workers` threads, and because a unit's
/// draws do not depend on which thread evaluates it, the output is a
/// pure function of `(dataset, model, cfg)` — byte-identical at every
/// worker count. The global mechanism runs serially.
pub fn anonymize(
    ds: &Dataset,
    model: Model,
    cfg: &FreqDpConfig,
) -> Result<AnonymizedOutput, MechError> {
    let epsilon_spent = total_budget(model, cfg.eps_global, cfg.eps_local)?;
    let analysis = FrequencyAnalysis::compute(ds, cfg.m);
    // The global phase hands on the sample ids of the dataset it edited,
    // so a local phase run on that dataset next looks none of them up.
    let run_global =
        |input: &Dataset| -> Result<(Dataset, LocationTable, GlobalReport, Duration), MechError> {
            // lint: allow(determinism): phase wall-time is reporting-only; the phase output never reads it
            let start = std::time::Instant::now();
            let (out, ids, report) =
                apply_global_streamed(input, &analysis, cfg.eps_global, cfg.index, cfg.seed)?;
            Ok((out, ids, report, start.elapsed()))
        };
    let run_local = |input: &Dataset,
                     samples: &LocationTable|
     -> Result<(Dataset, LocalReport, Duration), MechError> {
        // lint: allow(determinism): phase wall-time is reporting-only; the phase output never reads it
        let start = std::time::Instant::now();
        let (out, report) = apply_local_streamed(
            input,
            &analysis,
            samples,
            cfg.eps_local,
            cfg.index,
            cfg.local_opts,
            cfg.workers,
            cfg.seed,
        )?;
        Ok((out, report, start.elapsed()))
    };

    let (dataset, global, local, global_time, local_time) = match model {
        Model::PureGlobal => {
            let (out, _, g, t) = run_global(ds)?;
            (out, Some(g), None, t, Duration::ZERO)
        }
        Model::PureLocal => {
            let (out, l, t) = run_local(ds, analysis.locations())?;
            (out, None, Some(l), Duration::ZERO, t)
        }
        Model::Combined => {
            let (mid, ids, g, tg) = run_global(ds)?;
            let (out, l, tl) = run_local(&mid, &ids)?;
            (out, Some(g), Some(l), tg, tl)
        }
        Model::CombinedLocalFirst => {
            let (mid, l, tl) = run_local(ds, analysis.locations())?;
            let (out, _, g, tg) = run_global(&mid)?;
            (out, Some(g), Some(l), tg, tl)
        }
    };

    Ok(AnonymizedOutput { dataset, epsilon_spent, global, local, global_time, local_time })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdp_model::{Point, Sample, Trajectory};

    fn ds() -> Dataset {
        let mk = |id: u64, pts: &[(f64, f64)]| {
            Trajectory::new(
                id,
                pts.iter()
                    .enumerate()
                    .map(|(i, &(x, y))| Sample::new(Point::new(x, y), i as i64 * 10))
                    .collect(),
            )
        };
        Dataset::from_trajectories(vec![
            mk(0, &[(0.0, 0.0), (10.0, 0.0), (0.0, 0.0), (20.0, 5.0), (0.0, 0.0), (30.0, 0.0)]),
            mk(1, &[(100.0, 100.0), (110.0, 100.0), (100.0, 100.0), (120.0, 100.0)]),
            mk(2, &[(200.0, 0.0), (210.0, 0.0), (220.0, 0.0), (210.0, 0.0)]),
            mk(3, &[(50.0, 50.0), (60.0, 50.0), (50.0, 50.0), (70.0, 55.0)]),
        ])
    }

    fn cfg() -> FreqDpConfig {
        FreqDpConfig { m: 3, ..Default::default() }
    }

    #[test]
    fn pure_global_spends_only_eps_g() {
        let out = anonymize(&ds(), Model::PureGlobal, &cfg()).unwrap();
        assert_eq!(out.epsilon_spent, 0.5);
        assert!(out.global.is_some());
        assert!(out.local.is_none());
    }

    #[test]
    fn pure_local_spends_only_eps_l() {
        let out = anonymize(&ds(), Model::PureLocal, &cfg()).unwrap();
        assert_eq!(out.epsilon_spent, 0.5);
        assert!(out.global.is_none());
        assert!(out.local.is_some());
    }

    #[test]
    fn combined_spends_full_budget_both_orders() {
        for model in [Model::Combined, Model::CombinedLocalFirst] {
            let out = anonymize(&ds(), model, &cfg()).unwrap();
            assert_eq!(out.epsilon_spent, 1.0, "{model:?}");
            assert!(out.global.is_some() && out.local.is_some());
        }
    }

    #[test]
    fn preserves_trajectory_count_and_ids() {
        let d = ds();
        for model in
            [Model::PureGlobal, Model::PureLocal, Model::Combined, Model::CombinedLocalFirst]
        {
            let out = anonymize(&d, model, &cfg()).unwrap();
            assert_eq!(out.dataset.len(), d.len(), "{model:?}");
            for (a, b) in out.dataset.trajectories.iter().zip(&d.trajectories) {
                assert_eq!(a.id, b.id, "{model:?} must not reorder objects");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = ds();
        let a = anonymize(&d, Model::Combined, &cfg()).unwrap();
        let b = anonymize(&d, Model::Combined, &cfg()).unwrap();
        assert_eq!(a.dataset, b.dataset);
        let mut c2 = cfg();
        c2.seed = 999;
        let c = anonymize(&d, Model::Combined, &c2).unwrap();
        assert_ne!(a.dataset, c.dataset, "different seeds should differ");
    }

    #[test]
    fn utility_loss_and_edits_consistent() {
        let out = anonymize(&ds(), Model::Combined, &cfg()).unwrap();
        assert!(out.utility_loss().is_finite());
        if out.total_edits() == 0 {
            assert_eq!(out.utility_loss(), 0.0);
        }
    }

    #[test]
    fn large_epsilon_changes_little() {
        let d = ds();
        let mut c = cfg();
        c.eps_global = 1000.0;
        c.eps_local = 1000.0;
        let out = anonymize(&d, Model::PureGlobal, &c).unwrap();
        // Huge ε → negligible noise → TF unchanged → dataset unchanged.
        assert_eq!(out.dataset, d);
    }

    const MODELS: [Model; 4] =
        [Model::PureGlobal, Model::PureLocal, Model::Combined, Model::CombinedLocalFirst];

    #[test]
    fn parallel_combined_matches_serial() {
        // `cfg.workers > 1` shards the local phase;
        // every worker count must agree byte for byte with the serial
        // run.
        let d = ds();
        let serial = anonymize(&d, Model::Combined, &FreqDpConfig { m: 3, ..cfg() }).unwrap();
        for workers in [2usize, 8] {
            let cfg = FreqDpConfig { m: 3, workers, ..Default::default() };
            let sharded = anonymize(&d, Model::Combined, &cfg).unwrap();
            assert_eq!(sharded.dataset, serial.dataset, "{workers} workers");
        }
    }

    #[test]
    fn matches_serial_for_every_model_and_worker_count() {
        let d = ds();
        let base = FreqDpConfig { m: 3, seed: 0xFEED, ..Default::default() };
        for model in MODELS {
            let serial = anonymize(&d, model, &base).unwrap();
            for workers in [1usize, 2, 3, 8] {
                let sharded = anonymize(&d, model, &FreqDpConfig { workers, ..base }).unwrap();
                assert_eq!(
                    sharded.dataset, serial.dataset,
                    "{model:?} with {workers} workers diverged from serial"
                );
                assert_eq!(sharded.epsilon_spent, serial.epsilon_spent);
                assert_eq!(sharded.total_edits(), serial.total_edits(), "{model:?}");
                assert_eq!(sharded.utility_loss(), serial.utility_loss(), "{model:?}");
            }
        }
    }

    #[test]
    fn more_workers_than_units_is_fine() {
        let d = ds();
        let base = FreqDpConfig { m: 2, ..Default::default() };
        let serial = anonymize(&d, Model::Combined, &base).unwrap();
        let sharded =
            anonymize(&d, Model::Combined, &FreqDpConfig { workers: 64, ..base }).unwrap();
        assert_eq!(sharded.dataset, serial.dataset);
    }

    #[test]
    fn empty_dataset_is_handled() {
        let cfg = FreqDpConfig { m: 2, workers: 4, ..Default::default() };
        let empty = Dataset::from_trajectories(vec![]);
        for model in MODELS {
            let out = anonymize(&empty, model, &cfg).unwrap();
            assert_eq!(out.dataset.len(), 0, "{model:?}");
        }
    }

    #[test]
    fn unusable_epsilon_is_an_error_for_every_model() {
        // 1e-320 is positive, but its noise scale 1/ε overflows; a zero
        // share is what a tiny ε times an ε split underflows to. Both
        // must come back as errors, not panics.
        for tiny in [1e-320, 0.0] {
            for model in MODELS {
                let cfg = FreqDpConfig { m: 3, eps_global: tiny, eps_local: tiny, ..cfg() };
                let err = anonymize(&ds(), model, &cfg).unwrap_err();
                assert_eq!(err, MechError::NonPositiveEpsilon { epsilon: tiny }, "{model:?}");
            }
        }
        // A combined model fails when either share is unusable; a pure
        // model ignores the share it never spends.
        let cfg = FreqDpConfig { eps_global: 1.0, eps_local: 1e-320, ..cfg() };
        assert!(anonymize(&ds(), Model::Combined, &cfg).is_err());
        assert!(anonymize(&ds(), Model::CombinedLocalFirst, &cfg).is_err());
        assert!(anonymize(&ds(), Model::PureLocal, &cfg).is_err());
        assert_eq!(anonymize(&ds(), Model::PureGlobal, &cfg).unwrap().epsilon_spent, 1.0);
    }

    #[test]
    fn timings_populated_per_model() {
        let out = anonymize(&ds(), Model::PureGlobal, &cfg()).unwrap();
        assert_eq!(out.local_time, Duration::ZERO);
        let out = anonymize(&ds(), Model::PureLocal, &cfg()).unwrap();
        assert_eq!(out.global_time, Duration::ZERO);
    }
}
