//! # trajdp_bench
//!
//! Shared harness for regenerating the paper's experimental artifacts:
//!
//! * `table2` — Table II: effectiveness of all 14 methods.
//! * `fig4` — Figure 4: impact of the privacy budget ε on PureG /
//!   PureL / GL.
//! * `fig5` — Figure 5: modification efficiency across index variants
//!   and dataset sizes.
//! * `ablation_*` — design-choice ablations (stage 2, mean shift,
//!   budget split).
//!
//! The library half hosts the evaluation pipeline each binary shares:
//! dataset generation ([`standard_world`]), per-model evaluation
//! ([`evaluate`]), and fixed-width table printing.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};
use trajdp_attacks::{HmmMapMatcher, LinkingAttack, SignatureType};
use trajdp_metrics::{recovery_metrics, scores, RecoveryMetrics, Scores};
use trajdp_model::Dataset;
use trajdp_synth::{generate, GeneratorConfig};

/// Re-export the world type for binaries.
pub use trajdp_synth::generator::SyntheticWorld;

/// Point tolerance for recovery accuracy, metres.
pub const POINT_TOLERANCE: f64 = 50.0;

/// Generates the standard experiment world: `size` taxis under the
/// calibrated [`GeneratorConfig::tdrive_profile`] (see its docs for why
/// the profile is shaped the way it is).
pub fn standard_world(size: usize, points_per_trajectory: usize, seed: u64) -> SyntheticWorld {
    generate(&GeneratorConfig::tdrive_profile(size, points_per_trajectory, seed))
}

/// One evaluated method: every column of Table II.
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// Method name as printed.
    pub name: String,
    /// Linking accuracy via spatial signatures.
    pub la_s: f64,
    /// Linking accuracy via temporal signatures (`None` for generative
    /// models without meaningful timestamps).
    pub la_t: Option<f64>,
    /// Linking accuracy via spatiotemporal signatures.
    pub la_st: Option<f64>,
    /// Linking accuracy via sequential signatures.
    pub la_sq: f64,
    /// Normalized mutual information.
    pub mi: f64,
    /// Point-based information loss.
    pub inf: f64,
    /// Diameter-distribution divergence.
    pub de: f64,
    /// Trip-distribution divergence.
    pub te: f64,
    /// Frequent-pattern F-measure.
    pub ffp: f64,
    /// Recovery metrics (`None` for generative models — the synthetic
    /// traces are not aligned to the road network).
    pub recovery: Option<RecoveryMetrics>,
    /// Wall time of the anonymization itself.
    pub anonymize_time: Duration,
}

/// Options for [`evaluate`].
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Run the four linking attacks.
    pub linking: bool,
    /// Run the HMM map-matching recovery attack (the expensive part).
    pub recovery: bool,
    /// Treat the method as generative (skip temporal/ST linking and
    /// recovery, as the paper does for DPT/AdaTrace).
    pub generative: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self { linking: true, recovery: true, generative: false }
    }
}

/// Evaluates one anonymized release against the original world.
pub fn evaluate(
    name: &str,
    world: &SyntheticWorld,
    anonymized: &Dataset,
    anonymize_time: Duration,
    opts: EvalOptions,
) -> EvalRow {
    let original = &world.dataset;
    let la = |sig: SignatureType| -> f64 {
        LinkingAttack::new(sig).linking_accuracy(original, anonymized)
    };
    let (la_s, la_t, la_st, la_sq) = if opts.linking {
        (
            la(SignatureType::Spatial),
            (!opts.generative).then(|| la(SignatureType::Temporal)),
            (!opts.generative).then(|| la(SignatureType::Spatiotemporal)),
            la(SignatureType::Sequential),
        )
    } else {
        (0.0, None, None, 0.0)
    };
    let Scores { mi, inf, de, te, ffp } = scores(original, anonymized);
    let recovery = if opts.recovery && !opts.generative {
        let matcher = HmmMapMatcher::new(&world.network);
        let recovered = recover_parallel(&matcher, &anonymized.trajectories);
        Some(recovery_metrics(&original.trajectories, &recovered, POINT_TOLERANCE))
    } else {
        None
    };
    EvalRow {
        name: name.to_string(),
        la_s,
        la_t,
        la_st,
        la_sq,
        mi,
        inf,
        de,
        te,
        ffp,
        recovery,
        anonymize_time,
    }
}

/// Runs the recovery attack across trajectories in parallel.
pub fn recover_parallel(
    matcher: &HmmMapMatcher<'_>,
    trajs: &[trajdp_model::Trajectory],
) -> Vec<trajdp_model::Trajectory> {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let chunk = trajs.len().div_ceil(threads).max(1);
    let mut out: Vec<Option<trajdp_model::Trajectory>> = vec![None; trajs.len()];
    std::thread::scope(|s| {
        for (slice_in, slice_out) in trajs.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (t, slot) in slice_in.iter().zip(slice_out.iter_mut()) {
                    *slot = Some(matcher.recover(t));
                }
            });
        }
    });
    out.into_iter().map(|t| t.expect("all slots filled")).collect()
}

/// Times a closure, returning its output and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_string(),
    }
}

/// Prints rows in the layout of Table II (metrics as rows, methods as
/// columns would be unwieldy; we print one method per line instead).
pub fn print_table(rows: &[EvalRow]) {
    println!(
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} {:>6} {:>6} | {:>9}",
        "Method", "LAs", "LAt", "LAst", "LAsq", "MI", "INF", "DE", "TE", "FFP", "Prec", "Rec",
        "F-score", "RMF", "Acc", "time(s)"
    );
    println!("{}", "-".repeat(132));
    for r in rows {
        let rec = r.recovery;
        println!(
            "{:<12} {:>6.3} {:>6} {:>6} {:>6.3} {:>6.3} | {:>6.3} {:>6.3} {:>6.3} {:>6.3} | {:>6} {:>6} {:>7} {:>6} {:>6} | {:>9.2}",
            r.name,
            r.la_s,
            fmt_opt(r.la_t),
            fmt_opt(r.la_st),
            r.la_sq,
            r.mi,
            r.inf,
            r.de,
            r.te,
            r.ffp,
            fmt_opt(rec.map(|m| m.precision)),
            fmt_opt(rec.map(|m| m.recall)),
            fmt_opt(rec.map(|m| m.f_score)),
            fmt_opt(rec.map(|m| m.rmf)),
            fmt_opt(rec.map(|m| m.accuracy)),
            r.anonymize_time.as_secs_f64(),
        );
    }
}

/// Reads a `usize` experiment parameter from the environment, with a
/// default — lets `TRAJDP_SIZE=1000 cargo run --bin table2` reproduce
/// the paper-scale run while keeping the default fast.
pub fn env_param(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_world_shape() {
        let w = standard_world(8, 40, 1);
        assert_eq!(w.dataset.len(), 8);
        assert!(w.dataset.trajectories.iter().all(|t| t.len() == 40));
    }

    #[test]
    fn evaluate_identity_release() {
        let w = standard_world(6, 40, 2);
        let row = evaluate(
            "identity",
            &w,
            &w.dataset,
            Duration::ZERO,
            EvalOptions { recovery: false, ..Default::default() },
        );
        assert!(row.la_s > 0.9, "identity release must be fully linkable");
        assert_eq!(row.inf, 0.0);
        assert!(row.de < 1e-9);
        assert_eq!(row.ffp, 1.0);
        assert!(row.mi > 0.99);
    }

    #[test]
    fn evaluate_generative_skips_recovery_and_temporal() {
        let w = standard_world(5, 30, 3);
        let row = evaluate(
            "gen",
            &w,
            &w.dataset,
            Duration::ZERO,
            EvalOptions { generative: true, ..Default::default() },
        );
        assert!(row.recovery.is_none());
        assert!(row.la_t.is_none());
        assert!(row.la_st.is_none());
    }

    #[test]
    fn recover_parallel_matches_serial() {
        let w = standard_world(4, 30, 4);
        let matcher = HmmMapMatcher::new(&w.network);
        let par = recover_parallel(&matcher, &w.dataset.trajectories);
        for (t, p) in w.dataset.trajectories.iter().zip(&par) {
            let serial = matcher.recover(t);
            assert_eq!(&serial, p);
        }
    }

    #[test]
    fn env_param_parsing() {
        std::env::remove_var("TRAJDP_TEST_PARAM_X");
        assert_eq!(env_param("TRAJDP_TEST_PARAM_X", 7), 7);
        std::env::set_var("TRAJDP_TEST_PARAM_X", "42");
        assert_eq!(env_param("TRAJDP_TEST_PARAM_X", 7), 42);
        std::env::set_var("TRAJDP_TEST_PARAM_X", "bogus");
        assert_eq!(env_param("TRAJDP_TEST_PARAM_X", 7), 7);
        std::env::remove_var("TRAJDP_TEST_PARAM_X");
    }

    #[test]
    fn timed_measures() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }
}
