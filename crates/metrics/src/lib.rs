//! # trajdp-metrics
//!
//! Evaluation metrics of the paper's experimental study (§V-A):
//!
//! * [`privacy`] — mutual information (MI) between original and
//!   anonymized datasets: lower = better protection.
//! * [`utility`] — point-based information loss (INF), diameter-
//!   distribution divergence (DE), trip-distribution divergence (TE),
//!   and the F-measure of frequent pattern mining (FFP): lower INF/DE/TE
//!   and higher FFP = better utility preservation.
//! * [`recovery`] — route-based precision/recall/F-score, the
//!   length-based route-mismatch fraction (RMF), and point-based
//!   accuracy of a recovery attack's output against the ground truth.
//!
//! [`scores`] computes the five MI/INF/DE/TE/FFP scores at the
//! parameters every report in the workspace uses. Linking accuracy (LA)
//! lives in `trajdp-attacks`, since it is the success rate of the
//! re-identification attack itself.

#![forbid(unsafe_code)]

use trajdp_model::Dataset;

pub mod privacy;
pub mod recovery;
pub mod utility;

pub use privacy::mutual_information;
pub use recovery::{recovery_metrics, RecoveryMetrics};
pub use utility::{
    diameter_divergence, frequent_pattern_f1, hotspot_preservation, information_loss, query_avre,
    trip_divergence,
};

/// The paper's five scores of one anonymized dataset against its
/// original (§V-A). See [`scores`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scores {
    /// Mutual information on a 64 × 64 grid (lower is better).
    pub mi: f64,
    /// Point-based information loss (lower is better).
    pub inf: f64,
    /// Diameter-distribution divergence over 24 bins (lower is better).
    pub de: f64,
    /// Trip-distribution divergence on a 16 × 16 grid (lower is better).
    pub te: f64,
    /// F1 of the top 200 length-2 patterns on a 64 × 64 grid (higher is
    /// better).
    pub ffp: f64,
}

/// Scores `anonymized` against `original` with the one parameter set
/// the CLI, the server's `evaluate` verb and the paper-figure bins
/// share. Both datasets must hold the same objects in the same order.
pub fn scores(original: &Dataset, anonymized: &Dataset) -> Scores {
    Scores {
        mi: mutual_information(original, anonymized, 64),
        inf: information_loss(original, anonymized),
        de: diameter_divergence(original, anonymized, 24),
        te: trip_divergence(original, anonymized, 16),
        ffp: frequent_pattern_f1(original, anonymized, 64, 2, 200),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdp_model::{Point, Rect, Sample, Trajectory};

    #[test]
    fn a_dataset_scored_against_itself_loses_nothing() {
        let traj = |id: u64, y: f64| {
            let samples = (0..6).map(|i| Sample::new(Point::new(10.0 + 15.0 * i as f64, y), i));
            Trajectory::new(id, samples.collect())
        };
        let d = Dataset::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![traj(0, 10.0), traj(1, 50.0), traj(2, 90.0)],
        );
        let s = scores(&d, &d);
        assert_eq!(s.inf, 0.0);
        assert_eq!(s.ffp, 1.0);
        assert!(s.de.abs() < 1e-12 && s.te.abs() < 1e-12, "{s:?}");
    }
}
