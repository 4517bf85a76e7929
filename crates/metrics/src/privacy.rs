//! Mutual information between original and anonymized datasets.
//!
//! Following the usage in the paper (after Yang et al., CCS'12 and Li et
//! al., Inf. Sci.'17): discretize locations into grid cells, pair the
//! i-th sample of each original trajectory with the i-th sample of its
//! anonymized counterpart, and measure how much information the
//! anonymized location reveals about the original one. The value is
//! normalized by the joint entropy so it lies in `[0, 1]`; smaller
//! means better protection.

use std::collections::{BTreeMap, HashMap};
use trajdp_model::{Dataset, GridLevel};

/// Normalized mutual information between paired samples of `original`
/// and `anonymized`, discretized on a `granularity × granularity` grid
/// over the original's domain.
///
/// Trajectories are paired by position in the dataset (the anonymized
/// dataset preserves object order); samples are paired by index up to
/// the shorter length. Returns 0 when no pairs exist.
pub fn mutual_information(original: &Dataset, anonymized: &Dataset, granularity: u32) -> f64 {
    assert_eq!(original.len(), anonymized.len(), "datasets must contain the same objects");
    let grid = GridLevel::new(original.domain, granularity, 0);
    // Ordered, so the float sums below add in one fixed order and the
    // score is the same bits on every call.
    let mut joint: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut total = 0.0f64;
    for (o, a) in original.trajectories.iter().zip(&anonymized.trajectories) {
        for (so, sa) in o.samples.iter().zip(&a.samples) {
            let co = grid.locate(&so.loc);
            let ca = grid.locate(&sa.loc);
            let key = (
                u64::from(co.col) << 32 | u64::from(co.row),
                u64::from(ca.col) << 32 | u64::from(ca.row),
            );
            *joint.entry(key).or_insert(0.0) += 1.0;
            total += 1.0;
        }
    }
    if total == 0.0 {
        return 0.0;
    }
    let mut px: HashMap<u64, f64> = HashMap::new();
    let mut py: HashMap<u64, f64> = HashMap::new();
    for (&(x, y), &c) in &joint {
        *px.entry(x).or_insert(0.0) += c / total;
        *py.entry(y).or_insert(0.0) += c / total;
    }
    let mut mi = 0.0;
    let mut h_joint = 0.0;
    for (&(x, y), &c) in &joint {
        let pxy = c / total;
        mi += pxy * (pxy / (px[&x] * py[&y])).ln();
        h_joint -= pxy * pxy.ln();
    }
    if h_joint <= 0.0 {
        // Degenerate: a single joint cell. X and Y are then constants and
        // reveal nothing about each other.
        return 0.0;
    }
    (mi / h_joint).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use trajdp_model::{Point, Rect, Sample, Trajectory};

    fn random_dataset(seed: u64, n: usize, len: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let trajs = (0..n)
            .map(|id| {
                Trajectory::new(
                    id as u64,
                    (0..len)
                        .map(|i| {
                            Sample::new(
                                Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                                i as i64,
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        Dataset::new(Rect::new(0.0, 0.0, 1000.0, 1000.0), trajs)
    }

    #[test]
    fn identity_gives_maximal_dependence() {
        let d = random_dataset(1, 10, 50);
        let mi = mutual_information(&d, &d, 32);
        // Identical data: MI equals the entropy → normalized value 1.
        assert!(mi > 0.99, "identity MI should be ≈1, got {mi}");
    }

    #[test]
    fn independent_data_gives_low_mi() {
        let a = random_dataset(2, 20, 80);
        let b = random_dataset(999, 20, 80);
        let mi = mutual_information(&a, &b, 16);
        assert!(mi < 0.5, "independent data should have low MI, got {mi}");
    }

    #[test]
    fn partial_anonymization_lies_between() {
        let d = random_dataset(3, 10, 60);
        // Replace half of every trajectory with unrelated noise.
        let mut rng = StdRng::seed_from_u64(4);
        let mut anon = d.clone();
        for t in &mut anon.trajectories {
            for s in t.samples.iter_mut().skip(30) {
                s.loc = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            }
        }
        let full = mutual_information(&d, &d, 16);
        let half = mutual_information(&d, &anon, 16);
        let none = mutual_information(&d, &random_dataset(55, 10, 60), 16);
        assert!(half < full);
        assert!(half > none);
    }

    #[test]
    fn empty_pairs_give_zero() {
        let d = Dataset::new(Rect::new(0.0, 0.0, 1.0, 1.0), vec![]);
        assert_eq!(mutual_information(&d, &d, 8), 0.0);
    }

    #[test]
    fn constant_location_gives_zero() {
        let t = Trajectory::new(0, (0..10).map(|i| Sample::new(Point::new(5.0, 5.0), i)).collect());
        let d = Dataset::new(Rect::new(0.0, 0.0, 10.0, 10.0), vec![t]);
        assert_eq!(mutual_information(&d, &d, 8), 0.0);
    }

    #[test]
    #[should_panic(expected = "same objects")]
    fn mismatched_sizes_panic() {
        let a = random_dataset(1, 3, 5);
        let b = random_dataset(1, 4, 5);
        mutual_information(&a, &b, 8);
    }
}
