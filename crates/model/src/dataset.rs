//! Trajectory datasets: the unit of publication.
//!
//! `D = {τ₁, …, τ_|D|}` with one trajectory per moving object. Two datasets
//! are *adjacent* when they differ in at most one trajectory — the
//! neighbouring relation under which the global mechanism's sensitivity
//! is 1.

use crate::geometry::{Point, PointKey, Rect};
use crate::trajectory::{TrajId, Trajectory};
use std::collections::HashMap;

/// A collection of trajectories over a common spatial domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// The spatial domain every sample lies in; drives grid construction.
    pub domain: Rect,
    /// The trajectories, one per moving object.
    pub trajectories: Vec<Trajectory>,
}

impl Dataset {
    /// Creates a dataset with an explicit domain.
    pub fn new(domain: Rect, trajectories: Vec<Trajectory>) -> Self {
        Self { domain, trajectories }
    }

    /// Creates a dataset, deriving the domain from the data's bounding
    /// box. A grid needs area, so an axis on which every sample shares
    /// one finite value is widened around it by 1 m (or, far from the
    /// origin, by the few ulps the coordinate can resolve); a bounding
    /// box with a positive extent on both axes is kept as it is.
    pub fn from_trajectories(trajectories: Vec<Trajectory>) -> Self {
        let mut domain = Rect::empty();
        for t in &trajectories {
            for s in &t.samples {
                domain.expand(&s.loc);
            }
        }
        if domain.is_empty() {
            domain = Rect::new(0.0, 0.0, 1.0, 1.0);
        }
        for (lo, hi) in
            [(&mut domain.min_x, &mut domain.max_x), (&mut domain.min_y, &mut domain.max_y)]
        {
            if *hi <= *lo && lo.is_finite() {
                let pad = (lo.abs() * f64::EPSILON).max(0.5);
                (*lo, *hi) = (*lo - pad, *hi + pad);
            }
        }
        Self { domain, trajectories }
    }

    /// Number of trajectories (= moving objects), `|D|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Whether the dataset holds no trajectories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// Total number of samples over all trajectories.
    pub fn total_points(&self) -> usize {
        self.trajectories.iter().map(Trajectory::len).sum()
    }

    /// Drops the spare capacity of every sample vector, for a dataset
    /// that is kept resident long after it was built.
    pub fn shrink_to_fit(&mut self) {
        self.trajectories.shrink_to_fit();
        for t in &mut self.trajectories {
            t.samples.shrink_to_fit();
        }
    }

    /// Borrow a trajectory by its object identifier.
    pub fn by_id(&self, id: TrajId) -> Option<&Trajectory> {
        self.trajectories.iter().find(|t| t.id == id)
    }

    /// Trajectory frequency of a location: the number of trajectories that
    /// pass through `q` at least once (the TF counting query of §III-B2,
    /// sensitivity 1 under dataset adjacency).
    pub fn trajectory_frequency(&self, q: PointKey) -> usize {
        self.trajectories.iter().filter(|t| t.passes_through(q)).count()
    }

    /// All distinct sample locations in the dataset.
    pub fn distinct_points(&self) -> Vec<Point> {
        let mut seen: HashMap<PointKey, Point> = HashMap::new();
        for t in &self.trajectories {
            for s in &t.samples {
                seen.entry(s.loc.key()).or_insert(s.loc);
            }
        }
        seen.into_values().collect()
    }

    /// Returns a copy with one trajectory removed — an adjacent dataset in
    /// the differential-privacy sense. Returns `None` when `id` is absent.
    pub fn adjacent_without(&self, id: TrajId) -> Option<Dataset> {
        let pos = self.trajectories.iter().position(|t| t.id == id)?;
        let mut trajectories = self.trajectories.clone();
        trajectories.remove(pos);
        Some(Dataset { domain: self.domain, trajectories })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Sample;

    fn traj(id: TrajId, points: &[(f64, f64)]) -> Trajectory {
        let samples = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Sample::new(Point::new(x, y), i as i64))
            .collect();
        Trajectory::new(id, samples)
    }

    fn dataset() -> Dataset {
        Dataset::from_trajectories(vec![
            traj(0, &[(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]),
            traj(1, &[(1.0, 1.0), (2.0, 2.0)]),
            traj(2, &[(3.0, 3.0)]),
        ])
    }

    #[test]
    fn derived_domain_covers_all_samples() {
        let d = dataset();
        for t in &d.trajectories {
            for s in &t.samples {
                assert!(d.domain.contains(&s.loc));
            }
        }
    }

    #[test]
    fn a_domain_without_area_is_widened() {
        // One x for every sample; then one sample; then far from the origin.
        for (points, x, y) in [
            (&[(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)][..], (4.5, 5.5), (1.0, 3.0)),
            (&[(5.0, 1.0)][..], (4.5, 5.5), (0.5, 1.5)),
        ] {
            let d = Dataset::from_trajectories(vec![traj(0, points)]);
            let r = d.domain;
            assert_eq!(((r.min_x, r.max_x), (r.min_y, r.max_y)), (x, y), "{points:?}");
        }
        let far = Dataset::from_trajectories(vec![traj(0, &[(1e17, -1e17)])]).domain;
        assert!(far.width() > 0.0 && far.height() > 0.0, "{far:?}");
        // A domain with area on both axes is the bounding box, unchanged.
        assert_eq!(dataset().domain, Rect::new(0.0, 0.0, 3.0, 3.0));
    }

    #[test]
    fn from_empty_gets_nonempty_domain() {
        let d = Dataset::from_trajectories(vec![]);
        assert!(d.is_empty());
        assert!(!d.domain.is_empty());
    }

    #[test]
    fn counts() {
        let d = dataset();
        assert_eq!(d.len(), 3);
        assert_eq!(d.total_points(), 6);
    }

    #[test]
    fn trajectory_frequency_counts_trajectories_not_occurrences() {
        let d = dataset();
        // (0,0) appears twice but only in trajectory 0 → TF = 1.
        assert_eq!(d.trajectory_frequency(Point::new(0.0, 0.0).key()), 1);
        // (1,1) appears in trajectories 0 and 1 → TF = 2.
        assert_eq!(d.trajectory_frequency(Point::new(1.0, 1.0).key()), 2);
        assert_eq!(d.trajectory_frequency(Point::new(9.0, 9.0).key()), 0);
    }

    #[test]
    fn adjacency_removes_exactly_one() {
        let d = dataset();
        let adj = d.adjacent_without(1).unwrap();
        assert_eq!(adj.len(), d.len() - 1);
        assert!(adj.by_id(1).is_none());
        assert!(d.adjacent_without(99).is_none());
    }

    #[test]
    fn by_id_lookup() {
        let d = dataset();
        assert_eq!(d.by_id(2).unwrap().len(), 1);
        assert!(d.by_id(42).is_none());
    }
}
