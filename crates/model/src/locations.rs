//! Dense location ids: each distinct [`PointKey`] of a dataset is
//! interned once and numbered `0, 1, …` in first-appearance order, so
//! the frequency statistics and the editors count into vectors indexed
//! by id instead of hashing every sample into maps of their own.
//!
//! A dataset typically repeats few locations many times (a road network
//! snaps every visit to a node), so the one interning pass is the only
//! per-sample hash lookup. The keys are client-chosen coordinates, so
//! the interning map keeps the standard library's randomly keyed
//! SipHash: a fixed hasher would let a crafted dataset make every key
//! collide.

use crate::geometry::PointKey;
use crate::trajectory::Trajectory;
use std::collections::HashMap;

/// The distinct locations of a list of trajectories, by dense id, with
/// the id of every sample.
///
/// # Examples
///
/// ```
/// use trajdp_model::{LocationTable, Point, Sample, Trajectory};
///
/// let mk = |xs: &[f64]| Trajectory::new(0, xs.iter().enumerate()
///     .map(|(i, &x)| Sample::new(Point::new(x, 0.0), i as i64)).collect());
/// let table = LocationTable::new(&[mk(&[4.0, 2.0, 4.0]), mk(&[2.0, 9.0])]);
/// assert_eq!(table.len(), 3); // 4, 2 and 9, numbered in that order
/// assert_eq!(table.trajectory(0), &[0, 1, 0]);
/// assert_eq!(table.trajectory(1), &[1, 2]);
/// assert_eq!(table.key(2), Point::new(9.0, 0.0).key());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LocationTable {
    /// The interning map: location → id.
    ids: HashMap<PointKey, u32>,
    /// `keys[id]` is the location of `id`.
    keys: Vec<PointKey>,
    /// The id of every sample, trajectory after trajectory.
    samples: Vec<u32>,
    /// Trajectory `t`'s samples are `samples[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<usize>,
}

impl LocationTable {
    /// Interns every sample location of `trajs`.
    pub fn new(trajs: &[Trajectory]) -> Self {
        Self::default().reindex(trajs)
    }

    /// The table of `trajs` that keeps this table's ids: a location this
    /// table holds keeps its id and a new one gets the next id past the
    /// end. A sample still equal to this table's sample at the same
    /// trajectory and position takes its stored id without a hash
    /// lookup, so re-indexing the trajectories a table was built from
    /// hashes nothing.
    pub fn reindex(&self, trajs: &[Trajectory]) -> Self {
        let mut out = Self {
            ids: self.ids.clone(),
            keys: self.keys.clone(),
            samples: Vec::with_capacity(trajs.iter().map(Trajectory::len).sum()),
            offsets: Vec::with_capacity(trajs.len() + 1),
        };
        out.offsets.push(0);
        for (t, traj) in trajs.iter().enumerate() {
            for (i, s) in traj.samples.iter().enumerate() {
                let key = s.loc.key();
                let id = match self.stored(t, i, key) {
                    Some(id) => id,
                    None => out.intern(key),
                };
                out.samples.push(id);
            }
            out.offsets.push(out.samples.len());
        }
        out
    }

    /// This table's locations with `trajectories` as its sample ids:
    /// `trajectories[t][i]` must be this table's id of sample `i` of
    /// trajectory `t`. An editor that keeps the id of every sample it
    /// edits hands its trajectories on this way, so the next stage looks
    /// none of them up.
    pub fn with_samples(mut self, trajectories: &[Vec<u32>]) -> Self {
        self.samples.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for ids in trajectories {
            debug_assert!(ids.iter().all(|&id| (id as usize) < self.keys.len()), "unknown id");
            self.samples.extend_from_slice(ids);
            self.offsets.push(self.samples.len());
        }
        self
    }

    /// Number of distinct locations.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table holds no location.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The id of `key`, if the table holds it.
    #[inline]
    pub fn id(&self, key: PointKey) -> Option<u32> {
        self.ids.get(&key).copied()
    }

    /// The location of `id`.
    #[inline]
    pub fn key(&self, id: u32) -> PointKey {
        self.keys[id as usize]
    }

    /// The id of `key`, numbering it next if the table lacks it.
    pub fn intern(&mut self, key: PointKey) -> u32 {
        let next = u32::try_from(self.keys.len()).expect("more than u32::MAX distinct locations");
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            self.keys.push(key);
        }
        id
    }

    /// The ids of trajectory `t`'s samples, in sample order.
    #[inline]
    pub fn trajectory(&self, t: usize) -> &[u32] {
        &self.samples[self.offsets[t]..self.offsets[t + 1]]
    }

    /// The id of `key` as sample `i` of trajectory `t`: the stored id
    /// while that sample still holds `key`, else the interning map's, if
    /// the table holds the location at all.
    #[inline]
    pub fn sample_id(&self, t: usize, i: usize, key: PointKey) -> Option<u32> {
        self.stored(t, i, key).or_else(|| self.id(key))
    }

    /// The stored id of sample `i` of trajectory `t`, if the table has
    /// that sample and it holds `key`.
    #[inline]
    fn stored(&self, t: usize, i: usize, key: PointKey) -> Option<u32> {
        let start = *self.offsets.get(t)?;
        let end = *self.offsets.get(t + 1)?;
        let id = *self.samples[start..end].get(i)?;
        (self.keys[id as usize] == key).then_some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::trajectory::Sample;

    fn traj(id: u64, points: &[(f64, f64)]) -> Trajectory {
        let samples = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Sample::new(Point::new(x, y), i as i64))
            .collect();
        Trajectory::new(id, samples)
    }

    fn trajs() -> Vec<Trajectory> {
        vec![
            traj(0, &[(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]),
            traj(1, &[(1.0, 1.0), (2.0, 2.0)]),
            traj(2, &[]),
            traj(3, &[(-0.0, 0.0), (f64::NAN, 1.0), (3.0, 3.0)]),
        ]
    }

    #[test]
    fn ids_are_dense_in_first_appearance_order() {
        let table = LocationTable::new(&trajs());
        assert_eq!(table.trajectory(0), &[0, 1, 0]);
        assert_eq!(table.trajectory(1), &[1, 2]);
        assert!(table.trajectory(2).is_empty());
        // -0.0 is a location of its own, and a NaN key equals itself.
        assert_eq!(table.trajectory(3), &[3, 4, 5]);
        assert_eq!(table.len(), 6);
        for (t, traj) in trajs().iter().enumerate() {
            for (i, s) in traj.samples.iter().enumerate() {
                let id = table.trajectory(t)[i];
                assert_eq!(table.key(id), s.loc.key());
                assert_eq!(table.id(s.loc.key()), Some(id));
            }
        }
    }

    #[test]
    fn reindex_keeps_ids_and_numbers_new_locations_past_the_end() {
        let table = LocationTable::new(&trajs());
        let mut edited = trajs();
        edited[0].samples.insert(1, Sample::new(Point::new(7.0, 7.0), 0));
        edited[1].samples.remove(0);
        edited.push(traj(4, &[(2.0, 2.0)]));
        let again = table.reindex(&edited);
        assert_eq!(again.len(), 7);
        assert_eq!(again.trajectory(0), &[0, 6, 1, 0]);
        assert_eq!(again.trajectory(1), &[2]);
        assert_eq!(again.trajectory(4), &[2]);
        assert_eq!(again.key(6), Point::new(7.0, 7.0).key());
        assert_eq!(table.len(), 6, "the source table is left alone");
        // A sample that moved is looked up; one past the table is not in it.
        assert_eq!(table.sample_id(1, 0, Point::new(2.0, 2.0).key()), Some(2));
        assert_eq!(table.sample_id(9, 0, Point::new(2.0, 2.0).key()), Some(2));
        assert_eq!(table.sample_id(0, 1, Point::new(7.0, 7.0).key()), None);
    }

    #[test]
    fn with_samples_describes_the_edited_trajectories() {
        let mut table = LocationTable::new(&trajs());
        let seven = table.intern(Point::new(7.0, 7.0).key());
        let edited = table.with_samples(&[vec![0, seven], vec![], vec![2, 2, 1]]);
        assert_eq!(edited.len(), 7);
        assert_eq!(edited.trajectory(0), &[0, 6]);
        assert!(edited.trajectory(1).is_empty());
        assert_eq!(edited.trajectory(2), &[2, 2, 1]);
        assert_eq!(edited.sample_id(0, 1, Point::new(7.0, 7.0).key()), Some(6));
        assert_eq!(edited.sample_id(2, 0, Point::new(2.0, 2.0).key()), Some(2));
    }

    #[test]
    fn intern_numbers_each_location_once() {
        let mut table = LocationTable::default();
        let (a, b) = (Point::new(1.0, 2.0).key(), Point::new(2.0, 1.0).key());
        assert_eq!(table.intern(a), 0);
        assert_eq!(table.intern(b), 1);
        assert_eq!(table.intern(a), 0);
        assert_eq!(table.len(), 2);
    }
}
