//! Trajectory and dataset editors: apply the edit operations of §IV-A
//! with exact utility-loss accounting while keeping a segment index
//! incrementally up to date.
//!
//! * [`TrajectoryEditor`] drives **intra-trajectory modification**
//!   (Definition 9): inserting/deleting occurrences of a point within a
//!   single trajectory, choosing the ∆f nearest segments via K-nearest
//!   segment search (Definition 10).
//! * [`DatasetEditor`] drives **inter-trajectory modification**
//!   (Definition 7): raising/lowering a point's TF by inserting it into /
//!   deleting it from the ∆l trajectories with the least utility loss
//!   (Definition 8).
//!
//! Index upkeep is incremental in both editors, which share three
//! steps: `split_segment` inserts a point into a segment and replaces
//! its entry with the two halves, `append_sample` appends a point and
//! registers the segment it closes, and `delete_sample` removes the one
//! or two segments touching a sample and registers the merged segment.
//! So a complete deletion of a point costs a few index operations per
//! occurrence, not a re-registration of the whole trajectory. Segment
//! ids come from a counter and are never reused. [`DatasetEditor`]
//! maps them to their trajectory slots in a dense owner vector, and a
//! TF increase is one grouped index search — the only search of the
//! inter-trajectory modification: its group function maps a segment to
//! its owning slot through that vector, or leaves it out when a
//! per-query slot mask says the trajectory already contains the point,
//! so the function the index calls for every checked segment does no
//! hashing, and the index hands back the ∆l nearest trajectories
//! themselves. A TF decrease needs no search: it scans the trajectories
//! holding the point for their exact complete-deletion loss.

use crate::indexkind::{AnyIndex, IndexKind};
use std::collections::{BinaryHeap, HashSet};
use trajdp_index::{SearchStats, SegmentEntry, TotalF64};
use trajdp_model::{LocationTable, Point, PointKey, Rect, Trajectory};

/// Editor for one trajectory, with an index over its segments.
#[derive(Debug, Clone)]
pub struct TrajectoryEditor {
    traj: Trajectory,
    /// `seg_ids[i]` is the index payload of segment `⟨samples[i], samples[i+1]⟩`.
    seg_ids: Vec<u64>,
    index: AnyIndex,
    next_id: u64,
    /// Accumulated utility loss of all edits.
    pub loss: f64,
    /// Accumulated search work counters.
    pub stats: SearchStats,
    /// Number of point insertions performed.
    pub insertions: usize,
    /// Number of point deletions performed.
    pub deletions: usize,
}

impl TrajectoryEditor {
    /// Builds an editor (and its index) for `traj` over `domain`.
    pub fn new(traj: Trajectory, kind: IndexKind, domain: Rect) -> Self {
        let mut editor = Self {
            traj,
            seg_ids: Vec::new(),
            index: AnyIndex::new(kind, domain),
            next_id: 0,
            loss: 0.0,
            stats: SearchStats::default(),
            insertions: 0,
            deletions: 0,
        };
        editor.register_segments();
        editor
    }

    /// Starts over on a copy of `traj`, in the state [`Self::new`] builds
    /// — fresh index, segment ids and counters — while keeping the
    /// index's and the trajectory's allocations.
    pub fn reset(&mut self, traj: &Trajectory) {
        self.traj.id = traj.id;
        self.traj.samples.clone_from(&traj.samples);
        self.index.clear();
        self.seg_ids.clear();
        self.loss = 0.0;
        self.stats = SearchStats::default();
        self.insertions = 0;
        self.deletions = 0;
        self.register_segments();
    }

    /// Registers every segment of the trajectory under ids `0..n`.
    fn register_segments(&mut self) {
        for (i, seg) in self.traj.segments() {
            self.index.insert(SegmentEntry::new(i as u64, seg));
            self.seg_ids.push(i as u64);
        }
        self.next_id = self.seg_ids.len() as u64;
    }

    /// Read access to the trajectory being edited.
    pub fn trajectory(&self) -> &Trajectory {
        &self.traj
    }

    /// Finishes editing, returning the modified trajectory.
    pub fn into_trajectory(self) -> Trajectory {
        self.traj
    }

    fn accumulate(&mut self, s: SearchStats) {
        self.stats.cells_visited += s.cells_visited;
        self.stats.segments_checked += s.segments_checked;
    }

    /// Inserts `delta` occurrences of `q` at the ∆f nearest segments
    /// (Definition 10). Returns the utility loss incurred.
    pub fn insert_occurrences(&mut self, q: Point, delta: usize) -> f64 {
        if delta == 0 {
            return 0.0;
        }
        let mut incurred = 0.0;
        let (neighbors, stats) = self.index.knn_with_stats(&q, delta, None);
        self.accumulate(stats);
        // Map neighbour ids to current segment positions in one pass over
        // the segments; insert from the highest position down so earlier
        // positions stay valid.
        let mut wanted: Vec<u64> = neighbors.iter().map(|n| n.id).collect();
        wanted.sort_unstable();
        let positions: Vec<usize> = (0..self.seg_ids.len())
            .rev()
            .filter(|&pos| wanted.binary_search(&self.seg_ids[pos]).is_ok())
            .collect();
        let (traj, seg_ids, index) = (&mut self.traj, &mut self.seg_ids, &mut self.index);
        let mut fresh = counter(&mut self.next_id);
        for &pos in &positions {
            incurred += split_segment(traj, seg_ids, index, pos, q, &mut fresh);
        }
        // If the trajectory had fewer segments than `delta` (none at all
        // below two samples), append the remainder at the end.
        for _ in positions.len()..delta {
            incurred += append_sample(traj, seg_ids, index, q, &mut fresh);
        }
        self.insertions += delta;
        self.loss += incurred;
        incurred
    }

    /// Deletes `delta` occurrences of `q`, each time removing the
    /// occurrence with the smallest reconnection loss (the K-nearest
    /// deletion of Definition 10). Deletes all occurrences when fewer
    /// than `delta` exist. Returns the utility loss incurred.
    pub fn delete_occurrences(&mut self, q: PointKey, delta: usize) -> f64 {
        let mut incurred = 0.0;
        // Positions of `q`, ascending; a deletion shifts the later ones
        // down by one, so the trajectory is scanned once, not per
        // deletion.
        let mut occ = self.traj.occurrences(q);
        for _ in 0..delta {
            let Some(i) = (0..occ.len()).min_by(|&a, &b| {
                self.traj.deletion_loss(occ[a]).total_cmp(&self.traj.deletion_loss(occ[b]))
            }) else {
                break;
            };
            incurred += self.delete_at(occ.remove(i));
            for o in &mut occ[i..] {
                *o -= 1;
            }
        }
        self.loss += incurred;
        incurred
    }

    /// Deletes the sample at `idx`, merging the index entries.
    fn delete_at(&mut self, idx: usize) -> f64 {
        let fresh = counter(&mut self.next_id);
        let loss = delete_sample(&mut self.traj, &mut self.seg_ids, &mut self.index, idx, fresh);
        self.deletions += 1;
        loss
    }

    /// Internal invariant check used by tests: every segment of the
    /// trajectory has exactly one index entry.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert_eq!(self.seg_ids.len(), self.traj.num_segments(), "seg_ids length mismatch");
        assert_eq!(self.index.len(), self.seg_ids.len(), "index size mismatch");
        let distinct_ids: HashSet<u64> = self.seg_ids.iter().copied().collect();
        assert_eq!(distinct_ids.len(), self.seg_ids.len(), "duplicate segment ids");
    }
}

/// Hands out ids from a counter: its current value, advancing it.
fn counter(next: &mut u64) -> impl FnMut() -> u64 + '_ {
    move || {
        let id = *next;
        *next += 1;
        id
    }
}

/// Inserts `q` into segment `pos` of `traj` and keeps its segment index
/// in step — the one split step both editors share. The segment's entry
/// leaves `index` and `seg_ids`, and its two halves are registered, left
/// then right, under the ids `fresh` hands out. Returns the insertion
/// loss.
fn split_segment(
    traj: &mut Trajectory,
    seg_ids: &mut Vec<u64>,
    index: &mut AnyIndex,
    pos: usize,
    q: Point,
    mut fresh: impl FnMut() -> u64,
) -> f64 {
    index.remove(seg_ids[pos]);
    let loss = traj.insert_into_segment(q, pos);
    let (left, right) = (fresh(), fresh());
    index.insert(SegmentEntry::new(left, traj.segment(pos)));
    index.insert(SegmentEntry::new(right, traj.segment(pos + 1)));
    seg_ids.splice(pos..=pos, [left, right]);
    loss
}

/// Appends `q` to `traj` and keeps its segment index in step — the one
/// append step both editors share. When the trajectory then has a last
/// segment, it is registered under the id `fresh` hands out. Returns the
/// append loss ([`Trajectory::push_point`]).
fn append_sample(
    traj: &mut Trajectory,
    seg_ids: &mut Vec<u64>,
    index: &mut AnyIndex,
    q: Point,
    fresh: impl FnOnce() -> u64,
) -> f64 {
    let loss = traj.push_point(q);
    if let Some(last) = traj.num_segments().checked_sub(1) {
        let id = fresh();
        index.insert(SegmentEntry::new(id, traj.segment(last)));
        seg_ids.push(id);
    }
    loss
}

/// Deletes sample `idx` of `traj` and keeps its segment index in step —
/// the one deletion step both editors share. Only the one or two
/// segments touching the sample change: their entries leave `index`
/// and `seg_ids`, and an interior sample's two segments collapse into
/// the merged segment `⟨idx − 1, idx + 1⟩`, registered under the id
/// `fresh` hands out. Returns the reconnection loss.
fn delete_sample(
    traj: &mut Trajectory,
    seg_ids: &mut Vec<u64>,
    index: &mut AnyIndex,
    idx: usize,
    fresh: impl FnOnce() -> u64,
) -> f64 {
    let len = traj.len();
    debug_assert!(idx < len);
    if idx > 0 {
        index.remove(seg_ids[idx - 1]);
    }
    if idx + 1 < len {
        index.remove(seg_ids[idx]);
    }
    let loss = traj.delete_at(idx);
    // The two touching segments collapse into one (interior) or zero
    // (endpoint).
    if idx > 0 && idx < len - 1 {
        let merged = fresh();
        index.insert(SegmentEntry::new(merged, traj.segment(idx - 1)));
        seg_ids.splice(idx - 1..=idx, [merged]);
    } else if idx == 0 {
        if !seg_ids.is_empty() {
            seg_ids.remove(0);
        }
    } else {
        seg_ids.pop();
    }
    loss
}

/// Hands out the next segment id of a dense owner table, recording
/// `t` as its owner: the id is the table's length.
fn claim_id(owner: &mut Vec<usize>, t: usize) -> u64 {
    owner.push(t);
    (owner.len() - 1) as u64
}

/// Offers `entry` to a max-heap keeping the `delta` smallest
/// `(loss, slot)` pairs — the fixed tie rule of the inter-trajectory
/// selection: on equal loss the smallest slot wins, so the pick does
/// not depend on the order the candidates are offered in.
fn push_bounded(best: &mut BinaryHeap<(TotalF64, usize)>, delta: usize, entry: (TotalF64, usize)) {
    if best.len() < delta {
        best.push(entry);
    } else if let Some(top) = best.peek() {
        if entry < *top {
            best.pop();
            best.push(entry);
        }
    }
}

/// Editor for a whole dataset, with a single index over every segment.
#[derive(Debug)]
pub struct DatasetEditor {
    trajs: Vec<Trajectory>,
    /// `seg_ids[t][i]` is the index payload of segment `i` of slot `t`.
    seg_ids: Vec<Vec<u64>>,
    index: AnyIndex,
    /// Dense owner table: `owner[id]` is the slot of segment `id`. Every
    /// id is handed out by `claim_id`, which pushes its owner, so the
    /// table's length is the id counter and the search filter needs no
    /// hash lookup. Entries of retired ids stay behind, unused: ids are
    /// never reused.
    owner: Vec<usize>,
    /// Dense ids of every location the editor has seen: those of its
    /// trajectories as they came in, then any point an increase brings.
    /// Its sample ids describe the trajectories as they came in; only
    /// `containing` follows the edits.
    locations: LocationTable,
    /// Inverted occurrence map by location id: `containing[id]` lists,
    /// ascending, the slots whose trajectory passes through location
    /// `id`, so a TF is a length and the trajectories holding a point
    /// come out in slot order without hashing or sorting.
    containing: Vec<Vec<usize>>,
    /// Accumulated utility loss of all edits.
    pub loss: f64,
    /// Accumulated search work counters.
    pub stats: SearchStats,
    /// Number of point insertions performed.
    pub insertions: usize,
    /// Number of point deletions performed.
    pub deletions: usize,
}

impl DatasetEditor {
    /// Builds an editor (and a dataset-wide index) for the trajectories.
    pub fn new(trajs: Vec<Trajectory>, kind: IndexKind, domain: Rect) -> Self {
        Self::with_locations(trajs, kind, domain, &LocationTable::default())
    }

    /// [`Self::new`], numbering locations as `known` does
    /// ([`LocationTable::reindex`]): when `known` was built over these
    /// very trajectories, as a frequency analysis of the dataset was,
    /// the occurrence map is built without hashing a sample.
    pub fn with_locations(
        trajs: Vec<Trajectory>,
        kind: IndexKind,
        domain: Rect,
        known: &LocationTable,
    ) -> Self {
        let mut index = AnyIndex::new(kind, domain);
        let mut seg_ids = Vec::with_capacity(trajs.len());
        let mut owner = Vec::with_capacity(trajs.iter().map(Trajectory::num_segments).sum());
        let locations = known.reindex(&trajs);
        let mut containing = vec![Vec::new(); locations.len()];
        for (t, traj) in trajs.iter().enumerate() {
            let mut ids = Vec::with_capacity(traj.num_segments());
            for (_, seg) in traj.segments() {
                let id = claim_id(&mut owner, t);
                index.insert(SegmentEntry::new(id, seg));
                ids.push(id);
            }
            seg_ids.push(ids);
            for &id in locations.trajectory(t) {
                let slots: &mut Vec<usize> = &mut containing[id as usize];
                if slots.last() != Some(&t) {
                    slots.push(t);
                }
            }
        }
        Self {
            trajs,
            seg_ids,
            index,
            owner,
            locations,
            containing,
            loss: 0.0,
            stats: SearchStats::default(),
            insertions: 0,
            deletions: 0,
        }
    }

    /// Finishes editing, returning the modified trajectories.
    pub fn into_trajectories(self) -> Vec<Trajectory> {
        self.trajs
    }

    /// Read access to the trajectories being edited.
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajs
    }

    /// The slots whose trajectory passes through `q`, ascending.
    fn holders(&self, q: PointKey) -> &[usize] {
        self.locations.id(q).map_or(&[], |id| &self.containing[id as usize])
    }

    /// The location id of `q`, numbering it if the editor has not seen it.
    fn location_id(&mut self, q: PointKey) -> usize {
        let id = self.locations.intern(q) as usize;
        if id == self.containing.len() {
            self.containing.push(Vec::new());
        }
        id
    }

    fn accumulate(&mut self, s: SearchStats) {
        self.stats.cells_visited += s.cells_visited;
        self.stats.segments_checked += s.segments_checked;
    }

    /// TF-increasing task (Definition 8): inserts `q` once into each of
    /// the `delta` nearest trajectories that do not already pass through
    /// `q`. Returns the number of trajectories actually modified (may be
    /// fewer when the dataset runs out of eligible trajectories).
    ///
    /// A trajectory's distance is that of its nearest segment, and the
    /// pick is the `delta` smallest `(distance, slot)` pairs, so on equal
    /// distance the smallest slot wins. The segment index finds them in
    /// one grouped search (group = owning slot). Trajectories without a
    /// segment (fewer than two samples) come after all of these, in slot
    /// order, and take `q` appended.
    pub fn increase_tf(&mut self, q: Point, delta: usize) -> usize {
        if delta == 0 {
            return 0;
        }
        // Slot mask of the trajectories already passing through `q`, so
        // the group function is two vector reads.
        let id = self.location_id(q.key());
        let mut excluded = vec![false; self.trajs.len()];
        for &t in &self.containing[id] {
            excluded[t] = true;
        }
        let owner = &self.owner;
        let group = |id: u64| {
            let t = owner[id as usize];
            (!excluded[t]).then_some(t as u64)
        };
        let (nearest, stats) = self.index.knn_with_stats(&q, delta, Some(&group));
        self.accumulate(stats);
        let mut chosen: Vec<usize> = nearest.iter().map(|n| self.owner[n.id as usize]).collect();
        // Fallback: trajectories with no segments can still take an
        // appended point.
        for (t, traj) in self.trajs.iter().enumerate() {
            if chosen.len() == delta {
                break;
            }
            if traj.num_segments() == 0 && !excluded[t] {
                chosen.push(t);
            }
        }
        let inserted = chosen.len();
        for t in chosen {
            self.insert_point_into(t, q, id);
        }
        inserted
    }

    /// Inserts `q`, location `id`, into trajectory slot `t`: into its
    /// nearest segment, or appended when it has none.
    fn insert_point_into(&mut self, t: usize, q: Point, id: usize) {
        let traj = &mut self.trajs[t];
        let (seg_ids, index, owner) = (&mut self.seg_ids[t], &mut self.index, &mut self.owner);
        let fresh = || claim_id(owner, t);
        self.loss += if traj.num_segments() == 0 {
            append_sample(traj, seg_ids, index, q, fresh)
        } else {
            // Scan the trajectory for the minimum-loss segment (the
            // index already narrowed the trajectory choice).
            let pos = (0..traj.num_segments())
                .min_by(|&a, &b| {
                    traj.segment(a).dist_to_point(&q).total_cmp(&traj.segment(b).dist_to_point(&q))
                })
                .expect("non-empty segment list");
            split_segment(traj, seg_ids, index, pos, q, fresh)
        };
        self.insertions += 1;
        let slots = &mut self.containing[id];
        if let Err(at) = slots.binary_search(&t) {
            slots.insert(at, t);
        }
    }

    /// TF-decreasing task (Definition 8): completely deletes `q` from the
    /// `delta` trajectories (among those containing it) with the least
    /// complete-deletion loss — the smallest `(loss, slot)` pairs, so
    /// equal-loss ties go to the smallest slot. Returns the number of
    /// trajectories actually modified.
    pub fn decrease_tf(&mut self, q: PointKey, delta: usize) -> usize {
        if delta == 0 {
            return 0;
        }
        let Some(id) = self.locations.id(q) else {
            return 0;
        };
        // Complete-deletion loss per candidate: Σ_s L[OP_d(q, s)].
        let mut best: BinaryHeap<(TotalF64, usize)> = BinaryHeap::with_capacity(delta + 1);
        for &t in &self.containing[id as usize] {
            let traj = &self.trajs[t];
            let total: f64 = traj.occurrences(q).into_iter().map(|i| traj.deletion_loss(i)).sum();
            push_bounded(&mut best, delta, (TotalF64(total), t));
        }
        let victims = best.into_sorted_vec();
        for &(_, t) in &victims {
            self.delete_point_from(t, q, id as usize);
        }
        victims.len()
    }

    /// Removes every occurrence of `q` from slot `t`. Each deletion
    /// rewrites only the one or two segments touching the occurrence
    /// (the step [`TrajectoryEditor`] takes too); the rest of the
    /// trajectory keeps its index entries. Occurrences go first to last
    /// and the losses are summed before they reach `self.loss`, exactly
    /// as [`Trajectory::delete_all`] does. `q` is location `id`.
    fn delete_point_from(&mut self, t: usize, q: PointKey, id: usize) {
        let mut total = 0.0;
        while let Some(idx) = self.trajs[t].samples.iter().position(|s| s.loc.key() == q) {
            let owner = &mut self.owner;
            total += delete_sample(
                &mut self.trajs[t],
                &mut self.seg_ids[t],
                &mut self.index,
                idx,
                || claim_id(owner, t),
            );
            self.deletions += 1;
        }
        self.loss += total;
        let slots = &mut self.containing[id];
        if let Ok(at) = slots.binary_search(&t) {
            slots.remove(at);
        }
    }

    /// Current TF of `q` as tracked by the editor.
    pub fn tf(&self, q: PointKey) -> usize {
        self.holders(q).len()
    }

    /// Internal invariant check used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut total = 0;
        for (t, ids) in self.seg_ids.iter().enumerate() {
            assert_eq!(ids.len(), self.trajs[t].num_segments(), "slot {t} seg count");
            for &id in ids {
                assert_eq!(self.owner[id as usize], t, "owner mismatch for id {id}");
            }
            total += ids.len();
        }
        assert_eq!(self.index.len(), total, "index size mismatch");
        for (id, slots) in self.containing.iter().enumerate() {
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "containing not ascending");
            for &t in slots {
                let q = self.locations.key(id as u32);
                assert!(self.trajs[t].passes_through(q), "stale containing entry");
            }
        }
        for (t, traj) in self.trajs.iter().enumerate() {
            for s in &traj.samples {
                let held = self.holders(s.loc.key()).binary_search(&t).is_ok();
                assert!(held, "missing containing entry");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdp_model::{Sample, Segment};

    fn traj(id: u64, pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(
            id,
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| Sample::new(Point::new(x, y), i as i64 * 10))
                .collect(),
        )
    }

    fn domain() -> Rect {
        Rect::new(-100.0, -100.0, 1100.0, 1100.0)
    }

    // ---------- TrajectoryEditor ----------

    #[test]
    fn insert_picks_nearest_segment() {
        let t = traj(0, &[(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)]);
        let mut ed = TrajectoryEditor::new(t, IndexKind::default(), domain());
        let q = Point::new(50.0, 5.0); // 5 m from the first segment
        let loss = ed.insert_occurrences(q, 1);
        assert_eq!(loss, 5.0);
        ed.check_invariants();
        let out = ed.into_trajectory();
        assert_eq!(out.len(), 4);
        assert_eq!(out.samples[1].loc, q);
    }

    #[test]
    fn multi_insert_uses_distinct_segments() {
        let t = traj(0, &[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (300.0, 0.0)]);
        let mut ed = TrajectoryEditor::new(t, IndexKind::default(), domain());
        let q = Point::new(150.0, 10.0);
        ed.insert_occurrences(q, 2);
        ed.check_invariants();
        let out = ed.into_trajectory();
        assert_eq!(out.len(), 6);
        assert_eq!(out.count_point(q.key()), 2);
        assert_eq!(ed_count(&out, q), 2);
    }

    fn ed_count(t: &Trajectory, q: Point) -> usize {
        t.count_point(q.key())
    }

    #[test]
    fn reset_editor_edits_like_a_fresh_one() {
        let used = traj(0, &[(0.0, 0.0), (500.0, 500.0), (900.0, 100.0), (0.0, 0.0)]);
        let next = traj(1, &[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (100.0, 0.0), (300.0, 0.0)]);
        let edit = |ed: &mut TrajectoryEditor| {
            ed.delete_occurrences(Point::new(100.0, 0.0).key(), 1);
            ed.insert_occurrences(Point::new(150.0, 10.0), 2);
            ed.check_invariants();
        };
        for kind in [IndexKind::Linear, IndexKind::Uniform(16), IndexKind::default()] {
            let mut reused = TrajectoryEditor::new(used.clone(), kind, domain());
            reused.insert_occurrences(Point::new(700.0, 700.0), 3);
            reused.delete_occurrences(Point::new(0.0, 0.0).key(), 2);
            reused.reset(&next);
            reused.check_invariants();
            let mut fresh = TrajectoryEditor::new(next.clone(), kind, domain());
            edit(&mut reused);
            edit(&mut fresh);
            assert_eq!(reused.trajectory(), fresh.trajectory(), "{kind:?}");
            assert_eq!(
                (reused.loss, reused.stats, reused.insertions, reused.deletions),
                (fresh.loss, fresh.stats, fresh.insertions, fresh.deletions),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn insert_more_than_segments_appends_remainder() {
        let t = traj(0, &[(0.0, 0.0), (10.0, 0.0)]); // one segment
        let mut ed = TrajectoryEditor::new(t, IndexKind::default(), domain());
        let q = Point::new(5.0, 1.0);
        ed.insert_occurrences(q, 3);
        ed.check_invariants();
        let out = ed.into_trajectory();
        assert_eq!(out.count_point(q.key()), 3);
        assert!(out.samples.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn insert_into_degenerate_trajectory() {
        let t = traj(0, &[(1.0, 1.0)]);
        let mut ed = TrajectoryEditor::new(t, IndexKind::default(), domain());
        ed.insert_occurrences(Point::new(2.0, 2.0), 2);
        ed.check_invariants();
        assert_eq!(ed.trajectory().len(), 3);
    }

    #[test]
    fn delete_prefers_cheapest_occurrence() {
        // q at index 1 lies ON the line (0 reconnection loss); q at index
        // 3 is a 50 m detour.
        let t = traj(0, &[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0), (150.0, 50.0), (200.0, 0.0)]);
        let q1 = Point::new(50.0, 0.0);
        let mut ed = TrajectoryEditor::new(t, IndexKind::default(), domain());
        let loss = ed.delete_occurrences(q1.key(), 1);
        assert_eq!(loss, 0.0);
        ed.check_invariants();
        assert_eq!(ed.trajectory().len(), 4);
    }

    #[test]
    fn delete_more_than_present_deletes_all() {
        let q = Point::new(5.0, 5.0);
        let t = traj(0, &[(0.0, 0.0), (5.0, 5.0), (10.0, 0.0), (5.0, 5.0), (20.0, 0.0)]);
        let mut ed = TrajectoryEditor::new(t, IndexKind::default(), domain());
        ed.delete_occurrences(q.key(), 10);
        ed.check_invariants();
        assert_eq!(ed.trajectory().count_point(q.key()), 0);
        assert_eq!(ed.deletions, 2);
    }

    #[test]
    fn delete_endpoint_occurrence() {
        let q = Point::new(0.0, 0.0);
        let t = traj(0, &[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]);
        let mut ed = TrajectoryEditor::new(t, IndexKind::default(), domain());
        let loss = ed.delete_occurrences(q.key(), 1);
        assert_eq!(loss, 0.0); // endpoints reconnect for free
        ed.check_invariants();
        assert_eq!(ed.trajectory().len(), 2);
    }

    #[test]
    fn editor_losses_accumulate() {
        let t = traj(0, &[(0.0, 0.0), (100.0, 0.0)]);
        let mut ed = TrajectoryEditor::new(t, IndexKind::default(), domain());
        ed.insert_occurrences(Point::new(50.0, 10.0), 1);
        ed.insert_occurrences(Point::new(25.0, 20.0), 1);
        assert!(ed.loss >= 10.0);
        assert_eq!(ed.insertions, 2);
    }

    // ---------- DatasetEditor ----------

    fn make_dataset_editor() -> DatasetEditor {
        let trajs = vec![
            traj(0, &[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]),
            traj(1, &[(0.0, 500.0), (100.0, 500.0), (200.0, 500.0)]),
            traj(2, &[(0.0, 1000.0), (100.0, 1000.0), (200.0, 1000.0)]),
        ];
        DatasetEditor::new(trajs, IndexKind::default(), domain())
    }

    #[test]
    fn increase_tf_picks_nearest_trajectories() {
        let mut ed = make_dataset_editor();
        let q = Point::new(150.0, 40.0); // closest to trajectory 0, then 1
        let n = ed.increase_tf(q, 2);
        assert_eq!(n, 2);
        ed.check_invariants();
        assert_eq!(ed.tf(q.key()), 2);
        let trajs = ed.into_trajectories();
        assert!(trajs[0].passes_through(q.key()));
        assert!(trajs[1].passes_through(q.key()));
        assert!(!trajs[2].passes_through(q.key()));
    }

    #[test]
    fn increase_tf_skips_trajectories_already_containing() {
        let mut ed = make_dataset_editor();
        let q = Point::new(100.0, 0.0); // already in trajectory 0
        assert_eq!(ed.tf(q.key()), 1);
        let n = ed.increase_tf(q, 1);
        assert_eq!(n, 1);
        ed.check_invariants();
        assert_eq!(ed.tf(q.key()), 2);
        // Trajectory 1 (nearest without q) must be the one modified.
        assert!(ed.trajectories()[1].passes_through(q.key()));
    }

    #[test]
    fn increase_tf_saturates_at_dataset_size() {
        let mut ed = make_dataset_editor();
        let q = Point::new(50.0, 250.0);
        let n = ed.increase_tf(q, 10);
        assert_eq!(n, 3, "cannot insert into more trajectories than exist");
        ed.check_invariants();
        assert_eq!(ed.tf(q.key()), 3);
    }

    #[test]
    fn decrease_tf_removes_all_occurrences_from_victims() {
        let trajs = vec![
            traj(0, &[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0), (50.0, 0.0)]),
            traj(1, &[(0.0, 500.0), (50.0, 0.0), (100.0, 500.0)]),
            traj(2, &[(0.0, 1000.0), (200.0, 1000.0)]),
        ];
        let mut ed = DatasetEditor::new(trajs, IndexKind::default(), domain());
        let q = Point::new(50.0, 0.0).key();
        assert_eq!(ed.tf(q), 2);
        let n = ed.decrease_tf(q, 1);
        assert_eq!(n, 1);
        ed.check_invariants();
        assert_eq!(ed.tf(q), 1);
        // The victim should be trajectory 0: its occurrences lie on the
        // straight line (zero reconnection loss) while trajectory 1's
        // occurrence is a 500 m detour.
        assert_eq!(ed.trajectories()[0].count_point(q), 0);
        assert!(ed.trajectories()[1].passes_through(q));
    }

    #[test]
    fn decrease_tf_saturates() {
        let mut ed = make_dataset_editor();
        let q = Point::new(100.0, 0.0).key();
        let n = ed.decrease_tf(q, 5);
        assert_eq!(n, 1);
        ed.check_invariants();
        assert_eq!(ed.tf(q), 0);
        assert_eq!(ed.decrease_tf(q, 1), 0);
    }

    #[test]
    fn roundtrip_increase_then_decrease() {
        let mut ed = make_dataset_editor();
        let q = Point::new(300.0, 300.0);
        ed.increase_tf(q, 2);
        assert_eq!(ed.tf(q.key()), 2);
        ed.decrease_tf(q.key(), 2);
        assert_eq!(ed.tf(q.key()), 0);
        ed.check_invariants();
        for t in ed.trajectories() {
            assert!(!t.passes_through(q.key()));
        }
    }

    #[test]
    fn dataset_editor_tracks_loss_and_counts() {
        let mut ed = make_dataset_editor();
        let q = Point::new(150.0, 40.0);
        ed.increase_tf(q, 1);
        assert!(ed.loss > 0.0);
        assert_eq!(ed.insertions, 1);
        ed.decrease_tf(q.key(), 1);
        assert_eq!(ed.deletions, 1);
    }

    /// Every index backend and search strategy the editors can run on.
    fn all_index_kinds() -> [IndexKind; 5] {
        use trajdp_index::Strategy;
        [
            IndexKind::Linear,
            IndexKind::Uniform(32),
            IndexKind::Hier(64, Strategy::TopDown),
            IndexKind::Hier(64, Strategy::BottomUp),
            IndexKind::Hier(64, Strategy::BottomUpDown),
        ]
    }

    #[test]
    fn works_with_all_index_kinds() {
        for kind in all_index_kinds() {
            let trajs = vec![
                traj(0, &[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]),
                traj(1, &[(0.0, 500.0), (100.0, 500.0)]),
            ];
            let mut ed = DatasetEditor::new(trajs, kind, domain());
            let q = Point::new(150.0, 40.0);
            assert_eq!(ed.increase_tf(q, 1), 1, "{kind:?}");
            ed.check_invariants();
            assert!(
                ed.trajectories()[0].passes_through(q.key()),
                "{kind:?} chose wrong trajectory"
            );
        }
    }

    fn _segment_helper_compiles(s: Segment) -> f64 {
        s.len()
    }

    // ---------- inter-trajectory selection vs. a brute-force reference ----------

    /// Brute-force reference for the TF-increase selection: the `delta`
    /// smallest `(min segment distance, slot)` pairs over the slots that
    /// do not pass through `q` and have a segment, then the segmentless
    /// eligible slots in slot order. Returns each chosen slot with the
    /// loss of inserting `q` there, in selection order.
    fn brute_force_increase(trajs: &[Trajectory], q: Point, delta: usize) -> Vec<(usize, f64)> {
        let eligible = |t: &Trajectory| !t.passes_through(q.key());
        let mut ranked: Vec<(f64, usize)> = trajs
            .iter()
            .enumerate()
            .filter(|&(_, t)| eligible(t) && t.num_segments() > 0)
            .map(|(slot, t)| {
                let dist =
                    t.segments().map(|(_, s)| s.dist_to_point(&q)).fold(f64::INFINITY, f64::min);
                (dist, slot)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let segmentless =
            trajs.iter().enumerate().filter(|&(_, t)| eligible(t) && t.num_segments() == 0);
        ranked
            .into_iter()
            .map(|(dist, slot)| (slot, dist))
            .chain(
                segmentless
                    .map(|(slot, t)| (slot, t.samples.last().map_or(0.0, |s| s.loc.dist(&q)))),
            )
            .take(delta)
            .collect()
    }

    /// Runs `increase_tf` on every index kind and checks it against
    /// [`brute_force_increase`]: the same slots gain `q`, and the loss is
    /// the reference's losses summed in selection order.
    fn assert_increase_matches_brute_force(trajs: &[Trajectory], q: Point, delta: usize) {
        let expected = brute_force_increase(trajs, q, delta);
        let mut slots: Vec<usize> = expected.iter().map(|&(slot, _)| slot).collect();
        slots.sort_unstable();
        let loss = expected.iter().fold(0.0, |sum, &(_, loss)| sum + loss);
        for kind in all_index_kinds() {
            let mut ed = DatasetEditor::new(trajs.to_vec(), kind, domain());
            assert_eq!(ed.increase_tf(q, delta), expected.len(), "{kind:?} delta={delta}");
            ed.check_invariants();
            let gained: Vec<usize> = (0..trajs.len())
                .filter(|&t| {
                    ed.trajectories()[t].passes_through(q.key())
                        && !trajs[t].passes_through(q.key())
                })
                .collect();
            assert_eq!(gained, slots, "{kind:?} delta={delta}: selection differs");
            assert_eq!(ed.loss, loss, "{kind:?} delta={delta}: loss differs");
        }
    }

    #[test]
    fn increase_tf_matches_brute_force_selection() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let trajs: Vec<Trajectory> = (0..25)
            .map(|id| {
                let cx: f64 = rng.gen_range(0.0..900.0);
                let cy: f64 = rng.gen_range(0.0..900.0);
                let pts: Vec<(f64, f64)> = (0..8)
                    .map(|_| (cx + rng.gen_range(0.0..120.0), cy + rng.gen_range(0.0..120.0)))
                    .collect();
                traj(id, &pts)
            })
            .collect();
        for delta in [1usize, 3, 7] {
            let q = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            assert_increase_matches_brute_force(&trajs, q, delta);
        }
    }

    // ---------- tie-breaking and parallel scans ----------

    /// 18 single-segment trajectories in two distance bands, arranged so
    /// the *closer* band occupies the *higher* slots: slots 0–8 lie 20 m
    /// from the query, slots 9–17 lie 5 m away. Every within-band
    /// comparison is an equal-loss tie.
    fn tie_heavy_trajs() -> Vec<Trajectory> {
        (0..18)
            .map(|slot| {
                let y = if slot < 9 { 20.0 } else { 5.0 };
                traj(slot, &[(0.0, y), (100.0, y)])
            })
            .collect()
    }

    #[test]
    fn increase_tf_matches_brute_force_on_tie_heavy_dataset() {
        let trajs = tie_heavy_trajs();
        for delta in [1usize, 3, 9, 12, 17] {
            assert_increase_matches_brute_force(&trajs, Point::new(50.0, 0.0), delta);
        }
    }

    #[test]
    fn segmentless_trajectories_rank_after_every_segment() {
        // Slot 1 is a lone sample 1 m from q, slot 2 is empty. Neither
        // has a segment, so both rank after slot 0, whose segment lies
        // 50 m away, and take q appended in slot order.
        let trajs = vec![
            traj(0, &[(0.0, 0.0), (100.0, 0.0)]),
            traj(1, &[(10.0, 51.0)]),
            Trajectory::new(2, Vec::new()),
        ];
        let q = Point::new(10.0, 50.0);
        let cases = [(1usize, [3, 1, 0], 50.0), (2, [3, 2, 0], 51.0), (3, [3, 2, 1], 51.0)];
        for (delta, lengths, loss) in cases {
            let mut ed = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            assert_eq!(ed.increase_tf(q, delta), delta, "delta={delta}");
            ed.check_invariants();
            let got: Vec<usize> = ed.trajectories().iter().map(Trajectory::len).collect();
            assert_eq!(got, lengths, "delta={delta}");
            assert_eq!(ed.loss, loss, "delta={delta}");
            assert_increase_matches_brute_force(&trajs, q, delta);
        }
    }

    #[test]
    fn equal_loss_ties_go_to_smallest_slot_on_both_paths() {
        // With delta = 3 the nearer band (slots 9–17) ties nine ways;
        // the fixed rule must pick its three smallest slots, on the index
        // search and on the brute-force reference alike.
        let q = Point::new(50.0, 0.0);
        let mut ed = DatasetEditor::new(tie_heavy_trajs(), IndexKind::default(), domain());
        assert_eq!(ed.increase_tf(q, 3), 3);
        let chosen: Vec<usize> =
            (0..18).filter(|&t| ed.trajectories()[t].passes_through(q.key())).collect();
        assert_eq!(chosen, vec![9, 10, 11]);
        let reference: Vec<usize> =
            brute_force_increase(&tie_heavy_trajs(), q, 3).into_iter().map(|(t, _)| t).collect();
        assert_eq!(reference, chosen);
    }

    #[test]
    fn knn_tie_straddle_at_k_cutoff_still_picks_smallest_slots() {
        // 30 identical trajectories: every eligible segment ties. The
        // grouped search must rank the tie by slot, not let index-visit
        // order decide it.
        let trajs: Vec<Trajectory> =
            (0..30).map(|id| traj(id, &[(0.0, 10.0), (100.0, 10.0)])).collect();
        let q = Point::new(50.0, 0.0);
        let mut ed = DatasetEditor::new(trajs, IndexKind::default(), domain());
        assert_eq!(ed.increase_tf(q, 2), 2);
        let chosen: Vec<usize> =
            (0..30).filter(|&t| ed.trajectories()[t].passes_through(q.key())).collect();
        assert_eq!(chosen, vec![0, 1]);
    }

    #[test]
    fn decrease_tf_breaks_ties_by_smallest_slot() {
        // q sits on the straight line of every trajectory, so all four
        // complete-deletion losses are exactly zero.
        let pts: &[(f64, f64)] = &[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)];
        let trajs: Vec<Trajectory> = (0..4).map(|id| traj(id, pts)).collect();
        let q = Point::new(50.0, 0.0).key();
        let mut ed = DatasetEditor::new(trajs, IndexKind::default(), domain());
        assert_eq!(ed.decrease_tf(q, 2), 2);
        ed.check_invariants();
        assert_eq!(ed.trajectories()[0].count_point(q), 0);
        assert_eq!(ed.trajectories()[1].count_point(q), 0);
        assert!(ed.trajectories()[2].passes_through(q));
        assert!(ed.trajectories()[3].passes_through(q));
    }

    // ---------- incremental index upkeep vs. a fresh build ----------

    /// Differential check of the incremental index upkeep: after every
    /// edit, an editor built from scratch over the current trajectories
    /// must make the same next selection, with the same loss and the
    /// same search work. A stale or missing index entry (a segment left
    /// behind by a deletion, or a merged segment with the wrong
    /// geometry) passes the count-only `check_invariants` but changes
    /// what a later search sees. Increases often target points deleted
    /// earlier, right where a stale entry would sit.
    #[test]
    fn incremental_edits_match_a_fresh_index_build() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use trajdp_synth::{generate, GeneratorConfig};
        for seed in [5u64, 23] {
            let world = generate(&GeneratorConfig::tdrive_profile(16, 40, seed));
            let domain = world.dataset.domain;
            for kind in all_index_kinds() {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ed = DatasetEditor::new(world.dataset.trajectories.clone(), kind, domain);
                let mut deleted: Vec<Point> = Vec::new();
                for step in 0..60 {
                    let mut fresh = DatasetEditor::new(ed.trajectories().to_vec(), kind, domain);
                    fresh.loss = ed.loss;
                    fresh.stats = ed.stats;
                    let live: Vec<&Trajectory> =
                        ed.trajectories().iter().filter(|t| !t.is_empty()).collect();
                    let traj = live[rng.gen_range(0..live.len())];
                    let sample = traj.samples[rng.gen_range(0..traj.len())].loc;
                    let what = if rng.gen_bool(0.4) {
                        let delta = rng.gen_range(1..4usize);
                        deleted.push(sample);
                        assert_eq!(
                            ed.decrease_tf(sample.key(), delta),
                            fresh.decrease_tf(sample.key(), delta)
                        );
                        format!("decrease {sample:?} by {delta}")
                    } else {
                        let q = if !deleted.is_empty() && rng.gen_bool(0.5) {
                            deleted[rng.gen_range(0..deleted.len())]
                        } else {
                            sample
                        };
                        let delta = rng.gen_range(1..5usize);
                        assert_eq!(ed.increase_tf(q, delta), fresh.increase_tf(q, delta));
                        format!("increase {q:?} by {delta}")
                    };
                    let at = format!("seed {seed}, {kind:?}, step {step}: {what}");
                    ed.check_invariants();
                    assert_eq!(ed.trajectories(), fresh.trajectories(), "{at}: selection differs");
                    assert_eq!(ed.loss, fresh.loss, "{at}: loss differs");
                    assert_eq!(ed.stats, fresh.stats, "{at}: search work differs");
                }
            }
        }
    }
}
