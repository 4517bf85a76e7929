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
//! Index upkeep is incremental in both editors, and an edit touches only
//! the segments it changes: an insertion splits one segment into two (or
//! appends the point and closes one segment), and a deletion removes the
//! one or two segments touching a sample and adds the merged one. So a
//! complete deletion of a point costs a few index operations per
//! occurrence, not a re-registration of the whole trajectory.
//!
//! [`TrajectoryEditor`] indexes every segment under its own id, handed
//! out by a counter and never reused. [`DatasetEditor`] indexes each
//! distinct ordered segment *geometry* — a pair of location ids — once,
//! with the number of copies every trajectory slot holds: a road segment
//! driven by many trajectories is one entry, so a search computes its
//! distance once. It tracks the location id of every sample, so an edit
//! changes a few counts, an entry enters the index with its first copy
//! and leaves with its last. A TF increase is one grouped index search —
//! the only search of the inter-trajectory modification: its group
//! function walks an entry's owning slots, skipping those a per-query
//! slot mask says already contain the point, and the index hands back
//! the ∆l nearest trajectories themselves. A TF decrease needs no
//! search: it scans the trajectories holding the point for their exact
//! complete-deletion loss.

use crate::indexkind::{AnyIndex, IndexKind};
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use trajdp_index::{SearchStats, SegmentEntry, TotalF64};
use trajdp_model::{LocationTable, Point, PointKey, Rect, Segment, Trajectory};

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
/// in step. The segment's entry leaves `index` and `seg_ids`, and its two
/// halves are registered, left then right, under the ids `fresh` hands
/// out. Returns the insertion loss.
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

/// Appends `q` to `traj` and keeps its segment index in step. When the
/// trajectory then has a last segment, it is registered under the id
/// `fresh` hands out. Returns the append loss ([`Trajectory::push_point`]).
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

/// Deletes sample `idx` of `traj` and keeps its segment index in step.
/// Only the one or two segments touching the sample change: their
/// entries leave `index` and `seg_ids`, and an interior sample's two
/// segments collapse into the merged segment `⟨idx − 1, idx + 1⟩`,
/// registered under the id `fresh` hands out. Returns the reconnection
/// loss.
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

/// The key of the ordered geometry `(a, b)` of two location ids.
fn pair(a: u32, b: u32) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

/// A trajectory slot as the geometry table stores it.
fn slot(t: usize) -> u32 {
    u32::try_from(t).expect("more than u32::MAX trajectories")
}

/// The distinct ordered segment geometries of a dataset, each indexed
/// once under an entry id, with how many copies every slot holds. Entry
/// ids count up and are never reused: a geometry that returns after its
/// last copy left is indexed anew.
///
/// A geometry is an ordered pair of location ids. Ids stand for
/// bit-exact location keys, so all copies of a geometry have the same
/// coordinates, and the one distance a search computes for its entry is,
/// bit for bit, the distance of every copy. The reverse pair is a
/// geometry of its own, since its distance may round differently.
#[derive(Debug)]
struct Geometries {
    index: AnyIndex,
    /// [`pair`] key → entry id. The standard library's randomly keyed
    /// SipHash: the ids stand for client-chosen coordinates, as in
    /// [`LocationTable`].
    by_pair: HashMap<u64, u32>,
    /// `owners[id]`: `(slot, copies)` of every slot holding the geometry
    /// indexed under `id`, ascending by slot; empty once it has left.
    owners: Vec<Vec<(u32, u32)>>,
}

impl Geometries {
    fn new(kind: IndexKind, domain: Rect) -> Self {
        Self { index: AnyIndex::new(kind, domain), by_pair: HashMap::new(), owners: Vec::new() }
    }

    /// Counts one more copy of geometry `(a, b)`, segment `seg`, in slot
    /// `t`, indexing the geometry with its first copy.
    fn add(&mut self, a: u32, b: u32, seg: Segment, t: u32) {
        let next = u32::try_from(self.owners.len()).expect("more than u32::MAX geometries");
        let id = *self.by_pair.entry(pair(a, b)).or_insert(next);
        if id == next {
            self.owners.push(Vec::new());
            self.index.insert(SegmentEntry::new(u64::from(id), seg));
        }
        let owners = &mut self.owners[id as usize];
        match owners.last_mut() {
            // A build goes slot by slot, so its slot is the last owner or
            // a new one past it.
            Some(last) if last.0 == t => last.1 += 1,
            Some(last) if last.0 > t => {
                match owners.binary_search_by_key(&t, |&(owner, _)| owner) {
                    Ok(i) => owners[i].1 += 1,
                    Err(i) => owners.insert(i, (t, 1)),
                }
            }
            _ => owners.push((t, 1)),
        }
    }

    /// Counts one copy less of geometry `(a, b)` in slot `t`, taking the
    /// geometry out of the index with its last copy.
    fn remove(&mut self, a: u32, b: u32, t: u32) {
        let key = pair(a, b);
        let id = self.by_pair[&key];
        let owners = &mut self.owners[id as usize];
        let i = owners
            .binary_search_by_key(&t, |&(owner, _)| owner)
            .expect("the slot holds a copy of the geometry");
        owners[i].1 -= 1;
        if owners[i].1 == 0 {
            owners.remove(i);
            if owners.is_empty() {
                self.by_pair.remove(&key);
                self.index.remove(u64::from(id));
            }
        }
    }
}

/// Editor for a whole dataset, with a single index over its distinct
/// segment geometries.
#[derive(Debug)]
pub struct DatasetEditor {
    trajs: Vec<Trajectory>,
    /// `sample_ids[t][i]` is the location id of sample `i` of slot `t`,
    /// kept in step with every edit.
    sample_ids: Vec<Vec<u32>>,
    geometries: Geometries,
    /// Dense ids of every location the editor has seen: those of its
    /// trajectories as they came in, then any point an increase brings.
    /// Its own sample ids describe the trajectories as they came in;
    /// `sample_ids` and `containing` follow the edits.
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
    /// the samples take their ids without a location lookup; only each
    /// segment's id pair is looked up, to count its geometry.
    pub fn with_locations(
        trajs: Vec<Trajectory>,
        kind: IndexKind,
        domain: Rect,
        known: &LocationTable,
    ) -> Self {
        let locations = known.reindex(&trajs);
        let mut geometries = Geometries::new(kind, domain);
        let mut sample_ids = Vec::with_capacity(trajs.len());
        let mut containing = vec![Vec::new(); locations.len()];
        for (t, traj) in trajs.iter().enumerate() {
            let ids = locations.trajectory(t);
            for (i, seg) in traj.segments() {
                geometries.add(ids[i], ids[i + 1], seg, slot(t));
            }
            for &id in ids {
                let slots: &mut Vec<usize> = &mut containing[id as usize];
                if slots.last() != Some(&t) {
                    slots.push(t);
                }
            }
            sample_ids.push(ids.to_vec());
        }
        Self {
            trajs,
            sample_ids,
            geometries,
            locations,
            containing,
            loss: 0.0,
            stats: SearchStats::default(),
            insertions: 0,
            deletions: 0,
        }
    }

    /// Finishes editing, returning the modified trajectories and a
    /// location table whose sample ids describe them exactly: every
    /// location keeps the id [`Self::with_locations`] numbered it by, so
    /// a stage that reads the analysis's ids can read these in their
    /// place ([`LocationTable::sample_id`]) without hashing a sample.
    pub fn into_parts(self) -> (Vec<Trajectory>, LocationTable) {
        let table = self.locations.with_samples(&self.sample_ids);
        (self.trajs, table)
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
    fn location_id(&mut self, q: PointKey) -> u32 {
        let id = self.locations.intern(q);
        if id as usize == self.containing.len() {
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
    /// distance the smallest slot wins. The geometry index finds them in
    /// one grouped search (groups = owning slots). Trajectories without a
    /// segment (fewer than two samples) come after all of these, in slot
    /// order, and take `q` appended.
    pub fn increase_tf(&mut self, q: Point, delta: usize) -> usize {
        if delta == 0 {
            return 0;
        }
        // Slot mask of the trajectories already passing through `q`, so
        // the owner walk reads one vector per owner.
        let id = self.location_id(q.key());
        let mut excluded = vec![false; self.trajs.len()];
        for &t in &self.containing[id as usize] {
            excluded[t] = true;
        }
        let owners = &self.geometries.owners;
        let group = |entry: u64, offer: &mut dyn FnMut(u64)| {
            for &(t, _) in &owners[entry as usize] {
                if !excluded[t as usize] {
                    offer(u64::from(t));
                }
            }
        };
        let (nearest, stats) = self.geometries.index.knn_with_stats(&q, delta, Some(&group));
        self.accumulate(stats);
        // Fallback: trajectories with no segments can still take an
        // appended point.
        let segmentless: Vec<usize> = (0..self.trajs.len())
            .filter(|&t| self.trajs[t].num_segments() == 0 && !excluded[t])
            .take(delta - nearest.len())
            .collect();
        for n in &nearest {
            self.insert_point_into(n.group as usize, q, id, Some(n.dist));
        }
        for &t in &segmentless {
            self.insert_point_into(t, q, id, None);
        }
        nearest.len() + segmentless.len()
    }

    /// Inserts `q`, location `id`, into trajectory slot `t`: into its
    /// first segment at `dist` — the trajectory's distance from `q`, as
    /// the search reported it, so the first minimum-loss segment — which
    /// leaves the geometry table as two halves; or, with no distance,
    /// appended to a trajectory without segments. A geometry's one index
    /// entry has the same coordinates as every copy, so the reported
    /// distance equals the scanned one bit for bit.
    fn insert_point_into(&mut self, t: usize, q: Point, id: u32, dist: Option<f64>) {
        let (traj, ids, geometries) =
            (&mut self.trajs[t], &mut self.sample_ids[t], &mut self.geometries);
        self.loss += match dist {
            None => {
                let loss = traj.push_point(q);
                ids.push(id);
                if let Some(last) = traj.num_segments().checked_sub(1) {
                    geometries.add(ids[last], id, traj.segment(last), slot(t));
                }
                loss
            }
            Some(dist) => {
                let pos = (0..traj.num_segments())
                    .find(|&i| TotalF64(traj.segment(i).dist_to_point(&q)) == TotalF64(dist))
                    .expect("a segment at the trajectory's reported distance");
                geometries.remove(ids[pos], ids[pos + 1], slot(t));
                let loss = traj.insert_into_segment(q, pos);
                ids.insert(pos + 1, id);
                geometries.add(ids[pos], id, traj.segment(pos), slot(t));
                geometries.add(id, ids[pos + 2], traj.segment(pos + 1), slot(t));
                loss
            }
        };
        self.insertions += 1;
        let slots = &mut self.containing[id as usize];
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
            let (traj, ids) = (&self.trajs[t], &self.sample_ids[t]);
            let total: f64 =
                (0..ids.len()).filter(|&i| ids[i] == id).map(|i| traj.deletion_loss(i)).sum();
            push_bounded(&mut best, delta, (TotalF64(total), t));
        }
        let victims = best.into_sorted_vec();
        for &(_, t) in &victims {
            self.delete_point_from(t, id);
        }
        victims.len()
    }

    /// Removes every occurrence of location `id` from slot `t`. Each
    /// deletion rewrites only the one or two segments touching the
    /// occurrence; the rest of the trajectory keeps its geometry counts.
    /// Occurrences go first to last and the losses are summed before
    /// they reach `self.loss`, exactly as [`Trajectory::delete_all`]
    /// does.
    fn delete_point_from(&mut self, t: usize, id: u32) {
        let (traj, ids, geometries) =
            (&mut self.trajs[t], &mut self.sample_ids[t], &mut self.geometries);
        let mut total = 0.0;
        let mut from = 0;
        while let Some(found) = ids[from..].iter().position(|&s| s == id) {
            let (idx, len) = (from + found, ids.len());
            if idx > 0 {
                geometries.remove(ids[idx - 1], id, slot(t));
            }
            if idx + 1 < len {
                geometries.remove(id, ids[idx + 1], slot(t));
            }
            total += traj.delete_at(idx);
            ids.remove(idx);
            // The two touching segments collapse into one (interior) or
            // none (endpoint).
            if idx > 0 && idx + 1 < len {
                geometries.add(ids[idx - 1], ids[idx], traj.segment(idx - 1), slot(t));
            }
            self.deletions += 1;
            from = idx;
        }
        self.loss += total;
        let slots = &mut self.containing[id as usize];
        if let Ok(at) = slots.binary_search(&t) {
            slots.remove(at);
        }
    }

    /// Current TF of `q` as tracked by the editor.
    pub fn tf(&self, q: PointKey) -> usize {
        self.holders(q).len()
    }

    /// Internal invariant check used by tests: the sample ids match the
    /// samples, every geometry's owner counts equal the copies the
    /// trajectories hold, no ownerless geometry stays keyed or indexed,
    /// and the occurrence map matches the trajectories.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let g = &self.geometries;
        let mut copies: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for (t, traj) in self.trajs.iter().enumerate() {
            let ids = &self.sample_ids[t];
            assert_eq!(ids.len(), traj.len(), "slot {t} sample id count");
            for (s, &id) in traj.samples.iter().zip(ids) {
                assert_eq!(self.locations.key(id), s.loc.key(), "slot {t}: stale sample id");
            }
            for w in ids.windows(2) {
                let entry = *g.by_pair.get(&pair(w[0], w[1])).expect("segment geometry not keyed");
                *copies.entry((entry, slot(t))).or_default() += 1;
            }
        }
        let mut held: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for (entry, owners) in g.owners.iter().enumerate() {
            assert!(owners.windows(2).all(|w| w[0].0 < w[1].0), "owners not ascending");
            held.extend(owners.iter().map(|&(t, n)| ((entry as u32, t), n)));
        }
        // With the counts equal, every owned entry is some segment's, so
        // a key count equal to the owned entries leaves no key to spare.
        assert_eq!(held, copies, "owner counts differ from the trajectories' segments");
        let live = g.owners.iter().filter(|owners| !owners.is_empty()).count();
        assert_eq!(g.by_pair.len(), live, "an ownerless geometry stays keyed");
        assert_eq!(g.index.len(), live, "an ownerless geometry stays indexed");
        for (id, slots) in self.containing.iter().enumerate() {
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "containing not ascending");
            for &t in slots {
                assert!(self.sample_ids[t].contains(&(id as u32)), "stale containing entry");
            }
        }
        for (t, ids) in self.sample_ids.iter().enumerate() {
            for &id in ids {
                let held = self.containing[id as usize].binary_search(&t).is_ok();
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
        let (trajs, _) = ed.into_parts();
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
                let dist = t
                    .segments()
                    .map(|(_, s)| s.dist_to_point(&q))
                    .min_by(f64::total_cmp)
                    .expect("a segment");
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
            let at = format!("{kind:?}, q = {q:?}, delta = {delta}");
            assert_eq!(ed.increase_tf(q, delta), expected.len(), "{at}");
            ed.check_invariants();
            let gained: Vec<usize> = (0..trajs.len())
                .filter(|&t| {
                    ed.trajectories()[t].passes_through(q.key())
                        && !trajs[t].passes_through(q.key())
                })
                .collect();
            assert_eq!(gained, slots, "{at}: selection differs");
            assert_eq!(ed.loss.to_bits(), loss.to_bits(), "{at}: loss differs");
        }
    }

    /// Inputs whose trajectories share segment geometries: many slots
    /// driving one segment in both directions, a segment repeated inside
    /// one trajectory, signed zeros and NaN coordinates (each its own
    /// location), and trajectories of zero and one sample.
    fn shared_geometry_datasets() -> Vec<Vec<Trajectory>> {
        let (a, b) = ((0.0, 0.0), (100.0, 0.0));
        let shared = (0..12)
            .map(|id| match id % 4 {
                0 => traj(id, &[a, b]),
                1 => traj(id, &[b, a]),
                2 => traj(id, &[(50.0, 30.0), a, b, (150.0, 20.0)]),
                // a→b twice, b→a once.
                _ => traj(id, &[a, b, a, b]),
            })
            .collect();
        let signed = vec![
            traj(0, &[(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (10.0, 10.0)]),
            traj(1, &[(-0.0, 0.0), (0.0, 0.0), (10.0, 10.0)]),
            traj(2, &[(f64::NAN, 5.0), (10.0, 10.0), (0.0, 0.0)]),
            traj(3, &[(0.0, 0.0), (10.0, 10.0), (-0.0, -0.0)]),
            traj(4, &[(5.0, f64::NAN), (5.0, 5.0), (5.0, f64::NAN)]),
            traj(5, &[(0.0, 0.0), (10.0, 10.0)]),
        ];
        let short = vec![
            traj(0, &[a, b]),
            traj(1, &[(10.0, 51.0)]),
            Trajectory::new(2, Vec::new()),
            traj(3, &[b, a]),
            traj(4, &[a]),
            Trajectory::new(5, Vec::new()),
        ];
        vec![shared, signed, short]
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
        // Shared geometries: on, beside and at the ends of the shared
        // segment, on signed zeros and NaN, and next to the short ones.
        let queries = [
            (50.0, 0.0),
            (50.0, 5.0),
            (0.0, 0.0),
            (100.0, 0.0),
            (-0.0, 0.0),
            (0.0, -0.0),
            (-0.0, -0.0),
            (f64::NAN, 5.0),
            (5.0, f64::NAN),
            (f64::NAN, f64::NAN),
            (10.0, 50.0),
            (3.0, 3.0),
        ];
        for trajs in shared_geometry_datasets() {
            for (x, y) in queries {
                for delta in [1usize, 3, 7, trajs.len()] {
                    assert_increase_matches_brute_force(&trajs, Point::new(x, y), delta);
                }
            }
        }
    }

    #[test]
    fn a_repeated_segment_counts_its_copies_and_leaves_with_the_last() {
        // Slot 0 drives a→b twice; slot 1 lies far away.
        let (a, b) = (Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let trajs = vec![
            traj(0, &[(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 0.0), (100.0, 0.0)]),
            traj(1, &[(0.0, 1000.0), (100.0, 1000.0)]),
        ];
        for kind in all_index_kinds() {
            let mut ed = DatasetEditor::new(trajs.clone(), kind, domain());
            let copies = |ed: &DatasetEditor| {
                let (a, b) = (ed.locations.id(a.key()).unwrap(), ed.locations.id(b.key()).unwrap());
                let g = &ed.geometries;
                g.by_pair.get(&pair(a, b)).map(|&id| g.owners[id as usize].clone())
            };
            assert_eq!(copies(&ed), Some(vec![(0, 2)]), "{kind:?}");
            assert_eq!(ed.geometries.index.len(), 4, "{kind:?}: one entry per geometry");
            // 1 m above a→b: the first copy splits, the second stays.
            assert_eq!(ed.increase_tf(Point::new(50.0, 1.0), 1), 1);
            ed.check_invariants();
            assert_eq!(copies(&ed), Some(vec![(0, 1)]), "{kind:?}");
            // 1 m below: the last copy is now the nearest segment.
            assert_eq!(ed.increase_tf(Point::new(50.0, -1.0), 1), 1);
            ed.check_invariants();
            assert_eq!(copies(&ed), None, "{kind:?}: the geometry outlived its copies");
            assert_eq!(ed.geometries.index.len(), 7, "{kind:?}");
            // Deleting the inserted points merges the halves back into
            // a→b, which is indexed anew.
            assert_eq!(ed.decrease_tf(Point::new(50.0, 1.0).key(), 1), 1);
            assert_eq!(ed.decrease_tf(Point::new(50.0, -1.0).key(), 1), 1);
            ed.check_invariants();
            assert_eq!(copies(&ed), Some(vec![(0, 2)]), "{kind:?}");
            assert_eq!(bits(ed.trajectories()), bits(&trajs), "{kind:?}");
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
    /// same search work, on every index kind. A stale or missing index
    /// entry (a geometry left behind by a deletion, or a merged segment
    /// with the wrong geometry) can pass a count check but changes what
    /// a later search sees. Increases often target points deleted
    /// earlier, right where a stale entry would sit.
    fn assert_incremental_edits_match_fresh_builds(
        trajs: &[Trajectory],
        domain: Rect,
        seed: u64,
        steps: usize,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for kind in all_index_kinds() {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ed = DatasetEditor::new(trajs.to_vec(), kind, domain);
            ed.check_invariants();
            let mut deleted: Vec<Point> = Vec::new();
            for step in 0..steps {
                let mut fresh = DatasetEditor::new(ed.trajectories().to_vec(), kind, domain);
                fresh.loss = ed.loss;
                fresh.stats = ed.stats;
                let live: Vec<&Trajectory> =
                    ed.trajectories().iter().filter(|t| !t.is_empty()).collect();
                if live.is_empty() {
                    break;
                }
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
                assert_eq!(bits(ed.trajectories()), bits(fresh.trajectories()), "{at}: selection");
                assert_eq!(ed.loss.to_bits(), fresh.loss.to_bits(), "{at}: loss differs");
                assert_eq!(ed.stats, fresh.stats, "{at}: search work differs");
            }
        }
    }

    /// The trajectories bit for bit, so NaN coordinates compare equal.
    fn bits(trajs: &[Trajectory]) -> Vec<Vec<(PointKey, i64)>> {
        trajs.iter().map(|t| t.samples.iter().map(|s| (s.loc.key(), s.t)).collect()).collect()
    }

    #[test]
    fn incremental_edits_match_a_fresh_index_build() {
        use trajdp_synth::{generate, GeneratorConfig};
        for seed in [5u64, 23] {
            let world = generate(&GeneratorConfig::tdrive_profile(16, 40, seed));
            let (trajs, domain) = (&world.dataset.trajectories, world.dataset.domain);
            assert_incremental_edits_match_fresh_builds(trajs, domain, seed, 60);
        }
        for (i, trajs) in shared_geometry_datasets().iter().enumerate() {
            assert_incremental_edits_match_fresh_builds(trajs, domain(), i as u64, 40);
        }
    }
}
