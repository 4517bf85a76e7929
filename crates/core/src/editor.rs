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
//! Index upkeep is incremental in both editors: an edit rewrites only
//! the segments it changes. An insertion replaces one segment with two;
//! deleting a sample (the shared `delete_sample` step) removes the one
//! or two segments touching it and registers the merged segment, so a
//! complete deletion of a point costs a few index operations per
//! occurrence, not a re-registration of the whole trajectory. Segment
//! ids come from a counter and are never reused. [`DatasetEditor`]
//! maps them to their trajectory slots in a dense owner vector, and
//! each nearest-segment search filters through a per-query slot mask of
//! the trajectories already containing the point, so the filter the
//! index calls for every checked segment does no hashing.

use crate::indexkind::{AnyIndex, IndexKind};
use crate::pool;
use std::collections::{BinaryHeap, HashMap, HashSet};
use trajdp_index::{SearchStats, SegmentEntry, TotalF64};
use trajdp_model::{Point, PointKey, Rect, Trajectory};

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
        let mut index = AnyIndex::new(kind, domain);
        let mut seg_ids = Vec::with_capacity(traj.num_segments());
        for (i, seg) in traj.segments() {
            let id = i as u64;
            index.insert(SegmentEntry::new(id, seg));
            seg_ids.push(id);
        }
        let next_id = seg_ids.len() as u64;
        Self {
            traj,
            seg_ids,
            index,
            next_id,
            loss: 0.0,
            stats: SearchStats::default(),
            insertions: 0,
            deletions: 0,
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
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
        if self.traj.len() < 2 {
            // No segments exist: append (the degenerate fallback).
            for _ in 0..delta {
                incurred += self.traj.push_point(q);
                self.insertions += 1;
            }
            self.rebuild_index_suffix(0);
            self.loss += incurred;
            return incurred;
        }
        let (neighbors, stats) = self.index.knn_with_stats(&q, delta, None);
        self.accumulate(stats);
        // Map neighbour ids to current segment positions; insert from the
        // highest position down so earlier positions stay valid.
        let mut positions: Vec<usize> = neighbors
            .iter()
            .filter_map(|n| self.seg_ids.iter().position(|&id| id == n.id))
            .collect();
        positions.sort_unstable_by(|a, b| b.cmp(a));
        for pos in positions {
            incurred += self.insert_at_segment(q, pos);
        }
        // If the trajectory had fewer segments than `delta`, append the
        // remainder at the nearest end.
        let done = neighbors.len();
        for _ in done..delta {
            incurred += self.traj.push_point(q);
            self.insertions += 1;
            let last = self.traj.len() - 2;
            let id = self.fresh_id();
            self.index.insert(SegmentEntry::new(id, self.traj.segment(last)));
            self.seg_ids.push(id);
        }
        self.loss += incurred;
        incurred
    }

    /// Inserts `q` into segment `pos`, splitting the index entry.
    fn insert_at_segment(&mut self, q: Point, pos: usize) -> f64 {
        let old_id = self.seg_ids[pos];
        self.index.remove(old_id);
        let loss = self.traj.insert_into_segment(q, pos);
        self.insertions += 1;
        let left = self.fresh_id();
        let right = self.fresh_id();
        self.index.insert(SegmentEntry::new(left, self.traj.segment(pos)));
        self.index.insert(SegmentEntry::new(right, self.traj.segment(pos + 1)));
        self.seg_ids.splice(pos..=pos, [left, right]);
        loss
    }

    /// Deletes `delta` occurrences of `q`, each time removing the
    /// occurrence with the smallest reconnection loss (the K-nearest
    /// deletion of Definition 10). Deletes all occurrences when fewer
    /// than `delta` exist. Returns the utility loss incurred.
    pub fn delete_occurrences(&mut self, q: PointKey, delta: usize) -> f64 {
        let mut incurred = 0.0;
        for _ in 0..delta {
            let occ = self.traj.occurrences(q);
            let Some(&best) = occ.iter().min_by(|&&a, &&b| {
                self.traj.deletion_loss(a).total_cmp(&self.traj.deletion_loss(b))
            }) else {
                break;
            };
            incurred += self.delete_at(best);
        }
        self.loss += incurred;
        incurred
    }

    /// Deletes the sample at `idx`, merging the index entries.
    fn delete_at(&mut self, idx: usize) -> f64 {
        let next_id = &mut self.next_id;
        let loss = delete_sample(&mut self.traj, &mut self.seg_ids, &mut self.index, idx, || {
            let id = *next_id;
            *next_id += 1;
            id
        });
        self.deletions += 1;
        loss
    }

    /// Re-registers all segments from position `from` (used after bulk
    /// structural changes).
    fn rebuild_index_suffix(&mut self, from: usize) {
        for &id in &self.seg_ids[from.min(self.seg_ids.len())..] {
            self.index.remove(id);
        }
        self.seg_ids.truncate(from.min(self.seg_ids.len()));
        for i in from..self.traj.num_segments() {
            let id = self.next_id;
            self.next_id += 1;
            self.index.insert(SegmentEntry::new(id, self.traj.segment(i)));
            self.seg_ids.push(id);
        }
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
/// selection: on equal loss the smallest slot wins, so merging chunk
/// heaps is order-independent.
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
    /// Inverted occurrence map: point → trajectory slots containing it.
    containing: HashMap<PointKey, HashSet<usize>>,
    /// Cached per-trajectory bounding boxes for branch-and-bound
    /// candidate pruning (the paper's §V-C future-work optimization).
    bboxes: Vec<Rect>,
    /// Whether `increase_tf` uses trajectory-bbox branch-and-bound
    /// instead of the segment index.
    pub use_bbox_pruning: bool,
    /// Worker threads for the exact-loss candidate scans of
    /// [`Self::increase_tf`] (bbox path) and [`Self::decrease_tf`].
    /// The scans are pure, so the selection — and therefore the edited
    /// dataset — is identical at every value; `1` scans serially.
    pub workers: usize,
    domain: Rect,
    kind: IndexKind,
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
        let mut index = AnyIndex::new(kind, domain);
        let mut seg_ids = Vec::with_capacity(trajs.len());
        let mut owner = Vec::with_capacity(trajs.iter().map(Trajectory::num_segments).sum());
        let mut containing: HashMap<PointKey, HashSet<usize>> = HashMap::new();
        for (t, traj) in trajs.iter().enumerate() {
            let mut ids = Vec::with_capacity(traj.num_segments());
            for (_, seg) in traj.segments() {
                let id = claim_id(&mut owner, t);
                index.insert(SegmentEntry::new(id, seg));
                ids.push(id);
            }
            seg_ids.push(ids);
            for s in &traj.samples {
                containing.entry(s.loc.key()).or_default().insert(t);
            }
        }
        let bboxes = trajs.iter().map(Trajectory::bbox).collect();
        Self {
            trajs,
            seg_ids,
            index,
            owner,
            containing,
            bboxes,
            use_bbox_pruning: false,
            workers: 1,
            domain,
            kind,
            loss: 0.0,
            stats: SearchStats::default(),
            insertions: 0,
            deletions: 0,
        }
    }

    /// A new segment id, owned by slot `t`.
    fn fresh_id(&mut self, t: usize) -> u64 {
        claim_id(&mut self.owner, t)
    }

    /// Finishes editing, returning the modified trajectories.
    pub fn into_trajectories(self) -> Vec<Trajectory> {
        self.trajs
    }

    /// Read access to the trajectories being edited.
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajs
    }

    /// Trajectory slots currently containing point `q`.
    pub fn trajectories_containing(&self, q: PointKey) -> Vec<usize> {
        self.containing
            .get(&q)
            .map(|s| {
                let mut v: Vec<usize> = s.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default()
    }

    fn accumulate(&mut self, s: SearchStats) {
        self.stats.cells_visited += s.cells_visited;
        self.stats.segments_checked += s.segments_checked;
    }

    /// TF-increasing task (Definition 8): inserts `q` once into each of
    /// the `delta` nearest trajectories that do not already pass through
    /// `q`. Returns the number of trajectories actually modified (may be
    /// fewer when the dataset runs out of eligible trajectories).
    pub fn increase_tf(&mut self, q: Point, delta: usize) -> usize {
        if delta == 0 {
            return 0;
        }
        if self.use_bbox_pruning {
            return self.increase_tf_bbox(q, delta);
        }
        // Slot mask of the trajectories already passing through `q`, so
        // the per-segment filter is two vector reads.
        let mut excluded = vec![false; self.trajs.len()];
        if let Some(set) = self.containing.get(&q.key()) {
            // lint: allow(determinism): sets one flag per member; the mask is the same in any visit order
            for &t in set {
                excluded[t] = true;
            }
        }
        // Grow-k nearest-segment search: score each owning trajectory by
        // its nearest reported segment, then pick the ∆l best in
        // ascending `(distance, slot)` order — on equal distance the
        // smallest slot wins, the same tie rule as the bbox path.
        let mut chosen: Vec<usize>;
        let mut k = delta.saturating_mul(4).max(8);
        loop {
            let owner = &self.owner;
            let filter = |id: u64| -> bool { !excluded[owner[id as usize]] };
            let (neighbors, stats) = self.index.knn_with_stats(&q, k, Some(&filter));
            self.accumulate(stats);
            let exhausted = neighbors.len() < k;
            // Unreported segments all lie at or beyond the search
            // frontier (the k-th reported distance).
            let frontier = neighbors.last().map_or(f64::INFINITY, |n| n.dist);
            // Neighbors arrive sorted by distance, so a trajectory's
            // first hit is its nearest reported segment.
            let mut scored: Vec<(f64, usize)> = Vec::new();
            for n in &neighbors {
                let t = self.owner[n.id as usize];
                if !scored.iter().any(|&(_, s)| s == t) {
                    scored.push((n.dist, t));
                }
            }
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            scored.truncate(delta);
            // The selection is final only once the ∆l-th distance lies
            // strictly inside the frontier: at the frontier itself, a
            // hidden equal-distance trajectory with a smaller slot could
            // still displace the ∆l-th pick (the k cutoff truncates ties
            // in index-visit order, not slot order), so keep growing.
            let settled =
                scored.len() == delta && scored.last().is_some_and(|&(d, _)| d < frontier);
            chosen = scored.into_iter().map(|(_, t)| t).collect();
            if settled || exhausted {
                break;
            }
            k *= 2;
        }
        // Fallback: trajectories with no segments can still take an
        // appended point.
        if chosen.len() < delta {
            for (t, traj) in self.trajs.iter().enumerate() {
                if chosen.len() == delta {
                    break;
                }
                if traj.num_segments() == 0 && !excluded[t] && !chosen.contains(&t) {
                    chosen.push(t);
                }
            }
        }
        let inserted = chosen.len();
        for t in chosen {
            self.insert_point_into(t, q);
        }
        inserted
    }

    /// TF-increasing task via trajectory-level branch-and-bound — the
    /// optimization §V-C leaves as future work: candidates are visited
    /// in ascending bounding-box `MINdist` order and the scan stops once
    /// the next lower bound exceeds the ∆l-th best exact insertion loss.
    /// Produces exactly the same selection as the index-based search:
    /// the ∆l smallest `(insertion loss, slot)` pairs, so equal-loss
    /// ties always go to the smallest slot.
    ///
    /// With `workers > 1` the candidate list is cut into contiguous
    /// chunks scanned concurrently; each chunk keeps its own ∆l-bounded
    /// heap (branch-and-bound prunes within the chunk, seeded with a
    /// global upper bound from the ∆l most promising candidates so
    /// chunks keep the serial path's pruning power) and the seeded heap
    /// merges with the per-chunk heaps under the same `(loss, slot)`
    /// order, so the selection is independent of the worker count. The
    /// chunks cover only the candidates *past* the seed prefix — the
    /// prefix's exact losses are already in the seeded heap, so no
    /// candidate's exact-loss sweep runs twice. Only the work
    /// *counters* (`stats.segments_checked`) vary with the worker
    /// count.
    fn increase_tf_bbox(&mut self, q: Point, delta: usize) -> usize {
        let qk = q.key();
        let containing = self.containing.get(&qk);
        // Eligible trajectories in ascending lower-bound order.
        let mut candidates: Vec<(f64, usize)> = self
            .bboxes
            .iter()
            .enumerate()
            .filter(|&(t, _)| {
                !containing.is_some_and(|s| s.contains(&t)) && !self.trajs[t].is_empty()
            })
            .map(|(t, b)| (b.min_dist(&q), t))
            .collect();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let workers = self.workers.max(1);
        let (chosen, checked) = if workers > 1 && candidates.len() > 1 {
            let trajs = &self.trajs;
            // Seed a global pruning bound from the ∆l candidates with the
            // smallest lower bounds: the final ∆l-th loss can only be
            // smaller, so every chunk may skip candidates whose lower
            // bound exceeds it — restoring the early termination the
            // serial scan gets from its evolving heap.
            let seed = delta.min(candidates.len());
            let (seeded, seed_checked) =
                Self::scan_insertion_chunk(trajs, q, delta, &candidates[..seed], f64::INFINITY);
            let bound = if seeded.len() == delta {
                seeded.last().expect("non-empty").0
            } else {
                f64::INFINITY
            };
            // Only the candidates past the seed prefix are handed to
            // the chunk pool: the prefix's exact losses are already in
            // `seeded`, and re-scanning them inside chunk 0 would pay
            // the exact-loss sweep of the first ∆l candidates twice.
            let shards = pool::map_chunks(workers, &candidates[seed..], |_, chunk| {
                Self::scan_insertion_chunk(trajs, q, delta, chunk, bound)
            });
            let mut merged = seeded;
            merged.reserve(delta * shards.len());
            let mut checked = seed_checked;
            for (part, c) in shards {
                merged.extend(part);
                checked += c;
            }
            merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            merged.truncate(delta);
            (merged, checked)
        } else {
            Self::scan_insertion_chunk(&self.trajs, q, delta, &candidates, f64::INFINITY)
        };
        self.stats.segments_checked += checked;
        let inserted = chosen.len();
        for (_, t) in chosen {
            self.insert_point_into(t, q);
        }
        inserted
    }

    /// Branch-and-bound exact-loss scan over one chunk of `(lower bound,
    /// slot)` candidates sorted ascending by `(lower, slot)`. Returns the
    /// chunk's ∆l smallest `(exact loss, slot)` pairs in ascending order
    /// plus the number of segments whose distance was computed. `bound`
    /// is an optional global upper bound on the final ∆l-th loss; the
    /// scan stops at the first candidate provably worse than either it
    /// or the chunk-local ∆l-th best.
    fn scan_insertion_chunk(
        trajs: &[Trajectory],
        q: Point,
        delta: usize,
        chunk: &[(f64, usize)],
        bound: f64,
    ) -> (Vec<(f64, usize)>, usize) {
        let mut best: BinaryHeap<(TotalF64, usize)> = BinaryHeap::with_capacity(delta + 1);
        let mut checked = 0;
        for &(lower, t) in chunk {
            // A strictly larger lower bound cannot beat the ∆l-th best
            // loss, not even on a tie (exact >= lower > best). Lower
            // bounds ascend within the chunk, so stop outright.
            if lower > bound
                || (best.len() == delta && lower > best.peek().expect("non-empty").0 .0)
            {
                break;
            }
            let traj = &trajs[t];
            let exact = if traj.num_segments() == 0 {
                // Single-sample trajectory: appending costs the distance
                // from its only sample.
                traj.samples.last().map_or(f64::INFINITY, |s| s.loc.dist(&q))
            } else {
                traj.segments().map(|(_, s)| s.dist_to_point(&q)).fold(f64::INFINITY, f64::min)
            };
            checked += traj.num_segments().max(1);
            push_bounded(&mut best, delta, (TotalF64(exact), t));
        }
        (best.into_sorted_vec().into_iter().map(|(l, t)| (l.0, t)).collect(), checked)
    }

    /// Inserts `q` into trajectory slot `t` at its best segment.
    fn insert_point_into(&mut self, t: usize, q: Point) {
        let traj = &self.trajs[t];
        if traj.len() < 2 {
            self.loss += self.trajs[t].push_point(q);
            self.insertions += 1;
            if self.trajs[t].len() >= 2 {
                let pos = self.trajs[t].num_segments() - 1;
                let id = self.fresh_id(t);
                self.index.insert(SegmentEntry::new(id, self.trajs[t].segment(pos)));
                self.seg_ids[t].push(id);
            }
        } else {
            // Scan the trajectory for the minimum-loss segment (the
            // index already narrowed the trajectory choice).
            let pos = (0..traj.num_segments())
                .min_by(|&a, &b| {
                    traj.segment(a).dist_to_point(&q).total_cmp(&traj.segment(b).dist_to_point(&q))
                })
                .expect("non-empty segment list");
            self.index.remove(self.seg_ids[t][pos]);
            self.loss += self.trajs[t].insert_into_segment(q, pos);
            self.insertions += 1;
            let left = self.fresh_id(t);
            let right = self.fresh_id(t);
            self.index.insert(SegmentEntry::new(left, self.trajs[t].segment(pos)));
            self.index.insert(SegmentEntry::new(right, self.trajs[t].segment(pos + 1)));
            self.seg_ids[t].splice(pos..=pos, [left, right]);
        }
        self.containing.entry(q.key()).or_default().insert(t);
        self.bboxes[t].expand(&q);
    }

    /// TF-decreasing task (Definition 8): completely deletes `q` from the
    /// `delta` trajectories (among those containing it) with the least
    /// complete-deletion loss. Returns the number of trajectories
    /// actually modified.
    pub fn decrease_tf(&mut self, q: PointKey, delta: usize) -> usize {
        if delta == 0 {
            return 0;
        }
        let victims = self.decrease_victims(q, delta, self.workers);
        self.apply_decrease(q, &victims);
        victims.len()
    }

    /// The ∆l victims a [`Self::decrease_tf`] of `q` would delete from:
    /// the trajectories containing `q` with the smallest `(complete-
    /// deletion loss, slot)` pairs, in ascending order — equal-loss ties
    /// go to the smallest slot. A pure scan over up to `workers`
    /// threads; the selection is identical at every worker count.
    pub fn decrease_victims(&self, q: PointKey, delta: usize, workers: usize) -> Vec<usize> {
        if delta == 0 {
            return Vec::new();
        }
        let candidates = self.trajectories_containing(q);
        // Complete-deletion loss per candidate: Σ_s L[OP_d(q, s)].
        let score_chunk = |_lo: usize, chunk: &[usize]| -> Vec<(TotalF64, usize)> {
            let mut best: BinaryHeap<(TotalF64, usize)> = BinaryHeap::with_capacity(delta + 1);
            for &t in chunk {
                let traj = &self.trajs[t];
                let total: f64 =
                    traj.occurrences(q).into_iter().map(|i| traj.deletion_loss(i)).sum();
                push_bounded(&mut best, delta, (TotalF64(total), t));
            }
            best.into_sorted_vec()
        };
        let mut scored: Vec<(TotalF64, usize)> = if workers > 1 && candidates.len() > 1 {
            pool::map_chunks(workers, &candidates, score_chunk).into_iter().flatten().collect()
        } else {
            score_chunk(0, &candidates)
        };
        scored.sort_unstable();
        scored.into_iter().take(delta).map(|(_, t)| t).collect()
    }

    /// Applies a decrease previously scanned by [`Self::decrease_victims`]:
    /// deletes every occurrence of `q` from each victim, in order.
    pub fn apply_decrease(&mut self, q: PointKey, victims: &[usize]) {
        for &t in victims {
            self.delete_point_from(t, q);
        }
    }

    /// Removes every occurrence of `q` from slot `t`. Each deletion
    /// rewrites only the one or two segments touching the occurrence
    /// (the step [`TrajectoryEditor`] takes too); the rest of the
    /// trajectory keeps its index entries. Occurrences go first to last
    /// and the losses are summed before they reach `self.loss`, exactly
    /// as [`Trajectory::delete_all`] does.
    fn delete_point_from(&mut self, t: usize, q: PointKey) {
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
        if let Some(s) = self.containing.get_mut(&q) {
            s.remove(&t);
            if s.is_empty() {
                self.containing.remove(&q);
            }
        }
        // Deletion may shrink the extent; recompute the cached box.
        self.bboxes[t] = self.trajs[t].bbox();
    }

    /// Current TF of `q` as tracked by the editor.
    pub fn tf(&self, q: PointKey) -> usize {
        self.containing.get(&q).map_or(0, HashSet::len)
    }

    /// The domain the editor indexes over.
    pub fn domain(&self) -> Rect {
        self.domain
    }

    /// The index kind the editor was built with.
    pub fn kind(&self) -> IndexKind {
        self.kind
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
        // lint: allow(determinism): assertion-only walk; every entry is checked and no output depends on visit order
        for (k, set) in &self.containing {
            for &t in set {
                assert!(self.trajs[t].passes_through(*k), "stale containing entry");
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

    // ---------- bbox-pruned inter-trajectory modification ----------

    #[test]
    fn bbox_pruning_selects_same_trajectories() {
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
            let mut plain = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            let mut pruned = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            pruned.use_bbox_pruning = true;
            assert_eq!(plain.increase_tf(q, delta), pruned.increase_tf(q, delta));
            pruned.check_invariants();
            let a: Vec<bool> =
                plain.trajectories().iter().map(|t| t.passes_through(q.key())).collect();
            let b: Vec<bool> =
                pruned.trajectories().iter().map(|t| t.passes_through(q.key())).collect();
            assert_eq!(a, b, "delta={delta}: pruned selection differs");
            assert!((plain.loss - pruned.loss).abs() < 1e-9, "loss differs at delta={delta}");
        }
    }

    #[test]
    fn bbox_pruning_checks_fewer_segments() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let trajs: Vec<Trajectory> = (0..60)
            .map(|id| {
                let cx: f64 = rng.gen_range(0.0..900.0);
                let cy: f64 = rng.gen_range(0.0..900.0);
                let pts: Vec<(f64, f64)> = (0..20)
                    .map(|_| (cx + rng.gen_range(0.0..60.0), cy + rng.gen_range(0.0..60.0)))
                    .collect();
                traj(id, &pts)
            })
            .collect();
        let total_segments: usize = trajs.iter().map(Trajectory::num_segments).sum();
        let mut pruned = DatasetEditor::new(trajs, IndexKind::default(), domain());
        pruned.use_bbox_pruning = true;
        pruned.increase_tf(Point::new(10.0, 10.0), 2);
        assert!(
            pruned.stats.segments_checked < total_segments / 2,
            "pruning should skip most trajectories: checked {} of {}",
            pruned.stats.segments_checked,
            total_segments
        );
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
    fn bbox_vs_index_parity_on_tie_heavy_dataset() {
        let trajs = tie_heavy_trajs();
        let q = Point::new(50.0, 0.0);
        for delta in [1usize, 3, 9, 12, 17] {
            let mut plain = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            let mut pruned = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            pruned.use_bbox_pruning = true;
            assert_eq!(plain.increase_tf(q, delta), pruned.increase_tf(q, delta));
            let a: Vec<bool> =
                plain.trajectories().iter().map(|t| t.passes_through(q.key())).collect();
            let b: Vec<bool> =
                pruned.trajectories().iter().map(|t| t.passes_through(q.key())).collect();
            assert_eq!(a, b, "delta={delta}: selections diverge on ties");
            assert!((plain.loss - pruned.loss).abs() < 1e-9, "delta={delta}");
        }
    }

    #[test]
    fn equal_loss_ties_go_to_smallest_slot_on_both_paths() {
        // With delta = 3 the nearer band (slots 9–17) ties nine ways;
        // the fixed rule must pick its three smallest slots.
        let q = Point::new(50.0, 0.0);
        for bbox in [false, true] {
            let mut ed = DatasetEditor::new(tie_heavy_trajs(), IndexKind::default(), domain());
            ed.use_bbox_pruning = bbox;
            assert_eq!(ed.increase_tf(q, 3), 3);
            let chosen: Vec<usize> =
                (0..18).filter(|&t| ed.trajectories()[t].passes_through(q.key())).collect();
            assert_eq!(chosen, vec![9, 10, 11], "bbox={bbox}");
        }
    }

    #[test]
    fn knn_tie_straddle_at_k_cutoff_still_picks_smallest_slots() {
        // 30 identical trajectories: every eligible segment ties, and
        // the initial k = 8 cutoff hides most of them behind the search
        // frontier. The kNN path must keep growing k instead of letting
        // index-visit order decide the tie, staying in lockstep with
        // the bbox path.
        let trajs: Vec<Trajectory> =
            (0..30).map(|id| traj(id, &[(0.0, 10.0), (100.0, 10.0)])).collect();
        let q = Point::new(50.0, 0.0);
        for bbox in [false, true] {
            let mut ed = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            ed.use_bbox_pruning = bbox;
            assert_eq!(ed.increase_tf(q, 2), 2);
            let chosen: Vec<usize> =
                (0..30).filter(|&t| ed.trajectories()[t].passes_through(q.key())).collect();
            assert_eq!(chosen, vec![0, 1], "bbox={bbox}");
        }
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

    /// Seeded cluster dataset shared by the worker-invariance tests.
    fn clustered_trajs(n: usize, seed: u64) -> Vec<Trajectory> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|id| {
                let cx: f64 = rng.gen_range(0.0..900.0);
                let cy: f64 = rng.gen_range(0.0..900.0);
                let pts: Vec<(f64, f64)> = (0..10)
                    .map(|_| (cx + rng.gen_range(0.0..100.0), cy + rng.gen_range(0.0..100.0)))
                    .collect();
                traj(id as u64, &pts)
            })
            .collect()
    }

    #[test]
    fn bbox_increase_is_worker_count_invariant() {
        let trajs = clustered_trajs(40, 101);
        let total_segments: usize = trajs.iter().map(Trajectory::num_segments).sum();
        let q = Point::new(450.0, 450.0);
        for delta in [1usize, 4, 11] {
            let mut serial = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            serial.use_bbox_pruning = true;
            serial.increase_tf(q, delta);
            for workers in [2usize, 3, 8] {
                let mut par = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
                par.use_bbox_pruning = true;
                par.workers = workers;
                par.increase_tf(q, delta);
                par.check_invariants();
                assert_eq!(
                    par.trajectories(),
                    serial.trajectories(),
                    "delta={delta} workers={workers}"
                );
                assert_eq!(par.loss, serial.loss, "delta={delta} workers={workers}");
                // Every candidate's exact-loss sweep runs at most once
                // (the chunks exclude the seed prefix), so the scan
                // work can never exceed one full pass.
                assert!(
                    par.stats.segments_checked <= total_segments,
                    "delta={delta} workers={workers}: checked {} of {total_segments}",
                    par.stats.segments_checked
                );
            }
        }
    }

    #[test]
    fn parallel_bbox_scan_does_not_rescan_the_seed_prefix() {
        // With delta = candidate count no pruning is possible, so a
        // single-scan implementation checks every segment exactly once.
        // The old chunking handed the *whole* candidate list to the
        // pool after seeding the bound from its prefix, so chunk 0
        // re-scanned the first ∆l candidates and the counter exceeded
        // the total.
        let trajs = clustered_trajs(12, 9);
        let total_segments: usize = trajs.iter().map(Trajectory::num_segments).sum();
        let q = Point::new(450.0, 450.0); // not on any trajectory
        for workers in [2usize, 3, 8] {
            let mut ed = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            ed.use_bbox_pruning = true;
            ed.workers = workers;
            assert_eq!(ed.increase_tf(q, trajs.len()), trajs.len());
            assert_eq!(
                ed.stats.segments_checked, total_segments,
                "workers={workers}: the seed prefix must not be scanned twice"
            );
        }
    }

    #[test]
    fn decrease_is_worker_count_invariant() {
        // Plant a shared point in every trajectory so the decrease scan
        // has a wide candidate set.
        let q = Point::new(500.0, 500.0);
        let trajs: Vec<Trajectory> = clustered_trajs(30, 77)
            .into_iter()
            .map(|mut t| {
                t.push_point(q);
                t
            })
            .collect();
        for delta in [1usize, 7, 30] {
            let mut serial = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            serial.decrease_tf(q.key(), delta);
            for workers in [2usize, 3, 8] {
                let mut par = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
                par.workers = workers;
                par.decrease_tf(q.key(), delta);
                par.check_invariants();
                assert_eq!(
                    par.trajectories(),
                    serial.trajectories(),
                    "delta={delta} workers={workers}"
                );
                assert_eq!(par.loss, serial.loss, "delta={delta} workers={workers}");
            }
        }
    }

    #[test]
    fn decrease_victims_is_a_pure_scan() {
        let q = Point::new(500.0, 500.0);
        let trajs: Vec<Trajectory> = clustered_trajs(10, 5)
            .into_iter()
            .map(|mut t| {
                t.push_point(q);
                t
            })
            .collect();
        let ed = DatasetEditor::new(trajs, IndexKind::default(), domain());
        let before: Vec<Trajectory> = ed.trajectories().to_vec();
        let victims = ed.decrease_victims(q.key(), 3, 4);
        assert_eq!(victims.len(), 3);
        assert_eq!(ed.trajectories(), &before[..], "scan must not modify the dataset");
        assert_eq!(victims, ed.decrease_victims(q.key(), 3, 1), "worker count changed the scan");
    }

    #[test]
    fn bbox_stays_consistent_after_edits() {
        let mut ed = make_dataset_editor();
        let q = Point::new(5000.0, 5000.0); // outside current boxes (clamped into domain use)
        let q = Point::new(q.x.min(1000.0), q.y.min(1000.0));
        ed.use_bbox_pruning = true;
        ed.increase_tf(q, 2);
        ed.check_invariants();
        // After inserting q the cached boxes must cover it.
        for (t, traj) in ed.trajectories().iter().enumerate() {
            if traj.passes_through(q.key()) {
                assert!(ed.bboxes[t].contains(&q));
            }
        }
        ed.decrease_tf(q.key(), 2);
        for (t, traj) in ed.trajectories().iter().enumerate() {
            assert_eq!(ed.bboxes[t], traj.bbox(), "bbox stale after deletion in slot {t}");
        }
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
