//! The hierarchical grid index (§IV-C) and its three K-nearest-segment
//! search strategies.
//!
//! The index stacks nested power-of-two grid levels (granularity 1, 2, 4,
//! …, `finest`). Every segment lives in its **best-fit cell**
//! (Definition 11): the finest cell that contains both endpoints. Cells
//! record parent/child relationships implicitly through their
//! coordinates (`parent(col) = col >> 1`); nodes are materialized
//! sparsely, with ancestors created on demand so every occupied cell is
//! reachable from the root.
//!
//! Searches are exact; they differ in how quickly they shrink the pruning
//! threshold θ_K of Theorem 4:
//!
//! * [`Strategy::TopDown`] — classic best-first descent from the root.
//! * [`Strategy::BottomUp`] — stack-driven exploration starting at the
//!   finest occupied cell around the query.
//! * [`Strategy::BottomUpDown`] — Algorithm 3: a bottom-up stack phase
//!   that tightens θ_K early, switching to best-first top-down once the
//!   root is reached, which then permits early termination.

use crate::entry::{Neighbor, SearchStats, SegmentEntry, TopK, TotalF64};
use crate::fx::FxBuild;
use crate::SegmentIndex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use trajdp_model::{CellId, GridLevel, Point, Rect};

/// Which traversal order a KNN search uses. All strategies return the
/// same (exact) results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Best-first from the root (`HGt` in Figure 5).
    TopDown,
    /// Stack-based from the finest occupied cell (`HGb`).
    BottomUp,
    /// The paper's bottom-up-down search, Algorithm 3 (`HG+`).
    BottomUpDown,
}

#[derive(Debug, Clone, Default)]
struct Node {
    entries: Vec<SegmentEntry>,
    /// Segments stored in this cell or any descendant; nodes are dropped
    /// when this reaches zero.
    subtree_count: usize,
}

/// The hierarchical grid index.
///
/// # Examples
///
/// ```
/// use trajdp_index::{HierGrid, SegmentEntry, SegmentIndex, Strategy};
/// use trajdp_model::{Point, Rect, Segment};
///
/// let domain = Rect::new(0.0, 0.0, 1024.0, 1024.0);
/// let mut index = HierGrid::new(domain, 512);
/// index.insert(SegmentEntry::new(
///     7,
///     Segment::new(Point::new(100.0, 100.0), Point::new(110.0, 100.0)),
/// ));
/// index.insert(SegmentEntry::new(
///     8,
///     Segment::new(Point::new(900.0, 900.0), Point::new(910.0, 900.0)),
/// ));
///
/// // Algorithm 3 (bottom-up-down) K-nearest segment search:
/// let (hits, stats) = index.knn_with_stats(
///     &Point::new(105.0, 130.0), 1, Strategy::BottomUpDown, None,
/// );
/// assert_eq!(hits[0].id, 7);
/// assert_eq!(hits[0].dist, 30.0);
/// assert!(stats.segments_checked >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct HierGrid {
    levels: Vec<GridLevel>,
    nodes: HashMap<CellId, Node, FxBuild>,
    locations: HashMap<u64, CellId, FxBuild>,
    len: usize,
}

impl HierGrid {
    /// Creates an empty index over `domain` whose finest level has
    /// `finest × finest` cells. `finest` must be a power of two (the
    /// paper uses 512).
    pub fn new(domain: Rect, finest: u32) -> Self {
        assert!(finest.is_power_of_two(), "finest granularity must be a power of two");
        let num_levels = finest.trailing_zeros() as usize + 1;
        let levels = (0..num_levels).map(|l| GridLevel::new(domain, 1 << l, l as u8)).collect();
        Self { levels, nodes: HashMap::default(), locations: HashMap::default(), len: 0 }
    }

    /// Builds the index from entries.
    pub fn from_entries(domain: Rect, finest: u32, entries: Vec<SegmentEntry>) -> Self {
        let mut g = Self::new(domain, finest);
        for e in entries {
            g.insert(e);
        }
        g
    }

    /// Number of grid levels (`log₂(finest) + 1`).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of materialized cells (for diagnostics).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn finest(&self) -> &GridLevel {
        self.levels.last().expect("at least one level")
    }

    /// Best-fit cell of a segment: the finest level at which both
    /// endpoints share a cell (Definition 11). Level 0 (1×1) always
    /// qualifies.
    pub fn best_fit(&self, e: &SegmentEntry) -> CellId {
        let fa = self.finest().locate(&e.seg.a);
        let fb = self.finest().locate(&e.seg.b);
        let h = self.levels.len() - 1;
        // At level l, col = finest_col >> (h − l). Find the deepest l
        // where both coordinates agree.
        for l in (0..=h).rev() {
            let shift = (h - l) as u32;
            if fa.col >> shift == fb.col >> shift && fa.row >> shift == fb.row >> shift {
                return CellId::new(l as u8, fa.col >> shift, fb.row >> shift);
            }
        }
        CellId::new(0, 0, 0)
    }

    fn parent(cell: CellId) -> Option<CellId> {
        (cell.level > 0).then(|| CellId::new(cell.level - 1, cell.col >> 1, cell.row >> 1))
    }

    /// The up-to-four direct children of `cell` that are materialized.
    fn children(&self, cell: CellId) -> impl Iterator<Item = CellId> + '_ {
        let next = cell.level + 1;
        let exists = (next as usize) < self.levels.len();
        let base = (cell.col << 1, cell.row << 1);
        (0..4u32)
            .map(move |i| CellId::new(next, base.0 + (i & 1), base.1 + (i >> 1)))
            .filter(move |c| exists && self.nodes.contains_key(c))
    }

    fn cell_rect(&self, cell: CellId) -> Rect {
        self.levels[cell.level as usize].cell_rect(cell)
    }

    /// Adds one segment into its best-fit cell, materializing ancestors.
    /// Panics if the payload id is already present.
    pub fn insert(&mut self, e: SegmentEntry) {
        assert!(!self.locations.contains_key(&e.id), "duplicate segment id {}", e.id);
        let target = self.best_fit(&e);
        let mut cell = target;
        loop {
            let node = self.nodes.entry(cell).or_default();
            node.subtree_count += 1;
            if cell == target {
                node.entries.push(e);
            }
            match Self::parent(cell) {
                Some(p) => cell = p,
                None => break,
            }
        }
        self.locations.insert(e.id, target);
        self.len += 1;
    }

    /// Removes the segment with payload `id`, pruning emptied nodes;
    /// returns whether it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(target) = self.locations.remove(&id) else {
            return false;
        };
        let mut cell = target;
        loop {
            let node = self.nodes.get_mut(&cell).expect("ancestor chain must exist");
            if cell == target {
                node.entries.retain(|e| e.id != id);
            }
            node.subtree_count -= 1;
            if node.subtree_count == 0 {
                self.nodes.remove(&cell);
            }
            match Self::parent(cell) {
                Some(p) => cell = p,
                None => break,
            }
        }
        self.len -= 1;
        true
    }

    /// The deepest materialized cell whose region contains `q` — the
    /// starting point of the bottom-up strategies (Algorithm 3, line 1).
    fn deepest_occupied(&self, q: &Point) -> Option<CellId> {
        if self.nodes.is_empty() {
            return None;
        }
        let f = self.finest().locate(q);
        let h = self.levels.len() - 1;
        for l in (0..=h).rev() {
            let shift = (h - l) as u32;
            let cell = CellId::new(l as u8, f.col >> shift, f.row >> shift);
            if self.nodes.contains_key(&cell) {
                return Some(cell);
            }
        }
        None
    }

    /// KNN with an explicit strategy and work counters.
    pub fn knn_with_stats(
        &self,
        q: &Point,
        k: usize,
        strategy: Strategy,
        filter: Option<&dyn Fn(u64) -> bool>,
    ) -> (Vec<Neighbor>, SearchStats) {
        match strategy {
            Strategy::TopDown => self.search_top_down(q, k, filter),
            Strategy::BottomUp => self.search_bottom_up(q, k, filter, false),
            Strategy::BottomUpDown => self.search_bottom_up(q, k, filter, true),
        }
    }

    fn check_cell(
        &self,
        cell: CellId,
        q: &Point,
        top: &mut TopK,
        stats: &mut SearchStats,
        filter: Option<&dyn Fn(u64) -> bool>,
    ) {
        stats.cells_visited += 1;
        let node = &self.nodes[&cell];
        for e in &node.entries {
            if let Some(f) = filter {
                if !f(e.id) {
                    continue;
                }
            }
            stats.segments_checked += 1;
            top.offer(e.id, e.seg.dist_to_point(q), e.seg);
        }
    }

    fn search_top_down(
        &self,
        q: &Point,
        k: usize,
        filter: Option<&dyn Fn(u64) -> bool>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut top = TopK::new(k);
        let mut stats = SearchStats::default();
        let root = CellId::new(0, 0, 0);
        if k == 0 || !self.nodes.contains_key(&root) {
            return (top.into_sorted(), stats);
        }
        let mut queue: BinaryHeap<Reverse<(TotalF64, CellId)>> = BinaryHeap::new();
        queue.push(Reverse((TotalF64(0.0), root)));
        while let Some(Reverse((TotalF64(dist), cell))) = queue.pop() {
            if top.is_full() && dist > top.threshold() {
                break; // best-first order: everything remaining is worse
            }
            self.check_cell(cell, q, &mut top, &mut stats, filter);
            for child in self.children(cell) {
                let d = self.cell_rect(child).min_dist(q);
                if !(top.is_full() && d > top.threshold()) {
                    queue.push(Reverse((TotalF64(d), child)));
                }
            }
        }
        (top.into_sorted(), stats)
    }

    /// The shared bottom-up engine. With `switch_top_down == false` this
    /// is `HGb`: the stack runs to exhaustion. With `true` it is
    /// Algorithm 3 (`HG+`): once the root has been reached, candidates
    /// move through a best-first queue that allows early termination.
    fn search_bottom_up(
        &self,
        q: &Point,
        k: usize,
        filter: Option<&dyn Fn(u64) -> bool>,
        switch_top_down: bool,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut top = TopK::new(k);
        let mut stats = SearchStats::default();
        let Some(start) = self.deepest_occupied(q) else {
            return (top.into_sorted(), stats);
        };
        if k == 0 {
            return (top.into_sorted(), stats);
        }
        let mut stack: Vec<(CellId, f64)> = vec![(start, 0.0)];
        let mut queue: BinaryHeap<Reverse<(TotalF64, CellId)>> = BinaryHeap::new();
        let mut visited: HashSet<CellId, FxBuild> = HashSet::default();
        let mut root_access = false;

        while !stack.is_empty() || !queue.is_empty() {
            let (cell, dist, from_queue) = if !root_access || !switch_top_down {
                match stack.pop() {
                    Some((c, d)) => (c, d, false),
                    None => match queue.pop() {
                        Some(Reverse((TotalF64(d), c))) => (c, d, true),
                        None => break,
                    },
                }
            } else {
                match queue.pop() {
                    Some(Reverse((TotalF64(d), c))) => (c, d, true),
                    None => break,
                }
            };
            if !visited.insert(cell) {
                continue;
            }
            if top.is_full() && dist > top.threshold() {
                if from_queue {
                    break; // queue is ordered: early termination (line 16)
                }
                continue; // stack is not ordered: skip only this cell
            }
            self.check_cell(cell, q, &mut top, &mut stats, filter);

            // Push the parent first so finer-grained children are
            // examined before coarser regions (Algorithm 3, lines 24–29).
            if let Some(parent) = Self::parent(cell) {
                if !visited.contains(&parent) {
                    if parent.level == 0 {
                        root_access = true;
                        if switch_top_down {
                            queue.push(Reverse((TotalF64(0.0), parent)));
                        } else {
                            stack.push((parent, 0.0));
                        }
                    } else {
                        stack.push((parent, 0.0));
                    }
                }
            } else {
                root_access = true;
            }
            for child in self.children(cell) {
                if visited.contains(&child) {
                    continue;
                }
                let d = self.cell_rect(child).min_dist(q);
                if top.is_full() && d > top.threshold() {
                    continue;
                }
                if root_access && switch_top_down {
                    queue.push(Reverse((TotalF64(d), child)));
                } else {
                    stack.push((child, d));
                }
            }
        }
        (top.into_sorted(), stats)
    }
}

impl SegmentIndex for HierGrid {
    fn knn(&self, q: &Point, k: usize) -> Vec<Neighbor> {
        self.knn_with_stats(q, k, Strategy::BottomUpDown, None).0
    }

    fn knn_filtered(&self, q: &Point, k: usize, filter: &dyn Fn(u64) -> bool) -> Vec<Neighbor> {
        self.knn_with_stats(q, k, Strategy::BottomUpDown, Some(filter)).0
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use trajdp_model::Segment;

    const STRATEGIES: [Strategy; 3] =
        [Strategy::TopDown, Strategy::BottomUp, Strategy::BottomUpDown];

    fn domain() -> Rect {
        Rect::new(0.0, 0.0, 1024.0, 1024.0)
    }

    fn random_entries(n: usize, seed: u64) -> Vec<SegmentEntry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let ax: f64 = rng.gen_range(0.0..1024.0);
                let ay: f64 = rng.gen_range(0.0..1024.0);
                // Mix of short and long segments to exercise all levels.
                let span: f64 = if i % 7 == 0 { 400.0 } else { 12.0 };
                let bx = (ax + rng.gen_range(-span..span)).clamp(0.0, 1024.0);
                let by = (ay + rng.gen_range(-span..span)).clamp(0.0, 1024.0);
                SegmentEntry::new(i as u64, Segment::new(Point::new(ax, ay), Point::new(bx, by)))
            })
            .collect()
    }

    #[test]
    fn best_fit_matches_definition() {
        let g = HierGrid::new(domain(), 8); // levels 1,2,4,8 → cells 128px at finest
                                            // Both endpoints in the same finest cell (cells are 128 wide).
        let e = SegmentEntry::new(0, Segment::new(Point::new(10.0, 10.0), Point::new(100.0, 90.0)));
        let c = g.best_fit(&e);
        assert_eq!(c.level as usize, g.num_levels() - 1);
        // Endpoints split at the very top → root.
        let e2 =
            SegmentEntry::new(1, Segment::new(Point::new(10.0, 10.0), Point::new(1000.0, 1000.0)));
        assert_eq!(g.best_fit(&e2), CellId::new(0, 0, 0));
        // Split at finest but joint at level 2 (256px cells):
        let e3 =
            SegmentEntry::new(2, Segment::new(Point::new(10.0, 10.0), Point::new(200.0, 200.0)));
        let c3 = g.best_fit(&e3);
        assert!(c3.level >= 1 && (c3.level as usize) < g.num_levels() - 1);
        let rect = g.cell_rect(c3);
        assert!(rect.contains(&e3.seg.a) && rect.contains(&e3.seg.b));
    }

    #[test]
    fn insert_materializes_ancestors_and_remove_prunes() {
        let mut g = HierGrid::new(domain(), 16);
        let e = SegmentEntry::new(7, Segment::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0)));
        g.insert(e);
        assert_eq!(g.len(), 1);
        // Best-fit is at the finest level; the full ancestor chain exists.
        assert_eq!(g.num_nodes(), g.num_levels());
        assert!(g.remove(7));
        assert_eq!(g.len(), 0);
        assert_eq!(g.num_nodes(), 0);
        assert!(!g.remove(7));
    }

    #[test]
    fn all_strategies_match_linear_scan() {
        let entries = random_entries(500, 42);
        let g = HierGrid::from_entries(domain(), 512, entries.clone());
        let lin = LinearScan::from_entries(entries);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..40 {
            let q = Point::new(rng.gen_range(0.0..1024.0), rng.gen_range(0.0..1024.0));
            for k in [1, 3, 10] {
                let expected: Vec<f64> = lin.knn(&q, k).iter().map(|n| n.dist).collect();
                for s in STRATEGIES {
                    let got: Vec<f64> =
                        g.knn_with_stats(&q, k, s, None).0.iter().map(|n| n.dist).collect();
                    assert_eq!(got.len(), expected.len(), "{s:?} wrong count at {q:?}");
                    for (a, b) in got.iter().zip(&expected) {
                        assert!((a - b).abs() < 1e-9, "{s:?} dist mismatch at {q:?}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn filtered_matches_linear() {
        let entries = random_entries(300, 9);
        let g = HierGrid::from_entries(domain(), 256, entries.clone());
        let lin = LinearScan::from_entries(entries);
        let q = Point::new(512.0, 512.0);
        let filter = |id: u64| id.is_multiple_of(3);
        let expected: Vec<u64> = lin.knn_filtered(&q, 5, &filter).iter().map(|n| n.id).collect();
        for s in STRATEGIES {
            let got: Vec<u64> =
                g.knn_with_stats(&q, 5, s, Some(&filter)).0.iter().map(|n| n.id).collect();
            assert!(got.iter().all(|id| id % 3 == 0));
            assert_eq!(got.len(), expected.len());
        }
    }

    #[test]
    fn removal_keeps_results_exact() {
        let entries = random_entries(200, 5);
        let mut g = HierGrid::from_entries(domain(), 128, entries.clone());
        let mut lin = LinearScan::from_entries(entries);
        for id in (0..200).step_by(2) {
            assert!(g.remove(id));
            assert!(lin.remove(id));
        }
        let q = Point::new(100.0, 900.0);
        let expected: Vec<f64> = lin.knn(&q, 8).iter().map(|n| n.dist).collect();
        let got: Vec<f64> = g.knn(&q, 8).iter().map(|n| n.dist).collect();
        assert_eq!(got.len(), expected.len());
        for (a, b) in got.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_index_returns_nothing() {
        let g = HierGrid::new(domain(), 64);
        for s in STRATEGIES {
            assert!(g.knn_with_stats(&Point::new(1.0, 1.0), 4, s, None).0.is_empty());
        }
    }

    #[test]
    fn k_zero_returns_nothing() {
        let g = HierGrid::from_entries(domain(), 64, random_entries(10, 3));
        for s in STRATEGIES {
            assert!(g.knn_with_stats(&Point::new(1.0, 1.0), 0, s, None).0.is_empty());
        }
    }

    #[test]
    fn hierarchical_search_prunes_most_segments() {
        // The point of the index (Figure 5): all strategies examine a
        // small fraction of the dataset, and HG+ stays in the same work
        // ballpark as HGt while enabling the early-termination rule.
        let entries = random_entries(2000, 77);
        let g = HierGrid::from_entries(domain(), 512, entries);
        let mut rng = StdRng::seed_from_u64(8);
        let queries = 50;
        let (mut work_plus, mut work_top, mut work_bot) = (0usize, 0usize, 0usize);
        for _ in 0..queries {
            let q = Point::new(rng.gen_range(0.0..1024.0), rng.gen_range(0.0..1024.0));
            work_plus += g.knn_with_stats(&q, 5, Strategy::BottomUpDown, None).1.segments_checked;
            work_top += g.knn_with_stats(&q, 5, Strategy::TopDown, None).1.segments_checked;
            work_bot += g.knn_with_stats(&q, 5, Strategy::BottomUp, None).1.segments_checked;
        }
        let linear_work = 2000 * queries;
        assert!(work_plus * 5 < linear_work, "HG+ checked {work_plus} of {linear_work}");
        assert!(work_top * 5 < linear_work);
        assert!(work_bot * 5 < linear_work);
        // HG+ must not do substantially more distance computations than
        // plain top-down (they share the same pruning bound).
        assert!(
            work_plus <= work_top + work_top / 4,
            "HG+ checked {work_plus} segments vs HGt {work_top}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_finest_panics() {
        HierGrid::new(domain(), 100);
    }

    #[test]
    #[should_panic(expected = "duplicate segment id")]
    fn duplicate_id_panics() {
        let mut g = HierGrid::new(domain(), 8);
        let e = SegmentEntry::new(0, Segment::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0)));
        g.insert(e);
        g.insert(e);
    }

    mod properties {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn arb_segment(rng: &mut StdRng) -> Segment {
            Segment::new(
                Point::new(rng.gen_range(0.0..1024.0), rng.gen_range(0.0..1024.0)),
                Point::new(rng.gen_range(0.0..1024.0), rng.gen_range(0.0..1024.0)),
            )
        }

        /// Interleaved inserts and removes leave the index exactly
        /// consistent with a mirrored linear scan, for every strategy.
        #[test]
        fn dynamic_updates_stay_exact() {
            let mut rng = StdRng::seed_from_u64(0x41E8);
            for case in 0..32 {
                let initial: Vec<Segment> =
                    (0..rng.gen_range(1..60)).map(|_| arb_segment(&mut rng)).collect();
                let extra: Vec<Segment> =
                    (0..rng.gen_range(0..20)).map(|_| arb_segment(&mut rng)).collect();
                let remove_mask: Vec<bool> = (0..60).map(|_| rng.gen::<bool>()).collect();
                let q = Point::new(rng.gen_range(0.0..1024.0), rng.gen_range(0.0..1024.0));

                let mut hier = HierGrid::new(domain(), 128);
                let mut lin = LinearScan::new();
                let mut next_id = 0u64;
                for s in &initial {
                    let e = SegmentEntry::new(next_id, *s);
                    next_id += 1;
                    hier.insert(e);
                    lin.insert(e);
                }
                // Remove a masked subset.
                for (id, &rm) in remove_mask.iter().enumerate() {
                    if rm && (id as u64) < next_id {
                        assert_eq!(hier.remove(id as u64), lin.remove(id as u64));
                    }
                }
                // Insert more.
                for s in &extra {
                    let e = SegmentEntry::new(next_id, *s);
                    next_id += 1;
                    hier.insert(e);
                    lin.insert(e);
                }
                assert_eq!(SegmentIndex::len(&hier), lin.len(), "case {case}");
                let expected: Vec<f64> = lin.knn(&q, 5).iter().map(|n| n.dist).collect();
                for s in STRATEGIES {
                    let got: Vec<f64> =
                        hier.knn_with_stats(&q, 5, s, None).0.iter().map(|n| n.dist).collect();
                    assert_eq!(got.len(), expected.len(), "case {case} {s:?}");
                    for (a, b) in got.iter().zip(&expected) {
                        assert!((a - b).abs() < 1e-9, "case {case} {s:?}: {a} vs {b}");
                    }
                }
            }
        }

        /// Best-fit assignment always satisfies Definition 11: the cell
        /// contains both endpoints, and no child cell does.
        #[test]
        fn best_fit_is_deepest_containing_cell() {
            let mut rng = StdRng::seed_from_u64(0x41E9);
            for case in 0..64 {
                let s = arb_segment(&mut rng);
                let g = HierGrid::new(domain(), 64);
                let e = SegmentEntry::new(0, s);
                let cell = g.best_fit(&e);
                let rect = g.cell_rect(cell);
                assert!(rect.contains(&s.a) && rect.contains(&s.b), "case {case}");
                // At the next finer level the endpoints split (unless
                // already at the finest level).
                if (cell.level as usize) < g.num_levels() - 1 {
                    let finer = &g.levels[cell.level as usize + 1];
                    assert!(
                        !finer.same_cell(&s.a, &s.b),
                        "case {case}: a finer cell also contains both endpoints"
                    );
                }
            }
        }
    }
}
