//! The hierarchical grid index (§IV-C) and its three K-nearest-segment
//! search strategies.
//!
//! The index stacks nested power-of-two grid levels (granularity 1, 2, 4,
//! …, `finest`). Every segment lives in its **best-fit cell**
//! (Definition 11): the finest cell that contains both endpoints. Cells
//! are materialized sparsely as nodes of an arena: each node holds its
//! cell, its parent's slot and its four child slots (in quadrant order
//! `(col & 1) | (row & 1) << 1`), and ancestors are created on demand, so
//! every occupied cell is reachable from the root. A node lives while it
//! holds entries or has children; a freed slot goes on a free list and
//! keeps its entry allocation for the next node, and [`HierGrid::clear`]
//! frees every slot at once.
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
//!
//! Best-first queues order by `(distance, cell)`, so which of two
//! equidistant segments a search offers first — and therefore which one
//! it keeps — does not depend on where the nodes sit in the arena.

use crate::entry::{GroupFn, Neighbor, SearchStats, SegmentEntry, TopK, TotalF64};
use crate::fx::FxBuild;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
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

/// The absent parent or child slot.
const NONE: u32 = u32::MAX;

/// The child slot of a cell within its parent.
fn quadrant(col: u32, row: u32) -> usize {
    ((col & 1) | (row & 1) << 1) as usize
}

#[derive(Debug, Clone)]
struct Node {
    cell: CellId,
    /// Slot of the parent node; `NONE` for the root.
    parent: u32,
    /// Slots of the materialized children, indexed by [`quadrant`].
    children: [u32; 4],
    entries: Vec<SegmentEntry>,
}

/// The hierarchical grid index.
///
/// # Examples
///
/// ```
/// use trajdp_index::{HierGrid, SegmentEntry, Strategy};
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
    /// The node arena; freed slots are listed in `free`.
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Slot of the level-0 node, `NONE` while the index is empty.
    root: u32,
    /// Payload id → slot of its best-fit node.
    locations: HashMap<u64, u32, FxBuild>,
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
        Self {
            levels,
            nodes: Vec::new(),
            free: Vec::new(),
            root: NONE,
            locations: HashMap::default(),
            len: 0,
        }
    }

    /// Builds the index from entries.
    pub fn from_entries(domain: Rect, finest: u32, entries: Vec<SegmentEntry>) -> Self {
        let mut g = Self::new(domain, finest);
        for e in entries {
            g.insert(e);
        }
        g
    }

    /// Removes every segment, keeping the arena and its allocations for
    /// the next build.
    pub fn clear(&mut self) {
        for n in &mut self.nodes {
            n.entries.clear();
        }
        self.free.clear();
        self.free.extend((0..self.nodes.len() as u32).rev());
        self.root = NONE;
        self.locations.clear();
        self.len = 0;
    }

    /// Number of indexed segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no segments.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of grid levels (`log₂(finest) + 1`).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of materialized cells (for diagnostics).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn finest(&self) -> &GridLevel {
        self.levels.last().expect("at least one level")
    }

    fn node(&self, slot: u32) -> &Node {
        &self.nodes[slot as usize]
    }

    /// Best-fit cell of a segment: the finest level at which both
    /// endpoints share a cell (Definition 11). Level 0 (1×1) always
    /// qualifies.
    pub fn best_fit(&self, e: &SegmentEntry) -> CellId {
        let fa = self.finest().locate(&e.seg.a);
        let fb = self.finest().locate(&e.seg.b);
        // At level l, col = finest_col >> (h − l), so both endpoints share
        // a level-l cell once the shift drops every bit in which their
        // finest coordinates differ.
        let h = (self.levels.len() - 1) as u32;
        let bits = |x: u32| u32::BITS - x.leading_zeros();
        let shift = bits(fa.col ^ fb.col).max(bits(fa.row ^ fb.row));
        CellId::new((h - shift) as u8, fa.col >> shift, fb.row >> shift)
    }

    /// The materialized children of a node, in quadrant order.
    fn children(&self, slot: u32) -> impl Iterator<Item = u32> {
        self.node(slot).children.into_iter().filter(|&c| c != NONE)
    }

    fn cell_rect(&self, cell: CellId) -> Rect {
        self.levels[cell.level as usize].cell_rect(cell)
    }

    /// Takes a free slot (or grows the arena) for a childless `cell`.
    fn alloc(&mut self, cell: CellId, parent: u32) -> u32 {
        if let Some(slot) = self.free.pop() {
            let n = &mut self.nodes[slot as usize];
            n.cell = cell;
            n.parent = parent;
            n.children = [NONE; 4];
            return slot;
        }
        let slot = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&s| s != NONE)
            .expect("node arena outgrew its u32 slots");
        self.nodes.push(Node { cell, parent, children: [NONE; 4], entries: Vec::new() });
        slot
    }

    /// Adds one segment into its best-fit cell, materializing ancestors.
    /// Panics if the payload id is already present.
    pub fn insert(&mut self, e: SegmentEntry) {
        assert!(!self.locations.contains_key(&e.id), "duplicate segment id {}", e.id);
        let target = self.best_fit(&e);
        if self.root == NONE {
            self.root = self.alloc(CellId::new(0, 0, 0), NONE);
        }
        let mut slot = self.root;
        for level in 1..=target.level {
            let shift = u32::from(target.level - level);
            let (col, row) = (target.col >> shift, target.row >> shift);
            let q = quadrant(col, row);
            let child = self.node(slot).children[q];
            slot = if child != NONE {
                child
            } else {
                let child = self.alloc(CellId::new(level, col, row), slot);
                self.nodes[slot as usize].children[q] = child;
                child
            };
        }
        self.nodes[slot as usize].entries.push(e);
        self.locations.insert(e.id, slot);
        self.len += 1;
    }

    /// Removes the segment with payload `id`, pruning emptied nodes;
    /// returns whether it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(mut slot) = self.locations.remove(&id) else {
            return false;
        };
        self.nodes[slot as usize].entries.retain(|e| e.id != id);
        // Climb, unlinking every node left with neither entries nor
        // children.
        while slot != NONE {
            let n = self.node(slot);
            if !n.entries.is_empty() || n.children.iter().any(|&c| c != NONE) {
                break;
            }
            let (parent, q) = (n.parent, quadrant(n.cell.col, n.cell.row));
            if parent == NONE {
                self.root = NONE;
            } else {
                self.nodes[parent as usize].children[q] = NONE;
            }
            self.free.push(slot);
            slot = parent;
        }
        self.len -= 1;
        true
    }

    /// The deepest materialized cell whose region contains `q` — the
    /// starting point of the bottom-up strategies (Algorithm 3, line 1).
    fn deepest_occupied(&self, q: &Point) -> Option<u32> {
        if self.root == NONE {
            return None;
        }
        let f = self.finest().locate(q);
        let h = self.levels.len() - 1;
        let mut slot = self.root;
        for l in 1..=h {
            let shift = (h - l) as u32;
            let child = self.node(slot).children[quadrant(f.col >> shift, f.row >> shift)];
            if child == NONE {
                break;
            }
            slot = child;
        }
        Some(slot)
    }

    /// The `k` nearest segments, or with `group` the `k` nearest groups
    /// (see [`GroupFn`]), by an explicit strategy, with work counters.
    pub fn knn_with_stats(
        &self,
        q: &Point,
        k: usize,
        strategy: Strategy,
        group: Option<GroupFn>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut top = TopK::new(k, group);
        if k > 0 {
            match strategy {
                Strategy::TopDown => self.search_top_down(q, &mut top),
                Strategy::BottomUp => self.search_bottom_up(q, &mut top, false),
                Strategy::BottomUpDown => self.search_bottom_up(q, &mut top, true),
            }
        }
        top.finish()
    }

    fn check_cell(&self, slot: u32, q: &Point, top: &mut TopK) {
        top.stats.cells_visited += 1;
        for e in &self.node(slot).entries {
            top.check(e, q);
        }
    }

    /// A best-first queue item: ordered by `(distance, cell)`, carrying
    /// the node's slot.
    fn queued(&self, dist: f64, slot: u32) -> Reverse<(TotalF64, CellId, u32)> {
        Reverse((TotalF64(dist), self.node(slot).cell, slot))
    }

    fn search_top_down(&self, q: &Point, top: &mut TopK) {
        if self.root == NONE {
            return;
        }
        let mut queue = BinaryHeap::new();
        queue.push(self.queued(0.0, self.root));
        while let Some(Reverse((TotalF64(dist), _, slot))) = queue.pop() {
            if top.is_full() && dist > top.threshold() {
                break; // best-first order: everything remaining is worse
            }
            self.check_cell(slot, q, top);
            for child in self.children(slot) {
                let d = self.cell_rect(self.node(child).cell).min_dist(q);
                if !(top.is_full() && d > top.threshold()) {
                    queue.push(self.queued(d, child));
                }
            }
        }
    }

    /// The shared bottom-up engine. With `switch_top_down == false` this
    /// is `HGb`: the stack runs to exhaustion. With `true` it is
    /// Algorithm 3 (`HG+`): once the root has been reached, candidates
    /// move through a best-first queue that allows early termination.
    fn search_bottom_up(&self, q: &Point, top: &mut TopK, switch_top_down: bool) {
        let Some(start) = self.deepest_occupied(q) else {
            return;
        };
        let mut stack: Vec<(u32, f64)> = vec![(start, 0.0)];
        let mut queue = BinaryHeap::new();
        let mut visited = vec![false; self.nodes.len()];
        let mut root_access = false;

        while !stack.is_empty() || !queue.is_empty() {
            let (slot, dist, from_queue) = if !root_access || !switch_top_down {
                match stack.pop() {
                    Some((s, d)) => (s, d, false),
                    None => match queue.pop() {
                        Some(Reverse((TotalF64(d), _, s))) => (s, d, true),
                        None => break,
                    },
                }
            } else {
                match queue.pop() {
                    Some(Reverse((TotalF64(d), _, s))) => (s, d, true),
                    None => break,
                }
            };
            if std::mem::replace(&mut visited[slot as usize], true) {
                continue;
            }
            if top.is_full() && dist > top.threshold() {
                if from_queue {
                    break; // queue is ordered: early termination (line 16)
                }
                continue; // stack is not ordered: skip only this cell
            }
            self.check_cell(slot, q, top);

            // Push the parent first so finer-grained children are
            // examined before coarser regions (Algorithm 3, lines 24–29).
            let parent = self.node(slot).parent;
            if parent == NONE {
                root_access = true;
            } else if !visited[parent as usize] {
                if parent == self.root {
                    root_access = true;
                    if switch_top_down {
                        queue.push(self.queued(0.0, parent));
                    } else {
                        stack.push((parent, 0.0));
                    }
                } else {
                    stack.push((parent, 0.0));
                }
            }
            for child in self.children(slot) {
                if visited[child as usize] {
                    continue;
                }
                let d = self.cell_rect(self.node(child).cell).min_dist(q);
                if top.is_full() && d > top.threshold() {
                    continue;
                }
                if root_access && switch_top_down {
                    queue.push(self.queued(d, child));
                } else {
                    stack.push((child, d));
                }
            }
        }
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
                let expected: Vec<f64> =
                    lin.knn_with_stats(&q, k, None).0.iter().map(|n| n.dist).collect();
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
        let filter = |id: u64, offer: &mut dyn FnMut(u64)| {
            if id.is_multiple_of(3) {
                offer(id);
            }
        };
        let expected: Vec<u64> =
            lin.knn_with_stats(&q, 5, Some(&filter)).0.iter().map(|n| n.id).collect();
        for s in STRATEGIES {
            let got: Vec<u64> =
                g.knn_with_stats(&q, 5, s, Some(&filter)).0.iter().map(|n| n.id).collect();
            assert!(got.iter().all(|id| id % 3 == 0));
            assert_eq!(got, expected, "{s:?}");
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
        let expected: Vec<f64> = lin.knn_with_stats(&q, 8, None).0.iter().map(|n| n.dist).collect();
        let got: Vec<f64> = g
            .knn_with_stats(&q, 8, Strategy::BottomUpDown, None)
            .0
            .iter()
            .map(|n| n.dist)
            .collect();
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

    /// The node count a grid holding `live` must have: every best-fit
    /// cell and all of its ancestors, each once.
    fn cells_on_root_paths(g: &HierGrid, live: &[SegmentEntry]) -> usize {
        let mut cells = std::collections::HashSet::new();
        for e in live {
            let mut c = g.best_fit(e);
            while cells.insert(c) && c.level > 0 {
                c = CellId::new(c.level - 1, c.col >> 1, c.row >> 1);
            }
        }
        cells.len()
    }

    #[test]
    fn arena_holds_exactly_the_live_cells_and_clear_rebuilds_exactly() {
        let mut rng = StdRng::seed_from_u64(0xA7E4A);
        let mut g = HierGrid::new(domain(), 64);
        let mut lin = LinearScan::new();
        let mut live: Vec<SegmentEntry> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..1500 {
            match rng.gen_range(0..10) {
                0..=4 => {
                    // Mostly short segments (deep cells), some long ones.
                    let span: f64 = if rng.gen_bool(0.2) { 400.0 } else { 12.0 };
                    let (ax, ay): (f64, f64) =
                        (rng.gen_range(0.0..1024.0), rng.gen_range(0.0..1024.0));
                    let bx = (ax + rng.gen_range(-span..span)).clamp(0.0, 1024.0);
                    let by = (ay + rng.gen_range(-span..span)).clamp(0.0, 1024.0);
                    let seg = Segment::new(Point::new(ax, ay), Point::new(bx, by));
                    let e = SegmentEntry::new(next_id, seg);
                    next_id += 1;
                    g.insert(e);
                    lin.insert(e);
                    live.push(e);
                }
                5..=7 if !live.is_empty() => {
                    let e = live.swap_remove(rng.gen_range(0..live.len()));
                    assert!(g.remove(e.id) && lin.remove(e.id), "step {step}");
                    assert!(!g.remove(e.id), "step {step}: removed twice");
                }
                _ => {
                    let q = Point::new(rng.gen_range(0.0..1024.0), rng.gen_range(0.0..1024.0));
                    let k = rng.gen_range(1..6);
                    let expected: Vec<f64> =
                        lin.knn_with_stats(&q, k, None).0.iter().map(|n| n.dist).collect();
                    for s in STRATEGIES {
                        let got: Vec<f64> =
                            g.knn_with_stats(&q, k, s, None).0.iter().map(|n| n.dist).collect();
                        assert_eq!(got, expected, "step {step} {s:?}");
                    }
                }
            }
            assert_eq!(g.len(), live.len(), "step {step}");
            assert_eq!(g.num_nodes(), cells_on_root_paths(&g, &live), "step {step}: stale nodes");
        }

        // Re-filling a cleared (and well-used) arena searches exactly
        // like a fresh build of the same entries.
        g.clear();
        assert_eq!((g.len(), g.num_nodes()), (0, 0));
        assert!(g
            .knn_with_stats(&Point::new(512.0, 512.0), 3, Strategy::TopDown, None)
            .0
            .is_empty());
        for &e in &live {
            g.insert(e);
        }
        let fresh = HierGrid::from_entries(domain(), 64, live.clone());
        assert_eq!(g.num_nodes(), fresh.num_nodes());
        let key = |(hits, stats): (Vec<Neighbor>, SearchStats)| {
            (hits.iter().map(|n| (n.id, n.dist)).collect::<Vec<_>>(), stats)
        };
        for _ in 0..50 {
            let q = Point::new(rng.gen_range(0.0..1024.0), rng.gen_range(0.0..1024.0));
            for s in STRATEGIES {
                assert_eq!(
                    key(g.knn_with_stats(&q, 4, s, None)),
                    key(fresh.knn_with_stats(&q, 4, s, None)),
                    "{s:?} at {q:?}"
                );
            }
        }
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
                assert_eq!(hier.len(), lin.len(), "case {case}");
                let expected: Vec<f64> =
                    lin.knn_with_stats(&q, 5, None).0.iter().map(|n| n.dist).collect();
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
