//! Single-level uniform grid (`UG` in the paper's Figure 5).
//!
//! Each segment is registered in every cell its bounding box overlaps;
//! search proceeds in expanding Chebyshev rings around the query cell and
//! terminates once the ring's distance lower bound exceeds the current
//! K-th best distance.

use crate::entry::{GroupFn, Neighbor, SearchStats, SegmentEntry, TopK};
use crate::fx::FxBuild;
use std::collections::{HashMap, HashSet};
use trajdp_model::{GridLevel, Point, Rect};

/// A uniform grid over the dataset domain.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    grid: GridLevel,
    cells: HashMap<(u32, u32), Vec<SegmentEntry>, FxBuild>,
    /// Reverse map for O(cells-per-segment) removal.
    locations: HashMap<u64, Vec<(u32, u32)>, FxBuild>,
    len: usize,
}

impl UniformGrid {
    /// Creates an empty grid of `granularity × granularity` cells over
    /// `domain`.
    pub fn new(domain: Rect, granularity: u32) -> Self {
        Self {
            grid: GridLevel::new(domain, granularity, 0),
            cells: HashMap::default(),
            locations: HashMap::default(),
            len: 0,
        }
    }

    /// Builds a grid from entries.
    pub fn from_entries(domain: Rect, granularity: u32, entries: Vec<SegmentEntry>) -> Self {
        let mut g = Self::new(domain, granularity);
        for e in entries {
            g.insert(e);
        }
        g
    }

    /// The grid cells a segment passes through (supercover traversal):
    /// O(length / cell size) cells, not the O(area) of its bounding box.
    fn covered_cells(&self, e: &SegmentEntry) -> Vec<(u32, u32)> {
        let start = self.grid.locate(&e.seg.a);
        let end = self.grid.locate(&e.seg.b);
        if start == end {
            return vec![(start.col, start.row)];
        }
        // Amanatides–Woo voxel traversal from a to b, clamped to the
        // grid. Conservative: also registers the 8-neighbourhood step
        // corners so near-diagonal crossings are never missed.
        let mut out = Vec::new();
        let (w, h) = (self.grid.cell_width(), self.grid.cell_height());
        let origin_x = self.grid.domain.min_x;
        let origin_y = self.grid.domain.min_y;
        let g = self.grid.granularity as i64;
        let (mut cx, mut cy) = (start.col as i64, start.row as i64);
        let (ex, ey) = (end.col as i64, end.row as i64);
        let dx = e.seg.b.x - e.seg.a.x;
        let dy = e.seg.b.y - e.seg.a.y;
        let step_x: i64 = if dx > 0.0 { 1 } else { -1 };
        let step_y: i64 = if dy > 0.0 { 1 } else { -1 };
        // Parametric distance to the next vertical / horizontal cell
        // boundary, in units of the segment parameter t ∈ [0, 1].
        let next_boundary = |c: i64, step: i64, origin: f64, size: f64| -> f64 {
            origin + (c + i64::from(step > 0)) as f64 * size
        };
        let mut t_max_x = if dx == 0.0 {
            f64::INFINITY
        } else {
            (next_boundary(cx, step_x, origin_x, w) - e.seg.a.x) / dx
        };
        let mut t_max_y = if dy == 0.0 {
            f64::INFINITY
        } else {
            (next_boundary(cy, step_y, origin_y, h) - e.seg.a.y) / dy
        };
        let t_delta_x = if dx == 0.0 { f64::INFINITY } else { (w / dx).abs() };
        let t_delta_y = if dy == 0.0 { f64::INFINITY } else { (h / dy).abs() };
        let clamp = |v: i64| -> u32 { v.clamp(0, g - 1) as u32 };
        out.push((clamp(cx), clamp(cy)));
        // Bounded by the Manhattan cell distance; guards against float
        // edge cases looping forever.
        let max_steps = ((ex - cx).abs() + (ey - cy).abs() + 2) as usize * 2;
        for _ in 0..max_steps {
            if cx == ex && cy == ey {
                break;
            }
            if (t_max_x - t_max_y).abs() < 1e-12 {
                // Passing exactly through a cell corner: take both
                // adjacent cells to stay conservative.
                out.push((clamp(cx + step_x), clamp(cy)));
                out.push((clamp(cx), clamp(cy + step_y)));
                cx += step_x;
                cy += step_y;
                t_max_x += t_delta_x;
                t_max_y += t_delta_y;
            } else if t_max_x < t_max_y {
                cx += step_x;
                t_max_x += t_delta_x;
            } else {
                cy += step_y;
                t_max_y += t_delta_y;
            }
            out.push((clamp(cx), clamp(cy)));
        }
        // Both endpoint cells are always registered (guards clamped
        // out-of-domain endpoints and float boundary cases).
        out.push((end.col, end.row));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Adds one segment. Panics if the payload id is already present.
    pub fn insert(&mut self, e: SegmentEntry) {
        assert!(!self.locations.contains_key(&e.id), "duplicate segment id {}", e.id);
        let covered = self.covered_cells(&e);
        for &c in &covered {
            self.cells.entry(c).or_default().push(e);
        }
        self.locations.insert(e.id, covered);
        self.len += 1;
    }

    /// Removes every segment, keeping the allocations.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.locations.clear();
        self.len = 0;
    }

    /// Removes the segment with payload `id`; returns whether it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(covered) = self.locations.remove(&id) else {
            return false;
        };
        for c in covered {
            if let Some(v) = self.cells.get_mut(&c) {
                v.retain(|e| e.id != id);
                if v.is_empty() {
                    self.cells.remove(&c);
                }
            }
        }
        self.len -= 1;
        true
    }

    /// Number of indexed segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no segments.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `k` nearest segments, or with `group` the `k` nearest groups
    /// (see [`GroupFn`]), with work counters.
    pub fn knn_with_stats(
        &self,
        q: &Point,
        k: usize,
        group: Option<GroupFn>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut top = TopK::new(k, group);
        if k == 0 || self.len == 0 {
            return top.finish();
        }
        let origin = self.grid.locate(q);
        let cell_min = self.grid.cell_width().min(self.grid.cell_height());
        let g = self.grid.granularity as i64;
        let max_ring = g; // enough to cover the whole grid from any origin
        let mut seen: HashSet<u64, FxBuild> = HashSet::default();
        for ring in 0..=max_ring {
            // Cheap lower bound on the distance from q to any ring-`ring`
            // cell: q may sit at its cell's edge, hence the −1.
            let lower = ((ring - 1).max(0)) as f64 * cell_min;
            if top.is_full() && lower > top.threshold() {
                break;
            }
            for (dc, dr) in ring_offsets(ring) {
                let col = origin.col as i64 + dc;
                let row = origin.row as i64 + dr;
                if col < 0 || row < 0 || col >= g || row >= g {
                    continue;
                }
                let key = (col as u32, row as u32);
                let Some(entries) = self.cells.get(&key) else {
                    continue;
                };
                let rect =
                    self.grid.cell_rect(trajdp_model::CellId::new(self.grid.level, key.0, key.1));
                if top.is_full() && rect.min_dist(q) > top.threshold() {
                    continue;
                }
                top.stats.cells_visited += 1;
                for e in entries {
                    if seen.insert(e.id) {
                        top.check(e, q);
                    }
                }
            }
        }
        top.finish()
    }
}

/// Offsets of the cells at Chebyshev distance exactly `ring` from the
/// origin (the origin itself for `ring == 0`).
fn ring_offsets(ring: i64) -> Vec<(i64, i64)> {
    if ring == 0 {
        return vec![(0, 0)];
    }
    let mut out = Vec::with_capacity((8 * ring) as usize);
    for d in -ring..=ring {
        out.push((d, -ring));
        out.push((d, ring));
    }
    for d in (-ring + 1)..ring {
        out.push((-ring, d));
        out.push((ring, d));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use trajdp_model::Segment;

    fn domain() -> Rect {
        Rect::new(0.0, 0.0, 1000.0, 1000.0)
    }

    fn entries() -> Vec<SegmentEntry> {
        let pts = [
            ((10.0, 10.0), (50.0, 40.0)),
            ((900.0, 900.0), (950.0, 990.0)),
            ((500.0, 500.0), (510.0, 500.0)),
            ((0.0, 999.0), (999.0, 0.0)), // long diagonal spanning many cells
            ((498.0, 505.0), (505.0, 498.0)),
        ];
        pts.iter()
            .enumerate()
            .map(|(i, &((ax, ay), (bx, by)))| {
                SegmentEntry::new(i as u64, Segment::new(Point::new(ax, ay), Point::new(bx, by)))
            })
            .collect()
    }

    #[test]
    fn ring_offsets_cover_square_perimeter() {
        assert_eq!(ring_offsets(0), vec![(0, 0)]);
        let r1 = ring_offsets(1);
        assert_eq!(r1.len(), 8);
        let r3 = ring_offsets(3);
        assert_eq!(r3.len(), 24);
        assert!(r3.iter().all(|&(a, b)| a.abs().max(b.abs()) == 3));
        // No duplicates.
        let set: HashSet<_> = r3.iter().collect();
        assert_eq!(set.len(), 24);
    }

    #[test]
    fn matches_linear_scan() {
        let ug = UniformGrid::from_entries(domain(), 32, entries());
        let lin = LinearScan::from_entries(entries());
        for q in [
            Point::new(0.0, 0.0),
            Point::new(505.0, 505.0),
            Point::new(999.0, 1.0),
            Point::new(250.0, 750.0),
        ] {
            for k in [1, 2, 5] {
                let a = ug.knn_with_stats(&q, k, None).0;
                let b = lin.knn_with_stats(&q, k, None).0;
                let da: Vec<f64> = a.iter().map(|n| n.dist).collect();
                let db: Vec<f64> = b.iter().map(|n| n.dist).collect();
                assert_eq!(da, db, "distance mismatch at q={q:?} k={k}");
            }
        }
    }

    #[test]
    fn long_segment_found_from_any_side() {
        let ug = UniformGrid::from_entries(domain(), 64, entries());
        // The diagonal (id 3) passes near (300,700): closest of all.
        let out = ug.knn_with_stats(&Point::new(300.0, 700.0), 1, None).0;
        assert_eq!(out[0].id, 3);
    }

    #[test]
    fn remove_deregisters_from_all_cells() {
        let mut ug = UniformGrid::from_entries(domain(), 16, entries());
        assert!(ug.remove(3));
        assert!(!ug.remove(3));
        assert_eq!(ug.len(), 4);
        let out = ug.knn_with_stats(&Point::new(300.0, 700.0), 5, None).0;
        assert!(out.iter().all(|n| n.id != 3));
    }

    #[test]
    fn filtered_search() {
        let ug = UniformGrid::from_entries(domain(), 16, entries());
        let keep = |id: u64, offer: &mut dyn FnMut(u64)| {
            if id != 2 && id != 4 {
                offer(id);
            }
        };
        let out = ug.knn_with_stats(&Point::new(505.0, 505.0), 1, Some(&keep)).0;
        assert_eq!(out[0].id, 3);
    }

    #[test]
    fn empty_grid() {
        let ug = UniformGrid::new(domain(), 8);
        assert!(ug.is_empty());
        assert!(ug.knn_with_stats(&Point::new(1.0, 1.0), 3, None).0.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate segment id")]
    fn duplicate_id_panics() {
        let mut ug = UniformGrid::new(domain(), 8);
        let e = entries()[0];
        ug.insert(e);
        ug.insert(e);
    }
}
