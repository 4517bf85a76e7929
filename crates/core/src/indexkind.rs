//! Runtime-selectable segment index, so the modification algorithms can
//! run against any of the paper's index variants (Linear, UG, HGt, HGb,
//! HG+) — the efficiency experiment of Figure 5 sweeps exactly these.

use trajdp_index::{
    HierGrid, LinearScan, Neighbor, SearchStats, SegmentEntry, SegmentIndex, Strategy, UniformGrid,
};
use trajdp_model::{Point, Rect};

/// Which index the editors should use for K-nearest segment search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Exhaustive scan (`Linear`).
    Linear,
    /// Single-level uniform grid (`UG`) with the given granularity.
    Uniform(u32),
    /// Hierarchical grid with the given finest granularity and search
    /// strategy (`HGt` / `HGb` / `HG+`).
    Hier(u32, Strategy),
}

impl Default for IndexKind {
    /// The paper's best configuration: HG+ with a 512×512 finest level.
    fn default() -> Self {
        IndexKind::Hier(512, Strategy::BottomUpDown)
    }
}

/// A segment index instantiated from an [`IndexKind`].
#[derive(Debug, Clone)]
pub enum AnyIndex {
    /// Linear scan backend.
    Linear(LinearScan),
    /// Uniform grid backend.
    Uniform(UniformGrid),
    /// Hierarchical grid backend with its search strategy.
    Hier(HierGrid, Strategy),
}

impl AnyIndex {
    /// Creates an empty index over `domain`.
    pub fn new(kind: IndexKind, domain: Rect) -> Self {
        match kind {
            IndexKind::Linear => AnyIndex::Linear(LinearScan::new()),
            IndexKind::Uniform(g) => AnyIndex::Uniform(UniformGrid::new(domain, g)),
            IndexKind::Hier(g, s) => AnyIndex::Hier(HierGrid::new(domain, g), s),
        }
    }

    /// Adds a segment.
    pub fn insert(&mut self, e: SegmentEntry) {
        match self {
            AnyIndex::Linear(i) => i.insert(e),
            AnyIndex::Uniform(i) => i.insert(e),
            AnyIndex::Hier(i, _) => i.insert(e),
        }
    }

    /// Removes a segment by payload id; returns whether it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        match self {
            AnyIndex::Linear(i) => i.remove(id),
            AnyIndex::Uniform(i) => i.remove(id),
            AnyIndex::Hier(i, _) => i.remove(id),
        }
    }

    /// Removes every segment, keeping the backend's allocations.
    pub fn clear(&mut self) {
        match self {
            AnyIndex::Linear(i) => i.clear(),
            AnyIndex::Uniform(i) => i.clear(),
            AnyIndex::Hier(i, _) => i.clear(),
        }
    }

    /// K-nearest segments with work counters.
    pub fn knn_with_stats(
        &self,
        q: &Point,
        k: usize,
        filter: Option<&dyn Fn(u64) -> bool>,
    ) -> (Vec<Neighbor>, SearchStats) {
        match self {
            AnyIndex::Linear(i) => i.knn_with_stats(q, k, filter),
            AnyIndex::Uniform(i) => i.knn_with_stats(q, k, filter),
            AnyIndex::Hier(i, s) => i.knn_with_stats(q, k, *s, filter),
        }
    }

    /// Number of indexed segments.
    pub fn len(&self) -> usize {
        match self {
            AnyIndex::Linear(i) => i.len(),
            AnyIndex::Uniform(i) => SegmentIndex::len(i),
            AnyIndex::Hier(i, _) => SegmentIndex::len(i),
        }
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdp_model::Segment;

    fn entries() -> Vec<SegmentEntry> {
        (0..20)
            .map(|i| {
                let x = i as f64 * 40.0;
                SegmentEntry::new(i, Segment::new(Point::new(x, 0.0), Point::new(x + 10.0, 0.0)))
            })
            .collect()
    }

    fn kinds() -> Vec<IndexKind> {
        vec![
            IndexKind::Linear,
            IndexKind::Uniform(32),
            IndexKind::Hier(64, Strategy::TopDown),
            IndexKind::Hier(64, Strategy::BottomUp),
            IndexKind::Hier(64, Strategy::BottomUpDown),
        ]
    }

    #[test]
    fn all_kinds_agree_with_each_other() {
        let domain = Rect::new(0.0, -100.0, 1000.0, 100.0);
        let q = Point::new(333.0, 25.0);
        let mut reference: Option<Vec<f64>> = None;
        for kind in kinds() {
            let mut idx = AnyIndex::new(kind, domain);
            for e in entries() {
                idx.insert(e);
            }
            assert_eq!(idx.len(), 20);
            let (res, _) = idx.knn_with_stats(&q, 4, None);
            let dists: Vec<f64> = res.iter().map(|n| n.dist).collect();
            match &reference {
                None => reference = Some(dists),
                Some(r) => {
                    for (a, b) in dists.iter().zip(r) {
                        assert!((a - b).abs() < 1e-9, "{kind:?} disagrees");
                    }
                }
            }
        }
    }

    #[test]
    fn insert_remove_roundtrip_on_all_kinds() {
        let domain = Rect::new(0.0, -100.0, 1000.0, 100.0);
        for kind in kinds() {
            let mut idx = AnyIndex::new(kind, domain);
            assert!(idx.is_empty());
            for e in entries() {
                idx.insert(e);
            }
            assert!(idx.remove(7));
            assert!(!idx.remove(7));
            assert_eq!(idx.len(), 19);
            let (res, _) = idx.knn_with_stats(&Point::new(7.0 * 40.0 + 5.0, 0.0), 1, None);
            assert_ne!(res[0].id, 7, "{kind:?} returned a removed segment");
        }
    }

    #[test]
    fn default_is_hg_plus() {
        assert_eq!(IndexKind::default(), IndexKind::Hier(512, Strategy::BottomUpDown));
    }
}
