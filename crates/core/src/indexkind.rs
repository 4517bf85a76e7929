//! Runtime-selectable segment index, so the modification algorithms can
//! run against any of the paper's index variants (Linear, UG, HGt, HGb,
//! HG+) — the efficiency experiment of Figure 5 sweeps exactly these.

use trajdp_index::{
    GroupFn, HierGrid, LinearScan, Neighbor, SearchStats, SegmentEntry, Strategy, UniformGrid,
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

    /// The K nearest segments, or with `group` the K nearest groups,
    /// with work counters.
    pub fn knn_with_stats(
        &self,
        q: &Point,
        k: usize,
        group: Option<GroupFn>,
    ) -> (Vec<Neighbor>, SearchStats) {
        match self {
            AnyIndex::Linear(i) => i.knn_with_stats(q, k, group),
            AnyIndex::Uniform(i) => i.knn_with_stats(q, k, group),
            AnyIndex::Hier(i, s) => i.knn_with_stats(q, k, *s, group),
        }
    }

    /// Number of indexed segments.
    pub fn len(&self) -> usize {
        match self {
            AnyIndex::Linear(i) => i.len(),
            AnyIndex::Uniform(i) => i.len(),
            AnyIndex::Hier(i, _) => i.len(),
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

    /// The `k` smallest `(nearest-segment distance, owner)` pairs over
    /// the owners `excluded` leaves: a grouped search's answer, by brute
    /// force.
    fn nearest_owners(
        segs: &[(Segment, Vec<u64>)],
        q: &Point,
        k: usize,
        excluded: &[bool],
    ) -> Vec<(f64, u64)> {
        let mut best = std::collections::BTreeMap::new();
        for (s, owners) in segs {
            for &o in owners.iter().filter(|&&o| !excluded[o as usize]) {
                let d = s.dist_to_point(q);
                best.entry(o).and_modify(|b: &mut f64| *b = b.min(d)).or_insert(d);
            }
        }
        let mut out: Vec<(f64, u64)> = best.into_iter().map(|(o, d)| (d, o)).collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.truncate(k);
        out
    }

    #[test]
    fn grouped_search_matches_a_brute_force_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let domain = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let mut rng = StdRng::seed_from_u64(0x6_0B);
        let point = |rng: &mut StdRng, c: Point, r: f64| {
            let x = (c.x + rng.gen_range(-r..r)).clamp(0.0, 1000.0);
            Point::new(x, (c.y + rng.gen_range(-r..r)).clamp(0.0, 1000.0))
        };
        for case in 0..40 {
            let owners = rng.gen_range(1..30u64);
            let q = Point::new(rng.gen_range(100..900) as f64, rng.gen_range(100..900) as f64);
            // Each entry stands for one to three owners, as a segment
            // geometry shared by several trajectories does; owners take
            // entries in random order, so the index meets tied owners in
            // no particular order.
            let segs: Vec<(Segment, Vec<u64>)> = (0..owners * 3)
                .map(|_| {
                    let seg = if rng.gen_bool(0.4) {
                        // Ties: a segment pointing straight away from q
                        // from 0, 5 or 10 away, in one of eight
                        // directions, so tied owners sit in many cells.
                        // Integer coordinates keep the distances exact.
                        let s = [0.0, 1.0, 2.0][rng.gen_range(0..3usize)];
                        let (dx, dy) = [(3.0, 4.0), (4.0, 3.0), (-3.0, 4.0), (-4.0, 3.0)]
                            [rng.gen_range(0..4usize)];
                        let (dx, dy) = if rng.gen_bool(0.5) { (dx, dy) } else { (-dx, -dy) };
                        let far = s + rng.gen_range(1..20) as f64;
                        Segment::new(
                            Point::new(q.x + s * dx, q.y + s * dy),
                            Point::new(q.x + far * dx, q.y + far * dy),
                        )
                    } else {
                        let a = point(&mut rng, q, 300.0);
                        Segment::new(a, point(&mut rng, a, 40.0))
                    };
                    let shared = rng.gen_range(1..4usize);
                    (seg, (0..shared).map(|_| rng.gen_range(0..owners)).collect())
                })
                .collect();
            let excluded: Vec<bool> = (0..owners).map(|_| rng.gen_bool(0.25)).collect();
            let group = |id: u64, offer: &mut dyn FnMut(u64)| {
                for &o in &segs[id as usize].1 {
                    if !excluded[o as usize] {
                        offer(o);
                    }
                }
            };
            for kind in kinds() {
                let mut idx = AnyIndex::new(kind, domain);
                for (id, (s, _)) in segs.iter().enumerate() {
                    idx.insert(SegmentEntry::new(id as u64, *s));
                }
                for k in [1, 2, 5, owners as usize + 3] {
                    let (hits, stats) = idx.knn_with_stats(&q, k, Some(&group));
                    let got: Vec<(f64, u64)> = hits
                        .iter()
                        .map(|n| {
                            let (seg, owners) = &segs[n.id as usize];
                            assert_eq!(n.dist, seg.dist_to_point(&q));
                            assert!(owners.contains(&n.group));
                            (n.dist, n.group)
                        })
                        .collect();
                    let want = nearest_owners(&segs, &q, k, &excluded);
                    assert_eq!(got, want, "case {case}, {kind:?}, k = {k}");
                    assert!(stats.segments_checked <= segs.len(), "one distance per entry");
                }
            }
        }
    }

    #[test]
    fn default_is_hg_plus() {
        assert_eq!(IndexKind::default(), IndexKind::Hier(512, Strategy::BottomUpDown));
    }
}
