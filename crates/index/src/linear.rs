//! Naive linear-scan baseline: exact KNN by checking every segment.
//!
//! This is the `Linear` series of Figure 5 and the ground truth the
//! property tests compare every other index against.

use crate::entry::{GroupFn, Neighbor, SearchStats, SegmentEntry, TopK};
use trajdp_model::Point;

/// A flat list of segments searched exhaustively.
#[derive(Debug, Clone, Default)]
pub struct LinearScan {
    entries: Vec<SegmentEntry>,
}

impl LinearScan {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index from entries.
    pub fn from_entries(entries: Vec<SegmentEntry>) -> Self {
        Self { entries }
    }

    /// Adds one segment.
    pub fn insert(&mut self, entry: SegmentEntry) {
        self.entries.push(entry);
    }

    /// Removes every segment, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Removes the segment with payload `id`; returns whether it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        match self.entries.iter().position(|e| e.id == id) {
            Some(pos) => {
                self.entries.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// Number of indexed segments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no segments.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `k` nearest segments, or with `group` the `k` nearest groups
    /// (see [`GroupFn`]), with work counters: every segment the group
    /// function keeps is checked.
    pub fn knn_with_stats(
        &self,
        q: &Point,
        k: usize,
        group: Option<GroupFn>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut top = TopK::new(k, group);
        for e in &self.entries {
            top.check(e, q);
        }
        top.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdp_model::Segment;

    fn entries() -> Vec<SegmentEntry> {
        (0..10)
            .map(|i| {
                let x = i as f64 * 10.0;
                SegmentEntry::new(i, Segment::new(Point::new(x, 0.0), Point::new(x + 5.0, 0.0)))
            })
            .collect()
    }

    #[test]
    fn knn_returns_nearest_sorted() {
        let idx = LinearScan::from_entries(entries());
        let out = idx.knn_with_stats(&Point::new(12.0, 3.0), 3, None).0;
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].id, 1); // segment [10,15] contains x=12 → dist 3
        assert_eq!(out[0].dist, 3.0);
        assert!(out.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn filter_excludes_ids() {
        let idx = LinearScan::from_entries(entries());
        let keep = |id: u64, offer: &mut dyn FnMut(u64)| {
            if id != 1 {
                offer(id);
            }
        };
        let out = idx.knn_with_stats(&Point::new(12.0, 3.0), 1, Some(&keep)).0;
        assert_eq!(out[0].id, 0); // nearest allowed is segment [0,5] at x=5
    }

    #[test]
    fn insert_and_remove() {
        let mut idx = LinearScan::new();
        assert!(idx.is_empty());
        for e in entries() {
            idx.insert(e);
        }
        assert_eq!(idx.len(), 10);
        assert!(idx.remove(3));
        assert!(!idx.remove(3));
        assert_eq!(idx.len(), 9);
        assert!(idx.knn_with_stats(&Point::new(32.0, 0.0), 10, None).0.iter().all(|n| n.id != 3));
    }

    #[test]
    fn k_larger_than_len() {
        let idx = LinearScan::from_entries(entries());
        assert_eq!(idx.knn_with_stats(&Point::new(0.0, 0.0), 100, None).0.len(), 10);
    }

    #[test]
    fn stats_count_all_segments() {
        let idx = LinearScan::from_entries(entries());
        let (_, stats) = idx.knn_with_stats(&Point::new(0.0, 0.0), 1, None);
        assert_eq!(stats.segments_checked, 10);
    }
}
