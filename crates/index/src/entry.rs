//! Shared search types: indexed entries, results, statistics, and a
//! totally ordered float wrapper for priority queues.

use trajdp_model::Segment;

/// A segment registered in an index, tagged with an opaque payload id.
///
/// Callers give each live segment a distinct `id` and keep their own
/// map back to it — the core crate's editors hand ids out from a
/// counter and never reuse one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentEntry {
    /// Opaque payload identifying the segment to the caller.
    pub id: u64,
    /// Segment geometry.
    pub seg: Segment,
}

impl SegmentEntry {
    /// Creates an entry.
    pub const fn new(id: u64, seg: Segment) -> Self {
        Self { id, seg }
    }
}

/// One K-nearest-neighbour result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Payload id of the matched segment.
    pub id: u64,
    /// Point–segment distance from the query (the insertion utility loss).
    pub dist: f64,
    /// Geometry of the matched segment.
    pub seg: Segment,
}

/// Work counters recorded during one search, used by the efficiency
/// experiments to compare pruning power across strategies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Grid cells whose contents were examined.
    pub cells_visited: usize,
    /// Segments whose exact distance was computed.
    pub segments_checked: usize,
}

/// An `f64` with a total order (via `f64::total_cmp`), usable as a
/// priority in `BinaryHeap`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TotalF64(pub f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One candidate held by [`TopK`], ordered by `(dist, id)` alone: the
/// segment rides along so the result needs no side table.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    dist: TotalF64,
    id: u64,
    seg: Segment,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist.cmp(&other.dist).then(self.id.cmp(&other.id))
    }
}

/// Bounded max-heap collecting the K smallest distances seen so far.
///
/// `threshold()` exposes the current K-th smallest distance — the pruning
/// bound θ_K of Theorem 4.
#[derive(Debug, Clone)]
pub(crate) struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<Candidate>,
}

impl TopK {
    pub fn new(k: usize) -> Self {
        Self { k, heap: std::collections::BinaryHeap::with_capacity(k + 1) }
    }

    /// Offers a candidate; keeps only the K nearest.
    pub fn offer(&mut self, id: u64, dist: f64, seg: Segment) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Candidate { dist: TotalF64(dist), id, seg });
        } else if dist < self.heap.peek().expect("non-empty at capacity").dist.0 {
            self.heap.pop();
            self.heap.push(Candidate { dist: TotalF64(dist), id, seg });
        }
    }

    /// Whether K candidates have been collected.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Current pruning threshold θ_K: the K-th smallest distance so far,
    /// or +∞ while fewer than K candidates exist.
    pub fn threshold(&self) -> f64 {
        if self.is_full() {
            self.heap.peek().map_or(f64::INFINITY, |c| c.dist.0)
        } else {
            f64::INFINITY
        }
    }

    /// Consumes the collector, returning neighbours sorted by distance
    /// (ties by id).
    pub fn into_sorted(self) -> Vec<Neighbor> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|c| Neighbor { id: c.id, dist: c.dist.0, seg: c.seg })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdp_model::Point;

    fn seg(x: f64) -> Segment {
        Segment::new(Point::new(x, 0.0), Point::new(x + 1.0, 0.0))
    }

    #[test]
    fn total_f64_orders_specials() {
        let mut v = [TotalF64(f64::INFINITY), TotalF64(-1.0), TotalF64(0.0), TotalF64(f64::NAN)];
        v.sort();
        assert_eq!(v[0].0, -1.0);
        assert_eq!(v[1].0, 0.0);
        assert!(v[2].0.is_infinite());
        assert!(v[3].0.is_nan()); // NaN sorts last under total_cmp
    }

    #[test]
    fn topk_keeps_k_smallest() {
        let mut t = TopK::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            t.offer(i as u64, *d, seg(i as f64));
        }
        let out = t.into_sorted();
        let dists: Vec<f64> = out.iter().map(|n| n.dist).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
        let ids: Vec<u64> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }

    #[test]
    fn topk_threshold_evolves() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f64::INFINITY);
        t.offer(0, 9.0, seg(0.0));
        assert_eq!(t.threshold(), f64::INFINITY); // not yet full
        t.offer(1, 4.0, seg(1.0));
        assert_eq!(t.threshold(), 9.0);
        t.offer(2, 1.0, seg(2.0));
        assert_eq!(t.threshold(), 4.0);
    }

    #[test]
    fn topk_zero_k_collects_nothing() {
        let mut t = TopK::new(0);
        t.offer(0, 1.0, seg(0.0));
        assert!(t.into_sorted().is_empty());
    }

    #[test]
    fn topk_fewer_candidates_than_k() {
        let mut t = TopK::new(10);
        t.offer(5, 2.0, seg(0.0));
        let out = t.into_sorted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 5);
    }

    #[test]
    fn topk_ties_break_by_id_in_output() {
        let mut t = TopK::new(2);
        t.offer(9, 1.0, seg(0.0));
        t.offer(3, 1.0, seg(1.0));
        let ids: Vec<u64> = t.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 9]);
    }
}
