//! Shared search types: indexed entries, results, statistics, and a
//! totally ordered float wrapper for priority queues.

use crate::fx::FxBuild;
use std::collections::{BinaryHeap, HashMap};
use trajdp_model::{Point, Segment};

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
    /// The group this result stands for: in a grouped search the group
    /// the entry was offered under, in a plain search `id` itself.
    pub group: u64,
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
    /// Exact distances computed: one per entry checked, however many
    /// groups the entry stands for. The dataset editor indexes each
    /// distinct segment geometry once, so in its TF increases this
    /// counts distinct geometries, not segment copies.
    pub segments_checked: usize,
}

/// An `f64` with a total order (via `f64::total_cmp`), usable as a
/// priority in `BinaryHeap`. Equality follows the same order, so a NaN
/// equals itself and the order's `Eq` is reflexive.
#[derive(Debug, Clone, Copy)]
pub struct TotalF64(pub f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}

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

/// One candidate held by [`TopK`], ordered by `(dist, group)` alone:
/// the segment rides along so the result needs no side table.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    dist: TotalF64,
    group: u64,
    id: u64,
    seg: Segment,
}

impl Candidate {
    fn rank(&self) -> (TotalF64, u64) {
        (self.dist, self.group)
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
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
        self.rank().cmp(&other.rank())
    }
}

/// The group function of a grouped search: called with a checked
/// entry's payload id and an `offer` callback, it passes every group the
/// entry stands for to `offer` — none to leave the entry out.
pub type GroupFn<'a> = &'a dyn Fn(u64, &mut dyn FnMut(u64));

/// Bounded max-heap collecting the K nearest candidates of one search,
/// with its work counters.
///
/// * **Plain** (no group function): every entry is a candidate, its
///   group its own id. A full collector accepts only a strictly smaller
///   distance, so on a tie the earlier-visited entry stays.
/// * **Grouped**: each checked entry's distance is computed once and
///   offered under every group the group function names, and a
///   candidate is a group at the distance of its nearest entry seen so
///   far. A full collector accepts only a strictly smaller `(dist,
///   group)`, so the result is the K smallest `(distance, group)` pairs
///   whatever order the entries and their groups come in. An entry
///   beyond the K-th kept distance of a full collector is not walked at
///   all: none of its groups could be accepted.
///
/// `threshold()` exposes the current K-th smallest distance — the pruning
/// bound θ_K of Theorem 4. Every search prunes only what lies strictly
/// beyond it, so a grouped search sees every entry at the K-th group's
/// distance and the tie rule holds exactly.
pub(crate) struct TopK<'a> {
    k: usize,
    group: Option<GroupFn<'a>>,
    /// In a grouped search, an entry whose group has since met a nearer
    /// segment stays behind, stale, until it reaches the top; the top is
    /// never stale.
    heap: BinaryHeap<Candidate>,
    /// Grouped search only: the distance of each kept group, which marks
    /// its one live heap entry.
    nearest: HashMap<u64, TotalF64, FxBuild>,
    pub stats: SearchStats,
}

impl<'a> TopK<'a> {
    pub fn new(k: usize, group: Option<GroupFn<'a>>) -> Self {
        let heap = BinaryHeap::with_capacity(k + 1);
        Self { k, group, heap, nearest: HashMap::default(), stats: SearchStats::default() }
    }

    /// Computes the distance of entry `e` from `q` and offers it: as
    /// itself in a plain search, under each of its groups in a grouped
    /// one.
    pub fn check(&mut self, e: &SegmentEntry, q: &Point) {
        self.stats.segments_checked += 1;
        let dist = TotalF64(e.seg.dist_to_point(q));
        let Some(groups) = self.group else {
            if self.heap.len() < self.k {
                self.heap.push(Candidate { dist, group: e.id, id: e.id, seg: e.seg });
            } else if self.heap.peek().is_some_and(|top| dist.0 < top.dist.0) {
                self.heap.pop();
                self.heap.push(Candidate { dist, group: e.id, id: e.id, seg: e.seg });
            }
            return;
        };
        if !self.may_take(dist) {
            return;
        }
        groups(e.id, &mut |group| {
            self.offer_grouped(Candidate { dist, group, id: e.id, seg: e.seg });
        });
    }

    /// Grouped search: whether some group at distance `dist` could be
    /// accepted. Once the collector is full, a candidate beyond the top's
    /// distance is rejected whatever its group, and a kept group already
    /// sits at or below that distance. An accepted offer at `dist` keeps
    /// the top at or beyond `dist`, so the answer holds for a whole walk.
    fn may_take(&self, dist: TotalF64) -> bool {
        !self.is_full() || self.heap.peek().is_some_and(|top| dist <= top.dist)
    }

    fn offer_grouped(&mut self, c: Candidate) {
        if let Some(&kept) = self.nearest.get(&c.group) {
            if c.dist >= kept {
                return;
            }
        } else if self.is_full() {
            if self.heap.peek().is_none_or(|top| c >= *top) {
                return;
            }
            let evicted = self.heap.pop().expect("a full heap has a top");
            self.nearest.remove(&evicted.group);
        }
        self.nearest.insert(c.group, c.dist);
        self.heap.push(c);
        // The threshold and the next eviction read the top: keep it live.
        while let Some(top) = self.heap.peek() {
            if self.nearest.get(&top.group) == Some(&top.dist) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Whether K candidates have been collected.
    pub fn is_full(&self) -> bool {
        let kept = if self.group.is_some() { self.nearest.len() } else { self.heap.len() };
        kept >= self.k
    }

    /// Current pruning threshold θ_K: the K-th smallest distance so far,
    /// or +∞ while fewer than K candidates exist.
    pub fn threshold(&self) -> f64 {
        match self.heap.peek() {
            Some(top) if self.is_full() => top.dist.0,
            _ => f64::INFINITY,
        }
    }

    /// Ends the search: the neighbours in ascending `(dist, group)`
    /// order, and the work counters.
    pub fn finish(self) -> (Vec<Neighbor>, SearchStats) {
        let Self { group, heap, nearest, stats, .. } = self;
        let live = |c: &Candidate| group.is_none() || nearest.get(&c.group) == Some(&c.dist);
        let hits = heap.into_sorted_vec().into_iter().filter(live);
        let neighbor =
            |c: Candidate| Neighbor { id: c.id, group: c.group, dist: c.dist.0, seg: c.seg };
        (hits.map(neighbor).collect(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(x: f64) -> Segment {
        Segment::new(Point::new(x, 0.0), Point::new(x + 1.0, 0.0))
    }

    /// Offers segment `id` at distance `dist` from the origin.
    fn offer(t: &mut TopK, id: u64, dist: f64) {
        let e = SegmentEntry::new(id, Segment::new(Point::new(-1.0, dist), Point::new(1.0, dist)));
        t.check(&e, &Point::new(0.0, 0.0));
    }

    #[test]
    fn total_f64_equality_follows_its_order() {
        assert_eq!(TotalF64(f64::NAN), TotalF64(f64::NAN));
        assert_ne!(TotalF64(-0.0), TotalF64(0.0));
        assert_eq!(TotalF64(2.0), TotalF64(2.0));
    }

    #[test]
    fn topk_grouped_keeps_a_group_at_a_nan_distance() {
        // A NaN distance sorts after every number; a group kept at one
        // is live, not mistaken for stale.
        let group = |id: u64, offer: &mut dyn FnMut(u64)| offer(id);
        let mut t = TopK::new(2, Some(&group));
        let nan = Segment::new(Point::new(f64::NAN, 0.0), Point::new(1.0, 0.0));
        t.check(&SegmentEntry::new(4, nan), &Point::new(0.0, 0.0));
        offer(&mut t, 7, 3.0);
        let out: Vec<u64> = t.finish().0.iter().map(|n| n.group).collect();
        assert_eq!(out, [7, 4]);
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
        let mut t = TopK::new(3, None);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            offer(&mut t, i as u64, *d);
        }
        let out = t.finish().0;
        let dists: Vec<f64> = out.iter().map(|n| n.dist).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
        let ids: Vec<u64> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }

    #[test]
    fn topk_threshold_evolves() {
        let mut t = TopK::new(2, None);
        assert_eq!(t.threshold(), f64::INFINITY);
        offer(&mut t, 0, 9.0);
        assert_eq!(t.threshold(), f64::INFINITY); // not yet full
        offer(&mut t, 1, 4.0);
        assert_eq!(t.threshold(), 9.0);
        offer(&mut t, 2, 1.0);
        assert_eq!(t.threshold(), 4.0);
    }

    #[test]
    fn topk_zero_k_collects_nothing() {
        let mut t = TopK::new(0, None);
        offer(&mut t, 0, 1.0);
        assert!(t.finish().0.is_empty());
    }

    #[test]
    fn topk_fewer_candidates_than_k() {
        let mut t = TopK::new(10, None);
        offer(&mut t, 5, 2.0);
        let out = t.finish().0;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 5);
    }

    #[test]
    fn topk_ties_break_by_id_in_output() {
        let mut t = TopK::new(2, None);
        offer(&mut t, 9, 1.0);
        offer(&mut t, 3, 1.0);
        let ids: Vec<u64> = t.finish().0.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 9]);
    }

    #[test]
    fn topk_full_plain_keeps_the_earlier_tie_and_grouped_the_smaller_group() {
        let group = |id: u64, offer: &mut dyn FnMut(u64)| offer(id / 10);
        let mut plain = TopK::new(1, None);
        let mut grouped = TopK::new(1, Some(&group));
        for id in [95, 31] {
            let e = SegmentEntry::new(id, seg(0.0));
            plain.check(&e, &Point::new(0.5, 2.0));
            grouped.check(&e, &Point::new(0.5, 2.0));
        }
        assert_eq!(plain.finish().0[0].id, 95);
        assert_eq!(grouped.finish().0[0].id, 31);
    }

    #[test]
    fn topk_grouped_keeps_each_groups_nearest_segment() {
        // Groups are ids mod 3; id 7 is left out. Group bests: 0 → 2.0
        // (id 3), 1 → 1.0 (id 4), 2 → 9.0 (id 2).
        let group = |id: u64, offer: &mut dyn FnMut(u64)| {
            if id != 7 {
                offer(id % 3);
            }
        };
        let mut t = TopK::new(2, Some(&group));
        for (id, d) in [(0, 5.0), (3, 2.0), (1, 4.0), (6, 3.0), (7, 0.0), (4, 1.0), (2, 9.0)] {
            let e = SegmentEntry::new(id, Segment::new(Point::new(0.0, d), Point::new(1.0, d)));
            t.check(&e, &Point::new(0.5, 0.0));
        }
        let (hits, stats) = t.finish();
        let out: Vec<(u64, u64, f64)> = hits.iter().map(|n| (n.id, n.group, n.dist)).collect();
        assert_eq!(out, vec![(4, 1, 1.0), (3, 0, 2.0)]);
        // Every entry's distance is computed, the left-out one's too.
        assert_eq!(stats.segments_checked, 7);
    }

    #[test]
    fn topk_grouped_offers_one_distance_under_every_group() {
        // Entry `id` lies at distance `id` from q and stands for the
        // groups listed under it. Group bests: 5 → 1, 2 → 1, 9 → 2, 1 → 3.
        let owners: [&[u64]; 4] = [&[], &[5, 2], &[9, 2], &[1, 9, 5, 7, 8]];
        let walked = std::cell::RefCell::new(Vec::new());
        let group = |id: u64, offer: &mut dyn FnMut(u64)| {
            for &g in owners[id as usize] {
                walked.borrow_mut().push((id, g));
                offer(g);
            }
        };
        let mut t = TopK::new(3, Some(&group));
        for id in [1, 2, 3] {
            offer(&mut t, id, id as f64);
        }
        let (hits, stats) = t.finish();
        let out: Vec<(u64, u64, f64)> = hits.iter().map(|n| (n.id, n.group, n.dist)).collect();
        assert_eq!(out, vec![(1, 2, 1.0), (1, 5, 1.0), (2, 9, 2.0)]);
        assert_eq!(stats.segments_checked, 3);
        // Entry 3 lies beyond the full collector's 2.0: it is not walked.
        assert_eq!(*walked.borrow(), [(1, 5), (1, 2), (2, 9), (2, 2)]);
        // At the K-th distance itself the walk goes on: a smaller group
        // may still displace the top.
        walked.borrow_mut().clear();
        let mut t = TopK::new(1, Some(&group));
        offer(&mut t, 3, 3.0);
        assert_eq!(walked.borrow().len(), 5);
        assert_eq!(t.finish().0[0].group, 1);
    }
}
