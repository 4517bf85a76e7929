//! Utility-preservation metrics (§V-A): INF, DE, TE, FFP.

use std::collections::{BTreeSet, HashMap, HashSet};
use trajdp_model::stats::{histogram, jensen_shannon};
use trajdp_model::{Dataset, GridLevel, PointKey};

/// Point-based information loss (INF, after Han & Tsai '15): the
/// fraction of original sample occurrences that no longer appear in the
/// anonymized counterpart of the same trajectory. 0 = every original
/// point retained, 1 = everything lost. Lower is better.
pub fn information_loss(original: &Dataset, anonymized: &Dataset) -> f64 {
    assert_eq!(original.len(), anonymized.len(), "datasets must contain the same objects");
    let mut total = 0usize;
    let mut lost = 0usize;
    for (o, a) in original.trajectories.iter().zip(&anonymized.trajectories) {
        let mut remaining: HashMap<PointKey, usize> = HashMap::new();
        for s in &a.samples {
            *remaining.entry(s.loc.key()).or_insert(0) += 1;
        }
        for s in &o.samples {
            total += 1;
            match remaining.get_mut(&s.loc.key()) {
                Some(c) if *c > 0 => *c -= 1,
                _ => lost += 1,
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        lost as f64 / total as f64
    }
}

/// Divergence of the trajectory-diameter distribution (DE, after Gursoy
/// et al.): Jensen–Shannon divergence between histograms of per-
/// trajectory diameters. Lower is better.
pub fn diameter_divergence(original: &Dataset, anonymized: &Dataset, bins: usize) -> f64 {
    let dia = |ds: &Dataset| -> Vec<f64> {
        ds.trajectories.iter().map(|t| t.diameter_approx()).collect()
    };
    let d_o = dia(original);
    let d_a = dia(anonymized);
    let hi = d_o.iter().chain(&d_a).fold(0.0f64, |m, &v| m.max(v)).max(1e-9);
    let h_o = histogram(&d_o, 0.0, hi, bins);
    let h_a = histogram(&d_a, 0.0, hi, bins);
    jensen_shannon(&h_o, &h_a) / std::f64::consts::LN_2 // normalize to [0,1]
}

/// Divergence of the trip (start-cell → end-cell) distribution (TE):
/// Jensen–Shannon divergence between categorical distributions over
/// `granularity × granularity` origin/destination cell pairs. Lower is
/// better.
pub fn trip_divergence(original: &Dataset, anonymized: &Dataset, granularity: u32) -> f64 {
    let grid = GridLevel::new(original.domain, granularity, 0);
    let key = |ds: &Dataset| -> HashMap<(u32, u32, u32, u32), f64> {
        let mut h = HashMap::new();
        for t in &ds.trajectories {
            if let Some((s, e)) = t.trip() {
                let cs = grid.locate(&s);
                let ce = grid.locate(&e);
                *h.entry((cs.col, cs.row, ce.col, ce.row)).or_insert(0.0) += 1.0;
            }
        }
        h
    };
    let h_o = key(original);
    let h_a = key(anonymized);
    // Union support, aligned vectors, in key order so the divergence
    // sums add in one fixed order.
    let support: BTreeSet<_> = h_o.keys().chain(h_a.keys()).copied().collect();
    if support.is_empty() {
        return 0.0;
    }
    let mut p = Vec::with_capacity(support.len());
    let mut q = Vec::with_capacity(support.len());
    for k in support {
        p.push(*h_o.get(&k).unwrap_or(&0.0));
        q.push(*h_a.get(&k).unwrap_or(&0.0));
    }
    jensen_shannon(&p, &q) / std::f64::consts::LN_2
}

/// Mines the `top_n` most frequent length-`len` cell sequences
/// (consecutive, de-duplicated cell transitions) of a dataset.
fn frequent_patterns(
    ds: &Dataset,
    grid: &GridLevel,
    len: usize,
    top_n: usize,
) -> HashSet<Vec<(u32, u32)>> {
    let mut counts: HashMap<Vec<(u32, u32)>, usize> = HashMap::new();
    for t in &ds.trajectories {
        // Collapse consecutive samples in the same cell first.
        let mut cells: Vec<(u32, u32)> = Vec::with_capacity(t.len());
        for s in &t.samples {
            let c = grid.locate(&s.loc);
            if cells.last() != Some(&(c.col, c.row)) {
                cells.push((c.col, c.row));
            }
        }
        // Count each distinct n-gram once per trajectory (support-based
        // frequent-pattern semantics).
        let mut seen: HashSet<&[(u32, u32)]> = HashSet::new();
        for w in cells.windows(len) {
            if seen.insert(w) {
                *counts.entry(w.to_vec()).or_insert(0) += 1;
            }
        }
    }
    let mut v: Vec<(Vec<(u32, u32)>, usize)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v.into_iter().take(top_n).map(|(k, _)| k).collect()
}

/// F-measure of frequent pattern mining (FFP, after Gurung et al.):
/// mine the `top_n` most frequent length-`pattern_len` cell sequences
/// from both datasets and report the F1 overlap. Higher is better.
pub fn frequent_pattern_f1(
    original: &Dataset,
    anonymized: &Dataset,
    granularity: u32,
    pattern_len: usize,
    top_n: usize,
) -> f64 {
    assert!(pattern_len >= 1 && top_n >= 1, "degenerate pattern mining parameters");
    let grid = GridLevel::new(original.domain, granularity, 0);
    let p_o = frequent_patterns(original, &grid, pattern_len, top_n);
    let p_a = frequent_patterns(anonymized, &grid, pattern_len, top_n);
    if p_o.is_empty() && p_a.is_empty() {
        return 1.0;
    }
    if p_o.is_empty() || p_a.is_empty() {
        return 0.0;
    }
    let inter = p_o.intersection(&p_a).count() as f64;
    let precision = inter / p_a.len() as f64;
    let recall = inter / p_o.len() as f64;
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

/// Average relative error of spatial count queries (AvRE, after Gursoy
/// et al.): for each grid cell, compare the number of trajectories
/// passing through it in the original vs the anonymized dataset,
/// `|orig − anon| / max(orig, sanity_bound)`. Lower is better. Cells
/// empty in both datasets are skipped; the sanity bound (a fraction of
/// `|D|`, conventionally 1%) keeps near-empty cells from dominating.
pub fn query_avre(original: &Dataset, anonymized: &Dataset, granularity: u32) -> f64 {
    let grid = GridLevel::new(original.domain, granularity, 0);
    let counts = |ds: &Dataset| -> HashMap<(u32, u32), f64> {
        let mut h: HashMap<(u32, u32), f64> = HashMap::new();
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        for t in &ds.trajectories {
            seen.clear();
            for s in &t.samples {
                let c = grid.locate(&s.loc);
                if seen.insert((c.col, c.row)) {
                    *h.entry((c.col, c.row)).or_insert(0.0) += 1.0;
                }
            }
        }
        h
    };
    let h_o = counts(original);
    let h_a = counts(anonymized);
    let sanity = (original.len() as f64 * 0.01).max(1.0);
    // In key order, so the sum adds in one fixed order.
    let support: BTreeSet<_> = h_o.keys().chain(h_a.keys()).copied().collect();
    if support.is_empty() {
        return 0.0;
    }
    let total: f64 = support
        .iter()
        .map(|c| {
            let o = *h_o.get(c).unwrap_or(&0.0);
            let a = *h_a.get(c).unwrap_or(&0.0);
            (o - a).abs() / o.max(sanity)
        })
        .sum();
    total / support.len() as f64
}

/// Hotspot preservation: the Jaccard overlap between the `top_n` most
/// visited cells of the original and the anonymized dataset. 1 = all
/// hotspots preserved; higher is better.
pub fn hotspot_preservation(
    original: &Dataset,
    anonymized: &Dataset,
    granularity: u32,
    top_n: usize,
) -> f64 {
    assert!(top_n >= 1, "top_n must be positive");
    let grid = GridLevel::new(original.domain, granularity, 0);
    let top_cells = |ds: &Dataset| -> HashSet<(u32, u32)> {
        let mut h: HashMap<(u32, u32), usize> = HashMap::new();
        for t in &ds.trajectories {
            for s in &t.samples {
                let c = grid.locate(&s.loc);
                *h.entry((c.col, c.row)).or_insert(0) += 1;
            }
        }
        let mut v: Vec<((u32, u32), usize)> = h.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().take(top_n).map(|(c, _)| c).collect()
    };
    let a = top_cells(original);
    let b = top_cells(anonymized);
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(&b).count() as f64;
    let union = a.union(&b).count() as f64;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdp_model::{Point, Rect, Sample, Trajectory};

    fn traj(id: u64, pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(
            id,
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| Sample::new(Point::new(x, y), i as i64))
                .collect(),
        )
    }

    fn base() -> Dataset {
        Dataset::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![
                traj(0, &[(10.0, 10.0), (20.0, 10.0), (30.0, 10.0), (40.0, 10.0)]),
                traj(1, &[(10.0, 90.0), (20.0, 90.0), (30.0, 90.0)]),
            ],
        )
    }

    #[test]
    fn inf_zero_for_identity() {
        let d = base();
        assert_eq!(information_loss(&d, &d), 0.0);
    }

    #[test]
    fn inf_counts_missing_occurrences() {
        let d = base();
        let mut anon = d.clone();
        anon.trajectories[0].samples.truncate(2); // lose 2 of 7 points
        assert!((information_loss(&d, &anon) - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn inf_is_multiset_aware() {
        // Original has the point twice; anonymized only once → one lost.
        let d =
            Dataset::new(Rect::new(0.0, 0.0, 10.0, 10.0), vec![traj(0, &[(1.0, 1.0), (1.0, 1.0)])]);
        let anon =
            Dataset::new(Rect::new(0.0, 0.0, 10.0, 10.0), vec![traj(0, &[(1.0, 1.0), (2.0, 2.0)])]);
        assert!((information_loss(&d, &anon) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inf_ignores_extra_inserted_points() {
        let d = base();
        let mut anon = d.clone();
        anon.trajectories[0].samples.push(Sample::new(Point::new(99.0, 99.0), 100));
        assert_eq!(information_loss(&d, &anon), 0.0);
    }

    #[test]
    fn de_zero_for_identity_and_positive_for_shrunk() {
        let d = base();
        assert!(diameter_divergence(&d, &d, 20) < 1e-12);
        let mut anon = d.clone();
        for t in &mut anon.trajectories {
            t.samples.truncate(1); // diameters collapse to zero
        }
        assert!(diameter_divergence(&d, &anon, 20) > 0.5);
    }

    #[test]
    fn te_zero_for_identity_and_positive_for_moved_trips() {
        let d = base();
        assert!(trip_divergence(&d, &d, 8) < 1e-12);
        let mut anon = d.clone();
        // Move trajectory 0's endpoint across the domain.
        let last = anon.trajectories[0].samples.last_mut().unwrap();
        last.loc = Point::new(95.0, 95.0);
        let te = trip_divergence(&d, &anon, 8);
        assert!(te > 0.2, "moving a trip endpoint must register, got {te}");
    }

    #[test]
    fn ffp_one_for_identity() {
        let d = base();
        assert_eq!(frequent_pattern_f1(&d, &d, 16, 2, 10), 1.0);
    }

    #[test]
    fn ffp_drops_when_patterns_destroyed() {
        let d = base();
        // Reverse every trajectory spatially: transitions flip direction.
        let anon = Dataset::new(
            d.domain,
            d.trajectories
                .iter()
                .map(|t| {
                    let mut pts: Vec<_> = t.samples.iter().map(|s| s.loc).collect();
                    pts.reverse();
                    Trajectory::new(
                        t.id,
                        pts.into_iter()
                            .enumerate()
                            .map(|(i, p)| Sample::new(p, i as i64))
                            .collect(),
                    )
                })
                .collect(),
        );
        let f1 = frequent_pattern_f1(&d, &anon, 16, 2, 10);
        assert!(f1 < 1.0, "reversed transitions should lower FFP, got {f1}");
    }

    #[test]
    fn ffp_empty_datasets() {
        let e = Dataset::new(Rect::new(0.0, 0.0, 1.0, 1.0), vec![]);
        assert_eq!(frequent_pattern_f1(&e, &e, 8, 2, 5), 1.0);
    }

    #[test]
    fn avre_zero_for_identity() {
        let d = base();
        assert_eq!(query_avre(&d, &d, 16), 0.0);
    }

    #[test]
    fn avre_registers_removed_mass() {
        let d = base();
        let empty = Dataset::new(
            d.domain,
            d.trajectories.iter().map(|t| Trajectory::new(t.id, vec![])).collect(),
        );
        let e = query_avre(&d, &empty, 16);
        assert!(e > 0.9, "emptying the dataset should max the query error, got {e}");
    }

    #[test]
    fn avre_counts_trajectories_not_occurrences() {
        // Doubling every sample within the same trajectories does not
        // change per-cell trajectory counts → error stays 0.
        let d = base();
        let doubled = Dataset::new(
            d.domain,
            d.trajectories
                .iter()
                .map(|t| {
                    let mut samples = t.samples.clone();
                    samples.extend(t.samples.iter().map(|s| Sample::new(s.loc, s.t + 1000)));
                    Trajectory::new(t.id, samples)
                })
                .collect(),
        );
        assert_eq!(query_avre(&d, &doubled, 16), 0.0);
    }

    #[test]
    fn hotspots_identity_and_destroyed() {
        let d = base();
        assert_eq!(hotspot_preservation(&d, &d, 16, 5), 1.0);
        // Move everything into one far corner: the original hotspots
        // disappear from the release.
        let moved = Dataset::new(
            d.domain,
            d.trajectories
                .iter()
                .map(|t| {
                    Trajectory::new(
                        t.id,
                        t.samples
                            .iter()
                            .map(|s| Sample::new(Point::new(99.0, 99.0), s.t))
                            .collect(),
                    )
                })
                .collect(),
        );
        let h = hotspot_preservation(&d, &moved, 16, 5);
        assert!(h < 0.5, "relocated data should lose hotspots, got {h}");
    }

    #[test]
    fn hotspots_empty_inputs() {
        let e = Dataset::new(Rect::new(0.0, 0.0, 1.0, 1.0), vec![]);
        assert_eq!(hotspot_preservation(&e, &e, 8, 3), 1.0);
    }
}
