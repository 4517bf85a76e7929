//! Frequency statistics and signature extraction (§III-B1).
//!
//! For a point `p` in trajectory `τ` of dataset `D`:
//!
//! * **PF** `f_p` — occurrences of `p` in `τ`; representativeness is
//!   `f_p / |τ|`.
//! * **TF** `l_p` — trajectories of `D` passing through `p`;
//!   distinctiveness is `log(|D| / l_p)`.
//!
//! Each point is weighted by the product of both; the top-`m` weighted
//! distinct points of each trajectory form its *signature* `s_m(τ)`, and
//! the union of all signatures is the candidate set
//! `P = {p₁, …, p_d}` that both mechanisms perturb.
//!
//! The analysis counts by dense location id. One pass over the samples
//! interns every distinct location in a [`LocationTable`] (ids in
//! first-appearance order) and records the id of every sample; TF and PF
//! are then counts in vectors indexed by id, and the local mechanism and
//! the dataset editor reuse the same table. The interning map is the one
//! per-sample hash lookup, and it keeps std's randomly keyed SipHash
//! because its keys are client-chosen coordinates that a fixed hasher
//! would let a crafted dataset collide. The indexes of `trajdp_index`
//! use the fixed Fx hash instead: their keys are segment ids the editors
//! issue themselves and grid cells, which no client chooses.

use std::collections::HashMap;
use trajdp_model::{Dataset, LocationTable, PointKey};

/// One signature point of a trajectory, with its statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignatureEntry {
    /// The location.
    pub point: PointKey,
    /// Point frequency `f_p` within the owning trajectory.
    pub pf: usize,
    /// Trajectory frequency `l_p` within the dataset.
    pub tf: usize,
    /// Combined weight: `(f_p/|τ|) · log(|D|/l_p)`.
    pub weight: f64,
}

/// The full frequency analysis of a dataset for a given signature size.
///
/// # Examples
///
/// ```
/// use trajdp_core::freq::FrequencyAnalysis;
/// use trajdp_model::{Dataset, Point, Sample, Trajectory};
///
/// // Object 0 haunts (1, 0); (5, 0) is a hotspot everyone visits.
/// let mk = |id, xs: &[f64]| Trajectory::new(id, xs.iter().enumerate()
///     .map(|(i, &x)| Sample::new(Point::new(x, 0.0), i as i64)).collect());
/// let ds = Dataset::from_trajectories(vec![
///     mk(0, &[1.0, 5.0, 1.0, 1.0]),
///     mk(1, &[5.0, 3.0]),
///     mk(2, &[5.0, 7.0]),
/// ]);
/// let analysis = FrequencyAnalysis::compute(&ds, 1);
/// let top = &analysis.signatures[0][0];
/// assert_eq!(top.point, Point::new(1.0, 0.0).key()); // high PF, TF = 1
/// assert_eq!((top.pf, top.tf), (3, 1));
/// assert!(analysis.dimensionality() <= ds.len() * 1); // d ≤ |D|·m
/// ```
#[derive(Debug, Clone)]
pub struct FrequencyAnalysis {
    /// Signature size `m`.
    pub m: usize,
    /// Per-trajectory signatures (index-aligned with the dataset),
    /// sorted by descending weight; at most `m` entries each.
    pub signatures: Vec<Vec<SignatureEntry>>,
    /// The candidate set `P`: every distinct point appearing in at least
    /// one signature, with its TF value.
    pub candidate_tf: HashMap<PointKey, usize>,
    /// Number of trajectories `|D|` at analysis time.
    pub dataset_size: usize,
    /// The analysed dataset's locations by dense id.
    locations: LocationTable,
    /// `in_candidates[id]`: whether location `id` lies in `P`.
    in_candidates: Vec<bool>,
}

impl FrequencyAnalysis {
    /// Runs the analysis: interns the dataset's locations, counts TF
    /// once over the dataset, then PF and weights per trajectory,
    /// extracting each top-`m` signature.
    pub fn compute(ds: &Dataset, m: usize) -> Self {
        assert!(m > 0, "signature size must be positive");
        let locations = LocationTable::new(&ds.trajectories);
        let ids = locations.len();
        // TF: a trajectory counts once per distinct location;
        // `counted[id]` is one past the last slot that counted `id`.
        let mut tf = vec![0usize; ids];
        let mut counted = vec![0usize; ids];
        for t in 0..ds.len() {
            for &id in locations.trajectory(t) {
                let id = id as usize;
                if counted[id] != t + 1 {
                    counted[id] = t + 1;
                    tf[id] += 1;
                }
            }
        }
        let n = ds.len().max(1) as f64;
        // PF of the current trajectory, zero again after each one.
        let mut pf = vec![0usize; ids];
        let mut distinct: Vec<u32> = Vec::new();
        let mut ranked: Vec<(SignatureEntry, u32)> = Vec::new();
        let mut in_candidates = vec![false; ids];
        let mut candidate_tf = HashMap::new();
        let mut signatures = Vec::with_capacity(ds.len());
        for (t, traj) in ds.trajectories.iter().enumerate() {
            for &id in locations.trajectory(t) {
                if pf[id as usize] == 0 {
                    distinct.push(id);
                }
                pf[id as usize] += 1;
            }
            let len = traj.len().max(1) as f64;
            ranked.clear();
            ranked.extend(distinct.drain(..).map(|id| {
                let (f, l) = (std::mem::take(&mut pf[id as usize]), tf[id as usize]);
                let representativeness = f as f64 / len;
                let distinctiveness = (n / l as f64).ln();
                let entry = SignatureEntry {
                    point: locations.key(id),
                    pf: f,
                    tf: l,
                    weight: representativeness * distinctiveness,
                };
                (entry, id)
            }));
            ranked.sort_by(|(a, _), (b, _)| {
                b.weight.total_cmp(&a.weight).then_with(|| a.point.cmp(&b.point))
            });
            ranked.truncate(m);
            for &(e, id) in &ranked {
                if !in_candidates[id as usize] {
                    in_candidates[id as usize] = true;
                    candidate_tf.insert(e.point, e.tf);
                }
            }
            signatures.push(ranked.iter().map(|&(e, _)| e).collect());
        }
        Self { m, signatures, candidate_tf, dataset_size: ds.len(), locations, in_candidates }
    }

    /// The analysed dataset's locations by dense id.
    pub fn locations(&self) -> &LocationTable {
        &self.locations
    }

    /// Whether location `id` of [`Self::locations`] lies in `P`; an id
    /// past the table's end never does.
    pub(crate) fn is_candidate(&self, id: u32) -> bool {
        self.in_candidates.get(id as usize).copied().unwrap_or(false)
    }

    /// The candidate set `P` as a deterministically ordered vector
    /// (sorted by key so downstream iteration order is reproducible).
    pub fn candidate_points(&self) -> Vec<PointKey> {
        // lint: allow(determinism): collected then sorted on the next line; callers only ever see the sorted order
        let mut v: Vec<PointKey> = self.candidate_tf.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Dimensionality `d = |P|`.
    pub fn dimensionality(&self) -> usize {
        self.candidate_tf.len()
    }

    /// The signature of trajectory `i` as a point list.
    pub fn signature_points(&self, i: usize) -> Vec<PointKey> {
        self.signatures[i].iter().map(|e| e.point).collect()
    }
}

/// The hash-map analysis the dense-id one replaced, with datasets that
/// stress location identity; the equality tests of this crate check the
/// production code against it.
#[cfg(test)]
pub(crate) mod reference {
    use super::SignatureEntry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use trajdp_model::{Dataset, Point, PointKey, Sample, Trajectory};

    /// Signatures and candidate TF of `ds`, counted in SipHash maps.
    pub(crate) fn compute(
        ds: &Dataset,
        m: usize,
    ) -> (Vec<Vec<SignatureEntry>>, HashMap<PointKey, usize>) {
        let mut tf: HashMap<PointKey, usize> = HashMap::new();
        for t in &ds.trajectories {
            let mut distinct: Vec<PointKey> = t.samples.iter().map(|s| s.loc.key()).collect();
            distinct.sort_unstable();
            distinct.dedup();
            for k in distinct {
                *tf.entry(k).or_insert(0) += 1;
            }
        }
        let n = ds.len().max(1) as f64;
        let mut signatures = Vec::with_capacity(ds.len());
        for traj in &ds.trajectories {
            let mut pf: HashMap<PointKey, usize> = HashMap::new();
            for s in &traj.samples {
                *pf.entry(s.loc.key()).or_insert(0) += 1;
            }
            let len = traj.len().max(1) as f64;
            let mut entries: Vec<SignatureEntry> = pf
                .into_iter()
                .map(|(point, f)| {
                    let l = *tf.get(&point).unwrap_or(&1);
                    let weight = (f as f64 / len) * (n / l as f64).ln();
                    SignatureEntry { point, pf: f, tf: l, weight }
                })
                .collect();
            entries
                .sort_by(|a, b| b.weight.total_cmp(&a.weight).then_with(|| a.point.cmp(&b.point)));
            entries.truncate(m);
            signatures.push(entries);
        }
        let mut candidate_tf = HashMap::new();
        for e in signatures.iter().flatten() {
            candidate_tf.entry(e.point).or_insert(e.tf);
        }
        (signatures, candidate_tf)
    }

    /// A seeded dataset of `trajs` trajectories of 0 to `max_len`
    /// samples, each at a location drawn from `pool`.
    fn drawn(seed: u64, trajs: usize, max_len: usize, pool: &[Point]) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let trajectories = (0..trajs)
            .map(|id| {
                let len = rng.gen_range(0..=max_len);
                let samples = (0..len)
                    .map(|i| Sample::new(pool[rng.gen_range(0..pool.len())], i as i64))
                    .collect();
                Trajectory::new(id as u64, samples)
            })
            .collect();
        Dataset::from_trajectories(trajectories)
    }

    /// A grid of `n` distinct points 10 m apart.
    pub(crate) fn grid(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new((i % 40) as f64 * 10.0, (i / 40) as f64 * 10.0)).collect()
    }

    /// Seeded datasets covering: all samples at one location; every
    /// sample at its own location; `0.0` beside `-0.0` and NaN
    /// coordinates; empty and one-sample trajectories among long ones;
    /// and a road-like mix of repeats. All but the NaN one have finite
    /// coordinates, so an editor can run on them.
    pub(crate) fn edge_datasets() -> Vec<Dataset> {
        let all_distinct = {
            let pool = grid(40 * 40);
            let mut next = 0;
            let trajectories = (0..12)
                .map(|id| {
                    let samples = (0..(id % 5) * 7 + 1)
                        .map(|i| {
                            next += 1;
                            Sample::new(pool[next], i as i64)
                        })
                        .collect();
                    Trajectory::new(id as u64, samples)
                })
                .collect();
            Dataset::from_trajectories(trajectories)
        };
        let signed = [
            Point::new(0.0, 0.0),
            Point::new(-0.0, 0.0),
            Point::new(0.0, -0.0),
            Point::new(-0.0, -0.0),
            Point::new(f64::NAN, 0.0),
            Point::new(0.0, f64::NAN),
            Point::new(f64::NAN, f64::NAN),
            Point::new(1.0, 1.0),
        ];
        let mut short = drawn(5, 10, 30, &grid(24));
        for (t, keep) in [(1, 0), (4, 1), (6, 0), (9, 1)] {
            short.trajectories[t].samples.truncate(keep);
        }
        vec![
            drawn(1, 8, 40, &[Point::new(3.0, 4.0)]),
            all_distinct,
            drawn(3, 10, 30, &signed),
            short,
            drawn(7, 20, 60, &grid(30)),
            drawn(8, 6, 3, &grid(5)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdp_model::{Point, Sample, Trajectory};

    fn p(x: f64) -> Point {
        Point::new(x, 0.0)
    }

    /// Dataset where (1,0) is object 0's personal haunt (PF 3, TF 1),
    /// (5,0) is a hotspot everyone visits, and the rest is noise.
    fn ds() -> Dataset {
        let mk = |id, xs: &[f64]| {
            Trajectory::new(
                id,
                xs.iter().enumerate().map(|(i, &x)| Sample::new(p(x), i as i64)).collect(),
            )
        };
        Dataset::from_trajectories(vec![
            mk(0, &[1.0, 5.0, 1.0, 2.0, 1.0]),
            mk(1, &[5.0, 3.0, 6.0]),
            mk(2, &[5.0, 7.0, 8.0]),
        ])
    }

    #[test]
    fn weights_prefer_high_pf_low_tf() {
        let fa = FrequencyAnalysis::compute(&ds(), 2);
        let sig0 = &fa.signatures[0];
        // (1,0): PF 3/5, TF 1 → weight (3/5)·ln(3) ≈ 0.659 — the top pick.
        assert_eq!(sig0[0].point, p(1.0).key());
        assert_eq!(sig0[0].pf, 3);
        assert_eq!(sig0[0].tf, 1);
        assert!((sig0[0].weight - 0.6 * 3f64.ln()).abs() < 1e-12);
        // The hotspot (5,0) has TF 3 → ln(1) = 0 weight; it must lose to
        // the unique point (2,0).
        assert_eq!(sig0[1].point, p(2.0).key());
    }

    #[test]
    fn hotspot_weight_is_zero() {
        let fa = FrequencyAnalysis::compute(&ds(), 3);
        for sig in &fa.signatures {
            for e in sig {
                if e.point == p(5.0).key() {
                    assert!(e.weight.abs() < 1e-12, "hotspot visited by all must weigh 0");
                }
            }
        }
    }

    #[test]
    fn signatures_truncate_to_m_and_sort_desc() {
        let fa = FrequencyAnalysis::compute(&ds(), 1);
        for sig in &fa.signatures {
            assert!(sig.len() <= 1);
        }
        let fa = FrequencyAnalysis::compute(&ds(), 10);
        for sig in &fa.signatures {
            assert!(sig.windows(2).all(|w| w[0].weight >= w[1].weight));
        }
    }

    #[test]
    fn candidate_set_is_union_of_signatures() {
        let fa = FrequencyAnalysis::compute(&ds(), 2);
        let pts = fa.candidate_points();
        assert_eq!(pts.len(), fa.dimensionality());
        for (i, _) in fa.signatures.iter().enumerate() {
            for k in fa.signature_points(i) {
                assert!(pts.contains(&k));
            }
        }
        // d ≤ |D| · m
        assert!(fa.dimensionality() <= 3 * 2);
    }

    #[test]
    fn candidate_order_is_deterministic() {
        let a = FrequencyAnalysis::compute(&ds(), 2).candidate_points();
        let b = FrequencyAnalysis::compute(&ds(), 2).candidate_points();
        assert_eq!(a, b);
    }

    #[test]
    fn tf_values_match_dataset() {
        let d = ds();
        let fa = FrequencyAnalysis::compute(&d, 3);
        for (k, &tf) in &fa.candidate_tf {
            assert_eq!(tf, d.trajectory_frequency(*k));
        }
    }

    /// Bit-exact equality of two signature lists (NaN-safe: points are
    /// compared as keys and weights by their bits).
    fn same_signatures(a: &[Vec<SignatureEntry>], b: &[Vec<SignatureEntry>]) -> bool {
        let bits = |s: &[Vec<SignatureEntry>]| -> Vec<Vec<(PointKey, usize, usize, u64)>> {
            s.iter()
                .map(|sig| sig.iter().map(|e| (e.point, e.pf, e.tf, e.weight.to_bits())).collect())
                .collect()
        };
        bits(a) == bits(b)
    }

    #[test]
    fn dense_counts_match_the_hash_map_reference() {
        for (i, d) in reference::edge_datasets().iter().enumerate() {
            for m in [1, 2, 5, 100] {
                let fa = FrequencyAnalysis::compute(d, m);
                let (signatures, candidate_tf) = reference::compute(d, m);
                assert!(same_signatures(&fa.signatures, &signatures), "dataset {i}, m {m}");
                assert_eq!(fa.candidate_tf, candidate_tf, "dataset {i}, m {m}");
                for id in 0..fa.locations().len() as u32 {
                    let key = fa.locations().key(id);
                    assert_eq!(fa.is_candidate(id), candidate_tf.contains_key(&key));
                }
                assert!(!fa.is_candidate(fa.locations().len() as u32));
            }
        }
    }

    #[test]
    fn compute_is_linear_in_distinct_points() {
        // Every sample at its own location, ten samples per trajectory:
        // 8x the samples may cost at most 24x the time. Zeroing the
        // per-location counts for every trajectory instead of only the
        // touched ones costs about 64x. The minimum of five runs damps
        // scheduler noise.
        fn best_of_5(n: usize) -> std::time::Duration {
            let trajectories = (0..n / 10)
                .map(|t| {
                    let samples = (0..10)
                        .map(|i| {
                            let p = t * 10 + i;
                            Sample::new(Point::new(p as f64, (p % 97) as f64), i as i64)
                        })
                        .collect();
                    Trajectory::new(t as u64, samples)
                })
                .collect();
            let d = Dataset::from_trajectories(trajectories);
            (0..5)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let fa = FrequencyAnalysis::compute(&d, 2);
                    let elapsed = started.elapsed();
                    assert_eq!(fa.locations().len(), n);
                    assert!(fa.signatures.iter().flatten().all(|e| e.tf == 1 && e.pf == 1));
                    elapsed
                })
                .min()
                .unwrap()
        }
        let n = 4_000;
        let (small, large) = (best_of_5(n), best_of_5(8 * n));
        let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
        assert!(ratio < 24.0, "t(8n)/t(n) = {ratio:.1} ({small:?} → {large:?})");
    }

    #[test]
    #[should_panic(expected = "signature size must be positive")]
    fn zero_m_panics() {
        FrequencyAnalysis::compute(&ds(), 0);
    }
}
