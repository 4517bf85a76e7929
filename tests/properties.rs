//! Property-style integration tests: randomized cross-crate invariants.
//!
//! Originally written against `proptest`; the offline build environment
//! cannot fetch it, so each property runs as a seeded loop over randomly
//! generated inputs instead — same invariants, deterministic cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_freq_dp::core::{anonymize, FreqDpConfig, Model};
use traj_freq_dp::index::{
    HierGrid, LinearScan, SegmentEntry, Strategy as SearchStrategy, UniformGrid,
};
use traj_freq_dp::metrics::recovery::recovery_metrics_single;
use traj_freq_dp::model::codec::{decode_dataset, encode_dataset};
use traj_freq_dp::model::{Dataset, Point, Rect, Sample, Segment, Trajectory};

const DOMAIN: f64 = 4096.0;
const CASES: usize = 24;

fn arb_point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(0.0..DOMAIN), rng.gen_range(0.0..DOMAIN))
}

fn arb_segment(rng: &mut StdRng) -> Segment {
    Segment::new(arb_point(rng), arb_point(rng))
}

fn arb_trajectory(rng: &mut StdRng, id: u64, max_len: usize) -> Trajectory {
    let len = rng.gen_range(1..max_len);
    Trajectory::new(id, (0..len).map(|i| Sample::new(arb_point(rng), i as i64 * 30)).collect())
}

fn arb_dataset(rng: &mut StdRng, max_trajs: usize, max_len: usize) -> Dataset {
    let n = rng.gen_range(1..max_trajs);
    let ts = (0..n).map(|i| arb_trajectory(rng, i as u64, max_len)).collect();
    Dataset::new(Rect::new(0.0, 0.0, DOMAIN, DOMAIN), ts)
}

/// Every index variant returns exactly the linear-scan KNN distances.
#[test]
fn all_indexes_agree_with_linear() {
    let mut rng = StdRng::seed_from_u64(0xA11);
    for case in 0..CASES {
        let segs: Vec<Segment> =
            (0..rng.gen_range(1..120)).map(|_| arb_segment(&mut rng)).collect();
        let q = arb_point(&mut rng);
        let k = rng.gen_range(1usize..12);
        let entries: Vec<SegmentEntry> =
            segs.iter().enumerate().map(|(i, &s)| SegmentEntry::new(i as u64, s)).collect();
        let domain = Rect::new(0.0, 0.0, DOMAIN, DOMAIN);
        let lin = LinearScan::from_entries(entries.clone());
        let expected: Vec<f64> = lin.knn_with_stats(&q, k, None).0.iter().map(|n| n.dist).collect();

        let ug = UniformGrid::from_entries(domain, 64, entries.clone());
        let got: Vec<f64> = ug.knn_with_stats(&q, k, None).0.iter().map(|n| n.dist).collect();
        assert_eq!(got.len(), expected.len(), "case {case}");
        for (a, b) in got.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-9, "case {case}: UG disagrees: {a} vs {b}");
        }

        let hg = HierGrid::from_entries(domain, 256, entries);
        for s in [SearchStrategy::TopDown, SearchStrategy::BottomUp, SearchStrategy::BottomUpDown] {
            let got: Vec<f64> =
                hg.knn_with_stats(&q, k, s, None).0.iter().map(|n| n.dist).collect();
            assert_eq!(got.len(), expected.len(), "case {case}");
            for (a, b) in got.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-9, "case {case}: {s:?} disagrees: {a} vs {b}");
            }
        }
    }
}

/// Anonymization never loses or reorders objects, never exceeds the
/// budget, and keeps timestamps monotone.
#[test]
fn anonymize_structural_invariants() {
    let mut rng = StdRng::seed_from_u64(0xA12);
    for case in 0..CASES {
        let ds = arb_dataset(&mut rng, 8, 20);
        let seed = rng.gen_range(0u64..1000);
        let cfg = FreqDpConfig { m: 3, seed, ..Default::default() };
        for model in [Model::PureGlobal, Model::PureLocal, Model::Combined] {
            let out = anonymize(&ds, model, &cfg).expect("valid config");
            assert_eq!(out.dataset.len(), ds.len(), "case {case} {model:?}");
            for (a, b) in out.dataset.trajectories.iter().zip(&ds.trajectories) {
                assert_eq!(a.id, b.id, "case {case} {model:?}");
                assert!(
                    a.samples.windows(2).all(|w| w[0].t <= w[1].t),
                    "case {case} {model:?}: timestamps must stay sorted"
                );
            }
            assert!(out.epsilon_spent <= cfg.eps_global + cfg.eps_local + 1e-9);
            assert!(out.utility_loss().is_finite());
        }
    }
}

/// The local plan is always realized exactly: for every planned point
/// the output PF equals the perturbed target.
#[test]
fn local_plan_realized() {
    let mut rng = StdRng::seed_from_u64(0xA13);
    for case in 0..CASES {
        let ds = arb_dataset(&mut rng, 5, 16);
        let seed = rng.gen_range(0u64..1000);
        let cfg = FreqDpConfig { m: 2, seed, ..Default::default() };
        let out = anonymize(&ds, Model::PureLocal, &cfg).expect("valid config");
        let report = out.local.as_ref().expect("local ran");
        for (slot, plan) in report.plans.iter().enumerate() {
            for &(p, _, f_star) in &plan.entries {
                assert_eq!(
                    out.dataset.trajectories[slot].count_point(p),
                    f_star as usize,
                    "case {case} slot {slot}"
                );
            }
        }
    }
}

/// Codec roundtrip is lossless for arbitrary datasets.
#[test]
fn codec_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xA14);
    for case in 0..CASES {
        let ds = arb_dataset(&mut rng, 6, 24);
        let decoded = decode_dataset(encode_dataset(&ds)).expect("roundtrip");
        assert_eq!(decoded, ds, "case {case}");
    }
}

/// Recovery metrics stay within their mathematical bounds.
#[test]
fn recovery_metric_bounds() {
    let mut rng = StdRng::seed_from_u64(0xA15);
    for case in 0..CASES {
        let a = arb_trajectory(&mut rng, 0, 20);
        let b = arb_trajectory(&mut rng, 0, 20);
        let m = recovery_metrics_single(&a, &b, 25.0);
        assert!((0.0..=1.0).contains(&m.precision), "case {case}");
        assert!((0.0..=1.0).contains(&m.recall), "case {case}");
        assert!((0.0..=1.0).contains(&m.f_score), "case {case}");
        assert!((0.0..=1.0).contains(&m.accuracy), "case {case}");
        assert!(m.rmf >= 0.0 && m.rmf.is_finite(), "case {case}");
    }
}

/// TF realization: PureGlobal's reported targets always hold in the
/// output dataset.
#[test]
fn global_tf_realized() {
    let mut rng = StdRng::seed_from_u64(0xA16);
    for case in 0..CASES {
        let ds = arb_dataset(&mut rng, 6, 16);
        let seed = rng.gen_range(0u64..1000);
        let cfg = FreqDpConfig { m: 2, seed, ..Default::default() };
        let out = anonymize(&ds, Model::PureGlobal, &cfg).expect("valid config");
        let report = out.global.as_ref().expect("global ran");
        for (p, &(_, target)) in &report.tf_changes {
            assert_eq!(
                out.dataset.trajectory_frequency(*p) as u64,
                target,
                "case {case} point {p:?}"
            );
        }
    }
}
