//! Index shoot-out: the same K-nearest-segment workload on every index
//! variant the paper compares (Figure 5), with work counters showing
//! why the hierarchical grid wins.
//!
//! ```text
//! cargo run --release --example index_comparison
//! ```

use std::time::Instant;
use traj_freq_dp::index::{HierGrid, LinearScan, SearchStats, SegmentEntry, Strategy, UniformGrid};
use traj_freq_dp::model::{Point, Segment};
use traj_freq_dp::synth::{generate, GeneratorConfig};

fn main() {
    let world = generate(&GeneratorConfig::tdrive_profile(200, 150, 42));
    // Flatten every trajectory segment into one dataset-wide entry list.
    let mut entries: Vec<SegmentEntry> = Vec::new();
    let mut id = 0u64;
    for t in &world.dataset.trajectories {
        for (_, seg) in t.segments() {
            entries.push(SegmentEntry::new(id, seg));
            id += 1;
        }
    }
    println!("indexing {} segments\n", entries.len());
    let domain = world.dataset.domain;

    let queries: Vec<Point> = world
        .dataset
        .trajectories
        .iter()
        .step_by(4)
        .filter_map(|t| t.samples.get(t.len() / 2))
        .map(|s| Point::new(s.loc.x + 137.0, s.loc.y - 95.0))
        .collect();
    println!("{} KNN queries (k = 8)\n", queries.len());

    let linear = LinearScan::from_entries(entries.clone());
    let uniform = UniformGrid::from_entries(domain, 512, entries.clone());
    let hier = HierGrid::from_entries(domain, 512, entries);

    let report = |name: &str, f: &dyn Fn(&Point) -> (Vec<_>, SearchStats)| {
        let start = Instant::now();
        let mut checked = 0usize;
        let mut checksum = 0.0f64;
        for q in &queries {
            let (res, stats) = f(q);
            checked += stats.segments_checked;
            checksum += res.first().map(|n: &traj_freq_dp::index::Neighbor| n.dist).unwrap_or(0.0);
        }
        println!(
            "{name:<8} {:>9.2} ms   {:>9} segment distances   (checksum {checksum:.1})",
            start.elapsed().as_secs_f64() * 1e3,
            checked
        );
    };

    report("Linear", &|q| linear.knn_with_stats(q, 8, None));
    report("UG", &|q| uniform.knn_with_stats(q, 8, None));
    report("HGt", &|q| hier.knn_with_stats(q, 8, Strategy::TopDown, None));
    report("HGb", &|q| hier.knn_with_stats(q, 8, Strategy::BottomUp, None));
    report("HG+", &|q| hier.knn_with_stats(q, 8, Strategy::BottomUpDown, None));

    // All variants are exact — verify they agree on the nearest result.
    let q = queries[0];
    let d0 = linear.knn_with_stats(&q, 1, None).0[0].dist;
    let nearest = [
        ("UG", uniform.knn_with_stats(&q, 1, None).0[0].dist),
        ("HG+", hier.knn_with_stats(&q, 1, Strategy::BottomUpDown, None).0[0].dist),
    ];
    for (name, d) in nearest {
        assert!((d - d0).abs() < 1e-9, "{name} disagrees with linear scan");
    }
    println!("\nall index variants returned identical nearest neighbours ✓");
    let _ = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
}
