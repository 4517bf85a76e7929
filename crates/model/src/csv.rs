//! Plain-text (CSV) interchange for trajectory datasets.
//!
//! The format is one sample per line — `traj_id,x,y,t` — with a header
//! line, matching the flat layouts used by public trajectory corpora
//! (T-Drive itself ships as per-taxi CSV files). Samples of a
//! trajectory must be contiguous and chronologically ordered; the
//! domain is recomputed from the data on load.

use crate::dataset::Dataset;
use crate::error::ModelError;
use crate::geometry::Point;
use crate::trajectory::{Sample, TrajId, Trajectory};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Header line written by [`to_csv`] and required by [`from_csv`].
pub const CSV_HEADER: &str = "traj_id,x,y,t";

/// Serializes a dataset to CSV text.
pub fn to_csv(ds: &Dataset) -> String {
    let mut out = String::with_capacity(16 + ds.total_points() * 32);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for t in &ds.trajectories {
        for s in &t.samples {
            write_line(&mut out, t.id, s);
        }
    }
    out
}

/// Appends the CSV line of one sample, newline included.
fn write_line(out: &mut String, id: TrajId, s: &Sample) {
    // `{}` on f64 prints the shortest representation that round-trips,
    // so parsing recovers bit-identical points.
    writeln!(out, "{},{},{},{}", id, s.loc.x, s.loc.y, s.t)
        .expect("writing to a String cannot fail");
}

/// Whether `to_csv(ds) == text`, checked line by line without building
/// the rendered string. When `ds` was parsed from `text`, this says the
/// text is canonical: the parsed dataset renders back to exactly its
/// bytes.
pub fn renders_to(ds: &Dataset, text: &str) -> bool {
    let Some(mut rest) = text.strip_prefix(CSV_HEADER).and_then(|r| r.strip_prefix('\n')) else {
        return false;
    };
    let mut line = String::with_capacity(64);
    for t in &ds.trajectories {
        for s in &t.samples {
            line.clear();
            write_line(&mut line, t.id, s);
            match rest.strip_prefix(line.as_str()) {
                Some(r) => rest = r,
                None => return false,
            }
        }
    }
    rest.is_empty()
}

/// The dataset `from_csv(&to_csv(&ds))` parses back, built without the
/// text: the same trajectories with the domain recomputed from the data.
/// `None` when `ds` does not survive the trip unchanged — an empty
/// trajectory (it renders no line), a repeated id (its blocks merge or
/// are refused), unordered timestamps (refused) or a NaN coordinate
/// (never equal to itself).
pub fn round_trip(ds: Dataset) -> Option<Dataset> {
    let mut ids = HashSet::with_capacity(ds.len());
    let survives = ds.trajectories.iter().all(|t| {
        ids.insert(t.id)
            && !t.samples.is_empty()
            && t.samples.windows(2).all(|w| w[0].t <= w[1].t)
            && t.samples.iter().all(|s| !s.loc.x.is_nan() && !s.loc.y.is_nan())
    });
    survives.then(|| Dataset::from_trajectories(ds.trajectories))
}

/// Parses a dataset from CSV text produced by [`to_csv`] (or any file in
/// the same layout). Empty trajectories are not representable in CSV
/// and therefore do not round-trip.
pub fn from_csv(text: &str) -> Result<Dataset, ModelError> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h.trim() == CSV_HEADER => {}
        Some(h) => return Err(ModelError::Invalid { reason: format!("unexpected header: {h:?}") }),
        None => return Err(ModelError::Truncated { context: "csv header" }),
    }
    let mut trajectories: Vec<Trajectory> = Vec::new();
    let mut current: Option<(TrajId, Vec<Sample>)> = None;
    // Ids whose block has started, so a split block is caught in O(1).
    let mut started: HashSet<TrajId> = HashSet::new();
    for (lineno, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let parse_err = |what: &str| ModelError::Invalid {
            reason: format!("line {}: bad {what}: {line:?}", lineno + 2),
        };
        let id: TrajId = fields
            .next()
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| parse_err("traj_id"))?;
        let x: f64 =
            fields.next().and_then(|v| v.trim().parse().ok()).ok_or_else(|| parse_err("x"))?;
        let y: f64 =
            fields.next().and_then(|v| v.trim().parse().ok()).ok_or_else(|| parse_err("y"))?;
        let t: i64 =
            fields.next().and_then(|v| v.trim().parse().ok()).ok_or_else(|| parse_err("t"))?;
        if fields.next().is_some() {
            return Err(parse_err("field count"));
        }
        let sample = Sample::new(Point::new(x, y), t);
        match &mut current {
            Some((cur_id, samples)) if *cur_id == id => {
                if samples.last().is_some_and(|prev| prev.t > t) {
                    return Err(ModelError::Invalid {
                        reason: format!("trajectory {id} has unordered timestamps"),
                    });
                }
                samples.push(sample);
            }
            _ => {
                if !started.insert(id) {
                    return Err(ModelError::Invalid {
                        reason: format!("trajectory {id} appears in two separate blocks"),
                    });
                }
                if let Some((done_id, samples)) = current.take() {
                    trajectories.push(Trajectory::new(done_id, samples));
                }
                current = Some((id, vec![sample]));
            }
        }
    }
    if let Some((id, samples)) = current {
        trajectories.push(Trajectory::new(id, samples));
    }
    Ok(Dataset::from_trajectories(trajectories))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;

    fn sample_dataset() -> Dataset {
        Dataset::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![
                Trajectory::new(
                    3,
                    vec![
                        Sample::new(Point::new(1.5, 2.5), 10),
                        Sample::new(Point::new(3.25, 4.75), 70),
                    ],
                ),
                Trajectory::new(12, vec![Sample::new(Point::new(-0.5, 99.0), -5)]),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_samples() {
        let ds = sample_dataset();
        let parsed = from_csv(&to_csv(&ds)).unwrap();
        assert_eq!(parsed.trajectories, ds.trajectories);
    }

    #[test]
    fn roundtrip_preserves_float_precision() {
        let ds = Dataset::from_trajectories(vec![Trajectory::new(
            0,
            vec![Sample::new(Point::new(1.0 / 3.0, std::f64::consts::PI), 0)],
        )]);
        let parsed = from_csv(&to_csv(&ds)).unwrap();
        assert_eq!(
            parsed.trajectories[0].samples[0].loc.key(),
            ds.trajectories[0].samples[0].loc.key(),
            "shortest-roundtrip float printing must preserve bits"
        );
    }

    #[test]
    fn rejects_missing_or_wrong_header() {
        assert!(matches!(from_csv(""), Err(ModelError::Truncated { .. })));
        assert!(matches!(from_csv("a,b,c\n"), Err(ModelError::Invalid { .. })));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "traj_id,x,y,t\n1,2.0,3.0\n",     // missing field
            "traj_id,x,y,t\n1,2.0,3.0,4,5\n", // extra field
            "traj_id,x,y,t\nxx,2.0,3.0,4\n",  // bad id
            "traj_id,x,y,t\n1,aa,3.0,4\n",    // bad x
            "traj_id,x,y,t\n1,2.0,3.0,zz\n",  // bad t
        ] {
            assert!(matches!(from_csv(bad), Err(ModelError::Invalid { .. })), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_unordered_timestamps() {
        let text = "traj_id,x,y,t\n1,0.0,0.0,100\n1,1.0,1.0,50\n";
        assert!(matches!(from_csv(text), Err(ModelError::Invalid { .. })));
    }

    #[test]
    fn rejects_split_trajectory_blocks() {
        let text = "traj_id,x,y,t\n1,0.0,0.0,0\n2,1.0,1.0,0\n1,2.0,2.0,5\n";
        let err = from_csv(text).unwrap_err();
        assert!(matches!(err, ModelError::Invalid { .. }));
    }

    #[test]
    fn parse_is_linear_in_trajectory_count() {
        // Parse time must grow linearly in the number of trajectories:
        // 8x the one-sample trajectories may cost at most 24x the time
        // (a quadratic split-block check costs about 64x). The minimum
        // of five runs damps scheduler noise.
        fn best_of_5(n: usize) -> std::time::Duration {
            let mut text = String::from(CSV_HEADER);
            for id in 0..n {
                write!(text, "\n{id},{}.5,{}.25,{id}", id % 997, id % 991).unwrap();
            }
            (0..5)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let ds = from_csv(&text).unwrap();
                    let elapsed = started.elapsed();
                    assert_eq!(ds.len(), n);
                    elapsed
                })
                .min()
                .unwrap()
        }
        let n = 10_000;
        let (small, large) = (best_of_5(n), best_of_5(8 * n));
        let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
        assert!(ratio < 24.0, "t(8n)/t(n) = {ratio:.1} ({small:?} → {large:?})");
    }

    #[test]
    fn renders_to_matches_only_the_exact_rendering() {
        let ds = sample_dataset();
        let text = to_csv(&ds);
        assert!(renders_to(&ds, &text));
        for other in [
            text.replace('\n', "\r\n"),
            text.replace("1.5", "1.50"),
            text.replace("3.25,", " 3.25 ,"),
            format!("{text}\n"),
            text[..text.len() - 1].to_string(),
            text.replace("traj_id", "id"),
        ] {
            assert!(!renders_to(&ds, &other), "{other:?}");
            // Each variant parses to the same samples: only the bytes differ.
            if !other.starts_with("id") {
                assert_eq!(from_csv(&other).unwrap().trajectories, ds.trajectories);
            }
        }
    }

    #[test]
    fn round_trip_equals_the_parse_of_the_rendering() {
        let traj = |id, samples: &[(f64, i64)]| {
            let samples = samples.iter().map(|&(x, t)| Sample::new(Point::new(x, -x), t)).collect();
            Trajectory::new(id, samples)
        };
        let cases = [
            sample_dataset(),
            Dataset::from_trajectories(vec![traj(7, &[(0.1 + 0.2, 1), (-0.0, 2)])]),
            Dataset::new(Rect::new(0.0, 0.0, 1.0, 1.0), vec![]),
            Dataset::new(Rect::new(0.0, 0.0, 1.0, 1.0), vec![traj(1, &[(f64::INFINITY, 3)])]),
        ];
        for ds in cases {
            let parsed = from_csv(&to_csv(&ds)).unwrap();
            assert_eq!(round_trip(ds).unwrap(), parsed);
        }
        // Built by hand: `Trajectory::new` debug-asserts the order.
        let unordered = Trajectory {
            id: 2,
            samples: vec![
                Sample::new(Point::new(0.0, 0.0), 9),
                Sample::new(Point::new(1.0, 1.0), 1),
            ],
        };
        for ds in [
            Dataset::from_trajectories(vec![traj(1, &[(1.0, 0)]), traj(2, &[])]),
            Dataset::from_trajectories(vec![traj(1, &[(1.0, 0)]), traj(1, &[(2.0, 1)])]),
            Dataset::from_trajectories(vec![traj(1, &[(f64::NAN, 0)])]),
            Dataset::from_trajectories(vec![unordered]),
        ] {
            let reparsed = from_csv(&to_csv(&ds)).ok();
            assert_ne!(reparsed.as_ref(), Some(&ds), "{ds:?} does round-trip");
            assert_eq!(round_trip(ds), None);
        }
    }

    #[test]
    fn tolerates_blank_lines_and_whitespace() {
        let text = "traj_id,x,y,t\n\n 1 , 0.0 , 0.0 , 0 \n\n1,1.0,1.0,5\n";
        let ds = from_csv(text).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.trajectories[0].len(), 2);
    }
}
