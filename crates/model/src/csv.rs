//! Plain-text (CSV) interchange for trajectory datasets.
//!
//! The format is one sample per line — `traj_id,x,y,t` — with a header
//! line, matching the flat layouts used by public trajectory corpora
//! (T-Drive itself ships as per-taxi CSV files). Samples of a
//! trajectory must be contiguous and chronologically ordered; the
//! domain is recomputed from the data on load.

use crate::dataset::Dataset;
use crate::error::ModelError;
use crate::geometry::{Point, PointKey};
use crate::trajectory::{Sample, TrajId, Trajectory};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::ops::Range;

/// Header line written by [`to_csv`] and required by [`from_csv`].
pub const CSV_HEADER: &str = "traj_id,x,y,t";

/// Serializes a dataset to CSV text.
///
/// The bytes are [`CSV_HEADER`] and a newline, then one line
/// `"{id},{x},{y},{t}\n"` per sample in dataset order, each field in
/// std's `{}` formatting — shortest round-trip for the `f64`
/// coordinates, so parsing recovers bit-identical points. An empty
/// trajectory renders no line.
///
/// Each distinct `(x, y)` bit pattern is formatted once per render, and
/// a trajectory's `"{id},"` once per trajectory: later occurrences copy
/// the bytes the first one wrote. That is exact because `{}` on an
/// `f64` is a pure function of its bits. The paper's mechanisms count
/// and copy exact locations, so a release repeats its input's locations
/// and most samples take the copy. A render whose new locations
/// outnumber its repeats by 1024 stops remembering them and formats the
/// rest directly, so input without repeats costs what it did before.
pub fn to_csv(ds: &Dataset) -> String {
    let mut out = String::with_capacity(16 + ds.total_points() * 32);
    out.push_str(CSV_HEADER);
    out.push('\n');
    write_lines(ds, &mut out);
    out
}

/// Whether `to_csv(ds) == text`, checked without building the rendered
/// string. When `ds` was parsed from `text`, this says the text is
/// canonical: the parsed dataset renders back to exactly its bytes.
///
/// It runs [`to_csv`]'s line writer against the text. A location's
/// first occurrence is formatted and compared; a repeat compares the
/// text with itself, at the range where the first occurrence matched,
/// which holds exactly the bytes [`to_csv`] would copy.
pub fn renders_to(ds: &Dataset, text: &str) -> bool {
    let Some(rest) = text.strip_prefix(CSV_HEADER).and_then(|r| r.strip_prefix('\n')) else {
        return false;
    };
    let mut check = Check { text, pos: text.len() - rest.len(), scratch: String::new() };
    write_lines(ds, &mut check) && check.pos == text.len()
}

/// Where the line writer puts its pieces: appended to the string
/// [`to_csv`] builds, or matched next against the text [`renders_to`]
/// checks. Ranges are byte offsets into that string or text.
trait Lines {
    /// Puts the `{}` rendering of `args`, returning the range it
    /// occupies; `None` when the text does not continue with it.
    fn put(&mut self, args: fmt::Arguments<'_>) -> Option<Range<usize>>;
    /// Puts a copy of the earlier `range`; `false` when the text does
    /// not continue with it.
    fn copy(&mut self, range: Range<usize>) -> bool;
}

impl Lines for String {
    fn put(&mut self, args: fmt::Arguments<'_>) -> Option<Range<usize>> {
        let start = self.len();
        self.write_fmt(args).expect("writing to a String cannot fail");
        Some(start..self.len())
    }

    fn copy(&mut self, range: Range<usize>) -> bool {
        self.extend_from_within(range);
        true
    }
}

/// [`renders_to`]'s side of [`Lines`]: `pos` is how far `text` has
/// matched; `scratch` holds one formatted piece at a time.
struct Check<'a> {
    text: &'a str,
    pos: usize,
    scratch: String,
}

/// Consumes the next `piece.len()` bytes of `text` after `pos` if they
/// equal `piece`, returning their range.
fn take(text: &str, pos: &mut usize, piece: &[u8]) -> Option<Range<usize>> {
    let range = *pos..*pos + piece.len();
    (text.as_bytes().get(range.clone()) == Some(piece)).then(|| {
        *pos = range.end;
        range
    })
}

impl Lines for Check<'_> {
    fn put(&mut self, args: fmt::Arguments<'_>) -> Option<Range<usize>> {
        self.scratch.clear();
        self.scratch.write_fmt(args).expect("writing to a String cannot fail");
        take(self.text, &mut self.pos, self.scratch.as_bytes())
    }

    fn copy(&mut self, range: Range<usize>) -> bool {
        let earlier = self.text.as_bytes().get(range);
        earlier.and_then(|earlier| take(self.text, &mut self.pos, earlier)).is_some()
    }
}

/// The one line writer behind [`to_csv`] and [`renders_to`]: puts the
/// lines of every sample, `false` as soon as a piece does not match.
fn write_lines(ds: &Dataset, out: &mut impl Lines) -> bool {
    let mut memo = LocationMemo::new();
    for t in &ds.trajectories {
        // The range of `"{id},"` on the trajectory's first line.
        let mut prefix: Option<Range<usize>> = None;
        for s in &t.samples {
            let id_put = match &prefix {
                Some(range) => out.copy(range.clone()),
                None => {
                    prefix = out.put(format_args!("{},", t.id));
                    prefix.is_some()
                }
            };
            if !(id_put && memo.put(s.loc, out) && out.put(format_args!(",{}\n", s.t)).is_some()) {
                return false;
            }
        }
    }
    true
}

/// Net misses (new locations less repeats) after which a render stops
/// remembering locations: input that does not repeat its locations
/// pays at most this many map inserts before formatting directly.
const MEMO_GIVE_UP: usize = 1024;

/// Where each distinct location's `"{x},{y}"` was first put during one
/// render. Once misses exceed hits by [`MEMO_GIVE_UP`] the map is
/// dropped and the rest of the render formats every location. Keys are
/// client-chosen coordinates, so the map keeps std's SipHash.
struct LocationMemo {
    seen: Option<HashMap<PointKey, Range<usize>>>,
    hits: usize,
    misses: usize,
}

impl LocationMemo {
    fn new() -> LocationMemo {
        LocationMemo { seen: Some(HashMap::new()), hits: 0, misses: 0 }
    }

    /// Puts `"{x},{y}"` of `loc`, copying an earlier rendering of the
    /// same bits when there is one.
    fn put(&mut self, loc: Point, out: &mut impl Lines) -> bool {
        let Some(seen) = &mut self.seen else {
            return out.put(format_args!("{},{}", loc.x, loc.y)).is_some();
        };
        match seen.entry(loc.key()) {
            Entry::Occupied(first) => {
                self.hits += 1;
                return out.copy(first.get().clone());
            }
            Entry::Vacant(slot) => {
                let Some(range) = out.put(format_args!("{},{}", loc.x, loc.y)) else {
                    return false;
                };
                slot.insert(range);
            }
        }
        self.misses += 1;
        if self.misses > self.hits + MEMO_GIVE_UP {
            self.seen = None;
        }
        true
    }
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference renderer: every field of every line formatted with
    /// std's `{}`, no memo. [`to_csv`] must equal it byte for byte.
    fn reference_to_csv(ds: &Dataset) -> String {
        let mut out = format!("{CSV_HEADER}\n");
        for t in &ds.trajectories {
            for s in &t.samples {
                writeln!(out, "{},{},{},{}", t.id, s.loc.x, s.loc.y, s.t).unwrap();
            }
        }
        out
    }

    /// Coordinates whose formatting has a special form: NaN, signed
    /// zeros and infinities, subnormals, the extremes, and values with
    /// long or exponent-form shortest renderings.
    const EDGE_COORDS: [f64; 15] = [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        0.1 + 0.2,
        1e21,
        1e-7,
        -123456789.125,
    ];

    /// `trajs` trajectories of up to `max_len` samples each, at random
    /// ids (`u64::MAX` among them), with locations drawn from `pool`, or
    /// fresh random coordinates when `pool` is empty.
    fn seeded(rng: &mut StdRng, trajs: usize, max_len: usize, pool: &[Point]) -> Dataset {
        let mut ids = HashSet::new();
        let trajectories = (0..trajs)
            .map(|i| {
                let id = loop {
                    let id =
                        if i == 0 { u64::MAX } else { rng.gen::<u64>() >> rng.gen_range(0..64) };
                    if ids.insert(id) {
                        break id;
                    }
                };
                let mut t = rng.gen_range(-1000..1000i64);
                let samples = (0..rng.gen_range(1..=max_len))
                    .map(|_| {
                        t += rng.gen_range(0..100i64);
                        let loc = if pool.is_empty() {
                            Point::new(rng.gen_range(-1e6..1e6), rng.gen_range(-1e6..1e6))
                        } else {
                            pool[rng.gen_range(0..pool.len())]
                        };
                        Sample::new(loc, t)
                    })
                    .collect();
                Trajectory::new(id, samples)
            })
            .collect();
        Dataset::from_trajectories(trajectories)
    }

    /// A dataset built from the edge coordinates, each as x and as y
    /// beside three others and repeated, with the extreme timestamps,
    /// the extreme ids and empty trajectories.
    fn edge_dataset() -> Dataset {
        let n = EDGE_COORDS.len();
        let mut trajectories = vec![Trajectory::new(0, vec![])];
        for i in 0..n {
            let samples = [0, 1, 2, 0]
                .iter()
                .zip([i64::MIN, -1, i64::MAX, i64::MAX])
                .map(|(&j, t)| Sample::new(Point::new(EDGE_COORDS[i], EDGE_COORDS[(i + j) % n]), t))
                .collect();
            trajectories.push(Trajectory::new(i as u64 + 1, samples));
        }
        trajectories.push(Trajectory::new(u64::MAX, vec![Sample::new(Point::new(-0.0, 0.0), 0)]));
        trajectories.push(Trajectory::new(u64::MAX - 1, vec![]));
        Dataset::new(Rect::new(0.0, 0.0, 1.0, 1.0), trajectories)
    }

    #[test]
    fn render_equals_the_reference_writer() {
        let mut rng = StdRng::seed_from_u64(0xc5f);
        let pool: Vec<Point> =
            (0..40).map(|_| Point::new(rng.gen_range(0.0..1e5), rng.gen_range(0.0..1e5))).collect();
        let mut cases = vec![sample_dataset(), edge_dataset()];
        for _ in 0..8 {
            // Locations repeated across trajectories of different ids.
            cases.push(seeded(&mut rng, 30, 60, &pool));
            // All distinct: the memo gives up after MEMO_GIVE_UP misses.
            cases.push(seeded(&mut rng, 30, 200, &[]));
        }
        // Gives up part-way: repeats first, then a run of new
        // locations, then the early locations again.
        let mut partway = seeded(&mut rng, 10, 300, &pool[..3]);
        partway.trajectories.extend(seeded(&mut rng, 40, 300, &[]).trajectories);
        partway.trajectories.extend(seeded(&mut rng, 10, 300, &pool[..3]).trajectories);
        cases.push(partway);
        for ds in &cases {
            assert_eq!(to_csv(ds), reference_to_csv(ds));
        }
    }

    #[test]
    fn memo_gives_up_only_once_misses_outrun_hits() {
        let loc = |i: usize| Point::new(i as f64 + 0.5, -(i as f64));
        let (mut out, mut expected) = (String::new(), String::new());
        let mut memo = LocationMemo::new();
        let mut put = |memo: &mut LocationMemo, i: usize| {
            assert!(memo.put(loc(i), &mut out));
            write!(expected, "{},{}", loc(i).x, loc(i).y).unwrap();
        };
        // 5 misses, 2995 hits: the next 4014 new locations keep the
        // memo (misses = hits + MEMO_GIVE_UP), the 4015th drops it.
        for i in 0..3000 {
            put(&mut memo, i % 5);
        }
        for i in 0..4014 {
            put(&mut memo, 10 + i);
        }
        assert!(memo.seen.is_some());
        put(&mut memo, 5000);
        assert!(memo.seen.is_none());
        for i in 0..100 {
            put(&mut memo, i % 7);
        }
        assert_eq!(out, expected);

        // Repeat-free input gives up after MEMO_GIVE_UP + 1 locations.
        let mut memo = LocationMemo::new();
        let mut out = String::new();
        for i in 0..=MEMO_GIVE_UP {
            assert!(memo.seen.is_some());
            memo.put(loc(i), &mut out);
        }
        assert!(memo.seen.is_none());
    }

    #[test]
    fn renders_to_agrees_with_comparing_the_rendering() {
        let mut rng = StdRng::seed_from_u64(0x7e57);
        let pool: Vec<Point> =
            (0..6).map(|i| Point::new(f64::from(i) * 1.25, 100.0 - f64::from(i))).collect();
        let cases = [seeded(&mut rng, 12, 20, &pool), edge_dataset(), seeded(&mut rng, 8, 20, &[])];
        let (mut matched, mut refused) = (0, 0);
        for ds in &cases {
            let canonical = reference_to_csv(ds);
            for _ in 0..2_000 {
                let mut text = canonical.clone().into_bytes();
                for _ in 0..rng.gen_range(0..3usize) {
                    mutate(&mut rng, &mut text);
                }
                let text = String::from_utf8_lossy(&text);
                let expected = canonical == text;
                assert_eq!(renders_to(ds, &text), expected, "{text:?}");
                if expected {
                    matched += 1;
                } else {
                    refused += 1;
                }
            }
        }
        assert!(matched > 300 && refused > 3_000, "matched {matched}, refused {refused}");
    }

    /// One random edit of a CSV text: a byte flip, a truncation, a
    /// dropped, duplicated or swapped line, a CRLF line end or a padded
    /// field.
    fn mutate(rng: &mut StdRng, text: &mut Vec<u8>) {
        const BYTES: &[u8] = b"0123456789-+.,eE \n\rNaIfx";
        let at_each = |text: &[u8], byte: u8| -> Vec<usize> {
            text.iter().enumerate().filter(|&(_, &b)| b == byte).map(|(i, _)| i).collect()
        };
        let mut starts = vec![0];
        starts.extend(at_each(text, b'\n').into_iter().map(|i| i + 1));
        let len = text.len();
        let line_at = |rng: &mut StdRng| {
            let i = rng.gen_range(0..starts.len());
            starts[i]..starts.get(i + 1).copied().unwrap_or(len)
        };
        match rng.gen_range(0..7u32) {
            0 if len > 0 => text[rng.gen_range(0..len)] = BYTES[rng.gen_range(0..BYTES.len())],
            1 => text.truncate(rng.gen_range(0..=len)),
            2 => {
                text.drain(line_at(rng));
            }
            3 => {
                let line = line_at(rng);
                let copy = text[line.clone()].to_vec();
                text.splice(line.start..line.start, copy);
            }
            4 => {
                let (a, b) = (line_at(rng), line_at(rng));
                if a.end <= b.start {
                    let (first, second) = (text[a.clone()].to_vec(), text[b.clone()].to_vec());
                    text.splice(b, first);
                    text.splice(a, second);
                }
            }
            op => {
                // A CRLF line end, or a space padding a field.
                let sites = at_each(text, if op == 5 { b'\n' } else { b',' });
                if !sites.is_empty() {
                    let at = sites[rng.gen_range(0..sites.len())] + rng.gen_range(0..2usize);
                    text.insert(at.min(text.len()), if op == 5 { b'\r' } else { b' ' });
                }
            }
        }
    }

    #[test]
    fn fuzzed_texts_parse_or_fail_cleanly() {
        // Whatever a mutated canonical text holds, `from_csv` returns
        // without panicking, and what it accepts renders and re-parses
        // to itself — unless it holds a NaN, which `round_trip` names.
        let mut rng = StdRng::seed_from_u64(0xf022);
        let pool: Vec<Point> = (0..8).map(|i| Point::new(f64::from(i) / 3.0, -2.5)).collect();
        let mut cases = vec![sample_dataset(), edge_dataset()];
        cases.push(seeded(&mut rng, 6, 12, &pool));
        cases.push(seeded(&mut rng, 6, 12, &[]));
        let texts: Vec<String> = cases.iter().map(to_csv).collect();
        let (mut parsed, mut refused) = (0, 0);
        for _ in 0..5_000 {
            let mut text = texts[rng.gen_range(0..texts.len())].clone().into_bytes();
            for _ in 0..rng.gen_range(1..4usize) {
                mutate(&mut rng, &mut text);
            }
            let text = String::from_utf8_lossy(&text);
            let Ok(ds) = from_csv(&text) else {
                refused += 1;
                continue;
            };
            parsed += 1;
            let rendered = to_csv(&ds);
            assert!(renders_to(&ds, &rendered));
            match round_trip(ds.clone()) {
                Some(again) => {
                    assert_eq!(again, ds);
                    assert_eq!(from_csv(&rendered).as_ref(), Ok(&ds), "{text:?}");
                }
                None => assert!(
                    ds.trajectories
                        .iter()
                        .flat_map(|t| &t.samples)
                        .any(|s| s.loc.x.is_nan() || s.loc.y.is_nan()),
                    "{text:?}"
                ),
            }
        }
        assert!(parsed > 1_000 && refused > 1_000, "parsed {parsed}, refused {refused}");
    }

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
