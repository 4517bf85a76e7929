//! Compact binary encoding of datasets.
//!
//! Anonymized datasets are the publication artifact of this system; the
//! codec gives them a stable on-disk format: a fixed header, the domain
//! rectangle, then length-prefixed trajectories of `(x: f64, y: f64,
//! t: i64)` samples, all little-endian.

use crate::dataset::Dataset;
use crate::error::ModelError;
use crate::geometry::{Point, Rect};
use crate::trajectory::{Sample, Trajectory};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic number identifying a serialized dataset (`"TDP1"`).
pub const MAGIC: u32 = 0x5444_5031;

/// Serializes a dataset into a compact little-endian buffer.
pub fn encode_dataset(ds: &Dataset) -> Bytes {
    let mut buf = BytesMut::with_capacity(32 + ds.total_points() * 24);
    buf.put_u32_le(MAGIC);
    buf.put_f64_le(ds.domain.min_x);
    buf.put_f64_le(ds.domain.min_y);
    buf.put_f64_le(ds.domain.max_x);
    buf.put_f64_le(ds.domain.max_y);
    buf.put_u64_le(ds.trajectories.len() as u64);
    for t in &ds.trajectories {
        buf.put_u64_le(t.id);
        buf.put_u64_le(t.samples.len() as u64);
        for s in &t.samples {
            buf.put_f64_le(s.loc.x);
            buf.put_f64_le(s.loc.y);
            buf.put_i64_le(s.t);
        }
    }
    buf.freeze()
}

/// Deserializes a dataset previously produced by [`encode_dataset`].
pub fn decode_dataset(mut buf: impl Buf) -> Result<Dataset, ModelError> {
    if buf.remaining() < 4 {
        return Err(ModelError::Truncated { context: "header" });
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(ModelError::BadHeader { expected: MAGIC, found: magic });
    }
    if buf.remaining() < 32 + 8 {
        return Err(ModelError::Truncated { context: "domain" });
    }
    let domain = Rect::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
    let n = buf.get_u64_le() as usize;
    // The count is untrusted: every trajectory needs a 16-byte header,
    // so a larger count is truncated input, never an allocation.
    if n > buf.remaining() / 16 {
        return Err(ModelError::Truncated { context: "trajectory header" });
    }
    let mut trajectories = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.remaining() < 16 {
            return Err(ModelError::Truncated { context: "trajectory header" });
        }
        let id = buf.get_u64_le();
        let len = buf.get_u64_le() as usize;
        if buf.remaining() < len.saturating_mul(24) {
            return Err(ModelError::Truncated { context: "samples" });
        }
        let mut samples = Vec::with_capacity(len);
        for _ in 0..len {
            let x = buf.get_f64_le();
            let y = buf.get_f64_le();
            let t = buf.get_i64_le();
            samples.push(Sample::new(Point::new(x, y), t));
        }
        if samples.windows(2).any(|w| w[0].t > w[1].t) {
            return Err(ModelError::Invalid {
                reason: format!("trajectory {id} has unordered timestamps"),
            });
        }
        trajectories.push(Trajectory::new(id, samples));
    }
    Ok(Dataset::new(domain, trajectories))
}

#[cfg(test)]
mod tests {
    use super::*;

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
                Trajectory::new(9, vec![]),
                Trajectory::new(12, vec![Sample::new(Point::new(-0.5, 99.0), -5)]),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = sample_dataset();
        let encoded = encode_dataset(&ds);
        let decoded = decode_dataset(encoded).unwrap();
        assert_eq!(decoded, ds);
    }

    #[test]
    fn roundtrip_empty_dataset() {
        let ds = Dataset::new(Rect::new(0.0, 0.0, 1.0, 1.0), vec![]);
        assert_eq!(decode_dataset(encode_dataset(&ds)).unwrap(), ds);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode_dataset(&sample_dataset()).to_vec();
        raw[0] ^= 0xFF;
        let err = decode_dataset(&raw[..]).unwrap_err();
        assert!(matches!(err, ModelError::BadHeader { .. }));
    }

    #[test]
    fn rejects_truncation_at_every_prefix_boundary() {
        let raw = encode_dataset(&sample_dataset()).to_vec();
        for cut in [0, 3, 4, 20, 44, 52, 60, raw.len() - 1] {
            let err = decode_dataset(&raw[..cut]).unwrap_err();
            assert!(
                matches!(err, ModelError::Truncated { .. } | ModelError::BadHeader { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn huge_trajectory_count_is_truncation_not_a_panic() {
        // A bare 44-byte header claiming u64::MAX trajectories used to
        // reserve that many up front and abort with "capacity overflow".
        let mut raw = encode_dataset(&Dataset::new(Rect::new(0.0, 0.0, 1.0, 1.0), vec![])).to_vec();
        assert_eq!(raw.len(), 44);
        raw[36..44].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_dataset(&raw[..]).unwrap_err();
        assert!(matches!(err, ModelError::Truncated { .. }), "{err:?}");
        // One claimed trajectory too many for the bytes that follow.
        let mut raw = encode_dataset(&sample_dataset()).to_vec();
        raw[36..44].copy_from_slice(&4u64.to_le_bytes());
        let err = decode_dataset(&raw[..]).unwrap_err();
        assert!(matches!(err, ModelError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn rejects_unordered_timestamps() {
        // Hand-build a buffer with decreasing timestamps.
        let ds = Dataset::new(
            Rect::new(0.0, 0.0, 1.0, 1.0),
            vec![Trajectory {
                id: 1,
                samples: vec![
                    Sample::new(Point::new(0.0, 0.0), 100),
                    Sample::new(Point::new(0.5, 0.5), 50),
                ],
            }],
        );
        let err = decode_dataset(encode_dataset(&ds)).unwrap_err();
        assert!(matches!(err, ModelError::Invalid { .. }));
    }
}
