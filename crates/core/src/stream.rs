//! Deterministic per-unit RNG stream derivation.
//!
//! The pipeline's randomness is split into independent streams, one per
//! *smallest parallelizable unit* — one stream per candidate point for
//! the global TF perturbation, one per trajectory for the local PF
//! mechanism. Each stream seed is derived from `(root seed, phase tag,
//! unit index)` with a SplitMix64-style mixer, so:
//!
//! * every `FreqDpConfig::workers` value draws **identical noise**,
//!   regardless of how units are grouped into shards or interleaved
//!   across threads, and
//! * the two phases of a combined model never share a stream even when
//!   they process the same unit index.
//!
//! These streams are the only randomness [`crate::anonymize`] draws,
//! which is what makes its release bit-identical at every worker count.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Phase tag for the global TF mechanism (one stream per candidate
/// point, indexed by position in the sorted candidate order).
pub const PHASE_GLOBAL: u64 = 0x6774_665F;

/// Phase tag for the local PF mechanism (one stream per trajectory,
/// indexed by dataset slot).
pub const PHASE_LOCAL: u64 = 0x6C70_665F;

/// Derives the seed of stream `unit` within `phase` from the root seed.
///
/// SplitMix64 finalizer over an odd-constant combination of the three
/// inputs; changing any input flips each output bit with probability
/// ~1/2, so neighbouring units get uncorrelated streams.
#[inline]
pub fn stream_seed(root: u64, phase: u64, unit: u64) -> u64 {
    let mut z = root
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(phase.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(unit.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generator positioned at the start of stream `(root, phase, unit)`.
#[inline]
pub fn stream_rng(root: u64, phase: u64, unit: u64) -> StdRng {
    // lint: allow(rng-discipline): this is the sanctioned per-unit constructor every other site must call
    StdRng::seed_from_u64(stream_seed(root, phase, unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic() {
        assert_eq!(stream_seed(1, PHASE_LOCAL, 5), stream_seed(1, PHASE_LOCAL, 5));
        let mut a = stream_rng(1, PHASE_LOCAL, 5);
        let mut b = stream_rng(1, PHASE_LOCAL, 5);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn streams_differ_across_inputs() {
        let base = stream_seed(42, PHASE_GLOBAL, 0);
        assert_ne!(base, stream_seed(43, PHASE_GLOBAL, 0), "root must matter");
        assert_ne!(base, stream_seed(42, PHASE_LOCAL, 0), "phase must matter");
        assert_ne!(base, stream_seed(42, PHASE_GLOBAL, 1), "unit must matter");
    }

    #[test]
    fn no_collisions_over_many_units() {
        let mut seen = std::collections::HashSet::new();
        for root in 0..8u64 {
            for phase in [PHASE_GLOBAL, PHASE_LOCAL] {
                for unit in 0..1000u64 {
                    assert!(
                        seen.insert(stream_seed(root, phase, unit)),
                        "collision at ({root}, {phase:#x}, {unit})"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbouring_units_decorrelated() {
        // Crude avalanche check: adjacent unit indices should differ in
        // roughly half their seed bits.
        let mut total = 0u32;
        let n = 256;
        for unit in 0..n {
            let a = stream_seed(7, PHASE_LOCAL, unit);
            let b = stream_seed(7, PHASE_LOCAL, unit + 1);
            total += (a ^ b).count_ones();
        }
        let mean = total as f64 / n as f64;
        assert!((24.0..40.0).contains(&mean), "mean flipped bits {mean}");
    }
}
