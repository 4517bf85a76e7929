//! # trajdp-mech
//!
//! Differential-privacy machinery used by the frequency-based
//! randomization model:
//!
//! * [`laplace`] — the Laplace distribution with arbitrary mean, sampled
//!   by inverse-CDF, including the paper's *non-trivial* non-zero-mean
//!   variant (Theorem 2 proves it still yields ε-DP when the scale is
//!   `∆φ/ε`).
//! * [`post`] — the post-processing operations the algorithms apply to
//!   noisy frequencies (integer rounding, clamping to `[0, |D|]`), which
//!   are DP-invariant.

#![forbid(unsafe_code)]

pub mod laplace;
pub mod post;

pub use laplace::{Laplace, LaplaceMechanism, MechError};
pub use post::{round_count, round_to_range};
