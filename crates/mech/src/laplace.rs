//! The Laplace distribution and the (generalized) Laplace mechanism.
//!
//! The classical mechanism adds `Lap(0, ∆φ/ε)` noise to a query answer.
//! The paper's local mechanism (Algorithm 2) deliberately shifts the mean
//! — `Lap(−f_k, 1/ε_L)` in stage 1 and `Lap(−µ̄, 1/ε_L)` in stage 2 — to
//! bias noise towards *reducing* signature frequencies. Theorem 2 shows
//! the privacy guarantee only depends on the scale, so any mean is
//! admissible; this module implements both.

use rand::Rng;
use std::fmt;

/// Errors raised when constructing a mechanism with invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MechError {
    /// Scale (and hence ε or sensitivity) must be strictly positive.
    NonPositiveScale {
        /// The offending scale value.
        scale: f64,
    },
    /// Privacy budget must be strictly positive, and small enough above
    /// zero that the noise scale `∆φ/ε` stays finite.
    NonPositiveEpsilon {
        /// The offending ε value.
        epsilon: f64,
    },
}

impl fmt::Display for MechError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MechError::NonPositiveScale { scale } => {
                write!(f, "Laplace scale must be positive, got {scale}")
            }
            MechError::NonPositiveEpsilon { epsilon } => {
                write!(
                    f,
                    "privacy budget must be positive with a finite noise scale, got {epsilon:?}"
                )
            }
        }
    }
}

impl std::error::Error for MechError {}

/// A Laplace distribution `Lap(µ, λ)` with density
/// `f(x) = exp(−|x − µ|/λ) / (2λ)`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use trajdp_mech::Laplace;
///
/// // The paper's stage-1 distribution: centred at −f so the sampled
/// // noise usually cancels the original frequency f.
/// let f = 12.0;
/// let d = Laplace::new(-f, 2.0).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let noisy = f + d.sample(&mut rng);
/// assert!(noisy.abs() < 20.0); // concentrated near zero
/// assert!((d.cdf(-f) - 0.5).abs() < 1e-12); // median at µ
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    mu: f64,
    scale: f64,
}

impl Laplace {
    /// Creates a distribution; the scale must be strictly positive and
    /// both parameters finite.
    pub fn new(mu: f64, scale: f64) -> Result<Self, MechError> {
        if scale <= 0.0 || !scale.is_finite() || !mu.is_finite() {
            return Err(MechError::NonPositiveScale { scale });
        }
        Ok(Self { mu, scale })
    }

    /// The mean µ.
    #[inline]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The scale λ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Draws one sample by inverse-CDF: with `u ~ U(−½, ½)`,
    /// `x = µ − λ·sgn(u)·ln(1 − 2|u|)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Guard against u = ±0.5 producing ln(0) = −∞.
        let u: f64 = loop {
            let u = rng.gen::<f64>() - 0.5;
            if u.abs() < 0.5 {
                break u;
            }
        };
        self.mu - self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        (-(x - self.mu).abs() / self.scale).exp() / (2.0 * self.scale)
    }

    /// Cumulative distribution at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.scale;
        if z < 0.0 {
            0.5 * z.exp()
        } else {
            1.0 - 0.5 * (-z).exp()
        }
    }

    /// Variance, `2λ²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }
}

/// An ε-differentially-private Laplace mechanism for queries of known
/// L1 sensitivity.
///
/// `randomize` implements the classical zero-mean release;
/// `randomize_shifted` implements the paper's generalized release with an
/// arbitrary mean shift (Theorem 2), used by the local PF mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    epsilon: f64,
    sensitivity: f64,
}

impl LaplaceMechanism {
    /// Creates a mechanism with privacy budget `epsilon` for a query of
    /// the given L1 `sensitivity`. An ε so close to zero that the noise
    /// scale `sensitivity/ε` overflows is rejected like a non-positive
    /// one: no finite Laplace distribution could release it.
    pub fn new(epsilon: f64, sensitivity: f64) -> Result<Self, MechError> {
        if sensitivity <= 0.0 || !sensitivity.is_finite() {
            return Err(MechError::NonPositiveScale { scale: sensitivity });
        }
        if epsilon <= 0.0 || !epsilon.is_finite() || !(sensitivity / epsilon).is_finite() {
            return Err(MechError::NonPositiveEpsilon { epsilon });
        }
        Ok(Self { epsilon, sensitivity })
    }

    /// The privacy budget ε of each release.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The noise scale `λ = ∆φ/ε`.
    #[inline]
    pub fn noise_scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// Classical release: `value + Lap(0, ∆φ/ε)`.
    pub fn randomize<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        let d = Laplace::new(0.0, self.noise_scale()).expect("validated at construction");
        value + d.sample(rng)
    }

    /// Generalized release with a mean shift: `value + Lap(shift, ∆φ/ε)`.
    ///
    /// With `shift = −value` (stage 1 of Algorithm 2) the noisy frequency
    /// is centred on zero, i.e. the signature point's occurrences are
    /// suppressed with high probability while ε-DP is preserved.
    pub fn randomize_shifted<R: Rng + ?Sized>(&self, value: f64, shift: f64, rng: &mut R) -> f64 {
        let d = Laplace::new(shift, self.noise_scale()).expect("validated at construction");
        value + d.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Laplace::new(0.0, 0.0).is_err());
        assert!(Laplace::new(0.0, -1.0).is_err());
        assert!(Laplace::new(f64::NAN, 1.0).is_err());
        assert!(Laplace::new(0.0, f64::INFINITY).is_err());
        assert!(LaplaceMechanism::new(0.0, 1.0).is_err());
        assert!(LaplaceMechanism::new(-1.0, 1.0).is_err());
        assert!(LaplaceMechanism::new(1.0, 0.0).is_err());
        assert!(LaplaceMechanism::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn rejects_epsilon_whose_noise_scale_overflows() {
        // 1e-320 is a positive (subnormal) f64, but 1/1e-320 is +inf:
        // the mechanism must refuse it instead of panicking on release.
        for epsilon in [1e-320, 5e-324, 1e-309] {
            assert_eq!(
                LaplaceMechanism::new(epsilon, 1.0),
                Err(MechError::NonPositiveEpsilon { epsilon }),
                "{epsilon:e}"
            );
        }
        assert!(LaplaceMechanism::new(1e-300, 1.0).unwrap().noise_scale().is_finite());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d = Laplace::new(2.0, 1.5).unwrap();
        // Trapezoidal integration over a wide support.
        let (lo, hi, n) = (-40.0, 44.0, 200_000);
        let h = (hi - lo) / n as f64;
        let mut sum = 0.0;
        for i in 0..=n {
            let x = lo + h * i as f64;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            sum += w * d.pdf(x);
        }
        assert!((sum * h - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cdf_is_monotone_and_consistent_with_pdf() {
        let d = Laplace::new(-1.0, 0.7).unwrap();
        assert!((d.cdf(-1.0) - 0.5).abs() < 1e-12);
        let mut prev = 0.0;
        for i in 0..200 {
            let x = -10.0 + i as f64 * 0.1;
            let c = d.cdf(x);
            assert!(c >= prev, "CDF must be monotone");
            prev = c;
        }
        // Numerical derivative of the CDF ≈ PDF.
        let eps = 1e-6;
        for x in [-3.0, -1.0, 0.0, 2.5] {
            let deriv = (d.cdf(x + eps) - d.cdf(x - eps)) / (2.0 * eps);
            assert!((deriv - d.pdf(x)).abs() < 1e-5, "pdf/cdf mismatch at {x}");
        }
    }

    #[test]
    fn sample_mean_and_variance_converge() {
        let mut rng = StdRng::seed_from_u64(42);
        let d = Laplace::new(3.0, 2.0).unwrap();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean} far from 3.0");
        assert!((var - d.variance()).abs() < 0.3, "variance {var} far from {}", d.variance());
    }

    #[test]
    fn sample_median_is_mu() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = Laplace::new(-5.0, 1.0).unwrap();
        let n = 100_000;
        let below = (0..n).filter(|_| d.sample(&mut rng) < -5.0).count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "median fraction {frac}");
    }

    #[test]
    fn negative_mean_biases_noise_negative() {
        // Stage-1 rationale: Lap(−f, λ) makes noise ≤ −? negative with
        // probability > 1/2 so frequencies shrink.
        let mut rng = StdRng::seed_from_u64(11);
        let d = Laplace::new(-4.0, 1.0).unwrap();
        let n = 50_000;
        let negative = (0..n).filter(|_| d.sample(&mut rng) < 0.0).count();
        assert!(negative as f64 / n as f64 > 0.9);
    }

    /// Analytic check of the ε-DP bound (Theorem 2): for adjacent counts
    /// `c`, `c'` with |c − c'| ≤ ∆φ and any output `z`, the density ratio
    /// of the *shifted* mechanism is at most `exp(ε)`.
    #[test]
    fn density_ratio_bound_holds_for_nonzero_mean() {
        let eps = 0.8;
        let sensitivity = 1.0;
        let scale = sensitivity / eps;
        for shift in [-10.0, -3.0, 0.0, 2.0] {
            for (c, c_adj) in [(5.0, 6.0), (5.0, 4.0), (0.0, 1.0)] {
                // Output density of mechanism on input c at point z is
                // Lap(c + shift, scale).pdf(z).
                let da = Laplace::new(c + shift, scale).unwrap();
                let db = Laplace::new(c_adj + shift, scale).unwrap();
                for i in -100..=100 {
                    let z = i as f64 * 0.25;
                    let ratio = da.pdf(z) / db.pdf(z);
                    assert!(
                        ratio <= (eps * (c - c_adj).abs() / sensitivity).exp() + 1e-9,
                        "ratio {ratio} exceeds bound at z={z}, shift={shift}"
                    );
                }
            }
        }
    }

    #[test]
    fn mechanism_noise_scale() {
        let m = LaplaceMechanism::new(0.5, 1.0).unwrap();
        assert_eq!(m.noise_scale(), 2.0);
        assert_eq!(m.epsilon(), 0.5);
    }

    #[test]
    fn randomize_shifted_centres_on_value_plus_shift() {
        let mut rng = StdRng::seed_from_u64(99);
        let m = LaplaceMechanism::new(1.0, 1.0).unwrap();
        let n = 100_000;
        let mean: f64 =
            (0..n).map(|_| m.randomize_shifted(10.0, -10.0, &mut rng)).sum::<f64>() / n as f64;
        // Lap(−10, 1) noise on value 10 centres the output at 0.
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn randomize_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(1234);
        let m = LaplaceMechanism::new(2.0, 1.0).unwrap();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| m.randomize(7.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 7.0).abs() < 0.05);
    }
}
