//! # trajdp-core
//!
//! The paper's primary contribution: **frequency-based randomization for
//! ε-differentially-private trajectory publishing** (Jin et al., ICDE
//! 2022).
//!
//! Instead of geometrically distorting every sample, the model perturbs
//! the frequency distributions of a small set of *signature points* —
//! locations that are representative (high point frequency, PF) and
//! distinctive (low trajectory frequency, TF) for an individual:
//!
//! * [`freq`] — PF/TF statistics, signature weights, top-`m` signature
//!   extraction, and the candidate set `P` (§III-B1).
//! * [`global`] — Algorithm 1: Laplace perturbation of the global TF
//!   distribution over `P` with budget ε_G, followed by inter-trajectory
//!   modification (Definition 7).
//! * [`local`] — Algorithm 2: the two-stage non-zero-mean Laplace
//!   perturbation of each trajectory's PF distribution with budget ε_L,
//!   followed by intra-trajectory modification (Definition 9).
//! * [`editor`] — trajectory/dataset editors that apply the edit
//!   operations of §IV-A with exact utility-loss accounting while
//!   keeping a spatial index incrementally up to date.
//! * [`pipeline`] — the published models: `PureG`, `PureL`, and the
//!   composed `GL` with ε = ε_G + ε_L (Theorem 1).
//! * [`pool`] — the scoped-thread chunked worker pool behind the
//!   deterministic parallelism of the per-trajectory local mechanism,
//!   driven by `FreqDpConfig::workers`. The global mechanism (TF
//!   perturbation and `GlobalEdit`) runs serially.
//!
//! ```
//! use trajdp_core::pipeline::{anonymize, Model};
//! use trajdp_core::FreqDpConfig;
//! use trajdp_synth::{generate, GeneratorConfig};
//!
//! let world = generate(&GeneratorConfig {
//!     num_trajectories: 20,
//!     points_per_trajectory: 60,
//!     ..Default::default()
//! });
//! let cfg = FreqDpConfig { m: 5, eps_global: 0.5, eps_local: 0.5, ..Default::default() };
//! let out = anonymize(&world.dataset, Model::Combined, &cfg).unwrap();
//! assert_eq!(out.dataset.len(), world.dataset.len());
//! ```

#![forbid(unsafe_code)]

pub mod editor;
pub mod freq;
pub mod global;
pub mod indexkind;
pub mod local;
pub mod pipeline;
pub mod pool;
pub mod stream;

pub use freq::{FrequencyAnalysis, SignatureEntry};
pub use indexkind::IndexKind;
pub use pipeline::{anonymize, total_budget, AnonymizedOutput, FreqDpConfig, Model};
pub use stream::{stream_rng, stream_seed, PHASE_GLOBAL, PHASE_LOCAL};
