//! # traj-freq-dp
//!
//! A Rust implementation of **"Frequency-based Randomization for
//! Guaranteeing Differential Privacy in Spatial Trajectories"**
//! (Jin, Hua, Ruan, Zhou — ICDE 2022), together with every substrate the
//! paper's evaluation depends on: a synthetic T-Drive-style data
//! generator, the hierarchical grid index with bottom-up-down search,
//! seven baseline anonymization models, re-identification and
//! map-matching recovery attacks, and the full metric suite.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `trajdp-model` | points, trajectories, datasets, geometry |
//! | [`synth`] | `trajdp-synth` | road network + taxi-agent generator |
//! | [`mech`] | `trajdp-mech` | Laplace mechanisms, budget accounting |
//! | [`index`] | `trajdp-index` | hierarchical grid, KNN search strategies |
//! | [`core`] | `trajdp-core` | signatures, global/local mechanisms, the sharded pipeline |
//! | [`baselines`] | `trajdp-baselines` | SC, RSC, W4M, GLOVE, KLT, DPT, AdaTrace |
//! | [`attacks`] | `trajdp-attacks` | linking attack, HMM map-matching recovery |
//! | [`metrics`] | `trajdp-metrics` | MI, INF, DE, TE, FFP, recovery metrics |
//! | [`server`] | `trajdp-server` | JSON-lines service around `core::anonymize` |
//!
//! ## Quickstart
//!
//! ```
//! use traj_freq_dp::core::{anonymize, FreqDpConfig, Model};
//! use traj_freq_dp::synth::{generate, GeneratorConfig};
//!
//! // Generate a small synthetic taxi dataset.
//! let world = generate(&GeneratorConfig {
//!     num_trajectories: 25,
//!     points_per_trajectory: 60,
//!     ..Default::default()
//! });
//!
//! // Publish it with ε = 1.0 differential privacy (ε_G = ε_L = 0.5).
//! let cfg = FreqDpConfig::default();
//! let out = anonymize(&world.dataset, Model::Combined, &cfg).unwrap();
//! assert_eq!(out.epsilon_spent, 1.0);
//! assert_eq!(out.dataset.len(), world.dataset.len());
//! ```

#![forbid(unsafe_code)]

pub use trajdp_attacks as attacks;
pub use trajdp_baselines as baselines;
pub use trajdp_core as core;
pub use trajdp_index as index;
pub use trajdp_mech as mech;
pub use trajdp_metrics as metrics;
pub use trajdp_model as model;
pub use trajdp_server as server;
pub use trajdp_synth as synth;
