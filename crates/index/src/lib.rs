//! # trajdp-index
//!
//! Spatial indexing for K-nearest trajectory-segment search (§IV-C of the
//! paper), the engine behind efficient trajectory modification.
//!
//! Three index families are provided, matching the paper's efficiency
//! comparison (Figure 5):
//!
//! * [`LinearScan`] — the naive baseline that checks every segment.
//! * [`UniformGrid`] — a single-level grid (default 512×512) searched by
//!   expanding rings around the query cell.
//! * [`HierGrid`] — the paper's hierarchical grid: nested power-of-two
//!   levels, each segment stored in its *best-fit* cell (Definition 11:
//!   the finest cell containing both endpoints), searched top-down
//!   (`HGt`), bottom-up (`HGb`), or with the novel bottom-up-down
//!   strategy of Algorithm 3 (`HG+`).
//!
//! All searches return exact K-nearest results; the strategies differ
//! only in pruning power, which [`SearchStats`] exposes for the
//! efficiency experiments.
//!
//! Every backend's `knn_with_stats` takes an optional [`GroupFn`]. Without
//! one it returns the K nearest segments. With one it returns the K
//! nearest *groups*: the function names the groups each entry stands
//! for — none to leave it out, several for a geometry many groups share
//! (the core crate's dataset editor indexes each distinct segment
//! geometry once and names the trajectories that drive it) — and each
//! result is its group's nearest entry, in ascending `(distance, group)`
//! order. An entry's distance is computed once, however many groups it
//! stands for. Each search is the same single branch-and-bound pass
//! (Roussopoulos et al., SIGMOD 1995) in both modes: the pruning bound
//! is the K-th kept distance, and nothing at that distance is pruned, so
//! ties go to the smallest group exactly.

#![forbid(unsafe_code)]

pub mod entry;
mod fx;
pub mod hier;
pub mod linear;
pub mod uniform;

pub use entry::{GroupFn, Neighbor, SearchStats, SegmentEntry, TotalF64};
pub use hier::{HierGrid, Strategy};
pub use linear::LinearScan;
pub use uniform::UniformGrid;
