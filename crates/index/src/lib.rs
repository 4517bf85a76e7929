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

#![forbid(unsafe_code)]

pub mod entry;
mod fx;
pub mod hier;
pub mod linear;
pub mod uniform;

pub use entry::{Neighbor, SearchStats, SegmentEntry, TotalF64};
pub use hier::{HierGrid, Strategy};
pub use linear::LinearScan;
pub use uniform::UniformGrid;

use trajdp_model::Point;

/// Common interface of every K-nearest segment index.
pub trait SegmentIndex {
    /// The `k` segments nearest to `q` (by point–segment distance),
    /// sorted by ascending distance. Fewer than `k` results are returned
    /// when the index holds fewer segments.
    fn knn(&self, q: &Point, k: usize) -> Vec<Neighbor>;

    /// Like [`SegmentIndex::knn`] but only counting segments whose payload
    /// id satisfies `filter`.
    fn knn_filtered(&self, q: &Point, k: usize, filter: &dyn Fn(u64) -> bool) -> Vec<Neighbor>;

    /// Number of segments currently indexed.
    fn len(&self) -> usize;

    /// Whether the index holds no segments.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
