//! # trajdp-model
//!
//! Core data model shared by every crate in the workspace: planar points,
//! timestamped samples, trajectories, datasets, geometric primitives
//! (point–segment and point–rectangle distances used by the utility-loss
//! definitions of the paper), uniform grid coordinates, compact binary
//! serialization, and dataset statistics.
//!
//! The paper (Jin et al., ICDE 2022) defines a trajectory as a
//! chronologically ordered sequence of spatial points (Definition 4), with
//! each moving object owning exactly one trajectory. Utility loss of edit
//! operations is measured with the point–segment distance of Equation (3).
//! All of those primitives live here.
//!
//! Coordinates are planar metres within a configurable [`Rect`] domain.
//! The synthetic generator snaps points to road-network nodes so repeated
//! visits to a location produce bit-identical coordinates; [`PointKey`]
//! provides the hashable identity of a location, and [`LocationTable`]
//! numbers a dataset's distinct locations densely for frequency
//! counting.

#![forbid(unsafe_code)]

pub mod codec;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod geo;
pub mod geometry;
pub mod grid;
pub mod locations;
pub mod stats;
pub mod trajectory;

pub use dataset::Dataset;
pub use error::ModelError;
pub use geometry::{Point, PointKey, Rect, Segment};
pub use grid::{CellId, GridLevel};
pub use locations::LocationTable;
pub use trajectory::{Sample, TrajId, Trajectory};
