//! The eight invariant checks. Each exposes a pure `check_source`/
//! `check_sources`-style function (so the fixture tests can drive it on
//! literal sources) and a `run` entry point that walks the relevant
//! part of the workspace. `unsafe_audit`, `determinism`,
//! `rng_discipline` and `drift` are token scans; `lock_io`,
//! `lock_order`, `panic_path` and `reactor_blocking` consume the
//! [`crate::model`] dataflow layer. Every check that honours pragmas
//! reports its own unused ones after its pass.

pub mod determinism;
pub mod drift;
pub mod lock_io;
pub mod lock_order;
pub mod panic_path;
pub mod reactor_blocking;
pub mod rng_discipline;
pub mod unsafe_audit;
