//! The stencil kernel engine — this reproduction's stand-in for Intel YASK.
//!
//! YASK turns a stencil specification into an optimised kernel with a fixed
//! loop structure: the domain is cut into *blocks* (cache blocking), blocks
//! are visited by OpenMP threads, and inside a block the traversal runs
//! x-innermost over vector-folded bricks. Optionally, *wavefront temporal
//! blocking* sweeps several time steps through the domain in one pass.
//! This crate reimplements that structure with three interchangeable
//! execution backends:
//!
//! * **native** ([`SweepRequest::prepare`] / [`SweepRequest::prepare_wavefront`],
//!   then [`PreparedSweep::run`] / [`PreparedChain::run`]; or in one call
//!   [`SweepRequest::apply`], [`SweepRequest::run_wavefront`]):
//!   really runs the kernel on the host through a specialisation ladder —
//!   the explicitly vectorised folded tier, the scalar row rung, the
//!   row-vectorised register program of a non-linear expression (the
//!   tape tier), or the layout-agnostic generic path —
//!   and reports which tier executed; used for host measurements and as
//!   the correctness oracle's subject. A [`PreparedChain`] runs a
//!   sequence of prepared sweeps over a pool of grids as one pass, skewed
//!   in z and tiled in y, when every sweep runs the row kernel, and op by
//!   op otherwise: a wavefront is a chain of equal sweeps, an ODE step a
//!   chain of its stage sweeps.
//! * **simulated** ([`PreparedSweep::simulate`], [`PreparedChain::simulate`]):
//!   the second sink of the same preparation — same checks, same kernel
//!   plan, same tiled decision — walks the *same* iteration order but
//!   issues the touched cache lines to [`yasksite_memsim::MemHierarchy`]
//!   in a [`SimContext`], producing the "measured" numbers for the
//!   paper's Cascade Lake and Rome configurations.
//! * **codegen** ([`codegen`]): emits the C kernel source YASK would
//!   generate for the configuration, for inspection and generation-cost
//!   accounting.
//!
//! # Examples
//!
//! ```
//! use yasksite_engine::{SweepRequest, Tier, TierPolicy, TuningParams};
//! use yasksite_grid::{Fold, Grid3};
//! use yasksite_stencil::builders::heat3d;
//!
//! let s = heat3d(1);
//! let mut u = Grid3::new("u", [32, 32, 32], [1, 1, 1], Fold::new(8, 1, 1));
//! u.fill_with(|i, j, k| (i + j + k) as f64);
//! let mut out = Grid3::new("out", [32, 32, 32], [1, 1, 1], Fold::new(8, 1, 1));
//! let params = TuningParams::new([32, 8, 8], Fold::new(8, 1, 1));
//! let report = SweepRequest::new(&params)
//!     .tier(TierPolicy::Auto)
//!     .apply(&s, &[&u], &mut out)?;
//! assert!(report.seconds >= 0.0);
//! assert_eq!(report.tier, Tier::Folded);
//! # Ok::<(), yasksite_engine::EngineError>(())
//! ```

// Unsafe is denied crate-wide; the single exception is the worker pool's
// lifetime erasure of scoped jobs (see `pool.rs` for the allow and the
// documented soundness argument).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod codegen;
mod compile;
mod error;
mod fold_tier;
mod native;
mod params;
mod pool;
mod profile;
mod simulate;
mod sweep;
mod walk;
mod wavefront;

pub use codegen::{codegen, CodegenOutput};
pub use compile::CompiledStencil;
pub use error::EngineError;
pub use native::PreparedSweep;
pub use params::TuningParams;
pub use pool::{ExecPool, PoolStats, ScopedJob};
pub use profile::{IntervalStats, PhaseStat, PoolWindow, ProfileReport, SweepProfiler};
pub use simulate::{SimContext, SimulatedRun};
pub use sweep::{
    plan_kernel, Kernel, PlannedKernel, SweepReport, SweepRequest, Tier, TierPolicy, FORCE_TIER_ENV,
};
pub use wavefront::{chain_runs_tiled, ChainLevel, PreparedChain};
