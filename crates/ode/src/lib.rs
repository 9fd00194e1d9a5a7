//! Explicit ODE methods over stencil right-hand sides.
//!
//! The paper's application layer: explicit Runge–Kutta methods and
//! parallel iterated Runge–Kutta (PIRK) predictor–corrector schemes,
//! applied to initial value problems whose right-hand side is a stencil
//! (semi-discretised PDEs and the inverter-chain circuit model). One time
//! step of a method compiles into a [`StepPlan`] — an ordered list of
//! stencil sweeps over a pool of logical grids — in one of several
//! *implementation variants* (Offsite's search dimension):
//!
//! * [`Variant::A`] keeps stage-value construction and right-hand-side
//!   evaluation as separate sweeps (most sweeps, most traffic);
//! * [`Variant::D`] fuses each stage's linear combination into its RHS
//!   sweep (fewer, wider sweeps);
//! * [`Variant::E`] additionally fuses the final update into the last
//!   stage (fewest sweeps).
//!
//! All variants are algebraically identical; they differ only in memory
//! traffic and sweep count — exactly the property the YaskSite/Offsite
//! pipeline exploits, because a [`StepPlan`]'s ops can each be predicted
//! by the ECM model or simulated on the cache hierarchy.
//!
//! The [`Integrator`] runs a plan's ops one after another, or — with
//! `params.wavefront > 1` and every op on the engine's linear row kernel —
//! as one pass tiled in y and skewed in z, so each stage reads the
//! earlier stages out of cache (`yasksite_engine::PreparedChain`). Both
//! leave the same bits.
//!
//! # Examples
//!
//! ```
//! use yasksite_ode::{erk_plan, ivps::Heat2d, Tableau, Variant};
//!
//! let ivp = Heat2d::new(32);
//! let plan = erk_plan(&Tableau::rk4(), &ivp, 1e-4, Variant::D);
//! assert_eq!(plan.ops.len(), 5); // 4 fused stages + final update
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ivps;
mod plan;
mod stepper;
mod tableau;
mod variants;

pub use ivps::Ivp;
pub use plan::{compose_rhs, lincomb_stencil, StepOp, StepPlan};
pub use stepper::{default_params, prepare_step, temporal_order, Integrator, OdeError};
pub use tableau::Tableau;
pub use variants::{erk_plan, pirk_plan, Variant};
