//! Offsite — the offline autotuner for explicit ODE methods, reproduced.
//!
//! Offsite explores the cross product of *method* × *implementation
//! variant* × *tuning parameters* for a given IVP and machine, using
//! performance predictions instead of exhaustive benchmarking. In the
//! paper, YaskSite supplies those predictions through its ECM model; this
//! crate reproduces the integration:
//!
//! 1. a method step is compiled to a [`yasksite_ode::StepPlan`];
//! 2. every sweep in the plan is predicted by the `yasksite` tool layer
//!    ([`predict_plan_cached`]), after YaskSite's analytic tuner has chosen the
//!    block/fold parameters for the dominant kernel — and, when the step's
//!    grid pool overflows the last-level cache, a step run as one tiled
//!    pass over its ops with an L2-sized tile height
//!    ([`chain_tile_height`]);
//! 3. candidates are ranked by predicted step time; the winner (and, for
//!    validation, every candidate) can then be *measured* on the
//!    simulated target hierarchy ([`measure_plan`]);
//! 4. reports quantify prediction error, ranking quality, speedup over a
//!    naive baseline, and tuning cost ([`Offsite::evaluate_with`]).
//!
//! # Examples
//!
//! ```
//! use offsite::{MethodSpec, Offsite};
//! use yasksite::{TrialConfig, TuneRequest};
//! use yasksite_arch::Machine;
//! use yasksite_ode::ivps::Heat2d;
//!
//! let offsite = Offsite::new(Machine::cascade_lake(), 2);
//! let ivp = Heat2d::new(64);
//! let methods = [MethodSpec::erk(yasksite_ode::Tableau::heun2())];
//! let req = TuneRequest::default().trial(TrialConfig::single_shot());
//! let report = offsite.evaluate_with(&ivp, &methods, 1e-5, &req).unwrap();
//! assert!(!report.candidates.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod method;
mod plan_perf;
mod tuner;

pub use method::MethodSpec;
pub use plan_perf::{
    chain_tile_bytes, chain_tile_height, measure_plan, predict_plan_cached, PlanBackend,
    PlanMeasurement, PlanPrediction,
};
pub use tuner::{CandidateReport, EvalReport, Offsite, WorkPrecisionEntry};
