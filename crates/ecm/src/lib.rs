//! The Execution–Cache–Memory (ECM) analytic performance model.
//!
//! This is the paper's analytic engine: given a stencil's static analysis,
//! the iteration tile (block) shape, the vector fold and a machine model, it
//! predicts single-core cycles per unit of work and the multi-core scaling
//! curve *without running the kernel*. The model has three parts:
//!
//! 1. **In-core** ([`incore`]): cycles the core needs to execute one cache
//!    line's worth of updates when all data is in L1, split into the
//!    overlapping arithmetic part `T_OL` and the non-overlapping
//!    load/store part `T_nOL`.
//! 2. **Data transfers** ([`traffic`]): cache lines crossing each hierarchy
//!    boundary per unit of work, derived from *layer conditions*
//!    ([`layer`]) — the capacity conditions under which a stencil's
//!    vertical reuse is captured by a given cache level.
//! 3. **Composition + scaling**: on Intel-style cores the data terms
//!    serialise (`T_ECM = max(T_OL, T_nOL + ΣT_data)`); multi-core
//!    performance scales linearly until the saturated memory bandwidth is
//!    hit.
//!
//! A classic Roofline model ([`roofline`]) is included as the baseline the
//! paper compares against.
//!
//! # Examples
//!
//! ```
//! use yasksite_arch::Machine;
//! use yasksite_ecm::{EcmModel, KernelDesc};
//! use yasksite_grid::Fold;
//! use yasksite_stencil::builders::heat3d;
//!
//! let machine = Machine::cascade_lake();
//! let stencil = heat3d(1);
//! let desc = KernelDesc::new(&stencil, [512, 512, 512])
//!     .tile([512, 8, 8])
//!     .fold(Fold::new(8, 1, 1));
//! let p = EcmModel::new(&machine).predict(&desc);
//! assert!(p.mlups(1) > 100.0);
//! assert!(p.sat_cores <= machine.cores_per_socket);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
pub mod incore;
pub mod layer;
pub mod roofline;
pub mod traffic;

mod model;

pub use drift::{drift_fraction, DriftStats, DRIFT_SUSPECT_THRESHOLD};
pub use incore::{InCore, Issue};
pub use layer::{LayerStatus, LcReport};
pub use model::{EcmModel, EcmPrediction, KernelDesc, OverlapPolicy};
pub use roofline::roofline_mlups;
pub use traffic::{traffic_pessimistic, traffic_resident, TrafficModel};
