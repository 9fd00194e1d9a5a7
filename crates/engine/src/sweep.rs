//! The unified execution API: [`SweepRequest`] / [`SweepReport`].
//!
//! Every native run is constructed through one builder — the engine's
//! counterpart of `TuneRequest` — and returns a [`SweepReport`] that
//! records not just the timing but *which tier actually executed and
//! why*. One planner picks the kernel of every sweep, each level of a
//! wavefront included; a wavefront runs as one tiled pass when that
//! kernel is the linear row kernel, and op by op otherwise
//! ([`crate::chain_runs_tiled`]):
//!
//! ```
//! use yasksite_engine::{SweepRequest, Tier, TierPolicy, TuningParams};
//! use yasksite_grid::{Fold, Grid3};
//! use yasksite_stencil::builders::heat3d;
//!
//! let s = heat3d(1);
//! let fold = Fold::new(8, 1, 1);
//! let mut u = Grid3::new("u", [32, 32, 32], [1, 1, 1], fold);
//! u.fill_with(|i, j, k| (i + j + k) as f64);
//! let mut out = Grid3::new("out", [32, 32, 32], [1, 1, 1], fold);
//! let params = TuningParams::new([32, 8, 8], fold);
//! let report = SweepRequest::new(&params)
//!     .tier(TierPolicy::Auto)
//!     .apply(&s, &[&u], &mut out)?;
//! assert_eq!(report.tier, Tier::Folded);
//! # Ok::<(), yasksite_engine::EngineError>(())
//! ```

use yasksite_arch::Machine;
use yasksite_ecm::Issue;
use yasksite_grid::Grid3;
use yasksite_stencil::Stencil;

use crate::compile::CompiledStencil;
use crate::error::EngineError;
use crate::native::{GridGeometry, PreparedSweep};
use crate::params::TuningParams;
use crate::pool::ExecPool;
use crate::profile::SweepProfiler;
use crate::wavefront::PreparedChain;

/// Environment variable that overrides the default tier policy
/// (`scalar` or `folded`); see [`TierPolicy::from_env`].
pub const FORCE_TIER_ENV: &str = "YASKSITE_FORCE_TIER";

/// The rung of the specialisation ladder a sweep actually executed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Explicitly vectorised kernels: the linear row kernel on row-major
    /// folds with a supported lane count, or the brick-gather kernel on
    /// multi-dimensional folds. Bitwise identical to every other tier.
    Folded,
    /// The linear row kernel on row-major storage under the scalar
    /// rung's name (forced, or no supported lane count); the folded rung
    /// runs the same kernel.
    Scalar,
    /// The row-vectorised register program for non-linear stencils on
    /// row-major storage: the expression is value-numbered into one
    /// instruction per distinct operation and evaluated a row chunk at a
    /// time, threaded over z-slabs like the linear tiers.
    Tape,
    /// The layout-agnostic per-point path (single-threaded).
    Generic,
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Tier::Folded => "folded",
            Tier::Scalar => "scalar",
            Tier::Tape => "tape",
            Tier::Generic => "generic",
        };
        write!(f, "{s}")
    }
}

/// How the executor chooses between the folded and scalar tiers.
///
/// Forcing a tier never changes results — every tier computes each output
/// point with the identical FP operation order — it only changes which
/// kernel runs. When a forced tier is ineligible for the stencil/layout
/// at hand, the executor degrades down the ladder and records the reason
/// in [`SweepReport::tier_reason`] rather than failing. The tape and
/// generic tiers are selected by stencil/layout alone and are unaffected
/// by the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierPolicy {
    /// Prefer the folded tier whenever the stencil/layout is eligible.
    #[default]
    Auto,
    /// Run linear row-major sweeps on the scalar row rung.
    ForceScalar,
    /// Require the folded tier; degrade with a recorded reason when
    /// ineligible.
    ForceFolded,
}

impl TierPolicy {
    /// Parses a policy name: `auto`, `scalar` or `folded`
    /// (case-insensitive). Returns `None` for anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<TierPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(TierPolicy::Auto),
            "scalar" => Some(TierPolicy::ForceScalar),
            "folded" => Some(TierPolicy::ForceFolded),
            _ => None,
        }
    }

    /// The policy selected by the `YASKSITE_FORCE_TIER` environment
    /// variable, read live: `scalar`/`folded` force the respective tier
    /// for the whole process (the CI forced-tier legs run the entire
    /// suite this way), anything else — including unset — is
    /// [`TierPolicy::Auto`].
    #[must_use]
    pub fn from_env() -> TierPolicy {
        std::env::var(FORCE_TIER_ENV)
            .ok()
            .and_then(|v| TierPolicy::parse(&v))
            .unwrap_or(TierPolicy::Auto)
    }
}

/// `f64` lanes the compiler vectorises plain loops with in this build.
/// The tape tier's instruction loops are ordinary compiled code, so their
/// width is the build's SIMD baseline, whatever the machine's widest ISA.
const BUILD_LANES: usize = if cfg!(target_feature = "avx512f") {
    8
} else if cfg!(target_feature = "avx") {
    4
} else {
    2
};

/// The concrete kernel the planner picks for a sweep — one rung finer
/// than [`Tier`], which it collapses to for reporting. This is what the
/// executors dispatch on and what the performance model and the simulator
/// price ([`Kernel::issue`]): a configuration is credited with the
/// instruction stream that would run it, never with its fold's ideal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The linear row kernel on a row-major fold with this many x-lanes.
    /// The lane count is a layout property (how far rows are padded);
    /// the kernel is the same for every count and for
    /// [`Kernel::ScalarRows`].
    LaneRows(usize),
    /// The linear row kernel under the scalar rung's name.
    ScalarRows,
    /// Folded brick-gather kernel with this many elements per brick: one
    /// table-addressed scalar load and one scalar multiply-add per term
    /// and lane, one vector store per brick.
    BrickGather(usize),
    /// Row-vectorised register program of this many instructions per
    /// point (after value numbering).
    TapeProgram(usize),
    /// Per-point path through the layout-agnostic grid accessors.
    PerPoint,
}

impl Kernel {
    /// The specialisation-ladder rung this kernel reports as.
    #[must_use]
    pub fn tier(self) -> Tier {
        match self {
            Kernel::LaneRows(_) | Kernel::BrickGather(_) => Tier::Folded,
            Kernel::ScalarRows => Tier::Scalar,
            Kernel::TapeProgram(_) => Tier::Tape,
            Kernel::PerPoint => Tier::Generic,
        }
    }

    /// The in-core issue regime this kernel is charged on `machine` —
    /// the one mapping both the analytic predictor and the simulated
    /// backend price a configuration through. Lane and scalar rows are
    /// one vector loop (the linear row kernel, whose `[f64; 8]` point
    /// blocks LLVM vectorises); the brick-gather kernel is charged the
    /// scalar loads and multiply-adds it executes, not the whole-brick
    /// loads of an ideal fold kernel; the tape its register program at
    /// the build's SIMD width; the per-point path scalar issue plus
    /// `Grid3::idx`'s address arithmetic per access.
    #[must_use]
    pub fn issue(self, machine: &Machine) -> Issue {
        match self {
            Kernel::LaneRows(_) | Kernel::ScalarRows => Issue::Vector,
            Kernel::BrickGather(_) => Issue::Scalar,
            Kernel::TapeProgram(instructions) => Issue::Program {
                instructions,
                lanes: BUILD_LANES.min(machine.lanes()),
            },
            Kernel::PerPoint => Issue::PerPoint,
        }
    }

    /// Whether this is the linear row kernel, under either rung's name:
    /// the one kernel a tiled chain runs its tile-planes on.
    #[must_use]
    pub fn runs_rows(self) -> bool {
        matches!(self, Kernel::LaneRows(_) | Kernel::ScalarRows)
    }
}

/// A planner decision: the kernel, why, and whether it is a degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedKernel {
    /// The kernel the sweep runs on.
    pub kernel: Kernel,
    /// Why the planner picked it — in particular, why a fold or a forced
    /// policy was degraded.
    pub reason: &'static str,
    /// Whether the sweep runs *below* the tier its fold or policy asked for.
    pub degraded: bool,
}

impl PlannedKernel {
    /// The tier [`PlannedKernel::kernel`] reports as.
    #[must_use]
    pub fn tier(&self) -> Tier {
        self.kernel.tier()
    }
}

/// Lane counts the folded rungs accept: the brick kernel is
/// monomorphised for them, and the lane-rows rung keeps the same set.
fn lane_count_supported(lanes: usize) -> bool {
    matches!(lanes, 2 | 4 | 8 | 16)
}

/// Row-major linear sweeps: lane rows when the fold's x-lane count is
/// supported and the policy allows it, scalar rows otherwise; both name
/// the linear row kernel.
fn plan_rows(params: &TuningParams, policy: TierPolicy) -> PlannedKernel {
    let lanes = params.fold.x;
    let (kernel, reason, degraded) = match policy {
        TierPolicy::ForceScalar => (Kernel::ScalarRows, "tier forced to scalar", false),
        _ if lane_count_supported(lanes) => (
            Kernel::LaneRows(lanes),
            "row-major fold: folded lane kernel",
            false,
        ),
        TierPolicy::ForceFolded => (
            Kernel::ScalarRows,
            "folded tier forced but fold.x has no supported lane count: scalar row kernels",
            true,
        ),
        TierPolicy::Auto => (
            Kernel::ScalarRows,
            "fold.x has no supported lane count: scalar row kernels",
            true,
        ),
    };
    PlannedKernel {
        kernel,
        reason,
        degraded,
    }
}

/// Picks the kernel for a spatial sweep. `geometry_shared` says whether
/// every input grid shares `alloc`/`halo` with the output (the brick
/// kernel addresses all grids through one gather table, so it needs
/// identical layouts).
pub(crate) fn plan_spatial(
    compiled: &CompiledStencil,
    geometry_shared: bool,
    params: &TuningParams,
    policy: TierPolicy,
) -> PlannedKernel {
    let elems = params.fold.elems();
    let (kernel, reason, degraded) = match (compiled, policy) {
        (CompiledStencil::Tape(tape), _) if params.row_major() => (
            Kernel::TapeProgram(tape.instructions()),
            "non-linear stencil: row-vectorised register program",
            false,
        ),
        (CompiledStencil::Tape(_), _) => (
            Kernel::PerPoint,
            "non-linear stencil on a multi-dimensional fold: per-point generic path",
            true,
        ),
        _ if params.row_major() => return plan_rows(params, policy),
        (_, TierPolicy::ForceScalar) => (
            Kernel::PerPoint,
            "tier forced to scalar but scalar row kernels need a row-major fold: generic path",
            true,
        ),
        _ if lane_count_supported(elems) && geometry_shared => (
            Kernel::BrickGather(elems),
            "multi-dimensional fold: folded brick kernel",
            false,
        ),
        _ => (
            Kernel::PerPoint,
            "multi-dimensional fold ineligible for the brick kernel \
             (unsupported lane count or mismatched grid layouts): generic path",
            true,
        ),
    };
    PlannedKernel {
        kernel,
        reason,
        degraded,
    }
}

/// A-priori kernel query for the tuner and the ECM model: which kernel
/// *would* a sweep of `stencil` under `params` run on under
/// `policy`, assuming identically laid-out grids (as
/// `Solution::allocate_grids` produces)? Every sweep, each level of a
/// wavefront included, is planned by the one planner the executors
/// call, on one lowering of the stencil; a wavefront runs tiled exactly
/// when that plan is the row kernel ([`crate::chain_runs_tiled`]).
///
/// Execution may still degrade (and [`SweepReport::tier`] records the
/// truth) when actual grid layouts differ.
#[must_use]
pub fn plan_kernel(stencil: &Stencil, params: &TuningParams, policy: TierPolicy) -> PlannedKernel {
    plan_spatial(&CompiledStencil::compile(stencil), true, params, policy)
}

/// Builder for one native sweep: spatial (`apply`) or temporally blocked
/// (`run_wavefront`). The single configurable entry point to the native
/// executors.
///
/// Defaults: the process-global [`ExecPool`], no profiler, and the tier
/// policy from [`TierPolicy::from_env`].
#[derive(Clone)]
pub struct SweepRequest<'a> {
    params: TuningParams,
    pool: Option<&'a ExecPool>,
    profiler: Option<&'a SweepProfiler>,
    tier: TierPolicy,
    report_finite: bool,
}

impl<'a> SweepRequest<'a> {
    /// Starts a request from tuning parameters (block, sub-block, fold,
    /// threads, wavefront depth, store policy). The parameters are
    /// copied; later builder calls refine this copy.
    #[must_use]
    pub fn new(params: &TuningParams) -> SweepRequest<'a> {
        SweepRequest {
            params: params.clone(),
            pool: None,
            profiler: None,
            tier: TierPolicy::from_env(),
            report_finite: false,
        }
    }

    /// Runs on `pool` instead of the process-global pool. Results are
    /// bitwise identical for any pool: the work decomposition depends
    /// only on `(domain, params.threads)`.
    #[must_use]
    pub fn pool(mut self, pool: &'a ExecPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches a [`SweepProfiler`]. Profiling reads clocks only around
    /// the kernels, never inside them, so profiled runs stay bitwise
    /// identical.
    #[must_use]
    pub fn profiler(mut self, prof: &'a SweepProfiler) -> Self {
        self.profiler = Some(prof);
        self
    }

    /// Overrides the tier policy (the default comes from
    /// `YASKSITE_FORCE_TIER`). An explicit policy always wins over the
    /// environment.
    #[must_use]
    pub fn tier(mut self, policy: TierPolicy) -> Self {
        self.tier = policy;
        self
    }

    /// Asks the sweep to report whether every value it writes is finite
    /// ([`SweepReport::finite`]). Each kernel scans a row segment or
    /// brick right after producing it, while it is still in L1, so a
    /// caller that must detect divergence (the ODE stepper) needs no
    /// second pass over the output grid. Off by default: a sweep that
    /// does not ask pays nothing, and results never depend on it.
    #[must_use]
    pub fn report_finite(mut self) -> Self {
        self.report_finite = true;
        self
    }

    /// The parameters this request will execute with.
    #[must_use]
    pub fn params(&self) -> &TuningParams {
        &self.params
    }

    fn pool_ref(&self) -> &ExecPool {
        match self.pool {
            Some(pool) => pool,
            None => ExecPool::global(),
        }
    }

    /// Prepares a spatial sweep of `stencil` from `inputs` into `out`:
    /// checks the bindings and parameters, compiles the stencil, plans
    /// the kernel under this request's tier policy and lowers it against
    /// the grids' geometry. The result captures the parameters, the
    /// profiler and [`SweepRequest::report_finite`]; run it with
    /// [`PreparedSweep::run`] on these grids or any of the same geometry,
    /// as often as needed, or replay it with [`PreparedSweep::simulate`].
    ///
    /// ```
    /// use yasksite_engine::{ExecPool, SweepRequest, TuningParams};
    /// use yasksite_grid::{Fold, Grid3};
    /// use yasksite_stencil::builders::heat3d;
    ///
    /// let s = heat3d(1);
    /// let fold = Fold::new(8, 1, 1);
    /// let mut a = Grid3::new("a", [16, 16, 16], [1, 1, 1], fold);
    /// a.fill_with(|i, j, k| (i + j + k) as f64);
    /// let mut b = Grid3::new("b", [16, 16, 16], [1, 1, 1], fold);
    /// let sweep = SweepRequest::new(&TuningParams::new([16, 8, 8], fold))
    ///     .prepare(&s, &[&a], &b)?;
    /// let pool = ExecPool::global();
    /// for _ in 0..4 {
    ///     sweep.run(pool, &[&a], &mut b)?;
    ///     a.swap_data(&mut b).expect("same layout");
    /// }
    /// # Ok::<(), yasksite_engine::EngineError>(())
    /// ```
    ///
    /// # Errors
    /// Returns binding errors (arity/halo/domain) or parameter errors
    /// (fold mismatch, zero extents).
    pub fn prepare(
        &self,
        stencil: &Stencil,
        inputs: &[&Grid3],
        out: &Grid3,
    ) -> Result<PreparedSweep<'a>, EngineError> {
        PreparedSweep::new(
            stencil,
            inputs,
            out,
            &self.params,
            self.profiler,
            self.tier,
            self.report_finite,
        )
    }

    /// Applies `stencil` once over the full domain of `out` with the
    /// blocked YASK loop structure, really executing on the host:
    /// [`SweepRequest::prepare`], then [`PreparedSweep::run`] on this
    /// request's pool.
    ///
    /// # Errors
    /// Returns binding errors (arity/halo/domain) or parameter errors
    /// (fold mismatch, zero extents).
    pub fn apply(
        &self,
        stencil: &Stencil,
        inputs: &[&Grid3],
        out: &mut Grid3,
    ) -> Result<SweepReport, EngineError> {
        self.prepare(stencil, inputs, out)?
            .run(self.pool_ref(), inputs, out)
    }

    /// Prepares `params.wavefront` time steps of `stencil` on the
    /// ping-pong pair `[a, b]` as one [`PreparedChain`]: even levels
    /// sweep from `a` into `b`, odd ones back, each level a sweep
    /// [`SweepRequest::prepare`] prepares (one per direction when the two
    /// grids differ in geometry). Run it with [`PreparedChain::run`] on
    /// this pair or any of the same geometries, or replay it with
    /// [`PreparedChain::simulate`].
    ///
    /// Like any chain, it runs as one tiled pass when its sweeps plan the
    /// linear row kernel ([`crate::chain_runs_tiled`]), and op by op, on
    /// the kernel the planner picks, otherwise; the bits are the same.
    ///
    /// # Errors
    /// Fails for multi-input stencils, binding problems, or invalid
    /// parameters, as [`SweepRequest::prepare`] does.
    pub fn prepare_wavefront(
        &self,
        stencil: &Stencil,
        a: &Grid3,
        b: &Grid3,
    ) -> Result<PreparedChain<'a>, EngineError> {
        if stencil.num_inputs() != 1 {
            return Err(EngineError::Unsupported {
                reason: "wavefront needs a single-input (ping-pong) stencil".into(),
            });
        }
        let mut sweeps = vec![self.prepare(stencil, &[a], b)?];
        if GridGeometry::of(a) != GridGeometry::of(b) {
            sweeps.push(self.prepare(stencil, &[b], a)?);
        }
        PreparedChain::ping_pong(sweeps, self.params.wavefront)
    }

    /// Performs `wavefront` time steps of `stencil` on the ping-pong
    /// pair `(a, b)` in one skewed sweep
    /// ([`SweepRequest::prepare_wavefront`], then [`PreparedChain::run`]
    /// on this request's pool); on return `a` holds the newest time level.
    /// `updates`/`mlups` in the report count all `domain × depth` lattice
    /// updates the sweep performed. Halo values of both buffers are left
    /// untouched (fixed-value boundary), as the plain steppers treat them.
    ///
    /// # Errors
    /// Fails for multi-input stencils, binding problems, or invalid
    /// parameters.
    pub fn run_wavefront(
        &self,
        stencil: &Stencil,
        a: &mut Grid3,
        b: &mut Grid3,
    ) -> Result<SweepReport, EngineError> {
        let chain = self.prepare_wavefront(stencil, a, b)?;
        let report = chain.run(self.pool_ref(), &mut [&mut *a, &mut *b])?;
        if self.params.wavefront % 2 == 1 {
            a.swap_data(b).expect("ping-pong pair has identical layout");
        }
        Ok(report)
    }
}

/// What one [`SweepRequest`] execution did: the timing of the run plus
/// the tier that actually executed and why the planner picked it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepReport {
    /// Wall time of the sweep.
    pub seconds: f64,
    /// Achieved million lattice updates per second (for wavefront runs,
    /// over all fused time steps).
    pub mlups: f64,
    /// Lattice updates performed (`domain × wavefront_depth`).
    pub updates: u64,
    /// Threads that actually received work: the number of non-empty
    /// slabs the sweep was decomposed into, or the widest per-tile-plane
    /// chunk count of a wavefront run (≤ `params.threads`; small domains
    /// produce fewer slabs than requested threads). Row-major layouts
    /// split into z-plane slabs, the folded brick tier into brick-z
    /// slabs.
    ///
    /// The layout-generic path reports `1` deliberately: it walks the
    /// grid through per-point accessors with no contiguous storage
    /// window to hand each worker, so it runs single-threaded and says
    /// so rather than echoing `params.threads` back.
    pub threads_used: usize,
    /// The specialisation-ladder rung that executed.
    pub tier: Tier,
    /// Why the planner picked [`SweepReport::tier`] — in particular,
    /// why a forced tier was degraded.
    pub tier_reason: &'static str,
    /// [`PlannedKernel::degraded`]; read it through [`SweepReport::degraded`].
    pub(crate) degraded: bool,
    /// Time steps fused in this sweep (`1` for spatial sweeps).
    pub wavefront_depth: usize,
    /// Whether every value the sweep wrote is finite — `None` unless the
    /// request asked ([`SweepRequest::report_finite`]). Only written
    /// values count: halo and fold padding of the output are never read.
    /// A wavefront sweep covers every time level it wrote.
    pub finite: Option<bool>,
}

impl SweepReport {
    /// Whether the executed tier is a degradation — the planner dropped
    /// below what the fold or a forced policy asked for.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{box3d, heat3d, inverter_chain_rhs};

    #[test]
    fn policy_parsing_is_case_insensitive_and_strict() {
        assert_eq!(TierPolicy::parse("auto"), Some(TierPolicy::Auto));
        assert_eq!(TierPolicy::parse("Scalar"), Some(TierPolicy::ForceScalar));
        assert_eq!(TierPolicy::parse(" FOLDED "), Some(TierPolicy::ForceFolded));
        assert_eq!(TierPolicy::parse(""), None);
        assert_eq!(TierPolicy::parse("vector"), None);
        assert_eq!(TierPolicy::parse("folded8"), None);
    }

    #[test]
    fn planner_prefers_folded_for_supported_lane_counts() {
        let s = heat3d(1);
        for lanes in [2usize, 4, 8, 16] {
            let p = TuningParams::new([8, 8, 8], Fold::new(lanes, 1, 1));
            let tier = plan_kernel(&s, &p, TierPolicy::Auto).tier();
            assert_eq!(tier, Tier::Folded, "lanes={lanes}");
        }
        // Unit fold and odd lane counts fall back to the scalar rows.
        for lanes in [1usize, 3, 5] {
            let p = TuningParams::new([8, 8, 8], Fold::new(lanes, 1, 1));
            let planned = plan_kernel(&s, &p, TierPolicy::Auto);
            assert_eq!(planned.tier(), Tier::Scalar, "lanes={lanes}");
            let reason = planned.reason;
            assert!(reason.contains("lane count"), "reason: {reason}");
        }
    }

    #[test]
    fn planner_uses_brick_kernel_for_multi_dim_folds() {
        let s = box3d(1);
        for fold in [Fold::new(4, 2, 1), Fold::new(2, 2, 2), Fold::new(1, 2, 1)] {
            let p = TuningParams::new([8, 8, 8], fold);
            let planned = plan_kernel(&s, &p, TierPolicy::Auto);
            assert_eq!(planned.tier(), Tier::Folded, "fold={fold}");
            let reason = planned.reason;
            assert!(reason.contains("brick"), "reason: {reason}");
        }
        // 3x3x1 has 9 elements: no monomorphised brick kernel.
        let p = TuningParams::new([8, 8, 8], Fold::new(3, 3, 1));
        assert_eq!(plan_kernel(&s, &p, TierPolicy::Auto).tier(), Tier::Generic);
    }

    #[test]
    fn planner_routes_tapes_by_layout_only() {
        let s = inverter_chain_rhs(5.0, 1.0, 2.0);
        let row = TuningParams::new([8, 1, 1], Fold::new(8, 1, 1));
        assert_eq!(plan_kernel(&s, &row, TierPolicy::Auto).tier(), Tier::Tape);
        let folded = TuningParams::new([8, 1, 1], Fold::new(4, 2, 1));
        assert_eq!(
            plan_kernel(&s, &folded, TierPolicy::Auto).tier(),
            Tier::Generic
        );
    }

    #[test]
    fn degraded_reasons_are_classified() {
        use std::collections::{BTreeMap, BTreeSet};
        // The oracle: every reason for a sweep below its asked-for tier.
        const DEGRADED: [&str; 5] = [
            "non-linear stencil on a multi-dimensional fold: per-point generic path",
            "folded tier forced but fold.x has no supported lane count: scalar row kernels",
            "fold.x has no supported lane count: scalar row kernels",
            "tier forced to scalar but scalar row kernels need a row-major fold: generic path",
            "multi-dimensional fold ineligible for the brick kernel \
             (unsupported lane count or mismatched grid layouts): generic path",
        ];
        let compiled =
            [heat3d(1), inverter_chain_rhs(5.0, 1.0, 2.0)].map(|s| CompiledStencil::compile(&s));
        let mut flags: BTreeMap<&str, bool> = BTreeMap::new();
        for policy in [
            TierPolicy::Auto,
            TierPolicy::ForceScalar,
            TierPolicy::ForceFolded,
        ] {
            for (x, y) in [(8, 1), (3, 1), (4, 2), (3, 2)] {
                let p = TuningParams::new([8, 8, 8], Fold::new(x, y, 1));
                for (c, shared) in compiled.iter().flat_map(|c| [(c, true), (c, false)]) {
                    let planned = plan_spatial(c, shared, &p, policy);
                    let (r, d) = (planned.reason, planned.degraded);
                    assert_eq!(d, DEGRADED.contains(&r), "{r}");
                    assert_eq!(*flags.entry(r).or_insert(d), d, "both flags: {r}");
                }
            }
        }
        let degraded: BTreeSet<&str> = flags.into_iter().filter(|f| f.1).map(|f| f.0).collect();
        assert_eq!(degraded, BTreeSet::from(DEGRADED));
    }

    #[test]
    fn forced_policies_degrade_with_recorded_reasons() {
        let s = heat3d(1);
        let compiled = CompiledStencil::compile(&s);
        // Scalar forced on a row-major fold: honoured.
        let row = TuningParams::new([8, 8, 8], Fold::new(8, 1, 1));
        let plan = plan_spatial(&compiled, true, &row, TierPolicy::ForceScalar);
        assert_eq!(plan.kernel, Kernel::ScalarRows);
        // Scalar forced on a multi-dim fold: no scalar row kernel exists,
        // degrade to generic and say why.
        let folded = TuningParams::new([8, 8, 8], Fold::new(4, 2, 1));
        let plan = plan_spatial(&compiled, true, &folded, TierPolicy::ForceScalar);
        assert_eq!(plan.kernel, Kernel::PerPoint);
        assert!(plan.reason.contains("row-major"), "reason: {}", plan.reason);
        // Folded forced on a unit fold: no lanes to vectorise.
        let unit = TuningParams::new([8, 8, 8], Fold::unit());
        let plan = plan_spatial(&compiled, true, &unit, TierPolicy::ForceFolded);
        assert_eq!(plan.kernel, Kernel::ScalarRows);
        assert!(
            plan.reason.contains("lane count"),
            "reason: {}",
            plan.reason
        );
        // Brick kernel needs shared grid geometry.
        let plan = plan_spatial(&compiled, false, &folded, TierPolicy::Auto);
        assert_eq!(plan.kernel, Kernel::PerPoint);
    }
}
