//! Plan execution and time integration on the native engine.
//!
//! An [`Integrator`] prepares a plan's step once ([`prepare_step`]) and
//! runs it every step. Run as one tiled chain, the step keeps the plan's
//! transient stage grids ([`StepPlan::transients`]) in windows of a few
//! planes and a carry strip per tile, allocated once in
//! [`Integrator::new`]; only the grids the chain does not window are
//! allocated whole. Op by op every grid is whole. Both leave the same
//! bits.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use yasksite_engine::{EngineError, ExecPool, PreparedChain, SweepRequest, TuningParams};
use yasksite_grid::{Fold, Grid3};

use crate::ivps::Ivp;
use crate::plan::StepPlan;

/// Errors from the integrator.
#[derive(Debug)]
pub enum OdeError {
    /// Engine failure while executing a sweep.
    Engine(EngineError),
    /// Inconsistent plan.
    Plan(String),
    /// The state left the finite range — the method blew up (unstable
    /// step size, stiff problem, bad coefficients).
    Diverged {
        /// The 1-based step on which non-finite state was detected.
        step: u64,
    },
}

impl fmt::Display for OdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdeError::Engine(e) => write!(f, "engine: {e}"),
            OdeError::Plan(s) => write!(f, "plan: {s}"),
            OdeError::Diverged { step } => {
                write!(
                    f,
                    "integration diverged: non-finite state after step {step}"
                )
            }
        }
    }
}

impl std::error::Error for OdeError {}

impl From<EngineError> for OdeError {
    fn from(e: EngineError) -> Self {
        OdeError::Engine(e)
    }
}

/// Executes a [`StepPlan`] natively, step after step, managing the grid
/// pool, boundary halos and state rotation. Each op's sweep is prepared
/// once, against the pool grids it reads and writes, and the ops form one
/// [`PreparedChain`] ([`prepare_step`]); a step only runs it. With
/// `params.wavefront > 1` and every op on the linear row kernel the chain
/// runs the whole step as one tiled pass, in tiles of `block[1] × threads`
/// rows; otherwise (a tape op, a brick fold, `wavefront == 1`) it runs the
/// ops one after another. Both leave the same bits.
pub struct Integrator {
    plan: StepPlan,
    pool: Vec<Grid3>,
    exec: Option<Arc<ExecPool>>,
    /// The step's ops, one chain level each. The sweep of the last op
    /// writing some `next` grid reports on the finiteness of the new
    /// state it produces.
    chain: PreparedChain<'static>,
    /// Fields whose `next` grid no op writes; their new state gets the
    /// whole-grid scan instead.
    unswept_fields: Vec<usize>,
    t: f64,
    h: f64,
    steps_done: u64,
}

impl fmt::Debug for Integrator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Integrator")
            .field("plan", &self.plan.name)
            .field("t", &self.t)
            .field("steps_done", &self.steps_done)
            .finish()
    }
}

impl Integrator {
    /// Builds an integrator: allocates the plan's grid pool, writes the
    /// IVP's initial condition into the state grids and the boundary
    /// values into the relevant halos, and prepares every op's sweep
    /// under the tier policy read once here.
    ///
    /// # Errors
    /// Returns [`OdeError::Plan`] if the plan fails validation and
    /// [`OdeError::Engine`] if an op does not bind to its grids under
    /// `params`.
    pub fn new(
        ivp: &dyn Ivp,
        plan: StepPlan,
        h: f64,
        params: TuningParams,
    ) -> Result<Self, OdeError> {
        plan.validate().map_err(OdeError::Plan)?;
        let f = ivp.fields();
        // Every op is prepared against the pool's one geometry; only then
        // is it known which grids the chain keeps in windows.
        let geometry = Grid3::new("pool", plan.domain, plan.halo, params.fold);
        let shapes = vec![&geometry; plan.num_grids];
        let chain = prepare_step(&plan, &shapes, &SweepRequest::new(&params))?;
        drop(geometry);
        let mut pool = Vec::with_capacity(plan.num_grids);
        for g in 0..plan.num_grids {
            let (n, halo) = chain.window_extent(g).unwrap_or((plan.domain, plan.halo));
            let mut grid = Grid3::new(&format!("pool{g}"), n, halo, params.fold);
            // State-carrying grids (current state, stage scratch, next)
            // hold solution values, so their halos carry the boundary
            // value of their field; derivative grids keep zero halos. A
            // new grid is all +0.0 already.
            let halo_field = plan
                .state_grids
                .iter()
                .position(|&x| x == g)
                .or_else(|| plan.next_grids.iter().position(|&x| x == g))
                .or_else(|| plan.scratch_grids.iter().position(|&x| x == g))
                .map(|p| p % f.max(1));
            let value = match halo_field {
                Some(fl) if fl < f => ivp.boundary(fl),
                _ => 0.0,
            };
            if value.to_bits() != 0 {
                grid.fill_halo(value);
            }
            pool.push(grid);
        }
        for (fl, &g) in plan.state_grids.iter().enumerate() {
            pool[g].fill_with(|i, j, k| ivp.initial(fl, i, j, k));
        }
        let unswept_fields = (0..plan.next_grids.len())
            .filter(|&fl| plan.last_writer(fl).is_none())
            .collect();
        Ok(Integrator {
            chain,
            plan,
            pool,
            exec: None,
            unswept_fields,
            t: 0.0,
            h,
            steps_done: 0,
        })
    }

    /// Runs every sweep of this integrator on `exec` instead of the
    /// process-global [`ExecPool`]. Sharing one pool across integrators
    /// (or with a tuning session) reuses its workers for every step —
    /// there is no per-sweep spawn/join either way, and results are
    /// bitwise identical for any pool because the engine decomposes work
    /// from `params.threads`, never from the pool width.
    #[must_use]
    pub fn with_pool(mut self, exec: Arc<ExecPool>) -> Self {
        self.exec = Some(exec);
        self
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &StepPlan {
        &self.plan
    }

    /// Whether a step runs the plan's ops as one tiled pass rather than
    /// one after another.
    #[must_use]
    pub fn chained(&self) -> bool {
        self.chain.tiled()
    }

    /// The pool grids a chained step keeps in windows instead of whole
    /// grids: when [`Integrator::chained`], the plan's transients whose
    /// window is smaller than a whole grid, none otherwise.
    #[must_use]
    pub fn windowed(&self) -> Vec<usize> {
        self.chain.windowed()
    }

    /// Current simulation time.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Performs one method step.
    ///
    /// # Errors
    /// Propagates engine errors; returns [`OdeError::Diverged`] when the
    /// new state contains non-finite values.
    pub fn step(&mut self) -> Result<(), OdeError> {
        // Divergence guard: an unstable step size turns the state
        // non-finite; detect it on this step instead of letting NaN/inf
        // propagate into downstream error norms and comparisons. The
        // sweep that writes a field's new state checks it as it goes, so
        // the state is not streamed from memory a second time.
        let exec = match &self.exec {
            Some(p) => p,
            None => ExecPool::global(),
        };
        let mut finite = self.chain.run(exec, &mut self.pool)?.finite != Some(false);
        for (&s, &n) in self.plan.state_grids.iter().zip(&self.plan.next_grids) {
            let [a, b] = self
                .pool
                .get_disjoint_mut([s, n])
                .map_err(|e| OdeError::Plan(e.to_string()))?;
            a.swap_data(b).map_err(|e| OdeError::Plan(e.to_string()))?;
        }
        self.t += self.h;
        self.steps_done += 1;
        for &fl in &self.unswept_fields {
            finite &= self.pool[self.plan.state_grids[fl]].interior_all_finite();
        }
        if finite {
            Ok(())
        } else {
            Err(OdeError::Diverged {
                step: self.steps_done,
            })
        }
    }

    /// Runs `n` steps.
    ///
    /// # Errors
    /// Propagates the first step failure.
    pub fn run(&mut self, n: usize) -> Result<(), OdeError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// A copy of the current state of `field`.
    ///
    /// # Panics
    /// Panics if `field` is out of range.
    #[must_use]
    pub fn state(&self, field: usize) -> Grid3 {
        self.pool[self.plan.state_grids[field]].clone()
    }

    /// Maximum absolute error of all fields against the IVP's exact
    /// solution at the current time, if available.
    #[must_use]
    pub fn error_vs_exact(&self, ivp: &dyn Ivp) -> Option<f64> {
        let mut err = 0.0f64;
        for fl in 0..ivp.fields() {
            let g = &self.pool[self.plan.state_grids[fl]];
            let n = g.n();
            for k in 0..n[2] {
                for j in 0..n[1] {
                    for i in 0..n[0] {
                        let e = ivp.exact(fl, i, j, k, self.t)?;
                        err = err.max((g.get(i as isize, j as isize, k as isize) - e).abs());
                    }
                }
            }
        }
        Some(err)
    }

    /// Maximum absolute state difference to another integrator (same IVP,
    /// presumably a reference run).
    ///
    /// # Panics
    /// Panics if the two integrators have different field counts or
    /// domains.
    #[must_use]
    pub fn max_diff(&self, other: &Integrator) -> f64 {
        let mut m = 0.0f64;
        for (fl, &g) in self.plan.state_grids.iter().enumerate() {
            let a = &self.pool[g];
            let b = &other.pool[other.plan.state_grids[fl]];
            m = m.max(a.max_abs_diff(b).expect("comparable states"));
        }
        m
    }
}

/// One step of `plan` over `pool`, prepared under `request` as the chain
/// [`Integrator`] runs: one sweep per op against its pool grids (the last
/// writer of each field's `next` grid with
/// [`SweepRequest::report_finite`]), chained by
/// [`StepPlan::chain_levels`]. [`PreparedChain::run`] steps on the host;
/// [`PreparedChain::simulate`] replays the step on a simulated machine.
///
/// A chain that runs tiled keeps the plan's
/// [transients](StepPlan::transients) in windows
/// ([`PreparedChain::with_windows`]): a run then binds at each windowed
/// grid one of [`PreparedChain::window_extent`], or a whole pool grid,
/// whose first rows the window uses. The grids `pool` holds there are
/// read only for their geometry.
///
/// # Errors
/// The engine's error when an op does not bind to its grids.
///
/// # Panics
/// If an op names a grid outside `pool` (a validated plan over
/// `plan.num_grids` grids never does).
pub fn prepare_step<'a, G: Borrow<Grid3>>(
    plan: &StepPlan,
    pool: &[G],
    request: &SweepRequest<'a>,
) -> Result<PreparedChain<'a>, EngineError> {
    let scans: Vec<usize> = (0..plan.next_grids.len())
        .filter_map(|fl| plan.last_writer(fl))
        .collect();
    let sweeps = plan.ops.iter().enumerate().map(|(o, op)| {
        let inputs: Vec<&Grid3> = op.inputs.iter().map(|&g| pool[g].borrow()).collect();
        let request = if scans.contains(&o) {
            request.clone().report_finite()
        } else {
            request.clone()
        };
        request.prepare(&op.stencil, &inputs, pool[op.output].borrow())
    });
    PreparedChain::new(sweeps.collect::<Result<_, _>>()?, plan.chain_levels())?
        .with_windows(&plan.transients())
}

/// Estimates the temporal convergence order of a method: integrates to
/// `t_end` with steps `h` and `h/2`, compares both against an `h/16`
/// reference of the same plan family, and returns
/// `log2(err(h) / err(h/2))`.
///
/// `make_plan(h)` must build the plan for a given step size (plans embed
/// `h` in their coefficients).
///
/// # Errors
/// Propagates integrator failures.
///
/// # Panics
/// Panics if `t_end` is not an integer multiple of `h` within rounding.
pub fn temporal_order(
    ivp: &dyn Ivp,
    make_plan: &dyn Fn(f64) -> StepPlan,
    t_end: f64,
    h: f64,
    params: &TuningParams,
) -> Result<f64, OdeError> {
    let run = |hh: f64| -> Result<Integrator, OdeError> {
        let steps = (t_end / hh).round() as usize;
        assert!(
            ((steps as f64 * hh) - t_end).abs() < 1e-9,
            "t_end must be a multiple of h"
        );
        let mut integ = Integrator::new(ivp, make_plan(hh), hh, params.clone())?;
        integ.run(steps)?;
        Ok(integ)
    };
    let reference = run(h / 16.0)?;
    let coarse = run(h)?;
    let fine = run(h / 2.0)?;
    let e1 = coarse.max_diff(&reference).max(1e-300);
    let e2 = fine.max_diff(&reference).max(1e-300);
    Ok((e1 / e2).log2())
}

/// Default execution parameters for integrator tests and examples: row
/// -major fold, modest blocks.
#[must_use]
pub fn default_params(domain: [usize; 3]) -> TuningParams {
    TuningParams::new(
        [domain[0], domain[1].min(16), domain[2].min(16)],
        Fold::new(8, 1, 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivps::{Heat2d, Heat3d, InverterChain, Wave2d};
    use crate::tableau::Tableau;
    use crate::variants::{erk_plan, pirk_plan, Variant};

    #[test]
    fn heat2d_rk4_tracks_exact_solution() {
        let ivp = Heat2d::new(15);
        let h = 5e-4;
        let p = default_params(ivp.domain());
        let mut integ =
            Integrator::new(&ivp, erk_plan(&Tableau::rk4(), &ivp, h, Variant::A), h, p).unwrap();
        integ.run(40).unwrap();
        let err = integ.error_vs_exact(&ivp).unwrap();
        // Dominated by the O(h_x^2) spatial error, ~1e-3 at n=15.
        assert!(err < 5e-3, "error {err}");
        // The solution must actually have decayed.
        let mid = integ.state(0).get(7, 7, 0);
        assert!(mid < 1.0 && mid > 0.5, "mid {mid}");
    }

    #[test]
    fn variants_agree_exactly() {
        let ivp = Heat2d::new(12);
        let h = 1e-3;
        let p = default_params(ivp.domain());
        let mut results = Vec::new();
        for v in Variant::all() {
            let mut integ =
                Integrator::new(&ivp, erk_plan(&Tableau::rk4(), &ivp, h, v), h, p.clone()).unwrap();
            integ.run(10).unwrap();
            results.push(integ);
        }
        for (i, r) in results.iter().enumerate().skip(1) {
            assert!(
                results[0].max_diff(r) < 1e-11,
                "variant {} diverges from A",
                Variant::all()[i]
            );
        }
    }

    #[test]
    fn dedicated_pool_is_bitwise_identical_to_global() {
        let ivp = Heat2d::new(12);
        let h = 1e-3;
        let p = default_params(ivp.domain()).threads(3);
        let plan = |v| erk_plan(&Tableau::rk4(), &ivp, h, v);
        let mut on_global = Integrator::new(&ivp, plan(Variant::A), h, p.clone()).unwrap();
        on_global.run(10).unwrap();
        let shared = Arc::new(ExecPool::new(2));
        let mut on_shared = Integrator::new(&ivp, plan(Variant::A), h, p)
            .unwrap()
            .with_pool(shared);
        on_shared.run(10).unwrap();
        assert_eq!(on_global.max_diff(&on_shared), 0.0);
    }

    #[test]
    fn pirk_variants_agree() {
        let ivp = Heat2d::new(10);
        let h = 2e-4;
        let p = default_params(ivp.domain());
        let mut res = Vec::new();
        for v in [Variant::A, Variant::D] {
            let plan = pirk_plan(&Tableau::radau_iia2(), 3, &ivp, h, v);
            let mut integ = Integrator::new(&ivp, plan, h, p.clone()).unwrap();
            integ.run(8).unwrap();
            res.push(integ);
        }
        assert!(res[0].max_diff(&res[1]) < 1e-11);
    }

    #[test]
    fn erk_orders_match_tableaus() {
        let ivp = Heat2d::new(8);
        let p = default_params(ivp.domain());
        let h = 1e-3;
        for (tab, expect) in [
            (Tableau::euler(), 1.0),
            (Tableau::heun2(), 2.0),
            (Tableau::rk4(), 4.0),
        ] {
            let order = temporal_order(
                &ivp,
                &|hh| erk_plan(&tab, &ivp, hh, Variant::D),
                16.0 * h,
                h,
                &p,
            )
            .unwrap();
            assert!(
                (order - expect).abs() < 0.6,
                "{}: measured order {order}, expected {expect}",
                tab.name()
            );
        }
    }

    #[test]
    fn pirk_order_grows_with_iterations() {
        let ivp = Heat2d::new(8);
        let p = default_params(ivp.domain());
        let h = 1e-3;
        let corrector = Tableau::radau_iia2();
        let mut orders = Vec::new();
        for iters in [1usize, 2, 4] {
            let order = temporal_order(
                &ivp,
                &|hh| pirk_plan(&corrector, iters, &ivp, hh, Variant::A),
                16.0 * h,
                h,
                &p,
            )
            .unwrap();
            orders.push(order);
        }
        assert!(orders[1] > orders[0] + 0.5, "orders {orders:?}");
        // Enough iterations recover the corrector's order 3.
        assert!(orders[2] > 2.4, "orders {orders:?}");
    }

    #[test]
    fn unstable_step_size_reports_divergence() {
        // Explicit Euler on heat2d at n=15 has a stability limit of
        // h < 2/λ_max ≈ 2e-3; h = 1.0 amplifies the stiffest mode by
        // ~1000x per step and must be caught as Diverged, not ridden
        // into NaN.
        let ivp = Heat2d::new(15);
        let h = 1.0;
        let p = default_params(ivp.domain());
        let plan = erk_plan(&Tableau::euler(), &ivp, h, Variant::A);
        let mut integ = Integrator::new(&ivp, plan, h, p).unwrap();
        let err = integ.run(500).unwrap_err();
        match err {
            OdeError::Diverged { step } => {
                assert!(step > 0 && step < 500, "diverged at step {step}");
            }
            other => panic!("expected Diverged, got {other}"),
        }
    }

    #[test]
    fn divergence_is_reported_on_the_step_a_point_walk_finds_it() {
        // The guard scans grid storage as slices; it must fire on exactly
        // the step the former point-by-point interior walk fired on.
        let ivp = Heat2d::new(15);
        let h = 1.0;
        let p = default_params(ivp.domain());
        let build = || {
            let plan = erk_plan(&Tableau::euler(), &ivp, h, Variant::A);
            Integrator::new(&ivp, plan, h, p.clone()).unwrap()
        };
        let Err(OdeError::Diverged { step: reported }) = build().run(500) else {
            panic!("h = 1.0 must diverge");
        };
        let mut twin = build();
        let walked = (1..=500u64).find(|_| {
            let outcome = twin.step();
            let s = twin.state(0);
            let finite = (0..15).all(|j| (0..15).all(|i| s.get(i, j, 0).is_finite()));
            assert_eq!(outcome.is_ok(), finite, "guard and walk disagree");
            !finite
        });
        assert_eq!(Some(reported), walked);
        assert_eq!(reported, 99, "the step the point-by-point guard reported");
    }

    #[test]
    fn two_field_divergence_fires_on_the_step_the_whole_grid_scan_finds_it() {
        // Each field's new state is checked by the last sweep writing it;
        // every variant must report the step on which a whole-grid scan
        // of both fields first finds a non-finite value.
        let ivp = Wave2d::new(15, 1.0);
        let h = 0.5; // far outside RK4's stability region
        let p = default_params(ivp.domain()).threads(3);
        for v in Variant::all() {
            let build = || {
                let plan = erk_plan(&Tableau::rk4(), &ivp, h, v);
                Integrator::new(&ivp, plan, h, p.clone()).unwrap()
            };
            let Err(OdeError::Diverged { step: reported }) = build().run(500) else {
                panic!("h = 0.5 must diverge ({v})");
            };
            let mut twin = build();
            let scanned = (1..=500u64).find(|_| {
                let outcome = twin.step();
                let finite = (0..2).all(|f| twin.state(f).interior_all_finite());
                assert_eq!(outcome.is_ok(), finite, "guard and scan disagree ({v})");
                !finite
            });
            assert_eq!(Some(reported), scanned, "variant {v}");
        }
    }

    #[test]
    fn a_next_grid_no_sweep_writes_gets_the_whole_grid_scan() {
        use crate::plan::{lincomb_stencil, StepOp};
        use yasksite_stencil::Stencil;
        struct NanStart;
        impl Ivp for NanStart {
            fn name(&self) -> &str {
                "nan-start"
            }
            fn domain(&self) -> [usize; 3] {
                [8, 2, 1]
            }
            fn halo(&self) -> [usize; 3] {
                [0, 0, 0]
            }
            fn rhs(&self, _field: usize) -> Stencil {
                lincomb_stencil("id", &[1.0])
            }
            fn initial(&self, _field: usize, _i: usize, _j: usize, _k: usize) -> f64 {
                f64::NAN
            }
        }
        // The only op writes a side grid, so the rotation just alternates
        // the NaN start and the zeroed `next` grid as "new state".
        let plan = StepPlan {
            ops: vec![StepOp {
                stencil: lincomb_stencil("copy", &[1.0]),
                inputs: vec![0],
                output: 2,
                label: "side copy".into(),
            }],
            num_grids: 3,
            state_grids: vec![0],
            next_grids: vec![1],
            scratch_grids: vec![],
            domain: [8, 2, 1],
            halo: [0, 0, 0],
            name: "unswept".into(),
        };
        let p = default_params([8, 2, 1]);
        let mut integ = Integrator::new(&NanStart, plan, 1.0, p).unwrap();
        integ.step().expect("the zeroed next grid is finite");
        assert!(matches!(integ.step(), Err(OdeError::Diverged { step: 2 })));
    }

    #[test]
    fn stable_step_size_does_not_trip_the_guard() {
        let ivp = Heat2d::new(15);
        let h = 5e-4; // well inside the stability region
        let p = default_params(ivp.domain());
        let plan = erk_plan(&Tableau::euler(), &ivp, h, Variant::A);
        let mut integ = Integrator::new(&ivp, plan, h, p).unwrap();
        integ.run(50).unwrap();
    }

    #[test]
    fn wave2d_standing_wave() {
        let ivp = Wave2d::new(15, 1.0);
        let h = 2e-3;
        let p = default_params(ivp.domain());
        let plan = erk_plan(&Tableau::rk4(), &ivp, h, Variant::A);
        let mut integ = Integrator::new(&ivp, plan, h, p).unwrap();
        integ.run(50).unwrap(); // t = 0.1
        let err = integ.error_vs_exact(&ivp).unwrap();
        assert!(err < 0.05, "wave error {err}");
    }

    #[test]
    fn heat3d_decays() {
        let ivp = Heat3d::new(9);
        let h = 2e-4;
        let p = default_params(ivp.domain());
        let plan = erk_plan(&Tableau::heun2(), &ivp, h, Variant::D);
        let mut integ = Integrator::new(&ivp, plan, h, p).unwrap();
        integ.run(25).unwrap();
        let err = integ.error_vs_exact(&ivp).unwrap();
        assert!(err < 2e-2, "heat3d error {err}");
    }

    #[test]
    fn bruss2d_decays_to_steady_state_and_variants_agree() {
        use crate::ivps::Bruss2d;
        let ivp = Bruss2d::new(12);
        let h = 2e-3;
        let p = default_params(ivp.domain());
        let mut res = Vec::new();
        for v in Variant::all() {
            let plan = erk_plan(&Tableau::rk4(), &ivp, h, v);
            let mut integ = Integrator::new(&ivp, plan, h, p.clone()).unwrap();
            integ.run(300).unwrap();
            res.push(integ);
        }
        for (i, r) in res.iter().enumerate().skip(1) {
            assert!(
                res[0].max_diff(r) < 1e-9,
                "variant {} diverges",
                Variant::all()[i]
            );
        }
        // The perturbation of the stable steady state must have shrunk
        // (relaxation rate ~ (1 + a² - b) + 2απ²/h² ≈ 0.7 here).
        let (us, _) = ivp.steady_state();
        let u = res[0].state(0);
        let dev0 = 0.1; // initial bump amplitude
        let mid = (u.get(6, 6, 0) - us).abs();
        assert!(mid < dev0 * 0.85, "perturbation did not decay: {mid}");
    }

    #[test]
    fn inverter_chain_stays_bounded_and_variants_agree() {
        let ivp = InverterChain::new(128, 5.0, 1.0, 0.5);
        let h = 1e-3;
        let p = default_params(ivp.domain());
        let mut res = Vec::new();
        for v in [Variant::A, Variant::D] {
            let plan = erk_plan(&Tableau::rk4(), &ivp, h, v);
            let mut integ = Integrator::new(&ivp, plan, h, p.clone()).unwrap();
            integ.run(200).unwrap();
            res.push(integ);
        }
        assert!(res[0].max_diff(&res[1]) < 1e-9);
        let s = res[0].state(0);
        for i in 0..128 {
            let v = s.get(i, 0, 0);
            assert!((0.0..=6.0).contains(&v), "cell {i} diverged: {v}");
        }
    }
}
