//! `ode-mem` and `ode-small`: time to solution of an explicit ODE method
//! on the native engine. Every (variant, params) candidate is measured;
//! the Offsite pick is the tuned candidate with the smallest `predict_plan`.
//!
//! Both workloads are one code path with two configurations: a memory-bound
//! 3-D heat equation and a cache-resident nonlinear inverter chain.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use offsite::{predict_plan_cached, Offsite};
use yasksite::PredictionCache;
use yasksite_arch::Machine;
use yasksite_engine::{ExecPool, SweepRequest, TuningParams};
use yasksite_grid::Grid3;
use yasksite_ode::ivps::{Heat3d, InverterChain};
use yasksite_ode::{erk_plan, pirk_plan, Integrator, Ivp, StepPlan, Tableau, Variant};

use super::Ctx;
use crate::stats::{median, scaled_median, time_median};
use crate::trace::Tracer;

pub struct Config {
    ivp: Box<dyn Ivp>,
    /// Step size inside RK4's stability region for the problem.
    h: f64,
    /// Steps per timed sample (and per "solve" the metrics report).
    steps: usize,
    /// Also measure PIRK(radauIIA2, 3) variants A and D (never picked: a
    /// different method is not a drop-in replacement for RK4).
    with_pirk: bool,
    scan_samples: usize,
    min_refine_rounds: usize,
    typical_refine_rounds: usize,
    setup_repeats: usize,
    /// Compute-bound: the gated times are taken to the reference clock
    /// (see [`crate::clock`]). A memory-bound solve does not follow the
    /// core clock and is reported as wall time.
    at_reference_clock: bool,
    /// Bound on `error_vs_exact` of the reference after the scan.
    exact_tolerance: Option<f64>,
    /// Bound on the state difference of an RK4 candidate to the reference.
    max_diff: f64,
    /// Same for a PIRK candidate (another method, so truncation differs).
    max_diff_pirk: f64,
}

impl Config {
    /// Heat3d(192): 7–8 grids of 57 MB, 400–460 MB in all against a 2–4 MiB
    /// L2 and a reported 260 MiB L3. No single grid is 4× the reported
    /// L3, but each sweep streams two to five distinct grids and the pool
    /// as a whole exceeds it, which is what keeps the step memory-bound.
    pub fn mem() -> Config {
        let n = 192;
        let dx = 1.0 / (n as f64 + 1.0);
        Config {
            ivp: Box::new(Heat3d::new(n)),
            h: 0.1 * dx * dx,
            steps: 1,
            with_pirk: false,
            scan_samples: 1,
            min_refine_rounds: 6,
            typical_refine_rounds: 12,
            setup_repeats: 3,
            at_reference_clock: false,
            exact_tolerance: Some(1e-6),
            max_diff: 1e-12,
            max_diff_pirk: 0.0,
        }
    }

    /// InverterChain(4096): 32 KB per grid, the whole pool in L2. A sweep
    /// is ~60 µs of which ~8 µs is arithmetic.
    pub fn small() -> Config {
        Config {
            ivp: Box::new(InverterChain::new(4096, 5.0, 1.0, 0.5)),
            h: 1e-3,
            steps: 200,
            with_pirk: true,
            scan_samples: 2,
            min_refine_rounds: 5,
            typical_refine_rounds: 20,
            setup_repeats: 50,
            at_reference_clock: true,
            exact_tolerance: None,
            max_diff: 1e-9,
            max_diff_pirk: 1e-4,
        }
    }
}

struct Candidate {
    label: String,
    variant: Variant,
    tuned: bool,
    pirk: bool,
    plan: StepPlan,
    params: TuningParams,
    /// Wall seconds of each kept sample, and the clock read before it.
    samples: Vec<f64>,
    scales: Vec<f64>,
    integ: Option<Integrator>,
}

struct Setup {
    pool: Arc<ExecPool>,
    candidates: Vec<Candidate>,
    /// Index of the Offsite pick; its integrator is already built.
    picked: usize,
    predicted_step_s: f64,
}

const HOST_CORES: usize = 1;

fn new_integrator(
    cfg: &Config,
    c: &Candidate,
    pool: &Arc<ExecPool>,
    tr: &Tracer,
) -> Option<Integrator> {
    let _span = tr.span("ode:integrator_new");
    Integrator::new(cfg.ivp.as_ref(), c.plan.clone(), cfg.h, c.params.clone())
        .ok()
        .map(|i| i.with_pool(Arc::clone(pool)))
}

/// Everything a user does before the first step of the picked variant:
/// pool, parameter tuning, plan building, model ranking, grid allocation
/// and initial-condition fill.
fn setup(cfg: &Config, tr: &Tracer) -> Setup {
    let ivp = cfg.ivp.as_ref();
    let pool = tr.in_span("engine:pool_new", || Arc::new(ExecPool::new(HOST_CORES)));
    let offsite = Offsite::new(Machine::host(), HOST_CORES);
    let tuned = tr
        .in_span("offsite:tuned_params", || offsite.tuned_params(ivp))
        .expect("the spatial space of the IVP's domain is not empty")
        .0;
    let naive = offsite.naive_params(ivp);
    let mut param_sets = vec![(false, naive.clone())];
    if tuned != naive {
        param_sets.push((true, tuned));
    }
    let mut candidates = Vec::new();
    for (is_tuned, params) in &param_sets {
        let tag = if *is_tuned { "tuned" } else { "naive" };
        let mut push = |label: String, variant, pirk, plan| {
            candidates.push(Candidate {
                label,
                variant,
                tuned: *is_tuned,
                pirk,
                plan,
                params: params.clone(),
                samples: Vec::new(),
                scales: Vec::new(),
                integ: None,
            });
        };
        for variant in Variant::all() {
            let plan = tr.in_span("ode:erk_plan", || {
                erk_plan(&Tableau::rk4(), ivp, cfg.h, variant)
            });
            push(format!("rk4/{variant} {tag}"), variant, false, plan);
        }
        if cfg.with_pirk {
            for variant in [Variant::A, Variant::D] {
                let plan = tr.in_span("ode:pirk_plan", || {
                    pirk_plan(&Tableau::radau_iia2(), 3, ivp, cfg.h, variant)
                });
                push(format!("pirk3/{variant} {tag}"), variant, true, plan);
            }
        }
    }
    // With one parameter set (tuned == naive) it is the pick set too.
    let pick_tuned = param_sets.len() > 1;
    let cache = PredictionCache::new();
    let host = Machine::host();
    let (picked, predicted_step_s) = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.pirk && c.tuned == pick_tuned)
        .map(|(i, c)| {
            let p = tr.in_span("offsite:predict_plan", || {
                predict_plan_cached(&c.plan, &host, &c.params, HOST_CORES, &cache)
            });
            (i, p.seconds_per_step)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("the pick set holds the four RK4 variants");
    candidates[picked].integ = new_integrator(cfg, &candidates[picked], &pool, tr);
    Setup {
        pool,
        candidates,
        picked,
        predicted_step_s,
    }
}

fn clock_scale(cfg: &Config, ctx: &mut Ctx) -> f64 {
    if cfg.at_reference_clock {
        ctx.clock_scale()
    } else {
        1.0
    }
}

/// One timed sample of `cfg.steps` steps, returning its seconds; a
/// diverged or failed run counts as a failed operation and yields no sample.
fn sample(cfg: &Config, c: &mut Candidate, ctx: &mut Ctx, keep: bool) -> f64 {
    let Some(integ) = c.integ.as_mut() else {
        ctx.out.op(false);
        return 0.0;
    };
    let scale = clock_scale(cfg, ctx);
    ctx.tr.next_op();
    let t0 = Instant::now();
    let result = ctx.tr.in_span("ode:run", || integ.run(cfg.steps));
    let secs = t0.elapsed().as_secs_f64();
    ctx.out.op(result.is_ok());
    if keep && result.is_ok() {
        c.samples.push(secs);
        c.scales.push(scale);
    }
    secs
}

pub fn run(ctx: &mut Ctx, cfg: &Config) {
    let tr = ctx.tr;
    let mut setup_secs = Vec::new();
    let mut state = None;
    for _ in 0..cfg.setup_repeats {
        drop(state.take());
        let scale = clock_scale(cfg, ctx);
        let t0 = Instant::now();
        state = Some(setup(cfg, tr));
        setup_secs.push(t0.elapsed().as_secs_f64() * scale);
    }
    let Setup {
        pool,
        mut candidates,
        picked,
        predicted_step_s,
    } = state.expect("setup_repeats is at least 1");

    // Scan: every candidate gets a warm-up sample and `scan_samples` timed
    // ones, and is compared with the reference (RK4 variant A, naive
    // parameters) at the same step count. Only the reference and the pick
    // stay allocated.
    let mut stepping_s = 0.0;
    let reference = 0;
    for i in 0..candidates.len() {
        if candidates[i].integ.is_none() {
            candidates[i].integ = new_integrator(cfg, &candidates[i], &pool, tr);
        }
        stepping_s += sample(cfg, &mut candidates[i], ctx, false);
        for _ in 0..cfg.scan_samples {
            stepping_s += sample(cfg, &mut candidates[i], ctx, true);
        }
        if i != reference {
            let _span = tr.span("bench:verify");
            let (this, base) = (&candidates[i], &candidates[reference]);
            let bound = if this.pirk {
                cfg.max_diff_pirk
            } else {
                cfg.max_diff
            };
            let diff = match (&this.integ, &base.integ) {
                (Some(a), Some(b)) => a.max_diff(b),
                _ => f64::INFINITY,
            };
            // `max` skips NaN, so a NaN state shows as a diverged run
            // above, not here.
            ctx.out.check(
                &format!("ode.agrees_with_reference.{}", this.label),
                diff <= bound,
                format!("max_diff {diff:.3e} <= {bound:.0e}"),
            );
        }
        if i != reference && i != picked {
            candidates[i].integ = None;
        }
    }
    if let (Some(tol), Some(integ)) = (cfg.exact_tolerance, &candidates[reference].integ) {
        let _span = tr.span("bench:verify");
        let err = integ
            .error_vs_exact(cfg.ivp.as_ref())
            .unwrap_or(f64::INFINITY);
        ctx.out.check(
            "ode.error_vs_exact",
            err <= tol,
            format!(
                "{err:.3e} <= {tol:.0e} after {} steps",
                (1 + cfg.scan_samples) * cfg.steps
            ),
        );
    }

    // Refine: the three candidates the metrics rest on take turns for the
    // whole time budget, so drift of the host affects them alike. (The
    // scan above is a fixed cost on top: it only finds the fastest.)
    let fastest = |cs: &[Candidate]| {
        (0..cs.len())
            .filter(|&i| !cs[i].samples.is_empty())
            .min_by(|&a, &b| median(&cs[a].samples).total_cmp(&median(&cs[b].samples)))
    };
    let best_after_scan = fastest(&candidates).unwrap_or(reference);
    if candidates[best_after_scan].integ.is_none() {
        candidates[best_after_scan].integ =
            new_integrator(cfg, &candidates[best_after_scan], &pool, tr);
        stepping_s += sample(cfg, &mut candidates[best_after_scan], ctx, false);
    }
    let mut keys = vec![reference, picked, best_after_scan];
    keys.sort_unstable();
    keys.dedup();
    let start = Instant::now();
    let mut rounds = 0;
    while ctx.budget.keep_going(
        start,
        rounds,
        cfg.min_refine_rounds,
        cfg.typical_refine_rounds,
    ) {
        for &k in &keys {
            stepping_s += sample(cfg, &mut candidates[k], ctx, true);
        }
        rounds += 1;
    }

    let med = |i: usize| median(&candidates[i].samples);
    let gated_ms = |i: usize| scaled_median(&candidates[i].samples, &candidates[i].scales) * 1e3;
    let best = fastest(&candidates).unwrap_or(reference);
    let out = &mut *ctx.out;
    // Time inside `Integrator::run` only: allocation between samples pays
    // first-touch costs that differ from pass to pass of one process.
    out.metric("bench.loop_wall_s", "s", stepping_s, 1);
    out.metric("setup_s", "s", median(&setup_secs), setup_secs.len());
    out.metric(
        "baseline_ms",
        "ms",
        gated_ms(reference),
        candidates[reference].samples.len(),
    );
    out.metric(
        "tuned_ms",
        "ms",
        gated_ms(picked),
        candidates[picked].samples.len(),
    );
    out.metric(
        "alt_ms",
        "ms",
        gated_ms(best),
        candidates[best].samples.len(),
    );
    out.metric(
        "ode_solve_s",
        "s",
        med(picked),
        candidates[picked].samples.len(),
    );
    out.metric(
        "ode_speedup_vs_naive",
        "ratio",
        med(reference) / med(picked),
        0,
    );
    out.metric("ode_pick_regret", "ratio", med(picked) / med(best), 0);
    out.note("steps_per_solve", cfg.steps);
    out.note("threads", HOST_CORES);
    out.note("picked", &candidates[picked].label);
    out.note("fastest_measured", &candidates[best].label);
    out.note("params.picked", &candidates[picked].params);
    let grid_bytes = candidates[picked]
        .integ
        .as_ref()
        .map_or(0, |i| i.state(0).bytes());
    out.note("bytes_per_grid", grid_bytes);
    out.note(
        "working_set_bytes",
        grid_bytes * candidates[picked].plan.num_grids,
    );

    // Per-variant numbers of the pick set, and the rank of the pick in it.
    let pick_set: Vec<usize> = (0..candidates.len())
        .filter(|&i| !candidates[i].pirk && candidates[i].tuned == candidates[picked].tuned)
        .collect();
    for &i in &pick_set {
        let v = candidates[i].variant;
        let n = candidates[i].samples.len();
        out.metric(
            &format!("ode.step_s.{v}"),
            "s",
            med(i) / cfg.steps as f64,
            n,
        );
        out.metric(
            &format!("ode.sweeps_per_step.{v}"),
            "count",
            candidates[i].plan.ops.len() as f64,
            0,
        );
    }
    let rank = 1 + pick_set.iter().filter(|&&i| med(i) < med(picked)).count();
    out.metric("offsite.pick_rank", "count", rank as f64, 0);
    let step_s = med(picked) / cfg.steps as f64;
    out.metric(
        "ecm.pred_over_meas.ode_pick",
        "ratio",
        predicted_step_s / step_s,
        0,
    );
    for c in &candidates {
        out.note(
            &format!("solve_s.{}", c.label),
            format!("{:.6}", median(&c.samples)),
        );
    }
}

/// Seconds of one step's sweeps run as bare `SweepRequest::apply` calls
/// on a pool of grids laid out like the integrator's.
fn bare_step_seconds(
    cfg: &Config,
    plan: &StepPlan,
    params: &TuningParams,
    pool: &ExecPool,
    reps: usize,
) -> f64 {
    let ivp = cfg.ivp.as_ref();
    let grids: Vec<RefCell<Grid3>> = (0..plan.num_grids)
        .map(|g| {
            let mut grid = Grid3::new(&format!("g{g}"), plan.domain, plan.halo, params.fold);
            grid.fill_with(|i, j, k| ivp.initial(0, i, j, k));
            grid.fill_halo(ivp.boundary(0));
            RefCell::new(grid)
        })
        .collect();
    let request = SweepRequest::new(params).pool(pool);
    let step = || {
        let mut total = 0.0;
        for op in &plan.ops {
            let borrowed: Vec<_> = op.inputs.iter().map(|&g| grids[g].borrow()).collect();
            let refs: Vec<&Grid3> = borrowed.iter().map(|r| &**r).collect();
            let mut out = grids[op.output].borrow_mut();
            let t0 = Instant::now();
            request
                .apply(&op.stencil, &refs, &mut out)
                .expect("the plan's ops bind to its pool");
            total += t0.elapsed().as_secs_f64();
        }
        total
    };
    step();
    let samples: Vec<f64> = (0..reps).map(|_| step()).collect();
    median(&samples)
}

pub fn probes(ctx: &mut Ctx, cfg: &Config) {
    let ivp = cfg.ivp.as_ref();
    let off = Tracer::new(false);
    let s = setup(cfg, &off);
    let picked = &s.candidates[s.picked];
    let reps = if cfg.steps == 1 { 3 } else { 200 };

    let plan_build = time_median(50, || {
        std::hint::black_box(erk_plan(&Tableau::rk4(), ivp, cfg.h, picked.variant));
    });
    ctx.out
        .metric("ode.plan_build_us", "us", plan_build * 1e6, 50);
    let new_reps = if cfg.steps == 1 { 3 } else { 50 };
    let integrator_new = time_median(new_reps, || {
        std::hint::black_box(new_integrator(cfg, picked, &s.pool, &off));
    });
    ctx.out
        .metric("ode.integrator_new_s", "s", integrator_new, new_reps);

    let offsite = Offsite::new(Machine::host(), HOST_CORES);
    let tuned_params = time_median(20, || {
        std::hint::black_box(offsite.tuned_params(ivp).is_ok());
    });
    ctx.out
        .metric("offsite.tuned_params_ms", "ms", tuned_params * 1e3, 20);
    let host = Machine::host();
    let predict = time_median(20, || {
        // A private cold cache per call: the cost of ranking one plan.
        let cache = PredictionCache::new();
        std::hint::black_box(predict_plan_cached(
            &picked.plan,
            &host,
            &picked.params,
            HOST_CORES,
            &cache,
        ));
    });
    ctx.out
        .metric("offsite.predict_plan_us", "us", predict * 1e6, 20);

    // The integrator is opaque from outside, so its split into engine and
    // stepper time comes from running the same sweeps bare.
    let Some(step_s) = ctx.out.get(&format!("ode.step_s.{}", picked.variant)) else {
        return;
    };
    let sweeps = picked.plan.ops.len() as f64;
    let bare = bare_step_seconds(cfg, &picked.plan, &picked.params, &s.pool, reps);
    ctx.out.metric(
        "ode.per_sweep_overhead_us",
        "us",
        (step_s - bare) / sweeps * 1e6,
        reps,
    );
    ctx.out.metric("engine.share", "ratio", bare / step_s, 0);

    // One plain-fold sweep of the right-hand side alone on this domain:
    // the rate a step would reach if every sweep cost what that one costs.
    let rhs = ivp.rhs(0);
    let domain = ivp.domain();
    let naive = offsite.naive_params(ivp);
    let u = {
        let mut g = Grid3::new("u", domain, ivp.halo(), naive.fold);
        g.fill_with(|i, j, k| ivp.initial(0, i, j, k));
        g.fill_halo(ivp.boundary(0));
        g
    };
    let mut out = Grid3::new("out", domain, ivp.halo(), naive.fold);
    let request = SweepRequest::new(&naive).pool(&s.pool);
    let mut tape = false;
    let rhs_s = time_median(reps.max(5), || {
        let r = request
            .apply(&rhs, &[&u], &mut out)
            .expect("the RHS binds to its grids");
        tape = r.tier == yasksite_engine::Tier::Tape;
    });
    let points = (domain[0] * domain[1] * domain[2]) as f64;
    let rhs_mlups = points / rhs_s / 1e6;
    if tape {
        ctx.out
            .metric("engine.mlups.tape", "MLUP/s", rhs_mlups, reps.max(5));
    }
    let step_mlups = picked.plan.updates_per_step() as f64 / step_s / 1e6;
    ctx.out
        .metric("ode.step_efficiency", "ratio", step_mlups / rhs_mlups, 0);
}
