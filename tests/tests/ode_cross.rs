//! Cross-crate ODE tests: plans executed by the engine vs hand-rolled
//! reference steps, threading invariance, and simulated plan costs.

use offsite::{measure_plan, predict_plan_cached};
use yasksite::PredictionCache;
use yasksite_arch::Machine;
use yasksite_engine::{SweepRequest, TierPolicy, TuningParams};
use yasksite_grid::{Fold, Grid3};
use yasksite_ode::ivps::{Bruss2d, Heat2d, Heat3d, InverterChain, Ivp, Wave2d};
use yasksite_ode::{
    default_params, erk_plan, pirk_plan, prepare_step, Integrator, StepPlan, Tableau, Variant,
};

/// One hand-rolled RK4 step on the Heat2D system, as an independent
/// reference for the plan machinery.
fn manual_rk4_step(ivp: &Heat2d, u0: &Grid3, h: f64) -> Grid3 {
    let rhs = ivp.rhs(0);
    let n = ivp.domain();
    let halo = ivp.halo();
    let eval = |state: &Grid3| -> Grid3 {
        let mut k = Grid3::new("k", n, halo, Fold::unit());
        rhs.apply_reference(&[state], &mut k).unwrap();
        k
    };
    let axpy = |a: &Grid3, s: f64, b: &Grid3| -> Grid3 {
        let mut r = a.clone();
        for j in 0..n[1] as isize {
            for i in 0..n[0] as isize {
                r.set(i, j, 0, a.get(i, j, 0) + s * b.get(i, j, 0));
            }
        }
        r
    };
    let k1 = eval(u0);
    let k2 = eval(&axpy(u0, h / 2.0, &k1));
    let k3 = eval(&axpy(u0, h / 2.0, &k2));
    let k4 = eval(&axpy(u0, h, &k3));
    let mut out = u0.clone();
    for j in 0..n[1] as isize {
        for i in 0..n[0] as isize {
            let incr =
                k1.get(i, j, 0) + 2.0 * k2.get(i, j, 0) + 2.0 * k3.get(i, j, 0) + k4.get(i, j, 0);
            out.set(i, j, 0, u0.get(i, j, 0) + h / 6.0 * incr);
        }
    }
    out
}

#[test]
fn plan_step_matches_manual_rk4() {
    let ivp = Heat2d::new(12);
    let h = 1e-4;
    let params = TuningParams::new([12, 12, 1], Fold::new(8, 1, 1));
    for variant in Variant::all() {
        let plan = erk_plan(&Tableau::rk4(), &ivp, h, variant);
        let mut integ = Integrator::new(&ivp, plan, h, params.clone()).unwrap();
        integ.step().unwrap();

        let mut u0 = Grid3::new("u0", ivp.domain(), ivp.halo(), Fold::unit());
        u0.fill_with(|i, j, k| ivp.initial(0, i, j, k));
        u0.fill_halo(0.0);
        let want = manual_rk4_step(&ivp, &u0, h);
        let got = integ.state(0);
        assert!(
            got.max_abs_diff(&want).unwrap() < 1e-11,
            "variant {variant} diverges from manual RK4"
        );
    }
}

/// The plan's grid pool laid out and initialised as `Integrator::new`
/// does: state, next and scratch grids carry their field's boundary value
/// in the halo, derivative grids a zero halo, and the state grids hold
/// the initial condition.
fn bare_pool(ivp: &dyn Ivp, plan: &StepPlan, fold: Fold) -> Vec<Grid3> {
    let f = ivp.fields();
    let mut pool: Vec<Grid3> = (0..plan.num_grids)
        .map(|g| {
            let mut grid = Grid3::new(&format!("bare{g}"), plan.domain, plan.halo, fold);
            let field = [&plan.state_grids, &plan.next_grids, &plan.scratch_grids]
                .iter()
                .find_map(|list| list.iter().position(|&x| x == g))
                .map(|p| p % f);
            grid.fill_halo(field.map_or(0.0, |fl| ivp.boundary(fl)));
            grid
        })
        .collect();
    for (fl, &g) in plan.state_grids.iter().enumerate() {
        pool[g].fill_with(|i, j, k| ivp.initial(fl, i, j, k));
    }
    pool
}

/// One step of `plan` as bare `SweepRequest::apply` calls on `pool`,
/// followed by the state rotation.
fn bare_step(plan: &StepPlan, params: &TuningParams, pool: &mut [Grid3]) {
    for op in &plan.ops {
        let mut out = std::mem::replace(
            &mut pool[op.output],
            Grid3::new("taken", [1, 1, 1], [0, 0, 0], Fold::unit()),
        );
        let inputs: Vec<&Grid3> = op.inputs.iter().map(|&g| &pool[g]).collect();
        SweepRequest::new(params)
            .apply(&op.stencil, &inputs, &mut out)
            .expect("the plan's ops bind to its pool");
        pool[op.output] = out;
    }
    for (&s, &n) in plan.state_grids.iter().zip(&plan.next_grids) {
        let [a, b] = pool.get_disjoint_mut([s, n]).expect("distinct grids");
        a.swap_data(b).expect("state and next share a layout");
    }
}

/// An integrator runs each op's sweep prepared once in `new`; a step
/// must leave exactly the bits that preparing and running every op
/// afresh (`SweepRequest::apply`) leaves, on every IVP, for RK4 in every
/// variant and PIRK in both of its variants, at 1 to 3 threads, step
/// after step.
#[test]
fn prepared_integrator_steps_match_bare_applies_bitwise() {
    let ivps: Vec<(Box<dyn Ivp>, f64)> = vec![
        (Box::new(Heat2d::new(12)), 1e-4),
        (Box::new(Heat3d::new(7)), 1e-4),
        (Box::new(Wave2d::new(12, 1.0)), 1e-3),
        (Box::new(InverterChain::new(70, 5.0, 1.0, 0.5)), 1e-3),
        (Box::new(Bruss2d::new(10)), 1e-3),
    ];
    for (ivp, h) in &ivps {
        let (ivp, h) = (ivp.as_ref(), *h);
        let mut plans: Vec<StepPlan> = Variant::all()
            .into_iter()
            .map(|v| erk_plan(&Tableau::rk4(), ivp, h, v))
            .collect();
        for v in [Variant::A, Variant::D] {
            plans.push(pirk_plan(&Tableau::radau_iia2(), 3, ivp, h, v));
        }
        for plan in &plans {
            for threads in 1..=3 {
                let params = default_params(ivp.domain()).threads(threads);
                let mut integ = Integrator::new(ivp, plan.clone(), h, params.clone()).unwrap();
                let mut bare = bare_pool(ivp, plan, params.fold);
                for step in 1..=4 {
                    integ.step().unwrap();
                    bare_step(plan, &params, &mut bare);
                    for (fl, &g) in plan.state_grids.iter().enumerate() {
                        let diff = integ.state(fl).max_abs_diff(&bare[g]).unwrap();
                        assert!(
                            diff == 0.0,
                            "{} {} t={threads} step {step} field {fl}: {diff:e}",
                            ivp.name(),
                            plan.name
                        );
                    }
                }
            }
        }
    }
}

/// An integrator whose parameters ask for a wavefront (`wavefront(2)`)
/// runs a step as one tiled chain over its ops, in tiles of `block[1] ×
/// threads` rows, when every op runs on the linear row kernel; a plan
/// with a tape op (InverterChain, Bruss2d) runs op by op. Either way a
/// step must leave exactly the bits of the op-by-op step, on every IVP,
/// for RK4 in every variant and PIRK in both of its variants, at 1 to 3
/// threads and tile heights of one row, three rows and the whole
/// domain, step after step.
#[test]
fn chained_integrator_steps_match_op_by_op_steps_bitwise() {
    let ivps: Vec<(Box<dyn Ivp>, f64, bool)> = vec![
        (Box::new(Heat2d::new(12)), 1e-4, true),
        (Box::new(Heat3d::new(7)), 1e-4, true),
        (Box::new(Wave2d::new(12, 1.0)), 1e-3, true),
        (Box::new(InverterChain::new(70, 5.0, 1.0, 0.5)), 1e-3, false),
        (Box::new(Bruss2d::new(10)), 1e-3, false),
    ];
    for (ivp, h, linear) in &ivps {
        let (ivp, h) = (ivp.as_ref(), *h);
        let mut plans: Vec<StepPlan> = Variant::all()
            .into_iter()
            .map(|v| erk_plan(&Tableau::rk4(), ivp, h, v))
            .collect();
        for v in [Variant::A, Variant::D] {
            plans.push(pirk_plan(&Tableau::radau_iia2(), 3, ivp, h, v));
        }
        let ny = ivp.domain()[1];
        for plan in &plans {
            for threads in 1..=3 {
                for height in [1, 3, ny] {
                    let mut params = default_params(ivp.domain()).threads(threads);
                    params.block[1] = height;
                    let mut op_by_op =
                        Integrator::new(ivp, plan.clone(), h, params.clone()).unwrap();
                    let mut chained =
                        Integrator::new(ivp, plan.clone(), h, params.wavefront(2)).unwrap();
                    let case = format!("{} {} t={threads} H={height}", ivp.name(), plan.name);
                    assert!(!op_by_op.chained(), "{case}");
                    assert_eq!(chained.chained(), *linear, "{case}: chained iff no tape op");
                    for step in 1..=4 {
                        op_by_op.step().unwrap();
                        chained.step().unwrap();
                        for fl in 0..ivp.fields() {
                            let diff = chained.state(fl).max_abs_diff(&op_by_op.state(fl)).unwrap();
                            assert!(diff == 0.0, "{case} step {step} field {fl}: {diff:e}");
                        }
                    }
                }
            }
        }
    }
}

/// The chained step keeps the finiteness scan on the last op writing
/// each field's new state: Wave2d far outside RK4's stability region
/// reports `Diverged` on the same step with and without the chain.
#[test]
fn a_chained_step_reports_divergence_on_the_op_by_op_step() {
    let ivp = Wave2d::new(15, 1.0);
    let h = 0.5;
    for v in Variant::all() {
        let diverged_at = |params: TuningParams| {
            let plan = erk_plan(&Tableau::rk4(), &ivp, h, v);
            let mut integ = Integrator::new(&ivp, plan, h, params).unwrap();
            match integ.run(500) {
                Err(yasksite_ode::OdeError::Diverged { step }) => step,
                other => panic!("h = 0.5 must diverge ({v}): {other:?}"),
            }
        };
        let mut params = default_params(ivp.domain()).threads(3);
        params.block[1] = 3;
        let op_by_op = diverged_at(params.clone());
        assert_eq!(diverged_at(params.wavefront(2)), op_by_op, "variant {v}");
    }
}

/// The simulator walks the chain the integrator runs: on a shrunken
/// Cascade Lake (128 KiB L2, 1 MiB L3), one rk4/E step of Heat3d(48) —
/// a 5 MB pool — walked as one tiled chain, in the tiles Offsite sizes
/// for that machine, moves at least 30 % fewer memory lines than the
/// same step walked op by op (the same chain without a wavefront), for
/// the same lattice updates; so does the steady-state step
/// `measure_plan` reports.
#[test]
fn a_simulated_chained_step_moves_fewer_memory_lines() {
    use offsite::chain_tile_height;
    use yasksite_engine::SimContext;
    let mut m = Machine::cascade_lake();
    m.kind = yasksite_arch::MachineKind::Custom;
    m.cores_per_socket = 4;
    m.caches[1].size_bytes = 128 * 1024;
    m.caches[2].size_bytes = 1024 * 1024;
    m.caches[2].assoc = 16;
    m.validate().unwrap();
    let ivp = Heat3d::new(48);
    let plan = erk_plan(&Tableau::rk4(), &ivp, 1e-5, Variant::E);
    let mut params = TuningParams::new(ivp.domain(), Fold::new(8, 1, 1)).wavefront(2);
    params.block[1] = chain_tile_height(&plan, &m, &params).expect("the pool overflows the LLC");
    let walk = |chained: bool| {
        let mut ctx = SimContext::new(&m, 1);
        let pool: Vec<Grid3> = (0..plan.num_grids)
            .map(|g| ctx.grid(&format!("pool{g}"), plan.domain, plan.halo, params.fold))
            .collect();
        let p = if chained {
            params.clone()
        } else {
            params.clone().wavefront(1)
        };
        let request = SweepRequest::new(&p).tier(TierPolicy::Auto);
        let step = prepare_step(&plan, &pool, &request).unwrap();
        assert_eq!(step.tiled(), chained);
        step.simulate(&mut ctx, &pool).unwrap();
        let run = ctx.finish();
        (
            run.stats.mem_read_lines + run.stats.mem_write_lines,
            run.updates,
        )
    };
    let (op_by_op, updates) = walk(false);
    let (chained, chained_updates) = walk(true);
    assert_eq!(chained_updates, updates);
    assert_eq!(updates, plan.updates_per_step());
    assert!(
        (chained as f64) <= 0.7 * op_by_op as f64,
        "chained {chained} vs op by op {op_by_op} memory lines (tile height {})",
        params.block[1]
    );
    // `measure_plan` walks the chain the tuned parameters ask for.
    let steady = |p: &TuningParams| measure_plan(&plan, &m, p).unwrap().mem_bytes_per_step;
    let (tiled, plain) = (steady(&params), steady(&params.clone().wavefront(1)));
    assert!(
        tiled <= 0.7 * plain,
        "measure_plan: {tiled} vs {plain} bytes"
    );
}

/// `measure_plan` simulates the integrator's own step: on the simulated
/// Cascade Lake it replays a step as one tiled pass exactly when
/// `Integrator::chained()` says the host runs it as one, for rk4 in
/// every variant and PIRK, on a linear and a tape IVP, at wavefront 1
/// and 2, on a row-major and a brick fold. A tiled replay walks another
/// order than the op-by-op one and reads another step time; an op-by-op
/// replay under `wavefront = 2` is the `wavefront = 1` replay, bit for
/// bit.
#[test]
fn measure_plan_tiles_exactly_when_the_integrator_chains() {
    let m = Machine::cascade_lake();
    let ivps: Vec<(Box<dyn Ivp>, f64)> = vec![
        (Box::new(Heat3d::new(24)), 1e-4),
        (Box::new(InverterChain::new(512, 5.0, 1.0, 0.5)), 1e-3),
    ];
    let mut chained_cases = 0;
    for (ivp, h) in &ivps {
        let (ivp, h) = (ivp.as_ref(), *h);
        let mut plans: Vec<StepPlan> = Variant::all()
            .into_iter()
            .map(|v| erk_plan(&Tableau::rk4(), ivp, h, v))
            .collect();
        plans.push(pirk_plan(&Tableau::radau_iia2(), 3, ivp, h, Variant::A));
        for plan in &plans {
            for fold in [Fold::new(8, 1, 1), Fold::new(4, 2, 1)] {
                let step = |p: &TuningParams| {
                    let r = measure_plan(plan, &m, p).unwrap();
                    (r.seconds_per_step, r.mem_bytes_per_step)
                };
                let mut op_by_op = default_params(ivp.domain());
                op_by_op.fold = fold;
                let reference = step(&op_by_op);
                for wavefront in [1, 2] {
                    let p = op_by_op.clone().wavefront(wavefront);
                    let integ = Integrator::new(ivp, plan.clone(), h, p.clone()).unwrap();
                    let case = format!("{} {} {fold} wf={wavefront}", ivp.name(), plan.name);
                    assert_eq!(step(&p) != reference, integ.chained(), "{case}");
                    chained_cases += usize::from(integ.chained());
                }
            }
        }
    }
    assert_eq!(chained_cases, 5, "Heat3d on 8x1x1 at wavefront 2 chains");
}

#[test]
fn integration_is_thread_invariant() {
    let ivp = Heat2d::new(24);
    let h = 5e-5;
    let mk = |threads: usize| {
        let params = TuningParams::new([24, 8, 1], Fold::new(8, 1, 1)).threads(threads);
        let plan = erk_plan(&Tableau::kutta3(), &ivp, h, Variant::D);
        let mut integ = Integrator::new(&ivp, plan, h, params).unwrap();
        integ.run(12).unwrap();
        integ.state(0)
    };
    let one = mk(1);
    let four = mk(4);
    assert!(one.max_abs_diff(&four).unwrap() < 1e-12);
}

#[test]
fn wave_system_energy_stays_bounded() {
    let ivp = Wave2d::new(24, 1.0);
    let h = 5e-4;
    let params = TuningParams::new([24, 8, 1], Fold::new(8, 1, 1));
    let plan = erk_plan(&Tableau::rk4(), &ivp, h, Variant::A);
    let mut integ = Integrator::new(&ivp, plan, h, params).unwrap();
    integ.run(100).unwrap();
    // Standing wave: |u| must stay <= 1 + small integration error.
    let u = integ.state(0);
    for j in 0..24isize {
        for i in 0..24isize {
            assert!(u.get(i, j, 0).abs() < 1.05);
        }
    }
}

#[test]
fn fused_variants_measurably_cheaper_in_simulation() {
    // On a memory-exercising domain, variant D must move less data and
    // take less simulated time per step than variant A.
    let ivp = Heat2d::new(512); // 2 MB/grid, rk4 pool ~ 14 MB
    let m = Machine::rome(); // 16 MB CCX L3 -> pool exceeds eff. capacity
    let params = TuningParams::new([512, 16, 1], Fold::new(4, 1, 1));
    let h = 1e-7;
    let a = measure_plan(&erk_plan(&Tableau::rk4(), &ivp, h, Variant::A), &m, &params).unwrap();
    let d = measure_plan(&erk_plan(&Tableau::rk4(), &ivp, h, Variant::D), &m, &params).unwrap();
    assert!(
        d.seconds_per_step < a.seconds_per_step,
        "D {:.3e}s vs A {:.3e}s",
        d.seconds_per_step,
        a.seconds_per_step
    );
    assert!(d.mem_bytes_per_step <= a.mem_bytes_per_step * 1.05);
}

#[test]
fn plan_prediction_orders_variants_like_simulation() {
    let ivp = Heat2d::new(512);
    let m = Machine::rome();
    let params = TuningParams::new([512, 16, 1], Fold::new(4, 1, 1));
    let h = 1e-7;
    let cache = PredictionCache::new();
    let mut pred = Vec::new();
    let mut meas = Vec::new();
    for v in [Variant::A, Variant::D, Variant::E] {
        let plan = erk_plan(&Tableau::rk4(), &ivp, h, v);
        pred.push(predict_plan_cached(&plan, &m, &params, 1, &cache).seconds_per_step);
        meas.push(measure_plan(&plan, &m, &params).unwrap().seconds_per_step);
    }
    let argmin = |v: &[f64]| {
        v.iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap()
    };
    assert_eq!(
        argmin(&pred),
        argmin(&meas),
        "prediction must rank the fastest variant first (pred {pred:?}, meas {meas:?})"
    );
}

/// The grids a chained step windows are its single-writer stage grids:
/// for rk4, heun2 and euler in every variant and PIRK radauIIA2×3 in A
/// and D, on Heat3d and Wave2d, the plan's transients are exactly the
/// grids outside state and next that one op writes, and no op reads one
/// of them before its writer (nothing of it is carried from step to
/// step). Every rk4 plan has some; the PIRK buffers are all rewritten
/// within a step. In one tile, `prepare_step` windows every transient of
/// the 3-D domain, and none of the 2-D one, whose one-tile window would
/// hold every row of its one plane: no fewer than the grid.
#[test]
fn a_chained_step_windows_exactly_its_single_writer_grids() {
    let ivps: Vec<Box<dyn Ivp>> = vec![Box::new(Heat3d::new(7)), Box::new(Wave2d::new(12, 1.0))];
    for ivp in &ivps {
        let ivp = ivp.as_ref();
        let mut plans: Vec<StepPlan> = Vec::new();
        for tab in [Tableau::rk4(), Tableau::heun2(), Tableau::euler()] {
            plans.extend(Variant::all().map(|v| erk_plan(&tab, ivp, 1e-4, v)));
        }
        for v in [Variant::A, Variant::D] {
            plans.push(pirk_plan(&Tableau::radau_iia2(), 3, ivp, 1e-4, v));
        }
        for plan in &plans {
            let case = format!("{} {}", ivp.name(), plan.name);
            let carried = [&plan.state_grids, &plan.next_grids];
            let single_writer: Vec<usize> = (0..plan.num_grids)
                .filter(|g| !carried.iter().any(|list| list.contains(g)))
                .filter(|&g| plan.ops.iter().filter(|op| op.output == g).count() == 1)
                .collect();
            for &g in &single_writer {
                let writer = plan.ops.iter().position(|op| op.output == g).unwrap();
                let early = plan.ops[..=writer].iter().any(|op| op.inputs.contains(&g));
                assert!(!early, "{case}: grid {g} is read before its writer");
            }
            assert_eq!(plan.transients(), single_writer, "{case}");
            if plan.name.starts_with("rk4") {
                assert!(
                    !single_writer.is_empty(),
                    "{case}: every rk4 stage is transient"
                );
            } else if plan.name.starts_with("pirk") {
                assert!(
                    single_writer.is_empty(),
                    "{case}: every buffer is rewritten"
                );
            }
            let params = default_params(ivp.domain()).wavefront(2);
            let geometry = Grid3::new("g", plan.domain, plan.halo, params.fold);
            let request = SweepRequest::new(&params).tier(TierPolicy::Auto);
            let shapes = vec![&geometry; plan.num_grids];
            let step = prepare_step(plan, &shapes, &request).unwrap();
            assert!(step.tiled(), "{case}");
            let want = if plan.domain[2] > 1 {
                single_writer
            } else {
                Vec::new()
            };
            assert_eq!(step.windowed(), want, "{case}");
            let op_by_op = SweepRequest::new(&params.clone().wavefront(1)).tier(TierPolicy::Auto);
            let step = prepare_step(plan, &shapes, &op_by_op).unwrap();
            assert!(
                step.windowed().is_empty(),
                "{case}: op by op windows nothing"
            );
        }
    }
}

/// Every case of `chained_integrator_steps_match_op_by_op_steps_bitwise`
/// that chains keeps in windows those of the plan's transients whose
/// window is smaller than a whole grid (so that test's bits are the
/// windowed step's), and one that runs op by op keeps none. No window is
/// ever larger than the grid it replaces, though short tiles on these
/// small domains would need such windows; every Heat3d case in one tile
/// windows all its transients.
#[test]
fn every_chained_integrator_case_windows_its_transients() {
    let ivps: Vec<(Box<dyn Ivp>, f64)> = vec![
        (Box::new(Heat2d::new(12)), 1e-4),
        (Box::new(Heat3d::new(7)), 1e-4),
        (Box::new(Wave2d::new(12, 1.0)), 1e-3),
        (Box::new(InverterChain::new(70, 5.0, 1.0, 0.5)), 1e-3),
        (Box::new(Bruss2d::new(10)), 1e-3),
    ];
    let mut windowed = [0; 2];
    for (ivp, h) in &ivps {
        let (ivp, h) = (ivp.as_ref(), *h);
        let mut plans: Vec<StepPlan> = Variant::all()
            .into_iter()
            .map(|v| erk_plan(&Tableau::rk4(), ivp, h, v))
            .collect();
        for v in [Variant::A, Variant::D] {
            plans.push(pirk_plan(&Tableau::radau_iia2(), 3, ivp, h, v));
        }
        let ny = ivp.domain()[1];
        for plan in &plans {
            for threads in 1..=3 {
                for height in [1, 3, ny] {
                    let mut params = default_params(ivp.domain()).threads(threads);
                    params.block[1] = height;
                    let op_by_op = Integrator::new(ivp, plan.clone(), h, params.clone()).unwrap();
                    let chained =
                        Integrator::new(ivp, plan.clone(), h, params.clone().wavefront(2)).unwrap();
                    let case = format!("{} {} t={threads} H={height}", ivp.name(), plan.name);
                    assert!(op_by_op.windowed().is_empty(), "{case}");
                    let kept = chained.windowed();
                    let transients = plan.transients();
                    assert!(kept.iter().all(|g| transients.contains(g)), "{case}");
                    assert!(chained.chained() || kept.is_empty(), "{case}");
                    let params = params.wavefront(2);
                    let whole = Grid3::new("g", plan.domain, plan.halo, params.fold);
                    let shapes = vec![&whole; plan.num_grids];
                    let request = SweepRequest::new(&params);
                    let step = prepare_step(plan, &shapes, &request).unwrap();
                    assert_eq!(step.windowed(), kept, "{case}");
                    for &g in &kept {
                        let (n, halo) = step.window_extent(g).unwrap();
                        let window = Grid3::new("w", n, halo, params.fold);
                        assert!(window.len() < whole.len(), "{case}: grid {g}");
                    }
                    if chained.chained() && plan.domain[2] > 1 && height == ny {
                        assert_eq!(kept, transients, "{case}");
                    }
                    windowed[usize::from(kept.len() == transients.len())] += kept.len();
                }
            }
        }
    }
    assert!(windowed[0] > 0, "some cases keep a transient whole");
    assert!(windowed[1] > windowed[0], "most window all transients");
}

/// The tuned tiles are far taller than the readers' reach, so the size
/// rule never keeps a stage grid whole there: rk4/E on Heat3d(48) in
/// 8-row tiles windows all three of its stage grids, each in a window far
/// smaller than the grid.
#[test]
fn a_tall_tile_windows_every_rk4_e_stage_grid() {
    let ivp = Heat3d::new(48);
    let plan = erk_plan(&Tableau::rk4(), &ivp, 1e-5, Variant::E);
    let mut params = TuningParams::new(ivp.domain(), Fold::new(8, 1, 1)).wavefront(2);
    params.block[1] = 8;
    let whole = Grid3::new("g", plan.domain, plan.halo, params.fold);
    let shapes = vec![&whole; plan.num_grids];
    let request = SweepRequest::new(&params).tier(TierPolicy::Auto);
    let step = prepare_step(&plan, &shapes, &request).unwrap();
    assert_eq!(plan.transients().len(), 3);
    assert_eq!(step.windowed(), plan.transients());
    for g in step.windowed() {
        let (n, halo) = step.window_extent(g).unwrap();
        assert!(4 * Grid3::new("w", n, halo, params.fold).len() < whole.len());
    }
}

/// Windows keep the stage grids in the tile: on the shrunken Cascade
/// Lake of `a_simulated_chained_step_moves_fewer_memory_lines`, the
/// steady-state rk4/E step of Heat3d(48) that `measure_plan` replays in
/// the tiles Offsite sizes moves at most four grids' worth of memory
/// lines: the state read, the new state's write-allocate and write-back,
/// and what the windows spill. Whole stage grids moved about 8.4.
#[test]
fn a_windowed_chained_step_streams_at_most_four_grids() {
    use offsite::chain_tile_height;
    let mut m = Machine::cascade_lake();
    m.kind = yasksite_arch::MachineKind::Custom;
    m.cores_per_socket = 4;
    m.caches[1].size_bytes = 128 * 1024;
    m.caches[2].size_bytes = 1024 * 1024;
    m.caches[2].assoc = 16;
    m.validate().unwrap();
    let ivp = Heat3d::new(48);
    let plan = erk_plan(&Tableau::rk4(), &ivp, 1e-5, Variant::E);
    let mut params = TuningParams::new(ivp.domain(), Fold::new(8, 1, 1)).wavefront(2);
    params.block[1] = chain_tile_height(&plan, &m, &params).expect("the pool overflows the LLC");
    let grid = Grid3::new("g", plan.domain, plan.halo, params.fold);
    let streams =
        measure_plan(&plan, &m, &params).unwrap().mem_bytes_per_step / grid.bytes() as f64;
    assert!(
        streams <= 4.0,
        "{streams:.2} grid streams per step (tile height {})",
        params.block[1]
    );
}
