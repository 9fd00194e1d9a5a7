//! The model charges the kernel the planner picks, and the simulator
//! charges the same: one `Kernel → Issue` mapping in the engine prices a
//! configuration for `predict_params` and for the simulated backends, so a
//! brick-gather or per-point candidate can no longer out-score the lane
//! kernel it measures slower than.

use yasksite::{predict_params, SearchSpace, Solution, TuneRequest, TuneStrategy};
use yasksite_arch::Machine;
use yasksite_ecm::incore::incore_with_issue;
use yasksite_engine::{plan_kernel, Kernel, SimContext, SweepRequest, TierPolicy};
use yasksite_grid::{Fold, Grid3};
use yasksite_stencil::builders::{box3d, heat3d, paper_suite};
use yasksite_stencil::Stencil;

fn stencils() -> Vec<Stencil> {
    let mut all = paper_suite();
    all.push(box3d(2));
    all
}

fn machines() -> [Machine; 3] {
    [Machine::host(), Machine::cascade_lake(), Machine::rome()]
}

fn domain_for(stencil: &Stencil, n: [usize; 3]) -> [usize; 3] {
    [n[0], n[1], if stencil.dims() == 2 { 1 } else { n[2] }]
}

/// Pricing property: over the paper suite + box-3d-r2, three machine
/// models and every candidate of the standard space, a candidate that
/// plans onto the brick-gather or the per-point kernel never scores above
/// its row-major sibling (same block, same wavefront, fold lanes×1×1) —
/// so, enumerated after it, it can never be the analytic pick.
#[test]
fn gather_and_per_point_candidates_never_outscore_their_row_major_sibling() {
    let mut compared = 0;
    for machine in machines() {
        let inline = Fold::new(machine.lanes(), 1, 1);
        for stencil in stencils() {
            let domain = domain_for(&stencil, [64, 32, 32]);
            let space = SearchSpace::standard(&stencil, domain, &machine);
            for cores in [1, machine.cores_per_socket] {
                for p in space.candidates(cores) {
                    let kernel = plan_kernel(&stencil, &p, TierPolicy::Auto).kernel;
                    if !matches!(kernel, Kernel::BrickGather(_) | Kernel::PerPoint) {
                        continue;
                    }
                    let mut sibling = p.clone();
                    sibling.fold = inline;
                    let score = |q| predict_params(&stencil, domain, &machine, q, cores).mlups;
                    let (mine, theirs) = (score(&p), score(&sibling));
                    assert!(
                        mine <= theirs,
                        "{} on {}: {p} ({kernel:?}) scores {mine:.1}, {sibling} scores {theirs:.1}",
                        stencil.name(),
                        machine.tag(),
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(
        compared > 1000,
        "only {compared} gather/per-point candidates"
    );
}

/// The analytic predictor and the simulated backends take their in-core
/// cycles from the same `Issue`: for every candidate of a small standard
/// space, the non-overlapping cycles the simulation accumulates are its
/// units of work (one per 8 points of a row segment) times the `T_nOL`
/// inside `predict_params`, which in turn is `incore_with_issue` of the
/// planned kernel's issue.
#[test]
fn predictor_and_simulator_charge_the_same_issue() {
    let n = [16, 8, 8];
    let mut kinds = std::collections::HashSet::new();
    for machine in machines() {
        for stencil in stencils() {
            let domain = domain_for(&stencil, n);
            let halo = stencil.info().radius;
            let space = SearchSpace::standard(&stencil, domain, &machine);
            for p in space.candidates(1) {
                let kernel = plan_kernel(&stencil, &p, TierPolicy::Auto).kernel;
                kinds.insert(std::mem::discriminant(&kernel));
                let priced = incore_with_issue(
                    &stencil.info(),
                    &machine.ports,
                    p.fold,
                    kernel.issue(&machine),
                );
                let predicted = predict_params(&stencil, domain, &machine, &p, 1);
                assert_eq!(predicted.ecm.incore, priced, "{} {p}", stencil.name());

                let grids: Vec<Grid3> = (0..stencil.num_inputs())
                    .map(|_| Grid3::new("u", domain, halo, p.fold))
                    .collect();
                let out = Grid3::new("o", domain, halo, p.fold);
                let mut ctx = SimContext::new(&machine, 1);
                let request = SweepRequest::new(&p).tier(TierPolicy::Auto);
                if p.wavefront > 1 {
                    let chain = request.prepare_wavefront(&stencil, &grids[0], &out);
                    chain
                        .unwrap()
                        .simulate(&mut ctx, &[&grids[0], &out])
                        .unwrap();
                } else {
                    let inputs: Vec<&Grid3> = grids.iter().collect();
                    let sweep = request.prepare(&stencil, &inputs, &out).unwrap();
                    sweep.simulate(&mut ctx, &inputs, &out).unwrap();
                }
                let units = (domain[0].div_ceil(8) * domain[1] * domain[2] * p.wavefront) as f64;
                let want = units * priced.t_nol;
                let got = ctx.incore_cycles()[0];
                assert!(
                    (got - want).abs() <= 1e-9 * want,
                    "{} on {} {p} ({kernel:?}): simulator {got}, model {want}",
                    stencil.name(),
                    machine.tag(),
                );
            }
        }
    }
    // Lane rows, brick gather, tape program and per-point all occurred
    // (scalar rows need an unsupported lane count, which no machine has).
    assert_eq!(kinds.len(), 4);
}

/// The model discounts only what tiles: over every candidate of the
/// standard space on three machines, a candidate the predictor credits
/// with the wavefront discount plans the row kernel, the one kernel a
/// tiled pass runs; any other wavefront runs op by op and is priced so.
#[test]
fn the_wavefront_discount_goes_only_to_row_kernels() {
    let mut discounted = 0;
    for machine in machines() {
        for stencil in stencils() {
            let domain = domain_for(&stencil, [128, 64, 64]);
            let space = SearchSpace::standard(&stencil, domain, &machine);
            for cores in [1, machine.cores_per_socket] {
                for p in space.candidates(cores) {
                    if !predict_params(&stencil, domain, &machine, &p, cores).wavefront_effective {
                        continue;
                    }
                    let kernel = plan_kernel(&stencil, &p, TierPolicy::Auto).kernel;
                    assert!(
                        kernel.runs_rows(),
                        "{} on {}: {p} ({kernel:?}) is discounted",
                        stencil.name(),
                        machine.tag(),
                    );
                    discounted += 1;
                }
            }
        }
    }
    assert!(discounted > 100, "only {discounted} discounted candidates");
}

/// The host picks: the spatial pick behind `Offsite::tuned_params` is
/// row-major, and the full-space analytic winner for heat-3d-r1 at 256³
/// (model only) is a configuration the engine does not execute per point
/// — it used to be a depth-8 wavefront on a 4x2x1 fold.
#[test]
fn host_picks_are_row_major_and_never_per_point() {
    use offsite::Offsite;
    use yasksite_ode::ivps::Heat3d;

    let host = Machine::host();
    let (tuned, _) = Offsite::new(host.clone(), 1)
        .tuned_params(&Heat3d::new(32))
        .unwrap();
    assert!(tuned.row_major(), "spatial pick {tuned}");

    let stencil = heat3d(1);
    let solution = Solution::new(stencil.clone(), [256, 256, 256], host);
    let request = TuneRequest::new(TuneStrategy::Analytic).cores(1).jobs(1);
    let winner = solution.tune_with(&request).unwrap();
    let planned = plan_kernel(&stencil, &winner.best, TierPolicy::Auto);
    assert_ne!(planned.kernel, Kernel::PerPoint, "winner {}", winner.best);
    assert!(winner.best.row_major(), "winner {}", winner.best);
    assert!(!planned.degraded, "{}", planned.reason);
}

/// `Offsite::tuned_params` turns the tiled step on exactly where it
/// pays: Heat3d(192) on the host model (a 290 MB rk4/E pool against a
/// 32 MiB LLC share) gets the naive parameters plus `wavefront = 2` and
/// the tallest power-of-two tile whose working set fits the 1 MiB L2
/// share, 32 rows, while twice that height does not fit. Heat3d(32),
/// whose pool fits the LLC (where a tiled rk4/E step measured 1.18–1.31×
/// its op-by-op time; EXPERIMENTS.md E17), keeps its spatial pick;
/// InverterChain(4096), one row tall and on the tape, keeps the naive
/// parameters.
#[test]
fn offsite_tiles_memory_bound_steps_to_the_l2_layer_condition() {
    use offsite::{chain_tile_bytes, chain_tile_height, Offsite};
    use yasksite_ode::ivps::{Heat3d, InverterChain};
    use yasksite_ode::{erk_plan, Tableau, Variant};
    let host = Machine::host();
    let offsite = Offsite::new(host.clone(), 1);
    let ivp = Heat3d::new(192);
    let (tuned, _) = offsite.tuned_params(&ivp).unwrap();
    let mut expect = offsite.naive_params(&ivp).wavefront(2);
    expect.block[1] = 32;
    assert_eq!(tuned, expect);
    let fused = erk_plan(&Tableau::rk4(), &ivp, 1.0, Variant::E);
    let l2 = host.caches[1].size_bytes as f64 * yasksite_ecm::layer::CAPACITY_SAFETY;
    // 17 live planes of 37 rows of 194 points.
    assert_eq!(chain_tile_bytes(&fused, 32, 1), (17 * 37 * 194 * 8) as f64);
    assert!(chain_tile_bytes(&fused, 32, 1) <= l2);
    assert!(chain_tile_bytes(&fused, 64, 1) > l2);

    let small = Heat3d::new(32);
    let (tuned, _) = offsite.tuned_params(&small).unwrap();
    assert_eq!(tuned.wavefront, 1, "{tuned}");
    let fused = erk_plan(&Tableau::rk4(), &small, 1.0, Variant::E);
    assert_eq!(
        chain_tile_height(&fused, &host, &tuned.clone().wavefront(2)),
        None
    );
    let chain = InverterChain::new(4096, 5.0, 1.0, 0.5);
    let (tuned, _) = offsite.tuned_params(&chain).unwrap();
    assert_eq!(tuned, offsite.naive_params(&chain));
}

/// The benchmark's pick rule on `ode-mem` — the smallest
/// `predict_plan_cached` over the four RK4 variants under the tuned
/// parameters — still picks the fully fused variant E once the tuned
/// parameters ask for a tiled step. The plan is priced op by op: the
/// wavefront depth the tuned parameters carry discounts no op.
#[test]
fn the_tuned_heat3d_pick_stays_rk4_e() {
    use offsite::{predict_plan_cached, Offsite};
    use yasksite::PredictionCache;
    use yasksite_ode::ivps::Heat3d;
    use yasksite_ode::{erk_plan, Tableau, Variant};
    let host = Machine::host();
    let ivp = Heat3d::new(192);
    let dx = 1.0 / 193.0;
    let h = 0.1 * dx * dx;
    let (tuned, _) = Offsite::new(host.clone(), 1).tuned_params(&ivp).unwrap();
    assert_eq!(tuned.wavefront, 2);
    let cache = PredictionCache::new();
    let step = |v: Variant| {
        let plan = erk_plan(&Tableau::rk4(), &ivp, h, v);
        predict_plan_cached(&plan, &host, &tuned, 1, &cache).seconds_per_step
    };
    let steps: Vec<(Variant, f64)> = Variant::all().into_iter().map(|v| (v, step(v))).collect();
    let pick = steps.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
    assert_eq!(pick, Variant::E, "predicted steps {steps:?}");
    let op_by_op = tuned.clone().wavefront(1);
    for (v, seconds) in steps {
        let plan = erk_plan(&Tableau::rk4(), &ivp, h, v);
        let unchained = predict_plan_cached(&plan, &host, &op_by_op, 1, &cache).seconds_per_step;
        assert_eq!(seconds.to_bits(), unchained.to_bits(), "variant {v}");
    }
}
