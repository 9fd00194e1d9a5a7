//! The model charges the kernel the planner picks, and the simulator
//! charges the same: one `Kernel → Issue` mapping in the engine prices a
//! configuration for `predict_params` and for the simulated backends, so a
//! brick-gather or per-point candidate can no longer out-score the lane
//! kernel it measures slower than.

use yasksite::{predict_params, SearchSpace, Solution, TuneRequest, TuneStrategy};
use yasksite_arch::Machine;
use yasksite_ecm::incore::incore_with_issue;
use yasksite_engine::{
    apply_simulated, plan_kernel, run_wavefront_simulated, Kernel, SimContext, TierPolicy,
};
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
                if p.wavefront > 1 {
                    run_wavefront_simulated(&stencil, &grids[0], &out, &p, &mut ctx).unwrap();
                } else {
                    let inputs: Vec<&Grid3> = grids.iter().collect();
                    apply_simulated(&stencil, &inputs, &out, &p, &mut ctx).unwrap();
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
    assert!(!planned.degraded(), "{}", planned.reason);
}
