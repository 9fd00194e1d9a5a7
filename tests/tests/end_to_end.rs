//! End-to-end pipeline tests spanning all crates: model ↔ simulator
//! agreement, tuner quality, and the Offsite integration.

use offsite::{MethodSpec, Offsite};
use yasksite::{SearchSpace, Solution, TrialConfig, TuneRequest, TuneStrategy};
use yasksite_arch::Machine;
use yasksite_engine::TuningParams;
use yasksite_grid::Fold;
use yasksite_ode::ivps::Heat2d;
use yasksite_ode::Tableau;
use yasksite_stencil::builders::heat3d;

/// The paper's central claim in miniature: on a memory-exercising domain,
/// the analytic ECM prediction tracks the simulator-measured performance
/// within a modest factor across block sizes.
#[test]
fn model_tracks_simulator_across_blocks() {
    let m = Machine::cascade_lake();
    let domain = [96, 48, 48];
    let sol = Solution::new(heat3d(1), domain, m.clone());
    let fold = Fold::new(8, 1, 1);
    for block in [[96, 48, 48], [96, 8, 8], [96, 16, 16]] {
        let p = TuningParams::new(block, fold);
        let pred = sol.predict(&p, 1).mlups;
        let meas = sol.measure(&p).unwrap().mlups;
        let ratio = pred / meas;
        assert!(
            (0.3..3.4).contains(&ratio),
            "block {block:?}: predicted {pred:.0} vs measured {meas:.0} MLUP/s"
        );
    }
}

/// Analytic tuning must agree with empirical tuning about which of two
/// extreme configurations is better.
#[test]
fn analytic_and_empirical_agree_on_extremes() {
    let m = Machine::cascade_lake();
    let domain = [96, 96, 96]; // 2 grids x 7 MB: beyond L2, plane > L1
    let sol = Solution::new(heat3d(1), domain, m);
    let fold = Fold::new(8, 1, 1);
    let good = TuningParams::new([96, 8, 8], fold);
    let bad = TuningParams::new([1, 1, 96], fold); // pathological layout
    let pred_good = sol.predict(&good, 1).mlups;
    let pred_bad = sol.predict(&bad, 1).mlups;
    let meas_good = sol.measure(&good).unwrap().mlups;
    let meas_bad = sol.measure(&bad).unwrap().mlups;
    assert!(pred_good > pred_bad, "model must prefer sane blocks");
    assert!(meas_good > meas_bad, "simulator must prefer sane blocks");
}

/// The hybrid tuner's pick is never worse than the pure-analytic pick
/// (measured), and costs far fewer runs than exhaustive search.
#[test]
fn hybrid_tuning_cost_quality_tradeoff() {
    let m = Machine::cascade_lake();
    let sol = Solution::new(heat3d(1), [48, 48, 48], m.clone());
    let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), &m);
    let hybrid = sol
        .tune_space_with(
            &space,
            &TuneRequest::new(TuneStrategy::Hybrid { shortlist: 3 })
                .trial(TrialConfig::single_shot()),
        )
        .unwrap();
    let analytic = sol
        .tune_space_with(&space, &TuneRequest::new(TuneStrategy::Analytic))
        .unwrap();
    let hybrid_meas = sol.measure(&hybrid.best).unwrap().mlups;
    let analytic_meas = sol.measure(&analytic.best).unwrap().mlups;
    assert!(hybrid_meas >= 0.95 * analytic_meas);
    assert!(hybrid.cost.engine_runs == 3);
    assert!(hybrid.cost.engine_runs < space.len());
}

/// Offsite end-to-end: variants are predicted and measured consistently;
/// the predicted pick lands near the top of the measured ranking; the
/// tuned pick beats the naive baseline.
#[test]
fn offsite_pipeline_on_heat2d() {
    let offsite = Offsite::new(Machine::cascade_lake(), 1);
    let ivp = Heat2d::new(192);
    let methods = [
        MethodSpec::erk(Tableau::heun2()),
        MethodSpec::erk(Tableau::rk4()),
    ];
    let req = TuneRequest::default().trial(TrialConfig::single_shot());
    let r = offsite.evaluate_with(&ivp, &methods, 1e-6, &req).unwrap();
    assert_eq!(r.candidates.len(), 8);
    assert!(
        r.rank_of_pick <= 2,
        "prediction pick should be near the top, got rank {}",
        r.rank_of_pick
    );
    assert!(r.mean_rel_err < 1.0, "mean rel err {}", r.mean_rel_err);
    for (method, speedup) in &r.speedups {
        assert!(
            *speedup >= 0.8,
            "{method}: tuned pick should not lose badly to naive ({speedup:.2}x)"
        );
    }
}

/// The generated kernel source is consistent with the tuned parameters.
#[test]
fn codegen_reflects_tuning() {
    let m = Machine::rome();
    let sol = Solution::new(heat3d(1), [64, 64, 64], m.clone());
    let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), &m);
    let r = sol
        .tune_space_with(&space, &TuneRequest::new(TuneStrategy::Analytic).cores(4))
        .unwrap();
    let code = sol.codegen(&r.best);
    assert!(code.source.contains(&format!("kb += {}", r.best.block[2])));
    assert!(code
        .source
        .contains(&format!("#define FOLD_X {}", r.best.fold.x)));
    assert!(code.source.contains("num_threads(4)"));
}

/// Machine models produce different tuning outcomes (the paper's
/// cross-architecture point): Rome and CLX need not pick the same block.
#[test]
fn predictions_differ_across_machines() {
    let domain = [96, 96, 96];
    let clx = Solution::new(heat3d(1), domain, Machine::cascade_lake());
    let rome = Solution::new(heat3d(1), domain, Machine::rome());
    let p_clx = clx.predict(&TuningParams::new([96, 8, 8], Fold::new(8, 1, 1)), 1);
    let p_rome = rome.predict(&TuningParams::new([96, 8, 8], Fold::new(4, 1, 1)), 1);
    assert!(p_clx.mlups > 0.0 && p_rome.mlups > 0.0);
    assert!((p_clx.mlups - p_rome.mlups).abs() > 1e-6);
}
