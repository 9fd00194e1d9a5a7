//! Property suite for the online tuner's drift feedback loop.
//!
//! Three guarantees, over arbitrary seeds:
//!
//! 1. **Determinism** — the same seeded backend reproduces the climb,
//!    its fitted corrections, suspect count and re-ranks bit-for-bit.
//! 2. **No-op below threshold** — when measurements track the analytic
//!    model (drift under `DRIFT_SUSPECT_THRESHOLD`), a feedback-enabled
//!    climb is bitwise identical to a feedback-disabled one: corrections
//!    never change results they were not needed for.
//! 3. **Closed loop above threshold** — a backend that is uniformly 4x
//!    slower than the model drives every measured key SUSPECT, fires the
//!    correction, and the fitted coefficient pulls the key's drift back
//!    under the threshold.

use proptest::prelude::*;
use yasksite::telemetry::Telemetry;
use yasksite::{
    KeyCorrection, MeasureBackend, OnlineTuner, PredictionCache, SearchSpace, Solution, ToolError,
    TrialBudget, TrialConfig, TrialRng,
};
use yasksite_arch::Machine;
use yasksite_engine::TuningParams;
use yasksite_grid::Fold;
use yasksite_stencil::builders::heat2d;

/// A backend that echoes the analytic model: each sample is the ECM
/// prediction times `factor`, with seeded multiplicative noise of
/// amplitude `wobble`. `factor = 1, wobble small` keeps drift below the
/// SUSPECT threshold; `factor = 4` blows past it on every key.
struct ModelEcho<'a> {
    sol: &'a Solution,
    factor: f64,
    wobble: f64,
    rng: TrialRng,
}

impl MeasureBackend for ModelEcho<'_> {
    fn run_sample(&mut self, params: &TuningParams) -> Result<f64, ToolError> {
        let pred = self
            .sol
            .predict(params, params.threads.max(1))
            .seconds_per_sweep;
        let eps = self.wobble * (self.rng.next_f64() - 0.5);
        Ok(pred * self.factor * (1.0 + eps))
    }
}

fn setup() -> (Solution, SearchSpace, TuningParams) {
    let m = Machine::cascade_lake();
    let sol = Solution::new(heat2d(1), [64, 64, 1], m.clone());
    let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), &m);
    let template = TuningParams::new([64, 8, 1], Fold::new(8, 1, 1)).threads(1);
    (sol, space, template)
}

#[allow(clippy::type_complexity)]
fn climb(
    sol: &Solution,
    space: &SearchSpace,
    template: &TuningParams,
    factor: f64,
    wobble: f64,
    seed: u64,
    feedback: bool,
) -> (TuningParams, usize, usize, usize, Vec<KeyCorrection>) {
    let mut tuner = OnlineTuner::new(space, template.clone())
        .unwrap()
        .feedback(feedback);
    let mut backend = ModelEcho {
        sol,
        factor,
        wobble,
        rng: TrialRng::new(seed),
    };
    let best = tuner
        .run_to_convergence(
            sol,
            &mut backend,
            &TrialConfig::default(),
            &mut TrialBudget::unlimited(),
            &PredictionCache::new(),
            &Telemetry::disabled(),
        )
        .expect("climb is total");
    (
        best,
        tuner.trials(),
        tuner.model_suspects(),
        tuner.reranks(),
        tuner.corrections(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The feedback loop is fully deterministic under a seed: climbs,
    /// corrections, suspect counts and re-ranks all reproduce.
    #[test]
    fn feedback_loop_is_deterministic_under_seed(
        seed in any::<u64>(),
        factor in prop_oneof![Just(1.0f64), Just(4.0f64)],
    ) {
        let (sol, space, template) = setup();
        let a = climb(&sol, &space, &template, factor, 0.05, seed, true);
        let b = climb(&sol, &space, &template, factor, 0.05, seed, true);
        prop_assert_eq!(&a.0, &b.0, "winner must reproduce");
        prop_assert_eq!(a.1, b.1, "trial count must reproduce");
        prop_assert_eq!(a.2, b.2, "suspect count must reproduce");
        prop_assert_eq!(a.3, b.3, "re-rank count must reproduce");
        prop_assert_eq!(&a.4, &b.4, "fitted corrections must reproduce bitwise");
    }

    /// Below the SUSPECT threshold the feedback loop never acts: the
    /// climb is bitwise identical with feedback on and off.
    #[test]
    fn below_threshold_feedback_changes_nothing(seed in any::<u64>()) {
        let (sol, space, template) = setup();
        // 5% noise around the model itself: p95 drift ~2.5%, far under
        // the 50% threshold.
        let on = climb(&sol, &space, &template, 1.0, 0.05, seed, true);
        let off = climb(&sol, &space, &template, 1.0, 0.05, seed, false);
        prop_assert_eq!(on.2, 0, "no key may go suspect under clean drift");
        prop_assert_eq!(on.3, 0, "no re-rank without a suspect");
        prop_assert_eq!(&on.0, &off.0, "winner must match the no-feedback climb");
        prop_assert_eq!(on.1, off.1, "trial count must match the no-feedback climb");
        prop_assert!(off.4.is_empty(), "disabled feedback fits nothing");
        // Feedback-on still *observes* drift state for every measured key.
        prop_assert_eq!(on.4.len(), on.1, "every measured key carries its state");
        for c in &on.4 {
            prop_assert!(!c.suspect, "{c:?}");
        }
    }

    /// A backend uniformly 4x slower than the model drives keys SUSPECT,
    /// fires corrections, and each fitted coefficient closes the loop:
    /// re-deriving drift under the corrected prediction lands below the
    /// threshold.
    #[test]
    fn high_drift_fires_and_the_correction_closes_the_loop(seed in any::<u64>()) {
        let (sol, space, template) = setup();
        let (best, trials, suspects, reranks, corrections) =
            climb(&sol, &space, &template, 4.0, 0.05, seed, true);
        prop_assert!(trials > 0);
        prop_assert!(suspects > 0, "4x drift must flag keys suspect");
        prop_assert!(reranks >= suspects, "every suspect re-ranks the open queue");
        let in_lattice = space
            .blocks()
            .iter()
            .any(|b| b[1] == best.block[1] && b[2] == best.block[2]);
        prop_assert!(in_lattice, "{:?} not in lattice", best.block);
        for c in &corrections {
            prop_assert!(c.suspect, "uniform 4x drift must mark every key: {c:?}");
            // The key measured ~4x slower, so the fitted throughput
            // coefficient is ~1/4 ...
            prop_assert!((c.coeff - 0.25).abs() < 0.05, "coeff {} not ~0.25", c.coeff);
            // ... and correcting the prediction by it cancels the
            // drift: |(1 + d)/coeff - 1| stays under the threshold for
            // the whole observed drift range (signed d in
            // [-max_abs, -p50] here, since the backend only slows).
            for d in [-c.stats.max_abs, -c.stats.p95, -c.stats.p50] {
                let residual = ((1.0 + d) / c.coeff - 1.0).abs();
                prop_assert!(
                    residual < yasksite_ecm::DRIFT_SUSPECT_THRESHOLD,
                    "corrected residual {residual} at drift {d} (coeff {})",
                    c.coeff
                );
            }
        }
    }
}
