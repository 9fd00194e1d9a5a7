//! Property-based tests of the fault-tolerant trial layer and the tuner
//! built on it: under *any* seeded fault plan the public tuning API must
//! terminate, never panic, never emit a non-finite estimate, and label
//! every result with accurate provenance.

use proptest::prelude::*;
use yasksite::{
    run_trial, FallbackReason, FaultPlan, FaultyBackend, MeasureBackend, Provenance, SearchSpace,
    Solution, ToolError, TrialBudget, TrialConfig, TuneRequest, TuneStrategy,
};
use yasksite_arch::Machine;
use yasksite_engine::TuningParams;
use yasksite_grid::Fold;
use yasksite_stencil::builders::heat2d;

/// A fast deterministic measurement landscape: no simulation, just a
/// smooth function of the block so tuner properties run in microseconds.
struct Synthetic;

impl MeasureBackend for Synthetic {
    fn run_sample(&mut self, params: &TuningParams) -> Result<f64, ToolError> {
        let [bx, by, bz] = params.block;
        Ok(1e-3 * (1.0 + 8.0 / by as f64 + bz as f64 / 64.0 + bx as f64 * 1e-6))
    }
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    let mixed = (
        any::<u64>(),
        0.0f64..0.9,
        0.0f64..0.3,
        0.0f64..0.5,
        1.0f64..16.0,
    )
        .prop_map(
            |(seed, fail_prob, nan_prob, spike_prob, spike_factor)| FaultPlan {
                seed,
                fail_prob,
                nan_prob,
                spike_prob,
                spike_factor,
                ..FaultPlan::none()
            },
        );
    prop_oneof![
        3 => mixed,
        1 => any::<u64>().prop_map(FaultPlan::always_fail),
        1 => Just(FaultPlan::none()),
    ]
}

fn arb_cfg() -> impl Strategy<Value = TrialConfig> {
    (0usize..3, 1usize..6, 0usize..4).prop_map(|(warmup, samples, max_retries)| TrialConfig {
        warmup,
        samples,
        max_retries,
        ..TrialConfig::default()
    })
}

fn small_setup() -> (Solution, SearchSpace) {
    let m = Machine::cascade_lake();
    let sol = Solution::new(heat2d(1), [64, 64, 1], m.clone());
    let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), &m);
    (sol, space)
}

proptest! {
    /// `run_trial` never fails, never returns a non-finite estimate, and
    /// its provenance matches what actually happened.
    #[test]
    fn trial_is_total_and_honest(plan in arb_plan(), cfg in arb_cfg()) {
        let params = TuningParams::new([32, 8, 1], Fold::new(8, 1, 1));
        let fallback = 0.125;
        let mut budget = TrialBudget::unlimited();
        let mut backend = FaultyBackend::new(Synthetic, plan);
        let r = run_trial(&mut backend, &params, fallback, &cfg, &mut budget);

        prop_assert!(r.seconds_per_sweep.is_finite() && r.seconds_per_sweep > 0.0);
        prop_assert!(r.retries <= cfg.max_retries);
        prop_assert!(r.samples.len() <= cfg.samples);
        match r.provenance {
            Provenance::Measured => prop_assert_eq!(r.retries, 0),
            Provenance::Retried { retries } => {
                prop_assert_eq!(retries, r.retries);
                prop_assert!(retries > 0);
            }
            Provenance::PredictedFallback { reason } => {
                // Fallback means no usable sample survived; the estimate
                // is exactly the analytic prediction.
                prop_assert_eq!(r.seconds_per_sweep.to_bits(), fallback.to_bits());
                prop_assert_eq!(r.kept, 0);
                prop_assert_eq!(reason, FallbackReason::AllSamplesFailed);
            }
        }
        if !r.provenance.is_fallback() {
            prop_assert!(r.kept >= 1);
            prop_assert_eq!(r.kept + r.rejected, r.samples.len());
        }
        // A guaranteed-hostile plan must always fall back.
        if plan.fail_prob >= 1.0 {
            prop_assert!(r.provenance.is_fallback());
        }
    }

    /// Identical seeds reproduce trials bit-for-bit.
    #[test]
    fn trials_are_deterministic(plan in arb_plan(), cfg in arb_cfg()) {
        let params = TuningParams::new([32, 8, 1], Fold::new(8, 1, 1));
        let once = |()| {
            let mut budget = TrialBudget::unlimited();
            let mut backend = FaultyBackend::new(Synthetic, plan);
            run_trial(&mut backend, &params, 0.125, &cfg, &mut budget)
        };
        let (a, b) = (once(()), once(()));
        prop_assert_eq!(a.seconds_per_sweep.to_bits(), b.seconds_per_sweep.to_bits());
        prop_assert_eq!(a.provenance, b.provenance);
        prop_assert_eq!(a.attempts, b.attempts);
        prop_assert_eq!(a.samples.len(), b.samples.len());
    }

    /// The batch tuner ranks the *whole* space under any fault plan with
    /// finite scores and provenance for every candidate, and reproduces
    /// itself from the same seed.
    #[test]
    fn batch_tuner_ranks_everything_under_faults(plan in arb_plan()) {
        let (sol, space) = small_setup();
        let cfg = TrialConfig { samples: 2, ..TrialConfig::default() };
        let once = |()| {
            let mut backend = FaultyBackend::new(Synthetic, plan);
            let req = TuneRequest::new(TuneStrategy::Empirical).trial(cfg);
            sol.tune_space_with_backend_req(&mut backend, &space, &req)
                .expect("tuning is total under faults")
        };
        let r = once(());
        prop_assert_eq!(r.ranked.len(), space.len());
        prop_assert_eq!(r.provenances.len(), r.ranked.len());
        for (p, score) in &r.ranked {
            prop_assert!(score.is_finite() && *score > 0.0, "{p}: {score}");
        }
        prop_assert!(r.fallback_count() <= r.ranked.len());
        if plan.fail_prob >= 1.0 {
            prop_assert_eq!(r.fallback_count(), r.ranked.len());
        }
        let r2 = once(());
        prop_assert_eq!(r.best.block, r2.best.block);
        prop_assert_eq!(r.best_score.to_bits(), r2.best_score.to_bits());
    }

    /// Exhausting the budget mid-session never loses candidates: every
    /// point is still ranked, the overflow on analytic fallbacks.
    #[test]
    fn budget_exhaustion_degrades_gracefully(plan in arb_plan(), max_runs in 1usize..30) {
        let (sol, space) = small_setup();
        let mut backend = FaultyBackend::new(Synthetic, plan);
        let req = TuneRequest::new(TuneStrategy::Empirical).budget(TrialBudget::runs(max_runs));
        let r = sol
            .tune_space_with_backend_req(&mut backend, &space, &req)
            .expect("tuning is total under budgets");
        prop_assert_eq!(r.ranked.len(), space.len());
        for (_, score) in &r.ranked {
            prop_assert!(score.is_finite() && *score > 0.0);
        }
        prop_assert!(r.budget.runs_used <= max_runs);
    }
}
