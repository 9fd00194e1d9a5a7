//! Cross-crate contract tests for the unified [`TuneRequest`] API: the
//! parallel tuning engine must be jobs-invariant — `jobs = N` returns a
//! bitwise-identical result to `jobs = 1` for every strategy, with or
//! without injected faults — the simulated samples a trial runs ahead
//! must change nothing a serial session returns, and the memoized
//! prediction cache must be transparent (a cached prediction equals a
//! fresh one, bit for bit).

use std::sync::Arc;

use proptest::prelude::*;
use yasksite::{FaultPlan, FaultyBackend, MeasureBackend, SolutionBackend, ToolError, TrialBudget};
use yasksite::{
    PredictionCache, SearchSpace, Solution, TrialConfig, TuneCost, TuneRequest, TuneResult,
    TuneStrategy,
};
use yasksite_arch::Machine;
use yasksite_engine::TuningParams;
use yasksite_grid::Fold;
use yasksite_stencil::builders::{heat2d, heat3d};

fn setup() -> (Solution, SearchSpace) {
    let m = Machine::cascade_lake();
    let sol = Solution::new(heat2d(1), [64, 64, 1], m.clone());
    let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), &m);
    (sol, space)
}

/// Runs `req` with a fresh private cache so runs never share state.
fn run_isolated(sol: &Solution, space: &SearchSpace, req: &TuneRequest, jobs: usize) -> TuneResult {
    let req = req
        .clone()
        .cache(Arc::new(PredictionCache::new()))
        .jobs(jobs);
    sol.tune_space_with(space, &req).expect("tuning succeeds")
}

/// Asserts two tune results are bitwise-identical modulo wall time and
/// cache counters (the documented determinism guarantee).
fn assert_identical(a: &TuneResult, b: &TuneResult) {
    assert_eq!(a.best, b.best);
    assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
    assert_eq!(a.ranked.len(), b.ranked.len());
    for ((pa, sa), (pb, sb)) in a.ranked.iter().zip(b.ranked.iter()) {
        assert_eq!(pa, pb);
        assert_eq!(sa.to_bits(), sb.to_bits());
    }
    assert_eq!(a.provenances, b.provenances);
    let (ca, cb) = (
        a.cost.without_cache_counters(),
        b.cost.without_cache_counters(),
    );
    assert_eq!(ca.model_evals, cb.model_evals);
    assert_eq!(ca.engine_runs, cb.engine_runs);
    assert_eq!(ca.target_seconds.to_bits(), cb.target_seconds.to_bits());
    assert_eq!(a.budget.runs_used, b.budget.runs_used);
}

#[test]
fn every_strategy_is_jobs_invariant() {
    let (sol, space) = setup();
    for strategy in [
        TuneStrategy::Analytic,
        TuneStrategy::Empirical,
        TuneStrategy::Hybrid { shortlist: 3 },
    ] {
        let req = TuneRequest::new(strategy).trial(TrialConfig::single_shot());
        let serial = run_isolated(&sol, &space, &req, 1);
        for jobs in [2, 4, 7] {
            let parallel = run_isolated(&sol, &space, &req, jobs);
            assert_identical(&serial, &parallel);
        }
    }
}

#[test]
fn jobs_invariance_holds_under_seeded_faults() {
    let (sol, space) = setup();
    let plan = FaultPlan {
        seed: 0xDEC0DE,
        fail_prob: 0.4,
        nan_prob: 0.1,
        spike_prob: 0.2,
        spike_factor: 8.0,
        ..FaultPlan::none()
    };
    for strategy in [
        TuneStrategy::Empirical,
        TuneStrategy::Hybrid { shortlist: 4 },
    ] {
        let req = TuneRequest::new(strategy)
            .trial(TrialConfig {
                samples: 2,
                ..TrialConfig::default()
            })
            .faults(plan);
        let serial = run_isolated(&sol, &space, &req, 1);
        let parallel = run_isolated(&sol, &space, &req, 4);
        assert_identical(&serial, &parallel);
    }
}

#[test]
fn jobs_invariance_holds_under_a_tight_budget() {
    let (sol, space) = setup();
    let req = TuneRequest::new(TuneStrategy::Empirical)
        .trial(TrialConfig::default())
        .budget(TrialBudget::runs(7));
    let serial = run_isolated(&sol, &space, &req, 1);
    let parallel = run_isolated(&sol, &space, &req, 4);
    assert_identical(&serial, &parallel);
    assert!(serial.budget.exhausted());
}

#[test]
fn oversubscribed_jobs_are_harmless() {
    // More workers than candidates must neither panic nor change output.
    let (sol, space) = setup();
    let req = TuneRequest::new(TuneStrategy::Analytic);
    let serial = run_isolated(&sol, &space, &req, 1);
    let flooded = run_isolated(&sol, &space, &req, 10 * space.len().max(1));
    assert_identical(&serial, &flooded);
}

#[test]
fn warm_cache_changes_counters_but_not_the_answer() {
    let (sol, space) = setup();
    let cache = Arc::new(PredictionCache::new());
    let req = TuneRequest::new(TuneStrategy::Analytic).cache(Arc::clone(&cache));
    let cold = sol.tune_space_with(&space, &req).expect("cold tune");
    let warm = sol.tune_space_with(&space, &req).expect("warm tune");
    assert_identical(&cold, &warm);
    assert_eq!(cold.cost.cache_hits, 0);
    assert!(cold.cost.cache_misses > 0);
    assert_eq!(warm.cost.cache_misses, 0);
    assert_eq!(warm.cost.cache_hits, cold.cost.cache_misses);
}

/// The serial reference: it implements only `run_sample`, so it never
/// prepares anything and measures every sample when the trial asks.
struct Inline<'a>(&'a Solution);

impl MeasureBackend for Inline<'_> {
    fn run_sample(&mut self, params: &TuningParams) -> Result<f64, ToolError> {
        Ok(self.0.measure(params)?.seconds_per_sweep)
    }
}

/// Forwards to `inner`, counting the runs the trials start and the
/// `prepare` calls announcing them, and fails the test if a `prepare` asks
/// for more runs than the budget has left (every `run_sample` call is
/// charged one run) or announces none.
struct BudgetWatch<B> {
    inner: B,
    max_runs: Option<usize>,
    runs: usize,
    prepares: usize,
}

impl<B: MeasureBackend> MeasureBackend for BudgetWatch<B> {
    fn run_sample(&mut self, params: &TuningParams) -> Result<f64, ToolError> {
        self.runs += 1;
        self.inner.run_sample(params)
    }

    fn prepare(&mut self, params: &TuningParams, runs: usize) {
        assert!(runs > 0, "prepare(0) after {} runs", self.runs);
        if let Some(max) = self.max_runs {
            assert!(
                self.runs + runs <= max,
                "prepare({runs}) after {} of {max} runs",
                self.runs
            );
        }
        self.prepares += 1;
        self.inner.prepare(params, runs);
    }
}

/// The whole result, bit for bit, except the wall-clock fields of the
/// cost.
fn assert_same_session(a: &TuneResult, b: &TuneResult, what: &str) {
    assert_eq!(a.best, b.best, "{what}");
    assert_eq!(a.best_score.to_bits(), b.best_score.to_bits(), "{what}");
    let bits = |r: &TuneResult| -> Vec<(TuningParams, u64)> {
        r.ranked
            .iter()
            .map(|(p, s)| (p.clone(), s.to_bits()))
            .collect()
    };
    assert_eq!(bits(a), bits(b), "{what}");
    assert_eq!(a.best_provenance, b.best_provenance, "{what}");
    assert_eq!(a.provenances, b.provenances, "{what}");
    assert_eq!(a.trials, b.trials, "{what}");
    let budget = |r: &TuneResult| {
        let b = r.budget;
        (
            b.max_runs,
            b.max_seconds.map(f64::to_bits),
            b.runs_used,
            b.seconds_used.to_bits(),
        )
    };
    assert_eq!(budget(a), budget(b), "{what}");
    let cost = |r: &TuneResult| TuneCost {
        wall_seconds: 0.0,
        codegen_seconds: 0.0,
        ..r.cost
    };
    assert_eq!(cost(a), cost(b), "{what}");
}

#[test]
fn prepared_simulated_samples_match_a_serial_session() {
    let protocols = [
        (
            "warmup 1, samples 3",
            TrialConfig {
                samples: 3,
                ..TrialConfig::default()
            },
        ),
        ("single shot", TrialConfig::single_shot()),
    ];
    let budgets = [
        TrialBudget::unlimited(),
        TrialBudget::runs(1),
        TrialBudget::runs(5),
        TrialBudget::runs(7),
    ];
    for machine in [Machine::cascade_lake(), Machine::rome()] {
        let sol = Solution::new(heat3d(1), [32, 16, 8], machine);
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), sol.machine());
        for strategy in [
            TuneStrategy::Hybrid { shortlist: 3 },
            TuneStrategy::Empirical,
        ] {
            for (protocol, trial) in protocols {
                for budget in budgets {
                    for faults in [None, Some(FaultPlan::noisy(7))] {
                        let what = format!(
                            "{} {strategy:?}, {protocol}, {:?} runs, faults {}",
                            sol.machine().name,
                            budget.max_runs,
                            faults.is_some()
                        );
                        let fresh = || {
                            TuneRequest::new(strategy)
                                .cores(2)
                                .trial(trial)
                                .budget(budget)
                                .cache(Arc::new(PredictionCache::new()))
                        };
                        let tune = |backend: &mut dyn MeasureBackend| {
                            sol.tune_space_with_backend_req(backend, &space, &fresh())
                                .expect("tuning succeeds")
                        };
                        let reference = tune(&mut FaultyBackend::new(
                            Inline(&sol),
                            faults.unwrap_or_else(FaultPlan::none),
                        ));
                        let mut req = fresh();
                        req.faults = faults;
                        let production =
                            sol.tune_space_with(&space, &req).expect("tuning succeeds");
                        assert_same_session(&reference, &production, &what);

                        let mut watch = BudgetWatch {
                            inner: FaultyBackend::new(
                                SolutionBackend::new(&sol),
                                faults.unwrap_or_else(FaultPlan::none),
                            ),
                            max_runs: budget.max_runs,
                            runs: 0,
                            prepares: 0,
                        };
                        let watched = tune(&mut watch);
                        assert_same_session(&reference, &watched, &what);
                        assert_eq!(watch.runs, reference.budget.runs_used, "{what}");
                        // Each run is announced right before it starts.
                        assert_eq!(watch.prepares, watch.runs, "{what}");
                    }
                }
            }
        }
    }
}

#[test]
fn request_faults_reach_a_bare_backend_as_they_reach_the_solution() {
    let (sol, space) = setup();
    for plan in [FaultPlan::noisy(7), FaultPlan::always_fail(3)] {
        let req = TuneRequest::new(TuneStrategy::Hybrid { shortlist: 3 })
            .cores(2)
            .faults(plan);
        let fresh = || req.clone().cache(Arc::new(PredictionCache::new()));
        let via_solution = sol
            .tune_space_with(&space, &fresh())
            .expect("tuning succeeds");
        let via_backend = sol
            .tune_space_with_backend_req(&mut SolutionBackend::new(&sol), &space, &fresh())
            .expect("tuning succeeds");
        assert_same_session(&via_solution, &via_backend, &format!("{plan:?}"));
    }
}

fn arb_params() -> impl Strategy<Value = TuningParams> {
    (
        1usize..=96,
        1usize..=96,
        prop_oneof![Just(Fold::new(8, 1, 1)), Just(Fold::new(4, 2, 1))],
        1usize..=8,
    )
        .prop_map(|(bx, by, fold, threads)| TuningParams::new([bx, by, 1], fold).threads(threads))
}

proptest! {
    /// The prediction cache is transparent: for any tuning point and core
    /// count, the cached value is bitwise-equal to a fresh prediction,
    /// and a second lookup is a hit returning the same bits.
    #[test]
    fn cached_prediction_equals_fresh(params in arb_params(), cores in 1usize..=8) {
        let m = Machine::cascade_lake();
        let sol = Solution::new(heat2d(1), [96, 96, 1], m);
        let cache = PredictionCache::new();

        let fresh = sol.predict(&params, cores);
        let (first, hit1) = cache.predict(&sol, &params, cores);
        let (second, hit2) = cache.predict(&sol, &params, cores);

        prop_assert!(!hit1, "first lookup must miss");
        prop_assert!(hit2, "second lookup must hit");
        for (a, b) in [(&first, &fresh), (&second, &fresh)] {
            prop_assert_eq!(a.mlups.to_bits(), b.mlups.to_bits());
            prop_assert_eq!(
                a.seconds_per_sweep.to_bits(),
                b.seconds_per_sweep.to_bits()
            );
            prop_assert_eq!(a.wavefront_effective, b.wavefront_effective);
        }
        prop_assert_eq!(cache.hits(), 1);
        prop_assert_eq!(cache.misses(), 1);
    }
}
