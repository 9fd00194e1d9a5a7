//! The Offsite evaluation loop: enumerate, predict, rank, validate.

use yasksite::telemetry::{Level, SpanGuard};
use yasksite::{
    run_trial_observed, FaultPlan, FaultyBackend, PredictionCache, Provenance, SearchSpace,
    Solution, ToolError, TrialBudget, TrialConfig, TrialResult, TrialSummary, TuneCost,
    TuneRequest, TuneStrategy,
};
use yasksite_arch::Machine;
use yasksite_engine::TuningParams;
use yasksite_ode::{erk_plan, Ivp, StepPlan, Tableau, Variant};

use crate::method::MethodSpec;
use crate::plan_perf::{chain_tile_height, predict_plan_cached, PlanBackend};

/// One evaluated `(method, variant)` candidate.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// Method name.
    pub method: String,
    /// Implementation variant.
    pub variant: Variant,
    /// Tuning parameters YaskSite selected for the kernels.
    pub params: TuningParams,
    /// Predicted seconds per step.
    pub predicted_s: f64,
    /// Simulator-measured seconds per step (or the analytic prediction
    /// when measurement fell back — see `provenance`).
    pub measured_s: f64,
    /// `|predicted - measured| / measured` (zero for fallback candidates,
    /// whose "measurement" *is* the prediction).
    pub rel_err: f64,
    /// How `measured_s` was obtained.
    pub provenance: Provenance,
}

/// Full evaluation of an IVP across methods and variants.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// All candidates, sorted by measured step time (fastest first).
    pub candidates: Vec<CandidateReport>,
    /// Whether the prediction-ranked winner is also the measured winner.
    pub picked_best: bool,
    /// Measured rank (0-based) of the prediction-ranked winner.
    pub rank_of_pick: usize,
    /// Per-method speedup of the predicted pick over that method's naive
    /// baseline (variant A, unblocked, in-line fold): `(method, speedup)`.
    pub speedups: Vec<(String, f64)>,
    /// Mean relative prediction error over the *measured* (non-fallback)
    /// candidates; zero when every candidate fell back.
    pub mean_rel_err: f64,
    /// Maximum relative prediction error over the measured candidates.
    pub max_rel_err: f64,
    /// Cost of the *selection* work (model evaluations; what the paper's
    /// Offsite+YaskSite pipeline spends).
    pub select_cost: TuneCost,
    /// Cost of the validation measurements (what an exhaustive empirical
    /// tuner would spend).
    pub validate_cost: TuneCost,
    /// Aggregate trial statistics (samples, rejections, retries,
    /// fallbacks) across every measurement in the report.
    pub trials: TrialSummary,
    /// How many candidates rest on the analytic fallback rather than a
    /// real measurement.
    pub fallback_candidates: usize,
    /// Final state of the session budget.
    pub budget: TrialBudget,
}

/// The offline tuner bound to a machine model and an active core count.
#[derive(Debug, Clone)]
pub struct Offsite {
    machine: Machine,
    cores: usize,
}

impl Offsite {
    /// Creates the tuner for `cores` active cores of `machine`.
    #[must_use]
    pub fn new(machine: Machine, cores: usize) -> Self {
        Offsite { machine, cores }
    }

    /// The target machine.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// YaskSite-tuned kernel parameters for this IVP: the analytic tuner
    /// runs on the dominant (RHS) kernel over the spatial-only space.
    /// When the pool of the IVP's fully fused RK4 step (rk4/E) overflows
    /// the last-level cache, the parameters also ask for each step to run
    /// as one tiled pass over its ops (`wavefront = 2`), in tiles whose
    /// height `block[1]` is sized by an L2 layer condition
    /// ([`crate::chain_tile_height`]).
    ///
    /// # Errors
    /// Propagates tool errors.
    pub fn tuned_params(&self, ivp: &dyn Ivp) -> Result<(TuningParams, TuneCost), ToolError> {
        self.tune_rhs(ivp, &TuneRequest::default())
    }

    /// [`Offsite::tuned_params`] with the worker count, prediction cache
    /// and telemetry of `req`. Every other field is fixed: the tune is
    /// analytic, single-shot and on `self.cores`, and it never profiles.
    fn tune_rhs(
        &self,
        ivp: &dyn Ivp,
        req: &TuneRequest,
    ) -> Result<(TuningParams, TuneCost), ToolError> {
        let rhs = ivp.rhs(0);
        let sol = Solution::new(rhs, ivp.domain(), self.machine.clone());
        let space = SearchSpace::spatial_only(sol.stencil(), ivp.domain(), &self.machine);
        let req = TuneRequest {
            jobs: req.jobs,
            cache: req.cache.clone(),
            telemetry: req.telemetry.clone(),
            ..TuneRequest::new(TuneStrategy::Analytic)
                .cores(self.cores)
                .trial(TrialConfig::single_shot())
        };
        let r = sol.tune_space_with(&space, &req)?;
        let mut params = r.best;
        params.threads = self.cores;
        // Plan coefficients scale with the step size; the grids and
        // reaches the tile is sized from do not.
        let fused = erk_plan(&Tableau::rk4(), ivp, 1.0, Variant::E);
        if let Some(height) = chain_tile_height(&fused, &self.machine, &params) {
            params.wavefront = 2;
            params.block[1] = height;
        }
        Ok((params, r.cost))
    }

    /// Naive baseline parameters: unblocked, in-line fold, no temporal
    /// blocking — what a straightforward OpenMP implementation does.
    #[must_use]
    pub fn naive_params(&self, ivp: &dyn Ivp) -> TuningParams {
        TuningParams::new(
            ivp.domain(),
            yasksite_grid::Fold::new(self.machine.lanes(), 1, 1),
        )
        .threads(self.cores)
    }

    /// One robust trial of a whole step plan under `req`'s protocol and
    /// fault plan (sub-stream `stream` of it), with the analytic
    /// prediction as the fallback estimate.
    #[allow(clippy::too_many_arguments)]
    fn measure_step_trial(
        &self,
        plan: &StepPlan,
        params: &TuningParams,
        fallback_seconds: f64,
        stream: u64,
        req: &TuneRequest,
        budget: &mut TrialBudget,
        parent: &SpanGuard,
    ) -> TrialResult {
        let faults = req.faults.unwrap_or_else(FaultPlan::none).stream(stream);
        run_trial_observed(
            &mut FaultyBackend::new(PlanBackend::new(plan, &self.machine), faults),
            params,
            fallback_seconds,
            &req.trial,
            budget,
            &req.telemetry,
            Some(parent),
        )
    }

    /// Evaluates every `(method, variant)` candidate on `ivp` with step
    /// size `h`: predicts each, measures each on the simulated hierarchy,
    /// and reports prediction accuracy, ranking quality, per-method
    /// speedups over the naive baseline, and both cost ledgers.
    ///
    /// The session reads its configuration from `req`. Every plan
    /// measurement (candidates and naive baselines) runs under the
    /// request's `trial` protocol against its `budget`, with its `faults`
    /// injected (each measurement on its own sub-stream of the plan), and
    /// falls back to the analytic prediction when sampling fails or the
    /// budget runs out; the final budget comes back in
    /// [`EvalReport::budget`]. Plan predictions come from the request's
    /// `cache`, and the session records into its `telemetry`. The
    /// parameter phase is [`Offsite::tuned_params`] under the request's
    /// `jobs`, `cache` and `telemetry`: an analytic, single-shot tune on
    /// the cores this tuner was built for, so the request's `strategy`,
    /// `cores`, `profile` and `drift_cap` do not apply. The report is
    /// identical for every worker count.
    ///
    /// # Errors
    /// Returns [`ToolError::InvalidInput`] for an empty method list or a
    /// method without variants; propagates tool errors from parameter
    /// tuning. Measurement failures never error.
    pub fn evaluate_with(
        &self,
        ivp: &dyn Ivp,
        methods: &[MethodSpec],
        h: f64,
        req: &TuneRequest,
    ) -> Result<EvalReport, ToolError> {
        if methods.is_empty() {
            return Err(ToolError::InvalidInput("no methods to evaluate".into()));
        }
        let mut budget = req.budget;
        let budget = &mut budget;
        let cache = req.cache_ref();
        let tel = &req.telemetry;
        let session = tel.span("eval_session");
        tel.event(
            Level::Info,
            "session_start",
            session.id(),
            &[
                ("strategy", "offsite".into()),
                ("cores", self.cores.into()),
                ("methods", methods.len().into()),
            ],
        );
        let mut select_cost = TuneCost::default();
        let mut validate_cost = TuneCost::default();
        let mut trials = TrialSummary::default();
        let (params, tune_cost) = self.tune_rhs(ivp, req)?;
        select_cost += tune_cost;

        let mut candidates = Vec::new();
        let mut speedups = Vec::new();
        let mut stream = 0u64;
        for m in methods {
            let mut per_method: Vec<usize> = Vec::new();
            for v in m.variants() {
                let plan = m.plan(ivp, h, v);
                let t0 = std::time::Instant::now();
                let pred = predict_plan_cached(&plan, &self.machine, &params, self.cores, cache);
                select_cost.model_evals += plan.ops.len();
                select_cost.cache_hits += pred.cache_hits;
                select_cost.cache_misses += pred.cache_misses;
                select_cost.wall_seconds += t0.elapsed().as_secs_f64();

                let t1 = std::time::Instant::now();
                let r = self.measure_step_trial(
                    &plan,
                    &params,
                    pred.seconds_per_step,
                    stream,
                    req,
                    budget,
                    &session,
                );
                stream += 1;
                validate_cost.engine_runs += r.attempts;
                validate_cost.target_seconds += 2.0 * r.seconds_per_sweep;
                validate_cost.wall_seconds += t1.elapsed().as_secs_f64();
                trials.absorb(&r);

                let measured_s = r.seconds_per_sweep;
                per_method.push(candidates.len());
                candidates.push(CandidateReport {
                    method: m.name(),
                    variant: v,
                    params: params.clone(),
                    predicted_s: pred.seconds_per_step,
                    measured_s,
                    rel_err: (pred.seconds_per_step - measured_s).abs() / measured_s.max(1e-300),
                    provenance: r.provenance,
                });
            }
            // Per-method speedup: predicted pick vs naive variant-A run.
            let Some(pick) = per_method.iter().copied().min_by(|&a, &b| {
                candidates[a]
                    .predicted_s
                    .total_cmp(&candidates[b].predicted_s)
            }) else {
                return Err(ToolError::InvalidInput(format!(
                    "method {} has no variants",
                    m.name()
                )));
            };
            let naive = self.naive_params(ivp);
            let base_plan = m.plan(ivp, h, Variant::A);
            let base_pred =
                predict_plan_cached(&base_plan, &self.machine, &naive, self.cores, cache);
            select_cost.cache_hits += base_pred.cache_hits;
            select_cost.cache_misses += base_pred.cache_misses;
            let base = self.measure_step_trial(
                &base_plan,
                &naive,
                base_pred.seconds_per_step,
                stream,
                req,
                budget,
                &session,
            );
            stream += 1;
            validate_cost.engine_runs += base.attempts;
            validate_cost.target_seconds += 2.0 * base.seconds_per_sweep;
            trials.absorb(&base);
            speedups.push((
                m.name(),
                base.seconds_per_sweep / candidates[pick].measured_s,
            ));
        }

        // Ranking quality: where does the prediction's favourite land in
        // the measured order? `candidates` is non-empty here (each method
        // contributed at least one variant), so the fallbacks to index 0
        // are unreachable — they just keep the API panic-free.
        let pred_pick = (0..candidates.len())
            .min_by(|&a, &b| {
                candidates[a]
                    .predicted_s
                    .total_cmp(&candidates[b].predicted_s)
            })
            .unwrap_or(0);
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| {
            candidates[a]
                .measured_s
                .total_cmp(&candidates[b].measured_s)
        });
        let rank_of_pick = order.iter().position(|&i| i == pred_pick).unwrap_or(0);

        // Prediction accuracy is only meaningful against real
        // measurements; fallback candidates compare the model to itself.
        let measured_errs: Vec<f64> = candidates
            .iter()
            .filter(|c| !c.provenance.is_fallback())
            .map(|c| c.rel_err)
            .collect();
        let mean_rel_err = if measured_errs.is_empty() {
            0.0
        } else {
            measured_errs.iter().sum::<f64>() / measured_errs.len() as f64
        };
        let max_rel_err = measured_errs.iter().copied().fold(0.0, f64::max);
        let fallback_candidates = candidates
            .iter()
            .filter(|c| c.provenance.is_fallback())
            .count();
        let mut sorted = candidates.clone();
        sorted.sort_by(|a, b| a.measured_s.total_cmp(&b.measured_s));
        tel.event(
            Level::Info,
            "session_end",
            session.id(),
            &[
                ("candidates", sorted.len().into()),
                ("rank_of_pick", rank_of_pick.into()),
                ("fallback_candidates", fallback_candidates.into()),
            ],
        );
        Ok(EvalReport {
            candidates: sorted,
            picked_best: rank_of_pick == 0,
            rank_of_pick,
            speedups,
            mean_rel_err,
            max_rel_err,
            select_cost,
            validate_cost,
            trials,
            fallback_candidates,
            budget: *budget,
        })
    }
}

/// One row of a work–precision ranking: the predicted wall time to
/// integrate a unit time interval at a given accuracy with this
/// candidate.
#[derive(Debug, Clone)]
pub struct WorkPrecisionEntry {
    /// Method name.
    pub method: String,
    /// Implementation variant.
    pub variant: Variant,
    /// Method order.
    pub order: usize,
    /// Step size implied by the tolerance (`h = tol^(1/p)`, normalised
    /// error constant).
    pub step_size: f64,
    /// Predicted seconds for the whole integration.
    pub predicted_total_s: f64,
}

impl Offsite {
    /// Ranks `(method, variant)` candidates by the *work to reach a
    /// tolerance*, the criterion Offsite actually optimises: an order-`p`
    /// method needs `h ≈ tol^(1/p)` (error constants normalised to 1), so
    /// the predicted total time over `[0, t_end]` is
    /// `ceil(t_end / h) · predicted_step_time(h)`. Higher-order methods
    /// cost more per step but win at tight tolerances — the ranking
    /// exposes the crossover.
    ///
    /// Returns entries sorted by predicted total time, fastest first.
    ///
    /// # Errors
    /// Returns [`ToolError::InvalidInput`] for an empty method list or a
    /// non-positive `tol`/`t_end`; propagates tool errors from parameter
    /// tuning.
    pub fn rank_by_tolerance(
        &self,
        ivp: &dyn Ivp,
        methods: &[MethodSpec],
        tol: f64,
        t_end: f64,
    ) -> Result<Vec<WorkPrecisionEntry>, ToolError> {
        if methods.is_empty() {
            return Err(ToolError::InvalidInput("no methods to rank".into()));
        }
        if !(tol > 0.0 && t_end > 0.0) {
            return Err(ToolError::InvalidInput(
                "tolerance and horizon must be positive".into(),
            ));
        }
        let (params, _) = self.tuned_params(ivp)?;
        let mut out = Vec::new();
        for m in methods {
            let p = m.order().max(1);
            let h = tol.powf(1.0 / p as f64);
            let steps = (t_end / h).ceil().max(1.0);
            for v in m.variants() {
                let plan = m.plan(ivp, h, v);
                let pred = predict_plan_cached(
                    &plan,
                    &self.machine,
                    &params,
                    self.cores,
                    PredictionCache::global(),
                );
                out.push(WorkPrecisionEntry {
                    method: m.name(),
                    variant: v,
                    order: p,
                    step_size: h,
                    predicted_total_s: steps * pred.seconds_per_step,
                });
            }
        }
        out.sort_by(|a, b| a.predicted_total_s.total_cmp(&b.predicted_total_s));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use yasksite::telemetry::Telemetry;
    use yasksite_ode::ivps::{Heat2d, Heat3d};
    use yasksite_ode::Tableau;

    /// The protocol the experiments evaluate under: one sample per plan.
    fn single_shot() -> TuneRequest {
        TuneRequest::default().trial(TrialConfig::single_shot())
    }

    #[test]
    fn evaluate_heat2d_small() {
        let offsite = Offsite::new(Machine::cascade_lake(), 1);
        let ivp = Heat2d::new(48);
        let methods = [MethodSpec::erk(Tableau::heun2())];
        let r = offsite
            .evaluate_with(&ivp, &methods, 1e-5, &single_shot())
            .unwrap();
        assert_eq!(r.candidates.len(), 4); // variants A, B, D, E
        assert!(r.mean_rel_err.is_finite());
        assert!(r.rank_of_pick < 3);
        for (m, s) in &r.speedups {
            assert!(*s > 0.0, "{m} speedup {s}");
        }
        // Selection spends model evals, validation spends runs.
        assert!(r.select_cost.model_evals > 0);
        assert_eq!(r.select_cost.engine_runs, 0);
        assert!(r.validate_cost.engine_runs >= 4);
        // A clean backend measures everything for real.
        assert_eq!(r.fallback_candidates, 0);
        assert_eq!(r.trials.fallbacks, 0);
        assert!(r.trials.samples >= r.candidates.len());
        for c in &r.candidates {
            assert_eq!(c.provenance, Provenance::Measured);
        }
    }

    #[test]
    fn tuned_params_use_requested_cores() {
        let offsite = Offsite::new(Machine::rome(), 4);
        let ivp = Heat3d::new(32);
        let (p, cost) = offsite.tuned_params(&ivp).unwrap();
        assert_eq!(p.threads, 4);
        assert!(cost.model_evals > 0);
    }

    #[test]
    fn work_precision_crossover() {
        // At a loose tolerance the cheap low-order method wins; at a
        // tight tolerance the high-order method overtakes it.
        let offsite = Offsite::new(Machine::cascade_lake(), 1);
        let ivp = Heat2d::new(32);
        let methods = [
            MethodSpec::erk(Tableau::euler()),
            MethodSpec::erk(Tableau::rk4()),
        ];
        let loose = offsite.rank_by_tolerance(&ivp, &methods, 0.5, 1.0).unwrap();
        let tight = offsite
            .rank_by_tolerance(&ivp, &methods, 1e-10, 1.0)
            .unwrap();
        assert_eq!(loose[0].method, "euler", "loose tolerance favours Euler");
        assert_eq!(tight[0].method, "rk4", "tight tolerance favours RK4");
        // Sorted ascending by predicted time.
        for w in loose.windows(2) {
            assert!(w[0].predicted_total_s <= w[1].predicted_total_s);
        }
        // Step sizes follow h = tol^(1/p).
        let rk4 = tight.iter().find(|e| e.method == "rk4").unwrap();
        assert!((rk4.step_size - 1e-10f64.powf(0.25)).abs() < 1e-12);
    }

    #[test]
    fn naive_params_are_unblocked() {
        let offsite = Offsite::new(Machine::cascade_lake(), 2);
        let ivp = Heat2d::new(32);
        let p = offsite.naive_params(&ivp);
        assert_eq!(p.block, [32, 32, 1]);
        assert_eq!(p.wavefront, 1);
    }

    #[test]
    fn empty_inputs_are_errors_not_panics() {
        let offsite = Offsite::new(Machine::cascade_lake(), 1);
        let ivp = Heat2d::new(16);
        let err = offsite
            .evaluate_with(&ivp, &[], 1e-5, &single_shot())
            .unwrap_err();
        assert!(matches!(err, ToolError::InvalidInput(_)), "{err}");
        let methods = [MethodSpec::erk(Tableau::euler())];
        let err = offsite.rank_by_tolerance(&ivp, &[], 1e-3, 1.0).unwrap_err();
        assert!(matches!(err, ToolError::InvalidInput(_)), "{err}");
        let err = offsite
            .rank_by_tolerance(&ivp, &methods, -1.0, 1.0)
            .unwrap_err();
        assert!(matches!(err, ToolError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn total_measurement_failure_degrades_to_the_model() {
        let ivp = Heat2d::new(32);
        let methods = [MethodSpec::erk(Tableau::heun2())];
        let eval = |seed: u64| {
            let req = single_shot().faults(FaultPlan::always_fail(seed));
            Offsite::new(Machine::cascade_lake(), 1)
                .evaluate_with(&ivp, &methods, 1e-5, &req)
                .unwrap()
        };
        let r = eval(7);
        assert_eq!(r.candidates.len(), 4);
        assert_eq!(r.fallback_candidates, r.candidates.len());
        for c in &r.candidates {
            assert!(c.provenance.is_fallback(), "{:?}", c.provenance);
            // The "measurement" is the analytic prediction itself.
            assert_eq!(c.measured_s, c.predicted_s);
            assert!(c.measured_s.is_finite() && c.measured_s > 0.0);
        }
        // No real measurements -> no accuracy claim.
        assert_eq!(r.mean_rel_err, 0.0);
        assert_eq!(r.max_rel_err, 0.0);
        // The pick equals the model's favourite, so the report agrees
        // with itself.
        assert!(r.picked_best);
        // Deterministic: the same fault seed reproduces the report.
        let r2 = eval(7);
        for (a, b) in r.candidates.iter().zip(&r2.candidates) {
            assert_eq!(a.method, b.method);
            assert_eq!(a.variant, b.variant);
            assert_eq!(a.measured_s.to_bits(), b.measured_s.to_bits());
        }
    }

    #[test]
    fn evaluate_with_is_jobs_invariant() {
        let ivp = Heat2d::new(32);
        let methods = [MethodSpec::erk(Tableau::heun2())];
        let offsite = Offsite::new(Machine::cascade_lake(), 1);
        let run = |jobs: usize| {
            offsite
                .evaluate_with(
                    &ivp,
                    &methods,
                    1e-5,
                    &single_shot()
                        .jobs(jobs)
                        .cache(Arc::new(PredictionCache::new())),
                )
                .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.candidates.len(), b.candidates.len());
        for (x, y) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(x.method, y.method);
            assert_eq!(x.variant, y.variant);
            assert_eq!(x.params, y.params);
            assert_eq!(x.predicted_s.to_bits(), y.predicted_s.to_bits());
            assert_eq!(x.measured_s.to_bits(), y.measured_s.to_bits());
        }
        assert_eq!(a.rank_of_pick, b.rank_of_pick);
        assert_eq!(
            a.select_cost.without_cache_counters().model_evals,
            b.select_cost.without_cache_counters().model_evals
        );
    }

    #[test]
    fn repeated_evaluation_hits_the_cache() {
        let ivp = Heat2d::new(32);
        let methods = [MethodSpec::erk(Tableau::heun2())];
        let offsite = Offsite::new(Machine::cascade_lake(), 1);
        let req = single_shot().cache(Arc::new(PredictionCache::new()));
        let cold = offsite.evaluate_with(&ivp, &methods, 1e-5, &req).unwrap();
        assert!(cold.select_cost.cache_misses > 0);
        let warm = offsite.evaluate_with(&ivp, &methods, 1e-5, &req).unwrap();
        assert_eq!(warm.select_cost.cache_misses, 0, "second run fully cached");
        assert!(warm.select_cost.cache_hits > 0);
        for (x, y) in cold.candidates.iter().zip(&warm.candidates) {
            assert_eq!(x.predicted_s.to_bits(), y.predicted_s.to_bits());
        }
    }

    #[test]
    fn observed_evaluation_matches_unobserved_and_balances_spans() {
        let ivp = Heat2d::new(32);
        let methods = [MethodSpec::erk(Tableau::heun2())];
        let offsite = Offsite::new(Machine::cascade_lake(), 1);
        let plain = offsite
            .evaluate_with(
                &ivp,
                &methods,
                1e-5,
                &single_shot().cache(Arc::new(PredictionCache::new())),
            )
            .unwrap();
        let (tel, sink) = Telemetry::recording(Level::Debug);
        let observed = offsite
            .evaluate_with(
                &ivp,
                &methods,
                1e-5,
                &single_shot()
                    .cache(Arc::new(PredictionCache::new()))
                    .telemetry(tel.clone()),
            )
            .unwrap();
        for (x, y) in plain.candidates.iter().zip(&observed.candidates) {
            assert_eq!(x.method, y.method);
            assert_eq!(x.variant, y.variant);
            assert_eq!(x.predicted_s.to_bits(), y.predicted_s.to_bits());
            assert_eq!(x.measured_s.to_bits(), y.measured_s.to_bits());
        }
        assert_eq!(plain.rank_of_pick, observed.rank_of_pick);
        let joined = sink.lines().join("\n");
        let stats = yasksite::telemetry::check_trace(&joined).expect("balanced trace");
        assert_eq!(stats.spans_opened, stats.spans_closed);
        assert!(stats.spans_opened > 0, "eval session must open spans");
    }

    #[test]
    fn noisy_faults_keep_the_report_finite() {
        let offsite = Offsite::new(Machine::cascade_lake(), 1);
        let ivp = Heat2d::new(32);
        let methods = [MethodSpec::erk(Tableau::heun2())];
        let req = TuneRequest::default().faults(FaultPlan::noisy(42));
        let r = offsite.evaluate_with(&ivp, &methods, 1e-5, &req).unwrap();
        assert_eq!(r.candidates.len(), 4);
        for c in &r.candidates {
            assert!(c.measured_s.is_finite() && c.measured_s > 0.0);
        }
        assert!(r.mean_rel_err.is_finite());
        for (_, s) in &r.speedups {
            assert!(s.is_finite() && *s > 0.0);
        }
    }
}
