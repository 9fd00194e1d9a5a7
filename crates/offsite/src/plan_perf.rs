//! Predicting and measuring whole step plans.

use yasksite::{PredictionCache, Solution, ToolError};
use yasksite_arch::Machine;
use yasksite_engine::{apply_simulated, SimContext, TuningParams};
use yasksite_grid::Grid3;
use yasksite_ode::StepPlan;

/// Core cycles one sweep costs before its first lattice update and after
/// its last: binding and parameter checks, lowering the expression, tier
/// planning, slab split and pool hand-off in the engine, plus the
/// stepper's grid bookkeeping around the call. Measured on the host as
/// the per-sweep cost of RK4 steps on a 16-point chain (0.7–1.8 µs, mean
/// ≈ 1.1 µs ≈ 3000 cycles; EXPERIMENTS.md E16). It does not depend on the
/// domain, so it decides the ranking of variants on cache-resident
/// systems and vanishes on memory-bound ones.
const SWEEP_DISPATCH_CYCLES: f64 = 3000.0;

/// Predicted cost of one method step.
#[derive(Debug, Clone)]
pub struct PlanPrediction {
    /// Predicted seconds per step (sum over sweeps).
    pub seconds_per_step: f64,
    /// Per-op predictions `(label, seconds)`: the kernel's ECM time plus
    /// the fixed per-sweep dispatch term.
    pub per_op: Vec<(String, f64)>,
    /// Per-op predictions served from the prediction cache.
    pub cache_hits: usize,
    /// Per-op predictions computed fresh.
    pub cache_misses: usize,
}

/// Measured (simulated) cost of one method step.
#[derive(Debug, Clone)]
pub struct PlanMeasurement {
    /// Steady-state seconds per step.
    pub seconds_per_step: f64,
    /// Total memory bytes moved per step in steady state.
    pub mem_bytes_per_step: f64,
}

/// Predicts one step of `plan` on `machine` analytically: each sweep is
/// predicted by the YaskSite ECM layer with the given tuning parameters
/// and core count plus a fixed per-sweep dispatch term (≈ 3000 core
/// cycles), and the sweep times add up (the sweeps are globally
/// synchronised, as in the generated OpenMP code) — so a variant that
/// trades fewer sweeps for heavier ones ranks as it runs.
///
/// Predictions are served through the process-wide
/// [`PredictionCache::global`] — ERK plans reuse the same handful of
/// stencils across stages and methods, so repeated plan predictions are
/// mostly cache hits. Use [`predict_plan_cached`] to supply a private
/// cache.
#[must_use]
pub fn predict_plan(
    plan: &StepPlan,
    machine: &Machine,
    params: &TuningParams,
    cores: usize,
) -> PlanPrediction {
    predict_plan_cached(plan, machine, params, cores, PredictionCache::global())
}

/// [`predict_plan`] against an explicit [`PredictionCache`].
#[must_use]
pub fn predict_plan_cached(
    plan: &StepPlan,
    machine: &Machine,
    params: &TuningParams,
    cores: usize,
    cache: &PredictionCache,
) -> PlanPrediction {
    let mut per_op = Vec::with_capacity(plan.ops.len());
    let mut total = 0.0;
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    // Steady-state resident set: the whole grid pool of the step.
    let grid_bytes = (plan.domain[0] + 2 * plan.halo[0]) as f64
        * (plan.domain[1] + 2 * plan.halo[1]) as f64
        * (plan.domain[2] + 2 * plan.halo[2]) as f64
        * 8.0;
    let resident = plan.num_grids as f64 * grid_bytes;
    let dispatch = SWEEP_DISPATCH_CYCLES / (machine.freq_ghz * 1e9);
    for op in &plan.ops {
        let sol = Solution::new(op.stencil.clone(), plan.domain, machine.clone());
        let (pred, hit) = cache.predict_resident(&sol, params, cores, resident);
        if hit {
            cache_hits += 1;
        } else {
            cache_misses += 1;
        }
        let seconds = pred.seconds_per_sweep + dispatch;
        per_op.push((op.label.clone(), seconds));
        total += seconds;
    }
    PlanPrediction {
        seconds_per_step: total,
        per_op,
        cache_hits,
        cache_misses,
    }
}

/// Measures one step of `plan` on the simulated hierarchy of `machine`:
/// executes the plan's sweeps twice (warm-up step + steady-state step)
/// against a grid pool with the plan's halos and the parameters' fold,
/// and reports the steady-state step time.
///
/// # Errors
/// Propagates engine errors (invalid parameters etc.).
pub fn measure_plan(
    plan: &StepPlan,
    machine: &Machine,
    params: &TuningParams,
) -> Result<PlanMeasurement, ToolError> {
    let mut ctx = SimContext::new(machine, params.threads);
    let pool: Vec<Grid3> = (0..plan.num_grids)
        .map(|g| ctx.grid(&format!("pool{g}"), plan.domain, plan.halo, params.fold))
        .collect();
    let step = |ctx: &mut SimContext| -> Result<(), ToolError> {
        for op in &plan.ops {
            let inputs: Vec<&Grid3> = op.inputs.iter().map(|&g| &pool[g]).collect();
            apply_simulated(&op.stencil, &inputs, &pool[op.output], params, ctx)
                .map_err(ToolError::Engine)?;
        }
        Ok(())
    };
    step(&mut ctx)?;
    let warm = ctx.finish();
    step(&mut ctx)?;
    let total = ctx.finish();
    let seconds = (total.time.seconds - warm.time.seconds).max(1e-12);
    let mem_bytes =
        total.stats.mem_bytes(machine.line_bytes()) - warm.stats.mem_bytes(machine.line_bytes());
    Ok(PlanMeasurement {
        seconds_per_step: seconds,
        mem_bytes_per_step: mem_bytes.max(0.0),
    })
}

/// A [`yasksite::MeasureBackend`] over a whole step plan: one sample is one
/// steady-state step measurement via [`measure_plan`]. This is the hook
/// the offsite evaluator uses so that plan measurements flow through the
/// same robust trial protocol (retries, outlier rejection, fallback) as
/// single-sweep measurements, and so faults can be injected for testing.
pub struct PlanBackend<'a> {
    plan: &'a StepPlan,
    machine: &'a Machine,
}

impl<'a> PlanBackend<'a> {
    /// Creates a backend measuring `plan` on `machine`.
    #[must_use]
    pub fn new(plan: &'a StepPlan, machine: &'a Machine) -> Self {
        Self { plan, machine }
    }
}

impl yasksite::MeasureBackend for PlanBackend<'_> {
    fn run_sample(&mut self, params: &TuningParams) -> Result<f64, ToolError> {
        Ok(measure_plan(self.plan, self.machine, params)?.seconds_per_step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_grid::Fold;
    use yasksite_ode::ivps::Heat2d;
    use yasksite_ode::{erk_plan, Ivp, Tableau, Variant};

    fn setup() -> (Heat2d, StepPlan, TuningParams, Machine) {
        let ivp = Heat2d::new(64);
        let plan = erk_plan(&Tableau::rk4(), &ivp, 1e-5, Variant::A);
        let params = TuningParams::new([64, 16, 1], Fold::new(8, 1, 1));
        (ivp, plan, params, Machine::cascade_lake())
    }

    #[test]
    fn prediction_covers_every_op() {
        let (_ivp, plan, params, m) = setup();
        let p = predict_plan(&plan, &m, &params, 1);
        assert_eq!(p.per_op.len(), plan.ops.len());
        let sum: f64 = p.per_op.iter().map(|(_, s)| s).sum();
        assert!((sum - p.seconds_per_step).abs() < 1e-12);
        assert!(p.seconds_per_step > 0.0);
    }

    #[test]
    fn cache_resident_chain_ranks_by_instructions_and_sweeps() {
        // InverterChain(4096) runs on the tape tier out of L2: a fused
        // sweep saves dispatches, but every instruction of the fused
        // expression still costs its own pass over the row. Measured, the
        // fully fused E is the slowest or second slowest of the four and
        // the unfused A the fastest, so E must not be the pick and A must
        // not be priced above it.
        use yasksite_ode::ivps::InverterChain;
        let ivp = InverterChain::new(4096, 5.0, 1.0, 0.5);
        let params = TuningParams::new([4096, 1, 1], Fold::new(8, 1, 1));
        let host = Machine::host();
        let dispatch = SWEEP_DISPATCH_CYCLES / (host.freq_ghz * 1e9);
        let mut steps = Vec::new();
        for v in Variant::all() {
            let plan = erk_plan(&Tableau::rk4(), &ivp, 1e-3, v);
            let p = predict_plan_cached(&plan, &host, &params, 1, &PredictionCache::new());
            assert_eq!(p.per_op.len(), plan.ops.len());
            let sum: f64 = p.per_op.iter().map(|(_, s)| s).sum();
            assert!((sum - p.seconds_per_step).abs() < 1e-12, "variant {v}");
            assert!(p.per_op.iter().all(|(_, s)| *s > dispatch), "variant {v}");
            steps.push((v, p.seconds_per_step));
        }
        let time = |v: Variant| steps.iter().find(|(x, _)| *x == v).unwrap().1;
        let pick = steps.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
        assert_ne!(pick, Variant::E, "predicted steps {steps:?}");
        assert!(time(Variant::A) <= time(Variant::E), "{steps:?}");
        // The tape sweeps carry the step: a fused RK4 stage holds more
        // instructions than the bare right-hand side and must cost more.
        let d = erk_plan(&Tableau::rk4(), &ivp, 1e-3, Variant::D);
        let p = predict_plan_cached(&d, &host, &params, 1, &PredictionCache::new());
        assert!(p.per_op[1].1 > p.per_op[0].1, "{:?}", p.per_op);
    }

    #[test]
    fn memory_resident_heat3d_ranks_variants_as_measured() {
        // Heat3d(192) on the host, naive parameters: 60 MB per grid, every
        // sweep streams from memory. Measured steps (EXPERIMENTS.md E17):
        // E 110.7 ms < D 120.8 < A 135.8 < B 161.1 — fewer passes over
        // memory win, and the model must rank them the same way.
        use yasksite_ode::ivps::Heat3d;
        let ivp = Heat3d::new(192);
        let host = Machine::host();
        let naive = TuningParams::new(ivp.domain(), Fold::new(host.lanes(), 1, 1));
        let step = |v: Variant| {
            let plan = erk_plan(&Tableau::rk4(), &ivp, 1e-6, v);
            predict_plan_cached(&plan, &host, &naive, 1, &PredictionCache::new()).seconds_per_step
        };
        let (a, b, d, e) = (
            step(Variant::A),
            step(Variant::B),
            step(Variant::D),
            step(Variant::E),
        );
        assert!(
            e < d && d < a && a < b,
            "A {a:.4} B {b:.4} D {d:.4} E {e:.4}"
        );
    }

    #[test]
    fn fused_variant_predicted_faster() {
        let ivp = Heat2d::new(128);
        let params = TuningParams::new([128, 16, 1], Fold::new(8, 1, 1));
        let m = Machine::cascade_lake();
        let a = predict_plan(
            &erk_plan(&Tableau::rk4(), &ivp, 1e-5, Variant::A),
            &m,
            &params,
            1,
        );
        let d = predict_plan(
            &erk_plan(&Tableau::rk4(), &ivp, 1e-5, Variant::D),
            &m,
            &params,
            1,
        );
        assert!(
            d.seconds_per_step < a.seconds_per_step,
            "D {:.3e} should beat A {:.3e}",
            d.seconds_per_step,
            a.seconds_per_step
        );
    }

    #[test]
    fn cached_plan_prediction_matches_fresh() {
        let (_ivp, plan, params, m) = setup();
        let cache = PredictionCache::new();
        let cold = predict_plan_cached(&plan, &m, &params, 1, &cache);
        let warm = predict_plan_cached(&plan, &m, &params, 1, &cache);
        assert_eq!(
            cold.seconds_per_step.to_bits(),
            warm.seconds_per_step.to_bits()
        );
        for (a, b) in cold.per_op.iter().zip(warm.per_op.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert_eq!(cold.cache_hits + cold.cache_misses, plan.ops.len());
        assert!(cold.cache_misses >= 1);
        assert_eq!(warm.cache_misses, 0, "second pass is fully cached");
        assert_eq!(warm.cache_hits, plan.ops.len());
    }

    #[test]
    fn measurement_runs_and_is_positive() {
        let (_ivp, plan, params, m) = setup();
        let meas = measure_plan(&plan, &m, &params).unwrap();
        assert!(meas.seconds_per_step > 0.0);
        assert!(meas.mem_bytes_per_step >= 0.0);
    }

    #[test]
    fn prediction_within_factor_three_of_measurement() {
        // The paper's headline accuracy claim, loosely checked.
        let (_ivp, plan, params, m) = setup();
        let pred = predict_plan(&plan, &m, &params, 1).seconds_per_step;
        let meas = measure_plan(&plan, &m, &params).unwrap().seconds_per_step;
        let ratio = pred / meas;
        assert!(
            (0.33..3.0).contains(&ratio),
            "prediction {pred:.3e} vs measurement {meas:.3e} (ratio {ratio:.2})"
        );
    }
}
