//! Predicting and measuring whole step plans.

use yasksite::{PredictionCache, Solution, ToolError};
use yasksite_arch::Machine;
use yasksite_ecm::layer::effective_capacity;
use yasksite_engine::{
    chain_runs_tiled, plan_kernel, SimContext, SweepRequest, TierPolicy, TuningParams,
};
use yasksite_grid::Grid3;
use yasksite_ode::{prepare_step, StepPlan};

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
/// (at wavefront depth 1: a step the integrator runs as one tiled chain
/// is still priced op by op) and core count plus a fixed per-sweep
/// dispatch term (≈ 3000 core cycles), and the sweep times add up (the
/// sweeps are globally synchronised, as in the generated OpenMP code) —
/// so a variant that trades fewer sweeps for heavier ones ranks as it
/// runs.
///
/// Predictions are served through `cache` — ERK plans reuse the same
/// handful of stencils across stages and methods, so repeated plan
/// predictions are mostly cache hits ([`PredictionCache::global`] shares
/// them across a process).
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
    let resident = pool_bytes(plan);
    let dispatch = SWEEP_DISPATCH_CYCLES / (machine.freq_ghz * 1e9);
    // Each op is priced as its own sweep, also when the parameters ask for
    // a tiled step: a wavefront depth here would discount an op's memory
    // traffic as if it ran `w` time steps per pass.
    let params = &params.clone().wavefront(1);
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

/// Bytes of the plan's whole grid pool, halos included: the resident
/// set of a step.
fn pool_bytes(plan: &StepPlan) -> f64 {
    let grid_bytes = (plan.domain[0] + 2 * plan.halo[0]) as f64
        * (plan.domain[1] + 2 * plan.halo[1]) as f64
        * (plan.domain[2] + 2 * plan.halo[2]) as f64
        * 8.0;
    plan.num_grids as f64 * grid_bytes
}

/// Whether the native integrator runs a step of `plan` under `params`
/// as one tiled chain ([`chain_runs_tiled`] over the ops' planned
/// kernels).
fn runs_chained(plan: &StepPlan, params: &TuningParams) -> bool {
    chain_runs_tiled(
        params,
        plan.ops
            .iter()
            .map(|op| plan_kernel(&op.stencil, params, TierPolicy::Auto).kernel),
    )
}

/// Bytes a tiled pass over `plan` keeps live in tiles of `height ×
/// threads` rows: the tile's working set, which must fit L2 for each op
/// to read what the ops before it left there.
///
/// At one wavefront position op `l` works on the plane `l · shift`
/// behind the first op's (`shift = max(r_z, 1)` over the chain). Per
/// grid, the live planes run from the highest to the lowest one any op
/// writes or reads there, each input counted with its own z-reach. Each
/// plane holds the tile's rows plus what the y-skew and the y-reach add,
/// `height · threads + (ops − 1) · sy + 2 r_y` rows of `n_x + 2 h_x`
/// elements.
#[must_use]
pub fn chain_tile_bytes(plan: &StepPlan, height: usize, threads: usize) -> f64 {
    let infos: Vec<_> = plan.ops.iter().map(|op| op.stencil.info()).collect();
    let radius = |axis: usize| infos.iter().map(|i| i.radius[axis]).max().unwrap_or(0);
    let (ry, rz) = (radius(1), radius(2));
    let shift = rz.max(1) as isize;
    // Per grid, the lowest and highest plane touched, relative to the
    // first op's plane.
    let mut span: Vec<Option<(isize, isize)>> = vec![None; plan.num_grids];
    let mut touch = |g: usize, lo: isize, hi: isize| {
        span[g] = Some(span[g].map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
    };
    for (l, (op, info)) in plan.ops.iter().zip(&infos).enumerate() {
        let z = -(l as isize) * shift;
        touch(op.output, z, z);
        for (k, &g) in op.inputs.iter().enumerate() {
            let reach = info.offsets.iter().filter(|(i, _)| *i == k);
            let dz = reach.map(|(_, o)| o[2] as isize);
            if let (Some(lo), Some(hi)) = (dz.clone().min(), dz.max()) {
                touch(g, z + lo, z + hi);
            }
        }
    }
    let planes: isize = span.iter().flatten().map(|(lo, hi)| hi - lo + 1).sum();
    let rows = height * threads + plan.ops.len().saturating_sub(1) * ry.max(1) + 2 * ry;
    let row_bytes = (plan.domain[0] + 2 * plan.halo[0]) * 8;
    planes as f64 * rows as f64 * row_bytes as f64
}

/// The y-tile height of a tiled pass over `plan` under `params` on
/// `machine`, with `params.threads` cores: the largest power of two up
/// to `n_y / 2` whose [`chain_tile_bytes`] fit the L2 share of a core.
/// `None` when a tile buys nothing: the plan's pool fits the last-level
/// cache share the predictor assumes (timed through the integrator,
/// such rk4/E steps ran tiled at 0.98–1.31× of their op-by-op time;
/// EXPERIMENTS.md E17), an op plans a kernel other than the row kernel
/// (a tiled pass would run it op by op), or no height fits.
#[must_use]
pub fn chain_tile_height(
    plan: &StepPlan,
    machine: &Machine,
    params: &TuningParams,
) -> Option<usize> {
    let llc = machine.caches.last()?;
    let l2 = machine.caches.get(1)?;
    let cores = params.threads;
    if pool_bytes(plan) <= effective_capacity(llc, machine, cores)
        || !runs_chained(plan, &params.clone().wavefront(2))
    {
        return None;
    }
    let fits = effective_capacity(l2, machine, cores);
    (0..usize::BITS)
        .map(|e| 1usize << e)
        .take_while(|&height| height <= plan.domain[1] / 2)
        .filter(|&height| chain_tile_bytes(plan, height, cores) <= fits)
        .last()
}

/// Measures one step of `plan` on the simulated hierarchy of `machine`:
/// simulates the step twice (warm-up step + steady-state step) against a
/// grid pool with the plan's halos and the parameters' fold, and reports
/// the steady-state step time. The step is the integrator's own chain
/// ([`prepare_step`], replayed by `PreparedChain::simulate`): one tiled
/// pass where the integrator chains, op by op otherwise, and the grids
/// the chain keeps in windows are windows here too.
///
/// # Errors
/// [`ToolError::InvalidInput`] for a plan that fails validation;
/// propagates engine errors (invalid parameters etc.).
pub fn measure_plan(
    plan: &StepPlan,
    machine: &Machine,
    params: &TuningParams,
) -> Result<PlanMeasurement, ToolError> {
    plan.validate().map_err(ToolError::InvalidInput)?;
    let mut ctx = SimContext::new(machine, params.threads);
    let request = SweepRequest::new(params).tier(TierPolicy::Auto);
    // Prepared against the pool's one geometry, then bound to a pool in
    // the context's address space, a window where the chain keeps one.
    let geometry = Grid3::new("pool", plan.domain, plan.halo, params.fold);
    let step = prepare_step(plan, &vec![&geometry; plan.num_grids], &request)?;
    let pool: Vec<Grid3> = (0..plan.num_grids)
        .map(|g| {
            let (n, halo) = step.window_extent(g).unwrap_or((plan.domain, plan.halo));
            ctx.grid(&format!("pool{g}"), n, halo, params.fold)
        })
        .collect();
    step.simulate(&mut ctx, &pool)?;
    let warm = ctx.finish();
    step.simulate(&mut ctx, &pool)?;
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
        let p = predict_plan_cached(&plan, &m, &params, 1, &PredictionCache::new());
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
        let cache = PredictionCache::new();
        let a = predict_plan_cached(
            &erk_plan(&Tableau::rk4(), &ivp, 1e-5, Variant::A),
            &m,
            &params,
            1,
            &cache,
        );
        let d = predict_plan_cached(
            &erk_plan(&Tableau::rk4(), &ivp, 1e-5, Variant::D),
            &m,
            &params,
            1,
            &cache,
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
        let pred =
            predict_plan_cached(&plan, &m, &params, 1, &PredictionCache::new()).seconds_per_step;
        let meas = measure_plan(&plan, &m, &params).unwrap().seconds_per_step;
        let ratio = pred / meas;
        assert!(
            (0.33..3.0).contains(&ratio),
            "prediction {pred:.3e} vs measurement {meas:.3e} (ratio {ratio:.2})"
        );
    }
}
