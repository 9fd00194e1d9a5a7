//! Analytic prediction of a full tuning configuration, including the
//! wavefront adjustment the plain ECM model does not know about.

use yasksite_arch::Machine;
use yasksite_ecm::layer::effective_capacity;
use yasksite_ecm::{EcmModel, EcmPrediction, KernelDesc, OverlapPolicy};
use yasksite_engine::{plan_kernel, TierPolicy, TuningParams};
use yasksite_stencil::Stencil;

/// An analytic performance prediction for one `(params, cores)` point.
#[derive(Debug, Clone)]
pub struct PredictedPerf {
    /// Predicted MLUP/s at the requested core count.
    pub mlups: f64,
    /// Predicted seconds for one sweep over the domain.
    pub seconds_per_sweep: f64,
    /// The underlying (wavefront-adjusted) ECM prediction.
    pub ecm: EcmPrediction,
    /// Whether the wavefront adjustment was applied (depth > 1, the
    /// planned kernel is the row kernel a tiled pass runs, and the skewed
    /// working set fits the last-level cache).
    pub wavefront_effective: bool,
}

/// Predicts the performance of `stencil` on `domain`/`machine` under
/// `params` with `cores` active cores — the heart of YaskSite's
/// "no need to run the code" claim.
///
/// Temporal blocking is modelled on top of the spatial ECM prediction:
/// a wavefront of depth `w` divides the memory-boundary traffic by `w`
/// provided it runs tiled (the planned kernel is the row kernel; any
/// other wavefront runs op by op) and the skewed working set
/// (`w·shift + 2r` xy-planes of both buffers) fits the effective
/// last-level-cache share; cache-boundary traffic is unchanged.
#[must_use]
pub fn predict_params(
    stencil: &Stencil,
    domain: [usize; 3],
    machine: &Machine,
    params: &TuningParams,
    cores: usize,
) -> PredictedPerf {
    predict_params_resident(stencil, domain, machine, params, cores, None)
}

/// Like [`predict_params`], with an explicit steady-state resident-set
/// size (e.g. the whole grid pool of an ODE step plan). `None` keeps the
/// kernel's own grids as the resident set.
#[must_use]
pub fn predict_params_resident(
    stencil: &Stencil,
    domain: [usize; 3],
    machine: &Machine,
    params: &TuningParams,
    cores: usize,
    resident_bytes: Option<f64>,
) -> PredictedPerf {
    // The model charges the kernel the engine's planner would run these
    // parameters on through the engine's one kernel → issue mapping,
    // which the simulated backend prices by too, and discounts a
    // wavefront only where that kernel tiles.
    let kernel = plan_kernel(stencil, params, TierPolicy::Auto).kernel;
    let issue = kernel.issue(machine);
    let mut desc = KernelDesc::new(stencil, domain)
        .tile(params.clipped_block(domain))
        .fold(params.fold)
        .streaming_stores(params.streaming_stores)
        .issue(issue);
    if let Some(r) = resident_bytes {
        desc = desc.resident_bytes(r);
    }
    let model = EcmModel::new(machine);
    let mut p = model.predict_at(&desc, cores);

    let info = stencil.info();
    let mut wavefront_effective = false;
    if params.wavefront > 1 && stencil.num_inputs() == 1 && kernel.runs_rows() {
        let shift = info.radius[2].max(1);
        let planes = params.wavefront * shift + 2 * info.radius[2];
        let plane_bytes =
            (domain[0] + 2 * info.radius[0]) as f64 * (domain[1] + 2 * info.radius[1]) as f64 * 8.0;
        let ws = planes as f64 * plane_bytes * 2.0; // both ping-pong buffers
        let llc = machine.caches.last().expect("machine has caches");
        if ws <= effective_capacity(llc, machine, cores) {
            wavefront_effective = true;
            let w = params.wavefront as f64;
            let nlev = p.t_data.len();
            let t_mem_new = p.t_data[nlev - 1] / w;
            p.t_data[nlev - 1] = t_mem_new;
            let cache_sum: f64 = p.t_data[..nlev - 1].iter().sum();
            p.t_ecm = match p.policy {
                OverlapPolicy::Serial => p.t_ol.max(p.t_nol + cache_sum + t_mem_new),
                OverlapPolicy::MemOverlap => p.t_ol.max(p.t_nol + cache_sum).max(t_mem_new),
            };
            p.mlups_single =
                yasksite_ecm::incore::UPDATES_PER_UNIT / p.t_ecm * machine.freq_ghz * 1e3;
            p.bytes_per_lup_mem /= w;
            p.mlups_sat = machine.mem_bw_gbs * 1e3 / p.bytes_per_lup_mem;
            // The ceiling cannot exceed what the cores can execute.
            let core_bound = machine.cores_per_socket as f64 * p.mlups_single;
            p.mlups_sat = p.mlups_sat.min(core_bound);
            p.sat_cores =
                ((p.mlups_sat / p.mlups_single).ceil() as usize).clamp(1, machine.cores_per_socket);
        }
    }

    // Thread-granularity load balance: with `nb` blocks statically
    // scheduled on `cores` threads, the critical path is
    // `ceil(nb / cores)` block rounds; blocks that do not decompose
    // finely enough waste cores.
    let block = params.clipped_block(domain);
    let nb: usize = (0..3).map(|d| domain[d].div_ceil(block[d])).product();
    let rounds = nb.div_ceil(cores.max(1));
    let efficiency = nb as f64 / (cores as f64 * rounds as f64);

    let mlups = p.mlups(cores) * efficiency.min(1.0);
    let updates = (domain[0] * domain[1] * domain[2]) as f64;
    PredictedPerf {
        mlups,
        seconds_per_sweep: updates / (mlups * 1e6),
        ecm: p,
        wavefront_effective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::heat3d;

    fn clx() -> Machine {
        Machine::cascade_lake()
    }

    #[test]
    fn wavefront_raises_the_ceiling_when_it_fits() {
        let s = heat3d(1);
        let domain = [256, 256, 256]; // plane 0.5 MB; wf=4 ws ~ 6.3 MB < 14 MB
        let base = TuningParams::new([256, 16, 16], Fold::new(8, 1, 1));
        let wf = base.clone().wavefront(4);
        let p0 = predict_params(&s, domain, &clx(), &base, 1);
        let p1 = predict_params(&s, domain, &clx(), &wf, 1);
        assert!(p1.wavefront_effective);
        assert!(p1.ecm.mlups_sat > p0.ecm.mlups_sat * 2.0);
        assert!(p1.mlups >= p0.mlups);
    }

    #[test]
    fn wavefront_ignored_when_working_set_too_big() {
        let s = heat3d(1);
        let domain = [2048, 2048, 64]; // plane 33 MB: can never fit
        let wf = TuningParams::new([2048, 16, 16], Fold::new(8, 1, 1)).wavefront(4);
        let p = predict_params(&s, domain, &clx(), &wf, 1);
        assert!(!p.wavefront_effective);
    }

    #[test]
    fn scaling_stays_sane() {
        // Strict monotonicity in cores is not an invariant (the shared-L3
        // share shrinks and can break a layer condition), but the full
        // socket must comfortably beat one core, and mid-counts must not
        // collapse.
        let s = heat3d(1);
        let domain = [256, 128, 128];
        let params = TuningParams::new([256, 8, 8], Fold::new(8, 1, 1));
        let single = predict_params(&s, domain, &clx(), &params, 1).mlups;
        for cores in [2, 4, 8, 16, 20] {
            let p = predict_params(&s, domain, &clx(), &params, cores);
            assert!(
                p.mlups.is_finite() && p.mlups > 0.9 * single,
                "cores={cores}"
            );
        }
        let full = predict_params(&s, domain, &clx(), &params, 20).mlups;
        assert!(full > 3.0 * single);
    }

    #[test]
    fn generic_tier_configurations_lose_simd_credit() {
        // A fold with an unsupported element count plans onto the generic
        // per-point tier, so the predictor must charge scalar issue; the
        // folded-tier configuration keeps its vectorised in-core model.
        let s = heat3d(1);
        let domain = [128, 64, 64];
        let folded = TuningParams::new([128, 8, 8], Fold::new(8, 1, 1));
        let generic = TuningParams::new([128, 8, 8], Fold::new(3, 2, 1));
        let pf = predict_params(&s, domain, &clx(), &folded, 1);
        let pg = predict_params(&s, domain, &clx(), &generic, 1);
        assert!(!pf.ecm.incore.t_ol.is_nan());
        assert!(pg.ecm.t_ecm > pf.ecm.t_ecm);
        assert!(pg.mlups < pf.mlups);
    }

    #[test]
    fn seconds_scale_with_domain() {
        let s = heat3d(1);
        let params = TuningParams::new([128, 8, 8], Fold::new(8, 1, 1));
        let small = predict_params(&s, [128, 64, 64], &clx(), &params, 1);
        let large = predict_params(&s, [128, 64, 128], &clx(), &params, 1);
        assert!(large.seconds_per_sweep > small.seconds_per_sweep * 1.5);
    }
}
