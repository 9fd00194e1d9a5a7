//! One function per reproduced table/figure (experiment index E1–E9 in
//! DESIGN.md).

use std::fmt::Write as _;
use std::sync::Arc;

use offsite::{MethodSpec, Offsite};
use yasksite::{PredictionCache, SearchSpace, Solution, TrialConfig, TuneRequest, TuneStrategy};
use yasksite_arch::{machine_table, Machine};
use yasksite_ecm::roofline_mlups;
use yasksite_engine::TuningParams;
use yasksite_grid::Fold;
use yasksite_ode::ivps::{Heat2d, Heat3d, InverterChain};
use yasksite_ode::Ivp;
use yasksite_stencil::{builders, paper_suite, stencil_table};

use crate::fmt::Table;

/// Problem-size preset: `Paper` exercises the memory hierarchy like the
/// paper's runs (minutes of simulation); `Small` keeps everything
/// test-sized (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full experiment sizes.
    Paper,
    /// Miniature sizes for CI / integration tests.
    Small,
}

impl Scale {
    /// The manifest label for this preset.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Small => "small",
        }
    }

    /// Parses `--small` from argv.
    #[must_use]
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--small") {
            Scale::Small
        } else {
            Scale::Paper
        }
    }

    /// Parses `--jobs N` from argv; `None` lets the tuner pick
    /// (`YASKSITE_JOBS` or all cores). Results are jobs-invariant, only
    /// wall time changes.
    #[must_use]
    pub fn jobs_from_args() -> Option<usize> {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
            .map(|j| j.max(1))
    }

    fn heat3d_domain(self, machine: &Machine) -> [usize; 3] {
        match self {
            // Big enough that the *aggregate* LLC (all CCXs on Rome)
            // cannot hold the working set even at full core count.
            Scale::Paper => {
                if machine.cores_per_socket > 32 {
                    [288, 288, 288]
                } else {
                    [168, 168, 168]
                }
            }
            Scale::Small => [48, 24, 24],
        }
    }

    fn sweep_domain(self) -> [usize; 3] {
        match self {
            Scale::Paper => [144, 144, 144],
            Scale::Small => [48, 24, 24],
        }
    }

    fn core_counts(self, machine: &Machine) -> Vec<usize> {
        let max = machine.cores_per_socket;
        let all = [1usize, 2, 4, 8, 12, 16, 20, 32, 48, 64];
        match self {
            Scale::Paper => all.iter().copied().filter(|&c| c <= max).collect(),
            Scale::Small => vec![1, 2.min(max)],
        }
    }

    fn ode_sizes(self) -> (usize, usize, usize) {
        match self {
            Scale::Paper => (1024, 96, 1 << 20),
            Scale::Small => (64, 16, 4096),
        }
    }

    fn offsite_cores(self) -> usize {
        match self {
            Scale::Paper => 4,
            Scale::Small => 1,
        }
    }
}

fn fold_for(machine: &Machine) -> Fold {
    Fold::new(machine.lanes(), 1, 1)
}

/// E1 — the stencil test-set table.
#[must_use]
pub fn e1_stencil_table() -> String {
    format!("E1: stencil test set\n\n{}", stencil_table(&paper_suite()))
}

/// E2 — the machine-model table.
#[must_use]
pub fn e2_machine_table() -> String {
    format!(
        "E2: machine models\n\n{}",
        machine_table(&[Machine::cascade_lake(), Machine::rome(), Machine::host()])
    )
}

/// E3 — single-core ECM breakdown of heat-3d across cache regimes.
#[must_use]
pub fn e3_ecm_breakdown(machine: &Machine) -> String {
    let s = builders::heat3d(1);
    let fold = fold_for(machine);
    let mut t = Table::new(&[
        "N^3", "regime", "T_OL", "T_nOL", "T_L1L2", "T_L2L3", "T_L3Mem", "T_ECM", "MLUP/s",
    ]);
    for n in [16usize, 32, 48, 64, 96, 128, 192, 256, 384, 512] {
        let domain = [n, n, n];
        let params = TuningParams::new(domain, fold);
        let sol = Solution::new(s.clone(), domain, machine.clone());
        let p = sol.predict(&params, 1);
        let resident = 2.0 * (n * n * n * 8) as f64;
        let regime = machine
            .caches
            .iter()
            .find(|c| resident <= c.size_bytes as f64 * 0.5)
            .map_or("Mem", |c| c.name.as_str());
        t.row(vec![
            n.to_string(),
            regime.to_string(),
            format!("{:.1}", p.ecm.t_ol),
            format!("{:.1}", p.ecm.t_nol),
            format!("{:.1}", p.ecm.t_data[0]),
            format!("{:.1}", p.ecm.t_data[1]),
            format!("{:.1}", p.ecm.t_data[2]),
            format!("{:.1}", p.ecm.t_ecm),
            format!("{:.0}", p.mlups),
        ]);
    }
    format!(
        "E3: ECM single-core breakdown, {} on {} (cycles per 8 updates, unblocked)\n\n{}",
        s.name(),
        machine.tag(),
        t.render()
    )
}

/// E4 — predicted vs simulator-measured scaling over cores, with the
/// Roofline baseline.
#[must_use]
pub fn e4_scaling(machine: &Machine, scale: Scale) -> String {
    let s = builders::heat3d(1);
    let domain = scale.heat3d_domain(machine);
    let fold = fold_for(machine);
    let sol = Solution::new(s.clone(), domain, machine.clone());
    let space = SearchSpace::spatial_only(&s, domain, machine).with_folds(vec![fold]);
    let info = s.info();

    let mut t = Table::new(&[
        "cores",
        "block",
        "ECM",
        "measured",
        "roofline",
        "err%",
        "saturated",
    ]);
    let mut max_err: f64 = 0.0;
    let mut tuned = sol
        .tune_space_with(&space, &TuneRequest::new(TuneStrategy::Analytic))
        .expect("tuning succeeds")
        .best;
    for cores in scale.core_counts(machine) {
        // Re-tune analytically at each core count, as the paper does.
        let params = sol
            .tune_space_with(
                &space,
                &TuneRequest::new(TuneStrategy::Analytic).cores(cores),
            )
            .expect("tuning succeeds")
            .best;
        tuned = params;
        let params = tuned.clone();
        let pred = sol.predict(&params, cores);
        let meas = sol.measure(&params).expect("simulated run succeeds");
        let rl = roofline_mlups(&info, machine, cores);
        let err = (pred.mlups - meas.mlups).abs() / meas.mlups * 100.0;
        max_err = max_err.max(err);
        t.row(vec![
            cores.to_string(),
            format!(
                "{}x{}x{}",
                params.block[0], params.block[1], params.block[2]
            ),
            format!("{:.0}", pred.mlups),
            format!("{:.0}", meas.mlups),
            format!("{:.0}", rl),
            format!("{err:.0}"),
            if pred.ecm.sat_cores <= cores {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    let _ = tuned;
    format!(
        "E4: scaling of {} ({}x{}x{}, per-count analytic blocks) on {} — MLUP/s\n\n{}\nmax model error: {:.0}%\n",
        s.name(),
        domain[0],
        domain[1],
        domain[2],
        machine.tag(),
        t.render(),
        max_err
    )
}

/// E5 — spatial block sweep: measured performance over the block space,
/// with the analytically selected block marked. The analytic ranking
/// runs twice through the same prediction cache (cold, then warm) so the
/// output also quantifies what memoization saves on repeated sweeps.
#[must_use]
pub fn e5_block_sweep(machine: &Machine, scale: Scale, jobs: Option<usize>) -> String {
    let s = builders::heat3d(1);
    let domain = scale.sweep_domain();
    let fold = fold_for(machine);
    let sol = Solution::new(s.clone(), domain, machine.clone());
    let space = SearchSpace::spatial_only(&s, domain, machine).with_folds(vec![fold]);
    let cache = Arc::new(PredictionCache::new());
    let mut req = TuneRequest::new(TuneStrategy::Analytic).cache(Arc::clone(&cache));
    if let Some(j) = jobs {
        req = req.jobs(j);
    }
    let analytic = sol
        .tune_space_with(&space, &req)
        .expect("analytic tuning succeeds");
    let warm = sol
        .tune_space_with(&space, &req)
        .expect("analytic tuning succeeds");
    assert_eq!(
        analytic.best, warm.best,
        "cached re-tune must pick the same block"
    );

    let mut rows: Vec<(TuningParams, f64, f64)> = Vec::new();
    for p in space.candidates(1) {
        let pred = sol.predict(&p, 1).mlups;
        let meas = sol.measure(&p).expect("simulated run").mlups;
        rows.push((p, pred, meas));
    }
    let best = rows.iter().map(|r| r.2).fold(0.0f64, f64::max);
    let mut t = Table::new(&["block", "ECM", "measured", "%of-best", "pick"]);
    for (p, pred, meas) in &rows {
        let pick = if *p == analytic.best { "<= model" } else { "" };
        t.row(vec![
            format!("{}x{}x{}", p.block[0], p.block[1], p.block[2]),
            format!("{pred:.0}"),
            format!("{meas:.0}"),
            format!("{:.0}", meas / best * 100.0),
            pick.to_string(),
        ]);
    }
    let chosen = rows
        .iter()
        .find(|(p, _, _)| *p == analytic.best)
        .map_or(0.0, |r| r.2);
    format!(
        "E5: block sweep, {} {}x{}x{} on {} (1 core, MLUP/s, {} ranking workers)\n\n{}\nanalytic pick reaches {:.0}% of empirical best\ncold tune: {}\nwarm tune: {}  ({:.1}x wall speedup from the cache)\n",
        s.name(),
        domain[0],
        domain[1],
        domain[2],
        machine.tag(),
        req.effective_jobs(),
        t.render(),
        chosen / best * 100.0,
        analytic.cost.summary(),
        warm.cost.summary(),
        analytic.cost.wall_seconds / warm.cost.wall_seconds.max(1e-9)
    )
}

/// E6 — wavefront temporal blocking: depth sweep, measured vs predicted.
#[must_use]
pub fn e6_wavefront(machine: &Machine, scale: Scale) -> String {
    let s = builders::heat3d(1);
    let domain = scale.heat3d_domain(machine);
    let fold = fold_for(machine);
    let sol = Solution::new(s.clone(), domain, machine.clone());
    let block = [domain[0], 8, 8];
    let mut t = Table::new(&["depth", "ECM", "measured", "memB/LUP", "speedup"]);
    let mut base = 0.0;
    for depth in [1usize, 2, 4, 8] {
        let p = TuningParams::new(block, fold).wavefront(depth);
        let pred = sol.predict(&p, 1);
        let meas = sol.measure(&p).expect("simulated run");
        let bytes_per_lup = meas.stats.as_ref().map_or(0.0, |st| {
            st.mem_bytes(machine.line_bytes()) / (2 * depth) as f64 / sol.updates_per_sweep() as f64
        });
        if depth == 1 {
            base = meas.mlups;
        }
        t.row(vec![
            depth.to_string(),
            format!("{:.0}", pred.mlups),
            format!("{:.0}", meas.mlups),
            format!("{bytes_per_lup:.1}"),
            format!("{:.2}x", meas.mlups / base),
        ]);
    }
    format!(
        "E6: wavefront depth sweep, {} {}x{}x{} on {} (1 core)\n\n{}",
        s.name(),
        domain[0],
        domain[1],
        domain[2],
        machine.tag(),
        t.render()
    )
}

/// E10 — model validation across the whole stencil suite: single-core
/// predicted vs simulator-measured performance for every test-set
/// stencil on one machine.
#[must_use]
pub fn e10_suite_validation(machine: &Machine, scale: Scale) -> String {
    let fold = fold_for(machine);
    let mut t = Table::new(&["stencil", "domain", "ECM", "measured", "err%"]);
    let mut errs = Vec::new();
    for s in yasksite_stencil::paper_suite() {
        let info = s.info();
        let d3 = info.radius[2] > 0 || s.dims() == 3;
        let domain = match (scale, d3) {
            (Scale::Paper, true) => [96, 96, 96],
            (Scale::Paper, false) => [768, 768, 1],
            (Scale::Small, true) => [32, 16, 16],
            (Scale::Small, false) => [64, 64, 1],
        };
        let block = [domain[0], 16.min(domain[1]), 16.min(domain[2])];
        let sol = Solution::new(s.clone(), domain, machine.clone());
        let params = TuningParams::new(block, fold);
        let pred = sol.predict(&params, 1);
        let meas = sol.measure(&params).expect("simulated run");
        let err = (pred.mlups - meas.mlups).abs() / meas.mlups * 100.0;
        errs.push(err);
        t.row(vec![
            s.name().to_string(),
            format!("{}x{}x{}", domain[0], domain[1], domain[2]),
            format!("{:.0}", pred.mlups),
            format!("{:.0}", meas.mlups),
            format!("{err:.0}"),
        ]);
    }
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    format!(
        "E10: suite-wide model validation on {} (1 core, MLUP/s)\n\n{}\nmean error {:.0}%\n",
        machine.tag(),
        t.render(),
        mean
    )
}

/// E11 — work–precision ranking (extension): predicted total time to
/// integrate Heat2D over a unit interval at several tolerances; shows the
/// method-order crossover Offsite exploits when selecting methods.
#[must_use]
pub fn e11_work_precision(machine: &Machine, scale: Scale) -> String {
    let (n2, _, _) = scale.ode_sizes();
    let offsite = Offsite::new(machine.clone(), 1);
    let ivp = Heat2d::new(n2.min(256));
    let methods = MethodSpec::paper_set();
    let mut t = Table::new(&["tol", "winner", "order", "h", "predicted[s]"]);
    for tol in [1e-1, 1e-3, 1e-5, 1e-8, 1e-12] {
        let ranked = offsite
            .rank_by_tolerance(&ivp, &methods, tol, 1.0)
            .expect("ranking succeeds");
        let w = &ranked[0];
        t.row(vec![
            format!("{tol:.0e}"),
            format!("{}/{}", w.method, w.variant),
            w.order.to_string(),
            format!("{:.2e}", w.step_size),
            format!("{:.2e}", w.predicted_total_s),
        ]);
    }
    format!(
        "E11 (extension): work-precision method selection, {} on {} (1 core)\n\n{}",
        ivp.name(),
        machine.tag(),
        t.render()
    )
}

/// The Offsite experiments' session: one sample per plan measurement.
fn single_shot() -> TuneRequest {
    TuneRequest::default().trial(TrialConfig::single_shot())
}

fn eval_ivp(
    offsite: &Offsite,
    ivp: &dyn Ivp,
    methods: &[MethodSpec],
    h: f64,
    req: &TuneRequest,
    t: &mut Table,
) -> offsite::EvalReport {
    let r = offsite
        .evaluate_with(ivp, methods, h, req)
        .expect("evaluation succeeds");
    for c in &r.candidates {
        t.row(vec![
            ivp.name().to_string(),
            format!("{}/{}", c.method, c.variant),
            format!("{:.3e}", c.predicted_s),
            format!("{:.3e}", c.measured_s),
            format!("{:.0}", c.rel_err * 100.0),
        ]);
    }
    r
}

/// E7 — Offsite prediction accuracy: predicted vs measured step time for
/// every method × variant on each IVP.
#[must_use]
pub fn e7_prediction_accuracy(machine: &Machine, scale: Scale, jobs: Option<usize>) -> String {
    let offsite = Offsite::new(machine.clone(), 1);
    let (n2, n3, ni) = scale.ode_sizes();
    let methods = MethodSpec::paper_set();
    let mut req = single_shot().cache(Arc::new(PredictionCache::new()));
    if let Some(j) = jobs {
        req = req.jobs(j);
    }
    let mut t = Table::new(&[
        "ivp",
        "method/variant",
        "predicted[s]",
        "measured[s]",
        "err%",
    ]);
    let mut lines = String::new();
    let heat2d = Heat2d::new(n2);
    let heat3d = Heat3d::new(n3);
    let inv = InverterChain::new(ni, 5.0, 1.0, 0.5);
    for (ivp, h) in [
        (&heat2d as &dyn Ivp, 1e-7),
        (&heat3d as &dyn Ivp, 1e-6),
        (&inv as &dyn Ivp, 1e-4),
    ] {
        let r = eval_ivp(&offsite, ivp, &methods, h, &req, &mut t);
        let _ = writeln!(
            lines,
            "{:<14} mean err {:>3.0}%  max err {:>3.0}%  predicted pick = measured rank {}{}",
            ivp.name(),
            r.mean_rel_err * 100.0,
            r.max_rel_err * 100.0,
            r.rank_of_pick + 1,
            if r.picked_best { " (best)" } else { "" }
        );
        let _ = writeln!(lines, "{:<14} selection: {}", "", r.select_cost.summary());
    }
    format!(
        "E7: Offsite+YaskSite prediction accuracy on {} (1 core, shared prediction cache)\n\n{}\n{}",
        machine.tag(),
        t.render(),
        lines
    )
}

/// E8 — end-to-end speedups of the Offsite-selected variant over the
/// naive baseline implementation.
#[must_use]
pub fn e8_speedups(machine: &Machine, scale: Scale) -> String {
    let cores = scale.offsite_cores().min(machine.cores_per_socket);
    let offsite = Offsite::new(machine.clone(), cores);
    let (n2, n3, ni) = scale.ode_sizes();
    let methods = MethodSpec::paper_set();
    let mut t = Table::new(&["ivp", "method", "speedup"]);
    let heat2d = Heat2d::new(n2);
    let heat3d = Heat3d::new(n3);
    let inv = InverterChain::new(ni, 5.0, 1.0, 0.5);
    for (ivp, h) in [
        (&heat2d as &dyn Ivp, 1e-7),
        (&heat3d as &dyn Ivp, 1e-6),
        (&inv as &dyn Ivp, 1e-4),
    ] {
        let r = offsite
            .evaluate_with(ivp, &methods, h, &single_shot())
            .expect("evaluation succeeds");
        for (m, sp) in &r.speedups {
            t.row(vec![ivp.name().to_string(), m.clone(), format!("{sp:.2}x")]);
        }
    }
    format!(
        "E8: speedup of the Offsite-selected tuned variant over the naive\nbaseline (variant A, unblocked) on {} ({} cores)\n\n{}",
        machine.tag(),
        cores,
        t.render()
    )
}

/// E9 — autotuning cost: analytic vs hybrid vs exhaustive-empirical
/// selection for one kernel, plus the Offsite selection/validation split.
#[must_use]
pub fn e9_tuning_cost(machine: &Machine, scale: Scale, jobs: Option<usize>) -> String {
    let s = builders::heat3d(1);
    let domain = scale.sweep_domain();
    let sol = Solution::new(s.clone(), domain, machine.clone());
    let space = SearchSpace::spatial_only(&s, domain, machine).with_folds(vec![fold_for(machine)]);
    let cache = Arc::new(PredictionCache::new());
    let mut t = Table::new(&[
        "strategy",
        "model evals",
        "cached",
        "runs",
        "target[s]",
        "wall[s]",
        "quality%",
    ]);
    let base_req = |strategy| {
        let mut req = TuneRequest::new(strategy).cache(Arc::clone(&cache));
        if let Some(j) = jobs {
            req = req.jobs(j);
        }
        req
    };
    let empirical = sol
        .tune_space_with(&space, &base_req(TuneStrategy::Empirical))
        .expect("empirical tuning");
    let best = empirical.best_score;
    for (name, strat) in [
        ("analytic", TuneStrategy::Analytic),
        ("hybrid(3)", TuneStrategy::Hybrid { shortlist: 3 }),
        ("empirical", TuneStrategy::Empirical),
    ] {
        let r = sol
            .tune_space_with(&space, &base_req(strat))
            .expect("tuning");
        let achieved = sol.measure(&r.best).expect("measure").mlups;
        t.row(vec![
            name.to_string(),
            r.cost.model_evals.to_string(),
            r.cost.cache_hits.to_string(),
            r.cost.engine_runs.to_string(),
            format!("{:.3}", r.cost.target_seconds),
            format!("{:.3}", r.cost.wall_seconds),
            format!("{:.0}", achieved / best * 100.0),
        ]);
    }

    // Offsite side: what the selection costs vs exhaustive validation.
    let offsite = Offsite::new(machine.clone(), 1);
    let (n2, _, _) = scale.ode_sizes();
    let ivp = Heat2d::new(n2);
    let mut req = single_shot();
    if let Some(j) = jobs {
        req = req.jobs(j);
    }
    let r = offsite
        .evaluate_with(&ivp, &MethodSpec::paper_set(), 1e-7, &req)
        .expect("offsite evaluation");
    let mut extra = String::new();
    let _ = writeln!(
        extra,
        "\nOffsite on {} ({} candidates):\n  selection  (model only): {}\n  validation (exhaustive): {}",
        ivp.name(),
        r.candidates.len(),
        r.select_cost.summary(),
        r.validate_cost.summary()
    );
    format!(
        "E9: autotuning cost, {} {}x{}x{} on {}\n(quality% = measured MLUP/s of the strategy's pick / empirical best)\n\n{}{}",
        s.name(),
        domain[0],
        domain[1],
        domain[2],
        machine.tag(),
        t.render(),
        extra
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_e2_e3_render() {
        assert!(e1_stencil_table().contains("heat-3d-r1"));
        assert!(e2_machine_table().contains("CLX"));
        let e3 = e3_ecm_breakdown(&Machine::cascade_lake());
        assert!(e3.contains("T_ECM"));
        assert!(e3.lines().count() > 10);
    }

    #[test]
    fn e4_small_runs() {
        let out = e4_scaling(&Machine::cascade_lake(), Scale::Small);
        assert!(out.contains("cores"));
        assert!(out.contains("max model error"));
    }

    #[test]
    fn e6_small_runs() {
        let out = e6_wavefront(&Machine::cascade_lake(), Scale::Small);
        assert!(out.contains("depth"));
        assert!(out.contains("1.00x"));
    }

    #[test]
    fn e10_small_runs() {
        let out = e10_suite_validation(&Machine::cascade_lake(), Scale::Small);
        assert!(out.contains("heat-3d-r1"));
        assert!(out.contains("mean error"));
    }

    #[test]
    fn e11_small_runs() {
        let out = e11_work_precision(&Machine::cascade_lake(), Scale::Small);
        assert!(out.contains("winner"));
        assert!(out.lines().count() > 6);
    }

    #[test]
    fn e9_small_runs() {
        let out = e9_tuning_cost(&Machine::cascade_lake(), Scale::Small, Some(2));
        assert!(out.contains("analytic"));
        assert!(out.contains("selection"));
        assert!(out.contains("cached"));
    }

    #[test]
    fn e5_warm_pass_hits_the_cache() {
        let out = e5_block_sweep(&Machine::cascade_lake(), Scale::Small, Some(2));
        assert!(out.contains("analytic pick"));
        let cold = out.lines().find(|l| l.starts_with("cold tune:")).unwrap();
        let warm = out.lines().find(|l| l.starts_with("warm tune:")).unwrap();
        assert!(
            cold.contains("(0 cached)"),
            "cold pass starts from an empty cache: {cold}"
        );
        assert!(
            !warm.contains("(0 cached)"),
            "warm pass must hit the cache: {warm}"
        );
    }
}
