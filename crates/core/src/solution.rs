//! The `Solution` object: one stencil bound to a domain and a machine.

use std::fmt;
use std::sync::OnceLock;

use yasksite_arch::{Machine, MachineFileError, MachineKind};
use yasksite_engine::{
    codegen, plan_kernel, ChainLevel, CodegenOutput, EngineError, ExecPool, PlannedKernel,
    PreparedChain, ProfileReport, SimContext, SweepProfiler, SweepRequest, Tier, TierPolicy,
    TuningParams,
};
use yasksite_grid::Grid3;
use yasksite_memsim::HierarchyStats;
use yasksite_stencil::Stencil;

use crate::predict::{predict_params, predict_params_resident, PredictedPerf};

/// Errors reported by the tool layer — the single taxonomy every public
/// tuning entry point funnels into (no panics escape the public API).
#[derive(Debug)]
pub enum ToolError {
    /// The engine rejected the configuration.
    Engine(EngineError),
    /// A machine description file failed to parse or validate.
    MachineFile(MachineFileError),
    /// The caller supplied input the API cannot act on (empty space,
    /// non-finite measurement, ...).
    InvalidInput(String),
    /// A measurement sample failed or produced unusable data.
    Measurement(String),
    /// Tool-level invariant violation.
    Other(String),
}

impl fmt::Display for ToolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolError::Engine(e) => write!(f, "engine: {e}"),
            ToolError::MachineFile(e) => write!(f, "machine file: {e}"),
            ToolError::InvalidInput(s) => write!(f, "invalid input: {s}"),
            ToolError::Measurement(s) => write!(f, "measurement: {s}"),
            ToolError::Other(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for ToolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ToolError::Engine(e) => Some(e),
            ToolError::MachineFile(e) => Some(e),
            ToolError::InvalidInput(_) | ToolError::Measurement(_) | ToolError::Other(_) => None,
        }
    }
}

impl From<EngineError> for ToolError {
    fn from(e: EngineError) -> Self {
        ToolError::Engine(e)
    }
}

impl From<MachineFileError> for ToolError {
    fn from(e: MachineFileError) -> Self {
        ToolError::MachineFile(e)
    }
}

/// A measured (native or simulated) performance result.
#[derive(Debug, Clone)]
pub struct MeasuredPerf {
    /// Achieved MLUP/s in steady state.
    pub mlups: f64,
    /// Steady-state seconds per domain sweep.
    pub seconds_per_sweep: f64,
    /// Simulated traffic counters (None for native runs).
    pub stats: Option<HierarchyStats>,
    /// Whether the number came from the simulator or the host.
    pub simulated: bool,
    /// Threads that actually did work: the engine's count for native
    /// runs (non-empty slabs / plane chunks), the simulated core count
    /// otherwise. Can be below `params.threads` on small domains.
    pub threads_used: usize,
    /// The specialisation-ladder tier that executed (native runs report
    /// the engine's truth; simulated runs the plan of the pass they
    /// replayed, prepared under [`TierPolicy::Auto`]).
    pub tier: Tier,
    /// Why the planner picked [`MeasuredPerf::tier`] — a static reason
    /// string, surfaced through traces, counters and the CLI.
    pub tier_reason: &'static str,
}

/// One stencil kernel bound to a domain size and a target machine — the
/// unit YaskSite tunes and external tuners query.
#[derive(Debug, Clone)]
pub struct Solution {
    stencil: Stencil,
    domain: [usize; 3],
    machine: Machine,
    /// [`Solution::signature`], filled on first use: constructions that
    /// never ask for it (most of them) do not pay for the hash.
    signature: OnceLock<u64>,
}

impl Solution {
    /// Binds `stencil` to a `domain` on `machine`.
    #[must_use]
    pub fn new(stencil: Stencil, domain: [usize; 3], machine: Machine) -> Self {
        Solution {
            stencil,
            domain,
            machine,
            signature: OnceLock::new(),
        }
    }

    /// The stencil.
    #[must_use]
    pub fn stencil(&self) -> &Stencil {
        &self.stencil
    }

    /// The domain extents.
    #[must_use]
    pub fn domain(&self) -> [usize; 3] {
        self.domain
    }

    /// The target machine.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Lattice updates per sweep.
    #[must_use]
    pub fn updates_per_sweep(&self) -> u64 {
        (self.domain[0] * self.domain[1] * self.domain[2]) as u64
    }

    /// A hash identifying this solution's prediction inputs (stencil ×
    /// domain × machine). Two solutions with equal signatures produce
    /// identical analytic predictions, which is what lets
    /// [`crate::PredictionCache`] share entries across `Solution` values.
    /// Stable within a process; not a persistent format. Computed once
    /// per `Solution` (clones carry the value along).
    #[must_use]
    pub fn signature(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        *self.signature.get_or_init(|| {
            let mut h = DefaultHasher::new();
            // Stencil and Machine hold f64s and do not implement Hash;
            // their Debug renderings are exact enough to distinguish any
            // two values the model would treat differently.
            format!("{:?}", self.stencil).hash(&mut h);
            self.domain.hash(&mut h);
            format!("{:?}", self.machine).hash(&mut h);
            h.finish()
        })
    }

    /// Analytic (ECM) prediction for `params` at `cores` — runs nothing.
    #[must_use]
    pub fn predict(&self, params: &TuningParams, cores: usize) -> PredictedPerf {
        predict_params(&self.stencil, self.domain, &self.machine, params, cores)
    }

    /// Analytic prediction with an explicit steady-state resident-set
    /// size (bytes of all data live across repeated invocations).
    #[must_use]
    pub fn predict_with_resident(
        &self,
        params: &TuningParams,
        cores: usize,
        resident_bytes: f64,
    ) -> PredictedPerf {
        predict_params_resident(
            &self.stencil,
            self.domain,
            &self.machine,
            params,
            cores,
            Some(resident_bytes),
        )
    }

    /// Allocates the grid set (inputs + output) for this solution under a
    /// given parameter set.
    #[must_use]
    pub fn allocate_grids(&self, params: &TuningParams) -> (Vec<Grid3>, Grid3) {
        let (mut inputs, out) =
            self.grid_set(|name, halo| Grid3::new(name, self.domain, halo, params.fold));
        for grid in &mut inputs {
            grid.fill_with(|i, j, k| ((i * 7 + j * 3 + k) % 13) as f64 * 0.05);
        }
        (inputs, out)
    }

    /// The grids of one sweep, inputs first and the output last, each
    /// made by `new(name, halo)`.
    fn grid_set(&self, mut new: impl FnMut(&str, [usize; 3]) -> Grid3) -> (Vec<Grid3>, Grid3) {
        let halo = self.stencil.info().radius;
        let inputs = (0..self.stencil.num_inputs())
            .map(|g| new(&format!("in{g}"), halo))
            .collect();
        (inputs, new("out", halo))
    }

    /// Measures `params`: natively when the machine is the host model,
    /// otherwise on the simulated hierarchy. One warm-up pass is followed
    /// by one measured steady-state pass.
    ///
    /// # Errors
    /// Propagates engine errors (bad parameters, unsupported wavefront).
    pub fn measure(&self, params: &TuningParams) -> Result<MeasuredPerf, ToolError> {
        if self.machine.kind == MachineKind::Host {
            return self.measure_host(params, None);
        }
        // The grids live in the context's own address space, so the
        // counters do not depend on other threads' allocations, and stay
        // unfilled: the simulator reads addresses, never values.
        let mut ctx = SimContext::new(&self.machine, params.threads);
        let (mut grids, out) =
            self.grid_set(|name, halo| ctx.grid(name, self.domain, halo, params.fold));
        grids.push(out);
        let request = SweepRequest::new(params).tier(TierPolicy::Auto);
        let pass = self.prepare(&request, &grids)?;
        // The cold pass warms the hierarchy, the second is steady state;
        // it runs back from the output into the first input.
        pass.simulate(&mut ctx, &grids)?;
        let warm = ctx.finish();
        let last = grids.len() - 1;
        grids.swap(0, last);
        pass.simulate(&mut ctx, &grids)?;
        let total = ctx.finish();
        let steady = (total.time.seconds - warm.time.seconds).max(1e-12);
        let per_sweep = steady / params.wavefront.max(1) as f64;
        // The simulator charges the kernel the pass was prepared with
        // (under `TierPolicy::Auto`); report that plan, as `run` does.
        let planned = pass.planned();
        Ok(MeasuredPerf {
            mlups: self.updates_per_sweep() as f64 / per_sweep / 1e6,
            seconds_per_sweep: per_sweep,
            stats: Some(total.stats),
            simulated: true,
            threads_used: params.threads,
            tier: planned.tier(),
            tier_reason: planned.reason,
        })
    }

    /// Measures `params` on this host: prepares under `profiler` (its
    /// `"compile"` phase), runs the warm-up pass unprofiled and the
    /// measured pass, back from the output into the first input, under
    /// `profiler`.
    fn measure_host(
        &self,
        params: &TuningParams,
        profiler: Option<&SweepProfiler>,
    ) -> Result<MeasuredPerf, ToolError> {
        let (mut grids, out) = self.allocate_grids(params);
        grids.push(out);
        let pool = ExecPool::global();
        let request = SweepRequest::new(params).pool(pool);
        let request = match profiler {
            Some(prof) => request.profiler(prof),
            None => request,
        };
        let mut pass = self.prepare(&request, &grids)?;
        pass.set_profiler(None);
        pass.run(pool, &mut grids)?; // warm-up
        let last = grids.len() - 1;
        grids.swap(0, last);
        pass.set_profiler(profiler);
        let run = pass.run(pool, &mut grids)?;
        Ok(MeasuredPerf {
            mlups: run.mlups,
            seconds_per_sweep: run.seconds / params.wavefront.max(1) as f64,
            stats: None,
            simulated: false,
            threads_used: run.threads_used,
            tier: run.tier,
            tier_reason: run.tier_reason,
        })
    }

    /// The one preparation of a measurement under `request`, over
    /// `grids` (the inputs, then the output): the sweep from the inputs
    /// into the output as a one-level chain, or, at a wavefront depth
    /// above 1, the tiled chain over the ping-pong pair of the one input
    /// and the output. The host runs it, the simulator replays it.
    fn prepare<'p>(
        &self,
        request: &SweepRequest<'p>,
        grids: &[Grid3],
    ) -> Result<PreparedChain<'p>, EngineError> {
        let (out, inputs) = grids.split_last().expect("a sweep writes one grid");
        if request.params().wavefront > 1 {
            return request.prepare_wavefront(&self.stencil, &grids[0], out);
        }
        let refs: Vec<&Grid3> = inputs.iter().collect();
        let level = ChainLevel {
            sweep: 0,
            inputs: (0..inputs.len()).collect(),
            output: inputs.len(),
        };
        let sweep = request.prepare(&self.stencil, &refs, out)?;
        PreparedChain::new(vec![sweep], vec![level])
    }

    /// The planner's pick for a sweep of `params` — kernel, tier, reason
    /// and whether it is degraded — under the policy
    /// [`Solution::measure`] prepares with: the live [`TierPolicy`]
    /// (`YASKSITE_FORCE_TIER` wins over the default) on the host,
    /// [`TierPolicy::Auto`] on a simulated machine. It assumes the shared
    /// grid geometry [`Solution::allocate_grids`] produces.
    #[must_use]
    pub fn plan_tier(&self, params: &TuningParams) -> PlannedKernel {
        let policy = if self.machine.kind == MachineKind::Host {
            TierPolicy::from_env()
        } else {
            TierPolicy::Auto
        };
        plan_kernel(&self.stencil, params, policy)
    }

    /// Generates the kernel source for `params`.
    #[must_use]
    pub fn codegen(&self, params: &TuningParams) -> CodegenOutput {
        codegen(&self.stencil, self.domain, params)
    }

    /// Executes `params` once natively on **this host** with the
    /// engine's [`SweepProfiler`] attached, returning the measured
    /// throughput and the profile report (phase times, chunk/plane
    /// timing, pool occupancy). Always runs natively regardless of the
    /// solution's machine model — profiling a simulated hierarchy would
    /// time the simulator, not the kernel. A warm-up pass runs
    /// unprofiled first.
    ///
    /// # Errors
    /// Propagates engine errors (bad parameters, unsupported wavefront).
    pub fn profile_native(
        &self,
        params: &TuningParams,
    ) -> Result<(MeasuredPerf, ProfileReport), ToolError> {
        let prof = SweepProfiler::enabled();
        let perf = self.measure_host(params, Some(&prof))?;
        Ok((perf, prof.report()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{heat3d, wave2d};

    #[test]
    fn native_measurement_on_host() {
        let sol = Solution::new(heat3d(1), [64, 32, 32], Machine::host());
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1));
        let m = sol.measure(&p).unwrap();
        assert!(!m.simulated);
        assert!(m.mlups > 1.0, "host should exceed 1 MLUP/s: {}", m.mlups);
        assert_eq!(m.threads_used, 1);
    }

    /// A simulated measurement reports the plan of the pass it replayed,
    /// prepared under `TierPolicy::Auto` whatever `YASKSITE_FORCE_TIER`
    /// says: on a spatial sweep, a wavefront, a brick fold and a
    /// non-linear stencil, its tier and reason are those of the pass
    /// `Solution::prepare` builds under an `Auto` request.
    #[test]
    fn a_simulated_measurement_reports_the_plan_it_replayed() {
        use yasksite_stencil::builders::inverter_chain_rhs;
        let row = TuningParams::new([32, 8, 8], Fold::new(8, 1, 1));
        let cases = [
            (heat3d(1), [32, 16, 16], row.clone()),
            (heat3d(1), [32, 16, 16], row.clone().wavefront(2)),
            (
                heat3d(1),
                [32, 16, 16],
                TuningParams::new([8, 8, 8], Fold::new(4, 2, 1)),
            ),
            (
                inverter_chain_rhs(5.0, 1.0, 2.0),
                [64, 1, 1],
                TuningParams::new([64, 1, 1], Fold::new(8, 1, 1)),
            ),
        ];
        for (stencil, domain, p) in cases {
            let sol = Solution::new(stencil, domain, Machine::cascade_lake());
            let m = sol.measure(&p).unwrap();
            assert!(m.simulated);
            let (mut grids, out) =
                sol.grid_set(|name, halo| Grid3::new(name, domain, halo, p.fold));
            grids.push(out);
            let request = SweepRequest::new(&p).tier(TierPolicy::Auto);
            let planned = sol.prepare(&request, &grids).unwrap().planned();
            assert_eq!(
                (m.tier, m.tier_reason),
                (planned.tier(), planned.reason),
                "{p}"
            );
        }
    }

    /// A measurement's rate and time describe one sweep, whatever the
    /// wavefront depth and however the pass ran: tiled (row-major, depth
    /// 3) or op by op (a 4x2x1 brick fold, depth 2), on the host and on a
    /// simulated machine.
    #[test]
    fn a_measurement_times_one_sweep_at_any_depth() {
        let row = TuningParams::new([32, 8, 8], Fold::new(8, 1, 1));
        let cases = [
            row.clone(),
            row.wavefront(3),
            TuningParams::new([32, 8, 8], Fold::new(4, 2, 1)).wavefront(2),
        ];
        for machine in [Machine::host(), Machine::cascade_lake()] {
            let sol = Solution::new(heat3d(1), [32, 16, 16], machine);
            for p in &cases {
                let m = sol.measure(p).unwrap();
                let updates = m.mlups * m.seconds_per_sweep * 1e6;
                let want = sol.updates_per_sweep() as f64;
                assert!((updates - want).abs() <= 1e-9 * want, "{p}: {updates}");
            }
        }
    }

    #[test]
    fn simulated_measurement_on_clx() {
        let sol = Solution::new(heat3d(1), [64, 32, 32], Machine::cascade_lake());
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1)).threads(2);
        let m = sol.measure(&p).unwrap();
        assert!(m.simulated);
        assert!(m.stats.is_some());
        assert!(m.mlups > 0.0);
    }

    #[test]
    fn simulated_wavefront_measurement() {
        let sol = Solution::new(heat3d(1), [64, 32, 32], Machine::cascade_lake());
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1)).wavefront(2);
        let m = sol.measure(&p).unwrap();
        assert!(m.mlups > 0.0);
    }

    #[test]
    fn two_input_solution_measures() {
        let sol = Solution::new(wave2d(0.3), [64, 64, 1], Machine::cascade_lake());
        let p = TuningParams::new([64, 16, 1], Fold::new(8, 1, 1));
        let m = sol.measure(&p).unwrap();
        assert!(m.mlups > 0.0);
    }

    #[test]
    fn predict_is_pure() {
        let sol = Solution::new(heat3d(1), [128, 64, 64], Machine::cascade_lake());
        let p = TuningParams::new([128, 8, 8], Fold::new(8, 1, 1));
        let a = sol.predict(&p, 4);
        let b = sol.predict(&p, 4);
        assert_eq!(a.mlups, b.mlups);
    }

    #[test]
    fn signature_is_the_same_before_and_after_it_is_first_asked_for() {
        let build = || Solution::new(heat3d(1), [128, 64, 64], Machine::cascade_lake());
        let sol = build();
        let cloned_before = sol.clone();
        let first = sol.signature();
        let cloned_after = sol.clone();
        let fresh = build().signature();
        assert_eq!(first, fresh, "equal solutions, equal signatures");
        assert_eq!(sol.signature(), fresh, "the memoised value is the value");
        assert_eq!(cloned_before.signature(), fresh);
        assert_eq!(cloned_after.signature(), fresh);
        let other = Solution::new(heat3d(1), [128, 64, 32], Machine::cascade_lake());
        assert_ne!(other.signature(), fresh);
    }

    #[test]
    fn profile_native_runs_on_host_even_for_simulated_machines() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let p = TuningParams::new([32, 8, 8], Fold::new(8, 1, 1)).threads(2);
        let (perf, report) = sol.profile_native(&p).unwrap();
        assert!(!perf.simulated, "profiling always executes natively");
        assert!(perf.mlups > 0.0);
        assert!(report.enabled);
        assert!(report.phases.iter().any(|ph| ph.name == "sweep"));
        assert!(report.chunks.is_some());
        assert!(report.pool.is_some());
    }

    #[test]
    fn profile_native_wavefront_records_planes() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let p = TuningParams::new([32, 8, 8], Fold::new(8, 1, 1))
            .wavefront(2)
            .threads(2);
        let (perf, report) = sol.profile_native(&p).unwrap();
        assert!(perf.mlups > 0.0);
        assert!(report.phases.iter().any(|ph| ph.name == "wavefront"));
        assert!(report.planes.is_some());
    }

    #[test]
    fn codegen_delegates() {
        let sol = Solution::new(heat3d(1), [128, 64, 64], Machine::cascade_lake());
        let p = TuningParams::new([128, 8, 8], Fold::new(8, 1, 1));
        assert!(sol.codegen(&p).source.contains("kernel_heat_3d_r1"));
    }
}
