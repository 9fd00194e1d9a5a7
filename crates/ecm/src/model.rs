//! Model composition and multi-core scaling.

use yasksite_arch::{Machine, MachineKind};
use yasksite_grid::Fold;
use yasksite_stencil::{Stencil, StencilInfo};

use crate::incore::{incore_with_issue, InCore, Issue, UPDATES_PER_UNIT};
use crate::traffic::{traffic_resident, TrafficModel};

/// How data-transfer terms combine with each other and the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapPolicy {
    /// Intel-style: all transfers serialise with `T_nOL`
    /// (`T = max(T_OL, T_nOL + ΣT_data)`).
    Serial,
    /// AMD-style: cache transfers serialise, the memory transfer overlaps
    /// with them (`T = max(T_OL, T_nOL + ΣT_cache, T_mem)`), reflecting
    /// Zen's more autonomous memory pipeline.
    MemOverlap,
}

impl OverlapPolicy {
    /// The customary policy for a machine model.
    #[must_use]
    pub fn for_machine(m: &Machine) -> Self {
        match m.kind {
            MachineKind::Rome => OverlapPolicy::MemOverlap,
            _ => OverlapPolicy::Serial,
        }
    }
}

/// Everything the ECM model needs to know about one kernel configuration.
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Static analysis of the stencil.
    pub info: StencilInfo,
    /// Stencil name (for reports).
    pub name: String,
    /// Full domain extents.
    pub domain: [usize; 3],
    /// Iteration tile (spatial block) extents.
    pub tile: [usize; 3],
    /// Vector fold.
    pub fold: Fold,
    /// Whether stores bypass the cache (non-temporal).
    pub streaming_stores: bool,
    /// How the kernel that runs this configuration issues its work (the
    /// engine tier the in-core model prices); see [`Issue`].
    pub issue: Issue,
    /// Steady-state resident-set bytes of the kernel's whole working data
    /// (defaults to all of its grids); boundaries below a level that can
    /// hold this carry no steady-state traffic.
    pub resident_bytes: f64,
}

impl KernelDesc {
    /// Starts a descriptor from a stencil and a domain; tile defaults to
    /// the whole domain and the fold to in-line 8×1×1.
    #[must_use]
    pub fn new(stencil: &Stencil, domain: [usize; 3]) -> Self {
        let info = stencil.info();
        let grids = info.read_grids + 1;
        let resident_bytes = (grids * domain[0] * domain[1] * domain[2] * 8) as f64;
        KernelDesc {
            info,
            name: stencil.name().to_string(),
            domain,
            tile: domain,
            fold: Fold::new(8, 1, 1),
            streaming_stores: false,
            issue: Issue::Vector,
            resident_bytes,
        }
    }

    /// Sets the iteration tile (spatial block).
    #[must_use]
    pub fn tile(mut self, tile: [usize; 3]) -> Self {
        self.tile = tile;
        self
    }

    /// Sets the vector fold.
    #[must_use]
    pub fn fold(mut self, fold: Fold) -> Self {
        self.fold = fold;
        self
    }

    /// Enables non-temporal stores.
    #[must_use]
    pub fn streaming_stores(mut self, on: bool) -> Self {
        self.streaming_stores = on;
        self
    }

    /// Sets the issue regime. The tier-aware predictor derives it from
    /// the engine's tier planner; the default, [`Issue::Vector`], models
    /// the vectorised kernels.
    #[must_use]
    pub fn issue(mut self, issue: Issue) -> Self {
        self.issue = issue;
        self
    }

    /// Overrides the steady-state resident-set size (e.g. the full grid
    /// pool of an ODE step plan rather than just this kernel's grids).
    #[must_use]
    pub fn resident_bytes(mut self, bytes: f64) -> Self {
        self.resident_bytes = bytes;
        self
    }
}

/// A complete ECM prediction for one kernel configuration on one machine.
#[derive(Debug, Clone)]
pub struct EcmPrediction {
    /// Overlapping in-core cycles per unit of work.
    pub t_ol: f64,
    /// Non-overlapping in-core cycles per unit of work.
    pub t_nol: f64,
    /// Data-transfer cycles per unit per boundary (last entry = memory).
    pub t_data: Vec<f64>,
    /// Single-core cycles per unit of work after composition.
    pub t_ecm: f64,
    /// Single-core performance in MLUP/s.
    pub mlups_single: f64,
    /// Bandwidth-ceiling performance in MLUP/s (full socket).
    pub mlups_sat: f64,
    /// Smallest core count at which the ceiling is reached.
    pub sat_cores: usize,
    /// Memory bytes per lattice update.
    pub bytes_per_lup_mem: f64,
    /// The traffic model that produced the data terms.
    pub traffic: TrafficModel,
    /// The in-core model.
    pub incore: InCore,
    /// Composition policy used.
    pub policy: OverlapPolicy,
}

impl EcmPrediction {
    /// Predicted performance at `cores` active cores, MLUP/s
    /// (linear scaling capped by the bandwidth ceiling).
    #[must_use]
    pub fn mlups(&self, cores: usize) -> f64 {
        (cores as f64 * self.mlups_single).min(self.mlups_sat)
    }

    /// Predicted wall seconds to perform `updates` lattice updates on
    /// `cores` cores.
    #[must_use]
    pub fn seconds(&self, updates: u64, cores: usize) -> f64 {
        updates as f64 / (self.mlups(cores) * 1e6)
    }

    /// Single-line summary for tables.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "T_OL={:.1} T_nOL={:.1} T_data={} T_ECM={:.1}cy  {:.0} MLUP/s (1c), sat {:.0} @ {}c",
            self.t_ol,
            self.t_nol,
            self.t_data
                .iter()
                .map(|c| format!("{c:.1}"))
                .collect::<Vec<_>>()
                .join("|"),
            self.t_ecm,
            self.mlups_single,
            self.mlups_sat,
            self.sat_cores
        )
    }
}

/// The ECM model bound to a machine.
#[derive(Debug, Clone)]
pub struct EcmModel {
    machine: Machine,
    policy: OverlapPolicy,
    pessimistic_traffic: bool,
}

impl EcmModel {
    /// Creates the model with the machine's customary overlap policy.
    #[must_use]
    pub fn new(machine: &Machine) -> Self {
        EcmModel {
            machine: machine.clone(),
            policy: OverlapPolicy::for_machine(machine),
            pessimistic_traffic: false,
        }
    }

    /// Disables the layer-condition analysis: every boundary is charged
    /// as if no cache level captured vertical reuse (the ablation the
    /// paper's model section argues against).
    #[must_use]
    pub fn with_pessimistic_traffic(mut self, on: bool) -> Self {
        self.pessimistic_traffic = on;
        self
    }

    /// Overrides the overlap policy (for the ablation experiment).
    #[must_use]
    pub fn with_policy(mut self, policy: OverlapPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The machine this model predicts for.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Predicts the performance of one kernel configuration.
    #[must_use]
    pub fn predict(&self, desc: &KernelDesc) -> EcmPrediction {
        self.predict_at(desc, 1)
    }

    /// Predicts with the shared-cache capacity divided among `cores`
    /// (matters for the layer condition in L3).
    #[must_use]
    pub fn predict_at(&self, desc: &KernelDesc, cores: usize) -> EcmPrediction {
        let m = &self.machine;
        let ic = incore_with_issue(&desc.info, &m.ports, desc.fold, desc.issue);
        let tr = if self.pessimistic_traffic {
            crate::traffic::traffic_pessimistic(&desc.info, m, desc.streaming_stores)
        } else {
            traffic_resident(
                &desc.info,
                desc.tile,
                desc.domain,
                m,
                cores,
                desc.streaming_stores,
                desc.resident_bytes,
            )
        };
        let nlev = m.caches.len();
        let mut t_data = Vec::with_capacity(nlev);
        for b in 0..nlev - 1 {
            t_data.push(tr.per_boundary_lines[b] * m.cycles_per_line(b + 1));
        }
        t_data.push(tr.per_boundary_lines[nlev - 1] * m.mem_cycles_per_line());

        let cache_sum: f64 = t_data[..nlev - 1].iter().sum();
        let t_mem = t_data[nlev - 1];
        let t_ecm = match self.policy {
            OverlapPolicy::Serial => ic.t_ol.max(ic.t_nol + cache_sum + t_mem),
            OverlapPolicy::MemOverlap => ic.t_ol.max(ic.t_nol + cache_sum).max(t_mem),
        };
        let mlups_single = UPDATES_PER_UNIT / t_ecm * m.freq_ghz * 1e3;
        let mlups_sat = if tr.bytes_per_lup_mem > 0.0 {
            m.mem_bw_gbs * 1e3 / tr.bytes_per_lup_mem
        } else {
            f64::INFINITY
        };
        let sat_cores = if mlups_single > 0.0 {
            ((mlups_sat / mlups_single).ceil() as usize).clamp(1, m.cores_per_socket)
        } else {
            m.cores_per_socket
        };
        EcmPrediction {
            t_ol: ic.t_ol,
            t_nol: ic.t_nol,
            t_data,
            t_ecm,
            mlups_single,
            mlups_sat,
            sat_cores,
            bytes_per_lup_mem: tr.bytes_per_lup_mem,
            traffic: tr,
            incore: ic,
            policy: self.policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_stencil::builders::heat3d;

    fn clx_pred(tile: [usize; 3]) -> EcmPrediction {
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        let d = KernelDesc::new(&s, [512, 512, 512]).tile(tile);
        EcmModel::new(&m).predict(&d)
    }

    #[test]
    fn hand_computed_heat3d_composition() {
        let p = clx_pred([512, 8, 8]);
        // In-core: T_OL = 3, T_nOL = 4 (from incore tests).
        assert!((p.t_ol - 3.0).abs() < 1e-12);
        assert!((p.t_nol - 4.0).abs() < 1e-12);
        // L1 (16 KiB effective) holds neither 3 layers of 514x10 nor
        // 5 rows of 514 -> LC None: 5 input + 2 output lines cross L1<->L2.
        assert!((p.t_data[0] - 7.0 * 1.0).abs() < 1e-9); // 64 B/cy
                                                         // L2/L3 hold the layers; blocked 8x8 in y/z adds halo factor
                                                         // (10/8)^2 = 1.5625 on the compulsory input line.
        let lines = 1.5625 + 2.0;
        assert!((p.t_data[1] - lines * 4.0).abs() < 1e-9); // 16 B/cy
        let mem_cy = 64.0 * 2.5 / 14.0;
        assert!((p.t_data[2] - lines * mem_cy).abs() < 1e-6);
        let expect = 4.0 + 7.0 + lines * 4.0 + lines * mem_cy;
        assert!((p.t_ecm - expect).abs() < 1e-6);
    }

    #[test]
    fn blocked_beats_unblocked() {
        let blocked = clx_pred([512, 16, 16]);
        let unblocked = clx_pred([512, 512, 512]);
        assert!(blocked.mlups_single > unblocked.mlups_single);
    }

    #[test]
    fn scaling_saturates() {
        let p = clx_pred([512, 8, 8]);
        let m = Machine::cascade_lake();
        assert!(p.mlups(1) < p.mlups(4));
        assert!((p.mlups(m.cores_per_socket) - p.mlups_sat).abs() < 1e-9);
        assert!(p.sat_cores > 1 && p.sat_cores <= m.cores_per_socket);
    }

    #[test]
    fn mem_overlap_policy_is_faster() {
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        let d = KernelDesc::new(&s, [512, 512, 512]).tile([512, 8, 8]);
        let serial = EcmModel::new(&m)
            .with_policy(OverlapPolicy::Serial)
            .predict(&d);
        let overlap = EcmModel::new(&m)
            .with_policy(OverlapPolicy::MemOverlap)
            .predict(&d);
        assert!(overlap.t_ecm <= serial.t_ecm);
    }

    #[test]
    fn seconds_consistent_with_mlups() {
        let p = clx_pred([512, 8, 8]);
        let s = p.seconds(1_000_000, 1);
        assert!((s - 1.0 / p.mlups_single).abs() < 1e-9);
    }

    #[test]
    fn pessimistic_ablation_predicts_slower_kernels() {
        // Without layer conditions the model charges the no-reuse traffic
        // at every boundary, so a well-blocked kernel looks much slower —
        // the gap is the value of the LC analysis.
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        let d = KernelDesc::new(&s, [512, 512, 512]).tile([512, 8, 8]);
        let with_lc = EcmModel::new(&m).predict(&d);
        let without = EcmModel::new(&m).with_pessimistic_traffic(true).predict(&d);
        assert!(without.t_ecm > 1.5 * with_lc.t_ecm);
        assert!(without.bytes_per_lup_mem > with_lc.bytes_per_lup_mem);
    }

    #[test]
    fn rome_defaults_to_mem_overlap() {
        let m = Machine::rome();
        assert_eq!(OverlapPolicy::for_machine(&m), OverlapPolicy::MemOverlap);
        let s = heat3d(1);
        let d = KernelDesc::new(&s, [256, 256, 256])
            .tile([256, 16, 16])
            .fold(Fold::new(4, 1, 1));
        let p = EcmModel::new(&m).predict(&d);
        assert!(p.mlups_single > 0.0);
        assert!(p.mlups_sat.is_finite());
    }
}
