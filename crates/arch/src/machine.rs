//! Whole-machine descriptors and the built-in models.

use serde::{Deserialize, Serialize};

use crate::cache::{CacheLevel, InclusionPolicy, Scope, WritePolicy};
use crate::ports::{PortModel, SimdIsa};

/// Identifies one of the built-in machine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineKind {
    /// Intel Xeon Gold 6248 "Cascade Lake" (paper's CLX testbed).
    CascadeLake,
    /// AMD EPYC 7742 "Rome" (paper's ROME testbed).
    Rome,
    /// The machine this reproduction runs on (used for native timing).
    Host,
    /// A user-defined model.
    Custom,
}

/// One measured quantity backing a calibrated machine model: the accepted
/// value plus the robust-trial evidence behind it (sample counts, the
/// confidence interval spanned by the kept samples, and how many samples
/// the MAD filter rejected as outliers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasurementProvenance {
    /// Stable probe name (e.g. `fma_gflops`, `mem_gbs`).
    pub name: String,
    /// Unit of `value` (`gflops`, `gbs`, `cycles`).
    pub unit: String,
    /// The accepted estimate (median of the kept samples, or the builtin
    /// fallback when every sample failed — then `samples` is 0).
    pub value: f64,
    /// Valid samples the estimate rests on.
    pub samples: usize,
    /// Samples rejected as outliers.
    pub rejected: usize,
    /// Lower bound of the kept-sample spread.
    pub ci_low: f64,
    /// Upper bound of the kept-sample spread.
    pub ci_high: f64,
}

impl MeasurementProvenance {
    /// Validates one measurement record.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency: empty name,
    /// non-finite or non-positive value, or an inverted confidence
    /// interval.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("measurement with an empty name".into());
        }
        if !self.value.is_finite() || self.value <= 0.0 {
            return Err(format!(
                "measurement '{}' value must be positive",
                self.name
            ));
        }
        if !self.ci_low.is_finite() || !self.ci_high.is_finite() || self.ci_low > self.ci_high {
            return Err(format!(
                "measurement '{}' confidence interval is inverted",
                self.name
            ));
        }
        Ok(())
    }
}

/// How a calibrated machine model came to be: the code revision and seed
/// that produced it, when it ran, and one [`MeasurementProvenance`] per
/// micro-benchmark probe. Carried on [`Machine::calibration`] and round-
/// tripped through the machine-file format; models without it (all
/// builtins and hand-written files) simply leave the field `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationProvenance {
    /// Code revision (crate version) of the calibrator.
    pub rev: String,
    /// Seed of the calibration run (fault plan + synthetic streams).
    pub seed: u64,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// One record per probe, in probe order.
    pub measurements: Vec<MeasurementProvenance>,
}

impl CalibrationProvenance {
    /// Validates the provenance block.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency: no measurements,
    /// a duplicate probe name, or a bad individual record.
    pub fn validate(&self) -> Result<(), String> {
        if self.measurements.is_empty() {
            return Err("calibration without measurements".into());
        }
        for (i, m) in self.measurements.iter().enumerate() {
            m.validate()?;
            if self.measurements[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("duplicate measurement '{}'", m.name));
            }
        }
        Ok(())
    }
}

/// A complete machine model: topology, cache hierarchy, in-core resources
/// and memory interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Model name for reports.
    pub name: String,
    /// Which built-in (or custom) model this is.
    pub kind: MachineKind,
    /// Nominal (AVX base) clock in GHz; cycle counts are converted to time
    /// with this frequency.
    pub freq_ghz: f64,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Number of sockets (the evaluation uses one socket at a time).
    pub sockets: usize,
    /// Cache levels ordered from closest to the core (L1) outward.
    pub caches: Vec<CacheLevel>,
    /// In-core execution resources.
    pub ports: PortModel,
    /// Sustained memory bandwidth of a full socket, GB/s.
    pub mem_bw_gbs: f64,
    /// Memory bandwidth achievable by a single core, GB/s (limits the
    /// single-core ECM memory term; below the socket limit on all modern
    /// server CPUs).
    pub mem_bw_single_core_gbs: f64,
    /// Main-memory access latency in core cycles (simulator only).
    pub mem_latency_cycles: f64,
    /// Measurement provenance when this model was produced by
    /// `yasksite calibrate`; `None` for builtins and hand-written files.
    #[serde(default)]
    pub calibration: Option<CalibrationProvenance>,
}

impl Machine {
    /// Intel Xeon Gold 6248 ("Cascade Lake", CLX): 20 cores/socket,
    /// 2.5 GHz AVX-512 base clock, 32 KiB L1, 1 MiB private L2, 27.5 MiB
    /// shared victim L3, ~115 GB/s socket bandwidth.
    #[must_use]
    pub fn cascade_lake() -> Self {
        Machine {
            name: "Intel Cascade Lake (Xeon Gold 6248)".into(),
            kind: MachineKind::CascadeLake,
            freq_ghz: 2.5,
            cores_per_socket: 20,
            sockets: 2,
            caches: vec![
                CacheLevel {
                    name: "L1".into(),
                    size_bytes: 32 * 1024,
                    assoc: 8,
                    line_bytes: 64,
                    // Two 64-byte loads per cycle from L1 -> register;
                    // L1<->L2 sustains one line per cycle.
                    bytes_per_cycle: 64.0,
                    latency_cycles: 4.0,
                    inclusion: InclusionPolicy::Inclusive,
                    write_policy: WritePolicy::WriteBackAllocate,
                    scope: Scope::PerCore,
                },
                CacheLevel {
                    name: "L2".into(),
                    size_bytes: 1024 * 1024,
                    assoc: 16,
                    line_bytes: 64,
                    bytes_per_cycle: 64.0,
                    latency_cycles: 14.0,
                    inclusion: InclusionPolicy::Inclusive,
                    write_policy: WritePolicy::WriteBackAllocate,
                    scope: Scope::PerCore,
                },
                CacheLevel {
                    name: "L3".into(),
                    // 27.5 MiB shared in hardware; modelled as one 28 MiB
                    // 14-way cache so the set count stays a power of two
                    // (required by the simulator's index hashing).
                    size_bytes: 28 * 1024 * 1024,
                    assoc: 14,
                    line_bytes: 64,
                    bytes_per_cycle: 16.0,
                    latency_cycles: 60.0,
                    inclusion: InclusionPolicy::Victim,
                    write_policy: WritePolicy::WriteBackAllocate,
                    scope: Scope::PerSocket,
                },
            ],
            ports: PortModel {
                simd: SimdIsa::Avx512,
                fma_ports: 2,
                extra_add_ports: 0,
                load_ports: 2.0,
                store_ports: 1.0,
                datapath_split: 1.0,
            },
            mem_bw_gbs: 115.0,
            mem_bw_single_core_gbs: 14.0,
            mem_latency_cycles: 220.0,
            calibration: None,
        }
    }

    /// AMD EPYC 7742 ("Rome"): 64 cores/socket at 2.25 GHz, 32 KiB L1,
    /// 512 KiB private L2, 16 MiB victim L3 per 4-core CCX, ~190 GB/s
    /// socket bandwidth, AVX2 (256-bit) datapath.
    #[must_use]
    pub fn rome() -> Self {
        Machine {
            name: "AMD Rome (EPYC 7742)".into(),
            kind: MachineKind::Rome,
            freq_ghz: 2.25,
            cores_per_socket: 64,
            sockets: 2,
            caches: vec![
                CacheLevel {
                    name: "L1".into(),
                    size_bytes: 32 * 1024,
                    assoc: 8,
                    line_bytes: 64,
                    bytes_per_cycle: 64.0,
                    latency_cycles: 4.0,
                    inclusion: InclusionPolicy::Inclusive,
                    write_policy: WritePolicy::WriteBackAllocate,
                    scope: Scope::PerCore,
                },
                CacheLevel {
                    name: "L2".into(),
                    size_bytes: 512 * 1024,
                    assoc: 8,
                    line_bytes: 64,
                    bytes_per_cycle: 32.0,
                    latency_cycles: 12.0,
                    inclusion: InclusionPolicy::Inclusive,
                    write_policy: WritePolicy::WriteBackAllocate,
                    scope: Scope::PerCore,
                },
                CacheLevel {
                    name: "L3".into(),
                    size_bytes: 16 * 1024 * 1024,
                    assoc: 16,
                    line_bytes: 64,
                    bytes_per_cycle: 32.0,
                    latency_cycles: 40.0,
                    inclusion: InclusionPolicy::Victim,
                    write_policy: WritePolicy::WriteBackAllocate,
                    scope: Scope::PerCoreGroup(4),
                },
            ],
            ports: PortModel {
                simd: SimdIsa::Avx2,
                fma_ports: 2,
                extra_add_ports: 0,
                load_ports: 2.0,
                store_ports: 1.0,
                datapath_split: 1.0,
            },
            mem_bw_gbs: 190.0,
            mem_bw_single_core_gbs: 22.0,
            mem_latency_cycles: 250.0,
            calibration: None,
        }
    }

    /// A model of the single-vCPU AVX-512 host used for native timing runs
    /// in this reproduction (Sapphire-Rapids-class virtual CPU).
    #[must_use]
    pub fn host() -> Self {
        let mut m = Machine::cascade_lake();
        m.name = "Host vCPU (Sapphire-Rapids-class)".into();
        m.kind = MachineKind::Host;
        m.freq_ghz = 2.7;
        m.cores_per_socket = 1;
        m.sockets = 1;
        m.caches[0].size_bytes = 32 * 1024; // keep power-of-two sets
        m.caches[1].size_bytes = 2 * 1024 * 1024;
        m.caches[2].size_bytes = 64 * 1024 * 1024;
        m.caches[2].assoc = 16;
        m.caches[2].scope = Scope::PerSocket;
        m.mem_bw_gbs = 20.0;
        m.mem_bw_single_core_gbs = 20.0;
        m
    }

    /// Look up a built-in model by its short name (`"clx"`, `"rome"`,
    /// `"host"`); used by the experiment binaries' CLI.
    #[must_use]
    pub fn by_short_name(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "clx" | "cascadelake" | "cascade_lake" => Some(Self::cascade_lake()),
            "rome" | "zen2" => Some(Self::rome()),
            "host" => Some(Self::host()),
            _ => None,
        }
    }

    /// Short tag for file names and table rows.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self.kind {
            MachineKind::CascadeLake => "CLX",
            MachineKind::Rome => "ROME",
            MachineKind::Host => "HOST",
            MachineKind::Custom => "CUSTOM",
        }
    }

    /// Number of `f64` SIMD lanes of the machine's vector ISA.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.ports.simd.lanes_f64()
    }

    /// Cache line length (identical across levels after validation).
    #[must_use]
    pub fn line_bytes(&self) -> usize {
        self.caches
            .first()
            .map_or(crate::LINE_BYTES, |c| c.line_bytes)
    }

    /// Cycles to move one cache line between `caches[level]` and the level
    /// above it (registers for `level == 0`).
    ///
    /// # Panics
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn cycles_per_line(&self, level: usize) -> f64 {
        self.caches[level].cycles_per_line()
    }

    /// Cycles to move one cache line between the last cache level and main
    /// memory, for a single core (bounded by the single-core bandwidth).
    #[must_use]
    pub fn mem_cycles_per_line(&self) -> f64 {
        self.line_bytes() as f64 * self.freq_ghz / self.mem_bw_single_core_gbs
    }

    /// Cycles per cache line of *socket-aggregate* memory traffic when all
    /// `n` cores stream together (bounded by the saturated bandwidth).
    #[must_use]
    pub fn mem_cycles_per_line_saturated(&self) -> f64 {
        self.line_bytes() as f64 * self.freq_ghz / self.mem_bw_gbs
    }

    /// Peak double-precision GFLOP/s of one core.
    #[must_use]
    pub fn peak_gflops_core(&self) -> f64 {
        self.ports.peak_flops_per_cycle() * self.freq_ghz
    }

    /// Validates the whole model.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency: bad cache geometry,
    /// mismatched line sizes, non-monotone capacities, or nonsensical
    /// bandwidths/frequencies.
    pub fn validate(&self) -> Result<(), String> {
        if self.freq_ghz <= 0.0 || self.freq_ghz.is_nan() {
            return Err("frequency must be positive".into());
        }
        if self.cores_per_socket == 0 || self.sockets == 0 {
            return Err("topology must be non-empty".into());
        }
        if self.caches.is_empty() {
            return Err("at least one cache level required".into());
        }
        for c in &self.caches {
            c.validate()?;
        }
        let line = self.caches[0].line_bytes;
        for w in self.caches.windows(2) {
            if w[1].line_bytes != line {
                return Err("all cache levels must share one line size".into());
            }
            let cap0 =
                w[0].size_bytes * self.cores_per_socket / w[0].scope.sharers(self.cores_per_socket);
            let cap1 =
                w[1].size_bytes * self.cores_per_socket / w[1].scope.sharers(self.cores_per_socket);
            if cap1 < cap0 {
                return Err(format!(
                    "aggregate capacity of {} below {}",
                    w[1].name, w[0].name
                ));
            }
        }
        if self.mem_bw_gbs <= 0.0 || self.mem_bw_single_core_gbs <= 0.0 {
            return Err("memory bandwidths must be positive".into());
        }
        if self.mem_bw_single_core_gbs > self.mem_bw_gbs {
            return Err("single-core bandwidth cannot exceed socket bandwidth".into());
        }
        if let Some(c) = &self.calibration {
            c.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clx_derived_quantities() {
        let m = Machine::cascade_lake();
        assert_eq!(m.lanes(), 8);
        assert_eq!(m.line_bytes(), 64);
        // L1<->L2 at 64 B/cy: one cycle per line.
        assert!((m.cycles_per_line(1) - 1.0).abs() < 1e-12);
        // 64 B * 2.5 GHz / 14 GB/s = ~11.43 cy/line single-core.
        assert!((m.mem_cycles_per_line() - 64.0 * 2.5 / 14.0).abs() < 1e-9);
        // Peak: 32 flop/cy * 2.5 GHz = 80 GF/s.
        assert!((m.peak_gflops_core() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn rome_topology() {
        let m = Machine::rome();
        assert_eq!(m.cores_per_socket, 64);
        assert_eq!(m.caches[2].scope.sharers(m.cores_per_socket), 4);
        assert_eq!(m.lanes(), 4);
    }

    #[test]
    fn lookup_by_name() {
        assert!(Machine::by_short_name("clx").is_some());
        assert!(Machine::by_short_name("ROME").is_some());
        assert!(Machine::by_short_name("host").is_some());
        assert!(Machine::by_short_name("m1").is_none());
    }

    #[test]
    fn validate_rejects_inverted_capacities() {
        let mut m = Machine::cascade_lake();
        m.caches[1].size_bytes = 16 * 1024;
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_bw_inversion() {
        let mut m = Machine::rome();
        m.mem_bw_single_core_gbs = m.mem_bw_gbs * 2.0;
        assert!(m.validate().is_err());
    }

    fn sample_calibration() -> CalibrationProvenance {
        CalibrationProvenance {
            rev: "0.1.0".into(),
            seed: 42,
            date: "2026-08-09".into(),
            measurements: vec![MeasurementProvenance {
                name: "mem_gbs".into(),
                unit: "gbs".into(),
                value: 20.0,
                samples: 5,
                rejected: 1,
                ci_low: 19.0,
                ci_high: 21.0,
            }],
        }
    }

    #[test]
    fn calibration_provenance_validates() {
        let mut m = Machine::host();
        m.calibration = Some(sample_calibration());
        m.validate().unwrap();
        // Inverted CI fails the whole model.
        m.calibration.as_mut().unwrap().measurements[0].ci_low = 30.0;
        assert!(m.validate().unwrap_err().contains("inverted"));
        // Duplicate probe names are rejected.
        let mut c = sample_calibration();
        c.measurements.push(c.measurements[0].clone());
        assert!(c.validate().unwrap_err().contains("duplicate"));
        // Empty blocks carry no evidence.
        c.measurements.clear();
        assert!(c.validate().is_err());
    }

    #[test]
    fn saturated_cycles_below_single_core() {
        for m in [Machine::cascade_lake(), Machine::rome()] {
            assert!(m.mem_cycles_per_line_saturated() < m.mem_cycles_per_line());
        }
    }
}
