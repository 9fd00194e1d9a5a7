//! Measured machine discovery: `yasksite calibrate`.
//!
//! The builtin [`Machine::host`] model is a hand-written guess about the
//! machine this reproduction runs on. This module replaces the guess with
//! *measurements*, kerncraft-style: a fixed set of seeded micro-benchmark
//! probes — FMA throughput, L1 load/store throughput, triad bandwidth at
//! cache-level-sized working sets, memory bandwidth and a pointer-chase
//! memory latency — each run through the same robust trial machinery the
//! tuner uses ([`run_trial_observed`]: warmup, MAD outlier rejection,
//! bounded retries, budget accounting, graceful fallback to the builtin
//! value when a probe fails entirely).
//!
//! The result is a [`Machine`] with [`MachineKind::Host`] whose cache and
//! memory bandwidths come from the probes, carrying a
//! [`CalibrationProvenance`] block (per-probe sample counts, kept-sample
//! confidence intervals, rejected-outlier counts, the calibrator revision,
//! seed and date) that round-trips through the machine-file format and is
//! re-validated by [`check_calibration`] — the `yasksite calibrate
//! --check` entry point.
//!
//! Two execution modes share every code path above the sample:
//!
//! - **native** (default): the probes time real loops on this host;
//! - **synthetic** (`--synthetic`): samples are drawn from a seeded
//!   [`TrialRng`] stream around the builtin model's nominal values, so CI
//!   and the test suite get bitwise-deterministic calibrations without
//!   depending on machine noise.

use std::hint::black_box;
use std::time::Instant;

use yasksite_arch::{CalibrationProvenance, Machine, MachineKind, MeasurementProvenance};
use yasksite_engine::TuningParams;
use yasksite_grid::Fold;
use yasksite_telemetry::{Level, Telemetry};

use crate::cost::TuneCost;
use crate::solution::ToolError;
use crate::trial::{
    run_trial_observed, FaultPlan, FaultyBackend, MeasureBackend, TrialBudget, TrialConfig,
    TrialResult, TrialRng,
};

/// Names of the calibration probes, in execution order. Every calibrated
/// model carries exactly one measurement per name.
pub const PROBE_NAMES: [&str; 7] = [
    "fma_gflops",
    "load_gbs",
    "store_gbs",
    "l2_gbs",
    "l3_gbs",
    "mem_gbs",
    "mem_latency_cycles",
];

/// Configuration of one calibration run.
#[derive(Debug, Clone)]
pub struct CalibrateConfig {
    /// Seed of the run: drives the synthetic sample stream, the pointer-
    /// chase permutation and (via [`FaultPlan::stream`]) any injected
    /// faults. Identical seeds give identical synthetic calibrations.
    pub seed: u64,
    /// Calibrator revision recorded in the provenance block.
    pub rev: String,
    /// UTC date recorded in the provenance block, `YYYY-MM-DD`.
    pub date: String,
    /// Trial protocol each probe runs under.
    pub trial: TrialConfig,
    /// Shared budget across all probes.
    pub budget: TrialBudget,
    /// Optional fault injection (tests and the CI smoke job).
    pub faults: Option<FaultPlan>,
    /// Shrink working sets and iteration counts for smoke runs.
    pub quick: bool,
    /// Draw samples from the seeded synthetic stream instead of timing
    /// real loops.
    pub synthetic: bool,
}

impl CalibrateConfig {
    /// A default-protocol calibration under `seed`: robust trials
    /// ([`TrialConfig::default`]), unlimited budget, native mode.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        CalibrateConfig {
            seed,
            rev: env!("CARGO_PKG_VERSION").to_string(),
            date: today_utc(),
            trial: TrialConfig::default(),
            budget: TrialBudget::unlimited(),
            faults: None,
            quick: false,
            synthetic: false,
        }
    }
}

/// What a calibration run produced: the calibrated model plus its cost.
#[derive(Debug, Clone)]
pub struct CalibrationOutcome {
    /// The measured [`MachineKind::Host`] model, provenance attached,
    /// already validated.
    pub machine: Machine,
    /// Cost ledger of the run (`recalibrations` is 1, `engine_runs`
    /// counts probe attempts, `fallbacks` counts probes that degraded to
    /// the builtin value).
    pub cost: TuneCost,
}

impl CalibrationOutcome {
    /// Renders the per-probe evidence as an aligned table.
    #[must_use]
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("probe                 value       unit     samples  rejected  ci\n");
        if let Some(c) = &self.machine.calibration {
            for m in &c.measurements {
                let _ = writeln!(
                    out,
                    "{:<20} {:>9.2}  {:<8} {:>8}  {:>8}  [{:.2}, {:.2}]",
                    m.name, m.value, m.unit, m.samples, m.rejected, m.ci_low, m.ci_high
                );
            }
        }
        out
    }
}

/// What [`check_calibration`] verified, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationCheck {
    /// Probes carried by the provenance block.
    pub probes: usize,
    /// Valid samples across all probes.
    pub samples: usize,
    /// MAD-rejected outliers across all probes.
    pub rejected: usize,
    /// Probes that rest on the builtin fallback (zero samples).
    pub fallback_probes: usize,
}

/// Validates a calibrated machine model: the model itself
/// ([`Machine::validate`]), the presence and internal consistency of the
/// provenance block, that every probe of [`PROBE_NAMES`] is present
/// exactly once, that each measured value lies inside its own confidence
/// interval, and that the model's memory bandwidth actually equals the
/// `mem_gbs` probe.
///
/// # Errors
/// A human-readable message naming the first violated invariant.
pub fn check_calibration(m: &Machine) -> Result<CalibrationCheck, String> {
    m.validate()?;
    let Some(c) = &m.calibration else {
        return Err("machine carries no calibration block (not a calibrated model)".into());
    };
    c.validate()?;
    for name in PROBE_NAMES {
        let found = c.measurements.iter().filter(|p| p.name == name).count();
        if found != 1 {
            return Err(format!("probe '{name}' appears {found} times, expected 1"));
        }
    }
    let mut samples = 0usize;
    let mut rejected = 0usize;
    let mut fallback_probes = 0usize;
    for p in &c.measurements {
        if p.samples == 0 {
            fallback_probes += 1;
        } else if !(p.ci_low <= p.value && p.value <= p.ci_high) {
            return Err(format!(
                "probe '{}' value {} outside its confidence interval [{}, {}]",
                p.name, p.value, p.ci_low, p.ci_high
            ));
        }
        samples += p.samples;
        rejected += p.rejected;
    }
    let mem = c
        .measurements
        .iter()
        .find(|p| p.name == "mem_gbs")
        .expect("presence checked above");
    if (m.mem_bw_single_core_gbs - mem.value).abs() > 1e-9 * mem.value.max(1.0) {
        return Err(format!(
            "model memory bandwidth {} disagrees with the mem_gbs probe {}",
            m.mem_bw_single_core_gbs, mem.value
        ));
    }
    Ok(CalibrationCheck {
        probes: c.measurements.len(),
        samples,
        rejected,
        fallback_probes,
    })
}

/// One probe: how to run a sample and how to turn seconds into the final
/// unit.
struct Probe {
    name: &'static str,
    unit: &'static str,
    /// Work per sample in the unit's base quantity (flops, bytes, chase
    /// steps).
    work: f64,
    /// Nominal value from the builtin host model (the fallback, and the
    /// centre of the synthetic stream).
    nominal: f64,
    /// Seconds → value in the probe's unit.
    kind: ProbeKind,
}

#[derive(Clone, Copy)]
enum ProbeKind {
    /// value = work / seconds / 1e9 (GFLOP/s or GB/s).
    GigaPerSecond,
    /// value = seconds / work * freq_ghz * 1e9 (cycles per chase step).
    LatencyCycles { freq_ghz: f64 },
}

impl Probe {
    fn value_of(&self, seconds: f64) -> f64 {
        match self.kind {
            ProbeKind::GigaPerSecond => self.work / seconds / 1e9,
            ProbeKind::LatencyCycles { freq_ghz } => seconds / self.work * freq_ghz * 1e9,
        }
    }

    fn seconds_of(&self, value: f64) -> f64 {
        match self.kind {
            ProbeKind::GigaPerSecond => self.work / (value * 1e9),
            ProbeKind::LatencyCycles { freq_ghz } => value * self.work / (freq_ghz * 1e9),
        }
    }
}

/// Backend adapter: every sample runs `kernel` and returns its seconds.
struct ProbeBackend<F: FnMut() -> f64> {
    kernel: F,
}

impl<F: FnMut() -> f64> MeasureBackend for ProbeBackend<F> {
    fn run_sample(&mut self, _params: &TuningParams) -> Result<f64, ToolError> {
        Ok((self.kernel)())
    }
}

/// The probe set for `template`, sized by `quick`.
fn probes(template: &Machine, quick: bool) -> Vec<Probe> {
    let scale = if quick { 1 } else { 8 };
    let freq = template.freq_ghz;
    // Working sets: L1-resident streams, then triads sized well inside
    // L2, spilling L2 into L3, and spilling everything into memory.
    let l1 = template.caches.first().map_or(32 * 1024, |c| c.size_bytes);
    let l2 = template.caches.get(1).map_or(1 << 20, |c| c.size_bytes);
    let l3 = template.caches.get(2).map_or(1 << 25, |c| c.size_bytes);
    let fma_iters = 200_000 * scale;
    let stream_passes = 16 * scale;
    let chase_steps = 100_000 * scale;
    let nominal_bw = |level: usize| -> f64 {
        template
            .caches
            .get(level)
            .map_or(template.mem_bw_single_core_gbs, |c| {
                c.bytes_per_cycle * freq
            })
    };
    vec![
        Probe {
            name: "fma_gflops",
            unit: "gflops",
            // 8 accumulators, 2 flops per multiply-add, fused or not.
            work: (fma_iters * 8 * 2) as f64,
            nominal: template.peak_gflops_core(),
            kind: ProbeKind::GigaPerSecond,
        },
        Probe {
            name: "load_gbs",
            unit: "gbs",
            work: (stream_passes * (l1 / 2)) as f64,
            nominal: nominal_bw(0),
            kind: ProbeKind::GigaPerSecond,
        },
        Probe {
            name: "store_gbs",
            unit: "gbs",
            work: (stream_passes * (l1 / 2)) as f64,
            nominal: nominal_bw(0),
            kind: ProbeKind::GigaPerSecond,
        },
        Probe {
            name: "l2_gbs",
            unit: "gbs",
            work: (stream_passes * (l2 / 2)) as f64,
            nominal: nominal_bw(1),
            kind: ProbeKind::GigaPerSecond,
        },
        Probe {
            name: "l3_gbs",
            unit: "gbs",
            work: (stream_passes.div_ceil(4) * (l3 / 2)) as f64,
            nominal: nominal_bw(2),
            kind: ProbeKind::GigaPerSecond,
        },
        Probe {
            name: "mem_gbs",
            unit: "gbs",
            work: (stream_passes.div_ceil(8) * l3 * 2) as f64,
            nominal: template.mem_bw_single_core_gbs,
            kind: ProbeKind::GigaPerSecond,
        },
        Probe {
            name: "mem_latency_cycles",
            unit: "cycles",
            work: chase_steps as f64,
            nominal: template.mem_latency_cycles,
            kind: ProbeKind::LatencyCycles { freq_ghz: freq },
        },
    ]
}

/// A native timed kernel for `probe`: returns seconds per sample.
fn native_kernel(probe: &Probe, seed: u64) -> Box<dyn FnMut() -> f64> {
    match probe.name {
        // Issues what the build's kernels issue: a fused `mul_add` when
        // the build enables the `fma` target feature, else a separate
        // multiply and add (`mul_add` would compile to a call into libm's
        // software `fma` there). A baseline x86-64 build runs the
        // multiply + add form.
        "fma_gflops" => {
            let iters = (probe.work / 16.0) as usize;
            Box::new(move || {
                let start = Instant::now();
                let mut acc = [1.0f64; 8];
                let (a, b) = (black_box(1.000_000_1f64), black_box(1e-9f64));
                for _ in 0..iters {
                    for slot in &mut acc {
                        *slot = if cfg!(target_feature = "fma") {
                            slot.mul_add(a, b)
                        } else {
                            *slot * a + b
                        };
                    }
                }
                black_box(acc);
                start.elapsed().as_secs_f64()
            })
        }
        "store_gbs" => {
            let bytes = probe.work as usize;
            let n = 2048; // 16 KiB, L1-resident
            let passes = bytes / (n * 8);
            let mut buf = vec![0.0f64; n];
            Box::new(move || {
                let start = Instant::now();
                for p in 0..passes {
                    buf.fill(p as f64);
                    black_box(&mut buf);
                }
                start.elapsed().as_secs_f64()
            })
        }
        "mem_latency_cycles" => {
            // Pointer chase over a seeded permutation cycle: each load
            // depends on the previous one, so the loop time is latency,
            // not bandwidth.
            let steps = probe.work as usize;
            let n = 1 << 21; // 16 MiB of usize — beyond L3 on the host model
            let mut next: Vec<usize> = (0..n).collect();
            let mut rng = TrialRng::new(seed);
            // Sattolo's algorithm: a single cycle visiting every slot.
            for i in (1..n).rev() {
                let j = (rng.next_u64() as usize) % i;
                next.swap(i, j);
            }
            Box::new(move || {
                let start = Instant::now();
                let mut p = 0usize;
                for _ in 0..steps {
                    p = next[p];
                }
                black_box(p);
                start.elapsed().as_secs_f64()
            })
        }
        // The load and triad probes share a streaming kernel; only the
        // working set differs.
        _ => {
            let bytes = probe.work as usize;
            let n = match probe.name {
                "load_gbs" => 2048,      // 16 KiB — L1-resident
                "l2_gbs" => 16 * 1024,   // 128 KiB — spills L1, fits L2
                "l3_gbs" => 1024 * 1024, // 8 MiB — spills L2, fits L3
                _ => 16 * 1024 * 1024,   // 128 MiB — well past L3
            };
            let passes = (bytes / (n * 8)).max(1);
            let buf: Vec<f64> = (0..n).map(|i| i as f64).collect();
            Box::new(move || {
                let start = Instant::now();
                let mut sum = 0.0f64;
                for _ in 0..passes {
                    for &x in &buf {
                        sum += x;
                    }
                    black_box(sum);
                }
                black_box(sum);
                start.elapsed().as_secs_f64()
            })
        }
    }
}

/// A synthetic sample stream for `probe`: seconds drawn deterministically
/// around the nominal value with ±2% seeded noise.
fn synthetic_kernel(probe: &Probe, seed: u64) -> Box<dyn FnMut() -> f64> {
    let nominal_seconds = probe.seconds_of(probe.nominal);
    let mut rng = TrialRng::new(seed);
    Box::new(move || nominal_seconds * (1.0 + 0.04 * (rng.next_f64() - 0.5)))
}

/// Runs the full calibration: every probe of [`PROBE_NAMES`] as a robust
/// trial, assembled into a validated [`MachineKind::Host`] model carrying
/// its [`CalibrationProvenance`]. Emits a `calibrate` span with one
/// `calibrate_probe` child (and the usual `measure` trial events) per
/// probe, a `probe` event carrying the accepted value and its evidence,
/// and `calibrate.*` counters.
///
/// # Errors
/// [`ToolError::InvalidInput`] when the assembled model fails
/// [`Machine::validate`] — possible only if measurements come back
/// degenerate (e.g. an injected fault plan corrupted every probe).
pub fn calibrate(cfg: &CalibrateConfig, tel: &Telemetry) -> Result<CalibrationOutcome, ToolError> {
    let wall_start = Instant::now();
    let template = Machine::host();
    let specs = probes(&template, cfg.quick);
    let root = tel.span("calibrate");
    tel.event(
        Level::Info,
        "calibrate_start",
        root.id(),
        &[
            ("seed", cfg.seed.into()),
            ("probes", specs.len().into()),
            (
                "mode",
                if cfg.synthetic { "synthetic" } else { "native" }.into(),
            ),
            ("quick", u64::from(cfg.quick).into()),
        ],
    );

    let dummy = TuningParams::new([1, 1, 1], Fold::new(1, 1, 1));
    let mut budget = cfg.budget;
    let mut cost = TuneCost {
        recalibrations: 1,
        ..TuneCost::default()
    };
    let mut measurements = Vec::with_capacity(specs.len());
    let mut values = Vec::with_capacity(specs.len());
    for (i, probe) in specs.iter().enumerate() {
        let span = root.child("calibrate_probe");
        tel.inc("calibrate.probes");
        let stream_seed = cfg.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
        let kernel = if cfg.synthetic {
            synthetic_kernel(probe, stream_seed)
        } else {
            native_kernel(probe, stream_seed)
        };
        let fallback_seconds = probe.seconds_of(probe.nominal);
        let faults = cfg.faults.unwrap_or_else(FaultPlan::none).stream(i as u64);
        let trial = run_trial_observed(
            &mut FaultyBackend::new(ProbeBackend { kernel }, faults),
            &dummy,
            fallback_seconds,
            &cfg.trial,
            &mut budget,
            tel,
            Some(&span),
        );
        let record = measurement_of(probe, &trial);
        cost.engine_runs += trial.attempts;
        if trial.provenance.is_fallback() {
            cost.fallbacks += 1;
            tel.inc("calibrate.fallbacks");
        } else {
            cost.target_seconds += trial.samples.iter().sum::<f64>();
        }
        tel.add("calibrate.samples", record.samples as u64);
        tel.add("calibrate.rejected", record.rejected as u64);
        tel.event(
            Level::Info,
            "probe",
            span.id(),
            &[
                ("name", record.name.clone().into()),
                ("unit", record.unit.clone().into()),
                ("value", record.value.into()),
                ("samples", record.samples.into()),
                ("rejected", record.rejected.into()),
                ("ci_low", record.ci_low.into()),
                ("ci_high", record.ci_high.into()),
                ("provenance", trial.provenance.label().into()),
            ],
        );
        values.push(record.value);
        measurements.push(record);
    }

    let machine = assemble(&template, &specs, &values, cfg, measurements);
    machine
        .validate()
        .map_err(|e| ToolError::InvalidInput(format!("calibrated model is invalid: {e}")))?;
    tel.event(
        Level::Info,
        "calibrate_end",
        root.id(),
        &[
            ("probes", specs.len().into()),
            ("fallbacks", cost.fallbacks.into()),
            ("runs", cost.engine_runs.into()),
        ],
    );
    cost.wall_seconds = wall_start.elapsed().as_secs_f64();
    Ok(CalibrationOutcome { machine, cost })
}

/// Converts one trial into the provenance record of `probe`: the accepted
/// value plus the spread of the collected samples. A fallback trial
/// records the nominal value with zero samples.
fn measurement_of(probe: &Probe, trial: &TrialResult) -> MeasurementProvenance {
    if trial.provenance.is_fallback() || trial.samples.is_empty() {
        return MeasurementProvenance {
            name: probe.name.to_string(),
            unit: probe.unit.to_string(),
            value: probe.nominal,
            samples: 0,
            rejected: trial.rejected,
            ci_low: probe.nominal,
            ci_high: probe.nominal,
        };
    }
    let value = probe.value_of(trial.seconds_per_sweep);
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &s in &trial.samples {
        let v = probe.value_of(s);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    MeasurementProvenance {
        name: probe.name.to_string(),
        unit: probe.unit.to_string(),
        value,
        samples: trial.kept,
        rejected: trial.rejected,
        ci_low: lo.min(value),
        ci_high: hi.max(value),
    }
}

/// Folds the probe values into the host template: measured cache and
/// memory bandwidths, measured memory latency, provenance attached.
fn assemble(
    template: &Machine,
    specs: &[Probe],
    values: &[f64],
    cfg: &CalibrateConfig,
    measurements: Vec<MeasurementProvenance>,
) -> Machine {
    let get = |name: &str| -> f64 {
        specs
            .iter()
            .zip(values)
            .find(|(p, _)| p.name == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut m = template.clone();
    m.name = "Calibrated host".into();
    m.kind = MachineKind::Host;
    let freq = m.freq_ghz;
    // GB/s at freq GHz is bytes-per-cycle; clamp so a pathological probe
    // cannot produce a zero-bandwidth (invalid) level.
    if let Some(c) = m.caches.first_mut() {
        c.bytes_per_cycle = (get("load_gbs") / freq).max(1.0);
    }
    if let Some(c) = m.caches.get_mut(1) {
        c.bytes_per_cycle = (get("l2_gbs") / freq).max(1.0);
    }
    if let Some(c) = m.caches.get_mut(2) {
        c.bytes_per_cycle = (get("l3_gbs") / freq).max(1.0);
    }
    let mem = get("mem_gbs").max(0.1);
    m.mem_bw_single_core_gbs = mem;
    // A single core measured it, so it is also the best known socket
    // figure on this single-vCPU host.
    m.mem_bw_gbs = m.mem_bw_gbs.max(mem);
    m.mem_latency_cycles = get("mem_latency_cycles").clamp(1.0, 100_000.0);
    m.calibration = Some(CalibrationProvenance {
        rev: cfg.rev.clone(),
        seed: cfg.seed,
        date: cfg.date.clone(),
        measurements,
    });
    m
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Hinnant's
/// algorithm), for the provenance block.
#[must_use]
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_arch::{format_machine, parse_machine};

    fn synthetic_config(seed: u64) -> CalibrateConfig {
        CalibrateConfig {
            quick: true,
            synthetic: true,
            date: "2026-08-09".into(),
            ..CalibrateConfig::new(seed)
        }
    }

    #[test]
    fn synthetic_calibration_is_deterministic_under_seed() {
        let tel = Telemetry::disabled();
        let a = calibrate(&synthetic_config(7), &tel).unwrap();
        let b = calibrate(&synthetic_config(7), &tel).unwrap();
        assert_eq!(a.machine, b.machine, "same seed, same model — bitwise");
        let c = calibrate(&synthetic_config(8), &tel).unwrap();
        assert_ne!(
            a.machine.calibration, c.machine.calibration,
            "a different seed must perturb the synthetic samples"
        );
        assert_eq!(a.cost.recalibrations, 1);
        assert!(a.cost.engine_runs > 0);
    }

    #[test]
    fn calibrated_model_passes_its_own_check_and_roundtrips() {
        let tel = Telemetry::disabled();
        let out = calibrate(&synthetic_config(42), &tel).unwrap();
        assert_eq!(out.machine.kind, MachineKind::Host);
        let check = check_calibration(&out.machine).expect("fresh calibration validates");
        assert_eq!(check.probes, PROBE_NAMES.len());
        assert_eq!(check.fallback_probes, 0);
        assert!(check.samples >= PROBE_NAMES.len(), "{check:?}");
        // Through the machine-file format and back: still a valid
        // calibrated model with identical provenance.
        let text = format_machine(&out.machine);
        let back = parse_machine(&text).expect("calibrated file parses");
        assert_eq!(back.calibration, out.machine.calibration);
        assert_eq!(back.kind, MachineKind::Host);
        check_calibration(&back).expect("round-tripped calibration validates");
        // Synthetic values sit near the builtin nominals.
        let host = Machine::host();
        assert!(
            (back.mem_bw_single_core_gbs - host.mem_bw_single_core_gbs).abs()
                < 0.1 * host.mem_bw_single_core_gbs,
            "synthetic mem bw {} vs nominal {}",
            back.mem_bw_single_core_gbs,
            host.mem_bw_single_core_gbs
        );
    }

    #[test]
    fn check_rejects_uncalibrated_and_tampered_models() {
        assert!(check_calibration(&Machine::host())
            .unwrap_err()
            .contains("no calibration block"));
        let tel = Telemetry::disabled();
        let out = calibrate(&synthetic_config(1), &tel).unwrap();
        // Drop a probe.
        let mut missing = out.machine.clone();
        missing
            .calibration
            .as_mut()
            .unwrap()
            .measurements
            .retain(|p| p.name != "mem_gbs");
        assert!(check_calibration(&missing)
            .unwrap_err()
            .contains("'mem_gbs' appears 0 times"));
        // Tamper with the model so it disagrees with its own probe.
        let mut tampered = out.machine.clone();
        tampered.mem_bw_single_core_gbs *= 0.5;
        tampered.mem_bw_gbs = tampered.mem_bw_gbs.max(tampered.mem_bw_single_core_gbs);
        assert!(check_calibration(&tampered)
            .unwrap_err()
            .contains("disagrees"));
        // Push a value outside its own CI.
        let mut out_of_ci = out.machine.clone();
        out_of_ci.calibration.as_mut().unwrap().measurements[0].value *= 100.0;
        assert!(check_calibration(&out_of_ci)
            .unwrap_err()
            .contains("outside its confidence interval"));
    }

    #[test]
    fn faulty_probes_degrade_to_the_builtin_nominals() {
        let tel = Telemetry::disabled();
        let cfg = CalibrateConfig {
            faults: Some(FaultPlan::always_fail(9)),
            ..synthetic_config(9)
        };
        let out = calibrate(&cfg, &tel).unwrap();
        let check = check_calibration(&out.machine).expect("fallback calibration still validates");
        assert_eq!(check.fallback_probes, PROBE_NAMES.len());
        assert_eq!(check.samples, 0);
        assert_eq!(out.cost.fallbacks, PROBE_NAMES.len());
        // Every value equals its nominal: the model matches the builtin.
        let host = Machine::host();
        assert!(
            (out.machine.mem_bw_single_core_gbs - host.mem_bw_single_core_gbs).abs() < 1e-9,
            "fallback must preserve the builtin bandwidth"
        );
    }

    #[test]
    fn calibration_emits_balanced_spans_and_probe_events() {
        let (tel, sink) = Telemetry::recording(Level::Debug);
        let out = calibrate(&synthetic_config(3), &tel).unwrap();
        drop(tel);
        assert!(out.machine.calibration.is_some());
        let joined = sink.lines().join("\n");
        let stats = yasksite_telemetry::check_trace(&joined).expect("balanced calibrate trace");
        assert_eq!(stats.spans_opened, stats.spans_closed);
        for name in PROBE_NAMES {
            assert!(
                joined.contains(&format!("\"name\":\"{name}\"")),
                "probe event for {name} missing"
            );
        }
        assert!(joined.contains("calibrate_start"));
        assert!(joined.contains("calibrate_end"));
    }

    #[test]
    fn today_utc_is_plausible() {
        let d = today_utc();
        assert_eq!(d.len(), 10, "{d}");
        let year: i32 = d[..4].parse().unwrap();
        assert!((2024..2200).contains(&year), "{d}");
    }
}
