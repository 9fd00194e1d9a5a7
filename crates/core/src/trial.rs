//! Robust measurement trials: the fault-tolerant layer between tuners and
//! the (real or simulated) measurement backend.
//!
//! Empirical tuning on shared, noisy machines sees spurious slow samples
//! (OS jitter, frequency transitions), outright failed runs and —
//! through buggy timers or broken counters — non-finite readings. A
//! tuner that feeds any single raw sample into its search can be derailed
//! by one bad run. This module wraps every measurement in a *trial*:
//!
//! 1. `warmup` untimed runs, then up to `samples` timed runs;
//! 2. failed or non-finite samples are retried (bounded by
//!    `max_retries`) with exponential backoff charged to the budget;
//! 3. surviving samples pass through MAD-based outlier rejection and the
//!    median of the kept set becomes the estimate;
//! 4. when everything fails or the session budget is exhausted, the trial
//!    *degrades gracefully* to the caller-provided analytic (ECM)
//!    prediction instead of erroring out.
//!
//! Every [`TrialResult`] carries [`Provenance`] so downstream consumers —
//! rankings, reports, the CLI — can tell a measured winner from one that
//! rests on a model prediction.
//!
//! Determinism: the fault-injection harness ([`FaultPlan`] /
//! [`FaultyBackend`]) drives all randomness from a seeded splitmix64
//! stream and draws a fixed number of values per sample, so a given seed
//! reproduces the exact same fault pattern regardless of how results are
//! consumed.

use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

use yasksite_arch::MachineKind;
use yasksite_engine::{ExecPool, ScopedJob, TuningParams};
use yasksite_telemetry::{Level, SpanGuard, Telemetry, Value};

use crate::solution::{Solution, ToolError};

/// Scale factor that makes the median absolute deviation a consistent
/// estimator of the standard deviation under normality.
const MAD_SIGMA_SCALE: f64 = 1.4826;

/// Seedable splitmix64 stream — deterministic fault injection without an
/// external RNG dependency.
#[derive(Debug, Clone)]
pub struct TrialRng {
    state: u64,
}

impl TrialRng {
    /// Stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        TrialRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Why a trial fell back to the analytic prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Every sample (including retries) failed or was non-finite.
    AllSamplesFailed,
    /// The tuning-session budget ran out before the trial could finish.
    BudgetExhausted,
    /// The request's deadline passed before the trial could finish (the
    /// daemon's watchdog cancelling a stuck trial).
    DeadlineExceeded,
}

/// Where a trial's estimate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// All requested samples landed on the first attempt.
    Measured,
    /// Measured, but one or more samples needed retrying.
    Retried {
        /// Number of retry attempts consumed.
        retries: usize,
    },
    /// Measurement failed; the estimate is the analytic ECM prediction.
    PredictedFallback {
        /// Why measurement was abandoned.
        reason: FallbackReason,
    },
}

impl Provenance {
    /// Whether the estimate rests on the analytic model, not a run.
    #[must_use]
    pub fn is_fallback(&self) -> bool {
        matches!(self, Provenance::PredictedFallback { .. })
    }

    /// Short machine-readable tag used in telemetry events.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Provenance::Measured => "measured",
            Provenance::Retried { .. } => "retried",
            Provenance::PredictedFallback { .. } => "predicted_fallback",
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::Measured => write!(f, "measured"),
            Provenance::Retried { retries } => write!(f, "measured ({retries} retries)"),
            Provenance::PredictedFallback { reason } => match reason {
                FallbackReason::AllSamplesFailed => {
                    write!(f, "predicted fallback (all samples failed)")
                }
                FallbackReason::BudgetExhausted => {
                    write!(f, "predicted fallback (budget exhausted)")
                }
                FallbackReason::DeadlineExceeded => {
                    write!(f, "predicted fallback (deadline exceeded)")
                }
            },
        }
    }
}

/// The measurement protocol of one trial.
#[derive(Debug, Clone, Copy)]
pub struct TrialConfig {
    /// Untimed runs before the first sample.
    pub warmup: usize,
    /// Timed samples requested.
    pub samples: usize,
    /// Extra attempts allowed to replace failed/non-finite samples.
    pub max_retries: usize,
    /// MAD outlier threshold: keep samples within `mad_k` scaled MADs of
    /// the median.
    pub mad_k: f64,
    /// Budget seconds charged for the first retry; doubles per retry.
    pub backoff_base: f64,
    /// Wall-clock deadline: no backend run starts at or after this
    /// instant, and a trial cut short by it degrades to the analytic
    /// fallback with [`FallbackReason::DeadlineExceeded`]. `None` (the
    /// default) never cancels.
    pub deadline: Option<Instant>,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            warmup: 1,
            samples: 5,
            max_retries: 3,
            mad_k: 3.5,
            backoff_base: 1e-3,
            deadline: None,
        }
    }
}

impl TrialConfig {
    /// Legacy protocol: no warmup, one sample, no retries. Gives classic
    /// one-run-per-candidate cost accounting.
    #[must_use]
    pub fn single_shot() -> Self {
        TrialConfig {
            warmup: 0,
            samples: 1,
            max_retries: 0,
            ..TrialConfig::default()
        }
    }

    /// This protocol with a wall-clock deadline (see
    /// [`TrialConfig::deadline`]).
    #[must_use]
    pub fn deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }
}

/// A per-tuning-session budget shared by all trials of the session.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialBudget {
    /// Cap on backend invocations (warmups, samples and retries all
    /// count); `None` is unlimited.
    pub max_runs: Option<usize>,
    /// Cap on accumulated target seconds (sample times plus backoff
    /// charges); `None` is unlimited.
    pub max_seconds: Option<f64>,
    /// Backend invocations consumed so far.
    pub runs_used: usize,
    /// Target seconds consumed so far.
    pub seconds_used: f64,
}

impl TrialBudget {
    /// A budget that never exhausts.
    #[must_use]
    pub fn unlimited() -> Self {
        TrialBudget::default()
    }

    /// A budget capped on backend invocations.
    #[must_use]
    pub fn runs(max_runs: usize) -> Self {
        TrialBudget {
            max_runs: Some(max_runs),
            ..TrialBudget::default()
        }
    }

    /// A budget capped on accumulated target seconds.
    #[must_use]
    pub fn seconds(max_seconds: f64) -> Self {
        TrialBudget {
            max_seconds: Some(max_seconds),
            ..TrialBudget::default()
        }
    }

    /// Whether no further backend run may start.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        if let Some(max) = self.max_runs {
            if self.runs_used >= max {
                return true;
            }
        }
        if let Some(max) = self.max_seconds {
            if self.seconds_used >= max {
                return true;
            }
        }
        false
    }

    /// Charges one backend invocation costing `seconds`.
    pub fn charge(&mut self, seconds: f64) {
        self.runs_used += 1;
        if seconds.is_finite() && seconds > 0.0 {
            self.seconds_used += seconds;
        }
    }

    /// `runs`, cut to the backend invocations the run cap still allows.
    fn allows(&self, runs: usize) -> usize {
        self.max_runs
            .map_or(runs, |max| runs.min(max.saturating_sub(self.runs_used)))
    }
}

/// The thing a trial runs: one timed sample per call. `Solution` measure
/// paths implement this, and the fault-injection harness wraps any
/// backend to perturb it.
pub trait MeasureBackend {
    /// One timed run of `params`, returning seconds per sweep.
    ///
    /// # Errors
    /// Whatever the underlying engine reports for a failed run.
    fn run_sample(&mut self, params: &TuningParams) -> Result<f64, ToolError>;

    /// Announces that the next call is a [`MeasureBackend::run_sample`] of
    /// `params`, and that at most `runs` such calls follow (this one
    /// included) if none fails. A trial calls it right before every run,
    /// after its budget and deadline checks. A backend whose runs are
    /// deterministic may execute some of them ahead, concurrently, as long
    /// as each later `run_sample` returns exactly what it would have
    /// returned on its own. The default does nothing.
    fn prepare(&mut self, _params: &TuningParams, _runs: usize) {}
}

impl<B: MeasureBackend + ?Sized> MeasureBackend for &mut B {
    fn run_sample(&mut self, params: &TuningParams) -> Result<f64, ToolError> {
        (**self).run_sample(params)
    }

    fn prepare(&mut self, params: &TuningParams, runs: usize) {
        (**self).prepare(params, runs);
    }
}

/// One prepared run's outcome, waiting for its `run_sample`.
type PreparedRun = (TuningParams, Result<f64, ToolError>);

/// The production backend: samples via [`Solution::measure`].
///
/// On a simulated machine a measurement is a deterministic replay, so when
/// nothing of `params` is queued, [`MeasureBackend::prepare`] runs the
/// next round of announced measurements — at most the width of
/// [`ExecPool::global`] — as one batch on that pool and queues their
/// results; `run_sample` takes the next queued result when its parameters
/// match and measures inline otherwise. A trial cut short by its budget or
/// deadline therefore replays at most one round more than it uses. Native
/// timings never run ahead: they must not share the CPU.
pub struct SolutionBackend<'a> {
    solution: &'a Solution,
    prepared: VecDeque<PreparedRun>,
}

impl<'a> SolutionBackend<'a> {
    /// Backend measuring `solution`.
    #[must_use]
    pub fn new(solution: &'a Solution) -> Self {
        SolutionBackend {
            solution,
            prepared: VecDeque::new(),
        }
    }
}

fn sample(solution: &Solution, params: &TuningParams) -> Result<f64, ToolError> {
    Ok(solution.measure(params)?.seconds_per_sweep)
}

impl MeasureBackend for SolutionBackend<'_> {
    fn run_sample(&mut self, params: &TuningParams) -> Result<f64, ToolError> {
        match self.prepared.front() {
            Some((p, _)) if p == params => self.prepared.pop_front().expect("front exists").1,
            _ => sample(self.solution, params),
        }
    }

    fn prepare(&mut self, params: &TuningParams, runs: usize) {
        if self.prepared.front().is_some_and(|(p, _)| p == params) {
            return;
        }
        self.prepared.clear();
        let round = runs.min(ExecPool::global().workers());
        if round < 2 || self.solution.machine().kind == MachineKind::Host {
            return;
        }
        let mut results: Vec<Option<Result<f64, ToolError>>> = (0..round).map(|_| None).collect();
        let solution = self.solution;
        let jobs: Vec<ScopedJob<'_>> = results
            .iter_mut()
            .map(|slot| Box::new(move || *slot = Some(sample(solution, params))) as ScopedJob<'_>)
            .collect();
        ExecPool::global().run(jobs);
        self.prepared.extend(
            results
                .into_iter()
                .map(|r| (params.clone(), r.expect("the batch ran every job"))),
        );
    }
}

/// A deterministic, seeded description of the faults to inject into a
/// backend: transient failures, NaN timings and noise spikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Probability a sample fails with a transient error.
    pub fail_prob: f64,
    /// Probability a sample returns a NaN timing.
    pub nan_prob: f64,
    /// Probability a surviving sample is multiplied by `spike_factor`.
    pub spike_prob: f64,
    /// Multiplier applied to spiked samples (> 1 slows them down).
    pub spike_factor: f64,
    /// Probability a sample panics outright (a poisoned worker). Only a
    /// supervisor with panic isolation — the serve daemon — survives
    /// this; plain tuning propagates it, which is the point of testing
    /// with it.
    pub panic_prob: f64,
    /// Probability a journal append writes only a prefix of the record
    /// and then errors (a torn write). Consumed by
    /// [`crate::FaultyMedium`], not by measurement backends.
    pub io_short_prob: f64,
    /// Probability a journal append silently flips a bit in the record
    /// (detected later by the checksum). See [`crate::FaultyMedium`].
    pub io_corrupt_prob: f64,
    /// Probability a journal append fails cleanly writing nothing, as a
    /// full disk would. See [`crate::FaultyMedium`].
    pub io_enospc_prob: f64,
}

impl FaultPlan {
    /// No faults at all (useful as a neutral wrapper).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            fail_prob: 0.0,
            nan_prob: 0.0,
            spike_prob: 0.0,
            spike_factor: 1.0,
            panic_prob: 0.0,
            io_short_prob: 0.0,
            io_corrupt_prob: 0.0,
            io_enospc_prob: 0.0,
        }
    }

    /// Every sample panics — exercises the daemon's panic isolation.
    #[must_use]
    pub fn always_panic(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_prob: 1.0,
            ..FaultPlan::none()
        }
    }

    /// I/O faults only: seeded torn writes, silent corruption and
    /// out-of-space errors for the persistence layer, no measurement
    /// faults.
    #[must_use]
    pub fn io_faults(seed: u64, short: f64, corrupt: f64, enospc: f64) -> Self {
        FaultPlan {
            seed,
            io_short_prob: short,
            io_corrupt_prob: corrupt,
            io_enospc_prob: enospc,
            ..FaultPlan::none()
        }
    }

    /// Every sample fails — exercises the fallback path end to end.
    #[must_use]
    pub fn always_fail(seed: u64) -> Self {
        FaultPlan {
            seed,
            fail_prob: 1.0,
            ..FaultPlan::none()
        }
    }

    /// A moderately hostile machine: occasional failures, rare NaNs,
    /// occasional 10x noise spikes.
    #[must_use]
    pub fn noisy(seed: u64) -> Self {
        FaultPlan {
            seed,
            fail_prob: 0.1,
            nan_prob: 0.02,
            spike_prob: 0.15,
            spike_factor: 10.0,
            ..FaultPlan::none()
        }
    }

    /// Derives a decorrelated plan for sub-stream `i` (e.g. one per
    /// candidate) keeping the probabilities.
    #[must_use]
    pub fn stream(&self, i: u64) -> Self {
        FaultPlan {
            seed: self
                .seed
                .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
            ..*self
        }
    }
}

/// Wraps a backend and perturbs its samples according to a [`FaultPlan`].
///
/// Exactly two RNG draws are consumed per sample (one for the fault
/// category, one for the spike decision), so the fault pattern depends
/// only on the seed and the sample index — not on what the inner backend
/// returns, and not on whether it prepared its runs ahead
/// ([`MeasureBackend::prepare`] is forwarded untouched).
pub struct FaultyBackend<B> {
    inner: B,
    plan: FaultPlan,
    rng: TrialRng,
}

impl<B> FaultyBackend<B> {
    /// Wraps `inner` under `plan`.
    #[must_use]
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultyBackend {
            inner,
            plan,
            rng: TrialRng::new(plan.seed),
        }
    }
}

impl<B: MeasureBackend> MeasureBackend for FaultyBackend<B> {
    fn run_sample(&mut self, params: &TuningParams) -> Result<f64, ToolError> {
        let category = self.rng.next_f64();
        let spike = self.rng.next_f64();
        if category < self.plan.fail_prob {
            return Err(ToolError::Measurement("injected transient failure".into()));
        }
        if category < self.plan.fail_prob + self.plan.nan_prob {
            return Ok(f64::NAN);
        }
        if category < self.plan.fail_prob + self.plan.nan_prob + self.plan.panic_prob {
            panic!("injected backend panic");
        }
        let mut seconds = self.inner.run_sample(params)?;
        if spike < self.plan.spike_prob {
            seconds *= self.plan.spike_factor;
        }
        Ok(seconds)
    }

    fn prepare(&mut self, params: &TuningParams, runs: usize) {
        self.inner.prepare(params, runs);
    }
}

/// The outcome of one robust trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The estimate: median of kept samples, or the analytic fallback.
    pub seconds_per_sweep: f64,
    /// Where the estimate came from.
    pub provenance: Provenance,
    /// Samples that survived outlier rejection.
    pub kept: usize,
    /// Samples rejected as outliers.
    pub rejected: usize,
    /// Retry attempts consumed.
    pub retries: usize,
    /// Total backend invocations (warmups + samples + retries).
    pub attempts: usize,
    /// The raw valid samples, in collection order.
    pub samples: Vec<f64>,
    /// Whether a *measured* estimate rests on fewer samples than the
    /// protocol requested (the budget ran out or retries were exhausted
    /// mid-collection). Previously this truncation was silent; fallbacks
    /// report `false` here because their provenance already says so.
    pub truncated: bool,
}

/// Aggregate trial statistics over a tuning session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialSummary {
    /// Trials run.
    pub trials: usize,
    /// Valid samples collected.
    pub samples: usize,
    /// Samples rejected as outliers.
    pub rejected: usize,
    /// Retry attempts consumed.
    pub retries: usize,
    /// Trials that fell back to the analytic prediction.
    pub fallbacks: usize,
    /// Measured trials that were truncated (fewer samples than the
    /// protocol requested) — see [`TrialResult::truncated`].
    pub truncated: usize,
}

impl TrialSummary {
    /// Folds one trial into the summary.
    pub fn absorb(&mut self, r: &TrialResult) {
        self.trials += 1;
        self.samples += r.samples.len();
        self.rejected += r.rejected;
        self.retries += r.retries;
        if r.provenance.is_fallback() {
            self.fallbacks += 1;
        }
        if r.truncated {
            self.truncated += 1;
        }
    }
}

impl std::ops::AddAssign for TrialSummary {
    fn add_assign(&mut self, rhs: Self) {
        self.trials += rhs.trials;
        self.samples += rhs.samples;
        self.rejected += rhs.rejected;
        self.retries += rhs.retries;
        self.fallbacks += rhs.fallbacks;
        self.truncated += rhs.truncated;
    }
}

impl fmt::Display for TrialSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} trials, {} samples ({} rejected, {} retries, {} fallbacks, {} truncated)",
            self.trials, self.samples, self.rejected, self.retries, self.fallbacks, self.truncated
        )
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// MAD-filters `samples`: returns (kept values, rejected count). With a
/// zero MAD (identical samples) everything is kept.
fn mad_filter(samples: &[f64], k: f64) -> (Vec<f64>, usize) {
    if samples.len() < 3 {
        return (samples.to_vec(), 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = median(&sorted);
    let mut deviations: Vec<f64> = sorted.iter().map(|x| (x - m).abs()).collect();
    deviations.sort_by(f64::total_cmp);
    let scaled_mad = MAD_SIGMA_SCALE * median(&deviations);
    if scaled_mad == 0.0 {
        return (samples.to_vec(), 0);
    }
    let kept: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|x| (x - m).abs() <= k * scaled_mad)
        .collect();
    let rejected = samples.len() - kept.len();
    (kept, rejected)
}

/// Runs one robust trial of `params` against `backend`.
///
/// `fallback_seconds` is the analytic prediction used when measurement
/// fails entirely or `budget` runs out; the result then carries
/// [`Provenance::PredictedFallback`]. This function never fails — fault
/// tolerance is the point — and never returns a non-finite estimate as
/// long as `fallback_seconds` is finite.
pub fn run_trial(
    backend: &mut dyn MeasureBackend,
    params: &TuningParams,
    fallback_seconds: f64,
    cfg: &TrialConfig,
    budget: &mut TrialBudget,
) -> TrialResult {
    run_trial_observed(
        backend,
        params,
        fallback_seconds,
        cfg,
        budget,
        &Telemetry::disabled(),
        None,
    )
}

/// Emits the `budget_exhausted` event exactly when the budget flips from
/// live to exhausted, with what remains of each configured cap.
fn emit_budget_exhausted(tel: &Telemetry, span_id: u64, budget: &TrialBudget) {
    tel.inc("budget.exhausted");
    let mut fields: Vec<(&str, Value)> = vec![
        ("runs_used", budget.runs_used.into()),
        ("seconds_used", budget.seconds_used.into()),
    ];
    if let Some(max) = budget.max_runs {
        fields.push(("max_runs", max.into()));
        fields.push((
            "runs_remaining",
            max.saturating_sub(budget.runs_used).into(),
        ));
    }
    if let Some(max) = budget.max_seconds {
        fields.push(("max_seconds", max.into()));
        fields.push((
            "seconds_remaining",
            (max - budget.seconds_used).max(0.0).into(),
        ));
    }
    tel.event(Level::Info, "budget_exhausted", span_id, &fields);
}

/// [`run_trial`] with telemetry: opens a `measure` span (as a child of
/// `parent` when given), emits one event per warmup, sample, retry and
/// fallback, reports `budget_exhausted` at the moment the budget flips,
/// and flags truncated collections. Identical measurement semantics —
/// the disabled-telemetry wrapper is the proof, since it *is* this
/// function.
#[allow(clippy::too_many_arguments)]
pub fn run_trial_observed(
    backend: &mut dyn MeasureBackend,
    params: &TuningParams,
    fallback_seconds: f64,
    cfg: &TrialConfig,
    budget: &mut TrialBudget,
    tel: &Telemetry,
    parent: Option<&SpanGuard>,
) -> TrialResult {
    let span = match parent {
        Some(p) => p.child("measure"),
        None => tel.span("measure"),
    };
    let sid = span.id();
    tel.inc("trial.count");
    let mut was_exhausted = budget.exhausted();
    let fallback = |reason: FallbackReason, retries, attempts, samples: Vec<f64>| {
        tel.inc("trial.fallbacks");
        let why = match reason {
            FallbackReason::AllSamplesFailed => "all_samples_failed",
            FallbackReason::BudgetExhausted => "budget_exhausted",
            FallbackReason::DeadlineExceeded => "deadline_exceeded",
        };
        tel.event(
            Level::Info,
            "fallback",
            sid,
            &[
                ("reason", why.into()),
                ("provenance", "predicted_fallback".into()),
                ("seconds", fallback_seconds.into()),
            ],
        );
        TrialResult {
            seconds_per_sweep: fallback_seconds,
            provenance: Provenance::PredictedFallback { reason },
            kept: 0,
            rejected: 0,
            retries,
            attempts,
            samples,
            truncated: false,
        }
    };
    if was_exhausted {
        return fallback(FallbackReason::BudgetExhausted, 0, 0, Vec::new());
    }
    let deadline_passed = || cfg.deadline.is_some_and(|d| Instant::now() >= d);
    if deadline_passed() {
        tel.inc("trial.deadline_hits");
        return fallback(FallbackReason::DeadlineExceeded, 0, 0, Vec::new());
    }

    let mut attempts = 0usize;
    let mut retries = 0usize;

    // Warmups: untimed, never retried; failures only cost backoff.
    for warmup in 0..cfg.warmup {
        if budget.exhausted() {
            return fallback(
                FallbackReason::BudgetExhausted,
                retries,
                attempts,
                Vec::new(),
            );
        }
        if deadline_passed() {
            tel.inc("trial.deadline_hits");
            return fallback(
                FallbackReason::DeadlineExceeded,
                retries,
                attempts,
                Vec::new(),
            );
        }
        attempts += 1;
        backend.prepare(params, budget.allows(cfg.warmup - warmup + cfg.samples));
        let charged = match backend.run_sample(params) {
            Ok(s) => {
                budget.charge(s);
                s
            }
            Err(_) => {
                budget.charge(cfg.backoff_base);
                cfg.backoff_base
            }
        };
        if !was_exhausted && budget.exhausted() {
            was_exhausted = true;
            emit_budget_exhausted(tel, sid, budget);
        }
        tel.event(
            Level::Debug,
            "warmup",
            sid,
            &[("seconds", charged.into()), ("attempt", attempts.into())],
        );
    }

    // Timed samples with bounded retry: a failed or non-finite sample
    // consumes one retry and charges exponential backoff to the budget.
    let mut collected: Vec<f64> = Vec::with_capacity(cfg.samples);
    let mut budget_hit = false;
    let mut deadline_hit = false;
    while collected.len() < cfg.samples {
        if budget.exhausted() {
            budget_hit = true;
            break;
        }
        if deadline_passed() {
            deadline_hit = true;
            tel.inc("trial.deadline_hits");
            break;
        }
        attempts += 1;
        backend.prepare(params, budget.allows(cfg.samples - collected.len()));
        match backend.run_sample(params) {
            Ok(s) if s.is_finite() && s > 0.0 => {
                budget.charge(s);
                if !was_exhausted && budget.exhausted() {
                    was_exhausted = true;
                    emit_budget_exhausted(tel, sid, budget);
                }
                tel.observe("trial.sample_seconds", s);
                tel.event(
                    Level::Debug,
                    "sample",
                    sid,
                    &[("seconds", s.into()), ("attempt", attempts.into())],
                );
                collected.push(s);
            }
            _ => {
                let backoff = cfg.backoff_base * f64::from(1u32 << retries.min(20));
                budget.charge(backoff);
                if !was_exhausted && budget.exhausted() {
                    was_exhausted = true;
                    emit_budget_exhausted(tel, sid, budget);
                }
                if retries >= cfg.max_retries {
                    // Out of retries: keep whatever was collected.
                    break;
                }
                retries += 1;
                tel.inc("trial.retries");
                tel.event(
                    Level::Debug,
                    "retry",
                    sid,
                    &[
                        ("retry", retries.into()),
                        ("backoff_seconds", backoff.into()),
                    ],
                );
            }
        }
    }

    if collected.is_empty() {
        let reason = if deadline_hit {
            FallbackReason::DeadlineExceeded
        } else if budget_hit {
            FallbackReason::BudgetExhausted
        } else {
            FallbackReason::AllSamplesFailed
        };
        return fallback(reason, retries, attempts, collected);
    }

    // Fewer samples than requested: the estimate is still measured, but
    // callers deserve to know it rests on a truncated collection (this
    // used to pass silently).
    let truncated = collected.len() < cfg.samples;
    if truncated {
        tel.inc("trial.truncated");
        tel.event(
            Level::Info,
            "trial_truncated",
            sid,
            &[
                ("collected", collected.len().into()),
                ("requested", cfg.samples.into()),
                ("budget_hit", budget_hit.into()),
                ("deadline_hit", deadline_hit.into()),
            ],
        );
    }

    let (kept, rejected) = mad_filter(&collected, cfg.mad_k);
    let mut kept_sorted = kept.clone();
    kept_sorted.sort_by(f64::total_cmp);
    let estimate = median(&kept_sorted);
    let provenance = if retries == 0 {
        Provenance::Measured
    } else {
        Provenance::Retried { retries }
    };
    tel.event(
        Level::Debug,
        "trial_result",
        sid,
        &[
            ("provenance", provenance.label().into()),
            ("seconds", estimate.into()),
            ("kept", kept.len().into()),
            ("rejected", rejected.into()),
        ],
    );
    TrialResult {
        seconds_per_sweep: estimate,
        provenance,
        kept: kept.len(),
        rejected,
        retries,
        attempts,
        samples: collected,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted backend: pops pre-programmed outcomes and records what
    /// each `prepare` announced, with the runs started before it.
    struct Script {
        outcomes: Vec<Result<f64, ToolError>>,
        calls: usize,
        prepares: Vec<(usize, usize)>,
    }

    impl Script {
        fn new(mut outcomes: Vec<Result<f64, ToolError>>) -> Self {
            outcomes.reverse(); // pop() yields in original order
            Script {
                outcomes,
                calls: 0,
                prepares: Vec::new(),
            }
        }
    }

    impl MeasureBackend for Script {
        fn run_sample(&mut self, _params: &TuningParams) -> Result<f64, ToolError> {
            self.calls += 1;
            self.outcomes
                .pop()
                .unwrap_or(Err(ToolError::Measurement("script exhausted".into())))
        }

        fn prepare(&mut self, _params: &TuningParams, runs: usize) {
            self.prepares.push((self.calls, runs));
        }
    }

    fn params() -> TuningParams {
        TuningParams::new([32, 8, 8], yasksite_grid::Fold::new(8, 1, 1))
    }

    /// A cheap simulated solution for `params()`.
    fn simulated() -> Solution {
        use yasksite_arch::Machine;
        use yasksite_stencil::builders::heat3d;
        Solution::new(heat3d(1), [32, 8, 8], Machine::cascade_lake())
    }

    /// The runs one `SolutionBackend::prepare` replays ahead of an
    /// announcement of `runs`.
    fn round_of(runs: usize) -> usize {
        match runs.min(ExecPool::global().workers()) {
            0 | 1 => 0,
            round => round,
        }
    }

    #[test]
    fn solution_backend_prepares_one_round_of_simulated_runs() {
        use yasksite_arch::Machine;
        use yasksite_stencil::builders::heat3d;
        let (p, other) = (
            params(),
            TuningParams::new([16, 8, 8], yasksite_grid::Fold::new(8, 1, 1)),
        );
        let sim = simulated();
        let seconds = |q: &TuningParams| sim.measure(q).unwrap().seconds_per_sweep.to_bits();
        let round = round_of(3);
        let mut b = SolutionBackend::new(&sim);
        b.prepare(&p, 3);
        assert_eq!(b.prepared.len(), round);
        // A queued round is used up before the next one runs.
        b.prepare(&p, 3);
        assert_eq!(b.prepared.len(), round);
        // Other parameters measure inline and leave the queue alone.
        assert_eq!(b.run_sample(&other).unwrap().to_bits(), seconds(&other));
        assert_eq!(b.prepared.len(), round);
        for left in (0..round).rev() {
            assert_eq!(b.run_sample(&p).unwrap().to_bits(), seconds(&p));
            assert_eq!(b.prepared.len(), left);
        }
        assert_eq!(b.run_sample(&p).unwrap().to_bits(), seconds(&p));
        // Announcing other parameters drops what was queued.
        b.prepare(&p, 3);
        b.prepare(&other, 1);
        assert!(b.prepared.is_empty());
        // A host timing never runs ahead.
        let host = Solution::new(heat3d(1), [32, 8, 8], Machine::host());
        let mut h = SolutionBackend::new(&host);
        h.prepare(&p, 3);
        assert!(h.prepared.is_empty());
    }

    #[test]
    fn every_run_is_announced_after_the_checks_within_the_budget() {
        let cfg = TrialConfig {
            warmup: 1,
            samples: 3,
            ..TrialConfig::default()
        };
        // A failed sample is replaced, so it announces the same runs again.
        let outcomes = || {
            vec![
                Ok(1.0),
                Ok(1.0),
                Err(ToolError::Measurement("x".into())),
                Ok(1.0),
                Ok(1.0),
            ]
        };
        let mut b = Script::new(outcomes());
        run_trial(&mut b, &params(), 9.9, &cfg, &mut TrialBudget::unlimited());
        assert_eq!(b.prepares, vec![(0, 4), (1, 3), (2, 2), (3, 2), (4, 1)]);
        // The run cap cuts every announcement to what it has left.
        let mut b = Script::new(outcomes());
        run_trial(&mut b, &params(), 9.9, &cfg, &mut TrialBudget::runs(3));
        assert_eq!(b.prepares, vec![(0, 3), (1, 2), (2, 1)]);
        // Nothing is announced once the deadline has passed.
        let mut b = Script::new(outcomes());
        let past = cfg.deadline_at(Instant::now());
        run_trial(&mut b, &params(), 9.9, &past, &mut TrialBudget::unlimited());
        assert!(b.prepares.is_empty());
    }

    #[test]
    fn a_cut_short_trial_replays_at_most_one_round_past_its_last_run() {
        let (sim, p) = (simulated(), params());
        let s = sim.measure(&p).unwrap().seconds_per_sweep;
        let huge = TrialConfig {
            samples: 100_000,
            ..TrialConfig::default()
        };
        // The seconds budget runs out after the warm-up and ten samples,
        // exactly where a serial trial stops.
        let mut b = SolutionBackend::new(&sim);
        let mut budget = TrialBudget::seconds(10.5 * s);
        let r = run_trial(&mut b, &p, 1.0, &huge, &mut budget);
        assert_eq!((r.attempts, r.samples.len()), (11, 10));
        assert!(r.truncated);
        assert!(b.prepared.len() < round_of(huge.samples).max(1));
        // A deadline stops the replays within one round as well.
        let mut b = SolutionBackend::new(&sim);
        let soon = huge.deadline_at(Instant::now() + std::time::Duration::from_millis(20));
        let r = run_trial(&mut b, &p, 1.0, &soon, &mut TrialBudget::unlimited());
        assert!(r.attempts < huge.warmup + huge.samples);
        assert!(b.prepared.len() < round_of(huge.samples).max(1));
    }

    #[test]
    fn clean_samples_yield_measured_median() {
        let mut b = Script::new(vec![Ok(2.0), Ok(1.0), Ok(3.0)]);
        let cfg = TrialConfig {
            warmup: 0,
            samples: 3,
            ..TrialConfig::default()
        };
        let r = run_trial(&mut b, &params(), 9.9, &cfg, &mut TrialBudget::unlimited());
        assert_eq!(r.provenance, Provenance::Measured);
        assert_eq!(r.seconds_per_sweep, 2.0);
        assert_eq!(r.kept, 3);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.attempts, 3);
    }

    #[test]
    fn expired_deadline_falls_back_before_any_run() {
        let mut b = Script::new(vec![Ok(1.0), Ok(1.0), Ok(1.0)]);
        let cfg = TrialConfig {
            warmup: 1,
            samples: 3,
            ..TrialConfig::default()
        }
        .deadline_at(Instant::now() - std::time::Duration::from_millis(1));
        let r = run_trial(&mut b, &params(), 9.9, &cfg, &mut TrialBudget::unlimited());
        assert_eq!(
            r.provenance,
            Provenance::PredictedFallback {
                reason: FallbackReason::DeadlineExceeded
            }
        );
        assert_eq!(r.seconds_per_sweep, 9.9);
        assert_eq!(r.attempts, 0, "no backend run may start past the deadline");
        assert_eq!(b.calls, 0);
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let cfg = TrialConfig {
            warmup: 0,
            samples: 3,
            ..TrialConfig::default()
        };
        let run = |cfg: &TrialConfig| {
            let mut b = Script::new(vec![Ok(2.0), Ok(1.0), Ok(3.0)]);
            run_trial(&mut b, &params(), 9.9, cfg, &mut TrialBudget::unlimited())
        };
        let plain = run(&cfg);
        let with_deadline =
            run(&cfg.deadline_at(Instant::now() + std::time::Duration::from_secs(3600)));
        assert_eq!(plain.provenance, with_deadline.provenance);
        assert_eq!(
            plain.seconds_per_sweep.to_bits(),
            with_deadline.seconds_per_sweep.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "injected backend panic")]
    fn panic_plan_panics_without_a_supervisor() {
        let mut b = FaultyBackend::new(Script::new(vec![Ok(1.0)]), FaultPlan::always_panic(7));
        let _ = b.run_sample(&params());
    }

    #[test]
    fn outlier_is_rejected_by_mad() {
        let mut b = Script::new(vec![Ok(1.0), Ok(1.01), Ok(0.99), Ok(1.02), Ok(50.0)]);
        let cfg = TrialConfig {
            warmup: 0,
            samples: 5,
            ..TrialConfig::default()
        };
        let r = run_trial(&mut b, &params(), 9.9, &cfg, &mut TrialBudget::unlimited());
        assert_eq!(r.rejected, 1);
        assert_eq!(r.kept, 4);
        assert!(r.seconds_per_sweep < 1.1, "spike must not drag the median");
    }

    #[test]
    fn transient_failures_are_retried() {
        let mut b = Script::new(vec![
            Err(ToolError::Measurement("boom".into())),
            Ok(f64::NAN),
            Ok(1.0),
            Ok(1.0),
        ]);
        let cfg = TrialConfig {
            warmup: 0,
            samples: 2,
            max_retries: 3,
            ..TrialConfig::default()
        };
        let r = run_trial(&mut b, &params(), 9.9, &cfg, &mut TrialBudget::unlimited());
        assert_eq!(r.provenance, Provenance::Retried { retries: 2 });
        assert_eq!(r.seconds_per_sweep, 1.0);
        assert_eq!(r.attempts, 4);
    }

    #[test]
    fn total_failure_falls_back_to_prediction() {
        let mut b = Script::new(vec![]);
        let cfg = TrialConfig {
            warmup: 0,
            samples: 3,
            max_retries: 2,
            ..TrialConfig::default()
        };
        let mut budget = TrialBudget::unlimited();
        let r = run_trial(&mut b, &params(), 0.123, &cfg, &mut budget);
        assert_eq!(
            r.provenance,
            Provenance::PredictedFallback {
                reason: FallbackReason::AllSamplesFailed
            }
        );
        assert_eq!(r.seconds_per_sweep, 0.123);
        assert!(r.seconds_per_sweep.is_finite());
    }

    #[test]
    fn exhausted_budget_short_circuits() {
        let mut b = Script::new(vec![Ok(1.0)]);
        let mut budget = TrialBudget::runs(0);
        let r = run_trial(&mut b, &params(), 0.5, &TrialConfig::default(), &mut budget);
        assert_eq!(
            r.provenance,
            Provenance::PredictedFallback {
                reason: FallbackReason::BudgetExhausted
            }
        );
        assert_eq!(b.calls, 0, "no backend run may start on a dead budget");
    }

    #[test]
    fn budget_charges_runs_and_seconds() {
        let mut b = Script::new(vec![Ok(1.0), Ok(1.0), Ok(1.0)]);
        let cfg = TrialConfig {
            warmup: 1,
            samples: 2,
            ..TrialConfig::default()
        };
        let mut budget = TrialBudget::unlimited();
        let r = run_trial(&mut b, &params(), 9.9, &cfg, &mut budget);
        assert_eq!(r.attempts, 3);
        assert_eq!(budget.runs_used, 3);
        assert!((budget.seconds_used - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let plan = FaultPlan::noisy(42);
        let run = || {
            let mut b = FaultyBackend::new(Script::new((0..40).map(|_| Ok(1.0)).collect()), plan);
            let cfg = TrialConfig {
                warmup: 0,
                samples: 8,
                max_retries: 5,
                ..TrialConfig::default()
            };
            let r = run_trial(&mut b, &params(), 9.9, &cfg, &mut TrialBudget::unlimited());
            (r.seconds_per_sweep.to_bits(), r.retries, r.samples.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn always_fail_plan_forces_fallback() {
        let mut b = FaultyBackend::new(
            Script::new((0..40).map(|_| Ok(1.0)).collect()),
            FaultPlan::always_fail(7),
        );
        let r = run_trial(
            &mut b,
            &params(),
            0.77,
            &TrialConfig::default(),
            &mut TrialBudget::unlimited(),
        );
        assert!(r.provenance.is_fallback());
        assert_eq!(r.seconds_per_sweep, 0.77);
    }

    #[test]
    fn mid_collection_budget_exhaustion_is_flagged_as_truncation() {
        // Budget allows two runs, the protocol wants five samples: the
        // estimate is measured from the two collected samples, and the
        // truncation — previously silent — is now reported.
        let mut b = Script::new(vec![Ok(1.0), Ok(2.0), Ok(3.0), Ok(4.0), Ok(5.0)]);
        let cfg = TrialConfig {
            warmup: 0,
            samples: 5,
            ..TrialConfig::default()
        };
        let mut budget = TrialBudget::runs(2);
        let r = run_trial(&mut b, &params(), 9.9, &cfg, &mut budget);
        assert_eq!(r.provenance, Provenance::Measured);
        assert_eq!(r.samples.len(), 2);
        assert!(r.truncated, "short collection must be flagged");
        let mut s = TrialSummary::default();
        s.absorb(&r);
        assert_eq!(s.truncated, 1);
        assert!(s.to_string().contains("1 truncated"));
    }

    #[test]
    fn full_collection_is_not_truncated() {
        let mut b = Script::new(vec![Ok(1.0), Ok(1.0), Ok(1.0)]);
        let cfg = TrialConfig {
            warmup: 0,
            samples: 3,
            ..TrialConfig::default()
        };
        let r = run_trial(&mut b, &params(), 9.9, &cfg, &mut TrialBudget::unlimited());
        assert!(!r.truncated);
    }

    #[test]
    fn budget_exhausted_event_fires_once_at_the_flip() {
        use yasksite_telemetry::{Level, Telemetry};
        let (tel, sink) = Telemetry::recording(Level::Debug);
        let mut b = Script::new(vec![Ok(1.0), Ok(1.0), Ok(1.0), Ok(1.0)]);
        let cfg = TrialConfig {
            warmup: 0,
            samples: 5,
            ..TrialConfig::default()
        };
        let mut budget = TrialBudget::runs(3);
        let r = run_trial_observed(&mut b, &params(), 9.9, &cfg, &mut budget, &tel, None);
        assert!(r.truncated);
        let lines = sink.lines();
        let exhausted: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"budget_exhausted\""))
            .collect();
        assert_eq!(exhausted.len(), 1, "exactly one flip event: {lines:?}");
        assert!(exhausted[0].contains("\"runs_used\":3"), "{}", exhausted[0]);
        assert!(
            exhausted[0].contains("\"runs_remaining\":0"),
            "{}",
            exhausted[0]
        );
        assert_eq!(tel.counter("budget.exhausted"), 1);
        // Truncation is reported alongside.
        assert!(lines.iter().any(|l| l.contains("\"trial_truncated\"")));
        assert_eq!(tel.counter("trial.truncated"), 1);
    }

    #[test]
    fn observed_trial_emits_sample_retry_and_fallback_events() {
        use yasksite_telemetry::{Level, Telemetry};
        let (tel, sink) = Telemetry::recording(Level::Debug);
        let mut b = Script::new(vec![
            Err(ToolError::Measurement("boom".into())),
            Ok(1.0),
            Ok(1.0),
        ]);
        let cfg = TrialConfig {
            warmup: 0,
            samples: 2,
            max_retries: 2,
            ..TrialConfig::default()
        };
        let r = run_trial_observed(
            &mut b,
            &params(),
            9.9,
            &cfg,
            &mut TrialBudget::unlimited(),
            &tel,
            None,
        );
        assert_eq!(r.provenance, Provenance::Retried { retries: 1 });
        let lines = sink.lines().join("\n");
        assert!(lines.contains("\"sample\""));
        assert!(lines.contains("\"retry\""));
        assert!(lines.contains("\"trial_result\""));
        assert_eq!(tel.counter("trial.retries"), 1);

        // A total failure emits a fallback event with its reason.
        let (tel2, sink2) = Telemetry::recording(Level::Debug);
        let mut dead = Script::new(vec![]);
        let r2 = run_trial_observed(
            &mut dead,
            &params(),
            0.5,
            &cfg,
            &mut TrialBudget::unlimited(),
            &tel2,
            None,
        );
        assert!(r2.provenance.is_fallback());
        let lines2 = sink2.lines().join("\n");
        assert!(lines2.contains("\"fallback\""));
        assert!(lines2.contains("all_samples_failed"));
        assert_eq!(tel2.counter("trial.fallbacks"), 1);
        // Spans balanced in both sessions.
        assert_eq!(tel.open_spans(), 0);
        assert_eq!(tel2.open_spans(), 0);
    }

    #[test]
    fn summary_absorbs_trials() {
        let mut s = TrialSummary::default();
        let mut b = Script::new(vec![Ok(1.0), Ok(1.0), Ok(1.0)]);
        let cfg = TrialConfig {
            warmup: 0,
            samples: 3,
            ..TrialConfig::default()
        };
        let r = run_trial(&mut b, &params(), 9.9, &cfg, &mut TrialBudget::unlimited());
        s.absorb(&r);
        assert_eq!(s.trials, 1);
        assert_eq!(s.samples, 3);
        assert_eq!(s.fallbacks, 0);
        assert!(s.to_string().contains("1 trials"));
    }
}
