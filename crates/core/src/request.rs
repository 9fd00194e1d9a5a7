//! The unified tuning request: one builder-style object carrying every
//! knob of a tuning session.
//!
//! Earlier revisions spread the session configuration across parallel
//! argument lists — strategy, core count, [`TrialConfig`],
//! [`TrialBudget`], an optional [`FaultPlan`] — and every new knob grew
//! every signature. [`TuneRequest`] consolidates them (plus the parallel
//! engine's `jobs` and the [`PredictionCache`] choice) behind one type,
//! with [`crate::Solution::tune_with`] as the canonical entry point:
//!
//! ```
//! use yasksite::{Solution, TuneRequest, TuneStrategy};
//! use yasksite_arch::Machine;
//! use yasksite_stencil::builders::heat3d;
//!
//! let sol = Solution::new(heat3d(1), [64, 32, 32], Machine::cascade_lake());
//! let req = TuneRequest::new(TuneStrategy::Analytic).cores(4).jobs(2);
//! let result = sol.tune_with(&req).unwrap();
//! assert!(result.best_score > 0.0);
//! ```

use std::sync::Arc;

use yasksite_telemetry::Telemetry;

use crate::cache::PredictionCache;
use crate::trial::{FaultPlan, TrialBudget, TrialConfig};
use crate::tuner::TuneStrategy;

/// Environment variable overriding the default worker count; `0` or an
/// unparsable value falls through to the detected parallelism.
pub const JOBS_ENV: &str = "YASKSITE_JOBS";

/// Full configuration of one tuning session. Build with
/// [`TuneRequest::new`] and the chaining setters; consume with
/// [`crate::Solution::tune_with`] / [`crate::Solution::tune_space_with`].
#[derive(Debug, Clone)]
pub struct TuneRequest {
    /// How to pick the best point (see [`TuneStrategy`]).
    pub strategy: TuneStrategy,
    /// Active cores the tuned kernel will run on.
    pub cores: usize,
    /// Worker threads for the analytic ranking phase; `None` resolves via
    /// [`TuneRequest::default_jobs`]. Results are identical for every
    /// value — see the determinism guarantee on
    /// [`crate::Solution::tune_space_with`].
    pub jobs: Option<usize>,
    /// Measurement protocol for empirical/hybrid candidates.
    pub trial: TrialConfig,
    /// Session-wide measurement budget (the final state is returned in
    /// [`crate::TuneResult::budget`]).
    pub budget: TrialBudget,
    /// Fault injection applied to the measurement backend (testing and
    /// resilience experiments); `None` measures the backend as-is.
    pub faults: Option<FaultPlan>,
    /// Prediction cache to consult; `None` uses the process-wide
    /// [`PredictionCache::global`].
    pub cache: Option<Arc<PredictionCache>>,
    /// Telemetry handle the session records spans, events and metrics
    /// into; disabled by default. Telemetry is purely observational: it
    /// never changes winners, rankings or deterministic cost fields (the
    /// determinism suite asserts this).
    pub telemetry: Telemetry,
    /// Profile the winning configuration after tuning: one extra native
    /// host execution of the winner through the engine's
    /// [`yasksite_engine::SweepProfiler`], recorded into the telemetry
    /// trace as `profile` / `profile_pool` events. Off by default.
    /// Profiling is observational — it never changes the winner, the
    /// ranking or any deterministic cost field.
    pub profile: bool,
    /// Cap on [`crate::DriftLedger`] records per `(stencil, params,
    /// cores)` key for this session; `None` (the default) keeps every
    /// record. Evictions surface in [`crate::TuneCost::drift_evictions`].
    pub drift_cap: Option<usize>,
}

impl Default for TuneRequest {
    fn default() -> Self {
        TuneRequest::new(TuneStrategy::Analytic)
    }
}

impl TuneRequest {
    /// A request for `strategy` with defaults everywhere else: one core,
    /// automatic job count, the robust [`TrialConfig::default`] protocol,
    /// an unlimited budget, no fault injection and the global cache.
    #[must_use]
    pub fn new(strategy: TuneStrategy) -> Self {
        TuneRequest {
            strategy,
            cores: 1,
            jobs: None,
            trial: TrialConfig::default(),
            budget: TrialBudget::unlimited(),
            faults: None,
            cache: None,
            telemetry: Telemetry::disabled(),
            profile: false,
            drift_cap: None,
        }
    }

    /// Sets the active core count.
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Pins the analytic worker count (clamped to at least 1 at use).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Sets the measurement protocol.
    #[must_use]
    pub fn trial(mut self, trial: TrialConfig) -> Self {
        self.trial = trial;
        self
    }

    /// Sets the session budget.
    #[must_use]
    pub fn budget(mut self, budget: TrialBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Injects faults into the measurement backend.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Uses a private prediction cache instead of the global one (e.g. to
    /// observe cold-cache behaviour or isolate sessions in tests).
    #[must_use]
    pub fn cache(mut self, cache: Arc<PredictionCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Records the session into `telemetry` (spans, events, metrics).
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Profiles the winner after tuning (see [`TuneRequest::profile`]).
    #[must_use]
    pub fn profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Bounds the session's drift ledger per key (see
    /// [`TuneRequest::drift_cap`]).
    #[must_use]
    pub fn drift_cap(mut self, cap: usize) -> Self {
        self.drift_cap = Some(cap);
        self
    }

    /// The worker count this request resolves to: the pinned value, else
    /// [`TuneRequest::default_jobs`]; never 0.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(Self::default_jobs).max(1)
    }

    /// The automatic worker count: `YASKSITE_JOBS` when set to a positive
    /// integer, else the detected available parallelism, else 1.
    #[must_use]
    pub fn default_jobs() -> usize {
        if let Ok(v) = std::env::var(JOBS_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// The cache this request resolves to.
    #[must_use]
    pub fn cache_ref(&self) -> &PredictionCache {
        self.cache
            .as_deref()
            .unwrap_or_else(|| PredictionCache::global())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_defaults() {
        let req = TuneRequest::new(TuneStrategy::Hybrid { shortlist: 3 })
            .cores(8)
            .jobs(4)
            .trial(TrialConfig::single_shot())
            .budget(TrialBudget::runs(100))
            .faults(FaultPlan::noisy(7));
        assert_eq!(req.cores, 8);
        assert_eq!(req.effective_jobs(), 4);
        assert_eq!(req.trial.samples, 1);
        assert_eq!(req.budget.max_runs, Some(100));
        assert!(req.faults.is_some());
        assert!(req.cache.is_none(), "defaults to the global cache");
        assert!(!req.profile, "profiling is opt-in");
        assert!(req.clone().profile().profile);
        assert_eq!(req.drift_cap, None, "ledger is unbounded by default");
        assert_eq!(req.clone().drift_cap(16).drift_cap, Some(16));

        let d = TuneRequest::default();
        assert_eq!(d.strategy, TuneStrategy::Analytic);
        assert_eq!(d.cores, 1);
        assert!(d.effective_jobs() >= 1);
    }

    #[test]
    fn telemetry_defaults_disabled_and_chains() {
        assert!(!TuneRequest::default().telemetry.is_enabled());
        let req =
            TuneRequest::default().telemetry(Telemetry::null(yasksite_telemetry::Level::Info));
        assert!(req.telemetry.is_enabled());
    }

    #[test]
    fn jobs_zero_clamps_to_one() {
        assert_eq!(TuneRequest::default().jobs(0).effective_jobs(), 1);
    }

    #[test]
    fn private_cache_is_used() {
        let cache = Arc::new(PredictionCache::new());
        let req = TuneRequest::default().cache(cache.clone());
        assert!(std::ptr::eq(req.cache_ref(), cache.as_ref()));
        let global = TuneRequest::default();
        assert!(std::ptr::eq(global.cache_ref(), PredictionCache::global()));
    }
}
