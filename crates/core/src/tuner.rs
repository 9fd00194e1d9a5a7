//! Tuning strategies: analytic (ECM-ranked), empirical (run everything),
//! and the hybrid the paper advocates — executed by a deterministic
//! parallel engine with a memoized prediction cache.
//!
//! The analytic ranking phase (every candidate of a [`SearchSpace`]
//! scored by the ECM model) is embarrassingly parallel and by far the
//! most-executed path in the repo, so the engine chunks it across a
//! scoped worker pool ([`TuneRequest::jobs`]) and serves repeated
//! predictions from a [`PredictionCache`]. Parallelism is *strictly
//! deterministic*: candidates are split into contiguous chunks, each
//! worker returns its chunk's scores in enumeration order, chunks are
//! concatenated back in order, and the final ranking uses a stable sort —
//! so `jobs = N` is bitwise-identical to `jobs = 1` for every strategy.
//! Trials always run one after another on the single backend, which keeps
//! fault-injection streams and budget accounting identical regardless of
//! the job count. On a simulated machine the backend replays a trial's
//! next runs ahead, one round of the execution pool's width at a time
//! ([`crate::MeasureBackend::prepare`]); each replay is deterministic, so
//! that changes when a result is computed, never what it is.
//!
//! All empirical measurement goes through the robust trial layer
//! ([`crate::trial`]): failed or noisy runs are retried and
//! outlier-filtered, and when a candidate cannot be measured at all (or
//! the session budget runs out) its analytic ECM prediction is used
//! instead, flagged by [`Provenance::PredictedFallback`] in
//! [`TuneResult::provenances`]. A tuning session therefore always
//! terminates with a valid configuration — never a panic, and an error
//! only for genuinely unusable input (an empty search space).

use std::time::Instant;

use yasksite_engine::{ProfileReport, Tier, TuningParams};
use yasksite_telemetry::{Level, SpanGuard, Telemetry};

use crate::cache::PredictionCache;
use crate::cost::TuneCost;
use crate::drift::{DriftLedger, DriftRecord};
use crate::request::TuneRequest;
use crate::solution::{Solution, ToolError};
use crate::space::SearchSpace;
use crate::trial::{
    run_trial_observed, FaultPlan, FaultyBackend, MeasureBackend, Provenance, SolutionBackend,
    TrialBudget, TrialSummary,
};

/// How to pick the best point in the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneStrategy {
    /// Rank every candidate with the ECM model; run nothing. This is the
    /// paper's headline mode: "identifying optimal performance parameters
    /// analytically without the need to run the code".
    Analytic,
    /// Measure every candidate (the expensive baseline an exhaustive
    /// autotuner would use).
    Empirical,
    /// Rank analytically, then measure only the `shortlist` best
    /// candidates to break model ties.
    Hybrid {
        /// Number of model-ranked candidates to verify empirically.
        shortlist: usize,
    },
}

impl TuneStrategy {
    /// Short machine-readable tag used in telemetry events.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TuneStrategy::Analytic => "analytic",
            TuneStrategy::Empirical => "empirical",
            TuneStrategy::Hybrid { .. } => "hybrid",
        }
    }

    /// The strategy [`TuneStrategy::label`] names, as the CLI and the
    /// daemon spell it: `hybrid` verifies the model's top 3 candidates.
    /// `None` for an unknown name.
    #[must_use]
    pub fn parse(label: &str) -> Option<TuneStrategy> {
        [
            TuneStrategy::Analytic,
            TuneStrategy::Hybrid { shortlist: 3 },
            TuneStrategy::Empirical,
        ]
        .into_iter()
        .find(|s| s.label() == label)
    }
}

/// Outcome of a tuning session.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The selected parameters.
    pub best: TuningParams,
    /// The selected candidate's score (MLUP/s; predicted for analytic,
    /// measured otherwise).
    pub best_score: f64,
    /// Where the winner's score came from (`None` for purely analytic
    /// sessions, which run nothing).
    pub best_provenance: Option<Provenance>,
    /// All scored candidates, best first.
    pub ranked: Vec<(TuningParams, f64)>,
    /// Provenance per ranked candidate, parallel to `ranked` (empty for
    /// analytic sessions).
    pub provenances: Vec<Provenance>,
    /// Aggregate trial statistics of the session.
    pub trials: TrialSummary,
    /// What the session cost.
    pub cost: TuneCost,
    /// Final state of the session budget (what request-based sessions
    /// return instead of mutating a caller-owned budget).
    pub budget: TrialBudget,
    /// Predicted-vs-measured residual of every genuinely measured trial
    /// (empty for analytic sessions and total-fallback sessions) — the
    /// audit trail behind the model-suspect flag in [`TuneCost`].
    pub drift: DriftLedger,
    /// The winner's profiler report when the request asked for one
    /// ([`TuneRequest::profile`]) and the native profiling run succeeded;
    /// `None` otherwise. Purely observational — carries no weight in the
    /// ranking.
    pub profile: Option<ProfileReport>,
    /// Execution tier the planner selects for the winner under the live
    /// [`yasksite_engine::TierPolicy`] (shared-geometry grids, which is
    /// what the tuner allocates — so this matches what a native run of
    /// the winner executes).
    pub tier: Tier,
    /// The planner's one-line justification for [`TuneResult::tier`].
    pub tier_reason: &'static str,
    /// The planner's degraded flag for the winner, read through
    /// [`TuneResult::tier_degraded`].
    tier_degraded: bool,
}

impl TuneResult {
    /// How many ranked candidates rest on an analytic fallback instead of
    /// a measurement.
    #[must_use]
    pub fn fallback_count(&self) -> usize {
        self.provenances.iter().filter(|p| p.is_fallback()).count()
    }

    /// Whether the winner runs on a degraded tier (the planner could not
    /// use the kernel the fold/layout asked for and fell back).
    #[must_use]
    pub fn tier_degraded(&self) -> bool {
        self.tier_degraded
    }
}

/// Scores every candidate analytically through `cache`, in enumeration
/// order, fanning the work out over `jobs` scoped workers. Returns the
/// scored list plus the session's cache hit/miss counts.
///
/// Determinism: candidates are split into contiguous chunks; worker `i`
/// scores chunk `i` and chunks are re-concatenated in index order, so the
/// output is independent of `jobs` and of thread scheduling (predictions
/// are pure, and cache hits return bit-identical values by construction).
/// One ranking chunk's output: `(params, predicted MLUP/s, cache hit)`
/// per candidate, plus the chunk's wall time for the imbalance gauge.
type RankChunk = (Vec<(TuningParams, f64, bool)>, f64);

fn rank_analytic(
    sol: &Solution,
    candidates: &[TuningParams],
    cores: usize,
    jobs: usize,
    cache: &PredictionCache,
    tel: &Telemetry,
    session: &SpanGuard,
) -> (Vec<(TuningParams, f64)>, usize, usize) {
    let jobs = jobs.max(1).min(candidates.len().max(1));
    // Each chunk runs under its own `rank` span (a child of the session
    // span, so worker-thread spans still hang off the right parent) and
    // reports its wall time for the imbalance metric.
    let score_chunk = |chunk: &[TuningParams]| -> RankChunk {
        let _span = session.child("rank");
        let start = Instant::now();
        let scored = chunk
            .iter()
            .map(|p| {
                let (pred, hit) = cache.predict(sol, p, cores);
                (p.clone(), pred.mlups, hit)
            })
            .collect();
        let chunk_seconds = start.elapsed().as_secs_f64();
        tel.inc("rank.chunks");
        tel.add("rank.candidates", chunk.len() as u64);
        tel.observe("rank.chunk_seconds", chunk_seconds);
        (scored, chunk_seconds)
    };
    let chunks: Vec<RankChunk> = if jobs <= 1 {
        vec![score_chunk(candidates)]
    } else {
        let chunk_len = candidates.len().div_ceil(jobs);
        std::thread::scope(|s| {
            let handles: Vec<_> = candidates
                .chunks(chunk_len)
                .map(|chunk| s.spawn(move || score_chunk(chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    };
    if chunks.len() > 1 {
        let max = chunks.iter().map(|(_, d)| *d).fold(0.0f64, f64::max);
        let min = chunks.iter().map(|(_, d)| *d).fold(f64::INFINITY, f64::min);
        if max > 0.0 {
            tel.gauge("rank.chunk_imbalance", (max - min) / max);
        }
    }
    let mut hits = 0usize;
    let mut misses = 0usize;
    let scored = chunks
        .into_iter()
        .flat_map(|(chunk, _)| chunk)
        .map(|(p, mlups, hit)| {
            if hit {
                hits += 1;
            } else {
                misses += 1;
            }
            (p, mlups)
        })
        .collect();
    (scored, hits, misses)
}

impl Solution {
    /// Tunes over the standard search space as configured by `req` — the
    /// canonical entry point.
    ///
    /// # Errors
    /// Fails only on an empty search space.
    pub fn tune_with(&self, req: &TuneRequest) -> Result<TuneResult, ToolError> {
        let space = SearchSpace::standard(self.stencil(), self.domain(), self.machine());
        self.tune_space_with(&space, req)
    }

    /// Tunes over an explicit search space as configured by `req`.
    ///
    /// Determinism guarantee: for a fixed request (modulo `jobs`) and
    /// space, the returned winner, scores, ranking, provenances and
    /// [`TuneCost`] — except its cache hit/miss counters, which depend on
    /// cache warmth — are bitwise-identical for every `jobs` value.
    /// Fault draws, budget charges and the consumption of measured
    /// results stay in enumeration order; on a simulated machine only the
    /// simulator replays of a trial run ahead, on the execution pool, and
    /// a replay's result does not depend on what runs beside it. The
    /// result is therefore also what a backend that measures every sample
    /// inline returns.
    ///
    /// The request's budget is copied in; the final state comes back in
    /// [`TuneResult::budget`].
    ///
    /// # Errors
    /// Fails on an empty space.
    pub fn tune_space_with(
        &self,
        space: &SearchSpace,
        req: &TuneRequest,
    ) -> Result<TuneResult, ToolError> {
        self.tune_space_with_backend_req(&mut SolutionBackend::new(self), space, req)
    }

    /// [`Solution::tune_space_with`] against an arbitrary measurement
    /// backend (the seam tests plug scripted backends into) — the tuning
    /// engine every entry point funnels into. The request's `faults` are
    /// injected into `backend` here, one stream for the whole session, so
    /// a request means the same on every entry point. The request's
    /// budget is copied in; its final state is [`TuneResult::budget`].
    ///
    /// # Errors
    /// Fails on an empty space.
    pub fn tune_space_with_backend_req(
        &self,
        backend: &mut dyn MeasureBackend,
        space: &SearchSpace,
        req: &TuneRequest,
    ) -> Result<TuneResult, ToolError> {
        let start = Instant::now();
        let mut budget = req.budget;
        let cores = req.cores;
        let cfg = &req.trial;
        let cache = req.cache_ref();
        let jobs = req.effective_jobs();
        let tel = &req.telemetry;
        let mut backend = FaultyBackend::new(backend, req.faults.unwrap_or_else(FaultPlan::none));
        let session = tel.span("tune_session");
        let candidates = space.candidates(cores);
        if candidates.is_empty() {
            tel.error("empty search space");
            return Err(ToolError::InvalidInput("empty search space".into()));
        }
        tel.event(
            Level::Info,
            "session_start",
            session.id(),
            &[
                ("strategy", req.strategy.label().into()),
                ("cores", cores.into()),
                ("jobs", jobs.into()),
                ("candidates", candidates.len().into()),
            ],
        );
        let mut cost = TuneCost::default();
        let mut trials = TrialSummary::default();
        let mut ledger = match req.drift_cap {
            Some(cap) => DriftLedger::bounded(cap),
            None => DriftLedger::new(),
        };
        // (params, score MLUP/s, provenance): provenance is None for
        // analytic scores that ran nothing.
        let mut entries: Vec<(TuningParams, f64, Option<Provenance>)> =
            Vec::with_capacity(candidates.len());
        // Trials run one after another on the one backend: fault draws,
        // budget charges and the consumption of results happen in
        // enumeration order for every job count. Only the replays of a
        // simulated machine run ahead, concurrently, when the trial
        // announces its next runs through `prepare`.
        // The registry counters below are bumped at the exact same sites
        // as their TuneCost twins, so a fresh telemetry session always
        // reconciles with the returned cost, field for field.
        let mut measure = |p: TuningParams,
                           cost: &mut TuneCost,
                           trials: &mut TrialSummary,
                           ledger: &mut DriftLedger,
                           budget: &mut TrialBudget|
         -> (TuningParams, f64, Option<Provenance>) {
            let trial_span = session.child("trial");
            let (pred, hit) = {
                let _predict_span = trial_span.child("predict");
                cache.predict(self, &p, cores)
            };
            if hit {
                cost.cache_hits += 1;
                tel.inc("tune.cache_hits");
            } else {
                cost.cache_misses += 1;
                tel.inc("tune.cache_misses");
            }
            let fallback = pred.seconds_per_sweep;
            let r = run_trial_observed(
                &mut backend,
                &p,
                fallback,
                cfg,
                budget,
                tel,
                Some(&trial_span),
            );
            cost.engine_runs += r.attempts;
            tel.add("tune.engine_runs", r.attempts as u64);
            if r.provenance.is_fallback() {
                // A fallback executed nothing on the target machine, so
                // it must not charge estimated target time (it used to,
                // silently inflating the empirical-cost ledger).
                cost.fallbacks += 1;
                tel.inc("tune.fallbacks");
            } else {
                cost.target_seconds += 2.0 * r.seconds_per_sweep * p.wavefront as f64;
            }
            trials.absorb(&r);
            let mlups = self.updates_per_sweep() as f64 / r.seconds_per_sweep.max(1e-12) / 1e6;
            if !r.provenance.is_fallback() {
                // Tier mix of trials that really executed. The planner
                // query is pure and policy-aware, and the tuner always
                // allocates shared-geometry grids, so it names the tier
                // the engine ran (or, for simulated backends, would run).
                let planned = self.plan_tier(&p);
                let tier = planned.tier();
                tel.inc(&format!("tier.ran.{tier}"));
                if planned.degraded {
                    tel.inc("tier.degraded");
                }
                tel.event(
                    Level::Debug,
                    "tier",
                    trial_span.id(),
                    &[
                        ("tier", tier.to_string().into()),
                        ("tier_reason", planned.reason.into()),
                        ("degraded", planned.degraded.into()),
                    ],
                );
                // Per-sweep throughput of trials that really executed —
                // the MLUP/s trajectory of the execution layer.
                tel.observe("exec.sweep_mlups", mlups);
                // Measured trials feed the model-drift ledger: how far
                // the ECM prediction sat from what the trial saw. A
                // fallback's "measurement" IS the prediction, so it
                // carries no drift information and is excluded.
                ledger.push(DriftRecord {
                    stencil: self.stencil().name().to_string(),
                    params: p.to_string(),
                    cores,
                    tier: tier.to_string(),
                    predicted_mlups: pred.mlups,
                    measured_mlups: mlups,
                });
            }
            (p, mlups, Some(r.provenance))
        };
        match req.strategy {
            TuneStrategy::Analytic => {
                let (scored, hits, misses) =
                    rank_analytic(self, &candidates, cores, jobs, cache, tel, &session);
                cost.model_evals += scored.len();
                cost.cache_hits += hits;
                cost.cache_misses += misses;
                tel.add("tune.model_evals", scored.len() as u64);
                tel.add("tune.cache_hits", hits as u64);
                tel.add("tune.cache_misses", misses as u64);
                entries.extend(scored.into_iter().map(|(p, mlups)| (p, mlups, None)));
            }
            TuneStrategy::Empirical => {
                for p in candidates {
                    entries.push(measure(p, &mut cost, &mut trials, &mut ledger, &mut budget));
                }
            }
            TuneStrategy::Hybrid { shortlist } => {
                let (mut pre, hits, misses) =
                    rank_analytic(self, &candidates, cores, jobs, cache, tel, &session);
                cost.model_evals += pre.len();
                cost.cache_hits += hits;
                cost.cache_misses += misses;
                tel.add("tune.model_evals", pre.len() as u64);
                tel.add("tune.cache_hits", hits as u64);
                tel.add("tune.cache_misses", misses as u64);
                pre.sort_by(|a, b| b.1.total_cmp(&a.1));
                let k = shortlist.max(1).min(pre.len());
                for (p, _) in pre.drain(..k) {
                    entries.push(measure(p, &mut cost, &mut trials, &mut ledger, &mut budget));
                }
            }
        }
        entries.sort_by(|a, b| b.1.total_cmp(&a.1));
        let (best, best_score, best_provenance) = entries[0].clone();
        // The winner's execution tier, resolved once through the planner
        // under the live tier policy: surfaced in the result, the trace
        // (a dedicated `winner` event `yasksite report` can digest), and
        // the counter registry.
        let winner = self.plan_tier(&best);
        let winner_tier = winner.tier();
        tel.inc(&format!("tier.winner.{winner_tier}"));
        tel.event(
            Level::Info,
            "winner",
            session.id(),
            &[
                ("params", best.to_string().into()),
                ("best_score_mlups", best_score.into()),
                ("tier", winner_tier.to_string().into()),
                ("tier_reason", winner.reason.into()),
                ("degraded", winner.degraded.into()),
            ],
        );
        // Drift bookkeeping: every record and every per-stencil summary
        // goes to the trace, the counts to the cost ledger, so analytic
        // -fallback decisions are auditable after the fact.
        cost.drift_records = ledger.len();
        cost.drift_suspects = ledger.suspect_count();
        cost.drift_evictions = ledger.evictions();
        tel.add("tune.drift_records", cost.drift_records as u64);
        tel.add("tune.drift_suspects", cost.drift_suspects as u64);
        tel.add("tune.drift_evictions", cost.drift_evictions as u64);
        for r in ledger.records() {
            tel.event(
                Level::Info,
                "drift",
                session.id(),
                &[
                    ("stencil", r.stencil.clone().into()),
                    ("params", r.params.clone().into()),
                    ("cores", r.cores.into()),
                    ("tier", r.tier.clone().into()),
                    ("predicted_mlups", r.predicted_mlups.into()),
                    ("measured_mlups", r.measured_mlups.into()),
                    ("drift", r.drift().into()),
                ],
            );
        }
        for (name, s) in ledger.per_stencil() {
            tel.event(
                Level::Info,
                "drift_summary",
                session.id(),
                &[
                    ("stencil", name.into()),
                    ("count", s.count.into()),
                    ("p50", s.p50.into()),
                    ("p95", s.p95.into()),
                    ("p99", s.p99.into()),
                    ("max_abs", s.max_abs.into()),
                    ("suspect", s.suspect.into()),
                ],
            );
        }
        // Generate the winner's kernel source once, under its own span,
        // so the cost ledger's codegen_seconds reflects reality instead
        // of staying at zero.
        {
            let codegen_span = session.child("codegen");
            let generated = self.codegen(&best);
            cost.codegen_seconds = generated.gen_seconds;
            tel.event(
                Level::Info,
                "codegen",
                codegen_span.id(),
                &[
                    ("lines", generated.lines.into()),
                    ("gen_seconds", generated.gen_seconds.into()),
                ],
            );
        }
        let mut profile_report = None;
        if req.profile {
            // Winner profiling always executes natively on this host —
            // the point is to time the real kernel, even when tuning
            // targeted a simulated machine model.
            let profile_span = session.child("profile");
            match self.profile_native(&best) {
                Ok((perf, report)) => {
                    for ph in &report.phases {
                        tel.event(
                            Level::Info,
                            "profile",
                            profile_span.id(),
                            &[
                                ("phase", ph.name.into()),
                                ("seconds", ph.seconds.into()),
                                ("count", ph.count.into()),
                            ],
                        );
                    }
                    for (label, stats) in [("chunks", &report.chunks), ("planes", &report.planes)] {
                        if let Some(c) = stats {
                            tel.event(
                                Level::Info,
                                "profile",
                                profile_span.id(),
                                &[
                                    ("phase", label.into()),
                                    ("seconds", c.total_seconds.into()),
                                    ("count", c.count.into()),
                                    ("min_seconds", c.min_seconds.into()),
                                    ("max_seconds", c.max_seconds.into()),
                                    ("imbalance", c.imbalance.into()),
                                ],
                            );
                        }
                    }
                    if let Some(w) = &report.pool {
                        let imb = report.chunks.map_or(0.0, |c| c.imbalance);
                        tel.event(
                            Level::Info,
                            "profile_pool",
                            profile_span.id(),
                            &[
                                ("workers", w.workers.into()),
                                ("sweeps", w.sweeps.into()),
                                ("jobs", w.jobs.into()),
                                ("occupancy", w.occupancy.into()),
                                ("chunk_imbalance", imb.into()),
                            ],
                        );
                    }
                    // Effective throughput and the model's memory
                    // traffic per update: together they say whether the
                    // winner is doing the bytes-per-LUP the ECM model
                    // thinks it is. `predict` is pure — no cache state
                    // is touched, so profiling stays observational.
                    let bytes_per_lup = self.predict(&best, cores).ecm.bytes_per_lup_mem;
                    tel.gauge("profile.mlups", perf.mlups);
                    tel.gauge("profile.bytes_per_lup", bytes_per_lup);
                    tel.observe("profile.sweep_seconds", perf.seconds_per_sweep);
                    profile_report = Some(report);
                }
                Err(e) => tel.error(&format!("winner profiling failed: {e}")),
            }
        }
        cost.wall_seconds = start.elapsed().as_secs_f64();
        // Pool-utilisation gauges: cumulative process-wide counters of
        // the shared execution pool (native sweeps and prepared simulator
        // replays alike). Gauges are observability-only and never enter
        // the cost ledger reconciliation.
        let pool = yasksite_engine::ExecPool::global().stats();
        tel.gauge("exec.pool.workers", pool.workers as f64);
        tel.gauge("exec.pool.sweeps", pool.sweeps as f64);
        tel.gauge("exec.pool.jobs", pool.jobs as f64);
        tel.event(
            Level::Info,
            "session_end",
            session.id(),
            &[
                ("best_score_mlups", best_score.into()),
                ("ranked", entries.len().into()),
                ("model_evals", cost.model_evals.into()),
                ("engine_runs", cost.engine_runs.into()),
                ("cache_hits", cost.cache_hits.into()),
                ("cache_misses", cost.cache_misses.into()),
                ("fallbacks", cost.fallbacks.into()),
            ],
        );
        let provenances: Vec<Provenance> = entries.iter().filter_map(|e| e.2).collect();
        let ranked: Vec<(TuningParams, f64)> =
            entries.into_iter().map(|(p, s, _)| (p, s)).collect();
        Ok(TuneResult {
            best,
            best_score,
            best_provenance,
            ranked,
            provenances,
            trials,
            cost,
            budget,
            drift: ledger,
            profile: profile_report,
            tier: winner_tier,
            tier_reason: winner.reason,
            tier_degraded: winner.degraded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::TrialConfig;
    use std::sync::Arc;
    use yasksite_arch::Machine;
    use yasksite_stencil::builders::heat3d;

    fn solution() -> Solution {
        Solution::new(heat3d(1), [64, 32, 32], Machine::cascade_lake())
    }

    fn analytic_at(cores: usize) -> TuneRequest {
        TuneRequest::new(TuneStrategy::Analytic).cores(cores)
    }

    /// One run per measured candidate, no retries, unlimited budget.
    fn single_shot(strategy: TuneStrategy) -> TuneRequest {
        TuneRequest::new(strategy).trial(TrialConfig::single_shot())
    }

    #[test]
    fn strategy_names_parse_back() {
        for s in [
            TuneStrategy::Analytic,
            TuneStrategy::Hybrid { shortlist: 3 },
            TuneStrategy::Empirical,
        ] {
            assert_eq!(TuneStrategy::parse(s.label()), Some(s));
        }
        for name in ["", "Analytic", "hybrid(3)", "exhaustive"] {
            assert_eq!(TuneStrategy::parse(name), None, "{name}");
        }
    }

    #[test]
    fn analytic_runs_nothing() {
        let r = solution().tune_with(&analytic_at(2)).unwrap();
        assert_eq!(r.cost.engine_runs, 0);
        assert!(r.cost.model_evals > 10);
        assert!(r.best_score > 0.0);
        assert!(r.best_provenance.is_none());
        assert!(r.provenances.is_empty());
        // Ranked is sorted descending.
        for w in r.ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn winner_carries_its_tier() {
        let r = solution().tune_with(&analytic_at(2)).unwrap();
        assert!(!r.tier_reason.is_empty());
        // The reason string and the degraded flag must agree with a
        // direct planner query for the same winner.
        let planned = solution().plan_tier(&r.best);
        assert_eq!(r.tier, planned.tier());
        assert_eq!(r.tier_reason, planned.reason);
        assert_eq!(r.tier_degraded(), planned.degraded);
    }

    #[test]
    fn empirical_runs_everything() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), sol.machine());
        let r = sol
            .tune_space_with(&space, &single_shot(TuneStrategy::Empirical))
            .unwrap();
        assert_eq!(r.cost.engine_runs, space.len());
        assert_eq!(r.cost.model_evals, 0);
        assert!(r.cost.target_seconds > 0.0);
        assert_eq!(r.provenances.len(), space.len());
        assert_eq!(r.fallback_count(), 0);
        assert_eq!(r.best_provenance, Some(Provenance::Measured));
    }

    #[test]
    fn hybrid_measures_only_the_shortlist() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), sol.machine());
        let r = sol
            .tune_space_with(&space, &single_shot(TuneStrategy::Hybrid { shortlist: 3 }))
            .unwrap();
        assert_eq!(r.cost.engine_runs, 3);
        assert_eq!(r.cost.model_evals, space.len());
        assert_eq!(r.ranked.len(), 3);
    }

    /// A hybrid tune on a simulated machine names the tier the simulator
    /// charged its winner, whatever `YASKSITE_FORCE_TIER` says: the
    /// measurement is prepared under `TierPolicy::Auto`, and so is the
    /// tier the result reports.
    #[test]
    fn a_simulated_tune_reports_the_tier_its_winner_was_measured_on() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let space = SearchSpace::standard(sol.stencil(), sol.domain(), sol.machine());
        let r = sol
            .tune_space_with(&space, &single_shot(TuneStrategy::Hybrid { shortlist: 3 }))
            .unwrap();
        let measured = sol.measure(&r.best).unwrap();
        assert!(measured.simulated);
        assert_eq!(r.tier, measured.tier, "{}", r.best);
        assert_eq!(r.tier_reason, measured.tier_reason, "{}", r.best);
    }

    #[test]
    fn analytic_choice_is_near_empirical_optimum() {
        // The paper's key claim in miniature: the model-selected block is
        // close to the empirically best one.
        let sol = Solution::new(heat3d(1), [64, 64, 64], Machine::cascade_lake());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), sol.machine());
        let analytic = sol.tune_space_with(&space, &analytic_at(1)).unwrap();
        let empirical = sol
            .tune_space_with(&space, &single_shot(TuneStrategy::Empirical))
            .unwrap();
        let chosen_measured = sol.measure(&analytic.best).unwrap().mlups;
        assert!(
            chosen_measured >= 0.7 * empirical.best_score,
            "analytic pick achieves {:.0} of empirical best {:.0}",
            chosen_measured,
            empirical.best_score
        );
    }

    #[test]
    fn total_measurement_failure_degrades_to_analytic_ranking() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), sol.machine());
        let mut backend =
            FaultyBackend::new(SolutionBackend::new(&sol), FaultPlan::always_fail(11));
        let r = sol
            .tune_space_with_backend_req(
                &mut backend,
                &space,
                &TuneRequest::new(TuneStrategy::Empirical),
            )
            .unwrap();
        // Every candidate fell back to its prediction, the ranking equals
        // the analytic one, and the result says so.
        assert_eq!(r.fallback_count(), space.len());
        assert!(r.best_provenance.unwrap().is_fallback());
        assert_eq!(r.trials.fallbacks, space.len());
        let analytic = sol.tune_space_with(&space, &analytic_at(1)).unwrap();
        assert_eq!(r.best.block, analytic.best.block);
        assert!(r.best_score > 0.0 && r.best_score.is_finite());
    }

    #[test]
    fn budget_exhaustion_mid_session_still_ranks_everything() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), sol.machine());
        // Enough budget for roughly half the candidates.
        let req = single_shot(TuneStrategy::Empirical).budget(TrialBudget::runs(space.len() / 2));
        let r = sol.tune_space_with(&space, &req).unwrap();
        assert_eq!(r.ranked.len(), space.len(), "every candidate is ranked");
        assert!(
            r.fallback_count() >= space.len() / 2,
            "candidates past the budget must fall back"
        );
        assert!(!req.budget.exhausted(), "the request's budget is copied");
        assert!(r.budget.exhausted(), "result carries the final budget");
        assert!(r.best_score.is_finite());
    }

    #[test]
    fn noisy_backend_still_finds_a_finite_winner() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), sol.machine());
        let mut backend = FaultyBackend::new(SolutionBackend::new(&sol), FaultPlan::noisy(5));
        let r = sol
            .tune_space_with_backend_req(
                &mut backend,
                &space,
                &TuneRequest::new(TuneStrategy::Empirical),
            )
            .unwrap();
        assert!(r.best_score.is_finite() && r.best_score > 0.0);
        assert_eq!(r.provenances.len(), space.len());
        assert!(r.trials.samples > 0);
    }

    #[test]
    fn empirical_sessions_populate_the_drift_ledger() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), sol.machine());
        let r = sol
            .tune_space_with(&space, &single_shot(TuneStrategy::Empirical))
            .unwrap();
        assert_eq!(r.drift.len(), space.len(), "one record per measured trial");
        assert_eq!(r.cost.drift_records, space.len());
        let per = r.drift.per_stencil();
        assert_eq!(per.len(), 1);
        assert_eq!(per[0].0, sol.stencil().name());
        assert_eq!(
            r.cost.drift_suspects,
            r.drift.suspect_count(),
            "cost mirrors the ledger"
        );
        for rec in r.drift.records() {
            assert!(rec.predicted_mlups > 0.0 && rec.measured_mlups > 0.0);
            assert!(rec.drift().is_finite());
        }
    }

    #[test]
    fn analytic_sessions_have_an_empty_drift_ledger() {
        let r = solution().tune_with(&analytic_at(2)).unwrap();
        assert!(r.drift.is_empty());
        assert_eq!(r.cost.drift_records, 0);
        assert_eq!(r.cost.drift_suspects, 0);
    }

    #[test]
    fn fallbacks_carry_no_drift_records() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), sol.machine());
        let req = TuneRequest::new(TuneStrategy::Empirical)
            .cores(1)
            .faults(FaultPlan::always_fail(11))
            .cache(Arc::new(PredictionCache::new()));
        let r = sol.tune_space_with(&space, &req).unwrap();
        assert_eq!(r.fallback_count(), space.len());
        assert!(r.drift.is_empty(), "a fallback measured nothing");
        assert_eq!(r.cost.drift_records, 0);
    }

    #[test]
    fn profile_request_does_not_change_the_outcome() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), sol.machine());
        let base = TuneRequest::new(TuneStrategy::Hybrid { shortlist: 2 }).cores(1);
        let plain = sol
            .tune_space_with(
                &space,
                &base.clone().cache(Arc::new(PredictionCache::new())),
            )
            .unwrap();
        let profiled = sol
            .tune_space_with(
                &space,
                &base
                    .clone()
                    .profile()
                    .cache(Arc::new(PredictionCache::new())),
            )
            .unwrap();
        assert_eq!(plain.best, profiled.best);
        assert_eq!(plain.best_score.to_bits(), profiled.best_score.to_bits());
        assert_eq!(
            plain.cost.without_cache_counters().without_wall_clock(),
            profiled.cost.without_cache_counters().without_wall_clock()
        );
    }

    #[test]
    fn parallel_jobs_bitwise_identical_to_serial() {
        let sol = solution();
        let space = SearchSpace::standard(sol.stencil(), sol.domain(), sol.machine());
        let base = TuneRequest::new(TuneStrategy::Analytic).cores(2);
        let serial = sol
            .tune_space_with(
                &space,
                &base.clone().jobs(1).cache(Arc::new(PredictionCache::new())),
            )
            .unwrap();
        for jobs in [2, 4, 7] {
            let par = sol
                .tune_space_with(
                    &space,
                    &base
                        .clone()
                        .jobs(jobs)
                        .cache(Arc::new(PredictionCache::new())),
                )
                .unwrap();
            assert_eq!(par.best, serial.best);
            assert_eq!(par.best_score.to_bits(), serial.best_score.to_bits());
            assert_eq!(par.ranked.len(), serial.ranked.len());
            for (a, b) in par.ranked.iter().zip(serial.ranked.iter()) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
            assert_eq!(
                par.cost.without_cache_counters().without_wall_clock(),
                serial.cost.without_cache_counters().without_wall_clock()
            );
        }
    }

    #[test]
    fn repeated_tune_hits_the_cache() {
        let sol = solution();
        let cache = Arc::new(PredictionCache::new());
        let req = TuneRequest::new(TuneStrategy::Analytic)
            .cores(2)
            .jobs(2)
            .cache(cache.clone());
        let cold = sol.tune_with(&req).unwrap();
        assert_eq!(cold.cost.cache_hits, 0, "fresh cache has nothing to hit");
        assert_eq!(cold.cost.cache_misses, cold.cost.model_evals);
        let warm = sol.tune_with(&req).unwrap();
        assert_eq!(warm.cost.cache_hits, warm.cost.model_evals);
        assert_eq!(warm.cost.cache_misses, 0);
        assert_eq!(warm.best, cold.best);
        assert_eq!(warm.best_score.to_bits(), cold.best_score.to_bits());
    }

    #[test]
    fn request_faults_are_injected() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), sol.machine());
        let req = TuneRequest::new(TuneStrategy::Empirical)
            .cores(1)
            .faults(FaultPlan::always_fail(11))
            .cache(Arc::new(PredictionCache::new()));
        let r = sol.tune_space_with(&space, &req).unwrap();
        assert_eq!(r.fallback_count(), space.len());
    }
}
