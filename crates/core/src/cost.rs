//! Autotuning cost accounting (experiment E9).

use std::ops::AddAssign;

/// What a tuning session spent: the currency of the paper's
/// "minimal code generation time and autotuning costs" claim.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TuneCost {
    /// Analytic model evaluations (microseconds each). Counts every time
    /// a strategy *consulted* the model, whether or not the answer came
    /// from the prediction cache.
    pub model_evals: usize,
    /// Kernel executions (simulated or native) performed.
    pub engine_runs: usize,
    /// Sum of the *estimated target-machine* seconds the executed kernels
    /// would take — what an empirical tuner burns on the real testbed.
    /// Only genuinely measured candidates charge here; a trial that fell
    /// back to its analytic prediction executed nothing on the target.
    pub target_seconds: f64,
    /// Wall-clock seconds this process spent tuning.
    pub wall_seconds: f64,
    /// Wall-clock seconds spent generating kernel source for the winner.
    pub codegen_seconds: f64,
    /// Predictions served from the memoized [`crate::PredictionCache`]
    /// without recomputation.
    pub cache_hits: usize,
    /// Predictions computed fresh (and stored for later sessions).
    pub cache_misses: usize,
    /// Trials that fell back to the analytic prediction instead of a
    /// measurement (matches [`crate::TrialSummary::fallbacks`]).
    pub fallbacks: usize,
    /// Measured trials whose predicted-vs-measured residual entered the
    /// session's [`crate::DriftLedger`] (= measured, non-fallback
    /// trials; deterministic for a fixed request).
    pub drift_records: usize,
    /// Stencils the ledger flagged model suspect (p95 absolute drift
    /// beyond [`yasksite_ecm::DRIFT_SUSPECT_THRESHOLD`]). Depends on
    /// measured throughput, so — like wall time — it varies run to run
    /// on a real host.
    pub drift_suspects: usize,
    /// Drift records evicted by a bounded [`crate::DriftLedger`]
    /// (oldest-first per `(stencil, params, cores)` key). Zero unless the
    /// session asked for a cap; deterministic for a fixed request.
    pub drift_evictions: usize,
    /// Machine-calibration passes folded into this cost (each
    /// [`crate::calibrate`] run counts one).
    pub recalibrations: usize,
}

impl AddAssign for TuneCost {
    fn add_assign(&mut self, rhs: TuneCost) {
        self.model_evals += rhs.model_evals;
        self.engine_runs += rhs.engine_runs;
        self.target_seconds += rhs.target_seconds;
        self.wall_seconds += rhs.wall_seconds;
        self.codegen_seconds += rhs.codegen_seconds;
        self.cache_hits += rhs.cache_hits;
        self.cache_misses += rhs.cache_misses;
        self.fallbacks += rhs.fallbacks;
        self.drift_records += rhs.drift_records;
        self.drift_suspects += rhs.drift_suspects;
        self.drift_evictions += rhs.drift_evictions;
        self.recalibrations += rhs.recalibrations;
    }
}

impl TuneCost {
    /// One-line summary for tables: the full cost ledger — model evals
    /// (with the cached share), engine runs, fallbacks, drift records
    /// (with the suspect count), target time, codegen time and wall
    /// time.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} model evals ({} cached), {} runs, {} fallbacks, {} drift records ({} suspect, {} evicted), {:.3}s target time, {:.3}s codegen, {:.3}s wall",
            self.model_evals,
            self.cache_hits,
            self.engine_runs,
            self.fallbacks,
            self.drift_records,
            self.drift_suspects,
            self.drift_evictions,
            self.target_seconds,
            self.codegen_seconds,
            self.wall_seconds
        );
        if self.recalibrations > 0 {
            s.push_str(&format!(", {} recalibrations", self.recalibrations));
        }
        s
    }

    /// This cost with the cache counters zeroed — what the determinism
    /// guarantee compares, since hit/miss splits depend on cache warmth,
    /// not on the tuning outcome.
    #[must_use]
    pub fn without_cache_counters(&self) -> TuneCost {
        TuneCost {
            cache_hits: 0,
            cache_misses: 0,
            ..*self
        }
    }

    /// This cost with the wall-clock-dependent fields
    /// (`wall_seconds`, `codegen_seconds` and `drift_suspects`, which
    /// derives from measured throughput) zeroed — the other half of the determinism comparison, since wall
    /// time varies run to run even when the tuning outcome is
    /// bitwise-identical.
    #[must_use]
    pub fn without_wall_clock(&self) -> TuneCost {
        TuneCost {
            wall_seconds: 0.0,
            codegen_seconds: 0.0,
            drift_suspects: 0,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let mut a = TuneCost::default();
        a += TuneCost {
            model_evals: 3,
            engine_runs: 1,
            target_seconds: 0.5,
            wall_seconds: 0.1,
            codegen_seconds: 0.01,
            cache_hits: 2,
            cache_misses: 1,
            fallbacks: 1,
            drift_records: 1,
            drift_suspects: 1,
            drift_evictions: 1,
            recalibrations: 1,
        };
        a += TuneCost {
            model_evals: 2,
            cache_hits: 1,
            drift_records: 2,
            ..TuneCost::default()
        };
        assert_eq!(a.model_evals, 5);
        assert_eq!(a.engine_runs, 1);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.cache_misses, 1);
        assert_eq!(a.fallbacks, 1);
        assert_eq!(a.drift_records, 3);
        assert_eq!(a.drift_suspects, 1);
        assert_eq!(a.drift_evictions, 1);
        assert_eq!(a.recalibrations, 1);
        assert!(a.summary().contains("5 model evals"));
        assert!(a.summary().contains(", 1 recalibrations"));
    }

    #[test]
    fn summary_reports_the_full_ledger() {
        let c = TuneCost {
            model_evals: 10,
            engine_runs: 4,
            target_seconds: 1.5,
            wall_seconds: 0.25,
            codegen_seconds: 0.125,
            cache_hits: 6,
            cache_misses: 4,
            fallbacks: 2,
            drift_records: 2,
            drift_suspects: 1,
            drift_evictions: 3,
            recalibrations: 0,
        };
        let s = c.summary();
        assert!(s.contains("10 model evals (6 cached)"), "{s}");
        assert!(s.contains("4 runs"), "{s}");
        assert!(s.contains("2 fallbacks"), "{s}");
        assert!(s.contains("2 drift records (1 suspect, 3 evicted)"), "{s}");
        assert!(s.contains("1.500s target time"), "{s}");
        assert!(s.contains("0.125s codegen"), "{s}");
        assert!(s.contains("0.250s wall"), "{s}");
        assert!(
            !s.contains("recalibrations"),
            "the calibration tail only appears when non-zero: {s}"
        );
    }

    #[test]
    fn cache_counters_strippable() {
        let a = TuneCost {
            model_evals: 7,
            cache_hits: 4,
            cache_misses: 3,
            ..TuneCost::default()
        };
        let b = TuneCost {
            model_evals: 7,
            cache_hits: 0,
            cache_misses: 7,
            ..TuneCost::default()
        };
        assert_ne!(a, b);
        assert_eq!(a.without_cache_counters(), b.without_cache_counters());
    }

    #[test]
    fn wall_clock_strippable() {
        let a = TuneCost {
            engine_runs: 2,
            wall_seconds: 0.7,
            codegen_seconds: 0.1,
            drift_records: 2,
            drift_suspects: 1,
            ..TuneCost::default()
        };
        let b = TuneCost {
            engine_runs: 2,
            wall_seconds: 1.9,
            codegen_seconds: 0.4,
            drift_records: 2,
            drift_suspects: 0,
            ..TuneCost::default()
        };
        assert_ne!(a, b);
        assert_eq!(a.without_wall_clock(), b.without_wall_clock());
        assert_eq!(a.without_wall_clock().engine_runs, 2);
        assert_eq!(
            a.without_wall_clock().drift_records,
            2,
            "drift_records is deterministic and must survive the strip"
        );
    }
}
