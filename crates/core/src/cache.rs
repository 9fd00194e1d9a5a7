//! Thread-safe memoized ECM prediction cache.
//!
//! Analytic tuning evaluates the same `(stencil, machine, tuning point)`
//! predictions over and over: every `SearchSpace` sweep, every Offsite
//! step-plan composition and every empirical fallback estimate asks the
//! model for points it has already answered. Since
//! [`Solution::predict`] is a pure function of its inputs, those answers
//! can be memoized. This module provides [`PredictionCache`], a sharded,
//! `Mutex`-protected map from a [`PredictKey`] — the stencil/domain/
//! machine *signature* plus the full tuning point — to the
//! [`PredictedPerf`] the model produced for it.
//!
//! Properties:
//!
//! * **Correctness**: a cached prediction is bit-identical to a freshly
//!   computed one (the model is deterministic and the key captures every
//!   input that influences it, including the optional resident-set
//!   override). There is nothing to invalidate — a different stencil,
//!   domain or machine hashes to a different signature and therefore a
//!   different key.
//! * **Thread safety**: lookups from the parallel tuning engine's worker
//!   pool contend only on one of [`SHARDS`] independent shards, selected
//!   by the key's hash.
//! * **Observability**: global hit/miss counters, surfaced per tuning
//!   session through [`crate::TuneCost::cache_hits`] /
//!   [`crate::TuneCost::cache_misses`].
//!
//! Most callers never construct a cache: [`PredictionCache::global`] is
//! the process-wide instance every default [`crate::TuneRequest`] uses,
//! so repeated tuning sessions over the same solution share their work.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use yasksite_engine::TuningParams;

use crate::predict::PredictedPerf;
use crate::solution::Solution;

/// Number of independently locked shards. A small power of two keeps the
/// footprint negligible while making contention from the worker pool
/// (bounded by the machine's core count) unlikely.
const SHARDS: usize = 16;

/// The full identity of one prediction: which solution (stencil × domain
/// × machine, collapsed into a signature hash) was asked about which
/// tuning point at which core count, with which resident-set override.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PredictKey {
    /// [`Solution::signature`] of the solution asked about.
    pub solution: u64,
    /// The tuning point.
    pub params: TuningParams,
    /// Active cores the prediction was scaled to.
    pub cores: usize,
    /// Bit pattern of the explicit resident-set size, if one was given
    /// (`f64::to_bits` keeps the key hashable and exact).
    pub resident_bits: Option<u64>,
}

impl PredictKey {
    /// Builds the key for a plain prediction (kernel-resident working
    /// set).
    #[must_use]
    pub fn new(solution: u64, params: &TuningParams, cores: usize) -> Self {
        PredictKey {
            solution,
            params: params.clone(),
            cores,
            resident_bits: None,
        }
    }

    /// Builds the key for a prediction with an explicit resident-set
    /// size.
    #[must_use]
    pub fn with_resident(solution: u64, params: &TuningParams, cores: usize, bytes: f64) -> Self {
        PredictKey {
            solution,
            params: params.clone(),
            cores,
            resident_bits: Some(bytes.to_bits()),
        }
    }

    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

/// A sharded, thread-safe memoization cache for analytic (ECM)
/// predictions. See the module-level documentation for the design.
#[derive(Debug)]
pub struct PredictionCache {
    shards: Vec<Mutex<HashMap<PredictKey, PredictedPerf>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PredictionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PredictionCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        PredictionCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-wide shared cache used by default by every
    /// [`crate::TuneRequest`]; repeated tuning sessions over the same
    /// solution reuse each other's predictions through it.
    #[must_use]
    pub fn global() -> &'static PredictionCache {
        static GLOBAL: OnceLock<PredictionCache> = OnceLock::new();
        GLOBAL.get_or_init(PredictionCache::new)
    }

    /// The cached prediction for `sol` at `(params, cores)`, computing
    /// and memoizing it on a miss. The second component reports whether
    /// this call was a cache hit.
    #[must_use]
    pub fn predict(
        &self,
        sol: &Solution,
        params: &TuningParams,
        cores: usize,
    ) -> (PredictedPerf, bool) {
        self.predict_keyed(PredictKey::new(sol.signature(), params, cores), || {
            sol.predict(params, cores)
        })
    }

    /// Like [`PredictionCache::predict`] with an explicit steady-state
    /// resident-set size (see [`Solution::predict_with_resident`]).
    #[must_use]
    pub fn predict_resident(
        &self,
        sol: &Solution,
        params: &TuningParams,
        cores: usize,
        resident_bytes: f64,
    ) -> (PredictedPerf, bool) {
        self.predict_keyed(
            PredictKey::with_resident(sol.signature(), params, cores, resident_bytes),
            || sol.predict_with_resident(params, cores, resident_bytes),
        )
    }

    /// Looks up `key`, computing and inserting via `compute` on a miss.
    /// Returns the prediction and whether it was served from the cache.
    ///
    /// The shard lock is *not* held while `compute` runs, so concurrent
    /// misses on the same key may compute twice; both compute the same
    /// pure value, and the first insert wins.
    pub fn predict_keyed(
        &self,
        key: PredictKey,
        compute: impl FnOnce() -> PredictedPerf,
    ) -> (PredictedPerf, bool) {
        let shard = &self.shards[key.shard()];
        if let Some(hit) = shard.lock().expect("cache shard poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (hit.clone(), true);
        }
        let value = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        shard
            .lock()
            .expect("cache shard poisoned")
            .entry(key)
            .or_insert_with(|| value.clone());
        (value, false)
    }

    /// Lifetime cache hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime cache misses (each one computed and stored a prediction).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of memoized predictions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no predictions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized prediction and resets the counters.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("cache shard poisoned").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_arch::Machine;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{heat2d, heat3d};

    fn sol() -> Solution {
        Solution::new(heat3d(1), [64, 32, 32], Machine::cascade_lake())
    }

    #[test]
    fn hit_returns_identical_prediction() {
        let cache = PredictionCache::new();
        let s = sol();
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1));
        let (a, hit_a) = cache.predict(&s, &p, 2);
        let (b, hit_b) = cache.predict(&s, &p, 2);
        assert!(!hit_a && hit_b);
        assert_eq!(a.mlups.to_bits(), b.mlups.to_bits());
        assert_eq!(
            a.seconds_per_sweep.to_bits(),
            s.predict(&p, 2).seconds_per_sweep.to_bits()
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_points_do_not_collide() {
        let cache = PredictionCache::new();
        let s = sol();
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1));
        let (_, h1) = cache.predict(&s, &p, 1);
        let (_, h2) = cache.predict(&s, &p, 2); // different cores
        let (_, h3) = cache.predict(&s, &p.clone().wavefront(2), 1); // different point
        let (_, h4) = cache.predict_resident(&s, &p, 1, 1e6); // resident override
        assert!(!h1 && !h2 && !h3 && !h4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn distinct_solutions_do_not_collide() {
        let cache = PredictionCache::new();
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1));
        let a = sol();
        let b = Solution::new(heat3d(1), [64, 32, 32], Machine::rome()); // other machine
        let c = Solution::new(heat2d(1), [64, 32, 1], Machine::cascade_lake()); // other stencil
        let d = Solution::new(heat3d(1), [128, 32, 32], Machine::cascade_lake()); // other domain
        for s in [&a, &b, &c, &d] {
            let (_, hit) = cache.predict(s, &p, 1);
            assert!(!hit);
        }
        assert_eq!(cache.len(), 4);
        // Same identity, fresh object: still a hit.
        let a2 = Solution::new(heat3d(1), [64, 32, 32], Machine::cascade_lake());
        let (_, hit) = cache.predict(&a2, &p, 1);
        assert!(hit);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = PredictionCache::new();
        let s = sol();
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1));
        let _ = cache.predict(&s, &p, 1);
        let _ = cache.predict(&s, &p, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = PredictionCache::new();
        let s = sol();
        let baseline = s
            .predict(&TuningParams::new([64, 4, 4], Fold::new(8, 1, 1)), 1)
            .mlups
            .to_bits();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let p = TuningParams::new([64, 4, 4], Fold::new(8, 1, 1));
                        let (pred, _) = cache.predict(&s, &p, 1);
                        assert_eq!(pred.mlups.to_bits(), baseline);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), 32);
    }
}
