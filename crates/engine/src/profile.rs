//! Opt-in sweep profiler: phase, chunk and plane timers around the
//! native execution paths.
//!
//! The profiler follows the same zero-cost-when-off discipline as the
//! telemetry handle: a [`SweepProfiler::disabled`] value carries
//! `Option::None` and every hook is a single branch on it — no clock
//! read, no lock, no allocation — so an unprofiled
//! [`crate::SweepRequest`] runs the identical code path as a profiled
//! one. Profiling is purely observational: it reads clocks
//! around the kernel code, never inside the numeric loops, so enabling
//! it cannot change results (a property the cross-crate proptest suite
//! pins down).
//!
//! What is recorded when enabled:
//!
//! * **phases** — wall time per named phase (`compile`, `sweep`,
//!   `wavefront`), aggregated as total + count;
//! * **chunks** — wall time of every per-slab / per-row-chunk job the
//!   worker pool executed, from which the report derives the chunk
//!   imbalance `(max − min) / max`;
//! * **planes** — wall time of every wavefront tile-plane update (the
//!   rows of one y-tile in one plane at one time level, in the order of
//!   the wavefront's schedule), timed on the dispatching thread;
//! * **pool window** — [`PoolStats`] deltas over the profiled region,
//!   from which the report derives occupancy
//!   `jobs / (sweeps × workers)`.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::pool::PoolStats;

/// Raw profile data behind the enabled profiler's mutex.
#[derive(Debug, Default)]
struct ProfData {
    /// `(phase name, total seconds, count)`, linear-scanned (few phases).
    phases: Vec<(&'static str, f64, u64)>,
    chunk_seconds: Vec<f64>,
    plane_seconds: Vec<f64>,
    pool_start: Option<PoolStats>,
    pool_end: Option<PoolStats>,
}

/// Collects per-sweep timing when enabled; a total no-op when disabled.
/// Shared by reference with pool worker threads (all mutation goes
/// through the internal mutex).
#[derive(Debug)]
pub struct SweepProfiler {
    inner: Option<Mutex<ProfData>>,
}

impl Default for SweepProfiler {
    fn default() -> Self {
        SweepProfiler::disabled()
    }
}

impl SweepProfiler {
    /// The no-op profiler: every hook is one `Option` branch.
    #[must_use]
    pub fn disabled() -> Self {
        SweepProfiler { inner: None }
    }

    /// A recording profiler.
    #[must_use]
    pub fn enabled() -> Self {
        SweepProfiler {
            inner: Some(Mutex::new(ProfData::default())),
        }
    }

    /// Whether this profiler records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a timing interval: `None` (free) when disabled.
    #[inline]
    pub(crate) fn start(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Ends a chunk interval opened by [`SweepProfiler::start`].
    #[inline]
    pub(crate) fn chunk_done(&self, t0: Option<Instant>) {
        if let (Some(m), Some(t0)) = (&self.inner, t0) {
            let secs = t0.elapsed().as_secs_f64();
            m.lock()
                .expect("profiler poisoned")
                .chunk_seconds
                .push(secs);
        }
    }

    /// Ends a wavefront tile-plane interval opened by
    /// [`SweepProfiler::start`].
    #[inline]
    pub(crate) fn plane_done(&self, t0: Option<Instant>) {
        if let (Some(m), Some(t0)) = (&self.inner, t0) {
            let secs = t0.elapsed().as_secs_f64();
            m.lock()
                .expect("profiler poisoned")
                .plane_seconds
                .push(secs);
        }
    }

    /// Ends a named phase interval opened by [`SweepProfiler::start`].
    #[inline]
    pub(crate) fn phase_done(&self, name: &'static str, t0: Option<Instant>) {
        if let (Some(m), Some(t0)) = (&self.inner, t0) {
            let secs = t0.elapsed().as_secs_f64();
            let mut d = m.lock().expect("profiler poisoned");
            match d.phases.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, total, count)) => {
                    *total += secs;
                    *count += 1;
                }
                None => d.phases.push((name, secs, 1)),
            }
        }
    }

    /// Records the pool counters at the start of the profiled region
    /// (first call wins) and at the end (last call wins).
    pub(crate) fn pool_window(&self, stats: PoolStats) {
        if let Some(m) = &self.inner {
            let mut d = m.lock().expect("profiler poisoned");
            if d.pool_start.is_none() {
                d.pool_start = Some(stats);
            }
            d.pool_end = Some(stats);
        }
    }

    /// Snapshots the collected data into a report. Callable repeatedly;
    /// recording continues afterwards.
    #[must_use]
    pub fn report(&self) -> ProfileReport {
        let Some(m) = &self.inner else {
            return ProfileReport::default();
        };
        let d = m.lock().expect("profiler poisoned");
        let phases = d
            .phases
            .iter()
            .map(|&(name, seconds, count)| PhaseStat {
                name,
                seconds,
                count,
            })
            .collect();
        let pool = match (d.pool_start, d.pool_end) {
            (Some(s), Some(e)) => {
                let sweeps = e.sweeps.saturating_sub(s.sweeps);
                let jobs = e.jobs.saturating_sub(s.jobs);
                let occupancy = if sweeps > 0 && e.workers > 0 {
                    jobs as f64 / (sweeps as f64 * e.workers as f64)
                } else {
                    0.0
                };
                Some(PoolWindow {
                    workers: e.workers,
                    sweeps,
                    jobs,
                    occupancy,
                })
            }
            _ => None,
        };
        ProfileReport {
            enabled: true,
            phases,
            chunks: interval_stats(&d.chunk_seconds),
            planes: interval_stats(&d.plane_seconds),
            pool,
        }
    }
}

fn interval_stats(samples: &[f64]) -> Option<IntervalStats> {
    if samples.is_empty() {
        return None;
    }
    let total: f64 = samples.iter().sum();
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let imbalance = if samples.len() >= 2 && max > 0.0 {
        (max - min) / max
    } else {
        0.0
    };
    Some(IntervalStats {
        count: samples.len() as u64,
        total_seconds: total,
        min_seconds: min,
        max_seconds: max,
        imbalance,
    })
}

/// Aggregated wall time of one named phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStat {
    /// Phase name (`"compile"`, `"sweep"`, `"wavefront"`).
    pub name: &'static str,
    /// Total wall seconds across all intervals of this phase.
    pub seconds: f64,
    /// Intervals recorded.
    pub count: u64,
}

/// Aggregated statistics of a set of timed intervals (chunks or planes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalStats {
    /// Intervals recorded.
    pub count: u64,
    /// Sum of interval wall times.
    pub total_seconds: f64,
    /// Shortest interval.
    pub min_seconds: f64,
    /// Longest interval.
    pub max_seconds: f64,
    /// Load imbalance `(max − min) / max`; 0 with fewer than two
    /// intervals.
    pub imbalance: f64,
}

/// Pool activity over the profiled region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolWindow {
    /// Worker threads the pool owns.
    pub workers: usize,
    /// Multi-job batches dispatched in the window.
    pub sweeps: u64,
    /// Jobs executed by workers in the window.
    pub jobs: u64,
    /// `jobs / (sweeps × workers)`: 1.0 means every worker had a job in
    /// every sweep; 0 when no multi-job batch ran (single-job batches
    /// execute inline on the caller and never reach the workers).
    pub occupancy: f64,
}

/// Everything the profiler collected, ready for rendering or export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Whether profiling was on (`false` reports are all-empty).
    pub enabled: bool,
    /// Per-phase totals, in first-recorded order.
    pub phases: Vec<PhaseStat>,
    /// Per-chunk (pool job) timing, if any chunks ran.
    pub chunks: Option<IntervalStats>,
    /// Per-tile-plane (wavefront) timing, if any tile-planes ran.
    pub planes: Option<IntervalStats>,
    /// Pool counter deltas, if a window was recorded.
    pub pool: Option<PoolWindow>,
}

impl ProfileReport {
    /// Human-readable multi-line rendering.
    #[must_use]
    pub fn render(&self) -> String {
        if !self.enabled {
            return "profile: (disabled)\n".to_string();
        }
        let mut out = String::from("profile:\n");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  phase  {:<12} {:>10.6}s  x{}",
                p.name, p.seconds, p.count
            );
        }
        if let Some(c) = &self.chunks {
            let _ = writeln!(
                out,
                "  chunks {:>6}  total {:.6}s  min {:.6}s  max {:.6}s  imbalance {:.3}",
                c.count, c.total_seconds, c.min_seconds, c.max_seconds, c.imbalance
            );
        }
        if let Some(p) = &self.planes {
            let _ = writeln!(
                out,
                "  planes {:>6}  total {:.6}s  min {:.6}s  max {:.6}s  imbalance {:.3}",
                p.count, p.total_seconds, p.min_seconds, p.max_seconds, p.imbalance
            );
        }
        if let Some(w) = &self.pool {
            let _ = writeln!(
                out,
                "  pool   {} workers  {} sweeps  {} jobs  occupancy {:.3}",
                w.workers, w.sweeps, w.jobs, w.occupancy
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = SweepProfiler::disabled();
        assert!(!p.is_enabled());
        let t = p.start();
        assert!(t.is_none());
        p.chunk_done(t);
        p.plane_done(t);
        p.phase_done("sweep", t);
        p.pool_window(PoolStats {
            workers: 4,
            sweeps: 1,
            jobs: 4,
        });
        let r = p.report();
        assert!(!r.enabled);
        assert!(r.phases.is_empty() && r.chunks.is_none() && r.pool.is_none());
        assert!(r.render().contains("disabled"));
    }

    #[test]
    fn enabled_profiler_aggregates_phases_and_chunks() {
        let p = SweepProfiler::enabled();
        for _ in 0..3 {
            let t = p.start();
            assert!(t.is_some());
            p.chunk_done(t);
        }
        let t = p.start();
        p.phase_done("sweep", t);
        let t = p.start();
        p.phase_done("sweep", t);
        let t = p.start();
        p.plane_done(t);
        let r = p.report();
        assert!(r.enabled);
        let sweep = r.phases.iter().find(|s| s.name == "sweep").unwrap();
        assert_eq!(sweep.count, 2);
        assert!(sweep.seconds >= 0.0);
        let chunks = r.chunks.unwrap();
        assert_eq!(chunks.count, 3);
        assert!(chunks.min_seconds <= chunks.max_seconds);
        assert!((0.0..=1.0).contains(&chunks.imbalance));
        assert_eq!(r.planes.unwrap().count, 1);
        assert!(r.render().contains("phase  sweep"));
    }

    #[test]
    fn pool_window_derives_occupancy() {
        let p = SweepProfiler::enabled();
        p.pool_window(PoolStats {
            workers: 4,
            sweeps: 10,
            jobs: 40,
        });
        p.pool_window(PoolStats {
            workers: 4,
            sweeps: 12,
            jobs: 46,
        });
        let w = p.report().pool.unwrap();
        assert_eq!((w.sweeps, w.jobs), (2, 6));
        assert!((w.occupancy - 6.0 / 8.0).abs() < 1e-12);

        // No multi-job batch in the window: occupancy guards sweeps == 0.
        let p = SweepProfiler::enabled();
        let s = PoolStats {
            workers: 4,
            sweeps: 7,
            jobs: 21,
        };
        p.pool_window(s);
        p.pool_window(s);
        assert_eq!(p.report().pool.unwrap().occupancy, 0.0);
    }

    #[test]
    fn profiler_is_shareable_across_threads() {
        let p = SweepProfiler::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let t = p.start();
                    p.chunk_done(t);
                });
            }
        });
        assert_eq!(p.report().chunks.unwrap().count, 4);
    }
}
