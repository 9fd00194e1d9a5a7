//! A persistent worker pool for native kernel execution.
//!
//! The seed engine spawned fresh OS threads through [`std::thread::scope`]
//! on **every** sweep, so a tuning session or an ODE integration paid the
//! spawn/join cost (tens of microseconds per thread) once per kernel
//! application — easily dominating small sweeps and never amortising on
//! large ones. [`ExecPool`] spawns its workers once and reuses them for
//! every sweep: callers hand [`ExecPool::run`] a batch of jobs borrowing
//! stack data, and `run` blocks until the whole batch has finished, which
//! is what makes the borrow sound (see the safety notes below).
//!
//! Determinism: the pool never decides *how* work is decomposed — callers
//! split the domain into slabs/chunks from `TuningParams::threads` alone,
//! and every job writes a disjoint region with a fixed per-point operation
//! order. Results are therefore bitwise identical for any worker count,
//! including the degenerate single-worker pool.

// The engine forbids unsafe code everywhere except this module: erasing
// the lifetime of scoped jobs is the one operation that fundamentally
// needs it (rayon and crossbeam do the same internally). The soundness
// argument is local and documented at the single `unsafe` site.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

thread_local! {
    /// The shared state of the pool this thread works for; null on every
    /// thread that is not a pool worker. Only compared, never dereferenced.
    static WORKER_OF: Cell<*const Shared> = const { Cell::new(std::ptr::null()) };
}

/// A job scoped to the caller's stack frame: it may borrow data that
/// lives at least as long as the [`ExecPool::run`] call.
pub type ScopedJob<'scope> = Box<dyn FnOnce() + Send + 'scope>;

type StaticJob = Box<dyn FnOnce() + Send + 'static>;

/// Lock that shrugs off poisoning: jobs never panic while holding pool
/// locks (panics are caught before the latch is touched), so a poisoned
/// mutex only means some *other* thread died elsewhere — the protected
/// state is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Queue {
    jobs: VecDeque<StaticJob>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    work_ready: Condvar,
    jobs_run: AtomicU64,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Countdown latch: `run` blocks on it until every job of its batch has
/// completed (or panicked). The first panic payload is kept and
/// re-thrown on the calling thread.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Arc<Latch> {
        Arc::new(Latch {
            state: Mutex::new(LatchState {
                remaining: count,
                panic: None,
            }),
            done: Condvar::new(),
        })
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut st = lock(&self.state);
        st.remaining -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut st = lock(&self.state);
        while st.remaining > 0 {
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.panic.take()
    }
}

/// Cumulative counters of a pool, for `exec.*` telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads the pool owns.
    pub workers: usize,
    /// `run` batches dispatched to the workers (single-job batches run
    /// inline on the caller and are not counted here).
    pub sweeps: u64,
    /// Jobs executed by the workers.
    pub jobs: u64,
}

/// A persistent worker pool: threads are spawned once (per pool, or once
/// per process for [`ExecPool::global`]) and reused for every sweep.
///
/// # Examples
///
/// ```
/// use yasksite_engine::ExecPool;
///
/// let pool = ExecPool::new(2);
/// let mut halves = [0u64; 2];
/// let (lo, hi) = halves.split_at_mut(1);
/// pool.run(vec![
///     Box::new(|| lo[0] = (0..50u64).sum()),
///     Box::new(|| hi[0] = (50..100u64).sum()),
/// ]);
/// assert_eq!(halves[0] + halves[1], 4950);
/// ```
pub struct ExecPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    sweeps: AtomicU64,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl ExecPool {
    /// Spawns a pool with `workers` threads (at least one).
    #[must_use]
    pub fn new(workers: usize) -> ExecPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            jobs_run: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("yasksite-exec-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ExecPool {
            shared,
            handles,
            workers,
            sweeps: AtomicU64::new(0),
        }
    }

    /// The process-wide pool, spawned on first use and sized to the
    /// host's available parallelism. This is what a
    /// [`crate::SweepRequest`] without an explicit `.pool(...)` executes
    /// on; callers that want isolation construct their own pool.
    #[must_use]
    pub fn global() -> &'static ExecPool {
        static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4);
            ExecPool::new(workers)
        })
    }

    /// Worker threads this pool owns.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cumulative execution counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers,
            sweeps: self.sweeps.load(Ordering::Relaxed),
            jobs: self.shared.jobs_run.load(Ordering::Relaxed),
        }
    }

    /// Runs a batch of jobs to completion. Jobs may borrow the caller's
    /// stack; `run` returns only after every job has finished. A batch of
    /// zero or one jobs runs inline on the calling thread (no queue
    /// round-trip); larger batches are executed by the workers, in queue
    /// order, concurrently up to the pool width. A batch submitted from
    /// one of this pool's own workers (a job that calls `run`) also runs
    /// inline, in order, on that worker: waiting for the queue there could
    /// leave every worker waiting for jobs that no worker is free to run.
    /// Inline batches are not counted in [`ExecPool::stats`].
    ///
    /// # Panics
    /// If a job panics, the first panic payload is re-thrown here after
    /// the rest of the batch has completed, so the pool stays usable and
    /// borrowed data is never touched after `run` returns.
    pub fn run(&self, jobs: Vec<ScopedJob<'_>>) {
        match jobs.len() {
            0 => return,
            1 => {
                let job = jobs.into_iter().next().expect("one job");
                job();
                return;
            }
            _ if std::ptr::eq(WORKER_OF.with(Cell::get), Arc::as_ptr(&self.shared)) => {
                let mut first_panic = None;
                for job in jobs {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                        first_panic.get_or_insert(payload);
                    }
                }
                if let Some(payload) = first_panic {
                    resume_unwind(payload);
                }
                return;
            }
            _ => {}
        }
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        let latch = Latch::new(jobs.len());
        {
            let mut q = lock(&self.shared.queue);
            for job in jobs {
                // SAFETY: the only thing done with the erased job is a
                // single call by a worker, and `latch.wait()` below keeps
                // this stack frame — and therefore everything the job
                // borrows — alive until every job of the batch has
                // reported completion through the latch. The wrapper
                // counts down even when the job panics (the payload is
                // carried back and re-thrown here), and the queue never
                // drops submitted jobs before running them while the pool
                // is alive, so no borrow escapes its true lifetime.
                let job: StaticJob =
                    unsafe { std::mem::transmute::<ScopedJob<'_>, StaticJob>(job) };
                let latch = Arc::clone(&latch);
                let shared = Arc::clone(&self.shared);
                q.jobs.push_back(Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(job));
                    // Count the job before releasing the latch: `run`
                    // returns the moment the last latch completes, and a
                    // stats snapshot taken right after (the profiler's
                    // pool window) must already include every job of the
                    // batch.
                    shared.jobs_run.fetch_add(1, Ordering::Relaxed);
                    latch.complete(outcome.err());
                }));
            }
            self.shared.work_ready.notify_all();
        }
        if let Some(payload) = latch.wait() {
            resume_unwind(payload);
        }
    }
}

fn worker_loop(shared: &Shared) {
    WORKER_OF.with(|w| w.set(std::ptr::from_ref(shared)));
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                q = shared
                    .work_ready
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some(job) => {
                // The job's own panics are caught inside the wrapper
                // installed by `run`, which also counts the job into
                // `jobs_run` before releasing the batch latch.
                job();
            }
            None => return,
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_scoped_jobs_on_borrowed_data() {
        let pool = ExecPool::new(3);
        let mut data = vec![0usize; 8];
        let chunks: Vec<&mut [usize]> = data.chunks_mut(2).collect();
        let jobs: Vec<ScopedJob<'_>> = chunks
            .into_iter()
            .enumerate()
            .map(|(t, chunk)| {
                Box::new(move || {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = t * 10 + i;
                    }
                }) as ScopedJob<'_>
            })
            .collect();
        pool.run(jobs);
        assert_eq!(data, vec![0, 1, 10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn pool_is_reused_across_sweeps() {
        let pool = ExecPool::new(2);
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            let jobs: Vec<ScopedJob<'_>> = (0..4)
                .map(|_| {
                    Box::new(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }) as ScopedJob<'_>
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 40);
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.sweeps, 10);
        assert_eq!(stats.jobs, 40);
    }

    #[test]
    fn single_job_batches_run_inline() {
        let pool = ExecPool::new(2);
        let mut x = 0;
        pool.run(vec![Box::new(|| x = 7)]);
        assert_eq!(x, 7);
        assert_eq!(pool.stats().sweeps, 0); // inline, no dispatch
        pool.run(Vec::new()); // empty batch is a no-op
        assert_eq!(pool.stats().jobs, 0);
        // Inline means on the caller's thread, and a panic comes straight
        // back.
        let caller = std::thread::current().id();
        let mut ran_on = None;
        pool.run(vec![Box::new(|| {
            ran_on = Some(std::thread::current().id())
        })]);
        assert_eq!(ran_on, Some(caller));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![Box::new(|| panic!("lone job"))]);
        }));
        assert_eq!(*caught.unwrap_err().downcast::<&str>().unwrap(), "lone job");
        assert_eq!(pool.stats().sweeps, 0);
    }

    /// Runs `f` on its own thread and fails the test if it takes longer
    /// than a minute, instead of hanging on a deadlock.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()).expect("receiver waits"));
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the batch did not finish: deadlock")
    }

    #[test]
    fn nested_batches_run_inline_on_the_worker() {
        // Every outer job submits a batch of its own, so with one or two
        // workers all of them are inside a job while their inner batches
        // wait; that must not deadlock.
        for workers in [1, 2] {
            let (stats, inner_runs, inner_threads_ok) = within_a_minute(move || {
                let pool = ExecPool::new(workers);
                let inner_runs = AtomicUsize::new(0);
                let inner_threads_ok = AtomicUsize::new(0);
                let outer: Vec<ScopedJob<'_>> = (0..workers + 1)
                    .map(|_| {
                        let (pool, runs, ok) = (&pool, &inner_runs, &inner_threads_ok);
                        Box::new(move || {
                            let worker = std::thread::current().id();
                            for size in [0, 1, 3] {
                                let inner: Vec<ScopedJob<'_>> = (0..size)
                                    .map(|_| {
                                        Box::new(move || {
                                            runs.fetch_add(1, Ordering::Relaxed);
                                            if std::thread::current().id() == worker {
                                                ok.fetch_add(1, Ordering::Relaxed);
                                            }
                                        }) as ScopedJob<'_>
                                    })
                                    .collect();
                                pool.run(inner);
                            }
                        }) as ScopedJob<'_>
                    })
                    .collect();
                pool.run(outer);
                (
                    pool.stats(),
                    inner_runs.into_inner(),
                    inner_threads_ok.into_inner(),
                )
            });
            assert_eq!(inner_runs, 4 * (workers + 1), "{workers} workers");
            assert_eq!(
                inner_threads_ok, inner_runs,
                "inner jobs ran on their worker"
            );
            // Only the outer batch went through the queue.
            assert_eq!(stats.sweeps, 1);
            assert_eq!(stats.jobs, (workers + 1) as u64);
        }
    }

    #[test]
    fn nested_panic_is_rethrown_to_the_nesting_job() {
        let (seen, rethrown) = within_a_minute(|| {
            let pool = ExecPool::new(1);
            let seen = AtomicUsize::new(0);
            let rethrown = AtomicUsize::new(0);
            pool.run(vec![
                Box::new(|| {
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        pool.run(vec![
                            Box::new(|| panic!("inner")),
                            Box::new(|| {
                                seen.fetch_add(1, Ordering::Relaxed);
                            }),
                        ]);
                    }));
                    if caught.is_err() {
                        rethrown.fetch_add(1, Ordering::Relaxed);
                    }
                }),
                Box::new(|| {}),
            ]);
            (seen.into_inner(), rethrown.into_inner())
        });
        assert_eq!(seen, 1, "the rest of the inner batch ran");
        assert_eq!(rethrown, 1);
    }

    #[test]
    fn a_panic_in_any_job_completes_the_batch_first() {
        const M: usize = 6;
        for workers in [1, 3] {
            let pool = ExecPool::new(workers);
            for n in 0..M {
                let done = AtomicUsize::new(0);
                let jobs: Vec<ScopedJob<'_>> = (0..M)
                    .map(|i| {
                        let done = &done;
                        Box::new(move || {
                            if i == n {
                                panic!("job {i} of {M}");
                            }
                            done.fetch_add(1, Ordering::Relaxed);
                        }) as ScopedJob<'_>
                    })
                    .collect();
                let caught = catch_unwind(AssertUnwindSafe(|| pool.run(jobs)));
                let payload = caught.expect_err("the panic is re-thrown");
                assert_eq!(
                    *payload.downcast::<String>().unwrap(),
                    format!("job {n} of {M}")
                );
                assert_eq!(done.into_inner(), M - 1, "job {n}, {workers} workers");
            }
            assert_eq!(pool.stats().jobs, (M * M) as u64);
            // Still usable.
            let mut ok = [false; 2];
            let (a, b) = ok.split_at_mut(1);
            pool.run(vec![Box::new(|| a[0] = true), Box::new(|| b[0] = true)]);
            assert_eq!(ok, [true, true]);
        }
    }

    #[test]
    fn a_pool_dropped_mid_run_finishes_or_rethrows_and_joins_every_worker() {
        // Another thread drops its handle while the first job of a batch
        // holds a worker; the batch still runs to the end (or re-throws
        // its panic), and the caller's handle, dropped after `run`
        // returns or while its panic unwinds, is the last one: its drop
        // joins every worker, so none outlives the pool.
        for (workers, panics) in [(1, false), (3, false), (1, true), (3, true)] {
            let (outcome, done, workers_gone) = within_a_minute(move || {
                let pool = Arc::new(ExecPool::new(workers));
                let shared = Arc::downgrade(&pool.shared);
                let done = Arc::new(AtomicUsize::new(0));
                let (started_tx, started_rx) = std::sync::mpsc::channel();
                let (dropped_tx, dropped_rx) = std::sync::mpsc::channel();
                let caller = {
                    let (pool, done) = (Arc::clone(&pool), Arc::clone(&done));
                    let mut gate = Some((started_tx, dropped_rx));
                    std::thread::spawn(move || {
                        let jobs: Vec<ScopedJob<'_>> = (0..4)
                            .map(|i| {
                                let (gate, done) = (gate.take(), &done);
                                Box::new(move || {
                                    if let Some((started, dropped)) = gate {
                                        started.send(()).expect("the test waits");
                                        dropped.recv().expect("the test drops its handle");
                                    }
                                    if panics && i == 1 {
                                        panic!("job 1 of 4");
                                    }
                                    done.fetch_add(1, Ordering::Relaxed);
                                }) as ScopedJob<'_>
                            })
                            .collect();
                        pool.run(jobs);
                    })
                };
                started_rx.recv().expect("the batch starts");
                drop(pool);
                dropped_tx.send(()).expect("the first job waits");
                let outcome = caller.join().map_err(|payload| {
                    *payload.downcast::<&str>().expect("the job's panic message")
                });
                (
                    outcome,
                    done.load(Ordering::Relaxed),
                    shared.upgrade().is_none(),
                )
            });
            let want = if panics { Err("job 1 of 4") } else { Ok(()) };
            assert_eq!(outcome, want, "{workers} workers");
            assert_eq!(done, if panics { 3 } else { 4 }, "{workers} workers");
            assert!(
                workers_gone,
                "a worker outlived the pool ({workers} workers)"
            );
        }
    }

    #[test]
    fn racing_callers_each_get_their_whole_batch() {
        const BATCHES: usize = 16;
        const JOBS: usize = 5;
        let pool = ExecPool::new(2);
        let start = std::sync::Barrier::new(2);
        let results: Vec<Vec<usize>> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|caller| {
                    let (pool, start) = (&pool, &start);
                    s.spawn(move || {
                        let mut out = vec![0usize; BATCHES * JOBS];
                        start.wait();
                        for batch in out.chunks_mut(JOBS) {
                            let jobs: Vec<ScopedJob<'_>> = batch
                                .iter_mut()
                                .enumerate()
                                .map(|(i, v)| {
                                    Box::new(move || *v = 100 * caller + i + 1) as ScopedJob<'_>
                                })
                                .collect();
                            pool.run(jobs);
                        }
                        out
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for (caller, out) in results.iter().enumerate() {
            for batch in out.chunks(JOBS) {
                let want: Vec<usize> = (0..JOBS).map(|i| 100 * caller + i + 1).collect();
                assert_eq!(batch, want.as_slice(), "caller {caller}");
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.sweeps, (2 * BATCHES) as u64);
        assert_eq!(stats.jobs, (2 * BATCHES * JOBS) as u64);
    }

    #[test]
    fn more_jobs_than_workers_all_complete() {
        let pool = ExecPool::new(1);
        let mut out = [0u32; 33];
        let jobs: Vec<ScopedJob<'_>> = out
            .iter_mut()
            .enumerate()
            .map(|(i, v)| Box::new(move || *v = i as u32 + 1) as ScopedJob<'_>)
            .collect();
        pool.run(jobs);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn job_panic_propagates_and_pool_survives() {
        let pool = ExecPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| {}),
                Box::new(|| panic!("boom in job")),
                Box::new(|| {}),
            ]);
        }));
        assert!(caught.is_err());
        // The pool must still work after a job panicked.
        let mut ok = [false; 2];
        let (a, b) = ok.split_at_mut(1);
        pool.run(vec![Box::new(|| a[0] = true), Box::new(|| b[0] = true)]);
        assert!(ok[0] && ok[1]);
    }

    #[test]
    fn global_pool_exists_and_is_stable() {
        let p1 = ExecPool::global() as *const ExecPool;
        let p2 = ExecPool::global() as *const ExecPool;
        assert_eq!(p1, p2);
        assert!(ExecPool::global().workers() >= 1);
    }
}
