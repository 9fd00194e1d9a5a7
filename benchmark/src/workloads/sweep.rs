//! `sweep-mem`: single sweeps of heat-3d-r1 over a memory-resident 256³
//! domain — plain fold, the analytic tuner's spatial pick, and a depth-4
//! wavefront — on one engine thread.

use std::collections::BTreeMap;
use std::time::Instant;

use yasksite::{calibrate, CalibrateConfig, SearchSpace, Solution, TuneRequest, TuneStrategy};
use yasksite_arch::Machine;
use yasksite_engine::{
    CompiledStencil, EngineError, ExecPool, ScopedJob, SweepReport, SweepRequest, TierPolicy,
    TuningParams,
};
use yasksite_grid::{Fold, Grid3};
use yasksite_stencil::{builders, Stencil};
use yasksite_telemetry::Telemetry;

use super::{bitwise_equal, Ctx};
use crate::stats::{median, time_median};
use crate::trace::Tracer;

/// Two grids of 256³ doubles are 268 MB: 67× this host's 4 MiB L2 and
/// larger than its reported 260 MiB L3, so every sweep streams from memory
/// (256³ and 384³ measured the same MLUP/s). Same size as the "paper" scale
/// of `BENCH_kernels.json`.
pub const N: [usize; 3] = [256, 256, 256];
const HALO: [usize; 3] = [1, 1, 1];
const WAVEFRONT_DEPTH: usize = 4;
/// A run is `EPOCHS` set-ups, each measured for a third of the budget:
/// where the grids land in physical memory moves a memory-bound sweep by
/// a few percent, and pooling samples over fresh allocations averages
/// that out (and gives `setup_s` its repeats).
const EPOCHS: usize = 3;
const MIN_ROUNDS_PER_EPOCH: usize = 5;
const TYPICAL_ROUNDS_PER_EPOCH: usize = 13;
const WARM_ROUNDS: usize = 2;

fn points() -> f64 {
    (N[0] * N[1] * N[2]) as f64
}

/// The seeded initial condition: same shape for every seed, shifted phase.
fn fill_fn(seed: u64) -> impl Fn(usize, usize, usize) -> f64 {
    let shift = (seed % 13) as usize;
    move |i, j, k| ((i * 7 + j * 3 + k + shift) % 13) as f64 * 0.05
}

/// A ping-pong pair; after every sweep `a` holds the newest time level.
struct Pair {
    a: Grid3,
    b: Grid3,
}

fn new_grid(
    name: &str,
    n: [usize; 3],
    halo: [usize; 3],
    fold: Fold,
    seed: u64,
    tr: &Tracer,
) -> Grid3 {
    let _span = tr.span("grid:alloc_fill");
    let mut g = Grid3::new(name, n, halo, fold);
    g.fill_with(fill_fn(seed));
    g.fill_halo(0.0);
    g
}

impl Pair {
    fn new(fold: Fold, seed: u64, tr: &Tracer) -> Pair {
        Pair {
            a: new_grid("a", N, HALO, fold, seed, tr),
            b: new_grid("b", N, HALO, fold, seed, tr),
        }
    }

    fn refill(&mut self, seed: u64, tr: &Tracer) {
        let _span = tr.span("grid:alloc_fill");
        self.a.fill_with(fill_fn(seed));
        self.b.fill_with(fill_fn(seed));
    }
}

struct Config {
    name: &'static str,
    params: TuningParams,
    /// Index into `Setup::pairs` of the pair with this config's fold.
    pair: usize,
}

struct Setup {
    pool: ExecPool,
    stencil: Stencil,
    solution: Solution,
    configs: Vec<Config>,
    pairs: Vec<Pair>,
}

/// The analytic tuner's pick over the spatial space on the host model —
/// what `Offsite::tuned_params` uses for ODE right-hand sides. (The pick
/// over the full space is measured once by `probes`.)
fn tuned_spatial(solution: &Solution, tr: &Tracer) -> TuningParams {
    let space = tr.in_span("core.space:spatial_only", || {
        SearchSpace::spatial_only(solution.stencil(), solution.domain(), solution.machine())
    });
    let req = TuneRequest::new(TuneStrategy::Analytic).cores(1).jobs(1);
    let result = tr.in_span("core.tuner:session", || {
        solution.tune_space_with(&space, &req)
    });
    result
        .expect("the spatial space of a 256^3 domain is not empty")
        .best
}

fn plain_params() -> TuningParams {
    TuningParams::new([N[0], 16, 16], Fold::new(8, 1, 1))
}

fn setup(seed: u64, tr: &Tracer) -> Setup {
    let pool = tr.in_span("engine:pool_new", || ExecPool::new(1));
    let stencil = builders::heat3d(1);
    let solution = Solution::new(stencil.clone(), N, Machine::host());
    let plain = plain_params();
    let tuned = tuned_spatial(&solution, tr);
    let mut pairs = vec![Pair::new(plain.fold, seed, tr)];
    let tuned_pair = if tuned.fold == plain.fold {
        0
    } else {
        pairs.push(Pair::new(tuned.fold, seed, tr));
        1
    };
    let configs = vec![
        Config {
            name: "plain",
            params: plain.clone(),
            pair: 0,
        },
        Config {
            name: "tuned",
            params: tuned,
            pair: tuned_pair,
        },
        Config {
            name: "wavefront",
            params: plain.wavefront(WAVEFRONT_DEPTH),
            pair: 0,
        },
    ];
    Setup {
        pool,
        stencil,
        solution,
        configs,
        pairs,
    }
}

/// One spatial sweep, or one wavefront pass of `params.wavefront` sweeps.
fn sweep_once(
    stencil: &Stencil,
    pool: &ExecPool,
    params: &TuningParams,
    pair: &mut Pair,
    tr: &Tracer,
) -> Result<SweepReport, EngineError> {
    let req = SweepRequest::new(params).pool(pool).tier(TierPolicy::Auto);
    if params.wavefront > 1 {
        let _span = tr.span("engine:run_wavefront");
        req.run_wavefront(stencil, &mut pair.a, &mut pair.b)
    } else {
        let report = {
            let _span = tr.span("engine:apply");
            req.apply(stencil, &[&pair.a], &mut pair.b)
        };
        std::mem::swap(&mut pair.a, &mut pair.b);
        report
    }
}

/// Timed sweep; returns seconds per sweep and counts the operation.
fn timed_sweep(s: &mut Setup, cfg: usize, ctx: &mut Ctx, tiers: &mut BTreeMap<String, u64>) -> f64 {
    let Config { params, pair, .. } = &s.configs[cfg];
    ctx.tr.next_op();
    let t0 = Instant::now();
    let report = sweep_once(&s.stencil, &s.pool, params, &mut s.pairs[*pair], ctx.tr);
    let secs = t0.elapsed().as_secs_f64() / params.wavefront.max(1) as f64;
    match report {
        Ok(r) => {
            // A sweep that fell off the tier its layout asks for counts as
            // failed: its time is not the time of the kernel being tracked.
            ctx.out.op(!r.degraded());
            *tiers.entry(r.tier.to_string()).or_insert(0) += 1;
        }
        Err(_) => ctx.out.op(false),
    }
    secs
}

pub fn run(ctx: &mut Ctx) {
    let mut setup_secs = Vec::new();
    let mut tiers = BTreeMap::new();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut loop_wall = 0.0;
    let mut state = None;
    let budget = ctx.budget.split(EPOCHS);
    for _ in 0..EPOCHS {
        drop(state.take());
        let t0 = Instant::now();
        let s = state.insert(setup(ctx.seed, ctx.tr));
        setup_secs.push(t0.elapsed().as_secs_f64());
        for _ in 0..WARM_ROUNDS {
            for cfg in 0..s.configs.len() {
                timed_sweep(s, cfg, ctx, &mut tiers);
            }
        }
        let start = Instant::now();
        let mut rounds = 0;
        while budget.keep_going(
            start,
            rounds,
            MIN_ROUNDS_PER_EPOCH,
            TYPICAL_ROUNDS_PER_EPOCH,
        ) {
            for (cfg, sample) in samples.iter_mut().enumerate() {
                sample.push(timed_sweep(s, cfg, ctx, &mut tiers));
            }
            rounds += 1;
        }
        loop_wall += start.elapsed().as_secs_f64();
    }
    let mut s = state.expect("EPOCHS is at least 1");
    let rounds = samples[0].len();
    let grid_bytes: usize = s.pairs.iter().map(|p| p.a.bytes() + p.b.bytes()).sum();
    ctx.out.note("working_set_bytes", grid_bytes);
    ctx.out.note(
        "bytes_per_sweep_pair",
        s.pairs[0].a.bytes() + s.pairs[0].b.bytes(),
    );
    ctx.out.note("threads", 1);
    for c in &s.configs {
        ctx.out.note(&format!("params.{}", c.name), &c.params);
    }

    let out = &mut *ctx.out;
    out.metric("bench.loop_wall_s", "s", loop_wall, 1);
    out.metric("setup_s", "s", median(&setup_secs), setup_secs.len());
    out.note("allocations_sampled", EPOCHS);
    let slots = ["baseline_ms", "tuned_ms", "alt_ms"];
    let named = [
        "sweep_plain_mlups",
        "sweep_tuned_mlups",
        "sweep_wavefront_mlups",
    ];
    for (cfg, c) in s.configs.iter().enumerate() {
        let secs = median(&samples[cfg]);
        let mlups = points() / secs / 1e6;
        out.metric(slots[cfg], "ms", secs * 1e3, rounds);
        out.metric(named[cfg], "MLUP/s", mlups, rounds);
        let predicted = s.solution.predict(&c.params, 1).mlups;
        out.metric(
            &format!("ecm.pred_over_meas.{}", c.name),
            "ratio",
            predicted / mlups,
            0,
        );
    }
    out.metric("engine.sweep_s.plain", "s", median(&samples[0]), rounds);
    out.metric(
        "engine.sweep_s.wavefront_d4",
        "s",
        median(&samples[2]),
        rounds,
    );
    let degraded = out.failed;
    out.check(
        "sweep.no_failed_or_degraded_sweep",
        degraded == 0,
        format!(
            "{degraded} of {} timed sweeps failed or ran on a degraded tier",
            out.attempted
        ),
    );
    for tier in ["folded", "scalar", "tape", "generic"] {
        let n = tiers.get(tier).copied().unwrap_or(0);
        out.metric(&format!("engine.tier_ran.{tier}"), "count", n as f64, 0);
    }

    verify(&mut s, ctx);
}

/// Four plain sweeps, four sweeps on the tuned layout and one depth-4
/// wavefront pass from the same initial condition must agree bit for bit.
fn verify(s: &mut Setup, ctx: &mut Ctx) {
    let _span = ctx.tr.span("bench:verify");
    let seed = ctx.seed;
    let run = |cfg: usize, sweeps: usize, s: &mut Setup| -> Option<Grid3> {
        let Config { params, pair, .. } = &s.configs[cfg];
        s.pairs[*pair].refill(seed, ctx.tr);
        for _ in 0..sweeps {
            sweep_once(&s.stencil, &s.pool, params, &mut s.pairs[*pair], ctx.tr).ok()?;
        }
        Some(s.pairs[*pair].a.clone())
    };
    let plain = run(0, WAVEFRONT_DEPTH, s);
    let wavefront = run(2, 1, s);
    let tuned_sweeps = WAVEFRONT_DEPTH / s.configs[1].params.wavefront.max(1);
    let tuned = run(1, tuned_sweeps, s);
    let same = |x: &Option<Grid3>, y: &Option<Grid3>| match (x, y) {
        (Some(x), Some(y)) => bitwise_equal(x, y),
        _ => false,
    };
    ctx.out.check(
        "sweep.wavefront_d4_equals_4_plain",
        same(&plain, &wavefront),
        "bitwise over all 256^3 points".into(),
    );
    ctx.out.check(
        "sweep.tuned_equals_plain",
        same(&plain, &tuned),
        format!(
            "bitwise, fold {} vs {}",
            s.configs[1].params.fold, s.configs[0].params.fold
        ),
    );
}

/// Seconds per sweep of `params` on a fresh pair, median of `reps`.
fn probe_sweep(
    stencil: &Stencil,
    pool: &ExecPool,
    params: &TuningParams,
    reps: usize,
    warm: bool,
    seed: u64,
) -> f64 {
    let tr = Tracer::new(false);
    let mut pair = Pair::new(params.fold, seed, &tr);
    let mut once = || {
        sweep_once(stencil, pool, params, &mut pair, &tr).expect("probe parameters are valid");
    };
    let pass = if warm {
        time_median(reps, once)
    } else {
        let t0 = Instant::now();
        once();
        t0.elapsed().as_secs_f64()
    };
    pass / params.wavefront.max(1) as f64
}

pub fn probes(ctx: &mut Ctx) {
    let stencil = builders::heat3d(1);
    let pool = ExecPool::new(1);
    let seed = ctx.seed;
    let plain = plain_params();

    let alloc = time_median(3, || {
        std::hint::black_box(new_grid(
            "probe",
            N,
            HALO,
            plain.fold,
            seed,
            &Tracer::new(false),
        ));
    });
    ctx.out.metric("grid.alloc_fill_s", "s", alloc, 3);

    let compile = time_median(200, || {
        std::hint::black_box(CompiledStencil::compile(&stencil));
    });
    ctx.out
        .metric("engine.compile_us", "us", compile * 1e6, 200);

    let workers = ExecPool::new(ctx.nproc.min(2));
    let dispatch = time_median(2000, || {
        let jobs: Vec<ScopedJob<'_>> = (0..workers.workers())
            .map(|_| Box::new(|| {}) as ScopedJob<'_>)
            .collect();
        workers.run(jobs);
    });
    ctx.out
        .metric("engine.pool_dispatch_us", "us", dispatch * 1e6, 2000);

    let brick = TuningParams::new([N[0], 16, 16], Fold::new(4, 2, 1));
    let sweep_s = probe_sweep(&stencil, &pool, &brick, 7, true, seed);
    ctx.out.metric("engine.sweep_s.brick", "s", sweep_s, 7);
    let d2 = probe_sweep(&stencil, &pool, &plain.clone().wavefront(2), 7, true, seed);
    ctx.out.metric("engine.sweep_s.wavefront_d2", "s", d2, 7);

    // What `tune_with(Analytic)` returns over the full standard space on
    // the host model. At the seed commit it is a depth-8 wavefront on a
    // 4x2x1 fold, which runs on the generic per-point tier; one cold pass
    // is all the budget allows.
    let solution = Solution::new(stencil.clone(), N, Machine::host());
    let req = TuneRequest::new(TuneStrategy::Analytic).cores(1).jobs(1);
    if let Ok(full) = solution.tune_with(&req) {
        ctx.out.note("params.fullspace_pick", &full.best);
        let secs = probe_sweep(&stencil, &pool, &full.best, 1, false, seed);
        ctx.out
            .metric("engine.sweep_s.fullspace_pick", "s", secs, 1);
    }

    // Computed from array sizes, not counted: one grid read and one grid
    // written per sweep (a write-allocating store would add a third).
    let pair_bytes = {
        let g = Grid3::new("size", N, HALO, plain.fold);
        2.0 * g.bytes() as f64
    };
    let bytes_per_lup = pair_bytes / points();
    ctx.out.metric(
        "engine.bytes_per_lup_computed.plain",
        "B/LUP",
        bytes_per_lup,
        0,
    );
    ctx.out.metric(
        "engine.bytes_per_lup_computed.wavefront_d4",
        "B/LUP",
        bytes_per_lup / WAVEFRONT_DEPTH as f64,
        0,
    );
    if let Some(plain_s) = ctx.out.get("engine.sweep_s.plain") {
        let achieved = pair_bytes / plain_s / 1e9;
        ctx.out
            .metric("engine.gbs_achieved.plain", "GB/s", achieved, 0);
        // The memory probe of a quick calibration, in this same run.
        let mut cal = CalibrateConfig::new(seed);
        cal.quick = true;
        if let Ok(outcome) = calibrate(&cal, &Telemetry::disabled()) {
            let measured = outcome.machine.mem_bw_single_core_gbs;
            ctx.out.metric("arch.mem_gbs_measured", "GB/s", measured, 0);
            ctx.out.metric(
                "engine.roofline_frac.plain",
                "ratio",
                achieved / measured,
                0,
            );
        }
    }

    // Compute-bound in-core work: 125-point box at 128^3, both tiers.
    let n = [128usize, 128, 128];
    let box2 = builders::box3d(2);
    let p = TuningParams::new([n[0], 16, 16], Fold::new(8, 1, 1));
    let tr = Tracer::new(false);
    let u = new_grid("u", n, [2, 2, 2], p.fold, seed, &tr);
    let mut out = new_grid("out", n, [2, 2, 2], p.fold, seed, &tr);
    for (name, policy) in [
        ("engine.mlups.box3d2_scalar", TierPolicy::ForceScalar),
        ("engine.mlups.box3d2_folded", TierPolicy::ForceFolded),
    ] {
        let req = SweepRequest::new(&p).pool(&pool).tier(policy);
        let secs = time_median(5, || {
            req.apply(&box2, &[&u], &mut out)
                .expect("box3d2 binds to its grids");
        });
        ctx.out
            .metric(name, "MLUP/s", (n[0] * n[1] * n[2]) as f64 / secs / 1e6, 5);
    }

    // Never faked on one core: without a second core the metric stays 0.
    if ctx.nproc >= 2 {
        let pool2 = ExecPool::new(2);
        let t1 = probe_sweep(&stencil, &pool2, &plain, 7, true, seed);
        let t2 = probe_sweep(&stencil, &pool2, &plain.clone().threads(2), 7, true, seed);
        ctx.out
            .metric("engine.thread_scaling_2t", "ratio", t1 / t2, 7);
    }
}
