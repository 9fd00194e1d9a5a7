//! `tune-mix`: the cost of autotuning. Sixteen analytic sessions, each
//! against a fresh private prediction cache (cold) and again on the
//! now-filled cache (warm), plus four hybrid sessions that measure their
//! shortlist on the simulated machines. The native engine does nothing.

use std::sync::Arc;
use std::time::Instant;

use yasksite::cli::stencil_by_name;
use yasksite::{
    predict_params, PredictionCache, SearchSpace, Solution, TrialConfig, TrialRng, TuneRequest,
    TuneResult, TuneStrategy,
};
use yasksite_arch::Machine;
use yasksite_telemetry::{Level, Telemetry};

use super::Ctx;
use crate::stats::{fnv1a, median, scaled_median, shuffle, time_median};
use crate::trace::Tracer;

const STENCILS: [&str; 4] = ["heat-3d-r1", "box-3d-r2", "star-3d-r2", "heat-3d-vc"];
const CORES: [usize; 5] = [1, 2, 4, 8, 16];
/// Per stencil: one (domain class, machine) slot each. Domains within a
/// class enumerate the same number of candidates, so the seed can choose
/// among them (and the core count, and the session order) without moving
/// the cost of the mix — which has to compare across seeds.
const SLOTS: [([usize; 2], &str); 4] = [
    ([64, 64], "clx"),
    ([96, 128], "rome"),
    ([96, 128], "clx"),
    ([192, 256], "rome"),
];
/// Hybrid sessions: simulated machines, at most 64³, three samples per
/// shortlisted candidate. Fixed; the seed only orders them.
const HYBRID: [(&str, usize, &str); 4] = [
    ("heat-3d-r1", 48, "clx"),
    ("star-3d-r2", 32, "rome"),
    ("heat-3d-vc", 64, "clx"),
    ("box-3d-r2", 32, "clx"),
];
const HYBRID_CORES: usize = 2;
const ANALYTIC_PASSES_PER_ROUND: usize = 5;
const MIN_ROUNDS: usize = 2;
const TYPICAL_ROUNDS: usize = 3;
const SETUP_REPEATS: usize = 50;

struct Problem {
    text: String,
    solution: Solution,
    cores: usize,
}

struct Inputs {
    analytic: Vec<Problem>,
    hybrid: Vec<Problem>,
    hash: u64,
}

fn problem(stencil: &str, n: usize, machine: &str, cores: usize) -> Problem {
    let st = stencil_by_name(stencil).expect("the benchmark names stencils the CLI knows");
    let m = Machine::by_short_name(machine).expect("clx and rome are built in");
    Problem {
        text: format!("{stencil} {n}^3 {machine} cores={cores}"),
        solution: Solution::new(st, [n, n, n], m),
        cores,
    }
}

fn generate(seed: u64, tr: &Tracer) -> Inputs {
    let _span = tr.span("bench:generate");
    let mut rng = TrialRng::new(seed);
    let mut analytic = Vec::new();
    for stencil in STENCILS {
        for (class, machine) in SLOTS {
            let n = class[(rng.next_u64() % 2) as usize];
            let cores = CORES[(rng.next_u64() % CORES.len() as u64) as usize];
            analytic.push(problem(stencil, n, machine, cores));
        }
    }
    shuffle(&mut analytic, &mut rng);
    let mut hybrid: Vec<Problem> = HYBRID
        .iter()
        .map(|&(s, n, m)| problem(s, n, m, HYBRID_CORES))
        .collect();
    shuffle(&mut hybrid, &mut rng);
    let listing: Vec<&str> = analytic
        .iter()
        .chain(&hybrid)
        .map(|p| p.text.as_str())
        .collect();
    Inputs {
        hash: fnv1a(&listing.join("\n")),
        analytic,
        hybrid,
    }
}

fn analytic_request(p: &Problem, cache: &Arc<PredictionCache>, tel: &Telemetry) -> TuneRequest {
    TuneRequest::new(TuneStrategy::Analytic)
        .cores(p.cores)
        .jobs(1)
        .cache(Arc::clone(cache))
        .telemetry(tel.clone())
}

fn hybrid_request(p: &Problem) -> TuneRequest {
    let trial = TrialConfig {
        samples: 3,
        ..TrialConfig::default()
    };
    TuneRequest::new(TuneStrategy::Hybrid { shortlist: 3 })
        .cores(p.cores)
        .jobs(1)
        .cache(Arc::new(PredictionCache::new()))
        .trial(trial)
}

fn same_winner(a: &TuneResult, b: &TuneResult) -> bool {
    a.best == b.best && a.best_score.to_bits() == b.best_score.to_bits()
}

/// Totals of one pass over the analytic problem list.
#[derive(Default)]
struct AnalyticPass {
    cold_s: f64,
    warm_s: f64,
    model_evals: usize,
    cold_hits: usize,
    cold_lookups: usize,
    warm_hits: usize,
    warm_lookups: usize,
    /// Sessions whose warm winner differs from the cold one.
    winner_changes: usize,
}

fn analytic_pass(problems: &[Problem], ctx: &mut Ctx, tel: &Telemetry) -> AnalyticPass {
    let mut pass = AnalyticPass::default();
    for p in problems {
        let cache = Arc::new(PredictionCache::new());
        let req = analytic_request(p, &cache, tel);
        ctx.tr.next_op();
        let t0 = Instant::now();
        let cold = ctx
            .tr
            .in_span("core.tuner:analytic_cold", || p.solution.tune_with(&req));
        let t1 = Instant::now();
        let warm = ctx
            .tr
            .in_span("core.tuner:analytic_warm", || p.solution.tune_with(&req));
        let t2 = Instant::now();
        pass.cold_s += (t1 - t0).as_secs_f64();
        pass.warm_s += (t2 - t1).as_secs_f64();
        match (cold, warm) {
            (Ok(c), Ok(w)) => {
                ctx.out.op(true);
                // The warm session must reproduce the cold one's winner.
                ctx.out.op(same_winner(&c, &w));
                pass.winner_changes += usize::from(!same_winner(&c, &w));
                pass.model_evals += c.cost.model_evals;
                pass.cold_hits += c.cost.cache_hits;
                pass.cold_lookups += c.cost.cache_hits + c.cost.cache_misses;
                pass.warm_hits += w.cost.cache_hits;
                pass.warm_lookups += w.cost.cache_hits + w.cost.cache_misses;
            }
            _ => {
                ctx.out.op(false);
                ctx.out.op(false);
            }
        }
    }
    pass
}

/// One pass over the hybrid list: total wall, the same total with every
/// session taken to the reference clock, and kernel runs; a session that
/// errs or falls back to a prediction counts as failed.
fn hybrid_pass(problems: &[Problem], ctx: &mut Ctx) -> (f64, f64, usize) {
    let (mut wall, mut at_reference) = (0.0, 0.0);
    let mut runs = 0;
    for p in problems {
        let req = hybrid_request(p);
        let scale = ctx.clock_scale();
        ctx.tr.next_op();
        let t0 = Instant::now();
        let result = ctx
            .tr
            .in_span("core.tuner:hybrid", || p.solution.tune_with(&req));
        let secs = t0.elapsed().as_secs_f64();
        wall += secs;
        at_reference += secs * scale;
        match result {
            Ok(r) => {
                ctx.out.op(r.fallback_count() == 0);
                runs += r.cost.engine_runs;
            }
            Err(_) => ctx.out.op(false),
        }
    }
    (wall, at_reference, runs)
}

pub fn run(ctx: &mut Ctx) {
    let tr = ctx.tr;
    let mut setup_secs = Vec::new();
    let mut inputs = None;
    let setup_scale = ctx.clock_scale();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        inputs = Some(generate(ctx.seed, tr));
        setup_secs.push(t0.elapsed().as_secs_f64() * setup_scale);
    }
    let inputs = inputs.expect("SETUP_REPEATS is at least 1");
    ctx.out.note("input_hash", format!("{:016x}", inputs.hash));
    ctx.out.note("analytic_sessions", inputs.analytic.len());
    ctx.out.note("hybrid_sessions", inputs.hybrid.len());
    ctx.out.note("threads", "1 (jobs=1)");

    let off = Telemetry::disabled();
    // One untimed pass: lazy statics and the allocator settle.
    analytic_pass(&inputs.analytic, ctx, &off);

    // Per-session wall seconds of each pass, and the clock read before it.
    let (mut cold, mut warm, mut analytic_scales) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hybrid, mut hybrid_at_reference) = (Vec::new(), Vec::new());
    let mut last = AnalyticPass::default();
    let mut hybrid_runs = 0;
    let mut winner_changes = 0;
    let start = Instant::now();
    let mut rounds = 0;
    while ctx
        .budget
        .keep_going(start, rounds, MIN_ROUNDS, TYPICAL_ROUNDS)
    {
        let (wall, at_reference, runs) = hybrid_pass(&inputs.hybrid, ctx);
        hybrid.push(wall / inputs.hybrid.len() as f64);
        hybrid_at_reference.push(at_reference / inputs.hybrid.len() as f64);
        hybrid_runs = runs;
        for _ in 0..ANALYTIC_PASSES_PER_ROUND {
            analytic_scales.push(ctx.clock_scale());
            last = analytic_pass(&inputs.analytic, ctx, &off);
            cold.push(last.cold_s / inputs.analytic.len() as f64);
            warm.push(last.warm_s / inputs.analytic.len() as f64);
            winner_changes += last.winner_changes;
        }
        rounds += 1;
    }
    ctx.out.check(
        "tune.warm_winner_equals_cold",
        winner_changes == 0,
        format!(
            "{winner_changes} of {} session pairs differ (parameters and score bits)",
            cold.len() * inputs.analytic.len()
        ),
    );

    let out = &mut *ctx.out;
    out.metric("bench.loop_wall_s", "s", start.elapsed().as_secs_f64(), 1);
    out.metric("setup_s", "s", median(&setup_secs), setup_secs.len());
    let at_reference_ms = |secs: &[f64], scales: &[f64]| scaled_median(secs, scales) * 1e3;
    out.metric(
        "baseline_ms",
        "ms",
        at_reference_ms(&cold, &analytic_scales),
        cold.len(),
    );
    out.metric(
        "tuned_ms",
        "ms",
        at_reference_ms(&warm, &analytic_scales),
        warm.len(),
    );
    out.metric(
        "alt_ms",
        "ms",
        median(&hybrid_at_reference) * 1e3,
        hybrid.len(),
    );
    out.metric("tune_cold_s", "s", median(&cold), cold.len());
    out.metric("tune_warm_s", "s", median(&warm), warm.len());
    out.metric("tune_hybrid_s", "s", median(&hybrid), hybrid.len());
    out.metric(
        "core.tuner.model_evals",
        "count",
        last.model_evals as f64,
        0,
    );
    out.metric("core.tuner.runs", "count", hybrid_runs as f64, 0);
    let ratio = |hits: usize, lookups: usize| hits as f64 / lookups.max(1) as f64;
    out.metric(
        "core.cache.hit_ratio.cold",
        "ratio",
        ratio(last.cold_hits, last.cold_lookups),
        0,
    );
    out.metric(
        "core.cache.hit_ratio.warm",
        "ratio",
        ratio(last.warm_hits, last.warm_lookups),
        0,
    );
}

/// Mean seconds per call when `f` makes `calls` calls, median of `reps`.
fn per_call(reps: usize, calls: usize, f: impl FnMut()) -> f64 {
    time_median(reps, f) / calls as f64
}

pub fn probes(ctx: &mut Ctx) {
    let p = problem("heat-3d-r1", 128, "clx", 2);
    let sol = &p.solution;
    let (stencil, domain, machine) = (sol.stencil(), sol.domain(), sol.machine());

    let mut candidates = Vec::new();
    let enumerate = per_call(20, 1, || {
        candidates = SearchSpace::standard(stencil, domain, machine).candidates(p.cores);
    });
    ctx.out
        .metric("core.space.candidates_us", "us", enumerate * 1e6, 20);
    ctx.out
        .metric("core.space.candidates", "count", candidates.len() as f64, 0);

    let n = candidates.len();
    let predict = per_call(10, n, || {
        for c in &candidates {
            std::hint::black_box(predict_params(stencil, domain, machine, c, p.cores));
        }
    });
    ctx.out
        .metric("ecm.predict_us", "us", predict * 1e6, 10 * n);

    let mut cache = PredictionCache::new();
    let lookups = |cache: &PredictionCache| {
        for c in &candidates {
            std::hint::black_box(cache.predict(sol, c, p.cores));
        }
    };
    let miss = per_call(10, n, || {
        cache = PredictionCache::new();
        lookups(&cache);
    });
    let hit = per_call(10, n, || lookups(&cache));
    ctx.out
        .metric("core.cache.miss_us", "us", miss * 1e6, 10 * n);
    ctx.out.metric("core.cache.hit_us", "us", hit * 1e6, 10 * n);

    // The simulator behind hybrid sessions: one measurement is a cold and
    // a steady sweep of the address stream through the cache model.
    let sim = problem("heat-3d-r1", 64, "clx", HYBRID_CORES);
    let best = sim
        .solution
        .tune_with(&analytic_request(
            &sim,
            &Arc::new(PredictionCache::new()),
            &Telemetry::disabled(),
        ))
        .expect("the standard space of a 64^3 domain is not empty")
        .best;
    let t0 = Instant::now();
    let measured = sim.solution.measure(&best);
    let wall = t0.elapsed().as_secs_f64();
    if let Ok(m) = measured {
        let sweeps = 2.0 * best.wavefront.max(1) as f64;
        ctx.out.metric("memsim.sim_sweep_s", "s", wall / sweeps, 1);
        if let Some(stats) = m.stats {
            ctx.out.metric(
                "memsim.accesses_per_s",
                "1/s",
                stats.accesses as f64 / wall,
                1,
            );
        }
    }
    let codegen = per_call(20, 1, || {
        std::hint::black_box(sim.solution.codegen(&best));
    });
    ctx.out.metric("core.codegen_us", "us", codegen * 1e6, 20);

    // Share of a hybrid session's wall not spent inside the measurements
    // themselves: ranking, trial bookkeeping, allocation of the grids.
    let hybrid = &problem(HYBRID[0].0, HYBRID[0].1, HYBRID[0].2, HYBRID_CORES);
    let t0 = Instant::now();
    let session = hybrid.solution.tune_with(&hybrid_request(hybrid));
    let session_wall = t0.elapsed().as_secs_f64();
    if let Ok(r) = session {
        let t0 = Instant::now();
        let shortlist = r.ranked.iter().take(3);
        let measurable = shortlist
            .filter(|(c, _)| hybrid.solution.measure(c).is_ok())
            .count();
        let per_measure = t0.elapsed().as_secs_f64() / measurable.max(1) as f64;
        let inside = per_measure * r.cost.engine_runs as f64;
        ctx.out.metric(
            "core.trial.overhead_share",
            "ratio",
            1.0 - inside / session_wall,
            1,
        );
    }

    // The same analytic pass with a recording telemetry handle and without.
    let inputs = generate(ctx.seed, &Tracer::new(false));
    let mut scratch = crate::report::Outcome::default();
    let off_tracer = Tracer::new(false);
    let mut timed_pass = |tel: &Telemetry| {
        let mut c = Ctx {
            seed: ctx.seed,
            budget: ctx.budget,
            tr: &off_tracer,
            out: &mut scratch,
            tmp: ctx.tmp,
            nproc: ctx.nproc,
        };
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let pass = analytic_pass(&inputs.analytic, &mut c, tel);
                pass.cold_s + pass.warm_s
            })
            .collect();
        median(&samples)
    };
    let plain = timed_pass(&Telemetry::disabled());
    let (tel, _sink) = Telemetry::recording(Level::Info);
    let recorded = timed_pass(&tel);
    ctx.out.metric(
        "telemetry.overhead_share.tune",
        "ratio",
        recorded / plain - 1.0,
        5,
    );
    ctx.out.metric(
        "telemetry.spans",
        "count",
        tel.spans_opened() as f64 / 5.0,
        0,
    );
}
