//! The benchmark's contract: workload names, end-to-end metrics with their
//! regression bounds, and per-layer metric names. `benchmark manifest`
//! renders this table as the repository's `BENCHMARK.json`, so the file and
//! the program cannot drift apart.

use yasksite_telemetry::json::write_escaped;

/// Seconds one run measures (the driver passes the same value as `--seconds`).
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sweep-mem",
        why: "heat-3d-r1 at 256^3 (268 MB, memory-resident): the engine does all the work; kernel, fold-tier and temporal-blocking changes show here and nowhere else",
    },
    Workload {
        name: "ode-mem",
        why: "RK4 on Heat3d(192), 7-8 grids of 59 MB: the paper's headline path; memory-bound sweeps are 88 % of a step, so a better pick or kernel shows and a cheaper dispatch does not",
    },
    Workload {
        name: "ode-small",
        why: "RK4/PIRK on InverterChain(4096), 32 KB per grid: same ode/engine layers, but dispatch, stepper and tape-kernel overhead dominate and memory traffic is nil",
    },
    Workload {
        name: "tune-mix",
        why: "16 seeded analytic tune sessions cold then warm plus 4 hybrid sessions on simulated machines: ecm, space, cache, tuner and memsim work; the native engine does none",
    },
    Workload {
        name: "serve-mix",
        why: "closed-loop client against an in-process serve_unix daemon with a state dir: predict reads beside journal appends, tune and status requests, then a warm restart",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher: false,
        bound,
    }
}

/// Every workload reports all four (the driver crosses metrics with
/// workloads); README.md maps each (metric, workload) pair to the path a
/// user waits on and to the issue's workload-specific name. Wall time on
/// the memory-bound workloads, time at the reference clock of
/// [`crate::clock`] on the compute-bound ones.
pub const END_TO_END: [Metric; 4] = [
    e2e("baseline_ms", "ms", 0.25),
    e2e("tuned_ms", "ms", 0.25),
    e2e("alt_ms", "ms", 0.25),
    e2e("setup_s", "s", 0.25),
];

/// Workload-specific names of the same end-to-end numbers (and a few
/// derived from them), with the bound `benchmark compare` applies. These
/// are what the issue and the roadmap refer to; its fifteenth, `setup_s`,
/// is in [`END_TO_END`].
pub const NAMED: [Metric; 14] = [
    Metric {
        name: "sweep_plain_mlups",
        unit: "MLUP/s",
        higher: true,
        bound: 0.10,
    },
    Metric {
        name: "sweep_tuned_mlups",
        unit: "MLUP/s",
        higher: true,
        bound: 0.10,
    },
    Metric {
        name: "sweep_wavefront_mlups",
        unit: "MLUP/s",
        higher: true,
        bound: 0.10,
    },
    Metric {
        name: "ode_solve_s",
        unit: "s",
        higher: false,
        bound: 0.10,
    },
    Metric {
        name: "ode_speedup_vs_naive",
        unit: "ratio",
        higher: true,
        bound: 0.10,
    },
    Metric {
        name: "ode_pick_regret",
        unit: "ratio",
        higher: false,
        bound: 0.10,
    },
    Metric {
        name: "tune_cold_s",
        unit: "s",
        higher: false,
        bound: 0.10,
    },
    Metric {
        name: "tune_warm_s",
        unit: "s",
        higher: false,
        bound: 0.10,
    },
    Metric {
        name: "tune_hybrid_s",
        unit: "s",
        higher: false,
        bound: 0.10,
    },
    Metric {
        name: "serve_predict_p50_ms",
        unit: "ms",
        higher: false,
        bound: 0.10,
    },
    Metric {
        name: "serve_predict_p99_ms",
        unit: "ms",
        higher: false,
        bound: 0.15,
    },
    Metric {
        name: "serve_tune_p50_ms",
        unit: "ms",
        higher: false,
        bound: 0.10,
    },
    Metric {
        name: "serve_warm_start_s",
        unit: "s",
        higher: false,
        bound: 0.15,
    },
    Metric {
        name: "failed_share",
        unit: "ratio",
        higher: false,
        bound: 0.0,
    },
];

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// Layers a span can belong to (the prefix of a span name before `:`).
pub const LAYERS: [&str; 13] = [
    "grid",
    "engine",
    "ode",
    "offsite",
    "ecm",
    "memsim",
    "core.space",
    "core.cache",
    "core.tuner",
    "core.persist",
    "core.serve",
    "socket",
    "bench",
];

/// Per-layer metrics. A traced run reports all of them; one a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // Trace-derived, every workload.
    layer("trace.coverage", "ratio", true),
    layer("trace.overhead_share", "ratio", false),
    layer("trace.spans", "count", false),
    layer("trace.wall_s", "s", false),
    layer("grid.self_s", "s", false),
    layer("engine.self_s", "s", false),
    layer("ode.self_s", "s", false),
    layer("offsite.self_s", "s", false),
    layer("ecm.self_s", "s", false),
    layer("memsim.self_s", "s", false),
    layer("core.space.self_s", "s", false),
    layer("core.cache.self_s", "s", false),
    layer("core.tuner.self_s", "s", false),
    layer("core.persist.self_s", "s", false),
    layer("core.serve.self_s", "s", false),
    layer("socket.self_s", "s", false),
    layer("bench.self_s", "s", false),
    layer("engine.share", "ratio", true),
    // ode-small, tune-mix, serve-mix: the core clock their gated times are
    // scaled by.
    layer("host.clock_scale", "ratio", true),
    // sweep-mem.
    layer("grid.alloc_fill_s", "s", false),
    layer("engine.compile_us", "us", false),
    layer("engine.pool_dispatch_us", "us", false),
    layer("engine.sweep_s.plain", "s", false),
    layer("engine.sweep_s.brick", "s", false),
    layer("engine.sweep_s.wavefront_d2", "s", false),
    layer("engine.sweep_s.wavefront_d4", "s", false),
    layer("engine.sweep_s.fullspace_pick", "s", false),
    layer("engine.bytes_per_lup_computed.plain", "B/LUP", false),
    layer("engine.bytes_per_lup_computed.wavefront_d4", "B/LUP", false),
    layer("engine.gbs_achieved.plain", "GB/s", true),
    layer("arch.mem_gbs_measured", "GB/s", true),
    layer("engine.roofline_frac.plain", "ratio", true),
    layer("engine.mlups.box3d2_scalar", "MLUP/s", true),
    layer("engine.mlups.box3d2_folded", "MLUP/s", true),
    layer("engine.mlups.tape", "MLUP/s", true),
    layer("engine.thread_scaling_2t", "ratio", true),
    layer("engine.tier_ran.folded", "count", true),
    layer("engine.tier_ran.scalar", "count", false),
    layer("engine.tier_ran.tape", "count", false),
    layer("engine.tier_ran.generic", "count", false),
    layer("ecm.pred_over_meas.plain", "ratio", false),
    layer("ecm.pred_over_meas.tuned", "ratio", false),
    layer("ecm.pred_over_meas.wavefront", "ratio", false),
    // ode-mem, ode-small.
    layer("ode.plan_build_us", "us", false),
    layer("ode.integrator_new_s", "s", false),
    layer("ode.step_s.A", "s", false),
    layer("ode.step_s.B", "s", false),
    layer("ode.step_s.D", "s", false),
    layer("ode.step_s.E", "s", false),
    layer("ode.sweeps_per_step.A", "count", false),
    layer("ode.sweeps_per_step.B", "count", false),
    layer("ode.sweeps_per_step.D", "count", false),
    layer("ode.sweeps_per_step.E", "count", false),
    layer("ode.step_efficiency", "ratio", true),
    layer("ode.per_sweep_overhead_us", "us", false),
    layer("ode_speedup_vs_naive", "ratio", true),
    layer("ode_pick_regret", "ratio", false),
    layer("offsite.tuned_params_ms", "ms", false),
    layer("offsite.predict_plan_us", "us", false),
    layer("offsite.pick_rank", "count", false),
    layer("ecm.pred_over_meas.ode_pick", "ratio", false),
    // tune-mix.
    layer("ecm.predict_us", "us", false),
    layer("core.space.candidates_us", "us", false),
    layer("core.space.candidates", "count", false),
    layer("core.cache.hit_us", "us", false),
    layer("core.cache.miss_us", "us", false),
    layer("core.cache.hit_ratio.cold", "ratio", true),
    layer("core.cache.hit_ratio.warm", "ratio", true),
    layer("core.tuner.model_evals", "count", false),
    layer("core.tuner.runs", "count", false),
    layer("core.trial.overhead_share", "ratio", false),
    layer("core.codegen_us", "us", false),
    layer("memsim.sim_sweep_s", "s", false),
    layer("memsim.accesses_per_s", "1/s", true),
    layer("telemetry.overhead_share.tune", "ratio", false),
    layer("telemetry.spans", "count", false),
    // serve-mix.
    layer("core.persist.append_us", "us", false),
    layer("core.persist.open_s", "s", false),
    layer("core.persist.compact_s", "s", false),
    layer("core.persist.journal_bytes", "B", false),
    layer("core.serve.handle_predict_us", "us", false),
    layer("core.serve.handle_predict_persist_us", "us", false),
    layer("core.serve.handle_tune_us", "us", false),
    layer("core.serve.handle_status_us", "us", false),
    layer("serve.socket_overhead_us", "us", false),
    layer("serve.predict_new_p50_ms", "ms", false),
    layer("serve.predict_repeat_p50_ms", "ms", false),
    layer("serve.status_p50_ms", "ms", false),
    layer("serve_predict_p99_ms", "ms", false),
    layer("serve.rps", "1/s", true),
    layer("serve.restart_s", "s", false),
    layer("telemetry.overhead_share.serve", "ratio", false),
];

fn better(m: &Metric) -> &'static str {
    if m.higher {
        "higher"
    } else {
        "lower"
    }
}

/// Renders `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n  \"command\": [");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    for (i, c) in command.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write_escaped(&mut s, c);
    }
    s.push_str("],\n  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!(
        "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    for (i, w) in WORKLOADS.iter().enumerate() {
        s.push_str("    {\"name\": ");
        write_escaped(&mut s, w.name);
        s.push_str(", \"why\": ");
        write_escaped(&mut s, w.why);
        s.push_str(if i + 1 < WORKLOADS.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            better(m),
            m.bound
        ));
        s.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            better(m)
        ));
        s.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
