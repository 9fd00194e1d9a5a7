//! The repository's benchmark: five workloads over the sweep, ODE solve,
//! tune and daemon paths, end-to-end and per-layer metrics, correctness
//! checks, a span trace, and a comparison of two result sets.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark compare A/ B/
//! benchmark manifest
//! ```
//!
//! Every layer number is taken from outside, by timing calls into public
//! functions; the program under test carries no instrumentation for this.

mod clock;
mod compare;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{Budget, Env, Outcome};
use trace::Tracer;
use workloads::Ctx;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: an untraced pass, then a traced pass.
    trace: Option<bool>,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                if !spec::WORKLOADS.iter().any(|w| w.name == value) {
                    return Err(format!("unknown workload '{value}'"));
                }
                parsed.workload = Some(value.to_string());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?;
            }
            "--trace" => {
                parsed.trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                });
            }
            "--out" => parsed.out = PathBuf::from(value),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(parsed)
}

/// One pass of `workload` under `budget`; returns its outcome and wall.
fn pass(
    workload: &str,
    seed: u64,
    budget: Budget,
    tr: &Tracer,
    tmp: &Path,
    env: &Env,
) -> (Outcome, f64) {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    workloads::run(
        workload,
        &mut Ctx {
            seed,
            budget,
            tr,
            out: &mut out,
            tmp,
            nproc: env.nproc,
        },
    );
    let wall = t0.elapsed().as_secs_f64();
    if !out.clock_scales.is_empty() {
        let readings = out.clock_scales.len();
        let typical = stats::median(&out.clock_scales);
        out.metric("host.clock_scale", "ratio", typical, readings);
    }
    (out, wall)
}

/// Runs one workload in one mode and prints the driver line last.
fn run_one(workload: &str, args: &RunArgs, traced: bool, env: &Env) -> std::io::Result<bool> {
    std::fs::create_dir_all(&args.out)?;
    let tmp = args.out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp)?;
    println!(
        "== {workload}  seed {}  {}  nproc {}  L2 {} B  L3 {} B (as reported)  rev {}",
        args.seed,
        if traced { "traced" } else { "untraced" },
        env.nproc,
        env.l2_bytes,
        env.l3_bytes,
        env.git_rev
    );
    let out = if traced {
        // Same fixed work twice: the difference is the tracer's cost.
        let off = Tracer::new(false);
        let (plain, plain_wall) = pass(workload, args.seed, Budget::Typical, &off, &tmp, env);
        let tr = Tracer::new(true);
        let (mut out, wall) = pass(workload, args.seed, Budget::Typical, &tr, &tmp, env);
        out.absorb_counts(&plain);
        let layers = tr.layer_self_seconds();
        let covered: f64 = layers.values().sum();
        for layer in spec::LAYERS {
            let secs = layers.get(layer).copied().unwrap_or(0.0);
            out.metric(&format!("{layer}.self_s"), "s", secs, 0);
        }
        // The engine's share of what the program's own layers took (the
        // benchmark's generating and checking is not the program's time).
        let program = covered - layers.get("bench").copied().unwrap_or(0.0);
        let engine = layers.get("engine").copied().unwrap_or(0.0);
        out.metric(
            "engine.share",
            "ratio",
            engine / program.max(f64::MIN_POSITIVE),
            0,
        );
        out.metric("trace.coverage", "ratio", covered / wall, 0);
        out.metric("trace.wall_s", "s", wall, 1);
        out.metric("trace.spans", "count", tr.span_count() as f64, 0);
        // Set-up pays first-touch costs that differ between the first and
        // the second pass of a process, so the tracer's cost is read off
        // the measured loop, where the spans are.
        let loop_wall = |o: &Outcome| o.get("bench.loop_wall_s").unwrap_or(f64::NAN);
        let overhead = loop_wall(&out) / loop_wall(&plain) - 1.0;
        out.metric("trace.overhead_share", "ratio", overhead, 0);
        println!(
            "   traced vs untraced: measured loop {:.3} s vs {:.3} s (delta {:+.2} %), whole pass {wall:.3} s vs {plain_wall:.3} s",
            loop_wall(&out),
            loop_wall(&plain),
            overhead * 100.0
        );
        tr.write_jsonl(&args.out.join(format!("trace-{workload}.jsonl")))?;
        workloads::probes(
            workload,
            &mut Ctx {
                seed: args.seed,
                budget: Budget::Typical,
                tr: &off,
                out: &mut out,
                tmp: &tmp,
                nproc: env.nproc,
            },
        );
        out
    } else {
        pass(
            workload,
            args.seed,
            Budget::Seconds(args.seconds),
            &Tracer::new(false),
            &tmp,
            env,
        )
        .0
    };
    let _ = std::fs::remove_dir_all(&tmp);
    out.print_human(workload);
    report::append_result(
        &args.out,
        workload,
        args.seed,
        args.seconds,
        traced,
        env,
        &out,
    )?;
    let wanted: &[spec::Metric] = if traced {
        spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    println!("{}", out.driver_line(wanted));
    Ok(out.failed == 0)
}

fn run(args: &[String]) -> ExitCode {
    let args = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark run: {e}");
            return ExitCode::from(2);
        }
    };
    let env = Env::detect();
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut clean = true;
    for &traced in modes {
        for name in &names {
            match run_one(name, &args, traced, &env) {
                Ok(ok) => clean &= ok,
                Err(e) => {
                    eprintln!("benchmark run: {name}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark run: operations failed or outputs were wrong (see FAIL lines)");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("manifest") => {
            print!("{}", spec::manifest());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       benchmark compare A/ B/\n       benchmark manifest"
            );
            ExitCode::from(2)
        }
    }
}
