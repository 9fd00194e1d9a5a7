//! `benchmark compare A/ B/`: per (metric, workload) the two medians, the
//! ratio with its base, and a verdict against the metric's bound.

use std::path::Path;
use std::process::ExitCode;

use yasksite_telemetry::json::Json;

use crate::report::read_results;
use crate::spec::{Metric, END_TO_END, NAMED, WORKLOADS};
use crate::stats::{median, quantile};

/// Counts that must repeat exactly between two runs of one commit.
const EXACT_COUNTS: [&str; 7] = [
    "core.tuner.model_evals",
    "core.tuner.runs",
    "core.space.candidates",
    "ode.sweeps_per_step.A",
    "ode.sweeps_per_step.B",
    "ode.sweeps_per_step.D",
    "ode.sweeps_per_step.E",
];

fn values(runs: &[Json], traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| matches!(r.get("traced"), Some(Json::Bool(t)) if *t == traced))
        .filter_map(|r| {
            if metric == "failed_share" {
                r.get("failed_share")?.as_f64()
            } else {
                r.get("metrics")?.get(metric)?.get("value")?.as_f64()
            }
        })
        .collect()
}

/// Interquartile range over the median; 0 with fewer than two runs.
fn spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    (quantile(v, 0.75) - quantile(v, 0.25)) / median(v).abs().max(f64::MIN_POSITIVE)
}

fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    if m.name == "failed_share" {
        return if mb > 0.0 { "REGRESSED" } else { "PASS" };
    }
    let worse = if m.higher {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let noisy = spread(a).max(spread(b)) > m.bound;
    if noisy {
        // Wider than the bound: only a clean separation in B's favour
        // counts as a pass.
        let all_better = b
            .iter()
            .all(|y| a.iter().all(|x| if m.higher { y > x } else { y < x }));
        return if all_better { "PASS" } else { "UNRESOLVED" };
    }
    if worse > m.bound {
        "REGRESSED"
    } else {
        "PASS"
    }
}

pub fn compare(dir_a: &Path, dir_b: &Path) -> ExitCode {
    let mut regressed = 0;
    let mut unresolved = 0;
    let mut compared = 0;
    println!(
        "{:<11} {:<24} {:>14} {:>14} {:>9} {:>7} {:>5}/{:<5}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "bound", "nA", "nB"
    );
    for w in WORKLOADS {
        let (ra, rb) = (read_results(dir_a, w.name), read_results(dir_b, w.name));
        for m in END_TO_END.iter().chain(&NAMED) {
            let (a, b) = (values(&ra, false, m.name), values(&rb, false, m.name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let v = verdict(m, &a, &b);
            compared += 1;
            regressed += usize::from(v == "REGRESSED");
            unresolved += usize::from(v == "UNRESOLVED");
            let (ma, mb) = (median(&a), median(&b));
            // 0 / 0 (no failures on either side) reads as "unchanged".
            let ratio = if ma == mb { 1.0 } else { mb / ma };
            println!(
                "{:<11} {:<24} {:>14.6} {:>14.6} {:>9.4} {:>6.0}% {:>5}/{:<5}  {v}  ({} {}, base A)",
                w.name,
                m.name,
                ma,
                mb,
                ratio,
                m.bound * 100.0,
                a.len(),
                b.len(),
                m.unit,
                if m.higher { "higher is better" } else { "lower is better" },
            );
        }
        for name in EXACT_COUNTS {
            let (a, b) = (values(&ra, true, name), values(&rb, true, name));
            let (Some(x), Some(y)) = (a.first(), b.first()) else {
                continue;
            };
            if *x == 0.0 && *y == 0.0 {
                continue;
            }
            let same = a.iter().chain(&b).all(|v| v == x);
            compared += 1;
            regressed += usize::from(!same);
            println!(
                "{:<11} {:<24} {:>14} {:>14} {:>9} {:>7} {:>5}/{:<5}  {}  (count, must repeat exactly)",
                w.name,
                name,
                x,
                y,
                "",
                "exact",
                a.len(),
                b.len(),
                if same { "PASS" } else { "REGRESSED" }
            );
        }
    }
    println!("{compared} pairs compared: {regressed} REGRESSED, {unresolved} UNRESOLVED");
    if compared == 0 {
        eprintln!("benchmark compare: no metric is present in both result sets");
        return ExitCode::from(2);
    }
    if regressed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
