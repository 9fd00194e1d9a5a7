//! `yasksite report`: renders a recorded JSONL telemetry trace as a
//! human-readable performance report.
//!
//! The report reads the trace the tuner wrote via `--trace-out` (with
//! `--profile` for the profiler sections) and renders six views:
//!
//! 1. **Phase breakdown** — the winner's `profile` events (compile /
//!    sweep / wavefront plus the chunk and plane aggregates); when the
//!    trace carries no profiler events, the span tree's per-name totals
//!    stand in so unprofiled traces still report something useful.
//! 2. **Winner** — the tuner's `winner` event: the chosen parameters and
//!    the execution tier they compile to, with the tier's reason and a
//!    `[degraded]` marker when the kernel fell off the fast path.
//! 3. **Pool utilization** — the `profile_pool` event: worker count,
//!    sweeps, jobs, occupancy and chunk imbalance.
//! 4. **Drift table** — every `drift` event rebuilt into a
//!    [`DriftLedger`] and rendered with per-stencil percentiles and
//!    model-suspect flags.
//! 5. **Calibration** — `calibrate_start` / `probe` events from a
//!    `yasksite calibrate --trace-out` recording: the per-probe evidence
//!    table (value, sample counts, rejected outliers, provenance).
//! 6. **Regressions vs a baseline** — when a second trace is supplied,
//!    phases that got slower, worst first.
//!
//! Pure text-in/text-out (the CLI owns the file I/O), which keeps it
//! testable without touching the filesystem.

use std::fmt::Write as _;

use yasksite_telemetry::json::{self, Json};

use crate::drift::{DriftLedger, DriftRecord};

/// Everything the report extracts from one trace.
#[derive(Debug, Default)]
struct TraceDigest {
    /// `(phase, seconds, count)` from `profile` events, first-seen order.
    phases: Vec<(String, f64, u64)>,
    /// `(workers, sweeps, jobs, occupancy, chunk_imbalance)` from the
    /// last `profile_pool` event.
    pool: Option<(u64, u64, u64, f64, f64)>,
    /// `(params, mlups, tier, tier_reason, degraded)` from the last
    /// `winner` event.
    winner: Option<(String, f64, String, String, bool)>,
    /// Rebuilt drift ledger from `drift` events.
    drift: DriftLedger,
    /// `(name, value)` gauges from the final metrics flush.
    gauges: Vec<(String, f64)>,
    /// `(span name, total seconds, count)` aggregated from `span_close`.
    spans: Vec<(String, f64, u64)>,
    /// `(seed, mode)` from the last `calibrate_start` event.
    calibrate_run: Option<(u64, String)>,
    /// `(name, unit, value, samples, rejected, provenance)` from `probe`
    /// events, in trace order.
    probes: Vec<(String, String, f64, u64, u64, String)>,
    /// Lines that were not valid JSON (truncated tail of a crashed run,
    /// torn concurrent write) — skipped rather than failing the report.
    skipped: usize,
}

fn field_f64(j: &Json, key: &str) -> Option<f64> {
    j.get(key).and_then(Json::as_f64)
}

fn field_u64(j: &Json, key: &str) -> Option<u64> {
    j.get(key).and_then(Json::as_u64)
}

fn field_str<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
    j.get(key).and_then(Json::as_str)
}

fn digest(trace: &str) -> Result<TraceDigest, String> {
    let mut d = TraceDigest::default();
    for (idx, line) in trace.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        // A crash (or a kill signal mid-write) can leave a truncated
        // final line; a report over the surviving prefix is far more
        // useful than an error, so unparsable lines are skipped and
        // counted. Lines that *do* parse but carry the wrong schema
        // version still fail hard below — that is a real mismatch, not
        // damage.
        let Ok(j) = json::parse(line) else {
            d.skipped += 1;
            continue;
        };
        yasksite_telemetry::check_schema_version(&j, lineno)?;
        let Some(ev) = j.get("ev").and_then(Json::as_str) else {
            return Err(format!("line {lineno}: missing \"ev\""));
        };
        match ev {
            "profile" => {
                let phase = field_str(&j, "phase").unwrap_or("?").to_string();
                let seconds = field_f64(&j, "seconds").unwrap_or(0.0);
                let count = field_u64(&j, "count").unwrap_or(0);
                match d.phases.iter_mut().find(|(n, _, _)| *n == phase) {
                    Some((_, s, c)) => {
                        *s += seconds;
                        *c += count;
                    }
                    None => d.phases.push((phase, seconds, count)),
                }
            }
            "profile_pool" => {
                d.pool = Some((
                    field_u64(&j, "workers").unwrap_or(0),
                    field_u64(&j, "sweeps").unwrap_or(0),
                    field_u64(&j, "jobs").unwrap_or(0),
                    field_f64(&j, "occupancy").unwrap_or(0.0),
                    field_f64(&j, "chunk_imbalance").unwrap_or(0.0),
                ));
            }
            "winner" => {
                d.winner = Some((
                    field_str(&j, "params").unwrap_or("?").to_string(),
                    field_f64(&j, "best_score_mlups").unwrap_or(0.0),
                    field_str(&j, "tier").unwrap_or("?").to_string(),
                    field_str(&j, "tier_reason").unwrap_or("?").to_string(),
                    matches!(j.get("degraded"), Some(Json::Bool(true))),
                ));
            }
            "drift" => {
                d.drift.push(DriftRecord {
                    stencil: field_str(&j, "stencil").unwrap_or("?").to_string(),
                    params: field_str(&j, "params").unwrap_or("?").to_string(),
                    cores: field_u64(&j, "cores").unwrap_or(0) as usize,
                    // Traces recorded before tier attribution carry no
                    // tier field; "?" keeps their rows renderable.
                    tier: field_str(&j, "tier").unwrap_or("?").to_string(),
                    predicted_mlups: field_f64(&j, "predicted_mlups").unwrap_or(0.0),
                    measured_mlups: field_f64(&j, "measured_mlups").unwrap_or(0.0),
                });
            }
            "calibrate_start" => {
                d.calibrate_run = Some((
                    field_u64(&j, "seed").unwrap_or(0),
                    field_str(&j, "mode").unwrap_or("?").to_string(),
                ));
            }
            "probe" => {
                d.probes.push((
                    field_str(&j, "name").unwrap_or("?").to_string(),
                    field_str(&j, "unit").unwrap_or("?").to_string(),
                    field_f64(&j, "value").unwrap_or(0.0),
                    field_u64(&j, "samples").unwrap_or(0),
                    field_u64(&j, "rejected").unwrap_or(0),
                    field_str(&j, "provenance").unwrap_or("?").to_string(),
                ));
            }
            "metric" if field_str(&j, "kind") == Some("gauge") => {
                if let (Some(name), Some(value)) = (field_str(&j, "name"), field_f64(&j, "value")) {
                    d.gauges.push((name.to_string(), value));
                }
            }
            "span_close" => {
                let name = field_str(&j, "name").unwrap_or("?").to_string();
                let seconds = field_f64(&j, "dur_us").unwrap_or(0.0) / 1e6;
                match d.spans.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, s, c)) => {
                        *s += seconds;
                        *c += 1;
                    }
                    None => d.spans.push((name, seconds, 1)),
                }
            }
            _ => {}
        }
    }
    Ok(d)
}

fn render_phase_table(out: &mut String, rows: &[(String, f64, u64)]) {
    let total: f64 = rows.iter().map(|(_, s, _)| s).sum();
    let _ = writeln!(
        out,
        "  {:<12} {:>12} {:>8} {:>7}",
        "phase", "seconds", "count", "share"
    );
    for (name, seconds, count) in rows {
        let share = if total > 0.0 {
            seconds / total * 100.0
        } else {
            0.0
        };
        let _ = writeln!(out, "  {name:<12} {seconds:>12.6} {count:>8} {share:>6.1}%");
    }
}

/// Renders `trace` (a JSONL telemetry trace) as the performance report;
/// with `baseline` (a second trace), appends the top phase regressions.
///
/// Lines that are not valid JSON — the truncated tail a crash or kill
/// signal leaves behind — are skipped and surfaced as a counted warning
/// in the report rather than failing it.
///
/// # Errors
/// Returns a message naming the offending line for a parsable line with
/// an unsupported schema version ("trace schema mismatch: ...").
pub fn render_report(trace: &str, baseline: Option<&str>) -> Result<String, String> {
    let d = digest(trace)?;
    let base = baseline.map(digest).transpose()?;
    let mut out = String::from("yasksite report\n===============\n\n");

    if d.skipped > 0 {
        let _ = writeln!(
            out,
            "warning: skipped {} unparsable line(s) in the trace (truncated by a crash?)\n",
            d.skipped
        );
    }
    if let Some(b) = &base {
        if b.skipped > 0 {
            let _ = writeln!(
                out,
                "warning: skipped {} unparsable line(s) in the baseline trace\n",
                b.skipped
            );
        }
    }

    out.push_str("phase breakdown:\n");
    if d.phases.is_empty() {
        if d.spans.is_empty() {
            out.push_str("  (no profile events and no spans in this trace — run the tune with --profile and --trace-out)\n");
        } else {
            out.push_str("  (no profile events; falling back to span totals)\n");
            render_phase_table(&mut out, &d.spans);
        }
    } else {
        render_phase_table(&mut out, &d.phases);
    }

    if let Some((params, mlups, tier, reason, degraded)) = &d.winner {
        out.push_str("\nwinner:\n");
        let _ = writeln!(out, "  {params}  ({mlups:.0} MLUP/s)");
        let _ = writeln!(
            out,
            "  tier: {tier} — {reason}{}",
            if *degraded { "  [degraded]" } else { "" }
        );
    }

    out.push_str("\npool utilization:\n");
    match d.pool {
        Some((workers, sweeps, jobs, occupancy, imbalance)) => {
            let _ = writeln!(
                out,
                "  {workers} workers, {sweeps} sweeps, {jobs} jobs, occupancy {occupancy:.3}, chunk imbalance {imbalance:.3}"
            );
        }
        None => out.push_str("  (no profile_pool event in this trace)\n"),
    }

    out.push_str("\ndrift:\n");
    for line in d.drift.render_table().lines() {
        let _ = writeln!(out, "  {line}");
    }

    if d.calibrate_run.is_some() || !d.probes.is_empty() {
        out.push_str("\ncalibration:\n");
        if let Some((seed, mode)) = &d.calibrate_run {
            let _ = writeln!(out, "  {mode} run, seed {seed}");
        }
        if d.probes.is_empty() {
            out.push_str("  (no probe events in this trace)\n");
        } else {
            let _ = writeln!(
                out,
                "  {:<18} {:>8} {:>14} {:>8} {:>9}  provenance",
                "probe", "unit", "value", "samples", "rejected"
            );
            for (name, unit, value, samples, rejected, prov) in &d.probes {
                let _ = writeln!(
                    out,
                    "  {name:<18} {unit:>8} {value:>14.3} {samples:>8} {rejected:>9}  {prov}"
                );
            }
        }
    }

    let wanted = ["profile.mlups", "profile.bytes_per_lup"];
    let shown: Vec<&(String, f64)> = d
        .gauges
        .iter()
        .filter(|(n, _)| wanted.contains(&n.as_str()))
        .collect();
    if !shown.is_empty() {
        out.push_str("\nwinner throughput:\n");
        for (name, value) in shown {
            let _ = writeln!(out, "  {name} = {value:.3}");
        }
    }

    if let Some(b) = base {
        out.push_str("\nregressions vs baseline:\n");
        let base_rows = if b.phases.is_empty() {
            &b.spans
        } else {
            &b.phases
        };
        let cur_rows = if d.phases.is_empty() {
            &d.spans
        } else {
            &d.phases
        };
        let mut regressions: Vec<(String, f64, f64, f64)> = Vec::new();
        for (name, seconds, _) in cur_rows {
            if let Some((_, base_seconds, _)) = base_rows.iter().find(|(n, _, _)| n == name) {
                if *base_seconds > 0.0 && *seconds > *base_seconds {
                    regressions.push((
                        name.clone(),
                        seconds / base_seconds,
                        *base_seconds,
                        *seconds,
                    ));
                }
            }
        }
        regressions.sort_by(|a, b| b.1.total_cmp(&a.1));
        if regressions.is_empty() {
            out.push_str("  none — no phase is slower than the baseline\n");
        } else {
            for (name, ratio, was, now) in regressions.iter().take(10) {
                let _ = writeln!(out, "  {name}: {ratio:.2}x slower ({was:.6}s -> {now:.6}s)");
            }
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> String {
        format!("{s}\n")
    }

    fn profiled_trace() -> String {
        let mut t = String::new();
        t += &line(r#"{"v":1,"ev":"span_open","t_us":0,"id":1,"parent":0,"name":"tune_session"}"#);
        t += &line(
            r#"{"v":1,"ev":"profile","t_us":10,"span":1,"level":"info","phase":"compile","seconds":0.001,"count":1}"#,
        );
        t += &line(
            r#"{"v":1,"ev":"profile","t_us":11,"span":1,"level":"info","phase":"sweep","seconds":0.009,"count":1}"#,
        );
        t += &line(
            r#"{"v":1,"ev":"profile_pool","t_us":12,"span":1,"level":"info","workers":4,"sweeps":2,"jobs":8,"occupancy":1.0,"chunk_imbalance":0.25}"#,
        );
        t += &line(
            r#"{"v":1,"ev":"drift","t_us":13,"span":1,"level":"info","stencil":"heat-3d","params":"b=8x8x8 t=1","cores":1,"tier":"folded","predicted_mlups":100.0,"measured_mlups":90.0,"drift":-0.1}"#,
        );
        t += &line(
            r#"{"v":1,"ev":"metric","t_us":14,"span":0,"level":"error","kind":"gauge","name":"profile.mlups","value":90.0}"#,
        );
        t += &line(
            r#"{"v":1,"ev":"winner","t_us":15,"span":1,"level":"info","params":"b=8x8x8 t=1","best_score_mlups":90.0,"tier":"folded","tier_reason":"fold matches machine lanes","degraded":false}"#,
        );
        t += &line(
            r#"{"v":1,"ev":"span_close","t_us":20,"id":1,"dur_us":20,"name":"tune_session"}"#,
        );
        t
    }

    #[test]
    fn report_renders_all_sections() {
        let r = render_report(&profiled_trace(), None).unwrap();
        assert!(r.contains("phase breakdown:"), "{r}");
        assert!(r.contains("compile"), "{r}");
        assert!(r.contains("sweep"), "{r}");
        assert!(r.contains("90.0%"), "sweep is 9/10 of phase time: {r}");
        assert!(r.contains("4 workers, 2 sweeps, 8 jobs"), "{r}");
        assert!(r.contains("occupancy 1.000"), "{r}");
        assert!(r.contains("heat-3d"), "{r}");
        assert!(r.contains("profile.mlups = 90.000"), "{r}");
    }

    #[test]
    fn winner_section_names_the_tier() {
        let r = render_report(&profiled_trace(), None).unwrap();
        assert!(r.contains("winner:"), "{r}");
        assert!(r.contains("b=8x8x8 t=1  (90 MLUP/s)"), "{r}");
        assert!(
            r.contains("tier: folded — fold matches machine lanes"),
            "{r}"
        );
        assert!(!r.contains("[degraded]"), "{r}");

        let degraded = profiled_trace()
            .replace(r#""tier":"folded""#, r#""tier":"scalar""#)
            .replace(r#""degraded":false"#, r#""degraded":true"#);
        let r = render_report(&degraded, None).unwrap();
        assert!(r.contains("tier: scalar"), "{r}");
        assert!(r.contains("[degraded]"), "{r}");

        // Traces without a winner event (old recordings) skip the
        // section rather than inventing one.
        let r = render_report(
            r#"{"v":1,"ev":"span_open","t_us":0,"id":1,"parent":0,"name":"s"}"#,
            None,
        )
        .unwrap();
        assert!(!r.contains("winner:"), "{r}");
    }

    #[test]
    fn drift_rows_name_the_executing_tier() {
        let r = render_report(&profiled_trace(), None).unwrap();
        let row = r
            .lines()
            .find(|l| l.contains("heat-3d"))
            .expect("drift row present");
        assert!(row.contains("folded"), "tier column in the drift row: {r}");

        // Traces recorded before tier attribution still render, with the
        // tier column showing "?".
        let legacy = profiled_trace().replace(
            r#""tier":"folded","predicted_mlups""#,
            r#""predicted_mlups""#,
        );
        let r = render_report(&legacy, None).unwrap();
        let row = r
            .lines()
            .find(|l| l.contains("heat-3d"))
            .expect("drift row present");
        assert!(row.contains('?'), "unknown tier renders as ?: {r}");
    }

    #[test]
    fn calibration_section_renders_the_probe_evidence() {
        let mut t = String::new();
        t += &line(r#"{"v":1,"ev":"span_open","t_us":0,"id":1,"parent":0,"name":"calibrate"}"#);
        t += &line(
            r#"{"v":1,"ev":"calibrate_start","t_us":1,"span":1,"level":"info","seed":7,"probes":7,"mode":"synthetic","quick":1}"#,
        );
        t += &line(
            r#"{"v":1,"ev":"probe","t_us":2,"span":2,"level":"info","name":"fma_gflops","unit":"gflops","value":43.2,"samples":5,"rejected":1,"ci_low":42.0,"ci_high":44.0,"provenance":"measured"}"#,
        );
        t += &line(
            r#"{"v":1,"ev":"probe","t_us":3,"span":3,"level":"info","name":"mem_gbs","unit":"gbs","value":20.0,"samples":0,"rejected":0,"ci_low":20.0,"ci_high":20.0,"provenance":"fallback:all samples failed"}"#,
        );
        t += &line(r#"{"v":1,"ev":"span_close","t_us":9,"id":1,"dur_us":9,"name":"calibrate"}"#);
        let r = render_report(&t, None).unwrap();
        assert!(r.contains("calibration:"), "{r}");
        assert!(r.contains("synthetic run, seed 7"), "{r}");
        assert!(r.contains("fma_gflops"), "{r}");
        assert!(r.contains("43.200"), "{r}");
        assert!(r.contains("fallback:all samples failed"), "{r}");

        // A tune trace without calibrate events skips the section.
        let r = render_report(&profiled_trace(), None).unwrap();
        assert!(!r.contains("calibration:"), "{r}");
    }

    #[test]
    fn unprofiled_trace_falls_back_to_spans() {
        let mut t = String::new();
        t += &line(r#"{"v":1,"ev":"span_open","t_us":0,"id":1,"parent":0,"name":"tune_session"}"#);
        t += &line(
            r#"{"v":1,"ev":"span_close","t_us":500,"id":1,"dur_us":500,"name":"tune_session"}"#,
        );
        let r = render_report(&t, None).unwrap();
        assert!(r.contains("falling back to span totals"), "{r}");
        assert!(r.contains("tune_session"), "{r}");
        assert!(r.contains("no profile_pool event"), "{r}");
        assert!(r.contains("no measured trials"), "{r}");
    }

    #[test]
    fn baseline_comparison_lists_regressions_worst_first() {
        let cur = profiled_trace();
        let base = cur
            .replace(
                r#""phase":"sweep","seconds":0.009"#,
                r#""phase":"sweep","seconds":0.003"#,
            )
            .replace(
                r#""phase":"compile","seconds":0.001"#,
                r#""phase":"compile","seconds":0.0005"#,
            );
        let r = render_report(&cur, Some(&base)).unwrap();
        assert!(r.contains("regressions vs baseline:"), "{r}");
        let sweep_pos = r.find("sweep: 3.00x slower").expect(&r);
        let compile_pos = r.find("compile: 2.00x slower").expect(&r);
        assert!(sweep_pos < compile_pos, "worst regression first: {r}");
    }

    #[test]
    fn baseline_with_no_regressions_says_so() {
        let t = profiled_trace();
        let r = render_report(&t, Some(&t)).unwrap();
        assert!(r.contains("none — no phase is slower"), "{r}");
    }

    #[test]
    fn schema_mismatch_is_reported() {
        let bad = r#"{"v":2,"ev":"x","t_us":0}"#;
        let e = render_report(bad, None).unwrap_err();
        assert!(e.contains("trace schema mismatch"), "{e}");
        assert!(e.contains("version 2"), "{e}");
        let missing = r#"{"ev":"x","t_us":0}"#;
        let e = render_report(missing, None).unwrap_err();
        assert!(e.contains("missing \"v\""), "{e}");
    }

    #[test]
    fn truncated_lines_are_skipped_with_a_counted_warning() {
        // A crash mid-write leaves a torn final line; the report covers
        // the surviving prefix and says what it dropped.
        let mut t = profiled_trace();
        t += r#"{"v":1,"ev":"profile","t_us":30,"span":1,"level":"info","phase":"swe"#;
        let r = render_report(&t, None).unwrap();
        assert!(r.contains("skipped 1 unparsable line(s)"), "{r}");
        assert!(r.contains("compile"), "prefix still reported: {r}");
        assert!(r.contains("4 workers"), "{r}");

        // Pure garbage is all skipped, never an error.
        let r = render_report("not json\nalso not json", None).unwrap();
        assert!(r.contains("skipped 2 unparsable line(s)"), "{r}");

        // The baseline trace gets the same tolerance, reported
        // separately.
        let cur = profiled_trace();
        let base = format!("{cur}garbage tail");
        let r = render_report(&cur, Some(&base)).unwrap();
        assert!(
            r.contains("skipped 1 unparsable line(s) in the baseline"),
            "{r}"
        );
    }
}
