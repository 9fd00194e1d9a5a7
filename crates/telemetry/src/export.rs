//! Exporters: turn recorded telemetry — span records, metrics snapshots
//! or a raw JSONL trace — into external formats.
//!
//! Three formats are supported, each consumable by standard tooling:
//!
//! * **chrome://tracing** ([`chrome_trace_from_spans`],
//!   [`chrome_trace_from_trace`]): the span tree as balanced `B`/`E`
//!   duration events inside a `{"traceEvents": [...]}` document.
//!   Overlapping spans (parallel workers) are spread across `tid` lanes
//!   so every lane keeps strict stack discipline and the global `ts`
//!   sequence stays monotonic.
//! * **Prometheus text exposition** ([`prometheus_text`],
//!   [`prometheus_from_trace`]): counters, gauges and histograms
//!   (cumulative `_bucket{le="..."}` series plus `_sum`/`_count`), with
//!   dotted metric names sanitised to the Prometheus charset. The
//!   trace-driven variant reconstructs the registry from the `metric`
//!   and `metric_bucket` summary events [`crate::Telemetry::finish`]
//!   appends, and renders byte-identically to the live snapshot.
//! * **Percentile summaries** ([`histogram_percentiles`],
//!   [`summary_from_trace`]): p50/p95/p99 estimates interpolated inside
//!   the fixed histogram buckets, clamped to the observed min/max.

use std::fmt::Write as _;

use crate::json::{self, write_escaped, Json};
use crate::metrics::{Histogram, MetricsSnapshot};
use crate::span::SpanRecord;
use crate::SCHEMA_VERSION;

/// Interpolated percentiles of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentileSummary {
    /// Total observations.
    pub count: u64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

/// Percentile estimates for `h`, or `None` when it is empty. Values are
/// linearly interpolated within the bucket containing the quantile and
/// clamped to the observed `[min, max]` range.
#[must_use]
pub fn histogram_percentiles(h: &Histogram) -> Option<PercentileSummary> {
    percentiles_from_buckets(h.bounds(), h.bucket_counts(), h.min(), h.max())
}

/// [`histogram_percentiles`] over raw bucket data (used when the
/// histogram is reconstructed from a trace rather than held live).
#[must_use]
pub fn percentiles_from_buckets(
    bounds: &[f64],
    counts: &[u64],
    min: Option<f64>,
    max: Option<f64>,
) -> Option<PercentileSummary> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let q = |q: f64| quantile(bounds, counts, min, max, total, q);
    Some(PercentileSummary {
        count: total,
        p50: q(0.50),
        p95: q(0.95),
        p99: q(0.99),
    })
}

fn quantile(
    bounds: &[f64],
    counts: &[u64],
    min: Option<f64>,
    max: Option<f64>,
    total: u64,
    q: f64,
) -> f64 {
    let target = q * total as f64;
    let mut cum = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let next = cum + c as f64;
        if c > 0 && next >= target {
            let lower = if i == 0 {
                min.unwrap_or(0.0)
                    .min(bounds.first().copied().unwrap_or(0.0))
            } else {
                bounds[i - 1]
            };
            let upper = if i < bounds.len() {
                bounds[i]
            } else {
                max.unwrap_or(lower)
            };
            let frac = ((target - cum) / c as f64).clamp(0.0, 1.0);
            let v = lower + (upper - lower) * frac;
            return match (min, max) {
                (Some(lo), Some(hi)) => v.clamp(lo, hi),
                _ => v,
            };
        }
        cum = next;
    }
    max.unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// chrome://tracing
// ---------------------------------------------------------------------------

/// A span as the chrome exporter sees it: name, absolute start and
/// duration (microseconds since the session epoch).
#[derive(Debug, Clone)]
struct RawSpan {
    name: String,
    start_us: u64,
    end_us: u64,
}

/// Renders closed spans as a chrome://tracing JSON document (open it via
/// `chrome://tracing` or <https://ui.perfetto.dev>). Every span becomes a
/// balanced `B`/`E` pair; spans that overlap in time without nesting are
/// assigned to separate `tid` lanes so each lane is a well-formed stack.
#[must_use]
pub fn chrome_trace_from_spans(records: &[SpanRecord]) -> String {
    let raw: Vec<RawSpan> = records
        .iter()
        .map(|r| RawSpan {
            name: r.name.to_string(),
            start_us: r.start_us,
            end_us: r.start_us.saturating_add(r.dur_us),
        })
        .collect();
    chrome_trace(raw)
}

/// [`chrome_trace_from_spans`] for a raw JSONL trace: pairs `span_open`
/// and `span_close` events by id and exports the resulting spans.
///
/// # Errors
/// Returns a message on unparseable lines, schema mismatches or closes
/// without a matching open.
pub fn chrome_trace_from_trace(text: &str) -> Result<String, String> {
    let mut open: Vec<(u64, String, u64)> = Vec::new(); // (id, name, start_us)
    let mut raw = Vec::new();
    for (lineno, line) in trace_lines(text) {
        let j = parse_trace_line(line, lineno)?;
        match j.get("ev").and_then(Json::as_str) {
            Some("span_open") => {
                let id = require_u64(&j, "id", "span_open", lineno)?;
                let name = require_str(&j, "name", "span_open", lineno)?.to_string();
                let t = require_u64(&j, "t_us", "span_open", lineno)?;
                open.push((id, name, t));
            }
            Some("span_close") => {
                let id = require_u64(&j, "id", "span_close", lineno)?;
                let pos = open
                    .iter()
                    .position(|(oid, _, _)| *oid == id)
                    .ok_or_else(|| format!("line {lineno}: span {id} closed without open"))?;
                let (_, name, start_us) = open.swap_remove(pos);
                let dur = require_u64(&j, "dur_us", "span_close", lineno)?;
                raw.push(RawSpan {
                    name,
                    start_us,
                    end_us: start_us.saturating_add(dur),
                });
            }
            _ => {}
        }
    }
    Ok(chrome_trace(raw))
}

fn chrome_trace(mut spans: Vec<RawSpan>) -> String {
    // Longest-first at equal start so an enclosing span precedes the
    // spans it contains.
    spans.sort_by(|a, b| {
        a.start_us
            .cmp(&b.start_us)
            .then_with(|| b.end_us.cmp(&a.end_us))
    });
    // Greedy lane assignment: a lane holds a stack of open intervals; a
    // span joins the first lane where, after retiring intervals that
    // ended before it starts, it is either alone or properly nested in
    // the innermost open interval.
    let mut lanes: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut placed: Vec<(usize, usize)> = Vec::with_capacity(spans.len()); // (lane, depth)
    for s in &spans {
        let mut slot = None;
        for (li, lane) in lanes.iter_mut().enumerate() {
            while lane.last().is_some_and(|&(_, end)| end <= s.start_us) {
                lane.pop();
            }
            let fits = match lane.last() {
                None => true,
                Some(&(start, end)) => start <= s.start_us && end >= s.end_us,
            };
            if fits {
                slot = Some((li, lane.len()));
                lane.push((s.start_us, s.end_us));
                break;
            }
        }
        placed.push(slot.unwrap_or_else(|| {
            lanes.push(vec![(s.start_us, s.end_us)]);
            (lanes.len() - 1, 0)
        }));
    }
    // One B and one E event per span; sort by (ts, E-before-B, depth) so
    // ties close inner spans before outer ones and open outer before
    // inner, keeping every lane's stack discipline intact.
    let mut events: Vec<(u64, u8, i64, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        let depth = placed[i].1 as i64;
        events.push((s.start_us, 1, depth, i));
        events.push((s.end_us, 0, -depth, i));
    }
    events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut out = String::from("{\"traceEvents\":[");
    for (n, &(ts, phase, _, i)) in events.iter().enumerate() {
        let s = &spans[i];
        let (lane, _) = placed[i];
        if n > 0 {
            out.push(',');
        }
        out.push_str("\n{\"ph\":\"");
        out.push(if phase == 1 { 'B' } else { 'E' });
        let _ = write!(
            out,
            "\",\"ts\":{ts},\"pid\":1,\"tid\":{},\"name\":",
            lane + 1
        );
        write_escaped(&mut out, &s.name);
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Maps a dotted metric name to the Prometheus charset: every character
/// outside `[a-zA-Z0-9_:]` becomes `_`, and a leading digit gains a `_`
/// prefix.
#[must_use]
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a metrics snapshot in the Prometheus text exposition format:
/// one `# TYPE` header per metric, cumulative `_bucket{le="..."}` series
/// (ending at `le="+Inf"`) plus `_sum` and `_count` for histograms.
#[must_use]
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, h) in &snap.histograms {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cum = 0u64;
        for (i, &c) in h.bucket_counts().iter().enumerate() {
            cum += c;
            if i < h.bounds().len() {
                let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", h.bounds()[i]);
            } else {
                let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {cum}");
            }
        }
        let _ = writeln!(out, "{n}_sum {}", h.sum());
        let _ = writeln!(out, "{n}_count {}", h.count());
    }
    out
}

/// One histogram reconstructed from a trace's `metric` + `metric_bucket`
/// summary events.
#[derive(Debug, Default, Clone)]
struct TraceHistogram {
    /// `(le label, cumulative count)` in emission order; the last entry
    /// is `("+Inf", total)`.
    buckets: Vec<(String, u64)>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Metrics reconstructed from the summary events of one trace.
#[derive(Debug, Default)]
struct TraceMetrics {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, TraceHistogram)>,
}

fn trace_metrics(text: &str) -> Result<TraceMetrics, String> {
    let mut m = TraceMetrics::default();
    for (lineno, line) in trace_lines(text) {
        let j = parse_trace_line(line, lineno)?;
        match j.get("ev").and_then(Json::as_str) {
            Some("metric") => {
                let kind = require_str(&j, "kind", "metric", lineno)?;
                let name = require_str(&j, "name", "metric", lineno)?.to_string();
                match kind {
                    "counter" => m
                        .counters
                        .push((name, require_u64(&j, "value", "metric", lineno)?)),
                    "gauge" => m
                        .gauges
                        .push((name, require_f64(&j, "value", "metric", lineno)?)),
                    "histogram" => m.histograms.push((
                        name,
                        TraceHistogram {
                            buckets: Vec::new(),
                            count: require_u64(&j, "count", "metric", lineno)?,
                            sum: require_f64(&j, "sum", "metric", lineno)?,
                            min: require_f64(&j, "min", "metric", lineno)?,
                            max: require_f64(&j, "max", "metric", lineno)?,
                        },
                    )),
                    other => return Err(format!("line {lineno}: unknown metric kind '{other}'")),
                }
            }
            Some("metric_bucket") => {
                let name = require_str(&j, "name", "metric_bucket", lineno)?;
                let le = require_str(&j, "le", "metric_bucket", lineno)?.to_string();
                let cum = require_u64(&j, "count", "metric_bucket", lineno)?;
                let h = m
                    .histograms
                    .iter_mut()
                    .find(|(n, _)| n == name)
                    .map(|(_, h)| h)
                    .ok_or_else(|| {
                        format!("line {lineno}: metric_bucket for unknown histogram '{name}'")
                    })?;
                h.buckets.push((le, cum));
            }
            _ => {}
        }
    }
    Ok(m)
}

/// Renders the Prometheus text exposition for a JSONL trace, using the
/// `metric` and `metric_bucket` summary events appended by
/// [`crate::Telemetry::finish`]. The output is byte-identical to
/// [`prometheus_text`] over the live snapshot the events were taken from.
///
/// # Errors
/// Returns a message on unparseable lines, schema mismatches or
/// malformed metric events.
pub fn prometheus_from_trace(text: &str) -> Result<String, String> {
    let m = trace_metrics(text)?;
    let mut out = String::new();
    for (name, v) in &m.counters {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in &m.gauges {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, h) in &m.histograms {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        for (le, cum) in &h.buckets {
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    Ok(out)
}

/// Renders a human-readable summary of a JSONL trace: event and span
/// statistics, counters, gauges and histogram percentiles.
///
/// # Errors
/// Returns a message on unparseable lines or schema mismatches.
pub fn summary_from_trace(text: &str) -> Result<String, String> {
    let stats = crate::check_trace(text)?;
    let m = trace_metrics(text)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} events, {} spans opened, {} closed",
        stats.events, stats.spans_opened, stats.spans_closed
    );
    for (name, v) in &m.counters {
        let _ = writeln!(out, "counter   {name:<32} {v}");
    }
    for (name, v) in &m.gauges {
        let _ = writeln!(out, "gauge     {name:<32} {v:.6}");
    }
    for (name, h) in &m.histograms {
        let (bounds, counts) = bucket_arrays(h);
        let pct = percentiles_from_buckets(
            &bounds,
            &counts,
            (h.min <= h.max).then_some(h.min),
            (h.min <= h.max).then_some(h.max),
        );
        match pct {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "histogram {name:<32} count={} p50={:.6} p95={:.6} p99={:.6}",
                    p.count, p.p50, p.p95, p.p99
                );
            }
            None => {
                let _ = writeln!(out, "histogram {name:<32} count=0");
            }
        }
    }
    Ok(out)
}

/// Converts a reconstructed histogram's cumulative `(le, count)` pairs
/// back to per-bucket bounds and counts (the `+Inf` entry becomes the
/// overflow bucket).
fn bucket_arrays(h: &TraceHistogram) -> (Vec<f64>, Vec<u64>) {
    let mut bounds = Vec::new();
    let mut counts = Vec::new();
    let mut prev = 0u64;
    for (le, cum) in &h.buckets {
        let c = cum.saturating_sub(prev);
        prev = *cum;
        if le == "+Inf" {
            counts.push(c);
        } else if let Ok(b) = le.parse::<f64>() {
            bounds.push(b);
            counts.push(c);
        }
    }
    if counts.len() == bounds.len() {
        counts.push(0); // no +Inf entry recorded: empty overflow bucket
    }
    (bounds, counts)
}

// ---------------------------------------------------------------------------
// Shared trace-line plumbing
// ---------------------------------------------------------------------------

/// Non-empty lines with their 1-based line numbers.
fn trace_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| !l.trim().is_empty())
}

/// Parses one trace line and checks the schema version.
fn parse_trace_line(line: &str, lineno: usize) -> Result<Json, String> {
    let j = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
    check_schema_version(&j, lineno)?;
    Ok(j)
}

/// Checks that parsed trace line `lineno` carries [`SCHEMA_VERSION`] in
/// its `"v"` field. The error wording ("trace schema mismatch") is
/// load-bearing: the CLI error classifier keys on it.
///
/// # Errors
/// Names the line and the version it has, or says it has none.
pub fn check_schema_version(j: &Json, lineno: usize) -> Result<(), String> {
    match j.get("v").and_then(Json::as_u64) {
        Some(v) if v == SCHEMA_VERSION => Ok(()),
        Some(v) => Err(format!(
            "trace schema mismatch: line {lineno} has version {v}, expected {SCHEMA_VERSION}"
        )),
        None => Err(format!(
            "trace schema mismatch: line {lineno} missing \"v\""
        )),
    }
}

fn require_u64(j: &Json, key: &str, ev: &str, lineno: usize) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {lineno}: {ev} without \"{key}\""))
}

fn require_f64(j: &Json, key: &str, ev: &str, lineno: usize) -> Result<f64, String> {
    match j.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        // write_f64 encodes non-finite observations as null.
        Some(Json::Null) => Ok(f64::NAN),
        _ => Err(format!("line {lineno}: {ev} without \"{key}\"")),
    }
}

fn require_str<'a>(j: &'a Json, key: &str, ev: &str, lineno: usize) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("line {lineno}: {ev} without \"{key}\""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, Telemetry};

    fn rec(id: u64, parent: u64, name: &'static str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn percentiles_interpolate_and_clamp() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 2.0, 3.0, 4.0, 5.0, 50.0] {
            h.observe(v);
        }
        let p = histogram_percentiles(&h).unwrap();
        assert_eq!(p.count, 6);
        assert!(p.p50 > 1.0 && p.p50 <= 10.0, "p50={}", p.p50);
        assert!(p.p95 > 10.0 && p.p95 <= 50.0, "p95={}", p.p95);
        assert!(p.p99 <= 50.0, "p99 clamped to observed max, {}", p.p99);
        assert!(histogram_percentiles(&Histogram::new(&[1.0])).is_none());
    }

    #[test]
    fn chrome_trace_is_balanced_with_monotonic_ts() {
        let records = vec![
            rec(1, 0, "tune_session", 0, 100),
            rec(2, 1, "rank", 5, 20),
            rec(3, 1, "trial", 30, 40),
            rec(4, 3, "predict", 31, 5),
            // Overlapping worker span: forced onto its own lane.
            rec(5, 1, "worker", 10, 60),
        ];
        let text = chrome_trace_from_spans(&records);
        let doc = json::parse(&text).unwrap();
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(evs)) => evs,
            other => panic!("expected traceEvents array, got {other:?}"),
        };
        assert_eq!(events.len(), records.len() * 2);
        // Monotonic ts and per-tid B/E stack discipline.
        let mut last_ts = 0;
        let mut stacks: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for e in events {
            let ts = e.get("ts").and_then(Json::as_u64).unwrap();
            assert!(ts >= last_ts, "ts went backwards");
            last_ts = ts;
            let tid = e.get("tid").and_then(Json::as_u64).unwrap();
            let depth = stacks.entry(tid).or_insert(0);
            match e.get("ph").and_then(Json::as_str).unwrap() {
                "B" => *depth += 1,
                "E" => {
                    assert!(*depth > 0, "E without matching B on tid {tid}");
                    *depth -= 1;
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(stacks.values().all(|&d| d == 0), "unbalanced B/E events");
    }

    #[test]
    fn chrome_trace_round_trips_from_jsonl() {
        let (tel, sink) = Telemetry::recording(Level::Debug);
        {
            let s = tel.span("root");
            let _c = s.child("inner");
        }
        tel.finish();
        let from_records = chrome_trace_from_spans(&tel.span_records());
        let from_trace = chrome_trace_from_trace(&sink.lines().join("\n")).unwrap();
        assert_eq!(from_records, from_trace);
    }

    #[test]
    fn prometheus_round_trips_every_metric_exactly_once() {
        let (tel, sink) = Telemetry::recording(Level::Debug);
        tel.add("tune.cache_hits", 5);
        tel.gauge("rank.chunk_imbalance", 0.125);
        tel.observe("trial.sample_seconds", 2.5e-4);
        tel.observe("trial.sample_seconds", 0.35);
        tel.observe("trial.sample_seconds", 1e9); // overflow bucket
        tel.finish();
        let live = prometheus_text(&tel.metrics_snapshot().unwrap());
        let replayed = prometheus_from_trace(&sink.lines().join("\n")).unwrap();
        assert_eq!(live, replayed, "trace replay must match the live snapshot");
        // Every series appears exactly once.
        for needle in [
            "# TYPE tune_cache_hits counter",
            "tune_cache_hits 5",
            "# TYPE rank_chunk_imbalance gauge",
            "rank_chunk_imbalance 0.125",
            "# TYPE trial_sample_seconds histogram",
            "trial_sample_seconds_bucket{le=\"+Inf\"} 3",
            "trial_sample_seconds_count 3",
        ] {
            assert_eq!(
                live.matches(needle).count(),
                1,
                "expected exactly one {needle:?} in:\n{live}"
            );
        }
        // Buckets are cumulative: the +Inf bucket equals the count.
        let inf_line = live.lines().find(|l| l.contains("le=\"+Inf\"")).unwrap();
        assert!(inf_line.ends_with(" 3"), "{inf_line}");
    }

    #[test]
    fn summary_reports_stats_and_percentiles() {
        let (tel, sink) = Telemetry::recording(Level::Debug);
        {
            let _s = tel.span("root");
        }
        tel.inc("tune.model_evals");
        for v in [1e-4, 2e-4, 3e-4, 5e-2] {
            tel.observe("trial.sample_seconds", v);
        }
        tel.finish();
        let text = summary_from_trace(&sink.lines().join("\n")).unwrap();
        assert!(text.contains("1 spans opened"), "{text}");
        assert!(text.contains("counter   tune.model_evals"), "{text}");
        assert!(text.contains("p50="), "{text}");
        assert!(text.contains("count=4"), "{text}");
    }

    #[test]
    fn schema_mismatch_is_reported() {
        let bad = "{\"v\":9,\"ev\":\"metric\",\"t_us\":0}";
        let err = prometheus_from_trace(bad).unwrap_err();
        assert!(err.contains("trace schema mismatch"), "{err}");
        let err = chrome_trace_from_trace(bad).unwrap_err();
        assert!(err.contains("trace schema mismatch"), "{err}");
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_metric_name("tune.cache_hits"), "tune_cache_hits");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
    }
}
