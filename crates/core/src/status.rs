//! Daemon status snapshots: schema-v1 JSON, the Prometheus text
//! exposition, `trace_check`-style validators, and the `yasksite top`
//! terminal rendering.
//!
//! [`StatusSnapshot`] is plain data the daemon assembles from its
//! rolling windows ([`yasksite_telemetry::RollingHistogram`]) and
//! lifetime counters. Everything downstream — the `status` protocol
//! response, the `status.json` file dropped into the state directory,
//! the Prometheus exposition, the `yasksite top` view and the CI
//! validators — renders from this one struct, so the JSON and
//! Prometheus forms can never disagree about the numbers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use yasksite_telemetry::json::{Json, ObjectWriter};
use yasksite_telemetry::sanitize_metric_name;

/// Version of the `status` snapshot schema. Bumped whenever a field is
/// removed or changes meaning; additions are backwards-compatible.
pub const STATUS_SCHEMA_VERSION: u64 = 1;

/// Content type of the Prometheus text exposition the daemon emits.
pub const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Rolling-window latency digest of one request kind (or one tenant):
/// sample count, sum and interpolated percentiles, all in milliseconds
/// over the snapshot's window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyDigest {
    /// Observations inside the window.
    pub count: u64,
    /// Sum of the observations (milliseconds).
    pub sum: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl LatencyDigest {
    /// Mean latency over the window (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One tenant's lifetime consumption, for the budget-burn column of
/// `yasksite top`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TenantUsage {
    /// Measurement runs charged so far.
    pub runs: usize,
    /// Target seconds charged so far.
    pub seconds: f64,
}

/// Calibration provenance of the machine model a daemon serves with,
/// lifted from the model's [`yasksite_arch::CalibrationProvenance`]
/// block plus the age of the calibrated machine file.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationStatus {
    /// Calibrator revision that produced the model.
    pub rev: String,
    /// Seed of the calibration run.
    pub seed: u64,
    /// UTC date of the calibration run, `YYYY-MM-DD`.
    pub date: String,
    /// Micro-benchmark probes the provenance block carries.
    pub probes: usize,
    /// Seconds since the calibrated machine file was written.
    pub age_secs: f64,
}

/// Point-in-time view of a running daemon: lifetime counters plus
/// rolling-window latency digests. Produced by
/// [`crate::ServeState::status_snapshot`], rendered by
/// [`StatusSnapshot::to_json_response`] and
/// [`StatusSnapshot::to_prometheus`].
#[derive(Debug, Clone, Default)]
pub struct StatusSnapshot {
    /// Seconds since the daemon state was built.
    pub uptime_secs: f64,
    /// Width of the rolling window the latency digests cover.
    pub window_secs: f64,
    /// Requests accepted but not yet processed.
    pub queue_depth: usize,
    /// Bound on the request queue.
    pub queue_capacity: usize,
    /// Requests that reached the protocol handler.
    pub received: usize,
    /// Requests answered `"ok":true`.
    pub completed: usize,
    /// Requests rejected because the queue was full.
    pub rejected_overload: usize,
    /// Requests rejected by tenant admission control.
    pub rejected_budget: usize,
    /// Requests answered `"ok":false` for any other reason.
    pub rejected_bad: usize,
    /// Sessions degraded to analytic after a worker panic.
    pub degraded: usize,
    /// Journal appends or snapshots that failed.
    pub persist_errors: usize,
    /// Requests per second over the rolling window.
    pub rate_per_sec: f64,
    /// Entries in the shared prediction cache.
    pub cache_entries: usize,
    /// Records in the daemon's drift ledger.
    pub drift_records: usize,
    /// Stencils the ledger flags model-SUSPECT.
    pub drift_suspects: usize,
    /// Drift records evicted by the bounded ledger.
    pub drift_evictions: usize,
    /// Drift-ledger keys currently SUSPECT and therefore carrying a
    /// fitted model correction (see
    /// [`crate::DriftLedger::per_key_corrections`]).
    pub corrected_keys: usize,
    /// Calibration provenance of the served machine model (`None` when
    /// the daemon runs on a builtin, uncalibrated model).
    pub calibration: Option<CalibrationStatus>,
    /// Distinct tenants served.
    pub tenants: usize,
    /// Head-sampling budget (`--trace-sample`); `None` traces everything.
    pub trace_sample: Option<u64>,
    /// Queue-wait digest per request kind.
    pub queue_wait_ms: BTreeMap<String, LatencyDigest>,
    /// Service-time digest per request kind.
    pub service_ms: BTreeMap<String, LatencyDigest>,
    /// End-to-end (queue wait + service) digest per request kind.
    pub e2e_ms: BTreeMap<String, LatencyDigest>,
    /// End-to-end digest per tenant (tune requests only).
    pub tenant_e2e_ms: BTreeMap<String, LatencyDigest>,
    /// Tuning sessions per winning execution tier.
    pub tier_ran: BTreeMap<String, u64>,
    /// Tuning sessions whose winner ran degraded, keyed by the planner's
    /// reason string.
    pub tier_degraded: BTreeMap<String, u64>,
    /// Lifetime budget burn per tenant.
    pub tenant_use: BTreeMap<String, TenantUsage>,
    /// Worker threads of the shared execution pool.
    pub pool_workers: usize,
    /// Batches the pool has dispatched.
    pub pool_sweeps: u64,
    /// Jobs the pool workers have executed.
    pub pool_jobs: u64,
    /// Whether the persistent store is healthy (`None` when serving from
    /// memory only).
    pub store_healthy: Option<bool>,
}

/// One latency digest map as a nested object: kind (or tenant) → digest.
fn digests(o: ObjectWriter, map: &BTreeMap<String, LatencyDigest>) -> ObjectWriter {
    map.iter().fold(o, |o, (kind, d)| {
        o.object(kind, |o| {
            o.uint("count", d.count)
                .num("p50", d.p50)
                .num("p95", d.p95)
                .num("p99", d.p99)
                .num("mean", d.mean())
        })
    })
}

fn counts(o: ObjectWriter, map: &BTreeMap<String, u64>) -> ObjectWriter {
    map.iter().fold(o, |o, (k, v)| o.uint(k, *v))
}

impl StatusSnapshot {
    /// Renders the complete schema-v1 `status` response line (also the
    /// body of the `status.json` file in the state directory).
    #[must_use]
    pub fn to_json_response(&self, id: &str) -> String {
        let mut o = ObjectWriter::with_capacity(1024)
            .str("id", id)
            .bool("ok", true)
            .str("op", "status")
            .uint("schema", STATUS_SCHEMA_VERSION)
            .num("uptime_secs", self.uptime_secs)
            .num("window_secs", self.window_secs)
            .uint("queue_depth", self.queue_depth as u64)
            .uint("queue_capacity", self.queue_capacity as u64)
            .uint("received", self.received as u64)
            .uint("completed", self.completed as u64)
            .uint("rejected_overload", self.rejected_overload as u64)
            .uint("rejected_budget", self.rejected_budget as u64)
            .uint("rejected_bad", self.rejected_bad as u64)
            .uint("degraded", self.degraded as u64)
            .uint("persist_errors", self.persist_errors as u64)
            .num("rate_per_sec", self.rate_per_sec)
            .uint("cache_entries", self.cache_entries as u64)
            .uint("drift_records", self.drift_records as u64)
            .uint("drift_suspects", self.drift_suspects as u64)
            .uint("drift_evictions", self.drift_evictions as u64)
            .uint("corrected_keys", self.corrected_keys as u64)
            .uint("tenants", self.tenants as u64);
        if let Some(n) = self.trace_sample {
            o = o.uint("trace_sample", n);
        }
        o = o
            .object("queue_wait_ms", |o| digests(o, &self.queue_wait_ms))
            .object("service_ms", |o| digests(o, &self.service_ms))
            .object("latency_ms", |o| digests(o, &self.e2e_ms))
            .object("tenant_latency_ms", |o| digests(o, &self.tenant_e2e_ms))
            .object("tier_ran", |o| counts(o, &self.tier_ran))
            .object("tier_degraded", |o| counts(o, &self.tier_degraded))
            .object("tenant_use", |o| {
                self.tenant_use.iter().fold(o, |o, (tenant, u)| {
                    o.object(tenant, |o| {
                        o.uint("runs", u.runs as u64).num("seconds", u.seconds)
                    })
                })
            })
            .object("pool", |o| {
                o.uint("workers", self.pool_workers as u64)
                    .uint("sweeps", self.pool_sweeps)
                    .uint("jobs", self.pool_jobs)
            });
        if let Some(c) = &self.calibration {
            o = o.object("calibration", |o| {
                o.str("rev", &c.rev)
                    .uint("seed", c.seed)
                    .str("date", &c.date)
                    .uint("probes", c.probes as u64)
                    .num("age_secs", c.age_secs)
            });
        }
        if let Some(h) = self.store_healthy {
            o = o.bool("store_healthy", h);
        }
        o.finish()
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (content type [`PROM_CONTENT_TYPE`]): counters and gauges for the
    /// lifetime numbers, one `summary` family per latency digest with
    /// `kind`/`tenant` labels, and labelled tier-mix counters.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let gauge = |out: &mut String, name: &str, v: f64| {
            let n = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = write!(out, "{n} ");
            if v.is_finite() {
                let _ = writeln!(out, "{v}");
            } else {
                let _ = writeln!(out, "0");
            }
        };
        let counter = |out: &mut String, name: &str, v: u64| {
            let n = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        };
        gauge(&mut out, "yasksite_up", 1.0);
        gauge(&mut out, "yasksite_uptime_seconds", self.uptime_secs);
        gauge(&mut out, "yasksite_status_window_seconds", self.window_secs);
        gauge(&mut out, "yasksite_queue_depth", self.queue_depth as f64);
        gauge(
            &mut out,
            "yasksite_queue_capacity",
            self.queue_capacity as f64,
        );
        counter(
            &mut out,
            "yasksite_requests_received_total",
            self.received as u64,
        );
        counter(
            &mut out,
            "yasksite_requests_completed_total",
            self.completed as u64,
        );
        counter(
            &mut out,
            "yasksite_requests_rejected_overload_total",
            self.rejected_overload as u64,
        );
        counter(
            &mut out,
            "yasksite_requests_rejected_budget_total",
            self.rejected_budget as u64,
        );
        counter(
            &mut out,
            "yasksite_requests_rejected_bad_total",
            self.rejected_bad as u64,
        );
        counter(
            &mut out,
            "yasksite_sessions_degraded_total",
            self.degraded as u64,
        );
        counter(
            &mut out,
            "yasksite_persist_errors_total",
            self.persist_errors as u64,
        );
        gauge(
            &mut out,
            "yasksite_request_rate_per_second",
            self.rate_per_sec,
        );
        gauge(
            &mut out,
            "yasksite_cache_entries",
            self.cache_entries as f64,
        );
        gauge(
            &mut out,
            "yasksite_drift_records",
            self.drift_records as f64,
        );
        gauge(
            &mut out,
            "yasksite_drift_suspects",
            self.drift_suspects as f64,
        );
        counter(
            &mut out,
            "yasksite_drift_evictions_total",
            self.drift_evictions as u64,
        );
        gauge(
            &mut out,
            "yasksite_corrected_keys",
            self.corrected_keys as f64,
        );
        if let Some(c) = &self.calibration {
            gauge(&mut out, "yasksite_calibration_age_seconds", c.age_secs);
            gauge(&mut out, "yasksite_calibration_probes", c.probes as f64);
            let _ = writeln!(out, "# TYPE yasksite_calibration_info gauge");
            let _ = writeln!(
                out,
                "yasksite_calibration_info{{rev=\"{}\",seed=\"{}\",date=\"{}\"}} 1",
                escape_label(&c.rev),
                c.seed,
                escape_label(&c.date),
            );
        }
        gauge(&mut out, "yasksite_tenants", self.tenants as f64);
        gauge(&mut out, "yasksite_pool_workers", self.pool_workers as f64);
        counter(&mut out, "yasksite_pool_sweeps_total", self.pool_sweeps);
        counter(&mut out, "yasksite_pool_jobs_total", self.pool_jobs);
        push_summary_family(
            &mut out,
            "yasksite_queue_wait_ms",
            "kind",
            &self.queue_wait_ms,
        );
        push_summary_family(&mut out, "yasksite_service_ms", "kind", &self.service_ms);
        push_summary_family(
            &mut out,
            "yasksite_request_latency_ms",
            "kind",
            &self.e2e_ms,
        );
        push_summary_family(
            &mut out,
            "yasksite_tenant_latency_ms",
            "tenant",
            &self.tenant_e2e_ms,
        );
        push_labelled_counters(&mut out, "yasksite_tier_ran_total", "tier", &self.tier_ran);
        push_labelled_counters(
            &mut out,
            "yasksite_tier_degraded_total",
            "reason",
            &self.tier_degraded,
        );
        out
    }
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn push_summary_family(
    out: &mut String,
    name: &str,
    label: &str,
    map: &BTreeMap<String, LatencyDigest>,
) {
    if map.is_empty() {
        return;
    }
    let _ = writeln!(out, "# TYPE {name} summary");
    for (key, d) in map {
        let k = escape_label(key);
        for (q, v) in [("0.5", d.p50), ("0.95", d.p95), ("0.99", d.p99)] {
            let _ = writeln!(out, "{name}{{{label}=\"{k}\",quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{name}_sum{{{label}=\"{k}\"}} {}", d.sum);
        let _ = writeln!(out, "{name}_count{{{label}=\"{k}\"}} {}", d.count);
    }
}

fn push_labelled_counters(out: &mut String, name: &str, label: &str, map: &BTreeMap<String, u64>) {
    if map.is_empty() {
        return;
    }
    let _ = writeln!(out, "# TYPE {name} counter");
    for (key, v) in map {
        let _ = writeln!(out, "{name}{{{label}=\"{}\"}} {v}", escape_label(key));
    }
}

// ---------------------------------------------------------------------------
// Validators (the `trace_check` analogue for the status surface)
// ---------------------------------------------------------------------------

/// What [`validate_status_json`] verified, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusCheck {
    /// Request kinds carrying a latency digest.
    pub kinds: usize,
    /// Total latency observations across kinds (rolling window).
    pub latency_samples: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// Drift-SUSPECT stencil count at snapshot time.
    pub drift_suspects: u64,
}

fn require_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("status: '{key}' missing or not a non-negative integer"))
}

fn require_f64(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("status: '{key}' missing or not a number"))
}

/// Validates a parsed schema-v1 `status` snapshot: the envelope, the
/// required counters, and — for every kind with samples — that the
/// percentiles are finite and monotone (`p50 ≤ p95 ≤ p99`).
///
/// # Errors
/// A human-readable message naming the first violated invariant.
pub fn validate_status_json(j: &Json) -> Result<StatusCheck, String> {
    if j.get("ok") != Some(&Json::Bool(true)) {
        return Err("status: 'ok' is not true".into());
    }
    if j.get("op").and_then(Json::as_str) != Some("status") {
        return Err("status: 'op' is not \"status\"".into());
    }
    let schema = require_u64(j, "schema")?;
    if schema != STATUS_SCHEMA_VERSION {
        return Err(format!(
            "status: schema {schema} (this tool understands {STATUS_SCHEMA_VERSION})"
        ));
    }
    let uptime = require_f64(j, "uptime_secs")?;
    if !uptime.is_finite() || uptime < 0.0 {
        return Err("status: negative uptime".into());
    }
    let window = require_f64(j, "window_secs")?;
    if !window.is_finite() || window <= 0.0 {
        return Err("status: non-positive window".into());
    }
    let queue_depth = require_u64(j, "queue_depth")?;
    let capacity = require_u64(j, "queue_capacity")?;
    if capacity == 0 {
        return Err("status: zero queue capacity".into());
    }
    for key in [
        "received",
        "completed",
        "rejected_overload",
        "rejected_budget",
        "rejected_bad",
        "degraded",
        "persist_errors",
        "cache_entries",
        "drift_records",
        "drift_evictions",
        "tenants",
    ] {
        require_u64(j, key)?;
    }
    let drift_suspects = require_u64(j, "drift_suspects")?;
    // Additions past the original v1 surface stay optional so older
    // snapshots on disk keep validating; when present they must be
    // well-formed.
    if j.get("corrected_keys").is_some() {
        require_u64(j, "corrected_keys")?;
    }
    if let Some(c) = j.get("calibration") {
        if !matches!(c, Json::Obj(_)) {
            return Err("status: 'calibration' is not an object".into());
        }
        for key in ["rev", "date"] {
            if c.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("status: calibration.{key} missing or not a string"));
            }
        }
        require_u64(c, "seed").map_err(|e| format!("calibration: {e}"))?;
        require_u64(c, "probes").map_err(|e| format!("calibration: {e}"))?;
        let age = require_f64(c, "age_secs").map_err(|e| format!("calibration: {e}"))?;
        if !age.is_finite() || age < 0.0 {
            return Err("status: calibration age_secs is not a finite non-negative number".into());
        }
    }
    let rate = require_f64(j, "rate_per_sec")?;
    if !rate.is_finite() || rate < 0.0 {
        return Err("status: bad rate_per_sec".into());
    }
    let mut kinds = 0usize;
    let mut samples = 0u64;
    for map_key in [
        "queue_wait_ms",
        "service_ms",
        "latency_ms",
        "tenant_latency_ms",
    ] {
        let Some(Json::Obj(members)) = j.get(map_key) else {
            return Err(format!("status: '{map_key}' missing or not an object"));
        };
        for (kind, digest) in members {
            let count =
                require_u64(digest, "count").map_err(|e| format!("{map_key}.{kind}: {e}"))?;
            if count == 0 {
                continue;
            }
            let p50 = require_f64(digest, "p50").map_err(|e| format!("{map_key}.{kind}: {e}"))?;
            let p95 = require_f64(digest, "p95").map_err(|e| format!("{map_key}.{kind}: {e}"))?;
            let p99 = require_f64(digest, "p99").map_err(|e| format!("{map_key}.{kind}: {e}"))?;
            if !(p50.is_finite() && p95.is_finite() && p99.is_finite()) {
                return Err(format!(
                    "status: {map_key}.{kind} has non-finite percentiles"
                ));
            }
            if p50 > p95 || p95 > p99 {
                return Err(format!(
                    "status: {map_key}.{kind} percentiles not monotone ({p50} / {p95} / {p99})"
                ));
            }
            if map_key == "latency_ms" {
                kinds += 1;
                samples += count;
            }
        }
    }
    for map_key in ["tier_ran", "tier_degraded"] {
        if !matches!(j.get(map_key), Some(Json::Obj(_))) {
            return Err(format!("status: '{map_key}' missing or not an object"));
        }
    }
    Ok(StatusCheck {
        kinds,
        latency_samples: samples,
        queue_depth,
        drift_suspects,
    })
}

/// Validates a Prometheus text exposition: every non-comment line must
/// be `name[{labels}] value`, names must use the Prometheus charset,
/// every sample's family must have a preceding `# TYPE` header with a
/// known kind, and label values must be well-formed quoted strings.
/// Returns the number of sample lines.
///
/// # Errors
/// A message naming the offending line (1-based) and why it is invalid.
pub fn validate_prometheus_text(text: &str) -> Result<usize, String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a metric name"))?;
                let kind = it
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a kind"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown TYPE kind '{kind}'"));
                }
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: invalid metric name '{name}'"));
                }
                typed.insert(name.to_string(), kind.to_string());
            }
            continue; // other comments (e.g. HELP) are fine
        }
        let (name, rest) = split_name(line)
            .ok_or_else(|| format!("line {lineno}: sample does not start with a metric name"))?;
        if !valid_metric_name(name) {
            return Err(format!("line {lineno}: invalid metric name '{name}'"));
        }
        let rest = rest.trim_start();
        let value_part = if let Some(after) = rest.strip_prefix('{') {
            let close = find_label_end(after)
                .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
            validate_labels(&after[..close]).map_err(|e| format!("line {lineno}: {e}"))?;
            after[close + 1..].trim_start()
        } else {
            rest
        };
        let value = value_part.split_whitespace().next().unwrap_or("");
        let ok_value = value.parse::<f64>().is_ok()
            || matches!(value, "+Inf" | "-Inf" | "NaN" | "Nan" | "nan");
        if !ok_value {
            return Err(format!("line {lineno}: unparsable sample value '{value}'"));
        }
        let family = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .or_else(|| name.strip_suffix("_bucket"))
            .filter(|f| typed.contains_key(*f))
            .unwrap_or(name);
        if !typed.contains_key(family) {
            return Err(format!(
                "line {lineno}: sample '{name}' has no preceding # TYPE header"
            ));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("exposition contains no samples".into());
    }
    Ok(samples)
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits `line` at the end of its leading metric name.
fn split_name(line: &str) -> Option<(&str, &str)> {
    let end = line
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .map_or(line.len(), |(i, _)| i);
    if end == 0 {
        return None;
    }
    Some((&line[..end], &line[end..]))
}

/// Index of the unescaped `}` closing a label set (input starts just
/// after `{`).
fn find_label_end(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn validate_labels(body: &str) -> Result<(), String> {
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label pair without '=': '{rest}'"))?;
        let key = rest[..eq].trim();
        if key.is_empty() || !valid_metric_name(key) {
            return Err(format!("invalid label name '{key}'"));
        }
        let after = rest[eq + 1..].trim_start();
        let inner = after
            .strip_prefix('"')
            .ok_or_else(|| format!("label '{key}' value is not quoted"))?;
        let mut escaped = false;
        let mut close = None;
        for (i, c) in inner.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    close = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let close = close.ok_or_else(|| format!("label '{key}' value is unterminated"))?;
        rest = inner[close + 1..]
            .trim_start()
            .trim_start_matches(',')
            .trim_start();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// `yasksite top` rendering
// ---------------------------------------------------------------------------

fn opt_u64(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn opt_f64(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn digest_rows(j: &Json, key: &str) -> Vec<(String, u64, f64, f64, f64)> {
    let mut rows = Vec::new();
    if let Some(Json::Obj(members)) = j.get(key) {
        for (kind, d) in members {
            rows.push((
                kind.clone(),
                opt_u64(d, "count"),
                opt_f64(d, "p50"),
                opt_f64(d, "p95"),
                opt_f64(d, "p99"),
            ));
        }
    }
    rows
}

/// Renders one `yasksite top` frame from a parsed status snapshot.
/// `source` names where the snapshot came from (socket path or state
/// directory) for the header line.
#[must_use]
pub fn render_top(j: &Json, source: &str) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(
        out,
        "yasksite daemon [{source}] — up {:.1}s, window {:.0}s",
        opt_f64(j, "uptime_secs"),
        opt_f64(j, "window_secs"),
    );
    let _ = writeln!(
        out,
        "requests: {} received, {} ok, {} overloaded, {} budget-rejected, {} bad, {} degraded | {:.2} req/s",
        opt_u64(j, "received"),
        opt_u64(j, "completed"),
        opt_u64(j, "rejected_overload"),
        opt_u64(j, "rejected_budget"),
        opt_u64(j, "rejected_bad"),
        opt_u64(j, "degraded"),
        opt_f64(j, "rate_per_sec"),
    );
    let pool = j.get("pool").cloned().unwrap_or(Json::Null);
    let _ = writeln!(
        out,
        "queue {}/{} | pool {} workers / {} jobs | cache {} | drift {} records, SUSPECT {}, {} corrected | persist errors {}",
        opt_u64(j, "queue_depth"),
        opt_u64(j, "queue_capacity"),
        opt_u64(&pool, "workers"),
        opt_u64(&pool, "jobs"),
        opt_u64(j, "cache_entries"),
        opt_u64(j, "drift_records"),
        opt_u64(j, "drift_suspects"),
        opt_u64(j, "corrected_keys"),
        opt_u64(j, "persist_errors"),
    );
    if let Some(c) = j.get("calibration") {
        let _ = writeln!(
            out,
            "calibration: rev {} seed {} ({}), {} probes, age {:.0}s",
            c.get("rev").and_then(Json::as_str).unwrap_or("?"),
            opt_u64(c, "seed"),
            c.get("date").and_then(Json::as_str).unwrap_or("?"),
            opt_u64(c, "probes"),
            opt_f64(c, "age_secs"),
        );
    }
    let lat = digest_rows(j, "latency_ms");
    if lat.is_empty() {
        let _ = writeln!(out, "latency: no samples in window");
    } else {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>9} {:>9} {:>9}",
            "latency ms", "count", "p50", "p95", "p99"
        );
        for (kind, count, p50, p95, p99) in &lat {
            let _ = writeln!(
                out,
                "{kind:<10} {count:>7} {p50:>9.2} {p95:>9.2} {p99:>9.2}"
            );
        }
    }
    let waits = digest_rows(j, "queue_wait_ms");
    for (kind, count, p50, p95, p99) in &waits {
        let _ = writeln!(
            out,
            "wait {kind:<8} {count:>5} samples, p50 {p50:.2} ms, p95 {p95:.2} ms, p99 {p99:.2} ms"
        );
    }
    if let Some(Json::Obj(tiers)) = j.get("tier_ran") {
        if !tiers.is_empty() {
            let mix: Vec<String> = tiers
                .iter()
                .map(|(t, n)| format!("{t} {}", n.as_u64().unwrap_or(0)))
                .collect();
            let _ = writeln!(out, "tiers: {}", mix.join(" | "));
        }
    }
    if let Some(Json::Obj(reasons)) = j.get("tier_degraded") {
        for (reason, n) in reasons {
            let _ = writeln!(out, "degraded x{}: {reason}", n.as_u64().unwrap_or(0));
        }
    }
    if let Some(Json::Obj(tenants)) = j.get("tenant_use") {
        for (tenant, u) in tenants {
            let _ = writeln!(
                out,
                "tenant {tenant}: {} runs, {:.3}s target time",
                opt_u64(u, "runs"),
                opt_f64(u, "seconds"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_telemetry::json::parse;

    fn sample_snapshot() -> StatusSnapshot {
        let digest = LatencyDigest {
            count: 3,
            sum: 45.0,
            p50: 10.0,
            p95: 19.0,
            p99: 19.8,
        };
        let mut s = StatusSnapshot {
            uptime_secs: 12.5,
            window_secs: 60.0,
            queue_depth: 1,
            queue_capacity: 16,
            received: 5,
            completed: 4,
            rejected_bad: 1,
            rate_per_sec: 0.4,
            cache_entries: 42,
            drift_records: 3,
            drift_suspects: 1,
            corrected_keys: 1,
            calibration: Some(CalibrationStatus {
                rev: "0.1.0".into(),
                seed: 42,
                date: "2026-08-09".into(),
                probes: 7,
                age_secs: 90.0,
            }),
            tenants: 1,
            trace_sample: Some(64),
            pool_workers: 4,
            pool_sweeps: 7,
            pool_jobs: 28,
            store_healthy: Some(true),
            ..StatusSnapshot::default()
        };
        s.e2e_ms.insert("tune".into(), digest);
        s.queue_wait_ms.insert("tune".into(), digest);
        s.service_ms.insert("tune".into(), digest);
        s.tenant_e2e_ms.insert("ci".into(), digest);
        s.tier_ran.insert("folded".into(), 3);
        s.tier_degraded.insert(
            "fold.x has no supported lane count: scalar row kernels".into(),
            1,
        );
        s.tenant_use.insert(
            "ci".into(),
            TenantUsage {
                runs: 4,
                seconds: 0.25,
            },
        );
        s
    }

    #[test]
    fn json_response_round_trips_and_validates() {
        let snap = sample_snapshot();
        let line = snap.to_json_response("s1");
        let j = parse(&line).expect("snapshot renders valid JSON");
        assert_eq!(j.get("id").and_then(Json::as_str), Some("s1"));
        assert_eq!(j.get("schema").and_then(Json::as_u64), Some(1));
        let check = validate_status_json(&j).expect("snapshot validates");
        assert_eq!(check.kinds, 1);
        assert_eq!(check.latency_samples, 3);
        assert_eq!(check.queue_depth, 1);
        assert_eq!(check.drift_suspects, 1);
        assert_eq!(j.get("corrected_keys").and_then(Json::as_u64), Some(1));
        let cal = j.get("calibration").expect("calibration block present");
        assert_eq!(cal.get("rev").and_then(Json::as_str), Some("0.1.0"));
        assert_eq!(cal.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(cal.get("probes").and_then(Json::as_u64), Some(7));
    }

    /// The rendering is a wire format (`status` replies, `status.json`):
    /// the bytes below were captured before the renderer moved onto
    /// `telemetry::json::ObjectWriter` and must not change with it.
    #[test]
    fn json_response_bytes_are_pinned() {
        assert_eq!(
            sample_snapshot().to_json_response("g"),
            concat!(
                r#"{"id":"g","ok":true,"op":"status","schema":1,"uptime_secs":12.5,"window_secs":60,"#,
                r#""queue_depth":1,"queue_capacity":16,"received":5,"completed":4,"#,
                r#""rejected_overload":0,"rejected_budget":0,"rejected_bad":1,"degraded":0,"#,
                r#""persist_errors":0,"rate_per_sec":0.4,"cache_entries":42,"drift_records":3,"#,
                r#""drift_suspects":1,"drift_evictions":0,"corrected_keys":1,"tenants":1,"#,
                r#""trace_sample":64,"#,
                r#""queue_wait_ms":{"tune":{"count":3,"p50":10,"p95":19,"p99":19.8,"mean":15}},"#,
                r#""service_ms":{"tune":{"count":3,"p50":10,"p95":19,"p99":19.8,"mean":15}},"#,
                r#""latency_ms":{"tune":{"count":3,"p50":10,"p95":19,"p99":19.8,"mean":15}},"#,
                r#""tenant_latency_ms":{"ci":{"count":3,"p50":10,"p95":19,"p99":19.8,"mean":15}},"#,
                r#""tier_ran":{"folded":3},"#,
                r#""tier_degraded":{"fold.x has no supported lane count: scalar row kernels":1},"#,
                r#""tenant_use":{"ci":{"runs":4,"seconds":0.25}},"#,
                r#""pool":{"workers":4,"sweeps":7,"jobs":28},"#,
                r#""calibration":{"rev":"0.1.0","seed":42,"date":"2026-08-09","probes":7,"age_secs":90},"#,
                r#""store_healthy":true}"#,
            )
        );
        // Empty maps and absent optionals render as at the parent too.
        assert_eq!(
            StatusSnapshot::default().to_json_response(""),
            concat!(
                r#"{"id":"","ok":true,"op":"status","schema":1,"uptime_secs":0,"window_secs":0,"#,
                r#""queue_depth":0,"queue_capacity":0,"received":0,"completed":0,"#,
                r#""rejected_overload":0,"rejected_budget":0,"rejected_bad":0,"degraded":0,"#,
                r#""persist_errors":0,"rate_per_sec":0,"cache_entries":0,"drift_records":0,"#,
                r#""drift_suspects":0,"drift_evictions":0,"corrected_keys":0,"tenants":0,"#,
                r#""queue_wait_ms":{},"service_ms":{},"latency_ms":{},"tenant_latency_ms":{},"#,
                r#""tier_ran":{},"tier_degraded":{},"tenant_use":{},"#,
                r#""pool":{"workers":0,"sweeps":0,"jobs":0}}"#,
            )
        );
    }

    #[test]
    fn validator_accepts_snapshots_without_the_calibration_extras() {
        // Older daemons never wrote `corrected_keys` / `calibration`;
        // their status.json files must keep validating.
        let mut snap = sample_snapshot();
        snap.corrected_keys = 0;
        snap.calibration = None;
        let line = snap.to_json_response("old");
        let stripped = line.replace(",\"corrected_keys\":0", "");
        assert!(!stripped.contains("corrected_keys"));
        assert!(!stripped.contains("calibration"));
        let j = parse(&stripped).unwrap();
        validate_status_json(&j).expect("pre-calibration snapshots still validate");
    }

    #[test]
    fn validator_rejects_broken_snapshots() {
        let j = parse(r#"{"ok":true,"op":"status"}"#).unwrap();
        assert!(validate_status_json(&j).unwrap_err().contains("schema"));
        let mut snap = sample_snapshot();
        snap.e2e_ms.insert(
            "bad".into(),
            LatencyDigest {
                count: 2,
                sum: 10.0,
                p50: 9.0,
                p95: 5.0, // not monotone
                p99: 6.0,
            },
        );
        let j = parse(&snap.to_json_response("x")).unwrap();
        assert!(validate_status_json(&j)
            .unwrap_err()
            .contains("not monotone"));
        // A calibration block that is not an object is rejected.
        let j = parse(
            r#"{"ok":true,"op":"status","schema":1,"uptime_secs":1,"window_secs":60,
                "queue_depth":0,"queue_capacity":8,"received":0,"completed":0,
                "rejected_overload":0,"rejected_budget":0,"rejected_bad":0,
                "degraded":0,"persist_errors":0,"cache_entries":0,"drift_records":0,
                "drift_suspects":0,"drift_evictions":0,"tenants":0,"rate_per_sec":0,
                "calibration":7,
                "queue_wait_ms":{},"service_ms":{},"latency_ms":{},
                "tenant_latency_ms":{},"tier_ran":{},"tier_degraded":{}}"#,
        )
        .unwrap();
        assert!(validate_status_json(&j)
            .unwrap_err()
            .contains("'calibration' is not an object"));
    }

    #[test]
    fn prometheus_exposition_validates_and_carries_the_key_series() {
        let text = sample_snapshot().to_prometheus();
        let samples = validate_prometheus_text(&text).expect("exposition is well-formed");
        assert!(samples > 20, "expected a rich exposition, got {samples}");
        assert!(text.contains("yasksite_queue_depth 1"));
        assert!(text.contains("yasksite_drift_suspects 1"));
        assert!(text.contains("yasksite_corrected_keys 1"));
        assert!(text.contains("yasksite_calibration_age_seconds 90"));
        assert!(text.contains("yasksite_calibration_probes 7"));
        assert!(text.contains(
            "yasksite_calibration_info{rev=\"0.1.0\",seed=\"42\",date=\"2026-08-09\"} 1"
        ));
        assert!(text.contains("yasksite_tier_ran_total{tier=\"folded\"} 3"));
        assert!(text.contains("yasksite_request_latency_ms{kind=\"tune\",quantile=\"0.5\"} 10"));
        assert!(text.contains("# TYPE yasksite_request_latency_ms summary"));
    }

    #[test]
    fn prometheus_validator_rejects_malformed_text() {
        assert!(validate_prometheus_text("").is_err());
        assert!(validate_prometheus_text("no_type_header 1\n")
            .unwrap_err()
            .contains("no preceding # TYPE"));
        assert!(validate_prometheus_text("# TYPE x counter\nx notanumber\n")
            .unwrap_err()
            .contains("unparsable"));
        assert!(
            validate_prometheus_text("# TYPE x counter\nx{le=\"unterminated} 1\n")
                .unwrap_err()
                .contains("unterminated")
        );
        // Escaped quotes inside label values are accepted.
        let ok = "# TYPE x counter\nx{reason=\"a \\\"quoted\\\" bit\"} 3\n";
        assert_eq!(validate_prometheus_text(ok), Ok(1));
    }

    #[test]
    fn top_rendering_covers_the_dashboard_lines() {
        let j = parse(&sample_snapshot().to_json_response("t")).unwrap();
        let view = render_top(&j, "state-dir");
        assert!(view.contains("yasksite daemon [state-dir]"));
        assert!(view.contains("queue 1/16"));
        assert!(view.contains("SUSPECT 1, 1 corrected"));
        assert!(view.contains("calibration: rev 0.1.0 seed 42 (2026-08-09), 7 probes, age 90s"));
        assert!(view.contains("tune"));
        assert!(view.contains("tiers: folded 3"));
        assert!(view.contains("tenant ci: 4 runs"));
    }
}
