//! Structured telemetry for the YaskSite tuning pipeline: hierarchical
//! tracing spans, a metrics registry, and pluggable JSONL event sinks.
//!
//! # Design
//!
//! A [`Telemetry`] value is a cheap, cloneable handle — either *disabled*
//! (the default: every operation is a no-op on an `Option::None`, no
//! allocation, no lock) or backed by a shared session state holding a
//! monotonic epoch, a [`MetricsRegistry`], a span collector and an
//! [`EventSink`]. The tuning engine threads one handle through a whole
//! session (`TuneRequest` → ranking workers → trials), so clones taken by
//! scoped worker threads all record into the same session.
//!
//! **Spans** form a tree: [`Telemetry::span`] opens a root,
//! [`SpanGuard::child`] opens a child, and the RAII guard guarantees
//! every opened span is closed (and its `span_close` event emitted)
//! exactly once, even on early returns. Timing is monotonic
//! (`Instant`-based) and expressed as microseconds since the session
//! epoch.
//!
//! **Events** are single JSON objects, one per line (JSONL). Every line
//! carries the schema version (`"v"`, see [`SCHEMA_VERSION`]), the event
//! kind (`"ev"`) and the epoch-relative timestamp (`"t_us"`); span
//! open/close events add identity and parentage so a consumer can rebuild
//! the tree. The [`check_trace`] validator (also available as the
//! `trace_check` binary) enforces exactly this contract in CI.
//!
//! **Overhead**: with the [`NullSink`], no JSON is ever encoded — spans
//! and metrics still aggregate in memory so `--metrics` works without a
//! trace file. A disabled handle does nothing at all, which is what keeps
//! the determinism guarantee trivially intact: telemetry never touches
//! the numeric tuning path, it only observes it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod export;
pub mod json;
mod metrics;
mod sink;
mod span;
mod window;

pub use check::{check_trace, TraceStats};
pub use export::{
    check_schema_version, chrome_trace_from_spans, chrome_trace_from_trace, histogram_percentiles,
    percentiles_from_buckets, prometheus_from_trace, prometheus_text, sanitize_metric_name,
    summary_from_trace, PercentileSummary,
};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot, DEFAULT_SECONDS_BOUNDS};
pub use sink::{EventSink, MemorySink, NullSink, WriterSink};
pub use span::{render_span_tree, SpanRecord};
pub use window::{RollingCounter, RollingHistogram, WindowSnapshot, DEFAULT_MS_BOUNDS};

use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use span::SpanCollector;

/// Version of the JSONL event schema, emitted as `"v"` on every line.
/// Consumers must ignore lines with a version they do not understand.
pub const SCHEMA_VERSION: u64 = 1;

/// Event severity, ordered: an event is emitted only if its level is at
/// or above the handle's configured level (`Error` < `Info` < `Debug`,
/// so a `Level::Info` handle drops `Debug` events). Span open/close
/// events are structural and always pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Failures worth surfacing even in the quietest configuration.
    Error,
    /// Session milestones: start/end, fallbacks, budget exhaustion.
    Info,
    /// Per-sample detail (one event per backend invocation).
    Debug,
}

impl Level {
    /// Parses a CLI-style level name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    /// The CLI-style name (`"error"` / `"info"` / `"debug"`).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// A typed event field value, encoded into the JSON line.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite encodes as JSON `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl Value {
    fn put(&self, o: json::ObjectWriter, key: &str) -> json::ObjectWriter {
        match self {
            Value::U64(v) => o.uint(key, *v),
            Value::I64(v) => o.int(key, *v),
            Value::F64(v) => o.num(key, *v),
            Value::Bool(v) => o.bool(key, *v),
            Value::Str(v) => o.str(key, v),
        }
    }
}

/// The keys every trace line starts with: schema version, event name and
/// the time since the session epoch.
fn envelope(ev: &str, t_us: u64) -> json::ObjectWriter {
    json::ObjectWriter::with_capacity(128)
        .uint("v", SCHEMA_VERSION)
        .str("ev", ev)
        .uint("t_us", t_us)
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Shared per-session telemetry state.
struct Inner {
    epoch: Instant,
    level: Level,
    sink: Arc<dyn EventSink>,
    metrics: MetricsRegistry,
    spans: SpanCollector,
}

/// Cheap, cloneable telemetry handle. See the crate docs for the design;
/// the default handle is disabled and every operation on it is a no-op.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    /// Event/span emission suppressed; metrics still aggregate. See
    /// [`Telemetry::quiet`].
    quiet: bool,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) if self.quiet => {
                write!(f, "Telemetry(level={}, quiet)", inner.level.as_str())
            }
            Some(inner) => write!(f, "Telemetry(level={})", inner.level.as_str()),
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// The no-op handle (same as `Telemetry::default()`).
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            quiet: false,
        }
    }

    /// An enabled handle emitting encoded events to `sink` at `level`.
    #[must_use]
    pub fn with_sink(sink: Arc<dyn EventSink>, level: Level) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                level,
                sink,
                metrics: MetricsRegistry::new(),
                spans: SpanCollector::default(),
            })),
            quiet: false,
        }
    }

    /// A handle sharing this session's metrics registry with event and
    /// span emission suppressed: counters, gauges and histograms keep
    /// aggregating into the same session, but no trace line is written
    /// and no span is recorded. This is what head-sampling hands to work
    /// past the sample budget — observability stays on, the trace stops
    /// growing. On a disabled handle this is still disabled.
    #[must_use]
    pub fn quiet(&self) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            quiet: true,
        }
    }

    /// Whether this handle is a [`Telemetry::quiet`] view.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// An enabled handle with the [`NullSink`]: spans and metrics are
    /// collected, no event line is ever encoded. This is the `--metrics`
    /// (without `--trace-out`) mode.
    #[must_use]
    pub fn null(level: Level) -> Self {
        Telemetry::with_sink(Arc::new(NullSink), level)
    }

    /// An enabled handle recording into a fresh [`MemorySink`], returned
    /// alongside so tests can inspect the lines.
    #[must_use]
    pub fn recording(level: Level) -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        (
            Telemetry::with_sink(Arc::<MemorySink>::clone(&sink), level),
            sink,
        )
    }

    /// An enabled handle streaming JSONL to the file at `path`
    /// (truncating it), buffered; call [`Telemetry::finish`] to flush.
    ///
    /// # Errors
    /// Propagates the file-creation error.
    pub fn to_file(path: &str, level: Level) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let sink = WriterSink::new(Box::new(io::BufWriter::new(file)));
        Ok(Telemetry::with_sink(Arc::new(sink), level))
    }

    /// Whether this handle records anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured event level, if enabled.
    #[must_use]
    pub fn level(&self) -> Option<Level> {
        self.inner.as_ref().map(|i| i.level)
    }

    fn now_us(inner: &Inner) -> u64 {
        u64::try_from(inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Opens a root span. The returned guard closes it on drop; use
    /// [`SpanGuard::child`] for nesting. On a disabled handle this is
    /// free and the guard is inert.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.open_span(0, name)
    }

    fn open_span(&self, parent: u64, name: &'static str) -> SpanGuard {
        let (id, start_us) = match &self.inner {
            Some(_) if self.quiet => (0, 0),
            Some(inner) => {
                let id = inner.spans.open();
                let start_us = Self::now_us(inner);
                if inner.sink.wants_events() {
                    let line = envelope("span_open", start_us)
                        .uint("id", id)
                        .uint("parent", parent)
                        .str("name", name);
                    inner.sink.emit(&line.finish());
                }
                (id, start_us)
            }
            None => (0, 0),
        };
        SpanGuard {
            tel: self.clone(),
            id,
            parent,
            name,
            start_us,
        }
    }

    /// Emits one event at `level`, attached to span `span_id` (0 for
    /// none), with extra `fields`. Dropped if the handle is disabled or
    /// the level is filtered out. Field keys must not collide with the
    /// envelope keys (`v`, `ev`, `t_us`, `span`, `level`).
    pub fn event(&self, level: Level, name: &str, span_id: u64, fields: &[(&str, Value)]) {
        let Some(inner) = &self.inner else {
            return;
        };
        if self.quiet || level > inner.level || !inner.sink.wants_events() {
            return;
        }
        let line = envelope(name, Self::now_us(inner))
            .uint("span", span_id)
            .str("level", level.as_str());
        let line = fields
            .iter()
            .fold(line, |o, (key, value)| value.put(o, key));
        inner.sink.emit(&line.finish());
    }

    /// Emits an error event (always passes the level filter) and bumps
    /// the `errors` counter.
    pub fn error(&self, message: &str) {
        if !self.is_enabled() {
            return;
        }
        self.add("errors", 1);
        self.event(Level::Error, "error", 0, &[("message", message.into())]);
    }

    /// Adds 1 to counter `name`.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.add(name, n);
        }
    }

    /// Current value of counter `name` (0 when disabled or untouched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.metrics.counter(name))
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.set_gauge(name, v);
        }
    }

    /// Records `v` into histogram `name` (default seconds buckets).
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(name, v);
        }
    }

    /// A point-in-time copy of the metrics, or `None` when disabled.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|inner| inner.metrics.snapshot())
    }

    /// Spans opened so far.
    #[must_use]
    pub fn spans_opened(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.spans.opened())
    }

    /// Spans closed so far.
    #[must_use]
    pub fn spans_closed(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.spans.closed())
    }

    /// Spans currently open (opened minus closed).
    #[must_use]
    pub fn open_spans(&self) -> u64 {
        self.spans_opened() - self.spans_closed()
    }

    /// All closed spans recorded so far.
    #[must_use]
    pub fn span_records(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map(|i| i.spans.records())
            .unwrap_or_default()
    }

    /// The aggregated span-tree report (empty string when disabled).
    #[must_use]
    pub fn span_report(&self) -> String {
        if self.inner.is_some() {
            render_span_tree(&self.span_records())
        } else {
            String::new()
        }
    }

    /// Ends the session: emits one `metric` summary event per counter,
    /// gauge and histogram (histograms additionally emit one
    /// `metric_bucket` event per bucket with the cumulative count, so a
    /// consumer can rebuild the exact Prometheus exposition), then
    /// flushes the sink. Call once, after all spans are closed; safe
    /// (and a no-op) on a disabled handle.
    pub fn finish(&self) {
        let Some(inner) = &self.inner else {
            return;
        };
        if !self.quiet && inner.sink.wants_events() {
            let snapshot = inner.metrics.snapshot();
            for (name, v) in &snapshot.counters {
                self.event(
                    Level::Error, // summary lines always pass the filter
                    "metric",
                    0,
                    &[
                        ("kind", "counter".into()),
                        ("name", name.as_str().into()),
                        ("value", (*v).into()),
                    ],
                );
            }
            for (name, v) in &snapshot.gauges {
                self.event(
                    Level::Error,
                    "metric",
                    0,
                    &[
                        ("kind", "gauge".into()),
                        ("name", name.as_str().into()),
                        ("value", (*v).into()),
                    ],
                );
            }
            for (name, h) in &snapshot.histograms {
                self.event(
                    Level::Error,
                    "metric",
                    0,
                    &[
                        ("kind", "histogram".into()),
                        ("name", name.as_str().into()),
                        ("count", h.count().into()),
                        ("sum", h.sum().into()),
                        ("min", h.min().unwrap_or(0.0).into()),
                        ("max", h.max().unwrap_or(0.0).into()),
                    ],
                );
                let mut cum = 0u64;
                for (i, &c) in h.bucket_counts().iter().enumerate() {
                    cum += c;
                    let le = match h.bounds().get(i) {
                        Some(b) => format!("{b}"),
                        None => "+Inf".to_string(),
                    };
                    self.event(
                        Level::Error,
                        "metric_bucket",
                        0,
                        &[
                            ("name", name.as_str().into()),
                            ("le", le.into()),
                            ("count", cum.into()),
                        ],
                    );
                }
            }
        }
        inner.sink.flush();
    }
}

/// RAII guard of one open span. Dropping it closes the span: the
/// duration is recorded into the collector and a `span_close` event is
/// emitted, so open/close events are balanced by construction.
#[derive(Debug)]
pub struct SpanGuard {
    tel: Telemetry,
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
}

impl SpanGuard {
    /// This span's id (0 on a disabled handle) — what events attach to.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opens a child span. Callable from any thread (worker threads of a
    /// scoped pool take children of the session span).
    #[must_use]
    pub fn child(&self, name: &'static str) -> SpanGuard {
        self.tel.open_span(self.id, name)
    }

    /// The telemetry handle this guard records into.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.tel.quiet {
            return;
        }
        let Some(inner) = &self.tel.inner else {
            return;
        };
        let now = Telemetry::now_us(inner);
        let dur_us = now.saturating_sub(self.start_us);
        if inner.sink.wants_events() {
            let line = envelope("span_close", now)
                .uint("id", self.id)
                .uint("dur_us", dur_us)
                .str("name", self.name);
            inner.sink.emit(&line.finish());
        }
        inner.spans.close(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_us: self.start_us,
            dur_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let s = tel.span("root");
        assert_eq!(s.id(), 0);
        let c = s.child("inner");
        assert_eq!(c.id(), 0);
        tel.inc("n");
        tel.observe("h", 1.0);
        tel.event(Level::Error, "e", 0, &[]);
        tel.error("nope");
        tel.finish();
        assert_eq!(tel.counter("n"), 0);
        assert!(tel.metrics_snapshot().is_none());
        assert_eq!(tel.open_spans(), 0);
        assert_eq!(tel.span_report(), "");
    }

    #[test]
    fn spans_nest_and_balance() {
        let (tel, sink) = Telemetry::recording(Level::Debug);
        {
            let session = tel.span("tune_session");
            {
                let rank = session.child("rank");
                assert_eq!(tel.open_spans(), 2);
                drop(rank);
            }
            let trial = session.child("trial");
            let _predict = trial.child("predict");
            assert_eq!(tel.open_spans(), 3);
        }
        assert_eq!(tel.open_spans(), 0);
        assert_eq!(tel.spans_opened(), 4);
        assert_eq!(tel.spans_closed(), 4);
        // Parentage is recorded: predict's parent is trial, trial's and
        // rank's parent is the session, the session is a root.
        let records = tel.span_records();
        let by_name = |n: &str| records.iter().find(|r| r.name == n).unwrap();
        assert_eq!(by_name("tune_session").parent, 0);
        assert_eq!(by_name("rank").parent, by_name("tune_session").id);
        assert_eq!(by_name("predict").parent, by_name("trial").id);
        // Every open has a matching close in the stream.
        let lines = sink.lines();
        let opens = lines.iter().filter(|l| l.contains("span_open")).count();
        let closes = lines.iter().filter(|l| l.contains("span_close")).count();
        assert_eq!(opens, 4);
        assert_eq!(closes, 4);
        check_trace(&lines.join("\n")).expect("stream validates");
    }

    #[test]
    fn guard_balances_on_early_return() {
        let tel = Telemetry::null(Level::Info);
        fn inner(tel: &Telemetry) -> Result<(), ()> {
            let _span = tel.span("may_fail");
            Err(())
        }
        let _ = inner(&tel);
        assert_eq!(
            tel.open_spans(),
            0,
            "drop closed the span on the error path"
        );
    }

    #[test]
    fn level_filters_events_but_not_spans() {
        let (tel, sink) = Telemetry::recording(Level::Info);
        let s = tel.span("root");
        tel.event(Level::Debug, "noisy", s.id(), &[]);
        tel.event(Level::Info, "kept", s.id(), &[("n", 3u64.into())]);
        drop(s);
        let lines = sink.lines();
        assert!(!lines.iter().any(|l| l.contains("noisy")));
        assert!(lines.iter().any(|l| l.contains("\"kept\"")));
        assert_eq!(
            lines.iter().filter(|l| l.contains("span_")).count(),
            2,
            "span events bypass the level filter"
        );
    }

    #[test]
    fn every_line_is_valid_json_with_required_keys() {
        let (tel, sink) = Telemetry::recording(Level::Debug);
        let s = tel.span("root");
        tel.event(
            Level::Info,
            "sample",
            s.id(),
            &[
                ("seconds", 1.25e-3.into()),
                ("ok", true.into()),
                ("why", "ba\"ckslash\\and\nnewline".into()),
            ],
        );
        tel.inc("tune.cache_hits");
        tel.observe("trial.sample_seconds", 1.25e-3);
        drop(s);
        tel.finish();
        for line in sink.lines() {
            let j = json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(
                j.get("v").and_then(json::Json::as_u64),
                Some(SCHEMA_VERSION)
            );
            assert!(j.get("ev").and_then(json::Json::as_str).is_some());
            assert!(j.get("t_us").and_then(json::Json::as_u64).is_some());
        }
        // finish() emitted metric summaries for the counter + histogram,
        // plus one metric_bucket line per histogram bucket (9 bounds +
        // the overflow bucket).
        let metrics: Vec<_> = sink
            .lines()
            .into_iter()
            .filter(|l| l.contains("\"ev\":\"metric\""))
            .collect();
        assert_eq!(metrics.len(), 2);
        let buckets: Vec<_> = sink
            .lines()
            .into_iter()
            .filter(|l| l.contains("\"ev\":\"metric_bucket\""))
            .collect();
        assert_eq!(buckets.len(), DEFAULT_SECONDS_BOUNDS.len() + 1);
        assert!(buckets.iter().any(|l| l.contains("\"le\":\"+Inf\"")));
    }

    #[test]
    fn null_sink_collects_metrics_without_lines() {
        let tel = Telemetry::null(Level::Debug);
        let s = tel.span("root");
        tel.inc("hits");
        tel.event(Level::Info, "anything", s.id(), &[]);
        drop(s);
        tel.finish();
        assert_eq!(tel.counter("hits"), 1);
        assert_eq!(tel.spans_closed(), 1);
        assert!(tel.span_report().contains("root"));
    }

    #[test]
    fn error_counts_and_emits() {
        let (tel, sink) = Telemetry::recording(Level::Error);
        tel.error("backend exploded");
        assert_eq!(tel.counter("errors"), 1);
        let lines = sink.lines();
        assert!(lines[0].contains("backend exploded"));
        assert!(lines[0].contains("\"error\""));
    }

    #[test]
    fn clones_share_the_session() {
        let tel = Telemetry::null(Level::Info);
        let clone = tel.clone();
        clone.inc("shared");
        assert_eq!(tel.counter("shared"), 1);
        std::thread::scope(|scope| {
            let t = &tel;
            scope.spawn(move || {
                let s = t.span("worker");
                t.inc("shared");
                drop(s);
            });
        });
        assert_eq!(tel.counter("shared"), 2);
        assert_eq!(tel.open_spans(), 0);
    }

    #[test]
    fn quiet_handle_aggregates_metrics_without_emitting() {
        let (tel, sink) = Telemetry::recording(Level::Debug);
        let q = tel.quiet();
        assert!(q.is_quiet() && !tel.is_quiet());
        assert!(q.is_enabled());
        // Metrics flow into the shared session...
        q.inc("shared.counter");
        q.observe("shared.hist", 0.5);
        q.gauge("shared.gauge", 2.0);
        assert_eq!(tel.counter("shared.counter"), 1);
        // ...but no event, span or error line is ever written.
        let s = q.span("silent");
        assert_eq!(s.id(), 0);
        let c = s.child("also_silent");
        q.event(Level::Error, "nope", c.id(), &[]);
        q.error("counted but not emitted");
        drop(c);
        drop(s);
        q.finish();
        assert!(sink.is_empty(), "quiet handle wrote {:?}", sink.lines());
        assert_eq!(tel.counter("errors"), 1);
        assert_eq!(tel.spans_opened(), 0, "quiet spans are not recorded");
        // The loud handle still works as before.
        let loud = tel.span("loud");
        drop(loud);
        assert!(sink.lines().iter().any(|l| l.contains("span_open")));
    }

    #[test]
    fn level_parse_round_trips() {
        for l in [Level::Error, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("verbose"), None);
        assert!(Level::Error < Level::Info && Level::Info < Level::Debug);
    }
}
