//! The crash-safe tuning daemon behind `yasksite serve`.
//!
//! The daemon accepts line-delimited JSON requests on stdin (or on any
//! number of Unix-socket connections) and answers each with one JSON
//! line. Both transports share one request path: a *pump* per line source
//! offers its lines to one bounded queue, and one *worker* handles them
//! and replies to the source each came from. Five operations exist:
//!
//! * `tune` — run a tuning session and return the winner;
//! * `predict` — one analytic prediction through the shared cache;
//! * `report` — daemon status (counters, cache and store sizes);
//! * `status` — the full observability snapshot (schema-v1 JSON, or the
//!   Prometheus text exposition with `"format":"prom"`): queue depth,
//!   rolling-window latency percentiles per request kind and tenant,
//!   tier mix, drift-SUSPECT count, pool occupancy;
//! * `shutdown` — drain queued requests, snapshot state, exit.
//!
//! ```text
//! {"id":"t1","op":"tune","stencil":"heat-3d-r1","domain":"32x16x16",
//!  "machine":"clx","cores":2,"strategy":"hybrid","samples":2,
//!  "tenant":"ci","deadline_ms":5000}
//! ```
//!
//! # Robustness properties
//!
//! * **Admission control** — per-tenant [`TrialBudget`]-style caps on
//!   measurement runs and target seconds; an exhausted tenant is rejected
//!   with `"kind":"tenant_budget_exhausted"` before any work starts, and
//!   a session never receives more budget than the tenant has left.
//! * **Backpressure** — requests flow through a bounded queue. When it is
//!   full the pump rejects immediately with `"kind":"overloaded"`
//!   instead of buffering without bound or blocking the pipe. The same
//!   queue stands behind every connection: an idle client delays nobody.
//! * **Bounded input** — lines, connections, idleness and unwritable
//!   replies are all capped; see [`Limits`].
//! * **Deadlines** — `deadline_ms` (or the daemon-wide default) becomes
//!   the [`TrialConfig::deadline`] watchdog: a stuck trial is cancelled
//!   at the deadline and degrades to its analytic fallback.
//! * **Panic isolation** — each tuning session runs under
//!   `catch_unwind`; a panicking measurement backend degrades that one
//!   request to a purely analytic session (`"degraded":true`) instead of
//!   killing the daemon.
//! * **Persistence** — with `--state-dir`, predictions and drift history
//!   live in the crash-safe journals of [`PersistentStore`], each request
//!   journaling what it computed, so journal order is request order; on
//!   SIGTERM or `shutdown` the daemon finishes in-flight requests,
//!   compacts the journals and exits 0. A restart warm-starts the cache
//!   (verified against the live model) so repeated requests are served
//!   from memory.
//!
//! The protocol handler ([`ServeState::handle_line`]) is a pure
//! line-in/line-out function so every policy above is unit-testable
//! without process machinery.
//!
//! # Observability
//!
//! Every request gets a stable id (`r000001`, …) and — while the
//! head-sampling budget ([`ServeConfig::trace_sample`]) lasts — a span
//! tree (`request` → `admission`/`tune`/`predict`/`persist`) plus
//! `request_start`/`request_end` events through the configured
//! telemetry sink. Requests past the budget run with a *quiet*
//! telemetry handle ([`yasksite_telemetry::Telemetry::quiet`]): no
//! events or spans, but counters and histograms keep aggregating, so
//! the trace stream stays bounded while `status` stays complete.
//! Queue wait, service time and end-to-end latency land in 60-second
//! rolling windows per request kind (and per tenant), which the
//! `status` operation digests to p50/p95/p99. With `--state-dir` the
//! same snapshot is rewritten atomically to `status.json` (at most once
//! a second, and on shutdown), so `yasksite top <state-dir>` can watch a
//! daemon without a socket. Telemetry stays purely observational:
//! responses are bitwise identical whether tracing is off, sampled, or
//! full.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, BufRead, ErrorKind, Read, Write};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{RecvTimeoutError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use yasksite_arch::Machine;
use yasksite_telemetry::json::{parse, write_f64, Json, ObjectWriter};
use yasksite_telemetry::{Level, RollingCounter, RollingHistogram, SpanGuard, Telemetry};

use crate::cache::{PredictKey, PredictionCache};
use crate::cli::{parse_triple, stencil_by_name};
use crate::drift::DriftLedger;
use crate::persist::{PersistentStore, PredictionRecord, MAX_RECORD_BYTES};
use crate::request::TuneRequest;
use crate::solution::Solution;
use crate::space::SearchSpace;
use crate::status::{
    CalibrationStatus, LatencyDigest, StatusSnapshot, TenantUsage, PROM_CONTENT_TYPE,
};
use crate::trial::{FallbackReason, FaultPlan, Provenance, TrialBudget, TrialConfig};
use crate::tuner::TuneStrategy;

/// Daemon-wide shutdown flag, set by the binary's SIGTERM/SIGINT handler
/// (and by tests). The serve loops poll it between requests.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The process-wide shutdown flag the signal handler stores into.
#[must_use]
pub fn shutdown_flag() -> &'static AtomicBool {
    &SHUTDOWN
}

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory for the crash-safe journals; `None` serves from memory
    /// only.
    pub state_dir: Option<PathBuf>,
    /// Bound on queued (accepted but unprocessed) requests; further
    /// requests are rejected with `"kind":"overloaded"`.
    pub queue_capacity: usize,
    /// Default per-request deadline in milliseconds when the request
    /// carries none; `None` never cancels.
    pub default_deadline_ms: Option<u64>,
    /// Per-tenant cap on measurement runs across the daemon's lifetime.
    pub tenant_runs: Option<usize>,
    /// Per-tenant cap on accumulated target seconds.
    pub tenant_secs: Option<f64>,
    /// Cap on drift records per `(stencil, params, cores)` key in the
    /// daemon's long-lived ledger (oldest evicted first).
    pub drift_cap: Option<usize>,
    /// Head-sampling budget: the first N requests are traced in full
    /// (spans + events); later requests run with a quiet handle that
    /// still aggregates metrics. `None` traces every request.
    pub trace_sample: Option<u64>,
    /// Telemetry handle all sessions record into.
    pub telemetry: Telemetry,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            state_dir: None,
            queue_capacity: 16,
            default_deadline_ms: None,
            tenant_runs: None,
            tenant_secs: None,
            drift_cap: Some(64),
            trace_sample: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Counters the daemon accumulates over its lifetime (returned when the
/// serve loop exits, and reported live by the `report` operation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests that reached the protocol handler.
    pub received: usize,
    /// Requests answered with `"ok":true`.
    pub completed: usize,
    /// Requests rejected because the queue was full.
    pub rejected_overload: usize,
    /// Requests rejected by tenant admission control.
    pub rejected_budget: usize,
    /// Requests answered with `"ok":false` for any other reason.
    pub rejected_bad: usize,
    /// Tuning sessions that degraded to analytic after a worker panic.
    pub degraded: usize,
    /// Journal appends or snapshots that failed (state kept in memory).
    pub persist_errors: usize,
}

/// Width of the rolling latency/rate window the `status` snapshot
/// covers, in seconds.
const STATUS_WINDOW_SECS: f64 = 60.0;

/// Shortest time between two writes of `status.json` (`yasksite top`
/// polls every 2 s by default).
const STATUS_PERIOD: Duration = Duration::from_secs(1);

/// Cap on distinct tenant keys in the per-tenant latency windows;
/// further tenants aggregate under `"other"` so a tenant-per-request
/// client cannot grow the daemon without bound.
const MAX_TENANT_WINDOWS: usize = 32;

/// The daemon's rolling observability windows: request rate plus
/// queue-wait / service / end-to-end latency histograms per request
/// kind and per tenant. Memory is bounded: kinds come from the fixed
/// protocol vocabulary, tenants are capped at [`MAX_TENANT_WINDOWS`],
/// and every histogram holds at most its slot budget.
struct ServeWindows {
    requests: RollingCounter,
    queue_wait_ms: BTreeMap<String, RollingHistogram>,
    service_ms: BTreeMap<String, RollingHistogram>,
    e2e_ms: BTreeMap<String, RollingHistogram>,
    tenant_e2e_ms: BTreeMap<String, RollingHistogram>,
}

fn window_entry<'a>(
    map: &'a mut BTreeMap<String, RollingHistogram>,
    key: &str,
) -> &'a mut RollingHistogram {
    if !map.contains_key(key) {
        map.insert(
            key.to_string(),
            RollingHistogram::for_latency_ms(STATUS_WINDOW_SECS),
        );
    }
    map.get_mut(key).expect("just inserted")
}

impl ServeWindows {
    fn new() -> Self {
        ServeWindows {
            requests: RollingCounter::new(STATUS_WINDOW_SECS, 8),
            queue_wait_ms: BTreeMap::new(),
            service_ms: BTreeMap::new(),
            e2e_ms: BTreeMap::new(),
            tenant_e2e_ms: BTreeMap::new(),
        }
    }

    fn record(
        &mut self,
        now: f64,
        kind: &str,
        tenant: Option<&str>,
        wait_ms: f64,
        service_ms: f64,
    ) {
        self.requests.add_at(now, 1);
        window_entry(&mut self.queue_wait_ms, kind).observe_at(now, wait_ms);
        window_entry(&mut self.service_ms, kind).observe_at(now, service_ms);
        window_entry(&mut self.e2e_ms, kind).observe_at(now, wait_ms + service_ms);
        if let Some(t) = tenant {
            let key = if self.tenant_e2e_ms.contains_key(t)
                || self.tenant_e2e_ms.len() < MAX_TENANT_WINDOWS
            {
                t
            } else {
                "other"
            };
            window_entry(&mut self.tenant_e2e_ms, key).observe_at(now, wait_ms + service_ms);
        }
    }

    fn digest(
        map: &BTreeMap<String, RollingHistogram>,
        now: f64,
    ) -> BTreeMap<String, LatencyDigest> {
        map.iter()
            .filter_map(|(k, h)| {
                let s = h.snapshot_at(now);
                s.percentiles().map(|p| {
                    (
                        k.clone(),
                        LatencyDigest {
                            count: p.count,
                            sum: s.sum,
                            p50: p.p50,
                            p95: p.p95,
                            p99: p.p99,
                        },
                    )
                })
            })
            .collect()
    }
}

/// Live counters of the request queue: written by the pumps and the
/// worker, read by `status`.
#[derive(Default)]
struct QueueGauges {
    /// Requests accepted but not yet dequeued.
    depth: AtomicUsize,
    /// Requests a pump rejected because the queue was full.
    overloads: AtomicUsize,
}

/// The daemon's long-lived state plus the protocol handler. One request
/// is processed at a time; the queue in front provides the backpressure.
pub struct ServeState {
    config: ServeConfig,
    store: Option<PersistentStore>,
    cache: Arc<PredictionCache>,
    ledger: DriftLedger,
    /// Per-tenant consumption, charged after each tuning session.
    tenants: HashMap<String, TenantUsage>,
    warmed: HashSet<u64>,
    stats: ServeStats,
    shutdown_requested: bool,
    /// Monotone request sequence; the source of request ids and of the
    /// head-sampling decision.
    seq: u64,
    /// When this state was built — the epoch of the rolling windows.
    started: Instant,
    windows: ServeWindows,
    /// Completed tuning sessions per winning tier name.
    tier_ran: BTreeMap<String, u64>,
    /// Completed tuning sessions whose winner planned onto a degraded
    /// tier, keyed by the planner's reason (a small fixed vocabulary).
    tier_degraded: BTreeMap<String, u64>,
    /// The serve loop's live queue counters (`None` when the state is
    /// driven directly, e.g. by tests).
    gauges: Option<Arc<QueueGauges>>,
    /// Calibration provenance of `<state-dir>/machine.calibrated`, when
    /// the daemon found one at startup. `age_secs` holds the file's age
    /// at load; snapshots add the uptime since.
    calibration: Option<CalibrationStatus>,
    /// When `status.json` was last written, and whether a request has
    /// been handled since.
    status_written: Option<Instant>,
    status_dirty: bool,
}

/// Name of the calibrated machine file a daemon looks for in its state
/// directory (the conventional `yasksite calibrate --out` target).
pub const CALIBRATED_MACHINE_FILE: &str = "machine.calibrated";

/// Loads the calibration provenance of `<dir>/machine.calibrated`, if
/// present and valid. Invalid files are reported, not fatal.
fn load_calibration(dir: &std::path::Path, tel: &Telemetry) -> Option<CalibrationStatus> {
    let path = dir.join(CALIBRATED_MACHINE_FILE);
    let text = std::fs::read_to_string(&path).ok()?;
    let age_secs = std::fs::metadata(&path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .map_or(0.0, |d| d.as_secs_f64());
    match yasksite_arch::parse_machine(&text) {
        Ok(m) => m.calibration.map(|c| CalibrationStatus {
            rev: c.rev,
            seed: c.seed,
            date: c.date,
            probes: c.measurements.len(),
            age_secs,
        }),
        Err(e) => {
            tel.error(&format!(
                "calibrated machine file '{}' unusable: {e}",
                path.display()
            ));
            tel.inc("serve.calibration_unusable");
            None
        }
    }
}

/// Opens a response line: every reply starts with the request id and the
/// verdict.
fn reply(id: &str, ok: bool) -> ObjectWriter {
    ObjectWriter::with_capacity(128)
        .str("id", id)
        .bool("ok", ok)
}

fn error_response(id: &str, kind: &str, message: &str) -> String {
    reply(id, false)
        .str("kind", kind)
        .str("error", message)
        .finish()
}

/// Extracts the request id from a raw line (string ids verbatim, numeric
/// ids stringified, everything else empty).
fn extract_id(parsed: &Json) -> String {
    match parsed.get("id") {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => {
            let mut s = String::new();
            write_f64(&mut s, *n);
            s
        }
        _ => String::new(),
    }
}

/// The rejection a pump writes when the request queue is full. Public
/// so the backpressure contract is directly testable.
#[must_use]
pub fn overload_response(line: &str) -> String {
    let id = parse(line).map(|j| extract_id(&j)).unwrap_or_default();
    error_response(&id, "overloaded", "request queue is full; retry later")
}

fn get_str<'a>(req: &'a Json, key: &str) -> Option<&'a str> {
    req.get(key).and_then(Json::as_str)
}

fn get_u64(req: &Json, key: &str) -> Option<u64> {
    req.get(key).and_then(Json::as_u64)
}

fn get_f64(req: &Json, key: &str) -> Option<f64> {
    req.get(key).and_then(Json::as_f64)
}

/// Builds a [`FaultPlan`] from the optional `"faults"` object of a tune
/// request (testing hook: lets harnesses exercise fallback, panic
/// isolation and I/O degradation through the protocol).
fn faults_from_json(obj: &Json) -> FaultPlan {
    let f = |key: &str, default: f64| get_f64(obj, key).unwrap_or(default);
    let base = FaultPlan::none();
    FaultPlan {
        seed: get_u64(obj, "seed").unwrap_or(base.seed),
        fail_prob: f("fail_prob", base.fail_prob),
        nan_prob: f("nan_prob", base.nan_prob),
        spike_prob: f("spike_prob", base.spike_prob),
        spike_factor: f("spike_factor", base.spike_factor),
        panic_prob: f("panic_prob", base.panic_prob),
        io_short_prob: f("io_short_prob", base.io_short_prob),
        io_corrupt_prob: f("io_corrupt_prob", base.io_corrupt_prob),
        io_enospc_prob: f("io_enospc_prob", base.io_enospc_prob),
    }
}

/// Resolves `stencil`/`domain`/`machine` request fields into a
/// [`Solution`].
fn solution_from_request(req: &Json) -> Result<(Solution, Machine, [usize; 3]), String> {
    let sname = get_str(req, "stencil").ok_or("'stencil' is required")?;
    let stencil = stencil_by_name(sname).ok_or_else(|| format!("unknown stencil '{sname}'"))?;
    let domain = parse_triple(get_str(req, "domain").ok_or("'domain' is required (AxBxC)")?)?;
    let mname = get_str(req, "machine").unwrap_or("clx");
    let machine = Machine::by_short_name(mname)
        .ok_or_else(|| format!("unknown machine '{mname}' (clx|rome|host)"))?;
    let sol = Solution::new(stencil, domain, machine.clone());
    Ok((sol, machine, domain))
}

impl ServeState {
    /// Builds the daemon state, opening (and if necessary recovering) the
    /// persistent store. A store that cannot be opened degrades the
    /// daemon to memory-only serving rather than failing startup.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        let tel = config.telemetry.clone();
        let store =
            config
                .state_dir
                .as_ref()
                .and_then(|dir| match PersistentStore::open(dir, &tel) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        tel.error(&format!("state dir '{}' unusable: {e}", dir.display()));
                        tel.inc("serve.state_degraded");
                        None
                    }
                });
        let state_degraded = config.state_dir.is_some() && store.is_none();
        let ledger = match config.drift_cap {
            Some(cap) => DriftLedger::bounded(cap),
            None => DriftLedger::new(),
        };
        let calibration = config
            .state_dir
            .as_ref()
            .and_then(|dir| load_calibration(dir, &tel));
        if let Some(c) = &calibration {
            tel.event(
                Level::Info,
                "calibration_loaded",
                0,
                &[
                    ("rev", c.rev.as_str().into()),
                    ("seed", c.seed.into()),
                    ("date", c.date.as_str().into()),
                    ("probes", c.probes.into()),
                    ("age_secs", c.age_secs.into()),
                ],
            );
        }
        let mut state = ServeState {
            config,
            store,
            cache: Arc::new(PredictionCache::new()),
            ledger,
            tenants: HashMap::new(),
            warmed: HashSet::new(),
            stats: ServeStats::default(),
            shutdown_requested: false,
            seq: 0,
            started: Instant::now(),
            windows: ServeWindows::new(),
            tier_ran: BTreeMap::new(),
            tier_degraded: BTreeMap::new(),
            gauges: None,
            calibration,
            status_written: None,
            status_dirty: false,
        };
        if state_degraded {
            state.stats.persist_errors += 1;
        }
        state
    }

    /// Lifetime counters so far.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Whether a `shutdown` request has been handled (the serve loop
    /// drains and exits once this is set).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested
    }

    /// The shared prediction cache (exposed for tests).
    #[must_use]
    pub fn cache(&self) -> &PredictionCache {
        &self.cache
    }

    /// Handles one request line, returning the response line (`None` for
    /// blank lines). Never panics and never exits: every failure becomes
    /// an `"ok":false` response.
    pub fn handle_line(&mut self, line: &str) -> Option<String> {
        self.handle_line_at(line, None)
    }

    /// [`ServeState::handle_line`] with the time the request spent in
    /// the admission queue (the worker measures it; direct callers go
    /// through `handle_line`, recorded as zero wait).
    fn handle_line_at(&mut self, line: &str, queue_wait: Option<Duration>) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        self.seq += 1;
        self.stats.received += 1;
        // Head sampling: the first `trace_sample` requests trace fully;
        // the rest run quiet (metrics aggregate, no events/spans), so a
        // long-lived daemon's trace stream stays bounded.
        let sampled = self.config.trace_sample.is_none_or(|n| self.seq <= n);
        let tel = if sampled {
            self.config.telemetry.clone()
        } else {
            self.config.telemetry.quiet()
        };
        tel.inc("serve.requests");
        if !sampled {
            tel.inc("serve.trace_unsampled");
        }
        let rid = format!("r{:06}", self.seq);
        let wait_ms = queue_wait.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        let service_start = Instant::now();
        let span = tel.span("request");
        tel.event(
            Level::Info,
            "request_start",
            span.id(),
            &[
                ("rid", rid.as_str().into()),
                ("queue_wait_ms", wait_ms.into()),
                ("sampled", sampled.into()),
            ],
        );
        let parsed = parse(line).map_err(|e| format!("invalid JSON: {e}"));
        let id = parsed.as_ref().map(extract_id).unwrap_or_default();
        let mut tenant = None;
        let (kind, outcome) = match parsed.as_ref().map(|req| (req, get_str(req, "op"))) {
            Err(e) => ("bad", Err(e.clone())),
            Ok((req, Some("tune"))) => {
                tenant = Some(get_str(req, "tenant").unwrap_or("anonymous").to_string());
                ("tune", self.op_tune(&id, req, &tel, &span))
            }
            Ok((req, Some("predict"))) => ("predict", self.op_predict(&id, req, &span)),
            Ok((_, Some("report"))) => ("report", Ok(self.op_report(&id))),
            Ok((req, Some("status"))) => ("status", Ok(self.op_status(&id, req))),
            Ok((_, Some("shutdown"))) => {
                self.shutdown_requested = true;
                self.stats.completed += 1;
                let ack = reply(&id, true)
                    .str("op", "shutdown")
                    .bool("draining", true);
                ("shutdown", Ok(ack.finish()))
            }
            Ok((_, Some(other))) => ("bad", Err(format!("unknown op '{other}'"))),
            Ok((_, None)) => ("bad", Err("'op' is required".to_string())),
        };
        // Every request the daemon cannot make sense of ends here: counted
        // once, answered `bad_request` with the reason.
        let response = outcome.unwrap_or_else(|reason| {
            self.stats.rejected_bad += 1;
            error_response(&id, "bad_request", &reason)
        });
        let service_ms = service_start.elapsed().as_secs_f64() * 1e3;
        let now = self.started.elapsed().as_secs_f64();
        self.windows
            .record(now, kind, tenant.as_deref(), wait_ms, service_ms);
        tel.observe("serve.service_ms", service_ms);
        tel.event(
            Level::Info,
            "request_end",
            span.id(),
            &[
                ("rid", rid.as_str().into()),
                ("kind", kind.into()),
                ("queue_wait_ms", wait_ms.into()),
                ("service_ms", service_ms.into()),
                ("e2e_ms", (wait_ms + service_ms).into()),
            ],
        );
        drop(span);
        self.status_dirty = true;
        self.publish_status_if_due();
        Some(response)
    }

    /// Warm-starts the cache for `sol` from the persistent store, once
    /// per solution per daemon lifetime. Returns `(loaded, stale)`.
    fn ensure_warm(&mut self, sol: &Solution) -> (usize, usize) {
        let Some(store) = &self.store else {
            return (0, 0);
        };
        if !self.warmed.insert(sol.signature()) {
            return (0, 0);
        }
        let stats = store.warm_solution(sol, &self.cache);
        if stats.stale > 0 {
            self.config
                .telemetry
                .add("serve.warm_stale", stats.stale as u64);
        }
        self.config
            .telemetry
            .add("serve.warm_loaded", stats.loaded as u64);
        (stats.loaded, stats.stale)
    }

    /// Remaining budget for `tenant` under the daemon caps.
    fn tenant_remaining(&self, tenant: &str) -> TrialBudget {
        let used = self.tenants.get(tenant).copied().unwrap_or_default();
        TrialBudget {
            max_runs: self
                .config
                .tenant_runs
                .map(|cap| cap.saturating_sub(used.runs)),
            max_seconds: self
                .config
                .tenant_secs
                .map(|cap| (cap - used.seconds).max(0.0)),
            runs_used: 0,
            seconds_used: 0.0,
        }
    }

    /// `Err` is the reason a request is malformed, here and in
    /// [`ServeState::op_predict`]; refusals of well-formed requests are
    /// `Ok` replies with their own `kind`.
    fn op_tune(
        &mut self,
        id: &str,
        req: &Json,
        tel: &Telemetry,
        parent: &SpanGuard,
    ) -> Result<String, String> {
        let (sol, machine, domain) = solution_from_request(req)?;
        let name = get_str(req, "strategy").unwrap_or("analytic");
        let strategy =
            TuneStrategy::parse(name).ok_or_else(|| format!("unknown strategy '{name}'"))?;
        let tenant = get_str(req, "tenant").unwrap_or("anonymous").to_string();

        // Admission control: reject before any work when the tenant has
        // nothing left; otherwise the session budget is capped at the
        // intersection of the request's asks and the tenant's remainder.
        let remaining = {
            let _admission = parent.child("admission");
            self.tenant_remaining(&tenant)
        };
        if remaining.max_runs == Some(0) || remaining.max_seconds.is_some_and(|s| s <= 0.0) {
            self.stats.rejected_budget += 1;
            tel.inc("serve.rejected_budget");
            return Ok(error_response(
                id,
                "tenant_budget_exhausted",
                &format!("tenant '{tenant}' has no measurement budget left"),
            ));
        }
        let mut budget = remaining;
        if let Some(r) = get_u64(req, "budget_runs") {
            let r = r as usize;
            budget.max_runs = Some(budget.max_runs.map_or(r, |m| m.min(r)));
        }
        if let Some(s) = get_f64(req, "budget_secs") {
            budget.max_seconds = Some(budget.max_seconds.map_or(s, |m| m.min(s)));
        }

        let mut trial = match get_u64(req, "samples") {
            Some(n) => TrialConfig {
                samples: (n as usize).max(1),
                ..TrialConfig::default()
            },
            None => TrialConfig::single_shot(),
        };
        let deadline_ms = get_u64(req, "deadline_ms").or(self.config.default_deadline_ms);
        if let Some(ms) = deadline_ms {
            trial = trial.deadline_at(Instant::now() + Duration::from_millis(ms));
        }

        let cores = get_u64(req, "cores").unwrap_or(1).max(1) as usize;
        let mut tune_req = TuneRequest::new(strategy)
            .cores(cores)
            .trial(trial)
            .budget(budget)
            .cache(Arc::clone(&self.cache))
            .telemetry(tel.clone());
        if let Some(cap) = self.config.drift_cap {
            tune_req = tune_req.drift_cap(cap);
        }
        if let Some(j) = get_u64(req, "jobs") {
            tune_req = tune_req.jobs((j as usize).max(1));
        }
        if let Some(obj) = req.get("faults") {
            tune_req = tune_req.faults(faults_from_json(obj));
        }

        let (warm_loaded, warm_stale) = self.ensure_warm(&sol);
        let space = SearchSpace::standard(sol.stencil(), domain, &machine);

        // Panic isolation: a poisoned measurement backend may panic
        // mid-session. Catch it and degrade this one request to a purely
        // analytic session (which runs no backend) instead of dying.
        let span = parent.child("tune");
        let attempt = catch_unwind(AssertUnwindSafe(|| sol.tune_space_with(&space, &tune_req)));
        let (result, degraded) = match attempt {
            Ok(r) => (r, false),
            Err(_) => {
                self.stats.degraded += 1;
                tel.inc("serve.panics");
                tel.event(
                    Level::Error,
                    "serve_panic_degraded",
                    span.id(),
                    &[("stencil", sol.stencil().name().into())],
                );
                let analytic = tune_req
                    .clone()
                    .budget(TrialBudget::runs(0))
                    .trial(TrialConfig::single_shot());
                let analytic = TuneRequest {
                    strategy: TuneStrategy::Analytic,
                    faults: None,
                    ..analytic
                };
                (sol.tune_space_with(&space, &analytic), true)
            }
        };
        drop(span);
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                self.stats.rejected_bad += 1;
                return Ok(error_response(id, "internal", &e.to_string()));
            }
        };

        // Charge the tenant what the session actually consumed.
        let use_entry = self.tenants.entry(tenant.clone()).or_default();
        use_entry.runs += result.budget.runs_used;
        use_entry.seconds += result.budget.seconds_used;

        // Tier mix: which execution tier the winner plans onto, and why
        // (the status snapshot's `tier_ran` / `tier_degraded` counters;
        // the shared registry's `tier.*` counters are bumped by the
        // tuner itself).
        *self.tier_ran.entry(result.tier.to_string()).or_insert(0) += 1;
        if result.tier_degraded() {
            *self
                .tier_degraded
                .entry(result.tier_reason.to_string())
                .or_insert(0) += 1;
        }

        // Fold the session's drift audit into the daemon ledger and the
        // journals, and journal the predictions this session added.
        self.ledger.absorb(&result.drift);
        let mut persisted = 0usize;
        if let Some(store) = &mut self.store {
            let _persist = parent.child("persist");
            for rec in result.drift.records() {
                if store.record_drift(rec).is_err() {
                    self.stats.persist_errors += 1;
                }
            }
            // A session without misses added nothing — unless it degraded
            // and re-ranked from the cache its aborted first attempt had
            // filled. So go by the candidates, not by hit flags.
            if result.cost.cache_misses > 0 || degraded {
                let signature = sol.signature();
                for p in space.candidates(cores) {
                    let key = PredictKey::new(signature, &p, cores);
                    if store.has_prediction(&key) {
                        continue;
                    }
                    let (perf, _) = self.cache.predict(&sol, &p, cores);
                    match store.record_prediction(PredictionRecord::new(key, &perf)) {
                        Ok(true) => persisted += 1,
                        Ok(false) => {}
                        Err(_) => self.stats.persist_errors += 1,
                    }
                }
            }
        }

        let deadline_fallbacks = result
            .provenances
            .iter()
            .filter(|p| {
                matches!(
                    p,
                    Provenance::PredictedFallback {
                        reason: FallbackReason::DeadlineExceeded
                    }
                )
            })
            .count();
        self.stats.completed += 1;
        let mut out = reply(id, true)
            .str("op", "tune")
            .str("best", &result.best.to_string())
            .num("best_mlups", result.best_score)
            .str("tier", &result.tier.to_string())
            .str("tier_reason", result.tier_reason)
            .bool("tier_degraded", result.tier_degraded())
            .bool("degraded", degraded)
            .uint("warm_loaded", warm_loaded as u64)
            .uint("warm_stale", warm_stale as u64)
            .uint("cache_hits", result.cost.cache_hits as u64)
            .uint("engine_runs", result.cost.engine_runs as u64)
            .uint("runs_used", result.budget.runs_used as u64)
            .uint("deadline_fallbacks", deadline_fallbacks as u64)
            .uint("drift_records", result.drift.len() as u64)
            .uint("persisted", persisted as u64)
            .str("tenant", &tenant);
        if let Some(p) = result.best_provenance {
            out = out.str("provenance", &p.to_string());
        }
        Ok(out.finish())
    }

    fn op_predict(&mut self, id: &str, req: &Json, parent: &SpanGuard) -> Result<String, String> {
        let (sol, machine, domain) = solution_from_request(req)?;
        let cores = get_u64(req, "cores").unwrap_or(1).max(1) as usize;
        let block = get_str(req, "block").map(parse_triple).transpose()?;
        let block = block.unwrap_or(domain);
        let fold = yasksite_grid::Fold::new(machine.lanes(), 1, 1);
        let wavefront = get_u64(req, "wavefront").unwrap_or(1).max(1) as usize;
        let params = yasksite_engine::TuningParams::new(block, fold)
            .threads(cores)
            .wavefront(wavefront);

        self.ensure_warm(&sol);
        let (perf, warm) = {
            let _predict = parent.child("predict");
            self.cache.predict(&sol, &params, cores)
        };
        // A miss is all this request added to the cache; every other key
        // was journaled by the request that computed it.
        if !warm {
            if let Some(store) = &mut self.store {
                let _persist = parent.child("persist");
                let key = PredictKey::new(sol.signature(), &params, cores);
                if store
                    .record_prediction(PredictionRecord::new(key, &perf))
                    .is_err()
                {
                    self.stats.persist_errors += 1;
                }
            }
        }
        self.stats.completed += 1;
        let out = reply(id, true)
            .str("op", "predict")
            .str("params", &params.to_string())
            .num("mlups", perf.mlups)
            .num("seconds_per_sweep", perf.seconds_per_sweep)
            .bool("wavefront_effective", perf.wavefront_effective)
            .bool("warm", warm);
        Ok(out.finish())
    }

    fn op_report(&mut self, id: &str) -> String {
        let s = self.stats;
        let mut out = reply(id, true)
            .str("op", "report")
            .uint("received", s.received as u64)
            .uint("completed", s.completed as u64)
            .uint("rejected_overload", s.rejected_overload as u64)
            .uint("rejected_budget", s.rejected_budget as u64)
            .uint("rejected_bad", s.rejected_bad as u64)
            .uint("degraded", s.degraded as u64)
            .uint("persist_errors", s.persist_errors as u64)
            .uint("cache_entries", self.cache.len() as u64)
            .uint("drift_records", self.ledger.len() as u64)
            .uint("drift_evictions", self.ledger.evictions() as u64)
            .uint("tenants", self.tenants.len() as u64);
        if let Some(store) = &self.store {
            out = out
                .bool("store_healthy", store.healthy())
                .uint("store_predictions", store.prediction_count() as u64)
                .uint("store_drift", store.drift_count() as u64)
                .uint("store_recoveries", store.recoveries().len() as u64);
        }
        self.stats.completed += 1;
        out.finish()
    }

    fn op_status(&mut self, id: &str, req: &Json) -> String {
        self.stats.completed += 1;
        let snap = self.status_snapshot();
        if get_str(req, "format") == Some("prom") {
            reply(id, true)
                .str("op", "status")
                .str("content_type", PROM_CONTENT_TYPE)
                .str("body", &snap.to_prometheus())
                .finish()
        } else {
            snap.to_json_response(id)
        }
    }

    /// The current observability snapshot: lifetime counters plus the
    /// rolling-window latency digests, as one plain-data struct (see
    /// [`StatusSnapshot`] for the rendered forms).
    #[must_use]
    pub fn status_snapshot(&self) -> StatusSnapshot {
        let now = self.started.elapsed().as_secs_f64();
        let pool = yasksite_engine::ExecPool::global().stats();
        let (queue_depth, overloads) = self.gauges.as_deref().map_or((0, 0), |g| {
            let read = |n: &AtomicUsize| n.load(Ordering::Relaxed);
            (read(&g.depth), read(&g.overloads))
        });
        StatusSnapshot {
            uptime_secs: now,
            window_secs: self.windows.requests.window_secs(),
            queue_depth,
            queue_capacity: self.config.queue_capacity.max(1),
            received: self.stats.received,
            completed: self.stats.completed,
            rejected_overload: self.stats.rejected_overload + overloads,
            rejected_budget: self.stats.rejected_budget,
            rejected_bad: self.stats.rejected_bad,
            degraded: self.stats.degraded,
            persist_errors: self.stats.persist_errors,
            rate_per_sec: self.windows.requests.rate_at(now),
            cache_entries: self.cache.len(),
            drift_records: self.ledger.len(),
            drift_suspects: self.ledger.suspect_count(),
            drift_evictions: self.ledger.evictions(),
            corrected_keys: self.ledger.per_key_corrections().len(),
            calibration: self.calibration.as_ref().map(|c| CalibrationStatus {
                age_secs: c.age_secs + now,
                ..c.clone()
            }),
            tenants: self.tenants.len(),
            trace_sample: self.config.trace_sample,
            queue_wait_ms: ServeWindows::digest(&self.windows.queue_wait_ms, now),
            service_ms: ServeWindows::digest(&self.windows.service_ms, now),
            e2e_ms: ServeWindows::digest(&self.windows.e2e_ms, now),
            tenant_e2e_ms: ServeWindows::digest(&self.windows.tenant_e2e_ms, now),
            tier_ran: self.tier_ran.clone(),
            tier_degraded: self.tier_degraded.clone(),
            tenant_use: self.tenants.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            pool_workers: pool.workers,
            pool_sweeps: pool.sweeps,
            pool_jobs: pool.jobs,
            store_healthy: self.store.as_ref().map(PersistentStore::healthy),
        }
    }

    /// Publishes `status.json` when a request was handled since the last
    /// write and none was written yet or [`STATUS_PERIOD`] has passed.
    /// Runs after every request and on the worker's idle tick, so the
    /// file trails a serve loop by at most the period plus one tick; a
    /// state driven directly catches up in [`ServeState::finish`].
    fn publish_status_if_due(&mut self) {
        if self.status_dirty
            && self
                .status_written
                .is_none_or(|at| at.elapsed() >= STATUS_PERIOD)
        {
            self.write_status_file();
        }
    }

    /// Rewrites `status.json` in the state directory (atomically, via a
    /// temp file + rename) so `yasksite top <state-dir>` can watch the
    /// daemon without a socket. A no-op when serving from memory only.
    fn write_status_file(&mut self) {
        let (Some(dir), Some(_)) = (self.config.state_dir.clone(), &self.store) else {
            return;
        };
        let body = self.status_snapshot().to_json_response("daemon");
        let tmp = dir.join("status.json.tmp");
        let path = dir.join("status.json");
        let wrote =
            std::fs::write(&tmp, body.as_bytes()).and_then(|()| std::fs::rename(&tmp, &path));
        if wrote.is_err() {
            self.stats.persist_errors += 1;
        }
        self.status_written = Some(Instant::now());
        self.status_dirty = false;
    }

    /// Graceful teardown: snapshot-compact the journals and emit the
    /// final telemetry. Called once after the serve loop drains.
    pub fn finish(&mut self) {
        if let Some(store) = &mut self.store {
            if store.compact().is_err() {
                self.stats.persist_errors += 1;
            }
        }
        self.write_status_file();
        let tel = &self.config.telemetry;
        tel.event(
            Level::Info,
            "serve_shutdown",
            0,
            &[
                ("received", self.stats.received.into()),
                ("completed", self.stats.completed.into()),
                ("rejected_overload", self.stats.rejected_overload.into()),
                ("degraded", self.stats.degraded.into()),
            ],
        );
    }
}

/// What a line source may do to the daemon: private constants
/// ([`LIMITS`]), not configuration. Tests shrink them.
#[derive(Clone, Copy)]
struct Limits {
    /// Longest request line, `\n` included; a longer one is answered
    /// `bad_request` and its source is closed.
    max_line: usize,
    /// Concurrent socket connections; excess ones get one `overloaded` line.
    max_connections: usize,
    /// A connection that completes no line for this long is dropped
    /// (minutes: a tenant thinking between requests is not idle).
    idle_cutoff: Duration,
    /// Socket read timeout: how often a waiting pump checks the above.
    read_tick: Duration,
    /// Socket write timeout: a reply that cannot be written for this long
    /// costs its connection, not the daemon.
    write_timeout: Duration,
}

const LIMITS: Limits = Limits {
    max_line: MAX_RECORD_BYTES,
    max_connections: 64,
    idle_cutoff: Duration::from_secs(300),
    read_tick: Duration::from_millis(100),
    write_timeout: Duration::from_secs(5),
};

/// How often the idle worker looks at the shutdown flag and at a due
/// `status.json`.
const WORKER_TICK: Duration = Duration::from_millis(50);

/// Stdin shutdown: how long the worker waits, per queue slot, for lines
/// the pump is still pushing (the tail of a piped script).
const STDIN_DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Where the replies to one source go, one flushed line each: answers
/// from the worker, rejections from the source's pump. A sink that fails
/// once (peer gone, or deaf for the write timeout) is dropped: it costs
/// the worker one timeout, not one per reply, and ends the source's pump.
#[derive(Clone)]
struct ReplyTo(Arc<Mutex<Option<Box<dyn Write + Send>>>>);

impl ReplyTo {
    fn new(out: Box<dyn Write + Send>) -> Self {
        ReplyTo(Arc::new(Mutex::new(Some(out))))
    }

    fn send(&self, line: &str) {
        let mut sink = self.0.lock().expect("writer poisoned");
        let failed = sink
            .as_mut()
            .is_some_and(|w| writeln!(w, "{line}").and_then(|()| w.flush()).is_err());
        if failed {
            *sink = None;
        }
    }

    fn dead(&self) -> bool {
        self.0.lock().expect("writer poisoned").is_none()
    }
}

/// An accepted line, when it was queued and where its reply goes.
struct Queued {
    line: String,
    enqueued: Instant,
    reply: ReplyTo,
}

/// The producer side of the bounded request queue, shared by every pump.
#[derive(Clone)]
struct Intake {
    /// `None` once intake has stopped. The only sender lives under this
    /// lock, which makes the stop exact: a line is either queued before it
    /// (and the worker's drain answers it) or refused after it.
    tx: Arc<Mutex<Option<mpsc::SyncSender<Queued>>>>,
    gauges: Arc<QueueGauges>,
    tel: Telemetry,
}

impl Intake {
    /// Queues `line`, or rejects it at once with `overloaded` when the
    /// queue is full: never blocks, never buffers without bound. `false`
    /// once intake has stopped.
    fn offer(&self, line: String, reply: &ReplyTo) -> bool {
        let rejected = {
            let tx = self.tx.lock().expect("intake poisoned");
            let Some(tx) = tx.as_ref() else {
                return false;
            };
            // Increment *before* try_send so a worker that dequeues
            // immediately always observes its matching increment — the
            // gauge can momentarily read one high, never drift.
            let d = self.gauges.depth.fetch_add(1, Ordering::Relaxed) + 1;
            self.tel.gauge("queue.depth", d as f64);
            let queued = Queued {
                line,
                enqueued: Instant::now(),
                reply: reply.clone(),
            };
            match tx.try_send(queued) {
                Ok(()) => return true,
                // `Full`: the receiver outlives the sender.
                Err(TrySendError::Full(q) | TrySendError::Disconnected(q)) => q,
            }
        };
        self.gauges.depth.fetch_sub(1, Ordering::Relaxed);
        self.gauges.overloads.fetch_add(1, Ordering::Relaxed);
        self.tel.inc("serve.rejected_overload");
        reply.send(&overload_response(&rejected.line));
        true
    }

    fn stop(&self) {
        self.tx.lock().expect("intake poisoned").take();
    }

    fn stopped(&self) -> bool {
        self.tx.lock().expect("intake poisoned").is_none()
    }
}

/// The one line pump: the bytes up to each `\n` (or to the end of the
/// source) become one queued request. Returns when the source ends, stops
/// speaking the protocol (an over-long line is answered `bad_request`,
/// invalid UTF-8 is not answered), idles past the cutoff, has a dead reply
/// sink, or intake stops. Reads that never time out (stdin) never idle.
fn pump(mut input: impl BufRead, reply: &ReplyTo, intake: &Intake, limits: &Limits) {
    // Bytes, not a `String`: a read that times out mid-line keeps what it
    // already appended, even when the cut falls inside a multi-byte
    // character, and the next read continues the line.
    let mut buf = Vec::new();
    let mut last_line = Instant::now();
    while !reply.dead() {
        // One byte past the cap tells an over-long line from one that fits.
        let room = (limits.max_line + 1 - buf.len()) as u64;
        match (&mut input).take(room).read_until(b'\n', &mut buf) {
            Ok(0) if buf.is_empty() => return,
            // A line — or, without its `\n`, the source's last words.
            Ok(_) => {
                if buf.len() > limits.max_line {
                    intake.tel.inc("serve.rejected_oversize");
                    let message = format!("request line exceeds {} bytes", limits.max_line);
                    return reply.send(&error_response("", "bad_request", &message));
                }
                let Ok(line) = std::str::from_utf8(&buf) else {
                    return;
                };
                if !line.trim().is_empty() && !intake.offer(line.to_string(), reply) {
                    return;
                }
                buf.clear();
                last_line = Instant::now();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if intake.stopped() || last_line.elapsed() >= limits.idle_cutoff {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// The daemon state, the intake for its pumps and the queue for [`work`].
fn open_daemon(config: ServeConfig) -> (ServeState, Intake, mpsc::Receiver<Queued>) {
    let (tx, rx) = mpsc::sync_channel(config.queue_capacity.max(1));
    let mut state = ServeState::new(config);
    let gauges = Arc::new(QueueGauges::default());
    state.gauges = Some(Arc::clone(&gauges));
    let intake = Intake {
        tx: Arc::new(Mutex::new(Some(tx))),
        gauges,
        tel: state.config.telemetry.clone(),
    };
    (state, intake, rx)
}

/// The one place a queued request is handled.
fn answer(state: &mut ServeState, intake: &Intake, q: Queued) {
    // The pump increments before try_send, so every dequeued line has a
    // matching increment; saturate anyway for safety.
    let depth = &intake.gauges.depth;
    let _ = depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
        Some(d.saturating_sub(1))
    });
    let d = depth.load(Ordering::Relaxed);
    intake.tel.gauge("queue.depth", d as f64);
    let wait = q.enqueued.elapsed();
    intake
        .tel
        .observe("queue.wait_ms", wait.as_secs_f64() * 1e3);
    if let Some(resp) = state.handle_line_at(&q.line, Some(wait)) {
        q.reply.send(&resp);
    }
}

/// The one worker: answers queued requests until a `shutdown` request,
/// `shutdown_when` (the SIGTERM path) or the end of every source. Then
/// lines a pump is pushing right now get `grace` per queue slot to arrive,
/// intake stops, everything it accepted is answered, and the state is
/// compacted.
fn work(
    mut state: ServeState,
    rx: &mpsc::Receiver<Queued>,
    intake: &Intake,
    shutdown_when: &AtomicBool,
    grace: Duration,
) -> ServeStats {
    while !shutdown_when.load(Ordering::Relaxed) && !state.shutdown_requested() {
        match rx.recv_timeout(WORKER_TICK) {
            Ok(q) => answer(&mut state, intake, q),
            Err(RecvTimeoutError::Timeout) => state.publish_status_if_due(),
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Bounded, so that shutdown stays prompt even against an input that
    // never stops producing.
    for _ in 0..state.config.queue_capacity.max(1) {
        match rx.recv_timeout(grace) {
            Ok(q) => answer(&mut state, intake, q),
            Err(_) => break,
        }
    }
    intake.stop();
    while let Ok(q) = rx.try_recv() {
        answer(&mut state, intake, q);
    }
    state.finish();
    let mut stats = state.stats();
    stats.rejected_overload += intake.gauges.overloads.load(Ordering::Relaxed);
    stats
}

/// Runs the daemon over an arbitrary line source and sink until EOF, a
/// `shutdown` request, or `shutdown_when` becomes true (the SIGTERM
/// path). Queued requests are drained before teardown; state is
/// compacted on the way out.
///
/// # Errors
/// Currently infallible (all I/O degradation is absorbed into
/// [`ServeStats`]); the `Result` keeps room for fatal setup errors.
pub fn serve<R>(
    config: ServeConfig,
    input: R,
    output: Box<dyn Write + Send>,
    shutdown_when: &AtomicBool,
) -> io::Result<ServeStats>
where
    R: BufRead + Send + 'static,
{
    let (state, intake, rx) = open_daemon(config);
    // Detached: a pump blocked on a quiet pipe must not prevent shutdown.
    // The end of its source is the end of intake.
    let source = intake.clone();
    std::thread::spawn(move || {
        pump(input, &ReplyTo::new(output), &source, &LIMITS);
        source.stop();
    });
    Ok(work(state, &rx, &intake, shutdown_when, STDIN_DRAIN_GRACE))
}

/// Runs the daemon over stdin/stdout (the `yasksite serve` default).
///
/// # Errors
/// See [`serve`].
pub fn serve_stdin(config: ServeConfig, shutdown_when: &AtomicBool) -> io::Result<ServeStats> {
    serve(
        config,
        io::BufReader::new(io::stdin()),
        Box::new(io::stdout()),
        shutdown_when,
    )
}

/// Accepts connections until intake stops, each getting its own [`pump`],
/// then waits for the pumps (each leaves within its read timeout). A
/// failed `accept` stops the daemon, as a failed bind would have.
#[cfg(unix)]
fn accept_loop(listener: &UnixListener, intake: &Intake, limits: Limits) -> io::Result<()> {
    let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let outcome = loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                intake.stop();
                break Err(e);
            }
        };
        // The worker's wake-up call, or a client racing it.
        if intake.stopped() {
            break Ok(());
        }
        pumps.retain(|p| !p.is_finished());
        let Ok(peer) = stream
            .set_read_timeout(Some(limits.read_tick))
            .and_then(|()| stream.set_write_timeout(Some(limits.write_timeout)))
            .and_then(|()| stream.try_clone())
        else {
            continue;
        };
        let reply = ReplyTo::new(Box::new(stream));
        if pumps.len() >= limits.max_connections {
            intake.tel.inc("serve.rejected_connections");
            let message = "too many connections; retry later";
            reply.send(&error_response("", "overloaded", message));
            continue;
        }
        let intake = intake.clone();
        pumps.push(std::thread::spawn(move || {
            pump(io::BufReader::new(peer), &reply, &intake, &limits);
        }));
    };
    for p in pumps {
        if p.join().is_err() {
            intake.tel.error("a connection pump panicked");
        }
    }
    outcome
}

/// Runs the daemon on a Unix socket: each connection is a line-delimited
/// request/response stream pumped into the same queue and worker as
/// stdin, so the same guarantees hold and an idle connection delays
/// nobody. The socket file is created fresh and removed on exit.
///
/// # Errors
/// Propagates socket bind and accept errors; per-connection I/O errors
/// only end that connection.
#[cfg(unix)]
pub fn serve_unix(
    config: ServeConfig,
    socket: &std::path::Path,
    shutdown_when: &AtomicBool,
) -> io::Result<ServeStats> {
    serve_unix_with(config, socket, shutdown_when, LIMITS)
}

#[cfg(unix)]
fn serve_unix_with(
    config: ServeConfig,
    socket: &std::path::Path,
    shutdown_when: &AtomicBool,
    limits: Limits,
) -> io::Result<ServeStats> {
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    let (state, intake, rx) = open_daemon(config);
    let acceptor = {
        let intake = intake.clone();
        std::thread::spawn(move || accept_loop(&listener, &intake, limits))
    };
    // No grace: socket clients see their connection close.
    let stats = work(state, &rx, &intake, shutdown_when, Duration::ZERO);
    // The acceptor sits in a blocking `accept`: a connection to our own
    // socket wakes it, and it finds intake stopped. If the path no longer
    // leads to the listener, nothing can; it is left to process exit.
    let woken = UnixStream::connect(socket).is_ok() || acceptor.is_finished();
    let _ = std::fs::remove_file(socket);
    if !woken {
        intake
            .tel
            .error("socket path vanished; acceptor left behind");
        return Ok(stats);
    }
    acceptor
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        .map(|()| stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "yasksite-serve-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    const NULL: Json = Json::Null;

    fn field<'a>(resp: &'a Json, key: &str) -> &'a Json {
        resp.get(key).unwrap_or(&NULL)
    }

    fn handle(state: &mut ServeState, line: &str) -> Json {
        let resp = state.handle_line(line).expect("non-empty line");
        parse(&resp).expect("response is valid JSON")
    }

    const TUNE: &str =
        r#"{"id":"t1","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","cores":2}"#;

    #[test]
    fn malformed_and_unknown_requests_are_rejected_not_fatal() {
        let mut state = ServeState::new(ServeConfig::default());
        let r = handle(&mut state, "{nope");
        assert_eq!(field(&r, "ok"), &Json::Bool(false));
        assert_eq!(field(&r, "kind").as_str(), Some("bad_request"));

        let r = handle(&mut state, r#"{"id":"x","op":"frobnicate"}"#);
        assert_eq!(field(&r, "kind").as_str(), Some("bad_request"));
        assert_eq!(field(&r, "id").as_str(), Some("x"));

        let r = handle(
            &mut state,
            r#"{"id":"y","op":"tune","stencil":"nope","domain":"8x8x8"}"#,
        );
        assert!(field(&r, "error")
            .as_str()
            .unwrap()
            .contains("unknown stencil"));
        assert_eq!(state.stats().rejected_bad, 3);
        assert_eq!(state.stats().completed, 0);
    }

    #[test]
    fn tune_and_predict_answer_and_share_the_cache() {
        let mut state = ServeState::new(ServeConfig::default());
        let r = handle(&mut state, TUNE);
        assert_eq!(field(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert!(field(&r, "best").as_str().unwrap().starts_with("b="));
        assert!(field(&r, "best_mlups").as_f64().unwrap() > 0.0);
        assert_eq!(field(&r, "degraded"), &Json::Bool(false));
        assert!(!state.cache().is_empty(), "tune populated the shared cache");

        // The identical tune again is served from the cache.
        let r2 = handle(&mut state, TUNE);
        assert!(field(&r2, "cache_hits").as_u64().unwrap() > 0);
        assert_eq!(
            field(&r2, "best").as_str(),
            field(&r, "best").as_str(),
            "cached session picks the same winner"
        );

        let p = handle(
            &mut state,
            r#"{"id":"p1","op":"predict","stencil":"heat-2d-r1","domain":"64x64x1","cores":2,"block":"64x8x1"}"#,
        );
        assert_eq!(field(&p, "ok"), &Json::Bool(true));
        assert!(field(&p, "mlups").as_f64().unwrap() > 0.0);
        let p2 = handle(
            &mut state,
            r#"{"id":"p2","op":"predict","stencil":"heat-2d-r1","domain":"64x64x1","cores":2,"block":"64x8x1"}"#,
        );
        assert_eq!(field(&p2, "warm"), &Json::Bool(true), "second predict hits");
    }

    #[test]
    fn tenant_admission_rejects_when_exhausted_and_caps_sessions() {
        let config = ServeConfig {
            tenant_runs: Some(6),
            ..ServeConfig::default()
        };
        let mut state = ServeState::new(config);
        let tune = |id: &str| {
            format!(
                r#"{{"id":"{id}","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","strategy":"empirical","tenant":"ci"}}"#
            )
        };
        let mut total_runs = 0usize;
        let mut rejected = false;
        for i in 0..6 {
            let r = handle(&mut state, &tune(&format!("t{i}")));
            if field(&r, "ok") == &Json::Bool(true) {
                total_runs += field(&r, "runs_used").as_u64().unwrap() as usize;
            } else {
                assert_eq!(
                    field(&r, "kind").as_str(),
                    Some("tenant_budget_exhausted"),
                    "{r:?}"
                );
                rejected = true;
                break;
            }
        }
        assert!(rejected, "the tenant cap must eventually reject");
        assert!(total_runs <= 6, "sessions never exceed the tenant cap");

        // A different tenant still gets service.
        let r = handle(
            &mut state,
            r#"{"id":"o","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","strategy":"empirical","tenant":"other"}"#,
        );
        assert_eq!(field(&r, "ok"), &Json::Bool(true));
    }

    #[test]
    fn panicking_backend_degrades_to_analytic_and_daemon_survives() {
        let mut state = ServeState::new(ServeConfig::default());
        let r = handle(
            &mut state,
            r#"{"id":"boom","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","strategy":"empirical","faults":{"seed":7,"panic_prob":1.0}}"#,
        );
        assert_eq!(field(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert_eq!(field(&r, "degraded"), &Json::Bool(true));
        assert!(field(&r, "best_mlups").as_f64().unwrap() > 0.0);
        assert_eq!(state.stats().degraded, 1);

        // The daemon still serves the next request normally.
        let r = handle(&mut state, TUNE);
        assert_eq!(field(&r, "ok"), &Json::Bool(true));
        assert_eq!(field(&r, "degraded"), &Json::Bool(false));
    }

    #[test]
    fn expired_deadline_cancels_trials_into_fallbacks() {
        let mut state = ServeState::new(ServeConfig::default());
        let r = handle(
            &mut state,
            r#"{"id":"d","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","strategy":"empirical","deadline_ms":0}"#,
        );
        assert_eq!(field(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert!(
            field(&r, "deadline_fallbacks").as_u64().unwrap() > 0,
            "an already-expired deadline cancels every trial: {r:?}"
        );
        assert_eq!(field(&r, "runs_used").as_u64(), Some(0));
    }

    #[test]
    fn status_snapshot_reports_queue_latency_tiers_and_drift() {
        let mut state = ServeState::new(ServeConfig::default());
        let _ = handle(&mut state, TUNE);
        let r = handle(&mut state, r#"{"id":"st","op":"status"}"#);
        assert_eq!(field(&r, "op").as_str(), Some("status"));
        let check = crate::status::validate_status_json(&r).expect("snapshot validates");
        assert!(
            check.latency_samples >= 1,
            "the tune request left latency samples in the window: {r:?}"
        );
        assert_eq!(field(&r, "schema").as_u64(), Some(1));
        assert_eq!(field(&r, "queue_capacity").as_u64(), Some(16));
        let Json::Obj(tiers) = field(&r, "tier_ran") else {
            panic!("tier_ran must be an object: {r:?}");
        };
        assert_eq!(
            tiers.iter().map(|(_, n)| n.as_u64().unwrap()).sum::<u64>(),
            1,
            "one tuning session → one tier_ran entry: {tiers:?}"
        );

        let p = handle(&mut state, r#"{"id":"pm","op":"status","format":"prom"}"#);
        assert_eq!(field(&p, "ok"), &Json::Bool(true));
        assert!(field(&p, "content_type")
            .as_str()
            .unwrap()
            .starts_with("text/plain"));
        let body = field(&p, "body").as_str().expect("prom body is a string");
        let samples = crate::status::validate_prometheus_text(body).expect("exposition validates");
        assert!(samples > 10, "exposition has real content: {samples}");
        assert!(body.contains("yasksite_queue_depth"));
        assert!(body.contains("yasksite_drift_suspects"));
        assert!(body.contains("yasksite_request_latency_ms{kind=\"tune\""));
        assert!(body.contains("yasksite_tier_ran_total{tier="));
    }

    #[test]
    fn tune_response_names_the_winning_tier() {
        let mut state = ServeState::new(ServeConfig::default());
        let r = handle(&mut state, TUNE);
        let tier = field(&r, "tier").as_str().expect("tier field present");
        assert!(
            ["folded", "scalar", "tape", "generic"].contains(&tier),
            "{r:?}"
        );
        assert!(!field(&r, "tier_reason").as_str().unwrap().is_empty());
        assert!(matches!(field(&r, "tier_degraded"), Json::Bool(_)));
    }

    #[test]
    fn head_sampling_bounds_the_trace_but_never_changes_responses() {
        let run = |trace_sample: Option<u64>| {
            let (tel, sink) = Telemetry::recording(Level::Debug);
            let mut state = ServeState::new(ServeConfig {
                trace_sample,
                telemetry: tel.clone(),
                ..ServeConfig::default()
            });
            let mut responses = Vec::new();
            for i in 0..3 {
                let line = format!(
                    r#"{{"id":"t{i}","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","cores":2}}"#
                );
                responses.push(state.handle_line(&line).unwrap());
            }
            tel.finish();
            let starts = sink
                .lines()
                .iter()
                .filter(|l| l.contains("\"ev\":\"request_start\""))
                .count();
            (responses, starts)
        };
        let (full, full_starts) = run(None);
        let (sampled, sampled_starts) = run(Some(1));
        assert_eq!(full, sampled, "sampling must never change responses");
        assert_eq!(full_starts, 3);
        assert_eq!(
            sampled_starts, 1,
            "only the first request is inside the head-sampling budget"
        );
    }

    #[test]
    fn status_file_lands_in_the_state_dir() {
        let dir = tmp_dir("statusfile");
        let mut state = ServeState::new(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let _ = handle(&mut state, TUNE);
        let text = std::fs::read_to_string(dir.join("status.json"))
            .expect("daemon rewrote status.json after the request");
        let j = parse(&text).expect("status.json is valid JSON");
        crate::status::validate_status_json(&j).expect("status.json validates");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_surfaces_calibration_from_the_state_dir() {
        let dir = tmp_dir("calibrated");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = crate::calibrate::CalibrateConfig {
            synthetic: true,
            quick: true,
            ..crate::calibrate::CalibrateConfig::new(7)
        };
        let outcome = crate::calibrate::calibrate(&cfg, &Telemetry::disabled())
            .expect("synthetic calibration is total");
        std::fs::write(
            dir.join(CALIBRATED_MACHINE_FILE),
            yasksite_arch::format_machine(&outcome.machine),
        )
        .unwrap();
        let mut state = ServeState::new(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let r = handle(&mut state, r#"{"id":"c","op":"status"}"#);
        let cal = field(&r, "calibration");
        assert_eq!(cal.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(
            cal.get("probes").and_then(Json::as_u64),
            Some(crate::calibrate::PROBE_NAMES.len() as u64)
        );
        assert!(cal.get("age_secs").and_then(Json::as_f64).unwrap() >= 0.0);
        assert_eq!(field(&r, "corrected_keys").as_u64(), Some(0));
        crate::status::validate_status_json(&r).expect("calibrated status validates");

        // A garbage machine file degrades to "no calibration", not a crash.
        std::fs::write(dir.join(CALIBRATED_MACHINE_FILE), "not a machine file").unwrap();
        let mut state = ServeState::new(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let r = handle(&mut state, r#"{"id":"c2","op":"status"}"#);
        assert!(r.get("calibration").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_and_shutdown_round_trip() {
        let mut state = ServeState::new(ServeConfig::default());
        let _ = handle(&mut state, TUNE);
        let r = handle(&mut state, r#"{"id":"r","op":"report"}"#);
        assert_eq!(field(&r, "ok"), &Json::Bool(true));
        assert_eq!(field(&r, "completed").as_u64(), Some(1));
        assert!(field(&r, "cache_entries").as_u64().unwrap() > 0);

        assert!(!state.shutdown_requested());
        let r = handle(&mut state, r#"{"id":"s","op":"shutdown"}"#);
        assert_eq!(field(&r, "draining"), &Json::Bool(true));
        assert!(state.shutdown_requested());
    }

    #[test]
    fn overload_response_carries_the_request_id() {
        let r = parse(&overload_response(r#"{"id":"q9","op":"tune"}"#)).unwrap();
        assert_eq!(field(&r, "ok"), &Json::Bool(false));
        assert_eq!(field(&r, "kind").as_str(), Some("overloaded"));
        assert_eq!(field(&r, "id").as_str(), Some("q9"));
        // Garbage lines still get a well-formed rejection.
        let r = parse(&overload_response("{oops")).unwrap();
        assert_eq!(field(&r, "kind").as_str(), Some("overloaded"));
    }

    /// Reply lines are a wire format. These bytes were captured before
    /// the replies moved onto `telemetry::json::ObjectWriter` and must
    /// not change with it.
    #[test]
    fn reply_bytes_are_pinned() {
        let mut state = ServeState::new(ServeConfig::default());
        let mut ask = |line: &str| state.handle_line(line).expect("non-empty line");
        let tune = ask(
            r#"{"id":"g1","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","cores":2,"tenant":"ci \"q\""}"#,
        );
        // The tune runs on simulated CLX, whose tier ignores
        // YASKSITE_FORCE_TIER, so every byte is fixed.
        assert_eq!(
            tune,
            concat!(
                r#"{"id":"g1","ok":true,"op":"tune","best":"b=64x32x1 fold=8x1x1 t=2 wf=1","#,
                r#""best_mlups":6597.938144329896,"tier":"folded","#,
                r#""tier_reason":"row-major fold: folded lane kernel","#,
                r#""tier_degraded":false,"degraded":false,"warm_loaded":0,"warm_stale":0,"#,
                r#""cache_hits":0,"engine_runs":0,"runs_used":0,"deadline_fallbacks":0,"#,
                r#""drift_records":0,"persisted":0,"tenant":"ci \"q\""}"#,
            )
        );
        assert_eq!(
            ask(
                r#"{"id":"g2","op":"predict","stencil":"heat-2d-r1","domain":"64x64x1","cores":2,"block":"64x8x1"}"#
            ),
            concat!(
                r#"{"id":"g2","ok":true,"op":"predict","params":"b=64x8x1 fold=8x1x1 t=2 wf=1","#,
                r#""mlups":6400,"seconds_per_sweep":0.00000064,"wavefront_effective":false,"warm":true}"#,
            )
        );
        assert_eq!(
            ask(r#"{"id":"g3","op":"report"}"#),
            concat!(
                r#"{"id":"g3","ok":true,"op":"report","received":3,"completed":2,"#,
                r#""rejected_overload":0,"rejected_budget":0,"rejected_bad":0,"degraded":0,"#,
                r#""persist_errors":0,"cache_entries":15,"drift_records":0,"drift_evictions":0,"#,
                r#""tenants":1}"#,
            )
        );
        assert_eq!(
            ask(r#"{"id":7,"op":"frobnicate"}"#),
            r#"{"id":"7","ok":false,"kind":"bad_request","error":"unknown op 'frobnicate'"}"#
        );
        assert_eq!(
            ask("{nope"),
            r#"{"id":"","ok":false,"kind":"bad_request","error":"invalid JSON: expected '\"' at byte 1"}"#
        );
        assert_eq!(
            ask(r#"{"id":"g4","op":"shutdown"}"#),
            r#"{"id":"g4","ok":true,"op":"shutdown","draining":true}"#
        );
        assert!(
            ask(r#"{"id":"g5","op":"status","format":"prom"}"#).starts_with(concat!(
                r#"{"id":"g5","ok":true,"op":"status","#,
                r#""content_type":"text/plain; version=0.0.4; charset=utf-8","#,
                r##""body":"# TYPE yasksite_up gauge\nyasksite_up 1\n"##,
            ))
        );
        assert_eq!(
            overload_response(r#"{"id":"q9","op":"tune"}"#),
            r#"{"id":"q9","ok":false,"kind":"overloaded","error":"request queue is full; retry later"}"#
        );

        let dir = tmp_dir("pinned");
        let mut state = ServeState::new(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let mut ask = |line: &str| state.handle_line(line).expect("non-empty line");
        assert_eq!(
            ask(
                r#"{"id":"g6","op":"predict","stencil":"heat-2d-r1","domain":"64x64x1","cores":2}"#
            ),
            concat!(
                r#"{"id":"g6","ok":true,"op":"predict","params":"b=64x64x1 fold=8x1x1 t=2 wf=1","#,
                r#""mlups":3333.333333333333,"seconds_per_sweep":0.0000012288000000000002,"#,
                r#""wavefront_effective":false,"warm":false}"#,
            )
        );
        assert_eq!(
            ask(r#"{"id":"g7","op":"report"}"#),
            concat!(
                r#"{"id":"g7","ok":true,"op":"report","received":2,"completed":1,"#,
                r#""rejected_overload":0,"rejected_budget":0,"rejected_bad":0,"degraded":0,"#,
                r#""persist_errors":0,"cache_entries":1,"drift_records":0,"drift_evictions":0,"#,
                r#""tenants":0,"store_healthy":true,"store_predictions":1,"store_drift":0,"#,
                r#""store_recoveries":0}"#,
            )
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn status_file_received(dir: &std::path::Path) -> u64 {
        let text = std::fs::read_to_string(dir.join("status.json")).expect("status.json exists");
        let j = parse(&text).expect("status.json is valid JSON");
        crate::status::validate_status_json(&j).expect("status.json validates");
        field(&j, "received").as_u64().unwrap()
    }

    #[test]
    fn status_file_is_published_on_a_cadence_and_on_finish() {
        let dir = tmp_dir("cadence");
        let mut state = ServeState::new(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let started = Instant::now();
        for i in 0..50 {
            let r = handle(
                &mut state,
                &format!(
                    r#"{{"id":"p{i}","op":"predict","stencil":"heat-2d-r1","domain":"64x64x1","block":"64x{}x1"}}"#,
                    i + 1
                ),
            );
            assert_eq!(field(&r, "ok"), &Json::Bool(true), "{r:?}");
        }
        if started.elapsed() < STATUS_PERIOD {
            assert_eq!(
                status_file_received(&dir),
                1,
                "50 requests inside one period: only the first wrote the file"
            );
        }
        // The idle tick publishes nothing before the period is over.
        state.publish_status_if_due();
        if started.elapsed() < STATUS_PERIOD {
            assert_eq!(status_file_received(&dir), 1);
        }
        state.finish();
        assert_eq!(
            status_file_received(&dir),
            50,
            "finish() writes the final counters"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn journal_len(dir: &std::path::Path) -> u64 {
        std::fs::metadata(dir.join("predictions.journal"))
            .expect("journal exists")
            .len()
    }

    #[test]
    fn a_request_journals_what_it_computed_and_a_repeat_journals_nothing() {
        let dir = tmp_dir("delta");
        let mut state = ServeState::new(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let store_predictions = |state: &mut ServeState| {
            let r = handle(state, r#"{"id":"r","op":"report"}"#);
            assert_eq!(field(&r, "persist_errors").as_u64(), Some(0));
            assert_eq!(
                field(&r, "store_predictions").as_u64(),
                field(&r, "cache_entries").as_u64(),
                "the store holds exactly what the cache holds: {r:?}"
            );
            field(&r, "store_predictions").as_u64().unwrap()
        };
        let predict = r#"{"id":"p","op":"predict","stencil":"heat-3d-r1","domain":"32x16x16","block":"32x4x4"}"#;
        let first = handle(&mut state, predict);
        assert_eq!(field(&first, "warm"), &Json::Bool(false));
        assert_eq!(store_predictions(&mut state), 1);
        let after_first = journal_len(&dir);
        let second = handle(&mut state, predict);
        assert_eq!(field(&second, "warm"), &Json::Bool(true));
        assert_eq!(store_predictions(&mut state), 1);
        assert_eq!(journal_len(&dir), after_first, "a hit appends nothing");

        let first = handle(&mut state, TUNE);
        let persisted = field(&first, "persisted").as_u64().unwrap();
        assert!(persisted > 0, "{first:?}");
        assert_eq!(store_predictions(&mut state), 1 + persisted);
        let after_tune = journal_len(&dir);
        let second = handle(&mut state, TUNE);
        assert_eq!(field(&second, "persisted").as_u64(), Some(0), "{second:?}");
        assert_eq!(
            journal_len(&dir),
            after_tune,
            "an all-hit tune appends nothing"
        );
        assert_eq!(
            field(&second, "best").as_str(),
            field(&first, "best").as_str()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An output sink tests can read back after the daemon exits.
    #[derive(Clone, Default)]
    struct VecOut(Arc<Mutex<Vec<u8>>>);

    impl Write for VecOut {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn run_serve(config: ServeConfig, script: &str) -> (ServeStats, Vec<Json>) {
        let out = VecOut::default();
        let shutdown = AtomicBool::new(false);
        let stats = serve(
            config,
            io::Cursor::new(script.to_string()),
            Box::new(out.clone()),
            &shutdown,
        )
        .expect("serve runs");
        let bytes = out.0.lock().unwrap().clone();
        let lines = String::from_utf8(bytes).unwrap();
        let responses = lines
            .lines()
            .map(|l| parse(l).expect("every response line is JSON"))
            .collect();
        (stats, responses)
    }

    #[test]
    fn serve_loop_processes_to_eof_and_persists_for_warm_restart() {
        let dir = tmp_dir("loop");
        let config = ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let script = format!("{TUNE}\n{}\n", r#"{"id":"r","op":"report"}"#);
        let (stats, responses) = run_serve(config.clone(), &script);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.rejected_overload, 0);
        assert_eq!(responses.len(), 2);
        assert_eq!(field(&responses[0], "warm_loaded").as_u64(), Some(0));
        assert!(field(&responses[1], "store_predictions").as_u64().unwrap() > 0);

        // Restart against the same state dir: the first tune warm-loads.
        let (stats2, responses2) = run_serve(config, &script);
        assert_eq!(stats2.completed, 2);
        assert!(
            field(&responses2[0], "warm_loaded").as_u64().unwrap() > 0,
            "restart warm-starts from the journals: {:?}",
            responses2[0]
        );
        assert!(field(&responses2[0], "cache_hits").as_u64().unwrap() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_request_drains_queued_work_before_exit() {
        // The shutdown line arrives before the last tune is processed;
        // the drain still answers everything already accepted.
        let script = format!(
            "{}\n{}\n{}\n",
            r#"{"id":"s","op":"shutdown"}"#, TUNE, r#"{"id":"r","op":"report"}"#
        );
        let (stats, responses) = run_serve(ServeConfig::default(), &script);
        assert_eq!(stats.received, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(responses.len(), 3);
        assert_eq!(field(&responses[0], "draining"), &Json::Bool(true));
        assert_eq!(field(&responses[1], "ok"), &Json::Bool(true));
    }

    /// A closed-loop socket client.
    #[cfg(unix)]
    struct Client {
        reader: io::BufReader<UnixStream>,
        writer: UnixStream,
    }

    #[cfg(unix)]
    impl Client {
        fn connect(socket: &std::path::Path) -> Client {
            let stream = loop {
                match UnixStream::connect(socket) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            Client {
                reader: io::BufReader::new(stream.try_clone().unwrap()),
                writer: stream,
            }
        }

        /// The next reply line; `None` when the daemon closed the
        /// connection (or, after 10 s, never answered).
        fn reply(&mut self) -> Option<Json> {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(n) if n > 0 => Some(parse(&line).expect("reply is JSON")),
                _ => None,
            }
        }

        fn ask(&mut self, line: &str) -> Option<Json> {
            self.writer.write_all(format!("{line}\n").as_bytes()).ok()?;
            self.reply()
        }
    }

    /// Raises the shutdown flag when the client half of a test ends —
    /// also by a failed assertion, which must not leave the daemon (and
    /// with it the test) running forever.
    #[cfg(unix)]
    struct Raise<'a>(&'a AtomicBool);

    #[cfg(unix)]
    impl Drop for Raise<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    /// Runs a socket daemon under `limits` while `client` talks to it, then
    /// raises the shutdown flag. That this returns at all means the
    /// acceptor and every pump were joined.
    #[cfg(unix)]
    fn with_daemon<T>(
        tag: &str,
        limits: Limits,
        client: impl FnOnce(&std::path::Path) -> T,
    ) -> (ServeStats, T) {
        let dir = tmp_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("ys.sock");
        let shutdown = AtomicBool::new(false);
        let out = std::thread::scope(|s| {
            let daemon =
                s.spawn(|| serve_unix_with(ServeConfig::default(), &socket, &shutdown, limits));
            let out = {
                let _raise = Raise(&shutdown);
                client(&socket)
            };
            let stats = daemon.join().expect("daemon thread").expect("daemon runs");
            (stats, out)
        });
        assert!(!socket.exists(), "the socket file is removed on exit");
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    const PREDICT: &str =
        r#"{"id":"p","op":"predict","stencil":"heat-2d-r1","domain":"64x64x1","cores":2}"#;

    #[cfg(unix)]
    fn is_ok(reply: Option<Json>) -> bool {
        reply.is_some_and(|r| field(&r, "ok") == &Json::Bool(true))
    }

    #[cfg(unix)]
    #[test]
    fn an_idle_connection_delays_nobody() {
        let (stats, ()) = with_daemon("idle", LIMITS, |socket| {
            // A connects first and says nothing.
            let mut a = Client::connect(socket);
            let mut b = Client::connect(socket);
            assert!(is_ok(b.ask(PREDICT)), "B is answered while A idles");
            assert!(is_ok(b.ask(r#"{"id":"s","op":"status"}"#)));
            // A, still connected, is served when it does speak.
            let r = a.ask(r#"{"id":"r","op":"report"}"#).expect("A is answered");
            assert_eq!(field(&r, "received").as_u64(), Some(3));
        });
        assert_eq!(stats.completed, 3);
    }

    #[cfg(unix)]
    #[test]
    fn an_over_long_line_is_refused_and_its_connection_closed() {
        let limits = Limits {
            max_line: 256,
            ..LIMITS
        };
        let (stats, ()) = with_daemon("overlong", limits, |socket| {
            // Never a newline: the daemon must not wait for one.
            let mut hostile = Client::connect(socket);
            hostile.writer.write_all(&[b'x'; 257]).unwrap();
            let r = hostile.reply().expect("the refusal is written");
            assert_eq!(field(&r, "kind").as_str(), Some("bad_request"));
            assert!(field(&r, "error").as_str().unwrap().contains("256 bytes"));
            assert!(hostile.reply().is_none(), "then the connection closes");

            // Exactly the cap, terminator included, still fits.
            let mut fits = PREDICT.to_string();
            fits.push_str(&" ".repeat(255 - PREDICT.len()));
            assert_eq!(fits.len() + 1, 256);
            assert!(is_ok(Client::connect(socket).ask(&fits)));
        });
        assert_eq!(
            stats.received, 1,
            "the over-long line never reached the handler"
        );
    }

    #[cfg(unix)]
    #[test]
    fn connections_past_the_cap_get_one_overloaded_line() {
        let limits = Limits {
            max_connections: 2,
            ..LIMITS
        };
        with_daemon("conncap", limits, |socket| {
            // Answered, hence accepted and live.
            let mut a = Client::connect(socket);
            let mut b = Client::connect(socket);
            assert!(is_ok(a.ask(PREDICT)) && is_ok(b.ask(PREDICT)));
            let mut c = Client::connect(socket);
            let r = c.reply().expect("the refusal is written unasked");
            assert_eq!(field(&r, "kind").as_str(), Some("overloaded"));
            assert!(c.reply().is_none(), "then the connection closes");
            // A leaves; once its pump has gone the slot is free again.
            drop(a);
            let served = (0..400).any(|_| {
                std::thread::sleep(Duration::from_millis(5));
                is_ok(Client::connect(socket).ask(PREDICT))
            });
            assert!(served, "a freed slot is reusable");
            assert!(is_ok(b.ask(PREDICT)), "B never noticed");
        });
    }

    #[cfg(unix)]
    #[test]
    fn a_connection_that_completes_no_line_is_dropped_after_the_cutoff() {
        let cutoff = Duration::from_millis(500);
        let limits = Limits {
            idle_cutoff: cutoff,
            read_tick: Duration::from_millis(20),
            ..LIMITS
        };
        with_daemon("cutoff", limits, |socket| {
            let mut c = Client::connect(socket);
            // Three requests 0.4 cutoffs apart: each completed line
            // restarts the clock, so the connection outlives 1.2 cutoffs.
            for _ in 0..3 {
                std::thread::sleep(cutoff.mul_f64(0.4));
                assert!(is_ok(c.ask(PREDICT)));
            }
            // Half a line is not a line.
            c.writer.write_all(b"{\"id\":").unwrap();
            let idle_since = Instant::now();
            assert!(c.reply().is_none(), "dropped, not answered");
            assert!(
                idle_since.elapsed() < Duration::from_secs(5),
                "dropped by the cutoff"
            );
        });
    }

    #[cfg(unix)]
    #[test]
    fn a_client_that_stops_reading_loses_its_connection_not_the_daemon() {
        let limits = Limits {
            write_timeout: Duration::from_millis(100),
            ..LIMITS
        };
        with_daemon("noread", limits, |socket| {
            let mut deaf = Client::connect(socket);
            let mut good = Client::connect(socket);
            std::thread::scope(|s| {
                // Requests without end, replies never read: the kernel
                // buffers fill, a reply cannot be written, the daemon
                // hangs up and the writes start failing.
                let flood = s.spawn(|| {
                    let give_up = Instant::now() + Duration::from_secs(30);
                    while Instant::now() < give_up {
                        if deaf
                            .writer
                            .write_all(b"{\"id\":\"s\",\"op\":\"status\"}\n")
                            .is_err()
                        {
                            return true;
                        }
                    }
                    false
                });
                // The flood owns the queue, so `overloaded` is a fair
                // answer here; silence is not.
                while !flood.is_finished() {
                    assert!(good.ask(PREDICT).is_some(), "answered throughout");
                }
                assert!(flood.join().unwrap(), "the deaf client was disconnected");
            });
            // What the flood left in the queue drains; then it is `ok` again.
            assert!((0..1000).any(|_| is_ok(good.ask(PREDICT))));
        });
    }

    #[cfg(unix)]
    #[test]
    fn a_shutdown_request_on_the_socket_is_acknowledged_with_clients_still_connected() {
        let (stats, ()) = with_daemon("sockdown", LIMITS, |socket| {
            let _idle = Client::connect(socket);
            let mut c = Client::connect(socket);
            assert!(is_ok(c.ask(PREDICT)));
            let r = c
                .ask(r#"{"id":"x","op":"shutdown"}"#)
                .expect("acknowledged");
            assert_eq!(field(&r, "draining"), &Json::Bool(true));
            // Both connections stay open past the daemon's exit: its pumps
            // leave on their read timeout, not when the clients hang up.
            let gone = (0..400).any(|_| {
                std::thread::sleep(Duration::from_millis(5));
                !socket.exists()
            });
            assert!(gone, "the daemon exits with clients still connected");
        });
        assert_eq!((stats.received, stats.completed), (2, 2));
    }

    #[cfg(unix)]
    #[test]
    fn socket_request_straddling_the_read_timeout_is_answered_once() {
        use std::os::unix::net::UnixStream;

        let dir = tmp_dir("straddle");
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("ys.sock");
        let line =
            r#"{"id":"pé","op":"predict","stencil":"heat-2d-r1","domain":"64x64x1","cores":2}"#;
        // Cut inside the two-byte 'é', so the first half is not even
        // valid UTF-8 on its own.
        let cut = line.find('é').unwrap() + 1;
        let shutdown = AtomicBool::new(false);
        let (stats, reply) = std::thread::scope(|s| {
            let daemon = s.spawn(|| serve_unix(ServeConfig::default(), &socket, &shutdown));
            let mut stream = loop {
                match UnixStream::connect(&socket) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            stream.write_all(&line.as_bytes()[..cut]).unwrap();
            // Longer than the 50 ms accept poll plus the daemon's 100 ms
            // read timeout: its read of the first half has timed out at
            // least once before the rest arrives.
            std::thread::sleep(Duration::from_millis(300));
            stream.write_all(&line.as_bytes()[cut..]).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut reply = String::new();
            io::BufReader::new(&stream).read_line(&mut reply).unwrap();
            shutdown.store(true, Ordering::Relaxed);
            drop(stream);
            let stats = daemon.join().expect("daemon thread").expect("daemon runs");
            (stats, reply)
        });
        let reply = parse(&reply).expect("reply is JSON");
        assert_eq!(field(&reply, "ok"), &Json::Bool(true), "{reply:?}");
        assert_eq!(field(&reply, "id").as_str(), Some("pé"));
        assert_eq!(stats.received, 1, "one line, one request");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected_bad, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
