//! Command-line front end helpers for the `yasksite` binary.
//!
//! The binary mirrors the workflows of the original tool's CLI: inspect
//! the built-in machines and stencils, predict or measure a
//! configuration, run the tuner, or dump generated kernel source. All
//! argument parsing lives here so it can be unit-tested.

use std::collections::HashMap;
use std::path::PathBuf;

use yasksite_arch::Machine;
use yasksite_engine::TuningParams;
use yasksite_grid::Fold;
use yasksite_stencil::{builders, Stencil};

use crate::telemetry::{Level, Telemetry};
use crate::{ServeConfig, ToolError, TrialBudget, TrialConfig, TuneRequest, TuneStrategy};

/// Parses `"512x8x8"`-style extent triples.
///
/// # Errors
/// Returns a message if the string is not three positive integers joined
/// by `x`.
pub fn parse_triple(s: &str) -> Result<[usize; 3], String> {
    let parts: Vec<&str> = s.split('x').collect();
    if parts.len() != 3 {
        return Err(format!("expected AxBxC, got '{s}'"));
    }
    let mut out = [0usize; 3];
    for (d, p) in parts.iter().enumerate() {
        out[d] = p
            .parse::<usize>()
            .map_err(|_| format!("'{p}' is not a number in '{s}'"))?;
        if out[d] == 0 {
            return Err(format!("extent must be positive in '{s}'"));
        }
    }
    Ok(out)
}

/// Flags that take no value (presence alone switches them on).
pub const BOOLEAN_FLAGS: &[&str] = &["metrics", "profile", "once", "check", "quick", "synthetic"];

/// Splits `--key value` pairs into a map; returns positional arguments
/// separately. Flags listed in [`BOOLEAN_FLAGS`] consume no value and
/// map to `"true"`.
///
/// # Errors
/// Returns a message if a value-taking `--key` has no value.
pub fn parse_flags(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if BOOLEAN_FLAGS.contains(&key) {
                flags.insert(key.to_string(), "true".to_string());
                continue;
            }
            let val = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            flags.insert(key.to_string(), val.clone());
        } else {
            pos.push(a.clone());
        }
    }
    Ok((pos, flags))
}

/// Looks up a stencil by its table name (e.g. `"heat-3d-r1"`,
/// `"box-3d-r2"`, `"star-2d-r2"`, `"heat-3d-vc"`).
#[must_use]
pub fn stencil_by_name(name: &str) -> Option<Stencil> {
    if let Some(s) = builders::suite_stencil(name) {
        return Some(s);
    }
    // Parametric families not in the fixed suite.
    let parse_r = |prefix: &str| -> Option<usize> { name.strip_prefix(prefix)?.parse().ok() };
    if let Some(r) = parse_r("heat-3d-r") {
        return Some(builders::heat3d(r));
    }
    if let Some(r) = parse_r("heat-2d-r") {
        return Some(builders::heat2d(r));
    }
    if let Some(r) = parse_r("box-3d-r") {
        return Some(builders::box3d(r));
    }
    if let Some(r) = parse_r("star-3d-r") {
        return Some(builders::star3d(r, &vec![0.5; r + 1]));
    }
    None
}

/// Builds [`TuningParams`] from parsed flags, defaulting the block to the
/// domain and the fold to the machine's in-line fold.
///
/// # Errors
/// Returns a message on malformed values.
pub fn params_from_flags(
    flags: &HashMap<String, String>,
    domain: [usize; 3],
    machine: &Machine,
) -> Result<TuningParams, String> {
    let block = match flags.get("block") {
        Some(b) => parse_triple(b)?,
        None => domain,
    };
    let fold = match flags.get("fold") {
        Some(f) => {
            let t = parse_triple(f)?;
            Fold::new(t[0], t[1], t[2])
        }
        None => Fold::new(machine.lanes(), 1, 1),
    };
    let cores: usize = flags.get("cores").map_or(Ok(1), |c| {
        c.parse().map_err(|_| format!("bad --cores '{c}'"))
    })?;
    let wavefront: usize = flags.get("wavefront").map_or(Ok(1), |w| {
        w.parse().map_err(|_| format!("bad --wavefront '{w}'"))
    })?;
    Ok(TuningParams::new(block, fold)
        .threads(cores.max(1))
        .wavefront(wavefront.max(1))
        .streaming_stores(flags.get("nt-stores").is_some_and(|v| v == "true")))
}

/// Resolves the `--machine` flag (default: `clx`), or loads a custom
/// model from `--machine-file <path>` (see
/// [`yasksite_arch::parse_machine`] for the format).
///
/// # Errors
/// Returns [`ToolError::InvalidInput`] for unknown machine names or
/// unreadable files, and [`ToolError::MachineFile`] — carrying the line
/// number and error kind — for malformed or invalid model files.
pub fn machine_from_flags(flags: &HashMap<String, String>) -> Result<Machine, ToolError> {
    if let Some(path) = flags.get("machine-file") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ToolError::InvalidInput(format!("cannot read '{path}': {e}")))?;
        return yasksite_arch::parse_machine(&text).map_err(ToolError::from);
    }
    let name = flags.get("machine").map_or("clx", String::as_str);
    Machine::by_short_name(name)
        .ok_or_else(|| ToolError::InvalidInput(format!("unknown machine '{name}' (clx|rome|host)")))
}

/// Builds the trial protocol and budget from parsed flags:
/// `--samples N`, `--warmup N`, `--retries N`, `--budget-runs N`,
/// `--budget-secs S`. With none of the protocol flags given the legacy
/// single-shot protocol is used (one run per candidate, no retries).
///
/// # Errors
/// Returns a message on malformed values.
pub fn trials_from_flags(
    flags: &HashMap<String, String>,
) -> Result<(TrialConfig, TrialBudget), String> {
    let get = |key: &str| -> Result<Option<usize>, String> {
        flags
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("bad --{key} '{v}'")))
            .transpose()
    };
    let samples = get("samples")?;
    let warmup = get("warmup")?;
    let retries = get("retries")?;
    let mut cfg = if samples.is_none() && warmup.is_none() && retries.is_none() {
        TrialConfig::single_shot()
    } else {
        TrialConfig::default()
    };
    if let Some(s) = samples {
        cfg.samples = s.max(1);
    }
    if let Some(w) = warmup {
        cfg.warmup = w;
    }
    if let Some(r) = retries {
        cfg.max_retries = r;
    }
    let mut budget = TrialBudget::unlimited();
    budget.max_runs = get("budget-runs")?;
    budget.max_seconds = flags
        .get("budget-secs")
        .map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or_else(|| format!("bad --budget-secs '{v}'"))
        })
        .transpose()?;
    Ok((cfg, budget))
}

/// Builds the full [`TuneRequest`] for the `tune` command from parsed
/// flags: `--strategy analytic|hybrid|empirical`, `--cores N`,
/// `--jobs N` (default: `YASKSITE_JOBS` or the available parallelism),
/// plus the trial protocol and budget flags of [`trials_from_flags`].
/// This is the single config path the CLI and library share.
///
/// # Errors
/// Returns a message on malformed values or an unknown strategy.
pub fn request_from_flags(flags: &HashMap<String, String>) -> Result<TuneRequest, String> {
    let name = flags.get("strategy").map_or("analytic", String::as_str);
    let strategy = TuneStrategy::parse(name).ok_or_else(|| format!("unknown strategy '{name}'"))?;
    let cores: usize = flags.get("cores").map_or(Ok(1), |c| {
        c.parse().map_err(|_| format!("bad --cores '{c}'"))
    })?;
    let (cfg, budget) = trials_from_flags(flags)?;
    let mut req = TuneRequest::new(strategy)
        .cores(cores.max(1))
        .trial(cfg)
        .budget(budget);
    if let Some(j) = flags.get("jobs") {
        let jobs: usize = j.parse().map_err(|_| format!("bad --jobs '{j}'"))?;
        req = req.jobs(jobs.max(1));
    }
    if flags.contains_key("profile") {
        req = req.profile();
    }
    if let Some(c) = flags.get("drift-cap") {
        let cap: usize = c.parse().map_err(|_| format!("bad --drift-cap '{c}'"))?;
        req = req.drift_cap(cap);
    }
    Ok(req)
}

/// Builds the daemon configuration for `yasksite serve` from parsed
/// flags — `--state-dir DIR` (crash-safe journals), `--queue N`
/// (bounded request queue, default 16), `--deadline-ms MS` (default
/// per-request watchdog), `--tenant-runs N` / `--tenant-secs S`
/// (per-tenant admission caps), `--drift-cap N` (ledger bound per key,
/// default 64), `--trace-sample N` (trace only the first N requests in
/// full; the rest keep counters but emit no events) — plus the optional
/// `--socket PATH` to serve on a Unix socket instead of stdin. The
/// caller attaches the telemetry handle.
///
/// # Errors
/// Returns a message on malformed values.
pub fn serve_config_from_flags(
    flags: &HashMap<String, String>,
) -> Result<(ServeConfig, Option<PathBuf>), String> {
    let mut config = ServeConfig {
        state_dir: flags.get("state-dir").map(PathBuf::from),
        ..ServeConfig::default()
    };
    let usize_flag = |key: &str| -> Result<Option<usize>, String> {
        flags
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("bad --{key} '{v}'")))
            .transpose()
    };
    if let Some(q) = usize_flag("queue")? {
        config.queue_capacity = q.max(1);
    }
    config.default_deadline_ms = flags
        .get("deadline-ms")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("bad --deadline-ms '{v}'"))
        })
        .transpose()?;
    config.tenant_runs = usize_flag("tenant-runs")?;
    config.tenant_secs = flags
        .get("tenant-secs")
        .map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or_else(|| format!("bad --tenant-secs '{v}'"))
        })
        .transpose()?;
    if let Some(cap) = usize_flag("drift-cap")? {
        config.drift_cap = Some(cap);
    }
    config.trace_sample = flags
        .get("trace-sample")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("bad --trace-sample '{v}'"))
        })
        .transpose()?;
    let socket = flags.get("socket").map(PathBuf::from);
    Ok((config, socket))
}

/// Parsed options of the `yasksite top` dashboard command.
#[derive(Debug, Clone, PartialEq)]
pub struct TopOptions {
    /// Render one frame and exit instead of polling.
    pub once: bool,
    /// Validate the snapshot (and Prometheus exposition with
    /// `--format prom`) instead of rendering; exit non-zero on failure.
    pub check: bool,
    /// Seconds between frames when polling (default 2.0).
    pub interval_secs: f64,
    /// `--format prom` requests the Prometheus text exposition.
    pub prometheus: bool,
}

/// Builds the `yasksite top` options from parsed flags: `--once`,
/// `--check`, `--interval SECS` (default 2), `--format json|prom`.
///
/// # Errors
/// Returns a message on a malformed interval or unknown format.
pub fn top_options_from_flags(flags: &HashMap<String, String>) -> Result<TopOptions, String> {
    let interval_secs = flags
        .get("interval")
        .map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or_else(|| format!("bad --interval '{v}'"))
        })
        .transpose()?
        .unwrap_or(2.0);
    let prometheus = match flags.get("format").map(String::as_str) {
        None | Some("json") => false,
        Some("prom") => true,
        Some(other) => return Err(format!("bad --format '{other}' (json|prom)")),
    };
    Ok(TopOptions {
        once: flags.contains_key("once"),
        check: flags.contains_key("check"),
        interval_secs,
        prometheus,
    })
}

/// Builds the session [`Telemetry`] from parsed flags:
/// `--trace-out FILE.jsonl` streams JSONL events to a file,
/// `--metrics` collects metrics and spans without an event stream, and
/// `--log-level error|info|debug` filters non-span events (default:
/// `debug`). Without any of these the handle is disabled and tuning runs
/// at zero observability overhead.
///
/// # Errors
/// Returns a message for an unknown `--log-level` or an unwritable
/// `--trace-out` path.
pub fn telemetry_from_flags(flags: &HashMap<String, String>) -> Result<Telemetry, String> {
    let level = match flags.get("log-level") {
        Some(s) => {
            Level::parse(s).ok_or_else(|| format!("bad --log-level '{s}' (error|info|debug)"))?
        }
        None => Level::Debug,
    };
    if let Some(path) = flags.get("trace-out") {
        return Telemetry::to_file(path, level)
            .map_err(|e| format!("cannot open trace file '{path}': {e}"));
    }
    if flags.contains_key("metrics") {
        return Ok(Telemetry::null(level));
    }
    Ok(Telemetry::disabled())
}

/// A classified CLI failure: a stable kind tag for scripts, the original
/// message, and (when the kind implies one) a recovery hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReport {
    /// Stable machine-matchable category: `usage`, `io`, `trace-io`,
    /// `trace-schema`, `status-missing` or `runtime`.
    pub kind: &'static str,
    /// The underlying error message, verbatim.
    pub message: String,
    /// One-line recovery suggestion, when the category implies one.
    pub hint: Option<&'static str>,
}

impl ErrorReport {
    /// Classifies a CLI error message into a kind and hint. The message
    /// itself is preserved verbatim so scripted callers matching on
    /// substrings (e.g. `unknown stencil`) keep working.
    #[must_use]
    pub fn classify(message: &str) -> ErrorReport {
        let (kind, hint): (&'static str, Option<&'static str>) =
            if message.contains("unknown stencil") {
                (
                    "usage",
                    Some("run 'yasksite stencils' to list the known names"),
                )
            } else if message.contains("unknown machine") {
                (
                    "usage",
                    Some("run 'yasksite machines' to list the known models"),
                )
            } else if message.contains("unknown command")
                || message.contains("is required")
                || message.contains("needs a value")
                || message.contains("unknown strategy")
                || message.starts_with("bad --")
                || message.contains("expected AxBxC")
            {
                ("usage", Some("run 'yasksite' without arguments for usage"))
            } else if message.contains("cannot read trace file") {
                (
                    "trace-io",
                    Some("pass the JSONL file a tune wrote via --trace-out"),
                )
            } else if message.contains("trace schema mismatch") {
                (
                    "trace-schema",
                    Some("re-record the trace with this yasksite build (schema v1)"),
                )
            } else if message.contains("no status.json") {
                (
                    "status-missing",
                    Some(
                        "start the daemon with 'yasksite serve --state-dir <dir>' \
                         (state dirs written before the status op have no snapshot)",
                    ),
                )
            } else if message.contains("cannot read") || message.contains("cannot open") {
                ("io", None)
            } else {
                ("runtime", None)
            };
        ErrorReport {
            kind,
            message: message.to_string(),
            hint,
        }
    }

    /// Renders the report for stderr: `error[kind]: message` plus an
    /// optional `hint:` line.
    #[must_use]
    pub fn render(&self) -> String {
        match self.hint {
            Some(h) => format!("error[{}]: {}\nhint: {}", self.kind, self.message, h),
            None => format!("error[{}]: {}", self.kind, self.message),
        }
    }
}

/// The usage text of the binary.
pub const USAGE: &str = "\
yasksite — stencil kernel tuning with the ECM performance model

USAGE:
  yasksite machines
  yasksite stencils
  yasksite predict --stencil <name> --domain AxBxC
                   [--machine clx|rome|host | --machine-file <path>]
                   [--block AxBxC] [--fold AxBxC] [--cores N] [--wavefront W]
  yasksite measure  (same flags; runs on the simulated hierarchy, or
                     natively with --machine host)
  yasksite tune     --stencil <name> --domain AxBxC [--machine ...]
                   [--cores N] [--strategy analytic|hybrid|empirical]
                   [--jobs N]   (analytic ranking workers; default:
                                YASKSITE_JOBS or all cores — results are
                                identical for every value)
                   [--samples N] [--warmup N] [--retries N]
                   [--budget-runs N] [--budget-secs S]
                   [--trace-out FILE.jsonl]  (stream telemetry as JSONL,
                                             schema v1: one event object
                                             per line)
                   [--metrics]               (print the metrics registry
                                             and span tree after tuning)
                   [--log-level error|info|debug]  (event filter for
                                             --trace-out; default debug)
                   [--profile]               (profile the winner natively:
                                             phase timers, pool occupancy,
                                             drift table)
                   [--drift-cap N]           (bound the drift ledger to N
                                             records per key, oldest
                                             evicted first)
  yasksite report   <trace.jsonl> [--baseline <trace.jsonl>]
                    (render a recorded trace: phase breakdown, pool
                     utilization, drift table, regressions vs baseline;
                     truncated lines are skipped with a counted warning)
  yasksite codegen  (same flags as predict; prints the C kernel source)
  yasksite serve    [--state-dir DIR]   (crash-safe journals: prediction
                                        cache + drift history survive
                                        restarts and torn writes)
                   [--socket PATH]      (serve a Unix socket instead of
                                        stdin/stdout)
                   [--queue N]          (bounded request queue; overflow
                                        is rejected, never buffered;
                                        default 16)
                   [--deadline-ms MS]   (default per-request watchdog:
                                        stuck trials are cancelled to
                                        their analytic fallback)
                   [--tenant-runs N] [--tenant-secs S]
                                        (per-tenant admission caps on
                                        measurement runs / seconds)
                   [--drift-cap N]      (drift records kept per key,
                                        oldest evicted; default 64)
                   [--trace-sample N]   (trace only the first N requests
                                        in full; later requests keep
                                        counters but emit no events —
                                        responses are identical either
                                        way)
                    Requests are JSON lines, answers one JSON line each:
                      {\"id\":\"1\",\"op\":\"tune\",\"stencil\":\"heat-3d-r1\",
                       \"domain\":\"32x16x16\",\"cores\":2,\"strategy\":\"hybrid\"}
                    Ops: tune, predict, report, status, shutdown. The
                    status op returns the observability snapshot (queue
                    depth, rolling latency percentiles, tier mix, drift
                    suspects) as schema-v1 JSON, or Prometheus text with
                    \"format\":\"prom\". SIGTERM drains in-flight
                    requests, snapshots state and exits 0.
  yasksite calibrate [--out FILE]      (write the calibrated machine file;
                                        default: stdout)
                   [--seed N]           (seed of the probe streams and the
                                        provenance block; default 42)
                   [--samples N] [--warmup N] [--retries N]
                   [--budget-runs N] [--budget-secs S]
                   [--quick]            (shrink working sets — smoke runs)
                   [--synthetic]        (seeded deterministic samples
                                        around the builtin host model
                                        instead of timed loops; CI mode)
                   [--trace-out FILE.jsonl] [--metrics]
                   [--log-level error|info|debug]
                    Measures the host — FMA throughput, per-cache-level
                    and memory bandwidth, memory latency — through the
                    robust trial protocol and emits a MachineKind::Host
                    machine file with a calibration provenance block
                    (per-probe samples, rejected outliers, confidence
                    intervals, rev/seed/date). Load it anywhere with
                    --machine-file.
  yasksite calibrate --check <machine-file>
                    Validate a calibrated machine file: model invariants,
                    probe completeness, value-inside-CI, bandwidth
                    consistency. Non-zero on violation.
  yasksite top      <socket|state-dir>
                   [--once]             (render one frame and exit)
                   [--interval SECS]    (poll period; default 2)
                   [--format json|prom] (what to fetch; prom needs a
                                        live socket)
                   [--check]            (validate the snapshot — and the
                                        Prometheus exposition with
                                        --format prom — then exit;
                                        non-zero on malformed output)
                    Live daemon dashboard: polls the status op over the
                    Unix socket, or reads <state-dir>/status.json.

Stencil names: heat-3d-r<r>, heat-2d-r<r>, box-3d-r<r>, star-3d-r<r>,
star-2d-r2, wave-2d, heat-3d-vc.";

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn triples() {
        assert_eq!(parse_triple("512x8x8").unwrap(), [512, 8, 8]);
        assert!(parse_triple("512x8").is_err());
        assert!(parse_triple("ax8x8").is_err());
        assert!(parse_triple("0x8x8").is_err());
    }

    #[test]
    fn flags() {
        let args: Vec<String> = ["predict", "--machine", "rome", "--cores", "8"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (pos, flags) = parse_flags(&args).unwrap();
        assert_eq!(pos, vec!["predict"]);
        assert_eq!(flags["machine"], "rome");
        assert_eq!(flags["cores"], "8");
        let bad: Vec<String> = ["--machine".to_string()].to_vec();
        assert!(parse_flags(&bad).is_err());
    }

    #[test]
    fn stencil_lookup() {
        assert!(stencil_by_name("heat-3d-r1").is_some());
        assert!(stencil_by_name("heat-3d-r3").is_some());
        assert!(stencil_by_name("box-3d-r2").is_some());
        assert!(stencil_by_name("wave-2d").is_some());
        assert!(stencil_by_name("heat-3d-vc").is_some());
        assert!(stencil_by_name("nope").is_none());
    }

    #[test]
    fn every_suite_name_round_trips_to_an_equal_stencil() {
        for s in yasksite_stencil::paper_suite() {
            assert_eq!(stencil_by_name(s.name()), Some(s));
        }
        // The suite's star-3d-r2 carries its own coefficients; the
        // parametric family only answers for radii outside the suite.
        let r5 = stencil_by_name("star-3d-r5").expect("parametric family");
        assert_eq!(r5, builders::star3d(5, &[0.5; 6]));
    }

    #[test]
    fn params_defaults_and_overrides() {
        let m = Machine::rome();
        let mut flags = HashMap::new();
        let p = params_from_flags(&flags, [64, 64, 64], &m).unwrap();
        assert_eq!(p.block, [64, 64, 64]);
        assert_eq!(p.fold, Fold::new(4, 1, 1));
        flags.insert("block".into(), "64x8x8".into());
        flags.insert("cores".into(), "16".into());
        flags.insert("wavefront".into(), "4".into());
        let p = params_from_flags(&flags, [64, 64, 64], &m).unwrap();
        assert_eq!(p.block, [64, 8, 8]);
        assert_eq!(p.threads, 16);
        assert_eq!(p.wavefront, 4);
    }

    #[test]
    fn machines_resolve() {
        let mut flags = HashMap::new();
        assert_eq!(machine_from_flags(&flags).unwrap().tag(), "CLX");
        flags.insert("machine".into(), "rome".into());
        assert_eq!(machine_from_flags(&flags).unwrap().tag(), "ROME");
        flags.insert("machine".into(), "m2".into());
        assert!(matches!(
            machine_from_flags(&flags),
            Err(ToolError::InvalidInput(_))
        ));
    }

    #[test]
    fn machine_file_errors_are_typed() {
        let dir = std::env::temp_dir().join("yasksite-cli-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.machine");
        std::fs::write(&path, "definitely not a machine file\n").unwrap();
        let mut flags = HashMap::new();
        flags.insert("machine-file".into(), path.to_str().unwrap().to_string());
        let err = machine_from_flags(&flags).unwrap_err();
        assert!(matches!(err, ToolError::MachineFile(_)), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
        flags.insert("machine-file".into(), "/no/such/file".into());
        assert!(matches!(
            machine_from_flags(&flags),
            Err(ToolError::InvalidInput(_))
        ));
    }

    #[test]
    fn trial_flags_default_to_single_shot() {
        let flags = HashMap::new();
        let (cfg, budget) = trials_from_flags(&flags).unwrap();
        assert_eq!(cfg.samples, 1);
        assert_eq!(cfg.warmup, 0);
        assert_eq!(cfg.max_retries, 0);
        assert!(budget.max_runs.is_none() && budget.max_seconds.is_none());
    }

    #[test]
    fn request_from_flags_builds_the_full_request() {
        let mut flags = HashMap::new();
        let req = request_from_flags(&flags).unwrap();
        assert_eq!(req.strategy, TuneStrategy::Analytic);
        assert_eq!(req.cores, 1);
        assert!(req.jobs.is_none(), "jobs defaults to auto");
        assert_eq!(req.trial.samples, 1, "no protocol flags -> single shot");

        flags.insert("strategy".into(), "hybrid".into());
        flags.insert("cores".into(), "8".into());
        flags.insert("jobs".into(), "4".into());
        flags.insert("samples".into(), "5".into());
        flags.insert("budget-runs".into(), "50".into());
        let req = request_from_flags(&flags).unwrap();
        assert_eq!(req.strategy, TuneStrategy::Hybrid { shortlist: 3 });
        assert_eq!(req.cores, 8);
        assert_eq!(req.effective_jobs(), 4);
        assert_eq!(req.trial.samples, 5);
        assert_eq!(req.budget.max_runs, Some(50));

        flags.insert("strategy".into(), "nope".into());
        assert!(request_from_flags(&flags).is_err());
        flags.insert("strategy".into(), "empirical".into());
        flags.insert("jobs".into(), "x".into());
        assert!(request_from_flags(&flags).is_err());
    }

    #[test]
    fn drift_cap_flag_wires_the_request() {
        let mut flags = HashMap::new();
        assert_eq!(request_from_flags(&flags).unwrap().drift_cap, None);
        flags.insert("drift-cap".into(), "16".into());
        assert_eq!(request_from_flags(&flags).unwrap().drift_cap, Some(16));
        flags.insert("drift-cap".into(), "many".into());
        assert!(request_from_flags(&flags).is_err());
    }

    #[test]
    fn serve_config_resolves_defaults_and_flags() {
        let mut flags = HashMap::new();
        let (config, socket) = serve_config_from_flags(&flags).unwrap();
        assert!(config.state_dir.is_none());
        assert_eq!(config.queue_capacity, 16);
        assert_eq!(config.drift_cap, Some(64));
        assert!(config.tenant_runs.is_none() && config.tenant_secs.is_none());
        assert!(socket.is_none());

        flags.insert("state-dir".into(), "/tmp/ys-state".into());
        flags.insert("queue".into(), "4".into());
        flags.insert("deadline-ms".into(), "2500".into());
        flags.insert("tenant-runs".into(), "100".into());
        flags.insert("tenant-secs".into(), "1.5".into());
        flags.insert("drift-cap".into(), "8".into());
        flags.insert("socket".into(), "/tmp/ys.sock".into());
        let (config, socket) = serve_config_from_flags(&flags).unwrap();
        assert_eq!(
            config.state_dir.as_deref(),
            Some(Path::new("/tmp/ys-state"))
        );
        assert_eq!(config.queue_capacity, 4);
        assert_eq!(config.default_deadline_ms, Some(2500));
        assert_eq!(config.tenant_runs, Some(100));
        assert_eq!(config.tenant_secs, Some(1.5));
        assert_eq!(config.drift_cap, Some(8));
        assert_eq!(socket.as_deref(), Some(Path::new("/tmp/ys.sock")));

        flags.insert("queue".into(), "0".into());
        let (config, _) = serve_config_from_flags(&flags).unwrap();
        assert_eq!(config.queue_capacity, 1, "queue is clamped to 1");
        flags.insert("tenant-secs".into(), "-3".into());
        assert!(serve_config_from_flags(&flags).is_err());
    }

    #[test]
    fn trace_sample_flag_wires_the_config() {
        let mut flags = HashMap::new();
        let (config, _) = serve_config_from_flags(&flags).unwrap();
        assert!(config.trace_sample.is_none(), "default: trace everything");
        flags.insert("trace-sample".into(), "10".into());
        let (config, _) = serve_config_from_flags(&flags).unwrap();
        assert_eq!(config.trace_sample, Some(10));
        flags.insert("trace-sample".into(), "lots".into());
        assert!(serve_config_from_flags(&flags).is_err());
    }

    #[test]
    fn top_options_resolve_defaults_and_flags() {
        let mut flags = HashMap::new();
        let opts = top_options_from_flags(&flags).unwrap();
        assert!(!opts.once && !opts.check && !opts.prometheus);
        assert!((opts.interval_secs - 2.0).abs() < 1e-12);

        flags.insert("once".into(), "true".into());
        flags.insert("check".into(), "true".into());
        flags.insert("interval".into(), "0.5".into());
        flags.insert("format".into(), "prom".into());
        let opts = top_options_from_flags(&flags).unwrap();
        assert!(opts.once && opts.check && opts.prometheus);
        assert!((opts.interval_secs - 0.5).abs() < 1e-12);

        flags.insert("format".into(), "xml".into());
        assert!(top_options_from_flags(&flags).is_err());
        flags.insert("format".into(), "json".into());
        flags.insert("interval".into(), "-1".into());
        assert!(top_options_from_flags(&flags).is_err());
    }

    #[test]
    fn top_boolean_flags_take_no_value() {
        let args: Vec<String> = ["top", "/tmp/sock", "--once", "--check"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (pos, flags) = parse_flags(&args).unwrap();
        assert_eq!(pos, vec!["top", "/tmp/sock"]);
        assert_eq!(flags["once"], "true");
        assert_eq!(flags["check"], "true");
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let args: Vec<String> = ["tune", "--metrics", "--cores", "4"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (pos, flags) = parse_flags(&args).unwrap();
        assert_eq!(pos, vec!["tune"]);
        assert_eq!(flags["metrics"], "true");
        assert_eq!(flags["cores"], "4", "--metrics must not eat --cores");
    }

    #[test]
    fn telemetry_flags_resolve() {
        let mut flags = HashMap::new();
        assert!(
            !telemetry_from_flags(&flags).unwrap().is_enabled(),
            "no flags -> disabled"
        );
        flags.insert("metrics".into(), "true".into());
        let tel = telemetry_from_flags(&flags).unwrap();
        assert!(tel.is_enabled(), "--metrics -> collecting handle");
        flags.insert("log-level".into(), "info".into());
        assert_eq!(
            telemetry_from_flags(&flags).unwrap().level(),
            Some(Level::Info)
        );
        flags.insert("log-level".into(), "loud".into());
        let err = telemetry_from_flags(&flags).unwrap_err();
        assert!(err.contains("--log-level"), "{err}");
    }

    #[test]
    fn trace_out_writes_a_parseable_stream() {
        let dir = std::env::temp_dir().join("yasksite-cli-telemetry");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let mut flags = HashMap::new();
        flags.insert("trace-out".into(), path.to_str().unwrap().to_string());
        {
            let tel = telemetry_from_flags(&flags).unwrap();
            let span = tel.span("tune_session");
            tel.event(Level::Info, "session_start", span.id(), &[]);
            drop(span);
            tel.finish();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let stats = crate::telemetry::check_trace(&text).expect("valid trace");
        assert_eq!(stats.spans_opened, 1);
        assert_eq!(stats.spans_closed, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_reports_classify_and_render() {
        let r = ErrorReport::classify("unknown stencil 'nope'");
        assert_eq!(r.kind, "usage");
        let out = r.render();
        assert!(out.starts_with("error[usage]: unknown stencil"), "{out}");
        assert!(out.contains("hint: run 'yasksite stencils'"), "{out}");

        let r = ErrorReport::classify("unknown command 'frobnicate'");
        assert_eq!(r.kind, "usage");
        assert!(r.render().contains("unknown command"), "substring kept");

        let r = ErrorReport::classify("cannot read '/no/such': gone");
        assert_eq!(r.kind, "io");
        assert!(r.hint.is_none());
        assert_eq!(r.render(), "error[io]: cannot read '/no/such': gone");

        let r = ErrorReport::classify("something exploded");
        assert_eq!(r.kind, "runtime");
    }

    #[test]
    fn trace_errors_classify_before_generic_io() {
        let r = ErrorReport::classify("cannot read trace file 'x.jsonl': gone");
        assert_eq!(r.kind, "trace-io");
        assert!(r.render().contains("--trace-out"), "{}", r.render());

        let r = ErrorReport::classify("trace schema mismatch: line 3 has version 2, expected 1");
        assert_eq!(r.kind, "trace-schema");
        assert!(r.render().contains("schema v1"), "{}", r.render());
    }

    #[test]
    fn missing_status_snapshot_classifies_before_generic_io() {
        let r = ErrorReport::classify("no status.json in state dir '/tmp/ys-state'");
        assert_eq!(r.kind, "status-missing");
        let out = r.render();
        assert!(out.contains("yasksite serve --state-dir"), "{out}");
        // The message must NOT fall through to the bare io branch even
        // though a raw read failure would have said "cannot read".
        let raw = ErrorReport::classify("cannot read '/tmp/ys-state/status.json': gone");
        assert_eq!(raw.kind, "io");
    }

    #[test]
    fn profile_flag_is_boolean_and_wires_the_request() {
        let args: Vec<String> = ["tune", "--profile", "--cores", "2"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (_, flags) = parse_flags(&args).unwrap();
        assert_eq!(flags["profile"], "true");
        assert_eq!(flags["cores"], "2", "--profile must not eat --cores");
        assert!(request_from_flags(&flags).unwrap().profile);
        assert!(!request_from_flags(&HashMap::new()).unwrap().profile);
    }

    #[test]
    fn trial_flags_override_the_protocol() {
        let mut flags = HashMap::new();
        flags.insert("samples".into(), "7".into());
        flags.insert("budget-runs".into(), "100".into());
        let (cfg, budget) = trials_from_flags(&flags).unwrap();
        assert_eq!(cfg.samples, 7);
        // Unspecified knobs fall back to the robust defaults once any
        // protocol flag is present.
        assert_eq!(cfg.warmup, TrialConfig::default().warmup);
        assert_eq!(cfg.max_retries, TrialConfig::default().max_retries);
        assert_eq!(budget.max_runs, Some(100));
        flags.insert("budget-secs".into(), "nope".into());
        assert!(trials_from_flags(&flags).is_err());
        flags.insert("budget-secs".into(), "-1".into());
        assert!(trials_from_flags(&flags).is_err());
    }
}
