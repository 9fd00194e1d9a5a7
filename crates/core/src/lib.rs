//! YaskSite — the paper's tuning tool, reproduced in Rust.
//!
//! YaskSite wraps a stencil kernel framework (our [`yasksite_engine`])
//! and the ECM analytic performance model ([`yasksite_ecm`]) behind one
//! interface that can
//!
//! 1. enumerate the tuning-parameter space of a kernel (spatial blocks,
//!    vector folds, wavefront depth, core counts) — [`SearchSpace`];
//! 2. **predict** the performance of any point in that space analytically,
//!    without running anything — [`Solution::predict`];
//! 3. **measure** any point, natively on the host or on the simulated
//!    Cascade Lake / Rome hierarchies — [`Solution::measure`];
//! 4. select the best configuration by analytic ranking, empirical
//!    search, or the hybrid of both, with full cost accounting, on a
//!    deterministic parallel engine with a memoized prediction cache —
//!    [`Solution::tune_with`]; and
//! 5. emit the corresponding kernel source — [`Solution::codegen`].
//!
//! External tuners (the Offsite reproduction in the `offsite` crate) use
//! exactly this interface, mirroring the paper's YaskSite↔Offsite
//! integration.
//!
//! # Examples
//!
//! The canonical entry point is [`Solution::tune_with`], driven by a
//! builder-style [`TuneRequest`]:
//!
//! ```
//! use yasksite::{Solution, TuneRequest, TuneStrategy};
//! use yasksite_arch::Machine;
//! use yasksite_stencil::builders::heat3d;
//!
//! let sol = Solution::new(heat3d(1), [128, 64, 64], Machine::cascade_lake());
//! let req = TuneRequest::new(TuneStrategy::Analytic).cores(4).jobs(2);
//! let result = sol.tune_with(&req)?;
//! assert!(result.best_score > 0.0);
//! assert!(result.cost.engine_runs == 0); // analytic tuning runs nothing
//! // The same request with any other `jobs` value returns a
//! // bitwise-identical winner and ranking.
//! # Ok::<(), yasksite::ToolError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

mod cache;
mod calibrate;
mod cost;
mod drift;
mod persist;
mod predict;
mod report;
mod request;
mod serve;
mod solution;
mod space;
mod status;
mod trial;
mod tuner;

pub use cache::{PredictKey, PredictionCache};
pub use calibrate::{
    calibrate, check_calibration, today_utc, CalibrateConfig, CalibrationCheck, CalibrationOutcome,
    PROBE_NAMES,
};
pub use cost::TuneCost;
pub use drift::{DriftLedger, DriftRecord};
pub use persist::{
    crc32, decode_drift, decode_journal, decode_prediction, encode_drift, encode_prediction, frame,
    journal_header, FaultyMedium, FileMedium, Journal, JournalKind, JournalMedium, MemMedium,
    PersistentStore, PredictionRecord, RecoveryEvent, RecoveryReport, WarmStats, JOURNAL_VERSION,
    MAX_RECORD_BYTES,
};
pub use predict::{predict_params, predict_params_resident, PredictedPerf};
pub use report::render_report;
pub use request::{TuneRequest, JOBS_ENV};
#[cfg(unix)]
pub use serve::serve_unix;
pub use serve::{
    overload_response, serve, serve_stdin, shutdown_flag, ServeConfig, ServeState, ServeStats,
    CALIBRATED_MACHINE_FILE,
};
pub use solution::{MeasuredPerf, Solution, ToolError};
pub use space::SearchSpace;
pub use status::{
    render_top, validate_prometheus_text, validate_status_json, CalibrationStatus, LatencyDigest,
    StatusCheck, StatusSnapshot, TenantUsage, PROM_CONTENT_TYPE, STATUS_SCHEMA_VERSION,
};
pub use trial::{
    run_trial, run_trial_observed, FallbackReason, FaultPlan, FaultyBackend, MeasureBackend,
    Provenance, SolutionBackend, TrialBudget, TrialConfig, TrialResult, TrialRng, TrialSummary,
};
pub use tuner::{TuneResult, TuneStrategy};

/// The in-tree observability layer: re-exported so downstream users need
/// only the `yasksite` dependency to build a [`yasksite_telemetry::Telemetry`]
/// handle for [`TuneRequest::telemetry`].
pub use yasksite_telemetry as telemetry;
