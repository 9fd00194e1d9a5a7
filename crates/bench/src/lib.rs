//! Experiment implementations for the reproduction's tables and figures.
//!
//! Each `e*` function regenerates one table/figure of the evaluation
//! (see `DESIGN.md` for the experiment index). The functions take a
//! [`Scale`] so the same code can run paper-sized in the `e*` binaries
//! and small in integration tests. All output is plain aligned text —
//! the "figure" experiments print the series that would be plotted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod fmt;
pub mod manifest;

pub use experiments::Scale;
pub use fmt::Table;
pub use manifest::run_manifest;
