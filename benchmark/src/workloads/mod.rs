//! The five workloads. Each `run` sets up, measures under the budget,
//! checks its outputs and records metrics into the [`Outcome`]; each
//! `probes` times single layers from outside (traced runs only).

use std::path::Path;

use yasksite_grid::Grid3;

use crate::clock;
use crate::report::{Budget, Outcome};
use crate::trace::Tracer;

pub mod ode;
pub mod serve;
pub mod sweep;
pub mod tune;

pub struct Ctx<'a> {
    pub seed: u64,
    pub budget: Budget,
    pub tr: &'a Tracer,
    pub out: &'a mut Outcome,
    /// Scratch directory inside the result directory.
    pub tmp: &'a Path,
    pub nproc: usize,
}

impl Ctx<'_> {
    /// Reads the core clock and remembers the reading; the factor takes a
    /// wall time measured now to the reference clock (see [`crate::clock`]).
    pub fn clock_scale(&mut self) -> f64 {
        let scale = self.tr.in_span("bench:clock", clock::scale);
        self.out.clock_scales.push(scale);
        scale
    }
}

pub fn run(workload: &str, ctx: &mut Ctx) {
    match workload {
        "sweep-mem" => sweep::run(ctx),
        "ode-mem" => ode::run(ctx, &ode::Config::mem()),
        "ode-small" => ode::run(ctx, &ode::Config::small()),
        "tune-mix" => tune::run(ctx),
        "serve-mix" => serve::run(ctx),
        other => unreachable!("workload '{other}' was validated by the caller"),
    }
}

pub fn probes(workload: &str, ctx: &mut Ctx) {
    match workload {
        "sweep-mem" => sweep::probes(ctx),
        "ode-mem" => ode::probes(ctx, &ode::Config::mem()),
        "ode-small" => ode::probes(ctx, &ode::Config::small()),
        "tune-mix" => tune::probes(ctx),
        "serve-mix" => serve::probes(ctx),
        other => unreachable!("workload '{other}' was validated by the caller"),
    }
}

/// Whether two grids of one domain hold the same bits at every domain
/// point (layouts may differ). `Grid3::max_abs_diff` cannot say: it skips
/// NaN and equates -0 with 0.
pub fn bitwise_equal(a: &Grid3, b: &Grid3) -> bool {
    if a.n() != b.n() {
        return false;
    }
    // Same layout: equal storage settles it; unequal storage may differ in
    // padding only, so the point-by-point walk below stays the authority.
    let same_layout = a.fold() == b.fold() && a.halo() == b.halo();
    if same_layout
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
    {
        return true;
    }
    let n = a.n().map(|e| e as isize);
    for k in 0..n[2] {
        for j in 0..n[1] {
            for i in 0..n[0] {
                if a.get(i, j, k).to_bits() != b.get(i, j, k).to_bits() {
                    return false;
                }
            }
        }
    }
    true
}
