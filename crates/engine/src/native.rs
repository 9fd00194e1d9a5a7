//! Native (host) execution backend.
//!
//! A spatial sweep is prepared once ([`PreparedSweep`]: checked,
//! compiled, planned and lowered against its grids' geometry) and then
//! run any number of times. The hot paths are written so the inner loops
//! are allocation-free and bounds-check-free: term descriptors are
//! gathered once per preparation, each row of output is produced from
//! pre-sliced source rows, and a linear stencil of any arity runs
//! through one row kernel that walks its terms in const-generic stripes
//! LLVM unrolls and vectorises. That row kernel is also the one kernel a
//! tiled chain runs its tile-planes on ([`crate::wavefront`]); the brick,
//! tape and per-point kernels only ever sweep a whole domain.
//! Threading goes through the persistent [`ExecPool`] instead of
//! spawning OS threads per sweep.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use yasksite_grid::{all_finite, Fold, Grid3};
use yasksite_stencil::{Stencil, StencilError, StencilInfo};

use crate::compile::{CompiledStencil, Tape};
use crate::error::EngineError;
use crate::fold_tier::brick_fast_path;
use crate::params::TuningParams;
use crate::pool::{ExecPool, ScopedJob};
use crate::profile::SweepProfiler;
use crate::sweep::{plan_spatial, Kernel, PlannedKernel, SweepReport, TierPolicy};
use crate::walk::{windows, Region, Walk};
use crate::wavefront::Window;

/// The opt-in "is every written value finite" scan of one sweep
/// ([`crate::SweepRequest::report_finite`]), shared by the sweep's jobs.
/// Kernels hand it each row segment or brick right after producing it,
/// while it is still in L1; a disabled scan costs one predicted branch.
pub(crate) struct FiniteScan {
    on: bool,
    // Relaxed is enough: the flag publishes no other data, only ever
    // turns `true`, and is read after `ExecPool::run` has joined the jobs.
    nonfinite: AtomicBool,
}

impl FiniteScan {
    pub(crate) fn new(on: bool) -> FiniteScan {
        FiniteScan {
            on,
            nonfinite: AtomicBool::new(false),
        }
    }

    /// Whether kernels that pre-aggregate (the brick kernel's per-lane
    /// accumulators) need to do so.
    #[inline]
    pub(crate) fn on(&self) -> bool {
        self.on
    }

    /// Records whether `written` — values a kernel has just stored — are
    /// all finite.
    #[inline]
    pub(crate) fn check(&self, written: &[f64]) {
        if self.on && !all_finite(written) {
            self.nonfinite.store(true, Ordering::Relaxed);
        }
    }

    /// Whether every checked value was finite (`true` when off).
    pub(crate) fn all_finite(&self) -> bool {
        !self.nonfinite.load(Ordering::Relaxed)
    }
}

/// The storage geometry of a bound grid: everything a prepared sweep's
/// plan and lowered kernel depend on. Two grids of equal geometry have
/// identical storage layouts, so a sweep prepared against one runs on
/// the other (a rotated ODE state, a measurement's warm-up grids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GridGeometry {
    pub(crate) n: [usize; 3],
    pub(crate) halo: [usize; 3],
    pub(crate) alloc: [usize; 3],
    fold: Fold,
}

impl GridGeometry {
    pub(crate) fn of(g: &Grid3) -> GridGeometry {
        GridGeometry {
            n: g.n(),
            halo: g.halo(),
            alloc: g.alloc(),
            fold: g.fold(),
        }
    }

    /// [`EngineError::BadParams`] unless `g` has this geometry.
    pub(crate) fn check(self, g: &Grid3) -> Result<(), EngineError> {
        let geometry = GridGeometry::of(g);
        if geometry == self {
            return Ok(());
        }
        Err(EngineError::BadParams {
            reason: format!(
                "grid '{}' has geometry {geometry:?}, the sweep was prepared for {self:?}",
                g.name()
            ),
        })
    }
}

/// A spatial sweep lowered once and run many times: the product of
/// [`crate::SweepRequest::prepare`].
///
/// Preparing does everything that depends only on the stencil, the
/// request and the *geometry* of the bound grids: it checks the bindings
/// and parameters, compiles the stencil (the profiler's `"compile"`
/// phase), plans the kernel under the request's tier policy and, for the
/// linear row kernel, resolves every term's offsets. [`PreparedSweep::run`]
/// only checks that the grids it is handed have that geometry, binds
/// their storage and executes (the `"sweep"` phase);
/// [`PreparedSweep::simulate`] runs the same checks and replays the
/// planned kernel's walk on a simulated machine. An ODE integrator
/// prepares each op once and runs it every step; rotating state storage
/// between steps keeps every geometry, so the preparation stays valid.
pub struct PreparedSweep<'a> {
    pub(crate) compiled: CompiledStencil,
    pub(crate) planned: PlannedKernel,
    /// The lowered linear row kernel, when the plan runs on it.
    pub(crate) rows: Option<LinearKernel>,
    /// The stencil's access pattern and operation counts: its radius
    /// skews a chain, its offsets and counts drive the simulated sink.
    pub(crate) info: StencilInfo,
    pub(crate) inputs: Vec<GridGeometry>,
    pub(crate) out: GridGeometry,
    pub(crate) params: TuningParams,
    pub(crate) profiler: Option<&'a SweepProfiler>,
    pub(crate) report_finite: bool,
}

impl<'a> PreparedSweep<'a> {
    /// Validates, compiles, plans the kernel under `policy` and lowers
    /// it against the geometry of `inputs` and `out`.
    pub(crate) fn new(
        stencil: &Stencil,
        inputs: &[&Grid3],
        out: &Grid3,
        params: &TuningParams,
        profiler: Option<&'a SweepProfiler>,
        policy: TierPolicy,
        report_finite: bool,
    ) -> Result<PreparedSweep<'a>, EngineError> {
        stencil.check_bindings(inputs, out)?;
        params
            .validate(out.n())
            .map_err(|reason| EngineError::BadParams { reason })?;
        for g in inputs.iter().copied().chain(std::iter::once(out)) {
            if g.fold() != params.fold {
                return Err(EngineError::BadParams {
                    reason: format!(
                        "grid '{}' has fold {}, params say {}",
                        g.name(),
                        g.fold(),
                        params.fold
                    ),
                });
            }
        }
        let disabled = SweepProfiler::disabled();
        let prof = profiler.unwrap_or(&disabled);
        let t_compile = prof.start();
        let compiled = CompiledStencil::compile(stencil);
        prof.phase_done("compile", t_compile);
        let geometry_shared = inputs
            .iter()
            .all(|g| g.alloc() == out.alloc() && g.halo() == out.halo());
        let planned = plan_spatial(&compiled, geometry_shared, params, policy);
        let rows = planned.kernel.runs_rows().then(|| {
            let (terms, constant) = compiled
                .linear_terms()
                .expect("planner picked a linear kernel");
            LinearKernel::build(terms, constant, inputs)
        });
        Ok(PreparedSweep {
            compiled,
            planned,
            rows,
            info: stencil.info(),
            inputs: inputs.iter().map(|g| GridGeometry::of(g)).collect(),
            out: GridGeometry::of(out),
            params: params.clone(),
            profiler,
            report_finite,
        })
    }

    /// Sets the profiler later runs record their `"sweep"` phase, chunks
    /// and pool window to; `None` runs unprofiled. Preparation recorded
    /// its `"compile"` phase to the request's profiler already, so a
    /// caller can prepare under a profiler, warm up unprofiled and then
    /// profile the measured run.
    pub fn set_profiler(&mut self, profiler: Option<&'a SweepProfiler>) {
        self.profiler = profiler;
    }

    /// Applies the prepared stencil once over the full domain of `out`,
    /// on `pool`, reading `inputs`.
    ///
    /// Tier selection never changes results — every tier computes each
    /// output point with the identical FP operation order. Threaded
    /// tiers honour `params.threads` with a decomposition that depends
    /// only on `(domain, params.threads)`, never on the pool width, so
    /// results are bitwise identical for any pool. A sweep prepared with
    /// [`crate::SweepRequest::report_finite`] checks the values it writes
    /// as it produces them.
    ///
    /// # Errors
    /// Returns [`EngineError::Binding`] when the number of inputs differs
    /// from the prepared one and [`EngineError::BadParams`] when any grid's
    /// domain, halo, allocation or fold differs from the grid it was
    /// prepared against; nothing runs then.
    pub fn run(
        &self,
        pool: &ExecPool,
        inputs: &[&Grid3],
        out: &mut Grid3,
    ) -> Result<SweepReport, EngineError> {
        self.check(inputs, out)?;
        Ok(self.execute(pool, inputs, out))
    }

    /// The binding checks of [`PreparedSweep::run`]: the prepared arity,
    /// and every grid of the geometry it was prepared against.
    pub(crate) fn check(&self, inputs: &[&Grid3], out: &Grid3) -> Result<(), EngineError> {
        if inputs.len() != self.inputs.len() {
            return Err(EngineError::Binding(StencilError::ArityMismatch {
                expected: self.inputs.len(),
                got: inputs.len(),
            }));
        }
        let bound = inputs.iter().map(|g| &**g).zip(&self.inputs);
        for (g, &prepared) in bound.chain(std::iter::once((out, &self.out))) {
            prepared.check(g)?;
        }
        Ok(())
    }

    /// [`PreparedSweep::run`] on grids [`PreparedSweep::check`] accepted.
    pub(crate) fn execute(
        &self,
        pool: &ExecPool,
        inputs: &[&Grid3],
        out: &mut Grid3,
    ) -> SweepReport {
        let disabled = SweepProfiler::disabled();
        let prof = self.profiler.unwrap_or(&disabled);
        let params = &self.params;
        let updates = out.domain_points() as u64;
        prof.pool_window(pool.stats());
        let t_sweep = prof.start();
        let start = Instant::now();
        let scan = &FiniteScan::new(self.report_finite);
        let linear = || {
            self.compiled
                .linear_terms()
                .expect("planner picked a linear kernel")
        };
        let walk = Walk::new(out.n(), params);
        let regions = walk.sweep(self.planned.kernel, params.threads);
        let threads_used = match self.planned.kernel {
            Kernel::LaneRows(_) | Kernel::ScalarRows => {
                let kernel = self.rows.as_ref().expect("row plans are lowered");
                let inputs: Vec<&[f64]> = inputs.iter().map(|g| g.as_slice()).collect();
                let sinks = windows(out, &regions, scan);
                rows_on_pool(pool, kernel, &inputs, sinks, &walk, &regions, prof)
            }
            Kernel::BrickGather(elems) => {
                let (t, c) = linear();
                match elems {
                    2 => brick_fast_path::<2>(pool, t, c, inputs, out, params, prof, scan),
                    4 => brick_fast_path::<4>(pool, t, c, inputs, out, params, prof, scan),
                    8 => brick_fast_path::<8>(pool, t, c, inputs, out, params, prof, scan),
                    16 => brick_fast_path::<16>(pool, t, c, inputs, out, params, prof, scan),
                    _ => unreachable!("planner only emits supported brick sizes"),
                }
            }
            Kernel::TapeProgram(_) => {
                let CompiledStencil::Tape(tape) = &self.compiled else {
                    unreachable!("tape plan implies tape stencil")
                };
                tape_fast_path(pool, tape, inputs, out, &walk, &regions, prof, scan)
            }
            Kernel::PerPoint => {
                let scratch = &mut self.compiled.point_scratch();
                per_point(&self.compiled, scratch, inputs, out, &walk, &regions, scan)
            }
        };
        let seconds = start.elapsed().as_secs_f64();
        prof.phase_done("sweep", t_sweep);
        prof.pool_window(pool.stats());
        SweepReport {
            seconds,
            mlups: updates as f64 / seconds.max(1e-12) / 1e6,
            updates,
            threads_used,
            tier: self.planned.tier(),
            tier_reason: self.planned.reason,
            degraded: self.planned.degraded,
            wavefront_depth: 1,
            finite: self.report_finite.then_some(scan.all_finite()),
        }
    }
}

/// Row-major storage geometry of a grid.
#[derive(Clone, Copy)]
pub(crate) struct Geom {
    pub(crate) ax: isize,
    pub(crate) ay: isize,
    pub(crate) hx: isize,
    pub(crate) hy: isize,
    pub(crate) hz: isize,
}

impl Geom {
    pub(crate) fn of(g: &Grid3) -> Geom {
        let a = g.alloc();
        let h = g.halo();
        Geom {
            ax: a[0] as isize,
            ay: a[1] as isize,
            hx: h[0] as isize,
            hy: h[1] as isize,
            hz: h[2] as isize,
        }
    }

    /// Storage index of domain point `(0, j, k)`.
    #[inline]
    pub(crate) fn row_base(&self, j: isize, k: isize) -> isize {
        ((k + self.hz) * self.ay + (j + self.hy)) * self.ax + self.hx
    }

    /// Element offset of a stencil access `(dx, dy, dz)`.
    #[inline]
    pub(crate) fn offset_of(&self, o: [i32; 3]) -> isize {
        (o[2] as isize * self.ay + o[1] as isize) * self.ax + o[0] as isize
    }
}

/// Terms per stripe of the row kernel. A stripe's coefficients and row
/// slices stay in registers across its point loop; each stripe after the
/// first re-reads and re-writes the output segment (in L1). Narrower
/// stripes pay that pass more often, wider ones spill: EXPERIMENTS.md E17
/// measures 6 and 8 fastest on the arity table, and 8 keeps 7-point
/// stencils in one stripe.
const STRIPE: usize = 8;

/// Points per accumulator block of the row kernel: one `[f64; POINTS]`
/// block takes all of a stripe's terms before it is stored. Explicit
/// blocks keep the row slices in registers, where LLVM's own
/// vectorisation of a per-point loop spills them (E17).
const POINTS: usize = 8;

/// A linear stencil lowered against the geometry of its input grids: one
/// geometry/offset/coefficient/input record per term, gathered **once**
/// per preparation so the per-row work is pure arithmetic on pre-resolved
/// offsets. The kernel borrows no grid: each application binds the
/// input storage (one slice per input grid, of the geometry it was built
/// against), so a prepared sweep runs it on any grids of that geometry:
/// a rotated ODE state, both directions of a wavefront's ping-pong pair,
/// or one tile-plane of a chain at a time.
pub(crate) struct LinearKernel {
    geoms: Vec<Geom>,
    offs: Vec<isize>,
    coeffs: Vec<f64>,
    /// Input grid of each term: an index into the bound input storage.
    term_input: Vec<usize>,
    /// Each term's access offset `(dx, dy, dz)`.
    reach: Vec<[isize; 3]>,
    constant: f64,
    /// Per input, the window a tiled chain keeps it in
    /// ([`LinearKernel::read_through`]); empty when no input has one.
    windows: Vec<Option<Window>>,
    /// The rows the terms read through windows, one per distinct
    /// `(input, dy, dz)`: each output row resolves them through their
    /// window once, before its stripes.
    mapped: Vec<(usize, isize, isize)>,
    /// Per term, its row in `mapped` and its `dx`; `None` for a term on a
    /// plain grid. Empty while no input is windowed.
    term_rows: Vec<Option<(usize, isize)>>,
}

impl LinearKernel {
    pub(crate) fn build(
        terms: &[((usize, [i32; 3]), f64)],
        constant: f64,
        inputs: &[&Grid3],
    ) -> LinearKernel {
        let input_geoms: Vec<Geom> = inputs.iter().map(|g| Geom::of(g)).collect();
        let mut k = LinearKernel {
            geoms: Vec::with_capacity(terms.len()),
            offs: Vec::with_capacity(terms.len()),
            coeffs: Vec::with_capacity(terms.len()),
            term_input: Vec::with_capacity(terms.len()),
            reach: Vec::with_capacity(terms.len()),
            constant,
            windows: Vec::new(),
            mapped: Vec::new(),
            term_rows: Vec::new(),
        };
        for ((g, o), c) in terms {
            let ge = input_geoms[*g];
            k.geoms.push(ge);
            k.offs.push(ge.offset_of(*o));
            k.coeffs.push(*c);
            k.term_input.push(*g);
            k.reach.push(o.map(|e| e as isize));
        }
        k
    }

    /// Reads input `g` through `window` from now on: each of its terms
    /// finds its row `(j + dy, k + dz)` through the window's map, once per
    /// row, and then steps `dx` along it.
    pub(crate) fn read_through(&mut self, g: usize, window: Window) {
        if self.windows.len() <= g {
            self.windows.resize(g + 1, None);
        }
        self.windows[g] = Some(window);
        self.term_rows.resize(self.coeffs.len(), None);
        for (t, &[dx, dy, dz]) in self.reach.iter().enumerate() {
            if self.term_input[t] != g {
                continue;
            }
            let row = (g, dy, dz);
            let r = match self.mapped.iter().position(|&m| m == row) {
                Some(r) => r,
                None => {
                    self.mapped.push(row);
                    self.mapped.len() - 1
                }
            };
            self.term_rows[t] = Some((r, dx));
        }
    }

    /// The storage index of each `mapped` row's `x = 0` for output row
    /// `(j, k)`.
    #[inline]
    fn resolve(&self, rows: &mut [isize], j: isize, k: isize) {
        for (r, &(g, dy, dz)) in rows.iter_mut().zip(&self.mapped) {
            let window = self.windows[g]
                .as_ref()
                .expect("a mapped input has a window");
            *r = window.base(j + dy, k + dz);
        }
    }

    /// Applies the kernel to the input storage `inputs` (one slice per
    /// input grid) over every row segment of `region`, in walk order,
    /// writing through `sink`, whose window covers the region. The sink
    /// comes in as a `&mut` argument rather than a capture of the job's
    /// closure: LLVM then knows nothing else writes its window and keeps
    /// the window in registers across rows (a plain 256³ sweep ran ~30 %
    /// slower with the capture).
    pub(crate) fn apply(
        &self,
        inputs: &[&[f64]],
        sink: &mut Sink<'_>,
        walk: &Walk,
        region: &Region,
    ) {
        if self.mapped.is_empty() {
            walk.rows(region, |k, j, i0, i1| self.row(inputs, sink, k, j, i0, i1));
        } else {
            let mut rows = vec![0; self.mapped.len()];
            walk.rows(region, |k, j, i0, i1| {
                let (j, k) = (j as isize, k as isize);
                let ob = (sink.geom.row_base(j, k) - sink.base) as usize + i0;
                let dst = &mut sink.win[ob..ob + (i1 - i0)];
                self.mapped_row(inputs, &mut rows, dst, j, k, i0);
                sink.scan.check(dst);
            });
        }
    }

    /// One output row segment, its terms walked in stripes of at most
    /// [`STRIPE`]: the first stripe starts every point from the constant,
    /// each later one adds onto the segment it wrote, still in L1. Every
    /// point therefore accumulates `constant + term₀ + term₁ + …` in term
    /// order, the per-point path's order, whatever the stripe width. A
    /// scanning sink then checks the segment just written.
    fn row(
        &self,
        inputs: &[&[f64]],
        sink: &mut Sink<'_>,
        k: usize,
        j: usize,
        i0: usize,
        i1: usize,
    ) {
        let (j, k) = (j as isize, k as isize);
        let ob = (sink.geom.row_base(j, k) - sink.base) as usize + i0;
        let dst = &mut sink.win[ob..ob + (i1 - i0)];
        let base = |t: usize| self.geoms[t].row_base(j, k) + self.offs[t];
        let mut t0 = self.next_stripe::<true>(inputs, dst, 0, i0, base);
        while t0 < self.coeffs.len() {
            t0 += self.next_stripe::<false>(inputs, dst, t0, i0, base);
        }
        sink.scan.check(dst);
    }

    /// [`LinearKernel::row`] of a kernel that reads some input through a
    /// window: its `mapped` rows are resolved once into `rows`, and each
    /// of their terms steps its `dx` from there.
    #[inline]
    fn mapped_row(
        &self,
        inputs: &[&[f64]],
        rows: &mut [isize],
        dst: &mut [f64],
        j: isize,
        k: isize,
        i0: usize,
    ) {
        self.resolve(rows, j, k);
        let rows = &*rows;
        let base = |t: usize| match self.term_rows.get(t) {
            Some(&Some((r, dx))) => rows[r] + dx,
            _ => self.geoms[t].row_base(j, k) + self.offs[t],
        };
        let mut t0 = self.next_stripe::<true>(inputs, dst, 0, i0, base);
        while t0 < self.coeffs.len() {
            t0 += self.next_stripe::<false>(inputs, dst, t0, i0, base);
        }
    }

    /// [`LinearKernel::apply`] writing a grid a tiled chain keeps in a
    /// window: each row segment lands where the window maps its row.
    pub(crate) fn apply_windowed(
        &self,
        inputs: &[&[f64]],
        sink: &mut WindowSink<'_>,
        walk: &Walk,
        region: &Region,
    ) {
        let mut rows = vec![0; self.mapped.len()];
        walk.rows(region, |k, j, i0, i1| {
            let (j, k) = (j as isize, k as isize);
            let scan = sink.scan;
            let dst = sink.segment(j, k, i0, i1);
            self.mapped_row(inputs, &mut rows, dst, j, k, i0);
            scan.check(dst);
        });
    }

    /// The next stripe from term `t0`: as many terms as are left, at
    /// most [`STRIPE`]; returns how many it took. The first stripe
    /// (`FIRST`) of a term-less stencil writes the constant. One match
    /// arm per width below [`STRIPE`]. `base(t)` is the storage index of
    /// term `t`'s row at `x = 0`.
    #[inline]
    fn next_stripe<const FIRST: bool>(
        &self,
        inputs: &[&[f64]],
        dst: &mut [f64],
        t0: usize,
        i0: usize,
        base: impl Fn(usize) -> isize,
    ) -> usize {
        match self.coeffs.len() - t0 {
            0 => self.stripe::<0, FIRST>(inputs, dst, t0, i0, base),
            1 => self.stripe::<1, FIRST>(inputs, dst, t0, i0, base),
            2 => self.stripe::<2, FIRST>(inputs, dst, t0, i0, base),
            3 => self.stripe::<3, FIRST>(inputs, dst, t0, i0, base),
            4 => self.stripe::<4, FIRST>(inputs, dst, t0, i0, base),
            5 => self.stripe::<5, FIRST>(inputs, dst, t0, i0, base),
            6 => self.stripe::<6, FIRST>(inputs, dst, t0, i0, base),
            7 => self.stripe::<7, FIRST>(inputs, dst, t0, i0, base),
            _ => self.stripe::<STRIPE, FIRST>(inputs, dst, t0, i0, base),
        }
    }

    /// Terms `t0..t0 + S` over the segment `dst` starting at column `i0`;
    /// returns `S`. Every term row is sliced to the segment's length up
    /// front, and the points run in blocks of [`POINTS`]: one accumulator
    /// array, vector registers to LLVM, takes the `S` unrolled terms
    /// before it is stored. A scalar tail finishes the last
    /// `len % POINTS` points in the same order.
    #[inline]
    fn stripe<const S: usize, const FIRST: bool>(
        &self,
        inputs: &[&[f64]],
        dst: &mut [f64],
        t0: usize,
        i0: usize,
        base: impl Fn(usize) -> isize,
    ) -> usize {
        let len = dst.len();
        let t = t0..t0 + S;
        let mut rows: [&[f64]; S] = [&[]; S];
        for (s, (row, &g)) in rows.iter_mut().zip(&self.term_input[t.clone()]).enumerate() {
            let base = base(t0 + s) as usize + i0;
            *row = &inputs[g][base..base + len];
        }
        let mut coeffs = [0.0f64; S];
        coeffs.copy_from_slice(&self.coeffs[t]);
        let constant = self.constant;
        let mut blocks = dst.chunks_exact_mut(POINTS);
        for (b, d) in blocks.by_ref().enumerate() {
            let i = b * POINTS;
            let mut acc = [constant; POINTS];
            if !FIRST {
                acc.copy_from_slice(d);
            }
            for s in 0..S {
                let src = &rows[s][i..i + POINTS];
                for l in 0..POINTS {
                    acc[l] += coeffs[s] * src[l];
                }
            }
            d.copy_from_slice(&acc);
        }
        for di in len - blocks.into_remainder().len()..len {
            let mut acc = if FIRST { constant } else { dst[di] };
            for s in 0..S {
                acc += coeffs[s] * rows[s][di];
            }
            dst[di] = acc;
        }
        S
    }
}

/// The output window a kernel job writes into: a contiguous slice of
/// output storage, the absolute storage index of its first element, and
/// the full output geometry (row addressing stays absolute; `base` maps
/// it into the window), plus the sweep's scan of what gets written.
pub(crate) struct Sink<'w> {
    pub(crate) win: &'w mut [f64],
    pub(crate) base: isize,
    pub(crate) geom: Geom,
    pub(crate) scan: &'w FiniteScan,
}

/// Where a row kernel job writes its region: a plain grid's storage
/// window, or a chain's [`Window`].
pub(crate) trait RowSink: Send {
    /// Runs `kernel` over every row segment of `region`, writing here.
    fn apply(&mut self, kernel: &LinearKernel, inputs: &[&[f64]], walk: &Walk, region: &Region);
}

impl RowSink for Sink<'_> {
    #[inline]
    fn apply(&mut self, kernel: &LinearKernel, inputs: &[&[f64]], walk: &Walk, region: &Region) {
        kernel.apply(inputs, self, walk, region);
    }
}

/// The output of a job writing a grid a tiled chain keeps in a
/// [`Window`]: the job's rows of one tile-plane land in one run of ring
/// rows and one run of strip rows, each a slice of the window's storage
/// with the storage index of its first element (`usize::MAX` for an
/// absent strip run).
pub(crate) struct WindowSink<'w> {
    pub(crate) runs: [(&'w mut [f64], usize); 2],
    pub(crate) window: &'w Window,
    pub(crate) scan: &'w FiniteScan,
}

impl WindowSink<'_> {
    /// Segment `i0..i1` of output row `(j, k)`.
    #[inline]
    fn segment(&mut self, j: isize, k: isize, i0: usize, i1: usize) -> &mut [f64] {
        let at = self.window.base(j, k) as usize + i0;
        let (run, first) = &mut self.runs[usize::from(at >= self.runs[1].1)];
        let at = at - *first;
        &mut run[at..at + (i1 - i0)]
    }
}

impl RowSink for WindowSink<'_> {
    #[inline]
    fn apply(&mut self, kernel: &LinearKernel, inputs: &[&[f64]], walk: &Walk, region: &Region) {
        kernel.apply_windowed(inputs, self, walk, region);
    }
}

/// Runs `kernel` over `regions` of the walk on `pool`, one job per
/// region writing through its own sink of `sinks` (one per region, in
/// order); reads the input storage `inputs` (one slice per input grid).
/// Returns the number of regions (= threads used).
pub(crate) fn rows_on_pool<S: RowSink>(
    pool: &ExecPool,
    kernel: &LinearKernel,
    inputs: &[&[f64]],
    sinks: impl Iterator<Item = S>,
    walk: &Walk,
    regions: &[Region],
    prof: &SweepProfiler,
) -> usize {
    let jobs: Vec<ScopedJob<'_>> = regions
        .iter()
        .zip(sinks)
        .map(|(region, mut sink)| {
            Box::new(move || {
                let t0 = prof.start();
                sink.apply(kernel, inputs, walk, region);
                prof.chunk_done(t0);
            }) as ScopedJob<'_>
        })
        .collect();
    pool.run(jobs);
    regions.len()
}

/// Points per evaluation chunk of the tape tier: wide enough that the
/// per-instruction dispatch is amortised over a vectorisable loop, small
/// enough that the register file of a fused ODE stage (tens of
/// instructions) stays cache-resident.
const TAPE_CHUNK: usize = 256;

/// Tape stencils on row-major storage: the regions of the walk on the
/// pool, as the row kernel runs them; each row segment is evaluated
/// [`TAPE_CHUNK`] points at a time by the register program, loading
/// straight from the source row slices. The per-region register file and
/// access bases are allocated once per job, outside the loops.
#[allow(clippy::too_many_arguments)] // the pass's program, walk and sinks
fn tape_fast_path(
    pool: &ExecPool,
    tape: &Tape,
    inputs: &[&Grid3],
    out: &mut Grid3,
    walk: &Walk,
    regions: &[Region],
    prof: &SweepProfiler,
    scan: &FiniteScan,
) -> usize {
    // No row segment is longer than a block.
    let width = TAPE_CHUNK.min(walk.block()[0]);
    // Per access slot: geometry, element offset, source slice.
    let slots: Vec<(Geom, isize, &[f64])> = tape
        .accesses()
        .iter()
        .map(|(g, o)| {
            let ge = Geom::of(inputs[*g]);
            (ge, ge.offset_of(*o), inputs[*g].as_slice())
        })
        .collect();
    let slots = &slots;
    let jobs: Vec<ScopedJob<'_>> = regions
        .iter()
        .zip(windows(out, regions, scan))
        .map(|(region, sink)| {
            Box::new(move || {
                let t0 = prof.start();
                let mut bases = vec![0usize; slots.len()];
                let mut regs = tape.registers(width);
                walk.rows(region, |k, j, i0, i1| {
                    let (j, k) = (j as isize, k as isize);
                    for (base, &(ge, off, _)) in bases.iter_mut().zip(slots) {
                        *base = (ge.row_base(j, k) + off) as usize;
                    }
                    let ob = (sink.geom.row_base(j, k) - sink.base) as usize;
                    for (c, dst) in sink.win[ob + i0..ob + i1].chunks_mut(width).enumerate() {
                        let i = i0 + c * width;
                        tape.run(&mut regs, width, |s| &slots[s].2[bases[s] + i..], dst);
                        scan.check(dst);
                    }
                });
                prof.chunk_done(t0);
            }) as ScopedJob<'_>
        })
        .collect();
    pool.run(jobs);
    regions.len()
}

/// The per-point path: every point of `regions` evaluated through the
/// layout-agnostic accessors, in walk order, with `scratch` from
/// [`CompiledStencil::point_scratch`]. Single-threaded by design: folded
/// layouts scatter a row across bricks, so there is no contiguous
/// storage window to hand each worker, and the walk gives per-point
/// kernels one region (see [`crate::SweepReport::threads_used`]).
/// Returns the number of regions.
fn per_point(
    compiled: &CompiledStencil,
    scratch: &mut [f64],
    inputs: &[&Grid3],
    out: &mut Grid3,
    walk: &Walk,
    regions: &[Region],
    scan: &FiniteScan,
) -> usize {
    for region in regions {
        walk.rows(region, |k, j, i0, i1| {
            let (j, k) = (j as isize, k as isize);
            for i in i0 as isize..i1 as isize {
                let v = compiled.eval_at_in(scratch, inputs, i, j, k);
                out.set(i, j, k, v);
                scan.check(&[v]);
            }
        });
    }
    regions.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepRequest, Tier};
    use crate::SimContext;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{box3d, heat3d, inverter_chain_rhs, wave2d};

    fn filled(name: &str, n: [usize; 3], halo: [usize; 3], fold: Fold) -> Grid3 {
        let mut g = Grid3::new(name, n, halo, fold);
        g.fill_with(|i, j, k| ((i * 7 + j * 13 + k * 29) % 23) as f64 * 0.125 - 1.0);
        g.fill_halo(0.25);
        g
    }

    fn reference(stencil: &Stencil, inputs: &[&Grid3], n: [usize; 3]) -> Grid3 {
        let mut r = Grid3::new("ref", n, [0, 0, 0], Fold::unit());
        stencil.apply_reference(inputs, &mut r).unwrap();
        r
    }

    /// Runs a spatial sweep under an explicit tier policy (pinned so the
    /// assertions hold under any `YASKSITE_FORCE_TIER` environment).
    fn sweep(
        stencil: &Stencil,
        inputs: &[&Grid3],
        out: &mut Grid3,
        p: &TuningParams,
        policy: TierPolicy,
    ) -> crate::sweep::SweepReport {
        SweepRequest::new(p)
            .tier(policy)
            .apply(stencil, inputs, out)
            .unwrap()
    }

    #[test]
    fn fast_path_matches_reference() {
        let s = heat3d(1);
        let n = [24, 10, 9];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let r = reference(&s, &[&u], n);
        let p = TuningParams::new([8, 4, 4], fold);
        for policy in [TierPolicy::ForceScalar, TierPolicy::ForceFolded] {
            let mut out = Grid3::new("o", n, [1, 1, 1], fold);
            let run = sweep(&s, &[&u], &mut out, &p, policy);
            assert_eq!(run.updates, 24 * 10 * 9);
            assert!(out.max_abs_diff(&r).unwrap() < 1e-12, "{policy:?}");
        }
    }

    #[test]
    fn folded_lane_tier_is_bitwise_identical_to_scalar_tier() {
        // Both row-major rungs run one kernel; every supported lane
        // count, one to four stripes, awkward row lengths, multiple
        // threads, and the reference on every run.
        for (s, halo) in [
            (heat3d(1), [1, 1, 1]), // 7 terms: one stripe
            (box3d(1), [1, 1, 1]),  // 27 terms: four stripes
            (heat3d(2), [2, 2, 2]), // 13 terms: two stripes
        ] {
            let n = [21, 7, 6];
            for lanes in [2usize, 4, 8, 16] {
                let fold = Fold::new(lanes, 1, 1);
                let u = filled("u", n, halo, fold);
                let p = TuningParams::new([9, 4, 3], fold).threads(2);
                let mut scalar = Grid3::new("s", n, halo, fold);
                let rs = sweep(&s, &[&u], &mut scalar, &p, TierPolicy::ForceScalar);
                assert_eq!(rs.tier, Tier::Scalar);
                let mut folded = Grid3::new("f", n, halo, fold);
                let rf = sweep(&s, &[&u], &mut folded, &p, TierPolicy::ForceFolded);
                assert_eq!(rf.tier, Tier::Folded, "lanes={lanes}");
                assert_eq!(
                    scalar.max_abs_diff(&folded).unwrap(),
                    0.0,
                    "stencil {} lanes {lanes} diverged",
                    s.name()
                );
                assert!(folded.max_abs_diff(&reference(&s, &[&u], n)).unwrap() < 1e-12);
            }
        }
    }

    #[test]
    fn threaded_fast_path_matches_reference() {
        let s = heat3d(1);
        let n = [16, 8, 12];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let r = reference(&s, &[&u], n);
        for threads in [1, 2, 3, 5] {
            let mut out = Grid3::new("o", n, [1, 1, 1], fold);
            let p = TuningParams::new([8, 4, 2], fold).threads(threads);
            let run = sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
            assert!(run.threads_used >= 1 && run.threads_used <= threads.max(1));
            assert!(out.max_abs_diff(&r).unwrap() < 1e-12, "threads={threads}");
        }
    }

    #[test]
    fn threads_used_counts_nonempty_slabs_only() {
        // n_z = 4 with block_z = 2 gives 2 z-blocks: asking for 8 threads
        // must report 2 slabs of real work, not 8.
        let s = heat3d(1);
        let n = [16, 4, 4];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let mut out = Grid3::new("o", n, [1, 1, 1], fold);
        let p = TuningParams::new([16, 4, 2], fold).threads(8);
        let run = sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
        assert_eq!(run.threads_used, 2);
        let r = reference(&s, &[&u], n);
        assert!(out.max_abs_diff(&r).unwrap() < 1e-12);
    }

    #[test]
    fn private_pool_matches_global_pool_bitwise() {
        let s = heat3d(1);
        let n = [24, 12, 10];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let p = TuningParams::new([8, 4, 2], fold).threads(4);
        let mut a = Grid3::new("a", n, [1, 1, 1], fold);
        let mut b = Grid3::new("b", n, [1, 1, 1], fold);
        SweepRequest::new(&p).apply(&s, &[&u], &mut a).unwrap();
        let small = ExecPool::new(1);
        SweepRequest::new(&p)
            .pool(&small)
            .apply(&s, &[&u], &mut b)
            .unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);
    }

    #[test]
    fn brick_tier_matches_reference_and_generic_path_bitwise() {
        // Multi-dimensional folds used to fall back to the per-point
        // generic path; the brick kernel must reproduce it bitwise and
        // thread over brick-z slabs.
        for fold in [Fold::new(4, 2, 1), Fold::new(2, 2, 2), Fold::new(1, 2, 1)] {
            let s = box3d(1);
            let n = [12, 6, 6];
            let u = filled("u", n, [1, 1, 1], fold);
            let p = TuningParams::new([4, 4, 4], fold);
            let mut gen = Grid3::new("g", n, [1, 1, 1], fold);
            let rg = sweep(&s, &[&u], &mut gen, &p, TierPolicy::ForceScalar);
            assert_eq!(rg.tier, Tier::Generic, "no scalar rows on {fold}");
            assert_eq!(rg.threads_used, 1);
            let mut brick = Grid3::new("b", n, [1, 1, 1], fold);
            let rb = sweep(&s, &[&u], &mut brick, &p, TierPolicy::Auto);
            assert_eq!(rb.tier, Tier::Folded, "fold={fold}");
            assert_eq!(gen.max_abs_diff(&brick).unwrap(), 0.0, "fold={fold}");
            assert!(brick.max_abs_diff(&reference(&s, &[&u], n)).unwrap() < 1e-12);
            // Threaded brick runs stay bitwise identical and report the
            // brick-z slab count.
            for threads in [2usize, 3, 8] {
                let mut t = Grid3::new("t", n, [1, 1, 1], fold);
                let rt = sweep(
                    &s,
                    &[&u],
                    &mut t,
                    &p.clone().threads(threads),
                    TierPolicy::Auto,
                );
                assert_eq!(rt.tier, Tier::Folded);
                assert!(rt.threads_used >= 1 && rt.threads_used <= threads);
                assert_eq!(
                    brick.max_abs_diff(&t).unwrap(),
                    0.0,
                    "fold={fold} t={threads}"
                );
            }
        }
    }

    #[test]
    fn brick_tier_leaves_halo_untouched() {
        let s = heat3d(1);
        let n = [10, 6, 5];
        let fold = Fold::new(4, 2, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let mut out = Grid3::new("o", n, [1, 1, 1], fold);
        out.fill_halo(7.5);
        let p = TuningParams::new([4, 4, 4], fold).threads(2);
        let run = sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
        assert_eq!(run.tier, Tier::Folded);
        let h = out.halo().map(|e| e as isize);
        let nn = out.n().map(|e| e as isize);
        for k in -h[2]..nn[2] + h[2] {
            for j in -h[1]..nn[1] + h[1] {
                for i in -h[0]..nn[0] + h[0] {
                    let inside = i >= 0 && i < nn[0] && j >= 0 && j < nn[1] && k >= 0 && k < nn[2];
                    if !inside {
                        assert_eq!(out.get(i, j, k), 7.5, "halo clobbered at ({i},{j},{k})");
                    }
                }
            }
        }
    }

    #[test]
    fn brick_tier_handles_two_input_stencils() {
        let s = wave2d(0.3);
        let n = [12, 10, 1];
        let fold = Fold::new(2, 2, 1);
        let u = filled("u", n, [1, 1, 0], fold);
        let um = filled("um", n, [1, 1, 0], fold);
        let mut out = Grid3::new("o", n, [1, 1, 0], fold);
        let p = TuningParams::new([8, 8, 1], fold).threads(2);
        let run = sweep(&s, &[&u, &um], &mut out, &p, TierPolicy::Auto);
        assert_eq!(run.tier, Tier::Folded);
        let r = reference(&s, &[&u, &um], n);
        assert!(out.max_abs_diff(&r).unwrap() < 1e-12);
    }

    #[test]
    fn nonlinear_tape_matches_reference() {
        let s = inverter_chain_rhs(5.0, 1.0, 2.0);
        let n = [64, 1, 1];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 0, 0], fold);
        let mut out = Grid3::new("o", n, [1, 0, 0], fold);
        let p = TuningParams::new([16, 1, 1], fold);
        let run = sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
        assert_eq!(run.tier, Tier::Tape);
        let r = reference(&s, &[&u], n);
        assert!(out.max_abs_diff(&r).unwrap() < 1e-12);
    }

    #[test]
    fn threaded_tape_path_matches_single_thread_bitwise() {
        let s = inverter_chain_rhs(5.0, 1.0, 2.0);
        let n = [32, 4, 6];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let p1 = TuningParams::new([16, 2, 2], fold);
        let mut one = Grid3::new("o1", n, [1, 1, 1], fold);
        let r1 = sweep(&s, &[&u], &mut one, &p1, TierPolicy::Auto);
        assert_eq!(r1.threads_used, 1);
        for threads in [2, 3, 4] {
            let mut many = Grid3::new("om", n, [1, 1, 1], fold);
            let p = p1.clone().threads(threads);
            let run = sweep(&s, &[&u], &mut many, &p, TierPolicy::Auto);
            assert!(run.threads_used > 1, "tape path must thread over slabs");
            assert_eq!(one.max_abs_diff(&many).unwrap(), 0.0, "threads={threads}");
        }
    }

    #[test]
    fn deep_and_wide_expressions_run_on_the_tape_and_generic_tiers() {
        // Registers and access slots are sized from the expression: a
        // 100-deep right-nested chain and a 300-access stencil (past the
        // 64-value stack and 256-access buffer of a fixed-size evaluator)
        // sweep on both tiers that evaluate tapes, bit for bit like the
        // reference.
        use yasksite_stencil::{at, c};
        let mut deep = at(0, 0, 0, 0);
        for d in 0..100 {
            deep = (at(0, 0, 0, 0) + c(f64::from(d) * 0.01)) * deep;
        }
        let offsets = (-3..=3)
            .flat_map(|dz| (-3..=3).flat_map(move |dy| (-3..=3).map(move |dx| (dx, dy, dz))))
            .take(300);
        let wide = offsets.fold(c(0.0), |sum, (dx, dy, dz)| {
            sum + at(0, dx, dy, dz) * at(0, dx, dy, dz)
        });
        for (name, expr, accesses) in [("deep", deep, 1), ("wide", wide, 300)] {
            let s = Stencil::new(name, 3, 1, expr);
            let CompiledStencil::Tape(tape) = CompiledStencil::compile(&s) else {
                panic!("{name} is non-linear");
            };
            assert_eq!(tape.accesses().len(), accesses, "{name}");
            assert!(tape.instructions() >= 100, "{name}");
            let n = [11, 3, 3];
            for (fold, tier) in [
                (Fold::new(4, 1, 1), Tier::Tape),
                (Fold::new(2, 2, 1), Tier::Generic),
            ] {
                let u = filled("u", n, [3, 3, 3], fold);
                let mut out = Grid3::new("o", n, [3, 3, 3], fold);
                let p = TuningParams::new([8, 2, 2], fold).threads(2);
                let run = sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
                assert_eq!(run.tier, tier, "{name} on {fold}");
                let r = reference(&s, &[&u], n);
                assert_eq!(out.max_abs_diff(&r).unwrap(), 0.0, "{name} on {fold}");
            }
        }
    }

    #[test]
    fn two_input_stencil_matches_reference() {
        let s = wave2d(0.3);
        let n = [20, 14, 1];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 0], fold);
        let um = filled("um", n, [1, 1, 0], fold);
        let mut out = Grid3::new("o", n, [1, 1, 0], fold);
        let p = TuningParams::new([8, 8, 1], fold).threads(2);
        sweep(&s, &[&u, &um], &mut out, &p, TierPolicy::Auto);
        let r = reference(&s, &[&u, &um], n);
        assert!(out.max_abs_diff(&r).unwrap() < 1e-12);
    }

    #[test]
    fn fold_mismatch_rejected() {
        let s = heat3d(1);
        let u = filled("u", [8, 8, 8], [1, 1, 1], Fold::new(8, 1, 1));
        let mut out = Grid3::new("o", [8, 8, 8], [1, 1, 1], Fold::new(8, 1, 1));
        let p = TuningParams::new([8, 8, 8], Fold::new(4, 2, 1));
        assert!(matches!(
            SweepRequest::new(&p).apply(&s, &[&u], &mut out),
            Err(EngineError::BadParams { .. })
        ));
    }

    #[test]
    fn prepared_sweep_rejects_grids_of_another_geometry() {
        // Prepared against 16x4x4 grids with halo 1 on an 8-lane fold.
        // Every mismatch is an error and leaves the output untouched:
        // another domain with the same allocation (15 + 2 pads to 24
        // like 16 + 2), another halo, another fold (and so another
        // allocation), on an input or on the output, and the wrong arity.
        // The simulated sink rejects each with the same variant and
        // simulates nothing.
        let s = heat3d(1);
        let (n, halo, fold) = ([16, 4, 4], [1, 1, 1], Fold::new(8, 1, 1));
        let u = filled("u", n, halo, fold);
        let out = Grid3::new("o", n, halo, fold);
        let p = TuningParams::new([8, 4, 4], fold);
        let sweep = SweepRequest::new(&p).prepare(&s, &[&u], &out).unwrap();
        let pool = ExecPool::global();
        let mut ctx = SimContext::new(&yasksite_arch::Machine::cascade_lake(), 1);
        let others = [
            filled("n", [15, 4, 4], halo, fold),
            filled("h", n, [2, 2, 2], fold),
            filled("f", n, halo, Fold::new(4, 1, 1)),
        ];
        assert_eq!(others[0].alloc(), u.alloc(), "a domain-only change");
        assert_ne!(others[2].alloc(), u.alloc(), "a fold change re-pads");
        for other in &others {
            let mut o = out.clone();
            let err = sweep.run(pool, &[other], &mut o).unwrap_err();
            assert!(matches!(err, EngineError::BadParams { .. }), "{err}");
            let err = sweep.simulate(&mut ctx, &[other], &o).unwrap_err();
            assert!(matches!(err, EngineError::BadParams { .. }), "{err}");
            let mut wrong_out = other.clone();
            wrong_out.fill_all(0.5);
            let err = sweep.run(pool, &[&u], &mut wrong_out).unwrap_err();
            assert!(matches!(err, EngineError::BadParams { .. }), "{err}");
            assert!(wrong_out.as_slice().iter().all(|&v| v == 0.5));
            let err = sweep.simulate(&mut ctx, &[&u], &wrong_out).unwrap_err();
            assert!(matches!(err, EngineError::BadParams { .. }), "{err}");
        }
        let mut o = out.clone();
        for inputs in [&[][..], &[&u, &u][..]] {
            let err = sweep.run(pool, inputs, &mut o).unwrap_err();
            assert!(matches!(err, EngineError::Binding(_)), "{err}");
            let err = sweep.simulate(&mut ctx, inputs, &o).unwrap_err();
            assert!(matches!(err, EngineError::Binding(_)), "{err}");
        }
        assert!(o.as_slice().iter().all(|&v| v == 0.0), "nothing ran");
        assert_eq!(ctx.updates(), 0, "nothing was simulated");
        sweep.simulate(&mut ctx, &[&u], &out).unwrap();
        assert_eq!(ctx.updates(), 16 * 4 * 4);
        // The prepared grids themselves still run.
        sweep.run(pool, &[&u], &mut o).unwrap();
        assert!(o.max_abs_diff(&reference(&s, &[&u], n)).unwrap() < 1e-12);
    }

    #[test]
    fn a_prepared_sweep_compiles_once_and_sweeps_every_run() {
        let s = heat3d(1);
        let n = [24, 6, 4];
        let fold = Fold::new(8, 1, 1);
        let mut a = filled("a", n, [1, 1, 1], fold);
        let mut b = Grid3::new("b", n, [1, 1, 1], fold);
        let p = TuningParams::new([8, 4, 2], fold).threads(2);
        let count = |prof: &SweepProfiler, name: &str| {
            let r = prof.report();
            r.phases
                .iter()
                .find(|ph| ph.name == name)
                .map(|ph| ph.count)
        };
        let prof = SweepProfiler::enabled();
        let sweep = SweepRequest::new(&p)
            .profiler(&prof)
            .prepare(&s, &[&a], &b)
            .unwrap();
        assert_eq!(count(&prof, "compile"), Some(1));
        assert_eq!(count(&prof, "sweep"), None, "preparing runs nothing");
        let mut plain = (a.clone(), b.clone());
        for _ in 0..3 {
            // Ping-pong: the storage moves, the geometry stays.
            sweep.run(ExecPool::global(), &[&a], &mut b).unwrap();
            a.swap_data(&mut b).unwrap();
            let (pa, pb) = &mut plain;
            SweepRequest::new(&p).apply(&s, &[&*pa], pb).unwrap();
            pa.swap_data(pb).unwrap();
        }
        assert_eq!(count(&prof, "compile"), Some(1));
        assert_eq!(count(&prof, "sweep"), Some(3));
        assert_eq!(a.max_abs_diff(&plain.0).unwrap(), 0.0);
    }

    #[test]
    fn sub_blocks_never_change_results() {
        let s = heat3d(1);
        let n = [19, 11, 9];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let r = reference(&s, &[&u], n);
        for sub in [[4, 2, 2], [1, 1, 1], [32, 32, 32], [5, 3, 2]] {
            let mut out = Grid3::new("o", n, [1, 1, 1], fold);
            let p = TuningParams::new([16, 8, 8], fold)
                .sub_block(sub)
                .threads(2);
            sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
            assert!(out.max_abs_diff(&r).unwrap() < 1e-12, "sub {sub:?}");
        }
    }

    #[test]
    fn block_size_never_changes_results() {
        let s = heat3d(1);
        let n = [17, 9, 7]; // awkward sizes exercise remainder blocks
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let r = reference(&s, &[&u], n);
        for block in [[1, 1, 1], [3, 3, 3], [17, 9, 7], [32, 32, 32], [5, 2, 6]] {
            let mut out = Grid3::new("o", n, [1, 1, 1], fold);
            let p = TuningParams::new(block, fold);
            sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
            assert!(out.max_abs_diff(&r).unwrap() < 1e-12, "block {block:?}");
        }
    }

    #[test]
    fn profiled_run_is_bitwise_identical_and_records_phases() {
        let s = heat3d(1);
        let n = [24, 12, 10];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let p = TuningParams::new([8, 4, 2], fold).threads(3);
        let mut plain = Grid3::new("a", n, [1, 1, 1], fold);
        let mut profiled = Grid3::new("b", n, [1, 1, 1], fold);
        let pool = ExecPool::new(3);
        SweepRequest::new(&p)
            .pool(&pool)
            .apply(&s, &[&u], &mut plain)
            .unwrap();
        let prof = SweepProfiler::enabled();
        let run = SweepRequest::new(&p)
            .pool(&pool)
            .profiler(&prof)
            .apply(&s, &[&u], &mut profiled)
            .unwrap();
        assert_eq!(plain.max_abs_diff(&profiled).unwrap(), 0.0);
        let r = prof.report();
        assert!(r.enabled);
        // `apply` prepares and runs: one of each phase.
        for name in ["compile", "sweep"] {
            let phase = r.phases.iter().find(|ph| ph.name == name);
            assert_eq!(phase.map(|ph| ph.count), Some(1), "{name}");
        }
        let chunks = r.chunks.expect("threaded sweep records chunks");
        assert_eq!(chunks.count as usize, run.threads_used);
        let pool_win = r.pool.expect("pool window recorded");
        assert_eq!(pool_win.workers, 3);
        assert!(pool_win.occupancy > 0.0 && pool_win.occupancy <= 1.0);
    }

    #[test]
    fn profiled_brick_tier_records_chunks_and_stays_bitwise() {
        let s = box3d(1);
        let n = [12, 8, 8];
        let fold = Fold::new(4, 2, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let p = TuningParams::new([4, 4, 4], fold).threads(3);
        let mut plain = Grid3::new("a", n, [1, 1, 1], fold);
        let mut profiled = Grid3::new("b", n, [1, 1, 1], fold);
        SweepRequest::new(&p)
            .tier(TierPolicy::Auto)
            .apply(&s, &[&u], &mut plain)
            .unwrap();
        let prof = SweepProfiler::enabled();
        let run = SweepRequest::new(&p)
            .tier(TierPolicy::Auto)
            .profiler(&prof)
            .apply(&s, &[&u], &mut profiled)
            .unwrap();
        assert_eq!(run.tier, Tier::Folded);
        assert_eq!(plain.max_abs_diff(&profiled).unwrap(), 0.0);
        let r = prof.report();
        let chunks = r.chunks.expect("brick tier records per-slab chunks");
        assert_eq!(chunks.count as usize, run.threads_used);
    }

    #[test]
    fn multi_stripe_rows_match_reference_and_threads_bitwise() {
        // box3d(2) has 125 terms: sixteen stripes, the last of five.
        // The rows must agree with the reference, with their own
        // single-threaded run under four threads, and with themselves
        // under the folded rung's name.
        let s = box3d(2);
        let n = [20, 9, 8];
        let fold = Fold::new(4, 1, 1);
        let u = filled("u", n, [2, 2, 2], fold);
        let p = TuningParams::new([10, 4, 2], fold);
        let mut one = Grid3::new("o1", n, [2, 2, 2], fold);
        sweep(&s, &[&u], &mut one, &p, TierPolicy::ForceScalar);
        let r = reference(&s, &[&u], n);
        assert!(one.max_abs_diff(&r).unwrap() < 1e-12);
        let mut four = Grid3::new("o4", n, [2, 2, 2], fold);
        sweep(
            &s,
            &[&u],
            &mut four,
            &p.clone().threads(4),
            TierPolicy::ForceScalar,
        );
        assert_eq!(one.max_abs_diff(&four).unwrap(), 0.0);
        let mut lanes = Grid3::new("ol", n, [2, 2, 2], fold);
        let rl = sweep(
            &s,
            &[&u],
            &mut lanes,
            &p.clone().threads(4),
            TierPolicy::ForceFolded,
        );
        assert_eq!(rl.tier, Tier::Folded);
        assert_eq!(one.max_abs_diff(&lanes).unwrap(), 0.0);
    }
}
