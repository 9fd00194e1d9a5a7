//! Tiled chains: a sequence of sweeps run as one pass over the domain,
//! skewed in z and tiled in y.
//!
//! A chain is a list of *levels*, each a prepared sweep bound to a pool
//! of grids: its own input grids, its own output grid. Two kinds of
//! caller build one. A depth-`w` wavefront
//! ([`crate::SweepRequest::prepare_wavefront`]) is `w` equal levels over a
//! ping-pong pair, and an explicit ODE step is its stage and update
//! sweeps, which read and rewrite several grids of a larger pool. Both
//! follow one rule ([`chain_runs_tiled`]): a chain runs tiled when its
//! parameters ask for a wavefront and every sweep plans the linear row
//! kernel, and op by op, each sweep on its planned kernel, otherwise.
//!
//! Run op by op, each level sweeps the whole domain before the next one
//! starts. Run tiled, the domain is cut into y-tiles of
//! `clipped_block(n)[1] × params.threads` rows, run one after another,
//! and each tile runs the whole z-wavefront: plane `z` of level `l + 1`
//! is computed as soon as the planes it reads are ready, with a skew of
//! `shift = max(r_z, 1)` planes per level, while the tile's rows move
//! back by `sy = max(r_y, 1)` rows per level (a parallelogram in y and
//! level), `r` being the largest radius of any level. Only one tile's
//! planes are live at a time, so a block height whose working set fits
//! in L2 lets each level read what the levels before it left there
//! instead of re-streaming whole planes from L3 or memory. A block as
//! tall as the domain gives one tile.
//!
//! A skew of at least the largest radius per level keeps every order the
//! op-by-op run has, whatever the levels read and write: a value is read
//! only after the last level before the reader wrote it (read after
//! write), overwritten only after every earlier level that reads the old
//! value ran (write after read), and a grid written twice keeps its
//! writers' order. That covers the ping-pong pair of a wavefront and the
//! grids an ODE step rewrites within a step; DESIGN.md "Tiled chains"
//! has the argument. No level ever writes a halo. [`Schedule`] is the
//! one statement of that order, and a [`PreparedChain`] has two sinks
//! that follow it: [`PreparedChain::run`] executes the chain on the host,
//! and [`PreparedChain::simulate`] replays the same tile-planes on a
//! simulated machine. Both take the tiled decision, the levels' kernel
//! plans and the binding checks from the one preparation.
//!
//! A tile-plane's rows are split into `params.threads` chunks of one
//! block height, and each chunk is walked like a spatial sweep's slab
//! ([`crate::walk`]): blocked in x and y by `params.block` and
//! sub-blocked. The chunks run through the same allocation-free linear
//! row kernel as a spatial [`crate::PreparedSweep::run`], on the
//! persistent [`ExecPool`]. The per-point operation order is identical
//! to the op-by-op run's, so a tiled chain bitwise-matches its levels
//! swept one after another.
//!
//! A tiled chain may keep *transient* grids (one writer, read only by
//! later levels) in a [`Window`] instead of a pool grid
//! ([`PreparedChain::with_windows`]): a ring of the planes the writer's
//! readers still reach, plus a carry strip of the top rows of every tile
//! that the next tiles read, double-buffered by tile. Its map from
//! `(j, k)` to a storage row is pure, so the native row kernel, the
//! window sink of the writer and the simulated sink all resolve the same
//! row through it, and the values never touch a whole grid.

use std::borrow::{Borrow, BorrowMut};
use std::time::Instant;

use yasksite_grid::{Fold, Grid3};

use crate::error::EngineError;
use crate::native::{rows_on_pool, FiniteScan, GridGeometry, PreparedSweep};
use crate::params::TuningParams;
use crate::pool::ExecPool;
use crate::profile::SweepProfiler;
use crate::sweep::{Kernel, PlannedKernel, SweepReport};
use crate::walk::{windowed, windows, Walk};

/// One level of a chain: the sweep it runs (an index into the chain's
/// sweeps), the pool grids it reads, in the stencil's input order, and
/// the pool grid it writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLevel {
    /// Index of the level's sweep.
    pub sweep: usize,
    /// Pool indices of the sweep's inputs.
    pub inputs: Vec<usize>,
    /// Pool index of the sweep's output.
    pub output: usize,
}

/// One unit of a tiled chain's work: rows `rows.0..rows.1` of plane `z`
/// of level `level`, inside y-tile `tile`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TilePlane {
    pub(crate) level: usize,
    pub(crate) z: usize,
    pub(crate) tile: usize,
    pub(crate) rows: (usize, usize),
}

/// The order of a tiled chain's work: y-tiles one after another, each a
/// z-wavefront of tile-planes, each tile-plane split into one row chunk
/// per thread.
///
/// At level `l`, tile `T` covers rows `[T·h − l·sy, (T+1)·h − l·sy)`
/// clamped to the domain, with `h = block_y × threads` and
/// `sy = max(r_y, 1)`; the first tile starts at row 0 and the last ends
/// at `n_y`. Thread `c` of a tile-plane takes the `c`-th block height of
/// the skewed tile, the last thread also what the last tile adds.
#[derive(Debug)]
pub(crate) struct Schedule {
    n: [usize; 3],
    levels: usize,
    /// The chain's largest per-axis radius.
    radius: [usize; 3],
    /// z-skew per level, in planes.
    shift: usize,
    /// y-skew per level, in rows.
    sy: usize,
    /// Rows of one thread's chunk: the clipped block height.
    block_y: usize,
    threads: usize,
    tiles: usize,
}

impl Schedule {
    /// The schedule of a chain of `levels` levels whose largest per-axis
    /// radius is `radius`, over domain `n`. `params` must be valid for
    /// `n` ([`TuningParams::validate`]).
    pub(crate) fn new(
        n: [usize; 3],
        levels: usize,
        radius: [usize; 3],
        params: &TuningParams,
    ) -> Schedule {
        let block_y = params.clipped_block(n)[1];
        Schedule {
            n,
            levels,
            radius,
            shift: radius[2].max(1),
            sy: radius[1].max(1),
            block_y,
            threads: params.threads,
            tiles: n[1].div_ceil(block_y * params.threads),
        }
    }

    /// First row of tile `tile` at `level` before clamping (may be
    /// negative).
    fn tile_start(&self, tile: usize, level: usize) -> isize {
        (tile * self.block_y * self.threads) as isize - (level * self.sy) as isize
    }

    fn clamp_row(&self, row: isize) -> usize {
        row.clamp(0, self.n[1] as isize) as usize
    }

    /// The tile-planes in execution order; empty ones (a tile shorter
    /// than its skew) are skipped.
    pub(crate) fn tile_planes(&self) -> impl Iterator<Item = TilePlane> + '_ {
        let zmax = self.n[2] + (self.levels - 1) * self.shift;
        (0..self.tiles).flat_map(move |tile| {
            (0..zmax).flat_map(move |zt| {
                (0..self.levels).filter_map(move |level| {
                    let z = zt
                        .checked_sub(level * self.shift)
                        .filter(|&z| z < self.n[2])?;
                    let j0 = if tile == 0 {
                        0
                    } else {
                        self.clamp_row(self.tile_start(tile, level))
                    };
                    let j1 = if tile + 1 == self.tiles {
                        self.n[1]
                    } else {
                        self.clamp_row(self.tile_start(tile + 1, level))
                    };
                    (j0 < j1).then_some(TilePlane {
                        level,
                        z,
                        tile,
                        rows: (j0, j1),
                    })
                })
            })
        })
    }

    /// The non-empty row chunks of `tp` as `(thread, j0, j1)`, in row
    /// order.
    pub(crate) fn chunks(
        &self,
        tp: &TilePlane,
    ) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let start = self.tile_start(tp.tile, tp.level);
        let (j0, j1) = tp.rows;
        let bound = move |c: usize| match c {
            0 => j0,
            c if c == self.threads => j1,
            c => self
                .clamp_row(start + (c * self.block_y) as isize)
                .clamp(j0, j1),
        };
        (0..self.threads)
            .map(move |c| (c, bound(c), bound(c + 1)))
            .filter(|&(_, lo, hi)| lo < hi)
    }
}

/// Where a tiled chain keeps a transient grid: a grid one level (the
/// writer) writes and only later levels read, so no value of it outlives
/// the step. Instead of a whole grid it lives in rows of a small storage,
/// and the window is the pure map from each domain row `(j, k)` to the
/// storage row that holds it:
///
/// - **Ring.** `P = (m − w)·shift + r_z + 1` plane slots (`w` the writer,
///   `m` the last reader): plane `k` goes to slot `k mod P`, each slot
///   the rows one tile writes.
/// - **Carry strip.** The top `c = min(S, h)` rows of every tile, with
///   `S = (m − w)·sy + r_y` and `h` the tile height, for every plane: the
///   rows the next tiles' readers reach back to. Tile `T` writes buffer
///   `T mod B` of `B = ⌈S / h⌉ + 1` (two for `h ≥ S`), so no tile
///   overwrites a carry its readers still need. One tile needs no strip.
/// - **Halo.** Every row outside the domain maps to one constant row,
///   and every row's x-halo holds the grid's halo value.
///
/// Storage row `r` starts at element `(r + 1)·a_x`: row `−1` is the halo
/// row. DESIGN.md "Tiled chains" derives `P`, `S` and `B` from the skew.
#[derive(Debug, Clone)]
pub(crate) struct Window {
    /// Per domain row `j`: the storage index of its x = 0 at plane 0,
    /// and whether it lives in the strip (1) or the ring (0).
    ys: Vec<(isize, usize)>,
    /// Per plane `k`: its storage offset in the ring and in the strip.
    zs: Vec<[isize; 2]>,
    /// Storage rows, the halo row excluded.
    rows: usize,
    /// Domain extent in x, halo in x and allocated row length.
    pub(crate) nx: usize,
    hx: usize,
    ax: usize,
}

impl Window {
    /// The window of a grid level `writer` writes and levels up to
    /// `last_reader` read, in the tiles of `schedule`, over rows of the
    /// x-geometry of `out` (the writer's output).
    pub(crate) fn new(
        schedule: &Schedule,
        writer: usize,
        last_reader: usize,
        out: &GridGeometry,
    ) -> Window {
        let [_, ny, nz] = schedule.n;
        let [_, ry, rz] = schedule.radius;
        let span = last_reader.max(writer) - writer;
        let planes = (span * schedule.shift + rz + 1).min(nz);
        let reach = span * schedule.sy + ry;
        let height = schedule.block_y * schedule.threads;
        // One tile carries nothing to a next one.
        let carry = if schedule.tiles > 1 {
            reach.min(height)
        } else {
            0
        };
        let buffers = reach.div_ceil(height) + 1;
        // Per row: its writer tile `t`, then its place in the ring (row of
        // the tile) or in the strip (row of buffer `t mod B`, plane 0).
        let mut ring_rows = 0;
        let places: Vec<(usize, usize)> = (0..ny)
            .map(|j| {
                let lagged = j + writer * schedule.sy;
                let t = (lagged / height).min(schedule.tiles - 1);
                let next = schedule.tile_start(t + 1, writer);
                let carry_start = next - carry as isize;
                if t + 1 < schedule.tiles && j as isize >= carry_start {
                    let row = (j as isize - carry_start) as usize;
                    (1, (t % buffers) * nz * carry + row)
                } else {
                    let row = j - schedule.tile_start(t, writer).max(0) as usize;
                    ring_rows = ring_rows.max(row + 1);
                    (0, row)
                }
            })
            .collect();
        let ring = planes * ring_rows;
        let [hx, ax] = [out.halo[0], out.alloc[0]];
        let at = |row: usize| ((row + 1) * ax + hx) as isize;
        Window {
            ys: places
                .into_iter()
                .map(|(part, row)| (at(row + part * ring), part))
                .collect(),
            zs: (0..nz)
                .map(|k| [(k % planes) * ring_rows, k * carry].map(|r| (r * ax) as isize))
                .collect(),
            rows: ring + buffers * nz * carry,
            nx: out.n[0],
            hx,
            ax,
        }
    }

    /// The storage index of `x = 0` of the row that holds `(j, k)`: the
    /// halo row outside the domain.
    #[inline]
    pub(crate) fn base(&self, j: isize, k: isize) -> isize {
        // A negative coordinate wraps to an index past either table.
        match (self.ys.get(j as usize), self.zs.get(k as usize)) {
            (Some(&(y, part)), Some(z)) => y + z[part],
            // Row −1, the halo row.
            _ => self.hx as isize,
        }
    }

    /// [`Window::base`] of domain row `(j, k)` as a storage index, and
    /// whether the row lives in the strip (1) or the ring (0).
    pub(crate) fn place(&self, j: isize, k: isize) -> (usize, usize) {
        (self.base(j, k) as usize, self.ys[j as usize].1)
    }

    /// The domain and halo of a grid whose storage is exactly the window
    /// (its y-halo rows are the halo row and one spare).
    pub(crate) fn extent(&self) -> ([usize; 3], [usize; 3]) {
        ([self.nx, self.rows, 1], [self.hx, 1, 0])
    }

    /// The elements of a grid of [`Window::extent`].
    fn len(&self) -> usize {
        (self.rows + 2) * self.ax
    }

    /// [`EngineError::BadParams`] unless `grid` can hold the window: rows
    /// stored one after another, as long as the window's and as many of
    /// them. A grid of [`Window::extent`] can, and so can any pool grid
    /// with room for the window's rows (the window then uses its first
    /// rows, whose first is a halo row).
    fn check(&self, grid: &Grid3, fold: Fold) -> Result<(), EngineError> {
        let rows_of_window = grid.fold() == fold
            && fold.y == 1
            && fold.z == 1
            && grid.halo()[0] == self.hx
            && grid.alloc()[0] == self.ax;
        if rows_of_window && grid.len() >= (self.rows + 1) * self.ax {
            return Ok(());
        }
        Err(bad_params(format!(
            "grid '{}' cannot hold a window of {} rows of {} elements",
            grid.name(),
            self.rows,
            self.ax
        )))
    }
}

/// The indices of the `levels` that `pick` holds for, in order.
fn positions(levels: &[ChainLevel], pick: impl Fn(&ChainLevel) -> bool) -> Vec<usize> {
    (0..levels.len()).filter(|&l| pick(&levels[l])).collect()
}

/// The per-axis maximum of `radii`.
fn largest_radius(radii: impl Iterator<Item = [usize; 3]>) -> [usize; 3] {
    radii.fold([0; 3], |m, r| {
        [m[0].max(r[0]), m[1].max(r[1]), m[2].max(r[2])]
    })
}

fn bad_params(reason: String) -> EngineError {
    EngineError::BadParams { reason }
}

/// The grids `level` reads and the grid it writes, out of `grids`;
/// [`EngineError::BadParams`] names the first index out of range.
fn bound<'g, G: Borrow<Grid3>>(
    grids: &'g [G],
    level: &ChainLevel,
) -> Result<(Vec<&'g Grid3>, &'g Grid3), EngineError> {
    let grid = |g: usize| {
        grids
            .get(g)
            .map(Borrow::borrow)
            .ok_or_else(|| bad_params(format!("the chain binds grid {g} of {}", grids.len())))
    };
    let inputs = level.inputs.iter().map(|&g| grid(g));
    Ok((inputs.collect::<Result<_, _>>()?, grid(level.output)?))
}

/// [`bound`] for writing: the indices are in range and the output is not
/// among the inputs.
fn bind<'g, G: BorrowMut<Grid3>>(
    grids: &'g mut [G],
    level: &ChainLevel,
) -> (Vec<&'g Grid3>, &'g mut Grid3) {
    let (before, rest) = grids.split_at_mut(level.output);
    let (out, after) = rest.split_first_mut().expect("output index in range");
    let (before, after) = (&*before, &*after);
    let inputs = level
        .inputs
        .iter()
        .map(|&g| match g.cmp(&level.output) {
            std::cmp::Ordering::Less => before[g].borrow(),
            _ => after[g - level.output - 1].borrow(),
        })
        .collect();
    (inputs, out.borrow_mut())
}

/// Whether [`PreparedChain::new`] runs a chain under `params` whose
/// sweeps plan `kernels` as one tiled pass: a wavefront is asked for and
/// every sweep runs the linear row kernel. Any other chain, a wavefront
/// included, runs op by op. The one tiling rule of every chain.
#[must_use]
pub fn chain_runs_tiled(params: &TuningParams, kernels: impl IntoIterator<Item = Kernel>) -> bool {
    params.wavefront > 1 && kernels.into_iter().all(Kernel::runs_rows)
}

/// A chain of prepared sweeps over a pool of grids, run once per
/// [`PreparedChain::run`]: as one tiled pass when [`chain_runs_tiled`]
/// holds, op by op otherwise. Both orders leave the same bits.
/// [`PreparedChain::simulate`] replays the same pass on a simulated
/// machine.
///
/// ```
/// use yasksite_engine::{ChainLevel, ExecPool, PreparedChain, SweepRequest, TuningParams};
/// use yasksite_grid::{Fold, Grid3};
/// use yasksite_stencil::builders::heat3d;
///
/// // Two heat steps, 0 → 1 → 2, in 4-row tiles.
/// let fold = Fold::new(8, 1, 1);
/// let mut grids: Vec<Grid3> = (0..3)
///     .map(|g| Grid3::new(&format!("g{g}"), [16, 16, 16], [1, 1, 1], fold))
///     .collect();
/// grids[0].fill_with(|i, j, k| (i + j + k) as f64);
/// let params = TuningParams::new([16, 4, 16], fold).wavefront(2);
/// let request = SweepRequest::new(&params);
/// let s = heat3d(1);
/// let sweeps = vec![
///     request.prepare(&s, &[&grids[0]], &grids[1])?,
///     request.prepare(&s, &[&grids[1]], &grids[2])?,
/// ];
/// let levels = vec![
///     ChainLevel { sweep: 0, inputs: vec![0], output: 1 },
///     ChainLevel { sweep: 1, inputs: vec![1], output: 2 },
/// ];
/// let chain = PreparedChain::new(sweeps, levels)?;
/// assert!(chain.tiled());
/// chain.run(ExecPool::global(), &mut grids)?;
/// # Ok::<(), yasksite_engine::EngineError>(())
/// ```
pub struct PreparedChain<'a> {
    pub(crate) sweeps: Vec<PreparedSweep<'a>>,
    pub(crate) levels: Vec<ChainLevel>,
    /// The tiled pass's order; `None` runs the levels op by op.
    pub(crate) schedule: Option<Schedule>,
    /// Per pool grid, the window a tiled pass keeps it in
    /// ([`PreparedChain::with_windows`]); empty when it keeps none.
    windows: Vec<Option<Window>>,
}

impl<'a> PreparedChain<'a> {
    /// Chains `levels`, each running one of `sweeps` (prepared by
    /// [`crate::SweepRequest::prepare`] under one set of parameters, over
    /// one domain) on grids of a pool. The chain runs tiled when
    /// [`chain_runs_tiled`] holds for the sweeps' parameters and planned
    /// kernels; any other plan (a tape, a brick fold, a per-point sweep)
    /// runs op by op.
    ///
    /// # Errors
    /// [`EngineError::BadParams`] when there is no level, a level names a
    /// sweep that does not exist or reads its own output, or the sweeps
    /// differ in parameters or domain; [`EngineError::Binding`] when a
    /// level binds another number of inputs than its sweep reads.
    pub fn new(
        sweeps: Vec<PreparedSweep<'a>>,
        levels: Vec<ChainLevel>,
    ) -> Result<PreparedChain<'a>, EngineError> {
        if levels.is_empty() {
            return Err(bad_params("a chain runs at least one level".into()));
        }
        for (l, level) in levels.iter().enumerate() {
            let sweep = sweeps.get(level.sweep).ok_or_else(|| {
                bad_params(format!(
                    "level {l} runs sweep {} of {}",
                    level.sweep,
                    sweeps.len()
                ))
            })?;
            if level.inputs.len() != sweep.inputs.len() {
                return Err(EngineError::Binding(
                    yasksite_stencil::StencilError::ArityMismatch {
                        expected: sweep.inputs.len(),
                        got: level.inputs.len(),
                    },
                ));
            }
            if level.inputs.contains(&level.output) {
                return Err(bad_params(format!("level {l} reads its own output")));
            }
        }
        let first = &sweeps[0];
        if sweeps
            .iter()
            .any(|s| s.params != first.params || s.out.n != first.out.n)
        {
            return Err(bad_params(
                "the chain's sweeps differ in parameters or domain".into(),
            ));
        }
        let tiled = chain_runs_tiled(&first.params, sweeps.iter().map(|s| s.planned.kernel));
        let radius = largest_radius(sweeps.iter().map(|s| s.info.radius));
        let schedule =
            tiled.then(|| Schedule::new(first.out.n, levels.len(), radius, &first.params));
        Ok(PreparedChain {
            sweeps,
            levels,
            schedule,
            windows: Vec::new(),
        })
    }

    /// The depth-`depth` wavefront over a ping-pong pair `[a, b]`: even
    /// levels run `sweeps[0]` from `a` into `b`, odd ones the last of
    /// `sweeps` from `b` into `a` (one sweep serves both directions when
    /// the two grids share a geometry).
    pub(crate) fn ping_pong(
        sweeps: Vec<PreparedSweep<'a>>,
        depth: usize,
    ) -> Result<PreparedChain<'a>, EngineError> {
        let backward = sweeps.len() - 1;
        let levels = (0..depth)
            .map(|level| {
                let (sweep, from, to) = if level.is_multiple_of(2) {
                    (0, 0, 1)
                } else {
                    (backward, 1, 0)
                };
                ChainLevel {
                    sweep,
                    inputs: vec![from],
                    output: to,
                }
            })
            .collect();
        PreparedChain::new(sweeps, levels)
    }

    /// Keeps each of `grids` in a window when the chain runs tiled
    /// (an op-by-op chain keeps whole grids): ring planes and a carry
    /// strip sized by the tile instead of a whole pool grid, read and
    /// written through the window's map by both sinks. Each must be
    /// transient: written by exactly one level and read only by later
    /// ones, by levels whose sweeps no other level runs. A grid whose
    /// window would hold at least as many elements stays whole (tiles
    /// shorter than the readers' reach carry more rows than such a grid
    /// has). A windowed grid's values do not outlive the pass, and
    /// [`PreparedChain::run`] and [`PreparedChain::simulate`] take there
    /// a grid that holds the window ([`PreparedChain::window_extent`]).
    ///
    /// # Errors
    /// [`EngineError::BadParams`] when a grid is not transient, or a level
    /// reading it shares its sweep.
    pub fn with_windows(mut self, grids: &[usize]) -> Result<PreparedChain<'a>, EngineError> {
        let Some(schedule) = self.schedule.take() else {
            return Ok(self);
        };
        for &g in grids {
            let writes = |l: &ChainLevel| l.output == g;
            let reads = |l: &ChainLevel| l.inputs.contains(&g);
            let writer = match positions(&self.levels, writes)[..] {
                [w] if !self.levels[..=w].iter().any(reads) => w,
                _ => {
                    return Err(bad_params(format!(
                        "grid {g} is not written by exactly one level before every read"
                    )))
                }
            };
            let readers = positions(&self.levels, reads);
            let runs = |sweep: usize| self.levels.iter().filter(|m| m.sweep == sweep).count();
            if let Some(l) = readers.iter().find(|&&l| runs(self.levels[l].sweep) > 1) {
                return Err(bad_params(format!(
                    "level {l} reads grid {g} on a shared sweep"
                )));
            }
            let last = readers.last().copied().unwrap_or(writer);
            let out = self.sweeps[self.levels[writer].sweep].out;
            let window = Window::new(&schedule, writer, last, &out);
            if window.len() >= out.alloc.iter().product() {
                continue;
            }
            for l in readers {
                let level = &self.levels[l];
                let kernel = self.sweeps[level.sweep].rows.as_mut();
                let kernel = kernel.expect("a tiled chain's sweeps run the row kernel");
                for (input, _) in level.inputs.iter().enumerate().filter(|(_, &i)| i == g) {
                    kernel.read_through(input, window.clone());
                }
            }
            if self.windows.len() <= g {
                self.windows.resize(g + 1, None);
            }
            self.windows[g] = Some(window);
        }
        self.schedule = Some(schedule);
        Ok(self)
    }

    /// The pool grids a run keeps in windows, in pool order.
    #[must_use]
    pub fn windowed(&self) -> Vec<usize> {
        (0..self.windows.len())
            .filter(|&g| self.window(g).is_some())
            .collect()
    }

    /// The domain and halo of a grid (of the sweeps' fold) whose storage
    /// is exactly pool grid `g`'s window: its x-rows as long as the pool
    /// grid's, as many as the window holds, plus halo rows. `None` when
    /// `g` is not windowed.
    #[must_use]
    pub fn window_extent(&self, g: usize) -> Option<([usize; 3], [usize; 3])> {
        self.window(g).map(Window::extent)
    }

    /// The kernel plan of the first level's sweep: the tier and reason
    /// [`PreparedChain::run`] reports.
    #[must_use]
    pub fn planned(&self) -> PlannedKernel {
        self.sweeps[self.levels[0].sweep].planned
    }

    pub(crate) fn window(&self, g: usize) -> Option<&Window> {
        self.windows.get(g)?.as_ref()
    }

    /// Whether [`PreparedChain::run`] makes one tiled pass (otherwise it
    /// runs the levels op by op).
    #[must_use]
    pub fn tiled(&self) -> bool {
        self.schedule.is_some()
    }

    /// Sets the profiler later runs record to, on every sweep of the
    /// chain (see [`PreparedSweep::set_profiler`]).
    pub fn set_profiler(&mut self, profiler: Option<&'a SweepProfiler>) {
        for sweep in &mut self.sweeps {
            sweep.set_profiler(profiler);
        }
    }

    /// Runs every level once over `grids`, on `pool`. Halos are never
    /// written. The report counts every level's updates; its tier is the
    /// plan of the first level's sweep (the levels of a wavefront plan
    /// alike), its depth the number of levels a tiled pass fuses (1 op by
    /// op), and [`SweepReport::finite`] covers every value written by a
    /// sweep prepared with [`crate::SweepRequest::report_finite`] (`None`
    /// when none was).
    ///
    /// # Errors
    /// [`EngineError::BadParams`] when a level's grid index is out of
    /// range or a grid's geometry differs from the one its sweep was
    /// prepared against; nothing runs then.
    pub fn run<G: BorrowMut<Grid3>>(
        &self,
        pool: &ExecPool,
        grids: &mut [G],
    ) -> Result<SweepReport, EngineError> {
        self.check(&*grids)?;
        let start = Instant::now();
        let (widest, finite) = self.execute(pool, grids);
        let seconds = start.elapsed().as_secs_f64();
        let first = &self.sweeps[self.levels[0].sweep];
        let updates = (self.levels.len() * first.out.n.iter().product::<usize>()) as u64;
        let scanned = self.sweeps.iter().any(|s| s.report_finite);
        let planned = self.planned();
        Ok(SweepReport {
            seconds,
            mlups: updates as f64 / seconds.max(1e-12) / 1e6,
            updates,
            threads_used: widest,
            tier: planned.tier(),
            tier_reason: planned.reason,
            degraded: planned.degraded,
            wavefront_depth: if self.tiled() { self.levels.len() } else { 1 },
            finite: scanned.then_some(finite),
        })
    }

    /// The binding checks of [`PreparedChain::run`] and
    /// [`PreparedChain::simulate`]: every level's grids are in range and
    /// of the geometry its sweep was prepared against
    /// ([`PreparedSweep::run`]'s checks), a windowed grid one that holds
    /// its window. Returns each level's grids.
    pub(crate) fn check<'g, G: Borrow<Grid3>>(
        &self,
        grids: &'g [G],
    ) -> Result<Vec<(Vec<&'g Grid3>, &'g Grid3)>, EngineError> {
        self.levels
            .iter()
            .map(|level| {
                let (inputs, out) = bound(grids, level)?;
                let sweep = &self.sweeps[level.sweep];
                let slots = level.inputs.iter().zip(&inputs).zip(&sweep.inputs);
                let last = ((&level.output, &out), &sweep.out);
                for ((&g, grid), prepared) in slots.chain(std::iter::once(last)) {
                    match self.window(g) {
                        Some(window) => window.check(grid, sweep.params.fold)?,
                        None => prepared.check(grid)?,
                    }
                }
                Ok((inputs, out))
            })
            .collect()
    }

    /// Runs the chain on grids [`PreparedChain::run`]'s checks accepted;
    /// returns `(widest chunk count, finite)`.
    fn execute<G: BorrowMut<Grid3>>(&self, pool: &ExecPool, grids: &mut [G]) -> (usize, bool) {
        let Some(schedule) = &self.schedule else {
            let mut widest = 1;
            let mut finite = true;
            for level in &self.levels {
                let (inputs, out) = bind(grids, level);
                let report = self.sweeps[level.sweep].execute(pool, &inputs, out);
                widest = widest.max(report.threads_used);
                finite &= report.finite != Some(false);
            }
            return (widest, finite);
        };
        // The sweeps share their request's profiler.
        let disabled = SweepProfiler::disabled();
        let prof = self.sweeps[0].profiler.unwrap_or(&disabled);
        let walk = Walk::new(self.sweeps[0].out.n, &self.sweeps[0].params);
        let scans = [FiniteScan::new(false), FiniteScan::new(true)];
        let mut widest = 1usize;
        prof.pool_window(pool.stats());
        let t_pass = prof.start();
        for tp in schedule.tile_planes() {
            let level = &self.levels[tp.level];
            let sweep = &self.sweeps[level.sweep];
            let scan = &scans[usize::from(sweep.report_finite)];
            let kernel = sweep
                .rows
                .as_ref()
                .expect("a tiled chain's sweeps run the row kernel");
            let (inputs, out) = bind(grids, level);
            let inputs: Vec<&[f64]> = inputs.iter().map(|g| g.as_slice()).collect();
            let regions = Walk::plane(schedule, &tp);
            let t_plane = prof.start();
            let used = match self.window(level.output) {
                Some(window) => {
                    let sinks = windowed(out, window, &regions, scan).into_iter();
                    rows_on_pool(pool, kernel, &inputs, sinks, &walk, &regions, prof)
                }
                None => {
                    let sinks = windows(out, &regions, scan);
                    rows_on_pool(pool, kernel, &inputs, sinks, &walk, &regions, prof)
                }
            };
            widest = widest.max(used);
            prof.plane_done(t_plane);
        }
        prof.phase_done("wavefront", t_pass);
        prof.pool_window(pool.stats());
        (widest, scans[1].all_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepRequest, Tier, TierPolicy};
    use crate::SimContext;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use yasksite_arch::Machine;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{heat3d, wave2d};
    use yasksite_stencil::Stencil;

    /// One level of a random chain for the schedule oracle: the grid it
    /// writes and, per input, the grid it reads and the `(dy, dz)`
    /// offsets it reads there.
    type OracleLevel = (usize, Vec<(usize, Vec<(isize, isize)>)>);

    /// Random chains over `grids` grids: each level writes some grid and
    /// reads one to three others, each at its own offsets of radius up to
    /// 2 per axis (asymmetric sets included). Outputs repeat, so grids
    /// are rewritten within the chain, read between the writes, and read
    /// before their first write (their initial contents). Half the cases
    /// are the ping-pong pair of a wavefront of one stencil.
    fn arb_chain() -> impl Strategy<Value = (usize, Vec<OracleLevel>)> {
        let offsets = || prop::collection::vec((-2isize..=2, -2isize..=2), 1..5);
        let dag = (2usize..6).prop_flat_map(move |grids| {
            let level = (0..grids).prop_flat_map(move |out| {
                let other = (0..grids - 1).prop_map(move |g| g + usize::from(g >= out));
                let input = (other, offsets());
                (Just(out), prop::collection::vec(input, 1..4))
            });
            (Just(grids), prop::collection::vec(level, 1..7))
        });
        let ping_pong = (offsets(), 1usize..7).prop_map(|(reads, depth)| {
            let levels = (0..depth)
                .map(|l| (1 - l % 2, vec![(l % 2, reads.clone())]))
                .collect();
            (2, levels)
        });
        prop_oneof![dag, ping_pong]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The schedule's oracle, over random chains ([`arb_chain`]) and
        /// tiles from one row to taller than the domain, many shorter
        /// than `levels · sy` (empty tile-planes), at 1–3 threads:
        /// 1. every `(level, z, j)` is visited exactly once, by one chunk
        ///    of at most `threads`, chunks covering their tile-plane in
        ///    row order;
        /// 2. read after write: every point a level reads comes after the
        ///    visit of the last earlier level writing that grid there;
        /// 3. write after read: every point a level writes comes after
        ///    the visit of every earlier level reading that grid there;
        /// 4. a grid written twice keeps its writers' order.
        #[test]
        fn schedule_visits_once_and_keeps_every_order_of_any_chain(
            (grids, chain) in arb_chain(),
            (ny, by) in (1usize..12).prop_flat_map(|ny| (Just(ny), 1usize..ny + 3)),
            nz in 1usize..7,
            threads in 1usize..4,
        ) {
            let reach = |axis: fn(&(isize, isize)) -> isize| {
                let reads = chain.iter().flat_map(|(_, ins)| ins.iter().flat_map(|(_, o)| o));
                reads.map(|o| axis(o).unsigned_abs()).max().unwrap_or(0)
            };
            let (ry, rz) = (reach(|o| o.0), reach(|o| o.1));
            let levels = chain.len();
            let p = TuningParams::new([3, by, nz], Fold::unit()).threads(threads);
            let schedule = Schedule::new([3, ny, nz], levels, [1, ry, rz], &p);
            let at = |l: usize, z: usize, j: usize| (l * nz + z) * ny + j;
            let mut when = vec![usize::MAX; levels * nz * ny];
            for (t, tp) in schedule.tile_planes().enumerate() {
                let mut next = tp.rows.0;
                for (c, j0, j1) in schedule.chunks(&tp) {
                    prop_assert!(c < threads && j0 == next && j0 < j1, "{tp:?}: chunk {c} {j0}..{j1}");
                    next = j1;
                    for j in j0..j1 {
                        let slot = &mut when[at(tp.level, tp.z, j)];
                        prop_assert_eq!(*slot, usize::MAX, "{:?} visits row {} again", tp, j);
                        *slot = t;
                    }
                }
                prop_assert_eq!(next, tp.rows.1, "{:?}: chunks stop short", tp);
            }
            prop_assert!(!when.contains(&usize::MAX), "a point is never visited");
            // When level `l` visits `(z, j) + sign·(dz, dy)`, if inside.
            let visit = |l: usize, z: usize, j: usize, (dy, dz): (isize, isize), sign: isize| {
                let (z, j) = (z as isize + sign * dz, j as isize + sign * dy);
                ((0..nz as isize).contains(&z) && (0..ny as isize).contains(&j))
                    .then(|| when[at(l, z as usize, j as usize)])
            };
            let last_writer = |g: usize, before: usize| (0..before).rev().find(|&w| chain[w].0 == g);
            prop_assert!(grids >= 2);
            for (l, (out, inputs)) in chain.iter().enumerate() {
                for z in 0..nz {
                    for j in 0..ny {
                        let t = when[at(l, z, j)];
                        for (g, reads) in inputs {
                            for &o in reads {
                                if let Some(w) = last_writer(*g, l) {
                                    if let Some(written) = visit(w, z, j, o, 1) {
                                        prop_assert!(written < t, "level {l} ({z}, {j}) reads grid {g} at {o:?} before level {w} writes it");
                                    }
                                }
                            }
                        }
                        for (m, (_, reader_inputs)) in chain.iter().enumerate().take(l) {
                            for (g, reads) in reader_inputs {
                                if g != out {
                                    continue;
                                }
                                for &o in reads {
                                    if let Some(read) = visit(m, z, j, o, -1) {
                                        prop_assert!(read < t, "level {l} ({z}, {j}) overwrites grid {g} before level {m} reads it at {o:?}");
                                    }
                                }
                            }
                        }
                        if let Some(w) = last_writer(*out, l) {
                            prop_assert!(when[at(w, z, j)] < t, "level {l} ({z}, {j}) writes grid {out} before level {w}");
                        }
                    }
                }
            }
            windows_keep_every_value_until_its_last_read(&schedule, &chain, grids)?;
        }

        /// The ring-reuse oracle at the tile heights that stress it: one
        /// row (every row a carry, ⌈S/h⌉ + 1 strip buffers), three rows and
        /// the whole domain (one tile, no strip), at 1–3 threads.
        #[test]
        fn windows_hold_every_value_at_one_three_and_all_rows(
            (grids, chain) in arb_chain(),
            ny in 1usize..12,
            nz in 1usize..7,
        ) {
            let reach = |axis: fn(&(isize, isize)) -> isize| {
                let reads = chain.iter().flat_map(|(_, ins)| ins.iter().flat_map(|(_, o)| o));
                reads.map(|o| axis(o).unsigned_abs()).max().unwrap_or(0)
            };
            for by in [1, 3.min(ny), ny] {
                for threads in 1..=3 {
                    let p = TuningParams::new([3, by, nz], Fold::unit()).threads(threads);
                    let radius = [1, reach(|o| o.0), reach(|o| o.1)];
                    let schedule = Schedule::new([3, ny, nz], chain.len(), radius, &p);
                    windows_keep_every_value_until_its_last_read(&schedule, &chain, grids)?;
                }
            }
        }
    }

    /// The ring-reuse oracle of a random chain ([`arb_chain`]) run by
    /// `schedule`: each transient grid (one writer, read only by later
    /// levels) lives in its [`Window`], whose storage slots are tagged
    /// with the point last written there. Every read of a domain point
    /// must find that point's tag (so no slot is overwritten before the
    /// last read of its old value, and every read sees the value the
    /// op-by-op run would), every read outside the domain the untouched
    /// halo row, and no write may land there or outside the storage.
    fn windows_keep_every_value_until_its_last_read(
        schedule: &Schedule,
        chain: &[OracleLevel],
        grids: usize,
    ) -> Result<(), TestCaseError> {
        let [_, ny, nz] = schedule.n;
        let geometry = GridGeometry::of(&Grid3::new("w", [1, ny, nz], [0; 3], Fold::unit()));
        let windows: Vec<Option<Window>> = (0..grids)
            .map(|g| {
                let writers: Vec<usize> = (0..chain.len()).filter(|&l| chain[l].0 == g).collect();
                let reads = |l: &OracleLevel| l.1.iter().any(|(i, _)| *i == g);
                let [w] = writers[..] else { return None };
                if chain[..=w].iter().any(reads) {
                    return None;
                }
                let last = (0..chain.len())
                    .rev()
                    .find(|&l| reads(&chain[l]))
                    .unwrap_or(w);
                Some(Window::new(schedule, w, last, &geometry))
            })
            .collect();
        let mut tags: Vec<Vec<Option<(usize, usize)>>> = windows
            .iter()
            .map(|w| vec![None; w.as_ref().map_or(0, |w| w.rows + 1)])
            .collect();
        let inside =
            |z: isize, j: isize| (0..nz as isize).contains(&z) && (0..ny as isize).contains(&j);
        for tp in schedule.tile_planes() {
            let (out, inputs) = &chain[tp.level];
            for (_, j0, j1) in schedule.chunks(&tp) {
                for j in j0..j1 {
                    let (z, j) = (tp.z as isize, j as isize);
                    for (g, reads) in inputs {
                        let Some(w) = &windows[*g] else { continue };
                        for &(dy, dz) in reads {
                            let (rz, ry) = (z + dz, j + dy);
                            let slot = w.base(ry, rz) as usize;
                            let want = inside(rz, ry).then_some((rz as usize, ry as usize));
                            prop_assert_eq!(
                                tags[*g][slot],
                                want,
                                "{:?} of level {} reads grid {} at ({}, {})",
                                tp,
                                tp.level,
                                g,
                                rz,
                                ry
                            );
                        }
                    }
                    if let Some(w) = &windows[*out] {
                        let slot = w.base(j, z) as usize;
                        prop_assert!(
                            slot > 0 && slot <= w.rows,
                            "({z}, {j}) of grid {out} lands on {slot}"
                        );
                        tags[*out][slot] = Some((z as usize, j as usize));
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn tiles_are_skewed_parallelograms_and_empty_tile_planes_are_skipped() {
        // One-row tiles against a three-level skew of one row per level: the
        // first tile starts at row 0 and the last ends at n_y at every
        // level; three of the twelve tile-planes are empty.
        let p = TuningParams::new([1, 1, 1], Fold::unit());
        let schedule = Schedule::new([1, 4, 1], 3, [1, 1, 1], &p);
        let walk: Vec<(usize, usize, (usize, usize))> = schedule
            .tile_planes()
            .map(|tp| (tp.tile, tp.level, tp.rows))
            .collect();
        assert_eq!(
            walk,
            [
                (0, 0, (0, 1)),
                (1, 0, (1, 2)),
                (1, 1, (0, 1)),
                (2, 0, (2, 3)),
                (2, 1, (1, 2)),
                (2, 2, (0, 1)),
                (3, 0, (3, 4)),
                (3, 1, (2, 4)),
                (3, 2, (1, 4)),
            ]
        );
        // A block as tall as the domain is the untiled wavefront, and
        // thread `c` takes the `c`-th block height of the skewed tile.
        let p = TuningParams::new([1, 3, 1], Fold::unit()).threads(2);
        let schedule = Schedule::new([1, 5, 1], 2, [1, 1, 1], &p);
        let chunks: Vec<_> = schedule
            .tile_planes()
            .map(|tp| (tp.level, schedule.chunks(&tp).collect::<Vec<_>>()))
            .collect();
        assert_eq!(
            chunks,
            [
                (0, vec![(0, 0, 3), (1, 3, 5)]),
                (1, vec![(0, 0, 2), (1, 2, 5)]),
            ]
        );
    }

    #[test]
    fn a_chain_rejects_bad_levels_and_runs_nothing_on_bad_grids() {
        let s = heat3d(1);
        let fold = Fold::new(8, 1, 1);
        let grids: Vec<Grid3> = (0..3).map(|_| initial([16, 6, 5])).collect();
        let p = TuningParams::new([16, 2, 5], fold).wavefront(2);
        let sweep = || {
            SweepRequest::new(&p)
                .prepare(&s, &[&grids[0]], &grids[1])
                .unwrap()
        };
        let level = |sweep, inputs: &[usize], output| ChainLevel {
            sweep,
            inputs: inputs.to_vec(),
            output,
        };
        for (levels, binding) in [
            (vec![], false),
            (vec![level(1, &[0], 1)], false),
            (vec![level(0, &[1], 1)], false),
            (vec![level(0, &[0, 2], 1)], true),
        ] {
            match PreparedChain::new(vec![sweep()], levels) {
                Err(EngineError::Binding(_)) => assert!(binding),
                Err(EngineError::BadParams { .. }) => assert!(!binding),
                other => panic!("{:?}", other.map(|c| c.tiled())),
            }
        }
        let other = TuningParams::new([16, 3, 5], fold).wavefront(2);
        let odd = SweepRequest::new(&other)
            .prepare(&s, &[&grids[1]], &grids[2])
            .unwrap();
        let chain = PreparedChain::new(
            vec![sweep(), odd],
            vec![level(0, &[0], 1), level(1, &[1], 2)],
        );
        assert!(
            matches!(chain, Err(EngineError::BadParams { .. })),
            "parameters differ"
        );
        let chain =
            PreparedChain::new(vec![sweep()], vec![level(0, &[0], 1), level(0, &[1], 2)]).unwrap();
        assert!(chain.tiled());
        let pool = ExecPool::global();
        let mut ctx = SimContext::new(&Machine::cascade_lake(), p.threads);
        let mut wrong = grids.clone();
        wrong[2] = Grid3::new("wide", [16, 6, 5], [2, 2, 2], fold);
        let mut short = grids[..2].to_vec();
        for pool_grids in [&mut wrong, &mut short] {
            let before: Vec<Grid3> = pool_grids.clone();
            assert!(matches!(
                chain.run(pool, pool_grids),
                Err(EngineError::BadParams { .. })
            ));
            for (g, b) in pool_grids.iter().zip(&before) {
                assert_eq!(g.max_abs_diff(b).unwrap(), 0.0, "nothing ran");
            }
            // The simulated sink rejects the same grids the same way.
            assert!(matches!(
                chain.simulate(&mut ctx, pool_grids),
                Err(EngineError::BadParams { .. })
            ));
        }
        assert_eq!(ctx.updates(), 0, "nothing was simulated");
        chain.run(pool, &mut grids.clone()).unwrap();
        chain.simulate(&mut ctx, &grids).unwrap();
        assert_eq!(ctx.updates(), 2 * 16 * 6 * 5);
    }

    /// The pool of [`mixed_chain`] over domain `n`, halo 2: grid 0 holds
    /// the initial values, grid `g`'s halo the value `HALOS[g]`.
    fn mixed_pool(n: [usize; 3]) -> Vec<Grid3> {
        let mut pool: Vec<Grid3> = (0..4)
            .map(|g| {
                let mut grid = Grid3::new(&format!("g{g}"), n, [2, 2, 2], Fold::new(8, 1, 1));
                grid.fill_halo(HALOS[g]);
                grid
            })
            .collect();
        pool[0].fill_with(|i, j, k| ((i * 3 + j * 5 + k * 7) % 11) as f64 * 0.1);
        pool
    }

    const HALOS: [f64; 4] = [0.25, 0.5, 0.0, 0.0];

    /// Three levels over [`mixed_pool`]: grid 1 is written by level 0 and
    /// read at radius 2 by levels 1 and 2, grid 2 is written by level 1
    /// and read by level 2, which writes grid 3; `windowed` are kept in
    /// windows.
    fn mixed_chain(
        pool: &[Grid3],
        p: &TuningParams,
        windowed: &[usize],
    ) -> Result<PreparedChain<'static>, EngineError> {
        use yasksite_stencil::{at, c};
        let mix = at(0, 0, -2, 1) + c(0.5) * at(1, 1, 2, -2) + c(0.25) * at(0, 0, 0, 0);
        let stencils = [heat3d(1), heat3d(2), Stencil::new("mix", 3, 2, mix)];
        let levels = [(vec![0], 1), (vec![1], 2), (vec![1, 2], 3)];
        let request = SweepRequest::new(p).tier(TierPolicy::Auto);
        let sweeps = levels.iter().zip(&stencils).map(|((inputs, output), s)| {
            let inputs: Vec<&Grid3> = inputs.iter().map(|&g| &pool[g]).collect();
            request.prepare(s, &inputs, &pool[*output])
        });
        let levels = levels
            .iter()
            .enumerate()
            .map(|(sweep, (inputs, output))| ChainLevel {
                sweep,
                inputs: inputs.clone(),
                output: *output,
            });
        PreparedChain::new(sweeps.collect::<Result<_, _>>()?, levels.collect())?
            .with_windows(windowed)
    }

    /// A chain that keeps grids in windows leaves the op-by-op bits: both
    /// transients of [`mixed_chain`] live in windows, bound as grids of
    /// the window's extent or as whole grids, in tiles of one, three and
    /// all rows at 1–3 threads. The halo value comes through where the
    /// grid's halo would. Only transient grids are windowed, and only
    /// when the chain runs tiled.
    #[test]
    fn a_windowed_chain_matches_the_op_by_op_chain_bitwise() {
        let (n, fold) = ([16, 20, 6], Fold::new(8, 1, 1));
        let pool = mixed_pool(n);
        let base = TuningParams::new([16, 1, 6], fold);
        let mut op_by_op = pool.clone();
        let plain = mixed_chain(&pool, &base, &[1, 2]).unwrap();
        assert!(plain.windowed().is_empty(), "op by op keeps whole grids");
        plain.run(ExecPool::global(), &mut op_by_op).unwrap();
        for by in [1, 3, n[1]] {
            for threads in 1..=3 {
                let mut p = base.clone().wavefront(2).threads(threads);
                p.block[1] = by;
                let tiled = mixed_chain(&pool, &p, &[1, 2]).unwrap();
                assert_eq!(tiled.windowed(), [1, 2]);
                let mut windows = pool.clone();
                for g in [1, 2] {
                    let (wn, wh) = tiled.window_extent(g).unwrap();
                    windows[g] = Grid3::new("w", wn, wh, fold);
                    windows[g].fill_halo(HALOS[g]);
                }
                let mut whole = pool.clone();
                for grids in [&mut windows, &mut whole] {
                    tiled.run(ExecPool::global(), grids).unwrap();
                    let diff = grids[3].max_abs_diff(&op_by_op[3]).unwrap();
                    assert_eq!(diff, 0.0, "by={by} t={threads}");
                }
                // A window too small for the chain's is refused.
                windows[2] = Grid3::new("small", [16, 1, 1], [2, 1, 0], fold);
                assert!(matches!(
                    tiled.run(ExecPool::global(), &mut windows),
                    Err(EngineError::BadParams { .. })
                ));
            }
        }
        // Grid 0 is read first and written by nobody, grid 3 by the last
        // level after nothing reads it: only the latter is transient.
        let p = base.wavefront(2);
        assert!(mixed_chain(&pool, &p, &[0]).is_err());
        assert_eq!(mixed_chain(&pool, &p, &[3]).unwrap().windowed(), [3]);
    }

    /// A window no smaller than the grid it would replace is not used.
    /// On 16×7×6 (radius 2) in one-row blocks at three threads, grid 1
    /// is written by level 0 and read by level 6: its readers reach back
    /// 14 rows across 3-row tiles, so its window would keep six strip
    /// buffers, 116 rows where the whole grid has 110. It stays whole,
    /// with the op-by-op bits; in one tile as tall as the domain it is
    /// windowed.
    #[test]
    fn a_window_no_smaller_than_its_grid_keeps_the_grid_whole() {
        use yasksite_stencil::{at, c};
        let fold = Fold::new(8, 1, 1);
        let pool = mixed_pool([16, 7, 6]);
        let mix = at(0, 0, -2, 1) + c(0.5) * at(1, 1, 2, -2);
        let stencils = [heat3d(2), heat3d(2), Stencil::new("mix", 3, 2, mix)];
        // (sweep, inputs, output): grids 2 and 3 ping-pong in between.
        let levels = [
            (0, vec![0], 1),
            (1, vec![0], 2),
            (1, vec![2], 3),
            (1, vec![3], 2),
            (1, vec![2], 3),
            (1, vec![3], 2),
            (2, vec![1, 2], 3),
        ];
        let chain = |p: &TuningParams| {
            let request = SweepRequest::new(p).tier(TierPolicy::Auto);
            let bindings = [(vec![0], 1), (vec![0], 2), (vec![1, 2], 3)];
            let sweeps = bindings.iter().zip(&stencils).map(|((inputs, output), s)| {
                let inputs: Vec<&Grid3> = inputs.iter().map(|&g| &pool[g]).collect();
                request.prepare(s, &inputs, &pool[*output]).unwrap()
            });
            let levels = levels.iter().map(|(sweep, inputs, output)| ChainLevel {
                sweep: *sweep,
                inputs: inputs.clone(),
                output: *output,
            });
            PreparedChain::new(sweeps.collect(), levels.collect())
                .unwrap()
                .with_windows(&[1])
                .unwrap()
        };
        let p = TuningParams::new([16, 1, 6], fold).threads(3);
        let mut op_by_op = pool.clone();
        chain(&p).run(ExecPool::global(), &mut op_by_op).unwrap();
        let tiled = chain(&p.clone().wavefront(2));
        assert!(tiled.tiled());
        assert_eq!(tiled.windowed(), Vec::<usize>::new());
        let mut grids = pool.clone();
        tiled.run(ExecPool::global(), &mut grids).unwrap();
        assert_eq!(grids[3].max_abs_diff(&op_by_op[3]).unwrap(), 0.0);
        let mut one_tile = p.wavefront(2).threads(1);
        one_tile.block[1] = 7;
        assert_eq!(chain(&one_tile).windowed(), [1]);
    }

    /// Every level skews by the largest radius of any level: a radius-1
    /// level followed by a radius-2 one, in one-row tiles, still leaves
    /// the bits of the two sweeps run one after another.
    #[test]
    fn a_chain_skews_by_its_largest_radius() {
        let fold = Fold::new(8, 1, 1);
        let mut grids: Vec<Grid3> = (0..3)
            .map(|g| Grid3::new(&format!("g{g}"), [16, 7, 6], [2, 2, 2], fold))
            .collect();
        grids[0].fill_with(|i, j, k| ((i * 3 + j * 5 + k * 7) % 11) as f64 * 0.1);
        let (near, far) = (heat3d(1), heat3d(2));
        let run = |wavefront: usize| {
            let p = TuningParams::new([16, 1, 6], fold).wavefront(wavefront);
            let request = SweepRequest::new(&p);
            let sweeps = vec![
                request.prepare(&near, &[&grids[0]], &grids[1]).unwrap(),
                request.prepare(&far, &[&grids[1]], &grids[2]).unwrap(),
            ];
            let levels = [(0, 1), (1, 2)]
                .into_iter()
                .enumerate()
                .map(|(sweep, (from, to))| ChainLevel {
                    sweep,
                    inputs: vec![from],
                    output: to,
                })
                .collect();
            let chain = PreparedChain::new(sweeps, levels).unwrap();
            assert_eq!(chain.tiled(), wavefront > 1);
            let mut out = grids.clone();
            chain.run(ExecPool::global(), &mut out).unwrap();
            out
        };
        let (tiled, op_by_op) = (run(2), run(1));
        assert_eq!(tiled[2].max_abs_diff(&op_by_op[2]).unwrap(), 0.0);
    }

    fn stepper_reference(stencil: &Stencil, a0: &Grid3, steps: usize) -> Grid3 {
        let mut a = a0.clone();
        let mut b = a0.clone();
        for _ in 0..steps {
            let mut tmp = Grid3::new("tmp", a.n(), a.halo(), a.fold());
            tmp.fill_halo(0.0);
            stencil.apply_reference(&[&a], &mut tmp).unwrap();
            // Keep halos identical to the wavefront path (fixed values).
            for k in 0..a.n()[2] as isize {
                for j in 0..a.n()[1] as isize {
                    for i in 0..a.n()[0] as isize {
                        b.set(i, j, k, tmp.get(i, j, k));
                    }
                }
            }
            std::mem::swap(&mut a, &mut b);
        }
        a
    }

    fn initial(n: [usize; 3]) -> Grid3 {
        let mut g = Grid3::new("a", n, [1, 1, 1], Fold::new(8, 1, 1));
        g.fill_with(|i, j, k| ((i * 3 + j * 5 + k * 7) % 11) as f64 * 0.1);
        g.fill_halo(0.0);
        g
    }

    #[test]
    fn wavefront_matches_sequential_steps() {
        let s = heat3d(1);
        let n = [16, 6, 10];
        for wf in [1, 2, 3, 4, 5] {
            let a0 = initial(n);
            let want = stepper_reference(&s, &a0, wf);
            let mut a = a0.clone();
            let mut b = a0.clone();
            b.fill_halo(0.0);
            let p = TuningParams::new([16, 6, 10], Fold::new(8, 1, 1)).wavefront(wf);
            let report = SweepRequest::new(&p)
                .tier(TierPolicy::Auto)
                .run_wavefront(&s, &mut a, &mut b)
                .unwrap();
            assert_eq!(report.tier, Tier::Folded);
            assert_eq!(report.wavefront_depth, wf);
            assert_eq!(report.updates, (16 * 6 * 10 * wf) as u64);
            assert!(
                a.max_abs_diff(&want).unwrap() < 1e-12,
                "wavefront depth {wf} diverges"
            );
        }
    }

    #[test]
    fn folded_wavefront_is_bitwise_identical_to_scalar_wavefront() {
        let s = heat3d(1);
        let n = [24, 13, 11];
        let run = |policy: TierPolicy, lanes: usize| {
            let fold = Fold::new(lanes, 1, 1);
            let mut a = Grid3::new("a", n, [1, 1, 1], fold);
            a.fill_with(|i, j, k| ((i * 3 + j * 5 + k * 7) % 11) as f64 * 0.1);
            a.fill_halo(0.0);
            let mut b = a.clone();
            let p = TuningParams::new([8, 4, 4], fold).wavefront(3).threads(2);
            let report = SweepRequest::new(&p)
                .tier(policy)
                .run_wavefront(&s, &mut a, &mut b)
                .unwrap();
            (a, report.tier)
        };
        for lanes in [2usize, 4, 8, 16] {
            let (scalar, ts) = run(TierPolicy::ForceScalar, lanes);
            assert_eq!(ts, Tier::Scalar);
            let (folded, tf) = run(TierPolicy::ForceFolded, lanes);
            assert_eq!(tf, Tier::Folded, "lanes={lanes}");
            assert_eq!(scalar.max_abs_diff(&folded).unwrap(), 0.0, "lanes={lanes}");
        }
    }

    #[test]
    fn threaded_wavefront_is_bitwise_identical_to_single_thread() {
        let s = heat3d(1);
        let n = [24, 13, 11];
        let wf = 3;
        let run = |threads: usize, block: [usize; 3]| {
            let mut a = initial(n);
            let mut b = initial(n);
            let p = TuningParams::new(block, Fold::new(8, 1, 1))
                .wavefront(wf)
                .threads(threads);
            let report = SweepRequest::new(&p)
                .tier(TierPolicy::Auto)
                .run_wavefront(&s, &mut a, &mut b)
                .unwrap();
            (a, report.threads_used)
        };
        let (base, base_used) = run(1, [8, 4, 4]);
        assert_eq!(base_used, 1);
        for threads in [2, 4, 7] {
            let (got, used) = run(threads, [8, 4, 4]);
            assert!(used >= 1 && used <= threads);
            assert_eq!(base.max_abs_diff(&got).unwrap(), 0.0, "threads={threads}");
        }
        // Blocking must not change values either.
        let (odd_blocks, _) = run(3, [5, 3, 2]);
        assert_eq!(base.max_abs_diff(&odd_blocks).unwrap(), 0.0);
    }

    #[test]
    fn profiled_wavefront_is_bitwise_identical_and_records_planes() {
        let s = heat3d(1);
        let n = [16, 8, 10];
        let wf = 3;
        let p = TuningParams::new([8, 2, 4], Fold::new(8, 1, 1))
            .wavefront(wf)
            .threads(2);
        let run = |prof: &SweepProfiler| {
            let mut a = initial(n);
            let mut b = initial(n);
            SweepRequest::new(&p)
                .tier(TierPolicy::Auto)
                .profiler(prof)
                .run_wavefront(&s, &mut a, &mut b)
                .unwrap();
            a
        };
        let plain = run(&SweepProfiler::disabled());
        let prof = SweepProfiler::enabled();
        let profiled = run(&prof);
        assert_eq!(plain.max_abs_diff(&profiled).unwrap(), 0.0);
        let r = prof.report();
        assert!(r.phases.iter().any(|ph| ph.name == "wavefront"));
        // One interval per tile-plane: two tiles of 2 × 2 rows, none of
        // them empty at this depth.
        let planes = r.planes.expect("plane timings recorded");
        let tile_planes = Schedule::new(n, wf, [1, 1, 1], &p).tile_planes().count();
        assert_eq!(tile_planes, 2 * wf * n[2]);
        assert_eq!(planes.count as usize, tile_planes);
        let chunks = r.chunks.expect("chunk timings recorded");
        assert!(chunks.count >= planes.count);
        assert!(r.pool.is_some());
    }

    /// The finite scan covers every level of a wavefront, tiled on the
    /// row kernel and op by op on the brick and the per-point kernels.
    #[test]
    fn wavefront_finite_scan_covers_every_level_on_rows_and_per_point() {
        let s = heat3d(1);
        let n = [16, 6, 10];
        for (fold, tier) in [
            (Fold::new(8, 1, 1), Tier::Folded),
            (Fold::new(4, 2, 1), Tier::Folded),
            (Fold::new(3, 2, 1), Tier::Generic),
        ] {
            let run = |bad: Option<f64>, scan: bool| {
                let mut a = Grid3::new("a", n, [1, 1, 1], fold);
                a.fill_with(|i, j, k| ((i * 3 + j * 5 + k * 7) % 11) as f64 * 0.1);
                if let Some(bad) = bad {
                    a.set(15, 5, 9, bad);
                }
                let mut b = a.clone();
                let p = TuningParams::new([16, 3, 4], fold).wavefront(3).threads(2);
                let mut request = SweepRequest::new(&p).tier(TierPolicy::Auto);
                if scan {
                    request = request.report_finite();
                }
                let report = request.run_wavefront(&s, &mut a, &mut b).unwrap();
                assert_eq!(report.tier, tier);
                (a, report.finite)
            };
            let (plain, unasked) = run(None, false);
            let (scanned, finite) = run(None, true);
            assert_eq!((unasked, finite), (None, Some(true)), "{fold}");
            assert_eq!(plain.max_abs_diff(&scanned).unwrap(), 0.0, "{fold}");
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(run(Some(bad), true).1, Some(false), "{fold} {bad}");
            }
        }
    }

    #[test]
    fn wavefront_rejects_two_input_stencils() {
        let s = wave2d(0.3);
        let mut a = Grid3::new("a", [8, 8, 1], [1, 1, 0], Fold::new(8, 1, 1));
        let mut b = a.clone();
        let p = TuningParams::new([8, 8, 1], Fold::new(8, 1, 1)).wavefront(2);
        assert!(matches!(
            SweepRequest::new(&p).run_wavefront(&s, &mut a, &mut b),
            Err(EngineError::Unsupported { .. })
        ));
    }

    /// `b` allocates a wider halo than `a`: each direction is its own
    /// sweep, lowered against its own grids, and the pair still runs as
    /// one tiled pass of the row kernel, on both threads, with the bits
    /// of the two plain sweeps.
    #[test]
    fn mismatched_halos_run_the_tiled_row_kernel_bitwise() {
        let s = heat3d(1);
        let n = [12, 6, 8];
        let fold = Fold::new(8, 1, 1);
        let mut a = initial(n);
        let mut b = Grid3::new("b", n, [2, 2, 2], fold);
        b.fill_halo(0.0);
        let (mut want_a, mut want_b) = (a.clone(), b.clone());
        let plain = SweepRequest::new(&TuningParams::new([12, 6, 8], fold)).tier(TierPolicy::Auto);
        plain.apply(&s, &[&want_a], &mut want_b).unwrap();
        plain.apply(&s, &[&want_b], &mut want_a).unwrap();
        let p = TuningParams::new([12, 3, 8], fold).wavefront(2).threads(2);
        let request = SweepRequest::new(&p).tier(TierPolicy::Auto);
        assert!(request.prepare_wavefront(&s, &a, &b).unwrap().tiled());
        let report = request.run_wavefront(&s, &mut a, &mut b).unwrap();
        assert_eq!(report.threads_used, 2);
        assert_eq!(report.tier, Tier::Folded);
        assert_eq!(report.wavefront_depth, 2);
        assert_eq!(a.max_abs_diff(&want_a).unwrap(), 0.0);
        assert!(
            a.max_abs_diff(&stepper_reference(&s, &initial(n), 2))
                .unwrap()
                < 1e-12
        );
    }

    /// A wavefront whose plan is not the row kernel runs op by op on the
    /// kernel the planner picks, with the bits of as many plain sweeps:
    /// a single-input non-linear stencil on the tape at depth 3.
    #[test]
    fn a_tape_wavefront_runs_op_by_op_with_the_bits_of_plain_sweeps() {
        use yasksite_stencil::{at, c};
        let u = || at(0, 0, 0, 0);
        let e = u() * u() * c(-0.5) + c(0.25) * (at(0, 1, 0, 0) + at(0, 0, -1, 1)) * u();
        let s = Stencil::new("quad", 3, 1, e);
        let n = [16, 6, 5];
        let p = TuningParams::new([8, 2, 5], Fold::new(8, 1, 1))
            .wavefront(3)
            .threads(2);
        let request = SweepRequest::new(&p).tier(TierPolicy::Auto);
        let (mut a, mut b) = (initial(n), initial(n));
        let chain = request.prepare_wavefront(&s, &a, &b).unwrap();
        assert!(!chain.tiled());
        let report = request.run_wavefront(&s, &mut a, &mut b).unwrap();
        assert_eq!(report.tier, Tier::Tape);
        assert_eq!(report.wavefront_depth, 1);
        assert_eq!(report.updates, 3 * 16 * 6 * 5);
        let (mut x, mut y) = (initial(n), initial(n));
        let plain = TuningParams::new([8, 2, 5], Fold::new(8, 1, 1)).threads(2);
        let sweep = SweepRequest::new(&plain).tier(TierPolicy::Auto);
        for _ in 0..3 {
            sweep.apply(&s, &[&x], &mut y).unwrap();
            x.swap_data(&mut y).unwrap();
        }
        assert_eq!(a.max_abs_diff(&x).unwrap(), 0.0);
    }

    /// A wavefront's grids must carry the parameters' fold, as a spatial
    /// sweep's must.
    #[test]
    fn a_wavefront_on_grids_of_another_fold_is_refused() {
        let s = heat3d(1);
        let (a, b) = (initial([16, 6, 5]), initial([16, 6, 5]));
        let p = TuningParams::new([16, 6, 5], Fold::new(4, 1, 1)).wavefront(2);
        assert!(matches!(
            SweepRequest::new(&p).prepare_wavefront(&s, &a, &b),
            Err(EngineError::BadParams { .. })
        ));
    }

    /// A scaled-down Cascade-Lake-like machine whose LLC the test domain
    /// overflows, so the wavefront benefit shows at test-friendly sizes.
    fn shrunken_clx() -> Machine {
        let mut m = Machine::cascade_lake();
        m.kind = yasksite_arch::MachineKind::Custom;
        m.cores_per_socket = 4;
        m.caches[1].size_bytes = 128 * 1024;
        m.caches[2].size_bytes = 1024 * 1024;
        m.caches[2].assoc = 16;
        m.validate().unwrap();
        m
    }

    #[test]
    fn simulated_wavefront_cuts_memory_traffic() {
        let m = shrunken_clx();
        let s = heat3d(1);
        // 2 grids x 1 MiB: well beyond the shrunken 1 MiB LLC.
        let n = [128, 32, 32];
        let wf = 4;
        let mut mem = Vec::new();
        for depth in [1usize, wf] {
            let a = initial(n);
            let b = initial(n);
            let p = TuningParams::new([128, 8, 8], Fold::new(8, 1, 1)).wavefront(depth);
            let mut ctx = SimContext::new(&m, 1);
            // Equal total time steps: wf steps as either wf plain sweeps
            // or one wavefront sweep.
            let request = SweepRequest::new(&p).tier(TierPolicy::Auto);
            if depth == 1 {
                let mut x = a.clone();
                let mut y = b.clone();
                let sweep = request.prepare(&s, &[&x], &y).unwrap();
                for _ in 0..wf {
                    sweep.simulate(&mut ctx, &[&x], &y).unwrap();
                    x.swap_data(&mut y).unwrap();
                }
            } else {
                let chain = request.prepare_wavefront(&s, &a, &b).unwrap();
                chain.simulate(&mut ctx, &[&a, &b]).unwrap();
            }
            let run = ctx.finish();
            assert_eq!(run.updates, (wf * n[0] * n[1] * n[2]) as u64);
            mem.push(run.stats.mem_read_lines + run.stats.mem_write_lines);
        }
        assert!(
            (mem[1] as f64) < mem[0] as f64 * 0.6,
            "wavefront should cut memory traffic: {} vs {}",
            mem[1],
            mem[0]
        );
    }

    #[test]
    fn simulated_wavefront_multicore_runs() {
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        let n = [64, 32, 16];
        let a = initial(n);
        let b = initial(n);
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1))
            .wavefront(3)
            .threads(4);
        let mut ctx = SimContext::new(&m, 4);
        let request = SweepRequest::new(&p).tier(TierPolicy::Auto);
        let chain = request.prepare_wavefront(&s, &a, &b).unwrap();
        chain.simulate(&mut ctx, &[&a, &b]).unwrap();
        let run = ctx.finish();
        assert_eq!(run.updates, (3 * 64 * 32 * 16) as u64);
        for c in 0..4 {
            assert!(run.stats.boundary_lines[0][c] > 0);
        }
    }
}
