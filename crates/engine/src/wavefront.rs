//! Wavefront temporal blocking: time skewing along z, tiled in y.
//!
//! A wavefront sweep performs `wf` Jacobi time steps in one pass over the
//! domain. The domain is cut into y-tiles of `clipped_block(n)[1] ×
//! params.threads` rows, run one after another, and each tile runs the
//! whole z-wavefront: plane `z` of time level `s+1` is computed as soon
//! as the planes it needs from level `s` are ready, with a skew of
//! `shift = max(r_z, 1)` planes per level, while the tile's rows move back
//! by `sy = max(r_y, 1)` rows per level (a parallelogram in y and time).
//! Only one tile's planes are live at a time, so a block height whose
//! working set fits in L2 lets every level reuse what the level below
//! left there instead of re-streaming whole planes from L3 or memory. A
//! block as tall as the domain gives one tile: the untiled wavefront.
//!
//! Two ping-pong buffers suffice for any depth and any tile height. A skew
//! of at least the stencil radius per level keeps both orders the buffers
//! need: every level-`s−1` neighbour of a point is computed before the
//! point (read after write), and a level-`s−2` value is overwritten by
//! level `s` only after all of its level-`s−1` readers ran (write after
//! read); DESIGN.md "Wavefront tiling" has the argument. [`Schedule`] is
//! the one statement of that order: the native executor (row kernels and
//! per-point fallback alike) and [`run_wavefront_simulated`] both walk it.
//!
//! The native path composes all three YASK levers, as the paper does:
//! each tile-plane update runs through the same allocation-free linear
//! row kernels as a spatial [`crate::SweepRequest::apply`], blocked in x
//! by `params.block`, and its rows are split into `params.threads`
//! chunks of one block height executed on the persistent [`ExecPool`].
//! The per-point operation order is identical to the plain stepper's, so
//! a depth-`wf` wavefront bitwise-matches `wf` plain sweeps.

use yasksite_grid::Grid3;
use yasksite_memsim::Access;
use yasksite_stencil::Stencil;

use crate::compile::CompiledStencil;
use crate::error::EngineError;
use crate::native::{FiniteScan, Geom, LinearKernel, Sink};
use crate::params::TuningParams;
use crate::pool::{ExecPool, ScopedJob};
use crate::profile::SweepProfiler;
use crate::simulate::{apply_simulated, planned_incore, touch_row, Groups, SimContext};
use crate::sweep::{plan_wavefront, Kernel, PlannedKernel, TierPolicy};

/// One unit of a wavefront's work: rows `rows.0..rows.1` of plane `z` at
/// time level `level`, inside y-tile `tile`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TilePlane {
    pub(crate) level: usize,
    pub(crate) z: usize,
    pub(crate) tile: usize,
    pub(crate) rows: (usize, usize),
}

/// The order of a wavefront's work: y-tiles one after another, each a
/// z-wavefront of tile-planes, each tile-plane split into one row chunk
/// per thread.
///
/// At level `s`, tile `T` covers rows `[T·h − s·sy, (T+1)·h − s·sy)`
/// clamped to the domain, with `h = block_y × threads` and
/// `sy = max(r_y, 1)`; the first tile starts at row 0 and the last ends
/// at `n_y`. Thread `c` of a tile-plane takes the `c`-th block height of
/// the skewed tile, the last thread also what the last tile adds.
#[derive(Debug)]
pub(crate) struct Schedule {
    n: [usize; 3],
    depth: usize,
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
    /// The schedule of a depth-`params.wavefront` wavefront of a stencil
    /// with per-axis `radius` over domain `n`. `params` must be valid for
    /// `n` ([`TuningParams::validate`]).
    pub(crate) fn new(n: [usize; 3], radius: [usize; 3], params: &TuningParams) -> Schedule {
        let block_y = params.clipped_block(n)[1];
        Schedule {
            n,
            depth: params.wavefront,
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
        let zmax = self.n[2] + (self.depth - 1) * self.shift;
        (0..self.tiles).flat_map(move |tile| {
            (0..zmax).flat_map(move |zt| {
                (0..self.depth).filter_map(move |level| {
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

fn wavefront_checks(
    stencil: &Stencil,
    a: &Grid3,
    b: &Grid3,
    params: &TuningParams,
) -> Result<Schedule, EngineError> {
    if stencil.num_inputs() != 1 {
        return Err(EngineError::Unsupported {
            reason: "wavefront needs a single-input (ping-pong) stencil".into(),
        });
    }
    stencil.check_bindings(&[a], b)?;
    stencil.check_bindings(&[b], a)?;
    params
        .validate(a.n())
        .map_err(|reason| EngineError::BadParams { reason })?;
    Ok(Schedule::new(a.n(), stencil.info().radius, params))
}

/// The wavefront executor behind [`crate::SweepRequest::run_wavefront`].
/// Performs `params.wavefront` time steps in one tiled, skewed sweep and
/// returns `(widest chunk count, every written value finite, planned
/// kernel)`; the finiteness covers every time level and is `true`
/// without `scan`.
///
/// Linear stencils on matching row-major layouts take the fast path:
/// each tile-plane's chunks run on the pool through the linear row
/// kernel, whichever of its two rungs the planner named. Everything else
/// falls back to the per-point generic loop over the same schedule. Halo values of both buffers are left
/// untouched (fixed-value boundary), matching how the plain steppers
/// treat them.
#[allow(clippy::too_many_arguments)] // internal executor; one call site
pub(crate) fn execute_wavefront(
    pool: &ExecPool,
    stencil: &Stencil,
    a: &mut Grid3,
    b: &mut Grid3,
    params: &TuningParams,
    prof: &SweepProfiler,
    policy: TierPolicy,
    scan: bool,
) -> Result<(usize, bool, PlannedKernel), EngineError> {
    let schedule = wavefront_checks(stencil, a, b, params)?;
    let t_compile = prof.start();
    let compiled = CompiledStencil::compile(stencil);
    prof.phase_done("compile", t_compile);
    let n = a.n();
    // The fast path splits plane storage into contiguous row chunks, so
    // both buffers must really be row-major with identical layouts.
    let layouts_match = a.fold() == params.fold
        && b.fold() == params.fold
        && a.halo() == b.halo()
        && a.alloc() == b.alloc();
    let planned = plan_wavefront(&compiled, layouts_match, params, policy);
    let scan = &FiniteScan::new(scan);
    let mut widest = 1usize;
    prof.pool_window(pool.stats());
    let t_wavefront = prof.start();
    if matches!(planned.kernel, Kernel::LaneRows(_) | Kernel::ScalarRows) {
        let (terms, constant) = compiled.linear_terms().expect("fast implies linear");
        // Both buffers share one layout here, so the kernel lowered
        // against `a` serves a→b and b→a alike.
        let kernel = LinearKernel::build(terms, constant, &[&*a]);
        for tp in schedule.tile_planes() {
            let (src, dst) = ping_pong(a, b, tp.level);
            let t_plane = prof.start();
            let used = tile_plane_rows(pool, &kernel, src, dst, &tp, &schedule, params, prof, scan);
            widest = widest.max(used);
            prof.plane_done(t_plane);
        }
    } else {
        let mut scratch = compiled.point_scratch();
        for tp in schedule.tile_planes() {
            let (src, dst) = ping_pong(a, b, tp.level);
            let t_plane = prof.start();
            let z = tp.z as isize;
            for j in tp.rows.0 as isize..tp.rows.1 as isize {
                for i in 0..n[0] as isize {
                    let v = compiled.eval_at_in(&mut scratch, &[src], i, j, z);
                    dst.set(i, j, z, v);
                    scan.check(&[v]);
                }
            }
            prof.plane_done(t_plane);
        }
    }
    prof.phase_done("wavefront", t_wavefront);
    prof.pool_window(pool.stats());
    if params.wavefront % 2 == 1 {
        a.swap_data(b).expect("ping-pong pair has identical layout");
    }
    Ok((widest, scan.all_finite(), planned))
}

/// `(source, destination)` of time level `level`: even levels read `a`
/// and write `b`, odd levels the reverse.
fn ping_pong<'g>(a: &'g mut Grid3, b: &'g mut Grid3, level: usize) -> (&'g Grid3, &'g mut Grid3) {
    if level.is_multiple_of(2) {
        (a, b)
    } else {
        (b, a)
    }
}

/// One tile-plane update `dst[·, rows, z] = stencil(src)` through the
/// linear row kernel: the schedule's row chunks, each blocked in x/y by
/// `params.block` (and sub-blocked), run on the pool. Returns the number
/// of chunks.
#[allow(clippy::too_many_arguments)] // internal helper; one call site
fn tile_plane_rows(
    pool: &ExecPool,
    kernel: &LinearKernel,
    src: &Grid3,
    dst: &mut Grid3,
    tp: &TilePlane,
    schedule: &Schedule,
    params: &TuningParams,
    prof: &SweepProfiler,
    scan: &FiniteScan,
) -> usize {
    let n = dst.n();
    let block = params.clipped_block(n);
    let sub = params.sub_block.unwrap_or(block).map(|e| e.max(1));
    let out_geom = Geom::of(dst);
    let (ax, ay) = (out_geom.ax as usize, out_geom.ay as usize);
    let (hy, hz) = (out_geom.hy as usize, out_geom.hz as usize);
    let z = tp.z;
    let plane_start = (z + hz) * ax * ay;
    let plane = &mut dst.as_mut_slice()[plane_start..plane_start + ax * ay];
    let inputs = &[src.as_slice()];
    let mut jobs: Vec<ScopedJob<'_>> = Vec::new();
    let mut rest = plane;
    let mut consumed = 0usize; // storage rows of this plane handed out
    for (_, j0, j1) in schedule.chunks(tp) {
        let first_row = j0 + hy;
        let last_row = j1 + hy;
        let skip = (first_row - consumed) * ax;
        let take = (last_row - first_row) * ax;
        let (before, after) = rest.split_at_mut(skip + take);
        rest = after;
        consumed = last_row;
        let win = &mut before[skip..];
        let win_base = (plane_start + first_row * ax) as isize;
        jobs.push(Box::new(move || {
            let t0 = prof.start();
            let mut sink = Sink {
                win,
                base: win_base,
                geom: out_geom,
                scan,
            };
            kernel.apply_blocked(
                inputs,
                &mut sink,
                (z, z + 1),
                (j0, j1),
                (0, n[0]),
                block,
                sub,
            );
            prof.chunk_done(t0);
        }) as ScopedJob<'_>);
    }
    let used = jobs.len();
    pool.run(jobs);
    used
}

/// Simulated counterpart of the native wavefront executor: walks the same
/// schedule of y-tiles and tile-planes, issuing the touched cache lines to
/// the context's hierarchy; core `c` walks the row chunk native thread `c`
/// runs.
///
/// # Errors
/// Same conditions as the native variant, plus a core-count mismatch
/// between `ctx` and `params.threads`.
pub fn run_wavefront_simulated(
    stencil: &Stencil,
    a: &Grid3,
    b: &Grid3,
    params: &TuningParams,
    ctx: &mut SimContext,
) -> Result<(), EngineError> {
    let schedule = wavefront_checks(stencil, a, b, params)?;
    if params.wavefront == 1 {
        // Plain spatial sweep.
        return apply_simulated(stencil, &[a], b, params, ctx);
    }
    if ctx.cores() != params.threads {
        return Err(EngineError::BadParams {
            reason: format!(
                "context has {} cores, params ask for {}",
                ctx.cores(),
                params.threads
            ),
        });
    }
    let groups = Groups::of(stencil);
    let ic = planned_incore(stencil, true, params, ctx.machine());
    let n = a.n();
    let mut units = vec![0u64; ctx.cores()];
    for tp in schedule.tile_planes() {
        let (src, dst) = if tp.level.is_multiple_of(2) {
            (a, b)
        } else {
            (b, a)
        };
        let z = tp.z as isize;
        for (c, j0, j1) in schedule.chunks(&tp) {
            for j in j0 as isize..j1 as isize {
                let mut i = 0usize;
                while i < n[0] {
                    let iend = (i + 8).min(n[0]) - 1;
                    for &(_, dy, dz, lo, hi) in &groups.read {
                        touch_row(
                            &mut ctx.hierarchy,
                            c,
                            src,
                            i as isize + lo as isize,
                            iend as isize + hi as isize,
                            j + dy as isize,
                            z + dz as isize,
                            Access::Read,
                        );
                    }
                    touch_row(
                        &mut ctx.hierarchy,
                        c,
                        dst,
                        i as isize,
                        iend as isize,
                        j,
                        z,
                        Access::Write,
                    );
                    units[c] += 1;
                    i = iend + 1;
                }
            }
        }
    }
    ctx.add_incore(&units, ic.t_nol, ic.t_ol);
    ctx.add_updates(params.wavefront as u64 * (n[0] * n[1] * n[2]) as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepRequest, Tier};
    use proptest::prelude::*;
    use yasksite_arch::Machine;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{heat3d, wave2d};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The schedule's oracle, for a stencil reading the `(dy, dz)`
        /// offsets `reads` of the previous level (radius up to 2 per axis,
        /// asymmetric sets included) and tiles from one row to taller than
        /// the domain, many shorter than `depth · sy` (empty tile-planes):
        /// 1. every `(level, z, j)` is visited exactly once, by one chunk
        ///    of at most `threads`, chunks covering their tile-plane in
        ///    row order;
        /// 2. read after write: every level-`s−1` point that `(s, z, j)`
        ///    reads comes in an earlier tile-plane;
        /// 3. write after read: every level-`s−1` point that reads the
        ///    value `(s, z, j)` overwrites (level `s−2`, or the initial
        ///    contents for `s = 1`) comes in an earlier tile-plane.
        #[test]
        fn schedule_visits_once_and_keeps_both_ping_pong_orders(
            (ny, by) in (1usize..12).prop_flat_map(|ny| (Just(ny), 1usize..ny + 3)),
            nz in 1usize..7,
            reads in prop::collection::vec((-2isize..=2, -2isize..=2), 1..6),
            depth in 1usize..7,
            threads in 1usize..4,
        ) {
            let radius = |axis: fn(&(isize, isize)) -> isize| {
                reads.iter().map(|o| axis(o).unsigned_abs()).max().unwrap_or(0)
            };
            let (ry, rz) = (radius(|o| o.0), radius(|o| o.1));
            let p = TuningParams::new([3, by, nz], Fold::unit())
                .wavefront(depth)
                .threads(threads);
            let schedule = Schedule::new([3, ny, nz], [1, ry, rz], &p);
            let at = |s: usize, z: usize, j: usize| (s * nz + z) * ny + j;
            let mut when = vec![usize::MAX; depth * nz * ny];
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
            // The level-`s−1` point at `(z, j) + sign·(dz, dy)`, if inside.
            let neighbour = |s: usize, z: usize, j: usize, (dy, dz): (isize, isize), sign: isize| {
                let (z, j) = (z as isize + sign * dz, j as isize + sign * dy);
                ((0..nz as isize).contains(&z) && (0..ny as isize).contains(&j))
                    .then(|| when[at(s - 1, z as usize, j as usize)])
            };
            for s in 1..depth {
                for z in 0..nz {
                    for j in 0..ny {
                        let t = when[at(s, z, j)];
                        for &o in &reads {
                            if let Some(read) = neighbour(s, z, j, o, 1) {
                                prop_assert!(read < t, "level {s} ({z}, {j}) reads {o:?} before it is written");
                            }
                            if let Some(reader) = neighbour(s, z, j, o, -1) {
                                prop_assert!(reader < t, "level {s} ({z}, {j}) overwrites a value its reader at {o:?} still needs");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiles_are_skewed_parallelograms_and_empty_tile_planes_are_skipped() {
        // One-row tiles against a depth-3 skew of one row per level: the
        // first tile starts at row 0 and the last ends at n_y at every
        // level; three of the twelve tile-planes are empty.
        let p = TuningParams::new([1, 1, 1], Fold::unit()).wavefront(3);
        let schedule = Schedule::new([1, 4, 1], [1, 1, 1], &p);
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
        let p = TuningParams::new([1, 3, 1], Fold::unit())
            .wavefront(2)
            .threads(2);
        let schedule = Schedule::new([1, 5, 1], [1, 1, 1], &p);
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
        let tile_planes = Schedule::new(n, [1, 1, 1], &p).tile_planes().count();
        assert_eq!(tile_planes, 2 * wf * n[2]);
        assert_eq!(planes.count as usize, tile_planes);
        let chunks = r.chunks.expect("chunk timings recorded");
        assert!(chunks.count >= planes.count);
        assert!(r.pool.is_some());
    }

    #[test]
    fn wavefront_finite_scan_covers_every_level_on_rows_and_per_point() {
        let s = heat3d(1);
        let n = [16, 6, 10];
        for (fold, tier) in [
            (Fold::new(8, 1, 1), Tier::Folded),
            (Fold::new(4, 2, 1), Tier::Generic),
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

    #[test]
    fn mismatched_layouts_fall_back_to_generic_path() {
        // b allocates a wider halo than a: the fast path's identical
        // -layout precondition fails, the generic path must still give
        // the right answer and the report must say so.
        let s = heat3d(1);
        let n = [12, 6, 8];
        let a0 = initial(n);
        let want = stepper_reference(&s, &a0, 2);
        let mut a = a0.clone();
        let mut b = Grid3::new("b", n, [2, 2, 2], Fold::new(8, 1, 1));
        b.fill_halo(0.0);
        let p = TuningParams::new([12, 6, 8], Fold::new(8, 1, 1))
            .wavefront(2)
            .threads(2);
        let report = SweepRequest::new(&p)
            .tier(TierPolicy::Auto)
            .run_wavefront(&s, &mut a, &mut b)
            .unwrap();
        assert_eq!(
            report.threads_used, 1,
            "generic fallback is single-threaded"
        );
        assert_eq!(report.tier, Tier::Generic);
        assert!(report.tier_reason.contains("mismatched layouts"));
        assert!(a.max_abs_diff(&want).unwrap() < 1e-12);
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
            if depth == 1 {
                let mut x = a.clone();
                let mut y = b.clone();
                for _ in 0..wf {
                    apply_simulated(&s, &[&x], &y, &p, &mut ctx).unwrap();
                    x.swap_data(&mut y).unwrap();
                }
            } else {
                run_wavefront_simulated(&s, &a, &b, &p, &mut ctx).unwrap();
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
        run_wavefront_simulated(&s, &a, &b, &p, &mut ctx).unwrap();
        let run = ctx.finish();
        assert_eq!(run.updates, (3 * 64 * 32 * 16) as u64);
        for c in 0..4 {
            assert!(run.stats.boundary_lines[0][c] > 0);
        }
    }
}
