//! Simulated execution backend: drives the cache-hierarchy simulator with
//! the exact iteration order of the native kernels.
//!
//! Simulation is the second sink of what native preparation returns:
//! [`PreparedSweep::simulate`] and [`PreparedChain::simulate`] run the
//! same checks as their `run` and replay the regions of the kernel the
//! preparation planned, charged that kernel's [`crate::Kernel::issue`];
//! a chain is replayed tiled exactly where it runs tiled. A sweep meant
//! for the simulator is prepared under [`crate::TierPolicy::Auto`], so
//! its counters do not depend on `YASKSITE_FORCE_TIER`.
//!
//! The replay is the second sink of the engine's one walk
//! ([`crate::walk`]): core `t` replays the row segments native thread
//! `t` computes, region for region and block for block. The native brick
//! kernel is the one exception: it visits bricks in storage order, and a
//! sweep on a brick fold is replayed as the row walk of its z-slabs.

use std::borrow::Borrow;

use yasksite_arch::Machine;
use yasksite_ecm::incore::{incore_with_issue, InCore};
use yasksite_grid::{AddressSpace, Fold, Grid3, ELEM_BYTES};
use yasksite_memsim::{
    compose_time, Access, CoreWork, HierarchyStats, MemHierarchy, TimeBreakdown,
};
use yasksite_stencil::StencilInfo;

use crate::error::EngineError;
use crate::native::PreparedSweep;
use crate::params::TuningParams;
use crate::walk::{Block, Region, Walk};
use crate::wavefront::{PreparedChain, Window};

/// A simulation context: the machine's cache hierarchy plus bookkeeping
/// that persists across kernel applications (so multi-sweep workloads see
/// warm caches, exactly like consecutive time steps on real hardware), and
/// the measurement's own address space ([`SimContext::grid`]).
#[derive(Debug)]
pub struct SimContext {
    /// The simulated hierarchy.
    pub hierarchy: MemHierarchy,
    space: AddressSpace,
    /// Accumulated in-core cycles per core across applications.
    incore_cycles: Vec<f64>,
    /// Accumulated `T_OL` lower bound per core.
    ol_cycles: Vec<f64>,
    updates: u64,
}

impl SimContext {
    /// Creates a context for `machine` with `cores` active cores.
    #[must_use]
    pub fn new(machine: &Machine, cores: usize) -> Self {
        SimContext {
            hierarchy: MemHierarchy::new(machine, cores),
            space: AddressSpace::new(),
            incore_cycles: vec![0.0; cores],
            ol_cycles: vec![0.0; cores],
            updates: 0,
        }
    }

    /// A zero-initialised grid in this context's own address space: the
    /// context's grids sit one after another from a fixed base, in
    /// allocation order (see [`AddressSpace`]). Counters of grids allocated
    /// here do not depend on what other threads allocate meanwhile. The
    /// simulator reads only addresses, so the grid needs no values.
    ///
    /// # Panics
    /// Panics if any domain extent is zero.
    #[must_use]
    pub fn grid(&mut self, name: &str, n: [usize; 3], halo: [usize; 3], fold: Fold) -> Grid3 {
        self.space.grid(name, n, halo, fold)
    }

    /// The machine being simulated.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        self.hierarchy.machine()
    }

    /// Active cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.hierarchy.ncores()
    }

    /// Total updates simulated so far.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Non-overlapping in-core cycles accumulated per core so far: units
    /// of work times the `T_nOL` of the kernel the planner picks for each
    /// application (see [`crate::Kernel::issue`]).
    #[must_use]
    pub fn incore_cycles(&self) -> &[f64] {
        &self.incore_cycles
    }

    /// Accounts core `core`'s in-core cycles for `units` units of work.
    pub(crate) fn add_incore(&mut self, core: usize, units: u64, t_nol: f64, t_ol: f64) {
        self.incore_cycles[core] += units as f64 * t_nol;
        self.ol_cycles[core] += units as f64 * t_ol;
    }

    /// Accounts simulated lattice updates.
    pub(crate) fn add_updates(&mut self, u: u64) {
        self.updates += u;
    }

    /// Composes the accumulated traffic and in-core work into a runtime
    /// estimate for everything simulated in this context so far.
    #[must_use]
    pub fn finish(&self) -> SimulatedRun {
        let stats = self.hierarchy.stats();
        let work: Vec<CoreWork> = self
            .incore_cycles
            .iter()
            .map(|&c| CoreWork { incore_cycles: c })
            .collect();
        let machine = self.hierarchy.machine();
        let mut time = compose_time(machine, &stats, &work);
        // T_OL overlaps with transfers but still bounds the runtime.
        let ol_bound = self.ol_cycles.iter().copied().fold(0.0f64, f64::max);
        if ol_bound > time.total_cycles {
            time.total_cycles = ol_bound;
            time.seconds = ol_bound / (machine.freq_ghz * 1e9);
        }
        let mlups = self.updates as f64 / time.seconds.max(1e-30) / 1e6;
        SimulatedRun {
            time,
            stats,
            updates: self.updates,
            mlups,
        }
    }
}

/// Result of a simulated execution.
#[derive(Debug, Clone)]
pub struct SimulatedRun {
    /// Composed runtime estimate.
    pub time: TimeBreakdown,
    /// Raw traffic counters.
    pub stats: HierarchyStats,
    /// Lattice updates simulated.
    pub updates: u64,
    /// Estimated MLUP/s.
    pub mlups: f64,
}

/// Read groups: per distinct `(grid, dy, dz)` row, the x-extent accessed.
pub(crate) struct Groups {
    pub read: Vec<(usize, i32, i32, i32, i32)>,
}

impl Groups {
    pub(crate) fn of(info: &StencilInfo) -> Groups {
        let mut read: Vec<(usize, i32, i32, i32, i32)> = Vec::new();
        for (g, o) in &info.offsets {
            match read
                .iter_mut()
                .find(|(gg, dy, dz, _, _)| *gg == *g && *dy == o[1] && *dz == o[2])
            {
                Some((_, _, _, lo, hi)) => {
                    *lo = (*lo).min(o[0]);
                    *hi = (*hi).max(o[0]);
                }
                None => read.push((*g, o[1], o[2], o[0], o[0])),
            }
        }
        Groups { read }
    }
}

/// A grid a simulated pass touches: its rows where the grid keeps them,
/// or where the chain's [`Window`] maps them.
#[derive(Clone, Copy)]
pub(crate) struct Target<'g> {
    pub(crate) grid: &'g Grid3,
    pub(crate) window: Option<&'g Window>,
}

impl<'g> Target<'g> {
    pub(crate) fn plain(grid: &'g Grid3) -> Target<'g> {
        Target { grid, window: None }
    }

    /// [`touch_row`] of row `(j, k)` over x ∈ `[x0, x1]`, at the storage
    /// row the window maps it to when there is one.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn touch(
        &self,
        h: &mut MemHierarchy,
        core: usize,
        x0: isize,
        x1: isize,
        j: isize,
        k: isize,
        access: Access,
    ) {
        match self.window {
            None => touch_row(h, core, self.grid, x0, x1, j, k, access),
            Some(w) => {
                let (base, at) = (self.grid.base_addr(), w.base(j, k));
                let addr = |x: isize| base + ((at + x) as usize * ELEM_BYTES) as u64;
                touch_run(h, core, self.grid.fold(), addr, x0, x1, access);
            }
        }
    }
}

/// One level of a simulated pass: per piece of a row segment, each
/// [`Groups`] read row of its input grids, then its output row, stored
/// with `store`.
pub(crate) struct Touches<'g> {
    reads: Vec<(Target<'g>, isize, isize, isize, isize)>,
    out: Target<'g>,
    store: Access,
}

impl<'g> Touches<'g> {
    pub(crate) fn of(
        info: &StencilInfo,
        inputs: &[Target<'g>],
        out: Target<'g>,
        store: Access,
    ) -> Touches<'g> {
        let reads = Groups::of(info).read.into_iter();
        let reads = reads.map(|(g, dy, dz, lo, hi)| {
            let [dy, dz, lo, hi] = [dy, dz, lo, hi].map(|e| e as isize);
            (inputs[g], dy, dz, lo, hi)
        });
        Touches {
            reads: reads.collect(),
            out,
            store,
        }
    }

    /// The simulated sink of the walk: core `r.thread` replays region `r`
    /// of `regions`, the cores taking one block each in turn (round-robin
    /// by block, as the shared levels see them interleave).
    /// `charge(ctx, core, units)` is told each block's units of in-core
    /// work, one per 8-point piece.
    pub(crate) fn replay(
        &self,
        ctx: &mut SimContext,
        walk: &Walk,
        regions: &[Region],
        mut charge: impl FnMut(&mut SimContext, usize, u64),
    ) {
        let mut blocks: Vec<_> = regions.iter().map(|r| walk.blocks(r)).collect();
        let mut busy = true;
        while busy {
            busy = false;
            for (r, blocks) in regions.iter().zip(&mut blocks) {
                if let Some(block) = blocks.next() {
                    busy = true;
                    let units = self.block(&mut ctx.hierarchy, walk, r.thread, &block);
                    charge(ctx, r.thread, units);
                }
            }
        }
    }

    /// Core `core`'s replay of `block`: every row segment in pieces of 8
    /// points, each touching the read rows over its x-range widened by
    /// each row's reach, then the output row; returns the pieces.
    fn block(&self, h: &mut MemHierarchy, walk: &Walk, core: usize, block: &Block) -> u64 {
        let mut units = 0;
        walk.block_rows(core, block, |k, j, i0, i1| {
            let (k, j, end) = (k as isize, j as isize, i1 as isize);
            let mut i = i0 as isize;
            while i < end {
                let iend = (i + 8).min(end) - 1;
                for &(g, dy, dz, lo, hi) in &self.reads {
                    let [x0, x1, y, z] = [i + lo, iend + hi, j + dy, k + dz];
                    g.touch(h, core, x0, x1, y, z, Access::Read);
                }
                self.out.touch(h, core, i, iend, j, k, self.store);
                units += 1;
                i = iend + 1;
            }
        });
        units
    }
}

/// Issues the cache lines touched by accessing row `(j+dy, k+dz)` of
/// `grid` over x ∈ `[x0, x1]` (inclusive), once per line in address order.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn touch_row(
    h: &mut MemHierarchy,
    core: usize,
    grid: &Grid3,
    x0: isize,
    x1: isize,
    j: isize,
    k: isize,
    access: Access,
) {
    touch_run(h, core, grid.fold(), |x| grid.addr(x, j, k), x0, x1, access);
}

/// [`touch_row`] of the row whose element `x` sits at `addr(x)`, in a
/// grid of fold `fold`.
#[inline]
fn touch_run(
    h: &mut MemHierarchy,
    core: usize,
    fold: Fold,
    addr: impl Fn(isize) -> u64,
    x0: isize,
    x1: isize,
    access: Access,
) {
    // A fold that is 1 in y and z stores each row contiguously, and a walk
    // that steps at most one 64-byte line at a time visits every line
    // between the row's ends: one run issues the same accesses.
    if fold.y == 1 && fold.z == 1 && fold.x * ELEM_BYTES <= 64 && h.machine().line_bytes() == 64 {
        let first = addr(x0);
        let last = first + (x1 - x0) as u64 * ELEM_BYTES as u64;
        h.access_run(core, first, last, access);
    } else {
        walk_addrs(h, core, fold, addr, x0, x1, access);
    }
}

/// [`walk_addrs`] of row `(j, k)` of `grid`: the reference
/// [`touch_row`] is checked against.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn walk_row(
    h: &mut MemHierarchy,
    core: usize,
    grid: &Grid3,
    x0: isize,
    x1: isize,
    j: isize,
    k: isize,
    access: Access,
) {
    walk_addrs(h, core, grid.fold(), |x| grid.addr(x, j, k), x0, x1, access);
}

/// The per-position form of [`touch_run`]: steps through the row at fold
/// granularity and issues an access whenever the 64-byte line changes.
fn walk_addrs(
    h: &mut MemHierarchy,
    core: usize,
    fold: Fold,
    addr: impl Fn(isize) -> u64,
    x0: isize,
    x1: isize,
    access: Access,
) {
    let step = fold.x.max(1) as isize;
    let mut last_line = u64::MAX;
    let mut x = x0;
    loop {
        let a = addr(x);
        let line = a >> 6;
        if line != last_line {
            h.access_run(core, a, a, access);
            last_line = line;
        }
        if x >= x1 {
            break;
        }
        x = (x + step).min(x1);
    }
}

/// [`EngineError::BadParams`] unless `ctx` simulates as many cores as
/// `params` ask threads.
fn check_cores(ctx: &SimContext, params: &TuningParams) -> Result<(), EngineError> {
    if ctx.cores() == params.threads {
        return Ok(());
    }
    Err(EngineError::BadParams {
        reason: format!(
            "context has {} cores, params ask for {}",
            ctx.cores(),
            params.threads
        ),
    })
}

impl PreparedSweep<'_> {
    /// The simulated sink of [`PreparedSweep::run`]: one application over
    /// the domain of `out`, accumulating traffic and in-core work into
    /// `ctx`. Core `t` replays native thread `t`'s regions of the planned
    /// kernel (one core for a per-point plan), blocks interleaved
    /// round-robin on the shared levels, and is charged the planned
    /// kernel's issue. Outputs are stored non-temporally under
    /// `params.streaming_stores`. The simulator reads addresses only, so
    /// the grids need no values.
    ///
    /// # Errors
    /// [`PreparedSweep::run`]'s errors, and [`EngineError::BadParams`]
    /// when the context's core count differs from `params.threads`.
    pub fn simulate(
        &self,
        ctx: &mut SimContext,
        inputs: &[&Grid3],
        out: &Grid3,
    ) -> Result<(), EngineError> {
        self.check(inputs, out)?;
        check_cores(ctx, &self.params)?;
        self.replay(ctx, inputs, out);
        Ok(())
    }

    /// The in-core cycles per unit of work of the planned kernel on the
    /// context's machine.
    fn incore(&self, ctx: &SimContext) -> InCore {
        let machine = ctx.machine();
        let issue = self.planned.kernel.issue(machine);
        incore_with_issue(&self.info, &machine.ports, self.params.fold, issue)
    }

    /// [`PreparedSweep::simulate`] on grids its checks accepted.
    fn replay(&self, ctx: &mut SimContext, inputs: &[&Grid3], out: &Grid3) {
        let ic = self.incore(ctx);
        let store = if self.params.streaming_stores {
            Access::WriteNt
        } else {
            Access::Write
        };
        let walk = Walk::new(self.out.n, &self.params);
        let regions = walk.sweep(self.planned.kernel, self.params.threads);
        let inputs: Vec<Target<'_>> = inputs.iter().map(|g| Target::plain(g)).collect();
        let level = Touches::of(&self.info, &inputs, Target::plain(out), store);
        level.replay(ctx, &walk, &regions, |ctx, c, units| {
            ctx.add_incore(c, units, ic.t_nol, ic.t_ol);
        });
        ctx.add_updates(self.out.n.iter().product::<usize>() as u64);
    }
}

impl PreparedChain<'_> {
    /// The simulated sink of [`PreparedChain::run`]: every level once over
    /// `grids`, on the context's hierarchy. A chain that runs tiled is
    /// replayed as its one tiled pass: core `c` walks the rows native
    /// thread `c` runs in each tile-plane, blocked and sub-blocked as the
    /// host walks them, stores write-allocate, and each level's units are
    /// charged its planned kernel's issue. Any other chain is replayed op
    /// by op, each level as [`PreparedSweep::simulate`].
    ///
    /// # Errors
    /// [`PreparedChain::run`]'s errors, and [`EngineError::BadParams`]
    /// when the context's core count differs from `params.threads`.
    pub fn simulate<G: Borrow<Grid3>>(
        &self,
        ctx: &mut SimContext,
        grids: &[G],
    ) -> Result<(), EngineError> {
        let bound = self.check(grids)?;
        let first = &self.sweeps[0];
        check_cores(ctx, &first.params)?;
        let Some(schedule) = &self.schedule else {
            for (level, (inputs, out)) in self.levels.iter().zip(&bound) {
                self.sweeps[level.sweep].replay(ctx, inputs, out);
            }
            return Ok(());
        };
        let walk = Walk::new(first.out.n, &first.params);
        let touches: Vec<Touches<'_>> = self
            .levels
            .iter()
            .zip(&bound)
            .map(|(level, (inputs, out))| {
                let target = |g: usize, grid| Target {
                    grid,
                    window: self.window(g),
                };
                let inputs: Vec<Target<'_>> = level
                    .inputs
                    .iter()
                    .zip(inputs)
                    .map(|(&g, grid)| target(g, grid))
                    .collect();
                let out = target(level.output, out);
                Touches::of(&self.sweeps[level.sweep].info, &inputs, out, Access::Write)
            })
            .collect();
        let mut units = vec![vec![0u64; ctx.cores()]; self.sweeps.len()];
        for tp in schedule.tile_planes() {
            let sweep = self.levels[tp.level].sweep;
            let regions = Walk::plane(schedule, &tp);
            touches[tp.level].replay(ctx, &walk, &regions, |_, c, u| {
                units[sweep][c] += u;
            });
        }
        for (sweep, units) in self.sweeps.iter().zip(&units) {
            let ic = sweep.incore(ctx);
            for (c, &u) in units.iter().enumerate() {
                ctx.add_incore(c, u, ic.t_nol, ic.t_ol);
            }
        }
        let points = first.out.n.iter().product::<usize>();
        ctx.add_updates((self.levels.len() * points) as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SweepRequest, TierPolicy};
    use proptest::prelude::*;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{heat3d, star3d};
    use yasksite_stencil::Stencil;

    /// CLX with every level shrunk (L1 2 KiB, L2 8 KiB, victim L3 56 KiB)
    /// and four cores, so short row sequences evict at every level.
    fn tiny_clx() -> Machine {
        let mut m = Machine::cascade_lake();
        m.cores_per_socket = 4;
        for (c, sets) in m.caches.iter_mut().zip([4, 8, 64]) {
            c.size_bytes = sets * c.assoc * c.line_bytes;
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Issuing a row as one run of lines gives the same counters as
        /// the per-position walk: first over a sweep of a radius-`r` star
        /// (rows reaching into the halo, `cores` cores), then over rows
        /// drawn anywhere in the allocated grids, with every access kind.
        #[test]
        fn line_runs_match_the_per_position_walk(
            tiny in any::<bool>(),
            fold in prop_oneof![Just(Fold::new(8, 1, 1)), Just(Fold::new(4, 1, 1)), Just(Fold::new(4, 2, 1))],
            r in 1usize..3,
            nx in 16usize..48,
            ny in 8usize..24,
            nz in 4usize..16,
            cores in 1usize..5,
            rows in prop::collection::vec(
                (0usize..2, 0usize..4, any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), 0u8..3),
                1..2000,
            ),
        ) {
            let m = if tiny { tiny_clx() } else { Machine::cascade_lake() };
            let n = [nx, ny, nz];
            let grids = [Grid3::new("u", n, [r; 3], fold), Grid3::new("o", n, [r; 3], fold)];
            let (mut run, mut walk) = (MemHierarchy::new(&m, cores), MemHierarchy::new(&m, cores));
            let mut touch = |g: usize, core: usize, x: [isize; 2], j: isize, k: isize, access: Access| {
                touch_row(&mut run, core, &grids[g], x[0], x[1], j, k, access);
                walk_row(&mut walk, core, &grids[g], x[0], x[1], j, k, access);
            };
            let groups = Groups::of(&star3d(r, &vec![0.1; r + 1]).info());
            for k in 0..nz as isize {
                let core = k as usize * cores / nz;
                for j in 0..ny as isize {
                    for i in (0..nx as isize).step_by(8) {
                        let iend = (i + 7).min(nx as isize - 1);
                        for &(_, dy, dz, lo, hi) in &groups.read {
                            let x = [i + lo as isize, iend + hi as isize];
                            touch(0, core, x, j + dy as isize, k + dz as isize, Access::Read);
                        }
                        touch(1, core, [i, iend], j, k, Access::Write);
                    }
                }
            }
            // Anywhere in the allocated extent, halo included.
            let at = |draw: u64, len: usize| (draw % (len + 2 * r) as u64) as isize - r as isize;
            for &(g, core, a, b, jd, kd, kind) in &rows {
                let x0 = at(a, nx);
                let x1 = x0 + (b % (nx as isize + r as isize - x0) as u64) as isize;
                let access = [Access::Read, Access::Write, Access::WriteNt][usize::from(kind)];
                touch(g, core % cores, [x0, x1], at(jd, ny), at(kd, nz), access);
            }
            prop_assert_eq!(run.stats(), walk.stats());
        }
    }

    /// One simulated application of `s`, prepared as the simulator's
    /// callers prepare it.
    fn simulate(
        s: &Stencil,
        inputs: &[&Grid3],
        out: &Grid3,
        p: &TuningParams,
        ctx: &mut SimContext,
    ) -> Result<(), EngineError> {
        let request = SweepRequest::new(p).tier(TierPolicy::Auto);
        request.prepare(s, inputs, out)?.simulate(ctx, inputs, out)
    }

    fn grids(n: [usize; 3]) -> (Grid3, Grid3) {
        let fold = Fold::new(8, 1, 1);
        (
            Grid3::new("u", n, [1, 1, 1], fold),
            Grid3::new("o", n, [1, 1, 1], fold),
        )
    }

    #[test]
    fn small_domain_traffic_matches_footprint() {
        // Domain fits L2: a single sweep reads each input line once from
        // memory (compulsory) plus write-allocates the output.
        let m = Machine::cascade_lake();
        let n = [64, 32, 32];
        let (u, o) = grids(n);
        let s = heat3d(1);
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1));
        let mut ctx = SimContext::new(&m, 1);
        simulate(&s, &[&u], &o, &p, &mut ctx).unwrap();
        let run = ctx.finish();
        assert_eq!(run.updates, (64 * 32 * 32) as u64);
        // Memory reads ≈ allocated footprint of both grids in lines.
        let footprint_lines = ((u.bytes() + o.bytes()) / 64) as u64;
        assert!(
            run.stats.mem_read_lines <= footprint_lines,
            "{} > {footprint_lines}",
            run.stats.mem_read_lines
        );
        assert!(run.stats.mem_read_lines >= footprint_lines / 2);
    }

    #[test]
    fn second_sweep_on_cached_domain_is_cheap() {
        let m = Machine::cascade_lake();
        let n = [64, 16, 16]; // 2 grids * 160 KB: fits L2
        let (u, o) = grids(n);
        let s = heat3d(1);
        let p = TuningParams::new([64, 16, 16], Fold::new(8, 1, 1));
        let mut ctx = SimContext::new(&m, 1);
        simulate(&s, &[&u], &o, &p, &mut ctx).unwrap();
        let cold = ctx.hierarchy.stats().mem_read_lines;
        simulate(&s, &[&o], &u, &p, &mut ctx).unwrap();
        let warm = ctx.hierarchy.stats().mem_read_lines - cold;
        assert!(warm < cold / 4, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn multicore_splits_work() {
        let m = Machine::cascade_lake();
        let n = [64, 16, 32];
        let (u, o) = grids(n);
        let s = heat3d(1);
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1)).threads(4);
        let mut ctx = SimContext::new(&m, 4);
        simulate(&s, &[&u], &o, &p, &mut ctx).unwrap();
        let run = ctx.finish();
        assert_eq!(run.updates, (64 * 16 * 32) as u64);
        // Every core moved some lines across its private boundary.
        for c in 0..4 {
            assert!(run.stats.boundary_lines[0][c] > 0, "core {c} idle");
        }
    }

    #[test]
    fn core_count_mismatch_rejected() {
        let m = Machine::cascade_lake();
        let (u, o) = grids([16, 8, 8]);
        let s = heat3d(1);
        let p = TuningParams::new([8, 8, 8], Fold::new(8, 1, 1)).threads(2);
        let mut ctx = SimContext::new(&m, 1);
        assert!(matches!(
            simulate(&s, &[&u], &o, &p, &mut ctx),
            Err(EngineError::BadParams { .. })
        ));
    }

    #[test]
    fn sub_blocking_changes_traversal_not_traffic_totals() {
        // Sub-blocks only reorder accesses inside a block; compulsory
        // memory traffic stays identical, while L1 traffic may change.
        let m = Machine::cascade_lake();
        let n = [64, 32, 16];
        let s = heat3d(1);
        let fold = Fold::new(8, 1, 1);
        let mut mem = Vec::new();
        for sub in [None, Some([16, 4, 4])] {
            let (u, o) = grids(n);
            let mut p = TuningParams::new([64, 16, 16], fold);
            p.sub_block = sub;
            let mut ctx = SimContext::new(&m, 1);
            simulate(&s, &[&u], &o, &p, &mut ctx).unwrap();
            let st = ctx.finish().stats;
            mem.push(st.mem_read_lines);
        }
        let diff = mem[0].abs_diff(mem[1]) as f64;
        assert!(
            diff / (mem[0] as f64) < 0.05,
            "compulsory traffic diverged: {mem:?}"
        );
    }

    #[test]
    fn streaming_stores_cut_write_allocate_reads() {
        let m = Machine::cascade_lake();
        let n = [256, 64, 16]; // output exceeds caches between sweeps
        let s = heat3d(1);
        let mut reads = Vec::new();
        for nt in [false, true] {
            let (u, o) = grids(n);
            let p = TuningParams::new([256, 8, 8], Fold::new(8, 1, 1)).streaming_stores(nt);
            let mut ctx = SimContext::new(&m, 1);
            simulate(&s, &[&u], &o, &p, &mut ctx).unwrap();
            reads.push(ctx.finish().stats.mem_read_lines);
        }
        // NT stores avoid reading the output stream: roughly one third of
        // the cold-sweep read traffic disappears.
        assert!(
            (reads[1] as f64) < reads[0] as f64 * 0.75,
            "NT {} vs WA {}",
            reads[1],
            reads[0]
        );
    }

    #[test]
    fn blocking_reduces_memory_traffic_on_large_grids() {
        let m = Machine::cascade_lake();
        let n = [512, 96, 24]; // plane > L2, domain > L2
        let s = heat3d(1);
        let fold = Fold::new(8, 1, 1);
        let mut traffic = Vec::new();
        for block in [[512, 96, 24], [512, 8, 8]] {
            let (u, o) = grids(n);
            let p = TuningParams::new(block, fold);
            let mut ctx = SimContext::new(&m, 1);
            simulate(&s, &[&u], &o, &p, &mut ctx).unwrap();
            traffic.push(ctx.finish().stats.boundary_total(1));
            drop((u, o));
        }
        // Blocked traversal moves no more L2<->L3 lines than unblocked.
        assert!(traffic[1] <= traffic[0], "{} > {}", traffic[1], traffic[0]);
    }
}
