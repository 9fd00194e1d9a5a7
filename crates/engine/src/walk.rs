//! The walk: which thread computes which rows of a pass, in what order.
//!
//! Every pass over a domain (a spatial sweep, or one tile-plane of a
//! tiled chain, which only the row kernel runs) is cut into per-thread
//! [`Region`]s, boxes of whole x-rows, and each region is walked in the
//! YASK block / sub-block order of [`Walk`]: block by block, and inside a
//! block sub-block by sub-block, one `(k, j, i0, i1)` row segment at a
//! time, x innermost.
//!
//! One walk, two sinks. The native row, tape and per-point executors
//! compute the segments the walk hands them, thread `t` on region `t`;
//! the simulated sink ([`crate::PreparedSweep::simulate`],
//! [`crate::PreparedChain::simulate`]) issues the segments' cache lines,
//! core `t` replaying thread `t`'s region. What the simulator charges is what
//! the host runs. The one native path that does not take its rows from
//! the walk is the brick kernel ([`crate::fold_tier`]): it visits bricks
//! in storage order over brick-z slabs, and the simulator replays the
//! row walk of a brick fold's z-slabs instead.

use yasksite_grid::Grid3;

use crate::native::{FiniteScan, Geom, Sink, WindowSink};
use crate::params::{chunk_ranges, TuningParams};
use crate::sweep::Kernel;
use crate::wavefront::{Schedule, TilePlane, Window};

/// One thread's share of a pass: every x-row of the domain box
/// `z × y`. Thread `thread` (a native pool job, or a simulated core)
/// walks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Region {
    pub(crate) thread: usize,
    pub(crate) z: (usize, usize),
    pub(crate) y: (usize, usize),
}

/// One block of a region: its z-, y- and x-ranges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    z: (usize, usize),
    y: (usize, usize),
    x: (usize, usize),
}

/// The blocked traversal of one pass: the domain, the clipped block and
/// the sub-block of its parameters.
pub(crate) struct Walk {
    n: [usize; 3],
    block: [usize; 3],
    sub: [usize; 3],
    #[cfg(test)]
    log: Option<record::Log>,
}

impl Walk {
    /// The walk of a pass over domain `n` under `params` (valid for `n`).
    pub(crate) fn new(n: [usize; 3], params: &TuningParams) -> Walk {
        let block = params.clipped_block(n);
        Walk {
            n,
            block,
            sub: params.sub_block.unwrap_or(block).map(|e| e.max(1)),
            #[cfg(test)]
            log: record::current(),
        }
    }

    /// The clipped block.
    pub(crate) fn block(&self) -> [usize; 3] {
        self.block
    }

    /// The regions of a spatial sweep on `kernel`: one z-slab per thread,
    /// whole z-blocks from [`chunk_ranges`] over `threads`; the per-point
    /// kernel runs on one thread over the whole domain. The split depends
    /// only on `(n, block, threads)`, never on the pool width.
    pub(crate) fn sweep(&self, kernel: Kernel, threads: usize) -> Vec<Region> {
        let [_, ny, nz] = self.n;
        let (bz, threads) = match kernel {
            Kernel::PerPoint => (nz, 1),
            _ => (self.block[2], threads),
        };
        chunk_ranges(nz.div_ceil(bz), threads)
            .into_iter()
            .enumerate()
            .map(|(thread, (b0, b1))| Region {
                thread,
                z: (b0 * bz, (b1 * bz).min(nz)),
                y: (0, ny),
            })
            .collect()
    }

    /// The regions of tile-plane `tp` of a tiled chain: the schedule's
    /// row chunks, one per thread.
    pub(crate) fn plane(schedule: &Schedule, tp: &TilePlane) -> Vec<Region> {
        let z = (tp.z, tp.z + 1);
        schedule
            .chunks(tp)
            .map(|(thread, j0, j1)| Region {
                thread,
                z,
                y: (j0, j1),
            })
            .collect()
    }

    /// The blocks of `r` in walk order: z-blocks, then y-blocks, then
    /// x-blocks, each starting at the region's own corner.
    pub(crate) fn blocks(&self, r: &Region) -> impl Iterator<Item = Block> + '_ {
        let [bx, by, bz] = self.block;
        let (z, y, nx) = (r.z, r.y, self.n[0]);
        (z.0..z.1).step_by(bz).flat_map(move |kb| {
            let z = (kb, (kb + bz).min(z.1));
            (y.0..y.1).step_by(by).flat_map(move |jb| {
                let y = (jb, (jb + by).min(y.1));
                (0..nx).step_by(bx).map(move |ib| Block {
                    z,
                    y,
                    x: (ib, (ib + bx).min(nx)),
                })
            })
        })
    }

    /// Hands `row(k, j, i0, i1)` every row segment of block `b`, walked
    /// by `thread`: sub-block by sub-block, x innermost.
    #[inline]
    #[cfg_attr(not(test), allow(unused_variables))] // `thread` is for the recorder
    pub(crate) fn block_rows(
        &self,
        thread: usize,
        b: &Block,
        mut row: impl FnMut(usize, usize, usize, usize),
    ) {
        let sub = self.sub;
        for skb in (b.z.0..b.z.1).step_by(sub[2]) {
            let skz = (skb + sub[2]).min(b.z.1);
            for sjb in (b.y.0..b.y.1).step_by(sub[1]) {
                let sjy = (sjb + sub[1]).min(b.y.1);
                for sib in (b.x.0..b.x.1).step_by(sub[0]) {
                    let six = (sib + sub[0]).min(b.x.1);
                    for k in skb..skz {
                        for j in sjb..sjy {
                            #[cfg(test)]
                            record::push(&self.log, (thread, k, j, sib, six));
                            row(k, j, sib, six);
                        }
                    }
                }
            }
        }
    }

    /// Hands `row` every row segment of `r`, in walk order.
    #[inline]
    pub(crate) fn rows(&self, r: &Region, mut row: impl FnMut(usize, usize, usize, usize)) {
        for b in self.blocks(r) {
            self.block_rows(r.thread, &b, &mut row);
        }
    }
}

/// Hands each of `regions` its window of `out`'s storage, writes checked
/// by `scan`: the storage from the first row of the region to the end of
/// its last row, which is one contiguous run. The regions are in storage
/// order and disjoint (the z-slabs of a sweep, the row chunks of a
/// tile-plane), so the windows are too.
pub(crate) fn windows<'w, 'r>(
    out: &'w mut Grid3,
    regions: &'r [Region],
    scan: &'w FiniteScan,
) -> impl Iterator<Item = Sink<'w>> + use<'w, 'r> {
    let geom = Geom::of(out);
    let row_start =
        move |j: usize, k: usize| (geom.row_base(j as isize, k as isize) - geom.hx) as usize;
    let mut rest = out.as_mut_slice();
    let mut consumed = 0;
    regions.iter().map(move |r| {
        let first = row_start(r.y.0, r.z.0);
        let end = row_start(r.y.1 - 1, r.z.1 - 1) + geom.ax as usize;
        let (before, after) = std::mem::take(&mut rest).split_at_mut(end - consumed);
        let win = &mut before[first - consumed..];
        (rest, consumed) = (after, end);
        Sink {
            win,
            base: first as isize,
            geom,
            scan,
        }
    })
}

/// Hands each of `regions` (the row chunks of one tile-plane) its sinks
/// into `out`, which holds `window`: the region's rows that live in the
/// ring are consecutive storage rows, and so are those in the strip, and
/// no two regions share a row, so the runs are cut from the storage in
/// storage order.
pub(crate) fn windowed<'w>(
    out: &'w mut Grid3,
    window: &'w Window,
    regions: &[Region],
    scan: &'w FiniteScan,
) -> Vec<WindowSink<'w>> {
    let nx = window.nx;
    // Per region and part (ring, strip): the storage span of its rows.
    let mut spans: Vec<(usize, usize, usize, usize)> = Vec::with_capacity(2 * regions.len());
    for (r, region) in regions.iter().enumerate() {
        // A tile's ring rows come before its carry rows.
        let (k, (j0, j1)) = (region.z.0 as isize, region.y);
        let place = |j: usize| window.place(j as isize, k);
        let carried = (j0..j1).rev().take_while(|&j| place(j).1 == 1).last();
        let split = carried.unwrap_or(j1);
        for (part, (a, b)) in [(j0, split), (split, j1)].into_iter().enumerate() {
            if a < b {
                spans.push((place(a).0, place(b - 1).0 + nx, r, part));
            }
        }
    }
    spans.sort_unstable();
    let mut runs: Vec<[(&mut [f64], usize); 2]> = regions
        .iter()
        .map(|_| [(&mut [][..], 0), (&mut [][..], usize::MAX)])
        .collect();
    let mut rest = out.as_mut_slice();
    let mut consumed = 0;
    for (first, end, r, part) in spans {
        let (before, after) = std::mem::take(&mut rest).split_at_mut(end - consumed);
        runs[r][part] = (&mut before[first - consumed..], first);
        (rest, consumed) = (after, end);
    }
    runs.into_iter()
        .map(|runs| WindowSink { runs, window, scan })
        .collect()
}

/// The oracle's recorder: every row segment the walks built on a
/// recording thread hand out, as `(thread, k, j, i0, i1)`, whichever
/// thread walks them.
#[cfg(test)]
pub(crate) mod record {
    use std::cell::RefCell;
    use std::sync::{Arc, Mutex};

    pub(crate) type Segment = (usize, usize, usize, usize, usize);
    pub(crate) type Log = Arc<Mutex<Vec<Segment>>>;

    thread_local! {
        static LOG: RefCell<Option<Log>> = const { RefCell::new(None) };
    }

    /// The log a walk built on this thread records to.
    pub(crate) fn current() -> Option<Log> {
        LOG.with(|l| l.borrow().clone())
    }

    pub(crate) fn push(log: &Option<Log>, s: Segment) {
        if let Some(log) = log {
            log.lock().unwrap().push(s);
        }
    }

    /// The segments of every walk `f` builds on this thread, grouped by
    /// thread, each thread's in the order it walked them.
    pub(crate) fn segments(f: impl FnOnce()) -> Vec<Vec<Segment>> {
        let log = Log::default();
        LOG.with(|l| *l.borrow_mut() = Some(Arc::clone(&log)));
        f();
        LOG.with(|l| *l.borrow_mut() = None);
        let all = std::mem::take(&mut *log.lock().unwrap());
        let threads = all.iter().map(|s| s.0 + 1).max().unwrap_or(0);
        let mut by_thread = vec![Vec::new(); threads];
        for s in all {
            by_thread[s.0].push(s);
        }
        by_thread
    }
}

#[cfg(test)]
mod tests {
    //! The walk's oracle: the row segments the native executors compute
    //! and the ones the simulator replays are the same, thread for thread
    //! and in the same order, on every path that takes its rows from the
    //! walk.

    use super::record::{segments, Segment};
    use crate::sweep::{plan_kernel, SweepRequest, TierPolicy};
    use crate::{ChainLevel, ExecPool, Kernel, PreparedChain, SimContext, TuningParams};
    use yasksite_arch::Machine;
    use yasksite_grid::{Fold, Grid3};
    use yasksite_stencil::builders::{heat3d, inverter_chain_rhs, star3d};
    use yasksite_stencil::{at, c, Expr, Stencil};

    const N: [usize; 3] = [21, 7, 9];

    fn grid(name: &str, fold: Fold) -> Grid3 {
        let mut g = Grid3::new(name, N, [1, 1, 1], fold);
        g.fill_with(|i, j, k| ((i * 3 + j * 5 + k * 7) % 11) as f64 * 0.1);
        g
    }

    /// Tile heights 1, 3 and `n_y`, x-blocks below `n_x`, with and
    /// without sub-blocks, at 1–3 threads.
    fn params(fold: Fold) -> Vec<TuningParams> {
        let mut all = Vec::new();
        for block in [[8, 1, 2], [16, 3, 4], [8, N[1], N[2]]] {
            for sub in [None, Some([5, 2, 3])] {
                for threads in 1..=3 {
                    let mut p = TuningParams::new(block, fold).threads(threads);
                    p.sub_block = sub;
                    all.push(p);
                }
            }
        }
        all
    }

    /// The segments the native pass walked, per thread, after checking
    /// that the simulated pass walked the same: equal multisets, and each
    /// thread's in the same order.
    fn same(native: Vec<Vec<Segment>>, simulated: &[Vec<Segment>]) -> Vec<Vec<Segment>> {
        assert!(!native.is_empty(), "the native pass walked nothing");
        let sorted = |walked: &[Vec<Segment>]| {
            let mut all: Vec<Segment> = walked.iter().flatten().copied().collect();
            all.sort_unstable();
            all
        };
        assert_eq!(sorted(&native), sorted(simulated), "another multiset");
        assert_eq!(native, simulated, "another order");
        native
    }

    fn cover(walked: &[Vec<Segment>]) -> usize {
        walked.iter().flatten().map(|s| s.4 - s.3).sum()
    }

    #[test]
    fn the_simulator_replays_every_spatial_walk() {
        let m = Machine::cascade_lake();
        let cases = [
            (heat3d(1), Fold::new(8, 1, 1), Kernel::LaneRows(8)),
            (
                star3d(1, &[0.5, 0.1]),
                Fold::new(4, 1, 1),
                Kernel::LaneRows(4),
            ),
            (
                inverter_chain_rhs(5.0, 1.0, 2.0),
                Fold::new(8, 1, 1),
                Kernel::TapeProgram(0),
            ),
            (
                inverter_chain_rhs(5.0, 1.0, 2.0),
                Fold::new(4, 2, 1),
                Kernel::PerPoint,
            ),
        ];
        for (s, fold, kind) in cases {
            for p in params(fold) {
                let planned = plan_kernel(&s, &p, TierPolicy::Auto).kernel;
                assert_eq!(
                    std::mem::discriminant(&planned),
                    std::mem::discriminant(&kind)
                );
                let u = grid("u", fold);
                let mut out = Grid3::new("o", N, [1, 1, 1], fold);
                let mut used = 0;
                let request = SweepRequest::new(&p).tier(TierPolicy::Auto);
                let sweep = request.prepare(&s, &[&u], &out).unwrap();
                let native = segments(|| {
                    used = sweep
                        .run(ExecPool::global(), &[&u], &mut out)
                        .unwrap()
                        .threads_used;
                });
                let walked = same(
                    native,
                    &segments(|| {
                        let mut ctx = SimContext::new(&m, p.threads);
                        sweep.simulate(&mut ctx, &[&u], &out).unwrap();
                    }),
                );
                assert_eq!(walked.len(), used, "{} {p}", s.name());
                assert_eq!(cover(&walked), N.iter().product::<usize>());
            }
        }
    }

    #[test]
    fn the_simulator_replays_every_tiled_wavefront_walk() {
        let m = Machine::cascade_lake();
        for (fold, kind) in [
            (Fold::new(8, 1, 1), Kernel::LaneRows(8)),
            (Fold::new(4, 1, 1), Kernel::LaneRows(4)),
            (Fold::unit(), Kernel::ScalarRows),
        ] {
            let s = heat3d(1);
            for depth in 2..=4 {
                for p in params(fold) {
                    let p = p.wavefront(depth);
                    assert_eq!(plan_kernel(&s, &p, TierPolicy::Auto).kernel, kind);
                    let (mut a, mut b) = (grid("a", fold), grid("b", fold));
                    let request = SweepRequest::new(&p).tier(TierPolicy::Auto);
                    let chain = request.prepare_wavefront(&s, &a, &b).unwrap();
                    assert!(chain.tiled());
                    let mut used = 0;
                    let native = segments(|| {
                        let pair = &mut [&mut a, &mut b];
                        used = chain.run(ExecPool::global(), pair).unwrap().threads_used;
                    });
                    let walked = same(
                        native,
                        &segments(|| {
                            let mut ctx = SimContext::new(&m, p.threads);
                            chain.simulate(&mut ctx, &[&a, &b]).unwrap();
                        }),
                    );
                    assert_eq!(walked.len(), used, "{p}");
                    assert_eq!(cover(&walked), depth * N.iter().product::<usize>());
                }
            }
        }
    }

    /// The heat operator applied to `Σ w_g · input_g`.
    fn heat_of(weights: &[(usize, f64)]) -> Expr {
        let offsets = [
            [0, 0, 0],
            [-1, 0, 0],
            [1, 0, 0],
            [0, -1, 0],
            [0, 1, 0],
            [0, 0, -1],
            [0, 0, 1],
        ];
        let mut e = c(0.0);
        for (o, [dx, dy, dz]) in offsets.into_iter().enumerate() {
            let coeff = if o == 0 { -6.0 } else { 1.0 };
            for &(g, w) in weights {
                e = e + c(coeff * w) * at(g, dx, dy, dz);
            }
        }
        e
    }

    /// One rk4 step in variant E over the pool `[y, k0, k1, k2, next]`:
    /// three fused stages and the fused final update.
    fn rk4_e() -> (Vec<Stencil>, Vec<ChainLevel>) {
        let h = 0.01;
        let stage = |name: &str, a: f64| {
            let weights = if a == 0.0 {
                vec![(0, 1.0)]
            } else {
                vec![(0, 1.0), (1, a)]
            };
            Stencil::new(name, 3, weights.len(), heat_of(&weights))
        };
        let last = at(0, 0, 0, 0)
            + c(h / 6.0) * (at(1, 0, 0, 0) + c(2.0) * at(2, 0, 0, 0) + c(2.0) * at(3, 0, 0, 0))
            + c(h / 6.0) * heat_of(&[(0, 1.0), (3, h)]);
        let stencils = vec![
            stage("k0", 0.0),
            stage("k1", h / 2.0),
            stage("k2", h / 2.0),
            Stencil::new("next", 3, 4, last),
        ];
        let level = |sweep: usize, inputs: &[usize], output| ChainLevel {
            sweep,
            inputs: inputs.to_vec(),
            output,
        };
        let levels = vec![
            level(0, &[0], 1),
            level(1, &[0, 1], 2),
            level(2, &[0, 2], 3),
            level(3, &[0, 1, 2, 3], 4),
        ];
        (stencils, levels)
    }

    #[test]
    fn the_simulator_replays_the_walk_of_an_rk4_chain() {
        let m = Machine::cascade_lake();
        let fold = Fold::new(8, 1, 1);
        let (stencils, levels) = rk4_e();
        for wavefront in [1, 2] {
            for p in params(fold) {
                let p = p.wavefront(wavefront);
                let mut pool: Vec<Grid3> = (0..5).map(|g| grid(&format!("g{g}"), fold)).collect();
                let request = SweepRequest::new(&p).tier(TierPolicy::Auto);
                let sweeps = levels.iter().map(|l| {
                    let inputs: Vec<&Grid3> = l.inputs.iter().map(|&g| &pool[g]).collect();
                    request.prepare(&stencils[l.sweep], &inputs, &pool[l.output])
                });
                let sweeps = sweeps.collect::<Result<Vec<_>, _>>().unwrap();
                let chain = PreparedChain::new(sweeps, levels.clone()).unwrap();
                assert_eq!(chain.tiled(), wavefront > 1);
                let native = segments(|| {
                    chain.run(ExecPool::global(), &mut pool).unwrap();
                });
                let walked = same(
                    native,
                    &segments(|| {
                        let mut ctx = SimContext::new(&m, p.threads);
                        chain.simulate(&mut ctx, &pool).unwrap();
                    }),
                );
                assert_eq!(cover(&walked), levels.len() * N.iter().product::<usize>());
            }
        }
    }
}
