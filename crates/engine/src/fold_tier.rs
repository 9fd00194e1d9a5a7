//! The folded brick kernel: explicit vectorised execution on
//! multi-dimensional vector folds (4×2×1, 2×2×2, …).
//!
//! A multi-dimensional fold stores each f_x×f_y×f_z brick contiguously,
//! so a row of the domain is scattered across bricks and the row kernels
//! in [`crate::native`] cannot run. Before this tier existed those
//! layouts fell back to the per-point generic path (one `idx()`
//! div/mod chain per access, single-threaded). The brick kernel instead
//! precomputes, once per sweep, a **gather table** per stencil term: the
//! signed element offset from an output brick's storage base to the
//! input element lane `e` of that brick reads. The inner loop is then a
//! wide-lane accumulator update over whole bricks — the vector-folding
//! execution model of YASK, within the crate's `deny(unsafe_code)`
//! discipline.
//!
//! The gather-table math: all grids share `alloc`/`halo`/`fold`
//! (eligibility is checked by the planner), so the brick decomposition
//! of output and inputs coincides. For lane `e` with within-brick
//! coordinates `w` and a term offset `o`, the accessed element lives in
//! the brick shifted by `s_d = (w_d + o_d) div f_d` at within-brick
//! coordinates `w'_d = (w_d + o_d) mod f_d` (Euclidean div/mod). Because
//! brick linearisation is affine and every access stays inside the
//! allocated box (halo ≥ radius), the target's storage index is
//! `base + shift_lin·E + within_lin(w')` where `base` is the output
//! brick's storage base — one signed delta per `(term, lane)`, valid for
//! every brick.
//!
//! Bitwise identity: each output point accumulates
//! `constant, +term₀, +term₁, …` in term order — the identical FP
//! operation sequence as the linear row kernel and the generic path.
//!
//! Threading: brick storage is brick-z-major, so a range of brick-z
//! rows is a contiguous storage window. The domain's brick-z rows are
//! split into `params.threads` slabs with the same [`chunk_ranges`]
//! decomposition every other threaded path uses (bitwise reproducible
//! for any pool width). Spatial blocking parameters are ignored here:
//! bricks are visited in storage order, which is already the optimal
//! streaming traversal for this layout. This is the one native path that
//! does not take its rows from the engine's walk (`crate::walk`), so it
//! is also the one place the simulator's replay (the row walk of the
//! fold's z-slabs) is not the native order.

use yasksite_grid::Grid3;

use crate::native::FiniteScan;
use crate::params::{chunk_ranges, TuningParams};
use crate::pool::{ExecPool, ScopedJob};
use crate::profile::SweepProfiler;

/// Per-dimension range of within-brick lanes that are domain points (the
/// rest of the brick is halo/padding and must stay untouched).
#[inline]
fn lane_range(brick: usize, fold: usize, halo: usize, n: usize) -> (usize, usize) {
    let start = brick * fold;
    let lo = halo.saturating_sub(start).min(fold);
    let hi = (halo + n).saturating_sub(start).min(fold);
    (lo, hi)
}

/// Builds the gather table for one term offset `o`: the signed storage
/// delta from a brick's base to the element lane `e` reads.
fn gather_deltas<const E: usize>(o: [i32; 3], f: [usize; 3], folds: [usize; 3]) -> [isize; E] {
    let mut d = [0isize; E];
    for (e, de) in d.iter_mut().enumerate() {
        let w = [e % f[0], (e / f[0]) % f[1], e / (f[0] * f[1])];
        let mut shift = [0isize; 3];
        let mut within = [0usize; 3];
        for dim in 0..3 {
            let t = w[dim] as isize + o[dim] as isize;
            let fd = f[dim] as isize;
            shift[dim] = t.div_euclid(fd);
            within[dim] = t.rem_euclid(fd) as usize;
        }
        let shift_lin = (shift[2] * folds[1] as isize + shift[1]) * folds[0] as isize + shift[0];
        let within_lin = (within[2] * f[1] + within[1]) * f[0] + within[0];
        *de = shift_lin * E as isize + within_lin as isize;
    }
    d
}

/// Applies a linear stencil over the full domain of `out` through the
/// brick kernel, threading over brick-z slabs on `pool`. Returns the
/// number of slabs that received work (= threads used). An enabled `scan`
/// sees each brick's accumulators as they are stored, domain lanes only,
/// so halo and padding lanes of the output never count.
///
/// Preconditions (checked by the planner): `E == fold.elems()`, every
/// input shares `alloc`/`halo`/`fold` with `out`, halos cover the
/// stencil radius.
#[allow(clippy::too_many_arguments)] // internal executor; one call site
pub(crate) fn brick_fast_path<const E: usize>(
    pool: &ExecPool,
    terms: &[((usize, [i32; 3]), f64)],
    constant: f64,
    inputs: &[&Grid3],
    out: &mut Grid3,
    params: &TuningParams,
    prof: &SweepProfiler,
    scan: &FiniteScan,
) -> usize {
    let n = out.n();
    let halo = out.halo();
    let alloc = out.alloc();
    let f = out.fold().to_array();
    debug_assert_eq!(E, f[0] * f[1] * f[2]);
    let folds = [alloc[0] / f[0], alloc[1] / f[1], alloc[2] / f[2]];

    // Gather tables, coefficients and source slices, once per sweep.
    let deltas: Vec<[isize; E]> = terms
        .iter()
        .map(|&((_, o), _)| gather_deltas::<E>(o, f, folds))
        .collect();
    let coeffs: Vec<f64> = terms.iter().map(|&(_, c)| c).collect();
    let srcs: Vec<&[f64]> = terms
        .iter()
        .map(|&((g, _), _)| inputs[g].as_slice())
        .collect();

    // Brick-z rows that contain domain points, split into contiguous
    // storage slabs. The decomposition depends only on
    // `(domain, params.threads)`, never on the pool width.
    let bz_lo = halo[2] / f[2];
    let bz_hi = (halo[2] + n[2] - 1) / f[2];
    let nbz = bz_hi - bz_lo + 1;
    let plane_elems = folds[0] * folds[1] * E;

    struct BrickSlab<'w> {
        win: &'w mut [f64],
        win_base: usize,
        bz0: usize,
        bz1: usize,
    }
    let mut slabs: Vec<BrickSlab<'_>> = Vec::new();
    let mut rest = out.as_mut_slice();
    let mut consumed = 0usize;
    for (c0, c1) in chunk_ranges(nbz, params.threads) {
        let (bz0, bz1) = (bz_lo + c0, bz_lo + c1);
        let first = bz0 * plane_elems;
        let last = bz1 * plane_elems;
        let (before, after) = rest.split_at_mut(last - consumed);
        rest = after;
        slabs.push(BrickSlab {
            win: &mut before[first - consumed..],
            win_base: first,
            bz0,
            bz1,
        });
        consumed = last;
    }
    let used = slabs.len();

    let deltas = &deltas;
    let coeffs = &coeffs;
    let srcs = &srcs;
    let jobs: Vec<ScopedJob<'_>> = slabs
        .into_iter()
        .map(|slab| {
            Box::new(move || {
                let t0 = prof.start();
                let win = slab.win;
                // `x * 0.0` is NaN exactly for NaN and ±inf, and a NaN
                // survives any sum: one poison accumulator per lane,
                // handed to the scan once per slab.
                let mut poison = [0.0f64; E];
                for bz in slab.bz0..slab.bz1 {
                    let (lz, hz) = lane_range(bz, f[2], halo[2], n[2]);
                    if lz >= hz {
                        continue;
                    }
                    let full_z = lz == 0 && hz == f[2];
                    for by in 0..folds[1] {
                        let (ly, hy) = lane_range(by, f[1], halo[1], n[1]);
                        if ly >= hy {
                            continue;
                        }
                        let full_y = full_z && ly == 0 && hy == f[1];
                        for bx in 0..folds[0] {
                            let (lx, hx) = lane_range(bx, f[0], halo[0], n[0]);
                            if lx >= hx {
                                continue;
                            }
                            let base = (((bz * folds[1] + by) * folds[0] + bx) * E) as isize;
                            let wb = base as usize - slab.win_base;
                            if full_y && lx == 0 && hx == f[0] {
                                // Interior brick: every lane is a domain
                                // point — full-width accumulators.
                                let mut acc = [constant; E];
                                for t in 0..coeffs.len() {
                                    let d = &deltas[t];
                                    let src = srcs[t];
                                    let c = coeffs[t];
                                    for (a, &dl) in acc.iter_mut().zip(d.iter()) {
                                        *a += c * src[(base + dl) as usize];
                                    }
                                }
                                win[wb..wb + E].copy_from_slice(&acc);
                                if scan.on() {
                                    for (p, a) in poison.iter_mut().zip(&acc) {
                                        *p += a * 0.0;
                                    }
                                }
                            } else {
                                // Edge brick: touch only the domain
                                // lanes, same per-point op order.
                                for wz in lz..hz {
                                    for wy in ly..hy {
                                        for wx in lx..hx {
                                            let e = (wz * f[1] + wy) * f[0] + wx;
                                            let mut acc = constant;
                                            for t in 0..coeffs.len() {
                                                acc += coeffs[t]
                                                    * srcs[t][(base + deltas[t][e]) as usize];
                                            }
                                            win[wb + e] = acc;
                                            if scan.on() {
                                                poison[e] += acc * 0.0;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                scan.check(&poison);
                prof.chunk_done(t0);
            }) as ScopedJob<'_>
        })
        .collect();
    pool.run(jobs);
    used
}
