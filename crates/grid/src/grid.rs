//! The folded 3-D grid container.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Fold, ELEM_BYTES};

/// Errors reported by grid operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// Two grids were expected to have identical shape/fold/halo.
    LayoutMismatch {
        /// Description of the differing property.
        what: String,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::LayoutMismatch { what } => write!(f, "grid layout mismatch: {what}"),
        }
    }
}

impl std::error::Error for GridError {}

/// First synthetic address of every address space.
const FIRST_BASE: u64 = 0x1000_0000;

/// Grids are placed at page granularity.
const PAGE_BYTES: u64 = 4096;

/// The process-wide synthetic address space of [`Grid3::new`]: every grid
/// occupies a distinct, page-aligned address range so the cache simulator
/// sees realistic (conflict-capable) placements.
static NEXT_BASE: AtomicU64 = AtomicU64::new(FIRST_BASE);

/// Bytes of address range a grid of `bytes` occupies: whole pages.
fn page_span(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(PAGE_BYTES) * PAGE_BYTES
}

/// A private synthetic address space: grids are laid out one after another
/// from a fixed base, page-aligned, in allocation order. That is the layout
/// [`Grid3::new`] gives a thread that allocates alone, with every address
/// moved by the same whole number of pages, and it does not depend on what
/// any other thread allocates.
///
/// # Examples
///
/// ```
/// use yasksite_grid::{AddressSpace, Fold};
///
/// let (mut a, mut b) = (AddressSpace::new(), AddressSpace::new());
/// let u = a.grid("u", [16, 8, 8], [1, 1, 1], Fold::new(8, 1, 1));
/// let v = a.grid("v", [16, 8, 8], [1, 1, 1], Fold::new(8, 1, 1));
/// // 24 x 10 x 10 doubles are 19 200 bytes, rounded up to five pages.
/// assert_eq!(u.bytes(), 19_200);
/// assert_eq!(v.base_addr() - u.base_addr(), 5 * 4096);
/// // Every address space starts at the same base.
/// assert_eq!(b.grid("w", [4, 4, 4], [0; 3], Fold::unit()).base_addr(), u.base_addr());
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    next: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace::new()
    }
}

impl AddressSpace {
    /// An empty address space.
    #[must_use]
    pub fn new() -> Self {
        AddressSpace { next: FIRST_BASE }
    }

    /// A zero-initialised grid placed right after the previous one (see
    /// [`Grid3::new`] for the arguments).
    ///
    /// # Panics
    /// Panics if any domain extent is zero.
    #[must_use]
    pub fn grid(&mut self, name: &str, n: [usize; 3], halo: [usize; 3], fold: Fold) -> Grid3 {
        let grid = Grid3::at(name, n, halo, fold, self.next);
        self.next += page_span(grid.bytes());
        grid
    }
}

/// A 3-dimensional `f64` grid with halos, stored in YASK's vector-folded
/// layout.
///
/// Domain coordinates run from `0..n[d]`; halo points are addressed with
/// coordinates in `-halo[d]..0` and `n[d]..n[d]+halo[d]`. The allocated
/// extent of each dimension is `n + 2*halo` rounded up to a multiple of the
/// fold extent, so every fold brick is fully backed by storage.
#[derive(Debug, Clone)]
pub struct Grid3 {
    name: String,
    n: [usize; 3],
    halo: [usize; 3],
    fold: Fold,
    alloc: [usize; 3],
    folds: [usize; 3],
    data: Vec<f64>,
    base_addr: u64,
}

impl Grid3 {
    /// Creates a zero-initialised grid in the process-wide synthetic
    /// address space (an [`AddressSpace`] is the private alternative).
    ///
    /// `n` is the domain size (x, y, z), `halo` the halo width per dimension
    /// (applied on both sides).
    ///
    /// # Panics
    /// Panics if any domain extent is zero.
    #[must_use]
    pub fn new(name: &str, n: [usize; 3], halo: [usize; 3], fold: Fold) -> Self {
        let mut grid = Grid3::at(name, n, halo, fold, 0);
        grid.base_addr = NEXT_BASE.fetch_add(page_span(grid.bytes()), Ordering::Relaxed);
        grid
    }

    /// A zero-initialised grid whose synthetic address range starts at
    /// `base_addr`.
    fn at(name: &str, n: [usize; 3], halo: [usize; 3], fold: Fold, base_addr: u64) -> Self {
        assert!(n.iter().all(|&e| e > 0), "domain extents must be positive");
        let f = fold.to_array();
        let mut alloc = [0usize; 3];
        let mut folds = [0usize; 3];
        for d in 0..3 {
            let raw = n[d] + 2 * halo[d];
            alloc[d] = raw.div_ceil(f[d]) * f[d];
            folds[d] = alloc[d] / f[d];
        }
        let len = alloc[0] * alloc[1] * alloc[2];
        Grid3 {
            name: name.to_string(),
            n,
            halo,
            fold,
            alloc,
            folds,
            data: vec![0.0; len],
            base_addr,
        }
    }

    /// Grid name (used in reports and codegen).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Domain size `[nx, ny, nz]`.
    #[must_use]
    pub fn n(&self) -> [usize; 3] {
        self.n
    }

    /// Halo widths `[hx, hy, hz]`.
    #[must_use]
    pub fn halo(&self) -> [usize; 3] {
        self.halo
    }

    /// The fold shape this grid is stored with.
    #[must_use]
    pub fn fold(&self) -> Fold {
        self.fold
    }

    /// Allocated extents (domain + halos, rounded up to fold multiples).
    #[must_use]
    pub fn alloc(&self) -> [usize; 3] {
        self.alloc
    }

    /// Total allocated elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid holds no elements (never true for a valid grid).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Allocated bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.data.len() * ELEM_BYTES
    }

    /// Number of domain points (`nx*ny*nz`).
    #[must_use]
    pub fn domain_points(&self) -> usize {
        self.n[0] * self.n[1] * self.n[2]
    }

    /// Base of this grid's synthetic address range.
    #[must_use]
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Linear storage index for domain coordinates `(i, j, k)`; halo points
    /// use negative / over-extent coordinates.
    ///
    /// # Panics
    /// Panics (in debug builds) if a coordinate lies outside the allocated
    /// range.
    #[inline]
    #[must_use]
    pub fn idx(&self, i: isize, j: isize, k: isize) -> usize {
        let f = self.fold.to_array();
        let c = [i, j, k];
        let mut brick = [0usize; 3];
        let mut within = [0usize; 3];
        for d in 0..3 {
            let u = c[d] + self.halo[d] as isize;
            debug_assert!(
                u >= 0 && (u as usize) < self.alloc[d],
                "coordinate {} out of range in dim {d} for grid {}",
                c[d],
                self.name
            );
            let u = u as usize;
            brick[d] = u / f[d];
            within[d] = u % f[d];
        }
        let fold_lin = (brick[2] * self.folds[1] + brick[1]) * self.folds[0] + brick[0];
        let within_lin = (within[2] * f[1] + within[1]) * f[0] + within[0];
        fold_lin * self.fold.elems() + within_lin
    }

    /// Synthetic byte address of element `(i, j, k)` (for the cache
    /// simulator).
    #[inline]
    #[must_use]
    pub fn addr(&self, i: isize, j: isize, k: isize) -> u64 {
        self.base_addr + (self.idx(i, j, k) * ELEM_BYTES) as u64
    }

    /// Reads element `(i, j, k)`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: isize, j: isize, k: isize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    /// Writes element `(i, j, k)`.
    #[inline]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: f64) {
        let idx = self.idx(i, j, k);
        self.data[idx] = v;
    }

    /// Raw storage access (layout-ordered), for the specialised native
    /// kernels.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage access.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fills every *domain* point from a function of its coordinates.
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize, usize) -> f64) {
        for k in 0..self.n[2] {
            for j in 0..self.n[1] {
                for i in 0..self.n[0] {
                    self.set(i as isize, j as isize, k as isize, f(i, j, k));
                }
            }
        }
    }

    /// Sets every element (domain *and* halo) to `v`.
    pub fn fill_all(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Sets all halo points to `v` (e.g. 0 for Dirichlet boundaries).
    /// Only halo cells are visited; on row-major folds each run of them
    /// is one slice fill.
    pub fn fill_halo(&mut self, v: f64) {
        let row_major = self.fold.y == 1 && self.fold.z == 1;
        let (a, h) = (self.alloc, self.halo.map(|e| e as isize));
        for_each_halo_run(self.n, self.halo, |i0, i1, j, k| {
            if row_major {
                // Storage is plain row-major when only x is folded: no
                // `idx` divisions, one slice fill per run.
                let row = (k + h[2]) as usize * a[1] + (j + h[1]) as usize;
                let start = row * a[0] + (i0 + h[0]) as usize;
                self.data[start..start + (i1 - i0) as usize].fill(v);
            } else {
                for i in i0..i1 {
                    self.set(i, j, k, v);
                }
            }
        });
    }

    /// Copies domain edge values into the halo periodically (wrap-around
    /// boundary), used by the wave IVP. Only halo cells are visited.
    pub fn fill_halo_periodic(&mut self) {
        let n = self.n.map(|e| e as isize);
        let wrap = |c: isize, n: isize| ((c % n) + n) % n;
        for_each_halo_run(self.n, self.halo, |i0, i1, j, k| {
            for i in i0..i1 {
                let v = self.get(wrap(i, n[0]), wrap(j, n[1]), wrap(k, n[2]));
                self.set(i, j, k, v);
            }
        });
    }

    /// Maximum absolute difference over the domain between two grids of the
    /// same domain size (layouts may differ — this is how folded results are
    /// checked against the scalar reference).
    ///
    /// # Errors
    /// Returns [`GridError::LayoutMismatch`] if the domain sizes differ.
    pub fn max_abs_diff(&self, other: &Grid3) -> Result<f64, GridError> {
        if self.n != other.n {
            return Err(GridError::LayoutMismatch {
                what: format!("domain {:?} vs {:?}", self.n, other.n),
            });
        }
        let mut m = 0.0f64;
        for k in 0..self.n[2] as isize {
            for j in 0..self.n[1] as isize {
                for i in 0..self.n[0] as isize {
                    m = m.max((self.get(i, j, k) - other.get(i, j, k)).abs());
                }
            }
        }
        Ok(m)
    }

    /// Exchanges the *contents* of two identically laid-out grids (O(1),
    /// used for time-step ping-ponging).
    ///
    /// # Errors
    /// Returns [`GridError::LayoutMismatch`] if shape, halo or fold differ.
    pub fn swap_data(&mut self, other: &mut Grid3) -> Result<(), GridError> {
        if self.n != other.n || self.halo != other.halo || self.fold != other.fold {
            return Err(GridError::LayoutMismatch {
                what: "swap requires identical shape, halo and fold".into(),
            });
        }
        std::mem::swap(&mut self.data, &mut other.data);
        std::mem::swap(&mut self.base_addr, &mut other.base_addr);
        Ok(())
    }

    /// Whether every domain (non-halo) value is finite — the whole-grid
    /// divergence check: the integrators' fallback for a new-state grid no
    /// sweep of the step wrote (the engine otherwise scans the values as
    /// the final sweep produces them), and the oracle the fused scan is
    /// tested against. The whole storage is scanned
    /// first as one slice (halo and fold padding included, so this never
    /// misses an interior value); only when that finds something does the
    /// exact point-by-point walk decide whether it lies in the interior.
    #[must_use]
    pub fn interior_all_finite(&self) -> bool {
        if all_finite(&self.data) {
            return true;
        }
        for k in 0..self.n[2] as isize {
            for j in 0..self.n[1] as isize {
                for i in 0..self.n[0] as isize {
                    if !self.get(i, j, k).is_finite() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Sum of all domain values (useful as a cheap checksum in tests).
    #[must_use]
    pub fn domain_sum(&self) -> f64 {
        let mut s = 0.0;
        for k in 0..self.n[2] as isize {
            for j in 0..self.n[1] as isize {
                for i in 0..self.n[0] as isize {
                    s += self.get(i, j, k);
                }
            }
        }
        s
    }
}

/// Calls `run(i0, i1, j, k)` for every maximal x-run `i0..i1` of halo
/// cells in row `(j, k)` of a grid with domain `n` and halo widths `halo`:
/// whole rows of the z- and y-halo slabs, the two x-halo stubs of every
/// domain row. Six slabs that together cover each halo cell once and
/// nothing else — no domain cell, no fold padding.
fn for_each_halo_run(
    n: [usize; 3],
    halo: [usize; 3],
    mut run: impl FnMut(isize, isize, isize, isize),
) {
    let n = n.map(|e| e as isize);
    let h = halo.map(|e| e as isize);
    for k in -h[2]..n[2] + h[2] {
        let z_halo = k < 0 || k >= n[2];
        for j in -h[1]..n[1] + h[1] {
            if z_halo || j < 0 || j >= n[1] {
                run(-h[0], n[0] + h[0], j, k);
            } else if h[0] > 0 {
                run(-h[0], 0, j, k);
                run(n[0], n[0] + h[0], j, k);
            }
        }
    }
}

/// Whether every value of `vals` is finite, without a branch per element:
/// `x * 0.0` is `±0` for finite `x` and NaN for NaN or `±inf`, and a NaN
/// survives any sum. Eight independent accumulators keep the adds off one
/// dependency chain so the loop vectorises. The engine's kernels run it
/// over each row segment they have just written.
#[must_use]
pub fn all_finite(vals: &[f64]) -> bool {
    let mut acc = [0.0f64; 8];
    let chunks = vals.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (a, v) in acc.iter_mut().zip(chunk) {
            *a += v * 0.0;
        }
    }
    for (a, v) in acc.iter_mut().zip(tail) {
        *a += v * 0.0;
    }
    !acc.iter().sum::<f64>().is_nan()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_rounds_to_fold() {
        let g = Grid3::new("u", [10, 5, 3], [1, 1, 1], Fold::new(8, 1, 1));
        // x: 10+2=12 -> 16; y: 7 -> 7; z: 5 -> 5.
        assert_eq!(g.alloc(), [16, 7, 5]);
        assert_eq!(g.len(), 16 * 7 * 5);
    }

    #[test]
    fn interior_finiteness_check_sees_nan_and_inf() {
        // Row-major and folded layouts; [5, 4, 2] + halo pads to the fold
        // in every folded case, so there is padding outside the halo too.
        for fold in [
            Fold::unit(),
            Fold::new(8, 1, 1),
            Fold::new(4, 2, 1),
            Fold::new(2, 2, 2),
        ] {
            let mut g = Grid3::new("u", [5, 4, 2], [1, 1, 1], fold);
            g.fill_all(1.0);
            assert!(g.interior_all_finite(), "{fold}");
            // Halo and padding values do not count.
            g.set(-1, 0, 0, f64::NAN);
            g.set(5, 4, 2, f64::INFINITY);
            assert!(g.interior_all_finite(), "halo, {fold}");
            let interior: Vec<usize> = (0..2)
                .flat_map(|k| (0..4).flat_map(move |j| (0..5).map(move |i| (i, j, k))))
                .map(|(i, j, k)| g.idx(i, j, k))
                .collect();
            let halo: Vec<usize> = (-1..3)
                .flat_map(|k| (-1..5).flat_map(move |j| (-1..6).map(move |i| (i, j, k))))
                .map(|(i, j, k)| g.idx(i, j, k))
                .collect();
            if let Some(pad) = (0..g.len()).find(|s| !interior.contains(s) && !halo.contains(s)) {
                g.as_mut_slice()[pad] = f64::NAN;
                assert!(g.interior_all_finite(), "padding, {fold}");
            }
            // Every interior point is seen, NaN and both infinities.
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for &s in &interior {
                    g.as_mut_slice()[s] = bad;
                    assert!(!g.interior_all_finite(), "{bad} at slot {s}, {fold}");
                    g.as_mut_slice()[s] = 1.0;
                }
            }
            assert!(g.interior_all_finite(), "restored, {fold}");
        }
    }

    #[test]
    fn slice_finiteness_scan_handles_tails_and_signed_zero() {
        for len in 0..20 {
            let mut v = vec![-0.0f64; len];
            assert!(all_finite(&v), "len {len}");
            for at in 0..len {
                v[at] = f64::NEG_INFINITY;
                assert!(!all_finite(&v), "len {len} at {at}");
                v[at] = f64::MAX;
                assert!(all_finite(&v), "len {len} at {at}");
            }
        }
    }

    #[test]
    fn get_set_roundtrip_including_halo() {
        let mut g = Grid3::new("u", [4, 4, 4], [2, 1, 1], Fold::new(4, 2, 1));
        g.set(-2, 0, 0, 7.0);
        g.set(5, 4, 4, 8.0);
        assert_eq!(g.get(-2, 0, 0), 7.0);
        assert_eq!(g.get(5, 4, 4), 8.0);
    }

    #[test]
    fn unit_fold_is_row_major() {
        let g = Grid3::new("u", [4, 3, 2], [0, 0, 0], Fold::unit());
        assert_eq!(g.idx(0, 0, 0), 0);
        assert_eq!(g.idx(1, 0, 0), 1);
        assert_eq!(g.idx(0, 1, 0), 4);
        assert_eq!(g.idx(0, 0, 1), 12);
    }

    #[test]
    fn folded_layout_brick_contiguous() {
        let g = Grid3::new("u", [8, 4, 2], [0, 0, 0], Fold::new(4, 2, 1));
        // Elements of the first brick are indices 0..8.
        let mut seen: Vec<usize> = Vec::new();
        for j in 0..2 {
            for i in 0..4 {
                seen.push(g.idx(i, j, 0));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        // Next x-brick follows contiguously.
        assert_eq!(g.idx(4, 0, 0), 8);
    }

    #[test]
    fn distinct_grids_get_distinct_address_ranges() {
        let a = Grid3::new("a", [8, 8, 8], [1, 1, 1], Fold::unit());
        let b = Grid3::new("b", [8, 8, 8], [1, 1, 1], Fold::unit());
        let a_end = a.base_addr() + a.bytes() as u64;
        assert!(b.base_addr() >= a_end || a.base_addr() >= b.base_addr() + b.bytes() as u64);
        assert_eq!(a.base_addr() % 4096, 0);
    }

    #[test]
    fn address_spaces_pack_pages_and_ignore_other_allocations() {
        let shapes = [
            ([10, 5, 3], [1, 1, 1], Fold::new(8, 1, 1)),
            ([33, 7, 2], [2, 2, 2], Fold::unit()),
            ([4, 4, 4], [0, 0, 0], Fold::new(4, 2, 1)),
        ];
        let place = |interleave: bool| {
            let mut space = AddressSpace::new();
            let grids: Vec<Grid3> = shapes
                .iter()
                .map(|&(n, halo, fold)| {
                    if interleave {
                        drop(Grid3::new("x", [3, 3, 3], [0, 0, 0], Fold::unit()));
                    }
                    space.grid("g", n, halo, fold)
                })
                .collect();
            grids
        };
        let grids = place(false);
        assert_eq!(grids[0].base_addr(), FIRST_BASE);
        for w in grids.windows(2) {
            assert_eq!(w[1].base_addr(), w[0].base_addr() + page_span(w[0].bytes()));
        }
        let interleaved = place(true);
        for (a, b) in grids.iter().zip(&interleaved) {
            assert_eq!(a.base_addr(), b.base_addr());
        }
    }

    #[test]
    fn halo_fill_leaves_domain_untouched() {
        let mut g = Grid3::new("u", [4, 4, 1], [1, 1, 0], Fold::unit());
        g.fill_with(|_, _, _| 1.0);
        g.fill_halo(-1.0);
        assert_eq!(g.get(0, 0, 0), 1.0);
        assert_eq!(g.get(-1, 0, 0), -1.0);
        assert_eq!(g.get(4, 4, 0), -1.0);
        assert_eq!(g.domain_sum(), 16.0);
    }

    #[test]
    fn periodic_halo_wraps() {
        let mut g = Grid3::new("u", [4, 1, 1], [1, 0, 0], Fold::unit());
        g.fill_with(|i, _, _| i as f64);
        g.fill_halo_periodic();
        assert_eq!(g.get(-1, 0, 0), 3.0);
        assert_eq!(g.get(4, 0, 0), 0.0);
    }

    #[test]
    fn swap_data_swaps_addresses_too() {
        let mut a = Grid3::new("a", [4, 4, 1], [1, 1, 0], Fold::unit());
        let mut b = Grid3::new("b", [4, 4, 1], [1, 1, 0], Fold::unit());
        a.fill_all(1.0);
        b.fill_all(2.0);
        let (aa, ba) = (a.base_addr(), b.base_addr());
        a.swap_data(&mut b).unwrap();
        assert_eq!(a.get(0, 0, 0), 2.0);
        assert_eq!(b.get(0, 0, 0), 1.0);
        assert_eq!(a.base_addr(), ba);
        assert_eq!(b.base_addr(), aa);
    }

    #[test]
    fn swap_data_rejects_mismatched_layout() {
        let mut a = Grid3::new("a", [4, 4, 1], [1, 1, 0], Fold::unit());
        let mut b = Grid3::new("b", [4, 4, 2], [1, 1, 0], Fold::unit());
        assert!(a.swap_data(&mut b).is_err());
    }

    #[test]
    fn max_abs_diff_across_layouts() {
        let mut a = Grid3::new("a", [8, 8, 2], [0, 0, 0], Fold::unit());
        let mut b = Grid3::new("b", [8, 8, 2], [0, 0, 0], Fold::new(4, 2, 1));
        a.fill_with(|i, j, k| (i + 10 * j + 100 * k) as f64);
        b.fill_with(|i, j, k| (i + 10 * j + 100 * k) as f64);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);
        b.set(3, 3, 1, -5.0);
        assert!(a.max_abs_diff(&b).unwrap() > 0.0);
    }

    /// The former full-box walk (every allocated coordinate, an `inside`
    /// test per point), kept as the oracle for the slab-wise fills.
    fn halo_walk_oracle(g: &mut Grid3, periodic: bool, v: f64) {
        let n = g.n().map(|e| e as isize);
        let h = g.halo().map(|e| e as isize);
        let wrap = |c: isize, n: isize| ((c % n) + n) % n;
        for k in -h[2]..n[2] + h[2] {
            for j in -h[1]..n[1] + h[1] {
                for i in -h[0]..n[0] + h[0] {
                    let inside = i >= 0 && i < n[0] && j >= 0 && j < n[1] && k >= 0 && k < n[2];
                    if !inside {
                        let v = if periodic {
                            g.get(wrap(i, n[0]), wrap(j, n[1]), wrap(k, n[2]))
                        } else {
                            v
                        };
                        g.set(i, j, k, v);
                    }
                }
            }
        }
    }

    proptest! {
        /// The slab-wise halo fills leave storage bitwise equal to the
        /// full-box walk: same halo values, domain and fold padding
        /// (pre-set to a sentinel) untouched — 2-D and 3-D grids, zero
        /// halos in any dimension, row-major and multi-dimensional folds.
        #[test]
        fn halo_fills_match_the_full_box_walk(
            nx in 1usize..11, ny in 1usize..7, nz in 1usize..5,
            hx in 0usize..3, hy in 0usize..3, hz in 0usize..3,
            fold_pick in 0usize..4, flat in any::<bool>(),
        ) {
            let fold = [Fold::unit(), Fold::new(8, 1, 1), Fold::new(4, 2, 1), Fold::new(2, 2, 2)]
                [fold_pick];
            let (nz, hz) = if flat { (1, 0) } else { (nz, hz) };
            let mut base = Grid3::new("p", [nx, ny, nz], [hx, hy, hz], fold);
            base.fill_all(-77.0); // sentinel: padding must keep it
            base.fill_with(|i, j, k| (1 + i + 10 * j + 100 * k) as f64);
            for periodic in [false, true] {
                let (mut got, mut want) = (base.clone(), base.clone());
                if periodic {
                    got.fill_halo_periodic();
                } else {
                    got.fill_halo(0.5);
                }
                halo_walk_oracle(&mut want, periodic, 0.5);
                let same = got
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                prop_assert!(same, "periodic {} on {}", periodic, fold);
            }
        }

        /// The layout map (i,j,k) -> idx is injective and in-bounds for
        /// arbitrary shapes, halos and folds.
        #[test]
        fn layout_is_a_bijection(
            nx in 1usize..12, ny in 1usize..6, nz in 1usize..5,
            hx in 0usize..3, hy in 0usize..2, hz in 0usize..2,
            fold_pick in 0usize..10,
        ) {
            let folds = Fold::candidates(8);
            let fold = folds[fold_pick % folds.len()];
            let g = Grid3::new("p", [nx, ny, nz], [hx, hy, hz], fold);
            let mut seen = std::collections::HashSet::new();
            for k in -(hz as isize)..(nz + hz) as isize {
                for j in -(hy as isize)..(ny + hy) as isize {
                    for i in -(hx as isize)..(nx + hx) as isize {
                        let idx = g.idx(i, j, k);
                        prop_assert!(idx < g.len());
                        prop_assert!(seen.insert(idx), "collision at ({i},{j},{k})");
                    }
                }
            }
        }

        /// Values written at distinct points are read back exactly.
        #[test]
        fn write_read_roundtrip(
            nx in 1usize..10, ny in 1usize..6, nz in 1usize..4,
            fold_pick in 0usize..6,
        ) {
            let folds = Fold::candidates(4);
            let fold = folds[fold_pick % folds.len()];
            let mut g = Grid3::new("p", [nx, ny, nz], [1, 1, 1], fold);
            g.fill_with(|i, j, k| (i * 31 + j * 7 + k) as f64);
            for k in 0..nz {
                for j in 0..ny {
                    for i in 0..nx {
                        prop_assert_eq!(
                            g.get(i as isize, j as isize, k as isize),
                            (i * 31 + j * 7 + k) as f64
                        );
                    }
                }
            }
        }
    }
}
