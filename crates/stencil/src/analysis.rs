//! Static stencil analysis — the inputs to the ECM model and the trace
//! generator.

use crate::expr::{Expr, GridId};
use crate::stencil::Stencil;

/// Static properties of a stencil update, per lattice point.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilInfo {
    /// Maximum absolute access offset per dimension.
    pub radius: [usize; 3],
    /// Distinct `(grid, offset)` read accesses per update.
    pub reads_per_point: usize,
    /// Distinct input grids actually read.
    pub read_grids: usize,
    /// Scalar additions/subtractions in one update.
    pub adds: usize,
    /// Scalar multiplications in one update.
    pub muls: usize,
    /// Scalar negations (executed on the add ports).
    pub negs: usize,
    /// Multiply–add pairs a fusing compiler emits as FMAs.
    pub fmas: usize,
    /// Additions left over after FMA fusion.
    pub adds_rem: usize,
    /// Multiplications left over after FMA fusion.
    pub muls_rem: usize,
    /// All distinct read accesses, sorted: `(grid, [dx, dy, dz])`.
    pub offsets: Vec<(GridId, [i32; 3])>,
}

impl StencilInfo {
    /// Total floating-point operations per lattice update (an FMA counts
    /// as two).
    #[must_use]
    pub fn flops(&self) -> usize {
        self.adds + self.muls + self.negs
    }

    /// Largest access offset along the given dimension for grid `g`
    /// (`(min, max)` as signed values).
    #[must_use]
    pub fn extent(&self, g: GridId, dim: usize) -> (i32, i32) {
        let mut lo = 0;
        let mut hi = 0;
        for (gi, o) in &self.offsets {
            if *gi == g {
                lo = lo.min(o[dim]);
                hi = hi.max(o[dim]);
            }
        }
        (lo, hi)
    }

    /// Distinct z-offsets read from grid `g` — the number of grid *layers*
    /// that must stay cache-resident for full reuse (layer condition input).
    #[must_use]
    pub fn layers_read(&self, g: GridId) -> usize {
        let mut zs: Vec<i32> = self
            .offsets
            .iter()
            .filter(|(gi, _)| *gi == g)
            .map(|(_, o)| o[2])
            .collect();
        zs.sort_unstable();
        zs.dedup();
        zs.len()
    }

    /// Distinct y-offsets read from grid `g` (rows per layer that must stay
    /// resident once the layer condition has broken down to row granularity).
    #[must_use]
    pub fn rows_read(&self, g: GridId) -> usize {
        let mut ys: Vec<(i32, i32)> = self
            .offsets
            .iter()
            .filter(|(gi, _)| *gi == g)
            .map(|(_, o)| (o[1], o[2]))
            .collect();
        ys.sort_unstable();
        ys.dedup();
        ys.len()
    }
}

impl Stencil {
    /// Computes the static analysis of this stencil.
    #[must_use]
    pub fn info(&self) -> StencilInfo {
        let mut offsets: Vec<(GridId, [i32; 3])> = Vec::new();
        let mut adds = 0;
        let mut muls = 0;
        let mut negs = 0;
        self.expr().visit(&mut |e| match e {
            Expr::At { grid, dx, dy, dz } => offsets.push((*grid, [*dx, *dy, *dz])),
            Expr::Add(..) | Expr::Sub(..) => adds += 1,
            Expr::Mul(..) => muls += 1,
            Expr::Neg(_) => negs += 1,
            Expr::Const(_) => {}
        });
        offsets.sort_unstable();
        offsets.dedup();

        let mut radius = [0usize; 3];
        for (_, o) in &offsets {
            for d in 0..3 {
                radius[d] = radius[d].max(o[d].unsigned_abs() as usize);
            }
        }
        let mut grids: Vec<GridId> = offsets.iter().map(|(g, _)| *g).collect();
        grids.dedup();

        let fmas = adds.min(muls);
        StencilInfo {
            radius,
            reads_per_point: offsets.len(),
            read_grids: grids.len(),
            adds,
            muls,
            negs,
            fmas,
            adds_rem: adds - fmas,
            muls_rem: muls - fmas,
            offsets,
        }
    }
}

/// Renders the stencil test-set table (experiment E1): one row per stencil
/// with its static properties.
#[must_use]
pub fn stencil_table(stencils: &[Stencil]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>4} {:>6} {:>7} {:>6} {:>6} {:>6} {:>6} {:>7}",
        "stencil", "dim", "radius", "points", "grids", "adds", "muls", "fmas", "flops"
    );
    for s in stencils {
        let i = s.info();
        let _ = writeln!(
            out,
            "{:<16} {:>4} {:>6} {:>7} {:>6} {:>6} {:>6} {:>6} {:>7}",
            s.name(),
            s.dims(),
            i.radius.iter().copied().max().unwrap_or(0),
            i.reads_per_point,
            i.read_grids,
            i.adds,
            i.muls,
            i.fmas,
            i.flops()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::expr::{at, c};

    #[test]
    fn heat3d_r1_counts() {
        let s = builders::heat3d(1);
        let i = s.info();
        assert_eq!(i.radius, [1, 1, 1]);
        assert_eq!(i.reads_per_point, 7);
        assert_eq!(i.read_grids, 1);
        assert_eq!(i.layers_read(0), 3);
        assert_eq!(i.rows_read(0), 5);
        // 5 adds to sum the six neighbours + 1 add joining the two terms,
        // 2 muls (centre coeff, neighbour coeff): 2 FMAs fusable.
        assert_eq!(i.adds, 6);
        assert_eq!(i.muls, 2);
        assert_eq!(i.fmas, 2);
        assert_eq!(i.flops(), 8);
    }

    #[test]
    fn duplicate_accesses_dedup() {
        let s = Stencil::new("dup", 1, 1, at(0, 0, 0, 0) + at(0, 0, 0, 0) * c(2.0));
        let i = s.info();
        assert_eq!(i.reads_per_point, 1);
        assert_eq!(i.radius, [0, 0, 0]);
    }

    #[test]
    fn extent_and_layers() {
        let s = Stencil::new(
            "skew",
            3,
            1,
            at(0, -2, 0, 0) + at(0, 0, 1, -1) + at(0, 0, 0, 3),
        );
        let i = s.info();
        assert_eq!(i.extent(0, 0), (-2, 0));
        assert_eq!(i.extent(0, 2), (-1, 3));
        assert_eq!(i.layers_read(0), 3); // z in {-1, 0, 3}
        assert_eq!(i.radius, [2, 1, 3]);
    }

    #[test]
    fn two_grid_stencil_counts_grids() {
        let s = builders::wave2d(0.3);
        let i = s.info();
        assert_eq!(i.read_grids, 2);
        assert!(i.reads_per_point >= 6);
    }

    #[test]
    fn table_mentions_every_stencil() {
        let suite = crate::paper_suite();
        let t = stencil_table(&suite);
        for s in &suite {
            assert!(t.contains(s.name()), "missing {}", s.name());
        }
    }
}
