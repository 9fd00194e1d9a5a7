//! Ready-made stencils: the paper's test set and the ODE right-hand sides.

use crate::expr::{at, c, Expr};
use crate::stencil::Stencil;

/// 3-D star ("long-range") stencil of radius `r`: the centre point plus the
/// six axis neighbours at each distance `1..=r`, each distance with its own
/// coefficient. `coeffs[0]` is the centre coefficient, `coeffs[d]` the
/// coefficient of distance `d`.
///
/// # Panics
/// Panics if `coeffs.len() != r + 1` or `r == 0`.
#[must_use]
pub fn star3d(r: usize, coeffs: &[f64]) -> Stencil {
    assert!(r >= 1, "star radius must be >= 1");
    assert_eq!(coeffs.len(), r + 1, "need one coefficient per distance");
    let mut terms = vec![c(coeffs[0]) * at(0, 0, 0, 0)];
    for d in 1..=r as i32 {
        let ring = Expr::sum(vec![
            at(0, -d, 0, 0),
            at(0, d, 0, 0),
            at(0, 0, -d, 0),
            at(0, 0, d, 0),
            at(0, 0, 0, -d),
            at(0, 0, 0, d),
        ]);
        terms.push(c(coeffs[d as usize]) * ring);
    }
    Stencil::new(&format!("star-3d-r{r}"), 3, 1, Expr::sum(terms))
}

/// 2-D star stencil of radius `r` (x/y neighbours only).
///
/// # Panics
/// Panics if `coeffs.len() != r + 1` or `r == 0`.
#[must_use]
pub fn star2d(r: usize, coeffs: &[f64]) -> Stencil {
    assert!(r >= 1, "star radius must be >= 1");
    assert_eq!(coeffs.len(), r + 1, "need one coefficient per distance");
    let mut terms = vec![c(coeffs[0]) * at(0, 0, 0, 0)];
    for d in 1..=r as i32 {
        let ring = Expr::sum(vec![
            at(0, -d, 0, 0),
            at(0, d, 0, 0),
            at(0, 0, -d, 0),
            at(0, 0, d, 0),
        ]);
        terms.push(c(coeffs[d as usize]) * ring);
    }
    Stencil::new(&format!("star-2d-r{r}"), 2, 1, Expr::sum(terms))
}

/// The classic 3-D heat/Jacobi stencil of radius `r`, with the diffusion
/// coefficients used throughout the paper-style experiments
/// (centre `1 - 6*r*alpha`, neighbours `alpha = 1/8`).
#[must_use]
pub fn heat3d(r: usize) -> Stencil {
    let alpha = 0.125 / r as f64;
    let mut coeffs = vec![1.0 - 6.0 * r as f64 * alpha];
    coeffs.extend(std::iter::repeat_n(alpha, r));
    let mut s = star3d(r, &coeffs);
    s = Stencil::new(&format!("heat-3d-r{r}"), 3, 1, s.expr().clone());
    s
}

/// The 2-D heat stencil of radius `r` (5-point for `r = 1`).
#[must_use]
pub fn heat2d(r: usize) -> Stencil {
    let alpha = 0.125 / r as f64;
    let mut coeffs = vec![1.0 - 4.0 * r as f64 * alpha];
    coeffs.extend(std::iter::repeat_n(alpha, r));
    let s = star2d(r, &coeffs);
    Stencil::new(&format!("heat-2d-r{r}"), 2, 1, s.expr().clone())
}

/// Dense 3-D box stencil of radius `r`: uniform average over the full
/// `(2r+1)^3` cube — the high-flop, high-reuse end of the test set.
#[must_use]
pub fn box3d(r: usize) -> Stencil {
    let r = r as i32;
    let count = (2 * r + 1).pow(3);
    let w = 1.0 / f64::from(count);
    let mut pts = Vec::with_capacity(count as usize);
    for dz in -r..=r {
        for dy in -r..=r {
            for dx in -r..=r {
                pts.push(at(0, dx, dy, dz));
            }
        }
    }
    Stencil::new(&format!("box-3d-r{r}"), 3, 1, c(w) * Expr::sum(pts))
}

/// 2-D acoustic wave update (leapfrog): needs two input time levels.
/// `out = 2*u - u_prev + c2 * laplacian(u)`; input 0 is `u^t`, input 1 is
/// `u^{t-1}`.
#[must_use]
pub fn wave2d(c2: f64) -> Stencil {
    let lap = at(0, -1, 0, 0) + at(0, 1, 0, 0) + at(0, 0, -1, 0) + at(0, 0, 1, 0)
        - c(4.0) * at(0, 0, 0, 0);
    let e = c(2.0) * at(0, 0, 0, 0) - at(1, 0, 0, 0) + c(c2) * lap;
    Stencil::new("wave-2d", 2, 2, e)
}

/// Right-hand side of the 2-D heat IVP `du/dt = Laplacian(u) / h^2` on a
/// unit square discretised with `n` interior points per dimension
/// (Dirichlet boundaries). Used by the ODE crate.
#[must_use]
pub fn heat2d_rhs(n: usize) -> Stencil {
    let h = 1.0 / (n as f64 + 1.0);
    let ih2 = 1.0 / (h * h);
    let e = c(ih2)
        * (at(0, -1, 0, 0) + at(0, 1, 0, 0) + at(0, 0, -1, 0) + at(0, 0, 1, 0)
            - c(4.0) * at(0, 0, 0, 0));
    Stencil::new("heat2d-rhs", 2, 1, e)
}

/// Right-hand side of the 3-D heat IVP (7-point Laplacian over `h = 1/(n+1)`).
#[must_use]
pub fn heat3d_rhs(n: usize) -> Stencil {
    let h = 1.0 / (n as f64 + 1.0);
    let ih2 = 1.0 / (h * h);
    let e = c(ih2)
        * (at(0, -1, 0, 0)
            + at(0, 1, 0, 0)
            + at(0, 0, -1, 0)
            + at(0, 0, 1, 0)
            + at(0, 0, 0, -1)
            + at(0, 0, 0, 1)
            - c(6.0) * at(0, 0, 0, 0));
    Stencil::new("heat3d-rhs", 3, 1, e)
}

/// Right-hand side of the "inverter chain" IVP: a 1-D chain of CMOS
/// inverters where stage `i` is driven by stage `i-1`,
/// `du_i/dt = k1*(u_op - u_i) - k2 * u_{i-1}^2 * u_i`.
///
/// The original Offsite suite uses a device-level nonlinearity; this cubic
/// surrogate preserves the structural properties that matter for tuning:
/// a one-sided radius-1 access pattern and a multiplication-heavy,
/// low-stream kernel.
#[must_use]
pub fn inverter_chain_rhs(u_op: f64, k1: f64, k2: f64) -> Stencil {
    let drive = at(0, -1, 0, 0) * at(0, -1, 0, 0) * at(0, 0, 0, 0);
    let e = c(k1) * (c(u_op) - at(0, 0, 0, 0)) - c(k2) * drive;
    Stencil::new("inverter-chain-rhs", 1, 1, e)
}

/// Variable-coefficient 3-D heat stencil: the diffusion coefficient is a
/// *grid* (input 1) rather than a constant — YASK's "grid parameter"
/// feature, common in geophysics kernels where material properties vary
/// per cell:
///
/// `out = u + kappa(x) · (Σ_axis neighbours − 6·u)`
///
/// Doubles the read streams and adds a multiply per update, moving the
/// kernel's balance point — a useful test of the model's multi-stream
/// traffic accounting.
#[must_use]
pub fn heat3d_varcoeff() -> Stencil {
    let u = at(0, 0, 0, 0);
    let lap = at(0, -1, 0, 0)
        + at(0, 1, 0, 0)
        + at(0, 0, -1, 0)
        + at(0, 0, 1, 0)
        + at(0, 0, 0, -1)
        + at(0, 0, 0, 1)
        - c(6.0) * u.clone();
    let kappa = at(1, 0, 0, 0);
    Stencil::new("heat-3d-vc", 3, 2, u + kappa * lap)
}

/// Variable-coefficient 2-D heat stencil (see [`heat3d_varcoeff`]).
#[must_use]
pub fn heat2d_varcoeff() -> Stencil {
    let u = at(0, 0, 0, 0);
    let lap =
        at(0, -1, 0, 0) + at(0, 1, 0, 0) + at(0, 0, -1, 0) + at(0, 0, 1, 0) - c(4.0) * u.clone();
    let kappa = at(1, 0, 0, 0);
    Stencil::new("heat-2d-vc", 2, 2, u + kappa * lap)
}

/// Builds one suite stencil.
type Builder = fn() -> Stencil;

/// The paper suite as name → builder rows, in table order. One table
/// serves [`paper_suite`] (build every row) and [`suite_stencil`] (build
/// one), so a lookup by name never constructs the other eight.
const PAPER_SUITE: [(&str, Builder); 9] = [
    ("heat-3d-r1", || heat3d(1)),
    ("star-3d-r2", || star3d(2, &[0.5, 0.1, 0.05])),
    ("star-3d-r3", || star3d(3, &[0.5, 0.1, 0.05, 0.025])),
    ("star-3d-r4", || star3d(4, &[0.5, 0.1, 0.05, 0.025, 0.0125])),
    ("box-3d-r1", || box3d(1)),
    ("heat-2d-r1", || heat2d(1)),
    ("star-2d-r2", || star2d(2, &[0.6, 0.15, 0.05])),
    ("wave-2d", || wave2d(0.35)),
    ("heat-3d-vc", heat3d_varcoeff),
];

/// The stencil test set used by the E1 table and the single-stencil
/// experiments: short- and long-range stars, a dense box, 2-D kernels and
/// the two-time-level wave kernel.
#[must_use]
pub fn paper_suite() -> Vec<Stencil> {
    PAPER_SUITE.iter().map(|(_, build)| build()).collect()
}

/// The [`paper_suite`] stencil called `name`, if there is one.
#[must_use]
pub fn suite_stencil(name: &str) -> Option<Stencil> {
    let (_, build) = PAPER_SUITE.iter().find(|(n, _)| *n == name)?;
    Some(build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_grid::{Fold, Grid3};

    #[test]
    fn star3d_point_counts() {
        for r in 1..=4 {
            let s = star3d(r, &vec![1.0; r + 1]);
            assert_eq!(s.info().reads_per_point, 1 + 6 * r);
            assert_eq!(s.info().radius, [r, r, r]);
        }
    }

    #[test]
    fn box3d_point_counts() {
        assert_eq!(box3d(1).info().reads_per_point, 27);
        assert_eq!(box3d(2).info().reads_per_point, 125);
    }

    #[test]
    fn heat3d_conserves_constant_field() {
        // Coefficients sum to 1, so a constant field is a fixed point.
        let s = heat3d(1);
        let mut u = Grid3::new("u", [6, 6, 6], [1, 1, 1], Fold::unit());
        u.fill_all(3.0);
        let mut out = Grid3::new("o", [6, 6, 6], [0, 0, 0], Fold::unit());
        s.apply_reference(&[&u], &mut out).unwrap();
        assert!((out.get(3, 3, 3) - 3.0).abs() < 1e-14);
    }

    #[test]
    fn heat2d_is_2d() {
        let s = heat2d(1);
        assert_eq!(s.info().radius, [1, 1, 0]);
        assert_eq!(s.info().reads_per_point, 5);
    }

    #[test]
    fn wave2d_two_inputs() {
        let s = wave2d(0.3);
        assert_eq!(s.num_inputs(), 2);
        // Constant-in-time field stays constant: 2u - u + c2*0 = u.
        let mut u = Grid3::new("u", [5, 5, 1], [1, 1, 0], Fold::unit());
        let mut um = Grid3::new("um", [5, 5, 1], [1, 1, 0], Fold::unit());
        u.fill_all(2.0);
        um.fill_all(2.0);
        let mut out = Grid3::new("o", [5, 5, 1], [0, 0, 0], Fold::unit());
        s.apply_reference(&[&u, &um], &mut out).unwrap();
        assert!((out.get(2, 2, 0) - 2.0).abs() < 1e-14);
    }

    #[test]
    fn inverter_chain_is_one_sided() {
        let s = inverter_chain_rhs(5.0, 1.0, 2.0);
        let i = s.info();
        assert_eq!(i.extent(0, 0), (-1, 0));
        assert_eq!(i.radius, [1, 0, 0]);
        // u=0 everywhere: rhs = k1*u_op = 5.
        let mut u = Grid3::new("u", [4, 1, 1], [1, 0, 0], Fold::unit());
        u.fill_all(0.0);
        let mut out = Grid3::new("o", [4, 1, 1], [0, 0, 0], Fold::unit());
        s.apply_reference(&[&u], &mut out).unwrap();
        assert!((out.get(1, 0, 0) - 5.0).abs() < 1e-14);
    }

    #[test]
    fn rhs_laplacians_scale_with_h() {
        let s = heat2d_rhs(15); // h = 1/16, 1/h^2 = 256
        let mut u = Grid3::new("u", [15, 15, 1], [1, 1, 0], Fold::unit());
        u.fill_halo(0.0);
        u.set(7, 7, 0, 1.0);
        let mut out = Grid3::new("o", [15, 15, 1], [0, 0, 0], Fold::unit());
        s.apply_reference(&[&u], &mut out).unwrap();
        assert!((out.get(7, 7, 0) - (-4.0 * 256.0)).abs() < 1e-9);
        assert!((out.get(6, 7, 0) - 256.0).abs() < 1e-9);
    }

    #[test]
    fn varcoeff_heat_reads_two_grids() {
        let s = heat3d_varcoeff();
        let i = s.info();
        assert_eq!(s.num_inputs(), 2);
        assert_eq!(i.read_grids, 2);
        assert_eq!(i.reads_per_point, 8); // 7 of u + 1 of kappa
                                          // With kappa == alpha constant it must equal the fixed-coeff
                                          // stencil's behaviour on a constant field.
        let mut u = Grid3::new("u", [6, 6, 6], [1, 1, 1], Fold::unit());
        u.fill_all(2.0);
        let mut kap = Grid3::new("k", [6, 6, 6], [1, 1, 1], Fold::unit());
        kap.fill_all(0.125);
        let mut out = Grid3::new("o", [6, 6, 6], [0, 0, 0], Fold::unit());
        s.apply_reference(&[&u, &kap], &mut out).unwrap();
        assert!(
            (out.get(3, 3, 3) - 2.0).abs() < 1e-14,
            "constant field is a fixed point"
        );
    }

    #[test]
    fn varcoeff_is_nonlinear_in_inputs_jointly() {
        // kappa * u products make the expression non-affine, exercising
        // the engine's tape path.
        let s = heat2d_varcoeff();
        assert!(s.info().muls >= 2);
    }

    #[test]
    fn suite_table_names_match_the_stencils_they_build() {
        for ((name, _), built) in PAPER_SUITE.iter().zip(paper_suite()) {
            assert_eq!(*name, built.name());
            assert_eq!(suite_stencil(name), Some(built));
        }
        assert_eq!(suite_stencil("heat-3d-r2"), None);
    }

    #[test]
    fn suite_has_unique_names() {
        let suite = paper_suite();
        let mut names: Vec<_> = suite.iter().map(Stencil::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }
}
