//! Initial value problems with stencil right-hand sides.

use yasksite_stencil::{at, builders, c, Stencil};

/// An initial value problem `y' = f(y)` whose right-hand side is one
/// stencil per field, evaluated over a 3-D grid.
pub trait Ivp {
    /// Problem name.
    fn name(&self) -> &str;
    /// Number of coupled fields (1 for scalar PDEs, 2 for the wave
    /// system).
    fn fields(&self) -> usize {
        1
    }
    /// Domain extents.
    fn domain(&self) -> [usize; 3];
    /// Halo widths the fields need (max RHS radius).
    fn halo(&self) -> [usize; 3];
    /// RHS stencil of `field`; its inputs are all fields in order.
    fn rhs(&self, field: usize) -> Stencil;
    /// Initial value of `field` at grid point `(i, j, k)`.
    fn initial(&self, field: usize, i: usize, j: usize, k: usize) -> f64;
    /// Fixed halo (boundary) value of `field`.
    fn boundary(&self, field: usize) -> f64 {
        let _ = field;
        0.0
    }
    /// Exact solution, if known.
    fn exact(&self, field: usize, i: usize, j: usize, k: usize, t: f64) -> Option<f64> {
        let _ = (field, i, j, k, t);
        None
    }
}

/// `sin(π·x(i))` at the `n` interior points `x(i) = (i + 1)·h` of one axis
/// of the unit interval. The sine-product IVPs take their factors from
/// this table — built once in `new`, the same expression per entry the
/// closed form evaluates — so `initial`/`exact` cost a multiply per axis
/// rather than a `sin` call per axis and point.
fn sin_pi_x(n: usize, h: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (std::f64::consts::PI * ((i as f64 + 1.0) * h)).sin())
        .collect()
}

/// 2-D heat equation `u' = Δu` on the unit square with homogeneous
/// Dirichlet boundaries, discretised with `n×n` interior points.
/// Exact solution: `sin(πx)·sin(πy)·e^(−2π²t)`.
#[derive(Debug, Clone)]
pub struct Heat2d {
    n: usize,
    sin: Vec<f64>,
}

impl Heat2d {
    /// `n` interior points per dimension.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Heat2d {
            n,
            sin: sin_pi_x(n, 1.0 / (n as f64 + 1.0)),
        }
    }
}

impl Ivp for Heat2d {
    fn name(&self) -> &str {
        "Heat2D"
    }
    fn domain(&self) -> [usize; 3] {
        [self.n, self.n, 1]
    }
    fn halo(&self) -> [usize; 3] {
        [1, 1, 0]
    }
    fn rhs(&self, _field: usize) -> Stencil {
        builders::heat2d_rhs(self.n)
    }
    fn initial(&self, _field: usize, i: usize, j: usize, _k: usize) -> f64 {
        self.sin[i] * self.sin[j]
    }
    fn exact(&self, _field: usize, i: usize, j: usize, _k: usize, t: f64) -> Option<f64> {
        let pi = std::f64::consts::PI;
        Some(self.sin[i] * self.sin[j] * (-2.0 * pi * pi * t).exp())
    }
}

/// 3-D heat equation on the unit cube, Dirichlet boundaries; exact
/// solution `sin(πx)sin(πy)sin(πz)·e^(−3π²t)`.
#[derive(Debug, Clone)]
pub struct Heat3d {
    n: usize,
    sin: Vec<f64>,
}

impl Heat3d {
    /// `n` interior points per dimension.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Heat3d {
            n,
            sin: sin_pi_x(n, 1.0 / (n as f64 + 1.0)),
        }
    }
}

impl Ivp for Heat3d {
    fn name(&self) -> &str {
        "Heat3D"
    }
    fn domain(&self) -> [usize; 3] {
        [self.n, self.n, self.n]
    }
    fn halo(&self) -> [usize; 3] {
        [1, 1, 1]
    }
    fn rhs(&self, _field: usize) -> Stencil {
        builders::heat3d_rhs(self.n)
    }
    fn initial(&self, _field: usize, i: usize, j: usize, k: usize) -> f64 {
        self.sin[i] * self.sin[j] * self.sin[k]
    }
    fn exact(&self, _field: usize, i: usize, j: usize, k: usize, t: f64) -> Option<f64> {
        let pi = std::f64::consts::PI;
        Some(self.sin[i] * self.sin[j] * self.sin[k] * (-3.0 * pi * pi * t).exp())
    }
}

/// 2-D wave equation `u'' = c²Δu` as the first-order system
/// `(u, v)' = (v, c²Δu)`, Dirichlet boundaries; exact standing wave
/// `u = sin(πx)sin(πy)cos(√2·πc·t)`.
#[derive(Debug, Clone)]
pub struct Wave2d {
    n: usize,
    h: f64,
    speed: f64,
    sin: Vec<f64>,
}

impl Wave2d {
    /// `n` interior points per dimension, wave speed `speed`.
    #[must_use]
    pub fn new(n: usize, speed: f64) -> Self {
        let h = 1.0 / (n as f64 + 1.0);
        Wave2d {
            n,
            h,
            speed,
            sin: sin_pi_x(n, h),
        }
    }

    fn omega(&self) -> f64 {
        std::f64::consts::SQRT_2 * std::f64::consts::PI * self.speed
    }
}

impl Ivp for Wave2d {
    fn name(&self) -> &str {
        "Wave2D"
    }
    fn fields(&self) -> usize {
        2
    }
    fn domain(&self) -> [usize; 3] {
        [self.n, self.n, 1]
    }
    fn halo(&self) -> [usize; 3] {
        [1, 1, 0]
    }
    fn rhs(&self, field: usize) -> Stencil {
        if field == 0 {
            // u' = v.
            Stencil::new("wave-u-rhs", 2, 2, at(1, 0, 0, 0))
        } else {
            // v' = c² Δu / h².
            let ih2 = self.speed * self.speed / (self.h * self.h);
            let lap = at(0, -1, 0, 0) + at(0, 1, 0, 0) + at(0, 0, -1, 0) + at(0, 0, 1, 0)
                - c(4.0) * at(0, 0, 0, 0);
            Stencil::new("wave-v-rhs", 2, 2, c(ih2) * lap)
        }
    }
    fn initial(&self, field: usize, i: usize, j: usize, _k: usize) -> f64 {
        if field == 0 {
            self.sin[i] * self.sin[j]
        } else {
            0.0
        }
    }
    fn exact(&self, field: usize, i: usize, j: usize, _k: usize, t: f64) -> Option<f64> {
        let space = self.sin[i] * self.sin[j];
        Some(if field == 0 {
            space * (self.omega() * t).cos()
        } else {
            -space * self.omega() * (self.omega() * t).sin()
        })
    }
}

/// Inverter chain: a 1-D cascade of CMOS inverters,
/// `u_i' = k1(u_op − u_i) − k2·u_{i−1}²·u_i` (see
/// [`builders::inverter_chain_rhs`] for the substitution note). No closed
/// form; convergence is assessed against fine-step references.
#[derive(Debug, Clone)]
pub struct InverterChain {
    n: usize,
    u_op: f64,
    k1: f64,
    k2: f64,
}

impl InverterChain {
    /// Chain of `n` inverters with operating voltage `u_op`.
    #[must_use]
    pub fn new(n: usize, u_op: f64, k1: f64, k2: f64) -> Self {
        InverterChain { n, u_op, k1, k2 }
    }
}

impl Ivp for InverterChain {
    fn name(&self) -> &str {
        "InverterChain"
    }
    fn domain(&self) -> [usize; 3] {
        [self.n, 1, 1]
    }
    fn halo(&self) -> [usize; 3] {
        [1, 0, 0]
    }
    fn rhs(&self, _field: usize) -> Stencil {
        builders::inverter_chain_rhs(self.u_op, self.k1, self.k2)
    }
    fn initial(&self, _field: usize, i: usize, _j: usize, _k: usize) -> f64 {
        // Alternating high/low levels along the chain.
        if i.is_multiple_of(2) {
            self.u_op
        } else {
            0.05 * self.u_op
        }
    }
    fn boundary(&self, _field: usize) -> f64 {
        // The chain input drives the first inverter.
        self.u_op
    }
}

/// 2-D Brusselator reaction–diffusion system (BRUSS2D, a standard
/// Offsite-suite IVP):
///
/// ```text
/// u' = a + u²v − (b+1)·u + α·Δu
/// v' = b·u − u²v          + α·Δv
/// ```
///
/// With `b < 1 + a²` the homogeneous steady state `(a, b/a)` is stable;
/// the default parameters start from a smooth perturbation of it and
/// decay back, which gives tests a bounded, convergent trajectory.
/// Dirichlet boundaries pinned at the steady state.
#[derive(Debug, Clone)]
pub struct Bruss2d {
    n: usize,
    h: f64,
    a: f64,
    b: f64,
    alpha: f64,
}

impl Bruss2d {
    /// `n` interior points per dimension with the stable default reaction
    /// parameters `a = 1`, `b = 1.7`, diffusion `alpha = 0.02`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_params(n, 1.0, 1.7, 0.02)
    }

    /// Fully parameterised constructor.
    #[must_use]
    pub fn with_params(n: usize, a: f64, b: f64, alpha: f64) -> Self {
        Bruss2d {
            n,
            h: 1.0 / (n as f64 + 1.0),
            a,
            b,
            alpha,
        }
    }

    fn x(&self, i: usize) -> f64 {
        (i as f64 + 1.0) * self.h
    }

    /// The homogeneous steady state `(u*, v*) = (a, b/a)`.
    #[must_use]
    pub fn steady_state(&self) -> (f64, f64) {
        (self.a, self.b / self.a)
    }
}

impl Ivp for Bruss2d {
    fn name(&self) -> &str {
        "Bruss2D"
    }
    fn fields(&self) -> usize {
        2
    }
    fn domain(&self) -> [usize; 3] {
        [self.n, self.n, 1]
    }
    fn halo(&self) -> [usize; 3] {
        [1, 1, 0]
    }
    fn rhs(&self, field: usize) -> Stencil {
        let d = self.alpha / (self.h * self.h);
        let lap = |g: usize| {
            c(d) * (at(g, -1, 0, 0) + at(g, 1, 0, 0) + at(g, 0, -1, 0) + at(g, 0, 1, 0)
                - c(4.0) * at(g, 0, 0, 0))
        };
        let u = at(0, 0, 0, 0);
        let v = at(1, 0, 0, 0);
        let reaction_u =
            c(self.a) + u.clone() * u.clone() * v.clone() - c(self.b + 1.0) * u.clone();
        let reaction_v = c(self.b) * u.clone() - u.clone() * u * v;
        if field == 0 {
            Stencil::new("bruss-u-rhs", 2, 2, reaction_u + lap(0))
        } else {
            Stencil::new("bruss-v-rhs", 2, 2, reaction_v + lap(1))
        }
    }
    fn initial(&self, field: usize, i: usize, j: usize, _k: usize) -> f64 {
        let pi = std::f64::consts::PI;
        let bump = (pi * self.x(i)).sin() * (pi * self.x(j)).sin();
        let (us, vs) = self.steady_state();
        if field == 0 {
            us + 0.1 * bump
        } else {
            vs - 0.05 * bump
        }
    }
    fn boundary(&self, field: usize) -> f64 {
        let (us, vs) = self.steady_state();
        if field == 0 {
            us
        } else {
            vs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bruss2d_rhs_vanishes_at_steady_state() {
        use yasksite_grid::{Fold, Grid3};
        let p = Bruss2d::new(8);
        let (us, vs) = p.steady_state();
        let mut u = Grid3::new("u", p.domain(), p.halo(), Fold::unit());
        let mut v = Grid3::new("v", p.domain(), p.halo(), Fold::unit());
        u.fill_all(us);
        v.fill_all(vs);
        for f in 0..2 {
            let rhs = p.rhs(f);
            let val = rhs.eval(&[&u, &v], 4, 4, 0);
            assert!(val.abs() < 1e-12, "field {f} rhs at steady state: {val}");
        }
    }

    #[test]
    fn bruss2d_is_nonlinear_two_field() {
        let p = Bruss2d::new(8);
        assert_eq!(p.fields(), 2);
        let info = p.rhs(0).info();
        assert_eq!(info.read_grids, 2);
        assert!(info.muls >= 3, "needs the u²v term");
    }

    #[test]
    fn sine_tables_reproduce_the_closed_forms_bit_for_bit() {
        // The closed forms as written before the per-axis table: one
        // `sin` per axis and point, factors multiplied left to right.
        let n = 9;
        let pi = std::f64::consts::PI;
        let s = |i: usize| (pi * ((i as f64 + 1.0) * (1.0 / (n as f64 + 1.0)))).sin();
        let (h2, h3, w) = (Heat2d::new(n), Heat3d::new(n), Wave2d::new(n, 1.5));
        let omega = std::f64::consts::SQRT_2 * pi * 1.5;
        let t = 0.37;
        for j in 0..n {
            for i in 0..n {
                assert_eq!(h2.initial(0, i, j, 0), s(i) * s(j));
                let decay = (-2.0 * pi * pi * t).exp();
                assert_eq!(h2.exact(0, i, j, 0, t), Some(s(i) * s(j) * decay));
                assert_eq!(w.initial(0, i, j, 0), s(i) * s(j));
                assert_eq!(w.initial(1, i, j, 0), 0.0);
                let space = s(i) * s(j);
                assert_eq!(w.exact(0, i, j, 0, t), Some(space * (omega * t).cos()));
                assert_eq!(
                    w.exact(1, i, j, 0, t),
                    Some(-space * omega * (omega * t).sin())
                );
                for k in 0..n {
                    assert_eq!(h3.initial(0, i, j, k), s(i) * s(j) * s(k));
                    let decay = (-3.0 * pi * pi * t).exp();
                    assert_eq!(h3.exact(0, i, j, k, t), Some(s(i) * s(j) * s(k) * decay));
                }
            }
        }
    }

    #[test]
    fn heat2d_exact_matches_initial_at_t0() {
        let p = Heat2d::new(9);
        for i in 0..9 {
            for j in 0..9 {
                assert!((p.initial(0, i, j, 0) - p.exact(0, i, j, 0, 0.0).unwrap()).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn heat2d_rhs_consistent_with_exact_derivative() {
        // At t=0: u' = -2π² u should match the discrete Laplacian within
        // O(h²) truncation error.
        let n = 63;
        let p = Heat2d::new(n);
        let s = p.rhs(0);
        use yasksite_grid::{Fold, Grid3};
        let mut u = Grid3::new("u", p.domain(), p.halo(), Fold::unit());
        u.fill_with(|i, j, k| p.initial(0, i, j, k));
        u.fill_halo(0.0);
        let mid = (n / 2) as isize;
        let got = s.eval(&[&u], mid, mid, 0);
        let pi = std::f64::consts::PI;
        let want = -2.0 * pi * pi * p.initial(0, n / 2, n / 2, 0);
        assert!(
            (got - want).abs() < 0.02 * want.abs(),
            "laplacian {got} vs analytic {want}"
        );
    }

    #[test]
    fn wave2d_fields_and_rhs_shapes() {
        let p = Wave2d::new(16, 1.0);
        assert_eq!(p.fields(), 2);
        assert_eq!(p.rhs(0).num_inputs(), 2);
        assert_eq!(p.rhs(1).num_inputs(), 2);
        assert_eq!(p.rhs(1).info().radius, [1, 1, 0]);
        // v starts at rest.
        assert_eq!(p.initial(1, 3, 3, 0), 0.0);
        assert_eq!(p.exact(1, 3, 3, 0, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn inverter_chain_shapes() {
        let p = InverterChain::new(100, 5.0, 1.0, 2.0);
        assert_eq!(p.domain(), [100, 1, 1]);
        assert_eq!(p.boundary(0), 5.0);
        assert!(p.exact(0, 0, 0, 0, 1.0).is_none());
        assert_eq!(p.initial(0, 0, 0, 0), 5.0);
        assert!((p.initial(0, 1, 0, 0) - 0.25).abs() < 1e-12);
    }
}
