//! Step plans: one ODE method step as an ordered list of stencil sweeps.

use yasksite_engine::ChainLevel;
use yasksite_stencil::{at, c, Expr, Stencil};

/// One sweep: apply `stencil` reading the pool grids listed in `inputs`
/// (in stencil-input order) and writing pool grid `output`.
#[derive(Debug, Clone)]
pub struct StepOp {
    /// The stencil to apply.
    pub stencil: Stencil,
    /// Pool indices of the stencil's inputs.
    pub inputs: Vec<usize>,
    /// Pool index of the output grid.
    pub output: usize,
    /// Human-readable label ("stage 2 rhs", "final update"...).
    pub label: String,
}

/// A complete method step over a pool of logical grids.
///
/// Pool layout conventions are fixed by the plan builders; consumers only
/// need `state_grids` (current solution fields, read by the step) and
/// `next_grids` (where the step leaves the new solution; the integrator
/// swaps them afterwards). The builders hand out compacted plans
/// ([`StepPlan::compacted`]): every pool index is one some op, the state
/// rotation or the scratch list touches, so whoever sizes memory from
/// `num_grids` — the integrator, the step predictor's resident set, a
/// simulated or bare-sweep replay — allocates nothing a step never uses.
#[derive(Debug, Clone)]
pub struct StepPlan {
    /// The sweeps, in execution order.
    pub ops: Vec<StepOp>,
    /// Total pool size.
    pub num_grids: usize,
    /// Pool indices of the current-state fields.
    pub state_grids: Vec<usize>,
    /// Pool indices receiving the stepped fields.
    pub next_grids: Vec<usize>,
    /// Pool indices of solution-valued stage scratch grids, one per field
    /// (empty when the variant fuses stage assembly away). These carry
    /// boundary halos like the state grids; all other pool grids hold
    /// derivatives and keep zero halos.
    pub scratch_grids: Vec<usize>,
    /// Domain of every pool grid.
    pub domain: [usize; 3],
    /// Halo of every pool grid.
    pub halo: [usize; 3],
    /// Label, e.g. "rk4/D".
    pub name: String,
}

impl StepPlan {
    /// The ops as the levels of a chain over the pool, op `i` running
    /// sweep (or stencil) `i`.
    #[must_use]
    pub fn chain_levels(&self) -> Vec<ChainLevel> {
        self.ops
            .iter()
            .enumerate()
            .map(|(sweep, op)| ChainLevel {
                sweep,
                inputs: op.inputs.clone(),
                output: op.output,
            })
            .collect()
    }

    /// The last op writing field `field`'s `next` grid: the op whose
    /// output is that field's new state. `None` when no op writes it.
    pub(crate) fn last_writer(&self, field: usize) -> Option<usize> {
        let next = self.next_grids[field];
        self.ops.iter().rposition(|op| op.output == next)
    }

    /// The grids that live only within a step: outside `state_grids`
    /// and `next_grids`, written by exactly one op and read only by ops
    /// after it, so no value of theirs outlives the step. Every stage
    /// derivative `k` of an ERK plan is one; a grid rewritten within the
    /// step (variant A's stage value, variant B's accumulator pair, the
    /// PIRK buffers) is not. A step run as one tiled chain keeps each in a
    /// window ([`crate::prepare_step`]).
    #[must_use]
    pub fn transients(&self) -> Vec<usize> {
        let carried = |g: &usize| self.state_grids.contains(g) || self.next_grids.contains(g);
        (0..self.num_grids)
            .filter(|g| !carried(g))
            .filter(|&g| {
                let mut writers = self.ops.iter().enumerate().filter(|(_, op)| op.output == g);
                match (writers.next(), writers.next()) {
                    (Some((w, _)), None) => self.ops[..=w].iter().all(|op| !op.inputs.contains(&g)),
                    _ => false,
                }
            })
            .collect()
    }

    /// Total lattice updates one step performs.
    #[must_use]
    pub fn updates_per_step(&self) -> u64 {
        self.ops.len() as u64 * (self.domain[0] * self.domain[1] * self.domain[2]) as u64
    }

    /// Which pool indices anything touches: an op's input or output, the
    /// state rotation, the scratch list.
    #[must_use]
    pub fn touched_grids(&self) -> Vec<bool> {
        let mut touched = vec![false; self.num_grids];
        let ops = self
            .ops
            .iter()
            .flat_map(|op| op.inputs.iter().chain(std::iter::once(&op.output)));
        let lists = [&self.state_grids, &self.next_grids, &self.scratch_grids];
        for &g in ops.chain(lists.into_iter().flatten()) {
            touched[g] = true;
        }
        touched
    }

    /// Drops every pool index nothing touches and renumbers the rest in
    /// order (a fused variant leaves the stage-scratch and last-stage
    /// slots of the common layout unused: rk4/E 7 → 5 grids, rk4/D
    /// 7 → 6). Ops, stencils and execution order are untouched, so a
    /// compacted plan integrates bit for bit like the original.
    ///
    /// # Panics
    /// Panics if an index is out of range (see [`StepPlan::validate`]).
    #[must_use]
    pub fn compacted(mut self) -> StepPlan {
        let touched = self.touched_grids();
        // New index of a kept grid: how many kept grids precede it.
        let mut kept = 0;
        let renumbered: Vec<usize> = touched
            .iter()
            .map(|&t| {
                let new = kept;
                kept += usize::from(t);
                new
            })
            .collect();
        let ops = self
            .ops
            .iter_mut()
            .flat_map(|op| op.inputs.iter_mut().chain(std::iter::once(&mut op.output)));
        let lists = [
            &mut self.state_grids,
            &mut self.next_grids,
            &mut self.scratch_grids,
        ];
        for g in ops.chain(lists.into_iter().flatten()) {
            *g = renumbered[*g];
        }
        self.num_grids = kept;
        self
    }

    /// Validates internal consistency: every op's arity matches its
    /// stencil, indices are in range, and no op reads its own output.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        for (n, op) in self.ops.iter().enumerate() {
            if op.inputs.len() != op.stencil.num_inputs() {
                return Err(format!(
                    "op {n} '{}': {} inputs for a {}-input stencil",
                    op.label,
                    op.inputs.len(),
                    op.stencil.num_inputs()
                ));
            }
            if op.inputs.iter().any(|&g| g >= self.num_grids) || op.output >= self.num_grids {
                return Err(format!("op {n} '{}': grid index out of range", op.label));
            }
            if op.inputs.contains(&op.output) {
                return Err(format!("op {n} '{}': output aliases an input", op.label));
            }
        }
        let lists = [&self.state_grids, &self.next_grids, &self.scratch_grids];
        if lists.into_iter().flatten().any(|&g| g >= self.num_grids) {
            return Err("state/next/scratch grid out of range".into());
        }
        Ok(())
    }
}

/// Builds the linear-combination stencil `out = Σ coeffs[i] · in_i`
/// (pointwise, radius 0). Zero coefficients are kept so input order stays
/// aligned with the caller's grid list; filter before calling to drop
/// them.
///
/// # Panics
/// Panics if `coeffs` is empty.
#[must_use]
pub fn lincomb_stencil(name: &str, coeffs: &[f64]) -> Stencil {
    assert!(!coeffs.is_empty(), "lincomb of nothing");
    let terms: Vec<Expr> = coeffs
        .iter()
        .enumerate()
        .map(|(g, &w)| {
            if (w - 1.0).abs() < f64::EPSILON {
                at(g, 0, 0, 0)
            } else {
                c(w) * at(g, 0, 0, 0)
            }
        })
        .collect();
    Stencil::new(name, 3, coeffs.len(), Expr::sum(terms))
}

/// Substitutes every access `g(off)` in `rhs` with
/// `Σ (coeff · new_g(off))` for `(new_g, coeff)` in `subs[g]`, producing a
/// fused stencil with `num_inputs` inputs. This is how variant D/E plans
/// fold a stage's linear combination into its RHS sweep.
///
/// # Panics
/// Panics if a substitution list is empty or indices exceed `num_inputs`.
#[must_use]
pub fn compose_rhs(rhs: &Stencil, subs: &[Vec<(usize, f64)>], num_inputs: usize) -> Stencil {
    fn rewrite(e: &Expr, subs: &[Vec<(usize, f64)>]) -> Expr {
        match e {
            Expr::Const(v) => c(*v),
            Expr::At { grid, dx, dy, dz } => {
                let list = &subs[*grid];
                assert!(!list.is_empty(), "empty substitution for grid {grid}");
                let terms: Vec<Expr> = list
                    .iter()
                    .map(|&(g, w)| {
                        if (w - 1.0).abs() < f64::EPSILON {
                            at(g, *dx, *dy, *dz)
                        } else {
                            c(w) * at(g, *dx, *dy, *dz)
                        }
                    })
                    .collect();
                Expr::sum(terms)
            }
            Expr::Add(a, b) => rewrite(a, subs) + rewrite(b, subs),
            Expr::Sub(a, b) => rewrite(a, subs) - rewrite(b, subs),
            Expr::Mul(a, b) => rewrite(a, subs) * rewrite(b, subs),
            Expr::Neg(a) => -rewrite(a, subs),
        }
    }
    let expr = rewrite(rhs.expr(), subs);
    Stencil::new(
        &format!("{}-fused", rhs.name()),
        rhs.dims(),
        num_inputs,
        expr,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_grid::{Fold, Grid3};
    use yasksite_stencil::builders::heat2d_rhs;

    #[test]
    fn lincomb_evaluates() {
        let s = lincomb_stencil("lc", &[1.0, 0.5, -2.0]);
        assert_eq!(s.num_inputs(), 3);
        let mk = |v: f64| {
            let mut g = Grid3::new("g", [2, 1, 1], [0, 0, 0], Fold::unit());
            g.fill_all(v);
            g
        };
        let (a, b, d) = (mk(1.0), mk(2.0), mk(3.0));
        assert!((s.eval(&[&a, &b, &d], 0, 0, 0) - (1.0 + 1.0 - 6.0)).abs() < 1e-14);
    }

    #[test]
    fn compose_matches_manual_combination() {
        // rhs(u) with u := y + 0.5*k  must equal rhs evaluated on a grid
        // holding y + 0.5*k.
        let rhs = heat2d_rhs(7);
        let fused = compose_rhs(&rhs, &[vec![(0, 1.0), (1, 0.5)]], 2);
        assert_eq!(fused.num_inputs(), 2);

        let mut y = Grid3::new("y", [7, 7, 1], [1, 1, 0], Fold::unit());
        let mut k = Grid3::new("k", [7, 7, 1], [1, 1, 0], Fold::unit());
        y.fill_with(|i, j, _| (i * 3 + j) as f64 * 0.1);
        k.fill_with(|i, j, _| (j * 5 + i) as f64 * 0.01);
        let mut u = Grid3::new("u", [7, 7, 1], [1, 1, 0], Fold::unit());
        u.fill_with(|i, j, _| {
            y.get(i as isize, j as isize, 0) + 0.5 * k.get(i as isize, j as isize, 0)
        });
        for p in [(1, 1), (3, 4), (5, 5)] {
            let direct = rhs.eval(&[&u], p.0, p.1, 0);
            let composed = fused.eval(&[&y, &k], p.0, p.1, 0);
            assert!((direct - composed).abs() < 1e-12);
        }
    }

    #[test]
    fn plan_validation_catches_aliasing() {
        let plan = StepPlan {
            ops: vec![StepOp {
                stencil: lincomb_stencil("id", &[1.0]),
                inputs: vec![0],
                output: 0,
                label: "self".into(),
            }],
            num_grids: 1,
            state_grids: vec![0],
            next_grids: vec![0],
            scratch_grids: vec![],
            domain: [4, 4, 1],
            halo: [0, 0, 0],
            name: "bad".into(),
        };
        assert!(plan.validate().unwrap_err().contains("aliases"));
    }

    #[test]
    fn plan_validation_catches_arity() {
        let plan = StepPlan {
            ops: vec![StepOp {
                stencil: lincomb_stencil("two", &[1.0, 1.0]),
                inputs: vec![0],
                output: 1,
                label: "short".into(),
            }],
            num_grids: 2,
            state_grids: vec![0],
            next_grids: vec![1],
            scratch_grids: vec![],
            domain: [4, 4, 1],
            halo: [0, 0, 0],
            name: "bad".into(),
        };
        assert!(plan.validate().unwrap_err().contains("inputs"));
    }
}
