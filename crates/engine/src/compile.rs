//! Lowering of stencil expressions into fast evaluatable forms.

use yasksite_grid::Grid3;
use yasksite_stencil::{Expr, GridId, Stencil};

/// One access slot: input grid and offset.
pub type Access = (GridId, [i32; 3]);

/// Where an instruction reads an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// A constant register, by index into `Tape::consts`.
    Const(usize),
    /// The source row of an access slot, by index into `Tape::accesses`.
    Slot(usize),
    /// The result of an earlier instruction, by index into `Tape::instrs`.
    Reg(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Add,
    Sub,
    Mul,
    Neg,
}

/// `reg = a <kind> b` (`Neg` reads `a` only and carries `b == a`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Instr {
    kind: OpKind,
    a: Operand,
    b: Operand,
}

/// A non-linear expression lowered to a register program by value
/// numbering: every distinct operation of the tree is one instruction,
/// identical subtrees share a register, constants are keyed by bit
/// pattern, and nothing is reassociated or commuted — so each point sees
/// exactly the IEEE operation sequence of the recursive reference
/// evaluator. [`Tape::run`] evaluates the program a row chunk at a time,
/// one tight loop per instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    /// Distinct constants, as bit patterns (`+0.0` and `-0.0` differ).
    consts: Vec<u64>,
    accesses: Vec<Access>,
    /// In dependency order: operands only name earlier instructions.
    instrs: Vec<Instr>,
    /// The program's value: the last instruction, or a leaf.
    root: Operand,
}

impl Tape {
    fn from_expr(expr: &Expr) -> Tape {
        let mut tape = Tape {
            consts: Vec::new(),
            accesses: Vec::new(),
            instrs: Vec::new(),
            root: Operand::Const(0),
        };
        tape.root = tape.lower(expr);
        // A tree cannot repeat inside itself, so its root operation is
        // never shared: it is the last instruction, the one `run` lets
        // write the output row.
        debug_assert!(match tape.root {
            Operand::Reg(r) => r + 1 == tape.instrs.len(),
            _ => tape.instrs.is_empty(),
        });
        tape
    }

    /// Value-numbers `e`, appending whatever it needs that the program
    /// does not hold yet. The tables are searched linearly: programs are
    /// tens of instructions, and an instruction can only repeat *after*
    /// its newest register operand, so the scan for the common
    /// fresh-operand case is empty.
    fn lower(&mut self, e: &Expr) -> Operand {
        let (kind, a, b) = match e {
            Expr::Const(v) => {
                let bits = v.to_bits();
                let at = self.consts.iter().position(|&c| c == bits);
                return Operand::Const(at.unwrap_or_else(|| {
                    self.consts.push(bits);
                    self.consts.len() - 1
                }));
            }
            Expr::At { grid, dx, dy, dz } => {
                let key = (*grid, [*dx, *dy, *dz]);
                let at = self.accesses.iter().position(|a| *a == key);
                return Operand::Slot(at.unwrap_or_else(|| {
                    self.accesses.push(key);
                    self.accesses.len() - 1
                }));
            }
            Expr::Add(a, b) => (OpKind::Add, self.lower(a), self.lower(b)),
            Expr::Sub(a, b) => (OpKind::Sub, self.lower(a), self.lower(b)),
            Expr::Mul(a, b) => (OpKind::Mul, self.lower(a), self.lower(b)),
            Expr::Neg(a) => {
                let a = self.lower(a);
                (OpKind::Neg, a, a)
            }
        };
        let instr = Instr { kind, a, b };
        let after = |o: Operand| match o {
            Operand::Reg(r) => r + 1,
            _ => 0,
        };
        let first = after(a).max(after(b));
        let at = self.instrs[first..].iter().position(|i| *i == instr);
        Operand::Reg(at.map_or_else(
            || {
                self.instrs.push(instr);
                self.instrs.len() - 1
            },
            |p| first + p,
        ))
    }

    /// The access slots the program reads.
    #[must_use]
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Arithmetic instructions per point after value numbering — what the
    /// performance model prices this tier by.
    #[must_use]
    pub fn instructions(&self) -> usize {
        self.instrs.len()
    }

    /// A register file for chunks of up to `width` points: one
    /// `width`-wide row per constant (filled here, never written again)
    /// followed by one per instruction.
    pub(crate) fn registers(&self, width: usize) -> Vec<f64> {
        let mut regs = vec![0.0; (self.consts.len() + self.instrs.len()) * width];
        for (row, &bits) in regs.chunks_exact_mut(width).zip(&self.consts) {
            row.fill(f64::from_bits(bits));
        }
        regs
    }

    /// Evaluates `out.len()` (≤ `width`) consecutive points: instruction
    /// by instruction, each one tight loop over the chunk, the last one
    /// writing `out`. `row(slot)` yields the chunk's source values of an
    /// access slot; `regs` comes from [`Tape::registers`] with the same
    /// `width`. A short remainder chunk runs the same instruction list.
    pub(crate) fn run<'a>(
        &self,
        regs: &mut [f64],
        width: usize,
        row: impl Fn(usize) -> &'a [f64],
        out: &mut [f64],
    ) {
        let len = out.len();
        let nc = self.consts.len();
        let last = self.instrs.len().wrapping_sub(1);
        for (n, instr) in self.instrs.iter().enumerate() {
            let (done, rest) = regs.split_at_mut((nc + n) * width);
            let read = |o: Operand| match o {
                Operand::Const(c) => &done[c * width..][..len],
                Operand::Slot(s) => &row(s)[..len],
                Operand::Reg(r) => &done[(nc + r) * width..][..len],
            };
            let (a, b) = (read(instr.a), read(instr.b));
            let dst = if n == last {
                &mut *out
            } else {
                &mut rest[..len]
            };
            let lanes = dst.iter_mut().zip(a).zip(b);
            match instr.kind {
                OpKind::Add => lanes.for_each(|((d, x), y)| *d = x + y),
                OpKind::Sub => lanes.for_each(|((d, x), y)| *d = x - y),
                OpKind::Mul => lanes.for_each(|((d, x), y)| *d = x * y),
                OpKind::Neg => lanes.for_each(|((d, x), _)| *d = -x),
            }
        }
        match self.root {
            Operand::Reg(_) => {} // the last instruction wrote `out`
            Operand::Const(c) => out.fill(f64::from_bits(self.consts[c])),
            Operand::Slot(s) => out.copy_from_slice(&row(s)[..len]),
        }
    }
}

/// Linear form `Σ coeff_i · g_i(off_i) + constant`.
#[derive(Debug, Clone, PartialEq)]
struct LinForm {
    terms: Vec<(Access, f64)>,
    constant: f64,
}

impl LinForm {
    fn merge(mut self, other: LinForm, sign: f64) -> LinForm {
        for (a, c) in other.terms {
            match self.terms.iter_mut().find(|(k, _)| *k == a) {
                Some((_, existing)) => *existing += sign * c,
                None => self.terms.push((a, sign * c)),
            }
        }
        self.constant += sign * other.constant;
        self
    }

    fn scale(mut self, s: f64) -> LinForm {
        for (_, c) in &mut self.terms {
            *c *= s;
        }
        self.constant *= s;
        self
    }
}

fn linearize(e: &Expr) -> Option<LinForm> {
    match e {
        Expr::Const(v) => Some(LinForm {
            terms: vec![],
            constant: *v,
        }),
        Expr::At { grid, dx, dy, dz } => Some(LinForm {
            terms: vec![((*grid, [*dx, *dy, *dz]), 1.0)],
            constant: 0.0,
        }),
        Expr::Add(a, b) => Some(linearize(a)?.merge(linearize(b)?, 1.0)),
        Expr::Sub(a, b) => Some(linearize(a)?.merge(linearize(b)?, -1.0)),
        Expr::Mul(a, b) => {
            let la = linearize(a)?;
            let lb = linearize(b)?;
            if la.terms.is_empty() {
                Some(lb.scale(la.constant))
            } else if lb.terms.is_empty() {
                Some(la.scale(lb.constant))
            } else {
                None
            }
        }
        Expr::Neg(a) => Some(linearize(a)?.scale(-1.0)),
    }
}

/// A stencil lowered for fast evaluation: either an affine combination of
/// grid accesses (the common case, auto-vectorisable in the native fast
/// path) or a general register program.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledStencil {
    /// `out = Σ coeff·access + constant`.
    Linear {
        /// Access/coefficient pairs.
        terms: Vec<(Access, f64)>,
        /// Additive constant.
        constant: f64,
    },
    /// General expression as a value-numbered register program.
    Tape(Tape),
}

impl CompiledStencil {
    /// Lowers a stencil, preferring the linear form.
    #[must_use]
    pub fn compile(stencil: &Stencil) -> CompiledStencil {
        match linearize(stencil.expr()) {
            Some(l) => CompiledStencil::Linear {
                terms: l.terms,
                constant: l.constant,
            },
            None => CompiledStencil::Tape(Tape::from_expr(stencil.expr())),
        }
    }

    /// Whether the linear fast path applies.
    #[must_use]
    pub fn is_linear(&self) -> bool {
        matches!(self, CompiledStencil::Linear { .. })
    }

    /// The linear form's `(terms, constant)`, when the stencil lowered
    /// to one — what the native fast paths key their specialisation on.
    #[must_use]
    pub fn linear_terms(&self) -> Option<(&[(Access, f64)], f64)> {
        match self {
            CompiledStencil::Linear { terms, constant } => Some((terms, *constant)),
            CompiledStencil::Tape(_) => None,
        }
    }

    /// Evaluates at a point through the grid API (layout-agnostic slow
    /// path; the native executor specialises both forms further). A tape
    /// runs its register program at width 1.
    #[must_use]
    pub fn eval_at(&self, inputs: &[&Grid3], i: isize, j: isize, k: isize) -> f64 {
        self.eval_at_in(&mut self.point_scratch(), inputs, i, j, k)
    }

    /// Scratch for [`CompiledStencil::eval_at_in`], so per-point loops
    /// allocate once: a tape's fetched access values followed by its
    /// width-1 register file (empty for the linear form).
    pub(crate) fn point_scratch(&self) -> Vec<f64> {
        match self {
            CompiledStencil::Linear { .. } => Vec::new(),
            CompiledStencil::Tape(t) => {
                let mut scratch = vec![0.0; t.accesses().len()];
                scratch.extend(t.registers(1));
                scratch
            }
        }
    }

    /// [`CompiledStencil::eval_at`] over caller-held scratch from
    /// [`CompiledStencil::point_scratch`].
    pub(crate) fn eval_at_in(
        &self,
        scratch: &mut [f64],
        inputs: &[&Grid3],
        i: isize,
        j: isize,
        k: isize,
    ) -> f64 {
        let fetch = |(g, o): &Access| {
            inputs[*g].get(i + o[0] as isize, j + o[1] as isize, k + o[2] as isize)
        };
        match self {
            CompiledStencil::Linear { terms, constant } => {
                let mut acc = *constant;
                for (access, c) in terms {
                    acc += c * fetch(access);
                }
                acc
            }
            CompiledStencil::Tape(t) => {
                let (vals, regs) = scratch.split_at_mut(t.accesses().len());
                for (v, access) in vals.iter_mut().zip(t.accesses()) {
                    *v = fetch(access);
                }
                let vals = &*vals;
                let mut out = [0.0];
                t.run(regs, 1, |s| &vals[s..=s], &mut out);
                out[0]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{heat3d, inverter_chain_rhs};
    use yasksite_stencil::{at, c};

    #[test]
    fn heat3d_lowers_to_linear() {
        let cs = CompiledStencil::compile(&heat3d(1));
        match &cs {
            CompiledStencil::Linear { terms, constant } => {
                assert_eq!(terms.len(), 7);
                assert!((constant - 0.0).abs() < 1e-15);
                let center = terms.iter().find(|((_, o), _)| *o == [0, 0, 0]).unwrap();
                assert!((center.1 - 0.25).abs() < 1e-15); // 1 - 6*0.125
            }
            CompiledStencil::Tape(_) => panic!("expected linear"),
        }
    }

    #[test]
    fn nonlinear_falls_back_to_tape() {
        let cs = CompiledStencil::compile(&inverter_chain_rhs(5.0, 1.0, 2.0));
        assert!(!cs.is_linear());
    }

    #[test]
    fn duplicate_access_coefficients_merge() {
        let s = Stencil::new("m", 1, 1, at(0, 0, 0, 0) + c(2.0) * at(0, 0, 0, 0));
        match CompiledStencil::compile(&s) {
            CompiledStencil::Linear { terms, .. } => {
                assert_eq!(terms.len(), 1);
                assert!((terms[0].1 - 3.0).abs() < 1e-15);
            }
            CompiledStencil::Tape(_) => panic!("expected linear"),
        }
    }

    #[test]
    fn compiled_matches_reference_eval() {
        for s in [heat3d(1), inverter_chain_rhs(5.0, 1.2, 0.7)] {
            let cs = CompiledStencil::compile(&s);
            let mut u = Grid3::new("u", [8, 4, 4], [1, 1, 1], Fold::new(4, 2, 1));
            u.fill_with(|i, j, k| ((i * 13 + j * 5 + k * 3) % 17) as f64 * 0.25 + 0.1);
            u.fill_halo(0.5);
            for k in 0..4isize {
                for j in 0..4isize {
                    for i in 0..8isize {
                        let r = s.eval(&[&u], i, j, k);
                        let f = cs.eval_at(&[&u], i, j, k);
                        assert!(
                            (r - f).abs() < 1e-12,
                            "{} at ({i},{j},{k}): {r} vs {f}",
                            s.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tape_eval_const_expression() {
        let s = Stencil::new(
            "k",
            1,
            1,
            (c(2.0) + c(3.0)) * at(0, 0, 0, 0) * at(0, 0, 0, 0),
        );
        let cs = CompiledStencil::compile(&s);
        assert!(!cs.is_linear());
        let mut u = Grid3::new("u", [2, 1, 1], [0, 0, 0], Fold::unit());
        u.fill_all(2.0);
        assert!((cs.eval_at(&[&u], 0, 0, 0) - 20.0).abs() < 1e-14);
    }

    #[test]
    fn value_numbering_shares_identical_subtrees() {
        // The inverter chain: 13 tree nodes, 6 distinct operations.
        let rhs = inverter_chain_rhs(5.0, 1.0, 2.0);
        let t = Tape::from_expr(rhs.expr());
        assert_eq!(t.instructions(), 6);
        assert_eq!(t.accesses().len(), 2);
        assert_eq!(t.consts.len(), 3);
        // A shared subtree costs its operations once, however often and
        // however deep it recurs.
        let y = || at(0, 0, 0, 0) + c(0.5) * at(1, 0, 0, 0);
        let e = (y() * y()) * (y() - at(0, -1, 0, 0)) + (-(y() * y()));
        let t = Tape::from_expr(&e);
        // mul, add (y); y*y; y - u(-1); product; neg; sum.
        assert_eq!(t.instructions(), 7, "{t:?}");
    }

    #[test]
    fn value_numbering_never_merges_distinct_operations() {
        let (a, b) = (|| at(0, 0, 0, 0), || at(0, 1, 0, 0));
        // Operand order, operation kind, constant bit pattern, grid and
        // offset all separate values: every pair below is two
        // instructions (or two leaves), never one.
        let pairs: Vec<(Expr, Expr)> = vec![
            (a() - b(), b() - a()),
            (a() + b(), b() + a()),
            (a() * b(), b() * a()),
            (a() + b(), a() - b()),
            (a() * b(), a() + b()),
            (-a(), a() * c(-1.0)),
            (-(a() * b()), -(b() * a())),
            (a() * c(0.0), a() * c(-0.0)),
            (a() * c(1.0), a() * c(1.0 + f64::EPSILON)),
            (a() * a(), a() * at(1, 0, 0, 0)),
            (a() * a(), a() * at(0, 0, 1, 0)),
            ((a() + b()) + a(), a() + (b() + a())),
        ];
        for (x, y) in pairs {
            let ops = |e: &Expr| Tape::from_expr(e).instructions();
            let (nx, ny) = (ops(&x), ops(&y));
            // `x * y` is non-linear, keeps both operands and adds one mul.
            let both = Tape::from_expr(&(x.clone() * y.clone()));
            assert_eq!(both.instructions(), nx + ny + 1, "{x} vs {y}: {both:?}");
        }
        // …while a repeated operation is one instruction.
        let both = Tape::from_expr(&((a() - b()) * (a() - b())));
        assert_eq!(both.instructions(), 2);
    }

    #[test]
    fn signed_zero_constants_keep_their_sign() {
        // (u·0)·u² + u·(−0): for u < 0 the terms are −0 and +0 and sum to
        // +0; were the two zeros one constant, both would be −0 and so
        // would the sum.
        let u0 = || at(0, 0, 0, 0);
        let e = (u0() * c(0.0)) * (u0() * u0()) + u0() * c(-0.0);
        let s = Stencil::new("z", 1, 1, e);
        let cs = CompiledStencil::compile(&s);
        assert!(!cs.is_linear());
        let mut u = Grid3::new("u", [1, 1, 1], [0, 0, 0], Fold::unit());
        for v in [3.0, -3.0] {
            u.fill_all(v);
            let want = s.eval(&[&u], 0, 0, 0);
            assert_eq!(want.to_bits(), 0.0f64.to_bits());
            assert_eq!(
                cs.eval_at(&[&u], 0, 0, 0).to_bits(),
                want.to_bits(),
                "u = {v}"
            );
        }
    }
}
