//! Property tests of the expression compiler: the register program (run
//! at width 1) and the linear fast form must agree with the recursive
//! reference evaluator for arbitrary (including nonlinear) expressions.

use proptest::prelude::*;
use xtests::seeded_grid;
use yasksite_engine::CompiledStencil;
use yasksite_grid::Fold;
use yasksite_stencil::{at, c, Expr, Stencil};

/// Strategy: arbitrary expression trees over one grid, radius ≤ 2,
/// including products of accesses (nonlinear).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-3.0f64..3.0).prop_map(c),
        ((-2i32..=2), (-2i32..=2), (-2i32..=2)).prop_map(|(x, y, z)| at(0, x, y, z)),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            inner.prop_map(|a| -a),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `CompiledStencil::eval_at` (linear form or tape) equals the
    /// recursive interpreter everywhere, on every fold layout.
    #[test]
    fn compiled_matches_interpreter(expr in arb_expr(), fold_pick in 0usize..4) {
        let folds = [Fold::new(8, 1, 1), Fold::new(4, 2, 1), Fold::new(2, 2, 2), Fold::unit()];
        let fold = folds[fold_pick];
        let stencil = Stencil::new("prop", 3, 1, expr);
        let compiled = CompiledStencil::compile(&stencil);
        let u = seeded_grid("u", [6, 5, 4], [2, 2, 2], fold, 42);
        for k in 0..4isize {
            for j in 0..5isize {
                for i in 0..6isize {
                    let want = stencil.eval(&[&u], i, j, k);
                    let got = compiled.eval_at(&[&u], i, j, k);
                    // Nonlinear products can legitimately differ in the
                    // last bits through reassociation in the linear
                    // collector; demand tight agreement anyway.
                    prop_assert!(
                        (want - got).abs() <= 1e-9 * (1.0 + want.abs()),
                        "({i},{j},{k}): {want} vs {got}"
                    );
                }
            }
        }
    }

    /// Linear detection is sound: whenever the compiler chooses the
    /// linear form, the expression really is affine in the grid values
    /// (checked by superposition: f(u+v) + f(0) == f(u) + f(v)).
    #[test]
    fn linear_form_is_actually_affine(expr in arb_expr()) {
        let stencil = Stencil::new("prop", 3, 1, expr);
        let compiled = CompiledStencil::compile(&stencil);
        if !compiled.is_linear() {
            return Ok(());
        }
        let n = [4, 3, 3];
        let halo = [2, 2, 2];
        let u = seeded_grid("u", n, halo, Fold::unit(), 1);
        let v = seeded_grid("v", n, halo, Fold::unit(), 2);
        let mut uv = u.clone();
        for k in -2..5isize {
            for j in -2..5isize {
                for i in -2..6isize {
                    uv.set(i, j, k, u.get(i, j, k) + v.get(i, j, k));
                }
            }
        }
        let mut zero = u.clone();
        zero.fill_all(0.0);
        let p = (1isize, 1isize, 1isize);
        let f = |g: &yasksite_grid::Grid3| compiled.eval_at(&[g], p.0, p.1, p.2);
        let lhs = f(&uv) + f(&zero);
        let rhs = f(&u) + f(&v);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()));
    }
}
