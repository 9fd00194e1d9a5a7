//! Plan builders: one step of an ERK or PIRK method in each Offsite-style
//! implementation variant.

use crate::ivps::Ivp;
use crate::plan::{compose_rhs, lincomb_stencil, StepOp, StepPlan};
use crate::tableau::Tableau;
use yasksite_stencil::{at, c, Expr};

/// Implementation variant of a method step (Offsite's naming scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Unfused: separate stage-assembly and RHS sweeps.
    A,
    /// Low-storage: like A, but the final combination accumulates
    /// incrementally after each stage (more, narrower sweeps — the
    /// smallest per-sweep working set).
    B,
    /// Stage-fused: each stage's linear combination folded into its RHS
    /// sweep.
    D,
    /// Fully fused: variant D plus the final update folded into the last
    /// stage's sweep.
    E,
}

impl Variant {
    /// All variants.
    #[must_use]
    pub fn all() -> [Variant; 4] {
        [Variant::A, Variant::B, Variant::D, Variant::E]
    }

    /// Short tag.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Variant::A => "A",
            Variant::B => "B",
            Variant::D => "D",
            Variant::E => "E",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Builds one step of the explicit method `tab` on `ivp` with step size
/// `h` in the given variant.
///
/// Pool layout: `[y fields | k(stage,field)... | Y fields | next fields]`
/// (variant B: `| acc fields` after them), compacted to the slots the
/// variant uses — D and E assemble no stage values (no `Y`), E also
/// never stores its last stage's `k`. For RK4 on one field that is 7
/// grids for A, 8 for B, 6 for D and 5 for E.
///
/// # Panics
/// Panics if the tableau is not explicit.
#[must_use]
pub fn erk_plan(tab: &Tableau, ivp: &dyn Ivp, h: f64, variant: Variant) -> StepPlan {
    erk_layout(tab, ivp, h, variant).compacted()
}

/// [`erk_plan`] on the full common layout, before compaction.
#[allow(clippy::needless_range_loop)]
fn erk_layout(tab: &Tableau, ivp: &dyn Ivp, h: f64, variant: Variant) -> StepPlan {
    assert!(tab.is_explicit(), "erk_plan needs an explicit tableau");
    let f = ivp.fields();
    let s = tab.stages();
    let y0 = 0;
    let k0 = f; // k[i][fld] = k0 + i*f + fld
    let yscratch = k0 + s * f;
    let next0 = yscratch + f;
    // Variant B double-buffers its running accumulator.
    let acc_extra = next0 + f;
    let num_grids = if variant == Variant::B {
        acc_extra + f
    } else {
        next0 + f
    };
    let mut ops = Vec::new();

    for i in 0..s {
        let js: Vec<usize> = (0..s).filter(|&j| tab.a(i, j) != 0.0).collect();
        match variant {
            Variant::A | Variant::B => {
                let stage_inputs: Vec<usize> = if js.is_empty() {
                    (0..f).map(|fl| y0 + fl).collect()
                } else {
                    for fl in 0..f {
                        let mut coeffs = vec![1.0];
                        let mut inputs = vec![y0 + fl];
                        for &j in &js {
                            coeffs.push(h * tab.a(i, j));
                            inputs.push(k0 + j * f + fl);
                        }
                        ops.push(StepOp {
                            stencil: lincomb_stencil(&format!("Y{i}f{fl}"), &coeffs),
                            inputs,
                            output: yscratch + fl,
                            label: format!("stage {i} assemble f{fl}"),
                        });
                    }
                    (0..f).map(|fl| yscratch + fl).collect()
                };
                for fl in 0..f {
                    ops.push(StepOp {
                        stencil: ivp.rhs(fl),
                        inputs: stage_inputs.clone(),
                        output: k0 + i * f + fl,
                        label: format!("stage {i} rhs f{fl}"),
                    });
                }
            }
            Variant::D | Variant::E => {
                let last_fused_stage = if variant == Variant::E { s - 1 } else { s };
                if i >= last_fused_stage {
                    continue; // folded into the final op below
                }
                for fl in 0..f {
                    let (stencil, inputs) = fused_stage(ivp, tab, h, i, &js, fl, f, y0, k0);
                    ops.push(StepOp {
                        stencil,
                        inputs,
                        output: k0 + i * f + fl,
                        label: format!("stage {i} fused rhs f{fl}"),
                    });
                }
            }
        }
    }

    // Final update.
    match variant {
        Variant::B => {
            // Incremental accumulation: acc := y, then one narrow axpy
            // per b-weighted stage, double-buffered so no op aliases its
            // output, ending in the `next` grids.
            let active: Vec<usize> = (0..s).filter(|&i| tab.b(i) != 0.0).collect();
            for fl in 0..f {
                // Choose the start buffer so the last write lands in next.
                let buffers = if active.len().is_multiple_of(2) {
                    [next0 + fl, acc_extra + fl]
                } else {
                    [acc_extra + fl, next0 + fl]
                };
                ops.push(StepOp {
                    stencil: lincomb_stencil("acc-init", &[1.0]),
                    inputs: vec![y0 + fl],
                    output: buffers[0],
                    label: format!("acc init f{fl}"),
                });
                for (t, &i) in active.iter().enumerate() {
                    let src = buffers[t % 2];
                    let dst = buffers[(t + 1) % 2];
                    ops.push(StepOp {
                        stencil: lincomb_stencil("acc", &[1.0, h * tab.b(i)]),
                        inputs: vec![src, k0 + i * f + fl],
                        output: dst,
                        label: format!("acc stage {i} f{fl}"),
                    });
                }
            }
        }
        Variant::A | Variant::D => {
            for fl in 0..f {
                let mut coeffs = vec![1.0];
                let mut inputs = vec![y0 + fl];
                for i in 0..s {
                    if tab.b(i) != 0.0 {
                        coeffs.push(h * tab.b(i));
                        inputs.push(k0 + i * f + fl);
                    }
                }
                ops.push(StepOp {
                    stencil: lincomb_stencil("final", &coeffs),
                    inputs,
                    output: next0 + fl,
                    label: format!("final update f{fl}"),
                });
            }
        }
        Variant::E => {
            let i = s - 1;
            let js: Vec<usize> = (0..s).filter(|&j| tab.a(i, j) != 0.0).collect();
            for fl in 0..f {
                let (stencil, inputs) = fused_final(ivp, tab, h, i, &js, fl, f, y0, k0);
                ops.push(StepOp {
                    stencil,
                    inputs,
                    output: next0 + fl,
                    label: format!("final fused update f{fl}"),
                });
            }
        }
    }

    let plan = StepPlan {
        ops,
        num_grids,
        state_grids: (0..f).map(|fl| y0 + fl).collect(),
        next_grids: (0..f).map(|fl| next0 + fl).collect(),
        scratch_grids: match variant {
            Variant::A => (0..f).map(|fl| yscratch + fl).collect(),
            Variant::B => (0..f)
                .map(|fl| yscratch + fl)
                .chain((0..f).map(|fl| acc_extra + fl))
                .collect(),
            Variant::D | Variant::E => Vec::new(),
        },
        domain: ivp.domain(),
        halo: ivp.halo(),
        name: format!("{}/{}", tab.name(), variant),
    };
    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

/// Builds the fused stage stencil `k_i = rhs(y + h Σ a_ij k_j)` for one
/// field, returning `(stencil, pool inputs)`.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn fused_stage(
    ivp: &dyn Ivp,
    tab: &Tableau,
    h: f64,
    i: usize,
    js: &[usize],
    fl: usize,
    f: usize,
    y0: usize,
    k0: usize,
) -> (yasksite_stencil::Stencil, Vec<usize>) {
    // Positional inputs: y fields, then k_j fields for each active j.
    let mut inputs: Vec<usize> = (0..f).map(|g| y0 + g).collect();
    let mut subs: Vec<Vec<(usize, f64)>> = (0..f).map(|g| vec![(g, 1.0)]).collect();
    for (jj, &j) in js.iter().enumerate() {
        for g in 0..f {
            inputs.push(k0 + j * f + g);
            subs[g].push((f + jj * f + g, h * tab.a(i, j)));
        }
    }
    let fused = compose_rhs(&ivp.rhs(fl), &subs, inputs.len());
    (fused, inputs)
}

/// Builds variant E's final stencil
/// `y' = y + h Σ_{i<s-1} b_i k_i + h b_{s-1} rhs(y + h Σ a_{s-1,j} k_j)`
/// for one field.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn fused_final(
    ivp: &dyn Ivp,
    tab: &Tableau,
    h: f64,
    i: usize,
    js: &[usize],
    fl: usize,
    f: usize,
    y0: usize,
    k0: usize,
) -> (yasksite_stencil::Stencil, Vec<usize>) {
    let s = tab.stages();
    // Positional inputs: y fields, then the union of k stages needed:
    // all b-weighted stages < s-1 and the a-active stages of stage s-1.
    let mut stages: Vec<usize> = (0..s - 1).filter(|&q| tab.b(q) != 0.0).collect();
    for &j in js {
        if !stages.contains(&j) {
            stages.push(j);
        }
    }
    stages.sort_unstable();
    let mut inputs: Vec<usize> = (0..f).map(|g| y0 + g).collect();
    for &q in &stages {
        for g in 0..f {
            inputs.push(k0 + q * f + g);
        }
    }
    let pos_of_stage = |q: usize, g: usize| -> usize {
        f + stages.iter().position(|&x| x == q).expect("stage listed") * f + g
    };

    // Substituted last-stage RHS.
    let mut subs: Vec<Vec<(usize, f64)>> = (0..f).map(|g| vec![(g, 1.0)]).collect();
    for &j in js {
        for g in 0..f {
            subs[g].push((pos_of_stage(j, g), h * tab.a(i, j)));
        }
    }
    let rhs_sub = compose_rhs(&ivp.rhs(fl), &subs, inputs.len());

    let mut terms: Vec<Expr> = vec![at(fl, 0, 0, 0)];
    for q in 0..s - 1 {
        if tab.b(q) != 0.0 {
            terms.push(c(h * tab.b(q)) * at(pos_of_stage(q, fl), 0, 0, 0));
        }
    }
    if tab.b(i) != 0.0 {
        terms.push(c(h * tab.b(i)) * rhs_sub.expr().clone());
    }
    let stencil = yasksite_stencil::Stencil::new(
        &format!("{}-final-fused", ivp.rhs(fl).name()),
        ivp.rhs(fl).dims(),
        inputs.len(),
        Expr::sum(terms),
    );
    (stencil, inputs)
}

/// Builds one step of a PIRK method: `iters` fixed-point corrections of
/// the implicit `corrector` tableau, with predictor `F⁰_i = f(y_n)`.
///
/// Pool layout:
/// `[y | F_a(stage,field) | F_b(stage,field) | Y fields | next fields]`,
/// compacted to the slots the variant uses (D assembles no stage values,
/// so it carries no `Y`). Only variants A and D are defined for PIRK.
///
/// # Panics
/// Panics if `iters == 0` or variant E is requested.
#[must_use]
pub fn pirk_plan(
    corrector: &Tableau,
    iters: usize,
    ivp: &dyn Ivp,
    h: f64,
    variant: Variant,
) -> StepPlan {
    pirk_layout(corrector, iters, ivp, h, variant).compacted()
}

/// [`pirk_plan`] on the full common layout, before compaction.
#[allow(clippy::needless_range_loop)]
fn pirk_layout(
    corrector: &Tableau,
    iters: usize,
    ivp: &dyn Ivp,
    h: f64,
    variant: Variant,
) -> StepPlan {
    assert!(iters >= 1, "PIRK needs at least one correction");
    assert!(
        matches!(variant, Variant::A | Variant::D),
        "only variants A and D are defined for PIRK steps"
    );
    let f = ivp.fields();
    let s = corrector.stages();
    let y0 = 0;
    let fa0 = f;
    let fb0 = fa0 + s * f;
    let yscratch = fb0 + s * f;
    let next0 = yscratch + f;
    let num_grids = next0 + f;
    let mut ops = Vec::new();

    // Predictor: evaluate f(y) once per field, then replicate.
    for fl in 0..f {
        ops.push(StepOp {
            stencil: ivp.rhs(fl),
            inputs: (0..f).map(|g| y0 + g).collect(),
            output: fa0 + fl,
            label: format!("predictor rhs f{fl}"),
        });
    }
    for i in 1..s {
        for fl in 0..f {
            ops.push(StepOp {
                stencil: lincomb_stencil("copy", &[1.0]),
                inputs: vec![fa0 + fl],
                output: fa0 + i * f + fl,
                label: format!("predictor copy stage {i} f{fl}"),
            });
        }
    }

    for it in 0..iters {
        let (src, dst) = if it % 2 == 0 { (fa0, fb0) } else { (fb0, fa0) };
        for i in 0..s {
            let js: Vec<usize> = (0..s).filter(|&j| corrector.a(i, j) != 0.0).collect();
            match variant {
                Variant::A => {
                    for fl in 0..f {
                        let mut coeffs = vec![1.0];
                        let mut inputs = vec![y0 + fl];
                        for &j in &js {
                            coeffs.push(h * corrector.a(i, j));
                            inputs.push(src + j * f + fl);
                        }
                        ops.push(StepOp {
                            stencil: lincomb_stencil(&format!("Y{i}"), &coeffs),
                            inputs,
                            output: yscratch + fl,
                            label: format!("iter {it} stage {i} assemble f{fl}"),
                        });
                    }
                    for fl in 0..f {
                        ops.push(StepOp {
                            stencil: ivp.rhs(fl),
                            inputs: (0..f).map(|g| yscratch + g).collect(),
                            output: dst + i * f + fl,
                            label: format!("iter {it} stage {i} rhs f{fl}"),
                        });
                    }
                }
                Variant::B | Variant::D | Variant::E => {
                    for fl in 0..f {
                        let mut inputs: Vec<usize> = (0..f).map(|g| y0 + g).collect();
                        let mut subs: Vec<Vec<(usize, f64)>> =
                            (0..f).map(|g| vec![(g, 1.0)]).collect();
                        for (jj, &j) in js.iter().enumerate() {
                            for g in 0..f {
                                inputs.push(src + j * f + g);
                                subs[g].push((f + jj * f + g, h * corrector.a(i, j)));
                            }
                        }
                        ops.push(StepOp {
                            stencil: compose_rhs(&ivp.rhs(fl), &subs, inputs.len()),
                            inputs,
                            output: dst + i * f + fl,
                            label: format!("iter {it} stage {i} fused f{fl}"),
                        });
                    }
                }
            }
        }
    }

    // Final combination from the last-written buffer.
    let last = if iters % 2 == 1 { fb0 } else { fa0 };
    for fl in 0..f {
        let mut coeffs = vec![1.0];
        let mut inputs = vec![y0 + fl];
        for i in 0..s {
            if corrector.b(i) != 0.0 {
                coeffs.push(h * corrector.b(i));
                inputs.push(last + i * f + fl);
            }
        }
        ops.push(StepOp {
            stencil: lincomb_stencil("final", &coeffs),
            inputs,
            output: next0 + fl,
            label: format!("final update f{fl}"),
        });
    }

    let plan = StepPlan {
        ops,
        num_grids,
        state_grids: (0..f).map(|fl| y0 + fl).collect(),
        next_grids: (0..f).map(|fl| next0 + fl).collect(),
        scratch_grids: if variant == Variant::A {
            (0..f).map(|fl| yscratch + fl).collect()
        } else {
            Vec::new()
        },
        domain: ivp.domain(),
        halo: ivp.halo(),
        name: format!("pirk-{}x{}/{}", corrector.name(), iters, variant),
    };
    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivps::{Heat2d, Wave2d};

    #[test]
    fn pools_hold_only_grids_a_step_touches_and_integrate_bit_for_bit() {
        use crate::ivps::InverterChain;
        use crate::stepper::{default_params, Integrator};
        let chain = InverterChain::new(64, 5.0, 1.0, 0.5);
        let wave = Wave2d::new(12, 1.0);
        let ivps: [(&dyn Ivp, f64); 2] = [(&chain, 1e-3), (&wave, 2e-3)];
        for (ivp, h) in ivps {
            let mut plans = Vec::new();
            for tab in [Tableau::euler(), Tableau::heun2(), Tableau::rk4()] {
                for v in Variant::all() {
                    plans.push((erk_plan(&tab, ivp, h, v), erk_layout(&tab, ivp, h, v)));
                }
            }
            for v in [Variant::A, Variant::D] {
                let tab = Tableau::radau_iia2();
                plans.push((
                    pirk_plan(&tab, 3, ivp, h, v),
                    pirk_layout(&tab, 3, ivp, h, v),
                ));
            }
            for (plan, full) in plans {
                plan.validate().unwrap();
                assert!(plan.touched_grids().iter().all(|&t| t), "{}", plan.name);
                let untouched = full.touched_grids().iter().filter(|&&t| !t).count();
                assert_eq!(plan.num_grids + untouched, full.num_grids, "{}", plan.name);
                // Same ops on fewer grids: the state after five steps is
                // bit for bit the one the full layout produces.
                let p = default_params(ivp.domain());
                let name = plan.name.clone();
                let mut compact = Integrator::new(ivp, plan, h, p.clone()).unwrap();
                let mut parent = Integrator::new(ivp, full, h, p).unwrap();
                compact.run(5).unwrap();
                parent.run(5).unwrap();
                assert_eq!(compact.max_diff(&parent), 0.0, "{name}");
            }
        }
        // The sizes the layout comments promise, RK4 on one field.
        let sizes = Variant::all().map(|v| erk_plan(&Tableau::rk4(), &chain, 1e-3, v).num_grids);
        assert_eq!(sizes, [7, 8, 6, 5]);
    }

    #[test]
    fn erk_a_op_counts() {
        let ivp = Heat2d::new(16);
        let plan = erk_plan(&Tableau::rk4(), &ivp, 1e-4, Variant::A);
        // Stage 0: 1 rhs; stages 1-3: assemble + rhs each; final: 1.
        assert_eq!(plan.ops.len(), 1 + 3 * 2 + 1);
        plan.validate().unwrap();
    }

    #[test]
    fn erk_d_op_counts() {
        let ivp = Heat2d::new(16);
        let plan = erk_plan(&Tableau::rk4(), &ivp, 1e-4, Variant::D);
        assert_eq!(plan.ops.len(), 4 + 1);
    }

    #[test]
    fn erk_e_op_counts() {
        let ivp = Heat2d::new(16);
        let plan = erk_plan(&Tableau::rk4(), &ivp, 1e-4, Variant::E);
        assert_eq!(plan.ops.len(), 3 + 1);
    }

    #[test]
    fn multi_field_doubles_ops() {
        let ivp = Wave2d::new(16, 1.0);
        let a = erk_plan(&Tableau::heun2(), &ivp, 1e-4, Variant::A);
        // Stage 0: 2 rhs; stage 1: 2 assemble + 2 rhs; final: 2.
        assert_eq!(a.ops.len(), 2 + 4 + 2);
        assert_eq!(a.state_grids.len(), 2);
        a.validate().unwrap();
    }

    #[test]
    fn pirk_op_counts() {
        let ivp = Heat2d::new(16);
        let m = 3;
        let a = pirk_plan(&Tableau::radau_iia2(), m, &ivp, 1e-5, Variant::A);
        // Predictor: 1 rhs + 1 copy; per iter: 2*(assemble+rhs); final 1.
        assert_eq!(a.ops.len(), 2 + m * 4 + 1);
        let d = pirk_plan(&Tableau::radau_iia2(), m, &ivp, 1e-5, Variant::D);
        assert_eq!(d.ops.len(), 2 + m * 2 + 1);
    }

    #[test]
    #[should_panic(expected = "variants A and D")]
    fn pirk_rejects_variant_e() {
        let ivp = Heat2d::new(8);
        let _ = pirk_plan(&Tableau::gauss2(), 2, &ivp, 1e-5, Variant::E);
    }

    #[test]
    fn erk_b_op_counts_and_structure() {
        let ivp = Heat2d::new(16);
        let plan = erk_plan(&Tableau::rk4(), &ivp, 1e-4, Variant::B);
        // Stage ops like A (1 + 3*2 = 7) + acc init + 4 axpy sweeps.
        assert_eq!(plan.ops.len(), 7 + 1 + 4);
        plan.validate().unwrap();
        // Every accumulation sweep reads at most 2 grids (low storage).
        for op in plan.ops.iter().filter(|o| o.label.starts_with("acc")) {
            assert!(op.inputs.len() <= 2, "{}", op.label);
        }
        // The final write lands in the next grids.
        assert_eq!(plan.ops.last().unwrap().output, plan.next_grids[0]);
    }

    #[test]
    #[should_panic(expected = "explicit")]
    fn erk_rejects_implicit_tableau() {
        let ivp = Heat2d::new(8);
        let _ = erk_plan(&Tableau::gauss2(), &ivp, 1e-5, Variant::A);
    }
}
