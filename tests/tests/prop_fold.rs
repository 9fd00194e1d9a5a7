//! Property-based bitwise-identity suite for the engine's tier matrix:
//! for arbitrary stencils (radius 1 and 2, 1 to 34 terms), fold shapes,
//! blockings, thread counts and profiled/unprofiled runs, the folded tier
//! must reproduce the scalar tier and the per-point path *bit for bit*,
//! and for
//! arbitrary non-linear expressions the row-vectorised tape tier must
//! reproduce the recursive reference evaluator and the generic per-point
//! tier. Every tier computes each output point with the identical FP op
//! order, so all comparisons between tiers are exact, never
//! epsilon-based. One table-driven test runs the same matrix over every
//! named stencil of the paper suite.

use proptest::prelude::*;
use xtests::seeded_grid;
use yasksite_engine::{ExecPool, SweepProfiler, SweepRequest, Tier, TierPolicy, TuningParams};
use yasksite_grid::{Fold, Grid3};
use yasksite_stencil::builders::{box3d, paper_suite};
use yasksite_stencil::{at, c, Expr, Stencil};

/// Strategy: a random linear stencil with `arity` draws of an offset
/// within `radius` (repeated offsets merge into one term).
fn arb_linear_stencil(
    radius: i32,
    arity: std::ops::Range<usize>,
) -> impl Strategy<Value = Stencil> {
    proptest::collection::vec(
        (
            (-radius..=radius),
            (-radius..=radius),
            (-radius..=radius),
            -2.0f64..2.0,
        ),
        arity,
    )
    .prop_map(|terms| {
        let exprs: Vec<Expr> = terms
            .iter()
            .map(|&(dx, dy, dz, w)| c(w) * at(0, dx, dy, dz))
            .collect();
        Stencil::new("prop_fold", 3, 1, Expr::sum(exprs))
    })
}

/// Strategy: a linear stencil of exactly 1 to 34 terms, so its rows run
/// one to five stripes of the row kernel and cross every stripe seam
/// (8/9, 16/17, 24/25, 32/33). The offsets are distinct points of the
/// radius-2 box: `start + t·step` modulo its 125 points, with `step`
/// coprime to 125.
fn arb_striped_stencil() -> impl Strategy<Value = Stencil> {
    (
        0usize..125,
        prop_oneof![Just(1usize), Just(2), Just(13), Just(31), Just(62)],
        proptest::collection::vec(-2.0f64..2.0, 1..35),
    )
        .prop_map(|(start, step, weights)| {
            let exprs: Vec<Expr> = weights
                .iter()
                .enumerate()
                .map(|(t, &w)| {
                    let p = (start + t * step) % 125;
                    let d = |e: usize| (p / e % 5) as i32 - 2;
                    c(w) * at(0, d(1), d(5), d(25))
                })
                .collect();
            Stencil::new("prop_stripes", 3, 1, Expr::sum(exprs))
        })
}

/// Strategy: an arbitrary expression over `grids` inputs with offsets in
/// `[-2, 2] × [-1, 1]²`; constants include both signed zeros.
fn arb_expr(grids: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-3.0f64..3.0).prop_map(c),
        Just(c(0.0)),
        Just(c(-0.0)),
        (0..grids, -2i32..=2, -1i32..=1, -1i32..=1).prop_map(|(g, x, y, z)| at(g, x, y, z)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            inner.prop_map(|a| -a),
        ]
    })
}

/// Strategy: a non-linear stencil over 1–3 inputs built so that value
/// numbering has something to do and something it must not do. `p` and
/// `q` recur as shared subtrees, `p - q` sits beside `q - p`, a product
/// is negated, a constant-only subtree multiplies an access, and the
/// square keeps the whole expression off the linear path. Every third
/// stencil is instead `(p·0)·u² + p·(−0)`, whose value is `−0` wherever
/// the two zero constants would be treated as one and `+0` otherwise.
fn arb_nonlinear_stencil() -> impl Strategy<Value = Stencil> {
    (1usize..=3).prop_flat_map(|grids| {
        (arb_expr(grids), arb_expr(grids), -2.0f64..2.0, 0usize..3).prop_map(
            move |(p, q, k, form)| {
                let square = at(grids - 1, 0, 0, 0) * at(grids - 1, 0, 0, 0);
                let expr = if form == 0 {
                    (p.clone() * c(0.0)) * square + p * c(-0.0)
                } else {
                    let shared =
                        (p.clone() - q.clone()) * (q.clone() - p.clone()) + (-(p.clone() * q));
                    let konst = (c(k) + c(0.5)) * c(-0.0) - c(k);
                    shared + konst * p + square
                };
                Stencil::new("prop_tape", 3, grids, expr)
            },
        )
    })
}

/// Row-major folds with a supported lane count (the folded lane tier).
fn arb_lane_fold() -> impl Strategy<Value = Fold> {
    prop_oneof![
        Just(Fold::new(2, 1, 1)),
        Just(Fold::new(4, 1, 1)),
        Just(Fold::new(8, 1, 1)),
        Just(Fold::new(16, 1, 1)),
    ]
}

/// Multi-dimensional folds with a supported element count (the folded
/// brick tier).
fn arb_brick_fold() -> impl Strategy<Value = Fold> {
    prop_oneof![
        Just(Fold::new(4, 2, 1)),
        Just(Fold::new(2, 2, 2)),
        Just(Fold::new(2, 2, 1)),
        Just(Fold::new(1, 2, 1)),
        Just(Fold::new(4, 4, 1)),
    ]
}

/// Whether two grids hold the same bits at every domain point (so `+0.0`
/// and `-0.0` differ, unlike under `max_abs_diff`).
fn same_bits(a: &Grid3, b: &Grid3) -> bool {
    let n = a.n().map(|e| e as isize);
    (0..n[2]).all(|k| {
        (0..n[1]).all(|j| (0..n[0]).all(|i| a.get(i, j, k).to_bits() == b.get(i, j, k).to_bits()))
    })
}

/// Runs one sweep under `policy`, optionally profiled, returning the
/// output grid and the tier that actually executed.
fn run_tier(
    stencil: &Stencil,
    inputs: &[&Grid3],
    params: &TuningParams,
    policy: TierPolicy,
    profiled: bool,
) -> (Grid3, Tier) {
    let n = inputs[0].n();
    let mut out = Grid3::new("o", n, stencil.info().radius, params.fold);
    let prof = SweepProfiler::enabled();
    let mut request = SweepRequest::new(params).tier(policy);
    if profiled {
        request = request.profiler(&prof);
    }
    let report = request.apply(stencil, inputs, &mut out).unwrap();
    (out, report.tier)
}

/// Every native tier agrees on every named stencil — the nine
/// `paper_suite()` rows (two-input `wave-2d` and the non-linear
/// `heat-3d-vc` included) plus `box3d(2)` — at 1 and 3 threads, on a
/// domain whose rows leave a remainder under every fold. Linear stencils:
/// the row kernel under both rung names, the brick kernel and the
/// generic per-point path produce the same bits; the non-linear one: tape tier and generic path
/// do. Those bits are within 1e-12 of `Stencil::apply_reference` (the
/// linear kernels merge coefficients, so that comparison is not exact).
/// The executed tier is asserted so a silent degrade cannot pass. A sweep
/// prepared against other grids of the same geometry and run on these
/// writes the same bits.
#[test]
fn every_tier_agrees_on_every_named_stencil() {
    let lane = Fold::new(8, 1, 1);
    let brick = Fold::new(4, 2, 1);
    let odd = Fold::new(3, 3, 1); // 9 elements: no folded kernel takes it
    let linear_rows = [
        (lane, TierPolicy::ForceScalar, Tier::Scalar),
        (lane, TierPolicy::ForceFolded, Tier::Folded),
        (brick, TierPolicy::ForceFolded, Tier::Folded),
        (odd, TierPolicy::Auto, Tier::Generic),
    ];
    let nonlinear_rows = [
        (lane, TierPolicy::Auto, Tier::Tape),
        (odd, TierPolicy::Auto, Tier::Generic),
    ];
    let mut stencils = paper_suite();
    stencils.push(box3d(2));
    assert_eq!(stencils.len(), 10);
    for stencil in &stencils {
        let name = stencil.name();
        let rows: &[_] = if name == "heat-3d-vc" {
            &nonlinear_rows
        } else {
            &linear_rows
        };
        let halo = stencil.info().radius;
        let n = [19, 7, if stencil.dims() == 2 { 1 } else { 5 }];
        let mut first: Option<Grid3> = None;
        for threads in [1, 3] {
            for &(fold, policy, tier) in rows {
                let grids: Vec<Grid3> = (0..stencil.num_inputs())
                    .map(|g| seeded_grid("u", n, halo, fold, 41 + g as u64))
                    .collect();
                let inputs: Vec<&Grid3> = grids.iter().collect();
                let params = TuningParams::new([n[0], 4, 4], fold).threads(threads);
                let (out, ran) = run_tier(stencil, &inputs, &params, policy, false);
                let what = format!("{name}, fold {fold}, {policy:?}, {threads} threads");
                assert_eq!(ran, tier, "{what}");
                let others: Vec<Grid3> = (0..stencil.num_inputs())
                    .map(|g| seeded_grid("v", n, halo, fold, 73 + g as u64))
                    .collect();
                let others: Vec<&Grid3> = others.iter().collect();
                let prepared = SweepRequest::new(&params)
                    .tier(policy)
                    .prepare(stencil, &others, &Grid3::new("p", n, halo, fold))
                    .unwrap();
                let mut rebound = Grid3::new("o", n, halo, fold);
                let report = prepared
                    .run(ExecPool::global(), &inputs, &mut rebound)
                    .unwrap();
                assert_eq!(report.tier, tier, "{what}");
                assert!(same_bits(&rebound, &out), "{what}: prepared elsewhere");
                match &first {
                    Some(first) => assert!(same_bits(&out, first), "{what}"),
                    None => {
                        let mut reference = Grid3::new("r", n, halo, fold);
                        stencil.apply_reference(&inputs, &mut reference).unwrap();
                        let err = out.max_abs_diff(&reference).unwrap();
                        assert!(err <= 1e-12, "{what}: {err:e} from the reference");
                        first = Some(out);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Folded lane tier == scalar tier == the generic per-point path, bit
    /// for bit, across arity × lane fold × threads × profiled on/off ×
    /// x-block and sub-block. Both row-major rungs run the one row
    /// kernel, so the per-point path on a 3x3x1 fold (no folded kernel
    /// takes it) is the independent side. The arities cross every stripe
    /// seam, and x-blocks and sub-blocks of 1–3 points cut the row
    /// segments below one accumulator block.
    #[test]
    fn lane_tier_is_bitwise_identical_to_scalar_tier(
        (stencil, fold, threads, profiled, nx, ny, nz, (bx, sub)) in (
            arb_striped_stencil(),
            arb_lane_fold(),
            1usize..5,
            any::<bool>(),
            4usize..24,
            3usize..10,
            3usize..10,
            (
                prop_oneof![Just(1usize), Just(2), Just(3), Just(9), Just(24)],
                prop_oneof![
                    Just(None),
                    Just(Some([1usize, 2, 1])),
                    Just(Some([2, 1, 2])),
                    Just(Some([3, 4, 4])),
                    Just(Some([5, 2, 3])),
                ],
            ),
        ),
    ) {
        let n = [nx, ny, nz];
        let halo = stencil.info().radius;
        let mut params = TuningParams::new([bx, 4, 4], fold).threads(threads);
        params.sub_block = sub;
        let u = seeded_grid("u", n, halo, fold, 21);

        let (scalar, t_s) = run_tier(&stencil, &[&u], &params, TierPolicy::ForceScalar, profiled);
        let (folded, t_f) = run_tier(&stencil, &[&u], &params, TierPolicy::ForceFolded, profiled);
        let odd = Fold::new(3, 3, 1);
        let mut odd_params = TuningParams::new([bx, 4, 4], odd).threads(threads);
        odd_params.sub_block = sub;
        let v = seeded_grid("v", n, halo, odd, 21);
        let (generic, t_g) = run_tier(&stencil, &[&v], &odd_params, TierPolicy::Auto, profiled);

        prop_assert_eq!(t_s, Tier::Scalar);
        prop_assert_eq!(t_f, Tier::Folded);
        prop_assert_eq!(t_g, Tier::Generic);
        prop_assert_eq!(folded.max_abs_diff(&scalar).unwrap(), 0.0);
        prop_assert_eq!(scalar.max_abs_diff(&generic).unwrap(), 0.0);
    }

    /// Folded brick tier == the pre-folded-tier generic path (what
    /// `ForceScalar` degrades to on multi-dimensional folds), bit for
    /// bit, across fold shape × threads × profiled on/off.
    #[test]
    fn brick_tier_is_bitwise_identical_to_generic_path(
        (stencil, fold, threads, profiled, nx, ny, nz) in (
            arb_linear_stencil(2, 1..30),
            arb_brick_fold(),
            1usize..5,
            any::<bool>(),
            4usize..20,
            3usize..10,
            3usize..10,
        ),
    ) {
        let n = [nx, ny, nz];
        let halo = stencil.info().radius;
        let u = seeded_grid("u", n, halo, fold, 23);
        let params = TuningParams::new([n[0], 4, 4], fold).threads(threads);

        let (generic, t_g) = run_tier(&stencil, &[&u], &params, TierPolicy::ForceScalar, profiled);
        let (brick, t_b) = run_tier(&stencil, &[&u], &params, TierPolicy::ForceFolded, profiled);

        prop_assert_eq!(t_g, Tier::Generic);
        prop_assert_eq!(t_b, Tier::Folded);
        prop_assert_eq!(brick.max_abs_diff(&generic).unwrap(), 0.0);
    }

    /// The tier never depends on thread count, and the folded tier is
    /// thread-count invariant: every thread count produces the same bits
    /// as single-threaded folded execution.
    #[test]
    fn folded_tier_is_thread_count_invariant(
        stencil in arb_linear_stencil(2, 1..30),
        fold in arb_lane_fold(),
        threads in 2usize..7,
    ) {
        let n = [19, 7, 9];
        let halo = stencil.info().radius;
        let u = seeded_grid("u", n, halo, fold, 29);
        let p1 = TuningParams::new([19, 4, 4], fold).threads(1);
        let pt = TuningParams::new([19, 4, 4], fold).threads(threads);

        let (one, _) = run_tier(&stencil, &[&u], &p1, TierPolicy::ForceFolded, false);
        let (many, _) = run_tier(&stencil, &[&u], &pt, TierPolicy::ForceFolded, false);
        prop_assert_eq!(many.max_abs_diff(&one).unwrap(), 0.0);
    }

    /// Folded wavefronts == scalar wavefronts, bit for bit, for any
    /// depth and thread count.
    #[test]
    fn folded_wavefront_is_bitwise_identical_to_scalar_wavefront(
        stencil in arb_linear_stencil(2, 1..12),
        fold in arb_lane_fold(),
        depth in 1usize..5,
        threads in 1usize..4,
    ) {
        let n = [16, 6, 7];
        let halo = stencil.info().radius;
        let params = TuningParams::new([16, 4, 4], fold).threads(threads).wavefront(depth);

        let run = |policy: TierPolicy| {
            let mut a = seeded_grid("a", n, halo, fold, 31);
            let mut b = seeded_grid("b", n, halo, fold, 31);
            a.fill_halo(0.0);
            b.fill_halo(0.0);
            let report = SweepRequest::new(&params)
                .tier(policy)
                .run_wavefront(&stencil, &mut a, &mut b)
                .unwrap();
            (a, report.tier)
        };

        let (scalar, t_s) = run(TierPolicy::ForceScalar);
        let (folded, t_f) = run(TierPolicy::ForceFolded);
        prop_assert_eq!(t_s, Tier::Scalar);
        prop_assert_eq!(t_f, Tier::Folded);
        prop_assert_eq!(folded.max_abs_diff(&scalar).unwrap(), 0.0);
    }

    /// Vectorised tape tier == `Stencil::eval` == generic per-point tier,
    /// bit for bit, across expression shape × input count × row length
    /// (below, at, above and not a multiple of the 256-point chunk) ×
    /// block and sub-block × threads.
    #[test]
    fn tape_tier_is_bitwise_identical_to_reference_and_generic_tier(
        (stencil, nx, bx, sub, threads, ny, nz) in (
            arb_nonlinear_stencil(),
            prop_oneof![Just(5usize), Just(255), Just(256), Just(257), Just(300), Just(512), Just(600)],
            prop_oneof![Just(1024usize), Just(256), Just(100)],
            prop_oneof![Just(None), Just(Some([64usize, 1, 1])), Just(Some([300, 2, 1]))],
            prop_oneof![Just(1usize), Just(2), Just(4)],
            1usize..4,
            1usize..5,
        ),
    ) {
        let n = [nx, ny, nz];
        let halo = [2, 1, 1];
        let run = |fold: Fold| {
            let grids: Vec<Grid3> = (0..stencil.num_inputs())
                .map(|g| {
                    let mut u = seeded_grid("u", n, halo, fold, 37 + g as u64);
                    u.fill_halo(0.25 * (g as f64 + 1.0));
                    u
                })
                .collect();
            let inputs: Vec<&Grid3> = grids.iter().collect();
            let mut params = TuningParams::new([bx, 2, 2], fold).threads(threads);
            params.sub_block = sub;
            let mut out = Grid3::new("o", n, halo, fold);
            let report = SweepRequest::new(&params)
                .tier(TierPolicy::Auto)
                .apply(&stencil, &inputs, &mut out)
                .unwrap();
            let mut reference = Grid3::new("r", n, halo, fold);
            stencil.apply_reference(&inputs, &mut reference).unwrap();
            (out, reference, report.tier)
        };
        let (tape, reference, t_t) = run(Fold::new(4, 1, 1));
        let (generic, _, t_g) = run(Fold::new(2, 2, 1));
        prop_assert_eq!(t_t, Tier::Tape);
        prop_assert_eq!(t_g, Tier::Generic);
        prop_assert!(same_bits(&tape, &reference), "tape vs Stencil::eval");
        prop_assert!(same_bits(&tape, &generic), "tape vs generic tier");
    }
}

/// The fused finiteness scan (`SweepRequest::report_finite`) on every
/// kernel — lane rows, scalar rows, tape program, brick gather (4x2x1),
/// per-point (3x3x1) — with 1 and 3 threads: one NaN / +inf / −inf input
/// value feeding the first row, the last row or a remainder column makes
/// the report say non-finite, a clean run says finite, a run that does
/// not ask reports nothing, and the scan never changes an output bit.
/// Only written values count: the output grid starts as all-NaN storage
/// (halo and fold padding stay NaN) and a clean run is still finite.
#[test]
fn fused_finite_scan_sees_exactly_the_written_values_on_every_tier() {
    use yasksite_stencil::builders::{heat3d, suite_stencil};

    let varcoeff = suite_stencil("heat-3d-vc").unwrap();
    let rows = [
        (
            heat3d(1),
            Fold::new(8, 1, 1),
            TierPolicy::ForceFolded,
            Tier::Folded,
        ),
        (
            heat3d(1),
            Fold::new(8, 1, 1),
            TierPolicy::ForceScalar,
            Tier::Scalar,
        ),
        (varcoeff, Fold::new(8, 1, 1), TierPolicy::Auto, Tier::Tape),
        (
            heat3d(1),
            Fold::new(4, 2, 1),
            TierPolicy::Auto,
            Tier::Folded,
        ),
        (
            heat3d(1),
            Fold::new(3, 3, 1),
            TierPolicy::Auto,
            Tier::Generic,
        ),
    ];
    let n = [19, 7, 5]; // 19 = two 8-lane chunks and a remainder of 3
    let spots = [(3, 0, 0), (3, 6, 4), (18, 3, 2)];
    for (stencil, fold, policy, tier) in rows {
        let halo = stencil.info().radius;
        for threads in [1usize, 3] {
            let params = TuningParams::new([n[0], 4, 2], fold).threads(threads);
            let sweep = |inputs: &[&Grid3], scan: bool| {
                let mut out = Grid3::new("o", n, halo, fold);
                out.fill_all(f64::NAN);
                let mut request = SweepRequest::new(&params).tier(policy);
                if scan {
                    request = request.report_finite();
                }
                let report = request.apply(&stencil, inputs, &mut out).unwrap();
                assert_eq!(report.tier, tier, "{fold} {policy:?}");
                (out, report.finite)
            };
            let what = format!(
                "{}, fold {fold}, {policy:?}, {threads} threads",
                stencil.name()
            );
            let mut grids: Vec<Grid3> = (0..stencil.num_inputs())
                .map(|g| seeded_grid("u", n, halo, fold, 7 + g as u64))
                .collect();
            let clean: Vec<&Grid3> = grids.iter().collect();
            let (plain, unasked) = sweep(&clean, false);
            let (scanned, finite) = sweep(&clean, true);
            assert_eq!(unasked, None, "{what}");
            assert_eq!(finite, Some(true), "{what}");
            assert!(same_bits(&plain, &scanned), "{what}");
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for (i, j, k) in spots {
                    let good = grids[0].get(i, j, k);
                    grids[0].set(i, j, k, bad);
                    let planted: Vec<&Grid3> = grids.iter().collect();
                    let (plain, _) = sweep(&planted, false);
                    let (scanned, finite) = sweep(&planted, true);
                    assert_eq!(finite, Some(false), "{what}: {bad} at ({i},{j},{k})");
                    assert!(
                        same_bits(&plain, &scanned),
                        "{what}: {bad} at ({i},{j},{k})"
                    );
                    grids[0].set(i, j, k, good);
                }
            }
        }
    }
}
