//! Property-based tests of the ECM model and the cache simulator:
//! structural invariants that must hold for any configuration.

use proptest::prelude::*;
use yasksite_arch::Machine;
use yasksite_ecm::{EcmModel, KernelDesc};
use yasksite_grid::Fold;
use yasksite_memsim::MemHierarchy;
use yasksite_stencil::builders::{heat2d, heat3d, star3d};

fn arb_machine() -> impl Strategy<Value = Machine> {
    prop_oneof![
        Just(Machine::cascade_lake()),
        Just(Machine::rome()),
        Just(Machine::host()),
    ]
}

/// Predictions are finite and positive for arbitrary tiles and core
/// counts. For a *fixed* single-core characterisation, the scaling
/// curve `min(n·P₁, P_sat)` is monotone in `n`. (Across `predict_at`
/// calls the curve may legitimately dip: more cores shrink the
/// effective shared-cache share and can break a layer condition.)
fn check_prediction_sane_and_monotone(
    machine: &Machine,
    n: usize,
    ty: usize,
    tz: usize,
    r: usize,
) -> Result<(), TestCaseError> {
    let s = heat3d(r);
    let fold = Fold::new(machine.lanes(), 1, 1);
    let desc = KernelDesc::new(&s, [n, n, n]).tile([n, ty, tz]).fold(fold);
    let model = EcmModel::new(machine);
    let max = machine.cores_per_socket;
    for cores in [1, 2.min(max), max] {
        let p = model.predict_at(&desc, cores);
        prop_assert!(p.t_ecm.is_finite() && p.t_ecm > 0.0);
        prop_assert!(p.mlups_sat > 0.0);
        // The fixed-characterisation scaling curve is monotone.
        let mut last = 0.0;
        for nn in 1..=max {
            let perf = p.mlups(nn);
            prop_assert!(perf.is_finite() && perf > 0.0);
            prop_assert!(perf + 1e-9 >= last);
            last = perf;
        }
    }
    Ok(())
}

/// Traffic never increases toward memory: outer boundaries carry at
/// most what inner boundaries carry.
fn check_boundary_traffic_is_monotone(
    machine: &Machine,
    n: usize,
    ty: usize,
    r: usize,
) -> Result<(), TestCaseError> {
    let s = star3d(r, &vec![0.5; r + 1]);
    let desc = KernelDesc::new(&s, [n, n, n]).tile([n, ty, ty]);
    let p = EcmModel::new(machine).predict(&desc);
    let lines = &p.traffic.per_boundary_lines;
    for b in 1..lines.len() {
        prop_assert!(
            lines[b] <= lines[b - 1] + 1e-12,
            "boundary {b} carries more than boundary {}: {lines:?}",
            b - 1
        );
    }
    Ok(())
}

// Cases the property runs once shrank to, pinned so they run on every
// build.

#[test]
fn prediction_sane_and_monotone_host_n16_ty2_tz2_r1() {
    check_prediction_sane_and_monotone(&Machine::host(), 16, 2, 2, 1).unwrap();
}

#[test]
fn prediction_sane_and_monotone_cascade_lake_n220_ty52_tz3_r3() {
    check_prediction_sane_and_monotone(&Machine::cascade_lake(), 220, 52, 3, 3).unwrap();
}

#[test]
fn boundary_traffic_is_monotone_cascade_lake_n37_ty2_r3() {
    check_boundary_traffic_is_monotone(&Machine::cascade_lake(), 37, 2, 3).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prediction_sane_and_monotone(
        machine in arb_machine(),
        n in 16usize..400,
        ty in 2usize..64,
        tz in 2usize..64,
        r in 1usize..4,
    ) {
        check_prediction_sane_and_monotone(&machine, n, ty, tz, r)?;
    }

    #[test]
    fn boundary_traffic_is_monotone(
        machine in arb_machine(),
        n in 32usize..512,
        ty in 2usize..128,
        r in 1usize..5,
    ) {
        check_boundary_traffic_is_monotone(&machine, n, ty, r)?;
    }

    /// A bigger cache of the same geometry never produces more misses on
    /// the same access stream (LRU inclusion property, spot-checked).
    #[test]
    fn bigger_cache_never_worse(
        seed in 0u64..1000,
        len in 100usize..2000,
    ) {
        let mut small = Machine::cascade_lake();
        small.cores_per_socket = 1;
        let mut big = small.clone();
        big.caches[0].size_bytes *= 2;
        let mut hs = MemHierarchy::new(&small, 1);
        let mut hb = MemHierarchy::new(&big, 1);
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for _ in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (x >> 20) % (1 << 22);
            hs.read(0, addr);
            hb.read(0, addr);
        }
        prop_assert!(hb.stats().level[0].misses <= hs.stats().level[0].misses);
    }

    /// The 2-D variants of a stencil never move more data per update than
    /// the 3-D variants (fewer live layers).
    #[test]
    fn two_d_cheaper_than_three_d(machine in arb_machine(), n in 64usize..512) {
        let d2 = KernelDesc::new(&heat2d(1), [n, n, 1]).tile([n, 16, 1]);
        let d3 = KernelDesc::new(&heat3d(1), [n, n, 64]).tile([n, 16, 16]);
        let m = EcmModel::new(&machine);
        let p2 = m.predict(&d2);
        let p3 = m.predict(&d3);
        prop_assert!(p2.bytes_per_lup_mem <= p3.bytes_per_lup_mem + 1e-9);
    }
}
