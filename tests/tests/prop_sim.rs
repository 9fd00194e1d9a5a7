//! Property tests tying the simulator to physical lower/upper bounds for
//! arbitrary stencil configurations.

use proptest::prelude::*;
use xtests::seeded_grid;
use yasksite_arch::Machine;
use yasksite_engine::{ExecPool, SimContext, SweepRequest, TierPolicy, TuningParams};
use yasksite_grid::{Fold, Grid3};
use yasksite_memsim::HierarchyStats;
use yasksite_stencil::builders::{inverter_chain_rhs, star3d};
use yasksite_stencil::Stencil;

/// One simulated sweep of `s` from `u` into `o`, prepared as the
/// simulator's callers prepare it.
fn simulate(s: &Stencil, u: &Grid3, o: &Grid3, p: &TuningParams, ctx: &mut SimContext) {
    let request = SweepRequest::new(p).tier(TierPolicy::Auto);
    let sweep = request.prepare(s, &[u], o).unwrap();
    sweep.simulate(ctx, &[u], o).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cold sweep's memory reads are bounded below by the compulsory
    /// input footprint and above by the total issued accesses; writes
    /// never exceed the lines the output occupies (plus eviction slack).
    #[test]
    fn traffic_within_physical_bounds(
        r in 1usize..3,
        nx in 16usize..48,
        ny in 8usize..24,
        nz in 4usize..16,
        by in 2usize..16,
        bz in 2usize..16,
        cores in 1usize..4,
    ) {
        let m = Machine::cascade_lake();
        let s = star3d(r, &vec![0.25; r + 1]);
        let fold = Fold::new(8, 1, 1);
        let n = [nx, ny, nz];
        let u = seeded_grid("u", n, [r, r, r], fold, 5);
        let o = Grid3::new("o", n, [r, r, r], fold);
        let p = TuningParams::new([nx, by, bz], fold).threads(cores);
        let mut ctx = SimContext::new(&m, cores);
        simulate(&s, &u, &o, &p, &mut ctx);
        let st = ctx.finish().stats;

        // Lower bound: every distinct input line must be fetched once.
        let input_lines = (u.bytes() / 64) as u64;
        // The traversal touches at most the allocated lines of both grids
        // once each... per block-halo reload; accesses is a hard ceiling.
        prop_assert!(st.mem_read_lines >= input_lines / 2, "reads {} < {}", st.mem_read_lines, input_lines / 2);
        prop_assert!(st.mem_read_lines <= st.accesses);
        // Writebacks cannot exceed all dirty lines ever created.
        let output_lines = (o.bytes() / 64) as u64;
        prop_assert!(st.mem_write_lines <= output_lines + input_lines);
        // Boundary monotonicity: inner boundaries carry at least what
        // crosses the memory interface.
        prop_assert!(st.boundary_total(0) >= st.boundary_total(2));
    }

    /// The per-core split covers all work: every active core issues
    /// accesses when there are at least as many z-blocks as cores (core
    /// `c` replays native thread `c`'s z-slab, whole z-blocks).
    #[test]
    fn every_core_participates(
        ny in 16usize..32,
        extra_z in 0usize..16,
        cores in 2usize..6,
    ) {
        let stats = four_block_sweep(ny, 4 * cores + extra_z, cores);
        for c in 0..cores {
            prop_assert!(stats.boundary_lines[0][c] > 0, "core {c} got no work");
        }
    }

    /// The counter-case: with fewer z-blocks than cores, exactly one core
    /// per z-block issues accesses, the first ones, as on the host.
    #[test]
    fn only_cores_with_a_z_block_participate(
        ny in 16usize..32,
        nblocks_z in 1usize..5,
        last_block in 1usize..5,
        extra_cores in 1usize..3,
    ) {
        let cores = nblocks_z + extra_cores;
        let stats = four_block_sweep(ny, 4 * (nblocks_z - 1) + last_block, cores);
        for c in 0..cores {
            prop_assert_eq!(stats.boundary_lines[0][c] > 0, c < nblocks_z, "core {}", c);
        }
    }

    /// The simulator works on as many cores as the native sweep of the
    /// same parameters reports threads: over the row kernel (8- and
    /// 4-lane folds), the tape program and the per-point path (a
    /// non-linear stencil on a 4x2x1 fold), any block, sub-block and
    /// thread count.
    #[test]
    fn simulated_cores_at_work_match_native_threads_used(
        kind in 0usize..4,
        nx in 8usize..40,
        ny in 2usize..20,
        nz in 1usize..20,
        block in (1usize..40, 1usize..12, 1usize..8),
        sub in (1usize..16, 1usize..6, 1usize..4),
        sub_blocked in any::<bool>(),
        threads in 1usize..5,
    ) {
        let (s, fold) = match kind {
            0 => (star3d(1, &[0.5, 0.1]), Fold::new(8, 1, 1)),
            1 => (star3d(1, &[0.5, 0.1]), Fold::new(4, 1, 1)),
            2 => (inverter_chain_rhs(5.0, 1.0, 2.0), Fold::new(8, 1, 1)),
            _ => (inverter_chain_rhs(5.0, 1.0, 2.0), Fold::new(4, 2, 1)),
        };
        let n = [nx, ny, nz];
        let u = seeded_grid("u", n, [1, 1, 1], fold, 3);
        let mut o = Grid3::new("o", n, [1, 1, 1], fold);
        let mut p = TuningParams::new([block.0, block.1, block.2], fold).threads(threads);
        if sub_blocked {
            p = p.sub_block([sub.0, sub.1, sub.2]);
        }
        let sweep = SweepRequest::new(&p)
            .tier(TierPolicy::Auto)
            .prepare(&s, &[&u], &o)
            .unwrap();
        let native = sweep.run(ExecPool::global(), &[&u], &mut o).unwrap();
        let mut ctx = SimContext::new(&Machine::cascade_lake(), threads);
        sweep.simulate(&mut ctx, &[&u], &o).unwrap();
        let stats = ctx.finish().stats;
        let working = (0..threads).filter(|&c| stats.boundary_lines[0][c] > 0).count();
        prop_assert_eq!(working, native.threads_used, "{} {}", s.name(), p);
    }
}

/// The per-core L1 traffic of a cold radius-1 star sweep over
/// `16 × ny × nz` in `16x4x4` blocks on `cores` simulated cores.
fn four_block_sweep(ny: usize, nz: usize, cores: usize) -> HierarchyStats {
    let m = Machine::cascade_lake();
    let s = star3d(1, &[0.5, 0.1]);
    let fold = Fold::new(8, 1, 1);
    let n = [16, ny, nz];
    let u = seeded_grid("u", n, [1, 1, 1], fold, 9);
    let o = Grid3::new("o", n, [1, 1, 1], fold);
    let p = TuningParams::new([16, 4, 4], fold).threads(cores);
    let mut ctx = SimContext::new(&m, cores);
    simulate(&s, &u, &o, &p, &mut ctx);
    ctx.finish().stats
}
