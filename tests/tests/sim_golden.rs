//! Golden traffic counters of three fixed simulated measurements: a cold
//! and a steady sweep each, the way `Solution::measure` runs them. Any
//! change to the cache simulator or to the simulated loop nests that moves
//! one counter fails here.
//!
//! The counters depend on where the grids sit relative to each other, and
//! grid addresses come from one process-wide allocator. This file therefore
//! holds a single test, so no other thread allocates a grid between the
//! allocations of one scenario.

use yasksite_arch::Machine;
use yasksite_engine::{apply_simulated, run_wavefront_simulated, SimContext, TuningParams};
use yasksite_grid::{Fold, Grid3};
use yasksite_memsim::{HierarchyStats, LevelStats};
use yasksite_stencil::builders::{heat3d, star3d};
use yasksite_stencil::Stencil;

/// Allocates two grids of `n` with the stencil's halo and runs a cold and
/// a steady sweep of `params` on `machine`.
fn measure(
    machine: &Machine,
    stencil: &Stencil,
    n: [usize; 3],
    params: &TuningParams,
) -> HierarchyStats {
    let r = stencil.info().radius;
    let a = xtests::seeded_grid("a", n, r, params.fold, 3);
    let b = Grid3::new("b", n, r, params.fold);
    let mut ctx = SimContext::new(machine, params.threads);
    for (src, dst) in [(&a, &b), (&b, &a)] {
        if params.wavefront > 1 {
            run_wavefront_simulated(stencil, src, dst, params, &mut ctx).unwrap();
        } else {
            apply_simulated(stencil, &[src], dst, params, &mut ctx).unwrap();
        }
    }
    ctx.finish().stats
}

/// Per level `[hits, misses, down_lines]`, per boundary the per-core
/// crossings, `[mem_read_lines, mem_write_lines]`, accesses.
fn stats(
    level: [[u64; 3]; 3],
    boundary: [&[u64]; 3],
    mem: [u64; 2],
    accesses: u64,
) -> HierarchyStats {
    HierarchyStats {
        level: level
            .iter()
            .map(|&[hits, misses, down_lines]| LevelStats {
                hits,
                misses,
                down_lines,
            })
            .collect(),
        boundary_lines: boundary.iter().map(|b| b.to_vec()).collect(),
        mem_read_lines: mem[0],
        mem_write_lines: mem[1],
        accesses,
    }
}

#[test]
fn simulated_counters_are_pinned() {
    let cases = [
        (
            "CLX, 2 cores, heat-3d-r1, 8x1x1, wavefront depth 2",
            Machine::cascade_lake(),
            heat3d(1),
            [64, 64, 64],
            TuningParams::new([64, 64, 64], Fold::new(8, 1, 1))
                .threads(2)
                .wavefront(2),
        ),
        (
            "Rome, 8 cores, star-3d-r2, 4x1x1, streaming stores",
            Machine::rome(),
            star3d(2, &[0.4, 0.1, 0.05]),
            [128, 64, 64],
            TuningParams::new([128, 8, 8], Fold::new(4, 1, 1))
                .threads(8)
                .streaming_stores(true),
        ),
        (
            "CLX, 2 cores, heat-3d-r1, 4x2x1",
            Machine::cascade_lake(),
            heat3d(1),
            [128, 128, 128],
            TuningParams::new([128, 16, 16], Fold::new(4, 2, 1)).threads(2),
        ),
    ];
    // Captured from the stamp-LRU simulator with victim levels that merge
    // a line evicted into them twice.
    let golden = [
        stats(
            [
                [973_824, 599_040, 184_082],
                [437_760, 161_280, 128_512],
                [78_336, 82_944, 0],
            ],
            [&[391_570, 391_552], &[144_896, 144_896], &[41_463, 41_481]],
            [82_944, 0],
            1_572_864,
        ),
        stats(
            [
                [1_615_872, 743_424, 0],
                [532_224, 211_200, 145_664],
                [0, 211_200, 0],
            ],
            [&[125_696; 8], &[77_376; 8], &[59_168; 8]],
            [211_200, 262_144],
            2_621_440,
        ),
        stats(
            [
                [7_004_160, 2_433_024, 652_345],
                [1_266_144, 1_166_880, 1_134_112],
                [115_465, 1_051_415, 282_246],
            ],
            [
                &[1_541_529, 1_543_840],
                &[1_150_496, 1_150_496],
                &[673_725, 659_936],
            ],
            [1_051_415, 282_246],
            9_437_184,
        ),
    ];
    for ((name, machine, stencil, n, params), want) in cases.into_iter().zip(golden) {
        assert_eq!(measure(&machine, &stencil, n, &params), want, "{name}");
    }
}
