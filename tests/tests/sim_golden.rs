//! Golden traffic counters of three fixed simulated measurements: a cold
//! and a steady sweep each, the way `Solution::measure` runs them. Any
//! change to the cache simulator or to the simulated loop nests that moves
//! one counter fails here.
//!
//! Each measurement places its grids with `SimContext::grid`, in its own
//! address space, so its counters do not depend on what the rest of the
//! process allocates or runs meanwhile; the last test checks exactly that.

use yasksite_arch::Machine;
use yasksite_engine::{SimContext, SweepRequest, TierPolicy, TuningParams};
use yasksite_grid::{Fold, Grid3};
use yasksite_memsim::{HierarchyStats, LevelStats};
use yasksite_stencil::builders::{heat3d, star3d};
use yasksite_stencil::Stencil;

struct Scenario {
    name: &'static str,
    machine: Machine,
    stencil: Stencil,
    n: [usize; 3],
    params: TuningParams,
    golden: HierarchyStats,
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

/// The golden values were captured from the stamp-LRU simulator with
/// victim levels that merge a line evicted into them twice; the wavefront
/// scenario's from the tiled wavefront schedule.
fn scenarios() -> [Scenario; 3] {
    [
        Scenario {
            name: "CLX, 2 cores, heat-3d-r1, 8x1x1, wavefront depth 2",
            machine: Machine::cascade_lake(),
            stencil: heat3d(1),
            n: [64, 64, 64],
            params: TuningParams::new([64, 64, 64], Fold::new(8, 1, 1))
                .threads(2)
                .wavefront(2),
            // One tile (the block is as tall as the domain): core 0 walks
            // the first block height of each skewed tile-plane, core 1
            // only the row the skew pushes past it, as on the host.
            golden: stats(
                [
                    [978_396, 594_468, 184_080],
                    [435_492, 158_976, 139_100],
                    [77_742, 81_234, 0],
                ],
                [&[772_873, 5_675], &[294_584, 3_492], &[78_336, 2_898]],
                [81_234, 0],
                1_572_864,
            ),
        },
        Scenario {
            name: "Rome, 8 cores, star-3d-r2, 4x1x1, streaming stores",
            machine: Machine::rome(),
            stencil: star3d(2, &[0.4, 0.1, 0.05]),
            n: [128, 64, 64],
            params: TuningParams::new([128, 8, 8], Fold::new(4, 1, 1))
                .threads(8)
                .streaming_stores(true),
            golden: stats(
                [
                    [1_615_872, 743_424, 0],
                    [532_224, 211_200, 145_664],
                    [0, 211_200, 0],
                ],
                [&[125_696; 8], &[77_376; 8], &[59_168; 8]],
                [211_200, 262_144],
                2_621_440,
            ),
        },
        Scenario {
            name: "CLX, 2 cores, heat-3d-r1, 4x2x1",
            machine: Machine::cascade_lake(),
            stencil: heat3d(1),
            n: [128, 128, 128],
            params: TuningParams::new([128, 16, 16], Fold::new(4, 2, 1)).threads(2),
            golden: stats(
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
        },
    ]
}

/// Allocates two grids of the scenario's shape, calling `between` after
/// the first, and runs a cold and a steady sweep.
fn measure(s: &Scenario, between: impl FnOnce()) -> HierarchyStats {
    let (r, params) = (s.stencil.info().radius, &s.params);
    let mut ctx = SimContext::new(&s.machine, params.threads);
    let a = ctx.grid("a", s.n, r, params.fold);
    between();
    let b = ctx.grid("b", s.n, r, params.fold);
    let request = SweepRequest::new(params).tier(TierPolicy::Auto);
    for (src, dst) in [(&a, &b), (&b, &a)] {
        if params.wavefront > 1 {
            let chain = request.prepare_wavefront(&s.stencil, &a, &b).unwrap();
            chain.simulate(&mut ctx, &[src, dst]).unwrap();
        } else {
            let sweep = request.prepare(&s.stencil, &[&a], &b).unwrap();
            sweep.simulate(&mut ctx, &[src], dst).unwrap();
        }
    }
    ctx.finish().stats
}

fn assert_pinned(i: usize) {
    let s = &scenarios()[i];
    assert_eq!(measure(s, || {}), s.golden, "{}", s.name);
}

#[test]
fn clx_wavefront_depth_2_counters_are_pinned() {
    assert_pinned(0);
}

#[test]
fn rome_streaming_store_counters_are_pinned() {
    assert_pinned(1);
}

#[test]
fn clx_4x2x1_fold_counters_are_pinned() {
    assert_pinned(2);
}

/// A grid in the process-wide address space, between the two grids of a
/// measurement: under the global allocator it would have shifted the
/// second grid against the first.
fn unrelated_allocation() {
    drop(Grid3::new("unrelated", [37, 5, 3], [1, 1, 1], Fold::unit()));
}

#[test]
fn counters_do_not_depend_on_other_allocations_or_threads() {
    let scenarios = scenarios();
    for s in &scenarios {
        let got = measure(s, unrelated_allocation);
        assert_eq!(got, s.golden, "{}, after an unrelated allocation", s.name);
    }
    // Eight measurements at once: each scenario runs beside seven others,
    // every one of them allocating between its grids.
    std::thread::scope(|scope| {
        let runs: Vec<_> = (0..8)
            .map(|t| {
                let s = &scenarios[t % scenarios.len()];
                scope.spawn(move || (s, measure(s, unrelated_allocation)))
            })
            .collect();
        for run in runs {
            let (s, got) = run.join().expect("a measurement thread panicked");
            assert_eq!(got, s.golden, "{}, beside seven other threads", s.name);
        }
    });
}
