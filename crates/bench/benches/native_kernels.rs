//! Criterion benchmarks of the native execution paths: the host-side
//! counterpart of the paper's single-kernel measurements, plus the
//! blocking/folding ablations called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use yasksite_engine::{SweepRequest, TierPolicy, TuningParams};
use yasksite_grid::{Fold, Grid3};
use yasksite_stencil::builders::{box3d, heat3d, inverter_chain_rhs};

fn grids(n: [usize; 3], halo: [usize; 3], fold: Fold) -> (Grid3, Grid3) {
    let mut u = Grid3::new("u", n, halo, fold);
    u.fill_with(|i, j, k| ((i + 2 * j + 3 * k) % 7) as f64 * 0.1);
    u.fill_halo(0.0);
    let out = Grid3::new("o", n, halo, fold);
    (u, out)
}

/// Ablation: spatial block size on the host (naive vs tuned-style blocks).
fn bench_blocking(c: &mut Criterion) {
    let n = [128, 64, 64];
    let fold = Fold::new(8, 1, 1);
    let s = heat3d(1);
    let (u, mut out) = grids(n, [1, 1, 1], fold);
    let mut g = c.benchmark_group("heat3d_blocking");
    g.throughput(Throughput::Elements((n[0] * n[1] * n[2]) as u64));
    for block in [[128, 64, 64], [128, 8, 8], [32, 8, 8]] {
        let p = TuningParams::new(block, fold);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{}x{}x{}", block[0], block[1], block[2])),
            &p,
            |b, p| {
                b.iter(|| SweepRequest::new(p).apply(&s, &[&u], &mut out).unwrap());
            },
        );
    }
    g.finish();
}

/// Ablation: fast linear path vs generic interpreter (folded layout).
fn bench_fold_paths(c: &mut Criterion) {
    let n = [64, 32, 32];
    let s = box3d(1);
    let mut g = c.benchmark_group("box3d_fold_path");
    g.throughput(Throughput::Elements((n[0] * n[1] * n[2]) as u64));
    for fold in [Fold::new(8, 1, 1), Fold::new(4, 2, 1)] {
        let (u, mut out) = grids(n, [1, 1, 1], fold);
        let p = TuningParams::new([64, 8, 8], fold);
        g.bench_with_input(BenchmarkId::from_parameter(fold), &fold, |b, _| {
            b.iter(|| SweepRequest::new(&p).apply(&s, &[&u], &mut out).unwrap());
        });
    }
    g.finish();
}

/// Nonlinear (tape tier: row-vectorised register program) kernel throughput.
fn bench_tape(c: &mut Criterion) {
    let n = [1 << 16, 1, 1];
    let fold = Fold::new(8, 1, 1);
    let s = inverter_chain_rhs(5.0, 1.0, 0.5);
    let (u, mut out) = grids(n, [1, 0, 0], fold);
    let p = TuningParams::new([4096, 1, 1], fold);
    let mut g = c.benchmark_group("inverter_chain_tape");
    g.throughput(Throughput::Elements(n[0] as u64));
    g.bench_function("tape", |b| {
        b.iter(|| SweepRequest::new(&p).apply(&s, &[&u], &mut out).unwrap());
    });
    g.finish();
}

/// Regression guard for the allocation-free fast path at a memory-bound
/// size: grids far exceed LLC, so any per-row allocation or bounds-check
/// regression shows up directly in the element throughput.
fn bench_memory_bound_fastpath(c: &mut Criterion) {
    let n = [256, 128, 128];
    let fold = Fold::new(8, 1, 1);
    let p = TuningParams::new([256, 16, 16], fold);
    let mut g = c.benchmark_group("fastpath_memory_bound");
    g.throughput(Throughput::Elements((n[0] * n[1] * n[2]) as u64));
    for (name, s) in [("heat3d", heat3d(1)), ("box3d", box3d(1))] {
        let (u, mut out) = grids(n, [1, 1, 1], fold);
        g.bench_function(name, |b| {
            b.iter(|| SweepRequest::new(&p).apply(&s, &[&u], &mut out).unwrap());
        });
    }
    g.finish();
}

/// Ablation: scalar row kernels vs the folded lane kernel on the same
/// row-major layout. box3d(2) has 125 terms (dynamic scalar arity), so
/// the lane kernel's register accumulators show their compute-bound win.
fn bench_tier_ablation(c: &mut Criterion) {
    let n = [96, 48, 48];
    let fold = Fold::new(8, 1, 1);
    let s = box3d(2);
    let p = TuningParams::new([96, 8, 8], fold);
    let mut g = c.benchmark_group("box3d2_tier");
    g.throughput(Throughput::Elements((n[0] * n[1] * n[2]) as u64));
    for (name, policy) in [
        ("scalar", TierPolicy::ForceScalar),
        ("folded", TierPolicy::ForceFolded),
    ] {
        let (u, mut out) = grids(n, [2, 2, 2], fold);
        g.bench_function(name, |b| {
            b.iter(|| {
                SweepRequest::new(&p)
                    .tier(policy)
                    .apply(&s, &[&u], &mut out)
                    .unwrap()
            });
        });
    }
    g.finish();
}

/// Regression guard for the blocked wavefront at a memory-bound size:
/// depth 1 (plain sweep through the wavefront driver) vs depth 2
/// (temporal blocking engaged — per-step throughput must not collapse).
fn bench_wavefront(c: &mut Criterion) {
    let n = [256, 128, 128];
    let fold = Fold::new(8, 1, 1);
    let s = heat3d(1);
    let mut g = c.benchmark_group("wavefront_memory_bound");
    for depth in [1usize, 2] {
        let p = TuningParams::new([256, 16, 16], fold).wavefront(depth);
        let (mut a, mut b2) = grids(n, [1, 1, 1], fold);
        g.throughput(Throughput::Elements((depth * n[0] * n[1] * n[2]) as u64));
        g.bench_with_input(BenchmarkId::new("depth", depth), &p, |b, p| {
            b.iter(|| {
                SweepRequest::new(p)
                    .run_wavefront(&s, &mut a, &mut b2)
                    .unwrap()
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_blocking,
    bench_fold_paths,
    bench_tape,
    bench_memory_bound_fastpath,
    bench_tier_ablation,
    bench_wavefront
);
criterion_main!(benches);
