//! The in-core part of the ECM model: `T_OL` and `T_nOL`.

use std::collections::BTreeSet;

use yasksite_arch::PortModel;
use yasksite_grid::Fold;
use yasksite_stencil::StencilInfo;

/// In-core cycle counts per **unit of work** (one 64-byte cache line of
/// results, i.e. 8 double-precision lattice updates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InCore {
    /// Overlapping part: arithmetic (FMA/ADD/MUL) plus any fold shuffles,
    /// which can overlap with data transfers.
    pub t_ol: f64,
    /// Non-overlapping part: load/store issue cycles, which serialise with
    /// cache transfers on Intel-style cores.
    pub t_nol: f64,
    /// Vector-load issue slots consumed per unit of work (diagnostics).
    pub loads: f64,
    /// Vector stores issued per unit of work.
    pub stores: f64,
    /// Cross-brick permutes per unit of work caused by the fold.
    pub permutes: f64,
}

/// Updates per unit of work: one cache line of `f64` results.
pub const UPDATES_PER_UNIT: f64 = 8.0;

/// Throughput of the shuffle/blend resources (instructions per cycle).
const PERMUTE_THROUGHPUT: f64 = 2.0;

/// Average extra load-issue cost of a vector load that is not aligned to
/// the linear layout (it straddles two cache lines half the time).
pub const UNALIGNED_LOAD_COST: f64 = 1.5;

/// Address-generation cycles one access through `Grid3::idx` costs on the
/// per-point path: three divisions and three modulos by run-time fold
/// extents ahead of every load and store. Sized from the host measurement
/// of heat-3d-r1 at 256³ on that path, 52 ns per update (EXPERIMENTS.md
/// E17): 140 cycles at the host model's 2.7 GHz, of which the scalar
/// loads, arithmetic and memory transfers already priced account for
/// about 6, spread over the update's 7 loads and 1 store.
pub const IDX_CYCLES_PER_ACCESS: f64 = 17.0;

/// Computes the in-core model for `info` executed with SIMD `fold` on a
/// core described by `ports`.
///
/// Two layout regimes are modelled, following YASK's vector folding:
///
/// * **In-line layout** (`fold.x == lanes`): memory is linear along x, so
///   every read offset is a single (possibly unaligned) vector load;
///   x-unaligned loads are charged [`UNALIGNED_LOAD_COST`] issue slots for
///   their cache-line straddling. No shuffles are needed.
/// * **Multi-dimensional folds**: each offset's operand is assembled from
///   whole aligned bricks. Offsets mapping into the same bricks *share*
///   loads (the folding pay-off, dramatic for dense box stencils), but
///   every non-brick-aligned offset costs a permute on the shuffle port.
///   This branch is the reference for what a true fold kernel would earn;
///   the engine's brick-gather kernel does not assemble operands from
///   whole bricks, and the predictor charges it [`Issue::Scalar`].
#[must_use]
pub fn incore(info: &StencilInfo, ports: &PortModel, fold: Fold) -> InCore {
    incore_with_issue(info, ports, fold, Issue::Vector)
}

/// How the kernel that runs a configuration issues its work — which rung
/// of the engine's tier ladder the in-core model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Issue {
    /// Explicitly vectorised kernels (the folded and scalar-row tiers):
    /// one FMA-fused vector iteration per `lanes` updates.
    #[default]
    Vector,
    /// One lattice point per instruction: every offset is one scalar
    /// load, every update one scalar store, and the unit of work takes
    /// `lanes` times as many iterations — no alignment penalties and no
    /// fold permutes, because scalar accesses never straddle lanes. This
    /// is what the engine's brick-gather kernel executes on a
    /// multi-dimensional fold (one table-addressed scalar load and one
    /// scalar multiply-add per term and lane); the shared-brick loads the
    /// [`Issue::Vector`] branch credits such a fold with are what a kernel
    /// assembling its operands from whole bricks would earn.
    Scalar,
    /// [`Issue::Scalar`] through the layout-agnostic grid accessors (the
    /// engine's per-point generic path): every load and store additionally
    /// computes its folded storage index — a divide and a modulo per
    /// dimension — costing [`IDX_CYCLES_PER_ACCESS`] non-overlapping
    /// cycles each.
    PerPoint,
    /// The tape tier's register program: `instructions` arithmetic
    /// instructions per point (after value numbering), each its own loop
    /// over a row chunk that reads two operand rows and writes one result
    /// row in L1 — nothing is fused into an FMA and no value stays in a
    /// register between instructions. The loops are plain compiled code,
    /// so `lanes` is the SIMD width of the *build*, not of the machine.
    Program {
        /// Instructions per point.
        instructions: usize,
        /// `f64` lanes per auto-vectorised loop iteration.
        lanes: usize,
    },
}

/// Like [`incore`], but for an explicit [`Issue`] regime, so the
/// tier-aware predictor credits a configuration only with the throughput
/// of the kernel the engine would actually run.
#[must_use]
pub fn incore_with_issue(
    info: &StencilInfo,
    ports: &PortModel,
    fold: Fold,
    issue: Issue,
) -> InCore {
    match issue {
        Issue::Vector => {}
        Issue::Scalar | Issue::PerPoint => {
            // One scalar iteration per lattice update: vec_iters becomes
            // the full unit of work, one aligned load per offset, no
            // shuffles.
            let iters = UPDATES_PER_UNIT;
            let loads = info.offsets.len() as f64;
            let stores = 1.0;
            let arith = ports.arith_cycles(
                info.fmas as f64,
                (info.adds_rem + info.negs) as f64,
                info.muls_rem as f64,
            );
            let addressing = if issue == Issue::PerPoint {
                IDX_CYCLES_PER_ACCESS * (loads + stores)
            } else {
                0.0
            };
            return InCore {
                t_ol: arith * iters,
                t_nol: (ports.mem_cycles(loads, stores) + addressing) * iters,
                loads: loads * iters,
                stores: stores * iters,
                permutes: 0.0,
            };
        }
        Issue::Program {
            instructions,
            lanes,
        } => {
            let iters = UPDATES_PER_UNIT / lanes as f64;
            let n = instructions as f64;
            // Priced on the FMA ports (where multiplies must go and adds
            // may); either way the two loads and one store per
            // instruction are what bind.
            return InCore {
                t_ol: ports.arith_cycles(0.0, 0.0, n) * iters,
                t_nol: ports.mem_cycles(2.0 * n, n) * iters,
                loads: 2.0 * n * iters,
                stores: n * iters,
                permutes: 0.0,
            };
        }
    }
    let lanes = ports.simd.lanes_f64() as f64;
    // Vector iterations per unit of work (a 512-bit machine does one
    // 8-lane iteration per output line; a 256-bit machine needs two).
    let vec_iters = UPDATES_PER_UNIT / lanes;

    let f = fold.to_array();
    let inline_layout = fold.x * fold.y * fold.z == 1 || fold.x >= lanes as usize;
    let mut loads = 0.0;
    let mut permutes = 0.0;
    if inline_layout {
        for (_, off) in &info.offsets {
            loads += if off[0] % lanes as i32 == 0 {
                1.0
            } else {
                UNALIGNED_LOAD_COST
            };
        }
    } else {
        // Distinct bricks covering all offsets share one load each.
        let mut bricks: BTreeSet<(usize, [i32; 3])> = BTreeSet::new();
        for (g, off) in &info.offsets {
            let mut lo = [0i32; 3];
            let mut hi = [0i32; 3];
            for d in 0..3 {
                let fd = f[d] as i32;
                lo[d] = off[d].div_euclid(fd);
                hi[d] = (off[d] + fd - 1).div_euclid(fd);
            }
            for bz in lo[2]..=hi[2] {
                for by in lo[1]..=hi[1] {
                    for bx in lo[0]..=hi[0] {
                        bricks.insert((*g, [bx, by, bz]));
                    }
                }
            }
            let aligned = (0..3).all(|d| off[d].rem_euclid(f[d] as i32) == 0);
            if !aligned {
                permutes += 1.0;
            }
        }
        loads = bricks.len() as f64;
    }
    let stores = 1.0;

    let arith = ports.arith_cycles(
        info.fmas as f64,
        (info.adds_rem + info.negs) as f64,
        info.muls_rem as f64,
    );
    let shuffle = permutes / PERMUTE_THROUGHPUT;
    let t_ol = (arith + shuffle) * vec_iters;
    let t_nol = ports.mem_cycles(loads, stores) * vec_iters;
    InCore {
        t_ol,
        t_nol,
        loads: loads * vec_iters,
        stores: stores * vec_iters,
        permutes: permutes * vec_iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_arch::Machine;
    use yasksite_stencil::builders::{box3d, heat3d};

    #[test]
    fn heat3d_inline_fold_on_clx() {
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        let ic = incore(&s.info(), &m.ports, Fold::new(8, 1, 1));
        // In-line: 5 aligned offsets + 2 x-unaligned at 1.5 slots = 8.
        assert!((ic.loads - 8.0).abs() < 1e-12);
        assert_eq!(ic.permutes, 0.0);
        // Arithmetic: 2 FMA + 4 ADD on 2 ports = 3 cy, no shuffles.
        assert!((ic.t_ol - 3.0).abs() < 1e-12);
        // max(8/2, 1/1, 9/3) = 4 cy.
        assert!((ic.t_nol - 4.0).abs() < 1e-12);
    }

    #[test]
    fn heat3d_2d_fold_shares_bricks() {
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        let ic = incore(&s.info(), &m.ports, Fold::new(4, 2, 1));
        // Bricks: centre, x±1 (2 extra), y±1 (2 extra), z±1 (2) = 7 loads;
        // 4 unaligned offsets need permutes.
        assert!((ic.loads - 7.0).abs() < 1e-12);
        assert!((ic.permutes - 4.0).abs() < 1e-12);
        // t_ol = 3 (arith) + 4/2 (shuffle) = 5.
        assert!((ic.t_ol - 5.0).abs() < 1e-12);
        // t_nol = max(7/2, 1, 8/3) = 3.5 < in-line's 4.0.
        assert!((ic.t_nol - 3.5).abs() < 1e-12);
    }

    #[test]
    fn box_stencil_folding_slashes_load_count() {
        let m = Machine::cascade_lake();
        let s = box3d(1);
        let inline = incore(&s.info(), &m.ports, Fold::new(8, 1, 1));
        let folded = incore(&s.info(), &m.ports, Fold::new(4, 2, 1));
        // In-line: 9 aligned + 18 unaligned*1.5 = 36 slots.
        assert!((inline.loads - 36.0).abs() < 1e-12);
        // Folded: brick union is 3x3x3 = 27 loads (one per brick, shared
        // among the 27 offsets), still below the in-line slot count.
        assert!((folded.loads - 27.0).abs() < 1e-12);
        assert!(folded.t_nol < inline.t_nol);
    }

    #[test]
    fn avx2_doubles_vector_iterations() {
        let rome = Machine::rome();
        let clx = Machine::cascade_lake();
        let s = heat3d(1);
        let a = incore(&s.info(), &rome.ports, Fold::new(4, 1, 1));
        let b = incore(&s.info(), &clx.ports, Fold::new(8, 1, 1));
        // Rome runs 2 vector iterations per unit of work.
        assert!((a.stores - 2.0).abs() < 1e-12);
        assert!((b.stores - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_issue_loses_the_simd_speedup() {
        // The generic per-point tier must never be credited with SIMD
        // throughput: its in-core time is lanes× the vectorised kernel's
        // iteration count (8 scalar iterations per unit of work on CLX)
        // and it pays no permutes or alignment penalties.
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        let vec = incore(&s.info(), &m.ports, Fold::new(8, 1, 1));
        let scalar = incore_with_issue(&s.info(), &m.ports, Fold::new(8, 1, 1), Issue::Vector);
        assert_eq!(vec, scalar, "flag off is the plain model");
        let generic = incore_with_issue(&s.info(), &m.ports, Fold::new(8, 1, 1), Issue::Scalar);
        assert!(generic.t_ol > vec.t_ol * 4.0);
        assert!(generic.t_nol > vec.t_nol);
        assert_eq!(generic.permutes, 0.0);
        // 7 offsets × 8 iterations, one aligned load each.
        assert!((generic.loads - 56.0).abs() < 1e-12);
    }

    #[test]
    fn per_point_issue_adds_index_arithmetic_to_every_access() {
        let m = Machine::cascade_lake();
        let info = heat3d(1).info();
        let fold = Fold::new(4, 2, 1);
        let scalar = incore_with_issue(&info, &m.ports, fold, Issue::Scalar);
        let point = incore_with_issue(&info, &m.ports, fold, Issue::PerPoint);
        // 7 loads + 1 store per update, 8 updates per unit of work.
        let extra = IDX_CYCLES_PER_ACCESS * 8.0 * UPDATES_PER_UNIT;
        assert!((point.t_nol - scalar.t_nol - extra).abs() < 1e-9);
        assert_eq!(point.t_ol, scalar.t_ol);
        assert_eq!((point.loads, point.stores), (scalar.loads, scalar.stores));
        // The reference fold model stays what a whole-brick kernel earns.
        let ideal = incore(&info, &m.ports, fold);
        assert!(ideal.t_nol < scalar.t_nol && scalar.t_nol < point.t_nol);
    }

    #[test]
    fn register_program_pays_two_loads_and_a_store_per_instruction() {
        let m = Machine::cascade_lake();
        let info = heat3d(1).info(); // ignored: the program is the kernel
        let at = |instructions, lanes| {
            let issue = Issue::Program {
                instructions,
                lanes,
            };
            incore_with_issue(&info, &m.ports, Fold::new(8, 1, 1), issue)
        };
        // 6 instructions at 8 lanes, one iteration per unit of work:
        // 12 loads / 2 ports = 6 stores / 1 port = 6 cy; 6 ops / 2 = 3 cy.
        let wide = at(6, 8);
        assert!((wide.t_nol - 6.0).abs() < 1e-12);
        assert!((wide.t_ol - 3.0).abs() < 1e-12);
        assert!((wide.loads - 12.0).abs() < 1e-12 && (wide.stores - 6.0).abs() < 1e-12);
        assert_eq!(wide.permutes, 0.0);
        // A 2-lane build runs four iterations per unit of work; the cost
        // is linear in the instruction count.
        assert!((at(6, 2).t_nol - 24.0).abs() < 1e-12);
        assert!((at(18, 2).t_nol - 72.0).abs() < 1e-12);
    }

    #[test]
    fn unit_fold_is_inline_scalar_layout() {
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        let ic = incore(&s.info(), &m.ports, Fold::unit());
        assert_eq!(ic.permutes, 0.0);
        assert!(ic.loads > 0.0);
    }
}
