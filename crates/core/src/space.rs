//! The tuning-parameter search space.

use std::collections::HashSet;

use yasksite_arch::Machine;
use yasksite_engine::TuningParams;
use yasksite_grid::Fold;
use yasksite_stencil::Stencil;

/// Enumerable tuning space of one kernel: the cross product of block
/// shapes, vector folds and wavefront depths that YASK-style kernels
/// expose, pruned to sensible members.
///
/// Enumeration is *canonical*: block extents are clipped to the domain
/// and points that collapse to the same effective configuration (e.g.
/// two oversize blocks that both clip to the full domain) are emitted
/// once, in first-occurrence order. This keeps rankings free of
/// duplicates and makes candidate counts stable for the parallel tuning
/// engine's chunking.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    domain: [usize; 3],
    blocks: Vec<[usize; 3]>,
    folds: Vec<Fold>,
    wavefronts: Vec<usize>,
}

fn pow2_upto(n: usize, lo: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut b = lo;
    while b < n {
        v.push(b);
        b *= 2;
    }
    v.push(n);
    v
}

impl SearchSpace {
    /// Builds the standard space the paper's tool searches:
    ///
    /// * blocks keep x unblocked (full rows for vectorisation, YASK's
    ///   default) and sweep powers of two in y and z;
    /// * folds: the in-line fold plus the 2-D folds matching the machine's
    ///   SIMD width (multi-dim folds only for stencils with extent in y);
    /// * wavefront depths 1/2/4/8 for single-input 3-D stencils.
    #[must_use]
    pub fn standard(stencil: &Stencil, domain: [usize; 3], machine: &Machine) -> Self {
        let info = stencil.info();
        let mut blocks = Vec::new();
        for by in pow2_upto(domain[1], 4) {
            for bz in pow2_upto(domain[2], 4) {
                blocks.push([domain[0], by, bz]);
            }
        }
        blocks.dedup();

        let lanes = machine.lanes();
        let mut folds = vec![Fold::new(lanes, 1, 1)];
        if info.radius[1] > 0 {
            for f in Fold::candidates(lanes) {
                if f.z == 1 && f.y > 1 && f.x > 1 {
                    folds.push(f);
                }
            }
        }

        let mut wavefronts = vec![1];
        if stencil.num_inputs() == 1 && domain[2] > 1 {
            wavefronts.extend([2, 4, 8]);
        }
        SearchSpace {
            domain,
            blocks,
            folds,
            wavefronts,
        }
    }

    /// A reduced space without temporal blocking (used by experiments that
    /// isolate spatial effects).
    #[must_use]
    pub fn spatial_only(stencil: &Stencil, domain: [usize; 3], machine: &Machine) -> Self {
        let mut s = Self::standard(stencil, domain, machine);
        s.wavefronts = vec![1];
        s
    }

    /// Restricts the space to a single fold (ablation).
    #[must_use]
    pub fn with_folds(mut self, folds: Vec<Fold>) -> Self {
        self.folds = folds;
        self
    }

    /// Replaces the block list with caller-chosen shapes (sweeps,
    /// ablations). Shapes may exceed the domain; enumeration clips them
    /// and drops the duplicates the clipping creates.
    #[must_use]
    pub fn with_blocks(mut self, blocks: Vec<[usize; 3]>) -> Self {
        self.blocks = blocks;
        self
    }

    /// The domain the space was built for.
    #[must_use]
    pub fn domain(&self) -> [usize; 3] {
        self.domain
    }

    /// Enumerates all candidate parameter sets for `threads` cores, in a
    /// deterministic order: blocks × folds × wavefronts as listed, with
    /// block extents clipped to the domain and configurations that
    /// collapse to the same effective point emitted only once (first
    /// occurrence wins).
    ///
    /// Folds that do not [`Fold::fits`] the domain are rejected here,
    /// mirroring how oversize blocks are clipped: a fold wider than the
    /// grid would force a degenerate layout, so it never becomes a
    /// candidate (unlike blocks, folds cannot be clipped — the layout is
    /// all-or-nothing).
    #[must_use]
    pub fn candidates(&self, threads: usize) -> Vec<TuningParams> {
        let mut seen: HashSet<TuningParams> = HashSet::new();
        let mut out = Vec::new();
        for &b in &self.blocks {
            for &f in &self.folds {
                if !f.fits(self.domain) {
                    continue;
                }
                for &w in &self.wavefronts {
                    let mut p = TuningParams::new(b, f).threads(threads).wavefront(w);
                    p.block = p.clipped_block(self.domain);
                    if seen.insert(p.clone()) {
                        out.push(p);
                    }
                }
            }
        }
        out
    }

    /// Number of distinct candidates per thread count (after clipping and
    /// dedup — always equal to `candidates(t).len()` for any `t`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.candidates(1).len()
    }

    /// Whether the space is empty (never, for valid inputs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
            || self.folds.is_empty()
            || self.wavefronts.is_empty()
            || self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_stencil::builders::{heat2d, heat3d, inverter_chain_rhs, wave2d};

    #[test]
    fn space_covers_blocks_folds_wavefronts() {
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        let sp = SearchSpace::standard(&s, [128, 64, 64], &m);
        // y: 4,8,16,32,64 (5) x z: 5 = 25 blocks.
        assert_eq!(sp.blocks.len(), 25);
        let c = sp.candidates(4);
        assert_eq!(c.len(), sp.len());
        assert!(c.iter().all(|p| p.threads == 4));
        assert!(c.iter().any(|p| p.wavefront == 4));
        assert!(c.iter().any(|p| p.fold == Fold::new(4, 2, 1)));
    }

    #[test]
    fn two_input_stencils_get_no_wavefront() {
        let m = Machine::cascade_lake();
        let sp = SearchSpace::standard(&wave2d(0.3), [128, 128, 1], &m);
        assert!(sp.candidates(1).iter().all(|p| p.wavefront == 1));
    }

    #[test]
    fn one_dim_stencils_get_inline_fold_only() {
        let m = Machine::cascade_lake();
        let sp = SearchSpace::standard(&inverter_chain_rhs(5.0, 1.0, 1.0), [1024, 1, 1], &m);
        assert!(sp
            .candidates(1)
            .iter()
            .all(|p| p.fold == Fold::new(8, 1, 1)));
    }

    #[test]
    fn rome_uses_four_lane_folds() {
        let m = Machine::rome();
        let sp = SearchSpace::standard(&heat2d(1), [256, 256, 1], &m);
        assert!(sp
            .candidates(1)
            .iter()
            .any(|p| p.fold == Fold::new(2, 2, 1)));
        assert!(sp.candidates(1).iter().all(|p| p.fold.elems() == 4));
    }

    #[test]
    fn spatial_only_strips_wavefronts() {
        let m = Machine::cascade_lake();
        let sp = SearchSpace::spatial_only(&heat3d(1), [64, 64, 64], &m);
        assert!(sp.candidates(1).iter().all(|p| p.wavefront == 1));
        assert!(!sp.is_empty());
    }

    #[test]
    fn oversize_blocks_are_clipped_and_deduped() {
        // Regression: blocks exceeding the grid collapse to the same
        // effective configuration and used to be enumerated repeatedly,
        // skewing rankings and the parallel engine's chunk accounting.
        let m = Machine::cascade_lake();
        let sp = SearchSpace::spatial_only(&heat3d(1), [64, 32, 32], &m).with_blocks(vec![
            [64, 32, 32],
            [64, 64, 32],   // y clips to 32 -> duplicate of the first
            [128, 999, 64], // everything clips to the domain -> duplicate
            [64, 16, 32],   // genuinely distinct
        ]);
        let c = sp.candidates(1);
        let folds = sp.folds.len();
        assert_eq!(
            c.len(),
            2 * folds,
            "four raw blocks collapse to two effective ones"
        );
        assert!(c
            .iter()
            .all(|p| { p.block[0] <= 64 && p.block[1] <= 32 && p.block[2] <= 32 }));
        // No two emitted candidates are equal.
        let mut uniq = HashSet::new();
        assert!(c.iter().all(|p| uniq.insert(p.clone())));
        // len() reports the deduped count.
        assert_eq!(sp.len(), c.len());
    }

    #[test]
    fn folds_exceeding_the_domain_are_rejected() {
        // A 16-lane fold cannot tile a 12-point x extent; enumeration
        // must drop it the way it clips oversize blocks, keeping only
        // the folds that fit.
        let m = Machine::cascade_lake();
        let sp = SearchSpace::spatial_only(&heat3d(1), [12, 8, 8], &m)
            .with_folds(vec![Fold::new(16, 1, 1), Fold::new(8, 1, 1)]);
        let c = sp.candidates(1);
        assert!(!c.is_empty());
        assert!(c.iter().all(|p| p.fold == Fold::new(8, 1, 1)));

        // When nothing fits, the space is honestly empty.
        let none = SearchSpace::spatial_only(&heat3d(1), [12, 8, 8], &m)
            .with_folds(vec![Fold::new(16, 1, 1)]);
        assert!(none.is_empty());
        assert!(none.candidates(1).is_empty());
    }

    #[test]
    fn dedup_keeps_first_occurrence_order() {
        let m = Machine::cascade_lake();
        let sp = SearchSpace::spatial_only(&heat3d(1), [64, 32, 32], &m)
            .with_blocks(vec![[64, 16, 32], [64, 64, 64], [64, 32, 32]])
            .with_folds(vec![Fold::new(8, 1, 1)]);
        let c = sp.candidates(1);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].block, [64, 16, 32], "enumeration order is preserved");
        assert_eq!(c[1].block, [64, 32, 32]);
    }
}
