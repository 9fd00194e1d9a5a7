//! Tuning parameters — the search space of the YaskSite tool.

use std::fmt;

use yasksite_grid::Fold;

/// The tunable execution parameters of one kernel, mirroring YASK's knob
/// set: spatial block sizes, the vector fold, thread count, wavefront depth
/// and the store policy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TuningParams {
    /// Spatial block extents `[bx, by, bz]` in lattice points.
    pub block: [usize; 3],
    /// Sub-block extents nested inside each block (`None` = no inner
    /// tiling). YASK's sub-blocks tile a block for the L1/L2 levels the
    /// outer block leaves uncovered.
    pub sub_block: Option<[usize; 3]>,
    /// Vector fold (memory layout + SIMD brick shape).
    pub fold: Fold,
    /// Number of worker threads / simulated cores.
    pub threads: usize,
    /// Temporal-blocking depth: time steps fused per wavefront sweep
    /// (1 = plain spatial blocking). On an ODE step plan, any depth above
    /// 1 means: run the step's ops as one tiled pass (a
    /// [`crate::PreparedChain`]) in y-tiles of `block[1] × threads` rows,
    /// when every op runs on the linear row kernel — up to `wavefront`
    /// steps per pass, of which one step is implemented. Results never
    /// depend on it.
    pub wavefront: usize,
    /// Use non-temporal (streaming) stores.
    pub streaming_stores: bool,
}

impl TuningParams {
    /// Creates parameters with the given block and fold; one thread, no
    /// temporal blocking, regular stores.
    #[must_use]
    pub fn new(block: [usize; 3], fold: Fold) -> Self {
        TuningParams {
            block,
            sub_block: None,
            fold,
            threads: 1,
            wavefront: 1,
            streaming_stores: false,
        }
    }

    /// Sets the nested sub-block extents.
    #[must_use]
    pub fn sub_block(mut self, sb: [usize; 3]) -> Self {
        self.sub_block = Some(sb);
        self
    }

    /// Sets the thread / simulated-core count.
    #[must_use]
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Sets the wavefront depth.
    #[must_use]
    pub fn wavefront(mut self, w: usize) -> Self {
        self.wavefront = w;
        self
    }

    /// Sets the store policy.
    #[must_use]
    pub fn streaming_stores(mut self, on: bool) -> Self {
        self.streaming_stores = on;
        self
    }

    /// Block extents clipped to a domain.
    #[must_use]
    pub fn clipped_block(&self, domain: [usize; 3]) -> [usize; 3] {
        [
            self.block[0].clamp(1, domain[0]),
            self.block[1].clamp(1, domain[1]),
            self.block[2].clamp(1, domain[2]),
        ]
    }

    /// Validates against a domain.
    ///
    /// # Errors
    /// Returns a reason string if any extent or count is zero.
    pub fn validate(&self, domain: [usize; 3]) -> Result<(), String> {
        if self.block.contains(&0) {
            return Err("block extents must be positive".into());
        }
        if let Some(sb) = self.sub_block {
            if sb.contains(&0) {
                return Err("sub-block extents must be positive".into());
            }
        }
        if self.threads == 0 {
            return Err("thread count must be positive".into());
        }
        if self.wavefront == 0 {
            return Err("wavefront depth must be positive".into());
        }
        if domain.contains(&0) {
            return Err("domain extents must be positive".into());
        }
        Ok(())
    }

    /// Whether this fold keeps storage row-major (`fy == fz == 1`), which
    /// enables the engine's fast native path and thread slabs.
    #[must_use]
    pub fn row_major(&self) -> bool {
        self.fold.y == 1 && self.fold.z == 1
    }
}

/// Splits `total` units into at most `parts` contiguous, non-empty
/// `(start, end)` ranges — the decomposition every threaded native path
/// uses (z-blocks into slabs, y-blocks into plane chunks).
///
/// The split depends only on `(total, parts)` — the requested thread
/// count from [`TuningParams::threads`] — and never on how many pool
/// workers execute the ranges, which is what keeps native results
/// bitwise reproducible for any pool size.
pub(crate) fn chunk_ranges(total: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, total.max(1));
    let mut out = Vec::with_capacity(parts);
    for t in 0..parts {
        let b0 = t * total / parts;
        let b1 = (t + 1) * total / parts;
        if b0 != b1 {
            out.push((b0, b1));
        }
    }
    out
}

impl fmt::Display for TuningParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b={}x{}x{}{} fold={} t={} wf={}{}",
            self.block[0],
            self.block[1],
            self.block[2],
            self.sub_block
                .map(|s| format!("/sb={}x{}x{}", s[0], s[1], s[2]))
                .unwrap_or_default(),
            self.fold,
            self.threads,
            self.wavefront,
            if self.streaming_stores { " nt" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1))
            .threads(4)
            .wavefront(3)
            .streaming_stores(true);
        assert_eq!(p.threads, 4);
        assert_eq!(p.wavefront, 3);
        assert!(p.streaming_stores);
        assert!(p.row_major());
    }

    #[test]
    fn clipping() {
        let p = TuningParams::new([64, 64, 64], Fold::unit());
        assert_eq!(p.clipped_block([32, 128, 1]), [32, 64, 1]);
    }

    #[test]
    fn validation() {
        let p = TuningParams::new([0, 8, 8], Fold::unit());
        assert!(p.validate([16, 16, 16]).is_err());
        let p = TuningParams::new([8, 8, 8], Fold::unit()).threads(0);
        assert!(p.validate([16, 16, 16]).is_err());
        let p = TuningParams::new([8, 8, 8], Fold::unit());
        assert!(p.validate([16, 16, 16]).is_ok());
    }

    #[test]
    fn multi_dim_fold_not_row_major() {
        assert!(!TuningParams::new([8, 8, 8], Fold::new(4, 2, 1)).row_major());
    }

    #[test]
    fn display_compact() {
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1)).wavefront(2);
        assert_eq!(p.to_string(), "b=64x8x8 fold=8x1x1 t=1 wf=2");
        let p = p.sub_block([16, 4, 4]);
        assert_eq!(p.to_string(), "b=64x8x8/sb=16x4x4 fold=8x1x1 t=1 wf=2");
    }

    #[test]
    fn chunk_ranges_cover_exactly_and_never_exceed_parts() {
        for total in 0..40usize {
            for parts in 1..9usize {
                let r = chunk_ranges(total, parts);
                assert!(r.len() <= parts);
                assert!(r.iter().all(|&(a, b)| a < b));
                let covered: usize = r.iter().map(|&(a, b)| b - a).sum();
                assert_eq!(covered, total, "total={total} parts={parts}");
                for w in r.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
                }
            }
        }
    }

    #[test]
    fn zero_sub_block_rejected() {
        let p = TuningParams::new([8, 8, 8], Fold::unit()).sub_block([0, 4, 4]);
        assert!(p.validate([16, 16, 16]).is_err());
    }
}
