//! Layer conditions: which cache level captures a stencil's vertical reuse.

use yasksite_arch::{CacheLevel, Machine};
use yasksite_stencil::StencilInfo;

/// Degree of reuse a cache level captures for one input grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerStatus {
    /// The full set of concurrently live grid *layers* (z-planes of the
    /// iteration tile) fits: every input element is loaded once per tile
    /// traversal (3-D layer condition holds).
    Layers,
    /// Only the concurrently live *rows* fit: elements are reloaded once
    /// per distinct z-layer access (2-D layer condition).
    Rows,
    /// Not even the rows fit: every distinct access offset causes its own
    /// transfer.
    None,
}

/// Layer-condition evaluation for one input grid at every cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct LcReport {
    /// Status per cache level, index 0 = L1.
    pub status: Vec<LayerStatus>,
    /// The working-set bytes required for the 3-D (layers) condition.
    pub ws_layers_bytes: f64,
    /// The working-set bytes required for the 2-D (rows) condition.
    pub ws_rows_bytes: f64,
}

/// Fraction of a cache level's capacity usable by one stream set before
/// conflict/replacement noise breaks the condition; the customary safety
/// factor in layer-condition analyses.
pub const CAPACITY_SAFETY: f64 = 0.5;

/// The bytes of `cache` one of `ncores` active cores can count on: its
/// capacity times [`CAPACITY_SAFETY`], split among the active cores that
/// share the level.
#[must_use]
pub fn effective_capacity(cache: &CacheLevel, machine: &Machine, ncores: usize) -> f64 {
    let sharers = cache.scope.sharers(machine.cores_per_socket);
    let users = sharers.min(ncores).max(1);
    cache.size_bytes as f64 * CAPACITY_SAFETY / users as f64
}

/// Evaluates the layer conditions of input grid `g` of stencil `info` for a
/// tile of `tile = [tx, ty, tz]` lattice points (the iteration tile at
/// which the traversal streams: the spatial block, clipped to the domain),
/// shared among `cores_per_instance[l]` cores at each level.
///
/// The working sets follow the standard analysis for x-inner/y-mid/z-outer
/// traversal:
/// * 3-D condition: `layers_read` tile-sized xy-planes (with x-halo) stay
///   live while z advances;
/// * 2-D condition: `rows_read` x-rows (with halo) stay live while y
///   advances.
#[must_use]
pub fn layer_conditions(
    info: &StencilInfo,
    g: usize,
    tile: [usize; 3],
    machine: &Machine,
    ncores: usize,
) -> LcReport {
    let (lo_x, hi_x) = info.extent(g, 0);
    let tx_h = tile[0] as f64 + f64::from(hi_x - lo_x);
    let (lo_y, hi_y) = info.extent(g, 1);
    let ty_h = tile[1] as f64 + f64::from(hi_y - lo_y);
    let layers = info.layers_read(g) as f64;
    let rows = info.rows_read(g) as f64;

    let ws_layers = layers * tx_h * ty_h * 8.0;
    let ws_rows = rows * tx_h * 8.0;

    let status = machine
        .caches
        .iter()
        .map(|c| {
            let eff = effective_capacity(c, machine, ncores);
            if ws_layers <= eff {
                LayerStatus::Layers
            } else if ws_rows <= eff {
                LayerStatus::Rows
            } else {
                LayerStatus::None
            }
        })
        .collect();
    LcReport {
        status,
        ws_layers_bytes: ws_layers,
        ws_rows_bytes: ws_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_stencil::builders::heat3d;

    #[test]
    fn small_tile_satisfies_everything() {
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        let r = layer_conditions(&s.info(), 0, [64, 8, 8], &m, 1);
        assert_eq!(r.status[0], LayerStatus::Layers); // 3*66*10*8 = 15.8 KB < 16 KB
        assert_eq!(r.status[1], LayerStatus::Layers);
        assert_eq!(r.status[2], LayerStatus::Layers);
    }

    #[test]
    fn huge_plane_breaks_l1_and_l2() {
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        // 1024x1024 xy-plane: 3 layers = 25 MB -> only L3 can hold layers.
        let r = layer_conditions(&s.info(), 0, [1024, 1024, 1024], &m, 1);
        assert_eq!(r.status[0], LayerStatus::None); // rows = 5*1026*8 = 41 KB > 16 KB
        assert_eq!(r.status[1], LayerStatus::Rows);
        assert_ne!(r.status[2], LayerStatus::Layers); // 25 MB > 14 MB eff
    }

    #[test]
    fn sharing_reduces_effective_capacity() {
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        // 512x512 plane: 3 layers ~ 6.3 MB; fits 14 MB eff L3 at 1 core,
        // not 0.7 MB/core at 20 cores.
        let one = layer_conditions(&s.info(), 0, [512, 512, 512], &m, 1);
        let twenty = layer_conditions(&s.info(), 0, [512, 512, 512], &m, 20);
        assert_eq!(one.status[2], LayerStatus::Layers);
        assert_ne!(twenty.status[2], LayerStatus::Layers);
    }

    #[test]
    fn working_sets_scale_with_tile() {
        let m = Machine::rome();
        let s = heat3d(1);
        let a = layer_conditions(&s.info(), 0, [128, 128, 128], &m, 1);
        let b = layer_conditions(&s.info(), 0, [256, 256, 256], &m, 1);
        assert!(b.ws_layers_bytes > 3.9 * a.ws_layers_bytes);
        assert!(b.ws_rows_bytes > 1.9 * a.ws_rows_bytes);
    }
}
