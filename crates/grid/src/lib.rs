//! Folded grids with halos — the data substrate of the YaskSite reproduction.
//!
//! YASK stores grids in a *vector-folded* layout: the domain is tiled into
//! small SIMD-sized bricks (e.g. 4×2×1 doubles for AVX-512), the elements of
//! one brick are contiguous in memory, and the bricks themselves are laid out
//! in x-fastest order. Folding turns the scattered neighbour accesses of a
//! stencil into whole-vector loads and is one of the tuning parameters the
//! paper's tool selects. This crate implements that layout ([`Grid3`],
//! [`Fold`]) together with halo management and the synthetic byte addresses
//! that feed the cache simulator.
//!
//! Grids are always 3-dimensional; lower-dimensional problems use extent 1 in
//! the unused dimensions, exactly like YASK does.
//!
//! # Examples
//!
//! ```
//! use yasksite_grid::{Fold, Grid3};
//!
//! let mut g = Grid3::new("u", [16, 8, 8], [1, 1, 1], Fold::new(8, 1, 1));
//! g.set(0, 0, 0, 3.5);
//! assert_eq!(g.get(0, 0, 0), 3.5);
//! // Halo points are addressable with negative coordinates:
//! g.set(-1, 0, 0, 1.0);
//! assert_eq!(g.get(-1, 0, 0), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fold;
mod grid;

pub use fold::Fold;
pub use grid::{all_finite, AddressSpace, Grid3, GridError};

/// Size of one `f64` element in bytes.
pub const ELEM_BYTES: usize = 8;
