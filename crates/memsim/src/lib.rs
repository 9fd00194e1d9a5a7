//! Execution-driven memory-hierarchy simulator.
//!
//! The paper evaluates on 20-core Cascade Lake and 64-core Rome sockets;
//! this reproduction has neither, so "measured" performance comes from
//! simulating the kernels' memory behaviour against the same hierarchy
//! parameters. The simulator models set-associative, LRU, write-back /
//! write-allocate caches with per-core private L1/L2 and shared (or
//! CCX-grouped) L3, including Skylake-style *victim* L3 semantics, and
//! counts the line traffic crossing every level boundary.
//!
//! Counted traffic is converted to wall time by [`compose_time`], which
//! charges each boundary with the machine's per-line transfer cost and the
//! memory interface with both the per-core and the saturated socket
//! bandwidth — the same decomposition the ECM model uses analytically, but
//! fed with *observed* line counts instead of layer-condition predictions.
//! Comparing the two is exactly the model-validation experiment of the
//! paper.
//!
//! [`MemHierarchy`] is the whole interface: accesses go in one line at a
//! time ([`MemHierarchy::read`], [`MemHierarchy::write`],
//! [`MemHierarchy::write_nt`]) or as a run of consecutive lines
//! ([`MemHierarchy::access_run`]), counters come out as
//! [`HierarchyStats`]. How a cache level stores its sets is private to
//! this crate.
//!
//! # Examples
//!
//! ```
//! use yasksite_arch::Machine;
//! use yasksite_memsim::MemHierarchy;
//!
//! let mut h = MemHierarchy::new(&Machine::cascade_lake(), 1);
//! h.read(0, 0x1000);
//! h.read(0, 0x1008);            // same 64-byte line: L1 hit
//! let s = h.stats();
//! assert_eq!(s.level[0].hits, 1);
//! assert_eq!(s.level[0].misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod time;

pub use hierarchy::{Access, HierarchyStats, LevelStats, MemHierarchy};
pub use time::{compose_time, CoreWork, TimeBreakdown};
