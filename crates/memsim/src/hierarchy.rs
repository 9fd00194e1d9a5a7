//! Multi-level, multi-core hierarchy orchestration.

use yasksite_arch::{InclusionPolicy, Machine};

use crate::cache::{CacheSim, Evicted};

/// Aggregated hit/miss/writeback counts of one hierarchy level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Lookups that hit this level.
    pub hits: u64,
    /// Lookups that missed this level.
    pub misses: u64,
    /// Lines this level pushed downward on eviction (writebacks and victim
    /// inserts).
    pub down_lines: u64,
}

/// Snapshot of all traffic counters of a [`MemHierarchy`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierarchyStats {
    /// Per-level aggregate counts, index 0 = L1.
    pub level: Vec<LevelStats>,
    /// Lines crossing boundary `b` (between level `b` and level `b+1`;
    /// the last boundary is last-level-cache ↔ memory), per core, both
    /// directions summed.
    pub boundary_lines: Vec<Vec<u64>>,
    /// Total lines read from memory.
    pub mem_read_lines: u64,
    /// Total (dirty) lines written back to memory.
    pub mem_write_lines: u64,
    /// Total accesses issued.
    pub accesses: u64,
}

impl HierarchyStats {
    /// Total bytes moved across the memory interface.
    #[must_use]
    pub fn mem_bytes(&self, line_bytes: usize) -> f64 {
        (self.mem_read_lines + self.mem_write_lines) as f64 * line_bytes as f64
    }

    /// Lines crossing boundary `b` summed over cores.
    #[must_use]
    pub fn boundary_total(&self, b: usize) -> u64 {
        self.boundary_lines[b].iter().sum()
    }
}

/// How a core touches a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Plain load.
    Read,
    /// Write-allocate store: the L1 copy becomes dirty.
    Write,
    /// Non-temporal (streaming) store, see [`MemHierarchy::write_nt`].
    WriteNt,
}

/// A full machine's cache hierarchy for `ncores` active cores of one socket.
#[derive(Debug)]
pub struct MemHierarchy {
    machine: Machine,
    ncores: usize,
    /// `levels[l][instance]`.
    levels: Vec<Vec<CacheSim>>,
    /// `inst[l * ncores + core]` = the instance of level `l` that `core`
    /// uses.
    inst: Vec<usize>,
    victim: Vec<bool>,
    line_bits: u32,
    /// `boundary_lines[b][core]`.
    boundary_lines: Vec<Vec<u64>>,
    level_down: Vec<u64>,
    mem_read_lines: u64,
    mem_write_lines: u64,
    accesses: u64,
}

impl MemHierarchy {
    /// Builds the hierarchy of `machine` with `ncores` cores active.
    ///
    /// # Panics
    /// Panics if `ncores` is zero, exceeds the socket, or the machine model
    /// is invalid.
    #[must_use]
    pub fn new(machine: &Machine, ncores: usize) -> Self {
        machine.validate().expect("invalid machine model");
        assert!(
            ncores >= 1 && ncores <= machine.cores_per_socket,
            "bad core count"
        );
        let nlev = machine.caches.len();
        let mut levels = Vec::with_capacity(nlev);
        let mut inst = Vec::with_capacity(nlev * ncores);
        let mut victim = Vec::with_capacity(nlev);
        for c in &machine.caches {
            let share = c
                .scope
                .sharers(machine.cores_per_socket)
                .min(machine.cores_per_socket);
            let ninst = ncores.div_ceil(share);
            levels.push((0..ninst).map(|_| CacheSim::new(c)).collect());
            inst.extend((0..ncores).map(|core| core / share));
            victim.push(matches!(c.inclusion, InclusionPolicy::Victim));
        }
        let line_bits = machine.line_bytes().trailing_zeros();
        MemHierarchy {
            machine: machine.clone(),
            ncores,
            levels,
            inst,
            victim,
            line_bits,
            boundary_lines: vec![vec![0; ncores]; nlev],
            level_down: vec![0; nlev],
            mem_read_lines: 0,
            mem_write_lines: 0,
            accesses: 0,
        }
    }

    /// Number of active cores.
    #[must_use]
    pub fn ncores(&self) -> usize {
        self.ncores
    }

    /// The machine model this hierarchy was built from.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    #[inline]
    fn inst(&self, level: usize, core: usize) -> usize {
        self.inst[level * self.ncores + core]
    }

    /// Issues a read of byte address `addr` from `core`.
    #[inline]
    pub fn read(&mut self, core: usize, addr: u64) {
        self.access_run(core, addr, addr, Access::Read);
    }

    /// Issues a write (write-allocate) of byte address `addr` from `core`.
    #[inline]
    pub fn write(&mut self, core: usize, addr: u64) {
        self.access_run(core, addr, addr, Access::Write);
    }

    /// Issues a non-temporal (streaming) store: the line goes straight to
    /// memory without an allocate read, and any cached copy is dropped
    /// (matching x86 MOVNT semantics). Counted once per line on the
    /// memory interface and on every boundary it bypasses.
    ///
    /// # Panics
    /// Panics if `core >= ncores`.
    #[inline]
    pub fn write_nt(&mut self, core: usize, addr: u64) {
        self.access_run(core, addr, addr, Access::WriteNt);
    }

    /// Issues one access of `core` to every line from the one holding byte
    /// `first` to the one holding byte `last`, in address order — what a
    /// walk over a contiguous span that touches each line once issues.
    ///
    /// # Panics
    /// Panics if `core >= ncores`.
    pub fn access_run(&mut self, core: usize, first: u64, last: u64, access: Access) {
        assert!(core < self.ncores, "core {core} out of range");
        for line in first >> self.line_bits..=last >> self.line_bits {
            match access {
                Access::Read => self.access_line(core, line, false),
                Access::Write => self.access_line(core, line, true),
                Access::WriteNt => self.write_nt_line(core, line),
            }
        }
    }

    fn write_nt_line(&mut self, core: usize, line: u64) {
        self.accesses += 1;
        for lev in 0..self.levels.len() {
            let inst = self.inst(lev, core);
            self.levels[lev][inst].invalidate_line(line);
            self.boundary_lines[lev][core] += 1;
        }
        self.mem_write_lines += 1;
    }

    /// A load or write-allocate store of `line`; `write` marks the L1 copy
    /// dirty.
    #[inline]
    fn access_line(&mut self, core: usize, line: u64, write: bool) {
        self.accesses += 1;
        // An L1 hit moves nothing else.
        if self.levels[0][self.inst[core]].access_line(line, write) {
            return;
        }
        // Search downward for the line.
        let nlev = self.levels.len();
        let mut hit_level = nlev; // nlev == memory
        let mut promoted_dirty = false;
        for lev in 1..nlev {
            let inst = self.inst(lev, core);
            let cache = &mut self.levels[lev][inst];
            let hit = if self.victim[lev] {
                // Victim hit: the line leaves this level, carrying its
                // dirty state upward.
                let taken = cache.take_line(line);
                promoted_dirty = taken == Some(true);
                taken.is_some()
            } else {
                cache.access_line(line, false)
            };
            if hit {
                hit_level = lev;
                break;
            }
        }
        if hit_level == nlev {
            self.mem_read_lines += 1;
        }
        // Boundary b is crossed upward if the hit was below it.
        for b in 0..hit_level {
            self.boundary_lines[b][core] += 1;
        }

        // Fill the levels above the hit, skipping victim levels (they are
        // only populated by evictions from above).
        for lev in (0..hit_level).rev() {
            if lev > 0 && self.victim[lev] {
                continue;
            }
            let dirty = lev == 0 && (write || promoted_dirty);
            let inst = self.inst(lev, core);
            let ev = self.levels[lev][inst].insert_line(line, dirty);
            self.handle_eviction(core, lev, ev);
        }
    }

    /// Routes an eviction from `level` to the level below.
    fn handle_eviction(&mut self, core: usize, level: usize, ev: Evicted) {
        let (line, dirty) = match ev {
            Evicted::None => return,
            Evicted::Clean(l) => (l, false),
            Evicted::Dirty(l) => (l, true),
        };
        let nlev = self.levels.len();
        let below = level + 1;
        if below >= nlev {
            // Last-level eviction.
            if dirty {
                self.level_down[level] += 1;
                self.boundary_lines[level][core] += 1;
                self.mem_write_lines += 1;
            }
            return;
        }
        let inst = self.inst(below, core);
        if self.victim[below] {
            // Victim level absorbs every eviction from above; a line it
            // already holds (evicted earlier by this or another core while
            // a copy stayed above) is merged into that copy.
            self.level_down[level] += 1;
            self.boundary_lines[level][core] += 1;
            let ev2 = self.levels[below][inst].merge_line(line, dirty);
            self.handle_eviction(core, below, ev2);
        } else if dirty {
            // Inclusive level: the line is normally still present; update
            // it, or re-insert if it has been independently evicted.
            self.level_down[level] += 1;
            self.boundary_lines[level][core] += 1;
            if !self.levels[below][inst].mark_dirty(line) {
                let ev2 = self.levels[below][inst].insert_line(line, dirty);
                self.handle_eviction(core, below, ev2);
            }
        }
        // Clean evictions into an inclusive level are dropped silently.
    }

    /// Snapshot of all counters.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        let level = self
            .levels
            .iter()
            .enumerate()
            .map(|(l, insts)| LevelStats {
                hits: insts.iter().map(CacheSim::hits).sum(),
                misses: insts.iter().map(CacheSim::misses).sum(),
                down_lines: self.level_down[l],
            })
            .collect();
        HierarchyStats {
            level,
            boundary_lines: self.boundary_lines.clone(),
            mem_read_lines: self.mem_read_lines,
            mem_write_lines: self.mem_write_lines,
            accesses: self.accesses,
        }
    }

    /// Clears contents and counters (grids keep their addresses, so a
    /// cleared hierarchy models a cold start of the same problem).
    pub fn clear(&mut self) {
        for insts in &mut self.levels {
            for c in insts {
                c.clear();
            }
        }
        for b in &mut self.boundary_lines {
            b.fill(0);
        }
        self.level_down.fill(0);
        self.mem_read_lines = 0;
        self.mem_write_lines = 0;
        self.accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clx1() -> MemHierarchy {
        MemHierarchy::new(&Machine::cascade_lake(), 1)
    }

    #[test]
    fn second_access_hits_l1() {
        let mut h = clx1();
        h.read(0, 0x1000);
        h.read(0, 0x1010); // same line
        let s = h.stats();
        assert_eq!(s.level[0].hits, 1);
        assert_eq!(s.level[0].misses, 1);
        assert_eq!(s.mem_read_lines, 1);
        assert_eq!(s.boundary_total(0), 1);
    }

    #[test]
    fn streaming_misses_everywhere() {
        let mut h = clx1();
        let n = 1000u64;
        for i in 0..n {
            h.read(0, i * 64);
        }
        let s = h.stats();
        assert_eq!(s.mem_read_lines, n);
        assert_eq!(s.level[0].misses, n);
        assert_eq!(s.boundary_total(0), n);
        assert_eq!(s.boundary_total(2), n);
    }

    #[test]
    fn l2_captures_medium_working_set() {
        // 256 KiB working set: fits CLX L2 (1 MiB), not L1 (32 KiB).
        let mut h = clx1();
        let lines = 256 * 1024 / 64;
        for pass in 0..2 {
            for i in 0..lines {
                h.read(0, i as u64 * 64);
            }
            let _ = pass;
        }
        let s = h.stats();
        // Second pass: all L1 misses must hit L2; no new memory reads.
        assert_eq!(s.mem_read_lines, lines as u64);
        assert_eq!(s.level[1].hits, lines as u64);
    }

    #[test]
    fn victim_l3_catches_l2_capacity_evictions() {
        // 4 MiB working set: exceeds L2 (1 MiB), fits L3 (28 MiB).
        let mut h = clx1();
        let lines = 4 * 1024 * 1024 / 64;
        for i in 0..lines {
            h.read(0, i as u64 * 64);
        }
        let first = h.stats();
        assert_eq!(first.mem_read_lines, lines as u64);
        // L3 only gets populated by L2 evictions (victim), never by fills.
        assert!(first.level[2].hits == 0);
        for i in 0..lines {
            h.read(0, i as u64 * 64);
        }
        let s = h.stats();
        // Second pass must be served from L3, not memory.
        assert_eq!(s.mem_read_lines, lines as u64, "no extra memory reads");
        assert!(s.level[2].hits > 0);
    }

    #[test]
    fn dirty_lines_are_written_back_to_memory() {
        let mut h = clx1();
        // Write a >L3 stream so dirty lines cascade all the way out.
        let lines = 40 * 1024 * 1024 / 64; // 40 MiB > 28 MiB L3
        for i in 0..lines {
            h.write(0, i as u64 * 64);
        }
        // Flush by streaming a second, disjoint region.
        for i in 0..lines {
            h.read(0, (lines + i) as u64 * 64);
        }
        let s = h.stats();
        assert!(
            s.mem_write_lines > (lines / 2) as u64,
            "most dirty lines must reach memory: {} of {}",
            s.mem_write_lines,
            lines
        );
    }

    #[test]
    fn per_core_private_caches_are_independent() {
        let mut h = MemHierarchy::new(&Machine::cascade_lake(), 2);
        h.read(0, 0x5000);
        h.read(1, 0x5000); // other core: own L1/L2 miss, shared L3 victim...
        let s = h.stats();
        // Both cores miss their private L1.
        assert_eq!(s.level[0].misses, 2);
        assert_eq!(s.boundary_lines[0][0], 1);
        assert_eq!(s.boundary_lines[0][1], 1);
    }

    #[test]
    fn rome_ccx_grouping() {
        let m = Machine::rome();
        let h = MemHierarchy::new(&m, 8);
        // 8 cores -> 2 CCX L3 instances.
        assert_eq!(h.levels[2].len(), 2);
        assert_eq!(h.inst(2, 3), 0);
        assert_eq!(h.inst(2, 4), 1);
    }

    #[test]
    #[should_panic(expected = "core")]
    fn out_of_range_core_panics() {
        let mut h = clx1();
        h.read(1, 0);
    }

    #[test]
    fn nt_store_skips_the_allocate_read() {
        let mut h = clx1();
        for i in 0..100u64 {
            h.write_nt(0, i * 64);
        }
        let s = h.stats();
        assert_eq!(s.mem_write_lines, 100);
        assert_eq!(s.mem_read_lines, 0, "no write-allocate for NT stores");
        // The lines are not cached afterwards.
        h.read(0, 0);
        assert_eq!(h.stats().level[0].misses, 1);
    }

    #[test]
    fn nt_store_invalidates_cached_copies() {
        let mut h = clx1();
        h.write(0, 0x100); // cached + dirty
        h.write_nt(0, 0x100); // flushes and drops it
        h.read(0, 0x100);
        let s = h.stats();
        // The read after the NT store must miss all the way to memory.
        assert_eq!(s.mem_read_lines, 2);
    }

    fn no_level_holds_a_line_twice(h: &MemHierarchy) -> bool {
        h.levels.iter().flatten().all(|c| !c.holds_a_line_twice())
    }

    #[test]
    fn victim_level_merges_a_line_evicted_twice() {
        // CLX: L1 64 sets x 8, L2 1024 sets x 16, L3 32768 sets x 14.
        // Lines a multiple of 1024 apart share an L1 and an L2 set.
        let mut h = clx1();
        let x = 0u64;
        let line = |l: u64| l * 64;
        h.write(0, line(x));
        // 1. L2 evicts X into the victim L3 while L1 keeps X dirty: L1
        //    hits on X do not refresh its L2 recency.
        for i in 1..=16 {
            h.read(0, line(i * 1024));
            h.write(0, line(x));
        }
        assert!(h.levels[2][0].probe(x) && !h.levels[1][0].probe(x));
        // 2. L1 evicts X (dirty), and L2 inserts it again.
        for j in 1..=8 {
            h.read(0, line(j * 64));
        }
        assert!(h.levels[1][0].probe(x) && !h.levels[0][0].probe(x));
        // 3. L2 evicts X a second time: the victim L3 merges it into the
        //    copy it already holds.
        let down = h.stats().level[1].down_lines;
        for i in 17..=32 {
            h.read(0, line(i * 1024));
        }
        assert!(h.stats().level[1].down_lines > down);
        assert!(no_level_holds_a_line_twice(&h));
        // Promoting X out of the victim level leaves no stale copy behind.
        h.read(0, line(x));
        assert!(!h.levels[2][0].probe(x));
        assert_eq!(h.stats().level[2].hits, 1);
    }

    #[test]
    fn no_set_holds_a_line_twice_after_multicore_traces() {
        for (machine, cores) in [(Machine::cascade_lake(), 4), (Machine::rome(), 8)] {
            let mut h = MemHierarchy::new(&machine, cores);
            // 2 MiB of shared lines: more than any private L2, so lines
            // that several cores read are evicted into the victim level
            // from more than one core.
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..100_000 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let core = (x >> 60) as usize % cores;
                let addr = (x >> 20) % (2 << 20);
                match (x >> 8) % 20 {
                    0 => h.write_nt(core, addr),
                    1..=5 => h.write(core, addr),
                    _ => h.read(core, addr),
                }
            }
            assert!(no_level_holds_a_line_twice(&h), "{}", machine.name);
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = clx1();
        h.write(0, 0x40);
        h.clear();
        let s = h.stats();
        assert_eq!(s.accesses, 0);
        assert_eq!(s.mem_read_lines, 0);
        assert_eq!(s.level[0].hits + s.level[0].misses, 0);
    }
}
