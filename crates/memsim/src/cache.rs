//! A single set-associative, LRU cache.

use yasksite_arch::CacheLevel;

#[cfg(test)]
mod reference;

/// Bit 63 of a way entry: the line is dirty.
const DIRTY: u64 = 1 << 63;

/// What fell out of a cache on an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Evicted {
    /// The set had a free way; nothing was evicted.
    None,
    /// A clean line with the given line address was evicted.
    Clean(u64),
    /// A dirty line with the given line address was evicted (must be
    /// written to the level below).
    Dirty(u64),
}

impl Evicted {
    fn of(entry: u64) -> Evicted {
        match entry {
            0 => Evicted::None,
            e if e & DIRTY != 0 => Evicted::Dirty((e & !DIRTY) - 1),
            e => Evicted::Clean(e - 1),
        }
    }
}

/// Makes `entry` the first way of `set`, moving `set[..w]` one way back
/// over `set[w]`.
#[inline]
fn to_front(set: &mut [u64], w: usize, entry: u64) {
    if w > 0 {
        set.copy_within(0..w, 1);
    }
    set[0] = entry;
}

/// Removes `set[w]`, moving the ways behind it one forward, and returns it.
#[inline]
fn remove(set: &mut [u64], w: usize) -> u64 {
    let entry = set[w];
    let last = set.len() - 1;
    set.copy_within(w + 1.., w);
    set[last] = 0;
    entry
}

/// One instance of a cache level: set-associative, true-LRU, tracking
/// per-line dirty bits. All operations take *line* addresses, so a
/// hierarchy can orchestrate inclusion policies.
///
/// Each set is a slice of `assoc` entries ordered most recently used
/// first. An entry is `line + 1` with the dirty flag in bit 63; 0 marks an
/// empty way, and empty ways trail the resident ones. A hit moves its entry
/// to the front, an insert shifts the set down and evicts the last entry,
/// an invalidate closes the gap. No set ever holds a line twice, so the
/// order is exactly the order of last use a per-way LRU stamp would give.
#[derive(Debug, Clone)]
pub(crate) struct CacheSim {
    set_mask: usize,
    assoc: usize,
    /// `sets * assoc` entries, set after set.
    ways: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Builds a simulator instance from a [`CacheLevel`] descriptor. The
    /// sets are allocated zeroed, so untouched sets cost no memory.
    ///
    /// # Panics
    /// Panics if the level's geometry is invalid (callers validate the
    /// machine model first).
    pub(crate) fn new(level: &CacheLevel) -> Self {
        level.validate().expect("invalid cache level");
        let sets = level.num_sets();
        CacheSim {
            set_mask: sets - 1,
            assoc: level.assoc,
            ways: vec![0; sets * level.assoc],
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_mut(&mut self, line: u64) -> &mut [u64] {
        let base = (line as usize & self.set_mask) * self.assoc;
        &mut self.ways[base..base + self.assoc]
    }

    #[inline]
    fn find(set: &[u64], line: u64) -> Option<usize> {
        set.iter().position(|&e| e & !DIRTY == line + 1)
    }

    /// Looks up `line`; on a hit makes it the most recent way and, for a
    /// write, marks it dirty. Returns `true` on hit. Statistics are
    /// updated.
    #[inline]
    pub(crate) fn access_line(&mut self, line: u64, write: bool) -> bool {
        let dirty = if write { DIRTY } else { 0 };
        let set = self.set_mut(line);
        let Some(w) = Self::find(set, line) else {
            self.misses += 1;
            return false;
        };
        to_front(set, w, set[w] | dirty);
        self.hits += 1;
        true
    }

    /// The lookup of a victim level: like [`CacheSim::access_line`], but a
    /// hit removes the line (it moves up) and returns its dirty bit.
    pub(crate) fn take_line(&mut self, line: u64) -> Option<bool> {
        let set = self.set_mut(line);
        let Some(w) = Self::find(set, line) else {
            self.misses += 1;
            return None;
        };
        let entry = remove(set, w);
        self.hits += 1;
        Some(entry & DIRTY != 0)
    }

    /// Inserts `line`, which the set does not hold, as the most recent way
    /// with the dirty bit `dirty`, evicting the least recent way if the
    /// set is full.
    pub(crate) fn insert_line(&mut self, line: u64, dirty: bool) -> Evicted {
        let set = self.set_mut(line);
        debug_assert!(
            Self::find(set, line).is_none(),
            "line {line} inserted twice"
        );
        let last = set.len() - 1;
        let evicted = Evicted::of(set[last]);
        to_front(set, last, (line + 1) | if dirty { DIRTY } else { 0 });
        evicted
    }

    /// The insert of a victim level: like [`CacheSim::insert_line`], except
    /// that a line the set already holds is not inserted twice — its copy
    /// absorbs `dirty` and becomes the most recent way.
    pub(crate) fn merge_line(&mut self, line: u64, dirty: bool) -> Evicted {
        let set = self.set_mut(line);
        match Self::find(set, line) {
            Some(w) => {
                to_front(set, w, set[w] | if dirty { DIRTY } else { 0 });
                Evicted::None
            }
            None => self.insert_line(line, dirty),
        }
    }

    /// Removes `line` if present, returning whether it was there and dirty.
    pub(crate) fn invalidate_line(&mut self, line: u64) -> Option<bool> {
        let set = self.set_mut(line);
        let w = Self::find(set, line)?;
        Some(remove(set, w) & DIRTY != 0)
    }

    /// Marks `line` dirty if it is present (no LRU update) and says
    /// whether it was.
    pub(crate) fn mark_dirty(&mut self, line: u64) -> bool {
        let set = self.set_mut(line);
        let Some(w) = Self::find(set, line) else {
            return false;
        };
        set[w] |= DIRTY;
        true
    }

    /// Hit count so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets contents and statistics.
    pub(crate) fn clear(&mut self) {
        self.ways.fill(0);
        self.hits = 0;
        self.misses = 0;
    }

    /// Checks for presence without touching LRU or statistics.
    #[cfg(test)]
    pub(crate) fn probe(&self, line: u64) -> bool {
        let base = (line as usize & self.set_mask) * self.assoc;
        Self::find(&self.ways[base..base + self.assoc], line).is_some()
    }

    /// Resident `(line, dirty)` pairs, sorted.
    #[cfg(test)]
    pub(crate) fn contents(&self) -> Vec<(u64, bool)> {
        let mut v: Vec<(u64, bool)> = self
            .ways
            .iter()
            .filter(|&&e| e != 0)
            .map(|&e| ((e & !DIRTY) - 1, e & DIRTY != 0))
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether some set holds a line in more than one way.
    #[cfg(test)]
    pub(crate) fn holds_a_line_twice(&self) -> bool {
        self.ways.chunks(self.assoc).any(|set| {
            (1..set.len())
                .any(|i| set[i] != 0 && Self::find(&set[..i], (set[i] & !DIRTY) - 1).is_some())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::reference::StampLru;
    use super::*;
    use proptest::prelude::*;
    use yasksite_arch::{InclusionPolicy, Scope, WritePolicy};

    fn level(assoc: usize, sets: usize) -> CacheLevel {
        CacheLevel {
            name: "T".into(),
            size_bytes: sets * assoc * 64,
            assoc,
            line_bytes: 64,
            bytes_per_cycle: 64.0,
            latency_cycles: 1.0,
            inclusion: InclusionPolicy::Inclusive,
            write_policy: WritePolicy::WriteBackAllocate,
            scope: Scope::PerCore,
        }
    }

    fn tiny(assoc: usize, sets: usize) -> CacheSim {
        CacheSim::new(&level(assoc, sets))
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny(2, 2);
        let line = 0x80 >> 6;
        assert!(!c.access_line(line, false));
        c.insert_line(line, false);
        assert!(c.access_line(line, false));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, 1); // one set, two ways
        c.insert_line(1, false);
        c.insert_line(2, false);
        // Touch line 1 so line 2 becomes LRU.
        assert!(c.access_line(1, false));
        match c.insert_line(3, false) {
            Evicted::Clean(l) => assert_eq!(l, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.probe(1));
        assert!(c.probe(3));
        assert!(!c.probe(2));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny(1, 1);
        c.insert_line(7, true);
        assert_eq!(c.insert_line(8, false), Evicted::Dirty(7));
        assert_eq!(c.insert_line(9, false), Evicted::Clean(8));
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny(1, 1);
        c.insert_line(5, false);
        assert!(c.access_line(5, true));
        assert_eq!(c.insert_line(6, false), Evicted::Dirty(5));
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = tiny(2, 1);
        c.insert_line(1, true);
        c.insert_line(2, false);
        assert_eq!(c.invalidate_line(1), Some(true));
        assert_eq!(c.invalidate_line(1), None);
        assert_eq!(c.contents(), [(2, false)]);
    }

    #[test]
    fn merging_a_resident_line_keeps_one_copy() {
        let mut c = tiny(2, 1);
        c.insert_line(1, true);
        c.insert_line(2, false);
        // Line 1 absorbs a clean copy: still dirty, now most recent.
        assert_eq!(c.merge_line(1, false), Evicted::None);
        assert_eq!(c.contents(), [(1, true), (2, false)]);
        assert_eq!(c.merge_line(3, false), Evicted::Clean(2));
        assert!(!c.holds_a_line_twice());
    }

    #[test]
    fn take_removes_a_hit_and_counts_it() {
        let mut c = tiny(2, 1);
        c.insert_line(1, true);
        assert_eq!(c.take_line(1), Some(true));
        assert_eq!(c.take_line(1), None);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert!(c.contents().is_empty());
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny(1, 4);
        for line in 0..4u64 {
            c.insert_line(line, false);
        }
        assert_eq!(c.contents().len(), 4);
        for line in 0..4u64 {
            assert!(c.probe(line));
        }
    }

    #[test]
    fn capacity_miss_on_working_set_overflow() {
        let mut c = tiny(4, 4); // 16 lines capacity
                                // Stream 32 distinct lines twice: second pass must still miss.
        for pass in 0..2 {
            for line in 0..32u64 {
                if !c.access_line(line, false) {
                    c.insert_line(line, false);
                }
            }
            let _ = pass;
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 64);
    }

    #[test]
    fn small_working_set_all_hits_second_pass() {
        let mut c = tiny(4, 4);
        for line in 0..8u64 {
            c.insert_line(line, false);
        }
        for line in 0..8u64 {
            assert!(c.access_line(line, false));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The packed recency-ordered sets and the stamp-LRU oracle give
        /// the same answer to every operation and hold the same lines,
        /// with the same dirty bits, after each one.
        #[test]
        fn packed_sets_match_stamp_lru(
            assoc in prop_oneof![Just(1usize), Just(2), Just(8), Just(16)],
            set_bits in 0u32..7,
            ops in prop::collection::vec((0u8..6, 0u64..1 << 20, any::<bool>()), 1..600),
        ) {
            let sets = 1usize << set_bits;
            let geometry = level(assoc, sets);
            let (mut new, mut old) = (CacheSim::new(&geometry), StampLru::new(&geometry));
            // Three times the capacity: hits, conflicts and evictions all occur.
            let span = 3 * (assoc * sets) as u64;
            for (i, &(op, draw, flag)) in ops.iter().enumerate() {
                let line = draw % span;
                match op {
                    0 => prop_assert_eq!(new.access_line(line, flag), old.access_line(line, flag), "op {i}"),
                    // The oracle's insert merges a resident line.
                    1 => prop_assert_eq!(new.merge_line(line, flag), old.insert_line(line, flag), "op {i}"),
                    2 if !new.probe(line) => {
                        prop_assert_eq!(new.insert_line(line, flag), old.insert_line(line, flag), "op {i}");
                    }
                    2 | 3 => prop_assert_eq!(new.invalidate_line(line), old.invalidate_line(line), "op {i}"),
                    4 => prop_assert_eq!(new.mark_dirty(line), old.mark_dirty(line), "op {i}"),
                    _ => {
                        let old_take = old.access_line(line, false).then(|| old.invalidate_line(line) == Some(true));
                        prop_assert_eq!(new.take_line(line), old_take, "op {i}");
                    }
                }
                prop_assert_eq!((new.hits(), new.misses()), (old.hits(), old.misses()), "op {i}");
                prop_assert_eq!(new.contents(), old.contents(), "op {i}");
                prop_assert!(!new.holds_a_line_twice(), "op {i}");
            }
        }
    }
}
