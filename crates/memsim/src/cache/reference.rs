//! The stamp-LRU cache the packed layout replaced, kept as the oracle of
//! the differential tests: every way stores a tag, a dirty flag and the
//! clock value of its last use, and an insert evicts the smallest stamp.

use yasksite_arch::CacheLevel;

use super::Evicted;

const INVALID: u64 = u64::MAX;

pub(crate) struct StampLru {
    sets: usize,
    assoc: usize,
    tags: Vec<u64>,
    dirty: Vec<bool>,
    stamp: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl StampLru {
    pub(crate) fn new(level: &CacheLevel) -> Self {
        let sets = level.num_sets();
        let ways = sets * level.assoc;
        StampLru {
            sets,
            assoc: level.assoc,
            tags: vec![INVALID; ways],
            dirty: vec![false; ways],
            stamp: vec![0; ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn ways(&self, line: u64) -> std::ops::Range<usize> {
        let base = (line as usize & (self.sets - 1)) * self.assoc;
        base..base + self.assoc
    }

    fn find(&self, line: u64) -> Option<usize> {
        self.ways(line).find(|&w| self.tags[w] == line)
    }

    pub(crate) fn access_line(&mut self, line: u64, write: bool) -> bool {
        self.clock += 1;
        let Some(w) = self.find(line) else {
            self.misses += 1;
            return false;
        };
        self.stamp[w] = self.clock;
        self.dirty[w] |= write;
        self.hits += 1;
        true
    }

    pub(crate) fn insert_line(&mut self, line: u64, dirty: bool) -> Evicted {
        self.clock += 1;
        if let Some(w) = self.find(line) {
            self.dirty[w] |= dirty;
            self.stamp[w] = self.clock;
            return Evicted::None;
        }
        let ways = self.ways(line);
        let slot = ways
            .clone()
            .find(|&w| self.tags[w] == INVALID)
            .unwrap_or_else(|| ways.min_by_key(|&w| self.stamp[w]).expect("assoc >= 1"));
        let evicted = match (self.tags[slot], self.dirty[slot]) {
            (INVALID, _) => Evicted::None,
            (tag, true) => Evicted::Dirty(tag),
            (tag, false) => Evicted::Clean(tag),
        };
        self.tags[slot] = line;
        self.dirty[slot] = dirty;
        self.stamp[slot] = self.clock;
        evicted
    }

    pub(crate) fn invalidate_line(&mut self, line: u64) -> Option<bool> {
        let w = self.find(line)?;
        self.tags[w] = INVALID;
        Some(std::mem::take(&mut self.dirty[w]))
    }

    pub(crate) fn mark_dirty(&mut self, line: u64) -> bool {
        let Some(w) = self.find(line) else {
            return false;
        };
        self.dirty[w] = true;
        true
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident `(line, dirty)` pairs, sorted.
    pub(crate) fn contents(&self) -> Vec<(u64, bool)> {
        let mut v: Vec<(u64, bool)> = (0..self.tags.len())
            .filter(|&w| self.tags[w] != INVALID)
            .map(|w| (self.tags[w], self.dirty[w]))
            .collect();
        v.sort_unstable();
        v
    }
}
