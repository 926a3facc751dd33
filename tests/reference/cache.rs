//! The naive cache: a set-associative, write-back, true-LRU cache in its
//! plainest shape — the spec `cochar_machine::Cache` must match operation
//! by operation.
//!
//! Each set is a vector of optional lines. A lookup scans the set; an
//! insert scans once for presence and once more for a free way or the
//! least-recently-stamped victim. There is no MRU hint, no miss plan and
//! no occupancy counter. Owner masks are kept only so that the
//! [`Evicted`] records of the `*_owned` operations compare equal with the
//! production cache's: the engine model itself sweeps every core on
//! back-invalidation and never reads them.

use cochar::machine::cache::{owner_bit, Evicted, HitInfo};
use cochar::machine::CacheConfig;

#[derive(Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Installed by a prefetcher and not yet demand-touched.
    prefetched: bool,
    /// Last touch, from a clock that ticks on every hit and insert.
    stamp: u64,
    owners: u32,
}

/// Plain set-associative cache with true-LRU replacement.
pub struct NaiveCache {
    sets: Vec<Vec<Option<Line>>>,
    clock: u64,
}

impl NaiveCache {
    /// An empty cache with the given geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        NaiveCache { sets: vec![vec![None; cfg.ways as usize]; cfg.sets() as usize], clock: 0 }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    /// `(set, way)` of `line`, if present.
    fn find(&self, line: u64) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        let way = self.sets[set].iter().position(|w| w.is_some_and(|l| l.tag == line))?;
        Some((set, way))
    }

    fn line_mut(&mut self, (set, way): (usize, usize)) -> &mut Line {
        self.sets[set][way].as_mut().expect("found way holds a line")
    }

    /// Looks the line up; a hit refreshes its stamp and clears (and
    /// reports) its prefetch bit.
    pub fn access(&mut self, line: u64) -> Option<HitInfo> {
        let at = self.find(line)?;
        self.clock += 1;
        let stamp = self.clock;
        let l = self.line_mut(at);
        let was_prefetched = l.prefetched;
        l.prefetched = false;
        l.stamp = stamp;
        Some(HitInfo { was_prefetched })
    }

    /// [`NaiveCache::access`] that also records `core` as an owner on a hit.
    pub fn access_owned(&mut self, line: u64, core: usize) -> Option<HitInfo> {
        let hit = self.access(line)?;
        let at = self.find(line).expect("hit line is present");
        self.line_mut(at).owners |= owner_bit(core);
        Some(hit)
    }

    /// Presence test; changes nothing.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// [`NaiveCache::contains`] that also records `core` as an owner on a
    /// hit.
    pub fn probe_owned(&mut self, line: u64, core: usize) -> bool {
        match self.find(line) {
            Some(at) => {
                self.line_mut(at).owners |= owner_bit(core);
                true
            }
            None => false,
        }
    }

    /// Marks a present line dirty; no-op if absent.
    pub fn mark_dirty(&mut self, line: u64) {
        if let Some(at) = self.find(line) {
            self.line_mut(at).dirty = true;
        }
    }

    /// Installs a line (or refreshes a present one) and returns the victim.
    pub fn insert(&mut self, line: u64, dirty: bool, prefetched: bool) -> Option<Evicted> {
        self.insert_mask(line, dirty, prefetched, 0)
    }

    /// [`NaiveCache::insert`] that records `core` as an owner.
    pub fn insert_owned(&mut self, line: u64, dirty: bool, prefetched: bool, core: usize) -> Option<Evicted> {
        self.insert_mask(line, dirty, prefetched, owner_bit(core))
    }

    fn insert_mask(&mut self, line: u64, dirty: bool, prefetched: bool, owners: u32) -> Option<Evicted> {
        self.clock += 1;
        let stamp = self.clock;
        // First scan: already present, so refresh it. A demand refresh
        // drops the prefetch attribution; a prefetch refresh never adds it.
        if let Some(at) = self.find(line) {
            let l = self.line_mut(at);
            l.stamp = stamp;
            l.dirty |= dirty;
            l.prefetched &= prefetched;
            l.owners |= owners;
            return None;
        }
        // Second scan: the first free way, else the least recently used.
        let set_index = self.set_of(line);
        let set = &mut self.sets[set_index];
        let way = match set.iter().position(Option::is_none) {
            Some(free) => free,
            None => (0..set.len())
                .min_by_key(|&w| set[w].expect("full set").stamp)
                .expect("a cache set has at least one way"),
        };
        let victim = set[way].map(|v| Evicted { line: v.tag, dirty: v.dirty, owners: v.owners });
        set[way] = Some(Line { tag: line, dirty, prefetched, stamp, owners });
        victim
    }

    /// Removes a line; returns whether it was present and dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let (set, way) = self.find(line)?;
        self.sets[set][way].take().map(|l| l.dirty)
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().flatten().filter(|w| w.is_some()).count()
    }
}
