//! Hot-block read cache (paper §8).
//!
//! "For imbalanced read accesses to the data SSDs, we can extend FIDR
//! software and the LBA-PBA table to maintain frequently accessed blocks
//! in main memory." This is that extension: a host-DRAM cache of
//! decompressed chunks with a second-access admission filter, so that
//! one-touch scans cannot wash out the genuinely hot blocks.

use fidr_chunk::Lba;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Counters for the hot-read cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotCacheStats {
    /// Reads served from the hot cache.
    pub hits: u64,
    /// Reads that missed.
    pub misses: u64,
    /// Chunks admitted.
    pub admissions: u64,
    /// Chunks evicted.
    pub evictions: u64,
}

impl HotCacheStats {
    /// Hit rate over lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// LRU cache of decompressed chunks with second-touch admission.
///
/// # Examples
///
/// ```
/// use fidr_core::HotReadCache;
/// use fidr_chunk::Lba;
///
/// let mut cache = HotReadCache::new(2);
/// assert!(cache.get(Lba(1)).is_none());
/// cache.offer(Lba(1), vec![1u8; 4096]); // first touch: filtered
/// assert!(cache.get(Lba(1)).is_none());
/// cache.offer(Lba(1), vec![1u8; 4096]); // second touch: admitted
/// assert!(cache.get(Lba(1)).is_some());
/// ```
#[derive(Debug)]
pub struct HotReadCache {
    capacity: usize,
    entries: HashMap<Lba, Vec<u8>>,
    /// LRU order: front = coldest.
    order: VecDeque<Lba>,
    /// One-touch filter: LBAs seen once, awaiting a second access, by
    /// the tick of their first touch; bounded to 4x the capacity.
    seen_once: HashMap<Lba, u64>,
    /// The same first touches, oldest first: exactly `seen_once`'s
    /// entries, so an LBA leaving the filter leaves no stale trace.
    seen_order: BTreeMap<u64, Lba>,
    next_tick: u64,
    stats: HotCacheStats,
}

impl HotReadCache {
    /// Creates a cache holding up to `capacity` chunks (0 disables it).
    pub fn new(capacity: usize) -> Self {
        HotReadCache {
            capacity,
            entries: HashMap::new(),
            order: VecDeque::new(),
            seen_once: HashMap::new(),
            seen_order: BTreeMap::new(),
            next_tick: 0,
            stats: HotCacheStats::default(),
        }
    }

    /// Whether the cache is disabled.
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Counters so far.
    pub fn stats(&self) -> HotCacheStats {
        self.stats
    }

    /// Looks a block up, refreshing its recency on a hit.
    pub fn get(&mut self, lba: Lba) -> Option<&[u8]> {
        if self.capacity == 0 {
            return None;
        }
        if self.entries.contains_key(&lba) {
            self.stats.hits += 1;
            self.touch(lba);
            self.entries.get(&lba).map(|v| v.as_slice())
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Offers a block read from the SSDs for caching. Admitted only on
    /// its second offer (frequency over recency at the admission gate).
    pub fn offer(&mut self, lba: Lba, data: Vec<u8>) {
        if self.capacity == 0 || self.entries.contains_key(&lba) {
            return;
        }
        if !self.forget_first_touch(lba) {
            // First touch: remember, don't admit.
            self.seen_once.insert(lba, self.next_tick);
            self.seen_order.insert(self.next_tick, lba);
            self.next_tick += 1;
            if self.seen_once.len() > self.capacity * 4 {
                let (_, oldest) = self.seen_order.pop_first().expect("filter is non-empty");
                self.seen_once.remove(&oldest);
            }
            return;
        }
        // Second touch: admit, evicting the coldest if needed.
        while self.entries.len() >= self.capacity {
            if let Some(victim) = self.order.pop_front() {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(lba, data);
        self.order.push_back(lba);
        self.stats.admissions += 1;
    }

    /// Invalidates a block the client overwrote.
    pub fn invalidate(&mut self, lba: Lba) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.remove(&lba).is_some() {
            self.order.retain(|&l| l != lba);
        }
        self.forget_first_touch(lba);
    }

    /// Drops `lba` from the one-touch filter; whether it was there.
    fn forget_first_touch(&mut self, lba: Lba) -> bool {
        let Some(tick) = self.seen_once.remove(&lba) else {
            return false;
        };
        self.seen_order.remove(&tick);
        true
    }

    fn touch(&mut self, lba: Lba) {
        self.order.retain(|&l| l != lba);
        self.order.push_back(lba);
    }

    /// Chunks currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(tag: u8) -> Vec<u8> {
        vec![tag; 128]
    }

    #[test]
    fn admission_requires_second_touch() {
        let mut c = HotReadCache::new(4);
        c.offer(Lba(1), data(1));
        assert!(c.get(Lba(1)).is_none());
        c.offer(Lba(1), data(1));
        assert_eq!(c.get(Lba(1)), Some(&data(1)[..]));
    }

    #[test]
    fn scan_does_not_evict_hot_blocks() {
        let mut c = HotReadCache::new(2);
        for _ in 0..2 {
            c.offer(Lba(1), data(1));
            c.offer(Lba(2), data(2));
        }
        assert_eq!(c.len(), 2);
        // A one-touch scan over 100 cold blocks must not displace them.
        for i in 100..200u64 {
            c.offer(Lba(i), data(0));
        }
        assert!(c.get(Lba(1)).is_some());
        assert!(c.get(Lba(2)).is_some());
    }

    #[test]
    fn lru_evicts_coldest_admitted() {
        let mut c = HotReadCache::new(2);
        for tag in [1u64, 2, 3] {
            c.offer(Lba(tag), data(tag as u8));
            c.offer(Lba(tag), data(tag as u8));
        }
        assert!(c.get(Lba(1)).is_none(), "coldest admitted entry evicted");
        assert!(c.get(Lba(2)).is_some());
        assert!(c.get(Lba(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidation_removes_stale_data() {
        let mut c = HotReadCache::new(2);
        c.offer(Lba(1), data(1));
        c.offer(Lba(1), data(1));
        c.invalidate(Lba(1));
        assert!(c.get(Lba(1)).is_none());
    }

    #[test]
    fn overwrite_churn_keeps_the_filter_bounded() {
        let mut c = HotReadCache::new(4);
        for i in 0..100_000u64 {
            c.offer(Lba(i), data(1));
            c.invalidate(Lba(i));
            assert!(
                c.seen_once.len() <= 16 && c.seen_order.len() <= 16,
                "at {i}"
            );
        }
        assert!(c.seen_order.is_empty());
    }

    #[test]
    fn a_stale_first_touch_never_evicts_a_newer_one() {
        let mut c = HotReadCache::new(1);
        c.offer(Lba(1), data(1));
        c.invalidate(Lba(1)); // the write overwrote it: forgotten
        for i in 2..5u64 {
            c.offer(Lba(i), data(0));
        }
        c.offer(Lba(1), data(1)); // a fresh first touch, the newest
        c.offer(Lba(9), data(0)); // pushes the filter past 4: evicts LBA 2
        c.offer(Lba(1), data(1)); // second touch still admits
        assert!(c.get(Lba(1)).is_some());
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut c = HotReadCache::new(0);
        c.offer(Lba(1), data(1));
        c.offer(Lba(1), data(1));
        assert!(c.get(Lba(1)).is_none());
        assert!(c.is_disabled());
    }
}
