//! Container liveness tracking for garbage collection.
//!
//! Deduplicating stores only append: an overwrite maps the LBA to a new
//! PBN and decrements the old chunk's reference count. Dead chunks strand
//! capacity inside sealed containers until a collector rewrites the
//! survivors and drops the container. This tracker maintains the live/total
//! census per container that drives victim selection.

use fidr_chunk::IdMap;

/// Outcome of one garbage-collection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Dead PBNs whose metadata was reclaimed.
    pub reclaimed_pbns: u64,
    /// Containers compacted and dropped.
    pub compacted_containers: u64,
    /// Live chunks rewritten into fresh containers.
    pub moved_chunks: u64,
    /// Compressed bytes of the rewritten survivors (the copy cost the
    /// compaction paid to earn `freed_bytes`).
    pub copied_bytes: u64,
    /// Data-SSD bytes freed.
    pub freed_bytes: u64,
}

impl GcReport {
    /// Folds another pass's outcome into this one (cumulative totals).
    pub fn absorb(&mut self, other: GcReport) {
        self.reclaimed_pbns += other.reclaimed_pbns;
        self.compacted_containers += other.compacted_containers;
        self.moved_chunks += other.moved_chunks;
        self.copied_bytes += other.copied_bytes;
        self.freed_bytes += other.freed_bytes;
    }
}

/// Per-container live-chunk census.
///
/// # Examples
///
/// ```
/// use fidr_tables::ContainerLiveness;
///
/// let mut live = ContainerLiveness::new();
/// live.record_append(7);
/// live.record_append(7);
/// live.record_dead(7);
/// assert_eq!(live.live_fraction(7), Some(0.5));
/// assert_eq!(live.sparse_containers(0.6), vec![7]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContainerLiveness {
    counts: IdMap<u64, (u32, u32)>, // (live, total)
}

impl ContainerLiveness {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        ContainerLiveness::default()
    }

    /// Records a chunk appended to `container`.
    pub fn record_append(&mut self, container: u64) {
        let entry = self.counts.entry(container).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += 1;
    }

    /// Records a chunk in `container` going dead (refcount → 0).
    ///
    /// # Panics
    ///
    /// Panics if the container has no live chunks on record.
    pub fn record_dead(&mut self, container: u64) {
        let entry = self
            .counts
            .get_mut(&container)
            .expect("death recorded for unknown container");
        assert!(entry.0 > 0, "container {container} already fully dead");
        entry.0 -= 1;
    }

    /// Records a previously-dead chunk coming back to life (a duplicate
    /// write re-referenced it before collection ran).
    ///
    /// # Panics
    ///
    /// Panics if the container is untracked or already fully live.
    pub fn record_revive(&mut self, container: u64) {
        let entry = self
            .counts
            .get_mut(&container)
            .expect("revival in unknown container");
        assert!(
            entry.0 < entry.1,
            "container {container} already fully live"
        );
        entry.0 += 1;
    }

    /// Live chunks currently in `container`.
    pub fn live_chunks(&self, container: u64) -> u32 {
        self.counts.get(&container).map_or(0, |&(live, _)| live)
    }

    /// Live fraction of `container`, or `None` if untracked.
    pub fn live_fraction(&self, container: u64) -> Option<f64> {
        self.counts
            .get(&container)
            .map(|&(live, total)| f64::from(live) / f64::from(total.max(1)))
    }

    /// Containers whose live fraction fell below `threshold`, sorted by
    /// id (deterministic victim order).
    pub fn sparse_containers(&self, threshold: f64) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .counts
            .iter()
            .filter(|&(_, &(live, total))| f64::from(live) < threshold * f64::from(total.max(1)))
            .map(|(&id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Forgets a container (after compaction dropped it).
    pub fn remove(&mut self, container: u64) {
        self.counts.remove(&container);
    }

    /// Number of tracked containers.
    pub fn tracked(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over (container, live, total) records (checkpointing).
    pub fn entries(&self) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
        self.counts
            .iter()
            .map(|(&c, &(live, total))| (c, live, total))
    }

    /// Rebuilds a tracker from checkpointed records.
    pub fn from_entries(entries: impl IntoIterator<Item = (u64, u32, u32)>) -> Self {
        ContainerLiveness {
            counts: entries
                .into_iter()
                .map(|(c, live, total)| (c, (live, total)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_tracks_appends_and_deaths() {
        let mut l = ContainerLiveness::new();
        for _ in 0..10 {
            l.record_append(1);
        }
        assert_eq!(l.live_chunks(1), 10);
        for _ in 0..7 {
            l.record_dead(1);
        }
        assert_eq!(l.live_chunks(1), 3);
        assert_eq!(l.live_fraction(1), Some(0.3));
    }

    #[test]
    fn sparse_selection_respects_threshold() {
        let mut l = ContainerLiveness::new();
        for c in [1u64, 2, 3] {
            for _ in 0..4 {
                l.record_append(c);
            }
        }
        l.record_dead(2); // 75% live
        for _ in 0..3 {
            l.record_dead(3); // 25% live
        }
        assert_eq!(l.sparse_containers(0.5), vec![3]);
        assert_eq!(l.sparse_containers(0.8), vec![2, 3]);
        assert!(l.sparse_containers(0.1).is_empty());
    }

    #[test]
    fn remove_untracks() {
        let mut l = ContainerLiveness::new();
        l.record_append(9);
        l.remove(9);
        assert_eq!(l.tracked(), 0);
        assert_eq!(l.live_fraction(9), None);
    }

    #[test]
    #[should_panic(expected = "already fully dead")]
    fn over_death_panics() {
        let mut l = ContainerLiveness::new();
        l.record_append(1);
        l.record_dead(1);
        l.record_dead(1);
    }
}
