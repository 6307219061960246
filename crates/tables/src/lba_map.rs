//! The LBA-PBA table: two-level logical→physical mapping.
//!
//! "Because chunks have variable sizes after being compressed, we use two
//! level mapping of LBA to PBA. … the LBA-PBA table internally has LBA-PBN
//! mapping (an array whose index is LBA and its value is the PBN in a
//! container) and PBN-PBA mapping (an array whose index is PBN and its
//! value is <offset address in the container, compressed chunk size>)"
//! (paper §2.1.4). The PBN-indexed half is one record per unique
//! chunk: the paper's location entry plus the two things the store's
//! lifecycle needs of the same chunk — its reference count (overwrites
//! and deletes orphan chunks for GC) and its fingerprint (reads verify
//! against it; GC drops its Hash-PBN entry by it). PBNs are allocated by
//! the store, so that half sits on an [`IdMap`]; LBAs are the client's
//! choice, so the LBA half keeps std's keyed hasher.

use fidr_chunk::{IdMap, Lba, Pba, Pbn};
use fidr_hash::Fingerprint;
use std::collections::HashMap;

/// Physical location of one unique chunk: which container and where in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbnLocation {
    /// Container id on the data SSDs.
    pub container: u64,
    /// Byte offset inside the container.
    pub offset: u32,
    /// Compressed size in bytes.
    pub compressed_len: u32,
}

/// Everything recorded about one unique chunk, by its PBN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PbnRecord {
    loc: PbnLocation,
    /// LBAs currently mapped to the chunk (0: dead, awaiting collection).
    refcount: u32,
    fp: Fingerprint,
}

/// The two-level LBA→PBA map with PBN reference counting.
///
/// # Examples
///
/// ```
/// use fidr_tables::{LbaPbaTable, PbnLocation};
/// use fidr_chunk::{Lba, Pbn};
/// use fidr_hash::Fingerprint;
///
/// let mut map = LbaPbaTable::new();
/// let loc = PbnLocation { container: 1, offset: 0, compressed_len: 2048 };
/// map.record_pbn(Pbn(0), loc, Fingerprint::of(b"chunk"));
/// map.map_write(Lba(10), Pbn(0));
/// let pba = map.lookup(Lba(10)).unwrap();
/// assert_eq!(pba.container, 1);
/// assert_eq!(pba.compressed_len, 2048);
/// assert_eq!(map.refcount(Pbn(0)), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LbaPbaTable {
    lba_to_pbn: HashMap<Lba, Pbn>,
    pbns: IdMap<Pbn, PbnRecord>,
}

impl LbaPbaTable {
    /// Creates an empty map.
    pub fn new() -> Self {
        LbaPbaTable::default()
    }

    /// Registers a newly written unique chunk: where it lives and its
    /// fingerprint. It starts unreferenced; [`map_write`](Self::map_write)
    /// points LBAs at it.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if the PBN is already recorded; PBNs are
    /// allocated once per unique chunk.
    pub fn record_pbn(&mut self, pbn: Pbn, loc: PbnLocation, fp: Fingerprint) {
        let record = PbnRecord {
            loc,
            refcount: 0,
            fp,
        };
        let previous = self.pbns.insert(pbn, record);
        debug_assert!(previous.is_none(), "PBN {pbn} recorded twice");
    }

    fn record_mut(&mut self, pbn: Pbn) -> &mut PbnRecord {
        self.pbns.get_mut(&pbn).expect("mapped PBN is recorded")
    }

    /// Points `lba` at `pbn` (a duplicate hit or a fresh unique write),
    /// maintaining reference counts. Returns a PBN whose reference count
    /// dropped to zero, if the overwrite orphaned one; its record stays
    /// until [`reclaim`](Self::reclaim).
    ///
    /// # Panics
    ///
    /// Panics if `pbn` (or the PBN `lba` pointed at) is not recorded.
    pub fn map_write(&mut self, lba: Lba, pbn: Pbn) -> Option<Pbn> {
        let old = self.lba_to_pbn.insert(lba, pbn);
        if old == Some(pbn) {
            return None; // same PBN re-mapped: the count stands
        }
        self.record_mut(pbn).refcount += 1;
        let old = old?;
        let rc = &mut self.record_mut(old).refcount;
        *rc -= 1;
        (*rc == 0).then_some(old)
    }

    /// Removes `lba`'s mapping (a client delete), decrementing its PBN's
    /// reference count. Returns the PBN the LBA pointed at, or `None` if
    /// the LBA was never mapped; check [`refcount`](Self::refcount)
    /// afterwards to see whether the delete orphaned the chunk.
    pub fn unmap(&mut self, lba: Lba) -> Option<Pbn> {
        let pbn = self.lba_to_pbn.remove(&lba)?;
        self.record_mut(pbn).refcount -= 1;
        Some(pbn)
    }

    /// Resolves an LBA to its physical address (the read path, §2.2).
    pub fn lookup(&self, lba: Lba) -> Option<Pba> {
        let loc = self.location(self.pbn_of(lba)?)?;
        Some(Pba {
            container: loc.container,
            offset: loc.offset,
            compressed_len: loc.compressed_len,
        })
    }

    /// The PBN an LBA currently maps to.
    pub fn pbn_of(&self, lba: Lba) -> Option<Pbn> {
        self.lba_to_pbn.get(&lba).copied()
    }

    /// Current reference count of a PBN (0 if dead or never recorded).
    pub fn refcount(&self, pbn: Pbn) -> u32 {
        self.pbns.get(&pbn).map_or(0, |r| r.refcount)
    }

    /// Number of mapped LBAs.
    pub fn mapped_lbas(&self) -> usize {
        self.lba_to_pbn.len()
    }

    /// Number of recorded unique chunks, live or awaiting collection.
    pub fn unique_chunks(&self) -> usize {
        self.pbns.len()
    }

    /// Drops a dead PBN's record (garbage collection), returning where
    /// the chunk lived.
    ///
    /// # Panics
    ///
    /// Panics if the PBN is still referenced.
    pub fn reclaim(&mut self, pbn: Pbn) -> Option<PbnLocation> {
        assert_eq!(self.refcount(pbn), 0, "reclaiming live PBN {pbn}");
        self.pbns.remove(&pbn).map(|r| r.loc)
    }

    /// Current location of a PBN, if recorded.
    pub fn location(&self, pbn: Pbn) -> Option<PbnLocation> {
        self.pbns.get(&pbn).map(|r| r.loc)
    }

    /// Fingerprint of a PBN's chunk, if recorded.
    pub fn fingerprint(&self, pbn: Pbn) -> Option<Fingerprint> {
        self.pbns.get(&pbn).map(|r| r.fp)
    }

    /// Moves a live PBN to a new physical location (container compaction:
    /// the survivor was rewritten into a fresh container).
    ///
    /// # Panics
    ///
    /// Panics if the PBN is not recorded.
    pub fn relocate(&mut self, pbn: Pbn, loc: PbnLocation) {
        self.record_mut(pbn).loc = loc;
    }

    /// Iterates over (LBA, PBN) mappings (checkpointing).
    pub fn lba_entries(&self) -> impl Iterator<Item = (Lba, Pbn)> + '_ {
        self.lba_to_pbn.iter().map(|(&l, &p)| (l, p))
    }

    /// Iterates over (PBN, location) records (checkpointing).
    pub fn pbn_entries(&self) -> impl Iterator<Item = (Pbn, PbnLocation)> + '_ {
        self.pbns.iter().map(|(&p, r)| (p, r.loc))
    }

    /// Iterates over (PBN, fingerprint) records (checkpointing).
    pub fn fingerprints(&self) -> impl Iterator<Item = (Pbn, Fingerprint)> + '_ {
        self.pbns.iter().map(|(&p, r)| (p, r.fp))
    }

    /// Rebuilds a map from checkpointed entries; reference counts are
    /// recomputed from the LBA mappings.
    ///
    /// # Panics
    ///
    /// Panics unless `pbns` and `fps` name the same PBNs and every LBA
    /// maps to one of them (`Snapshot::decode` rejects images that don't).
    pub fn from_entries(
        lbas: impl IntoIterator<Item = (Lba, Pbn)>,
        pbns: impl IntoIterator<Item = (Pbn, PbnLocation)>,
        fps: impl IntoIterator<Item = (Pbn, Fingerprint)>,
    ) -> Self {
        let mut fps: IdMap<Pbn, Fingerprint> = fps.into_iter().collect();
        let mut map = LbaPbaTable::new();
        for (pbn, loc) in pbns {
            let fp = fps
                .remove(&pbn)
                .expect("every located PBN has a fingerprint");
            map.record_pbn(pbn, loc, fp);
        }
        assert!(fps.is_empty(), "every fingerprinted PBN is located");
        for (lba, pbn) in lbas {
            map.lba_to_pbn.insert(lba, pbn);
            map.record_mut(pbn).refcount += 1;
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(tag: u64) -> Fingerprint {
        Fingerprint::of(&tag.to_le_bytes())
    }

    fn loc(c: u64) -> PbnLocation {
        PbnLocation {
            container: c,
            offset: 16,
            compressed_len: 1024,
        }
    }

    #[test]
    fn write_then_read() {
        let mut m = LbaPbaTable::new();
        m.record_pbn(Pbn(5), loc(2), fp(5));
        m.map_write(Lba(1), Pbn(5));
        let pba = m.lookup(Lba(1)).unwrap();
        assert_eq!(pba.container, 2);
        assert_eq!(m.lookup(Lba(2)), None);
    }

    #[test]
    fn dedup_shares_pbn_and_counts_refs() {
        let mut m = LbaPbaTable::new();
        m.record_pbn(Pbn(1), loc(1), fp(1));
        m.map_write(Lba(10), Pbn(1));
        m.map_write(Lba(20), Pbn(1));
        assert_eq!(m.refcount(Pbn(1)), 2);
        assert_eq!(m.unique_chunks(), 1);
        assert_eq!(m.mapped_lbas(), 2);
    }

    #[test]
    fn overwrite_releases_old_pbn() {
        let mut m = LbaPbaTable::new();
        m.record_pbn(Pbn(1), loc(1), fp(1));
        m.record_pbn(Pbn(2), loc(2), fp(2));
        m.map_write(Lba(10), Pbn(1));
        let dead = m.map_write(Lba(10), Pbn(2));
        assert_eq!(dead, Some(Pbn(1)));
        assert_eq!(m.refcount(Pbn(1)), 0);
        assert_eq!(m.lookup(Lba(10)).unwrap().container, 2);
        assert_eq!(m.reclaim(Pbn(1)), Some(loc(1)));
    }

    #[test]
    fn rewriting_same_pbn_keeps_count_stable() {
        let mut m = LbaPbaTable::new();
        m.record_pbn(Pbn(1), loc(1), fp(1));
        m.map_write(Lba(10), Pbn(1));
        let dead = m.map_write(Lba(10), Pbn(1));
        assert_eq!(dead, None);
        assert_eq!(m.refcount(Pbn(1)), 1);
    }

    #[test]
    fn unmap_releases_refs_and_reports_orphans() {
        let mut m = LbaPbaTable::new();
        m.record_pbn(Pbn(1), loc(1), fp(1));
        m.map_write(Lba(10), Pbn(1));
        m.map_write(Lba(20), Pbn(1));
        // First unmap: PBN still shared.
        assert_eq!(m.unmap(Lba(10)), Some(Pbn(1)));
        assert_eq!(m.refcount(Pbn(1)), 1);
        // Last unmap orphans the chunk and drops its counter entry.
        assert_eq!(m.unmap(Lba(20)), Some(Pbn(1)));
        assert_eq!(m.refcount(Pbn(1)), 0);
        assert_eq!(m.mapped_lbas(), 0);
        // Never-mapped LBAs report None.
        assert_eq!(m.unmap(Lba(99)), None);
        // The orphan is now reclaimable without tripping the assertion.
        assert_eq!(m.reclaim(Pbn(1)), Some(loc(1)));
    }

    #[test]
    fn churn_orphans_every_dead_pbn_and_reclaim_bounds_the_records() {
        let mut m = LbaPbaTable::new();
        let mut orphans = Vec::new();
        // 1000 overwrites of one LBA: every overwrite orphans the prior PBN.
        for i in 0..1000u64 {
            m.record_pbn(Pbn(i), loc(i), fp(i));
            orphans.extend(m.map_write(Lba(0), Pbn(i)));
        }
        // Delete churn too: map then unmap fresh LBAs.
        for i in 1000..2000u64 {
            m.record_pbn(Pbn(i), loc(i), fp(i));
            m.map_write(Lba(i), Pbn(i));
            orphans.extend(m.unmap(Lba(i)).filter(|&p| m.refcount(p) == 0));
        }
        assert_eq!(orphans.len(), 1999, "all but the live PBN");
        for pbn in orphans {
            assert_eq!(m.reclaim(pbn), Some(loc(pbn.0)));
        }
        assert_eq!(m.unique_chunks(), 1, "only the live PBN keeps a record");
        assert_eq!(m.fingerprint(Pbn(999)), Some(fp(999)));
    }

    #[test]
    fn from_entries_recounts_references_and_pairs_fingerprints() {
        let mut m = LbaPbaTable::new();
        m.record_pbn(Pbn(1), loc(1), fp(1));
        m.record_pbn(Pbn(2), loc(2), fp(2));
        m.map_write(Lba(10), Pbn(1));
        m.map_write(Lba(20), Pbn(1));
        let rebuilt = LbaPbaTable::from_entries(m.lba_entries(), m.pbn_entries(), m.fingerprints());
        assert_eq!(rebuilt.refcount(Pbn(1)), 2);
        assert_eq!(rebuilt.refcount(Pbn(2)), 0);
        assert_eq!(rebuilt.fingerprint(Pbn(2)), Some(fp(2)));
        assert_eq!(rebuilt.lookup(Lba(20)), m.lookup(Lba(20)));
    }

    #[test]
    #[should_panic(expected = "reclaiming live PBN")]
    fn reclaiming_live_pbn_panics() {
        let mut m = LbaPbaTable::new();
        m.record_pbn(Pbn(1), loc(1), fp(1));
        m.map_write(Lba(1), Pbn(1));
        m.reclaim(Pbn(1));
    }
}
