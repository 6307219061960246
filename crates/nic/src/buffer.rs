//! The FIDR NIC: in-NIC buffering, hash offload and read LBA lookup.
//!
//! Paper §5.4: the NIC "buffers data and LBAs in its respective in-NIC
//! buffers, hashes each chunk of a batch of requests and sends the hash
//! values to the host"; for reads, the "LBA Lookup module scans the LBA
//! buffer of write requests to find a possible match". Buffering is
//! battery-backed, so write completion is acknowledged the moment the
//! chunk lands in the buffer (§7.6.1).
//!
//! The NIC hashes chunks as they arrive (§1): every [`LANE_GROUP`]
//! buffered writes go through the batch kernel together, at its full
//! per-chunk rate, inside the write that completes the group. A batch the
//! host takes is therefore already hashed, except for the open group's
//! members it reaches (a flush or drain before a group fills, or a batch
//! size that is not a multiple of [`LANE_GROUP`]); the take hashes those
//! itself.

use bytes::Bytes;
use fidr_chunk::Lba;
use fidr_faults::{FaultInjector, FaultSite};
use fidr_hash::{digest_batch_into, Fingerprint, LANE_GROUP};
use fidr_metrics::{Histogram, MetricsSnapshot};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// A chunk the NIC has hashed, ready for host-side dedup lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashedChunk {
    /// Client logical address.
    pub lba: Lba,
    /// Chunk payload, still resident in NIC DRAM.
    pub data: Bytes,
    /// SHA-256 fingerprint computed by the in-NIC hash cores.
    pub fingerprint: Fingerprint,
}

/// NIC-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Write chunks accepted into the buffer.
    pub writes_buffered: u64,
    /// Bytes currently resident in NIC DRAM.
    pub resident_bytes: u64,
    /// Peak NIC DRAM residency.
    pub peak_resident_bytes: u64,
    /// Chunks handed to the host in hashed batches. A superseded payload
    /// that was hashed on arrival is not counted.
    pub chunks_hashed: u64,
    /// Read requests served straight from the in-NIC write buffer.
    pub read_buffer_hits: u64,
    /// Read requests forwarded to the host.
    pub read_buffer_misses: u64,
}

/// The FIDR NIC write buffer + hash engine + LBA lookup.
///
/// Lifecycle of a chunk:
///
/// 1. **Accepted.** [`accept_write`](FidrNic::accept_write) buffers it
///    and the caller acks; it joins the open lane group.
/// 2. **Hashed.** The write that fills the group to [`LANE_GROUP`] live
///    members hashes all of them in one batch-kernel call, and each
///    fingerprint waits in the chunk's hash-queue entry.
/// 3. **Taken.** [`take_hash_batch`](FidrNic::take_hash_batch) hands
///    queued chunks to the host in arrival order, hashing any that are
///    still in the open group.
/// 4. **Completed.** [`complete`](FidrNic::complete) releases the buffer
///    space once the backend has committed the chunk.
///
/// Chunks stay visible to [`lookup_read`](FidrNic::lookup_read) and
/// [`holds`](FidrNic::holds) until completed. An overwrite supersedes
/// the old payload at any stage, and the old payload's fingerprint goes
/// with it.
///
/// # Examples
///
/// ```
/// use fidr_nic::FidrNic;
/// use fidr_chunk::Lba;
/// use bytes::Bytes;
///
/// let mut nic = FidrNic::new(1 << 20);
/// nic.accept_write(Lba(3), Bytes::from(vec![1u8; 4096]));
/// assert!(nic.lookup_read(Lba(3)).is_some()); // served from the buffer
/// let batch = nic.take_hash_batch(16);
/// assert_eq!(batch.len(), 1);
/// nic.complete(Lba(3));
/// assert!(nic.lookup_read(Lba(3)).is_none());
/// ```
#[derive(Debug, Default)]
pub struct FidrNic {
    /// LBA → newest buffered payload (write buffer + LBA buffer combined).
    buffer: HashMap<Lba, BufferedWrite>,
    /// Hash queue, oldest first: one entry per accepted write, so it holds
    /// every generation from its front's on. An entry is *stale* (skipped
    /// lazily at batch time) once its LBA was overwritten with a newer
    /// generation — overwrites never scan this queue, which keeps
    /// `accept_write`/`complete` O(1) on overwrite-heavy workloads.
    pending: VecDeque<Queued>,
    /// Live (non-stale) entries in `pending`.
    pending_live: usize,
    /// The open lane group: `(generation, payload)` of every live queued
    /// write without a fingerprint, oldest first. It holds fewer than
    /// [`LANE_GROUP`] between calls, and every member is newer than every
    /// hashed live entry. [`FidrNic::new`] reserves its capacity, so
    /// writes never allocate for it.
    group: Vec<(u64, Bytes)>,
    /// Generation stamp for the next accepted write.
    next_gen: u64,
    capacity_bytes: u64,
    stats: NicStats,
    faults: Option<FaultInjector>,
    /// Wall-clock time to buffer one incoming write, including the group
    /// hash on the write that fills a lane group.
    ingest_ns: Histogram,
    /// Wall-clock time for each batch take, including any residual hash.
    batch_ns: Histogram,
    /// Chunks per batch take.
    batch_chunks: Histogram,
}

/// One LBA's newest buffered payload and its hash-queue state.
#[derive(Debug)]
struct BufferedWrite {
    data: Bytes,
    /// Generation of this payload; only the matching queue entry is live.
    gen: u64,
    /// Whether this payload still awaits a batch (its queue entry has not
    /// been taken yet).
    queued: bool,
}

/// One hash-queue entry: the write's LBA and generation, and its
/// payload's fingerprint once the write's lane group has been hashed.
#[derive(Debug)]
struct Queued {
    lba: Lba,
    gen: u64,
    fingerprint: Option<Fingerprint>,
}

impl FidrNic {
    /// Creates a NIC with `capacity_bytes` of battery-backed buffer DRAM.
    pub fn new(capacity_bytes: u64) -> Self {
        FidrNic {
            buffer: HashMap::new(),
            pending: VecDeque::new(),
            pending_live: 0,
            group: Vec::with_capacity(LANE_GROUP),
            next_gen: 0,
            capacity_bytes,
            stats: NicStats::default(),
            faults: None,
            ingest_ns: Histogram::new(),
            batch_ns: Histogram::new(),
            batch_chunks: Histogram::new(),
        }
    }

    /// Arms fault injection: buffer-pressure faults make
    /// [`has_room`](FidrNic::has_room) report the buffer full, pushing the
    /// caller down its drain/backpressure path.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Counters so far.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Whether the buffer can take another `bytes`-byte chunk without
    /// exceeding its DRAM capacity. An armed fault injector may report
    /// pressure (no room) even below capacity.
    pub fn has_room(&self, bytes: u64) -> bool {
        if let Some(inj) = &self.faults {
            if inj.fire(FaultSite::NicPressure) {
                return false;
            }
        }
        self.stats.resident_bytes + bytes <= self.capacity_bytes
    }

    /// Chunks awaiting a batch take, whether hashed on arrival or not.
    pub fn pending_len(&self) -> usize {
        self.pending_live
    }

    /// Accepts a client write; the chunk is durably buffered (battery-
    /// backed) so the caller can acknowledge the client immediately.
    ///
    /// An overwrite of a still-buffered LBA supersedes the old payload.
    /// The write that fills the open lane group hashes the group.
    pub fn accept_write(&mut self, lba: Lba, data: Bytes) {
        let started = Instant::now();
        let len = data.len() as u64;
        let gen = self.next_gen;
        self.next_gen += 1;
        self.group.push((gen, data.clone()));
        let entry = BufferedWrite {
            data,
            gen,
            queued: true,
        };
        if let Some(old) = self.buffer.insert(lba, entry) {
            self.stats.resident_bytes -= old.data.len() as u64;
            // The superseded write no longer needs hashing; its queue
            // entry, and any fingerprint in it, goes stale in place.
            if old.queued {
                self.pending_live -= 1;
                if let Some(i) = self.group.iter().position(|&(g, _)| g == old.gen) {
                    self.group.remove(i);
                }
            }
        }
        self.stats.resident_bytes += len;
        self.stats.peak_resident_bytes = self
            .stats
            .peak_resident_bytes
            .max(self.stats.resident_bytes);
        self.stats.writes_buffered += 1;
        self.pending.push_back(Queued {
            lba,
            gen,
            fingerprint: None,
        });
        self.pending_live += 1;
        if self.group.len() == LANE_GROUP {
            self.hash_group();
        }
        self.ingest_ns.record_duration(started.elapsed());
    }

    /// Hashes the full open group in one batch-kernel call and files each
    /// fingerprint in its member's queue entry.
    fn hash_group(&mut self) {
        let digests = digest_members(&self.group);
        let front = self.pending.front().expect("members are queued").gen;
        for ((gen, _), digest) in self.group.drain(..).zip(digests) {
            self.pending[(gen - front) as usize].fingerprint = Some(Fingerprint::from(digest));
        }
    }

    /// Takes up to `max` queued chunks, oldest first, as one hashed batch
    /// for the host (§5.3 step 2), whatever the host's worker or engine
    /// count: the batch kernel is the software stand-in for the NIC's
    /// parallel SHA cores (§6.2), and how many cores the *model* charges
    /// for is `fidr-core`'s business. Chunks whose lane group has not
    /// filled are hashed here. Chunks remain buffered and read-visible.
    pub fn take_hash_batch(&mut self, max: usize) -> Vec<HashedChunk> {
        let started = Instant::now();
        let n = max.min(self.pending_live);
        if n == 0 {
            return Vec::new();
        }
        // Every hashed live entry is older than every open-group member,
        // so the batch ends with the group's oldest `residual` members.
        let residual = n.saturating_sub(self.pending_live - self.group.len());
        let digests = digest_members(&self.group[..residual]);
        let mut members = self.group.drain(..residual).zip(digests);

        let mut batch = Vec::with_capacity(n);
        while batch.len() < n {
            let Queued {
                lba,
                gen,
                fingerprint,
            } = self.pending.pop_front().expect("live entries remain");
            // Skip entries superseded by a newer write to the same LBA.
            let Some(entry) = self.buffer.get_mut(&lba) else {
                continue;
            };
            if entry.gen != gen || !entry.queued {
                continue;
            }
            entry.queued = false;
            self.pending_live -= 1;
            let fingerprint = fingerprint.unwrap_or_else(|| {
                let ((member, _), digest) = members.next().expect("unhashed entries are members");
                assert_eq!(member, gen, "the open group is in queue order");
                Fingerprint::from(digest)
            });
            batch.push(HashedChunk {
                lba,
                data: entry.data.clone(),
                fingerprint,
            });
        }
        self.stats.chunks_hashed += batch.len() as u64;
        self.batch_chunks.record(batch.len() as u64);
        self.batch_ns.record_duration(started.elapsed());
        batch
    }

    /// Exports the NIC's counters, gauges and latency histograms under the
    /// `nic.*` and `hash.*` prefixes (see `docs/OBSERVABILITY.md`).
    pub fn export_metrics(&self, out: &mut MetricsSnapshot) {
        out.set_counter("nic.writes_buffered.chunks", self.stats.writes_buffered);
        out.set_gauge("nic.resident.bytes", self.stats.resident_bytes as f64);
        out.set_counter("nic.peak_resident.bytes", self.stats.peak_resident_bytes);
        out.set_counter("nic.read_buffer_hits.chunks", self.stats.read_buffer_hits);
        out.set_counter(
            "nic.read_buffer_misses.chunks",
            self.stats.read_buffer_misses,
        );
        let pressure = self
            .faults
            .as_ref()
            .map_or(0, |inj| inj.stats().injected(FaultSite::NicPressure));
        out.set_counter("nic.faults.pressure", pressure);
        out.set_wall_clock_histogram("nic.ingest.ns", &self.ingest_ns);
        out.set_counter("hash.chunks_hashed.chunks", self.stats.chunks_hashed);
        out.set_wall_clock_histogram("hash.batch.ns", &self.batch_ns);
        out.set_histogram("hash.batch.chunks", &self.batch_chunks);
    }

    /// The read path's LBA-lookup module (§5.3 read step 2): serves a read
    /// from the write buffer when the address is still resident.
    pub fn lookup_read(&mut self, lba: Lba) -> Option<Bytes> {
        match self.buffer.get(&lba) {
            Some(entry) => {
                self.stats.read_buffer_hits += 1;
                Some(entry.data.clone())
            }
            None => {
                self.stats.read_buffer_misses += 1;
                None
            }
        }
    }

    /// Whether `lba` has a payload in the write buffer. Unlike
    /// [`lookup_read`](FidrNic::lookup_read) it serves no read, so it
    /// counts nothing.
    pub fn holds(&self, lba: Lba) -> bool {
        self.buffer.contains_key(&lba)
    }

    /// Releases a chunk's buffer space after the backend committed it.
    /// A no-op if the LBA was superseded or already completed.
    pub fn complete(&mut self, lba: Lba) {
        // Don't drop a payload that still awaits hashing (it was
        // overwritten after this batch was taken).
        match self.buffer.get(&lba) {
            Some(entry) if entry.queued => {}
            Some(_) => {
                let old = self.buffer.remove(&lba).expect("entry just observed");
                self.stats.resident_bytes -= old.data.len() as u64;
            }
            None => {}
        }
    }
}

/// Digests of up to [`LANE_GROUP`] open-group members' payloads, in
/// order, in one batch-kernel call on fixed arrays; the tail past
/// `members.len()` is zeros.
fn digest_members(members: &[(u64, Bytes)]) -> [[u8; 32]; LANE_GROUP] {
    let refs: [&[u8]; LANE_GROUP] =
        std::array::from_fn(|i| members.get(i).map_or(&[][..], |(_, data)| data.as_ref()));
    let mut digests = [[0; 32]; LANE_GROUP];
    digest_batch_into(&refs[..members.len()], &mut digests[..members.len()]);
    digests
}

/// The NIC's compression scheduler (§5.4): filters a hashed batch down to
/// the chunks the host flagged unique, preserving order — only these cross
/// PCIe to the Compression Engines.
///
/// # Panics
///
/// Panics if `unique_flags` and `batch` lengths differ.
pub fn schedule_unique(batch: Vec<HashedChunk>, unique_flags: &[bool]) -> Vec<HashedChunk> {
    assert_eq!(batch.len(), unique_flags.len(), "one flag per hashed chunk");
    batch
        .into_iter()
        .zip(unique_flags)
        .filter_map(|(c, &u)| u.then_some(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chunk(b: u8) -> Bytes {
        Bytes::from(vec![b; 4096])
    }

    #[test]
    fn buffer_then_hash_then_complete() {
        let mut nic = FidrNic::new(1 << 20);
        nic.accept_write(Lba(1), chunk(1));
        nic.accept_write(Lba(2), chunk(2));
        assert_eq!(nic.pending_len(), 2);
        let batch = nic.take_hash_batch(10);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].lba, Lba(1));
        assert_eq!(batch[0].fingerprint, Fingerprint::of(&chunk(1)));
        nic.complete(Lba(1));
        nic.complete(Lba(2));
        assert_eq!(nic.stats().resident_bytes, 0);
    }

    #[test]
    fn overwrite_supersedes_pending() {
        let mut nic = FidrNic::new(1 << 20);
        nic.accept_write(Lba(5), chunk(1));
        nic.accept_write(Lba(5), chunk(2));
        let batch = nic.take_hash_batch(10);
        assert_eq!(batch.len(), 1, "superseded write dropped from hashing");
        assert_eq!(batch[0].data, chunk(2));
        assert_eq!(nic.stats().resident_bytes, 4096);
    }

    #[test]
    fn read_hits_inflight_writes() {
        let mut nic = FidrNic::new(1 << 20);
        nic.accept_write(Lba(9), chunk(7));
        assert!(nic.holds(Lba(9)) && !nic.holds(Lba(10)), "counts nothing");
        assert_eq!(nic.lookup_read(Lba(9)), Some(chunk(7)));
        assert_eq!(nic.lookup_read(Lba(10)), None);
        let s = nic.stats();
        assert_eq!(s.read_buffer_hits, 1);
        assert_eq!(s.read_buffer_misses, 1);
    }

    #[test]
    fn complete_does_not_drop_rewritten_chunk() {
        let mut nic = FidrNic::new(1 << 20);
        nic.accept_write(Lba(1), chunk(1));
        let _batch = nic.take_hash_batch(1);
        nic.accept_write(Lba(1), chunk(2)); // rewrite lands before commit
        nic.complete(Lba(1));
        assert_eq!(
            nic.lookup_read(Lba(1)),
            Some(chunk(2)),
            "newer payload must survive the older commit"
        );
    }

    #[test]
    fn capacity_accounting_peaks() {
        let mut nic = FidrNic::new(3 * 4096);
        nic.accept_write(Lba(1), chunk(1));
        nic.accept_write(Lba(2), chunk(2));
        assert!(nic.has_room(4096));
        nic.accept_write(Lba(3), chunk(3));
        assert!(!nic.has_room(4096));
        assert_eq!(nic.stats().peak_resident_bytes, 3 * 4096);
    }

    #[test]
    fn scheduler_keeps_only_unique() {
        let mut nic = FidrNic::new(1 << 20);
        for i in 0..4 {
            nic.accept_write(Lba(i), chunk(i as u8));
        }
        let batch = nic.take_hash_batch(4);
        let unique = schedule_unique(batch, &[true, false, false, true]);
        assert_eq!(unique.len(), 2);
        assert_eq!(unique[0].lba, Lba(0));
        assert_eq!(unique[1].lba, Lba(3));
    }

    #[test]
    #[should_panic(expected = "one flag per hashed chunk")]
    fn scheduler_flag_mismatch_panics() {
        schedule_unique(Vec::new(), &[true]);
    }

    #[test]
    fn batch_fingerprints_equal_per_chunk_fingerprints() {
        // Around the lane kernel's width and the 64-chunk NIC batch.
        for size in [1u64, 7, 8, 9, 64, 65] {
            let mut nic = FidrNic::new(1 << 22);
            let payload = |lba: u64| Bytes::from(vec![(lba * 7 % 251) as u8; 4096]);
            // LBA 0 is overwritten before the batch is taken: its first
            // queue entry goes stale and must neither hash nor shift a
            // fingerprint onto a neighbouring chunk.
            nic.accept_write(Lba(0), chunk(0xEE));
            for lba in 1..size {
                nic.accept_write(Lba(lba), payload(lba));
            }
            nic.accept_write(Lba(0), payload(0));
            let batch = nic.take_hash_batch(usize::MAX);
            assert_eq!(batch.len() as u64, size, "stale entry must not hash");
            for (i, hashed) in batch.iter().enumerate() {
                // The overwrite re-queued LBA 0 behind LBAs 1..size.
                let lba = (i as u64 + 1) % size;
                assert_eq!(hashed.lba, Lba(lba), "batch of {size}");
                assert_eq!(hashed.data, payload(lba), "batch of {size}");
                assert_eq!(
                    hashed.fingerprint,
                    Fingerprint::of(&hashed.data),
                    "batch of {size}, chunk {i}"
                );
            }
            assert_eq!(nic.stats().chunks_hashed, size);
        }
    }

    #[test]
    fn completing_unknown_lba_is_harmless() {
        let mut nic = FidrNic::new(1 << 20);
        nic.complete(Lba(999));
        assert_eq!(nic.stats().resident_bytes, 0);
    }

    #[test]
    fn overwrite_does_not_leak_capacity() {
        let mut nic = FidrNic::new(2 * 4096);
        for _ in 0..10 {
            nic.accept_write(Lba(1), chunk(1));
        }
        assert_eq!(nic.stats().resident_bytes, 4096);
        assert!(nic.has_room(4096));
        let batch = nic.take_hash_batch(10);
        assert_eq!(batch.len(), 1, "only the surviving payload hashes");
    }

    #[test]
    fn pending_len_counts_only_live_entries() {
        let mut nic = FidrNic::new(1 << 20);
        for _ in 0..5 {
            nic.accept_write(Lba(1), chunk(1));
        }
        nic.accept_write(Lba(2), chunk(2));
        assert_eq!(nic.pending_len(), 2, "stale overwrite entries excluded");
        let batch = nic.take_hash_batch(10);
        assert_eq!(batch.len(), 2);
        assert_eq!(nic.pending_len(), 0);
    }

    #[test]
    fn interleaved_overwrites_batches_and_completes_stay_consistent() {
        // Regression for the old O(n) VecDeque bookkeeping: a dense mix of
        // overwrites, partial batches and completes must leave exactly the
        // newest payload per LBA visible, with exact byte accounting.
        let mut nic = FidrNic::new(1 << 22);
        for round in 0..8u8 {
            for i in 0..16u64 {
                nic.accept_write(Lba(i % 4), Bytes::from(vec![round ^ i as u8; 4096]));
            }
            let batch = nic.take_hash_batch(3);
            for c in &batch {
                assert_eq!(c.fingerprint, Fingerprint::of(&c.data));
                nic.complete(c.lba);
            }
        }
        // Drain every remaining live entry and complete everything.
        loop {
            let batch = nic.take_hash_batch(64);
            if batch.is_empty() {
                break;
            }
            for c in batch {
                nic.complete(c.lba);
            }
        }
        assert_eq!(nic.pending_len(), 0);
        assert_eq!(nic.stats().resident_bytes, 0, "no capacity leaked");
        assert_eq!(nic.lookup_read(Lba(0)), None);
    }

    #[test]
    fn injected_pressure_reports_no_room_deterministically() {
        use fidr_faults::{FaultInjector, FaultPlan};
        let plan = FaultPlan {
            seed: 3,
            nic_pressure: 1.0,
            ..FaultPlan::default()
        };
        let mut nic = FidrNic::new(1 << 20);
        nic.set_fault_injector(FaultInjector::new(plan));
        assert!(!nic.has_room(4096), "pressure fault reports a full buffer");
        let mut snap = MetricsSnapshot::new();
        nic.export_metrics(&mut snap);
        assert_eq!(snap.counter("nic.faults.pressure"), Some(1));
    }

    /// A short payload unique to `(lba, version)`, with a length that
    /// varies so lane groups are ragged as well as uniform.
    fn payload(lba: u64, version: u64) -> Bytes {
        let seed = lba.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version.wrapping_mul(0xD1B5_4A32);
        let len = 100 + (seed % 64) as usize;
        Bytes::from(
            (0..len as u64)
                .map(|i| (seed >> (i % 8 * 8)) as u8 ^ i as u8)
                .collect::<Vec<u8>>(),
        )
    }

    /// Whether the queue entry is the newest, not yet taken, write of its
    /// LBA.
    fn is_live(nic: &FidrNic, q: &Queued) -> bool {
        nic.buffer
            .get(&q.lba)
            .is_some_and(|e| e.gen == q.gen && e.queued)
    }

    /// The open group is exactly the live entries without a fingerprint,
    /// in queue order and short of a full group, and every fingerprint
    /// already filed belongs to its entry's current payload.
    fn check_lane_groups(nic: &FidrNic) {
        let live: Vec<&Queued> = nic.pending.iter().filter(|q| is_live(nic, q)).collect();
        assert_eq!(live.len(), nic.pending_len());
        let unhashed: Vec<u64> = live
            .iter()
            .filter(|q| q.fingerprint.is_none())
            .map(|q| q.gen)
            .collect();
        let members: Vec<u64> = nic.group.iter().map(|&(gen, _)| gen).collect();
        assert_eq!(unhashed, members, "open group = live unhashed entries");
        assert!(members.len() < LANE_GROUP, "a full group is hashed at once");
        for q in live {
            if let Some(fp) = q.fingerprint {
                let data = &nic.buffer[&q.lba].data;
                assert_eq!(fp, Fingerprint::of(data), "LBA {:?} gen {}", q.lba, q.gen);
            }
        }
    }

    /// Asserts every chunk of `batch` carries its own payload's
    /// fingerprint.
    fn assert_fingerprints_match(batch: &[HashedChunk], context: &str) {
        for (i, c) in batch.iter().enumerate() {
            assert_eq!(
                c.fingerprint,
                Fingerprint::of(&c.data),
                "{context}: chunk {i} ({:?})",
                c.lba
            );
        }
    }

    #[test]
    fn early_fingerprints_match_at_every_group_boundary() {
        for n in [1u64, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65] {
            let mut nic = FidrNic::new(1 << 22);
            for lba in 0..n {
                nic.accept_write(Lba(lba), payload(lba, 0));
            }
            check_lane_groups(&nic);
            assert_eq!(nic.group.len() as u64, n % LANE_GROUP as u64, "{n} accepts");
            let batch = nic.take_hash_batch(64);
            assert_eq!(batch.len() as u64, n.min(64));
            for (i, c) in batch.iter().enumerate() {
                assert_eq!(c.lba, Lba(i as u64), "{n} accepts");
                assert_eq!(c.data, payload(i as u64, 0), "{n} accepts");
            }
            assert_fingerprints_match(&batch, &format!("{n} accepts"));
            let rest = nic.take_hash_batch(64);
            assert_eq!(rest.len() as u64, n.saturating_sub(64));
            assert_fingerprints_match(&rest, &format!("{n} accepts, second take"));
            assert!(nic.group.is_empty());
            assert_eq!(nic.stats().chunks_hashed, n);
        }
    }

    #[test]
    fn overwrite_of_a_hashed_payload_drops_its_fingerprint() {
        let mut nic = FidrNic::new(1 << 22);
        for lba in 0..16 {
            nic.accept_write(Lba(lba), payload(lba, 0));
        }
        assert!(nic.group.is_empty(), "sixteen accepts hash their group");
        // LBA 3 was hashed; LBA 20 is rewritten inside the open group.
        nic.accept_write(Lba(3), payload(3, 1));
        nic.accept_write(Lba(20), payload(20, 0));
        nic.accept_write(Lba(20), payload(20, 1));
        check_lane_groups(&nic);
        let batch = nic.take_hash_batch(64);
        let lbas: Vec<u64> = batch.iter().map(|c| c.lba.0).collect();
        let mut want: Vec<u64> = (0..16).filter(|&l| l != 3).collect();
        want.extend([3, 20]);
        assert_eq!(lbas, want);
        assert_eq!(batch[15].data, payload(3, 1));
        assert_eq!(batch[16].data, payload(20, 1));
        assert_fingerprints_match(&batch, "overwrite before take");
        assert_eq!(
            nic.stats().chunks_hashed,
            17,
            "superseded payloads uncounted"
        );
    }

    #[test]
    fn overwrite_after_take_is_hashed_as_the_new_payload() {
        let mut nic = FidrNic::new(1 << 22);
        for lba in 0..16 {
            nic.accept_write(Lba(lba), payload(lba, 0));
        }
        let first = nic.take_hash_batch(16);
        assert_fingerprints_match(&first, "first take");
        // Rewrites of taken LBAs, then enough new writes to fill a group.
        for lba in 0..4 {
            nic.accept_write(Lba(lba), payload(lba, 1));
        }
        for lba in 100..112 {
            nic.accept_write(Lba(lba), payload(lba, 0));
        }
        assert!(nic.group.is_empty());
        check_lane_groups(&nic);
        let second = nic.take_hash_batch(64);
        assert_eq!(second.len(), 16);
        for (c, lba) in second.iter().zip(0..4) {
            assert_eq!((c.lba, &c.data), (Lba(lba), &payload(lba, 1)));
        }
        assert_fingerprints_match(&second, "overwrite after take");
    }

    #[test]
    fn partial_take_in_mid_group_hashes_only_what_it_takes() {
        let mut nic = FidrNic::new(1 << 22);
        for lba in 0..10 {
            nic.accept_write(Lba(lba), payload(lba, 0));
        }
        let head = nic.take_hash_batch(3);
        assert_eq!(head.iter().map(|c| c.lba.0).collect::<Vec<_>>(), [0, 1, 2]);
        assert_fingerprints_match(&head, "take 3 of 10");
        assert_eq!(nic.group.len(), 7, "the untaken members stay open");
        check_lane_groups(&nic);
        // Nine more writes fill the group: seven old members, nine new.
        for lba in 10..19 {
            nic.accept_write(Lba(lba), payload(lba, 0));
        }
        assert!(nic.group.is_empty());
        check_lane_groups(&nic);
        let rest = nic.take_hash_batch(64);
        assert_eq!(
            rest.iter().map(|c| c.lba.0).collect::<Vec<_>>(),
            (3..19).collect::<Vec<_>>()
        );
        assert_fingerprints_match(&rest, "after the group filled");
    }

    #[test]
    fn complete_of_a_rewritten_taken_chunk_keeps_the_new_payload_hashable() {
        let mut nic = FidrNic::new(1 << 22);
        for lba in 0..16 {
            nic.accept_write(Lba(lba), payload(lba, 0));
        }
        let taken = nic.take_hash_batch(16);
        nic.accept_write(Lba(5), payload(5, 1)); // rewrite lands before commit
        for c in &taken {
            nic.complete(c.lba);
        }
        assert_eq!(nic.lookup_read(Lba(5)), Some(payload(5, 1)));
        assert_eq!(nic.stats().resident_bytes, payload(5, 1).len() as u64);
        check_lane_groups(&nic);
        for lba in 16..31 {
            nic.accept_write(Lba(lba), payload(lba, 0));
        }
        assert!(nic.group.is_empty());
        let batch = nic.take_hash_batch(64);
        assert_eq!((batch[0].lba, &batch[0].data), (Lba(5), &payload(5, 1)));
        assert_fingerprints_match(&batch, "rewrite completed under");
    }

    #[test]
    fn sixty_four_accepts_leave_at_most_one_group_unhashed() {
        // Overwrites inside the open group and of hashed payloads, so the
        // queue holds stale entries among the live ones.
        let mut nic = FidrNic::new(1 << 22);
        for i in 0..64u64 {
            let lba = if i % 7 == 6 { i - 1 } else { i % 40 };
            nic.accept_write(Lba(lba), payload(lba, i));
            check_lane_groups(&nic);
        }
        let unhashed = nic
            .pending
            .iter()
            .filter(|q| is_live(&nic, q) && q.fingerprint.is_none())
            .count();
        assert!(unhashed <= LANE_GROUP, "{unhashed} live entries unhashed");
        assert_eq!(unhashed, nic.group.len());
    }

    /// One step of a random NIC history.
    #[derive(Debug, Clone)]
    enum Step {
        Accept(u64),
        Take(usize),
        Complete(u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => (0u64..24).prop_map(Step::Accept),
            1 => (0usize..40).prop_map(Step::Take),
            1 => (0u64..24).prop_map(Step::Complete),
        ]
    }

    proptest! {
        /// Random accepts, overwrites, takes and completes: every taken
        /// chunk is its LBA's newest payload with that payload's own
        /// fingerprint, and the open group stays exactly the unhashed
        /// live entries.
        #[test]
        fn random_histories_take_their_own_fingerprints(
            steps in proptest::collection::vec(step(), 1..200),
        ) {
            let mut nic = FidrNic::new(1 << 24);
            let mut newest: HashMap<u64, u64> = HashMap::new();
            for s in steps {
                match s {
                    Step::Accept(lba) => {
                        let version = newest.get(&lba).map_or(0, |v| v + 1);
                        newest.insert(lba, version);
                        nic.accept_write(Lba(lba), payload(lba, version));
                    }
                    Step::Take(max) => {
                        let batch = nic.take_hash_batch(max);
                        for c in &batch {
                            prop_assert_eq!(&c.data, &payload(c.lba.0, newest[&c.lba.0]));
                        }
                        assert_fingerprints_match(&batch, "random history");
                    }
                    Step::Complete(lba) => nic.complete(Lba(lba)),
                }
                check_lane_groups(&nic);
            }
        }
    }
}
