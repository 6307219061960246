//! The FIDR NIC: in-NIC buffering, hash offload and read LBA lookup.
//!
//! Paper §5.4: the NIC "buffers data and LBAs in its respective in-NIC
//! buffers, hashes each chunk of a batch of requests and sends the hash
//! values to the host"; for reads, the "LBA Lookup module scans the LBA
//! buffer of write requests to find a possible match". Buffering is
//! battery-backed, so write completion is acknowledged the moment the
//! chunk lands in the buffer (§7.6.1).

use bytes::Bytes;
use fidr_chunk::Lba;
use fidr_faults::{FaultInjector, FaultSite};
use fidr_hash::Fingerprint;
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
    /// Chunks hashed by the in-NIC SHA cores.
    pub chunks_hashed: u64,
    /// Read requests served straight from the in-NIC write buffer.
    pub read_buffer_hits: u64,
    /// Read requests forwarded to the host.
    pub read_buffer_misses: u64,
}

/// The FIDR NIC write buffer + hash engine + LBA lookup.
///
/// Lifecycle: [`accept_write`](FidrNic::accept_write) buffers and acks;
/// [`take_hash_batch`](FidrNic::take_hash_batch) drains pending chunks
/// through the SHA cores; [`complete`](FidrNic::complete) releases a
/// chunk's buffer space once the backend has committed it. Chunks stay
/// visible to [`lookup_read`](FidrNic::lookup_read) until completed.
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
    /// Hash queue entries `(lba, generation)`, oldest first. An entry is
    /// *stale* (skipped lazily at batch time) once its LBA was overwritten
    /// with a newer generation — overwrites never scan this queue, which
    /// keeps `accept_write`/`complete` O(1) on overwrite-heavy workloads.
    pending: VecDeque<(Lba, u64)>,
    /// Live (non-stale) entries in `pending`.
    pending_live: usize,
    /// Generation stamp for the next accepted write.
    next_gen: u64,
    capacity_bytes: u64,
    stats: NicStats,
    faults: Option<FaultInjector>,
    /// Wall-clock time to buffer one incoming write.
    ingest_ns: Histogram,
    /// Wall-clock time for each SHA batch.
    batch_ns: Histogram,
    /// Chunks per SHA batch.
    batch_chunks: Histogram,
}

/// One LBA's newest buffered payload and its hash-queue state.
#[derive(Debug)]
struct BufferedWrite {
    data: Bytes,
    /// Generation of this payload; only the matching queue entry is live.
    gen: u64,
    /// Whether this payload still awaits hashing (its queue entry has not
    /// been taken into a batch yet).
    queued: bool,
}

impl FidrNic {
    /// Creates a NIC with `capacity_bytes` of battery-backed buffer DRAM.
    pub fn new(capacity_bytes: u64) -> Self {
        FidrNic {
            buffer: HashMap::new(),
            pending: VecDeque::new(),
            pending_live: 0,
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

    /// Chunks awaiting hashing.
    pub fn pending_len(&self) -> usize {
        self.pending_live
    }

    /// Accepts a client write; the chunk is durably buffered (battery-
    /// backed) so the caller can acknowledge the client immediately.
    ///
    /// An overwrite of a still-buffered LBA supersedes the old payload.
    pub fn accept_write(&mut self, lba: Lba, data: Bytes) {
        let started = Instant::now();
        let len = data.len() as u64;
        let gen = self.next_gen;
        self.next_gen += 1;
        let entry = BufferedWrite {
            data,
            gen,
            queued: true,
        };
        if let Some(old) = self.buffer.insert(lba, entry) {
            self.stats.resident_bytes -= old.data.len() as u64;
            // The superseded write no longer needs hashing; its queue
            // entry goes stale in place.
            if old.queued {
                self.pending_live -= 1;
            }
        }
        self.stats.resident_bytes += len;
        self.stats.peak_resident_bytes = self
            .stats
            .peak_resident_bytes
            .max(self.stats.resident_bytes);
        self.stats.writes_buffered += 1;
        self.pending.push_back((lba, gen));
        self.pending_live += 1;
        self.ingest_ns.record_duration(started.elapsed());
    }

    /// Runs up to `max` pending chunks through the in-NIC SHA-256 cores
    /// (§5.3 step 2) as one batch, whatever the host's worker or engine
    /// count: `Fingerprint::of_batch` is the software stand-in for the
    /// NIC's parallel cores (§6.2), and how many cores the *model*
    /// charges for is `fidr-core`'s business. Chunks remain buffered and
    /// read-visible.
    pub fn take_hash_batch(&mut self, max: usize) -> Vec<HashedChunk> {
        let started = Instant::now();
        let n = max.min(self.pending_live);
        let mut staged: Vec<(Lba, Bytes)> = Vec::with_capacity(n);
        while staged.len() < n {
            let (lba, gen) = self.pending.pop_front().expect("live entries remain");
            // Skip entries superseded by a newer write to the same LBA.
            let Some(entry) = self.buffer.get_mut(&lba) else {
                continue;
            };
            if entry.gen != gen || !entry.queued {
                continue;
            }
            entry.queued = false;
            self.pending_live -= 1;
            staged.push((lba, entry.data.clone()));
        }
        if staged.is_empty() {
            return Vec::new();
        }
        self.stats.chunks_hashed += staged.len() as u64;
        self.batch_chunks.record(staged.len() as u64);

        let refs: Vec<&[u8]> = staged.iter().map(|(_, data)| data.as_ref()).collect();
        let fingerprints = Fingerprint::of_batch(&refs);
        let hashed = staged
            .into_iter()
            .zip(fingerprints)
            .map(|((lba, data), fingerprint)| HashedChunk {
                lba,
                data,
                fingerprint,
            })
            .collect();
        self.batch_ns.record_duration(started.elapsed());
        hashed
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
}
