//! The end-to-end FIDR system (paper Figure 6).
//!
//! Write flow (steps 1–10): the NIC buffers the request in battery-backed
//! NIC DRAM and acks immediately; in-NIC SHA cores hash buffered batches;
//! only the hash values go to the host; the device manager drives the
//! Cache HW-Engine (or the software cache, in staged variants) to locate
//! buckets; the host scans cache content for duplicate status; the NIC's
//! compression scheduler ships *unique chunks only* peer-to-peer to the
//! Compression Engine; sealed containers move Compression Engine → data
//! SSD peer-to-peer; the host updates metadata. Client data never touches
//! host DRAM.
//!
//! Read flow (steps 1–8): the NIC serves buffered writes directly;
//! otherwise the host resolves LBA→PBA and orchestrates data SSD →
//! Decompression Engine → NIC transfers, again bypassing host memory.

use crate::backend::{CacheBackend, CacheMode};
use bytes::Bytes;
use fidr_cache::{
    CacheStats, HwTree, HwTreeStats, ScrubResult, ShardedTableCache, Temperature, TieredPolicy,
    TieredPolicyConfig,
};
use fidr_chunk::{Lba, Pbn};
use fidr_compress::CompressedChunk;
use fidr_faults::{FaultInjector, FaultPlan, RetryPolicy};
use fidr_hash::{Fingerprint, LANE_GROUP};
use fidr_hwsim::{ops, CostParams, CpuTask, Ledger, MemPath, PcieLink};
use fidr_metrics::MetricsSnapshot;
use fidr_nic::{FidrNic, HashedChunk, NicStats};
use fidr_pool::{PoolStats, WorkerPool};
use fidr_ssd::{QueueLocation, TableSsd};
use fidr_store::{ChunkStore, DataPath, Op};
use fidr_tables::{GcReport, ReductionStats, BUCKET_BYTES};
use fidr_trace::{SpanToken, TraceConfig, Tracer};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

pub use fidr_store::StoreError as FidrError;

/// Configuration of a FIDR instance.
#[derive(Debug, Clone)]
pub struct FidrConfig {
    /// Host-DRAM table-cache capacity in 4-KB lines.
    pub cache_lines: usize,
    /// Buckets in the Hash-PBN table on the table SSDs.
    pub table_buckets: u64,
    /// Container flush threshold in bytes (4 MB in §5.3).
    pub container_threshold: usize,
    /// NIC buffer DRAM in bytes.
    pub nic_buffer_bytes: u64,
    /// Hashed chunks one batch takes from the NIC to look up and commit
    /// (the NIC hashes each 16-chunk lane group as it lands).
    pub hash_batch: usize,
    /// Table-cache drive mode (software vs HW-Engine; Figure 14 stages).
    pub cache_mode: CacheMode,
    /// Modelled HW-tree pipeline depth (None derives it from
    /// `cache_lines`; experiments set the PB-scale 14).
    pub hwtree_levels: Option<usize>,
    /// Data SSDs in the array.
    pub data_ssds: u32,
    /// Calibrated per-operation costs.
    pub cost: CostParams,
    /// Seeded fault schedule for the device models (inert by default).
    pub faults: FaultPlan,
    /// Bounded-retry policy for device faults and checksum re-reads.
    pub retry: RetryPolicy,
    /// Span tracing (off by default; see `docs/OBSERVABILITY.md`).
    pub trace: TraceConfig,
    /// Host worker threads for the per-socket batch pipeline (hashing,
    /// dedup lookup, compression). Results merge in batch order, so the
    /// modelled metrics are byte-identical for any worker count.
    pub workers: usize,
    /// Independent hash-prefix shards of the table cache. Each shard has
    /// its own index engine; 1 reproduces the unsharded cache exactly.
    pub cache_shards: usize,
    /// Temperature-tiered dedup (HPDedup/CARAM hybrid): classify streams
    /// hot/cold by temporal locality, keep cold-stream fingerprints out
    /// of the DRAM tier, and dedup their writes later via the background
    /// scrubber. `None` (the default) is the flat, always-inline cache.
    pub tiered: Option<TieredDedupConfig>,
}

/// Default for the `lba >> stream_shift` stream-id keying, shared by
/// [`TieredDedupConfig`] and the server telemetry rollups so the tiered
/// admission policy and `fidr top` can never silently disagree on what
/// a stream (tenant) is. 22 bits of 4-KiB blocks = 16 GiB per stream.
pub const DEFAULT_STREAM_SHIFT: u32 = 22;

/// Tunables for the hybrid prioritized dedup path
/// ([`FidrConfig::tiered`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieredDedupConfig {
    /// Per-stream locality classifier settings.
    pub policy: TieredPolicyConfig,
    /// Stream id = `lba >> stream_shift`: writes are attributed to
    /// coarse LBA regions, matching how the multi-stream workload
    /// generator partitions its address space.
    pub stream_shift: u32,
    /// Deferred writes accumulated before an opportunistic scrub pass
    /// runs at the end of a batch (a flush always scrubs everything).
    pub scrub_batch: usize,
}

impl Default for TieredDedupConfig {
    fn default() -> Self {
        TieredDedupConfig {
            policy: TieredPolicyConfig::default(),
            stream_shift: DEFAULT_STREAM_SHIFT,
            scrub_batch: 512,
        }
    }
}

impl Default for FidrConfig {
    fn default() -> Self {
        FidrConfig {
            cache_lines: 4096,
            table_buckets: 1 << 17,
            container_threshold: 4 << 20,
            nic_buffer_bytes: 1 << 30,
            hash_batch: 64,
            cache_mode: CacheMode::HwEngine { update_slots: 4 },
            hwtree_levels: None,
            data_ssds: 2,
            cost: CostParams::default(),
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            trace: TraceConfig::default(),
            workers: 1,
            cache_shards: 1,
            tiered: None,
        }
    }
}

/// One write committed without an inline table lookup, awaiting the
/// dedup scrubber.
#[derive(Debug, Clone, Copy)]
struct DeferredWrite {
    lba: Lba,
    fp: Fingerprint,
    /// The PBN the chunk was stored under; retired if the scrub finds a
    /// canonical copy.
    pbn: Pbn,
    /// Hash-PBN bucket of `fp` (scrubs batch by bucket).
    bucket: u64,
    /// Deferral order, for deterministic re-queueing after an IO error.
    seq: u64,
}

/// Counters of the tiered/deferred path, exported (when active) as
/// `cache.tier.*` / `dedup.deferred.*` / `scrub.*`.
#[derive(Debug, Default, Clone, Copy)]
struct TierStats {
    deferred_total: u64,
    cold_resident: u64,
    cold_fetches: u64,
    cold_writebacks: u64,
    scrub_runs: u64,
    scrub_processed: u64,
    scrub_dups: u64,
    scrub_inserts: u64,
    scrub_stale: u64,
    scrub_table_full: u64,
}

/// Live state of the hybrid prioritized dedup path.
#[derive(Debug)]
struct TieredState {
    policy: TieredPolicy,
    stream_shift: u32,
    scrub_batch: usize,
    /// FIFO of cold-stream writes awaiting offline dedup, in seq order.
    deferred: VecDeque<DeferredWrite>,
    next_seq: u64,
    stats: TierStats,
}

impl TieredState {
    fn new(cfg: &TieredDedupConfig) -> Self {
        TieredState {
            policy: TieredPolicy::new(cfg.policy),
            stream_shift: cfg.stream_shift,
            scrub_batch: cfg.scrub_batch.max(1),
            deferred: VecDeque::new(),
            next_seq: 0,
            stats: TierStats::default(),
        }
    }
}

/// A NIC batch taken for the host whose entries are not all committed
/// yet. Each write resolves and commits the next [`LANE_GROUP`] entries
/// and every other op commits the rest first, so without errors it lives
/// only between consecutive writes; a failed lookup or commit keeps it
/// open until one succeeds.
#[derive(Debug)]
struct OpenBatch {
    chunks: Vec<HashedChunk>,
    temps: Option<Vec<Temperature>>,
    /// The store's PBN cursor at the take: a lookup hit at or past it is
    /// a chunk an earlier group of this batch staged.
    first_pbn: Pbn,
    /// The dedup hit of each resolved entry, a prefix of `chunks`.
    resolved: Vec<Option<Pbn>>,
    /// Speculative compressions of the resolved entries, by entry.
    precompressed: Vec<Option<(CompressedChunk, Duration)>>,
    /// The first entry not yet committed.
    next: usize,
}

/// The FIDR data-reduction server.
///
/// # Examples
///
/// ```
/// use fidr_core::{FidrConfig, FidrSystem};
/// use fidr_chunk::Lba;
/// use bytes::Bytes;
///
/// let mut sys = FidrSystem::new(FidrConfig::default());
/// let data = Bytes::from(vec![42u8; 4096]);
/// sys.write(Lba(0), data.clone())?;
/// assert_eq!(sys.read(Lba(0))?, data.to_vec());
/// # Ok::<(), fidr_core::FidrError>(())
/// ```
#[derive(Debug)]
pub struct FidrSystem {
    cfg: FidrConfig,
    nic: FidrNic,
    cache: CacheBackend,
    table_ssd: TableSsd,
    /// LBA map, containers, data SSDs, delete/GC/checkpoint lifecycle,
    /// ledger and tracer — everything shared with the baseline.
    store: ChunkStore,
    /// Shared fault injector armed into every device model.
    faults: FaultInjector,
    /// The HW-Engine cache retired by graceful degradation — kept so its
    /// cache and engine counters stay reportable; it no longer serves
    /// accesses.
    retired_hw: Option<ShardedTableCache<HwTree>>,
    /// Backlog-drain rounds forced by NIC buffer pressure.
    nic_drain_rounds: u64,
    /// Persistent worker pool for the batch pipeline (present only when
    /// `cfg.workers > 1` with an inert fault plan). Long-lived threads
    /// with thread-per-shard-group affinity replace the per-batch
    /// scoped-thread spawns of earlier revisions; see `fidr-pool`.
    pool: Option<WorkerPool>,
    /// Hybrid prioritized dedup state (None = flat, always-inline cache).
    tiered: Option<TieredState>,
    /// The batch the last batch-filling write opened, until committed.
    open: Option<OpenBatch>,
    /// Resolve each open batch with one lookup over the whole batch:
    /// the reference the tests hold the per-group lookups to.
    #[cfg(test)]
    whole_batch_lookups: bool,
}

/// Ledger positions captured before a cache access, used to split the
/// access into `table_ssd` / `hwtree` / host time afterwards.
#[derive(Debug, Clone, Copy)]
struct CacheMarks {
    host_ns: u64,
    table_bytes: u64,
    hw_cycles: u64,
}

/// Where the table SSDs' NVMe queues live for a cache mode.
fn queue_location(mode: CacheMode) -> QueueLocation {
    match mode {
        CacheMode::Software => QueueLocation::HostMemory,
        CacheMode::HwEngine { .. } => QueueLocation::CacheEngine,
    }
}

impl FidrSystem {
    /// Builds a FIDR server from `cfg`.
    pub fn new(cfg: FidrConfig) -> Self {
        let faults = FaultInjector::new(cfg.faults);
        let mut nic = FidrNic::new(cfg.nic_buffer_bytes);
        nic.set_fault_injector(faults.clone());
        let mut table_ssd = TableSsd::new(cfg.table_buckets, queue_location(cfg.cache_mode));
        table_ssd.set_fault_injector(faults.clone(), cfg.retry);
        let store = ChunkStore::new(
            DataPath::PeerToPeer,
            cfg.container_threshold,
            cfg.data_ssds,
            cfg.cost,
            cfg.retry,
            cfg.trace,
            faults.clone(),
        );
        // Spin up the persistent worker pool once, here, rather than
        // spawning threads per batch. An armed fault plan forces the
        // serial path (deterministic fault replay), so no pool is built.
        let pool = if cfg.workers > 1 && cfg.faults.is_inert() {
            Some(WorkerPool::new(cfg.workers))
        } else {
            None
        };
        FidrSystem {
            nic,
            cache: CacheBackend::new(
                cfg.cache_mode,
                cfg.cache_lines,
                cfg.hwtree_levels,
                cfg.cache_shards.max(1),
            ),
            table_ssd,
            store,
            faults,
            retired_hw: None,
            nic_drain_rounds: 0,
            pool,
            tiered: cfg.tiered.as_ref().map(TieredState::new),
            open: None,
            #[cfg(test)]
            whole_batch_lookups: false,
            cfg,
        }
    }

    /// The span tracer: export with [`Tracer::export_chrome_json`], read
    /// the breakdown with [`Tracer::critical_path`]. A no-op unless
    /// [`FidrConfig::trace`] enabled it.
    pub fn tracer(&self) -> &Tracer {
        &self.store.tracer
    }

    /// Marks for [`finish_cache_span`](Self::finish_cache_span); `None`
    /// with tracing off, so untraced runs skip the stats merge.
    fn cache_marks(&self) -> Option<CacheMarks> {
        self.store.tracer.is_enabled().then(|| CacheMarks {
            host_ns: self.store.host_mark(),
            table_bytes: self.store.table_io_bytes(),
            hw_cycles: self.cache.hwtree_stats().map_or(0, |s| s.cycles),
        })
    }

    /// Closes a `cache` span: emits `table_ssd` / `hwtree` child spans
    /// sized by the ledger deltas since `marks`, then charges the residual
    /// host time to the cache span itself.
    fn finish_cache_span(&mut self, span: SpanToken, marks: Option<CacheMarks>) {
        let Some(marks) = marks else {
            self.store.tracer.end(span);
            return;
        };
        self.store.table_io_span(marks.table_bytes);
        // saturating: a mid-access HW-engine degradation retires the stats.
        let hw_cycles = self
            .cache
            .hwtree_stats()
            .map_or(0, |s| s.cycles)
            .saturating_sub(marks.hw_cycles);
        if hw_cycles > 0 {
            let t = self.store.tracer.begin("hwtree");
            self.store.tracer.attr(t, "cycles", hw_cycles);
            self.store
                .tracer
                .advance(self.store.time.hwtree_ns(hw_cycles));
            self.store.tracer.end(t);
        }
        self.store.advance_host(marks.host_ns);
        self.store.tracer.end(span);
    }

    /// Resource ledger accumulated so far.
    pub fn ledger(&self) -> &Ledger {
        &self.store.ledger
    }

    /// Data-reduction outcomes so far.
    pub fn stats(&self) -> ReductionStats {
        self.store.stats
    }

    /// Table-cache counters. After a HW-Engine degradation these cover
    /// both the retired HW backend and its software replacement.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.cache.stats();
        if let Some(retired) = &self.retired_hw {
            stats.merge(retired.stats());
        }
        stats
    }

    /// Cache HW-Engine counters (None if the engine never ran). A
    /// degraded engine still reports the counters it accumulated.
    pub fn hwtree_stats(&self) -> Option<HwTreeStats> {
        self.cache
            .hwtree_stats()
            .or_else(|| self.retired_hw.as_ref().map(|c| c.hwtree_stats()))
    }

    /// True once an injected Cache HW-Engine failure forced the fallback
    /// to the software table cache.
    pub fn hw_engine_degraded(&self) -> bool {
        self.retired_hw.is_some()
    }

    /// The Cache HW-Engine's client-throughput ceiling (bytes/s) for this
    /// run — client bytes served over the engine's busy time — folded into
    /// the §7.5 projection (None in software cache mode).
    pub fn hwtree_throughput(&self, fpga_dram_bw: f64) -> Option<f64> {
        let elapsed = self
            .cache
            .hwtree_elapsed_seconds(fpga_dram_bw)
            .or_else(|| {
                self.retired_hw
                    .as_ref()
                    .map(|c| c.hwtree_elapsed_seconds(fpga_dram_bw))
            })?;
        if elapsed <= 0.0 {
            return None;
        }
        Some(self.store.ledger.client_bytes() as f64 / elapsed)
    }

    /// NIC counters.
    pub fn nic_stats(&self) -> NicStats {
        self.nic.stats()
    }

    /// Bytes stored on the data SSDs so far (sealed containers).
    pub fn stored_bytes(&self) -> u64 {
        self.store.stored_bytes()
    }

    /// Accepts one 4-KB client write (Figure 6a step 1). The NIC buffers
    /// and acks. The write that brings the NIC to `hash_batch` chunks
    /// takes the batch, then looks up and commits its first
    /// [`LANE_GROUP`] entries; each following write looks up and commits
    /// the next group, and every other op [`settle`](Self::settle)s
    /// first.
    ///
    /// # Errors
    ///
    /// [`FidrError::BadChunkSize`], [`FidrError::NicBufferFull`], or a
    /// propagated backend error from the batch work this write carries.
    /// The write itself is buffered by then; the failed batch work stays
    /// open and the next op resumes it.
    pub fn write(&mut self, lba: Lba, data: Bytes) -> Result<(), FidrError> {
        let op = self.store.begin_op(Op::Write(lba));
        let out = self.write_inner(lba, data);
        self.store.end_op(op, out)
    }

    /// Accepts a batch of 4-KB client writes: exactly
    /// [`write`](FidrSystem::write) per chunk, so the NIC still takes a
    /// batch every `hash_batch` chunks. With [`FidrConfig::workers`] > 1
    /// each lane group's dedup lookups and speculative compression fan
    /// out across the worker pool; the NIC has already hashed the chunks.
    ///
    /// # Errors
    ///
    /// Stops at the first failing write and returns its error.
    pub fn write_batch(
        &mut self,
        writes: impl IntoIterator<Item = (Lba, Bytes)>,
    ) -> Result<(), FidrError> {
        for (lba, data) in writes {
            self.write(lba, data)?;
        }
        Ok(())
    }

    fn write_inner(&mut self, lba: Lba, data: Bytes) -> Result<(), FidrError> {
        if data.len() != BUCKET_BYTES {
            return Err(FidrError::BadChunkSize(data.len()));
        }
        let len = data.len() as u64;
        // Admission span: buffering plus any backlog drains or pressure
        // backoff the NIC forces before accepting. (A drain runs whole
        // batches, so `hash`/`cache`/... spans may nest under `nic` here.)
        let nic_span = self.store.tracer.begin("nic");
        let mut pressure_waits = 0u32;
        while !self.nic.has_room(len) {
            // Drains start from the state a whole-batch commit leaves.
            self.settle()?;
            let before = self.nic.pending_len();
            if before > 0 {
                // Drain the backlog, then retry the admission check —
                // repeatedly, since one batch may not free enough room.
                self.nic_drain_rounds += 1;
                self.process_batch()?;
                if self.nic.pending_len() >= before && !self.nic.has_room(len) {
                    // No forward progress: the backlog is stuck.
                    return Err(FidrError::NicBufferFull);
                }
            } else {
                // Nothing left to drain, so the pressure is transient
                // (injected): wait it out with modelled backoff, bounded
                // by the retry budget.
                if pressure_waits >= self.cfg.retry.max_retries {
                    return Err(FidrError::NicBufferFull);
                }
                let backoff = self.cfg.retry.backoff(pressure_waits);
                self.store.record_backoff(backoff);
                self.store
                    .tracer
                    .advance(backoff.as_nanos().min(u64::MAX as u128) as u64);
                pressure_waits += 1;
            }
        }
        self.store.ledger.add_client_write_bytes(len);
        self.store.stats.write_chunks += 1;
        self.store.stats.raw_bytes += len;
        self.store.ledger.nic_dram_bytes += len;

        // Step 1: in-NIC buffering; write completion acks immediately.
        self.nic.accept_write(lba, data);
        if self.store.tracer.is_enabled() {
            self.store.tracer.advance(self.store.time.nic_ns(len));
            if pressure_waits > 0 {
                self.store
                    .tracer
                    .attr(nic_span, "retries", u64::from(pressure_waits));
            }
        }
        self.store.tracer.end(nic_span);

        if self.open.is_some() {
            self.commit_open(LANE_GROUP)?;
        } else if self.nic.pending_len() >= self.cfg.hash_batch {
            self.open_batch();
            self.commit_open(LANE_GROUP)?;
        }
        Ok(())
    }

    /// Splits a multi-chunk client write into 4-KB chunks (the chunking
    /// component, §2.1.1) and writes each; returns the chunk count.
    ///
    /// # Errors
    ///
    /// [`FidrError::BadChunkSize`] if the request is empty or ragged,
    /// plus anything [`write`](FidrSystem::write) returns.
    pub fn write_request(&mut self, start: Lba, data: Bytes) -> Result<usize, FidrError> {
        let len = data.len();
        let chunks = fidr_chunk::FixedChunker::default()
            .split(start, data)
            .map_err(|_| FidrError::BadChunkSize(len))?;
        let n = chunks.len();
        for chunk in chunks {
            self.write(chunk.lba, chunk.data)?;
        }
        Ok(n)
    }

    /// Deletes one 4-KB client block: unmaps the LBA, releases its
    /// reference on the shared chunk, and — when that was the last
    /// reference — queues the chunk for the next
    /// [`collect_garbage`](FidrSystem::collect_garbage) pass. The chunk's
    /// bytes stay readable through other LBAs that still reference it.
    ///
    /// # Errors
    ///
    /// [`FidrError::NotMapped`] if the LBA holds no current mapping, or a
    /// propagated backend error if draining a NIC-buffered write of the
    /// same LBA fails.
    pub fn delete(&mut self, lba: Lba) -> Result<(), FidrError> {
        let op = self.store.begin_op(Op::Delete(lba));
        let out = self.delete_inner(lba);
        self.store.end_op(op, out)
    }

    fn delete_inner(&mut self, lba: Lba) -> Result<(), FidrError> {
        // A delete must order behind any acked-but-unprocessed write of
        // the same LBA sitting in the NIC buffer: drain the backlog so
        // the mapping exists before we tear it down. (Deferred cold-tier
        // writes need no special handling — unmapping drops the
        // provisional PBN's refcount to zero, which the scrubber's stale
        // filter already discards.)
        self.settle()?;
        if self.nic.holds(lba) {
            while self.nic.pending_len() > 0 {
                self.process_batch()?;
            }
        }
        self.store.unmap(lba)
    }

    /// Reads `chunks` consecutive blocks starting at `start` and returns
    /// their concatenated contents.
    ///
    /// # Errors
    ///
    /// Anything [`read`](FidrSystem::read) returns for any block.
    pub fn read_range(&mut self, start: Lba, chunks: usize) -> Result<Vec<u8>, FidrError> {
        let mut out = Vec::with_capacity(chunks * BUCKET_BYTES);
        for i in 0..chunks as u64 {
            out.extend(self.read(Lba(start.0 + i))?);
        }
        Ok(out)
    }

    /// Serves one 4-KB client read (Figure 6b).
    ///
    /// # Errors
    ///
    /// [`FidrError::NotMapped`] for never-written addresses and
    /// [`FidrError::Corrupt`] if the SSD region fails to decode.
    pub fn read(&mut self, lba: Lba) -> Result<Vec<u8>, FidrError> {
        let op = self.store.begin_op(Op::Read(lba));
        let out = self.read_inner(lba, op.span);
        self.store.end_op(op, out)
    }

    fn read_inner(&mut self, lba: Lba, op: SpanToken) -> Result<Vec<u8>, FidrError> {
        // The NIC serves every chunk the open batch has not committed, so
        // a read is correct without the commit, and a failed one stays
        // open for the next write or flush to report.
        let _ = self.settle();
        let traced = self.store.tracer.is_enabled();
        let cost = self.cfg.cost;
        self.store.ledger.add_client_read_bytes(BUCKET_BYTES as u64);
        self.store.stats.read_chunks += 1;

        // Step 2: the LBA-lookup module checks the in-NIC write buffer.
        if let Some(data) = self.nic.lookup_read(lba) {
            let data = data.to_vec();
            let span = self.store.tracer.begin("nic");
            if traced {
                self.store.tracer.attr(op, "nic_buffer_hit", true);
                self.store
                    .tracer
                    .advance(self.store.time.nic_ns(data.len() as u64));
            }
            self.store.tracer.end(span);
            return Ok(data);
        }

        let mark = self.store.host_mark();

        // Step 3–4: host resolves LBA → PBA.
        let ledger = &mut self.store.ledger;
        ledger.charge_cpu(CpuTask::NicDriver, cost.nic_driver_cycles_per_chunk);
        ledger.charge_cpu(CpuTask::LbaMap, cost.lba_map_cycles);

        let (pbn, loc) = self.store.locate(lba)?;
        let io_bytes = loc.compressed_len as u64 + 4;

        // Device fetch (with checksum-verified re-reads on mismatch).
        let rereads_before = self.store.read_repair_rereads();
        let ssd_span = self.store.tracer.begin("ssd");
        let fetched = self.store.fetch_chunk_verified(pbn, loc);
        if traced {
            let attempts = 1 + (self.store.read_repair_rereads() - rereads_before);
            self.store.tracer.attr(ssd_span, "bytes", io_bytes);
            if attempts > 1 {
                self.store.tracer.attr(ssd_span, "retries", attempts - 1);
            }
            self.store
                .tracer
                .advance(self.store.time.data_ssd_ns(io_bytes * attempts, attempts));
        }
        self.store.tracer.end(ssd_span);
        let data = fetched?;

        // Steps 5–7: data SSD → Decompression Engine → NIC, all P2P. The
        // host only orchestrates, running the data-SSD NVMe stack.
        ops::p2p(
            &mut self.store.ledger,
            PcieLink::DataSsdDecompressionP2p,
            io_bytes,
        );
        self.store
            .ledger
            .charge_cpu(CpuTask::DataSsdStack, cost.data_ssd_io_cycles);
        self.store.ledger.data_ssd_read_bytes += io_bytes;

        let decompress_span = self.store.tracer.begin("compress");
        if traced {
            self.store
                .tracer
                .attr(decompress_span, "compressed_bytes", io_bytes);
            self.store
                .tracer
                .advance(self.store.time.compress_ns(data.len() as u64));
        }
        self.store.tracer.end(decompress_span);

        ops::p2p(
            &mut self.store.ledger,
            PcieLink::DecompressionNicP2p,
            data.len() as u64,
        );
        let nic_span = self.store.tracer.begin("nic");
        if traced {
            self.store
                .tracer
                .advance(self.store.time.nic_ns(data.len() as u64));
        }
        self.store.tracer.end(nic_span);

        self.store.advance_host(mark);
        Ok(data)
    }

    /// Drains the NIC, seals any open container and flushes the cache —
    /// a clean shutdown barrier.
    ///
    /// # Errors
    ///
    /// Propagates backend errors from the final batch.
    pub fn flush(&mut self) -> Result<(), FidrError> {
        let op = self.store.begin_op(Op::Flush);
        let out = self.flush_inner();
        self.store.end_op(op, out)
    }

    fn flush_inner(&mut self) -> Result<(), FidrError> {
        self.settle()?;
        while self.nic.pending_len() > 0 {
            self.process_batch()?;
        }
        // Drain the dedup scrubber before sealing: every deferred write
        // either gains its table entry or is remapped onto its canonical
        // copy, so a flushed system has no pending dedup debt.
        while self.deferred_pending() > 0 {
            self.scrub_deferred_now(usize::MAX)?;
        }
        self.store.seal_open()?;
        Ok(self.cache.flush_all(&mut self.table_ssd)?)
    }

    /// Charges `accesses` Cache HW-Engine operations against the fault
    /// plan's failure schedule and, once the engine dies, degrades to the
    /// software table cache: dirty lines flush, the same index rebuilds
    /// behind a CPU B+ tree, and correctness is preserved — only the
    /// indexing cost moves back to the host (visible as
    /// `degraded.hw_engine.count` and a flipped `cache.hw_engine.enabled`).
    fn check_engine(&mut self, accesses: u64) -> Result<(), FidrError> {
        if !matches!(self.cache.mode(), CacheMode::HwEngine { .. }) {
            return Ok(());
        }
        self.faults.engine_accesses(accesses);
        if !self.faults.engine_failed() {
            return Ok(());
        }
        // Flush before retiring the backend; if the flush itself fails the
        // degradation is retried on the next engine access.
        self.cache.flush_all(&mut self.table_ssd)?;
        let sw = CacheBackend::new(
            CacheMode::Software,
            self.cfg.cache_lines,
            None,
            self.cfg.cache_shards.max(1),
        );
        if let CacheBackend::Hw(c) = std::mem::replace(&mut self.cache, sw) {
            self.retired_hw = Some(c);
        }
        Ok(())
    }

    /// Processes one NIC hash batch whole, through steps 2–10 of Figure
    /// 6a. Called only with no batch open: the flush and delete drains
    /// and the NIC-pressure drain run it.
    ///
    /// A write spreads the same work over the writes that follow. The
    /// write that fills the batch runs [`open_batch`](Self::open_batch):
    /// the take and the per-batch charges. It then looks up and commits
    /// the first [`LANE_GROUP`] entries, and each following write looks
    /// up and commits the next group after its own admission
    /// ([`commit_open`](Self::commit_open)), so no single ack carries more
    /// than one group of lookups and commits. A lookup that hits a chunk
    /// an earlier group of the same batch staged keeps the unique flag a
    /// whole-batch lookup would have given it, so the flags, transfers
    /// and re-validations are the whole batch's. Every other op
    /// [`settle`](Self::settle)s first, so it sees the state a
    /// whole-batch commit would have left.
    ///
    /// Hashing is not part of any of this: the NIC hashed each chunk as
    /// it arrived, sixteen at a time on the fastest batch kernel the host
    /// has. With [`FidrConfig::workers`] > 1 (and an inert fault
    /// plan — armed faults key off global device-call order, so they
    /// force the serial path) each group's dedup lookups run shard-owned
    /// on the persistent [`WorkerPool`] via
    /// [`CacheBackend::lookup_batch_parallel`], and lookup-flagged uniques
    /// precompress speculatively on the pool. All ledger charges, spans
    /// and commits replay on this thread in batch order, so every
    /// modelled export is byte-identical for any worker count.
    fn process_batch(&mut self) -> Result<(), FidrError> {
        self.open_batch();
        self.settle()
    }

    /// Worker count the batch pipeline and the scrubber fan out to: one
    /// under an armed fault plan.
    fn workers(&self) -> usize {
        if self.cfg.faults.is_inert() {
            self.cfg.workers.max(1)
        } else {
            1
        }
    }

    /// Opens a batch: takes up to `hash_batch` chunks from the NIC and
    /// charges the per-batch work. It looks nothing up: each entry's dedup
    /// status is [`resolve`](Self::resolve)d one lane group at a time, as
    /// the commit cursor reaches it.
    fn open_batch(&mut self) {
        debug_assert!(self.open.is_none(), "one batch open at a time");
        let cost = self.cfg.cost;
        // Step 2: in-NIC hashing (no CPU, no host memory). The NIC hashed
        // most of the batch as it arrived, sixteen chunks at a time; the
        // modelled hash time below stays here.
        let chunks = self.nic.take_hash_batch(self.cfg.hash_batch);
        if chunks.is_empty() {
            return;
        }
        let hash_span = self.store.tracer.begin("hash");
        if self.store.tracer.is_enabled() {
            let hashed: u64 = chunks.iter().map(|c| c.data.len() as u64).sum();
            self.store.tracer.attr(hash_span, "chunks", chunks.len());
            self.store.tracer.advance(self.store.time.hash_ns(hashed));
        }
        self.store.tracer.end(hash_span);
        let host_mark = self.store.host_mark();

        // Hashes + LBAs to the device manager: 40 B per chunk.
        let meta_bytes = chunks.len() as u64 * 40;
        let ledger = &mut self.store.ledger;
        ops::dma_to_host(ledger, PcieLink::NicHost, MemPath::NicBuffering, meta_bytes);
        ledger.charge_cpu(CpuTask::NicDriver, cost.nic_driver_cycles_per_chunk);
        for _ in &chunks {
            ledger.charge_cpu(CpuTask::DeviceManager, cost.device_manager_cycles_per_chunk);
            ledger.charge_cpu(CpuTask::Other, cost.misc_cycles_per_chunk);
        }
        // Hybrid prioritized dedup: classify each chunk's stream by
        // temporal locality — serially, in batch order, so the decisions
        // are byte-identical for any worker count — and send only
        // hot-stream chunks through the inline DRAM-tier lookup.
        // Cold-stream chunks skip it entirely: they commit as
        // provisional uniques and the scrubber dedups them later
        // through the slow tier.
        let temps: Option<Vec<Temperature>> = self.tiered.as_mut().map(|ts| {
            chunks
                .iter()
                .map(|c| {
                    ts.policy
                        .observe(c.lba.0 >> ts.stream_shift, c.fingerprint.prefix_u64())
                })
                .collect()
        });
        self.store.advance_host(host_mark);
        self.open = Some(OpenBatch {
            resolved: Vec::with_capacity(chunks.len()),
            precompressed: Vec::with_capacity(chunks.len()),
            chunks,
            temps,
            first_pbn: self.store.next_pbn(),
            next: 0,
        });
    }

    /// Steps 3–7 for the open batch's next lane group, all or nothing: the
    /// device manager computes each chunk's bucket location, ships the
    /// group to the cache engine (Figure 8's batch interface) and scans
    /// the returned lines for duplicate status — the host-software cost
    /// FIDR keeps (§5.2.4); the flags go back to the NIC and the unique
    /// chunks on to the Compression Engine.
    fn resolve(&mut self, open: &mut OpenBatch) -> Result<(), FidrError> {
        let cost = self.cfg.cost;
        let traced = self.store.tracer.is_enabled();
        let workers = self.workers();
        let num_buckets = self.table_ssd.num_buckets();
        let start = open.resolved.len();
        let end = start
            .saturating_add(self.lookup_group())
            .min(open.chunks.len());
        let group = &open.chunks[start..end];
        let lookup_idx: Vec<usize> = (0..group.len())
            .filter(|&i| {
                open.temps
                    .as_ref()
                    .is_none_or(|t| t[start + i] == Temperature::Hot)
            })
            .collect();
        let lookups: Vec<(u64, Fingerprint)> = lookup_idx
            .iter()
            .map(|&i| {
                let fp = group[i].fingerprint;
                (fp.bucket_index(num_buckets), fp)
            })
            .collect();
        let host_mark = self.store.host_mark();
        self.check_engine(lookups.len() as u64)?;
        self.store.advance_host(host_mark);
        let cache_span = self.store.tracer.begin("cache");
        let cache_marks = self.cache_marks();
        let results = if let (true, Some(pool)) = (workers > 1, self.pool.as_ref()) {
            self.cache.lookup_batch_parallel(
                &lookups,
                &mut self.table_ssd,
                &mut self.store.ledger,
                &cost,
                workers,
                pool,
            )
        } else {
            self.cache
                .lookup_batch(&lookups, &mut self.table_ssd, &mut self.store.ledger, &cost)
        }?;
        let mut resolved: Vec<Option<Pbn>> = vec![None; group.len()];
        for (&i, (pbn, _access)) in lookup_idx.iter().zip(results) {
            // A chunk an earlier group of this batch staged was not in the
            // table when the batch was taken: keep the unique flag a
            // whole-batch lookup would have given, and let commit-time
            // re-validation find the duplicate.
            resolved[i] = pbn.filter(|&pbn| pbn < open.first_pbn);
        }
        let unique_flags: Vec<bool> = resolved.iter().map(Option::is_none).collect();
        if traced {
            let dup_hits = resolved.iter().filter(|p| p.is_some()).count();
            self.store.tracer.attr(cache_span, "dup_hits", dup_hits);
            self.store
                .tracer
                .attr(cache_span, "uniques", group.len() - dup_hits);
        }
        self.finish_cache_span(cache_span, cache_marks);
        let host_mark = self.store.host_mark();

        // Step 6: uniqueness flags return to the NIC (1 B per chunk).
        ops::dma_from_host(
            &mut self.store.ledger,
            PcieLink::NicHost,
            MemPath::NicBuffering,
            group.len() as u64,
        );

        // Step 7: the compression scheduler ships unique chunks NIC →
        // Compression Engine peer-to-peer.
        for (chunk, _) in group.iter().zip(&unique_flags).filter(|(_, &u)| u) {
            ops::p2p(
                &mut self.store.ledger,
                PcieLink::NicCompressionP2p,
                chunk.data.len() as u64,
            );
        }

        self.store.advance_host(host_mark);

        // Parallel pipeline: speculatively compress the lookup-flagged
        // uniques on the worker pool. A chunk whose content an earlier
        // entry of this batch commits first fails re-validation in
        // `commit_unique_with` and its speculative output is discarded
        // unrecorded — exactly the chunks the serial path never
        // compresses.
        open.precompressed.extend(precompress_uniques(
            group,
            &unique_flags,
            workers,
            self.pool.as_ref(),
        ));
        open.resolved.extend(resolved);
        Ok(())
    }

    /// Entries [`resolve`](Self::resolve) looks up at once.
    fn lookup_group(&self) -> usize {
        #[cfg(test)]
        if self.whole_batch_lookups {
            return usize::MAX;
        }
        LANE_GROUP
    }

    /// Commits up to `n` more entries of the open batch
    /// ([`commit_entries`](Self::commit_entries)). After the last entry
    /// the batch closes and the opportunistic scrub runs, as at the end
    /// of a whole batch. An error leaves the batch open at its first
    /// uncommitted entry, for the next op to resume.
    fn commit_open(&mut self, n: usize) -> Result<(), FidrError> {
        let Some(mut open) = self.open.take() else {
            return Ok(());
        };
        let out = self.commit_entries(&mut open, n);
        if open.next < open.chunks.len() {
            self.open = Some(open);
            return out;
        }
        out?;
        // Opportunistic scrub: once enough cold writes have accumulated,
        // dedup them through the slow tier. Triggered by queue depth, not
        // time, so it fires at the same points for any worker count.
        while self
            .tiered
            .as_ref()
            .is_some_and(|ts| ts.deferred.len() >= ts.scrub_batch)
        {
            let limit = self.tiered.as_ref().map_or(0, |ts| ts.scrub_batch);
            self.scrub_deferred_now(limit)?;
        }
        Ok(())
    }

    /// Commits whatever the open batch has left. Every op but a write
    /// does this before anything else, so reads, deletes, flushes, GC,
    /// scrubs and checkpoints see the state a whole-batch commit would
    /// have left; a metrics scrape mid-stream should call it too.
    ///
    /// # Errors
    ///
    /// The first commit error; the batch stays open at that entry.
    pub fn settle(&mut self) -> Result<(), FidrError> {
        self.commit_open(usize::MAX)
    }

    /// Commits entries of `open` in batch order, from its cursor, up to
    /// `n` of them, resolving each lane group as the cursor reaches it:
    /// duplicates update the LBA map; uniques compress, stage in engine
    /// DRAM, and gain table entries. An entry counts as committed once
    /// staged: a seal the device refuses reopens the container, and the
    /// next seal retries it. A failed lookup leaves its group unresolved,
    /// for the next commit to retry.
    fn commit_entries(&mut self, open: &mut OpenBatch, n: usize) -> Result<(), FidrError> {
        let cost = self.cfg.cost;
        let traced = self.store.tracer.is_enabled();
        let end = open.chunks.len().min(open.next.saturating_add(n));
        while open.next < end {
            if open.next == open.resolved.len() {
                self.resolve(open)?;
            }
            let i = open.next;
            let chunk = &open.chunks[i];
            if let Some(pbn) = open.resolved[i] {
                let span = self.store.tracer.begin("dedup");
                if traced {
                    self.store.tracer.attr(span, "lba", chunk.lba.0);
                    self.store.tracer.attr(span, "dedup_hit", true);
                    self.store
                        .tracer
                        .advance(self.store.time.cycles_ns(cost.lba_map_cycles));
                }
                self.store.stats.duplicate_chunks += 1;
                self.store.map(chunk.lba, pbn);
                self.store
                    .ledger
                    .charge_cpu(CpuTask::LbaMap, cost.lba_map_cycles);
                self.nic.complete(chunk.lba);
                self.store.tracer.end(span);
                open.next += 1;
                continue;
            }
            let span = self.store.tracer.begin("commit");
            self.store.tracer.attr(span, "lba", chunk.lba.0);
            let pre = open.precompressed[i].take();
            let staged = if open
                .temps
                .as_ref()
                .is_some_and(|t| t[i] == Temperature::Cold)
            {
                self.store.tracer.attr(span, "deferred", true);
                self.commit_deferred(chunk, pre)?;
                true
            } else {
                self.commit_unique_with(chunk, pre, span)?
            };
            open.next += 1;
            if staged {
                self.store.seal_if_full()?;
            }
            self.store.tracer.end(span);
        }
        Ok(())
    }

    /// Stores one unique chunk under the `commit` span `span`:
    /// compression in the engine, container staging, metadata updates
    /// (steps 7–10), optionally consuming a result precompressed on the
    /// worker pool. Returns whether it staged the chunk. If re-validation
    /// finds the content already stored, `pre` is dropped without
    /// recording any compression stats — matching the serial path, which
    /// would not have compressed the chunk at all.
    fn commit_unique_with(
        &mut self,
        chunk: &HashedChunk,
        pre: Option<(CompressedChunk, Duration)>,
        span: SpanToken,
    ) -> Result<bool, FidrError> {
        let cost = self.cfg.cost;
        // Step 10 begins with re-validation: an identical chunk earlier in
        // this batch may have stored the content already (a lookup flags
        // a hit on this batch's own commits unique).
        let bucket_idx = chunk.fingerprint.bucket_index(self.table_ssd.num_buckets());
        self.check_engine(1)?;
        let cache_span = self.store.tracer.begin("cache");
        let cache_marks = self.cache_marks();
        let access = self.cache.access_for_update(
            bucket_idx,
            &mut self.table_ssd,
            &mut self.store.ledger,
            &cost,
        )?;
        let existing = self.cache.bucket(access.line).lookup(&chunk.fingerprint);
        self.finish_cache_span(cache_span, cache_marks);
        self.store
            .tracer
            .attr(span, "dedup_hit", existing.is_some());
        let Some(pbn) = existing else {
            self.store_unique(chunk, pre, Some(access.line))?;
            return Ok(true);
        };
        self.store.stats.duplicate_chunks += 1;
        self.store.map(chunk.lba, pbn);
        self.store
            .ledger
            .charge_cpu(CpuTask::LbaMap, cost.lba_map_cycles);
        self.nic.complete(chunk.lba);
        Ok(false)
    }

    /// Stores one cold-stream chunk as a *provisional* unique: same
    /// compression/staging/metadata path as
    /// [`commit_unique_with`](Self::commit_unique_with), but with no
    /// inline table lookup or insert — the chunk is queued for the dedup
    /// scrubber, which later either installs its Hash-PBN entry or finds
    /// a canonical copy and retires this one.
    fn commit_deferred(
        &mut self,
        chunk: &HashedChunk,
        pre: Option<(CompressedChunk, Duration)>,
    ) -> Result<(), FidrError> {
        let pbn = self.store_unique(chunk, pre, None)?;
        let bucket = chunk.fingerprint.bucket_index(self.table_ssd.num_buckets());
        let ts = self
            .tiered
            .as_mut()
            .expect("deferred commit requires tiered mode");
        let seq = ts.next_seq;
        ts.next_seq += 1;
        ts.deferred.push_back(DeferredWrite {
            lba: chunk.lba,
            fp: chunk.fingerprint,
            pbn,
            bucket,
            seq,
        });
        ts.stats.deferred_total += 1;
        Ok(())
    }

    /// Steps 7–10 for a chunk the table does not know: compress it in the
    /// engine (output stays in engine DRAM until the container seals),
    /// install its Hash-PBN entry in the cached bucket at `line` (`None`
    /// for a deferred commit, which gains its entry from the scrubber),
    /// stage it in the open container, map the LBA and release the NIC's
    /// copy. Returns the PBN. The caller seals, inside its `commit` span.
    fn store_unique(
        &mut self,
        chunk: &HashedChunk,
        pre: Option<(CompressedChunk, Duration)>,
        line: Option<u32>,
    ) -> Result<Pbn, FidrError> {
        self.store.stats.unique_chunks += 1;
        let compressed = self.store.compress_chunk_with(&chunk.data, pre);
        let host_mark = self.store.host_mark();
        self.store.ledger.fpga_dram_bytes += compressed.stored_len() as u64;
        self.store.stats.stored_bytes += compressed.stored_len() as u64;

        // A full bucket costs only this chunk's dedup opportunity: it is
        // stored without a table entry, as a scrub into a full bucket
        // leaves a deferred chunk.
        let line = line.filter(|&line| !self.cache.bucket(line).is_full());
        let entry = line.map(|line| self.cache.bucket_mut(line));
        let pbn = self
            .store
            .stage(chunk.lba, chunk.fingerprint, &compressed, entry)?;

        // Step 8: metadata (compressed size, LBA) to the host.
        ops::dma_to_host(
            &mut self.store.ledger,
            PcieLink::HostCompression,
            MemPath::FpgaStaging,
            16,
        );
        self.store
            .ledger
            .charge_cpu(CpuTask::LbaMap, self.cfg.cost.lba_map_cycles);
        self.store.advance_host(host_mark);

        // The NIC can release the buffered copy now that the backend has
        // durably staged it.
        self.nic.complete(chunk.lba);
        Ok(pbn)
    }

    /// Runs one dedup-scrubber pass over up to `limit` deferred writes:
    /// stale entries (overwritten before the scrub reached them) are
    /// dropped, survivors are grouped by Hash-PBN bucket and pushed
    /// through the slow tier ([`CacheBackend::scrub_groups`] — parallel
    /// over the worker pool when available, with charges replayed in
    /// group order), and any entry whose fingerprint already has a
    /// canonical copy is remapped to it, retiring the provisional chunk
    /// for the next GC pass. Returns the number of queue entries
    /// consumed. A no-op without [`FidrConfig::tiered`].
    ///
    /// # Errors
    ///
    /// [`FidrError::Io`] when the slow tier fails past the retry budget;
    /// the whole batch is re-queued in order (scrubbing is idempotent,
    /// so entries that did apply simply re-report as existing). A commit
    /// error from the open batch, which this settles first.
    pub fn scrub_deferred(&mut self, limit: usize) -> Result<usize, FidrError> {
        self.settle()?;
        self.scrub_deferred_now(limit)
    }

    /// [`scrub_deferred`](Self::scrub_deferred) with no batch open.
    fn scrub_deferred_now(&mut self, limit: usize) -> Result<usize, FidrError> {
        let Some(mut ts) = self.tiered.take() else {
            return Ok(0);
        };
        let out = self.scrub_deferred_inner(&mut ts, limit);
        self.tiered = Some(ts);
        out
    }

    fn scrub_deferred_inner(
        &mut self,
        ts: &mut TieredState,
        limit: usize,
    ) -> Result<usize, FidrError> {
        let take = limit.min(ts.deferred.len());
        if take == 0 {
            return Ok(0);
        }
        let cost = self.cfg.cost;
        let traced = self.store.tracer.is_enabled();
        let drained: Vec<DeferredWrite> = ts.deferred.drain(..take).collect();
        // Stale pre-filter, serial and before any cache work: an entry
        // whose provisional chunk already died (its LBA was overwritten)
        // must never install fp → dead-PBN in the table.
        let mut survivors = Vec::with_capacity(drained.len());
        for e in drained {
            if self.store.refcount(e.pbn) == 0 {
                ts.stats.scrub_stale += 1;
            } else {
                survivors.push(e);
            }
        }
        ts.stats.scrub_processed += take as u64;
        if survivors.is_empty() {
            return Ok(take);
        }
        // Group by bucket; the sort is stable, so entries within a bucket
        // keep their deferral order.
        survivors.sort_by_key(|e| e.bucket);
        let mut groups: Vec<(u64, Vec<(Fingerprint, Pbn)>)> = Vec::new();
        let mut group_entries: Vec<Vec<DeferredWrite>> = Vec::new();
        for e in survivors {
            match groups.last_mut() {
                Some((bucket, entries)) if *bucket == e.bucket => {
                    entries.push((e.fp, e.pbn));
                    group_entries
                        .last_mut()
                        .expect("entries track groups")
                        .push(e);
                }
                _ => {
                    groups.push((e.bucket, vec![(e.fp, e.pbn)]));
                    group_entries.push(vec![e]);
                }
            }
        }
        self.check_engine(groups.len() as u64)?;

        let span = self.store.tracer.begin("scrub");
        if traced {
            self.store.tracer.attr(span, "groups", groups.len());
            self.store.tracer.attr(
                span,
                "entries",
                group_entries.iter().map(Vec::len).sum::<usize>(),
            );
        }
        let host_mark = self.store.host_mark();
        let workers = self.workers();
        let outcome = if let (true, Some(pool)) = (workers > 1, self.pool.as_ref()) {
            self.cache.scrub_groups_parallel(
                &groups,
                &mut self.table_ssd,
                &mut self.store.ledger,
                &cost,
                workers,
                pool,
            )
        } else {
            self.cache
                .scrub_groups(&groups, &mut self.table_ssd, &mut self.store.ledger, &cost)
        };
        let applied = match outcome {
            Ok(applied) => applied,
            Err(e) => {
                // Re-queue the whole batch in deferral order for a later
                // retry: groups that did apply before the failure are
                // harmless to re-scrub (idempotent).
                self.store.tracer.attr(span, "error", "io");
                self.store.tracer.end(span);
                let mut back: Vec<DeferredWrite> = group_entries.into_iter().flatten().collect();
                back.sort_by_key(|e| e.seq);
                for e in back.into_iter().rev() {
                    ts.deferred.push_front(e);
                }
                return Err(e.into());
            }
        };
        for (group, entries) in applied.iter().zip(&group_entries) {
            if group.resident {
                ts.stats.cold_resident += 1;
            } else {
                ts.stats.cold_fetches += 1;
                if group.wrote_back {
                    ts.stats.cold_writebacks += 1;
                }
            }
            for (result, e) in group.results.iter().zip(entries) {
                match result {
                    ScrubResult::Existing(p) if *p != e.pbn => {
                        // A canonical copy exists: deferred dedup. The
                        // provisional chunk loses its only reference and
                        // queues for GC.
                        self.store.stats.unique_chunks -= 1;
                        self.store.stats.duplicate_chunks += 1;
                        self.store.map(e.lba, *p);
                        self.store
                            .ledger
                            .charge_cpu(CpuTask::LbaMap, cost.lba_map_cycles);
                        ts.stats.scrub_dups += 1;
                    }
                    // `Existing(own pbn)` is a retried entry that already
                    // applied — counts as its (idempotent) insert.
                    ScrubResult::Existing(_) | ScrubResult::Inserted => {
                        ts.stats.scrub_inserts += 1;
                    }
                    // Bucket full: the chunk simply stays stored unique;
                    // only the dedup opportunity is lost.
                    ScrubResult::Full => {
                        ts.stats.scrub_table_full += 1;
                    }
                }
            }
        }
        ts.stats.scrub_runs += 1;
        self.store.advance_host(host_mark);
        self.store.tracer.end(span);
        Ok(take)
    }

    /// Cold-stream writes currently queued for the dedup scrubber.
    pub fn deferred_pending(&self) -> usize {
        self.tiered.as_ref().map_or(0, |ts| ts.deferred.len())
    }

    /// Every currently mapped LBA, in address order. The enumeration a
    /// serving node walks to rehome resident blocks when the cluster's
    /// shard map changes — each listed LBA is readable right now.
    pub fn mapped_lbas(&self) -> Vec<Lba> {
        self.store.mapped_lbas()
    }

    /// Captures all durable state for persistence. Flushes first, so the
    /// NIC buffer drains, the open container seals, and dirty cache lines
    /// reach the table SSDs — everything in the snapshot is then "on
    /// stable media".
    ///
    /// # Errors
    ///
    /// Propagates backend errors from the flush.
    pub fn checkpoint(&mut self) -> Result<crate::Snapshot, FidrError> {
        self.flush()?;
        Ok(self.store.checkpoint(self.table_ssd.store()))
    }

    /// Rebuilds a server from a [`crate::Snapshot`] (restart recovery).
    /// The snapshot's table geometry overrides `cfg.table_buckets`; the
    /// caches start cold.
    pub fn restore(cfg: FidrConfig, snapshot: crate::Snapshot) -> Self {
        let mut sys = FidrSystem::new(FidrConfig {
            table_buckets: snapshot.num_buckets,
            ..cfg
        });
        let table = sys.store.restore(snapshot);
        sys.table_ssd = TableSsd::from_store(table, queue_location(sys.cfg.cache_mode));
        sys.table_ssd
            .set_fault_injector(sys.faults.clone(), sys.cfg.retry);
        sys
    }

    /// Garbage collection: reclaims the metadata of dead chunks, then
    /// compacts containers whose live fraction fell below
    /// `live_threshold` by rewriting survivors into the open container
    /// (data SSD → Compression Engine → back, all off-host) and dropping
    /// the old container. The lifecycle is
    /// [`ChunkStore::collect_garbage`]; this engine's part is removing
    /// each dead chunk's Hash-PBN entry through the table cache.
    ///
    /// # Errors
    ///
    /// Table-cache IO failures, survivor read failures and failed seals;
    /// an interrupted pass loses no referenced chunk and a later pass
    /// finishes the work. A commit error from the open batch, which this
    /// settles first, ends the call before the pass starts.
    pub fn collect_garbage(&mut self, live_threshold: f64) -> Result<GcReport, FidrError> {
        // An uncommitted duplicate names its PBN without holding a
        // reference yet: commit first, so GC cannot reclaim it.
        self.settle()?;
        let cost = self.cfg.cost;
        // One engine access per dead chunk, charged up front like a
        // lookup batch's.
        self.check_engine(self.store.pending_dead_chunks() as u64)?;
        self.store
            .collect_garbage(live_threshold, |ledger, fp, pbn| {
                let bucket_idx = fp.bucket_index(self.table_ssd.num_buckets());
                let access =
                    self.cache
                        .access_for_update(bucket_idx, &mut self.table_ssd, ledger, &cost)?;
                // Only delete the table entry if it still names *this*
                // PBN: a retired provisional chunk (deferred dedup) shares
                // its fingerprint with the live canonical copy, whose
                // entry must survive.
                if self.cache.bucket(access.line).lookup(&fp) == Some(pbn) {
                    self.cache.bucket_mut(access.line).remove(&fp);
                }
                Ok(())
            })
    }

    /// Dead chunks currently queued for the next collection pass.
    pub fn pending_dead_chunks(&self) -> usize {
        self.store.pending_dead_chunks()
    }

    /// Client deletes acknowledged over this system's lifetime.
    pub fn deletes_acked(&self) -> u64 {
        self.store.deletes_acked()
    }

    /// Cumulative outcome of every garbage-collection pass so far.
    pub fn gc_totals(&self) -> GcReport {
        self.store.gc_totals()
    }

    /// Fault injection for tests and demos: flips one stored bit on the
    /// data SSDs. The next scrub (or read) of the affected chunk must
    /// detect it. Returns `false` if the location does not exist.
    pub fn inject_data_corruption(&mut self, container: u64, byte: usize) -> bool {
        self.store.inject_data_corruption(container, byte)
    }

    /// Background integrity scrub (fsck): every live chunk is read back,
    /// re-hashed and checked against its recorded fingerprint
    /// ([`ChunkStore::verify_integrity`]). Returns the number of chunks
    /// verified.
    ///
    /// # Errors
    ///
    /// [`FidrError::Corrupt`] for the first PBN whose stored bytes no
    /// longer match their recorded fingerprint after re-reads, or a
    /// commit error from the open batch, which this settles first.
    pub fn verify_integrity(&mut self) -> Result<u64, FidrError> {
        self.settle()?;
        self.store.verify_integrity()
    }

    /// Assembles a [`MetricsSnapshot`] covering every pipeline stage: NIC
    /// ingest and hashing, table-cache lookups (and the HW-tree engine
    /// when enabled), table/data SSD IO, compression, reduction outcomes,
    /// the resource ledger, and end-to-end write/read latency. Names and
    /// semantics are documented in `docs/OBSERVABILITY.md`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        self.nic.export_metrics(&mut out);
        self.cache.export_metrics(&mut out);
        self.table_ssd.export_metrics(&mut out);
        self.store.export_metrics(&mut out);
        out.set_counter("retry.nic.drain_rounds", self.nic_drain_rounds);
        out.set_counter(
            "degraded.hw_engine.count",
            u64::from(self.retired_hw.is_some()),
        );
        // After a degradation the live backend is software-mode: overwrite
        // the cache.* counters with the merged (HW + software) totals and
        // keep reporting the retired engine's hwtree.* counters.
        let merged = self.cache_stats();
        out.set_counter("cache.accesses.count", merged.accesses);
        out.set_counter("cache.hits.count", merged.hits);
        out.set_counter("cache.misses.count", merged.misses);
        out.set_counter("cache.evictions.count", merged.evictions);
        out.set_counter("cache.dirty_flushes.count", merged.dirty_flushes);
        out.set_gauge("cache.hit.ratio", merged.hit_rate());
        if let Some(t) = self.hwtree_stats() {
            out.set_counter("hwtree.searches.count", t.searches);
            out.set_counter("hwtree.updates.count", t.updates);
            out.set_counter("hwtree.crashes.count", t.crashes);
            out.set_counter("hwtree.cycles.count", t.cycles);
            out.set_counter("hwtree.fpga_dram.bytes", t.fpga_dram_bytes);
            out.set_gauge("hwtree.crash.ratio", t.crash_rate());
        }
        // Tiered-dedup counters appear only once a write was actually
        // deferred: a tiered run whose streams all stayed hot exports
        // byte-identically to the flat cache (tested in
        // tiered_all_hot_matches_flat).
        if let Some(ts) = &self.tiered {
            if ts.stats.deferred_total > 0 {
                let ps = ts.policy.stats();
                out.set_counter("cache.tier.observations.count", ps.observations);
                out.set_counter("cache.tier.observations.hot", ps.hot_observations);
                out.set_counter("cache.tier.observations.cold", ps.cold_observations);
                out.set_counter(
                    "cache.tier.hot_streams.count",
                    ts.policy.hot_streams() as u64,
                );
                out.set_counter(
                    "cache.tier.cold_streams.count",
                    ts.policy.cold_streams() as u64,
                );
                out.set_counter("cache.tier.cold_resident.count", ts.stats.cold_resident);
                out.set_counter("cache.tier.cold_fetches.count", ts.stats.cold_fetches);
                out.set_counter("cache.tier.cold_writebacks.count", ts.stats.cold_writebacks);
                out.set_counter("dedup.deferred.count", ts.stats.deferred_total);
                out.set_counter("dedup.deferred.pending", ts.deferred.len() as u64);
                out.set_counter("scrub.runs.count", ts.stats.scrub_runs);
                out.set_counter("scrub.processed.count", ts.stats.scrub_processed);
                out.set_counter("scrub.dups.count", ts.stats.scrub_dups);
                out.set_counter("scrub.inserts.count", ts.stats.scrub_inserts);
                out.set_counter("scrub.stale.count", ts.stats.scrub_stale);
                out.set_counter("scrub.table_full.count", ts.stats.scrub_table_full);
            }
        }
        out
    }

    /// A snapshot of the persistent worker pool's counters, or `None`
    /// when the system runs serially (workers <= 1 or an armed fault
    /// plan).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.as_ref().map(WorkerPool::stats)
    }

    /// Appends the `pool.*` wall-clock counters to `out`.
    ///
    /// These are deliberately **not** part of [`FidrSystem::metrics`]:
    /// queue depths, steal counts and busy/idle times vary with worker
    /// count and scheduling, while `metrics()` must stay byte-identical
    /// for any `workers` setting (the determinism contract in
    /// `docs/OBSERVABILITY.md`). Callers that want them — `fidr serve`'s
    /// metrics file, diagnostics — opt in explicitly.
    pub fn export_pool_metrics(&self, out: &mut MetricsSnapshot) {
        let Some(stats) = self.pool_stats() else {
            return;
        };
        out.set_counter("pool.workers.count", stats.workers as u64);
        out.set_counter("pool.handoffs.count", stats.handoffs);
        out.set_counter("pool.jobs.stolen", stats.jobs_stolen);
        out.set_counter("pool.jobs.executed", stats.jobs_executed);
        out.set_counter("pool.jobs.panicked", stats.jobs_panicked);
        out.set_counter("pool.scopes.count", stats.scopes);
        out.set_counter("pool.submit.waits", stats.submit_waits);
        out.set_counter("pool.queue.depth", stats.queued as u64);
        out.set_counter("pool.queue.max_depth", stats.max_queue_depth as u64);
        out.set_counter("pool.busy.ns", stats.busy_ns);
        out.set_counter("pool.idle.ns", stats.idle_ns);
    }
}

/// Compresses the unique-flagged chunks of `batch` across up to
/// `workers` persistent pool workers, scattering each result (with its
/// measured wall-clock) back to its batch index. All-`None` when
/// `workers <= 1` or no pool is available: the serial path compresses
/// at commit time instead.
fn precompress_uniques(
    batch: &[HashedChunk],
    unique_flags: &[bool],
    workers: usize,
    pool: Option<&WorkerPool>,
) -> Vec<Option<(CompressedChunk, Duration)>> {
    let mut out: Vec<Option<(CompressedChunk, Duration)>> =
        (0..batch.len()).map(|_| None).collect();
    let Some(pool) = pool else {
        return out;
    };
    if workers <= 1 {
        return out;
    }
    let jobs: Vec<usize> = (0..batch.len()).filter(|&i| unique_flags[i]).collect();
    if jobs.is_empty() {
        return out;
    }
    let mut slots: Vec<(usize, Option<(CompressedChunk, Duration)>)> =
        jobs.iter().map(|&i| (i, None)).collect();
    let per_worker = jobs.len().div_ceil(workers.min(jobs.len()));
    pool.scope(|s| {
        for (k, slice) in slots.chunks_mut(per_worker).enumerate() {
            s.spawn_on(k, || {
                for (i, slot) in slice.iter_mut() {
                    let started = Instant::now();
                    let compressed = CompressedChunk::compress(&batch[*i].data);
                    *slot = Some((compressed, started.elapsed()));
                }
            });
        }
    });
    for (i, slot) in slots {
        out[i] = slot;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> FidrSystem {
        FidrSystem::new(FidrConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            hash_batch: 8,
            ..FidrConfig::default()
        })
    }

    fn chunk(tag: u64) -> Bytes {
        Bytes::from(fidr_compress::ContentGenerator::new(0.5).chunk(tag, 4096))
    }

    #[test]
    fn write_read_roundtrip_via_nic_buffer() {
        let mut s = sys();
        let data = chunk(1);
        s.write(Lba(5), data.clone()).unwrap();
        // Unprocessed write must be readable (NIC buffer hit).
        assert_eq!(s.read(Lba(5)).unwrap(), data.to_vec());
        assert_eq!(s.nic_stats().read_buffer_hits, 1);
    }

    #[test]
    fn write_read_roundtrip_after_flush() {
        let mut s = sys();
        let data = chunk(2);
        s.write(Lba(9), data.clone()).unwrap();
        s.flush().unwrap();
        assert_eq!(s.read(Lba(9)).unwrap(), data.to_vec());
    }

    #[test]
    fn duplicates_are_eliminated() {
        let mut s = sys();
        let data = chunk(7);
        for lba in 0..32u64 {
            s.write(Lba(lba), data.clone()).unwrap();
        }
        s.flush().unwrap();
        let st = s.stats();
        assert_eq!(st.unique_chunks, 1);
        assert_eq!(st.duplicate_chunks, 31);
        for lba in 0..32u64 {
            assert_eq!(s.read(Lba(lba)).unwrap(), data.to_vec());
        }
    }

    #[test]
    fn client_data_never_touches_host_memory() {
        let mut s = sys();
        for i in 0..256u64 {
            s.write(Lba(i), chunk(i)).unwrap();
        }
        s.flush().unwrap();
        let l = s.ledger();
        // Host memory sees only hashes/flags/metadata + table cache work —
        // far below the client payload volume.
        let payload = l.client_write_bytes();
        assert!(l.mem_bytes(MemPath::FpgaStaging) < payload / 50);
        assert!(l.mem_bytes(MemPath::NicBuffering) < payload / 50);
        assert_eq!(l.mem_bytes(MemPath::UniquePrediction), 0);
        assert_eq!(l.mem_bytes(MemPath::DataSsdStaging), 0);
        // The payload went over P2P links instead.
        assert!(l.pcie_bytes(PcieLink::NicCompressionP2p) > 0);
        assert!(l.pcie_bytes(PcieLink::CompressionDataSsdP2p) > 0);
    }

    #[test]
    fn no_predictor_and_no_tree_cpu_in_hw_mode() {
        let mut s = sys();
        for i in 0..128u64 {
            s.write(Lba(i), chunk(i)).unwrap();
        }
        s.flush().unwrap();
        let l = s.ledger();
        assert_eq!(l.cpu_cycles(CpuTask::UniquePrediction), 0);
        assert_eq!(l.cpu_cycles(CpuTask::BatchScheduling), 0);
        assert_eq!(l.cpu_cycles(CpuTask::TreeIndexing), 0);
        assert_eq!(l.cpu_cycles(CpuTask::TableSsdStack), 0);
        assert!(l.cpu_cycles(CpuTask::TableContentScan) > 0);
    }

    #[test]
    fn overwrite_returns_newest_across_batches() {
        let mut s = sys();
        s.write(Lba(1), chunk(1)).unwrap();
        s.flush().unwrap();
        s.write(Lba(1), chunk(2)).unwrap();
        assert_eq!(s.read(Lba(1)).unwrap(), chunk(2).to_vec());
        s.flush().unwrap();
        assert_eq!(s.read(Lba(1)).unwrap(), chunk(2).to_vec());
    }

    #[test]
    fn software_cache_mode_still_correct() {
        let mut s = FidrSystem::new(FidrConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            hash_batch: 8,
            cache_mode: CacheMode::Software,
            ..FidrConfig::default()
        });
        for i in 0..64u64 {
            s.write(Lba(i), chunk(i % 16)).unwrap();
        }
        s.flush().unwrap();
        assert_eq!(s.stats().unique_chunks, 16);
        assert!(s.ledger().cpu_cycles(CpuTask::TreeIndexing) > 0);
        for i in 0..64u64 {
            assert_eq!(s.read(Lba(i)).unwrap(), chunk(i % 16).to_vec());
        }
    }

    #[test]
    fn read_of_unwritten_errors() {
        let mut s = sys();
        assert!(matches!(s.read(Lba(1234)), Err(FidrError::NotMapped(_))));
    }

    #[test]
    fn overwrites_queue_dead_chunks() {
        let mut s = sys();
        for i in 0..16u64 {
            s.write(Lba(i), chunk(i)).unwrap();
        }
        s.flush().unwrap();
        // Overwrite everything with fresh content: all old uniques die.
        for i in 0..16u64 {
            s.write(Lba(i), chunk(100 + i)).unwrap();
        }
        s.flush().unwrap();
        assert_eq!(s.pending_dead_chunks(), 16);
    }

    #[test]
    fn gc_reclaims_metadata_and_compacts_containers() {
        let mut s = sys();
        // Fill several containers, then kill most of their chunks.
        for i in 0..128u64 {
            s.write(Lba(i), chunk(i)).unwrap();
        }
        s.flush().unwrap();
        let stored_before = s.stored_bytes();
        for i in 0..112u64 {
            s.write(Lba(i), chunk(1000 + i)).unwrap();
        }
        s.flush().unwrap();

        let report = s.collect_garbage(0.5).unwrap();
        assert_eq!(report.reclaimed_pbns, 112);
        assert!(report.compacted_containers >= 1, "{report:?}");
        assert!(report.freed_bytes > 0);
        s.flush().unwrap();
        assert!(
            s.stored_bytes() < stored_before + s.stats().stored_bytes / 2,
            "compaction should shrink the footprint"
        );

        // Every LBA still reads its newest content.
        for i in 0..128u64 {
            let want = if i < 112 { chunk(1000 + i) } else { chunk(i) };
            assert_eq!(s.read(Lba(i)).unwrap(), want.to_vec(), "LBA {i}");
        }
    }

    #[test]
    fn gc_then_rewrite_of_same_content_dedups_again() {
        let mut s = sys();
        s.write(Lba(0), chunk(7)).unwrap();
        s.flush().unwrap();
        s.write(Lba(0), chunk(8)).unwrap(); // kills content 7
        s.flush().unwrap();
        s.collect_garbage(1.1).unwrap(); // collect everything sparse
                                         // Rewriting content 7 must be a fresh unique (entry was removed).
        s.write(Lba(1), chunk(7)).unwrap();
        s.flush().unwrap();
        assert_eq!(s.read(Lba(1)).unwrap(), chunk(7).to_vec());
        assert_eq!(s.stats().unique_chunks, 3);
    }

    #[test]
    fn delete_of_nic_buffered_write_drains_the_backlog_first() {
        let mut s = sys();
        let data = chunk(3);
        // hash_batch is 8, so this write stays buffered in the NIC.
        s.write(Lba(4), data.clone()).unwrap();
        assert!(s.nic.pending_len() > 0);
        s.delete(Lba(4)).unwrap();
        // The acked write was processed, then unmapped — not lost, not
        // readable, and its chunk is queued for collection.
        assert_eq!(s.read(Lba(4)).unwrap_err(), FidrError::NotMapped(Lba(4)));
        assert_eq!(s.pending_dead_chunks(), 1);
    }

    #[test]
    fn full_bucket_stores_without_a_table_entry() {
        // One Hash-PBN bucket: every fingerprint lands in it, and it fills
        // at ENTRIES_PER_BUCKET. Later uniques still store and read back;
        // only their dedup opportunity is lost.
        let mut s = FidrSystem::new(FidrConfig {
            table_buckets: 1,
            ..sys().cfg
        });
        let n = fidr_tables::ENTRIES_PER_BUCKET as u64 + 20;
        for i in 0..n {
            s.write(Lba(i), chunk(i)).unwrap();
        }
        s.write(Lba(n), chunk(0)).unwrap(); // a duplicate with an entry
        s.flush().unwrap();
        assert_eq!(s.stats().unique_chunks, n);
        assert_eq!(s.stats().duplicate_chunks, 1);
        for i in 0..=n {
            assert_eq!(s.read(Lba(i)).unwrap(), chunk(i % n).to_vec(), "LBA {i}");
        }
    }

    #[test]
    fn deletes_leave_the_nic_read_counters_alone() {
        let mut s = sys();
        s.write(Lba(1), chunk(1)).unwrap();
        s.flush().unwrap();
        s.write(Lba(2), chunk(2)).unwrap(); // still buffered in the NIC
        s.delete(Lba(1)).unwrap();
        s.delete(Lba(2)).unwrap();
        let nic = s.nic_stats();
        assert_eq!((nic.read_buffer_hits, nic.read_buffer_misses), (0, 0));
    }

    /// A 64-chunk batch, as the default config takes it.
    fn sys64() -> FidrSystem {
        FidrSystem::new(FidrConfig {
            hash_batch: 64,
            ..sys().cfg
        })
    }

    /// Entries the open batch has committed and left, if one is open.
    fn open_split(s: &FidrSystem) -> Option<(usize, usize)> {
        s.open.as_ref().map(|b| (b.next, b.chunks.len() - b.next))
    }

    #[test]
    fn open_batch_commits_one_lane_group_per_write() {
        let mut s = sys64();
        for i in 0..63u64 {
            s.write(Lba(i), chunk(i)).unwrap();
        }
        assert_eq!(open_split(&s), None);
        assert_eq!(s.cache_stats().accesses, 0);
        s.write(Lba(63), chunk(63)).unwrap();
        assert_eq!(open_split(&s), Some((16, 48)), "the filling write");
        assert_eq!(s.stats().unique_chunks, 16);
        // One group's lookups and one group's re-validations, not the
        // whole batch's lookups.
        assert_eq!(s.cache_stats().accesses, 32, "the filling write");
        s.write(Lba(64), chunk(64)).unwrap();
        assert_eq!(open_split(&s), Some((32, 32)));
        assert_eq!(s.cache_stats().accesses, 64);
        s.write(Lba(65), chunk(65)).unwrap();
        s.write(Lba(66), chunk(66)).unwrap();
        assert_eq!(open_split(&s), None, "closed three writes on");
        assert_eq!(s.stats().unique_chunks, 64);
        assert_eq!(s.cache_stats().accesses, 128);
        assert_eq!(s.nic.pending_len(), 3);
    }

    #[test]
    fn a_duplicate_across_groups_keeps_the_whole_batch_accounting() {
        // Entry 40 repeats entry 3, which the first group stages before
        // the third group looks entry 40 up. A whole-batch lookup saw the
        // table before any commit, so entry 40 is flagged unique, ships
        // to the compression engine, and re-validation finds the
        // duplicate.
        let mut s = sys64();
        for i in 0..64u64 {
            let tag = if i == 40 { 3 } else { i };
            s.write(Lba(i), chunk(tag)).unwrap();
        }
        s.settle().unwrap();
        let st = s.stats();
        assert_eq!((st.duplicate_chunks, st.unique_chunks), (1, 63));
        assert_eq!(
            s.metrics().counter("pcie.nic_compression_p2p.bytes"),
            Some(64 * 4096)
        );
        assert_eq!(
            s.cache_stats().accesses,
            128,
            "64 lookups, 64 re-validations"
        );
        assert_eq!(s.read(Lba(40)).unwrap(), chunk(3).to_vec());
    }

    #[test]
    fn commits_follow_batch_order() {
        let mut s = sys64();
        for i in 0..130u64 {
            s.write(Lba(i), chunk(i)).unwrap();
            let committed = s.stats().unique_chunks;
            for lba in 0..committed {
                let (pbn, _) = s.store.locate(Lba(lba)).unwrap();
                assert_eq!(pbn, Pbn(lba), "after write {i}");
            }
            assert!(s.store.locate(Lba(committed)).is_err(), "after write {i}");
        }
    }

    #[test]
    fn every_other_op_settles_the_open_batch_first() {
        type Op = fn(&mut FidrSystem);
        let ops: [(&str, Op); 7] = [
            ("read", |s| {
                assert_eq!(s.read(Lba(0)).unwrap(), chunk(0).to_vec())
            }),
            ("delete", |s| s.delete(Lba(0)).unwrap()),
            ("flush", |s| s.flush().unwrap()),
            ("gc", |s| {
                s.collect_garbage(0.5).unwrap();
            }),
            ("checkpoint", |s| {
                s.checkpoint().unwrap();
            }),
            ("scrub", |s| {
                s.scrub_deferred(1).unwrap();
            }),
            ("verify", |s| {
                s.verify_integrity().unwrap();
            }),
        ];
        for (name, op) in ops {
            let mut s = sys64();
            for i in 0..64u64 {
                s.write(Lba(i), chunk(i)).unwrap();
            }
            assert_eq!(open_split(&s), Some((16, 48)));
            op(&mut s);
            assert_eq!(open_split(&s), None, "{name}");
            assert_eq!(s.stats().unique_chunks, 64, "{name}");
        }
    }

    /// One client op of a random history.
    #[derive(Debug, Clone)]
    enum Step {
        Write(u64, u64),
        Read(u64),
        Delete(u64),
        Flush,
        Gc,
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        // Few LBAs and few contents: overwrites, duplicates and
        // resurrections of dead chunks all happen often.
        prop_oneof![
            12 => (0u64..48, 0u64..96).prop_map(|(lba, tag)| Step::Write(lba, tag)),
            3 => (0u64..48).prop_map(Step::Read),
            2 => (0u64..48).prop_map(Step::Delete),
            1 => Just(Step::Flush),
            1 => Just(Step::Gc),
        ]
    }

    /// Runs `steps` on `s`, settling after every write when `eager` (a
    /// whole-batch commit per filling write), and checks every read
    /// against the newest acked content.
    fn run_history(s: &mut FidrSystem, steps: &[Step], eager: bool) -> MetricsSnapshot {
        let mut newest: std::collections::HashMap<u64, u64> = Default::default();
        for (n, step) in steps.iter().enumerate() {
            match *step {
                Step::Write(lba, tag) => {
                    s.write(Lba(lba), chunk(tag)).unwrap();
                    newest.insert(lba, tag);
                    if eager {
                        s.settle().unwrap();
                    }
                }
                Step::Read(lba) => match newest.get(&lba) {
                    Some(&tag) => {
                        assert_eq!(s.read(Lba(lba)).unwrap(), chunk(tag).to_vec(), "step {n}")
                    }
                    None => assert_eq!(s.read(Lba(lba)), Err(FidrError::NotMapped(Lba(lba)))),
                },
                Step::Delete(lba) => match newest.remove(&lba) {
                    Some(_) => s.delete(Lba(lba)).unwrap(),
                    None => assert!(s.delete(Lba(lba)).is_err(), "step {n}"),
                },
                Step::Flush => s.flush().unwrap(),
                Step::Gc => {
                    s.collect_garbage(0.5).unwrap();
                }
            }
        }
        s.flush().unwrap();
        for (&lba, &tag) in &newest {
            assert_eq!(s.read(Lba(lba)).unwrap(), chunk(tag).to_vec());
        }
        s.metrics()
    }

    fn hash_batches() -> impl proptest::strategy::Strategy<Value = usize> {
        use proptest::prelude::*;
        prop_oneof![Just(8usize), Just(16), Just(17), Just(48), Just(64)]
    }

    proptest::proptest! {
        /// Random write / overwrite / read / delete / flush / GC
        /// histories: every read returns the newest acked content, and
        /// lane-group commits export exactly what a whole-batch commit
        /// per filling write exports (`settle` after every write).
        #[test]
        fn open_batch_matches_whole_batch_commits(
            hash_batch in hash_batches(),
            steps in proptest::collection::vec(step(), 1..160),
        ) {
            let cfg = FidrConfig { hash_batch, ..sys().cfg };
            let lazy = run_history(&mut FidrSystem::new(cfg.clone()), &steps, false);
            let eager = run_history(&mut FidrSystem::new(cfg), &steps, true);
            proptest::prop_assert_eq!(lazy.to_json(), eager.to_json());
        }

        /// The same histories, lane-group lookups against one whole-batch
        /// lookup per take, on a cache that never evicts (so LRU order
        /// cannot matter): every export but the span counts, which gain
        /// a `cache` span per group, is identical.
        #[test]
        fn group_lookups_match_whole_batch_lookups(
            hash_batch in hash_batches(),
            steps in proptest::collection::vec(step(), 1..160),
        ) {
            let cfg = FidrConfig { hash_batch, cache_lines: 256, ..sys().cfg };
            let mut whole = FidrSystem::new(cfg.clone());
            whole.whole_batch_lookups = true;
            let mut exports = [
                run_history(&mut FidrSystem::new(cfg), &steps, false),
                run_history(&mut whole, &steps, false),
            ];
            for m in &mut exports {
                proptest::prop_assert_eq!(m.counter("cache.evictions.count").unwrap_or(0), 0);
                m.set_counter("trace.spans.count", 0);
                m.set_counter("trace.dropped_spans", 0);
            }
            let [groups, whole] = exports;
            proptest::prop_assert_eq!(groups.to_json(), whole.to_json());
        }
    }

    #[test]
    fn lifecycle_metrics_export_only_after_activity() {
        let mut s = sys();
        s.write(Lba(0), chunk(0)).unwrap();
        s.flush().unwrap();
        let json = s.metrics().to_json();
        assert!(!json.contains("gc."), "no gc.* before any delete/GC");
        assert!(!json.contains("delete."), "no delete.* before any delete");
        s.delete(Lba(0)).unwrap();
        s.collect_garbage(1.1).unwrap();
        let json = s.metrics().to_json();
        assert!(json.contains("\"delete.acked.count\""));
        assert!(json.contains("\"gc.runs.count\""));
        assert!(json.contains("\"gc.reclaimed_bytes\""));
    }

    /// A tiered config whose threshold forces everything cold once the
    /// optimism window passes — every write defers, maximally exercising
    /// the scrubber.
    fn all_cold_tiered() -> TieredDedupConfig {
        TieredDedupConfig {
            policy: TieredPolicyConfig {
                hot_threshold: 1.1, // locality never reaches 110%
                min_observations: 0,
                ..TieredPolicyConfig::default()
            },
            stream_shift: 22,
            scrub_batch: 16,
        }
    }

    #[test]
    fn deferred_dedup_converges_to_inline_reduction() {
        // The same duplicate-heavy sequence through the flat cache and
        // through an everything-cold tiered config: after a flush the
        // dedup outcome (unique/duplicate split) must be identical, and
        // every LBA must read back its content.
        let mut flat = sys();
        let mut tiered = FidrSystem::new(FidrConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            hash_batch: 8,
            tiered: Some(all_cold_tiered()),
            ..FidrConfig::default()
        });
        for i in 0..256u64 {
            let c = chunk(i % 32); // 8x duplication
            flat.write(Lba(i), c.clone()).unwrap();
            tiered.write(Lba(i), c).unwrap();
        }
        flat.flush().unwrap();
        tiered.flush().unwrap();
        assert_eq!(tiered.deferred_pending(), 0, "flush drains the scrubber");
        assert_eq!(
            tiered.stats().unique_chunks,
            flat.stats().unique_chunks,
            "deferred dedup must find the same uniques"
        );
        assert_eq!(
            tiered.stats().duplicate_chunks,
            flat.stats().duplicate_chunks
        );
        for i in 0..256u64 {
            assert_eq!(tiered.read(Lba(i)).unwrap(), chunk(i % 32).to_vec());
        }
        let m = tiered.metrics();
        assert!(m.counter("dedup.deferred.count").unwrap() > 0);
        assert!(m.counter("scrub.dups.count").unwrap() > 0);
        assert_eq!(m.counter("dedup.deferred.pending"), Some(0));
    }

    #[test]
    fn gc_after_deferred_dedup_keeps_canonical_entries() {
        let mut s = FidrSystem::new(FidrConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            hash_batch: 8,
            tiered: Some(all_cold_tiered()),
            ..FidrConfig::default()
        });
        // Two LBAs with the same content, both deferred: the scrub keeps
        // one canonical chunk and retires the other, which GC reclaims —
        // without deleting the canonical table entry they share.
        s.write(Lba(0), chunk(9)).unwrap();
        s.write(Lba(1), chunk(9)).unwrap();
        s.flush().unwrap();
        assert_eq!(s.stats().unique_chunks, 1);
        assert_eq!(s.pending_dead_chunks(), 1, "retired provisional chunk");
        let report = s.collect_garbage(0.0).unwrap();
        assert_eq!(report.reclaimed_pbns, 1);
        // The canonical mapping survived: a new duplicate still hits.
        s.write(Lba(2), chunk(9)).unwrap();
        s.flush().unwrap();
        assert_eq!(s.stats().unique_chunks, 1, "entry survived the GC");
        for lba in 0..3 {
            assert_eq!(s.read(Lba(lba)).unwrap(), chunk(9).to_vec());
        }
    }

    #[test]
    fn overwritten_deferred_write_is_dropped_as_stale() {
        let mut s = FidrSystem::new(FidrConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            hash_batch: 4,
            tiered: Some(TieredDedupConfig {
                scrub_batch: 1 << 20, // never scrub opportunistically
                ..all_cold_tiered()
            }),
            ..FidrConfig::default()
        });
        // Overwrite the same LBA with fresh content before any scrub:
        // the first write's entry goes stale in the queue.
        s.write(Lba(0), chunk(1)).unwrap();
        s.write(Lba(1), chunk(99)).unwrap();
        s.write(Lba(2), chunk(98)).unwrap();
        s.write(Lba(3), chunk(97)).unwrap(); // full batch commits
        s.write(Lba(0), chunk(2)).unwrap();
        s.flush().unwrap();
        let m = s.metrics();
        assert!(m.counter("scrub.stale.count").unwrap() >= 1);
        assert_eq!(s.read(Lba(0)).unwrap(), chunk(2).to_vec());
        // The stale chunk must not have installed a table entry: writing
        // content 1 again is a fresh unique, not a (dangling) dedup hit.
        let uniques = s.stats().unique_chunks;
        s.write(Lba(4), chunk(1)).unwrap();
        s.flush().unwrap();
        assert_eq!(s.stats().unique_chunks, uniques + 1);
        assert_eq!(s.read(Lba(4)).unwrap(), chunk(1).to_vec());
    }

    #[test]
    fn tiered_all_hot_matches_flat_exactly() {
        // hot_threshold 0.0 keeps every stream hot: no write ever defers
        // and the metrics export must be byte-identical to the flat
        // cache (the tier counters are gated on a first deferral).
        let mut flat = sys();
        let mut tiered = FidrSystem::new(FidrConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            hash_batch: 8,
            tiered: Some(TieredDedupConfig {
                policy: TieredPolicyConfig {
                    hot_threshold: 0.0,
                    min_observations: 0,
                    ..TieredPolicyConfig::default()
                },
                ..TieredDedupConfig::default()
            }),
            ..FidrConfig::default()
        });
        for i in 0..200u64 {
            let c = chunk(i % 50);
            flat.write(Lba(i % 96), c.clone()).unwrap();
            tiered.write(Lba(i % 96), c).unwrap();
        }
        flat.flush().unwrap();
        tiered.flush().unwrap();
        assert_eq!(
            flat.metrics().to_json(),
            tiered.metrics().to_json(),
            "all-hot tiered must be byte-identical to flat"
        );
    }
}
