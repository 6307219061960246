//! The end-to-end CIDR-extended baseline system (paper §2.3, Figure 2).
//!
//! Write path: client data is DMAed NIC → host memory, the software
//! unique-chunk predictor scans the buffer, the batch scheduler ships
//! *all* chunks host → FPGA, the FPGA hashes everything and compresses the
//! predicted uniques, results bounce back to host memory, the software
//! table-cache (B+ tree indexed, CPU driven) validates the predictions,
//! and validated compressed uniques are staged in host memory into 4-MB
//! containers written to the data SSDs. Every hop bounces through host
//! DRAM — which is exactly the bottleneck Figures 4 and 5 expose.

use crate::predictor::{PredictorStats, UniquePredictor};
use bytes::Bytes;
use fidr_cache::{BPlusTree, CacheStats, ShardedTableCache};
use fidr_chunk::{Lba, Pbn};
use fidr_compress::CompressedChunk;
use fidr_faults::{FaultInjector, FaultPlan, RetryPolicy};
use fidr_hash::Fingerprint;
use fidr_hwsim::{ops, CostParams, CpuTask, Ledger, MemPath, PcieLink};
use fidr_metrics::MetricsSnapshot;
use fidr_pool::WorkerPool;
use fidr_ssd::{QueueLocation, TableSsd};
use fidr_store::{ChunkStore, DataPath, Op};
use fidr_tables::{GcReport, ReductionStats, Snapshot, BUCKET_BYTES};
use fidr_trace::{SpanToken, TraceConfig, Tracer};
use std::time::{Duration, Instant};

pub use fidr_store::StoreError as SystemError;

/// Configuration of a baseline instance.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Host-DRAM table-cache capacity in 4-KB lines.
    pub cache_lines: usize,
    /// Buckets in the Hash-PBN table on the table SSDs.
    pub table_buckets: u64,
    /// Container flush threshold in bytes.
    pub container_threshold: usize,
    /// Predictor Bloom-filter size in bits.
    pub predictor_bits: usize,
    /// Data SSDs in the array.
    pub data_ssds: u32,
    /// Calibrated per-operation costs.
    pub cost: CostParams,
    /// Seeded fault schedule for the device models (inert by default).
    pub faults: FaultPlan,
    /// Bounded-retry policy for device faults and checksum re-reads.
    pub retry: RetryPolicy,
    /// Per-request span tracing (disabled by default).
    pub trace: TraceConfig,
    /// Worker threads for [`write_batch`](BaselineSystem::write_batch)'s
    /// hash + compression precompute. Commits stay in submission order,
    /// so modelled metrics are byte-identical for any worker count.
    pub workers: usize,
    /// Independent hash-prefix shards of the table cache (1 reproduces
    /// the unsharded cache exactly).
    pub cache_shards: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            cache_lines: 4096,
            table_buckets: 1 << 17,
            container_threshold: 4 << 20,
            predictor_bits: 1 << 22,
            data_ssds: 2,
            cost: CostParams::default(),
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            trace: TraceConfig::default(),
            workers: 1,
            cache_shards: 1,
        }
    }
}

/// The baseline data-reduction server.
///
/// # Examples
///
/// ```
/// use fidr_baseline::{BaselineConfig, BaselineSystem};
/// use fidr_chunk::Lba;
/// use bytes::Bytes;
///
/// let mut sys = BaselineSystem::new(BaselineConfig::default());
/// let data = Bytes::from(vec![7u8; 4096]);
/// sys.write(Lba(1), data.clone())?;
/// assert_eq!(sys.read(Lba(1))?, data.to_vec());
/// # Ok::<(), fidr_baseline::SystemError>(())
/// ```
#[derive(Debug)]
pub struct BaselineSystem {
    cfg: BaselineConfig,
    predictor: UniquePredictor,
    cache: ShardedTableCache<BPlusTree>,
    table_ssd: TableSsd,
    /// LBA map, containers (staged in host memory, as the baseline builds
    /// them there), data SSDs, delete/GC/checkpoint lifecycle, ledger and
    /// tracer — everything shared with FIDR.
    store: ChunkStore,
    /// Shared fault injector armed into the device models.
    faults: FaultInjector,
    /// Persistent worker pool for batched-write preparation (present
    /// only when `cfg.workers` > 1 with an inert fault plan).
    pool: Option<WorkerPool>,
}

impl BaselineSystem {
    /// Builds a baseline server from `cfg`.
    pub fn new(cfg: BaselineConfig) -> Self {
        let faults = FaultInjector::new(cfg.faults);
        let mut table_ssd = TableSsd::new(cfg.table_buckets, QueueLocation::HostMemory);
        table_ssd.set_fault_injector(faults.clone(), cfg.retry);
        let store = ChunkStore::new(
            DataPath::HostStaged,
            cfg.container_threshold,
            cfg.data_ssds,
            cfg.cost,
            cfg.retry,
            cfg.trace,
            faults.clone(),
        );
        // One persistent pool for the life of the system, not a thread
        // spawn per batch. Armed fault plans force the serial path.
        let pool = if cfg.workers > 1 && cfg.faults.is_inert() {
            Some(WorkerPool::new(cfg.workers))
        } else {
            None
        };
        BaselineSystem {
            predictor: UniquePredictor::new(cfg.predictor_bits),
            cache: ShardedTableCache::new(cfg.cache_shards.max(1), cfg.cache_lines, |_| {
                BPlusTree::new()
            }),
            table_ssd,
            store,
            faults,
            pool,
            cfg,
        }
    }

    /// Span tracer (spans, drop counters, critical-path report).
    pub fn tracer(&self) -> &Tracer {
        &self.store.tracer
    }

    /// Closes a `cache` span: emits a `table_ssd` child for any bucket IO
    /// the lookup triggered (delta against `table_bytes_mark`), folds in
    /// the host time accrued since `host_mark`, and returns the refreshed
    /// host-time mark.
    fn finish_cache_span(&mut self, span: SpanToken, host_mark: u64, table_bytes_mark: u64) -> u64 {
        if !self.store.tracer.is_enabled() {
            return host_mark;
        }
        self.store.table_io_span(table_bytes_mark);
        let mark = self.store.advance_host(host_mark);
        self.store.tracer.end(span);
        mark
    }

    /// Resource ledger accumulated so far.
    pub fn ledger(&self) -> &Ledger {
        &self.store.ledger
    }

    /// Data-reduction outcomes so far.
    pub fn stats(&self) -> ReductionStats {
        self.store.stats
    }

    /// Table-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Predictor accuracy counters.
    pub fn predictor_stats(&self) -> PredictorStats {
        self.predictor.stats()
    }

    /// Bytes stored on the data SSDs so far (sealed containers).
    pub fn stored_bytes(&self) -> u64 {
        self.store.stored_bytes()
    }

    /// Handles one 4-KB client write (Figure 2a).
    ///
    /// # Errors
    ///
    /// [`SystemError::BadChunkSize`] for non-4-KB chunks and
    /// [`SystemError::TableFull`] on Hash-PBN bucket overflow.
    pub fn write(&mut self, lba: Lba, data: Bytes) -> Result<(), SystemError> {
        self.write_prepared(lba, data, None)
    }

    /// Handles a batch of 4-KB client writes. With
    /// [`BaselineConfig::workers`] > 1 (and an inert fault plan — armed
    /// faults key off global device-call order) the multi-lane SHA-256
    /// hashing and speculative LZSS compression of every chunk
    /// precompute on the persistent worker pool; each write then commits
    /// on this thread in submission order, recording stats at exactly
    /// the sites the serial path would, so modelled metrics stay
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// Stops at the first failing write and returns its error.
    pub fn write_batch(&mut self, writes: Vec<(Lba, Bytes)>) -> Result<(), SystemError> {
        let workers = if self.cfg.faults.is_inert() {
            self.cfg.workers.max(1)
        } else {
            1
        };
        let (Some(pool), true) = (self.pool.as_ref(), workers > 1 && writes.len() >= 2) else {
            for (lba, data) in writes {
                self.write(lba, data)?;
            }
            return Ok(());
        };
        let mut prepared = prepare_writes(&writes, workers, pool);
        for (i, (lba, data)) in writes.into_iter().enumerate() {
            self.write_prepared(lba, data, prepared[i].take())?;
        }
        Ok(())
    }

    fn write_prepared(
        &mut self,
        lba: Lba,
        data: Bytes,
        pre: Option<PreparedWrite>,
    ) -> Result<(), SystemError> {
        let op = self.store.begin_op(Op::Write(lba));
        let out = self.write_inner(lba, data, op.span, pre);
        self.store.end_op(op, out)
    }

    fn write_inner(
        &mut self,
        lba: Lba,
        data: Bytes,
        op: SpanToken,
        mut pre: Option<PreparedWrite>,
    ) -> Result<(), SystemError> {
        if data.len() != BUCKET_BYTES {
            return Err(SystemError::BadChunkSize(data.len()));
        }
        let len = data.len() as u64;
        let cost = self.cfg.cost;
        self.store.ledger.add_client_write_bytes(len);
        self.store.stats.write_chunks += 1;
        self.store.stats.raw_bytes += len;

        let mut mark = self.store.host_mark();

        // 1. NIC DMAs the request into a host-memory buffer.
        let nic_span = self.store.tracer.begin("nic");
        ops::dma_to_host(
            &mut self.store.ledger,
            PcieLink::NicHost,
            MemPath::NicBuffering,
            len,
        );
        self.store
            .ledger
            .charge_cpu(CpuTask::NicDriver, cost.nic_driver_cycles_per_chunk);
        mark = self.store.advance_host(mark);
        self.store.tracer.end(nic_span);

        // 2. The unique-chunk predictor scans the buffered data.
        let predict_span = self.store.tracer.begin("predict");
        ops::cpu_touch(&mut self.store.ledger, MemPath::UniquePrediction, len);
        self.store
            .ledger
            .charge_cpu(CpuTask::UniquePrediction, cost.predictor_cycles_per_chunk);
        let predicted_unique = self.predictor.predict_unique(&data);
        mark = self.store.advance_host(mark);
        self.store
            .tracer
            .attr(predict_span, "predicted_unique", predicted_unique);
        self.store.tracer.end(predict_span);

        // 3. Batch scheduling groups chunks for the FPGA.
        let hash_span = self.store.tracer.begin("hash");
        self.store
            .ledger
            .charge_cpu(CpuTask::BatchScheduling, cost.batch_sched_cycles_per_chunk);

        // 4. Every chunk crosses host memory → FPGA.
        ops::dma_from_host(
            &mut self.store.ledger,
            PcieLink::HostCompression,
            MemPath::FpgaStaging,
            len,
        );

        // FPGA work: hash everything; compress the predicted uniques.
        // A precomputed batch entry already holds both results.
        let fingerprint = match &pre {
            Some(p) => p.fingerprint,
            None => Fingerprint::of(&data),
        };
        self.store.tracer.advance(self.store.time.hash_ns(len));
        mark = self.store.advance_host(mark);
        self.store.tracer.end(hash_span);
        let mut compressed = if predicted_unique {
            let spec = pre.as_mut().and_then(|p| p.compressed.take());
            Some(self.store.compress_chunk_with(&data, spec))
        } else {
            None
        };

        // 5. Hashes (and compressed uniques) come back to host memory.
        let returned = 32 + compressed.as_ref().map_or(0, |c| c.stored_len() as u64);
        ops::dma_to_host(
            &mut self.store.ledger,
            PcieLink::HostCompression,
            MemPath::FpgaStaging,
            returned,
        );

        // 6. Software table-cache lookup validates the prediction.
        mark = self.store.advance_host(mark);
        let cache_span = self.store.tracer.begin("cache");
        let table_bytes_mark = self.store.table_io_bytes();
        let looked_up = table_lookup(
            &mut self.cache,
            &mut self.table_ssd,
            &mut self.store.ledger,
            &cost,
            fingerprint,
        );
        let (existing, line) = match looked_up {
            Ok(out) => out,
            Err(e) => {
                self.finish_cache_span(cache_span, mark, table_bytes_mark);
                return Err(e);
            }
        };
        mark = self.finish_cache_span(cache_span, mark, table_bytes_mark);
        let actually_unique = existing.is_none();
        self.predictor.validate(predicted_unique, actually_unique);
        self.store.tracer.attr(op, "dedup_hit", !actually_unique);

        if let Some(pbn) = existing {
            self.store.stats.duplicate_chunks += 1;
            // A mispredicted "unique" wasted the compression work and the
            // PCIe/memory round trip already charged above.
            self.store.map(lba, pbn);
        } else {
            self.store.stats.unique_chunks += 1;
            let chunk = match compressed.take() {
                Some(c) => c,
                None => {
                    // Misprediction: a second FPGA round trip compresses
                    // the chunk the predictor wrongly called a duplicate.
                    ops::dma_from_host(
                        &mut self.store.ledger,
                        PcieLink::HostCompression,
                        MemPath::FpgaStaging,
                        len,
                    );
                    self.store
                        .ledger
                        .charge_cpu(CpuTask::BatchScheduling, cost.batch_sched_cycles_per_chunk);
                    let spec = pre.as_mut().and_then(|p| p.compressed.take());
                    let c = self.store.compress_chunk_with(&data, spec);
                    ops::dma_to_host(
                        &mut self.store.ledger,
                        PcieLink::HostCompression,
                        MemPath::FpgaStaging,
                        c.stored_len() as u64,
                    );
                    c
                }
            };
            self.predictor.observe(&data);
            // Insert the new entry into the cached bucket (dirty line)
            // and stage the compressed chunk into the open container.
            let entry = self.cache.bucket_mut(line);
            self.store.stage(lba, fingerprint, &chunk, Some(entry))?;
            self.store
                .ledger
                .charge_cpu(CpuTask::TreeIndexing, cost.tree_update_cycles);
            self.store.stats.stored_bytes += chunk.stored_len() as u64;
            self.store.seal_if_full()?;
        }

        let ledger = &mut self.store.ledger;
        ledger.charge_cpu(CpuTask::LbaMap, cost.lba_map_cycles);
        ledger.charge_cpu(CpuTask::Other, cost.misc_cycles_per_chunk);
        self.store.advance_host(mark);
        Ok(())
    }

    /// Deletes one 4-KB client block: unmaps the LBA, releases its
    /// reference on the shared chunk, and — when that was the last
    /// reference — queues the chunk for the next
    /// [`collect_garbage`](BaselineSystem::collect_garbage) pass. The
    /// chunk stays readable through other LBAs that still reference it.
    ///
    /// # Errors
    ///
    /// [`SystemError::NotMapped`] if the LBA holds no current mapping.
    pub fn delete(&mut self, lba: Lba) -> Result<(), SystemError> {
        let op = self.store.begin_op(Op::Delete(lba));
        let out = self.store.unmap(lba);
        self.store.end_op(op, out)
    }

    /// Garbage collection for the baseline: the same two phases as FIDR's
    /// collector ([`ChunkStore::collect_garbage`]), but every survivor
    /// rewrite bounces through host memory (SSD → host → FPGA → host →
    /// SSD) under CPU control — GC pressure is part of why the
    /// host-centric design scales poorly. This engine's part is removing
    /// each dead chunk's Hash-PBN entry through the software table cache.
    ///
    /// # Errors
    ///
    /// Table-cache IO failures, survivor read failures and failed seals;
    /// an interrupted pass loses no referenced chunk and a later pass
    /// finishes the work.
    pub fn collect_garbage(&mut self, live_threshold: f64) -> Result<GcReport, SystemError> {
        let cost = self.cfg.cost;
        self.store
            .collect_garbage(live_threshold, |ledger, fp, _pbn| {
                let (_, line) =
                    table_lookup(&mut self.cache, &mut self.table_ssd, ledger, &cost, fp)?;
                self.cache.bucket_mut(line).remove(&fp);
                ledger.charge_cpu(CpuTask::TreeIndexing, cost.tree_update_cycles);
                Ok(())
            })
    }

    /// Dead chunks queued for the next collection pass.
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

    /// Splits a multi-chunk client write into 4-KB chunks and writes
    /// each; returns the chunk count.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadChunkSize`] if the request is empty or ragged,
    /// plus anything [`write`](BaselineSystem::write) returns.
    pub fn write_request(&mut self, start: Lba, data: Bytes) -> Result<usize, SystemError> {
        let len = data.len();
        let chunks = fidr_chunk::FixedChunker::default()
            .split(start, data)
            .map_err(|_| SystemError::BadChunkSize(len))?;
        let n = chunks.len();
        for chunk in chunks {
            self.write(chunk.lba, chunk.data)?;
        }
        Ok(n)
    }

    /// Reads `chunks` consecutive blocks starting at `start` and returns
    /// their concatenated contents.
    ///
    /// # Errors
    ///
    /// Anything [`read`](BaselineSystem::read) returns for any block.
    pub fn read_range(&mut self, start: Lba, chunks: usize) -> Result<Vec<u8>, SystemError> {
        let mut out = Vec::with_capacity(chunks * BUCKET_BYTES);
        for i in 0..chunks as u64 {
            out.extend(self.read(Lba(start.0 + i))?);
        }
        Ok(out)
    }

    /// Handles one 4-KB client read (Figure 2b) and returns the data.
    ///
    /// # Errors
    ///
    /// [`SystemError::NotMapped`] for never-written addresses and
    /// [`SystemError::Corrupt`] if the SSD region fails to decode.
    pub fn read(&mut self, lba: Lba) -> Result<Vec<u8>, SystemError> {
        let op = self.store.begin_op(Op::Read(lba));
        let out = self.read_inner(lba);
        self.store.end_op(op, out)
    }

    fn read_inner(&mut self, lba: Lba) -> Result<Vec<u8>, SystemError> {
        let cost = self.cfg.cost;
        let traced = self.store.tracer.is_enabled();
        let mut mark = self.store.host_mark();
        self.store.ledger.add_client_read_bytes(BUCKET_BYTES as u64);
        self.store.stats.read_chunks += 1;

        // NIC forwards the LBA to the host; software resolves the PBA and
        // schedules the chunk into a decompression batch.
        let ledger = &mut self.store.ledger;
        ledger.charge_cpu(CpuTask::NicDriver, cost.nic_driver_cycles_per_chunk);
        ledger.charge_cpu(CpuTask::LbaMap, cost.lba_map_cycles);
        ledger.charge_cpu(CpuTask::BatchScheduling, cost.batch_sched_cycles_per_chunk);
        ledger.charge_cpu(CpuTask::Other, cost.misc_cycles_per_chunk);
        let (pbn, loc) = self.store.locate(lba)?;
        mark = self.store.advance_host(mark);

        let io_bytes = loc.compressed_len as u64 + 4;
        let ssd_span = self.store.tracer.begin("ssd");
        let rereads_mark = self.store.read_repair_rereads();
        self.store.tracer.attr(ssd_span, "bytes", io_bytes);
        let fetched = self.store.fetch_chunk_verified(pbn, loc);
        if traced {
            let attempts = 1 + self.store.read_repair_rereads() - rereads_mark;
            if attempts > 1 {
                self.store.tracer.attr(ssd_span, "retries", attempts - 1);
            }
            self.store
                .tracer
                .advance(self.store.time.data_ssd_ns(io_bytes * attempts, attempts));
        }
        if let Err(e) = &fetched {
            self.store.tracer.attr(ssd_span, "error", e.kind());
        }
        self.store.tracer.end(ssd_span);
        let data = fetched?;

        // Compressed data SSD -> host memory.
        ops::dma_to_host(
            &mut self.store.ledger,
            PcieLink::HostDataSsd,
            MemPath::DataSsdStaging,
            io_bytes,
        );
        self.store
            .ledger
            .charge_cpu(CpuTask::DataSsdStack, cost.data_ssd_io_cycles);
        self.store.ledger.data_ssd_read_bytes += io_bytes;

        // Host memory -> FPGA for decompression, decompressed data back.
        let decompress_span = self.store.tracer.begin("compress");
        self.store
            .tracer
            .attr(decompress_span, "compressed_bytes", io_bytes);
        ops::dma_from_host(
            &mut self.store.ledger,
            PcieLink::HostCompression,
            MemPath::FpgaStaging,
            io_bytes,
        );
        ops::dma_to_host(
            &mut self.store.ledger,
            PcieLink::HostCompression,
            MemPath::FpgaStaging,
            data.len() as u64,
        );
        self.store
            .tracer
            .advance(self.store.time.compress_ns(data.len() as u64));
        mark = self.store.advance_host(mark);
        self.store.tracer.end(decompress_span);

        // NIC picks the decompressed data up from host memory.
        let nic_span = self.store.tracer.begin("nic");
        ops::dma_from_host(
            &mut self.store.ledger,
            PcieLink::NicHost,
            MemPath::NicBuffering,
            data.len() as u64,
        );
        self.store
            .ledger
            .charge_cpu(CpuTask::NicDriver, cost.nic_driver_cycles_per_chunk);
        self.store.advance_host(mark);
        self.store.tracer.end(nic_span);
        Ok(data)
    }

    /// Seals any open container and flushes dirty table-cache lines.
    ///
    /// # Errors
    ///
    /// [`SystemError::Io`] if the seal or a bucket writeback fails past
    /// the retry budget; the open container and dirty lines survive for
    /// a later retry.
    pub fn flush(&mut self) -> Result<(), SystemError> {
        let op = self.store.begin_op(Op::Flush);
        let out = self.flush_inner();
        self.store.end_op(op, out)
    }

    fn flush_inner(&mut self) -> Result<(), SystemError> {
        self.store.seal_open()?;
        Ok(self.cache.flush_all(&mut self.table_ssd)?)
    }

    /// Captures all durable state for persistence (flushes first). The
    /// snapshot format is shared with the FIDR system, so a volume can be
    /// checkpointed under one architecture and restored under the other.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn checkpoint(&mut self) -> Result<Snapshot, SystemError> {
        self.flush()?;
        Ok(self.store.checkpoint(self.table_ssd.store()))
    }

    /// Rebuilds a baseline server from a [`Snapshot`] (restart recovery).
    /// The snapshot's table geometry overrides `cfg.table_buckets`. The
    /// predictor is soft state: starting it empty is safe (it only
    /// mispredicts more until it re-learns).
    pub fn restore(cfg: BaselineConfig, snapshot: Snapshot) -> Self {
        let mut sys = BaselineSystem::new(BaselineConfig {
            table_buckets: snapshot.num_buckets,
            ..cfg
        });
        let table = sys.store.restore(snapshot);
        sys.table_ssd = TableSsd::from_store(table, QueueLocation::HostMemory);
        sys.table_ssd
            .set_fault_injector(sys.faults.clone(), sys.cfg.retry);
        sys
    }

    /// Fault injection for tests and demos: flips one stored bit on the
    /// data SSDs. The next scrub (or read) of the affected chunk must
    /// detect it. Returns `false` if the location does not exist.
    pub fn inject_data_corruption(&mut self, container: u64, byte: usize) -> bool {
        self.store.inject_data_corruption(container, byte)
    }

    /// Background integrity scrub (fsck): verifies every live chunk's
    /// stored bytes against its recorded SHA-256 fingerprint
    /// ([`ChunkStore::verify_integrity`]). Returns the number of chunks
    /// verified.
    ///
    /// # Errors
    ///
    /// [`SystemError::Corrupt`] for the first PBN that still mismatches
    /// after re-reads.
    pub fn verify_integrity(&mut self) -> Result<u64, SystemError> {
        self.store.verify_integrity()
    }

    /// Assembles a [`MetricsSnapshot`] covering every baseline stage:
    /// table-cache lookups, table/data SSD IO, compression, prediction
    /// accuracy, reduction outcomes, the resource ledger, and end-to-end
    /// write/read latency. Same schema and naming as
    /// `FidrSystem::metrics` (see `docs/OBSERVABILITY.md`); NIC and
    /// HW-tree metrics are absent because the baseline has neither.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        self.cache.export_metrics(&mut out);
        out.set_counter("cache.hw_engine.enabled", 0);
        self.table_ssd.export_metrics(&mut out);
        self.store.export_metrics(&mut out);
        let p = self.predictor.stats();
        out.set_counter("predictor.predictions.count", p.predictions);
        out.set_counter("predictor.predicted_unique.count", p.predicted_unique);
        out.set_counter("predictor.correct.count", p.correct);
        out.set_gauge("predictor.accuracy.ratio", p.accuracy());
        out
    }
}

/// Looks up `fingerprint` through the software-managed table cache,
/// charging the Table 2 cost categories to `ledger`, and returns the
/// stored PBN (if duplicate) plus the cache line holding the bucket.
/// A free function over the table-side fields so the GC callback can run
/// it while the store is mutably borrowed.
fn table_lookup(
    cache: &mut ShardedTableCache<BPlusTree>,
    table_ssd: &mut TableSsd,
    ledger: &mut Ledger,
    cost: &CostParams,
    fingerprint: Fingerprint,
) -> Result<(Option<Pbn>, u32), SystemError> {
    let bucket_idx = fingerprint.bucket_index(table_ssd.num_buckets());

    // B+ tree search on the CPU.
    ledger.charge_cpu(CpuTask::TreeIndexing, cost.tree_search_cycles);
    let access = cache.access(bucket_idx, table_ssd)?;

    if !access.hit {
        // Miss: bucket fetched table SSD → host memory by the CPU's
        // NVMe stack; tree insert for the new line.
        ops::dma_to_host(
            ledger,
            PcieLink::HostTableSsd,
            MemPath::TableCache,
            BUCKET_BYTES as u64,
        );
        ledger.charge_cpu(CpuTask::TableSsdStack, cost.table_ssd_io_cycles);
        ledger.table_ssd_read_bytes += BUCKET_BYTES as u64;
        ledger.charge_cpu(CpuTask::TreeIndexing, cost.tree_update_cycles);

        // Evictions: tree deletes, LRU work, dirty flushes.
        for _ in 0..access.evicted {
            ledger.charge_cpu(CpuTask::TreeIndexing, cost.tree_update_cycles);
            ledger.charge_cpu(CpuTask::CacheReplacement, cost.lru_cycles);
        }
        for _ in 0..access.flushed {
            ops::dma_from_host(
                ledger,
                PcieLink::HostTableSsd,
                MemPath::TableCache,
                BUCKET_BYTES as u64,
            );
            ledger.charge_cpu(CpuTask::TableSsdStack, cost.table_ssd_io_cycles);
            ledger.table_ssd_write_bytes += BUCKET_BYTES as u64;
        }
    }

    // The CPU scans the cached bucket content for the fingerprint.
    ops::cpu_touch(ledger, MemPath::TableCache, BUCKET_BYTES as u64);
    ledger.charge_cpu(CpuTask::TableContentScan, cost.bucket_scan_cycles);
    ledger.charge_cpu(CpuTask::CacheReplacement, cost.lru_cycles);

    let pbn = cache.bucket(access.line).lookup(&fingerprint);
    Ok((pbn, access.line))
}

/// Hash and speculative LZSS output precomputed on the worker pool for
/// one batched write.
#[derive(Debug)]
struct PreparedWrite {
    fingerprint: Fingerprint,
    /// Compressed chunk plus the wall-clock the compression took; taken
    /// by whichever compress site fires (at most one per write), and
    /// silently dropped for writes the pipeline never compresses.
    compressed: Option<(CompressedChunk, Duration)>,
}

/// Fingerprints and speculatively compresses every chunk of `writes`
/// across up to `workers` persistent pool workers, in submission order
/// per slot. Each job hashes its whole slice through the multi-lane
/// SHA-256 kernel ([`Fingerprint::of_batch`]) before compressing.
/// Oversized chunks still prepare (cheaply wasted): `write_inner`
/// rejects them before consuming the precompute, exactly as in serial.
fn prepare_writes(
    writes: &[(Lba, Bytes)],
    workers: usize,
    pool: &WorkerPool,
) -> Vec<Option<PreparedWrite>> {
    let mut slots: Vec<Option<PreparedWrite>> = (0..writes.len()).map(|_| None).collect();
    let per_worker = writes.len().div_ceil(workers.min(writes.len()).max(1));
    pool.scope(|s| {
        for (k, (slice_in, slice_out)) in writes
            .chunks(per_worker)
            .zip(slots.chunks_mut(per_worker))
            .enumerate()
        {
            s.spawn_on(k, move || {
                let refs: Vec<&[u8]> = slice_in.iter().map(|(_, data)| data.as_ref()).collect();
                let fingerprints = Fingerprint::of_batch(&refs);
                for (((_, data), fingerprint), slot) in
                    slice_in.iter().zip(fingerprints).zip(slice_out.iter_mut())
                {
                    let started = Instant::now();
                    let compressed = CompressedChunk::compress(data);
                    *slot = Some(PreparedWrite {
                        fingerprint,
                        compressed: Some((compressed, started.elapsed())),
                    });
                }
            });
        }
    });
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> BaselineSystem {
        BaselineSystem::new(BaselineConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            ..BaselineConfig::default()
        })
    }

    fn chunk(tag: u64) -> Bytes {
        Bytes::from(fidr_compress::ContentGenerator::new(0.5).chunk(tag, 4096))
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = sys();
        let data = chunk(1);
        s.write(Lba(5), data.clone()).unwrap();
        assert_eq!(s.read(Lba(5)).unwrap(), data.to_vec());
    }

    #[test]
    fn duplicates_are_eliminated() {
        let mut s = sys();
        let data = chunk(9);
        for lba in 0..10u64 {
            s.write(Lba(lba), data.clone()).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.unique_chunks, 1);
        assert_eq!(st.duplicate_chunks, 9);
        assert!(st.stored_bytes < 4096);
        // Every copy reads back the same content.
        for lba in 0..10u64 {
            assert_eq!(s.read(Lba(lba)).unwrap(), data.to_vec());
        }
    }

    #[test]
    fn overwrite_returns_newest() {
        let mut s = sys();
        s.write(Lba(1), chunk(1)).unwrap();
        s.write(Lba(1), chunk(2)).unwrap();
        assert_eq!(s.read(Lba(1)).unwrap(), chunk(2).to_vec());
    }

    #[test]
    fn read_of_unwritten_errors() {
        let mut s = sys();
        assert!(matches!(s.read(Lba(77)), Err(SystemError::NotMapped(_))));
    }

    #[test]
    fn bad_chunk_size_rejected() {
        let mut s = sys();
        assert!(matches!(
            s.write(Lba(0), Bytes::from(vec![0u8; 100])),
            Err(SystemError::BadChunkSize(100))
        ));
    }

    #[test]
    fn containers_seal_and_remain_readable() {
        let mut s = sys();
        let mut written = Vec::new();
        for i in 0..64u64 {
            let data = chunk(1000 + i);
            s.write(Lba(i), data.clone()).unwrap();
            written.push((Lba(i), data));
        }
        assert!(s.stats().containers_sealed >= 1);
        for (lba, data) in written {
            assert_eq!(s.read(lba).unwrap(), data.to_vec(), "{lba}");
        }
    }

    #[test]
    fn ledger_charges_every_category_on_writes() {
        let mut s = sys();
        for i in 0..300u64 {
            s.write(Lba(i), chunk(i % 50)).unwrap();
        }
        let l = s.ledger();
        assert!(l.mem_bytes(MemPath::NicBuffering) > 0);
        assert!(l.mem_bytes(MemPath::UniquePrediction) > 0);
        assert!(l.mem_bytes(MemPath::FpgaStaging) > 0);
        assert!(l.mem_bytes(MemPath::TableCache) > 0);
        assert!(l.cpu_cycles(CpuTask::UniquePrediction) > 0);
        assert!(l.cpu_cycles(CpuTask::TreeIndexing) > 0);
        // Memory traffic far exceeds client bytes — the §3.2 bottleneck.
        assert!(l.mem_bytes_per_client_byte() > 3.0);
    }

    #[test]
    fn dedup_ratio_tracks_content() {
        let mut s = sys();
        // 50% duplicates: two writes of each content.
        for i in 0..200u64 {
            s.write(Lba(i), chunk(i / 2)).unwrap();
        }
        assert!((s.stats().dedup_ratio() - 0.5).abs() < 0.01);
    }

    #[test]
    fn batched_workers_match_serial_writes_byte_for_byte() {
        let writes: Vec<(Lba, Bytes)> = (0..96u64).map(|i| (Lba(i), chunk(i / 3))).collect();
        let mut serial = sys();
        for (lba, data) in writes.clone() {
            serial.write(lba, data).unwrap();
        }
        let mut batched = BaselineSystem::new(BaselineConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            workers: 4,
            cache_shards: 4,
            ..BaselineConfig::default()
        });
        batched.write_batch(writes.clone()).unwrap();
        // Sharding changes the cache's line placement (and so its
        // hit/miss pattern), but a 1-shard batched run must be
        // byte-identical to serial, and any shard count must keep the
        // functional outcomes.
        assert_eq!(batched.stats(), serial.stats());
        for (lba, data) in &writes {
            assert_eq!(batched.read(*lba).unwrap(), data.to_vec());
        }
        let mut one_shard = BaselineSystem::new(BaselineConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            workers: 4,
            ..BaselineConfig::default()
        });
        one_shard.write_batch(writes).unwrap();
        assert_eq!(one_shard.metrics().to_json(), serial.metrics().to_json());
    }
}
