//! [`ChunkStore`]: the state and lifecycle both engines share.

use crate::StoreError;
use fidr_chunk::{IdMap, Lba, Pba, Pbn};
use fidr_compress::{CompressedChunk, Encoding};
use fidr_faults::{FaultInjector, RetryPolicy};
use fidr_hash::Fingerprint;
use fidr_hwsim::{ops, CostParams, CpuTask, Ledger, MemPath, PcieLink, TimeModel};
use fidr_metrics::{Histogram, MetricsSnapshot};
use fidr_ssd::{DataSsdArray, DataSsdError, RejectedWrite};
use fidr_tables::{
    Bucket, ContainerBuilder, ContainerLiveness, GcReport, HashPbnStore, LbaPbaTable, PbnLocation,
    ReductionStats, Snapshot, BUCKET_BYTES,
};
use fidr_trace::{SpanToken, TraceConfig, Tracer};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Which links a container or a GC survivor crosses between the
/// compression hardware and the data SSDs — the only thing the store's
/// lifecycle charges differently for the two architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPath {
    /// FIDR (Figure 6): Compression Engine ↔ data SSD peer-to-peer; the
    /// host only posts NVMe commands.
    PeerToPeer,
    /// The baseline (Figure 2): every hop bounces through host DRAM.
    HostStaged,
}

impl DataPath {
    /// A sealed container of `bytes` moves to the data SSDs.
    fn charge_seal(self, ledger: &mut Ledger, bytes: u64) {
        let (link, path) = (PcieLink::HostDataSsd, MemPath::DataSsdStaging);
        match self {
            DataPath::PeerToPeer => ops::p2p(ledger, PcieLink::CompressionDataSsdP2p, bytes),
            DataPath::HostStaged => ops::dma_from_host(ledger, link, path, bytes),
        }
    }

    /// A GC survivor (`io_bytes` stored, `raw_bytes` decoded) is read back
    /// into the Compression Engine, which verifies it before the move.
    fn charge_survivor_read(self, ledger: &mut Ledger, io_bytes: u64, raw_bytes: u64) {
        let (fpga, staging) = (PcieLink::HostCompression, MemPath::FpgaStaging);
        match self {
            DataPath::PeerToPeer => ops::p2p(ledger, PcieLink::DataSsdDecompressionP2p, io_bytes),
            DataPath::HostStaged => {
                let (link, path) = (PcieLink::HostDataSsd, MemPath::DataSsdStaging);
                ops::dma_to_host(ledger, link, path, io_bytes);
                ops::dma_from_host(ledger, fpga, staging, raw_bytes);
            }
        }
    }

    /// The survivor's stored region (`stored` bytes) reaches the open
    /// container's staging memory.
    fn charge_survivor_staged(self, ledger: &mut Ledger, stored: u64) {
        let (fpga, staging) = (PcieLink::HostCompression, MemPath::FpgaStaging);
        match self {
            DataPath::PeerToPeer => ledger.fpga_dram_bytes += stored,
            DataPath::HostStaged => ops::dma_to_host(ledger, fpga, staging, stored),
        }
    }
}

/// Chunks fetched and verified together by compaction and the integrity
/// scrub: the lane count of the widest batch SHA-256 kernel, so one
/// group is one batch hash and at most 64 KiB of decoded chunks are held.
const VERIFY_GROUP: usize = 16;

fn pba_of(loc: PbnLocation) -> Pba {
    Pba {
        container: loc.container,
        offset: loc.offset,
        compressed_len: loc.compressed_len,
    }
}

fn ssd_error(e: DataSsdError) -> StoreError {
    match e {
        DataSsdError::Io { .. } => StoreError::Io(e.to_string()),
        _ => StoreError::Corrupt(e.to_string()),
    }
}

/// Collects `items` ordered by `key` (the keys are unique ids, so the
/// unstable sort is deterministic).
fn sorted_by<T>(items: impl Iterator<Item = T>, key: impl Fn(&T) -> u64) -> Vec<T> {
    let mut items: Vec<T> = items.collect();
    items.sort_unstable_by_key(key);
    items
}

/// One client operation, for [`ChunkStore::begin_op`].
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// A 4-KB client write.
    Write(Lba),
    /// A 4-KB client read.
    Read(Lba),
    /// A client delete.
    Delete(Lba),
    /// A flush barrier (span only: no latency histogram, no error counts).
    Flush,
}

/// An operation in flight between [`ChunkStore::begin_op`] and
/// [`ChunkStore::end_op`].
#[derive(Debug, Clone, Copy)]
pub struct OpToken {
    /// The operation's root span, for engine-side attributes.
    pub span: SpanToken,
    /// Index into [`Counters::ops`] (`None` for a flush).
    stats: Option<usize>,
    started: Instant,
}

/// Wall-clock latency (all outcomes) and failures by
/// [`StoreError::kind`] of one client operation kind.
#[derive(Debug, Default)]
struct OpStats {
    ns: Histogram,
    errors: HashMap<&'static str, u64>,
}

const OP_NAMES: [&str; 3] = ["write", "read", "delete"];

/// Everything [`ChunkStore::export_metrics`] reports that is not already
/// in the ledger, the reduction stats or a device model.
#[derive(Debug, Default)]
struct Counters {
    /// Wall-clock time per chunk compression.
    compress_ns: Histogram,
    /// Compressed size as a percentage of the original (0–100).
    compress_pct: Histogram,
    compress_lzss_chunks: u64,
    /// Chunks stored raw because compression did not help.
    compress_raw_chunks: u64,
    /// Indexed like [`OP_NAMES`].
    ops: [OpStats; 3],
    /// Client deletes acknowledged (the LBA was mapped; it no longer is).
    deletes_acked: u64,
    gc_runs: u64,
    /// Cumulative outcome of every collection pass.
    gc_total: GcReport,
    /// Modelled (not slept) backoff spent on recovery: re-reading
    /// mismatched chunks, and whatever the engine adds.
    recovery_backoff_ns: Histogram,
    read_repair_detected: u64,
    read_repair_rereads: u64,
    read_repair_repaired: u64,
    /// Mismatches that persisted past the retry budget.
    read_repair_unrecovered: u64,
    /// Container seals that failed past the device retry budget.
    seal_failures: u64,
}

/// The chunk store under both engines: every piece of state whose
/// meaning does not depend on *how* a chunk got here — the LBA→PBN map
/// and one record per PBN (location, reference count, fingerprint), the
/// open container, the data SSDs, the per-container liveness census, the
/// dead list — plus the ledger, tracer and counters its verbs charge.
///
/// The open container holds only compressed bytes, as the engine's DRAM
/// does (§5.3): a read of a chunk that has not sealed yet decodes its
/// region from the builder, and is verified like any other read. State
/// keyed by an id the store allocates (PBNs, container ids) sits on an
/// [`IdMap`]; the LBA map keeps std's keyed hasher because clients
/// choose LBAs.
///
/// The Hash-PBN table is *not* here: the two engines drive different
/// caches over it. The one lifecycle step that touches it — dropping a
/// dead chunk's entry in GC phase 1 — is a callback the engine passes to
/// [`collect_garbage`](ChunkStore::collect_garbage).
#[derive(Debug)]
pub struct ChunkStore {
    /// Resource ledger both the store and its engine charge.
    pub ledger: Ledger,
    /// Span tracer stamped with modelled time (no-op unless configured).
    pub tracer: Tracer,
    /// Modelled service times backing the tracer's clock.
    pub time: TimeModel,
    /// Data-reduction outcomes so far.
    pub stats: ReductionStats,
    path: DataPath,
    container_threshold: usize,
    cost: CostParams,
    retry: RetryPolicy,
    faults: FaultInjector,
    data_ssd: DataSsdArray,
    lba_map: LbaPbaTable,
    builder: ContainerBuilder,
    next_pbn: u64,
    next_container: u64,
    /// PBNs ever appended to each container (filtered by refcount at
    /// compaction time).
    container_pbns: IdMap<u64, Vec<Pbn>>,
    liveness: ContainerLiveness,
    /// PBNs whose reference count dropped to zero, awaiting collection.
    dead: Vec<Pbn>,
    counters: Counters,
}

impl ChunkStore {
    /// Builds an empty store from the engine's own settings. `faults` is
    /// the engine's shared injector, armed into the data SSDs here.
    pub fn new(
        path: DataPath,
        container_threshold: usize,
        data_ssds: u32,
        cost: CostParams,
        retry: RetryPolicy,
        trace: TraceConfig,
        faults: FaultInjector,
    ) -> Self {
        let mut data_ssd = DataSsdArray::new(data_ssds);
        data_ssd.set_fault_injector(faults.clone(), retry);
        ChunkStore {
            ledger: Ledger::new(),
            tracer: Tracer::new(trace),
            time: TimeModel::default(),
            stats: ReductionStats::default(),
            path,
            container_threshold,
            cost,
            retry,
            faults,
            data_ssd,
            lba_map: LbaPbaTable::new(),
            builder: ContainerBuilder::new(0, container_threshold),
            next_pbn: 0,
            next_container: 0,
            container_pbns: IdMap::default(),
            liveness: ContainerLiveness::new(),
            dead: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Modelled host time so far, a mark for
    /// [`advance_host`](Self::advance_host); 0 (no ledger walk) untraced.
    pub fn host_mark(&self) -> u64 {
        if self.tracer.is_enabled() {
            self.time.host_ns(&self.ledger)
        } else {
            0
        }
    }

    /// Advances the tracer by the host time accrued since `mark`; returns
    /// the new mark. A no-op with tracing off.
    pub fn advance_host(&mut self, mark: u64) -> u64 {
        let now = self.host_mark();
        self.tracer.advance(now.saturating_sub(mark));
        now
    }

    /// Table-SSD bytes so far, a mark for [`table_io_span`](Self::table_io_span).
    pub fn table_io_bytes(&self) -> u64 {
        self.ledger.table_ssd_read_bytes + self.ledger.table_ssd_write_bytes
    }

    /// Emits a `table_ssd` span sized by the bucket IO since `mark`, if any.
    pub fn table_io_span(&mut self, mark: u64) {
        let bytes = self.table_io_bytes().saturating_sub(mark);
        if bytes > 0 {
            let ios = bytes.div_ceil(BUCKET_BYTES as u64);
            let span = self.tracer.begin("table_ssd");
            self.tracer.attr(span, "bytes", bytes);
            self.tracer.attr(span, "ios", ios);
            self.tracer.advance(self.time.table_ssd_ns(bytes, ios));
            self.tracer.end(span);
        }
    }

    /// Opens a client operation: its root span, and its wall clock.
    pub fn begin_op(&mut self, op: Op) -> OpToken {
        let (stats, lba) = match op {
            Op::Write(lba) => (Some(0), Some(lba)),
            Op::Read(lba) => (Some(1), Some(lba)),
            Op::Delete(lba) => (Some(2), Some(lba)),
            Op::Flush => (None, None),
        };
        let started = Instant::now();
        let span = self.tracer.begin(stats.map_or("flush", |i| OP_NAMES[i]));
        if let Some(lba) = lba {
            self.tracer.attr(span, "lba", lba.0);
        }
        OpToken {
            span,
            stats,
            started,
        }
    }

    /// Closes a client operation and hands `out` back: every outcome lands
    /// in the latency histogram; failures also tag the span and bump the
    /// per-kind error counter.
    pub fn end_op<T>(&mut self, op: OpToken, out: Result<T, StoreError>) -> Result<T, StoreError> {
        if let Err(e) = &out {
            self.tracer.attr(op.span, "error", e.kind());
        }
        self.tracer.end(op.span);
        if let Some(stats) = op.stats.map(|i| &mut self.counters.ops[i]) {
            stats.ns.record_duration(op.started.elapsed());
            if let Err(e) = &out {
                *stats.errors.entry(e.kind()).or_insert(0) += 1;
            }
        }
        out
    }

    /// Records modelled (not slept) recovery backoff.
    pub fn record_backoff(&mut self, backoff: Duration) {
        self.counters.recovery_backoff_ns.record_duration(backoff);
    }

    /// Re-reads issued so far to heal checksum mismatches (engines diff it
    /// around a fetch to size the `ssd` span).
    pub fn read_repair_rereads(&self) -> u64 {
        self.counters.read_repair_rereads
    }

    /// Bytes stored on the data SSDs so far (sealed containers).
    pub fn stored_bytes(&self) -> u64 {
        self.data_ssd.stored_bytes()
    }

    /// Dead chunks currently queued for the next collection pass.
    pub fn pending_dead_chunks(&self) -> usize {
        self.dead.len()
    }

    /// Client deletes acknowledged over this store's lifetime.
    pub fn deletes_acked(&self) -> u64 {
        self.counters.deletes_acked
    }

    /// Cumulative outcome of every garbage-collection pass so far.
    pub fn gc_totals(&self) -> GcReport {
        self.counters.gc_total
    }

    /// Every currently mapped LBA, in address order.
    pub fn mapped_lbas(&self) -> Vec<Lba> {
        let mut lbas: Vec<Lba> = self.lba_map.lba_entries().map(|(lba, _)| lba).collect();
        lbas.sort_unstable();
        lbas
    }

    /// Current reference count of a PBN (0 once it died).
    pub fn refcount(&self, pbn: Pbn) -> u32 {
        self.lba_map.refcount(pbn)
    }

    /// Resolves an LBA to the chunk it maps to and where that lives.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotMapped`] if the LBA holds no mapping.
    pub fn locate(&self, lba: Lba) -> Result<(Pbn, PbnLocation), StoreError> {
        let pbn = self.lba_map.pbn_of(lba);
        pbn.and_then(|pbn| Some((pbn, self.lba_map.location(pbn)?)))
            .ok_or(StoreError::NotMapped(lba))
    }

    /// Fault injection for tests and demos: flips one stored bit on the
    /// data SSDs. Returns `false` if the location does not exist.
    pub fn inject_data_corruption(&mut self, container: u64, byte: usize) -> bool {
        self.data_ssd.inject_corruption(container, byte)
    }

    /// Compresses one chunk in the (modelled) compression hardware,
    /// timing the real LZSS work and tracking the achieved ratio. `pre`
    /// is a `(chunk, wall-clock)` pair already in hand — precompressed on
    /// a worker pool, or a GC survivor's stored region and the time its
    /// copy took: the stats, span and modelled time recorded here are
    /// identical either way; only the raw LZSS compute is skipped.
    pub fn compress_chunk_with(
        &mut self,
        data: &[u8],
        pre: Option<(CompressedChunk, Duration)>,
    ) -> CompressedChunk {
        let span = self.tracer.begin("compress");
        let (compressed, elapsed) = pre.unwrap_or_else(|| {
            let started = Instant::now();
            let compressed = CompressedChunk::compress(data);
            (compressed, started.elapsed())
        });
        let c = &mut self.counters;
        c.compress_ns.record_duration(elapsed);
        c.compress_pct
            .record((compressed.ratio() * 100.0).round() as u64);
        let encoding = match compressed.encoding() {
            Encoding::Lzss => {
                c.compress_lzss_chunks += 1;
                "lzss"
            }
            Encoding::Raw => {
                c.compress_raw_chunks += 1;
                "raw"
            }
        };
        self.tracer
            .attr(span, "compressed_bytes", compressed.stored_len() as u64);
        self.tracer.attr(span, "encoding", encoding);
        self.tracer
            .advance(self.time.compress_ns(data.len() as u64));
        self.tracer.end(span);
        compressed
    }

    /// Appends `compressed` to the open container under `pbn`.
    fn append(&mut self, pbn: Pbn, compressed: &CompressedChunk) -> PbnLocation {
        let slot = self.builder.append(compressed);
        let container = self.builder.id();
        self.container_pbns.entry(container).or_default().push(pbn);
        self.liveness.record_append(container);
        PbnLocation {
            container,
            offset: slot.offset,
            compressed_len: slot.compressed_len,
        }
    }

    /// The PBN the next [`stage`](Self::stage) allocates. PBNs are never
    /// reused, so every chunk staged from now on has a PBN at or past it.
    pub fn next_pbn(&self) -> Pbn {
        Pbn(self.next_pbn)
    }

    /// Stages a new unique chunk: allocates its PBN, installs `fp → pbn`
    /// in `entry` (the engine's cached Hash-PBN bucket; `None` when the
    /// entry is installed later), appends the chunk to the open container
    /// and points `lba` at it. The PBN is fresh, so the mapping needs no
    /// resurrection check (and never scans the dead list). The caller
    /// seals via [`seal_if_full`](Self::seal_if_full), at the point its
    /// own span timeline puts the device write.
    ///
    /// # Errors
    ///
    /// [`StoreError::TableFull`] if `entry` is full; nothing was staged.
    pub fn stage(
        &mut self,
        lba: Lba,
        fp: Fingerprint,
        compressed: &CompressedChunk,
        entry: Option<&mut Bucket>,
    ) -> Result<Pbn, StoreError> {
        let pbn = Pbn(self.next_pbn);
        self.next_pbn += 1;
        if let Some(bucket) = entry {
            bucket.insert(fp, pbn)?;
        }
        let loc = self.append(pbn, compressed);
        self.lba_map.record_pbn(pbn, loc, fp);
        self.remap(lba, pbn);
        Ok(pbn)
    }

    /// Points `lba` at the already-stored chunk `pbn` (a duplicate hit).
    /// A hit on a dead-but-uncollected chunk resurrects it.
    pub fn map(&mut self, lba: Lba, pbn: Pbn) {
        if self.lba_map.refcount(pbn) == 0 {
            if let Some(queued) = self.dead.iter().position(|&d| d == pbn) {
                let loc = self.lba_map.location(pbn);
                self.liveness
                    .record_revive(loc.expect("queued dead PBN is located").container);
                self.dead.remove(queued);
            }
        }
        self.remap(lba, pbn);
    }

    /// Writes the LBA→PBN mapping, queueing any chunk the overwrite
    /// orphaned for collection.
    fn remap(&mut self, lba: Lba, pbn: Pbn) {
        if let Some(orphan) = self.lba_map.map_write(lba, pbn) {
            self.queue_dead(orphan);
        }
    }

    fn queue_dead(&mut self, pbn: Pbn) {
        if let Some(loc) = self.lba_map.location(pbn) {
            self.liveness.record_dead(loc.container);
        }
        self.dead.push(pbn);
    }

    /// Deletes one 4-KB client block: unmaps the LBA, releases its
    /// reference on the shared chunk, and — when that was the last
    /// reference — queues the chunk for the next
    /// [`collect_garbage`](Self::collect_garbage) pass. The chunk's bytes
    /// stay readable through other LBAs that still reference it.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotMapped`] if the LBA holds no current mapping.
    pub fn unmap(&mut self, lba: Lba) -> Result<(), StoreError> {
        let (ledger, cost) = (&mut self.ledger, self.cost);
        ledger.charge_cpu(CpuTask::NicDriver, cost.nic_driver_cycles_per_chunk);
        ledger.charge_cpu(CpuTask::LbaMap, cost.lba_map_cycles);
        let pbn = self.lba_map.unmap(lba).ok_or(StoreError::NotMapped(lba))?;
        if self.lba_map.refcount(pbn) == 0 {
            self.queue_dead(pbn);
        }
        self.counters.deletes_acked += 1;
        Ok(())
    }

    fn fetch_chunk(&mut self, loc: PbnLocation) -> Result<Vec<u8>, StoreError> {
        if loc.container == self.builder.id() {
            let open = self.builder.read_chunk(loc.offset, loc.compressed_len);
            return open.map_err(|e| StoreError::Corrupt(e.to_string()));
        }
        self.data_ssd.read_chunk(pba_of(loc)).map_err(ssd_error)
    }

    fn recorded_fingerprint(&self, pbn: Pbn) -> Result<Fingerprint, StoreError> {
        let fp = self.lba_map.fingerprint(pbn);
        fp.ok_or_else(|| StoreError::Corrupt(format!("{pbn} has no record")))
    }

    /// Fetches chunk `pbn` from `loc` and verifies the returned bytes
    /// against its recorded fingerprint. A mismatch (an in-flight bit
    /// flip on the data-SSD read path) triggers bounded re-reads with
    /// modelled backoff; the stored copy is intact in that case, so a
    /// re-read heals it. Persistent corruption — the stored bytes
    /// themselves are wrong — survives every re-read and errors out.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the device read fails past its retry
    /// budget, [`StoreError::Corrupt`] when `pbn` has no record, the
    /// region does not decode or still mismatches after the re-reads.
    pub fn fetch_chunk_verified(
        &mut self,
        pbn: Pbn,
        loc: PbnLocation,
    ) -> Result<Vec<u8>, StoreError> {
        let expect = self.recorded_fingerprint(pbn)?;
        let data = self.fetch_chunk(loc)?;
        if Fingerprint::of(&data) == expect {
            return Ok(data);
        }
        self.reread_until_verified(loc, expect)
    }

    /// [`fetch_chunk_verified`](Self::fetch_chunk_verified) for up to
    /// [`VERIFY_GROUP`] chunks: every first read, then one batch hash for
    /// the group. Each mismatch goes through the same re-reads, in group
    /// order, and the first error ends the group.
    fn fetch_group_verified(
        &mut self,
        group: &[(Pbn, PbnLocation)],
    ) -> Result<Vec<Vec<u8>>, StoreError> {
        let mut data = Vec::with_capacity(group.len());
        for &(_, loc) in group {
            data.push(self.fetch_chunk(loc)?);
        }
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let got = Fingerprint::of_batch(&refs);
        for ((&(pbn, loc), got), chunk) in group.iter().zip(got).zip(&mut data) {
            let expect = self.recorded_fingerprint(pbn)?;
            if got != expect {
                *chunk = self.reread_until_verified(loc, expect)?;
            }
        }
        Ok(data)
    }

    /// The re-read half of a verified fetch, entered once the first read
    /// of `loc` mismatched `expect`.
    fn reread_until_verified(
        &mut self,
        loc: PbnLocation,
        expect: Fingerprint,
    ) -> Result<Vec<u8>, StoreError> {
        self.counters.read_repair_detected += 1;
        for attempt in 0..self.retry.max_retries {
            self.counters.read_repair_rereads += 1;
            self.record_backoff(self.retry.backoff(attempt));
            let data = self.fetch_chunk(loc)?;
            if Fingerprint::of(&data) == expect {
                self.counters.read_repair_repaired += 1;
                return Ok(data);
            }
        }
        self.counters.read_repair_unrecovered += 1;
        Err(StoreError::Corrupt(format!(
            "container {} offset {} fails checksum verification after re-reads",
            loc.container, loc.offset
        )))
    }

    /// Seals the open container once it reached its threshold.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the device write fails past its retry
    /// budget; the open container survives for a later retry.
    pub fn seal_if_full(&mut self) -> Result<(), StoreError> {
        if self.builder.is_full() {
            self.seal_container()?;
        }
        Ok(())
    }

    /// Seals the open container if it holds anything (the flush barrier).
    ///
    /// # Errors
    ///
    /// Same as [`seal_if_full`](Self::seal_if_full).
    pub fn seal_open(&mut self) -> Result<(), StoreError> {
        if !self.builder.is_empty() {
            self.seal_container()?;
        }
        Ok(())
    }

    /// Writes the open container to the data SSDs and opens the next.
    ///
    /// The builder's bytes move to the device; a refused write hands them
    /// back and the container reopens, so a later flush retries the seal
    /// and no acked write is ever lost.
    fn seal_container(&mut self) -> Result<(), StoreError> {
        let bytes = self.builder.len() as u64;
        let span = self.tracer.begin("ssd");
        self.tracer.attr(span, "container_bytes", bytes);
        self.tracer.advance(self.time.data_ssd_ns(bytes, 1));
        let next = ContainerBuilder::new(self.next_container + 1, self.container_threshold);
        let full = std::mem::replace(&mut self.builder, next);
        if let Err(RejectedWrite { error, container }) = self.data_ssd.write_container(full.seal())
        {
            self.builder = ContainerBuilder::reopen(container, self.container_threshold);
            self.counters.seal_failures += 1;
            self.tracer.attr(span, "error", "io");
            self.tracer.end(span);
            return Err(StoreError::Io(error.to_string()));
        }
        self.tracer.end(span);
        self.next_container += 1;

        self.path.charge_seal(&mut self.ledger, bytes);
        self.ledger
            .charge_cpu(CpuTask::DataSsdStack, self.cost.data_ssd_io_cycles);
        self.ledger.data_ssd_write_bytes += bytes;
        self.stats.containers_sealed += 1;
        Ok(())
    }

    /// Garbage collection: reclaims the metadata of dead chunks, then
    /// compacts containers whose live fraction fell below
    /// `live_threshold` by rewriting survivors into the open container
    /// and dropping the old one. (An extension: the paper's evaluation
    /// never reaches steady-state overwrite churn, but any deployment of
    /// an append-only reduced store needs it.)
    ///
    /// `remove_entry(ledger, fingerprint, pbn)` is the engine's half of
    /// phase 1: it drops the dead chunk's Hash-PBN entry through its own
    /// table cache, charging `ledger`. The store calls it *before* it
    /// forgets the fingerprint, so on an error that chunk and every later
    /// one go back on the dead list with their records intact.
    ///
    /// # Errors
    ///
    /// Whatever `remove_entry` returns, survivor read failures and failed
    /// seals. No referenced chunk is lost; a later pass finishes the work.
    pub fn collect_garbage(
        &mut self,
        live_threshold: f64,
        mut remove_entry: impl FnMut(&mut Ledger, Fingerprint, Pbn) -> Result<(), StoreError>,
    ) -> Result<GcReport, StoreError> {
        let mut report = GcReport::default();

        // Phase 1: metadata reclamation. The dead list is only consumed
        // entry-by-entry as each reclaim commits.
        let dead = std::mem::take(&mut self.dead);
        for (idx, &pbn) in dead.iter().enumerate() {
            if self.lba_map.refcount(pbn) > 0 {
                continue; // resurrected after being queued
            }
            let fp = self.lba_map.fingerprint(pbn);
            let fp = fp.expect("dead PBN has a fingerprint on record");
            if let Err(e) = remove_entry(&mut self.ledger, fp, pbn) {
                self.dead.extend_from_slice(&dead[idx..]);
                return Err(e);
            }
            self.lba_map.reclaim(pbn);
            report.reclaimed_pbns += 1;
        }

        // Phase 2: container compaction.
        for container in self.liveness.sparse_containers(live_threshold) {
            if container == self.builder.id() {
                continue; // never compact the still-open container
            }
            // Read rather than remove: an error mid-compaction (a failed
            // seal, an unreadable survivor) must leave the survivor list
            // intact so a later pass can finish the move — otherwise the
            // next pass would see an "empty" container and drop it while
            // live chunks still point there. The entry is only discarded
            // once every survivor is safely relocated.
            let pbns = self
                .container_pbns
                .get(&container)
                .map_or(&[][..], Vec::as_slice);
            let survivors: Vec<(Pbn, PbnLocation)> = pbns
                .iter()
                .filter(|&&pbn| self.lba_map.refcount(pbn) > 0)
                .map(|&pbn| (pbn, self.lba_map.location(pbn).expect("live PBN located")))
                // A survivor elsewhere was moved by an earlier pass.
                .filter(|(_, loc)| loc.container == container)
                .collect();
            for group in survivors.chunks(VERIFY_GROUP) {
                let data = self.fetch_group_verified(group)?;
                for (&(pbn, loc), data) in group.iter().zip(&data) {
                    self.move_survivor(pbn, loc, data, &mut report)?;
                }
            }
            self.container_pbns.remove(&container);
            if let Some(freed) = self.data_ssd.remove_container(container) {
                report.freed_bytes += freed;
            }
            self.liveness.remove(container);
            report.compacted_containers += 1;
        }
        self.counters.gc_runs += 1;
        self.counters.gc_total.absorb(report);
        Ok(report)
    }

    /// Moves one live chunk of a container under compaction into the open
    /// container and repoints it. `data` is the chunk as read back and
    /// verified against its fingerprint, so compaction never propagates a
    /// transient read corruption. What moves is the chunk's stored
    /// region, copied as it is: LZSS is deterministic, so these are the
    /// bytes compressing `data` again would produce. The region is moved
    /// only if it decodes to `data`: a stored corruption that an
    /// in-flight flip happened to cancel out must not travel.
    fn move_survivor(
        &mut self,
        pbn: Pbn,
        loc: PbnLocation,
        data: &[u8],
        report: &mut GcReport,
    ) -> Result<(), StoreError> {
        let started = Instant::now();
        let region = self.data_ssd.region(pba_of(loc)).map_err(ssd_error)?;
        if region.decode().as_deref() != Ok(data) {
            return Err(StoreError::Corrupt(format!(
                "container {} offset {} does not decode to its verified read",
                loc.container, loc.offset
            )));
        }
        let pre = (region.to_chunk(), started.elapsed());

        let io_bytes = loc.compressed_len as u64 + 4;
        let path = self.path;
        path.charge_survivor_read(&mut self.ledger, io_bytes, data.len() as u64);
        self.ledger
            .charge_cpu(CpuTask::DataSsdStack, self.cost.data_ssd_io_cycles);
        self.ledger.data_ssd_read_bytes += io_bytes;

        let compressed = self.compress_chunk_with(data, Some(pre));
        let stored = compressed.stored_len() as u64;
        path.charge_survivor_staged(&mut self.ledger, stored);
        report.copied_bytes += stored;
        let new_loc = self.append(pbn, &compressed);
        self.lba_map.relocate(pbn, new_loc);
        report.moved_chunks += 1;
        self.seal_if_full()
    }

    /// Captures the store's durable state next to the engine's Hash-PBN
    /// `table`. The caller flushes first, so the open container is sealed
    /// and the table current. Every section is sorted by key: two stores
    /// that went through the same operations encode to the same bytes.
    pub fn checkpoint(&self, table: &HashPbnStore) -> Snapshot {
        let table_buckets = (0..table.num_buckets())
            .filter(|&idx| !table.bucket(idx).is_empty())
            .map(|idx| (idx, table.bucket(idx).clone()))
            .collect();
        Snapshot {
            num_buckets: table.num_buckets(),
            table_buckets,
            lbas: sorted_by(self.lba_map.lba_entries(), |&(lba, _)| lba.0),
            pbns: sorted_by(self.lba_map.pbn_entries(), |&(pbn, _)| pbn.0),
            containers: sorted_by(self.data_ssd.containers().cloned(), |c| c.id),
            next_pbn: self.next_pbn,
            next_container: self.next_container,
            pbn_fp: sorted_by(self.lba_map.fingerprints(), |&(pbn, _)| pbn.0),
            liveness: sorted_by(self.liveness.entries(), |&(container, ..)| container),
            dead: self.dead.clone(),
        }
    }

    /// Loads `snapshot` into this (freshly built) store and returns the
    /// Hash-PBN table it carried, for the engine to put behind its table
    /// SSDs. Per-container PBN lists are rebuilt in PBN order, so
    /// post-restore compaction lays survivors out the same way every run.
    pub fn restore(&mut self, snapshot: Snapshot) -> HashPbnStore {
        let mut table = HashPbnStore::new(snapshot.num_buckets);
        for (idx, bucket) in snapshot.table_buckets {
            table.write_bucket(idx, bucket);
        }
        for container in snapshot.containers {
            self.data_ssd.load_container(container);
        }
        let pbns = sorted_by(snapshot.pbns.into_iter(), |&(pbn, _)| pbn.0);
        self.container_pbns.clear();
        for &(pbn, loc) in &pbns {
            let list = self.container_pbns.entry(loc.container);
            list.or_default().push(pbn);
        }
        self.lba_map = LbaPbaTable::from_entries(snapshot.lbas, pbns, snapshot.pbn_fp);
        self.next_pbn = snapshot.next_pbn;
        self.next_container = snapshot.next_container;
        self.builder = ContainerBuilder::new(snapshot.next_container, self.container_threshold);
        self.liveness = ContainerLiveness::from_entries(snapshot.liveness);
        self.dead = snapshot.dead;
        table
    }

    /// Background integrity scrub (fsck): reads every live chunk back
    /// through the normal datapath and checks its SHA-256 against the
    /// recorded fingerprint, sixteen chunks to a batch hash.
    /// Transient read corruption is healed by bounded re-reads and counts
    /// as verified; only persistent mismatches fail the scrub. Returns
    /// the number of chunks verified.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for the first PBN whose stored bytes no
    /// longer match their recorded fingerprint after re-reads.
    pub fn verify_integrity(&mut self) -> Result<u64, StoreError> {
        let live: Vec<(Pbn, PbnLocation)> = self
            .lba_map
            .pbn_entries()
            .filter(|(pbn, _)| self.lba_map.refcount(*pbn) > 0)
            .collect();
        for group in live.chunks(VERIFY_GROUP) {
            self.fetch_group_verified(group)?;
        }
        Ok(live.len() as u64)
    }

    /// Exports the metrics both engines share: data SSDs, the ledger,
    /// reduction outcomes, compression, per-op latency and errors, fault
    /// and recovery counters, the delete/GC lifecycle and the tracer.
    /// Names and semantics are documented in `docs/OBSERVABILITY.md`.
    pub fn export_metrics(&self, out: &mut MetricsSnapshot) {
        let c = &self.counters;
        self.data_ssd.export_metrics(out);
        self.ledger.export_metrics(out);
        self.stats.export_metrics(out);
        self.faults.stats().export_metrics(out);
        out.set_counter("compress.lzss.chunks", c.compress_lzss_chunks);
        out.set_counter("compress.raw_fallback.chunks", c.compress_raw_chunks);
        out.set_wall_clock_histogram("compress.chunk.ns", &c.compress_ns);
        out.set_histogram("compress.ratio.pct", &c.compress_pct);
        out.set_counter("retry.read_repair.detected", c.read_repair_detected);
        out.set_counter("retry.read_repair.rereads", c.read_repair_rereads);
        out.set_counter("retry.read_repair.repaired", c.read_repair_repaired);
        out.set_counter("retry.read_repair.unrecovered", c.read_repair_unrecovered);
        out.set_counter("retry.seal.failures", c.seal_failures);
        out.set_histogram("system.retry.backoff.ns", &c.recovery_backoff_ns);
        // Lifecycle counters appear only once a delete or a GC pass has
        // actually happened: a store that never deletes exports
        // byte-identically to pre-lifecycle revisions (and the flat/tiered
        // and cross-worker byte-identity tests stay intact).
        let lifecycle = c.deletes_acked > 0 || c.gc_runs > 0;
        for (name, op) in OP_NAMES.iter().zip(&c.ops) {
            if *name != "delete" || lifecycle {
                out.set_wall_clock_histogram(&format!("system.{name}.ns"), &op.ns);
            }
            for (kind, n) in &op.errors {
                out.set_counter(&format!("system.{name}.errors.{kind}"), *n);
            }
        }
        if lifecycle {
            let gc = c.gc_total;
            out.set_counter("delete.acked.count", c.deletes_acked);
            out.set_counter("delete.pending_dead.count", self.dead.len() as u64);
            out.set_counter("gc.runs.count", c.gc_runs);
            out.set_counter("gc.reclaimed_pbns.count", gc.reclaimed_pbns);
            out.set_counter("gc.compacted_containers.count", gc.compacted_containers);
            out.set_counter("gc.moved_chunks.count", gc.moved_chunks);
            out.set_counter("gc.copied_bytes", gc.copied_bytes);
            out.set_counter("gc.reclaimed_bytes", gc.freed_bytes);
        }
        out.set_counter("trace.spans.count", self.tracer.recorded());
        out.set_counter("trace.dropped_spans", self.tracer.dropped());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidr_compress::ContentGenerator;
    use fidr_faults::FaultPlan;

    /// A store plus the smallest possible engine around it: an uncached
    /// Hash-PBN table, inline dedup, no data-path charges of its own.
    struct Rig {
        store: ChunkStore,
        table: HashPbnStore,
    }

    fn content(tag: u64) -> Vec<u8> {
        ContentGenerator::new(0.5).chunk(tag, 4096)
    }

    impl Rig {
        fn new(path: DataPath, plan: FaultPlan) -> Self {
            Rig::with_threshold(path, plan, 64 << 10)
        }

        fn with_threshold(path: DataPath, plan: FaultPlan, container_threshold: usize) -> Self {
            let (cost, retry, trace) = Default::default();
            let faults = FaultInjector::new(plan);
            let store = ChunkStore::new(path, container_threshold, 2, cost, retry, trace, faults);
            Rig {
                store,
                table: HashPbnStore::new(1 << 12),
            }
        }

        /// Writes content `tag` at `lba`; returns the chunk's PBN.
        fn write(&mut self, lba: u64, tag: u64) -> Result<Pbn, StoreError> {
            self.write_data(lba, &content(tag))
        }

        fn write_data(&mut self, lba: u64, data: &[u8]) -> Result<Pbn, StoreError> {
            let fp = Fingerprint::of(data);
            if let Some(pbn) = self.table.lookup(&fp) {
                self.store.map(Lba(lba), pbn);
                return Ok(pbn);
            }
            let compressed = self.store.compress_chunk_with(data, None);
            let pbn = self.store.stage(Lba(lba), fp, &compressed, None)?;
            self.table.insert(fp, pbn)?;
            self.store.seal_if_full()?;
            Ok(pbn)
        }

        fn read(&mut self, lba: u64) -> Result<Vec<u8>, StoreError> {
            let (pbn, loc) = self.store.locate(Lba(lba))?;
            self.store.fetch_chunk_verified(pbn, loc)
        }

        fn gc(&mut self, live_threshold: f64) -> Result<GcReport, StoreError> {
            let table = &mut self.table;
            self.store.collect_garbage(live_threshold, |_, fp, pbn| {
                let idx = table.bucket_of(&fp);
                let mut bucket = table.bucket(idx).clone();
                assert_eq!(bucket.remove(&fp), Some(pbn));
                table.write_bucket(idx, bucket);
                Ok(())
            })
        }
    }

    /// Runs `test` against a fresh fault-free rig on each data path.
    fn on_both_paths(test: impl Fn(Rig)) {
        for path in [DataPath::PeerToPeer, DataPath::HostStaged] {
            test(Rig::new(path, FaultPlan::default()));
        }
    }

    #[test]
    fn delete_unmaps_and_gc_reclaims_the_space() {
        on_both_paths(|mut r| {
            let gated = |r: &Rig| {
                let mut out = MetricsSnapshot::new();
                r.store.export_metrics(&mut out);
                out.to_json()
            };
            for i in 0..64 {
                r.write(i, i).unwrap();
            }
            r.store.seal_open().unwrap();
            let json = gated(&r);
            assert!(!json.contains("\"gc.") && !json.contains("\"delete."));
            assert!(!json.contains("system.delete.ns"), "{json}");
            let stored_before = r.store.stored_bytes();
            for i in 0..56 {
                r.store.unmap(Lba(i)).unwrap();
            }
            assert_eq!(r.store.deletes_acked(), 56);
            assert_eq!(r.store.pending_dead_chunks(), 56);
            // Deleted LBAs are gone; survivors still read; a double delete
            // is a clean NotMapped error, not a panic.
            assert_eq!(r.read(0).unwrap_err(), StoreError::NotMapped(Lba(0)));
            assert_eq!(r.read(60).unwrap(), content(60));
            assert_eq!(
                r.store.unmap(Lba(0)).unwrap_err(),
                StoreError::NotMapped(Lba(0))
            );

            let report = r.gc(0.5).unwrap();
            assert_eq!(report.reclaimed_pbns, 56);
            assert!(report.freed_bytes > 0, "{report:?}");
            r.store.seal_open().unwrap();
            assert!(r.store.stored_bytes() < stored_before, "space comes back");
            assert_eq!(r.store.gc_totals(), report);
            for i in 56..64 {
                assert_eq!(r.read(i).unwrap(), content(i), "LBA {i}");
            }
            let json = gated(&r);
            assert!(json.contains("\"delete.acked.count\""));
            assert!(json.contains("\"gc.reclaimed_bytes\""));
            assert!(json.contains("\"system.delete.ns\""));
        });
    }

    #[test]
    fn delete_of_shared_chunk_keeps_other_references_readable() {
        on_both_paths(|mut r| {
            r.write(1, 9).unwrap();
            r.write(2, 9).unwrap();
            r.store.seal_open().unwrap();
            r.store.unmap(Lba(1)).unwrap();
            // Still referenced: nothing queues and GC must not touch it.
            assert_eq!(r.store.pending_dead_chunks(), 0);
            assert_eq!(r.gc(1.1).unwrap().reclaimed_pbns, 0);
            assert_eq!(r.read(2).unwrap(), content(9));
            // Dropping the last reference finally frees it.
            r.store.unmap(Lba(2)).unwrap();
            assert_eq!(r.store.pending_dead_chunks(), 1);
            assert_eq!(r.gc(1.1).unwrap().reclaimed_pbns, 1);
        });
    }

    #[test]
    fn duplicate_hit_on_a_dead_chunk_resurrects_it() {
        // Death by overwrite and death by delete both resurrect.
        for by_delete in [false, true] {
            on_both_paths(|mut r| {
                let pbn = r.write(0, 5).unwrap();
                r.store.seal_open().unwrap();
                if by_delete {
                    r.store.unmap(Lba(0)).unwrap();
                } else {
                    r.write(0, 6).unwrap();
                }
                let container = r.store.lba_map.location(pbn).unwrap().container;
                assert_eq!(r.store.dead, vec![pbn]);
                assert_eq!(r.store.liveness.live_chunks(container), 0);

                assert_eq!(r.write(1, 5).unwrap(), pbn, "dedup hit on the dead chunk");
                assert!(r.store.dead.is_empty(), "dead entry gone");
                assert_eq!(r.store.liveness.live_chunks(container), 1, "revived");
                assert_eq!(r.gc(1.1).unwrap().reclaimed_pbns, 0);
                assert_eq!(r.read(1).unwrap(), content(5));
            });
        }
    }

    #[test]
    fn staging_a_fresh_unique_leaves_the_dead_list_untouched() {
        on_both_paths(|mut r| {
            for i in 0..200 {
                r.write(i, i).unwrap();
            }
            for i in 0..200 {
                r.store.unmap(Lba(i)).unwrap();
            }
            let dead = r.store.dead.clone();
            assert_eq!(dead.len(), 200);
            r.write(500, 9_000).unwrap();
            assert_eq!(r.store.dead, dead);
        });
    }

    #[test]
    fn open_container_reads_the_same_before_a_failed_seal_after_it_and_after_the_retry() {
        for path in [DataPath::PeerToPeer, DataPath::HostStaged] {
            let always = FaultPlan {
                data_write_error: 1.0,
                ..FaultPlan::default()
            };
            let mut r = Rig::new(path, always);
            // Sixteen chunks, four of them duplicates, stay under the
            // 64-KiB threshold: all of them live in the open container.
            let lbas: Vec<u64> = (0..16).collect();
            for &i in &lbas {
                r.write(i, i % 12).unwrap();
            }
            let read_all = |r: &mut Rig| -> Vec<Vec<u8>> {
                lbas.iter().map(|&i| r.read(i).unwrap()).collect()
            };
            let before = read_all(&mut r);
            let want: Vec<Vec<u8>> = lbas.iter().map(|&i| content(i % 12)).collect();
            assert_eq!(before, want);
            let sealed = r.store.builder.clone().seal();
            for &i in &lbas {
                let (_, loc) = r.store.locate(Lba(i)).unwrap();
                let open = r.store.builder.read_chunk(loc.offset, loc.compressed_len);
                assert_eq!(open, sealed.read_chunk(loc.offset, loc.compressed_len));
            }

            assert!(matches!(r.store.seal_open(), Err(StoreError::Io(_))));
            assert!(matches!(r.store.seal_open(), Err(StoreError::Io(_))));
            // Nothing reached the device, yet every acked write still
            // reads, and later writes keep landing in the same container.
            assert_eq!(r.store.stored_bytes(), 0);
            assert_eq!(r.store.counters.seal_failures, 2);
            assert_eq!(r.store.stats.containers_sealed, 0);
            assert_eq!(read_all(&mut r), before);
            r.write(100, 99).unwrap();
            assert_eq!(r.read(100).unwrap(), content(99));

            let retry = r.store.retry;
            r.store
                .data_ssd
                .set_fault_injector(FaultInjector::disabled(), retry);
            r.store.seal_open().unwrap();
            assert_eq!(r.store.stats.containers_sealed, 1);
            assert!(r.store.builder.is_empty(), "the next container is open");
            assert_eq!(read_all(&mut r), before);
            assert_eq!(r.read(100).unwrap(), content(99));
        }
    }

    #[test]
    fn failed_entry_removal_requeues_the_rest_of_the_dead_list() {
        on_both_paths(|mut r| {
            let pbns: Vec<Pbn> = (0..6).map(|i| r.write(i, i).unwrap()).collect();
            r.store.seal_open().unwrap();
            for i in 0..6 {
                r.store.unmap(Lba(i)).unwrap();
            }
            // The engine's table IO dies on the third dead chunk.
            let mut calls = 0;
            let err = r.store.collect_garbage(1.1, |_, _, _| {
                calls += 1;
                if calls == 3 {
                    return Err(StoreError::Io("table".to_string()));
                }
                Ok(())
            });
            assert_eq!(err.unwrap_err().kind(), "io");
            assert_eq!(r.store.dead, pbns[2..], "failed chunk and the tail requeue");
            assert!(
                r.store.lba_map.fingerprint(pbns[2]).is_some(),
                "record kept"
            );
            assert!(r.store.lba_map.fingerprint(pbns[1]).is_none());
            // A clean pass finishes the job.
            let report = r.store.collect_garbage(1.1, |_, _, _| Ok(())).unwrap();
            assert_eq!(report.reclaimed_pbns, 4);
            assert_eq!(r.store.pending_dead_chunks(), 0);
        });
    }

    #[test]
    fn survivor_moves_are_charged_to_the_data_path() {
        let moved = |path| {
            let mut r = Rig::new(path, FaultPlan::default());
            for i in 0..64 {
                r.write(i, i).unwrap();
            }
            r.store.seal_open().unwrap();
            for i in 0..56 {
                r.store.unmap(Lba(i)).unwrap();
            }
            assert!(r.gc(0.5).unwrap().moved_chunks > 0);
            r.store.ledger
        };
        let p2p = moved(DataPath::PeerToPeer);
        assert!(p2p.pcie_bytes(PcieLink::DataSsdDecompressionP2p) > 0);
        assert!(p2p.pcie_bytes(PcieLink::CompressionDataSsdP2p) > 0);
        assert_eq!(p2p.mem_bytes(MemPath::DataSsdStaging), 0);
        let staged = moved(DataPath::HostStaged);
        assert_eq!(staged.pcie_bytes(PcieLink::DataSsdDecompressionP2p), 0);
        assert!(staged.mem_bytes(MemPath::DataSsdStaging) > 0);
        assert!(staged.mem_bytes(MemPath::FpgaStaging) > 0);
        // Same bytes either way.
        assert_eq!(p2p.data_ssd_write_bytes, staged.data_ssd_write_bytes);
    }

    /// Live chunks per container on either side of one and two verify
    /// groups, and of nine, where `digest_batch` leaves the message
    /// kernel for the lane kernel.
    const GROUP_EDGES: [usize; 7] = [1, 8, 9, 15, 16, 17, 33];

    /// 4 KiB of xorshift noise: LZSS cannot shrink it, so it is stored raw.
    fn noise() -> Vec<u8> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 32) as u8
        };
        (0..4096).map(|_| next()).collect()
    }

    /// A rig whose one sealed container, id 0, holds 40 chunks, of which
    /// `survivors` are still mapped, spread across the container. LBA 0
    /// is always one of them, and its content is stored raw. Returns the
    /// rig and each survivor's LBA and content, in LBA order.
    fn sparse_container(path: DataPath, survivors: usize) -> (Rig, Vec<(u64, Vec<u8>)>) {
        let mut r = Rig::with_threshold(path, FaultPlan::default(), 1 << 20);
        let mut live = Vec::new();
        for lba in 0..40u64 {
            let data = match lba {
                0 => noise(),
                _ => content(lba),
            };
            r.write_data(lba, &data).unwrap();
            // Seven is coprime to 40: the survivors are spread out.
            if (lba as usize * 7) % 40 < survivors {
                live.push((lba, data));
            } else {
                r.store.unmap(Lba(lba)).unwrap();
            }
        }
        r.store.seal_open().unwrap();
        assert_eq!(r.store.data_ssd.container_count(), 1);
        (r, live)
    }

    /// The stored region `lba` maps to, as a chunk.
    fn stored_region(r: &Rig, lba: u64) -> CompressedChunk {
        let (_, loc) = r.store.locate(Lba(lba)).unwrap();
        r.store.data_ssd.region(pba_of(loc)).unwrap().to_chunk()
    }

    /// Flips one bit of chunk `pbn`'s stored payload, `at` bytes in.
    fn rot(r: &mut Rig, pbn: Pbn, at: usize) {
        let loc = r.store.lba_map.location(pbn).unwrap();
        let byte = loc.offset as usize + fidr_tables::CHUNK_HEADER_BYTES + at;
        assert!(r.store.inject_data_corruption(loc.container, byte));
    }

    #[test]
    fn compaction_moves_each_survivors_stored_region_byte_for_byte() {
        for path in [DataPath::PeerToPeer, DataPath::HostStaged] {
            for survivors in GROUP_EDGES {
                let (mut r, live) = sparse_container(path, survivors);
                let case = format!("{path:?}, {survivors} survivors");
                let old: Vec<CompressedChunk> = live
                    .iter()
                    .map(|&(lba, _)| stored_region(&r, lba))
                    .collect();
                let again: Vec<CompressedChunk> = live
                    .iter()
                    .map(|(_, data)| CompressedChunk::compress(data))
                    .collect();
                assert_eq!(old, again, "{case}: LZSS is deterministic");
                assert_eq!(again[0].encoding(), Encoding::Raw, "{case}");
                // What compressing every survivor again would record.
                let c = &r.store.counters;
                let (mut pct, mut lzss, mut raw) = (
                    c.compress_pct.clone(),
                    c.compress_lzss_chunks,
                    c.compress_raw_chunks,
                );
                for chunk in &again {
                    pct.record((chunk.ratio() * 100.0).round() as u64);
                    match chunk.encoding() {
                        Encoding::Lzss => lzss += 1,
                        Encoding::Raw => raw += 1,
                    }
                }
                let copied: u64 = again.iter().map(|c| c.stored_len() as u64).sum();

                let report = r.gc(1.1).unwrap();
                assert_eq!(report.moved_chunks, survivors as u64, "{case}");
                assert_eq!(report.copied_bytes, copied, "{case}");
                let c = &r.store.counters;
                let counts = (c.compress_lzss_chunks, c.compress_raw_chunks);
                assert_eq!(counts, (lzss, raw), "{case}");
                assert_eq!(c.compress_pct.snapshot(), pct.snapshot(), "{case}");
                assert_eq!(c.compress_ns.count(), pct.count(), "{case}");
                r.store.seal_open().unwrap();
                assert_eq!(
                    r.store.data_ssd.container_count(),
                    1,
                    "{case}: old one dropped"
                );
                for ((lba, data), old) in live.iter().zip(&old) {
                    assert_eq!(r.store.locate(Lba(*lba)).unwrap().1.container, 1);
                    assert_eq!(&stored_region(&r, *lba), old, "{case}: LBA {lba}");
                    assert_eq!(&r.read(*lba).unwrap(), data, "{case}: LBA {lba}");
                }
                assert_eq!(r.store.verify_integrity(), Ok(survivors as u64), "{case}");
            }
        }
    }

    #[test]
    fn the_scrub_and_compaction_verify_the_last_chunk_at_every_group_edge() {
        for path in [DataPath::PeerToPeer, DataPath::HostStaged] {
            for survivors in GROUP_EDGES {
                let case = format!("{path:?}, {survivors} survivors");
                let (mut r, live) = sparse_container(path, survivors);
                assert_eq!(r.store.verify_integrity(), Ok(survivors as u64), "{case}");
                let scrub_order = r.store.lba_map.pbn_entries();
                let last = scrub_order
                    .filter(|&(pbn, _)| r.store.refcount(pbn) > 0)
                    .last();
                rot(&mut r, last.unwrap().0, 100);
                let err = r.store.verify_integrity().unwrap_err();
                assert_eq!(err.kind(), "corrupt", "{case}");

                let (mut r, live_too) = sparse_container(path, survivors);
                assert_eq!(live, live_too);
                let move_order = r.store.container_pbns[&0].iter().copied();
                let last = move_order.rev().find(|&pbn| r.store.refcount(pbn) > 0);
                let last = last.unwrap();
                rot(&mut r, last, 100);
                assert_eq!(r.gc(1.1).unwrap_err().kind(), "corrupt", "{case}");
                assert_eq!(r.store.liveness.live_chunks(0), survivors as u32, "{case}");
                assert!(r.store.container_pbns.contains_key(&0), "{case}: kept");
                for (lba, data) in &live {
                    if r.store.locate(Lba(*lba)).unwrap().0 != last {
                        assert_eq!(&r.read(*lba).unwrap(), data, "{case}: LBA {lba}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_stored_flip_that_an_in_flight_flip_cancels_does_not_move() {
        for path in [DataPath::PeerToPeer, DataPath::HostStaged] {
            // The one survivor is the raw chunk at LBA 0. Every read now
            // flips bit 0 of its first byte in flight, and the same bit is
            // flipped on the device: the read verifies, the region is bad.
            let (mut r, _) = sparse_container(path, 1);
            let always = FaultPlan {
                data_read_corrupt: 1.0,
                ..FaultPlan::default()
            };
            let retry = r.store.retry;
            let faults = FaultInjector::new(always);
            r.store.data_ssd.set_fault_injector(faults, retry);
            let (raw, _) = r.store.locate(Lba(0)).unwrap();
            rot(&mut r, raw, 0);
            let err = r.gc(1.1).unwrap_err();
            assert!(err.to_string().contains("verified read"), "{path:?}: {err}");
            assert_eq!(r.store.counters.read_repair_detected, 0, "it verified");
            assert!(r.store.container_pbns.contains_key(&0), "{path:?}: kept");
            assert_eq!(r.store.builder.len(), 0, "{path:?}: nothing appended");
        }
    }
}
