//! The loopback TCP storage front-end: the serving layer real client
//! traffic enters through.
//!
//! The paper's prototype (§6.2) is a two-machine deployment speaking the
//! simplified read/write/acknowledgment protocol of
//! [`fidr_nic::protocol`]. This module stands that deployment up as a
//! process: a [`Server`] accepts N concurrent client connections (the
//! accept loop and the per-connection frame transport are
//! [`crate::net`]'s, shared with the front tier and the client), and
//! feeds writes/reads into one shared [`FidrSystem`] behind a
//! bounded in-flight queue (admission blocks — and therefore stops
//! reading from the socket — when the backend falls behind, which is TCP
//! backpressure).
//!
//! Connection hygiene follows the streaming contract of the protocol: a
//! partial frame is never an error (the codec waits for more bytes), but
//! a hard [`fidr_nic::protocol::ProtocolError`] — bad opcode, hostile
//! length field — or a mid-frame disconnect closes *only* the offending
//! connection and counts in `server.frames.rejected.count`. Other
//! clients never stall.
//!
//! Everything the front end does is observable through the `server.*`
//! counters merged into the system's `fidr.metrics.v1` snapshot
//! ([`ServerHandle::metrics`]); per-request `write`/`read` root spans
//! come from the existing tracer when [`FidrConfig::trace`] enables it.
//!
//! # Examples
//!
//! ```no_run
//! use fidr::server::{Server, ServerConfig};
//! use fidr::client::StorageClient;
//! use fidr::chunk::Lba;
//! use bytes::Bytes;
//!
//! let handle = Server::spawn(ServerConfig::default())?;
//! let mut client = StorageClient::connect(handle.local_addr())?;
//! client.write(Lba(0), Bytes::from(vec![7u8; 4096]))?;
//! assert_eq!(client.read(Lba(0))?, vec![7u8; 4096]);
//! drop(client);
//! let metrics = handle.shutdown().expect("clean drain");
//! assert_eq!(metrics.counter("server.frames.rejected.count"), Some(0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::client::{ClientError, StorageClient};
use crate::net::{FrameConn, ListenState, Listener, Recv};
use bytes::Bytes;
use fidr_core::{FidrConfig, FidrError, FidrSystem, DEFAULT_STREAM_SHIFT};
use fidr_metrics::{
    counter_delta, rate_per_sec, ratio, to_prometheus_text, Histogram, MetricsSnapshot,
    WindowedHistogram, TIMESERIES_SCHEMA_ID,
};
use fidr_nic::protocol::{Message, ShardMapAction, StatsFormat};
use fidr_nic::ShardRouter;
use fidr_tables::BUCKET_BYTES;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time-series samples retained by the sampler ring (oldest dropped).
/// At the default 1 s cadence this is four minutes of history.
const SAMPLE_RING: usize = 240;

/// Distinct stream ids tracked individually; traffic on streams beyond
/// this spills into the `other` rollup bucket so a high-entropy LBA
/// space cannot grow server memory without bound.
const MAX_TRACKED_STREAMS: usize = 64;

/// Slow-request exemplars retained (oldest dropped).
const EXEMPLAR_RING: usize = 8;

/// Recent tracer spans attached to each exemplar.
const EXEMPLAR_SPANS: usize = 8;

/// Sampler rotations spanned by the windowed latency histogram: the
/// live percentiles cover the last `LATENCY_WINDOWS × sample_ms`.
const LATENCY_WINDOWS: usize = 8;

/// Requests observed before the slow-exemplar threshold arms — a p99
/// over a handful of samples is noise, not a threshold.
const P99_ARM_COUNT: u64 = 32;

/// Once armed, the p99 threshold is recomputed every this many
/// requests (an atomic load on the hot path, a percentile walk only
/// here).
const P99_REFRESH: u64 = 64;

/// Configuration of the TCP front-end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back with
    /// [`ServerHandle::local_addr`]).
    pub addr: SocketAddr,
    /// The storage backend's configuration (enable
    /// [`fidr::trace`](crate::trace) via its `trace` field to get
    /// per-request root spans).
    pub system: FidrConfig,
    /// Bound on frames admitted into the backend but not yet replied to.
    /// When full, connection threads block *before* reading more from
    /// their sockets — the kernel's receive window then pushes back on
    /// clients.
    pub queue_capacity: usize,
    /// Auto-drain: once this many connections have been accepted and all
    /// of them have closed, the server drains and
    /// [`ServerHandle::wait`] returns. `None` serves until
    /// [`ServerHandle::shutdown`].
    pub conns_limit: Option<u64>,
    /// Telemetry sampler cadence in milliseconds; `0` disables the
    /// sampler thread entirely (scrapes then return an empty sample
    /// ring but live totals still work). The sampler is read-only over
    /// the merged metrics, so the drain-time `fidr.metrics.v1` export
    /// is byte-identical whether it runs or not.
    pub sample_ms: u64,
    /// Stream id = `lba >> stream_shift` for the per-stream rollups;
    /// [`fidr_core::DEFAULT_STREAM_SHIFT`] keeps it in lockstep with
    /// [`fidr_core::TieredDedupConfig::stream_shift`] so `fidr top` and
    /// the tiered admission policy agree on what a stream is.
    pub stream_shift: u32,
    /// Streams reported individually by a scrape; the rest (and any
    /// traffic past the 64-stream tracking cap) aggregate into `other`.
    pub top_streams: usize,
    /// This node's stable identity in a cluster shard map; a
    /// standalone server can leave the 0 default. Used to tell "mine"
    /// from "must rehome" when a [`Message::ShardMapRequest`] installs
    /// a new map.
    pub node_id: u64,
    /// Garbage collection cadence: run a collection pass after every
    /// this many acked deletes, and opportunistically during traffic
    /// lulls whenever dead chunks are pending (the same idle hook the
    /// deferred-dedup scrubber uses). `0` disables server-driven GC —
    /// deletes still unmap, but space comes back only via an explicit
    /// [`fidr_core::FidrSystem::collect_garbage`] call.
    pub gc_every: u64,
    /// Live-fraction threshold below which a GC pass compacts a
    /// container (see [`fidr_core::FidrSystem::collect_garbage`]).
    pub gc_threshold: f64,
    /// Test hook: injected wall-clock latency on the write path, for
    /// exercising slow-request exemplar capture deterministically.
    pub stall: Option<StallFault>,
    /// Test hook: injected read-path corruption, for exercising the
    /// client's verification (and its non-zero exit) deterministically.
    pub corrupt: Option<CorruptFault>,
}

/// Injected wall-clock latency fault: every `every`-th write sleeps
/// `millis` before entering the backend. A telemetry test hook — the
/// modelled clock and the deterministic metrics export never see it.
#[derive(Debug, Clone, Copy)]
pub struct StallFault {
    /// Stall cadence (every Nth write; 0 disables).
    pub every: u64,
    /// Stall duration in milliseconds.
    pub millis: u64,
}

/// Injected read-path corruption fault: every `every`-th read reply has
/// its first payload byte flipped *after* the backend served it, as a
/// bit-rotted wire or device would. The backend's own state stays
/// intact; only the reply bytes lie. A test hook for proving client
/// verification fails loudly.
#[derive(Debug, Clone, Copy)]
pub struct CorruptFault {
    /// Corruption cadence (every Nth read; 0 disables).
    pub every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("static addr"),
            system: FidrConfig::default(),
            queue_capacity: 64,
            conns_limit: None,
            sample_ms: 1000,
            stream_shift: DEFAULT_STREAM_SHIFT,
            top_streams: 8,
            node_id: 0,
            gc_every: 0,
            gc_threshold: 0.5,
            stall: None,
            corrupt: None,
        }
    }
}

/// Atomic `server.*` counters shared by every connection thread.
#[derive(Debug, Default)]
struct ServerMetrics {
    connections_closed_clean: AtomicU64,
    connections_closed_error: AtomicU64,
    frames_decoded: AtomicU64,
    frames_rejected: AtomicU64,
    frames_unexpected: AtomicU64,
    rx_bytes: AtomicU64,
    tx_bytes: AtomicU64,
    queue_waits: AtomicU64,
    queue_depth_max: AtomicU64,
    ops_write: AtomicU64,
    ops_read: AtomicU64,
    ops_delete: AtomicU64,
    ops_stats: AtomicU64,
    ops_shardmap: AtomicU64,
    ops_failed: AtomicU64,
    scrub_idle: AtomicU64,
    gc_passes: AtomicU64,
    shard_rehome: AtomicU64,
    shard_reclaimed: AtomicU64,
}

impl ServerMetrics {
    fn export(&self, out: &mut MetricsSnapshot, listen: &ListenState, queue_depth: u64) {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        out.set_counter("server.connections.accepted.count", c(&listen.accepted));
        out.set_gauge("server.connections.active.count", c(&listen.active) as f64);
        out.set_counter(
            "server.connections.closed_clean.count",
            c(&self.connections_closed_clean),
        );
        out.set_counter(
            "server.connections.closed_error.count",
            c(&self.connections_closed_error),
        );
        out.set_counter("server.frames.decoded.count", c(&self.frames_decoded));
        out.set_counter("server.frames.rejected.count", c(&self.frames_rejected));
        out.set_counter("server.frames.unexpected.count", c(&self.frames_unexpected));
        out.set_counter("server.rx.bytes", c(&self.rx_bytes));
        out.set_counter("server.tx.bytes", c(&self.tx_bytes));
        out.set_gauge("server.queue.depth.count", queue_depth as f64);
        // A high-watermark is a level, not an event count: gauge.
        out.set_gauge("server.queue.depth.max", c(&self.queue_depth_max) as f64);
        out.set_counter("server.queue.waits.count", c(&self.queue_waits));
        out.set_counter("server.ops.write.count", c(&self.ops_write));
        out.set_counter("server.ops.read.count", c(&self.ops_read));
        out.set_counter("server.ops.delete.count", c(&self.ops_delete));
        out.set_counter("server.ops.stats.count", c(&self.ops_stats));
        out.set_counter("server.ops.shardmap.count", c(&self.ops_shardmap));
        out.set_counter("server.ops.failed.count", c(&self.ops_failed));
        out.set_counter("server.scrub.idle.count", c(&self.scrub_idle));
        out.set_counter("server.gc.passes.count", c(&self.gc_passes));
        out.set_counter("server.shard.rehome.count", c(&self.shard_rehome));
        out.set_counter("server.shard.reclaimed.count", c(&self.shard_reclaimed));
    }
}

/// Per-stream traffic rollup (stream id = `lba >> stream_shift`).
#[derive(Debug, Clone, Copy, Default)]
struct StreamStats {
    writes: u64,
    reads: u64,
    deletes: u64,
    bytes: u64,
}

impl StreamStats {
    fn absorb(&mut self, other: StreamStats) {
        self.writes += other.writes;
        self.reads += other.reads;
        self.deletes += other.deletes;
        self.bytes += other.bytes;
    }

    fn ops(&self) -> u64 {
        self.writes + self.reads + self.deletes
    }
}

/// One retained slow request: what `server.slow.exemplars` exports.
#[derive(Debug, Clone)]
struct Exemplar {
    seq: u64,
    op: &'static str,
    lba: u64,
    latency_ns: u64,
    threshold_ns: u64,
    /// `(stage name, modelled duration ns)` of the request's most
    /// recent tracer spans; empty when tracing is disabled.
    spans: Vec<(&'static str, u64)>,
}

/// One sampler tick: deltas of the merged counters over `dt_ms`, plus
/// the windowed rates `fidr top` renders. All wall-clock derived, so
/// this lives only in scrape output, never the drain export.
#[derive(Debug, Clone, Copy)]
struct TimeSample {
    seq: u64,
    /// Milliseconds since the server started.
    t_ms: u64,
    dt_ms: u64,
    writes: u64,
    reads: u64,
    rx_bytes: u64,
    tx_bytes: u64,
    ops_per_sec: f64,
    gbps: f64,
    hit_ratio: f64,
    queue_depth: u64,
    dedup_ratio: f64,
    deferred: u64,
}

/// Mutable telemetry state behind one mutex, separate from the system
/// lock (lock order where both are needed: system first, telemetry
/// second).
struct TelemetryInner {
    started: Instant,
    /// Snapshot the last tick diffed against.
    prev: Option<MetricsSnapshot>,
    last_ms: u64,
    seq: u64,
    samples: VecDeque<TimeSample>,
    streams: BTreeMap<u64, StreamStats>,
    /// Rollup of streams past [`MAX_TRACKED_STREAMS`].
    overflow: StreamStats,
    /// Lifetime wall-clock request latency (arms the p99 threshold).
    latency: Histogram,
    /// Latency over the last [`LATENCY_WINDOWS`] sampler ticks.
    window_latency: WindowedHistogram,
    exemplars: VecDeque<Exemplar>,
    exemplar_seq: u64,
}

/// The live telemetry plane: sampler ring + per-stream rollups + slow
/// exemplars. Strictly additive — it reads the merged metrics and
/// feeds only the scrape outputs, so the deterministic drain export
/// never sees it.
struct Telemetry {
    sample_ms: u64,
    stream_shift: u32,
    top_streams: usize,
    inner: Mutex<TelemetryInner>,
    /// Cached slow-request threshold in ns; 0 until armed (see
    /// [`P99_ARM_COUNT`]). Hot-path reads are one relaxed load.
    p99_threshold_ns: AtomicU64,
}

impl Telemetry {
    fn new(cfg: &ServerConfig) -> Self {
        Telemetry {
            sample_ms: cfg.sample_ms,
            stream_shift: cfg.stream_shift,
            top_streams: cfg.top_streams.max(1),
            inner: Mutex::new(TelemetryInner {
                started: Instant::now(),
                prev: None,
                last_ms: 0,
                seq: 0,
                samples: VecDeque::new(),
                streams: BTreeMap::new(),
                overflow: StreamStats::default(),
                latency: Histogram::new(),
                window_latency: WindowedHistogram::new(LATENCY_WINDOWS),
                exemplars: VecDeque::new(),
                exemplar_seq: 0,
            }),
            p99_threshold_ns: AtomicU64::new(0),
        }
    }
}

impl TelemetryInner {
    /// The `top_streams` busiest streams plus an `other` rollup of
    /// everything else (untracked overflow included). `other` appears
    /// only when it saw traffic.
    fn top_streams(&self, k: usize) -> (Vec<(u64, StreamStats)>, StreamStats) {
        let mut all: Vec<(u64, StreamStats)> = self.streams.iter().map(|(k, v)| (*k, *v)).collect();
        all.sort_by(|a, b| b.1.ops().cmp(&a.1.ops()).then(a.0.cmp(&b.0)));
        let mut other = self.overflow;
        for (_, s) in all.iter().skip(k) {
            other.absorb(*s);
        }
        all.truncate(k);
        (all, other)
    }
}

/// State shared between the accept loop, connection threads, the
/// sampler and the handle.
struct Shared {
    system: Mutex<FidrSystem>,
    metrics: ServerMetrics,
    telemetry: Telemetry,
    stall: Option<StallFault>,
    stall_seq: AtomicU64,
    corrupt: Option<CorruptFault>,
    corrupt_seq: AtomicU64,
    /// The listener's shutdown flag and connection counts; the sampler
    /// watches the same flag, and a drain handoff sets it.
    listen: Arc<ListenState>,
    queue_capacity: usize,
    /// GC cadence in acked deletes (0 = server-driven GC disabled).
    gc_every: u64,
    /// Live-fraction threshold handed to `collect_garbage`.
    gc_threshold: f64,
    /// Acked deletes since the last cadence-triggered GC pass.
    deletes_since_gc: AtomicU64,
    /// This node's id in the cluster map (0 for a standalone server).
    node_id: u64,
    /// The cluster shard map this node last installed; `None` until a
    /// router pushes one (standalone servers never hold one). Lock order
    /// where the system lock is also needed: system first, map second.
    shard_map: Mutex<Option<ShardRouter>>,
    inflight: Mutex<Inflight>,
    inflight_cv: Condvar,
}

/// The admission queue's state, under one mutex.
#[derive(Default)]
struct Inflight {
    /// Frames admitted into the backend but not yet replied.
    frames: usize,
    /// Threads blocked in [`Shared::admit`]: a release only pays for a
    /// wake-up syscall when one is waiting.
    waiters: usize,
}

impl Shared {
    /// Blocks until an in-flight slot frees up (the backpressure point),
    /// then claims it.
    fn admit(&self) {
        let mut inflight = self.inflight.lock().expect("inflight lock");
        if inflight.frames >= self.queue_capacity {
            self.metrics.queue_waits.fetch_add(1, Ordering::Relaxed);
            inflight.waiters += 1;
            while inflight.frames >= self.queue_capacity {
                inflight = self
                    .inflight_cv
                    .wait(inflight)
                    .expect("inflight lock poisoned");
            }
            inflight.waiters -= 1;
        }
        inflight.frames += 1;
        self.metrics
            .queue_depth_max
            .fetch_max(inflight.frames as u64, Ordering::Relaxed);
    }

    fn release(&self) {
        let mut inflight = self.inflight.lock().expect("inflight lock");
        inflight.frames -= 1;
        let waiting = inflight.waiters > 0;
        drop(inflight);
        if waiting {
            self.inflight_cv.notify_one();
        }
    }

    fn queue_depth(&self) -> u64 {
        self.inflight.lock().expect("inflight lock").frames as u64
    }

    /// Opportunistic background dedup: whenever a connection read times
    /// out or the accept loop polls with nothing to do, re-process a
    /// bounded slice of the deferred cold-stream writes, so the queue
    /// drains during traffic lulls instead of piling up for the final
    /// flush. `try_lock` only — idle maintenance must never delay a live
    /// request; a scrub error is swallowed here and resurfaces on the
    /// next flush. A no-op unless [`FidrConfig::tiered`] is enabled.
    fn idle_scrub(&self) {
        const IDLE_SCRUB_LIMIT: usize = 256;
        if let Ok(mut system) = self.system.try_lock() {
            if system.deferred_pending() > 0 {
                if let Ok(n) = system.scrub_deferred(IDLE_SCRUB_LIMIT) {
                    self.metrics
                        .scrub_idle
                        .fetch_add(n as u64, Ordering::Relaxed);
                }
            }
            // Same lull, same rules, for garbage collection: reclaim
            // dead chunks while nobody is waiting. Errors are swallowed
            // here (a failed pass leaves the queue intact) and resurface
            // on the next explicit collection or read.
            if self.gc_every > 0 && system.pending_dead_chunks() > 0 {
                self.deletes_since_gc.store(0, Ordering::Relaxed);
                if system.collect_garbage(self.gc_threshold).is_ok() {
                    self.metrics.gc_passes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Cadence-triggered GC: after every [`ServerConfig::gc_every`]
    /// acked deletes, run a collection pass inline (the delete that
    /// tripped the cadence pays for the pass — deterministic pressure
    /// relief even when the server is never idle).
    fn maybe_gc(&self) {
        if self.gc_every == 0 {
            return;
        }
        let n = self.deletes_since_gc.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.gc_every {
            self.deletes_since_gc.store(0, Ordering::Relaxed);
            let mut system = self.system.lock().expect("system lock");
            if system.collect_garbage(self.gc_threshold).is_ok() {
                self.metrics.gc_passes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The full merged snapshot: backend pipeline metrics + `pool.*`
    /// wall-clock counters + `server.*` counters + per-stream rollups.
    /// The one shape both the drain export and the sampler observe. It
    /// settles the backend's open batch first, so a scrape sees what a
    /// read would.
    fn merged_metrics(&self) -> MetricsSnapshot {
        let mut system = self.system.lock().expect("system lock");
        // A failed commit stays open and the next op reports it.
        let _ = system.settle();
        let mut out = system.metrics();
        system.export_pool_metrics(&mut out);
        drop(system);
        self.metrics
            .export(&mut out, &self.listen, self.queue_depth());
        self.export_streams(&mut out);
        out
    }

    /// Per-stream (per-tenant) `server.stream.<id>.*` counters. Pure
    /// event counts keyed by a BTreeMap, so the export is deterministic
    /// — byte-stable across worker counts — as long as at most
    /// [`MAX_TRACKED_STREAMS`] streams appear (beyond that, which
    /// streams land in `other` depends on arrival order).
    fn export_streams(&self, out: &mut MetricsSnapshot) {
        let t = self.telemetry.inner.lock().expect("telemetry lock");
        for (id, s) in &t.streams {
            out.set_counter(&format!("server.stream.{id}.writes.count"), s.writes);
            out.set_counter(&format!("server.stream.{id}.reads.count"), s.reads);
            // Gated so delete-free workloads export byte-identically to
            // pre-lifecycle revisions.
            if s.deletes > 0 {
                out.set_counter(&format!("server.stream.{id}.deletes.count"), s.deletes);
            }
            out.set_counter(&format!("server.stream.{id}.bytes"), s.bytes);
        }
        if t.overflow.ops() > 0 {
            out.set_counter("server.stream.other.writes.count", t.overflow.writes);
            out.set_counter("server.stream.other.reads.count", t.overflow.reads);
            if t.overflow.deletes > 0 {
                out.set_counter("server.stream.other.deletes.count", t.overflow.deletes);
            }
            out.set_counter("server.stream.other.bytes", t.overflow.bytes);
        }
    }

    /// Test hook: sleeps on every `every`-th write when a
    /// [`StallFault`] is armed.
    fn maybe_stall(&self) {
        if let Some(stall) = self.stall {
            if stall.every > 0 {
                let n = self.stall_seq.fetch_add(1, Ordering::Relaxed) + 1;
                if n.is_multiple_of(stall.every) {
                    std::thread::sleep(Duration::from_millis(stall.millis));
                }
            }
        }
    }

    /// Test hook: flips the first byte of every `every`-th read reply
    /// when a [`CorruptFault`] is armed.
    fn maybe_corrupt(&self, data: &mut [u8]) {
        if let Some(corrupt) = self.corrupt {
            if corrupt.every > 0 && !data.is_empty() {
                let n = self.corrupt_seq.fetch_add(1, Ordering::Relaxed) + 1;
                if n.is_multiple_of(corrupt.every) {
                    data[0] ^= 0xff;
                }
            }
        }
    }

    /// Folds one served request into the telemetry plane: per-stream
    /// rollup, wall-clock latency, and — past the armed p99 threshold —
    /// a slow-request exemplar with the request's freshest tracer spans.
    fn record_op(&self, op: &'static str, lba: u64, bytes: u64, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let threshold = self.telemetry.p99_threshold_ns.load(Ordering::Relaxed);
        let slow = threshold > 0 && ns > threshold;
        // Span capture needs the system lock; take it *before* the
        // telemetry lock (the fixed lock order) and only on the rare
        // slow path.
        let spans = if slow {
            let system = self.system.lock().expect("system lock");
            system
                .tracer()
                .recent(EXEMPLAR_SPANS)
                .iter()
                .map(|s| (s.name, s.duration_ns()))
                .collect()
        } else {
            Vec::new()
        };
        let stream = lba >> self.telemetry.stream_shift;
        let mut t = self.telemetry.inner.lock().expect("telemetry lock");
        let slot = if t.streams.contains_key(&stream) || t.streams.len() < MAX_TRACKED_STREAMS {
            t.streams.entry(stream).or_default()
        } else {
            &mut t.overflow
        };
        match op {
            "write" => slot.writes += 1,
            "delete" => slot.deletes += 1,
            _ => slot.reads += 1,
        }
        slot.bytes += bytes;
        t.latency.record(ns);
        t.window_latency.record(ns);
        if slow {
            t.exemplar_seq += 1;
            let seq = t.exemplar_seq;
            t.exemplars.push_back(Exemplar {
                seq,
                op,
                lba,
                latency_ns: ns,
                threshold_ns: threshold,
                spans,
            });
            while t.exemplars.len() > EXEMPLAR_RING {
                t.exemplars.pop_front();
            }
        }
        let count = t.latency.count();
        if count >= P99_ARM_COUNT && (count == P99_ARM_COUNT || count.is_multiple_of(P99_REFRESH)) {
            let p99 = t.latency.percentile(0.99).unwrap_or(0).max(1);
            self.telemetry
                .p99_threshold_ns
                .store(p99, Ordering::Relaxed);
        }
    }

    /// One sampler tick: snapshot the merged metrics, push the delta
    /// sample into the ring, rotate the latency window.
    fn sample_tick(&self) {
        let cur = self.merged_metrics();
        let mut t = self.telemetry.inner.lock().expect("telemetry lock");
        let now_ms = t.started.elapsed().as_millis().min(u64::MAX as u128) as u64;
        t.seq += 1;
        let seq = t.seq;
        let empty = MetricsSnapshot::new();
        let prev = t.prev.as_ref().unwrap_or(&empty);
        let sample = build_sample(prev, &cur, seq, now_ms, t.last_ms);
        t.samples.push_back(sample);
        while t.samples.len() > SAMPLE_RING {
            t.samples.pop_front();
        }
        t.prev = Some(cur);
        t.last_ms = now_ms;
        t.window_latency.rotate();
    }

    /// Builds the body of a [`Message::StatsReply`] for `format`.
    fn stats_body(&self, format: StatsFormat) -> Vec<u8> {
        match format {
            StatsFormat::Json => self.timeseries_json().into_bytes(),
            StatsFormat::Prometheus => self.prometheus_text().into_bytes(),
        }
    }

    /// The `fidr.timeseries.v1` JSON document: headline window rates,
    /// cumulative totals, the sample ring, per-stream rollups and slow
    /// exemplars.
    fn timeseries_json(&self) -> String {
        let merged = self.merged_metrics();
        let t = self.telemetry.inner.lock().expect("telemetry lock");
        let window = t.window_latency.merged();
        let last = t.samples.back();
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{TIMESERIES_SCHEMA_ID}\",\n"));
        out.push_str(&format!(
            "  \"uptime_ms\": {},\n",
            t.started.elapsed().as_millis().min(u64::MAX as u128) as u64
        ));
        out.push_str(&format!("  \"sample_ms\": {},\n", self.telemetry.sample_ms));
        out.push_str(&format!(
            "  \"window\": {{ \"ops_per_sec\": {}, \"gbps\": {}, \"hit_ratio\": {}, \
             \"queue_depth\": {}, \"latency_p50_us\": {}, \"latency_p99_us\": {} }},\n",
            jf(last.map_or(0.0, |s| s.ops_per_sec)),
            jf(last.map_or(0.0, |s| s.gbps)),
            jf(last.map_or(0.0, |s| s.hit_ratio)),
            last.map_or(0, |s| s.queue_depth),
            jf(window.percentile(0.50).unwrap_or(0) as f64 / 1000.0),
            jf(window.percentile(0.99).unwrap_or(0) as f64 / 1000.0),
        ));
        out.push_str(&format!(
            "  \"totals\": {{ \"writes\": {}, \"reads\": {}, \"rx_bytes\": {}, \
             \"tx_bytes\": {}, \"dedup_ratio\": {}, \"deferred\": {} }},\n",
            merged.counter("server.ops.write.count").unwrap_or(0),
            merged.counter("server.ops.read.count").unwrap_or(0),
            merged.counter("server.rx.bytes").unwrap_or(0),
            merged.counter("server.tx.bytes").unwrap_or(0),
            jf(merged.gauge("reduction.dedup.ratio").unwrap_or(0.0)),
            merged.counter("dedup.deferred.pending").unwrap_or(0),
        ));
        out.push_str("  \"samples\": [");
        for (i, s) in t.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"seq\": {}, \"t_ms\": {}, \"dt_ms\": {}, \"writes\": {}, \
                 \"reads\": {}, \"rx_bytes\": {}, \"tx_bytes\": {}, \"ops_per_sec\": {}, \
                 \"gbps\": {}, \"hit_ratio\": {}, \"queue_depth\": {}, \"dedup_ratio\": {}, \
                 \"deferred\": {} }}",
                s.seq,
                s.t_ms,
                s.dt_ms,
                s.writes,
                s.reads,
                s.rx_bytes,
                s.tx_bytes,
                jf(s.ops_per_sec),
                jf(s.gbps),
                jf(s.hit_ratio),
                s.queue_depth,
                jf(s.dedup_ratio),
                s.deferred,
            ));
        }
        if !t.samples.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        let (top, other) = t.top_streams(self.telemetry.top_streams);
        out.push_str("  \"streams\": [");
        let mut first = true;
        let push_stream = |out: &mut String, id: &str, s: &StreamStats, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&format!(
                "\n    {{ \"id\": \"{id}\", \"writes\": {}, \"reads\": {}, \"bytes\": {} }}",
                s.writes, s.reads, s.bytes
            ));
        };
        for (id, s) in &top {
            push_stream(&mut out, &id.to_string(), s, &mut first);
        }
        if other.ops() > 0 {
            push_stream(&mut out, "other", &other, &mut first);
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"exemplars\": [");
        for (i, e) in t.exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let spans = e
                .spans
                .iter()
                .map(|(name, ns)| format!("{{ \"name\": \"{name}\", \"dur_ns\": {ns} }}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "\n    {{ \"seq\": {}, \"op\": \"{}\", \"lba\": {}, \"latency_us\": {}, \
                 \"threshold_us\": {}, \"spans\": [{spans}] }}",
                e.seq,
                e.op,
                e.lba,
                jf(e.latency_ns as f64 / 1000.0),
                jf(e.threshold_ns as f64 / 1000.0),
            ));
        }
        if !t.exemplars.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Prometheus text exposition of the merged snapshot plus the
    /// telemetry-plane extras: windowed rate gauges, the windowed
    /// latency summary, the exemplar count, and labeled per-stream
    /// series (labels cannot ride through [`MetricsSnapshot`], so those
    /// lines are appended directly).
    fn prometheus_text(&self) -> String {
        let mut merged = self.merged_metrics();
        let t = self.telemetry.inner.lock().expect("telemetry lock");
        let last = t.samples.back();
        merged.set_gauge(
            "server.window.ops.rate",
            last.map_or(0.0, |s| s.ops_per_sec),
        );
        merged.set_gauge(
            "server.window.throughput.gbps",
            last.map_or(0.0, |s| s.gbps),
        );
        merged.set_gauge("server.window.hit.ratio", last.map_or(0.0, |s| s.hit_ratio));
        merged.set_histogram("server.window.latency.ns", &t.window_latency.merged());
        merged.set_gauge("server.slow.exemplars", t.exemplars.len() as f64);
        let mut out = to_prometheus_text(&merged);
        let (top, other) = t.top_streams(self.telemetry.top_streams);
        if !top.is_empty() || other.ops() > 0 {
            for (family, pick) in [("writes", 0usize), ("reads", 1), ("bytes", 2)] {
                out.push_str(&format!("# TYPE fidr_server_stream_{family} counter\n"));
                let value = |s: &StreamStats| match pick {
                    0 => s.writes,
                    1 => s.reads,
                    _ => s.bytes,
                };
                for (id, s) in &top {
                    out.push_str(&format!(
                        "fidr_server_stream_{family}{{stream=\"{id}\"}} {}\n",
                        value(s)
                    ));
                }
                if other.ops() > 0 {
                    out.push_str(&format!(
                        "fidr_server_stream_{family}{{stream=\"other\"}} {}\n",
                        value(&other)
                    ));
                }
            }
        }
        out
    }
}

/// Builds one sampler ring entry from consecutive merged snapshots.
///
/// A pure function of its inputs so the degenerate cases are unit
/// testable: coarse clocks can deliver `now_ms == last_ms` (two ticks
/// inside one millisecond tick of the OS clock), and a zero-width
/// window would zero every rate the sample carries. The window is
/// therefore clamped to the clock's 1 ms resolution — the delta really
/// did take *at most* that long.
fn build_sample(
    prev: &MetricsSnapshot,
    cur: &MetricsSnapshot,
    seq: u64,
    now_ms: u64,
    last_ms: u64,
) -> TimeSample {
    let dt_ms = now_ms.saturating_sub(last_ms).max(1);
    let writes = counter_delta(prev, cur, "server.ops.write.count");
    let reads = counter_delta(prev, cur, "server.ops.read.count");
    let rx_bytes = counter_delta(prev, cur, "server.rx.bytes");
    let tx_bytes = counter_delta(prev, cur, "server.tx.bytes");
    let hits = counter_delta(prev, cur, "cache.hits.count");
    let misses = counter_delta(prev, cur, "cache.misses.count");
    TimeSample {
        seq,
        t_ms: now_ms,
        dt_ms,
        writes,
        reads,
        rx_bytes,
        tx_bytes,
        ops_per_sec: rate_per_sec(writes + reads, dt_ms),
        gbps: rate_per_sec(rx_bytes + tx_bytes, dt_ms) / 1e9,
        hit_ratio: ratio(hits, hits + misses),
        queue_depth: cur.gauge("server.queue.depth.count").unwrap_or(0.0) as u64,
        dedup_ratio: cur.gauge("reduction.dedup.ratio").unwrap_or(0.0),
        deferred: cur.counter("dedup.deferred.pending").unwrap_or(0),
    }
}

/// Formats an `f64` for the timeseries JSON: finite `Display` output
/// (never an exponent), 0.0 for non-finite values so the document
/// always parses.
fn jf(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Atomically publishes a server's bound address to `path`.
///
/// The bytes land in a same-directory temp file first and reach `path`
/// only via `rename(2)`, so a reader polling the path can never observe
/// a partially written or empty file — it either does not exist yet or
/// holds the whole `host:port\n` line. (The client side still retries
/// on unparsable contents, for port files written by older servers.)
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn write_port_file(path: &Path, addr: SocketAddr) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".{}.tmp", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, format!("{addr}\n"))?;
    std::fs::rename(&tmp, path)
}

/// The serving front end. [`Server::spawn`] binds, starts the accept
/// loop and returns a [`ServerHandle`].
pub struct Server;

/// Handle to a running [`Server`]: address, live metrics, and the two
/// ways it ends ([`shutdown`](ServerHandle::shutdown) /
/// [`wait`](ServerHandle::wait)).
pub struct ServerHandle {
    listener: Listener,
    shared: Arc<Shared>,
    sampler_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, spawns the accept loop (and, unless
    /// [`ServerConfig::sample_ms`] is 0, the telemetry sampler) and
    /// returns the handle.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let shared = Arc::new(Shared {
            system: Mutex::new(FidrSystem::new(cfg.system.clone())),
            metrics: ServerMetrics::default(),
            telemetry: Telemetry::new(&cfg),
            stall: cfg.stall,
            stall_seq: AtomicU64::new(0),
            corrupt: cfg.corrupt,
            corrupt_seq: AtomicU64::new(0),
            listen: Arc::default(),
            queue_capacity: cfg.queue_capacity.max(1),
            gc_every: cfg.gc_every,
            gc_threshold: cfg.gc_threshold,
            deletes_since_gc: AtomicU64::new(0),
            node_id: cfg.node_id,
            shard_map: Mutex::new(None),
            inflight: Mutex::default(),
            inflight_cv: Condvar::new(),
        });
        let (idle_shared, conn_shared) = (Arc::clone(&shared), Arc::clone(&shared));
        let listener = Listener::spawn(
            cfg.addr,
            cfg.conns_limit,
            Arc::clone(&shared.listen),
            move || idle_shared.idle_scrub(),
            move |stream| serve_connection(&conn_shared, stream),
        )?;
        let sampler_thread = (cfg.sample_ms > 0).then(|| {
            let sampler_shared = Arc::clone(&shared);
            let sample_ms = cfg.sample_ms;
            std::thread::spawn(move || sampler_loop(&sampler_shared, sample_ms))
        });
        Ok(ServerHandle {
            listener,
            shared,
            sampler_thread,
        })
    }
}

/// The telemetry sampler: ticks every `sample_ms` until shutdown,
/// polling often enough that drain never waits a full sample period.
fn sampler_loop(shared: &Arc<Shared>, sample_ms: u64) {
    let tick = Duration::from_millis(sample_ms);
    let poll = Duration::from_millis(sample_ms.clamp(1, 25));
    let mut last = Instant::now();
    while !shared.listen.shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(poll);
        if last.elapsed() >= tick {
            shared.sample_tick();
            last = Instant::now();
        }
    }
}

/// Runs one connection to completion and counts how it ended: clean
/// (the peer closed at a frame boundary, or went quiet during a drain)
/// or in error (protocol violation, mid-frame disconnect, IO error,
/// backend failure).
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let m = &shared.metrics;
    let clean = FrameConn::accepted(stream).is_ok_and(|mut conn| serve_frames(shared, &mut conn));
    let closed = if clean {
        &m.connections_closed_clean
    } else {
        &m.connections_closed_error
    };
    closed.fetch_add(1, Ordering::Relaxed);
}

/// Receive → serve → reply until the connection ends; `true` when it
/// ended cleanly.
fn serve_frames(shared: &Arc<Shared>, conn: &mut FrameConn<TcpStream>) -> bool {
    let m = &shared.metrics;
    let mut rx_counted = 0;
    loop {
        let received = conn.recv();
        m.rx_bytes
            .fetch_add(conn.rx_bytes() - rx_counted, Ordering::Relaxed);
        rx_counted = conn.rx_bytes();
        match received {
            Ok(Recv::Frame(msg)) => {
                m.frames_decoded.fetch_add(1, Ordering::Relaxed);
                if !serve_frame(shared, conn, msg) {
                    return false;
                }
            }
            Ok(Recv::Idle) => {
                if shared.listen.shutdown.load(Ordering::Relaxed) {
                    // Drain: the peer went quiet and the server is
                    // leaving; no frame is in flight at this point.
                    return true;
                }
                // The peer is between requests: use the lull for
                // deferred-dedup scrubbing.
                shared.idle_scrub();
            }
            Ok(Recv::Closed) => return true,
            // A socket error just ends the connection.
            Err(ClientError::Io(_)) => return false,
            Err(_) => {
                // Bad opcode / hostile length, or the peer died
                // mid-frame: the stream has no recoverable frame
                // boundary. Close only this connection.
                m.frames_rejected.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
    }
}

/// Admits one decoded frame through the bounded queue, applies it to the
/// shared system and writes the reply. Returns `false` when the
/// connection must close (semantic violation, backend error, dead peer).
fn serve_frame(shared: &Arc<Shared>, conn: &mut FrameConn<TcpStream>, msg: Message) -> bool {
    let mut drain_after = false;
    let reply = match msg {
        Message::Write { lba, data } => {
            let started = Instant::now();
            let bytes = data.len() as u64;
            shared.maybe_stall();
            shared.admit();
            let outcome = apply_write(shared, lba, data);
            shared.release();
            match outcome {
                Ok(()) => {
                    shared.metrics.ops_write.fetch_add(1, Ordering::Relaxed);
                    shared.record_op("write", lba.0, bytes, started.elapsed());
                    Message::WriteAck { lba }
                }
                Err(_) => {
                    shared.metrics.ops_failed.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        Message::Read { lba } => {
            let started = Instant::now();
            shared.admit();
            let outcome = {
                let mut system = shared.system.lock().expect("system lock");
                system.read(lba)
            };
            shared.release();
            match outcome {
                Ok(mut data) => {
                    shared.metrics.ops_read.fetch_add(1, Ordering::Relaxed);
                    shared.record_op("read", lba.0, data.len() as u64, started.elapsed());
                    shared.maybe_corrupt(&mut data);
                    Message::ReadReply {
                        lba,
                        data: Bytes::from(data),
                    }
                }
                Err(_) => {
                    shared.metrics.ops_failed.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        Message::Delete { lba } => {
            let started = Instant::now();
            shared.admit();
            let outcome = {
                let mut system = shared.system.lock().expect("system lock");
                system.delete(lba)
            };
            shared.release();
            match outcome {
                Ok(()) => {
                    shared.metrics.ops_delete.fetch_add(1, Ordering::Relaxed);
                    shared.record_op("delete", lba.0, 0, started.elapsed());
                    // Cadence-triggered collection happens after the ack
                    // path is decided but before the reply is written, so
                    // an acked delete's space is reclaimable by the time
                    // the client sees the ack.
                    shared.maybe_gc();
                    Message::DeleteAck { lba }
                }
                // Deleting an unmapped LBA is a protocol-level failure,
                // same contract as reading one: close the connection.
                Err(_) => {
                    shared.metrics.ops_failed.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        // In-band scrape: served outside the admission queue (telemetry
        // must stay readable while the backend is saturated — the whole
        // point of scraping without draining).
        Message::StatsRequest { format } => {
            shared.metrics.ops_stats.fetch_add(1, Ordering::Relaxed);
            Message::StatsReply {
                format,
                body: Bytes::from(shared.stats_body(format)),
            }
        }
        // Cluster membership: fetch / install / drain-with-handoff
        // against this node's shard map. Served outside the admission
        // queue like a stats scrape, but an *install* takes the system
        // lock while it rehomes blocks.
        Message::ShardMapRequest { action, map } => {
            shared.metrics.ops_shardmap.fetch_add(1, Ordering::Relaxed);
            match serve_shard_map(shared, action, &map) {
                Some(reply) => {
                    drain_after = action == ShardMapAction::Drain;
                    reply
                }
                // Undecodable / stale / inconsistent map: refuse by
                // closing; the router treats no-ack as failure.
                None => return false,
            }
        }
        // Server-only opcodes arriving *at* the server are a semantic
        // violation even though they framed correctly.
        Message::WriteAck { .. }
        | Message::ReadReply { .. }
        | Message::DeleteAck { .. }
        | Message::StatsReply { .. }
        | Message::ShardMapReply { .. } => {
            shared
                .metrics
                .frames_unexpected
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
    };
    // An encode failure is unreachable for replies we build (reads
    // return one chunk), but a protocol bound must not panic the
    // connection thread; a dead peer fails the write.
    let Ok(sent) = conn.send(&reply) else {
        return false;
    };
    shared
        .metrics
        .tx_bytes
        .fetch_add(sent as u64, Ordering::Relaxed);
    if drain_after {
        // The handoff is acked; ride the existing graceful-drain path
        // (accept loop stops, connections wind down, handle.wait()
        // flushes and exports).
        shared.listen.shutdown.store(true, Ordering::Relaxed);
    }
    true
}

/// Serves one [`Message::ShardMapRequest`]. Returns the reply to send,
/// or `None` when the request must be refused (bad document, stale
/// generation, or a drain map that still lists this node).
fn serve_shard_map(shared: &Arc<Shared>, action: ShardMapAction, map: &[u8]) -> Option<Message> {
    let current_reply = |held: &Option<ShardRouter>| {
        let (generation, doc) = match held {
            Some(m) => (m.generation(), m.encode()),
            // No map installed: answer with an empty generation-0
            // document so a Get against a standalone node is well-formed.
            None => {
                let empty = ShardRouter::new(fidr_nic::shard::DEFAULT_VNODES)
                    .expect("default vnodes is nonzero");
                (0, empty.encode())
            }
        };
        Message::ShardMapReply {
            generation,
            map: Bytes::from(doc),
        }
    };
    if action == ShardMapAction::Get {
        let held = shared.shard_map.lock().expect("shard map lock");
        return Some(current_reply(&held));
    }
    let text = std::str::from_utf8(map).ok()?;
    let incoming = ShardRouter::decode(text).ok()?;
    {
        let held = shared.shard_map.lock().expect("shard map lock");
        if let Some(cur) = held.as_ref() {
            // Never step a node's view of the cluster backwards.
            if incoming.generation() < cur.generation() {
                return None;
            }
        }
    }
    // A drain means "you are out": the new map must not list us.
    if action == ShardMapAction::Drain && incoming.node(shared.node_id).is_some() {
        return None;
    }
    // Rehome before installing or acking: when the ack reaches the
    // router every block this node must give up is already durable —
    // and acked — at its new owner. Zero acked-write loss.
    if rehome_blocks(shared, &incoming).is_err() {
        return None;
    }
    let mut held = shared.shard_map.lock().expect("shard map lock");
    *held = Some(incoming);
    Some(current_reply(&held))
}

/// Pushes every resident block this node no longer owns under `map` to
/// its new owner, as ordinary acked writes over the wire, then deletes
/// the source copy — only *after* the destination acked, so every block
/// is durable at its new owner before the old copy goes away and the
/// dead chunks' space is reclaimable by the next GC pass. Returns the
/// number of blocks moved.
///
/// Traffic to this node is assumed quiesced by the router (it removes
/// the node from the routing map before issuing the install), so the
/// enumerate-read-forward-delete sequence cannot race new writes.
fn rehome_blocks(shared: &Arc<Shared>, map: &ShardRouter) -> Result<u64, FidrError> {
    // Collect the moved blocks under the system lock...
    let mut outbound: Vec<(fidr_chunk::Lba, SocketAddr, Vec<u8>)> = Vec::new();
    {
        let mut system = shared.system.lock().expect("system lock");
        // Writes batched in the NIC buffer (and deferred-dedup debt)
        // have not reached the LBA map yet; flush first so the
        // enumeration below sees *every* acked write.
        system.flush()?;
        for lba in system.mapped_lbas() {
            let owner = match map.node_for_lba(lba) {
                Some(node) => node,
                // Empty map (last node leaving): nowhere to hand off.
                None => continue,
            };
            if owner.id == shared.node_id {
                continue;
            }
            let addr = owner
                .socket_addr()
                .map_err(|e| FidrError::Io(format!("rehome: {e}")))?;
            let data = system.read(lba)?;
            outbound.push((lba, addr, data));
        }
    }
    // ...then forward them with the lock dropped, one connection per
    // destination, in LBA order (mapped_lbas is sorted), waiting for
    // each ack.
    let mut conns: BTreeMap<SocketAddr, StorageClient> = BTreeMap::new();
    let moved = outbound.len() as u64;
    let mut acked: Vec<fidr_chunk::Lba> = Vec::with_capacity(outbound.len());
    for (lba, addr, data) in outbound {
        let io = |e: ClientError| FidrError::Io(format!("rehome to {addr}: {e}"));
        let conn = match conns.entry(addr) {
            Entry::Occupied(held) => held.into_mut(),
            Entry::Vacant(slot) => slot.insert(StorageClient::connect(addr).map_err(io)?),
        };
        conn.write(lba, Bytes::from(data)).map_err(io)?;
        acked.push(lba);
    }
    // Reclamation: every block in `acked` is durable at its new owner,
    // so the local copy is garbage. Unmap them all; the dead chunks
    // queue for the next GC pass. A failed forward above leaves every
    // local copy in place (the map is then not installed either).
    let reclaimed = acked.len() as u64;
    if !acked.is_empty() {
        let mut system = shared.system.lock().expect("system lock");
        for lba in acked {
            system.delete(lba)?;
        }
    }
    shared
        .metrics
        .shard_rehome
        .fetch_add(moved, Ordering::Relaxed);
    shared
        .metrics
        .shard_reclaimed
        .fetch_add(reclaimed, Ordering::Relaxed);
    Ok(moved)
}

/// Applies one write frame: a single 4-KiB chunk goes through
/// [`FidrSystem::write`]; a larger multiple-of-4-KiB payload is chunked
/// by [`FidrSystem::write_request`]; anything ragged is rejected.
fn apply_write(shared: &Arc<Shared>, lba: fidr_chunk::Lba, data: Bytes) -> Result<(), FidrError> {
    let mut system = shared.system.lock().expect("system lock");
    if data.len() == BUCKET_BYTES {
        system.write(lba, data)
    } else {
        system.write_request(lba, data).map(|_chunks| ())
    }
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Live `fidr.metrics.v1` snapshot: the backend's full pipeline
    /// metrics plus the `server.*` counters and — serve opts in, the
    /// deterministic core export does not — the `pool.*` wall-clock
    /// counters of the persistent worker pool.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.merged_metrics()
    }

    /// In-process scrape: the same bytes a [`Message::StatsRequest`]
    /// over the wire returns (`fidr.timeseries.v1` JSON or Prometheus
    /// text).
    pub fn scrape(&self, format: StatsFormat) -> Vec<u8> {
        self.shared.stats_body(format)
    }

    /// Graceful shutdown: stop accepting, let every connection finish
    /// its in-flight frame and close, flush the backend (drain the NIC,
    /// seal the open container, flush dirty cache lines) and return the
    /// final metrics snapshot.
    ///
    /// # Errors
    ///
    /// Propagates a backend flush failure (the snapshot is still
    /// retrievable via [`ServerHandle::metrics`] afterwards).
    pub fn shutdown(self) -> Result<MetricsSnapshot, FidrError> {
        self.shared.listen.shutdown.store(true, Ordering::Relaxed);
        self.wait()
    }

    /// Blocks until the configured
    /// [`conns_limit`](ServerConfig::conns_limit) auto-drain triggers
    /// (or a [`shutdown`](ServerHandle::shutdown) from another handle —
    /// with no limit and no shutdown this never returns), then drains
    /// exactly like [`shutdown`](ServerHandle::shutdown).
    ///
    /// # Errors
    ///
    /// Propagates a backend flush failure.
    pub fn wait(mut self) -> Result<MetricsSnapshot, FidrError> {
        // Joining the listener leaves the shutdown flag set, which is
        // what stops the sampler.
        self.listener.join();
        if let Some(sampler) = self.sampler_thread.take() {
            sampler.join().expect("sampler thread panicked");
        }
        self.shared.system.lock().expect("system lock").flush()?;
        Ok(self.shared.merged_metrics())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // The listener stops and joins its own threads when it drops;
        // the sampler is ours not to leak.
        self.shared.listen.shutdown.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler_thread.take() {
            let _ = sampler.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test for the zero-width sampler window: under a
    /// coarse clock two ticks can land in the same millisecond
    /// (`now_ms == last_ms`), and the pre-fix
    /// `now_ms.saturating_sub(last_ms)` then zeroed `dt_ms`, which
    /// zeroed every rate in the sample. The window must clamp to the
    /// clock's 1 ms resolution instead.
    #[test]
    fn degenerate_sampler_tick_clamps_to_one_millisecond() {
        let prev = MetricsSnapshot::new();
        let mut cur = MetricsSnapshot::new();
        cur.set_counter("server.ops.write.count", 500);
        cur.set_counter("server.rx.bytes", 1_000_000);
        let s = build_sample(&prev, &cur, 1, 1234, 1234);
        assert_eq!(s.dt_ms, 1, "zero-width window must clamp to 1 ms");
        assert_eq!(s.writes, 500);
        // 500 ops in (at most) 1 ms is 500k ops/s — not zero, not NaN.
        assert_eq!(s.ops_per_sec, 500_000.0);
        assert!(s.gbps > 0.0);
        // A clock running backwards (suspend/resume) degenerates the
        // same way.
        assert_eq!(build_sample(&prev, &cur, 2, 100, 200).dt_ms, 1);
        // An ordinary tick is untouched.
        assert_eq!(build_sample(&prev, &cur, 3, 2000, 1000).dt_ms, 1000);
    }

    /// Regression test for the port-file handoff race: the address must
    /// appear at the final path atomically (write + rename), so a
    /// polling reader can never see a partial or empty file.
    #[test]
    fn port_file_appears_atomically_and_parses() {
        let dir = std::env::temp_dir().join(format!("fidr-portfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.port");
        let addr: SocketAddr = "127.0.0.1:4567".parse().unwrap();
        write_port_file(&path, addr).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "127.0.0.1:4567\n");
        assert_eq!(contents.trim().parse::<SocketAddr>().unwrap(), addr);
        // Republishing (a restarted server reusing the path) replaces
        // the file whole, and leaves no temp droppings behind.
        let addr2: SocketAddr = "127.0.0.1:8901".parse().unwrap();
        write_port_file(&path, addr2).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap().trim(),
            "127.0.0.1:8901"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "server.port")
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
