//! Library client for the TCP storage front-end: the other half of the
//! paper's two-machine deployment (§6.2).
//!
//! [`StorageClient`] speaks the write-wait-ack / read-wait-reply flow of
//! [`fidr_nic::protocol`] over one TCP connection, a
//! [`crate::net::FrameConn`] like the one the server holds at the other
//! end. [`ClusterClient`] fans the same API out across a sharded serving
//! fleet, routing every block through a [`ShardRouter`].
//! [`run_traffic`] drives N concurrent devices of interleaved
//! write/read/verify traffic — the harness both the `fidr client`
//! subcommand and the loopback CI smoke test use —
//! [`run_open_loop`] drives the multi-tenant Poisson/Zipf serving shape
//! of [`fidr_workload::OpenLoopSchedule`], and [`run_verify`] re-reads
//! everything such a schedule wrote, proving zero acked-write loss
//! across topology changes.

use crate::net::{FrameConn, Recv};
use bytes::Bytes;
use fidr_chunk::Lba;
use fidr_compress::ContentGenerator;
use fidr_nic::protocol::{Message, ProtocolError, ShardMapAction, StatsFormat};
use fidr_nic::{ShardMapError, ShardRouter};
use fidr_workload::{
    churn_tag, content_tag, ChurnKind, ChurnSchedule, ChurnSpec, OpenLoopKind, OpenLoopSchedule,
    OpenLoopSpec,
};
use std::collections::BTreeMap;
use std::fmt;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Errors a client session can hit.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent bytes that do not frame.
    Protocol(ProtocolError),
    /// The server closed the connection before replying.
    Disconnected,
    /// A well-formed reply that does not answer the pending request.
    UnexpectedReply(Message),
    /// A shard-map document that does not decode, or a ring with no
    /// nodes to route to.
    NoRoute(String),
    /// Reads came back with contents that do not match what was
    /// written ([`TrafficReport::ensure_verified`]).
    VerifyFailed {
        /// Reads whose payload was wrong.
        failures: u64,
        /// Total reads performed.
        reads: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::UnexpectedReply(m) => write!(f, "unexpected reply {m:?}"),
            ClientError::NoRoute(why) => write!(f, "no route: {why}"),
            ClientError::VerifyFailed { failures, reads } => write!(
                f,
                "VERIFY FAILED: {failures} of {reads} reads returned data that does not \
                 match what was written"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<ShardMapError> for ClientError {
    fn from(e: ShardMapError) -> Self {
        ClientError::NoRoute(e.to_string())
    }
}

/// One client connection with synchronous request/reply semantics.
pub struct StorageClient {
    conn: FrameConn<TcpStream>,
}

impl StorageClient {
    /// Connects to a serving front end.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(StorageClient {
            conn: FrameConn::new(stream),
        })
    }

    /// Sends `request` and blocks until the next whole reply frame.
    fn request(&mut self, request: &Message) -> Result<Message, ClientError> {
        self.conn.send(request)?;
        loop {
            match self.conn.recv()? {
                Recv::Frame(reply) => return Ok(reply),
                // Only a stream with a read timeout idles; keep waiting.
                Recv::Idle => {}
                Recv::Closed => return Err(ClientError::Disconnected),
            }
        }
    }

    /// Writes `data` at `lba` and waits for the acknowledgment
    /// (write-wait-ack, §6.2).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; [`ClientError::UnexpectedReply`] if the ack
    /// names a different LBA.
    pub fn write(&mut self, lba: Lba, data: Bytes) -> Result<(), ClientError> {
        match self.request(&Message::Write { lba, data })? {
            Message::WriteAck { lba: acked } if acked == lba => Ok(()),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }

    /// Reads the block at `lba` (read-wait-ack-with-data, §6.2).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; [`ClientError::UnexpectedReply`] if the
    /// reply names a different LBA.
    pub fn read(&mut self, lba: Lba) -> Result<Vec<u8>, ClientError> {
        match self.request(&Message::Read { lba })? {
            Message::ReadReply { lba: got, data } if got == lba => Ok(data.to_vec()),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }

    /// Deletes the block at `lba` and waits for the acknowledgment
    /// (delete-wait-ack).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; [`ClientError::UnexpectedReply`] if the ack
    /// names a different LBA. Deleting an unmapped LBA is refused by
    /// the server closing the connection, which surfaces as
    /// [`ClientError::Disconnected`].
    pub fn delete(&mut self, lba: Lba) -> Result<(), ClientError> {
        match self.request(&Message::Delete { lba })? {
            Message::DeleteAck { lba: acked } if acked == lba => Ok(()),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }

    /// Scrapes the server's live telemetry in-band: sends a
    /// [`Message::StatsRequest`] and returns the reply body
    /// (`fidr.timeseries.v1` JSON or Prometheus text, by `format`).
    /// Works mid-traffic on the same connection — no drain required.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; [`ClientError::UnexpectedReply`] if the
    /// reply's format does not echo the request's.
    pub fn scrape(&mut self, format: StatsFormat) -> Result<Bytes, ClientError> {
        match self.request(&Message::StatsRequest { format })? {
            Message::StatsReply { format: got, body } if got == format => Ok(body),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }

    /// Sends a [`Message::ShardMapRequest`] and returns the node's
    /// reply: its current map generation and encoded `fidr.shardmap.v1`
    /// document. `map` must be empty for [`ShardMapAction::Get`] and an
    /// encoded map for the install actions.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; a node refuses a bad or stale install by
    /// closing the connection, which surfaces as
    /// [`ClientError::Disconnected`].
    pub fn shard_map(
        &mut self,
        action: ShardMapAction,
        map: &str,
    ) -> Result<(u64, String), ClientError> {
        let request = Message::ShardMapRequest {
            action,
            map: Bytes::from(map.to_string()),
        };
        match self.request(&request)? {
            Message::ShardMapReply { generation, map } => {
                Ok((generation, String::from_utf8_lossy(&map).into_owned()))
            }
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }
}

/// Reads a server's `--port-file`, retrying with backoff until the file
/// exists *and* parses as a socket address, up to `timeout`.
///
/// The server side publishes the file atomically
/// ([`crate::server::write_port_file`]), but a reader may still start
/// before the file exists at all — and port files written by older
/// servers can transiently be empty or partial — so the client side
/// retries on *any* unreadable or unparsable contents rather than
/// trusting its first glimpse.
///
/// # Errors
///
/// `TimedOut` when no parsable address appeared within `timeout`.
pub fn read_port_file(path: &Path, timeout: Duration) -> std::io::Result<SocketAddr> {
    let deadline = Instant::now() + timeout;
    let mut backoff = Duration::from_millis(2);
    loop {
        if let Ok(contents) = std::fs::read_to_string(path) {
            if let Ok(addr) = contents.trim().parse::<SocketAddr>() {
                return Ok(addr);
            }
        }
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!(
                    "no parsable address at {} within {timeout:?}",
                    path.display()
                ),
            ));
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_millis(100));
    }
}

/// The block-device face shared by [`StorageClient`] (one node) and
/// [`ClusterClient`] (a sharded fleet): the traffic and verification
/// harnesses drive either through this, which is how "fan-out vs
/// single-node produce identical contents" gets tested with one code
/// path.
pub trait BlockDevice {
    /// Writes `data` at `lba`, waiting for the acknowledgment.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    fn write_block(&mut self, lba: Lba, data: Bytes) -> Result<(), ClientError>;

    /// Reads the block at `lba`.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    fn read_block(&mut self, lba: Lba) -> Result<Vec<u8>, ClientError>;

    /// Deletes the block at `lba`, waiting for the acknowledgment.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    fn delete_block(&mut self, lba: Lba) -> Result<(), ClientError>;
}

impl BlockDevice for StorageClient {
    fn write_block(&mut self, lba: Lba, data: Bytes) -> Result<(), ClientError> {
        self.write(lba, data)
    }

    fn read_block(&mut self, lba: Lba) -> Result<Vec<u8>, ClientError> {
        self.read(lba)
    }

    fn delete_block(&mut self, lba: Lba) -> Result<(), ClientError> {
        self.delete(lba)
    }
}

/// A sharded-fleet client: one connection per serving node, every
/// block routed to its owner by a [`ShardRouter`]. The same
/// write-wait-ack semantics as [`StorageClient`], fanned out.
pub struct ClusterClient {
    router: ShardRouter,
    conns: BTreeMap<u64, StorageClient>,
}

impl ClusterClient {
    /// Connects to every node in `router`'s map.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoRoute`] on an empty map; otherwise the first
    /// connect failure.
    pub fn connect(router: ShardRouter) -> Result<Self, ClientError> {
        if router.nodes().is_empty() {
            return Err(ClientError::NoRoute("shard map has no nodes".into()));
        }
        let mut conns = BTreeMap::new();
        for node in router.nodes() {
            conns.insert(node.id, StorageClient::connect(node.socket_addr()?)?);
        }
        Ok(ClusterClient { router, conns })
    }

    /// The routing map this client fans out over.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    fn conn_for(&mut self, lba: Lba) -> Result<&mut StorageClient, ClientError> {
        let id = self
            .router
            .node_for_lba(lba)
            .ok_or_else(|| ClientError::NoRoute("empty ring".into()))?
            .id;
        self.conns
            .get_mut(&id)
            .ok_or_else(|| ClientError::NoRoute(format!("no connection to node {id}")))
    }

    /// Writes `data` at `lba` on the owning node (write-wait-ack).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn write(&mut self, lba: Lba, data: Bytes) -> Result<(), ClientError> {
        self.conn_for(lba)?.write(lba, data)
    }

    /// Reads the block at `lba` from the owning node.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn read(&mut self, lba: Lba) -> Result<Vec<u8>, ClientError> {
        self.conn_for(lba)?.read(lba)
    }

    /// Deletes the block at `lba` on the owning node (delete-wait-ack):
    /// the shard map routes deletes exactly as it routes the writes
    /// that created the block.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn delete(&mut self, lba: Lba) -> Result<(), ClientError> {
        self.conn_for(lba)?.delete(lba)
    }

    /// Scrapes every node's live telemetry, keyed by node id.
    ///
    /// # Errors
    ///
    /// The first scrape failure.
    pub fn scrape_all(&mut self, format: StatsFormat) -> Result<BTreeMap<u64, Bytes>, ClientError> {
        let mut out = BTreeMap::new();
        for (id, conn) in &mut self.conns {
            out.insert(*id, conn.scrape(format)?);
        }
        Ok(out)
    }
}

impl BlockDevice for ClusterClient {
    fn write_block(&mut self, lba: Lba, data: Bytes) -> Result<(), ClientError> {
        self.write(lba, data)
    }

    fn read_block(&mut self, lba: Lba) -> Result<Vec<u8>, ClientError> {
        self.read(lba)
    }

    fn delete_block(&mut self, lba: Lba) -> Result<(), ClientError> {
        self.delete(lba)
    }
}

/// A boxed device drives like the device inside it, so one factory can
/// hand the harnesses either topology.
impl BlockDevice for Box<dyn BlockDevice + Send> {
    fn write_block(&mut self, lba: Lba, data: Bytes) -> Result<(), ClientError> {
        (**self).write_block(lba, data)
    }

    fn read_block(&mut self, lba: Lba) -> Result<Vec<u8>, ClientError> {
        (**self).read_block(lba)
    }

    fn delete_block(&mut self, lba: Lba) -> Result<(), ClientError> {
        (**self).delete_block(lba)
    }
}

/// Outcome of one traffic or verification drive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Write ops acknowledged.
    pub writes: u64,
    /// Read ops answered.
    pub reads: u64,
    /// Delete ops acknowledged.
    pub deletes: u64,
    /// Reads whose payload did not match what this client wrote there.
    pub verify_failures: u64,
}

impl TrafficReport {
    /// Folds another report (a worker's, or another node's) into this
    /// one.
    pub fn merge(&mut self, other: TrafficReport) {
        self.writes += other.writes;
        self.reads += other.reads;
        self.deletes += other.deletes;
        self.verify_failures += other.verify_failures;
    }

    /// Promotes verify failures from a counter to a hard error: returns
    /// the report unchanged when every read verified, and
    /// [`ClientError::VerifyFailed`] otherwise. Callers that exit on
    /// `Err` — the `fidr client` subcommand does — therefore cannot
    /// silently swallow corruption.
    ///
    /// # Errors
    ///
    /// [`ClientError::VerifyFailed`] when `verify_failures > 0`.
    pub fn ensure_verified(self) -> Result<TrafficReport, ClientError> {
        if self.verify_failures > 0 {
            return Err(ClientError::VerifyFailed {
                failures: self.verify_failures,
                reads: self.reads,
            });
        }
        Ok(self)
    }
}

/// Drives `conns` concurrent devices of interleaved write/read traffic,
/// `ops` requests each; `factory` builds each device (a
/// [`StorageClient`] for one node, a [`ClusterClient`] for a fleet — the
/// traffic shape is identical, only the routing differs, so reports and
/// read-back contents are directly comparable).
///
/// Each device owns a disjoint LBA range and deterministic
/// (seed-derived) chunk contents, so every read — about one in three
/// ops, always of a previously written LBA — verifies byte-exactly
/// against what *that* device wrote. Duplicate content across devices
/// (the tag space is shared) keeps the dedup pipeline busy.
///
/// # Errors
///
/// The first [`ClientError`] of any worker (including device
/// construction), after all workers finish or fail.
pub fn run_traffic<D, F>(
    factory: F,
    conns: usize,
    ops: usize,
    seed: u64,
) -> Result<TrafficReport, ClientError>
where
    D: BlockDevice + Send,
    F: FnMut() -> Result<D, ClientError>,
{
    run_workers(factory, conns, |conn_id, dev| {
        drive_device(dev, conn_id as u64, ops, seed)
    })
}

/// Builds `conns` devices with `factory`, runs `work(worker index,
/// device)` on a thread per device — which drops its device, closing the
/// connection, as soon as it is done — and merges the reports.
fn run_workers<D, F, W>(mut factory: F, conns: usize, work: W) -> Result<TrafficReport, ClientError>
where
    D: BlockDevice + Send,
    F: FnMut() -> Result<D, ClientError>,
    W: Fn(usize, &mut D) -> Result<TrafficReport, ClientError> + Sync,
{
    let devices = (0..conns)
        .map(|_| factory())
        .collect::<Result<Vec<D>, _>>()?;
    let outcomes = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = devices
            .into_iter()
            .enumerate()
            .map(|(worker, mut dev)| scope.spawn(move || work(worker, &mut dev)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut total = TrafficReport::default();
    for outcome in outcomes {
        total.merge(outcome?);
    }
    Ok(total)
}

/// One worker's deterministic write/read/verify loop, over any
/// [`BlockDevice`] (a single node or a routed fleet).
fn drive_device<D: BlockDevice>(
    dev: &mut D,
    conn_id: u64,
    ops: usize,
    seed: u64,
) -> Result<TrafficReport, ClientError> {
    let gen = ContentGenerator::new(0.5);
    let mut report = TrafficReport::default();
    let base = conn_id * 1_000_000;
    // content_of keeps the tag space shared across connections so the
    // server sees cross-client duplicates to eliminate.
    let content_of = |i: u64| seed.wrapping_mul(31).wrapping_add(i % 40);
    let mut written = 0u64;
    for i in 0..ops as u64 {
        // Every third op (once something is written) reads back and
        // verifies a previously written LBA; the rest write.
        if i % 3 == 2 && written > 0 {
            let j = (i.wrapping_mul(seed | 1)) % written;
            let got = dev.read_block(Lba(base + j))?;
            report.reads += 1;
            if got != gen.chunk(content_of(j), 4096) {
                report.verify_failures += 1;
            }
        } else {
            let data = Bytes::from(gen.chunk(content_of(written), 4096));
            dev.write_block(Lba(base + written), data)?;
            report.writes += 1;
            written += 1;
        }
    }
    Ok(report)
}

/// The LBA of tenant `tenant`'s block at `offset` under the serving
/// layout: tenant id in the high bits, matching the server's per-stream
/// telemetry keying so per-stream rollups are per-tenant metrics.
fn tenant_lba(tenant: u64, offset: u64, stream_shift: u32) -> Lba {
    Lba((tenant << stream_shift) | offset)
}

/// Drives the open-loop, multi-tenant serving shape of
/// [`OpenLoopSchedule`] across `conns` workers, each built by
/// `factory` (a [`StorageClient`] for one node, a [`ClusterClient`]
/// for a fleet).
///
/// Workers are **tenant-sticky** (`tenant % conns`), so each tenant's
/// write→read order is preserved, and pace against a **global arrival
/// clock**: op `i` is issued no earlier than the schedule's `i`-th
/// arrival time regardless of when earlier ops completed — the
/// open-loop property that keeps a slow server from slowing the
/// offered load.
///
/// # Errors
///
/// The first [`ClientError`] of any worker (including device
/// construction), after all workers finish or fail.
pub fn run_open_loop<D, F>(
    factory: F,
    conns: usize,
    spec: OpenLoopSpec,
    stream_shift: u32,
) -> Result<TrafficReport, ClientError>
where
    D: BlockDevice + Send,
    F: FnMut() -> Result<D, ClientError>,
{
    let conns = conns.max(1);
    let schedule = OpenLoopSchedule::generate(spec);
    // Absolute arrival times (prefix sums of the inter-arrival gaps):
    // the open-loop clock every worker paces against.
    let mut arrivals = Vec::with_capacity(schedule.ops().len());
    let mut t = 0u64;
    for op in schedule.ops() {
        t += op.delay_ns;
        arrivals.push(t);
    }
    let seed = spec.seed;
    run_workers(factory, conns, |worker, dev| {
        let gen = ContentGenerator::new(0.5);
        let start = Instant::now();
        let mut report = TrafficReport::default();
        for (op, &due_ns) in schedule.ops().iter().zip(&arrivals) {
            if op.tenant as usize % conns != worker {
                continue;
            }
            let due = Duration::from_nanos(due_ns);
            let elapsed = start.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
            match op.kind {
                OpenLoopKind::Write { offset } => {
                    let tag = content_tag(seed, op.tenant, offset);
                    let data = Bytes::from(gen.chunk(tag, 4096));
                    dev.write_block(tenant_lba(op.tenant, offset, stream_shift), data)?;
                    report.writes += 1;
                }
                OpenLoopKind::Read { offset } => {
                    let got = dev.read_block(tenant_lba(op.tenant, offset, stream_shift))?;
                    report.reads += 1;
                    let tag = content_tag(seed, op.tenant, offset);
                    if got != gen.chunk(tag, 4096) {
                        report.verify_failures += 1;
                    }
                }
            }
        }
        Ok(report)
    })
}

/// Re-reads **every** block an [`OpenLoopSchedule`] run of `spec` wrote
/// and verifies each byte-exactly, through any [`BlockDevice`]. Because
/// the schedule is a pure function of the spec (offsets are append-only
/// per tenant), this needs no record from the traffic run itself — it
/// is the zero-acked-write-loss check the drain/handoff e2e leans on:
/// run traffic, reshard, then `run_verify` through the *new* topology.
///
/// # Errors
///
/// The first [`ClientError`]; verification mismatches are counted in
/// the report, not raised (callers chain
/// [`TrafficReport::ensure_verified`]).
pub fn run_verify<D: BlockDevice>(
    dev: &mut D,
    spec: OpenLoopSpec,
    stream_shift: u32,
) -> Result<TrafficReport, ClientError> {
    let schedule = OpenLoopSchedule::generate(spec);
    let gen = ContentGenerator::new(0.5);
    let mut report = TrafficReport::default();
    for (tenant, count) in schedule.writes_per_tenant() {
        for offset in 0..count {
            let got = dev.read_block(tenant_lba(tenant, offset, stream_shift))?;
            report.reads += 1;
            if got != gen.chunk(content_tag(spec.seed, tenant, offset), 4096) {
                report.verify_failures += 1;
            }
        }
    }
    Ok(report)
}

/// Drives a [`ChurnSchedule`] — write, overwrite, delete — through any
/// [`BlockDevice`], in the schedule's deterministic issue order. This
/// is the aging workload of the delete→refcount→GC lifecycle: rewrites
/// strand old content generations dead inside sealed containers, and
/// deletes unmap blocks outright, so a subsequent GC pass has real
/// garbage to reclaim.
///
/// # Errors
///
/// The first [`ClientError`].
pub fn run_churn<D: BlockDevice>(
    dev: &mut D,
    spec: ChurnSpec,
    stream_shift: u32,
) -> Result<TrafficReport, ClientError> {
    let schedule = ChurnSchedule::generate(spec);
    let gen = ContentGenerator::new(0.5);
    let mut report = TrafficReport::default();
    for op in schedule.ops() {
        let lba = tenant_lba(op.tenant, op.offset, stream_shift);
        match op.kind {
            ChurnKind::Write { round } => {
                let tag = churn_tag(spec.seed, op.tenant, op.offset, round);
                dev.write_block(lba, Bytes::from(gen.chunk(tag, 4096)))?;
                report.writes += 1;
            }
            ChurnKind::Delete => {
                dev.delete_block(lba)?;
                report.deletes += 1;
            }
        }
    }
    Ok(report)
}

/// Re-reads every **survivor** of a [`ChurnSchedule`] run of `spec` and
/// verifies each byte-exactly against its last-written content
/// generation. The survivor set is a pure function of the spec
/// ([`ChurnSchedule::survivors`]), so this needs no record from the
/// churn run — it is the post-GC safety check: age the store, collect
/// garbage, then prove every block that should still exist reads back
/// byte-identical.
///
/// # Errors
///
/// The first [`ClientError`]; verification mismatches are counted in
/// the report, not raised (callers chain
/// [`TrafficReport::ensure_verified`]).
pub fn run_churn_verify<D: BlockDevice>(
    dev: &mut D,
    spec: ChurnSpec,
    stream_shift: u32,
) -> Result<TrafficReport, ClientError> {
    let schedule = ChurnSchedule::generate(spec);
    let gen = ContentGenerator::new(0.5);
    let mut report = TrafficReport::default();
    for (&(tenant, offset), &round) in schedule.survivors() {
        let got = dev.read_block(tenant_lba(tenant, offset, stream_shift))?;
        report.reads += 1;
        if got != gen.chunk(churn_tag(spec.seed, tenant, offset, round), 4096) {
            report.verify_failures += 1;
        }
    }
    Ok(report)
}
