//! The stateless `fidr route` front tier and the reshard orchestration
//! behind `fidr reshard`.
//!
//! A [`Router`] is a thin proxy: it terminates client connections
//! speaking the §6.2 wire protocol, routes every write/read/delete to the
//! owning node of its [`ShardRouter`] map (one backend
//! [`ClusterClient`] per accepted connection, so backend ordering
//! matches each client's issue order), and answers
//! [`ShardMapAction::Get`] from its own map so clients can discover the
//! topology. It holds **no storage state** — any number of front tiers
//! can run side by side over the same map.
//!
//! Reshard is an orchestration op, not a proxy op: [`join_node`] /
//! [`drain_node`] compute the next map generation and push it to the
//! member nodes, whose own rehome-before-ack handling (see
//! [`crate::server`]) guarantees zero acked-write loss. The front tier
//! refuses Set/Drain frames by closing the connection — traffic must be
//! quiesced (or pointed at a front tier holding the *new* map) before a
//! reshard, and letting any client reshape the cluster mid-flight would
//! break that.

use crate::client::{ClientError, ClusterClient, StorageClient};
use crate::net::{FrameConn, ListenState, Listener, Recv};
use fidr_nic::protocol::{Message, ShardMapAction};
use fidr_nic::{ShardNode, ShardRouter};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of one front-tier instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back with
    /// [`RouterHandle::local_addr`]).
    pub addr: SocketAddr,
    /// The shard map to route by, fixed for this instance's lifetime —
    /// after a reshard, start a front tier holding the new map.
    pub router: ShardRouter,
    /// Auto-drain: once this many connections have been accepted and
    /// all of them closed, [`RouterHandle::wait`] returns. `None`
    /// routes until [`RouterHandle::shutdown`].
    pub conns_limit: Option<u64>,
}

/// What one front-tier instance did, returned by
/// [`RouterHandle::wait`] / [`RouterHandle::shutdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterReport {
    /// Connections accepted.
    pub connections: u64,
    /// Writes routed to a backend node.
    pub writes_routed: u64,
    /// Reads routed to a backend node.
    pub reads_routed: u64,
    /// Deletes routed to a backend node.
    pub deletes_routed: u64,
    /// Shard-map Get requests answered from the local map.
    pub map_gets: u64,
    /// Connections closed on a protocol violation or backend failure.
    pub conn_errors: u64,
}

/// The map and counters shared by every connection thread.
struct RouterShared {
    router: ShardRouter,
    listen: Arc<ListenState>,
    writes_routed: AtomicU64,
    reads_routed: AtomicU64,
    deletes_routed: AtomicU64,
    map_gets: AtomicU64,
    conn_errors: AtomicU64,
}

/// The front tier. [`Router::spawn`] binds, starts the accept loop and
/// returns a [`RouterHandle`].
pub struct Router;

/// Handle to a running [`Router`]. Dropping it stops the front tier.
pub struct RouterHandle {
    listener: Listener,
    shared: Arc<RouterShared>,
}

impl Router {
    /// Binds `cfg.addr` and starts routing.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; `InvalidInput` on an empty map
    /// (a front tier with nowhere to route is a misconfiguration, not
    /// a server).
    pub fn spawn(cfg: RouterConfig) -> std::io::Result<RouterHandle> {
        if cfg.router.nodes().is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "shard map has no nodes to route to",
            ));
        }
        let shared = Arc::new(RouterShared {
            router: cfg.router,
            listen: Arc::default(),
            writes_routed: AtomicU64::new(0),
            reads_routed: AtomicU64::new(0),
            deletes_routed: AtomicU64::new(0),
            map_gets: AtomicU64::new(0),
            conn_errors: AtomicU64::new(0),
        });
        let conn_shared = Arc::clone(&shared);
        let listener = Listener::spawn(
            cfg.addr,
            cfg.conns_limit,
            Arc::clone(&shared.listen),
            || {},
            move |stream| {
                if serve_route_conn(&conn_shared, stream).is_err() {
                    conn_shared.conn_errors.fetch_add(1, Ordering::Relaxed);
                }
            },
        )?;
        Ok(RouterHandle { listener, shared })
    }
}

impl RouterHandle {
    /// The bound address (the real port when spawned with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops accepting, waits for in-flight connections — an idle one
    /// leaves within a read timeout — and returns the final report.
    pub fn shutdown(self) -> RouterReport {
        self.shared.listen.shutdown.store(true, Ordering::Relaxed);
        self.wait()
    }

    /// Waits for the conns-limit drain (or a shutdown from another
    /// handle path) and returns the final report.
    pub fn wait(mut self) -> RouterReport {
        self.listener.join();
        let m = &self.shared;
        RouterReport {
            connections: m.listen.accepted.load(Ordering::Relaxed),
            writes_routed: m.writes_routed.load(Ordering::Relaxed),
            reads_routed: m.reads_routed.load(Ordering::Relaxed),
            deletes_routed: m.deletes_routed.load(Ordering::Relaxed),
            map_gets: m.map_gets.load(Ordering::Relaxed),
            conn_errors: m.conn_errors.load(Ordering::Relaxed),
        }
    }
}

/// Serves one fronted connection: receive a frame, route it, relay the
/// reply. Returns `Err` on anything that forced a non-clean close.
fn serve_route_conn(shared: &Arc<RouterShared>, stream: TcpStream) -> Result<(), ClientError> {
    let mut conn = FrameConn::accepted(stream)?;
    // One backend fan-out per fronted connection: replies come back on
    // the connection that asked, in issue order.
    let mut backend = ClusterClient::connect(shared.router.clone())?;
    loop {
        let msg = match conn.recv()? {
            Recv::Frame(msg) => msg,
            Recv::Idle if !shared.listen.shutdown.load(Ordering::Relaxed) => continue,
            // A clean close, or a quiet peer while the front tier drains.
            Recv::Idle | Recv::Closed => return Ok(()),
        };
        let reply = match msg {
            Message::Write { lba, data } => {
                backend.write(lba, data)?;
                shared.writes_routed.fetch_add(1, Ordering::Relaxed);
                Message::WriteAck { lba }
            }
            Message::Read { lba } => {
                let data = backend.read(lba)?;
                shared.reads_routed.fetch_add(1, Ordering::Relaxed);
                Message::ReadReply {
                    lba,
                    data: bytes::Bytes::from(data),
                }
            }
            Message::Delete { lba } => {
                backend.delete(lba)?;
                shared.deletes_routed.fetch_add(1, Ordering::Relaxed);
                Message::DeleteAck { lba }
            }
            Message::ShardMapRequest {
                action: ShardMapAction::Get,
                ..
            } => {
                shared.map_gets.fetch_add(1, Ordering::Relaxed);
                Message::ShardMapReply {
                    generation: shared.router.generation(),
                    map: bytes::Bytes::from(shared.router.encode()),
                }
            }
            // Set/Drain reshape the cluster; the front tier refuses them
            // (reshard is the orchestrator's job) by closing, exactly as
            // a storage node refuses a stale install.
            other => return Err(ClientError::UnexpectedReply(other)),
        };
        conn.send(&reply)?;
    }
}

/// Installs `map` on every one of its member nodes
/// ([`ShardMapAction::Set`]), in id order. Each node rehomes any block
/// the new map assigns elsewhere *before* acking, so when this returns
/// every acked write lives on its new owner.
///
/// # Errors
///
/// The first connect or install failure; a node refusing the install
/// (stale generation) surfaces as [`ClientError::Disconnected`].
pub fn push_map(map: &ShardRouter) -> Result<(), ClientError> {
    let doc = map.encode();
    for node in map.nodes() {
        let mut conn = StorageClient::connect(node.socket_addr()?)?;
        conn.shard_map(ShardMapAction::Set, &doc)?;
    }
    Ok(())
}

/// Orchestrates a join: adds `node` to `current` (bumping the
/// generation) and pushes the new map to **every** member, newcomer
/// included. The old members rehome the keys the newcomer now owns as
/// part of acking the install.
///
/// # Errors
///
/// [`ClientError::NoRoute`] on a duplicate id; otherwise the first
/// push failure.
pub fn join_node(current: &ShardRouter, node: ShardNode) -> Result<ShardRouter, ClientError> {
    let mut next = current.clone();
    next.join(node)?;
    push_map(&next)?;
    Ok(next)
}

/// Orchestrates a departure with zero acked-write loss: computes the
/// survivors' map, sends [`ShardMapAction::Drain`] to the departing
/// node — which rehomes **all** its blocks to their new owners, acks,
/// and then exits through the storage server's graceful-drain path —
/// and finally pushes the new map to the survivors. Traffic must be
/// quiesced (or already pointed at a front tier holding the new map)
/// while this runs.
///
/// # Errors
///
/// [`ClientError::NoRoute`] on an unknown id; otherwise the first
/// connect or install failure.
pub fn drain_node(current: &ShardRouter, id: u64) -> Result<ShardRouter, ClientError> {
    let mut next = current.clone();
    let gone = next.drain(id)?;
    let mut departing = StorageClient::connect(gone.socket_addr()?)?;
    departing.shard_map(ShardMapAction::Drain, &next.encode())?;
    push_map(&next)?;
    Ok(next)
}

/// Builds the deterministic bootstrap map over `addrs`: node ids are
/// 1-based positions in the list, so the same `--nodes` list always
/// derives the same map — which is what lets `fidr route`,
/// `fidr client --nodes` and `fidr reshard` agree on a topology with
/// no coordination service.
///
/// # Errors
///
/// [`ClientError::NoRoute`] on an empty list.
pub fn map_from_addrs(addrs: &[String]) -> Result<ShardRouter, ClientError> {
    if addrs.is_empty() {
        return Err(ClientError::NoRoute("--nodes list is empty".into()));
    }
    let nodes = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| ShardNode {
            id: i as u64 + 1,
            addr: addr.clone(),
        })
        .collect();
    Ok(ShardRouter::from_nodes(nodes)?)
}
