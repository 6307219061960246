//! Consistent-hash shard routing for scale-out serving.
//!
//! One `fidr serve` process owns one `fidr_core`-style system — one
//! shard of the Hash→PBN space. To spread many tenants across N such
//! nodes (HPDedup's cloud-primary-storage setting), every participant —
//! the fan-out client, the stateless `fidr route` front tier, and the
//! nodes themselves — shares a [`ShardRouter`]: a consistent-hash ring
//! with virtual nodes mapping each routing key to its owning node.
//!
//! The routing key is the LBA (a read frame carries nothing else), mixed
//! through [`fidr_hash::splitmix64`] so adjacent addresses land on
//! different nodes. Under content addressing the very same ring routes
//! fingerprints; the key choice is the caller's.
//!
//! # Stability
//!
//! The ring places [`ShardRouter::vnodes`] points per node, each at
//! `splitmix64(splitmix64(node_id) + vnode_index)`, and a key belongs to
//! the first point clockwise from `splitmix64(key)`. Point positions
//! depend only on `(node_id, vnode_index)`, so adding or draining a node
//! moves only the keys whose owning arc changed — ~K/N of them — which
//! is what keeps a drain's handoff traffic proportional to the departing
//! node's share, not the whole keyspace.
//!
//! # Wire encoding
//!
//! A map travels inside [`crate::protocol::Message::ShardMapRequest`] /
//! `ShardMapReply` payloads as the line-oriented `fidr.shardmap.v1`
//! document produced by [`ShardRouter::encode`]:
//!
//! ```text
//! fidr.shardmap.v1
//! generation 3
//! vnodes 64
//! node 1 127.0.0.1:4000
//! node 2 127.0.0.1:4001
//! ```
//!
//! Nodes are listed in id order; two routers that decode the same
//! document route identically, and re-encoding is byte-stable.

use fidr_chunk::Lba;
use fidr_hash::splitmix64;
use std::fmt;
use std::net::SocketAddr;

/// Schema tag on the first line of an encoded shard map.
pub const SHARDMAP_SCHEMA: &str = "fidr.shardmap.v1";

/// Default virtual nodes per physical node. More vnodes smooth the
/// per-node load split at the cost of a longer (still binary-searched)
/// ring; 64 keeps the max/min node share within ~2x for small clusters.
pub const DEFAULT_VNODES: usize = 64;

/// One serving node in the cluster map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardNode {
    /// Stable node identity; seeds the node's ring points, so it must
    /// never be reused for a different address while both live.
    pub id: u64,
    /// The node's `host:port` listen address.
    pub addr: String,
}

impl ShardNode {
    /// The listen address as a connectable socket address.
    ///
    /// # Errors
    ///
    /// [`ShardMapError::BadAddr`] when `addr` is not `ip:port`.
    pub fn socket_addr(&self) -> Result<SocketAddr, ShardMapError> {
        self.addr
            .parse()
            .map_err(|_| ShardMapError::BadAddr(self.addr.clone()))
    }
}

/// Error decoding or mutating a shard map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMapError {
    /// The document does not start with [`SHARDMAP_SCHEMA`].
    BadSchema,
    /// A line failed to parse.
    BadLine(String),
    /// Two nodes declared the same id.
    DuplicateNode(u64),
    /// A drain named a node the map does not hold.
    UnknownNode(u64),
    /// `vnodes` must be at least 1.
    BadVnodes,
    /// A node's address does not parse as `ip:port`.
    BadAddr(String),
}

impl fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardMapError::BadSchema => write!(f, "missing {SHARDMAP_SCHEMA} schema line"),
            ShardMapError::BadLine(line) => write!(f, "bad shard map line: {line:?}"),
            ShardMapError::DuplicateNode(id) => write!(f, "duplicate node id {id}"),
            ShardMapError::UnknownNode(id) => write!(f, "no node with id {id}"),
            ShardMapError::BadVnodes => write!(f, "vnodes must be >= 1"),
            ShardMapError::BadAddr(addr) => write!(f, "bad node addr {addr}"),
        }
    }
}

impl std::error::Error for ShardMapError {}

/// A consistent-hash ring over the cluster's serving nodes.
///
/// Shared by the fan-out client, the `fidr route` front tier, and the
/// nodes (for rehoming): any two holders of the same generation agree on
/// [`ShardRouter::node_for`] for every key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    nodes: Vec<ShardNode>,
    vnodes: usize,
    generation: u64,
    /// Sorted ring points: (position, index into `nodes`). Rebuilt on
    /// every membership change; lookups binary-search it.
    ring: Vec<(u64, usize)>,
}

impl ShardRouter {
    /// An empty ring (routes nothing) at generation 0.
    pub fn new(vnodes: usize) -> Result<ShardRouter, ShardMapError> {
        if vnodes == 0 {
            return Err(ShardMapError::BadVnodes);
        }
        Ok(ShardRouter {
            nodes: Vec::new(),
            vnodes,
            generation: 0,
            ring: Vec::new(),
        })
    }

    /// Builds a ring over `nodes` with [`DEFAULT_VNODES`] virtual nodes,
    /// at generation 1.
    ///
    /// # Errors
    ///
    /// [`ShardMapError::DuplicateNode`] if two nodes share an id.
    pub fn from_nodes(nodes: Vec<ShardNode>) -> Result<ShardRouter, ShardMapError> {
        let mut router = ShardRouter::new(DEFAULT_VNODES)?;
        for node in nodes {
            router.join(node)?;
        }
        Ok(router)
    }

    /// The map's monotone generation counter; bumped by every
    /// [`ShardRouter::join`] / [`ShardRouter::drain`], so a node can
    /// refuse to install a map older than the one it holds.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Virtual nodes per physical node.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The member nodes, in id order.
    pub fn nodes(&self) -> &[ShardNode] {
        &self.nodes
    }

    /// Looks up a member by id.
    pub fn node(&self, id: u64) -> Option<&ShardNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Adds a node and bumps the generation.
    ///
    /// # Errors
    ///
    /// [`ShardMapError::DuplicateNode`] if the id is already a member.
    pub fn join(&mut self, node: ShardNode) -> Result<(), ShardMapError> {
        if self.nodes.iter().any(|n| n.id == node.id) {
            return Err(ShardMapError::DuplicateNode(node.id));
        }
        self.nodes.push(node);
        self.nodes.sort_by_key(|n| n.id);
        self.generation += 1;
        self.rebuild_ring();
        Ok(())
    }

    /// Removes a node and bumps the generation, returning the departed
    /// member. Keys it owned redistribute to the survivors' arcs.
    ///
    /// # Errors
    ///
    /// [`ShardMapError::UnknownNode`] if no member has that id.
    pub fn drain(&mut self, id: u64) -> Result<ShardNode, ShardMapError> {
        let at = self
            .nodes
            .iter()
            .position(|n| n.id == id)
            .ok_or(ShardMapError::UnknownNode(id))?;
        let gone = self.nodes.remove(at);
        self.generation += 1;
        self.rebuild_ring();
        Ok(gone)
    }

    /// The ring position of a routing key.
    fn point_of(key: u64) -> u64 {
        splitmix64(key)
    }

    /// The node owning routing key `key`, or `None` on an empty ring.
    pub fn node_for(&self, key: u64) -> Option<&ShardNode> {
        if self.ring.is_empty() {
            return None;
        }
        let point = ShardRouter::point_of(key);
        // First ring point at or after the key's position, wrapping.
        let at = self.ring.partition_point(|&(pos, _)| pos < point);
        let (_, idx) = self.ring[at % self.ring.len()];
        Some(&self.nodes[idx])
    }

    /// [`ShardRouter::node_for`] keyed by LBA — the routing key the
    /// block protocol actually has in hand on both write and read.
    pub fn node_for_lba(&self, lba: Lba) -> Option<&ShardNode> {
        self.node_for(lba.0)
    }

    /// Renders the `fidr.shardmap.v1` document. Byte-stable: equal maps
    /// encode identically (nodes are kept in id order).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(SHARDMAP_SCHEMA);
        out.push('\n');
        out.push_str(&format!("generation {}\n", self.generation));
        out.push_str(&format!("vnodes {}\n", self.vnodes));
        for node in &self.nodes {
            out.push_str(&format!("node {} {}\n", node.id, node.addr));
        }
        out
    }

    /// Parses a `fidr.shardmap.v1` document.
    ///
    /// # Errors
    ///
    /// [`ShardMapError::BadSchema`] without the schema line,
    /// [`ShardMapError::BadLine`] for an unparsable line,
    /// [`ShardMapError::DuplicateNode`] for a repeated id, and
    /// [`ShardMapError::BadVnodes`] for `vnodes 0`.
    pub fn decode(text: &str) -> Result<ShardRouter, ShardMapError> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(SHARDMAP_SCHEMA) {
            return Err(ShardMapError::BadSchema);
        }
        let mut generation = 0u64;
        let mut vnodes = DEFAULT_VNODES;
        let mut nodes: Vec<ShardNode> = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let bad = || ShardMapError::BadLine(line.to_string());
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("generation") => {
                    generation = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                }
                Some("vnodes") => {
                    vnodes = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                }
                Some("node") => {
                    let id = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                    let addr = parts.next().ok_or_else(bad)?.to_string();
                    if nodes.iter().any(|n| n.id == id) {
                        return Err(ShardMapError::DuplicateNode(id));
                    }
                    nodes.push(ShardNode { id, addr });
                }
                _ => return Err(bad()),
            }
            if parts.next().is_some() {
                return Err(bad());
            }
        }
        if vnodes == 0 {
            return Err(ShardMapError::BadVnodes);
        }
        let mut router = ShardRouter {
            nodes,
            vnodes,
            generation,
            ring: Vec::new(),
        };
        router.nodes.sort_by_key(|n| n.id);
        router.rebuild_ring();
        Ok(router)
    }

    fn rebuild_ring(&mut self) {
        self.ring.clear();
        self.ring.reserve(self.nodes.len() * self.vnodes);
        for (idx, node) in self.nodes.iter().enumerate() {
            let seed = splitmix64(node.id);
            for vnode in 0..self.vnodes {
                let pos = splitmix64(seed.wrapping_add(vnode as u64));
                self.ring.push((pos, idx));
            }
        }
        // Position ties (vanishingly rare) resolve to the lower node
        // index deterministically, the same on every holder of the map.
        self.ring.sort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_nodes() -> ShardRouter {
        ShardRouter::from_nodes(vec![
            ShardNode {
                id: 1,
                addr: "127.0.0.1:4000".into(),
            },
            ShardNode {
                id: 2,
                addr: "127.0.0.1:4001".into(),
            },
            ShardNode {
                id: 3,
                addr: "127.0.0.1:4002".into(),
            },
        ])
        .unwrap()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let a = three_nodes();
        let b = three_nodes();
        for key in 0..10_000u64 {
            let owner = a.node_for(key).unwrap();
            assert_eq!(owner, b.node_for(key).unwrap());
            assert_eq!(owner, a.node_for_lba(Lba(key)).unwrap());
        }
    }

    #[test]
    fn every_node_owns_a_reasonable_share() {
        let router = three_nodes();
        let mut counts = [0usize; 3];
        for key in 0..30_000u64 {
            counts[(router.node_for(key).unwrap().id - 1) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Perfect split would be 10_000; vnodes keep it within ~2x.
            assert!(c > 4_000, "node {} owns only {c} of 30000 keys", i + 1);
        }
    }

    #[test]
    fn encode_decode_round_trips_and_routes_identically() {
        let router = three_nodes();
        let doc = router.encode();
        assert!(doc.starts_with(SHARDMAP_SCHEMA));
        let decoded = ShardRouter::decode(&doc).unwrap();
        assert_eq!(decoded, router);
        assert_eq!(decoded.encode(), doc, "re-encoding must be byte-stable");
        for key in 0..1_000u64 {
            assert_eq!(decoded.node_for(key), router.node_for(key));
        }
    }

    #[test]
    fn drain_moves_only_the_departed_nodes_keys() {
        let mut router = three_nodes();
        let before: Vec<u64> = (0..10_000u64)
            .map(|k| router.node_for(k).unwrap().id)
            .collect();
        router.drain(2).unwrap();
        for (key, owner_before) in before.iter().enumerate() {
            let owner_after = router.node_for(key as u64).unwrap().id;
            if *owner_before != 2 {
                // Keys the survivors already owned must not move.
                assert_eq!(owner_after, *owner_before, "key {key} moved needlessly");
            } else {
                assert_ne!(owner_after, 2);
            }
        }
    }

    #[test]
    fn join_moves_roughly_one_fourth_of_the_keys() {
        let mut router = three_nodes();
        let before: Vec<u64> = (0..10_000u64)
            .map(|k| router.node_for(k).unwrap().id)
            .collect();
        router
            .join(ShardNode {
                id: 4,
                addr: "127.0.0.1:4003".into(),
            })
            .unwrap();
        let mut moved = 0usize;
        for (key, owner_before) in before.iter().enumerate() {
            let owner_after = router.node_for(key as u64).unwrap().id;
            if owner_after != *owner_before {
                // The only legal move is onto the new node.
                assert_eq!(owner_after, 4, "key {key} moved between survivors");
                moved += 1;
            }
        }
        // ~K/N = 2_500; allow generous slack for ring unevenness.
        assert!(
            (1_000..5_000).contains(&moved),
            "expected ~2500 keys to move, got {moved}"
        );
    }

    #[test]
    fn generations_are_monotone_and_errors_are_reported() {
        let mut router = three_nodes();
        assert_eq!(router.generation(), 3, "one bump per join");
        assert_eq!(
            router
                .join(ShardNode {
                    id: 2,
                    addr: "x".into()
                })
                .unwrap_err(),
            ShardMapError::DuplicateNode(2)
        );
        assert_eq!(router.drain(9).unwrap_err(), ShardMapError::UnknownNode(9));
        assert_eq!(router.generation(), 3, "failed ops must not bump");
        router.drain(1).unwrap();
        assert_eq!(router.generation(), 4);
    }

    #[test]
    fn empty_ring_routes_nothing() {
        let router = ShardRouter::new(8).unwrap();
        assert_eq!(router.node_for(42), None);
        assert!(ShardRouter::new(0).is_err());
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        assert_eq!(
            ShardRouter::decode("not a map"),
            Err(ShardMapError::BadSchema)
        );
        let dup = "fidr.shardmap.v1\nnode 1 a:1\nnode 1 b:2\n";
        assert_eq!(
            ShardRouter::decode(dup),
            Err(ShardMapError::DuplicateNode(1))
        );
        assert_eq!(
            ShardRouter::decode("fidr.shardmap.v1\nvnodes 0\n"),
            Err(ShardMapError::BadVnodes)
        );
        assert!(matches!(
            ShardRouter::decode("fidr.shardmap.v1\nnode one a:1\n"),
            Err(ShardMapError::BadLine(_))
        ));
        assert!(matches!(
            ShardRouter::decode("fidr.shardmap.v1\nnode 1 a:1 extra\n"),
            Err(ShardMapError::BadLine(_))
        ));
    }
}
