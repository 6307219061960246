//! Multi-node loopback e2e for the sharded serving tier: the
//! consistent-hash fan-out client spreads writes across every node, a
//! node drain hands its shard off with zero acked-write loss, the
//! stateless front tier serves the fleet over the single-node protocol
//! byte-for-byte, per-node drain exports stay byte-stable across
//! worker counts, and the client-side verification plumbing fails
//! loudly (injected corruption, late port files).

mod common;

use bytes::Bytes;
use common::{deterministic_drain_json, small_system};
use fidr::chunk::Lba;
use fidr::client::{
    read_port_file, run_churn, run_churn_verify, run_open_loop, run_traffic, run_verify,
    ClientError, ClusterClient, StorageClient,
};
use fidr::core::{FidrConfig, DEFAULT_STREAM_SHIFT};
use fidr::nic::{ShardNode, ShardRouter};
use fidr::router::{drain_node, push_map, Router, RouterConfig, RouterHandle};
use fidr::server::{CorruptFault, Server, ServerConfig, ServerHandle};
use fidr::workload::{ChurnSchedule, ChurnSpec, OpenLoopSchedule, OpenLoopSpec};
use std::time::{Duration, Instant};

fn spawn_node(node_id: u64, workers: usize) -> ServerHandle {
    Server::spawn(ServerConfig {
        node_id,
        system: FidrConfig {
            workers,
            ..small_system()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// The bootstrap map for a fleet of spawned nodes, ids taken from each
/// node's `ServerConfig` (1-based, in order).
fn fleet_map(handles: &[&ServerHandle]) -> ShardRouter {
    let nodes = handles
        .iter()
        .enumerate()
        .map(|(i, h)| ShardNode {
            id: i as u64 + 1,
            addr: h.local_addr().to_string(),
        })
        .collect();
    ShardRouter::from_nodes(nodes).expect("bootstrap map")
}

/// A front tier over `map` that routes until shut down.
fn spawn_front(map: &ShardRouter) -> RouterHandle {
    Router::spawn(RouterConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        router: map.clone(),
        conns_limit: None,
    })
    .expect("front tier")
}

#[test]
fn traffic_spreads_across_nodes_and_drain_hands_off_every_acked_write() {
    let n1 = spawn_node(1, 1);
    let n2 = spawn_node(2, 1);
    let map = fleet_map(&[&n1, &n2]);
    push_map(&map).expect("install bootstrap map");

    // Open-loop multi-tenant traffic through the fan-out client.
    let spec = OpenLoopSpec {
        tenants: 8,
        ops: 300,
        rate: 0.0,
        zipf_s: 1.0,
        seed: 42,
    };
    let report = run_open_loop(
        || ClusterClient::connect(map.clone()),
        3,
        spec,
        DEFAULT_STREAM_SHIFT,
    )
    .expect("open-loop traffic")
    .ensure_verified()
    .expect("every mid-traffic read matched its write");
    assert!(report.writes > 0 && report.reads > 0, "interleaved traffic");

    // Consistent-hash routing spread the writes across BOTH nodes, and
    // nothing was double-served: the per-node counters partition the
    // client's acked total exactly.
    let writes_on = |h: &ServerHandle| h.metrics().counter("server.ops.write.count").unwrap_or(0);
    let (w1, w2) = (writes_on(&n1), writes_on(&n2));
    assert!(w1 > 0, "node 1 served no writes");
    assert!(w2 > 0, "node 2 served no writes");
    assert_eq!(
        w1 + w2,
        report.writes,
        "acked writes partition across nodes"
    );

    // Drain node 2: its blocks rehome to the survivor, then the
    // departing process exits through the graceful-drain path on its
    // own — no explicit shutdown.
    let survivors = drain_node(&map, 2).expect("drain node 2");
    assert_eq!(survivors.nodes().len(), 1, "one survivor");
    assert!(
        survivors.generation() > map.generation(),
        "reshard bumps the map generation"
    );
    n2.wait().expect("departing node drains itself");

    // Zero acked-write loss: every block the schedule wrote reads back
    // byte-exactly through the *new* topology. The verify pass needs no
    // record from the traffic run — the schedule is a pure function of
    // the spec.
    let mut fleet = ClusterClient::connect(survivors).expect("connect survivors");
    let verify = run_verify(&mut fleet, spec, DEFAULT_STREAM_SHIFT)
        .expect("post-drain verify")
        .ensure_verified()
        .expect("zero acked-write loss across the handoff");
    assert_eq!(
        verify.reads, report.writes,
        "the verify pass re-read every acked write"
    );
    drop(fleet);
    n1.shutdown().expect("drain survivor");
}

#[test]
fn churn_deletes_route_by_shard_map_and_drain_reclaims_source_copies() {
    let n1 = spawn_node(1, 1);
    let n2 = spawn_node(2, 1);
    let map = fleet_map(&[&n1, &n2]);
    push_map(&map).expect("install bootstrap map");

    // Age the fleet: write, overwrite, delete — every delete routed to
    // the owning node by the shard map, exactly like the write that
    // created the block.
    let spec = ChurnSpec {
        tenants: 2,
        blocks_per_tenant: 40,
        rounds: 3,
        delete_pct: 40,
        seed: 21,
    };
    let schedule = ChurnSchedule::generate(spec);
    assert!(schedule.deletes() > 0, "spec must actually churn");
    let mut fleet = ClusterClient::connect(map.clone()).expect("connect fleet");
    let report = run_churn(&mut fleet, spec, DEFAULT_STREAM_SHIFT).expect("churn completes");
    assert_eq!(report.deletes, schedule.deletes(), "every delete acked");

    // Consistent-hash routing partitioned the deletes across BOTH
    // nodes, and nothing was double-deleted.
    let deletes_on = |h: &ServerHandle| h.metrics().counter("server.ops.delete.count").unwrap_or(0);
    let (d1, d2) = (deletes_on(&n1), deletes_on(&n2));
    assert!(d1 > 0, "node 1 served no deletes");
    assert!(d2 > 0, "node 2 served no deletes");
    assert_eq!(
        d1 + d2,
        schedule.deletes(),
        "deletes partition across nodes"
    );

    // Survivors verify byte-exactly through the fleet.
    run_churn_verify(&mut fleet, spec, DEFAULT_STREAM_SHIFT)
        .expect("fleet verify")
        .ensure_verified()
        .expect("survivors intact after churn");
    drop(fleet);

    // Drain node 2: it rehomes its shard to the survivor and — only
    // after every forward was acked — deletes each source copy, so the
    // handoff reclaims the departing node's space instead of stranding
    // a dead replica.
    let survivors = drain_node(&map, 2).expect("drain node 2");
    let n2_metrics = n2.wait().expect("departing node drains itself");
    let count = |name: &str| n2_metrics.counter(name).unwrap_or(0);
    assert!(
        count("server.shard.rehome.count") > 0,
        "node 2 had blocks to hand off"
    );
    assert_eq!(
        count("server.shard.reclaimed.count"),
        count("server.shard.rehome.count"),
        "every rehomed block's source copy was deleted after the ack"
    );
    assert!(
        count("delete.acked.count") >= count("server.shard.reclaimed.count"),
        "source-copy reclamation went through the delete path"
    );

    // Zero acked-write loss across the handoff: the survivor set —
    // derived purely from the spec — reads back byte-exactly through
    // the new topology.
    let mut solo = ClusterClient::connect(survivors).expect("connect survivors");
    run_churn_verify(&mut solo, spec, DEFAULT_STREAM_SHIFT)
        .expect("post-drain verify")
        .ensure_verified()
        .expect("zero acked-write loss across the reclaiming handoff");
    drop(solo);
    n1.shutdown().expect("drain survivor");
}

#[test]
fn router_fanout_and_front_tier_read_back_identical_to_a_single_node() {
    let spec = OpenLoopSpec {
        tenants: 5,
        ops: 180,
        rate: 0.0,
        zipf_s: 1.2,
        seed: 9,
    };

    // The same schedule against (a) one standalone node and (b) a
    // 2-node fleet behind the fan-out client. Identical traffic shape —
    // only the routing differs.
    let solo = spawn_node(0, 1);
    let solo_addr = solo.local_addr();
    run_open_loop(
        || StorageClient::connect(solo_addr),
        2,
        spec,
        DEFAULT_STREAM_SHIFT,
    )
    .expect("solo traffic")
    .ensure_verified()
    .expect("solo verified");

    let n1 = spawn_node(1, 1);
    let n2 = spawn_node(2, 1);
    let map = fleet_map(&[&n1, &n2]);
    push_map(&map).expect("install map");
    run_open_loop(
        || ClusterClient::connect(map.clone()),
        2,
        spec,
        DEFAULT_STREAM_SHIFT,
    )
    .expect("fleet traffic")
    .ensure_verified()
    .expect("fleet verified");

    // The stateless front tier serves the fleet over the *single-node*
    // protocol: a plain StorageClient pointed at it must read back every
    // block byte-identical to the standalone node.
    let front = spawn_front(&map);
    let mut via_solo = StorageClient::connect(solo_addr).expect("connect solo");
    let mut via_front = StorageClient::connect(front.local_addr()).expect("connect front tier");
    let mut blocks = 0u64;
    for (tenant, count) in OpenLoopSchedule::generate(spec).writes_per_tenant() {
        for offset in 0..count {
            let lba = Lba((tenant << DEFAULT_STREAM_SHIFT) | offset);
            assert_eq!(
                via_solo.read(lba).expect("solo read"),
                via_front.read(lba).expect("routed read"),
                "tenant {tenant} offset {offset} differs between topologies"
            );
            blocks += 1;
        }
    }
    assert!(blocks > 0, "the schedule wrote something");
    // `via_front` is still connected: an idle client must not hold the
    // front tier's shutdown up.
    let routed = front.shutdown();
    assert_eq!(routed.reads_routed, blocks, "every read went through");
    assert_eq!(routed.conn_errors, 0);

    solo.shutdown().expect("drain solo");
    n1.shutdown().expect("drain node 1");
    n2.shutdown().expect("drain node 2");
}

#[test]
fn front_tier_stops_while_a_client_sits_idle_on_a_connection() {
    let node = spawn_node(1, 1);
    let map = fleet_map(&[&node]);
    push_map(&map).expect("install map");
    // Both ways a handle ends must return promptly with a client that
    // has finished a write but not hung up.
    for by_drop in [false, true] {
        let front = spawn_front(&map);
        let mut idle = StorageClient::connect(front.local_addr()).expect("connect front tier");
        idle.write(Lba(by_drop as u64), Bytes::from(vec![3u8; 4096]))
            .expect("routed write");
        let asked = Instant::now();
        if by_drop {
            drop(front);
        } else {
            front.shutdown();
        }
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "front tier took {:?} to stop around an idle client",
            asked.elapsed()
        );
        drop(idle);
    }
    node.shutdown().expect("drain node");
}

#[test]
fn churn_through_the_front_tier_routes_deletes_like_writes() {
    let n1 = spawn_node(1, 1);
    let n2 = spawn_node(2, 1);
    let map = fleet_map(&[&n1, &n2]);
    push_map(&map).expect("install map");
    let front = spawn_front(&map);

    // A plain single-node client: the front tier does all the routing.
    let spec = ChurnSpec {
        tenants: 2,
        blocks_per_tenant: 40,
        rounds: 3,
        delete_pct: 40,
        seed: 33,
    };
    let schedule = ChurnSchedule::generate(spec);
    assert!(schedule.deletes() > 0, "spec must actually churn");
    let mut client = StorageClient::connect(front.local_addr()).expect("connect front tier");
    let report = run_churn(&mut client, spec, DEFAULT_STREAM_SHIFT).expect("churn completes");
    assert_eq!(report.deletes, schedule.deletes(), "every delete acked");
    run_churn_verify(&mut client, spec, DEFAULT_STREAM_SHIFT)
        .expect("survivor reads succeed")
        .ensure_verified()
        .expect("survivors intact behind the front tier");
    drop(client);
    let routed = front.shutdown();
    assert_eq!(routed.deletes_routed, schedule.deletes());
    assert_eq!(routed.conn_errors, 0);

    // The deletes landed on the owning nodes: asked directly, the fleet
    // refuses to read a deleted block (each refusal costs the probe its
    // connection, hence a fresh one per block).
    let deleted = (0..spec.tenants)
        .flat_map(|t| (0..spec.blocks_per_tenant).map(move |o| (t, o)))
        .filter(|key| !schedule.survivors().contains_key(key));
    for (tenant, offset) in deleted.take(4) {
        let mut probe = ClusterClient::connect(map.clone()).expect("connect fleet");
        assert!(
            probe
                .read(Lba((tenant << DEFAULT_STREAM_SHIFT) | offset))
                .is_err(),
            "tenant {tenant} offset {offset} was deleted but still reads"
        );
    }
    n1.shutdown().expect("drain node 1");
    n2.shutdown().expect("drain node 2");
}

#[test]
fn per_node_drain_exports_are_byte_stable_across_worker_counts() {
    // One sequential fan-out connection, so each node sees a
    // deterministic op order; the backend worker count must then be
    // invisible in every node's drain-time export.
    let run = |workers: usize| {
        let n1 = spawn_node(1, workers);
        let n2 = spawn_node(2, workers);
        let map = fleet_map(&[&n1, &n2]);
        push_map(&map).expect("install map");
        let report =
            run_traffic(|| ClusterClient::connect(map.clone()), 1, 120, 7).expect("traffic");
        assert_eq!(report.verify_failures, 0);
        vec![
            deterministic_drain_json(&n1.shutdown().expect("drain node 1")),
            deterministic_drain_json(&n2.shutdown().expect("drain node 2")),
        ]
    };
    assert_eq!(
        run(1),
        run(4),
        "a node's metrics export must not depend on --workers"
    );
}

#[test]
fn injected_corruption_makes_verification_fail_loudly() {
    // A server that flips a byte in every 3rd read reply: the client
    // must count the mismatches and ensure_verified() must turn them
    // into a hard error — the path the `fidr client` subcommand exits
    // non-zero through.
    let handle = Server::spawn(ServerConfig {
        system: small_system(),
        corrupt: Some(CorruptFault { every: 3 }),
        ..ServerConfig::default()
    })
    .expect("bind loopback");

    let addr = handle.local_addr();
    let report =
        run_traffic(|| StorageClient::connect(addr), 2, 90, 13).expect("traffic completes");
    assert!(
        report.verify_failures > 0,
        "the injected corruption was never observed"
    );
    let err = report
        .ensure_verified()
        .expect_err("corrupted reads must not pass verification");
    assert!(
        err.to_string().contains("VERIFY FAILED"),
        "summary must be loud, got: {err}"
    );
    match err {
        ClientError::VerifyFailed { failures, reads } => {
            assert_eq!(failures, report.verify_failures);
            assert_eq!(reads, report.reads);
        }
        other => panic!("expected VerifyFailed, got {other:?}"),
    }
    handle.shutdown().expect("drain");
}

#[test]
fn port_file_readers_retry_until_an_atomic_publish_lands() {
    let dir = std::env::temp_dir().join(format!("fidr-portfile-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("port");

    // Nothing published: a bounded wait times out instead of hanging or
    // propagating NotFound.
    let err = read_port_file(&path, Duration::from_millis(40)).expect_err("no file yet");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);

    // Unparsable interim contents (the legacy bare-port format) keep
    // the reader retrying; the atomic rename then lands the real
    // address and the reader picks it up.
    std::fs::write(&path, "51").expect("write interim contents");
    let addr: std::net::SocketAddr = "127.0.0.1:4567".parse().unwrap();
    let publisher = std::thread::spawn({
        let path = path.clone();
        move || {
            std::thread::sleep(Duration::from_millis(30));
            fidr::server::write_port_file(&path, addr).expect("publish");
        }
    });
    let got = read_port_file(&path, Duration::from_secs(10)).expect("retry until published");
    assert_eq!(got, addr);
    publisher.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_client_refuses_an_unroutable_map() {
    // An empty map has nowhere to route.
    if let Ok(map) = ShardRouter::from_nodes(Vec::new()) {
        match ClusterClient::connect(map) {
            Err(ClientError::NoRoute(_)) => {}
            Err(other) => panic!("empty map must be NoRoute, got {other:?}"),
            Ok(_) => panic!("empty map must not connect"),
        }
    }

    // A map naming an address nobody listens on fails at connect, not
    // at first use. LBA-keyed writes never silently drop.
    let map = ShardRouter::from_nodes(vec![ShardNode {
        id: 1,
        addr: "127.0.0.1:1".into(),
    }])
    .expect("one-node map");
    assert!(
        ClusterClient::connect(map).is_err(),
        "connecting to a dead node must error eagerly"
    );

    // A write through a routed fleet whose payload is fine must ack;
    // sanity-check the Bytes plumbing end to end with one real node.
    let node = spawn_node(1, 1);
    let map = fleet_map(&[&node]);
    push_map(&map).expect("install");
    let mut fleet = ClusterClient::connect(map).expect("connect");
    fleet
        .write(Lba(3), Bytes::from(vec![5u8; 4096]))
        .expect("routed write");
    assert_eq!(fleet.read(Lba(3)).expect("routed read"), vec![5u8; 4096]);
    drop(fleet);
    node.shutdown().expect("drain");
}
