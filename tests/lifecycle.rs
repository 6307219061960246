//! End-to-end data-lifecycle tests: write → overwrite → delete → GC →
//! verify, over the wire and in-process.
//!
//! The lifecycle contract under test: every acked delete unmaps its
//! LBA; shared chunks survive until their *last* reference drops; GC
//! reclaims real space without ever touching a referenced chunk; and
//! the whole pipeline stays deterministic — the same churn schedule
//! produces byte-identical metrics and spans exports for any
//! `--workers` value.

mod common;

use bytes::Bytes;
use common::small_system;
use fidr::chunk::Lba;
use fidr::client::{run_churn, run_churn_verify, StorageClient};
use fidr::compress::ContentGenerator;
use fidr::core::{FidrConfig, FidrSystem, DEFAULT_STREAM_SHIFT};
use fidr::server::{Server, ServerConfig};
use fidr::trace::TraceConfig;
use fidr::workload::{churn_tag, ChurnKind, ChurnSchedule, ChurnSpec};

fn churn_spec() -> ChurnSpec {
    ChurnSpec {
        tenants: 2,
        blocks_per_tenant: 40,
        rounds: 3,
        delete_pct: 40,
        seed: 9,
    }
}

/// Replays a churn schedule directly into an in-process system.
fn churn_in_process(sys: &mut FidrSystem, spec: ChurnSpec) {
    let gen = ContentGenerator::new(0.5);
    let schedule = ChurnSchedule::generate(spec);
    for op in schedule.ops() {
        let lba = Lba((op.tenant << DEFAULT_STREAM_SHIFT) | op.offset);
        match op.kind {
            ChurnKind::Write { round } => {
                let tag = churn_tag(spec.seed, op.tenant, op.offset, round);
                sys.write(lba, Bytes::from(gen.chunk(tag, 4096))).unwrap();
            }
            ChurnKind::Delete => sys.delete(lba).unwrap(),
        }
    }
}

#[test]
fn wire_lifecycle_deletes_gc_and_survivors_verify() {
    let spec = churn_spec();
    let schedule = ChurnSchedule::generate(spec);
    assert!(schedule.deletes() > 0, "spec must actually churn");

    // --gc-every 16: GC runs inline on the delete path, plus whenever
    // the serving loop goes idle with dead chunks pending.
    let handle = Server::spawn(ServerConfig {
        system: small_system(),
        gc_every: 16,
        gc_threshold: 0.5,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = handle.local_addr();

    let mut client = StorageClient::connect(addr).expect("connect");
    let report = run_churn(&mut client, spec, DEFAULT_STREAM_SHIFT).expect("churn completes");
    assert_eq!(report.deletes, schedule.deletes(), "every delete acked");

    // Survivors — derived purely from the spec — read back byte-exact
    // through a *fresh* connection, after GC has been running inline.
    let mut fresh = StorageClient::connect(addr).expect("connect");
    let verify = run_churn_verify(&mut fresh, spec, DEFAULT_STREAM_SHIFT)
        .expect("survivor reads succeed")
        .ensure_verified()
        .expect("every survivor byte-identical");
    assert_eq!(verify.reads, schedule.survivors().len() as u64);
    drop(fresh);

    // A deleted block is gone at the wire level: reading it is a
    // connection-closing failure, same contract as a never-written LBA.
    let deleted = {
        let mut found = None;
        'outer: for tenant in 0..spec.tenants {
            for offset in 0..spec.blocks_per_tenant {
                if !schedule.survivors().contains_key(&(tenant, offset)) {
                    found = Some(Lba((tenant << DEFAULT_STREAM_SHIFT) | offset));
                    break 'outer;
                }
            }
        }
        found.expect("churn left at least one deleted block")
    };
    let mut probe = StorageClient::connect(addr).expect("connect");
    assert!(
        probe.read(deleted).is_err(),
        "read of a deleted LBA must not be served"
    );
    drop(probe);
    drop(client);

    let metrics = handle.shutdown().expect("drain");
    let count = |name: &str| metrics.counter(name).unwrap_or(0);
    assert_eq!(count("server.ops.delete.count"), schedule.deletes());
    assert_eq!(count("delete.acked.count"), schedule.deletes());
    assert!(count("server.gc.passes.count") > 0, "inline GC cadence ran");
    assert!(count("gc.runs.count") > 0);
    assert!(
        count("gc.reclaimed_bytes") > 0,
        "churn-then-gc must free real space"
    );
}

#[test]
fn lifecycle_metrics_and_spans_are_byte_identical_across_worker_counts() {
    let spec = churn_spec();
    let mut exports = Vec::new();
    for workers in [1usize, 4] {
        let mut sys = FidrSystem::new(FidrConfig {
            workers,
            trace: TraceConfig::enabled(),
            ..small_system()
        });
        churn_in_process(&mut sys, spec);
        sys.flush().unwrap();
        let report = sys.collect_garbage(0.5).unwrap();
        assert!(report.freed_bytes > 0, "workers={workers}: gc freed space");
        exports.push((
            sys.metrics().to_json(),
            fidr::trace::chrome_trace_json(&sys.tracer().spans()),
        ));
    }
    assert_eq!(
        exports[0].0, exports[1].0,
        "metrics export must be byte-identical across worker counts"
    );
    assert_eq!(
        exports[0].1, exports[1].1,
        "spans export must be byte-identical across worker counts"
    );
}

#[test]
fn gc_never_reclaims_a_referenced_chunk_even_under_shared_content() {
    // Two LBAs share one chunk; deleting one and collecting aggressively
    // (threshold 1.1 selects *every* sealed container) must keep the
    // other readable byte-exactly.
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(small_system());
    sys.write(Lba(1), Bytes::from(gen.chunk(7, 4096))).unwrap();
    sys.write(Lba(2), Bytes::from(gen.chunk(7, 4096))).unwrap();
    // Enough distinct filler to seal the container holding the shared
    // chunk.
    for i in 0..40u64 {
        sys.write(Lba(100 + i), Bytes::from(gen.chunk(1000 + i, 4096)))
            .unwrap();
        sys.delete(Lba(100 + i)).unwrap();
    }
    sys.flush().unwrap();
    sys.delete(Lba(1)).unwrap();
    let report = sys.collect_garbage(1.1).unwrap();
    assert!(report.reclaimed_pbns > 0);
    assert_eq!(
        sys.read(Lba(2)).unwrap(),
        gen.chunk(7, 4096),
        "surviving reference reads back byte-identical after compaction"
    );
    assert!(sys.read(Lba(1)).is_err(), "deleted LBA stays deleted");
    assert!(sys.verify_integrity().unwrap() > 0);
}
