//! Restart recovery: checkpoint a loaded FIDR server, serialize the
//! snapshot through its binary image, restore into a fresh process-worth
//! of state, and verify the restored server is indistinguishable — every
//! read, continued dedup against old content, and pending GC state.

#[macro_use]
mod common;

use bytes::Bytes;
use common::Engine;
use fidr::chunk::Lba;
use fidr::compress::ContentGenerator;
use fidr::core::{FidrConfig, FidrSystem, Snapshot};
use fidr::faults::FaultPlan;
use fidr::workload::{Request, Workload, WorkloadSpec};
use std::collections::HashMap;

fn cfg() -> FidrConfig {
    FidrConfig {
        cache_lines: 128,
        table_buckets: 1 << 12,
        container_threshold: 128 << 10,
        hash_batch: 16,
        ..FidrConfig::default()
    }
}

#[test]
fn restored_server_answers_every_read() {
    let mut sys = FidrSystem::new(cfg());
    let mut expected: HashMap<Lba, Bytes> = HashMap::new();
    for req in Workload::new(WorkloadSpec::write_m(2_000)) {
        if let Request::Write { lba, data } = req {
            sys.write(lba, data.clone()).unwrap();
            expected.insert(lba, data);
        }
    }
    let image = sys.checkpoint().unwrap().encode();
    drop(sys);

    let snapshot = Snapshot::decode(&image).unwrap();
    let mut restored = FidrSystem::restore(cfg(), snapshot);
    for (lba, data) in &expected {
        assert_eq!(restored.read(*lba).unwrap(), data.to_vec(), "{lba}");
    }
}

#[test]
fn restored_server_dedups_against_old_content() {
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(cfg());
    for i in 0..100u64 {
        sys.write(Lba(i), Bytes::from(gen.chunk(i, 4096))).unwrap();
    }
    let snapshot = sys.checkpoint().unwrap();
    let uniques_before = sys.stats().unique_chunks;
    assert_eq!(uniques_before, 100);

    let mut restored = FidrSystem::restore(cfg(), snapshot);
    // Re-writing pre-checkpoint content must dedup, not re-store.
    for i in 0..100u64 {
        restored
            .write(Lba(1000 + i), Bytes::from(gen.chunk(i, 4096)))
            .unwrap();
    }
    restored.flush().unwrap();
    assert_eq!(restored.stats().unique_chunks, 0, "all dups of old content");
    assert_eq!(restored.stats().duplicate_chunks, 100);
    // And new content still allocates fresh PBNs beyond the old cursor.
    restored
        .write(Lba(5000), Bytes::from(gen.chunk(999_999, 4096)))
        .unwrap();
    restored.flush().unwrap();
    assert_eq!(restored.stats().unique_chunks, 1);
}

fn gc_state_survives_restart<E: Engine>() {
    let gen = ContentGenerator::new(0.5);
    let mut sys = E::new(FaultPlan::default());
    for i in 0..64u64 {
        sys.write(Lba(i), Bytes::from(gen.chunk(i, 4096))).unwrap();
    }
    sys.flush().unwrap();
    // Kill three quarters of the chunks, then checkpoint with the dead
    // list still pending.
    for i in 0..48u64 {
        sys.write(Lba(i), Bytes::from(gen.chunk(1000 + i, 4096)))
            .unwrap();
    }
    let snapshot = sys.checkpoint().unwrap();
    assert_eq!(sys.pending_dead_chunks(), 48);

    let mut restored = E::restore(FaultPlan::default(), snapshot);
    assert_eq!(restored.pending_dead_chunks(), 48);
    let report = restored.collect_garbage(0.5).unwrap();
    assert_eq!(report.reclaimed_pbns, 48);
    assert!(report.compacted_containers >= 1);
    // Everything still reads correctly after a post-restart GC.
    for i in 0..64u64 {
        let want = if i < 48 {
            gen.chunk(1000 + i, 4096)
        } else {
            gen.chunk(i, 4096)
        };
        assert_eq!(restored.read(Lba(i)).unwrap(), want, "LBA {i}");
    }
}

/// Churned state with every checkpoint section populated: live and dead
/// chunks, several sealed containers, a pending dead list.
fn churned<E: Engine>() -> E {
    let gen = ContentGenerator::new(0.5);
    let mut sys = E::new(FaultPlan::default());
    for i in 0..96u64 {
        sys.write(Lba(i), Bytes::from(gen.chunk(i % 80, 4096)))
            .unwrap();
    }
    for i in 0..40u64 {
        sys.write(Lba(i), Bytes::from(gen.chunk(500 + i, 4096)))
            .unwrap();
    }
    for i in 30..50u64 {
        sys.delete(Lba(i)).unwrap();
    }
    sys
}

fn checkpoint_image_is_deterministic<E: Engine>() {
    // Two identically driven stores encode to the same bytes (the maps
    // behind the snapshot iterate in a per-process random order)...
    let image = churned::<E>().checkpoint().unwrap().encode();
    assert_eq!(image, churned::<E>().checkpoint().unwrap().encode());
    // ...and decode → restore → checkpoint → encode is a fixed point.
    let snapshot = Snapshot::decode(&image).unwrap();
    let mut restored = E::restore(FaultPlan::default(), snapshot);
    assert_eq!(restored.checkpoint().unwrap().encode(), image);
    // Post-restore compaction lays survivors out the same way every run.
    let compacted = || {
        let snapshot = Snapshot::decode(&image).unwrap();
        let mut sys = E::restore(FaultPlan::default(), snapshot);
        let report = sys.collect_garbage(0.9).unwrap();
        assert!(report.moved_chunks > 0, "{report:?}");
        sys.checkpoint().unwrap().encode()
    };
    assert_eq!(compacted(), compacted());
}

for_both_engines!(gc_state_survives_restart, checkpoint_image_is_deterministic);

#[test]
fn corrupt_image_is_rejected_not_misread() {
    let mut sys = FidrSystem::new(cfg());
    sys.write(Lba(0), Bytes::from(vec![7u8; 4096])).unwrap();
    let mut image = sys.checkpoint().unwrap().encode();
    let mid = image.len() / 2;
    image.truncate(mid);
    assert!(Snapshot::decode(&image).is_err());
}
