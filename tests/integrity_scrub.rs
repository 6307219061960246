//! Integrity scrub: clean stores verify end-to-end; verification
//! composes with GC, compaction and restore.

#[macro_use]
mod common;

use bytes::Bytes;
use common::Engine;
use fidr::baseline::{BaselineConfig, BaselineSystem};
use fidr::chunk::Lba;
use fidr::compress::ContentGenerator;
use fidr::core::{FidrConfig, FidrSystem};

fn fidr_cfg() -> FidrConfig {
    FidrConfig {
        cache_lines: 64,
        table_buckets: 1 << 12,
        container_threshold: 64 << 10,
        hash_batch: 16,
        ..FidrConfig::default()
    }
}

#[test]
fn clean_stores_verify() {
    let gen = ContentGenerator::new(0.5);
    let mut fidr = FidrSystem::new(fidr_cfg());
    let mut base = BaselineSystem::new(BaselineConfig::default());
    for i in 0..200u64 {
        let data = Bytes::from(gen.chunk(i % 50, 4096));
        fidr.write(Lba(i), data.clone()).unwrap();
        base.write(Lba(i), data).unwrap();
    }
    fidr.flush().unwrap();
    base.flush().unwrap();
    assert_eq!(fidr.verify_integrity().unwrap(), 50);
    assert_eq!(base.verify_integrity().unwrap(), 50);
}

fn scrub_survives_gc_and_compaction<E: Engine>() {
    let gen = ContentGenerator::new(0.5);
    let mut sys = E::new(fidr::faults::FaultPlan::default());
    for i in 0..128u64 {
        sys.write(Lba(i), Bytes::from(gen.chunk(i, 4096))).unwrap();
    }
    sys.flush().unwrap();
    for i in 0..96u64 {
        sys.write(Lba(i), Bytes::from(gen.chunk(500 + i, 4096)))
            .unwrap();
    }
    sys.flush().unwrap();
    sys.collect_garbage(0.5).unwrap();
    sys.flush().unwrap();
    assert_eq!(sys.verify_integrity().unwrap(), 128);
}

for_both_engines!(scrub_survives_gc_and_compaction);

#[test]
fn scrub_survives_checkpoint_restore() {
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(fidr_cfg());
    for i in 0..100u64 {
        sys.write(Lba(i), Bytes::from(gen.chunk(i % 30, 4096)))
            .unwrap();
    }
    let snap = sys.checkpoint().unwrap();
    let mut restored = FidrSystem::restore(fidr_cfg(), snap);
    assert_eq!(restored.verify_integrity().unwrap(), 30);
}

#[test]
fn scrub_detects_injected_corruption() {
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(FidrConfig {
        container_threshold: 32 << 10,
        ..fidr_cfg()
    });
    for i in 0..64u64 {
        sys.write(Lba(i), Bytes::from(gen.chunk(i, 4096))).unwrap();
    }
    sys.flush().unwrap();
    assert!(sys.stats().containers_sealed >= 1);
    assert!(sys.verify_integrity().is_ok());

    assert!(sys.inject_data_corruption(0, 100));
    let scrub = sys.verify_integrity();
    assert!(
        scrub.is_err(),
        "scrub must detect the flipped bit: {scrub:?}"
    );
}

#[test]
fn baseline_scrub_detects_injected_corruption() {
    let gen = ContentGenerator::new(0.5);
    let mut sys = BaselineSystem::new(BaselineConfig {
        container_threshold: 32 << 10,
        ..BaselineConfig::default()
    });
    for i in 0..64u64 {
        sys.write(Lba(i), Bytes::from(gen.chunk(500 + i, 4096)))
            .unwrap();
    }
    sys.flush().unwrap();
    assert!(sys.verify_integrity().is_ok());
    assert!(sys.inject_data_corruption(0, 64));
    assert!(sys.verify_integrity().is_err());
}

#[test]
fn corrupting_nonexistent_location_is_reported() {
    let mut sys = FidrSystem::new(fidr_cfg());
    assert!(!sys.inject_data_corruption(999, 0));
}
