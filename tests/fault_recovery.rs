//! Fault injection and recovery: seeded fault plans drive the device
//! models while both systems recover transparently — no acked write may
//! be lost, transient read corruption must heal via checksum re-reads,
//! and a dead Cache HW-Engine must degrade to the software cache.
//!
//! Every plan here is seeded, so each test is bit-reproducible: a seed
//! that passes once passes forever.

#[macro_use]
mod common;

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use common::Engine;
use fidr::baseline::{BaselineConfig, BaselineSystem};
use fidr::chunk::Lba;
use fidr::compress::ContentGenerator;
use fidr::core::{FidrConfig, FidrSystem, Snapshot};
use fidr::faults::FaultPlan;
use fidr::ssd::{DataSsdArray, DataSsdError};
use fidr::tables::{ContainerBuilder, CHUNK_HEADER_BYTES};

fn chunk(gen: &ContentGenerator, tag: u64) -> Bytes {
    Bytes::from(gen.chunk(tag, 4096))
}

fn faulty_cfg(plan: FaultPlan) -> FidrConfig {
    FidrConfig {
        cache_lines: 64,
        table_buckets: 1 << 12,
        container_threshold: 64 << 10,
        hash_batch: 8,
        faults: plan,
        ..FidrConfig::default()
    }
}

/// Flush with a bounded retry loop: injected device faults can fail a
/// flush transiently, but fresh draws on the next attempt let it land.
fn flush_until_ok(sys: &mut FidrSystem) {
    for _ in 0..32 {
        if sys.flush().is_ok() {
            return;
        }
    }
    panic!("flush still failing after 32 attempts");
}

#[test]
fn seeded_fault_runs_are_bit_reproducible() {
    let plan = FaultPlan::parse(
        "seed=42,data_write=0.05,data_read=0.05,corrupt=0.05,table_read=0.03,table_write=0.03,nic=0.05",
    )
    .unwrap();
    let run = || {
        let gen = ContentGenerator::new(0.5);
        let mut sys = FidrSystem::new(faulty_cfg(plan));
        let mut failed_writes = Vec::new();
        for i in 0..400u64 {
            if sys.write(Lba(i % 150), chunk(&gen, i)).is_err() {
                failed_writes.push(i);
            }
        }
        flush_until_ok(&mut sys);
        let mut failed_reads = Vec::new();
        for i in 0..150u64 {
            if sys.read(Lba(i)).is_err() {
                failed_reads.push(i);
            }
        }
        let snapshot = sys.metrics();
        let counters: Vec<(String, u64)> = snapshot
            .iter()
            .filter_map(|(name, _)| snapshot.counter(name).map(|v| (name.to_string(), v)))
            .collect();
        (failed_writes, failed_reads, counters)
    };
    let first = run();
    let second = run();
    let injected_total: u64 = first
        .2
        .iter()
        .filter(|(name, _)| name.starts_with("faults.") && name.ends_with(".injected"))
        .map(|(_, v)| v)
        .sum();
    assert!(injected_total > 0, "plan should actually inject faults");
    assert_eq!(
        first, second,
        "same seed + same workload must replay bit-identically"
    );
}

#[test]
fn no_acked_write_is_lost_under_mixed_faults() {
    let plan = FaultPlan::parse(
        "seed=7,data_write=0.35,data_read=0.05,corrupt=0.08,table_read=0.05,table_write=0.25,nic=0.05",
    )
    .unwrap();
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(faulty_cfg(plan));

    // `expect` tracks the last acked value per LBA; `ambiguous` marks
    // LBAs whose most recent write errored — the chunk may or may not
    // have entered the NIC buffer before the failure, so the committed
    // value is legitimately either the old or the attempted one.
    let mut expect: HashMap<u64, u64> = HashMap::new();
    let mut ambiguous: HashSet<u64> = HashSet::new();
    for i in 0..600u64 {
        let lba = i % 150;
        let tag = 1000 + i;
        match sys.write(Lba(lba), chunk(&gen, tag)) {
            Ok(()) => {
                expect.insert(lba, tag);
                ambiguous.remove(&lba);
            }
            Err(_) => {
                ambiguous.insert(lba);
            }
        }
    }
    flush_until_ok(&mut sys);

    for (lba, tag) in &expect {
        if ambiguous.contains(lba) {
            continue;
        }
        let got = sys
            .read(Lba(*lba))
            .unwrap_or_else(|e| panic!("acked write to lba {lba} lost: read failed with {e}"));
        assert_eq!(
            got,
            gen.chunk(*tag, 4096),
            "acked write to lba {lba} corrupted"
        );
    }

    // Recovery left the store scrubbable: every stored chunk verifies
    // against its fingerprint (transient read corruption heals inline).
    sys.verify_integrity()
        .expect("post-fault scrub must be clean");

    let m = sys.metrics();
    assert!(
        m.counter("ssd.data.retry.attempts").unwrap_or(0) > 0,
        "aggressive data_write plan must exercise the device retry path"
    );
}

/// A batch whose lookups or commits fail stays open at its first
/// uncommitted entry: the next write or flush resumes it, so no acked
/// write is left only in the NIC buffer when a checkpoint is taken.
#[test]
fn failed_batch_keeps_its_acked_tail() {
    let plans = ["seed=3,table_read=0.6", "seed=5,data_write=0.5"];
    for spec in plans {
        for hash_batch in [8, 64] {
            let cfg = FidrConfig {
                hash_batch,
                retry: fidr::faults::RetryPolicy {
                    max_retries: 1,
                    ..Default::default()
                },
                ..faulty_cfg(FaultPlan::parse(spec).unwrap())
            };
            let gen = ContentGenerator::new(0.5);
            let mut sys = FidrSystem::new(cfg.clone());
            let mut acked = Vec::new();
            let mut failed = 0;
            for i in 0..400u64 {
                match sys.write(Lba(i), chunk(&gen, i)) {
                    Ok(()) => acked.push(i),
                    Err(_) => failed += 1,
                }
            }
            assert!(failed > 0, "{spec} at batch {hash_batch} must fail writes");
            flush_until_ok(&mut sys);
            let snapshot = (0..32)
                .find_map(|_| sys.checkpoint().ok())
                .expect("checkpoint still failing after 32 attempts");
            let mut restored = FidrSystem::restore(
                FidrConfig {
                    faults: FaultPlan::default(),
                    ..cfg
                },
                snapshot,
            );
            let lost: Vec<u64> = acked
                .iter()
                .copied()
                .filter(|&i| restored.read(Lba(i)).ok() != Some(gen.chunk(i, 4096)))
                .collect();
            assert!(
                lost.is_empty(),
                "{spec} at batch {hash_batch}: {} of {} acked writes lost, first {:?}",
                lost.len(),
                acked.len(),
                &lost[..lost.len().min(8)]
            );
        }
    }
}

#[test]
fn hw_engine_failure_degrades_to_software_cache() {
    let plan = FaultPlan::parse("seed=1,engine_at=50").unwrap();
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(faulty_cfg(plan));
    for i in 0..200u64 {
        sys.write(Lba(i), chunk(&gen, i)).unwrap();
    }
    sys.flush().unwrap();
    assert!(
        sys.hw_engine_degraded(),
        "engine_at=50 must trip within a 200-write workload"
    );

    // Reads still serve correctly through the software cache.
    for i in 0..200u64 {
        assert_eq!(sys.read(Lba(i)).unwrap(), gen.chunk(i, 4096));
    }
    sys.verify_integrity().unwrap();

    let m = sys.metrics();
    assert_eq!(m.counter("degraded.hw_engine.count"), Some(1));
    assert_eq!(m.counter("cache.hw_engine.enabled"), Some(0));
    // The retired engine's stats survive degradation instead of vanishing.
    assert!(
        m.counter("hwtree.searches.count").unwrap_or(0) > 0,
        "pre-failure HW-tree traffic must remain visible after degradation"
    );
    // Cache accesses span both backends: the merged view keeps counting.
    assert!(sys.cache_stats().accesses > 0);
}

#[test]
fn transient_read_corruption_heals_via_reread() {
    let plan = FaultPlan::parse("seed=9,corrupt=0.15").unwrap();
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(faulty_cfg(plan));
    for i in 0..80u64 {
        sys.write(Lba(i), chunk(&gen, i)).unwrap();
    }
    sys.flush().unwrap();
    for pass in 0..2 {
        for i in 0..80u64 {
            assert_eq!(
                sys.read(Lba(i)).unwrap(),
                gen.chunk(i, 4096),
                "pass {pass} lba {i}: in-flight corruption must heal transparently"
            );
        }
    }
    assert_eq!(sys.verify_integrity().unwrap(), 80);

    let m = sys.metrics();
    let detected = m.counter("retry.read_repair.detected").unwrap_or(0);
    let repaired = m.counter("retry.read_repair.repaired").unwrap_or(0);
    assert!(
        detected > 0,
        "corrupt=0.15 over 240 reads must trip detection"
    );
    assert_eq!(repaired, detected, "every transient corruption must repair");
    assert_eq!(m.counter("retry.read_repair.unrecovered"), Some(0));
}

#[test]
fn persistent_corruption_still_fails_scrub() {
    // The recovery layer must not mask real (stored) corruption: only
    // in-flight faults heal on re-read; a flipped byte on the device
    // mismatches the fingerprint on every attempt.
    let plan = FaultPlan::parse("seed=3,corrupt=0.05").unwrap();
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(FidrConfig {
        container_threshold: 32 << 10,
        ..faulty_cfg(plan)
    });
    for i in 0..64u64 {
        sys.write(Lba(i), chunk(&gen, i)).unwrap();
    }
    sys.flush().unwrap();
    assert!(sys.verify_integrity().is_ok());

    assert!(sys.inject_data_corruption(0, 100));
    assert!(
        sys.verify_integrity().is_err(),
        "persistent corruption must survive the re-read budget and fail the scrub"
    );
    let m = sys.metrics();
    assert!(
        m.counter("retry.read_repair.unrecovered").unwrap_or(0) >= 1,
        "exhausted re-reads must be counted as unrecovered"
    );
}

#[test]
fn nic_pressure_drains_without_losing_writes() {
    // Seed chosen so the longest injected-pressure streak stays inside
    // the bounded backoff budget: with p=0.15 the expected streak is
    // short, but an unlucky seed can exceed max_retries and correctly
    // surface NicBufferFull — which is not what this test is about.
    let plan = FaultPlan::parse("seed=13,nic=0.15").unwrap();
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(faulty_cfg(plan));
    for i in 0..200u64 {
        sys.write(Lba(i), chunk(&gen, i))
            .unwrap_or_else(|e| panic!("write {i} must ride out NIC pressure: {e}"));
    }
    sys.flush().unwrap();
    for i in 0..200u64 {
        assert_eq!(sys.read(Lba(i)).unwrap(), gen.chunk(i, 4096));
    }
    let m = sys.metrics();
    assert!(
        m.counter("faults.nic_pressure.injected").unwrap_or(0) > 0,
        "nic=0.25 over 200 writes must inject pressure"
    );
    assert_eq!(
        m.counter("nic.faults.pressure"),
        m.counter("faults.nic_pressure.injected")
    );
}

#[test]
fn failed_operations_still_record_latency() {
    // Regression for the success-only latency recording bug: error
    // outcomes must land in the op histograms and per-kind counters.
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(faulty_cfg(FaultPlan::default()));
    assert!(sys.read(Lba(99)).is_err());
    assert!(sys.write(Lba(0), Bytes::from(vec![0u8; 100])).is_err());
    sys.write(Lba(0), chunk(&gen, 0)).unwrap();
    let m = sys.metrics();
    assert_eq!(m.counter("system.read.errors.not_mapped"), Some(1));
    assert_eq!(m.counter("system.write.errors.bad_chunk_size"), Some(1));
    assert_eq!(m.histogram("system.read.ns").unwrap().count, 1);
    assert_eq!(m.histogram("system.write.ns").unwrap().count, 2);

    let mut base = BaselineSystem::new(BaselineConfig::default());
    assert!(base.read(Lba(99)).is_err());
    assert!(base.write(Lba(0), Bytes::from(vec![0u8; 100])).is_err());
    base.write(Lba(0), chunk(&gen, 0)).unwrap();
    let m = base.metrics();
    assert_eq!(m.counter("system.read.errors.not_mapped"), Some(1));
    assert_eq!(m.counter("system.write.errors.bad_chunk_size"), Some(1));
    assert_eq!(m.histogram("system.read.ns").unwrap().count, 1);
    assert_eq!(m.histogram("system.write.ns").unwrap().count, 2);
}

#[test]
fn baseline_recovers_from_transient_faults() {
    let plan = FaultPlan::parse("seed=13,data_write=0.2,corrupt=0.1,table_write=0.15").unwrap();
    let gen = ContentGenerator::new(0.5);
    let mut sys = BaselineSystem::new(BaselineConfig {
        cache_lines: 64,
        table_buckets: 1 << 12,
        container_threshold: 64 << 10,
        faults: plan,
        ..BaselineConfig::default()
    });
    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut ambiguous: HashSet<u64> = HashSet::new();
    for i in 0..300u64 {
        let lba = i % 100;
        match sys.write(Lba(lba), chunk(&gen, 2000 + i)) {
            Ok(()) => {
                acked.insert(lba, 2000 + i);
                ambiguous.remove(&lba);
            }
            Err(_) => {
                ambiguous.insert(lba);
            }
        }
    }
    let mut flushed = false;
    for _ in 0..32 {
        if sys.flush().is_ok() {
            flushed = true;
            break;
        }
    }
    assert!(flushed, "baseline flush still failing after 32 attempts");
    for (lba, tag) in &acked {
        if ambiguous.contains(lba) {
            continue;
        }
        assert_eq!(
            sys.read(Lba(*lba)).unwrap(),
            gen.chunk(*tag, 4096),
            "baseline acked write to lba {lba} lost"
        );
    }
    sys.verify_integrity()
        .expect("baseline post-fault scrub must be clean");
}

/// Ages a store with churn: 64 blocks written, the first 40 overwritten
/// (stranding dead generations), 24 of those then deleted outright.
/// Returns the expected live contents.
fn age_store<E: Engine>(sys: &mut E, gen: &ContentGenerator) -> HashMap<u64, u64> {
    let mut live = HashMap::new();
    for i in 0..64u64 {
        sys.write(Lba(i), chunk(gen, i)).unwrap();
        live.insert(i, i);
    }
    sys.flush().unwrap();
    for i in 0..40u64 {
        sys.write(Lba(i), chunk(gen, 500 + i)).unwrap();
        live.insert(i, 500 + i);
    }
    for i in 0..24u64 {
        sys.delete(Lba(i)).unwrap();
        live.remove(&i);
    }
    sys.flush().unwrap();
    live
}

fn crash_mid_gc_never_reclaims_a_referenced_chunk<E: Engine>() {
    // A GC pass that dies partway — device faults on the survivor
    // copy-out or the table update — must never cost a referenced
    // chunk: not in the still-running process, and not after a crash
    // that recovers from the last durable checkpoint.
    let gen = ContentGenerator::new(0.5);
    let mut sys = E::new(FaultPlan::default());
    let live = age_store(&mut sys, &gen);
    assert!(sys.pending_dead_chunks() > 0, "churn left garbage behind");

    // The durable image a crash recovers from, taken before GC starts.
    let image = sys.checkpoint().unwrap().encode();
    drop(sys);

    for seed in 1..=8 {
        // Restore into a config with an aggressive device-fault plan and
        // run GC until a pass fails mid-flight.
        let plan = FaultPlan::parse(&format!(
            "seed={seed},data_write=0.9,table_write=0.9,data_read=0.2"
        ))
        .unwrap();
        let snapshot = Snapshot::decode(&image).unwrap();
        let mut faulty = E::restore(plan, snapshot);
        let failed_passes = (0..12)
            .filter(|_| faulty.collect_garbage(1.1).is_err())
            .count();
        assert!(
            failed_passes > 0,
            "seed {seed}: the fault plan must kill at least one GC pass mid-flight"
        );
        // The interrupted collector left every referenced chunk readable
        // in the still-running process (bounded retries ride out the
        // injected read faults).
        for (&lba, &tag) in &live {
            let got = (0..32).find_map(|_| faulty.read(Lba(lba)).ok());
            assert_eq!(
                got.expect("read must succeed within the retry budget"),
                gen.chunk(tag, 4096),
                "seed {seed}: lba {lba} after interrupted GC"
            );
        }
        // Dropping `faulty` is the crash: in-memory GC progress is gone.
    }

    // Recovery: restore the durable checkpoint, collect cleanly, and
    // prove byte-exact survivors, dead deletes, and a clean scrub.
    let snapshot = Snapshot::decode(&image).unwrap();
    let mut recovered = E::restore(FaultPlan::default(), snapshot);
    let report = recovered.collect_garbage(0.9).unwrap();
    assert!(
        report.reclaimed_pbns > 0,
        "recovered GC reclaims the garbage"
    );
    assert!(report.freed_bytes > 0, "recovered GC frees real space");
    for (&lba, &tag) in &live {
        assert_eq!(
            recovered.read(Lba(lba)).unwrap(),
            gen.chunk(tag, 4096),
            "lba {lba} after crash-recovery GC"
        );
    }
    for i in 0..24u64 {
        assert!(
            recovered.read(Lba(i)).is_err(),
            "deleted lba {i} must stay deleted through crash recovery"
        );
    }
    recovered
        .verify_integrity()
        .expect("post-recovery scrub must be clean");
}

fn acked_deletes_survive_recovery<E: Engine>() {
    // An acked delete is a durability promise in both directions: the
    // unmap must survive a restart (the LBA stays gone), and so must
    // the pending-garbage bookkeeping that lets the post-restart
    // collector reclaim the dead chunks.
    let gen = ContentGenerator::new(0.5);
    let mut sys = E::new(FaultPlan::default());
    let live = age_store(&mut sys, &gen);
    let pending = sys.pending_dead_chunks();
    assert!(pending > 0);

    let image = sys.checkpoint().unwrap().encode();
    drop(sys); // the crash

    let snapshot = Snapshot::decode(&image).unwrap();
    let mut restored = E::restore(FaultPlan::default(), snapshot);
    assert_eq!(
        restored.pending_dead_chunks(),
        pending,
        "the garbage queue survives the restart"
    );
    for i in 0..24u64 {
        assert!(
            restored.read(Lba(i)).is_err(),
            "acked delete of lba {i} lost across restart"
        );
    }
    for (&lba, &tag) in &live {
        assert_eq!(restored.read(Lba(lba)).unwrap(), gen.chunk(tag, 4096));
    }
    // Deleting an already-deleted LBA is still refused after restart.
    assert!(restored.delete(Lba(0)).is_err());
    // And the post-restart collector turns the queue into real space.
    let report = restored.collect_garbage(0.9).unwrap();
    assert!(report.freed_bytes > 0);
    restored.verify_integrity().expect("clean scrub");
}

fn compaction_under_in_flight_corruption_moves_only_verified_chunks<E: Engine>() {
    // Compaction moves each survivor's stored region only after its read
    // verified; a read corrupted in flight is re-read first. Once the
    // faults are gone, the moved store must be exact.
    let gen = ContentGenerator::new(0.5);
    let mut sys = E::new(FaultPlan::default());
    let live = age_store(&mut sys, &gen);
    let image = sys.checkpoint().unwrap().encode();
    // At 0.3, a mismatch outlives the four re-reads 0.8 % of the time;
    // this seed's all land.
    let plan = FaultPlan::parse("seed=1,corrupt=0.3").unwrap();
    let mut faulty = E::restore(plan, Snapshot::decode(&image).unwrap());
    let report = faulty.collect_garbage(0.9).unwrap();
    assert!(report.moved_chunks > 0, "{report:?}");
    let m = faulty.metrics();
    let detected = m.counter("retry.read_repair.detected").unwrap_or(0);
    assert!(detected > 0, "corrupt=0.3 must hit some survivor reads");
    assert_eq!(m.counter("retry.read_repair.repaired"), Some(detected));

    let mut moved = E::restore(FaultPlan::default(), faulty.checkpoint().unwrap());
    for (&lba, &tag) in &live {
        assert_eq!(
            moved.read(Lba(lba)).unwrap(),
            gen.chunk(tag, 4096),
            "lba {lba}"
        );
    }
    assert_eq!(moved.verify_integrity().unwrap(), live.len() as u64);
}

fn compaction_keeps_a_container_whose_stored_bytes_rot<E: Engine>() {
    // A survivor whose stored bytes are wrong fails every verified read:
    // the pass must stop with `Corrupt` rather than move it, and keep
    // the container it lives in.
    let gen = ContentGenerator::new(0.5);
    let mut sys = E::new(FaultPlan::default());
    let live = age_store(&mut sys, &gen);
    let image = sys.checkpoint().unwrap();
    let victim = image
        .liveness
        .iter()
        .filter(|&&(_, live, total)| live > 0 && f64::from(live) < 0.9 * f64::from(total))
        .map(|&(container, ..)| container)
        .min()
        .expect("churn left a sparse container with survivors");
    let located: HashMap<_, _> = image.pbns.iter().copied().collect();
    let (rotten, loc) = image
        .lbas
        .iter()
        .map(|&(lba, pbn)| (lba, located[&pbn]))
        .filter(|(_, loc)| loc.container == victim)
        .max_by_key(|(_, loc)| loc.offset)
        .unwrap();
    let byte = loc.offset as usize + CHUNK_HEADER_BYTES + loc.compressed_len as usize / 2;
    assert!(sys.inject_data_corruption(victim, byte));

    let err = sys.collect_garbage(0.9).unwrap_err();
    assert_eq!(err.kind(), "corrupt", "{err}");
    let after = sys.checkpoint().unwrap();
    assert!(
        after.containers.iter().any(|c| c.id == victim),
        "the container under compaction is kept"
    );
    for (&lba, &tag) in &live {
        if Lba(lba) != rotten {
            assert_eq!(
                sys.read(Lba(lba)).unwrap(),
                gen.chunk(tag, 4096),
                "lba {lba}"
            );
        }
    }
    assert!(sys.read(rotten).is_err());
}

for_both_engines!(
    crash_mid_gc_never_reclaims_a_referenced_chunk,
    acked_deletes_survive_recovery,
    compaction_under_in_flight_corruption_moves_only_verified_chunks,
    compaction_keeps_a_container_whose_stored_bytes_rot,
);

#[test]
fn container_id_reuse_is_a_hard_error() {
    // Regression for the debug_assert!-only guard: the check must hold
    // in every profile (CI also runs this suite under --release).
    let mut array = DataSsdArray::new(2);
    array
        .write_container(ContainerBuilder::new(7, 1024).seal())
        .unwrap();
    match array.write_container(ContainerBuilder::new(7, 1024).seal()) {
        Err(rejected) if rejected.error == DataSsdError::ContainerIdReuse(7) => {}
        other => panic!("expected ContainerIdReuse(7), got {other:?}"),
    }
}
