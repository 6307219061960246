//! Model-based property tests: arbitrary interleavings of writes,
//! overwrites, reads, deletes, flushes and GC passes against a plain
//! `HashMap` model. If either architecture ever returns anything but the newest
//! content — across batching, container sealing, cache eviction, NIC
//! coalescing, compaction — these shrink to a minimal counterexample.

use bytes::Bytes;
use fidr::baseline::{BaselineConfig, BaselineSystem};
use fidr::cache::TieredPolicyConfig;
use fidr::chunk::Lba;
use fidr::compress::ContentGenerator;
use fidr::core::{CacheMode, FidrConfig, FidrSystem, TieredDedupConfig};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    /// Write content id at an LBA (small spaces force overwrites/dups).
    Write {
        lba: u64,
        content: u64,
    },
    Read {
        lba: u64,
    },
    /// Unmap an LBA (succeeds iff mapped; the model mirrors the unmap).
    Delete {
        lba: u64,
    },
    Flush,
    Gc,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..24, 0u64..12).prop_map(|(lba, content)| Op::Write { lba, content }),
        2 => (0u64..24).prop_map(|lba| Op::Read { lba }),
        2 => (0u64..24).prop_map(|lba| Op::Delete { lba }),
        1 => Just(Op::Flush),
        1 => Just(Op::Gc),
    ]
}

fn payload(gen: &ContentGenerator, content: u64) -> Bytes {
    Bytes::from(gen.chunk(content, 4096))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fidr_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let gen = ContentGenerator::new(0.5);
        let mut sys = FidrSystem::new(FidrConfig {
            cache_lines: 8,
            table_buckets: 64,
            container_threshold: 16 << 10,
            hash_batch: 4,
            cache_mode: CacheMode::HwEngine { update_slots: 4 },
            ..FidrConfig::default()
        });
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Write { lba, content } => {
                    sys.write(Lba(lba), payload(&gen, content)).unwrap();
                    model.insert(lba, content);
                }
                Op::Read { lba } => match model.get(&lba) {
                    Some(&content) => {
                        prop_assert_eq!(
                            sys.read(Lba(lba)).unwrap(),
                            payload(&gen, content).to_vec(),
                            "read of LBA {}", lba
                        );
                    }
                    None => prop_assert!(sys.read(Lba(lba)).is_err()),
                },
                Op::Delete { lba } => match model.remove(&lba) {
                    Some(_) => sys.delete(Lba(lba)).unwrap(),
                    None => prop_assert!(sys.delete(Lba(lba)).is_err()),
                },
                Op::Flush => sys.flush().unwrap(),
                Op::Gc => {
                    sys.flush().unwrap();
                    sys.collect_garbage(0.6).unwrap();
                }
            }
        }
        sys.flush().unwrap();
        for (&lba, &content) in &model {
            prop_assert_eq!(
                sys.read(Lba(lba)).unwrap(),
                payload(&gen, content).to_vec(),
                "final read of LBA {}", lba
            );
        }
    }

    #[test]
    fn baseline_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let gen = ContentGenerator::new(0.5);
        let mut sys = BaselineSystem::new(BaselineConfig {
            cache_lines: 8,
            table_buckets: 64,
            container_threshold: 16 << 10,
            ..BaselineConfig::default()
        });
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Write { lba, content } => {
                    sys.write(Lba(lba), payload(&gen, content)).unwrap();
                    model.insert(lba, content);
                }
                Op::Read { lba } => match model.get(&lba) {
                    Some(&content) => {
                        prop_assert_eq!(
                            sys.read(Lba(lba)).unwrap(),
                            payload(&gen, content).to_vec(),
                            "read of LBA {}", lba
                        );
                    }
                    None => prop_assert!(sys.read(Lba(lba)).is_err()),
                },
                Op::Delete { lba } => match model.remove(&lba) {
                    Some(_) => sys.delete(Lba(lba)).unwrap(),
                    None => prop_assert!(sys.delete(Lba(lba)).is_err()),
                },
                Op::Flush => sys.flush().unwrap(),
                Op::Gc => {
                    sys.flush().unwrap();
                    sys.collect_garbage(0.6).unwrap();
                }
            }
        }
        sys.flush().unwrap();
        for (&lba, &content) in &model {
            prop_assert_eq!(
                sys.read(Lba(lba)).unwrap(),
                payload(&gen, content).to_vec(),
                "final read of LBA {}", lba
            );
        }
    }

    /// Tiered admission with every stream classified hot must be
    /// *byte-identical* to the flat cache — same reads, same metrics
    /// export — for any interleaving of writes, reads, flushes and GC.
    /// (`hot_threshold` 0.0 keeps all streams hot, so no write ever
    /// defers and the tier/scrub metrics stay unexported.)
    #[test]
    fn tiered_all_hot_matches_flat(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let gen = ContentGenerator::new(0.5);
        let base = FidrConfig {
            cache_lines: 8,
            table_buckets: 64,
            container_threshold: 16 << 10,
            hash_batch: 4,
            cache_mode: CacheMode::HwEngine { update_slots: 4 },
            ..FidrConfig::default()
        };
        let mut flat = FidrSystem::new(base.clone());
        let mut tiered = FidrSystem::new(FidrConfig {
            tiered: Some(TieredDedupConfig {
                policy: TieredPolicyConfig {
                    hot_threshold: 0.0,
                    min_observations: 0,
                    ..TieredPolicyConfig::default()
                },
                ..TieredDedupConfig::default()
            }),
            ..base
        });
        for op in ops {
            match op {
                Op::Write { lba, content } => {
                    flat.write(Lba(lba), payload(&gen, content)).unwrap();
                    tiered.write(Lba(lba), payload(&gen, content)).unwrap();
                }
                Op::Read { lba } => {
                    let (a, b) = (flat.read(Lba(lba)), tiered.read(Lba(lba)));
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "read of LBA {}", lba);
                    if let (Ok(a), Ok(b)) = (a, b) {
                        prop_assert_eq!(a, b, "read of LBA {}", lba);
                    }
                }
                Op::Delete { lba } => {
                    let (a, b) = (flat.delete(Lba(lba)), tiered.delete(Lba(lba)));
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "delete of LBA {}", lba);
                }
                Op::Flush => {
                    flat.flush().unwrap();
                    tiered.flush().unwrap();
                }
                Op::Gc => {
                    flat.flush().unwrap();
                    flat.collect_garbage(0.6).unwrap();
                    tiered.flush().unwrap();
                    tiered.collect_garbage(0.6).unwrap();
                }
            }
        }
        flat.flush().unwrap();
        tiered.flush().unwrap();
        prop_assert_eq!(flat.metrics().to_json(), tiered.metrics().to_json());
    }

    /// The other extreme: with every stream cold, every write defers and
    /// dedups through the scrubber — yet reads stay correct and the final
    /// reduction converges to exactly what inline dedup produces.
    /// Distinct LBAs keep overwrites out: an overwrite racing the
    /// scrubber legitimately diverges (the stale pre-filter drops the
    /// orphaned write instead of indexing it as a dedup target).
    #[test]
    fn tiered_all_cold_converges_to_flat_reduction(
        contents in proptest::collection::vec(0u64..12, 1..100)
    ) {
        let gen = ContentGenerator::new(0.5);
        let base = FidrConfig {
            cache_lines: 8,
            table_buckets: 64,
            container_threshold: 16 << 10,
            hash_batch: 4,
            cache_mode: CacheMode::HwEngine { update_slots: 4 },
            ..FidrConfig::default()
        };
        let mut flat = FidrSystem::new(base.clone());
        let mut tiered = FidrSystem::new(FidrConfig {
            tiered: Some(TieredDedupConfig {
                policy: TieredPolicyConfig {
                    hot_threshold: 1.1, // locality never reaches 110%
                    min_observations: 0,
                    ..TieredPolicyConfig::default()
                },
                scrub_batch: 8,
                ..TieredDedupConfig::default()
            }),
            ..base
        });
        for (i, &content) in contents.iter().enumerate() {
            flat.write(Lba(i as u64), payload(&gen, content)).unwrap();
            tiered.write(Lba(i as u64), payload(&gen, content)).unwrap();
        }
        flat.flush().unwrap();
        tiered.flush().unwrap();
        prop_assert_eq!(tiered.deferred_pending(), 0, "flush must drain the scrub queue");
        prop_assert_eq!(tiered.stats().unique_chunks, flat.stats().unique_chunks);
        prop_assert_eq!(tiered.stats().duplicate_chunks, flat.stats().duplicate_chunks);
        for (i, &content) in contents.iter().enumerate() {
            prop_assert_eq!(
                tiered.read(Lba(i as u64)).unwrap(),
                payload(&gen, content).to_vec(),
                "read of LBA {}", i
            );
        }
    }

    /// Dedup invariant: unique chunks never exceed distinct content ids.
    #[test]
    fn unique_chunks_bounded_by_distinct_contents(
        ops in proptest::collection::vec((0u64..32, 0u64..8), 1..100)
    ) {
        let gen = ContentGenerator::new(0.5);
        let mut sys = FidrSystem::new(FidrConfig {
            cache_lines: 16,
            table_buckets: 128,
            container_threshold: 32 << 10,
            hash_batch: 8,
            ..FidrConfig::default()
        });
        let mut contents = std::collections::HashSet::new();
        for (lba, content) in ops {
            sys.write(Lba(lba), payload(&gen, content)).unwrap();
            contents.insert(content);
        }
        sys.flush().unwrap();
        prop_assert!(sys.stats().unique_chunks as usize <= contents.len());
        prop_assert_eq!(
            sys.stats().unique_chunks + sys.stats().duplicate_chunks
                + (sys.stats().write_chunks
                    - sys.stats().unique_chunks
                    - sys.stats().duplicate_chunks),
            sys.stats().write_chunks
        );
    }
}
