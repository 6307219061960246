//! End-to-end integration: every Table 3 workload runs through both
//! architectures with full read-back verification — each LBA must return
//! the latest content written to it, through the real chunk → hash →
//! dedup → compress → container → SSD → decompress pipeline.

use bytes::Bytes;
use fidr::baseline::{BaselineConfig, BaselineSystem};
use fidr::chunk::Lba;
use fidr::core::{CacheMode, FidrConfig, FidrSystem};
use fidr::hash::Fingerprint;
use fidr::trace::chrome_trace_json;
use fidr::workload::{Request, Workload, WorkloadSpec};
use fidr::{run_workload, RunConfig, SystemVariant};
use std::collections::HashMap;

const OPS: usize = 3_000;

fn specs() -> Vec<WorkloadSpec> {
    WorkloadSpec::table3(OPS)
}

#[test]
fn baseline_serves_latest_content_for_all_workloads() {
    for spec in specs() {
        let name = spec.name.clone();
        let mut sys = BaselineSystem::new(BaselineConfig {
            cache_lines: 512,
            table_buckets: 1 << 13,
            container_threshold: 256 << 10,
            ..BaselineConfig::default()
        });
        let mut expected: HashMap<Lba, Bytes> = HashMap::new();
        for req in Workload::new(spec) {
            match req {
                Request::Write { lba, data } => {
                    sys.write(lba, data.clone()).unwrap();
                    expected.insert(lba, data);
                }
                Request::Read { lba } => {
                    let got = sys.read(lba).unwrap();
                    assert_eq!(got, expected[&lba].to_vec(), "{name}: mid-run read {lba}");
                }
            }
        }
        sys.flush().unwrap();
        for (lba, data) in &expected {
            assert_eq!(
                sys.read(*lba).unwrap(),
                data.to_vec(),
                "{name}: final read {lba}"
            );
        }
        // Reduction sanity: dedup must be within a few points of target.
        let measured = sys.stats().dedup_ratio();
        assert!(
            measured > 0.2,
            "{name}: dedup ratio {measured} suspiciously low"
        );
    }
}

#[test]
fn fidr_serves_latest_content_for_all_workloads() {
    for spec in specs() {
        let name = spec.name.clone();
        let mut sys = FidrSystem::new(FidrConfig {
            cache_lines: 512,
            table_buckets: 1 << 13,
            container_threshold: 256 << 10,
            hash_batch: 32,
            cache_mode: CacheMode::HwEngine { update_slots: 4 },
            ..FidrConfig::default()
        });
        let mut expected: HashMap<Lba, Bytes> = HashMap::new();
        for req in Workload::new(spec) {
            match req {
                Request::Write { lba, data } => {
                    sys.write(lba, data.clone()).unwrap();
                    expected.insert(lba, data);
                }
                Request::Read { lba } => {
                    let got = sys.read(lba).unwrap();
                    assert_eq!(got, expected[&lba].to_vec(), "{name}: mid-run read {lba}");
                }
            }
        }
        sys.flush().unwrap();
        for (lba, data) in &expected {
            assert_eq!(
                sys.read(*lba).unwrap(),
                data.to_vec(),
                "{name}: final read {lba}"
            );
        }
    }
}

#[test]
fn fidr_software_cache_variant_is_also_correct() {
    let spec = WorkloadSpec::write_m(OPS);
    let mut sys = FidrSystem::new(FidrConfig {
        cache_lines: 512,
        table_buckets: 1 << 13,
        container_threshold: 256 << 10,
        hash_batch: 32,
        cache_mode: CacheMode::Software,
        ..FidrConfig::default()
    });
    let mut expected: HashMap<Lba, Bytes> = HashMap::new();
    for req in Workload::new(spec) {
        if let Request::Write { lba, data } = req {
            sys.write(lba, data.clone()).unwrap();
            expected.insert(lba, data);
        }
    }
    sys.flush().unwrap();
    for (lba, data) in &expected {
        assert_eq!(sys.read(*lba).unwrap(), data.to_vec());
    }
}

/// The determinism contract of the parallel pipeline: for a fixed seed,
/// the `fidr.metrics.v1` and `fidr.spans.v1` exports are byte-identical
/// regardless of worker count — workers change wall-clock only. Runs
/// with the cache sharded (4 ways) so the parallel shard-owned lookup
/// path is actually exercised, for both the FIDR variants and the
/// baseline's batched write path.
#[test]
fn worker_count_never_changes_metrics_or_spans_exports() {
    let spec = WorkloadSpec::write_h(OPS);
    // Every run below hashes with the one kernel this host dispatches
    // to, so comparing runs cannot see a kernel that computes a wrong
    // digest. The exports are a function of the chunk fingerprints; pin
    // those to the portable scalar kernel over this very workload.
    let chunks: Vec<Bytes> = Workload::new(spec.clone())
        .filter_map(|req| match req {
            Request::Write { data, .. } => Some(data),
            Request::Read { .. } => None,
        })
        .collect();
    let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_ref()).collect();
    let scalar = fidr::hash::supported_kernels()
        .into_iter()
        .find_map(|(name, digest_batch)| (name == "scalar").then_some(digest_batch))
        .expect("the scalar kernel runs everywhere");
    let want: Vec<Fingerprint> = scalar(&refs)
        .into_iter()
        .map(Fingerprint::from_bytes)
        .collect();
    let kernel = fidr::hash::kernel_name();
    for (batch, want) in refs.chunks(64).zip(want.chunks(64)) {
        assert_eq!(
            Fingerprint::of_batch(batch),
            want,
            "{kernel}: NIC-sized batch"
        );
        for (chunk, want) in batch.iter().zip(want) {
            assert_eq!(Fingerprint::of(chunk), *want, "{kernel}: single chunk");
        }
    }

    for variant in [
        SystemVariant::FidrFull,
        SystemVariant::FidrNicP2p,
        SystemVariant::Baseline,
    ] {
        let run_with = |workers: usize| {
            run_workload(
                variant,
                spec.clone(),
                RunConfig {
                    workers,
                    cache_shards: 4,
                    trace: fidr::trace::TraceConfig::enabled(),
                    ..RunConfig::default()
                },
            )
        };
        // 1 (serial path, no pool), 4 (pool, one shard per worker) and
        // 8 (pool wider than the 4 cache shards, so lookup jobs clamp
        // to the shard count while hashing fans wider) must all export
        // the same bytes.
        let serial = run_with(1);
        for workers in [4usize, 8] {
            let parallel = run_with(workers);
            assert_eq!(
                serial.metrics.to_json(),
                parallel.metrics.to_json(),
                "{variant:?}: metrics export must not depend on --workers {workers}"
            );
            assert_eq!(
                chrome_trace_json(&serial.spans),
                chrome_trace_json(&parallel.spans),
                "{variant:?}: spans export must not depend on --workers {workers}"
            );
        }
    }
}

/// Compressed bytes are stored, exported and measured: every seeded
/// export, ledger ratio and benchmark counter depends on them. This pins
/// one FNV-1a digest of `compress` over a seeded corpus, so a matcher
/// change that moves a single output byte fails here by name. A change
/// that *means* to move them (a different matcher is a declared decision
/// that also moves `stored_bytes_per_user_byte`) updates the constant and
/// says so.
///
/// The digest was first taken before the matcher was made faster. It
/// moved once, on purpose, when the matcher started skipping searches
/// through long literal runs: the 768 chunks of about 4 KiB stayed
/// byte-identical, and the 200 000-byte input packs to 99 301 bytes
/// instead of 99 299.
#[test]
fn compress_output_bytes_are_pinned() {
    use fidr::compress::{compress, ContentGenerator};

    let generator = ContentGenerator::new(0.5);
    let mut packed = Vec::new();
    for seed in 0..256 {
        for len in [4095, 4096, 4097] {
            packed.extend(compress(&generator.chunk(seed, len)));
        }
    }
    // Longer than the 64 KiB match window, so far matches and the
    // window's edge are in the digest too.
    packed.extend(compress(&generator.chunk(256, 200_000)));
    assert_eq!(
        fidr::hash::fnv1a(&packed),
        0xa1b2_6179_591f_f66d,
        "LZSS output bytes moved ({} bytes packed)",
        packed.len()
    );
}

/// The workload generator's request streams feed every seeded export,
/// figure and cross-architecture test. This pins one FNV-1a digest over
/// op kind, LBA and payload of every `WorkloadSpec` preset, so a change
/// that moves a single RNG draw fails here by name.
#[test]
fn workload_request_streams_are_pinned() {
    let extensions = [
        WorkloadSpec::vdi(600),
        WorkloadSpec::database(600),
        WorkloadSpec::overwrite_churn(600),
    ];
    let streams = WorkloadSpec::table3(600).into_iter().chain(extensions);
    let mut packed = Vec::new();
    for req in streams.flat_map(Workload::new) {
        let (kind, lba, data) = match req {
            Request::Write { lba, data } => (b'W', lba, data),
            Request::Read { lba } => (b'R', lba, Bytes::new()),
        };
        packed.push(kind);
        packed.extend(lba.0.to_le_bytes());
        packed.extend(&data[..]);
    }
    assert_eq!(fidr::hash::fnv1a(&packed), 0xa9bd_d71e_0025_0298);
}
