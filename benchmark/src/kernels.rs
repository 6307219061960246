//! Layer kernels: each layer's public functions timed from outside, fed
//! the workload's own payloads.
//!
//! Every kernel runs [`BATCHES`] batches of at least [`MIN_BATCH`] each
//! and reports the lower-quartile batch (noise only adds time, and the
//! quartile still has five batches beneath it to reject a fluke). One
//! span is recorded per batch.

use crate::estimate::lower_quantile;
use crate::spans::Spans;
use bytes::Bytes;
use fidr::cache::{HwTree, HwTreeConfig, TableCache};
use fidr::chunk::{Lba, Pbn};
use fidr::compress::CompressedChunk;
use fidr::core::{CacheMode, FidrConfig};
use fidr::hash::Fingerprint;
use fidr::nic::protocol::Message;
use fidr::nic::{FidrNic, FramedCodec};
use fidr::ssd::{DataSsdArray, QueueLocation, TableSsd};
use fidr::tables::{Bucket, ContainerBuilder};
use fidr_pool::WorkerPool;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed batches per kernel.
const BATCHES: usize = 20;

/// Minimum duration of one batch.
const MIN_BATCH: Duration = Duration::from_millis(1);

/// Entries in the bucket the lookup / insert / codec kernels use: at the
/// benchmark's table load (≤ 82k fingerprints over 131,072 buckets) a
/// touched bucket holds one to a few entries.
const BUCKET_FILL: usize = 4;

/// Wall cost of each layer's kernels, in ns unless named otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels {
    /// `Fingerprint::of`, per 4 KiB chunk.
    pub hash_scalar: f64,
    /// `Fingerprint::of_batch` over 64 chunks, per chunk.
    pub hash_lanes: f64,
    /// `CompressedChunk::compress`, per chunk.
    pub compress: f64,
    /// `CompressedChunk::decompress`, per chunk.
    pub decompress: f64,
    /// `Message::Write::encode`.
    pub encode_write: f64,
    /// `FramedCodec::feed` + `next_frame` of a write frame.
    pub decode_write: f64,
    /// `Message::ReadReply::encode`.
    pub encode_read_reply: f64,
    /// `FramedCodec::feed` + `next_frame` of a read reply.
    pub decode_read_reply: f64,
    /// `FidrNic`: 64 × `accept_write`, `take_hash_batch(64)`, 64 ×
    /// `complete` — per chunk, scalar hashing included.
    pub nic_buffer_batch: f64,
    /// `TableCache::access` of a resident bucket.
    pub cache_hit: f64,
    /// `TableCache::access` of an absent bucket: fetch, plus the eviction
    /// and write-back of a dirty victim line.
    pub cache_miss: f64,
    /// `Bucket::lookup` of a present fingerprint.
    pub bucket_lookup_hit: f64,
    /// `Bucket::lookup` of an absent fingerprint.
    pub bucket_lookup_miss: f64,
    /// `Bucket::insert` into a fresh bucket, per entry.
    pub bucket_insert: f64,
    /// `Bucket::to_bytes` + `from_bytes`.
    pub bucket_codec: f64,
    /// `ContainerBuilder::append`, per chunk.
    pub container_append: f64,
    /// The seal sequence of `FidrSystem::seal_container` on a full 4 MiB
    /// container: `builder.clone().seal()` + `write_container`.
    pub container_seal: f64,
    /// `WorkerPool::scope` with one job on a 2-worker pool.
    pub pool_handoff: f64,
}

/// Runs `body(iterations) -> time spent` until a batch takes
/// [`MIN_BATCH`], then [`BATCHES`] times at that size; returns the
/// lower-quartile ns per iteration.
fn bench(
    spans: &mut Spans,
    parent: u64,
    name: &'static str,
    mut body: impl FnMut(u64) -> Duration,
) -> f64 {
    let mut iters = 1u64;
    loop {
        let took = body(iters);
        if took >= MIN_BATCH || iters >= 1 << 24 {
            break;
        }
        // Aim 20 % past the minimum so the timed batches clear it.
        let scale = 1.2 * MIN_BATCH.as_secs_f64() / took.as_secs_f64().max(1e-9);
        iters = (iters as f64 * scale.clamp(1.5, 100.0)).ceil() as u64;
    }
    let mut per_iter = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        let took = body(iters);
        spans.record(name, Some(parent), start, Instant::now());
        per_iter.push(took.as_nanos() as f64 / iters as f64);
    }
    lower_quantile(&per_iter, 0.25)
}

/// Times `f(i)` for `i in 0..iters` as one block.
fn timed(iters: u64, mut f: impl FnMut(usize)) -> Duration {
    let start = Instant::now();
    for i in 0..iters as usize {
        f(i);
    }
    start.elapsed()
}

/// Runs every kernel over `payloads` (distinct 4 KiB chunks of the
/// workload; at least `2 × BUCKET_FILL`).
pub fn run(payloads: &[Bytes], spans: &mut Spans) -> Kernels {
    assert!(payloads.len() >= 2 * BUCKET_FILL, "too few payloads");
    let n = payloads.len();
    let root = spans.begin("kernels", None);

    let hash_scalar = bench(spans, root, "hash.scalar", |iters| {
        timed(iters, |i| {
            black_box(Fingerprint::of(black_box(&payloads[i % n])));
        })
    });
    let lanes: Vec<&[u8]> = (0..64).map(|i| payloads[i % n].as_ref()).collect();
    let hash_lanes = bench(spans, root, "hash.lanes", |iters| {
        timed(iters, |_| {
            black_box(Fingerprint::of_batch(black_box(&lanes)));
        })
    }) / 64.0;

    let compress = bench(spans, root, "compress.compress", |iters| {
        timed(iters, |i| {
            black_box(CompressedChunk::compress(black_box(&payloads[i % n])));
        })
    });
    let packed: Vec<CompressedChunk> = payloads
        .iter()
        .map(|p| CompressedChunk::compress(p))
        .collect();
    let decompress = bench(spans, root, "compress.decompress", |iters| {
        timed(iters, |i| {
            black_box(packed[i % n].decompress().expect("own output decodes"));
        })
    });

    let write_of = |i: usize| Message::Write {
        lba: Lba(i as u64),
        data: payloads[i % n].clone(),
    };
    let reply_of = |i: usize| Message::ReadReply {
        lba: Lba(i as u64),
        data: payloads[i % n].clone(),
    };
    let encode_write = bench(spans, root, "nic.encode_write", |iters| {
        timed(iters, |i| {
            black_box(write_of(i).encode().expect("4 KiB frames encode"));
        })
    });
    let encode_read_reply = bench(spans, root, "nic.encode_read_reply", |iters| {
        timed(iters, |i| {
            black_box(reply_of(i).encode().expect("4 KiB frames encode"));
        })
    });
    let decode = |frames: &[Vec<u8>], iters: u64| {
        let mut codec = FramedCodec::new();
        timed(iters, |i| {
            codec.feed(&frames[i % n]);
            black_box(codec.next_frame().expect("own frame decodes"));
        })
    };
    let frames: Vec<Vec<u8>> = (0..n).map(|i| write_of(i).encode().unwrap()).collect();
    let decode_write = bench(spans, root, "nic.decode_write", |iters| {
        decode(&frames, iters)
    });
    let frames: Vec<Vec<u8>> = (0..n).map(|i| reply_of(i).encode().unwrap()).collect();
    let decode_read_reply = bench(spans, root, "nic.decode_read_reply", |iters| {
        decode(&frames, iters)
    });

    let engine = FidrConfig::default();
    let mut nic = FidrNic::new(engine.nic_buffer_bytes);
    let batch = engine.hash_batch;
    let nic_buffer_batch = bench(spans, root, "nic.buffer_batch", |iters| {
        timed(iters, |i| {
            for j in 0..batch {
                nic.accept_write(Lba(j as u64), payloads[(i * batch + j) % n].clone());
            }
            for chunk in black_box(nic.take_hash_batch(batch)) {
                nic.complete(chunk.lba);
            }
        })
    }) / batch as f64;

    // The table cache as `CacheBackend::new` builds it for `fidr serve`.
    let CacheMode::HwEngine { update_slots } = engine.cache_mode else {
        unreachable!("the default cache mode is the HW engine");
    };
    let index = HwTree::new(HwTreeConfig {
        update_slots,
        ..HwTreeConfig::for_cache_lines(engine.cache_lines as u64)
    });
    let mut cache = TableCache::new(engine.cache_lines, index);
    let mut table_ssd = TableSsd::new(engine.table_buckets, QueueLocation::CacheEngine);
    let resident: Vec<u64> = payloads
        .iter()
        .map(|p| Fingerprint::of(p).bucket_index(engine.table_buckets))
        .collect();
    for &bucket in &resident {
        cache.access(bucket, &mut table_ssd).expect("inert faults");
    }
    let cache_hit = bench(spans, root, "cache.access_hit", |iters| {
        timed(iters, |i| {
            black_box(
                cache
                    .access(resident[i % n], &mut table_ssd)
                    .expect("inert faults"),
            );
        })
    });
    // An odd stride walks all 2¹⁷ buckets before repeating one, so the
    // reuse distance (131,072) always exceeds the 4,096 lines: a miss.
    let mut next = 0u64;
    let cache_miss = bench(spans, root, "cache.access_miss", |iters| {
        timed(iters, |_| {
            next = next.wrapping_add(40_503) % engine.table_buckets;
            let access = cache.access(next, &mut table_ssd).expect("inert faults");
            // On the ingest path a missed bucket takes an insert, so by
            // the time a line is evicted it is dirty and must be flushed.
            black_box(cache.bucket_mut(access.line));
        })
    });

    let fps: Vec<Fingerprint> = payloads[..2 * BUCKET_FILL]
        .iter()
        .map(|p| Fingerprint::of(p))
        .collect();
    let (present, absent) = fps.split_at(BUCKET_FILL);
    let mut bucket = Bucket::new();
    for (i, fp) in present.iter().enumerate() {
        bucket.insert(*fp, Pbn(i as u64)).expect("room for four");
    }
    let bucket_lookup_hit = bench(spans, root, "tables.bucket_lookup_hit", |iters| {
        timed(iters, |i| {
            black_box(bucket.lookup(black_box(&present[i % BUCKET_FILL])));
        })
    });
    let bucket_lookup_miss = bench(spans, root, "tables.bucket_lookup_miss", |iters| {
        timed(iters, |i| {
            black_box(bucket.lookup(black_box(&absent[i % BUCKET_FILL])));
        })
    });
    let bucket_insert = bench(spans, root, "tables.bucket_insert", |iters| {
        timed(iters, |_| {
            let mut fresh = Bucket::new();
            for (i, fp) in present.iter().enumerate() {
                fresh.insert(*fp, Pbn(i as u64)).expect("room for four");
            }
            black_box(fresh);
        })
    }) / BUCKET_FILL as f64;
    let bucket_codec = bench(spans, root, "tables.bucket_codec", |iters| {
        timed(iters, |_| {
            black_box(Bucket::from_bytes(&black_box(&bucket).to_bytes()));
        })
    });

    let mut builder = ContainerBuilder::new(0, engine.container_threshold);
    let container_append = bench(spans, root, "tables.container_append", |iters| {
        timed(iters, |i| {
            black_box(builder.append(&packed[i % n]));
            if builder.is_full() {
                builder = ContainerBuilder::new(0, engine.container_threshold);
            }
        })
    });
    let mut full = ContainerBuilder::new(0, engine.container_threshold);
    for i in 0.. {
        if full.is_full() {
            break;
        }
        full.append(&packed[i % n]);
    }
    let mut data_ssd = DataSsdArray::new(engine.data_ssds);
    let container_seal = bench(spans, root, "tables.container_seal", |iters| {
        let mut spent = Duration::ZERO;
        for _ in 0..iters {
            let start = Instant::now();
            let written = data_ssd.write_container(full.clone().seal());
            spent += start.elapsed();
            written.expect("inert faults, fresh id");
            // Freeing the stored copy is not part of a seal.
            data_ssd.remove_container(0);
        }
        spent
    });

    let pool = WorkerPool::new(2);
    let pool_handoff = bench(spans, root, "pool.scope_handoff", |iters| {
        timed(iters, |i| {
            pool.scope(|s| {
                s.spawn_on(i, || {
                    black_box(i);
                })
            });
        })
    });

    spans.end(root);
    Kernels {
        hash_scalar,
        hash_lanes,
        compress,
        decompress,
        encode_write,
        encode_read_reply,
        decode_write,
        decode_read_reply,
        nic_buffer_batch,
        cache_hit,
        cache_miss,
        bucket_lookup_hit,
        bucket_lookup_miss,
        bucket_insert,
        bucket_codec,
        container_append,
        container_seal,
        pool_handoff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Plan;

    #[test]
    fn bench_reports_the_lower_quartile_per_iteration() {
        let mut spans = Spans::with_capacity(1024);
        let root = spans.begin("kernels", None);
        // A body that claims exactly 50 ns per iteration.
        let ns = bench(&mut spans, root, "fake", |iters| {
            Duration::from_nanos(50 * iters)
        });
        assert!((ns - 50.0).abs() < 1e-9, "{ns}");
        let batches = spans.records().iter().filter(|s| s.name == "fake").count();
        assert_eq!(batches, BATCHES);
    }

    #[test]
    fn every_kernel_runs_on_workload_payloads() {
        let payloads: Vec<Bytes> = (0..16).map(Plan::payload).collect();
        let mut spans = Spans::with_capacity(1024);
        let k = run(&payloads, &mut spans);
        for (name, v) in [
            ("hash_scalar", k.hash_scalar),
            ("hash_lanes", k.hash_lanes),
            ("compress", k.compress),
            ("decompress", k.decompress),
            ("encode_write", k.encode_write),
            ("decode_write", k.decode_write),
            ("encode_read_reply", k.encode_read_reply),
            ("decode_read_reply", k.decode_read_reply),
            ("nic_buffer_batch", k.nic_buffer_batch),
            ("cache_hit", k.cache_hit),
            ("cache_miss", k.cache_miss),
            ("bucket_lookup_hit", k.bucket_lookup_hit),
            ("bucket_lookup_miss", k.bucket_lookup_miss),
            ("bucket_insert", k.bucket_insert),
            ("bucket_codec", k.bucket_codec),
            ("container_append", k.container_append),
            ("container_seal", k.container_seal),
            ("pool_handoff", k.pool_handoff),
        ] {
            assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        }
        // Hashing a chunk inside the NIC batch costs at least the hash.
        assert!(k.nic_buffer_batch > 0.5 * k.hash_scalar);
        assert!(k.cache_miss > k.cache_hit);
    }
}
