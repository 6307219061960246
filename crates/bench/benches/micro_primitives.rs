//! Criterion micro-benchmarks for the substrate primitives: SHA-256,
//! the LZ codec, fingerprint bucketing, the software B+ tree, the HW-tree
//! model, and Hash-PBN bucket scans.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fidr::cache::{BPlusTree, HwTree, HwTreeConfig, PipelinedTree};
use fidr::chunk::Pbn;
use fidr::compress::{compress, decompress, ContentGenerator};
use fidr::hash::{supported_kernels, Fingerprint, Sha256};
use fidr::tables::Bucket;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    let chunk = ContentGenerator::new(0.5).chunk(1, 4096);
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("digest_4k", |b| {
        b.iter(|| Sha256::digest(black_box(&chunk)))
    });
    g.finish();

    // One row per kernel this host can run, each over a NIC-sized batch.
    let chunks: Vec<Vec<u8>> = (0..64)
        .map(|i| ContentGenerator::new(0.5).chunk(i, 4096))
        .collect();
    let batch: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    let mut g = c.benchmark_group("sha256_kernel");
    g.throughput(Throughput::Bytes(64 * 4096));
    for (name, digest_batch) in supported_kernels() {
        g.bench_function(&format!("{name}_batch_64x4k"), |b| {
            b.iter(|| digest_batch(black_box(&batch)))
        });
    }
    g.finish();

    // What a batch costs the code after it: a core that ran 512-bit
    // instructions runs slower for milliseconds. Each row times the
    // `compress_4k_r05` chunk right after that kernel's batch (sixteen
    // compressions per batch, about 50 µs), so the rows differ by the
    // clock drop alone.
    let chunk = ContentGenerator::new(0.5).chunk(2, 4096);
    let mut g = c.benchmark_group("clock_drop");
    g.throughput(Throughput::Bytes(4096));
    for (name, digest_batch) in supported_kernels() {
        g.bench_function(&format!("compress_4k_r05_after_{name}_batch_64x4k"), |b| {
            b.iter_custom(|iters| {
                let mut spent = Duration::ZERO;
                for i in 0..iters {
                    if i % 16 == 0 {
                        black_box(digest_batch(black_box(&batch)));
                    }
                    let start = Instant::now();
                    black_box(compress(black_box(&chunk)));
                    spent += start.elapsed();
                }
                spent
            })
        });
    }
    g.finish();
}

/// A 4-KiB slice of one of this repository's source files: real text,
/// whose matches are short and close together. The arm's bytes move
/// whenever that file is edited.
const TEXT: &[u8] = include_bytes!("../../tables/src/snapshot.rs");

fn bench_lzss(c: &mut Criterion) {
    let mut g = c.benchmark_group("lzss");
    // One iteration is one 4-KiB chunk: ns/iter / 1000 = µs/chunk.
    g.throughput(Throughput::Bytes(4096));
    // The generator's content at each ratio: noise for that share of the
    // chunk, then one long offset-8 match. Ratio 1.0 is all noise, stored
    // raw: the matcher's worst case.
    for (name, ratio) in [
        ("r005", 0.05),
        ("r025", 0.25),
        ("r05", 0.5),
        ("r075", 0.75),
        ("r10", 1.0),
    ] {
        let chunk = ContentGenerator::new(ratio).chunk(2, 4096);
        g.bench_function(&format!("compress_4k_{name}"), |b| {
            b.iter(|| compress(black_box(&chunk)))
        });
    }
    let text = &TEXT[4096..8192];
    g.bench_function("compress_4k_text", |b| b.iter(|| compress(black_box(text))));
    let packed = compress(&ContentGenerator::new(0.5).chunk(2, 4096));
    g.bench_function("decompress_4k_r05", |b| {
        b.iter(|| decompress(black_box(&packed), 4096).unwrap())
    });
    g.finish();
}

fn bench_fingerprint(c: &mut Criterion) {
    let chunk = ContentGenerator::new(0.5).chunk(3, 4096);
    let fp = Fingerprint::of(&chunk);
    c.bench_function("fingerprint_bucket_index", |b| {
        b.iter(|| black_box(&fp).bucket_index(1 << 20))
    });
}

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    let mut tree = BPlusTree::new();
    for k in 0..100_000u64 {
        tree.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k as u32);
    }
    let mut i = 0u64;
    g.bench_function("search_100k", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            tree.search(black_box(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        })
    });
    g.bench_function("insert_remove", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let k = i.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
            tree.insert(k, 0);
            tree.remove(k)
        })
    });
    g.finish();
}

fn bench_pipelined_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipelined_tree");
    // 4,096 keys is the table cache's line count (`fidr serve`): the
    // tree the engine searches on every bucket access. 100k is the deep
    // tree of a large cache.
    for keys in [4_096u64, 100_000] {
        let mut tree = PipelinedTree::new();
        for k in 0..keys {
            tree.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k as u32);
        }
        let mut i = 0u64;
        g.bench_function(&format!("search_{keys}"), |b| {
            b.iter(|| {
                i = (i + 1) % keys;
                tree.search(black_box(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            })
        });
        g.bench_function(&format!("insert_remove_{keys}"), |b| {
            b.iter(|| {
                i = i.wrapping_add(1);
                let k = i.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
                tree.insert(k, 0);
                tree.remove(k)
            })
        });
    }
    g.finish();
}

fn bench_hwtree(c: &mut Criterion) {
    let mut g = c.benchmark_group("hwtree_model");
    let mut tree = HwTree::new(HwTreeConfig {
        update_slots: 4,
        ..HwTreeConfig::with_levels(14)
    });
    for k in 0..50_000u64 {
        tree.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k as u32);
    }
    let mut i = 0u64;
    g.bench_function("search", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            tree.search(black_box(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        })
    });
    g.bench_function("speculative_update", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let k = i.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
            tree.insert(k, 0);
            tree.remove(k)
        })
    });
    g.finish();
}

fn bench_bucket_scan(c: &mut Criterion) {
    let mut bucket = Bucket::new();
    let mut fps = Vec::new();
    for i in 0..100u64 {
        let fp = Fingerprint::of(&i.to_le_bytes());
        bucket.insert(fp, Pbn(i)).unwrap();
        fps.push(fp);
    }
    let mut i = 0usize;
    c.bench_function("bucket_scan_100_entries", |b| {
        b.iter(|| {
            i = (i + 1) % fps.len();
            bucket.lookup(black_box(&fps[i]))
        })
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_lzss,
    bench_fingerprint,
    bench_btree,
    bench_pipelined_tree,
    bench_hwtree,
    bench_bucket_scan
);
criterion_main!(benches);
