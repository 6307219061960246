//! The modelled totals a host-side speed-up must not move, pinned to the
//! values the engine produced before its bookkeeping was cut (PR 25):
//! the ledger's CPU cycles and memory bytes, the stored bytes, the HW
//! tree's cycles and crashes, what GC reclaims and moves, and the
//! compression counts its moves add, and the NIC's batch and buffer
//! counts. A change to how the host keeps its records that shifts any of
//! these has changed what the reproduction reports, not just how fast it
//! runs.

use bytes::Bytes;
use fidr::chunk::Lba;
use fidr::compress::ContentGenerator;
use fidr::core::{FidrConfig, FidrSystem, DEFAULT_STREAM_SHIFT};
use fidr::metrics::MetricsSnapshot;
use fidr::workload::{churn_tag, ChurnKind, ChurnSchedule, ChurnSpec, WorkloadSpec};
use fidr::{run_workload, RunConfig, SystemVariant};

fn assert_pinned(metrics: &MetricsSnapshot, pins: &[(&str, u64)]) {
    for &(name, want) in pins {
        assert_eq!(metrics.counter(name), Some(want), "{name}");
    }
}

/// The NIC's deterministic exports: chunks handed to the host, the
/// number and total size of batch takes, the count of timed writes and
/// peak buffer residency. Where the NIC hashes a chunk must not move any
/// of them. A wall-clock histogram's sum is not deterministic, so only
/// its count is pinned.
fn assert_nic_pinned(metrics: &MetricsSnapshot, chunks: u64, batches: u64, writes: u64, peak: u64) {
    assert_pinned(
        metrics,
        &[
            ("hash.chunks_hashed.chunks", chunks),
            ("nic.peak_resident.bytes", peak),
        ],
    );
    let histogram = |name| metrics.histogram(name).unwrap_or_else(|| panic!("{name}"));
    let sizes = histogram("hash.batch.chunks");
    assert_eq!(
        (sizes.count, sizes.sum),
        (batches, chunks),
        "hash.batch.chunks"
    );
    assert_eq!(histogram("hash.batch.ns").count, batches, "hash.batch.ns");
    assert_eq!(histogram("nic.ingest.ns").count, writes, "nic.ingest.ns");
}

/// `fidr run --workload write-h --variant full --ops 2000 --cache-shards 4`.
#[test]
fn write_h_modelled_totals_are_pinned() {
    let run = RunConfig {
        cache_shards: 4,
        ..RunConfig::default()
    };
    let report = run_workload(SystemVariant::FidrFull, WorkloadSpec::write_h(2000), run);
    assert_pinned(
        &report.metrics,
        &[
            ("cpu.total.cycles", 4_593_926),
            ("mem.total.bytes", 9_333_762),
            ("reduction.stored.bytes", 520_699),
            ("hwtree.cycles.count", 11_801),
            ("hwtree.crashes.count", 0),
        ],
    );
    assert_nic_pinned(&report.metrics, 2000, 32, 2000, 262_144);
}

/// `fidr gc --tenants 4 --blocks 64 --rounds 3 --delete-pct 40`: churn
/// (writes, overwrites, deletes), a flush, one collection pass, then a
/// read of every survivor.
#[test]
fn churn_then_gc_modelled_totals_are_pinned() {
    let spec = ChurnSpec {
        tenants: 4,
        blocks_per_tenant: 64,
        rounds: 3,
        delete_pct: 40,
        seed: 42,
    };
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(FidrConfig::default());
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
    sys.flush().unwrap();
    sys.collect_garbage(0.5).unwrap();
    for (&(tenant, offset), &round) in schedule.survivors() {
        let got = sys.read(Lba((tenant << DEFAULT_STREAM_SHIFT) | offset));
        let want = gen.chunk(churn_tag(spec.seed, tenant, offset, round), 4096);
        assert_eq!(got.unwrap(), want);
    }
    assert_pinned(
        &sys.metrics(),
        &[
            ("cpu.total.cycles", 3_463_553),
            ("mem.total.bytes", 3_709_301),
            ("reduction.stored.bytes", 328_000),
            ("hwtree.cycles.count", 4_145),
            ("hwtree.crashes.count", 0),
            ("gc.reclaimed_bytes", 328_640),
        ],
    );
    // Compaction moves survivors as they are stored, yet the modelled
    // Compression Engine still handles each one: its counts include
    // every survivor, and the moved bytes are what compressing it again
    // would store.
    assert_pinned(
        &sys.metrics(),
        &[
            ("compress.lzss.chunks", 200),
            ("compress.raw_fallback.chunks", 0),
            ("gc.moved_chunks.count", 40),
            ("gc.copied_bytes", 82_000),
        ],
    );
    // Full batches plus the partial ones that deletes of buffered LBAs
    // and the flush drain.
    assert_nic_pinned(&sys.metrics(), 735, 12, 735, 262_144);
}
