//! Worker-scaling ablation for the per-socket batch pipeline (PR 4,
//! reworked for the persistent worker pool in PR 6).
//!
//! Drives pre-generated write-heavy traffic through `FidrSystem` with the
//! table cache sharded one way per worker, and reports two numbers per
//! worker count over the *measured* (steady-state) half of the run:
//!
//! * **wall GB/s** — real bytes hashed, deduplicated and compressed per
//!   second of host wall-clock time, the **median of three repeats**
//!   (each on a fresh system) with the min/max spread reported alongside.
//!   Workload generation is excluded (all chunk contents are generated up
//!   front) so only the write path is timed. Every worker count hashes
//!   NIC batches with the same kernel (the host's fastest batch kernel,
//!   printed as `batch_kernel=`), so the ratio between worker counts
//!   measures threading alone: lookup and precompression fanned out over the
//!   persistent `fidr-pool` threads. The kernel's own effect is the
//!   1-worker `wall_gbps_1x=` on the summary line, read against a
//!   snapshot from another kernel; the printed `host_cpus` keeps
//!   thread-level expectations legible. `wall_speedup_4x` is the
//!   regression-gated number — see `docs/PERFORMANCE.md` and
//!   `scripts/check.sh`.
//! * **modelled GB/s** — the deterministic pipeline projection under
//!   [`TimeModel`]: stages the worker pool genuinely runs concurrently
//!   (lookup-stage host CPU — tree indexing, bucket content scans, LRU
//!   replacement, table-SSD NVMe submission — plus hash/compression
//!   engine time and per-shard table-SSD IO, which NVMe services at queue
//!   depth ≥ workers) divide by the worker count; everything else (device
//!   manager orchestration, LBA map, NIC ingest at line rate, data-SSD
//!   container seals, host-memory traffic) stays serial, Amdahl-style.
//!
//! The modelled projection is computed from ledger/stat deltas across the
//! measured window, so cold table-SSD compulsory misses from the warmup
//! half do not pollute it. Note the contrast with the `fidr.metrics.v1`
//! export, which is byte-identical for every worker count by design: the
//! export is *accounting* (work done), this is *elapsed time* (work
//! overlapped).

use bytes::Bytes;
use fidr::chunk::Lba;
use fidr::core::{CacheMode, FidrConfig, FidrSystem};
use fidr::hwsim::{CpuTask, Ledger, TimeModel};
use fidr::workload::{Request, Workload, WorkloadSpec};
use fidr_bench::banner;
use std::time::Instant;

/// CPU tasks the sharded lookup stage runs on shard-owner workers.
const LOOKUP_TASKS: [CpuTask; 4] = [
    CpuTask::TreeIndexing,
    CpuTask::TableContentScan,
    CpuTask::CacheReplacement,
    CpuTask::TableSsdStack,
];

/// Snapshot of everything the projection needs, taken between phases.
struct Mark {
    ledger: Ledger,
    unique_chunks: u64,
    containers_sealed: u64,
}

impl Mark {
    fn of(sys: &FidrSystem) -> Mark {
        let r = sys.stats();
        Mark {
            ledger: sys.ledger().clone(),
            unique_chunks: r.unique_chunks,
            containers_sealed: r.containers_sealed,
        }
    }
}

/// Modelled time of the window between two marks, split into the
/// worker-parallel and serial parts described in the module docs.
struct Window {
    parallel_ns: u64,
    serial_ns: u64,
    client_bytes: u64,
}

impl Window {
    fn between(before: &Mark, after: &Mark, time: &TimeModel) -> Window {
        let l0 = &before.ledger;
        let l1 = &after.ledger;
        let client_bytes = l1.client_bytes() - l0.client_bytes();
        let lookup_cycles: u64 = LOOKUP_TASKS
            .iter()
            .map(|t| l1.cpu_cycles(*t) - l0.cpu_cycles(*t))
            .sum();
        let table_bytes = (l1.table_ssd_read_bytes + l1.table_ssd_write_bytes)
            - (l0.table_ssd_read_bytes + l0.table_ssd_write_bytes);
        let table_ios = table_bytes.div_ceil(fidr::tables::BUCKET_BYTES as u64);
        let data_bytes = (l1.data_ssd_read_bytes + l1.data_ssd_write_bytes)
            - (l0.data_ssd_read_bytes + l0.data_ssd_write_bytes);
        let host_ns = time.host_ns(l1) - time.host_ns(l0);
        let lookup_ns = time.cycles_ns(lookup_cycles);
        let unique_bytes = (after.unique_chunks - before.unique_chunks) * 4096;
        let parallel_ns = lookup_ns
            + time.hash_ns(client_bytes, 1)
            + time.compress_ns(unique_bytes)
            + time.table_ssd_ns(table_bytes, table_ios);
        let serial_ns = (host_ns - lookup_ns.min(host_ns))
            + time.nic_ns(client_bytes)
            + time.data_ssd_ns(
                data_bytes,
                after.containers_sealed - before.containers_sealed,
            );
        Window {
            parallel_ns,
            serial_ns,
            client_bytes,
        }
    }

    /// Amdahl projection: the parallel part divides across `workers`.
    fn projected_gbps(&self, workers: usize) -> f64 {
        let ns = self.serial_ns + self.parallel_ns / workers.max(1) as u64;
        self.client_bytes as f64 / (ns as f64 / 1e9) / 1e9
    }
}

fn main() {
    banner(
        "Ablation: worker scaling",
        "per-socket batch pipeline, write-heavy, cache sharded per worker",
    );
    let ops = fidr_bench::ops();
    let writes: Vec<(Lba, Bytes)> = Workload::new(WorkloadSpec::write_h(ops))
        .filter_map(|req| match req {
            Request::Write { lba, data } => Some((lba, data)),
            Request::Read { .. } => None,
        })
        .collect();
    let (warm, measured) = writes.split_at(writes.len() / 2);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let time = TimeModel::default();

    println!(
        "{} write ops ({} warmup + {} measured), host_cpus={host_cpus}",
        writes.len(),
        warm.len(),
        measured.len()
    );
    println!(
        "{:>7}  {:>12}  {:>21}  {:>15}  {:>17}",
        "workers", "wall GB/s", "(min .. max)", "modelled GB/s", "modelled speedup"
    );

    /// Timed wall repeats per worker count; the median is the reported
    /// number. One extra *warmup repeat* runs first and is discarded —
    /// it pays the one-time costs (page faults on the pre-generated
    /// write buffers, allocator growth, branch-predictor training) that
    /// would otherwise depress whichever timed repeat ran first. Its
    /// value is still recorded in the machine-readable line
    /// (`wall_gbps_warmup=`) so a snapshot can show how much the warmup
    /// absorbed.
    const REPEATS: usize = 3;

    let mut wall = Vec::new();
    let mut wall_spread = Vec::new();
    let mut wall_warmup = Vec::new();
    let mut modelled = Vec::new();
    for &workers in &[1usize, 2, 4] {
        let mut samples = Vec::with_capacity(REPEATS + 1);
        let mut modelled_gbps = 0.0;
        for _ in 0..REPEATS + 1 {
            // A fresh system per repeat: each sample sees the same cold
            // caches, the same warmup, the same persistent pool spin-up.
            let mut sys = FidrSystem::new(FidrConfig {
                cache_lines: 4096,
                table_buckets: 1 << 17,
                container_threshold: 4 << 20,
                hash_batch: 256,
                cache_mode: CacheMode::HwEngine { update_slots: 4 },
                hwtree_levels: Some(14),
                workers,
                cache_shards: workers,
                ..FidrConfig::default()
            });
            sys.write_batch(warm.iter().cloned()).expect("warmup write");
            let mark = Mark::of(&sys);
            let t0 = Instant::now();
            sys.write_batch(measured.iter().cloned())
                .expect("measured write");
            let elapsed = t0.elapsed();
            sys.flush().expect("flush");
            let window = Window::between(&mark, &Mark::of(&sys), &time);
            samples.push(window.client_bytes as f64 / elapsed.as_secs_f64() / 1e9);
            // Deterministic: identical across repeats, keep the last.
            modelled_gbps = window.projected_gbps(workers);
        }
        // The first sample is the warmup: record it, then drop it from
        // the median-of-three.
        let warmup = samples.remove(0);
        samples.sort_by(|a, b| a.total_cmp(b));
        let (min, median, max) = (samples[0], samples[REPEATS / 2], samples[REPEATS - 1]);
        println!(
            "{workers:>7}  {median:>12.3}  ({min:>8.3} .. {max:>8.3})  {modelled_gbps:>15.3}  \
             {:>16.2}x",
            modelled_gbps / modelled.first().copied().unwrap_or(modelled_gbps)
        );
        wall.push(median);
        wall_spread.push((min, max));
        wall_warmup.push(warmup);
        modelled.push(modelled_gbps);
    }

    // Machine-readable lines for scripts/bench_snapshot.sh.
    for (i, &workers) in [1usize, 2, 4].iter().enumerate() {
        println!(
            "worker-scaling: workers={workers} wall_gbps={:.4} wall_gbps_min={:.4} \
             wall_gbps_max={:.4} wall_gbps_warmup={:.4} modelled_gbps={:.4}",
            wall[i], wall_spread[i].0, wall_spread[i].1, wall_warmup[i], modelled[i]
        );
    }
    println!(
        "worker-scaling: wall_speedup_4x={:.3} modelled_speedup_4x={:.3} host_cpus={host_cpus} \
         hash_kernel={} batch_kernel={} wall_gbps_1x={:.4}",
        wall[2] / wall[0],
        modelled[2] / modelled[0],
        fidr::hash::kernel_name(),
        fidr::hash::batch_kernel_name(),
        wall[0]
    );
}
