//! The traced run: never mixed with the untraced one. Three parts, all
//! recorded as spans and written once at exit:
//!
//! 1. a wire round with a span per op (next to a plain round, so the
//!    tracing overhead is a measured number);
//! 2. the same ops replayed in-process through `FidrSystem` and
//!    `BaselineSystem`;
//! 3. the layer kernels.
//!
//! The per-layer metrics come from those plus the traced round's scrape,
//! and end in a reconciliation: kernel time × call count against engine
//! time, with the unattributed remainder reported.

use crate::estimate::{latencies_of, median, percentile};
use crate::kernels::{self, Kernels};
use crate::prom::{div, Counters};
use crate::replay::{baseline_engine, replay, serve_engine, Replay};
use crate::spans::Spans;
use crate::untraced::LedgerRatios;
use crate::wire::{run_round, Env, Round};
use crate::workload::{Kind, Plan, Requests, CHUNK};
use crate::{Metric, Outcome};

/// Payloads handed to the layer kernels.
const KERNEL_PAYLOADS: usize = 256;

/// Runs the traced invocation for `plan`; spans go to `spans_path`.
pub fn run(
    env: &Env,
    plan: &Plan,
    requests: &Requests,
    spans_path: &std::path::Path,
) -> std::io::Result<Outcome> {
    // One span per op of the traced round and of each replay, plus
    // epochs, GC passes and kernel batches.
    let ops = plan.setup.len() + plan.measured.len();
    let mut spans = Spans::with_capacity(3 * ops + 4096);
    let plain = run_round(env, plan, requests, None, false)?;
    let traced = run_round(env, plan, requests, Some(&mut spans), true)?;
    let fidr = replay(serve_engine(), plan, requests, &mut spans);
    let baseline = replay(baseline_engine(), plan, requests, &mut spans);
    let kernels = kernels::run(&requests.sample_payloads(KERNEL_PAYLOADS), &mut spans);
    spans.write(spans_path)?;

    let mut out = Outcome {
        attempted: plain.attempted + traced.attempted + fidr.attempted + baseline.attempted,
        failed: plain.failed + traced.failed + fidr.failed + baseline.failed,
        ..Outcome::default()
    };
    // The paper's ordering, checked on every traced run: FIDR moves
    // fewer host-memory bytes and burns fewer CPU cycles per client byte
    // than the baseline.
    let (f, b) = (
        LedgerRatios::of(&fidr.counters),
        LedgerRatios::of(&baseline.counters),
    );
    if f.mem_bytes_per_user_byte >= b.mem_bytes_per_user_byte
        || f.cpu_cycles_per_user_byte >= b.cpu_cycles_per_user_byte
    {
        out.violations.push(format!(
            "FIDR does not beat the baseline on the modelled ledger: {f:?} vs {b:?}"
        ));
    }
    out.metrics = layer_metrics(plan, &plain, &traced, &fidr, &baseline, &kernels);
    Ok(out)
}

/// Chunks that went through the compressor, whatever encoding won.
fn compressed_chunks(c: &Counters) -> f64 {
    c.get("fidr_compress_lzss_chunks") + c.get("fidr_compress_raw_fallback_chunks")
}

fn mean_us(ns: &[u32]) -> f64 {
    div(
        ns.iter().map(|&n| f64::from(n)).sum::<f64>(),
        ns.len() as f64,
    ) / 1e3
}

/// Σ kernel time × call count over one engine replay, in ns: what the
/// layer kernels explain of the engine's wall time.
fn attributed_ns(k: &Kernels, c: &Counters) -> f64 {
    let uniques = c.get("fidr_reduction_unique_chunks_count");
    let duplicates = c.get("fidr_reduction_duplicate_chunks_count");
    let moved = c.get("fidr_gc_moved_chunks_count");
    // Every read that misses the NIC buffer is re-hashed (verify on
    // read), as is every GC survivor.
    let verified = c.get("fidr_nic_read_buffer_misses_chunks") + moved;
    let nic_only = (k.nic_buffer_batch - k.hash_scalar).max(0.0);
    k.hash_scalar * (c.get("fidr_hash_chunks_hashed_chunks") + verified)
        + k.compress * compressed_chunks(c)
        + k.decompress * c.get("fidr_ssd_data_read_ios")
        + nic_only * c.get("fidr_nic_writes_buffered_chunks")
        + k.cache_hit * c.get("fidr_cache_hits_count")
        + k.cache_miss * c.get("fidr_cache_misses_count")
        + k.bucket_lookup_hit * duplicates
        + (k.bucket_lookup_miss + k.bucket_insert) * uniques
        + k.container_append * (uniques + moved)
        + k.container_seal * c.get("fidr_reduction_containers_sealed_count")
}

/// The per-layer metrics, in reporting order (the `host.*` three are
/// appended by `main`).
pub fn layer_metrics(
    plan: &Plan,
    plain: &Round,
    traced: &Round,
    fidr: &Replay,
    baseline: &Replay,
    k: &Kernels,
) -> Vec<Metric> {
    let c = &traced.counters;
    let ops = c.ops();
    let kops = ops / 1e3;
    let measured_ops = plan.measured.len() as f64;
    let base_ledger = LedgerRatios::of(&baseline.counters);

    let wall_ns = |r: &Round| r.epochs.iter().map(|e| e.wall_ns).sum::<u64>() as f64;
    let wire_us_per_op = wall_ns(traced) / measured_ops / 1e3;
    let engine_us_per_op = fidr.measured_engine_ns as f64 / measured_ops / 1e3;
    let overhead_us = wire_us_per_op - engine_us_per_op;
    // Epoch by epoch, so a steal burst in one epoch cannot pass for
    // tracing cost.
    let slowdown: Vec<f64> = traced
        .epochs
        .iter()
        .zip(&plain.epochs)
        .map(|(t, p)| div(t.wall_ns as f64, p.wall_ns as f64))
        .collect();
    let client_cpu_ns: u64 = traced.epochs.iter().map(|e| e.client_cpu_ns).sum();
    let (utime, stime) = traced.server_ticks;

    let compressed = compressed_chunks(c);
    let buffer_reads =
        c.get("fidr_nic_read_buffer_hits_chunks") + c.get("fidr_nic_read_buffer_misses_chunks");
    let mut gc_ms: Vec<f64> = fidr.gc_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    gc_ms.sort_by(f64::total_cmp);
    let mut stalls = fidr.write_ns.clone();
    stalls.sort_unstable();

    let mut m = vec![
        Metric::new("hash.scalar_ns_per_chunk", k.hash_scalar, "ns"),
        Metric::new("hash.lanes_ns_per_chunk", k.hash_lanes, "ns"),
        Metric::new(
            "hash.chunks_per_op",
            div(c.get("fidr_hash_chunks_hashed_chunks"), ops),
            "ratio",
        ),
        Metric::new("compress.compress_ns_per_chunk", k.compress, "ns"),
        Metric::new("compress.decompress_ns_per_chunk", k.decompress, "ns"),
        Metric::new("compress.chunks_per_op", div(compressed, ops), "ratio"),
        Metric::new(
            "compress.raw_fallback_ratio",
            div(c.get("fidr_compress_raw_fallback_chunks"), compressed),
            "ratio",
        ),
        Metric::new(
            "compress.stored_ratio",
            div(
                c.get("fidr_reduction_stored_bytes"),
                c.get("fidr_reduction_unique_chunks_count") * CHUNK as f64,
            ),
            "ratio",
        ),
        Metric::new("nic.encode_write_ns", k.encode_write, "ns"),
        Metric::new("nic.decode_write_ns", k.decode_write, "ns"),
        Metric::new("nic.encode_read_reply_ns", k.encode_read_reply, "ns"),
        Metric::new("nic.decode_read_reply_ns", k.decode_read_reply, "ns"),
        Metric::new("nic.buffer_batch_ns_per_chunk", k.nic_buffer_batch, "ns"),
        Metric::new(
            "nic.read_buffer_hit_ratio",
            div(c.get("fidr_nic_read_buffer_hits_chunks"), buffer_reads),
            "ratio",
        ),
    ];
    for kind in [Kind::Write, Kind::Read, Kind::Delete] {
        let all = traced.epochs.iter().flat_map(|e| &e.latencies_ns);
        let sorted = latencies_of(&plan.measured, all, kind);
        for (label, q) in [("p50", 0.50), ("p99", 0.99)] {
            m.push(Metric::new(
                &format!("wire.{}_{label}_us", kind.name()),
                f64::from(percentile(&sorted, q)) / 1e3,
                "us",
            ));
        }
    }
    m.extend([
        Metric::new("wire.overhead_us_per_op", overhead_us, "us"),
        Metric::new(
            "wire.overhead_share",
            div(overhead_us, wire_us_per_op),
            "ratio",
        ),
        Metric::new(
            "server.sys_cpu_share",
            div(stime as f64, (utime + stime) as f64),
            "ratio",
        ),
        Metric::new(
            "server.ctx_switches_per_op",
            traced.server_proc.ctx_switches as f64 / measured_ops,
            "ratio",
        ),
        Metric::new("server.threads", traced.server_proc.threads as f64, "count"),
        Metric::new(
            "server.rx_bytes_per_op",
            div(c.get("fidr_server_rx_bytes"), ops),
            "B",
        ),
        Metric::new(
            "server.tx_bytes_per_op",
            div(c.get("fidr_server_tx_bytes"), ops),
            "B",
        ),
        Metric::new(
            "server.queue_waits_per_kop",
            div(c.get("fidr_server_queue_waits_count"), kops),
            "ratio",
        ),
        Metric::new(
            "client.cpu_us_per_op",
            client_cpu_ns as f64 / measured_ops / 1e3,
            "us",
        ),
        Metric::new("cache.access_hit_ns", k.cache_hit, "ns"),
        Metric::new("cache.access_miss_ns", k.cache_miss, "ns"),
        Metric::new(
            "cache.hit_ratio",
            c.ratio("fidr_cache_hits_count", "fidr_cache_accesses_count"),
            "ratio",
        ),
        Metric::new(
            "cache.evictions_per_kop",
            div(c.get("fidr_cache_evictions_count"), kops),
            "ratio",
        ),
        Metric::new(
            "cache.dirty_flushes_per_kop",
            div(c.get("fidr_cache_dirty_flushes_count"), kops),
            "ratio",
        ),
        Metric::new("tables.bucket_lookup_hit_ns", k.bucket_lookup_hit, "ns"),
        Metric::new("tables.bucket_lookup_miss_ns", k.bucket_lookup_miss, "ns"),
        Metric::new("tables.bucket_insert_ns", k.bucket_insert, "ns"),
        Metric::new("tables.bucket_codec_ns", k.bucket_codec, "ns"),
        Metric::new(
            "tables.container_append_ns_per_chunk",
            k.container_append,
            "ns",
        ),
        Metric::new("tables.container_seal_us", k.container_seal / 1e3, "us"),
        Metric::new(
            "ssd.table_read_ios_per_kop",
            div(c.get("fidr_ssd_table_read_ios"), kops),
            "ratio",
        ),
        Metric::new(
            "ssd.table_write_ios_per_kop",
            div(c.get("fidr_ssd_table_write_ios"), kops),
            "ratio",
        ),
        Metric::new(
            "ssd.data_read_ios_per_kop",
            div(c.get("fidr_ssd_data_read_ios"), kops),
            "ratio",
        ),
        Metric::new(
            "ssd.data_write_bytes_per_user_byte",
            c.ratio("fidr_ssd_data_write_bytes", "fidr_client_write_bytes"),
            "ratio",
        ),
        Metric::new(
            "ssd.containers_sealed",
            c.get("fidr_reduction_containers_sealed_count"),
            "count",
        ),
        Metric::new("core.write_us_per_op", mean_us(&fidr.write_ns), "us"),
        Metric::new("core.read_us_per_op", mean_us(&fidr.read_ns), "us"),
        Metric::new("core.delete_us_per_op", mean_us(&fidr.delete_ns), "us"),
        Metric::new(
            "core.batch_stall_p99_us",
            f64::from(percentile(&stalls, 0.99)) / 1e3,
            "us",
        ),
        Metric::new("core.flush_ms", fidr.flush.as_secs_f64() * 1e3, "ms"),
        Metric::new("core.gc_pass_ms_p50", median(&gc_ms), "ms"),
        Metric::new(
            "core.gc_pass_ms_max",
            gc_ms.last().copied().unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "core.unattributed_share",
            1.0 - div(
                attributed_ns(k, &fidr.counters),
                fidr.total_engine_ns as f64,
            ),
            "ratio",
        ),
        Metric::new("gc.passes", c.get("fidr_server_gc_passes_count"), "count"),
        Metric::new(
            "gc.moved_chunks_per_delete",
            c.ratio("fidr_gc_moved_chunks_count", "fidr_delete_acked_count"),
            "ratio",
        ),
        Metric::new(
            "gc.write_amp",
            c.ratio("fidr_gc_copied_bytes", "fidr_gc_reclaimed_bytes"),
            "ratio",
        ),
        Metric::new(
            "gc.reclaimed_bytes_per_deleted_byte",
            div(
                c.get("fidr_gc_reclaimed_bytes"),
                c.get("fidr_delete_acked_count") * CHUNK as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "gc.pending_dead_at_end",
            c.get("fidr_delete_pending_dead_count"),
            "count",
        ),
        Metric::new(
            "reduction.dedup_ratio",
            c.get("fidr_reduction_dedup_ratio"),
            "ratio",
        ),
        Metric::new(
            "baseline.write_us_per_op",
            mean_us(&baseline.write_ns),
            "us",
        ),
        Metric::new("baseline.read_us_per_op", mean_us(&baseline.read_ns), "us"),
        Metric::new(
            "baseline.modelled_mem_bytes_per_user_byte",
            base_ledger.mem_bytes_per_user_byte,
            "ratio",
        ),
        Metric::new(
            "baseline.modelled_cpu_cycles_per_user_byte",
            base_ledger.cpu_cycles_per_user_byte,
            "ratio",
        ),
        Metric::new(
            "hwsim.pcie_root_complex_bytes_per_user_byte",
            div(c.get("fidr_pcie_root_complex_bytes"), c.user_bytes()),
            "ratio",
        ),
        Metric::new("pool.scope_handoff_ns", k.pool_handoff, "ns"),
        Metric::new("trace.overhead_pct", 100.0 * (median(&slowdown) - 1.0), "%"),
    ]);
    m
}
