//! `fidr` — command-line driver for the FIDR reproduction.
//!
//! ```text
//! fidr run --workload write-h --variant full [--ops N] [--metrics-out F] [--spans-out F]
//! fidr compare [--workload write-h] [--ops N]
//! fidr stats [--workload write-h] [--variant full] [--ops N] [--metrics-out F] [--spans-out F]
//! fidr spans [--workload write-h] [--variant full] [--ops N] [--spans-out F]
//! fidr latency
//! fidr cost [--capacity-tb 500] [--throughput 75]
//! fidr trace <file> [--chunk-kb 32] [--metrics-out F] [--spans-out F]
//! ```

use fidr::chunk::{replay_chunking, Lba};
use fidr::cli::{
    allowed_flags, bool_flag, f64_flag, list_flag, opt_positive_u64_flag, output_flag, parse_flags,
    reject_unknown_flags, u16_flag, u64_flag, usize_flag, variant_by_name, workload_by_name,
    write_output,
};
use fidr::client::{
    run_churn, run_churn_verify, run_open_loop, run_traffic, run_verify, BlockDevice, ClientError,
    ClusterClient, StorageClient,
};
use fidr::compress::ContentGenerator;
use fidr::core::{FidrConfig, FidrSystem, LatencyModel, TieredDedupConfig};
use fidr::cost::{CostModel, Scenario};
use fidr::faults::FaultPlan;
use fidr::hwsim::{report, PlatformSpec};
use fidr::nic::protocol::StatsFormat;
use fidr::router::{drain_node, join_node, map_from_addrs, push_map, Router, RouterConfig};
use fidr::server::{Server, ServerConfig};
use fidr::ssd::SsdSpec;
use fidr::trace::{chrome_trace_json, validate_chrome_trace, SpanRecord, TraceConfig};
use fidr::workload::{parse_trace, to_block_writes, TraceOp, WorkloadSpec};
use fidr::{run_workload, RunConfig, SystemVariant};
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "fidr — FIDR (MICRO'19) storage-system reproduction

USAGE:
    fidr run     --workload <NAME> --variant <VARIANT> [--ops N] [--faults SPEC]
                 [--workers N] [--cache-shards N] [--tiered]
                 [--metrics-out FILE] [--spans-out FILE]
    fidr compare [--workload <NAME>] [--ops N]
    fidr stats   [--workload <NAME>] [--variant <VARIANT>] [--ops N] [--faults SPEC]
                 [--workers N] [--cache-shards N] [--tiered]
                 [--metrics-out FILE] [--spans-out FILE]
    fidr spans   [--workload <NAME>] [--variant <VARIANT>] [--ops N] [--faults SPEC]
                 [--workers N] [--cache-shards N] [--tiered] [--spans-out FILE]
    fidr latency
    fidr cost    [--capacity-tb X] [--throughput GBPS]
    fidr trace   <FILE> [--chunk-kb 4|8|16|32] [--faults SPEC]
                 [--workers N] [--cache-shards N]
                 [--metrics-out FILE] [--spans-out FILE]
    fidr report  [--ops N] [--out FILE]
    fidr serve   [--port P] [--port-file FILE] [--conns-limit N] [--queue N]
                 [--workers N] [--cache-shards N] [--tiered] [--sample-ms MS]
                 [--metrics-out FILE] [--node-id ID]
                 [--gc-every N] [--gc-threshold F]
    fidr client  (--addr HOST:PORT | --nodes A,B,...) [--conns N] [--ops N]
                 [--seed S] [--mode traffic|open|verify|churn|churn-verify]
                 [--tenants N] [--zipf S] [--rate OPS_PER_SEC]
                 [--blocks N] [--rounds N] [--delete-pct P]
    fidr gc      [--tenants N] [--blocks N] [--rounds N] [--delete-pct P]
                 [--seed S] [--threshold F] [--workers N] [--metrics-out FILE]
    fidr scrape  --addr HOST:PORT [--prom] [--out FILE]
    fidr top     --addr HOST:PORT [--interval-ms MS] [--iters N]
    fidr route   --nodes A,B,... [--port P] [--port-file FILE] [--conns-limit N]
    fidr reshard --nodes A,B,... [--join HOST:PORT | --drain ID]

WORKLOADS:  write-h | write-m | write-l | read-mixed | vdi | database
VARIANTS:   baseline | nic-p2p | hw-single | full
PARALLEL:   --workers N fans FIDR's dedup lookups and speculative
            compression, one lane group at a time, over N host threads
            (FIDR hashes in the NIC; the baseline fans its hashing and
            compression per write batch); --cache-shards N splits the
            table cache into N hash-prefix shards, each with its own index
            engine. Results merge in batch order, so metrics and spans
            exports stay byte-identical for any --workers value. With an
            armed --faults schedule the pipeline runs serially (fault
            decisions depend on device-call order).
TIERED:     --tiered enables the temperature-tiered table cache: per-stream
            locality classification admits only hot-stream fingerprints to
            DRAM; cold-stream writes defer dedup to a background scrubber
            (cache.tier.*, dedup.deferred.* and scrub.* metrics). FIDR
            variants only; metrics/spans stay byte-identical across
            --workers values.
OUTPUTS:    --metrics-out writes the metrics snapshot JSON (fidr.metrics.v1;
            `fidr stats` also accepts the legacy --out). --spans-out writes
            per-request spans as Chrome-trace-event JSON (fidr.spans.v1) —
            open it in https://ui.perfetto.dev or chrome://tracing. Both
            files are byte-identical across same-seed runs.
FAULTS:     seeded device-fault schedule, e.g.
            --faults seed=7,data_write=0.01,corrupt=0.005,engine_at=2000
            (keys: seed, data_write, data_read, corrupt, table_read,
             table_write, nic, engine_at — recovery shows up in the
             faults.*, retry.* and degraded.* metrics)
SERVING:    `fidr serve` binds 127.0.0.1 (--port 0 = ephemeral, written to
            --port-file) and serves the §6.2 wire protocol concurrently;
            with --conns-limit N it drains and exits cleanly after N
            connections have come and gone. `fidr client` drives
            interleaved write/read/verify traffic over --conns parallel
            connections and fails on any mismatch. Serving counters are
            exported as server.* in the fidr.metrics.v1 snapshot.
TELEMETRY:  a running server samples its merged metrics every --sample-ms
            (default 1000; 0 disables the sampler) into a rolling
            fidr.timeseries.v1 ring with per-stream rollups and slow-request
            exemplars. `fidr scrape` fetches it in-band over the wire
            protocol (JSON, or Prometheus text with --prom); `fidr top`
            refreshes a live terminal view (throughput, queue, dedup ratio,
            cache hit rate, top streams, slow exemplars) every --interval-ms,
            --iters times (0 = until interrupted). The drain-time metrics
            export stays byte-identical whether the sampler runs or not.
LIFECYCLE:  `fidr client --mode churn` drives a deterministic
            write→overwrite→delete aging schedule (wire Delete
            frames) over --tenants x --blocks blocks for --rounds rounds,
            deleting --delete-pct percent of visits; --mode churn-verify
            re-reads every surviving block of the same-seed schedule and
            fails on any mismatch — run it after a GC pass to prove the
            collector never reclaims referenced chunks. A server started
            with --gc-every N runs a GC pass after every N acked deletes
            (and opportunistically when idle); --gc-threshold F compacts
            containers whose live fraction fell below F (default 0.5).
            `fidr gc` runs the whole lifecycle in-process — churn, collect
            garbage, verify survivors — and fails if churn deletes freed
            no space or any survivor read back wrong (gc.* metrics in the
            --metrics-out snapshot).
CLUSTER:    --nodes A,B,... names a serving fleet; node ids are 1-based
            positions in the list, so every command passing the same list
            derives the same fidr.shardmap.v1 map. `fidr client --nodes`
            fans traffic out over the fleet by consistent-hash routing;
            --mode open drives open-loop Poisson arrivals over --tenants
            Zipf(--zipf)-popular tenants at --rate ops/s, and --mode verify
            re-reads everything the same-seed open run wrote (exit 1 on any
            mismatch). `fidr route` runs a stateless front tier speaking the
            single-node wire protocol over the fleet. `fidr reshard --join`
            adds a node (survivors rehome its keys before acking);
            --drain ID removes one, after it rehomes every block it holds —
            zero acked-write loss either way.";

/// Exports `spans` as Chrome-trace-event JSON to `path`, self-validating
/// the shape on the way out; returns the event count.
fn export_spans(path: &str, spans: &[SpanRecord]) -> Result<usize, String> {
    let json = chrome_trace_json(spans);
    let events =
        validate_chrome_trace(&json).map_err(|e| format!("internal: bad trace JSON: {e}"))?;
    write_output(path, &json)?;
    Ok(events)
}

/// Parses the optional `--tiered` boolean flag into a system config.
fn tiered_flag(flags: &HashMap<String, String>) -> Result<Option<TieredDedupConfig>, String> {
    Ok(bool_flag(flags, "tiered")?.then(TieredDedupConfig::default))
}

/// Parses the optional `--faults` schedule flag.
fn faults_flag(flags: &HashMap<String, String>) -> Result<FaultPlan, String> {
    match flags.get("faults") {
        Some(spec) if !spec.is_empty() => {
            FaultPlan::parse(spec).map_err(|e| format!("bad --faults: {e}"))
        }
        Some(_) => Err("--faults needs a value".into()),
        None => Ok(FaultPlan::default()),
    }
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let ops = usize_flag(flags, "ops", 15_000)?;
    let wl = flags.get("workload").ok_or("missing --workload")?;
    let spec = workload_by_name(wl, ops).ok_or("unknown workload")?;
    let var = flags.get("variant").ok_or("missing --variant")?;
    let variant = variant_by_name(var).ok_or("unknown variant")?;
    let faults = faults_flag(flags)?;
    let workers = usize_flag(flags, "workers", 1)?;
    let cache_shards = usize_flag(flags, "cache-shards", 1)?;
    let tiered = tiered_flag(flags)?;
    let metrics_out = output_flag(flags, &["metrics-out"])?;
    let spans_out = output_flag(flags, &["spans-out"])?;

    let r = run_workload(
        variant,
        spec,
        RunConfig {
            faults,
            workers,
            cache_shards,
            tiered,
            trace: if spans_out.is_some() {
                TraceConfig::enabled()
            } else {
                TraceConfig::default()
            },
            ..RunConfig::default()
        },
    );
    let platform = PlatformSpec::default();
    println!("workload: {}   variant: {}\n", r.workload, variant.label());
    println!("host memory breakdown:");
    print!("{}", report::memory_breakdown_table(&r.ledger));
    println!("\nCPU breakdown:");
    print!("{}", report::cpu_breakdown_table(&r.ledger));
    println!("\nprojection on a 22-core / 170-GB/s socket:");
    print!("{}", report::projection_table(&r.ledger, &platform, &[]));
    println!(
        "\nreduction: {:.2}x ({} unique / {} duplicate chunks); cache hit {:.1}%",
        r.reduction.reduction_factor(),
        r.reduction.unique_chunks,
        r.reduction.duplicate_chunks,
        r.cache.hit_rate() * 100.0,
    );
    if let Some(h) = r.hwtree {
        println!(
            "cache HW-engine: {} searches / {} updates, crash rate {:.4}%",
            h.searches,
            h.updates,
            h.crash_rate() * 100.0
        );
    }
    if let Some(path) = &metrics_out {
        write_output(path, &r.metrics.to_json())?;
        println!("wrote {path}");
    }
    if let Some(path) = &spans_out {
        let events = export_spans(path, &r.spans)?;
        println!(
            "wrote {path}: {events} span events ({} dropped by the ring)",
            r.metrics.counter("trace.dropped_spans").unwrap_or(0)
        );
    }
    Ok(())
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let ops = usize_flag(flags, "ops", 15_000)?;
    let platform = PlatformSpec::default();
    let specs = match flags.get("workload") {
        Some(name) => vec![workload_by_name(name, ops).ok_or("unknown workload")?],
        None => WorkloadSpec::table3(ops),
    };
    println!(
        "{:<12} {:<24} {:>12} {:>12} {:>14}",
        "workload", "variant", "mem B/B", "cores@75", "achievable"
    );
    for spec in specs {
        for variant in SystemVariant::ALL {
            let r = run_workload(variant, spec.clone(), RunConfig::default());
            println!(
                "{:<12} {:<24} {:>12.2} {:>12.1} {:>9.1} GB/s",
                r.workload,
                variant.label(),
                r.ledger.mem_bytes_per_client_byte(),
                fidr::hwsim::Projection::cores_needed(
                    &r.ledger,
                    &platform,
                    platform.target_throughput
                ),
                r.achievable_gbps(&platform),
            );
        }
    }
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let ops = usize_flag(flags, "ops", 15_000)?;
    let wl = flags
        .get("workload")
        .map(String::as_str)
        .unwrap_or("write-h");
    let spec = workload_by_name(wl, ops).ok_or("unknown workload")?;
    let var = flags.get("variant").map(String::as_str).unwrap_or("full");
    let variant = variant_by_name(var).ok_or("unknown variant")?;
    let faults = faults_flag(flags)?;
    let workers = usize_flag(flags, "workers", 1)?;
    let cache_shards = usize_flag(flags, "cache-shards", 1)?;
    let tiered = tiered_flag(flags)?;
    let metrics_out = output_flag(flags, &["metrics-out", "out"])?;
    let spans_out = output_flag(flags, &["spans-out"])?;

    // Tracing is always on for `stats`: the critical-path breakdown below
    // is derived from spans.
    let r = run_workload(
        variant,
        spec,
        RunConfig {
            faults,
            workers,
            cache_shards,
            tiered,
            trace: TraceConfig::enabled(),
            ..RunConfig::default()
        },
    );
    let json = r.metrics.to_json();
    let json_to_stdout = metrics_out.is_none();
    match &metrics_out {
        Some(path) => {
            write_output(path, &json)?;
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    if let Some(path) = &spans_out {
        let events = export_spans(path, &r.spans)?;
        eprintln!("wrote {path} ({events} span events)");
    }
    // Keep stdout machine-readable: when the metrics JSON went to stdout,
    // the human-facing breakdown goes to stderr.
    let breakdown = format!("{}", r.critical_path);
    if json_to_stdout {
        eprint!("{breakdown}");
    } else {
        print!("{breakdown}");
    }
    Ok(())
}

fn cmd_spans(flags: &HashMap<String, String>) -> Result<(), String> {
    let ops = usize_flag(flags, "ops", 2_000)?;
    let wl = flags
        .get("workload")
        .map(String::as_str)
        .unwrap_or("write-h");
    let spec = workload_by_name(wl, ops).ok_or("unknown workload")?;
    let var = flags.get("variant").map(String::as_str).unwrap_or("full");
    let variant = variant_by_name(var).ok_or("unknown variant")?;
    let faults = faults_flag(flags)?;
    let workers = usize_flag(flags, "workers", 1)?;
    let cache_shards = usize_flag(flags, "cache-shards", 1)?;
    let tiered = tiered_flag(flags)?;

    let r = run_workload(
        variant,
        spec,
        RunConfig {
            faults,
            workers,
            cache_shards,
            tiered,
            trace: TraceConfig::enabled(),
            ..RunConfig::default()
        },
    );
    let breakdown = format!("{}", r.critical_path);
    match output_flag(flags, &["spans-out"])? {
        Some(path) => {
            let events = export_spans(&path, &r.spans)?;
            println!(
                "wrote {path}: {events} span events, {} dropped by the ring",
                r.metrics.counter("trace.dropped_spans").unwrap_or(0)
            );
            println!("open it in https://ui.perfetto.dev or chrome://tracing\n");
            print!("{breakdown}");
        }
        None => {
            // Spans JSON on stdout; the human-facing breakdown on stderr.
            let json = chrome_trace_json(&r.spans);
            validate_chrome_trace(&json).map_err(|e| format!("internal: bad trace JSON: {e}"))?;
            print!("{json}");
            eprint!("{breakdown}");
        }
    }
    Ok(())
}

fn cmd_report(flags: &HashMap<String, String>) -> Result<(), String> {
    use std::fmt::Write as _;
    let ops = usize_flag(flags, "ops", 15_000)?;
    let platform = PlatformSpec::default();
    let mut md = String::new();
    let _ = writeln!(md, "# FIDR measured results ({ops} requests per run)\n");

    let _ = writeln!(
        md,
        "| Workload | Variant | mem B/B | cores@75 GB/s | achievable | dedup | cache hit |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|");
    for spec in WorkloadSpec::table3(ops) {
        for variant in SystemVariant::ALL {
            let r = run_workload(variant, spec.clone(), RunConfig::default());
            let _ = writeln!(
                md,
                "| {} | {} | {:.2} | {:.1} | {:.1} GB/s | {:.1}% | {:.1}% |",
                r.workload,
                variant.label(),
                r.ledger.mem_bytes_per_client_byte(),
                fidr::hwsim::Projection::cores_needed(
                    &r.ledger,
                    &platform,
                    platform.target_throughput
                ),
                r.achievable_gbps(&platform),
                r.reduction.dedup_ratio() * 100.0,
                r.cache.hit_rate() * 100.0,
            );
        }
    }

    let ssd = SsdSpec::default();
    let _ = writeln!(
        md,
        "\nBatched 4-KB read latency: baseline {:.0} us -> FIDR {:.0} us.",
        LatencyModel::baseline_read(&ssd).total().as_secs_f64() * 1e6,
        LatencyModel::fidr_read(&ssd).total().as_secs_f64() * 1e6,
    );

    match flags.get("out") {
        Some(path) if !path.is_empty() => {
            std::fs::write(path, &md).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote {path}");
        }
        _ => print!("{md}"),
    }
    Ok(())
}

fn cmd_latency() {
    let ssd = SsdSpec::default();
    for (name, model) in [
        ("baseline read", LatencyModel::baseline_read(&ssd)),
        ("FIDR read", LatencyModel::fidr_read(&ssd)),
        ("write commit", LatencyModel::write_commit()),
    ] {
        println!("{name}:");
        for stage in &model.stages {
            println!(
                "  {:<44} {:>7.0} us",
                stage.name,
                stage.time.as_secs_f64() * 1e6
            );
        }
        println!(
            "  {:<44} {:>7.0} us\n",
            "TOTAL",
            model.total().as_secs_f64() * 1e6
        );
    }
}

fn cmd_cost(flags: &HashMap<String, String>) -> Result<(), String> {
    let capacity_tb = f64_flag(flags, "capacity-tb", 500.0)?;
    let throughput = f64_flag(flags, "throughput", 75.0)?;
    let effective_gb = capacity_tb * 1000.0;
    let model = CostModel::default();
    let fidr = model.fidr(Scenario {
        effective_gb,
        throughput_gbps: throughput,
        reduction_factor: 4.0,
        reduced_fraction: 1.0,
        cores: 0.29 * throughput,
        cache_dram_gb: 100.0,
    });
    println!(
        "FIDR at {capacity_tb:.0} TB / {throughput:.0} GB/s: ${:.0} total (${:.3}/GB), saving {:.1}% vs no reduction",
        fidr.total(),
        fidr.total() / effective_gb,
        model.saving(&fidr, effective_gb) * 100.0
    );
    println!(
        "  data SSD ${:.0} | table SSD ${:.0} | DRAM ${:.0} | CPU ${:.0} | FPGA ${:.0}",
        fidr.data_ssd, fidr.table_ssd, fidr.dram, fidr.cpu, fidr.fpga
    );
    Ok(())
}

fn cmd_trace(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let path = positional.first().ok_or("missing trace file")?;
    let chunk_kb = usize_flag(flags, "chunk-kb", 32)?;
    if !chunk_kb.is_multiple_of(4) || chunk_kb == 0 {
        return Err("--chunk-kb must be a positive multiple of 4".into());
    }
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let records = parse_trace(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
    let writes = to_block_writes(&records);
    println!("{} records, {} block writes", records.len(), writes.len());
    let fine = replay_chunking(&writes, 1, 1024);
    let coarse = replay_chunking(&writes, chunk_kb / 4, 1024);
    println!(
        "4-KB chunking:  {} IO blocks, dedup {:.1}%",
        fine.total_io_blocks(),
        fine.dedup_ratio() * 100.0
    );
    println!(
        "{chunk_kb}-KB chunking: {} IO blocks, dedup {:.1}% -> {:.1}x more IO",
        coarse.total_io_blocks(),
        coarse.dedup_ratio() * 100.0,
        coarse.total_io_blocks() as f64 / fine.total_io_blocks().max(1) as f64
    );

    let faults = faults_flag(flags)?;
    let replay_metrics = output_flag(flags, &["metrics-out"])?;
    let replay_spans = output_flag(flags, &["spans-out"])?;
    if replay_metrics.is_some() || replay_spans.is_some() || !faults.is_inert() {
        // Replay the trace through a full FIDR system (synthetic chunk
        // contents derived from each record's content tag, as in the
        // trace-driven integration tests) and snapshot its metrics —
        // under the requested fault schedule, if any.
        let gen = ContentGenerator::new(0.5);
        let mut sys = FidrSystem::new(FidrConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 128 << 10,
            hash_batch: 16,
            faults,
            workers: usize_flag(flags, "workers", 1)?,
            cache_shards: usize_flag(flags, "cache-shards", 1)?,
            trace: if replay_spans.is_some() {
                TraceConfig::enabled()
            } else {
                TraceConfig::default()
            },
            ..FidrConfig::default()
        });
        let mut written = std::collections::HashSet::new();
        for rec in &records {
            for b in 0..u64::from(rec.blocks) {
                let lba = Lba(rec.lba + b);
                match rec.op {
                    TraceOp::Write => {
                        let content = rec.content.wrapping_add(b);
                        sys.write(lba, bytes::Bytes::from(gen.chunk(content, 4096)))
                            .map_err(|e| format!("trace replay write: {e}"))?;
                        written.insert(lba);
                    }
                    TraceOp::Read => {
                        if written.contains(&lba) {
                            sys.read(lba)
                                .map_err(|e| format!("trace replay read: {e}"))?;
                        }
                    }
                }
            }
        }
        sys.flush()
            .map_err(|e| format!("trace replay flush: {e}"))?;
        let metrics = sys.metrics();
        if !faults.is_inert() {
            let count = |name: &str| metrics.counter(name).unwrap_or(0);
            let injected: u64 = fidr::faults::FaultSite::ALL
                .iter()
                .map(|s| count(&format!("faults.{}.injected", s.slug())))
                .sum();
            println!(
                "fault replay: {injected} faults injected; {} device retries, \
                 {} read repairs ({} unrecovered), {} failed seals, hw-engine degraded: {}",
                count("ssd.data.retry.attempts") + count("ssd.table.retry.attempts"),
                count("retry.read_repair.repaired"),
                count("retry.read_repair.unrecovered"),
                count("retry.seal.failures"),
                count("degraded.hw_engine.count") != 0,
            );
            let scrubbed = sys
                .verify_integrity()
                .map_err(|e| format!("post-fault scrub: {e}"))?;
            println!("post-fault scrub: {scrubbed} chunks verified clean");
        }
        if let Some(out) = &replay_metrics {
            write_output(out, &metrics.to_json())?;
            println!("wrote {out}");
        }
        if let Some(out) = &replay_spans {
            let events = export_spans(out, &sys.tracer().spans())?;
            println!("wrote {out} ({events} span events)");
        }
    }
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let port = u16_flag(flags, "port", 0)?;
    let conns_limit = opt_positive_u64_flag(flags, "conns-limit")?;
    let queue = usize_flag(flags, "queue", 64)?;
    let sample_ms = u64_flag(flags, "sample-ms", 1000)?;
    let metrics_out = output_flag(flags, &["metrics-out"])?;
    let cfg = ServerConfig {
        addr: std::net::SocketAddr::from(([127, 0, 0, 1], port)),
        system: FidrConfig {
            workers: usize_flag(flags, "workers", 1)?,
            cache_shards: usize_flag(flags, "cache-shards", 1)?,
            tiered: tiered_flag(flags)?,
            ..FidrConfig::default()
        },
        queue_capacity: queue,
        conns_limit,
        sample_ms,
        node_id: u64_flag(flags, "node-id", 0)?,
        gc_every: u64_flag(flags, "gc-every", 0)?,
        gc_threshold: f64_flag(flags, "gc-threshold", 0.5)?,
        ..ServerConfig::default()
    };
    let handle = Server::spawn(cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = handle.local_addr();
    println!("listening on {addr}");
    // Host properties, so stderr only: exports stay identical across hosts.
    eprintln!(
        "hash_kernel={} batch_kernel={}",
        fidr::hash::kernel_name(),
        fidr::hash::batch_kernel_name()
    );
    if let Some(path) = flags.get("port-file").filter(|p| !p.is_empty()) {
        // Atomic publish (temp file + rename): readers either see no
        // file yet or a whole `host:port` line, never a torn write.
        fidr::server::write_port_file(std::path::Path::new(path), addr)
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    if conns_limit.is_none() {
        println!("serving until killed (pass --conns-limit N for a self-draining run)");
    }
    let metrics = handle.wait().map_err(|e| format!("drain: {e}"))?;
    let count = |name: &str| metrics.counter(name).unwrap_or(0);
    println!(
        "drained: {} connections, {} frames decoded, {} rejected, \
         {} writes / {} reads / {} deletes served, {} op failures, {} gc passes",
        count("server.connections.accepted.count"),
        count("server.frames.decoded.count"),
        count("server.frames.rejected.count"),
        count("server.ops.write.count"),
        count("server.ops.read.count"),
        count("server.ops.delete.count"),
        count("server.ops.failed.count"),
        count("server.gc.passes.count"),
    );
    if let Some(path) = &metrics_out {
        write_output(path, &metrics.to_json())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_client(flags: &HashMap<String, String>) -> Result<(), String> {
    let nodes = list_flag(flags, "nodes")?;
    let conns = usize_flag(flags, "conns", 4)?;
    let ops = usize_flag(flags, "ops", 200)?;
    let seed = u64_flag(flags, "seed", 42)?;
    let mode = flags.get("mode").map(String::as_str).unwrap_or("traffic");
    let open_spec = fidr::workload::OpenLoopSpec {
        tenants: u64_flag(flags, "tenants", 8)?.max(1),
        ops: ops as u64,
        rate: f64_flag(flags, "rate", 0.0)?,
        zipf_s: f64_flag(flags, "zipf", 1.0)?,
        seed,
    };
    let churn_spec = churn_spec_from_flags(flags, 8, seed)?;
    let shift = fidr::core::DEFAULT_STREAM_SHIFT;
    // One device factory covering both topologies: a single node behind
    // --addr, or a consistent-hash fleet behind --nodes. Prefer the
    // fleet's installed map (its ids survive reshards); fall back to
    // the list-derived bootstrap map for an uninstalled fleet.
    type Device = Box<dyn BlockDevice + Send>;
    let connect: Box<dyn Fn() -> Result<Device, ClientError>> = if nodes.is_empty() {
        let addr = addr_flag(flags)?;
        Box::new(move || Ok(Box::new(StorageClient::connect(addr)?)))
    } else {
        let map = fetch_current_map(&nodes).map_or_else(
            || map_from_addrs(&nodes).map_err(|e| format!("bad --nodes: {e}")),
            Ok,
        )?;
        Box::new(move || Ok(Box::new(ClusterClient::connect(map.clone())?)))
    };
    let report = match mode {
        "traffic" => run_traffic(&connect, conns, ops, seed),
        "open" => run_open_loop(&connect, conns, open_spec, shift),
        "verify" => connect().and_then(|mut dev| run_verify(&mut dev, open_spec, shift)),
        "churn" => connect().and_then(|mut dev| run_churn(&mut dev, churn_spec, shift)),
        "churn-verify" => {
            connect().and_then(|mut dev| run_churn_verify(&mut dev, churn_spec, shift))
        }
        other => {
            return Err(format!(
                "unknown --mode {other:?} (traffic|open|verify|churn|churn-verify)"
            ))
        }
    }
    .map_err(|e| format!("client {mode}: {e}"))?;
    println!(
        "{} connections, mode {}: {} writes acked, {} deletes acked, {} reads verified, \
         {} mismatches",
        conns, mode, report.writes, report.deletes, report.reads, report.verify_failures
    );
    // A verify failure is a hard, loud, non-zero exit — never a counter
    // a pipeline could scroll past.
    report
        .ensure_verified()
        .map_err(|e| e.to_string())
        .map(|_| ())
}

/// Parses the churn-schedule flags shared by `fidr client --mode churn`
/// and `fidr gc`.
fn churn_spec_from_flags(
    flags: &HashMap<String, String>,
    default_tenants: u64,
    seed: u64,
) -> Result<fidr::workload::ChurnSpec, String> {
    let delete_pct = u64_flag(flags, "delete-pct", 40)?;
    if delete_pct > 100 {
        return Err(format!(
            "--delete-pct is a percent (0..=100), got {delete_pct}"
        ));
    }
    Ok(fidr::workload::ChurnSpec {
        tenants: u64_flag(flags, "tenants", default_tenants)?.max(1),
        blocks_per_tenant: u64_flag(flags, "blocks", 64)?.max(1),
        rounds: u64_flag(flags, "rounds", 3)?,
        delete_pct: delete_pct as u8,
        seed,
    })
}

fn cmd_gc(flags: &HashMap<String, String>) -> Result<(), String> {
    use fidr::workload::{churn_tag, ChurnKind, ChurnSchedule};
    let seed = u64_flag(flags, "seed", 42)?;
    let spec = churn_spec_from_flags(flags, 4, seed)?;
    let threshold = f64_flag(flags, "threshold", 0.5)?;
    let metrics_out = output_flag(flags, &["metrics-out"])?;
    let shift = fidr::core::DEFAULT_STREAM_SHIFT;
    let gen = ContentGenerator::new(0.5);
    let mut sys = FidrSystem::new(FidrConfig {
        workers: usize_flag(flags, "workers", 1)?,
        ..FidrConfig::default()
    });
    // Age the store in-process: write, overwrite, delete.
    let schedule = ChurnSchedule::generate(spec);
    for op in schedule.ops() {
        let lba = Lba((op.tenant << shift) | op.offset);
        match op.kind {
            ChurnKind::Write { round } => {
                let tag = churn_tag(spec.seed, op.tenant, op.offset, round);
                sys.write(lba, bytes::Bytes::from(gen.chunk(tag, 4096)))
                    .map_err(|e| format!("churn write: {e}"))?;
            }
            ChurnKind::Delete => sys.delete(lba).map_err(|e| format!("churn delete: {e}"))?,
        }
    }
    sys.flush().map_err(|e| format!("flush: {e}"))?;
    let report = sys
        .collect_garbage(threshold)
        .map_err(|e| format!("gc: {e}"))?;
    println!(
        "churn: {} writes, {} deletes over {} tenants x {} blocks ({} rounds)",
        schedule.ops().len() as u64 - schedule.deletes(),
        schedule.deletes(),
        spec.tenants,
        spec.blocks_per_tenant,
        spec.rounds,
    );
    println!(
        "gc: reclaimed {} dead chunks, compacted {} containers ({} survivors moved), \
         freed {} bytes at a copy cost of {} bytes",
        report.reclaimed_pbns,
        report.compacted_containers,
        report.moved_chunks,
        report.freed_bytes,
        report.copied_bytes,
    );
    // Post-GC safety: every survivor must still read back byte-exact.
    let mut mismatches = 0u64;
    for (&(tenant, offset), &round) in schedule.survivors() {
        let got = sys
            .read(Lba((tenant << shift) | offset))
            .map_err(|e| format!("post-gc read: {e}"))?;
        if got != gen.chunk(churn_tag(spec.seed, tenant, offset, round), 4096) {
            mismatches += 1;
        }
    }
    println!(
        "verify: {} survivors read back, {} mismatches",
        schedule.survivors().len(),
        mismatches,
    );
    if let Some(path) = &metrics_out {
        write_output(path, &sys.metrics().to_json())?;
        println!("wrote {path}");
    }
    if mismatches > 0 {
        return Err(format!("{mismatches} survivors read back wrong after gc"));
    }
    if schedule.deletes() > 0 && report.freed_bytes == 0 {
        return Err("churn deleted chunks but gc freed no space".into());
    }
    Ok(())
}

fn cmd_route(flags: &HashMap<String, String>) -> Result<(), String> {
    let nodes = list_flag(flags, "nodes")?;
    // Same map-resolution rule as `fidr client --nodes`: the fleet's
    // installed map wins; the list-derived map bootstraps.
    let map = fetch_current_map(&nodes).map_or_else(
        || map_from_addrs(&nodes).map_err(|e| format!("bad --nodes: {e}")),
        Ok,
    )?;
    let cfg = RouterConfig {
        addr: std::net::SocketAddr::from(([127, 0, 0, 1], u16_flag(flags, "port", 0)?)),
        router: map,
        conns_limit: opt_positive_u64_flag(flags, "conns-limit")?,
    };
    let conns_limit = cfg.conns_limit;
    let handle = Router::spawn(cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = handle.local_addr();
    println!("routing on {addr} over {} nodes", nodes.len());
    if let Some(path) = flags.get("port-file").filter(|p| !p.is_empty()) {
        fidr::server::write_port_file(std::path::Path::new(path), addr)
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    if conns_limit.is_none() {
        println!("routing until killed (pass --conns-limit N for a self-draining run)");
    }
    let report = handle.wait();
    println!(
        "front tier drained: {} connections, {} writes / {} reads / {} deletes routed, \
         {} map requests, {} connection errors",
        report.connections,
        report.writes_routed,
        report.reads_routed,
        report.deletes_routed,
        report.map_gets,
        report.conn_errors,
    );
    Ok(())
}

/// Asks each node in `addrs` for its installed shard map, returning the
/// first non-empty (generation > 0) one.
fn fetch_current_map(addrs: &[String]) -> Option<fidr::nic::ShardRouter> {
    for addr in addrs {
        let Ok(sock) = addr.parse::<std::net::SocketAddr>() else {
            continue;
        };
        let Ok(mut conn) = StorageClient::connect(sock) else {
            continue;
        };
        if let Ok((generation, doc)) = conn.shard_map(fidr::nic::protocol::ShardMapAction::Get, "")
        {
            if generation > 0 {
                if let Ok(map) = fidr::nic::ShardRouter::decode(&doc) {
                    return Some(map);
                }
            }
        }
    }
    None
}

fn cmd_reshard(flags: &HashMap<String, String>) -> Result<(), String> {
    let nodes = list_flag(flags, "nodes")?;
    let derived = map_from_addrs(&nodes).map_err(|e| format!("bad --nodes: {e}"))?;
    // Prefer the fleet's authoritative map (survives earlier reshards,
    // whose generations the derived bootstrap map knows nothing about);
    // fall back to the derived map for a fleet that has none yet.
    let current = fetch_current_map(&nodes).unwrap_or(derived);
    let join = flags.get("join").filter(|a| !a.is_empty());
    let drain = opt_positive_u64_flag(flags, "drain")?;
    let next = match (join, drain) {
        (Some(addr), None) => {
            let node = fidr::nic::ShardNode {
                id: current.nodes().iter().map(|n| n.id).max().unwrap_or(0) + 1,
                addr: addr.clone(),
            };
            let id = node.id;
            let next = join_node(&current, node).map_err(|e| format!("join: {e}"))?;
            println!("node {id} ({addr}) joined");
            next
        }
        (None, Some(id)) => {
            let next = drain_node(&current, id).map_err(|e| format!("drain: {e}"))?;
            println!("node {id} drained; its blocks rehomed to the survivors");
            next
        }
        (None, None) => {
            // Bare reshard: bootstrap-install the derived map on every
            // node, which also rebalances any keys written before the
            // fleet first agreed on a map.
            push_map(&current).map_err(|e| format!("install: {e}"))?;
            println!("installed the bootstrap map on {} nodes", nodes.len());
            current
        }
        (Some(_), Some(_)) => return Err("--join and --drain are mutually exclusive".into()),
    };
    println!(
        "shard map now at generation {} over {} nodes",
        next.generation(),
        next.nodes().len()
    );
    Ok(())
}

/// Parses the required `--addr HOST:PORT` flag.
fn addr_flag(flags: &HashMap<String, String>) -> Result<std::net::SocketAddr, String> {
    flags
        .get("addr")
        .ok_or("missing --addr")?
        .parse()
        .map_err(|_| "bad --addr (want HOST:PORT)".into())
}

fn cmd_scrape(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = addr_flag(flags)?;
    let format = if bool_flag(flags, "prom")? {
        StatsFormat::Prometheus
    } else {
        StatsFormat::Json
    };
    let out = output_flag(flags, &["out"])?;
    let mut client = StorageClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let body = client.scrape(format).map_err(|e| format!("scrape: {e}"))?;
    let text = String::from_utf8_lossy(&body).into_owned();
    match &out {
        Some(path) => {
            write_output(path, &text)?;
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_top(flags: &HashMap<String, String>) -> Result<(), String> {
    use std::io::IsTerminal;
    use std::io::Write as _;
    let addr = addr_flag(flags)?;
    let interval_ms = u64_flag(flags, "interval-ms", 1000)?.max(50);
    let iters = u64_flag(flags, "iters", 0)?;
    let mut client = StorageClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // Redraw-in-place only on a real terminal; piped output gets one
    // frame after another (and is what the smoke tests read).
    let tty = std::io::stdout().is_terminal();
    let mut shown = 0u64;
    loop {
        let body = client
            .scrape(StatsFormat::Json)
            .map_err(|e| format!("scrape: {e}"))?;
        let text = String::from_utf8_lossy(&body);
        let frame = render_top(&text, &addr.to_string())?;
        if tty {
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        let _ = std::io::stdout().flush();
        shown += 1;
        if iters > 0 && shown >= iters {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Renders one `fidr top` frame from a `fidr.timeseries.v1` document.
fn render_top(json: &str, addr: &str) -> Result<String, String> {
    use fidr::trace::Json;
    use std::fmt::Write as _;
    let doc = fidr::trace::parse_json(json).map_err(|e| format!("bad scrape JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("?");
    if schema != "fidr.timeseries.v1" {
        return Err(format!("unexpected scrape schema {schema:?}"));
    }
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_num).unwrap_or(0.0);
    let window = doc.get("window").cloned().unwrap_or(Json::Null);
    let totals = doc.get("totals").cloned().unwrap_or(Json::Null);
    let samples = doc.get("samples").and_then(Json::as_arr).unwrap_or(&[]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fidr top — {addr}   up {:.1}s   sample {} ms   samples {}",
        num(&doc, "uptime_ms") / 1000.0,
        num(&doc, "sample_ms"),
        samples.len(),
    );
    let _ = writeln!(
        out,
        "  {:>10.1} ops/s   {:>8.4} GB/s   queue {:>3}   latency p50 {:.0} us / p99 {:.0} us",
        num(&window, "ops_per_sec"),
        num(&window, "gbps"),
        num(&window, "queue_depth"),
        num(&window, "latency_p50_us"),
        num(&window, "latency_p99_us"),
    );
    let _ = writeln!(
        out,
        "  cache hit {:>5.1}%   dedup ratio {:.3}   writes {}   reads {}   deferred {}",
        num(&window, "hit_ratio") * 100.0,
        num(&totals, "dedup_ratio"),
        num(&totals, "writes") as u64,
        num(&totals, "reads") as u64,
        num(&totals, "deferred") as u64,
    );
    let streams = doc.get("streams").and_then(Json::as_arr).unwrap_or(&[]);
    if !streams.is_empty() {
        let _ = writeln!(
            out,
            "\n  {:<8} {:>10} {:>10} {:>14}",
            "stream", "writes", "reads", "bytes"
        );
        for s in streams {
            let _ = writeln!(
                out,
                "  {:<8} {:>10} {:>10} {:>14}",
                s.get("id").and_then(Json::as_str).unwrap_or("?"),
                num(s, "writes") as u64,
                num(s, "reads") as u64,
                num(s, "bytes") as u64,
            );
        }
    }
    let exemplars = doc.get("exemplars").and_then(Json::as_arr).unwrap_or(&[]);
    if !exemplars.is_empty() {
        let _ = writeln!(out, "\n  slow exemplars (latency over the live p99):");
        for e in exemplars {
            let spans = e
                .get("spans")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|s| {
                    format!(
                        "{}:{}ns",
                        s.get("name").and_then(Json::as_str).unwrap_or("?"),
                        num(s, "dur_ns") as u64
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(
                out,
                "  #{} {} lba={} {:.0} us (threshold {:.0} us){}{}",
                num(e, "seq") as u64,
                e.get("op").and_then(Json::as_str).unwrap_or("?"),
                num(e, "lba") as u64,
                num(e, "latency_us"),
                num(e, "threshold_us"),
                if spans.is_empty() { "" } else { "  spans " },
                spans,
            );
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        println!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let (positional, flags) = parse_flags(&args[1..]);
    let result = if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        Ok(())
    } else if allowed_flags(cmd).is_none() {
        Err(format!("unknown command `{cmd}`"))
    } else {
        // Every subcommand validates its flag set up front: a typo'd or
        // misplaced flag is a usage error naming the flag, never a
        // silent ignore. Only `trace` takes a positional argument.
        reject_unknown_flags(cmd, &flags)
            .and_then(|()| match (cmd.as_str(), positional.first()) {
                ("trace", _) | (_, None) => Ok(()),
                (_, Some(extra)) => Err(format!("unexpected argument {extra:?} for `fidr {cmd}`")),
            })
            .and_then(|()| match cmd.as_str() {
                "run" => cmd_run(&flags),
                "compare" => cmd_compare(&flags),
                "stats" => cmd_stats(&flags),
                "spans" => cmd_spans(&flags),
                "latency" => {
                    cmd_latency();
                    Ok(())
                }
                "cost" => cmd_cost(&flags),
                "report" => cmd_report(&flags),
                "trace" => cmd_trace(&positional, &flags),
                "serve" => cmd_serve(&flags),
                "client" => cmd_client(&flags),
                "gc" => cmd_gc(&flags),
                "scrape" => cmd_scrape(&flags),
                "top" => cmd_top(&flags),
                "route" => cmd_route(&flags),
                "reshard" => cmd_reshard(&flags),
                _ => unreachable!("allowed_flags() gated the command list"),
            })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
