//! Experiment runner: drives a workload through a system variant and
//! collects everything the paper's figures need.
//!
//! The four variants correspond to the staged bars of Figures 12 and 14:
//! the CIDR-extended baseline, FIDR's NIC offload + P2P with the software
//! table cache still on the CPU, the Cache HW-Engine with the
//! single-update tree, and full FIDR with concurrent updates.

use fidr_baseline::{BaselineConfig, BaselineSystem, PredictorStats};
use fidr_cache::{CacheStats, HwTreeStats};
use fidr_core::{CacheMode, FidrConfig, FidrError, FidrSystem, TieredDedupConfig};
use fidr_faults::{FaultPlan, RetryPolicy};
use fidr_hwsim::{CostParams, Ledger, PlatformSpec, Projection, TimeModel};
use fidr_metrics::MetricsSnapshot;
use fidr_tables::ReductionStats;
use fidr_trace::{CriticalPathReport, SpanRecord, TraceConfig};
use fidr_workload::{Request, Workload, WorkloadSpec};

/// Which system architecture to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemVariant {
    /// The CIDR-extended baseline (§2.3).
    Baseline,
    /// FIDR ideas (a)+(b): NIC hashing + P2P, software table cache.
    FidrNicP2p,
    /// Plus the Cache HW-Engine with a single-update tree.
    FidrHwCacheSingleUpdate,
    /// Full FIDR: concurrent (4-slot) speculative tree updates.
    FidrFull,
}

impl SystemVariant {
    /// All variants in Figure 14's bar order.
    pub const ALL: [SystemVariant; 4] = [
        SystemVariant::Baseline,
        SystemVariant::FidrNicP2p,
        SystemVariant::FidrHwCacheSingleUpdate,
        SystemVariant::FidrFull,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SystemVariant::Baseline => "Baseline (CIDR-ext)",
            SystemVariant::FidrNicP2p => "FIDR NIC+P2P",
            SystemVariant::FidrHwCacheSingleUpdate => "FIDR +HW cache (1 upd)",
            SystemVariant::FidrFull => "FIDR full (4 upd)",
        }
    }
}

/// Sizing knobs shared by every run of one experiment.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Table-cache lines (the paper caches 2.8 % of the table).
    pub cache_lines: usize,
    /// Hash-PBN buckets on the table SSDs.
    pub table_buckets: u64,
    /// Container seal threshold in bytes.
    pub container_threshold: usize,
    /// NIC hash batch (FIDR variants).
    pub hash_batch: usize,
    /// Per-operation cost constants (default: paper-calibrated).
    pub cost: CostParams,
    /// Seeded fault schedule injected into the device models (inert by
    /// default; see `fidr_faults::FaultPlan::parse`).
    pub faults: FaultPlan,
    /// Bounded-retry policy for device faults and checksum re-reads.
    pub retry: RetryPolicy,
    /// Per-request span tracing (disabled by default; enable to fill
    /// [`RunReport::spans`] and [`RunReport::critical_path`]).
    pub trace: TraceConfig,
    /// Worker threads for the per-socket batch pipeline (1 = serial).
    /// Modelled metrics are byte-identical for any worker count.
    pub workers: usize,
    /// Hash-prefix shards of the table cache (1 = unsharded).
    pub cache_shards: usize,
    /// Temperature-tiered admission with deferred dedup for cold
    /// streams (`None` = flat inline dedup for every write). FIDR
    /// variants only; the baseline ignores it.
    pub tiered: Option<TieredDedupConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cache_lines: 4096,
            table_buckets: 1 << 17,
            container_threshold: 4 << 20,
            hash_batch: 64,
            cost: CostParams::default(),
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            trace: TraceConfig::default(),
            workers: 1,
            cache_shards: 1,
            tiered: None,
        }
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Variant that ran.
    pub variant: SystemVariant,
    /// Workload name.
    pub workload: String,
    /// Resource ledger.
    pub ledger: Ledger,
    /// Reduction outcomes.
    pub reduction: ReductionStats,
    /// Table-cache counters.
    pub cache: CacheStats,
    /// HW-tree counters, when the Cache HW-Engine ran.
    pub hwtree: Option<HwTreeStats>,
    /// HW-tree throughput ceiling in bytes/s at the default platform's
    /// FPGA DRAM bandwidth, when the engine ran.
    pub hwtree_ceiling: Option<f64>,
    /// Predictor counters (baseline only).
    pub predictor: Option<PredictorStats>,
    /// Per-stage metrics snapshot (`fidr.metrics.v1` schema; see
    /// `docs/OBSERVABILITY.md`).
    pub metrics: MetricsSnapshot,
    /// Completed spans in modelled time, oldest first (empty unless
    /// [`RunConfig::trace`] enabled tracing; bounded by the ring).
    pub spans: Vec<SpanRecord>,
    /// Per-op-class critical-path breakdown accumulated at span close
    /// (sees every op even when the span ring drops).
    pub critical_path: CriticalPathReport,
}

impl RunReport {
    /// Projects the achievable throughput on `platform` (§7.5's method),
    /// folding in the HW-tree ceiling when present.
    pub fn projection(&self, platform: &PlatformSpec) -> Projection {
        let mut extra = Vec::new();
        if let Some(ceiling) = self.hwtree_ceiling {
            extra.push(("cache HW-engine".to_string(), ceiling));
        }
        Projection::project(&self.ledger, platform, &extra)
    }

    /// Achievable throughput in GB/s on `platform`.
    pub fn achievable_gbps(&self, platform: &PlatformSpec) -> f64 {
        self.projection(platform).achievable / 1e9
    }

    /// Converts this run's measured per-chunk resource demands into a
    /// tandem discrete-event pipeline on `platform`: one station per
    /// shared resource, each with service time `demand / capacity`. The
    /// pipeline's saturation throughput equals the §7.5 analytic
    /// projection by construction, so driving it cross-checks that the
    /// projection composes (and exposes the latency the analytic model
    /// cannot see).
    pub fn to_write_pipeline(&self, platform: &PlatformSpec) -> fidr_hwsim::des::PipelineSim {
        use fidr_hwsim::des::Station;
        use std::time::Duration;

        let chunks = (self.ledger.client_bytes() / 4096).max(1) as f64;
        let per_chunk = |total: f64| total / chunks;
        let service = |demand: f64, capacity: f64| Duration::from_secs_f64(demand / capacity);

        let mut stations = vec![
            Station::new(
                "host memory",
                service(per_chunk(self.ledger.mem_total() as f64), platform.mem_bw),
            ),
            Station::new(
                "CPU",
                service(
                    per_chunk(self.ledger.cpu_total() as f64),
                    platform.cpu_capacity(),
                ),
            ),
            Station::new(
                "PCIe root complex",
                service(
                    per_chunk(self.ledger.root_complex_bytes() as f64),
                    platform.pcie_bw,
                ),
            ),
            Station::new(
                "table SSDs",
                service(
                    per_chunk(
                        (self.ledger.table_ssd_read_bytes + self.ledger.table_ssd_write_bytes)
                            as f64,
                    ),
                    platform.table_ssd_bw,
                ),
            ),
            Station::new(
                "data SSDs",
                service(
                    per_chunk(
                        (self.ledger.data_ssd_read_bytes + self.ledger.data_ssd_write_bytes) as f64,
                    ),
                    platform.data_ssd_bw,
                ),
            ),
        ];
        if let Some(ceiling) = self.hwtree_ceiling {
            stations.push(Station::new(
                "cache HW-engine",
                Duration::from_secs_f64(4096.0 / ceiling),
            ));
        }
        // Zero-service stations would break nothing but add noise.
        stations.retain(|s| s.service > Duration::ZERO);
        fidr_hwsim::des::PipelineSim::new(stations)
    }

    /// Deterministic modelled run time in nanoseconds under `time`: host
    /// software time from the ledger plus device service times for the
    /// table/data SSD bytes, hashing, compression and NIC buffering this
    /// run performed. A serial-service aggregate (no overlap), so it is a
    /// stable per-seed scalar — use it wherever a throughput number must
    /// not depend on wall clock.
    pub fn modelled_ns(&self, time: &TimeModel) -> u64 {
        let l = &self.ledger;
        let table_bytes = l.table_ssd_read_bytes + l.table_ssd_write_bytes;
        let table_ios = table_bytes.div_ceil(fidr_tables::BUCKET_BYTES as u64);
        let data_bytes = l.data_ssd_read_bytes + l.data_ssd_write_bytes;
        time.host_ns(l)
            + time.table_ssd_ns(table_bytes, table_ios)
            + time.data_ssd_ns(data_bytes, self.reduction.containers_sealed)
            + time.hash_ns(l.client_bytes())
            + time.compress_ns(self.reduction.unique_chunks * 4096)
            + time.nic_ns(l.client_bytes())
    }
}

/// Aggregate result of a multi-socket (sharded) run.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<RunReport>,
    /// Wall-clock seconds for the slowest shard (shards run in parallel).
    /// Nondeterministic — a host-load diagnostic only; derive throughput
    /// claims from [`modelled_gbps`](ShardedReport::modelled_gbps).
    pub wall_seconds: f64,
}

impl ShardedReport {
    /// Aggregate achievable throughput: the paper treats sockets as
    /// independent (§3.2: "each socket has independent CPU cores,
    /// independent memory, and IO buses"), so capacities add.
    pub fn aggregate_gbps(&self, platform: &PlatformSpec) -> f64 {
        self.shards
            .iter()
            .map(|r| r.achievable_gbps(platform))
            .sum()
    }

    /// Modelled run time: the slowest shard's [`RunReport::modelled_ns`]
    /// under `time` (shards run in parallel). Deterministic per seed.
    pub fn modelled_seconds(&self, time: &TimeModel) -> f64 {
        self.shards
            .iter()
            .map(|r| r.modelled_ns(time))
            .max()
            .unwrap_or(0) as f64
            / 1e9
    }

    /// Deterministic throughput in GB/s: total client bytes over the
    /// slowest shard's modelled time. The replacement for the old
    /// wall-clock `functional_gbps` wherever a reproducible number is
    /// needed (tests, committed benchmark snapshots).
    pub fn modelled_gbps(&self, time: &TimeModel) -> f64 {
        let seconds = self.modelled_seconds(time);
        if seconds <= 0.0 {
            return 0.0;
        }
        let bytes: u64 = self.shards.iter().map(|r| r.ledger.client_bytes()).sum();
        bytes as f64 / seconds / 1e9
    }

    /// Functional wall-clock throughput of this process (real bytes
    /// hashed, deduplicated and compressed per second). Depends on host
    /// load and scheduling — treat as a diagnostic, not a result.
    pub fn functional_gbps(&self) -> f64 {
        let bytes: u64 = self.shards.iter().map(|r| r.ledger.client_bytes()).sum();
        bytes as f64 / self.wall_seconds / 1e9
    }
}

/// Derives shard `i`'s workload seed from the run's base seed with a
/// SplitMix64 finalizer over the (seed, shard) pair. Shard 0 keeps the
/// base seed, so a 1-shard run reproduces the direct run exactly.
///
/// The previous striping (`seed + i * 0x9E37_79B9`) used a 32-bit
/// constant, so base seed `s + 0x9E37_79B9`'s shard 0 collided with base
/// seed `s`'s shard 1 — adjacent experiment seeds silently shared client
/// streams. The full-width mix makes shard-seed sets of nearby base
/// seeds disjoint (`splitmix64` is a bijection, so two shards of one run
/// can never collide either).
pub fn shard_seed(base: u64, shard: usize) -> u64 {
    if shard == 0 {
        return base;
    }
    fidr_hash::splitmix64(base.wrapping_add(fidr_hash::splitmix64(shard as u64)))
}

/// Runs `spec` across `shards` independent sockets in parallel — each
/// socket serves its own client population of `spec.ops` requests with
/// its own tables, cache and ledger, exactly the paper's multi-socket
/// model (§3.2: per-socket resources are independent).
///
/// # Panics
///
/// Panics if `shards` is zero or a shard's pipeline errors.
pub fn run_workload_sharded(
    variant: SystemVariant,
    spec: WorkloadSpec,
    run: RunConfig,
    shards: usize,
) -> ShardedReport {
    assert!(shards > 0, "need at least one shard");
    let started = std::time::Instant::now();
    let reports: Vec<RunReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|i| {
                let mut shard_spec = spec.clone();
                // Distinct seeds stripe the work; each shard serves its
                // own slice of clients.
                shard_spec.seed = shard_seed(spec.seed, i);
                shard_spec.name = format!("{}[shard {i}]", spec.name);
                scope.spawn(move || run_workload(variant, shard_spec, run))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    ShardedReport {
        shards: reports,
        wall_seconds: started.elapsed().as_secs_f64().max(1e-9),
    }
}

/// Runs `spec` through `variant` and reports the measurements.
///
/// # Panics
///
/// Panics if the storage pipeline reports an error (sizing in
/// [`RunConfig`] should make the tables large enough) or read-back
/// verification fails.
pub fn run_workload(variant: SystemVariant, spec: WorkloadSpec, run: RunConfig) -> RunReport {
    let workload_name = spec.name.clone();
    match variant {
        SystemVariant::Baseline => {
            let mut sys = BaselineSystem::new(BaselineConfig {
                cache_lines: run.cache_lines,
                table_buckets: run.table_buckets,
                container_threshold: run.container_threshold,
                cost: run.cost,
                faults: run.faults,
                retry: run.retry,
                trace: run.trace,
                workers: run.workers,
                cache_shards: run.cache_shards,
                ..BaselineConfig::default()
            });
            // With workers the baseline batches consecutive writes (up to
            // the FIDR hash-batch size, for comparability) so hashing and
            // compression precompute on the pool; reads flush the pending
            // batch first to preserve program order.
            let mut pending: Vec<(fidr_chunk::Lba, bytes::Bytes)> = Vec::new();
            for req in Workload::new(spec) {
                match req {
                    Request::Write { lba, data } => {
                        if run.workers > 1 {
                            pending.push((lba, data));
                            if pending.len() >= run.hash_batch.max(1) {
                                sys.write_batch(std::mem::take(&mut pending))
                                    .expect("baseline write");
                            }
                        } else {
                            sys.write(lba, data).expect("baseline write");
                        }
                    }
                    Request::Read { lba } => {
                        if !pending.is_empty() {
                            sys.write_batch(std::mem::take(&mut pending))
                                .expect("baseline write");
                        }
                        sys.read(lba).expect("baseline read");
                    }
                }
            }
            if !pending.is_empty() {
                sys.write_batch(pending).expect("baseline write");
            }
            sys.flush().expect("baseline flush");
            let metrics = sys.metrics();
            RunReport {
                variant,
                workload: workload_name,
                ledger: sys.ledger().clone(),
                reduction: sys.stats(),
                cache: sys.cache_stats(),
                hwtree: None,
                hwtree_ceiling: None,
                predictor: Some(sys.predictor_stats()),
                metrics,
                spans: sys.tracer().spans(),
                critical_path: sys.tracer().critical_path(),
            }
        }
        _ => run_requests(variant, &workload_name, Workload::new(spec), run),
    }
}

/// Runs an arbitrary request stream through a FIDR variant — the entry
/// point for streams that are not a single [`Workload`], such as the
/// mixed-locality [`fidr_workload::MultiStreamWorkload`] behind the
/// tiered-cache ablation.
///
/// # Panics
///
/// Panics on [`SystemVariant::Baseline`] (the baseline runner needs a
/// [`WorkloadSpec`]; use [`run_workload`]), or if the pipeline errors.
pub fn run_requests<I>(
    variant: SystemVariant,
    workload_name: &str,
    requests: I,
    run: RunConfig,
) -> RunReport
where
    I: IntoIterator<Item = Request>,
{
    let cache_mode = match variant {
        SystemVariant::FidrNicP2p => CacheMode::Software,
        SystemVariant::FidrHwCacheSingleUpdate => CacheMode::HwEngine { update_slots: 1 },
        SystemVariant::FidrFull => CacheMode::HwEngine { update_slots: 4 },
        SystemVariant::Baseline => panic!("run_requests drives FIDR variants only"),
    };
    let mut sys = FidrSystem::new(FidrConfig {
        cache_lines: run.cache_lines,
        table_buckets: run.table_buckets,
        container_threshold: run.container_threshold,
        hash_batch: run.hash_batch,
        cache_mode,
        hwtree_levels: Some(14),
        cost: run.cost,
        faults: run.faults,
        retry: run.retry,
        trace: run.trace,
        workers: run.workers,
        cache_shards: run.cache_shards,
        tiered: run.tiered,
        ..FidrConfig::default()
    });
    for req in requests {
        match req {
            Request::Write { lba, data } => {
                sys.write(lba, data).expect("fidr write");
            }
            Request::Read { lba } => match sys.read(lba) {
                Ok(_) => {}
                Err(FidrError::NotMapped(_)) => unreachable!("reads target written LBAs"),
                Err(e) => panic!("fidr read: {e}"),
            },
        }
    }
    sys.flush().expect("fidr flush");
    let platform = PlatformSpec::default();
    let hwtree = sys.hwtree_stats();
    let hwtree_ceiling = sys.hwtree_throughput(platform.fpga_dram_bw);
    let metrics = sys.metrics();
    RunReport {
        variant,
        workload: workload_name.to_string(),
        ledger: sys.ledger().clone(),
        reduction: sys.stats(),
        cache: sys.cache_stats(),
        hwtree,
        hwtree_ceiling,
        predictor: None,
        metrics,
        spans: sys.tracer().spans(),
        critical_path: sys.tracer().critical_path(),
    }
}
