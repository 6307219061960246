//! Tiered-table-cache ablation (PR 7): flat inline dedup vs the
//! temperature-tiered cache with deferred cold-stream dedup, on the
//! mixed-locality multi-stream workload, at *equal DRAM capacity*.
//!
//! The setting is HPDedup's: two hot streams (tight reuse windows that
//! reward DRAM residency) interleave with two cold streams whose
//! duplicates reference uniformly old content. Under the flat policy
//! every write does an inline table-cache lookup, so the cold streams'
//! compulsory misses continuously evict the hot streams' lines — the
//! DRAM tier is spent on fingerprints that will not be referenced again
//! within any affordable window. The tiered policy classifies streams by
//! a per-stream reuse-distance sketch, keeps cold-stream fingerprints
//! out of DRAM entirely (they take the modelled table-SSD slow tier via
//! the background scrubber's read-modify-write groups), and lets the hot
//! working sets stay resident.
//!
//! Both runs use the same cache lines, the same table, the same request
//! sequence; the only difference is the admission policy. Reported per
//! mode: deterministic modelled GB/s (same [`TimeModel`] aggregate as
//! `RunReport::modelled_ns`), the end-state dedup ratio (deferred dedup
//! must converge to the same reduction), and the DRAM hit rate. The
//! `tiered-cache:` lines are machine-readable for the `scripts/check.sh`
//! tiered-cache gate.

use fidr::cache::TieredPolicyConfig;
use fidr::core::TieredDedupConfig;
use fidr::hwsim::TimeModel;
use fidr::workload::{MultiStreamWorkload, Request};
use fidr::{run_requests, RunConfig, RunReport, SystemVariant};
use fidr_bench::banner;

/// DRAM lines both modes get — deliberately smaller than the combined
/// hot+cold touched-bucket footprint, so the admission policy (not the
/// capacity) decides who stays resident.
const CACHE_LINES: usize = 1024;

fn run(requests: &[Request], tiered: Option<TieredDedupConfig>) -> RunReport {
    run_requests(
        SystemVariant::FidrFull,
        "mixed-locality",
        requests.iter().cloned(),
        RunConfig {
            cache_lines: CACHE_LINES,
            tiered,
            ..RunConfig::default()
        },
    )
}

fn modelled_gbps(r: &RunReport, time: &TimeModel) -> f64 {
    r.ledger.client_bytes() as f64 / r.modelled_ns(time) as f64
}

fn main() {
    banner(
        "Ablation: tiered table cache",
        "flat vs temperature-tiered admission, mixed-locality streams, equal DRAM",
    );
    let ops = fidr_bench::ops();
    let requests: Vec<Request> = MultiStreamWorkload::mixed_locality(ops).collect();
    let time = TimeModel::default();

    // The classifier thresholds match the measured steady-state
    // separation of `mixed_locality` (hot ≈ 0.8, cold ≈ 0.1 windowed
    // reuse — see the fidr-workload tests): 0.3 splits them with margin
    // on both sides.
    let tiered_cfg = TieredDedupConfig {
        policy: TieredPolicyConfig {
            window: 512,
            hot_threshold: 0.3,
            min_observations: 64,
            epoch: 2048,
        },
        stream_shift: 22,
        scrub_batch: 512,
    };

    let flat = run(&requests, None);
    let tiered = run(&requests, Some(tiered_cfg));

    println!(
        "{ops} requests over 4 streams (2 hot, 2 cold), {CACHE_LINES} DRAM cache lines each\n"
    );
    println!(
        "{:<8} {:>15} {:>12} {:>12} {:>12} {:>12}",
        "mode", "modelled GB/s", "dedup", "DRAM hit", "deferred", "scrub dups"
    );
    for (name, r) in [("flat", &flat), ("tiered", &tiered)] {
        let count = |key: &str| r.metrics.counter(key).unwrap_or(0);
        println!(
            "{name:<8} {:>15.3} {:>11.1}% {:>11.1}% {:>12} {:>12}",
            modelled_gbps(r, &time),
            r.reduction.dedup_ratio() * 100.0,
            r.cache.hit_rate() * 100.0,
            count("dedup.deferred.count"),
            count("scrub.dups.count"),
        );
    }
    let flat_gbps = modelled_gbps(&flat, &time);
    let tiered_gbps = modelled_gbps(&tiered, &time);
    println!(
        "\ntiered/flat: {:.3}x modelled throughput at equal DRAM \
         (hot-stream residency is what the flat policy gives away)",
        tiered_gbps / flat_gbps
    );

    // Machine-readable lines for the scripts/check.sh ablation gate.
    for (name, r) in [("flat", &flat), ("tiered", &tiered)] {
        let count = |key: &str| r.metrics.counter(key).unwrap_or(0);
        println!(
            "tiered-cache: mode={name} modelled_gbps={:.4} dedup_ratio={:.4} cache_hit={:.4} \
             deferred={} scrub_dups={} cold_fetches={}",
            modelled_gbps(r, &time),
            r.reduction.dedup_ratio(),
            r.cache.hit_rate(),
            count("dedup.deferred.count"),
            count("scrub.dups.count"),
            count("cache.tier.cold_fetches.count"),
        );
    }
    println!(
        "tiered-cache: speedup={:.4} dram_lines={CACHE_LINES}",
        tiered_gbps / flat_gbps
    );
}
