//! The untraced run: R rounds over the wire, reduced to the end-to-end
//! metrics a user of the server would see.

use crate::estimate::{
    latencies_of, median, median_epoch_percentile, percentile, quiet_composite, Epoch,
};
use crate::prom::{div, Counters};
use crate::wire::{run_round, Env, Round};
use crate::workload::{Plan, Requests};
use crate::{Metric, Outcome};
use std::path::Path;

/// The three ratios built from the server's modelled-hardware ledger
/// and its reduction counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerRatios {
    /// `reduction.stored.bytes / client.write.bytes`.
    pub stored_bytes_per_user_byte: f64,
    /// `mem.total.bytes / (client.write.bytes + client.read.bytes)` —
    /// the paper's headline host-memory traffic per client byte.
    pub mem_bytes_per_user_byte: f64,
    /// `cpu.total.cycles` over the same denominator.
    pub cpu_cycles_per_user_byte: f64,
}

impl LedgerRatios {
    /// The ratios of one scrape (or one in-process engine).
    pub fn of(c: &Counters) -> LedgerRatios {
        LedgerRatios {
            stored_bytes_per_user_byte: c
                .ratio("fidr_reduction_stored_bytes", "fidr_client_write_bytes"),
            mem_bytes_per_user_byte: div(c.get("fidr_mem_total_bytes"), c.user_bytes()),
            cpu_cycles_per_user_byte: div(c.get("fidr_cpu_total_cycles"), c.user_bytes()),
        }
    }
}

/// Rate and CPU cost of a composite run:
/// `(ops_per_s, server_cpu_us_per_op)`.
pub fn composite_rate(composite: &[&Epoch]) -> (f64, f64) {
    let ops: usize = composite.iter().map(|e| e.latencies_ns.len()).sum();
    let wall_ns: u64 = composite.iter().map(|e| e.wall_ns).sum();
    let cpu_ns: u64 = composite.iter().map(|e| e.server_cpu_ns).sum();
    (
        div(ops as f64 * 1e9, wall_ns as f64),
        div(cpu_ns as f64 / 1e3, ops as f64),
    )
}

/// The latencies of epoch number `index`'s ops of the workload's primary
/// type, ascending: what `op_p50_us` and `op_p99_us` are taken over.
///
/// A percentile over a *mix* of op types sits wherever the mix puts it:
/// on `churn_gc`, 0.82 % of all ops are millisecond-class (1 write in 64
/// drains the hash batch, writes are half the ops, 1 delete in 256 runs a
/// GC pass), so the all-ops p99 lies 0.18 % below that cliff, in the thin
/// band of ops that queued behind a timer-driven idle GC pass, and moved
/// 20 % from run to run. Over the writes alone it is the batch stall, as
/// on the ingest workloads. The per-type percentiles of all three types
/// are in the traced run (`wire.*`).
fn primary_latencies(plan: &Plan, index: usize, epoch: &Epoch) -> Vec<u32> {
    latencies_of(
        &plan.measured[index * plan.epoch_ops..],
        &epoch.latencies_ns,
        plan.workload.primary_kind(),
    )
}

/// Runs `rounds` rounds of `plan` and reduces them. The last round also
/// re-reads the whole end state.
pub fn run(
    env: &Env,
    plan: &Plan,
    requests: &Requests,
    rounds: usize,
    epochs_csv: &Path,
) -> std::io::Result<Outcome> {
    let mut done: Vec<Round> = Vec::with_capacity(rounds);
    for i in 0..rounds {
        done.push(run_round(env, plan, requests, None, i + 1 == rounds)?);
    }
    write_epochs_csv(epochs_csv, plan, &done)?;
    Ok(reduce(plan, done))
}

/// Every epoch of the run as one CSV row: what a reader needs to tell a
/// noisy run from a slow program (which rounds and epochs were slow, and
/// whether wall, CPU and percentiles moved together).
fn write_epochs_csv(path: &Path, plan: &Plan, rounds: &[Round]) -> std::io::Result<()> {
    let mut csv = String::from("round,epoch,wall_ns,server_cpu_ns,client_cpu_ns,p50_ns,p99_ns\n");
    for (r, round) in rounds.iter().enumerate() {
        for (e, epoch) in round.epochs.iter().enumerate() {
            let sorted = primary_latencies(plan, e, epoch);
            csv.push_str(&format!(
                "{r},{e},{},{},{},{},{}\n",
                epoch.wall_ns,
                epoch.server_cpu_ns,
                epoch.client_cpu_ns,
                percentile(&sorted, 0.50),
                percentile(&sorted, 0.99),
            ));
        }
    }
    std::fs::write(path, csv)
}

/// Reduces the rounds of one run to the end-to-end metrics.
pub fn reduce(plan: &Plan, rounds: Vec<Round>) -> Outcome {
    let mut out = Outcome::default();
    let ledgers: Vec<LedgerRatios> = rounds
        .iter()
        .map(|r| LedgerRatios::of(&r.counters))
        .collect();
    if plan.workload.counts_repeat_exactly() && ledgers.iter().any(|l| *l != ledgers[0]) {
        out.violations.push(format!(
            "ledger ratios differ between rounds of a timer-free workload: {ledgers:?}"
        ));
    }
    out.attempted = rounds.iter().map(|r| r.attempted).sum();
    out.failed = rounds.iter().map(|r| r.failed).sum();
    let setup_s = rounds
        .iter()
        .map(|r| r.setup_s)
        .fold(f64::INFINITY, f64::min);
    let peak_rss_kb = median(
        &rounds
            .iter()
            .map(|r| r.peak_rss_kb as f64)
            .collect::<Vec<f64>>(),
    );
    let epochs: Vec<Vec<Epoch>> = rounds.into_iter().map(|r| r.epochs).collect();
    let composite = quiet_composite(&epochs);
    let (ops_per_s, server_cpu_us_per_op) = composite_rate(&composite);
    let primary: Vec<Vec<u32>> = composite
        .iter()
        .enumerate()
        .map(|(index, epoch)| primary_latencies(plan, index, epoch))
        .collect();
    let over_rounds =
        |f: fn(&LedgerRatios) -> f64| median(&ledgers.iter().map(f).collect::<Vec<f64>>());
    out.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", ops_per_s, "op/s"),
        Metric::new(
            "op_p50_us",
            median_epoch_percentile(&primary, 0.50) / 1e3,
            "us",
        ),
        Metric::new(
            "op_p99_us",
            median_epoch_percentile(&primary, 0.99) / 1e3,
            "us",
        ),
        Metric::new("server_cpu_us_per_op", server_cpu_us_per_op, "us"),
        Metric::new("server_peak_rss_mb", peak_rss_kb / 1024.0, "MiB"),
        Metric::new(
            "stored_bytes_per_user_byte",
            over_rounds(|l| l.stored_bytes_per_user_byte),
            "ratio",
        ),
        Metric::new(
            "modelled_mem_bytes_per_user_byte",
            over_rounds(|l| l.mem_bytes_per_user_byte),
            "ratio",
        ),
        Metric::new(
            "modelled_cpu_cycles_per_user_byte",
            over_rounds(|l| l.cpu_cycles_per_user_byte),
            "ratio",
        ),
    ];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_composite_rate_uses_the_quiet_epochs_and_their_cpu() {
        let epoch = |wall_ns, server_cpu_ns| Epoch {
            wall_ns,
            server_cpu_ns,
            client_cpu_ns: 0,
            latencies_ns: vec![0; 1000],
        };
        let rounds = vec![
            vec![epoch(2_000_000, 900_000), epoch(1_000_000, 500_000)],
            vec![epoch(1_000_000, 400_000), epoch(3_000_000, 800_000)],
        ];
        let (ops_per_s, cpu_us) = composite_rate(&quiet_composite(&rounds));
        // 2,000 ops in 2 ms; 0.9 ms of CPU over them.
        assert_eq!(ops_per_s, 1_000_000.0);
        assert!((cpu_us - 0.45).abs() < 1e-12);
    }

    #[test]
    fn percentiles_see_only_the_primary_op_type() {
        use crate::workload::{Kind, Workload};
        let plan = Plan::generate(Workload::ChurnGc, 3, 2);
        // Latency = position in the second epoch, so the sample says
        // which ops were kept.
        let epoch = Epoch {
            latencies_ns: (0..plan.epoch_ops as u32).collect(),
            ..Epoch::default()
        };
        let kept = primary_latencies(&plan, 1, &epoch);
        assert_eq!(
            kept.len(),
            plan.epoch_ops / 2,
            "writes are half of churn_gc"
        );
        let second = &plan.measured[plan.epoch_ops..];
        assert!(kept.iter().all(|&i| second[i as usize].kind == Kind::Write));
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        // A read-only epoch keeps every op.
        let reads = Plan::generate(Workload::ReadBack, 3, 1);
        let epoch = Epoch {
            latencies_ns: vec![7; reads.epoch_ops],
            ..Epoch::default()
        };
        assert_eq!(primary_latencies(&reads, 0, &epoch).len(), reads.epoch_ops);
    }

    #[test]
    fn ledger_ratios_divide_by_client_bytes() {
        let c = Counters::parse(
            "fidr_reduction_stored_bytes 2050\nfidr_client_write_bytes 4096\n\
             fidr_client_read_bytes 4096\nfidr_mem_total_bytes 16384\n\
             fidr_cpu_total_cycles 81920\n",
        );
        let l = LedgerRatios::of(&c);
        assert_eq!(l.stored_bytes_per_user_byte, 2050.0 / 4096.0);
        assert_eq!(l.mem_bytes_per_user_byte, 2.0);
        assert_eq!(l.cpu_cycles_per_user_byte, 10.0);
        assert_eq!(
            LedgerRatios::of(&Counters::default()).mem_bytes_per_user_byte,
            0.0
        );
    }
}
