//! The same op sequence replayed in-process, with no wire: through
//! `FidrSystem` built the way `fidr serve` builds it, and through
//! `BaselineSystem` with matching geometry. One span surrounds every
//! `write` / `read` / `delete` / `flush` / `collect_garbage` call.
//!
//! The wire round minus this is what socket, codec, admission and thread
//! hand-off cost; the baseline replay keeps the paper's FIDR-vs-baseline
//! ordering checked on every traced run.

use crate::prom::Counters;
use crate::spans::Spans;
use crate::workload::{Kind, Plan, Requests};
use bytes::Bytes;
use fidr::baseline::{BaselineConfig, BaselineSystem};
use fidr::chunk::Lba;
use fidr::core::{FidrConfig, FidrSystem};
use fidr::metrics::MetricsSnapshot;
use fidr::server::ServerConfig;
use std::time::{Duration, Instant};

/// The calls the replay makes into either engine.
pub trait Engine {
    /// Span name of the replay root.
    const NAME: &'static str;
    /// One 4 KiB write; `false` on error.
    fn write(&mut self, lba: Lba, data: Bytes) -> bool;
    /// One 4 KiB read; `None` on error.
    fn read(&mut self, lba: Lba) -> Option<Vec<u8>>;
    /// One delete; `false` on error.
    fn delete(&mut self, lba: Lba) -> bool;
    /// Drain, seal and flush; `false` on error.
    fn flush(&mut self) -> bool;
    /// One GC pass at the live-fraction threshold; `false` on error.
    fn collect_garbage(&mut self, threshold: f64) -> bool;
    /// The engine's `fidr.metrics.v1` snapshot.
    fn metrics(&self) -> MetricsSnapshot;
}

impl Engine for FidrSystem {
    const NAME: &'static str = "replay:fidr";
    fn write(&mut self, lba: Lba, data: Bytes) -> bool {
        FidrSystem::write(self, lba, data).is_ok()
    }
    fn read(&mut self, lba: Lba) -> Option<Vec<u8>> {
        FidrSystem::read(self, lba).ok()
    }
    fn delete(&mut self, lba: Lba) -> bool {
        FidrSystem::delete(self, lba).is_ok()
    }
    fn flush(&mut self) -> bool {
        FidrSystem::flush(self).is_ok()
    }
    fn collect_garbage(&mut self, threshold: f64) -> bool {
        FidrSystem::collect_garbage(self, threshold).is_ok()
    }
    fn metrics(&self) -> MetricsSnapshot {
        FidrSystem::metrics(self)
    }
}

impl Engine for BaselineSystem {
    const NAME: &'static str = "replay:baseline";
    fn write(&mut self, lba: Lba, data: Bytes) -> bool {
        BaselineSystem::write(self, lba, data).is_ok()
    }
    fn read(&mut self, lba: Lba) -> Option<Vec<u8>> {
        BaselineSystem::read(self, lba).ok()
    }
    fn delete(&mut self, lba: Lba) -> bool {
        BaselineSystem::delete(self, lba).is_ok()
    }
    fn flush(&mut self) -> bool {
        BaselineSystem::flush(self).is_ok()
    }
    fn collect_garbage(&mut self, threshold: f64) -> bool {
        BaselineSystem::collect_garbage(self, threshold).is_ok()
    }
    fn metrics(&self) -> MetricsSnapshot {
        BaselineSystem::metrics(self)
    }
}

/// The engine `fidr serve --workers 1` runs: `cmd_serve` overrides only
/// `workers`, `cache_shards` and `tiered`, all at their defaults here.
pub fn serve_engine() -> FidrSystem {
    FidrSystem::new(FidrConfig {
        workers: 1,
        cache_shards: 1,
        tiered: None,
        ..FidrConfig::default()
    })
}

/// The baseline with the same cache, table and container geometry.
pub fn baseline_engine() -> BaselineSystem {
    let fidr = FidrConfig::default();
    BaselineSystem::new(BaselineConfig {
        cache_lines: fidr.cache_lines,
        table_buckets: fidr.table_buckets,
        container_threshold: fidr.container_threshold,
        data_ssds: fidr.data_ssds,
        workers: 1,
        cache_shards: 1,
        ..BaselineConfig::default()
    })
}

/// What one in-process replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-call durations of measured-phase writes, reads and deletes.
    pub write_ns: Vec<u32>,
    /// See `write_ns`.
    pub read_ns: Vec<u32>,
    /// See `write_ns`.
    pub delete_ns: Vec<u32>,
    /// Durations of the GC passes of the measured phase.
    pub gc_ns: Vec<u64>,
    /// Duration of the final `flush`.
    pub flush: Duration,
    /// Wall time inside engine calls over the measured phase (GC passes
    /// included): what the wire round's wall time is compared against.
    pub measured_engine_ns: u64,
    /// Wall time inside engine calls over the whole replay (setup,
    /// measured, flush): what the layer kernels are reconciled against.
    pub total_engine_ns: u64,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that errored or returned wrong bytes.
    pub failed: u64,
    /// The engine's counters after the final flush.
    pub counters: Counters,
}

/// Replays `plan` through `engine`, running a GC pass after every
/// `gc_every` acked deletes like the server's cadence does (its
/// timer-driven idle GC has no in-process counterpart).
pub fn replay<E: Engine>(
    mut engine: E,
    plan: &Plan,
    requests: &Requests,
    spans: &mut Spans,
) -> Replay {
    let gc_every = plan.workload.gc_every();
    let gc_threshold = ServerConfig::default().gc_threshold;
    let mut out = Replay::default();
    let mut deletes_since_gc = 0u64;
    let root = spans.begin(E::NAME, None);
    for (phase, reqs, measured) in [
        ("setup", &requests.setup, false),
        ("measured", &requests.measured, true),
    ] {
        let phase_span = spans.begin(phase, Some(root));
        // One engine call under a span; its duration goes to the totals.
        let timed = |out: &mut Replay, spans: &mut Spans, name, call: &mut dyn FnMut()| {
            let start = Instant::now();
            call();
            let end = Instant::now();
            spans.record(name, Some(phase_span), start, end);
            let ns = (end - start).as_nanos() as u64;
            out.total_engine_ns += ns;
            if measured {
                out.measured_engine_ns += ns;
            }
            ns
        };
        for req in reqs {
            out.attempted += 1;
            let lba = Lba(req.lba);
            // `None`: the call failed; `Some(None)`: acked; `Some(Some)`:
            // read bytes, compared after the clock stops.
            let mut reply = None;
            let ns = timed(&mut out, spans, req.kind.name(), &mut || {
                reply = match req.kind {
                    Kind::Write => engine.write(lba, req.data.clone()).then_some(None),
                    Kind::Read => engine.read(lba).map(Some),
                    Kind::Delete => engine.delete(lba).then_some(None),
                };
            });
            let ok = match reply {
                None => false,
                Some(None) => true,
                Some(Some(got)) => req.data == got,
            };
            if !ok {
                out.failed += 1;
            }
            if measured {
                let sink = match req.kind {
                    Kind::Write => &mut out.write_ns,
                    Kind::Read => &mut out.read_ns,
                    Kind::Delete => &mut out.delete_ns,
                };
                sink.push(ns.min(u64::from(u32::MAX)) as u32);
            }
            if req.kind == Kind::Delete && ok && gc_every > 0 {
                deletes_since_gc += 1;
                if deletes_since_gc >= gc_every {
                    deletes_since_gc = 0;
                    let mut collected = false;
                    let ns = timed(&mut out, spans, "collect_garbage", &mut || {
                        collected = engine.collect_garbage(gc_threshold);
                    });
                    if !collected {
                        out.failed += 1;
                    }
                    if measured {
                        out.gc_ns.push(ns);
                    }
                }
            }
        }
        spans.end(phase_span);
    }
    let start = Instant::now();
    if !engine.flush() {
        out.failed += 1;
    }
    let end = Instant::now();
    spans.record("flush", Some(root), start, end);
    out.flush = end - start;
    out.total_engine_ns += out.flush.as_nanos() as u64;
    spans.end(root);
    out.counters = Counters::of_snapshot(&engine.metrics());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// A small plan cut from the real generator.
    fn small(workload: Workload) -> (Plan, Requests) {
        // Ops on one LBA depend only on earlier ops on that LBA, so
        // keeping a prefix of the LBA space keeps the sequence valid.
        let mut plan = Plan::generate(workload, 11, 8);
        plan.setup.truncate(2048);
        plan.measured.retain(|op| op.lba < 2048);
        let requests = Requests::build(&plan);
        (plan, requests)
    }

    #[test]
    fn both_engines_replay_churn_without_a_failed_op() {
        let (plan, requests) = small(Workload::ChurnGc);
        let mut spans = Spans::with_capacity(1024);
        let fidr = replay(serve_engine(), &plan, &requests, &mut spans);
        let base = replay(baseline_engine(), &plan, &requests, &mut spans);
        for r in [&fidr, &base] {
            assert_eq!(r.failed, 0);
            assert_eq!(r.attempted as usize, plan.setup.len() + plan.measured.len());
            assert_eq!(
                r.write_ns.len() + r.read_ns.len() + r.delete_ns.len(),
                plan.measured.len()
            );
            assert!(r.total_engine_ns >= r.measured_engine_ns);
            assert!(r.counters.user_bytes() > 0.0);
        }
        assert!(!fidr.gc_ns.is_empty(), "the delete cadence ran GC passes");
        // Both engines were handed the same client bytes.
        assert_eq!(fidr.counters.user_bytes(), base.counters.user_bytes());
        // Two roots, each with two phases and a flush.
        let roots = spans
            .records()
            .iter()
            .filter(|s| s.parent.is_none())
            .count();
        assert_eq!(roots, 2);
    }
}
