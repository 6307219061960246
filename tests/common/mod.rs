//! Helpers shared by the integration tests: the small backend geometry,
//! the deterministic slice of a drain export, and a test-local view of
//! what `FidrSystem` and `BaselineSystem` share, so one lifecycle test
//! body runs against both engines (the same idea as
//! `benchmark/src/replay.rs::Engine`).

// Each test binary uses its own subset of this module.
#![allow(dead_code)]

use bytes::Bytes;
use fidr::baseline::{BaselineConfig, BaselineSystem};
use fidr::chunk::Lba;
use fidr::core::{FidrConfig, FidrError, FidrSystem, Snapshot};
use fidr::faults::FaultPlan;
use fidr::metrics::MetricsSnapshot;
use fidr::tables::GcReport;

/// A small, fast backend (64-line cache, 4 096 buckets, 64-KB
/// containers) so batches, container seals and compaction actually
/// happen within a few hundred ops.
pub fn small_system() -> FidrConfig {
    FidrConfig {
        cache_lines: 64,
        table_buckets: 1 << 12,
        container_threshold: 64 << 10,
        hash_batch: 8,
        ..FidrConfig::default()
    }
}

/// The `fidr.metrics.v1` drain export, minus the `pool.*` block: pool
/// counters carry wall-clock busy/idle times and the worker count
/// itself, which legitimately differ across `--workers`.
pub fn deterministic_drain_json(metrics: &MetricsSnapshot) -> String {
    metrics
        .to_json()
        .lines()
        .filter(|line| !line.contains("\"pool."))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The lifecycle surface of one engine at the [`small_system`]
/// geometry.
pub trait Engine: Sized {
    fn new(plan: FaultPlan) -> Self;
    fn restore(plan: FaultPlan, snapshot: Snapshot) -> Self;
    fn write(&mut self, lba: Lba, data: Bytes) -> Result<(), FidrError>;
    fn read(&mut self, lba: Lba) -> Result<Vec<u8>, FidrError>;
    fn delete(&mut self, lba: Lba) -> Result<(), FidrError>;
    fn flush(&mut self) -> Result<(), FidrError>;
    fn collect_garbage(&mut self, live_threshold: f64) -> Result<GcReport, FidrError>;
    fn checkpoint(&mut self) -> Result<Snapshot, FidrError>;
    fn verify_integrity(&mut self) -> Result<u64, FidrError>;
    fn pending_dead_chunks(&self) -> usize;
    fn metrics(&self) -> MetricsSnapshot;
    fn inject_data_corruption(&mut self, container: u64, byte: usize) -> bool;
}

fn fidr_cfg(plan: FaultPlan) -> FidrConfig {
    FidrConfig {
        faults: plan,
        ..small_system()
    }
}

fn baseline_cfg(plan: FaultPlan) -> BaselineConfig {
    BaselineConfig {
        cache_lines: 64,
        table_buckets: 1 << 12,
        container_threshold: 64 << 10,
        faults: plan,
        ..BaselineConfig::default()
    }
}

macro_rules! impl_engine {
    ($system:ident, $cfg:ident) => {
        impl Engine for $system {
            fn new(plan: FaultPlan) -> Self {
                $system::new($cfg(plan))
            }
            fn restore(plan: FaultPlan, snapshot: Snapshot) -> Self {
                $system::restore($cfg(plan), snapshot)
            }
            fn write(&mut self, lba: Lba, data: Bytes) -> Result<(), FidrError> {
                $system::write(self, lba, data)
            }
            fn read(&mut self, lba: Lba) -> Result<Vec<u8>, FidrError> {
                $system::read(self, lba)
            }
            fn delete(&mut self, lba: Lba) -> Result<(), FidrError> {
                $system::delete(self, lba)
            }
            fn flush(&mut self) -> Result<(), FidrError> {
                $system::flush(self)
            }
            fn collect_garbage(&mut self, live_threshold: f64) -> Result<GcReport, FidrError> {
                $system::collect_garbage(self, live_threshold)
            }
            fn checkpoint(&mut self) -> Result<Snapshot, FidrError> {
                $system::checkpoint(self)
            }
            fn verify_integrity(&mut self) -> Result<u64, FidrError> {
                $system::verify_integrity(self)
            }
            fn pending_dead_chunks(&self) -> usize {
                $system::pending_dead_chunks(self)
            }
            fn metrics(&self) -> MetricsSnapshot {
                $system::metrics(self)
            }
            fn inject_data_corruption(&mut self, container: u64, byte: usize) -> bool {
                $system::inject_data_corruption(self, container, byte)
            }
        }
    };
}

impl_engine!(FidrSystem, fidr_cfg);
impl_engine!(BaselineSystem, baseline_cfg);

/// Instantiates each named generic test (`fn name<E: Engine>()`) once
/// per engine, as `fidr_engine::name` and `baseline_engine::name`.
#[macro_export]
macro_rules! for_both_engines {
    ($($name:ident),+ $(,)?) => {
        mod fidr_engine {
            $(#[test] fn $name() { super::$name::<fidr::core::FidrSystem>() })+
        }
        mod baseline_engine {
            $(#[test] fn $name() { super::$name::<fidr::baseline::BaselineSystem>() })+
        }
    };
}
