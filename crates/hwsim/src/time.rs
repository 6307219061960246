//! Modelled service times derived from the platform capacities.
//!
//! The span tracer (`fidr-trace`) stamps spans with *modelled* nanoseconds
//! rather than wall-clock time, so traces are deterministic per seed. This
//! module turns the byte/cycle accounting that already drives the
//! [`crate::Projection`] into service times: host software time from
//! [`crate::Ledger`] deltas over the socket capacities, and device times
//! from bytes over per-device bandwidths plus a fixed per-IO latency.
//!
//! These are *service* times of an unloaded stage — the same modelling level
//! as `fidr-core`'s `LatencyModel` stages — not queueing delays. They answer
//! "where does a request's time go", which is what critical-path analysis
//! needs; saturation behaviour stays with the projection model.

use crate::ledger::Ledger;
use crate::params::PlatformSpec;

const NS_PER_S: f64 = 1e9;

/// Converts resource consumption into modelled nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeModel {
    /// Core clock in Hz (CPU cycles → ns).
    pub core_hz: f64,
    /// Host DRAM bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Per-device PCIe link bandwidth in bytes/s.
    pub pcie_link_bw: f64,
    /// Per-device table-SSD bandwidth in bytes/s (2 GB/s, Table 5).
    pub table_ssd_bw: f64,
    /// Per-device data-SSD bandwidth in bytes/s.
    pub data_ssd_bw: f64,
    /// NIC hash-engine throughput per engine in bytes/s (line-rate SHA at
    /// 100 Gbps, §5.1).
    pub hash_bw: f64,
    /// Compression-engine throughput in bytes/s (§4.3's VCU1525 pipeline).
    pub compress_bw: f64,
    /// NIC DRAM buffering bandwidth in bytes/s.
    pub nic_bw: f64,
    /// HW-tree pipeline clock in Hz (cycles → ns).
    pub hwtree_clock_hz: f64,
    /// Fixed table-SSD access latency per IO in ns (low-latency NVMe).
    pub table_ssd_io_ns: u64,
    /// Fixed data-SSD access latency per IO in ns (the ~90 µs random-read
    /// service time behind the §7.6 read path).
    pub data_ssd_io_ns: u64,
}

impl Default for TimeModel {
    fn default() -> Self {
        TimeModel::from_platform(&PlatformSpec::default())
    }
}

impl TimeModel {
    /// Derives a time model from socket/device capacities. Bandwidth-class
    /// resources come straight from the spec; the per-IO latencies and
    /// engine throughputs are fixed device characteristics.
    pub fn from_platform(p: &PlatformSpec) -> Self {
        TimeModel {
            core_hz: p.core_hz,
            mem_bw: p.mem_bw,
            pcie_link_bw: p.pcie_link_bw,
            // Per-device figures: the spec's table/data SSD numbers are
            // socket aggregates over an array of devices, but one request
            // touches one device.
            table_ssd_bw: 2.0e9,
            data_ssd_bw: 3.5e9,
            hash_bw: 12.5e9,
            compress_bw: 12.5e9,
            nic_bw: 12.5e9,
            hwtree_clock_hz: p.hwtree_clock_hz,
            table_ssd_io_ns: 25_000,
            data_ssd_io_ns: 90_000,
        }
    }

    fn ratio_ns(amount: f64, per_second: f64) -> u64 {
        if per_second <= 0.0 {
            return 0;
        }
        (amount / per_second * NS_PER_S).round() as u64
    }

    /// Host software time implied by a ledger's totals: CPU cycles over the
    /// core clock, plus host-memory and root-complex PCIe transfer time.
    /// Take the difference of this scalar before/after a stage to get that
    /// stage's host time.
    pub fn host_ns(&self, ledger: &Ledger) -> u64 {
        Self::ratio_ns(ledger.cpu_total() as f64, self.core_hz)
            + Self::ratio_ns(ledger.mem_total() as f64, self.mem_bw)
            + Self::ratio_ns(ledger.root_complex_bytes() as f64, self.pcie_link_bw)
    }

    /// CPU-cycle count → ns at the core clock.
    pub fn cycles_ns(&self, cycles: u64) -> u64 {
        Self::ratio_ns(cycles as f64, self.core_hz)
    }

    /// Table-SSD service time for `ios` accesses moving `bytes` total.
    pub fn table_ssd_ns(&self, bytes: u64, ios: u64) -> u64 {
        ios * self.table_ssd_io_ns + Self::ratio_ns(bytes as f64, self.table_ssd_bw)
    }

    /// Data-SSD service time for `ios` accesses moving `bytes` total.
    pub fn data_ssd_ns(&self, bytes: u64, ios: u64) -> u64 {
        ios * self.data_ssd_io_ns + Self::ratio_ns(bytes as f64, self.data_ssd_bw)
    }

    /// In-NIC hash time for `bytes`.
    pub fn hash_ns(&self, bytes: u64) -> u64 {
        Self::ratio_ns(bytes as f64, self.hash_bw)
    }

    /// (De)compression-engine time for `bytes`.
    pub fn compress_ns(&self, bytes: u64) -> u64 {
        Self::ratio_ns(bytes as f64, self.compress_bw)
    }

    /// NIC buffering/DMA time for `bytes`.
    pub fn nic_ns(&self, bytes: u64) -> u64 {
        Self::ratio_ns(bytes as f64, self.nic_bw)
    }

    /// HW-tree pipeline time for `cycles` at the engine clock.
    pub fn hwtree_ns(&self, cycles: u64) -> u64 {
        Self::ratio_ns(cycles as f64, self.hwtree_clock_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{CpuTask, MemPath, PcieLink};

    #[test]
    fn host_ns_sums_cpu_mem_and_root_complex() {
        let t = TimeModel::from_platform(&PlatformSpec::default());
        let mut l = Ledger::new();
        assert_eq!(t.host_ns(&l), 0);
        l.charge_cpu(CpuTask::DeviceManager, 2_200); // 1 µs at 2.2 GHz
        assert_eq!(t.host_ns(&l), 1_000);
        l.charge_mem(MemPath::TableCache, 170_000); // 1 µs at 170 GB/s
        assert_eq!(t.host_ns(&l), 2_000);
        // P2P traffic does not cross the root complex, so adds nothing.
        l.charge_pcie(PcieLink::NicCompressionP2p, 1 << 20);
        assert_eq!(t.host_ns(&l), 2_000);
        l.charge_pcie(PcieLink::NicHost, 16_000); // 1 µs at 16 GB/s
        assert_eq!(t.host_ns(&l), 3_000);
    }

    #[test]
    fn device_times_scale_with_bytes_and_ios() {
        let t = TimeModel::default();
        assert_eq!(t.table_ssd_ns(0, 1), t.table_ssd_io_ns);
        assert_eq!(
            t.table_ssd_ns(4096, 1),
            t.table_ssd_io_ns + (4096.0 / t.table_ssd_bw * 1e9).round() as u64
        );
        assert!(t.data_ssd_ns(4096, 1) > t.table_ssd_ns(4096, 1));
        // 250 MHz HW-tree: 4 ns per cycle.
        assert_eq!(t.hwtree_ns(25), 100);
    }

    #[test]
    fn zero_capacity_degrades_to_zero_time() {
        let t = TimeModel {
            hash_bw: 0.0,
            ..TimeModel::default()
        };
        assert_eq!(t.hash_ns(4096), 0);
    }

    #[test]
    fn table_ssd_io_dominates_write_miss_budget() {
        // The paper's argument needs table-SSD IO visible as the dominant
        // stage on cache-miss writes; sanity-check the constants keep that
        // ordering (25 µs IO ≫ µs-scale host/hash/compress work).
        let t = TimeModel::default();
        let host_like = t.cycles_ns(12_000) + t.hash_ns(4096) + t.compress_ns(4096);
        assert!(t.table_ssd_ns(4096, 1) > 2 * host_like);
    }
}
